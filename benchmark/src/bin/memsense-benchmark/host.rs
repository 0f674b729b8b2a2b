//! The host block every result carries, so a number is never read apart
//! from the machine and settings that produced it.

use std::io;
use std::path::Path;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};

use memsense_experiments::json::Json;

use crate::loadgen;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `MEMSENSE_THREADS` every workload process runs with.
    pub memsense_threads: &'static str,
    /// Model-solve worker threads the server child reported starting
    /// (`ServerConfig::default()` picks them from the CPUs it may use);
    /// `None` until a serve workload has run.
    pub server_workers: Option<usize>,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Commit of the checkout, when it is a git repository.
    pub commit: String,
    /// Run seed.
    pub seed: u64,
}

/// `MEMSENSE_THREADS` for every workload process: at 2 threads the sim
/// medians drifted 10–13% between runs on a 2-CPU host; at 1 they repeat.
pub const MEMSENSE_THREADS: &str = "1";

/// Available logical CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    list.trim()
        .split(',')
        .flat_map(|range| {
            let mut ends = range.split('-').map(|n| n.trim().parse::<usize>());
            match (ends.next(), ends.next()) {
                (Some(Ok(a)), Some(Ok(b))) => (a..=b).collect(),
                (Some(Ok(a)), None) => vec![a],
                _ => Vec::new(),
            }
        })
        .collect()
}

/// CPUs for the workload process (the simulator or the load generator)
/// and for a serve workload's server child: the first
/// two CPUs this process may use, or `None` on a one-CPU host or once
/// `taskset` has been found missing. Without pinning the scheduler places
/// the server's reactor, its workers and the generator differently from run
/// to run, and serve latency and CPU cost per request swing by a third
/// between runs of the same inputs.
pub fn pinning() -> Option<(usize, usize)> {
    if NO_TASKSET.load(Ordering::Relaxed) {
        return None;
    }
    match allowed_cpus()[..] {
        [worker, server, ..] => Some((worker, server)),
        _ => None,
    }
}

/// Set once `taskset` turned out not to be installed: every later spawn
/// runs unpinned, and [`pinning`] says so.
static NO_TASKSET: AtomicBool = AtomicBool::new(false);

/// Spawns `program`, with arguments and stdio set by `configure`, on `cpu`
/// through `taskset` (which sets the affinity and execs, so the child keeps
/// its pid). Without `cpu`, or on a host without `taskset`, the child runs
/// unpinned.
///
/// # Errors
///
/// The spawn error.
pub fn spawn_on(
    cpu: Option<usize>,
    program: &Path,
    configure: impl Fn(&mut Command),
) -> io::Result<Child> {
    spawn_via("taskset", cpu, program, configure)
}

fn spawn_via(
    launcher: &str,
    cpu: Option<usize>,
    program: &Path,
    configure: impl Fn(&mut Command),
) -> io::Result<Child> {
    if let Some(cpu) = cpu.filter(|_| !NO_TASKSET.load(Ordering::Relaxed)) {
        let mut cmd = Command::new(launcher);
        cmd.arg("-c").arg(cpu.to_string()).arg(program);
        configure(&mut cmd);
        match cmd.spawn() {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                NO_TASKSET.store(true, Ordering::Relaxed);
            }
            spawned => return spawned,
        }
    }
    let mut cmd = Command::new(program);
    configure(&mut cmd);
    cmd.spawn()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Detects the host for a run with `seed`.
    pub fn detect(seed: u64) -> Host {
        Host {
            nproc: nproc(),
            memsense_threads: MEMSENSE_THREADS,
            server_workers: None,
            cpu_model: cpu_model(),
            rustc: rustc(),
            commit: commit(),
            seed,
        }
    }

    /// How the load generator ran relative to the server.
    pub fn load_generator(&self) -> String {
        let pinning = match pinning() {
            Some((worker, server)) => format!("generator on CPU {worker}, server on CPU {server}"),
            None => "unpinned".to_string(),
        };
        format!(
            "co-located, separate process ({} connection, {} spinning thread; {pinning})",
            loadgen::CONNECTIONS,
            loadgen::THREADS
        )
    }

    /// The block as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::num(self.nproc as f64)),
            ("memsense_threads", Json::str(self.memsense_threads)),
            (
                "server_workers",
                self.server_workers
                    .map_or(Json::Null, |n| Json::num(n as f64)),
            ),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("commit", Json::str(&self.commit)),
            ("seed", Json::num(self.seed as f64)),
            ("load_generator", Json::str(self.load_generator())),
        ])
    }

    /// One line for the human-readable report.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} MEMSENSE_THREADS={} server_workers={} cpu=\"{}\" {} commit={} seed={} load generator: {}",
            self.nproc,
            self.memsense_threads,
            self.server_workers
                .map_or("none".to_string(), |n| format!("{n} (auto)")),
            self.cpu_model,
            self.rustc,
            self.commit,
            self.seed,
            self.load_generator()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_taskset_falls_back_to_an_unpinned_spawn() {
        let exe = std::env::current_exe().expect("test binary");
        let child = spawn_via("memsense-no-such-launcher", Some(0), &exe, |cmd| {
            cmd.arg("--list")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null());
        });
        let status = child.expect("unpinned spawn").wait().expect("wait");
        assert!(status.success());
        assert_eq!(
            pinning(),
            None,
            "later spawns and the host block are unpinned"
        );
        assert!(Host::detect(1).load_generator().contains("unpinned"));
    }
}
