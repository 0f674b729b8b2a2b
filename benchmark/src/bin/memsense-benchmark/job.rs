//! What one workload run is asked to do.

/// The four benchmark workloads (README.md says why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Default-budget calibration of povray, perlbench and Proximity.
    SimCorebound,
    /// Default-budget calibration of bwaves, milc and NITS.
    SimMembound,
    /// Open-loop cache-hit traffic against a separate server process.
    ServeHot,
    /// Open-loop traffic whose every body is unique (cache misses).
    ServeCold,
}

impl Kind {
    /// Every workload, in run order.
    pub const ALL: [Kind; 4] = [
        Kind::SimCorebound,
        Kind::SimMembound,
        Kind::ServeHot,
        Kind::ServeCold,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SimCorebound => "sim-corebound",
            Kind::SimMembound => "sim-membound",
            Kind::ServeHot => "serve-hot",
            Kind::ServeCold => "serve-cold",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload drives the HTTP server (and so a load generator).
    pub fn is_serve(self) -> bool {
        matches!(self, Kind::ServeHot | Kind::ServeCold)
    }
}

/// One workload run's parameters, as the parent passes them to the worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Which workload.
    pub kind: Kind,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Minimum measured time.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shortened run for tests: fewer samples, no minimum sample counts.
    pub smoke: bool,
    /// Set up, report ready, tear down: a set-up time sample only.
    pub setup_only: bool,
    /// CPU the server child is pinned to (serve workloads).
    pub server_cpu: Option<usize>,
}
