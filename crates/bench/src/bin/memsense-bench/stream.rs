//! The stream baseline: delta throughput against batch size.
//!
//! A fixed deterministic delta stream ([`delta_stream`]) is replayed into a
//! fresh default-grid session once per batch size. Larger batches amortize
//! per-batch overhead (index snapshot, render diff, update emission) over
//! more deltas: the logical/physical batching trade-off.

use std::collections::VecDeque;
use std::time::Instant;

use memsense_model::system::SystemConfig;
use memsense_model::units::Nanoseconds;
use memsense_stream::grid::GridSpec;
use memsense_stream::session::{Delta, Session};

use crate::gate::{Better, Error, Metric};

/// Wall clock on shared runners is noisy: allow down to half the recorded
/// rate.
pub const TOLERANCE: f64 = 1.0;

/// Deltas per applied batch, one row each.
const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];

/// Length of the replayed stream.
const DELTAS: usize = 512;

/// A fixed, deterministic delta stream: bandwidth/latency point add+remove
/// pairs (new points outside the default axes, removed a few ops after
/// they appear), mix-weight tweaks cycling the three default workloads,
/// and a sparse `SetSystem` (~1% of ops) that dirties the whole grid.
/// Batching never reorders ops, so the stream is valid at any batch size.
pub fn delta_stream(n: usize) -> Vec<Delta> {
    let mut ops = Vec::with_capacity(n);
    let mut bw_pending = VecDeque::new();
    let mut lat_pending = VecDeque::new();
    for i in 0..n {
        let cycle = i / 8;
        let op = match i % 8 {
            0 => {
                // 15 distinct positive points, disjoint from the default
                // (non-positive) bandwidth axis; each is removed at slot 4
                // of its own cycle, long before the cycle index wraps.
                let p = 0.25 * (1.0 + (cycle % 15) as f64);
                bw_pending.push_back(p);
                Delta::AddBandwidth(p)
            }
            2 => {
                // 7 distinct points above the default 0..60 ns axis.
                let q = 65.0 + 5.0 * (cycle % 7) as f64;
                lat_pending.push_back(q);
                Delta::AddLatency(q)
            }
            4 => bw_pending
                .pop_front()
                .map_or(Delta::Flush, Delta::RemoveBandwidth),
            6 => lat_pending
                .pop_front()
                .map_or(Delta::Flush, Delta::RemoveLatency),
            7 if i % 96 == 7 => {
                let latency = if (i / 96) % 2 == 0 { 90.0 } else { 75.0 };
                Delta::SetSystem(
                    SystemConfig::paper_baseline()
                        .with_unloaded_latency(Nanoseconds(latency))
                        .expect("90 and 75 ns are valid latencies"),
                )
            }
            odd => Delta::SetWeight {
                workload: (i + odd) % 3,
                weight: 0.5 + 0.25 * ((i / 3) % 8) as f64,
            },
        };
        ops.push(op);
    }
    ops
}

/// Replays [`delta_stream`] at every batch size, keeping the fastest of
/// `repeats` runs, and returns one `deltas_per_s[batch=N]` row per size.
pub fn measure(repeats: usize) -> Result<Vec<Metric>, Error> {
    fn failed(e: impl std::fmt::Display) -> Error {
        Error(format!("stream replay failed: {e}"))
    }
    let ops = delta_stream(DELTAS);
    let mut rows = Vec::with_capacity(BATCH_SIZES.len());
    for batch in BATCH_SIZES {
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let mut session = Session::open(GridSpec::default_grid(), batch).map_err(failed)?;
            session.take_updates();
            let start = Instant::now();
            for op in &ops {
                session.submit(std::slice::from_ref(op)).map_err(failed)?;
            }
            session.submit(&[Delta::Flush]).map_err(failed)?;
            best = best.min(start.elapsed().as_secs_f64());
        }
        rows.push(Metric::new(
            format!("deltas_per_s[batch={batch}]"),
            DELTAS as f64 / best.max(1e-9),
            "1/s",
            Better::Higher,
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_stream_is_deterministic_and_batch_invariant() {
        assert_eq!(delta_stream(DELTAS), delta_stream(DELTAS));
        // 96 ops cover one full SetSystem cycle. Replayed at two batch
        // sizes they reach identical end states: batching is
        // performance-only.
        let ops = delta_stream(96);
        let mut a = Session::open(GridSpec::default_grid(), 1).unwrap();
        let mut b = Session::open(GridSpec::default_grid(), 64).unwrap();
        let (mut resolved, mut skipped) = (0, 0);
        for op in &ops {
            let ack = a.submit(std::slice::from_ref(op)).unwrap();
            resolved += ack.cells_resolved;
            skipped += ack.cells_skipped;
            b.submit(std::slice::from_ref(op)).unwrap();
        }
        a.submit(&[Delta::Flush]).unwrap();
        b.submit(&[Delta::Flush]).unwrap();
        assert_eq!(a.snapshot(), b.snapshot());
        // One delta per batch realizes the incremental win: far more cells
        // are skipped than re-solved.
        assert!(
            skipped > resolved,
            "{skipped} skipped vs {resolved} resolved"
        );
    }
}
