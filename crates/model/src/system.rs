//! Platform configuration (paper Sec. VI.C.2 baseline and its variations).
//!
//! A [`SystemConfig`] captures everything the model needs to know about the
//! machine: cores and threads, core clock, memory channels (count, transfer
//! rate, efficiency), and the compulsory (unloaded) memory latency.

use crate::units::{ddr_channel_bandwidth, GigaHertz, GigabytesPerSecond, Nanoseconds};
use crate::ModelError;

/// A modeled platform.
///
/// # Examples
///
/// The paper's sensitivity baseline — one socket, eight cores with
/// Hyper-Threading, four channels of DDR3-1867 at ~70% efficiency, 75 ns
/// compulsory latency:
///
/// ```
/// use memsense_model::system::SystemConfig;
/// let sys = SystemConfig::paper_baseline();
/// assert_eq!(sys.hardware_threads(), 16);
/// // ~42 GB/s effective, ~5.25 GB/s per core (Sec. VI.C.2).
/// assert!((sys.effective_bandwidth().value() - 41.8).abs() < 0.5);
/// assert!((sys.bandwidth_per_core().value() - 5.2).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    sockets: u32,
    cores_per_socket: u32,
    threads_per_core: u32,
    core_clock: GigaHertz,
    channels_per_socket: u32,
    channel_mega_transfers: f64,
    efficiency: f64,
    unloaded_latency: Nanoseconds,
}

impl SystemConfig {
    /// Creates a configuration, validating every field.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for zero counts, non-positive
    /// clock/transfer rates, an efficiency outside `(0, 1]`, or a negative
    /// unloaded latency.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sockets: u32,
        cores_per_socket: u32,
        threads_per_core: u32,
        core_clock: GigaHertz,
        channels_per_socket: u32,
        channel_mega_transfers: f64,
        efficiency: f64,
        unloaded_latency: Nanoseconds,
    ) -> Result<Self, ModelError> {
        if sockets == 0 || cores_per_socket == 0 || threads_per_core == 0 {
            return Err(ModelError::InvalidParameter(
                "sockets, cores, and threads must be > 0",
            ));
        }
        if channels_per_socket == 0 {
            return Err(ModelError::InvalidParameter("channels must be > 0"));
        }
        if !(core_clock.value() > 0.0 && core_clock.is_finite()) {
            return Err(ModelError::InvalidParameter("core clock must be > 0"));
        }
        if !(channel_mega_transfers > 0.0 && channel_mega_transfers.is_finite()) {
            return Err(ModelError::InvalidParameter("channel rate must be > 0"));
        }
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(ModelError::InvalidParameter("efficiency must be in (0, 1]"));
        }
        if !unloaded_latency.is_finite() || unloaded_latency.value() < 0.0 {
            return Err(ModelError::InvalidParameter(
                "unloaded latency must be >= 0",
            ));
        }
        Ok(SystemConfig {
            sockets,
            cores_per_socket,
            threads_per_core,
            core_clock,
            channels_per_socket,
            channel_mega_transfers,
            efficiency,
            unloaded_latency,
        })
    }

    /// The paper's sensitivity-study baseline (Sec. VI.C.2): single socket,
    /// 8 cores × 2 hardware threads at 2.7 GHz, four channels of DDR3-1867
    /// at 70% efficiency, 75 ns compulsory latency.
    pub fn paper_baseline() -> Self {
        SystemConfig::new(1, 8, 2, GigaHertz(2.7), 4, 1866.7, 0.70, Nanoseconds(75.0))
            // memsense-lint: allow(no-panic-in-lib) — compile-time paper constants, pinned by tests
            .expect("paper baseline is valid")
    }

    /// A dual-socket Xeon E5-2600-like characterization platform
    /// (paper Sec. V.B): 2 × 8 cores × 2 threads, 4 channels/socket.
    pub fn characterization_platform() -> Self {
        SystemConfig::new(2, 8, 2, GigaHertz(2.7), 4, 1600.0, 0.70, Nanoseconds(80.0))
            // memsense-lint: allow(no-panic-in-lib) — compile-time paper constants, pinned by tests
            .expect("platform is valid")
    }

    // ----- Accessors -------------------------------------------------------

    /// Number of sockets.
    pub fn sockets(&self) -> u32 {
        self.sockets
    }

    /// Physical cores across all sockets.
    pub fn cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Hardware threads (logical processors) across all sockets.
    pub fn hardware_threads(&self) -> u32 {
        self.cores() * self.threads_per_core
    }

    /// Core clock frequency.
    pub fn core_clock(&self) -> GigaHertz {
        self.core_clock
    }

    /// Compulsory (unloaded) memory latency.
    pub fn unloaded_latency(&self) -> Nanoseconds {
        self.unloaded_latency
    }

    /// Memory channels across all sockets.
    pub fn channels(&self) -> u32 {
        self.sockets * self.channels_per_socket
    }

    /// Channel transfer rate in mega-transfers per second.
    pub fn channel_mega_transfers(&self) -> f64 {
        self.channel_mega_transfers
    }

    /// Fraction of peak channel bandwidth that is achievable (~0.70 measured
    /// for the paper's DDR3-1867 baseline).
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Peak (theoretical) memory bandwidth across all channels.
    pub fn peak_bandwidth(&self) -> GigabytesPerSecond {
        ddr_channel_bandwidth(self.channel_mega_transfers) * self.channels() as f64
    }

    /// Effective (deliverable) bandwidth: peak × efficiency.
    pub fn effective_bandwidth(&self) -> GigabytesPerSecond {
        self.peak_bandwidth() * self.efficiency
    }

    /// Effective bandwidth per physical core — the normalization of Figs. 8/9.
    pub fn bandwidth_per_core(&self) -> GigabytesPerSecond {
        self.effective_bandwidth() / self.cores() as f64
    }

    // ----- Variations (consuming builder-style) ----------------------------

    /// Returns a copy with a different core clock.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for a non-positive clock.
    pub fn with_core_clock(mut self, clock: GigaHertz) -> Result<Self, ModelError> {
        if !(clock.value() > 0.0 && clock.is_finite()) {
            return Err(ModelError::InvalidParameter("core clock must be > 0"));
        }
        self.core_clock = clock;
        Ok(self)
    }

    /// Returns a copy with a different compulsory latency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for a negative latency.
    pub fn with_unloaded_latency(mut self, latency: Nanoseconds) -> Result<Self, ModelError> {
        if !(latency.value() >= 0.0 && latency.is_finite()) {
            return Err(ModelError::InvalidParameter(
                "unloaded latency must be >= 0",
            ));
        }
        self.unloaded_latency = latency;
        Ok(self)
    }

    /// Returns a copy with a different channel count per socket.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for zero channels.
    pub fn with_channels(mut self, channels_per_socket: u32) -> Result<Self, ModelError> {
        if channels_per_socket == 0 {
            return Err(ModelError::InvalidParameter("channels must be > 0"));
        }
        self.channels_per_socket = channels_per_socket;
        Ok(self)
    }

    /// Returns a copy with a different channel transfer rate (MT/s).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for a non-positive rate.
    pub fn with_channel_speed(mut self, mega_transfers: f64) -> Result<Self, ModelError> {
        if !(mega_transfers > 0.0 && mega_transfers.is_finite()) {
            return Err(ModelError::InvalidParameter("channel rate must be > 0"));
        }
        self.channel_mega_transfers = mega_transfers;
        Ok(self)
    }

    /// Returns a copy whose *effective* bandwidth is scaled so that the
    /// per-core bandwidth changes by `delta` (possibly negative). Used to
    /// walk the x-axis of Fig. 8 without enumerating channel/speed variants.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when the resulting bandwidth
    /// would be non-positive.
    pub fn with_bandwidth_per_core_delta(
        mut self,
        delta: GigabytesPerSecond,
    ) -> Result<Self, ModelError> {
        let new_total = self.effective_bandwidth().value() + delta.value() * self.cores() as f64;
        if new_total.is_nan() || new_total <= 0.0 {
            return Err(ModelError::InvalidParameter(
                "bandwidth delta drives effective bandwidth to zero",
            ));
        }
        // Fold the change into the efficiency-free channel rate so peak and
        // effective bandwidth stay consistent.
        let scale = new_total / self.effective_bandwidth().value();
        self.channel_mega_transfers *= scale;
        Ok(self)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_numbers() {
        let sys = SystemConfig::paper_baseline();
        assert_eq!(sys.cores(), 8);
        assert_eq!(sys.hardware_threads(), 16);
        assert_eq!(sys.channels(), 4);
        // Peak: 4 × 14.93 GB/s ≈ 59.7; effective ≈ 41.8 ("~42 GB/s").
        assert!((sys.peak_bandwidth().value() - 59.73).abs() < 0.05);
        assert!((sys.effective_bandwidth().value() - 41.81).abs() < 0.05);
        // "~5.25 GB/s per core"
        assert!((sys.bandwidth_per_core().value() - 5.23).abs() < 0.05);
        assert_eq!(sys.unloaded_latency(), Nanoseconds(75.0));
    }

    #[test]
    fn dual_socket_counts() {
        let sys = SystemConfig::characterization_platform();
        assert_eq!(sys.sockets(), 2);
        assert_eq!(sys.cores(), 16);
        assert_eq!(sys.hardware_threads(), 32);
        assert_eq!(sys.channels(), 8);
    }

    #[test]
    fn invalid_configs_rejected() {
        let ok = SystemConfig::paper_baseline();
        assert!(
            SystemConfig::new(0, 8, 2, GigaHertz(2.7), 4, 1866.7, 0.7, Nanoseconds(75.0)).is_err()
        );
        assert!(
            SystemConfig::new(1, 8, 2, GigaHertz(0.0), 4, 1866.7, 0.7, Nanoseconds(75.0)).is_err()
        );
        assert!(
            SystemConfig::new(1, 8, 2, GigaHertz(2.7), 0, 1866.7, 0.7, Nanoseconds(75.0)).is_err()
        );
        assert!(
            SystemConfig::new(1, 8, 2, GigaHertz(2.7), 4, 1866.7, 1.5, Nanoseconds(75.0)).is_err()
        );
        assert!(
            SystemConfig::new(1, 8, 2, GigaHertz(2.7), 4, 1866.7, 0.7, Nanoseconds(-1.0)).is_err()
        );
        assert!(ok.clone().with_core_clock(GigaHertz(-1.0)).is_err());
        assert!(ok.clone().with_unloaded_latency(Nanoseconds(-5.0)).is_err());
        assert!(ok.clone().with_channels(0).is_err());
        assert!(ok.with_channel_speed(0.0).is_err());
    }

    #[test]
    fn variations_change_bandwidth() {
        let base = SystemConfig::paper_baseline();
        let faster = base.clone().with_channel_speed(2133.0).unwrap();
        assert!(faster.effective_bandwidth().value() > base.effective_bandwidth().value());
        let fewer = base.clone().with_channels(2).unwrap();
        assert!(
            (fewer.effective_bandwidth().value() - base.effective_bandwidth().value() / 2.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn bandwidth_delta_per_core() {
        let base = SystemConfig::paper_baseline();
        let reduced = base
            .clone()
            .with_bandwidth_per_core_delta(GigabytesPerSecond(-2.0))
            .unwrap();
        let delta = reduced.bandwidth_per_core().value() - base.bandwidth_per_core().value();
        assert!((delta + 2.0).abs() < 1e-9);
        // Driving bandwidth to zero is rejected.
        assert!(base
            .with_bandwidth_per_core_delta(GigabytesPerSecond(-10.0))
            .is_err());
    }

    #[test]
    fn frequency_variation_preserves_memory() {
        let base = SystemConfig::paper_baseline();
        let slowed = base.clone().with_core_clock(GigaHertz(2.1)).unwrap();
        assert_eq!(slowed.effective_bandwidth(), base.effective_bandwidth());
        assert_eq!(slowed.unloaded_latency(), base.unloaded_latency());
        assert_eq!(slowed.core_clock(), GigaHertz(2.1));
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(SystemConfig::default(), SystemConfig::paper_baseline());
    }
}
