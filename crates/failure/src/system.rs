//! System-level failure distributions (Table III) and rate estimation.

use pckpt_simrng::dist::{gamma_fn, Weibull};

/// A production system's failure process: Weibull inter-arrival parameters
/// plus the machine's node count (needed to project the process onto a
/// job's node subset).
///
/// The three rows of Table III in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureDistribution {
    /// Human-readable system name.
    pub name: &'static str,
    /// Weibull shape parameter (all three systems have shape < 1:
    /// failures arrive in bursts).
    pub shape: f64,
    /// Weibull scale parameter, in hours, of system-wide inter-arrivals.
    pub scale_hours: f64,
    /// Number of nodes in the system the distribution was fitted on.
    pub system_nodes: u64,
}

impl FailureDistribution {
    /// LANL System 8 (164 nodes): shape 0.7111, scale 67.375 h.
    pub const LANL_SYSTEM_8: Self = Self {
        name: "LANL System 8",
        shape: 0.7111,
        scale_hours: 67.375,
        system_nodes: 164,
    };

    /// LANL System 18 (1024 nodes): shape 0.8170, scale 6.6293 h.
    pub const LANL_SYSTEM_18: Self = Self {
        name: "LANL System 18",
        shape: 0.8170,
        scale_hours: 6.6293,
        system_nodes: 1024,
    };

    /// OLCF Titan (18688 nodes): shape 0.6885, scale 5.4527 h. The paper
    /// lists 18868 nodes; Titan had 18688 — we keep the paper's figure for
    /// fidelity since only the ratio c/N matters.
    pub const OLCF_TITAN: Self = Self {
        name: "OLCF Titan",
        shape: 0.6885,
        scale_hours: 5.4527,
        system_nodes: 18868,
    };

    /// All three evaluation distributions, in the paper's order.
    pub const ALL: [Self; 3] = [Self::LANL_SYSTEM_8, Self::LANL_SYSTEM_18, Self::OLCF_TITAN];

    /// The distribution selected by CLI short key `key` (`titan`,
    /// `lanl8`, `lanl18`; case-insensitive) — the inverse of
    /// [`Self::short_key`].
    pub fn by_name(key: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|d| d.short_key().eq_ignore_ascii_case(key.trim()))
    }

    /// Stable CLI short key for this distribution, suitable for
    /// re-serializing a parsed `--dist` into a child process's argv.
    pub fn short_key(&self) -> &'static str {
        match self.name {
            "LANL System 8" => "lanl8",
            "LANL System 18" => "lanl18",
            _ => "titan",
        }
    }

    /// System-wide Weibull inter-arrival distribution (hours).
    pub fn system_weibull(&self) -> Weibull {
        Weibull::new(self.shape, self.scale_hours)
    }

    /// Mean time between failures for the whole system, hours.
    pub fn system_mtbf_hours(&self) -> f64 {
        self.scale_hours * gamma_fn(1.0 + 1.0 / self.shape)
    }

    /// Mean per-node failure rate, failures/hour — `1 / (N · MTBF_sys)`.
    pub fn per_node_rate(&self) -> f64 {
        // Node-count cast, not a time cast. simlint: allow(no-lossy-time-cast)
        1.0 / (self.system_nodes as f64 * self.system_mtbf_hours())
    }

    /// Mean failure rate seen by a job on `job_nodes` nodes,
    /// failures/hour. This is the λ·c of Young's formula (Eq. 1).
    pub fn job_rate(&self, job_nodes: u64) -> f64 {
        self.per_node_rate() * job_nodes as f64
    }

    /// Weibull inter-arrival distribution (hours) for a job spanning
    /// `job_nodes` nodes, by Weibull min-stability (see
    /// [`Weibull::rate_scaled`]).
    pub fn job_weibull(&self, job_nodes: u64) -> Weibull {
        assert!(job_nodes >= 1, "job must have at least one node");
        self.system_weibull()
            .rate_scaled(job_nodes as f64 / self.system_nodes as f64)
    }
}

/// Windowed failure-rate estimator.
///
/// "The OCI of each application SimPy process is updated periodically ...
/// to better account for a dynamically changing system failure rate"
/// (Sec. III). The estimator keeps failure timestamps inside a sliding
/// window and reports the empirical rate, falling back to a prior until it
/// has seen enough events.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window_hours: f64,
    prior_rate: f64,
    min_events: usize,
    events: Vec<f64>, // failure times, hours, ascending
}

impl RateEstimator {
    /// Creates an estimator with a sliding `window_hours`, an initial
    /// `prior_rate` (failures/hour, e.g. from Table III), and the minimum
    /// number of in-window events before the empirical estimate is
    /// trusted.
    pub fn new(window_hours: f64, prior_rate: f64, min_events: usize) -> Self {
        assert!(window_hours > 0.0 && prior_rate > 0.0);
        Self {
            window_hours,
            prior_rate,
            min_events,
            events: Vec::new(),
        }
    }

    /// Forgets all recorded failures (retaining the event buffer's
    /// allocation), returning the estimator to its just-built prior-only
    /// state — for recycling one estimator across campaign runs.
    pub fn reset(&mut self) {
        self.events.clear();
    }

    /// Records a failure at absolute time `now_hours`.
    pub fn record(&mut self, now_hours: f64) {
        if let Some(&last) = self.events.last() {
            assert!(now_hours >= last, "failures must be recorded in order");
        }
        self.events.push(now_hours);
        self.evict(now_hours);
    }

    fn evict(&mut self, now_hours: f64) {
        let cutoff = now_hours - self.window_hours;
        let keep_from = self.events.partition_point(|&t| t < cutoff);
        if keep_from > 0 {
            self.events.drain(..keep_from);
        }
    }

    /// Estimated failure rate (failures/hour) at `now_hours`.
    ///
    /// Empirical `k / window` once `k ≥ min_events` events are in the
    /// window; the prior otherwise. The observation span is clamped to the
    /// window even early on, so a burst right after start is not
    /// over-extrapolated.
    pub fn rate(&mut self, now_hours: f64) -> f64 {
        self.evict(now_hours);
        let k = self.events.len();
        if k < self.min_events {
            return self.prior_rate;
        }
        let span = self.window_hours.min(now_hours.max(f64::EPSILON));
        k as f64 / span
    }

    /// Number of failures recorded and not yet evicted: those inside the
    /// window as of the last `record` or `rate` call.
    pub fn in_window(&self) -> usize {
        self.events.len()
    }

    /// The number of in-window failures below which `rate` returns the
    /// prior. While `in_window()` is below it, a `rate` call returns the
    /// prior whatever its time, and skipping it changes nothing a later
    /// call sees: eviction only moves forward in time, so the next
    /// `record` or `rate` evicts whatever the skipped call would have.
    pub fn min_events(&self) -> usize {
        self.min_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_mtbfs_are_plausible() {
        // Titan's system MTBF computes to ≈7 h — consistent with published
        // Titan reliability studies.
        let titan = FailureDistribution::OLCF_TITAN;
        let mtbf = titan.system_mtbf_hours();
        assert!((mtbf - 7.0).abs() < 0.1, "Titan MTBF = {mtbf}");
        // System 18 (old LANL hardware): ≈7.4 h for only 1024 nodes.
        let s18 = FailureDistribution::LANL_SYSTEM_18;
        assert!((s18.system_mtbf_hours() - 7.4).abs() < 0.2);
        // System 8: ≈84 h for 164 nodes.
        let s8 = FailureDistribution::LANL_SYSTEM_8;
        assert!((s8.system_mtbf_hours() - 84.0).abs() < 2.0);
    }

    #[test]
    fn per_node_rates_order_titan_cleanest() {
        // Titan's per-node rate is the lowest of the three (newest
        // machine), System 18's the highest.
        let titan = FailureDistribution::OLCF_TITAN.per_node_rate();
        let s8 = FailureDistribution::LANL_SYSTEM_8.per_node_rate();
        let s18 = FailureDistribution::LANL_SYSTEM_18.per_node_rate();
        assert!(titan < s8, "titan {titan} < s8 {s8}");
        assert!(s8 < s18, "s8 {s8} < s18 {s18}");
    }

    #[test]
    fn job_rate_is_proportional_to_job_size() {
        let d = FailureDistribution::OLCF_TITAN;
        let r1 = d.job_rate(126);
        let r2 = d.job_rate(2272);
        assert!((r2 / r1 - 2272.0 / 126.0).abs() < 1e-9);
        // CHIMERA on Titan-like Summit: about one failure per ~58 h.
        let mtbf_chimera = 1.0 / d.job_rate(2272);
        assert!(
            (mtbf_chimera - 58.0).abs() < 2.0,
            "CHIMERA MTBF = {mtbf_chimera}"
        );
    }

    #[test]
    fn job_weibull_keeps_shape() {
        let d = FailureDistribution::OLCF_TITAN;
        let w = d.job_weibull(505);
        assert_eq!(w.shape, d.shape);
        assert!(w.scale > d.scale_hours);
    }

    #[test]
    fn estimator_uses_prior_until_enough_events() {
        let mut e = RateEstimator::new(100.0, 0.5, 3);
        assert_eq!(e.rate(10.0), 0.5);
        e.record(10.0);
        e.record(20.0);
        assert_eq!(e.rate(25.0), 0.5, "two events < min_events=3");
        e.record(30.0);
        let r = e.rate(30.0);
        assert!((r - 3.0 / 30.0).abs() < 1e-12, "empirical rate = {r}");
    }

    #[test]
    fn estimator_evicts_old_failures() {
        let mut e = RateEstimator::new(50.0, 0.1, 1);
        e.record(0.0);
        e.record(10.0);
        e.record(60.0);
        // At t=70, the window [20,70] holds only the t=60 event.
        let _ = e.rate(70.0);
        assert_eq!(e.in_window(), 1);
        // Far in the future the window is empty → prior.
        assert_eq!(e.rate(500.0), 0.1);
    }

    #[test]
    fn estimator_clamps_early_burst() {
        let mut e = RateEstimator::new(100.0, 0.1, 2);
        e.record(1.0);
        e.record(2.0);
        // Two events within 2 h of start: the span clamps to now (2 h),
        // yielding 1/h — not the window-diluted 0.02/h, and not infinite.
        let r = e.rate(2.0);
        assert!((r - 1.0).abs() < 1e-9, "r = {r}");
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn estimator_rejects_out_of_order() {
        let mut e = RateEstimator::new(10.0, 1.0, 1);
        e.record(5.0);
        e.record(4.0);
    }
}
