//! Single-compute-node I/O performance (Fig. 2b).
//!
//! The paper's first I/O experiment measures aggregate POSIX-write +
//! `fsync` bandwidth from one Summit node into GPFS, varying the number of
//! MPI tasks (1–42, spread over both sockets) and the aggregate transfer
//! size. Two findings drive the model here:
//!
//! * bandwidth peaks at **8 tasks** (fewer tasks cannot fill the node's
//!   I/O path; more add contention), which is why the C/R model performs
//!   checkpoint I/O with 8 writer tasks per node;
//! * bandwidth **saturates with transfer size** — small fsync'd transfers
//!   are dominated by per-operation overhead.
//!
//! The parametric form below reproduces the stated peak (≈13–13.5 GB/s for
//! large transfers at 8 tasks) and the qualitative shape of the published
//! curves.

use crate::GB;

/// Parametric single-node I/O bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeIoModel {
    /// Peak bandwidth at the optimal task count and asymptotic transfer
    /// size (bytes/sec).
    peak_bw: f64,
    /// Task count at which bandwidth peaks.
    optimal_tasks: u32,
    /// Transfer size at which half the peak is reached (bytes) — the
    /// knee of the saturation curve.
    half_saturation: f64,
    /// Fractional bandwidth lost per task beyond the optimum.
    oversubscription_penalty: f64,
}

impl NodeIoModel {
    /// Summit's GPFS client path: 13.5 GB/s peak at 8 tasks; transfers
    /// below ~½ GB lose significant efficiency to per-op overhead.
    pub fn summit() -> Self {
        Self {
            peak_bw: 13.5 * GB,
            optimal_tasks: 8,
            half_saturation: 0.5 * GB,
            oversubscription_penalty: 0.006,
        }
    }

    /// Creates a custom model.
    pub fn new(
        peak_bw: f64,
        optimal_tasks: u32,
        half_saturation: f64,
        oversubscription_penalty: f64,
    ) -> Self {
        assert!(peak_bw > 0.0 && optimal_tasks > 0 && half_saturation > 0.0);
        assert!((0.0..1.0).contains(&oversubscription_penalty));
        Self {
            peak_bw,
            optimal_tasks,
            half_saturation,
            oversubscription_penalty,
        }
    }

    /// The task count that maximizes bandwidth (8 on Summit).
    pub fn optimal_tasks(&self) -> u32 {
        self.optimal_tasks
    }

    /// Peak asymptotic bandwidth (bytes/sec).
    pub fn peak_bw(&self) -> f64 {
        self.peak_bw
    }

    /// Efficiency factor in `(0, 1]` for running `tasks` writer processes.
    ///
    /// Sub-linear ramp below the optimum (parallel streams overlap
    /// latencies but not perfectly), mild decline beyond it (lock and
    /// device contention), floored at 0.5 — even 42 oversubscribed tasks
    /// still move data.
    pub fn task_efficiency(&self, tasks: u32) -> f64 {
        assert!(tasks > 0, "at least one writer task required");
        let opt = self.optimal_tasks as f64;
        let t = tasks as f64;
        if t <= opt {
            (t / opt).powf(0.85)
        } else {
            (1.0 - self.oversubscription_penalty * (t - opt)).max(0.5)
        }
    }

    /// Efficiency factor in `(0, 1)` for an aggregate transfer of `bytes`.
    ///
    /// Michaelis–Menten saturation: `s / (s + s_half)`.
    pub fn size_efficiency(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0, "negative transfer size");
        bytes / (bytes + self.half_saturation)
    }

    /// Aggregate bandwidth (bytes/sec) for `tasks` writers moving an
    /// aggregate of `bytes` from this node.
    pub fn bandwidth(&self, tasks: u32, bytes: f64) -> f64 {
        self.peak_bw * self.task_efficiency(tasks) * self.size_efficiency(bytes)
    }

    /// Bandwidth at the optimal task count — what the C/R models use, per
    /// the paper: "8 MPI tasks are used to store checkpoints".
    pub fn optimal_bandwidth(&self, bytes: f64) -> f64 {
        self.bandwidth(self.optimal_tasks, bytes)
    }

    /// Seconds to write `bytes` from this node at the optimal task count.
    pub fn write_secs(&self, bytes: f64) -> f64 {
        if bytes == 0.0 {
            return 0.0;
        }
        bytes / self.optimal_bandwidth(bytes)
    }

    /// Every parameter, as [`new`](Self::new) takes them: `(peak_bw,
    /// optimal_tasks, half_saturation, oversubscription_penalty)`.
    /// Destructures `Self` exhaustively, so a new field fails to compile
    /// here until it is returned (the cell fingerprint encodes these
    /// parts).
    pub fn parts(&self) -> (f64, u32, f64, f64) {
        let Self {
            peak_bw,
            optimal_tasks,
            half_saturation,
            oversubscription_penalty,
        } = *self;
        (peak_bw, optimal_tasks, half_saturation, oversubscription_penalty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_at_eight_tasks() {
        let m = NodeIoModel::summit();
        let size = 64.0 * GB;
        let at8 = m.bandwidth(8, size);
        for t in [1u32, 2, 4, 6, 7, 9, 12, 16, 24, 42] {
            assert!(
                m.bandwidth(t, size) < at8,
                "bandwidth at {t} tasks must be below the 8-task peak"
            );
        }
    }

    #[test]
    fn large_transfers_approach_stated_peak() {
        let m = NodeIoModel::summit();
        let bw = m.optimal_bandwidth(512.0 * GB);
        // Paper: 13–13.5 GB/s for single-node PFS writes.
        assert!(
            bw > 13.0 * GB && bw <= 13.5 * GB,
            "asymptotic bw {} GB/s out of the paper's range",
            bw / GB
        );
    }

    #[test]
    fn small_transfers_are_penalized() {
        let m = NodeIoModel::summit();
        assert!(m.optimal_bandwidth(1.0 * crate::MB) < 0.05 * m.peak_bw());
        assert!(m.size_efficiency(0.0) == 0.0);
    }

    #[test]
    fn bandwidth_monotone_in_size() {
        let m = NodeIoModel::summit();
        let mut prev = 0.0;
        for exp in 20..40 {
            let s = (1u64 << exp) as f64;
            let bw = m.optimal_bandwidth(s);
            assert!(bw > prev, "bandwidth must increase with transfer size");
            prev = bw;
        }
    }

    #[test]
    fn oversubscription_floors_at_half() {
        let m = NodeIoModel::new(10.0 * GB, 8, GB, 0.1);
        // 8 + 50 tasks → raw penalty would be 5.0; floor at 0.5 applies.
        assert_eq!(m.task_efficiency(58), 0.5);
    }

    #[test]
    fn write_secs_consistent_with_bandwidth() {
        let m = NodeIoModel::summit();
        let bytes = 284.0 * GB; // CHIMERA per-node checkpoint
        let t = m.write_secs(bytes);
        assert!((t - bytes / m.optimal_bandwidth(bytes)).abs() < 1e-9);
        // ~21.5 s: the p-ckpt phase-1 latency scale for CHIMERA.
        assert!(t > 20.0 && t < 23.0, "t = {t}");
        assert_eq!(m.write_secs(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one writer")]
    fn zero_tasks_rejected() {
        NodeIoModel::summit().task_efficiency(0);
    }
}
