//! Fluid PFS traffic management (the `PfsMode::Fluid` extension).
//!
//! The paper's simulator — and this crate's default `Analytic` mode —
//! computes every PFS operation's duration up front from the bandwidth
//! matrix, implicitly assuming operations never overlap. That is mostly
//! true (the OCI dwarfs the drain window), but not always: an
//! asynchronous BB→PFS drain can still be in flight when a prediction
//! triggers a proactive commit. Fluid mode routes every PFS byte through
//! a weighted [`FlowLink`], so overlapping operations genuinely share
//! bandwidth:
//!
//! * each operation is one transfer weighted by its writer count (a
//!   512-node drain holds 512 shares; a p-ckpt phase-1 commit holds 1);
//! * the link's aggregate capacity follows the Fig. 2c weak-scaling
//!   matrix as a function of the total active writer count;
//! * the p-ckpt protocol's "contention-free access" is implemented
//!   literally: a round (and only a round — safeguard checkpointing has
//!   no such coordination) **suspends** the drain and resumes it
//!   afterwards, preserving its progress.
//!
//! [`FluidPfs`] is pure bookkeeping over the link; the simulator owns the
//! event scheduling (one `PfsTick` event stamped with the link epoch).

use pckpt_desim::{FlowLink, SimTime, TransferId};
use pckpt_ioperf::PfsModel;

/// Writer counts precomputed into the capacity table. The Summit matrix
/// is sampled up to 8192 nodes and clamps beyond, so the memoized curve
/// is exact over the whole meaningful range.
const CAPACITY_TABLE_WRITERS: usize = 8192;

/// What a PFS transfer is doing (returned to the simulator on
/// completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfsOp {
    /// Asynchronous BB→PFS drain of one periodic checkpoint.
    Drain,
    /// Safeguard commit (all nodes, app blocked).
    Safeguard,
    /// p-ckpt phase 1 (the current vulnerable writer).
    Phase1,
    /// p-ckpt phase 2 (the healthy rest).
    Phase2,
    /// Recovery read (all nodes from the PFS).
    RecoveryRead,
    /// Recovery read (replacement node only).
    ReplacementRead,
}

/// Which PFS mode a simulation runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PfsMode {
    /// Closed-form durations from the bandwidth matrix (the paper's
    /// approach; operations never contend).
    #[default]
    Analytic,
    /// Fluid-flow sharing over a weighted link (extension).
    Fluid,
}

/// Fluid-mode PFS state: the shared link plus operation bookkeeping.
pub struct FluidPfs {
    link: FlowLink,
    ops: Vec<(TransferId, PfsOp)>,
    /// Remaining bytes of a suspended drain (weight is re-supplied on
    /// resume — it is a fixed per-configuration constant).
    suspended_drain: Option<f64>,
    drain_active: Option<TransferId>,
    /// Scratch for the link's completion batches, reused across ticks so
    /// the steady-state hot loop performs no allocation.
    scratch: Vec<(TransferId, f64, SimTime)>,
}

impl FluidPfs {
    /// Builds the fluid link for a job: aggregate capacity follows the
    /// weak-scaling matrix at the job's per-node transfer size.
    ///
    /// The writer-count → bandwidth curve is memoized into a
    /// [`pckpt_ioperf::CapacityTable`] up front: the link consults it on
    /// every advance, and the interpolating matrix lookup was the single
    /// hottest call in a fluid-mode campaign profile.
    pub fn new(pfs: &PfsModel, per_node_bytes: f64) -> Self {
        let table = pfs.capacity_table(per_node_bytes, CAPACITY_TABLE_WRITERS);
        let link = FlowLink::with_capacity_fn(move |writers| table.capacity(writers));
        Self {
            link,
            ops: Vec::new(),
            suspended_drain: None,
            drain_active: None,
            scratch: Vec::new(),
        }
    }

    /// Clears all transfer state back to idle while retaining the link
    /// (and its memoized capacity table — the dominant construction cost)
    /// and every scratch allocation, so one `FluidPfs` serves a whole
    /// campaign worker's run sequence without rebuilding.
    pub fn reset(&mut self) {
        self.link.reset();
        self.ops.clear();
        self.suspended_drain = None;
        self.drain_active = None;
        self.scratch.clear();
    }

    /// Installs a trace recorder on the underlying flow link, so PFS
    /// wave completions show up in the structured event stream.
    pub fn set_recorder(&mut self, rec: pckpt_simobs::Recorder) {
        self.link.set_recorder(rec);
    }

    /// Starts an operation moving `bytes` with `weight` writer shares.
    pub fn start(&mut self, now: SimTime, op: PfsOp, bytes: f64, weight: f64) {
        let id = self.link.start_weighted(now, bytes, weight);
        if op == PfsOp::Drain {
            debug_assert!(self.drain_active.is_none(), "one drain at a time");
            self.drain_active = Some(id);
        }
        self.ops.push((id, op));
    }

    /// Cancels every active operation of the given kind (aborts).
    pub fn cancel(&mut self, now: SimTime, op: PfsOp) {
        let mut i = 0;
        while i < self.ops.len() {
            if self.ops[i].1 == op {
                let (id, _) = self.ops.swap_remove(i);
                self.link.cancel(now, id);
                if Some(id) == self.drain_active {
                    self.drain_active = None;
                }
            } else {
                i += 1;
            }
        }
    }

    /// Suspends an in-flight drain (p-ckpt coordination), preserving its
    /// progress. No-op without an active drain.
    pub fn suspend_drain(&mut self, now: SimTime) {
        if let Some(id) = self.drain_active.take() {
            if let Some(remaining) = self.link.cancel(now, id) {
                self.ops.retain(|&(i, _)| i != id);
                self.suspended_drain = Some(remaining);
            }
        }
    }

    /// Resumes a suspended drain with the original writer weight.
    pub fn resume_drain(&mut self, now: SimTime, weight: f64) {
        if let Some(remaining) = self.suspended_drain.take() {
            if remaining > 1.0 {
                self.start(now, PfsOp::Drain, remaining, weight);
            }
        }
    }

    /// Discards any drain state entirely (failure voids the checkpoint).
    pub fn void_drain(&mut self, now: SimTime) {
        if let Some(id) = self.drain_active.take() {
            self.link.cancel(now, id);
            self.ops.retain(|&(i, _)| i != id);
        }
        self.suspended_drain = None;
    }

    /// True if a drain is running or suspended.
    pub fn drain_pending(&self) -> bool {
        self.drain_active.is_some() || self.suspended_drain.is_some()
    }

    /// When the next transfer completes (for scheduling the tick).
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        self.link.next_completion(now)
    }

    /// Monotone epoch for stale-tick detection.
    pub fn epoch(&self) -> u64 {
        self.link.epoch()
    }

    /// Collects operations that finished by `now`.
    ///
    /// Allocating convenience wrapper around
    /// [`FluidPfs::take_completed_into`].
    pub fn take_completed(&mut self, now: SimTime) -> Vec<PfsOp> {
        let mut out = Vec::new();
        self.take_completed_into(now, &mut out);
        out
    }

    /// Collects operations that finished by `now` into `out` (cleared
    /// first). Hot loops pass the same buffer every tick so the steady
    /// state performs no allocation.
    pub fn take_completed_into(&mut self, now: SimTime, out: &mut Vec<PfsOp>) {
        out.clear();
        self.link.take_completed_into(now, &mut self.scratch);
        for &(id, _, _) in self.scratch.iter() {
            if Some(id) == self.drain_active {
                self.drain_active = None;
            }
            if let Some(pos) = self.ops.iter().position(|&(i, _)| i == id) {
                out.push(self.ops.swap_remove(pos).1);
            }
        }
    }

    /// Number of in-flight operations.
    pub fn active(&self) -> usize {
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pckpt_ioperf::GB;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn fluid() -> FluidPfs {
        // 10 GB/node transfers on the Summit matrix.
        FluidPfs::new(&PfsModel::summit(), 10.0 * GB)
    }

    #[test]
    fn lone_transfer_matches_analytic_duration() {
        let pfs = PfsModel::summit();
        let per_node = 10.0 * GB;
        let mut f = FluidPfs::new(&pfs, per_node);
        // A 64-node safeguard commit alone on the link.
        f.start(t(0.0), PfsOp::Safeguard, 64.0 * per_node, 64.0);
        let fin = f.next_completion(t(0.0)).unwrap();
        let analytic = pfs.write_secs(64, per_node);
        assert!(
            (fin.as_secs() - analytic).abs() / analytic < 1e-9,
            "fluid {} vs analytic {analytic}",
            fin.as_secs()
        );
        assert_eq!(f.take_completed(fin), vec![PfsOp::Safeguard]);
        assert_eq!(f.active(), 0);
    }

    #[test]
    fn overlapping_operations_contend() {
        let pfs = PfsModel::summit();
        let per_node = 10.0 * GB;
        let mut f = FluidPfs::new(&pfs, per_node);
        // A wide drain holds most of the bandwidth...
        f.start(t(0.0), PfsOp::Drain, 512.0 * per_node, 512.0);
        // ... and a single-node commit joins.
        f.start(t(0.0), PfsOp::Phase1, per_node, 1.0);
        let solo = pfs.single_node_write_secs(per_node);
        let fin = f.next_completion(t(0.0)).unwrap();
        // The commit's share: capacity(513)/513 ≪ capacity(1).
        assert!(
            fin.as_secs() > solo * 3.0,
            "contended commit ({}) must be far slower than solo ({solo})",
            fin.as_secs()
        );
    }

    #[test]
    fn suspend_resume_drain_preserves_progress() {
        let pfs = PfsModel::summit();
        let per_node = 10.0 * GB;
        let mut f = FluidPfs::new(&pfs, per_node);
        let total = 100.0 * per_node;
        f.start(t(0.0), PfsOp::Drain, total, 100.0);
        let full = f.next_completion(t(0.0)).unwrap().as_secs();
        // Suspend halfway.
        f.suspend_drain(t(full / 2.0));
        assert!(f.drain_pending());
        assert_eq!(f.active(), 0);
        assert!(f.next_completion(t(full / 2.0)).is_none());
        // A phase-1 commit now runs at full single-node speed.
        f.start(t(full / 2.0), PfsOp::Phase1, per_node, 1.0);
        let fin = f.next_completion(t(full / 2.0)).unwrap();
        let solo = pfs.single_node_write_secs(per_node);
        assert!((fin.as_secs() - full / 2.0 - solo).abs() < 1e-6);
        assert_eq!(f.take_completed(fin), vec![PfsOp::Phase1]);
        // Resume: the remaining half drains in the remaining half time.
        f.resume_drain(fin, 100.0);
        let fin2 = f.next_completion(fin).unwrap();
        assert!(
            (fin2.as_secs() - fin.as_secs() - full / 2.0).abs() / full < 1e-6,
            "resumed drain must take the remaining half, got {}",
            fin2.as_secs() - fin.as_secs()
        );
        assert_eq!(f.take_completed(fin2), vec![PfsOp::Drain]);
        assert!(!f.drain_pending());
    }

    #[test]
    fn void_drain_discards_suspended_state() {
        let mut f = fluid();
        f.start(t(0.0), PfsOp::Drain, 100.0 * GB, 10.0);
        f.suspend_drain(t(1.0));
        assert!(f.drain_pending());
        f.void_drain(t(1.0));
        assert!(!f.drain_pending());
        // Voiding an active drain works too.
        f.start(t(2.0), PfsOp::Drain, 100.0 * GB, 10.0);
        f.void_drain(t(3.0));
        assert!(!f.drain_pending());
        assert_eq!(f.active(), 0);
    }

    #[test]
    fn cancel_by_kind_removes_only_that_kind() {
        let mut f = fluid();
        f.start(t(0.0), PfsOp::Safeguard, 100.0 * GB, 10.0);
        f.start(t(0.0), PfsOp::Drain, 100.0 * GB, 10.0);
        f.cancel(t(1.0), PfsOp::Safeguard);
        assert_eq!(f.active(), 1);
        assert!(f.drain_pending());
        let fin = f.next_completion(t(1.0)).unwrap();
        assert_eq!(f.take_completed(fin), vec![PfsOp::Drain]);
    }

    #[test]
    fn reset_replays_like_a_fresh_instance() {
        let pfs = PfsModel::summit();
        let per_node = 10.0 * GB;
        let mut f = FluidPfs::new(&pfs, per_node);
        // Dirty every piece of state: a drain suspended mid-flight plus an
        // active commit.
        f.start(t(0.0), PfsOp::Drain, 100.0 * per_node, 100.0);
        f.suspend_drain(t(5.0));
        f.start(t(5.0), PfsOp::Phase1, per_node, 1.0);
        f.reset();
        assert_eq!(f.active(), 0);
        assert!(!f.drain_pending());
        assert_eq!(f.epoch(), 0);
        // The recycled instance reproduces a fresh one's timing exactly.
        f.start(t(0.0), PfsOp::Safeguard, 64.0 * per_node, 64.0);
        let fin = f.next_completion(t(0.0)).unwrap();
        let analytic = pfs.write_secs(64, per_node);
        assert!((fin.as_secs() - analytic).abs() / analytic < 1e-9);
        assert_eq!(f.take_completed(fin), vec![PfsOp::Safeguard]);
    }

    #[test]
    fn epoch_changes_on_mutation() {
        let mut f = fluid();
        let e0 = f.epoch();
        f.start(t(0.0), PfsOp::Phase1, GB, 1.0);
        assert!(f.epoch() > e0);
    }
}
