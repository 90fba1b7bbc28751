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
//!
//! A drain that starts on an idle link is held outside it, as a *lone*
//! drain ([`FluidPfs::start_drain`]): nothing else uses the PFS while
//! the application computes, so its completion instant is known when it
//! starts ([`FlowLink::lone_duration`]), and the simulator settles it
//! there like the analytic drain ([`FluidPfs::settle_lone_drain`]),
//! without a tick. Any contact first puts it into the link at its start
//! instant under the id it reserved there: another operation's start, a
//! round's suspension, a failure's or a newer checkpoint's void. From
//! then on the link holds exactly the transfer it would have held, and
//! the tick path takes over.

use pckpt_desim::{FlowLink, SimDuration, SimTime, TransferId};
use pckpt_ioperf::PfsModel;

/// Writer counts the capacity curve covers. The Summit matrix is sampled
/// up to 8192 nodes and clamps beyond, so the memoized curve is exact
/// over the whole meaningful range.
const CAPACITY_CURVE_WRITERS: usize = 8192;

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

/// A drain held outside the link while it has the link to itself.
#[derive(Debug, Clone, Copy)]
struct LoneDrain {
    /// The id [`FlowLink::reserve`] handed out at its start.
    id: TransferId,
    started: SimTime,
    bytes: f64,
    weight: f64,
}

/// Fluid-mode PFS state: the shared link plus operation bookkeeping.
pub struct FluidPfs {
    link: FlowLink,
    ops: Vec<(TransferId, PfsOp)>,
    /// Remaining bytes of a suspended drain (weight is re-supplied on
    /// resume — it is a fixed per-configuration constant).
    suspended_drain: Option<f64>,
    drain_active: Option<TransferId>,
    /// The lone drain, while one is held outside the link; the link is
    /// idle meanwhile.
    lone: Option<LoneDrain>,
    /// Scratch for the link's completion batches, reused across ticks so
    /// the steady-state hot loop performs no allocation.
    scratch: Vec<(TransferId, f64, SimTime)>,
}

impl FluidPfs {
    /// Builds the fluid link for a job: aggregate capacity follows the
    /// weak-scaling matrix at the job's per-node transfer size.
    ///
    /// The writer-count → bandwidth curve is memoized in a
    /// [`pckpt_ioperf::CapacityCurve`], which fills each writer count on
    /// its first query: the interpolating matrix lookup was the single
    /// hottest call in a fluid-mode campaign profile, and a run queries
    /// only a handful of counts, so none is sampled up front.
    pub fn new(pfs: &PfsModel, per_node_bytes: f64) -> Self {
        let curve = pfs.capacity_curve(per_node_bytes, CAPACITY_CURVE_WRITERS);
        let link = FlowLink::with_capacity_fn(move |writers| curve.capacity(writers));
        Self {
            link,
            ops: Vec::new(),
            suspended_drain: None,
            drain_active: None,
            lone: None,
            scratch: Vec::new(),
        }
    }

    /// Clears all transfer state back to idle while retaining the link
    /// (and its memoized capacity curve) and every scratch allocation,
    /// so one `FluidPfs` serves a whole campaign worker's run sequence
    /// without rebuilding.
    pub fn reset(&mut self) {
        self.link.reset();
        self.ops.clear();
        self.suspended_drain = None;
        self.drain_active = None;
        self.lone = None;
        self.scratch.clear();
    }

    /// Installs a trace recorder on the underlying flow link, so PFS
    /// wave completions show up in the structured event stream.
    pub fn set_recorder(&mut self, rec: pckpt_simobs::Recorder) {
        self.link.set_recorder(rec);
    }

    /// How long a transfer of `bytes` at `weight` takes alone on the
    /// link, or `None` if the link's first tick would not retire it (see
    /// [`FlowLink::lone_duration`]).
    pub fn lone_duration(&self, bytes: f64, weight: f64) -> Option<SimDuration> {
        self.link.lone_duration(bytes, weight)
    }

    /// Starts an operation moving `bytes` with `weight` writer shares. A
    /// lone drain is put into the link first: the two now share it.
    pub fn start(&mut self, now: SimTime, op: PfsOp, bytes: f64, weight: f64) {
        self.materialize();
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

    /// Starts the drain of `bytes` at `weight` writer shares. On an idle
    /// link, given the drain's `lone` duration there (from
    /// [`FluidPfs::lone_duration`]), the drain is held outside the link
    /// under a reserved id, and its completion instant is returned: the
    /// owner settles it then with [`FluidPfs::settle_lone_drain`] unless
    /// a start, a suspension or a void reaches it first. Otherwise it
    /// starts in the link and `None` is returned: the owner schedules
    /// the link's next tick as after any start.
    pub fn start_drain(
        &mut self,
        now: SimTime,
        bytes: f64,
        weight: f64,
        lone: Option<SimDuration>,
    ) -> Option<SimTime> {
        match lone {
            Some(dur) if self.link.is_idle() => {
                debug_assert!(self.ops.is_empty() && !self.drain_pending());
                let id = self.link.reserve();
                self.lone = Some(LoneDrain {
                    id,
                    started: now,
                    bytes,
                    weight,
                });
                Some(now + dur)
            }
            _ => {
                self.start(now, PfsOp::Drain, bytes, weight);
                None
            }
        }
    }

    /// Completes the lone drain at its instant `at`, exactly as the tick
    /// there would have: the link records its wave and moves its epoch.
    pub fn settle_lone_drain(&mut self, at: SimTime) {
        let held = self.lone.take();
        debug_assert!(held.is_some(), "no lone drain to settle");
        if let Some(d) = held {
            self.link.retire_lone(at, d.id, d.bytes);
        }
    }

    /// Puts a lone drain into the link at its start instant under its
    /// reserved id. The link has been idle since then, so this is the
    /// transfer it would hold now; the caller's tick path takes over.
    fn materialize(&mut self) {
        if let Some(d) = self.lone.take() {
            self.link.start_reserved(d.started, d.id, d.bytes, d.weight);
            self.drain_active = Some(d.id);
            self.ops.push((d.id, PfsOp::Drain));
        }
    }

    /// Suspends an in-flight drain (p-ckpt coordination), preserving its
    /// progress. Returns `true` if the drain had at most one byte left:
    /// it is complete at `now`, and nothing is kept to resume. No-op
    /// (`false`) without an active drain.
    pub fn suspend_drain(&mut self, now: SimTime) -> bool {
        self.materialize();
        if let Some(id) = self.drain_active.take() {
            if let Some(remaining) = self.link.cancel(now, id) {
                self.ops.retain(|&(i, _)| i != id);
                if remaining <= 1.0 {
                    return true;
                }
                self.suspended_drain = Some(remaining);
            }
        }
        false
    }

    /// Resumes a suspended drain with the original writer weight, as
    /// [`FluidPfs::start_drain`] starts one: the instant a lone resumed
    /// drain completes, `None` if it went into the link or there was
    /// nothing to resume.
    pub fn resume_drain(&mut self, now: SimTime, weight: f64) -> Option<SimTime> {
        let remaining = self.suspended_drain.take()?;
        let lone = self.lone_duration(remaining, weight);
        self.start_drain(now, remaining, weight, lone)
    }

    /// Discards any drain state entirely (failure voids the checkpoint).
    pub fn void_drain(&mut self, now: SimTime) {
        self.materialize();
        if let Some(id) = self.drain_active.take() {
            self.link.cancel(now, id);
            self.ops.retain(|&(i, _)| i != id);
        }
        self.suspended_drain = None;
    }

    /// True if a drain is running (in the link or lone) or suspended.
    pub fn drain_pending(&self) -> bool {
        self.lone.is_some() || self.drain_active.is_some() || self.suspended_drain.is_some()
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
        assert!(!f.suspend_drain(t(full / 2.0)), "half the drain is left");
        assert!(f.drain_pending());
        assert_eq!(f.active(), 0);
        assert!(f.next_completion(t(full / 2.0)).is_none());
        assert!(!f.suspend_drain(t(full / 2.0)), "nothing more to suspend");
        // A phase-1 commit now runs at full single-node speed.
        f.start(t(full / 2.0), PfsOp::Phase1, per_node, 1.0);
        let fin = f.next_completion(t(full / 2.0)).unwrap();
        let solo = pfs.single_node_write_secs(per_node);
        assert!((fin.as_secs() - full / 2.0 - solo).abs() < 1e-6);
        assert_eq!(f.take_completed(fin), vec![PfsOp::Phase1]);
        // Resume on the idle link: the remaining half drains, alone, in
        // the remaining half time, held outside the link until settled.
        let fin2 = f.resume_drain(fin, 100.0).expect("a lone resumed drain");
        assert!(
            (fin2.as_secs() - fin.as_secs() - full / 2.0).abs() / full < 1e-6,
            "resumed drain must take the remaining half, got {}",
            fin2.as_secs() - fin.as_secs()
        );
        assert!(f.drain_pending());
        assert_eq!(f.next_completion(fin), None, "a lone drain queues no tick");
        f.settle_lone_drain(fin2);
        assert!(!f.drain_pending());
    }

    #[test]
    fn lone_drain_completes_where_the_link_would_retire_it() {
        // The same drain through the link (the owner's tick path) and
        // held lone: one instant, one wave id, one epoch afterwards.
        let per_node = 10.0 * GB;
        let (bytes, weight) = (512.0 * per_node, 512.0);
        let mut linked = fluid();
        linked.start(t(3.0), PfsOp::Drain, bytes, weight);
        let at = linked.next_completion(t(3.0)).unwrap();
        assert_eq!(linked.take_completed(at), vec![PfsOp::Drain]);
        let mut lone = fluid();
        let dur = lone.lone_duration(bytes, weight);
        assert_eq!(lone.start_drain(t(3.0), bytes, weight, dur), Some(at));
        assert_eq!(lone.active(), 0);
        assert!(lone.epoch() > 0, "the lone start moves the epoch");
        lone.settle_lone_drain(at);
        assert_eq!(lone.epoch(), linked.epoch());
        assert!(!lone.drain_pending());
        // The next transfer gets the next id on both.
        linked.start(at, PfsOp::Phase1, per_node, 1.0);
        lone.start(at, PfsOp::Phase1, per_node, 1.0);
        assert_eq!(lone.next_completion(at), linked.next_completion(at));
    }

    #[test]
    fn contact_puts_a_lone_drain_into_the_link_at_its_start() {
        // A safeguard joining half-way through a lone drain finds the
        // link as if the drain had been in it all along.
        let per_node = 10.0 * GB;
        let (bytes, weight) = (512.0 * per_node, 512.0);
        let mut linked = fluid();
        let mut lone = fluid();
        linked.start(t(0.0), PfsOp::Drain, bytes, weight);
        let dur = lone.lone_duration(bytes, weight);
        let alone = lone.start_drain(t(0.0), bytes, weight, dur).unwrap();
        let half = t(alone.as_secs() / 2.0);
        for f in [&mut linked, &mut lone] {
            f.start(half, PfsOp::Safeguard, 64.0 * per_node, 64.0);
        }
        assert_eq!(lone.active(), 2);
        assert_eq!(lone.epoch(), linked.epoch());
        let mut clock = half;
        while let Some(at) = linked.next_completion(clock) {
            assert_eq!(lone.next_completion(clock), Some(at));
            assert_eq!(lone.take_completed(at), linked.take_completed(at));
            clock = at;
        }
        assert_eq!(lone.next_completion(clock), None);
        // A void or a suspension materializes it the same way.
        let dur = lone.lone_duration(bytes, weight);
        lone.start_drain(clock, bytes, weight, dur).unwrap();
        lone.suspend_drain(clock + pckpt_desim::SimDuration::from_secs(1.0));
        assert!(lone.drain_pending());
        assert_eq!(lone.active(), 0);
        lone.void_drain(clock + pckpt_desim::SimDuration::from_secs(2.0));
        assert!(!lone.drain_pending());
    }

    #[test]
    fn a_drain_suspended_at_its_instant_is_complete() {
        // A round that starts exactly when a lone drain completes finds
        // nothing left to drain: the drain is complete there, and
        // nothing is kept for the round's end to resume.
        let mut f = fluid();
        let (bytes, weight) = (100.0 * GB, 10.0);
        let dur = f.lone_duration(bytes, weight);
        let at = f
            .start_drain(t(0.0), bytes, weight, dur)
            .expect("a lone drain");
        assert!(f.suspend_drain(at));
        assert!(!f.drain_pending());
        assert_eq!(f.active(), 0);
        assert_eq!(f.resume_drain(at, weight), None);
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
