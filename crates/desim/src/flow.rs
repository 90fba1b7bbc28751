//! Fluid-flow model of a shared transfer link.
//!
//! Checkpoint traffic in the paper is bulk data movement over shared media
//! (burst-buffer device, node NIC, the PFS as a whole). Simulating
//! individual I/O requests would be both slow and spuriously precise;
//! instead, each medium is a [`FlowLink`]: concurrent transfers progress
//! simultaneously, each receiving an equal share of an aggregate capacity
//! that may itself depend on how many transfers are active (this is how the
//! weak-scaling GPFS matrix of Fig. 2c enters the simulation — aggregate
//! bandwidth is *not* proportional to writer count).
//!
//! The link is passive: it never touches the event queue. The owning model
//! asks [`FlowLink::next_completion`] after every mutation and (re)schedules
//! its own completion event. Stale completion events are detected with
//! [`FlowLink::epoch`], which increments on every state change.
//!
//! # Virtual-time implementation
//!
//! Between membership changes every unit of weight progresses at the same
//! rate `rpw = capacity(W)/W`. The link therefore tracks a single
//! cumulative *virtual time* `v` — bytes delivered per unit weight since
//! the link was last idle — instead of per-flow byte counters:
//!
//! * `advance` is O(1): `v += rpw · dt`.
//! * A flow starting with `b` bytes and weight `w` at virtual time
//!   `start_v` is fully delivered when `v` reaches its *finish tag*
//!   `finish_v = start_v + b/w`, a constant computed once at start.
//! * Its bytes delivered so far are `min(b, (v − start_v)·w)`, computed
//!   on demand.
//!
//! Completion timing and done-detection are two lazily-pruned min-heaps:
//! one keyed by `finish_v` (earliest completion = smallest tag, so
//! [`FlowLink::next_completion`] is an O(1) peek) and one keyed by the
//! *snap tag* `finish_v − ε/w` that linearizes the rate-aware done
//! threshold (see [`done_threshold`]), so [`FlowLink::take_completed`]
//! pops exactly the finished flows in O(k log n). Cancelled flows leave
//! stale heap entries behind; they are skipped when they surface and the
//! heaps are compacted outright when stale entries outnumber live ones.
//!
//! The previous per-flow O(n) implementation is preserved unchanged as
//! [`reference::ReferenceFlowLink`]; property tests assert the two are
//! observationally equivalent (completion instants within 1 ns, identical
//! completion order and byte accounting) on randomized workloads.
//!
//! # Lone transfers
//!
//! A transfer that has the link to itself from start to finish needs
//! none of this: [`FlowLink::lone_duration`] gives, from the same
//! arithmetic, the instant the owner's first tick would retire it. An
//! owner may hold such a transfer outside the link: it takes its id and
//! epoch bump at the start ([`FlowLink::reserve`]), and either retires
//! there ([`FlowLink::retire_lone`]) or, once anything else touches the
//! link first, starts in it at its original instant under its reserved
//! id ([`FlowLink::start_reserved`]), as if it had been there all along.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pckpt_simobs::{kind, Recorder};

use crate::time::{SimDuration, SimTime};

pub mod reference;

/// Identifies one in-flight transfer on a [`FlowLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

/// Base completion threshold: a flow with less than this many bytes left
/// is done. The effective threshold is rate-aware — simulation time has
/// nanosecond resolution, so at rate `r` a completion instant can be off
/// by up to ~1 ns, leaving `r × 1e-9` bytes (≈13 bytes at 13 GB/s).
const DONE_EPSILON: f64 = 1.0;

/// Effective completion threshold for a flow moving at `rate` bytes/sec.
fn done_threshold(rate: f64) -> f64 {
    DONE_EPSILON + rate * 2e-9
}

/// The bound [`done_threshold`] puts on snap tags at virtual time `v`
/// and rate per weight `rpw`: a flow whose snap tag is at or below it
/// is done.
fn done_bound(v: f64, rpw: f64) -> f64 {
    v + rpw * 2e-9
}

/// How long from virtual time `v`, at rate per weight `rpw`, until the
/// earliest of the flows with smallest snap tag `min_tag` and smallest
/// finish tag `min_finish()` is done: zero when one already is, else
/// the time to the finish tag, rounded *up* to the next nanosecond so
/// the scheduled instant never undershoots the completion (undershooting
/// by even 1 ns leaves bytes at multi-GB/s rates).
fn until_done(min_tag: f64, v: f64, rpw: f64, min_finish: impl FnOnce() -> f64) -> SimDuration {
    let dt = if min_tag <= done_bound(v, rpw) {
        0.0 // some flow is already inside its done threshold
    } else {
        (min_finish() - v) / rpw
    };
    SimDuration::from_secs_f64_ceil(dt)
}

/// Totally-ordered finite float heap key (`f64::total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Min-heap entry: `(virtual-time key, id)`; ties broken by id so heap
/// order is deterministic.
type HeapEntry = Reverse<(Key, TransferId)>;

/// Rejects a transfer no start may carry.
fn check_transfer(bytes: f64, weight: f64) {
    assert!(
        bytes >= 0.0 && bytes.is_finite(),
        "transfer size must be finite and non-negative, got {bytes}"
    );
    assert!(
        weight > 0.0 && weight.is_finite(),
        "transfer weight must be positive, got {weight}"
    );
}

#[derive(Debug, Clone)]
struct VFlow {
    /// Virtual time at which the flow started.
    start_v: f64,
    /// Virtual time at which the flow's bytes are fully delivered.
    finish_v: f64,
    total: f64,
    weight: f64,
    started: SimTime,
}

impl VFlow {
    /// A flow of `bytes` at `weight` starting at virtual time `v`.
    fn new(v: f64, bytes: f64, weight: f64, started: SimTime) -> Self {
        VFlow {
            start_v: v,
            finish_v: v + bytes / weight,
            total: bytes,
            weight,
            started,
        }
    }

    /// Bytes delivered by virtual time `v` (never exceeds `total`).
    fn delivered(&self, v: f64) -> f64 {
        ((v - self.start_v) * self.weight).min(self.total)
    }

    /// The snap tag: the flow is done once `v + rpw·2e-9` reaches it.
    ///
    /// Derivation: the reference condition `remaining ≤ ε + rate·2e-9`
    /// with `remaining = (finish_v − v)·w` and `rate = rpw·w` rearranges
    /// to `finish_v − ε/w ≤ v + rpw·2e-9`. The left side is constant per
    /// flow, so done-detection is a heap peek.
    fn snap_tag(&self) -> f64 {
        self.finish_v - DONE_EPSILON / self.weight
    }
}

/// A shared link carrying concurrent fluid transfers.
///
/// Transfers can be *weighted*: a transfer of weight `w` receives
/// `w / W_total` of the capacity, and the capacity function is consulted
/// with the total active weight. This models per-node fair sharing on a
/// parallel file system — a 512-node drain and a single-node commit are
/// one transfer each, but the drain holds 512× the bandwidth share and
/// the aggregate capacity curve sees 513 writers.
pub struct FlowLink {
    /// Aggregate capacity (bytes/sec) as a function of the total active
    /// weight (= writer count for node-weighted transfers). Must be
    /// strictly positive for any non-zero weight.
    capacity: Box<dyn Fn(usize) -> f64 + Send>,
    /// Active flows, sorted by id. Ids are issued monotonically, so
    /// insertion is a push at the end and lookup is a binary search; a
    /// plain Vec (not a tree map) keeps the table allocation-free in
    /// steady state — [`reset`](Self::reset) retains its capacity.
    flows: Vec<(TransferId, VFlow)>,
    /// Cumulative virtual time: bytes delivered per unit weight since the
    /// link was last idle. Rebased to zero whenever the link drains so
    /// float granularity cannot grow without bound over a long campaign.
    v: f64,
    /// Incrementally-maintained total active weight (reset to exactly
    /// zero when the link drains, killing accumulated rounding).
    total_weight: f64,
    last_advance: SimTime,
    next_id: u64,
    epoch: u64,
    /// Bytes fully accounted for flows no longer in `flows`; the public
    /// counter adds in-flight progress on demand.
    bytes_retired: f64,
    /// Min-heap on [`VFlow::snap_tag`]: drives `take_completed`.
    by_tag: BinaryHeap<HeapEntry>,
    /// Min-heap on `finish_v`: drives `next_completion`.
    by_finish: BinaryHeap<HeapEntry>,
    /// Debug-mode byte-conservation auditor (zero-sized in release).
    audit: crate::audit::ByteLedger,
    /// Structured trace sink; records nothing unless a live recorder
    /// is installed.
    rec: Recorder,
}

impl std::fmt::Debug for FlowLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowLink")
            .field("active", &self.flows.len())
            .field("last_advance", &self.last_advance)
            .field("epoch", &self.epoch)
            .field("virtual_time", &self.v)
            .finish()
    }
}

impl FlowLink {
    /// Creates a link with a constant aggregate capacity in bytes/sec.
    pub fn with_constant_capacity(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "link capacity must be > 0");
        Self::with_capacity_fn(move |_| bytes_per_sec)
    }

    /// Creates a link whose aggregate capacity depends on the number of
    /// active transfers (e.g. the GPFS weak-scaling matrix).
    pub fn with_capacity_fn(f: impl Fn(usize) -> f64 + Send + 'static) -> Self {
        Self {
            capacity: Box::new(f),
            flows: Vec::new(),
            v: 0.0,
            total_weight: 0.0,
            last_advance: SimTime::ZERO,
            next_id: 0,
            epoch: 0,
            bytes_retired: 0.0,
            by_tag: BinaryHeap::new(),
            by_finish: BinaryHeap::new(),
            audit: crate::audit::ByteLedger::default(),
            rec: Recorder::disabled(),
        }
    }

    /// Installs a trace recorder; every completed wave is emitted as a
    /// [`kind::FLOW_WAVE`] record.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// Clears the link back to its just-constructed idle state while
    /// retaining the capacity function and all allocated storage (flow
    /// table and both heaps), so a recycled link starts transfers without
    /// heap allocation. Outstanding [`TransferId`]s are invalidated.
    pub fn reset(&mut self) {
        self.flows.clear();
        self.v = 0.0;
        self.total_weight = 0.0;
        self.last_advance = SimTime::ZERO;
        self.next_id = 0;
        self.epoch = 0;
        self.bytes_retired = 0.0;
        self.by_tag.clear();
        self.by_finish.clear();
        self.audit.reset();
    }

    /// Index of `id` in the id-sorted flow table.
    #[inline]
    fn flow_idx(&self, id: TransferId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |&(i, _)| i).ok()
    }

    /// Bandwidth of one unit of weight at the current membership.
    fn rate_per_weight(&self) -> f64 {
        self.rate_at(self.total_weight)
    }

    /// Bandwidth of one unit of weight while the flows hold `w` in all.
    fn rate_at(&self, w: f64) -> f64 {
        if w <= 0.0 {
            return 0.0;
        }
        let writers = crate::time::ceil_to_u64(w) as usize;
        let cap = (self.capacity)(writers);
        assert!(
            cap > 0.0 && cap.is_finite(),
            "capacity function returned {cap} for weight {w}"
        );
        cap / w
    }

    /// Advances all flows to `now`. Must be called (and is called by every
    /// mutating method) with a monotonically non-decreasing `now`.
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advance,
            "FlowLink time went backwards: {now} < {}",
            self.last_advance
        );
        let dt = now.since(self.last_advance).as_secs();
        if dt > 0.0 && !self.flows.is_empty() {
            self.v += self.rate_per_weight() * dt;
        }
        self.last_advance = now;
    }

    /// Starts a transfer of `bytes` with unit weight at time `now`.
    /// Zero-byte transfers are legal and complete at the next
    /// [`FlowLink::take_completed`] call.
    pub fn start(&mut self, now: SimTime, bytes: f64) -> TransferId {
        self.start_weighted(now, bytes, 1.0)
    }

    /// Starts a transfer of `bytes` carrying `weight` units of bandwidth
    /// share (e.g. the number of nodes writing collectively).
    pub fn start_weighted(&mut self, now: SimTime, bytes: f64, weight: f64) -> TransferId {
        let id = self.reserve();
        self.start_reserved(now, id, bytes, weight);
        id
    }

    /// Hands out the next transfer id and bumps the epoch, as a start does,
    /// without starting anything: the caller then either starts the
    /// transfer under it ([`FlowLink::start_reserved`]) or, for one that
    /// had the link to itself, retires it ([`FlowLink::retire_lone`]).
    /// Later starts get later ids either way.
    pub fn reserve(&mut self) -> TransferId {
        let id = TransferId(self.next_id);
        self.next_id += 1;
        self.epoch += 1;
        id
    }

    /// Starts a transfer of `bytes` at `weight` under `id`, the latest id
    /// [`FlowLink::reserve`] handed out, as of `now`. The epoch is not bumped
    /// again: the reservation did that.
    pub fn start_reserved(&mut self, now: SimTime, id: TransferId, bytes: f64, weight: f64) {
        check_transfer(bytes, weight);
        // The flow table stays sorted by id only if no later id started.
        assert_eq!(id.0 + 1, self.next_id, "only the latest reservation starts");
        self.advance(now);
        self.audit.inject(bytes);
        let flow = VFlow::new(self.v, bytes, weight, now);
        self.by_tag.push(Reverse((Key(flow.snap_tag()), id)));
        self.by_finish.push(Reverse((Key(flow.finish_v), id)));
        self.total_weight += weight;
        // Ids are monotone, so pushing keeps the table sorted.
        self.flows.push((id, flow));
    }

    /// How long after its start a transfer of `bytes` at `weight` that
    /// has the link to itself is retired: started on an idle link, with
    /// nothing else started, cancelled or completed before it is done.
    ///
    /// This is the instant [`FlowLink::next_completion`] answers right
    /// after the start, provided [`FlowLink::take_completed_into`] there
    /// finds the transfer inside its done threshold, with the virtual
    /// time and rate those calls would use. `None` when it does not:
    /// such a transfer needs a later tick and must run through the link.
    /// On an idle link `v` is 0 (see `rebase_idle`), so the answer is
    /// the same for every start instant and every idle link with this
    /// capacity function.
    pub fn lone_duration(&self, bytes: f64, weight: f64) -> Option<SimDuration> {
        check_transfer(bytes, weight);
        let flow = VFlow::new(0.0, bytes, weight, SimTime::ZERO);
        let tag = flow.snap_tag();
        // Alone, the flow holds all the weight (0 + weight is exact).
        let rpw = self.rate_at(weight);
        let dur = until_done(tag, 0.0, rpw, || flow.finish_v);
        let dt = dur.as_secs();
        let v = if dt > 0.0 { rpw * dt } else { 0.0 };
        (tag <= done_bound(v, rpw)).then_some(dur)
    }

    /// Retires at `now` the transfer reserved as `id` that had the link
    /// to itself and was never started in it: `now` is its start plus
    /// [`FlowLink::lone_duration`]. Accounts for it exactly as
    /// [`FlowLink::take_completed_into`] would have retired it there:
    /// its bytes count as delivered, the epoch moves on and its
    /// [`kind::FLOW_WAVE`] is recorded at `now`.
    pub fn retire_lone(&mut self, now: SimTime, id: TransferId, bytes: f64) {
        debug_assert!(
            self.flows.is_empty(),
            "a lone transfer had the link to itself"
        );
        self.advance(now);
        self.audit.inject(bytes);
        self.bytes_retired += bytes;
        self.epoch += 1;
        self.rec
            .emit(now.as_nanos(), kind::FLOW_WAVE, id.0, bytes.to_bits());
        self.audit.check_conserved(self.bytes_retired, || 0.0);
    }

    /// Aborts a transfer, returning the bytes it still had left, or `None`
    /// if it was not active (already completed or cancelled).
    pub fn cancel(&mut self, now: SimTime, id: TransferId) -> Option<f64> {
        self.advance(now);
        let idx = self.flow_idx(id)?;
        let (_, flow) = self.flows.remove(idx);
        self.epoch += 1;
        let delivered = flow.delivered(self.v);
        self.bytes_retired += delivered;
        self.total_weight -= flow.weight;
        if self.flows.is_empty() {
            self.rebase_idle();
        } else {
            self.prune_heaps();
        }
        self.audit.give_back(flow.total - delivered);
        Some(flow.total - delivered)
    }

    /// When, at current rates, will the earliest active transfer finish?
    ///
    /// Returns `None` if no transfers are active. The returned time is the
    /// moment the first flow's remaining volume reaches zero; the owner
    /// should schedule a completion event there and call
    /// [`FlowLink::take_completed`] when it fires.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        if self.flows.is_empty() {
            return None;
        }
        debug_assert!(now >= self.last_advance);
        let already = now.since(self.last_advance).as_secs();
        let rpw = self.rate_per_weight();
        let v_proj = self.v + already * rpw;
        // Heap tops are always live (mutating methods prune), so both
        // peeks see the minimum over active flows.
        // Non-empty checked above; tops are pruned live. simlint: allow(no-unwrap-in-lib)
        let Reverse((Key(min_tag), _)) = *self.by_tag.peek().expect("live flow in heap");
        let dt = until_done(min_tag, v_proj, rpw, || {
            // Non-empty checked above; tops are pruned live. simlint: allow(no-unwrap-in-lib)
            let Reverse((Key(min_finish), _)) = *self.by_finish.peek().expect("live flow in heap");
            min_finish
        });
        Some(now + dt)
    }

    /// Advances to `now` and removes every transfer that has finished,
    /// returning `(id, total_bytes, started_at)` for each in start order.
    ///
    /// Allocating convenience wrapper around
    /// [`FlowLink::take_completed_into`].
    pub fn take_completed(&mut self, now: SimTime) -> Vec<(TransferId, f64, SimTime)> {
        let mut out = Vec::new();
        self.take_completed_into(now, &mut out);
        out
    }

    /// Advances to `now` and removes every finished transfer, appending
    /// `(id, total_bytes, started_at)` in start order to `out` (which is
    /// cleared first). Hot loops pass the same buffer every call so the
    /// steady state performs no allocation.
    pub fn take_completed_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<(TransferId, f64, SimTime)>,
    ) {
        out.clear();
        self.advance(now);
        if self.flows.is_empty() {
            return;
        }
        // One threshold for the whole batch, from the pre-removal
        // membership — mirrors the reference implementation, which
        // computes `rpw` once before removing anything.
        let bound = done_bound(self.v, self.rate_per_weight());
        while let Some(&Reverse((Key(tag), id))) = self.by_tag.peek() {
            let Some(idx) = self.flow_idx(id) else {
                self.by_tag.pop(); // stale: cancelled earlier
                continue;
            };
            if tag > bound {
                break;
            }
            self.by_tag.pop();
            let (_, flow) = self.flows.remove(idx);
            // Retire the flow's *full* byte count: delivered progress plus
            // the sub-threshold rounding remainder, accounted before the
            // epoch bump below so observers at the new epoch see a
            // consistent counter.
            self.bytes_retired += flow.total;
            self.total_weight -= flow.weight;
            out.push((id, flow.total, flow.started));
        }
        // Heap order is by snap tag; the public contract is start order.
        out.sort_unstable_by_key(|&(id, _, _)| id);
        if !out.is_empty() {
            self.epoch += 1;
            for &(id, total, _) in out.iter() {
                self.rec
                    .emit(now.as_nanos(), kind::FLOW_WAVE, id.0, total.to_bits());
            }
        }
        if self.flows.is_empty() {
            self.rebase_idle();
        } else {
            self.prune_heaps();
        }
        // Per-wave conservation audit: everything injected is either
        // retired, returned by cancel, or still in flight.
        self.audit.check_conserved(self.bytes_retired, || {
            self.flows.iter().map(|(_, f)| f.total).sum()
        });
    }

    /// The link just drained: reset virtual time and the weight
    /// accumulator so float error cannot build up across a campaign.
    fn rebase_idle(&mut self) {
        debug_assert!(self.flows.is_empty());
        self.v = 0.0;
        self.total_weight = 0.0;
        self.by_tag.clear();
        self.by_finish.clear();
    }

    /// Restores the invariant that both heap tops refer to live flows,
    /// and compacts either heap when stale entries dominate it.
    fn prune_heaps(&mut self) {
        let flows = &self.flows;
        let contains = |id: TransferId| flows.binary_search_by_key(&id, |&(i, _)| i).is_ok();
        while let Some(&Reverse((_, id))) = self.by_tag.peek() {
            if contains(id) {
                break;
            }
            self.by_tag.pop();
        }
        while let Some(&Reverse((_, id))) = self.by_finish.peek() {
            if contains(id) {
                break;
            }
            self.by_finish.pop();
        }
        let cap = flows.len() * 2 + 64;
        if self.by_tag.len() > cap {
            self.by_tag.retain(|Reverse((_, id))| contains(*id));
        }
        if self.by_finish.len() > cap {
            self.by_finish.retain(|Reverse((_, id))| contains(*id));
        }
    }

    /// Monotone counter incremented on every membership change. Owners
    /// stamp their scheduled completion events with this and discard stale
    /// ones.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of active transfers.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// True if no transfers are in flight.
    pub fn is_idle(&self) -> bool {
        self.flows.is_empty()
    }

    /// Total bytes delivered since construction.
    ///
    /// Cold path: sums in-flight progress over active flows on demand
    /// (the hot loop never maintains per-flow byte counters).
    pub fn bytes_moved(&self) -> f64 {
        self.bytes_retired
            + self
                .flows
                .iter()
                .map(|(_, f)| f.delivered(self.v))
                .sum::<f64>()
    }

    /// Remaining bytes of an active transfer (as of the last advance).
    pub fn remaining(&self, id: TransferId) -> Option<f64> {
        self.flow_idx(id).map(|i| {
            let f = &self.flows[i].1;
            f.total - f.delivered(self.v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_transfer_takes_bytes_over_capacity() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        link.start(t(0.0), 500.0);
        let finish = link.next_completion(t(0.0)).unwrap();
        assert!((finish.as_secs() - 5.0).abs() < 1e-6);
        let done = link.take_completed(finish);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 500.0);
        assert!(link.is_idle());
        assert!((link.bytes_moved() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn two_equal_transfers_share_fairly() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        link.start(t(0.0), 100.0);
        link.start(t(0.0), 100.0);
        // Each gets 50 B/s → both finish at t=2.
        let finish = link.next_completion(t(0.0)).unwrap();
        assert!((finish.as_secs() - 2.0).abs() < 1e-6);
        let done = link.take_completed(finish);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn late_joiner_slows_existing_transfer() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        let a = link.start(t(0.0), 100.0);
        // At t=0.5, A has 50 B left; B joins with 100 B.
        let b = link.start(t(0.5), 100.0);
        // Shares are 50 B/s each → A finishes at t=1.5, B at t=2.5.
        let fin_a = link.next_completion(t(0.5)).unwrap();
        assert!((fin_a.as_secs() - 1.5).abs() < 1e-6);
        let done = link.take_completed(fin_a);
        assert_eq!(done[0].0, a);
        // A gone → B back to full rate with 50 B left → t=2.0.
        let fin_b = link.next_completion(fin_a).unwrap();
        assert!((fin_b.as_secs() - 2.0).abs() < 1e-6);
        let done = link.take_completed(fin_b);
        assert_eq!(done[0].0, b);
    }

    #[test]
    fn cancel_returns_remaining_and_restores_rate() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        let a = link.start(t(0.0), 1000.0);
        link.start(t(0.0), 1000.0);
        let rem = link.cancel(t(4.0), a).unwrap();
        // 4 s at 50 B/s each → 200 drained, 800 left.
        assert!((rem - 800.0).abs() < 1e-6);
        assert!(link.cancel(t(4.0), a).is_none(), "double cancel is None");
        // Survivor now drains at 100 B/s with 800 left → t=12.
        let fin = link.next_completion(t(4.0)).unwrap();
        assert!((fin.as_secs() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn load_dependent_capacity_is_consulted() {
        // Aggregate capacity saturates: 100 for one flow, 150 for two.
        let mut link = FlowLink::with_capacity_fn(|n| if n <= 1 { 100.0 } else { 150.0 });
        link.start(t(0.0), 100.0);
        link.start(t(0.0), 100.0);
        // Each gets 75 B/s → finish at t≈1.333.
        let fin = link.next_completion(t(0.0)).unwrap();
        assert!((fin.as_secs() - 100.0 / 75.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut link = FlowLink::with_constant_capacity(10.0);
        let id = link.start(t(1.0), 0.0);
        let fin = link.next_completion(t(1.0)).unwrap();
        assert_eq!(fin, t(1.0));
        let done = link.take_completed(t(1.0));
        assert_eq!(done[0].0, id);
    }

    #[test]
    fn epoch_increments_on_membership_changes_only() {
        let mut link = FlowLink::with_constant_capacity(10.0);
        let e0 = link.epoch();
        let id = link.start(t(0.0), 10.0);
        assert!(link.epoch() > e0);
        let e1 = link.epoch();
        link.advance(t(0.5));
        assert_eq!(link.epoch(), e1, "advance must not bump the epoch");
        link.cancel(t(0.5), id);
        assert!(link.epoch() > e1);
    }

    #[test]
    fn next_completion_accounts_for_time_since_last_advance() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        link.start(t(0.0), 100.0);
        // Asking at t=0.75 without advancing must still answer t=1.0.
        let fin = link.next_completion(t(0.75)).unwrap();
        assert!((fin.as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn remaining_tracks_progress() {
        let mut link = FlowLink::with_constant_capacity(10.0);
        let id = link.start(t(0.0), 100.0);
        link.advance(t(3.0));
        assert!((link.remaining(id).unwrap() - 70.0).abs() < 1e-6);
        assert_eq!(link.remaining(TransferId(999)), None);
    }

    #[test]
    fn conservation_of_bytes_across_churn() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        let mut injected = 0.0;
        let mut returned = 0.0;
        let mut clock = 0.0;
        let mut ids = Vec::new();
        for i in 0..20 {
            let bytes = 50.0 + i as f64 * 10.0;
            injected += bytes;
            ids.push(link.start(t(clock), bytes));
            clock += 0.3;
            if i % 3 == 0 {
                if let Some(rem) = link.cancel(t(clock), ids[i / 2]) {
                    returned += rem;
                }
            }
            for (_, _, _) in link.take_completed(t(clock)) {}
            clock += 0.1;
        }
        // Drain everything that's left.
        while let Some(fin) = link.next_completion(t(clock)) {
            clock = fin.as_secs();
            link.take_completed(fin);
        }
        let moved = link.bytes_moved();
        assert!(
            (injected - returned - moved).abs() < 1e-3,
            "injected {injected} = returned {returned} + moved {moved}"
        );
    }

    #[test]
    fn weighted_transfers_share_proportionally() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        // A 3-weight drain and a 1-weight commit: 75 vs 25 B/s.
        let heavy = link.start_weighted(t(0.0), 300.0, 3.0);
        let light = link.start_weighted(t(0.0), 100.0, 1.0);
        // Both finish at t=4 (300/75 = 100/25).
        let fin = link.next_completion(t(0.0)).unwrap();
        assert!((fin.as_secs() - 4.0).abs() < 1e-6);
        let done = link.take_completed(fin);
        assert_eq!(done.len(), 2);
        let _ = (heavy, light);
    }

    #[test]
    fn weighted_capacity_fn_sees_total_weight() {
        // Capacity grows with writer count: 100·writers^0.5.
        let mut link = FlowLink::with_capacity_fn(|w| 100.0 * (w as f64).sqrt());
        link.start_weighted(t(0.0), 1_000.0, 4.0);
        // Total weight 4 → capacity 200, all of it to this flow → t=5.
        let fin = link.next_completion(t(0.0)).unwrap();
        assert!((fin.as_secs() - 5.0).abs() < 1e-6, "fin = {fin}");
        // Add a unit-weight flow: weight 5 → capacity 100·√5 ≈ 223.6;
        // heavy gets 4/5 ≈ 178.9 B/s, light 44.7 B/s.
        link.advance(t(1.0));
        link.start_weighted(t(1.0), 44.7, 1.0);
        let fin2 = link.next_completion(t(1.0)).unwrap();
        assert!((fin2.as_secs() - 2.0).abs() < 0.01, "fin2 = {fin2}");
    }

    #[test]
    fn weighted_early_finisher_frees_share() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        let small = link.start_weighted(t(0.0), 25.0, 1.0);
        let big = link.start_weighted(t(0.0), 300.0, 3.0);
        // small at 25 B/s finishes at t=1; big has 225 left, then runs at
        // the full 100 B/s → finishes at t = 1 + 2.25.
        let f1 = link.next_completion(t(0.0)).unwrap();
        assert!((f1.as_secs() - 1.0).abs() < 1e-6);
        let done = link.take_completed(f1);
        assert_eq!(done[0].0, small);
        let f2 = link.next_completion(f1).unwrap();
        assert!((f2.as_secs() - 3.25).abs() < 1e-6, "f2 = {f2}");
        let done = link.take_completed(f2);
        assert_eq!(done[0].0, big);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut link = FlowLink::with_constant_capacity(10.0);
        link.start_weighted(t(0.0), 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rewinding_time_panics() {
        let mut link = FlowLink::with_constant_capacity(10.0);
        link.advance(t(5.0));
        link.advance(t(4.0));
    }

    #[test]
    fn take_completed_into_reuses_buffer() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        let mut buf = Vec::new();
        link.start(t(0.0), 100.0);
        link.take_completed_into(t(1.0), &mut buf);
        assert_eq!(buf.len(), 1);
        let cap = buf.capacity();
        // Second round with the same buffer: cleared, refilled, and no
        // regrowth for a same-sized batch.
        link.start(t(1.0), 100.0);
        link.take_completed_into(t(2.0), &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn cancel_churn_keeps_heaps_bounded() {
        // Start/cancel far more flows than stay live; the lazily-pruned
        // heaps must compact rather than grow with total churn.
        let mut link = FlowLink::with_constant_capacity(1e6);
        let keep = link.start(t(0.0), 1e12);
        for i in 0..10_000 {
            let id = link.start_weighted(t(0.0), 1e12, 1.0);
            link.cancel(t(0.0), id);
            let _ = i;
        }
        assert_eq!(link.active(), 1);
        assert!(
            link.by_tag.len() <= 2 * link.active() + 64,
            "by_tag grew to {}",
            link.by_tag.len()
        );
        assert!(
            link.by_finish.len() <= 2 * link.active() + 64,
            "by_finish grew to {}",
            link.by_finish.len()
        );
        link.cancel(t(1.0), keep);
        assert!(link.is_idle());
        assert_eq!(link.by_tag.len(), 0, "idle rebase clears heaps");
    }

    #[test]
    fn reset_behaves_like_a_fresh_link() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        let a = link.start(t(0.0), 1000.0);
        link.start(t(1.0), 300.0);
        link.cancel(t(2.0), a);
        link.reset();
        assert!(link.is_idle());
        assert_eq!(link.epoch(), 0);
        assert_eq!(link.bytes_moved(), 0.0);
        assert_eq!(link.v, 0.0);
        assert_eq!(link.total_weight, 0.0);
        // The recycled link replays the single-transfer scenario exactly,
        // including reissuing ids from zero.
        let b = link.start(t(0.0), 500.0);
        assert_eq!(b, a, "transfer ids restart after reset");
        let finish = link.next_completion(t(0.0)).unwrap();
        assert!((finish.as_secs() - 5.0).abs() < 1e-6);
        let done = link.take_completed(finish);
        assert_eq!(done.len(), 1);
        assert!((link.bytes_moved() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn idle_rebase_resets_virtual_time() {
        let mut link = FlowLink::with_constant_capacity(100.0);
        link.start(t(0.0), 1000.0);
        link.take_completed(t(10.0));
        assert!(link.is_idle());
        assert_eq!(link.v, 0.0);
        assert_eq!(link.total_weight, 0.0);
        // A fresh flow after the rebase behaves exactly like the first.
        link.start(t(100.0), 500.0);
        let fin = link.next_completion(t(100.0)).unwrap();
        assert!((fin.as_secs() - 105.0).abs() < 1e-6);
    }
}
