//! The pending-event set: a deterministic priority queue in which an
//! event is cancellable or not, as its scheduler chooses.
//!
//! Events live in one of three places, chosen by the scheduling call and
//! by whether the queue has popped yet:
//!
//! - **The sorted run.** Everything [`schedule_at`](EventQueue::schedule_at)
//!   puts on a fresh or [`reset`](EventQueue::reset) queue, before its
//!   first [`pop`](EventQueue::pop), is appended to a `Vec`. That batch is
//!   what a model's `init` schedules: in the C/R simulation, the whole
//!   failure trace, its predictions and false positives, most of which
//!   lie past the job's end and never pop. The first pop sorts the `Vec`
//!   once, in place, by the `(time, seq)` key, and from then on it is
//!   consumed from its earliest end.
//! - **The heap.** Everything `schedule_at` puts on the queue after that
//!   goes to a binary min-heap.
//! - **The lane.** Everything
//!   [`schedule_uncancellable_at`](EventQueue::schedule_uncancellable_at)
//!   puts on the queue, before or after the first pop, goes to a `Vec`
//!   kept in descending `(time, seq)` order by insertion, so its earliest
//!   event leaves by `Vec::pop`. Insertion is a binary search plus a
//!   shift of the entries after it, linear in the lane's length. That is
//!   the lane's bound: it is meant for the handful of events a model
//!   keeps in flight, and the C/R simulation's handlers, which never
//!   cancel what they schedule, hold at most 15 at once on the heaviest
//!   paper panel (DESIGN.md §9). A model that keeps hundreds of events
//!   pending is better served by `schedule_at` and the heap.
//!
//! Every event takes its `seq` (and its [`EventId`]) from one counter,
//! and `pop` takes the smallest `(time, seq)` of the three heads, so the
//! pop order, the ids, `len`, `depth_hwm`, `scheduled_total` and every
//! recorder call are exactly those of one heap holding everything.
//!
//! Cancellation is first-class because the C/R models revoke scheduled
//! futures: a pending failure event is cancelled when live migration
//! moves the process off the vulnerable node. It is *lazy* and works the
//! same in the run and the heap: the entry stays put and its id is
//! cleared in one liveness bitset, so `cancel` is O(1) and
//! `schedule`/`pop` stay O(log n). Dead entries are skipped when they
//! surface, and both structures are compacted in one O(n) pass whenever
//! their dead entries outnumber the live ones, so memory stays
//! proportional to the live event count no matter how much is cancelled.
//! The lane needs none of this: `schedule_uncancellable_at` returns no
//! id, and the id `pop` reports for a lane event names an event that has
//! already fired, so no lane entry can die. Its events set no liveness
//! bit, and `pop` never tests one for them.
//!
//! `pop` caches the key of the earliest live entry across the run and
//! the heap, so a run of lane pops neither tests a liveness bit nor
//! compares the run's head with the heap's. Three things can change that
//! entry once the run is sealed, and each drops the cache: a
//! `schedule_at`, a `cancel` that clears a live bit, and a pop from the
//! run or the heap. The sealing itself needs no rule: it comes before
//! the first lookup, and `new` and `reset` leave the cache empty. Lane
//! schedules and lane pops leave it be. `pop` and the lane's scheduling
//! calls are `#[inline]`: left out of line, the calls themselves were a
//! measurable part of a lane event's cost in the C/R simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pckpt_simobs::Recorder;

use crate::time::{SimDuration, SimTime};

/// Opaque handle identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// The pop-order key: earliest time first, FIFO within a timestamp.
type Key = (SimTime, u64);

/// The cached head key when neither the run nor the heap holds a live
/// entry. It sorts after every real key, since no event gets seq
/// `u64::MAX`.
const NO_KEY: Key = (SimTime::MAX, u64::MAX);

/// A pending event. Its id is `EventId(seq)`.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> Key {
        (self.time, self.seq)
    }
}

// Ordering for the min-heap and the run's sort: by `key`.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Compaction is skipped below this many slots (heap plus sorted run):
/// scanning a few dozen entries is cheaper than bookkeeping about them.
const COMPACT_MIN_SLOTS: usize = 64;

/// Whether bit `seq` is set in the liveness bitset `live`.
#[inline]
fn bit_is_set(live: &[u64], seq: u64) -> bool {
    let idx = seq as usize;
    live.get(idx >> 6)
        .is_some_and(|w| w & (1 << (idx & 63)) != 0)
}

/// A deterministic pending-event set.
///
/// Events are `(time, payload)` pairs; simultaneous events pop in the order
/// they were scheduled. An event scheduled with
/// [`schedule_at`](Self::schedule_at) can be cancelled by its [`EventId`]
/// until it has been popped; one scheduled with
/// [`schedule_uncancellable_at`](Self::schedule_uncancellable_at) cannot.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Cancellable events scheduled before the first pop. In scheduling
    /// order until `run_sorted` is set; then in descending `(time, seq)`
    /// order, so the earliest event leaves by `Vec::pop`.
    run: Vec<Entry<E>>,
    /// Set by the first `pop`, which sorts `run`; from then on new
    /// cancellable events go to `heap`.
    run_sorted: bool,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Uncancellable events, in descending `(time, seq)` order.
    lane: Vec<Entry<E>>,
    /// Key of the earliest live entry across `run` and `heap` (`NO_KEY`
    /// if there is none), or `None` when it must be looked up again.
    /// Only meaningful once the run is sealed.
    head: Option<Key>,
    /// Liveness bitset indexed by sequence number (= the id's value),
    /// covering the run and the heap. The single source of truth for
    /// their liveness: an entry there whose bit is clear is dead. A
    /// bitset (not a tree set) so that scheduling and cancellation never
    /// allocate in steady state: [`reset`](Self::reset) zeroes the words
    /// in place and the backing storage is reused across runs.
    live: Vec<u64>,
    /// Number of set bits in `live`.
    live_count: usize,
    now: SimTime,
    /// The next event's seq; also the number of events ever scheduled
    /// since the last reset.
    next_seq: u64,
    /// High-water mark of live pending events since the last reset.
    depth_hwm: usize,
    /// Debug-mode pop-monotonicity auditor (zero-sized in release).
    audit: crate::audit::PopAudit,
    /// Structured event recorder; its queue hooks record only under the
    /// `trace` feature of `pckpt-simobs`.
    rec: Recorder,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at t = 0.
    pub fn new() -> Self {
        Self {
            run: Vec::new(),
            run_sorted: false,
            heap: BinaryHeap::new(),
            lane: Vec::new(),
            head: None,
            live: Vec::new(),
            live_count: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            depth_hwm: 0,
            audit: crate::audit::PopAudit::default(),
            rec: Recorder::disabled(),
        }
    }

    /// Clears the queue back to its t = 0 state while retaining all
    /// allocated storage (heap, sorted-run and lane slots and liveness
    /// words), so a recycled queue schedules without heap allocation until
    /// it outgrows the largest run it has hosted. The next cancellable
    /// events scheduled go to the sorted run again.
    pub fn reset(&mut self) {
        self.run.clear();
        self.run_sorted = false;
        self.heap.clear();
        self.lane.clear();
        self.head = None;
        self.live.fill(0);
        self.live_count = 0;
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.depth_hwm = 0;
        self.audit.reset();
        // The recorder is deliberately kept: whoever installed it owns
        // its lifecycle (see `Recorder::clear`/`take`).
    }

    /// Clears the liveness bit for `seq`; `true` if it was set.
    #[inline]
    fn clear_live(&mut self, seq: u64) -> bool {
        let idx = seq as usize;
        if let Some(w) = self.live.get_mut(idx >> 6) {
            let bit = 1u64 << (idx & 63);
            if *w & bit != 0 {
                *w &= !bit;
                self.live_count -= 1;
                return true;
            }
        }
        false
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Takes the next seq for an event scheduled at `at`.
    ///
    /// Panics if `at` is in the past — an event scheduled behind the clock
    /// is always a model bug, and silently reordering it would corrupt
    /// causality.
    #[inline]
    fn take_seq(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({at} < now {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Bookkeeping shared by both scheduling calls once the event is
    /// stored: the depth mark and the recorder.
    #[inline]
    fn note_scheduled(&mut self, at: SimTime, seq: u64) {
        self.depth_hwm = self.depth_hwm.max(self.len());
        self.rec.on_sched(at.as_nanos(), seq);
    }

    /// Schedules `payload` at absolute time `at`; the returned id can
    /// [`cancel`](Self::cancel) it until it pops.
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.take_seq(at);
        let entry = Entry {
            time: at,
            seq,
            payload,
        };
        if self.run_sorted {
            self.heap.push(Reverse(entry));
        } else {
            self.run.push(entry);
        }
        let word = (seq as usize) >> 6;
        if word >= self.live.len() {
            self.live.resize(word + 1, 0);
        }
        self.live[word] |= 1 << (seq & 63);
        self.live_count += 1;
        self.head = None;
        self.note_scheduled(at, seq);
        EventId(seq)
    }

    /// Schedules `payload` after a relative delay; see
    /// [`schedule_at`](Self::schedule_at).
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, payload)
    }

    /// Schedules `payload` at absolute time `at` for good: no id is
    /// returned, so nothing can cancel it. It pops exactly where a
    /// [`schedule_at`](Self::schedule_at) event would, but skips the
    /// liveness bookkeeping (see the module docs).
    ///
    /// Panics if `at` is in the past.
    #[inline]
    pub fn schedule_uncancellable_at(&mut self, at: SimTime, payload: E) {
        let seq = self.take_seq(at);
        // Descending order; the new seq is the largest, so the new entry
        // goes before every entry at the same time.
        let pos = self.lane.partition_point(|e| e.time > at);
        self.lane.insert(
            pos,
            Entry {
                time: at,
                seq,
                payload,
            },
        );
        self.note_scheduled(at, seq);
    }

    /// Schedules `payload` after a relative delay; see
    /// [`schedule_uncancellable_at`](Self::schedule_uncancellable_at).
    #[inline]
    pub fn schedule_uncancellable_in(&mut self, delay: SimDuration, payload: E) {
        let at = self.now + delay;
        self.schedule_uncancellable_at(at, payload);
    }

    /// Cancels a scheduled event. Returns `true` if the event was still
    /// pending (and is now guaranteed never to fire), `false` if it had
    /// already fired or been cancelled. O(1).
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Already-popped and never-issued ids have a clear (or absent)
        // liveness bit, so they can't re-tombstone anything.
        let was_pending = self.clear_live(id.0);
        if was_pending {
            self.head = None;
            self.rec.on_cancel(self.now.as_nanos(), id.0);
            self.maybe_compact();
        }
        was_pending
    }

    /// Drops dead entries from the heap and the sorted run wholesale once
    /// they outnumber live ones. `retain` keeps the run's order, sorted
    /// or not.
    fn maybe_compact(&mut self) {
        let slots = self.heap_slots();
        if slots > COMPACT_MIN_SLOTS && slots >= 2 * self.live_count {
            let live = &self.live;
            self.heap.retain(|Reverse(e)| bit_is_set(live, e.seq));
            self.run.retain(|e| bit_is_set(live, e.seq));
            crate::audit::check_compaction(self.heap_slots(), self.live_count);
        }
    }

    /// Sorts the run on the first pop; a no-op afterwards.
    #[inline]
    fn seal_run(&mut self) {
        if !self.run_sorted {
            self.run_sorted = true;
            // Descending, so the earliest entry is last. Keys are unique
            // (`seq` is), so the unstable in-place sort is deterministic.
            self.run.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Removes the earlier of the run's and the heap's fronts, live or
    /// dead.
    #[inline]
    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let from_run = match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => r < h,
            (r, _) => r.is_some(),
        };
        if from_run {
            self.run.pop()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// Removes the earliest live entry of the run and the heap, dropping
    /// dead ones on the way, and clears its bit.
    #[inline]
    fn pop_cancellable(&mut self) -> Option<Entry<E>> {
        self.head = None;
        loop {
            let entry = self.pop_entry()?;
            if self.clear_live(entry.seq) {
                return Some(entry);
            }
            // A dead entry: cancelled earlier.
        }
    }

    /// The cached key of the earliest live entry of the run and the heap,
    /// looked up again if stale.
    #[inline]
    fn head_key(&mut self) -> Key {
        match self.head {
            Some(key) => key,
            None => self.refresh_head(),
        }
    }

    /// Looks the head key up, dropping dead fronts met on the way, and
    /// caches it. Out of line: a model that schedules mostly through the
    /// lane comes here only after a pop from the run or the heap.
    #[inline(never)]
    fn refresh_head(&mut self) -> Key {
        let key = loop {
            let front = match (self.run.last(), self.heap.peek()) {
                (Some(r), Some(Reverse(h))) => r.key().min(h.key()),
                (Some(r), None) => r.key(),
                (None, Some(Reverse(h))) => h.key(),
                (None, None) => break NO_KEY,
            };
            if bit_is_set(&self.live, front.1) {
                break front;
            }
            self.pop_entry();
        };
        self.head = Some(key);
        key
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.seal_run();
        // With the lane empty there is nothing to merge: the run/heap
        // head pops without a look at the cache.
        let lane_first = match self.lane.last().map(Entry::key) {
            Some(key) => key < self.head_key(),
            None => false,
        };
        let entry = if lane_first {
            self.lane.pop()
        } else {
            self.pop_cancellable()
        }?;
        debug_assert!(entry.time >= self.now, "queue returned a past event");
        self.audit.observe_pop(entry.time, entry.seq);
        self.now = entry.time;
        self.rec.on_pop(entry.time.as_nanos(), entry.seq);
        Some((entry.time, EventId(entry.seq), entry.payload))
    }

    /// Number of pending events: live (non-cancelled) ones in the run and
    /// the heap, plus the lane.
    pub fn len(&self) -> usize {
        self.live_count + self.lane.len()
    }

    /// True if no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled since the last reset, by either
    /// call (monotone; for metrics).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Slots currently held by the heap and the sorted run together,
    /// live or dead (for memory diagnostics and the compaction
    /// regression test). The lane is not counted: it holds no dead
    /// entries.
    pub fn heap_slots(&self) -> usize {
        self.heap.len() + self.run.len()
    }

    /// High-water mark of pending events since the last reset.
    pub fn depth_hwm(&self) -> usize {
        self.depth_hwm
    }

    /// Installs a structured-event recorder: every schedule, cancel and
    /// pop from here on is reported to it. Without the `trace` feature
    /// those hooks are empty and the calls compile away.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(secs(3.0), "c");
        q.schedule_at(secs(1.0), "a");
        q.schedule_at(secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), secs(3.0));
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(secs(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(2.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), secs(2.0));
        q.schedule_in(SimDuration::from_secs(1.0), ());
        let (t, _, _) = q.pop().unwrap();
        assert_eq!(t, secs(3.0));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(secs(2.0), ());
        q.pop().unwrap();
        q.schedule_at(secs(1.0), ());
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(secs(1.0), "a");
        q.schedule_at(secs(2.0), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        let (_, _, p) = q.pop().unwrap();
        assert_eq!(p, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_is_idempotent_and_rejects_fired_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(secs(1.0), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel must report failure");
        let b = q.schedule_at(secs(2.0), ());
        q.pop().unwrap();
        assert!(!q.cancel(b), "cannot cancel an event that already fired");
    }

    #[test]
    fn cancel_unknown_id_is_safe() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(12345)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..5).map(|i| q.schedule_at(secs(i as f64 + 1.0), i)).collect();
        assert_eq!(q.len(), 5);
        q.cancel(ids[1]);
        q.cancel(ids[3]);
        assert_eq!(q.len(), 3);
        let survivors: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(survivors, vec![0, 2, 4]);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 5);
    }

    #[test]
    fn cancel_after_pop_does_not_tombstone_future_events() {
        // Regression: the old implementation inserted a tombstone for any
        // id that looked pending; a cancel racing a pop must not poison
        // the set or miscount len().
        let mut q = EventQueue::new();
        let a = q.schedule_at(secs(1.0), "a");
        q.schedule_at(secs(2.0), "b");
        let (_, popped, _) = q.pop().unwrap();
        assert_eq!(popped, a);
        assert!(!q.cancel(a), "popped event is not cancellable");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().2, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn reset_recycles_storage_and_restarts_clock() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(secs(1.0), 1);
        q.schedule_at(secs(2.0), 2);
        q.cancel(a);
        q.pop().unwrap();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(q.heap_slots(), 0);
        // A recycled queue behaves exactly like a fresh one: ids restart
        // from zero, the clock from t = 0, FIFO ties still hold.
        let b = q.schedule_at(secs(5.0), 7);
        q.schedule_at(secs(5.0), 8);
        assert_eq!(q.len(), 2);
        let (t, id, p) = q.pop().unwrap();
        assert_eq!((t, id, p), (secs(5.0), b, 7));
        assert_eq!(q.pop().unwrap().2, 8);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reset_after_heavy_churn_leaves_no_ghosts() {
        let mut q = EventQueue::new();
        for round in 0..50 {
            let ids: Vec<_> =
                (0..40).map(|i| q.schedule_at(secs((round * 40 + i) as f64 + 1.0), i)).collect();
            for id in ids.iter().skip(1) {
                q.cancel(*id);
            }
        }
        q.reset();
        // Nothing from before the reset may surface.
        assert!(q.is_empty());
        q.schedule_at(secs(1.0), 99);
        assert_eq!(q.pop().unwrap().2, 99);
        assert!(q.pop().is_none());
    }

    #[test]
    fn depth_hwm_tracks_peak_and_resets() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_hwm(), 0);
        let ids: Vec<_> = (0..4).map(|i| q.schedule_at(secs(i as f64 + 1.0), i)).collect();
        assert_eq!(q.depth_hwm(), 4);
        q.cancel(ids[0]);
        q.pop().unwrap();
        // Draining does not lower the mark...
        assert_eq!(q.depth_hwm(), 4);
        // ...and re-growing past it raises it.
        for i in 0..5 {
            q.schedule_at(secs(10.0 + i as f64), 100 + i);
        }
        assert_eq!(q.depth_hwm(), 7);
        q.reset();
        assert_eq!(q.depth_hwm(), 0);
    }

    #[test]
    fn head_cache_follows_schedule_at_and_cancel() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(secs(2.0), "a");
        q.schedule_at(secs(4.0), "b");
        q.schedule_uncancellable_at(secs(1.0), "l1");
        q.schedule_uncancellable_at(secs(3.0), "l3");
        // This lane pop caches `a` as the run/heap head...
        assert_eq!(q.pop().unwrap().2, "l1");
        // ...which the cancel must forget, or `b` would pop ahead of `l3`.
        assert!(q.cancel(a));
        assert_eq!(q.pop().unwrap().2, "l3");
        // The cache now names `b`; an earlier `schedule_at` must win.
        q.schedule_at(secs(3.5), "c");
        q.schedule_uncancellable_at(secs(3.7), "l37");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["c", "l37", "b"]);
    }

    #[test]
    fn heavy_cancellation_keeps_heap_bounded() {
        // Regression for the tombstone leak: schedule/cancel churn with a
        // small live set must not grow the heap with dead entries.
        let mut q = EventQueue::new();
        let keep: Vec<_> = (0..10).map(|i| q.schedule_at(secs(1e6 + i as f64), i)).collect();
        for round in 0..1_000 {
            let ids: Vec<_> = (0..100)
                .map(|i| q.schedule_at(secs(10.0 + (round * 100 + i) as f64), i))
                .collect();
            for id in ids {
                assert!(q.cancel(id));
            }
            assert!(
                q.heap_slots() <= 2 * q.len() + COMPACT_MIN_SLOTS + 100,
                "heap grew to {} slots with {} live events",
                q.heap_slots(),
                q.len()
            );
        }
        assert_eq!(q.len(), keep.len());
        // The survivors still pop in order.
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }
}
