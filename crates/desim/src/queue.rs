//! The pending-event set: a deterministic priority queue.
//!
//! Events live in one of two places, chosen by whether the queue has been
//! read yet:
//!
//! - **The sorted run.** Everything [`schedule_at`](EventQueue::schedule_at)
//!   puts on a fresh or [`reset`](EventQueue::reset) queue, before its
//!   first [`pop`](EventQueue::pop) or [`claim`](EventQueue::claim), is
//!   appended to a `Vec`. That batch is what a model's `init` schedules:
//!   in the C/R simulation, the whole failure trace, its predictions and
//!   false positives, most of which lie past the job's end and never
//!   pop. The first pop or claim seals the run: it sorts the `Vec` once,
//!   in place, by the `(time, seq)` key, and from then on the run is
//!   consumed from its earliest end.
//! - **The heap.** Everything scheduled after that goes to a binary
//!   min-heap.
//!
//! Every event takes its `seq` (and its [`EventId`]) from one counter,
//! and `pop` takes the smaller `(time, seq)` of the two heads, so the pop
//! order, the ids, `len`, `depth_hwm`, `scheduled_total` and every
//! recorder call are exactly those of one heap holding everything.
//!
//! Nothing is cancelled: an event the model no longer wants pops and is
//! dropped by its handler, so every entry is live and the head is two
//! peeks and one comparison.
//!
//! An instant a model keeps out of the queue is armed with
//! [`mark`](EventQueue::mark), the seq the next event would take, and
//! taken by [`claim`](EventQueue::claim) iff its `(time, mark)` is at or
//! before the next pop's `(time, seq)`, where an event scheduled at the
//! arming would have popped. The claim moves the clock to an instant
//! that precedes every queued event, so the pop order stays as it was;
//! the instant takes no seq and is not recorded.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pckpt_simobs::Recorder;

use crate::time::{SimDuration, SimTime};

/// Opaque handle naming a scheduled event: its place in the scheduling
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// The pop-order key: earliest time first, FIFO within a timestamp.
type Key = (SimTime, u64);

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

/// A deterministic pending-event set.
///
/// Events are `(time, payload)` pairs; simultaneous events pop in the order
/// they were scheduled.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events scheduled before the first pop or claim. In scheduling
    /// order until `run_sorted` is set; then in descending `(time, seq)`
    /// order, so the earliest event leaves by `Vec::pop`.
    run: Vec<Entry<E>>,
    /// Set by the first `pop` or `claim`, which sorts `run`; from then on
    /// new events go to `heap`.
    run_sorted: bool,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    /// The next event's seq; also the number of events ever scheduled
    /// since the last reset.
    next_seq: u64,
    /// High-water mark of pending events since the last reset.
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
            now: SimTime::ZERO,
            next_seq: 0,
            depth_hwm: 0,
            audit: crate::audit::PopAudit::default(),
            rec: Recorder::disabled(),
        }
    }

    /// Clears the queue back to its t = 0 state while retaining the
    /// storage of the heap and the sorted run, so a recycled queue
    /// schedules without heap allocation until it outgrows the largest
    /// run it has hosted. The next events scheduled go to the sorted run
    /// again.
    pub fn reset(&mut self) {
        self.run.clear();
        self.run_sorted = false;
        self.heap.clear();
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.depth_hwm = 0;
        self.audit.reset();
        // The recorder is deliberately kept: whoever installed it owns
        // its lifecycle (see `Recorder::clear`/`take`).
    }

    /// Current simulation time (the timestamp of the last popped event
    /// or claimed instant).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Panics if `at` is in the past — an event scheduled behind the clock
    /// is always a model bug, and silently reordering it would corrupt
    /// causality.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({at} < now {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
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
        self.depth_hwm = self.depth_hwm.max(self.len());
        self.rec.on_sched(at.as_nanos(), seq);
        EventId(seq)
    }

    /// Schedules `payload` after a relative delay; see
    /// [`schedule_at`](Self::schedule_at).
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, payload)
    }

    /// Sorts the run on the first pop or claim; a no-op afterwards.
    #[inline]
    fn seal_run(&mut self) {
        if !self.run_sorted {
            self.run_sorted = true;
            // Descending, so the earliest entry is last. Keys are unique
            // (`seq` is), so the unstable in-place sort is deterministic.
            self.run.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Whether the run's front comes before the heap's (`false` when the
    /// run is empty).
    #[inline]
    fn run_first(&self) -> bool {
        match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => r < h,
            (r, _) => r.is_some(),
        }
    }

    /// The tie mark of an instant armed now: the seq the next scheduled
    /// event takes. See [`claim`](Self::claim).
    #[inline]
    pub fn mark(&self) -> u64 {
        self.next_seq
    }

    /// Claims the instant `at` armed with `mark`: `true`, and the clock
    /// moved to `at`, iff `(at, mark)` is at or before the `(time, seq)`
    /// of the event [`pop`](Self::pop) would return next; `false` leaves
    /// the clock. Like a pop, it seals the sorted run.
    ///
    /// Panics if `at` is in the past.
    #[inline]
    pub fn claim(&mut self, at: SimTime, mark: u64) -> bool {
        assert!(
            at >= self.now,
            "cannot claim an instant in the past ({at} < now {})",
            self.now
        );
        self.seal_run();
        let head = if self.run_first() {
            self.run.last()
        } else {
            self.heap.peek().map(|Reverse(e)| e)
        };
        let first = head.is_none_or(|e| (at, mark) <= e.key());
        if first {
            self.now = at;
        }
        first
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is exhausted.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.seal_run();
        let entry = if self.run_first() {
            self.run.pop()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        }?;
        debug_assert!(entry.time >= self.now, "queue returned a past event");
        self.audit.observe_pop(entry.time, entry.seq);
        self.now = entry.time;
        self.rec.on_pop(entry.time.as_nanos(), entry.seq);
        Some((entry.time, EventId(entry.seq), entry.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True if no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled since the last reset (monotone;
    /// for metrics).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of pending events since the last reset.
    pub fn depth_hwm(&self) -> usize {
        self.depth_hwm
    }

    /// Installs a structured-event recorder: every schedule and pop from
    /// here on is reported to it. Without the `trace` feature those hooks
    /// are empty and the calls compile away.
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
    fn reset_recycles_storage_and_restarts_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(secs(1.0), 1);
        q.schedule_at(secs(2.0), 2);
        q.pop().unwrap();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.scheduled_total(), 0);
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
            for i in 0..40 {
                q.schedule_at(secs((round * 40 + i) as f64 + 1.0), i);
            }
            q.pop().unwrap();
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
        for i in 0..4 {
            q.schedule_at(secs(i as f64 + 1.0), i);
        }
        assert_eq!(q.depth_hwm(), 4);
        q.pop().unwrap();
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
    fn claim_takes_an_instant_where_an_event_armed_with_it_would_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.mark(), 0);
        q.schedule_at(secs(2.0), "a");
        let mark = q.mark();
        q.schedule_at(secs(4.0), "b");
        // The tie is the mark's: `a` was scheduled before the arming, so
        // it pops first at 2 s, and the claim is refused, clock unmoved.
        assert!(!q.claim(secs(2.0), mark));
        assert_eq!(q.now(), SimTime::ZERO, "a refused claim leaves the clock");
        // The refusal sealed the run: this event goes to the heap and
        // still pops in order, ahead of an instant armed before it.
        q.schedule_at(secs(1.0), "c");
        assert!(!q.claim(secs(1.0), q.mark()));
        assert!(q.claim(secs(1.0), q.mark() - 1), "armed before `c`");
        assert_eq!(q.now(), secs(1.0));
        assert_eq!(q.pop().unwrap().2, "c");
        assert_eq!(q.pop().unwrap().2, "a");
        // The heap's head bounds the claim once the run's is gone: an
        // instant armed after it loses the tie at 3 s, one before wins.
        q.schedule_at(secs(3.0), "d");
        assert!(!q.claim(secs(3.0), q.mark()));
        assert!(!q.claim(secs(3.5), 0));
        assert!(q.claim(secs(3.0), mark));
        assert_eq!(q.now(), secs(3.0));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["d", "b"]);
        // An empty queue refuses nothing.
        assert!(q.claim(SimTime::MAX, q.mark()));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn claiming_a_past_instant_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(secs(2.0), ());
        q.pop().unwrap();
        q.claim(secs(1.0), q.mark());
    }
}
