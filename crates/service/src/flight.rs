//! Single-flight admission: concurrent identical cell requests
//! coalesce onto one computation.
//!
//! The table maps cell fingerprints to flight state. `claim` is
//! deliberately **non-blocking**: a request thread first claims every
//! cell it needs (becoming leader for some, follower for others),
//! computes and publishes all the cells it leads, and only *then*
//! waits on the cells other threads lead. Claiming and waiting never
//! interleave per-cell, so two requests can never hold a cell the
//! other is waiting on — the classic A↔B coalescing deadlock cannot
//! form.
//!
//! A leader that errors out (or is dropped unwinding) abandons its
//! claims; waiters observe [`FlightState::Failed`], re-claim, and one
//! of them becomes the new leader. Published folds stay in the table
//! as a bounded most-recent in-memory cache, so repeat requests inside
//! one daemon lifetime skip even the filesystem: a memory hit is an
//! `Arc` clone of the decoded fold, with nothing to decode. The table
//! holds the fold *instead of* its record bytes: nothing reads the
//! bytes again, so keeping both would only cost memory (DESIGN.md
//! §18.2 has the measurement).

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::cellframe::Fold;

/// State of one cell fingerprint in the admission table.
#[derive(Debug, Clone)]
enum FlightState {
    /// A leader thread is computing this cell.
    Running,
    /// The cell's decoded fold is available.
    Done(Arc<Fold>),
    /// The last leader abandoned the cell; a waiter should re-claim.
    Failed,
}

/// Outcome of a non-blocking [`SingleFlight::claim`].
#[derive(Debug)]
pub enum Claim {
    /// Caller owns the computation for this cell and must
    /// [`SingleFlight::publish`] or [`SingleFlight::abandon`] it.
    Leader,
    /// Another thread is computing; call [`SingleFlight::wait`] after
    /// publishing everything the caller leads.
    Pending,
    /// The cell's fold is already in memory.
    Ready(Arc<Fold>),
}

/// The admission table. One per service.
pub struct SingleFlight {
    state: Mutex<Table>,
    cv: Condvar,
}

struct Table {
    entries: BTreeMap<u128, FlightState>,
    /// Insertion order of Done entries, oldest first, for eviction.
    done_order: Vec<u128>,
    /// Maximum Done entries retained in memory.
    mem_max: usize,
}

impl SingleFlight {
    /// Creates a table retaining at most `mem_max` completed cells in
    /// memory (0 disables in-memory retention entirely; coalescing
    /// still works because Running entries are exempt from eviction).
    pub fn new(mem_max: usize) -> Self {
        SingleFlight {
            state: Mutex::new(Table {
                entries: BTreeMap::new(),
                done_order: Vec::new(),
                mem_max,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A non-claiming peek: `Some` only when the cell is already Done
    /// in memory. Never changes table state.
    pub fn peek(&self, fp: u128) -> Option<Arc<Fold>> {
        match self.lock().entries.get(&fp) {
            Some(FlightState::Done(fold)) => Some(Arc::clone(fold)),
            _ => None,
        }
    }

    /// Claims `fp` without blocking. `Failed` entries are taken over:
    /// the caller becomes the new leader.
    pub fn claim(&self, fp: u128) -> Claim {
        let mut table = self.lock();
        match table.entries.get(&fp) {
            Some(FlightState::Done(fold)) => Claim::Ready(Arc::clone(fold)),
            Some(FlightState::Running) => Claim::Pending,
            Some(FlightState::Failed) | None => {
                table.entries.insert(fp, FlightState::Running);
                Claim::Leader
            }
        }
    }

    /// Publishes the fold of a cell the caller leads (or recovered from
    /// cache/journal) and wakes all waiters.
    pub fn publish(&self, fp: u128, fold: Arc<Fold>) {
        let mut table = self.lock();
        let was_done = matches!(table.entries.get(&fp), Some(FlightState::Done(_)));
        table.entries.insert(fp, FlightState::Done(fold));
        if !was_done {
            table.done_order.push(fp);
        }
        table.evict();
        drop(table);
        self.cv.notify_all();
    }

    /// Marks a led cell failed and wakes waiters so one can take over.
    pub fn abandon(&self, fp: u128) {
        let mut table = self.lock();
        if matches!(table.entries.get(&fp), Some(FlightState::Running)) {
            table.entries.insert(fp, FlightState::Failed);
        }
        drop(table);
        self.cv.notify_all();
    }

    /// Blocks until `fp` resolves. Returns the fold on `Done`, or
    /// `None` on `Failed` / entry-evicted — the caller should re-claim
    /// (possibly becoming the new leader).
    pub fn wait(&self, fp: u128) -> Option<Arc<Fold>> {
        let mut table = self.lock();
        loop {
            match table.entries.get(&fp) {
                Some(FlightState::Done(fold)) => return Some(Arc::clone(fold)),
                Some(FlightState::Failed) | None => return None,
                Some(FlightState::Running) => {
                    table = self
                        .cv
                        .wait(table)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

impl Table {
    fn evict(&mut self) {
        while self.done_order.len() > self.mem_max {
            let oldest = self.done_order.remove(0);
            if matches!(self.entries.get(&oldest), Some(FlightState::Done(_))) {
                self.entries.remove(&oldest);
            }
        }
    }
}

/// RAII guard: abandons every claimed-but-unpublished fingerprint if
/// the leader unwinds or errors between claim and publish.
pub struct LeaderGuard<'a> {
    flight: &'a SingleFlight,
    pending: Vec<u128>,
}

impl<'a> LeaderGuard<'a> {
    /// Creates a guard over the fingerprints the caller leads.
    pub fn new(flight: &'a SingleFlight, pending: Vec<u128>) -> Self {
        LeaderGuard { flight, pending }
    }

    /// Records that `fp` was published; it will not be abandoned.
    pub fn published(&mut self, fp: u128) {
        self.pending.retain(|p| *p != fp);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        for fp in self.pending.drain(..) {
            self.flight.abandon(fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pckpt_core::CampaignResult;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fold told apart by its CI alone.
    fn fold(ci: f64) -> Arc<Fold> {
        let campaign = CampaignResult {
            models: Vec::new(),
            aggregates: Vec::new(),
            threads: 0,
        };
        Arc::new((campaign, ci))
    }

    #[test]
    fn coalesces_to_one_leader() {
        let flight = Arc::new(SingleFlight::new(16));
        let computations = Arc::new(AtomicUsize::new(0));
        let fp = 42u128;
        let mut handles = Vec::new();
        for _ in 0..8 {
            let flight = Arc::clone(&flight);
            let computations = Arc::clone(&computations);
            handles.push(std::thread::spawn(move || loop {
                match flight.claim(fp) {
                    Claim::Leader => {
                        computations.fetch_add(1, Ordering::SeqCst);
                        flight.publish(fp, fold(7.0));
                        return 7.0;
                    }
                    Claim::Ready(done) => return done.1,
                    Claim::Pending => {
                        if let Some(done) = flight.wait(fp) {
                            return done.1;
                        }
                        // Failed: loop and re-claim.
                    }
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("thread"), 7.0);
        }
        assert_eq!(computations.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn abandoned_leader_hands_over() {
        let flight = SingleFlight::new(16);
        let fp = 9u128;
        assert!(matches!(flight.claim(fp), Claim::Leader));
        {
            let _guard = LeaderGuard::new(&flight, vec![fp]);
            // Guard dropped without publish → abandon.
        }
        // A new claimant takes over leadership.
        assert!(matches!(flight.claim(fp), Claim::Leader));
        flight.publish(fp, fold(1.0));
        assert!(matches!(flight.claim(fp), Claim::Ready(_)));
    }

    #[test]
    fn done_entries_evict_oldest_first() {
        let flight = SingleFlight::new(2);
        for fp in [1u128, 2, 3] {
            assert!(matches!(flight.claim(fp), Claim::Leader));
            flight.publish(fp, fold(fp as f64));
        }
        // 1 evicted; 2 and 3 retained.
        assert!(matches!(flight.claim(1), Claim::Leader));
        flight.abandon(1);
        assert!(matches!(flight.claim(2), Claim::Ready(_)));
        assert!(matches!(flight.claim(3), Claim::Ready(_)));
    }
}
