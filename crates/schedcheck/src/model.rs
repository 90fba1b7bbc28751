//! The operation model of the grid pool's claim/slab/fold protocol.
//!
//! One [`State`] holds the shared memory (the chunk-claim counter and
//! the result slab) plus every thread's phase. A *step* is one atomic
//! operation by one thread — exactly the granularity at which the real
//! pool's interleavings differ:
//!
//! * workers run `Load → Cas → Put…Put → Load → …` until the counter
//!   passes the item count (the CAS loop in `run_pool`'s `claim_chunk`,
//!   with `Put` standing in for `ResultSlab::put`);
//! * the fold thread becomes runnable only once every worker is `Done`
//!   — that gate *is* the `thread::scope` join happens-before — and
//!   then reads one slot per step, accumulating the digest.
//!
//! The digest mixes each slot's index into its value and combines with
//! a wrapping sum, so it is sensitive to any wrong/missing value but
//! insensitive to traversal order by construction; what the explorer
//! actually proves is that the slab *contents* are schedule-independent
//! (a torn claim or rogue put changes contents, double-puts and early
//! reads are flagged as they happen).
//!
//! [`Bug`] variants re-introduce real concurrency mistakes, each
//! breaking exactly one modeled guarantee, so the test suite can show
//! the explorer catches them.

use std::collections::BTreeSet;

/// Deliberately broken protocol variants for regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bug {
    /// The protocol as implemented: CAS claim, puts only into claimed
    /// slots, fold after join.
    None,
    /// Worker 0 writes slot 0 before claiming anything — violates the
    /// claim-partition invariant (`ResultSlab::put` without owning the
    /// item).
    PutWithoutClaim,
    /// The claim is a separate load + unconditional store instead of a
    /// CAS, so two workers can tear the claim and own the same chunk.
    NonAtomicClaim,
    /// The fold does not wait for workers — drops the scope-join
    /// happens-before, so it can read slots that were never written.
    NoJoin,
}

/// One exploration's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker thread count (the fold adds one more thread).
    pub workers: usize,
    /// Items to claim and put (slab size).
    pub items: u32,
    /// Items claimed per CAS.
    pub chunk: u32,
    /// Which protocol variant to run.
    pub bug: Bug,
    /// Fold reads slots in descending order instead of ascending.
    pub fold_desc: bool,
    /// Search cap; an exhaustive run must stay below it (the report's
    /// `truncated` flag says whether it did).
    pub max_schedules: u64,
}

impl Config {
    /// The correct protocol at the given size, with a cap high enough
    /// for the bounded-exhaustive test configurations.
    pub fn correct(workers: usize, items: u32, chunk: u32) -> Config {
        Config {
            workers,
            items,
            chunk,
            bug: Bug::None,
            fold_desc: false,
            max_schedules: 1_000_000_000_000,
        }
    }
}

/// What a worker does on its next step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Phase {
    /// `PutWithoutClaim` only: write slot 0 without owning it.
    Rogue,
    /// Read the claim counter.
    Load,
    /// Try to advance the counter from the loaded value (one CAS; under
    /// `NonAtomicClaim`, an unconditional store).
    Cas { cur: u32 },
    /// Write slots `[idx, end)`, one per step.
    Put { idx: u32, end: u32 },
    /// Finished; never runnable again.
    Done,
}

/// The fold thread's progress: next slot ordinal to read (not an index
/// — order depends on `fold_desc`), or done.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Fold {
    Read { ordinal: u32, digest: u64 },
    Done { digest: u64 },
}

/// Shared memory plus every thread's phase — one node of the schedule
/// DAG. Cloned at each branch point of the DFS; hashed so the explorer
/// can merge the many interleavings that converge on the same state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    cfg_items: u32,
    cfg_chunk: u32,
    cfg_bug: Bug,
    cfg_fold_desc: bool,
    /// The chunk-claim counter (`AtomicUsize` in the real pool).
    next: u32,
    /// The result slab; `None` = never written.
    slots: Vec<Option<u64>>,
    /// Writes per slot — the double-put detector.
    puts: Vec<u8>,
    workers: Vec<Phase>,
    fold: Fold,
}

/// What the real computation would store for item `i` (any injective
/// function works; index-dependent so misrouted puts change the digest).
fn payload(i: u32) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) | 1
}

fn mix(i: u32, v: u64) -> u64 {
    v.wrapping_mul((i as u64).wrapping_add(0x1000_0000_1b3))
}

impl State {
    /// The initial state: every worker at its first operation, the fold
    /// waiting, the slab empty.
    pub fn new(cfg: &Config) -> State {
        let first = if cfg.bug == Bug::PutWithoutClaim {
            Phase::Rogue
        } else {
            Phase::Load
        };
        let mut workers = vec![Phase::Load; cfg.workers];
        if let Some(w0) = workers.first_mut() {
            *w0 = first;
        }
        State {
            cfg_items: cfg.items,
            cfg_chunk: cfg.chunk,
            cfg_bug: cfg.bug,
            cfg_fold_desc: cfg.fold_desc,
            next: 0,
            slots: vec![None; cfg.items as usize],
            puts: vec![0; cfg.items as usize],
            workers,
            fold: Fold::Read {
                ordinal: 0,
                digest: 0,
            },
        }
    }

    /// Thread ids that can take a step: worker `i` is thread `i`; the
    /// fold is thread `workers.len()` and — absent the `NoJoin` bug —
    /// becomes runnable only when every worker is done (the scope-join
    /// happens-before edge).
    pub fn runnable(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Phase::Done)
            .map(|(i, _)| i)
            .collect();
        let join_passed =
            self.cfg_bug == Bug::NoJoin || self.workers.iter().all(|p| *p == Phase::Done);
        if join_passed && matches!(self.fold, Fold::Read { .. }) {
            ids.push(self.workers.len());
        }
        ids
    }

    /// Performs `thread`'s next atomic operation, recording any
    /// violation it commits.
    pub fn step(&mut self, thread: usize, violations: &mut BTreeSet<String>) {
        if thread == self.workers.len() {
            self.step_fold(violations);
            return;
        }
        let phase = self.workers[thread].clone();
        self.workers[thread] = match phase {
            Phase::Rogue => {
                self.write_slot(0, thread, violations);
                Phase::Load
            }
            Phase::Load => {
                if self.next >= self.cfg_items {
                    Phase::Done
                } else {
                    Phase::Cas { cur: self.next }
                }
            }
            Phase::Cas { cur } => {
                let claimed = if self.cfg_bug == Bug::NonAtomicClaim {
                    // Torn claim: store unconditionally, keep the range
                    // computed from the stale load.
                    self.next = cur + self.cfg_chunk;
                    true
                } else {
                    // One atomic compare-and-swap.
                    if self.next == cur {
                        self.next = cur + self.cfg_chunk;
                        true
                    } else {
                        false
                    }
                };
                if claimed {
                    Phase::Put {
                        idx: cur,
                        end: (cur + self.cfg_chunk).min(self.cfg_items),
                    }
                } else {
                    Phase::Load
                }
            }
            Phase::Put { idx, end } => {
                self.write_slot(idx, thread, violations);
                if idx + 1 < end {
                    Phase::Put { idx: idx + 1, end }
                } else {
                    Phase::Load
                }
            }
            Phase::Done => Phase::Done,
        };
    }

    fn write_slot(&mut self, idx: u32, thread: usize, violations: &mut BTreeSet<String>) {
        let i = idx as usize;
        if i >= self.slots.len() {
            violations.insert(format!("out-of-range put of slot {idx}"));
            return;
        }
        self.puts[i] += 1;
        if self.puts[i] > 1 {
            violations.insert(format!(
                "double-put: slot {idx} written {} times (last by worker {thread})",
                self.puts[i]
            ));
        }
        self.slots[i] = Some(payload(idx));
    }

    fn step_fold(&mut self, violations: &mut BTreeSet<String>) {
        let Fold::Read { ordinal, digest } = self.fold.clone() else {
            return;
        };
        let idx = if self.cfg_fold_desc {
            self.cfg_items - 1 - ordinal
        } else {
            ordinal
        };
        let v = match self.slots[idx as usize] {
            Some(v) => v,
            None => {
                violations.insert(format!("read-before-put: fold read empty slot {idx}"));
                0
            }
        };
        let digest = digest.wrapping_add(mix(idx, v));
        self.fold = if ordinal + 1 < self.cfg_items {
            Fold::Read {
                ordinal: ordinal + 1,
                digest,
            }
        } else {
            Fold::Done { digest }
        };
    }

    /// Terminal-state checks: the schedule is over (nothing runnable),
    /// so every slot must be filled exactly once and the fold must have
    /// finished; its digest joins the outcome set.
    pub fn check_terminal(
        &self,
        violations: &mut BTreeSet<String>,
        digests: &mut BTreeSet<u64>,
    ) {
        for (i, s) in self.slots.iter().enumerate() {
            if s.is_none() {
                violations.insert(format!("lost item: slot {i} never written"));
            }
        }
        match self.fold {
            Fold::Done { digest } => {
                digests.insert(digest);
            }
            Fold::Read { .. } => {
                violations.insert("fold never completed".to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_runs_to_completion() {
        let cfg = Config::correct(1, 3, 2);
        let mut state = State::new(&cfg);
        let mut violations = BTreeSet::new();
        let mut digests = BTreeSet::new();
        let mut steps = 0;
        loop {
            let runnable = state.runnable();
            let Some(&t) = runnable.first() else { break };
            state.step(t, &mut violations);
            steps += 1;
            assert!(steps < 100, "single-thread run must terminate");
        }
        state.check_terminal(&mut violations, &mut digests);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(digests.len(), 1);
    }

    #[test]
    fn fold_waits_for_workers() {
        let cfg = Config::correct(2, 2, 1);
        let state = State::new(&cfg);
        assert_eq!(
            state.runnable(),
            vec![0, 1],
            "fold (thread 2) must not be runnable before the join"
        );
    }

    #[test]
    fn payload_is_injective_on_small_ranges() {
        let mut seen = BTreeSet::new();
        for i in 0..64 {
            assert!(seen.insert(payload(i)), "payload collision at {i}");
        }
    }
}
