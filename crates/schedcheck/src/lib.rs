//! schedcheck — a small loom-style schedule explorer for the grid
//! pool's lock-free core.
//!
//! `crates/core/src/runner.rs` runs Monte-Carlo campaigns on one
//! work-stealing pool function, `run_pool`, whose soundness rests on two
//! invariants declared on `ResultSlab`
//! (`simlint: invariant(slab-claim-partition)` and
//! `invariant(slab-scope-join)`): the chunk-claim CAS loop hands every
//! item to exactly one worker, and results are read only after
//! `thread::scope` joins every worker. Every sweep goes through that
//! function — a fixed-run sweep as one call, each adaptive batch as one
//! call apiece — so adaptive batches are sequential rounds of the same
//! claim/put/join protocol, each with a fresh counter and slab. Those invariants were argued in
//! prose; this crate checks them by exhaustive interleaving of an
//! explicit operation model (the registry is unreachable, so no loom —
//! the explorer is hand-rolled, like the workspace's rand/proptest
//! shims).
//!
//! The model ([`model`]) reduces each thread to a state machine over
//! atomic operations — `Load` the claim counter, `Cas` it forward,
//! `Put` a slab slot, `Read` a slot during the fold — and the explorer
//! ([`explore`]) runs a depth-first search over every choice of which
//! runnable thread performs its next operation. Each maximal
//! interleaving is one *schedule*; along every step the model checks
//! for double puts and reads of unwritten slots, and at every terminal
//! state it checks completeness and folds the slab into a digest. A
//! correct protocol yields zero violations and a **singleton digest
//! set** — the fold result is independent of both the schedule and the
//! fold traversal order.
//!
//! Seeded-bug variants ([`model::Bug`]) deliberately break the
//! protocol (put without a claim, a torn load+store claim instead of a
//! CAS, folding without the join barrier) and the regression tests
//! assert the explorer catches each one — proving the checker has the
//! teeth the invariant comments claim.

pub mod model;

use model::{Config, State};
use std::collections::{BTreeSet, HashMap};

/// Everything one exploration discovered.
#[derive(Debug)]
pub struct Report {
    /// Number of maximal interleavings (schedules) explored.
    pub schedules: u64,
    /// True if [`Config::max_schedules`] stopped the search early; an
    /// exhaustive claim requires this to be false.
    pub truncated: bool,
    /// Distinct invariant violations observed across all schedules.
    pub violations: Vec<String>,
    /// Distinct terminal fold digests across all schedules. Length 1
    /// means the outcome is schedule-independent.
    pub digests: Vec<u64>,
}

impl Report {
    /// True when every schedule completed without a violation and all
    /// of them agreed on one fold digest.
    pub fn holds(&self) -> bool {
        !self.truncated && self.violations.is_empty() && self.digests.len() == 1
    }
}

struct Search {
    max_schedules: u64,
    schedules: u64,
    truncated: bool,
    violations: BTreeSet<String>,
    digests: BTreeSet<u64>,
    /// State → number of maximal schedules reachable from it. Many
    /// interleavings converge on identical states; merging them keeps
    /// the walk proportional to distinct states while `schedules` still
    /// counts every interleaving (each memo hit credits the full
    /// subtree). HashMap iteration order never matters: it is only a
    /// lookup table, and all reported sets are BTree-ordered.
    memo: HashMap<State, u64>,
}

/// Explores every bounded interleaving of the claim/slab/fold model
/// under `cfg`.
pub fn explore(cfg: &Config) -> Report {
    let mut search = Search {
        max_schedules: cfg.max_schedules,
        schedules: 0,
        truncated: false,
        violations: BTreeSet::new(),
        digests: BTreeSet::new(),
        memo: HashMap::new(),
    };
    dfs(&mut search, State::new(cfg));
    Report {
        schedules: search.schedules,
        truncated: search.truncated,
        violations: search.violations.into_iter().collect(),
        digests: search.digests.into_iter().collect(),
    }
}

/// Walks the schedule DAG below `state`, returning how many maximal
/// schedules it roots. `search.schedules` carries the running total so
/// the `max_schedules` cap can stop the walk mid-way; once `truncated`
/// is set the counts are lower bounds and the report claims nothing.
fn dfs(search: &mut Search, state: State) -> u64 {
    if search.truncated {
        return 0;
    }
    if let Some(&n) = search.memo.get(&state) {
        // Every violation and terminal digest below this state was
        // already recorded on first visit; only the count is re-credited.
        search.schedules = search.schedules.saturating_add(n);
        if search.schedules >= search.max_schedules {
            search.truncated = true;
        }
        return n;
    }
    let runnable = state.runnable();
    let n = if runnable.is_empty() {
        search.schedules += 1;
        if search.schedules >= search.max_schedules {
            search.truncated = true;
        }
        state.check_terminal(&mut search.violations, &mut search.digests);
        1
    } else {
        let mut n: u64 = 0;
        for thread in runnable {
            let mut next = state.clone();
            next.step(thread, &mut search.violations);
            n = n.saturating_add(dfs(search, next));
        }
        n
    };
    if !search.truncated {
        search.memo.insert(state, n);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Bug, Config};

    #[test]
    fn two_workers_exhaustive_clean() {
        let report = explore(&Config::correct(2, 4, 2));
        assert!(report.holds(), "{report:?}");
        assert!(report.schedules > 1, "more than one interleaving exists");
    }

    #[test]
    fn chunk_sizes_do_not_change_the_digest() {
        let d1 = explore(&Config::correct(2, 4, 1)).digests;
        let d2 = explore(&Config::correct(2, 4, 2)).digests;
        let d4 = explore(&Config::correct(2, 4, 4)).digests;
        assert_eq!(d1, d2);
        assert_eq!(d2, d4);
    }

    #[test]
    fn fold_order_independence() {
        let asc = explore(&Config::correct(2, 3, 1));
        let desc = explore(&Config {
            fold_desc: true,
            ..Config::correct(2, 3, 1)
        });
        assert!(asc.holds() && desc.holds(), "{asc:?}\n{desc:?}");
        assert_eq!(asc.digests, desc.digests, "fold order must not matter");
    }

    #[test]
    fn truncation_is_reported() {
        let report = explore(&Config {
            max_schedules: 10,
            ..Config::correct(3, 3, 1)
        });
        assert!(report.truncated);
        assert!(!report.holds(), "a truncated run can claim nothing");
    }

    #[test]
    fn seeded_put_without_claim_is_caught() {
        let report = explore(&Config {
            bug: Bug::PutWithoutClaim,
            ..Config::correct(2, 2, 1)
        });
        assert!(
            report.violations.iter().any(|v| v.contains("double-put")),
            "{report:?}"
        );
    }

    #[test]
    fn seeded_torn_claim_is_caught() {
        let report = explore(&Config {
            bug: Bug::NonAtomicClaim,
            ..Config::correct(2, 2, 1)
        });
        assert!(
            report.violations.iter().any(|v| v.contains("double-put")),
            "{report:?}"
        );
    }

    #[test]
    fn seeded_missing_join_is_caught() {
        let report = explore(&Config {
            bug: Bug::NoJoin,
            ..Config::correct(1, 1, 1)
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("read-before-put")),
            "{report:?}"
        );
    }
}
