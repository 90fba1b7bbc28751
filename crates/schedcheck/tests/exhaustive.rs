//! Bounded-exhaustive acceptance runs for the grid-pool protocol model.
//!
//! These are the checks the `ResultSlab` invariant comments in
//! `crates/core/src/runner.rs` point at: every interleaving of three
//! workers plus the fold, under the real protocol of the one pool
//! function `run_pool`, upholds `slab-claim-partition` and
//! `slab-scope-join`, and a deliberately broken slab is caught. An
//! adaptive sweep calls `run_pool` once per batch, so its batches are
//! sequential rounds of this same claim/put/join protocol. The
//! three-worker run must cover at least a thousand schedules so the
//! claim is about genuine interleaving coverage, not a handful of lucky
//! orders.

use schedcheck::explore;
use schedcheck::model::{Bug, Config};

#[test]
fn three_workers_exhaustive_upholds_slab_invariants() {
    let report = explore(&Config::correct(3, 3, 1));
    assert!(!report.truncated, "run must be exhaustive: {report:?}");
    assert!(
        report.schedules >= 1000,
        "need real interleaving coverage, got {} schedules",
        report.schedules
    );
    assert!(report.holds(), "{report:?}");
}

#[test]
fn three_workers_chunked_claims_hold() {
    // chunk=2 over 4 items: workers race for two chunks, one worker is
    // always left empty-handed — the CAS-failure retry path is covered.
    let report = explore(&Config::correct(3, 4, 2));
    assert!(!report.truncated && report.holds(), "{report:?}");
    assert!(report.schedules >= 1000, "got {}", report.schedules);
}

#[test]
fn broken_slab_put_without_claim_is_caught_with_three_workers() {
    let report = explore(&Config {
        bug: Bug::PutWithoutClaim,
        ..Config::correct(3, 3, 1)
    });
    assert!(!report.truncated, "{report:?}");
    assert!(
        report.violations.iter().any(|v| v.contains("double-put")),
        "rogue put must collide with the legitimate owner: {report:?}"
    );
    assert!(!report.holds());
}

#[test]
fn broken_join_is_caught_with_three_workers() {
    let report = explore(&Config {
        bug: Bug::NoJoin,
        ..Config::correct(3, 2, 1)
    });
    assert!(!report.truncated, "{report:?}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("read-before-put")),
        "{report:?}"
    );
    assert!(!report.holds());
}
