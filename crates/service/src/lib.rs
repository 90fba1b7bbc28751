//! # pckpt-service — the campaign service layer
//!
//! A long-running front end for the simulation grid: requests come in
//! as config JSON (over a Unix socket via `pckptd`, or in-process),
//! are canonicalized into the binding-digest normal form
//! ([`pckpt_core::fingerprint`]), and are served through three reuse
//! layers, cheapest first:
//!
//! 1. a **content-addressed cell cache** — computed cells persist as
//!    sealed fold records (each cell's folded result, not its per-run
//!    results) keyed by fingerprint, so replaying a sweep is a read,
//!    not a simulation ([`cache`], [`cellframe`]);
//! 2. **single-flight admission** — concurrent identical requests
//!    coalesce onto one computation ([`flight`]);
//! 3. a **crash-safe sweep journal** — each completed cell is appended
//!    (digest-checked) before publication, so a killed daemon resumes
//!    re-executing only what never finished ([`journal`]).
//!
//! All three lean on one repo-wide invariant: per-cell grid aggregates
//! are **bit-identical** to standalone runs regardless of pool
//! composition. That is what makes a cached fold, a coalesced wait,
//! and a journal replay each indistinguishable — byte for byte — from
//! fresh computation, and it is checked, not assumed: [`grid_digest`]
//! gives every response a campaign digest that cold runs, warm runs,
//! and crash-resumed runs must reproduce exactly.

pub mod cache;
pub mod cellframe;
pub mod flight;
pub mod journal;
pub mod json;
pub mod request;
pub mod server;
pub mod service;

pub use cache::CellStore;
pub use cellframe::{decode_fold_record, encode_fold_record, CellFrame, CellFrameReader, Fold};
pub use flight::{Claim, SingleFlight};
pub use journal::{Journal, SyncPolicy};
pub use request::{parse_request, CampaignRequest, MAX_REQUEST_LANES, MAX_REQUEST_LANE_RUNS};
pub use server::{respond, serve_unix, submit_unix, MAX_CONNECTIONS, MAX_REQUEST_LINE_BYTES};
pub use service::{crash_after, Service, ServiceConfig, ServiceMeta, ServiceOutcome};

use pckpt_core::{Canon, Fingerprint, GridResult};

/// The campaign digest: a fingerprint over every result-bearing field
/// of a grid in input-cell order — labels, per-lane aggregate bits
/// (mean total hours, pooled failure-tolerance ratio, failure counts),
/// attained CIs, and run counts.
///
/// Execution-shape metadata (threads, trace-cache counters) is
/// deliberately excluded: the digest answers "did this sweep produce
/// the same *results*?", the equality the cache, the journal, and the
/// single-flight layer each promise. Cold, warm,
/// coalesced, and crash-resumed executions of one campaign must all
/// report the same digest — the integration tests hold them to it.
pub fn grid_digest(grid: &GridResult) -> Fingerprint {
    let mut canon = Canon::new();
    canon.push_u64(grid.cells.len() as u64);
    canon.push_u64(grid.leads_digest);
    for (i, campaign) in grid.cells.iter().enumerate() {
        canon.push_str(&grid.labels[i]);
        canon.push_u64(grid.cell_runs[i] as u64);
        canon.push_f64(grid.cell_ci_rel[i]);
        canon.push_u64(campaign.aggregates.len() as u64);
        for agg in &campaign.aggregates {
            canon.push_f64(agg.total_hours.mean());
            canon.push_f64(agg.ft_ratio_pooled());
            canon.push_f64(agg.failures.sum());
        }
    }
    canon.fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pckpt_core::{run_grid, GridCell, ModelKind, RunnerConfig, SimParams};
    use pckpt_failure::LeadTimeModel;
    use pckpt_workloads::Application;

    #[test]
    fn grid_digest_binds_results_not_execution_shape() {
        let app = Application::by_name("POP").expect("table app");
        let params = SimParams::paper_defaults(ModelKind::B, app);
        let cells = vec![GridCell::new(params, &[ModelKind::B, ModelKind::P2])];
        let leads = LeadTimeModel::desh_default();
        let mut config = RunnerConfig::new(4, 11);
        config.threads = 1;
        let one = run_grid(&cells, &leads, &config);
        config.threads = 2;
        let two = run_grid(&cells, &leads, &config);
        // Different thread counts, identical results → identical digest.
        assert_eq!(grid_digest(&one).hex(), grid_digest(&two).hex());

        // Different seed → different digest.
        let mut other_cfg = RunnerConfig::new(4, 12);
        other_cfg.threads = 1;
        let other = run_grid(&cells, &leads, &other_cfg);
        assert_ne!(grid_digest(&one).hex(), grid_digest(&other).hex());
    }
}
