//! `pckpt-core` — the paper's contribution: five C/R models and the
//! coordinated prioritized checkpointing (p-ckpt) protocol.
//!
//! The crate simulates an HPC application running under one of five
//! checkpoint/restart models (Secs. V & VII of the paper):
//!
//! | Model | Ingredients |
//! |-------|-------------|
//! | **B**  | periodic BB checkpointing + async PFS drain (no prediction) |
//! | **M1** | B + failure prediction + *safeguard* checkpoints (all nodes → PFS just-in-time) |
//! | **M2** | B + failure prediction + *live migration* (LM-C/R) |
//! | **P1** | B + failure prediction + **p-ckpt** (coordinated prioritized checkpointing) |
//! | **P2** | B + failure prediction + p-ckpt + LM (**hybrid p-ckpt**) |
//!
//! Module map:
//!
//! * [`config`] — model selection and all tunable parameters;
//! * [`oci`] — optimal checkpoint intervals: Young's formula (Eq. 1) and
//!   the LM-adjusted variant (Eq. 2) with the σ lead-time analysis;
//! * [`prefilter`] — the analytic pre-filter: grid cells whose
//!   LM-vs-p-ckpt crossover Eqs. (4)–(8) decide confidently are answered
//!   closed-form instead of simulated (`PCKPT_PREFILTER=analytic`);
//! * [`protocol`] — the p-ckpt round state machine: node-local priority
//!   queue (least lead time first), phase-1 prioritized vulnerable-node
//!   commits, phase-2 collective commit (Fig. 5);
//! * [`sim`] — the discrete-event C/R simulation of one run, built on
//!   `pckpt-desim`;
//! * [`metrics`] — the overhead ledger (checkpoint / recomputation /
//!   recovery), FT-ratio accounting, and cross-run aggregation;
//! * [`runner`] — Monte-Carlo driver: paired failure traces across
//!   models, deterministic per-run RNG streams, thread-parallel
//!   execution.

#![warn(missing_docs)]

pub mod config;
pub mod fingerprint;
pub mod frames;
pub mod iosim;
pub mod metrics;
pub mod oci;
pub mod prefilter;
pub mod protocol;
pub mod runner;
pub mod sim;

pub use config::{ModelKind, SimParams};
pub use fingerprint::{
    campaign_fingerprint, campaign_fingerprints, cell_fingerprint, Canon, Fingerprint,
};
pub use metrics::{Aggregate, OverheadLedger, RunResult};
pub use prefilter::{AnalyticVerdict, Prefilter, DEFAULT_MARGIN};
pub use runner::{
    parse_runs_spec, parse_vr_spec, record_run, run_grid, run_grid_filtered,
    run_grid_with_cell_sink, run_many, run_models, splice_pruned, AdaptiveConfig, CampaignResult,
    CellFold, CellResults, GridCell, GridPlan, GridResult, GridWorker, RunnerConfig, RunsSpec,
    ShardMeta, VrConfig,
};
pub use sim::CrSim;

/// Test-only serialization of process-global environment mutation.
///
/// `std::env::set_var` is process-global while `cargo test` runs tests
/// concurrently, so two tests that mutate the same variable (or one that
/// mutates while another reads) race. Every test that calls `set_var` /
/// `remove_var` must hold this lock for its whole mutate–assert–restore
/// span. Not part of the public API.
#[doc(hidden)]
pub fn env_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A panic while holding the lock poisons it, but the env state it
    // guards is restored by each test's own cleanup; keep going.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Re-export of the structured observability layer (recorders, metrics,
/// trace exporters) so downstream bins need only depend on `pckpt-core`.
pub use pckpt_simobs as obs;
