//! **pckpt** — coordinated prioritized checkpointing, reproduced in Rust.
//!
//! This is the umbrella crate of a full reimplementation of
//! *"P-ckpt: Coordinated Prioritized Checkpointing"* (Behera, Wan,
//! Mueller, Wolf, Klasky — IPDPS 2022): a failure-prediction-driven
//! Checkpoint/Restart stack for HPC systems with multi-level storage
//! (burst buffers + parallel file system), including the paper's novel
//! **p-ckpt** protocol and the **hybrid p-ckpt** model that orchestrates
//! p-ckpt with live migration.
//!
//! ## Quick start
//!
//! ```
//! use pckpt::prelude::*;
//!
//! // Simulate XGC under the base model and under hybrid p-ckpt, over
//! // identical failure traces.
//! let app = Application::by_name("XGC").unwrap();
//! let params = SimParams::paper_defaults(ModelKind::B, app);
//! let leads = LeadTimeModel::desh_default();
//! let campaign = run_models(
//!     &params,
//!     &[ModelKind::B, ModelKind::P2],
//!     &leads,
//!     &RunnerConfig::new(20, 42),
//! );
//! let saved = campaign.reduction(ModelKind::P2, ModelKind::B).unwrap();
//! assert!(saved > 0.0, "hybrid p-ckpt must beat periodic checkpointing");
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Role |
//! |-----------|-------|------|
//! | [`simrng`] | `pckpt-simrng` | deterministic RNG, distributions, statistics |
//! | [`desim`] | `pckpt-desim` | discrete-event simulation engine |
//! | [`ioperf`] | `pckpt-ioperf` | Summit-style I/O performance model |
//! | [`failure`] | `pckpt-failure` | failure generation, chain mining, prediction |
//! | [`workloads`] | `pckpt-workloads` | Table-I applications |
//! | [`core`] | `pckpt-core` | the five C/R models and the p-ckpt protocol |
//! | [`analysis`] | `pckpt-analysis` | Eqs. 4–8 and report rendering |
//!
//! See `DESIGN.md` for the system inventory and the experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results of every table and
//! figure.

#![warn(missing_docs)]

pub use pckpt_analysis as analysis;
pub use pckpt_core as core;
pub use pckpt_desim as desim;
pub use pckpt_failure as failure;
pub use pckpt_ioperf as ioperf;
pub use pckpt_simrng as simrng;
pub use pckpt_workloads as workloads;

/// The most common imports for driving simulations.
pub mod prelude {
    pub use pckpt_core::{
        run_grid, run_many, run_models, AdaptiveConfig, Aggregate, CampaignResult, CrSim,
        GridCell, GridResult, ModelKind, OverheadLedger, RunResult, RunnerConfig, SimParams,
        VrConfig,
    };
    pub use pckpt_failure::{
        FailureDistribution, FailureTrace, LeadTimeModel, Prediction, Predictor, Projection,
        TraceConfig,
    };
    pub use pckpt_ioperf::IoHierarchy;
    pub use pckpt_simrng::SimRng;
    pub use pckpt_workloads::{Application, TABLE_I};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_compose() {
        let app = Application::by_name("VULCAN").unwrap();
        let params = SimParams::paper_defaults(ModelKind::P1, app);
        let leads = LeadTimeModel::desh_default();
        let agg = run_many(&params, &leads, &RunnerConfig::new(3, 1));
        assert_eq!(agg.runs(), 3);
    }
}
