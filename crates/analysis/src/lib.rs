//! `pckpt-analysis` — the analytical LM-vs-p-ckpt model and report
//! rendering.
//!
//! * [`analytic`] — Observation 8's closed-form comparison of live
//!   migration and p-ckpt (Eqs. 4–8): one scalar function per equation,
//!   the margin-aware crossover verdict the analytic pre-filter
//!   (`pckpt_core::prefilter`) uses to answer grid cells without
//!   simulating them, and the break-even σ for a given α.
//! * [`report`] — fixed-width table rendering for the experiment
//!   binaries (each prints the rows/series of one paper table or figure).
//! * [`chart`] — ASCII bar charts, heat maps and box plots so the
//!   regenerated figures are readable straight from a terminal.

#![warn(missing_docs)]

pub mod analytic;
pub mod chart;
pub mod report;

pub use analytic::{
    alpha_threshold, alpha_threshold_exact, beta_pckpt, break_even_sigma, crossover_verdict,
    lm_ckpt_reduction, pckpt_beats_lm, Crossing, SIGMA_GUARD, SIGMA_MAX,
};
pub use chart::{BarChart, BoxPlotChart, HeatMap};
pub use report::Table;
