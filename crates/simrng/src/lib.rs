//! Random variates and statistics for the p-ckpt simulation suite.
//!
//! The paper's simulation (Sec. III) draws failure inter-arrival times from
//! Weibull distributions (Table III), failure lead times from a mixture of
//! per-sequence truncated normals (Fig. 2a), and averages results over
//! 1000 runs. This crate provides:
//!
//! * [`rng`] — a deterministic, splittable PRNG ([`rng::SimRng`]) so that
//!   every simulation run is exactly reproducible from a seed, and so that
//!   parallel runs derive independent streams.
//! * [`dist`] — analytic distributions (Weibull, exponential, normal,
//!   log-normal, truncated normal, uniform) sampled by inversion or
//!   Box–Muller, plus weighted [`dist::Discrete`] choice and composable
//!   [`dist::Mixture`] distributions.
//! * [`stats`] — streaming summaries (Welford, paired and stratified),
//!   quantiles, box-plot statistics, Student-t confidence intervals and
//!   Kolmogorov–Smirnov tests.
//!
//! `rand_distr` is deliberately not used (it is not on the approved offline
//! dependency list); the implementations here are small, and every sampler
//! is validated against analytic moments in its unit tests.

#![warn(missing_docs)]

pub mod dist;
pub mod rng;
pub mod stats;

pub use dist::{
    norm_inv_cdf, normal_cdf, Deterministic, Discrete, Distribution, Exponential, LogNormal,
    Mixture, Normal, TruncatedNormal, Uniform, Weibull,
};
pub use rng::SimRng;
pub use stats::{
    ks_one_sample, ks_two_sample, t_critical, BoxPlot, KsResult, PairedSummary, Quantiles,
    StratifiedSummary, Summary,
};
