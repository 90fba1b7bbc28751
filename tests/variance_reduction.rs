//! Variance-reduction correctness: the estimator transforms behind
//! `PCKPT_VR` / `PCKPT_RUNS=auto` must not change *what* is estimated.
//!
//! Three contracts are pinned here:
//!
//! 1. **Marginal preservation** — antithetic reflection (`u → 1 − u`,
//!    inverse-CDF normals) changes the joint law across a pair but must
//!    leave every per-run marginal distribution exactly alone. KS
//!    one-sample proptests check the reflected Weibull, LogNormal and
//!    TruncatedNormal samplers against their analytic CDFs.
//! 2. **Stratified fold consistency** — a stratum-weighted fold of
//!    equal-probability strata is the same estimator as a flat merge
//!    when the data are identical, and stratified generation leaves the
//!    overall uniform law intact.
//! 3. **Engine determinism** — every VR mode (and adaptive allocation,
//!    including the per-cell run counts the stopping rule settles on)
//!    is bit-identical across 1/3/8 threads at the integration level,
//!    and antithetic pairing actually tightens the CI it reports.

use proptest::prelude::*;

use pckpt::core::{run_grid, AdaptiveConfig, GridPlan, GridWorker, VrConfig};
use pckpt::prelude::*;
use pckpt::simrng::dist::{Distribution, LogNormal, TruncatedNormal, Weibull};
use pckpt::simrng::{ks_one_sample, normal_cdf, PairedSummary, StratifiedSummary, Summary};

/// Draws `n` samples from `dist`, each from its own split stream (the
/// run structure), with antithetic reflection and inverse-CDF normals
/// active — exactly how an odd-indexed antithetic run samples.
fn reflected_samples<D: Distribution>(dist: &D, seed: u64, n: usize) -> Vec<f64> {
    let master = SimRng::seed_from(seed);
    (0..n)
        .map(|i| {
            let mut rng = master.split(i as u64);
            rng.set_inverse_normals(true);
            rng.set_reflected(true);
            dist.sample(&mut rng)
        })
        .collect()
}

// α = 0.001 keeps the exact-marginal property failing loudly on real
// drift (reflection preserves marginals *exactly*, so a bug shows up as
// D ≫ critical) while tolerating borderline sampling noise across the
// proptest case grid.
const KS_N: usize = 4000;
const KS_ALPHA: f64 = 0.001;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn reflected_weibull_marginal_is_preserved(
        seed in 1u64..1000,
        shape in 0.5f64..2.0,
        scale in 10.0f64..1000.0,
    ) {
        let w = Weibull::new(shape, scale);
        let samples = reflected_samples(&w, seed, KS_N);
        let r = ks_one_sample(&samples, |x| w.cdf(x));
        prop_assert!(
            r.same_distribution(KS_ALPHA),
            "reflected Weibull({shape}, {scale}) drifted: D = {}",
            r.statistic
        );
    }

    #[test]
    fn reflected_lognormal_marginal_is_preserved(
        seed in 1u64..1000,
        mu in -1.0f64..3.0,
        sigma in 0.2f64..1.5,
    ) {
        let d = LogNormal::new(mu, sigma);
        let samples = reflected_samples(&d, seed, KS_N);
        let r = ks_one_sample(&samples, |x: f64| {
            if x <= 0.0 { 0.0 } else { normal_cdf((x.ln() - mu) / sigma) }
        });
        prop_assert!(
            r.same_distribution(KS_ALPHA),
            "reflected LogNormal({mu}, {sigma}) drifted: D = {}",
            r.statistic
        );
    }

    #[test]
    fn reflected_truncated_normal_marginal_is_preserved(
        seed in 1u64..1000,
        mu in 5.0f64..60.0,
        sigma in 1.0f64..15.0,
    ) {
        // The lead-time mixture's component shape (Fig. 2a): a normal
        // truncated below. Rejection may consume different draw counts
        // under reflection; the marginal must still be exact.
        let lo = 0.5;
        let d = TruncatedNormal::new(mu, sigma, lo);
        let tail = 1.0 - normal_cdf((lo - mu) / sigma);
        let samples = reflected_samples(&d, seed, KS_N);
        let r = ks_one_sample(&samples, |x: f64| {
            if x < lo {
                0.0
            } else {
                (normal_cdf((x - mu) / sigma) - normal_cdf((lo - mu) / sigma)) / tail
            }
        });
        prop_assert!(
            r.same_distribution(KS_ALPHA),
            "reflected TruncatedNormal({mu}, {sigma}) drifted: D = {}",
            r.statistic
        );
    }

    #[test]
    fn stratum_weighted_fold_equals_flat_merge(seed in 1u64..500, k in 2usize..9) {
        // Identical data, two folds: round-robin into K equal-weight
        // strata vs one flat summary. Same estimator, same mean, and the
        // total spread reassembles within f64 tolerance.
        let master = SimRng::seed_from(seed);
        let mut rng = master.clone();
        let n = 40 * k; // balanced strata
        let values: Vec<f64> = (0..n).map(|_| rng.uniform01() * 7.0 + 1.0).collect();
        let mut flat = Summary::new();
        let mut strat = StratifiedSummary::equal_weights(k);
        for (i, &v) in values.iter().enumerate() {
            flat.push(v);
            strat.push(i % k, v);
        }
        let mut merged = Summary::new();
        for j in 0..k {
            merged.merge(strat.stratum(j));
        }
        prop_assert!((strat.mean() - flat.mean()).abs() < 1e-9 * flat.mean().abs());
        prop_assert!((merged.mean() - flat.mean()).abs() < 1e-9 * flat.mean().abs());
        prop_assert!((merged.variance() - flat.variance()).abs() < 1e-9 * flat.variance());
        prop_assert_eq!(merged.count(), flat.count());
    }
}

#[test]
fn stratified_generation_preserves_the_uniform_law() {
    // Each run confined to its stratum; pooled across a balanced
    // round-robin the draws must still be U[0,1).
    let master = SimRng::seed_from(99);
    let k = 8u32;
    let samples: Vec<f64> = (0..4000)
        .map(|i| {
            let mut rng = master.split(i as u64);
            rng.set_next_stratum(i as u32 % k, k);
            rng.uniform01()
        })
        .collect();
    let r = ks_one_sample(&samples, |x: f64| x.clamp(0.0, 1.0));
    assert!(
        r.same_distribution(KS_ALPHA),
        "stratified pooled draws are not uniform: D = {}",
        r.statistic
    );
}

fn xgc_cells(scales: &[f64]) -> Vec<GridCell> {
    let app = Application::by_name("XGC").expect("Table I app");
    scales
        .iter()
        .map(|&s| {
            let mut p = SimParams::paper_defaults(ModelKind::B, app);
            p.lead_scale = s;
            GridCell::new(p, &[ModelKind::B, ModelKind::P2]).with_label(format!("XGC@{s}"))
        })
        .collect()
}

fn grid_fingerprint(grid: &pckpt::core::GridResult) -> (Vec<usize>, Vec<[u64; 3]>) {
    let digests = grid
        .cells
        .iter()
        .flat_map(|c| {
            c.aggregates.iter().map(|a| {
                [
                    a.total_hours.mean().to_bits(),
                    a.ft_ratio_pooled().to_bits(),
                    a.failures.sum().to_bits(),
                ]
            })
        })
        .collect();
    (grid.cell_runs.clone(), digests)
}

#[test]
fn every_vr_mode_is_thread_count_invariant_end_to_end() {
    let leads = LeadTimeModel::desh_default();
    let cells = xgc_cells(&[1.5, 1.0, 0.5]);
    let modes = [
        VrConfig {
            antithetic: true,
            ..VrConfig::default()
        },
        VrConfig {
            strata: 4,
            ..VrConfig::default()
        },
        VrConfig {
            antithetic: true,
            strata: 4,
            adaptive: Some(AdaptiveConfig {
                rel_target: 0.02,
                batch: 16,
                max_runs: 64,
                ..AdaptiveConfig::default()
            }),
            ..VrConfig::default()
        },
    ];
    for vr in modes {
        let mut prints = Vec::new();
        for threads in [1, 3, 8] {
            let mut cfg = RunnerConfig::new(16, 61);
            cfg.threads = threads;
            cfg.vr = vr;
            prints.push(grid_fingerprint(&run_grid(&cells, &leads, &cfg)));
        }
        assert_eq!(prints[0], prints[1], "{vr:?} diverged 1 vs 3 threads");
        assert_eq!(prints[0], prints[2], "{vr:?} diverged 1 vs 8 threads");
    }
}

#[test]
fn fixed_run_sweep_is_the_one_batch_adaptive_schedule() {
    // A fixed-count sweep and an adaptive sweep whose single batch spans
    // the whole budget must be the same computation, CI included.
    let leads = LeadTimeModel::desh_default();
    let cells = xgc_cells(&[1.5, 1.0, 0.5]);
    let runs = 12;
    let modes = [
        VrConfig::default(),
        VrConfig {
            antithetic: true,
            strata: 2,
            ..VrConfig::default()
        },
    ];
    for vr in modes {
        let mut fixed = RunnerConfig::new(runs, 61);
        fixed.threads = 2;
        fixed.vr = vr;
        let mut one_batch = fixed;
        one_batch.vr.adaptive = Some(AdaptiveConfig {
            batch: runs,
            max_runs: runs,
            ..AdaptiveConfig::default()
        });
        let digest = |cfg: &RunnerConfig| pckpt_service::grid_digest(&run_grid(&cells, &leads, cfg));
        assert_eq!(digest(&fixed), digest(&one_batch), "{vr:?}");
    }
}

#[test]
fn antithetic_pairing_tightens_the_ci_it_reports() {
    // Drive a one-cell plan directly so we can see per-run values: the
    // paired estimator over antithetic runs must beat the crude
    // estimator over the same number of independent runs on the primary
    // metric's standard error — that correlation is the entire point.
    let leads = LeadTimeModel::desh_default();
    let app = Application::by_name("POP").expect("Table I app");
    let params = SimParams::paper_defaults(ModelKind::B, app);
    let cells = [GridCell::new(params, &[ModelKind::B])];
    let plan = GridPlan::new(&cells, &leads);
    let master = SimRng::seed_from(4242);
    let runs = 64;

    let mut plain_worker = GridWorker::new(&plan);
    let mut plain = Summary::new();
    for run in 0..runs {
        let r = plain_worker.run_unit(&master, run, 0);
        plain.push(r.ledger.total_overhead_secs() / 3600.0);
    }

    let vr = VrConfig {
        antithetic: true,
        ..VrConfig::default()
    };
    let mut anti_worker = GridWorker::with_vr(&plan, vr);
    let mut paired = PairedSummary::new();
    for run in 0..runs {
        let r = anti_worker.run_unit(&master, run, 0);
        paired.push(r.ledger.total_overhead_secs() / 3600.0);
    }

    assert_eq!(paired.pairs() as usize, runs / 2);
    assert!(
        paired.std_err() < plain.std_err(),
        "antithetic pairing must reduce the standard error: paired {} vs plain {}",
        paired.std_err(),
        plain.std_err()
    );
}

#[test]
fn adaptive_allocation_spends_fewer_runs_than_the_fixed_budget() {
    let leads = LeadTimeModel::desh_default();
    let cells = xgc_cells(&[1.5, 0.5]);
    let mut cfg = RunnerConfig::new(96, 61);
    cfg.threads = 2;
    cfg.vr = VrConfig {
        antithetic: true,
        adaptive: Some(AdaptiveConfig {
            rel_target: 0.25,
            batch: 8,
            max_runs: 96,
            ..AdaptiveConfig::default()
        }),
        ..VrConfig::default()
    };
    let grid = run_grid(&cells, &leads, &cfg);
    let budget = 96 * cells.len();
    assert!(
        grid.total_runs() < budget,
        "a loose target must stop early: spent {} of {budget}",
        grid.total_runs()
    );
    for (&r, ci) in grid.cell_runs.iter().zip(&grid.cell_ci_rel) {
        assert!(r >= 16, "at least two batches before stopping");
        if r < 96 {
            assert!(*ci <= 0.25, "a stopped cell met its target (ci {ci})");
        }
    }
}
