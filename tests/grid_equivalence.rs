//! The grid engine's equivalence contract, property-tested end to end:
//! for arbitrary sweep shapes, seeds and run counts, every cell of a
//! [`run_grid`] sweep must be **bit-identical** to a standalone
//! [`run_models`] campaign over the same `(params, models, seed)` — at
//! every thread count. Cross-cell trace sharing, lead-blind
//! deduplication and work-stealing order may change how much work is
//! done and where, but never a single bit of what is computed.

use proptest::prelude::*;

use pckpt::core::{
    run_grid, run_grid_filtered, run_models, Aggregate, GridCell, ModelKind, Prefilter,
    RunnerConfig,
};
use pckpt::prelude::*;

/// Everything an aggregate folds, as exact bits.
fn digest(a: &Aggregate) -> [u64; 5] {
    [
        a.total_hours.mean().to_bits(),
        a.ckpt_hours.mean().to_bits(),
        a.recomp_hours.mean().to_bits(),
        a.ft_ratio_pooled().to_bits(),
        a.failures.sum().to_bits(),
    ]
}

fn arb_models() -> impl Strategy<Value = Vec<ModelKind>> {
    prop_oneof![
        Just(vec![ModelKind::B]),
        Just(vec![ModelKind::B, ModelKind::P2]),
        Just(vec![ModelKind::B, ModelKind::M2]),
        Just(vec![ModelKind::M1, ModelKind::P1]),
        Just(vec![ModelKind::B, ModelKind::M2, ModelKind::P2]),
    ]
}

/// 1–3 cells at distinct lead scales, sharing one trace group — the
/// shape that exercises the scale-invariant trace core and B-lane
/// deduplication together.
fn arb_cells() -> impl Strategy<Value = Vec<GridCell>> {
    let scale_set = prop_oneof![
        Just(vec![1.0]),
        Just(vec![1.5, 0.5]),
        Just(vec![1.1, 1.0, 0.9]),
        Just(vec![1.5, 1.1, 0.5]),
    ];
    (scale_set, arb_models()).prop_map(|(scales, models)| {
        let app = Application::by_name("XGC").unwrap();
        scales
            .into_iter()
            .map(|scale| {
                let mut p = SimParams::paper_defaults(ModelKind::B, app);
                p.lead_scale = scale;
                GridCell::new(p, &models)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_grid_cell_is_bit_identical_to_standalone_run_models(
        cells in arb_cells(),
        seed in 0u64..1_000_000,
        runs in 3usize..=5,
    ) {
        let leads = LeadTimeModel::desh_default();
        // The standalone reference for each cell (thread count is
        // irrelevant to results; use a fixed small pool).
        let mut reference_cfg = RunnerConfig::new(runs, seed);
        reference_cfg.threads = 2;
        let reference: Vec<Vec<[u64; 5]>> = cells
            .iter()
            .map(|cell| {
                run_models(&cell.params, &cell.models, &leads, &reference_cfg)
                    .aggregates
                    .iter()
                    .map(digest)
                    .collect()
            })
            .collect();

        for threads in [1usize, 3, 8] {
            let mut cfg = RunnerConfig::new(runs, seed);
            cfg.threads = threads;
            let grid = run_grid(&cells, &leads, &cfg);
            prop_assert_eq!(grid.cells.len(), cells.len());
            for (c, campaign) in grid.cells.iter().enumerate() {
                let got: Vec<[u64; 5]> = campaign.aggregates.iter().map(digest).collect();
                prop_assert_eq!(
                    &got,
                    &reference[c],
                    "cell {} diverged at {} threads (seed {}, runs {})",
                    c, threads, seed, runs
                );
            }
        }
    }
}

/// The crossover model set the analytic pre-filter is allowed to decide.
const CROSSOVER: &[ModelKind] = &[ModelKind::B, ModelKind::M2, ModelKind::P1];

fn crossover_cell(app: &str, alpha: f64) -> GridCell {
    let mut p = SimParams::paper_defaults(ModelKind::B, Application::by_name(app).unwrap());
    p.lm_transfer_factor = alpha;
    GridCell::new(p, CROSSOVER).with_label(format!("{app}/a{alpha}"))
}

/// A mixed confident/uncertain grid: CHIMERA at α = 3 (σ ≈ 0.50,
/// clearance ≈ 21 % → pruned for p-ckpt), POP (σ at the 0.90 cap →
/// pruned for LM), XGC (σ ≈ 0.616, inside the guard band around
/// `SIGMA_MAX` → simulated) and CHIMERA at α = 2.5 (inside the margin
/// band → simulated).
fn mixed_crossover_grid() -> Vec<GridCell> {
    vec![
        crossover_cell("CHIMERA", 3.0),
        crossover_cell("POP", 3.0),
        crossover_cell("XGC", 3.0),
        crossover_cell("CHIMERA", 2.5),
    ]
}

/// Tentpole digest oracle: with the pre-filter on, every cell it still
/// simulates is **bit-identical** to the same cell in an unfiltered
/// sweep — pruning changes which cells run, never what the survivors
/// compute.
#[test]
fn prefiltered_survivors_match_unfiltered_digests() {
    let leads = LeadTimeModel::desh_default();
    let cells = mixed_crossover_grid();
    let cfg = RunnerConfig::new(5, 33);

    let unfiltered = run_grid_filtered(&cells, &leads, &cfg, None);
    let filtered = run_grid_filtered(&cells, &leads, &cfg, Some(&Prefilter::default()));

    assert_eq!(filtered.cells_pruned, 2, "CHIMERA/a3 and POP prune");
    assert!(filtered.analytic_verdicts[0].unwrap().pckpt_wins);
    assert!(!filtered.analytic_verdicts[1].unwrap().pckpt_wins);
    assert!(filtered.analytic_verdicts[2].is_none(), "XGC guard band");
    assert!(filtered.analytic_verdicts[3].is_none(), "margin band");

    for (i, verdict) in filtered.analytic_verdicts.iter().enumerate() {
        let (f, u) = (filtered.cell(i), unfiltered.cell(i));
        if verdict.is_some() {
            assert!(f.aggregates.is_empty(), "pruned cells carry no aggregates");
        } else {
            let got: Vec<[u64; 5]> = f.aggregates.iter().map(digest).collect();
            let want: Vec<[u64; 5]> = u.aggregates.iter().map(digest).collect();
            assert_eq!(got, want, "surviving cell {i} diverged under the prefilter");
        }
    }
}

/// Paper-shape conformance: where the analytic tier *does* decide, its
/// verdict agrees with the simulated Table II/IV ordering — P1 beats M2
/// on total overhead where the closed form says p-ckpt wins, and M2
/// beats P1 where it says LM wins. The `DEFAULT_MARGIN` (15 % of α) is
/// the documented band that absorbs everything the closed form ignores
/// (pre-copy inefficiency, drain contention, round scheduling); cells
/// inside it are simulated, so only high-clearance verdicts are checked
/// here.
#[test]
fn analytic_verdicts_agree_with_simulated_crossover() {
    let leads = LeadTimeModel::desh_default();
    let cells = mixed_crossover_grid();
    let cfg = RunnerConfig::new(40, 7);

    let filtered = run_grid_filtered(&cells, &leads, &cfg, Some(&Prefilter::default()));
    let simulated = run_grid_filtered(&cells, &leads, &cfg, None);
    let mut checked = 0;
    for (i, verdict) in filtered.analytic_verdicts.iter().enumerate() {
        let Some(v) = verdict else { continue };
        let cell = simulated.cell(i);
        let p1 = cell.get(ModelKind::P1).unwrap().total_hours.mean();
        let m2 = cell.get(ModelKind::M2).unwrap().total_hours.mean();
        let sim_pckpt_wins = p1 < m2;
        assert_eq!(
            v.pckpt_wins, sim_pckpt_wins,
            "cell {} ({}): analytic verdict (sigma {:.3}, clearance {:.2}) \
             contradicts simulation (P1 {:.2} h vs M2 {:.2} h)",
            i, filtered.labels[i], v.sigma, v.clearance, p1, m2
        );
        checked += 1;
    }
    assert_eq!(checked, 2, "both confident verdicts must be validated");
}
