//! Grid sweep engine vs serial-cells baseline.
//!
//! Times a fig4-shaped sweep — four lead scales × [B, M2] per
//! application — two ways:
//!
//! * **serial**: one [`run_models`] campaign per cell, back to back (the
//!   pre-grid behavior: every cell pays its own pool spin-up, regenerates
//!   every trace, and re-runs the lead-blind B lanes);
//! * **grid**: one [`run_grid`] over all cells (one work-stealing pool,
//!   per-worker trace cores shared across the scales, B executed once
//!   per run).
//!
//! Both must produce bit-identical per-cell aggregates — verified here
//! on every invocation before any timing is reported. Emits one
//! machine-parsable `GRID_JSON {...}` line per app plus the grid
//! `METRICS_JSON` metadata, then one `GRID_JSON` line each for the
//! prefilter and variance-reduction headlines; `scripts/bench.sh`
//! stores the five `GRID_JSON` records verbatim in its snapshot's
//! `grid_json`, keyed by name.

use std::time::Instant;

use pckpt_bench::{run_cells, runner, runs, seed, sweep_cell};
use pckpt_core::{run_grid_filtered, run_models, Aggregate, ModelKind, Prefilter};
use pckpt_failure::{FailureDistribution, LeadTimeModel};

const SWEEP_SCALES: [f64; 4] = [1.5, 1.1, 0.9, 0.5];
const MODELS: [ModelKind; 2] = [ModelKind::B, ModelKind::M2];

fn digest(a: &Aggregate) -> (u64, u64, u64) {
    (
        a.total_hours.mean().to_bits(),
        a.ft_ratio_pooled().to_bits(),
        a.failures.sum().to_bits(),
    )
}

fn main() {
    let leads = LeadTimeModel::desh_default();
    println!(
        "grid sweep vs serial cells — 4 lead scales x [B, M2], {} runs, seed {}",
        runs(),
        seed()
    );
    for app_name in ["CHIMERA", "XGC", "POP"] {
        let app = pckpt_workloads::Application::by_name(app_name).expect("Table I app");
        let cells: Vec<_> = SWEEP_SCALES
            .iter()
            .map(|&s| {
                sweep_cell(app, &MODELS, FailureDistribution::OLCF_TITAN, s, None, None)
            })
            .collect();

        let started = Instant::now();
        let serial: Vec<_> = cells
            .iter()
            .map(|cell| run_models(&cell.params, &cell.models, &leads, &runner()))
            .collect();
        let serial_wall = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let grid = run_cells(&cells);
        let grid_wall = started.elapsed().as_secs_f64();

        // Equivalence gate: a speedup only counts if every cell's
        // aggregate is bit-identical to its standalone campaign.
        for (i, (s, g)) in serial.iter().zip(&grid.cells).enumerate() {
            for (a, b) in s.aggregates.iter().zip(&g.aggregates) {
                assert_eq!(
                    digest(a),
                    digest(b),
                    "{app_name} cell {i}: grid diverged from serial baseline"
                );
            }
        }

        let speedup = serial_wall / grid_wall;
        let cells_per_sec = cells.len() as f64 / grid_wall;
        println!(
            "  {app_name:<8} serial {serial_wall:.3} s, grid {grid_wall:.3} s  \
             ({speedup:.2}x, {cells_per_sec:.2} cells/s, {} units for {} lanes, \
             trace hit rate {:.0}%)",
            grid.units,
            grid.lanes,
            100.0 * grid.trace_cache_hit_rate(),
        );
        println!(
            "GRID_JSON {{\"name\":\"grid_sweep_{name}\",\"cells\":{cells},\"runs_per_cell\":{rpc},\
             \"serial_wall_secs\":{serial_wall:.6},\"grid_wall_secs\":{grid_wall:.6},\
             \"speedup\":{speedup:.3},\"cells_per_sec\":{cells_per_sec:.3},\
             \"lanes\":{lanes},\"units\":{units},\"trace_groups\":{groups},\
             \"trace_cache_hit_rate\":{hit:.4},\"threads\":{threads}}}",
            name = app_name.to_lowercase(),
            cells = cells.len(),
            rpc = grid.runs_per_cell,
            lanes = grid.lanes,
            units = grid.units,
            groups = grid.trace_groups,
            hit = grid.trace_cache_hit_rate(),
            threads = grid.threads,
        );
        println!(
            "METRICS_JSON {}",
            grid.meta_json(&format!("grid_sweep_{}_grid", app_name.to_lowercase()))
        );
    }

    // Analytic pre-filter on the 4-cell POP sweep: POP's θ is tiny, so σ
    // sits at the 0.90 cap for every lead scale and the LM-vs-p-ckpt
    // crossover is decided closed-form — the whole sweep prunes. The
    // digest gate mirrors the tentpole soundness contract: any cell the
    // filter *does* simulate must match the unfiltered sweep bit for bit.
    let app = pckpt_workloads::Application::by_name("POP").expect("Table I app");
    let crossover = [ModelKind::B, ModelKind::M2, ModelKind::P1];
    let cells: Vec<_> = SWEEP_SCALES
        .iter()
        .map(|&s| sweep_cell(app, &crossover, FailureDistribution::OLCF_TITAN, s, None, None))
        .collect();

    let started = Instant::now();
    let unfiltered = run_grid_filtered(&cells, &leads, &runner(), None);
    let unfiltered_wall = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let filtered = run_grid_filtered(&cells, &leads, &runner(), Some(&Prefilter::default()));
    let filtered_wall = started.elapsed().as_secs_f64();

    for (i, verdict) in filtered.analytic_verdicts.iter().enumerate() {
        if verdict.is_some() {
            continue;
        }
        for (a, b) in filtered.cell(i).aggregates.iter().zip(&unfiltered.cell(i).aggregates) {
            assert_eq!(
                digest(a),
                digest(b),
                "POP cell {i}: prefiltered survivor diverged from unfiltered grid"
            );
        }
    }

    let prune_rate = filtered.cells_pruned as f64 / cells.len() as f64;
    println!(
        "  prefilter POP x [B, M2, P1]: {} of {} cells answered analytically \
         ({:.0}% pruned); unfiltered {unfiltered_wall:.3} s, filtered {filtered_wall:.3} s",
        filtered.cells_pruned,
        cells.len(),
        100.0 * prune_rate,
    );
    println!(
        "GRID_JSON {{\"name\":\"grid_prefilter_pop\",\"cells\":{cells_n},\"runs_per_cell\":{rpc},\
         \"pruned\":{pruned},\"simulated\":{simulated},\"prune_rate\":{prune_rate:.4},\
         \"unfiltered_wall_secs\":{unfiltered_wall:.6},\"filtered_wall_secs\":{filtered_wall:.6}}}",
        cells_n = cells.len(),
        rpc = runs(),
        pruned = filtered.cells_pruned,
        simulated = filtered.cells_simulated(),
    );
    println!(
        "METRICS_JSON {}",
        filtered.meta_json("grid_prefilter_pop_grid")
    );

    variance_reduction_headline(&leads);
}

/// Runs-to-±1%-CI on the Fig.-4-shaped sweep (the three figure apps ×
/// four lead scales), fixed-provisioned vs adaptive
/// antithetic+stratified.
///
/// Fixed mode must provision every cell at the budget its *worst* cell
/// needs (the target CI is unknown a priori, so a uniform sweep buys
/// `cells × max_c N_c(1%)` runs — and POP converges an order of
/// magnitude slower than XGC/CHIMERA, so the worst cell is expensive).
/// The VR engine instead runs the real adaptive allocator (antithetic
/// pairs, 8 first-failure strata, per-cell CI stopping) and each side's
/// measured relative CI half-width is extrapolated to ±1% by the CLT
/// (`N(1%) = runs × (ci_rel / 0.01)²`) so the headline does not have to
/// simulate millions of POP runs. Both sides use identical cells, seed,
/// and primary metric.
fn variance_reduction_headline(leads: &LeadTimeModel) {
    use pckpt_core::{run_grid, AdaptiveConfig, RunnerConfig, VrConfig};

    const TARGET: f64 = 0.01;
    const FIXED_BUDGET: usize = 512;
    let cells: Vec<_> = pckpt_bench::figure_apps()
        .into_iter()
        .flat_map(|app| {
            SWEEP_SCALES.iter().map(move |&s| {
                sweep_cell(app, &MODELS, FailureDistribution::OLCF_TITAN, s, None, None)
            })
        })
        .collect();

    let fixed_cfg = RunnerConfig::new(FIXED_BUDGET, seed());
    let started = Instant::now();
    let fixed = run_grid(&cells, leads, &fixed_cfg);
    let fixed_wall = started.elapsed().as_secs_f64();
    // Uniform provisioning: every cell buys the worst cell's budget.
    let fixed_need = |i: usize| {
        let ci = fixed.cell_ci_rel[i];
        fixed.cell_runs[i] as f64 * (ci / TARGET).powi(2)
    };
    let worst_need = (0..cells.len()).map(fixed_need).fold(0.0, f64::max);
    let fixed_provisioned = cells.len() as f64 * worst_need;

    let mut vr_cfg = RunnerConfig::new(4096, seed());
    vr_cfg.vr = VrConfig {
        antithetic: true,
        strata: 8,
        adaptive: Some(AdaptiveConfig {
            rel_target: 0.06,
            ..AdaptiveConfig::default()
        }),
    };
    let started = Instant::now();
    let vr = run_grid(&cells, leads, &vr_cfg);
    let vr_wall = started.elapsed().as_secs_f64();
    let vr_total: f64 = (0..cells.len())
        .map(|i| vr.cell_runs[i] as f64 * (vr.cell_ci_rel[i] / TARGET).powi(2))
        .sum();

    let speedup = fixed_provisioned / vr_total;
    // How much of the sweep the per-cell stopping rule alone saved,
    // relative to provisioning every cell at the worst cell's spend.
    let max_cell = vr.cell_runs.iter().copied().max().unwrap_or(0);
    let saved_pct = 100.0
        * (1.0 - vr.total_runs() as f64 / (cells.len() * max_cell.max(1)) as f64);

    // Per-strategy attained CI at one fixed budget (worst lane of the
    // slowest-converging cell, POP@1.5) — the column view of what each
    // transform buys before adaptive allocation enters.
    let pop = pckpt_workloads::Application::by_name("POP").expect("Table I app");
    let one_cell = [sweep_cell(
        pop,
        &MODELS,
        FailureDistribution::OLCF_TITAN,
        SWEEP_SCALES[0],
        None,
        None,
    )];
    let strategies: [(&str, VrConfig); 4] = [
        ("plain", VrConfig::default()),
        ("antithetic", VrConfig { antithetic: true, ..VrConfig::default() }),
        ("stratified", VrConfig { strata: 8, ..VrConfig::default() }),
        (
            "antithetic_stratified",
            VrConfig { antithetic: true, strata: 8, ..VrConfig::default() },
        ),
    ];
    let mut ci_cols = String::new();
    println!(
        "  variance reduction {{CHIMERA,XGC,POP}} x scales x [B, M2]: fixed {FIXED_BUDGET}/cell \
         (worst ci {:.4}), adaptive spent {:?} (ci {:?})",
        fixed.worst_ci_rel(),
        vr.cell_runs,
        vr.cell_ci_rel.iter().map(|c| (c * 1e4).round() / 1e4).collect::<Vec<_>>(),
    );
    for (name, vrc) in strategies {
        let mut cfg = RunnerConfig::new(FIXED_BUDGET, seed());
        cfg.vr = vrc;
        let g = run_grid(&one_cell, leads, &cfg);
        let ci = g.worst_ci_rel();
        println!("    {name:<22} ci_rel @ {FIXED_BUDGET} runs: {ci:.5}");
        ci_cols.push_str(&format!(",\"ci_rel_{name}\":{ci:.6}"));
    }
    println!(
        "  runs to ±1%: fixed-provisioned {:.0}, VR adaptive {:.0}  ({speedup:.2}x); \
         adaptive allocation alone saves {saved_pct:.0}%",
        fixed_provisioned, vr_total,
    );
    println!(
        "GRID_JSON {{\"name\":\"variance_reduction_fig4\",\"cells\":{n},\
         \"fixed_budget\":{FIXED_BUDGET},\"fixed_runs_to_1pct\":{fixed_provisioned:.1},\
         \"vr_runs_to_1pct\":{vr_total:.1},\"variance_reduction_speedup\":{speedup:.3},\
         \"adaptive_runs_saved_pct\":{saved_pct:.2},\"adaptive_total_runs\":{total},\
         \"fixed_wall_secs\":{fixed_wall:.6},\"vr_wall_secs\":{vr_wall:.6}{ci_cols}}}",
        n = cells.len(),
        total = vr.total_runs(),
    );
    println!("METRICS_JSON {}", vr.meta_json("variance_reduction_fig4_grid"));
    println!(
        "METRICS_JSON {}",
        pckpt_core::obs::allocation_json("variance_reduction_fig4_alloc", &vr.allocations())
    );
}
