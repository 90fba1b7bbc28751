//! `pckpt-bench` — experiment harnesses regenerating every table and
//! figure of the paper's evaluation.
//!
//! Each `exp_*` binary reproduces one artifact (see DESIGN.md §5 for the
//! full index):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `exp_fig2a` | Fig. 2a — lead-time box plots per failure sequence |
//! | `exp_fig2b` | Fig. 2b — single-node bandwidth vs tasks × size |
//! | `exp_fig2c` | Fig. 2c — weak-scaling bandwidth heat map |
//! | `exp_table1` | Table I — workload characteristics (+ derived latencies) |
//! | `exp_fig4` | Fig. 4 — lead-time variability, M1/M2 |
//! | `exp_table2` | Table II — FT ratios, M1/M2 |
//! | `exp_fig6a` | Fig. 6a — overheads under Titan's distribution |
//! | `exp_fig6b` | Fig. 6b — overheads under LANL 18 (and LANL 8) |
//! | `exp_fig6c` | Fig. 6c — LM transfer-size sweep |
//! | `exp_fig7` | Fig. 7 — lead-time variability, P1/P2 |
//! | `exp_table4` | Table IV — FT ratios, P1/P2 |
//! | `exp_fig8` | Fig. 8 — LM vs p-ckpt FT share in P2 |
//! | `exp_obs9` | Obs. 9 — false-negative-rate sweep |
//! | `exp_analytical` | Eqs. 4–8 — the LM-vs-p-ckpt analytical model |
//!
//! The number of Monte-Carlo runs defaults to 1000 (as in the paper);
//! set `PCKPT_RUNS` to trade fidelity for speed, and `PCKPT_SEED` to try
//! another stream.

use pckpt_core::{
    parse_runs_spec, run_grid, run_models, CampaignResult, GridCell, GridResult, ModelKind,
    RunnerConfig, RunsSpec, SimParams,
};
use pckpt_failure::{FailureDistribution, LeadTimeModel};
use pckpt_workloads::Application;

/// Monte-Carlo runs per configuration (`PCKPT_RUNS`, default 1000). In
/// adaptive mode (`PCKPT_RUNS=auto[:target[:cap]]`) this is the per-cell
/// run cap; the stopping rule usually spends far fewer.
pub fn runs() -> usize {
    match std::env::var("PCKPT_RUNS").ok().and_then(|v| parse_runs_spec(&v)) {
        Some(RunsSpec::Fixed(n)) => n,
        Some(RunsSpec::Auto(a)) => a.max_runs,
        None => 1000,
    }
}

/// Master seed (`PCKPT_SEED`, default 20220530 — the paper's IPDPS
/// presentation date).
pub fn seed() -> u64 {
    std::env::var("PCKPT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_220_530)
}

/// The runner configuration used by all experiments: `PCKPT_RUNS` runs
/// from `PCKPT_SEED`, with the `PCKPT_VR` / `PCKPT_RUNS=auto`
/// variance-reduction knobs applied on top.
pub fn runner() -> RunnerConfig {
    RunnerConfig::new(runs(), seed()).with_env_vr()
}

/// The three applications whose per-app curves the paper shows
/// (CHIMERA, XGC, POP; the rest "behave similarly to POP").
pub fn figure_apps() -> Vec<Application> {
    ["CHIMERA", "XGC", "POP"]
        .iter()
        .map(|n| Application::by_name(n).expect("Table I app"))
        .collect()
}

/// Builds the parameter point `campaign` runs, with the same overrides.
pub fn sweep_params(
    app: Application,
    distribution: FailureDistribution,
    lead_scale: f64,
    fn_rate: Option<f64>,
    lm_transfer_factor: Option<f64>,
) -> SimParams {
    let mut params = SimParams::with_distribution(ModelKind::B, app, distribution);
    params.lead_scale = lead_scale;
    if let Some(fnr) = fn_rate {
        params.predictor = params.predictor.with_false_negative_rate(fnr);
    }
    if let Some(alpha) = lm_transfer_factor {
        params.lm_transfer_factor = alpha;
    }
    params
}

/// Builds one grid cell with `campaign`'s overrides, labelled
/// `"{app}@{lead_scale}"` (relabel with [`GridCell::with_label`]).
pub fn sweep_cell(
    app: Application,
    models: &[ModelKind],
    distribution: FailureDistribution,
    lead_scale: f64,
    fn_rate: Option<f64>,
    lm_transfer_factor: Option<f64>,
) -> GridCell {
    let params = sweep_params(app, distribution, lead_scale, fn_rate, lm_transfer_factor);
    GridCell::new(params, models).with_label(format!("{}@{lead_scale}", app.name))
}

/// Runs a whole bin's sweep — every cell × model × run — through one
/// work-stealing pool with cross-cell failure-trace sharing (see
/// `pckpt_core::run_grid`). All cells share one Desh lead-time model and
/// the experiment-wide [`runner`] configuration.
pub fn run_cells(cells: &[GridCell]) -> GridResult {
    let leads = LeadTimeModel::desh_default();
    run_grid(cells, &leads, &runner())
}

/// Prints a sweep's execution metadata: one `METRICS_JSON` line with the
/// grid-wide merged observability aggregate and one with the
/// campaign-style grid metadata (cells, lanes, units, threads, trace
/// sharing). `scripts/lint.sh`'s smoke checks the pair `exp_fig4`
/// prints.
pub fn print_grid_metrics(name: &str, grid: &GridResult) {
    println!("METRICS_JSON {}", grid.obs_merged().to_json(name));
    println!("METRICS_JSON {}", grid.meta_json(&format!("{name}_grid")));
    // Per-cell run allocation becomes interesting once cells can differ
    // (adaptive mode or a prefiltered sweep); keep fixed uniform sweeps'
    // output unchanged.
    if grid.cell_runs.iter().any(|&r| r != grid.runs_per_cell) {
        println!(
            "METRICS_JSON {}",
            pckpt_core::obs::allocation_json(&format!("{name}_alloc"), &grid.allocations())
        );
    }
}

/// Runs one app × model-set campaign with optional overrides.
///
/// One-cell convenience over [`run_cells`]; sweep bins should build all
/// their cells and run them as one grid instead.
pub fn campaign(
    app: Application,
    models: &[ModelKind],
    distribution: FailureDistribution,
    lead_scale: f64,
    fn_rate: Option<f64>,
    lm_transfer_factor: Option<f64>,
) -> CampaignResult {
    let leads = LeadTimeModel::desh_default();
    let params = sweep_params(app, distribution, lead_scale, fn_rate, lm_transfer_factor);
    run_models(&params, models, &leads, &runner())
}

/// Renders one Fig.-6-style panel: all six applications × all five
/// models under `distribution`, as a stacked bar chart plus a numeric
/// table (total hours annotated, per-bucket breakdown, reduction vs B).
pub fn print_fig6_panel(distribution: FailureDistribution, title: &str) {
    use pckpt_analysis::{BarChart, Table};
    println!("{title}  ({} runs per app)\n", runs());
    let mut table = Table::new(vec![
        "app",
        "model",
        "ckpt(h)",
        "recomp(h)",
        "recovery(h)",
        "total(h)",
        "±95%CI",
        "p05..p95",
        "vs B",
    ]);
    let mut ranges: std::collections::HashMap<&'static str, (f64, f64)> =
        std::collections::HashMap::new();
    // All six applications ride one work-stealing pool (one cell each;
    // per-cell aggregates are bit-identical to standalone campaigns).
    let cells: Vec<GridCell> = pckpt_workloads::TABLE_I
        .iter()
        .map(|app| sweep_cell(*app, &ModelKind::ALL, distribution, 1.0, None, None))
        .collect();
    let grid = run_cells(&cells);
    for (app, c) in pckpt_workloads::TABLE_I.iter().zip(&grid.cells) {
        let base_total = c.get(ModelKind::B).unwrap().total_hours.mean();
        let mut chart = BarChart::new(
            format!(
                "{} — overhead, normalized to B (# ckpt, = recomp, . recovery)",
                app.name
            ),
            48,
        );
        for m in ModelKind::ALL {
            let a = c.get(m).unwrap();
            let (ck, rc, rv) = (
                a.ckpt_hours.mean(),
                a.recomp_hours.mean(),
                a.recovery_hours.mean(),
            );
            let total = a.total_hours.mean();
            chart.bar(
                m.name(),
                vec![ck, rc, rv],
                format!("{:.1}h ({:.0}%)", total, 100.0 * total / base_total.max(1e-12)),
            );
            let red = reduction_pct(total, base_total);
            let entry = ranges.entry(m.name()).or_insert((f64::INFINITY, f64::NEG_INFINITY));
            entry.0 = entry.0.min(red);
            entry.1 = entry.1.max(red);
            table.row(vec![
                app.name.to_string(),
                m.name().to_string(),
                format!("{ck:.2}"),
                format!("{rc:.2}"),
                format!("{rv:.2}"),
                format!("{total:.2}"),
                // Student-t 95% half-width on the mean — the precision
                // the adaptive allocator (PCKPT_RUNS=auto) steers by.
                format!("{:.2}", a.total_hours.ci_half_width(0.95)),
                format!(
                    "{:.1}..{:.1}",
                    a.total_hours_quantile(0.05),
                    a.total_hours_quantile(0.95)
                ),
                format!("{red:+.1}%"),
            ]);
        }
        println!("{}", chart.render());
    }
    println!("{table}");
    println!("Overall overhead reduction ranges vs B:");
    for m in ModelKind::ALL {
        if m == ModelKind::B {
            continue;
        }
        let (lo, hi) = ranges[m.name()];
        println!("  {:<3} {:.0}% .. {:.0}%", m.name(), lo, hi);
    }
}

/// Percentage reduction of `value` relative to `base` (positive = lower
/// overhead than the base model; the y-axis of Figs. 4 & 7).
pub fn reduction_pct(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (1.0 - value / base)
    }
}

/// The lead-scale grid of Tables II/IV and Figs. 4/7.
pub const LEAD_SCALES: [f64; 5] = [1.5, 1.1, 1.0, 0.9, 0.5];

/// Labels for [`LEAD_SCALES`].
pub const LEAD_SCALE_LABELS: [&str; 5] = ["+50%", "+10%", "0%", "-10%", "-50%"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        assert_eq!(reduction_pct(5.0, 10.0), 50.0);
        assert_eq!(reduction_pct(10.0, 10.0), 0.0);
        assert_eq!(reduction_pct(15.0, 10.0), -50.0);
        assert_eq!(reduction_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn figure_apps_are_the_papers_three() {
        let apps = figure_apps();
        assert_eq!(apps.len(), 3);
        assert_eq!(apps[0].name, "CHIMERA");
        assert_eq!(apps[2].name, "POP");
    }

    #[test]
    fn env_defaults() {
        // Defaults apply when the env vars are unset in the test runner.
        assert!(runs() > 0);
        let _ = seed();
    }
}
