//! Command implementations.

use pckpt_analysis::Table;
use pckpt_core::obs::kind;
use pckpt_core::sim::state_name;
use pckpt_core::{record_run, run_grid_filtered, Aggregate, GridCell, Knobs, ModelKind, SimParams};
use pckpt_desim::SimTime;
use pckpt_failure::LeadTimeModel;
use pckpt_workloads::{Application, TABLE_I};

use crate::args::{Command, GridOptions, LogGenOptions, SimOptions};

/// Executes a parsed command under the environment's `knobs`.
pub fn run(cmd: Command, knobs: &Knobs) -> Result<(), String> {
    match cmd {
        Command::Simulate(model, opts) => simulate(&[model], &opts, knobs),
        Command::Compare(opts) => simulate(&ModelKind::ALL, &opts, knobs),
        Command::Leads => leads(),
        Command::Io(app) => io(&app),
        Command::Apps => apps(),
        Command::LogsGenerate(opts) => logs_generate(&opts),
        Command::LogsAnalyze(path) => logs_analyze(&path),
        Command::Trace(model, opts, run, verbose) => trace_run(model, &opts, run, verbose),
        Command::Grid(g) => grid(&g, knobs),
    }
}

/// Builds the grid cells for a `grid` invocation: one cell per lead
/// scale.
fn build_grid_cells(g: &GridOptions) -> Result<Vec<GridCell>, String> {
    let mut cells = Vec::with_capacity(g.scales.len());
    for &scale in &g.scales {
        let mut params = build_params(&g.opts)?;
        params.lead_scale = scale;
        cells.push(
            GridCell::new(params, &g.models).with_label(format!("{}@{}", g.opts.app, scale)),
        );
    }
    Ok(cells)
}

fn grid(g: &GridOptions, knobs: &Knobs) -> Result<(), String> {
    let cells = build_grid_cells(g)?;
    let leads = LeadTimeModel::desh_default();
    let config = knobs.runner(g.opts.runs, g.opts.seed);
    let result = run_grid_filtered(&cells, &leads, &config, knobs.prefilter.as_ref());
    let mut t = Table::new(vec!["cell", "model", "total (h)", "vs B", "FT ratio"]).with_title(
        format!(
            "{} sweep on {} — {} runs/cell, seed {}",
            g.opts.app, g.opts.dist.name, g.opts.runs, g.opts.seed
        ),
    );
    for (i, cell) in result.cells.iter().enumerate() {
        let label = &result.labels[i];
        if let Some(v) = result.analytic_verdicts[i] {
            t.row(vec![
                label.clone(),
                "-".into(),
                "-".into(),
                format!("analytic: {}", if v.pckpt_wins { "p-ckpt" } else { "LM" }),
                "-".into(),
            ]);
            continue;
        }
        let base = cell.get(ModelKind::B);
        for (model, agg) in cell.models.iter().zip(&cell.aggregates) {
            t.row(vec![
                label.clone(),
                model.name().to_string(),
                format!("{:.2}", agg.total_hours.mean()),
                match base {
                    Some(b) if !std::ptr::eq(agg as *const Aggregate, b as *const Aggregate) => {
                        format!("{:+.1}%", agg.reduction_vs(b))
                    }
                    _ => "-".to_string(),
                },
                format!("{:.2}", agg.ft_ratio_pooled()),
            ]);
        }
    }
    println!("{t}");
    println!(
        "GRID_JSON {}",
        result.meta_json(&format!("cli_grid_{}", g.opts.app.to_ascii_lowercase()))
    );
    Ok(())
}

/// Ring capacity for `trace`: every record of one run, with room to
/// spare (a 240 h run emits a few thousand).
const TRACE_CAPACITY: usize = 1 << 20;

fn trace_run(model: ModelKind, opts: &SimOptions, run: usize, verbose: bool) -> Result<(), String> {
    print!("{}", trace_story(model, opts, run, verbose)?);
    Ok(())
}

/// The story of run `run` of a campaign with `opts`' seed, rendered from
/// the recording of the campaign's own one-unit path
/// ([`record_run`]). `verbose = false` skips the periodic
/// checkpoint/drain heartbeat and the state changes, and keeps the
/// fault-tolerance story (predictions, actions, failures).
fn trace_story(
    model: ModelKind,
    opts: &SimOptions,
    run: usize,
    verbose: bool,
) -> Result<String, String> {
    let mut params = build_params(opts)?;
    params.model = model;
    let leads = LeadTimeModel::desh_default();
    let (result, rec, trace) = record_run(&params, &leads, opts.seed, run, TRACE_CAPACITY);
    if rec.dropped > 0 {
        return Err(format!(
            "the run emitted {} records past the {TRACE_CAPACITY}-record ring; \
             its story would be truncated",
            rec.dropped
        ));
    }
    let mut out = format!(
        "run {run} of {} under {} (seed {}): {} failures, {} false alarms\n\n",
        params.app.name,
        model.name(),
        opts.seed,
        trace.failure_count(),
        trace.false_positives.len()
    );
    for r in &rec.records {
        let (node, flag) = kind::split_node_flag(r.a);
        let line = match r.kind {
            kind::STATE if verbose => format!("state → {}", state_name(r.a)),
            kind::BB_CKPT if verbose => "periodic checkpoint → burst buffers".to_string(),
            kind::DRAIN_DONE if verbose => {
                "async drain complete (ckpt now PFS-durable)".to_string()
            }
            kind::PREDICTION => format!(
                "prediction: node {node} fails in {:.1}s{}",
                f64::from_bits(r.b),
                if flag { "" } else { " [false alarm]" }
            ),
            kind::LM_START => format!("live migration started (node {node})"),
            kind::LM_COMMIT => format!("live migration complete — node {node} vacated"),
            kind::LM_ABORT => format!("live migration ABORTED (node {node}) — p-ckpt takes over"),
            kind::ROUND_START => "p-ckpt round: all nodes freeze".to_string(),
            kind::PHASE1_COMMIT => {
                format!("  phase 1: node {node} committed to PFS (mitigation point)")
            }
            kind::ROUND_COMPLETE => {
                "  phase 2 complete: checkpoint durable, computing resumes".to_string()
            }
            kind::SAFEGUARD_START => "safeguard commit: all nodes → PFS".to_string(),
            kind::SAFEGUARD_DONE => "safeguard commit complete".to_string(),
            kind::FAILURE => format!(
                "FAILURE on node {node} — {}",
                if flag { "MITIGATED" } else { "unmitigated" }
            ),
            kind::RECOVERY_START => {
                format!("recovery begins ({:.0}s of work lost)", f64::from_bits(r.b))
            }
            kind::RECOVERY_DONE => "recovery complete".to_string(),
            kind::COMPLETE => "application complete".to_string(),
            // The heartbeat when quiet, flow waves and queue records.
            _ => continue,
        };
        let hours = SimTime::from_nanos(r.t).as_hours();
        out.push_str(&format!("[{hours:>10.1}h] {line}\n"));
    }
    out.push_str(&format!(
        "\nwall {:.1} h (ideal {:.0} h) | ckpt {:.2} h, recomp {:.2} h, recovery {:.2} h | FT {:.2}\n",
        result.wall_secs / 3600.0,
        result.ideal_secs / 3600.0,
        result.ledger.ckpt_bucket_secs() / 3600.0,
        result.ledger.recomp_secs / 3600.0,
        result.ledger.recovery_secs / 3600.0,
        result.ledger.ft_ratio(),
    ));
    Ok(out)
}

fn logs_generate(opts: &LogGenOptions) -> Result<(), String> {
    use pckpt_failure::chains::{write_log, LogGenerator};
    use pckpt_simrng::SimRng;
    let mut rng = SimRng::seed_from(opts.seed);
    let window_secs = opts.months / 12.0 * 365.25 * 24.0 * 3600.0;
    let (log, truth) =
        LogGenerator::desh_default().generate(&mut rng, window_secs, opts.nodes, opts.failures);
    let file = std::fs::File::create(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out))?;
    let mut w = std::io::BufWriter::new(file);
    write_log(&mut w, &log).map_err(|e| format!("write failed: {e}"))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("flush failed: {e}"))?;
    println!(
        "wrote {} log lines ({} planted failures over {:.1} months on {} nodes) to {}",
        log.len(),
        truth.len(),
        opts.months,
        opts.nodes,
        opts.out
    );
    Ok(())
}

fn logs_analyze(path: &str) -> Result<(), String> {
    use pckpt_failure::chains::{read_log, ChainAnalyzer};
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let r = std::io::BufReader::new(file);
    let log = read_log(r)?;
    let report = ChainAnalyzer::desh_default().analyze(&log);
    println!("{}: {} lines, {} failure chains mined", path, log.len(), report.chains.len());
    let mut t = Table::new(vec!["seq", "instances", "mean lead (s)", "q1", "median", "q3"]);
    for (id, n, plot) in report.boxplots() {
        t.row(vec![
            format!("{id}"),
            format!("{n}"),
            format!("{:.1}", plot.mean),
            format!("{:.1}", plot.q1),
            format!("{:.1}", plot.median),
            format!("{:.1}", plot.q3),
        ]);
    }
    println!("{t}");
    let labels: Vec<(u32, &'static str)> = LeadTimeModel::desh_default()
        .sequences()
        .iter()
        .map(|s| (s.id, s.label))
        .collect();
    let mined = report.to_leadtime_model(&labels);
    println!(
        "mined lead-time model: {} sequences, mixture mean {:.1}s",
        mined.len(),
        mined.mean_secs()
    );
    Ok(())
}

fn lookup(app: &str) -> Result<Application, String> {
    app.parse()
}

fn build_params(opts: &SimOptions) -> Result<SimParams, String> {
    let app = lookup(&opts.app)?;
    let mut params = SimParams::with_distribution(ModelKind::B, app, opts.dist);
    params.lead_scale = opts.lead_scale;
    params.lm_transfer_factor = opts.alpha;
    params.predictor = params.predictor.with_false_negative_rate(opts.fn_rate);
    Ok(params)
}

fn simulate(models: &[ModelKind], opts: &SimOptions, knobs: &Knobs) -> Result<(), String> {
    let params = build_params(opts)?;
    let leads = LeadTimeModel::desh_default();
    println!(
        "{} on {} ({} nodes), {} runs, seed {}, leads x{:.2}, FN {:.0}%, alpha {:.1}",
        opts.dist.name,
        params.app.name,
        params.app.nodes,
        opts.runs,
        opts.seed,
        opts.lead_scale,
        opts.fn_rate * 100.0,
        opts.alpha,
    );
    let cells = [GridCell::new(params.clone(), models)];
    let grid = run_grid_filtered(
        &cells,
        &leads,
        &knobs.runner(opts.runs, opts.seed),
        knobs.prefilter.as_ref(),
    );
    let campaign = grid.cell(0);
    if let Some(v) = grid.analytic_verdicts[0] {
        // PCKPT_PREFILTER answered the cell analytically — report the
        // closed-form verdict instead of a simulated table.
        println!(
            "analytic pre-filter: {} wins the LM-vs-p-ckpt crossover \
             (alpha {:.2}, sigma {:.3}, clearance {:.0}% past the threshold); \
             unset PCKPT_PREFILTER to simulate this cell",
            if v.pckpt_wins { "p-ckpt" } else { "LM" },
            v.alpha,
            v.sigma,
            100.0 * v.clearance,
        );
        return Ok(());
    }
    let base = campaign.get(ModelKind::B);
    let mut t = Table::new(vec![
        "model",
        "ckpt (h)",
        "recomp (h)",
        "recovery (h)",
        "total (h)",
        "vs B",
        "FT ratio",
    ]);
    for (model, agg) in campaign.models.iter().zip(&campaign.aggregates) {
        t.row(vec![
            model.name().to_string(),
            format!("{:.2}", agg.ckpt_hours.mean()),
            format!("{:.2}", agg.recomp_hours.mean()),
            format!("{:.2}", agg.recovery_hours.mean()),
            format!("{:.2}", agg.total_hours.mean()),
            match base {
                Some(b) if !std::ptr::eq(agg as *const Aggregate, b as *const Aggregate) => {
                    format!("{:+.1}%", agg.reduction_vs(b))
                }
                _ => "-".to_string(),
            },
            format!("{:.2}", agg.ft_ratio_pooled()),
        ]);
    }
    println!("{t}");
    let first = &campaign.aggregates[0];
    println!(
        "{:.2} failures per run on average; wall time {:.1} h (ideal {:.0} h).",
        first.failures.mean(),
        first.wall_hours.mean(),
        params.app.compute_hours,
    );
    println!(
        "ran {} model lane(s) as {} execution unit(s) on {} thread(s); \
         trace cache hit rate {:.0}%",
        grid.lanes,
        grid.units,
        grid.threads,
        100.0 * grid.trace_cache_hit_rate(),
    );
    Ok(())
}

fn leads() -> Result<(), String> {
    let model = LeadTimeModel::desh_default();
    let mut t = Table::new(vec!["seq", "label", "mean (s)", "sd (s)", "occurrences"])
        .with_title("Lead-time model (Desh-calibrated, Fig. 2a)");
    for s in model.sequences() {
        t.row(vec![
            format!("{}", s.id),
            s.label.to_string(),
            format!("{:.0}", s.mean_secs),
            format!("{:.0}", s.sd_secs),
            format!("{}", s.occurrences),
        ]);
    }
    println!("{t}");
    println!("Mixture mean: {:.1} s", model.mean_secs());
    for threshold in [10.0, 30.0, 60.0, 120.0, 240.0] {
        println!(
            "  P(lead > {threshold:>5.0} s) = {:.3}",
            model.survival(threshold)
        );
    }
    Ok(())
}

fn io(app: &str) -> Result<(), String> {
    let app = lookup(app)?;
    let params = SimParams::paper_defaults(ModelKind::P2, app);
    let per_node = params.per_node_bytes();
    let pfs = &params.io.pfs;
    println!("{} — derived I/O latencies (Summit hierarchy)", app.name);
    println!("  checkpoint per node     : {:>10.2} GB", per_node / 1e9);
    println!("  BB write (periodic ckpt): {:>10.2} s", params.bb_write_secs());
    println!("  BB read  (recovery)     : {:>10.2} s", params.io.bb.read_secs(per_node));
    println!(
        "  PFS 1-node write (p-ckpt phase 1): {:>10.2} s",
        pfs.single_node_write_secs(per_node)
    );
    println!(
        "  PFS all-nodes write (safeguard)  : {:>10.2} s",
        pfs.write_secs(app.nodes, per_node)
    );
    println!(
        "  PFS all-nodes read (recovery)    : {:>10.2} s",
        pfs.read_secs(app.nodes, per_node)
    );
    println!("  LM transfer theta                : {:>10.2} s", params.theta_secs());
    println!(
        "  OCI (Eq. 1, Titan rates)         : {:>10.2} h",
        pckpt_core::oci::young_oci_secs(
            params.bb_write_secs(),
            params.distribution.job_rate(app.nodes)
        ) / 3600.0
    );
    Ok(())
}

fn apps() -> Result<(), String> {
    let mut t = Table::new(vec![
        "application",
        "nodes",
        "ckpt total (GB)",
        "ckpt/node (GB)",
        "compute (h)",
    ])
    .with_title("Table I — workload characteristics");
    for app in &TABLE_I {
        t.row(vec![
            app.name.to_string(),
            format!("{}", app.nodes),
            format!("{:.1}", app.checkpoint_total / 1e9),
            format!("{:.2}", app.checkpoint_per_node_gb()),
            format!("{:.0}", app.compute_hours),
        ]);
    }
    println!("{t}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::SimOptions;

    #[test]
    fn build_params_applies_overrides() {
        let opts = SimOptions {
            app: "XGC".into(),
            lead_scale: 0.5,
            alpha: 2.0,
            fn_rate: 0.4,
            ..Default::default()
        };
        let p = build_params(&opts).unwrap();
        assert_eq!(p.app.name, "XGC");
        assert_eq!(p.lead_scale, 0.5);
        assert_eq!(p.lm_transfer_factor, 2.0);
        assert!((p.predictor.recall() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn unknown_app_is_reported() {
        let opts = SimOptions {
            app: "NOPE".into(),
            ..Default::default()
        };
        let err = build_params(&opts).unwrap_err();
        assert!(err.contains("unknown application"));
        assert!(err.contains("CHIMERA"));
    }

    #[test]
    fn informational_commands_run() {
        leads().unwrap();
        io("POP").unwrap();
        apps().unwrap();
        assert!(io("NOPE").is_err());
    }

    #[test]
    fn logs_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("pckpt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synthetic.log");
        let path_str = path.to_str().unwrap().to_string();
        logs_generate(&LogGenOptions {
            out: path_str.clone(),
            nodes: 64,
            failures: 80,
            months: 1.0,
            seed: 9,
        })
        .unwrap();
        logs_analyze(&path_str).unwrap();
        assert!(logs_analyze("/nonexistent/file.log").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn grid_small_sweep_runs_in_process() {
        let g = GridOptions {
            opts: SimOptions {
                app: "XGC".into(),
                runs: 2,
                ..Default::default()
            },
            scales: vec![1.0, 0.5],
            models: vec![ModelKind::B, ModelKind::P2],
        };
        grid(&g, &Knobs::default()).unwrap();
    }

    #[test]
    fn trace_tells_the_recorded_story() {
        let opts = SimOptions {
            app: "XGC".into(),
            ..Default::default()
        };
        // The quiet story, byte for byte.
        let quiet = trace_story(ModelKind::P2, &opts, 3, false).unwrap();
        assert_eq!(
            quiet,
            "run 3 of XGC under P2 (seed 42): 17 failures, 3 false alarms

[     128.1h] prediction: node 1424 fails in 66.5s
[     128.1h] live migration started (node 1424)
[     128.1h] live migration complete — node 1424 vacated
[     157.6h] prediction: node 949 fails in 25.3s
[     157.6h] p-ckpt round: all nodes freeze
[     157.6h]   phase 1: node 949 committed to PFS (mitigation point)
[     157.6h] FAILURE on node 949 — MITIGATED
[     157.6h] recovery begins (0s of work lost)
[     157.6h] recovery complete
[     182.5h] prediction: node 1192 fails in 26.0s
[     182.5h] p-ckpt round: all nodes freeze
[     182.5h]   phase 1: node 1192 committed to PFS (mitigation point)
[     182.5h] FAILURE on node 1192 — MITIGATED
[     182.5h] recovery begins (0s of work lost)
[     182.5h] recovery complete
[     241.1h] application complete

wall 241.1 h (ideal 240 h) | ckpt 1.11 h, recomp 0.00 h, recovery 0.02 h | FT 1.00
"
        );
        // Verbose adds the heartbeat and every state change around the
        // same lines, in the same order.
        let loud = trace_story(ModelKind::P2, &opts, 3, true).unwrap();
        let mut rest = loud.lines();
        for line in quiet.lines() {
            assert!(rest.any(|l| l == line), "verbose story lost {line:?}");
        }
        for beat in [
            "state → p-ckpt round",
            "state → done",
            "burst buffers",
            "PFS-durable",
        ] {
            assert!(loud.contains(beat), "verbose story lacks {beat:?}");
        }
        trace_run(ModelKind::B, &opts, 0, false).unwrap();
    }

    #[test]
    fn simulate_small_campaign_runs() {
        let opts = SimOptions {
            app: "VULCAN".into(),
            runs: 2,
            ..Default::default()
        };
        simulate(&[ModelKind::B], &opts, &Knobs::default()).unwrap();
        simulate(&ModelKind::ALL, &opts, &Knobs::default()).unwrap();
    }
}
