//! Minimal argument parsing (no external parser crates on the approved
//! dependency list — the grammar is small enough to hand-roll and test).

use pckpt_core::ModelKind;
use pckpt_failure::FailureDistribution;

/// CLI usage text.
pub const USAGE: &str = "\
usage:
  pckpt simulate --app <NAME> --model <B|M1|M2|P1|P2> [common options]
  pckpt compare  --app <NAME> [common options]
  pckpt leads
  pckpt io --app <NAME>
  pckpt apps
  pckpt logs generate --out <FILE> [--nodes 400] [--failures 900]
                      [--months 6] [--seed 42]
  pckpt logs analyze --in <FILE>
  pckpt trace --app <NAME> --model <B|M1|M2|P1|P2> [--run 0] [--verbose true]
              [common options]
  pckpt grid  --app <NAME> [--scales 1.5,1,0.5] [--models B,P2]
              [common options]

common options:
  --runs <N>          Monte-Carlo runs (default 400)
  --seed <N>          master seed (default 42)
  --dist <D>          titan | lanl8 | lanl18 (default titan)
  --lead-scale <F>    lead-time scaling, e.g. 0.5 = -50% (default 1.0)
  --fn-rate <F>       predictor false-negative rate (default 0.15)
  --alpha <F>         LM transfer factor (default 3.0)

environment:
  PCKPT_RUNS=auto[:target[:cap]]  adaptive CI-driven run allocation
  PCKPT_VR=antithetic,stratified[:K]  variance-reduced trace generation";

/// Options shared by the simulation subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Application name (Table I).
    pub app: String,
    /// Monte-Carlo runs.
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Failure distribution.
    pub dist: FailureDistribution,
    /// Lead-time scaling factor.
    pub lead_scale: f64,
    /// False-negative rate.
    pub fn_rate: f64,
    /// LM transfer factor α.
    pub alpha: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            app: String::new(),
            runs: 400,
            seed: 42,
            dist: FailureDistribution::OLCF_TITAN,
            lead_scale: 1.0,
            fn_rate: 0.15,
            alpha: 3.0,
        }
    }
}

/// Options for `logs generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogGenOptions {
    /// Output path.
    pub out: String,
    /// Node count of the synthetic system.
    pub nodes: u32,
    /// Failures to plant.
    pub failures: usize,
    /// Log window length in months.
    pub months: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Options for the `grid` subcommand: a lead-time sweep of one
/// application across several models.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOptions {
    /// Common simulation options (`lead_scale` is ignored — the sweep
    /// covers `scales` instead).
    pub opts: SimOptions,
    /// Lead-time scales, one grid cell per entry.
    pub scales: Vec<f64>,
    /// Models simulated in every cell.
    pub models: Vec<ModelKind>,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One model on one application.
    Simulate(ModelKind, SimOptions),
    /// All five models, paired traces.
    Compare(SimOptions),
    /// Print the lead-time model.
    Leads,
    /// Print derived I/O latencies for one app.
    Io(String),
    /// Print Table I.
    Apps,
    /// Generate a synthetic log file.
    LogsGenerate(LogGenOptions),
    /// Narrate one run of one model (run index, verbose flag).
    Trace(ModelKind, SimOptions, usize, bool),
    /// Mine failure chains from a log file.
    LogsAnalyze(String),
    /// A lead-time sweep grid.
    Grid(GridOptions),
}

/// The common options, which build a campaign's [`SimOptions`].
const COMMON: &[&str] = &[
    "--app",
    "--runs",
    "--seed",
    "--dist",
    "--lead-scale",
    "--fn-rate",
    "--alpha",
];

/// Parses an argument vector into a [`Command`].
///
/// Each subcommand names every option it reads in its `reject_unused`
/// call; any other option is an error, never silently ignored.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    match sub.as_str() {
        "leads" => expect_end(it).map(|()| Command::Leads),
        "apps" => expect_end(it).map(|()| Command::Apps),
        "io" => {
            let (opts, given) = parse_options(it)?;
            reject_unused(&given, &["--app"])?;
            if opts.app.is_empty() {
                return Err("io requires --app".into());
            }
            Ok(Command::Io(opts.app))
        }
        "simulate" => {
            let (opts, given) = parse_options(it)?;
            reject_unused(&given, &[COMMON, &["--model"]].concat())?;
            let model = extract_model(&given, "simulate")?;
            if opts.app.is_empty() {
                return Err("simulate requires --app".into());
            }
            Ok(Command::Simulate(model, opts))
        }
        "compare" => {
            let (opts, given) = parse_options(it)?;
            reject_unused(&given, COMMON)?;
            if opts.app.is_empty() {
                return Err("compare requires --app".into());
            }
            Ok(Command::Compare(opts))
        }
        "logs" => parse_logs(it),
        "grid" => parse_grid(it).map(Command::Grid),
        "trace" => {
            let (opts, given) = parse_options(it)?;
            // One run: `--run` picks it, so `--runs` has no meaning here.
            let reads = [
                "--app",
                "--seed",
                "--dist",
                "--lead-scale",
                "--fn-rate",
                "--alpha",
                "--model",
                "--run",
                "--verbose",
            ];
            reject_unused(&given, &reads)?;
            let model = extract_model(&given, "trace")?;
            if opts.app.is_empty() {
                return Err("trace requires --app".into());
            }
            let run = extract_kv(&given, "--run")?.unwrap_or(0);
            let verbose = extract_kv::<bool>(&given, "--verbose")?.unwrap_or(false);
            Ok(Command::Trace(model, opts, run, verbose))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn parse_logs<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<Command, String> {
    let action = it.next().ok_or("logs requires generate|analyze")?;
    match action.as_str() {
        "generate" => {
            let mut opts = LogGenOptions {
                out: String::new(),
                nodes: 400,
                failures: 900,
                months: 6.0,
                seed: 42,
            };
            while let Some(key) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option {key} requires a value"))?;
                match key.as_str() {
                    "--out" => opts.out = value.clone(),
                    "--nodes" => opts.nodes = parse_num(key, value)?,
                    "--failures" => opts.failures = parse_num(key, value)?,
                    "--months" => opts.months = parse_float(key, value, 0.1, 120.0)?,
                    "--seed" => opts.seed = parse_num(key, value)?,
                    other => return Err(format!("unknown option {other:?}")),
                }
            }
            if opts.out.is_empty() {
                return Err("logs generate requires --out".into());
            }
            if opts.nodes == 0 || opts.failures == 0 {
                return Err("--nodes and --failures must be positive".into());
            }
            Ok(Command::LogsGenerate(opts))
        }
        "analyze" => {
            let mut input = String::new();
            while let Some(key) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option {key} requires a value"))?;
                match key.as_str() {
                    "--in" => input = value.clone(),
                    other => return Err(format!("unknown option {other:?}")),
                }
            }
            if input.is_empty() {
                return Err("logs analyze requires --in".into());
            }
            Ok(Command::LogsAnalyze(input))
        }
        other => Err(format!("unknown logs action {other:?}")),
    }
}

fn parse_grid<'a>(it: impl Iterator<Item = &'a String>) -> Result<GridOptions, String> {
    let (opts, given) = parse_options(it)?;
    if opts.app.is_empty() {
        return Err("grid requires --app".into());
    }
    // The sweep's lead scales come from `--scales`, or else from the one
    // `--lead-scale`; it never reads both.
    let scale_option = if value_of(&given, "--scales").is_some() {
        "--scales"
    } else {
        "--lead-scale"
    };
    let reads = [
        "--app",
        "--runs",
        "--seed",
        "--dist",
        "--fn-rate",
        "--alpha",
        "--models",
        scale_option,
    ];
    reject_unused(&given, &reads)?;
    let scales = match extract_kv::<String>(&given, "--scales")? {
        None => vec![opts.lead_scale],
        Some(csv) => csv
            .split(',')
            .map(|s| parse_float("--scales", s.trim(), 0.01, 10.0))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let models = match extract_kv::<String>(&given, "--models")? {
        None => vec![ModelKind::B, ModelKind::P2],
        Some(csv) => csv
            .split(',')
            .map(|s| {
                ModelKind::by_name(s.trim())
                    .ok_or_else(|| format!("--models: unknown model {s:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    if scales.is_empty() || models.is_empty() {
        return Err("--scales and --models must be non-empty".into());
    }
    Ok(GridOptions {
        opts,
        scales,
        models,
    })
}

fn expect_end<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<(), String> {
    match it.next() {
        None => Ok(()),
        Some(x) => Err(format!("unexpected argument {x:?}")),
    }
}

/// Parses `--key value` pairs; returns the common options plus every
/// pair as given, in order. The caller reads its subcommand-specific
/// options (`--model`, `--run`, ...) from the pairs and must reject
/// every option it does not read with [`reject_unused`]. A key given
/// twice is an error, so no option has two values to choose between.
fn parse_options<'a>(
    mut it: impl Iterator<Item = &'a String>,
) -> Result<(SimOptions, Vec<String>), String> {
    let mut opts = SimOptions::default();
    let mut given: Vec<String> = Vec::new();
    while let Some(key) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("option {key} requires a value"))?;
        if given.iter().step_by(2).any(|k| k == key) {
            return Err(format!("option {key} given twice"));
        }
        given.push(key.clone());
        given.push(value.clone());
        match key.as_str() {
            "--app" => opts.app = value.clone(),
            "--runs" => opts.runs = parse_num(key, value)?,
            "--seed" => opts.seed = parse_num(key, value)?,
            "--lead-scale" => opts.lead_scale = parse_float(key, value, 0.01, 10.0)?,
            "--fn-rate" => opts.fn_rate = parse_float(key, value, 0.0, 1.0)?,
            "--alpha" => opts.alpha = parse_float(key, value, 0.1, 100.0)?,
            "--dist" => {
                opts.dist = FailureDistribution::by_name(value)
                    .ok_or_else(|| format!("unknown distribution {value:?}"))?
            }
            "--model" | "--run" | "--verbose" | "--scales" | "--models" => {}
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok((opts, given))
}

/// Rejects the first given option (see [`parse_options`]) that is not in
/// `used`, the options the subcommand reads.
fn reject_unused(given: &[String], used: &[&str]) -> Result<(), String> {
    match given
        .iter()
        .step_by(2)
        .find(|k| !used.contains(&k.as_str()))
    {
        Some(k) => Err(format!("unexpected option {k}")),
        None => Ok(()),
    }
}

/// The value of the first `key` among the given pairs (see
/// [`parse_options`]), if present.
fn value_of<'a>(given: &'a [String], key: &str) -> Option<&'a String> {
    given
        .chunks_exact(2)
        .find(|pair| pair[0] == key)
        .map(|pair| &pair[1])
}

/// Pulls an optional `--key value` pair out of the given pairs.
fn extract_kv<T: std::str::FromStr>(given: &[String], key: &str) -> Result<Option<T>, String> {
    match value_of(given, key) {
        None => Ok(None),
        Some(value) => value
            .parse()
            .map(Some)
            .map_err(|_| format!("{key}: cannot parse {value:?}")),
    }
}

fn extract_model(given: &[String], subcommand: &str) -> Result<ModelKind, String> {
    let value =
        value_of(given, "--model").ok_or_else(|| format!("{subcommand} requires --model"))?;
    ModelKind::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(value))
        .ok_or_else(|| format!("unknown model {value:?} (use B, M1, M2, P1 or P2)"))
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{key}: cannot parse {value:?}"))
}

fn parse_float(key: &str, value: &str, lo: f64, hi: f64) -> Result<f64, String> {
    let x: f64 = parse_num(key, value)?;
    if !(lo..=hi).contains(&x) {
        return Err(format!("{key}: {x} out of range [{lo}, {hi}]"));
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_simulate() {
        let cmd = parse(&v(&[
            "simulate", "--app", "XGC", "--model", "p2", "--runs", "10", "--lead-scale", "0.5",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate(model, opts) => {
                assert_eq!(model, ModelKind::P2);
                assert_eq!(opts.app, "XGC");
                assert_eq!(opts.runs, 10);
                assert_eq!(opts.lead_scale, 0.5);
                assert_eq!(opts.seed, 42, "default seed");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn dangling_flags_error_instead_of_panicking() {
        // A trailing key with no value used to index past the end.
        let err = parse(&v(&["simulate", "--app", "XGC", "--model"])).unwrap_err();
        assert!(err.contains("--model requires a value"), "got: {err}");
        let err = parse(&v(&["simulate", "--app", "XGC", "--model", "p2", "--run"])).unwrap_err();
        assert!(err.contains("--run requires a value"), "got: {err}");
    }

    #[test]
    fn repeated_options_are_rejected() {
        let err = parse(&v(&[
            "simulate", "--app", "XGC", "--model", "B", "--model", "P2", "--runs", "2",
        ]))
        .unwrap_err();
        assert_eq!(err, "option --model given twice");
        let err = parse(&v(&[
            "simulate", "--app", "XGC", "--model", "B", "--runs", "2", "--runs", "3",
        ]))
        .unwrap_err();
        assert_eq!(err, "option --runs given twice");
        let err = parse(&v(&["grid", "--app", "XGC", "--scales", "1", "--scales", "2"]))
            .unwrap_err();
        assert_eq!(err, "option --scales given twice");
    }

    #[test]
    fn unknown_app_error_lists_the_catalog() {
        use pckpt_workloads::Application;
        let err = "NOPE".parse::<Application>().unwrap_err();
        assert!(err.contains("unknown application"), "got: {err}");
        assert!(err.contains("CHIMERA") && err.contains("VULCAN"), "got: {err}");
    }

    #[test]
    fn parses_compare_with_distribution() {
        let cmd = parse(&v(&["compare", "--app", "POP", "--dist", "lanl18"])).unwrap();
        match cmd {
            Command::Compare(opts) => {
                assert_eq!(opts.dist, FailureDistribution::LANL_SYSTEM_18)
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_bare_subcommands() {
        assert_eq!(parse(&v(&["leads"])).unwrap(), Command::Leads);
        assert_eq!(parse(&v(&["apps"])).unwrap(), Command::Apps);
        assert_eq!(
            parse(&v(&["io", "--app", "S3D"])).unwrap(),
            Command::Io("S3D".into())
        );
    }

    #[test]
    fn parses_logs_subcommands() {
        let cmd = parse(&v(&[
            "logs", "generate", "--out", "/tmp/x.log", "--nodes", "64", "--failures", "50",
            "--months", "1", "--seed", "7",
        ]))
        .unwrap();
        match cmd {
            Command::LogsGenerate(o) => {
                assert_eq!(o.out, "/tmp/x.log");
                assert_eq!(o.nodes, 64);
                assert_eq!(o.failures, 50);
                assert_eq!(o.months, 1.0);
                assert_eq!(o.seed, 7);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(
            parse(&v(&["logs", "analyze", "--in", "f.log"])).unwrap(),
            Command::LogsAnalyze("f.log".into())
        );
        assert!(parse(&v(&["logs"])).is_err());
        assert!(parse(&v(&["logs", "generate"])).is_err()); // no --out
        assert!(parse(&v(&["logs", "analyze"])).is_err()); // no --in
        assert!(parse(&v(&["logs", "prune"])).is_err());
        assert!(parse(&v(&["logs", "generate", "--out", "x", "--nodes", "0"])).is_err());
    }

    #[test]
    fn parses_grid_with_sweep() {
        let cmd = parse(&v(&[
            "grid", "--app", "XGC", "--scales", "1.5,1,0.5", "--models", "b,P2", "--runs", "12",
            "--seed", "61",
        ]))
        .unwrap();
        match cmd {
            Command::Grid(g) => {
                assert_eq!(g.opts.app, "XGC");
                assert_eq!(g.scales, vec![1.5, 1.0, 0.5]);
                assert_eq!(g.models, vec![ModelKind::B, ModelKind::P2]);
                assert_eq!(g.opts.runs, 12);
                assert_eq!(g.opts.seed, 61);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: one cell at --lead-scale, B + P2.
        match parse(&v(&["grid", "--app", "POP", "--lead-scale", "0.9"])).unwrap() {
            Command::Grid(g) => {
                assert_eq!(g.scales, vec![0.9]);
                assert_eq!(g.models, vec![ModelKind::B, ModelKind::P2]);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn grid_rejects_bad_input() {
        assert!(parse(&v(&["grid", "--scales", "1"])).is_err()); // no app
        assert!(parse(&v(&["grid", "--app", "XGC", "--models", "Z9"])).is_err());
        assert!(parse(&v(&["grid", "--app", "XGC", "--scales", "nope"])).is_err());
        assert!(parse(&v(&["grid", "--app", "XGC", "--model", "P2"])).is_err());
        assert!(parse(&v(&["grid", "--app", "XGC", "--run", "1"])).is_err());
    }

    #[test]
    fn grid_rejects_lead_scale_beside_scales() {
        // `--scales` sets every cell's lead scale, so `--lead-scale`
        // would be dropped without a word.
        let err = parse(&v(&[
            "grid", "--app", "XGC", "--lead-scale", "0.5", "--scales", "1.5",
        ]))
        .unwrap_err();
        assert_eq!(err, "unexpected option --lead-scale");
    }

    #[test]
    fn io_reads_only_the_app() {
        for [flag, value] in [
            ["--dist", "lanl18"],
            ["--seed", "9"],
            ["--runs", "3"],
            ["--lead-scale", "0.5"],
            ["--fn-rate", "0.2"],
            ["--alpha", "2"],
            ["--model", "P2"],
        ] {
            let err = parse(&v(&["io", "--app", "XGC", flag, value])).unwrap_err();
            assert_eq!(err, format!("unexpected option {flag}"));
        }
    }

    #[test]
    fn trace_rejects_runs() {
        // `trace` narrates the one run `--run` picks.
        let err = parse(&v(&[
            "trace", "--app", "XGC", "--model", "B", "--runs", "7",
        ]))
        .unwrap_err();
        assert_eq!(err, "unexpected option --runs");
    }

    #[test]
    fn process_sharding_is_gone() {
        let err = parse(&v(&["grid", "--app", "XGC", "--shards", "2"])).unwrap_err();
        assert_eq!(err, r#"unknown option "--shards""#);
        let err = parse(&v(&["shard", "--app", "XGC", "--scales", "1"])).unwrap_err();
        assert_eq!(err, r#"unknown subcommand "shard""#);
    }

    #[test]
    fn simulate_and_trace_reject_flags_they_do_not_read() {
        let grid_flags = [["--scales", "0.5"], ["--models", "B"]];
        for [flag, value] in [["--run", "1"], ["--verbose", "true"]]
            .iter()
            .chain(&grid_flags)
        {
            let err = parse(&v(&[
                "simulate", "--app", "XGC", "--model", "P2", flag, value,
            ]))
            .unwrap_err();
            assert_eq!(err, format!("unexpected option {flag}"));
        }
        for [flag, value] in &grid_flags {
            let err =
                parse(&v(&["trace", "--app", "XGC", "--model", "P2", flag, value])).unwrap_err();
            assert_eq!(err, format!("unexpected option {flag}"));
        }
        // What each one reads is still accepted.
        let trace = ["trace", "--app", "XGC", "--model", "P2", "--run", "3"];
        assert!(matches!(
            parse(&v(&[&trace[..], &["--verbose", "true"]].concat())),
            Ok(Command::Trace(ModelKind::P2, _, 3, true))
        ));
    }

    #[test]
    fn missing_model_error_names_the_subcommand() {
        for sub in ["simulate", "trace"] {
            let err = parse(&v(&[sub, "--app", "XGC"])).unwrap_err();
            assert_eq!(err, format!("{sub} requires --model"));
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&[])).is_err());
        assert!(parse(&v(&["nope"])).is_err());
        assert!(parse(&v(&["simulate", "--app", "XGC"])).is_err()); // no model
        assert!(parse(&v(&["simulate", "--model", "P2"])).is_err()); // no app
        assert!(parse(&v(&["simulate", "--app", "XGC", "--model", "Z9"])).is_err());
        assert!(parse(&v(&["compare", "--app", "XGC", "--runs"])).is_err()); // dangling
        assert!(parse(&v(&["compare", "--app", "XGC", "--runs", "0"])).is_err());
        assert!(parse(&v(&["compare", "--app", "XGC", "--fn-rate", "1.5"])).is_err());
        assert!(parse(&v(&["compare", "--app", "XGC", "--dist", "cori"])).is_err());
        assert!(parse(&v(&["leads", "extra"])).is_err());
        assert!(parse(&v(&["compare", "--app", "X", "--model", "P1"])).is_err());
    }
}
