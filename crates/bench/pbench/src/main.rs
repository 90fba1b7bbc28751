//! `pbench` — end-to-end and per-layer benchmark of the p-ckpt
//! simulator (paper bins through `run_grid`) and of the `pckptd`
//! campaign service (requests through `pckpt_service::respond`).
//!
//! ```text
//! pbench measure --workload W --seed S --seconds T --trace 0|1 [--quick]
//! pbench run     [--seed S] [--seconds T] [--quick] [--out FILE]
//! pbench trace   --workload W [--seed S] [--seconds T] [--quick]
//! pbench compare A.json B.json
//! ```
//!
//! `measure` is one workload in this process; its last stdout line is
//! the result object BENCHMARK.json's command contract asks for. `run`
//! measures every workload, each in its own child process, and writes
//! one JSON file; `compare` applies BENCHMARK.json's bounds to two such
//! files. See README.md beside this package.

mod golden;
mod grid;
mod inputs;
mod measure;
mod report;
mod service;
mod stats;

use std::process::ExitCode;

use inputs::{Workload, DEFAULT_SEED};
use measure::RunSpec;
use pckpt_service::json::{parse, Json};
use report::{Better, Host, Outcome, Tracer};

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  pbench measure --workload W --seed S --seconds T --trace 0|1 [--quick]\n  \
         pbench run [--seed S] [--seconds T] [--quick] [--out FILE]\n  \
         pbench trace --workload W [--seed S] [--seconds T] [--quick]\n  \
         pbench compare A.json B.json\nworkloads:"
    );
    for w in Workload::ALL {
        eprintln!("  {:<16} {}", w.name(), w.why());
    }
    ExitCode::from(2)
}

/// Parsed `--flag value` options.
#[derive(Debug, Default)]
struct Opts {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => {
                let v = value(a)?;
                o.workload =
                    Some(Workload::by_name(&v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => o.seed = Some(value(a)?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value(a)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value(a)?),
            s if s.starts_with("--") => return Err(format!("unknown option '{s}'")),
            s => o.positional.push(s.to_string()),
        }
    }
    Ok(o)
}

/// Refuses to measure with any `PCKPT_*` knob set: every config the
/// benchmark builds is explicit, and a knob would silently change what
/// the program under test does.
fn check_env() -> Result<(), String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PCKPT_"))
        .collect();
    set.sort();
    match set.first() {
        Some(k) => Err(format!(
            "refusing to run with {k} set ({} PCKPT_* variable(s) in the environment); unset them first",
            set.len()
        )),
        None => Ok(()),
    }
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn run_seconds() -> f64 {
    parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .expect("BENCHMARK.json names run_seconds")
}

fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("target").join("pbench")
}

/// Runs one workload in this process.
fn run_one(spec: &RunSpec, traced: bool) -> (Outcome, Host) {
    let calib_ms_before = report::calibrate_ms();
    let mut tracer = Tracer::default();
    let mut outcome = if traced {
        measure::trace(spec, &mut tracer)
    } else {
        measure::measure(spec)
    };
    let missing = outcome.missing();
    if !missing.is_empty() {
        outcome.attempted += 1;
        outcome.fail(format!("metrics not measured: {}", missing.join(", ")));
    }
    for (name, secs) in tracer.self_times() {
        outcome
            .extra
            .push((format!("span.{name}.self_ms"), secs * 1e3, "ms"));
    }
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        op_threads: measure::OP_THREADS,
        pool_threads: spec.pool_threads,
        loadavg: report::loadavg(),
        calib_ms_before,
        calib_ms_after: report::calibrate_ms(),
    };
    if traced {
        let path = out_dir().join(format!("trace-{}.json", spec.workload.name()));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => eprintln!(
                "pbench: {} spans written to {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("pbench: could not write {}: {e}", path.display()),
        }
    }
    (outcome, host)
}

fn cmd_measure(o: &Opts, print_table_to_stdout: bool) -> ExitCode {
    let Some(workload) = o.workload else {
        return usage();
    };
    let spec = RunSpec {
        workload,
        seed: o.seed.unwrap_or(DEFAULT_SEED),
        seconds: o
            .seconds
            .unwrap_or(if o.quick { 0.0 } else { run_seconds() }),
        quick: o.quick,
        pool_threads: threads(),
    };
    let (outcome, host) = run_one(&spec, o.trace);
    if print_table_to_stdout {
        report::print_outcome(&outcome, &mut std::io::stdout());
    } else {
        report::print_outcome(&outcome, &mut std::io::stderr());
    }
    println!(
        "DETAIL {}",
        report::detail_json(&outcome, &host, spec.seed, spec.seconds, spec.quick)
    );
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}

fn cmd_run(o: &Opts) -> ExitCode {
    let seed = o.seed.unwrap_or(DEFAULT_SEED);
    let seconds = o
        .seconds
        .unwrap_or(if o.quick { 0.0 } else { run_seconds() });
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut details = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "measure",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ]);
        cmd.args(["--seconds", &seconds.to_string(), "--trace", "0"]);
        if o.quick {
            cmd.arg("--quick");
        }
        let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("pbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let detail = stdout.lines().find_map(|l| l.strip_prefix("DETAIL "));
        match (output.status.success(), detail) {
            (true, Some(d)) => {
                let correct = parse(d)
                    .ok()
                    .and_then(|j| j.get("correct").and_then(Json::as_bool));
                ok &= correct == Some(true);
                details.push(d.to_string());
            }
            _ => {
                eprintln!(
                    "pbench: {} exited with {} and no result",
                    w.name(),
                    output.status
                );
                ok = false;
            }
        }
    }
    let doc = format!(
        "{{\"seed\":{seed},\"quick\":{},\"workloads\":[{}]}}\n",
        o.quick,
        details.join(",")
    );
    let path = o
        .out
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            out_dir().join(format!(
                "run-{seed}{}.json",
                if o.quick { "-quick" } else { "" }
            ))
        });
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, doc) {
        Ok(()) => println!("pbench: wrote {}", path.display()),
        Err(e) => {
            eprintln!("pbench: write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end bounds BENCHMARK.json fixes: name → share of the base
/// median a metric may worsen by.
fn bounds() -> Vec<(String, f64)> {
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// One compared (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// The comparison rule: a pair whose quartile spread on either side is
/// wider than its bound is unresolved; otherwise the new median is
/// worse (or better) when it moved past the bound in that direction.
fn verdict(better: Better, bound: f64, base: (f64, f64), new: (f64, f64)) -> Verdict {
    let ((base_v, base_spread), (new_v, new_spread)) = (base, new);
    if base_spread > bound || new_spread > bound {
        return Verdict::Unresolved;
    }
    let ratio = new_v / base_v;
    let (worse, improved) = match better {
        Better::Lower => (ratio > 1.0 + bound, ratio < 1.0 - bound),
        Better::Higher => (ratio < 1.0 - bound, ratio > 1.0 + bound),
    };
    if worse {
        Verdict::Worse
    } else if improved {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load_run(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

fn workload_entries(doc: &Json) -> Vec<&Json> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .map(|a| a.iter().collect())
        .unwrap_or_default()
}

fn cmd_compare(o: &Opts) -> ExitCode {
    let [a, b] = &o.positional[..] else {
        return usage();
    };
    let (base, new) = match (load_run(a), load_run(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = bounds();
    let mut any_worse = false;
    println!(
        "{:<16} {:<18} {:<10} ratio (new/base) and base",
        "workload", "metric", "verdict"
    );
    for bw in workload_entries(&base) {
        let Some(name) = bw.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let Some(nw) = workload_entries(&new)
            .into_iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<16} {:<18} missing in {b}", "-");
            any_worse = true;
            continue;
        };
        for (metric, bound) in &bounds {
            let Some(def) = report::metric_def(metric) else {
                continue;
            };
            let stat = |w: &Json| -> Option<(f64, f64)> {
                let m = w.get("metrics")?.get(metric)?;
                let num = |k: &str| m.get(k).and_then(Json::as_f64);
                let q = stats::Quartiles {
                    q1: num("q1")?,
                    median: num("median")?,
                    q3: num("q3")?,
                    n: m.get("n")?.as_u64()? as usize,
                };
                Some((num("value")?, q.rel_spread()))
            };
            let (Some(sb), Some(sn)) = (stat(bw), stat(nw)) else {
                println!("{name:<16} {metric:<18} missing");
                any_worse = true;
                continue;
            };
            let v = verdict(def.better, *bound, sb, sn);
            any_worse |= v == Verdict::Worse;
            println!(
                "{name:<16} {metric:<18} {:<10} {:.4} (new {:.6} / base {:.6} {}; spreads {:.3} / {:.3}, bound {bound})",
                format!("{v:?}").to_lowercase(),
                sn.0 / sb.0,
                sn.0,
                sb.0,
                def.unit,
                sn.1,
                sb.1,
            );
        }
        let counts = |w: &Json| match w.get("counts") {
            Some(Json::Obj(m)) => m.iter().map(|(k, v)| (k.clone(), v.as_f64())).collect(),
            _ => Vec::new(),
        };
        let (cb, cn) = (counts(bw), counts(nw));
        for (k, v) in &cb {
            let other = cn.iter().find(|(k2, _)| k2 == k).and_then(|(_, v)| *v);
            let same = other == *v;
            any_worse |= !same;
            println!(
                "{name:<16} {k:<18} {:<10} count {} vs {}",
                if same { "same" } else { "differs" },
                v.map_or("-".into(), report::num),
                other.map_or("-".into(), report::num)
            );
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pbench: {e}");
            return usage();
        }
    };
    if cmd != "compare" {
        if let Err(e) = check_env() {
            eprintln!("pbench: {e}");
            return ExitCode::from(2);
        }
    }
    match cmd.as_str() {
        "measure" => cmd_measure(&opts, false),
        "trace" => cmd_measure(
            &Opts {
                trace: true,
                ..opts
            },
            true,
        ),
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_pbench_emits() {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(d.better.as_str())
                );
            }
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name()));
        for w in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
        {
            let name = w.get("name").and_then(Json::as_str).expect("name");
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert_eq!(Workload::by_name(name).map(|x| x.why()), Some(why));
        }
        assert!(bounds().iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn compare_rule() {
        use Verdict::*;
        let lower = |b, n| verdict(report::Better::Lower, 0.1, b, n);
        assert_eq!(lower((100.0, 0.02), (105.0, 0.02)), Same);
        assert_eq!(lower((100.0, 0.02), (120.0, 0.02)), Worse);
        assert_eq!(lower((100.0, 0.02), (80.0, 0.02)), Better);
        assert_eq!(lower((100.0, 0.2), (80.0, 0.02)), Unresolved);
        let higher = |b, n| verdict(report::Better::Higher, 0.1, b, n);
        assert_eq!(higher((100.0, 0.0), (80.0, 0.0)), Worse);
        assert_eq!(higher((100.0, 0.0), (120.0, 0.0)), Better);
    }

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args(
            "--workload lanl_panel --seed 3 --seconds 2.5 --trace 1 --quick",
        ))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::LanlPanel));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (Some(3), Some(2.5), true, true)
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds -1",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }
}
