//! Aligns the structured event streams of two single runs by causal id
//! and reports the first divergent event (sim-time, kind, payload, and
//! causal parent), or confirms the streams are identical.
//!
//! Usage: `trace_diff [app] [model] [mode] [seed_a] [seed_b]`
//! (defaults: `XGC P2 analytic 1 2`). A default build compares the
//! protocol records (states, predictions, actions, failures, recoveries,
//! flow waves), each with causal parent `NO_PARENT`. Build with
//! `--features trace` to add the queue's SCHED/POP/CANCEL records and the
//! causal parents they set; the bin says which stream it compared.
//!
//! Example (two different seeds diverge almost immediately):
//!
//! ```text
//! cargo run --release --features trace --bin trace_diff -- XGC P2 fluid 1 2
//! ```

use pckpt_core::iosim::PfsMode;
use pckpt_core::obs::{diff_report, Recording};
use pckpt_core::{record_run, ModelKind, SimParams};
use pckpt_failure::LeadTimeModel;
use pckpt_workloads::Application;

/// Ring capacity per recording: large enough to hold every event of a
/// single 240 h run (tens of thousands), small enough to stay cheap.
const CAPACITY: usize = 1 << 20;

fn parse_model(s: &str) -> ModelKind {
    ModelKind::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(s))
        .unwrap_or_else(|| {
            eprintln!("unknown model {s:?} (expected one of B, M1, M2, P1, P2)");
            std::process::exit(2);
        })
}

fn record(params: &SimParams, leads: &LeadTimeModel, seed: u64) -> Recording {
    let (_, recording, _) = record_run(params, leads, seed, 0, CAPACITY);
    recording
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |i: usize, default: &str| -> String {
        args.get(i).cloned().unwrap_or_else(|| default.to_string())
    };
    let app_name = get(0, "XGC");
    let model = parse_model(&get(1, "P2"));
    let mode_name = get(2, "analytic");
    let seed_a: u64 = get(3, "1").parse().expect("seed_a must be an integer");
    let seed_b: u64 = get(4, "2").parse().expect("seed_b must be an integer");

    let app = Application::by_name(&app_name).unwrap_or_else(|| {
        eprintln!("unknown application {app_name:?} (see Table I)");
        std::process::exit(2);
    });
    let mode = match mode_name.as_str() {
        "analytic" => PfsMode::Analytic,
        "fluid" => PfsMode::Fluid,
        other => {
            eprintln!("unknown PFS mode {other:?} (expected analytic or fluid)");
            std::process::exit(2);
        }
    };

    let leads = LeadTimeModel::desh_default();
    let mut params = SimParams::paper_defaults(model, app);
    params.pfs_mode = mode;

    let a = record(&params, &leads, seed_a);
    let b = record(&params, &leads, seed_b);
    println!(
        "{} {} {}: seed {} -> {} events ({} dropped), seed {} -> {} events ({} dropped)",
        app.name,
        model.name(),
        mode_name,
        seed_a,
        a.len(),
        a.dropped,
        seed_b,
        b.len(),
        b.dropped,
    );
    if !cfg!(feature = "trace") {
        println!(
            "protocol records only, every causal parent unset: build with \
             `--features trace` for the queue's records and causal parents"
        );
    }
    if a.is_empty() && b.is_empty() {
        println!("both recordings are empty: neither run emitted a record");
        return;
    }

    let label_a = format!("seed {seed_a}");
    let label_b = format!("seed {seed_b}");
    match diff_report((&label_a, &a), (&label_b, &b)) {
        Some(report) => println!("{report}"),
        None => println!("streams identical ({} events, digest {})", a.len(), a.digest_hex()),
    }
}
