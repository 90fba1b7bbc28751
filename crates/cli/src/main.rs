//! `pckpt` — command-line driver for the C/R simulation suite.
//!
//! ```text
//! pckpt simulate --app XGC --model P2 [--runs 400] [--seed 42]
//!                [--dist titan|lanl8|lanl18] [--lead-scale 1.0]
//!                [--fn-rate 0.15] [--alpha 3.0]
//! pckpt compare  --app XGC [options as above]     # all five models
//! pckpt leads                                     # lead-time model
//! pckpt io --app CHIMERA                          # derived latencies
//! pckpt apps                                      # Table I
//! ```

use std::process::ExitCode;

use pckpt_core::{Knobs, RunsSpec};

mod args;
mod commands;
mod flags;

/// The `PCKPT_*` variables `pckpt` reads.
const READS: [&str; 4] = ["PCKPT_RUNS", "PCKPT_VR", "PCKPT_THREADS", "PCKPT_PREFILTER"];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args::parse(&argv).map_err(|e| format!("{e}\n\n{}", args::USAGE));
    let knobs = Knobs::from_env(&READS);
    if let Ok(Some(RunsSpec::Fixed(n))) = knobs.as_ref().map(|k| k.runs) {
        eprintln!("warning: PCKPT_RUNS={n} is not read here (--runs sets the run count); ignored");
    }
    match cmd.and_then(|cmd| commands::run(cmd, &knobs?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
