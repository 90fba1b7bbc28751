//! `pckptd` — the campaign daemon and its client.
//!
//! ```text
//! pckptd serve  --socket <PATH> [--cache-dir <DIR>] [--state-dir <DIR>]
//!               [--max-requests <N>]
//! pckptd once   --request <FILE-or-DIR> [--cache-dir <DIR>] [--state-dir <DIR>]
//! pckptd submit --socket <PATH> --request <FILE>
//! ```
//!
//! `serve` runs the long-lived service on a Unix socket (one JSON
//! request per connection; `--max-requests` bounds the accept loop for
//! scripted runs). `once` processes a request file — or every `*.json`
//! in a directory, sorted — in-process against the same cache and
//! journal directories a daemon would use, so a cold `once`, a crashed
//! daemon, and a resumed daemon all share state. `submit` is the thin
//! client: it sends one request file to a running daemon and prints
//! the response verbatim. Each mode reads only the flags its line above
//! shows; any other flag is an error naming the flag and the mode.
//!
//! Environment: `PCKPT_CACHE_DIR`, `PCKPT_CACHE_MAX`,
//! `PCKPT_JOURNAL_SYNC=always|off` (flags override the environment) and
//! `PCKPT_SERVICE_FAIL=crash:<k>`, parsed once by
//! [`Knobs::from_env`]. A request names its own `threads`, so
//! `PCKPT_THREADS` is not read here.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use pckpt_core::Knobs;
use pckpt_service::{crash_after, respond, serve_unix, submit_unix, Service, ServiceConfig};

mod flags;

/// The `PCKPT_*` variables `pckptd` reads.
const READS: [&str; 4] =
    ["PCKPT_CACHE_DIR", "PCKPT_CACHE_MAX", "PCKPT_JOURNAL_SYNC", "PCKPT_SERVICE_FAIL"];

const USAGE: &str = "\
usage:
  pckptd serve  --socket <PATH> [--cache-dir <DIR>] [--state-dir <DIR>]
                [--max-requests <N>]
  pckptd once   --request <FILE-or-DIR> [--cache-dir <DIR>] [--state-dir <DIR>]
  pckptd submit --socket <PATH> --request <FILE>

environment (a malformed value is an error):
  PCKPT_CACHE_DIR      persistent cell-cache directory
  PCKPT_CACHE_MAX      on-disk cell retention cap (default 4096)
  PCKPT_JOURNAL_SYNC   always (default) | off
  PCKPT_SERVICE_FAIL   crash:<k>: exit after the k-th journal append
                       (crash/resume tests)
A request sets its own worker count (\"threads\"); PCKPT_THREADS is not
read.";

/// The flags `pckptd`'s modes read.
const FLAGS: [&str; 5] = ["--socket", "--request", "--cache-dir", "--state-dir", "--max-requests"];

/// Builds the service config: environment defaults, flag overrides.
fn service_config(given: &[(&str, &str)], knobs: &Knobs) -> Result<ServiceConfig, String> {
    let mut cfg = ServiceConfig::from_knobs(knobs);
    if let Some(dir) = flags::value::<PathBuf>(given, "--cache-dir")? {
        cfg.state_dir = Some(dir.join("journal"));
        cfg.cache_dir = Some(dir);
    }
    if let Some(dir) = flags::value(given, "--state-dir")? {
        cfg.state_dir = Some(dir);
    }
    Ok(cfg)
}

fn request_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no *.json requests in {}", path.display()));
        }
        Ok(files)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

fn run(argv: &[String], knobs: &Knobs) -> Result<(), String> {
    let Some(mode) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let given = flags::pairs(&argv[1..], &FLAGS)?;
    let path = |key: &str| flags::value::<PathBuf>(&given, key);
    let reads = |used: &[&str]| {
        flags::reject_unused(&given, used).map_err(|e| format!("{e} for pckptd {mode}"))
    };
    if let Some(k) = knobs.service_fail {
        crash_after(k);
    }
    match mode.as_str() {
        "serve" => {
            reads(&["--socket", "--cache-dir", "--state-dir", "--max-requests"])?;
            let socket = path("--socket")?.ok_or("serve needs --socket")?;
            let service = Arc::new(Service::open(service_config(&given, knobs)?)?);
            serve_unix(&socket, service, flags::value(&given, "--max-requests")?)
        }
        "once" => {
            reads(&["--request", "--cache-dir", "--state-dir"])?;
            let request = path("--request")?.ok_or("once needs --request")?;
            let service = Service::open(service_config(&given, knobs)?)?;
            for file in request_files(&request)? {
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("read {}: {e}", file.display()))?;
                print!("{}", respond(text.trim(), &service));
            }
            Ok(())
        }
        "submit" => {
            reads(&["--socket", "--request"])?;
            let socket = path("--socket")?.ok_or("submit needs --socket")?;
            let request = path("--request")?.ok_or("submit needs --request")?;
            let text = std::fs::read_to_string(&request)
                .map_err(|e| format!("read {}: {e}", request.display()))?;
            let body = submit_unix(&socket, text.trim())?;
            print!("{body}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = |e| format!("{e}\n\n{USAGE}");
    match Knobs::from_env(&READS).and_then(|knobs| run(&argv, &knobs).map_err(usage)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn repeated_unknown_and_valueless_flags_are_rejected() {
        let error = |args: &[&str]| flags::pairs(&v(args), &FLAGS).unwrap_err();
        let repeated = ["--request", "/nonexistent.json", "--request", "r1.json"];
        assert_eq!(error(&repeated), "option --request given twice");
        let threads = ["--request", "r1.json", "--threads", "2"];
        assert_eq!(error(&threads), r#"unknown option "--threads""#);
        assert_eq!(error(&["--socket"]), "option --socket requires a value");
        let argv = v(&["--request", "r1.json", "--max-requests", "3"]);
        let given = flags::pairs(&argv, &FLAGS).unwrap();
        assert_eq!(flags::value(&given, "--max-requests"), Ok(Some(3)));
    }

    /// The error `run` returns for `args` with no `PCKPT_*` variable set.
    fn run_error(args: &[&str]) -> String {
        run(&v(args), &Knobs::default()).unwrap_err()
    }

    #[test]
    fn serve_rejects_the_flags_it_does_not_read() {
        let args = [
            "serve",
            "--socket",
            "/nonexistent/d.sock",
            "--request",
            "r1.json",
        ];
        assert_eq!(
            run_error(&args),
            "unexpected option --request for pckptd serve"
        );
    }

    #[test]
    fn once_rejects_the_flags_it_does_not_read() {
        let args = [
            "once",
            "--request",
            "/nonexistent/r1.json",
            "--socket",
            "/nonexistent/d.sock",
            "--max-requests",
            "3",
        ];
        assert_eq!(
            run_error(&args),
            "unexpected option --socket for pckptd once"
        );
    }

    #[test]
    fn submit_rejects_the_flags_it_does_not_read() {
        let args = [
            "submit",
            "--socket",
            "/nonexistent/d.sock",
            "--request",
            "/nonexistent/r1.json",
            "--cache-dir",
            "/nonexistent/cache",
        ];
        assert_eq!(
            run_error(&args),
            "unexpected option --cache-dir for pckptd submit"
        );
    }
}
