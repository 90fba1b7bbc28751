//! The environment contract: every `PCKPT_*` variable, parsed once and
//! strictly. A binary names the variables it reads, calls
//! [`Knobs::from_env`] once at its boundary and passes the values down,
//! so library code computes only from its arguments. A malformed value
//! of a variable the binary reads is an error naming the variable and
//! the values it accepts; a set `PCKPT_*` variable the binary does not
//! read, misspelt or meant for another binary, gets one warning.

use std::path::PathBuf;

use crate::prefilter::Prefilter;
use crate::runner::{parse_vr_spec, AdaptiveConfig, RunnerConfig, VrConfig};

/// When the campaign service's journal appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `sync_data` after every record (default; survives power cut).
    #[default]
    Always,
    /// Leave flushing to the OS (survives process kill only).
    Off,
}

/// How a `PCKPT_RUNS` value resolves: a fixed count or adaptive
/// CI-driven allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunsSpec {
    /// A plain positive run count.
    Fixed(usize),
    /// `auto[:target[:cap]]` — sequential allocation to a relative CI
    /// target with a hard cap.
    Auto(AdaptiveConfig),
}

/// Parses a `PCKPT_RUNS` value: a positive integer (`"500"`), or
/// `"auto"` / `"auto:0.02"` / `"auto:0.02:8192"` for adaptive allocation
/// with an optional relative CI target and run cap. `None` for anything
/// else.
fn parse_runs_spec(s: &str) -> Option<RunsSpec> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix("auto") {
        let mut a = AdaptiveConfig::default();
        let mut parts = rest.strip_prefix(':').map(|r| r.split(':')).into_iter().flatten();
        if let Some(t) = parts.next() {
            a.rel_target = t.parse::<f64>().ok().filter(|&t| t > 0.0 && t < 1.0)?;
        }
        if let Some(c) = parts.next() {
            a.max_runs = c.parse::<usize>().ok().filter(|&n| n >= a.batch)?;
        }
        if parts.next().is_some() || (!rest.is_empty() && !rest.starts_with(':')) {
            return None;
        }
        return Some(RunsSpec::Auto(a));
    }
    s.parse::<usize>().ok().filter(|&n| n > 0).map(RunsSpec::Fixed)
}

/// The values variable `name` accepts, as its error states them.
fn grammar(name: &str) -> &'static str {
    match name {
        "PCKPT_RUNS" => "a run count or auto[:target[:cap]] (0 < target < 1, cap >= 32)",
        "PCKPT_SEED" => "an integer in [0, 2^64)",
        "PCKPT_VR" => "off or a comma-separated list of antithetic and stratified[:K]",
        "PCKPT_THREADS" => "a thread count (0 = one per core)",
        "PCKPT_PREFILTER" => "off, analytic or analytic:<margin> (margin >= 0)",
        "PCKPT_CACHE_DIR" => "a directory path",
        "PCKPT_CACHE_MAX" => "a cell count",
        "PCKPT_JOURNAL_SYNC" => "always or off",
        "PCKPT_SERVICE_FAIL" => "crash:<k> (exit after the k-th journal append)",
        _ => "nothing: it is not a knob",
    }
}

/// Every `PCKPT_*` variable after one strict parse; an unset variable
/// keeps its default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Knobs {
    /// `PCKPT_RUNS`.
    pub runs: Option<RunsSpec>,
    /// `PCKPT_SEED`.
    pub seed: Option<u64>,
    /// `PCKPT_VR` (`adaptive` is never set here; that is `PCKPT_RUNS`).
    pub vr: VrConfig,
    /// `PCKPT_THREADS` (0 = one per core).
    pub threads: usize,
    /// `PCKPT_PREFILTER` (`None` = simulate every cell).
    pub prefilter: Option<Prefilter>,
    /// `PCKPT_CACHE_DIR`.
    pub cache_dir: Option<PathBuf>,
    /// `PCKPT_CACHE_MAX`.
    pub cache_max: Option<usize>,
    /// `PCKPT_JOURNAL_SYNC`.
    pub journal_sync: SyncPolicy,
    /// `PCKPT_SERVICE_FAIL=crash:<k>`'s `k`.
    pub service_fail: Option<u64>,
}

impl Knobs {
    /// Parses the `PCKPT_*` variables among the name/value pairs `vars`
    /// (other names are skipped), reading those `reads` names. Returns
    /// the knobs and one warning per set variable `reads` does not name;
    /// a malformed value of a read variable is an error naming the
    /// variable and the values it accepts.
    pub fn parse(
        vars: impl IntoIterator<Item = (String, String)>,
        reads: &[&str],
    ) -> Result<(Knobs, Vec<String>), String> {
        let mut k = Knobs::default();
        let mut warnings = Vec::new();
        for (name, value) in vars {
            if !name.starts_with("PCKPT_") {
                continue;
            }
            if !reads.contains(&name.as_str()) {
                let read = reads.join(", ");
                warnings.push(format!(
                    "{name} is not read here (this program reads {read}); ignored"
                ));
                continue;
            }
            let v = value.trim();
            let parsed = match name.as_str() {
                "PCKPT_RUNS" => parse_runs_spec(v).map(|r| k.runs = Some(r)),
                "PCKPT_SEED" => v.parse().ok().map(|s| k.seed = Some(s)),
                "PCKPT_VR" => parse_vr_spec(v).map(|vr| k.vr = vr),
                "PCKPT_THREADS" => v.parse().ok().map(|t| k.threads = t),
                "PCKPT_PREFILTER" => Prefilter::parse(v).map(|p| k.prefilter = p),
                "PCKPT_CACHE_DIR" => {
                    (!value.is_empty()).then(|| k.cache_dir = Some(value.as_str().into()))
                }
                "PCKPT_CACHE_MAX" => v.parse().ok().map(|m| k.cache_max = Some(m)),
                "PCKPT_JOURNAL_SYNC" => match v {
                    "always" => Some(SyncPolicy::Always),
                    "off" => Some(SyncPolicy::Off),
                    _ => None,
                }
                .map(|s| k.journal_sync = s),
                "PCKPT_SERVICE_FAIL" => v
                    .strip_prefix("crash:")
                    .and_then(|n| n.parse().ok())
                    .map(|n| k.service_fail = Some(n)),
                _ => None,
            };
            parsed.ok_or_else(|| format!("{name}={value:?}: expected {}", grammar(&name)))?;
        }
        Ok((k, warnings))
    }

    /// [`Self::parse`] over the process environment, printing each
    /// warning as one `warning:` line on stderr: the one place the
    /// workspace reads a `PCKPT_*` variable.
    // simlint: config — the sanctioned entry point of every `PCKPT_*`
    // variable. The knobs select what a binary runs and how, never a
    // hidden input to one run's computation.
    pub fn from_env(reads: &[&str]) -> Result<Knobs, String> {
        let lossy = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
        let vars = std::env::vars_os().map(|(k, v)| (lossy(k), lossy(v)));
        let (knobs, warnings) = Self::parse(vars, reads)?;
        for warning in warnings {
            eprintln!("warning: {warning}");
        }
        Ok(knobs)
    }

    /// `runs` runs from `seed` under these knobs: their thread count and
    /// VR estimator, and `PCKPT_RUNS=auto`'s adaptive allocation, whose
    /// cap replaces `runs`.
    pub fn runner(&self, runs: usize, seed: u64) -> RunnerConfig {
        let mut config = RunnerConfig::new(runs, seed);
        config.threads = self.threads;
        config.vr = self.vr;
        if let Some(RunsSpec::Auto(a)) = self.runs {
            config.runs = a.max_runs;
            config.vr.adaptive = Some(a);
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variable.
    const ALL: [&str; 9] = [
        "PCKPT_RUNS",
        "PCKPT_SEED",
        "PCKPT_VR",
        "PCKPT_THREADS",
        "PCKPT_PREFILTER",
        "PCKPT_CACHE_DIR",
        "PCKPT_CACHE_MAX",
        "PCKPT_JOURNAL_SYNC",
        "PCKPT_SERVICE_FAIL",
    ];

    /// Parses `vars` as the environment of a binary reading `reads`.
    fn parse(vars: &[(&str, &str)], reads: &[&str]) -> Result<(Knobs, Vec<String>), String> {
        let vars = vars.iter().map(|&(k, v)| (k.to_string(), v.to_string()));
        Knobs::parse(vars, reads)
    }

    #[test]
    fn runs_spec_parses_fixed_and_auto() {
        assert_eq!(parse_runs_spec("500"), Some(RunsSpec::Fixed(500)));
        assert_eq!(parse_runs_spec(" 12 "), Some(RunsSpec::Fixed(12)));
        assert_eq!(parse_runs_spec("0"), None);
        assert_eq!(parse_runs_spec("banana"), None);
        assert_eq!(
            parse_runs_spec("auto"),
            Some(RunsSpec::Auto(AdaptiveConfig::default()))
        );
        match parse_runs_spec("auto:0.02") {
            Some(RunsSpec::Auto(a)) => {
                assert!((a.rel_target - 0.02).abs() < 1e-12);
                assert_eq!(a.max_runs, AdaptiveConfig::default().max_runs);
            }
            other => panic!("expected auto spec, got {other:?}"),
        }
        match parse_runs_spec("auto:0.05:512") {
            Some(RunsSpec::Auto(a)) => {
                assert!((a.rel_target - 0.05).abs() < 1e-12);
                assert_eq!(a.max_runs, 512);
            }
            other => panic!("expected auto spec, got {other:?}"),
        }
        assert_eq!(parse_runs_spec("auto:1.5"), None, "target must be < 1");
        assert_eq!(parse_runs_spec("auto:0.01:4"), None, "cap below batch");
        assert_eq!(parse_runs_spec("autox"), None);
        assert_eq!(parse_runs_spec("auto:0.01:64:9"), None);
    }

    #[test]
    fn unset_variables_keep_their_defaults() {
        let (knobs, warnings) = parse(&[("HOME", "/home/user"), ("PATH", "/bin")], &ALL).unwrap();
        assert_eq!(knobs, Knobs::default());
        assert!(warnings.is_empty());
        let config = knobs.runner(10, 7);
        assert_eq!((config.runs, config.base_seed, config.threads), (10, 7, 0));
        assert_eq!(config.vr, VrConfig::default());
    }

    #[test]
    fn valid_values_parse_to_their_meaning() {
        fn auto(rel_target: f64, max_runs: usize) -> Option<RunsSpec> {
            let a = AdaptiveConfig {
                rel_target,
                max_runs,
                ..AdaptiveConfig::default()
            };
            Some(RunsSpec::Auto(a))
        }
        fn vr(antithetic: bool, strata: u32) -> VrConfig {
            VrConfig {
                antithetic,
                strata,
                adaptive: None,
            }
        }
        // Each value, and how it changes the default knobs.
        type Case = (&'static str, &'static str, fn(&mut Knobs));
        let cases: [Case; 24] = [
            ("PCKPT_RUNS", "500", |k| k.runs = Some(RunsSpec::Fixed(500))),
            ("PCKPT_RUNS", " 12 ", |k| k.runs = Some(RunsSpec::Fixed(12))),
            ("PCKPT_RUNS", "auto", |k| k.runs = auto(0.01, 4096)),
            ("PCKPT_RUNS", "auto:0.02", |k| k.runs = auto(0.02, 4096)),
            ("PCKPT_RUNS", "auto:0.05:512", |k| k.runs = auto(0.05, 512)),
            ("PCKPT_SEED", "20220530", |k| k.seed = Some(20_220_530)),
            ("PCKPT_SEED", "0", |k| k.seed = Some(0)),
            ("PCKPT_VR", "", |_| {}),
            ("PCKPT_VR", "off", |_| {}),
            ("PCKPT_VR", "antithetic", |k| k.vr = vr(true, 0)),
            ("PCKPT_VR", "stratified", |k| k.vr = vr(false, 8)),
            ("PCKPT_VR", "antithetic,stratified:4", |k| {
                k.vr = vr(true, 4)
            }),
            ("PCKPT_THREADS", "2", |k| k.threads = 2),
            ("PCKPT_THREADS", "0", |_| {}),
            ("PCKPT_PREFILTER", "", |_| {}),
            ("PCKPT_PREFILTER", "off", |_| {}),
            ("PCKPT_PREFILTER", "analytic", |k| {
                k.prefilter = Some(Prefilter::default())
            }),
            ("PCKPT_PREFILTER", "analytic:0.2", |k| {
                k.prefilter = Some(Prefilter::new(0.2))
            }),
            ("PCKPT_CACHE_DIR", "/var/cache/pckpt", |k| {
                k.cache_dir = Some("/var/cache/pckpt".into())
            }),
            ("PCKPT_CACHE_MAX", "0", |k| k.cache_max = Some(0)),
            ("PCKPT_CACHE_MAX", "100", |k| k.cache_max = Some(100)),
            ("PCKPT_JOURNAL_SYNC", "always", |_| {}),
            ("PCKPT_JOURNAL_SYNC", "off", |k| {
                k.journal_sync = SyncPolicy::Off
            }),
            ("PCKPT_SERVICE_FAIL", "crash:2", |k| {
                k.service_fail = Some(2)
            }),
        ];
        for (name, value, change) in cases {
            let mut want = Knobs::default();
            change(&mut want);
            let (knobs, warnings) = parse(&[(name, value)], &ALL).unwrap();
            assert_eq!(knobs, want, "{name}={value:?}");
            assert!(warnings.is_empty(), "{name}={value:?}: {warnings:?}");
        }
    }

    #[test]
    fn malformed_values_are_errors_naming_the_variable_and_grammar() {
        for (name, value) in [
            ("PCKPT_SEED", "12x"),
            ("PCKPT_SEED", ""),
            ("PCKPT_RUNS", "abc"),
            ("PCKPT_RUNS", ""),
            ("PCKPT_RUNS", "0"),
            ("PCKPT_RUNS", "auto:1.5"),
            ("PCKPT_VR", "antithetc"),
            ("PCKPT_VR", "stratified:0"),
            ("PCKPT_THREADS", "garbage"),
            ("PCKPT_THREADS", "-1"),
            ("PCKPT_PREFILTER", "analytics"),
            ("PCKPT_PREFILTER", "analytic:-1"),
            ("PCKPT_CACHE_DIR", ""),
            ("PCKPT_CACHE_MAX", "lots"),
            ("PCKPT_JOURNAL_SYNC", "of"),
            ("PCKPT_JOURNAL_SYNC", ""),
            ("PCKPT_SERVICE_FAIL", "crash:x"),
            ("PCKPT_SERVICE_FAIL", "2"),
        ] {
            let err = parse(&[(name, value)], &ALL).expect_err(value);
            assert_eq!(err, format!("{name}={value:?}: expected {}", grammar(name)));
            assert!(!grammar(name).starts_with("nothing"), "{name}");
        }
        let err = parse(&[("PCKPT_JOURNAL_SYNC", "of")], &ALL).unwrap_err();
        assert_eq!(err, r#"PCKPT_JOURNAL_SYNC="of": expected always or off"#);
    }

    #[test]
    fn unread_variables_get_one_warning_each() {
        let reads = ["PCKPT_CACHE_DIR", "PCKPT_JOURNAL_SYNC"];
        let vars = [
            ("PCKPT_THREAD", "2"),
            ("PCKPT_THREADS", "2"),
            ("HOME", "/home/user"),
        ];
        let (knobs, warnings) = parse(&vars, &reads).unwrap();
        assert_eq!(knobs, Knobs::default());
        let warning = |name: &str| {
            format!(
                "{name} is not read here (this program reads {}); ignored",
                reads.join(", ")
            )
        };
        assert_eq!(
            warnings,
            [warning("PCKPT_THREAD"), warning("PCKPT_THREADS")]
        );
        // An unread variable is never parsed, so a malformed one warns too.
        let (_, warnings) = parse(&[("PCKPT_SEED", "12x")], &reads).unwrap();
        assert_eq!(warnings, [warning("PCKPT_SEED")]);
    }

    #[test]
    fn auto_runs_set_the_runner_cap_on_top_of_the_vr_mode() {
        let vars = [
            ("PCKPT_RUNS", "auto:0.02:256"),
            ("PCKPT_VR", "antithetic,stratified:4"),
        ];
        let (knobs, _) = parse(&vars, &ALL).unwrap();
        let config = knobs.runner(10, 7);
        assert!(config.vr.antithetic);
        assert_eq!(config.vr.strata, 4);
        let a = config
            .vr
            .adaptive
            .expect("auto enables adaptive allocation");
        assert!((a.rel_target - 0.02).abs() < 1e-12);
        assert_eq!(a.max_runs, 256);
        assert_eq!(config.runs, 256, "runs becomes the adaptive cap");
        // A fixed count is the caller's business: the runner keeps its own.
        let (knobs, _) = parse(&[("PCKPT_RUNS", "77")], &ALL).unwrap();
        let config = knobs.runner(10, 7);
        assert_eq!(config.runs, 10);
        assert!(config.vr.adaptive.is_none());
    }
}
