//! The per-file lint rules.
//!
//! Each rule here walks the token stream of one file (see
//! [`crate::lexer`]) and produces [`Finding`]s. The workspace-level
//! rule families (transitive hot-path allocation, determinism taint,
//! unsafe audit) live in [`crate::wsrules`] on top of the call graph;
//! both layers consume the same per-file cache ([`crate::SourceFile`]).
//! Scoping is per rule:
//!
//! | rule                 | scope                                        |
//! |----------------------|----------------------------------------------|
//! | `no-randomized-maps` | all code in the sim-semantic crates          |
//! | `no-wall-clock`      | whole workspace except `bench`               |
//! | `no-float-eq`        | library code of the sim-semantic crates      |
//! | `no-lossy-time-cast` | library code of the sim-semantic crates      |
//! | `no-unwrap-in-lib`   | library code of the sim-semantic crates      |
//! | `no-alloc-in-hot-loop` | fns reachable from `// simlint: hot` in sim crates ([`crate::wsrules`]) |
//! | `determinism-taint`  | sim crates + `simobs`/`simrng` ([`crate::wsrules`]) |
//! | `unsafe-audit`       | sim crates + `simobs`/`simrng` ([`crate::wsrules`]) |
//!
//! "Sim-semantic crates" are the six crates whose behaviour defines a
//! simulated campaign: `desim`, `core`, `failure`, `workloads`,
//! `analysis`, and `service` (the campaign service decides which
//! results are reused verbatim, so its admission and recovery logic is
//! as digest-relevant as the simulator itself). "Library code"
//! excludes `tests/`, `benches/`,
//! `examples/`, `src/bin/`, `main.rs`, and `#[cfg(test)]` /
//! `#[test]`-gated items inside a file (brace-matched).
//!
//! Any finding can be suppressed in place with a
//! `// simlint: allow(<rule>)` comment on the same line or on the line
//! directly above, or globally for a file via the built-in
//! [`allowlist`]. An allow should always carry a justification in the
//! surrounding comment.

use crate::lexer::{Token, TokenKind};
use crate::SourceFile;

/// The six crates whose code determines simulated behaviour.
pub const SIM_CRATES: [&str; 6] =
    ["desim", "core", "failure", "workloads", "analysis", "service"];

/// Crates exempt from `no-wall-clock` (benchmarking must read the real
/// clock — that is its job).
pub const WALL_CLOCK_EXEMPT: [&str; 1] = ["bench"];

/// All rule names, in reporting order (the last three are the
/// call-graph families in [`crate::wsrules`]).
pub const ALL_RULES: [&str; 8] = [
    "no-randomized-maps",
    "no-wall-clock",
    "no-float-eq",
    "no-lossy-time-cast",
    "no-unwrap-in-lib",
    "no-alloc-in-hot-loop",
    "determinism-taint",
    "unsafe-audit",
];

/// File-level allowlist: `(rule, path substring)`. A file whose
/// workspace-relative path contains the substring is exempt from the
/// rule. Every entry must say why.
pub fn allowlist() -> &'static [(&'static str, &'static str)] {
    &[
        // desim::time IS the blessed conversion module: the raw
        // nanosecond<->seconds casts live here, behind checked helpers,
        // so they cannot appear anywhere else.
        ("no-lossy-time-cast", "crates/desim/src/time.rs"),
    ]
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-oriented explanation with the fix direction.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate name (`""` for the root facade package).
    pub crate_name: String,
    /// True for library code: not under `tests/`, `benches/`,
    /// `examples/`, `src/bin/`, and not a `main.rs` or `build.rs`.
    pub is_lib: bool,
}

/// Classifies a workspace-relative path (`crates/desim/src/flow.rs`).
pub fn classify(rel_path: &str) -> FileClass {
    let components: Vec<&str> = rel_path.split('/').collect();
    let crate_name = match components.first() {
        Some(&"crates") if components.len() > 1 => components[1].to_string(),
        _ => String::new(),
    };
    let file_name = components.last().copied().unwrap_or("");
    let in_non_lib_dir = components
        .iter()
        .any(|c| matches!(*c, "tests" | "benches" | "examples" | "bin" | "fixtures"));
    let is_lib = !in_non_lib_dir && file_name != "main.rs" && file_name != "build.rs";
    FileClass {
        crate_name,
        is_lib,
    }
}

/// Lints one file's source text as a single-file workspace: all
/// per-file rules plus whatever the call-graph families can resolve
/// inside one file. `rel_path` is workspace-relative with `/`
/// separators. For multi-file analysis, build a [`crate::Workspace`]
/// instead — it lexes every file exactly once for all rule families.
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Finding> {
    crate::Workspace::from_sources(vec![(rel_path.to_string(), src.to_string())]).lint()
}

/// Runs the per-file token rules over one cached file, appending raw
/// (unsuppressed) findings to `out`. Suppression — inline allows and
/// the [`allowlist`] — is applied centrally in
/// [`crate::Workspace::lint`].
pub(crate) fn file_findings(sf: &SourceFile, out: &mut Vec<Finding>) {
    let rel_path = sf.rel.as_str();
    let class = &sf.class;
    let tokens = &sf.lexed.tokens;
    let test_mask = &sf.items.test_mask;

    let in_sim_crate = SIM_CRATES.contains(&class.crate_name.as_str());
    let wall_clock_applies = !WALL_CLOCK_EXEMPT.contains(&class.crate_name.as_str());

    for (i, tok) in tokens.iter().enumerate() {
        let in_test_code = test_mask[i];
        let lib_scoped = class.is_lib && !in_test_code;

        if in_sim_crate {
            randomized_maps(rel_path, tok, out);
            if lib_scoped {
                float_eq(rel_path, tokens, i, out);
                lossy_time_cast(rel_path, tokens, i, out);
                unwrap_in_lib(rel_path, tokens, i, out);
            }
        }
        if wall_clock_applies {
            wall_clock(rel_path, tok, out);
        }
    }
}

// ----------------------------------------------------------------------
// Rule 1: no-randomized-maps
// ----------------------------------------------------------------------

fn randomized_maps(path: &str, tok: &Token, out: &mut Vec<Finding>) {
    if tok.kind != TokenKind::Ident {
        return;
    }
    let (bad, fix) = match tok.text.as_str() {
        "HashMap" => ("HashMap", "BTreeMap"),
        "HashSet" => ("HashSet", "BTreeSet"),
        _ => return,
    };
    out.push(Finding {
        rule: "no-randomized-maps",
        path: path.to_string(),
        line: tok.line,
        message: format!(
            "{bad} iterates in a per-process random order, which breaks bit-reproducible \
             campaigns; use {fix} (or a sorted Vec) in sim-semantic crates"
        ),
    });
}

// ----------------------------------------------------------------------
// Rule 2: no-wall-clock
// ----------------------------------------------------------------------

fn wall_clock(path: &str, tok: &Token, out: &mut Vec<Finding>) {
    if tok.kind != TokenKind::Ident {
        return;
    }
    if tok.text == "Instant" || tok.text == "SystemTime" {
        out.push(Finding {
            rule: "no-wall-clock",
            path: path.to_string(),
            line: tok.line,
            message: format!(
                "{} reads the wall clock; simulation code must only observe SimTime \
                 (wall-clock reads are reserved for crates/bench)",
                tok.text
            ),
        });
    }
}

// ----------------------------------------------------------------------
// Rule 3: no-float-eq
// ----------------------------------------------------------------------

fn is_float_literal(tok: &Token) -> bool {
    matches!(tok.kind, TokenKind::Number { float: true })
}

/// `f64 :: CONST` / `f32 :: CONST` path starting at `i`.
fn is_float_path(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.text == "f64" || t.text == "f32")
        && tokens.get(i + 1).is_some_and(|t| t.text == "::")
}

fn float_eq(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Finding>) {
    let tok = &tokens[i];
    if tok.text != "==" && tok.text != "!=" {
        return;
    }
    // Left operand ends at i-1; right operand starts at i+1, possibly
    // behind a unary minus.
    let left_float = i > 0
        && (is_float_literal(&tokens[i - 1])
            || (i >= 3 && is_float_path(tokens, i - 3) && tokens[i - 2].text == "::"));
    let mut r = i + 1;
    if tokens.get(r).is_some_and(|t| t.text == "-") {
        r += 1;
    }
    let right_float = tokens.get(r).is_some_and(is_float_literal) || is_float_path(tokens, r);
    if left_float || right_float {
        out.push(Finding {
            rule: "no-float-eq",
            path: path.to_string(),
            line: tok.line,
            message: format!(
                "`{}` between float expressions is representation-sensitive; compare with an \
                 epsilon, total_cmp, or to_bits (exact-zero guards may be allowed with \
                 justification)",
                tok.text
            ),
        });
    }
}

// ----------------------------------------------------------------------
// Rule 4: no-lossy-time-cast
// ----------------------------------------------------------------------

/// Identifier fragments that mark a cast's line as time-semantic.
const TIME_MARKERS: [&str; 7] = ["secs", "nanos", "hours", "mins", "simtime", "simduration", "micros"];

fn lossy_time_cast(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Finding>) {
    let tok = &tokens[i];
    if tok.text != "as" || tok.kind != TokenKind::Ident {
        return;
    }
    let Some(target) = tokens.get(i + 1) else {
        return;
    };
    if target.text != "u64" && target.text != "f64" {
        return;
    }
    // Heuristic: the cast is time-adjacent if any identifier on the same
    // source line mentions a time unit or a sim-time type, or the line
    // multiplies by a 1e9-style nanosecond factor.
    let line = tok.line;
    let time_adjacent = tokens
        .iter()
        .filter(|t| t.line == line)
        .any(|t| match t.kind {
            TokenKind::Ident => {
                let lower = t.text.to_ascii_lowercase();
                TIME_MARKERS.iter().any(|m| lower.contains(m))
            }
            TokenKind::Number { float: true } => t.text == "1e9" || t.text == "1e-9",
            _ => false,
        });
    if time_adjacent {
        out.push(Finding {
            rule: "no-lossy-time-cast",
            path: path.to_string(),
            line,
            message: format!(
                "raw `as {}` on a time-like value bypasses the checked conversions; use \
                 SimTime/SimDuration::from_secs_f64 / to_secs_f64 (crates/desim/src/time.rs)",
                target.text
            ),
        });
    }
}

// ----------------------------------------------------------------------
// Rule 5: no-unwrap-in-lib
// ----------------------------------------------------------------------

fn unwrap_in_lib(path: &str, tokens: &[Token], i: usize, out: &mut Vec<Finding>) {
    let tok = &tokens[i];
    if tok.kind != TokenKind::Ident || (tok.text != "unwrap" && tok.text != "expect") {
        return;
    }
    let called = tokens.get(i + 1).is_some_and(|t| t.text == "(");
    let via_method = i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "::");
    if called && via_method {
        out.push(Finding {
            rule: "no-unwrap-in-lib",
            path: path.to_string(),
            line: tok.line,
            message: format!(
                "`{}()` in library code turns bad input into a mid-campaign panic; propagate a \
                 Result (an internal invariant may keep expect() with an allow + justification)",
                tok.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/core/src/sim.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = lint_file(path, src).into_iter().map(|f| f.rule).collect();
        rules.dedup();
        rules
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/desim/src/flow.rs").crate_name, "desim");
        assert!(classify("crates/desim/src/flow.rs").is_lib);
        assert!(!classify("crates/desim/tests/proptests.rs").is_lib);
        assert!(!classify("crates/cli/src/main.rs").is_lib);
        assert!(!classify("crates/bench/benches/engine.rs").is_lib);
        assert_eq!(classify("src/lib.rs").crate_name, "");
        assert_eq!(classify("tests/determinism.rs").crate_name, "");
    }

    #[test]
    fn hashmap_flagged_in_sim_crates_only() {
        let src = "use std::collections::HashMap;";
        assert_eq!(rules_fired(LIB, src), vec!["no-randomized-maps"]);
        assert!(rules_fired("crates/cli/src/commands.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_bench_crates() {
        let src = "let t = std::time::Instant::now();";
        assert_eq!(rules_fired(LIB, src), vec!["no-wall-clock"]);
        assert_eq!(rules_fired("crates/cli/src/main.rs", src), vec!["no-wall-clock"]);
        assert_eq!(rules_fired("crates/criterion/src/lib.rs", src), vec!["no-wall-clock"]);
        assert!(rules_fired("crates/bench/benches/engine.rs", src).is_empty());
    }

    #[test]
    fn float_eq_detection() {
        assert_eq!(rules_fired(LIB, "if x == 0.0 {}"), vec!["no-float-eq"]);
        assert_eq!(rules_fired(LIB, "if 1.5 != y {}"), vec!["no-float-eq"]);
        assert_eq!(rules_fired(LIB, "if x == -1.0 {}"), vec!["no-float-eq"]);
        assert_eq!(rules_fired(LIB, "if x == f64::NAN {}"), vec!["no-float-eq"]);
        // Integer comparisons and orderings are fine.
        assert!(rules_fired(LIB, "if x == 0 {}").is_empty());
        assert!(rules_fired(LIB, "if x <= 0.0 {}").is_empty());
    }

    #[test]
    fn time_cast_heuristic() {
        assert_eq!(
            rules_fired(LIB, "let ns = (dt_secs * 1e9) as u64;"),
            vec!["no-lossy-time-cast"]
        );
        assert_eq!(
            rules_fired(LIB, "let s = t.as_nanos() as f64;"),
            vec!["no-lossy-time-cast"]
        );
        // A writer-count cast has no time semantics.
        assert!(rules_fired(LIB, "let w = nodes as f64;").is_empty());
        // The blessed module is allowlisted.
        assert!(rules_fired("crates/desim/src/time.rs", "let s = ns as f64 / 1e9;").is_empty());
    }

    #[test]
    fn unwrap_scoping() {
        let src = "let x = opt.unwrap();";
        assert_eq!(rules_fired(LIB, src), vec!["no-unwrap-in-lib"]);
        assert_eq!(rules_fired(LIB, "let x = res.expect(\"m\");"), vec!["no-unwrap-in-lib"]);
        // Test files, test mods, and non-sim crates are out of scope.
        assert!(rules_fired("crates/core/tests/x.rs", src).is_empty());
        assert!(rules_fired("crates/cli/src/commands.rs", src).is_empty());
        let in_test_mod = "#[cfg(test)]\nmod tests {\n  fn f() { opt.unwrap(); }\n}";
        assert!(rules_fired(LIB, in_test_mod).is_empty());
        let test_fn = "#[test]\nfn f() { opt.unwrap(); }";
        assert!(rules_fired(LIB, test_fn).is_empty());
        // Code after a test item is back in scope.
        let after = "#[test]\nfn f() { opt.unwrap(); }\nfn g() { opt.unwrap(); }";
        let findings = lint_file(LIB, after);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn inline_allow_suppresses_same_and_next_line() {
        let same = "let x = opt.unwrap(); // simlint: allow(no-unwrap-in-lib)";
        assert!(lint_file(LIB, same).is_empty());
        let above = "// invariant: set in init. simlint: allow(no-unwrap-in-lib)\nlet x = opt.unwrap();";
        assert!(lint_file(LIB, above).is_empty());
        // The allow is rule-specific.
        let wrong = "let x = opt.unwrap(); // simlint: allow(no-float-eq)";
        assert_eq!(lint_file(LIB, wrong).len(), 1);
    }

    #[test]
    fn hot_loop_alloc_detection() {
        let vec_new = "// simlint: hot\nfn step(out: &mut Vec<u64>) {\n    let mut s = Vec::new();\n    s.push(1);\n}";
        assert_eq!(rules_fired(LIB, vec_new), vec!["no-alloc-in-hot-loop"]);
        let box_new = "// simlint: hot\nfn step() { let b = Box::new(3_u64); }";
        assert_eq!(rules_fired(LIB, box_new), vec!["no-alloc-in-hot-loop"]);
        let cap = "// simlint: hot\nfn step() { let q = EventQueue::with_capacity(64); }";
        assert_eq!(rules_fired(LIB, cap), vec!["no-alloc-in-hot-loop"]);
        // Line points at the allocation, not the marker.
        let f = lint_file(LIB, vec_new);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn hot_loop_scope_is_the_marked_fn_only() {
        // Unmarked functions may allocate freely.
        assert!(rules_fired(LIB, "fn cold() { let v: Vec<u8> = Vec::new(); }").is_empty());
        // Only the first fn after the marker is in scope.
        let next_fn = "// simlint: hot\nfn a() { step(); }\nfn b() { let v: Vec<u8> = Vec::new(); }";
        assert!(rules_fired(LIB, next_fn).is_empty());
        // Const, storage-free constructors pass.
        let smallmap = "// simlint: hot\nfn a(m: &mut SmallMap<u32, u64>) { let n = SmallMap::new(); }";
        assert!(rules_fired(LIB, smallmap).is_empty());
        // Outside sim-semantic crates the marker is inert.
        assert!(
            rules_fired("crates/cli/src/commands.rs", "// simlint: hot\nfn a() { let v: Vec<u8> = Vec::new(); }")
                .is_empty()
        );
        // Test-gated hot fns are the allocator test's business, not ours.
        let in_tests = "#[cfg(test)]\nmod tests {\n    // simlint: hot\n    fn f() { let v: Vec<u8> = Vec::new(); }\n}";
        assert!(rules_fired(LIB, in_tests).is_empty());
        // An inline allow with justification suppresses as usual.
        let allowed = "// simlint: hot\nfn a() {\n    // one-time lazy init. simlint: allow(no-alloc-in-hot-loop)\n    let v: Vec<u8> = Vec::new();\n}";
        assert!(rules_fired(LIB, allowed).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_fire() {
        let src = "// HashMap would break determinism\nlet s = \"Instant::now\";";
        assert!(lint_file(LIB, src).is_empty());
    }
}
