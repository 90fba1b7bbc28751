//! A lightweight item parser on top of the lexer.
//!
//! The workspace rule families (`no-alloc-in-hot-loop` transitive mode,
//! `determinism-taint`, `unsafe-audit`) need more structure than a flat
//! token stream: which function a token belongs to, what each function
//! calls, where `unsafe` spans sit. This module extracts exactly that —
//! no AST, no type checking, just brace-matched item spans:
//!
//! * `fn` items with their name, enclosing `impl` type (for
//!   `Type::method` call resolution), body token range, and the
//!   `// simlint: hot` / `// simlint: config` markers attached to them;
//! * call sites inside fn bodies, classified as method calls (`x.f()`),
//!   path calls (`Type::f()` / `module::f()`), or free calls (`f()`);
//! * heap-constructor sites (`Vec::new`, `Box::new`, `::with_capacity`)
//!   and determinism-taint sources (`env::var`, wall-clock types,
//!   randomized maps, thread ids, `{:p}` pointer formatting);
//! * `unsafe` blocks and `unsafe impl`s, and `struct`s holding an
//!   `UnsafeCell` field (which must declare a named invariant);
//! * digest/fold/result-construction *sinks* for the taint pass.
//!
//! Parsing is total and intentionally forgiving: unknown constructs are
//! skipped, never fatal — the right failure mode for a linter running on
//! half-written files.

use crate::lexer::{Lexed, Token, TokenKind};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The enclosing `impl` block's type, if any (`CrSim` for
    /// `impl CrSim { fn result… }` and `impl Model for CrSim { … }`).
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub decl_idx: usize,
    /// Token index range `(open, close)` of the body braces; `None` for
    /// bodyless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// Inside `#[cfg(test)]` / `#[test]`-gated code.
    pub is_test: bool,
    /// Carries a `// simlint: hot` marker.
    pub hot: bool,
    /// Carries a `// simlint: config` marker (sanctioned config-parse
    /// entry point; taint barrier).
    pub config_entry: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `receiver.name(…)`.
    Method,
    /// `Qualifier::name(…)` — the qualifier is the path segment directly
    /// before the final `::` (`Vec` in `std::vec::Vec::new`).
    Path(String),
    /// `name(…)`.
    Free,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index into [`FileItems::fns`] of the containing function.
    pub caller: usize,
    /// Callee name (final path segment).
    pub name: String,
    /// Call classification.
    pub kind: CallKind,
    /// 1-based line.
    pub line: u32,
}

/// A heap-constructor site (the `no-alloc-in-hot-loop` patterns).
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// Index into [`FileItems::fns`] of the containing function.
    pub caller: usize,
    /// What allocated (`Vec::new`, `Box::new`, `::with_capacity`).
    pub what: &'static str,
    /// 1-based line.
    pub line: u32,
}

/// A determinism-taint source kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// `std::env::var` / `var_os` / `vars` / `vars_os` — process
    /// environment.
    EnvVar,
    /// `Instant` / `SystemTime` — wall clock.
    WallClock,
    /// `HashMap` / `HashSet` — randomized iteration order.
    RandomizedMap,
    /// `ThreadId` / `thread::current` — scheduler-dependent identity.
    ThreadId,
    /// `{:p}` pointer formatting — allocator-dependent addresses.
    PtrFormat,
}

impl TaintKind {
    /// Human name for findings.
    pub fn describe(self) -> &'static str {
        match self {
            TaintKind::EnvVar => "std::env::var (process environment)",
            TaintKind::WallClock => "wall clock (Instant/SystemTime)",
            TaintKind::RandomizedMap => "randomized map iteration (HashMap/HashSet)",
            TaintKind::ThreadId => "thread identity (ThreadId/thread::current)",
            TaintKind::PtrFormat => "pointer formatting ({:p})",
        }
    }
}

/// One taint-source occurrence inside a fn body.
#[derive(Debug, Clone)]
pub struct TaintSource {
    /// Index into [`FileItems::fns`] of the containing function.
    pub caller: usize,
    /// What kind of nondeterminism enters here.
    pub kind: TaintKind,
    /// 1-based line.
    pub line: u32,
}

/// What an `unsafe` keyword introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { … }` block.
    Block,
    /// `unsafe impl … {}`.
    Impl,
}

impl UnsafeKind {
    /// Human name for findings.
    pub fn describe(self) -> &'static str {
        match self {
            UnsafeKind::Block => "unsafe block",
            UnsafeKind::Impl => "unsafe impl",
        }
    }
}

/// One `unsafe` block or impl.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// Block or impl.
    pub kind: UnsafeKind,
}

/// A `struct` holding an `UnsafeCell` field (must declare an invariant
/// via `// simlint: invariant(name)`).
#[derive(Debug, Clone)]
pub struct CellStruct {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace.
    pub end_line: u32,
}

/// Why a fn counts as a determinism sink.
#[derive(Debug, Clone)]
pub struct SinkInfo {
    /// Index into [`FileItems::fns`].
    pub fn_idx: usize,
    /// Short reason ("digest fn", "constructs RunResult", …).
    pub reason: String,
}

/// Everything the workspace passes need from one file, parsed once.
#[derive(Debug, Default)]
pub struct FileItems {
    /// All fn items, in source order.
    pub fns: Vec<FnItem>,
    /// All call sites, grouped implicitly by `caller`.
    pub calls: Vec<CallSite>,
    /// Heap-constructor sites.
    pub allocs: Vec<AllocSite>,
    /// Determinism-taint sources.
    pub taints: Vec<TaintSource>,
    /// Digest/fold/result-construction sinks.
    pub sinks: Vec<SinkInfo>,
    /// `unsafe` blocks and impls.
    pub unsafes: Vec<UnsafeSite>,
    /// Structs with `UnsafeCell` fields.
    pub cell_structs: Vec<CellStruct>,
    /// Per-token `#[cfg(test)]` / `#[test]` mask (shared with the
    /// per-file rules so the tree is only brace-matched once).
    pub test_mask: Vec<bool>,
}

/// Result/aggregate types whose construction marks a fn as a
/// determinism sink: nondeterminism reaching these is nondeterminism in
/// the campaign's reported numbers.
pub const RESULT_TYPES: [&str; 4] = ["RunResult", "Aggregate", "CampaignResult", "GridResult"];

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: [&str; 8] =
    ["fn", "if", "while", "for", "match", "loop", "return", "in"];

/// Parses one lexed file into items. `test_mask` layout matches
/// `lexed.tokens`.
pub fn parse(lexed: &Lexed) -> FileItems {
    let tokens = &lexed.tokens;
    let test_mask = test_code_mask(tokens);
    let mut items = FileItems::default();

    // Pass 1: impl block spans (for method qualification).
    let impl_spans = impl_spans(tokens);

    // Pass 2: fn items.
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Ident && tokens[i].text == "fn" {
            let Some(name_tok) = tokens.get(i + 1) else {
                break;
            };
            if name_tok.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            let body = fn_body_span(tokens, i + 2);
            let impl_type = impl_spans
                .iter()
                .filter(|s| s.open < i && i < s.close)
                .min_by_key(|s| s.close - s.open)
                .map(|s| s.type_name.clone());
            items.fns.push(FnItem {
                name: name_tok.text.clone(),
                impl_type,
                line: tokens[i].line,
                decl_idx: i,
                body,
                is_test: test_mask.get(i).copied().unwrap_or(false),
                hot: false,
                config_entry: false,
            });
            i += 2;
        } else {
            i += 1;
        }
    }

    // Markers attach to the first fn item at or below their line (same
    // semantics the original per-file hot rule used).
    for &hot_line in &lexed.hots {
        if let Some(f) = first_fn_at_or_below(&items.fns, hot_line) {
            items.fns[f].hot = true;
        }
    }
    for &cfg_line in &lexed.configs {
        if let Some(f) = first_fn_at_or_below(&items.fns, cfg_line) {
            items.fns[f].config_entry = true;
        }
    }

    // Pass 3: body-level facts (calls, allocs, taints, unsafe, structs).
    scan_bodies(lexed, &mut items);

    // Pointer-format strings attach to the fn whose body lines span them.
    for &line in &lexed.ptr_fmt_lines {
        if let Some(f) = enclosing_fn_by_line(tokens, &items.fns, line) {
            items.taints.push(TaintSource {
                caller: f,
                kind: TaintKind::PtrFormat,
                line,
            });
        }
    }

    // Sinks: digest/fold names plus result-type construction.
    classify_sinks(tokens, &mut items);

    items.test_mask = test_mask;
    items
}

/// An `impl` block's token span and resolved type name.
struct ImplSpan {
    open: usize,
    close: usize,
    type_name: String,
}

/// Finds every `impl` block: the type is the last path segment after
/// `for` (trait impls) or after the generic parameter list (inherent
/// impls).
fn impl_spans(tokens: &[Token]) -> Vec<ImplSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Ident && tokens[i].text == "impl" {
            // Collect header tokens up to the opening `{`.
            let mut j = i + 1;
            let mut last_ident_after_for: Option<String> = None;
            let mut last_ident: Option<String> = None;
            let mut saw_for = false;
            let mut angle = 0i32;
            while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
                match tokens[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "for" if angle == 0 => saw_for = true,
                    _ if tokens[j].kind == TokenKind::Ident && angle == 0 => {
                        if saw_for {
                            last_ident_after_for = Some(tokens[j].text.clone());
                        } else {
                            last_ident = Some(tokens[j].text.clone());
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].text == "{" {
                let close = match_brace(tokens, j);
                if let Some(name) = last_ident_after_for.or(last_ident) {
                    spans.push(ImplSpan {
                        open: j,
                        close,
                        type_name: name,
                    });
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// From the opening `{` at `open`, returns the index of the matching
/// `}` (or the last token on unbalanced input).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Finds a fn's body span starting the scan after its name: the first
/// `{` outside parentheses opens the body; a `;` first means no body.
fn fn_body_span(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    let mut j = from;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "{" if paren == 0 => return Some((j, match_brace(tokens, j))),
            ";" if paren == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// The first fn item whose decl line is at or below `line`.
fn first_fn_at_or_below(fns: &[FnItem], line: u32) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.line >= line)
        .min_by_key(|(_, f)| f.line)
        .map(|(i, _)| i)
}

/// The innermost fn whose body token range contains `idx`.
fn enclosing_fn(fns: &[FnItem], idx: usize) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.body.is_some_and(|(o, c)| o < idx && idx < c))
        .min_by_key(|(_, f)| {
            let (o, c) = f.body.unwrap_or((0, usize::MAX));
            c - o
        })
        .map(|(i, _)| i)
}

/// The innermost fn whose body *line* range contains `line` (used for
/// facts the lexer reports by line, like pointer-format strings).
fn enclosing_fn_by_line(tokens: &[Token], fns: &[FnItem], line: u32) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| {
            f.body.is_some_and(|(o, c)| {
                tokens[o].line <= line && line <= tokens[c.min(tokens.len() - 1)].line
            })
        })
        .min_by_key(|(_, f)| {
            let (o, c) = f.body.unwrap_or((0, usize::MAX));
            c - o
        })
        .map(|(i, _)| i)
}

/// Token-stream scan for calls, allocation sites, taint sources, unsafe
/// spans, and `UnsafeCell` structs.
fn scan_bodies(lexed: &Lexed, items: &mut FileItems) {
    let tokens = &lexed.tokens;
    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i];
        if tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let next = |k: usize| tokens.get(i + k).map(|t| t.text.as_str()).unwrap_or("");

        // unsafe blocks / impls.
        if tok.text == "unsafe" {
            match next(1) {
                "{" => items.unsafes.push(UnsafeSite {
                    line: tok.line,
                    kind: UnsafeKind::Block,
                }),
                "impl" => items.unsafes.push(UnsafeSite {
                    line: tok.line,
                    kind: UnsafeKind::Impl,
                }),
                _ => {} // `unsafe fn` contracts live in `# Safety` docs
            }
            i += 1;
            continue;
        }

        // Structs with UnsafeCell fields.
        if tok.text == "struct" {
            if let Some(name_tok) = tokens.get(i + 1) {
                if name_tok.kind == TokenKind::Ident {
                    if let Some((open, close)) = fn_body_span(tokens, i + 2) {
                        let has_cell = tokens[open..close]
                            .iter()
                            .any(|t| t.kind == TokenKind::Ident && t.text == "UnsafeCell");
                        if has_cell {
                            items.cell_structs.push(CellStruct {
                                name: name_tok.text.clone(),
                                line: tok.line,
                                end_line: tokens[close.min(tokens.len() - 1)].line,
                            });
                        }
                        i = open + 1;
                        continue;
                    }
                }
            }
        }

        // Taint sources that are bare type idents.
        let ident_taint = match tok.text.as_str() {
            "Instant" | "SystemTime" => Some(TaintKind::WallClock),
            "HashMap" | "HashSet" => Some(TaintKind::RandomizedMap),
            "ThreadId" => Some(TaintKind::ThreadId),
            _ => None,
        };
        if let Some(kind) = ident_taint {
            if let Some(f) = enclosing_fn(&items.fns, i) {
                items.taints.push(TaintSource {
                    caller: f,
                    kind,
                    line: tok.line,
                });
            }
            i += 1;
            continue;
        }
        // `env::var` / `env::var_os` / `env::vars` / `env::vars_os`,
        // `thread::current`.
        if next(1) == "::" {
            let seq_taint = match (tok.text.as_str(), next(2)) {
                ("env", "var" | "var_os" | "vars" | "vars_os") => Some(TaintKind::EnvVar),
                ("thread", "current") => Some(TaintKind::ThreadId),
                _ => None,
            };
            if let Some(kind) = seq_taint {
                if let Some(f) = enclosing_fn(&items.fns, i) {
                    items.taints.push(TaintSource {
                        caller: f,
                        kind,
                        line: tok.line,
                    });
                }
            }
        }

        // Call sites: ident followed by `(`, not a declaration/keyword.
        if next(1) == "(" && !CALLISH_KEYWORDS.contains(&tok.text.as_str()) {
            let prev = if i > 0 { tokens[i - 1].text.as_str() } else { "" };
            if prev != "fn" {
                if let Some(caller) = enclosing_fn(&items.fns, i) {
                    let kind = if prev == "." {
                        CallKind::Method
                    } else if prev == "::" && i >= 2 && tokens[i - 2].kind == TokenKind::Ident {
                        CallKind::Path(tokens[i - 2].text.clone())
                    } else {
                        CallKind::Free
                    };
                    // Allocation patterns (subset of calls).
                    let what = match tok.text.as_str() {
                        "with_capacity" if kind != CallKind::Free && prev == "::" => {
                            Some("::with_capacity")
                        }
                        "new" if matches!(&kind, CallKind::Path(q) if q == "Vec") => {
                            Some("Vec::new")
                        }
                        "new" if matches!(&kind, CallKind::Path(q) if q == "Box") => {
                            Some("Box::new")
                        }
                        _ => None,
                    };
                    if let Some(what) = what {
                        items.allocs.push(AllocSite {
                            caller,
                            what,
                            line: tok.line,
                        });
                    }
                    items.calls.push(CallSite {
                        caller,
                        name: tok.text.clone(),
                        kind,
                        line: tok.line,
                    });
                }
            }
        }
        i += 1;
    }
}

/// Marks digest/fold fns and result-type constructors as taint sinks.
fn classify_sinks(tokens: &[Token], items: &mut FileItems) {
    for (f, item) in items.fns.iter().enumerate() {
        let lower = item.name.to_ascii_lowercase();
        if lower.contains("digest") || lower == "fold" {
            items.sinks.push(SinkInfo {
                fn_idx: f,
                reason: format!("digest/fold fn `{}`", item.name),
            });
            continue;
        }
        let Some((open, close)) = item.body else {
            continue;
        };
        // Struct-literal construction of a result type (`RunResult {`),
        // excluding item headers (`impl GridResult {`).
        let mut reason = None;
        for j in open..close {
            let t = &tokens[j];
            if t.kind == TokenKind::Ident
                && RESULT_TYPES.contains(&t.text.as_str())
                && tokens.get(j + 1).is_some_and(|n| n.text == "{")
            {
                let prev = if j > 0 { tokens[j - 1].text.as_str() } else { "" };
                if !matches!(prev, "impl" | "struct" | "enum" | "trait") {
                    reason = Some(format!("constructs {}", t.text));
                    break;
                }
            }
        }
        if reason.is_none() {
            // `Aggregate::new(…)`-style construction by associated fn.
            reason = items
                .calls
                .iter()
                .filter(|c| c.caller == f)
                .find_map(|c| match &c.kind {
                    CallKind::Path(q) if RESULT_TYPES.contains(&q.as_str()) => {
                        Some(format!("constructs {} via {}::{}", q, q, c.name))
                    }
                    _ => None,
                });
        }
        if let Some(reason) = reason {
            items.sinks.push(SinkInfo { fn_idx: f, reason });
        }
    }
}

/// Marks tokens inside `#[cfg(test)]`-gated items or `#[test]` fns.
///
/// Detection is token-level: on `# [ cfg ( test ) ]` or `# [ test ]`,
/// everything through the end of the next brace-balanced block is test
/// code. This covers `mod tests { … }` and standalone test fns; it does
/// not attempt full attribute grammar (e.g. `cfg(all(test, unix))`), so
/// exotic test gating should use an inline allow instead.
pub fn test_code_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if let Some(skip_from) = test_attr_end(tokens, i) {
            // Mark from the attribute through the end of the item body.
            let mut j = skip_from;
            let mut depth = 0usize;
            let mut entered = false;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "{" => {
                        depth += 1;
                        entered = true;
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            break;
                        }
                    }
                    ";" if !entered => break, // item without a body
                    _ => {}
                }
                j += 1;
            }
            let end = (j + 1).min(tokens.len());
            for m in mask.iter_mut().take(end).skip(i) {
                *m = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// If `tokens[i..]` starts a `#[cfg(test)]` or `#[test]` attribute,
/// returns the index just past its closing `]`.
fn test_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    let t = |k: usize| tokens.get(i + k).map(|t| t.text.as_str()).unwrap_or("");
    if t(0) != "#" || t(1) != "[" {
        return None;
    }
    if t(2) == "test" && t(3) == "]" {
        return Some(i + 4);
    }
    if t(2) == "cfg" && t(3) == "(" && t(4) == "test" && t(5) == ")" && t(6) == "]" {
        return Some(i + 7);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileItems {
        parse(&lex(src))
    }

    #[test]
    fn fn_items_with_impl_context() {
        let items = parse_src(
            "pub fn free() {}\n\
             impl Foo {\n    pub fn method(&self) -> u32 { 1 }\n}\n\
             impl fmt::Display for Bar {\n    fn fmt(&self) {}\n}\n\
             trait T { fn decl(&self); }",
        );
        let names: Vec<(&str, Option<&str>)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("method", Some("Foo")),
                ("fmt", Some("Bar")),
                ("decl", None),
            ]
        );
        assert!(items.fns[3].body.is_none(), "trait decl has no body");
    }

    #[test]
    fn generic_impl_resolves_inherent_type() {
        let items = parse_src("impl<'a, T: Clone> Planner<'a, T> {\n    fn plan(&self) {}\n}");
        assert_eq!(items.fns[0].impl_type.as_deref(), Some("Planner"));
    }

    #[test]
    fn call_sites_classified() {
        let items = parse_src(
            "fn f() {\n    g();\n    x.h();\n    Foo::make();\n    std::env::args();\n}",
        );
        let calls: Vec<(&str, CallKind)> = items
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind.clone()))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("g", CallKind::Free),
                ("h", CallKind::Method),
                ("make", CallKind::Path("Foo".into())),
                ("args", CallKind::Path("env".into())),
            ]
        );
        assert!(items.calls.iter().all(|c| c.caller == 0));
    }

    #[test]
    fn control_flow_keywords_are_not_calls() {
        let items = parse_src("fn f(x: bool) { if (x) { g(); } match (x) { _ => {} } }");
        let names: Vec<&str> = items.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["g"]);
    }

    #[test]
    fn markers_attach_to_next_fn() {
        let items = parse_src(
            "// simlint: hot\nfn hot_fn() {}\nfn plain() {}\n// simlint: config\nfn cfg_fn() {}",
        );
        assert!(items.fns[0].hot);
        assert!(!items.fns[1].hot && !items.fns[1].config_entry);
        assert!(items.fns[2].config_entry);
    }

    #[test]
    fn alloc_sites_detected() {
        let items = parse_src(
            "fn f() { let v = Vec::new(); let b = Box::new(1); let q = Q::with_capacity(4); let s = SmallMap::new(); }",
        );
        let what: Vec<&str> = items.allocs.iter().map(|a| a.what).collect();
        assert_eq!(what, vec!["Vec::new", "Box::new", "::with_capacity"]);
    }

    #[test]
    fn taint_sources_detected() {
        let items = parse_src(
            "fn f() {\n    let a = std::env::var(\"X\");\n    let t = Instant::now();\n    let m: HashMap<u32, u32>;\n    let id = std::thread::current();\n    println!(\"{:p}\", &a);\n}",
        );
        let kinds: Vec<TaintKind> = items.taints.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TaintKind::EnvVar));
        assert!(kinds.contains(&TaintKind::WallClock));
        assert!(kinds.contains(&TaintKind::RandomizedMap));
        assert!(kinds.contains(&TaintKind::ThreadId));
        assert!(kinds.contains(&TaintKind::PtrFormat));
        // Reading the whole environment is as nondeterministic as one
        // variable.
        let items = parse_src("fn g() { let all = std::env::vars_os(); }");
        assert_eq!(items.taints.len(), 1);
        assert_eq!(items.taints[0].kind, TaintKind::EnvVar);
    }

    #[test]
    fn unsafe_sites_detected() {
        let items = parse_src(
            "unsafe impl Sync for S {}\nfn f(p: *const u8) -> u8 { unsafe { *p } }\nunsafe fn g() {}",
        );
        let kinds: Vec<UnsafeKind> = items.unsafes.iter().map(|u| u.kind).collect();
        assert_eq!(kinds, vec![UnsafeKind::Impl, UnsafeKind::Block]);
    }

    #[test]
    fn unsafe_cell_structs_detected() {
        let items = parse_src(
            "struct Plain { x: u32 }\nstruct Slab {\n    slots: Vec<UnsafeCell<Option<u64>>>,\n}",
        );
        assert_eq!(items.cell_structs.len(), 1);
        assert_eq!(items.cell_structs[0].name, "Slab");
    }

    #[test]
    fn sink_classification() {
        let items = parse_src(
            "fn campaign_digest(x: u64) -> u64 { x }\n\
             fn build() -> RunResult { RunResult { v: 1 } }\n\
             fn assemble() { let a = Aggregate::new(); }\n\
             fn plain() {}",
        );
        let sinks: Vec<usize> = items.sinks.iter().map(|s| s.fn_idx).collect();
        assert_eq!(sinks, vec![0, 1, 2]);
    }

    #[test]
    fn nested_fn_calls_attach_to_innermost() {
        let items = parse_src("fn outer() {\n    fn inner() { g(); }\n    h();\n}");
        let by_name: Vec<(&str, &str)> = items
            .calls
            .iter()
            .map(|c| (items.fns[c.caller].name.as_str(), c.name.as_str()))
            .collect();
        assert!(by_name.contains(&("inner", "g")));
        assert!(by_name.contains(&("outer", "h")));
    }
}
