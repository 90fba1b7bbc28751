//! The cross-file call graph.
//!
//! Nodes are fn items across every file in a [`crate::Workspace`];
//! edges are name-resolved call sites. Resolution is deliberately an
//! *over-approximation* — simlint has no type information, so a method
//! call `x.reset()` gets an edge to every workspace method named
//! `reset`. That is the right bias for the rules built on top: the hot
//! closure and the taint pass must never miss a real path, and spurious
//! edges surface as findings a human dismisses with a justified
//! `simlint: allow`, not as silent gaps.
//!
//! Resolution per [`CallKind`]:
//!
//! * `Free` — all free fns with the callee's name;
//! * `Method` — all impl-block methods with the name, any type;
//! * `Path(Q)` — methods of type `Q` with the name (with `Self`
//!   rewritten to the caller's impl type); if `Q` names no workspace
//!   type, it is treated as a module path and falls back to free fns
//!   (`time::to_nanos` → free fn `to_nanos`).
//!
//! Two scoping facts narrow every kind, because the callee they drop is
//! not callable from the call site at all:
//!
//! * a call made from library code ([`crate::rules::FileClass::is_lib`])
//!   resolves only to fns defined in library files — a library cannot
//!   call into a bin, a test or an example;
//! * a free fn nested in another fn's body is a candidate only for calls
//!   inside that body. (Methods are not narrowed: an `impl` block inside
//!   a fn body still adds methods callable from anywhere.)
//!
//! Calls from non-library files keep the full over-approximation.
//!
//! Traversals are plain BFS over a visited set, so recursion cycles
//! terminate by construction; each visit records its predecessor so
//! rules can print the full call chain in findings.

use std::collections::BTreeMap;

use crate::items::{CallKind, FnItem};
use crate::SourceFile;

/// A fn node: `(file index, fn index within the file)` flattened.
pub type NodeId = usize;

/// Where a node lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Index into the workspace's file list.
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub fn_idx: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Node id → location.
    pub nodes: Vec<NodeRef>,
    /// Forward edges: node → callees (deduped, sorted).
    pub callees: Vec<Vec<NodeId>>,
    /// Reverse edges: node → callers (deduped, sorted).
    pub callers: Vec<Vec<NodeId>>,
    /// `(file, fn_idx)` → node id.
    index: BTreeMap<(usize, usize), NodeId>,
}

impl CallGraph {
    /// Builds the graph over every fn in `files`.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut g = CallGraph::default();

        // Nodes + name maps.
        let mut free_fns: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        let mut methods_by_qual: BTreeMap<(&str, &str), Vec<NodeId>> = BTreeMap::new();
        for (file, sf) in files.iter().enumerate() {
            for (fn_idx, f) in sf.items.fns.iter().enumerate() {
                let id = g.nodes.len();
                g.nodes.push(NodeRef { file, fn_idx });
                g.index.insert((file, fn_idx), id);
                match &f.impl_type {
                    Some(ty) => {
                        methods_by_name.entry(&f.name).or_default().push(id);
                        methods_by_qual.entry((ty, &f.name)).or_default().push(id);
                    }
                    None => free_fns.entry(&f.name).or_default().push(id),
                }
            }
        }
        g.callees = vec![Vec::new(); g.nodes.len()];
        g.callers = vec![Vec::new(); g.nodes.len()];
        // The body a nested free fn is visible in: the innermost other
        // fn body around its declaration.
        let scope: Vec<Option<(usize, usize)>> = g
            .nodes
            .iter()
            .map(|r| {
                let fns = &files[r.file].items.fns;
                let f = &fns[r.fn_idx];
                if f.impl_type.is_some() {
                    return None;
                }
                fns.iter()
                    .filter_map(|outer| outer.body)
                    .filter(|&(open, close)| open < f.decl_idx && f.decl_idx < close)
                    .min_by_key(|&(open, close)| close - open)
            })
            .collect();

        // Edges.
        for (file, sf) in files.iter().enumerate() {
            for call in &sf.items.calls {
                let Some(&from) = g.index.get(&(file, call.caller)) else {
                    continue;
                };
                let caller_item = &sf.items.fns[call.caller];
                // Where the call site sits: inside the caller's body.
                let site = caller_item
                    .body
                    .map_or(caller_item.decl_idx, |(open, _)| open);
                let callable = |to: &NodeId| {
                    let r = g.nodes[*to];
                    let lib_ok = !sf.class.is_lib || files[r.file].class.is_lib;
                    let scope_ok = scope[*to]
                        .is_none_or(|(open, close)| r.file == file && open <= site && site < close);
                    lib_ok && scope_ok
                };
                let candidates = |ids: Option<&Vec<NodeId>>| -> Vec<NodeId> {
                    ids.into_iter()
                        .flatten()
                        .copied()
                        .filter(callable)
                        .collect()
                };
                let targets = match &call.kind {
                    CallKind::Free => candidates(free_fns.get(call.name.as_str())),
                    CallKind::Method => candidates(methods_by_name.get(call.name.as_str())),
                    CallKind::Path(qual) => {
                        let qual: &str = if qual == "Self" {
                            caller_item.impl_type.as_deref().unwrap_or("Self")
                        } else {
                            qual
                        };
                        match candidates(methods_by_qual.get(&(qual, call.name.as_str()))) {
                            // No callable method of that type: the
                            // qualifier may be a module path
                            // (`time::to_nanos`) — fall back to free fns.
                            methods if methods.is_empty() => {
                                candidates(free_fns.get(call.name.as_str()))
                            }
                            methods => methods,
                        }
                    }
                };
                for to in targets {
                    g.callees[from].push(to);
                    g.callers[to].push(from);
                }
            }
        }
        for adj in g.callees.iter_mut().chain(g.callers.iter_mut()) {
            adj.sort_unstable();
            adj.dedup();
        }
        g
    }

    /// Node id for `(file, fn_idx)`.
    pub fn node(&self, file: usize, fn_idx: usize) -> Option<NodeId> {
        self.index.get(&(file, fn_idx)).copied()
    }

    /// The fn item a node refers to.
    pub fn item<'a>(&self, files: &'a [SourceFile], id: NodeId) -> &'a FnItem {
        let r = self.nodes[id];
        &files[r.file].items.fns[r.fn_idx]
    }

    /// BFS over `edges` (callees for forward, callers for reverse) from
    /// `roots`, returning `parent[n] = Some(predecessor)` for every
    /// reached node (roots map to `None`). `expand` gates whether a
    /// reached node's own edges are followed — a node for which it
    /// returns `false` is still *reached* (and appears in the map) but
    /// acts as a barrier.
    pub fn reach(
        &self,
        edges: &[Vec<NodeId>],
        roots: &[NodeId],
        mut expand: impl FnMut(NodeId) -> bool,
    ) -> BTreeMap<NodeId, Option<NodeId>> {
        let mut parent: BTreeMap<NodeId, Option<NodeId>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();
        for &r in roots {
            if parent.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            if !expand(n) {
                continue;
            }
            for &next in &edges[n] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                    e.insert(Some(n));
                    queue.push_back(next);
                }
            }
        }
        parent
    }

    /// Reconstructs the chain `root → … → n` as fn names, given a
    /// parent map from [`CallGraph::reach`].
    pub fn chain(
        &self,
        files: &[SourceFile],
        parent: &BTreeMap<NodeId, Option<NodeId>>,
        mut n: NodeId,
    ) -> Vec<String> {
        let mut names = vec![self.qualified_name(files, n)];
        while let Some(Some(p)) = parent.get(&n) {
            names.push(self.qualified_name(files, *p));
            n = *p;
        }
        names.reverse();
        names
    }

    /// `Type::name` for methods, `name` for free fns.
    pub fn qualified_name(&self, files: &[SourceFile], id: NodeId) -> String {
        let item = self.item(files, id);
        match &item.impl_type {
            Some(ty) => format!("{}::{}", ty, item.name),
            None => item.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    fn find(ws: &Workspace, g: &CallGraph, name: &str) -> NodeId {
        for (file, sf) in ws.files.iter().enumerate() {
            for (fn_idx, f) in sf.items.fns.iter().enumerate() {
                if f.name == name {
                    return g.node(file, fn_idx).expect("node");
                }
            }
        }
        panic!("no fn named {name}");
    }

    fn find_in(ws: &Workspace, g: &CallGraph, path: &str, name: &str) -> NodeId {
        let file = ws.files.iter().position(|sf| sf.rel == path).expect("file");
        let fn_idx = ws.files[file]
            .items
            .fns
            .iter()
            .position(|f| f.name == name)
            .expect("fn");
        g.node(file, fn_idx).expect("node")
    }

    #[test]
    fn lib_calls_skip_bin_fns_and_nested_fns_stay_in_their_body() {
        // A hot library fn calls a fn nested in its own body; a bin has
        // a fn of the same name that reaches a cold, allocating lib fn.
        const LIB: &str = "crates/core/src/lib.rs";
        const BIN: &str = "crates/bench/src/bin/tool.rs";
        let ws = ws(&[
            (
                LIB,
                "// simlint: hot\n\
                 pub fn step() { fn record() {} record(); }\n\
                 pub fn build() -> Vec<u8> { Vec::new() }",
            ),
            (BIN, "fn record() { build(); }\nfn main() { record(); }"),
        ]);
        let g = CallGraph::build(&ws.files);
        let step = find_in(&ws, &g, LIB, "step");
        let nested = find_in(&ws, &g, LIB, "record");
        let build = find_in(&ws, &g, LIB, "build");
        let bin_record = find_in(&ws, &g, BIN, "record");
        let bin_main = find_in(&ws, &g, BIN, "main");
        assert_eq!(
            g.callees[step],
            vec![nested],
            "lib code never calls a bin fn"
        );
        assert_eq!(
            g.callees[bin_main],
            vec![bin_record],
            "a nested fn is not callable outside its body"
        );
        assert_eq!(
            g.callees[bin_record],
            vec![build],
            "bins still reach lib fns"
        );
        let hot_allocs: Vec<_> = ws
            .lint()
            .into_iter()
            .filter(|f| f.rule == "no-alloc-in-hot-loop")
            .collect();
        assert!(hot_allocs.is_empty(), "{hot_allocs:?}");
    }

    #[test]
    fn cross_file_free_fn_resolution() {
        let ws = ws(&[
            ("crates/a/src/lib.rs", "pub fn caller() { helper(); }"),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        let g = CallGraph::build(&ws.files);
        let caller = find(&ws, &g, "caller");
        let helper = find(&ws, &g, "helper");
        assert_eq!(g.callees[caller], vec![helper]);
        assert_eq!(g.callers[helper], vec![caller]);
    }

    #[test]
    fn method_vs_free_fn_resolution() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn reset() {}\n\
             pub struct A;\n\
             impl A { pub fn reset(&mut self) {} }\n\
             pub struct B;\n\
             impl B { pub fn reset(&mut self) {} }\n\
             fn use_method(a: &mut A) { a.reset(); }\n\
             fn use_free() { reset(); }\n\
             fn use_qual(a: &mut A) { A::reset(a); }",
        )]);
        let g = CallGraph::build(&ws.files);
        let free = find(&ws, &g, "reset"); // first: the free fn
        let use_method = find(&ws, &g, "use_method");
        let use_free = find(&ws, &g, "use_free");
        let use_qual = find(&ws, &g, "use_qual");
        // Method call: both A::reset and B::reset (over-approx), never
        // the free fn.
        assert_eq!(g.callees[use_method].len(), 2);
        assert!(!g.callees[use_method].contains(&free));
        // Free call: only the free fn.
        assert_eq!(g.callees[use_free], vec![free]);
        // Qualified call: exactly A::reset.
        assert_eq!(g.callees[use_qual].len(), 1);
        assert!(!g.callees[use_qual].contains(&free));
    }

    #[test]
    fn self_qualifier_resolves_to_impl_type() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "struct A;\n\
             struct B;\n\
             impl A { fn make() -> A { A } fn build() -> A { Self::make() } }\n\
             impl B { fn make() -> B { B } }",
        )]);
        let g = CallGraph::build(&ws.files);
        let build = find(&ws, &g, "build");
        // Self::make resolves to A::make only, not B::make.
        assert_eq!(g.callees[build].len(), 1);
        let target = g.callees[build][0];
        assert_eq!(g.qualified_name(&ws.files, target), "A::make");
    }

    #[test]
    fn module_path_falls_back_to_free_fns() {
        let ws = ws(&[
            ("crates/a/src/lib.rs", "fn caller() { time::to_nanos(1.0); }"),
            ("crates/b/src/time.rs", "pub fn to_nanos(s: f64) -> u64 { 0 }"),
        ]);
        let g = CallGraph::build(&ws.files);
        let caller = find(&ws, &g, "caller");
        let callee = find(&ws, &g, "to_nanos");
        assert_eq!(g.callees[caller], vec![callee]);
    }

    #[test]
    fn recursion_cycle_terminates() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "fn ping(n: u32) { if n > 0 { pong(n - 1); } }\n\
             fn pong(n: u32) { ping(n); }\n\
             fn rec(n: u32) { rec(n); }",
        )]);
        let g = CallGraph::build(&ws.files);
        let ping = find(&ws, &g, "ping");
        let pong = find(&ws, &g, "pong");
        let rec = find(&ws, &g, "rec");
        let reached = g.reach(&g.callees, &[ping], |_| true);
        assert!(reached.contains_key(&pong));
        assert_eq!(reached[&pong], Some(ping));
        let self_loop = g.reach(&g.callees, &[rec], |_| true);
        assert_eq!(self_loop.len(), 1, "self-recursion reaches only itself");
    }

    #[test]
    fn reach_barrier_stops_expansion() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}",
        )]);
        let g = CallGraph::build(&ws.files);
        let (a, b, c) = (find(&ws, &g, "a"), find(&ws, &g, "b"), find(&ws, &g, "c"));
        let reached = g.reach(&g.callees, &[a], |n| n != b);
        assert!(reached.contains_key(&b), "barrier node is still reached");
        assert!(!reached.contains_key(&c), "but not expanded through");
        let _ = (a, c);
    }

    #[test]
    fn chain_reconstruction() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "fn top() { mid(); }\nfn mid() { leaf(); }\nstruct S;\nimpl S {}\nfn leaf() {}",
        )]);
        let g = CallGraph::build(&ws.files);
        let top = find(&ws, &g, "top");
        let leaf = find(&ws, &g, "leaf");
        let parent = g.reach(&g.callees, &[top], |_| true);
        assert_eq!(g.chain(&ws.files, &parent, leaf), vec!["top", "mid", "leaf"]);
    }
}
