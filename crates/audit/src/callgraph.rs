//! Workspace call graph and taint propagation.
//!
//! Two properties are computed for every function the item parser found:
//!
//! * **hot** — reachable from a registered kernel dispatch entry point
//!   ([`HOT_ROOTS`]): `Node::on_frame`/`on_timer` handlers, `Scheduler`
//!   queue operations, `Link` timing methods, and `Simulator::step`
//!   itself. Hot code runs once per simulated frame/event, so the
//!   `hotpath-*` lints apply to it.
//! * **det** — determinism-critical: hot code, plus any function from
//!   which a schedule-feeding kernel API ([`DET_SINKS`]) is reachable,
//!   plus everything reachable from those. If such code consults the
//!   wall clock or iterates a `HashMap`, two runs of the same scenario
//!   can diverge. The `det-*` lints apply to it.
//!
//! Name resolution is deliberately over-approximate (no type inference):
//! an unqualified method call edges to every workspace method of that
//! name, *except* names on the [`COMMON`] blocklist — std-dominated
//! names (`push`, `get`, `iter`, ...) whose matches would be noise.
//! Qualified calls (`Type::m`) resolve only against known workspace
//! types, so `Vec::new` or `Instant::now` never create edges. A missed
//! edge can under-taint (a lint stays quiet), never crash; the golden
//! divergence check remains the dynamic backstop.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{Call, FnDef, ParsedFile};

/// How a hot root is identified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// Any impl (or default body) of `OWNER::METHOD` where `OWNER` is a
    /// trait: every implementor's method is an independent root.
    Trait,
    /// The inherent method `OWNER::METHOD` of a concrete type.
    Inherent,
}

/// One registered hot-path entry point.
#[derive(Debug, Clone, Copy)]
pub struct RootSpec {
    /// Trait or type name owning the method.
    pub owner: &'static str,
    /// Method name.
    pub method: &'static str,
    /// Trait-dispatch or inherent.
    pub kind: RootKind,
    /// Why this is hot (shown in `tn-audit lints` and docs).
    pub why: &'static str,
}

/// The hot-root registry: kernel dispatch entry points. Everything
/// reachable from these runs once per simulated frame or event.
pub const HOT_ROOTS: &[RootSpec] = &[
    RootSpec {
        owner: "Node",
        method: "on_frame",
        kind: RootKind::Trait,
        why: "per-frame dispatch handler",
    },
    RootSpec {
        owner: "Node",
        method: "on_timer",
        kind: RootKind::Trait,
        why: "timer dispatch handler",
    },
    RootSpec {
        owner: "Scheduler",
        method: "push",
        kind: RootKind::Trait,
        why: "event-queue insert, once per scheduled event",
    },
    RootSpec {
        owner: "Scheduler",
        method: "pop",
        kind: RootKind::Trait,
        why: "event-queue extract, once per dispatched event",
    },
    RootSpec {
        owner: "Scheduler",
        method: "next_at",
        kind: RootKind::Trait,
        why: "event-queue peek on the dispatch loop",
    },
    RootSpec {
        owner: "Link",
        method: "transmit",
        kind: RootKind::Trait,
        why: "per-frame link timing",
    },
    RootSpec {
        owner: "Link",
        method: "decompose",
        kind: RootKind::Trait,
        why: "per-hop latency decomposition",
    },
    RootSpec {
        owner: "Simulator",
        method: "step",
        kind: RootKind::Inherent,
        why: "the kernel dispatch loop itself",
    },
    // `build` sits on the COMMON blocklist (builder-pattern calls would
    // otherwise edge every hot fn into every workspace `build`), so the
    // per-frame arena builder is registered as a root of its own.
    RootSpec {
        owner: "FrameBuilder",
        method: "build",
        kind: RootKind::Inherent,
        why: "arena frame finalization, once per constructed frame",
    },
];

/// Schedule-feeding kernel APIs: calling one of these means the caller's
/// behaviour shapes the event schedule, so the caller (and everything it
/// can reach) must be deterministic.
pub const DET_SINKS: &[(&str, &str)] = &[
    ("Simulator", "new"),
    ("Simulator", "with_scheduler"),
    ("Simulator", "add_node"),
    ("Simulator", "inject_frame"),
    ("Simulator", "schedule_timer"),
    ("Simulator", "install_link"),
    ("Simulator", "frame"),
    ("Context", "send"),
    ("Context", "set_timer"),
    ("Context", "deliver_local"),
    ("Context", "recycle"),
    ("Context", "frame"),
    ("Context", "clone_frame"),
    ("FrameBuilder", "build"),
];

/// How the dead-code walk treats one file's functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// `crates/*/src` outside the auditor: a non-test `pub fn` that no
    /// root reaches is reported.
    Audited,
    /// Integration tests, examples and `benchmark/src`: every function
    /// in the file is a root, `#[test]`s included.
    Root,
    /// Read for its edges only: the root crate's `src/` and the
    /// auditor's own sources. Their `fn main` and trait-impl methods are
    /// still roots.
    Edges,
}

/// The dead-code walk's roots, as `tn-audit lints` prints them.
pub const DEAD_ROOTS: &[(&str, &str)] = &[
    ("fn main", "every binary's entry point"),
    (
        "tests/, crates/*/tests/, benchmark/tests/",
        "integration tests, every function in them",
    ),
    ("examples/", "the runnable examples"),
    (
        "benchmark/src",
        "the benchmark, which the lint reads and never writes",
    ),
    (
        "impl Trait for T",
        "trait-impl methods: dispatch reaches them through the trait",
    ),
];

/// Method names so dominated by std receivers (`Vec`, `Option`, slices,
/// iterators, maps) that an unqualified `.name(` call must not resolve
/// onto same-named workspace methods. A call spelled `self.name(...)`
/// still resolves against the caller's own type first, so a workspace
/// type using one of these names keeps its own intra-type edges.
pub const COMMON: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    // Builder-pattern terminator: `.build()` chains off `ctx.frame()` on
    // every hot path and would otherwise edge into each workspace
    // `build` (fabric builders, report builders, ...). FrameBuilder's
    // own `build` is covered by its HOT_ROOTS / DET_SINKS entries.
    "build",
    "bytes",
    "chain",
    "chars",
    "checked_add",
    "checked_sub",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "map_or",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "ok",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "peek",
    "peekable",
    "pop",
    "position",
    "pow",
    "push",
    "push_str",
    "read",
    "remove",
    "repeat",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_at",
    "split_whitespace",
    "splitn",
    "starts_with",
    "step_by",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "swap",
    "swap_remove",
    "take",
    "then",
    "then_some",
    "to_le_bytes",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "wrapping_sub",
    "write",
    "zip",
];

/// Std module names: a `mod::f(...)` call whose qualifier is one of these
/// is a std call, never a workspace one.
const STD_MODULES: &[&str] = &[
    "mem",
    "ptr",
    "cmp",
    "fmt",
    "str",
    "slice",
    "iter",
    "time",
    "thread",
    "fs",
    "io",
    "env",
    "process",
    "collections",
    "convert",
    "array",
    "char",
    "f32",
    "f64",
    "u8",
    "u16",
    "u32",
    "u64",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "isize",
];

/// Taint verdict for one function.
#[derive(Debug, Clone, Default)]
pub struct FnTaint {
    /// `Some(note)` if hot; the note cites the call chain from its root.
    pub hot: Option<String>,
    /// `Some(note)` if determinism-critical (superset of hot).
    pub det: Option<String>,
}

/// A resolved call graph: the functions in it and each one's callees.
struct Graph<'a> {
    /// `(file index, index in that file's fns, definition)`.
    defs: Vec<(usize, usize, &'a FnDef)>,
    /// Callees of each def, as indices into `defs`.
    edges: Vec<BTreeSet<usize>>,
}

impl<'a> Graph<'a> {
    /// Resolve every call made by the functions `keep(file, def)` admits.
    /// With `common` false an unqualified call to a [`COMMON`] name makes
    /// no edge, which keeps the taint walks quiet; with it true such a
    /// call edges to every same-named method, so the dead walk errs
    /// toward keeping code.
    fn build(
        files: &[&'a ParsedFile],
        keep: impl Fn(usize, &FnDef) -> bool,
        common: bool,
    ) -> Graph<'a> {
        let mut defs: Vec<(usize, usize, &FnDef)> = Vec::new();
        for (fi, pf) in files.iter().enumerate() {
            for (li, d) in pf.fns.iter().enumerate() {
                if keep(fi, d) {
                    defs.push((fi, li, d));
                }
            }
        }

        let mut known_types: BTreeSet<&str> = BTreeSet::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (g, (_, _, d)) in defs.iter().enumerate() {
            match &d.self_ty {
                Some(t) => {
                    known_types.insert(t.as_str());
                    methods.entry(d.name.as_str()).or_default().push(g);
                }
                None => free.entry(d.name.as_str()).or_default().push(g),
            }
            if let Some(t) = &d.trait_name {
                known_types.insert(t.as_str());
            }
        }
        let free_named = |name: &str| free.get(name).cloned().unwrap_or_default();
        let method_named = |name: &str| methods.get(name).cloned().unwrap_or_default();
        let type_method = |ty: &str, name: &str| -> Vec<usize> {
            let all = methods.get(name).map(Vec::as_slice).unwrap_or_default();
            all.iter()
                .copied()
                .filter(|&g| defs[g].2.self_ty.as_deref() == Some(ty))
                .collect()
        };

        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); defs.len()];
        for (g, (fi, _, d)) in defs.iter().enumerate() {
            let std_imports = &files[*fi].std_imports;
            for call in &d.calls {
                let targets: Vec<usize> = match call {
                    Call::Free(name) => {
                        if std_imports.iter().any(|s| s == name) {
                            Vec::new()
                        } else {
                            free_named(name)
                        }
                    }
                    Call::Method { name, on_self } => {
                        let own: Vec<usize> = match (&d.self_ty, on_self) {
                            (Some(ty), true) => type_method(ty, name),
                            _ => Vec::new(),
                        };
                        if !own.is_empty() {
                            own
                        } else if !common && COMMON.contains(&name.as_str()) {
                            Vec::new()
                        } else {
                            method_named(name)
                        }
                    }
                    Call::Qual { qualifier, name } => {
                        let q: Option<&str> = if qualifier == "Self" {
                            d.self_ty.as_deref()
                        } else {
                            Some(qualifier.as_str())
                        };
                        match q {
                            Some(q) if q.starts_with(char::is_lowercase) => {
                                if STD_MODULES.contains(&q) {
                                    Vec::new()
                                } else {
                                    free_named(name)
                                }
                            }
                            Some(q) if known_types.contains(q) => type_method(q, name),
                            // Unknown (std) type: Vec::new, Instant::now, ...
                            _ => Vec::new(),
                        }
                    }
                };
                for t in targets {
                    if t != g {
                        edges[g].insert(t);
                    }
                }
            }
        }
        Graph { defs, edges }
    }

    /// Breadth-first closure from `roots`: which defs it reaches, and
    /// each reached non-root's predecessor on a shortest path.
    fn forward(&self, roots: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut seen = vec![false; self.defs.len()];
        let mut parent = vec![None; self.defs.len()];
        for &g in roots {
            seen[g] = true;
        }
        let mut queue = roots.to_vec();
        let mut qi = 0;
        while qi < queue.len() {
            let g = queue[qi];
            qi += 1;
            for &t in &self.edges[g] {
                if !seen[t] {
                    seen[t] = true;
                    parent[t] = Some(g);
                    queue.push(t);
                }
            }
        }
        (seen, parent)
    }
}

/// The non-test `pub fn`s of [`Reach::Audited`] files that no root
/// reaches, as `(file, fn)` indices into `files[file].0.fns`. A call from
/// an item's own `#[cfg(test)]` module is no root: test functions enter
/// the graph only from [`Reach::Root`] files.
pub fn unreached(files: &[(&ParsedFile, Reach)]) -> Vec<(usize, usize)> {
    let parsed: Vec<&ParsedFile> = files.iter().map(|(pf, _)| *pf).collect();
    let graph = Graph::build(
        &parsed,
        |fi, d| !d.is_test || files[fi].1 == Reach::Root,
        true,
    );
    let roots: Vec<usize> = (0..graph.defs.len())
        .filter(|&g| {
            let (fi, _, d) = graph.defs[g];
            files[fi].1 == Reach::Root
                || d.trait_name.is_some()
                || (d.name == "main" && d.self_ty.is_none())
        })
        .collect();
    let (seen, _) = graph.forward(&roots);
    graph
        .defs
        .iter()
        .zip(seen)
        .filter(|((fi, _, d), seen)| !seen && d.is_pub && files[*fi].1 == Reach::Audited)
        .map(|((fi, li, _), _)| (*fi, *li))
        .collect()
}

/// Compute per-function taints for the whole workspace. `files` pairs
/// each parsed file with whether its functions are allowed to *be* hot
/// roots (crate sources yes; examples/tests scaffolding no). The result
/// is indexed `[file][fn]`, parallel to `files[i].0.fns`.
pub fn analyze(files: &[(&ParsedFile, bool)]) -> Vec<Vec<FnTaint>> {
    let parsed: Vec<&ParsedFile> = files.iter().map(|(pf, _)| *pf).collect();
    let graph = Graph::build(&parsed, |_, d| !d.is_test, false);
    let defs = &graph.defs;
    let n = defs.len();
    let mut redges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (g, outs) in graph.edges.iter().enumerate() {
        for &t in outs {
            redges[t].insert(g);
        }
    }

    let qualified = |g: usize| defs[g].2.qualified();
    let matches_root = |d: &FnDef, r: &RootSpec| match r.kind {
        RootKind::Trait => d.trait_name.as_deref() == Some(r.owner) && d.name == r.method,
        RootKind::Inherent => {
            d.self_ty.as_deref() == Some(r.owner) && d.trait_name.is_none() && d.name == r.method
        }
    };

    // ---- hot: forward closure from the roots ------------------------
    let mut hot_root: Vec<Option<&RootSpec>> = vec![None; n];
    let mut roots: Vec<usize> = Vec::new();
    for (g, (fi, _, d)) in defs.iter().enumerate() {
        let hot_ok = files[*fi].1;
        if !hot_ok {
            continue;
        }
        if let Some(r) = HOT_ROOTS.iter().find(|r| matches_root(d, r)) {
            hot_root[g] = Some(r);
            roots.push(g);
        }
    }
    let (hot_seen, hot_parent) = graph.forward(&roots);
    let hot_chain = |mut g: usize| -> Vec<usize> {
        let mut chain = vec![g];
        while let Some(p) = hot_parent[g] {
            chain.push(p);
            g = p;
        }
        chain.reverse();
        chain
    };

    // ---- det: hot ∪ forward-closure(backward-closure(sinks)) --------
    let is_sink = |d: &FnDef| {
        DET_SINKS.iter().any(|(ty, m)| {
            d.name == *m
                && (d.self_ty.as_deref() == Some(*ty) || d.trait_name.as_deref() == Some(*ty))
        })
    };
    // Backward: from each fn, the next hop toward a sink (if any).
    let mut to_sink: Vec<Option<usize>> = vec![None; n];
    let mut back_seen: Vec<bool> = vec![false; n];
    let mut bq: Vec<usize> = Vec::new();
    for (g, (_, _, d)) in defs.iter().enumerate() {
        if is_sink(d) {
            back_seen[g] = true;
            bq.push(g);
        }
    }
    let mut bi = 0;
    while bi < bq.len() {
        let g = bq[bi];
        bi += 1;
        for &c in &redges[g] {
            if !back_seen[c] {
                back_seen[c] = true;
                to_sink[c] = Some(g);
                bq.push(c);
            }
        }
    }
    let sink_chain = |mut g: usize| -> Vec<usize> {
        let mut chain = vec![g];
        while let Some(s) = to_sink[g] {
            chain.push(s);
            g = s;
        }
        chain
    };
    // Forward extension: everything reachable from the backward set.
    let (det_seen, det_parent) = graph.forward(&bq);

    // ---- render ------------------------------------------------------
    let mut out: Vec<Vec<FnTaint>> = files
        .iter()
        .map(|(pf, _)| vec![FnTaint::default(); pf.fns.len()])
        .collect();
    for (g, (fi, li, d)) in defs.iter().enumerate() {
        let mut t = FnTaint::default();
        if hot_seen[g] {
            let chain = hot_chain(g);
            let root = hot_root[chain[0]].expect("hot chain starts at a root");
            let path: Vec<String> = chain.iter().map(|&c| qualified(c)).collect();
            t.hot = Some(if chain.len() == 1 {
                format!(
                    "hot root {}::{} ({}): {}",
                    root.owner, root.method, root.why, path[0]
                )
            } else {
                format!(
                    "reachable from hot root {}::{}: {}",
                    root.owner,
                    root.method,
                    path.join(" -> ")
                )
            });
        }
        if det_seen[g] {
            t.det = Some(if is_sink(d) {
                format!("schedule-feeding kernel API {}", qualified(g))
            } else if back_seen[g] {
                let path: Vec<String> = sink_chain(g).iter().map(|&c| qualified(c)).collect();
                format!("feeds the simulator schedule: {}", path.join(" -> "))
            } else {
                let mut chain = vec![g];
                let mut c = g;
                while let Some(p) = det_parent[c] {
                    chain.push(p);
                    c = p;
                }
                chain.reverse();
                let path: Vec<String> = chain.iter().map(|&c| qualified(c)).collect();
                format!(
                    "reachable from schedule-feeding code: {}",
                    path.join(" -> ")
                )
            });
        } else if let Some(h) = &t.hot {
            t.det = Some(h.clone());
        }
        out[*fi][*li] = t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use crate::source::SourceFile;

    fn taints(srcs: &[&str]) -> Vec<Vec<FnTaint>> {
        let parsed: Vec<_> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| parse_file(&SourceFile::parse(&format!("f{i}.rs"), s)))
            .collect();
        let refs: Vec<(&crate::items::ParsedFile, bool)> =
            parsed.iter().map(|p| (p, true)).collect();
        analyze(&refs)
    }

    fn named<'a>(t: &'a [Vec<FnTaint>], srcs: &[&str], name: &str) -> &'a FnTaint {
        for (fi, s) in srcs.iter().enumerate() {
            let pf = parse_file(&SourceFile::parse("x.rs", s));
            if let Some(li) = pf.fns.iter().position(|f| f.name == name) {
                return &t[fi][li];
            }
        }
        panic!("fn {name} not found");
    }

    #[test]
    fn on_frame_impl_is_a_hot_root_and_taints_callees() {
        let srcs = &[
            "impl Node for Gateway {\n  fn on_frame(&mut self) { self.route(); }\n}\n\
             impl Gateway {\n  fn route(&mut self) { helper(); }\n}\n\
             fn helper() {}\nfn cold() {}\n",
        ];
        let t = taints(srcs);
        assert!(named(&t, srcs, "on_frame").hot.is_some());
        let route = named(&t, srcs, "route");
        assert!(route.hot.as_deref().unwrap().contains("on_frame"));
        assert!(named(&t, srcs, "helper").hot.is_some());
        assert!(named(&t, srcs, "cold").hot.is_none());
    }

    #[test]
    fn hot_propagates_across_files() {
        let srcs = &[
            "impl Node for Tap {\n  fn on_frame(&mut self) { decode_header(0); }\n}\n",
            "pub fn decode_header(x: u32) -> u32 { x }\n",
        ];
        let t = taints(srcs);
        let d = named(&t, srcs, "decode_header");
        assert!(d.hot.is_some(), "{d:?}");
    }

    #[test]
    fn common_method_names_do_not_create_edges() {
        let srcs = &[
            "impl Node for S {\n  fn on_frame(&mut self) { self.q.push(1); v.get(0); }\n}\n\
             impl Queue {\n  fn push(&mut self, x: u32) {}\n  fn get(&self, i: usize) {}\n}\n",
        ];
        let t = taints(srcs);
        // Queue::push matches no Scheduler trait; `.push(` is COMMON.
        assert!(named(&t, srcs, "get").hot.is_none());
    }

    #[test]
    fn qualified_std_calls_do_not_resolve() {
        let srcs = &[
            "impl Node for S {\n  fn on_frame(&mut self) { let v = Vec::new(); }\n}\n\
             impl Pool {\n  fn new() -> Pool { Pool }\n}\n",
        ];
        let t = taints(srcs);
        assert!(named(&t, srcs, "new").hot.is_none());
    }

    #[test]
    fn scheduler_impls_are_hot_without_name_heuristics() {
        let srcs = &[
            "impl Scheduler for CalendarQueue {\n  fn pop(&mut self) -> u32 { self.rotate() }\n}\n\
             impl CalendarQueue {\n  fn rotate(&mut self) -> u32 { 0 }\n}\n",
        ];
        let t = taints(srcs);
        assert!(named(&t, srcs, "rotate").hot.is_some());
    }

    #[test]
    fn schedule_feeders_become_det_critical() {
        let srcs = &["impl Simulator {\n  fn inject_frame(&mut self) {}\n}\n\
             fn build(sim: &mut Simulator) { sim.inject_frame(); shared(); }\n\
             fn shared() {}\nfn unrelated() {}\n"];
        let t = taints(srcs);
        let b = named(&t, srcs, "build");
        assert!(b.det.is_some() && b.hot.is_none(), "{b:?}");
        assert!(b.det.as_deref().unwrap().contains("inject_frame"));
        // Forward extension: called from det code.
        assert!(named(&t, srcs, "shared").det.is_some());
        assert!(named(&t, srcs, "unrelated").det.is_none());
    }

    #[test]
    fn hot_fns_are_det_too() {
        let srcs = &["impl Node for S {\n  fn on_frame(&mut self) {}\n}\n"];
        let t = taints(srcs);
        assert!(named(&t, srcs, "on_frame").det.is_some());
    }

    #[test]
    fn test_fns_are_excluded() {
        let srcs = &[
            "#[cfg(test)]\nmod t {\n  impl Node for Probe {\n    fn on_frame(&mut self) { live(); }\n  }\n}\nfn live() {}\n",
        ];
        let t = taints(srcs);
        assert!(named(&t, srcs, "live").hot.is_none());
    }

    #[test]
    fn non_root_files_contribute_no_roots() {
        let parsed = parse_file(&SourceFile::parse(
            "tests/x.rs",
            "impl Node for Probe {\n  fn on_frame(&mut self) { helper(); }\n}\nfn helper() {}\n",
        ));
        let t = analyze(&[(&parsed, false)]);
        assert!(t[0].iter().all(|f| f.hot.is_none()));
    }
}
