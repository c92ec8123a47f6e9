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
//! Name resolution infers no types. A method call whose receiver type
//! the function writes down (`self`, a parameter `x: T`, a `let x: T`,
//! see [`crate::items::Call::Method`]) resolves by that type; any other
//! edges to every workspace method of that name, *except* names on the
//! [`COMMON`] blocklist — std-dominated names (`push`, `get`, `iter`,
//! ...) whose matches would be noise. Qualified calls (`Type::m`)
//! resolve only against known workspace types, so `Vec::new` or
//! `Instant::now` never create edges. A missed edge can under-taint (a
//! lint stays quiet), never crash; the golden divergence check remains
//! the dynamic backstop.
//!
//! The dead-code walk ([`unreached`]) also tracks which types reached
//! code builds ([`CONSTRUCTION_RULE`]): a trait-impl method is a root
//! only once its self type is built.

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
        "trait-impl methods, once reached code builds T (construction, below)",
    ),
];

/// What counts as building a type, as `tn-audit lints` prints it beside
/// [`DEAD_ROOTS`].
pub const CONSTRUCTION_RULE: &str = "a type is built when a reached function names it outside its \
parameter list: a struct literal, tuple constructor, unit value, `let` annotation, turbofish, pattern or \
return type, or a `T::x` path where `x` is no function of T (a variant, a constant, a derived `default`); \
`T::f(..)` for a workspace `f` builds T only if `f` does; a built type builds what its fields and variants \
name, and a `const`, `static` or `type` item builds what it names";

/// Method names so dominated by std receivers (`Vec`, `Option`, slices,
/// iterators, maps) that an unqualified `.name(` call must not resolve
/// onto same-named workspace methods. A call on a typed receiver
/// (`self.name(...)`, `q.push(..)` with `q: &mut Queue`) still resolves
/// by its type, so a workspace type using one of these names keeps the
/// edges its callers spell out.
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

/// A resolved call graph: the functions in it, each one's callees, and
/// the types each one builds.
struct Graph<'a> {
    /// `(file index, index in that file's fns, definition)`.
    defs: Vec<(usize, usize, &'a FnDef)>,
    /// Callees of each def, as indices into `defs`.
    edges: Vec<BTreeSet<usize>>,
    /// Type names each def builds: its [`FnDef::builds`], aliases
    /// resolved, plus the type of each `T::x` path it names where `x` is
    /// no function of `T` (a variant, a constant, a derived `default`).
    builds: Vec<BTreeSet<String>>,
}

impl<'a> Graph<'a> {
    /// Resolve every call made by the functions `keep(file, def)` admits.
    ///
    /// A method call whose receiver type the parser recorded resolves
    /// by that type: a trait's to the trait's method in every impl, a
    /// workspace type's to its inherent method, else its trait-impl
    /// method, and a type the workspace neither defines nor implements
    /// (`Vec`, `Option`, `u64`) to nothing. Every other method call, and
    /// one on a workspace type with no method of that name (a trait's
    /// default body, a `Deref` target), resolves by name alone: with
    /// `common` false a [`COMMON`] name makes no edge, which keeps the
    /// taint walks quiet; with it true such a call edges to every
    /// same-named method, so the dead walk errs toward keeping code.
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

        let aliases: BTreeMap<&str, &str> = files
            .iter()
            .flat_map(|pf| &pf.aliases)
            .map(|(a, t)| (a.as_str(), t.as_str()))
            .collect();
        fn alias_of<'s>(aliases: &BTreeMap<&str, &'s str>, t: &'s str) -> &'s str {
            aliases.get(t).copied().unwrap_or(t)
        }
        let defined: BTreeSet<&str> = files
            .iter()
            .flat_map(|pf| &pf.types)
            .map(|t| t.name.as_str())
            .collect();
        let mut known_types: BTreeSet<&str> = defined.clone();
        let mut traits: BTreeSet<&str> = BTreeSet::new();
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
                if !defined.contains(t.as_str()) {
                    traits.insert(t.as_str());
                }
            }
        }
        let free_named = |name: &str| free.get(name).cloned().unwrap_or_default();
        let method_named = |name: &str| methods.get(name).cloned().unwrap_or_default();
        let named_where = |name: &str, f: &dyn Fn(&FnDef) -> bool| -> Vec<usize> {
            let all = methods.get(name).map(Vec::as_slice).unwrap_or_default();
            all.iter().copied().filter(|&g| f(defs[g].2)).collect()
        };
        let type_method =
            |ty: &str, name: &str| named_where(name, &|d| d.self_ty.as_deref() == Some(ty));
        // `Some(callees)` when the receiver's type decides the call.
        let typed = |ty: &str, name: &str| -> Option<Vec<usize>> {
            let ty = alias_of(&aliases, ty);
            let hits = if traits.contains(ty) {
                named_where(name, &|d| d.trait_name.as_deref() == Some(ty))
            } else if known_types.contains(ty) {
                let inherent = named_where(name, &|d| {
                    d.self_ty.as_deref() == Some(ty) && d.trait_name.is_none()
                });
                if inherent.is_empty() {
                    type_method(ty, name)
                } else {
                    inherent
                }
            } else {
                return Some(Vec::new());
            };
            (!hits.is_empty()).then_some(hits)
        };

        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); defs.len()];
        let mut builds: Vec<BTreeSet<String>> = Vec::with_capacity(defs.len());
        for (g, (fi, _, d)) in defs.iter().enumerate() {
            let std_imports = &files[*fi].std_imports;
            let mut built: BTreeSet<String> = d
                .builds
                .iter()
                .map(|t| alias_of(&aliases, t).to_string())
                .collect();
            for call in &d.calls {
                let targets: Vec<usize> = match call {
                    Call::Free(name) => {
                        if std_imports.iter().any(|s| s == name) {
                            Vec::new()
                        } else {
                            free_named(name)
                        }
                    }
                    Call::Method { name, recv } => {
                        match recv.as_deref().and_then(|t| typed(t, name)) {
                            Some(hits) => hits,
                            None if !common && COMMON.contains(&name.as_str()) => Vec::new(),
                            None => method_named(name),
                        }
                    }
                    Call::Qual { qualifier, name } => {
                        let q: Option<&str> = if qualifier == "Self" {
                            d.self_ty.as_deref()
                        } else {
                            Some(alias_of(&aliases, qualifier))
                        };
                        match q {
                            Some(q) if q.starts_with(char::is_lowercase) => {
                                if STD_MODULES.contains(&q) {
                                    Vec::new()
                                } else {
                                    free_named(name)
                                }
                            }
                            Some(q) if known_types.contains(q) => {
                                let hits = type_method(q, name);
                                if hits.is_empty() {
                                    built.insert(q.to_string());
                                }
                                hits
                            }
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
            builds.push(built);
        }
        Graph {
            defs,
            edges,
            builds,
        }
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

/// What the dead-code walk found unreached, as indices into its input.
#[derive(Debug, Default)]
pub struct Unreached {
    /// `(file, fn)`: non-test `pub fn`s of [`Reach::Audited`] files that
    /// no root reaches.
    pub fns: Vec<(usize, usize)>,
    /// `(file, type)`: non-test `pub` types of [`Reach::Audited`] files
    /// that no reached function builds.
    pub types: Vec<(usize, usize)>,
}

/// Walk the dead-code graph from its roots ([`DEAD_ROOTS`]). A call from
/// an item's own `#[cfg(test)]` module is no root: test functions enter
/// the graph only from [`Reach::Root`] files. A trait-impl method for a
/// workspace type is a root only once a reached function builds that
/// type ([`FnDef::builds`]); one for any other self type (a generic, a
/// std type) and a trait's own default body always are.
pub fn unreached(files: &[(&ParsedFile, Reach)]) -> Unreached {
    let parsed: Vec<&ParsedFile> = files.iter().map(|(pf, _)| *pf).collect();
    let graph = Graph::build(
        &parsed,
        |fi, d| !d.is_test || files[fi].1 == Reach::Root,
        true,
    );
    let mut holds: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for t in parsed.iter().flat_map(|pf| &pf.types) {
        holds
            .entry(t.name.as_str())
            .or_default()
            .extend(t.names.iter().map(String::as_str));
    }
    // Trait-impl methods waiting for their self type to be built.
    let mut waiting: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for (g, &(fi, _, d)) in graph.defs.iter().enumerate() {
        let impl_of = d
            .self_ty
            .as_deref()
            .filter(|t| d.trait_name.as_deref() != Some(*t) && holds.contains_key(t));
        match impl_of {
            Some(t) if d.trait_name.is_some() && files[fi].1 != Reach::Root => {
                waiting.entry(t).or_default().push(g)
            }
            _ if files[fi].1 == Reach::Root
                || d.trait_name.is_some()
                || (d.name == "main" && d.self_ty.is_none()) =>
            {
                queue.push(g)
            }
            _ => {}
        }
    }
    let mut seen = vec![false; graph.defs.len()];
    for &g in &queue {
        seen[g] = true;
    }
    // A type once built builds what it holds, and roots its impls.
    let mut built: BTreeSet<String> = BTreeSet::new();
    let mut build = |t: &str, seen: &mut Vec<bool>, queue: &mut Vec<usize>| {
        let mut todo = vec![t.to_string()];
        while let Some(t) = todo.pop() {
            let t = t.as_str();
            if !built.contains(t) {
                built.insert(t.to_string());
                todo.extend(holds.get(t).into_iter().flatten().map(|h| h.to_string()));
                for &w in waiting.get(t).into_iter().flatten() {
                    if !seen[w] {
                        seen[w] = true;
                        queue.push(w);
                    }
                }
            }
        }
    };
    for t in parsed.iter().flat_map(|pf| &pf.item_builds) {
        build(t, &mut seen, &mut queue);
    }
    let mut qi = 0;
    while qi < queue.len() {
        let g = queue[qi];
        qi += 1;
        for t in &graph.builds[g] {
            build(t, &mut seen, &mut queue);
        }
        for &t in &graph.edges[g] {
            if !seen[t] {
                seen[t] = true;
                queue.push(t);
            }
        }
    }
    let audited = |fi: usize| files[fi].1 == Reach::Audited;
    let fns = graph
        .defs
        .iter()
        .zip(seen)
        .filter(|((fi, _, d), seen)| !seen && d.is_pub && audited(*fi))
        .map(|((fi, li, _), _)| (*fi, *li))
        .collect();
    let mut types = Vec::new();
    for (fi, pf) in parsed.iter().enumerate() {
        for (ti, t) in pf.types.iter().enumerate() {
            if audited(fi) && t.is_pub && !t.is_test && !built.contains(&t.name) {
                types.push((fi, ti));
            }
        }
    }
    Unreached { fns, types }
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
    fn typed_receivers_resolve_by_their_type() {
        let src = "impl Node for S {\n  fn on_frame(&mut self, k: Kind, v: Vec<u8>, l: &dyn Link) \
                   { k.go(); v.stats(); l.spin(); u.tick(); }\n}\n\
                   impl Kind {\n  fn go(&self) {}\n}\nimpl Other {\n  fn go(&self) {}\n  fn stats(&self) {}\n}\n\
                   impl Link for A {\n  fn spin(&mut self) {}\n}\nimpl B {\n  fn spin(&mut self) {}\n}\n\
                   impl C {\n  fn tick(&self) {}\n}\n";
        let parsed = parse_file(&SourceFile::parse("f.rs", src));
        let t = analyze(&[(&parsed, true)]);
        let hot: Vec<String> = parsed
            .fns
            .iter()
            .zip(&t[0])
            .filter(|(_, t)| t.hot.is_some())
            .map(|(d, _)| d.qualified())
            .collect();
        // `Vec` is no workspace type: `v.stats()` reaches nothing; the
        // untyped `u.tick()` keeps the name-wise rule.
        assert_eq!(hot, ["S::on_frame", "Kind::go", "A::spin", "C::tick"]);
    }

    #[test]
    fn a_trait_impl_is_a_dead_root_once_its_type_is_built() {
        let lib = parse_file(&SourceFile::parse(
            "crates/x/src/lib.rs",
            "pub struct Built;\npub struct Never;\n\
             impl Go for Built {\n  fn go(&self) { built_only(); }\n}\n\
             impl Go for Never {\n  fn go(&self) { never_only(); }\n}\n\
             pub fn built_only() {}\npub fn never_only() {}\n",
        ));
        let main = parse_file(&SourceFile::parse(
            "examples/e.rs",
            "fn main() {\n    let _ = x::Built;\n}\n",
        ));
        let u = unreached(&[(&lib, Reach::Audited), (&main, Reach::Root)]);
        let fns: Vec<&str> = u
            .fns
            .iter()
            .map(|&(_, li)| lib.fns[li].name.as_str())
            .collect();
        let types: Vec<&str> = u
            .types
            .iter()
            .map(|&(_, ti)| lib.types[ti].name.as_str())
            .collect();
        assert_eq!((fns, types), (vec!["never_only"], vec!["Never"]));
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
