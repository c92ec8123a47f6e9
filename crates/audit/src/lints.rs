//! The lint pass: determinism / hot-path / schema lints over lexed source.
//!
//! Determinism lints (`det-*`) guard the property `tn-audit divergence`
//! verifies dynamically: same scenario + same seed ⇒ same trace digest.
//! Hot-path lints (`hotpath-*`) guard the per-frame code paths against
//! panics and allocation — the paper's whole argument is that the hot
//! path is measured in nanoseconds.
//!
//! Since tn-audit v2, *which* lines are hot or determinism-critical is
//! not decided here (and not by function-name heuristics): the workspace
//! call graph ([`crate::callgraph`]) propagates taint from the kernel's
//! registered hot roots and schedule-feeding APIs, and this pass receives
//! the per-line verdicts as a [`FileTaint`]. Detection itself stays
//! token-level, so every finding can still be waived in place with
//! `// audit:allow(<lint>): <justification>`.

use crate::schema;
use crate::source::{tokenize, Line, SourceFile, Tok};

/// How bad a finding is. Both severities fail the build when active; the
/// split exists for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breaks the determinism contract (or ships an unregistered schema).
    Error,
    /// Hurts the hot path.
    Warning,
}

impl Severity {
    /// Lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Static description of one lint.
pub struct LintInfo {
    /// Stable id, used in reports and `audit:allow(...)`.
    pub id: &'static str,
    /// Report severity.
    pub severity: Severity,
    /// One-line description for `tn-audit lints`.
    pub summary: &'static str,
    /// How many `audit:allow` suppressions of this lint the workspace
    /// carries. `tn-audit lint` fails when the count differs in either
    /// direction: more is creep, fewer means a fix must lower this.
    pub budget: usize,
}

/// Every lint the pass knows about.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "det-hashmap-iter",
        severity: Severity::Error,
        summary: "iteration over a HashMap/HashSet in determinism-critical code — visit order is nondeterministic",
        budget: 0,
    },
    LintInfo {
        id: "det-wallclock",
        severity: Severity::Error,
        summary: "wall-clock time source (Instant/SystemTime) in determinism-critical code",
        budget: 0,
    },
    LintInfo {
        id: "det-unseeded-rng",
        severity: Severity::Error,
        summary: "entropy-seeded RNG (thread_rng/from_entropy/OsRng) — runs are not reproducible",
        budget: 0,
    },
    LintInfo {
        id: "obs-wallclock",
        severity: Severity::Error,
        summary: "std::time type (Duration/UNIX_EPOCH/...) in telemetry code — timestamps must be simulated picoseconds",
        budget: 0,
    },
    LintInfo {
        id: "hotpath-unwrap",
        severity: Severity::Warning,
        summary: "unwrap/expect/panic! on a path reachable from a kernel dispatch root",
        // Port fan-in fixed by wiring (×6); directory, book and config
        // invariants (×7); scheduler occupancy invariants (×3).
        budget: 16,
    },
    LintInfo {
        id: "hotpath-alloc",
        severity: Severity::Warning,
        summary: "heap allocation (Vec::new/format!/to_vec/...) on a path reachable from a kernel dispatch root",
        // Cold paths: opt-in provenance (×2), the calendar rebuild and
        // the wheel rewind, a histogram's first observation.
        budget: 5,
    },
    LintInfo {
        id: "perf-arena-leak",
        severity: Severity::Warning,
        summary: "frame buffer dropped (`drop(frame)`) instead of returned to the arena",
        budget: 0,
    },
    LintInfo {
        id: "dead",
        severity: Severity::Warning,
        summary: "`pub fn` in crates/*/src that no root reaches, `pub` type there nothing reached builds, field there nothing reads, or crate-root `pub use` nothing imports — delete it, or justify it as a test oracle or another lint's requirement",
        // Test oracles: `LossModel::mean_loss`, `RecoveryClient::re_requests`.
        budget: 2,
    },
    LintInfo {
        id: "schema-version",
        severity: Severity::Error,
        summary: "wire-format version string absent from the schema registry (crates/audit/src/schema.rs)",
        budget: 0,
    },
];

/// Look up a lint's metadata by id.
pub fn lint_info(id: &str) -> &'static LintInfo {
    LINTS.iter().find(|l| l.id == id).expect("unknown lint id")
}

/// One finding at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint id.
    pub lint: &'static str,
    /// Severity (from the lint).
    pub severity: Severity,
    /// File, relative to the repo root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Human-readable message.
    pub message: String,
    /// The raw source line, for the report.
    pub snippet: String,
    /// Why the lint applied here: the call chain from a hot root or to a
    /// schedule-feeding API, rendered by the call-graph analysis.
    pub note: Option<String>,
    /// Whether an `audit:allow` waives it.
    pub suppressed: bool,
}

/// Which lint families may apply to a file at all. Whether a given line
/// actually triggers the taint-gated lints is decided by [`FileTaint`].
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// `hotpath-*` lints may fire (crate sources; off for examples/tests
    /// scaffolding, whose handlers are not kernel-dispatched in anger).
    pub hotpath: bool,
    /// Apply `obs-wallclock` (telemetry code: the tn-obs crate).
    pub obs: bool,
    /// Apply `perf-*` lints (frame-arena discipline).
    pub perf: bool,
    /// Apply `schema-version` (any code that may emit wire formats).
    pub schema: bool,
}

impl Scope {
    /// Everything on (used by tests and fixtures).
    pub fn full() -> Scope {
        Scope {
            hotpath: true,
            obs: true,
            perf: true,
            schema: true,
        }
    }
}

/// Per-line taint verdicts for one file, produced by the call-graph
/// analysis. All vectors are indexed by 0-based line.
#[derive(Debug, Clone)]
pub struct FileTaint {
    /// `Some(chain note)` when the line is inside a hot function.
    pub hot: Vec<Option<String>>,
    /// `Some(reason)` when the line is inside a determinism-critical
    /// function (superset of hot).
    pub det: Vec<Option<String>>,
    /// Whether the line is inside any function body at all.
    pub in_fn: Vec<bool>,
    /// Whether any function in the file is determinism-critical: lines
    /// outside every function (`use`, statics) inherit this as their
    /// det verdict, since imports serve the functions below them.
    pub file_det: bool,
}

impl FileTaint {
    /// No line is hot or det (an untainted file).
    pub fn cold(lines: usize) -> FileTaint {
        FileTaint {
            hot: vec![None; lines],
            det: vec![None; lines],
            in_fn: vec![false; lines],
            file_det: false,
        }
    }

    /// Every line hot and det — the unit-test harness for detection
    /// logic, standing in for a fully tainted file.
    pub fn full(lines: usize) -> FileTaint {
        FileTaint {
            hot: vec![Some("test taint".to_string()); lines],
            det: vec![Some("test taint".to_string()); lines],
            in_fn: vec![true; lines],
            file_det: true,
        }
    }
}

/// Methods whose receiver iteration order escapes into program behaviour.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Panicking calls flagged on hot paths: `.NAME(` receivers.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Panicking macros flagged on hot paths: `NAME!`.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
/// Allocating macros flagged on hot paths.
const ALLOC_MACROS: &[&str] = &["format", "vec"];
/// Allocating `TYPE::METHOD` paths flagged on hot paths.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
];
/// Allocating `.METHOD(` receivers flagged on hot paths.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned"];

/// Run every applicable lint over one file, with per-line taints.
pub fn scan_file(sf: &SourceFile, scope: Scope, taint: &FileTaint) -> Vec<Finding> {
    let toks: Vec<Vec<(usize, Tok)>> = sf.lines.iter().map(|l| tokenize(&l.code)).collect();
    let maps = collect_map_names(&toks);

    let mut out = Vec::new();
    for (idx, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        let t = &toks[idx];

        let in_fn = taint.in_fn.get(idx).copied().unwrap_or(false);
        let det_note: Option<&str> = match taint.det.get(idx).and_then(|o| o.as_deref()) {
            Some(n) => Some(n),
            None if !in_fn && taint.file_det => Some("file contains determinism-critical code"),
            None => None,
        };
        let hot_note: Option<&str> = if scope.hotpath {
            taint.hot.get(idx).and_then(|o| o.as_deref())
        } else {
            None
        };

        if let Some(note) = det_note {
            lint_hashmap_iter(sf, lineno, t, &maps, note, &mut out);
            lint_wallclock(sf, lineno, t, note, &mut out);
        }
        if scope.obs {
            lint_obs_wallclock(sf, lineno, t, &mut out);
        }
        lint_unseeded_rng(sf, lineno, t, &mut out);
        if let Some(note) = hot_note {
            lint_hot_unwrap(sf, lineno, t, note, &mut out);
            lint_hot_alloc(sf, lineno, t, note, &mut out);
        }
        if scope.perf {
            if let Some(note) = hot_note.or(det_note) {
                lint_perf_arena_leak(sf, lineno, t, note, &mut out);
            }
        }
        if scope.schema {
            lint_schema_version(sf, lineno, line, &mut out);
        }
    }
    out
}

/// Names declared with a `HashMap`/`HashSet` type or constructor anywhere
/// in the file: struct fields (`name: HashMap<..>`), let bindings
/// (`let [mut] name = HashMap::new()` / `let name: HashMap<..>`), and fn
/// params. Only *iteration* over these names is flagged — keyed access
/// (`get`/`insert`/`entry`) is order-free and allowed.
fn collect_map_names(toks: &[Vec<(usize, Tok)>]) -> Vec<String> {
    let mut names = Vec::new();
    for line in toks {
        for (i, (_, tok)) in line.iter().enumerate() {
            let Some(id) = tok.ident() else { continue };
            if id != "HashMap" && id != "HashSet" {
                continue;
            }
            // `HashMap::new()` on a let line: find `let [mut] name =` left.
            // `name: [wrappers<] HashMap<..>`: walk left past wrapper
            // tokens to the `:` and take the ident before it.
            let mut j = i;
            let mut name: Option<&str> = None;
            while j > 0 {
                j -= 1;
                match &line[j].1 {
                    Tok::Punct(':') => {
                        // skip a `::` path qualifier (std::collections::)
                        if j > 0 && line[j - 1].1.is(':') {
                            j -= 1;
                            continue;
                        }
                        if j > 0 {
                            if let Some(n) = line[j - 1].1.ident() {
                                if n != "mut" {
                                    name = Some(n);
                                }
                            }
                        }
                        break;
                    }
                    Tok::Punct('=') => {
                        // `let [mut] name = HashMap::new()`
                        if j >= 2 {
                            if let Some(n) = line[j - 1].1.ident() {
                                let n = if n == "mut" {
                                    line.get(j.wrapping_sub(2)).and_then(|t| t.1.ident())
                                } else {
                                    Some(n)
                                };
                                name = n;
                            }
                        }
                        break;
                    }
                    Tok::Punct('<') | Tok::Punct('(') | Tok::Punct('&') => continue,
                    Tok::Ident(w)
                        if matches!(
                            w.as_str(),
                            "Option" | "Box" | "Vec" | "std" | "collections" | "pub" | "crate"
                        ) =>
                    {
                        continue
                    }
                    _ => break,
                }
            }
            if let Some(n) = name {
                if !names.iter().any(|x| x == n) {
                    names.push(n.to_string());
                }
            }
        }
    }
    names
}

#[allow(clippy::too_many_arguments)]
fn push(
    sf: &SourceFile,
    lineno: usize,
    column: usize,
    lint: &'static str,
    message: String,
    note: Option<&str>,
    out: &mut Vec<Finding>,
) {
    out.push(Finding {
        lint,
        severity: lint_info(lint).severity,
        file: sf.rel.clone(),
        line: lineno,
        column,
        message,
        snippet: sf.lines[lineno - 1].raw.clone(),
        note: note.map(str::to_string),
        suppressed: sf.allowed(lineno, lint),
    });
}

fn lint_hashmap_iter(
    sf: &SourceFile,
    lineno: usize,
    toks: &[(usize, Tok)],
    maps: &[String],
    note: &str,
    out: &mut Vec<Finding>,
) {
    let is_map = |t: &Tok| t.ident().is_some_and(|n| maps.iter().any(|m| m == n));

    for (i, (col, tok)) in toks.iter().enumerate() {
        // `name.iter_method(` — receiver must be a known map name.
        if is_map(tok)
            && toks.get(i + 1).is_some_and(|t| t.1.is('.'))
            && toks
                .get(i + 2)
                .and_then(|t| t.1.ident())
                .is_some_and(|m| ITER_METHODS.contains(&m))
        {
            let method = toks[i + 2].1.ident().unwrap_or_default();
            push(
                sf,
                lineno,
                *col,
                "det-hashmap-iter",
                format!(
                    "`{}.{}()` iterates a HashMap/HashSet; visit order varies across \
                     processes — use BTreeMap/BTreeSet or sort first",
                    tok.ident().unwrap_or_default(),
                    method
                ),
                Some(note),
                out,
            );
        }
        // `for pat in [&][mut] [self.]name {` — direct iteration.
        if tok.ident() == Some("in") {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| t.1.is('&') || t.1.ident() == Some("mut"))
            {
                j += 1;
            }
            if toks.get(j).and_then(|t| t.1.ident()) == Some("self")
                && toks.get(j + 1).is_some_and(|t| t.1.is('.'))
            {
                j += 2;
            }
            if let Some((mcol, mtok)) = toks.get(j) {
                let ends_iter = match toks.get(j + 1) {
                    None => true,
                    Some(t) => t.1.is('{'),
                };
                if is_map(mtok) && ends_iter {
                    push(
                        sf,
                        lineno,
                        *mcol,
                        "det-hashmap-iter",
                        format!(
                            "`for .. in {}` iterates a HashMap/HashSet; visit order varies \
                             across processes — use BTreeMap/BTreeSet or sort first",
                            mtok.ident().unwrap_or_default()
                        ),
                        Some(note),
                        out,
                    );
                }
            }
        }
    }
}

fn lint_wallclock(
    sf: &SourceFile,
    lineno: usize,
    toks: &[(usize, Tok)],
    note: &str,
    out: &mut Vec<Finding>,
) {
    // A `use std::time::...` line is inert; the call sites are flagged.
    if toks.first().and_then(|t| t.1.ident()) == Some("use") {
        return;
    }
    for (col, tok) in toks {
        if let Some(id) = tok.ident() {
            if id == "Instant" || id == "SystemTime" {
                push(
                    sf,
                    lineno,
                    *col,
                    "det-wallclock",
                    format!(
                        "`{id}` reads the wall clock; simulation logic must use SimTime \
                         so identical runs stay identical"
                    ),
                    Some(note),
                    out,
                );
            }
        }
    }
}

/// Telemetry code may only speak simulated picoseconds: beyond the
/// `det-wallclock` clock sources, *any* `std::time` type (`Duration`,
/// `UNIX_EPOCH`, a `std::time::` path) smuggles wall-clock semantics into
/// records that must be identical across runs and hosts.
fn lint_obs_wallclock(
    sf: &SourceFile,
    lineno: usize,
    toks: &[(usize, Tok)],
    out: &mut Vec<Finding>,
) {
    if toks.first().and_then(|t| t.1.ident()) == Some("use") {
        return;
    }
    for (i, (col, tok)) in toks.iter().enumerate() {
        let Some(id) = tok.ident() else { continue };
        let flagged = match id {
            // `std::time::Duration` is already flagged at the `std` token.
            "Duration" | "UNIX_EPOCH" => {
                !(i >= 3
                    && toks[i - 1].1.is(':')
                    && toks[i - 2].1.is(':')
                    && toks[i - 3].1.ident() == Some("time"))
            }
            // `std :: time` path, however the type is spelled after it —
            // except the clock sources, which `det-wallclock` owns.
            "std" => {
                toks.get(i + 1).is_some_and(|t| t.1.is(':'))
                    && toks.get(i + 2).is_some_and(|t| t.1.is(':'))
                    && toks.get(i + 3).and_then(|t| t.1.ident()) == Some("time")
                    && !matches!(
                        toks.get(i + 6).and_then(|t| t.1.ident()),
                        Some("Instant") | Some("SystemTime")
                    )
            }
            _ => false,
        };
        if flagged {
            push(
                sf,
                lineno,
                *col,
                "obs-wallclock",
                format!(
                    "`{id}` brings std::time into telemetry; timestamps and durations \
                     must be u64 simulated picoseconds"
                ),
                None,
                out,
            );
        }
    }
}

fn lint_unseeded_rng(
    sf: &SourceFile,
    lineno: usize,
    toks: &[(usize, Tok)],
    out: &mut Vec<Finding>,
) {
    for (col, tok) in toks {
        if let Some(id) = tok.ident() {
            if id == "thread_rng" || id == "from_entropy" || id == "OsRng" {
                push(
                    sf,
                    lineno,
                    *col,
                    "det-unseeded-rng",
                    format!(
                        "`{id}` draws entropy from the OS; all randomness must flow from \
                         the scenario seed"
                    ),
                    None,
                    out,
                );
            }
        }
    }
}

fn lint_hot_unwrap(
    sf: &SourceFile,
    lineno: usize,
    toks: &[(usize, Tok)],
    note: &str,
    out: &mut Vec<Finding>,
) {
    for (i, (col, tok)) in toks.iter().enumerate() {
        let Some(id) = tok.ident() else { continue };
        let prev_dot = i > 0 && toks[i - 1].1.is('.');
        let next = toks.get(i + 1).map(|t| &t.1);
        if prev_dot && PANIC_METHODS.contains(&id) && next.is_some_and(|t| t.is('(')) {
            push(
                sf,
                lineno,
                *col,
                "hotpath-unwrap",
                format!("`.{id}()` can panic on the per-frame path; handle the None/Err case"),
                Some(note),
                out,
            );
        }
        if PANIC_MACROS.contains(&id) && next.is_some_and(|t| t.is('!')) {
            push(
                sf,
                lineno,
                *col,
                "hotpath-unwrap",
                format!("`{id}!` panics on the per-frame path; degrade gracefully instead"),
                Some(note),
                out,
            );
        }
    }
}

fn lint_hot_alloc(
    sf: &SourceFile,
    lineno: usize,
    toks: &[(usize, Tok)],
    note: &str,
    out: &mut Vec<Finding>,
) {
    for (i, (col, tok)) in toks.iter().enumerate() {
        let Some(id) = tok.ident() else { continue };
        let next = toks.get(i + 1).map(|t| &t.1);
        if ALLOC_MACROS.contains(&id) && next.is_some_and(|t| t.is('!')) {
            push(
                sf,
                lineno,
                *col,
                "hotpath-alloc",
                format!("`{id}!` allocates on the per-frame path; reuse a buffer"),
                Some(note),
                out,
            );
            continue;
        }
        // `Type::method(` paths.
        if ALLOC_PATHS.iter().any(|(t, _)| *t == id)
            && toks.get(i + 1).is_some_and(|t| t.1.is(':'))
            && toks.get(i + 2).is_some_and(|t| t.1.is(':'))
        {
            if let Some(m) = toks.get(i + 3).and_then(|t| t.1.ident()) {
                if ALLOC_PATHS.iter().any(|(t, mm)| *t == id && *mm == m) {
                    push(
                        sf,
                        lineno,
                        *col,
                        "hotpath-alloc",
                        format!("`{id}::{m}` allocates on the per-frame path; preallocate in the constructor"),
                        Some(note),
                        out,
                    );
                }
            }
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].1.is('.');
        if prev_dot && ALLOC_METHODS.contains(&id) && next.is_some_and(|t| t.is('(')) {
            push(
                sf,
                lineno,
                *col,
                "hotpath-alloc",
                format!("`.{id}()` allocates on the per-frame path; borrow instead"),
                Some(note),
                out,
            );
        }
    }
}

/// An explicit `drop(<frame binding>)` throws a pooled payload buffer
/// away: the `Vec` returns to the global allocator instead of the kernel's
/// arena free list, silently reintroducing the per-frame allocation the
/// arena exists to kill. Recycle instead (`ctx.recycle(frame)` /
/// `arena.give(frame.bytes)`); an implicit drop at end of scope is the
/// same leak but is not detectable token-locally, so only the explicit
/// spelling is flagged.
fn lint_perf_arena_leak(
    sf: &SourceFile,
    lineno: usize,
    toks: &[(usize, Tok)],
    note: &str,
    out: &mut Vec<Finding>,
) {
    for (i, (col, tok)) in toks.iter().enumerate() {
        if tok.ident() != Some("drop") {
            continue;
        }
        // `.drop(` is a method on some other type, not std's consume.
        if i > 0 && toks[i - 1].1.is('.') {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.1.is('(')) {
            continue;
        }
        if let Some(arg) = toks.get(i + 2).and_then(|t| t.1.ident()) {
            if arg.to_ascii_lowercase().contains("frame") {
                push(
                    sf,
                    lineno,
                    *col,
                    "perf-arena-leak",
                    format!(
                        "`drop({arg})` discards a pooled frame buffer; recycle it \
                         (ctx.recycle / arena.give) so the payload Vec is reused"
                    ),
                    Some(note),
                    out,
                );
            }
        }
    }
}

/// Any string literal containing a `tn-…/v<N>`-shaped marker must use a
/// marker from [`schema::SCHEMA_REGISTRY`] — the single source of truth
/// for the workspace's wire formats.
fn lint_schema_version(sf: &SourceFile, lineno: usize, line: &Line, out: &mut Vec<Finding>) {
    for (col, lit) in &line.lits {
        for (off, marker) in schema::find_markers(lit) {
            if !schema::is_registered(&marker) {
                push(
                    sf,
                    lineno,
                    col + off,
                    "schema-version",
                    format!(
                        "wire-format marker `{marker}` is not in the schema registry; \
                         register it in crates/audit/src/schema.rs or fix the string"
                    ),
                    None,
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    /// Scan with every line tainted hot+det: exercises detection logic.
    fn scan(text: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("t.rs", text);
        let taint = FileTaint::full(sf.lines.len());
        scan_file(&sf, Scope::full(), &taint)
    }

    /// Scan with no taint at all: only global lints can fire.
    fn scan_cold(text: &str) -> Vec<Finding> {
        let sf = SourceFile::parse("t.rs", text);
        let taint = FileTaint::cold(sf.lines.len());
        scan_file(&sf, Scope::full(), &taint)
    }

    #[test]
    fn keyed_hashmap_access_is_clean() {
        let f = scan(
            "struct S { m: HashMap<u32, u32> }\n\
             impl S { fn get(&self) -> Option<&u32> { self.m.get(&1) } }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hashmap_method_iteration_is_flagged() {
        let f = scan(
            "struct S { m: HashMap<u32, u32> }\n\
             impl S { fn sum(&self) -> u32 { self.m.values().sum() } }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "det-hashmap-iter");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn hashmap_for_loop_is_flagged() {
        let f = scan(
            "struct S { m: HashMap<u32, u32> }\n\
             impl S { fn go(&self) { for (k, v) in &self.m { let _ = (k, v); } } }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "det-hashmap-iter");
    }

    #[test]
    fn let_bound_hashset_iteration_is_flagged() {
        let f = scan(
            "fn f() { let mut seen = HashSet::new();\nfor x in seen.drain() { let _ = x; } }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let f = scan(
            "struct S { m: BTreeMap<u32, u32> }\n\
             impl S { fn sum(&self) -> u32 { self.m.values().sum() } }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unrelated_name_iteration_is_clean() {
        let f = scan("fn f(v: Vec<u32>) -> u32 { v.iter().sum() }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cold_lines_never_trip_taint_gated_lints() {
        let f = scan_cold(
            "fn helper() {\n    let t = Instant::now();\n    let v = Vec::new();\n    x.unwrap();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn findings_carry_the_taint_note() {
        let f = scan("fn on_frame() { x.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].note.as_deref(), Some("test taint"));
    }

    #[test]
    fn toplevel_lines_inherit_file_det() {
        let sf = SourceFile::parse("t.rs", "static LAST: Option<SystemTime> = None;\n");
        let mut taint = FileTaint::cold(sf.lines.len());
        taint.file_det = true;
        let f = scan_file(&sf, Scope::full(), &taint);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "det-wallclock");
    }

    #[test]
    fn use_lines_are_inert_for_wallclock() {
        let sf = SourceFile::parse("t.rs", "use std::time::Instant;\n");
        let mut taint = FileTaint::cold(sf.lines.len());
        taint.file_det = true;
        let f = scan_file(&sf, Scope::full(), &taint);
        assert!(f.iter().all(|x| x.lint != "det-wallclock"), "{f:?}");
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let f = scan("fn on_timer() { let x = o.unwrap_or(3); let _ = x; }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = scan("#[cfg(test)]\nmod t {\n    fn on_frame() { x.unwrap(); }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn suppression_marks_finding() {
        let f = scan(
            "fn f() {\n    // audit:allow(det-wallclock): measuring the harness itself\n    let t = Instant::now();\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
    }

    #[test]
    fn unseeded_rng_fires_without_taint() {
        let f = scan_cold("fn f() { let r = thread_rng(); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "det-unseeded-rng");
    }

    #[test]
    fn obs_wallclock_flags_std_time_once() {
        let f = scan_cold("fn f() { let d = std::time::Duration::from_secs(1); let _ = d; }\n");
        let obs: Vec<_> = f.iter().filter(|x| x.lint == "obs-wallclock").collect();
        assert_eq!(obs.len(), 1, "{f:?}");
        assert_eq!(obs[0].severity, Severity::Error);
    }

    #[test]
    fn obs_wallclock_flags_bare_duration() {
        let f = scan_cold("fn f(d: Duration) -> u64 { d.as_nanos() as u64 }\n");
        assert!(f.iter().any(|x| x.lint == "obs-wallclock"), "{f:?}");
    }

    #[test]
    fn obs_wallclock_off_outside_telemetry_scope() {
        let sf = SourceFile::parse("t.rs", "fn f(d: Duration) {}\n");
        let scope = Scope {
            hotpath: true,
            obs: false,
            perf: true,
            schema: true,
        };
        let f = scan_file(&sf, scope, &FileTaint::cold(sf.lines.len()));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dropping_a_frame_is_flagged() {
        let f = scan(
            "fn f(frame: Frame) {
    drop(frame);
}
",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "perf-arena-leak");
        assert_eq!(f[0].severity, Severity::Warning);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn dropping_non_frames_and_method_drops_are_clean() {
        let f = scan(
            "fn f(guard: Guard, q: Queue, frames: Frames) {
    drop(guard);
    q.drop(3);
    let n = frames.len();
    let _ = n;
}
",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unregistered_schema_marker_is_flagged() {
        let f = scan_cold("fn f() -> &'static str { \"tn-bogus/v9\" }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "schema-version");
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn registered_schema_marker_is_clean() {
        let f = scan_cold("fn f() -> &'static str { \"tn-trace/v1\" }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn string_mention_is_clean() {
        let f = scan("fn f() -> &'static str { \"thread_rng Instant::now()\" }\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
