//! Workspace walking and the two-pass analysis pipeline.
//!
//! Pass 1 parses every in-scope file into its item structure and builds
//! the workspace-wide call graph; pass 2 runs the token lints with the
//! per-line taint verdicts the graph produced. There are no per-crate
//! special cases left: a crate's code is hot iff the call graph proves
//! it reachable from a registered hot root, and determinism-critical iff
//! it can reach (or is reached from code that reaches) a schedule-feeding
//! kernel API. The `dead` lint walks a second graph over every file the
//! workspace builds, integration tests and the benchmark included
//! ([`reach_for`]), and matches the struct fields of those files against
//! the field names they read ([`unread_fields`]).

use crate::callgraph::{self, Reach};
use crate::items::{parse_file, ParsedFile};
use crate::lints::{lint_info, scan_file, FileTaint, Finding, Scope};
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// Lint scope for a file at `rel` (repo-relative, `/`-separated), or
/// `None` if the file is out of scope.
///
/// * `crates/<k>/src/**` — full scope. The only named crate is the
///   auditor itself, which is skipped: its sources are lint-pattern
///   fragments and fixtures (its correctness is covered by its tests).
/// * root `src/`, `examples/`, `tests/` — scaffolding scope: the det
///   lints apply wherever the call graph finds schedule-feeding code,
///   but nothing here is kernel-dispatched per frame, so the `hotpath-*`
///   and `perf-*` families stay off.
pub fn scope_for(rel: &str) -> Option<Scope> {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => {
            let krate = parts.next()?;
            if krate == "audit" {
                return None;
            }
            if parts.next() != Some("src") {
                return None;
            }
            Some(Scope {
                hotpath: true,
                obs: krate == "obs",
                perf: true,
                schema: true,
            })
        }
        Some("src") | Some("examples") | Some("tests") => Some(Scope {
            hotpath: false,
            obs: false,
            perf: false,
            schema: true,
        }),
        _ => None,
    }
}

/// How the `dead` lint treats a file at `rel`, or `None` if it never
/// reads it. Only `crates/*/src` outside the auditor is audited; the
/// auditor itself is out of scope for every lint, so its sources only
/// carry edges (from its `fn main`).
pub fn reach_for(rel: &str) -> Option<Reach> {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", "audit", "src", ..] | ["src", ..] => Some(Reach::Edges),
        ["crates", _, "src", ..] => Some(Reach::Audited),
        ["crates", _, "tests", ..]
        | ["tests" | "examples", ..]
        | ["benchmark", "src" | "tests", ..] => Some(Reach::Root),
        _ => None,
    }
}

/// Every `.rs` file the workspace and the benchmark build: `crates/*/src`,
/// the root `src/`, `examples/` and `tests/` trees, each crate's
/// integration tests, and `benchmark/{src,tests}`, sorted
/// for stable output. An integration-test directory contributes only its
/// top-level files, the ones Cargo builds as tests (the auditor's
/// `tests/fixtures/` are lint inputs, not code).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut trees: Vec<(PathBuf, bool)> = Vec::new();
    for dir in crate_dirs {
        trees.push((dir.join("src"), true));
        trees.push((dir.join("tests"), false));
    }
    for top in ["src", "examples", "tests", "benchmark/src"] {
        trees.push((root.join(top), true));
    }
    trees.push((root.join("benchmark/tests"), false));
    for (dir, recurse) in trees {
        if dir.is_dir() {
            collect_rs(&dir, root, recurse, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    recurse: bool,
    out: &mut Vec<(PathBuf, String)>,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if recurse {
                collect_rs(&path, root, recurse, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Turn per-function taints into a per-line [`FileTaint`]. Functions are
/// visited in ascending signature-line order, so on shared lines an
/// inner (nested) function's verdict overwrites its enclosing one.
fn file_taint(sf: &SourceFile, parsed: &ParsedFile, taints: &[callgraph::FnTaint]) -> FileTaint {
    let n = sf.lines.len();
    let mut t = FileTaint::cold(n);
    let mut order: Vec<usize> = (0..parsed.fns.len()).collect();
    order.sort_by_key(|&i| parsed.fns[i].lines.map(|(a, _)| a).unwrap_or(usize::MAX));
    for i in order {
        let Some((a, b)) = parsed.fns[i].lines else {
            continue;
        };
        let ft = &taints[i];
        for line in a..=b.min(n) {
            t.hot[line - 1] = ft.hot.clone();
            t.det[line - 1] = ft.det.clone();
            t.in_fn[line - 1] = true;
        }
    }
    t.file_det = taints.iter().any(|ft| ft.det.is_some());
    t
}

/// Run the full two-pass analysis over already-loaded sources and return
/// the findings, unsorted. The call graph spans *all* the given files,
/// so cross-file reachability works exactly as it does in
/// [`scan_workspace`].
pub fn scan_sources(inputs: &[(SourceFile, Scope)]) -> Vec<Finding> {
    let parsed: Vec<ParsedFile> = inputs.iter().map(|(sf, _)| parse_file(sf)).collect();
    let refs: Vec<_> = inputs
        .iter()
        .zip(&parsed)
        .map(|((sf, scope), pf)| (sf, pf, *scope))
        .collect();
    token_lints(&refs)
}

fn token_lints(inputs: &[(&SourceFile, &ParsedFile, Scope)]) -> Vec<Finding> {
    let refs: Vec<(&ParsedFile, bool)> = inputs
        .iter()
        .map(|(_, pf, scope)| (*pf, scope.hotpath))
        .collect();
    let taints = callgraph::analyze(&refs);

    let mut findings = Vec::new();
    for ((sf, pf, scope), taints) in inputs.iter().zip(&taints) {
        let taint = file_taint(sf, pf, taints);
        findings.extend(scan_file(sf, *scope, &taint));
    }
    findings
}

/// The `dead` lint over already-loaded sources, each treated as
/// [`reach_for`] its path says: one finding per non-test `pub fn` in
/// `crates/*/src` that no root reaches, and one per field there that
/// nothing reads ([`unread_fields`]), unsorted.
pub fn scan_dead(files: &[SourceFile]) -> Vec<Finding> {
    let parsed: Vec<ParsedFile> = files.iter().map(parse_file).collect();
    let refs: Vec<_> = files.iter().zip(&parsed).collect();
    dead_lint(&refs)
}

fn dead_lint(files: &[(&SourceFile, &ParsedFile)]) -> Vec<Finding> {
    let known: Vec<(&SourceFile, &ParsedFile, Reach)> = files
        .iter()
        .filter_map(|&(sf, pf)| Some((sf, pf, reach_for(&sf.rel)?)))
        .collect();
    let graph: Vec<(&ParsedFile, Reach)> = known.iter().map(|&(_, pf, r)| (pf, r)).collect();
    let info = lint_info("dead");
    let finding = |sf: &SourceFile, line: usize, column: usize, message: String| Finding {
        lint: info.id,
        severity: info.severity,
        file: sf.rel.clone(),
        line,
        column,
        message,
        snippet: sf.lines[line - 1].raw.clone(),
        note: None,
        suppressed: sf.allowed(line, info.id),
    };
    let fns = callgraph::unreached(&graph).into_iter().map(|(fi, li)| {
        let (sf, pf, _) = known[fi];
        let d = &pf.fns[li];
        let raw = &sf.lines[d.line - 1].raw;
        let column = raw
            .find(&format!("fn {}", d.name))
            .map_or(1, |at| raw[..at].chars().count() + 4);
        let message = format!(
            "`{}` is public, but nothing reaches it from a root (`tn-audit lints` lists them)",
            d.qualified()
        );
        finding(sf, d.line, column, message)
    });
    let fields = unread_fields(&graph).into_iter().map(|(fi, k)| {
        let (sf, pf, _) = known[fi];
        let f = &pf.fields[k];
        let message = format!("field `{}::{}` is never read", f.owner, f.name);
        finding(sf, f.line, f.col, message)
    });
    fns.chain(fields).collect()
}

/// The non-test struct fields of [`Reach::Audited`] files that nothing
/// reads, as `(file, field)` indices into `files[file].0.fields`.
/// Matching is by name only, so a read of any same-named field keeps a
/// field. A read counts from any file the walk reads, except from a
/// `#[cfg(test)]` region: a unit test keeps no field, in its own file or
/// another. Any mention in a [`Reach::Root`] file, a struct-literal
/// initialiser included, keeps it, because roots such as the benchmark
/// are not edited to suit the library.
pub fn unread_fields(files: &[(&ParsedFile, Reach)]) -> Vec<(usize, usize)> {
    let read = |name: &str| {
        files.iter().any(|(pf, reach)| {
            let u = &pf.field_uses;
            u.reads.contains(name) || (*reach == Reach::Root && u.mentions.contains(name))
        })
    };
    let mut out = Vec::new();
    for (fi, (pf, reach)) in files.iter().enumerate() {
        if *reach != Reach::Audited {
            continue;
        }
        for (k, f) in pf.fields.iter().enumerate() {
            if !f.is_test && !read(&f.name) {
                out.push((fi, k));
            }
        }
    }
    out
}

/// Scan the whole workspace under `root`, sorted into report order.
///
/// Fails when `root` has no `benchmark/src`: the `dead` lint counts the
/// benchmark as a root, so a checkout without it would report every
/// item only the benchmark uses.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    if !root.join("benchmark/src").is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no benchmark/src: the `dead` lint counts the benchmark as a root",
        ));
    }
    let mut files = Vec::new();
    for (path, rel) in workspace_files(root)? {
        files.push(SourceFile::load(&path, &rel)?);
    }
    let parsed: Vec<ParsedFile> = files.iter().map(parse_file).collect();
    let linted: Vec<_> = files
        .iter()
        .zip(&parsed)
        .filter_map(|(sf, pf)| Some((sf, pf, scope_for(&sf.rel)?)))
        .collect();
    let mut findings = token_lints(&linted);
    let all: Vec<_> = files.iter().zip(&parsed).collect();
    findings.extend(dead_lint(&all));
    crate::report::sort(&mut findings);
    Ok(findings)
}

/// The repository root: `--root` override, else the workspace that built
/// this binary (two levels up from the audit crate's manifest).
pub fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_rules() {
        let sim = scope_for("crates/sim/src/kernel.rs").unwrap();
        assert!(sim.hotpath && sim.perf && sim.schema && !sim.obs);
        let obs = scope_for("crates/obs/src/lib.rs").unwrap();
        assert!(obs.obs && obs.hotpath, "obs has no whole-crate exemption");
        let lab = scope_for("crates/lab/src/json.rs").unwrap();
        assert!(lab.hotpath, "lab has no whole-crate exemption");
        assert!(
            scope_for("crates/audit/src/lints.rs").is_none(),
            "auditor skips itself"
        );
        assert!(
            scope_for("crates/sim/tests/props.rs").is_none(),
            "crate test dirs out of scope"
        );
        let ex = scope_for("examples/quickstart.rs").unwrap();
        assert!(!ex.hotpath && !ex.perf && !ex.obs && ex.schema);
        let t = scope_for("tests/scheduler_equivalence.rs").unwrap();
        assert!(!t.hotpath && t.schema);
    }

    #[test]
    fn reach_rules() {
        assert_eq!(reach_for("crates/sim/src/kernel.rs"), Some(Reach::Audited));
        assert_eq!(reach_for("crates/audit/src/main.rs"), Some(Reach::Edges));
        assert_eq!(reach_for("src/lib.rs"), Some(Reach::Edges));
        for root in [
            "crates/sim/tests/kernel_properties.rs",
            "tests/alloc_pins.rs",
            "examples/quickstart.rs",
            "benchmark/src/rigs.rs",
            "benchmark/tests/seeds.rs",
        ] {
            assert_eq!(reach_for(root), Some(Reach::Root), "{root}");
        }
        assert_eq!(reach_for("vendor/rand/src/lib.rs"), None);
    }

    #[test]
    fn workspace_walk_finds_kernel_and_root_trees() {
        let files = workspace_files(&default_root()).unwrap();
        assert!(files
            .iter()
            .any(|(_, rel)| rel == "crates/sim/src/kernel.rs"));
        assert!(
            files.iter().any(|(_, rel)| rel.starts_with("examples/")),
            "root examples are walked"
        );
        assert!(
            files.iter().any(|(_, rel)| rel.starts_with("tests/")),
            "root tests are walked"
        );
        assert!(
            files
                .iter()
                .any(|(_, rel)| rel.starts_with("benchmark/src/")),
            "the benchmark is walked"
        );
        assert!(
            !files.iter().any(|(_, rel)| rel.contains("/fixtures/")),
            "lint fixtures are not code"
        );
        assert!(
            files.windows(2).all(|w| w[0].1 < w[1].1),
            "sorted, no dupes"
        );
    }

    #[test]
    fn pipeline_taints_through_the_call_graph() {
        let src = "impl Node for S {\n    fn on_frame(&mut self) { self.go(); }\n}\n\
                   impl S {\n    fn go(&self) { q.unwrap(); }\n}\n";
        let scope = scope_for("crates/x/src/lib.rs").unwrap();
        let f = scan_sources(&[(SourceFile::parse("crates/x/src/lib.rs", src), scope)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "hotpath-unwrap");
        let note = f[0].note.as_deref().unwrap();
        assert!(note.contains("on_frame"), "chain cited: {note}");
    }

    #[test]
    fn scaffolding_scope_suppresses_hot_lints() {
        let src = "impl Node for S {\n    fn on_frame(&mut self) { q.unwrap(); }\n}\n";
        let scope = scope_for("tests/t.rs").unwrap();
        let f = scan_sources(&[(SourceFile::parse("tests/t.rs", src), scope)]);
        assert!(f.is_empty(), "{f:?}");
    }
}
