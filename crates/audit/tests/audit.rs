//! Integration tests: each lint fires on its fixture exactly once *via
//! the call-graph pipeline*, suppression is honoured, the JSON schema is
//! stable, the `dead` lint walks from every kind of root, and the real
//! workspace passes its own audit with every lint's suppressions exactly
//! on budget.

use tn_audit::{counts, render_json, scan_sources, scope_for, SourceFile};

/// Scan one fixture through the same pipeline the workspace scan uses:
/// parse, build the call graph, propagate taint, lint.
fn scan_fixture(name: &str, text: &str) -> Vec<tn_audit::Finding> {
    let rel = format!("crates/fixture/src/{name}.rs");
    let scope = scope_for(&rel).expect("fixture path is in scope");
    scan_sources(&[(SourceFile::parse(&rel, text), scope)])
}

macro_rules! fixture {
    ($name:literal) => {
        ($name, include_str!(concat!("fixtures/", $name, ".rs")))
    };
}

#[test]
fn each_lint_fires_exactly_once_on_its_fixture() {
    for (lint, (name, text)) in [
        ("det-hashmap-iter", fixture!("det_hashmap_iter")),
        ("det-wallclock", fixture!("det_wallclock")),
        ("det-unseeded-rng", fixture!("det_unseeded_rng")),
        ("hotpath-unwrap", fixture!("hotpath_unwrap")),
        ("hotpath-alloc", fixture!("hotpath_alloc")),
        ("perf-arena-leak", fixture!("perf_arena_leak")),
        ("schema-version", fixture!("schema_version")),
    ] {
        let findings = scan_fixture(name, text);
        assert_eq!(
            findings.len(),
            1,
            "{name}: expected one finding, got {findings:#?}"
        );
        assert_eq!(findings[0].lint, lint, "{name}");
        assert!(!findings[0].suppressed, "{name}");
    }
}

#[test]
fn taint_gated_findings_cite_their_call_chain() {
    let (name, text) = fixture!("hotpath_unwrap");
    let f = scan_fixture(name, text);
    let note = f[0].note.as_deref().expect("hot finding carries a note");
    assert!(
        note.contains("Node::on_frame") && note.contains("decode"),
        "chain cited: {note}"
    );

    let (name, text) = fixture!("det_hashmap_iter");
    let f = scan_fixture(name, text);
    let note = f[0].note.as_deref().expect("det finding carries a note");
    assert!(
        note.contains("Simulator::inject_frame") || note.contains("schedule"),
        "chain cited: {note}"
    );
}

#[test]
fn typed_receivers_resolve_by_their_type() {
    // `kind: EventKind` makes `kind.target_node()` a call to
    // `EventKind::target_node` only; by bare name it also reached the
    // allocating `TraceWriter::target_node`.
    let (name, text) = fixture!("hotpath_typed_receiver");
    let findings = scan_fixture(name, text);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn clean_fixture_has_no_findings() {
    // `parse_header` has an unwrap but no path from any dispatch root:
    // under the old name heuristic it was flagged, under reachability
    // it is clean.
    let (name, text) = fixture!("clean");
    let findings = scan_fixture(name, text);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn suppression_is_honoured_and_counted() {
    let (name, text) = fixture!("suppressed");
    let findings = scan_fixture(name, text);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.suppressed), "{findings:#?}");
    let c = counts(&findings);
    assert_eq!((c.total, c.suppressed, c.active), (2, 2, 0));
}

/// The `dead` fixtures at the paths that give them their roles: one
/// audited crate of two files, and one root of each kind that lives in
/// its own file.
fn dead_fixtures() -> Vec<(&'static str, &'static str)> {
    vec![
        ("crates/fixture/src/lib.rs", fixture!("dead_lib").1),
        ("crates/fixture/src/fields.rs", fixture!("dead_fields").1),
        ("tests/replay.rs", fixture!("dead_root_test").1),
        ("examples/book.rs", fixture!("dead_root_example").1),
        ("benchmark/src/rig.rs", fixture!("dead_root_bench").1),
    ]
}

/// `(item, suppressed)` for each `dead` finding over `files`.
fn dead_items(files: &[(&str, &str)]) -> Vec<(String, bool)> {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect();
    let mut out: Vec<(String, bool)> = tn_audit::scan_dead(&sources)
        .into_iter()
        .map(|f| {
            assert_eq!(f.lint, "dead");
            let item = f.message.split('`').nth(1).expect("message names the item");
            (item.to_string(), f.suppressed)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn dead_reports_only_what_no_root_reaches() {
    // `Book::spread` is called only from its own `#[cfg(test)]` module;
    // `reference_depth` is waived as a test oracle. Of `Meter`'s fields,
    // `hits` and `log` are only written, `seen` is read only by its own
    // file's unit tests, `tally` only by another file's, and `born` is
    // only initialised. Nothing a root reaches builds `Meter` (its `new`
    // is private and unreached) or `Window`.
    let dead: Vec<(String, bool)> = [
        ("Book::spread", false),
        ("Meter", false),
        ("Meter::born", false),
        ("Meter::hits", false),
        ("Meter::log", false),
        ("Meter::seen", false),
        ("Meter::tally", false),
        ("Window", false),
        ("reference_depth", true),
    ]
    .into_iter()
    .map(|(item, waived)| (item.to_string(), waived))
    .collect();
    assert_eq!(dead_items(&dead_fixtures()), dead);
}

#[test]
fn field_reads_keep_their_fields() {
    let dead = dead_items(&dead_fixtures());
    // A method call on the field, a destructuring pattern, a match
    // guard before `=>`, and a benchmark struct literal.
    for kept in [
        "Meter::items",
        "Window::lo",
        "Window::hi",
        "Meter::threshold",
        "Knobs::rig_depth",
    ] {
        assert!(!dead.iter().any(|(d, _)| d == kept), "{kept}: {dead:?}");
    }
    let message: Vec<_> = tn_audit::scan_dead(&[SourceFile::parse(
        "crates/fixture/src/lib.rs",
        "pub struct S {\n    pub f: u64,\n}\n",
    )])
    .into_iter()
    .filter(|f| f.message.starts_with("field"))
    .collect();
    assert_eq!(message.len(), 1, "{message:?}");
    assert_eq!(message[0].message, "field `S::f` is never read");
    assert_eq!((message[0].line, message[0].column), (2, 9));
}

#[test]
fn each_kind_of_root_keeps_its_item() {
    for (root, item) in [
        ("tests/replay.rs", "replay"),
        ("examples/book.rs", "Book::new"),
        ("benchmark/src/rig.rs", "Book::mid"),
        ("benchmark/src/rig.rs", "Knobs::rig_depth"),
    ] {
        let without: Vec<_> = dead_fixtures()
            .into_iter()
            .filter(|(rel, _)| *rel != root)
            .collect();
        let dead = dead_items(&without);
        assert!(
            dead.iter().any(|(d, _)| d == item),
            "without {root}, {item} is dead: {dead:?}"
        );
    }
    // The trait-impl method `Summary::summary` keeps `Book::depth`.
    assert!(!dead_items(&dead_fixtures())
        .iter()
        .any(|(d, _)| d == "Book::depth"));
}

#[test]
fn a_type_nothing_builds_roots_no_trait_impl() {
    let files = [
        ("crates/fixture/src/lib.rs", fixture!("dead_trait_only").1),
        (
            "examples/taker.rs",
            "fn main() {\n    let _ = fixture::Taker::default();\n}\n",
        ),
    ];
    let dead: Vec<(String, bool)> = [("Quoter", false), ("Quoter::widen", false)]
        .into_iter()
        .map(|(item, waived)| (item.to_string(), waived))
        .collect();
    assert_eq!(dead_items(&files), dead);
}

#[test]
fn a_reexport_nothing_imports_is_dead() {
    let files = [
        ("crates/quotes/src/lib.rs", fixture!("dead_reexport").1),
        (
            "examples/quotes.rs",
            "use tn_quotes::{Quote};\nfn main() {\n    let _ = tn_quotes::Depth::new();\n}\n",
        ),
    ];
    assert_eq!(dead_items(&files), [("Level".to_string(), false)]);
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect();
    let f = tn_audit::scan_dead(&sources);
    assert_eq!((f[0].line, f[0].column), (6, 16), "{f:?}");
}

#[test]
fn dead_waivers_count_toward_the_budget() {
    let sources: Vec<SourceFile> = dead_fixtures()
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect();
    let findings = tn_audit::scan_dead(&sources);
    let dead = tn_audit::budgets(&findings, tn_audit::LINTS)
        .into_iter()
        .find(|b| b.lint == "dead")
        .expect("`dead` is in the lint table");
    assert_eq!(dead.suppressed, 1);
}

#[test]
fn lint_fails_closed_without_the_benchmark() {
    // A checkout without `benchmark/src` cannot see the benchmark's
    // calls, so it must not report the items only they reach.
    let root = std::env::temp_dir().join(format!("tn-audit-no-bench-{}", std::process::id()));
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "pub fn only_the_benchmark_calls_me() {}\n",
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tn-audit"))
        .args(["lint", "--root"])
        .arg(&root)
        .output()
        .expect("run tn-audit");
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("benchmark/src"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing reported: {out:?}");
}

#[test]
fn json_schema_is_stable() {
    let (name, text) = fixture!("schema_version");
    let mut findings = scan_fixture(name, text);
    tn_audit::report::sort(&mut findings);
    let json = render_json(&findings);
    // The exact layout downstream tooling can rely on.
    assert!(
        json.starts_with("{\"schema\":\"tn-audit/v1\",\"findings\":["),
        "{json}"
    );
    assert!(
        json.trim_end()
            .ends_with("\"counts\":{\"total\":1,\"suppressed\":0,\"active\":1}}"),
        "{json}"
    );
    for key in [
        "\"lint\":",
        "\"severity\":",
        "\"file\":",
        "\"line\":",
        "\"column\":",
        "\"message\":",
        "\"suppressed\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let empty = render_json(&[]);
    assert_eq!(
        empty,
        "{\"schema\":\"tn-audit/v1\",\"findings\":[],\"counts\":{\"total\":0,\"suppressed\":0,\"active\":0}}\n"
    );
}

/// A fixed finding set that exercises every field and every escape the
/// renderer has: a note and its absence, both severities, a suppressed
/// entry, quotes, backslashes, control characters and non-ASCII text.
fn fixed_findings() -> Vec<tn_audit::Finding> {
    let finding =
        |lint, severity, line, message: &str, note: Option<&str>, suppressed| tn_audit::Finding {
            lint,
            severity,
            file: format!("crates/x/src/{lint}.rs"),
            line,
            column: line % 7 + 1,
            message: message.into(),
            snippet: "ignored by the JSON form".into(),
            note: note.map(Into::into),
            suppressed,
        };
    use tn_audit::Severity::{Error, Warning};
    vec![
        finding(
            "det-wallclock",
            Error,
            7,
            "`Instant` reads \"the\" wall clock",
            None,
            false,
        ),
        finding(
            "hotpath-alloc",
            Warning,
            120,
            "allocates in C:\\hot\tpath\n(µs)",
            Some("hot root Node::on_frame -> emit\u{1}"),
            true,
        ),
        finding("schema-version", Error, 3, "", Some(""), false),
    ]
}

#[test]
fn json_report_content_is_pinned_and_round_trips() {
    let json = render_json(&fixed_findings());
    let doc = tn_sim::json::parse(&json).unwrap();
    assert_eq!(doc.render() + "\n", json);
    // Recorded before the JSON writers were folded into one module.
    assert_eq!(
        tn_sim::fnv1a_fold(tn_sim::EMPTY_DIGEST, json.as_bytes()),
        0xf423_4b3e_68aa_fa55,
        "{json}"
    );
}

#[test]
fn workspace_audit_is_clean() {
    // The repo must pass its own audit: everything fixed or waived.
    let findings = tn_audit::scan_workspace(&tn_audit::scan::default_root()).unwrap();
    let active: Vec<_> = findings.iter().filter(|f| !f.suppressed).collect();
    assert!(active.is_empty(), "active findings: {active:#?}");
}

#[test]
fn workspace_suppressions_equal_their_budgets() {
    let findings = tn_audit::scan_workspace(&tn_audit::scan::default_root()).unwrap();
    let off: Vec<String> = tn_audit::budgets(&findings, tn_audit::LINTS)
        .iter()
        .filter(|b| !b.holds())
        .map(ToString::to_string)
        .collect();
    assert!(off.is_empty(), "{off:#?}");
}

#[test]
fn cli_lint_exits_zero_on_this_workspace() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tn-audit"))
        .arg("lint")
        .output()
        .expect("run tn-audit");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("active"), "{stdout}");
}

#[test]
fn cli_rejects_unknown_arguments() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tn-audit"))
        .arg("--bogus")
        .output()
        .expect("run tn-audit");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn divergence_registry_dual_runs_agree() {
    // One cheap end-to-end divergence pass (the full registry runs in CI
    // via `tn-audit check`).
    let outcomes = tn_audit::divergence::run_all(Some("mcast-cliff"));
    assert!(outcomes.iter().all(|o| o.passed()), "{outcomes:#?}");
}
