//! `BENCHMARK.json`, the catalog in `src/catalog.rs` and the glossary in
//! `README.md` name the same workloads, metrics and spans.

use std::collections::BTreeSet;

use tn_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOAD_SPANS, WORKLOAD_WHY};
use tn_benchmark::workloads::NAMES;
use tn_lab::json::{self, Json};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {obj:?}"))
}

fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_has_the_contract_shape() {
    let doc = contract();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths")
        .iter()
        .map(|p| p.as_str().expect("path string"))
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .expect("command")
        .iter()
        .map(|p| p.as_str().expect("command string"))
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    for word in &command {
        assert!(
            !word.starts_with('/') && !word.split('/').any(|part| part == ".."),
            "{word}"
        );
        if word.contains('/') {
            assert!(
                word.starts_with("benchmark/"),
                "`{word}` names a file outside `paths`"
            );
        }
    }
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

#[test]
fn workloads_match_the_code() {
    let doc = contract();
    let listed = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(listed.len(), NAMES.len());
    for ((w, name), (why_name, why)) in listed.iter().zip(NAMES).zip(WORKLOAD_WHY) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(str_of(w, "name"), name);
        assert_eq!(why_name, name);
        assert_eq!(str_of(w, "why"), why);
        assert!(
            valid_name(name) && why.len() <= 200 && !why.contains('\n'),
            "{name}"
        );
    }
}

#[test]
fn end_to_end_metrics_match_the_catalog() {
    let doc = contract();
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    let gated: Vec<_> = END_TO_END.iter().filter(|m| m.gated).collect();
    assert_eq!(listed.len(), gated.len());
    let mut setup_bound = 0.0;
    let mut widest: f64 = 0.0;
    for (entry, spec) in listed.iter().zip(gated) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(entry, "name"), spec.name);
        assert_eq!(str_of(entry, "unit"), spec.unit);
        assert_eq!(str_of(entry, "better"), "lower");
        assert!(valid_name(spec.name) && valid_unit(spec.unit));
        let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", spec.name);
        widest = widest.max(bound);
        if spec.name == "setup_s" {
            setup_bound = bound;
        }
    }
    assert_eq!(setup_bound, widest, "setup_s carries the largest bound");
    // The eighth metric is printed, never gated: it is 0 on a healthy run.
    assert_eq!(
        END_TO_END
            .iter()
            .filter(|m| !m.gated)
            .map(|m| m.name)
            .collect::<Vec<_>>(),
        ["failed_share"]
    );
}

#[test]
fn per_layer_metrics_match_the_catalog() {
    let doc = contract();
    let listed = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert!(PER_LAYER.len() <= 128);
    assert_eq!(listed.len(), PER_LAYER.len());
    let mut seen = BTreeSet::new();
    for (entry, spec) in listed.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(str_of(entry, "name"), spec.name);
        assert_eq!(str_of(entry, "unit"), spec.unit);
        let better = if spec.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(str_of(entry, "better"), better, "{}", spec.name);
        assert!(
            valid_name(spec.name) && valid_unit(spec.unit),
            "{}",
            spec.name
        );
        assert!(seen.insert(spec.name), "{} listed twice", spec.name);
        // Each layer metric says which end-to-end metric, on which
        // workload, it is expected to move (or that it gates nothing).
        assert!(!spec.moves.is_empty(), "{}", spec.name);
    }
    for name in END_TO_END.iter().map(|m| m.name).chain(NAMES) {
        assert!(seen.insert(name), "{name} used twice across the file");
    }
}

/// Every back-quoted `crate.what` token in the README.
fn dotted_tokens(readme: &str) -> BTreeSet<&str> {
    const CRATES: [&str; 15] = [
        "sim", "obs", "wire", "netdev", "fault", "switch", "market", "feed", "trading", "topo",
        "core", "cloud", "stats", "lab", "bench",
    ];
    readme
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|tok| {
            tok.split_once('.').is_some_and(|(head, tail)| {
                CRATES.contains(&head)
                    && !tail.is_empty()
                    && tail
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.".contains(c))
            })
        })
        .collect()
}

#[test]
fn readme_glossary_matches_the_catalog() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("benchmark/README.md");
    let quoted = |name: &str| readme.contains(&format!("`{name}`"));
    for name in NAMES {
        assert!(quoted(name), "workload `{name}` is not in the README");
    }
    for m in &END_TO_END {
        assert!(quoted(m.name), "metric `{}` is not in the README", m.name);
    }
    for m in PER_LAYER {
        assert!(quoted(m.name), "metric `{}` is not in the README", m.name);
    }
    for (span, _) in WORKLOAD_SPANS {
        assert!(quoted(span), "span `{span}` is not in the README");
    }
    // And nothing the README calls a metric or span is unknown to the code.
    let mut known: BTreeSet<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    for m in PER_LAYER {
        for suffix in ["_ns", "_us", "_ms"] {
            if let Some(span) = m.name.strip_suffix(suffix) {
                known.insert(span.to_string());
            }
        }
    }
    known.extend(WORKLOAD_SPANS.iter().map(|(s, _)| s.to_string()));
    known.insert("bench.est_share.<crate>".into());
    for token in dotted_tokens(&readme) {
        assert!(
            known.contains(token),
            "README names `{token}`, which the catalog does not"
        );
    }
}
