//! The versioned documents the workspace writes: content pins for
//! `tn-report/v1` and for both renderings of a `tn-trace/v1` document, so
//! a change to how a document is assembled cannot move a byte of it
//! unnoticed; and round trips through the one JSON parser, which must
//! hand back every document exactly as it was written.

use tn_bench::obssim::{run_decomposition, trace_jsonl, DecompositionConfig};
use tn_core::design::{
    CloudDesign, FpgaHybrid, LayerOneSwitches, TradingNetworkDesign, TraditionalSwitches,
};
use tn_core::ScenarioConfig;
use tn_lab::{LabReport, RunOutcome, SweepSpec};
use tn_sim::json::{self, Json};
use tn_sim::{fnv1a_fold, ObsConfig, EMPTY_DIGEST};
use tn_topo::{CloudConfig, CloudFairnessSpec};

fn fnv(text: &str) -> u64 {
    fnv1a_fold(EMPTY_DIGEST, text.as_bytes())
}

/// Parse a compact document and check it re-renders byte for byte.
fn round_trip(doc: &str) -> Json {
    let parsed = json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    assert_eq!(parsed.render(), doc);
    parsed
}

/// Designs 1, 2, 3, 3b, then Design 2 with its fairness machinery on.
fn designs() -> Vec<Box<dyn TradingNetworkDesign>> {
    let fair = CloudDesign {
        cloud: CloudConfig {
            fairness: CloudFairnessSpec::demo(),
            ..CloudConfig::default()
        },
    };
    vec![
        Box::new(TraditionalSwitches::default()),
        Box::new(CloudDesign::default()),
        Box::new(LayerOneSwitches::default()),
        Box::new(FpgaHybrid::default()),
        Box::new(fair),
    ]
}

/// Every design's `tn-report/v1` on `small(7)` with every sink on.
fn reports() -> Vec<String> {
    let mut sc = ScenarioConfig::small(7);
    sc.obs = ObsConfig::full();
    designs().iter().map(|d| d.run(&sc).to_json()).collect()
}

/// E21's run as `tn-trace/v1` JSONL.
fn decomposition_trace() -> String {
    let cfg = DecompositionConfig::new(42);
    trace_jsonl(&cfg, &run_decomposition(&cfg, ObsConfig::full()))
}

#[test]
fn design_reports_are_pinned_and_round_trip() {
    let reports = reports();
    for r in &reports {
        let doc = round_trip(r);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("tn-report/v1")
        );
        // No report string carries a control character, so the shared
        // escape rule cannot have moved a byte.
        assert!(!r.contains("\\u00"), "{r}");
    }
    // Recorded before the JSON writers were folded into one module, and
    // again when the run digest began folding words: each document
    // differs from its earlier self only in its `trace_digest`.
    let pins: Vec<u64> = reports.iter().map(|r| fnv(r)).collect();
    assert_eq!(
        pins,
        [
            // Designs 1, 2, 3, 3b, fair cloud.
            0x885b_265f_11a0_262f,
            0x3f25_ee48_679e_faea,
            0xc07e_b4dd_ba05_4c07,
            0x4d52_91d9_b124_4a09,
            0xf052_5eeb_7c66_27e3,
        ]
    );
}

#[test]
fn timeline_and_folded_stacks_are_pinned_and_round_trip() {
    let trace = decomposition_trace();
    for line in trace.lines() {
        round_trip(line);
    }
    let doc = tn_obs::parse(&trace).expect("self-emitted trace parses");
    let timeline = tn_obs::chrome_trace(&doc);
    // `tn-flight/v1` is the one document laid out one event per line.
    let parsed = json::parse(&timeline).expect("timeline parses");
    assert_eq!(parsed.render_listed() + "\n", timeline);
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(tn_obs::FLIGHT_SCHEMA)
    );
    // Recorded before the JSON writers were folded into one module.
    assert_eq!(
        (fnv(&timeline), fnv(&tn_obs::folded_stacks(&doc))),
        (0x1d4d_8cba_3d8c_52ad, 0x8ba6_78a2_c4f1_4566)
    );
}

#[test]
fn lab_documents_round_trip() {
    let spec = SweepSpec::smoke();
    let doc = round_trip(&spec.to_json());
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(tn_lab::SPEC_SCHEMA)
    );
    let manifest = spec.expand().unwrap();
    let outcomes: Vec<RunOutcome> = manifest
        .iter()
        .map(|p| RunOutcome {
            digest: 0x1000 + p.index as u64,
            events: 100 + p.index as u64,
            samples_ps: (0..20).map(|i| 1_000 + 13 * i + p.index as u64).collect(),
            metrics: vec![("fills".into(), p.index as f64 / 3.0)],
        })
        .collect();
    let report = LabReport::build(&spec.name, &spec.base, &manifest, &outcomes).to_json();
    let doc = round_trip(report.strip_suffix('\n').expect("newline-terminated"));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(tn_lab::REPORT_SCHEMA)
    );
}
