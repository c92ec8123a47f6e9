//! The paper-fidelity gate: every registered experiment runs at full size
//! and every anchor it checks holds, its machine-readable form is the one
//! pinned, and the docs name the experiments by the ids the registry
//! actually has.

use tn_bench::exp::EXPERIMENTS;
use trading_networks::sim::{fnv1a_fold, json, EMPTY_DIGEST};

/// FNV-1a of every machine-readable form `tn-exp run <id> --json` prints
/// (`tn-report/v1`, `tn-exp/v1`, `tn-trace/v1`), recorded before the JSON
/// writers were folded into one module; the six that embed a run digest
/// were re-recorded when it began folding words. Each document (each line
/// of the JSONL trace) must also survive the one parser and re-render
/// byte for byte.
const DOCUMENT_PINS: [(&str, u64); 8] = [
    ("design1-roundtrip", 0x74b4_bf33_23f6_b192),
    ("design-comparison", 0xf3c4_52a1_50d4_6f33),
    ("custom-transport", 0x58b1_44ae_bea1_29a8),
    ("paper-scale", 0x2aed_923b_52dd_16ea),
    ("loss-recovery", 0xb3c3_060d_4baf_1bc2),
    ("ab-failover", 0x59ad_77ba_50ec_c100),
    ("latency-decomposition", 0xf87f_239f_b871_5b55),
    ("cloud-fairness", 0x4219_751a_61f8_aab2),
];

#[test]
fn every_paper_anchor_holds_at_full_size() {
    let mut failed = Vec::new();
    let mut documents = Vec::new();
    for e in EXPERIMENTS {
        let outcome = (e.run)(&mut std::io::sink()).expect("writing to a sink cannot fail");
        assert!(!outcome.checks.is_empty(), "`{}` checks nothing", e.id);
        if let Some(doc) = &outcome.json {
            documents.push((e.id, fnv1a_fold(EMPTY_DIGEST, doc.as_bytes())));
            for line in doc.lines() {
                let parsed = json::parse(line).unwrap_or_else(|err| panic!("{}: {err}", e.id));
                assert_eq!(parsed.render(), line, "{} does not re-render", e.id);
            }
        }
        for c in outcome.checks.into_iter().filter(|c| !c.ok) {
            failed.push(format!(
                "{} | {} | {} | {}",
                e.id, c.what, c.paper, c.measured
            ));
        }
    }
    assert!(
        failed.is_empty(),
        "paper anchors that no longer hold:\nid | what | paper | measured\n{}",
        failed.join("\n")
    );
    assert_eq!(documents, DOCUMENT_PINS, "machine-readable forms moved");
}

#[test]
fn ids_are_unique_kebab_case() {
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        assert!(
            e.id.split('-').all(|part| !part.is_empty()
                && part
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())),
            "`{}` is not kebab-case",
            e.id
        );
        assert!(
            EXPERIMENTS[..i].iter().all(|other| other.id != e.id),
            "`{}` is registered twice",
            e.id
        );
    }
}

#[test]
fn docs_run_every_experiment_through_tn_exp() {
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let path = format!("{}/{doc}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("doc at the repository root");
        for retired in ["--bin exp_", "--bin bench_", "--bin fig2", "--bin table1"] {
            assert!(!text.contains(retired), "{doc} still says `{retired}`");
        }
        // Every id is an argument on some `tn-exp run …` line.
        for e in EXPERIMENTS {
            let named = text
                .lines()
                .filter_map(|l| l.split_once("tn-exp run"))
                .any(|(_, args)| {
                    args.split(|c: char| c.is_whitespace() || c == '`')
                        .any(|word| word == e.id)
                });
            assert!(named, "{doc} never says `tn-exp run {}`", e.id);
        }
    }
}
