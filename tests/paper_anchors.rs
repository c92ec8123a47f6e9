//! The paper-fidelity gate: every registered experiment runs at full size
//! and every anchor it checks holds, and the docs name the experiments by
//! the ids the registry actually has.

use tn_bench::exp::EXPERIMENTS;

#[test]
fn every_paper_anchor_holds_at_full_size() {
    let mut failed = Vec::new();
    for e in EXPERIMENTS {
        let outcome = (e.run)(&mut std::io::sink()).expect("writing to a sink cannot fail");
        assert!(!outcome.checks.is_empty(), "`{}` checks nothing", e.id);
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
