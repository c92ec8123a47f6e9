//! The `tn-exp` command line: usage errors exit 2 and list the valid
//! ids, instead of silently printing something else.

use std::process::{Command, Output};

use tn_bench::exp::EXPERIMENTS;

fn tn_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tn-exp"))
        .args(args)
        .output()
        .expect("tn-exp runs")
}

fn assert_usage_error(args: &[&str], complaint: &str) {
    let out = tn_exp(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.contains(complaint), "{args:?}: {err}");
    for e in EXPERIMENTS {
        assert!(err.contains(e.id), "{args:?} does not list `{}`", e.id);
    }
}

#[test]
fn unknown_id_exits_2_and_lists_the_ids() {
    assert_usage_error(&["run", "table2"], "unknown experiment `table2`");
    assert_usage_error(&["run"], "needs at least one id");
    assert_usage_error(&["frobnicate"], "expected `list`");
}

#[test]
fn json_on_an_experiment_without_a_json_form_exits_2() {
    assert_usage_error(&["run", "header-overhead", "--json"], "no JSON form");
    // Nothing is printed for the ids before the offending one either.
    assert_usage_error(
        &["run", "ab-failover", "header-overhead", "--json"],
        "no JSON form",
    );
}

#[test]
fn run_prints_tables_or_the_json_form() {
    let tables = tn_exp(&["run", "ab-failover"]);
    assert_eq!(tables.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&tables.stdout).starts_with("A/B arbitration"));
    let json = tn_exp(&["run", "ab-failover", "--json"]);
    assert_eq!(json.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&json.stdout).starts_with("{\"schema\":\"tn-exp/v1\""));
}

#[test]
fn list_names_every_experiment() {
    let out = tn_exp(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(text.lines().count(), EXPERIMENTS.len());
    for (line, e) in text.lines().zip(EXPERIMENTS) {
        assert!(line.starts_with(e.id), "{line}");
    }
}
