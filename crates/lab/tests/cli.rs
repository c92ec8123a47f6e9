//! The `tn-lab` command line: an unknown argument or a flag without its
//! value exits 2 with the usage line instead of being dropped, and the
//! invocation `scripts/ci.sh` makes still succeeds.

use std::process::{Command, Output};

fn tn_lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tn-lab"))
        .args(args)
        .output()
        .expect("tn-lab runs")
}

fn assert_usage_error(args: &[&str], complaint: &str) {
    let out = tn_lab(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.contains(complaint), "{args:?}: {err}");
    assert!(err.contains("usage: tn-lab expand"), "{args:?}: {err}");
}

#[test]
fn unknown_flags_exit_2() {
    assert_usage_error(
        &["run", "--preset", "smoke", "--thread", "4"],
        "unknown argument `--thread`",
    );
    assert_usage_error(
        &["run", "--preset", "smoke", "--jsn"],
        "unknown argument `--jsn`",
    );
    // `expand` takes a source only.
    assert_usage_error(
        &["expand", "--preset", "smoke", "--threads", "2"],
        "unknown argument `--threads`",
    );
    assert_usage_error(
        &["run", "--preset", "smoke", "stray"],
        "unknown argument `stray`",
    );
    assert_usage_error(&["frobnicate"], "unknown command `frobnicate`");
}

#[test]
fn flags_without_their_value_exit_2() {
    assert_usage_error(
        &["run", "--preset", "smoke", "--threads"],
        "--threads needs a value",
    );
    assert_usage_error(
        &["run", "--preset", "smoke", "--out"],
        "--out needs a value",
    );
    assert_usage_error(
        &["run", "--preset", "smoke", "--out", "--json"],
        "--out needs a value",
    );
    assert_usage_error(&["summarize"], "one tn-lab/v1 report file");
}

#[test]
fn the_ci_invocation_writes_its_report() {
    let path = std::env::temp_dir().join(format!("tn-lab-cli-{}.json", std::process::id()));
    let out = tn_lab(&[
        "run",
        "--preset",
        "smoke",
        "--threads",
        "2",
        "--out",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("report written");
    std::fs::remove_file(&path).ok();
    assert!(doc.starts_with("{\"schema\":\"tn-lab/v1\""), "{doc}");
}
