//! A run of every workload, untraced and traced, leaves the repository
//! outside `benchmark/` exactly as it found it: no `BENCH_*.json`
//! rewritten, root `Cargo.lock` and `AUDIT_BASELINE.json` untouched.
//! Smoke sizes — the code paths that write are the same.

use std::path::{Path, PathBuf};
use std::process::Command;

use tn_benchmark::workloads::NAMES;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// `git status --porcelain` restricted to paths outside the benchmark,
/// or `None` where the checkout is not a git repository.
fn dirty_outside(root: &Path) -> Option<Vec<String>> {
    let out = Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=all"])
        .current_dir(root)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Some(
        text.lines()
            .filter(|l| {
                let path = l.get(3..).unwrap_or("");
                !(path.starts_with("benchmark/") || path == "BENCHMARK.json")
            })
            .map(str::to_string)
            .collect(),
    )
}

#[test]
fn a_run_touches_nothing_outside_the_benchmark() {
    let root = repo_root();
    let watched: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("repository root is readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    assert!(watched.iter().any(|p| p.ends_with("Cargo.lock")));
    let snapshot = |paths: &[PathBuf]| -> Vec<Vec<u8>> {
        paths
            .iter()
            .map(|p| std::fs::read(p).expect("root file is readable"))
            .collect()
    };
    let before_files = snapshot(&watched);
    let before_git = dirty_outside(&root);

    for name in NAMES {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_tn-benchmark"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "42",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .current_dir(&root)
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{name} --trace {trace}:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true,"),
                "{name} --trace {trace}: {last}"
            );
        }
    }

    assert_eq!(before_files, snapshot(&watched), "a root file changed");
    let now: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("repository root is readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    assert_eq!(watched.len(), now.len(), "a root file appeared or vanished");
    assert_eq!(
        before_git,
        dirty_outside(&root),
        "git sees a change outside benchmark/"
    );
}
