//! `tn-audit` — the workspace determinism auditor.
//!
//! ```sh
//! cargo run -p tn-audit -- check              # static lints + divergence
//! cargo run -p tn-audit -- lint --json out.json   # also write tn-audit/v1
//! cargo run -p tn-audit -- divergence --filter shootout
//! cargo run -p tn-audit -- lints              # list known lints and their roots
//! ```
//!
//! Exit status: 0 when every finding is suppressed, every lint's
//! suppression count equals its budget, and every dual run agrees;
//! 1 otherwise; 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use tn_audit::{
    budgets, divergence, render_json, render_text, scan, CONSTRUCTION_RULE, DEAD_ROOTS, HOT_ROOTS,
    LINTS,
};

struct Args {
    command: String,
    json: Option<PathBuf>,
    root: Option<PathBuf>,
    filter: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "check".to_string());
    let mut args = Args {
        command,
        json: None,
        root: None,
        filter: None,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => args.json = Some(PathBuf::from(argv.next().ok_or("--json needs a path")?)),
            "--root" => args.root = Some(PathBuf::from(argv.next().ok_or("--root needs a path")?)),
            "--filter" => args.filter = Some(argv.next().ok_or("--filter needs a value")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tn-audit: {e}");
            eprintln!(
                "usage: tn-audit [check|lint|divergence|lints] [--json PATH] \
                 [--root PATH] [--filter NAME]"
            );
            return ExitCode::from(2);
        }
    };

    match args.command.as_str() {
        "lints" => {
            for l in LINTS {
                println!("{:<18} {:<8} {}", l.id, l.severity.name(), l.summary);
            }
            println!();
            println!("hot roots (the `hotpath-*` lints flag code reachable from these):");
            for r in HOT_ROOTS {
                println!("  {:<22} {}", format!("{}::{}", r.owner, r.method), r.why);
            }
            println!();
            println!("dead roots (the `dead` lint flags a `pub fn` none of these reaches, a `pub` type nothing reached builds, a field nothing reads, and a crate-root `pub use` nothing imports):");
            for (root, why) in DEAD_ROOTS {
                println!("  {root:<42} {why}");
            }
            println!();
            println!("construction: {CONSTRUCTION_RULE}");
            ExitCode::SUCCESS
        }
        "lint" => run_lint(&args),
        "divergence" => run_divergence(&args),
        "check" => {
            let lint = run_lint(&args);
            let div = run_divergence(&args);
            if lint == ExitCode::SUCCESS && div == ExitCode::SUCCESS {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("tn-audit: unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}

fn run_lint(args: &Args) -> ExitCode {
    let root = args.root.clone().unwrap_or_else(scan::default_root);
    let findings = match scan::scan_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tn-audit: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", render_text(&findings));
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, render_json(&findings)) {
            eprintln!("tn-audit: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("json report written to {}", path.display());
    }

    let mut failed = findings.iter().any(|f| !f.suppressed);
    for budget in budgets(&findings, LINTS) {
        println!("{budget}");
        failed |= !budget.holds();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_divergence(args: &Args) -> ExitCode {
    let outcomes = divergence::run_all(args.filter.as_deref());
    if outcomes.is_empty() {
        eprintln!("tn-audit: no divergence scenario matches the filter");
        return ExitCode::from(2);
    }
    let mut failed = 0usize;
    for o in &outcomes {
        if o.passed() {
            println!(
                "divergence {:<26} ok   digest={:016x} events={}",
                o.name, o.first.digest, o.first.events
            );
        } else {
            failed += 1;
            println!(
                "divergence {:<26} FAIL run1 digest={:016x} events={} run2 digest={:016x} events={} calendar digest={:016x} events={}",
                o.name,
                o.first.digest,
                o.first.events,
                o.second.digest,
                o.second.events,
                o.calendar.digest,
                o.calendar.events
            );
        }
    }
    println!(
        "divergence: {}/{} scenario(s) deterministic",
        outcomes.len() - failed,
        outcomes.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
