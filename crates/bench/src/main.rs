//! `tn-exp` — every table, figure and quantitative claim the repository
//! regenerates, from one registry.
//!
//! ```sh
//! tn-exp list                  # ids and what each reproduces
//! tn-exp run <id>... [--json]  # the tables, or the machine-readable form
//! tn-exp check                 # run everything, one row per paper anchor
//! ```
//!
//! Exit status: 0 when every check holds, 1 when one does not, 2 on a
//! usage error (unknown id, `--json` on an experiment with no JSON form).

use std::io::{self, Write};
use std::process::ExitCode;

use tn_bench::exp::{Check, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, [])) if cmd == "list" => list(),
        Some((cmd, [])) if cmd == "check" => check(),
        Some((cmd, rest)) if cmd == "run" => run(rest),
        _ => Ok(usage("expected `list`, `run <id>... [--json]` or `check`")),
    };
    // An I/O error is most likely a closed pipe on stdout.
    result.unwrap_or_else(|e| {
        eprintln!("tn-exp: {e}");
        ExitCode::FAILURE
    })
}

/// Report a usage error — the complaint, the synopsis, every valid id.
fn usage(complaint: &str) -> ExitCode {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    eprintln!(
        "tn-exp: {complaint}\nusage: tn-exp list | run <id>... [--json] | check\nids: {}",
        ids.join(" ")
    );
    ExitCode::from(2)
}

fn check_row(id: &str, c: &Check) -> String {
    let ok = if c.ok { "ok" } else { "FAIL" };
    format!("{id} | {} | {} | {} | {ok}", c.what, c.paper, c.measured)
}

fn list() -> io::Result<ExitCode> {
    let mut out = io::stdout().lock();
    for e in EXPERIMENTS {
        writeln!(out, "{:<22} {}", e.id, e.paper_ref)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn run(args: &[String]) -> io::Result<ExitCode> {
    let json = args.iter().any(|a| a == "--json");
    let mut selected = Vec::new();
    for id in args.iter().filter(|a| *a != "--json") {
        match EXPERIMENTS.iter().find(|e| e.id == id) {
            Some(e) => selected.push(e),
            None => return Ok(usage(&format!("unknown experiment `{id}`"))),
        }
    }
    if selected.is_empty() {
        return Ok(usage("`run` needs at least one id"));
    }
    let mut out = io::stdout().lock();
    // JSON forms are held back until every id is known to have one.
    let mut docs = String::new();
    let mut all_ok = true;
    for e in selected {
        let outcome = if json {
            (e.run)(&mut io::sink())?
        } else {
            (e.run)(&mut out)?
        };
        if json {
            let Some(doc) = outcome.json else {
                return Ok(usage(&format!("`{}` has no JSON form", e.id)));
            };
            docs.push_str(&doc);
            if !doc.ends_with('\n') {
                docs.push('\n');
            }
        }
        for c in outcome.checks.iter().filter(|c| !c.ok) {
            all_ok = false;
            eprintln!("tn-exp: check FAILED: {}", check_row(e.id, c));
        }
    }
    out.write_all(docs.as_bytes())?;
    Ok(ExitCode::from(u8::from(!all_ok)))
}

fn check() -> io::Result<ExitCode> {
    let mut out = io::stdout().lock();
    writeln!(out, "id | what | paper | measured | ok")?;
    let (mut total, mut failed) = (0, 0);
    for e in EXPERIMENTS {
        for c in (e.run)(&mut io::sink())?.checks {
            writeln!(out, "{}", check_row(e.id, &c))?;
            total += 1;
            failed += usize::from(!c.ok);
        }
    }
    let n = EXPERIMENTS.len();
    writeln!(out, "{total} checks over {n} experiments, {failed} failed")?;
    Ok(ExitCode::from(u8::from(failed > 0)))
}
