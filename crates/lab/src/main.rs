//! `tn-lab` — expand, run, and summarize declarative scenario sweeps.
//!
//! ```sh
//! tn-lab expand  (--preset smoke | --spec FILE)
//! tn-lab run     (--preset smoke | --spec FILE) [--threads N] [--json] [--out FILE]
//! tn-lab summarize FILE
//! ```
//!
//! `run` prints the human cell table; `--json` additionally prints the
//! `tn-lab/v1` document and `--out FILE` writes it to disk. The document
//! is a pure function of the spec — `--threads` changes wall-clock time
//! only, never a byte of output. An unknown argument, a flag without its
//! value or a stray positional exits 2 with the usage line.

use tn_lab::{LabReport, ScenarioExecutor, SweepSpec};

const USAGE: &str = "usage: tn-lab expand (--preset smoke | --spec FILE)\n\
                     \x20      tn-lab run (--preset smoke | --spec FILE) [--threads N] [--json] [--out FILE]\n\
                     \x20      tn-lab summarize FILE";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let usage = match args.first().map(String::as_str) {
        Some("expand") => check_args(rest, &["--preset", "--spec"], &[]),
        Some("run") => check_args(
            rest,
            &["--preset", "--spec", "--threads", "--out"],
            &["--json"],
        ),
        Some("summarize") => match rest {
            [path] if !path.starts_with("--") => Ok(()),
            _ => Err("summarize takes one tn-lab/v1 report file".into()),
        },
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("need a command".into()),
    };
    if let Err(e) = usage {
        eprintln!("tn-lab: {e}\n{USAGE}");
        std::process::exit(2);
    }
    let code = match args[0].as_str() {
        "expand" => cmd_expand(rest),
        "run" => cmd_run(rest),
        _ => cmd_summarize(rest),
    };
    std::process::exit(code);
}

/// Usage check: every argument is either a flag in `valued` followed by
/// a value that is not itself a flag, or a flag in `switches`.
fn check_args(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            if it.next().is_none_or(|v| v.starts_with("--")) {
                return Err(format!("{a} needs a value"));
            }
        } else if !switches.contains(&a.as_str()) {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    Ok(())
}

/// Resolve `--preset NAME` / `--spec FILE` into a spec.
fn load_spec(args: &[String]) -> Result<SweepSpec, String> {
    if let Some(name) = flag_value(args, "--preset") {
        return match name.as_str() {
            "smoke" => Ok(SweepSpec::smoke()),
            other => Err(format!("unknown preset `{other}` (available: smoke)")),
        };
    }
    if let Some(path) = flag_value(args, "--spec") {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return SweepSpec::parse(&src).map_err(|e| format!("{path}: {e}"));
    }
    Err("need --preset NAME or --spec FILE".into())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn cmd_expand(args: &[String]) -> i32 {
    match load_spec(args).and_then(|spec| spec.expand().map(|m| (spec, m))) {
        Ok((spec, manifest)) => {
            println!(
                "sweep `{}` (base {}): {} runs",
                spec.name,
                spec.base,
                manifest.len()
            );
            for plan in &manifest {
                let params: Vec<String> = plan
                    .params
                    .iter()
                    .map(|(p, v)| format!("{p}={v}"))
                    .collect();
                println!(
                    "  [{:>4}] {} seed={} {}",
                    plan.index,
                    plan.design,
                    plan.seed,
                    params.join(" ")
                );
            }
            0
        }
        Err(e) => {
            eprintln!("tn-lab expand: {e}");
            1
        }
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let threads = match flag_value(args, "--threads").map(|t| t.parse::<usize>()) {
        None => 1,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => {
            eprintln!("tn-lab run: --threads needs a positive integer");
            return 1;
        }
    };
    let result = load_spec(args).and_then(|spec| {
        let manifest = spec.expand()?;
        let outcomes = tn_lab::run_batch(&manifest, threads, &ScenarioExecutor::new())?;
        Ok(LabReport::build(
            &spec.name, &spec.base, &manifest, &outcomes,
        ))
    });
    match result {
        Ok(report) => {
            print!("{}", report.table());
            let json = report.to_json();
            if let Some(path) = flag_value(args, "--out") {
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("tn-lab run: cannot write {path}: {e}");
                    return 1;
                }
                println!("wrote {path}");
            }
            if args.iter().any(|a| a == "--json") {
                print!("{json}");
            }
            0
        }
        Err(e) => {
            eprintln!("tn-lab run: {e}");
            1
        }
    }
}

fn cmd_summarize(args: &[String]) -> i32 {
    let path = &args[0];
    let result = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|src| LabReport::parse(&src).map_err(|e| format!("{path}: {e}")));
    match result {
        Ok(report) => {
            print!("{}", report.table());
            0
        }
        Err(e) => {
            eprintln!("tn-lab summarize: {e}");
            1
        }
    }
}
