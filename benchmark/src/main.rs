//! `tn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Runs one workload in this process, prints every metric by name with
//! unit, sample count and quartiles, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when a check failed or a catalog metric is missing, 2 on a
//! bad command line.

use std::fmt::Write as _;
use std::process::ExitCode;

use tn_benchmark::catalog::{END_TO_END, PER_LAYER};
use tn_benchmark::driver::{end_to_end, Checks, Options, CANONICAL_SEED};
use tn_benchmark::traced::{span_metric, traced};
use tn_benchmark::workloads::{self, Scale, Workload, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}; got `{}`",
            NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// One printed metric.
struct Row {
    name: &'static str,
    unit: &'static str,
    value: f64,
    detail: String,
    in_json: bool,
}

fn result_line(rows: &[Row], checks: &Checks) -> String {
    let mut metrics = String::new();
    for r in rows.iter().filter(|r| r.in_json) {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.name, r.value, r.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failures.len(),
    )
}

fn untraced_rows<W: Workload>(w: &mut W, canonical: &W, opts: &Options) -> (Vec<Row>, Checks) {
    let run = end_to_end(w, canonical, opts);
    println!(
        "digest {:016x}  events/rep {}  reps {}  latency samples {}",
        run.digest,
        run.events,
        run.ns_per_event.len(),
        run.latency_samples
    );
    let rows = run
        .metrics()
        .into_iter()
        .zip(END_TO_END.iter())
        .map(|((value, q), spec)| Row {
            name: spec.name,
            unit: spec.unit,
            value,
            detail: q.map_or(String::new(), |q| {
                format!(
                    "n={} min={:.6} q1={:.6} median={:.6} q3={:.6}",
                    q.n, q.min, q.q1, q.median, q.q3
                )
            }),
            in_json: spec.gated,
        })
        .collect();
    (rows, run.checks)
}

fn traced_rows<W: Workload>(w: &mut W, seconds: f64) -> (Vec<Row>, Checks) {
    let run = traced(w, seconds);
    let mut checks = run.checks;
    let mut rows = Vec::with_capacity(PER_LAYER.len());
    for spec in PER_LAYER {
        let found = run
            .values
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map(|(_, v)| *v)
            .or_else(|| span_metric(&run.tracer, spec.name));
        checks.attempted += 1;
        let value = match found {
            Some(v) if v.is_finite() => v,
            _ => {
                checks
                    .failures
                    .push(format!("metric {} is missing", spec.name));
                0.0
            }
        };
        rows.push(Row {
            name: spec.name,
            unit: spec.unit,
            value,
            detail: format!("moves: {}", spec.moves),
            in_json: true,
        });
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.jsonl", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            run.tracer.write_jsonl(w.name(), &mut out)
        });
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
    (rows, checks)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let opts = if args.smoke {
        Options::smoke()
    } else {
        Options::full(args.seconds)
    };
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    println!(
        "workload {}  seed {}  {}{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        if args.smoke { "  (smoke sizes)" } else { "" }
    );

    macro_rules! go {
        ($build:path) => {{
            let mut w = $build(args.seed, &scale);
            if args.trace {
                traced_rows(&mut w, seconds)
            } else {
                untraced_rows(&mut w, &$build(CANONICAL_SEED, &scale), &opts)
            }
        }};
    }
    let (rows, checks) = match args.workload.as_str() {
        "design1-paper" => go!(workloads::design1_paper),
        "design3-paper" => go!(workloads::design3_paper),
        "swarm-100k" => go!(workloads::swarm_serial),
        "swarm-100k-shard8" => go!(workloads::swarm_sharded),
        "feed-recovery" => go!(workloads::feed_recovery),
        _ => go!(workloads::shootout_small),
    };

    for r in &rows {
        println!(
            "{:<30} {:>16.6} {:<6} {}",
            r.name, r.value, r.unit, r.detail
        );
    }
    println!(
        "checks: {} attempted, {} failed",
        checks.attempted,
        checks.failures.len()
    );
    for f in &checks.failures {
        println!("FAILED: {f}");
    }
    println!("{}", result_line(&rows, &checks));
    if checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
