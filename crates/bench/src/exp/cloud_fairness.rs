//! E22 — the cloud fairness frontier (§4.2, made quantitative).
//!
//! The paper's cloud verdict is qualitative: a provider fabric can be
//! *fair* (delay-equalized delivery, sequenced order entry) but only by
//! *paying latency*. This experiment prices that trade. A tn-lab sweep
//! runs the same publish-to-S-subscribers scenario over three fabrics —
//! a layer-1 switch (port-skew-limited), a leaf-spine tree, and a cloud
//! overlay of relay VMs with per-subscriber delay equalizers — across
//! jitter σ × hold window × fan-out × subscriber count, and reports each
//! cell's delivery spread (p50/p99/max across subscribers, per event)
//! against the median latency the mechanisms added.
//!
//! The frontier the table pins (and the checks assert): cloud spread can be
//! driven *below* the L1 switch's port skew — but every cell that gets
//! there paid added median latency at least its hold window, while every
//! zero-hold cell under jitter leaks the tail straight into its spread.

use std::io::{self, Write};

use tn_cloud::{run_fairness, DesignKind, FairnessScenario};
use tn_lab::{run_batch, Axis, AxisValues, RunExecutor, RunOutcome, RunPlan, SweepSpec};
use tn_sim::json::{num_u64, Json};
use tn_sim::SimTime;

use super::{exp_json, lookup, Check, Outcome};

/// Equalizer residual pacing error: the precision floor of the cloud's
/// release clocks. Tighter than L1 port skew so the mechanisms *can* win
/// the spread contest when the hold covers the jitter tail.
const RESIDUAL: SimTime = SimTime::from_ns(20);

/// The frontier axes as a declarative tn-lab sweep. The L1 and
/// leaf-spine designs ignore the cloud knobs but run in every cell, so
/// each cloud point carries its own in-cell comparison baselines.
fn spec() -> SweepSpec {
    SweepSpec {
        name: "cloud-fairness".into(),
        base: "small".into(),
        designs: vec!["l1".into(), "leaf-spine".into(), "cloud".into()],
        overrides: vec![],
        axes: vec![
            Axis {
                param: "jitter_ns".into(),
                values: AxisValues::List(vec![0.0, 1000.0, 2000.0, 4000.0]),
            },
            Axis {
                param: "hold_us".into(),
                values: AxisValues::List(vec![0.0, 2.0, 5.0, 10.0]),
            },
            Axis {
                param: "fanout".into(),
                values: AxisValues::List(vec![2.0, 4.0, 8.0]),
            },
            Axis {
                param: "subscribers".into(),
                values: AxisValues::List(vec![4.0, 8.0, 16.0]),
            },
        ],
        seeds: vec![7],
    }
}

/// Lab executor resolving one cell through the tn-cloud harness.
struct FairnessExecutor;

fn plan_design(plan: &RunPlan) -> Result<DesignKind, String> {
    let param = |name: &str| lookup(&plan.params, name).ok_or(format!("missing param `{name}`"));
    Ok(match plan.design.as_str() {
        "l1" => DesignKind::L1Switch,
        "leaf-spine" => DesignKind::LeafSpine,
        "cloud" => DesignKind::Cloud {
            fanout: param("fanout")? as u16,
            jitter: SimTime::from_ns(param("jitter_ns")? as u64),
            hold: SimTime::from_us(param("hold_us")? as u64),
            residual: RESIDUAL,
        },
        other => return Err(format!("unknown design `{other}`")),
    })
}

impl RunExecutor for FairnessExecutor {
    fn execute(&self, plan: &RunPlan) -> Result<RunOutcome, String> {
        let subs = lookup(&plan.params, "subscribers").ok_or("missing param `subscribers`")?;
        let mut sc = FairnessScenario::small(plan.seed);
        sc.subscribers = subs as usize;
        let r = run_fairness(&sc, &plan_design(plan)?);
        Ok(RunOutcome {
            digest: r.digest,
            events: r.events,
            samples_ps: vec![r.median_delivery_ps],
            metrics: vec![
                ("spread_p50_ps".into(), r.spread_p50_ps as f64),
                ("spread_p99_ps".into(), r.spread_p99_ps as f64),
                ("spread_max_ps".into(), r.spread_max_ps as f64),
                ("added_median_ps".into(), r.added_median_ps as f64),
                ("hold_ps".into(), r.hold_ps as f64),
                ("late".into(), r.late as f64),
                ("complete_events".into(), r.complete_events as f64),
            ],
        })
    }
}

/// One resolved row: the plan's cell coordinates plus its outcome.
struct Row<'a> {
    design: &'a str,
    jitter_ns: u64,
    hold_us: u64,
    fanout: u64,
    subscribers: u64,
    out: &'a RunOutcome,
}

fn metric(out: &RunOutcome, name: &str) -> f64 {
    lookup(&out.metrics, name).unwrap_or(0.0)
}

fn rows<'a>(manifest: &'a [RunPlan], outcomes: &'a [RunOutcome]) -> Vec<Row<'a>> {
    manifest
        .iter()
        .zip(outcomes)
        .map(|(plan, out)| {
            let p = |name: &str| lookup(&plan.params, name).unwrap_or(0.0) as u64;
            Row {
                design: &plan.design,
                jitter_ns: p("jitter_ns"),
                hold_us: p("hold_us"),
                fanout: p("fanout"),
                subscribers: p("subscribers"),
                out,
            }
        })
        .collect()
}

fn json(rows: &[Row<'_>]) -> String {
    let runs = rows.iter().map(|r| {
        let m = |name: &str| num_u64(metric(r.out, name) as u64);
        Json::obj([
            ("design", Json::Str(r.design.to_string())),
            ("jitter_ns", num_u64(r.jitter_ns)),
            ("hold_us", num_u64(r.hold_us)),
            ("fanout", num_u64(r.fanout)),
            ("subscribers", num_u64(r.subscribers)),
            ("spread_p50_ps", m("spread_p50_ps")),
            ("spread_p99_ps", m("spread_p99_ps")),
            ("spread_max_ps", m("spread_max_ps")),
            ("added_median_ps", m("added_median_ps")),
            ("late", m("late")),
        ])
    });
    exp_json("cloud_fairness", runs)
}

pub fn run(out: &mut dyn Write) -> io::Result<Outcome> {
    let spec = spec();
    let manifest = spec.expand().expect("static spec expands");
    let outcomes = run_batch(&manifest, 1, &FairnessExecutor).expect("sweep runs");
    let rows = rows(&manifest, &outcomes);

    // The in-cell L1 spread each cloud point competes against.
    let l1_spread = |r: &Row<'_>| {
        rows.iter()
            .find(|c| {
                c.design == "l1"
                    && c.subscribers == r.subscribers
                    && c.jitter_ns == r.jitter_ns
                    && c.hold_us == r.hold_us
                    && c.fanout == r.fanout
            })
            .map(|c| metric(c.out, "spread_p99_ps"))
            .expect("every cell ran all three designs")
    };

    // The frontier claims. (1) Fairness is purchasable: some cloud cell
    // beats the L1 port skew. (2) It is never free: every such cell paid
    // added median latency >= its hold window. (3) Skimping leaks: under
    // jitter with no hold, the tail lands in the spread.
    let mut beat_l1 = 0u64;
    let mut unpaid = 0u64;
    let mut leaks = 0u64;
    for r in rows.iter().filter(|r| r.design == "cloud") {
        let spread_p99 = metric(r.out, "spread_p99_ps");
        let added = metric(r.out, "added_median_ps");
        let hold = metric(r.out, "hold_ps");
        if spread_p99 < l1_spread(r) {
            beat_l1 += 1;
            if added < hold {
                unpaid += 1;
            }
        }
        if r.jitter_ns > 0 && r.hold_us == 0 && spread_p99 > l1_spread(r) {
            leaks += 1;
        }
    }

    writeln!(
        out,
        "cloud fairness frontier: spread vs added median latency"
    )?;
    writeln!(
        out,
        "(lab-backed: spec `{}`, {} cells x 3 designs)\n",
        spec.name,
        manifest.len() / 3,
    )?;
    writeln!(
        out,
        "{:>11} {:>9} {:>8} {:>3} {:>3} {:>12} {:>12} {:>13} {:>5}",
        "design", "jitter", "hold", "k", "S", "spread p50", "spread p99", "added median", "late"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:>11} {:>6} ns {:>5} us {:>3} {:>3} {:>9} ns {:>9} ns {:>10} ns {:>5}",
            r.design,
            r.jitter_ns,
            r.hold_us,
            r.fanout,
            r.subscribers,
            metric(r.out, "spread_p50_ps") as u64 / 1_000,
            metric(r.out, "spread_p99_ps") as u64 / 1_000,
            metric(r.out, "added_median_ps") as u64 / 1_000,
            metric(r.out, "late") as u64,
        )?;
    }
    writeln!(
        out,
        "\n\
         {beat_l1} cloud cell(s) drove spread below the L1 port skew; every one paid\n\
         added median latency >= its hold window, and {leaks} zero-hold cell(s) under\n\
         jitter leaked the tail into their spread — fairness is bought, not free."
    )?;
    Ok(Outcome {
        json: Some(json(&rows)),
        checks: vec![
            Check::above("cloud cells with spread below the L1 port skew", 0, beat_l1),
            Check::eq("of those, cells with added median < their hold", 0, unpaid),
            Check::above(
                "zero-hold cells under jitter with spread above L1",
                0,
                leaks,
            ),
        ],
    })
}
