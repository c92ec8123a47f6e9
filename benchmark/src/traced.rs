//! The traced run: the workload under spans, the workload again with
//! one digest-neutral knob flipped at a time, the layer rigs, and the
//! ledger that tries to add the layers back up to the end-to-end time.

use std::time::Instant;

use tn_sim::{KernelProfile, ObsConfig, SchedulerKind};

use crate::catalog::LEDGER_LAYERS;
use crate::driver::Checks;
use crate::rigs::{self, floor_ns_per_op, Values, MSGS_PER_FLOW_STEP};
use crate::trace::Tracer;
use crate::workloads::{self, Knobs, Pass, RunInfo, Scale, Workload};

/// What a traced run hands back.
pub struct Traced {
    /// Every per-layer value the run produced, by catalog name.
    pub values: Values,
    /// Output checks (digest neutrality of every knob, rig self-checks).
    pub checks: Checks,
    /// The spans, for `out/trace-<workload>.jsonl`.
    pub tracer: Tracer,
}

/// Cheapest of up to three passes under `knobs` (fewer when a pass is
/// long): `(floor wall ns, last pass)`.
fn floor_pass<W: Workload>(
    w: &W,
    knobs: Knobs,
    tr: &Tracer,
    checks: &mut Checks,
    first: &Pass,
) -> (f64, Pass) {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let timed = w.pass(knobs, tr);
        checks.absorb(&timed.pass, first);
        best = best.min(timed.cost.wall_ns as f64);
        last = Some(timed.pass);
        if started.elapsed().as_secs_f64() > 1.0 {
            break;
        }
    }
    (best, last.expect("the loop runs at least once"))
}

/// Run `w` traced for about `seconds` of paired reps plus the knob
/// passes and rigs.
pub fn traced<W: Workload>(w: &mut W, seconds: f64) -> Traced {
    let off = Tracer::off();
    let tr = Tracer::on();
    let mut checks = Checks::default();
    w.reference();

    // Untraced and traced reps, alternating, so both see the same host.
    // The first untraced pass also fixes the digest every later pass
    // (whatever its knobs) must reproduce.
    let (mut plain_ns, mut traced_ns, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Pass> = None;
    let phase = Instant::now();
    loop {
        for (tracer, sink) in [(&off, &mut plain_ns), (&tr, &mut traced_ns)] {
            let t0 = Instant::now();
            let input = w.setup(Knobs::PLAIN, tracer);
            setup_s.push(t0.elapsed().as_secs_f64());
            let timed = w.run(input, Knobs::PLAIN, tracer);
            checks.absorb(&timed.pass, first.as_ref().unwrap_or(&timed.pass));
            sink.push(timed.cost.wall_ns as f64);
            first.get_or_insert(timed.pass);
        }
        if phase.elapsed().as_secs_f64() >= seconds / 4.0 {
            break;
        }
    }
    let first = first.expect("the loop runs at least once");
    let floor = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let wall = floor(&plain_ns);

    // The shard and lab layers have spans only where a workload calls
    // them. Elsewhere one smoke-size pass of the workload that does
    // stands in, so `sim.shard_*` and `lab.*` stay measurements of the
    // layer (at that size) instead of reading 0.
    let seed = w.shape().seed;
    let mut shard = first.shard.clone();
    if tr.per_span("sim.shard_run").is_empty() {
        let pass = workloads::swarm_sharded(seed, &Scale::SMOKE)
            .pass(Knobs::PLAIN, &tr)
            .pass;
        checks.absorb(&pass, &pass);
        shard = pass.shard;
    }
    if tr.per_span("lab.run_batch").is_empty() {
        let pass = workloads::shootout_small(seed, &Scale::SMOKE)
            .pass(Knobs::PLAIN, &tr)
            .pass;
        checks.absorb(&pass, &pass);
    }

    // One knob at a time; every pass must reproduce the digest.
    let (profiled_wall, profiled) = floor_pass(w, Knobs::profiled(), &off, &mut checks, &first);
    let full_knobs = Knobs {
        obs: ObsConfig::full(),
        ..Knobs::PLAIN
    };
    let (full_wall, full) = if w.full_obs_pass() {
        floor_pass(w, full_knobs, &off, &mut checks, &first)
    } else {
        (0.0, profiled.clone())
    };
    let sched = |kind| Knobs {
        scheduler: kind,
        ..Knobs::PLAIN
    };
    let (wheel_wall, _) = floor_pass(
        w,
        sched(SchedulerKind::TimingWheel),
        &off,
        &mut checks,
        &first,
    );
    let (calendar_wall, _) = floor_pass(
        w,
        sched(SchedulerKind::CalendarQueue),
        &off,
        &mut checks,
        &first,
    );

    let mut values: Values = vec![
        ("bench.trace_overhead_ratio", floor(&traced_ns) / wall),
        ("obs.profile_overhead_ratio", profiled_wall / wall),
        ("obs.full_overhead_ratio", full_wall / wall),
        ("sim.sched_wheel_ratio", wall / wheel_wall),
        ("sim.sched_calendar_ratio", wall / calendar_wall),
        ("sim.events", first.events as f64),
    ];
    values.extend(w.extras());
    // A layer the workload never calls costs it nothing: its
    // workload-bound metrics read 0 there.
    for name in [
        "sim.shard_thread_ratio",
        "lab.overhead_share",
        "lab.thread2_ratio",
    ] {
        if !values.iter().any(|(n, _)| *n == name) {
            values.push((name, 0.0));
        }
    }

    let profile = merged_profile(&profiled.runs);
    values.push(("sim.max_queue_depth", profile.max_queue_depth as f64));
    values.push((
        "sim.arena_reuse_ratio",
        profile.arena_reuse_ratio().unwrap_or(0.0),
    ));
    let shard = shard.as_ref();
    values.push(("sim.shard_windows", shard.map_or(0.0, |s| s.windows as f64)));
    values.push((
        "sim.shard_cross_frames",
        shard.map_or(0.0, |s| s.cross_shard_frames as f64),
    ));
    let ops = &profiled.ops;
    let records = ops.records_evaluated + ops.records_discarded;
    values.extend([
        ("feed.gaps", ops.gaps as f64),
        ("feed.retrans_requests", ops.retrans_requests as f64),
        ("feed.recovered_msgs", ops.recovered_msgs as f64),
        ("feed.abandoned", ops.abandoned as f64),
        ("trading.records_evaluated", ops.records_evaluated as f64),
        ("trading.records_discarded", ops.records_discarded as f64),
        (
            "trading.filter_discard_share",
            ops.records_discarded as f64 / records.max(1) as f64,
        ),
        ("trading.orders_sent", ops.orders_sent as f64),
    ]);

    // Rigs, shaped by what the passes measured.
    let mut shape = w.shape();
    shape.nodes = profile.per_node.len();
    shape.latency_samples = first.latency_ps.len();
    let mut rig_failures = Vec::new();
    values.extend(rigs::run_all(&tr, &shape, &mut rig_failures));
    checks.attempted += rigs::SELF_CHECKS.max(rig_failures.len() as u64);
    checks.failures.extend(rig_failures);

    let setup_median = crate::measure::Quartiles::of(&setup_s).median;
    values.extend(ledger(
        &tr,
        &values,
        wall,
        setup_median * 1e9,
        &first,
        &profiled,
        &full,
    ));
    Traced {
        values,
        checks,
        tracer: tr,
    }
}

/// Sum the per-run profiles of a profiled pass (queue depth and node
/// count: the largest run's).
fn merged_profile(runs: &[RunInfo]) -> KernelProfile {
    let mut it = runs.iter().filter_map(|r| r.profile.as_ref());
    let mut all = it
        .next()
        .cloned()
        .expect("every workload's profiled pass carries a kernel profile");
    for p in it {
        all.frames += p.frames;
        all.timers += p.timers;
        all.max_queue_depth = all.max_queue_depth.max(p.max_queue_depth);
        all.arena_allocated += p.arena_allocated;
        all.arena_reused += p.arena_reused;
        all.arena_recycled += p.arena_recycled;
        if p.per_node.len() > all.per_node.len() {
            all.per_node = p.per_node.clone();
        }
    }
    all
}

/// Value of a span-timed metric: `x.y_ns` is the floor of span `x.y`
/// in ns per operation; `_us` and `_ms` scale it.
pub fn span_metric(tr: &Tracer, metric: &str) -> Option<f64> {
    for (suffix, scale) in [("_ns", 1.0), ("_us", 1e3), ("_ms", 1e6)] {
        if let Some(span) = metric.strip_suffix(suffix) {
            return Some(floor_ns_per_op(tr, span) / scale);
        }
    }
    // `cloud.fairness_ns_per_event` names its own span.
    Some(floor_ns_per_op(tr, metric)).filter(|v| *v > 0.0)
}

/// The ledger: rig unit cost × the layer's operation count, as a share
/// of the measured wall time of one pass. README § "The ledger" states
/// every term; what it cannot place is `bench.unattributed_share`.
fn ledger(
    tr: &Tracer,
    values: &Values,
    wall_ns: f64,
    setup_ns: f64,
    first: &Pass,
    profiled: &Pass,
    full: &Pass,
) -> Values {
    let u = |span: &str| floor_ns_per_op(tr, span);
    let value = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut ns = [0.0f64; LEDGER_LAYERS.len()];
    let mut add = |layer: &str, amount: f64| {
        let i = LEDGER_LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("ledger layers are catalog layers");
        ns[i] += amount.max(0.0);
    };

    let ops = &profiled.ops;
    let mut host_frames = 0.0;
    let mut built_frames = 0.0;
    let mut topo_ns = 0.0;
    for run in &profiled.runs {
        let Some(p) = &run.profile else { continue };
        // Designs add their fabric before any host, so the fabric is the
        // leading node ids; every copy a switch forwards leaves through
        // one pipeline timer.
        let fabric = p.per_node.len().saturating_sub(run.hosts);
        let (mut fabric_frames, mut copies) = (0u64, 0u64);
        if run.design.is_some() {
            for n in p.per_node.iter().filter(|n| (n.node as usize) < fabric) {
                fabric_frames += n.frames;
                copies += n.timers;
            }
        }
        let copies = copies as f64;
        // Heap cost grows with log(depth): interpolate between the two
        // timer rigs (16 and 100,000 pending) on that scale.
        let depth = (p.max_queue_depth.max(16) as f64).ln();
        let t = ((depth - 16f64.ln()) / (100_000f64.ln() - 16f64.ln())).clamp(0.0, 1.0);
        let timer = u("sim.timer_dispatch") * (1.0 - t) + u("sim.timer_dispatch_deep") * t;
        add("sim", (p.timers as f64 - copies) * timer);
        add("sim", (p.frames as f64 - copies) * u("sim.frame_hop"));
        add("sim", copies * u("sim.fanout_copy"));
        let switch = match run.design {
            Some("l1") => u("switch.l1_fanout"),
            Some("fpga") => u("switch.fpga_fwd"),
            _ => u("switch.commodity_fwd"),
        };
        add("switch", copies * (switch - u("sim.fanout_copy")));
        add("netdev", p.frames as f64 * u("netdev.etherlink_transmit"));
        let fabric_build = match run.design {
            Some("traditional") => u("topo.leafspine_build"),
            Some("l1") => u("topo.l1fabric_build"),
            Some("cloud") => u("topo.cloud_build"),
            _ => 0.0,
        };
        add("topo", fabric_build);
        topo_ns += fabric_build;
        host_frames += (p.frames - fabric_frames) as f64;
        built_frames += (p.arena_allocated + p.arena_reused) as f64 - copies;
    }

    let msgs = ops.feed_messages as f64;
    let orders = ops.orders_sent as f64;
    let replies = ops.order_replies as f64;
    let packets = ops.packets as f64;
    let recovery_msgs = ops.recovery_msgs as f64;
    add(
        "wire",
        (msgs + recovery_msgs) * (u("wire.pitch_emit") + u("wire.pitch_parse")),
    );
    add("wire", host_frames * u("wire.udp_parse"));
    add("wire", built_frames.max(0.0) * u("wire.udp_emit"));
    add(
        "wire",
        (orders + replies) * (u("wire.boe_emit") + u("wire.boe_parse")),
    );
    add(
        "market",
        msgs / value(MSGS_PER_FLOW_STEP).max(1.0) * u("market.flow_step"),
    );
    add("market", orders * u("market.book_execute"));
    add("feed", msgs * u("feed.normalizer_msg"));
    add("feed", full.ops.arb_offers as f64 * u("feed.arbiter_offer"));
    add("feed", packets * u("feed.reorder_offer"));
    add(
        "feed",
        ops.retrans_requests as f64 * u("feed.retrans_serve"),
    );
    add(
        "fault",
        full.ops.fault_offered as f64 * (u("fault.link_transmit") - u("netdev.etherlink_transmit")),
    );
    add(
        "trading",
        (ops.records_evaluated + ops.records_discarded) as f64 * u("trading.compliance_record"),
    );
    add(
        "stats",
        first.latency_ps.len() as f64 * u("stats.summary_record"),
    );
    add("stats", ops.runs as f64 * 2.0 * u("stats.summary_p99"));
    // A design run's fixed part (firm build, logins, report assembly) is
    // what its set-up call times, less the fabric build counted above.
    if profiled.runs.len() == 1 && profiled.runs[0].design.is_some() {
        add("core", setup_ns - topo_ns);
    }
    // The lab's own work counts only where the workload is a lab sweep
    // (elsewhere those spans come from the smoke-size stand-in).
    if first.ops.runs > 1 {
        add("lab", u("lab.report_build") + u("lab.report_json"));
        add("lab", value("lab.overhead_share") * wall_ns);
    }

    let mut out = Values::new();
    let mut attributed = 0.0;
    for (layer, amount) in LEDGER_LAYERS.iter().zip(ns) {
        let share = amount / wall_ns;
        attributed += share;
        out.push((ledger_name(layer), share));
    }
    out.push(("bench.unattributed_share", 1.0 - attributed));
    out
}

/// `bench.est_share.<layer>` as the catalog's `'static` name.
fn ledger_name(layer: &str) -> &'static str {
    crate::catalog::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix("bench.est_share.") == Some(layer))
        .expect("every ledger layer has a catalog row")
}
