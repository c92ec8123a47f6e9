//! The metric catalog: every name the benchmark prints, with its unit,
//! its direction and — for layer metrics — the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` and `README.md`
//! are checked against this table by `tests/contract.rs`.

/// One end-to-end metric.
pub struct EndToEndMetric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit; `sim_ns` is simulated time, everything else with a time
    /// unit is host time.
    pub unit: &'static str,
    /// Whether `BENCHMARK.json` gates it. `failed_share` is not: it is 0
    /// on every healthy run, so a relative bound cannot apply; the
    /// driver sees it as `failed` ÷ `attempted` of the result line.
    pub gated: bool,
}

/// The eight end-to-end metrics, lower is better for all.
pub const END_TO_END: [EndToEndMetric; 8] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        gated: true,
    },
    EndToEndMetric {
        name: "ns_per_event",
        unit: "ns",
        gated: true,
    },
    EndToEndMetric {
        name: "cpu_ns_per_event",
        unit: "ns",
        gated: true,
    },
    EndToEndMetric {
        name: "allocs_per_kevent",
        unit: "count",
        gated: true,
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        gated: true,
    },
    EndToEndMetric {
        name: "sim_latency_p50_ns",
        unit: "sim_ns",
        gated: true,
    },
    EndToEndMetric {
        name: "sim_latency_p99_ns",
        unit: "sim_ns",
        gated: true,
    },
    EndToEndMetric {
        name: "failed_share",
        unit: "ratio",
        gated: false,
    },
];

/// One per-layer metric.
pub struct LayerMetric {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// The end-to-end metric and workload this is predicted to move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        higher_is_better,
        moves,
    }
}

const NS_D1: &str = "ns_per_event on design1-paper";
const NS_D3: &str = "ns_per_event on design3-paper";
const NS_FEED: &str = "ns_per_event on feed-recovery";
const NS_LAB: &str = "ns_per_event on shootout-small";
const NS_SHARD: &str = "ns_per_event on swarm-100k-shard8";
const SETUP_SHARD: &str = "setup_s on swarm-100k-shard8";
const NONE_GATED: &str = "nothing gated (evidence only)";
const SIM_ONLY: &str = "simulated only: must not move under a host-speed change";
const LEDGER: &str = "the ledger check of ROADMAP item 1 (every workload)";

/// Crates the ledger attributes host time to.
pub const LEDGER_LAYERS: [&str; 12] = [
    "sim", "wire", "netdev", "fault", "switch", "market", "feed", "trading", "topo", "core",
    "stats", "lab",
];

/// Every per-layer metric of the traced run, in print order.
pub const PER_LAYER: &[LayerMetric] = &[
    // tn-sim
    m(
        "sim.timer_dispatch_ns",
        "ns",
        false,
        "ns_per_event on design1-paper, feed-recovery",
    ),
    m(
        "sim.timer_dispatch_deep_ns",
        "ns",
        false,
        "ns_per_event on swarm-100k only",
    ),
    m("sim.frame_hop_ns", "ns", false, NS_D1),
    m("sim.fanout_copy_ns", "ns", false, NS_D3),
    m(
        "sim.arena_cycle_ns",
        "ns",
        false,
        "allocs_per_kevent, ns_per_event on design3-paper",
    ),
    m(
        "sim.arena_reuse_ratio",
        "ratio",
        true,
        "allocs_per_kevent on design3-paper",
    ),
    m(
        "sim.max_queue_depth",
        "count",
        false,
        "ns_per_event on swarm-100k",
    ),
    m(
        "sim.events",
        "count",
        false,
        "ns_per_event (its divisor) on every workload",
    ),
    m("sim.sched_wheel_ratio", "ratio", true, NONE_GATED),
    m("sim.sched_calendar_ratio", "ratio", true, NONE_GATED),
    m("sim.shard_plan_ms", "ms", false, SETUP_SHARD),
    m("sim.shard_split_ms", "ms", false, SETUP_SHARD),
    m("sim.shard_run_ms", "ms", false, NS_SHARD),
    m("sim.shard_finish_ms", "ms", false, NS_SHARD),
    m("sim.shard_windows", "count", false, NS_SHARD),
    m("sim.shard_cross_frames", "count", false, NS_SHARD),
    m("sim.shard_thread_ratio", "ratio", true, NONE_GATED),
    // tn-obs
    m(
        "obs.registry_inc_ns",
        "ns",
        false,
        "none with obs off; design1-paper with obs on",
    ),
    m(
        "obs.flight_record_ns",
        "ns",
        false,
        "none with obs off; design1-paper with obs on",
    ),
    m(
        "obs.profile_overhead_ratio",
        "ratio",
        false,
        "none with obs off (the bypass check)",
    ),
    m(
        "obs.full_overhead_ratio",
        "ratio",
        false,
        "none with obs off (the bypass check)",
    ),
    // tn-wire
    m(
        "wire.pitch_emit_ns",
        "ns",
        false,
        "ns_per_event on design1-paper, feed-recovery",
    ),
    m(
        "wire.pitch_parse_ns",
        "ns",
        false,
        "ns_per_event on design1-paper, design3-paper, feed-recovery",
    ),
    m("wire.boe_emit_ns", "ns", false, NS_D1),
    m("wire.boe_parse_ns", "ns", false, NS_D1),
    m(
        "wire.udp_emit_ns",
        "ns",
        false,
        "ns_per_event on design1-paper, feed-recovery",
    ),
    m(
        "wire.udp_parse_ns",
        "ns",
        false,
        "ns_per_event on design3-paper, feed-recovery",
    ),
    m(
        "wire.parse_errors",
        "count",
        false,
        "failed_share on every workload",
    ),
    // tn-netdev / tn-fault
    m("netdev.etherlink_transmit_ns", "ns", false, NS_D1),
    m("fault.link_transmit_ns", "ns", false, NS_FEED),
    m(
        "fault.frames_lost",
        "count",
        false,
        "sim_latency_p99_ns on feed-recovery",
    ),
    // tn-switch
    m("switch.commodity_fwd_ns", "ns", false, NS_D1),
    m("switch.l1_fanout_ns", "ns", false, NS_D3),
    m("switch.fpga_fwd_ns", "ns", false, NS_LAB),
    // tn-market
    m(
        "market.book_submit_cancel_ns",
        "ns",
        false,
        "ns_per_event on design1-paper, shootout-small",
    ),
    m(
        "market.book_execute_ns",
        "ns",
        false,
        "ns_per_event on design1-paper, shootout-small",
    ),
    m(
        "market.flow_step_ns",
        "ns",
        false,
        "ns_per_event on design1-paper, shootout-small",
    ),
    // tn-feed
    m("feed.arbiter_offer_ns", "ns", false, NS_D1),
    m("feed.arb_dup_share", "ratio", false, NS_D1),
    m("feed.normalizer_msg_ns", "ns", false, NS_D1),
    m("feed.bookbuild_apply_ns", "ns", false, NS_D1),
    m("feed.reorder_offer_ns", "ns", false, NS_FEED),
    m(
        "feed.retrans_serve_ns",
        "ns",
        false,
        "ns_per_event, sim_latency_p99_ns on feed-recovery",
    ),
    m(
        "feed.gaps",
        "count",
        false,
        "sim_latency_p99_ns on feed-recovery",
    ),
    m("feed.retrans_requests", "count", false, NS_FEED),
    m("feed.recovered_msgs", "count", false, NS_FEED),
    m(
        "feed.abandoned",
        "count",
        false,
        "failed_share on feed-recovery",
    ),
    // tn-trading
    m("trading.records_evaluated", "count", false, NS_D1),
    m("trading.records_discarded", "count", false, NS_D3),
    m("trading.filter_discard_share", "ratio", false, NS_D3),
    m("trading.orders_sent", "count", false, NS_D1),
    m("trading.compliance_record_ns", "ns", false, NS_D3),
    // tn-topo
    m(
        "topo.leafspine_build_ms",
        "ms",
        false,
        "setup_s on design1-paper",
    ),
    m(
        "topo.l1fabric_build_ms",
        "ms",
        false,
        "setup_s on design3-paper",
    ),
    m(
        "topo.cloud_build_ms",
        "ms",
        false,
        "setup_s (cloud runs of shootout-small)",
    ),
    // tn-core
    m("core.report_json_us", "us", false, NS_LAB),
    m("core.network_share", "ratio", false, SIM_ONLY),
    m("core.feed_latency_p50_ns", "sim_ns", false, SIM_ONLY),
    m("core.design1_reaction_p50_ns", "sim_ns", false, SIM_ONLY),
    m("core.design2_reaction_p50_ns", "sim_ns", false, SIM_ONLY),
    m("core.design3_reaction_p50_ns", "sim_ns", false, SIM_ONLY),
    m("core.design3b_reaction_p50_ns", "sim_ns", false, SIM_ONLY),
    // tn-cloud
    m(
        "cloud.fairness_ns_per_event",
        "ns",
        false,
        "no gated workload (keeps tn-cloud visible)",
    ),
    m("cloud.spread_p99_ps", "sim_ps", false, SIM_ONLY),
    // tn-stats
    m(
        "stats.summary_record_ns",
        "ns",
        false,
        "ns_per_event on the design workloads",
    ),
    m(
        "stats.summary_p99_ns",
        "ns",
        false,
        "ns_per_event on the design workloads",
    ),
    m(
        "stats.hist_record_ns",
        "ns",
        false,
        "ns_per_event on the design workloads",
    ),
    // tn-lab
    m("lab.expand_us", "us", false, "setup_s on shootout-small"),
    m("lab.run_batch_ms", "ms", false, NS_LAB),
    m("lab.report_build_us", "us", false, NS_LAB),
    m("lab.report_json_us", "us", false, NS_LAB),
    m("lab.overhead_share", "ratio", false, NS_LAB),
    m("lab.thread2_ratio", "ratio", true, NONE_GATED),
    // the ledger
    m(
        "bench.trace_overhead_ratio",
        "ratio",
        false,
        "nothing: traced / untraced ns_per_event",
    ),
    m("bench.est_share.sim", "ratio", false, LEDGER),
    m("bench.est_share.wire", "ratio", false, LEDGER),
    m("bench.est_share.netdev", "ratio", false, LEDGER),
    m("bench.est_share.fault", "ratio", false, LEDGER),
    m("bench.est_share.switch", "ratio", false, LEDGER),
    m("bench.est_share.market", "ratio", false, LEDGER),
    m("bench.est_share.feed", "ratio", false, LEDGER),
    m("bench.est_share.trading", "ratio", false, LEDGER),
    m("bench.est_share.topo", "ratio", false, LEDGER),
    m("bench.est_share.core", "ratio", false, LEDGER),
    m("bench.est_share.stats", "ratio", false, LEDGER),
    m("bench.est_share.lab", "ratio", false, LEDGER),
    m("bench.unattributed_share", "ratio", false, LEDGER),
];

/// Why each workload is in the set (the `why` of `BENCHMARK.json`).
pub const WORKLOAD_WHY: [(&str, &str); 6] = [
    (
        "design1-paper",
        "Design 1 at the paper's scale: every layer works behind a mid-depth queue; dispatch-path work shows here",
    ),
    (
        "design3-paper",
        "Design 3: L1 fan-out to 930 hosts, 94% of records filtered host-side; fan-out, arena churn and filtering dominate",
    ),
    (
        "swarm-100k",
        "100,000 pending timers on no-op nodes: scheduler push/pop and bare dispatch only; bypasses wire, market, feed, trading",
    ),
    (
        "swarm-100k-shard8",
        "the same swarm through lookahead windows, K-way merge and rekey on one thread; digest must equal swarm-100k",
    ),
    (
        "feed-recovery",
        "1% feed loss: the only workload where tn-fault and gap recovery work; shallow queue, so it bypasses scheduler changes",
    ),
    (
        "shootout-small",
        "all four designs as a tn-lab sweep on small, cache-resident topologies: cloud and FPGA fabrics and the lab path",
    ),
];

/// Spans the workloads themselves open (rig spans are named after their
/// metric, minus the unit suffix): `(name, the call it wraps)`.
pub const WORKLOAD_SPANS: [(&str, &str); 13] = [
    (
        "core.design_setup",
        "`TradingNetworkDesign::run` over a 2 µs interval",
    ),
    (
        "core.design_run",
        "`TradingNetworkDesign::run`, the timed call",
    ),
    (
        "core.design_run_small",
        "one design on the small preset (the `core.*` verdict rig)",
    ),
    (
        "sim.swarm_build",
        "`swarm::build`: `add_node`, `install_link`, `schedule_timer` × 100,008",
    ),
    ("sim.run_until", "`Simulator::run_until`, the timed call"),
    ("sim.shard_plan", "`ShardPlan::auto`"),
    ("sim.shard_split", "`ShardedSimulator::split`"),
    ("sim.shard_run", "`ShardedSimulator::run_until`"),
    ("sim.shard_finish", "`ShardedSimulator::finish`"),
    ("feed.recovery_setup", "`run_loss_recovery` with one packet"),
    ("feed.recovery_run", "`run_loss_recovery`, the timed call"),
    ("lab.expand", "`SweepSpec::expand`"),
    (
        "lab.run_batch",
        "`run_batch` (its children: none; runs are not spanned)",
    ),
];
