//! Evaluation reports: what a design run produces.

use tn_sim::json::{num_fixed, num_u64, Json};
use tn_sim::{KernelProfile, SimTime, Snapshot, SnapshotValue, TraceEvent};
use tn_stats::{FairnessWindow, Summary};

/// Order statistics for a latency population, picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: SimTime,
    /// Mean.
    pub mean: SimTime,
    /// Median.
    pub median: SimTime,
    /// 99th percentile.
    pub p99: SimTime,
    /// Maximum.
    pub max: SimTime,
}

impl LatencyStats {
    /// Build from raw picosecond samples.
    pub fn from_samples(samples: &[u64]) -> LatencyStats {
        let mut s = Summary::new();
        s.extend(samples.iter().copied());
        LatencyStats {
            count: s.count(),
            min: SimTime::from_ps(s.min()),
            mean: SimTime::from_ps(s.mean() as u64),
            median: SimTime::from_ps(s.median()),
            p99: SimTime::from_ps(s.p99()),
            max: SimTime::from_ps(s.max()),
        }
    }

    /// An empty population.
    pub fn empty() -> LatencyStats {
        LatencyStats {
            count: 0,
            min: SimTime::ZERO,
            mean: SimTime::ZERO,
            median: SimTime::ZERO,
            p99: SimTime::ZERO,
            max: SimTime::ZERO,
        }
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={} median={} mean={} p99={} max={}",
            self.count, self.min, self.median, self.mean, self.p99, self.max
        )
    }
}

/// Degraded-mode accounting: what the feed path lost and what the
/// recovery machinery (A/B arbitration, reorder buffers, retransmission)
/// got back.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStats {
    /// Distinct sequence-gap events receivers observed.
    pub gaps_seen: u64,
    /// Records lost for good (skipped forward or abandoned).
    pub records_lost: u64,
    /// Records recovered (retransmission fills plus the held packets
    /// they unblocked).
    pub records_recovered: u64,
    /// Duplicate copies absorbed (the other feed side arrived first).
    pub duplicates_absorbed: u64,
    /// Retransmission requests issued (including timed-out re-requests).
    pub retrans_requests: u64,
    /// Gap-fill latency: request to in-order release.
    pub gap_fill: LatencyStats,
    /// Delivered messages per second over the degraded window (0 when no
    /// degraded window was measured).
    pub degraded_throughput: f64,
}

impl RecoveryStats {
    /// A run with nothing to recover.
    pub fn none() -> RecoveryStats {
        RecoveryStats {
            gaps_seen: 0,
            records_lost: 0,
            records_recovered: 0,
            duplicates_absorbed: 0,
            retrans_requests: 0,
            gap_fill: LatencyStats::empty(),
            degraded_throughput: 0.0,
        }
    }
}

impl Default for RecoveryStats {
    fn default() -> RecoveryStats {
        RecoveryStats::none()
    }
}

/// One segment kind's aggregate across every instrumented hop: where the
/// run's frame time went (enqueue vs. serialize vs. propagate ...).
#[derive(Debug, Clone, PartialEq)]
pub struct HopKindStat {
    /// Segment kind name (`"enqueue"`, `"serialize"`, ...).
    pub kind: String,
    /// Segments recorded.
    pub count: u64,
    /// Exact sum of segment durations, picoseconds.
    pub total_ps: u128,
    /// Mean segment duration, picoseconds.
    pub mean_ps: u64,
    /// Largest single segment, picoseconds.
    pub max_ps: u64,
    /// This kind's share of all hop time, `0.0..=1.0`.
    pub share: f64,
}

/// One node's share of accumulated hop time.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHopStat {
    /// Node id.
    pub node: u32,
    /// Segments attributed to the node.
    pub count: u64,
    /// Total hop time attributed to the node, picoseconds.
    pub total_ps: u128,
}

/// How many hottest nodes [`Telemetry::from_snapshot`] keeps.
const HOTTEST_NODES: usize = 5;

/// Telemetry section of a report, distilled from a metrics-registry
/// snapshot when the scenario enables recording
/// (`ScenarioConfig::obs.registry`); absent otherwise. Purely an *output*
/// of the run — whether it is collected never changes the trace digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// Simulated time the snapshot was taken, picoseconds.
    pub at_ps: u64,
    /// Per-kind hop decomposition (scope `"hop"`), in kind order.
    pub hops: Vec<HopKindStat>,
    /// Top nodes by accumulated hop time, descending (ties by node id).
    pub hottest_nodes: Vec<NodeHopStat>,
    /// Every counter in the registry: `(scope, name, node, value)`, in
    /// key order.
    pub counters: Vec<(String, String, Option<u32>, u64)>,
}

impl Telemetry {
    /// Distill a registry snapshot: aggregate the per-`(kind, node)` hop
    /// distributions into per-kind and per-node totals, and carry the
    /// counters through verbatim.
    pub fn from_snapshot(snap: &Snapshot) -> Telemetry {
        use std::collections::BTreeMap;
        let mut by_kind: BTreeMap<&str, (u64, u128, u64)> = BTreeMap::new();
        let mut by_node: BTreeMap<u32, (u64, u128)> = BTreeMap::new();
        let mut counters = Vec::new();
        for e in &snap.entries {
            match &e.value {
                SnapshotValue::Distribution {
                    count, sum, max, ..
                } if e.scope == "hop" => {
                    let k = by_kind.entry(e.name.as_str()).or_insert((0, 0, 0));
                    k.0 += count;
                    k.1 += sum;
                    k.2 = (k.2).max(*max);
                    if let Some(node) = e.node {
                        let n = by_node.entry(node).or_insert((0, 0));
                        n.0 += count;
                        n.1 += sum;
                    }
                }
                SnapshotValue::Counter(v) => {
                    counters.push((e.scope.clone(), e.name.clone(), e.node, *v));
                }
                _ => {}
            }
        }
        let grand: u128 = by_kind.values().map(|(_, sum, _)| sum).sum();
        let hops = by_kind
            .into_iter()
            .map(|(kind, (count, total_ps, max_ps))| HopKindStat {
                kind: kind.to_string(),
                count,
                total_ps,
                mean_ps: if count == 0 {
                    0
                } else {
                    (total_ps / u128::from(count)) as u64
                },
                max_ps,
                share: if grand == 0 {
                    0.0
                } else {
                    total_ps as f64 / grand as f64
                },
            })
            .collect();
        let mut hottest_nodes: Vec<NodeHopStat> = by_node
            .into_iter()
            .map(|(node, (count, total_ps))| NodeHopStat {
                node,
                count,
                total_ps,
            })
            .collect();
        // BTreeMap order makes the sort's tie-break (node id) deterministic.
        hottest_nodes.sort_by(|a, b| b.total_ps.cmp(&a.total_ps).then(a.node.cmp(&b.node)));
        hottest_nodes.truncate(HOTTEST_NODES);
        Telemetry {
            at_ps: snap.at_ps,
            hops,
            hottest_nodes,
            counters,
        }
    }

    /// Sum of every counter named `name` under `scope`, across nodes.
    pub fn counter_total(&self, scope: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(s, n, _, _)| s == scope && n == name)
            .map(|(_, _, _, v)| v)
            .sum()
    }
}

/// Cloud-fairness section of a report: how evenly one published event
/// reached every subscriber, and what the fairness machinery charged for
/// it. Present only when the cloud design ran with
/// `CloudFairnessSpec::enabled()`; purely an output — collecting it never
/// moves the trace digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairnessStats {
    /// Subscribers (equalizer gates) measured.
    pub subscribers: u64,
    /// Events delivered to every subscriber (complete fairness groups).
    pub events_measured: u64,
    /// Events that missed at least one subscriber (excluded from spread).
    pub events_incomplete: u64,
    /// Deliveries that arrived past their equalizer ceiling and passed
    /// straight through — the jitter tail the ceiling failed to cover.
    pub late_deliveries: u64,
    /// Median delivery spread (last minus first subscriber) per event.
    pub spread_p50: SimTime,
    /// 99th-percentile delivery spread.
    pub spread_p99: SimTime,
    /// Worst delivery spread.
    pub spread_max: SimTime,
    /// Median padding the equalizers added per delivery — the latency
    /// price paid for the spread numbers above.
    pub pad_median: SimTime,
}

impl FairnessStats {
    /// Fold a populated [`FairnessWindow`] plus the equalizers' late
    /// counter and per-delivery padding samples into report form.
    pub fn from_window(w: &FairnessWindow, late_deliveries: u64, pad_ps: &[u64]) -> FairnessStats {
        let mut spreads = w.spreads();
        let mut pads = Summary::new();
        pads.extend(pad_ps.iter().copied());
        FairnessStats {
            subscribers: w.expected() as u64,
            events_measured: w.complete() as u64,
            events_incomplete: w.incomplete() as u64,
            late_deliveries,
            spread_p50: SimTime::from_ps(spreads.median()),
            spread_p99: SimTime::from_ps(spreads.p99()),
            spread_max: SimTime::from_ps(spreads.max()),
            pad_median: SimTime::from_ps(pads.median()),
        }
    }
}

/// Outcome of running one scenario over one design.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Design name.
    pub design: String,
    /// Market-data delivery: matching-engine event → record arriving at a
    /// strategy host (wire + switches + normalizer hop).
    pub feed_latency: LatencyStats,
    /// Wire-to-wire reaction: matching-engine event → responsive order
    /// arriving back at the exchange (the number firms compete on).
    pub reaction: LatencyStats,
    /// Feed messages the exchange published.
    pub feed_messages: u64,
    /// Records strategies evaluated.
    pub records_evaluated: u64,
    /// Records strategies discarded (host-side filtering).
    pub records_discarded: u64,
    /// Orders strategies sent.
    pub orders_sent: u64,
    /// Acks received by strategies.
    pub acks: u64,
    /// Fills received by strategies.
    pub fills: u64,
    /// Frames dropped anywhere (links + queues).
    pub frames_dropped: u64,
    /// Total software service on the reaction path (configured).
    pub software_path: SimTime,
    /// Fraction of the median reaction spent *outside* the firm's
    /// software (network + exchange): §4.1's "half of the overall time
    /// through the system is spent in the network".
    pub network_share: f64,
    /// Kernel trace digest of the run (`tn_sim::fold_event` over every
    /// event the kernel processed). Two runs of the same design +
    /// scenario + seed must report the same digest; `tn-audit
    /// divergence` enforces it.
    pub trace_digest: u64,
    /// Events folded into `trace_digest`.
    pub events_recorded: u64,
    /// Those events themselves, in order, when the scenario asked for
    /// them (`ScenarioConfig::obs.trace`); empty otherwise. Not
    /// serialized in `tn-report/v1`.
    pub trace: Vec<TraceEvent>,
    /// Degraded-mode accounting (all-zero for clean runs).
    pub recovery: RecoveryStats,
    /// Latency decomposition and counters, when the scenario enabled the
    /// metrics registry (`ScenarioConfig::obs.registry`).
    pub telemetry: Option<Telemetry>,
    /// Kernel self-profile (dispatch counters, queue-depth series,
    /// scheduler and arena statistics), when the scenario enabled the
    /// profiler (`ScenarioConfig::obs.profile`). Like telemetry, purely
    /// an output — collection never moves the trace digest.
    pub profile: Option<KernelProfile>,
    /// Rendered tn-flight ring at end of run, when the scenario enabled
    /// the flight recorder (`ScenarioConfig::obs.flight_capacity`). Carried so
    /// divergence harnesses can attach the last N kernel events to a
    /// failure message. Not serialized in `tn-report/v1`.
    pub flight_dump: Option<String>,
    /// Raw wire-to-wire reaction samples (picoseconds), in arrival order.
    /// Kept so cross-run consumers (the tn-lab sweep aggregator) can pool
    /// exact percentiles across seeds instead of averaging summaries.
    /// Not serialized in `tn-report/v1`.
    pub reaction_samples: Vec<u64>,
    /// Cloud-fairness statistics, when the cloud design ran with its
    /// fairness mechanisms enabled (`CloudConfig::fairness`). Purely an
    /// output, like telemetry.
    pub fairness: Option<FairnessStats>,
}

impl DesignReport {
    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let recovery = if self.recovery == RecoveryStats::none() {
            String::new()
        } else {
            let r = &self.recovery;
            format!(
                "\n  recovery : gaps={} lost={} recovered={} dups={} requests={} fill[{}]",
                r.gaps_seen,
                r.records_lost,
                r.records_recovered,
                r.duplicates_absorbed,
                r.retrans_requests,
                r.gap_fill,
            )
        };
        let telemetry = match &self.telemetry {
            None => String::new(),
            Some(t) => {
                let mut s = String::new();
                for h in &t.hops {
                    s.push_str(&format!(
                        "\n    hop {:<10}: n={} total={} mean={} max={} ({:.1}%)",
                        h.kind,
                        h.count,
                        SimTime::from_ps(h.total_ps.min(u128::from(u64::MAX)) as u64),
                        SimTime::from_ps(h.mean_ps),
                        SimTime::from_ps(h.max_ps),
                        h.share * 100.0,
                    ));
                }
                if !t.hottest_nodes.is_empty() {
                    s.push_str("\n    hottest   :");
                    for n in &t.hottest_nodes {
                        s.push_str(&format!(
                            " node{}={}",
                            n.node,
                            SimTime::from_ps(n.total_ps.min(u128::from(u64::MAX)) as u64),
                        ));
                    }
                }
                format!("\n  telemetry: {} counters{s}", t.counters.len())
            }
        };
        let profile = match &self.profile {
            None => String::new(),
            Some(p) => format!("\n{}", p.render("  ").trim_end_matches('\n')),
        };
        let fairness = match &self.fairness {
            None => String::new(),
            Some(fa) => format!(
                "\n  fairness : subs={} events={} incomplete={} late={} \
                 spread[p50={} p99={} max={}] pad_median={}",
                fa.subscribers,
                fa.events_measured,
                fa.events_incomplete,
                fa.late_deliveries,
                fa.spread_p50,
                fa.spread_p99,
                fa.spread_max,
                fa.pad_median,
            ),
        };
        format!(
            "[{}]\n  feed     : {}\n  reaction : {}\n  feed_msgs={} evaluated={} discarded={} \
             orders={} acks={} fills={} drops={}{recovery}{telemetry}{profile}{fairness}\n  \
             software_path={} network_share={:.1}% digest={:016x}",
            self.design,
            self.feed_latency,
            self.reaction,
            self.feed_messages,
            self.records_evaluated,
            self.records_discarded,
            self.orders_sent,
            self.acks,
            self.fills,
            self.frames_dropped,
            self.software_path,
            self.network_share * 100.0,
            self.trace_digest,
        )
    }

    /// Network time on the median reaction (median minus software path,
    /// saturating).
    pub fn network_time(&self) -> SimTime {
        self.reaction.median.saturating_sub(self.software_path)
    }

    /// Machine-readable report. The schema is versioned — consumers must
    /// check `"schema": "tn-report/v1"` before parsing; fields may only
    /// be *added* within a version. All times are integer picoseconds;
    /// the digest is 16 lowercase hex digits.
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// The `tn-report/v1` document as a tree, for callers that embed it
    /// in a larger document.
    pub fn json(&self) -> Json {
        let n = num_u64;
        let r = &self.recovery;
        let mut doc = vec![
            ("schema", Json::Str(SCHEMA_V1.into())),
            ("design", Json::Str(self.design.clone())),
            ("feed_latency", latency(&self.feed_latency)),
            ("reaction", latency(&self.reaction)),
            ("feed_messages", n(self.feed_messages)),
            ("records_evaluated", n(self.records_evaluated)),
            ("records_discarded", n(self.records_discarded)),
            ("orders_sent", n(self.orders_sent)),
            ("acks", n(self.acks)),
            ("fills", n(self.fills)),
            ("frames_dropped", n(self.frames_dropped)),
            ("software_path_ps", n(self.software_path.as_ps())),
            ("events_recorded", n(self.events_recorded)),
            ("network_share", num_fixed(self.network_share, 6)),
            (
                "trace_digest",
                Json::Str(format!("{:016x}", self.trace_digest)),
            ),
            (
                "recovery",
                Json::obj([
                    ("gaps_seen", n(r.gaps_seen)),
                    ("records_lost", n(r.records_lost)),
                    ("records_recovered", n(r.records_recovered)),
                    ("duplicates_absorbed", n(r.duplicates_absorbed)),
                    ("retrans_requests", n(r.retrans_requests)),
                    ("gap_fill", latency(&r.gap_fill)),
                    ("degraded_throughput", num_fixed(r.degraded_throughput, 6)),
                ]),
            ),
        ];
        if let Some(t) = &self.telemetry {
            let hops = t.hops.iter().map(|h| {
                Json::obj([
                    ("kind", Json::Str(h.kind.clone())),
                    ("count", n(h.count)),
                    ("total_ps", n(clamp_u64(h.total_ps))),
                    ("mean_ps", n(h.mean_ps)),
                    ("max_ps", n(h.max_ps)),
                    ("share", num_fixed(h.share, 6)),
                ])
            });
            let hottest = t.hottest_nodes.iter().map(|h| {
                Json::obj([
                    ("node", n(h.node.into())),
                    ("count", n(h.count)),
                    ("total_ps", n(clamp_u64(h.total_ps))),
                ])
            });
            let counters = t.counters.iter().map(|(scope, name, node, v)| {
                Json::obj([
                    ("scope", Json::Str(scope.clone())),
                    ("name", Json::Str(name.clone())),
                    ("node", node.map_or(Json::Null, |id| n(id.into()))),
                    ("value", n(*v)),
                ])
            });
            doc.push((
                "telemetry",
                Json::obj([
                    ("at_ps", n(t.at_ps)),
                    ("hops", Json::Arr(hops.collect())),
                    ("hottest_nodes", Json::Arr(hottest.collect())),
                    ("counters", Json::Arr(counters.collect())),
                ]),
            ));
        }
        if let Some(p) = &self.profile {
            let depth = p
                .queue_depth
                .iter()
                .map(|&(at, depth)| Json::Arr(vec![n(at), n(depth)]));
            let busiest = p.busiest_nodes(5).into_iter().map(|b| {
                Json::obj([
                    ("node", n(b.node.into())),
                    ("frames", n(b.frames)),
                    ("timers", n(b.timers)),
                    ("drops", n(b.drops)),
                    ("last_at_ps", n(b.last_at_ps)),
                ])
            });
            doc.push((
                "kernel_profile",
                Json::obj([
                    ("at_ps", n(p.at_ps)),
                    ("scheduler", Json::Str(p.scheduler.clone())),
                    ("frames", n(p.frames)),
                    ("timers", n(p.timers)),
                    ("drops", n(p.drops)),
                    ("schedules", n(p.schedules)),
                    ("max_queue_depth", n(p.max_queue_depth)),
                    ("queue_stride", n(p.queue_stride)),
                    ("sched_rebuilds", n(p.sched_rebuilds)),
                    ("sched_cascades", n(p.sched_cascades)),
                    ("sched_bucket_count", n(p.sched_bucket_count)),
                    ("sched_bucket_width_ps", n(p.sched_bucket_width_ps)),
                    ("arena_allocated", n(p.arena_allocated)),
                    ("arena_reused", n(p.arena_reused)),
                    ("arena_recycled", n(p.arena_recycled)),
                    (
                        "arena_reuse_ratio",
                        p.arena_reuse_ratio()
                            .map_or(Json::Null, |ratio| num_fixed(ratio, 6)),
                    ),
                    (
                        "wheel_occupancy",
                        Json::Arr(p.wheel_occupancy.iter().map(|&o| n(o)).collect()),
                    ),
                    ("queue_depth", Json::Arr(depth.collect())),
                    ("busiest_nodes", Json::Arr(busiest.collect())),
                ]),
            ));
        }
        if let Some(fa) = &self.fairness {
            doc.push((
                "fairness",
                Json::obj([
                    ("subscribers", n(fa.subscribers)),
                    ("events_measured", n(fa.events_measured)),
                    ("events_incomplete", n(fa.events_incomplete)),
                    ("late_deliveries", n(fa.late_deliveries)),
                    ("spread_p50_ps", n(fa.spread_p50.as_ps())),
                    ("spread_p99_ps", n(fa.spread_p99.as_ps())),
                    ("spread_max_ps", n(fa.spread_max.as_ps())),
                    ("pad_median_ps", n(fa.pad_median.as_ps())),
                ]),
            ));
        }
        Json::obj(doc)
    }
}

/// Picosecond totals are u128 to be overflow-proof, but JSON carries u64;
/// saturate (a run would need ~half a year of simulated hop time to clip).
fn clamp_u64(v: u128) -> u64 {
    v.min(u128::from(u64::MAX)) as u64
}

/// Schema tag emitted by [`DesignReport::to_json`].
pub const SCHEMA_V1: &str = "tn-report/v1";

fn latency(l: &LatencyStats) -> Json {
    Json::obj([
        ("count", num_u64(l.count as u64)),
        ("min_ps", num_u64(l.min.as_ps())),
        ("mean_ps", num_u64(l.mean.as_ps())),
        ("median_ps", num_u64(l.median.as_ps())),
        ("p99_ps", num_u64(l.p99.as_ps())),
        ("max_ps", num_u64(l.max.as_ps())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_samples() {
        let samples: Vec<u64> = (1..=100).map(|i| i * 1_000).collect(); // 1..100 ns
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, SimTime::from_ns(1));
        assert_eq!(s.median, SimTime::from_ns(50));
        assert_eq!(s.p99, SimTime::from_ns(99));
        assert_eq!(s.max, SimTime::from_ns(100));
        assert_eq!(s.mean, SimTime::from_ps(50_500));
    }

    #[test]
    fn empty_stats() {
        let s = LatencyStats::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, SimTime::ZERO);
        assert_eq!(LatencyStats::empty(), s);
    }

    #[test]
    fn display_renders() {
        let s = LatencyStats::from_samples(&[1_000_000]);
        let out = s.to_string();
        assert!(out.contains("median=1.000us"), "{out}");
    }

    /// The one parser reads the report back and it re-renders unchanged.
    fn assert_round_trips(j: &str) {
        let doc = tn_sim::json::parse(j).unwrap_or_else(|e| panic!("{e}: {j}"));
        assert_eq!(doc.render(), j);
    }

    fn sample_report() -> DesignReport {
        DesignReport {
            design: "test \"design\"".into(),
            feed_latency: LatencyStats::from_samples(&[1_000, 2_000]),
            reaction: LatencyStats::from_samples(&[5_000]),
            feed_messages: 10,
            records_evaluated: 8,
            records_discarded: 2,
            orders_sent: 3,
            acks: 3,
            fills: 1,
            frames_dropped: 4,
            software_path: SimTime::from_us(5),
            network_share: 0.5,
            trace_digest: 0xc9ef_3e6d_16da_def0,
            events_recorded: 123,
            trace: Vec::new(),
            recovery: RecoveryStats {
                gaps_seen: 2,
                records_lost: 1,
                records_recovered: 5,
                duplicates_absorbed: 7,
                retrans_requests: 3,
                gap_fill: LatencyStats::from_samples(&[9_000]),
                degraded_throughput: 1234.5,
            },
            telemetry: None,
            profile: None,
            flight_dump: None,
            reaction_samples: vec![5_000],
            fairness: None,
        }
    }

    fn sample_profile() -> KernelProfile {
        KernelProfile {
            at_ps: 8_000_000,
            scheduler: "binary-heap".into(),
            frames: 40,
            timers: 2,
            drops: 1,
            schedules: 43,
            max_queue_depth: 6,
            queue_depth: vec![(0, 1), (4_000_000, 6)],
            queue_stride: 1,
            per_node: vec![tn_sim::NodeProfile {
                node: 2,
                shard: 0,
                frames: 40,
                timers: 2,
                drops: 1,
                first_at_ps: 100,
                last_at_ps: 7_999_000,
            }],
            sched_rebuilds: 0,
            sched_cascades: 0,
            sched_bucket_count: 0,
            sched_bucket_width_ps: 0,
            wheel_occupancy: [0; 9],
            arena_allocated: 10,
            arena_reused: 30,
            arena_recycled: 35,
        }
    }

    fn sample_telemetry() -> Telemetry {
        Telemetry {
            at_ps: 9_000_000,
            hops: vec![HopKindStat {
                kind: "serialize".into(),
                count: 4,
                total_ps: 40_000,
                mean_ps: 10_000,
                max_ps: 12_000,
                share: 1.0,
            }],
            hottest_nodes: vec![NodeHopStat {
                node: 3,
                count: 4,
                total_ps: 40_000,
            }],
            counters: vec![
                ("kernel".into(), "deliver".into(), None, 7),
                ("switch".into(), "frames".into(), Some(3), 4),
            ],
        }
    }

    #[test]
    fn json_is_versioned_and_carries_recovery() {
        let j = sample_report().to_json();
        assert!(j.starts_with("{\"schema\":\"tn-report/v1\""), "{j}");
        assert!(j.contains("\"design\":\"test \\\"design\\\"\""), "{j}");
        assert!(j.contains("\"trace_digest\":\"c9ef3e6d16dadef0\""), "{j}");
        assert!(j.contains("\"recovery\":{\"gaps_seen\":2"), "{j}");
        assert!(j.contains("\"records_recovered\":5"), "{j}");
        assert!(j.contains("\"gap_fill\":{\"count\":1"), "{j}");
        assert!(j.contains("\"median_ps\":9000"), "{j}");
        assert!(j.contains("\"degraded_throughput\":1234.5"), "{j}");
        assert_round_trips(&j);
    }

    #[test]
    fn json_telemetry_is_absent_when_disabled_and_additive_when_on() {
        let mut r = sample_report();
        assert!(!r.to_json().contains("telemetry"));
        r.telemetry = Some(sample_telemetry());
        let j = r.to_json();
        assert!(j.contains("\"telemetry\":{\"at_ps\":9000000"), "{j}");
        assert!(
            j.contains("\"hops\":[{\"kind\":\"serialize\",\"count\":4,\"total_ps\":40000"),
            "{j}"
        );
        assert!(
            j.contains("\"hottest_nodes\":[{\"node\":3,\"count\":4,\"total_ps\":40000}]"),
            "{j}"
        );
        assert!(
            j.contains("{\"scope\":\"kernel\",\"name\":\"deliver\",\"node\":null,\"value\":7}"),
            "{j}"
        );
        assert!(
            j.contains("{\"scope\":\"switch\",\"name\":\"frames\",\"node\":3,\"value\":4}"),
            "{j}"
        );
        assert_round_trips(&j);
    }

    #[test]
    fn telemetry_from_snapshot_aggregates_hops_and_ranks_nodes() {
        let mut m = tn_sim::MetricsRegistry::new();
        m.observe("hop", "serialize", Some(1), 10_000);
        m.observe("hop", "serialize", Some(2), 30_000);
        m.observe("hop", "propagate", Some(2), 60_000);
        m.inc("kernel", "deliver", None);
        let t = Telemetry::from_snapshot(&m.snapshot(5_000));
        assert_eq!(t.at_ps, 5_000);
        assert_eq!(t.hops.len(), 2);
        let ser = t.hops.iter().find(|h| h.kind == "serialize").unwrap();
        assert_eq!((ser.count, ser.total_ps, ser.mean_ps), (2, 40_000, 20_000));
        assert_eq!(ser.max_ps, 30_000);
        assert!((ser.share - 0.4).abs() < 1e-9);
        // Node 2 carries 90 µs of hop time vs node 1's 10 µs.
        assert_eq!(t.hottest_nodes[0].node, 2);
        assert_eq!(t.hottest_nodes[0].total_ps, 90_000);
        assert_eq!(t.counter_total("kernel", "deliver"), 1);
    }

    #[test]
    fn json_kernel_profile_is_absent_when_disabled_and_additive_when_on() {
        let mut r = sample_report();
        assert!(!r.to_json().contains("kernel_profile"));
        r.profile = Some(sample_profile());
        let j = r.to_json();
        assert!(
            j.contains("\"kernel_profile\":{\"at_ps\":8000000,\"scheduler\":\"binary-heap\""),
            "{j}"
        );
        assert!(j.contains("\"frames\":40,\"timers\":2,\"drops\":1"), "{j}");
        assert!(j.contains("\"arena_reuse_ratio\":0.750000"), "{j}");
        assert!(j.contains("\"wheel_occupancy\":[0,0,0,0,0,0,0,0,0]"), "{j}");
        assert!(j.contains("\"queue_depth\":[[0,1],[4000000,6]]"), "{j}");
        assert!(
            j.contains("\"busiest_nodes\":[{\"node\":2,\"frames\":40"),
            "{j}"
        );
        assert_round_trips(&j);
    }

    #[test]
    fn summary_shows_kernel_profile_only_when_collected() {
        let mut r = sample_report();
        assert!(!r.summary().contains("kernel profile"));
        r.profile = Some(sample_profile());
        let s = r.summary();
        assert!(
            s.contains("kernel profile @ 8000000 ps (binary-heap)"),
            "{s}"
        );
        assert!(s.contains("75.0% reuse"), "{s}");
        assert!(
            s.contains("network_share=50.0%"),
            "summary tail survives the profile block: {s}"
        );
    }

    #[test]
    fn json_and_summary_fairness_section_is_absent_by_default_and_additive_when_on() {
        let mut r = sample_report();
        assert!(!r.to_json().contains("\"fairness\""));
        assert!(!r.summary().contains("fairness :"));
        r.fairness = Some(FairnessStats {
            subscribers: 8,
            events_measured: 40,
            events_incomplete: 2,
            late_deliveries: 3,
            spread_p50: SimTime::from_ns(100),
            spread_p99: SimTime::from_ns(900),
            spread_max: SimTime::from_us(1),
            pad_median: SimTime::from_us(30),
        });
        let j = r.to_json();
        assert!(
            j.contains("\"fairness\":{\"subscribers\":8,\"events_measured\":40"),
            "{j}"
        );
        assert!(
            j.contains("\"events_incomplete\":2,\"late_deliveries\":3"),
            "{j}"
        );
        assert!(
            j.contains(
                "\"spread_p50_ps\":100000,\"spread_p99_ps\":900000,\"spread_max_ps\":1000000"
            ),
            "{j}"
        );
        assert!(j.contains("\"pad_median_ps\":30000000"), "{j}");
        assert_round_trips(&j);
        let s = r.summary();
        assert!(
            s.contains("fairness : subs=8 events=40 incomplete=2 late=3"),
            "{s}"
        );
        assert!(s.contains("network_share=50.0%"), "tail survives: {s}");
    }

    #[test]
    fn fairness_stats_fold_a_window_and_pad_samples() {
        let mut w = FairnessWindow::new(2);
        // Event 1: spread 400 ps; event 2: spread 0; event 3: incomplete.
        w.observe(1, 1_000);
        w.observe(1, 1_400);
        w.observe(2, 2_000);
        w.observe(2, 2_000);
        w.observe(3, 5_000);
        let fa = FairnessStats::from_window(&w, 9, &[10, 20, 30]);
        assert_eq!(fa.subscribers, 2);
        assert_eq!(fa.events_measured, 2);
        assert_eq!(fa.events_incomplete, 1);
        assert_eq!(fa.late_deliveries, 9);
        assert_eq!(fa.spread_max, SimTime::from_ps(400));
        assert_eq!(fa.spread_p50, SimTime::from_ps(0));
        assert_eq!(fa.pad_median, SimTime::from_ps(20));
    }

    #[test]
    fn summary_shows_recovery_only_when_degraded() {
        let mut r = sample_report();
        assert!(r.summary().contains("recovery : gaps=2"), "{}", r.summary());
        r.recovery = RecoveryStats::none();
        assert!(!r.summary().contains("recovery"), "{}", r.summary());
    }
}
