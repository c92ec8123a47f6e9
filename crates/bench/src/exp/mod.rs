//! The experiment registry: every table, figure and quantitative claim
//! the repository regenerates, one [`Experiment`] each, behind the single
//! `tn-exp` binary. An experiment writes its human-readable tables to the
//! writer it is given and returns its paper anchors as [`Check`]s — data
//! the caller can tabulate — instead of panicking on the first mismatch.

use std::fmt::Display;
use std::io::{self, Write};

use tn_sim::json::Json;

mod ab_failover;
mod cloud_fairness;
mod custom_transport;
mod design1_roundtrip;
mod design_comparison;
mod fig2a;
mod fig2b;
mod fig2c;
mod filter_placement;
mod fpga_filtering;
mod header_overhead;
mod latency_decomposition;
mod latency_trends;
mod loss_recovery;
mod mcast_exhaustion;
mod merge_bottleneck;
mod paper_scale;
mod placement;
mod table1;
mod timestamps;

/// One paper anchor: what the paper (or the experiment's EXPERIMENTS.md
/// section) states, tolerance included, against what this run measured.
#[derive(Debug)]
pub struct Check {
    pub what: &'static str,
    pub paper: String,
    pub measured: String,
    pub ok: bool,
}

impl Check {
    pub fn new(what: &'static str, paper: impl Display, measured: impl Display, ok: bool) -> Self {
        Check {
            what,
            paper: paper.to_string(),
            measured: measured.to_string(),
            ok,
        }
    }

    // The comparisons below print the bound they test, so the stated
    // tolerance cannot drift from the checked one.

    pub fn eq<T: PartialEq + Display>(what: &'static str, paper: T, measured: T) -> Self {
        Check::new(what, &paper, &measured, measured == paper)
    }

    pub fn above<T: PartialOrd + Display>(what: &'static str, bound: T, measured: T) -> Self {
        Check::new(what, format!("> {bound}"), &measured, measured > bound)
    }

    pub fn below<T: PartialOrd + Display>(what: &'static str, bound: T, measured: T) -> Self {
        Check::new(what, format!("< {bound}"), &measured, measured < bound)
    }

    pub fn within<T: PartialOrd + Display>(what: &'static str, lo: T, hi: T, measured: T) -> Self {
        let ok = lo <= measured && measured <= hi;
        Check::new(what, format!("{lo}..={hi}"), &measured, ok)
    }
}

/// Look `name` up in one of tn-lab's `(name, value)` lists: a plan's
/// params or an outcome's metrics.
fn lookup(pairs: &[(String, f64)], name: &str) -> Option<f64> {
    pairs.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
}

/// The `tn-exp/v1` document: one JSON object per run under `runs`.
fn exp_json(experiment: &str, runs: impl Iterator<Item = Json>) -> String {
    Json::obj([
        ("schema", Json::Str("tn-exp/v1".into())),
        ("experiment", Json::Str(experiment.into())),
        ("runs", Json::Arr(runs.collect())),
    ])
    .render()
}

/// What one experiment run hands back besides the text it wrote.
#[derive(Debug)]
pub struct Outcome {
    /// The machine-readable form (a JSON document or JSONL stream), for
    /// the experiments that have one.
    pub json: Option<String>,
    pub checks: Vec<Check>,
}

/// A registered experiment. `run` is deterministic: fixed seeds, full
/// size, no arguments.
pub struct Experiment {
    /// Kebab-case id, the `<id>` of `tn-exp run <id>`.
    pub id: &'static str,
    /// EXPERIMENTS.md section and the part of the paper it reproduces.
    pub paper_ref: &'static str,
    pub run: fn(&mut dyn Write) -> io::Result<Outcome>,
}

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        paper_ref: "E1 — Table 1: frame lengths from market data feeds",
        run: table1::run,
    },
    Experiment {
        id: "fig2a",
        paper_ref: "E2 — Figure 2(a): events per day, 2020–2024",
        run: fig2a::run,
    },
    Experiment {
        id: "fig2b",
        paper_ref: "E3 — Figure 2(b): single-stock options events per second",
        run: fig2b::run,
    },
    Experiment {
        id: "fig2c",
        paper_ref: "E4 — Figure 2(c): the busiest second in 100 µs windows",
        run: fig2c::run,
    },
    Experiment {
        id: "design1-roundtrip",
        paper_ref: "E5 — §4.1: Design 1 round trip, half the time in the network",
        run: design1_roundtrip::run,
    },
    Experiment {
        id: "design-comparison",
        paper_ref: "E6 — §4: the three designs head to head",
        run: design_comparison::run,
    },
    Experiment {
        id: "mcast-exhaustion",
        paper_ref: "E7 — §3 Multicast Trends: mroute-table exhaustion",
        run: mcast_exhaustion::run,
    },
    Experiment {
        id: "filter-placement",
        paper_ref: "E8 — §3: where market-data filtering should run",
        run: filter_placement::run,
    },
    Experiment {
        id: "header-overhead",
        paper_ref: "E9 — §3/§5: header overhead and custom transports",
        run: header_overhead::run,
    },
    Experiment {
        id: "merge-bottleneck",
        paper_ref: "E10 — §4.3: merged feeds overrun the NIC circuit",
        run: merge_bottleneck::run,
    },
    Experiment {
        id: "latency-trends",
        paper_ref: "E11 — §3: latency trends across hardware generations",
        run: latency_trends::run,
    },
    Experiment {
        id: "fpga-filtering",
        paper_ref: "E14 — §5 Hardware: merging safely by filtering in the fabric",
        run: fpga_filtering::run,
    },
    Experiment {
        id: "placement",
        paper_ref: "E15 — §4.1/§5: placement optimization",
        run: placement::run,
    },
    Experiment {
        id: "timestamps",
        paper_ref: "E16 — §2: sub-100 ps timestamp precision",
        run: timestamps::run,
    },
    Experiment {
        id: "custom-transport",
        paper_ref: "E17 — §5 Protocols: custom transport end to end",
        run: custom_transport::run,
    },
    Experiment {
        id: "paper-scale",
        paper_ref: "E18 — §4 scale target: ~1,000 servers",
        run: paper_scale::run,
    },
    Experiment {
        id: "loss-recovery",
        paper_ref: "E19 — §2/§4 reliability: gap recovery under feed loss",
        run: loss_recovery::run,
    },
    Experiment {
        id: "ab-failover",
        paper_ref: "E20 — §2 reliability: A/B failover through an outage",
        run: ab_failover::run,
    },
    Experiment {
        id: "latency-decomposition",
        paper_ref: "E21 — §2: per-hop latency decomposition",
        run: latency_decomposition::run,
    },
    Experiment {
        id: "cloud-fairness",
        paper_ref: "E22 — §4.2: the cloud fairness frontier",
        run: cloud_fairness::run,
    },
];
