//! `tn-flight/v1` — timeline export of provenance traces.
//!
//! Two renderings of a parsed [`TraceDoc`]:
//!
//! * [`chrome_trace`] — Chrome trace-event JSON ("JSON Object Format"),
//!   loadable in Perfetto (`ui.perfetto.dev`) and `chrome://tracing`.
//!   Nodes become threads of one synthetic process; every provenance
//!   span becomes a complete (`"X"`) event; point events become instant
//!   (`"i"`) events. Timestamps are microseconds as the format requires,
//!   rendered as exact `ps/1e6` decimals so no precision is lost and the
//!   output is byte-stable.
//! * [`folded_stacks`] — flamegraph-ready folded stacks: one
//!   `node;kind weight` line per (node, segment-kind) pair, weights in
//!   picoseconds, aggregated and ordered via `BTreeMap` so repeated runs
//!   over the same document are byte-identical.
//!
//! Every event is a [`Json`] object rendered by the workspace's one JSON
//! module; the schema marker is registered with tn-audit.

use std::collections::BTreeMap;

use crate::json::{num_u64, Json};
use crate::trace::TraceDoc;

/// Schema identifier carried by the leading line of the Chrome trace
/// export.
pub const FLIGHT_SCHEMA: &str = "tn-flight/v1";

/// Picoseconds rendered as an exact microsecond decimal (`ts`/`dur`
/// fields are microseconds in the trace-event format).
fn us(ps: u64) -> Json {
    Json::Num(format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000))
}

fn node_name(doc: &TraceDoc, id: u32) -> String {
    match doc.nodes.get(&id) {
        Some(name) => name.clone(),
        None => format!("node{id}"),
    }
}

/// Render a trace document as Chrome trace-event JSON.
///
/// The first line carries the `tn-flight/v1` schema marker; the whole
/// output is one JSON object with a `traceEvents` array, one event per
/// line. Deterministic: document order for spans/events, `BTreeMap`
/// order for thread names.
pub fn chrome_trace(doc: &TraceDoc) -> String {
    let text = |s: &str| Json::Str(s.into());
    let mut events = vec![Json::obj([
        ("ph", text("M")),
        ("pid", num_u64(1)),
        ("name", text("process_name")),
        ("args", Json::obj([("name", text("tn-sim"))])),
    ])];
    // Thread (= node) names, plus any node that appears only in spans or
    // events without a name record.
    let mut tids: BTreeMap<u32, String> = doc.nodes.clone();
    for s in &doc.spans {
        tids.entry(s.seg.node)
            .or_insert_with(|| format!("node{}", s.seg.node));
    }
    for e in &doc.events {
        tids.entry(e.node)
            .or_insert_with(|| format!("node{}", e.node));
    }
    for (id, name) in &tids {
        events.push(Json::obj([
            ("ph", text("M")),
            ("pid", num_u64(1)),
            ("tid", num_u64((*id).into())),
            ("name", text("thread_name")),
            ("args", Json::obj([("name", text(name))])),
        ]));
    }
    for s in &doc.spans {
        events.push(Json::obj([
            ("ph", text("X")),
            ("pid", num_u64(1)),
            ("tid", num_u64(s.seg.node.into())),
            ("cat", text("provenance")),
            ("name", text(s.seg.kind.name())),
            ("ts", us(s.seg.start_ps)),
            ("dur", us(s.seg.duration_ps())),
            (
                "args",
                Json::obj([
                    ("frame", num_u64(s.frame)),
                    ("port", num_u64(s.seg.port.into())),
                ]),
            ),
        ]));
    }
    for e in &doc.events {
        events.push(Json::obj([
            ("ph", text("i")),
            ("pid", num_u64(1)),
            ("tid", num_u64(e.node.into())),
            ("name", text(&e.name)),
            ("ts", us(e.at_ps)),
            ("s", text("t")),
            ("args", Json::obj([("value", num_u64(e.value))])),
        ]));
    }
    let mut out = Json::obj([
        ("schema", text(FLIGHT_SCHEMA)),
        ("scenario", text(&doc.scenario)),
        ("seed", num_u64(doc.seed)),
        ("displayTimeUnit", text("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
    .render_listed();
    out.push('\n');
    out
}

/// Render a trace document as folded stacks (`node;kind weight`), one
/// line per (node, segment-kind) pair with the summed segment duration
/// in picoseconds as the weight — ready for any flamegraph renderer.
///
/// Aggregation and ordering go through a `BTreeMap`, so the output is
/// byte-stable for a given document. Semicolons in node names are
/// replaced with `:` to keep the frame separator unambiguous.
pub fn folded_stacks(doc: &TraceDoc) -> String {
    let mut weights: BTreeMap<(String, &'static str), u128> = BTreeMap::new();
    for s in &doc.spans {
        let name = node_name(doc, s.seg.node).replace(';', ":");
        *weights.entry((name, s.seg.kind.name())).or_insert(0) += u128::from(s.seg.duration_ps());
    }
    let mut out = String::new();
    for ((node, kind), w) in &weights {
        out.push_str(&format!("{node};{kind} {w}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Provenance;
    use crate::trace::{parse, TraceWriter};

    fn sample_doc() -> TraceDoc {
        let mut w = TraceWriter::new("timeline-unit", 7);
        w.node(0, "src");
        w.node(1, "sw;core"); // semicolon exercises folded escaping
        let mut p = Provenance::new(1_000);
        p.record_process(0, 0, 1_500);
        p.record_hop(0, 0, 100, 200, 300);
        w.provenance(11, &p);
        let mut q = Provenance::new(2_000);
        q.record_process(1, 2, 2_250);
        w.provenance(12, &q);
        w.event(2_500, 1, "gap", 3);
        parse(&w.to_jsonl()).expect("sample doc parses")
    }

    #[test]
    fn chrome_trace_leads_with_schema_and_parses() {
        let doc = sample_doc();
        let out = chrome_trace(&doc);
        let first = out.lines().next().expect("non-empty");
        assert!(first.contains("\"schema\":\"tn-flight/v1\""), "{first}");
        assert!(first.contains("\"traceEvents\":["));
        let parsed = crate::json::parse(&out).expect("valid JSON");
        assert_eq!(parsed.render_listed() + "\n", out);
        // One X event per span, one i event per point event, thread
        // metadata for both named nodes + the process name record.
        assert_eq!(out.matches("\"ph\":\"X\"").count(), doc.spans.len());
        assert_eq!(out.matches("\"ph\":\"i\"").count(), doc.events.len());
        assert_eq!(out.matches("\"thread_name\"").count(), 2);
        // Exact microsecond decimals: 1000 ps = 0.001000 us.
        assert!(out.contains("\"ts\":0.001000"), "{out}");
    }

    #[test]
    fn chrome_trace_names_unknown_nodes() {
        let mut w = TraceWriter::new("x", 1);
        let mut p = Provenance::new(0);
        p.record_process(9, 0, 10);
        w.provenance(1, &p);
        let out = chrome_trace(&parse(&w.to_jsonl()).unwrap());
        assert!(out.contains("\"name\":\"node9\""), "{out}");
    }

    #[test]
    fn folded_stacks_aggregate_and_stay_stable() {
        let doc = sample_doc();
        let a = folded_stacks(&doc);
        let b = folded_stacks(&doc);
        assert_eq!(a, b, "byte-stable across calls");
        // src processed 500 ps (1000..1500).
        assert!(a.contains("src;process 500\n"), "{a}");
        // Semicolon in a node name must not create a fake stack frame.
        assert!(a.contains("sw:core;process 250\n"), "{a}");
        // Every line is "frames weight".
        for line in a.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weight separator");
            assert!(!stack.is_empty());
            assert!(weight.parse::<u128>().is_ok(), "{line}");
        }
    }

    #[test]
    fn folded_stacks_sum_matches_span_total() {
        let doc = sample_doc();
        let folded = folded_stacks(&doc);
        let total: u128 = folded
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(_, w)| w.parse::<u128>().unwrap())
            .sum();
        let spans: u128 = doc
            .spans
            .iter()
            .map(|s| u128::from(s.seg.duration_ps()))
            .sum();
        assert_eq!(total, spans);
    }
}
