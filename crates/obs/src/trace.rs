//! `tn-trace/v1` — versioned JSONL span/event export.
//!
//! One JSON object per line. The first line is always a `meta` record
//! carrying the schema tag; subsequent lines are `node` (id → name),
//! `span` (one provenance segment), `event` (point occurrence), and
//! `metric` (registry snapshot entry) records. The format is append-only
//! within a version: consumers must ignore unknown fields, and fields are
//! only ever added.
//!
//! Every line is a [`Json`] object rendered compact by the workspace's
//! one JSON module, and [`parse`] reads each line back with that module's
//! parser plus typed field getters that reject a value outside its
//! field's range instead of narrowing it.

use std::collections::BTreeMap;
use std::str::FromStr;

use crate::json::{self, num_u64, Json};
use crate::provenance::{HopSegment, Provenance, SegmentKind};
use crate::registry::{Snapshot, SnapshotValue};

/// Schema identifier carried by the leading `meta` record.
pub const SCHEMA: &str = "tn-trace/v1";

/// Builds a `tn-trace/v1` document line by line.
#[derive(Debug, Clone)]
pub struct TraceWriter {
    lines: Vec<String>,
}

impl TraceWriter {
    /// Start a document for `scenario` run with `seed`; writes the `meta`
    /// record.
    pub fn new(scenario: &str, seed: u64) -> TraceWriter {
        let mut w = TraceWriter { lines: Vec::new() };
        w.push_record(vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("type", Json::Str("meta".into())),
            ("scenario", Json::Str(scenario.into())),
            ("seed", num_u64(seed)),
        ]);
        w
    }

    fn push_record(&mut self, members: Vec<(&str, Json)>) {
        self.lines.push(Json::obj(members).render());
    }

    /// Record a node id → diagnostic name binding.
    pub fn node(&mut self, id: u32, name: &str) {
        self.push_record(vec![
            ("type", Json::Str("node".into())),
            ("id", num_u64(id.into())),
            ("name", Json::Str(name.into())),
        ]);
    }

    /// Record one provenance segment of frame `frame`.
    pub fn span(&mut self, frame: u64, seg: &HopSegment) {
        self.push_record(vec![
            ("type", Json::Str("span".into())),
            ("frame", num_u64(frame)),
            ("node", num_u64(seg.node.into())),
            ("port", num_u64(seg.port.into())),
            ("kind", Json::Str(seg.kind.name().into())),
            ("start_ps", num_u64(seg.start_ps)),
            ("end_ps", num_u64(seg.end_ps)),
        ]);
    }

    /// Record every segment of a frame's provenance.
    pub fn provenance(&mut self, frame: u64, p: &Provenance) {
        for seg in p.segments() {
            self.span(frame, seg);
        }
    }

    /// Record a point event at `at_ps` on `node`.
    pub fn event(&mut self, at_ps: u64, node: u32, name: &str, value: u64) {
        self.push_record(vec![
            ("type", Json::Str("event".into())),
            ("at_ps", num_u64(at_ps)),
            ("node", num_u64(node.into())),
            ("name", Json::Str(name.into())),
            ("value", num_u64(value)),
        ]);
    }

    /// Record every entry of a registry snapshot as `metric` records.
    pub fn snapshot(&mut self, snap: &Snapshot) {
        for e in &snap.entries {
            let mut members = vec![
                ("type", Json::Str("metric".into())),
                ("scope", Json::Str(e.scope.clone())),
                ("name", Json::Str(e.name.clone())),
                ("node", e.node.map_or(Json::Null, |n| num_u64(n.into()))),
            ];
            match &e.value {
                SnapshotValue::Counter(c) => members.extend([
                    ("kind", Json::Str("counter".into())),
                    ("value", num_u64(*c)),
                ]),
                SnapshotValue::Distribution {
                    count,
                    sum,
                    min,
                    max,
                    p50,
                    p99,
                } => members.extend([
                    ("kind", Json::Str("distribution".into())),
                    ("count", num_u64(*count)),
                    ("sum", Json::Num(sum.to_string())),
                    ("min", num_u64(*min)),
                    ("max", num_u64(*max)),
                    ("p50", num_u64(*p50)),
                    ("p99", num_u64(*p99)),
                ]),
            }
            self.push_record(members);
        }
    }

    /// Lines written so far (including the `meta` line).
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The document as newline-terminated JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// One `span` record: a provenance segment attributed to a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Frame the segment belongs to.
    pub frame: u64,
    /// The segment.
    pub seg: HopSegment,
}

/// One `event` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulated time, picoseconds.
    pub at_ps: u64,
    /// Node the event occurred on.
    pub node: u32,
    /// Event name.
    pub name: String,
    /// Event value.
    pub value: u64,
}

/// One `metric` record (counter / distribution).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Metric scope.
    pub scope: String,
    /// Metric name.
    pub name: String,
    /// Node attribution, if per-node.
    pub node: Option<u32>,
    /// The value.
    pub value: SnapshotValue,
}

/// A parsed `tn-trace/v1` document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDoc {
    /// Scenario name from the `meta` record.
    pub scenario: String,
    /// Seed from the `meta` record.
    pub seed: u64,
    /// Node id → diagnostic name.
    pub nodes: BTreeMap<u32, String>,
    /// All spans, in document order.
    pub spans: Vec<SpanRecord>,
    /// All events, in document order.
    pub events: Vec<EventRecord>,
    /// All metrics, in document order.
    pub metrics: Vec<MetricRecord>,
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The document is empty or the first line is not a `tn-trace/v1`
    /// meta record.
    BadHeader(String),
    /// A line is not one of the known record shapes.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        why: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(why) => write!(f, "bad tn-trace header: {why}"),
            ParseError::BadRecord { line, why } => write!(f, "line {line}: {why}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse one line as a JSON object.
fn parse_line(line: &str) -> Result<Json, String> {
    match json::parse(line)? {
        obj @ Json::Obj(_) => Ok(obj),
        _ => Err("expected a JSON object".into()),
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Integer field `key`, which must fit `T`: an out-of-range value is an
/// error naming the field, never a narrowed one.
fn int<T: FromStr>(obj: &Json, key: &str) -> Result<T, String> {
    match field(obj, key)? {
        Json::Num(tok) => tok.parse().map_err(|_| {
            format!(
                "field {key:?}: {tok} is not a {}",
                std::any::type_name::<T>()
            )
        }),
        other => Err(format!(
            "field {key:?}: expected an integer, found {other:?}"
        )),
    }
}

fn text<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    match field(obj, key)? {
        Json::Str(s) => Ok(s),
        other => Err(format!("field {key:?}: expected string, found {other:?}")),
    }
}

/// Parse a `tn-trace/v1` JSONL document. Strict on the known record
/// shapes; unknown record *types* and unknown fields are ignored, as the
/// versioning contract requires — but every line must be a well-formed
/// record. Malformed, truncated, or blank lines fail with a line-numbered
/// [`ParseError::BadRecord`] instead of being skipped, so a corrupted or
/// cut-off capture cannot silently parse as a shorter document.
pub fn parse(input: &str) -> Result<TraceDoc, ParseError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("empty document".into()))?;
    if header.trim().is_empty() {
        return Err(ParseError::BadHeader("blank first line".into()));
    }
    let obj = parse_line(header).map_err(ParseError::BadHeader)?;
    if text(&obj, "schema").map_err(ParseError::BadHeader)? != SCHEMA {
        return Err(ParseError::BadHeader(format!("schema is not {SCHEMA:?}")));
    }
    let mut doc = TraceDoc {
        scenario: text(&obj, "scenario")
            .map_err(ParseError::BadHeader)?
            .to_string(),
        seed: int(&obj, "seed").map_err(ParseError::BadHeader)?,
        ..TraceDoc::default()
    };
    for (idx, line) in lines {
        let lineno = idx + 1;
        let bad = |why: String| ParseError::BadRecord { line: lineno, why };
        if line.trim().is_empty() {
            return Err(bad(
                "blank line (tn-trace/v1 is one record per line)".to_string()
            ));
        }
        let obj = parse_line(line).map_err(bad)?;
        match text(&obj, "type").map_err(bad)? {
            "node" => {
                doc.nodes.insert(
                    int(&obj, "id").map_err(bad)?,
                    text(&obj, "name").map_err(bad)?.to_string(),
                );
            }
            "span" => {
                let kind_name = text(&obj, "kind").map_err(bad)?;
                let kind = SegmentKind::parse(kind_name)
                    .ok_or_else(|| bad(format!("unknown span kind {kind_name:?}")))?;
                doc.spans.push(SpanRecord {
                    frame: int(&obj, "frame").map_err(bad)?,
                    seg: HopSegment {
                        node: int(&obj, "node").map_err(bad)?,
                        port: int(&obj, "port").map_err(bad)?,
                        kind,
                        start_ps: int(&obj, "start_ps").map_err(bad)?,
                        end_ps: int(&obj, "end_ps").map_err(bad)?,
                    },
                });
            }
            "event" => {
                doc.events.push(EventRecord {
                    at_ps: int(&obj, "at_ps").map_err(bad)?,
                    node: int(&obj, "node").map_err(bad)?,
                    name: text(&obj, "name").map_err(bad)?.to_string(),
                    value: int(&obj, "value").map_err(bad)?,
                });
            }
            "metric" => {
                let node = match obj.get("node") {
                    Some(Json::Null) | None => None,
                    Some(_) => Some(int(&obj, "node").map_err(bad)?),
                };
                let value = match text(&obj, "kind").map_err(bad)? {
                    "counter" => SnapshotValue::Counter(int(&obj, "value").map_err(bad)?),
                    "distribution" => SnapshotValue::Distribution {
                        count: int(&obj, "count").map_err(bad)?,
                        sum: int(&obj, "sum").map_err(bad)?,
                        min: int(&obj, "min").map_err(bad)?,
                        max: int(&obj, "max").map_err(bad)?,
                        p50: int(&obj, "p50").map_err(bad)?,
                        p99: int(&obj, "p99").map_err(bad)?,
                    },
                    other => return Err(bad(format!("unknown metric kind {other:?}"))),
                };
                doc.metrics.push(MetricRecord {
                    scope: text(&obj, "scope").map_err(bad)?.to_string(),
                    name: text(&obj, "name").map_err(bad)?.to_string(),
                    node,
                    value,
                });
            }
            // Forward compatibility: skip record types this version does
            // not know.
            _ => {}
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_writer() -> TraceWriter {
        let mut w = TraceWriter::new("unit \"quoted\"", 42);
        w.node(0, "src");
        w.node(1, "sink\n");
        let mut p = Provenance::new(100);
        p.record_process(0, 0, 350);
        p.record_hop(0, 0, 10, 20, 30);
        w.provenance(7, &p);
        w.event(500, 1, "gap", 3);
        let mut r = MetricsRegistry::new();
        r.inc("kernel", "deliver", Some(1));
        r.observe("hop", "queue", Some(0), 10);
        w.snapshot(&r.snapshot(600));
        w
    }

    #[test]
    fn writer_emits_schema_header_first() {
        let w = sample_writer();
        assert!(w.lines()[0].contains("\"schema\":\"tn-trace/v1\""));
        assert!(w.to_jsonl().ends_with('\n'));
    }

    #[test]
    fn document_round_trips() {
        let w = sample_writer();
        let doc = parse(&w.to_jsonl()).unwrap();
        assert_eq!(doc.scenario, "unit \"quoted\"");
        assert_eq!(doc.seed, 42);
        assert_eq!(doc.nodes.len(), 2);
        assert_eq!(doc.nodes[&1], "sink\n");
        assert_eq!(doc.spans.len(), 4);
        assert_eq!(doc.spans[0].frame, 7);
        assert_eq!(doc.spans[0].seg.kind, SegmentKind::Process);
        assert_eq!(doc.spans[0].seg.start_ps, 100);
        assert_eq!(doc.events.len(), 1);
        assert_eq!(doc.metrics.len(), 2);
        // Re-serializing the parsed document yields an identical parse.
        let mut w2 = TraceWriter::new(&doc.scenario, doc.seed);
        for (id, name) in &doc.nodes {
            w2.node(*id, name);
        }
        for s in &doc.spans {
            w2.span(s.frame, &s.seg);
        }
        for e in &doc.events {
            w2.event(e.at_ps, e.node, &e.name, e.value);
        }
        let doc2 = parse(&w2.to_jsonl()).unwrap();
        assert_eq!(doc.spans, doc2.spans);
        assert_eq!(doc.events, doc2.events);
        assert_eq!(doc.nodes, doc2.nodes);
    }

    #[test]
    fn parser_rejects_wrong_schema_and_bad_records() {
        assert!(matches!(parse(""), Err(ParseError::BadHeader(_))));
        assert!(matches!(
            parse("{\"schema\":\"tn-trace/v2\",\"type\":\"meta\",\"scenario\":\"x\",\"seed\":1}"),
            Err(ParseError::BadHeader(_))
        ));
        let doc = "{\"schema\":\"tn-trace/v1\",\"type\":\"meta\",\"scenario\":\"x\",\"seed\":1}\n\
                   {\"type\":\"span\",\"frame\":1,\"node\":0,\"port\":0,\"kind\":\"warp\",\"start_ps\":0,\"end_ps\":1}\n";
        let err = parse(doc).unwrap_err();
        assert!(matches!(err, ParseError::BadRecord { line: 2, .. }));
        assert!(err.to_string().contains("warp"));
    }

    #[test]
    fn unknown_record_types_are_ignored() {
        let doc = "{\"schema\":\"tn-trace/v1\",\"type\":\"meta\",\"scenario\":\"x\",\"seed\":1}\n\
                   {\"type\":\"future-thing\",\"field\":123}\n";
        let parsed = parse(doc).unwrap();
        assert!(parsed.spans.is_empty());
        assert_eq!(parsed.seed, 1);
    }

    const HEADER: &str =
        "{\"schema\":\"tn-trace/v1\",\"type\":\"meta\",\"scenario\":\"x\",\"seed\":1}";

    #[test]
    fn blank_interior_lines_error_with_line_number() {
        let doc = format!("{HEADER}\n\n{{\"type\":\"event\",\"at_ps\":1,\"node\":0,\"name\":\"g\",\"value\":1}}\n");
        let err = parse(&doc).unwrap_err();
        assert!(
            matches!(err, ParseError::BadRecord { line: 2, .. }),
            "{err}"
        );
        assert!(err.to_string().starts_with("line 2:"), "{err}");

        // Whitespace-only lines count as blank, wherever they sit.
        let doc = format!("{HEADER}\n{{\"type\":\"node\",\"id\":0,\"name\":\"a\"}}\n   \t\n");
        let err = parse(&doc).unwrap_err();
        assert!(
            matches!(err, ParseError::BadRecord { line: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn blank_first_line_is_a_header_error() {
        let err = parse("\n").unwrap_err();
        assert!(matches!(err, ParseError::BadHeader(_)), "{err}");
    }

    #[test]
    fn truncated_record_errors_with_line_number() {
        // A capture cut off mid-object (no closing brace).
        let doc = format!("{HEADER}\n{{\"type\":\"span\",\"frame\":1,\"node\":0");
        let err = parse(&doc).unwrap_err();
        assert!(
            matches!(err, ParseError::BadRecord { line: 2, .. }),
            "{err}"
        );

        // Cut off inside a string literal.
        let doc = format!("{HEADER}\n{{\"type\":\"event\",\"name\":\"ga");
        let err = parse(&doc).unwrap_err();
        match &err {
            ParseError::BadRecord { line: 2, why } => {
                assert!(why.contains("unterminated string"), "{why}")
            }
            other => panic!("expected BadRecord line 2, got {other:?}"),
        }
    }

    #[test]
    fn malformed_values_error_instead_of_skipping() {
        // Garbage where a number belongs.
        let doc = format!("{HEADER}\n{{\"type\":\"event\",\"at_ps\":12x4,\"node\":0,\"name\":\"g\",\"value\":1}}\n");
        let err = parse(&doc).unwrap_err();
        assert!(
            matches!(err, ParseError::BadRecord { line: 2, .. }),
            "{err}"
        );

        // Trailing characters after the object.
        let doc = format!("{HEADER}\n{{\"type\":\"node\",\"id\":0,\"name\":\"a\"}}garbage\n");
        let err = parse(&doc).unwrap_err();
        match &err {
            ParseError::BadRecord { line: 2, why } => {
                assert!(why.contains("trailing characters"), "{why}")
            }
            other => panic!("expected BadRecord line 2, got {other:?}"),
        }

        // Not an object at all.
        let doc = format!("{HEADER}\n[1,2,3]\n");
        let err = parse(&doc).unwrap_err();
        assert!(
            matches!(err, ParseError::BadRecord { line: 2, .. }),
            "{err}"
        );

        // A known record type with a missing required field still errors.
        let doc = format!("{HEADER}\n{{\"type\":\"event\",\"at_ps\":1}}\n");
        let err = parse(&doc).unwrap_err();
        assert!(
            matches!(err, ParseError::BadRecord { line: 2, .. }),
            "{err}"
        );
    }

    /// One record per field the types narrow (`u32` node ids, `u16`
    /// ports): the largest value that fits parses, one past it is a
    /// line-numbered error naming the field.
    #[test]
    fn out_of_range_ids_and_ports_are_errors_not_narrowed() {
        let records = |id: u64, port: u64| {
            [
                ("id", format!("{{\"type\":\"node\",\"id\":{id},\"name\":\"a\"}}")),
                (
                    "node",
                    format!("{{\"type\":\"span\",\"frame\":1,\"node\":{id},\"port\":0,\"kind\":\"process\",\"start_ps\":0,\"end_ps\":1}}"),
                ),
                (
                    "port",
                    format!("{{\"type\":\"span\",\"frame\":1,\"node\":0,\"port\":{port},\"kind\":\"process\",\"start_ps\":0,\"end_ps\":1}}"),
                ),
                (
                    "node",
                    format!("{{\"type\":\"event\",\"at_ps\":1,\"node\":{id},\"name\":\"g\",\"value\":1}}"),
                ),
                (
                    "node",
                    format!("{{\"type\":\"metric\",\"scope\":\"s\",\"name\":\"n\",\"node\":{id},\"kind\":\"counter\",\"value\":1}}"),
                ),
            ]
        };
        for (_, record) in records(u64::from(u32::MAX), u64::from(u16::MAX)) {
            parse(&format!("{HEADER}\n{record}\n")).unwrap_or_else(|e| panic!("{record}: {e}"));
        }
        for (field, record) in records((1 << 32) + 1, 1 << 16) {
            match parse(&format!("{HEADER}\n{record}\n")) {
                Err(ParseError::BadRecord { line: 2, why }) => {
                    assert!(why.contains(&format!("{field:?}")), "{record}: {why}")
                }
                other => panic!("{record}: expected BadRecord on line 2, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_line_numbers_survive_earlier_valid_records() {
        let doc = format!(
            "{HEADER}\n{{\"type\":\"node\",\"id\":0,\"name\":\"a\"}}\n{{\"type\":\"node\",\"id\":1,\"name\":\"b\"}}\n{{\"type\":\"node\"\n"
        );
        let err = parse(&doc).unwrap_err();
        assert!(
            matches!(err, ParseError::BadRecord { line: 4, .. }),
            "{err}"
        );
    }
}
