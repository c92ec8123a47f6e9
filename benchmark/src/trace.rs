//! Spans around the benchmark's calls into each crate.
//!
//! A traced run wraps every call into a layer's public functions in a
//! span `{name, workload, start_ns, end_ns, parent, count}`, keeps them
//! in memory, and writes them as JSON lines when the run ends. `count`
//! is how many layer operations the span covers (a rig times a batch,
//! not single calls, so the clock reads stay off the measured path). A
//! layer's self time is its span's duration minus what its direct
//! children cover.
//!
//! Spans live in the benchmark's files only; spans inside the simulator
//! are a later change. An untraced run uses [`Tracer::off`], whose spans
//! are no-ops, so the gated metrics never pay for tracing.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer operations the span covers.
    pub count: u64,
}

struct Inner {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder for one process. Single-threaded by construction
/// (`RefCell`): the workloads are, and rigs that start worker threads
/// span the call that starts them, from outside.
pub struct Tracer {
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// A recording tracer; its clock starts now.
    pub fn on() -> Tracer {
        Tracer {
            inner: Some(RefCell::new(Inner {
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            })),
        }
    }

    /// Open a span covering one operation.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_n(name, 1)
    }

    /// Open a span covering `count` operations.
    pub fn span_n(&self, name: &'static str, count: u64) -> SpanGuard<'_> {
        let index = self.inner.as_ref().map(|cell| {
            let mut inner = cell.borrow_mut();
            let index = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.open.push(index);
            // Read the clock last, so bookkeeping is charged to the parent.
            let start_ns = inner.origin.elapsed().as_nanos() as u64;
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent,
                count,
            });
            index
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Every closed span so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |cell| cell.borrow().spans.clone())
    }

    /// `(self time ns, count)` of every span called `name`: a span's
    /// duration less what its direct children cover.
    pub fn per_span(&self, name: &str) -> Vec<(u64, u64)> {
        let Some(cell) = &self.inner else {
            return Vec::new();
        };
        let spans = &cell.borrow().spans;
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: u64 = spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                ((s.end_ns - s.start_ns).saturating_sub(children), s.count)
            })
            .collect()
    }

    /// Write the spans as JSON lines, `workload` stamped on each.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"workload\":\"{workload}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(index), Some(cell)) = (self.index, &self.tracer.inner) else {
            return;
        };
        let mut inner = cell.borrow_mut();
        // Read the clock first, so bookkeeping is charged to the parent.
        let end_ns = inner.origin.elapsed().as_nanos() as u64;
        inner.spans[index].end_ns = end_ns;
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost-first");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let tr = Tracer::off();
        drop(tr.span("sim.x"));
        assert!(tr.spans().is_empty());
        assert!(tr.per_span("sim.x").is_empty());
    }

    #[test]
    fn self_time_excludes_direct_children_and_divides_by_count() {
        let tr = Tracer::on();
        {
            let _outer = tr.span_n("lab.outer", 4);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = tr.span("lab.inner");
                std::thread::sleep(std::time::Duration::from_millis(6));
            }
        }
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let (outer_self, outer_count) = tr.per_span("lab.outer")[0];
        let (inner_self, _) = tr.per_span("lab.inner")[0];
        assert_eq!(outer_count, 4);
        assert!(inner_self >= 6_000_000);
        let outer_total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(outer_self, outer_total - inner_self);
        assert!(outer_self >= 2_000_000 && outer_self < inner_self);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_the_six_keys() {
        let tr = Tracer::on();
        {
            let _a = tr.span("wire.a");
            let _b = tr.span_n("wire.b", 7);
        }
        let mut buf = Vec::new();
        tr.write_jsonl("feed-recovery", &mut buf)
            .expect("in-memory write");
        let text = String::from_utf8(buf).expect("ascii");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"wire.a\",\"workload\":\"feed-recovery\""));
        assert!(lines[0].contains("\"parent\":null,\"count\":1}"));
        assert!(lines[1].contains("\"parent\":0,\"count\":7}"));
        for key in ["name", "workload", "start_ns", "end_ns", "parent", "count"] {
            assert!(lines[1].contains(&format!("\"{key}\":")), "{key}");
        }
    }
}
