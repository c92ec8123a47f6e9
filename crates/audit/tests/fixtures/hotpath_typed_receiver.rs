//! Fixture: a method call on a typed parameter resolves by its type.
//! `TraceWriter::target_node` shares its name with the hot helper and
//! allocates, but no hot code calls it: no finding.
pub enum EventKind {
    Deliver(u32),
    Timer(u32),
}

impl EventKind {
    fn target_node(&self) -> u32 {
        match self {
            EventKind::Deliver(n) | EventKind::Timer(n) => *n,
        }
    }
}

pub struct Kernel {
    last: u32,
}

impl Node for Kernel {
    fn on_frame(&mut self, kind: EventKind) {
        self.last = kind.target_node();
    }
}

pub struct TraceWriter {
    out: Vec<String>,
}

impl TraceWriter {
    pub fn target_node(&mut self, id: u32) {
        self.out.push(format!("node {id}"));
    }
}
