//! The `Node` trait and identifiers.

use crate::context::{Context, TimerToken};
use crate::frame::Frame;

/// Index of a node within a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A port on a node. Ports are node-local; `(NodeId, PortId)` names one end
/// of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl PortId {
    /// Port 0, the conventional single port of host-like nodes.
    pub const ZERO: PortId = PortId(0);
}

/// A simulated device or application endpoint.
///
/// Implementations are switches, NICs/hosts, exchange front-ends, capture
/// taps, and the trading-firm application tier. All state lives inside the
/// implementor; all interaction with the world goes through [`Context`],
/// and a metrics snapshot reads a node's counters through [`Node::metrics`].
///
/// `Send` is a supertrait so a sharded run can move each shard's nodes
/// onto its own OS thread; node state is plain data in practice, so this
/// costs implementations nothing.
pub trait Node: Send {
    /// A frame has fully arrived on `port` (last bit received).
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame);

    /// A timer set via [`Context::set_timer`] has fired.
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let _ = (ctx, timer);
    }

    /// Report the counters this node keeps into a registry snapshot
    /// (see [`crate::Simulator::metrics_snapshot`]); `me` is this node's
    /// id. A device counts each fact once, in its own stats, and this
    /// view adds them under its registry keys; the default reports
    /// nothing. Snapshots read it, so it sees only `&self` and can change
    /// nothing about the run.
    fn metrics(&self, me: NodeId, into: &mut tn_obs::MetricsRegistry) {
        let _ = (me, into);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(NodeId(1));
        s.insert(NodeId(1));
        assert_eq!(s.len(), 1);
        assert!(PortId(0) < PortId(3));
        assert_eq!(PortId::ZERO, PortId(0));
    }
}
