//! The API surface a node sees while handling an event.

use tn_obs::{FlightKind, FlightRecord};

use crate::frame::{Frame, FrameBuilder};
use crate::kernel::Simulator;
use crate::node::{NodeId, PortId};
use crate::sched::EventKind;
use crate::time::SimTime;

/// Opaque user-defined timer identifier; the node that set the timer
/// decides what the value means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Handle through which a node interacts with the simulation while
/// processing an event.
///
/// Every request takes effect at the call: a send crosses the link and
/// a timer or local delivery joins the event queue before the method
/// returns, so seqs and kernel coins are drawn in call order. The
/// kernel lends the node out of its slot for the callback, so handlers
/// can freely mutate their own fields while calling context methods.
pub struct Context<'a> {
    pub(crate) sim: &'a mut Simulator,
    pub(crate) me: NodeId,
    /// The frame the firing timer carried, until the node takes it.
    pub(crate) carried: Option<(PortId, Frame)>,
}

impl Context<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// Transmit `frame` out of `port`. If the port is unconnected the frame
    /// is counted as dropped by the kernel.
    #[inline]
    pub fn send(&mut self, port: PortId, frame: Frame) {
        self.sim.transmit(self.me, port, frame);
    }

    /// Start building a new frame born now: the unified arena-first
    /// constructor. The payload buffer is drawn from the kernel's
    /// [`FrameArena`](crate::FrameArena) (in steady state a recycled
    /// buffer — no allocation); fill it with `FrameBuilder::fill` /
    /// `FrameBuilder::copy_from` / `FrameBuilder::zeroed` and finish
    /// with `FrameBuilder::build`.
    pub fn frame(&mut self) -> FrameBuilder<'_> {
        self.sim.start_frame(self.me.0)
    }

    /// Duplicate a frame for replication (switch fan-out, A/B feed
    /// copies): the payload buffer comes from the
    /// [`FrameArena`](crate::FrameArena), while identity, birth time, and
    /// metadata are preserved — replicas keep the original
    /// [`FrameId`](crate::FrameId) so capture taps can correlate them.
    ///
    /// Inline, so that a clone handed straight to a send or a timer
    /// reaches the event queue in registers, not through a stack copy.
    #[inline]
    pub fn clone_frame(&mut self, frame: &Frame) -> Frame {
        let mut bytes = self.sim.arena.take();
        bytes.extend_from_slice(&frame.bytes);
        Frame {
            bytes,
            id: frame.id,
            born: frame.born,
            meta: frame.meta.clone(),
        }
    }

    /// Return a finished frame's payload buffer to the
    /// [`FrameArena`](crate::FrameArena). Terminal consumers (sinks,
    /// handlers that fully decode and discard) should prefer this over
    /// dropping the frame, closing the recycling loop that keeps the hot
    /// path allocation-free.
    #[inline]
    pub fn recycle(&mut self, frame: Frame) {
        self.sim.arena.give(frame.bytes);
    }

    /// Arrange for [`crate::Node::on_timer`] to be called on this node
    /// after `delay`.
    #[inline]
    pub fn set_timer(&mut self, delay: SimTime, token: TimerToken) {
        self.timer(delay, token, PortId(0), None);
    }

    /// [`Context::set_timer`] with `frame` riding the timer event: when it
    /// fires, [`Context::take_carried`] returns `(port, frame)` inside this
    /// node's `on_timer`. A frame that waits out a service time needs no
    /// buffer of the node's own, and timers fire in `(time, seq)` order,
    /// so frames set for non-decreasing times come back first in, first
    /// out. The node must take the frame: one left untaken is a bug,
    /// caught by a debug assertion (release builds recycle its buffer).
    #[inline]
    pub fn set_timer_carrying(
        &mut self,
        delay: SimTime,
        token: TimerToken,
        port: PortId,
        frame: Frame,
    ) {
        self.timer(delay, token, port, Some(frame));
    }

    /// Queue this node's timer `delay` from now, `frame` riding it.
    #[inline(always)]
    fn timer(&mut self, delay: SimTime, token: TimerToken, port: PortId, frame: Option<Frame>) {
        let node = self.me;
        let kind = EventKind::Timer {
            node,
            token,
            port,
            frame,
        };
        self.sim.schedule(self.sim.now + delay, kind);
    }

    /// The `(port, frame)` the firing timer carried (see
    /// [`Context::set_timer_carrying`]); `None` for a bare timer, outside
    /// `on_timer`, or once taken.
    #[inline]
    pub fn take_carried(&mut self) -> Option<(PortId, Frame)> {
        self.carried.take()
    }

    /// Deliver `frame` to another node after `delay`, without traversing a
    /// link. Models intra-host transfers (shared memory, PCIe) whose cost
    /// the caller accounts for explicitly in `delay`.
    #[inline]
    pub fn deliver_local(&mut self, dst: NodeId, port: PortId, delay: SimTime, frame: Frame) {
        self.sim
            .schedule_frame(self.sim.now + delay, dst, port, frame);
    }

    /// Drop an application-level note into the kernel's flight recorder
    /// (no-op when the ring is off). `kind` should be a semantically
    /// matching [`FlightKind`] — e.g. [`FlightKind::RecoveryGap`] when a
    /// receiver detects a sequence gap — with `a` / `b` carrying whatever
    /// two details the application wants in the crash dump. Pure
    /// side-state; cannot affect scheduling or the digest.
    #[inline]
    pub fn flight_note(&mut self, kind: FlightKind, a: u64, b: u64) {
        self.sim.flight.record(FlightRecord {
            at_ps: self.sim.now.as_ps(),
            kind,
            node: self.me.0,
            shard: 0,
            a,
            b,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;
    use crate::link::IdealLink;
    use crate::node::Node;
    use crate::trace::TraceKind;

    /// Recycles whatever reaches it.
    struct Sink;

    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _: PortId, frame: Frame) {
            ctx.recycle(frame);
        }
    }

    /// Node 1 wired to node 0 by a 1 ns wire out of port 0, the clock at
    /// 5 ns.
    fn two_nodes() -> Simulator {
        let mut sim = Simulator::new(1);
        let (a, b) = (sim.add_node("a", Sink), sim.add_node("b", Sink));
        let wire = IdealLink::new(SimTime::from_ns(1));
        sim.install_link(b, PortId(0), a, PortId(0), Box::new(wire));
        sim.run_until(SimTime::from_ns(5));
        sim
    }

    /// The context node 1 would get in a dispatch at the current time.
    fn ctx(sim: &mut Simulator) -> Context<'_> {
        Context {
            sim,
            me: NodeId(1),
            carried: None,
        }
    }

    #[test]
    fn new_frames_get_distinct_ids_and_birth_time() {
        let mut sim = two_nodes();
        sim.next_frame_id = 10;
        let mut c = ctx(&mut sim);
        let a = c.frame().copy_from(&[0]).build();
        let b = c.frame().copy_from(&[1]).build();
        assert_eq!(a.id, FrameId(10));
        assert_eq!(b.id, FrameId(11));
        assert_eq!(a.born, SimTime::from_ns(5));
        assert_eq!(sim.next_frame_id, 12);
    }

    #[test]
    fn requests_reach_the_queue_at_the_call() {
        let mut sim = two_nodes();
        let mut c = ctx(&mut sim);
        let f = c.frame().copy_from(&[0]).build();
        let g = c.clone_frame(&f);
        c.send(PortId(0), f);
        assert_eq!(c.sim.pending_events(), 1, "the link delivery is queued");
        c.set_timer(SimTime::from_us(1), TimerToken(9));
        assert_eq!(c.sim.pending_events(), 2);
        c.deliver_local(NodeId(0), PortId(2), SimTime::from_ns(1), g);
        assert_eq!(c.sim.pending_events(), 3);
        let h = c.frame().zeroed(8).build();
        c.send(PortId(7), h);
        assert_eq!(c.sim.stats().frames_unrouted, 1, "counted at the call");
        assert_eq!(sim.seq, 3, "one seq per push, none for the unrouted send");
        sim.run();
        assert_eq!(sim.stats().frames_delivered, 2);
        assert_eq!(sim.stats().timers_fired, 1);
    }

    #[test]
    fn same_instant_requests_pop_in_call_order() {
        /// On token 1: a local delivery, a timer and a send, all due 1 ns
        /// later, in that order.
        struct Mixed;
        impl Node for Mixed {
            fn on_frame(&mut self, ctx: &mut Context<'_>, _: PortId, frame: Frame) {
                ctx.recycle(frame);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
                if token != TimerToken(1) {
                    return;
                }
                let d = SimTime::from_ns(1);
                let f = ctx.frame().zeroed(8).build();
                ctx.deliver_local(NodeId(0), PortId(3), d, f);
                ctx.set_timer(d, TimerToken(2));
                let g = ctx.frame().zeroed(8).build();
                ctx.send(PortId(0), g);
            }
        }
        let mut sim = Simulator::new(1);
        sim.trace.set_enabled(true);
        let a = sim.add_node("a", Sink);
        let b = sim.add_node("b", Mixed);
        let wire = IdealLink::new(SimTime::from_ns(1));
        sim.install_link(b, PortId(0), a, PortId(0), Box::new(wire));
        sim.schedule_timer(SimTime::ZERO, b, TimerToken(1));
        sim.run();
        let popped: Vec<(u64, TraceKind, u32, u16)> = sim
            .trace
            .events()
            .iter()
            .map(|e| (e.at.as_ps(), e.kind, e.node.0, e.port.0))
            .collect();
        assert_eq!(
            popped,
            [
                (0, TraceKind::Timer, 1, u16::MAX),
                (1_000, TraceKind::Deliver, 0, 3),
                (1_000, TraceKind::Timer, 1, u16::MAX),
                (1_000, TraceKind::Deliver, 0, 0),
            ]
        );
    }

    #[test]
    fn pooled_frames_recycle_without_aliasing_or_id_reuse() {
        let mut sim = two_nodes();
        let mut c = ctx(&mut sim);
        let a = c.frame().zeroed(64).build();
        let b = c.frame().copy_from(&[7, 7, 7]).build();
        assert_eq!(a.bytes, vec![0u8; 64]);
        assert_eq!(b.bytes, vec![7, 7, 7]);
        // Live frames never alias: the arena hands each out a distinct
        // buffer, so writing one cannot disturb the other.
        assert_ne!(a.bytes.as_ptr(), b.bytes.as_ptr());
        let a_id = a.id;
        c.recycle(a);
        // Recycled storage comes back zero-length-reset and re-filled…
        let reused = c.frame().zeroed(16).build();
        assert_eq!(reused.bytes, vec![0u8; 16]);
        // …under a fresh id: frame-id monotonicity survives recycling.
        assert!(reused.id > a_id && reused.id > b.id);
        assert_eq!(sim.arena.stats().reused, 1);
    }

    #[test]
    fn flight_notes_and_frame_builds_reach_the_ring() {
        let mut sim = two_nodes();
        sim.set_flight_capacity(8);
        let mut c = ctx(&mut sim);
        let f = c.frame().zeroed(16).build();
        c.recycle(f);
        let _reused = c.frame().zeroed(8).build();
        c.flight_note(FlightKind::RecoveryGap, 100, 3);
        let recs: Vec<FlightRecord> = sim.flight().records().copied().collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].kind, FlightKind::FrameAlloc);
        assert_eq!(recs[1].kind, FlightKind::FrameReuse);
        assert_eq!(recs[2].kind, FlightKind::RecoveryGap);
        assert_eq!(recs[2].node, 1, "note carries the handling node");
        assert_eq!((recs[2].a, recs[2].b), (100, 3));
    }
}
