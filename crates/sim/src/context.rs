//! The API surface a node sees while handling an event.

use rand::rngs::SmallRng;

use tn_obs::{FlightKind, FlightRecord, FlightRecorder};

use crate::frame::{Frame, FrameArena, FrameBuilder};
use crate::node::{NodeId, PortId};
use crate::time::SimTime;

/// Opaque user-defined timer identifier; the node that set the timer
/// decides what the value means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Deferred actions a node requests while handling an event; the kernel
/// applies them after the handler returns.
#[derive(Debug)]
pub(crate) enum Action {
    Send {
        port: PortId,
        frame: Frame,
    },
    /// `frame`, when present, rides the timer event and is handed back
    /// through [`Context::take_carried`] when it fires, to go out `port`.
    Timer {
        delay: SimTime,
        token: TimerToken,
        port: PortId,
        frame: Option<Frame>,
    },
    /// Deliver a frame to another node directly, bypassing links. Used for
    /// intra-host delivery between co-resident components with an explicit
    /// modeled delay (e.g. strategy process to kernel-bypass NIC queue).
    DeliverLocal {
        dst: NodeId,
        port: PortId,
        delay: SimTime,
        frame: Frame,
    },
}

/// Handle through which a node interacts with the simulation while
/// processing an event.
///
/// Borrow-wise, the context owns scratch state disjoint from the node
/// itself, so handlers can freely mutate their own fields while calling
/// context methods.
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) me: NodeId,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) next_frame_id: &'a mut u64,
    pub(crate) arena: &'a mut FrameArena,
    pub(crate) flight: &'a mut FlightRecorder,
    /// The frame the firing timer carried, until the node takes it.
    pub(crate) carried: Option<(PortId, Frame)>,
}

impl Context<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node handling this event.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Transmit `frame` out of `port`. If the port is unconnected the frame
    /// is counted as dropped by the kernel.
    #[inline]
    pub fn send(&mut self, port: PortId, frame: Frame) {
        self.actions.push(Action::Send { port, frame });
    }

    /// Start building a new frame born now: the unified arena-first
    /// constructor. The payload buffer is drawn from the kernel's
    /// [`FrameArena`] (in steady state a recycled buffer — no
    /// allocation); fill it with [`FrameBuilder::fill`] /
    /// [`FrameBuilder::copy_from`] / [`FrameBuilder::zeroed`] and finish
    /// with [`FrameBuilder::build`].
    pub fn frame(&mut self) -> FrameBuilder<'_> {
        start_frame(
            self.flight,
            self.arena,
            self.next_frame_id,
            self.now,
            self.me.0,
        )
    }

    /// Duplicate a frame for replication (switch fan-out, A/B feed
    /// copies): the payload buffer comes from the [`FrameArena`], while
    /// identity, birth time, and metadata are preserved — replicas keep
    /// the original [`FrameId`] so capture taps can correlate them.
    pub fn clone_frame(&mut self, frame: &Frame) -> Frame {
        let mut bytes = self.arena.take();
        bytes.extend_from_slice(&frame.bytes);
        Frame {
            bytes,
            id: frame.id,
            born: frame.born,
            meta: frame.meta.clone(),
        }
    }

    /// Return a finished frame's payload buffer to the [`FrameArena`].
    /// Terminal consumers (sinks, handlers that fully decode and discard)
    /// should prefer this over dropping the frame, closing the recycling
    /// loop that keeps the hot path allocation-free.
    #[inline]
    pub fn recycle(&mut self, frame: Frame) {
        self.arena.give(frame.bytes);
    }

    /// Arrange for [`crate::Node::on_timer`] to be called on this node
    /// after `delay`.
    #[inline]
    pub fn set_timer(&mut self, delay: SimTime, token: TimerToken) {
        self.actions.push(Action::Timer {
            delay,
            token,
            port: PortId(0),
            frame: None,
        });
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
        self.actions.push(Action::Timer {
            delay,
            token,
            port,
            frame: Some(frame),
        });
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
        self.actions.push(Action::DeliverLocal {
            dst,
            port,
            delay,
            frame,
        });
    }

    /// Access the scenario PRNG for richer sampling.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Drop an application-level note into the kernel's flight recorder
    /// (no-op when the ring is off). `kind` should be a semantically
    /// matching [`FlightKind`] — e.g. [`FlightKind::RecoveryGap`] when a
    /// receiver detects a sequence gap — with `a` / `b` carrying whatever
    /// two details the application wants in the crash dump. Pure
    /// side-state; cannot affect scheduling or the digest.
    #[inline]
    pub fn flight_note(&mut self, kind: FlightKind, a: u64, b: u64) {
        self.flight.record(FlightRecord {
            at_ps: self.now.as_ps(),
            kind,
            node: self.me.0,
            shard: 0,
            a,
            b,
        });
    }
}

/// Start a frame born at `now`, on behalf of `node` (`u32::MAX` for the
/// scenario driver): the one frame constructor behind [`Context::frame`]
/// and `Simulator::frame`, so the flight ring's note of whether the
/// payload buffer is fresh or recycled is made in one place.
pub(crate) fn start_frame<'a>(
    flight: &mut FlightRecorder,
    arena: &mut FrameArena,
    next_frame_id: &'a mut u64,
    now: SimTime,
    node: u32,
) -> FrameBuilder<'a> {
    let kind = if arena.will_reuse() {
        FlightKind::FrameReuse
    } else {
        FlightKind::FrameAlloc
    };
    flight.record(FlightRecord {
        at_ps: now.as_ps(),
        kind,
        node,
        shard: 0,
        a: *next_frame_id,
        b: 0,
    });
    FrameBuilder::start(arena, next_frame_id, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;
    use rand::SeedableRng;

    fn ctx<'a>(
        actions: &'a mut Vec<Action>,
        rng: &'a mut SmallRng,
        next: &'a mut u64,
        arena: &'a mut FrameArena,
        flight: &'a mut FlightRecorder,
    ) -> Context<'a> {
        Context {
            now: SimTime::from_ns(5),
            me: NodeId(3),
            actions,
            rng,
            next_frame_id: next,
            arena,
            flight,
            carried: None,
        }
    }

    #[test]
    fn new_frames_get_distinct_ids_and_birth_time() {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next = 10;
        let mut arena = FrameArena::new();
        let mut flight = FlightRecorder::disabled();
        let mut c = ctx(&mut actions, &mut rng, &mut next, &mut arena, &mut flight);
        let a = c.frame().copy_from(&[0]).build();
        let b = c.frame().copy_from(&[1]).build();
        assert_eq!(a.id, FrameId(10));
        assert_eq!(b.id, FrameId(11));
        assert_eq!(a.born, SimTime::from_ns(5));
        assert_eq!(next, 12);
    }

    #[test]
    fn actions_are_recorded_in_order() {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next = 0;
        let mut arena = FrameArena::new();
        let mut flight = FlightRecorder::disabled();
        let mut c = ctx(&mut actions, &mut rng, &mut next, &mut arena, &mut flight);
        let f = c.frame().copy_from(&[0]).build();
        c.send(PortId(2), f.clone());
        c.set_timer(SimTime::from_us(1), TimerToken(9));
        c.deliver_local(NodeId(1), PortId(0), SimTime::from_ns(1), f);
        assert_eq!(actions.len(), 3);
        assert!(matches!(
            actions[0],
            Action::Send {
                port: PortId(2),
                ..
            }
        ));
        assert!(matches!(
            actions[1],
            Action::Timer {
                token: TimerToken(9),
                ..
            }
        ));
        assert!(matches!(
            actions[2],
            Action::DeliverLocal { dst: NodeId(1), .. }
        ));
    }

    #[test]
    fn pooled_frames_recycle_without_aliasing_or_id_reuse() {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next = 0;
        let mut arena = FrameArena::new();
        let mut flight = FlightRecorder::disabled();
        let mut c = ctx(&mut actions, &mut rng, &mut next, &mut arena, &mut flight);
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
        assert_eq!(c.arena.stats().reused, 1);
    }

    #[test]
    fn flight_notes_and_frame_builds_reach_the_ring() {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut next = 0;
        let mut arena = FrameArena::new();
        let mut flight = FlightRecorder::with_capacity(8);
        let mut c = ctx(&mut actions, &mut rng, &mut next, &mut arena, &mut flight);
        let f = c.frame().zeroed(16).build();
        c.recycle(f);
        let _reused = c.frame().zeroed(8).build();
        c.flight_note(FlightKind::RecoveryGap, 100, 3);
        let recs: Vec<FlightRecord> = flight.records().copied().collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].kind, FlightKind::FrameAlloc);
        assert_eq!(recs[1].kind, FlightKind::FrameReuse);
        assert_eq!(recs[2].kind, FlightKind::RecoveryGap);
        assert_eq!(recs[2].node, 3, "note carries the handling node");
        assert_eq!((recs[2].a, recs[2].b), (100, 3));
    }
}
