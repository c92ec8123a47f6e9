//! Software-hop service modeling.
//!
//! Application nodes (normalizers, strategies, gateways, exchange
//! front-ends) process events serially: one core, one event at a time.
//! [`ServiceClock`] tracks when that virtual core next becomes free, and
//! [`TxQueue`] turns "finish processing at T, then transmit" into kernel
//! timers so service time shows up as real latency and backlog.

use tn_sim::{Context, Frame, PortId, SimTime, TimerToken};

/// Tracks the busy-until time of a serial processor.
///
/// `complete(now, service)` answers: if work arrives at `now` needing
/// `service` time, when does it finish? Work queues FIFO behind whatever
/// is already scheduled — the "combined time spent discarding data and
/// processing data" model §3 uses for the filtering-placement analysis.
#[derive(Debug, Clone, Default)]
pub struct ServiceClock {
    busy_until: SimTime,
}

impl ServiceClock {
    /// An idle processor.
    pub fn new() -> ServiceClock {
        ServiceClock::default()
    }

    /// Schedule `service` worth of work arriving at `now`; returns the
    /// absolute completion time.
    pub fn complete(&mut self, now: SimTime, service: SimTime) -> SimTime {
        let start = now.max(self.busy_until);
        let done = start + service;
        self.busy_until = done;
        done
    }
}

/// A FIFO of frames awaiting service completion, bridged to kernel timers.
///
/// Usage inside a [`tn_sim::Node`]:
/// * to emit a frame after `service` time: `txq.send_after(ctx, service, port, frame)`,
/// * in `on_timer`: `txq.on_timer(ctx, token)` — returns `true` if the
///   token belonged to this queue and a frame was transmitted.
///
/// Each frame waits in the completion timer that releases it
/// ([`Context::set_timer_carrying`]), so the queue itself holds only a
/// count. Completion times are monotonic (single serial processor) and
/// equal times fire in the order they were set, so frames leave in the
/// order they arrived.
#[derive(Debug)]
pub struct TxQueue {
    clock: ServiceClock,
    /// Frames riding this queue's timers, not yet released.
    pending: usize,
    token: u64,
    /// Bound on queued frames; pushes beyond this are dropped (counted).
    capacity: usize,
    /// Fixed pipeline delay added after service completes (e.g. a NIC's
    /// DMA+interrupt latency). Does not affect the service rate.
    pipeline: SimTime,
    dropped: u64,
}

impl TxQueue {
    /// A queue identified by `token` (must be unique among the node's
    /// timer tokens) with unbounded capacity.
    pub fn new(token: u64) -> TxQueue {
        TxQueue {
            clock: ServiceClock::new(),
            pending: 0,
            token,
            capacity: usize::MAX,
            pipeline: SimTime::ZERO,
            dropped: 0,
        }
    }

    /// Bound the number of frames waiting for service.
    pub fn with_capacity(mut self, capacity: usize) -> TxQueue {
        self.capacity = capacity;
        self
    }

    /// Add a fixed delay after service completion (pipeline latency).
    pub fn with_pipeline(mut self, pipeline: SimTime) -> TxQueue {
        self.pipeline = pipeline;
        self
    }

    /// Queue `frame` to be sent on `port` after `service` processing time
    /// (plus any backlog). Returns `false` if the queue was full and the
    /// frame was dropped, its buffer recycled into the frame arena.
    ///
    /// Forced inline, so a frame its caller just built or cloned reaches
    /// the event queue's slab slot in registers: through a call it is
    /// stored in 8-byte pieces and reloaded 16 bytes at a time, a load
    /// that waits for the stores to drain.
    #[inline(always)]
    pub fn send_after(
        &mut self,
        ctx: &mut Context<'_>,
        service: SimTime,
        port: PortId,
        frame: Frame,
    ) -> bool {
        if self.pending >= self.capacity {
            self.dropped += 1;
            ctx.recycle(frame);
            return false;
        }
        let done = self.clock.complete(ctx.now(), service) + self.pipeline;
        self.pending += 1;
        ctx.set_timer_carrying(done - ctx.now(), TimerToken(self.token), port, frame);
        true
    }

    /// Occupy the processor for `service` without emitting anything —
    /// work whose output is consumed internally (e.g. events filtered
    /// out) still costs time and delays everything queued behind it.
    pub fn charge(&mut self, now: SimTime, service: SimTime) {
        self.clock.complete(now, service);
    }

    /// Handle a timer; transmits the frame it carried if the token is
    /// ours. Returns `true` if consumed.
    pub fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) -> bool {
        if timer.0 != self.token {
            return false;
        }
        if let Some((port, frame)) = ctx.take_carried() {
            self.pending -= 1;
            ctx.send(port, frame);
        }
        true
    }

    /// Frames dropped at the queue bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames awaiting transmission.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::{IdealLink, Node, NodeId, Simulator};

    #[test]
    fn service_clock_serializes_work() {
        let mut c = ServiceClock::new();
        let t0 = SimTime::ZERO;
        assert!(c.busy_until <= t0);
        assert_eq!(c.complete(t0, SimTime::from_us(2)), SimTime::from_us(2));
        // Second event arrives while the first is processing.
        assert_eq!(
            c.complete(SimTime::from_us(1), SimTime::from_us(2)),
            SimTime::from_us(4)
        );
        assert_eq!(c.busy_until, SimTime::from_us(4));
        // After the backlog drains, service starts immediately.
        assert_eq!(
            c.complete(SimTime::from_us(10), SimTime::from_us(2)),
            SimTime::from_us(12)
        );
        assert_eq!(c.busy_until, SimTime::from_us(12));
    }

    /// A node that forwards frames after a fixed service time via TxQueue.
    struct Worker {
        txq: TxQueue,
        service: SimTime,
    }

    impl Node for Worker {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
            self.txq.send_after(ctx, self.service, PortId(0), frame);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            assert!(self.txq.on_timer(ctx, timer));
        }
    }

    #[derive(Default)]
    struct Sink {
        arrivals: Vec<SimTime>,
        tags: Vec<u64>,
    }

    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
            self.arrivals.push(ctx.now());
            self.tags.push(frame.meta.tag);
        }
    }

    /// A worker feeding a sink over an ideal link, as the tests below
    /// wire it.
    fn rig(txq: TxQueue, service: SimTime) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let worker = sim.add_node("worker", Worker { txq, service });
        let sink = sim.add_node("sink", Sink::default());
        let link = IdealLink::new(SimTime::ZERO);
        sim.install_link(worker, PortId(0), sink, PortId(0), Box::new(link.clone()));
        sim.install_link(sink, PortId(0), worker, PortId(0), Box::new(link));
        (sim, worker, sink)
    }

    #[test]
    fn txqueue_applies_service_time_and_fifo_backlog() {
        let (mut sim, worker, sink) = rig(TxQueue::new(0), SimTime::from_us(2));
        // Three frames arrive simultaneously; the worker is a single core.
        for _ in 0..3 {
            let f = sim.frame().zeroed(64).build();
            sim.inject_frame(SimTime::from_us(1), worker, PortId(0), f);
        }
        sim.run();
        let sink = sim.node::<Sink>(sink).unwrap();
        assert_eq!(
            sink.arrivals,
            vec![
                SimTime::from_us(3),
                SimTime::from_us(5),
                SimTime::from_us(7)
            ]
        );
    }

    #[test]
    fn txqueue_capacity_drops() {
        let txq = TxQueue::new(0).with_capacity(2);
        let (mut sim, worker, sink) = rig(txq, SimTime::from_us(1));
        for _ in 0..5 {
            let f = sim.frame().zeroed(64).build();
            sim.inject_frame(SimTime::ZERO, worker, PortId(0), f);
        }
        sim.run();
        let sink_arrivals = sim.node::<Sink>(sink).unwrap().arrivals.len();
        let worker = sim.node::<Worker>(worker).unwrap();
        assert_eq!(sink_arrivals, 2);
        assert_eq!(worker.txq.dropped(), 3);
        assert_eq!(worker.txq.pending(), 0);
    }

    #[test]
    fn equal_completion_times_leave_in_arrival_order() {
        // Zero service time: every frame completes the instant it
        // arrives, so only the timers' seq order keeps them FIFO.
        let (mut sim, worker, sink) = rig(TxQueue::new(0), SimTime::ZERO);
        for tag in 0..6 {
            let f = sim.frame().zeroed(64).tag(tag).build();
            sim.inject_frame(SimTime::from_us(1), worker, PortId(0), f);
        }
        sim.run();
        let sink = sim.node::<Sink>(sink).unwrap();
        assert_eq!(sink.tags, (0..6).collect::<Vec<u64>>());
        assert_eq!(sink.arrivals, vec![SimTime::from_us(1); 6]);
    }

    #[test]
    fn bounded_queue_counts_pending_and_drops_mid_run() {
        let txq = TxQueue::new(0).with_capacity(2);
        let (mut sim, worker, sink) = rig(txq, SimTime::from_us(1));
        for tag in 0..5 {
            let f = sim.frame().zeroed(64).tag(tag).build();
            sim.inject_frame(SimTime::ZERO, worker, PortId(0), f);
        }
        // A sixth frame arrives once the first has left: room for one.
        let late = sim.frame().zeroed(64).tag(5).build();
        sim.inject_frame(SimTime::from_ns(1_500), worker, PortId(0), late);
        let read = |sim: &Simulator| {
            let q = &sim.node::<Worker>(worker).unwrap().txq;
            (q.pending(), q.dropped())
        };
        sim.run_until(SimTime::ZERO);
        assert_eq!(read(&sim), (2, 3), "two queued, three refused");
        sim.run_until(SimTime::from_us(1));
        assert_eq!(read(&sim), (1, 3), "the first left at 1 µs");
        sim.run_until(SimTime::from_ns(1_500));
        assert_eq!(read(&sim), (2, 3), "the late frame took the free place");
        sim.run();
        assert_eq!(read(&sim), (0, 3));
        let sink = sim.node::<Sink>(sink).unwrap();
        assert_eq!(sink.tags, vec![0, 1, 5]);
        let us = SimTime::from_us;
        assert_eq!(sink.arrivals, vec![us(1), us(2), us(3)]);
    }

    #[test]
    fn a_refused_frame_goes_back_to_the_arena() {
        let txq = TxQueue::new(0).with_capacity(1);
        let (mut sim, worker, _) = rig(txq, SimTime::from_us(1));
        sim.set_profile(true);
        for _ in 0..2 {
            let f = sim.frame().zeroed(64).build();
            sim.inject_frame(SimTime::ZERO, worker, PortId(0), f);
        }
        let recycled = |sim: &Simulator| sim.profile().expect("profiler is on").arena_recycled;
        assert_eq!(recycled(&sim), 0);
        // The first frame waits out its service time; the second is
        // refused, and the sink recycles nothing it is sent.
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.node::<Worker>(worker).unwrap().txq.dropped(), 1);
        assert_eq!(recycled(&sim), 1, "the refused frame's buffer is parked");
    }

    /// Sets carrying timers and never takes what they carry.
    struct Forgetful;

    impl Node for Forgetful {
        fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
            ctx.set_timer_carrying(SimTime::from_ns(5), TimerToken(0), port, frame);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: TimerToken) {}
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "left the frame")]
    fn a_node_that_leaves_its_carried_frame_panics() {
        let mut sim = Simulator::new(1);
        let node = sim.add_node("forgetful", Forgetful);
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, node, PortId(0), f);
        sim.run();
    }
}
