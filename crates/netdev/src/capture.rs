//! Capture taps: the measurement fabric.
//!
//! Trading firms splice passive optical taps into links and timestamp
//! every frame with dedicated capture appliances; §2 notes precision
//! targets below 100 ps. A [`Tap`] is a two-port pass-through node that
//! records `(FrameId, time, length, tag)` with zero added latency (an
//! optical splitter) and forwards each frame out of its other port.
//!
//! After a run, the scenario downcasts taps back out of the simulator and
//! correlates records across taps by `FrameId` to compute per-segment
//! latency — exactly how firms measure strategy latency (order-out time
//! minus last-input time).

use tn_sim::{
    Context, Distribution, Frame, FrameId, MetricsRegistry, Node, NodeId, PortId, SimTime,
};

/// One observed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Frame identity (stable across hops).
    pub frame: FrameId,
    /// Capture timestamp (exact simulation time; picosecond resolution).
    pub at: SimTime,
    /// Frame length in bytes.
    pub len: usize,
    /// Application tag copied from the frame metadata.
    pub tag: u64,
}

/// A passive two-port tap. Optical splitters add no measurable delay, so
/// neither does this node; links on either side carry all the time cost.
pub struct Tap {
    records: Vec<CaptureRecord>,
    enabled: bool,
    /// Frames passed, recording or not.
    frames: u64,
    /// Frame age (time since birth) at this point in the fabric.
    ages: Distribution,
}

impl Tap {
    /// A zero-insertion-delay optical tap.
    pub fn new() -> Tap {
        Tap {
            records: Vec::new(),
            enabled: true,
            frames: 0,
            ages: Distribution::default(),
        }
    }

    /// Stop recording (keeps forwarding).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Recorded observations in arrival order.
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Total observed frames.
    pub fn count(&self) -> usize {
        self.records.len()
    }
}

impl Default for Tap {
    fn default() -> Self {
        Tap::new()
    }
}

impl Node for Tap {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        let out = match port {
            PortId(0) => PortId(1),
            PortId(1) => PortId(0),
            // Wiring invariant: ports are fixed at topology build time, so
            // failing fast beats silently eating frames.
            // audit:allow(hotpath-unwrap): port fan-in is fixed by connect() wiring at build time; a mismatch is a topology bug where stopping loudly beats simulating garbage
            other => panic!("taps have two ports, got {other:?}"),
        };
        if self.enabled {
            self.records.push(CaptureRecord {
                frame: frame.id,
                at: ctx.now(),
                len: frame.len(),
                tag: frame.meta.tag,
            });
        }
        self.frames += 1;
        self.ages
            .observe(ctx.now().saturating_sub(frame.born).as_ps());
        ctx.send(out, frame);
    }

    /// Taps feed the registry like any capture appliance feeds the
    /// monitoring plane: frame counts plus frame ages.
    fn metrics(&self, me: NodeId, into: &mut MetricsRegistry) {
        into.add("tap", "frames", Some(me.0), self.frames);
        into.merge("tap", "age_ps", Some(me.0), &self.ages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::{IdealLink, Simulator};

    #[derive(Default)]
    struct Sink(Vec<FrameId>);
    impl Node for Sink {
        fn on_frame(&mut self, _: &mut Context<'_>, _: PortId, f: Frame) {
            self.0.push(f.id);
        }
    }

    #[test]
    fn tap_records_both_directions_without_latency() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node("a", Sink::default());
        let tap = sim.add_node("tap", Tap::new());
        let b = sim.add_node("b", Sink::default());
        let link = IdealLink::new(SimTime::from_ns(5));
        sim.install_link(a, PortId(0), tap, PortId(0), Box::new(link.clone()));
        sim.install_link(tap, PortId(0), a, PortId(0), Box::new(link.clone()));
        sim.install_link(tap, PortId(1), b, PortId(0), Box::new(link.clone()));
        sim.install_link(b, PortId(0), tap, PortId(1), Box::new(link));

        let mut f = sim.frame().zeroed(100).build();
        f.meta.tag = 77;
        let fid = f.id;
        // Inject at the tap's A port as if it came off the wire from a.
        sim.inject_frame(SimTime::from_ns(10), tap, PortId(0), f);
        let g = sim.frame().zeroed(50).build();
        let gid = g.id;
        sim.inject_frame(SimTime::from_ns(20), tap, PortId(1), g);
        sim.run();

        let t = sim.node::<Tap>(tap).unwrap();
        assert_eq!(t.count(), 2);
        let r0 = t.records()[0];
        assert_eq!(r0.frame, fid);
        assert_eq!(r0.at, SimTime::from_ns(10));
        assert_eq!(r0.len, 100);
        assert_eq!(r0.tag, 77);
        assert_eq!(t.records()[1].frame, gid);
        // Each frame leaves by the port opposite the one it entered on.
        assert_eq!(sim.node::<Sink>(b).unwrap().0, [fid]);
        assert_eq!(sim.node::<Sink>(a).unwrap().0, [gid]);
    }

    #[test]
    fn disabled_tap_still_forwards() {
        let mut sim = Simulator::new(3);
        let tap_id = sim.add_node("tap", Tap::new());
        let b = sim.add_node("b", Sink::default());
        let link = IdealLink::new(SimTime::ZERO);
        sim.install_link(tap_id, PortId(1), b, PortId(0), Box::new(link.clone()));
        sim.install_link(b, PortId(0), tap_id, PortId(1), Box::new(link));
        sim.node_mut::<Tap>(tap_id).unwrap().set_enabled(false);
        let f = sim.frame().zeroed(10).build();
        sim.inject_frame(SimTime::ZERO, tap_id, PortId(0), f);
        sim.run();
        assert_eq!(sim.node::<Tap>(tap_id).unwrap().count(), 0);
        assert_eq!(sim.stats().frames_delivered, 2); // tap + sink
    }
}
