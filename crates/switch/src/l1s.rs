//! Layer-1 switch (L1S).
//!
//! A crosspoint circuit switch in the mold of the Arista 7130 (§4.3):
//!
//! * **Fan-out**: any input port replicates to any set of output ports in
//!   5–6 ns. Pure signal regeneration — no parsing, no classification,
//!   no filtering, no queueing.
//! * **Merge**: several input ports mux onto one output for an extra
//!   ~50 ns. The mux output is a single serial stream, so simultaneous
//!   arrivals contend; contention turns into queueing (and, on a bounded
//!   egress link, loss) — the §4.3 merged-feed bottleneck.
//!
//! The configuration is static per port, set when the circuit is
//! provisioned, and cannot depend on packet contents — which is exactly
//! the limitation the paper explores.

use tn_netdev::TxQueue;
use tn_sim::{Context, Frame, Node, PortId, SimTime, TimerToken};

/// What a given input port is wired to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortRole {
    /// Replicate to this set of output ports (5–6 ns).
    Fanout(Vec<PortId>),
    /// Feed the merge unit driving this output port (+50 ns).
    Merge(PortId),
}

/// Timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct L1Config {
    /// Fan-out path latency (datasheet: 5–6 ns; we use 6).
    pub fanout_latency: SimTime,
    /// Merge path latency (datasheet: ~+50 ns).
    pub merge_latency: SimTime,
}

impl Default for L1Config {
    fn default() -> L1Config {
        L1Config {
            fanout_latency: SimTime::from_ns(6),
            merge_latency: SimTime::from_ns(56),
        }
    }
}

/// Counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// Frame replications out of fan-out circuits.
    pub fanned_out: u64,
    /// Frames muxed through merge units.
    pub merged: u64,
    /// Frames arriving on unprovisioned ports (misconfiguration).
    pub unprovisioned: u64,
}

/// The L1 switch node.
pub struct L1Switch {
    /// Each input port's role, indexed by port number. A table, not a
    /// map: a merge stage has one input per subscriber circuit (about 930
    /// at paper scale), a fan-out burst reaches them in ascending port
    /// order, and a hashed lookup sent each of those to its own cache line.
    roles: Vec<Option<PortRole>>,
    fanout_path: TxQueue,
    merge_path: TxQueue,
    stats: L1Stats,
}

const FANOUT_TOKEN: u64 = 1;
const MERGE_TOKEN: u64 = 2;

impl L1Switch {
    /// An unprovisioned switch with the given timing.
    pub fn new(cfg: L1Config) -> L1Switch {
        L1Switch {
            roles: Vec::new(),
            fanout_path: TxQueue::new(FANOUT_TOKEN).with_pipeline(cfg.fanout_latency),
            merge_path: TxQueue::new(MERGE_TOKEN).with_pipeline(cfg.merge_latency),
            stats: L1Stats::default(),
        }
    }

    /// Provision `input` to replicate to `outputs`.
    pub fn provision_fanout(&mut self, input: PortId, outputs: Vec<PortId>) {
        assert!(!outputs.contains(&input), "fanout loop");
        self.set_role(input, PortRole::Fanout(outputs));
    }

    /// Provision `input` as a member of the merge feeding `output`.
    pub fn provision_merge(&mut self, input: PortId, output: PortId) {
        assert_ne!(input, output, "merge loop");
        self.set_role(input, PortRole::Merge(output));
    }

    /// The role of a port, if provisioned.
    pub fn role(&self, port: PortId) -> Option<&PortRole> {
        self.roles.get(usize::from(port.0))?.as_ref()
    }

    fn set_role(&mut self, port: PortId, role: PortRole) {
        let i = usize::from(port.0);
        if self.roles.len() <= i {
            self.roles.resize_with(i + 1, || None);
        }
        self.roles[i] = Some(role);
    }

    /// Counters so far.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }
}

impl Node for L1Switch {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        match self.roles.get(usize::from(port.0)).and_then(Option::as_ref) {
            Some(PortRole::Fanout(outputs)) => {
                // Each replica is an arena-backed copy carrying the original
                // FrameId; the ingress buffer goes straight back to the pool.
                for &out in outputs {
                    self.stats.fanned_out += 1;
                    let copy = ctx.clone_frame(&frame);
                    self.fanout_path.send_after(ctx, SimTime::ZERO, out, copy);
                }
                ctx.recycle(frame);
            }
            Some(PortRole::Merge(output)) => {
                let out = *output;
                self.stats.merged += 1;
                self.merge_path.send_after(ctx, SimTime::ZERO, out, frame);
            }
            None => {
                self.stats.unprovisioned += 1;
                ctx.recycle(frame);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if self.fanout_path.on_timer(ctx, timer) {
            return;
        }
        let consumed = self.merge_path.on_timer(ctx, timer);
        debug_assert!(consumed, "unexpected timer {timer:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_fault::{FaultConnect, LinkSpec};
    use tn_netdev::EtherLink;
    use tn_sim::Simulator;

    struct Sink {
        got: Vec<SimTime>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, _f: Frame) {
            self.got.push(ctx.now());
        }
    }

    #[test]
    fn fanout_replicates_in_nanoseconds() {
        let mut sim = Simulator::new(2);
        let sw = sim.add_node("l1s", L1Switch::new(L1Config::default()));
        let mut sinks = Vec::new();
        for i in 0..3u16 {
            let s = sim.add_node(format!("s{i}"), Sink { got: vec![] });
            sim.connect_spec(
                sw,
                PortId(1 + i),
                s,
                PortId(0),
                &LinkSpec::ideal(SimTime::ZERO),
            );
            sinks.push(s);
        }
        sim.node_mut::<L1Switch>(sw)
            .unwrap()
            .provision_fanout(PortId(0), vec![PortId(1), PortId(2), PortId(3)]);
        let f = sim.frame().zeroed(200).build();
        sim.inject_frame(SimTime::from_ns(100), sw, PortId(0), f);
        sim.run();
        for s in &sinks {
            let got = &sim.node::<Sink>(*s).unwrap().got;
            assert_eq!(got, &vec![SimTime::from_ns(106)]); // +6 ns, two orders below 500 ns
        }
        assert_eq!(sim.node::<L1Switch>(sw).unwrap().stats().fanned_out, 3);
    }

    #[test]
    fn merge_adds_50ns_and_contends_on_egress() {
        let mut sim = Simulator::new(2);
        let sw = sim.add_node("l1s", L1Switch::new(L1Config::default()));
        let sink = sim.add_node("sink", Sink { got: vec![] });
        // Egress is a real 10G link: contention shows up as serialization
        // queueing. EtherLink is a concrete model with no LinkSpec
        // equivalent, so it goes in through the raw `install_link` primitive.
        let link = EtherLink::ten_gig(SimTime::ZERO);
        sim.install_link(sw, PortId(9), sink, PortId(0), Box::new(link.clone()));
        sim.install_link(sink, PortId(0), sw, PortId(9), Box::new(link));
        {
            let s = sim.node_mut::<L1Switch>(sw).unwrap();
            s.provision_merge(PortId(0), PortId(9));
            s.provision_merge(PortId(1), PortId(9));
        }
        // Two 1250-byte frames arrive simultaneously on both merge inputs.
        for p in [0u16, 1] {
            let f = sim.frame().zeroed(1250).build();
            sim.inject_frame(SimTime::ZERO, sw, PortId(p), f);
        }
        sim.run();
        let got = &sim.node::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 2);
        // First: 56 ns merge + 1 us serialization.
        assert_eq!(got[0], SimTime::from_ns(56) + SimTime::from_us(1));
        // Second: queued behind the first on the shared egress.
        assert_eq!(got[1], SimTime::from_ns(56) + SimTime::from_us(2));
        assert_eq!(sim.node::<L1Switch>(sw).unwrap().stats().merged, 2);
    }

    #[test]
    fn unprovisioned_port_drops_and_counts() {
        let mut sim = Simulator::new(2);
        let sw = sim.add_node("l1s", L1Switch::new(L1Config::default()));
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(5), f);
        sim.run();
        assert_eq!(sim.node::<L1Switch>(sw).unwrap().stats().unprovisioned, 1);
    }

    #[test]
    fn role_introspection_and_loop_guards() {
        let mut s = L1Switch::new(L1Config::default());
        s.provision_fanout(PortId(0), vec![PortId(1)]);
        s.provision_merge(PortId(2), PortId(3));
        assert_eq!(s.role(PortId(0)), Some(&PortRole::Fanout(vec![PortId(1)])));
        assert_eq!(s.role(PortId(2)), Some(&PortRole::Merge(PortId(3))));
        assert_eq!(s.role(PortId(1)), None, "a hole in the table");
        assert_eq!(s.role(PortId(9)), None, "past the table");
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.provision_fanout(PortId(4), vec![PortId(4)]);
        }));
        assert!(bad.is_err());
    }

    #[test]
    fn latency_is_two_orders_below_commodity() {
        // §4.3: "two orders of magnitude lower latency than commodity
        // switches" — 6 ns vs 500 ns is a factor of ~83; with merge (56
        // ns) the fan-out path is still ~83x and the merge path ~9x.
        let cfg = L1Config::default();
        let commodity = SimTime::from_ns(500);
        assert!(commodity.as_ps() / cfg.fanout_latency.as_ps() >= 80);
    }
}
