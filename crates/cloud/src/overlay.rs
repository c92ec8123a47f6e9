//! Overlay multicast: provider "free multicast" rebuilt from software
//! relays over unicast VM links.
//!
//! Clouds do not sell the hardware replication a colo switch gives away:
//! a tenant feed reaches `S` subscribers through a tree of relay VMs,
//! each copying the frame to at most `k` children over ordinary unicast
//! links. Two costs fall out and both are modelled here:
//!
//! - **depth** — a complete fan-out-`k` tree over `S` subscribers is
//!   `⌈log_k S⌉` VM hops deep, and every hop is a full VM-to-VM network
//!   traversal (tens of microseconds, jittery);
//! - **per-copy serialization** — a software relay emits its `k` copies
//!   one after another (`copy_gap` apart), so even a jitter-free tree
//!   skews children by their copy index.
//!
//! [`OverlayRelay`] is the relay node; [`OverlayTree::build`] lays out
//! the complete tree inside a simulator, installing each edge through a
//! caller-supplied link factory — wrap the link in
//! `tn_fault::FaultLink` with a jitter spec to model the VM network, or
//! hand back a clean `EtherLink` for calibration runs.

use std::collections::BTreeMap;

use tn_sim::{Context, Frame, Link, Node, NodeId, PortId, SimTime, Simulator, TimerToken};

/// Port a relay receives upstream frames on. Child copies leave on
/// ports `0..fanout`, so the input sits far above any realistic fan-out.
pub const RELAY_IN: PortId = PortId(0x0100);
/// Timer token armed for copies deferred by the per-copy gap.
pub const FORWARD: TimerToken = TimerToken(0xF0D);

/// Counters a relay keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayStats {
    /// Frames that arrived on [`RELAY_IN`].
    pub frames_in: u64,
}

/// A fan-out-`k` software relay. See the module docs.
pub struct OverlayRelay {
    fanout: u16,
    copy_gap: SimTime,
    /// `(due_ps, seq)` → `(child port, frame)` for gap-deferred copies.
    pending: BTreeMap<(u64, u64), (PortId, Frame)>,
    seq: u64,
    stats: RelayStats,
}

impl OverlayRelay {
    /// Build a relay copying each inbound frame to child ports
    /// `0..fanout`, the `j`-th copy leaving `j × copy_gap` after
    /// arrival.
    pub fn new(fanout: u16, copy_gap: SimTime) -> OverlayRelay {
        assert!(fanout >= 1, "a relay needs at least one child");
        OverlayRelay {
            fanout,
            copy_gap,
            pending: BTreeMap::new(),
            seq: 0,
            stats: RelayStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    fn dispatch(&mut self, ctx: &mut Context<'_>, child: u16, frame: Frame, now_ps: u64) {
        let delay = self.copy_gap.as_ps() * u64::from(child);
        if delay == 0 {
            ctx.send(PortId(child), frame);
            return;
        }
        let s = self.seq;
        self.seq += 1;
        self.pending
            .insert((now_ps + delay, s), (PortId(child), frame));
        ctx.set_timer(SimTime::from_ps(delay), FORWARD);
    }
}

impl Node for OverlayRelay {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.stats.frames_in += 1;
        let now_ps = ctx.now().as_ps();
        for j in 0..self.fanout - 1 {
            let copy = ctx.clone_frame(&frame);
            self.dispatch(ctx, j, copy, now_ps);
        }
        self.dispatch(ctx, self.fanout - 1, frame, now_ps);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, FORWARD);
        let now_ps = ctx.now().as_ps();
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > now_ps {
                break;
            }
            let (port, frame) = entry.remove();
            ctx.send(port, frame);
        }
    }
}

/// Layout parameters for [`OverlayTree::build`].
#[derive(Debug, Clone)]
pub struct OverlayTreeConfig {
    /// Children per relay.
    pub fanout: u16,
    /// Leaf slots the tree must offer (one per subscriber).
    pub leaves: usize,
    /// Per-copy serialization gap inside each relay.
    pub copy_gap: SimTime,
}

/// A built overlay tree: relays are wired, leaf ports await subscribers.
pub struct OverlayTree {
    /// The root relay — publishers send into [`RELAY_IN`] here.
    pub root: NodeId,
    /// Every relay, root first, level by level.
    pub relays: Vec<NodeId>,
    /// `(relay, port)` per leaf slot, in subscriber order. The caller
    /// installs the final edge from each slot to its subscriber.
    pub leaf_ports: Vec<(NodeId, PortId)>,
    /// Tree depth in relay levels (≥ 1).
    pub depth: usize,
}

impl OverlayTree {
    /// Build a complete fan-out-`k` tree over `cfg.leaves` slots inside
    /// `sim`. Relay-to-relay edges are installed through `edge_link`,
    /// called with a running edge index (deterministic across builds) so
    /// the caller can derive per-edge jitter seeds.
    pub fn build(
        sim: &mut Simulator,
        name: &str,
        cfg: &OverlayTreeConfig,
        mut edge_link: impl FnMut(usize) -> Box<dyn Link>,
    ) -> OverlayTree {
        assert!(cfg.fanout >= 1, "overlay fan-out must be at least 1");
        assert!(cfg.leaves >= 1, "an overlay needs at least one leaf");
        assert!(
            cfg.fanout >= 2 || cfg.leaves == 1,
            "a fan-out-1 tree reaches exactly one leaf, not {}",
            cfg.leaves
        );
        let k = usize::from(cfg.fanout);
        // Smallest depth d ≥ 1 with k^d ≥ leaves.
        let mut depth = 1;
        let mut cap = k;
        while cap < cfg.leaves {
            cap = cap.saturating_mul(k);
            depth += 1;
        }
        // Relays actually needed per level, bottom-up: the last level
        // serves the leaves, each level above serves the one below.
        let mut needs = vec![0usize; depth];
        needs[depth - 1] = cfg.leaves.div_ceil(k);
        for i in (0..depth - 1).rev() {
            needs[i] = needs[i + 1].div_ceil(k);
        }
        debug_assert_eq!(needs[0], 1, "the root level is a single relay");

        let mut relays = Vec::new();
        let mut levels: Vec<Vec<NodeId>> = Vec::with_capacity(depth);
        for (lvl, &count) in needs.iter().enumerate() {
            let mut row = Vec::with_capacity(count);
            for p in 0..count {
                // Children of relay p: the next level's relays (or leaf
                // slots) p*k .. (p+1)*k, clamped to what exists.
                let children = if lvl + 1 < depth {
                    needs[lvl + 1].min((p + 1) * k) - (p * k).min(needs[lvl + 1])
                } else {
                    cfg.leaves.min((p + 1) * k) - (p * k).min(cfg.leaves)
                };
                let node = sim.add_node(
                    format!("{name}-relay{lvl}.{p}"),
                    OverlayRelay::new(children as u16, cfg.copy_gap),
                );
                row.push(node);
                relays.push(node);
            }
            levels.push(row);
        }

        // Wire parent→child edges, one link per edge.
        let mut edge = 0usize;
        for lvl in 0..depth - 1 {
            for (p, &parent) in levels[lvl].iter().enumerate() {
                for j in 0..k {
                    let c = p * k + j;
                    if c >= levels[lvl + 1].len() {
                        break;
                    }
                    let child = levels[lvl + 1][c];
                    sim.install_link(parent, PortId(j as u16), child, RELAY_IN, edge_link(edge));
                    edge += 1;
                }
            }
        }

        let bottom = &levels[depth - 1];
        let leaf_ports = (0..cfg.leaves)
            .map(|s| (bottom[s / k], PortId((s % k) as u16)))
            .collect();
        OverlayTree {
            root: levels[0][0],
            relays,
            leaf_ports,
            depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::IdealLink;

    struct Leaf {
        at: Vec<SimTime>,
        ids: Vec<u64>,
    }
    impl Node for Leaf {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
            self.at.push(ctx.now());
            self.ids.push(f.id.0);
            ctx.recycle(f);
        }
    }

    fn tree_rig(
        fanout: u16,
        leaves: usize,
        gap: SimTime,
        hop: SimTime,
    ) -> (Simulator, OverlayTree, Vec<NodeId>) {
        let mut sim = Simulator::new(5);
        let cfg = OverlayTreeConfig {
            fanout,
            leaves,
            copy_gap: gap,
        };
        let tree = OverlayTree::build(&mut sim, "ov", &cfg, |_| Box::new(IdealLink::new(hop)));
        let mut sinks = Vec::new();
        for (s, &(relay, port)) in tree.leaf_ports.iter().enumerate() {
            let sink = sim.add_node(
                format!("leaf{s}"),
                Leaf {
                    at: vec![],
                    ids: vec![],
                },
            );
            sim.install_link(relay, port, sink, PortId(0), Box::new(IdealLink::new(hop)));
            sinks.push(sink);
        }
        (sim, tree, sinks)
    }

    #[test]
    fn every_leaf_gets_exactly_one_copy_with_the_same_frame_id() {
        let (mut sim, tree, sinks) = tree_rig(3, 7, SimTime::from_ns(50), SimTime::from_us(2));
        let f = sim.frame().zeroed(128).tag(9).build();
        sim.inject_frame(SimTime::ZERO, tree.root, RELAY_IN, f);
        sim.run();
        let mut ids = Vec::new();
        for &s in &sinks {
            let leaf = sim.node::<Leaf>(s).unwrap();
            assert_eq!(leaf.at.len(), 1, "each leaf sees the frame once");
            ids.extend_from_slice(&leaf.ids);
        }
        ids.dedup();
        assert_eq!(ids.len(), 1, "relay clones preserve the frame id");
    }

    #[test]
    fn depth_grows_logarithmically() {
        for (fanout, leaves, want_depth) in [
            (2u16, 2usize, 1usize),
            (2, 3, 2),
            (4, 16, 2),
            (4, 17, 3),
            (8, 8, 1),
            (1, 1, 1),
        ] {
            let (_, tree, _) = tree_rig(fanout, leaves, SimTime::ZERO, SimTime::from_ns(10));
            assert_eq!(tree.depth, want_depth, "fanout {fanout} leaves {leaves}");
            assert_eq!(tree.leaf_ports.len(), leaves);
        }
    }

    #[test]
    #[should_panic(expected = "fan-out-1 tree")]
    fn fanout_one_with_many_leaves_is_rejected() {
        // Would otherwise spin forever looking for a depth where 1^d >= 2.
        tree_rig(1, 2, SimTime::ZERO, SimTime::from_ns(10));
    }

    #[test]
    fn copy_gap_skews_children_by_their_index() {
        // One relay, 4 leaves, 100 ns gap: leaf j hears the frame at
        // hop + j*gap.
        let (mut sim, tree, sinks) = tree_rig(4, 4, SimTime::from_ns(100), SimTime::from_us(1));
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, tree.root, RELAY_IN, f);
        sim.run();
        for (j, &s) in sinks.iter().enumerate() {
            let at = sim.node::<Leaf>(s).unwrap().at[0];
            assert_eq!(at, SimTime::from_us(1) + SimTime::from_ns(100 * j as u64));
        }
    }

    #[test]
    fn zero_gap_single_level_is_skew_free() {
        let (mut sim, tree, sinks) = tree_rig(8, 8, SimTime::ZERO, SimTime::from_us(3));
        let f = sim.frame().zeroed(64).build();
        sim.inject_frame(SimTime::ZERO, tree.root, RELAY_IN, f);
        sim.run();
        let first = sim.node::<Leaf>(sinks[0]).unwrap().at[0];
        for &s in &sinks {
            assert_eq!(sim.node::<Leaf>(s).unwrap().at[0], first);
        }
    }
}
