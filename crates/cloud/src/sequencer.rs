//! Hold-and-release sequencer: fair ordering bought with a hold window.
//!
//! Cloud exchanges cannot rely on a single wire folding all order flow
//! into one arrival order — orders land on a VM over paths with
//! different latencies, carrying timestamps from clocks that agree only
//! to within a sync error bound ε. The standard fix (CloudEx and
//! successors) is to stamp each order on arrival, hold it for a window
//! `H`, and release in stamped order. If `H ≥ ε + max path skew`, the
//! released order equals the true send order; shrink `H` below the skew
//! and stamped order can contradict arrival order ("reordered"
//! releases). Either way every order pays `H` of added latency — the
//! quantitative heart of the paper's cloud verdict.
//!
//! Determinism: the clock-error draw comes from a node-owned
//! [`SmallRng`] seeded from the config, exactly like
//! `tn_fault::FaultLink` — never the kernel coin — so the sequencer is
//! shard-safe and digest-stable for a fixed seed. With
//! `clock_error == 0` no randomness is consumed at all, and with
//! `hold == 0` each frame is released at its own arrival instant in
//! arrival order (the zero-knob transparency the proptests pin).

use std::collections::BTreeMap;

use tn_sim::{Context, Frame, Node, PortId, Rng, SeedableRng, SimTime, SmallRng, TimerToken};

/// Port orders arrive on.
pub const IN: PortId = PortId(0);
/// Port released orders leave on.
pub const OUT: PortId = PortId(1);
/// Timer token armed once per arrival, at that arrival's release time.
pub const RELEASE: TimerToken = TimerToken(0x5E9);

/// Sequencer knobs.
#[derive(Debug, Clone)]
pub struct SequencerConfig {
    /// Hold window `H`: every order is held this long before it may
    /// release, giving slower-path orders time to arrive and sort.
    pub hold: SimTime,
    /// Clock-sync error bound ε: each arrival's stamp is its arrival
    /// time plus a uniform draw from `[−ε, +ε]`.
    pub clock_error: SimTime,
    /// Seed for the node-owned error stream.
    pub seed: u64,
}

/// Counters the sequencer keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequencerStats {
    /// Releases whose stamp was smaller than one already released — a
    /// sequencing failure: the hold window was too short to gather the
    /// earlier-stamped order before the later one left. Zero whenever
    /// the hold covers the clock error plus arrival skew.
    pub reordered: u64,
}

/// The hold-and-release sequencer node. See the module docs.
pub struct HoldReleaseSequencer {
    hold: SimTime,
    clock_error_ps: u64,
    rng: SmallRng,
    /// Stamped order → `(release_at_ps, frame)`. Keyed by
    /// `(stamp, arrival_seq)` so equal stamps tie-break by arrival.
    pending: BTreeMap<(u64, u64), (u64, Frame)>,
    arrivals: u64,
    max_released: Option<(u64, u64)>,
    stats: SequencerStats,
}

impl HoldReleaseSequencer {
    /// Build a sequencer from its config.
    pub fn new(cfg: SequencerConfig) -> HoldReleaseSequencer {
        HoldReleaseSequencer {
            hold: cfg.hold,
            clock_error_ps: cfg.clock_error.as_ps(),
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x5EC0_DE5E_C0DE_0001),
            pending: BTreeMap::new(),
            arrivals: 0,
            max_released: None,
            stats: SequencerStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> SequencerStats {
        self.stats
    }

    /// Stamp an arrival: its local clock reads `now ± ε`. With ε = 0 the
    /// stream is untouched, so perfect-clock configs draw no randomness.
    fn stamp(&mut self, now: SimTime) -> u64 {
        if self.clock_error_ps == 0 {
            return now.as_ps();
        }
        let off = self.rng.gen_range(0..=2 * self.clock_error_ps);
        (now.as_ps() + off).saturating_sub(self.clock_error_ps)
    }
}

impl Node for HoldReleaseSequencer {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        debug_assert_eq!(port, IN);
        let seq = self.arrivals;
        self.arrivals += 1;
        let now = ctx.now();
        let stamp = self.stamp(now);
        let release_at = now.as_ps() + self.hold.as_ps();
        self.pending.insert((stamp, seq), (release_at, frame));
        // One timer per arrival, at exactly that arrival's release time:
        // the head-of-line entry always has a timer at its own release
        // instant, so nothing starves. A zero hold fires the timer at
        // `now` — dispatched later within the same timestamp, so release
        // time still equals arrival time.
        ctx.set_timer(self.hold, RELEASE);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, RELEASE);
        let now_ps = ctx.now().as_ps();
        // Release strictly in stamped order: the head (lowest stamp)
        // gates everything behind it until its own hold expires.
        while let Some(entry) = self.pending.first_entry() {
            if entry.get().0 > now_ps {
                break;
            }
            let key = *entry.key();
            let (_, frame) = entry.remove();
            if self.max_released.is_some_and(|m| key < m) {
                self.stats.reordered += 1;
            } else {
                self.max_released = Some(key);
            }
            ctx.send(OUT, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::Simulator;

    struct Sink {
        tags: Vec<u64>,
        at: Vec<SimTime>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
            self.tags.push(f.meta.tag);
            self.at.push(ctx.now());
            ctx.recycle(f);
        }
    }

    fn rig(cfg: SequencerConfig) -> (Simulator, tn_sim::NodeId, tn_sim::NodeId) {
        let mut sim = Simulator::new(7);
        let s = sim.add_node("seq", HoldReleaseSequencer::new(cfg));
        let sink = sim.add_node(
            "sink",
            Sink {
                tags: vec![],
                at: vec![],
            },
        );
        sim.install_link(
            s,
            OUT,
            sink,
            PortId(0),
            Box::new(tn_sim::IdealLink::new(SimTime::ZERO)),
        );
        (sim, s, sink)
    }

    fn inject(sim: &mut Simulator, seqr: tn_sim::NodeId, at_ns: u64, tag: u64) {
        let f = sim.frame().zeroed(64).tag(tag).build();
        sim.inject_frame(SimTime::from_ns(at_ns), seqr, IN, f);
    }

    #[test]
    fn zero_knobs_release_at_arrival_in_arrival_order() {
        let (mut sim, s, sink) = rig(SequencerConfig {
            hold: SimTime::ZERO,
            clock_error: SimTime::ZERO,
            seed: 1,
        });
        for (i, t) in [10u64, 25, 25, 40].iter().enumerate() {
            inject(&mut sim, s, *t, i as u64);
        }
        sim.run();
        let snk = sim.node::<Sink>(sink).unwrap();
        assert_eq!(snk.tags, vec![0, 1, 2, 3]);
        let want: Vec<SimTime> = [10u64, 25, 25, 40]
            .iter()
            .map(|n| SimTime::from_ns(*n))
            .collect();
        assert_eq!(snk.at, want);
        let sq = sim.node::<HoldReleaseSequencer>(s).unwrap();
        assert_eq!(sq.stats().reordered, 0);
        assert!(sq.pending.is_empty());
    }

    #[test]
    fn hold_window_delays_every_release_by_exactly_hold() {
        let cfg = SequencerConfig {
            hold: SimTime::from_us(5),
            clock_error: SimTime::ZERO,
            seed: 1,
        };
        let (mut sim, s, sink) = rig(cfg);
        inject(&mut sim, s, 100, 0);
        inject(&mut sim, s, 300, 1);
        sim.run();
        let snk = sim.node::<Sink>(sink).unwrap();
        assert_eq!(snk.tags, vec![0, 1]);
        assert_eq!(
            snk.at,
            vec![
                SimTime::from_ns(100) + SimTime::from_us(5),
                SimTime::from_ns(300) + SimTime::from_us(5),
            ]
        );
    }

    #[test]
    fn clock_error_beyond_hold_can_reorder_and_is_counted() {
        // ε = 2 µs across arrivals 50 ns apart with zero hold: some pair
        // of adjacent arrivals will stamp out of order and release
        // head-of-line in stamped order.
        let cfg = SequencerConfig {
            hold: SimTime::ZERO,
            clock_error: SimTime::from_us(2),
            seed: 9,
        };
        let (mut sim, s, sink) = rig(cfg);
        for i in 0..64u64 {
            inject(&mut sim, s, 1_000 + 50 * i, i);
        }
        sim.run();
        assert_eq!(sim.node::<Sink>(sink).unwrap().tags.len(), 64);
        let sq = sim.node::<HoldReleaseSequencer>(s).unwrap();
        assert!(
            sq.stats().reordered > 0,
            "2 µs clock error over 50 ns spacing must reorder something"
        );
    }

    #[test]
    fn big_enough_hold_absorbs_clock_error() {
        // ε = 100 ns, arrivals 1 µs apart, hold 10 µs: stamps can never
        // cross between arrivals, so release order equals arrival order.
        let cfg = SequencerConfig {
            hold: SimTime::from_us(10),
            clock_error: SimTime::from_ns(100),
            seed: 5,
        };
        let (mut sim, s, sink) = rig(cfg);
        for i in 0..32u64 {
            inject(&mut sim, s, 1_000 * (i + 1), i);
        }
        sim.run();
        let sq = sim.node::<HoldReleaseSequencer>(s).unwrap();
        assert_eq!(sq.stats().reordered, 0);
        assert_eq!(
            sim.node::<Sink>(sink).unwrap().tags,
            (0..32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fixed_seed_is_deterministic() {
        let cfg = SequencerConfig {
            hold: SimTime::from_ns(500),
            clock_error: SimTime::from_us(1),
            seed: 42,
        };
        let digest = |cfg: SequencerConfig| {
            let (mut sim, s, _) = rig(cfg);
            for i in 0..40u64 {
                inject(&mut sim, s, 100 * (i + 1), i);
            }
            sim.run();
            sim.trace.digest()
        };
        assert_eq!(digest(cfg.clone()), digest(cfg));
    }
}
