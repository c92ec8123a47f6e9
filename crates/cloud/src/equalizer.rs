//! Delay equalizer: fair delivery bought with padded latency.
//!
//! A cloud feed fans out over unicast VM paths whose latencies differ
//! and jitter; subscribers near the publisher would otherwise see every
//! event first. The equalizer sits immediately in front of each
//! subscriber and pads: a frame born at `b` is released at
//! `max(arrival, b + ceiling) + r`, where `ceiling` is the configured
//! release target and `r` is a uniform draw from `[0, residual]`
//! modelling the precision of the pacing clock. Pick
//! `ceiling ≥ max path latency` and every subscriber sees the event at
//! the same instant `b + ceiling` (spread = residual); every delivery
//! pays `ceiling − its own path` of padding for that fairness. Frames
//! arriving after the ceiling ("late", the jitter tail the ceiling
//! didn't cover) pass through immediately and are counted.
//!
//! Determinism: like the sequencer, the residual draw comes from a
//! node-owned [`SmallRng`]; `residual == 0` consumes no randomness, and
//! `ceiling == 0` makes the node fully transparent (release at arrival).

use std::collections::BTreeMap;

use tn_sim::{Context, Frame, Node, PortId, Rng, SeedableRng, SimTime, SmallRng, TimerToken};

/// Port feed frames arrive on.
pub const IN: PortId = PortId(0);
/// Port equalized deliveries leave on.
pub const OUT: PortId = PortId(1);
/// Timer token armed once per held frame, at its release time.
pub const RELEASE: TimerToken = TimerToken(0xE90);

/// Equalizer knobs.
#[derive(Debug, Clone)]
pub struct EqualizerConfig {
    /// Release ceiling measured from the frame's birth: deliveries are
    /// padded toward `born + ceiling`. Zero means pass-through.
    pub ceiling: SimTime,
    /// Residual pacing error: each release lands a uniform draw from
    /// `[0, residual]` past its target.
    pub residual: SimTime,
    /// Seed for the node-owned residual stream.
    pub seed: u64,
}

/// Counters the equalizer keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualizerStats {
    /// Frames delivered on [`OUT`].
    pub delivered: u64,
    /// Deliveries that were held (arrived before their ceiling).
    pub held: u64,
    /// Deliveries that arrived after their ceiling and passed straight
    /// through — the jitter tail the ceiling failed to cover.
    pub late: u64,
}

/// The per-subscriber delay-equalizer node. See the module docs.
pub struct DelayEqualizer {
    ceiling: SimTime,
    residual_ps: u64,
    rng: SmallRng,
    /// `(release_at_ps, seq)` → frame.
    pending: BTreeMap<(u64, u64), Frame>,
    seq: u64,
    stats: EqualizerStats,
    /// `(frame id, release time ps)` per delivery: replicated copies of
    /// one published event keep their `FrameId` across relay clones, so
    /// the id groups deliveries event-by-event for fairness windows.
    releases: Vec<(u64, u64)>,
    /// Padding added per delivery (release − arrival), in ps.
    pad_ps: Vec<u64>,
}

impl DelayEqualizer {
    /// Build an equalizer from its config.
    pub fn new(cfg: EqualizerConfig) -> DelayEqualizer {
        DelayEqualizer {
            ceiling: cfg.ceiling,
            residual_ps: cfg.residual.as_ps(),
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xE9A1_12E9_A112_0002),
            pending: BTreeMap::new(),
            seq: 0,
            stats: EqualizerStats::default(),
            releases: Vec::new(),
            pad_ps: Vec::new(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> EqualizerStats {
        self.stats
    }

    /// `(frame id, release ps)` per delivery, in release order.
    pub fn releases(&self) -> &[(u64, u64)] {
        &self.releases
    }

    /// Padding added per delivery, in ps.
    pub fn pad_ps(&self) -> &[u64] {
        &self.pad_ps
    }

    fn release(&mut self, ctx: &mut Context<'_>, now_ps: u64, frame: Frame) {
        self.stats.delivered += 1;
        self.releases.push((frame.id.0, now_ps));
        ctx.send(OUT, frame);
    }
}

impl Node for DelayEqualizer {
    fn on_frame(&mut self, ctx: &mut Context<'_>, port: PortId, frame: Frame) {
        debug_assert_eq!(port, IN);
        let now_ps = ctx.now().as_ps();
        let target = frame.born.as_ps() + self.ceiling.as_ps();
        if now_ps > target {
            self.stats.late += 1;
        }
        let jig = if self.residual_ps == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.residual_ps)
        };
        let due = target.max(now_ps) + jig;
        self.pad_ps.push(due - now_ps);
        if due <= now_ps {
            self.release(ctx, now_ps, frame);
            return;
        }
        self.stats.held += 1;
        let s = self.seq;
        self.seq += 1;
        self.pending.insert((due, s), frame);
        ctx.set_timer(SimTime::from_ps(due - now_ps), RELEASE);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, RELEASE);
        let now_ps = ctx.now().as_ps();
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > now_ps {
                break;
            }
            let frame = entry.remove();
            self.release(ctx, now_ps, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_sim::Simulator;

    struct Sink {
        at: Vec<SimTime>,
        tags: Vec<u64>,
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Context<'_>, _p: PortId, f: Frame) {
            self.at.push(ctx.now());
            self.tags.push(f.meta.tag);
            ctx.recycle(f);
        }
    }

    fn rig(cfg: EqualizerConfig) -> (Simulator, tn_sim::NodeId, tn_sim::NodeId) {
        let mut sim = Simulator::new(3);
        let eq = sim.add_node("eq", DelayEqualizer::new(cfg));
        let sink = sim.add_node(
            "sink",
            Sink {
                at: vec![],
                tags: vec![],
            },
        );
        sim.install_link(
            eq,
            OUT,
            sink,
            PortId(0),
            Box::new(tn_sim::IdealLink::new(SimTime::ZERO)),
        );
        (sim, eq, sink)
    }

    #[test]
    fn pads_to_the_ceiling_exactly() {
        let cfg = EqualizerConfig {
            ceiling: SimTime::from_us(10),
            residual: SimTime::ZERO,
            seed: 1,
        };
        let (mut sim, eq, sink) = rig(cfg);
        // Frame born at 0 (built before injection), arriving at 2 µs:
        // must release at exactly born + 10 µs.
        let f = sim.frame().zeroed(64).tag(7).build();
        sim.inject_frame(SimTime::from_us(2), eq, IN, f);
        sim.run();
        let snk = sim.node::<Sink>(sink).unwrap();
        assert_eq!(snk.at, vec![SimTime::from_us(10)]);
        let e = sim.node::<DelayEqualizer>(eq).unwrap();
        assert_eq!(e.stats().held, 1);
        assert_eq!(e.stats().late, 0);
        assert_eq!(e.pad_ps(), &[SimTime::from_us(8).as_ps()]);
    }

    #[test]
    fn late_frames_pass_through_and_are_counted() {
        let cfg = EqualizerConfig {
            ceiling: SimTime::from_ns(500),
            residual: SimTime::ZERO,
            seed: 1,
        };
        let (mut sim, eq, sink) = rig(cfg);
        let f = sim.frame().zeroed(64).tag(1).build();
        sim.inject_frame(SimTime::from_us(3), eq, IN, f);
        sim.run();
        assert_eq!(
            sim.node::<Sink>(sink).unwrap().at,
            vec![SimTime::from_us(3)]
        );
        let e = sim.node::<DelayEqualizer>(eq).unwrap();
        assert_eq!(e.stats().late, 1);
        assert_eq!(e.stats().held, 0);
        assert_eq!(e.pad_ps(), &[0]);
    }

    #[test]
    fn zero_knobs_are_transparent() {
        let (mut sim, eq, sink) = rig(EqualizerConfig {
            ceiling: SimTime::ZERO,
            residual: SimTime::ZERO,
            seed: 1,
        });
        for i in 0..5u64 {
            let f = sim.frame().zeroed(64).tag(i).build();
            sim.inject_frame(SimTime::from_ns(100 * (i + 1)), eq, IN, f);
        }
        sim.run();
        let snk = sim.node::<Sink>(sink).unwrap();
        assert_eq!(snk.tags, vec![0, 1, 2, 3, 4]);
        let want: Vec<SimTime> = (1..=5).map(|i| SimTime::from_ns(100 * i)).collect();
        assert_eq!(snk.at, want);
        let e = sim.node::<DelayEqualizer>(eq).unwrap();
        assert_eq!(e.stats().held, 0);
        assert!(e.pending.is_empty());
    }

    #[test]
    fn residual_jitter_is_bounded_and_deterministic() {
        let cfg = EqualizerConfig {
            ceiling: SimTime::from_us(5),
            residual: SimTime::from_ns(200),
            seed: 11,
        };
        let run = |cfg: EqualizerConfig| {
            let (mut sim, eq, sink) = rig(cfg);
            // All arrivals land well before the 5 µs ceiling.
            for i in 0..20u64 {
                let f = sim.frame().zeroed(64).tag(i).build();
                sim.inject_frame(SimTime::from_ns(150 * (i + 1)), eq, IN, f);
            }
            sim.run();
            let _ = eq;
            (
                sim.node::<Sink>(sink).unwrap().at.clone(),
                sim.trace.digest(),
            )
        };
        let (at1, d1) = run(cfg.clone());
        let (at2, d2) = run(cfg);
        assert_eq!(at1, at2);
        assert_eq!(d1, d2);
        // Frames all born at 0 (built before injection): every release
        // must land in [born+ceiling, born+ceiling+residual].
        let lo = SimTime::from_us(5);
        let hi = lo + SimTime::from_ns(200);
        for t in &at1 {
            assert!(
                *t >= lo && *t <= hi,
                "release {t:?} outside [{lo:?}, {hi:?}]"
            );
        }
    }
}
