//! Background order-flow generation.
//!
//! Drives a [`crate::engine::MatchingEngine`] with a realistic mix of
//! adds, cancels, reductions, modifies and aggressive orders so the
//! published feed has the message-type composition of real depth-of-book
//! feeds (adds and deletes dominate; executions are comparatively rare).

use rand::rngs::SmallRng;
use rand::Rng;

use tn_wire::pitch::{self, Side};
use tn_wire::Symbol;

use crate::engine::{MatchingEngine, Owner};
use crate::symbols::SymbolDirectory;

/// Mix of operations, as weights (need not sum to 1).
#[derive(Debug, Clone, Copy)]
pub struct FlowMix {
    /// Post a new passive order.
    pub add: f64,
    /// Cancel an open order outright.
    pub cancel: f64,
    /// Reduce an open order's size.
    pub reduce: f64,
    /// Cross the spread (produces executions).
    pub aggress: f64,
}

impl Default for FlowMix {
    /// Roughly the composition of US equities depth feeds: adds and full
    /// cancels dominate; a few percent of events are trades.
    fn default() -> FlowMix {
        FlowMix {
            add: 0.47,
            cancel: 0.38,
            reduce: 0.09,
            aggress: 0.06,
        }
    }
}

/// The generator. Holds per-symbol reference prices that random-walk
/// through the day.
pub struct OrderFlowGenerator {
    mix: FlowMix,
    mid_prices: Vec<u64>,
    next_cl_ord: u64,
    sample_k: usize,
}

impl OrderFlowGenerator {
    /// Generator over `dir`'s universe with initial mid prices spread
    /// over a realistic range.
    pub fn new(dir: &SymbolDirectory, mix: FlowMix) -> OrderFlowGenerator {
        let mid_prices = dir
            .instruments()
            .iter()
            .map(|inst| 5_0000 + u64::from(inst.id % 997) * 5000) // $0.50 .. ~$500
            .collect();
        OrderFlowGenerator {
            mix,
            mid_prices,
            next_cl_ord: 1,
            sample_k: 0,
        }
    }

    fn pick_symbol(&self, dir: &SymbolDirectory, rng: &mut SmallRng) -> Symbol {
        // Zipf-ish: low ids trade more (the single-stock focus of Fig 2b/c
        // comes from exactly this concentration).
        let n = dir.len();
        let r: f64 = rng.gen::<f64>();
        let idx = ((n as f64) * r * r) as usize;
        // audit:allow(hotpath-unwrap): idx is clamped to n-1, so the directory lookup cannot miss
        dir.by_id(idx.min(n - 1) as u32).expect("in range").symbol
    }

    /// Run one operation against `engine`, returning the feed messages it
    /// produced, lent from the engine. `offset_ns` stamps the messages.
    pub fn step<'e>(
        &mut self,
        dir: &SymbolDirectory,
        engine: &'e mut MatchingEngine,
        rng: &mut SmallRng,
        offset_ns: u32,
    ) -> &'e [pitch::Message] {
        let total = self.mix.add + self.mix.cancel + self.mix.reduce + self.mix.aggress;
        let mut pick = rng.gen::<f64>() * total;
        self.sample_k = self.sample_k.wrapping_add(1);

        // Keep a floor of resting liquidity: force adds while thin.
        let forced_add = engine.open_orders() < 32;
        if !forced_add {
            pick -= self.mix.cancel;
            if pick < 0.0 {
                if let Some(id) = engine.sample_open_order(self.sample_k) {
                    return &engine.cancel_exchange_order(id, offset_ns).feed;
                }
            }
            pick -= self.mix.reduce;
            if pick < 0.0 {
                if let Some(id) = engine.sample_open_order(self.sample_k) {
                    let by = rng.gen_range(1..=50);
                    return &engine.reduce_exchange_order(id, by, offset_ns).feed;
                }
            }
            pick -= self.mix.aggress;
            if pick < 0.0 {
                let symbol = self.pick_symbol(dir, rng);
                // audit:allow(hotpath-unwrap): pick_symbol only returns symbols from this directory
                let inst = dir.get(symbol).expect("listed");
                let side = if rng.gen() { Side::Buy } else { Side::Sell };
                let mid = self.mid_prices[inst.id as usize];
                // Cross far enough to hit the touch.
                let price = match side {
                    Side::Buy => mid + 10_000,
                    Side::Sell => mid.saturating_sub(10_000).max(100),
                };
                let qty = rng.gen_range(1..=200);
                self.next_cl_ord += 1;
                return &engine
                    .submit(
                        Owner::Background,
                        0,
                        symbol,
                        side,
                        price,
                        qty,
                        true,
                        offset_ns,
                    )
                    .feed;
            }
        }

        // Default: post passive liquidity near the mid.
        let symbol = self.pick_symbol(dir, rng);
        // audit:allow(hotpath-unwrap): pick_symbol only returns symbols from this directory
        let inst = dir.get(symbol).expect("listed");
        // Random-walk the reference price occasionally.
        if rng.gen::<f64>() < 0.02 {
            let delta = rng.gen_range(-3i64..=3) * 100;
            let mid = &mut self.mid_prices[inst.id as usize];
            *mid = (*mid as i64 + delta).max(200) as u64;
        }
        let mid = self.mid_prices[inst.id as usize];
        let side = if rng.gen() { Side::Buy } else { Side::Sell };
        let ticks = u64::from(rng.gen_range(1u32..=20)) * 100;
        let price = match side {
            Side::Buy => mid.saturating_sub(ticks).max(100),
            Side::Sell => mid + ticks,
        };
        let qty = rng.gen_range(1..=65_000);
        self.next_cl_ord += 1;
        &engine
            .submit(
                Owner::Background,
                0,
                symbol,
                side,
                price,
                qty,
                false,
                offset_ns,
            )
            .feed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn flow_produces_realistic_message_mix() {
        let dir = SymbolDirectory::synthetic(50);
        let mut engine = MatchingEngine::new(dir.instruments().iter().map(|i| i.symbol));
        let mut gen = OrderFlowGenerator::new(&dir, FlowMix::default());
        let mut rng = SmallRng::seed_from_u64(77);
        let mut adds = 0u32;
        let mut dels = 0u32;
        let mut execs = 0u32;
        let mut reduces = 0u32;
        let mut total = 0u32;
        for i in 0..20_000 {
            for m in gen.step(&dir, &mut engine, &mut rng, i) {
                total += 1;
                match m {
                    pitch::Message::AddOrder { .. } => adds += 1,
                    pitch::Message::DeleteOrder { .. } => dels += 1,
                    pitch::Message::OrderExecuted { .. } => execs += 1,
                    pitch::Message::ReduceSize { .. } => reduces += 1,
                    _ => {}
                }
            }
        }
        assert!(total > 15_000, "total {total}");
        // Adds and deletes dominate; trades are a small fraction.
        assert!(adds > total / 3, "adds {adds}/{total}");
        assert!(dels > total / 10, "dels {dels}/{total}");
        assert!(execs > 0);
        assert!(execs < total / 8, "execs {execs}/{total}");
        assert!(reduces > 0);
        // The book stays populated (the generator maintains liquidity).
        assert!(engine.open_orders() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let dir = SymbolDirectory::synthetic(10);
        let run = |seed: u64| {
            let mut engine = MatchingEngine::new(dir.instruments().iter().map(|i| i.symbol));
            let mut gen = OrderFlowGenerator::new(&dir, FlowMix::default());
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut out: Vec<pitch::Message> = Vec::new();
            for i in 0..500 {
                out.extend(gen.step(&dir, &mut engine, &mut rng, i));
            }
            out
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn zipf_concentration() {
        let dir = SymbolDirectory::synthetic(100);
        let gen = OrderFlowGenerator::new(&dir, FlowMix::default());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = vec![0u32; 100];
        for _ in 0..10_000 {
            let s = gen.pick_symbol(&dir, &mut rng);
            counts[dir.get(s).unwrap().id as usize] += 1;
        }
        // The top decile of symbols gets far more than its share.
        let head: u32 = counts[..10].iter().sum();
        assert!(head > 2_500, "head {head}");
    }
}
