//! Shared metro-arbitrage scenario (§2's microwave edge, Figure 1(a)).
//!
//! `examples/metro_arbitrage.rs` and tn-audit's `metro-arbitrage-*`
//! divergence scenarios run *exactly* this code, for 80 ms and 12 ms.
//! Two exchanges trade the same 30 instruments in different colos of the
//! NJ metro triangle. The firm sits in colo 0: the remote exchange's
//! feed crosses a metro circuit (fiber or microwave), each feed is
//! normalized, and an L1 mux merges both into a cross-market arbitrage
//! strategy that fires when one exchange's bid crosses the other's ask.

use tn_fault::{FaultConnect, LinkSpec};
use tn_feed::SubscriptionSet;
use tn_market::{Exchange, ExchangeConfig, PartitionScheme, SymbolDirectory, TICK};
use tn_sim::{PortId, SchedulerKind, SimTime, Simulator};
use tn_stats::Summary;
use tn_switch::l1s::{L1Config, L1Switch};
use tn_topo::metro::{CircuitKind, MetroRegion};
use tn_trading::{
    normalizer, strategy, CrossMarketArb, Normalizer, NormalizerConfig, Strategy, StrategyConfig,
};
use tn_wire::Symbol;

/// What one metro run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetroRun {
    /// Crossed-market detections.
    pub opportunities: u64,
    /// Records the strategy evaluated.
    pub records: u64,
    /// Median market-event-to-decision latency.
    pub median_feed_latency: SimTime,
    /// Kernel trace digest.
    pub digest: u64,
    /// Events folded into the digest.
    pub events: u64,
}

/// Run the two-colo plant over `circuit` until `until`; seed 11.
pub fn run_metro(circuit: CircuitKind, until: SimTime, scheduler: SchedulerKind) -> MetroRun {
    let metro = MetroRegion::nj_triangle();
    let dir = SymbolDirectory::synthetic(30);
    let symbols: Vec<Symbol> = dir.instruments().iter().map(|i| i.symbol).collect();
    let partitions = 4u16;
    let mut sim = Simulator::with_scheduler(11, scheduler);

    // Exchanges in colo 0 (local) and colo 1 (remote).
    let mut mk_exchange = |id: u8, mcast_base: u32| {
        let mut cfg = ExchangeConfig::new(id, dir.clone());
        cfg.scheme = PartitionScheme::ByHash { units: 2 };
        cfg.mcast_base = mcast_base;
        cfg.background_rate = 30_000.0;
        cfg.tick_interval = SimTime::from_us(100);
        cfg.seed = 100 + u64::from(id); // independent order flow
        sim.add_node(format!("exch{id}"), Exchange::new(cfg))
    };
    let exch_local = mk_exchange(1, 0);
    let exch_remote = mk_exchange(2, 100);

    // One normalizer per exchange, both in colo 0.
    let mut mk_norm = |i: u32, exchange_id: u8| {
        let mut cfg = NormalizerConfig::new(exchange_id, i);
        cfg.out_partitions = partitions;
        cfg.out_mcast_base = 20_000;
        cfg.preload = symbols.clone();
        cfg.per_message_service = SimTime::from_ns(650);
        sim.add_node(format!("norm{i}"), Normalizer::new(cfg))
    };
    let norm_local = mk_norm(0, 1);
    let norm_remote = mk_norm(1, 2);

    // Feed circuits: local cross-connect vs metro circuit.
    let cross_connect = LinkSpec::ten_gig(SimTime::from_ns(25));
    sim.connect_spec(
        exch_local,
        PortId(0),
        norm_local,
        normalizer::FEED_A,
        &cross_connect,
    );
    // `MetroRegion::circuit` hands back a fully profiled link (rate,
    // physics-derived delay, microwave fade) that a spec would only
    // restate, so the built model goes in directly, one per direction.
    let metro_link = metro.circuit(1, 0, circuit);
    sim.install_link(
        exch_remote,
        PortId(0),
        norm_remote,
        normalizer::FEED_A,
        Box::new(metro_link.clone()),
    );
    sim.install_link(
        norm_remote,
        normalizer::FEED_A,
        exch_remote,
        PortId(0),
        Box::new(metro_link),
    );

    // Merge both normalized feeds onto the strategy's NIC with an L1 mux.
    let mut mux = L1Switch::new(L1Config::default());
    mux.provision_merge(PortId(0), PortId(2));
    mux.provision_merge(PortId(1), PortId(2));
    let mux = sim.add_node("mux", mux);
    sim.connect_spec(norm_local, normalizer::OUT, mux, PortId(0), &cross_connect);
    sim.connect_spec(norm_remote, normalizer::OUT, mux, PortId(1), &cross_connect);

    let mut cfg = StrategyConfig::new(0, symbols.clone());
    cfg.mcast_base = 20_000;
    let mut subs = SubscriptionSet::unbounded();
    for p in 0..partitions {
        subs.subscribe(p);
    }
    cfg.subscriptions = subs;
    cfg.send_igmp_joins = false;
    let strat = sim.add_node("arb", Strategy::new(cfg, CrossMarketArb::default()));
    sim.connect_spec(mux, PortId(2), strat, strategy::FEED, &cross_connect);

    sim.schedule_timer(SimTime::ZERO, exch_local, TICK);
    sim.schedule_timer(SimTime::ZERO, exch_remote, TICK);
    sim.run_until(until);

    let node = sim
        .node::<Strategy<CrossMarketArb>>(strat)
        .expect("strategy");
    let mut lat = Summary::new();
    lat.extend(node.decision_latency_ps.iter().copied());
    MetroRun {
        opportunities: node.logic().opportunities,
        records: node.stats().records_evaluated,
        median_feed_latency: SimTime::from_ps(lat.median()),
        digest: sim.trace.digest(),
        events: sim.trace.recorded(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_examples_runs_are_pinned() {
        // Recorded from `examples/metro_arbitrage.rs` before its scenario
        // moved here: 80 ms over each circuit kind.
        let run = |kind| run_metro(kind, SimTime::from_ms(80), SchedulerKind::BinaryHeap);
        let fiber = run(CircuitKind::Fiber);
        let microwave = run(CircuitKind::Microwave);
        assert_eq!((fiber.digest, fiber.events), (0x037eef63ec37eb1d, 10_710));
        assert_eq!(
            (microwave.digest, microwave.events),
            (0xc9d6e30abedbcbd8, 10_716)
        );
        assert!(microwave.median_feed_latency < fiber.median_feed_latency);
        assert!(fiber.opportunities > 0 && microwave.opportunities > 0);
    }
}
