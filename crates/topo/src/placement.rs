//! Placement optimization (§4.1 / §5 "Cluster Management").
//!
//! §4.1: "We could try to reduce switch hops by placing servers in more
//! optimal ways, but in our system, the distribution of normalizers,
//! trading strategies, and order gateways is not uniform, so we could
//! only optimize placement for a few strategies and the majority would
//! not benefit." §5 asks for cluster managers that "optimize latency
//! above other criteria."
//!
//! This module makes both statements quantitative: given a leaf-spine
//! rack budget and a traffic matrix over functions (normalizer →
//! strategy → gateway chains), it computes expected switch hops for
//! * **grouped** placement (functions by rack, the §4.1 baseline),
//! * **optimized** placement (a greedy co-location pass that packs each
//!   strategy with the normalizer feed it consumes most), and
//! * the theoretical lower bound (everything in one rack).

/// A unit of work to place: which normalizer partition feeds it and
/// which gateway it sends to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyDemand {
    /// The normalizer this strategy consumes most.
    pub primary_normalizer: usize,
    /// Its gateway.
    pub gateway: usize,
    /// Relative traffic weight (events/sec).
    pub weight: u64,
}

/// A concrete assignment of every function instance to a rack.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Rack of each normalizer.
    pub normalizer_rack: Vec<usize>,
    /// Rack of each strategy.
    pub strategy_rack: Vec<usize>,
    /// Rack of each gateway.
    pub gateway_rack: Vec<usize>,
}

/// Hop model of a two-tier Clos: same rack = 1 switch hop, different
/// racks = 3 (leaf, spine, leaf).
pub fn hops(a: usize, b: usize) -> u64 {
    if a == b {
        1
    } else {
        3
    }
}

/// Weighted average switch hops on the normalizer→strategy→gateway path.
pub fn mean_path_hops(demands: &[StrategyDemand], p: &Placement) -> f64 {
    let mut total = 0u64;
    let mut weight = 0u64;
    for (s, d) in demands.iter().enumerate() {
        let h = hops(p.normalizer_rack[d.primary_normalizer], p.strategy_rack[s])
            + hops(p.strategy_rack[s], p.gateway_rack[d.gateway]);
        total += h * d.weight;
        weight += d.weight;
    }
    if weight == 0 {
        0.0
    } else {
        total as f64 / weight as f64
    }
}

/// The §4.1 baseline: functions grouped by rack in function order.
/// `slots_per_rack` bounds hosts per rack.
pub fn grouped(
    normalizers: usize,
    strategies: usize,
    gateways: usize,
    slots_per_rack: usize,
) -> Placement {
    assert!(slots_per_rack >= 1);
    let mut rack = 0usize;
    let mut used = 0usize;
    let mut place = |count: usize, out: &mut Vec<usize>, advance: bool| {
        for _ in 0..count {
            if used == slots_per_rack {
                rack += 1;
                used = 0;
            }
            out.push(rack);
            used += 1;
        }
        if advance && used > 0 {
            rack += 1;
            used = 0;
        }
    };
    let mut n = Vec::new();
    let mut s = Vec::new();
    let mut g = Vec::new();
    place(normalizers, &mut n, true);
    place(strategies, &mut s, true);
    place(gateways, &mut g, false);
    Placement {
        normalizer_rack: n,
        strategy_rack: s,
        gateway_rack: g,
    }
}

/// Greedy latency-aware placement: spread normalizers and gateways, then
/// place each strategy (heaviest first) in the rack of its primary
/// normalizer while slots remain, else the emptiest rack.
pub fn optimize(
    demands: &[StrategyDemand],
    normalizers: usize,
    gateways: usize,
    racks: usize,
    slots_per_rack: usize,
) -> Placement {
    assert!(racks >= 1);
    let mut free = vec![slots_per_rack; racks];
    // Normalizers round-robin across racks (each anchors a locality).
    let mut normalizer_rack = Vec::with_capacity(normalizers);
    for i in 0..normalizers {
        let r = i % racks;
        normalizer_rack.push(r);
        free[r] = free[r].saturating_sub(1);
    }
    // Gateways likewise.
    let mut gateway_rack = Vec::with_capacity(gateways);
    for i in 0..gateways {
        let r = i % racks;
        gateway_rack.push(r);
        free[r] = free[r].saturating_sub(1);
    }
    // Strategies, heaviest first.
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(demands[s].weight));
    let mut strategy_rack = vec![0usize; demands.len()];
    for s in order {
        let want = normalizer_rack[demands[s].primary_normalizer];
        let r = if free[want] > 0 {
            want
        } else {
            // Emptiest rack (stable tie-break on index).
            (0..racks)
                .max_by_key(|&r| (free[r], usize::MAX - r))
                .expect("racks >= 1")
        };
        strategy_rack[s] = r;
        free[r] = free[r].saturating_sub(1);
    }
    Placement {
        normalizer_rack,
        strategy_rack,
        gateway_rack,
    }
}

/// Fraction of strategies co-located with their primary normalizer.
pub fn colocated_fraction(demands: &[StrategyDemand], p: &Placement) -> f64 {
    if demands.is_empty() {
        return 0.0;
    }
    let hits = demands
        .iter()
        .enumerate()
        .filter(|(s, d)| p.strategy_rack[*s] == p.normalizer_rack[d.primary_normalizer])
        .count();
    hits as f64 / demands.len() as f64
}

/// A skewed demand set: strategy `s` mostly consumes normalizer
/// `s % normalizers`, with Zipf-ish weights (few strategies dominate
/// traffic — §4.1's "distribution ... is not uniform").
pub fn skewed_demands(
    strategies: usize,
    normalizers: usize,
    gateways: usize,
) -> Vec<StrategyDemand> {
    (0..strategies)
        .map(|s| StrategyDemand {
            primary_normalizer: s % normalizers.max(1),
            gateway: s % gateways.max(1),
            weight: (1_000_000 / (s as u64 + 1)).max(1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Per-rack host counts implied by a placement.
    fn rack_loads(p: &Placement) -> BTreeMap<usize, usize> {
        let mut loads = BTreeMap::new();
        for &r in p
            .normalizer_rack
            .iter()
            .chain(p.strategy_rack.iter())
            .chain(p.gateway_rack.iter())
        {
            *loads.entry(r).or_insert(0) += 1;
        }
        loads
    }

    #[test]
    fn grouped_respects_rack_capacity() {
        let p = grouped(4, 20, 4, 8);
        let loads = rack_loads(&p);
        assert!(loads.values().all(|&c| c <= 8), "{loads:?}");
        // Functions do not share racks in grouped placement.
        for nr in &p.normalizer_rack {
            assert!(!p.strategy_rack.contains(nr));
            assert!(!p.gateway_rack.contains(nr));
        }
    }

    #[test]
    fn grouped_paths_are_all_remote() {
        let demands = skewed_demands(20, 4, 4);
        let p = grouped(4, 20, 4, 8);
        // Every leg crosses racks: 3 + 3 hops.
        assert_eq!(mean_path_hops(&demands, &p), 6.0);
        assert_eq!(colocated_fraction(&demands, &p), 0.0);
    }

    #[test]
    fn optimizer_colocates_heavy_strategies() {
        let demands = skewed_demands(40, 4, 4);
        let p = optimize(&demands, 4, 4, 8, 8);
        let loads = rack_loads(&p);
        assert!(loads.values().all(|&c| c <= 8), "{loads:?}");
        let grouped_p = grouped(4, 40, 4, 8);
        let opt_hops = mean_path_hops(&demands, &p);
        let grp_hops = mean_path_hops(&demands, &grouped_p);
        // Optimization buys a meaningful weighted-hop reduction...
        assert!(
            opt_hops < grp_hops - 0.5,
            "opt {opt_hops} vs grouped {grp_hops}"
        );
        // ...by co-locating the heavy head of the distribution.
        assert!(colocated_fraction(&demands, &p) > 0.3);
    }

    #[test]
    fn majority_does_not_benefit_when_racks_are_tight() {
        // §4.1's caveat: with many strategies per normalizer rack, only a
        // few fit next to their feed; the majority still pays 3 hops.
        let demands = skewed_demands(200, 4, 4);
        let p = optimize(&demands, 4, 4, 8, 8);
        let frac = colocated_fraction(&demands, &p);
        assert!(frac < 0.5, "only a minority can co-locate: {frac}");
        // But the *weighted* mean still improves because the co-located
        // minority carries most of the traffic.
        let grp = grouped(4, 200, 4, 8);
        assert!(mean_path_hops(&demands, &p) < mean_path_hops(&demands, &grp));
    }

    #[test]
    fn lower_bound_single_rack() {
        // Everything in one rack: 1 + 1 hops.
        let demands = skewed_demands(4, 2, 1);
        let p = Placement {
            normalizer_rack: vec![0; 2],
            strategy_rack: vec![0; 4],
            gateway_rack: vec![0; 1],
        };
        assert_eq!(mean_path_hops(&demands, &p), 2.0);
    }

    #[test]
    fn empty_demands() {
        let p = grouped(1, 1, 1, 8);
        assert_eq!(mean_path_hops(&[], &p), 0.0);
        assert_eq!(colocated_fraction(&[], &p), 0.0);
    }
}
