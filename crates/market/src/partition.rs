//! Feed partitioning schemes.
//!
//! §2: "exchanges will partition this feed across multiple multicast
//! groups... Some exchanges partition based on the name of the instrument
//! (e.g. alphabetical by stock ticker's first letter), while others
//! partition based on the type of instrument." Both schemes live here,
//! plus the hash scheme firms use internally for re-partitioning.

use tn_wire::Symbol;

use crate::symbols::{InstrumentClass, SymbolDirectory};

/// How symbols map to feed units / partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Alphabetical by first letter, folded onto `units` units.
    ByFirstLetter {
        /// Number of units.
        units: u16,
    },
    /// By instrument class: equities on unit 0, ETFs on 1, options spread
    /// over the remaining `units - 2`.
    ByClass {
        /// Number of units (≥ 3).
        units: u16,
    },
    /// Uniform hash of the ticker (the firm-internal scheme; scales to
    /// any partition count).
    ByHash {
        /// Number of units.
        units: u16,
    },
}

impl PartitionScheme {
    /// Number of units the scheme spreads over.
    pub fn units(&self) -> u16 {
        match *self {
            PartitionScheme::ByFirstLetter { units }
            | PartitionScheme::ByClass { units }
            | PartitionScheme::ByHash { units } => units,
        }
    }

    /// The unit for `symbol`. `dir` supplies class information (only used
    /// by `ByClass`; pass any directory otherwise).
    pub fn unit_for(&self, dir: &SymbolDirectory, symbol: Symbol) -> u16 {
        match *self {
            PartitionScheme::ByFirstLetter { units } => {
                let letter = symbol.first_char().saturating_sub(b'A') as u16;
                letter % units.max(1)
            }
            PartitionScheme::ByClass { units } => {
                debug_assert!(units >= 3);
                match dir.get(symbol).map(|i| i.class) {
                    Some(InstrumentClass::Equity) | None => 0,
                    Some(InstrumentClass::Etf) => 1,
                    Some(InstrumentClass::Option) => {
                        2 + (fnv(symbol) % u64::from(units - 2)) as u16
                    }
                }
            }
            PartitionScheme::ByHash { units } => (fnv(symbol) % u64::from(units.max(1))) as u16,
        }
    }
}

fn fnv(symbol: Symbol) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in symbol.0 {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s).unwrap()
    }

    /// Symbols per unit for a directory: how balanced a scheme is.
    fn load(s: PartitionScheme, dir: &SymbolDirectory) -> Vec<usize> {
        let mut counts = vec![0usize; s.units() as usize];
        for inst in dir.instruments() {
            counts[s.unit_for(dir, inst.symbol) as usize] += 1;
        }
        counts
    }

    #[test]
    fn first_letter_scheme() {
        let dir = SymbolDirectory::new();
        let s = PartitionScheme::ByFirstLetter { units: 4 };
        assert_eq!(s.unit_for(&dir, sym("APPL")), 0);
        assert_eq!(s.unit_for(&dir, sym("BAC")), 1);
        assert_eq!(s.unit_for(&dir, sym("EBAY")), 0); // E = 4 % 4
        assert_eq!(s.units(), 4);
    }

    #[test]
    fn class_scheme_routes_by_class() {
        let mut dir = SymbolDirectory::new();
        dir.add(sym("IBM"), InstrumentClass::Equity);
        dir.add(sym("SPY"), InstrumentClass::Etf);
        dir.add(sym("OPTA"), InstrumentClass::Option);
        dir.add(sym("OPTB"), InstrumentClass::Option);
        let s = PartitionScheme::ByClass { units: 8 };
        assert_eq!(s.unit_for(&dir, sym("IBM")), 0);
        assert_eq!(s.unit_for(&dir, sym("SPY")), 1);
        let ua = s.unit_for(&dir, sym("OPTA"));
        let ub = s.unit_for(&dir, sym("OPTB"));
        assert!((2..8).contains(&ua));
        assert!((2..8).contains(&ub));
        // Unknown symbols default to the equity unit.
        assert_eq!(s.unit_for(&dir, sym("ZZZ")), 0);
    }

    #[test]
    fn hash_scheme_is_stable_and_balanced() {
        let dir = SymbolDirectory::synthetic(2600);
        let s = PartitionScheme::ByHash { units: 13 };
        let u = s.unit_for(&dir, sym("A0000"));
        assert_eq!(s.unit_for(&dir, sym("A0000")), u); // deterministic
        let load = load(s, &dir);
        assert_eq!(load.len(), 13);
        let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        // Hash partitioning should be roughly balanced.
        assert!(*max < 2 * *min, "imbalanced: {load:?}");
        assert_eq!(load.iter().sum::<usize>(), 2600);
    }

    #[test]
    fn alphabetical_skews_with_real_ticker_distributions() {
        // First-letter partitioning balances only if tickers do; our
        // synthetic universe is uniform, so it balances here, but the
        // scheme trivially cannot use more than 26 units.
        let dir = SymbolDirectory::synthetic(260);
        let s = PartitionScheme::ByFirstLetter { units: 52 };
        let load = load(s, &dir);
        let used = load.iter().filter(|&&c| c > 0).count();
        assert!(used <= 26);
    }
}
