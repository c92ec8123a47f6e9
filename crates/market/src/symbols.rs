//! Symbol directory: instrument classes and interned ids.
//!
//! Firms maintain a dictionary mapping exchange tickers to internal
//! integer ids (used by the normalized format) and instrument classes
//! (used by class-based feed partitioning, §2).

use tn_sim::FastMap;
use tn_wire::Symbol;

/// Broad instrument classes relevant to partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrumentClass {
    /// Common stock.
    Equity,
    /// Exchange-traded fund.
    Etf,
    /// Listed option series (aggregated per underlier here).
    Option,
}

/// One listed instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instrument {
    /// Ticker.
    pub symbol: Symbol,
    /// Firm-internal id (dense, 0-based — indexes arrays).
    pub id: u32,
    /// Class.
    pub class: InstrumentClass,
}

/// The directory.
#[derive(Debug, Default, Clone)]
pub struct SymbolDirectory {
    by_symbol: FastMap<Symbol, Instrument>,
    by_id: Vec<Instrument>,
}

impl SymbolDirectory {
    /// Empty directory.
    pub fn new() -> SymbolDirectory {
        SymbolDirectory::default()
    }

    /// Add an instrument; returns its interned id. Idempotent per symbol.
    pub fn add(&mut self, symbol: Symbol, class: InstrumentClass) -> u32 {
        if let Some(i) = self.by_symbol.get(&symbol) {
            return i.id;
        }
        let id = self.by_id.len() as u32;
        let inst = Instrument { symbol, id, class };
        self.by_symbol.insert(symbol, inst);
        self.by_id.push(inst);
        id
    }

    /// Look up by ticker.
    pub fn get(&self, symbol: Symbol) -> Option<Instrument> {
        self.by_symbol.get(&symbol).copied()
    }

    /// Look up by interned id.
    pub fn by_id(&self, id: u32) -> Option<Instrument> {
        self.by_id.get(id as usize).copied()
    }

    /// Number of instruments.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// All instruments in id order.
    pub fn instruments(&self) -> &[Instrument] {
        &self.by_id
    }

    /// A synthetic universe of `n` instruments with a realistic class mix
    /// (60% equities, 15% ETFs, 25% option underliers), tickers `S0000`….
    pub fn synthetic(n: usize) -> SymbolDirectory {
        let mut dir = SymbolDirectory::new();
        for i in 0..n {
            // Tickers spread across the alphabet so alphabetical
            // partitioning has work to do.
            // `{letter}{i % 10_000:04}`, space-padded, written in place.
            let digits = i % 10_000;
            let sym = Symbol([
                b'A' + (i % 26) as u8,
                b'0' + (digits / 1000) as u8,
                b'0' + (digits / 100 % 10) as u8,
                b'0' + (digits / 10 % 10) as u8,
                b'0' + (digits % 10) as u8,
                b' ',
            ]);
            let class = match i % 20 {
                0..=11 => InstrumentClass::Equity,
                12..=14 => InstrumentClass::Etf,
                _ => InstrumentClass::Option,
            };
            dir.add(sym, class);
        }
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s).unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let mut d = SymbolDirectory::new();
        let a = d.add(sym("SPY"), InstrumentClass::Etf);
        let b = d.add(sym("IBM"), InstrumentClass::Equity);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(d.add(sym("SPY"), InstrumentClass::Etf), 0); // idempotent
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(sym("SPY")).unwrap().class, InstrumentClass::Etf);
        assert_eq!(d.by_id(1).unwrap().symbol, sym("IBM"));
        assert!(d.by_id(5).is_none());
        assert!(d.get(sym("ZZZ")).is_none());
    }

    #[test]
    fn synthetic_tickers_are_a_letter_and_four_digits() {
        let d = SymbolDirectory::synthetic(10_030);
        for i in [0usize, 27, 1_234, 9_999, 10_029] {
            let letter = (b'A' + (i % 26) as u8) as char;
            let want = sym(&format!("{letter}{:04}", i % 10_000));
            assert_eq!(d.instruments()[i].symbol, want, "ticker {i}");
        }
    }

    #[test]
    fn synthetic_universe_mix() {
        let d = SymbolDirectory::synthetic(1000);
        assert_eq!(d.len(), 1000);
        let eq = d
            .instruments()
            .iter()
            .filter(|i| i.class == InstrumentClass::Equity)
            .count();
        let opt = d
            .instruments()
            .iter()
            .filter(|i| i.class == InstrumentClass::Option)
            .count();
        assert!(eq > 500 && eq < 700, "equities {eq}");
        assert!(opt > 200 && opt < 300, "options {opt}");
        // Tickers span the alphabet.
        let first_letters: std::collections::HashSet<u8> = d
            .instruments()
            .iter()
            .map(|i| i.symbol.first_char())
            .collect();
        assert_eq!(first_letters.len(), 26);
    }
}
