//! Fixed-width instrument symbols.
//!
//! US market-data protocols carry symbols as fixed-width, space-padded
//! ASCII (6 bytes in PITCH short messages). `Symbol` is that wire
//! representation, copyable and comparable without allocation.

use std::fmt;

use crate::error::{Result, WireError};

/// A ticker symbol: up to 6 significant ASCII characters, space-padded on
/// the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub [u8; 6]);

impl Symbol {
    /// Build from a string; fails on symbols longer than 6 chars or
    /// containing non-printable ASCII.
    pub fn new(s: &str) -> Result<Symbol> {
        let b = s.as_bytes();
        if b.len() > 6 {
            return Err(WireError::BadField);
        }
        if !b.iter().all(|c| c.is_ascii_graphic()) {
            return Err(WireError::BadField);
        }
        let mut out = [b' '; 6];
        out[..b.len()].copy_from_slice(b);
        Ok(Symbol(out))
    }

    /// Read from 6 wire bytes.
    pub fn from_wire(b: &[u8]) -> Symbol {
        let mut out = [b' '; 6];
        out.copy_from_slice(&b[..6]);
        Symbol(out)
    }

    /// Write to 6 wire bytes.
    pub fn to_wire(self, out: &mut [u8]) {
        out[..6].copy_from_slice(&self.0);
    }

    /// The trimmed string form.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).unwrap_or("??????").trim_end()
    }

    /// First character, used by alphabetical feed partitioning schemes
    /// (§2: "alphabetical by stock ticker's first letter").
    pub fn first_char(&self) -> u8 {
        self.0[0]
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_padding() {
        let s = Symbol::new("SPY").unwrap();
        assert_eq!(s.0, *b"SPY   ");
        assert_eq!(s.as_str(), "SPY");
        assert_eq!(s.to_string(), "SPY");
        assert_eq!(s.first_char(), b'S');
    }

    #[test]
    fn six_char_symbols_fit_exactly() {
        let s = Symbol::new("GOOGL1").unwrap();
        assert_eq!(s.as_str(), "GOOGL1");
    }

    #[test]
    fn invalid_symbols_rejected() {
        assert_eq!(Symbol::new("TOOLONG1"), Err(WireError::BadField));
        assert_eq!(Symbol::new("A B"), Err(WireError::BadField));
        assert_eq!(Symbol::new("A\n"), Err(WireError::BadField));
    }

    #[test]
    fn wire_roundtrip() {
        let s = Symbol::new("QQQ").unwrap();
        let mut buf = [0u8; 8];
        s.to_wire(&mut buf);
        assert_eq!(Symbol::from_wire(&buf), s);
    }
}
