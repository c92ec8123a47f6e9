//! The one hasher for maps on the per-frame path.
//!
//! Switches, books and feed handlers look a key up for every frame, and
//! std's default SipHash-1-3 costs more than the lookup it serves. Their
//! keys — addresses, ports, order ids, symbols — are all made inside the
//! simulation, so nothing an adversary chooses can reach them, and
//! SipHash's collision resistance buys nothing. [`FastHasher`] is
//! rustc-hash 2's 64-bit scheme: an add and a multiply per word, and a
//! rotation at the end. The rotation matters: hashbrown takes a bucket from
//! the hash's low bits, which a multiply leaves poorly mixed, so without
//! it all 1,024 addresses `10.0.r.h` land in one bucket of 1,024.
//!
//! The hasher has no seed, so a map's iteration order depends only on
//! what was inserted. That order never reaches a trace, and std's
//! per-instance seeds were already varying it run to run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through `FastHasher`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// A `HashSet` keyed through `FastHasher`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// The odd multiplier rustc-hash 2 folds each word in with; the run
/// digest (`crate::trace::fold_event`) folds with it too.
pub(crate) const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Unseeded word-at-a-time hasher for keys the program makes itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Little-endian words, the last one zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hash};

    fn fast<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    #[test]
    fn every_build_hasher_hashes_a_key_alike() {
        let key = ([10u8, 0, 3, 7], 4_242u64);
        assert_eq!(fast(&key), fast(&key));
        // What std's per-map seeds do not give: two RandomStates
        // disagree on the same key.
        let (a, b) = (RandomState::new(), RandomState::new());
        assert_ne!(a.hash_one(key), b.hash_one(key));
    }

    /// Distinct values the low 10 bits of the hash take over `keys`: the
    /// bits a 1,024-bucket table indexes by.
    fn low_bits_spread<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let buckets: HashSet<u64> = keys.map(|k| fast(&k) & 0x3ff).collect();
        buckets.len()
    }

    #[test]
    fn low_bits_spread_over_addresses_counters_and_high_words() {
        // An `ipv4::Addr` is a `[u8; 4]`: 32 racks of 32 hosts.
        let addrs = (0..32u8).flat_map(|r| (0..32u8).map(move |h| [10u8, 0, r, h]));
        assert!(low_bits_spread(addrs) >= 400);
        assert!(low_bits_spread(0..1_024u32) >= 400);
        assert!(low_bits_spread((0..1_024u64).map(|i| i << 32)) >= 400);
    }

    #[test]
    fn byte_tails_are_padded_not_dropped() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_ne!(a.finish(), b.finish());
        let mut c = FastHasher::default();
        c.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        c.write_u64(9);
        assert_eq!(a.finish(), c.finish());
    }
}
