//! Queueing building block: a token bucket.

use tn_sim::SimTime;

/// A token-bucket rate limiter (tokens are bytes).
///
/// Used to shape retransmission servers and to model policers on shared
/// infrastructure. Deterministic: refill is computed lazily from elapsed
/// time.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bytes_per_sec: u64,
    capacity: u64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Bucket refilling at `rate_bytes_per_sec` with burst `capacity`
    /// bytes; starts full.
    pub fn new(rate_bytes_per_sec: u64, capacity: u64) -> TokenBucket {
        assert!(rate_bytes_per_sec > 0 && capacity > 0);
        TokenBucket {
            rate_bytes_per_sec,
            capacity,
            tokens: capacity as f64,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_sub(self.last).as_secs_f64();
        self.last = self.last.max(now);
        self.tokens =
            (self.tokens + elapsed * self.rate_bytes_per_sec as f64).min(self.capacity as f64);
    }

    /// Try to consume `bytes` at time `now`; `true` on success.
    pub fn try_consume(&mut self, now: SimTime, bytes: usize) -> bool {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_limits_rate() {
        let mut tb = TokenBucket::new(1000, 500); // 1 kB/s, 500 B burst
        assert!(tb.try_consume(SimTime::ZERO, 500)); // burst drains the bucket
        assert!(!tb.try_consume(SimTime::ZERO, 1));
        // After 100 ms, 100 bytes refilled.
        let t = SimTime::from_ms(100);
        assert!(tb.try_consume(t, 100));
        assert!(!tb.try_consume(t, 1));
        // Never exceeds capacity.
        let much_later = SimTime::from_secs(100);
        assert!(tb.try_consume(much_later, 500));
        assert!(!tb.try_consume(much_later, 1));
    }

    #[test]
    fn token_bucket_ignores_time_regression() {
        let mut tb = TokenBucket::new(1000, 100);
        assert!(tb.try_consume(SimTime::from_secs(1), 100));
        // An earlier timestamp must not mint tokens.
        assert!(!tb.try_consume(SimTime::ZERO, 50));
    }
}
