//! Partition subscriptions.
//!
//! Strategies subscribe to the internal partitions carrying the symbols
//! they trade (§2). Layer-1 designs cap how many feeds a strategy server
//! takes (§4.3); that cap is applied where the fabric is wired
//! (`tn_topo::l1fabric`), so the set itself is unbounded.

use std::collections::BTreeSet;

/// A set of subscribed partitions.
#[derive(Debug, Clone)]
pub struct SubscriptionSet {
    subscribed: BTreeSet<u16>,
}

impl SubscriptionSet {
    /// An empty set.
    pub fn unbounded() -> SubscriptionSet {
        SubscriptionSet {
            subscribed: BTreeSet::new(),
        }
    }

    /// Subscribe to a partition (idempotent).
    pub fn subscribe(&mut self, partition: u16) {
        self.subscribed.insert(partition);
    }

    /// Membership test — the per-event filter a strategy host runs.
    #[inline]
    pub fn wants(&self, partition: u16) -> bool {
        self.subscribed.contains(&partition)
    }

    /// Subscribed partitions in order.
    pub fn partitions(&self) -> impl Iterator<Item = u16> + '_ {
        self.subscribed.iter().copied()
    }

    /// Current subscription count.
    pub fn len(&self) -> usize {
        self.subscribed.len()
    }

    /// True when nothing is subscribed.
    pub fn is_empty(&self) -> bool {
        self.subscribed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_and_filter() {
        let mut s = SubscriptionSet::unbounded();
        assert!(s.is_empty());
        s.subscribe(3);
        s.subscribe(7);
        s.subscribe(3); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.wants(3));
        assert!(!s.wants(4));
        assert_eq!(s.partitions().collect::<Vec<_>>(), vec![3, 7]);
    }
}
