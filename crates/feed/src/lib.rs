//! # tn-feed — feed consumption substrate
//!
//! Everything a trading firm does with a raw exchange feed before a
//! strategy sees it (§2): one merge stage, then decode.
//!
//! * [`retrans`] — the merge stage and gap recovery. [`Reorderer`] puts
//!   A/B copies, late arrivals and retransmitted ranges back into
//!   sequence order per unit (cursor, bounded hold, gap requests);
//!   [`RecoveryClient`] adds the timeout/backoff retry policy;
//!   [`RetransmissionServer`] is the exchange half, replaying from a
//!   bounded history under a rate limit.
//! * [`arb`] — A/B feed arbitration: exchanges publish the feed twice;
//!   receivers take whichever copy arrives first, deduplicate by
//!   sequence, and skip forward over gaps. [`Arbiter`] is the same merge
//!   with nothing held, plus the per-side counters.
//! * [`bookbuild`] — reconstructs per-symbol book state from the stateful
//!   PITCH message stream (executions and deletes don't carry symbols, so
//!   consumers must track order ids) and surfaces BBO changes.
//! * [`normalize`] — the normalizer core: native feed in (through an
//!   [`Arbiter`]), fixed-size normalized records out, re-partitioned onto
//!   the firm's internal scheme.
//! * [`subscribe`] — partition subscription sets.
//! * [`nodes`] — the recovery machinery packaged as simulation nodes
//!   ([`nodes::RecoveryReceiver`], [`nodes::RetransUnit`]) for the
//!   fault-injection experiments.
//!
//! Hand-off rule: a stage owns its output buffer and lends a view of it
//! until its next call — `&[pitch::Message]` out of the merge,
//! `&[NormalizerOutput]` out of the normalizer, the history ring's own
//! bytes out of the server. Nothing returns an owned batch.

pub mod arb;
pub mod bookbuild;
pub mod nodes;
pub mod normalize;
pub mod retrans;
pub mod subscribe;

pub use arb::{ArbStats, Arbiter};
pub use bookbuild::BookBuilder;
pub use normalize::NormalizerCore;
pub use retrans::{RecoveryClient, RecoveryConfig, Reorderer, RetransmissionServer};
pub use subscribe::SubscriptionSet;
