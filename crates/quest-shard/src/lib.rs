//! # quest-shard — horizontal sharding with bit-identical scatter-gather
//!
//! Partitions a `relstore` database into N shards by a hash of each row's
//! primary key, runs QUEST's forward pass per shard, and merges per-shard
//! score and statistics state so that the final ranking is **bit-identical**
//! to the unsharded engine — same SQL text, same score bits, same order.
//!
//! The layers, bottom up:
//!
//! * [`Partitioner`] — stable PK-hash routing (FNV-1a over a canonical
//!   value encoding that mirrors `Value`'s equality, so a row's shard never
//!   depends on *how* its key is spelled).
//! * [`ShardedStore`] — N FK-less shard [`Database`](relstore::Database)s
//!   behind one full catalog. Mutations route by PK hash and reproduce the
//!   unsharded database's check order and error strings; referential
//!   integrity is enforced *globally* by the store (shard catalogs carry no
//!   foreign keys, so a shard never rejects a cross-shard reference).
//!   Scores and attribute statistics merge through the mergeable
//!   accumulators of `relstore`
//!   ([`ScoreAccumulator`](relstore::index::ScoreAccumulator),
//!   [`AttributeStatsAccumulator`](relstore::stats::AttributeStatsAccumulator)):
//!   integer state (df, doc counts, lengths) sums across shards, and every
//!   floating-point expression is evaluated **once** from the merged
//!   integers — which is what makes the merge exact rather than
//!   approximately associative. Join statistics need no merge: the store
//!   keeps the global per-foreign-key counters
//!   ([`JoinCountSet`](relstore::stats::JoinCountSet)) itself and updates
//!   them from each routed mutation in O(1).
//! * [`ShardedWrapper`] / [`ScatterGather`] — a
//!   [`SourceWrapper`](quest_core::SourceWrapper) over the store plus a
//!   cached serving engine. One scatter per keyword precomputes the whole
//!   per-attribute score table, so the engine's emission pass never fans
//!   out per `(keyword, attribute)` pair.
//! * [`ShardedPrimary`] — a shard is the unit of replication: each shard
//!   commits through its own [`Primary`](quest_replica::Primary) (own WAL,
//!   own snapshots), a router fans accepted records out by partition key,
//!   and a shard that fails a commit is fenced in the topology — queries
//!   against a set with a broken shard return a typed
//!   [`ShardError::ShardDown`], never silently partial results.
//!
//! The identity discipline is pinned end to end by `tests/shard.rs` (the
//! repo-level shard identity suite) and by this crate's partitioner
//! property suite.

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod partition;
pub mod scatter;
pub mod store;
pub mod topology;
pub mod wrapper;

pub use config::{ShardConfig, MAX_SHARD_COUNT};
pub use error::ShardError;
pub use partition::{partition_key, Partitioner};
pub use scatter::ScatterGather;
pub use store::ShardedStore;
pub use topology::{ShardReceipt, ShardTopology, ShardedPrimary};
pub use wrapper::ShardedWrapper;

/// The shard layer's metric names in the [`quest_obs::global`] registry.
pub mod names {
    /// Per-shard wall time inside one keyword scatter
    /// (`quest_shard_scatter_ns{shard="<i>"}`; histogram, nanoseconds).
    pub const SCATTER: &str = "quest_shard_scatter_ns";
    /// Fan-out imbalance of the latest scatter: how far the busiest shard
    /// ran over the mean, in whole percent (gauge; 0 = perfectly even).
    pub const FANOUT_IMBALANCE: &str = "quest_shard_fanout_imbalance_pct";
    /// Per-shard probes a keyword scatter issued — every `(attribute,
    /// shard)` pair fanned out to, whether or not it matched (counter; the
    /// numerator of the scatter read-amplification ratio).
    pub const SCATTER_PROBES: &str = "quest_shard_scatter_probes_total";
    /// Scatter results the gather actually used: attribute slots whose
    /// merged score came back nonzero (counter; the denominator of the
    /// scatter read-amplification ratio).
    pub const SCATTER_USED: &str = "quest_shard_scatter_results_used_total";
    /// Searches or commits refused because a shard was fenced (counter).
    pub const DOWN: &str = "quest_shard_down_total";
    /// Shards fenced — by a failed commit, a divergent copy, or an
    /// operator (counter).
    pub const FENCE: &str = "quest_shard_fence_total";
}
