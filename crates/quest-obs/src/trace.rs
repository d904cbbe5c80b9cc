//! Per-query span traces, the bounded trace ring, and the slow-query log.
//!
//! A [`QueryTrace`] is one query's stage walls plus the cache/template/shard
//! facts that explain them. Traces land in a [`TraceRing`] — a fixed-size
//! ring addressed by an atomic head, so concurrent writers claim distinct
//! slots without a shared lock — and queries whose total wall clears the
//! configured threshold are additionally copied into a second, smaller ring:
//! the slow-query log. Trace construction is **lazy**
//! ([`TraceSink::record_with`]): when neither ring wants the trace (tracing
//! disabled, query under the slow threshold), the builder closure is never
//! called and the fast path allocates nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// What the backward module's join-path template memo did for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TemplateOutcome {
    /// Every consulted template was memoized.
    Hit,
    /// At least one template had to be computed.
    Miss,
    /// The memo was not consulted (e.g. the answer came from a serving
    /// layer's cache).
    #[default]
    Unused,
}

impl TemplateOutcome {
    /// Classify a per-query delta of the memo's hit/miss counters.
    pub fn from_delta(hits: u64, misses: u64) -> TemplateOutcome {
        match (hits, misses) {
            (0, 0) => TemplateOutcome::Unused,
            (_, 0) => TemplateOutcome::Hit,
            _ => TemplateOutcome::Miss,
        }
    }
}

/// One query's span record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// Monotonic sequence number assigned by the ring (0 until stored).
    pub seq: u64,
    /// The raw query text.
    pub query: String,
    /// Whether the search succeeded.
    pub ok: bool,
    /// Total wall time, microseconds.
    pub total_us: u64,
    /// Forward-stage wall (cache lookup plus any computation), microseconds.
    pub forward_us: u64,
    /// Backward-stage wall, microseconds.
    pub backward_us: u64,
    /// Assembly wall, microseconds.
    pub assemble_us: u64,
    /// Whether the forward cache served the whole answer (then the
    /// backward and assembly fields are zero).
    pub forward_cache_hit: bool,
    /// What the join-path template memo did (best-effort under concurrency:
    /// the delta of shared counters can blend in a concurrent query's work).
    pub template_memo: TemplateOutcome,
    /// Per-shard scatter work during the forward stage, `(shard index,
    /// microseconds)`; empty on unsharded engines or forward-cache hits.
    pub shard_scatter_us: Vec<(usize, u64)>,
}

/// A fixed-capacity ring of traces: writers claim slots with one atomic
/// `fetch_add`, so the only lock ever touched is the claimed slot's own
/// (contended only when the ring wraps onto an in-flight writer).
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<QueryTrace>>>,
    head: AtomicU64,
}

impl TraceRing {
    /// A ring holding the last `capacity` traces (0 disables storage).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Maximum traces held.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Traces ever pushed (stored plus overwritten).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Store a trace, overwriting the oldest once full. Assigns `seq`.
    pub fn push(&self, mut trace: QueryTrace) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        trace.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(trace);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        let mut traces: Vec<QueryTrace> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        traces.sort_by_key(|t| t.seq);
        traces
    }

    /// Drop every stored trace (the head — and with it `seq` — keeps
    /// counting).
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

/// Tracing knobs, resolvable from the environment.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Capacity of the all-queries trace ring (0 disables it).
    pub ring_capacity: usize,
    /// Capacity of the slow-query log.
    pub slow_capacity: usize,
    /// Queries at or above this many microseconds of total wall enter the
    /// slow-query log; 0 disables the log.
    pub slow_query_us: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 256,
            slow_capacity: 64,
            // 50ms: far above any healthy QUEST query, so the log stays
            // silent until something is genuinely wrong.
            slow_query_us: 50_000,
        }
    }
}

impl TraceConfig {
    /// Defaults overridden by `QUEST_OBS_TRACE_CAPACITY` and
    /// `QUEST_OBS_SLOW_QUERY_US` (unparsable values fall back silently —
    /// observability must never take the service down).
    pub fn from_env() -> TraceConfig {
        let mut config = TraceConfig::default();
        if let Some(n) = env_u64("QUEST_OBS_TRACE_CAPACITY") {
            config.ring_capacity = n as usize;
        }
        if let Some(n) = env_u64("QUEST_OBS_SLOW_QUERY_US") {
            config.slow_query_us = n;
        }
        config
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// The trace ring and slow-query log behind one lazy recording API.
#[derive(Debug)]
pub struct TraceSink {
    config: TraceConfig,
    ring: TraceRing,
    slow: TraceRing,
    slow_total: AtomicU64,
}

impl TraceSink {
    /// Build a sink from explicit knobs.
    pub fn new(config: TraceConfig) -> TraceSink {
        TraceSink {
            ring: TraceRing::new(config.ring_capacity),
            slow: TraceRing::new(config.slow_capacity),
            slow_total: AtomicU64::new(0),
            config,
        }
    }

    /// The knobs this sink runs with.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Whether a query of `total_us` would be stored anywhere. When this is
    /// false the caller can skip building the trace entirely — which is
    /// what keeps fast queries allocation-free when only the slow log is on.
    pub fn wants(&self, total_us: u64) -> bool {
        self.ring.capacity() > 0 || self.is_slow(total_us)
    }

    fn is_slow(&self, total_us: u64) -> bool {
        self.config.slow_query_us > 0 && total_us >= self.config.slow_query_us
    }

    /// Record lazily: `build` runs only if some ring will store the trace.
    /// Returns whether the query was classified slow.
    pub fn record_with(&self, total_us: u64, build: impl FnOnce() -> QueryTrace) -> bool {
        let slow = self.is_slow(total_us);
        if !self.wants(total_us) {
            return false;
        }
        let trace = build();
        if slow {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            if self.ring.capacity() == 0 {
                self.slow.push(trace);
                return true;
            }
            self.slow.push(trace.clone());
        }
        self.ring.push(trace);
        slow
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.ring.recent()
    }

    /// The retained slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<QueryTrace> {
        self.slow.recent()
    }

    /// Queries ever classified slow (retained or since overwritten).
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }
}

/// Thread-local per-shard scatter accounting.
///
/// The sharded store's scatter fan-out happens levels below the serving
/// layer that owns the query trace, with no shared object between them. The
/// store deposits its per-shard timings here (on the query's own thread,
/// after its internal fan-out joins), and the serving layer drains them into
/// the [`QueryTrace`] when the query completes. A query runs on one thread
/// end to end, so the handoff needs no synchronization.
pub mod scatter {
    use std::cell::RefCell;

    thread_local! {
        static SCATTER: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
    }

    /// Deposit one shard's scatter work (microseconds) for the query
    /// currently running on this thread.
    pub fn record(shard: usize, us: u64) {
        SCATTER.with(|s| s.borrow_mut().push((shard, us)));
    }

    /// Drain everything deposited on this thread since the last take.
    pub fn take() -> Vec<(usize, u64)> {
        SCATTER.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }

    /// Drop deposits without allocating (start-of-query hygiene).
    pub fn reset() {
        SCATTER.with(|s| s.borrow_mut().clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(total_us: u64) -> QueryTrace {
        QueryTrace {
            query: "q".into(),
            ok: true,
            total_us,
            forward_us: total_us / 2,
            backward_us: total_us / 4,
            assemble_us: total_us / 4,
            ..QueryTrace::default()
        }
    }

    #[test]
    fn ring_keeps_the_last_capacity_traces() {
        let ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(trace(i));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|t| t.total_us).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(
            recent.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(ring.pushed(), 5);
    }

    #[test]
    fn zero_capacity_ring_stores_nothing() {
        let ring = TraceRing::new(0);
        ring.push(trace(1));
        assert!(ring.recent().is_empty());
    }

    #[test]
    fn slow_log_gates_on_threshold_and_fast_queries_skip_the_builder() {
        let sink = TraceSink::new(TraceConfig {
            ring_capacity: 0, // only the slow log is live
            slow_capacity: 8,
            slow_query_us: 1000,
        });
        let mut built = false;
        let slow = sink.record_with(999, || {
            built = true;
            trace(999)
        });
        assert!(!slow);
        assert!(!built, "fast query must not build a trace");
        assert!(sink.slow_queries().is_empty());

        let slow = sink.record_with(1000, || trace(1000));
        assert!(slow);
        let slow_queries = sink.slow_queries();
        assert_eq!(slow_queries.len(), 1);
        assert_eq!(slow_queries[0].total_us, 1000);
        assert_eq!(sink.slow_total(), 1);
    }

    #[test]
    fn disabled_slow_log_never_classifies() {
        let sink = TraceSink::new(TraceConfig {
            ring_capacity: 2,
            slow_capacity: 2,
            slow_query_us: 0,
        });
        assert!(!sink.record_with(u64::MAX, || trace(1)));
        assert!(sink.slow_queries().is_empty());
        assert_eq!(sink.recent().len(), 1, "the main ring still stores");
    }

    #[test]
    fn scatter_handoff_roundtrips_per_thread() {
        scatter::reset();
        scatter::record(0, 10);
        scatter::record(3, 7);
        assert_eq!(scatter::take(), vec![(0, 10), (3, 7)]);
        assert!(scatter::take().is_empty(), "take drains");
    }

    #[test]
    fn template_outcome_classification() {
        assert_eq!(TemplateOutcome::from_delta(0, 0), TemplateOutcome::Unused);
        assert_eq!(TemplateOutcome::from_delta(2, 0), TemplateOutcome::Hit);
        assert_eq!(TemplateOutcome::from_delta(2, 1), TemplateOutcome::Miss);
    }
}
