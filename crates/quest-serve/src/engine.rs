//! [`CachedEngine`]: a thread-safe, cache-fronted wrapper around
//! [`Quest`] that also owns the serving layer's **live-data mutation
//! path**.
//!
//! One bounded LRU cache of answers sits in front of the pipeline:
//! normalized keywords (+ data epoch + feedback epoch) → the assembled
//! answer, a whole [`SearchOutcome`]. A hit returns it with the caller's
//! own parsed query in place of the one that filled the slot, and runs no
//! stage at all.
//!
//! The answer is a pure function of its key for a fixed engine state, so
//! caching is semantically transparent: a cached search returns bit-identical
//! explanations and scores to an uncached [`Quest::search_query`]. An answer
//! reads the normalized keywords (never the raw text), the configurations
//! and interpretations, the engine config (fixed behind a `CachedEngine`)
//! and the data (through empty-result pruning); the key's two monotonic
//! epochs version everything else:
//!
//! * the **feedback epoch** ([`Quest::feedback_epoch`]) advances on user
//!   feedback and EM refinement;
//! * the **data epoch** ([`CachedEngine::data_epoch`]) advances on every
//!   mutation batch applied through [`CachedEngine::apply`].
//!
//! Entries keyed by a dead epoch can never match again, so they are purged
//! outright after an epoch bump rather than left to squat in the LRU until
//! capacity-evicted.
//!
//! A miss runs the whole pipeline on a search scratch kept per thread, so
//! every caller — a [`crate::QueryService`] worker or waiter, a replica, a
//! scatter gateway — reuses its decoder, emission and Steiner buffers
//! across queries. Distinct queries that reach the same Steiner terminals
//! share interpretations through the engine's join-template memo (see
//! [`Quest::backward_pass_with`]), which every resync rebuilds.
//!
//! Mutations serialize against searches through an `RwLock`: searches share
//! the read side, a mutation batch takes the write side, applies its
//! [`ChangeRecord`]s through the database's checked mutation API (indexes
//! maintained incrementally), re-syncs the engine's instance-derived state
//! ([`Quest::resync`]), and bumps the data epoch. Served results after a
//! batch are bit-identical to a cold engine built over the mutated data
//! (asserted by `tests/serve.rs`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use quest_core::{
    Configuration, Explanation, FullAccessWrapper, KeywordQuery, Quest, QuestError, SearchOutcome,
    SearchScratch, SourceWrapper,
};
use quest_obs::{
    duration_us, HealthInputs, MetricsRegistry, QueryTrace, SloSpec, TemplateOutcome, TraceConfig,
    TraceCtx, TraceKind, WindowAggregator,
};
use quest_wal::ChangeRecord;

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::stats::{names, CacheStats, ServeObs, ServeStats};

/// Cache-tuning knobs of the serving layer.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Entries of the forward cache: assembled answers, one per distinct
    /// normalized keyword query and epoch pair. 0 disables it.
    pub forward_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            // A workload's distinct-query set is small next to its volume.
            forward_capacity: 1024,
        }
    }
}

/// Forward-cache key: data epoch, feedback epoch, and the normalized
/// keyword sequence (normalized text and phrase flag are the only keyword
/// features the pipeline reads, so raw strings that normalize identically
/// share a slot).
type ForwardKey = (u64, u64, Vec<(String, bool)>);

thread_local! {
    /// One search scratch per thread, reused by every cache miss that
    /// thread computes.
    static SCRATCH: Cell<SearchScratch> = Cell::default();
}

/// Run `f` on this thread's scratch. It is taken out for the call, so a
/// search that panics leaves a fresh scratch behind rather than
/// half-written buffers.
fn with_thread_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let result = f(&mut scratch);
    SCRATCH.set(scratch);
    result
}

/// A [`Quest`] engine plus the answer cache, serving counters, and the
/// mutation path.
///
/// All methods take `&self`; wrap it in an [`std::sync::Arc`] to share one
/// instance — and one warm cache — across threads.
#[derive(Debug)]
pub struct CachedEngine<W: SourceWrapper> {
    engine: RwLock<Quest<W>>,
    /// Monotonic data version: bumped by every mutation batch that changes
    /// what a search can return. Written only under the engine write lock;
    /// read under the read lock, so searches see a consistent pair of
    /// (engine state, epoch).
    data_epoch: AtomicU64,
    /// Externally assigned progress marker (e.g. the replication LSN a
    /// replica engine has applied through); surfaced in [`ServeStats`].
    watermark: AtomicU64,
    /// The `(data, feedback)` epochs the forward cache was last purged
    /// for; see [`CachedEngine::purge_stale`].
    purge_mark: Mutex<(u64, u64)>,
    // Values are Arc-wrapped so a hit clones a pointer inside the lock and
    // the (potentially large) payload copy happens outside it.
    forward: Mutex<LruCache<ForwardKey, Arc<SearchOutcome>>>,
    obs: ServeObs,
    /// Optional SLO monitor ([`CachedEngine::set_slo`]): the declarative
    /// spec plus the rolling window [`CachedEngine::stats`] feeds. Strictly
    /// observational — grading never feeds back into serving.
    slo: Mutex<Option<SloMonitor>>,
}

/// See [`CachedEngine::set_slo`].
#[derive(Debug)]
struct SloMonitor {
    spec: SloSpec,
    window: WindowAggregator,
}

/// Per-search span accounting filled by `search_inner` and turned into a
/// [`QueryTrace`] (lazily — only when a ring wants it) by the caller.
#[derive(Debug, Default)]
struct SearchSpans {
    forward: Duration,
    backward: Duration,
    assemble: Duration,
    forward_cache_hit: bool,
    template_hits: u64,
    template_misses: u64,
}

impl<W: SourceWrapper> CachedEngine<W> {
    /// Front `engine` with default-sized caches.
    pub fn new(engine: Quest<W>) -> CachedEngine<W> {
        CachedEngine::with_caches(engine, CacheConfig::default())
    }

    /// Front `engine` with explicitly sized caches, a fresh per-engine
    /// metrics registry, and tracing knobs from the environment
    /// (`QUEST_OBS_TRACE_CAPACITY`, `QUEST_OBS_SLOW_QUERY_US`).
    pub fn with_caches(engine: Quest<W>, caches: CacheConfig) -> CachedEngine<W> {
        CachedEngine::with_obs(
            engine,
            caches,
            Arc::new(MetricsRegistry::new()),
            TraceConfig::from_env(),
        )
    }

    /// Front `engine` with explicit caches, metrics registry, and tracing
    /// knobs. Pass [`MetricsRegistry::disabled`] for a near-no-op recording
    /// stack, or a shared registry to aggregate several engines into one
    /// scrape.
    pub fn with_obs(
        engine: Quest<W>,
        caches: CacheConfig,
        registry: Arc<MetricsRegistry>,
        trace: TraceConfig,
    ) -> CachedEngine<W> {
        CachedEngine {
            engine: RwLock::new(engine),
            data_epoch: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            purge_mark: Mutex::new((0, 0)),
            forward: Mutex::new(LruCache::new(caches.forward_capacity)),
            obs: ServeObs::new(registry, trace),
            slo: Mutex::new(None),
        }
    }

    /// The engine's metrics registry (counters, gauges, and the per-stage
    /// latency histograms; export with [`quest_obs::to_prometheus_text`]
    /// or [`quest_obs::to_json`]).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.obs.registry()
    }

    /// The retained per-query traces, oldest first (bounded ring; capacity
    /// via [`TraceConfig::ring_capacity`]).
    pub fn traces(&self) -> Vec<QueryTrace> {
        self.obs.traces.recent()
    }

    /// The retained slow queries — total wall at or above
    /// [`TraceConfig::slow_query_us`] — oldest first.
    pub fn slow_queries(&self) -> Vec<QueryTrace> {
        self.obs.traces.slow_queries()
    }

    /// Read access to the wrapped engine. The guard shares the lock with
    /// concurrent searches; a mutation batch waits until it is dropped.
    pub fn engine(&self) -> RwLockReadGuard<'_, Quest<W>> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current data epoch: how many mutation batches have been applied.
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch.load(Ordering::Acquire)
    }

    /// The externally assigned progress marker (0 until set). A replica
    /// engine stores the replication LSN it has applied through here, so
    /// lag is readable off [`CachedEngine::stats`] snapshots.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Publish a new progress marker. Monotonicity is the caller's
    /// contract; the engine only stores and reports it.
    pub fn set_watermark(&self, watermark: u64) {
        self.watermark.store(watermark, Ordering::Release);
    }

    /// Install (or replace) an SLO health monitor. Every subsequent
    /// [`CachedEngine::stats`] feeds the monitor's rolling window
    /// (`QUEST_OBS_WINDOW_SECS` wide) with the registry snapshot and grades
    /// the windowed p99 and error rate into [`ServeStats::health`].
    /// Monitoring is strictly observational: served results are
    /// byte-identical with a spec installed or not (pinned by
    /// `tests/serve.rs`).
    pub fn set_slo(&self, spec: SloSpec) {
        *self.slo.lock().unwrap_or_else(PoisonError::into_inner) = Some(SloMonitor {
            spec,
            window: WindowAggregator::from_env(),
        });
    }

    fn forward_cache(&self) -> MutexGuard<'_, LruCache<ForwardKey, Arc<SearchOutcome>>> {
        self.forward.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Purge cache entries keyed by epochs that can never match again.
    /// Cheap when nothing changed (one mutex, one compare): the cache is
    /// scanned once per epoch change, not once per search (pinned by the
    /// `purge_scans` regression test).
    fn purge_stale(&self, data: u64, feedback: u64) {
        let dead = {
            let mut mark = self
                .purge_mark
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // Epochs are monotonic, so a pair at or below the mark comes
            // from a thread that read the epochs before the last purge;
            // letting it through would evict the *current* epoch's freshly
            // cached entries and regress the mark into a purge ping-pong.
            // (Purging is cache hygiene only — keys match exactly
            // regardless.)
            if (data, feedback) <= *mark {
                return;
            }
            *mark = (data, feedback);
            self.forward_cache()
                .retain(|k| k.0 == data && k.1 == feedback)
        };
        // Freed only now that both locks are released: dropping a cache
        // full of answers takes far longer than unlinking it, and no
        // search should wait on that.
        drop(dead);
    }

    /// Run Algorithm 1 on a raw query string, through the caches.
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, QuestError> {
        let query = KeywordQuery::parse(raw_query)?;
        self.search_query(&query)
    }

    /// Run Algorithm 1 on a parsed query, through the caches. Results are
    /// identical to an uncached search on the wrapped engine. A miss
    /// computes on a scratch kept per thread and reused across queries.
    pub fn search_query(&self, query: &KeywordQuery) -> Result<SearchOutcome, QuestError> {
        self.search_traced(query)
    }

    fn search_traced(&self, query: &KeywordQuery) -> Result<SearchOutcome, QuestError> {
        let t0 = Instant::now();
        // Drop any scatter deposits a panicking predecessor left on this
        // thread, so they cannot be attributed to this query.
        quest_obs::scatter::reset();
        let collector = quest_obs::spans();
        let ctx = if collector.is_enabled() {
            collector.ctx(TraceKind::Query)
        } else {
            TraceCtx::detached(TraceKind::Query)
        };
        let mut spans = SearchSpans::default();
        let result = self.search_inner(query, &mut spans, ctx);
        let elapsed = t0.elapsed();
        self.obs.record(elapsed, result.is_ok());
        let shard_scatter_us = quest_obs::scatter::take();
        let ok = result.is_ok();
        self.obs.trace_with(elapsed, || QueryTrace {
            seq: 0, // assigned by the ring
            query: query.raw.clone(),
            ok,
            total_us: duration_us(elapsed),
            forward_us: duration_us(spans.forward),
            backward_us: duration_us(spans.backward),
            assemble_us: duration_us(spans.assemble),
            forward_cache_hit: spans.forward_cache_hit,
            template_memo: TemplateOutcome::from_delta(spans.template_hits, spans.template_misses),
            shard_scatter_us,
        });
        collector.record_with(ctx, "query", Some(t0), [Some(("ok", ok as u64)), None]);
        result
    }

    fn search_inner(
        &self,
        query: &KeywordQuery,
        spans: &mut SearchSpans,
        ctx: TraceCtx,
    ) -> Result<SearchOutcome, QuestError> {
        // Cached answers and memoized Steiner interpretations are valid for
        // one engine state only; the engine read lock pins that state for
        // the whole search.
        let engine = self.engine();
        // Both epochs are stable for the lifetime of the read guard except
        // the feedback epoch, which can advance concurrently (feedback only
        // needs the read side); the insert below re-checks it.
        let data_epoch = self.data_epoch();
        let feedback_epoch = engine.feedback_epoch();
        self.purge_stale(data_epoch, feedback_epoch);
        let key: ForwardKey = (
            data_epoch,
            feedback_epoch,
            query
                .keywords
                .iter()
                .map(|k| (k.normalized.clone(), k.phrase))
                .collect(),
        );
        // A statement of its own, so the cache lock is released before a
        // hit's payload is copied and before a miss computes.
        let t0 = Instant::now();
        let cached = self.forward_cache().get(&key);
        if let Some(hit) = cached {
            // The key pins every input of the answer but the raw query
            // text, which is the caller's own.
            let mut outcome = SearchOutcome::clone(&hit);
            outcome.query = query.clone();
            let wall = t0.elapsed();
            spans.forward_cache_hit = true;
            spans.forward = wall;
            quest_obs::spans().record_with(
                ctx,
                "query_forward",
                Some(t0),
                [Some(("cache_hit", 1)), None],
            );
            self.obs
                .record_stage_walls(wall, Duration::ZERO, Duration::ZERO);
            return Ok(outcome);
        }
        let outcome =
            with_thread_scratch(|scratch| self.compute(&engine, query, t0, scratch, spans, ctx))?;
        // Only cache if no feedback landed mid-computation; an answer
        // spanning an epoch boundary may mix old and new model state and
        // must not be replayed.
        if engine.feedback_epoch() == feedback_epoch {
            self.forward_cache().insert(key, Arc::new(outcome.clone()));
        }
        Ok(outcome)
    }

    /// A forward-cache miss: the forward pass, each configuration's
    /// interpretations through the template memo, then assembly. `t0` is
    /// when the search's forward lookup started.
    fn compute(
        &self,
        engine: &Quest<W>,
        query: &KeywordQuery,
        t0: Instant,
        scratch: &mut SearchScratch,
        spans: &mut SearchSpans,
        ctx: TraceCtx,
    ) -> Result<SearchOutcome, QuestError> {
        scratch.reset_query_state();
        let forward = engine.forward_pass_with(query, scratch)?;
        self.obs.record_uncached_forward(&forward.timings);
        let forward_wall = t0.elapsed();
        quest_obs::spans().record_with(
            ctx,
            "query_forward",
            Some(t0),
            [Some(("cache_hit", 0)), None],
        );

        // The template memo's counters before/after bracket this query's
        // Steiner work; shared counters make the delta best-effort under
        // concurrency (documented on `QueryTrace::template_memo`).
        let templates_before = engine.backward().template_stats();
        let t0 = Instant::now();
        let mut interpretations = Vec::with_capacity(forward.configurations.len());
        for cfg in &forward.configurations {
            interpretations.push(engine.backward_pass_with(cfg, scratch)?);
        }
        let backward_time = t0.elapsed();
        quest_obs::spans().record(ctx, "query_backward", Some(t0));
        let templates_after = engine.backward().template_stats();
        spans.template_hits = templates_after.hits.saturating_sub(templates_before.hits);
        spans.template_misses = templates_after
            .misses
            .saturating_sub(templates_before.misses);
        let t0 = Instant::now();
        let outcome = engine.assemble_with(query, forward, interpretations, backward_time, scratch);
        let assemble_wall = t0.elapsed();
        quest_obs::spans().record(ctx, "query_assemble", Some(t0));
        spans.forward = forward_wall;
        spans.backward = backward_time;
        spans.assemble = assemble_wall;
        self.obs
            .record_stage_walls(forward_wall, backward_time, assemble_wall);
        outcome
    }

    /// Record user feedback on an explanation (see [`Quest::feedback`]).
    /// Bumps the feedback epoch, so forward-cache entries built on the old
    /// model stop matching and are purged on the next search.
    pub fn feedback(
        &self,
        query: &KeywordQuery,
        explanation: &Explanation,
        positive: bool,
    ) -> Result<(), QuestError> {
        self.engine().feedback(query, explanation, positive)
    }

    /// Directly record a validated configuration (see
    /// [`Quest::feedback_configuration`]).
    pub fn feedback_configuration(
        &self,
        config: &Configuration,
        positive: bool,
    ) -> Result<(), QuestError> {
        self.engine().feedback_configuration(config, positive)
    }

    /// Drop all cached answers (counters are preserved).
    pub fn clear_caches(&self) {
        self.forward_cache().clear();
    }

    /// A point-in-time snapshot of hit/miss/latency counters.
    ///
    /// Counters kept outside the registry (cache hit/miss tallies inside
    /// the LRU locks, the epochs, the template memo) are mirrored into
    /// registry gauges here, so [`ServeStats::metrics`] — and with it the
    /// `Display` rendering and both exporters — always covers every public
    /// counter.
    pub fn stats(&self) -> ServeStats {
        let mut stats = ServeStats::default();
        self.obs.snapshot_into(&mut stats);
        stats.data_epoch = self.data_epoch();
        stats.watermark = self.watermark();
        {
            let c = self.forward_cache();
            stats.forward_cache = CacheStats {
                hits: c.hits(),
                misses: c.misses(),
                entries: c.len(),
                capacity: c.capacity(),
                purge_scans: c.retain_scans(),
            };
        }
        {
            let engine = self.engine();
            stats.join_templates = engine.backward().template_stats();
            stats.shards = engine.wrapper().shard_count();
        }
        let registry = self.metrics();
        for (name, value) in [
            ("quest_serve_data_epoch", stats.data_epoch as i64),
            ("quest_serve_watermark", stats.watermark as i64),
            ("quest_serve_shards", stats.shards as i64),
            (
                "quest_serve_join_template_hits",
                stats.join_templates.hits as i64,
            ),
            (
                "quest_serve_join_template_misses",
                stats.join_templates.misses as i64,
            ),
            (
                "quest_serve_join_template_entries",
                stats.join_templates.entries as i64,
            ),
        ] {
            registry.gauge(name).set(value);
        }
        let cache = &stats.forward_cache;
        for (name, value) in [
            ("quest_serve_forward_cache_hits", cache.hits),
            ("quest_serve_forward_cache_misses", cache.misses),
            ("quest_serve_forward_cache_entries", cache.entries as u64),
            ("quest_serve_forward_cache_purge_scans", cache.purge_scans),
        ] {
            registry.gauge(name).set(value as i64);
        }
        stats.metrics = registry.snapshot();
        if let Some(monitor) = self
            .slo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            monitor.window.observe(&stats.metrics);
            let rates = monitor.window.query_rates(names::QUERIES, names::ERRORS);
            let inputs = HealthInputs {
                p99_us: monitor
                    .window
                    .percentile(names::LATENCY, 99.0)
                    .map(|ns| ns / 1_000),
                error_rate: rates.map(|r| r.error_rate),
                lag: None,
            };
            stats.health = Some(monitor.spec.evaluate(&inputs));
        }
        stats
    }
}

/// What a mutation batch did: how many records took effect and which were
/// rejected (by zero-based batch index, with the storage error).
#[derive(Debug, Default)]
pub struct ApplyReport {
    /// Records applied.
    pub applied: usize,
    /// Rejected records: `(index within the batch, why)`. Rejections are
    /// deterministic functions of the database state at that log position,
    /// which is what lets WAL replay reproduce them exactly.
    pub rejected: Vec<(usize, relstore::StoreError)>,
}

impl ApplyReport {
    /// Whether every record applied.
    pub fn all_applied(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// A source the serving layer can mutate in place: the wrapper-specific
/// half of [`CachedEngine::apply`].
///
/// Implementations route each record through the store's *checked* mutation
/// API with the batch semantics the write-ahead protocol relies on: records
/// apply or are rejected independently and in order, and a rejection is a
/// deterministic function of the store state at that position (so WAL
/// replay reproduces it exactly). [`FullAccessWrapper`] applies to its one
/// database; a sharded wrapper routes each record to its shard after
/// global integrity checks.
pub trait MutableSource: SourceWrapper {
    /// Apply each record in order, filling `report` with what happened.
    fn apply_changes(&mut self, changes: &[ChangeRecord], report: &mut ApplyReport);
}

impl MutableSource for FullAccessWrapper {
    fn apply_changes(&mut self, changes: &[ChangeRecord], report: &mut ApplyReport) {
        // Indexes and join counters are maintained per record in O(row),
        // so applying a batch costs O(batch) however large the tables are.
        // The resync that follows re-reads each FK's NMI from its counters.
        let db = self.database_mut();
        for (i, change) in changes.iter().enumerate() {
            match change.apply(db) {
                Ok(_) => report.applied += 1,
                Err(e) => report.rejected.push((i, e)),
            }
        }
    }
}

impl<W: SourceWrapper + MutableSource> CachedEngine<W> {
    /// Apply a batch of live-data mutations, serialized against searches.
    ///
    /// Each record applies — or is rejected — **independently and
    /// deterministically** through the database's checked mutation API
    /// (referential integrity enforced, inverted indexes and join counters
    /// maintained per record). A rejected record does not stop the batch; the report
    /// says exactly which indices were rejected and why. These per-record
    /// semantics are what make the write-ahead protocol sound: the caller
    /// logs the whole batch *before* applying it, and because a rejection
    /// is a pure function of the database state at that log position, WAL
    /// replay re-rejects exactly the records the live system rejected and
    /// converges on the identical state.
    ///
    /// If anything applied, the engine re-syncs its instance-derived state
    /// and the data epoch advances, retiring every cache entry built on
    /// the old data; an all-rejected batch leaves engine, epoch, and
    /// caches untouched. Durability is the caller's concern: append
    /// records to a [`quest_wal::WalWriter`] and sync *before* handing
    /// them here.
    ///
    /// **Single mutation writer.** The replay guarantee assumes log order
    /// equals apply order. `apply` serializes batches against each other
    /// (engine write lock), but the WAL writer is a separate object — two
    /// threads that each append-then-apply can interleave so the lock is
    /// won in the opposite order of their appends. Route all mutations
    /// through one writer (append + `apply` under one serialization
    /// point), as the example and tests do.
    pub fn apply(&self, changes: &[ChangeRecord]) -> Result<ApplyReport, ServeError> {
        self.apply_in(changes, TraceCtx::detached(TraceKind::Commit))
    }

    /// [`CachedEngine::apply`] under an explicit trace context, so the
    /// `engine_apply` and `cache_epoch_bump` spans join the caller's commit
    /// trace (`Primary::commit` in the `quest-replica` crate threads its
    /// context through here).
    pub fn apply_in(
        &self,
        changes: &[ChangeRecord],
        ctx: TraceCtx,
    ) -> Result<ApplyReport, ServeError> {
        let mut report = ApplyReport::default();
        if changes.is_empty() {
            return Ok(report);
        }
        let apply_started = quest_obs::spans().start();
        let mut engine = self.engine.write().unwrap_or_else(PoisonError::into_inner);
        engine.source_mut().apply_changes(changes, &mut report);
        if report.applied > 0 {
            // Bump the epoch and re-sync instance-derived engine state
            // (MI-weighted schema graph) while still under the write lock:
            // no search can observe the new data with the old epoch or
            // vice versa. The bump and purge come first so that even a
            // failed re-sync (unreachable for ChangeRecords, which cannot
            // alter the catalog) can never leave stale cache entries
            // serving over mutated data. An all-rejected batch changed
            // nothing, so it pays for none of this.
            let bump_started = quest_obs::spans().start();
            self.data_epoch.fetch_add(1, Ordering::AcqRel);
            let resync = engine.resync();
            let (data, feedback) = (self.data_epoch(), engine.feedback_epoch());
            drop(engine);
            self.purge_stale(data, feedback);
            quest_obs::spans().record_with(
                ctx,
                "cache_epoch_bump",
                bump_started,
                [Some(("data_epoch", data)), None],
            );
            resync.map_err(ServeError::Engine)?;
        }
        quest_obs::spans().record_with(
            ctx,
            "engine_apply",
            apply_started,
            [
                Some(("applied", report.applied as u64)),
                Some(("rejected", report.rejected.len() as u64)),
            ],
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::engine;
    use relstore::Value;

    fn same_outcome(a: &SearchOutcome, b: &SearchOutcome) {
        assert_eq!(a.explanations.len(), b.explanations.len());
        for (x, y) in a.explanations.iter().zip(&b.explanations) {
            assert_eq!(x.score, y.score);
            assert_eq!(x.configuration.terms, y.configuration.terms);
            assert_eq!(x.statement, y.statement);
        }
        assert_eq!(a.effective_o_cf, b.effective_o_cf);
    }

    /// SQL text and score bits of every explanation, and the raw query.
    fn answer(engine: &Quest<FullAccessWrapper>, out: &SearchOutcome) -> Vec<(String, u64)> {
        let catalog = engine.wrapper().catalog();
        let mut rows = vec![(out.query.raw.clone(), out.effective_o_cf.to_bits())];
        rows.extend(
            out.explanations
                .iter()
                .map(|e| (e.sql(catalog), e.score.to_bits())),
        );
        rows
    }

    /// Search `raw` cold, then warm: both answers equal the reference
    /// pipeline's on the engine's current state, and the warm repeat is
    /// served whole from the forward cache — no forward pass, no
    /// join-template lookup.
    fn assert_cold_and_warm_match_reference(cached: &CachedEngine<FullAccessWrapper>, raw: &str) {
        let cold = cached.search(raw).unwrap();
        let before = cached.stats();
        let warm = cached.search(raw).unwrap();
        let after = cached.stats();
        assert_eq!(after.forward_cache.hits, before.forward_cache.hits + 1);
        assert_eq!(
            after.stages.uncached_forward,
            before.stages.uncached_forward
        );
        let lookups = |s: &ServeStats| s.join_templates.hits + s.join_templates.misses;
        assert_eq!(lookups(&after), lookups(&before), "{raw:?}: {after}");
        let engine = cached.engine();
        let reference = engine
            .search_query_reference(&KeywordQuery::parse(raw).unwrap())
            .unwrap();
        let expected = answer(&engine, &reference);
        assert_eq!(answer(&engine, &cold), expected, "cold {raw:?}");
        assert_eq!(answer(&engine, &warm), expected, "warm {raw:?}");
    }

    #[test]
    fn cached_search_matches_uncached() {
        let cached = CachedEngine::new(engine());
        let queries = ["wind fleming", "fleming", "wind"];
        for raw in queries {
            assert_cold_and_warm_match_reference(&cached, raw);
        }
        let stats = cached.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.forward_cache.hits, 3);
        assert_eq!(stats.forward_cache.misses, 3);

        // A feedback bump retires the cached answers; the misses that
        // refill them, and the hits after, match the trained reference.
        let query = KeywordQuery::parse("wind fleming").unwrap();
        let best = cached.search("wind fleming").unwrap().explanations[0].clone();
        for _ in 0..5 {
            cached.feedback(&query, &best, true).unwrap();
        }
        for raw in queries {
            assert_cold_and_warm_match_reference(&cached, raw);
        }

        // So does a mutation batch.
        let report = cached
            .apply(&[ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![12.into(), "Wind Across the Everglades".into(), 1.into()],
            }])
            .unwrap();
        assert!(report.all_applied());
        for raw in queries {
            assert_cold_and_warm_match_reference(&cached, raw);
        }
    }

    #[test]
    fn distinct_queries_share_join_templates() {
        let cached = CachedEngine::new(engine());
        let _ = cached.search("fleming").unwrap();
        let filled = cached.stats();
        assert_eq!(filled.join_templates.hits, 0);
        assert!(filled.join_templates.misses > 0);
        // Both name the same person, so they reach the same configuration
        // and with it the same Steiner terminals.
        let victor = cached.search("victor").unwrap();
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.misses, 2, "a distinct answer slot");
        assert!(stats.join_templates.hits > 0, "{stats}");
        same_outcome(&victor, &engine().search("victor").unwrap());
    }

    #[test]
    fn feedback_epoch_invalidates_forward_entries() {
        let cached = CachedEngine::new(engine());
        let before = cached.search("wind fleming").unwrap();
        let _warm = cached.search("wind fleming").unwrap();
        assert_eq!(cached.stats().forward_cache.hits, 1);

        // Feedback bumps the epoch: the next search must recompute the
        // forward stage and reflect the trained model.
        let best = before.explanations[0].clone();
        let query = KeywordQuery::parse("wind fleming").unwrap();
        for _ in 0..5 {
            cached.feedback(&query, &best, true).unwrap();
        }
        let after = cached.search("wind fleming").unwrap();
        assert_eq!(
            cached.stats().forward_cache.hits,
            1,
            "post-feedback search must miss the forward cache"
        );
        assert!(
            !after.feedback_configs.is_empty(),
            "trained model must now contribute"
        );
        same_outcome(&after, &cached.engine().search("wind fleming").unwrap());
    }

    #[test]
    fn epoch_bump_reclaims_cache_capacity() {
        // Entries keyed by dead epochs are purged on the next search, not
        // left to squat until capacity eviction.
        let cached = CachedEngine::new(engine());
        for raw in ["wind", "fleming", "wind fleming", "victor"] {
            let _ = cached.search(raw).unwrap();
        }
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.entries, 4);

        // Feedback kills every answer built on the old model.
        let best = cached.search("wind").unwrap().explanations[0].clone();
        let query = KeywordQuery::parse("wind").unwrap();
        cached.feedback(&query, &best, true).unwrap();
        let _ = cached.search("wind").unwrap();
        let stats = cached.stats();
        assert_eq!(
            stats.forward_cache.entries, 1,
            "only the post-feedback entry remains: {stats}"
        );

        // So does a data mutation, which purges them itself.
        cached
            .apply(&[ChangeRecord::Insert {
                table: "person".into(),
                row: vec![50.into(), "Orson Welles".into()],
            }])
            .unwrap();
        assert_eq!(cached.stats().forward_cache.entries, 0);
        let _ = cached.search("welles").unwrap();
        assert_eq!(cached.stats().forward_cache.entries, 1);
    }

    #[test]
    fn epoch_purges_scan_once_per_change_not_per_search() {
        let cached = CachedEngine::new(engine());
        for raw in ["wind", "fleming"] {
            let _ = cached.search(raw).unwrap();
        }
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.purge_scans, 0, "no epoch changed yet");

        // Many searches after one feedback bump: exactly one scan.
        let best = cached.search("wind").unwrap().explanations[0].clone();
        let query = KeywordQuery::parse("wind").unwrap();
        cached.feedback(&query, &best, true).unwrap();
        for _ in 0..5 {
            let _ = cached.search("wind").unwrap();
        }
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.purge_scans, 1, "{stats}");

        // One mutation batch: one more scan, no matter how many searches
        // follow.
        cached
            .apply(&[ChangeRecord::Insert {
                table: "person".into(),
                row: vec![60.into(), "Extra Person".into()],
            }])
            .unwrap();
        for _ in 0..5 {
            let _ = cached.search("wind").unwrap();
        }
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.purge_scans, 2, "{stats}");
    }

    #[test]
    fn stage_latency_counters_accumulate() {
        let cached = CachedEngine::new(engine());
        let _ = cached.search("wind fleming").unwrap();
        let cold = cached.stats();
        assert_eq!(cold.stages.uncached_forward, 1, "cold search computes");
        assert!(cold.stages.forward > std::time::Duration::ZERO);
        assert!(cold.stages.emissions > std::time::Duration::ZERO);
        assert!(cold.stages.assemble > std::time::Duration::ZERO);

        // A warm repeat adds wall time to the stage buckets but computes no
        // new forward pass.
        let _ = cached.search("wind fleming").unwrap();
        let warm = cached.stats();
        assert_eq!(warm.stages.uncached_forward, 1, "warm search hits");
        assert_eq!(warm.stages.emissions, cold.stages.emissions);
        assert!(warm.stages.forward >= cold.stages.forward);
        let text = warm.to_string();
        assert!(text.contains("stages:"), "{text}");
    }

    #[test]
    fn watermark_is_stored_and_reported() {
        let cached = CachedEngine::new(engine());
        assert_eq!(cached.watermark(), 0);
        cached.set_watermark(42);
        assert_eq!(cached.watermark(), 42);
        assert_eq!(cached.stats().watermark, 42);
    }

    #[test]
    fn mutations_are_visible_and_match_a_cold_engine() {
        let cached = CachedEngine::new(engine());
        let _warm = cached.search("wind fleming").unwrap();
        assert_eq!(cached.data_epoch(), 0);

        let batch = vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![2.into(), "Mervyn LeRoy".into()],
            },
            ChangeRecord::Insert {
                table: "movie".into(),
                row: vec![11.into(), "The Wizard of Oz".into(), 2.into()],
            },
        ];
        let report = cached.apply(&batch).unwrap();
        assert_eq!(report.applied, 2);
        assert!(report.all_applied());
        assert_eq!(cached.data_epoch(), 1);

        // Served results over the mutated data are bit-identical to a cold
        // engine built on an identically mutated database.
        let reference = {
            let guard = cached.engine();
            Quest::new(
                FullAccessWrapper::new(guard.wrapper().database().clone()),
                guard.config().clone(),
            )
            .unwrap()
        };
        for raw in ["oz leroy", "wind fleming", "wizard"] {
            let served = cached.search(raw).unwrap();
            let cold = reference.search(raw).unwrap();
            same_outcome(&served, &cold);
        }
    }

    #[test]
    fn rejections_are_per_record_and_reported() {
        let cached = CachedEngine::new(engine());
        let batch = vec![
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![3.into(), "Kept".into()],
            },
            ChangeRecord::Delete {
                // Fleming still directs a movie: restricted.
                table: "person".into(),
                key: vec![Value::Int(1)],
            },
            ChangeRecord::Insert {
                table: "person".into(),
                row: vec![4.into(), "Also Kept".into()],
            },
        ];
        let report = cached.apply(&batch).unwrap();
        // Per-record semantics: the rejection does not stop the batch —
        // exactly what WAL replay will reproduce from the logged records.
        assert_eq!(report.applied, 2);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, 1);
        assert!(matches!(
            report.rejected[0].1,
            relstore::StoreError::ForeignKeyViolation(_)
        ));
        assert_eq!(cached.data_epoch(), 1);
        let name = cached
            .engine()
            .wrapper()
            .catalog()
            .attr_id("person", "name")
            .unwrap();
        let db = cached.engine().wrapper().database().clone();
        assert!(db.search_score(name, "kept") > 0.0);
        assert!(db.validate().is_ok());
        // An all-rejected batch leaves epoch and engine untouched.
        let report = cached
            .apply(&[ChangeRecord::Delete {
                table: "person".into(),
                key: vec![Value::Int(1)],
            }])
            .unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(cached.data_epoch(), 1, "no state change, no epoch bump");
        // An empty batch is a no-op.
        assert!(cached.apply(&[]).unwrap().all_applied());
        assert_eq!(cached.data_epoch(), 1);
    }

    #[test]
    fn disabled_caches_still_correct() {
        let cached = CachedEngine::with_caches(
            engine(),
            CacheConfig {
                forward_capacity: 0,
            },
        );
        let a = cached.search("wind fleming").unwrap();
        let b = cached.search("wind fleming").unwrap();
        same_outcome(&a, &b);
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.hits, 0);
        assert_eq!(stats.forward_cache.entries, 0);
    }

    #[test]
    fn normalization_shares_forward_slots() {
        let cached = CachedEngine::new(engine());
        let first = cached.search("Fleming").unwrap();
        let second = cached.search("  fleming  ").unwrap();
        let stats = cached.stats();
        assert_eq!(
            stats.forward_cache.hits, 1,
            "case/whitespace variants share one cache slot"
        );
        // The shared answer carries each caller's own raw query.
        assert_eq!(first.query.raw, "Fleming");
        assert_eq!(second.query.raw, "  fleming  ");
        assert_eq!(second.query.keywords[0].raw, "fleming");
        same_outcome(&first, &second);
    }

    #[test]
    fn clear_caches_forces_recompute() {
        let cached = CachedEngine::new(engine());
        let _ = cached.search("wind").unwrap();
        cached.clear_caches();
        let _ = cached.search("wind").unwrap();
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.hits, 0);
        assert_eq!(stats.forward_cache.misses, 2);
    }

    /// Every public counter the serving layer exposes is present in the
    /// registry snapshot, and the `Display` rendering (which iterates the
    /// snapshot) therefore names all of them — nothing can be registered
    /// yet dropped from the human-readable report.
    #[test]
    fn display_covers_every_registered_metric() {
        use crate::stats::names;

        let cached = CachedEngine::new(engine());
        let _ = cached.search("wind fleming").unwrap();
        let _ = cached.search("wind fleming").unwrap();
        let stats = cached.stats();

        // The core recorder metrics and every snapshot-time mirror gauge
        // must exist in the snapshot...
        let expected = [
            names::QUERIES,
            names::ERRORS,
            names::SLOW_QUERIES,
            names::LATENCY,
            names::STAGE_FORWARD,
            names::STAGE_BACKWARD,
            names::STAGE_ASSEMBLE,
            names::STAGE_EMISSIONS,
            names::STAGE_DECODE,
            names::STAGE_COMBINE,
            names::UNCACHED_FORWARD,
        ];
        for name in expected.iter().chain(names::MIRRORS) {
            assert!(
                stats.metrics.get(name).is_some(),
                "metric {name} missing from the snapshot"
            );
        }
        // ...and every snapshot metric must appear in the rendering.
        let text = stats.to_string();
        for m in &stats.metrics.metrics {
            assert!(
                text.contains(&m.full_name()),
                "metric {} registered but absent from Display:\n{text}",
                m.full_name()
            );
        }
        // The mirrors agree with the typed fields they shadow.
        assert_eq!(
            stats.metrics.gauge("quest_serve_forward_cache_hits"),
            Some(stats.forward_cache.hits as i64)
        );
        assert_eq!(
            stats.metrics.gauge("quest_serve_join_template_entries"),
            Some(stats.join_templates.entries as i64)
        );
        assert_eq!(
            stats.metrics.counter(names::QUERIES),
            Some(stats.queries),
            "registry counter and typed field are the same number"
        );
    }

    /// Traces carry real per-stage attribution: a cold search misses the
    /// forward cache and a warm repeat hits it, stage walls never exceed
    /// the total, and with a floor-zero threshold every query lands in the
    /// slow log with its stage breakdown.
    #[test]
    fn traces_attribute_stages_and_cache_outcomes() {
        let cached = CachedEngine::with_obs(
            engine(),
            CacheConfig::default(),
            Arc::new(quest_obs::MetricsRegistry::new()),
            quest_obs::TraceConfig {
                ring_capacity: 8,
                slow_capacity: 8,
                // 1µs floor: any real search clears it, so everything
                // classifies as slow (0 would disable the log).
                slow_query_us: 1,
            },
        );
        let _ = cached.search("wind fleming").unwrap();
        let _ = cached.search("wind fleming").unwrap();

        let traces = cached.traces();
        assert_eq!(traces.len(), 2);
        let (cold, warm) = (&traces[0], &traces[1]);
        assert_eq!(cold.query, "wind fleming");
        assert!(!cold.forward_cache_hit, "first search computes forward");
        assert!(warm.forward_cache_hit, "repeat is served from the cache");
        assert_eq!(
            cold.template_memo,
            TemplateOutcome::Miss,
            "cold search enumerates at least one Steiner tree set"
        );
        assert_eq!(warm.template_memo, TemplateOutcome::Unused);
        for t in [cold, warm] {
            assert!(
                t.forward_us + t.backward_us + t.assemble_us <= t.total_us,
                "stage attribution exceeds the total wall: {t:?}"
            );
            assert!(t.ok);
        }
        // Threshold 0 classifies everything slow, in both the log and the
        // counters.
        assert_eq!(cached.slow_queries().len(), 2);
        assert_eq!(cached.stats().slow_queries, 2);
    }
}
