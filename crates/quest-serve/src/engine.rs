//! [`CachedEngine`]: a thread-safe, cache-fronted wrapper around
//! [`Quest`] that also owns the serving layer's **live-data mutation
//! path**.
//!
//! Two bounded LRU caches sit in front of the pipeline's two expensive
//! stages:
//!
//! * **forward** — normalized keywords (+ data epoch + feedback epoch) →
//!   the full [`ForwardResult`] (both operating-mode decodes and their DST
//!   combination);
//! * **backward** — a configuration's term sequence (+ data epoch) → its
//!   top-k Steiner interpretations.
//!
//! Both stages are pure functions of their key for a fixed engine state, so
//! caching is semantically transparent: a cached search returns bit-identical
//! explanations and scores to an uncached [`Quest::search_query`]. Two
//! monotonic epochs version that state:
//!
//! * the **feedback epoch** ([`Quest::feedback_epoch`]) advances on user
//!   feedback and EM refinement and retires forward entries only;
//! * the **data epoch** ([`CachedEngine::data_epoch`]) advances on every
//!   mutation batch applied through [`CachedEngine::apply`] and retires
//!   *both* caches — backward results embed instance-derived join weights.
//!
//! Entries keyed by a dead epoch can never match again, so on the first
//! search after an epoch bump they are purged outright rather than left to
//! squat in the LRU until capacity-evicted.
//!
//! Mutations serialize against searches through an `RwLock`: searches share
//! the read side, a mutation batch takes the write side, applies its
//! [`ChangeRecord`]s through the database's checked mutation API (indexes
//! maintained incrementally), re-syncs the engine's instance-derived state
//! ([`Quest::resync`]), and bumps the data epoch. Served results after a
//! batch are bit-identical to a cold engine built over the mutated data
//! (asserted by `tests/serve.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

use quest_core::backward::Interpretation;
use quest_core::term::DbTerm;
use quest_core::{
    Configuration, Explanation, ForwardResult, FullAccessWrapper, KeywordQuery, Quest, QuestError,
    SearchOutcome, SearchScratch, SourceWrapper,
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
    /// Entries of the forward cache (distinct keyword queries per epoch
    /// pair). 0 disables it.
    pub forward_capacity: usize,
    /// Entries of the backward cache (distinct configurations per data
    /// epoch). 0 disables it.
    pub backward_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            // A workload's distinct-query set is small next to its volume;
            // configurations are shared across queries, so the backward
            // cache earns a larger budget.
            forward_capacity: 1024,
            backward_capacity: 4096,
        }
    }
}

/// Forward-cache key: data epoch, feedback epoch, and the normalized
/// keyword sequence (normalized text and phrase flag are the only keyword
/// features the pipeline reads, so raw strings that normalize identically
/// share a slot).
type ForwardKey = (u64, u64, Vec<(String, bool)>);

/// Backward-cache key: data epoch plus the configuration's term sequence.
type BackwardKey = (u64, Vec<DbTerm>);

/// A [`Quest`] engine plus the two stage caches, serving counters, and the
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
    /// Epochs each cache was last purged for: `(data, feedback)` for the
    /// forward cache, `data` for the backward cache (whose keys never
    /// involve the feedback model). Per-cache marks keep a feedback-only
    /// bump from ever touching the backward cache, and let each cache skip
    /// its scan independently when its own keying epochs are unchanged.
    purge_mark: Mutex<PurgeMark>,
    // Values are Arc-wrapped so a hit clones a pointer inside the lock and
    // the (potentially large) payload copy happens outside it.
    forward: Mutex<LruCache<ForwardKey, Arc<ForwardResult>>>,
    backward: Mutex<LruCache<BackwardKey, Arc<Vec<Interpretation>>>>,
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
    forward: std::time::Duration,
    backward: std::time::Duration,
    assemble: std::time::Duration,
    forward_cache_hit: bool,
    backward_hits: u32,
    backward_misses: u32,
    template_hits: u64,
    template_misses: u64,
}

/// See [`CachedEngine::purge_stale`].
#[derive(Debug, Default)]
struct PurgeMark {
    forward: (u64, u64),
    backward: u64,
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
            purge_mark: Mutex::new(PurgeMark::default()),
            forward: Mutex::new(LruCache::new(caches.forward_capacity)),
            backward: Mutex::new(LruCache::new(caches.backward_capacity)),
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

    fn forward_cache(&self) -> MutexGuard<'_, LruCache<ForwardKey, Arc<ForwardResult>>> {
        self.forward.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn backward_cache(&self) -> MutexGuard<'_, LruCache<BackwardKey, Arc<Vec<Interpretation>>>> {
        self.backward.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Purge cache entries keyed by epochs that can never match again.
    /// Cheap when nothing changed (one mutex, two compares), and each cache
    /// is scanned only when an epoch *its keys embed* moved: a
    /// feedback-only bump never touches the backward cache, and a cache
    /// whose own mark is current skips its scan entirely — scans happen
    /// once per epoch change, not once per search (pinned by the
    /// `purge_scans` regression test).
    fn purge_stale(&self, data: u64, feedback: u64) {
        let mut mark = self
            .purge_mark
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Epochs are monotonic, so a pair at or below the mark comes from
        // a thread that read the epochs before the last purge; letting it
        // through would evict the *current* epoch's freshly cached entries
        // and regress the mark into a purge ping-pong. (Purging is cache
        // hygiene only — keys match exactly regardless.)
        if (data, feedback) > mark.forward {
            mark.forward = (data, feedback);
            self.forward_cache()
                .retain(|k| k.0 == data && k.1 == feedback);
        }
        if data > mark.backward {
            mark.backward = data;
            self.backward_cache().retain(|k| k.0 == data);
        }
    }

    /// Run Algorithm 1 on a raw query string, through the caches.
    pub fn search(&self, raw_query: &str) -> Result<SearchOutcome, QuestError> {
        let query = KeywordQuery::parse(raw_query)?;
        self.search_query(&query)
    }

    /// [`CachedEngine::search`] with a caller-owned [`SearchScratch`] —
    /// what the [`crate::QueryService`] workers use (one scratch per worker
    /// thread, reused across every query the worker serves).
    pub fn search_with(
        &self,
        raw_query: &str,
        scratch: &mut SearchScratch,
    ) -> Result<SearchOutcome, QuestError> {
        let query = KeywordQuery::parse(raw_query)?;
        self.search_query_with(&query, scratch)
    }

    /// Run Algorithm 1 on a parsed query, through the caches. Results are
    /// identical to an uncached search on the wrapped engine.
    pub fn search_query(&self, query: &KeywordQuery) -> Result<SearchOutcome, QuestError> {
        self.search_query_with(query, &mut SearchScratch::new())
    }

    /// [`CachedEngine::search_query`] with a caller-owned scratch; cache
    /// misses run the engine's allocation-lean hot path instead of
    /// allocating per query. Bit-identical results either way.
    pub fn search_query_with(
        &self,
        query: &KeywordQuery,
        scratch: &mut SearchScratch,
    ) -> Result<SearchOutcome, QuestError> {
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
        let result = self.search_inner(query, scratch, &mut spans, ctx);
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
            backward_cache_hits: spans.backward_hits,
            backward_cache_misses: spans.backward_misses,
            template_memo: TemplateOutcome::from_delta(spans.template_hits, spans.template_misses),
            shard_scatter_us,
        });
        collector.record_with(ctx, "query", Some(t0), [Some(("ok", ok as u64)), None]);
        result
    }

    fn search_inner(
        &self,
        query: &KeywordQuery,
        scratch: &mut SearchScratch,
        spans: &mut SearchSpans,
        ctx: TraceCtx,
    ) -> Result<SearchOutcome, QuestError> {
        // Memoized Steiner interpretations are valid for one engine state
        // only; the engine read lock below pins that state for the whole
        // search.
        scratch.reset_query_state();
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
        // Bind the lookup before matching: a guard born in a match
        // scrutinee lives to the end of the match and would deadlock the
        // insert below.
        let t0 = Instant::now();
        let cached_forward = self.forward_cache().get(&key);
        spans.forward_cache_hit = cached_forward.is_some();
        let forward = match cached_forward {
            Some(hit) => (*hit).clone(), // payload copy happens off-lock
            None => {
                let computed = engine.forward_pass_with(query, scratch)?;
                self.obs.record_uncached_forward(&computed.timings);
                // Only cache if no feedback landed mid-computation; a result
                // spanning an epoch boundary may mix old and new model state
                // and must not be replayed.
                if engine.feedback_epoch() == feedback_epoch {
                    self.forward_cache().insert(key, Arc::new(computed.clone()));
                }
                computed
            }
        };
        let forward_wall = t0.elapsed();
        quest_obs::spans().record_with(
            ctx,
            "query_forward",
            Some(t0),
            [Some(("cache_hit", spans.forward_cache_hit as u64)), None],
        );

        // The template memo's counters before/after bracket this query's
        // Steiner work; shared counters make the delta best-effort under
        // concurrency (documented on `QueryTrace::template_memo`).
        let templates_before = engine.backward().template_stats();
        let t0 = Instant::now();
        let mut interpretations = Vec::with_capacity(forward.configurations.len());
        for cfg in &forward.configurations {
            let bkey: BackwardKey = (data_epoch, cfg.terms.clone());
            let cached_backward = self.backward_cache().get(&bkey);
            let interps = match cached_backward {
                Some(hit) => {
                    spans.backward_hits += 1;
                    (*hit).clone()
                }
                None => {
                    spans.backward_misses += 1;
                    let computed = engine.backward_pass_with(cfg, scratch)?;
                    self.backward_cache()
                        .insert(bkey, Arc::new(computed.clone()));
                    computed
                }
            };
            interpretations.push(interps);
        }
        let backward_time = t0.elapsed();
        quest_obs::spans().record_with(
            ctx,
            "query_backward",
            Some(t0),
            [
                Some(("cache_hits", u64::from(spans.backward_hits))),
                Some(("cache_misses", u64::from(spans.backward_misses))),
            ],
        );
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

    /// Drop all cached entries (counters are preserved).
    pub fn clear_caches(&self) {
        self.forward_cache().clear();
        self.backward_cache().clear();
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
            let c = self.backward_cache();
            stats.backward_cache = CacheStats {
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
        for (prefix, cache) in [
            ("forward", &stats.forward_cache),
            ("backward", &stats.backward_cache),
        ] {
            registry
                .gauge(&format!("quest_serve_{prefix}_cache_hits"))
                .set(cache.hits as i64);
            registry
                .gauge(&format!("quest_serve_{prefix}_cache_misses"))
                .set(cache.misses as i64);
            registry
                .gauge(&format!("quest_serve_{prefix}_cache_entries"))
                .set(cache.entries as i64);
            registry
                .gauge(&format!("quest_serve_{prefix}_cache_purge_scans"))
                .set(cache.purge_scans as i64);
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

    #[test]
    fn cached_search_matches_uncached() {
        let cached = CachedEngine::new(engine());
        let reference = engine();
        for raw in ["wind fleming", "fleming", "wind"] {
            let a = cached.search(raw).unwrap(); // cold: fills caches
            let b = cached.search(raw).unwrap(); // warm: from caches
            let c = reference.search(raw).unwrap(); // uncached reference
            same_outcome(&a, &c);
            same_outcome(&b, &c);
        }
        let stats = cached.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.forward_cache.hits, 3);
        assert_eq!(stats.forward_cache.misses, 3);
        assert!(stats.backward_cache.hits > 0);
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
        let backward_before = stats.backward_cache.entries;
        assert!(backward_before > 0);

        // Feedback kills forward entries only; backward survives (it never
        // depends on the feedback model).
        let best = cached.search("wind").unwrap().explanations[0].clone();
        let query = KeywordQuery::parse("wind").unwrap();
        cached.feedback(&query, &best, true).unwrap();
        let _ = cached.search("wind").unwrap();
        let stats = cached.stats();
        assert_eq!(
            stats.forward_cache.entries, 1,
            "only the post-feedback entry remains: {stats}"
        );
        assert_eq!(stats.backward_cache.entries, backward_before);

        // A data mutation kills both.
        cached
            .apply(&[ChangeRecord::Insert {
                table: "person".into(),
                row: vec![50.into(), "Orson Welles".into()],
            }])
            .unwrap();
        let _ = cached.search("welles").unwrap();
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.entries, 1);
        assert!(
            stats.backward_cache.entries <= backward_before,
            "dead-data-epoch backward entries were purged: {stats}"
        );
    }

    #[test]
    fn epoch_purges_scan_once_per_change_not_per_search() {
        let cached = CachedEngine::new(engine());
        for raw in ["wind", "fleming"] {
            let _ = cached.search(raw).unwrap();
        }
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.purge_scans, 0, "no epoch changed yet");
        assert_eq!(stats.backward_cache.purge_scans, 0);

        // Many searches after one feedback bump: exactly one forward scan;
        // the backward cache (feedback-free keys) is never scanned.
        let best = cached.search("wind").unwrap().explanations[0].clone();
        let query = KeywordQuery::parse("wind").unwrap();
        cached.feedback(&query, &best, true).unwrap();
        for _ in 0..5 {
            let _ = cached.search("wind").unwrap();
        }
        let stats = cached.stats();
        assert_eq!(stats.forward_cache.purge_scans, 1, "{stats}");
        assert_eq!(stats.backward_cache.purge_scans, 0, "{stats}");

        // One mutation batch: one more scan per (non-empty) cache, no
        // matter how many searches follow.
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
        assert_eq!(stats.backward_cache.purge_scans, 1, "{stats}");
    }

    #[test]
    fn stage_latency_counters_accumulate() {
        let cached = CachedEngine::new(engine());
        let mut scratch = SearchScratch::new();
        let _ = cached.search_with("wind fleming", &mut scratch).unwrap();
        let cold = cached.stats();
        assert_eq!(cold.stages.uncached_forward, 1, "cold search computes");
        assert!(cold.stages.forward > std::time::Duration::ZERO);
        assert!(cold.stages.emissions > std::time::Duration::ZERO);
        assert!(cold.stages.assemble > std::time::Duration::ZERO);

        // A warm repeat adds wall time to the stage buckets but computes no
        // new forward pass.
        let _ = cached.search_with("wind fleming", &mut scratch).unwrap();
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
                backward_capacity: 0,
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
        let _ = cached.search("Fleming").unwrap();
        let _ = cached.search("  fleming  ").unwrap();
        let stats = cached.stats();
        assert_eq!(
            stats.forward_cache.hits, 1,
            "case/whitespace variants share one cache slot"
        );
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
        assert!(
            cold.backward_cache_misses > 0,
            "cold search enumerates at least one configuration"
        );
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
