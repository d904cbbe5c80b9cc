//! The sharded store: N FK-less shard databases behind one full catalog.
//!
//! ## Merge laws (what makes sharded ≡ unsharded, bit for bit)
//!
//! * **Integer domain first.** Everything that crosses a shard boundary is
//!   an integer: document counts, total token lengths, per-token document
//!   frequencies, max term frequencies, row/null/distinct counts. Integer
//!   sums and maxes are exactly associative, so the merge order cannot
//!   perturb them.
//! * **Join counters at the gateway.** Shard catalogs carry no foreign keys,
//!   so shards keep no join statistics. The store keeps the *global*
//!   per-foreign-key counters ([`JoinCountSet`]) and folds every routed
//!   mutation into them in O(1), probing target liveness on the owning
//!   shard — the same counters, the same NMI evaluation, as the unsharded
//!   database.
//! * **One float evaluation.** Every floating-point expression (idf, tf
//!   saturation, normalization, NMI entropy) is evaluated **once**, from
//!   the merged integers, through the *same* code path the unsharded
//!   database uses — never "merged" in the float domain.
//! * **Phrase scatter under injected idfs.** Multi-token scoring needs
//!   per-row conjunctive sums. A row's postings live wholly on its shard,
//!   so each shard reruns the conjunctive accumulation under the *merged*
//!   idfs and the gather step takes the max — the only cross-shard float
//!   operation, and max is exact.
//! * **Global checks, local storage.** Shard catalogs carry no foreign
//!   keys; the store performs every referential-integrity check globally
//!   (routing each probe by PK hash, and answering "is this key still
//!   referenced?" from the gateway's counters) *before* any shard mutates,
//!   and reproduces the unsharded database's check order and error strings.
//!   Records a shard is asked to apply therefore never fail locally, which
//!   is what keeps per-shard WAL replay deterministic.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use quest_serve::ApplyReport;
use quest_wal::ChangeRecord;
use relstore::index::{KeywordProbe, ScoreAccumulator};
use relstore::sql::{ResultSet, SelectStatement};
use relstore::stats::{AttributeStats, AttributeStatsAccumulator, JoinCountSet, JoinStats};
use relstore::{
    AttrId, Catalog, Database, ForeignKey, Row, RowId, StoreError, TableData, TableId, Value,
};

use crate::config::ShardConfig;
use crate::error::ShardError;
use crate::partition::Partitioner;

/// Render a PK tuple for error messages, exactly like the unsharded store.
fn fmt_key(key: &[Value]) -> String {
    Row::new(key.to_vec()).to_string()
}

/// Run `f(0..n)` either serially or chunked across scoped threads,
/// returning results in index order regardless.
fn map_range<T, F>(n: usize, parallel: bool, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = if parallel {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n)
    } else {
        1
    };
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                s.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Whether `key` is a live primary key of `table`, probing only the shard
/// the key hashes to.
fn pk_live(shards: &[Database], partitioner: &Partitioner, table: TableId, key: &Value) -> bool {
    let key = std::slice::from_ref(key);
    shards[partitioner.shard_of_key(key)]
        .table_data(table)
        .lookup_pk(key)
        .is_some()
}

/// The scatter's metric handles in the global registry, resolved once per
/// store on its first instrumented scatter: per-call lookups would take
/// the registry mutex and allocate a label string per shard per scatter.
#[derive(Debug)]
struct ScatterMetrics {
    /// `quest_shard_scatter_ns{shard=<i>}`, indexed by shard.
    per_shard: Vec<quest_obs::Histogram>,
    imbalance: quest_obs::Gauge,
    probes: quest_obs::Counter,
    used: quest_obs::Counter,
}

impl ScatterMetrics {
    fn resolve(shard_count: usize) -> ScatterMetrics {
        let registry = quest_obs::global();
        registry.describe(
            crate::names::SCATTER_PROBES,
            "Per-shard probes issued by keyword scatters (attributes x shards).",
        );
        registry.describe(
            crate::names::SCATTER_USED,
            "Scatter results the gather used (nonzero merged attribute scores).",
        );
        ScatterMetrics {
            per_shard: (0..shard_count)
                .map(|s| {
                    registry.histogram_with(crate::names::SCATTER, &[("shard", &s.to_string())])
                })
                .collect(),
            imbalance: registry.gauge(crate::names::FANOUT_IMBALANCE),
            probes: registry.counter(crate::names::SCATTER_PROBES),
            used: registry.counter(crate::names::SCATTER_USED),
        }
    }

    /// Publish one scatter's per-shard walls: the labeled latency
    /// histograms, the thread-local handoff that feeds the serving layer's
    /// query trace, and the fan-out imbalance gauge (busiest shard's
    /// overrun of the mean, whole percent).
    fn record_scatter(&self, sums: &[u64]) {
        for ((s, &ns), histogram) in sums.iter().enumerate().zip(&self.per_shard) {
            histogram.record(ns);
            quest_obs::scatter::record(s, ns / 1_000);
        }
        let total: u64 = sums.iter().sum();
        let mean = total / sums.len().max(1) as u64;
        let max = sums.iter().copied().max().unwrap_or(0);
        // A zero mean means the scatter was too fast to resolve: leave the
        // gauge alone rather than publish a meaningless 0-vs-0 comparison.
        if let Some(pct) = ((max - mean) * 100).checked_div(mean) {
            self.imbalance.set(i64::try_from(pct).unwrap_or(i64::MAX));
        }
    }

    /// Count one scatter's read amplification: probes issued (every
    /// `(attribute, shard)` pair the fan-out touched) versus results the
    /// gather used (attribute slots whose merged score came back nonzero —
    /// a zero slot contributes nothing to emission downstream).
    fn record_amplification(&self, probes: usize, scores: &[f64]) {
        self.probes.add(probes as u64);
        let used = scores.iter().filter(|s| **s != 0.0).count();
        self.used.add(used as u64);
    }
}

/// A hash-partitioned database: one full catalog, N FK-less shards, global
/// join counters and merged statistics that are bit-identical to the
/// unsharded computation.
#[derive(Debug)]
pub struct ShardedStore {
    /// The *full* catalog, foreign keys included — the schema queries and
    /// global integrity checks see.
    catalog: Catalog,
    partitioner: Partitioner,
    parallel: bool,
    /// One database per shard, each over `catalog.without_foreign_keys()`.
    shards: Vec<Database>,
    /// Global per-foreign-key join counters over the union of the shards.
    join_counts: JoinCountSet,
    /// Gathered scratch databases for join execution, keyed by the sorted
    /// FROM-table set; invalidated by every mutation. Interior-mutable so
    /// read paths (`execute`, `has_results`) can fill it.
    scratch: Mutex<HashMap<Vec<TableId>, Arc<Database>>>,
    /// Scatter metric handles, resolved on the first instrumented scatter.
    scatter_metrics: OnceLock<ScatterMetrics>,
}

impl ShardedStore {
    /// An empty sharded store over `catalog`.
    pub fn new(catalog: Catalog, config: &ShardConfig) -> Result<ShardedStore, ShardError> {
        let mut store = ShardedStore::empty(catalog, config)?;
        store.finalize_shards();
        store.rebuild_join_counts();
        Ok(store)
    }

    /// Shard an existing database: every row is routed by the hash of its
    /// primary key, shard indexes are built per shard (in parallel when
    /// configured), and the global join counters are counted once.
    pub fn from_database(db: &Database, config: &ShardConfig) -> Result<ShardedStore, ShardError> {
        let mut store = ShardedStore::empty(db.catalog().clone(), config)?;
        for schema in db.catalog().tables() {
            for (_, row) in db.table_data(schema.id).iter() {
                let key = TableData::pk_of(db.catalog(), schema, row);
                let s = store.partitioner.shard_of_key(&key);
                store.shards[s].insert_unchecked(&schema.name, row.clone())?;
            }
        }
        store.finalize_shards();
        store.rebuild_join_counts();
        Ok(store)
    }

    /// Reassemble a sharded store from recovered shard databases (the
    /// reopen path of [`ShardedPrimary`](crate::ShardedPrimary)). Verifies
    /// the shard count, the structural agreement of every shard's catalog
    /// with `catalog` (modulo foreign keys), and — via
    /// [`ShardedStore::validate`] — placement and global referential
    /// integrity.
    pub fn from_shards(
        catalog: Catalog,
        shards: Vec<Database>,
        config: &ShardConfig,
    ) -> Result<ShardedStore, ShardError> {
        config.validate()?;
        if shards.len() != config.shard_count {
            return Err(ShardError::Config(format!(
                "expected {} shard databases, got {}",
                config.shard_count,
                shards.len()
            )));
        }
        for (i, shard) in shards.iter().enumerate() {
            let sc = shard.catalog();
            if sc.table_count() != catalog.table_count()
                || sc.attribute_count() != catalog.attribute_count()
                || !sc.foreign_keys().is_empty()
            {
                return Err(ShardError::Config(format!(
                    "shard {i} catalog does not match the set's catalog \
                     (want {} tables / {} attributes, FK-less; got {} / {} with {} FKs)",
                    catalog.table_count(),
                    catalog.attribute_count(),
                    sc.table_count(),
                    sc.attribute_count(),
                    sc.foreign_keys().len()
                )));
            }
        }
        let mut store = ShardedStore {
            catalog,
            partitioner: Partitioner::new(config)?,
            parallel: config.parallel,
            shards,
            join_counts: JoinCountSet::default(),
            scratch: Mutex::new(HashMap::new()),
            scatter_metrics: OnceLock::new(),
        };
        store.finalize_shards();
        store.validate()?;
        store.rebuild_join_counts();
        Ok(store)
    }

    fn empty(catalog: Catalog, config: &ShardConfig) -> Result<ShardedStore, ShardError> {
        let partitioner = Partitioner::new(config)?;
        catalog.validate()?;
        let shard_catalog = catalog.without_foreign_keys();
        let shards = (0..config.shard_count)
            .map(|_| Database::new(shard_catalog.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedStore {
            catalog,
            partitioner,
            parallel: config.parallel,
            shards,
            join_counts: JoinCountSet::default(),
            scratch: Mutex::new(HashMap::new()),
            scatter_metrics: OnceLock::new(),
        })
    }

    /// Build (or rebuild) every shard's indexes and local statistics —
    /// one `finalize` per shard, in parallel when configured.
    fn finalize_shards(&mut self) {
        if self.parallel && self.shards.len() > 1 {
            std::thread::scope(|s| {
                for db in self.shards.iter_mut() {
                    if !db.is_finalized() {
                        s.spawn(move || db.finalize());
                    }
                }
            });
        } else {
            for db in self.shards.iter_mut() {
                if !db.is_finalized() {
                    db.finalize();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The full catalog (foreign keys included).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing function.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// One shard's database (FK-less catalog).
    pub fn shard(&self, i: usize) -> &Database {
        &self.shards[i]
    }

    /// All shard databases, in shard order.
    pub fn shards(&self) -> &[Database] {
        &self.shards
    }

    /// Live rows of a table, summed over shards.
    pub fn row_count(&self, table: TableId) -> usize {
        self.shards.iter().map(|s| s.row_count(table)).sum()
    }

    /// Live rows over all tables and shards.
    pub fn total_rows(&self) -> usize {
        self.shards.iter().map(|s| s.total_rows()).sum()
    }

    /// Merged statistics of one attribute, computed from every shard's rows
    /// on each call: integer partials absorbed per shard, finished once
    /// (`None` for an id outside the catalog).
    pub fn attr_stats(&self, attr: AttrId) -> Option<AttributeStats> {
        if attr.0 as usize >= self.catalog.attribute_count() {
            return None;
        }
        let table = self.catalog.attribute(attr).table;
        let mut acc = AttributeStatsAccumulator::new();
        for shard in &self.shards {
            acc.absorb(&self.catalog, shard.table_data(table), attr);
        }
        Some(acc.finish())
    }

    /// Global join statistics of one foreign key, read from the gateway's
    /// counters (`None` for a key outside the catalog).
    pub fn fk_stats(&self, fk: ForeignKey) -> Option<JoinStats> {
        let counts = self.join_counts.get(fk)?;
        let rows = |attr: AttrId| self.row_count(self.catalog.attribute(attr).table) as u64;
        Some(counts.stats(rows(fk.from), rows(fk.to)))
    }

    // ------------------------------------------------------------------
    // Mutations — same check order, same error strings as `Database`
    // ------------------------------------------------------------------

    /// Insert with full integrity checking. The row is stored on the shard
    /// its primary key hashes to; FK targets are checked globally first.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, StoreError> {
        let tid = self.catalog.table_id(table)?;
        let schema = self.catalog.table(tid).clone();
        TableData::check_row(&self.catalog, &schema, &row)?;
        self.check_foreign_keys_global(tid, &row)?;
        let key = TableData::pk_of(&self.catalog, &schema, &row);
        let shard = self.partitioner.shard_of_key(&key);
        // The owning shard re-checks shape and PK uniqueness; because equal
        // keys always route to the same shard, shard-local uniqueness *is*
        // global uniqueness, and the error string matches the unsharded one
        // (same schema name, same key rendering).
        let rid = self.shards[shard].insert(table, row)?;
        self.finish_mutation(tid, None, Some((shard, rid)));
        Ok(rid)
    }

    /// Delete by primary key, with the restrictive referential rule
    /// enforced globally (a referencing row on *any* shard blocks it).
    pub fn delete(&mut self, table: &str, key: &[Value]) -> Result<RowId, StoreError> {
        let tid = self.catalog.table_id(table)?;
        let schema = self.catalog.table(tid).clone();
        let shard = self.partitioner.shard_of_key(key);
        let rid = self.shards[shard]
            .table_data(tid)
            .lookup_pk(key)
            .ok_or_else(|| StoreError::RowNotFound(format!("{}{}", schema.name, fmt_key(key))))?;
        self.check_pk_unreferenced_global(tid, shard, rid, None)?;
        let old = self.shards[shard].table_data(tid).row(rid).clone();
        let rid = self.shards[shard].delete(table, key)?;
        self.finish_mutation(tid, Some(&old), None);
        Ok(rid)
    }

    /// Replace the row at `key` with `row`. When the primary key changes
    /// shard, the move is a checked delete + insert (all checks run before
    /// either shard mutates, so a failure leaves both untouched).
    pub fn update(&mut self, table: &str, key: &[Value], row: Row) -> Result<RowId, StoreError> {
        let tid = self.catalog.table_id(table)?;
        let schema = self.catalog.table(tid).clone();
        let shard = self.partitioner.shard_of_key(key);
        let rid = self.shards[shard]
            .table_data(tid)
            .lookup_pk(key)
            .ok_or_else(|| StoreError::RowNotFound(format!("{}{}", schema.name, fmt_key(key))))?;
        TableData::check_row(&self.catalog, &schema, &row)?;
        self.check_foreign_keys_global(tid, &row)?;
        let new_key = TableData::pk_of(&self.catalog, &schema, &row);
        if new_key.as_slice() != key {
            self.check_pk_unreferenced_global(tid, shard, rid, Some(&row))?;
        }
        let new_shard = self.partitioner.shard_of_key(&new_key);
        let old = self.shards[shard].table_data(tid).row(rid).clone();
        let rid = if new_shard == shard {
            self.shards[shard].update(table, key, row)?
        } else {
            // Duplicate check on the destination first — same message the
            // in-place path produces — so nothing mutates on failure.
            if self.shards[new_shard]
                .table_data(tid)
                .lookup_pk(&new_key)
                .is_some()
            {
                return Err(StoreError::DuplicateKey(format!(
                    "{}{}",
                    schema.name,
                    Row::new(new_key)
                )));
            }
            self.shards[shard].delete(table, key)?;
            self.shards[new_shard].insert(table, row)?
        };
        self.finish_mutation(tid, Some(&old), Some((new_shard, rid)));
        Ok(rid)
    }

    /// Apply one WAL change record through the checked mutation API.
    pub fn apply_record(&mut self, record: &ChangeRecord) -> Result<RowId, StoreError> {
        match record {
            ChangeRecord::Insert { table, row } => self.insert(table, Row::new(row.clone())),
            ChangeRecord::Delete { table, key } => self.delete(table, key),
            ChangeRecord::Update { table, key, row } => {
                self.update(table, key, Row::new(row.clone()))
            }
        }
    }

    /// Apply a mutation batch with per-record accept/reject semantics — the
    /// sharded twin of the unsharded `MutableSource` path: indexes and join
    /// counters stay exact per record.
    pub fn apply_changes(&mut self, changes: &[ChangeRecord], report: &mut ApplyReport) {
        for (i, change) in changes.iter().enumerate() {
            match self.apply_record(change) {
                Ok(_) => report.applied += 1,
                Err(e) => report.rejected.push((i, e)),
            }
        }
    }

    /// Post-mutation bookkeeping: drop gathered scratch databases (their
    /// rows are stale) and fold the row change into the global join
    /// counters. `old` is the row before the mutation, `new` where the row
    /// lives after it.
    fn finish_mutation(&mut self, tid: TableId, old: Option<&Row>, new: Option<(usize, RowId)>) {
        self.scratch.lock().expect("scratch lock poisoned").clear();
        let new = new.map(|(s, rid)| self.shards[s].table_data(tid).row(rid));
        let (shards, partitioner) = (&self.shards, &self.partitioner);
        self.join_counts
            .apply_row_change(&self.catalog, tid, old, new, |t, v| {
                pk_live(shards, partitioner, t, v)
            });
    }

    // ------------------------------------------------------------------
    // Global integrity checks
    // ------------------------------------------------------------------

    /// FK-target existence for every FK column of a candidate row, probing
    /// the shard each target key hashes to. Same error string as the
    /// unsharded check.
    fn check_foreign_keys_global(&self, tid: TableId, row: &Row) -> Result<(), StoreError> {
        for fk in self.catalog.foreign_keys() {
            let from = self.catalog.attribute(fk.from);
            if from.table != tid {
                continue;
            }
            let v = row.get(from.position);
            if v.is_null() {
                continue;
            }
            let target_table = self.catalog.attribute(fk.to).table;
            if !pk_live(&self.shards, &self.partitioner, target_table, v) {
                return Err(StoreError::ForeignKeyViolation(format!(
                    "{} = {v} has no target in {}",
                    self.catalog.qualified_name(fk.from),
                    self.catalog.table(target_table).name
                )));
            }
        }
        Ok(())
    }

    /// Restrictive referential check before a delete or PK-changing update
    /// of the row at `(tid, victim_shard, victim_rid)`: no live row on any
    /// shard may reference the victim's current primary key. Answered from
    /// the global join counters — one lookup per foreign key, with the
    /// unsharded check's decisions and error strings.
    fn check_pk_unreferenced_global(
        &self,
        tid: TableId,
        victim_shard: usize,
        victim_rid: RowId,
        replacement: Option<&Row>,
    ) -> Result<(), StoreError> {
        let victim = self.shards[victim_shard].table_data(tid).row(victim_rid);
        self.join_counts
            .check_unreferenced(&self.catalog, tid, victim, replacement)
    }

    /// Full integrity check of the shard set: every shard's structural
    /// invariants, every row's placement (its PK must hash to the shard
    /// holding it), and global referential integrity.
    pub fn validate(&self) -> Result<(), ShardError> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.validate_structure()?;
            for schema in self.catalog.tables() {
                for (_, row) in shard.table_data(schema.id).iter() {
                    let key = TableData::pk_of(&self.catalog, schema, row);
                    let want = self.partitioner.shard_of_key(&key);
                    if want != i {
                        return Err(ShardError::Placement(format!(
                            "{}{} lives on shard {i} but hashes to shard {want}",
                            schema.name,
                            fmt_key(&key)
                        )));
                    }
                }
            }
        }
        // Global FK scan: same error string as the unsharded validator.
        for fk in self.catalog.foreign_keys() {
            let from = self.catalog.attribute(fk.from);
            let target_table = self.catalog.attribute(fk.to).table;
            for shard in &self.shards {
                for (_, row) in shard.table_data(from.table).iter() {
                    let v = row.get(from.position);
                    if v.is_null() {
                        continue;
                    }
                    if !pk_live(&self.shards, &self.partitioner, target_table, v) {
                        return Err(ShardError::Store(StoreError::ForeignKeyViolation(format!(
                            "{} = {v}",
                            self.catalog.qualified_name(fk.from)
                        ))));
                    }
                }
            }
        }
        Ok(())
    }

    /// Count the global join counters from every shard's rows.
    fn rebuild_join_counts(&mut self) {
        let (shards, partitioner) = (&self.shards, &self.partitioner);
        self.join_counts = JoinCountSet::build(
            &self.catalog,
            |t| {
                shards
                    .iter()
                    .flat_map(move |s| s.table_data(t).iter().map(|(_, row)| row))
            },
            |t, v| pk_live(shards, partitioner, t, v),
        );
    }

    // ------------------------------------------------------------------
    // Scatter-gather scoring
    // ------------------------------------------------------------------

    /// Normalize a keyword into a reusable probe (`None` when it
    /// normalizes away, making every score 0).
    pub fn prepare_probe(&self, keyword: &str) -> Option<KeywordProbe> {
        KeywordProbe::new(keyword)
    }

    /// The paper's search function over the shard set — bit-identical to
    /// `Database::search_score` on the unsharded union.
    pub fn search_score(&self, attr: AttrId, keyword: &str) -> f64 {
        match KeywordProbe::new(keyword) {
            Some(probe) => self.search_score_probe(attr, &probe),
            None => 0.0,
        }
    }

    /// [`ShardedStore::search_score`] for a prepared probe: absorb each
    /// shard's integer partials, evaluate the score formula once from the
    /// merged state, and — for phrases — rerun the conjunctive scan per
    /// shard under the merged idfs, gathering by max.
    pub fn search_score_probe(&self, attr: AttrId, probe: &KeywordProbe) -> f64 {
        self.score_probe_timed(attr, probe, None)
    }

    /// [`ShardedStore::search_score_probe`] with optional per-shard wall
    /// accounting: when `timings` is `Some`, each shard's share of this
    /// probe's work (partial absorb + conjunctive rescan) is added to its
    /// slot, in nanoseconds. The scoring arithmetic is identical either way
    /// — the clocks wrap the per-shard sections without reordering any
    /// float operation, so instrumented scores stay bit-identical (the
    /// shard identity suite runs with the global registry enabled).
    fn score_probe_timed(
        &self,
        attr: AttrId,
        probe: &KeywordProbe,
        mut timings: Option<&mut [u64]>,
    ) -> f64 {
        let mut acc = ScoreAccumulator::new(probe.tokens().len());
        let mut any_index = false;
        for (s, shard) in self.shards.iter().enumerate() {
            let start = timings.is_some().then(std::time::Instant::now);
            if let Some(ix) = shard.index(attr) {
                any_index = true;
                acc.absorb(ix, probe);
            }
            if let (Some(start), Some(t)) = (start, timings.as_deref_mut()) {
                t[s] += quest_obs::duration_ns(start.elapsed());
            }
        }
        if !any_index {
            // Not a full-text attribute: the unsharded store returns 0 too.
            return 0.0;
        }
        let raw = if probe.tokens().len() == 1 {
            acc.single_token_raw()
        } else if acc.any_token_absent() {
            0.0
        } else {
            let idfs = acc.idfs();
            let mut best: Option<f64> = None;
            for (s, shard) in self.shards.iter().enumerate() {
                let start = timings.is_some().then(std::time::Instant::now);
                if let Some(ix) = shard.index(attr) {
                    if let Some(score) = ix.best_conjunctive_score(probe.tokens(), &idfs) {
                        best = match best {
                            Some(b) if b >= score => Some(b),
                            _ => Some(score),
                        };
                    }
                }
                if let (Some(start), Some(t)) = (start, timings.as_deref_mut()) {
                    t[s] += quest_obs::duration_ns(start.elapsed());
                }
            }
            best.unwrap_or(0.0)
        };
        relstore::index::normalize_score(raw, acc.normalization_coefficient())
    }

    /// One scatter for a whole keyword: the per-attribute score table,
    /// indexed by `AttrId`. Computing all attributes at once lets the
    /// emission pass above run from a lookup table instead of fanning out
    /// to every shard once per `(keyword, attribute)` pair, and the
    /// per-attribute work parallelizes freely (each slot is independent).
    ///
    /// While the global registry is enabled, each shard's share of the
    /// scatter wall is summed across attributes (on the calling thread,
    /// after the fan-out joins) into `quest_shard_scatter_ns{shard=<i>}`,
    /// the fan-out imbalance gauge, and the thread-local trace handoff
    /// ([`quest_obs::scatter`]).
    pub fn scatter_value_scores(&self, probe: &KeywordProbe) -> Vec<f64> {
        if !quest_obs::global().is_enabled() {
            return map_range(self.catalog.attribute_count(), self.parallel, |a| {
                self.search_score_probe(AttrId(a as u32), probe)
            });
        }
        let shard_count = self.shards.len();
        let timed = map_range(self.catalog.attribute_count(), self.parallel, |a| {
            let mut per_shard = vec![0u64; shard_count];
            let score = self.score_probe_timed(AttrId(a as u32), probe, Some(&mut per_shard));
            (score, per_shard)
        });
        let mut sums = vec![0u64; shard_count];
        let mut scores = Vec::with_capacity(timed.len());
        for (score, per_shard) in timed {
            scores.push(score);
            for (s, ns) in per_shard.into_iter().enumerate() {
                sums[s] += ns;
            }
        }
        let metrics = self
            .scatter_metrics
            .get_or_init(|| ScatterMetrics::resolve(shard_count));
        metrics.record_scatter(&sums);
        metrics.record_amplification(scores.len() * shard_count, &scores);
        scores
    }

    // ------------------------------------------------------------------
    // SQL execution
    // ------------------------------------------------------------------

    /// Gather the listed tables' rows into one scratch database (full
    /// catalog, no index build — the executor only reads raw rows), cached
    /// until the next mutation.
    fn gathered(&self, from: &[TableId]) -> Result<Arc<Database>, StoreError> {
        let mut key: Vec<TableId> = from.to_vec();
        key.sort_unstable_by_key(|t| t.0);
        key.dedup();
        if let Some(db) = self
            .scratch
            .lock()
            .expect("scratch lock poisoned")
            .get(&key)
        {
            return Ok(db.clone());
        }
        let mut db = Database::new(self.catalog.clone())?;
        for tid in &key {
            let schema = self.catalog.table(*tid);
            for shard in &self.shards {
                for (_, row) in shard.table_data(*tid).iter() {
                    db.insert_unchecked(&schema.name, row.clone())?;
                }
            }
        }
        let db = Arc::new(db);
        self.scratch
            .lock()
            .expect("scratch lock poisoned")
            .insert(key, db.clone());
        Ok(db)
    }

    /// Execute a generated SQL statement over the shard set.
    ///
    /// Single-table statements scatter to every shard (each scans only its
    /// own rows) and merge; join statements run over a gathered scratch
    /// database. Result rows come back in **canonical value order** (SQL
    /// set semantics — the unsharded executor's row order is a storage
    /// artifact that sharding legitimately permutes), `DISTINCT` dedups
    /// across shards, and `LIMIT` applies after the merge so the kept
    /// prefix is deterministic.
    pub fn execute(&self, stmt: &SelectStatement) -> Result<ResultSet, StoreError> {
        let mut inner = stmt.clone();
        inner.limit = None;
        let mut rs = if stmt.from.len() == 1 {
            let parts = map_range(self.shards.len(), self.parallel, |i| {
                relstore::sql::execute(&self.shards[i], &inner)
            });
            let mut merged: Option<ResultSet> = None;
            for part in parts {
                let part = part?;
                match &mut merged {
                    None => merged = Some(part),
                    Some(m) => m.rows.extend(part.rows),
                }
            }
            merged.expect("shard_count >= 1")
        } else {
            relstore::sql::execute(self.gathered(&stmt.from)?.as_ref(), &inner)?
        };
        rs.rows.sort_by(|a, b| a.values().cmp(b.values()));
        if stmt.distinct {
            rs.rows.dedup();
        }
        if let Some(l) = stmt.limit {
            rs.rows.truncate(l);
        }
        Ok(rs)
    }

    /// Whether the statement returns at least one row — a scatter with
    /// early exit for single-table statements, the gathered database for
    /// joins. Agrees exactly with the unsharded answer (a boolean has no
    /// row order to disagree about).
    pub fn has_results(&self, stmt: &SelectStatement) -> Result<bool, StoreError> {
        if stmt.from.len() == 1 {
            let mut probe = stmt.clone();
            probe.limit = Some(1);
            probe.distinct = false;
            for shard in &self.shards {
                if !relstore::sql::execute(shard, &probe)?.is_empty() {
                    return Ok(true);
                }
            }
            Ok(false)
        } else {
            relstore::sql::has_results(self.gathered(&stmt.from)?.as_ref(), stmt)
        }
    }

    // ------------------------------------------------------------------
    // Reshaping
    // ------------------------------------------------------------------

    /// Merge every shard back into one unsharded database (full catalog,
    /// finalized) — the reference the identity suite compares against, and
    /// an escape hatch back to single-store deployment.
    pub fn gather(&self) -> Result<Database, StoreError> {
        let mut db = Database::new(self.catalog.clone())?;
        for schema in self.catalog.tables() {
            for shard in &self.shards {
                for (_, row) in shard.table_data(schema.id).iter() {
                    db.insert_unchecked(&schema.name, row.clone())?;
                }
            }
        }
        db.finalize();
        Ok(db)
    }

    /// Repartition into a new shard count. Rows are routed afresh by the
    /// same PK hash (deterministic order: tables, then source shards, then
    /// row slots), shard indexes are rebuilt, and the join counters are
    /// recounted — so an `n → m → n` round trip preserves every row and
    /// every merged score and statistic bit for bit (placement depends
    /// only on key hashes, never on history).
    pub fn rebalance(&self, config: &ShardConfig) -> Result<ShardedStore, ShardError> {
        let mut store = ShardedStore::empty(self.catalog.clone(), config)?;
        for schema in self.catalog.tables() {
            for shard in &self.shards {
                for (_, row) in shard.table_data(schema.id).iter() {
                    let key = TableData::pk_of(&self.catalog, schema, row);
                    let s = store.partitioner.shard_of_key(&key);
                    store.shards[s].insert_unchecked(&schema.name, row.clone())?;
                }
            }
        }
        store.finalize_shards();
        store.rebuild_join_counts();
        Ok(store)
    }
}
