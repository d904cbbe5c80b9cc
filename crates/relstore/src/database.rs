//! The `Database`: catalog + table data + full-text indexes + statistics.

use std::collections::HashMap;

use crate::error::StoreError;
use crate::index::inverted::{AttributeIndex, KeywordProbe};
use crate::row::{Row, RowId};
use crate::schema::{AttrId, Catalog, ForeignKey, TableId};
use crate::stats::{attribute_stats, join_stats, AttributeStats, JoinCountSet, JoinStats};
use crate::table::TableData;
use crate::value::Value;

/// An in-memory relational database instance.
///
/// Construction: build a [`Catalog`], call [`Database::new`], insert rows in
/// FK dependency order (or use [`Database::insert_unchecked`] followed by
/// [`Database::validate_foreign_keys`]), then call [`Database::finalize`] to
/// build full-text indexes and statistics — the paper's "setup phase".
///
/// After `finalize`, the database is *live*: [`Database::insert`],
/// [`Database::delete`] and [`Database::update`] maintain the inverted
/// indexes incrementally, so mutations never force a full rebuild and the
/// database stays finalized. Join statistics come from per-foreign-key
/// counters ([`JoinCountSet`]), counted once by `finalize` (or by the first
/// restrictive-delete check before it) and from then on updated by every
/// mutation in O(1) per row; the same counters answer that check. Attribute statistics are computed from the
/// rows when asked for. A mutation therefore costs O(row), never a rescan
/// of the tables it touches, and the maintained state is bit-identical to
/// what a fresh [`Database::finalize`] over the same rows would build
/// (asserted by the relstore property suite).
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    tables: Vec<TableData>,
    /// Full-text indexes, one per attribute with `full_text = true`.
    indexes: HashMap<AttrId, AttributeIndex>,
    /// Per-foreign-key join counters, current after every mutation once
    /// counted. `None` during a bulk load or a snapshot import (from
    /// [`Database::new`] or [`Database::restore_table`]) until the
    /// [`Database::finalize`] that follows (or the first check that needs
    /// them), so a load counts once rather than once per row or table.
    join_counts: Option<JoinCountSet>,
    finalized: bool,
}

impl Database {
    /// Create an empty database over a validated catalog.
    pub fn new(catalog: Catalog) -> Result<Database, StoreError> {
        catalog.validate()?;
        let tables: Vec<TableData> = (0..catalog.table_count())
            .map(|_| TableData::new())
            .collect();
        Ok(Database {
            catalog,
            tables,
            indexes: HashMap::new(),
            join_counts: None,
            finalized: false,
        })
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Data of one table.
    pub fn table_data(&self, id: TableId) -> &TableData {
        &self.tables[id.0 as usize]
    }

    /// Live row count of one table.
    pub fn row_count(&self, id: TableId) -> usize {
        self.tables[id.0 as usize].len()
    }

    /// Total live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Insert with full integrity checking (types, PK uniqueness, FK targets).
    ///
    /// FK targets must already exist, so load tables in dependency order.
    /// On a finalized database the new row is folded into the full-text
    /// indexes incrementally.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, StoreError> {
        let tid = self.catalog.table_id(table)?;
        let schema = self.catalog.table(tid).clone();
        // Shape-validate before the FK check: FK columns are addressed by
        // position, so a short row must be rejected (not panic) first.
        TableData::check_row(&self.catalog, &schema, &row)?;
        self.check_foreign_keys(tid, &row)?;
        let rid = self.tables[tid.0 as usize].insert_prevalidated(&self.catalog, &schema, row)?;
        self.finish_mutation(tid, rid, None);
        Ok(rid)
    }

    /// Insert with type/PK checking but *without* FK target checking. Use for
    /// bulk loads with cycles, then call [`Database::validate_foreign_keys`].
    pub fn insert_unchecked(&mut self, table: &str, row: Row) -> Result<RowId, StoreError> {
        let tid = self.catalog.table_id(table)?;
        let schema = self.catalog.table(tid).clone();
        let rid = self.tables[tid.0 as usize].insert(&self.catalog, &schema, row)?;
        self.finish_mutation(tid, rid, None);
        Ok(rid)
    }

    /// Post-mutation maintenance of the row at `(tid, rid)`, whose previous
    /// version was `old` (`None` for an insert): fold the change into the
    /// join counters, once counted, and into the full-text indexes, once
    /// finalized.
    fn finish_mutation(&mut self, tid: TableId, rid: RowId, old: Option<&Row>) {
        let new = self.tables[tid.0 as usize].get(rid);
        if let Some(counts) = &mut self.join_counts {
            let tables = &self.tables;
            counts.apply_row_change(&self.catalog, tid, old, new, |t, v| {
                tables[t.0 as usize]
                    .lookup_pk(std::slice::from_ref(v))
                    .is_some()
            });
        }
        if self.finalized {
            self.reindex_row(tid, rid, old, new.is_some());
        }
    }

    /// Delete the row whose primary-key tuple is `key`, returning its old
    /// [`RowId`]. Referential integrity is *restrictive*: the delete fails
    /// while any other live row still references the victim's primary key.
    /// On a finalized database indexes are maintained incrementally; the
    /// slot is tombstoned so other row ids stay stable.
    pub fn delete(&mut self, table: &str, key: &[Value]) -> Result<RowId, StoreError> {
        let tid = self.catalog.table_id(table)?;
        let schema = self.catalog.table(tid).clone();
        let rid = self.tables[tid.0 as usize]
            .lookup_pk(key)
            .ok_or_else(|| StoreError::RowNotFound(format!("{}{}", schema.name, fmt_key(key))))?;
        self.check_pk_unreferenced(tid, rid, None)?;
        let old = self.tables[tid.0 as usize].delete(&self.catalog, &schema, rid)?;
        self.finish_mutation(tid, rid, Some(&old));
        Ok(rid)
    }

    /// Replace the row whose primary-key tuple is `key` with `row`, in place
    /// (the [`RowId`] is preserved). Checks types, NOT NULL, FK targets of
    /// the new row, and — when the primary key changes — PK uniqueness plus
    /// the restrictive rule that no row may still reference the old key
    /// afterwards. On a finalized database, indexes follow incrementally.
    pub fn update(&mut self, table: &str, key: &[Value], row: Row) -> Result<RowId, StoreError> {
        let tid = self.catalog.table_id(table)?;
        let schema = self.catalog.table(tid).clone();
        let rid = self.tables[tid.0 as usize]
            .lookup_pk(key)
            .ok_or_else(|| StoreError::RowNotFound(format!("{}{}", schema.name, fmt_key(key))))?;
        TableData::check_row(&self.catalog, &schema, &row)?;
        self.check_foreign_keys(tid, &row)?;
        let new_key = TableData::pk_of(&self.catalog, &schema, &row);
        if new_key.as_slice() != key {
            // The old key disappears: nothing may keep referencing it. The
            // updated row itself is judged by its *new* FK values.
            self.check_pk_unreferenced(tid, rid, Some(&row))?;
        }
        let old =
            self.tables[tid.0 as usize].update_prevalidated(&self.catalog, &schema, rid, row)?;
        self.finish_mutation(tid, rid, Some(&old));
        Ok(rid)
    }

    /// FK-target existence for every FK column of a candidate row.
    fn check_foreign_keys(&self, tid: TableId, row: &Row) -> Result<(), StoreError> {
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
            if self.tables[target_table.0 as usize]
                .lookup_pk(std::slice::from_ref(v))
                .is_none()
            {
                return Err(StoreError::ForeignKeyViolation(format!(
                    "{} = {v} has no target in {}",
                    self.catalog.qualified_name(fk.from),
                    self.catalog.table(target_table).name
                )));
            }
        }
        Ok(())
    }

    /// Restrictive RI check before a delete or PK-changing update of
    /// `(tid, rid)`: no live row may reference the victim's current primary
    /// key. The victim row itself is skipped on delete (its references die
    /// with it) and judged by `replacement` on update (its references
    /// survive with the new values).
    ///
    /// Cost: one reference-count lookup per foreign key into the victim's
    /// table ([`JoinCountSet::check_unreferenced`]), independent of table
    /// sizes.
    fn check_pk_unreferenced(
        &mut self,
        tid: TableId,
        rid: RowId,
        replacement: Option<&Row>,
    ) -> Result<(), StoreError> {
        let counts = self
            .join_counts
            .get_or_insert_with(|| count_joins(&self.catalog, &self.tables));
        let victim = self.tables[tid.0 as usize].row(rid);
        counts.check_unreferenced(&self.catalog, tid, victim, replacement)
    }

    /// Scan every FK column and verify all non-null values have targets.
    pub fn validate_foreign_keys(&self) -> Result<(), StoreError> {
        for fk in self.catalog.foreign_keys() {
            let from = self.catalog.attribute(fk.from);
            let target_table = self.catalog.attribute(fk.to).table;
            let target = &self.tables[target_table.0 as usize];
            for (_, row) in self.tables[from.table.0 as usize].iter() {
                let v = row.get(from.position);
                if !v.is_null() && target.lookup_pk(std::slice::from_ref(v)).is_none() {
                    return Err(StoreError::ForeignKeyViolation(format!(
                        "{} = {v}",
                        self.catalog.qualified_name(fk.from)
                    )));
                }
            }
        }
        Ok(())
    }

    /// Full instance integrity check: every live row satisfies its table's
    /// arity, types and NOT NULL constraints; the PK index maps each live
    /// row's key back to its slot (and nothing else); and every FK value has
    /// a target. Bulk loaders and WAL replay use this as the final gate.
    pub fn validate(&self) -> Result<(), StoreError> {
        self.validate_structure()?;
        self.validate_foreign_keys()
    }

    /// [`Database::validate`] minus the foreign-key pass: row shape, PK
    /// index consistency and live counts only. This is the whole check for
    /// a *shard* database, where FK targets may live on other shards and
    /// referential integrity is validated globally by the sharded store.
    pub fn validate_structure(&self) -> Result<(), StoreError> {
        for schema in self.catalog.tables() {
            let data = &self.tables[schema.id.0 as usize];
            let mut live = 0usize;
            for (rid, row) in data.iter() {
                TableData::check_row(&self.catalog, schema, row)?;
                let key = TableData::pk_of(&self.catalog, schema, row);
                if data.lookup_pk(&key) != Some(rid) {
                    return Err(StoreError::InvalidSchema(format!(
                        "{}: PK index does not map {} back to row {rid}",
                        schema.name,
                        fmt_key(&key)
                    )));
                }
                live += 1;
            }
            if live != data.len() {
                return Err(StoreError::InvalidSchema(format!(
                    "{}: live-row count {} disagrees with len {}",
                    schema.name,
                    live,
                    data.len()
                )));
            }
        }
        Ok(())
    }

    /// Replace one table's storage with an explicit slot layout, tombstones
    /// included (snapshot import). Leaves the database unfinalized; call
    /// [`Database::finalize`] after all tables are restored — it recounts
    /// the join counters once for the whole import.
    pub fn restore_table(
        &mut self,
        table: TableId,
        slots: Vec<Option<Row>>,
    ) -> Result<(), StoreError> {
        let schema = self.catalog.table(table).clone();
        self.tables[table.0 as usize] = TableData::restore(&self.catalog, &schema, slots)?;
        self.join_counts = None;
        self.finalized = false;
        Ok(())
    }

    /// The setup phase: build full-text indexes over all `full_text`
    /// attributes and rebuild the join counters from scratch.
    pub fn finalize(&mut self) {
        self.indexes.clear();
        for attr in self.catalog.attributes() {
            if !attr.full_text {
                continue;
            }
            // Bulk-build path: append postings, sort each list once at the
            // end — bit-identical to per-row sorted inserts (pinned by the
            // relstore property suite) without the mid-list shifting.
            let mut ix = AttributeIndex::new();
            for (rid, row) in self.tables[attr.table.0 as usize].iter() {
                let v = row.get(attr.position);
                if !v.is_null() {
                    ix.add_bulk(rid, &v.render());
                }
            }
            ix.finish_build();
            self.indexes.insert(attr.id, ix);
        }
        self.join_counts = Some(count_joins(&self.catalog, &self.tables));
        self.finalized = true;
    }

    /// Incremental index maintenance for one mutated row: un-index the old
    /// values (if any), index the new ones (if the slot is still live).
    fn reindex_row(&mut self, tid: TableId, rid: RowId, old: Option<&Row>, live: bool) {
        let full_text: Vec<(AttrId, usize)> = self
            .catalog
            .table(tid)
            .attributes
            .iter()
            .map(|a| self.catalog.attribute(*a))
            .filter(|a| a.full_text)
            .map(|a| (a.id, a.position))
            .collect();
        for (attr, pos) in full_text {
            let old_text = old
                .map(|r| r.get(pos))
                .filter(|v| !v.is_null())
                .map(Value::render);
            let new_text = if live {
                let v = self.tables[tid.0 as usize].row(rid).get(pos);
                (!v.is_null()).then(|| v.render())
            } else {
                None
            };
            let ix = self.indexes.entry(attr).or_default();
            if let Some(text) = old_text {
                ix.remove(rid, &text);
            }
            if let Some(text) = new_text {
                ix.add(rid, &text);
            }
        }
    }

    /// Run a batch of mutations `f` over this database and return its
    /// result.
    ///
    /// There is nothing to defer: every mutation updates the join counters
    /// in O(1) and attribute statistics are computed on demand, so this is
    /// a plain call and reads inside `f` see current statistics. It stays
    /// as a scope marker for batch writers that use it.
    pub fn with_stats_deferred<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(self)
    }

    /// Whether `finalize` has been run (mutations on a finalized database
    /// keep it finalized by maintaining indexes incrementally).
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Full-text index of an attribute, if one was built.
    pub fn index(&self, attr: AttrId) -> Option<&AttributeIndex> {
        self.indexes.get(&attr)
    }

    /// The paper's search function: relevance score of `keyword` against the
    /// values of `attr`, already normalized to [0, 1] with the per-attribute
    /// coefficient computed at setup. Returns 0 for unindexed attributes.
    pub fn search_score(&self, attr: AttrId, keyword: &str) -> f64 {
        match self.indexes.get(&attr) {
            Some(ix) => {
                crate::index::normalize_score(ix.score(keyword), ix.normalization_coefficient())
            }
            None => 0.0,
        }
    }

    /// Normalize a keyword into a reusable probe, paying tokenization once
    /// per keyword instead of once per `(keyword, attribute)` pair. `None`
    /// when the keyword normalizes away — every score for it is 0.
    pub fn prepare_probe(&self, keyword: &str) -> Option<KeywordProbe> {
        KeywordProbe::new(keyword)
    }

    /// [`Database::search_score`] for a keyword prepared with
    /// [`Database::prepare_probe`]; bit-identical results.
    pub fn search_score_probe(&self, attr: AttrId, probe: &KeywordProbe) -> f64 {
        match self.indexes.get(&attr) {
            Some(ix) => {
                crate::index::normalize_score(ix.score_probe(probe), ix.normalization_coefficient())
            }
            None => 0.0,
        }
    }

    /// [`Database::search_score`] through the pre-interning scan path
    /// ([`AttributeIndex::score_reference`]): the reference the optimized
    /// probes are verified against, and the baseline of the committed
    /// pipeline benchmark.
    pub fn search_score_reference(&self, attr: AttrId, keyword: &str) -> f64 {
        match self.indexes.get(&attr) {
            Some(ix) => crate::index::normalize_score(
                ix.score_reference(keyword),
                ix.normalization_coefficient(),
            ),
            None => 0.0,
        }
    }

    /// Top matching rows of `attr` for `keyword`, with normalized scores.
    pub fn search_rows(&self, attr: AttrId, keyword: &str, limit: usize) -> Vec<(RowId, f64)> {
        match self.indexes.get(&attr) {
            Some(ix) => {
                let coeff = ix.normalization_coefficient().max(f64::MIN_POSITIVE);
                ix.search(keyword, limit)
                    .into_iter()
                    .map(|(r, s)| (r, (s / coeff).clamp(0.0, 1.0)))
                    .collect()
            }
            None => Vec::new(),
        }
    }

    /// Statistics of one attribute, computed from its table's rows on each
    /// call (`None` for an id outside the catalog). O(table rows).
    pub fn attr_stats(&self, attr: AttrId) -> Option<AttributeStats> {
        ((attr.0 as usize) < self.catalog.attribute_count()).then(|| {
            let table = self.catalog.attribute(attr).table;
            attribute_stats(&self.catalog, &self.tables[table.0 as usize], attr)
        })
    }

    /// Join statistics of one foreign key (`None` for a key outside the
    /// catalog), read from the maintained counters: O(referenced keys)
    /// float work for the NMI, no table scan. Before the counters are
    /// counted (a bulk load or snapshot import not yet finalized) they are
    /// computed from the rows instead.
    pub fn fk_stats(&self, fk: ForeignKey) -> Option<JoinStats> {
        if !self.catalog.foreign_keys().contains(&fk) {
            return None;
        }
        let table = |attr: AttrId| &self.tables[self.catalog.attribute(attr).table.0 as usize];
        let (referencing, referenced) = (table(fk.from), table(fk.to));
        Some(match &self.join_counts {
            Some(counts) => counts
                .get(fk)
                .expect("one counter per catalog foreign key")
                .stats(referencing.len() as u64, referenced.len() as u64),
            None => join_stats(&self.catalog, fk, referencing, referenced),
        })
    }

    /// Look up a row's value by attribute id.
    pub fn value(&self, table: TableId, row: RowId, attr: AttrId) -> &Value {
        let pos = self.catalog.attribute(attr).position;
        self.tables[table.0 as usize].row(row).get(pos)
    }
}

/// Count every foreign key's join counters from the rows.
fn count_joins(catalog: &Catalog, tables: &[TableData]) -> JoinCountSet {
    JoinCountSet::build(
        catalog,
        |t| tables[t.0 as usize].iter().map(|(_, row)| row),
        |t, v| {
            tables[t.0 as usize]
                .lookup_pk(std::slice::from_ref(v))
                .is_some()
        },
    )
}

/// Render a PK tuple for error messages.
fn fmt_key(key: &[Value]) -> String {
    Row::new(key.to_vec()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn movie_db() -> Database {
        let mut c = Catalog::new();
        c.define_table("person")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        c.define_table("movie")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("title", DataType::Text)
            .unwrap()
            .col_opts("director_id", DataType::Int, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("movie", "director_id", "person").unwrap();
        let mut db = Database::new(c).unwrap();
        db.insert("person", Row::new(vec![1.into(), "Victor Fleming".into()]))
            .unwrap();
        db.insert("person", Row::new(vec![2.into(), "Michael Curtiz".into()]))
            .unwrap();
        db.insert(
            "movie",
            Row::new(vec![10.into(), "Gone with the Wind".into(), 1.into()]),
        )
        .unwrap();
        db.insert(
            "movie",
            Row::new(vec![11.into(), "Casablanca".into(), 2.into()]),
        )
        .unwrap();
        db.finalize();
        db
    }

    /// Every full-text index, statistic, and row of `db` must be
    /// bit-identical to a from-scratch `finalize` over the same rows.
    fn assert_matches_rebuild(db: &Database) {
        let mut rebuilt = db.clone();
        rebuilt.finalize();
        for attr in db.catalog().attributes() {
            assert_eq!(
                db.index(attr.id),
                rebuilt.index(attr.id),
                "index of {} diverged from rebuild",
                db.catalog().qualified_name(attr.id)
            );
            assert_eq!(db.attr_stats(attr.id), rebuilt.attr_stats(attr.id));
        }
        for fk in db.catalog().foreign_keys() {
            let maintained = db.fk_stats(*fk).unwrap();
            assert_eq!(Some(&maintained), rebuilt.fk_stats(*fk).as_ref());
            let scratch = crate::stats::join_stats(
                db.catalog(),
                *fk,
                db.table_data(db.catalog().attribute(fk.from).table),
                db.table_data(db.catalog().attribute(fk.to).table),
            );
            assert_eq!(maintained.nmi.to_bits(), scratch.nmi.to_bits());
            assert_eq!(maintained, scratch);
        }
    }

    #[test]
    fn fk_enforced_on_insert() {
        let mut db = movie_db();
        let err = db
            .insert(
                "movie",
                Row::new(vec![12.into(), "Orphan".into(), 99.into()]),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        // NULL FK allowed.
        db.insert(
            "movie",
            Row::new(vec![12.into(), "Orphan".into(), Value::Null]),
        )
        .unwrap();
    }

    #[test]
    fn unchecked_then_validate() {
        let mut c = Catalog::new();
        c.define_table("b")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .finish();
        c.define_table("a")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col_opts("b_id", DataType::Int, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("a", "b_id", "b").unwrap();
        let mut db = Database::new(c).unwrap();
        db.insert_unchecked("a", Row::new(vec![1.into(), 7.into()]))
            .unwrap();
        assert!(db.validate_foreign_keys().is_err());
        assert!(db.validate().is_err());
        db.insert("b", Row::new(vec![7.into()])).unwrap();
        assert!(db.validate_foreign_keys().is_ok());
        assert!(db.validate().is_ok());
    }

    #[test]
    fn search_scores_normalized() {
        let db = movie_db();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        let s = db.search_score(title, "casablanca");
        assert!(s > 0.0 && s <= 1.0);
        assert_eq!(db.search_score(title, "nonexistentword"), 0.0);
        // Non-indexed attribute scores 0.
        let pk = db.catalog().attr_id("movie", "id").unwrap();
        assert_eq!(db.search_score(pk, "casablanca"), 0.0);
    }

    #[test]
    fn search_rows_returns_matches() {
        let db = movie_db();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        let hits = db.search_rows(title, "wind", 10);
        assert_eq!(hits.len(), 1);
        let tid = db.catalog().table_id("movie").unwrap();
        let name_attr = db.catalog().attr_id("movie", "title").unwrap();
        assert_eq!(
            db.value(tid, hits[0].0, name_attr),
            &Value::text("Gone with the Wind")
        );
    }

    #[test]
    fn finalize_builds_stats() {
        let db = movie_db();
        assert!(db.is_finalized());
        let title = db.catalog().attr_id("movie", "title").unwrap();
        let st = db.attr_stats(title).unwrap();
        assert_eq!(st.rows, 2);
        assert_eq!(st.distinct, 2);
        let fk = db.catalog().foreign_keys()[0];
        let js = db.fk_stats(fk).unwrap();
        assert_eq!(js.pairs, 2);
        assert!(js.nmi > 0.9);
    }

    #[test]
    fn insert_maintains_indexes_incrementally() {
        let mut db = movie_db();
        assert!(db.is_finalized());
        assert_eq!(
            db.search_score(db.catalog().attr_id("movie", "title").unwrap(), "oz"),
            0.0
        );
        db.insert("person", Row::new(vec![3.into(), "Noel Langley".into()]))
            .unwrap();
        db.insert(
            "movie",
            Row::new(vec![12.into(), "The Wizard of Oz".into(), 1.into()]),
        )
        .unwrap();
        assert!(db.is_finalized(), "mutations keep the database finalized");
        let title = db.catalog().attr_id("movie", "title").unwrap();
        assert!(db.search_score(title, "oz") > 0.0);
        assert_eq!(db.attr_stats(title).unwrap().rows, 3);
        assert_matches_rebuild(&db);
    }

    #[test]
    fn delete_restricts_and_maintains() {
        let mut db = movie_db();
        // Fleming still directs a movie: restricted.
        let err = db.delete("person", &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        // Remove the movie first, then the person.
        db.delete("movie", &[Value::Int(10)]).unwrap();
        db.delete("person", &[Value::Int(1)]).unwrap();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        assert_eq!(db.search_score(title, "wind"), 0.0);
        assert!(db.search_score(title, "casablanca") > 0.0);
        assert_eq!(db.row_count(db.catalog().table_id("movie").unwrap()), 1);
        // Unknown key.
        assert!(matches!(
            db.delete("movie", &[Value::Int(10)]).unwrap_err(),
            StoreError::RowNotFound(_)
        ));
        assert!(db.validate().is_ok());
        assert_matches_rebuild(&db);
    }

    #[test]
    fn update_maintains_indexes_and_stats() {
        let mut db = movie_db();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        db.update(
            "movie",
            &[Value::Int(10)],
            Row::new(vec![10.into(), "The Wizard of Oz".into(), 1.into()]),
        )
        .unwrap();
        assert_eq!(db.search_score(title, "wind"), 0.0);
        assert!(db.search_score(title, "wizard") > 0.0);
        // FK change to a missing target rejected.
        let err = db
            .update(
                "movie",
                &[Value::Int(10)],
                Row::new(vec![10.into(), "The Wizard of Oz".into(), 99.into()]),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        // PK change of a referenced row rejected (movies point at person 1).
        let err = db
            .update(
                "person",
                &[Value::Int(1)],
                Row::new(vec![5.into(), "Victor Fleming".into()]),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        // PK change of an unreferenced row is fine and re-keys the index.
        db.delete("movie", &[Value::Int(11)]).unwrap();
        db.update(
            "person",
            &[Value::Int(2)],
            Row::new(vec![6.into(), "Mervyn LeRoy".into()]),
        )
        .unwrap();
        let name = db.catalog().attr_id("person", "name").unwrap();
        assert!(db.search_score(name, "leroy") > 0.0);
        assert_eq!(db.search_score(name, "curtiz"), 0.0);
        assert!(db.validate().is_ok());
        assert_matches_rebuild(&db);
    }

    #[test]
    fn deferred_stats_batch_matches_per_record_refresh() {
        let mut db = movie_db();
        let title = db.catalog().attr_id("movie", "title").unwrap();
        let rows_before = db.attr_stats(title).unwrap().rows;
        db.with_stats_deferred(|db| {
            db.insert("person", Row::new(vec![3.into(), "Noel Langley".into()]))
                .unwrap();
            db.insert(
                "movie",
                Row::new(vec![12.into(), "The Wizard of Oz".into(), 3.into()]),
            )
            .unwrap();
            // Indexes and statistics are both exact mid-batch.
            assert!(db.search_score(title, "wizard") > 0.0);
            assert_eq!(db.attr_stats(title).unwrap().rows, rows_before + 1);
            assert_matches_rebuild(db);
            // Nested scopes are plain calls too.
            db.with_stats_deferred(|db| {
                db.insert(
                    "movie",
                    Row::new(vec![13.into(), "Advise and Consent".into(), Value::Null]),
                )
                .unwrap();
            });
            assert_eq!(db.attr_stats(title).unwrap().rows, rows_before + 2);
        });
        assert_eq!(db.attr_stats(title).unwrap().rows, rows_before + 2);
        assert_matches_rebuild(&db);
        assert!(db.validate().is_ok());
    }

    #[test]
    fn restored_tables_recount_join_counters_once_needed() {
        let src = movie_db();
        let mut db = Database::new(src.catalog().clone()).unwrap();
        for schema in src.catalog().tables() {
            let slots = src
                .table_data(schema.id)
                .slots()
                .map(|s| s.cloned())
                .collect();
            db.restore_table(schema.id, slots).unwrap();
        }
        // Mid-import: statistics come from the rows, the RI check recounts.
        let fk = db.catalog().foreign_keys()[0];
        assert_eq!(db.fk_stats(fk), src.fk_stats(fk));
        let err = db.delete("person", &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation(_)));
        db.delete("movie", &[Value::Int(10)]).unwrap();
        db.delete("person", &[Value::Int(1)]).unwrap();
        db.finalize();
        assert_matches_rebuild(&db);
        assert!(db.validate().is_ok());
    }

    #[test]
    fn mutations_before_finalize_stay_lazy() {
        let mut c = Catalog::new();
        c.define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        let mut db = Database::new(c).unwrap();
        db.insert("t", Row::new(vec![1.into(), "alpha".into()]))
            .unwrap();
        assert!(!db.is_finalized());
        let name = db.catalog().attr_id("t", "name").unwrap();
        assert!(db.index(name).is_none(), "no index work before finalize");
        db.delete("t", &[Value::Int(1)]).unwrap();
        db.insert("t", Row::new(vec![2.into(), "beta".into()]))
            .unwrap();
        db.finalize();
        assert!(db.search_score(name, "beta") > 0.0);
        assert_eq!(db.search_score(name, "alpha"), 0.0);
    }
}
