//! Instance statistics: per-attribute summaries and per-foreign-key join
//! statistics, including the mutual-information measure the backward module
//! uses to weight schema-graph edges.
//!
//! Following the paper (§3, backward module) and its citation of Yang et
//! al.'s summary graphs, each PK–FK edge is scored by the mutual information
//! carried by the join. For a foreign key `A.fk → B.pk` the join result
//! pairs each `A` row with at most one `B` row, so the mutual information of
//! the join-tuple distribution reduces to the entropy of the referenced-key
//! distribution. Normalizing by `ln |B|` yields an *informativeness* in
//! [0, 1]: 1 when the join evenly covers the referenced table, 0 when the
//! join is empty. Edges of uninformative (likely-empty) joins receive larger
//! distances, steering Steiner trees toward join paths that actually contain
//! tuples.
//!
//! [`attribute_stats`] and [`join_stats`] compute from scratch. A database
//! keeps one [`JoinCounts`] per foreign key (a [`JoinCountSet`]) and folds
//! each mutated row into it in O(1), so keeping the counters current costs
//! O(batch) rather than a rescan of every touched table. Reading a join's
//! NMI ([`JoinCounts::stats`]) costs one float term per live referenced key.
//! The results are bit-identical to [`join_stats`] over the same rows.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::error::StoreError;
use crate::row::Row;
use crate::schema::{AttrId, Catalog, ForeignKey, TableId};
use crate::table::TableData;
use crate::value::Value;

/// Summary statistics for one attribute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributeStats {
    /// Total rows in the table.
    pub rows: u64,
    /// NULLs in this column.
    pub nulls: u64,
    /// Distinct non-null values.
    pub distinct: u64,
}

impl AttributeStats {
    /// Fraction of rows that are non-null; 0 for an empty table.
    pub fn fill_factor(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            (self.rows - self.nulls) as f64 / self.rows as f64
        }
    }

    /// Average number of rows sharing one value (selectivity proxy).
    pub fn avg_fanout(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            (self.rows - self.nulls) as f64 / self.distinct as f64
        }
    }
}

/// Statistics of one foreign-key join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinStats {
    /// Number of matching (referencing, referenced) pairs.
    pub pairs: u64,
    /// Distinct referenced primary keys actually referenced.
    pub referenced_distinct: u64,
    /// Rows in the referencing table.
    pub referencing_rows: u64,
    /// Rows in the referenced table.
    pub referenced_rows: u64,
    /// Normalized mutual information of the join in [0, 1].
    pub nmi: f64,
}

impl JoinStats {
    /// Whether the join produces any tuples at all.
    pub fn is_empty_join(&self) -> bool {
        self.pairs == 0
    }
}

/// Compute stats for one attribute column.
pub fn attribute_stats(catalog: &Catalog, data: &TableData, attr: AttrId) -> AttributeStats {
    let a = catalog.attribute(attr);
    let mut distinct: HashMap<&Value, ()> = HashMap::new();
    let mut nulls = 0u64;
    let mut rows = 0u64;
    for (_, row) in data.iter() {
        rows += 1;
        let v = row.get(a.position);
        if v.is_null() {
            nulls += 1;
        } else {
            distinct.insert(v, ());
        }
    }
    AttributeStats {
        rows,
        nulls,
        distinct: distinct.len() as u64,
    }
}

/// Compute join statistics for a foreign key given both tables' data.
pub fn join_stats(
    catalog: &Catalog,
    fk: ForeignKey,
    referencing: &TableData,
    referenced: &TableData,
) -> JoinStats {
    let from_attr = catalog.attribute(fk.from);
    let to_attr = catalog.attribute(fk.to);

    // Count how many referencing rows point at each referenced key.
    let mut ref_counts: HashMap<Value, u64> = HashMap::new();
    let mut pairs = 0u64;
    for (_, row) in referencing.iter() {
        let v = row.get(from_attr.position);
        if v.is_null() {
            continue;
        }
        // The referenced side is a primary key, so matching is a PK lookup.
        if referenced.lookup_pk(std::slice::from_ref(v)).is_some() {
            pairs += 1;
            *ref_counts.entry(v.clone()).or_insert(0) += 1;
        }
    }
    let _ = to_attr; // position of the PK column is implied by the PK index

    let referenced_rows = referenced.len() as u64;
    let nmi = normalized_join_entropy(&ref_counts, pairs, referenced_rows);
    JoinStats {
        pairs,
        referenced_distinct: ref_counts.len() as u64,
        referencing_rows: referencing.len() as u64,
        referenced_rows,
        nmi,
    }
}

/// Entropy of the referenced-key distribution normalized by `ln(referenced
/// table size)`. See module docs for why this equals the join's mutual
/// information under a uniform distribution over join tuples.
///
/// This is the reference evaluation: per-key counts summed in canonical
/// (sorted) order. [`JoinCounts`] evaluates the same float sequence from
/// its count-of-counts histogram, so maintained and rebuilt statistics
/// agree bit for bit.
fn normalized_join_entropy(
    ref_counts: &HashMap<Value, u64>,
    pairs: u64,
    referenced_rows: u64,
) -> f64 {
    if pairs == 0 || referenced_rows <= 1 {
        return 0.0;
    }
    let n = pairs as f64;
    // Canonical (sorted) summation order: entropy depends only on the
    // multiset of counts, and hash-order summation would make the NMI — and
    // everything downstream of the edge weights — vary between builds by
    // floating-point ulps.
    let mut counts: Vec<u64> = ref_counts.values().copied().collect();
    counts.sort_unstable();
    let mut h = 0.0;
    for &c in &counts {
        let p = c as f64 / n;
        h -= p * p.ln();
    }
    normalize_entropy(h, referenced_rows)
}

/// Divide a join entropy by `ln(referenced table size)`, clamped to [0, 1].
fn normalize_entropy(h: f64, referenced_rows: u64) -> f64 {
    let hmax = (referenced_rows as f64).ln();
    if hmax <= 0.0 {
        0.0
    } else {
        (h / hmax).clamp(0.0, 1.0)
    }
}

/// Mergeable partial of [`attribute_stats`] over disjoint row partitions.
///
/// Row and null counts sum; distinct values are carried as a set so the
/// cross-partition union counts each value once, exactly as the
/// whole-table `HashMap` probe would (`Value` equality is total, and its
/// `Ord` agrees with `Eq`, so set membership and hash membership coincide).
#[derive(Debug, Clone, Default)]
pub struct AttributeStatsAccumulator {
    rows: u64,
    nulls: u64,
    distinct: BTreeSet<Value>,
}

impl AttributeStatsAccumulator {
    /// Empty accumulator.
    pub fn new() -> AttributeStatsAccumulator {
        AttributeStatsAccumulator::default()
    }

    /// Fold one partition's rows for `attr` into the accumulator.
    pub fn absorb(&mut self, catalog: &Catalog, data: &TableData, attr: AttrId) {
        let a = catalog.attribute(attr);
        for (_, row) in data.iter() {
            self.rows += 1;
            let v = row.get(a.position);
            if v.is_null() {
                self.nulls += 1;
            } else if !self.distinct.contains(v) {
                self.distinct.insert(v.clone());
            }
        }
    }

    /// Fold another accumulator (over further disjoint partitions).
    pub fn merge(&mut self, other: AttributeStatsAccumulator) {
        self.rows += other.rows;
        self.nulls += other.nulls;
        self.distinct.extend(other.distinct);
    }

    /// The merged statistics — bit-identical to [`attribute_stats`] over
    /// the union of the absorbed partitions.
    pub fn finish(self) -> AttributeStats {
        AttributeStats {
            rows: self.rows,
            nulls: self.nulls,
            distinct: self.distinct.len() as u64,
        }
    }
}

/// Move `key`'s count in `map` one up or down, dropping it at zero;
/// returns the old count.
fn bump(map: &mut HashMap<Value, u32>, key: &Value, up: bool) -> u32 {
    let old = map.get(key).copied().unwrap_or(0);
    let new = if up {
        old.checked_add(1).expect("reference count overflow")
    } else {
        old.checked_sub(1).expect("removed reference was counted")
    };
    match (old, new) {
        (_, 0) => {
            map.remove(key);
        }
        (0, _) => {
            map.insert(key.clone(), new);
        }
        _ => *map.get_mut(key).expect("counted key") = new,
    }
    old
}

/// Join statistics of one foreign key `A.fk → B.pk`, maintained in O(1) per
/// mutated row instead of recomputed by rescanning both tables.
///
/// The counters hold exactly the integer state [`join_stats`] derives:
///
/// * every non-null referencing value → how many rows carry it,
///   *unfiltered*, so a dangling reference (left by
///   [`Database::insert_unchecked`](crate::Database::insert_unchecked)) is
///   remembered and starts to count the moment its target appears;
/// * `pairs` and `referenced_distinct`, restricted to keys whose referenced
///   primary key is live;
/// * a count-of-counts histogram over those same keys.
///
/// The NMI is evaluated from the histogram in ascending-count order,
/// subtracting each count's `p ln p` term once per key — the float sequence
/// of the sorted loop behind [`join_stats`], hence bit-identical. The
/// unfiltered map also answers the restrictive-delete question "is this
/// primary key still referenced?" with one lookup.
#[derive(Debug, Clone)]
pub struct JoinCounts {
    fk: ForeignKey,
    /// Non-null referencing value → rows carrying it (dangling included).
    refs: HashMap<Value, u32>,
    /// Sum of the counts of live-target keys.
    pairs: u64,
    /// Number of live-target keys.
    referenced_distinct: u64,
    /// Count → number of live-target keys with that count.
    histogram: BTreeMap<u32, u64>,
}

impl JoinCounts {
    /// Counters for `fk` over the referencing column's `values`; `is_live`
    /// says whether a value is a live primary key of the referenced table.
    pub(crate) fn build<'a>(
        fk: ForeignKey,
        values: impl IntoIterator<Item = &'a Value>,
        is_live: impl Fn(&Value) -> bool,
    ) -> JoinCounts {
        let mut counts = JoinCounts {
            fk,
            refs: HashMap::new(),
            pairs: 0,
            referenced_distinct: 0,
            histogram: BTreeMap::new(),
        };
        for v in values {
            if !v.is_null() {
                bump(&mut counts.refs, v, true);
            }
        }
        let live: Vec<u32> = (counts.refs.iter())
            .filter(|(v, _)| is_live(v))
            .map(|(_, &c)| c)
            .collect();
        for c in live {
            counts.shift_live(0, c);
        }
        counts
    }

    /// Count of `v` in the referencing column (0 when absent).
    fn count(&self, v: &Value) -> u32 {
        self.refs.get(v).copied().unwrap_or(0)
    }

    /// Rows whose referencing column equals `v`, dangling ones included.
    pub(crate) fn references(&self, v: &Value) -> u64 {
        u64::from(self.count(v))
    }

    /// The statistics, given both tables' live row counts — bit-identical
    /// to [`join_stats`] over the same rows.
    pub fn stats(&self, referencing_rows: u64, referenced_rows: u64) -> JoinStats {
        JoinStats {
            pairs: self.pairs,
            referenced_distinct: self.referenced_distinct,
            referencing_rows,
            referenced_rows,
            nmi: self.nmi(referenced_rows),
        }
    }

    /// One `p ln p` subtraction per live referenced key: the float work that
    /// stays proportional to the referenced keys, where the maintenance does
    /// not.
    fn nmi(&self, referenced_rows: u64) -> f64 {
        if self.pairs == 0 || referenced_rows <= 1 {
            return 0.0;
        }
        let n = self.pairs as f64;
        let mut h = 0.0;
        for (&c, &keys) in &self.histogram {
            let p = f64::from(c) / n;
            let term = p * p.ln();
            for _ in 0..keys {
                h -= term;
            }
        }
        normalize_entropy(h, referenced_rows)
    }

    /// Move one live-target key's count from `old` to `new` (0 = absent),
    /// keeping `pairs`, `referenced_distinct` and the histogram in step.
    fn shift_live(&mut self, old: u32, new: u32) {
        if old > 0 {
            let keys = self
                .histogram
                .get_mut(&old)
                .expect("histogram holds every live count");
            *keys -= 1;
            if *keys == 0 {
                self.histogram.remove(&old);
            }
            self.referenced_distinct -= 1;
        }
        if new > 0 {
            *self.histogram.entry(new).or_insert(0) += 1;
            self.referenced_distinct += 1;
        }
        self.pairs = self.pairs + u64::from(new) - u64::from(old);
    }

    /// A row referencing non-null `v` appeared.
    fn add_ref(&mut self, v: &Value, target_live: bool) {
        let old = bump(&mut self.refs, v, true);
        if target_live {
            self.shift_live(old, old + 1);
        }
    }

    /// A row referencing non-null `v` disappeared.
    fn remove_ref(&mut self, v: &Value, target_live: bool) {
        let old = bump(&mut self.refs, v, false);
        if target_live {
            self.shift_live(old, old - 1);
        }
    }

    /// Primary key `v` of the referenced table became live.
    fn target_inserted(&mut self, v: &Value) {
        self.shift_live(0, self.count(v));
    }

    /// Primary key `v` of the referenced table stopped being live.
    fn target_removed(&mut self, v: &Value) {
        self.shift_live(self.count(v), 0);
    }
}

/// [`JoinCounts`] for every foreign key of a catalog, in catalog order, and
/// the two things a store does with them: fold in a row mutation, and check
/// restrictive referential integrity before one.
#[derive(Debug, Clone, Default)]
pub struct JoinCountSet {
    counts: Vec<JoinCounts>,
}

impl JoinCountSet {
    /// Counters for every foreign key of `catalog`, built from scratch.
    /// `rows_of` yields a table's live rows; `is_live` says whether a value
    /// is a live primary key of a table.
    pub fn build<'a, I>(
        catalog: &Catalog,
        rows_of: impl Fn(TableId) -> I,
        is_live: impl Fn(TableId, &Value) -> bool,
    ) -> JoinCountSet
    where
        I: Iterator<Item = &'a Row>,
    {
        let counts = catalog
            .foreign_keys()
            .iter()
            .map(|fk| {
                let from = catalog.attribute(fk.from);
                let target = catalog.attribute(fk.to).table;
                JoinCounts::build(
                    *fk,
                    rows_of(from.table).map(|row| row.get(from.position)),
                    |v| is_live(target, v),
                )
            })
            .collect();
        JoinCountSet { counts }
    }

    /// The counters of one foreign key.
    pub fn get(&self, fk: ForeignKey) -> Option<&JoinCounts> {
        self.counts.iter().find(|c| c.fk == fk)
    }

    /// Fold one row mutation of `table` into every counter it affects:
    /// `old` is the row before (`None` for an insert), `new` the row after
    /// (`None` for a delete). `is_live` answers primary-key liveness in the
    /// state *after* the mutation. O(foreign keys) hash operations.
    pub fn apply_row_change(
        &mut self,
        catalog: &Catalog,
        table: TableId,
        old: Option<&Row>,
        new: Option<&Row>,
        is_live: impl Fn(TableId, &Value) -> bool,
    ) {
        for counts in &mut self.counts {
            let from = catalog.attribute(counts.fk.from);
            let to = catalog.attribute(counts.fk.to);
            let is_target = to.table == table;
            // Three steps, each a consistent state: the old row's key dies,
            // its references are swapped for the new row's (judged against
            // the table without either version of the row), the new key
            // comes alive.
            if let (true, Some(old)) = (is_target, old) {
                counts.target_removed(old.get(to.position));
            }
            if from.table == table {
                let new_key = new.filter(|_| is_target).map(|r| r.get(to.position));
                let live = |v: &Value| new_key != Some(v) && is_live(to.table, v);
                if let Some(v) = old.map(|r| r.get(from.position)).filter(|v| !v.is_null()) {
                    counts.remove_ref(v, live(v));
                }
                if let Some(v) = new.map(|r| r.get(from.position)).filter(|v| !v.is_null()) {
                    counts.add_ref(v, live(v));
                }
            }
            if let (true, Some(new)) = (is_target, new) {
                counts.target_inserted(new.get(to.position));
            }
        }
    }

    /// Restrictive referential check before deleting `victim` from `table`
    /// (`replacement` is `None`) or giving it a new primary key (the
    /// replacement row): no other row may still reference the victim's
    /// current key. The victim's own reference dies with it on delete and
    /// is judged by the replacement's value on update. Foreign keys are
    /// visited in catalog order and the first one still referencing names
    /// the error. O(foreign keys) lookups.
    pub fn check_unreferenced(
        &self,
        catalog: &Catalog,
        table: TableId,
        victim: &Row,
        replacement: Option<&Row>,
    ) -> Result<(), StoreError> {
        for counts in &self.counts {
            let to = catalog.attribute(counts.fk.to);
            if to.table != table {
                continue;
            }
            let key = victim.get(to.position);
            let mut refs = counts.references(key);
            let from = catalog.attribute(counts.fk.from);
            if from.table == table {
                if victim.get(from.position) == key {
                    refs = refs
                        .checked_sub(1)
                        .expect("the victim's own reference is counted");
                }
                if replacement.is_some_and(|r| r.get(from.position) == key) {
                    refs += 1;
                }
            }
            if refs > 0 {
                return Err(StoreError::ForeignKeyViolation(format!(
                    "{} = {key} still references {}",
                    catalog.qualified_name(counts.fk.from),
                    catalog.qualified_name(counts.fk.to)
                )));
            }
        }
        Ok(())
    }
}

/// Shannon entropy (nats) of an empirical count distribution.
pub fn entropy(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::types::DataType;

    fn fixture() -> (Catalog, TableData, TableData, ForeignKey) {
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
        let fk = c.foreign_keys()[0];
        let bs = c.table(c.table_id("b").unwrap()).clone();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let mut b = TableData::new();
        for i in 0..4 {
            b.insert(&c, &bs, Row::new(vec![i.into()])).unwrap();
        }
        let mut a = TableData::new();
        for (i, target) in [
            (0, Some(0)),
            (1, Some(1)),
            (2, Some(2)),
            (3, Some(3)),
            (4, None),
        ] {
            let v = target.map(|t: i64| Value::Int(t)).unwrap_or(Value::Null);
            a.insert(&c, &as_, Row::new(vec![(i as i64).into(), v]))
                .unwrap();
        }
        (c, a, b, fk)
    }

    #[test]
    fn attribute_stats_counts() {
        let (c, a, _, _) = fixture();
        let attr = c.attr_id("a", "b_id").unwrap();
        let s = attribute_stats(&c, &a, attr);
        assert_eq!(s.rows, 5);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.distinct, 4);
        assert!((s.fill_factor() - 0.8).abs() < 1e-12);
        assert!((s.avg_fanout() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn even_join_has_high_nmi() {
        let (c, a, b, fk) = fixture();
        let js = join_stats(&c, fk, &a, &b);
        assert_eq!(js.pairs, 4);
        assert_eq!(js.referenced_distinct, 4);
        // Even coverage of all 4 referenced rows => NMI = 1.
        assert!((js.nmi - 1.0).abs() < 1e-9, "nmi={}", js.nmi);
    }

    #[test]
    fn empty_join_has_zero_nmi() {
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
        let fk = c.foreign_keys()[0];
        let bs = c.table(c.table_id("b").unwrap()).clone();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let mut b = TableData::new();
        b.insert(&c, &bs, Row::new(vec![1.into()])).unwrap();
        let mut a = TableData::new();
        // All fk values NULL: join empty.
        a.insert(&c, &as_, Row::new(vec![1.into(), Value::Null]))
            .unwrap();
        let js = join_stats(&c, fk, &a, &b);
        assert!(js.is_empty_join());
        assert_eq!(js.nmi, 0.0);
    }

    #[test]
    fn skewed_join_has_lower_nmi_than_even() {
        let (c, _, b, fk) = fixture();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        // All rows reference key 0: maximal skew.
        let mut a = TableData::new();
        for i in 0..4i64 {
            a.insert(&c, &as_, Row::new(vec![i.into(), 0.into()]))
                .unwrap();
        }
        let js = join_stats(&c, fk, &a, &b);
        assert_eq!(js.pairs, 4);
        assert_eq!(js.referenced_distinct, 1);
        assert_eq!(js.nmi, 0.0); // single referenced key => zero entropy
    }

    /// Split a table's rows round-robin into `n` partitions.
    fn split(
        c: &Catalog,
        schema: &crate::schema::TableSchema,
        data: &TableData,
        n: usize,
    ) -> Vec<TableData> {
        let mut parts: Vec<TableData> = (0..n).map(|_| TableData::new()).collect();
        for (i, (_, row)) in data.iter().enumerate() {
            parts[i % n]
                .insert(c, schema, Row::new(row.values().to_vec()))
                .unwrap();
        }
        parts
    }

    #[test]
    fn attribute_accumulator_matches_whole_bitwise() {
        let (c, a, _, _) = fixture();
        let schema = c.table(c.table_id("a").unwrap()).clone();
        for attr_name in ["id", "b_id"] {
            let attr = c.attr_id("a", attr_name).unwrap();
            let whole = attribute_stats(&c, &a, attr);
            for n in [1usize, 2, 3] {
                let mut acc = AttributeStatsAccumulator::new();
                for part in &split(&c, &schema, &a, n) {
                    acc.absorb(&c, part, attr);
                }
                assert_eq!(acc.finish(), whole, "attr {attr_name}, {n} partitions");
                // Merging sub-accumulators is the same as one big absorb.
                let parts = split(&c, &schema, &a, n);
                let mut merged = AttributeStatsAccumulator::new();
                for part in &parts {
                    let mut sub = AttributeStatsAccumulator::new();
                    sub.absorb(&c, part, attr);
                    merged.merge(sub);
                }
                assert_eq!(merged.finish(), whole);
            }
        }
    }

    /// Referencing and referenced values of the fixture FK, as a
    /// [`JoinCountSet`] over `a` and `b` would see them.
    fn counts_of(c: &Catalog, a: &TableData, b: &TableData, fk: ForeignKey) -> JoinCounts {
        let from = c.attribute(fk.from).position;
        JoinCounts::build(fk, a.iter().map(|(_, r)| r.get(from)), |v| {
            b.lookup_pk(std::slice::from_ref(v)).is_some()
        })
    }

    fn assert_bitwise(got: &JoinStats, want: &JoinStats) {
        assert_eq!(got.pairs, want.pairs);
        assert_eq!(got.referenced_distinct, want.referenced_distinct);
        assert_eq!(got.referencing_rows, want.referencing_rows);
        assert_eq!(got.referenced_rows, want.referenced_rows);
        assert_eq!(got.nmi.to_bits(), want.nmi.to_bits(), "nmi bits");
    }

    #[test]
    fn join_counts_match_whole_bitwise() {
        let (c, a, b, fk) = fixture();
        let rows = |t: &TableData| t.len() as u64;
        let whole = join_stats(&c, fk, &a, &b);
        assert_bitwise(&counts_of(&c, &a, &b, fk).stats(rows(&a), rows(&b)), &whole);
        // Skewed counts (several histogram buckets, repeated counts).
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let mut skewed = TableData::new();
        for (i, target) in [0, 0, 0, 1, 1, 2, 3, 3, 3].into_iter().enumerate() {
            skewed
                .insert(
                    &c,
                    &as_,
                    Row::new(vec![(i as i64).into(), Value::Int(target)]),
                )
                .unwrap();
        }
        let whole = join_stats(&c, fk, &skewed, &b);
        let built = counts_of(&c, &skewed, &b, fk);
        assert_bitwise(&built.stats(rows(&skewed), rows(&b)), &whole);
        // Row by row through the maintained path: the same state.
        let mut set = JoinCountSet::build(&c, |_| std::iter::empty(), |_, _| false);
        let b_id = c.table_id("b").unwrap();
        for (_, row) in b.iter() {
            set.apply_row_change(&c, b_id, None, Some(row), |_, _| false);
        }
        let a_id = c.table_id("a").unwrap();
        for (_, row) in skewed.iter() {
            set.apply_row_change(&c, a_id, None, Some(row), |t, v| {
                t == b_id && b.lookup_pk(std::slice::from_ref(v)).is_some()
            });
        }
        let maintained = set.get(fk).unwrap();
        assert_bitwise(&maintained.stats(rows(&skewed), rows(&b)), &whole);
        assert_eq!(maintained.references(&Value::Int(0)), 3);
        assert_eq!(maintained.references(&Value::Int(9)), 0);

        // Text keys, one of them dangling.
        let mut c = Catalog::new();
        c.define_table("tag")
            .unwrap()
            .pk("name", DataType::Text)
            .unwrap()
            .finish();
        c.define_table("post")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col_opts("tag", DataType::Text, true, false)
            .unwrap()
            .finish();
        c.add_foreign_key("post", "tag", "tag").unwrap();
        let fk = c.foreign_keys()[0];
        let (tag, post) = (c.table_id("tag").unwrap(), c.table_id("post").unwrap());
        let mut tags = TableData::new();
        for name in ["a", "b", "c"] {
            tags.insert(&c, c.table(tag), Row::new(vec![name.into()]))
                .unwrap();
        }
        let mut posts = TableData::new();
        for (i, t) in ["a", "a", "b", "zz"].into_iter().enumerate() {
            posts
                .insert(
                    &c,
                    c.table(post),
                    Row::new(vec![(i as i64).into(), t.into()]),
                )
                .unwrap();
        }
        let counts = counts_of(&c, &posts, &tags, fk);
        assert_eq!(counts.references(&Value::text("a")), 2);
        assert_eq!(counts.references(&Value::text("zz")), 1);
        assert_bitwise(
            &counts.stats(rows(&posts), rows(&tags)),
            &join_stats(&c, fk, &posts, &tags),
        );
    }

    #[test]
    fn join_counts_filter_dangling_references() {
        // A referencing value whose PK is not live counts toward
        // `references` (the RI check needs it) but never as a pair.
        let (c, _, b, fk) = fixture();
        let as_ = c.table(c.table_id("a").unwrap()).clone();
        let mut a = TableData::new();
        a.insert(&c, &as_, Row::new(vec![0.into(), Value::Int(99)]))
            .unwrap();
        a.insert(&c, &as_, Row::new(vec![1.into(), Value::Int(0)]))
            .unwrap();
        let counts = counts_of(&c, &a, &b, fk);
        let js = counts.stats(a.len() as u64, b.len() as u64);
        assert_eq!(js.pairs, 1, "dangling 99 filtered");
        assert_eq!(js.referenced_distinct, 1);
        assert_eq!(counts.references(&Value::Int(99)), 1);
        assert_bitwise(&js, &join_stats(&c, fk, &a, &b));
    }

    #[test]
    fn entropy_helper() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[5]), 0.0);
        let h = entropy(&[1, 1, 1, 1]);
        assert!((h - (4f64).ln()).abs() < 1e-12);
    }
}
