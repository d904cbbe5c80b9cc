//! Property-based tests for the storage engine: value ordering laws, the
//! tokenizer pipeline, and hash-join correctness against a nested-loop
//! reference executor.

use proptest::prelude::*;
use relstore::index::{normalize_keyword, tokenize};
use relstore::sql::{execute, JoinCondition, Predicate, Projection, SelectStatement};
use relstore::{Catalog, DataType, Database, ForeignKey, Row, RowId, StoreError, TableId, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        (-1e6f64..1e6).prop_map(Value::float),
        "[a-z ]{0,12}".prop_map(Value::text),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        if a.cmp(&b) == Ordering::Less {
            prop_assert_eq!(b.cmp(&a), Ordering::Greater);
        }
        // Transitivity on a triple.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Eq consistent with Ordering::Equal.
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    }

    #[test]
    fn equal_values_hash_equal(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let h = |v: &Value| {
                let mut s = DefaultHasher::new();
                v.hash(&mut s);
                s.finish()
            };
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    #[test]
    fn tokenizer_is_idempotent(s in "[A-Za-z0-9 ,.'-]{0,40}") {
        let once = tokenize(&s);
        let again = tokenize(&once.join(" "));
        prop_assert_eq!(once, again);
    }

    #[test]
    fn normalized_keywords_match_their_own_index(word in "[a-z]{3,10}") {
        // Any word indexed must be findable through keyword normalization.
        let mut ix = relstore::index::AttributeIndex::new();
        ix.add(relstore::RowId(0), &word);
        if let Some(kw) = normalize_keyword(&word) {
            prop_assert!(ix.score(&kw) > 0.0, "word {word} -> kw {kw} not found");
        }
    }

    #[test]
    fn hash_join_matches_nested_loop(
        left in proptest::collection::vec((0i64..20, 0i64..10), 0..30),
        right in proptest::collection::vec(0i64..10, 0..10),
    ) {
        // Schema: r(id pk), l(id pk, r_id fk-ish but unchecked values in 0..10).
        let mut c = Catalog::new();
        c.define_table("r").expect("t").pk("id", DataType::Int).expect("pk").finish();
        c.define_table("l")
            .expect("t")
            .pk("id", DataType::Int)
            .expect("pk")
            .col_opts("r_id", DataType::Int, true, false)
            .expect("col")
            .finish();
        let mut db = Database::new(c).expect("db");
        let mut right_ids = Vec::new();
        for (i, r) in right.iter().enumerate() {
            // Dedup pk values.
            if right_ids.contains(r) { continue; }
            right_ids.push(*r);
            let _ = i;
            db.insert("r", Row::new(vec![(*r).into()])).expect("insert");
        }
        let mut seen = Vec::new();
        for (id, rid) in &left {
            if seen.contains(id) { continue; }
            seen.push(*id);
            db.insert_unchecked("l", Row::new(vec![(*id).into(), (*rid).into()])).expect("insert");
        }
        db.finalize();
        let cat = db.catalog();
        let stmt = SelectStatement {
            projection: Projection::Star,
            from: vec![cat.table_id("l").expect("t"), cat.table_id("r").expect("t")],
            joins: vec![JoinCondition {
                left: cat.attr_id("l", "r_id").expect("a"),
                right: cat.attr_id("r", "id").expect("a"),
            }],
            predicates: vec![],
            distinct: false,
            limit: None,
        };
        let rs = execute(&db, &stmt).expect("executes");
        // Nested-loop reference count.
        let mut expected = 0usize;
        for id in &seen {
            let rid = left.iter().find(|(i, _)| i == id).expect("present").1;
            if right_ids.contains(&rid) {
                expected += 1;
            }
        }
        prop_assert_eq!(rs.len(), expected);
    }

    #[test]
    fn distinct_never_increases_rows(
        vals in proptest::collection::vec(0i64..5, 1..30),
    ) {
        let mut c = Catalog::new();
        c.define_table("t")
            .expect("t")
            .pk("id", DataType::Int)
            .expect("pk")
            .col_opts("v", DataType::Int, false, false)
            .expect("col")
            .finish();
        let mut db = Database::new(c).expect("db");
        for (i, v) in vals.iter().enumerate() {
            db.insert("t", Row::new(vec![(i as i64).into(), (*v).into()])).expect("insert");
        }
        db.finalize();
        let cat = db.catalog();
        let mut stmt = SelectStatement::scan(cat.table_id("t").expect("t"));
        stmt.projection = Projection::Attrs(vec![cat.attr_id("t", "v").expect("a")]);
        let plain = execute(&db, &stmt).expect("ok").len();
        stmt.distinct = true;
        let distinct = execute(&db, &stmt).expect("ok").len();
        prop_assert!(distinct <= plain);
        prop_assert_eq!(plain, vals.len());
        // Distinct equals the number of unique values.
        let mut uniq = vals.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(distinct, uniq.len());
    }

    #[test]
    fn contains_predicate_subset_of_scan(
        words in proptest::collection::vec("[a-z]{3,8}", 1..15),
        probe in "[a-z]{3,8}",
    ) {
        let mut c = Catalog::new();
        c.define_table("t")
            .expect("t")
            .pk("id", DataType::Int)
            .expect("pk")
            .col("s", DataType::Text)
            .expect("col")
            .finish();
        let mut db = Database::new(c).expect("db");
        for (i, w) in words.iter().enumerate() {
            db.insert("t", Row::new(vec![(i as i64).into(), w.clone().into()])).expect("insert");
        }
        db.finalize();
        let cat = db.catalog();
        let mut stmt = SelectStatement::scan(cat.table_id("t").expect("t"));
        stmt.predicates.push(Predicate::Contains {
            attr: cat.attr_id("t", "s").expect("a"),
            keyword: probe.clone(),
        });
        let hits = execute(&db, &stmt).expect("ok").len();
        prop_assert!(hits <= words.len());
        // The index agrees with the executor on match count.
        let ix_hits = db
            .search_rows(cat.attr_id("t", "s").expect("a"), &probe, usize::MAX)
            .len();
        prop_assert_eq!(hits, ix_hits, "executor vs index disagree for {}", probe);
    }
}

// ---------------------------------------------------------------------------
// Hot-path properties: the allocation-lean tokenizer, the bulk-build index
// path, and the O(1) prepared-probe scoring must each be bit-identical to
// the straightforward implementations they replaced.

/// The pre-optimization tokenizer — *including its stemmer* — kept
/// verbatim as the reference the allocation-lean `tokenize_with` /
/// `stem_in_place` pipeline is fuzzed against. Importing the production
/// `stem` here would compare the refactored code against itself and pin
/// nothing.
mod reference_tokenizer {
    use relstore::index::is_stopword;

    pub fn stem(token: &str) -> String {
        let mut t = token.to_string();
        let n = t.len();
        if n >= 5 && t.ends_with("sses") {
            t.truncate(n - 2);
        } else if n >= 4 && t.ends_with("ies") {
            t.truncate(n - 3);
            t.push('y');
        } else if t.ends_with("ss") {
            // keep: "class", "press"
        } else if n >= 4 && t.ends_with('s') {
            t.truncate(n - 1);
        } else if n >= 6 && t.ends_with("ing") {
            t.truncate(n - 3);
        } else if n >= 5 && t.ends_with("ed") {
            t.truncate(n - 2);
        }
        let n = t.len();
        if n >= 4 && t.ends_with("ie") {
            t.truncate(n - 2);
            t.push('y');
        }
        t
    }

    pub fn tokenize(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                cur.extend(ch.to_lowercase());
            } else if !cur.is_empty() {
                push_token(&mut out, &cur);
                cur.clear();
            }
        }
        if !cur.is_empty() {
            push_token(&mut out, &cur);
        }
        out
    }

    fn push_token(out: &mut Vec<String>, raw: &str) {
        if raw.is_empty() || is_stopword(raw) {
            return;
        }
        out.push(stem(raw));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lean_tokenizer_matches_reference(s in "[A-Za-z0-9 ,.'\u{e4}\u{d6}\u{3b1}\u{130}-]{0,48}") {
        // Mixed ASCII/Unicode, punctuation, stopwords, casing: the in-place
        // fast path must reproduce the old per-token-allocation pipeline
        // exactly, token for token.
        prop_assert_eq!(tokenize(&s), reference_tokenizer::tokenize(&s));
        let mut streamed = Vec::new();
        relstore::index::tokenize_with(&s, |t| streamed.push(t.to_string()));
        prop_assert_eq!(streamed, reference_tokenizer::tokenize(&s));
    }

    #[test]
    fn stem_in_place_matches_old_stem(s in "[a-z\u{e9}]{0,12}") {
        let mut buf = s.clone();
        relstore::index::stem_in_place(&mut buf);
        prop_assert_eq!(&buf, &reference_tokenizer::stem(&s));
        prop_assert_eq!(relstore::index::stem(&s), reference_tokenizer::stem(&s));
    }
}

/// Word pool for index property tests: token collisions, repeats (max-tf
/// churn), stopwords, phrases, empties.
const INDEX_WORDS: [&str; 8] = [
    "wind",
    "wind wind wind",
    "gone with the wind",
    "casablanca",
    "the of",
    "",
    "kane citizen kane kane",
    "wind rises",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bulk_build_matches_arbitrary_incremental_interleavings(
        ops in proptest::collection::vec((0u8..3, 0u64..10, 0usize..8), 0..50)
    ) {
        use relstore::index::AttributeIndex;
        // Drive the incremental index through adds/removes/re-adds; mirror
        // the live rows; then bulk-build over the survivors (in slot order
        // *and* reversed) and demand bitwise equality.
        let mut live: Vec<(u64, &str)> = Vec::new();
        let mut ix = AttributeIndex::new();
        for &(op, rid, w) in &ops {
            let text = INDEX_WORDS[w % INDEX_WORDS.len()];
            match op % 3 {
                0 => {
                    if !live.iter().any(|(r, _)| *r == rid) {
                        ix.add(relstore::RowId(rid), text);
                        live.push((rid, text));
                    }
                }
                _ => {
                    if let Some(at) = live.iter().position(|(r, _)| *r == rid) {
                        let (_, t) = live.remove(at);
                        ix.remove(relstore::RowId(rid), t);
                    }
                }
            }
        }
        live.sort_by_key(|(r, _)| *r);
        let mut bulk = AttributeIndex::new();
        for &(r, t) in &live {
            bulk.add_bulk(relstore::RowId(r), t);
        }
        bulk.finish_build();
        prop_assert_eq!(&bulk, &ix, "bulk build diverged after {} ops", ops.len());
        let mut reversed = AttributeIndex::new();
        for &(r, t) in live.iter().rev() {
            reversed.add_bulk(relstore::RowId(r), t);
        }
        reversed.finish_build();
        prop_assert_eq!(&reversed, &ix, "bulk load order leaked into the index");
    }

    #[test]
    fn prepared_probe_scores_match_reference_bitwise(
        values in proptest::collection::vec(0usize..8, 0..12),
        probe_word in 0usize..8,
        extra in "[a-z]{0,6}",
    ) {
        use relstore::index::{AttributeIndex, KeywordProbe};
        let mut ix = AttributeIndex::new();
        for (i, w) in values.iter().enumerate() {
            ix.add(relstore::RowId(i as u64), INDEX_WORDS[*w % INDEX_WORDS.len()]);
        }
        for kw in [INDEX_WORDS[probe_word % INDEX_WORDS.len()], extra.as_str(), "wind", "the"] {
            let fast = ix.score(kw);
            let reference = ix.score_reference(kw);
            prop_assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "probe diverged for {:?}: {} vs {}", kw, fast, reference
            );
            if let Some(p) = KeywordProbe::new(kw) {
                prop_assert_eq!(ix.score_probe(&p).to_bits(), reference.to_bits());
                prop_assert_eq!(ix.search_probe(&p, 5), ix.search(kw, 5));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Live-mutation properties: any interleaving of insert / delete / update
// must leave every inverted index and all statistics bit-identical to a
// database rebuilt from scratch over the final rows, and the instance must
// pass full integrity validation after every accepted operation.

/// Small word pool so random texts collide on tokens (shared postings,
/// multi-token values, stopwords, and empty strings all get exercised).
const WORDS: [&str; 8] = [
    "wind",
    "gone with the wind",
    "casablanca",
    "the",
    "",
    "wind rises",
    "kane citizen kane",
    "vertigo",
];

fn mutation_db() -> Database {
    let mut c = Catalog::new();
    c.define_table("author")
        .expect("t")
        .pk("id", DataType::Int)
        .expect("pk")
        .col("name", DataType::Text)
        .expect("col")
        .finish();
    c.define_table("book")
        .expect("t")
        .pk("id", DataType::Int)
        .expect("pk")
        .col("title", DataType::Text)
        .expect("col")
        .col_opts("author_id", DataType::Int, true, false)
        .expect("col")
        .finish();
    c.add_foreign_key("book", "author_id", "author")
        .expect("fk");
    let mut db = Database::new(c).expect("db");
    db.finalize();
    db
}

/// One scripted operation: `(op, id, word, ref_id)`. Interpreted against
/// whatever state the database happens to be in — constraint violations
/// (duplicate keys, RI restricts, missing rows) are expected outcomes, not
/// failures; the property is that *whatever* the checked API accepted, the
/// maintained state equals a rebuild.
fn apply_mutation(db: &mut Database, op: &(u8, i64, usize, i64)) {
    let (kind, id, word, ref_id) = *op;
    let text = Value::text(WORDS[word % WORDS.len()]);
    let author_ref = if ref_id % 3 == 0 {
        Value::Null
    } else {
        Value::Int(ref_id)
    };
    match kind % 6 {
        0 => {
            let _ = db.insert("author", Row::new(vec![id.into(), text]));
        }
        1 => {
            let _ = db.insert("book", Row::new(vec![id.into(), text, author_ref]));
        }
        2 => checked_delete(db, "author", id),
        3 => checked_delete(db, "book", id),
        4 => checked_update(db, "author", id, Row::new(vec![id.into(), text])),
        _ => checked_update(db, "book", id, Row::new(vec![id.into(), text, author_ref])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleaved_mutations_match_rebuild(
        ops in proptest::collection::vec((0u8..6, 0i64..8, 0usize..8, 0i64..8), 0..60)
    ) {
        let mut db = mutation_db();
        for op in &ops {
            apply_mutation(&mut db, op);
        }
        prop_assert!(db.is_finalized(), "mutations keep the database finalized");
        db.validate().expect("maintained instance passes integrity validation");

        // Rebuild from scratch over the exact same final rows.
        let mut rebuilt = db.clone();
        rebuilt.finalize();
        for attr in db.catalog().attributes() {
            prop_assert_eq!(
                db.index(attr.id),
                rebuilt.index(attr.id),
                "inverted index of {} diverged from rebuild after {} ops",
                db.catalog().qualified_name(attr.id),
                ops.len()
            );
            prop_assert_eq!(db.attr_stats(attr.id), rebuilt.attr_stats(attr.id));
        }
        for fk in db.catalog().foreign_keys() {
            let maintained = db.fk_stats(*fk).expect("catalog FK");
            let fresh = rebuilt.fk_stats(*fk).expect("catalog FK");
            prop_assert_eq!(maintained.nmi.to_bits(), fresh.nmi.to_bits());
            prop_assert_eq!(maintained.pairs, fresh.pairs);
            prop_assert_eq!(maintained.referenced_distinct, fresh.referenced_distinct);
            prop_assert_eq!(maintained.referencing_rows, fresh.referencing_rows);
            prop_assert_eq!(maintained.referenced_rows, fresh.referenced_rows);
        }
        assert_stats_match_scratch(&db);
    }

    #[test]
    fn accepted_mutations_preserve_referential_integrity(
        ops in proptest::collection::vec((0u8..6, 0i64..8, 0usize..8, 0i64..8), 0..40)
    ) {
        let mut db = mutation_db();
        for op in &ops {
            apply_mutation(&mut db, op);
            // The checked API must never let the instance go inconsistent,
            // not even transiently between operations.
            db.validate().expect("instance stays consistent after every op");
        }
    }
}

// ---------------------------------------------------------------------------
// Maintained join counters and the count-based restrictive-delete check,
// against from-scratch statistics and the linear-scan RI check they replace.

/// After any mutation: every FK's maintained statistics equal a
/// from-scratch `join_stats` bit for bit, and every attribute's on-demand
/// statistics equal `attribute_stats`.
fn assert_stats_match_scratch(db: &Database) {
    let c = db.catalog();
    for fk in c.foreign_keys() {
        let maintained = db.fk_stats(*fk).expect("catalog FK");
        let scratch = relstore::stats::join_stats(
            c,
            *fk,
            db.table_data(c.attribute(fk.from).table),
            db.table_data(c.attribute(fk.to).table),
        );
        assert_eq!(
            maintained.nmi.to_bits(),
            scratch.nmi.to_bits(),
            "NMI bits of {} diverged",
            c.qualified_name(fk.from)
        );
        assert_eq!(maintained, scratch);
    }
    for attr in c.attributes() {
        let scratch = relstore::stats::attribute_stats(c, db.table_data(attr.table), attr.id);
        assert_eq!(db.attr_stats(attr.id), Some(scratch));
    }
}

/// Reference twin of the restrictive RI check: scan every referencing row
/// of every FK into `table` (catalog order), skipping the victim on delete
/// and judging it by `replacement` on update.
fn reference_check_unreferenced(
    db: &Database,
    table: TableId,
    rid: RowId,
    replacement: Option<&Row>,
) -> Result<(), StoreError> {
    let c = db.catalog();
    let victim = db.table_data(table).row(rid);
    for fk in c.foreign_keys() {
        let to = c.attribute(fk.to);
        if to.table != table {
            continue;
        }
        let pk_val = victim.get(to.position);
        let from = c.attribute(fk.from);
        for (r_rid, r_row) in db.table_data(from.table).iter() {
            let row = if from.table == table && r_rid == rid {
                match replacement {
                    Some(new_row) => new_row,
                    None => continue,
                }
            } else {
                r_row
            };
            let v = row.get(from.position);
            if !v.is_null() && v == pk_val {
                return Err(StoreError::ForeignKeyViolation(format!(
                    "{} = {v} still references {}",
                    c.qualified_name(fk.from),
                    c.qualified_name(fk.to)
                )));
            }
        }
    }
    Ok(())
}

/// Whether every non-null FK value of a candidate `row` of `table` has a
/// target — the check `update` runs before the RI check.
fn fk_targets_exist(db: &Database, table: TableId, row: &Row) -> bool {
    let c = db.catalog();
    c.foreign_keys().iter().all(|fk: &ForeignKey| {
        let from = c.attribute(fk.from);
        if from.table != table {
            return true;
        }
        let v = row.get(from.position);
        v.is_null()
            || db
                .table_data(c.attribute(fk.to).table)
                .lookup_pk(std::slice::from_ref(v))
                .is_some()
    })
}

/// `delete`, with its accept/reject decision and error string checked
/// against the linear-scan twin.
fn checked_delete(db: &mut Database, table: &str, key: i64) {
    let tid = db.catalog().table_id(table).unwrap();
    let rid = db.table_data(tid).lookup_pk(&[Value::Int(key)]);
    let expected = rid.map(|rid| reference_check_unreferenced(db, tid, rid, None));
    let got = db.delete(table, &[Value::Int(key)]);
    match expected {
        None => assert!(matches!(got, Err(StoreError::RowNotFound(_)))),
        Some(Ok(())) => assert!(got.is_ok(), "twin accepted, store said {got:?}"),
        Some(Err(e)) => assert_eq!(got.unwrap_err(), e),
    }
}

/// `update`, with its RI decision checked against the twin whenever the
/// RI check runs (live row, FK targets present, primary key changed).
fn checked_update(db: &mut Database, table: &str, key: i64, row: Row) {
    let tid = db.catalog().table_id(table).unwrap();
    let rid = db.table_data(tid).lookup_pk(&[Value::Int(key)]);
    let reaches_ri =
        rid.is_some() && fk_targets_exist(db, tid, &row) && row.get(0) != &Value::Int(key);
    let expected = rid
        .filter(|_| reaches_ri)
        .map(|rid| reference_check_unreferenced(db, tid, rid, Some(&row)));
    let got = db.update(table, &[Value::Int(key)], row);
    match expected {
        None => {}
        Some(Ok(())) => assert!(
            got.is_ok() || matches!(got, Err(StoreError::DuplicateKey(_))),
            "twin accepted, store said {got:?}"
        ),
        Some(Err(e)) => assert_eq!(got.unwrap_err(), e),
    }
}

/// author(id PK, name, mentor_id → author) — a self-referencing FK — and
/// book(id PK, title, author_id → author).
fn self_ref_db() -> Database {
    let mut c = Catalog::new();
    c.define_table("author")
        .expect("t")
        .pk("id", DataType::Int)
        .expect("pk")
        .col("name", DataType::Text)
        .expect("col")
        .col_opts("mentor_id", DataType::Int, true, false)
        .expect("col")
        .finish();
    c.define_table("book")
        .expect("t")
        .pk("id", DataType::Int)
        .expect("pk")
        .col("title", DataType::Text)
        .expect("col")
        .col_opts("author_id", DataType::Int, true, false)
        .expect("col")
        .finish();
    c.add_foreign_key("author", "mentor_id", "author")
        .expect("fk");
    c.add_foreign_key("book", "author_id", "author")
        .expect("fk");
    let mut db = Database::new(c).expect("db");
    db.finalize();
    db
}

/// One scripted operation `(kind, id, new_id, word, ref_id)` against the
/// self-referencing schema. `ref_id` 0 means NULL.
fn apply_ri_op(db: &mut Database, op: &(u8, i64, i64, usize, i64)) {
    let (kind, id, new_id, word, ref_id) = *op;
    let text = Value::text(WORDS[word % WORDS.len()]);
    let r = if ref_id == 0 {
        Value::Null
    } else {
        Value::Int(ref_id)
    };
    match kind % 9 {
        0 => {
            let _ = db.insert("author", Row::new(vec![id.into(), text, r]));
        }
        1 => {
            let _ = db.insert("book", Row::new(vec![id.into(), text, r]));
        }
        2 => checked_delete(db, "author", id),
        3 => checked_delete(db, "book", id),
        // PK-changing (when new_id != id) updates, references rewritten too.
        4 => checked_update(db, "author", id, Row::new(vec![new_id.into(), text, r])),
        5 => checked_update(db, "book", id, Row::new(vec![new_id.into(), text, r])),
        // A dangling reference, then its target appears and is (attempted
        // to be) deleted.
        6 => {
            let target = Value::Int(ref_id.max(1));
            let _ = db.insert_unchecked(
                "book",
                Row::new(vec![id.into(), text.clone(), target.clone()]),
            );
            assert_stats_match_scratch(db);
            let _ = db.insert("author", Row::new(vec![target, text, Value::Null]));
            assert_stats_match_scratch(db);
            checked_delete(db, "author", ref_id.max(1));
        }
        // A dangling self-reference (possibly to the row itself).
        7 => {
            let _ = db.insert_unchecked("author", Row::new(vec![id.into(), text, r]));
        }
        // A row that references itself.
        _ => {
            let _ = db.insert("author", Row::new(vec![id.into(), text, Value::Null]));
            checked_update(
                db,
                "author",
                id,
                Row::new(vec![id.into(), Value::text("self"), Value::Int(id)]),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn join_counters_and_ri_match_scratch_after_every_op(
        ops in proptest::collection::vec((0u8..9, 1i64..7, 1i64..7, 0usize..8, 0i64..7), 0..60)
    ) {
        let mut db = self_ref_db();
        for op in &ops {
            apply_ri_op(&mut db, op);
            assert_stats_match_scratch(&db);
        }
        let mut rebuilt = db.clone();
        rebuilt.finalize();
        for fk in db.catalog().foreign_keys() {
            prop_assert_eq!(db.fk_stats(*fk), rebuilt.fk_stats(*fk));
        }
    }
}
