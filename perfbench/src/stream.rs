//! Seeded inputs: the keyword vocabulary, the query pool, request streams
//! and write batches. The program under test only ever sees the strings
//! and records produced here.

use std::collections::{BTreeSet, HashSet};

use quest_core::{FullAccessWrapper, KeywordQuery, Quest};
use quest_wal::ChangeRecord;
use relstore::{DataType, Database, Value};

use crate::rng::{Rng, Zipf};

/// Words a user could type: value words from the text columns and the
/// schema's table and column names, read through relstore's public API.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    pub values: Vec<String>,
    pub schema: Vec<String>,
}

fn words(text: &str, into: &mut BTreeSet<String>) {
    for w in text.split(|c: char| !c.is_alphabetic()) {
        if w.chars().count() >= 3 {
            into.insert(w.to_lowercase());
        }
    }
}

pub fn vocabulary(db: &Database) -> Vocabulary {
    let catalog = db.catalog();
    let mut values = BTreeSet::new();
    let mut schema = BTreeSet::new();
    for table in catalog.tables() {
        words(&table.name, &mut schema);
        for &attr_id in &table.attributes {
            let attr = catalog.attribute(attr_id);
            if attr.in_primary_key {
                continue;
            }
            words(&attr.name, &mut schema);
            if attr.data_type != DataType::Text {
                continue;
            }
            for (_, row) in db.table_data(table.id).iter() {
                if let Value::Text(s) = row.get(attr.position) {
                    words(s, &mut values);
                }
            }
        }
    }
    // Stop words normalize away and would make empty queries.
    let keep = |set: BTreeSet<String>| -> Vec<String> {
        set.into_iter()
            .filter(|w| w != "id" && normalized_key(w).is_some())
            .collect()
    };
    Vocabulary {
        values: keep(values),
        schema: keep(schema),
    }
}

/// One candidate query: one to three keywords, a fifth of them schema
/// names.
pub fn candidate(rng: &mut Rng, vocab: &Vocabulary) -> String {
    let n = 1 + rng.below(3);
    (0..n)
        .map(|_| {
            let list = if rng.unit() < 0.2 {
                &vocab.schema
            } else {
                &vocab.values
            };
            list[rng.below(list.len())].as_str()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The cache-key identity of a query: its normalized keywords in order.
pub fn normalized_key(raw: &str) -> Option<String> {
    let q = KeywordQuery::parse(raw).ok()?;
    Some(
        q.keywords
            .iter()
            .map(|k| k.normalized.as_str())
            .collect::<Vec<_>>()
            .join("\u{1f}"),
    )
}

/// `want` distinct (by normalized key) queries, each answered with at
/// least one explanation by the reference pipeline on the pristine data,
/// so any failure while serving them later is a real failure. Candidates
/// are drawn serially and checked on `threads` threads; the pool keeps
/// draw order, so it depends on the seed alone.
pub fn query_pool(
    rng: &mut Rng,
    vocab: &Vocabulary,
    oracle: &Quest<FullAccessWrapper>,
    want: usize,
    threads: usize,
) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(want);
    let mut rounds = 0;
    while pool.len() < want {
        rounds += 1;
        assert!(
            rounds <= 20,
            "query pool: only {} of {want} answerable",
            pool.len()
        );
        let need = want - pool.len();
        let mut batch = Vec::with_capacity(need);
        while batch.len() < need {
            let raw = candidate(rng, vocab);
            if normalized_key(&raw).is_some_and(|key| seen.insert(key)) {
                batch.push(raw);
            }
        }
        let answered = |raw: &String| {
            let query = KeywordQuery::parse(raw).expect("candidates parse");
            matches!(oracle.search_query_reference(&query), Ok(out) if !out.explanations.is_empty())
        };
        let chunk = batch.len().div_ceil(threads.max(1));
        let verdicts: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .chunks(chunk)
                .map(|c| s.spawn(move || c.iter().map(answered).collect::<Vec<bool>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("pool checker thread"))
                .collect()
        });
        pool.extend(
            batch
                .into_iter()
                .zip(verdicts)
                .filter(|(_, ok)| *ok)
                .map(|(q, _)| q),
        );
    }
    pool
}

/// How requests pick queries from the pool.
#[derive(Debug, Clone, Copy)]
pub enum Popularity {
    Zipf(f64),
    Uniform,
}

/// The request stream: `n` pool indexes.
pub fn request_stream(rng: &mut Rng, pool_len: usize, n: usize, pop: Popularity) -> Vec<u32> {
    match pop {
        Popularity::Zipf(s) => {
            let zipf = Zipf::new(pool_len, s);
            // Ranks are shuffled onto pool slots so popularity is not tied
            // to generation order.
            let mut perm: Vec<u32> = (0..pool_len as u32).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.below(i + 1));
            }
            (0..n).map(|_| perm[zipf.sample(rng)]).collect()
        }
        Popularity::Uniform => (0..n).map(|_| rng.below(pool_len) as u32).collect(),
    }
}

/// Distinct queries a stream touches, and the share of its requests that
/// repeat an earlier normalized query.
pub fn stream_shape(pool: &[String], stream: &[u32]) -> (usize, f64) {
    let mut seen = HashSet::new();
    let mut repeats = 0usize;
    for &i in stream {
        let key = normalized_key(&pool[i as usize]).expect("pool queries parse");
        if !seen.insert(key) {
            repeats += 1;
        }
    }
    (seen.len(), repeats as f64 / stream.len().max(1) as f64)
}

/// Row ids written by the benchmark start here, far above generated ids.
pub const WRITE_ID_BASE: i64 = 9_000_000;

/// `n` small write batches against the IMDB schema. Batch `k` inserts a
/// person and a movie they direct, retitles batch `k-1`'s movie and
/// deletes batch `k-2`'s. Every record applies: ids are fresh, and the
/// deleted movies are referenced by nothing.
pub fn write_batches(rng: &mut Rng, vocab: &Vocabulary, n: usize) -> Vec<Vec<ChangeRecord>> {
    let word = |rng: &mut Rng| vocab.values[rng.below(vocab.values.len())].clone();
    let movie_row = |rng: &mut Rng, id: i64, director: i64| -> Vec<Value> {
        vec![
            id.into(),
            format!("The {} {}", word(rng), word(rng)).into(),
            (1950 + rng.below(70) as i64).into(),
            Value::float((10 + rng.below(90)) as f64 / 10.0),
            director.into(),
        ]
    };
    (0..n as i64)
        .map(|k| {
            let person = WRITE_ID_BASE + 2 * k;
            let movie = person + 1;
            let mut batch = vec![
                ChangeRecord::Insert {
                    table: "person".into(),
                    row: vec![
                        person.into(),
                        format!("{} {}", word(rng), word(rng)).into(),
                        (1900 + rng.below(100) as i64).into(),
                    ],
                },
                ChangeRecord::Insert {
                    table: "movie".into(),
                    row: movie_row(rng, movie, person),
                },
            ];
            if k >= 1 {
                batch.push(ChangeRecord::Update {
                    table: "movie".into(),
                    key: vec![(movie - 2).into()],
                    row: movie_row(rng, movie - 2, person - 2),
                });
            }
            if k >= 2 {
                batch.push(ChangeRecord::Delete {
                    table: "movie".into(),
                    key: vec![(movie - 4).into()],
                });
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_core::QuestConfig;

    fn inputs(seed: u64) -> (Vec<String>, Vec<u32>, Vec<Vec<ChangeRecord>>) {
        let db = quest_data::imdb::generate(&quest_data::imdb::ImdbScale { movies: 60, seed })
            .expect("tiny imdb generates");
        let vocab = vocabulary(&db);
        let oracle =
            Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("engine builds");
        let pool = query_pool(&mut Rng::fork(seed, "pool"), &vocab, &oracle, 30, 2);
        let stream = request_stream(
            &mut Rng::fork(seed, "stream"),
            pool.len(),
            500,
            Popularity::Zipf(1.0),
        );
        let batches = write_batches(&mut Rng::fork(seed, "writes"), &vocab, 5);
        (pool, stream, batches)
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let a = inputs(7);
        assert_eq!(a, inputs(7));
        assert_ne!(a.0, inputs(8).0, "another seed draws another pool");
        let (pool, stream, _) = &a;
        assert_eq!(pool.len(), 30);
        assert!(stream.iter().all(|&i| (i as usize) < pool.len()));
        let (distinct, repeats) = stream_shape(pool, stream);
        assert!(distinct <= 30 && repeats > 0.5, "{distinct} {repeats}");
    }

    #[test]
    fn write_batches_apply_without_rejections() {
        let mut db = quest_data::imdb::generate(&quest_data::imdb::ImdbScale {
            movies: 60,
            seed: 1,
        })
        .expect("tiny imdb generates");
        let vocab = vocabulary(&db);
        for batch in write_batches(&mut Rng::new(3), &vocab, 6) {
            for record in &batch {
                record.apply(&mut db).expect("benchmark records apply");
            }
        }
    }
}
