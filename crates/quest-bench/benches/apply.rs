//! Criterion bench — the cost of one write batch as the data grows.
//!
//! Each iteration applies one batch shaped like the open-loop benchmark's
//! writes: insert a person, insert a movie they direct, retitle the
//! previous batch's movie, delete the one before it. Timed through
//! `CachedEngine::apply` (checked mutations, index and join-counter
//! maintenance, engine re-sync, cache purge) at 1k and 5k movies, and
//! through `ShardedStore::apply_changes` at 4 shards. A batch touches a
//! fixed number of rows, so its cost should not grow with the tables.

use std::cell::Cell;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quest_core::{FullAccessWrapper, Quest, QuestConfig};
use quest_data::imdb::{generate, ImdbScale};
use quest_serve::{ApplyReport, CachedEngine};
use quest_shard::{ShardConfig, ShardedStore};
use quest_wal::ChangeRecord;
use relstore::Value;

/// Ids written by the bench start far above generated ones.
const ID_BASE: i64 = 9_000_000;

/// Batch `k`: insert person and movie `k`, retitle movie `k - 1`, delete
/// movie `k - 2`. Every record applies when batches run in order from
/// `k = 0`.
fn batch(k: i64) -> Vec<ChangeRecord> {
    let person = ID_BASE + 2 * k;
    let movie = person + 1;
    let movie_row = |id: i64, director: i64, title: &str| -> Vec<Value> {
        vec![
            id.into(),
            title.into(),
            2024.into(),
            Value::float(7.5),
            director.into(),
        ]
    };
    let mut records = vec![
        ChangeRecord::Insert {
            table: "person".into(),
            row: vec![person.into(), "Bench Director".into(), 1970.into()],
        },
        ChangeRecord::Insert {
            table: "movie".into(),
            row: movie_row(movie, person, "Bench Premiere"),
        },
    ];
    if k >= 1 {
        records.push(ChangeRecord::Update {
            table: "movie".into(),
            key: vec![(movie - 2).into()],
            row: movie_row(movie - 2, person - 2, "Bench Retitled"),
        });
    }
    if k >= 2 {
        records.push(ChangeRecord::Delete {
            table: "movie".into(),
            key: vec![(movie - 4).into()],
        });
    }
    records
}

/// The next batch index; warm-up and sampling share one sequence.
fn next(counter: &Cell<i64>) -> i64 {
    let k = counter.get();
    counter.set(k + 1);
    k
}

fn bench_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("apply_batch_imdb");
    g.sample_size(10);
    for movies in [1_000usize, 5_000] {
        let db = generate(&ImdbScale { movies, seed: 7 }).expect("imdb generates");
        let engine =
            Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("engine builds");
        let cached = CachedEngine::new(engine);
        let counter = Cell::new(0i64);
        g.bench_with_input(
            BenchmarkId::new("cached_engine", movies),
            &movies,
            |b, _| {
                b.iter(|| {
                    let report = cached
                        .apply(std::hint::black_box(&batch(next(&counter))))
                        .expect("applies");
                    assert!(report.all_applied());
                })
            },
        );
    }

    let db = generate(&ImdbScale {
        movies: 5_000,
        seed: 7,
    })
    .expect("imdb generates");
    let mut store = ShardedStore::from_database(&db, &ShardConfig::new(4)).expect("shards");
    let counter = Cell::new(0i64);
    g.bench_function("sharded_store_4_shards/5000", |b| {
        b.iter(|| {
            let mut report = ApplyReport::default();
            store.apply_changes(std::hint::black_box(&batch(next(&counter))), &mut report);
            assert!(report.all_applied());
        })
    });
    g.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);
