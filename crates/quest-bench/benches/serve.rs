//! Criterion bench — serving throughput: the serial engine vs the
//! `quest-serve` pool at growing worker counts, on the IMDB workload stream
//! (cache warm, the steady state of a long-running service), the cost of
//! the service hand-off itself (one client submitting and waiting per warm
//! query against the same queries searched directly), and the miss path
//! that a write batch forces on every query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quest_bench::{engine_for, imdb_write_batch, shuffled_stream, Dataset};
use quest_serve::{CachedEngine, QueryService};

fn bench_serial_vs_workers(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_throughput_imdb");
    g.sample_size(10);
    // The workload repeated 8x in a shuffled order, so each worker gets
    // enough jobs and repeats are spread out.
    let queries = shuffled_stream(&Dataset::Imdb.workload(), 8, 42);

    let engine = engine_for(Dataset::Imdb);
    g.bench_function("serial_uncached", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = engine.search(std::hint::black_box(q));
            }
        })
    });

    for workers in [1usize, 2, 4] {
        let service = QueryService::new(CachedEngine::new(engine.clone()), workers);
        // Warm the caches once so the measurement is the steady state.
        for t in service.submit_batch(&queries) {
            let _ = t.wait();
        }
        g.bench_with_input(
            BenchmarkId::new("workers_warm", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    for t in service.submit_batch(std::hint::black_box(&queries)) {
                        let _ = t.wait();
                    }
                })
            },
        );
        service.shutdown();
    }
    g.finish();
}

fn bench_hand_off(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_hand_off_imdb");
    g.sample_size(10);
    let queries = shuffled_stream(&Dataset::Imdb.workload(), 8, 42);
    let service = QueryService::new(CachedEngine::new(engine_for(Dataset::Imdb)), 2);
    for t in service.submit_batch(&queries) {
        let _ = t.wait();
    }

    // The same warm engine and caches, searched on the calling thread.
    g.bench_function("warm_direct", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = service.engine().search(std::hint::black_box(q));
            }
        })
    });
    // One client, one query in flight: submit, then wait, per query.
    g.bench_function("warm_submit_wait", |b| {
        b.iter(|| {
            for q in &queries {
                let _ = service.submit(std::hint::black_box(q)).wait();
            }
        })
    });
    // One write batch, then each distinct query once: the batch retires
    // every cached answer and interpretation and rebuilds the join-template
    // memo, so every query runs the whole miss path. Each iteration is one
    // apply plus 12 searches.
    let distinct: Vec<String> = Dataset::Imdb
        .workload()
        .into_iter()
        .map(|wq| wq.raw)
        .collect();
    let mut k = 0;
    g.bench_function("cold_after_apply", |b| {
        b.iter(|| {
            let report = service
                .engine()
                .apply(&imdb_write_batch(k))
                .expect("applies");
            assert!(report.all_applied());
            k += 1;
            for q in &distinct {
                let _ = service.engine().search(std::hint::black_box(q));
            }
        })
    });
    service.shutdown();
    g.finish();
}

criterion_group!(benches, bench_serial_vs_workers, bench_hand_off);
criterion_main!(benches);
