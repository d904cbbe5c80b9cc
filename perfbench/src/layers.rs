//! The layer pass of a traced run: each layer's public functions called
//! in isolation on the workload's own data and inputs, every call inside
//! one of the benchmark's spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use quest_core::{FullAccessWrapper, KeywordQuery, Quest, SearchScratch};
use quest_replica::{Consistency, Primary, PrimaryOptions, Replica, ReplicaSet, RoutingPolicy};
use quest_serve::CachedEngine;
use quest_shard::{ShardConfig, ShardedPrimary};
use quest_wal::{ChangeRecord, SyncPolicy, WalWriter};
use relstore::Database;

use crate::spans::{mean_self_us, self_times, Recorder};
use crate::workload::{config, ServingEngine, Topo};

/// Inputs of the layer pass.
pub struct Inputs<'a> {
    pub pristine: &'a Database,
    /// A seeded sample of the workload's request stream.
    pub queries: &'a [&'a str],
    /// Write batches, fed to every write-path layer.
    pub batches: &'a [Vec<ChangeRecord>],
    pub dir: &'a Path,
}

fn counter(name: &str) -> u64 {
    quest_obs::global().snapshot().counter(name).unwrap_or(0)
}

/// Run the pass; returns the per-layer metrics it measured.
pub fn run(inputs: &Inputs<'_>, topo: &Topo, rec: &mut Recorder) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let qs = inputs.queries;
    let parsed: Vec<KeywordQuery> = qs
        .iter()
        .map(|q| KeywordQuery::parse(q).expect("pool queries parse"))
        .collect();
    let mut trace = 1_000_000u64;
    let mut next_trace = || {
        trace += 1;
        trace
    };

    // quest-serve read path: the topology's own serving engine, as warm as
    // the load left it.
    topo.with_serving_engine(|engine: &dyn ServingEngine| {
        for q in qs {
            rec.time(next_trace(), None, "CachedEngine.search", || {
                engine.search(q)
            });
        }
    });

    // relstore and quest-core: an uncached twin over the pristine data,
    // warmed once over the sample so its memos match a serving engine's.
    let twin = Quest::new(FullAccessWrapper::new(inputs.pristine.clone()), config())
        .expect("twin builds over pristine data");
    let mut scratch = SearchScratch::new();
    for q in &parsed {
        let _ = twin.search_query_with(q, &mut scratch);
    }
    let db = twin.wrapper().database();
    let indexed: Vec<_> = db
        .catalog()
        .attributes()
        .iter()
        .filter(|a| db.index(a.id).is_some())
        .map(|a| a.id)
        .collect();
    let mut relstore_probes = 0u64;
    for q in &parsed {
        let t = next_trace();
        let root = rec.reserve();
        let start = Instant::now();
        rec.time(t, Some(root), "relstore.probe", || {
            for kw in &q.keywords {
                if let Some(probe) = db.prepare_probe(&kw.normalized) {
                    for &a in &indexed {
                        std::hint::black_box(db.search_score_probe(a, &probe));
                        relstore_probes += 1;
                    }
                }
            }
        });
        scratch.reset_query_state();
        let fwd_id = rec.reserve();
        let fwd_start = Instant::now();
        let forward = twin.forward_pass_with(q, &mut scratch);
        let fwd_end = Instant::now();
        let Ok(forward) = forward else {
            rec.record(fwd_id, t, Some(root), "core.forward", fwd_start, fwd_end);
            rec.record(root, t, None, "replay", start, Instant::now());
            continue;
        };
        let tm = forward.timings.clone();
        let mut at = fwd_start;
        for (name, d) in [
            ("core.emissions", tm.emissions),
            ("core.decode", tm.forward_apriori + tm.forward_feedback),
            ("core.combine", tm.combine_configs),
        ] {
            let id = rec.reserve();
            rec.record(id, t, Some(fwd_id), name, at, at + d);
            at += d;
        }
        rec.record(fwd_id, t, Some(root), "core.forward", fwd_start, fwd_end);
        let bwd_start = Instant::now();
        let interps: Vec<_> = rec.time(t, Some(root), "core.backward", || {
            forward
                .configurations
                .iter()
                .map(|c| twin.backward_pass_with(c, &mut scratch).unwrap_or_default())
                .collect()
        });
        let bwd = bwd_start.elapsed();
        rec.time(t, Some(root), "core.assemble", || {
            std::hint::black_box(twin.assemble_with(q, forward, interps, bwd, &mut scratch)).is_ok()
        });
        rec.record(root, t, None, "replay", start, Instant::now());
    }
    m.insert(
        "relstore.probes_per_query",
        relstore_probes as f64 / parsed.len().max(1) as f64,
    );

    // quest-wal: a side log fed the same batches; snapshots of the data.
    std::fs::create_dir_all(inputs.dir).expect("layer pass directory");
    let wal_path = inputs.dir.join("side.wal");
    let mut wal = WalWriter::open_with(&wal_path, inputs.pristine.catalog(), SyncPolicy::Never)
        .expect("side log opens");
    let mut user_bytes = 0usize;
    for b in inputs.batches {
        user_bytes += b.iter().map(|r| r.encode().len()).sum::<usize>();
        let t = next_trace();
        rec.time(t, None, "WalWriter.append_batch", || wal.append_batch(b))
            .expect("side log append");
        rec.time(t, None, "WalWriter.sync", || wal.sync())
            .expect("side log fsync");
    }
    drop(wal);
    let wal_bytes = std::fs::metadata(&wal_path).map(|md| md.len()).unwrap_or(0);
    m.insert(
        "wal.bytes_per_user_byte",
        wal_bytes as f64 / user_bytes.max(1) as f64,
    );
    let snap = inputs.dir.join("side.snap");
    for _ in 0..3 {
        let t = next_trace();
        rec.time(t, None, "write_snapshot", || {
            quest_wal::write_snapshot(inputs.pristine, &snap, 0)
        })
        .expect("snapshot writes");
        rec.time(t, None, "read_snapshot", || quest_wal::read_snapshot(&snap))
            .expect("snapshot reads");
    }

    // quest-serve write path: a cached twin applying the same batches.
    let apply_twin = CachedEngine::new(
        Quest::new(FullAccessWrapper::new(inputs.pristine.clone()), config()).expect("twin builds"),
    );
    for b in inputs.batches {
        let r = rec.time(next_trace(), None, "CachedEngine.apply", || {
            apply_twin.apply(b)
        });
        assert!(
            r.is_ok_and(|r| r.all_applied()),
            "twin apply rejected a benchmark batch"
        );
    }

    // quest-replica: a side primary (fsync per append) and one replica.
    let options = PrimaryOptions {
        sync_policy: SyncPolicy::Always,
        ..PrimaryOptions::default()
    };
    let primary = Arc::new(
        Primary::open_with(
            &inputs.dir.join("primary"),
            inputs.pristine.clone(),
            config(),
            options,
        )
        .expect("side primary opens"),
    );
    let replica = Arc::new(rec.time(next_trace(), None, "Replica.from_primary", || {
        Replica::from_primary("side-replica", &primary).expect("side replica bootstraps")
    }));
    let (mut lag, mut synced, mut syncs) = (0u64, 0u64, 0u64);
    for (k, b) in inputs.batches.iter().enumerate() {
        let t = next_trace();
        rec.time(t, None, "Primary.commit", || primary.commit(b))
            .expect("side commit");
        // Sync after every second commit, so a sync has a backlog to drain.
        if k % 2 == 1 || k + 1 == inputs.batches.len() {
            lag += replica.lag(primary.last_lsn());
            let r = rec
                .time(t, None, "Replica.sync", || replica.sync())
                .expect("side sync");
            synced += r.applied as u64 + r.rejected as u64;
            syncs += 1;
        }
    }
    m.insert(
        "replica.records_per_sync",
        synced as f64 / syncs.max(1) as f64,
    );
    m.insert("replica.lag_records", lag as f64 / syncs.max(1) as f64);
    let mut set = ReplicaSet::new(Arc::clone(&primary), RoutingPolicy::RoundRobin);
    set.add_replica(Arc::clone(&replica));
    let route_sample = &qs[..qs.len().min(50)];
    for q in route_sample {
        let _ = set.query(q, Consistency::Eventual);
        let t = next_trace();
        rec.time(t, None, "Replica.search", || replica.search(q).is_ok());
        rec.time(t, None, "ReplicaSet.query", || {
            set.query(q, Consistency::Eventual).is_ok()
        });
    }
    drop(set);

    // quest-shard: a side 4-shard primary; cold-cache searches against
    // the unsharded twin, then commits.
    let mut sharded = ShardedPrimary::open(
        &inputs.dir.join("sharded"),
        inputs.pristine.clone(),
        &ShardConfig::new(4),
        config(),
    )
    .expect("side sharded primary opens");
    let unsharded = CachedEngine::new(
        Quest::new(FullAccessWrapper::new(inputs.pristine.clone()), config()).expect("twin builds"),
    );
    for q in route_sample {
        let _ = sharded.gateway().search(q);
        let _ = unsharded.search(q);
    }
    let (probes0, used0) = (
        counter(quest_shard::names::SCATTER_PROBES),
        counter(quest_shard::names::SCATTER_USED),
    );
    for q in route_sample {
        let t = next_trace();
        sharded.gateway().engine().clear_caches();
        rec.time(t, None, "ScatterGather.search", || {
            sharded.gateway().search(q).is_ok()
        });
        unsharded.clear_caches();
        rec.time(t, None, "CachedEngine.search(unsharded)", || {
            unsharded.search(q).is_ok()
        });
    }
    let probes = counter(quest_shard::names::SCATTER_PROBES) - probes0;
    let used = counter(quest_shard::names::SCATTER_USED) - used0;
    m.insert(
        "shard.read_amplification",
        probes as f64 / used.max(1) as f64,
    );
    for b in inputs.batches {
        rec.time(next_trace(), None, "ShardedPrimary.commit", || {
            sharded.commit(b)
        })
        .expect("side sharded commit");
    }
    drop(sharded);
    let _ = std::fs::remove_dir_all(inputs.dir);

    let st = self_times(&rec.spans);
    let us = |name: &str| mean_self_us(&st, name);
    let probe_ns = st.get("relstore.probe").map_or(0, |&(ns, _)| ns);
    m.insert(
        "relstore.probe_ns",
        probe_ns as f64 / relstore_probes.max(1) as f64,
    );
    m.insert("core.emissions_us", us("core.emissions"));
    m.insert("core.decode_us", us("core.decode"));
    m.insert("core.combine_us", us("core.combine"));
    m.insert("core.backward_us", us("core.backward"));
    m.insert("core.assemble_us", us("core.assemble"));
    m.insert("serve.search_us", us("CachedEngine.search"));
    m.insert("serve.apply_us", us("CachedEngine.apply"));
    m.insert("wal.append_us", us("WalWriter.append_batch"));
    m.insert("wal.fsync_us", us("WalWriter.sync"));
    m.insert("wal.snapshot_write_ms", us("write_snapshot") / 1e3);
    m.insert("wal.snapshot_read_ms", us("read_snapshot") / 1e3);
    m.insert("replica.commit_us", us("Primary.commit"));
    m.insert("replica.sync_us", us("Replica.sync"));
    m.insert("replica.bootstrap_ms", us("Replica.from_primary") / 1e3);
    m.insert(
        "replica.route_us",
        us("ReplicaSet.query") - us("Replica.search"),
    );
    m.insert("shard.search_us", us("ScatterGather.search"));
    m.insert(
        "shard.overhead_us",
        us("ScatterGather.search") - us("CachedEngine.search(unsharded)"),
    );
    m.insert("shard.commit_us", us("ShardedPrimary.commit"));
    m
}
