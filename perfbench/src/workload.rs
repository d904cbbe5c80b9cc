//! The four workloads: their topologies, set-up, load phases and write
//! streams, all through the serving stack's public entry points.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use quest_core::{FullAccessWrapper, Quest, QuestConfig, SearchOutcome};
use quest_replica::{Consistency, Primary, PrimaryOptions, ReplicaSet, RoutingPolicy};
use quest_serve::{CachedEngine, QueryService};
use quest_shard::{ShardConfig, ShardedPrimary};
use quest_wal::{ChangeRecord, SyncPolicy};
use relstore::Database;

use crate::driver::{self, Op, Phase};
use crate::spans::Recorder;
use crate::stream::Popularity;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `QueryService` (nproc workers) over one `CachedEngine`.
    Service,
    /// A `Primary` (fsync on every append) and one replica behind a
    /// round-robin `ReplicaSet`.
    Replicated,
    /// A 4-shard `ShardedPrimary`; reads through its scatter gateway.
    Sharded,
}

/// A workload: data size, query mix, offered load and topology.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub movies: usize,
    /// Distinct queries in the pool.
    pub pool: usize,
    pub popularity: Popularity,
    /// Fixed offered read rate, requests per second: about a twentieth of
    /// the workload's capacity (server threads / mean service time) on the
    /// 2-vCPU reference host, so few reads queue behind a host stall.
    pub rate: f64,
    /// Commits per second beside the reads (0: the reads run alone). The
    /// serial commits between read windows run on every workload.
    pub write_rate: f64,
    /// Share of reads that demand `AtLeast(last_lsn)`.
    pub at_least_share: f64,
    pub topology: Topology,
    /// Requests served once during set-up to warm the caches.
    pub warmup: usize,
}

pub const NAMES: [&str; 4] = [
    "read-hot",
    "read-wide",
    "mixed-replicated",
    "sharded-scatter",
];

pub fn spec(name: &str) -> Option<Spec> {
    let s = match name {
        "read-hot" => Spec {
            name: "read-hot",
            movies: 1_000,
            pool: 200,
            popularity: Popularity::Zipf(1.0),
            rate: 5_000.0,
            write_rate: 0.0,
            at_least_share: 0.0,
            topology: Topology::Service,
            warmup: 400,
        },
        "read-wide" => Spec {
            name: "read-wide",
            movies: 5_000,
            pool: 10_000,
            popularity: Popularity::Uniform,
            rate: 1_500.0,
            write_rate: 0.0,
            at_least_share: 0.0,
            topology: Topology::Service,
            warmup: 2_000,
        },
        "mixed-replicated" => Spec {
            name: "mixed-replicated",
            movies: 5_000,
            pool: 200,
            popularity: Popularity::Zipf(1.0),
            rate: 1_000.0,
            write_rate: 5.0,
            at_least_share: 0.1,
            topology: Topology::Replicated,
            warmup: 400,
        },
        "sharded-scatter" => Spec {
            name: "sharded-scatter",
            movies: 5_000,
            pool: 10_000,
            popularity: Popularity::Uniform,
            rate: 200.0,
            write_rate: 1.0,
            at_least_share: 0.0,
            topology: Topology::Sharded,
            warmup: 500,
        },
        _ => return None,
    };
    Some(s)
}

pub fn config() -> QuestConfig {
    QuestConfig::default()
}

pub fn generate(movies: usize, seed: u64) -> Database {
    quest_data::imdb::generate(&quest_data::imdb::ImdbScale { movies, seed })
        .expect("the IMDB generator builds a valid database")
}

/// A built topology.
pub enum Topo {
    Service(QueryService<FullAccessWrapper>),
    Replicated(ReplicaSet),
    /// The sharded primary with the number of batches it has committed,
    /// read under the same lock as every search so a read knows exactly
    /// which data it saw.
    Sharded(Box<RwLock<(ShardedPrimary, usize)>>),
}

fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

impl Topo {
    /// Build the topology over `db` in `dir` and serve `warm` once.
    pub fn build(spec: &Spec, db: Database, dir: &Path, workers: usize, warm: &[&str]) -> Topo {
        let _ = std::fs::remove_dir_all(dir);
        let topo = match spec.topology {
            Topology::Service => {
                let engine = Quest::new(FullAccessWrapper::new(db), config())
                    .expect("engine builds over generated data");
                Topo::Service(QueryService::new(CachedEngine::new(engine), workers))
            }
            Topology::Replicated => {
                let options = PrimaryOptions {
                    sync_policy: SyncPolicy::Always,
                    ..PrimaryOptions::default()
                };
                let primary = Primary::open_with(dir, db, config(), options)
                    .expect("primary opens in a fresh directory");
                let mut set = ReplicaSet::new(Arc::new(primary), RoutingPolicy::RoundRobin);
                set.spawn_replica("replica-1")
                    .expect("replica bootstraps from the primary's snapshot");
                Topo::Replicated(set)
            }
            Topology::Sharded => {
                let primary = ShardedPrimary::open(dir, db, &ShardConfig::new(4), config())
                    .expect("sharded primary opens in a fresh directory");
                Topo::Sharded(Box::new(RwLock::new((primary, 0))))
            }
        };
        topo.warm(warm);
        topo
    }

    /// Serve `warm` once, unmeasured, to fill the caches.
    pub fn warm(&self, warm: &[&str]) {
        let warmed = match self {
            Topo::Service(s) => s.submit_batch(warm).into_iter().all(|t| t.wait().is_ok()),
            Topo::Replicated(set) => warm
                .iter()
                .all(|q| set.query(q, Consistency::Eventual).is_ok()),
            Topo::Sharded(p) => warm.iter().all(|q| read(p).0.search(q).is_ok()),
        };
        assert!(warmed, "a warm-up query failed");
    }

    /// The engine whose caches serve this topology's reads.
    pub fn with_serving_engine<R>(&self, f: impl FnOnce(&dyn ServingEngine) -> R) -> R {
        match self {
            Topo::Service(s) => f(s.engine().as_ref()),
            Topo::Replicated(set) => f(set.replicas()[0].engine().as_ref()),
            Topo::Sharded(p) => f(read(p).0.gateway().engine().as_ref()),
        }
    }

    /// Turn every metrics registry and the span collector on or off.
    pub fn set_obs(&self, on: bool) {
        quest_obs::global().set_enabled(on);
        quest_obs::spans().set_enabled(on);
        match self {
            Topo::Service(s) => s.engine().metrics().set_enabled(on),
            Topo::Replicated(set) => {
                set.primary().engine().metrics().set_enabled(on);
                for r in set.replicas() {
                    r.engine().metrics().set_enabled(on);
                }
            }
            Topo::Sharded(p) => {
                let g = read(p);
                g.0.gateway().engine().metrics().set_enabled(on);
                for i in 0..g.0.topology().shard_count {
                    g.0.shard(i).engine().metrics().set_enabled(on);
                }
            }
        }
    }
}

/// The parts of a `CachedEngine` the benchmark reads, whatever its source.
pub trait ServingEngine {
    fn search(&self, q: &str) -> bool;
    fn stats(&self) -> quest_serve::ServeStats;
}

impl<W: quest_core::SourceWrapper> ServingEngine for CachedEngine<W> {
    fn search(&self, q: &str) -> bool {
        CachedEngine::search(self, q).is_ok()
    }
    fn stats(&self) -> quest_serve::ServeStats {
        CachedEngine::stats(self)
    }
}

/// A kept answer for the correctness gate: the query, the answer, and the
/// range of committed-record counts the serving state lay in.
pub struct Kept {
    pub query: String,
    pub outcome: SearchOutcome,
    pub lo: usize,
    pub hi: usize,
}

/// Everything one load phase measured.
#[derive(Default)]
pub struct PhaseOut {
    pub reads: Phase,
    pub commit_ns: Vec<u64>,
    pub visible_ns: Vec<u64>,
    pub writes_attempted: u64,
    pub writes_failed: u64,
    pub kept: Vec<Kept>,
    pub recorders: Vec<Recorder>,
}

impl PhaseOut {
    /// Fold another phase's measurements into this one.
    pub fn absorb(&mut self, other: PhaseOut) {
        self.reads.merge(other.reads);
        self.commit_ns.extend(other.commit_ns);
        self.visible_ns.extend(other.visible_ns);
        self.writes_attempted += other.writes_attempted;
        self.writes_failed += other.writes_failed;
        self.kept.extend(other.kept);
        self.recorders.extend(other.recorders);
    }
}

/// The inputs a run feeds the topology, and the write history it made.
pub struct Load<'a> {
    spec: &'a Spec,
    seed: u64,
    pool: &'a [String],
    stream: &'a [u32],
    batches: &'a [Vec<ChangeRecord>],
    clients: usize,
    /// Next stream position; phases continue where the last one stopped.
    cursor: usize,
    /// Load time the phases so far covered: the concurrent write stream
    /// continues across phases at its own rate.
    clock: Duration,
    /// Next batch to commit.
    next_batch: Mutex<usize>,
    /// Committed batches as `(first LSN or commit order, batch index)`.
    committed: Mutex<Vec<(u64, usize)>>,
    /// Record counts at batch boundaries: `prefix[k]` = records in the
    /// first `k` batches.
    prefix: Vec<usize>,
}

fn mix(seed: u64, j: u64, salt: u64) -> u64 {
    let mut z = seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 29)
}

impl<'a> Load<'a> {
    pub fn new(
        spec: &'a Spec,
        seed: u64,
        pool: &'a [String],
        stream: &'a [u32],
        batches: &'a [Vec<ChangeRecord>],
        clients: usize,
    ) -> Load<'a> {
        let mut prefix = vec![0];
        for b in batches {
            prefix.push(prefix.last().copied().unwrap_or(0) + b.len());
        }
        Load {
            spec,
            seed,
            pool,
            stream,
            batches,
            clients,
            cursor: 0,
            clock: Duration::ZERO,
            next_batch: Mutex::new(0),
            committed: Mutex::new(Vec::new()),
            prefix,
        }
    }

    fn query(&self, pos: usize) -> &'a str {
        &self.pool[self.stream[pos % self.stream.len()] as usize]
    }

    /// The query a commit's visibility probe reads.
    fn probe_query(&self, k: usize) -> &'a str {
        &self.pool[(mix(self.seed, k as u64, 7) % self.pool.len() as u64) as usize]
    }

    /// Run one phase at `rate` reads per second for `dur`, beside the
    /// workload's concurrent writes. Reads at positions where
    /// `mix` falls in the sample (one in `keep_one_in`) are kept for the
    /// gate.
    pub fn phase(
        &mut self,
        topo: &Topo,
        rate: f64,
        dur: Duration,
        keep_one_in: u64,
        traced: bool,
    ) -> PhaseOut {
        let base = self.cursor;
        let keep = |j: usize| {
            keep_one_in > 0 && mix(self.seed, (base + j) as u64, 1).is_multiple_of(keep_one_in)
        };
        let mut out = PhaseOut::default();
        match topo {
            Topo::Service(service) => {
                // No commit runs during a service phase, so every read
                // sees the records committed before it.
                let at = self.prefix[self
                    .committed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len()];
                let schedule = driver::even_schedule(rate, dur);
                let mut rec = traced.then(|| Recorder::new(Instant::now(), 1));
                let (reads, kept) = driver::service_phase(
                    service,
                    &schedule,
                    |j| self.query(base + j),
                    keep,
                    rec.as_mut(),
                );
                self.cursor += schedule.len();
                out.kept = kept
                    .into_iter()
                    .map(|(j, outcome)| Kept {
                        query: self.query(base + j).to_string(),
                        outcome,
                        lo: at,
                        hi: at,
                    })
                    .collect();
                out.reads = reads;
                out.recorders.extend(rec);
            }
            Topo::Replicated(_) | Topo::Sharded(_) => {
                let mut schedule: Vec<(u64, bool)> = driver::even_schedule(rate, dur)
                    .into_iter()
                    .map(|t| (t, false))
                    .collect();
                let writes = driver::window_writes(self.spec.write_rate, self.clock, dur);
                schedule.extend(writes.into_iter().map(|t| (t, true)));
                schedule.sort_unstable();
                let offsets: Vec<u64> = schedule.iter().map(|s| s.0).collect();
                let kept = Mutex::new(Vec::new());
                let this = &*self;
                let exec = |j: usize, rec: Option<(&mut Recorder, u32)>| -> Op {
                    let pos = base + j;
                    if schedule[j].1 {
                        let (op, answer) = this.write_op(topo, rec, pos as u64);
                        if let (true, Some(a)) = (keep(j), answer) {
                            kept.lock().unwrap_or_else(PoisonError::into_inner).push(a);
                        }
                        op
                    } else {
                        this.read_op(topo, rec, pos, keep(j), &kept)
                    }
                };
                let (p, recs) = driver::sync_phase(self.clients, &offsets, exec, traced);
                self.cursor += schedule.len();
                out.reads = p.reads;
                out.commit_ns = p.commit_ns;
                out.visible_ns = p.visible_ns;
                out.writes_attempted = p.writes_attempted;
                out.writes_failed = p.writes_failed;
                out.kept = kept.into_inner().unwrap_or_else(PoisonError::into_inner);
                if traced {
                    out.recorders = recs;
                }
            }
        }
        self.clock += dur;
        out
    }

    fn read_op(
        &self,
        topo: &Topo,
        rec: Option<(&mut Recorder, u32)>,
        pos: usize,
        keep: bool,
        kept: &Mutex<Vec<Kept>>,
    ) -> Op {
        let q = self.query(pos);
        let trace = pos as u64;
        let mut timed = Timed(rec);
        let result = match topo {
            Topo::Service(_) => unreachable!("service reads use the ticket driver"),
            Topo::Replicated(set) => {
                let draw = (mix(self.seed, pos as u64, 2) % 1_000) as f64;
                let consistency = if draw < self.spec.at_least_share * 1_000.0 {
                    Consistency::AtLeast(set.primary().last_lsn())
                } else {
                    Consistency::Eventual
                };
                timed
                    .run(trace, "ReplicaSet.query", || set.query(q, consistency))
                    .ok()
                    .map(|routed| (routed.outcome, routed.lsn as usize, max_lsn(set)))
            }
            Topo::Sharded(p) => timed.run(trace, "ShardedPrimary.search", || {
                let g = read(p);
                let at = self.prefix[g.1];
                g.0.search(q).ok().map(|o| (o, at, at))
            }),
        };
        match result {
            Some((outcome, lo, hi)) => {
                if keep {
                    kept.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(Kept {
                            query: q.to_string(),
                            outcome,
                            lo,
                            hi,
                        });
                }
                Op::Read { ok: true }
            }
            None => Op::Read { ok: false },
        }
    }

    /// Commit the next batch through the topology's write entry, then read
    /// one query until the commit is visible; returns the outcome and the
    /// visibility read's answer with the data state it saw.
    fn write_op(
        &self,
        topo: &Topo,
        rec: Option<(&mut Recorder, u32)>,
        trace: u64,
    ) -> (Op, Option<Kept>) {
        let mut timed = Timed(rec);
        let failed = (
            Op::Write {
                ok: false,
                ack_ns: 0,
                visible_ns: 0,
            },
            None,
        );
        // Held across the commit so batches commit in order.
        let mut next = self
            .next_batch
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let k = *next;
        assert!(k < self.batches.len(), "write stream ran out of batches");
        let batch = &self.batches[k];
        let probe = self.probe_query(k);
        let start = Instant::now();
        let (applied, order) = match topo {
            Topo::Service(service) => {
                let r = timed.run(trace, "CachedEngine.apply", || {
                    service.engine().apply(batch)
                });
                (
                    r.map(|r| r.all_applied()).map_err(|e| e.to_string()),
                    k as u64,
                )
            }
            Topo::Replicated(set) => {
                let r = timed.run(trace, "Primary.commit", || set.primary().commit(batch));
                match r {
                    Ok(receipt) => (Ok(receipt.report.all_applied()), receipt.first_lsn),
                    Err(e) => (Err(e.to_string()), 0),
                }
            }
            Topo::Sharded(p) => {
                let r = timed.run(trace, "ShardedPrimary.commit", || {
                    let mut g = write(p);
                    let r = g.0.commit(batch);
                    if r.is_ok() {
                        g.1 += 1;
                    }
                    r
                });
                (
                    r.map(|r| r.report.all_applied()).map_err(|e| e.to_string()),
                    k as u64,
                )
            }
        };
        let ack = start.elapsed();
        *next += 1;
        drop(next);
        if !matches!(applied, Ok(true)) {
            return failed;
        }
        self.committed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((order, k));
        let at = self.prefix[k + 1];
        let seen = match topo {
            Topo::Service(service) => timed
                .run(trace, "QueryService.submit_wait(visible)", || {
                    service.submit(probe).wait()
                })
                .ok()
                .map(|o| (o, at, at)),
            Topo::Replicated(set) => {
                // The receipt's last LSN is the batch's last record: the
                // commit is visible once a read is served at or past it.
                let lsn = order + batch.len() as u64 - 1;
                timed
                    .run(trace, "ReplicaSet.query(visible)", || {
                        set.query(probe, Consistency::AtLeast(lsn))
                    })
                    .ok()
                    .filter(|r| r.lsn >= lsn)
                    .map(|r| (r.outcome, r.lsn as usize, max_lsn(set)))
            }
            Topo::Sharded(p) => timed.run(trace, "ShardedPrimary.search(visible)", || {
                let g = read(p);
                let at = self.prefix[g.1];
                g.0.search(probe).ok().map(|o| (o, at, at))
            }),
        };
        let visible = start.elapsed();
        let Some((outcome, lo, hi)) = seen else {
            return failed;
        };
        let op = Op::Write {
            ok: true,
            ack_ns: ack.as_nanos() as u64,
            visible_ns: visible.as_nanos() as u64,
        };
        let kept = Kept {
            query: probe.to_string(),
            outcome,
            lo,
            hi,
        };
        (op, Some(kept))
    }

    /// `n` commits one after another, each followed by its visibility
    /// read, stopping early once `budget` has passed. Every tenth
    /// visibility answer is kept for the gate.
    pub fn write_probe(&mut self, topo: &Topo, n: usize, budget: Duration) -> PhaseOut {
        let mut out = PhaseOut::default();
        let started = Instant::now();
        for i in 0..n {
            if started.elapsed() > budget {
                break;
            }
            let (op, kept) = self.write_op(topo, None, i as u64);
            out.writes_attempted += 1;
            match op {
                Op::Write {
                    ok: true,
                    ack_ns,
                    visible_ns,
                } => {
                    out.commit_ns.push(ack_ns);
                    out.visible_ns.push(visible_ns);
                }
                _ => out.writes_failed += 1,
            }
            if i % 10 == 9 {
                out.kept.extend(kept);
            }
        }
        out
    }

    /// The committed records in commit (LSN) order.
    pub fn committed_records(&self) -> Vec<ChangeRecord> {
        let mut c = self
            .committed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        c.sort_unstable();
        c.iter()
            .flat_map(|&(_, k)| self.batches[k].iter().cloned())
            .collect()
    }
}

/// The furthest any server of the set has applied: an upper bound on the
/// data state a read that just finished could have seen.
fn max_lsn(set: &ReplicaSet) -> usize {
    set.replicas()
        .iter()
        .map(|r| r.applied_lsn())
        .chain([set.primary().last_lsn()])
        .max()
        .unwrap_or(0) as usize
}

/// Optional span recording around a call.
struct Timed<'r>(Option<(&'r mut Recorder, u32)>);

impl Timed<'_> {
    fn run<R>(&mut self, trace: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.0 {
            Some((rec, parent)) => rec.time(trace, Some(*parent), name, f),
            None => f(),
        }
    }
}

/// A run's scratch directory inside the benchmark's own `out/` directory.
pub fn run_dir(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{workload}-{}", std::process::id()))
}
