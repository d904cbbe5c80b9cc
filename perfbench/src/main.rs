//! Open-loop load benchmark for the QUEST serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints run metadata, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. See `perfbench/README.md`.

mod driver;
mod gate;
mod layers;
mod rng;
mod spans;
mod stream;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use driver::{mean, percentile};
use gate::{ColdStates, Gate};
use rng::Rng;
use spans::Recorder;
use workload::{Kept, Load, PhaseOut, ServingEngine, Spec, Topo, Topology};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must lie in 1..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Set-ups per untraced run; `setup_s` is the median of the
/// `QUIET_SETUPS` (or more, on ties) with the least host steal.
const SETUPS: usize = 7;
const QUIET_SETUPS: usize = 4;
/// Length of the pre-generated request stream (phases cycle through it).
const STREAM_LEN: usize = 1 << 20;
/// Serial commits measured between the read windows, in `PROBE_BLOCKS`
/// equal blocks spread over the run: commit latency drifts over seconds on
/// a shared host, and one block at the end would sample a single stretch.
/// The commit metrics come from the `QUIET_BLOCKS` (or more, on ties)
/// blocks with the least host steal.
const PROBE_COMMITS: usize = 200;
const PROBE_BLOCKS: usize = 8;
const QUIET_BLOCKS: usize = 4;
/// Share of `--seconds` spent on reads at the fixed offered rate; the
/// rest bounds the serial commit blocks.
const READ_SHARE: f64 = 0.6;
/// Windows of the read phase; `search_p50_us` is the median of the
/// medians of the `QUIET_WINDOWS` (or more, on ties) windows with the
/// least host steal.
const WINDOWS: usize = 40;
const QUIET_WINDOWS: usize = 10;
/// Reads kept for the correctness gate per phase, roughly.
const GATE_SAMPLES: f64 = 100.0;
/// Queries of the stream replayed by the layer pass.
const LAYER_QUERIES: usize = 100;
/// Write batches the layer pass feeds each write-path layer.
const LAYER_BATCHES: usize = 12;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative (steal, total) CPU ticks of the whole machine, from
/// `/proc/stat`: time the hypervisor ran something else while this
/// machine's CPUs had work.
fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Steal as a share of all CPU time between two [`cpu_steal`] readings.
fn steal_pct(a: (u64, u64), b: (u64, u64)) -> f64 {
    (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64 * 100.0
}

/// The `(steal, value)` readings the host disturbed least: every one whose
/// steal is at or below the `k`-th lowest. Readings tied on steal are all
/// kept, so where steal does not separate them (a quiet host) the choice
/// is all of them rather than the first `k` in time order.
fn least_stolen<T: Copy>(readings: &[(f64, T)], k: usize) -> Vec<(f64, T)> {
    let mut steal: Vec<f64> = readings.iter().map(|r| r.0).collect();
    steal.sort_by(f64::total_cmp);
    let Some(&cut) = steal.get(k.clamp(1, steal.len().max(1)) - 1) else {
        return Vec::new();
    };
    readings.iter().copied().filter(|r| r.0 <= cut).collect()
}

/// Worker-side search time (total ns, searches) a serving engine's
/// latency histogram gained between two stats readings.
fn worker_time(before: &quest_serve::ServeStats, after: &quest_serve::ServeStats) -> (u64, u64) {
    let h = |s: &quest_serve::ServeStats| {
        s.metrics
            .histogram(quest_serve::names::LATENCY)
            .map_or((0, 0), |h| (h.sum, h.count))
    };
    let ((s0, c0), (s1, c1)) = (h(before), h(after));
    (s1 - s0, c1 - c0)
}

/// The commit this checkout was built from, read from `.git` if present.
fn git_sha() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_else(|_| {
            std::fs::read_to_string(git.join("packed-refs"))
                .unwrap_or_default()
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .unwrap_or_default()
                .to_string()
        }),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".into()
    } else {
        sha.to_string()
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Check every kept answer against a cold reference twin at a state the
/// read could have seen: the first `n` committed records for some `n` in
/// `lo..=hi`.
fn run_gate(cold: &mut ColdStates, catalog: &relstore::Catalog, mut kept: Vec<Kept>) -> Gate {
    let mut gate = Gate::default();
    let mut refs: HashMap<(usize, String), Result<gate::Print, String>> = HashMap::new();
    kept.sort_by_key(|k| (k.lo, k.hi));
    for k in kept {
        cold.prune(k.lo);
        let served = gate::print(&k.outcome, catalog);
        // The state the read saw is one of lo..=hi: compare with the one
        // that matches, or report against the lowest.
        let mut reported = None;
        for n in k.lo..=k.hi.min(cold.len()) {
            let expected = refs
                .entry((n, k.query.clone()))
                .or_insert_with(|| gate::reference_print(cold.engine_at(n), &k.query))
                .clone();
            let hit = expected.as_ref().is_ok_and(|e| *e == served);
            if hit || reported.is_none() {
                reported = Some(expected);
            }
            if hit {
                break;
            }
        }
        let what = format!("{:?} at records {}..={}", k.query, k.lo, k.hi);
        match reported {
            Some(Ok(expected)) => {
                gate.check(&what, &served, &expected);
            }
            Some(Err(e)) => gate.fail(&format!("{what}: reference failed: {e}")),
            None => gate.fail(&format!("{what}: no reference state")),
        }
    }
    gate
}

struct Prepared {
    spec: Spec,
    clients: usize,
    pristine: relstore::Database,
    cold: ColdStates,
    pool: Vec<String>,
    stream: Vec<u32>,
    warm: Vec<String>,
    batches: Vec<Vec<quest_wal::ChangeRecord>>,
    distinct: usize,
    repeat_share: f64,
}

impl Prepared {
    fn warm_queries(&self) -> Vec<&str> {
        self.warm.iter().map(String::as_str).collect()
    }
}

fn prepare(spec: Spec, args: &Args) -> Prepared {
    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let pristine = workload::generate(spec.movies, args.seed);
    let vocab = stream::vocabulary(&pristine);
    let mut cold = ColdStates::new(pristine.clone(), workload::config());
    let pool = stream::query_pool(
        &mut Rng::fork(args.seed, "pool"),
        &vocab,
        cold.engine_at(0),
        spec.pool,
        clients,
    );
    let stream = stream::request_stream(
        &mut Rng::fork(args.seed, "stream"),
        pool.len(),
        STREAM_LEN,
        spec.popularity,
    );
    let warm: Vec<String> = stream::request_stream(
        &mut Rng::fork(args.seed, "warm"),
        pool.len(),
        spec.warmup,
        spec.popularity,
    )
    .into_iter()
    .map(|i| pool[i as usize].clone())
    .collect();
    // Enough batches for every write the phases can issue.
    let writes = spec.write_rate * args.seconds * 2.0;
    let n_batches = writes.ceil() as usize + PROBE_COMMITS + LAYER_BATCHES + 16;
    let batches = stream::write_batches(&mut Rng::fork(args.seed, "writes"), &vocab, n_batches);
    let window = (spec.rate * args.seconds * READ_SHARE) as usize;
    let (distinct, repeat_share) = stream::stream_shape(&pool, &stream[..window.min(stream.len())]);
    Prepared {
        spec,
        clients,
        pristine,
        cold,
        pool,
        stream,
        warm,
        batches,
        distinct,
        repeat_share,
    }
}

fn setup(p: &Prepared, args: &Args, dir: &Path) -> (Topo, f64) {
    let t = Instant::now();
    let db = workload::generate(p.spec.movies, args.seed);
    let topo = Topo::build(&p.spec, db, dir, p.clients, &p.warm_queries());
    (topo, t.elapsed().as_secs_f64())
}

fn keep_one_in(spec: &Spec, dur: Duration) -> u64 {
    ((spec.rate * dur.as_secs_f64() / GATE_SAMPLES) as u64).max(1)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    gate: Gate,
    metrics: Vec<(&'static str, f64, &'static str)>,
    meta: Vec<(String, String)>,
}

fn count(out: &PhaseOut) -> (u64, u64) {
    (
        out.reads.attempted + out.writes_attempted,
        out.reads.failed + out.writes_failed,
    )
}

fn untraced(p: &mut Prepared, args: &Args, dir: &Path) -> Outcome {
    let mut setups = Vec::new();
    let mut topo = None;
    for _ in 0..SETUPS {
        drop(topo.take());
        let before = cpu_steal();
        let (t, s) = setup(p, args, dir);
        setups.push((steal_pct(before, cpu_steal()), s));
        topo = Some(t);
    }
    let setup_s: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let quiet_setups = least_stolen(&setups, QUIET_SETUPS);
    let topo = topo.expect("at least one set-up");
    let spec = p.spec.clone();
    let mut load = Load::new(&spec, args.seed, &p.pool, &p.stream, &p.batches, p.clients);

    // Reads at the fixed offered rate (with the workload's concurrent
    // writes), in windows; the windows the host disturbed least give the
    // reading of the program. After every few windows, a block of commits
    // one at a time through the topology's write entry, then the warm-up
    // list again (unmeasured) so the next window starts from warm caches.
    let read_dur = secs(args.seconds * READ_SHARE);
    let window = read_dur / WINDOWS as u32;
    let block_budget = secs(args.seconds * (1.0 - READ_SHARE)) / PROBE_BLOCKS as u32;
    let keep = keep_one_in(&spec, read_dur);
    let warm = p.warm_queries();
    let mut reads = PhaseOut::default();
    let mut writes = PhaseOut::default();
    let mut windows = Vec::new();
    let (mut blocks, mut block_ns) = (Vec::new(), Vec::new());
    let (mut worker_ns, mut worker_n) = (0, 0);
    for i in 0..WINDOWS {
        let stats = topo.with_serving_engine(|e: &dyn ServingEngine| e.stats());
        let before = cpu_steal();
        let w = load.phase(&topo, spec.rate, window, keep, false);
        windows.push((
            steal_pct(before, cpu_steal()),
            percentile(&w.reads.lat_ns, 50.0) as f64 / 1e3,
        ));
        let (ns, n) = worker_time(
            &stats,
            &topo.with_serving_engine(|e: &dyn ServingEngine| e.stats()),
        );
        (worker_ns, worker_n) = (worker_ns + ns, worker_n + n);
        reads.absorb(w);
        if (i + 1) % (WINDOWS / PROBE_BLOCKS) == 0 {
            let before = cpu_steal();
            let block = load.write_probe(&topo, PROBE_COMMITS / PROBE_BLOCKS, block_budget);
            blocks.push((steal_pct(before, cpu_steal()), blocks.len()));
            block_ns.push((block.commit_ns.clone(), block.visible_ns.clone()));
            writes.absorb(block);
            topo.warm(&warm);
        }
    }
    let rss = rss_peak_mb();
    let quiet = least_stolen(&windows, QUIET_WINDOWS);
    let quiet_blocks = least_stolen(&blocks, QUIET_BLOCKS);
    let (mut commit_ns, mut visible_ns) = (Vec::new(), Vec::new());
    for &(_, b) in &quiet_blocks {
        commit_ns.extend_from_slice(&block_ns[b].0);
        visible_ns.extend_from_slice(&block_ns[b].1);
    }
    let search_p50 = median(quiet.iter().map(|w| w.1).collect());
    let read_steal: Vec<f64> = quiet.iter().map(|w| w.0).collect();
    // Offered load against capacity: the mean time a request holds a
    // server thread (a worker for `QueryService`, a client thread for
    // the synchronous calls), times the rate, over the thread count.
    let service_us = match spec.topology {
        Topology::Service => worker_ns as f64 / worker_n.max(1) as f64 / 1e3,
        _ => mean(&reads.reads.call_ns) / 1e3,
    };
    let utilization = spec.rate * service_us / 1e6 / p.clients as f64;

    let (mut attempted, mut failed) = count(&reads);
    let (a, f) = count(&writes);
    attempted += a;
    failed += f;
    reads.kept.append(&mut writes.kept);

    let records = load.committed_records();
    drop(load);
    drop(topo);
    p.cold.extend(&records);
    let kept = std::mem::take(&mut reads.kept);
    let gate = run_gate(&mut p.cold, p.pristine.catalog(), kept);
    let us = |ns: u64| ns as f64 / 1e3;
    let lat = &reads.reads.lat_ns;
    let window_p50: Vec<f64> = windows.iter().map(|w| w.1).collect();
    let window_steal: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let metrics = vec![
        (
            "setup_s",
            median(quiet_setups.iter().map(|s| s.1).collect()),
            "s",
        ),
        ("search_p50_us", search_p50, "us"),
        ("commit_p50_us", us(percentile(&commit_ns, 50.0)), "us"),
        ("visible_p50_us", us(percentile(&visible_ns, 50.0)), "us"),
        ("rss_peak_mb", rss, "MiB"),
    ];
    let meta = vec![
        ("setup_runs_s".into(), format!("{setup_s:?}")),
        (
            "host_steal_setup_pct".into(),
            format!("{:.1?}", setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        ),
        ("setup_samples".into(), quiet_setups.len().to_string()),
        ("search_windows".into(), quiet.len().to_string()),
        ("service_time_us".into(), format!("{service_us:.2}")),
        ("utilization".into(), format!("{utilization:.4}")),
        (
            "host_steal_window_pct".into(),
            format!("{window_steal:.1?}"),
        ),
        (
            "host_steal_chosen_windows_pct".into(),
            format!("{read_steal:.1?}"),
        ),
        ("offered_rate_per_s".into(), spec.rate.to_string()),
        (
            "concurrent_write_rate_per_s".into(),
            spec.write_rate.to_string(),
        ),
        ("search_samples".into(), lat.len().to_string()),
        ("search_window_p50_us".into(), format!("{window_p50:.1?}")),
        (
            "search_all_p50_us".into(),
            format!("{:.1}", us(percentile(lat, 50.0))),
        ),
        (
            "search_all_p90_us".into(),
            format!("{:.1}", us(percentile(lat, 90.0))),
        ),
        (
            "search_all_p99_us".into(),
            format!("{:.1}", us(percentile(lat, 99.0))),
        ),
        (
            "generator_late_p50_us".into(),
            format!("{:.2}", us(percentile(&reads.reads.late_ns, 50.0))),
        ),
        (
            "generator_late_p99_us".into(),
            format!("{:.2}", us(percentile(&reads.reads.late_ns, 99.0))),
        ),
        (
            "concurrent_commits".into(),
            reads.commit_ns.len().to_string(),
        ),
        (
            "concurrent_commit_rate_per_s".into(),
            format!(
                "{:.3}",
                reads.commit_ns.len() as f64 / read_dur.as_secs_f64()
            ),
        ),
        (
            "concurrent_commit_p50_us".into(),
            format!("{:.1}", us(percentile(&reads.commit_ns, 50.0))),
        ),
        (
            "concurrent_visible_p50_us".into(),
            format!("{:.1}", us(percentile(&reads.visible_ns, 50.0))),
        ),
        ("commit_samples".into(), commit_ns.len().to_string()),
        (
            "commits_all_blocks".into(),
            writes.commit_ns.len().to_string(),
        ),
        (
            "host_steal_block_pct".into(),
            format!("{:.1?}", blocks.iter().map(|b| b.0).collect::<Vec<_>>()),
        ),
        (
            "commit_all_p50_us".into(),
            format!("{:.1}", us(percentile(&writes.commit_ns, 50.0))),
        ),
        (
            "commit_p90_us".into(),
            format!("{:.1}", us(percentile(&commit_ns, 90.0))),
        ),
        ("visible_samples".into(), visible_ns.len().to_string()),
    ];
    Outcome {
        attempted,
        failed,
        gate,
        metrics,
        meta,
    }
}

fn traced(p: &mut Prepared, args: &Args, dir: &Path) -> Outcome {
    let (topo, _) = setup(p, args, &dir.join("topology"));
    let spec = p.spec.clone();
    let mut load = Load::new(&spec, args.seed, &p.pool, &p.stream, &p.batches, p.clients);
    let d = secs(args.seconds * 0.2);
    let keep = keep_one_in(&spec, d);
    let untraced = load.phase(&topo, spec.rate, d, keep, false);
    topo.set_obs(false);
    let obs_off = load.phase(&topo, spec.rate, d, 0, false);
    topo.set_obs(true);
    let before = topo.with_serving_engine(|e: &dyn ServingEngine| e.stats());
    let traced = load.phase(&topo, spec.rate, d, keep, true);
    let after = topo.with_serving_engine(|e: &dyn ServingEngine| e.stats());
    let mut attempted = 0;
    let mut failed = 0;
    for out in [&untraced, &obs_off, &traced] {
        let (a, f) = count(out);
        attempted += a;
        failed += f;
    }

    // The layer pass, on a seeded sample of the stream.
    let mut sample_rng = Rng::fork(args.seed, "layers");
    let queries: Vec<&str> = (0..LAYER_QUERIES)
        .map(|_| p.pool[p.stream[sample_rng.below(p.stream.len())] as usize].as_str())
        .collect();
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 100);
    let inputs = layers::Inputs {
        pristine: &p.pristine,
        queries: &queries,
        batches: &p.batches[..LAYER_BATCHES],
        dir: &dir.join("layers"),
    };
    let mut m = layers::run(&inputs, &topo, &mut rec);

    let reads = &traced.reads;
    let traced_requests = reads.lat_ns.len();
    let us = |ns: f64| ns / 1e3;
    let late = us(mean(&reads.late_ns));
    let worker_us = {
        let (ns, n) = worker_time(&before, &after);
        us(ns as f64 / n.max(1) as f64)
    };
    let queue_wait = match spec.topology {
        Topology::Service => us(mean(&reads.call_ns)) - worker_us,
        _ => us(mean(&reads.queue_ns)),
    };
    let path = match spec.topology {
        Topology::Replicated => m["replica.route_us"] + m["serve.search_us"],
        _ => m["serve.search_us"],
    };
    let ok_lat: Vec<u64> = reads
        .lat_ns
        .iter()
        .copied()
        .filter(|&l| l != u64::MAX)
        .collect();
    let e2e = us(mean(&ok_lat));
    let ratio = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
    let fwd = (&before.forward_cache, &after.forward_cache);
    let bwd = (&before.backward_cache, &after.backward_cache);
    m.insert(
        "serve.forward_hit_ratio",
        ratio(fwd.1.hits - fwd.0.hits, fwd.1.misses - fwd.0.misses),
    );
    m.insert(
        "serve.backward_hit_ratio",
        ratio(bwd.1.hits - bwd.0.hits, bwd.1.misses - bwd.0.misses),
    );
    m.insert(
        "serve.epoch_flushes",
        (fwd.1.purge_scans - fwd.0.purge_scans) as f64,
    );
    m.insert("serve.queue_wait_us", queue_wait);
    m.insert("driver.late_us", late);
    m.insert("residual_us", e2e - late - queue_wait - path);
    let p50 = |o: &PhaseOut| percentile(&o.reads.lat_ns, 50.0) as f64;
    m.insert("trace.overhead_us", us(p50(&traced) - p50(&untraced)));
    m.insert(
        "obs.overhead_pct",
        (p50(&untraced) - p50(&obs_off)) / p50(&obs_off).max(1.0) * 100.0,
    );

    // Spans out: the traced phase's requests and the layer pass.
    let mut all = Vec::new();
    for r in traced.recorders.iter().chain([&rec]) {
        all.extend(r.spans.iter().cloned());
    }
    let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", spec.name, args.seed));
    let _ = std::fs::create_dir_all(trace_path.parent().expect("out dir"));
    std::fs::write(&trace_path, spans::chrome_json(&all)).expect("trace file writes");

    let (untraced_p50, traced_p50, obs_off_p50) = (p50(&untraced), p50(&traced), p50(&obs_off));
    let records = load.committed_records();
    drop(load);
    drop(topo);
    p.cold.extend(&records);
    let mut kept = untraced.kept;
    kept.extend(traced.kept);
    let gate = run_gate(&mut p.cold, p.pristine.catalog(), kept);

    let unit = |name: &str| -> &'static str {
        if name.ends_with("_us") {
            "us"
        } else if name.ends_with("_ms") {
            "ms"
        } else if name.ends_with("_ns") {
            "ns"
        } else if name.ends_with("_pct") {
            "%"
        } else if name.contains("ratio") || name.contains("per") || name.contains("amplification") {
            "ratio"
        } else {
            "count"
        }
    };
    let metrics = m.into_iter().map(|(k, v)| (k, v, unit(k))).collect();
    let meta = vec![
        ("traced_phase_s".into(), format!("{:.2}", d.as_secs_f64())),
        ("traced_requests".into(), traced_requests.to_string()),
        ("untraced_p50_us".into(), format!("{:.2}", us(untraced_p50))),
        ("traced_p50_us".into(), format!("{:.2}", us(traced_p50))),
        ("obs_off_p50_us".into(), format!("{:.2}", us(obs_off_p50))),
        ("layer_queries".into(), LAYER_QUERIES.to_string()),
        ("layer_batches".into(), LAYER_BATCHES.to_string()),
        ("spans_written".into(), all.len().to_string()),
        (
            "trace_file".into(),
            format!(
                "perfbench/out/{}",
                trace_path.file_name().unwrap_or_default().to_string_lossy()
            ),
        ),
    ];
    Outcome {
        attempted,
        failed,
        gate,
        metrics,
        meta,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; known: {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let dir = workload::run_dir(spec.name);
    let started = Instant::now();
    let mut p = prepare(spec, &args);
    let prepare_s = started.elapsed().as_secs_f64();
    let out = if args.trace {
        traced(&mut p, &args, &dir)
    } else {
        untraced(&mut p, &args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);

    let failed = out.failed + out.gate.mismatched;
    let attempted = out.attempted + out.gate.checked;
    let correct = out.gate.mismatched == 0 && out.failed == 0;
    if let Some(m) = &out.gate.first_mismatch {
        eprintln!("perfbench: correctness gate: {m}");
    }
    let mut meta: BTreeMap<String, String> = out.meta.into_iter().collect();
    for (k, v) in [
        ("workload", p.spec.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("git_sha", git_sha()),
        ("nproc", p.clients.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("rows", p.pristine.total_rows().to_string()),
        (
            "flush_policy",
            match p.spec.topology {
                Topology::Service => "none: in-memory CachedEngine::apply, no log".to_string(),
                Topology::Replicated => "SyncPolicy::Always (fsync per append)".to_string(),
                Topology::Sharded => "SyncPolicy::Never on each shard log".to_string(),
            },
        ),
        ("pool_distinct_queries", p.pool.len().to_string()),
        ("window_distinct_queries", p.distinct.to_string()),
        (
            "forward_cache_capacity",
            quest_serve::CacheConfig::default()
                .forward_capacity
                .to_string(),
        ),
        ("repeat_share", format!("{:.4}", p.repeat_share)),
        ("service_workers", p.clients.to_string()),
        ("client_threads", p.clients.to_string()),
        ("gate_checked", out.gate.checked.to_string()),
        ("gate_mismatched", out.gate.mismatched.to_string()),
        (
            "failed_ratio",
            format!("{}", failed as f64 / attempted.max(1) as f64),
        ),
        ("prepare_s", format!("{prepare_s:.3}")),
        ("wall_s", format!("{:.3}", started.elapsed().as_secs_f64())),
    ] {
        meta.insert(k.to_string(), v);
    }
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"meta\":{{{}}}}}", meta_json.join(","));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_stolen_keeps_ties_instead_of_the_earliest() {
        // A quiet host: no window separates from another on steal, so all
        // 40 count, not the first ten.
        let windows: Vec<(f64, f64)> = (0..40).map(|i| (0.0, i as f64)).collect();
        let quiet = least_stolen(&windows, 10);
        assert_eq!(quiet.len(), 40);
        assert_eq!(median(quiet.iter().map(|w| w.1).collect()), 19.5);

        // Steal separates: the ten least-stolen windows, plus any tied
        // with the tenth.
        let mut noisy: Vec<(f64, f64)> = (0..40).map(|i| (i as f64, i as f64)).collect();
        noisy.push((9.0, 100.0));
        let quiet = least_stolen(&noisy, 10);
        assert_eq!(quiet.len(), 11);
        assert!(quiet.iter().all(|w| w.0 <= 9.0));
    }
}
