//! Open-loop load drivers. Every request has an intended send time fixed
//! by the schedule before the run starts; latency is measured from that
//! time, so a stall charges every request it delays, and the generator's
//! own lateness is reported separately.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use quest_core::{SearchOutcome, SourceWrapper};
use quest_serve::QueryService;

use crate::spans::Recorder;

/// How far a sleep on this kind of host overshoots its deadline, typically.
/// `pace` sleeps that much short of the send time and yields for the rest,
/// so it neither sends late by a whole timer overshoot nor burns a core.
const SLEEP_OVERSHOOT: Duration = Duration::from_micros(60);

/// Wait until `until`.
pub fn pace(until: Instant) {
    loop {
        let now = Instant::now();
        if now >= until {
            return;
        }
        let left = until - now;
        if left > SLEEP_OVERSHOOT {
            std::thread::sleep(left - SLEEP_OVERSHOOT);
        } else {
            std::thread::yield_now();
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Evenly spaced send offsets for `rate` requests per second over `dur`.
pub fn even_schedule(rate: f64, dur: Duration) -> Vec<u64> {
    let n = ((rate * dur.as_secs_f64()).round() as usize).max(1);
    (0..n).map(|i| (i as f64 * 1e9 / rate) as u64).collect()
}

/// Send offsets, relative to `from`, of the writes of a stream of `rate`
/// per second that fall in `[from, from + dur)`. The stream's writes sit
/// at `(k + 0.5) / rate` from its start, so phases cut from one stream
/// back to back carry exactly its writes, however short each phase is.
pub fn window_writes(rate: f64, from: Duration, dur: Duration) -> Vec<u64> {
    if rate <= 0.0 {
        return Vec::new();
    }
    let (lo, hi) = (ns(from), ns(from + dur));
    let at = |k: u64| ((k as f64 + 0.5) * 1e9 / rate) as u64;
    let mut k = ((from.as_secs_f64() * rate - 0.5).floor().max(0.0)) as u64;
    while at(k) < lo {
        k += 1;
    }
    let mut out = Vec::new();
    while at(k) < hi {
        out.push(at(k) - lo);
        k += 1;
    }
    out
}

/// One phase's read-side measurements.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency from intended send time; a failed request is `u64::MAX`.
    pub lat_ns: Vec<u64>,
    /// How late the generator sent each request.
    pub late_ns: Vec<u64>,
    /// Time a request waited for a free client thread (synchronous drivers).
    pub queue_ns: Vec<u64>,
    /// Time inside the public call (send to completion).
    pub call_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.lat_ns.extend(other.lat_ns);
        self.late_ns.extend(other.late_ns);
        self.queue_ns.extend(other.queue_ns);
        self.call_ns.extend(other.call_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Drive a [`QueryService`] open-loop: one generator thread submits on
/// schedule, the calling thread waits on tickets in submit order.
/// `query(j)` names request `j`'s query; outcomes of requests for which
/// `keep(j)` holds are returned for the correctness gate. With a
/// recorder, each request gets a `request` span (intended send to
/// completion) with a `QueryService.submit_wait` child (send to
/// completion).
pub fn service_phase<'q, W: SourceWrapper + Send + Sync + 'static>(
    service: &QueryService<W>,
    schedule: &[u64],
    query: impl Fn(usize) -> &'q str + Sync,
    keep: impl Fn(usize) -> bool,
    mut rec: Option<&mut Recorder>,
) -> (Phase, Vec<(usize, SearchOutcome)>) {
    let (tx, rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(2);
    let mut phase = Phase::default();
    let mut kept = Vec::new();
    std::thread::scope(|s| {
        let query = &query;
        s.spawn(move || {
            for (j, &off) in schedule.iter().enumerate() {
                let intended = start + Duration::from_nanos(off);
                pace(intended);
                let sent = Instant::now();
                let ticket = service.submit(query(j));
                if tx.send((j, intended, sent, ticket)).is_err() {
                    return;
                }
            }
        });
        for (j, intended, sent, ticket) in rx {
            let result = ticket.wait();
            let done = Instant::now();
            phase.attempted += 1;
            phase.late_ns.push(ns(sent - intended));
            phase.call_ns.push(ns(done - sent));
            match result {
                Ok(outcome) => {
                    phase.lat_ns.push(ns(done - intended));
                    if keep(j) {
                        kept.push((j, outcome));
                    }
                }
                Err(_) => {
                    phase.failed += 1;
                    phase.lat_ns.push(u64::MAX);
                }
            }
            if let Some(r) = rec.as_deref_mut() {
                let root = r.reserve();
                let call = r.reserve();
                r.record(
                    call,
                    j as u64,
                    Some(root),
                    "QueryService.submit_wait",
                    sent,
                    done,
                );
                r.record(root, j as u64, None, "request", intended, done);
            }
        }
    });
    (phase, kept)
}

/// What one synchronous operation reported.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Read {
        ok: bool,
    },
    /// A commit: acknowledged (`ok`), its acknowledgement time after the
    /// call started, and when a reader first saw it (from the same start).
    Write {
        ok: bool,
        ack_ns: u64,
        visible_ns: u64,
    },
}

/// Measurements of a synchronous phase: reads as a [`Phase`], writes as
/// acknowledgement latency from intended send time and visibility from
/// commit start.
#[derive(Debug, Default)]
pub struct SyncPhase {
    pub reads: Phase,
    pub commit_ns: Vec<u64>,
    pub visible_ns: Vec<u64>,
    pub writes_attempted: u64,
    pub writes_failed: u64,
}

/// Drive synchronous calls open-loop from `threads` client threads: each
/// claims the next scheduled operation, waits for its send time if early,
/// and runs `exec(j, recorder)` on it. An operation claimed after its send
/// time waited for a free client; that wait counts as queueing.
pub fn sync_phase<F>(
    threads: usize,
    schedule: &[u64],
    exec: F,
    traced: bool,
) -> (SyncPhase, Vec<Recorder>)
where
    F: Fn(usize, Option<(&mut Recorder, u32)>) -> Op + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<(SyncPhase, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let (next, exec) = (&next, &exec);
                s.spawn(move || {
                    let mut out = SyncPhase::default();
                    let mut rec = Recorder::new(start, t as u32 + 1);
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&off) = schedule.get(j) else {
                            break;
                        };
                        let intended = start + Duration::from_nanos(off);
                        let claimed = Instant::now();
                        let queued = claimed.saturating_duration_since(intended);
                        pace(intended);
                        let sent = Instant::now();
                        let root = rec.reserve();
                        let op = exec(j, traced.then_some((&mut rec, root)));
                        let done = Instant::now();
                        if traced {
                            rec.record(root, j as u64, None, "request", intended, done);
                        }
                        match op {
                            Op::Read { ok } => {
                                let r = &mut out.reads;
                                r.attempted += 1;
                                r.queue_ns.push(ns(queued));
                                r.late_ns.push(
                                    ns(sent - intended) - ns(queued).min(ns(sent - intended)),
                                );
                                r.call_ns.push(ns(done - sent));
                                if ok {
                                    r.lat_ns.push(ns(done - intended));
                                } else {
                                    r.failed += 1;
                                    r.lat_ns.push(u64::MAX);
                                }
                            }
                            Op::Write {
                                ok,
                                ack_ns,
                                visible_ns,
                            } => {
                                out.writes_attempted += 1;
                                if ok {
                                    out.commit_ns.push(ns(sent - intended) + ack_ns);
                                    out.visible_ns.push(visible_ns);
                                } else {
                                    out.writes_failed += 1;
                                }
                            }
                        }
                    }
                    (out, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut merged = SyncPhase::default();
    let mut recs = Vec::new();
    for (p, r) in results {
        merged.reads.merge(p.reads);
        merged.commit_ns.extend(p.commit_ns);
        merged.visible_ns.extend(p.visible_ns);
        merged.writes_attempted += p.writes_attempted;
        merged.writes_failed += p.writes_failed;
        recs.push(r);
    }
    (merged, recs)
}

/// Percentile of `xs` (nearest rank; `u64::MAX` entries are failures and
/// sort last).
pub fn percentile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cut_from_one_write_stream_carry_all_its_writes() {
        let window = Duration::from_millis(300);
        for rate in [1.0, 5.0, 0.7] {
            let mut joined = Vec::new();
            for w in 0..40u32 {
                let from = window * w;
                joined.extend(
                    window_writes(rate, from, window)
                        .into_iter()
                        .map(|o| o + ns(from)),
                );
            }
            let whole = window_writes(rate, Duration::ZERO, window * 40);
            assert_eq!(joined, whole, "rate {rate}");
            assert_eq!(whole.len(), (rate * 12.0).round() as usize, "rate {rate}");
        }
    }

    #[test]
    fn percentile_counts_failures_as_slowest() {
        let xs = [5, 1, u64::MAX, 3];
        assert_eq!(percentile(&xs, 50.0), 3);
        assert_eq!(percentile(&xs, 99.0), u64::MAX);
    }
}
