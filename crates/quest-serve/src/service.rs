//! [`QueryService`]: a thread pool draining keyword queries through a shared
//! [`CachedEngine`].
//!
//! Built on `std` threads only. Jobs wait in one shared queue (a
//! `Mutex<VecDeque>` plus a `Condvar`) and an atomic flag lets exactly one
//! thread claim each: the worker that pops it, or the caller of
//! [`Ticket::wait`] if no worker has yet, which then runs its own query and
//! skips the cross-thread hand-off. Every thread shares one engine and one
//! pair of caches, so repeated keywords and shared join paths turn into
//! lookups no matter which thread serves them.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use quest_core::{QuestError, SearchOutcome, SourceWrapper};
use quest_obs::WindowedGauge;

use crate::engine::CachedEngine;
use crate::error::ServeError;
use crate::stats::{names, ServeStats};

type Search = dyn Fn(&str) -> Result<SearchOutcome, QuestError> + Send + Sync;

/// Every critical section here is one push, pop or store, so a lock that
/// a panicking thread poisoned still guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One submitted query.
#[derive(Debug, Default)]
struct Job {
    raw: String,
    claimed: AtomicBool,
    /// Published by the worker that claimed the job, for its waiter.
    result: Mutex<Option<Result<SearchOutcome, ServeError>>>,
    done: Condvar,
    #[cfg(test)]
    hook: tests::Hook,
}

/// What the service, its workers and its tickets share. The engine is
/// type-erased so [`Ticket`] stays non-generic.
struct Queue {
    search: Box<Search>,
    /// Jobs no worker has popped yet, and whether the service is closing.
    pending: Mutex<(VecDeque<Arc<Job>>, bool)>,
    ready: Condvar,
    /// Jobs that neither a worker nor their waiter has claimed yet,
    /// mirrored into the engine registry's `quest_serve_queue_depth` gauge
    /// — windowed, so a scrape also sees the `_min`/`_max` the depth
    /// reached between scrapes.
    depth: WindowedGauge,
}

impl fmt::Debug for Queue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Queue").finish_non_exhaustive()
    }
}

impl Queue {
    /// True for exactly one caller per job.
    fn claim(&self, job: &Job) -> bool {
        let won = !job.claimed.swap(true, Ordering::SeqCst);
        if won {
            self.depth.add(-1);
        }
        won
    }

    fn run(&self, job: &Job) -> Result<SearchOutcome, QuestError> {
        #[cfg(test)]
        job.hook.run();
        (self.search)(&job.raw)
    }

    /// The next job, or `None` once the queue is closed and drained.
    fn pop(&self) -> Option<Arc<Job>> {
        let idle = |p: &mut (VecDeque<_>, bool)| p.0.is_empty() && !p.1;
        let pending = self.ready.wait_while(lock(&self.pending), idle);
        pending
            .unwrap_or_else(PoisonError::into_inner)
            .0
            .pop_front()
    }

    /// A worker's loop. A search that panics resolves its ticket to
    /// [`ServeError::Disconnected`], and the worker carries on.
    fn work(&self) {
        while let Some(job) = self.pop() {
            // A job whose waiter claimed it first is that waiter's to run.
            if self.claim(&job) {
                let caught = panic::catch_unwind(AssertUnwindSafe(|| self.run(&job)));
                let outcome = caught.map_or(Err(ServeError::Disconnected), |r| {
                    r.map_err(ServeError::Engine)
                });
                *lock(&job.result) = Some(outcome);
                job.done.notify_one();
            }
        }
    }
}

/// A claim on one submitted query's result.
#[derive(Debug)]
pub struct Ticket {
    job: Arc<Job>,
    queue: Arc<Queue>,
}

impl Ticket {
    /// Block until the query's outcome arrives. If no worker has claimed
    /// the query yet, run it on this thread instead; a panic in that
    /// search then reaches this caller, as it would from a direct search.
    pub fn wait(self) -> Result<SearchOutcome, ServeError> {
        let job = &self.job;
        if self.queue.claim(job) {
            return self.queue.run(job).map_err(ServeError::Engine);
        }
        let slot = job.done.wait_while(lock(&job.result), |r| r.is_none());
        let outcome = slot.unwrap_or_else(PoisonError::into_inner).take();
        outcome.expect("the claiming worker published a result")
    }
}

/// A concurrent query service over one shared, cache-backed engine.
///
/// Dropping the service shuts it down: the queue closes, queued jobs finish,
/// and the workers are joined.
#[derive(Debug)]
pub struct QueryService<W: SourceWrapper + Send + Sync + 'static> {
    shared: Arc<CachedEngine<W>>,
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl<W: SourceWrapper + Send + Sync + 'static> QueryService<W> {
    /// Spawn `workers` threads (at least one) over a freshly wrapped engine.
    pub fn new(engine: CachedEngine<W>, workers: usize) -> QueryService<W> {
        QueryService::over(Arc::new(engine), workers)
    }

    /// Spawn `workers` threads (at least one) over an already shared engine
    /// — e.g. one whose caches another service or a direct caller is also
    /// using.
    pub fn over(shared: Arc<CachedEngine<W>>, workers: usize) -> QueryService<W> {
        let engine = Arc::clone(&shared);
        let queue = Arc::new(Queue {
            search: Box::new(move |raw| engine.search(raw)),
            pending: Mutex::default(),
            ready: Condvar::new(),
            depth: shared.metrics().windowed_gauge(names::QUEUE_DEPTH),
        });
        let workers = (1..=workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name(format!("quest-serve-{i}"))
                    .spawn(move || queue.work())
                    .expect("spawning a worker thread succeeds")
            })
            .collect();
        QueryService {
            shared,
            queue,
            workers,
        }
    }

    /// Enqueue one raw keyword query; the returned [`Ticket`] resolves to
    /// the same outcome an uncached `Quest::search` would produce.
    pub fn submit(&self, raw_query: &str) -> Ticket {
        let raw = raw_query.to_string();
        self.enqueue(Job {
            raw,
            ..Job::default()
        })
    }

    fn enqueue(&self, job: Job) -> Ticket {
        let job = Arc::new(job);
        // Count before the push so a claim can never decrement first.
        self.queue.depth.add(1);
        lock(&self.queue.pending).0.push_back(Arc::clone(&job));
        self.queue.ready.notify_one();
        let queue = Arc::clone(&self.queue);
        Ticket { job, queue }
    }

    /// Enqueue a batch; tickets come back in submission order while the
    /// queries themselves run on whichever threads are free.
    pub fn submit_batch<I, S>(&self, queries: I) -> Vec<Ticket>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        queries
            .into_iter()
            .map(|q| self.submit(q.as_ref()))
            .collect()
    }

    /// The shared engine (for direct searches, feedback, or cache control).
    pub fn engine(&self) -> &Arc<CachedEngine<W>> {
        &self.shared
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// A snapshot of the shared engine's serving counters. Queue-depth
    /// window extremes collapse to the current depth afterwards, so each
    /// scrape interval reports its own min/max.
    pub fn stats(&self) -> ServeStats {
        let stats = self.shared.stats();
        self.queue.depth.reset_window();
        stats
    }

    /// Close the queue, finish queued jobs, join all workers, and return the
    /// final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.join_workers();
        self.shared.stats()
    }

    fn join_workers(&mut self) {
        // Workers drain the queue, then exit once it is closed and empty.
        lock(&self.queue.pending).1 = true;
        self.queue.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<W: SourceWrapper + Send + Sync + 'static> Drop for QueryService<W> {
    fn drop(&mut self) {
        self.join_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::engine;
    use quest_core::{FullAccessWrapper, KeywordQuery};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    type Service = QueryService<FullAccessWrapper>;

    /// Long enough to never fire unless the service is stuck.
    const STUCK: Duration = Duration::from_secs(30);

    /// A callback run on whichever thread claims the job, just before its
    /// search.
    #[derive(Default)]
    pub(super) struct Hook(Option<Box<dyn Fn() + Send + Sync>>);

    impl Hook {
        pub(super) fn run(&self) {
            if let Some(hook) = &self.0 {
                hook();
            }
        }
    }

    impl fmt::Debug for Hook {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Hook")
        }
    }

    fn submit_hooked(
        service: &Service,
        raw: &str,
        hook: impl Fn() + Send + Sync + 'static,
    ) -> Ticket {
        let hook = Hook(Some(Box::new(hook)));
        service.enqueue(Job {
            raw: raw.to_string(),
            hook,
            ..Job::default()
        })
    }

    /// `ticket.wait()` on a fresh thread, so a waiter left blocked fails
    /// the test instead of hanging it. Returns what `wait` returned or
    /// panicked with, and the thread that waited.
    fn wait_elsewhere(
        ticket: Ticket,
    ) -> (
        thread::Result<Result<SearchOutcome, ServeError>>,
        thread::ThreadId,
    ) {
        let (tx, waited) = mpsc::channel();
        let waiter = thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(|| ticket.wait())));
        });
        let result = waited.recv_timeout(STUCK).expect("the waiter is woken");
        let id = waiter.thread().id();
        waiter.join().unwrap();
        (result, id)
    }

    /// A service's only worker, parked inside a job until `release` fires;
    /// `runs` counts how often that job ran.
    struct Parked {
        ticket: Ticket,
        release: mpsc::Sender<()>,
        runs: Arc<AtomicUsize>,
    }

    fn park_worker(service: &Service) -> Parked {
        let (started, running) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let ticket = submit_hooked(service, "fleming", move || {
            counted.fetch_add(1, Ordering::SeqCst);
            started.send(()).unwrap();
            let _ = lock(&gate).recv();
        });
        running
            .recv_timeout(STUCK)
            .expect("the worker claimed the job");
        Parked {
            ticket,
            release,
            runs,
        }
    }

    #[test]
    fn tickets_are_send_and_debug() {
        fn check<T: Send + fmt::Debug>() {}
        check::<Ticket>();
    }

    #[test]
    fn waiter_runs_its_unclaimed_job_and_no_job_runs_twice() {
        let service = QueryService::new(CachedEngine::new(engine()), 1);
        let parked = park_worker(&service);
        // The only worker is busy, so nobody but the waiter can run this.
        let (tx, ran_on) = mpsc::channel();
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let helped = submit_hooked(&service, "wind fleming", move || {
            counted.fetch_add(1, Ordering::SeqCst);
            tx.send(thread::current().id()).unwrap();
        });
        let (out, waiter) = wait_elsewhere(helped);
        assert_eq!(ran_on.try_recv().unwrap(), waiter, "the waiter ran it");
        let out = out.unwrap().unwrap();
        let direct = service.engine().engine().search("wind fleming").unwrap();
        assert_eq!(out.explanations.len(), direct.explanations.len());
        for (a, b) in out.explanations.iter().zip(&direct.explanations) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.statement, b.statement);
        }
        // The parked job was claimed by the worker: its waiter blocks for
        // the worker's result instead of running it again.
        parked.release.send(()).unwrap();
        assert!(parked.ticket.wait().is_ok());
        // Shutdown drains the helped job's queue entry without rerunning it.
        let stats = service.shutdown();
        assert_eq!(parked.runs.load(Ordering::SeqCst), 1);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(stats.queries, 2);
    }

    #[test]
    fn a_panicking_search_on_a_worker_resolves_disconnected_and_the_worker_lives() {
        let service = QueryService::new(CachedEngine::new(engine()), 1);
        let (tx, ran) = mpsc::channel();
        let ticket = submit_hooked(&service, "wind", move || {
            tx.send(()).unwrap();
            panic!("injected search panic");
        });
        // The hook ran before this thread waited, so the worker claimed it.
        ran.recv_timeout(STUCK).expect("the worker claimed the job");
        let (result, _) = wait_elsewhere(ticket);
        assert!(matches!(result.unwrap(), Err(ServeError::Disconnected)));
        // The same worker serves the next job.
        let (tx, ran_on) = mpsc::channel();
        let ticket = submit_hooked(&service, "wind", move || {
            tx.send(thread::current().name().map(str::to_owned))
                .unwrap();
        });
        let name = ran_on.recv_timeout(STUCK).expect("the worker is alive");
        assert_eq!(name.as_deref(), Some("quest-serve-1"));
        assert!(ticket.wait().is_ok());
        assert_eq!(service.worker_count(), 1);
    }

    #[test]
    fn a_panicking_search_on_the_waiter_reaches_its_caller() {
        let service = QueryService::new(CachedEngine::new(engine()), 1);
        let parked = park_worker(&service);
        let ticket = submit_hooked(&service, "wind", || panic!("injected search panic"));
        let (caught, _) = wait_elsewhere(ticket);
        assert!(caught.is_err(), "the panic propagates out of wait");
        parked.release.send(()).unwrap();
        assert!(parked.ticket.wait().is_ok());
        assert!(service.submit("wind fleming").wait().is_ok());
        assert_eq!(service.shutdown().queries, 2);
    }

    #[test]
    fn concurrent_clients_claim_every_job_exactly_once() {
        let shared = Arc::new(CachedEngine::new(engine()));
        let service = QueryService::over(Arc::clone(&shared), 2);
        let queries = ["wind", "fleming", "wind fleming"];
        thread::scope(|s| {
            for client in 0..4 {
                let service = &service;
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..200 {
                        let raw = queries[(client + i) % queries.len()];
                        let ticket = service.submit(raw);
                        match i % 3 {
                            0 => assert_eq!(ticket.wait().unwrap().query.raw, raw),
                            1 => held.push((raw, ticket)),
                            _ => drop(ticket),
                        }
                        // Delayed waits: settle the held tickets in bursts.
                        if held.len() == 5 || i == 199 {
                            for (raw, ticket) in held.drain(..) {
                                assert_eq!(ticket.wait().unwrap().query.raw, raw);
                            }
                        }
                    }
                });
            }
        });
        let stats = service.shutdown();
        assert_eq!(stats.queries, 800, "every job ran once, dropped ones too");
        let snap = shared.metrics().snapshot();
        assert_eq!(snap.gauge(names::QUEUE_DEPTH), Some(0));
        let min = snap.gauge(&format!("{}_min", names::QUEUE_DEPTH));
        assert!(min.is_some_and(|m| m >= 0), "depth window min: {min:?}");
    }

    #[test]
    fn submit_resolves_like_direct_search() {
        let service = QueryService::new(CachedEngine::new(engine()), 2);
        let direct = service.engine().engine().search("wind fleming").unwrap();
        let served = service.submit("wind fleming").wait().unwrap();
        assert_eq!(direct.explanations.len(), served.explanations.len());
        for (a, b) in direct.explanations.iter().zip(&served.explanations) {
            assert_eq!(a.score, b.score);
            assert_eq!(a.statement, b.statement);
        }
    }

    #[test]
    fn batch_preserves_submission_order() {
        let service = QueryService::new(CachedEngine::new(engine()), 3);
        let queries = ["wind", "fleming", "wind fleming", "wind", "fleming"];
        let tickets = service.submit_batch(queries);
        for (raw, ticket) in queries.iter().zip(tickets) {
            let out = ticket.wait().unwrap();
            assert_eq!(&out.query.raw, raw, "ticket order matches submission");
            assert!(!out.explanations.is_empty());
        }
        // Every cache insert from the first batch is complete once all its
        // tickets resolved, so a second identical batch hits on every query
        // (within one batch, concurrent duplicates may race the insert).
        for t in service.submit_batch(queries) {
            t.wait().unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries, 10);
        assert!(
            stats.forward_cache.hits >= 5,
            "second pass is all lookups: {stats}"
        );
    }

    #[test]
    fn engine_errors_travel_to_the_ticket() {
        let service = QueryService::new(CachedEngine::new(engine()), 1);
        let err = service.submit("   ").wait().unwrap_err();
        assert!(matches!(err, ServeError::Engine(QuestError::EmptyQuery)));
    }

    #[test]
    fn shutdown_finishes_queued_work_and_kills_later_submissions() {
        let shared = Arc::new(CachedEngine::new(engine()));
        let service = QueryService::over(Arc::clone(&shared), 2);
        let tickets = service.submit_batch(["wind", "fleming", "wind"]);
        let stats = service.shutdown();
        assert_eq!(stats.queries, 3, "queued jobs drained before join");
        for t in tickets {
            assert!(t.wait().is_ok(), "tickets stay valid across shutdown");
        }
        // A fresh service over the same engine reuses the warm caches.
        let service = QueryService::over(shared, 1);
        let _ = service.submit("wind").wait().unwrap();
        assert!(service.stats().forward_cache.hits > 0);
    }

    #[test]
    fn feedback_through_shared_engine_affects_served_results() {
        let service = QueryService::new(CachedEngine::new(engine()), 2);
        let before = service.submit("wind fleming").wait().unwrap();
        assert!(before.feedback_configs.is_empty());
        let query = KeywordQuery::parse("wind fleming").unwrap();
        let best = before.explanations[0].clone();
        for _ in 0..5 {
            service.engine().feedback(&query, &best, true).unwrap();
        }
        let after = service.submit("wind fleming").wait().unwrap();
        assert!(!after.feedback_configs.is_empty());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let service = QueryService::new(CachedEngine::new(engine()), 0);
        assert_eq!(service.worker_count(), 1);
        assert!(service.submit("wind").wait().is_ok());
    }
}
