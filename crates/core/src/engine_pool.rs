//! Concurrent serving: a pool of worker engines over one shared table
//! store.
//!
//! The paper positions XSB as a *server* for deductive-database workloads;
//! [`ServerPool`] is that serving layer. It owns N OS threads, each
//! running a full [`Engine`] that consulted the same program, all attached
//! to one [`SharedTableStore`]. A tabled query answered by any worker
//! publishes its completed tables into the store, so every other worker
//! serves the same subgoal as a warm hit — the table is computed once
//! pool-wide, which is what makes throughput scale with workers on warm
//! workloads instead of multiplying the evaluation cost.
//!
//! The [`Engine`] itself is single-threaded by design (`Rc`/`RefCell`
//! interior state — the WAM does not want atomics on its hot paths), so
//! engines are constructed *inside* their worker threads and never move;
//! only jobs, results, and the `Arc`-held store cross thread boundaries.
//!
//! Every query is one streamed job. The worker runs it through the
//! engine's query driver, renders each solution with its own symbol
//! table inside the per-solution callback, and sends an
//! [`StreamItem::Answers`] batch every `batch` solutions, so the first
//! batch leaves before evaluation ends; the last partial batch is flushed
//! before the one terminal `Done` or `Error`. A query that fails after k
//! solutions therefore streams those k answers, then `Error`. A count job
//! decodes and sends no answers — only `Done` with the total.
//! [`ServerPool::try_submit_stream`] (admission-controlled) and
//! [`ServerPool::submit_count`] (the embedded path) both submit it; no
//! AST term ever crosses a thread, since its symbol ids belong to the
//! worker's table.
//!
//! Consistency: updates (assert/abolish/consult) are per-worker state, so
//! [`ServerPool::consult_all`] broadcasts program text to every worker.
//! Table invalidation is pool-wide automatically — a worker that asserts
//! bumps the store epoch through the dependency graph, and every other
//! worker drops the affected tables at its next query (the same call-time
//! snapshot semantics a single engine has had since cross-query caching).
//! A *non-broadcast* update (e.g. a query calling `assert/1` on one
//! worker) diverges that worker's database from the pool's common
//! program; the worker then detaches from answer sharing — it neither
//! publishes nor imports shared tables again, answering from its own EDB
//! — while the other workers keep sharing among themselves. Divergence
//! is not permanent: the next [`ServerPool::consult_all`] broadcast
//! re-establishes a common program, and the diverged worker resyncs
//! (shared-floor local tables invalidated, divergence flag cleared) and
//! rejoins sharing.
//!
//! Cold-miss coordination: when several workers race the *same* cold
//! subgoal, the store's claim/wait protocol (DESIGN.md §2.9) lets the
//! first claimant compute while the rest park and import the published
//! table — one compute pool-wide instead of N, with a bounded wait and
//! local-compute fallback so a stuck claimant can never wedge the pool.

use crate::durable::{note_ack, werr, Ack, DurableLog, Record};
use crate::engine::{Derived, Engine};
use crate::error::EngineError;
use crate::shared::SharedTableStore;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use xsb_obs::{Metrics, Stopwatch};
use xsb_syntax::SymbolTable;

/// Configuration for a [`ServerPool`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// number of worker engines (threads)
    pub workers: usize,
    /// per-query abstract-machine step limit (None = unlimited)
    pub step_limit: Option<u64>,
    /// table budget in answer-store cells, applied to each worker *and*
    /// the shared store (None = unbounded)
    pub table_budget: Option<u64>,
    /// admission control for [`ServerPool::try_submit_stream`]: maximum
    /// streamed jobs queued-or-running pool-wide before submissions are
    /// rejected with a typed [`PoolBusy`] (None = unbounded).
    /// [`ServerPool::submit_count`] is not admission-controlled — it is
    /// the embedded, trusted path.
    pub queue_depth: Option<usize>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            step_limit: None,
            table_budget: None,
            queue_depth: None,
        }
    }
}

/// One streamed answer: the query's named variables with their bindings
/// rendered to canonical text by the worker that computed them (symbol
/// ids are engine-local, so terms must be rendered before they cross an
/// engine boundary — a wire, or another engine's symbol table).
pub type WireAnswer = Vec<(String, String)>;

/// What a streamed submission does with its goal text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Evaluate the goal and stream every solution's bindings.
    Query,
    /// Evaluate to exhaustion, report only the solution count (the
    /// fail-loop fast path — no solutions are decoded or streamed).
    Count,
}

/// One event in a streamed job's reply channel, tagged with the caller's
/// request id. Per-job event order is `Answers* (Done | Error)`: answer
/// batches (queries only), then exactly one terminal event.
#[derive(Clone, Debug)]
pub enum StreamItem {
    /// A batch of rendered solutions, in solution order.
    Answers(Vec<WireAnswer>),
    /// Terminal: the job completed. `count` is the total solutions; the
    /// two timings are the job's queue wait and on-engine run time.
    Done {
        count: u64,
        queue_wait_ns: u64,
        run_ns: u64,
    },
    /// Terminal: the engine rejected the goal/program.
    Error(String),
}

/// Typed admission-control rejection from [`ServerPool::try_submit_stream`]:
/// the pool's bounded queue is full. The caller should shed the request
/// (e.g. answer `Busy` on the wire) rather than retry in a tight loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolBusy;

impl std::fmt::Display for PoolBusy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool admission queue full")
    }
}

enum Job {
    /// consult program text (the `Instant` is the submit time — the
    /// worker records the queue wait before running)
    Consult(String, Instant, Sender<Result<(), EngineError>>),
    /// snapshot this worker's metrics (also the join barrier: a reply
    /// proves the worker drained everything submitted before it)
    Metrics(Sender<Box<Metrics>>),
    /// run a query: answers are rendered as they are derived and go back
    /// in batches of `batch` over the shared `reply` channel, every event
    /// tagged with `tag` so many jobs can share one channel (the serving
    /// front-end's pipelining); `admitted` jobs hold an admission slot
    Stream {
        kind: StreamKind,
        goal: String,
        tag: u64,
        batch: usize,
        submitted: Instant,
        reply: Sender<(u64, StreamItem)>,
        admitted: bool,
    },
}

impl Job {
    /// Submit time for jobs that count toward queue-wait latency; `None`
    /// for the metrics barrier, which is bookkeeping rather than served
    /// work. Recording happens at exactly one site in the worker loop so
    /// no job kind can double-record or skip the sample.
    fn submitted(&self) -> Option<Instant> {
        match self {
            Job::Consult(_, t, _) => Some(*t),
            Job::Stream { submitted, .. } => Some(*submitted),
            Job::Metrics(_) => None,
        }
    }
}

/// A solution's named bindings rendered with the worker's symbol table.
fn render(d: &Derived<'_>) -> WireAnswer {
    d.bindings()
        .map(|(name, t)| (name.clone(), t.display(d.syms).to_string()))
        .collect()
}

struct Worker {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// A pool of worker engines serving queries concurrently over one shared
/// completed-table store. See the module docs for the sharing model.
pub struct ServerPool {
    workers: Vec<Worker>,
    store: Arc<SharedTableStore>,
    /// the pool's durable log, when built via the durable constructors
    log: Option<Arc<DurableLog>>,
    /// round-robin cursor for unpinned submissions
    next: std::sync::atomic::AtomicUsize,
    /// streamed jobs currently queued or running pool-wide; workers
    /// decrement after the terminal event, so the count is the admission
    /// queue's occupancy
    inflight: Arc<std::sync::atomic::AtomicUsize>,
    /// admission bound on `inflight` (None = unbounded)
    queue_depth: Option<usize>,
    /// WAL traffic the pool itself generates (`new_durable`'s `Program`
    /// record and `consult_all`'s `Broadcast` records), which no worker
    /// engine sees; folded into [`ServerPool::metrics`]
    wal_metrics: Mutex<Metrics>,
}

/// A pending solution count from [`ServerPool::submit_count`]. `wait()`
/// blocks until the owning worker finishes the job.
pub struct Ticket {
    rx: Receiver<(u64, StreamItem)>,
}

impl Ticket {
    /// Blocks until the job completes. If the worker thread died (engine
    /// panic), the error surfaces here rather than hanging.
    pub fn wait(self) -> Result<usize, EngineError> {
        match self.rx.recv() {
            Ok((_, StreamItem::Done { count, .. })) => Ok(count as usize),
            Ok((_, StreamItem::Error(msg))) => Err(EngineError::Other(msg)),
            // a count job streams no answers: only a terminal event arrives
            Ok((_, StreamItem::Answers(_))) => unreachable!("count job streamed answers"),
            Err(_) => Err(EngineError::Other("pool worker died".into())),
        }
    }
}

impl ServerPool {
    /// Builds a pool of `config.workers` engines, each consulting
    /// `program`, attached to a fresh shared store. Returns an error if
    /// the program fails to consult (reported by the first worker; all
    /// workers run identical text).
    pub fn new(program: &str, config: PoolConfig) -> Result<ServerPool, EngineError> {
        Self::build(Some(program.to_string()), config, None)
    }

    /// Builds a **durable** pool: `program` is appended to the (fresh)
    /// WAL as its base `Program` record, and every worker attaches to
    /// the log before consulting anything — workers load the program by
    /// replaying the log, so a fresh pool and a reopened one take the
    /// exact same code path. Errors if the log already holds a program
    /// (use [`ServerPool::reopen_log`] for that).
    pub fn new_durable(
        program: &str,
        config: PoolConfig,
        log: Arc<DurableLog>,
    ) -> Result<ServerPool, EngineError> {
        if !log.is_fresh() {
            return Err(EngineError::Other(
                "durable log already holds a program; use ServerPool::reopen".into(),
            ));
        }
        let sw = Stopwatch::new();
        let ack = log
            .append_record(
                &Record::Program {
                    text: program.to_string(),
                },
                &SymbolTable::new(),
                true,
            )
            .map_err(werr)?;
        let pool = Self::build(None, config, Some(log))?;
        pool.note_wal_commit(&ack, sw);
        Ok(pool)
    }

    /// Reopens a durable pool from the WAL at `path`: each worker
    /// replays the log (program, broadcasts, and its own worker-tagged
    /// mutations) back to the last committed state. A worker whose
    /// replay included worker-local mutations rejoins the pool already
    /// marked diverged, exactly as it was before the crash.
    pub fn reopen(path: &std::path::Path, config: PoolConfig) -> Result<ServerPool, EngineError> {
        let log = Arc::new(DurableLog::open_path(path).map_err(werr)?);
        Self::reopen_log(log, config)
    }

    /// Like [`ServerPool::reopen`] but over an already-open log (any
    /// [`xsb_storage::Vfs`] backend — used by the fault-injection tests).
    pub fn reopen_log(log: Arc<DurableLog>, config: PoolConfig) -> Result<ServerPool, EngineError> {
        if log.is_fresh() {
            return Err(EngineError::Other(
                "durable log holds no program; use ServerPool::new_durable".into(),
            ));
        }
        Self::build(None, config, Some(log))
    }

    fn build(
        program: Option<String>,
        config: PoolConfig,
        log: Option<Arc<DurableLog>>,
    ) -> Result<ServerPool, EngineError> {
        let store = Arc::new(SharedTableStore::new());
        if let Some(b) = config.table_budget {
            store.set_budget(Some(b));
        }
        let nworkers = config.workers.max(1);
        let mut workers = Vec::with_capacity(nworkers);
        let inflight = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (ready_tx, ready_rx) = channel::<Result<(), EngineError>>();
        for wid in 0..nworkers {
            let (tx, rx) = channel::<Job>();
            let program = program.clone();
            let log = log.clone();
            let config = config.clone();
            let store = store.clone();
            let ready = ready_tx.clone();
            let inflight = inflight.clone();
            let handle = std::thread::spawn(move || {
                // the engine lives entirely inside this thread: Engine is
                // intentionally !Send (Rc/RefCell on the WAM hot paths)
                let mut e = Engine::new();
                let mut recovered_local_ops = false;
                let setup = match (&log, &program) {
                    (Some(l), _) => {
                        e.attach_wal(l.clone(), wid as u16);
                        // replay consults the Program record and re-applies
                        // this worker's committed mutations (plus broadcasts)
                        e.replay_wal().map(|rep| {
                            recovered_local_ops = rep.own_worker_ops > 0;
                        })
                    }
                    (None, Some(p)) => e.consult(p),
                    (None, None) => Err(EngineError::Other("pool built with no program".into())),
                };
                let ok = setup.is_ok();
                if ok {
                    e.set_step_limit(config.step_limit);
                    e.set_table_budget(config.table_budget);
                    e.set_pool_workers(nworkers as u32);
                    // attach after consulting: everything in the program
                    // is below the sharing floors
                    e.attach_shared_store(store);
                    if recovered_local_ops {
                        // replayed worker-local mutations mean this EDB
                        // already differs from its siblings' — rejoin in
                        // the diverged state the crash interrupted
                        e.tables.force_diverge();
                    }
                }
                let _ = ready.send(setup);
                if !ok {
                    return;
                }
                while let Ok(job) = rx.recv() {
                    // single queue-wait recording site: every timed job
                    // kind samples exactly once, the metrics barrier never
                    let queue_ns = job.submitted().map(|s| s.elapsed().as_nanos() as u64);
                    if let Some(ns) = queue_ns {
                        e.obs.metrics.queue_wait.record(ns);
                    }
                    match job {
                        Job::Consult(src, _, reply) => {
                            // consult_all is a broadcast: every worker
                            // applies the same update, so it does not
                            // diverge any worker's EDB from the pool —
                            // and it re-attaches a previously diverged
                            // worker (see `Engine::consult_broadcast`)
                            let sw = Stopwatch::new();
                            let r = e.consult_broadcast(&src);
                            e.obs.metrics.run_time.record(sw.elapsed_nanos());
                            let _ = reply.send(r);
                        }
                        Job::Stream {
                            kind,
                            goal,
                            tag,
                            batch,
                            reply,
                            admitted,
                            ..
                        } => {
                            let sw = Stopwatch::new();
                            let batch = batch.max(1);
                            let mut pending: Vec<WireAnswer> = Vec::new();
                            let r = e.drive(&goal, |d| {
                                if kind == StreamKind::Query {
                                    pending.push(render(d));
                                    if pending.len() == batch {
                                        // a full batch: size the next one
                                        let full = std::mem::replace(
                                            &mut pending,
                                            Vec::with_capacity(batch),
                                        );
                                        let _ = reply.send((tag, StreamItem::Answers(full)));
                                    }
                                }
                                true
                            });
                            if !pending.is_empty() {
                                let _ = reply.send((tag, StreamItem::Answers(pending)));
                            }
                            let run_ns = sw.elapsed_nanos();
                            e.obs.metrics.run_time.record(run_ns);
                            let item = match r {
                                Ok(count) => StreamItem::Done {
                                    count,
                                    queue_wait_ns: queue_ns.unwrap_or(0),
                                    run_ns,
                                },
                                Err(err) => StreamItem::Error(err.to_string()),
                            };
                            // release the admission slot before the
                            // terminal event: a caller that sees Done must
                            // be able to submit again without a spurious Busy
                            if admitted {
                                inflight.fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
                            }
                            let _ = reply.send((tag, item));
                        }
                        Job::Metrics(reply) => {
                            let _ = reply.send(Box::new(e.metrics().clone()));
                        }
                    }
                }
            });
            workers.push(Worker {
                tx,
                handle: Some(handle),
            });
        }
        drop(ready_tx);
        // surface the first consult failure (if any) as the pool's error
        for _ in 0..nworkers {
            match ready_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(EngineError::Other("pool worker died during setup".into())),
            }
        }
        Ok(ServerPool {
            workers,
            store,
            log,
            next: std::sync::atomic::AtomicUsize::new(0),
            inflight,
            queue_depth: config.queue_depth,
            wal_metrics: Mutex::new(Metrics::default()),
        })
    }

    /// Counts one pool-level commit-point append in `wal_metrics`.
    fn note_wal_commit(&self, ack: &Ack, sw: Stopwatch) {
        let mut m = self.wal_metrics.lock().expect("no panic under this lock");
        note_ack(&mut m, ack, Some(sw));
    }

    /// The pool's durable log, if it was built with one.
    pub fn wal(&self) -> Option<&Arc<DurableLog>> {
        self.log.as_ref()
    }

    /// Number of worker engines.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The pool's shared completed-table store.
    pub fn store(&self) -> &Arc<SharedTableStore> {
        &self.store
    }

    fn pick(&self, worker: Option<usize>) -> &Worker {
        let i = match worker {
            Some(i) => i % self.workers.len(),
            None => {
                self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % self.workers.len()
            }
        };
        &self.workers[i]
    }

    /// Submits a counting query (solutions are not decoded — the
    /// fail-loop fast path) round-robin or pinned to worker `worker % N`.
    pub fn submit_count(&self, q: &str, worker: Option<usize>) -> Ticket {
        let (reply, rx) = channel();
        let job = Job::Stream {
            kind: StreamKind::Count,
            goal: q.to_string(),
            tag: 0,
            batch: 1,
            submitted: Instant::now(),
            reply,
            admitted: false,
        };
        let _ = self.pick(worker).tx.send(job);
        Ticket { rx }
    }

    /// Submits a streamed job under admission control: if accepted, the
    /// job's events arrive on `reply` tagged with `tag` (many jobs may
    /// share one channel — per-job order is `Answers* (Done | Error)`);
    /// if the pool's bounded queue (`PoolConfig::queue_depth`) is full,
    /// returns the typed [`PoolBusy`] rejection immediately and sends
    /// nothing. This is the serving front-end's submission path: it never
    /// blocks and never wedges the caller behind a deep queue.
    pub fn try_submit_stream(
        &self,
        kind: StreamKind,
        goal: &str,
        tag: u64,
        batch: usize,
        reply: Sender<(u64, StreamItem)>,
    ) -> Result<(), PoolBusy> {
        use std::sync::atomic::Ordering;
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if let Some(depth) = self.queue_depth {
            if prev >= depth {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                return Err(PoolBusy);
            }
        }
        let job = Job::Stream {
            kind,
            goal: goal.to_string(),
            tag,
            batch,
            submitted: Instant::now(),
            reply,
            admitted: true,
        };
        if self.pick(None).tx.send(job).is_err() {
            // worker died: release the slot; the caller sees the closed
            // reply channel (no terminal event will ever arrive)
            self.inflight.fetch_sub(1, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Streamed jobs currently queued or running (admission occupancy).
    pub fn inflight(&self) -> usize {
        self.inflight.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Convenience: count solutions on one worker.
    pub fn count(&self, q: &str) -> Result<usize, EngineError> {
        self.submit_count(q, None).wait()
    }

    /// Consults program text on **every** worker (each engine owns its
    /// program database). This is the supported way to update the pool's
    /// data: as a broadcast it keeps all EDBs identical, so no worker is
    /// marked diverged (contrast a query calling `assert/1`, which
    /// detaches its worker from answer sharing). Predicates added here
    /// are evaluated per-worker but their tables stay worker-local — the
    /// sharing floors are fixed at pool construction. Returns the first
    /// error, if any.
    pub fn consult_all(&self, src: &str) -> Result<(), EngineError> {
        // durable pools log the broadcast text once at pool level; the
        // per-worker consult legs run with per-mutation logging
        // suspended (see `Engine::consult_broadcast`)
        if let Some(log) = &self.log {
            let sw = Stopwatch::new();
            let ack = log
                .append_record(
                    &Record::Broadcast {
                        text: src.to_string(),
                    },
                    &SymbolTable::new(),
                    true,
                )
                .map_err(werr)?;
            self.note_wal_commit(&ack, sw);
        }
        let mut pending = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let (reply, rx) = channel();
            let _ =
                w.tx.send(Job::Consult(src.to_string(), Instant::now(), reply));
            pending.push(rx);
        }
        for rx in pending {
            rx.recv()
                .map_err(|_| EngineError::Other("pool worker died".into()))??;
        }
        Ok(())
    }

    /// Waits until every worker has drained all jobs submitted so far.
    pub fn join(&self) {
        let _ = self.metrics();
    }

    /// Aggregated metrics across all workers: counters and timers are
    /// summed, memory gauges take the pool-wide high water mark. Doubles
    /// as a barrier (each worker replies only after draining its queue).
    pub fn metrics(&self) -> Metrics {
        let mut pending = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let (reply, rx) = channel();
            let _ = w.tx.send(Job::Metrics(reply));
            pending.push(rx);
        }
        let mut total = self
            .wal_metrics
            .lock()
            .expect("no panic under this lock")
            .clone();
        for rx in pending {
            if let Ok(m) = rx.recv() {
                total.merge(&m);
            }
        }
        total
    }
}

impl Drop for ServerPool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            // closing the job channel is the shutdown signal
            let (tx, _) = channel();
            drop(std::mem::replace(&mut w.tx, tx));
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
        // workers have drained: push any group-commit window remainder
        // to stable storage before the log handle goes away
        if let Some(log) = &self.log {
            let _ = log.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsb_obs::Counter;

    const PATH: &str = r#"
        :- table path/2.
        path(X,Y) :- edge(X,Y).
        path(X,Y) :- path(X,Z), edge(Z,Y).
        edge(1,2). edge(2,3). edge(3,1).
    "#;

    fn pool(workers: usize) -> ServerPool {
        ServerPool::new(
            PATH,
            PoolConfig {
                workers,
                ..PoolConfig::default()
            },
        )
        .expect("program consults")
    }

    #[test]
    fn queries_round_robin_and_agree() {
        let p = pool(3);
        assert_eq!(p.workers(), 3);
        let tickets: Vec<_> = (0..6).map(|_| p.submit_count("path(1, X)", None)).collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap(), 3);
        }
    }

    #[test]
    fn table_computed_once_serves_all_workers() {
        let p = pool(4);
        // cold: one worker computes and publishes
        assert_eq!(p.submit_count("path(X, Y)", Some(0)).wait().unwrap(), 9);
        p.join();
        assert_eq!(p.store().len(), 1, "completed table published");
        // warm: every other worker imports instead of recomputing
        for w in 1..4 {
            assert_eq!(p.submit_count("path(X, Y)", Some(w)).wait().unwrap(), 9);
        }
        let m = p.metrics();
        assert_eq!(m.get(Counter::SharedTablePublishes), 1);
        assert_eq!(m.get(Counter::SharedTableHits), 3);
        // workers 1..4 never ran the generator for path/2's full variant:
        // one miss pool-wide
        assert_eq!(m.get(Counter::TableMisses), 1);
    }

    #[test]
    fn invalidation_propagates_across_workers() {
        let p = ServerPool::new(
            ":- table path/2.\n:- dynamic edge/2.\n\
             path(X,Y) :- edge(X,Y).\n\
             path(X,Y) :- path(X,Z), edge(Z,Y).\n\
             edge(1,2). edge(2,3).",
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        // worker 0 computes and publishes the table
        assert_eq!(p.submit_count("path(1, X)", Some(0)).wait().unwrap(), 2);
        p.join();
        assert_eq!(p.store().len(), 1);
        // a data update is broadcast to every worker's EDB; each broadcast
        // assert also bumps the store epoch, dropping the published table
        p.consult_all("edge(3,4).").unwrap();
        assert!(p.store().is_empty(), "stale shared table invalidated");
        // both workers recompute against the new data — including worker
        // 0, whose *published* table would otherwise have served stale
        assert_eq!(p.submit_count("path(1, X)", Some(0)).wait().unwrap(), 3);
        assert_eq!(p.submit_count("path(1, X)", Some(1)).wait().unwrap(), 3);
    }

    #[test]
    fn single_worker_assert_detaches_that_worker_from_sharing() {
        let p = ServerPool::new(
            ":- table path/2.\n:- dynamic edge/2.\n\
             path(X,Y) :- edge(X,Y).\n\
             path(X,Y) :- path(X,Z), edge(Z,Y).\n\
             edge(1,2). edge(2,3).",
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        // worker 0 computes and publishes the table
        assert_eq!(p.submit_count("path(1, X)", Some(0)).wait().unwrap(), 2);
        p.join();
        assert_eq!(p.store().len(), 1);
        // a NON-broadcast update: a query on worker 0 alone asserts a new
        // edge — its EDB now differs from worker 1's
        assert_eq!(
            p.submit_count("assert(edge(3,4))", Some(0)).wait().unwrap(),
            1
        );
        p.join();
        assert!(p.store().is_empty(), "dependent shared tables dropped");
        // worker 1 recomputes from its own (unchanged) EDB and keeps
        // sharing with the rest of the pool
        assert_eq!(p.submit_count("path(1, X)", Some(1)).wait().unwrap(), 2);
        p.join();
        assert_eq!(p.store().len(), 1, "undiverged worker still publishes");
        // worker 0 answers from its own diverged EDB: it must neither
        // import worker 1's frame (2 answers — stale relative to worker
        // 0's database) nor republish its 3-answer table into the pool
        assert_eq!(p.submit_count("path(1, X)", Some(0)).wait().unwrap(), 3);
        p.join();
        assert_eq!(p.store().len(), 1, "diverged worker published nothing");
        let m = p.metrics();
        assert_eq!(m.get(Counter::SharedTablePublishes), 2);
        assert_eq!(
            m.get(Counter::SharedTableHits),
            0,
            "diverged worker never imported the inconsistent frame"
        );
    }

    #[test]
    fn diverged_worker_rejoins_after_broadcast() {
        let p = ServerPool::new(
            ":- table path/2.\n:- dynamic edge/2.\n\
             path(X,Y) :- edge(X,Y).\n\
             path(X,Y) :- path(X,Z), edge(Z,Y).\n\
             edge(1,2). edge(2,3).",
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        // a query-level assert on worker 0 alone diverges it from the pool
        assert_eq!(
            p.submit_count("assert(edge(3,4))", Some(0)).wait().unwrap(),
            1
        );
        p.join();
        // broadcast the same fact: every worker now has edge(3,4) (worker
        // 0 holds a duplicate clause — harmless under tabled answer
        // dedup), so the pool's program is coherent again and the
        // broadcast re-attaches worker 0 to sharing
        p.consult_all("edge(3,4).").unwrap();
        // the rejoined worker publishes again ...
        assert_eq!(p.submit_count("path(1, X)", Some(0)).wait().unwrap(), 3);
        p.join();
        assert_eq!(p.store().len(), 1, "rejoined worker publishes again");
        // ... and its frame serves the other worker as a warm import
        assert_eq!(p.submit_count("path(1, X)", Some(1)).wait().unwrap(), 3);
        p.join();
        let m = p.metrics();
        assert_eq!(m.get(Counter::SharedTablePublishes), 1);
        assert_eq!(
            m.get(Counter::SharedTableHits),
            1,
            "other workers import the rejoined worker's table"
        );
    }

    #[test]
    fn queue_wait_samples_once_per_timed_job() {
        let p = pool(2);
        // 3 counts = 3 timed jobs; consult_all broadcasts one timed
        // consult job to each of the 2 workers = 2 more; the metrics
        // barrier jobs must not sample at all
        for q in ["path(1, X)", "path(2, X)", "path(3, X)"] {
            assert_eq!(p.submit_count(q, None).wait().unwrap(), 3);
        }
        p.consult_all("extra(a).").unwrap();
        p.join();
        let m = p.metrics();
        assert_eq!(m.queue_wait.count(), 5, "3 queries + 2 consult legs");
        assert_eq!(m.run_time.count(), 5);
    }

    #[test]
    fn consult_all_reaches_every_worker() {
        let p = pool(2);
        p.consult_all("extra(a). extra(b).").unwrap();
        for w in 0..2 {
            assert_eq!(p.submit_count("extra(X)", Some(w)).wait().unwrap(), 2);
        }
    }

    #[test]
    fn pool_metrics_count_consult_all_wal_traffic() {
        use xsb_obs::Counter;
        const N: u64 = 5;
        let log = Arc::new(DurableLog::open(Box::new(xsb_storage::MemVfs::new())).unwrap());
        assert_eq!(log.group_window_us(), 0, "every commit point fsyncs");
        let durable = ServerPool::new_durable(PATH, PoolConfig::default(), log).unwrap();
        let plain = pool(2);
        let m = durable.metrics();
        assert_eq!(m.get(Counter::WalAppends), 1, "the Program record");
        assert_eq!(m.get(Counter::WalFsyncs), 1);
        for i in 0..N {
            let fact = format!("extra({i}).");
            durable.consult_all(&fact).unwrap();
            plain.consult_all(&fact).unwrap();
        }
        let m = durable.metrics();
        assert_eq!(m.get(Counter::WalAppends), 1 + N, "one Broadcast per call");
        assert_eq!(m.get(Counter::WalFsyncs), 1 + N, "one fsync per commit");
        assert_eq!(m.commit_latency.count(), 1 + N, "each is a commit point");
        let m = plain.metrics();
        assert_eq!(m.get(Counter::WalAppends), 0);
        assert_eq!(m.get(Counter::WalFsyncs), 0);
    }

    #[test]
    fn pool_workers_builtin_reports_size() {
        let p = pool(3);
        assert_eq!(
            p.count("pool_workers(3)").unwrap(),
            1,
            "pool_workers/1 reports the worker count"
        );
    }

    #[test]
    fn pool_metrics_include_latency_histograms() {
        let p = pool(2);
        for _ in 0..4 {
            assert_eq!(p.count("path(1, X)").unwrap(), 3);
        }
        let m = p.metrics();
        // every job passes through the queue-wait and run-time histograms
        assert_eq!(m.queue_wait.count(), 4);
        assert_eq!(m.run_time.count(), 4);
        assert_eq!(m.query_latency.count(), 4);
        assert!(m.run_time.p99() >= m.run_time.p50());
        // shared-store sync runs before (and publish after) each query
        assert_eq!(m.shared_sync.count(), 4);
        assert_eq!(m.shared_publish.count(), 4);
    }

    #[test]
    fn streamed_query_batches_and_terminates_in_order() {
        let p = pool(2);
        let (tx, rx) = channel();
        // 3 answers, batch 2 => two Answers frames then Done
        p.try_submit_stream(StreamKind::Query, "path(1, X)", 7, 2, tx)
            .unwrap();
        let mut answers = Vec::new();
        let mut done = None;
        while done.is_none() {
            let (tag, item) = rx.recv().unwrap();
            assert_eq!(tag, 7);
            match item {
                StreamItem::Answers(batch) => {
                    assert!(batch.len() <= 2, "batch bound respected");
                    answers.extend(batch);
                }
                StreamItem::Done { count, .. } => done = Some(count),
                StreamItem::Error(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(done, Some(3));
        assert_eq!(answers.len(), 3);
        // rendered bindings: the query variable X bound to each cycle node
        let mut bound: Vec<String> = answers
            .iter()
            .map(|a| {
                assert_eq!(a.len(), 1);
                assert_eq!(a[0].0, "X");
                a[0].1.clone()
            })
            .collect();
        bound.sort();
        assert_eq!(bound, ["1", "2", "3"]);
        assert_eq!(p.inflight(), 0, "terminal event released the slot");
    }

    #[test]
    fn streamed_count_reports_total_without_answers() {
        let p = pool(1);
        let (tx, rx) = channel();
        p.try_submit_stream(StreamKind::Count, "path(X, Y)", 1, 64, tx)
            .unwrap();
        match rx.recv().unwrap() {
            (1, StreamItem::Done { count, .. }) => assert_eq!(count, 9),
            other => panic!("expected Done, got {other:?}"),
        }
        assert!(rx.recv().is_err(), "count streams no answer batches");
    }

    #[test]
    fn streamed_error_is_terminal() {
        let p = pool(1);
        let (tx, rx) = channel();
        p.try_submit_stream(StreamKind::Query, "no_such_pred(X)", 9, 8, tx)
            .unwrap();
        match rx.recv().unwrap() {
            (9, StreamItem::Error(_)) => {}
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(p.inflight(), 0);

        // an error after k solutions: the k answers already derived are
        // flushed as a partial batch, then the terminal Error
        let (tx, rx) = channel();
        p.try_submit_stream(
            StreamKind::Query,
            "member(X, [1, a]), Y is X + 1",
            10,
            8,
            tx,
        )
        .unwrap();
        match rx.recv().unwrap() {
            (10, StreamItem::Answers(batch)) => assert_eq!(
                batch,
                [[
                    ("X".to_string(), "1".to_string()),
                    ("Y".to_string(), "2".to_string())
                ]]
            ),
            other => panic!("expected one Answers batch, got {other:?}"),
        }
        match rx.recv().unwrap() {
            (10, StreamItem::Error(_)) => {}
            other => panic!("expected Error, got {other:?}"),
        }
        assert!(rx.recv().is_err(), "Error is the last event");
        assert_eq!(p.inflight(), 0);
    }

    #[test]
    fn bounded_queue_rejects_overflow_with_typed_busy() {
        // a 64-node cycle: path(X,Y) computes/serves 4096 answers, so the
        // wall of gate jobs below holds the single worker busy for
        // milliseconds — submissions (microseconds) cannot race past it
        let mut heavy = String::from(
            ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n",
        );
        for i in 1..=64 {
            heavy.push_str(&format!("edge({i},{}).\n", if i == 64 { 1 } else { i + 1 }));
        }
        let p = ServerPool::new(
            &heavy,
            PoolConfig {
                workers: 1,
                queue_depth: Some(2),
                ..PoolConfig::default()
            },
        )
        .unwrap();
        // stall the single worker so streamed submissions pile up
        let gates: Vec<_> = (0..8)
            .map(|_| p.submit_count("path(X, Y)", Some(0)))
            .collect();
        let (tx, rx) = channel();
        let mut accepted = 0;
        let mut busy = 0;
        for tag in 0..6 {
            match p.try_submit_stream(StreamKind::Count, "path(1, X)", tag, 8, tx.clone()) {
                Ok(()) => accepted += 1,
                Err(PoolBusy) => busy += 1,
            }
        }
        assert_eq!(accepted, 2, "exactly queue_depth submissions admitted");
        assert_eq!(busy, 4, "overflow rejected with typed Busy");
        for g in gates {
            assert_eq!(g.wait().unwrap(), 4096);
        }
        drop(tx);
        let done = rx
            .iter()
            .filter(|(_, i)| matches!(i, StreamItem::Done { .. }))
            .count();
        assert_eq!(done, 2, "admitted jobs all complete");
        assert_eq!(p.inflight(), 0, "slots all released");
    }

    #[test]
    fn consult_error_surfaces_at_construction() {
        let r = ServerPool::new(
            ":- bogus_directive(nope).",
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
        );
        assert!(r.is_err());
    }
}
