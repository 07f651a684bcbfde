//! Set-up, the closed-loop client, and the entry-point ladder.
//!
//! One client, one connection, one request in flight: callers of a
//! database wait for their reply, so the loop is closed. The same seeded
//! stream is driven through up to five entry points ("rungs"): `remote`
//! (`RemoteConn` over loopback TCP), `embedded` (the pool's streaming
//! API, no socket), `engine` (a private `Engine`, no pool), `parse`
//! (syntax only) and `codec` (wire frames only). The untraced run uses
//! the first rung alone and yields the end-to-end numbers.

use crate::gen::{self, Answer, Kind, Op, Spec, Stream};
use crate::stats::{mean, median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsb_core::{DurableLog, Engine, PoolConfig, ServerPool, StreamItem, StreamKind};
use xsb_obs::{Counter, Metrics};
use xsb_server::{Frame, Outcome, RemoteConn, Server, ServerConfig};
use xsb_storage::{FileVfs, Wal};
use xsb_syntax::{parse_query, parse_term_str, HilogEncoder, OpTable, SymbolTable};

/// The sandbox has two cores; the pool gets one worker for each.
const WORKERS: usize = 2;
/// Solutions per `Answers` frame (the server's default).
const BATCH: usize = 64;
/// Group-commit window while set-up builds the log; the measured phase
/// uses window 0: one fsync for every commit.
const BUILD_WINDOW_US: u64 = 1000;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub struct Served {
    pub server: Server,
    pub wal_path: Option<PathBuf>,
    pub recovery_ms: f64,
}

fn pool_config(spec: &Spec) -> PoolConfig {
    PoolConfig {
        workers: WORKERS,
        table_budget: spec.table_budget,
        ..PoolConfig::default()
    }
}

/// Everything before warm-up: program generation, consult and compile on
/// every worker, and for `update_churn` building a log of
/// `spec.prebuilt_log` records and recovering the pool from it.
fn set_up(spec: &Spec, seed: u64, dir: &Path) -> Res<Served> {
    let program = gen::program(spec, seed);
    let config = pool_config(spec);
    let mut recovery_ms = 0.0;
    let mut wal_path = None;
    let pool = if spec.kind == Kind::UpdateChurn {
        let path = dir.join(format!("{}.wal", spec.name));
        let _ = std::fs::remove_file(&path);
        let log = Arc::new(DurableLog::open_path(&path).map_err(err("open log"))?);
        log.set_group_window_us(BUILD_WINDOW_US);
        let building =
            ServerPool::new_durable(&program, config.clone(), log).map_err(err("durable pool"))?;
        for i in 0..spec.prebuilt_log as u64 {
            let (a, b) = gen::fresh_edge(i);
            building
                .consult_all(&format!("edge({a},{b})."))
                .map_err(err("build log"))?;
        }
        drop(building);
        let reopening = Instant::now();
        let pool = ServerPool::reopen(&path, config).map_err(err("reopen"))?;
        recovery_ms = reopening.elapsed().as_secs_f64() * 1e3;
        pool.wal()
            .expect("reopened pool is durable")
            .set_group_window_us(0);
        wal_path = Some(path);
        pool
    } else {
        ServerPool::new(&program, config).map_err(err("pool"))?
    };
    let server_config = ServerConfig {
        pool: pool_config(spec),
        batch: BATCH,
        read_timeout: None,
    };
    let server = Server::start_on_pool(Arc::new(pool), server_config).map_err(err("server"))?;
    Ok(Served {
        server,
        wal_path,
        recovery_ms,
    })
}

/// Repeats set-up after the run until it has been timed `spec.setup_reps`
/// times, and while it is cheap up to 25 times or half a second, and
/// returns the median in seconds: a millisecond set-up timed three times
/// varies by a quarter from run to run, timed 25 times it does not. The
/// repeats come last because memory freed by a dropped pool is not all
/// reused by the next, which would blur `peak_rss_mb`.
fn median_set_up(spec: &Spec, seed: u64, dir: &Path, first: f64) -> Res<f64> {
    let mut times = vec![first];
    while times.len() < spec.setup_reps
        || (spec.setup_reps > 1 && times.len() < 25 && times.iter().sum::<f64>() < 0.5)
    {
        let started = Instant::now();
        let served = set_up(spec, seed, dir)?;
        times.push(started.elapsed().as_secs_f64());
        served.server.shutdown();
        if let Some(path) = &served.wal_path {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(median(&times))
}

/// What one call at an entry point returned, before it is checked.
struct Raw {
    /// solution count and rendered answers; `None`: Busy, Error or a dead
    /// transport
    reply: Option<(u64, Vec<Answer>)>,
    /// queue wait and run time, where the entry point reports them
    done: Option<(u64, u64)>,
}

const FAILED: Raw = Raw {
    reply: None,
    done: None,
};

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub lat_ns: u64,
    pub queue_wait_ns: u64,
    pub run_ns: u64,
    pub write: bool,
    pub ok: bool,
    pub traced: bool,
}

fn check(op: &Op, reply: &Option<(u64, Vec<Answer>)>) -> bool {
    let Some((count, answers)) = reply else {
        return false;
    };
    match op {
        Op::Count { expect, .. } => count == expect,
        Op::Query {
            expect, checksum, ..
        } => {
            count == expect
                && answers.len() as u64 == *expect
                && gen::answers_checksum(answers) == *checksum
        }
        Op::Consult { .. } => true,
    }
}

/// Drives `count` ops of the stream through one entry point, one at a
/// time. Latency is the call alone; checking the reply follows it.
fn drive(
    call: &mut dyn FnMut(&Op) -> Raw,
    stream: &mut Stream,
    count: usize,
    span: (&'static str, &'static str),
    first_req: u64,
    mut tracer: Option<&mut Tracer>,
    samples: &mut Vec<Sample>,
) {
    for i in 0..count {
        let op = stream.next_op();
        let start = Instant::now();
        let raw = call(&op);
        let end = Instant::now();
        let ok = check(&op, &raw.reply);
        let (queue_wait_ns, run_ns) = raw.done.unwrap_or((0, 0));
        if let Some(t) = tracer.as_deref_mut() {
            t.record(span, first_req + i as u64, start, end, !ok, raw.done);
        }
        samples.push(Sample {
            lat_ns: (end - start).as_nanos() as u64,
            queue_wait_ns,
            run_ns,
            write: matches!(op, Op::Consult { .. }),
            ok,
            traced: tracer.is_some(),
        });
    }
}

fn remote_call(conn: &mut RemoteConn, op: &Op) -> Raw {
    let sent = match op {
        Op::Count { goal, .. } => conn.send_count(goal),
        Op::Query { goal, .. } => conn.send_query(goal),
        Op::Consult { text } => conn.send_consult(text),
    };
    match sent.and_then(|id| conn.wait(id)) {
        Ok(Outcome::Complete {
            answers,
            completion,
        }) => Raw {
            reply: Some((completion.count, answers)),
            done: Some((completion.queue_wait_ns, completion.run_ns)),
        },
        _ => FAILED,
    }
}

fn embedded_call(pool: &ServerPool, op: &Op) -> Raw {
    let (kind, goal) = match op {
        Op::Count { goal, .. } => (StreamKind::Count, goal),
        Op::Query { goal, .. } => (StreamKind::Query, goal),
        Op::Consult { text } => {
            return match pool.consult_all(text) {
                Ok(()) => Raw {
                    reply: Some((0, Vec::new())),
                    done: None,
                },
                Err(_) => FAILED,
            }
        }
    };
    let (tx, rx) = channel();
    if pool.try_submit_stream(kind, goal, 0, BATCH, tx).is_err() {
        return FAILED;
    }
    let mut answers = Vec::new();
    loop {
        match rx.recv() {
            Ok((_, StreamItem::Answers(mut batch))) => answers.append(&mut batch),
            Ok((
                _,
                StreamItem::Done {
                    count,
                    queue_wait_ns,
                    run_ns,
                },
            )) => {
                return Raw {
                    reply: Some((count, answers)),
                    done: Some((queue_wait_ns, run_ns)),
                }
            }
            _ => return FAILED,
        }
    }
}

fn engine_call(engine: &mut Engine, op: &Op) -> Raw {
    let reply = match op {
        Op::Count { goal, .. } => engine.count(goal).ok().map(|n| (n as u64, Vec::new())),
        // rendered as a pool worker renders them, so the rungs compare
        Op::Query { goal, .. } => engine.query(goal).ok().map(|sols| {
            let answers: Vec<Answer> = sols
                .iter()
                .map(|s| {
                    s.bindings
                        .iter()
                        .map(|(n, t)| (n.clone(), t.display(&engine.syms).to_string()))
                        .collect()
                })
                .collect();
            (answers.len() as u64, answers)
        }),
        Op::Consult { text } => engine.consult(text).ok().map(|()| (0, Vec::new())),
    };
    Raw { reply, done: None }
}

fn private_engine(spec: &Spec, seed: u64) -> Res<Engine> {
    let mut engine = Engine::new();
    engine
        .consult(&gen::program(spec, seed))
        .map_err(err("private engine"))?;
    engine.set_table_budget(spec.table_budget);
    Ok(engine)
}

/// `parse` rung: `parse_query` + `HilogEncoder::encode` on the goal texts.
fn parse_rung(stream: &mut Stream, count: usize, first_req: u64, tracer: &mut Tracer) -> f64 {
    let mut syms = SymbolTable::new();
    let ops = OpTable::standard();
    let hilog = HilogEncoder::new();
    let mut total = Duration::ZERO;
    let mut goals = 0u32;
    for i in 0..count {
        let (Op::Count { goal, .. } | Op::Query { goal, .. }) = stream.next_op() else {
            continue;
        };
        let start = Instant::now();
        let parsed = parse_query(&goal, &mut syms, &ops);
        let encoded: Option<Vec<_>> = parsed
            .as_ref()
            .ok()
            .map(|q| q.goals.iter().map(|g| hilog.encode(g)).collect());
        let end = Instant::now();
        std::hint::black_box(&encoded);
        tracer.record(
            ("syntax.parse", "parse"),
            first_req + i as u64,
            start,
            end,
            encoded.is_none(),
            None,
        );
        total += end - start;
        goals += 1;
    }
    total.as_secs_f64() * 1e6 / goals.max(1) as f64
}

/// `codec` rung: `Frame::encode` + `Frame::decode` on the frames one
/// request puts on the wire, both directions. Returns ns and bytes per
/// request.
fn codec_rung(
    spec: &Spec,
    stream: &mut Stream,
    count: usize,
    first_req: u64,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let bindings = gen::cycle_answers(spec.n);
    let mut total = Duration::ZERO;
    let mut bytes = 0usize;
    for i in 0..count {
        let id = first_req + i as u64;
        let op = stream.next_op();
        let mut frames = Vec::new();
        let expect = match &op {
            Op::Count { goal, expect } => {
                frames.push(Frame::Count {
                    id,
                    goal: goal.clone(),
                });
                *expect
            }
            Op::Query { goal, expect, .. } => {
                frames.push(Frame::Query {
                    id,
                    goal: goal.clone(),
                });
                for batch in bindings.chunks(BATCH) {
                    frames.push(Frame::Answers {
                        id,
                        answers: batch.to_vec(),
                    });
                }
                *expect
            }
            Op::Consult { text } => {
                frames.push(Frame::Consult {
                    id,
                    text: text.clone(),
                });
                0
            }
        };
        frames.push(Frame::Done {
            id,
            count: expect,
            queue_wait_ns: 20_000,
            run_ns: 20_000,
        });
        let start = Instant::now();
        let mut failed = false;
        for f in &frames {
            let encoded = f.encode();
            bytes += encoded.len();
            failed |= Frame::decode(&encoded[4..]).as_ref() != Ok(f);
        }
        let end = Instant::now();
        tracer.record(("wire.codec", "codec"), id, start, end, failed, None);
        total += end - start;
    }
    let n = count.max(1) as f64;
    (total.as_nanos() as f64 / n, bytes as f64 / n)
}

/// The sandbox's fsync floor: `Wal` append + sync on a file beside the
/// pool's log, with a payload the size of one logged fact. Median µs.
fn append_sync_floor(dir: &Path, payload_len: usize, count: usize) -> Res<f64> {
    let path = dir.join("fsync_floor.wal");
    let _ = std::fs::remove_file(&path);
    let vfs = FileVfs::open(&path).map_err(err("floor log"))?;
    let (mut wal, _) = Wal::open(Box::new(vfs)).map_err(err("floor log"))?;
    let payload = vec![0x5A; payload_len];
    let mut times = Vec::new();
    for _ in 0..count {
        let start = Instant::now();
        wal.append(&payload).map_err(err("floor append"))?;
        wal.sync().map_err(err("floor sync"))?;
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    Ok(median(&times))
}

/// `Engine::assert_term` on a private engine with no log. Mean µs.
fn assert_cost(spec: &Spec, seed: u64, count: usize) -> Res<f64> {
    let mut engine = private_engine(spec, seed)?;
    let ops = OpTable::standard();
    let mut total = Duration::ZERO;
    for i in 0..count as u64 {
        let (a, b) = gen::fresh_edge(i);
        let term = parse_term_str(&format!("edge({a},{b})"), &mut engine.syms, &ops)
            .map_err(err("fact text"))?;
        let start = Instant::now();
        engine.assert_term(&term).map_err(err("assert"))?;
        total += start.elapsed();
    }
    Ok(total.as_secs_f64() * 1e6 / count.max(1) as f64)
}

/// Mean `run_ns` of the same goals asked as `Query` and as `Count`; the
/// difference is what decoding and rendering the answers costs.
fn render_share(pool: &ServerPool, stream: &mut Stream, count: usize) -> f64 {
    let mut goals = Vec::new();
    while goals.len() < count {
        if let Op::Count { goal, expect } | Op::Query { goal, expect, .. } = stream.next_op() {
            if expect > 1 {
                goals.push(goal);
            }
        }
    }
    let run = |query: bool| {
        let mut total = 0u64;
        for goal in &goals {
            let op = if query {
                Op::Query {
                    goal: goal.clone(),
                    expect: 0,
                    checksum: 0,
                }
            } else {
                Op::Count {
                    goal: goal.clone(),
                    expect: 0,
                }
            };
            total += embedded_call(pool, &op)
                .done
                .map_or(0, |(_, run_ns)| run_ns);
        }
        total as f64
    };
    // both once untimed: the comparison is between warm tables
    run(false);
    let (as_count, as_query) = (run(false), run(true));
    if as_query > 0.0 {
        (as_query - as_count) / as_query
    } else {
        0.0
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// model or invariant violations beyond single requests
    pub violations: Vec<String>,
    /// lines for the human reader, printed before the JSON
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn delta(after: &Metrics, before: &Metrics, c: Counter) -> f64 {
    after.get(c).saturating_sub(before.get(c)) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Counters that must not move on a workload, checked in both modes.
fn invariants(spec: &Spec, before: &Metrics, after: &Metrics, violations: &mut Vec<String>) {
    let mut zero = |c: Counter| {
        let d = delta(after, before, c);
        if d != 0.0 {
            violations.push(format!(
                "{}: {} moved by {d}, expected 0",
                spec.name,
                c.name()
            ));
        }
    };
    match spec.kind {
        Kind::WarmPoint | Kind::AnswerStream => {
            // every table completed in warm-up: hit ratio exactly 1
            zero(Counter::TableMisses);
            zero(Counter::SubgoalsCreated);
        }
        Kind::JoinSld => {
            for c in [
                Counter::SubgoalsCreated,
                Counter::AnswersRecorded,
                Counter::TableHits,
                Counter::TableMisses,
                Counter::TableEvictions,
                Counter::SharedTableHits,
                Counter::SharedTablePublishes,
            ] {
                zero(c);
            }
        }
        Kind::ColdClosure | Kind::UpdateChurn => {}
    }
    if spec.kind != Kind::UpdateChurn {
        zero(Counter::WalAppends);
        zero(Counter::WalFsyncs);
    }
}

/// The measured phase on the `remote` rung.
struct Measured {
    samples: Vec<Sample>,
    /// correct requests per second of each block
    block_qps: Vec<f64>,
    /// p99 latency of each block, µs
    block_p99: Vec<f64>,
    /// `VmHWM` after exactly `spec.min_blocks` blocks
    rss_mb: f64,
    seconds: f64,
    before: Metrics,
    after: Metrics,
    wal_growth: u64,
}

/// Whole blocks until `seconds` have passed and `spec.min_blocks` are done.
/// A traced run records spans on every other block, so that the overhead
/// of tracing is measured between neighbours.
fn measure(
    spec: &Spec,
    server: &Server,
    conn: &mut RemoteConn,
    stream: &mut Stream,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Measured {
    let wal_size = || server.pool().wal().map_or(0, |w| w.size());
    let before = server.metrics();
    let wal_before = wal_size();
    let mut samples: Vec<Sample> = Vec::new();
    let (mut block_qps, mut block_p99) = (Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    let measuring = Instant::now();
    while block_qps.len() < spec.min_blocks || measuring.elapsed().as_secs_f64() < seconds {
        let traced = if block_qps.len() % 2 == 0 {
            tracer.as_deref_mut()
        } else {
            None
        };
        let from = samples.len();
        let started = Instant::now();
        drive(
            &mut |op| remote_call(conn, op),
            stream,
            spec.block,
            ("client.request", "remote"),
            from as u64,
            traced,
            &mut samples,
        );
        let took = started.elapsed().as_secs_f64();
        let block = &samples[from..];
        block_qps.push(block.iter().filter(|s| s.ok).count() as f64 / took);
        if let Some(p) = percentile(&sorted(block.iter().map(|s| s.lat_ns)), 0.99) {
            block_p99.push(us(p as f64));
        }
        if block_qps.len() == spec.min_blocks {
            rss_mb = peak_rss_mb();
        }
    }
    Measured {
        samples,
        block_qps,
        block_p99,
        rss_mb,
        seconds: measuring.elapsed().as_secs_f64(),
        after: server.metrics(),
        before,
        wal_growth: wal_size() - wal_before,
    }
}

/// The metrics a client of the server sees. `qps` and `p99_us` are medians
/// over the blocks: one descheduled block in a run moves a mean, not a
/// median.
fn end_to_end(x: &Measured, setup_s: f64) -> Vec<Metric> {
    let lat = sorted(x.samples.iter().map(|s| s.lat_ns));
    vec![
        m("qps", median(&x.block_qps), "1/s"),
        m(
            "p50_us",
            us(percentile(&lat, 0.5).unwrap_or(0) as f64),
            "us",
        ),
        m("p99_us", median(&x.block_p99), "us"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", x.rss_mb, "MB"),
    ]
}

/// What a traced run adds to the measured phase.
struct Layered {
    metrics: Vec<Metric>,
    /// writes the pool acknowledged on the `embedded` rung
    acked_writes: u64,
    violations: Vec<String>,
    note: String,
}

/// The lower rungs, each on the next segment of the stream, and the
/// per-layer table.
fn per_layer(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    pool: &ServerPool,
    stream: &mut Stream,
    x: &Measured,
    tr: &mut Tracer,
) -> Res<Layered> {
    let mut violations = Vec::new();
    let samples = &x.samples;
    let requests = samples.len() as f64;
    let first_req = samples.len() as u64;
    let rung = spec.rung as u64;
    let overhead = |s: &Sample| s.lat_ns.saturating_sub(s.queue_wait_ns + s.run_ns);

    let mut embedded = Vec::new();
    drive(
        &mut |op| embedded_call(pool, op),
        stream,
        spec.rung,
        ("embedded.request", "embedded"),
        first_req,
        Some(tr),
        &mut embedded,
    );
    let mut engine = private_engine(spec, seed)?;
    let mut direct = Vec::new();
    drive(
        &mut |op| engine_call(&mut engine, op),
        stream,
        spec.rung,
        ("engine.direct", "engine"),
        first_req + rung,
        Some(tr),
        &mut direct,
    );
    drop(engine);
    let parse_us = parse_rung(stream, spec.rung, first_req + 2 * rung, tr);
    let (codec_ns, wire_bytes) = codec_rung(spec, stream, spec.rung, first_req + 3 * rung, tr);
    let lower_failed = embedded.iter().chain(&direct).filter(|s| !s.ok).count();
    if lower_failed > 0 {
        violations.push(format!("{lower_failed} requests failed on the lower rungs"));
    }
    let render = render_share(pool, stream, (spec.rung / 10).max(10));

    let writes = samples.iter().filter(|s| s.write).count() as f64;
    let wal_per_write = ratio(x.wal_growth as f64, writes);
    let (mut assert_us, mut floor_us, mut text_bytes) = (0.0, 0.0, 0.0);
    if spec.kind == Kind::UpdateChurn {
        let (a, b) = gen::fresh_edge(0);
        text_bytes = format!("edge({a},{b}).").len() as f64;
        assert_us = assert_cost(spec, seed, spec.rung)?;
        floor_us = append_sync_floor(
            dir,
            (wal_per_write as usize).max(1),
            (spec.rung / 10).max(10),
        )?;
    }

    let mean_us = |f: &dyn Fn(&Sample) -> u64| us(mean(samples.iter().map(f)));
    let p50_us = |v: Vec<u64>| us(percentile(&v, 0.5).unwrap_or(0) as f64);
    let lat_mean = mean_us(&|s| s.lat_ns);
    let overhead_mean = mean_us(&overhead);
    let wait_mean = mean_us(&|s| s.queue_wait_ns);
    let run_mean = mean_us(&|s| s.run_ns);
    let quarter = samples.len() / 4;
    let by_quarter: Vec<f64> = (0..4)
        .map(|q| {
            us(mean(
                samples[q * quarter..(q + 1) * quarter]
                    .iter()
                    .map(|s| s.run_ns),
            ))
        })
        .collect();
    let run_ns_total: f64 = samples.iter().map(|s| s.run_ns as f64).sum();
    let lat_p50_where = |traced: bool| {
        p50_us(sorted(
            samples
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.lat_ns),
        ))
    };
    let write_lat = sorted(samples.iter().filter(|s| s.write).map(|s| s.lat_ns));
    let d = |c| delta(&x.after, &x.before, c);
    let table_hits = d(Counter::TableHits) + d(Counter::SharedTableHits);

    let sum = overhead_mean + wait_mean + run_mean;
    let note = format!(
        "layer means: overhead {overhead_mean:.2} + queue wait {wait_mean:.2} + run {run_mean:.2} \
         = {sum:.2} us; mean client latency {lat_mean:.2} us; engine run time by quarter of the run \
         {by_quarter:.1?} us"
    );
    if (sum - lat_mean).abs() > 0.02 * lat_mean {
        violations.push(format!(
            "layer means sum to {sum:.2} us, mean client latency is {lat_mean:.2} us"
        ));
    }

    let metrics = vec![
        m("client.latency_us", lat_mean, "us"),
        m("server.overhead_us", overhead_mean, "us"),
        m(
            "server.overhead_p50_us",
            p50_us(sorted(samples.iter().map(overhead))),
            "us",
        ),
        m("server.unattributed_us", overhead_mean - us(codec_ns), "us"),
        m("pool.queue_wait_us", wait_mean, "us"),
        // consults report no queue wait or run time: reads only
        m(
            "pool.handoff_us",
            us(mean(embedded.iter().filter(|s| !s.write).map(overhead))),
            "us",
        ),
        m("engine.run_us", run_mean, "us"),
        m(
            "engine.run_p50_us",
            p50_us(sorted(samples.iter().map(|s| s.run_ns))),
            "us",
        ),
        m(
            "engine.slowdown",
            ratio(by_quarter[3], by_quarter[0]),
            "ratio",
        ),
        m(
            "engine.direct_us",
            us(mean(direct.iter().map(|s| s.lat_ns))),
            "us",
        ),
        m("engine.render_share", render, "ratio"),
        m("wire.codec_ns_per_req", codec_ns, "ns"),
        m("wire.bytes_per_req", wire_bytes, "B"),
        m("syntax.parse_us", parse_us, "us"),
        m(
            "emulate.instr_per_req",
            d(Counter::Instructions) / requests,
            "count",
        ),
        m(
            "emulate.minstr_per_s",
            ratio(d(Counter::Instructions) * 1e3, run_ns_total),
            "M/s",
        ),
        m(
            "table.hit_ratio",
            ratio(table_hits, table_hits + d(Counter::TableMisses)),
            "ratio",
        ),
        m(
            "table.subgoals_per_req",
            d(Counter::SubgoalsCreated) / requests,
            "count",
        ),
        m(
            "table.answers_per_req",
            d(Counter::AnswersRecorded) / requests,
            "count",
        ),
        m(
            "table.dup_ratio",
            ratio(
                d(Counter::DuplicateAnswers),
                d(Counter::DuplicateAnswers) + d(Counter::AnswersRecorded),
            ),
            "ratio",
        ),
        m("table.evictions", d(Counter::TableEvictions), "count"),
        m(
            "table.invalidations",
            d(Counter::TableInvalidations),
            "count",
        ),
        m("shared.hits", d(Counter::SharedTableHits), "count"),
        m(
            "shared.publishes",
            d(Counter::SharedTablePublishes),
            "count",
        ),
        m("shared.claim_waits", d(Counter::ClaimWaits), "count"),
        m("dynamic.assert_us", assert_us, "us"),
        m("durable.commit_us", p50_us(write_lat.clone()), "us"),
        m(
            "durable.commit_p99_us",
            us(percentile(&write_lat, 0.99).unwrap_or(0) as f64),
            "us",
        ),
        m(
            "durable.fsyncs_per_write",
            ratio(d(Counter::WalFsyncs), writes),
            "count",
        ),
        m("durable.wal_appends", d(Counter::WalAppends), "count"),
        m("durable.wal_bytes_per_write", wal_per_write, "B"),
        m(
            "durable.write_amplification",
            ratio(wal_per_write, text_bytes),
            "ratio",
        ),
        m("storage.append_sync_us", floor_us, "us"),
        m(
            "trace_overhead_pct",
            (ratio(lat_p50_where(true), lat_p50_where(false)) - 1.0) * 100.0,
            "%",
        ),
    ];
    Ok(Layered {
        metrics,
        acked_writes: embedded.iter().filter(|s| s.write && s.ok).count() as u64,
        violations,
        note,
    })
}

/// Runs one workload: set-up, warm-up, the measured phase on the `remote`
/// rung, with `trace` the lower rungs and the per-layer table, then the
/// final checks.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Res<Report> {
    std::fs::create_dir_all(dir).map_err(err("output directory"))?;
    let setting_up = Instant::now();
    let Served {
        server,
        wal_path,
        recovery_ms,
    } = set_up(spec, seed, dir)?;
    let first_setup_s = setting_up.elapsed().as_secs_f64();
    let mut conn = RemoteConn::connect(server.addr()).map_err(err("connect"))?;
    let mut stream = Stream::new(spec, seed);
    let mut violations = Vec::new();

    // Warm-up, untimed. The two warm workloads first complete each of
    // their tables on every worker, so that no measured request evaluates.
    for k in stream.warm_sources().to_vec() {
        let op = Op::Count {
            goal: format!("path({k}, X)"),
            expect: spec.n,
        };
        for _ in 0..2 * WORKERS {
            if !check(&op, &remote_call(&mut conn, &op).reply) {
                violations.push(format!("warm-up of source {k} failed"));
            }
        }
    }
    let mut warm = Vec::new();
    drive(
        &mut |op| remote_call(&mut conn, op),
        &mut stream,
        spec.warmup,
        ("client.request", "remote"),
        0,
        None,
        &mut warm,
    );
    let warm_failed = warm.iter().filter(|s| !s.ok).count();
    if warm_failed > 0 {
        violations.push(format!("{warm_failed} warm-up requests failed"));
    }

    let mut tracer = trace.then(Tracer::new);
    let x = measure(
        spec,
        &server,
        &mut conn,
        &mut stream,
        seconds,
        tracer.as_mut(),
    );
    invariants(spec, &x.before, &x.after, &mut violations);
    let attempted = x.samples.len() as u64;
    let failed = x.samples.iter().filter(|s| !s.ok).count() as u64;
    let mut notes = vec![format!(
        "workload {} seed {seed}: {attempted} requests in {} blocks of {} over {:.2} s; closed loop, \
         1 connection, 1 request in flight, {WORKERS} workers on {} cores; flush policy: {}; \
         fail_rate {:.6} ({failed} failed); VmHWM grew {:.0} B per request after the first {}",
        spec.name,
        x.block_qps.len(),
        spec.block,
        x.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if wal_path.is_some() {
            "fsync at every commit (group-commit window 0)"
        } else {
            "no log"
        },
        ratio(failed as f64, attempted as f64),
        ratio(
            (peak_rss_mb() - x.rss_mb) * 1024.0 * 1024.0,
            (x.samples.len() - spec.min_blocks * spec.block) as f64
        ),
        spec.min_blocks * spec.block,
    )];
    // writes the pool acknowledged; the private engine's never reach it
    let mut acked_writes = warm
        .iter()
        .chain(&x.samples)
        .filter(|s| s.write && s.ok)
        .count() as u64;
    let mut metrics = Vec::new();
    if let Some(tr) = tracer.as_mut() {
        let layered = per_layer(spec, seed, dir, server.pool(), &mut stream, &x, tr)?;
        metrics = layered.metrics;
        metrics.push(m("durable.recovery_ms", recovery_ms, "ms"));
        acked_writes += layered.acked_writes;
        violations.extend(layered.violations);
        notes.push(layered.note);
    }

    // Shut down, which drops the pool; `update_churn` then recovers it from
    // its log and requires every acknowledged write to be there.
    conn.close();
    let stuck = server.shutdown();
    if stuck > 0 {
        violations.push(format!("{stuck} connections still open at shutdown"));
    }
    if let Some(path) = &wal_path {
        let reopened = ServerPool::reopen(path, pool_config(spec)).map_err(err("final reopen"))?;
        let expect = spec.base_edges() + acked_writes;
        let edges = reopened.count("edge(X,Y)").map_err(err("final count"))? as u64;
        if edges != expect {
            violations.push(format!(
                "after reopen edge/2 holds {edges} facts, acknowledged writes make {expect}"
            ));
        }
        drop(reopened);
        let _ = std::fs::remove_file(path);
    }
    if !trace {
        metrics = end_to_end(&x, median_set_up(spec, seed, dir, first_setup_s)?);
    }

    Ok(Report {
        workload: spec.name,
        seed,
        metrics,
        attempted,
        failed,
        violations,
        notes,
        tracer,
    })
}
