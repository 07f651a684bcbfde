//! Metrics registry: monotonic counters, high-water gauges, and
//! monotonic-clock timers.
//!
//! Counters are plain `u64` fields bumped inline on the emulator's hot
//! paths (a register increment, no atomics — the machine is single-
//! threaded), enumerated by [`Counter`] so report/JSON/`statistics/2`
//! share one name table. Gauges track a current value plus a high-water
//! mark that never regresses. Timers accumulate monotonic elapsed time via
//! [`Stopwatch`].

use crate::hist::Histogram;
use crate::json::Json;
use crate::profile::OpcodeProfile;
use std::time::Instant;

/// Declares [`Counter`] from one list of `Variant => "statistics/2 key"`
/// entries: the enum, [`Counter::ALL`], [`Counter::COUNT`] and
/// [`Counter::NAMES`] all come from it, so they cannot drift apart.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Machine-wide monotonic counters. The declaration order defines
        /// the report order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in report order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant,)*];

            pub const COUNT: usize = [$($name,)*].len();

            /// `statistics/2` keys, in report order.
            pub const NAMES: [&'static str; Counter::COUNT] = [$($name,)*];

            pub fn name(self) -> &'static str {
                Counter::NAMES[self as usize]
            }
        }
    };
}

counters! {
    /// Abstract-machine instructions dispatched.
    Instructions => "instructions",
    /// Predicate calls (tabled and non-tabled) entering `dispatch`.
    Calls => "calls",
    /// Top-level unification operations.
    Unifications => "unifications",
    /// Bindings recorded on the (forward) trail.
    TrailOps => "trail_ops",
    /// Choice points pushed.
    ChoicePoints => "choice_points",
    /// Backtracks taken (choice-point retries/pops).
    Backtracks => "backtracks",
    /// New tabled subgoals created (generator check/insert inserts).
    SubgoalsCreated => "subgoals_created",
    /// Answers added to answer tables.
    AnswersRecorded => "answers_recorded",
    /// Answers suppressed as duplicates by the answer check/insert.
    DuplicateAnswers => "duplicate_answers",
    /// Consumer suspensions (environment frozen awaiting answers).
    ConsumerSuspensions => "consumer_suspensions",
    /// Consumer resumptions (scheduled to consume new answers).
    ConsumerResumptions => "consumer_resumptions",
    /// Strongly-connected components completed.
    SccCompletions => "scc_completions",
    /// Subgoals marked complete (across all completed SCCs).
    SubgoalsCompleted => "subgoals_completed",
    /// Negative literals delayed/suspended awaiting completion.
    NegationSuspends => "negation_suspends",
    /// Delayed negative literals simplified/resumed after completion.
    NegationResumes => "negation_resumes",
    /// Completed tables reused by a later query (cross-query warm hits).
    TableHits => "table_hits",
    /// Tabled calls that had to build a fresh subgoal (cold misses).
    TableMisses => "table_misses",
    /// Subgoal frames invalidated by assert/retract dependency tracking
    /// or by a manual `abolish_table_pred/1` / `abolish_table_call/1`.
    TableInvalidations => "table_invalidations",
    /// Completed tables evicted to stay under the table-space budget.
    TableEvictions => "table_evictions",
    /// Cells stored for new answers (substitution factored: bindings of
    /// the call's distinct variables only).
    AnswerCellsFactored => "answer_cells_factored",
    /// Tabled calls answered by importing a completed table from the
    /// pool's shared store (cross-worker warm hits).
    SharedTableHits => "shared_table_hits",
    /// Completed tables this engine promoted into the shared store.
    SharedTablePublishes => "shared_table_publishes",
    /// Predicates invalidated in (or synced out of) the shared store.
    SharedTableInvalidations => "shared_table_invalidations",
    /// In-progress claims acquired on cold shared subgoals (this worker
    /// elected itself the one computing the table pool-wide).
    SharedClaims => "shared_claims",
    /// Times a worker parked on another worker's in-progress claim
    /// instead of duplicating the computation.
    ClaimWaits => "claim_waits",
    /// Parked waits that ended without an importable frame (bounded wait
    /// expired or the claimant released without publishing) — the worker
    /// fell back to computing the table locally.
    ClaimFallbacks => "claim_fallbacks",
    /// WAL records appended (begin/commit/abort, assert/retract images,
    /// consult text, checkpoints).
    WalAppends => "wal_appends",
    /// WAL fsyncs issued (commit-point durability barriers).
    WalFsyncs => "wal_fsyncs",
    /// Commits made durable by group-commit fsyncs, cumulatively — the
    /// average batch size is `group_commit_batch / wal_fsyncs`.
    GroupCommitBatch => "group_commit_batch",
    /// WAL records re-applied by crash recovery / restart replay.
    RecoveryReplayed => "recovery_replayed",
    /// TCP client connections accepted by the network server.
    NetConnections => "net_connections",
    /// Wire requests received (query/count/consult frames).
    NetRequests => "net_requests",
    /// Requests rejected with a typed `Busy` by admission control.
    NetRejections => "net_rejections",
    /// Connections dropped for a wire-protocol violation (bad magic,
    /// oversized frame, truncated payload, unknown opcode).
    NetProtocolErrors => "net_protocol_errors",
}

/// A gauge: current value plus a never-regressing high-water mark.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    pub current: u64,
    pub high_water: u64,
}

impl Gauge {
    /// Sets the current value, raising the high-water mark if exceeded.
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.current = v;
        if v > self.high_water {
            self.high_water = v;
        }
    }

    /// Raises the high-water mark without touching the current value
    /// (for sampling a peak mid-operation).
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if v > self.high_water {
            self.high_water = v;
        }
    }
}

/// Accumulated monotonic time plus a start count.
#[derive(Default, Debug, Clone, Copy)]
pub struct Timer {
    pub nanos: u64,
    pub count: u64,
}

impl Timer {
    pub fn record(&mut self, sw: Stopwatch) {
        self.nanos += sw.elapsed_nanos();
        self.count += 1;
    }

    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// A running monotonic-clock measurement; feed it back to [`Timer::record`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Per-predicate counters, indexed by the engine's predicate id.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredCounters {
    pub calls: u64,
    pub subgoals: u64,
}

/// The machine-wide metrics registry.
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: [u64; Counter::COUNT],
    /// Heap arena length (cells).
    pub heap: Gauge,
    /// Choice-point stack depth (frames).
    pub choice_points: Gauge,
    /// Trail length (entries).
    pub trail: Gauge,
    /// Environment-frame arena length (slots).
    pub frames: Gauge,
    /// Accumulated query evaluation time.
    pub query_time: Timer,
    /// Per-query wall-time distribution (nanoseconds).
    pub query_latency: Histogram,
    /// Pool worker: submit-to-dequeue wait per job (nanoseconds).
    pub queue_wait: Histogram,
    /// Pool worker: job execution time (nanoseconds).
    pub run_time: Histogram,
    /// Shared store: per-call publish latency (nanoseconds).
    pub shared_publish: Histogram,
    /// Shared store: per-table import latency (nanoseconds).
    pub shared_import: Histogram,
    /// Shared store: per-call sync latency (nanoseconds).
    pub shared_sync: Histogram,
    /// Shared store: time parked on another worker's in-progress claim
    /// (nanoseconds).
    pub claim_wait: Histogram,
    /// Durability: append+sync latency per commit point (nanoseconds) —
    /// auto-commit mutations and explicit `commit_transaction/0`.
    pub commit_latency: Histogram,
    /// Network server: request wall time on the wire side — frame decode
    /// to completion frame written (nanoseconds).
    pub wire_latency: Histogram,
    /// Emulator opcode profiler (off by default; [`Metrics::reset`]
    /// preserves the toggle).
    pub profile: OpcodeProfile,
    /// Per-predicate counters, indexed by predicate id (grown on demand).
    pub per_pred: Vec<PredCounters>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            counters: [0; Counter::COUNT],
            heap: Gauge::default(),
            choice_points: Gauge::default(),
            trail: Gauge::default(),
            frames: Gauge::default(),
            query_time: Timer::default(),
            query_latency: Histogram::default(),
            queue_wait: Histogram::default(),
            run_time: Histogram::default(),
            shared_publish: Histogram::default(),
            shared_import: Histogram::default(),
            shared_sync: Histogram::default(),
            claim_wait: Histogram::default(),
            commit_latency: Histogram::default(),
            wire_latency: Histogram::default(),
            profile: OpcodeProfile::default(),
            per_pred: Vec::new(),
        }
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Bumps a machine-wide counter.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.counters[c as usize] += 1;
    }

    /// Adds `n` to a machine-wide counter.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Records a call of predicate `pred` (machine-wide + per-predicate).
    #[inline]
    pub fn count_call(&mut self, pred: usize) {
        self.counters[Counter::Calls as usize] += 1;
        if pred >= self.per_pred.len() {
            self.per_pred.resize(pred + 1, PredCounters::default());
        }
        self.per_pred[pred].calls += 1;
    }

    /// Records a new tabled subgoal of predicate `pred`.
    #[inline]
    pub fn count_subgoal(&mut self, pred: usize) {
        self.counters[Counter::SubgoalsCreated as usize] += 1;
        if pred >= self.per_pred.len() {
            self.per_pred.resize(pred + 1, PredCounters::default());
        }
        self.per_pred[pred].subgoals += 1;
    }

    pub fn pred(&self, pred: usize) -> PredCounters {
        self.per_pred.get(pred).copied().unwrap_or_default()
    }

    /// All scalar entries (counters, then gauge high-waters and currents,
    /// then timer totals), as `statistics/2` key/value pairs in report
    /// order.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Counter::NAMES
            .iter()
            .zip(self.counters.iter())
            .map(|(&n, &v)| (n, v))
            .collect();
        out.push(("heap_high_water", self.heap.high_water));
        out.push(("cp_high_water", self.choice_points.high_water));
        out.push(("trail_high_water", self.trail.high_water));
        out.push(("frame_high_water", self.frames.high_water));
        out.push(("query_time_ns", self.query_time.nanos));
        out.push(("queries", self.query_time.count));
        for (name_p50, name_p99, h) in self.histograms() {
            out.push((name_p50, h.p50()));
            out.push((name_p99, h.p99()));
        }
        out
    }

    /// The latency histograms with their `statistics/2` p50/p99 key
    /// names, in report order.
    fn histograms(&self) -> [(&'static str, &'static str, &Histogram); 9] {
        [
            ("query_p50_ns", "query_p99_ns", &self.query_latency),
            ("queue_wait_p50_ns", "queue_wait_p99_ns", &self.queue_wait),
            ("run_p50_ns", "run_p99_ns", &self.run_time),
            (
                "shared_publish_p50_ns",
                "shared_publish_p99_ns",
                &self.shared_publish,
            ),
            (
                "shared_import_p50_ns",
                "shared_import_p99_ns",
                &self.shared_import,
            ),
            (
                "shared_sync_p50_ns",
                "shared_sync_p99_ns",
                &self.shared_sync,
            ),
            ("claim_wait_p50_ns", "claim_wait_p99_ns", &self.claim_wait),
            ("commit_p50_ns", "commit_p99_ns", &self.commit_latency),
            ("wire_p50_ns", "wire_p99_ns", &self.wire_latency),
        ]
    }

    /// Full histogram summaries as a JSON object (count/min/max/mean and
    /// the p50/p95/p99 points per distribution).
    pub fn histograms_json(&self) -> Json {
        Json::obj([
            ("query_latency", self.query_latency.to_json()),
            ("queue_wait", self.queue_wait.to_json()),
            ("run_time", self.run_time.to_json()),
            ("shared_publish", self.shared_publish.to_json()),
            ("shared_import", self.shared_import.to_json()),
            ("shared_sync", self.shared_sync.to_json()),
            ("claim_wait", self.claim_wait.to_json()),
            ("commit_latency", self.commit_latency.to_json()),
            ("wire_latency", self.wire_latency.to_json()),
        ])
    }

    /// Looks up a scalar entry by its `statistics/2` key.
    pub fn lookup(&self, key: &str) -> Option<u64> {
        self.entries()
            .into_iter()
            .find(|&(n, _)| n == key)
            .map(|(_, v)| v)
    }

    /// Human-readable report, the body of `statistics/0`.
    pub fn report(&self) -> String {
        let mut s = String::from("SLG-WAM statistics:\n");
        for (name, v) in self.entries() {
            s.push_str(&format!("  {name:<22} {v}\n"));
        }
        s
    }

    /// JSON object with every scalar entry.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries()
                .into_iter()
                .map(|(n, v)| (n.to_string(), Json::Int(v as i64)))
                .collect(),
        )
    }

    /// Zeroes everything, including per-predicate counters and high-water
    /// marks. Configuration toggles (the opcode profiler's `enabled`
    /// flag) survive the reset — a reset must not silently disable
    /// profiling the user turned on.
    pub fn reset(&mut self) {
        let profiling = self.profile.enabled;
        *self = Metrics::default();
        self.profile.enabled = profiling;
    }

    /// Folds another registry into this one — the pool-wide aggregation
    /// over per-worker snapshots. Counters, timers, histograms, opcode
    /// profiles, and per-predicate counts are summed; gauges keep the
    /// maximum (each worker has its own stacks, so a sum would not
    /// describe any real machine).
    pub fn merge(&mut self, other: &Metrics) {
        for i in 0..Counter::COUNT {
            self.counters[i] += other.counters[i];
        }
        for (g, o) in [
            (&mut self.heap, &other.heap),
            (&mut self.choice_points, &other.choice_points),
            (&mut self.trail, &other.trail),
            (&mut self.frames, &other.frames),
        ] {
            g.current = g.current.max(o.current);
            g.high_water = g.high_water.max(o.high_water);
        }
        self.query_time.nanos += other.query_time.nanos;
        self.query_time.count += other.query_time.count;
        self.query_latency.merge(&other.query_latency);
        self.queue_wait.merge(&other.queue_wait);
        self.run_time.merge(&other.run_time);
        self.shared_publish.merge(&other.shared_publish);
        self.shared_import.merge(&other.shared_import);
        self.shared_sync.merge(&other.shared_sync);
        self.claim_wait.merge(&other.claim_wait);
        self.commit_latency.merge(&other.commit_latency);
        self.wire_latency.merge(&other.wire_latency);
        self.profile.merge(&other.profile);
        if other.per_pred.len() > self.per_pred.len() {
            self.per_pred
                .resize(other.per_pred.len(), PredCounters::default());
        }
        for (p, o) in self.per_pred.iter_mut().zip(other.per_pred.iter()) {
            p.calls += o.calls;
            p.subgoals += o.subgoals;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_bump_and_report() {
        let mut m = Metrics::new();
        m.bump(Counter::Instructions);
        m.bump(Counter::Instructions);
        m.bump(Counter::Backtracks);
        assert_eq!(m.get(Counter::Instructions), 2);
        assert_eq!(m.lookup("instructions"), Some(2));
        assert_eq!(m.lookup("backtracks"), Some(1));
        assert_eq!(m.lookup("no_such_key"), None);
        assert!(m.report().contains("instructions"));
    }

    #[test]
    fn gauge_high_water_never_regresses() {
        let mut g = Gauge::default();
        g.set(10);
        g.set(3);
        assert_eq!(g.current, 3);
        assert_eq!(g.high_water, 10);
        g.observe(42);
        assert_eq!(g.current, 3);
        assert_eq!(g.high_water, 42);
        g.observe(7);
        assert_eq!(g.high_water, 42);
    }

    #[test]
    fn per_pred_counters_grow_on_demand() {
        let mut m = Metrics::new();
        m.count_call(5);
        m.count_call(5);
        m.count_subgoal(2);
        assert_eq!(m.pred(5).calls, 2);
        assert_eq!(m.pred(2).subgoals, 1);
        assert_eq!(m.pred(99).calls, 0);
        assert_eq!(m.get(Counter::Calls), 2);
        assert_eq!(m.get(Counter::SubgoalsCreated), 1);
    }

    /// `SubgoalsCreated` → `subgoals_created`.
    fn snake_case(camel: &str) -> String {
        let mut out = String::new();
        for (i, ch) in camel.chars().enumerate() {
            if ch.is_ascii_uppercase() && i > 0 {
                out.push('_');
            }
            out.push(ch.to_ascii_lowercase());
        }
        out
    }

    #[test]
    fn every_counter_round_trips_through_its_name() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}: ALL is in discriminant order");
            assert_eq!(
                c.name(),
                snake_case(&format!("{c:?}")),
                "NAMES[{i}] is {c:?}'s key"
            );
        }
    }

    #[test]
    fn merge_sums_counters_and_keeps_gauge_maxima() {
        let mut a = Metrics::new();
        a.bump(Counter::Calls);
        a.heap.set(100);
        a.count_call(3);
        a.query_time.nanos = 5;
        a.query_time.count = 1;
        let mut b = Metrics::new();
        b.add(Counter::Calls, 2);
        b.bump(Counter::SharedTableHits);
        b.heap.set(40);
        b.count_call(3);
        b.count_call(7);
        b.query_time.nanos = 7;
        b.query_time.count = 2;
        a.merge(&b);
        // a: bump + count_call = 2; b: add(2) + two count_calls = 4
        assert_eq!(a.get(Counter::Calls), 6);
        assert_eq!(a.get(Counter::SharedTableHits), 1);
        assert_eq!(a.heap.high_water, 100);
        assert_eq!(a.pred(3).calls, 2);
        assert_eq!(a.pred(7).calls, 1);
        assert_eq!(a.query_time.nanos, 12);
        assert_eq!(a.query_time.count, 3);
    }

    #[test]
    fn merge_audit_gauges_max_histograms_sum_no_double_reset() {
        // gauge semantics: merge must take the max even when the other
        // side's *current* is lower but its high-water is higher, and
        // vice versa — never last-write-wins
        let mut a = Metrics::new();
        a.heap.set(50); // current 50, hw 50
        a.trail.set(90);
        a.trail.set(10); // current 10, hw 90
        let mut b = Metrics::new();
        b.heap.set(80);
        b.heap.set(5); // current 5, hw 80
        b.trail.set(60); // current 60, hw 60
        a.merge(&b);
        assert_eq!(a.heap.current, 50, "max, not last-write");
        assert_eq!(a.heap.high_water, 80);
        assert_eq!(a.trail.current, 60);
        assert_eq!(a.trail.high_water, 90);

        // histograms and profiles merge by summation
        let mut x = Metrics::new();
        x.query_latency.record(100);
        x.profile.record(1);
        let mut y = Metrics::new();
        y.query_latency.record(5000);
        y.query_latency.record(5000);
        y.profile.record(1);
        y.profile.record(2);
        x.merge(&y);
        assert_eq!(x.query_latency.count(), 3);
        assert_eq!(x.query_latency.max(), 5000);
        assert_eq!(x.profile.count(1), 2);
        assert_eq!(x.profile.pair_count(1, 2), 1);

        // merging a snapshot twice must double the counters (merge takes
        // a borrowed snapshot: it must never reset or consume `other`)
        let mut acc = Metrics::new();
        let mut w = Metrics::new();
        w.bump(Counter::Calls);
        w.query_time.nanos = 10;
        w.query_time.count = 1;
        acc.merge(&w);
        acc.merge(&w);
        assert_eq!(acc.get(Counter::Calls), 2);
        assert_eq!(acc.query_time.nanos, 20);
        assert_eq!(w.get(Counter::Calls), 1, "other side untouched");

        // reset zeroes samples but preserves the profiling toggle
        let mut r = Metrics::new();
        r.profile.enabled = true;
        r.profile.record(3);
        r.query_latency.record(7);
        r.reset();
        assert!(r.profile.is_empty());
        assert!(r.profile.enabled, "reset must not disable profiling");
        assert!(r.query_latency.is_empty());
    }

    #[test]
    fn entries_include_latency_percentiles() {
        let mut m = Metrics::new();
        m.query_latency.record(1000);
        m.query_latency.record(1000);
        assert_eq!(m.lookup("query_p50_ns"), Some(m.query_latency.p50()));
        assert_eq!(m.lookup("query_p99_ns"), Some(m.query_latency.p99()));
        assert_eq!(m.lookup("queue_wait_p50_ns"), Some(0));
        let hj = m.histograms_json().to_string();
        let parsed = Json::parse(&hj).unwrap();
        assert_eq!(
            parsed.get("query_latency").and_then(|h| h.get("count")),
            Some(&Json::Int(2))
        );
    }

    #[test]
    fn timer_accumulates() {
        let mut t = Timer::default();
        let sw = Stopwatch::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.record(sw);
        assert_eq!(t.count, 1);
        assert!(t.nanos >= 2_000_000, "{}", t.nanos);
    }

    #[test]
    fn json_snapshot_contains_all_entries() {
        let mut m = Metrics::new();
        m.bump(Counter::Calls);
        let j = m.to_json().to_string();
        let parsed = Json::parse(&j).unwrap();
        match parsed {
            Json::Obj(fields) => {
                assert!(fields
                    .iter()
                    .any(|(k, v)| k == "calls" && *v == Json::Int(1)));
                assert_eq!(fields.len(), m.entries().len());
            }
            other => panic!("expected object, got {other:?}"),
        }
    }
}
