//! Crash-recovery integration tests: a deterministic fault-injection
//! harness drives the WAL + ARIES recovery stack through every crash
//! point a real deployment could hit.
//!
//! The centerpiece is the **crash matrix**: a scripted workload runs over
//! a [`FailpointFs`], recording the exact expected EDB state at every
//! commit point (paired with the log size at that point). The matrix then
//! kills the "process" at *every byte offset* of the final log and checks
//! that recovery lands exactly on the last commit point whose records
//! survived the cut — no lost committed facts, and `recovery_torn_facts`
//! (facts present after recovery that were never durable) identically
//! zero. Torn-sector and lying-fsync crashes get the same exactness
//! treatment via [`CrashMode::TornTail`] / [`CrashMode::SyncedOnly`].

use std::sync::Arc;
use xsb_core::engine_pool::{PoolConfig, ServerPool};
use xsb_core::{DurableLog, Engine};
use xsb_obs::Counter;
use xsb_storage::{scan_records, shared_failpoint, CrashMode, MemVfs, SharedFailpoint, Vfs};

const PROGRAM: &str = ":- dynamic p/1.\np(0).\n";

/// WAL magic header length: images shorter than this are unrecoverable
/// (and recovery must refuse them, not invent state).
const MAGIC: u64 = 8;

/// Reopens a standalone durable engine from a crash image.
fn reopen(img: Vec<u8>) -> (Engine, xsb_core::RecoveryReport) {
    let log = Arc::new(DurableLog::open(Box::new(MemVfs::from_bytes(img))).unwrap());
    Engine::open_durable(log).unwrap()
}

/// Asserts the recovered `p/1` EDB equals `expected` **exactly**: every
/// expected fact present once, and no extra (torn) facts.
fn assert_facts(e: &mut Engine, expected: &[i64], ctx: &str) {
    for v in expected {
        assert_eq!(
            e.count(&format!("p({v})")).unwrap(),
            1,
            "{ctx}: committed fact p({v}) lost"
        );
    }
    // exact cardinality ⇒ zero torn facts
    assert_eq!(
        e.count("p(X)").unwrap(),
        expected.len(),
        "{ctx}: torn facts present (recovery_torn_facts != 0)"
    );
}

/// The scripted workload: auto-commit asserts and retracts, a committed
/// transaction, an aborted transaction, and a multi-clause `retractall`
/// (which the engine wraps in an implicit transaction). Returns the
/// `(log_size, expected_facts)` snapshot taken at every commit point.
fn scripted_run(fs: SharedFailpoint) -> Vec<(u64, Vec<i64>)> {
    let log = Arc::new(DurableLog::open(Box::new(fs)).unwrap());
    let mut e = Engine::create_durable(PROGRAM, log.clone()).unwrap();
    let mut model: Vec<i64> = vec![0];
    let mut snaps = vec![(log.size(), model.clone())];
    let snap = |log: &DurableLog, model: &Vec<i64>, snaps: &mut Vec<(u64, Vec<i64>)>| {
        snaps.push((log.size(), model.clone()));
    };

    // auto-commit asserts: each is its own commit point
    for v in [1i64, 2, 3] {
        e.query(&format!("assert(p({v}))")).unwrap();
        model.push(v);
        snap(&log, &model, &mut snaps);
    }
    // auto-commit retract
    e.query("retract(p(2))").unwrap();
    model.retain(|&v| v != 2);
    snap(&log, &model, &mut snaps);
    // committed transaction: durable only at its Commit record
    e.query("begin_transaction").unwrap();
    e.query("assert(p(10))").unwrap();
    e.query("assert(p(11))").unwrap();
    e.query("retract(p(3))").unwrap();
    e.query("commit_transaction").unwrap();
    model.push(10);
    model.push(11);
    model.retain(|&v| v != 3);
    snap(&log, &model, &mut snaps);
    // aborted transaction: never visible, any cut inside it undoes
    e.query("begin_transaction").unwrap();
    e.query("assert(p(99))").unwrap();
    e.query("abort_transaction").unwrap();
    snap(&log, &model, &mut snaps);
    // multi-clause retractall rides an implicit transaction: a crash
    // mid-batch must recover to *none* removed
    e.query("assert(p(20))").unwrap();
    model.push(20);
    snap(&log, &model, &mut snaps);
    e.query("retractall(p(_))").unwrap();
    model.clear();
    snap(&log, &model, &mut snaps);
    // one last fact so the final state is non-empty
    e.query("assert(p(30))").unwrap();
    model.push(30);
    snap(&log, &model, &mut snaps);
    snaps
}

/// THE crash matrix: kill the process at every byte offset of the log.
/// Recovery must land exactly on the newest commit point at or below the
/// cut — uncommitted suffixes are undone, torn frames truncated.
#[test]
fn crash_matrix_every_byte_offset_recovers_to_last_commit_point() {
    let fs = shared_failpoint();
    let snaps = scripted_run(fs.clone());
    let total = fs.lock().unwrap().written_len();
    assert!(total > 200, "workload too small to be a meaningful matrix");
    // every auto-commit op fsynced, so the whole log is durable
    assert_eq!(fs.lock().unwrap().synced_len(), total);

    for k in 0..=total {
        let img = fs.lock().unwrap().crash_image(CrashMode::Exact { at: k });
        let log = match DurableLog::open(Box::new(MemVfs::from_bytes(img))) {
            Ok(l) => Arc::new(l),
            Err(_) => {
                // only an incomplete magic header is unrecoverable
                assert!(k < MAGIC, "open refused a well-headed image at cut {k}");
                continue;
            }
        };
        if log.is_fresh() {
            // the Program record had not fully landed: nothing to recover
            assert!(k < snaps[0].0, "program record lost at cut {k}");
            continue;
        }
        let (mut e, _) = Engine::open_durable(log).unwrap();
        let expected = snaps
            .iter()
            .rev()
            .find(|(s, _)| *s <= k)
            .map(|(_, m)| m.clone())
            .expect("program snapshot always applies");
        assert_facts(&mut e, &expected, &format!("cut at byte {k}"));
    }
}

/// Power-loss crashes: a lying disk (dropped fsyncs) and a torn final
/// sector. Both recover to the newest commit point inside the image's
/// valid record prefix.
#[test]
fn power_loss_with_lying_disk_recovers_synced_prefix() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(PROGRAM, log.clone()).unwrap();
    let mut model = vec![0i64];
    let mut snaps = vec![(log.size(), model.clone())];
    for v in [1i64, 2] {
        e.query(&format!("assert(p({v}))")).unwrap();
        model.push(v);
        snaps.push((log.size(), model.clone()));
    }
    // from here the disk lies: fsync returns Ok but persists nothing
    fs.lock().unwrap().set_drop_syncs(true);
    for v in [3i64, 4, 5] {
        e.query(&format!("assert(p({v}))")).unwrap();
        model.push(v);
        snaps.push((log.size(), model.clone()));
    }
    for mode in [CrashMode::SyncedOnly, CrashMode::TornTail] {
        let img = fs.lock().unwrap().crash_image(mode);
        // the garbled tail sector must not poison recovery: expected
        // state is the newest commit point within the valid prefix
        let valid = scan_records(&img).valid_len;
        let expected = snaps
            .iter()
            .rev()
            .find(|(s, _)| *s <= valid)
            .map(|(_, m)| m.clone())
            .unwrap();
        let (mut e2, _) = reopen(img);
        assert_facts(&mut e2, &expected, &format!("{mode:?}"));
    }
    // SyncedOnly in particular keeps only the honestly-synced ops
    let img = fs.lock().unwrap().crash_image(CrashMode::SyncedOnly);
    let (mut e2, _) = reopen(img);
    assert_facts(&mut e2, &[0, 1, 2], "SyncedOnly");
}

/// A checksum-corrupt record in the *middle* of the log truncates
/// recovery at the corruption — later records are unreachable, and
/// recovery must not apply garbage.
#[test]
fn checksum_corruption_mid_log_truncates_at_corruption() {
    let fs = shared_failpoint();
    let snaps = scripted_run(fs.clone());
    let mut img = fs
        .lock()
        .unwrap()
        .crash_image(CrashMode::Exact { at: u64::MAX });
    // flip one payload byte in a record near the middle of the log
    let mid = img.len() / 2;
    img[mid] ^= 0x40;
    let valid = scan_records(&img).valid_len;
    assert!(
        valid < img.len() as u64,
        "corruption must shorten the valid prefix"
    );
    let expected = snaps
        .iter()
        .rev()
        .find(|(s, _)| *s <= valid)
        .map(|(_, m)| m.clone())
        .unwrap();
    let (mut e, _) = reopen(img);
    assert_facts(&mut e, &expected, "mid-log corruption");
}

/// An empty log reopens to an empty engine — no program, no replay, no
/// invented state.
#[test]
fn empty_log_reopens_empty() {
    let log = Arc::new(DurableLog::open(Box::new(MemVfs::new())).unwrap());
    assert!(log.is_fresh());
    let (mut e, report) = Engine::open_durable(log).unwrap();
    assert_eq!(report.scanned, 0);
    assert_eq!(report.replayed, 0);
    assert!(e.query("undefined_pred_xyz").is_err() || e.count("true").unwrap() >= 1);
    // a pool, by contrast, refuses a program-less log outright
    let log2 = Arc::new(DurableLog::open(Box::new(MemVfs::new())).unwrap());
    assert!(ServerPool::reopen_log(log2, PoolConfig::default()).is_err());
}

/// Replaying the same log twice applies nothing the second time: the
/// `applied_lsn` high-water mark makes recovery idempotent.
#[test]
fn duplicate_replay_is_idempotent() {
    let fs = shared_failpoint();
    let snaps = scripted_run(fs.clone());
    let img = fs
        .lock()
        .unwrap()
        .crash_image(CrashMode::Exact { at: u64::MAX });
    let (mut e, first) = reopen(img);
    assert!(first.replayed > 0);
    let expected = &snaps.last().unwrap().1;
    assert_facts(&mut e, expected, "first replay");
    let second = e.replay_wal().unwrap();
    assert_eq!(second.scanned, 0, "second replay rescanned records");
    assert_eq!(second.replayed, 0, "second replay re-applied records");
    assert_facts(&mut e, expected, "after duplicate replay");
}

/// Recovered asserts must invalidate dependent tabled predicates: a
/// query after recovery sees answers derived from the replayed facts,
/// never a stale table.
#[test]
fn recovered_asserts_rebuild_dependent_tables() {
    let prog = ":- table r/1.\nr(X) :- q(X).\n:- dynamic q/1.\nq(1).\n";
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(prog, log).unwrap();
    assert_eq!(e.count("r(X)").unwrap(), 1);
    e.query("assert(q(2))").unwrap();
    e.query("retract(q(1))").unwrap();
    assert_eq!(e.count("r(X)").unwrap(), 1);
    assert_eq!(e.count("r(2)").unwrap(), 1);
    drop(e);
    let img = fs.lock().unwrap().crash_image(CrashMode::SyncedOnly);
    let (mut e2, _) = reopen(img);
    // prime the table, then replay again on the live engine: the primed
    // table must survive untouched (nothing new to apply)
    assert_eq!(e2.count("r(2)").unwrap(), 1);
    assert_eq!(e2.count("r(1)").unwrap(), 0);
    e2.replay_wal().unwrap();
    assert_eq!(e2.count("r(X)").unwrap(), 1);
}

/// Asserts the rule `p(X) :- q(X)` and the fact `q(1)` under the tabled
/// `t(X) :- p(X)`, optionally checkpoints, crashes, and recovers: a write
/// to `q` after recovery must still reach `t`'s table through the
/// recovered rule's dependency edge.
fn recovered_rule_edge(checkpoint: bool) {
    let prog = ":- table t/1.\n:- dynamic p/1, q/1.\nt(X) :- p(X).\n";
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(prog, log).unwrap();
    e.query("assert((p(X) :- q(X)))").unwrap();
    e.query("assert(q(1))").unwrap();
    if checkpoint {
        e.checkpoint().unwrap();
    }
    drop(e);
    let img = fs.lock().unwrap().crash_image(CrashMode::SyncedOnly);
    let (mut e2, report) = reopen(img);
    assert_eq!(report.checkpoint_restored, checkpoint);
    assert_eq!(e2.count("t(X)").unwrap(), 1);
    e2.query("assert(q(2))").unwrap();
    assert_eq!(e2.count("t(X)").unwrap(), 2, "stale t/1 table");
}

#[test]
fn redo_records_dependency_edges_of_recovered_rules() {
    recovered_rule_edge(false);
}

#[test]
fn checkpoint_restore_records_dependency_edges() {
    recovered_rule_edge(true);
}

/// `t(X) :- p(X)` tabled over the dynamic fact `p(0)`.
const TABLED_P: &str = ":- table t/1.\n:- dynamic p/1.\nt(X) :- p(X).\np(0).\n";

/// An object file holding the facts `p(1)`, `p(2)`, `p(3)`.
fn three_p_facts() -> Vec<u8> {
    let mut e = Engine::new();
    e.consult(":- dynamic p/1.\np(1). p(2). p(3).").unwrap();
    e.save_object("p", 1).unwrap()
}

/// Loading an object file is an EDB write like any other: it invalidates
/// the tables that depend on the loaded predicate.
#[test]
fn load_object_invalidates_dependent_tables() {
    let log = Arc::new(DurableLog::open(Box::new(MemVfs::new())).unwrap());
    let mut e = Engine::create_durable(TABLED_P, log).unwrap();
    assert_eq!(e.count("t(X)").unwrap(), 1);
    assert_eq!(e.load_object(&three_p_facts()).unwrap(), 3);
    assert_eq!(e.count("t(X)").unwrap(), 4, "stale t/1 table");
}

/// Loaded facts are logged before they are applied, so they survive a
/// crash that keeps only what was fsynced.
#[test]
fn load_object_is_logged() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(TABLED_P, log).unwrap();
    e.load_object(&three_p_facts()).unwrap();
    drop(e);
    let img = fs.lock().unwrap().crash_image(CrashMode::SyncedOnly);
    let (mut e2, _) = reopen(img);
    assert_facts(&mut e2, &[0, 1, 2, 3], "after load_object");
    assert_eq!(e2.count("t(X)").unwrap(), 4);
}

/// A multi-clause load outside a transaction is one implicit transaction:
/// a crash at any byte of its records recovers none or all of the facts.
#[test]
fn crash_mid_load_object_recovers_none_or_all() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(TABLED_P, log.clone()).unwrap();
    let start = log.size();
    e.load_object(&three_p_facts()).unwrap();
    let end = log.size();
    drop(e);
    for k in start..=end {
        let img = fs.lock().unwrap().crash_image(CrashMode::Exact { at: k });
        let (mut e2, _) = reopen(img);
        let expected: &[i64] = if k == end { &[0, 1, 2, 3] } else { &[0] };
        assert_facts(&mut e2, expected, &format!("load cut at byte {k}"));
    }
}

/// Explicit transactions: committed work survives a crash, aborted and
/// in-flight (no Commit record) work does not.
#[test]
fn transaction_commit_abort_and_inflight_crash() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(PROGRAM, log).unwrap();
    e.query("begin_transaction").unwrap();
    e.query("assert(p(1))").unwrap();
    e.query("commit_transaction").unwrap();
    e.query("begin_transaction").unwrap();
    e.query("assert(p(2))").unwrap();
    e.query("abort_transaction").unwrap();
    // abort rolls the live engine back too
    assert_eq!(e.count("p(2)").unwrap(), 0);
    // in-flight: Begin + Assert on disk, no Commit — crash now
    e.query("begin_transaction").unwrap();
    e.query("assert(p(3))").unwrap();
    e.wal_flush().unwrap();
    drop(e);
    let img = fs
        .lock()
        .unwrap()
        .crash_image(CrashMode::Exact { at: u64::MAX });
    let (mut e2, report) = reopen(img);
    assert_facts(&mut e2, &[0, 1], "txn recovery");
    assert!(report.losers_undone > 0, "in-flight txn was not undone");
}

/// `checkpoint/0` truncates the log and preserves state exactly; records
/// appended after the checkpoint replay on top of the restored snapshot.
#[test]
fn checkpoint_truncates_and_recovers_exactly() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(PROGRAM, log.clone()).unwrap();
    for v in 1..=40i64 {
        e.query(&format!("assert(p({v}))")).unwrap();
    }
    for v in 1..=10i64 {
        e.query(&format!("retract(p({v}))")).unwrap();
    }
    let (before, after) = e.checkpoint().unwrap();
    assert!(
        after < before,
        "checkpoint must shrink the log ({before} -> {after})"
    );
    assert_eq!(log.size(), after);
    // post-checkpoint mutations land after the snapshot
    e.query("assert(p(100))").unwrap();
    drop(e);
    let img = fs
        .lock()
        .unwrap()
        .crash_image(CrashMode::Exact { at: u64::MAX });
    let (mut e2, report) = reopen(img);
    assert!(report.checkpoint_restored);
    let mut expected: Vec<i64> = vec![0, 100];
    expected.extend(11..=40);
    assert_facts(&mut e2, &expected, "checkpoint recovery");
}

/// A mutation that hits a dead disk fails loudly; the in-memory EDB stays
/// consistent (the fact is not applied) and reads keep working.
#[test]
fn live_kill_surfaces_error_and_preserves_consistency() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(PROGRAM, log).unwrap();
    e.query("assert(p(1))").unwrap();
    let dead_at = fs.lock().unwrap().written_len() + 4;
    fs.lock().unwrap().kill_at_byte(dead_at);
    assert!(e.query("assert(p(2))").is_err(), "dead disk must error");
    // WAL-before-data: the unlogged fact must not be in the EDB
    assert_eq!(e.count("p(2)").unwrap(), 0);
    assert_eq!(e.count("p(X)").unwrap(), 2);
}

/// Group commit defers fsync inside the window and batches commits into
/// one sync; `wal_flush` (and Drop) force the remainder down.
#[test]
fn group_commit_defers_and_batches_fsyncs() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(PROGRAM, log).unwrap();
    let base_syncs = fs.lock().unwrap().syncs;
    // a wide window: nothing inside this test should hit it
    e.set_group_commit_window_us(60_000_000);
    for v in 1..=25i64 {
        e.query(&format!("assert(p({v}))")).unwrap();
    }
    {
        let g = fs.lock().unwrap();
        assert_eq!(g.syncs, base_syncs, "window must defer fsyncs");
        assert!(g.written_len() > g.synced_len(), "appends buffered");
    }
    e.wal_flush().unwrap();
    {
        let g = fs.lock().unwrap();
        assert_eq!(g.syncs, base_syncs + 1, "one batched fsync");
        assert_eq!(g.written_len(), g.synced_len());
    }
    let m = e.metrics();
    assert!(m.get(Counter::WalAppends) >= 25);
    assert!(
        m.get(Counter::GroupCommitBatch) >= 25,
        "batched commits not accounted"
    );
}

/// `set_durability(off)` stops logging (mutations become volatile) and
/// `on` resumes it — the log only replays what was logged.
#[test]
fn durability_toggle_gates_logging() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let mut e = Engine::create_durable(PROGRAM, log.clone()).unwrap();
    e.query("set_durability(off)").unwrap();
    let s0 = log.size();
    e.query("assert(p(70))").unwrap();
    assert_eq!(log.size(), s0, "disabled durability still logged");
    e.query("set_durability(on)").unwrap();
    e.query("assert(p(71))").unwrap();
    assert!(log.size() > s0);
    assert_eq!(e.count("p(X)").unwrap(), 3); // live engine has both
    drop(e);
    let img = fs
        .lock()
        .unwrap()
        .crash_image(CrashMode::Exact { at: u64::MAX });
    let (mut e2, _) = reopen(img);
    // the unlogged fact is volatile by contract; the logged one survives
    assert_facts(&mut e2, &[0, 71], "toggle recovery");
}

/// Satellite 2 regression: a pool worker that diverged via a local
/// mutation, crashed, and recovered must (a) replay its local mutations
/// exactly once, (b) leave its siblings untouched, and (c) rejoin the
/// pool in the diverged state — while broadcasts still reach everyone.
#[test]
fn pool_divergence_crash_recover_rejoin() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let cfg = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };
    let pool =
        ServerPool::new_durable(":- dynamic f/1.\nf(1).\n", cfg.clone(), log.clone()).unwrap();
    pool.consult_all(":- dynamic g/1.\ng(5).\n").unwrap();
    // worker 0 diverges: a non-broadcast mutation to the shared-floor EDB
    pool.submit_count("assert(f(7))", Some(0)).wait().unwrap();
    assert_eq!(pool.submit_count("f(7)", Some(0)).wait().unwrap(), 1);
    assert_eq!(pool.submit_count("f(7)", Some(1)).wait().unwrap(), 0);
    drop(pool); // crash (Drop flushes; SyncedOnly keeps the honest prefix)
    let img = fs.lock().unwrap().crash_image(CrashMode::SyncedOnly);
    let log2 = Arc::new(DurableLog::open(Box::new(MemVfs::from_bytes(img))).unwrap());
    let pool = ServerPool::reopen_log(log2, cfg).unwrap();
    // (a) + (b): worker 0 has its fact back (once), worker 1 does not
    assert_eq!(pool.submit_count("f(7)", Some(0)).wait().unwrap(), 1);
    assert_eq!(pool.submit_count("f(7)", Some(1)).wait().unwrap(), 0);
    // broadcast state reached both workers through recovery
    for w in [0, 1] {
        assert_eq!(pool.submit_count("g(5)", Some(w)).wait().unwrap(), 1);
        assert_eq!(pool.submit_count("f(1)", Some(w)).wait().unwrap(), 1);
    }
    // (c) the pool still serves broadcasts after the rejoin
    pool.consult_all(":- dynamic h/1.\nh(9).\n").unwrap();
    for w in [0, 1] {
        assert_eq!(pool.submit_count("h(9)", Some(w)).wait().unwrap(), 1);
    }
}

/// Reopening a durable pool twice in a row (recover, run, crash again)
/// keeps converging to the same state — recovery output is itself a
/// valid recovery input.
#[test]
fn pool_double_crash_converges() {
    let fs = shared_failpoint();
    let log = Arc::new(DurableLog::open(Box::new(fs.clone())).unwrap());
    let cfg = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };
    let pool = ServerPool::new_durable(":- dynamic f/1.\nf(1).\n", cfg.clone(), log).unwrap();
    pool.submit_count("assert(f(2))", Some(1)).wait().unwrap();
    drop(pool);
    let img = fs.lock().unwrap().crash_image(CrashMode::SyncedOnly);
    let fs2 = shared_failpoint();
    {
        let mut g = fs2.lock().unwrap();
        g.append(&img).unwrap();
        g.sync().unwrap();
    }
    let log2 = Arc::new(DurableLog::open(Box::new(fs2.clone())).unwrap());
    let pool = ServerPool::reopen_log(log2, cfg.clone()).unwrap();
    pool.submit_count("assert(f(3))", Some(1)).wait().unwrap();
    drop(pool);
    let img2 = fs2.lock().unwrap().crash_image(CrashMode::SyncedOnly);
    let log3 = Arc::new(DurableLog::open(Box::new(MemVfs::from_bytes(img2))).unwrap());
    let pool = ServerPool::reopen_log(log3, cfg).unwrap();
    assert_eq!(pool.submit_count("f(X)", Some(1)).wait().unwrap(), 3);
    assert_eq!(pool.submit_count("f(X)", Some(0)).wait().unwrap(), 1);
}
