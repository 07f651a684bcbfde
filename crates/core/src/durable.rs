//! Durable EDB: WAL record schema, group commit, and transaction state.
//!
//! The paper's EDB (§4.2, §4.6) lives in dynamic predicates mutated by
//! `assert`/`retract`. This module makes those mutations durable: the
//! write path (`crate::edb`) encodes every mutation as a logical *redo
//! record* and appends it to a write-ahead log ([`xsb_storage::Wal`])
//! **before** it is applied to the in-memory clause store. Recovery
//! (`Engine::replay_wal`) is ARIES-style: an analysis pass classifies
//! transactions as winners or losers, a redo pass repeats history in LSN
//! order, and an undo pass rolls back loser transactions in reverse order.
//!
//! Record kinds (first payload byte):
//!
//! | kind | record      | payload after the kind byte                      |
//! |------|-------------|--------------------------------------------------|
//! | 1    | Begin       | `tx u64`                                         |
//! | 2    | Commit      | `tx u64`                                         |
//! | 3    | Abort       | `tx u64`                                         |
//! | 4    | Assert      | `tx u64, worker u16, flags u8, arity u16, name, canon` |
//! | 5    | Retract     | `tx u64, worker u16, flags u8, arity u16, name, canon` |
//! | 6    | Program     | `text` (initial consulted program source)        |
//! | 7    | Broadcast   | `text` (post-creation consulted source)          |
//! | 8    | Checkpoint  | snapshot of every dynamic predicate              |
//!
//! `tx == 0` marks an auto-committed mutation: it is durable iff its
//! record is on disk — no separate Commit record. Explicit transactions
//! (`begin_transaction/0`) get a lazily-written Begin and a fsynced
//! Commit/Abort. Functor names are serialized as *strings*, so a log is
//! replayable into a fresh engine whose symbol table interns in a
//! different order.
//!
//! Group commit: with a window of 0 µs every commit point fsyncs
//! immediately; with a positive window the fsync is deferred until the
//! oldest unsynced commit is older than the window, so concurrent
//! committers share one fsync (the batch size is reported through the
//! `group_commit_batch` counter).

use crate::cell::{Cell, Tag};
use crate::error::EngineError;
use crate::instr::PredId;
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xsb_obs::{Counter, Metrics, Stopwatch};
use xsb_storage::{FileVfs, Vfs, Wal};
use xsb_syntax::{Sym, SymbolTable};

/// Worker id marking a record that applies to every pool worker
/// (broadcast consults and standalone-engine mutations).
pub const WORKER_ALL: u16 = u16::MAX;

pub const KIND_BEGIN: u8 = 1;
pub const KIND_COMMIT: u8 = 2;
pub const KIND_ABORT: u8 = 3;
pub const KIND_ASSERT: u8 = 4;
pub const KIND_RETRACT: u8 = 5;
pub const KIND_PROGRAM: u8 = 6;
pub const KIND_BROADCAST: u8 = 7;
pub const KIND_CHECKPOINT: u8 = 8;

const FLAG_AT_FRONT: u8 = 1;
const FLAG_HAS_BODY: u8 = 2;

// ---------------------------------------------------------------------------
// records
// ---------------------------------------------------------------------------

/// A decoded WAL record (symbols interned into the decoding engine).
#[derive(Debug, Clone)]
pub enum Record {
    Begin {
        tx: u64,
    },
    Commit {
        tx: u64,
    },
    Abort {
        tx: u64,
    },
    Assert {
        tx: u64,
        worker: u16,
        name: Sym,
        arity: u16,
        at_front: bool,
        has_body: bool,
        canon: Vec<Cell>,
    },
    Retract {
        tx: u64,
        worker: u16,
        name: Sym,
        arity: u16,
        has_body: bool,
        canon: Vec<Cell>,
    },
    Program {
        text: String,
    },
    Broadcast {
        text: String,
    },
    Checkpoint {
        preds: Vec<SnapshotPred>,
    },
}

/// One dynamic predicate's clauses inside a Checkpoint record. Every
/// dynamic predicate appears — including empty ones — so replaying a
/// checkpoint can overwrite whatever earlier records re-created.
#[derive(Debug, Clone)]
pub struct SnapshotPred {
    pub name: Sym,
    pub arity: u16,
    /// `(has_body, canon)` per live clause, in clause (`seq`) order.
    pub clauses: Vec<(bool, Vec<Cell>)>,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Portable canon encoding: names as strings, one tag byte per cell.
fn put_canon(out: &mut Vec<u8>, canon: &[Cell], syms: &SymbolTable) {
    put_u32(out, canon.len() as u32);
    for &c in canon {
        match c.tag() {
            Tag::Int => {
                out.push(0);
                put_u64(out, c.int_value() as u64);
            }
            Tag::Con => {
                out.push(1);
                put_str(out, syms.name(c.sym()));
            }
            Tag::Fun => {
                let (f, n) = c.functor();
                out.push(2);
                put_str(out, syms.name(f));
                put_u16(out, n as u16);
            }
            Tag::TVar => {
                out.push(3);
                put_u16(out, c.tvar_index() as u16);
            }
            other => unreachable!("non-canonical cell tag {other:?} in WAL record"),
        }
    }
}

/// Bounds-checked little-endian reader over a record payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err("wal record truncated".into());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| "wal record has invalid utf-8".to_string())
    }
    fn sym(&mut self, syms: &mut SymbolTable) -> Result<Sym, String> {
        let s = self.str()?;
        Ok(syms.intern(&s))
    }
    fn canon(&mut self, syms: &mut SymbolTable) -> Result<Vec<Cell>, String> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => Cell::int(self.u64()? as i64),
                1 => Cell::con(self.sym(syms)?),
                2 => {
                    let f = self.sym(syms)?;
                    let n = self.u16()? as usize;
                    Cell::fun(f, n)
                }
                3 => Cell::tvar(self.u16()? as usize),
                t => return Err(format!("wal record has unknown cell tag {t}")),
            });
        }
        Ok(out)
    }
}

impl Record {
    pub fn kind(&self) -> u8 {
        match self {
            Record::Begin { .. } => KIND_BEGIN,
            Record::Commit { .. } => KIND_COMMIT,
            Record::Abort { .. } => KIND_ABORT,
            Record::Assert { .. } => KIND_ASSERT,
            Record::Retract { .. } => KIND_RETRACT,
            Record::Program { .. } => KIND_PROGRAM,
            Record::Broadcast { .. } => KIND_BROADCAST,
            Record::Checkpoint { .. } => KIND_CHECKPOINT,
        }
    }

    pub fn encode(&self, syms: &SymbolTable) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.push(self.kind());
        match self {
            Record::Begin { tx } | Record::Commit { tx } | Record::Abort { tx } => {
                put_u64(&mut out, *tx);
            }
            Record::Assert {
                tx,
                worker,
                name,
                arity,
                at_front,
                has_body,
                canon,
            } => {
                put_u64(&mut out, *tx);
                put_u16(&mut out, *worker);
                let mut flags = 0u8;
                if *at_front {
                    flags |= FLAG_AT_FRONT;
                }
                if *has_body {
                    flags |= FLAG_HAS_BODY;
                }
                out.push(flags);
                put_u16(&mut out, *arity);
                put_str(&mut out, syms.name(*name));
                put_canon(&mut out, canon, syms);
            }
            Record::Retract {
                tx,
                worker,
                name,
                arity,
                has_body,
                canon,
            } => {
                put_u64(&mut out, *tx);
                put_u16(&mut out, *worker);
                out.push(if *has_body { FLAG_HAS_BODY } else { 0 });
                put_u16(&mut out, *arity);
                put_str(&mut out, syms.name(*name));
                put_canon(&mut out, canon, syms);
            }
            Record::Program { text } | Record::Broadcast { text } => {
                put_str(&mut out, text);
            }
            Record::Checkpoint { preds } => {
                put_u32(&mut out, preds.len() as u32);
                for p in preds {
                    put_str(&mut out, syms.name(p.name));
                    put_u16(&mut out, p.arity);
                    put_u32(&mut out, p.clauses.len() as u32);
                    for (has_body, canon) in &p.clauses {
                        out.push(if *has_body { FLAG_HAS_BODY } else { 0 });
                        put_canon(&mut out, canon, syms);
                    }
                }
            }
        }
        out
    }

    pub fn decode(payload: &[u8], syms: &mut SymbolTable) -> Result<Record, String> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            KIND_BEGIN => Record::Begin { tx: r.u64()? },
            KIND_COMMIT => Record::Commit { tx: r.u64()? },
            KIND_ABORT => Record::Abort { tx: r.u64()? },
            KIND_ASSERT => {
                let tx = r.u64()?;
                let worker = r.u16()?;
                let flags = r.u8()?;
                let arity = r.u16()?;
                let name = r.sym(syms)?;
                let canon = r.canon(syms)?;
                Record::Assert {
                    tx,
                    worker,
                    name,
                    arity,
                    at_front: flags & FLAG_AT_FRONT != 0,
                    has_body: flags & FLAG_HAS_BODY != 0,
                    canon,
                }
            }
            KIND_RETRACT => {
                let tx = r.u64()?;
                let worker = r.u16()?;
                let flags = r.u8()?;
                let arity = r.u16()?;
                let name = r.sym(syms)?;
                let canon = r.canon(syms)?;
                Record::Retract {
                    tx,
                    worker,
                    name,
                    arity,
                    has_body: flags & FLAG_HAS_BODY != 0,
                    canon,
                }
            }
            KIND_PROGRAM => Record::Program { text: r.str()? },
            KIND_BROADCAST => Record::Broadcast { text: r.str()? },
            KIND_CHECKPOINT => {
                let np = r.u32()? as usize;
                let mut preds = Vec::with_capacity(np);
                for _ in 0..np {
                    let name = r.sym(syms)?;
                    let arity = r.u16()?;
                    let nc = r.u32()? as usize;
                    let mut clauses = Vec::with_capacity(nc);
                    for _ in 0..nc {
                        let flags = r.u8()?;
                        let canon = r.canon(syms)?;
                        clauses.push((flags & FLAG_HAS_BODY != 0, canon));
                    }
                    preds.push(SnapshotPred {
                        name,
                        arity,
                        clauses,
                    });
                }
                Record::Checkpoint { preds }
            }
            k => return Err(format!("wal record has unknown kind {k}")),
        };
        Ok(rec)
    }
}

/// Symbol-table-free peek at `(kind, tx)` — the analysis pass and log-open
/// metadata scan need only these. `tx` is 0 for kinds that carry none.
pub fn record_header(payload: &[u8]) -> Option<(u8, u64)> {
    let kind = *payload.first()?;
    let tx = match kind {
        KIND_BEGIN | KIND_COMMIT | KIND_ABORT | KIND_ASSERT | KIND_RETRACT => {
            u64::from_le_bytes(payload.get(1..9)?.try_into().ok()?)
        }
        _ => 0,
    };
    Some((kind, tx))
}

// ---------------------------------------------------------------------------
// the log
// ---------------------------------------------------------------------------

/// Result of appending a record: where it landed and whether the append
/// fsynced (and if so, how many pending commit points the fsync covered —
/// the group-commit batch).
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    pub lsn: u64,
    pub fsynced: bool,
    pub batched: u64,
}

/// What `Engine::replay_wal` found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// records on the surviving log
    pub scanned: u64,
    /// redo operations applied (asserts, retracts, consults, checkpoint)
    pub replayed: u64,
    /// distinct committed explicit transactions seen
    pub committed_txns: u64,
    /// loser-transaction operations rolled back in the undo pass
    pub losers_undone: u64,
    /// a Checkpoint record restored predicate snapshots
    pub checkpoint_restored: bool,
    /// redo ops tagged with this worker's own id — nonzero means a pool
    /// worker had diverged before the crash and must re-diverge on rejoin
    pub own_worker_ops: u64,
}

struct LogInner {
    wal: Wal,
    /// group-commit window; 0 = fsync at every commit point
    window_us: u64,
    /// commit points appended but not yet covered by an fsync
    unsynced_commits: u64,
    first_unsynced: Option<Instant>,
    /// high-water mark of fsynced bytes
    flushed_lsn: u64,
    /// transactions with a Begin on the log and no Commit/Abort yet
    active_txs: HashSet<u64>,
    /// retained consulted sources, replayed on checkpoint truncation
    program: Option<String>,
    broadcasts: Vec<String>,
}

impl LogInner {
    /// Retains the source text of a Program or Broadcast record: a
    /// checkpoint rewrites the log starting with these.
    fn retain_source(&mut self, kind: u8, payload: &[u8]) {
        if kind != KIND_PROGRAM && kind != KIND_BROADCAST {
            return;
        }
        match Record::decode(payload, &mut SymbolTable::new()) {
            Ok(Record::Program { text }) => self.program = Some(text),
            Ok(Record::Broadcast { text }) => self.broadcasts.push(text),
            _ => {}
        }
    }

    /// fsync now, folding all pending commit points into this batch.
    fn force(&mut self) -> io::Result<(bool, u64)> {
        self.wal.sync()?;
        let batched = self.unsynced_commits;
        self.unsynced_commits = 0;
        self.first_unsynced = None;
        Ok((true, batched))
    }
}

/// A shared, thread-safe durable log: the engine-level layer over
/// [`xsb_storage::Wal`]. One `DurableLog` serves one standalone engine or
/// every worker of a pool.
pub struct DurableLog {
    inner: Mutex<LogInner>,
    next_tx: AtomicU64,
}

fn ioerr(e: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl DurableLog {
    /// Opens (or creates) a log over any backing store. Scans surviving
    /// records to restore the txid allocator and the retained program /
    /// broadcast sources; a torn tail is truncated by the underlying
    /// [`Wal::open`].
    pub fn open(vfs: Box<dyn Vfs>) -> io::Result<DurableLog> {
        let (wal, _) = Wal::open(vfs)?;
        let bytes = wal.bytes()?;
        let scan = xsb_storage::scan_records(&bytes);
        // the surviving log's open transactions are losers, not active:
        // `active_txs` starts empty so later checkpoints are not refused
        let mut inner = LogInner {
            flushed_lsn: wal.size(),
            wal,
            window_us: 0,
            unsynced_commits: 0,
            first_unsynced: None,
            active_txs: HashSet::new(),
            program: None,
            broadcasts: Vec::new(),
        };
        let mut max_tx = 0u64;
        for span in &scan.records {
            let payload = &bytes[span.start..span.end];
            if let Some((kind, tx)) = record_header(payload) {
                max_tx = max_tx.max(tx);
                inner.retain_source(kind, payload);
            }
        }
        Ok(DurableLog {
            inner: Mutex::new(inner),
            next_tx: AtomicU64::new(max_tx + 1),
        })
    }

    /// Opens a file-backed log at `path`.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> io::Result<DurableLog> {
        DurableLog::open(Box::new(FileVfs::open(path)?))
    }

    /// True when the log holds no Program record yet (freshly created).
    pub fn is_fresh(&self) -> bool {
        self.inner.lock().unwrap().program.is_none()
    }

    /// The retained initial program source, if any.
    pub fn program_text(&self) -> Option<String> {
        self.inner.lock().unwrap().program.clone()
    }

    pub fn alloc_tx(&self) -> u64 {
        self.next_tx.fetch_add(1, Ordering::Relaxed)
    }

    pub fn set_group_window_us(&self, us: u64) {
        self.inner.lock().unwrap().window_us = us;
    }

    pub fn group_window_us(&self) -> u64 {
        self.inner.lock().unwrap().window_us
    }

    /// Current log size in bytes (also the LSN the next record will get).
    pub fn size(&self) -> u64 {
        self.inner.lock().unwrap().wal.size()
    }

    /// Appends an encoded record. `commit_point` marks records after which
    /// the log must become durable (auto-commit mutations, Commit/Abort):
    /// with window 0 that fsyncs immediately, otherwise the fsync is
    /// deferred until the oldest pending commit exceeds the window.
    pub fn append_payload(&self, payload: &[u8], commit_point: bool) -> io::Result<Ack> {
        let mut inner = self.inner.lock().unwrap();
        // maintain open-log metadata by kind
        if let Some((kind, tx)) = record_header(payload) {
            match kind {
                KIND_BEGIN => {
                    inner.active_txs.insert(tx);
                }
                KIND_COMMIT | KIND_ABORT => {
                    inner.active_txs.remove(&tx);
                }
                _ => inner.retain_source(kind, payload),
            }
        }
        let lsn = inner.wal.append(payload)?;
        let mut fsynced = false;
        let mut batched = 0;
        if commit_point {
            inner.unsynced_commits += 1;
            if inner.first_unsynced.is_none() {
                inner.first_unsynced = Some(Instant::now());
            }
            let due = inner.window_us == 0
                || inner
                    .first_unsynced
                    .map(|t| t.elapsed().as_micros() as u64 >= inner.window_us)
                    .unwrap_or(true);
            if due {
                let (f, b) = inner.force()?;
                fsynced = f;
                batched = b;
            }
        }
        if fsynced {
            inner.flushed_lsn = inner.wal.size();
        }
        Ok(Ack {
            lsn,
            fsynced,
            batched,
        })
    }

    /// Encodes and appends a [`Record`].
    pub fn append_record(
        &self,
        rec: &Record,
        syms: &SymbolTable,
        commit_point: bool,
    ) -> io::Result<Ack> {
        self.append_payload(&rec.encode(syms), commit_point)
    }

    /// Forces any pending group-commit fsync. Returns `(did_fsync,
    /// commits_covered)`.
    pub fn flush(&self) -> io::Result<(bool, u64)> {
        let mut inner = self.inner.lock().unwrap();
        if inner.unsynced_commits == 0 && inner.wal.size() == inner.flushed_lsn {
            return Ok((false, 0));
        }
        let r = inner.force()?;
        inner.flushed_lsn = inner.wal.size();
        Ok(r)
    }

    /// All surviving record payloads with their LSNs, in log order.
    pub fn raw_records(&self) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let inner = self.inner.lock().unwrap();
        let bytes = inner.wal.bytes()?;
        let scan = xsb_storage::scan_records(&bytes);
        Ok(scan
            .records
            .into_iter()
            .map(|s| (s.lsn, bytes[s.start..s.end].to_vec()))
            .collect())
    }

    /// Fuzzy checkpoint: atomically rewrites the log as
    /// `[Program, Broadcast…, Checkpoint(snapshot)]`, truncating all
    /// per-mutation records the snapshot subsumes. Refuses while any
    /// explicit transaction is active (its records would be lost).
    /// Returns `(bytes_before, bytes_after)`.
    pub fn checkpoint(&self, snapshot: &Record, syms: &SymbolTable) -> io::Result<(u64, u64)> {
        debug_assert_eq!(snapshot.kind(), KIND_CHECKPOINT);
        let mut inner = self.inner.lock().unwrap();
        if !inner.active_txs.is_empty() {
            return Err(ioerr("checkpoint refused: explicit transactions active"));
        }
        let before = inner.wal.size();
        let mut payloads = Vec::new();
        if let Some(text) = &inner.program {
            payloads.push(Record::Program { text: text.clone() }.encode(syms));
        }
        for text in &inner.broadcasts {
            payloads.push(Record::Broadcast { text: text.clone() }.encode(syms));
        }
        payloads.push(snapshot.encode(syms));
        inner.wal.rewrite(&payloads)?;
        inner.unsynced_commits = 0;
        inner.first_unsynced = None;
        let after = inner.wal.size();
        inner.flushed_lsn = after;
        Ok((before, after))
    }
}

// ---------------------------------------------------------------------------
// per-engine connection + transactions
// ---------------------------------------------------------------------------

/// A worker's attachment to a [`DurableLog`].
pub struct DurableConn {
    pub log: Arc<DurableLog>,
    /// this engine's worker id ([`WORKER_ALL`] for standalone engines)
    pub worker: u16,
    /// `set_durability(off)` stops logging without detaching
    pub enabled: bool,
    /// non-zero while replaying or consulting text that is itself
    /// logged — suppresses per-mutation records
    pub suspended: u32,
    /// replay high-water mark (byte offset past the last applied record):
    /// records below it are skipped, making replay idempotent
    pub applied_lsn: u64,
}

impl DurableConn {
    pub fn active(&self) -> bool {
        self.enabled && self.suspended == 0
    }
}

/// An open explicit transaction (`begin_transaction/0`).
pub struct ActiveTxn {
    pub id: u64,
    /// Begin record written (done lazily at the first logged mutation)
    pub begun_logged: bool,
    /// in-memory undo actions, applied in reverse on abort
    pub undo: Vec<UndoEntry>,
}

/// How to undo one applied mutation.
pub enum UndoEntry {
    /// undo an assert: hide the inserted clause again
    Assert { pred: PredId, clause: u32 },
    /// undo a retract: revive the logically-deleted clause
    Retract { pred: PredId, clause: u32 },
}

pub(crate) fn werr(e: io::Error) -> EngineError {
    EngineError::Other(format!("wal: {e}"))
}

pub(crate) fn note_ack(metrics: &mut Metrics, ack: &Ack, latency: Option<Stopwatch>) {
    metrics.bump(Counter::WalAppends);
    if ack.fsynced {
        metrics.bump(Counter::WalFsyncs);
        metrics.add(Counter::GroupCommitBatch, ack.batched);
    }
    if let Some(sw) = latency {
        metrics.commit_latency.record(sw.elapsed_nanos());
    }
}

/// Appends `rec` to `log` and counts it; a commit point's append time
/// goes into the commit-latency histogram.
pub(crate) fn append(
    log: &DurableLog,
    syms: &SymbolTable,
    metrics: &mut Metrics,
    rec: &Record,
    commit_point: bool,
) -> Result<(), EngineError> {
    let sw = commit_point.then(Stopwatch::new);
    let ack = log.append_record(rec, syms, commit_point).map_err(werr)?;
    note_ack(metrics, &ack, sw);
    Ok(())
}

/// `begin_transaction/0`: opens an explicit transaction. Nesting is not
/// supported.
pub fn begin_txn(db: &mut crate::program::Program) -> Result<(), EngineError> {
    if db.txn.is_some() {
        return Err(EngineError::Other(
            "begin_transaction/0: a transaction is already active".into(),
        ));
    }
    let id = match db.durable.as_ref() {
        Some(c) => c.log.alloc_tx(),
        None => {
            let id = db.next_local_tx;
            db.next_local_tx += 1;
            id
        }
    };
    db.txn = Some(ActiveTxn {
        id,
        begun_logged: false,
        undo: Vec::new(),
    });
    Ok(())
}

/// `commit_transaction/0`: makes the open transaction durable (fsynced
/// Commit record) and closes it.
pub fn commit_txn(
    db: &mut crate::program::Program,
    syms: &SymbolTable,
    metrics: &mut Metrics,
) -> Result<(), EngineError> {
    let Some(t) = db.txn.take() else {
        return Err(EngineError::Other(
            "commit_transaction/0: no active transaction".into(),
        ));
    };
    match db.durable.as_ref() {
        Some(conn) if t.begun_logged => {
            append(&conn.log, syms, metrics, &Record::Commit { tx: t.id }, true)
        }
        _ => Ok(()),
    }
}

/// `abort_transaction/0`: rolls the open transaction back in memory
/// through the write path (which also invalidates the dependent tables)
/// and writes a durable Abort record.
pub(crate) fn abort_txn(edb: &mut crate::edb::Edb) -> Result<(), EngineError> {
    let Some(t) = edb.db.txn.take() else {
        return Err(EngineError::Other(
            "abort_transaction/0: no active transaction".into(),
        ));
    };
    edb.undo(t.undo);
    match edb.db.durable.as_ref() {
        Some(conn) if t.begun_logged => append(
            &conn.log,
            edb.syms,
            &mut edb.obs.metrics,
            &Record::Abort { tx: t.id },
            true,
        ),
        _ => Ok(()),
    }
}

/// Logs consulted source text as a Broadcast record (auto-commit). Used
/// by `Engine::consult` on a durable engine; the per-assert records
/// inside the consult are suppressed since the text subsumes them.
pub fn log_consult_text(
    db: &mut crate::program::Program,
    syms: &SymbolTable,
    metrics: &mut Metrics,
    text: &str,
) -> Result<bool, EngineError> {
    let Some(conn) = db.durable.as_ref().filter(|c| c.active()) else {
        return Ok(false);
    };
    let text = text.to_string();
    append(&conn.log, syms, metrics, &Record::Broadcast { text }, true)?;
    Ok(true)
}

/// Fuzzy checkpoint (`checkpoint/0` and [`crate::Engine::checkpoint`]):
/// snapshots every dynamic predicate of `db` and atomically truncates the
/// log to `[Program, Broadcast…, Checkpoint]`. Refused inside an open
/// transaction and on pool workers (one worker's snapshot cannot speak
/// for its siblings' worker-tagged records). Returns log bytes
/// `(before, after)`; the caller must invalidate nothing — the in-memory
/// EDB is unchanged.
pub fn checkpoint(
    db: &mut crate::program::Program,
    syms: &SymbolTable,
    metrics: &mut Metrics,
) -> Result<(u64, u64), EngineError> {
    if db.txn.is_some() {
        return Err(EngineError::Other(
            "checkpoint/0: refused inside an open transaction".into(),
        ));
    }
    let Some(conn) = db.durable.as_ref() else {
        return Err(EngineError::Other(
            "checkpoint/0: no durable log attached".into(),
        ));
    };
    if conn.worker != WORKER_ALL {
        return Err(EngineError::Other(
            "checkpoint/0: unsupported on pool workers".into(),
        ));
    }
    let log = Arc::clone(&conn.log);
    let mut preds: Vec<SnapshotPred> = Vec::new();
    for id in 0..db.preds.len() as crate::instr::PredId {
        if let Some(dp) = db.dyn_of(id) {
            let p = db.pred(id);
            let clauses = dp
                .all_live()
                .into_iter()
                .map(|cid| {
                    let c = dp.clause(cid);
                    (c.has_body, c.canon.to_vec())
                })
                .collect();
            preds.push(SnapshotPred {
                name: p.name,
                arity: p.arity,
                clauses,
            });
        }
    }
    let (before, after) = log
        .checkpoint(&Record::Checkpoint { preds }, syms)
        .map_err(werr)?;
    db.durable.as_mut().expect("attached").applied_lsn = after;
    metrics.bump(Counter::WalAppends);
    metrics.bump(Counter::WalFsyncs);
    Ok((before, after))
}

/// Logs the initial program source as a Program record (fsynced). Called
/// once at durable-engine/pool creation, after the text was consulted.
pub fn log_program(
    db: &mut crate::program::Program,
    syms: &SymbolTable,
    metrics: &mut Metrics,
    text: &str,
) -> Result<(), EngineError> {
    let Some(conn) = db.durable.as_ref() else {
        return Ok(());
    };
    let text = text.to_string();
    append(&conn.log, syms, metrics, &Record::Program { text }, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsb_storage::MemVfs;

    fn roundtrip(rec: Record) -> Record {
        let mut s1 = SymbolTable::new();
        // intern some noise so the decode table starts offset
        let mut s2 = SymbolTable::new();
        s2.intern("zzz");
        s2.intern("yyy");
        let enc = rec.encode(&s1);
        // encode used s1's names; re-encode after interning into s1
        let _ = &mut s1;
        Record::decode(&enc, &mut s2).unwrap()
    }

    #[test]
    fn record_roundtrip_is_name_portable() {
        let mut syms = SymbolTable::new();
        let foo = syms.intern("foo");
        let bar = syms.intern("bar");
        let rec = Record::Assert {
            tx: 7,
            worker: 3,
            name: foo,
            arity: 2,
            at_front: true,
            has_body: false,
            canon: vec![Cell::fun(bar, 1), Cell::int(42), Cell::tvar(0)],
        };
        let enc = rec.encode(&syms);
        let mut other = SymbolTable::new();
        other.intern("noise");
        let dec = Record::decode(&enc, &mut other).unwrap();
        match dec {
            Record::Assert {
                tx,
                worker,
                name,
                arity,
                at_front,
                has_body,
                canon,
            } => {
                assert_eq!(
                    (tx, worker, arity, at_front, has_body),
                    (7, 3, 2, true, false)
                );
                assert_eq!(other.name(name), "foo");
                match canon[0].tag() {
                    Tag::Fun => {
                        let (f, n) = canon[0].functor();
                        assert_eq!(other.name(f), "bar");
                        assert_eq!(n, 1);
                    }
                    t => panic!("expected Fun, got {t:?}"),
                }
                assert_eq!(canon[1], Cell::int(42));
                assert_eq!(canon[2], Cell::tvar(0));
            }
            r => panic!("wrong record {r:?}"),
        }
    }

    #[test]
    fn control_records_roundtrip() {
        for rec in [
            Record::Begin { tx: 1 },
            Record::Commit { tx: 2 },
            Record::Abort { tx: 3 },
            Record::Program {
                text: ":- dynamic p/1.".into(),
            },
        ] {
            let kind = rec.kind();
            let out = roundtrip(rec);
            assert_eq!(out.kind(), kind);
        }
    }

    #[test]
    fn record_header_peeks_tx() {
        let syms = SymbolTable::new();
        let enc = Record::Commit { tx: 99 }.encode(&syms);
        assert_eq!(record_header(&enc), Some((KIND_COMMIT, 99)));
        let enc = Record::Program { text: "x.".into() }.encode(&syms);
        assert_eq!(record_header(&enc), Some((KIND_PROGRAM, 0)));
    }

    #[test]
    fn group_commit_batches_under_window() {
        let log = DurableLog::open(Box::new(MemVfs::new())).unwrap();
        let syms = SymbolTable::new();
        // window 0: every commit point fsyncs, batch of 1
        let a1 = log
            .append_record(&Record::Commit { tx: 1 }, &syms, true)
            .unwrap();
        assert!(a1.fsynced);
        assert_eq!(a1.batched, 1);
        // huge window: commit points defer, flush covers them all
        log.set_group_window_us(60_000_000);
        let a2 = log
            .append_record(&Record::Commit { tx: 2 }, &syms, true)
            .unwrap();
        let a3 = log
            .append_record(&Record::Commit { tx: 3 }, &syms, true)
            .unwrap();
        assert!(!a2.fsynced && !a3.fsynced);
        let (synced, batched) = log.flush().unwrap();
        assert!(synced);
        assert_eq!(batched, 2);
    }

    #[test]
    fn open_restores_txid_allocator_and_program() {
        let syms = SymbolTable::new();
        let log = DurableLog::open(Box::new(MemVfs::new())).unwrap();
        assert!(log.is_fresh());
        log.append_record(
            &Record::Program {
                text: ":- dynamic p/1.".into(),
            },
            &syms,
            true,
        )
        .unwrap();
        log.append_record(&Record::Begin { tx: 41 }, &syms, false)
            .unwrap();
        log.append_record(&Record::Commit { tx: 41 }, &syms, true)
            .unwrap();
        let bytes = {
            let inner = log.inner.lock().unwrap();
            inner.wal.bytes().unwrap()
        };
        let log2 = DurableLog::open(Box::new(MemVfs::from_bytes(bytes))).unwrap();
        assert!(!log2.is_fresh());
        assert_eq!(log2.program_text().unwrap(), ":- dynamic p/1.");
        assert!(log2.alloc_tx() > 41);
    }

    #[test]
    fn checkpoint_refused_while_txn_active() {
        let syms = SymbolTable::new();
        let log = DurableLog::open(Box::new(MemVfs::new())).unwrap();
        log.append_record(&Record::Begin { tx: 1 }, &syms, false)
            .unwrap();
        let snap = Record::Checkpoint { preds: vec![] };
        assert!(log.checkpoint(&snap, &syms).is_err());
        log.append_record(&Record::Commit { tx: 1 }, &syms, true)
            .unwrap();
        let (before, after) = log.checkpoint(&snap, &syms).unwrap();
        assert!(after < before);
    }
}
