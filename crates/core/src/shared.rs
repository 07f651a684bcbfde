//! Shared read-only table store for the engine pool.
//!
//! Completed tables are immutable by construction (incremental
//! completion, paper §3.3): once an SCC completes, its answer arena never
//! changes. That makes a completed table the perfect artifact to share
//! across worker engines — a [`SharedFrame`] is a frozen snapshot of a
//! completed subgoal (canonical call, factored answer arena, spans) held
//! behind an `Arc`, so a table computed once by any worker serves warm
//! hits on every worker without recomputation and without copying cells.
//!
//! Consistency is epoch-based. The store keeps a generation counter that
//! every invalidation (assert/retract through the dependency graph,
//! `abolish_*`) bumps under the write lock, plus a log of `(epoch, pred)`
//! invalidation records. Each worker remembers the last epoch it
//! observed; before a query it replays the log suffix to invalidate its
//! *local* tables for the same predicates, and after a query it publishes
//! its freshly completed tables only if the epoch is still the one it
//! observed at query start. A worker that imported a shared frame
//! mid-query keeps serving from its local copy even if the store frame is
//! invalidated concurrently — the same call-time-view semantics local
//! invalidation has had since the cross-query cache landed. Budget
//! eviction removes frames *without* touching the epoch: an evicted frame
//! was valid data, so local copies may keep serving and in-flight
//! publishes need not be rejected (the cell accounting is already
//! serialized by the write lock).
//!
//! Safety of the sharing itself is structural: frames are never mutated
//! after publication, readers hold `Arc`s, and removal from the map only
//! drops the store's reference. A reader can observe a frame or not
//! observe it; there is no intermediate state to tear.
//!
//! Cold misses are coordinated, not just deduplicated after the fact. A
//! worker that misses both locally and in the store *claims* the
//! `(pred, call)` variant in an in-progress registry; concurrent workers
//! that miss on the same variant park on a condition variable instead of
//! recomputing the table N times, and import the frame the claimant
//! publishes. Claims are epoch-stamped — an invalidation voids every
//! older claim (the claimant's publish would be rejected anyway) and
//! wakes the waiters, one of which re-claims under the new epoch. The
//! wait is bounded ([`SharedTableStore::set_claim_wait_timeout`]): a
//! claimant that errors, diverges, or simply never publishes the variant
//! releases its claims at the end of its query, and a claimant that is
//! stuck (or whose thread died) is waited out, after which the waiter
//! computes the table itself — the pool can stall behind a claim for at
//! most the bounded wait, never deadlock.

use crate::cell::{Cell, Tag};
use crate::instr::PredId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// An immutable completed table: the publishable subset of a
/// `SubgoalFrame`, with the answer arena frozen behind an `Arc` so local
/// imports are zero-copy.
#[derive(Debug)]
pub struct SharedFrame {
    pub pred: PredId,
    /// canonical call-argument tuple (variant key)
    pub canon: Arc<[Cell]>,
    /// number of distinct variables in the call
    pub nvars: u32,
    /// the frozen answer arena (substitution-factored bindings)
    pub cells: Arc<[Cell]>,
    /// `(offset, len)` of each answer in `cells`
    pub spans: Vec<(u32, u32)>,
    /// store epoch this frame was computed under
    pub epoch: u64,
    /// monotone hit stamp for least-recently-hit eviction
    last_hit: AtomicU64,
}

impl SharedFrame {
    pub fn new(
        pred: PredId,
        canon: Arc<[Cell]>,
        nvars: u32,
        cells: Arc<[Cell]>,
        spans: Vec<(u32, u32)>,
        epoch: u64,
    ) -> SharedFrame {
        SharedFrame {
            pred,
            canon,
            nvars,
            cells,
            spans,
            epoch,
            last_hit: AtomicU64::new(0),
        }
    }

    /// Arena cells held (budget accounting unit).
    pub fn cells_len(&self) -> u64 {
        self.cells.len() as u64
    }
}

/// True iff every `Con`/`Fun` cell of `seq` names a symbol below `floor`.
/// Workers intern identically only for the program text they all
/// consulted; symbols created later (by per-worker queries) may mean
/// different names on different workers, so frames mentioning them must
/// stay worker-local.
pub fn cells_below_sym_floor(seq: &[Cell], floor: u32) -> bool {
    seq.iter().all(|c| match c.tag() {
        Tag::Con => c.sym().0 < floor,
        Tag::Fun => c.functor().0 .0 < floor,
        _ => true,
    })
}

struct Inner {
    /// current generation; bumped by every invalidation
    epoch: u64,
    /// pred → variant → frame
    frames: HashMap<PredId, HashMap<Arc<[Cell]>, Arc<SharedFrame>>>,
    /// invalidation records `(epoch-after-bump, pred)`, oldest first
    log: Vec<(u64, PredId)>,
    /// epochs at or below this are no longer covered by `log` (the log is
    /// compacted); a worker that far behind must invalidate everything
    log_floor: u64,
    /// answer cells currently held across all frames
    total_cells: u64,
    /// answer-store budget in cells; `None` = unbounded
    budget_cells: Option<u64>,
}

const LOG_CAP: usize = 4096;

/// Default bound on how long a worker parks behind another worker's
/// in-progress claim before falling back to computing the table itself.
/// Generous because the fallback duplicates a whole table computation;
/// bounded because a wedged claimant must never wedge the pool.
const DEFAULT_CLAIM_WAIT: Duration = Duration::from_secs(5);

/// Result of [`SharedTableStore::claim_or_wait`] — the cold-miss
/// coordination verdict for one `(pred, call)` variant.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// The caller owns the in-progress claim: it computes the table and
    /// must end the claim with a publish or a
    /// [`SharedTableStore::release_claims`] quoting the `epoch` stamp the
    /// claim was granted under. `parked` is true when the claim was
    /// acquired after waiting out a previous claimant that released (or
    /// was voided) without publishing.
    Claimed { parked: bool, epoch: u64 },
    /// The variant's completed frame is available — published before the
    /// call or by the claimant while the caller was parked.
    Published {
        frame: Arc<SharedFrame>,
        parked: bool,
    },
    /// The bounded wait expired without a frame; the caller computes the
    /// table locally *without* a claim (its publish attempt at end of
    /// query still dedups against the store as usual).
    TimedOut { parked: bool },
}

/// In-progress cold-subgoal claims: `pred → variant → epoch stamp`. A
/// claim stamped under a superseded epoch is void — the claimant's
/// publish would be rejected anyway, so waiters take the claim over (or
/// invalidation clears it wholesale) instead of parking behind it.
type ClaimMap = HashMap<PredId, HashMap<Arc<[Cell]>, u64>>;

/// The pool-wide store of completed tables. All methods are safe to call
/// from any thread; the store itself holds no interior `Rc`/`Cell` state.
///
/// Lock order: the claim mutex may be taken and *then* `inner` (the
/// claim/wait loop probes while holding the registry so a publish cannot
/// slip between its probe and its park). No path acquires the claim
/// mutex while holding `inner` — writers finish their `inner` critical
/// section first and touch the registry after.
pub struct SharedTableStore {
    inner: RwLock<Inner>,
    /// monotone probe counter feeding `SharedFrame::last_hit`
    hit_seq: AtomicU64,
    /// in-progress subgoal registry (cold-miss claim/wait coordination)
    claims: Mutex<ClaimMap>,
    /// parked cold-miss waiters; notified on publish, claim release,
    /// invalidation (claims voided), and budget eviction
    claims_cv: Condvar,
    /// bounded park duration in nanoseconds
    claim_wait_ns: AtomicU64,
}

impl Default for SharedTableStore {
    fn default() -> Self {
        SharedTableStore {
            inner: RwLock::new(Inner {
                epoch: 0,
                frames: HashMap::new(),
                log: Vec::new(),
                log_floor: 0,
                total_cells: 0,
                budget_cells: None,
            }),
            hit_seq: AtomicU64::new(1),
            claims: Mutex::new(HashMap::new()),
            claims_cv: Condvar::new(),
            claim_wait_ns: AtomicU64::new(DEFAULT_CLAIM_WAIT.as_nanos() as u64),
        }
    }
}

/// What [`SharedTableStore::sync_from`] tells a worker to invalidate
/// locally.
#[derive(Debug, PartialEq, Eq)]
pub enum SyncAction {
    /// Nothing changed since the worker's last sync.
    UpToDate,
    /// Invalidate the local tables of exactly these predicates.
    Preds(Vec<PredId>),
    /// The worker is too far behind the compacted log (or the store was
    /// cleared): invalidate every local table.
    All,
}

impl SharedTableStore {
    pub fn new() -> SharedTableStore {
        SharedTableStore::default()
    }

    /// Current generation counter.
    pub fn epoch(&self) -> u64 {
        self.inner.read().expect("store lock").epoch
    }

    /// Looks up a completed table for this variant call and stamps it for
    /// the eviction policy. The returned `Arc` stays valid regardless of
    /// concurrent invalidation or eviction.
    pub fn probe(&self, pred: PredId, canon: &[Cell]) -> Option<Arc<SharedFrame>> {
        let inner = self.inner.read().expect("store lock");
        let f = inner.frames.get(&pred)?.get(canon)?;
        f.last_hit.store(
            self.hit_seq.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Some(f.clone())
    }

    /// Existence check without stamping the eviction clock (used by
    /// publishers to skip variants already in the store).
    pub fn contains(&self, pred: PredId, canon: &[Cell]) -> bool {
        let inner = self.inner.read().expect("store lock");
        inner
            .frames
            .get(&pred)
            .is_some_and(|m| m.contains_key(canon))
    }

    /// Publishes a completed table. The first publisher of a variant wins
    /// — concurrent workers that computed the same table keep their local
    /// copies, which is the safe form of deduplication. The publish is
    /// rejected (returns `false`) when the store's epoch moved past
    /// `frame.epoch`, i.e. an invalidation landed while the frame was
    /// being computed, or when the variant is already present. Either way
    /// the frame now exists in the store, so any in-progress claim on the
    /// variant is ended and parked waiters are woken to import it; on a
    /// stale-epoch rejection the claim was already voided by the
    /// invalidation that moved the epoch.
    pub fn publish(&self, frame: Arc<SharedFrame>) -> bool {
        let (pred, canon) = (frame.pred, frame.canon.clone());
        let published = {
            let mut inner = self.inner.write().expect("store lock");
            if inner.epoch != frame.epoch {
                return false;
            }
            let by_canon = inner.frames.entry(frame.pred).or_default();
            if by_canon.contains_key(frame.canon.as_ref()) {
                false
            } else {
                let cells = frame.cells_len();
                by_canon.insert(frame.canon.clone(), frame);
                inner.total_cells += cells;
                self.enforce_budget_locked(&mut inner);
                true
            }
        };
        // the variant is in the store (inserted now or already there):
        // end its claim regardless of who stamped it and wake waiters
        let mut removed = false;
        let mut claims = self.claims.lock().expect("claim lock");
        if let Some(by_canon) = claims.get_mut(&pred) {
            removed = by_canon.remove(canon.as_ref()).is_some();
            if by_canon.is_empty() {
                claims.remove(&pred);
            }
        }
        drop(claims);
        if removed {
            self.claims_cv.notify_all();
        }
        published
    }

    /// Claim/wait coordination for a shared-floor cold miss: either the
    /// frame is already published (import it), or the caller becomes the
    /// claimant for the variant (compute it once pool-wide), or another
    /// worker holds a live claim — then park until the claimant publishes
    /// (wake → import), releases or is voided (wake → take the claim
    /// over), or the bounded wait expires (compute locally; the pool can
    /// never wedge behind a stuck claimant). Claims are epoch-stamped:
    /// a claim from before a mid-query invalidation is void, because its
    /// publish would be rejected — waiters do not honor it.
    pub fn claim_or_wait(&self, pred: PredId, canon: &[Cell]) -> ClaimOutcome {
        let deadline =
            Instant::now() + Duration::from_nanos(self.claim_wait_ns.load(Ordering::Relaxed));
        let mut parked = false;
        let mut claims = self.claims.lock().expect("claim lock");
        loop {
            // probe while holding the registry (claims → inner nesting,
            // see the struct docs) so a publish cannot land unseen
            // between this check and the park below
            if let Some(frame) = self.probe(pred, canon) {
                return ClaimOutcome::Published { frame, parked };
            }
            let epoch = self.epoch();
            match claims.get(&pred).and_then(|m| m.get(canon)).copied() {
                None => {
                    claims
                        .entry(pred)
                        .or_default()
                        .insert(Arc::from(canon), epoch);
                    return ClaimOutcome::Claimed { parked, epoch };
                }
                // a claim stamped under a superseded epoch is void (its
                // publish would be rejected): take it over
                Some(stamp) if stamp != epoch => {
                    claims
                        .entry(pred)
                        .or_default()
                        .insert(Arc::from(canon), epoch);
                    return ClaimOutcome::Claimed { parked, epoch };
                }
                Some(_) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return ClaimOutcome::TimedOut { parked };
                    }
                    parked = true;
                    let (guard, _) = self
                        .claims_cv
                        .wait_timeout(claims, deadline - now)
                        .expect("claim lock");
                    claims = guard;
                }
            }
        }
    }

    /// Releases claims a worker still holds at the end of its query (a
    /// claimed variant it never published: the query failed, diverged,
    /// the frame stayed incomplete, or it flunked a publish guard). Each
    /// claim is removed only when its epoch stamp matches — a voided
    /// claim that another worker took over is theirs now. Waiters are
    /// woken so one of them claims the variant and computes it.
    pub fn release_claims(&self, held: &[(PredId, Arc<[Cell]>, u64)]) {
        if held.is_empty() {
            return;
        }
        let mut removed = false;
        let mut claims = self.claims.lock().expect("claim lock");
        for (pred, canon, stamp) in held {
            if let Some(by_canon) = claims.get_mut(pred) {
                if by_canon.get(canon.as_ref()) == Some(stamp) {
                    by_canon.remove(canon.as_ref());
                    if by_canon.is_empty() {
                        claims.remove(pred);
                    }
                    removed = true;
                }
            }
        }
        drop(claims);
        if removed {
            self.claims_cv.notify_all();
        }
    }

    /// Bounds how long [`SharedTableStore::claim_or_wait`] parks behind
    /// an in-progress claim before falling back to local computation.
    /// `Duration::ZERO` disables parking entirely (cold misses behind a
    /// claim compute immediately).
    pub fn set_claim_wait_timeout(&self, d: Duration) {
        self.claim_wait_ns
            .store(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    pub fn claim_wait_timeout(&self) -> Duration {
        Duration::from_nanos(self.claim_wait_ns.load(Ordering::Relaxed))
    }

    /// Number of live in-progress claims (tests / introspection).
    pub fn claims_len(&self) -> usize {
        let claims = self.claims.lock().expect("claim lock");
        claims.values().map(|m| m.len()).sum()
    }

    /// Removes every frame of the given predicates, bumps the epoch once,
    /// and records one log entry per predicate — whether or not any frame
    /// existed, because other workers may hold *local* tables for them.
    /// Returns `(previous_epoch, new_epoch)`: the caller may fast-forward
    /// its sync watermark to `new_epoch` only when `previous_epoch`
    /// matches the watermark, otherwise other workers logged entries in
    /// between that its next sync must still replay.
    pub fn invalidate_preds(&self, preds: &[PredId]) -> (u64, u64) {
        let (prev, epoch) = {
            let mut inner = self.inner.write().expect("store lock");
            let prev = inner.epoch;
            if preds.is_empty() {
                return (prev, prev);
            }
            inner.epoch += 1;
            let epoch = inner.epoch;
            for &p in preds {
                if let Some(by_canon) = inner.frames.remove(&p) {
                    let freed: u64 = by_canon.values().map(|f| f.cells_len()).sum();
                    inner.total_cells -= freed;
                }
                inner.log.push((epoch, p));
            }
            Self::compact_log(&mut inner);
            (prev, epoch)
        };
        self.void_stale_claims(epoch);
        (prev, epoch)
    }

    /// Drops every claim stamped before `epoch` and wakes parked waiters:
    /// those claimants' publishes will be rejected by the epoch guard, so
    /// waiting on them is waiting for nothing — a woken waiter re-claims
    /// under the new epoch and computes the post-invalidation table.
    fn void_stale_claims(&self, epoch: u64) {
        let mut voided = false;
        let mut claims = self.claims.lock().expect("claim lock");
        claims.retain(|_, by_canon| {
            by_canon.retain(|_, &mut stamp| {
                let keep = stamp >= epoch;
                voided |= !keep;
                keep
            });
            !by_canon.is_empty()
        });
        drop(claims);
        if voided {
            self.claims_cv.notify_all();
        }
    }

    /// Drops every frame and forces a full local invalidation on every
    /// worker at its next sync (the `abolish_all_tables/0` path).
    pub fn clear(&self) -> u64 {
        let epoch = {
            let mut inner = self.inner.write().expect("store lock");
            inner.epoch += 1;
            inner.frames.clear();
            inner.total_cells = 0;
            inner.log.clear();
            inner.log_floor = inner.epoch;
            inner.epoch
        };
        self.void_stale_claims(epoch);
        epoch
    }

    /// What a worker that last synced at `seen` must invalidate locally.
    /// Returns the current epoch alongside the action; the worker stores
    /// that epoch as its new watermark.
    pub fn sync_from(&self, seen: u64) -> (u64, SyncAction) {
        let inner = self.inner.read().expect("store lock");
        if inner.epoch == seen {
            return (seen, SyncAction::UpToDate);
        }
        if seen < inner.log_floor {
            return (inner.epoch, SyncAction::All);
        }
        let mut preds: Vec<PredId> = inner
            .log
            .iter()
            .filter(|&&(e, _)| e > seen)
            .map(|&(_, p)| p)
            .collect();
        preds.sort_unstable();
        preds.dedup();
        (inner.epoch, SyncAction::Preds(preds))
    }

    /// Sets the shared answer-store budget in cells (`None` = unbounded)
    /// and enforces it immediately.
    pub fn set_budget(&self, cells: Option<u64>) {
        {
            let mut inner = self.inner.write().expect("store lock");
            inner.budget_cells = cells;
            self.enforce_budget_locked(&mut inner);
        }
        // an eviction may have removed a frame a parked waiter was about
        // to be woken for; wake everyone so they re-probe (a waiter that
        // finds neither frame nor claim re-claims and computes)
        self.claims_cv.notify_all();
    }

    pub fn budget(&self) -> Option<u64> {
        self.inner.read().expect("store lock").budget_cells
    }

    /// Answer cells currently held across all shared frames.
    pub fn total_cells(&self) -> u64 {
        self.inner.read().expect("store lock").total_cells
    }

    /// Number of shared frames.
    pub fn len(&self) -> usize {
        let inner = self.inner.read().expect("store lock");
        inner.frames.values().map(|m| m.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evicts least-recently-hit frames until the store fits its budget.
    /// Workers that already imported an evicted frame keep serving from
    /// their local copies: the data is still valid — eviction is a memory
    /// decision, not a correctness event — so the epoch is deliberately
    /// not bumped. Bumping it would reject every in-flight publish
    /// pool-wide after each eviction; the accounting an eviction changes
    /// (`total_cells`) is already serialized by the write lock, and a
    /// publish that re-adds an evicted variant just triggers another
    /// round of eviction.
    fn enforce_budget_locked(&self, inner: &mut Inner) {
        let Some(budget) = inner.budget_cells else {
            return;
        };
        if inner.total_cells <= budget {
            return;
        }
        let mut candidates: Vec<(u64, PredId, Arc<[Cell]>, u64)> = inner
            .frames
            .iter()
            .flat_map(|(&p, by_canon)| {
                by_canon.values().map(move |f| {
                    (
                        f.last_hit.load(Ordering::Relaxed),
                        p,
                        f.canon.clone(),
                        f.cells_len(),
                    )
                })
            })
            .collect();
        candidates.sort_unstable_by_key(|c| (c.0, c.1));
        for (_, pred, canon, cells) in candidates {
            if inner.total_cells <= budget {
                break;
            }
            if let Some(by_canon) = inner.frames.get_mut(&pred) {
                if by_canon.remove(canon.as_ref()).is_some() {
                    inner.total_cells -= cells;
                }
            }
        }
    }

    fn compact_log(inner: &mut Inner) {
        if inner.log.len() > LOG_CAP {
            let drop = inner.log.len() - LOG_CAP;
            inner.log_floor = inner.log[drop - 1].0;
            inner.log.drain(..drop);
        }
    }
}

impl std::fmt::Debug for SharedTableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().expect("store lock");
        f.debug_struct("SharedTableStore")
            .field("epoch", &inner.epoch)
            .field(
                "frames",
                &inner.frames.values().map(|m| m.len()).sum::<usize>(),
            )
            .field("total_cells", &inner.total_cells)
            .field("budget_cells", &inner.budget_cells)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(pred: PredId, key: &[Cell], cells: &[Cell], epoch: u64) -> Arc<SharedFrame> {
        Arc::new(SharedFrame::new(
            pred,
            Arc::from(key),
            1,
            Arc::from(cells),
            cells
                .iter()
                .enumerate()
                .map(|(i, _)| (i as u32, 1))
                .collect(),
            epoch,
        ))
    }

    #[test]
    fn publish_then_probe_roundtrip() {
        let s = SharedTableStore::new();
        let key = [Cell::tvar(0), Cell::int(1)];
        assert!(s.probe(3, &key).is_none());
        assert!(s.publish(frame(3, &key, &[Cell::int(7)], 0)));
        let f = s.probe(3, &key).expect("published frame found");
        assert_eq!(f.cells.as_ref(), &[Cell::int(7)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_cells(), 1);
    }

    #[test]
    fn first_publisher_wins() {
        let s = SharedTableStore::new();
        let key = [Cell::tvar(0)];
        assert!(s.publish(frame(0, &key, &[Cell::int(1)], 0)));
        assert!(!s.publish(frame(0, &key, &[Cell::int(2)], 0)), "duplicate");
        assert_eq!(s.probe(0, &key).unwrap().cells.as_ref(), &[Cell::int(1)]);
        assert_eq!(s.total_cells(), 1, "loser's cells not double-counted");
    }

    #[test]
    fn stale_epoch_publish_rejected() {
        let s = SharedTableStore::new();
        s.invalidate_preds(&[9]);
        assert_eq!(s.epoch(), 1);
        assert!(!s.publish(frame(0, &[Cell::tvar(0)], &[Cell::int(1)], 0)));
        assert!(s.publish(frame(0, &[Cell::tvar(0)], &[Cell::int(1)], 1)));
    }

    #[test]
    fn invalidate_removes_frames_and_logs_preds() {
        let s = SharedTableStore::new();
        assert!(s.publish(frame(3, &[Cell::tvar(0)], &[Cell::int(1)], 0)));
        assert!(s.publish(frame(4, &[Cell::tvar(0)], &[Cell::int(2)], 0)));
        let (prev, e) = s.invalidate_preds(&[3, 9]);
        assert_eq!((prev, e), (0, 1));
        assert!(s.probe(3, &[Cell::tvar(0)]).is_none());
        assert!(s.probe(4, &[Cell::tvar(0)]).is_some());
        assert_eq!(s.total_cells(), 1);
        // a worker that synced at epoch 0 learns both preds, including the
        // one that had no shared frame (it may hold local tables for it)
        let (epoch, action) = s.sync_from(0);
        assert_eq!(epoch, 1);
        assert_eq!(action, SyncAction::Preds(vec![3, 9]));
        // an up-to-date worker gets nothing
        assert_eq!(s.sync_from(1).1, SyncAction::UpToDate);
    }

    #[test]
    fn clear_forces_full_invalidation() {
        let s = SharedTableStore::new();
        assert!(s.publish(frame(3, &[Cell::tvar(0)], &[Cell::int(1)], 0)));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.sync_from(0).1, SyncAction::All);
        assert_eq!(s.sync_from(s.epoch()).1, SyncAction::UpToDate);
    }

    #[test]
    fn budget_evicts_least_recently_hit_without_epoch_bump() {
        let s = SharedTableStore::new();
        let cells: Vec<Cell> = (0..4).map(Cell::int).collect();
        assert!(s.publish(frame(1, &[Cell::tvar(0)], &cells, 0)));
        assert!(s.publish(frame(2, &[Cell::tvar(0)], &cells, 0)));
        s.probe(2, &[Cell::tvar(0)]).unwrap(); // 2 is hot, 1 is cold
        let before = s.epoch();
        s.set_budget(Some(6));
        assert!(s.probe(1, &[Cell::tvar(0)]).is_none(), "cold frame evicted");
        assert!(s.probe(2, &[Cell::tvar(0)]).is_some());
        assert!(s.total_cells() <= 6);
        // eviction is a memory decision, not a correctness event: the
        // epoch and the log are untouched, so worker watermarks stay
        // valid and nothing resyncs
        assert_eq!(s.epoch(), before);
        assert_eq!(s.sync_from(before).1, SyncAction::UpToDate);
        // an in-flight publish computed before the eviction still lands
        assert!(s.publish(frame(3, &[Cell::tvar(0)], &[Cell::int(9)], before)));
    }

    #[test]
    fn sym_floor_guard() {
        let hi = xsb_syntax::Sym(50);
        let seq = [Cell::con(hi), Cell::int(1)];
        assert!(cells_below_sym_floor(&seq, 51));
        assert!(!cells_below_sym_floor(&seq, 50));
        assert!(cells_below_sym_floor(&[Cell::int(9), Cell::tvar(0)], 0));
        assert!(!cells_below_sym_floor(&[Cell::fun(hi, 2)], 10));
    }

    #[test]
    fn log_compaction_degrades_to_full_invalidation() {
        let s = SharedTableStore::new();
        for i in 0..(LOG_CAP as u32 + 10) {
            s.invalidate_preds(&[i]);
        }
        // a worker at epoch 0 is behind the compacted floor
        assert_eq!(s.sync_from(0).1, SyncAction::All);
        // a recent worker still gets a precise pred list
        let recent = s.epoch() - 2;
        match s.sync_from(recent).1 {
            SyncAction::Preds(p) => assert_eq!(p.len(), 2),
            other => panic!("expected precise sync, got {other:?}"),
        }
    }

    #[test]
    fn store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedTableStore>();
        assert_send_sync::<SharedFrame>();
    }

    #[test]
    fn first_claimant_wins_and_publish_wakes_the_waiter() {
        let s = Arc::new(SharedTableStore::new());
        let key = [Cell::tvar(0)];
        let ClaimOutcome::Claimed {
            parked: false,
            epoch: 0,
        } = s.claim_or_wait(3, &key)
        else {
            panic!("empty store: first caller claims without parking");
        };
        assert_eq!(s.claims_len(), 1);
        // a second worker parks on the claim and imports the published
        // frame the moment it lands
        let waiter = {
            let s = s.clone();
            std::thread::spawn(move || s.claim_or_wait(3, &[Cell::tvar(0)]))
        };
        // give the waiter time to park (not load-bearing: the claim/wait
        // loop is correct whether or not it parked before the publish)
        std::thread::sleep(Duration::from_millis(20));
        assert!(s.publish(frame(3, &key, &[Cell::int(7)], 0)));
        assert_eq!(s.claims_len(), 0, "publish ends the claim");
        match waiter.join().unwrap() {
            ClaimOutcome::Published { frame, .. } => {
                assert_eq!(frame.cells.as_ref(), &[Cell::int(7)]);
            }
            other => panic!("waiter should import the published frame, got {other:?}"),
        }
    }

    #[test]
    fn stuck_claimant_is_waited_out_bounded() {
        let s = SharedTableStore::new();
        s.set_claim_wait_timeout(Duration::from_millis(30));
        let key = [Cell::tvar(0)];
        assert!(matches!(
            s.claim_or_wait(3, &key),
            ClaimOutcome::Claimed { .. }
        ));
        // the claimant never publishes (wedged / thread died): a waiter
        // parks for the bounded duration, then falls back
        let t0 = Instant::now();
        match s.claim_or_wait(3, &key) {
            ClaimOutcome::TimedOut { parked } => assert!(parked),
            other => panic!("expected bounded-wait fallback, got {other:?}"),
        }
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(30), "{waited:?}");
        assert!(waited < DEFAULT_CLAIM_WAIT, "wait is bounded: {waited:?}");
        // the fallback's own publish heals the leaked claim
        assert!(s.publish(frame(3, &key, &[Cell::int(1)], 0)));
        assert_eq!(s.claims_len(), 0);
    }

    #[test]
    fn zero_timeout_disables_parking() {
        let s = SharedTableStore::new();
        s.set_claim_wait_timeout(Duration::ZERO);
        let key = [Cell::tvar(0)];
        assert!(matches!(
            s.claim_or_wait(3, &key),
            ClaimOutcome::Claimed { .. }
        ));
        assert!(matches!(
            s.claim_or_wait(3, &key),
            ClaimOutcome::TimedOut { parked: false }
        ));
    }

    #[test]
    fn released_claim_is_taken_over_by_a_waiter() {
        let s = Arc::new(SharedTableStore::new());
        let key = [Cell::tvar(0)];
        let ClaimOutcome::Claimed { .. } = s.claim_or_wait(3, &key) else {
            panic!("first claim");
        };
        let waiter = {
            let s = s.clone();
            std::thread::spawn(move || s.claim_or_wait(3, &[Cell::tvar(0)]))
        };
        std::thread::sleep(Duration::from_millis(20));
        // the claimant finishes its query without publishing the variant
        // (failed guard / divergence): the release hands the claim over
        s.release_claims(&[(3, Arc::from(&key[..]), 0)]);
        match waiter.join().unwrap() {
            ClaimOutcome::Claimed { .. } => {}
            other => panic!("waiter should take over the claim, got {other:?}"),
        }
        assert_eq!(s.claims_len(), 1, "the taken-over claim is live");
    }

    #[test]
    fn invalidation_voids_stale_claims() {
        let s = SharedTableStore::new();
        let key = [Cell::tvar(0)];
        assert!(matches!(
            s.claim_or_wait(3, &key),
            ClaimOutcome::Claimed { .. }
        ));
        s.invalidate_preds(&[9]); // epoch bump voids the epoch-0 claim
        assert_eq!(s.claims_len(), 0);
        // a new caller claims immediately under the new epoch...
        assert!(matches!(
            s.claim_or_wait(3, &key),
            ClaimOutcome::Claimed {
                parked: false,
                epoch: 1
            }
        ));
        // ...and the stale claimant's release does not clobber it
        s.release_claims(&[(3, Arc::from(&key[..]), 0)]);
        assert_eq!(s.claims_len(), 1);
        // nor does its stale-epoch publish (rejected before touching
        // the new claim)
        assert!(!s.publish(frame(3, &key, &[Cell::int(1)], 0)));
        assert_eq!(s.claims_len(), 1);
    }

    #[test]
    fn probe_beats_claim_when_frame_already_published() {
        let s = SharedTableStore::new();
        let key = [Cell::tvar(0)];
        assert!(s.publish(frame(3, &key, &[Cell::int(7)], 0)));
        match s.claim_or_wait(3, &key) {
            ClaimOutcome::Published { frame, parked } => {
                assert!(!parked);
                assert_eq!(frame.cells.as_ref(), &[Cell::int(7)]);
            }
            other => panic!("expected immediate import, got {other:?}"),
        }
    }
}
