//! Table space (paper §3, §4.5).
//!
//! A separate memory area holding, per tabled subgoal: the canonicalized
//! call (the *variant* key), the answer store with a hash index for
//! duplicate elimination, the SLG bookkeeping for incremental completion
//! (depth-first number and `dir_link`), the suspended consumers, and any
//! negation suspensions waiting on the subgoal's completion.
//!
//! Answers are **substitution factored** (§4.5's promised integration of
//! indexing with answer storage, realized in Swift & Warren's follow-up
//! system): an answer is stored as the canonical bindings of the call's
//! distinct free variables only, never as the full argument tuple — the
//! ground skeleton of the call lives once in the frame's `canon` template.
//! A ground call degenerates to a single 0-width boolean answer with an
//! O(1) fast path. All answers of one subgoal share a bump arena of cells
//! ([`AnswerStore`]); an answer is a `(offset, len)` span, so recording an
//! answer costs one `extend_from_slice` and no per-answer allocation.
//!
//! Subgoal lookup is a hash on the canonical call; answer lookup hashes
//! the factored sequence — the two table indexes §4.5 describes.

use crate::cell::{Cell, Tag};
use crate::instr::{CodePtr, PredId};
use crate::machine::{Freeze, NONE};
use crate::shared::{
    cells_below_sym_floor, ClaimOutcome, SharedFrame, SharedTableStore, SyncAction,
};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use xsb_syntax::sym::SymbolTable;

pub type SubgoalId = u32;

/// Backing storage of an answer arena. A table built by this engine owns
/// its cells (`Local`); a completed table imported from (or published to)
/// the pool's shared store borrows the pool-wide `Arc` instead
/// (`Shared`), so cross-worker warm hits copy no answer cells and a
/// published table's arena is held in memory once. Derefs to `[Cell]`, so
/// every span-slicing call site works identically on both.
#[derive(Debug)]
pub enum Arena {
    Local(Vec<Cell>),
    Shared(Arc<[Cell]>),
}

impl Default for Arena {
    fn default() -> Self {
        Arena::Local(Vec::new())
    }
}

impl std::ops::Deref for Arena {
    type Target = [Cell];
    fn deref(&self) -> &[Cell] {
        match self {
            Arena::Local(v) => v,
            Arena::Shared(a) => a,
        }
    }
}

/// Bump-arena answer store (substitution factoring). Every answer's
/// canonical cells live in one contiguous vector; each answer is an
/// `(offset, len)` span into it. Duplicate detection is a sequence-hash
/// index over the spans.
#[derive(Debug, Default)]
pub struct AnswerStore {
    cells: Arena,
    spans: Vec<(u32, u32)>,
    /// sequence hash → answer ids with that hash
    index: HashMap<u64, Vec<u32>>,
}

impl AnswerStore {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The factored cell sequence of answer `i`.
    pub fn get(&self, i: usize) -> &[Cell] {
        let (off, len) = self.spans[i];
        &self.cells[off as usize..(off + len) as usize]
    }

    /// `(offset, len)` of answer `i` in the arena — callers that take the
    /// arena out (zero-copy answer return) slice it themselves.
    pub fn span(&self, i: usize) -> (u32, u32) {
        self.spans[i]
    }

    /// FNV-1a over the raw cell words (canonical cells are value cells;
    /// bitwise equality is term equality).
    fn hash_seq(seq: &[Cell]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for c in seq {
            h ^= c.0;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Hash-index duplicate probe without copying anything.
    pub fn contains(&self, seq: &[Cell]) -> bool {
        match self.index.get(&Self::hash_seq(seq)) {
            Some(ids) => ids.iter().any(|&i| self.get(i as usize) == seq),
            None => false,
        }
    }

    /// Appends an answer known to be new (the ground fast path, and
    /// `insert_if_new` after its probe). Only tables this engine is
    /// computing receive answers; shared-backed arenas are complete by
    /// construction.
    fn push_unchecked(&mut self, seq: &[Cell]) {
        let Arena::Local(cells) = &mut self.cells else {
            unreachable!("shared-backed stores are complete and never receive answers");
        };
        let off = cells.len() as u32;
        cells.extend_from_slice(seq);
        self.spans.push((off, seq.len() as u32));
    }

    /// Single-walk probe + insert: hashes once, compares only hash-equal
    /// candidates, and copies into the arena only when genuinely new.
    fn insert_if_new(&mut self, seq: &[Cell]) -> bool {
        let h = Self::hash_seq(seq);
        if let Some(ids) = self.index.get(&h) {
            if ids.iter().any(|&i| {
                let (off, len) = self.spans[i as usize];
                &self.cells[off as usize..(off + len) as usize] == seq
            }) {
                return false;
            }
        }
        let id = self.spans.len() as u32;
        self.push_unchecked(seq);
        self.index.entry(h).or_default().push(id);
        true
    }

    /// Arena cells held (the budget accounting unit).
    pub fn cells_len(&self) -> u64 {
        self.cells.len() as u64
    }

    /// Takes the arena out so the emulator can bind answers against the
    /// heap without holding a borrow of the table space. Must be paired
    /// with [`AnswerStore::put_cells`].
    pub fn take_cells(&mut self) -> Arena {
        std::mem::take(&mut self.cells)
    }

    pub fn put_cells(&mut self, cells: Arena) {
        debug_assert!(self.cells.is_empty(), "arena restored exactly once");
        self.cells = cells;
    }

    /// An answer store over a pool-shared arena (completed-table import).
    /// The duplicate index is not rebuilt: imported tables are complete,
    /// so they never receive or probe for new answers.
    fn from_shared(cells: Arc<[Cell]>, spans: Vec<(u32, u32)>) -> AnswerStore {
        AnswerStore {
            cells: Arena::Shared(cells),
            spans,
            index: HashMap::new(),
        }
    }

    /// Swaps the local arena for the identical pool-shared copy after a
    /// successful publish, so the cells live in memory once.
    fn back_with(&mut self, cells: Arc<[Cell]>) {
        debug_assert_eq!(&self.cells[..], &cells[..], "shared backing is identical");
        self.cells = Arena::Shared(cells);
    }
}

/// Completion state of a tabled subgoal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubgoalState {
    Incomplete,
    Complete,
}

/// How the generator treats a newly derived answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GenMode {
    /// batched scheduling: record and *proceed* (return the answer eagerly)
    Positive,
    /// called from `tnot`: record and fail (exhaustive search to completion)
    Negation,
    /// called from `e_tnot`: the first answer aborts the evaluation and
    /// frees the table if no one else uses it (paper §4.4)
    Existential,
}

/// One tabled subgoal.
#[derive(Debug)]
pub struct SubgoalFrame {
    pub pred: PredId,
    /// canonical call-argument tuple (variant key); `Arc` so a completed
    /// frame's key can be published to the pool-shared store as-is
    pub canon: Arc<[Cell]>,
    /// number of distinct variables in the call (factored answer width)
    pub nvars: u32,
    /// answers in derivation order, substitution factored: each entry is
    /// the canonical bindings of the call's distinct variables only
    pub store: AnswerStore,
    pub state: SubgoalState,
    pub mode: GenMode,
    /// generator's substitution factor: heap addresses of the call's
    /// distinct variables (valid only while the generator is live)
    pub subst: Vec<u32>,
    /// generator choice point index (machine-local)
    pub gen_cp: u32,
    /// SLG incremental-completion bookkeeping
    pub dfn: u32,
    pub dir_link: u32,
    /// next program clause to run (cursor into `clauses`)
    pub clause_cursor: u32,
    pub clauses: Rc<[CodePtr]>,
    /// consumer ids suspended on this subgoal
    pub consumers: Vec<u32>,
    /// negation/tfindall suspension ids waiting on completion
    pub negs: Vec<u32>,
    /// freeze registers at generator creation (restored at completion)
    pub saved_freeze: Freeze,
    /// position in the completion stack while incomplete
    pub compl_pos: u32,
    /// for `Existential` mode: the choice point to cut back to when the
    /// first answer arrives
    pub exist_cut_b: u32,
    /// true when the table was freed (`tcut` / existential negation /
    /// invalidation / eviction)
    pub deleted: bool,
    /// query-clock value when this table was created (see
    /// [`TableSpace::clock`]); `born < clock` means the table is being
    /// reused by a later query (a cross-query warm hit)
    pub born: u64,
    /// query-clock value of the most recent completed-table reuse; the
    /// eviction policy removes least-recently-hit tables first
    pub last_hit: u64,
    /// suspensions queued for scheduling after this (leader) subgoal's SCC
    /// completed; drained by the generator choice point's handler
    pub pending_negs: Vec<u32>,
}

impl SubgoalFrame {
    pub fn has_answers(&self) -> bool {
        !self.store.is_empty()
    }

    /// Number of recorded answers.
    pub fn answer_count(&self) -> usize {
        self.store.len()
    }
}

/// A suspended consumer of an incomplete table.
#[derive(Debug)]
pub struct Consumer {
    pub sub: SubgoalId,
    /// its choice point index
    pub cp: u32,
    /// the consumer call's substitution factor (heap addresses)
    pub subst: Vec<u32>,
    /// how many answers it has consumed
    pub cursor: u32,
    /// subgoal id of the leader currently scheduling this consumer
    /// (`NONE` when not scheduled)
    pub scheduled_by: u32,
    pub dead: bool,
}

/// What a completion-time suspension does when its subgoal completes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NegMode {
    /// `tnot`/`e_tnot`: resume (succeed) iff the completed table is empty
    Tnot,
    /// `tfindall/3`: resume unconditionally and build the answer list
    Tfindall { template: Cell, result: Cell },
}

/// A suspension waiting on subgoal completion (negation or tfindall).
#[derive(Debug)]
pub struct NegSusp {
    pub sub: SubgoalId,
    pub cp: u32,
    pub mode: NegMode,
    /// substitution factor of the suspended call (for tfindall decoding)
    pub subst: Vec<u32>,
    /// where execution continues if the suspension succeeds
    pub resume: crate::instr::CodePtr,
    pub done: bool,
}

/// The global table space. Completed tables persist across queries;
/// consumers, suspensions and the completion stack are per-query.
#[derive(Debug, Default)]
pub struct TableSpace {
    pub subgoals: Vec<SubgoalFrame>,
    lookup: HashMap<PredId, HashMap<Arc<[Cell]>, SubgoalId>>,
    pub consumers: Vec<Consumer>,
    pub negs: Vec<NegSusp>,
    /// incomplete generators, oldest first (DFN order)
    pub completion_stack: Vec<SubgoalId>,
    dfn_counter: u32,
    /// frames invalidated while still incomplete: the running query keeps
    /// its call-time view (logical-update semantics); the frames are freed
    /// at [`TableSpace::end_query`] so the *next* query recomputes them
    pending_invalidation: Vec<SubgoalId>,
    /// answer-store budget in cells; `None` = unbounded
    budget_cells: Option<u64>,
    /// query clock: bumped once per `end_query`, stamped into frames at
    /// creation (`born`) and on completed-table reuse (`last_hit`)
    clock: u64,
    /// connection to the pool-wide shared table store (engine pool only)
    shared: Option<SharedHandle>,
}

/// A worker engine's view of the pool's [`SharedTableStore`]: the store
/// itself, the symbol/predicate floors fixed when the worker attached
/// (only ids below the floors mean the same thing on every worker — ids
/// interned later, e.g. by per-worker queries, are worker-local), and the
/// last store epoch this worker synchronized with.
#[derive(Debug)]
pub struct SharedHandle {
    pub store: Arc<SharedTableStore>,
    pub sym_floor: u32,
    pub pred_floor: PredId,
    /// sync watermark: invalidation-log entries at or below this epoch
    /// have been replayed against this worker's local tables
    pub epoch_seen: u64,
    /// store epoch observed at the start of the current query; published
    /// frames are stamped with it, so a frame computed while *any*
    /// invalidation landed mid-query (even this worker's own) is rejected
    /// by the store's epoch guard instead of entering at the new epoch
    pub query_epoch: u64,
    /// true while applying a pool-broadcast update (`consult_all`): every
    /// worker applies the same mutation, so it diverges nobody's EDB
    pub broadcast: bool,
    /// set when a non-broadcast mutation touched a shared-floor
    /// predicate: this worker's EDB no longer matches the program the
    /// pool consulted, so tables it computes (or imports) would be
    /// inconsistent with one side — it detaches from answer sharing
    /// until a broadcast (or explicit resync) restores a coherent view
    /// (see [`TableSpace::resync_shared`])
    pub diverged: bool,
    /// in-progress claims this worker holds (`pred`, variant, epoch
    /// stamp); every claim is ended within the query that acquired it —
    /// by the publish of its variant or by the release sweep in
    /// [`TableSpace::publish_completed`] — so parked waiters on other
    /// workers never outwait a finished query
    pub claims: Vec<(PredId, Arc<[Cell]>, u64)>,
}

/// What [`TableSpace::shared_claim_or_wait`] resolved a shared-floor cold
/// miss to. `waited_ns` is the time spent in the registry (effectively
/// zero unless `parked`).
#[derive(Debug)]
pub enum SharedClaim {
    /// The call cannot use the shared store at all (no handle, diverged
    /// worker, or above a sharing floor): plain local computation.
    Unshared,
    /// This worker elected itself the pool-wide computer of the variant.
    Claimed { parked: bool, waited_ns: u64 },
    /// The variant's frame is available — published earlier or by the
    /// claimant this worker parked behind. Import instead of computing.
    Published {
        frame: Arc<SharedFrame>,
        parked: bool,
        waited_ns: u64,
    },
    /// Parked behind a claim that never produced a frame within the
    /// bounded wait: compute locally so the pool cannot wedge.
    TimedOut { parked: bool, waited_ns: u64 },
}

impl TableSpace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds an existing (non-deleted) table for this variant call.
    /// (`Rc<[Cell]>: Borrow<[Cell]>`, so no allocation per probe.)
    pub fn find(&self, pred: PredId, canon: &[Cell]) -> Option<SubgoalId> {
        self.lookup
            .get(&pred)
            .and_then(|m| m.get(canon))
            .copied()
            .filter(|&id| !self.subgoals[id as usize].deleted)
    }

    /// Creates a new subgoal table (generator side) and pushes it on the
    /// completion stack.
    #[allow(clippy::too_many_arguments)]
    pub fn new_subgoal(
        &mut self,
        pred: PredId,
        canon: Arc<[Cell]>,
        subst: Vec<u32>,
        clauses: Rc<[CodePtr]>,
        mode: GenMode,
        saved_freeze: Freeze,
        exist_cut_b: u32,
    ) -> SubgoalId {
        let id = self.subgoals.len() as SubgoalId;
        self.dfn_counter += 1;
        let dfn = self.dfn_counter;
        let compl_pos = self.completion_stack.len() as u32;
        self.subgoals.push(SubgoalFrame {
            pred,
            canon: canon.clone(),
            nvars: subst.len() as u32,
            store: AnswerStore::default(),
            state: SubgoalState::Incomplete,
            mode,
            subst,
            gen_cp: NONE,
            dfn,
            dir_link: dfn,
            clause_cursor: 0,
            clauses,
            consumers: Vec::new(),
            negs: Vec::new(),
            saved_freeze,
            compl_pos,
            exist_cut_b,
            deleted: false,
            born: self.clock,
            last_hit: self.clock,
            pending_negs: Vec::new(),
        });
        self.lookup.entry(pred).or_default().insert(canon, id);
        self.completion_stack.push(id);
        id
    }

    /// Records an answer given as a borrowed canonical sequence; returns
    /// `true` if it is new. Probe and insert are one walk — the sequence
    /// is copied into the frame's arena only when genuinely new, so
    /// duplicates (the common case on recursive workloads) allocate
    /// nothing. A ground call's empty sequence is the O(1) boolean fast
    /// path: no hashing, zero cells stored.
    pub fn add_answer(&mut self, sub: SubgoalId, seq: &[Cell]) -> bool {
        let f = &mut self.subgoals[sub as usize];
        if seq.is_empty() {
            // ground call: at most one (0-width) answer can ever exist
            if f.store.is_empty() {
                f.store.push_unchecked(seq);
                true
            } else {
                false
            }
        } else {
            f.store.insert_if_new(seq)
        }
    }

    /// Duplicate check without allocating (paper §4.5's answer index,
    /// now keyed on the factored sequence).
    pub fn has_answer(&self, sub: SubgoalId, seq: &[Cell]) -> bool {
        let f = &self.subgoals[sub as usize];
        if seq.is_empty() {
            !f.store.is_empty()
        } else {
            f.store.contains(seq)
        }
    }

    pub fn frame(&self, sub: SubgoalId) -> &SubgoalFrame {
        &self.subgoals[sub as usize]
    }

    pub fn frame_mut(&mut self, sub: SubgoalId) -> &mut SubgoalFrame {
        &mut self.subgoals[sub as usize]
    }

    /// The youngest incomplete generator (top of the completion stack) —
    /// the frame whose `dir_link` absorbs new dependencies.
    pub fn youngest(&self) -> Option<SubgoalId> {
        self.completion_stack.last().copied()
    }

    /// Registers a positive dependency of the current computation on `sub`
    /// (a consumer call or negation suspension on an incomplete table).
    pub fn note_dependency(&mut self, on: SubgoalId) {
        let dfn = self.subgoals[on as usize].dfn;
        if let Some(top) = self.youngest() {
            let f = &mut self.subgoals[top as usize];
            if dfn < f.dir_link {
                f.dir_link = dfn;
            }
        }
    }

    /// True iff `sub` is the leader of its SCC (its region can complete).
    pub fn is_leader(&self, sub: SubgoalId) -> bool {
        let f = &self.subgoals[sub as usize];
        f.dir_link == f.dfn
    }

    /// Propagates a non-leader's `dir_link` to the generator below it on
    /// the completion stack.
    pub fn propagate_dir_link(&mut self, sub: SubgoalId) {
        let f = &self.subgoals[sub as usize];
        let pos = f.compl_pos as usize;
        let dl = f.dir_link;
        if pos > 0 {
            let below = self.completion_stack[pos - 1];
            let g = &mut self.subgoals[below as usize];
            if dl < g.dir_link {
                g.dir_link = dl;
            }
        }
    }

    /// Subgoals of the SCC led by `leader`: the completion-stack segment
    /// from the leader to the top.
    pub fn scc_members(&self, leader: SubgoalId) -> Vec<SubgoalId> {
        let pos = self.subgoals[leader as usize].compl_pos as usize;
        self.completion_stack[pos..].to_vec()
    }

    /// Marks the SCC led by `leader` complete, pops it from the completion
    /// stack, and returns its members.
    pub fn complete_scc(&mut self, leader: SubgoalId) -> Vec<SubgoalId> {
        let members = self.scc_members(leader);
        for &m in &members {
            let f = &mut self.subgoals[m as usize];
            f.state = SubgoalState::Complete;
            f.subst.clear();
            // gen_cp stays: the generator choice point schedules this
            // frame's suspensions post-completion; end_query clears it
        }
        let pos = self.subgoals[leader as usize].compl_pos as usize;
        self.completion_stack.truncate(pos);
        members
    }

    /// Deletes the completion-stack segment from `sub` upward — the
    /// `tcut`/existential-negation table-freeing operation (paper §4.4).
    /// Completed inner tables are kept; incomplete ones are removed so
    /// later calls recompute them.
    pub fn delete_from(&mut self, sub: SubgoalId) -> Vec<SubgoalId> {
        let pos = self.subgoals[sub as usize].compl_pos as usize;
        let removed: Vec<SubgoalId> = self.completion_stack[pos..].to_vec();
        for &m in &removed {
            let f = &mut self.subgoals[m as usize];
            if f.state == SubgoalState::Incomplete {
                f.deleted = true;
                if let Some(m) = self.lookup.get_mut(&f.pred) {
                    m.remove(&f.canon);
                }
            }
        }
        self.completion_stack.truncate(pos);
        removed
    }

    /// True when `sub` has users other than the suspension anchored at
    /// choice point `excluded_cp` — the existential-negation/`tcut`
    /// table-freeing safety check (paper §4.4: "are there other users of
    /// the table?"). The emulator may only free the table when no live
    /// consumer and no *other* pending suspension still depends on it.
    pub fn has_other_users(&self, sub: SubgoalId, excluded_cp: u32) -> bool {
        let f = &self.subgoals[sub as usize];
        f.consumers
            .iter()
            .any(|&c| !self.consumers[c as usize].dead)
            || f.negs.iter().any(|&n| {
                let ns = &self.negs[n as usize];
                !ns.done && ns.cp != excluded_cp
            })
    }

    /// Hides a frame from future calls: marks it deleted and unlinks it
    /// from the subgoal index. The answer store is NOT released —
    /// in-flight choice points (`Alt::CompletedAnswers`) may still be
    /// iterating it.
    fn unlink_frame(&mut self, id: SubgoalId) {
        let (pred, canon) = {
            let f = &mut self.subgoals[id as usize];
            f.deleted = true;
            (f.pred, f.canon.clone())
        };
        // the lookup entry may already point at a younger frame for the
        // same variant; only remove it when it is really ours
        if let Some(m) = self.lookup.get_mut(&pred) {
            if m.get(canon.as_ref()).copied() == Some(id) {
                m.remove(canon.as_ref());
            }
        }
    }

    /// Releases a frame's answer store so [`TableSpace::answer_store_cells`]
    /// shrinks. Only safe when no choice point can still reach the answers.
    fn free_frame_memory(&mut self, id: SubgoalId) {
        let f = &mut self.subgoals[id as usize];
        f.store = AnswerStore::default();
        f.subst = Vec::new();
    }

    /// Fully frees one frame: unlink + release memory. Only safe between
    /// queries (eviction, end-of-query sweeps).
    fn kill_frame(&mut self, id: SubgoalId) {
        self.unlink_frame(id);
        self.free_frame_memory(id);
    }

    /// Invalidates `id`. Completed frames are hidden from new calls right
    /// away (a re-call recomputes) but keep their answer store until
    /// [`TableSpace::end_query`], since the running query may hold choice
    /// points into it. Incomplete frames stay fully visible — the running
    /// query keeps its call-time view — and die at `end_query`. Returns
    /// `true` if the frame was newly invalidated.
    fn invalidate_frame(&mut self, id: SubgoalId) -> bool {
        let f = &self.subgoals[id as usize];
        if f.deleted || self.pending_invalidation.contains(&id) {
            return false;
        }
        if f.state == SubgoalState::Complete {
            self.unlink_frame(id);
        }
        self.pending_invalidation.push(id);
        true
    }

    /// Invalidates every table of predicate `pred` (a dynamic predicate it
    /// depends on changed, or `abolish_table_pred/1`). Completed tables are
    /// hidden immediately (new calls recompute); incomplete ones keep
    /// serving the running query; both release memory at `end_query`.
    /// Returns the number of frames invalidated.
    pub fn invalidate_pred(&mut self, pred: PredId) -> usize {
        let mut n = 0;
        for id in 0..self.subgoals.len() as SubgoalId {
            if self.subgoals[id as usize].pred == pred && self.invalidate_frame(id) {
                n += 1;
            }
        }
        n
    }

    /// Abolishes the single table for one variant call (the
    /// `abolish_table_call/1` builtin). Returns `true` if such a table
    /// existed.
    pub fn abolish_call(&mut self, pred: PredId, canon: &[Cell]) -> bool {
        match self.find(pred, canon) {
            Some(id) => self.invalidate_frame(id),
            None => false,
        }
    }

    /// Records a completed-table reuse for the LRU eviction policy.
    pub fn touch(&mut self, sub: SubgoalId) {
        self.subgoals[sub as usize].last_hit = self.clock;
    }

    /// Current query-clock value (bumped once per [`TableSpace::end_query`]).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Sets the answer-store budget in cells (`None` = unbounded).
    /// Enforced between queries by [`TableSpace::enforce_budget`].
    pub fn set_budget(&mut self, cells: Option<u64>) {
        self.budget_cells = cells;
    }

    /// Evicts completed tables, least-recently-hit first (ties broken by
    /// age, oldest first), until the answer store fits the budget. Returns
    /// the evicted subgoal ids so the caller can record metrics.
    pub fn enforce_budget(&mut self) -> Vec<SubgoalId> {
        let Some(budget) = self.budget_cells else {
            return Vec::new();
        };
        let mut total = self.answer_store_cells();
        if total <= budget {
            return Vec::new();
        }
        let mut candidates: Vec<(u64, SubgoalId, u64)> = self
            .subgoals
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.deleted && f.state == SubgoalState::Complete)
            .map(|(id, f)| (f.last_hit, id as SubgoalId, f.store.cells_len()))
            .collect();
        candidates.sort_unstable();
        let mut evicted = Vec::new();
        for (_, id, cells) in candidates {
            if total <= budget {
                break;
            }
            self.kill_frame(id);
            total = total.saturating_sub(cells);
            evicted.push(id);
        }
        evicted
    }

    /// Clears per-query state: consumers, suspensions, completion stack,
    /// and any tables left incomplete (e.g. the user stopped after the
    /// first solution). Tables invalidated mid-query while incomplete are
    /// freed here, and the query clock advances so the next query's
    /// completed-table reuses count as cross-query hits.
    pub fn end_query(&mut self) {
        self.consumers.clear();
        self.negs.clear();
        self.completion_stack.clear();
        for f in &mut self.subgoals {
            if f.state == SubgoalState::Incomplete && !f.deleted {
                f.deleted = true;
                if let Some(m) = self.lookup.get_mut(&f.pred) {
                    m.remove(&f.canon);
                }
            }
            f.subst.clear();
            f.consumers.clear();
            f.negs.clear();
            f.gen_cp = NONE;
        }
        let pending = std::mem::take(&mut self.pending_invalidation);
        for id in pending {
            self.kill_frame(id);
        }
        self.clock += 1;
    }

    /// Removes every table (the `abolish_all_tables/0` builtin).
    pub fn abolish_all(&mut self) {
        self.subgoals.clear();
        self.lookup.clear();
        self.consumers.clear();
        self.negs.clear();
        self.completion_stack.clear();
        self.dfn_counter = 0;
        self.pending_invalidation.clear();
    }

    /// Total cells held by the answer stores.
    pub fn answer_store_cells(&self) -> u64 {
        self.subgoals.iter().map(|f| f.store.cells_len()).sum()
    }

    /// Number of live (non-deleted) tables.
    pub fn live_tables(&self) -> usize {
        self.subgoals.iter().filter(|f| !f.deleted).count()
    }

    // ---- pool-shared completed-table store ------------------------------

    /// Connects this table space to a pool-wide shared store. The floors
    /// are the symbol/predicate counts at attach time: every worker that
    /// consulted the same program before attaching agrees on ids below
    /// them, so only frames entirely below both floors are shared.
    pub fn attach_shared(
        &mut self,
        store: Arc<SharedTableStore>,
        sym_floor: u32,
        pred_floor: PredId,
    ) {
        let epoch_seen = store.epoch();
        self.shared = Some(SharedHandle {
            store,
            sym_floor,
            pred_floor,
            epoch_seen,
            query_epoch: epoch_seen,
            broadcast: false,
            diverged: false,
            claims: Vec::new(),
        });
    }

    pub fn shared_handle(&self) -> Option<&SharedHandle> {
        self.shared.as_ref()
    }

    /// Probes the pool store for a completed table of this variant call.
    /// Predicates at or above the attach floor are worker-local by
    /// definition and never probe; a diverged worker (see
    /// [`TableSpace::note_local_mutation`]) never probes either — shared
    /// frames reflect the pool's common database, not its own.
    pub fn shared_probe(&self, pred: PredId, canon: &[Cell]) -> Option<Arc<SharedFrame>> {
        let h = self.shared.as_ref()?;
        if h.diverged || pred >= h.pred_floor {
            return None;
        }
        h.store.probe(pred, canon)
    }

    /// Cold-miss coordination: probe the store, and on a miss claim the
    /// variant or wait behind the worker already computing it (see
    /// [`SharedTableStore::claim_or_wait`]). Calls that cannot be shared
    /// at all — no handle, diverged worker, above the predicate floor, or
    /// a canon mentioning above-floor symbols (worker-local ids that
    /// would collide bit-for-bit with *different* names on other
    /// workers) — return [`SharedClaim::Unshared`] without touching the
    /// registry. A granted claim is recorded on the handle and released
    /// no later than this query's [`TableSpace::publish_completed`].
    pub fn shared_claim_or_wait(&mut self, pred: PredId, canon: &[Cell]) -> SharedClaim {
        let Some(h) = &mut self.shared else {
            return SharedClaim::Unshared;
        };
        if h.diverged || pred >= h.pred_floor || !cells_below_sym_floor(canon, h.sym_floor) {
            return SharedClaim::Unshared;
        }
        let sw = Instant::now();
        let outcome = h.store.claim_or_wait(pred, canon);
        let waited_ns = sw.elapsed().as_nanos() as u64;
        match outcome {
            ClaimOutcome::Claimed { parked, epoch } => {
                h.claims.push((pred, Arc::from(canon), epoch));
                SharedClaim::Claimed { parked, waited_ns }
            }
            ClaimOutcome::Published { frame, parked } => SharedClaim::Published {
                frame,
                parked,
                waited_ns,
            },
            ClaimOutcome::TimedOut { parked } => SharedClaim::TimedOut { parked, waited_ns },
        }
    }

    /// Marks this worker's EDB as diverged from the pool's common program
    /// when a *non-broadcast* mutation of `pred` reaches a shared-floor
    /// predicate — either the mutated predicate itself or any of its
    /// tabled dependents `deps` lies below the floor. A diverged worker
    /// detaches from answer sharing permanently: it neither publishes nor
    /// imports (its answers would be inconsistent with the other workers'
    /// EDBs, and theirs with its own), but it keeps answering from its
    /// own database and keeps pushing invalidations pool-wide.
    pub fn note_local_mutation(&mut self, pred: PredId, deps: &[PredId]) {
        if let Some(h) = &mut self.shared {
            if !h.broadcast && (pred < h.pred_floor || deps.iter().any(|&d| d < h.pred_floor)) {
                h.diverged = true;
            }
        }
    }

    /// Marks this worker diverged regardless of floors. Used after WAL
    /// recovery replayed worker-*local* mutations: the recovered EDB
    /// differs from its siblings' the moment the worker rejoins the pool,
    /// exactly as if the original non-broadcast mutation had just run.
    pub fn force_diverge(&mut self) {
        if let Some(h) = &mut self.shared {
            h.diverged = true;
        }
    }

    /// Brackets a pool-broadcast update (`ServerPool::consult_all`):
    /// while set, mutations do not mark this worker as diverged, because
    /// every worker applies the same update.
    pub fn set_shared_broadcast(&mut self, on: bool) {
        if let Some(h) = &mut self.shared {
            h.broadcast = on;
        }
    }

    /// True when this worker has detached from answer sharing because its
    /// EDB diverged from the pool's common program.
    pub fn shared_diverged(&self) -> bool {
        self.shared.as_ref().is_some_and(|h| h.diverged)
    }

    /// Materializes a pool-shared completed table as a local frame: the
    /// canon and the answer arena are `Arc` clones (zero cell copies), the
    /// frame is born `Complete` with no clauses and never joins the
    /// completion stack. It is indexed like any local table, so later
    /// calls hit it without re-probing the store, and it participates in
    /// local budget eviction (killing it merely drops the `Arc`s).
    pub fn import_shared(&mut self, sf: &SharedFrame) -> SubgoalId {
        let id = self.subgoals.len() as SubgoalId;
        self.subgoals.push(SubgoalFrame {
            pred: sf.pred,
            canon: sf.canon.clone(),
            nvars: sf.nvars,
            store: AnswerStore::from_shared(sf.cells.clone(), sf.spans.clone()),
            state: SubgoalState::Complete,
            mode: GenMode::Positive,
            subst: Vec::new(),
            gen_cp: NONE,
            dfn: 0,
            dir_link: 0,
            clause_cursor: 0,
            clauses: Rc::from(&[][..]),
            consumers: Vec::new(),
            negs: Vec::new(),
            saved_freeze: Freeze::default(),
            compl_pos: NONE,
            exist_cut_b: NONE,
            deleted: false,
            born: self.clock,
            last_hit: self.clock,
            pending_negs: Vec::new(),
        });
        self.lookup
            .entry(sf.pred)
            .or_default()
            .insert(sf.canon.clone(), id);
        id
    }

    /// Publishes this engine's freshly completed tables into the pool
    /// store (call between queries, after `end_query`). A frame is
    /// publishable when it is live, complete, still locally backed, and
    /// entirely below the attach floors. The first worker to publish a
    /// variant wins; publishes computed under a superseded store epoch
    /// are rejected and simply retried after the next sync confirms the
    /// frame survived the invalidation. Frames are stamped
    /// with the epoch observed at *query start* — a mid-query
    /// invalidation (even this worker's own) moves the store past that
    /// stamp, so nothing computed astride an update can slip in at the
    /// new epoch. A diverged worker (see
    /// [`TableSpace::note_local_mutation`]) publishes nothing. On success
    /// the local arena is re-backed by the shared `Arc`, so the cells
    /// live once pool-wide. Returns the number of tables published.
    pub fn publish_completed(&mut self) -> usize {
        let Some(h) = &mut self.shared else {
            return 0;
        };
        // end every claim this query acquired, whatever happens below: a
        // published variant's claim is already gone (the publish removed
        // it), and the release of the rest is what lets parked waiters
        // take over variants this worker claimed but never published
        // (failed query, divergence, unpublishable frame)
        let held = std::mem::take(&mut h.claims);
        if h.diverged {
            h.store.release_claims(&held);
            return 0;
        }
        let mut published = 0;
        for f in &mut self.subgoals {
            if f.deleted
                || f.state != SubgoalState::Complete
                || f.pred >= h.pred_floor
                || matches!(f.store.cells, Arena::Shared(_))
                || !cells_below_sym_floor(&f.canon, h.sym_floor)
                || !cells_below_sym_floor(&f.store.cells, h.sym_floor)
            {
                continue;
            }
            if h.store.contains(f.pred, &f.canon) {
                continue; // someone already published this variant
            }
            let cells: Arc<[Cell]> = Arc::from(&f.store.cells[..]);
            let frame = Arc::new(SharedFrame::new(
                f.pred,
                f.canon.clone(),
                f.nvars,
                cells.clone(),
                f.store.spans.clone(),
                h.query_epoch,
            ));
            if h.store.publish(frame) {
                f.store.back_with(cells);
                published += 1;
            }
        }
        // claims whose variant was published above are already gone from
        // the registry (the publish ended them); this sweep releases the
        // ones that never became publishable frames
        h.store.release_claims(&held);
        published
    }

    /// Propagates a local invalidation (assert/retract/abolish through the
    /// dependency graph) to the pool store, so every worker drops the same
    /// tables at its next sync. Predicates at or above the attach floor
    /// are worker-local ids that would name a *different* predicate on
    /// another worker — they are invalidated locally only. Returns the
    /// number of predicates pushed pool-wide.
    pub fn shared_invalidate(&mut self, preds: &[PredId]) -> usize {
        let Some(h) = &mut self.shared else {
            return 0;
        };
        let below: Vec<PredId> = preds
            .iter()
            .copied()
            .filter(|&p| p < h.pred_floor)
            .collect();
        if below.is_empty() {
            return 0;
        }
        let (prev, new_epoch) = h.store.invalidate_preds(&below);
        // Fast-forward the sync watermark only when no other worker
        // logged entries since our last sync; otherwise leave it behind
        // so the next sync replays the interleaved entries (replaying our
        // own entries too is a harmless no-op — those tables are already
        // invalidated locally).
        if prev == h.epoch_seen {
            h.epoch_seen = new_epoch;
        }
        below.len()
    }

    /// Drops every table pool-wide (the `abolish_all_tables/0` path).
    /// Fast-forwarding the watermark here is safe even past other
    /// workers' interleaved log entries: the caller just abolished every
    /// local table, so there is nothing left for a replay to invalidate.
    pub fn shared_clear(&mut self) {
        if let Some(h) = &mut self.shared {
            h.epoch_seen = h.store.clear();
        }
    }

    /// Catches this worker up with invalidations other workers pushed
    /// since its last sync (call at query start). Local tables of the
    /// affected predicates are invalidated with the same deferred-free
    /// semantics as a local assert. Returns the number of local frames
    /// invalidated.
    pub fn sync_shared(&mut self) -> usize {
        let (epoch, action) = {
            let Some(h) = &self.shared else {
                return 0;
            };
            h.store.sync_from(h.epoch_seen)
        };
        if let Some(h) = &mut self.shared {
            h.epoch_seen = epoch;
            // the epoch this query's completed tables will be stamped
            // with at publication (see `publish_completed`)
            h.query_epoch = epoch;
        }
        let preds: Vec<PredId> = match action {
            SyncAction::UpToDate => return 0,
            SyncAction::Preds(preds) => preds,
            SyncAction::All => {
                // too far behind the store's compacted log (or the store
                // was cleared): invalidate every live local table
                let mut preds: Vec<PredId> = self
                    .subgoals
                    .iter()
                    .filter(|f| !f.deleted)
                    .map(|f| f.pred)
                    .collect();
                preds.sort_unstable();
                preds.dedup();
                preds
            }
        };
        preds.into_iter().map(|p| self.invalidate_pred(p)).sum()
    }

    /// Re-attaches a diverged worker to answer sharing. The worker's
    /// local tables of shared-floor predicates were computed against its
    /// private EDB, so every one of them is invalidated (deferred-free,
    /// like a local assert); the sync watermark fast-forwards to the
    /// store's current epoch since nothing older can affect a worker
    /// with no live shared-floor tables. Call only once the worker's
    /// program is coherent with the pool again (e.g. right after a
    /// `consult_broadcast` applied the same update everywhere). Returns
    /// the number of local frames invalidated, or 0 when the worker was
    /// not diverged (the flag is cleared either way).
    pub fn resync_shared(&mut self) -> usize {
        let (was_diverged, pred_floor) = {
            let Some(h) = &mut self.shared else {
                return 0;
            };
            let was = h.diverged;
            h.diverged = false;
            let epoch = h.store.epoch();
            h.epoch_seen = epoch;
            h.query_epoch = epoch;
            (was, h.pred_floor)
        };
        if !was_diverged {
            return 0;
        }
        let mut preds: Vec<PredId> = self
            .subgoals
            .iter()
            .filter(|f| !f.deleted && f.pred < pred_floor)
            .map(|f| f.pred)
            .collect();
        preds.sort_unstable();
        preds.dedup();
        preds.into_iter().map(|p| self.invalidate_pred(p)).sum()
    }
}

/// Renders one canonical term from the flattened pre-order cell sequence
/// starting at `pos`; returns the position after it. Canonical cells are
/// only `Con`/`Int`/`TVar`/`Fun` (lists appear as `'.'/2`).
fn format_canon_at(canon: &[Cell], pos: usize, syms: &SymbolTable, out: &mut String) -> usize {
    use crate::cell::Tag;
    let Some(&c) = canon.get(pos) else {
        out.push('?');
        return pos + 1;
    };
    match c.tag() {
        Tag::Con => {
            out.push_str(syms.name(c.sym()));
            pos + 1
        }
        Tag::Int => {
            out.push_str(&c.int_value().to_string());
            pos + 1
        }
        Tag::TVar => {
            out.push('_');
            out.push_str(&c.tvar_index().to_string());
            pos + 1
        }
        Tag::Fun => {
            let (f, arity) = c.functor();
            out.push_str(syms.name(f));
            out.push('(');
            let mut p = pos + 1;
            for i in 0..arity {
                if i > 0 {
                    out.push(',');
                }
                p = format_canon_at(canon, p, syms, out);
            }
            out.push(')');
            p
        }
        // Ref/Str/Lis never occur in canonical form
        _ => {
            out.push('?');
            pos + 1
        }
    }
}

/// Renders a canonical argument tuple as `(a1,...,an)` (or `` for arity 0).
pub fn format_canon(canon: &[Cell], syms: &SymbolTable) -> String {
    let mut out = String::new();
    let mut pos = 0;
    let mut first = true;
    while pos < canon.len() {
        out.push(if first { '(' } else { ',' });
        first = false;
        pos = format_canon_at(canon, pos, syms, &mut out);
    }
    if !first {
        out.push(')');
    }
    out
}

/// Position just past the canonical subterm starting at `pos` (pre-order
/// skip: a `Fun` cell owes `arity` more subterms).
pub fn skip_canon_term(seq: &[Cell], mut pos: usize) -> usize {
    let mut pending = 1usize;
    while pending > 0 {
        let c = seq[pos];
        pending -= 1;
        if c.tag() == Tag::Fun {
            pending += c.functor().1;
        }
        pos += 1;
    }
    pos
}

/// `(offset, len)` of each of the `count` top-level terms of a canonical
/// sequence, appended to `out` (cleared first). For a factored answer,
/// entry `k` is variable `k`'s binding.
pub fn canon_root_spans(seq: &[Cell], count: usize, out: &mut Vec<(u32, u32)>) {
    out.clear();
    let mut pos = 0usize;
    for _ in 0..count {
        let end = skip_canon_term(seq, pos);
        out.push((pos as u32, (end - pos) as u32));
        pos = end;
    }
    debug_assert_eq!(pos, seq.len(), "sequence has exactly `count` roots");
}

/// Renders one *factored* answer back into full call form: the frame's
/// canonical call template with every variable position replaced by its
/// binding from the factored sequence — what the answer *means*.
pub fn format_answer(
    template: &[Cell],
    answer: &[Cell],
    nvars: usize,
    syms: &SymbolTable,
) -> String {
    let mut spans: Vec<(u32, u32)> = Vec::with_capacity(nvars);
    canon_root_spans(answer, nvars, &mut spans);
    let mut out = String::new();
    let mut pos = 0;
    let mut first = true;
    while pos < template.len() {
        out.push(if first { '(' } else { ',' });
        first = false;
        pos = format_answer_at(template, pos, answer, &spans, syms, &mut out);
    }
    if !first {
        out.push(')');
    }
    out
}

/// Like [`format_canon_at`] over the template, but variable positions
/// recurse into the factored binding instead of printing `_k`.
fn format_answer_at(
    template: &[Cell],
    pos: usize,
    answer: &[Cell],
    spans: &[(u32, u32)],
    syms: &SymbolTable,
    out: &mut String,
) -> usize {
    let Some(&c) = template.get(pos) else {
        out.push('?');
        return pos + 1;
    };
    match c.tag() {
        Tag::TVar => {
            let (off, _) = spans[c.tvar_index()];
            format_canon_at(answer, off as usize, syms, out);
            pos + 1
        }
        Tag::Fun => {
            let (f, arity) = c.functor();
            out.push_str(syms.name(f));
            out.push('(');
            let mut p = pos + 1;
            for i in 0..arity {
                if i > 0 {
                    out.push(',');
                }
                p = format_answer_at(template, p, answer, spans, syms, out);
            }
            out.push(')');
            p
        }
        _ => format_canon_at(template, pos, syms, out),
    }
}

/// One line per answer of a subgoal frame, rendered in full call form
/// (factored answers are re-expanded through the call template; the ground
/// call's boolean answer prints as `yes`).
pub fn answer_listing(f: &SubgoalFrame, syms: &SymbolTable) -> String {
    let mut out = String::new();
    for i in 0..f.store.len() {
        let ans = f.store.get(i);
        let line = if f.nvars == 0 {
            "yes".to_string()
        } else {
            format_answer(&f.canon, ans, f.nvars as usize, syms)
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// One line per live subgoal table: predicate, canonical call, answer
/// count, completion state. The body of the `tables/0` builtin.
pub fn table_listing(
    tables: &TableSpace,
    db: &crate::program::Program,
    syms: &SymbolTable,
) -> String {
    let mut out = String::new();
    for f in tables.subgoals.iter().filter(|f| !f.deleted) {
        let pred = db.pred(f.pred);
        let state = match f.state {
            SubgoalState::Complete => "complete",
            SubgoalState::Incomplete => "incomplete",
        };
        out.push_str(&format!(
            "{}/{}{}: {} answers, {}\n",
            syms.name(pred.name),
            pred.arity,
            format_canon(&f.canon, syms),
            f.store.len(),
            state,
        ));
    }
    if out.is_empty() {
        out.push_str("no tables\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(cells: &[Cell]) -> Arc<[Cell]> {
        Arc::from(cells)
    }

    fn mk(ts: &mut TableSpace, pred: PredId, key: &[Cell]) -> SubgoalId {
        ts.new_subgoal(
            pred,
            canon(key),
            vec![],
            Rc::from(&[][..]),
            GenMode::Positive,
            Freeze::default(),
            NONE,
        )
    }

    #[test]
    fn subgoal_variant_lookup() {
        let mut ts = TableSpace::new();
        let key = [Cell::tvar(0), Cell::int(1)];
        let id = mk(&mut ts, 3, &key);
        assert_eq!(ts.find(3, &key), Some(id));
        assert_eq!(ts.find(4, &key), None);
        assert_eq!(ts.find(3, &[Cell::int(1), Cell::tvar(0)]), None);
    }

    #[test]
    fn answer_dedup() {
        let mut ts = TableSpace::new();
        let id = mk(&mut ts, 0, &[Cell::tvar(0)]);
        assert!(ts.add_answer(id, &[Cell::int(1)]));
        assert!(ts.add_answer(id, &[Cell::int(2)]));
        assert!(!ts.add_answer(id, &[Cell::int(1)]), "duplicate");
        assert_eq!(ts.frame(id).store.len(), 2);
        assert_eq!(ts.frame(id).store.get(0), &[Cell::int(1)]);
        assert_eq!(ts.frame(id).store.get(1), &[Cell::int(2)]);
    }

    #[test]
    fn answers_share_one_arena() {
        let mut ts = TableSpace::new();
        let id = mk(&mut ts, 0, &[Cell::tvar(0)]);
        ts.add_answer(id, &[Cell::fun(xsb_syntax::Sym(5), 1), Cell::int(1)]);
        ts.add_answer(id, &[Cell::int(7)]);
        let f = ts.frame(id);
        assert_eq!(f.store.span(0), (0, 2));
        assert_eq!(f.store.span(1), (2, 1), "bump allocation, no gaps");
        assert_eq!(f.store.cells_len(), 3);
        assert!(ts.has_answer(id, &[Cell::int(7)]));
        assert!(!ts.has_answer(id, &[Cell::int(8)]));
    }

    #[test]
    fn ground_call_boolean_answer_fast_path() {
        let mut ts = TableSpace::new();
        let id = mk(&mut ts, 0, &[Cell::int(1), Cell::int(2)]);
        assert!(!ts.has_answer(id, &[]));
        assert!(ts.add_answer(id, &[]), "first (empty) answer is new");
        assert!(!ts.add_answer(id, &[]), "a ground call has one answer");
        assert!(ts.has_answer(id, &[]));
        assert!(ts.frame(id).has_answers());
        assert_eq!(ts.frame(id).store.len(), 1);
        assert_eq!(ts.frame(id).store.get(0), &[] as &[Cell]);
        assert_eq!(ts.answer_store_cells(), 0, "boolean answers are free");
    }

    #[test]
    fn dfn_and_leader_detection() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 0, &[Cell::int(1)]);
        let b = mk(&mut ts, 0, &[Cell::int(2)]);
        assert!(ts.is_leader(a));
        assert!(ts.is_leader(b));
        // b consumes a → b's SCC merges downward
        // youngest is b; note dependency on a
        ts.note_dependency(a);
        assert!(!ts.is_leader(b));
        ts.propagate_dir_link(b);
        assert!(ts.is_leader(a), "a still its own leader");
        assert_eq!(ts.scc_members(a), vec![a, b]);
    }

    #[test]
    fn completion_marks_and_pops() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 0, &[Cell::int(1)]);
        let b = mk(&mut ts, 0, &[Cell::int(2)]);
        ts.note_dependency(a);
        let done = ts.complete_scc(a);
        assert_eq!(done, vec![a, b]);
        assert_eq!(ts.frame(a).state, SubgoalState::Complete);
        assert_eq!(ts.frame(b).state, SubgoalState::Complete);
        assert!(ts.completion_stack.is_empty());
    }

    #[test]
    fn delete_from_removes_incomplete_only() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 0, &[Cell::int(1)]);
        let b = mk(&mut ts, 0, &[Cell::int(2)]);
        // complete b first (inner SCC)
        ts.complete_scc(b);
        let removed = ts.delete_from(a);
        assert_eq!(removed, vec![a]);
        assert!(ts.frame(a).deleted);
        assert!(!ts.frame(b).deleted, "completed table survives tcut");
        assert_eq!(ts.find(0, &[Cell::int(2)]), Some(b));
        assert_eq!(ts.find(0, &[Cell::int(1)]), None);
    }

    #[test]
    fn end_query_purges_incomplete() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 0, &[Cell::int(1)]);
        let b = mk(&mut ts, 0, &[Cell::int(2)]);
        ts.complete_scc(b);
        ts.end_query();
        assert!(ts.frame(a).deleted);
        assert!(!ts.frame(b).deleted);
        assert_eq!(ts.live_tables(), 1);
    }

    #[test]
    fn invalidate_pred_frees_completed_and_defers_incomplete() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 7, &[Cell::int(1)]);
        ts.add_answer(a, &[Cell::int(9)]);
        ts.complete_scc(a);
        let b = mk(&mut ts, 7, &[Cell::int(2)]); // still incomplete
        let other = mk(&mut ts, 8, &[Cell::int(1)]);
        ts.complete_scc(other);
        assert_eq!(ts.invalidate_pred(7), 2);
        assert!(ts.frame(a).deleted, "completed table hidden immediately");
        assert!(
            ts.frame(a).has_answers(),
            "answer store kept for in-flight choice points until end_query"
        );
        assert!(
            !ts.frame(b).deleted,
            "incomplete table survives until end_query"
        );
        assert!(!ts.frame(other).deleted, "independent predicate untouched");
        assert_eq!(ts.find(7, &[Cell::int(1)]), None);
        ts.end_query();
        assert!(ts.frame(b).deleted, "deferred invalidation lands");
        assert_eq!(ts.frame(a).store.len(), 0, "answer store released");
        // double invalidation is a no-op
        assert_eq!(ts.invalidate_pred(7), 0);
    }

    #[test]
    fn abolished_variant_is_recreated_fresh() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 3, &[Cell::int(1)]);
        let _b = mk(&mut ts, 3, &[Cell::int(2)]);
        ts.complete_scc(a); // completes the whole stack segment: a and b
        assert_eq!(ts.invalidate_pred(3), 2);
        assert_eq!(ts.find(3, &[Cell::int(1)]), None);
        // re-creating the variant builds a fresh frame, not a resurrection
        let c = mk(&mut ts, 3, &[Cell::int(1)]);
        assert_ne!(c, a);
        assert_eq!(ts.find(3, &[Cell::int(1)]), Some(c));
    }

    #[test]
    fn abolish_call_is_per_variant() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 3, &[Cell::int(1)]);
        let b = mk(&mut ts, 3, &[Cell::int(2)]);
        ts.complete_scc(a); // completes the whole stack segment: a and b
        assert!(ts.abolish_call(3, &[Cell::int(1)]));
        assert!(!ts.abolish_call(3, &[Cell::int(1)]), "already gone");
        assert_eq!(ts.find(3, &[Cell::int(1)]), None);
        assert_eq!(ts.find(3, &[Cell::int(2)]), Some(b));
    }

    #[test]
    fn budget_evicts_least_recently_hit_first() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 0, &[Cell::int(1)]);
        for i in 0..4 {
            ts.add_answer(a, &[Cell::int(i)]);
        }
        ts.complete_scc(a);
        ts.end_query();
        let b = mk(&mut ts, 0, &[Cell::int(2)]);
        for i in 0..4 {
            ts.add_answer(b, &[Cell::int(i)]);
        }
        ts.complete_scc(b);
        ts.touch(b); // b hit in the current query epoch; a never re-hit
        ts.end_query();
        assert_eq!(ts.answer_store_cells(), 8);
        ts.set_budget(Some(6));
        let evicted = ts.enforce_budget();
        assert_eq!(evicted, vec![a], "least-recently-hit table goes first");
        assert!(ts.frame(a).deleted);
        assert!(!ts.frame(b).deleted);
        assert!(ts.answer_store_cells() <= 6);
        // already under budget: nothing more to do
        assert!(ts.enforce_budget().is_empty());
    }

    #[test]
    fn format_answer_expands_factored_bindings_into_call_form() {
        let mut syms = SymbolTable::new();
        let f = syms.intern("f");
        let g = syms.intern("g");
        let b = syms.intern("b");
        // call p(f(X), X, b) — template [f/1, _0, _0, b]
        let template = [Cell::fun(f, 1), Cell::tvar(0), Cell::tvar(0), Cell::con(b)];
        // answer X = g(1) — factored sequence [g/1, 1]
        let answer = [Cell::fun(g, 1), Cell::int(1)];
        assert_eq!(
            format_answer(&template, &answer, 1, &syms),
            "(f(g(1)),g(1),b)"
        );
        // answer X = g(Y) with Y unbound — answer-local variable prints _0
        let open = [Cell::fun(g, 1), Cell::tvar(0)];
        assert_eq!(
            format_answer(&template, &open, 1, &syms),
            "(f(g(_0)),g(_0),b)"
        );
    }

    #[test]
    fn skip_and_root_spans_walk_preorder_terms() {
        let f = xsb_syntax::Sym(4);
        // two roots: f(1, g(2)) and 7 — g also f-sym, arity differs
        let seq = [
            Cell::fun(f, 2),
            Cell::int(1),
            Cell::fun(f, 1),
            Cell::int(2),
            Cell::int(7),
        ];
        assert_eq!(skip_canon_term(&seq, 0), 4);
        assert_eq!(skip_canon_term(&seq, 4), 5);
        let mut spans = Vec::new();
        canon_root_spans(&seq, 2, &mut spans);
        assert_eq!(spans, vec![(0, 4), (4, 1)]);
    }

    fn attach(ts: &mut TableSpace) -> Arc<SharedTableStore> {
        let store = Arc::new(SharedTableStore::new());
        // generous floors: everything in these tests is shareable
        ts.attach_shared(store.clone(), 1000, 1000);
        store
    }

    #[test]
    fn publish_then_import_roundtrips_answers() {
        let mut a = TableSpace::new();
        let store = attach(&mut a);
        let id = mk(&mut a, 3, &[Cell::tvar(0)]);
        a.add_answer(id, &[Cell::int(1)]);
        a.add_answer(id, &[Cell::int(2)]);
        a.complete_scc(id);
        a.end_query();
        assert_eq!(a.publish_completed(), 1);
        assert!(
            matches!(a.frame(id).store.cells, Arena::Shared(_)),
            "publisher re-backed by the shared arena"
        );
        assert_eq!(a.publish_completed(), 0, "already published: no rework");

        // a second worker imports the table without recomputing
        let mut b = TableSpace::new();
        b.attach_shared(store, 1000, 1000);
        assert!(b.find(3, &[Cell::tvar(0)]).is_none());
        let sf = b.shared_probe(3, &[Cell::tvar(0)]).expect("shared hit");
        let bid = b.import_shared(&sf);
        assert_eq!(b.find(3, &[Cell::tvar(0)]), Some(bid));
        let f = b.frame(bid);
        assert_eq!(f.state, SubgoalState::Complete);
        assert_eq!(f.store.len(), 2);
        assert_eq!(f.store.get(0), &[Cell::int(1)]);
        assert_eq!(f.store.get(1), &[Cell::int(2)]);
        // importing copies no cells: same Arc as the publisher's arena
        match (&f.store.cells, &sf.cells) {
            (Arena::Shared(l), r) => assert!(Arc::ptr_eq(l, r)),
            _ => panic!("imported arena is shared-backed"),
        }
    }

    #[test]
    fn floors_keep_local_only_frames_out_of_the_store() {
        let mut ts = TableSpace::new();
        let store = Arc::new(SharedTableStore::new());
        ts.attach_shared(store.clone(), 5, 5);
        let below = mk(&mut ts, 3, &[Cell::con(xsb_syntax::Sym(2))]);
        let pred_above = mk(&mut ts, 9, &[Cell::tvar(0)]);
        let sym_above = mk(&mut ts, 4, &[Cell::con(xsb_syntax::Sym(7))]);
        for id in [below, pred_above, sym_above] {
            ts.add_answer(id, &[]);
        }
        ts.complete_scc(below); // whole stack segment
        ts.end_query();
        assert_eq!(ts.publish_completed(), 1, "only the below-floor frame");
        assert!(store.contains(3, &[Cell::con(xsb_syntax::Sym(2))]));
        assert!(!store.contains(9, &[Cell::tvar(0)]));
        assert!(ts.shared_probe(9, &[Cell::tvar(0)]).is_none());
        // an answer above the sym floor also blocks publication
        let mut other = TableSpace::new();
        other.attach_shared(store.clone(), 5, 5);
        let id = mk(&mut other, 4, &[Cell::tvar(0)]);
        other.add_answer(id, &[Cell::con(xsb_syntax::Sym(7))]);
        other.complete_scc(id);
        other.end_query();
        assert_eq!(other.publish_completed(), 0);
    }

    #[test]
    fn sync_invalidates_local_tables_for_remote_changes() {
        let store = Arc::new(SharedTableStore::new());
        let mut a = TableSpace::new();
        a.attach_shared(store.clone(), 1000, 1000);
        let mut b = TableSpace::new();
        b.attach_shared(store.clone(), 1000, 1000);

        let id = mk(&mut b, 7, &[Cell::int(1)]);
        b.add_answer(id, &[]);
        b.complete_scc(id);
        b.end_query();
        b.publish_completed();

        // worker a invalidates pred 7 (an assert hit its dependency)
        assert_eq!(a.shared_invalidate(&[7]), 1);
        assert!(!store.contains(7, &[Cell::int(1)]));
        // a's own watermark advanced with its write: nothing to redo
        assert_eq!(a.sync_shared(), 0);
        // b syncs and drops its local completed table
        assert_eq!(b.sync_shared(), 1);
        assert!(b.find(7, &[Cell::int(1)]).is_none());
        b.end_query();
        // local-only predicate ids (>= pred_floor) never leak pool-wide
        let mut c = TableSpace::new();
        c.attach_shared(store, 10, 10);
        assert_eq!(c.shared_invalidate(&[42]), 0);
    }

    #[test]
    fn shared_clear_forces_full_resync() {
        let store = Arc::new(SharedTableStore::new());
        let mut a = TableSpace::new();
        a.attach_shared(store.clone(), 1000, 1000);
        let mut b = TableSpace::new();
        b.attach_shared(store, 1000, 1000);
        let id = mk(&mut b, 3, &[Cell::int(1)]);
        b.add_answer(id, &[]);
        b.complete_scc(id);
        b.end_query();
        b.publish_completed();
        a.shared_clear();
        assert_eq!(b.sync_shared(), 1, "full invalidation reaches b");
        assert!(b.find(3, &[Cell::int(1)]).is_none());
    }

    #[test]
    fn mid_query_invalidate_keeps_remote_entries_replayable() {
        let store = Arc::new(SharedTableStore::new());
        let mut a = TableSpace::new();
        a.attach_shared(store.clone(), 1000, 1000);
        let mut b = TableSpace::new();
        b.attach_shared(store.clone(), 1000, 1000);
        // a holds a local completed table for pred 8
        let id = mk(&mut a, 8, &[Cell::int(1)]);
        a.add_answer(id, &[]);
        a.complete_scc(id);
        a.end_query();
        // b pushes an invalidation of pred 8 that a has not yet seen...
        assert_eq!(b.shared_invalidate(&[8]), 1);
        // ...then a logs its own invalidation of pred 7 (a mid-query
        // assert). a's watermark must NOT leapfrog b's log entry:
        assert_eq!(a.shared_invalidate(&[7]), 1);
        // the next sync still replays it and drops a's pred-8 table
        assert_eq!(a.sync_shared(), 1);
        assert!(a.find(8, &[Cell::int(1)]).is_none());
    }

    #[test]
    fn mid_query_invalidate_blocks_stale_publish_until_resync() {
        let store = Arc::new(SharedTableStore::new());
        let mut a = TableSpace::new();
        a.attach_shared(store.clone(), 1000, 1000);
        // a completes a table, then the same query performs an update
        // (invalidating some other predicate pool-wide)
        let id = mk(&mut a, 3, &[Cell::tvar(0)]);
        a.add_answer(id, &[Cell::int(1)]);
        a.complete_scc(id);
        assert_eq!(a.shared_invalidate(&[7]), 1);
        a.end_query();
        // the frame is stamped with the query-start epoch; the store has
        // moved past it, so the publish is rejected rather than entering
        // at the post-update epoch
        assert_eq!(a.publish_completed(), 0);
        assert!(!store.contains(3, &[Cell::tvar(0)]));
        // the next query's sync confirms the frame survived: the retry
        // publishes at the new epoch
        assert_eq!(a.sync_shared(), 0);
        a.end_query();
        assert_eq!(a.publish_completed(), 1);
        assert!(store.contains(3, &[Cell::tvar(0)]));
    }

    #[test]
    fn diverged_worker_neither_publishes_nor_imports() {
        let store = Arc::new(SharedTableStore::new());
        let mut a = TableSpace::new();
        a.attach_shared(store.clone(), 1000, 1000);
        let mut b = TableSpace::new();
        b.attach_shared(store.clone(), 1000, 1000);
        let id = mk(&mut b, 3, &[Cell::tvar(0)]);
        b.add_answer(id, &[Cell::int(1)]);
        b.complete_scc(id);
        b.end_query();
        assert_eq!(b.publish_completed(), 1);
        // a broadcast update (consult_all) diverges nobody
        a.set_shared_broadcast(true);
        a.note_local_mutation(5, &[3]);
        a.set_shared_broadcast(false);
        assert!(!a.shared_diverged());
        assert!(a.shared_probe(3, &[Cell::tvar(0)]).is_some());
        // mutations that stay above the floors diverge nobody either
        a.note_local_mutation(2000, &[2001]);
        assert!(!a.shared_diverged());
        // a non-broadcast mutation below the floor detaches a
        a.note_local_mutation(5, &[3]);
        assert!(a.shared_diverged());
        assert!(a.shared_probe(3, &[Cell::tvar(0)]).is_none(), "no imports");
        let aid = mk(&mut a, 4, &[Cell::tvar(0)]);
        a.add_answer(aid, &[Cell::int(2)]);
        a.complete_scc(aid);
        a.end_query();
        assert_eq!(a.publish_completed(), 0, "no publishes");
        // an above-floor mutation with a below-floor tabled dependent
        // diverges too (a consult_all-added clause can wire that up)
        let mut c = TableSpace::new();
        c.attach_shared(store, 10, 10);
        c.note_local_mutation(42, &[3]);
        assert!(c.shared_diverged());
        // b is unaffected throughout
        assert!(!b.shared_diverged());
    }

    #[test]
    fn clock_advances_per_query_and_marks_cross_query_reuse() {
        let mut ts = TableSpace::new();
        let a = mk(&mut ts, 0, &[Cell::int(1)]);
        ts.complete_scc(a);
        assert_eq!(ts.frame(a).born, ts.clock(), "same-query: born == clock");
        ts.end_query();
        assert!(
            ts.frame(a).born < ts.clock(),
            "next query sees an older table"
        );
    }
}
