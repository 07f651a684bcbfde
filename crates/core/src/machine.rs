//! SLG-WAM machine state.
//!
//! Holds the classic WAM register file and memory areas — heap, environment
//! stack, choice-point stack, trail — plus the SLG extensions (paper §3.2):
//!
//! * **freeze registers** ([`Freeze`]) that protect stack segments belonging
//!   to suspended consumers from reclamation on backtracking;
//! * a **forward trail**: trail entries record the bound value and a parent
//!   link, forming a tree, so [`Machine::switch_environments`] can restore a
//!   suspended consumer's bindings by unwinding to the common ancestor and
//!   rewinding down;
//! * canonical term copy-in/copy-out between the WAM heap and table space.
//!
//! All areas are `Vec` arenas addressed by index; "stack" discipline is
//! recovered by truncating on backtracking, never below the freeze line.

use crate::cell::{Cell, Tag};
use crate::instr::{CodePtr, PredId};
use crate::program::Program;
use crate::table::TableSpace;
use std::cmp::Ordering;
use std::rc::Rc;
use xsb_obs::{Counter, Obs};
use xsb_syntax::{well_known, Sym, SymbolTable, Term};

/// Sentinel for "no index" in `u32` arena links.
pub const NONE: u32 = u32::MAX;

/// Size of the X register file (bounds compiler temporaries per clause).
pub const MAX_X: usize = 8192;

/// An environment frame. Permanent variables live in the shared `perm`
/// arena at `pbase .. pbase + plen`.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// continuation environment (index into `frames`, or `NONE`)
    pub ce: u32,
    /// continuation code pointer
    pub cp: CodePtr,
    pub pbase: u32,
    pub plen: u16,
}

/// One forward-trail node: which heap cell was bound, to what, and the
/// previous trail node on this branch.
#[derive(Clone, Copy, Debug)]
pub struct TrailNode {
    pub addr: u32,
    pub val: Cell,
    pub parent: u32,
}

/// Freeze registers: nothing below these arena marks is reclaimed on
/// backtracking while consumers are suspended.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Freeze {
    pub heap: u32,
    pub frames: u32,
    pub perms: u32,
    pub cps: u32,
    pub cp_args: u32,
    pub trail: u32,
}

/// The alternative a choice point takes on backtracking.
#[derive(Clone, Debug)]
pub enum Alt {
    /// jump to a retry/trust address (sequential clause chains)
    Code(CodePtr),
    /// iterate a static candidate list (first-string trie dispatch)
    StaticList { list: Rc<[CodePtr]>, idx: u32 },
    /// iterate dynamic clause candidates
    DynClauses {
        pred: PredId,
        list: Rc<[u32]>,
        idx: u32,
    },
    /// SLG generator: run remaining program clauses, then check-complete
    Generator { sub: u32 },
    /// SLG consumer: return the next unconsumed answer or suspend
    Consumer { cons: u32 },
    /// iterate the answers of a completed table
    CompletedAnswers {
        sub: u32,
        idx: u32,
        subst: Rc<[u32]>,
    },
    /// a `tnot`/`e_tnot`/`tfindall` suspension waiting on completion of
    /// subgoal `sub`; plain backtracking fails through it
    NegSuspend { neg: u32 },
    /// a resumed suspension whose branch has exhausted: control returns to
    /// the completing leader's scheduling loop
    NegScheduled { leader: u32 },
    /// findall barrier: on backtrack, all solutions are in; build the list
    FindallFinish { rec: u32, resume: CodePtr },
    /// `\+` barrier: the goal failed exhaustively, so the negation succeeds
    NafBarrier { resume: CodePtr },
    /// `between/3` iteration
    Between { cur: i64, hi: i64, resume: CodePtr },
    /// `retract/1` candidate iteration
    Retract {
        pred: PredId,
        list: Rc<[u32]>,
        idx: u32,
        resume: CodePtr,
    },
    /// bottom of a query: no more solutions
    Query,
    /// exhausted; fail straight through
    Dead,
}

/// A choice point. `abase`/`alen` locate saved argument registers in the
/// `cp_args` arena.
#[derive(Clone, Debug)]
pub struct ChoicePoint {
    pub prev: u32,
    pub e: u32,
    pub cont: CodePtr,
    pub h: u32,
    pub frames_len: u32,
    pub perms_len: u32,
    pub cps_len: u32,
    pub cp_args_len: u32,
    pub trail_len: u32,
    pub tip: u32,
    pub abase: u32,
    pub alen: u16,
    pub alt: Alt,
}

/// A pending findall collection.
#[derive(Debug)]
pub struct FindallRecord {
    /// template term (heap cell, protected by the barrier CP's heap mark)
    pub template: Cell,
    /// result-list argument to unify at the end
    pub result: Cell,
    /// canonicalized collected solutions
    pub solutions: Vec<Box<[Cell]>>,
    /// `setof/3`: sort, remove duplicates, and fail on an empty list
    pub sort_dedup_fail_empty: bool,
}

/// The SLG-WAM machine. Borrows the program (mutably, for `assert`) and the
/// table space for the duration of one query.
pub struct Machine<'p> {
    pub db: &'p mut Program,
    pub tables: &'p mut TableSpace,

    pub heap: Vec<Cell>,
    pub frames: Vec<Frame>,
    pub perm: Vec<Cell>,
    pub cps: Vec<ChoicePoint>,
    pub cp_args: Vec<Cell>,
    pub trail: Vec<TrailNode>,
    pub x: Vec<Cell>,

    /// current environment (`NONE` if none)
    pub e: u32,
    /// continuation code pointer (the WAM CP register)
    pub cont: CodePtr,
    /// current choice point (`NONE` if none)
    pub b: u32,
    /// program counter
    pub p: CodePtr,
    /// current trail tip (`NONE` = root)
    pub tip: u32,
    /// freeze registers
    pub freeze: Freeze,
    /// unify read-mode cursor
    pub s: usize,
    /// unify write mode flag
    pub write_mode: bool,
    /// generator whose clause code is currently being entered (valid
    /// between generator dispatch and the first call; captured by
    /// `SaveGenerator` / used directly by `NewAnswerDirect`)
    pub executing_gen: u32,
    /// choice point at predicate entry, captured by `GetLevel` for cut
    pub b0: u32,

    pub findalls: Vec<FindallRecord>,
    /// Metrics registry + SLG event tracer (swapped in/out by the engine
    /// so counters accumulate across queries).
    pub obs: Obs,
    pub step_limit: Option<u64>,
    /// instructions dispatched by this machine (the step-limit basis).
    /// Block-granular: the hot loop spends `fuel` and the spent part is
    /// folded in by [`Machine::flush_steps`] — accurate at every refill,
    /// builtin call, and run-loop exit.
    pub steps: u64,
    /// dispatches left in the current accounting block
    pub(crate) fuel: u64,
    /// size the current block was issued at (`fuel_block - fuel` = spent
    /// dispatches not yet folded into `steps`/the metrics counter)
    pub(crate) fuel_block: u64,
    scratch_pdl: Vec<(Cell, Cell)>,
    /// reusable buffers for dynamic-predicate dispatch
    pub(crate) scratch_tokens: Vec<Option<Cell>>,
    pub(crate) scratch_cands: Vec<u32>,
    /// reusable buffer for call/answer canonicalization
    pub(crate) scratch_canon: Vec<Cell>,
    /// reusable tvar map for answer return (`unify_canon_one` binding
    /// loops) — consumed answers never allocate a fresh map
    pub(crate) scratch_tvars: Vec<Option<Cell>>,
    /// reusable root buffer for `new_answer`'s substitution-factor walk
    pub(crate) scratch_roots: Vec<Cell>,
    /// reusable var-address buffer for `new_answer` canonicalization
    pub(crate) scratch_vars: Vec<u32>,
}

impl<'p> Machine<'p> {
    pub fn new(db: &'p mut Program, tables: &'p mut TableSpace) -> Self {
        Machine {
            db,
            tables,
            heap: Vec::with_capacity(4096),
            frames: Vec::with_capacity(256),
            perm: Vec::with_capacity(1024),
            cps: Vec::with_capacity(128),
            cp_args: Vec::with_capacity(512),
            trail: Vec::with_capacity(1024),
            x: vec![Cell::int(0); MAX_X],
            e: NONE,
            cont: 0,
            b: NONE,
            p: 0,
            tip: NONE,
            freeze: Freeze::default(),
            s: 0,
            write_mode: false,
            executing_gen: NONE,
            b0: NONE,
            findalls: Vec::new(),
            obs: Obs::new(),
            step_limit: None,
            steps: 0,
            fuel: 0,
            fuel_block: 0,
            scratch_pdl: Vec::new(),
            scratch_tokens: Vec::new(),
            scratch_cands: Vec::new(),
            scratch_canon: Vec::new(),
            scratch_tvars: Vec::new(),
            scratch_roots: Vec::new(),
            scratch_vars: Vec::new(),
        }
    }

    // ---------------- heap & binding ----------------

    /// Pushes a cell, returning its address.
    #[inline]
    pub fn push_heap(&mut self, c: Cell) -> usize {
        self.heap.push(c);
        self.heap.len() - 1
    }

    /// Allocates a fresh unbound variable on the heap.
    #[inline]
    pub fn new_var(&mut self) -> Cell {
        let a = self.heap.len();
        self.heap.push(Cell::r#ref(a));
        Cell::r#ref(a)
    }

    /// Dereferences through bound REF chains.
    #[inline]
    pub fn deref(&self, mut c: Cell) -> Cell {
        loop {
            if c.tag() != Tag::Ref {
                return c;
            }
            let a = c.addr();
            let v = self.heap[a];
            if v == c {
                return c; // unbound
            }
            c = v;
        }
    }

    /// Binds the unbound variable at `addr` to `val`, recording a forward
    /// trail node.
    #[inline]
    pub fn bind(&mut self, addr: usize, val: Cell) {
        debug_assert_eq!(self.heap[addr], Cell::r#ref(addr), "binding a bound cell");
        self.obs.metrics.bump(Counter::TrailOps);
        self.heap[addr] = val;
        self.trail.push(TrailNode {
            addr: addr as u32,
            val,
            parent: self.tip,
        });
        self.tip = (self.trail.len() - 1) as u32;
    }

    /// Unifies two cells. On failure the partial bindings remain trailed
    /// (the caller backtracks, which unwinds them).
    pub fn unify(&mut self, a: Cell, b: Cell) -> bool {
        self.obs.metrics.bump(Counter::Unifications);
        let mut pdl = std::mem::take(&mut self.scratch_pdl);
        pdl.clear();
        pdl.push((a, b));
        let mut ok = true;
        while let Some((a, b)) = pdl.pop() {
            let a = self.deref(a);
            let b = self.deref(b);
            if a == b {
                continue;
            }
            match (a.tag(), b.tag()) {
                (Tag::Ref, Tag::Ref) => {
                    // bind younger to older to keep chains short
                    if a.addr() < b.addr() {
                        self.bind(b.addr(), a);
                    } else {
                        self.bind(a.addr(), b);
                    }
                }
                (Tag::Ref, _) => self.bind(a.addr(), b),
                (_, Tag::Ref) => self.bind(b.addr(), a),
                (Tag::Con, Tag::Con) | (Tag::Int, Tag::Int) => {
                    ok = false;
                    break;
                }
                (Tag::Lis, Tag::Lis) => {
                    let (pa, pb) = (a.addr(), b.addr());
                    pdl.push((self.heap[pa], self.heap[pb]));
                    pdl.push((self.heap[pa + 1], self.heap[pb + 1]));
                }
                (Tag::Str, Tag::Str) => {
                    let (pa, pb) = (a.addr(), b.addr());
                    let fa = self.heap[pa];
                    let fb = self.heap[pb];
                    if fa != fb {
                        ok = false;
                        break;
                    }
                    let (_, n) = fa.functor();
                    for i in 1..=n {
                        pdl.push((self.heap[pa + i], self.heap[pb + i]));
                    }
                }
                // STR('.'/2) vs LIS: normalize
                (Tag::Str, Tag::Lis) | (Tag::Lis, Tag::Str) => {
                    let (s, l) = if a.tag() == Tag::Str { (a, b) } else { (b, a) };
                    let ps = s.addr();
                    if self.heap[ps] != Cell::fun(well_known::DOT, 2) {
                        ok = false;
                        break;
                    }
                    let pl = l.addr();
                    pdl.push((self.heap[ps + 1], self.heap[pl]));
                    pdl.push((self.heap[ps + 2], self.heap[pl + 1]));
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        self.scratch_pdl = pdl;
        ok
    }

    // ---------------- trail ----------------

    /// Unwinds bindings from the current tip back to (and excluding)
    /// `target`, which must be an ancestor of the current tip.
    pub fn unwind_to(&mut self, target: u32) {
        let mut n = self.tip;
        while n != target {
            debug_assert_ne!(n, NONE, "unwind target not an ancestor");
            let node = self.trail[n as usize];
            self.heap[node.addr as usize] = Cell::r#ref(node.addr as usize);
            n = node.parent;
        }
        self.tip = target;
    }

    /// Switches the binding environment from the current trail tip to
    /// `target_tip` (the tip of a suspended consumer): unwind to the common
    /// ancestor, then rewind — re-installing recorded values — down to the
    /// target. This is the SLG-WAM's forward-trail walk.
    pub fn switch_environments(&mut self, target_tip: u32) {
        let mut a = self.tip;
        let mut b = target_tip;
        let mut redo: Vec<u32> = Vec::new();
        while a != b {
            // node indices grow monotonically, so the larger index is deeper
            let step_a = match (a, b) {
                (NONE, _) => false,
                (_, NONE) => true,
                (a_, b_) => a_ > b_,
            };
            if step_a {
                let node = self.trail[a as usize];
                self.heap[node.addr as usize] = Cell::r#ref(node.addr as usize);
                a = node.parent;
            } else {
                redo.push(b);
                b = self.trail[b as usize].parent;
            }
        }
        for &n in redo.iter().rev() {
            let node = self.trail[n as usize];
            self.heap[node.addr as usize] = node.val;
        }
        self.tip = target_tip;
    }

    // ---------------- choice points ----------------

    /// Pushes a choice point saving the first `alen` argument registers.
    pub fn push_cp(&mut self, alen: u16, alt: Alt) -> u32 {
        let abase = self.cp_args.len() as u32;
        self.cp_args.extend_from_slice(&self.x[..alen as usize]);
        let cp = ChoicePoint {
            prev: self.b,
            e: self.e,
            cont: self.cont,
            h: self.heap.len() as u32,
            frames_len: self.frames.len() as u32,
            perms_len: self.perm.len() as u32,
            cps_len: self.cps.len() as u32,
            cp_args_len: abase,
            trail_len: self.trail.len() as u32,
            tip: self.tip,
            abase,
            alen,
            alt,
        };
        self.cps.push(cp);
        self.b = (self.cps.len() - 1) as u32;
        self.obs.metrics.bump(Counter::ChoicePoints);
        self.sample_gauges();
        self.b
    }

    /// Samples arena depths into the high-water gauges. Called at choice
    /// points, suspensions, and backtracking — the moments the stacks peak.
    #[inline]
    pub fn sample_gauges(&mut self) {
        let m = &mut self.obs.metrics;
        m.heap.set(self.heap.len() as u64);
        m.trail.set(self.trail.len() as u64);
        m.choice_points.set(self.cps.len() as u64);
        m.frames.set(self.frames.len() as u64);
    }

    /// Restores machine state from choice point `i` (without consuming its
    /// alternative): unwind trail, truncate arenas to the freeze-protected
    /// marks, restore E/CP/args.
    pub fn restore_cp(&mut self, i: u32) {
        self.sample_gauges();
        let cp = self.cps[i as usize].clone();
        self.unwind_to(cp.tip);
        self.heap.truncate((cp.h.max(self.freeze.heap)) as usize);
        self.frames
            .truncate((cp.frames_len.max(self.freeze.frames)) as usize);
        self.perm
            .truncate((cp.perms_len.max(self.freeze.perms)) as usize);
        self.trail
            .truncate((cp.trail_len.max(self.freeze.trail)) as usize);
        // keep this CP itself plus frozen ones
        self.cps.truncate(((i + 1).max(self.freeze.cps)) as usize);
        self.cp_args
            .truncate(((cp.abase + cp.alen as u32).max(self.freeze.cp_args)) as usize);
        self.e = cp.e;
        self.cont = cp.cont;
        for i in 0..cp.alen as usize {
            self.x[i] = self.cp_args[cp.abase as usize + i];
        }
        self.b = i;
        // the high-water marks must never regress across a table retry:
        // truncation lowers current values only
        debug_assert!(self.obs.metrics.trail.high_water >= self.trail.len() as u64);
        debug_assert!(self.obs.metrics.choice_points.high_water >= self.cps.len() as u64);
    }

    /// Marks all stack tops as frozen (called when a consumer suspends).
    pub fn freeze_now(&mut self) {
        self.sample_gauges();
        self.freeze = Freeze {
            heap: self.heap.len() as u32,
            frames: self.frames.len() as u32,
            perms: self.perm.len() as u32,
            cps: self.cps.len() as u32,
            cp_args: self.cp_args.len() as u32,
            trail: self.trail.len() as u32,
        };
    }

    /// Snapshot of the current freeze registers.
    pub fn freeze_state(&self) -> Freeze {
        self.freeze
    }

    // ---------------- environments ----------------

    pub fn allocate(&mut self, nperms: u16) {
        let pbase = self.perm.len() as u32;
        for i in 0..nperms {
            // permanent slots start as fresh heap variables only when first
            // written; initialize to self-contained dummy ints
            let _ = i;
            self.perm.push(Cell::int(0));
        }
        self.frames.push(Frame {
            ce: self.e,
            cp: self.cont,
            pbase,
            plen: nperms,
        });
        self.e = (self.frames.len() - 1) as u32;
    }

    pub fn deallocate(&mut self) {
        let f = self.frames[self.e as usize];
        self.cont = f.cp;
        self.e = f.ce;
        // frame storage is reclaimed on backtracking, not here (the SLG-WAM
        // cannot pop: the frame may be frozen by a suspended consumer)
    }

    #[inline]
    pub fn perm_slot(&self, y: u16) -> usize {
        let f = &self.frames[self.e as usize];
        debug_assert!(y < f.plen);
        f.pbase as usize + y as usize
    }

    #[inline]
    pub fn get_y(&self, y: u16) -> Cell {
        self.perm[self.perm_slot(y)]
    }

    #[inline]
    pub fn set_y(&mut self, y: u16, c: Cell) {
        let s = self.perm_slot(y);
        self.perm[s] = c;
    }

    // ---------------- canonical copy (heap <-> table space) ----------------

    /// Flattens the dereferenced terms rooted at `roots` into a canonical
    /// pre-order cell sequence. Unbound variables become `TVAR(k)` numbered
    /// by first occurrence; their heap addresses are appended to `var_addrs`
    /// in the same order (the substitution factor).
    pub fn canonicalize(&self, roots: &[Cell], var_addrs: &mut Vec<u32>) -> Box<[Cell]> {
        let mut out = Vec::with_capacity(roots.len() * 2);
        self.canonicalize_into(roots, var_addrs, &mut out);
        out.into_boxed_slice()
    }

    /// Allocation-reusing variant of [`Machine::canonicalize`]: flattens
    /// into `out` (cleared first). The SLG hot path canonicalizes every
    /// call and every derived answer; duplicates never allocate.
    pub fn canonicalize_into(&self, roots: &[Cell], var_addrs: &mut Vec<u32>, out: &mut Vec<Cell>) {
        out.clear();
        let mut stack: Vec<Cell> = roots.iter().rev().copied().collect();
        while let Some(c) = stack.pop() {
            let c = self.deref(c);
            match c.tag() {
                Tag::Ref => {
                    let a = c.addr() as u32;
                    let idx = match var_addrs.iter().position(|&v| v == a) {
                        Some(i) => i,
                        None => {
                            var_addrs.push(a);
                            var_addrs.len() - 1
                        }
                    };
                    out.push(Cell::tvar(idx));
                }
                Tag::Con | Tag::Int => out.push(c),
                Tag::Str => {
                    let pa = c.addr();
                    let f = self.heap[pa];
                    let (_, n) = f.functor();
                    out.push(f);
                    for i in (1..=n).rev() {
                        stack.push(self.heap[pa + i]);
                    }
                }
                Tag::Lis => {
                    let pa = c.addr();
                    out.push(Cell::fun(well_known::DOT, 2));
                    stack.push(self.heap[pa + 1]);
                    stack.push(self.heap[pa]);
                }
                Tag::Fun | Tag::TVar => unreachable!("bare {:?} on heap", c.tag()),
            }
        }
    }

    /// Rebuilds `count` terms from a canonical sequence onto the heap.
    /// `TVAR(k)` becomes a fresh heap variable shared across the whole
    /// sequence. Returns the root cells.
    pub fn decode_canon(&mut self, canon: &[Cell], count: usize) -> Vec<Cell> {
        let mut tvars: Vec<Option<Cell>> = Vec::new();
        let mut pos = 0usize;
        let mut roots = Vec::with_capacity(count);
        for _ in 0..count {
            let c = self.decode_one(canon, &mut pos, &mut tvars);
            roots.push(c);
        }
        debug_assert_eq!(pos, canon.len(), "canonical sequence fully consumed");
        roots
    }

    pub fn decode_one(
        &mut self,
        canon: &[Cell],
        pos: &mut usize,
        tvars: &mut Vec<Option<Cell>>,
    ) -> Cell {
        let c = canon[*pos];
        *pos += 1;
        match c.tag() {
            Tag::Con | Tag::Int => c,
            Tag::TVar => {
                let k = c.tvar_index();
                if tvars.len() <= k {
                    tvars.resize(k + 1, None);
                }
                match tvars[k] {
                    Some(v) => v,
                    None => {
                        let v = self.new_var();
                        tvars[k] = Some(v);
                        v
                    }
                }
            }
            Tag::Fun => {
                let (f, n) = c.functor();
                if f == well_known::DOT && n == 2 {
                    // build children first, then the contiguous pair
                    let h = self.decode_one(canon, pos, tvars);
                    let t = self.decode_one(canon, pos, tvars);
                    let base = self.heap.len();
                    self.heap.push(h);
                    self.heap.push(t);
                    Cell::lis(base)
                } else {
                    let mut kids = Vec::with_capacity(n);
                    for _ in 0..n {
                        kids.push(self.decode_one(canon, pos, tvars));
                    }
                    let base = self.heap.len();
                    self.heap.push(Cell::fun(f, n));
                    for k in kids {
                        self.heap.push(k);
                    }
                    Cell::str(base)
                }
            }
            _ => unreachable!("invalid canonical cell {c:?}"),
        }
    }

    /// Unifies one canonical subterm against `target` *without*
    /// materializing matched structure on the heap — the dynamic-clause
    /// fast path that makes asserted facts "execute at essentially the
    /// same speed" as compiled ones (paper §4.2). Structure is built only
    /// when the target is an unbound variable.
    pub fn unify_canon_one(
        &mut self,
        canon: &[Cell],
        pos: &mut usize,
        tvars: &mut Vec<Option<Cell>>,
        target: Cell,
    ) -> bool {
        let c = canon[*pos];
        match c.tag() {
            Tag::Con | Tag::Int => {
                *pos += 1;
                let d = self.deref(target);
                match d.tag() {
                    Tag::Ref => {
                        self.bind(d.addr(), c);
                        true
                    }
                    _ => d == c,
                }
            }
            Tag::TVar => {
                *pos += 1;
                let k = c.tvar_index();
                if tvars.len() <= k {
                    tvars.resize(k + 1, None);
                }
                match tvars[k] {
                    Some(v) => self.unify(v, target),
                    None => {
                        tvars[k] = Some(target);
                        true
                    }
                }
            }
            Tag::Fun => {
                let (f, n) = c.functor();
                let d = self.deref(target);
                match d.tag() {
                    Tag::Ref => {
                        // build the whole subterm and bind
                        let built = self.decode_one(canon, pos, tvars);
                        self.bind(d.addr(), built);
                        true
                    }
                    Tag::Str => {
                        let pa = d.addr();
                        if self.heap[pa] != c {
                            return false;
                        }
                        *pos += 1;
                        for i in 1..=n {
                            let child = self.heap[pa + i];
                            if !self.unify_canon_one(canon, pos, tvars, child) {
                                return false;
                            }
                        }
                        true
                    }
                    Tag::Lis if f == well_known::DOT && n == 2 => {
                        let pa = d.addr();
                        *pos += 1;
                        let h = self.heap[pa];
                        if !self.unify_canon_one(canon, pos, tvars, h) {
                            return false;
                        }
                        let t = self.heap[pa + 1];
                        self.unify_canon_one(canon, pos, tvars, t)
                    }
                    _ => false,
                }
            }
            _ => unreachable!("invalid canonical cell"),
        }
    }

    // ---------------- AST bridge ----------------

    /// Builds an AST term on the heap. `varmap[i]` caches the heap variable
    /// for AST variable `i`.
    pub fn term_to_heap(&mut self, t: &Term, varmap: &mut Vec<Option<Cell>>) -> Cell {
        match t {
            Term::Var(v) => {
                let v = *v as usize;
                if varmap.len() <= v {
                    varmap.resize(v + 1, None);
                }
                match varmap[v] {
                    Some(c) => c,
                    None => {
                        let c = self.new_var();
                        varmap[v] = Some(c);
                        c
                    }
                }
            }
            Term::Atom(s) => Cell::con(*s),
            Term::Int(i) => Cell::int(*i),
            Term::Compound(f, args) if *f == well_known::DOT && args.len() == 2 => {
                let h = self.term_to_heap(&args[0], varmap);
                let t = self.term_to_heap(&args[1], varmap);
                let base = self.heap.len();
                self.heap.push(h);
                self.heap.push(t);
                Cell::lis(base)
            }
            Term::Compound(f, args) => {
                let kids: Vec<Cell> = args.iter().map(|a| self.term_to_heap(a, varmap)).collect();
                let base = self.heap.len();
                self.heap.push(Cell::fun(*f, args.len()));
                for k in kids {
                    self.heap.push(k);
                }
                Cell::str(base)
            }
            Term::HiLog(..) => {
                unreachable!("HiLog terms are apply-encoded before reaching the machine")
            }
        }
    }

    /// Decodes a heap term to an AST term. Unbound variables are numbered
    /// via `var_out` (heap address → AST var id).
    pub fn heap_to_ast(&self, c: Cell, var_out: &mut Vec<u32>) -> Term {
        let c = self.deref(c);
        match c.tag() {
            Tag::Ref => {
                let a = c.addr() as u32;
                let id = match var_out.iter().position(|&v| v == a) {
                    Some(i) => i,
                    None => {
                        var_out.push(a);
                        var_out.len() - 1
                    }
                };
                Term::Var(id as u32)
            }
            Tag::Con => Term::Atom(c.sym()),
            Tag::Int => Term::Int(c.int_value()),
            Tag::Lis => {
                let pa = c.addr();
                Term::Compound(
                    well_known::DOT,
                    vec![
                        self.heap_to_ast(self.heap[pa], var_out),
                        self.heap_to_ast(self.heap[pa + 1], var_out),
                    ],
                )
            }
            Tag::Str => {
                let pa = c.addr();
                let (f, n) = self.heap[pa].functor();
                let args = (1..=n)
                    .map(|i| self.heap_to_ast(self.heap[pa + i], var_out))
                    .collect();
                Term::Compound(f, args)
            }
            Tag::Fun | Tag::TVar => unreachable!(),
        }
    }

    // ---------------- standard order & copy ----------------

    /// ISO standard order: Var < Int < Atom < Compound.
    pub fn compare(&self, a: Cell, b: Cell, syms: &SymbolTable) -> Ordering {
        let a = self.deref(a);
        let b = self.deref(b);
        fn rank(t: Tag) -> u8 {
            match t {
                Tag::Ref => 0,
                Tag::Int => 1,
                Tag::Con => 2,
                Tag::Lis | Tag::Str => 3,
                _ => 4,
            }
        }
        let (ra, rb) = (rank(a.tag()), rank(b.tag()));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match a.tag() {
            Tag::Ref => a.addr().cmp(&b.addr()),
            Tag::Int => a.int_value().cmp(&b.int_value()),
            Tag::Con => syms.name(a.sym()).cmp(syms.name(b.sym())),
            Tag::Lis | Tag::Str => {
                let (fa, aa) = self.functor_of(a);
                let (fb, ab) = self.functor_of(b);
                aa.cmp(&ab)
                    .then_with(|| syms.name(fa).cmp(syms.name(fb)))
                    .then_with(|| {
                        for i in 0..aa {
                            let o = self.compare(self.arg_of(a, i), self.arg_of(b, i), syms);
                            if o != Ordering::Equal {
                                return o;
                            }
                        }
                        Ordering::Equal
                    })
            }
            _ => Ordering::Equal,
        }
    }

    /// Functor symbol and arity of a compound (LIS counts as `'.'/2`).
    pub fn functor_of(&self, c: Cell) -> (Sym, usize) {
        match c.tag() {
            Tag::Lis => (well_known::DOT, 2),
            Tag::Str => self.heap[c.addr()].functor(),
            _ => unreachable!("functor_of on non-compound"),
        }
    }

    /// The `i`-th (0-based) argument of a compound.
    pub fn arg_of(&self, c: Cell, i: usize) -> Cell {
        match c.tag() {
            Tag::Lis => self.heap[c.addr() + i],
            Tag::Str => self.heap[c.addr() + 1 + i],
            _ => unreachable!("arg_of on non-compound"),
        }
    }

    /// Structurally copies a term with fresh variables (`copy_term/2`).
    pub fn copy_term(&mut self, c: Cell) -> Cell {
        let mut vars = Vec::new();
        let canon = self.canonicalize(&[c], &mut vars);
        self.decode_canon(&canon, 1)[0]
    }

    /// Builds a proper list on the heap from `items`.
    pub fn make_list(&mut self, items: &[Cell]) -> Cell {
        let mut tail = Cell::con(well_known::NIL);
        for &it in items.iter().rev() {
            let base = self.heap.len();
            self.heap.push(it);
            self.heap.push(tail);
            tail = Cell::lis(base);
        }
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn with_machine<R>(f: impl FnOnce(&mut Machine) -> R) -> R {
        let mut syms = SymbolTable::new();
        let mut db = Program::new(&mut syms);
        let mut tables = TableSpace::new();
        let mut m = Machine::new(&mut db, &mut tables);
        f(&mut m)
    }

    #[test]
    fn bind_and_deref() {
        with_machine(|m| {
            let v = m.new_var();
            assert_eq!(m.deref(v), v);
            m.bind(v.addr(), Cell::int(7));
            assert_eq!(m.deref(v), Cell::int(7));
        });
    }

    #[test]
    fn unify_structures() {
        with_machine(|m| {
            // f(X, 1) = f(a, Y)
            let f = Sym(100);
            let x = m.new_var();
            let base1 = m.heap.len();
            m.heap.push(Cell::fun(f, 2));
            m.heap.push(x);
            m.heap.push(Cell::int(1));
            let y = m.new_var();
            let base2 = m.heap.len();
            m.heap.push(Cell::fun(f, 2));
            m.heap.push(Cell::con(Sym(5)));
            m.heap.push(y);
            assert!(m.unify(Cell::str(base1), Cell::str(base2)));
            assert_eq!(m.deref(x), Cell::con(Sym(5)));
            assert_eq!(m.deref(y), Cell::int(1));
        });
    }

    #[test]
    fn unify_failure_distinct_functors() {
        with_machine(|m| {
            let base1 = m.heap.len();
            m.heap.push(Cell::fun(Sym(100), 1));
            m.heap.push(Cell::int(1));
            let base2 = m.heap.len();
            m.heap.push(Cell::fun(Sym(101), 1));
            m.heap.push(Cell::int(1));
            assert!(!m.unify(Cell::str(base1), Cell::str(base2)));
        });
    }

    #[test]
    fn unwind_restores_bindings() {
        with_machine(|m| {
            let v1 = m.new_var();
            let mark = m.tip;
            m.bind(v1.addr(), Cell::int(3));
            assert_eq!(m.deref(v1), Cell::int(3));
            m.unwind_to(mark);
            assert_eq!(m.deref(v1), v1);
        });
    }

    #[test]
    fn switch_environments_restores_other_branch() {
        with_machine(|m| {
            let v = m.new_var();
            let root = m.tip;
            // branch A: v = 1
            m.bind(v.addr(), Cell::int(1));
            let tip_a = m.tip;
            // back to root, branch B: v = 2
            m.unwind_to(root);
            m.bind(v.addr(), Cell::int(2));
            assert_eq!(m.deref(v), Cell::int(2));
            // switch to branch A's environment
            m.switch_environments(tip_a);
            assert_eq!(m.deref(v), Cell::int(1));
            // and back to B
            let tip_b_gone = m.tip; // tip is now A's
            assert_eq!(tip_b_gone, tip_a);
        });
    }

    #[test]
    fn canonicalize_numbers_variables_in_order() {
        with_machine(|m| {
            // f(X, g(Y, X))
            let x = m.new_var();
            let y = m.new_var();
            let g = Sym(101);
            let f = Sym(100);
            let gb = m.heap.len();
            m.heap.push(Cell::fun(g, 2));
            m.heap.push(y);
            m.heap.push(x);
            let fb = m.heap.len();
            m.heap.push(Cell::fun(f, 2));
            m.heap.push(x);
            m.heap.push(Cell::str(gb));
            let mut vars = Vec::new();
            let canon = m.canonicalize(&[Cell::str(fb)], &mut vars);
            assert_eq!(
                canon.as_ref(),
                &[
                    Cell::fun(f, 2),
                    Cell::tvar(0),
                    Cell::fun(g, 2),
                    Cell::tvar(1),
                    Cell::tvar(0),
                ]
            );
            assert_eq!(vars, vec![x.addr() as u32, y.addr() as u32]);
        });
    }

    #[test]
    fn canonical_roundtrip_through_decode() {
        with_machine(|m| {
            // build [1, a, X] and round-trip it
            let x = m.new_var();
            let items = [Cell::int(1), Cell::con(Sym(50)), x];
            let l = m.make_list(&items);
            let mut vars = Vec::new();
            let canon = m.canonicalize(&[l], &mut vars);
            let rebuilt = m.decode_canon(&canon, 1)[0];
            let mut vars2 = Vec::new();
            let canon2 = m.canonicalize(&[rebuilt], &mut vars2);
            assert_eq!(canon, canon2);
        });
    }

    #[test]
    fn variant_calls_share_canonical_form() {
        with_machine(|m| {
            // p(X, Y) and p(A, B) canonicalize identically
            let x = m.new_var();
            let y = m.new_var();
            let mut v1 = Vec::new();
            let c1 = m.canonicalize(&[x, y], &mut v1);
            let a = m.new_var();
            let b = m.new_var();
            let mut v2 = Vec::new();
            let c2 = m.canonicalize(&[a, b], &mut v2);
            assert_eq!(c1, c2);
            // but p(X, X) differs
            let w = m.new_var();
            let mut v3 = Vec::new();
            let c3 = m.canonicalize(&[w, w], &mut v3);
            assert_ne!(c1, c3);
        });
    }

    #[test]
    fn term_ast_roundtrip() {
        let mut syms = SymbolTable::new();
        let f = syms.intern("f");
        let a = syms.intern("a");
        let mut db = Program::new(&mut syms);
        let mut tables = TableSpace::new();
        let mut m = Machine::new(&mut db, &mut tables);
        let t = Term::Compound(
            f,
            vec![
                Term::Atom(a),
                Term::Var(0),
                Term::list(vec![Term::Int(1)], Term::nil()),
            ],
        );
        let mut varmap = Vec::new();
        let c = m.term_to_heap(&t, &mut varmap);
        let mut var_out = Vec::new();
        let back = m.heap_to_ast(c, &mut var_out);
        assert_eq!(back, t);
    }

    #[test]
    fn compare_standard_order() {
        let mut syms = SymbolTable::new();
        let a = syms.intern("a");
        let b = syms.intern("b");
        let mut db = Program::new(&mut syms);
        let mut tables = TableSpace::new();
        let mut m = Machine::new(&mut db, &mut tables);
        let v = m.new_var();
        assert_eq!(m.compare(v, Cell::int(1), &syms), Ordering::Less);
        assert_eq!(m.compare(Cell::int(5), Cell::con(a), &syms), Ordering::Less);
        assert_eq!(
            m.compare(Cell::con(b), Cell::con(a), &syms),
            Ordering::Greater
        );
        let l = m.make_list(&[Cell::int(1)]);
        assert_eq!(m.compare(Cell::con(a), l, &syms), Ordering::Less);
    }

    #[test]
    fn copy_term_makes_fresh_variables() {
        with_machine(|m| {
            let x = m.new_var();
            let base = m.heap.len();
            m.heap.push(Cell::fun(Sym(100), 2));
            m.heap.push(x);
            m.heap.push(x);
            let copy = m.copy_term(Cell::str(base));
            // copy shares structure shape but not the variable
            let ca = m.arg_of(copy, 0);
            let cb = m.arg_of(copy, 1);
            assert_eq!(m.deref(ca), m.deref(cb));
            assert_ne!(m.deref(ca), m.deref(x));
        });
    }

    #[test]
    fn push_cp_and_restore() {
        with_machine(|m| {
            let v = m.new_var();
            m.x[0] = Cell::int(42);
            let cp = m.push_cp(1, Alt::Dead);
            m.x[0] = Cell::int(0);
            m.bind(v.addr(), Cell::int(9));
            let h_marker = m.heap.len();
            m.new_var();
            assert!(m.heap.len() > h_marker);
            m.restore_cp(cp);
            assert_eq!(m.x[0], Cell::int(42));
            assert_eq!(m.deref(v), v, "binding unwound");
            assert_eq!(m.heap.len(), h_marker, "heap truncated to CP mark");
        });
    }
}
