//! The SLG-WAM emulator (paper §3.2).
//!
//! [`Machine::run`] is the instruction loop; [`Machine::backtrack`] is the
//! failure path, which doubles as the SLG scheduler: generator choice
//! points step through program clauses and then *check completion*;
//! consumer choice points return unconsumed answers or suspend; a leader
//! whose fixpoint check finds no unconsumed answers completes its whole
//! SCC, schedules negation/`tfindall` suspensions, and releases the freeze
//! registers. Scheduling is *batched*: `new_answer` returns answers to the
//! caller eagerly, and suspended consumers are resumed from the completing
//! leader via [`Machine::switch_environments`].

use crate::builtins::{exec_builtin, BAction};
use crate::cell::{Cell, Tag};
use crate::compile::compile_query;
use crate::error::EngineError;
use crate::instr::{CodePtr, Instr, PredId};
use crate::machine::{Alt, Machine, NONE};
use crate::program::PredKind;
use crate::shared::SharedFrame;
use crate::table::{GenMode, NegMode, NegSusp, SharedClaim, SubgoalId, SubgoalState, TableSpace};
use std::rc::Rc;
use std::sync::Arc;
use xsb_obs::{Counter, Obs, SlgEvent, Stopwatch};
use xsb_syntax::{well_known, SymbolTable};

/// Result of running the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// the query succeeded; bindings are live in the machine
    Solution,
    /// no (more) solutions
    Exhausted,
}

/// Result of the backtracking scheduler.
enum Bt {
    /// execution resumed; continue the instruction loop
    Resumed,
    /// every choice point is exhausted
    NoMore,
}

/// What a dispatch did.
enum Disp {
    Ok,
    Failed,
}

impl Machine<'_> {
    /// Prepares the machine to run query predicate `qpred` (compiled by
    /// [`compile_query`]) with `nvars` fresh variables, returning their
    /// heap cells in order.
    pub fn setup_query(&mut self, qpred: PredId, nvars: u32) -> Vec<Cell> {
        let mut vars = Vec::with_capacity(nvars as usize);
        for i in 0..nvars {
            let v = self.new_var();
            self.x[i as usize] = v;
            vars.push(v);
        }
        self.push_cp(nvars as u16, Alt::Query);
        self.cont = self.db.snippets.halt;
        self.b0 = self.b;
        let entry = match &self.db.pred(qpred).kind {
            PredKind::Static { entry, .. } => *entry,
            _ => unreachable!("query predicate is compiled static code"),
        };
        self.p = entry;
        vars
    }

    /// Resumes after a reported solution: backtrack into the remaining
    /// alternatives, then continue running.
    pub fn next_solution(&mut self, syms: &mut SymbolTable) -> Result<Outcome, EngineError> {
        match self.backtrack(syms)? {
            Bt::NoMore => Ok(Outcome::Exhausted),
            Bt::Resumed => self.run(syms),
        }
    }

    /// The instruction loop. Wraps [`Machine::run_loop`] so spent fuel is
    /// folded into `steps` and the `Instructions` counter on *every* exit
    /// path (solution, exhaustion, or error).
    pub fn run(&mut self, syms: &mut SymbolTable) -> Result<Outcome, EngineError> {
        let r = self.run_loop(syms);
        self.flush_steps();
        r
    }

    /// Folds dispatches spent from the current fuel block into `steps` and
    /// the cumulative `Instructions` counter. Cheap (two adds) and called
    /// at block refills, builtin dispatch (so `statistics/2` observes an
    /// exact count mid-query), and run-loop exit.
    #[inline]
    pub(crate) fn flush_steps(&mut self) {
        let spent = self.fuel_block - self.fuel;
        if spent > 0 {
            self.steps += spent;
            self.obs.metrics.add(Counter::Instructions, spent);
            self.fuel_block = self.fuel;
        }
    }

    /// Issues the next accounting block. With a step limit the grant never
    /// exceeds the remaining budget, so the limit trips at exactly the
    /// same dispatch boundary as per-instruction checking did (and with
    /// the same observable `steps`/`Instructions` count of `limit + 1`,
    /// charging the dispatch that was about to run).
    #[cold]
    fn refill_fuel(&mut self) -> Result<(), EngineError> {
        // dispatches per block: the hot loop pays one decrement and one
        // predicted branch per instruction instead of a metrics bump plus
        // two step-limit branches
        const FUEL_BLOCK: u64 = 2048;
        self.flush_steps();
        let grant = match self.step_limit {
            Some(limit) if self.steps >= limit => {
                self.steps += 1;
                self.obs.metrics.bump(Counter::Instructions);
                return Err(EngineError::StepLimit);
            }
            Some(limit) => (limit - self.steps).min(FUEL_BLOCK),
            None => FUEL_BLOCK,
        };
        self.fuel = grant;
        self.fuel_block = grant;
        Ok(())
    }

    fn run_loop(&mut self, syms: &mut SymbolTable) -> Result<Outcome, EngineError> {
        macro_rules! fail {
            () => {
                match self.backtrack(syms)? {
                    Bt::Resumed => continue,
                    Bt::NoMore => return Ok(Outcome::Exhausted),
                }
            };
        }
        loop {
            // block-granular step accounting (see refill_fuel)
            if self.fuel == 0 {
                self.refill_fuel()?;
            }
            self.fuel -= 1;
            // clone-free fetch: `Instr` is `Copy` (scalar operands only),
            // so decode is a plain indexed load
            let instr = self.db.code.code[self.p as usize];
            self.p += 1;
            // opcode profiler: one predicted branch when off; two array
            // increments when on
            if self.obs.metrics.profile.enabled {
                self.obs.metrics.profile.record(instr.opcode());
            }
            match instr {
                // ---- get ----
                Instr::GetVariableX { x, a } => self.x[x as usize] = self.x[a as usize],
                Instr::GetVariableY { y, a } => {
                    let v = self.x[a as usize];
                    self.set_y(y, v);
                }
                Instr::GetValueX { x, a } => {
                    let (u, v) = (self.x[x as usize], self.x[a as usize]);
                    if !self.unify(u, v) {
                        fail!();
                    }
                }
                Instr::GetValueY { y, a } => {
                    let (u, v) = (self.get_y(y), self.x[a as usize]);
                    if !self.unify(u, v) {
                        fail!();
                    }
                }
                Instr::GetConstant { c, a } => {
                    let d = self.deref(self.x[a as usize]);
                    match d.tag() {
                        Tag::Ref => self.bind(d.addr(), c),
                        _ if d == c => {}
                        _ => fail!(),
                    }
                }
                Instr::GetStructure { f, n, a } => {
                    let d = self.deref(self.x[a as usize]);
                    match d.tag() {
                        Tag::Ref => {
                            let base = self.heap.len();
                            self.heap.push(Cell::fun(f, n as usize));
                            self.bind(d.addr(), Cell::str(base));
                            self.write_mode = true;
                        }
                        Tag::Str => {
                            let pa = d.addr();
                            if self.heap[pa] != Cell::fun(f, n as usize) {
                                fail!();
                            }
                            self.s = pa + 1;
                            self.write_mode = false;
                        }
                        Tag::Lis if f == well_known::DOT && n == 2 => {
                            self.s = d.addr();
                            self.write_mode = false;
                        }
                        _ => fail!(),
                    }
                }
                Instr::GetList { a } => {
                    let d = self.deref(self.x[a as usize]);
                    match d.tag() {
                        Tag::Ref => {
                            let base = self.heap.len();
                            self.bind(d.addr(), Cell::lis(base));
                            self.write_mode = true;
                        }
                        Tag::Lis => {
                            self.s = d.addr();
                            self.write_mode = false;
                        }
                        Tag::Str => {
                            let pa = d.addr();
                            if self.heap[pa] != Cell::fun(well_known::DOT, 2) {
                                fail!();
                            }
                            self.s = pa + 1;
                            self.write_mode = false;
                        }
                        _ => fail!(),
                    }
                }

                // ---- unify ----
                Instr::UnifyVariableX { .. }
                | Instr::UnifyVariableY { .. }
                | Instr::UnifyValueX { .. }
                | Instr::UnifyValueY { .. }
                | Instr::UnifyConstant { .. }
                | Instr::UnifyVoid { .. } => {
                    if !self.exec_unify_op(instr) {
                        fail!();
                    }
                }

                // ---- put ----
                Instr::PutVariableX { x, a } => {
                    let v = self.new_var();
                    self.x[x as usize] = v;
                    self.x[a as usize] = v;
                }
                Instr::PutVariableY { y, a } => {
                    let v = self.new_var();
                    self.set_y(y, v);
                    self.x[a as usize] = v;
                }
                Instr::PutValueX { x, a } => self.x[a as usize] = self.x[x as usize],
                Instr::PutValueY { y, a } => self.x[a as usize] = self.get_y(y),
                Instr::PutConstant { c, a } => self.x[a as usize] = c,
                Instr::PutStructure { f, n, a } => {
                    let base = self.heap.len();
                    self.heap.push(Cell::fun(f, n as usize));
                    self.x[a as usize] = Cell::str(base);
                    self.write_mode = true;
                }
                Instr::PutList { a } => {
                    let base = self.heap.len();
                    self.x[a as usize] = Cell::lis(base);
                    self.write_mode = true;
                }

                // ---- control ----
                Instr::Allocate { nperms } => self.allocate(nperms),
                Instr::Deallocate => self.deallocate(),
                Instr::Call { pred } => match self.dispatch(pred, syms, false)? {
                    Disp::Ok => {}
                    Disp::Failed => fail!(),
                },
                Instr::Execute { pred } => match self.dispatch(pred, syms, true)? {
                    Disp::Ok => {}
                    Disp::Failed => fail!(),
                },
                Instr::Proceed => self.p = self.cont,
                Instr::Fail => fail!(),

                // ---- choice ----
                Instr::Try { target, arity } => {
                    let next = self.p; // the following Retry/Trust
                    self.push_cp(arity, Alt::Code(next));
                    self.p = target;
                }
                Instr::Retry { target } => {
                    // reached only via backtracking: Alt::Code pointed here
                    let next = self.p;
                    self.cps[self.b as usize].alt = Alt::Code(next);
                    self.p = target;
                }
                Instr::Trust { target } => {
                    let prev = self.cps[self.b as usize].prev;
                    self.b = prev;
                    self.p = target;
                }
                Instr::TryMeElse { .. } | Instr::RetryMeElse { .. } | Instr::TrustMe => {
                    unreachable!("sequential chain instructions are not emitted")
                }

                // ---- indexing ----
                Instr::SwitchOnTerm { var, con, lis, str } => {
                    let d = self.deref(self.x[0]);
                    self.p = match d.tag() {
                        Tag::Ref => var,
                        Tag::Con | Tag::Int => {
                            let t = &self.db.code.const_tables[con as usize];
                            t.map.get(&d).copied().unwrap_or(t.miss)
                        }
                        Tag::Lis => lis,
                        Tag::Str => {
                            let (f, n) = self.functor_of(d);
                            if f == well_known::DOT && n == 2 {
                                lis
                            } else {
                                let t = &self.db.code.struct_tables[str as usize];
                                t.map.get(&(f, n as u16)).copied().unwrap_or(t.miss)
                            }
                        }
                        _ => unreachable!(),
                    };
                    if matches!(self.db.code.code[self.p as usize], Instr::Fail) {
                        fail!();
                    }
                }
                Instr::TrieDispatch { trie, arity } => {
                    let args = &self.x[..arity as usize];
                    let t = &self.db.code.tries[trie as usize];
                    // manual deref closure over the heap
                    let heap = &self.heap;
                    let cands = t.lookup(args, heap, |mut c| loop {
                        if c.tag() != Tag::Ref {
                            return c;
                        }
                        let v = heap[c.addr()];
                        if v == c {
                            return c;
                        }
                        c = v;
                    });
                    let addrs: Vec<CodePtr> =
                        cands.iter().map(|&i| t.clause_addrs[i as usize]).collect();
                    match addrs.len() {
                        0 => fail!(),
                        1 => self.p = addrs[0],
                        _ => {
                            let first = addrs[0];
                            self.push_cp(
                                arity,
                                Alt::StaticList {
                                    list: Rc::from(&addrs[1..]),
                                    idx: 0,
                                },
                            );
                            self.p = first;
                        }
                    }
                }

                // ---- cut ----
                Instr::GetLevel { y } => {
                    let b0 = self.b0;
                    self.set_y(y, Cell::int(b0 as i64));
                }
                Instr::CutY { y } => {
                    let target = self.get_y(y).int_value() as u32;
                    self.cut_to(target, syms)?;
                }

                // ---- tabling ----
                Instr::TableCall { pred, arity } => match self.table_call(pred, arity, syms)? {
                    Disp::Ok => {}
                    Disp::Failed => fail!(),
                },
                Instr::SaveGenerator { y } => {
                    let g = self.executing_gen;
                    self.set_y(y, Cell::int(g as i64));
                }
                Instr::NewAnswer { y } => {
                    let gen = self.get_y(y).int_value() as u32;
                    match self.new_answer(gen, syms)? {
                        Disp::Ok => {} // falls through to Deallocate; Proceed
                        Disp::Failed => fail!(),
                    }
                }
                Instr::NewAnswerDirect => {
                    let gen = self.executing_gen;
                    match self.new_answer(gen, syms)? {
                        Disp::Ok => self.p = self.cont,
                        Disp::Failed => fail!(),
                    }
                }

                // ---- snippets ----
                Instr::FindallCollect => {
                    let rec = self.findalls.last().expect("active findall");
                    let template = rec.template;
                    let mut vars = Vec::new();
                    let canon = self.canonicalize(&[template], &mut vars);
                    self.findalls
                        .last_mut()
                        .expect("active findall")
                        .solutions
                        .push(canon);
                    // next instruction is Fail: search for more solutions
                }
                Instr::NafCutFail => {
                    // the \+ goal succeeded: cut back to the barrier and fail
                    let mut i = self.b;
                    loop {
                        if i == NONE {
                            return Err(EngineError::Other("naf barrier missing".into()));
                        }
                        if matches!(self.cps[i as usize].alt, Alt::NafBarrier { .. }) {
                            break;
                        }
                        i = self.cps[i as usize].prev;
                    }
                    self.check_cut_safety(self.b, i, syms)?;
                    self.b = self.cps[i as usize].prev;
                    fail!();
                }
                Instr::HaltSolution => return Ok(Outcome::Solution),

                // ---- fused superinstructions (peephole pass) ----
                // Each executes the exact original sequence, then continues
                // after the shadowed instruction(s). `self.p` currently
                // points at the first shadowed op.
                Instr::PutValueXCall { x, a, pred } => {
                    self.x[a as usize] = self.x[x as usize];
                    self.p += 1; // continuation is after the shadowed Call
                    match self.dispatch(pred, syms, false)? {
                        Disp::Ok => {}
                        Disp::Failed => fail!(),
                    }
                }
                Instr::PutValueYCall { y, a, pred } => {
                    self.x[a as usize] = self.get_y(y);
                    self.p += 1;
                    match self.dispatch(pred, syms, false)? {
                        Disp::Ok => {}
                        Disp::Failed => fail!(),
                    }
                }
                Instr::PutValueY2 { y1, a1, y2, a2 } => {
                    self.x[a1 as usize] = self.get_y(y1);
                    self.x[a2 as usize] = self.get_y(y2);
                    self.p += 1;
                }
                Instr::AllocateSaveGenerator { nperms, y } => {
                    self.allocate(nperms);
                    let g = self.executing_gen;
                    self.set_y(y, Cell::int(g as i64));
                    self.p += 1;
                }
                Instr::DeallocateProceed => {
                    // Deallocate restores `cont`; Proceed then jumps to it
                    self.deallocate();
                    self.p = self.cont;
                }
                Instr::GetConstantProceed { c, a } => {
                    let d = self.deref(self.x[a as usize]);
                    match d.tag() {
                        Tag::Ref => self.bind(d.addr(), c),
                        _ if d == c => {}
                        _ => fail!(),
                    }
                    self.p = self.cont;
                }
                Instr::GetStructureUnify { f, n, a, len } => {
                    let d = self.deref(self.x[a as usize]);
                    match d.tag() {
                        Tag::Ref => {
                            let base = self.heap.len();
                            self.heap.push(Cell::fun(f, n as usize));
                            self.bind(d.addr(), Cell::str(base));
                            self.write_mode = true;
                        }
                        Tag::Str => {
                            let pa = d.addr();
                            if self.heap[pa] != Cell::fun(f, n as usize) {
                                fail!();
                            }
                            self.s = pa + 1;
                            self.write_mode = false;
                        }
                        Tag::Lis if f == well_known::DOT && n == 2 => {
                            self.s = d.addr();
                            self.write_mode = false;
                        }
                        _ => fail!(),
                    }
                    // the unify tail is the shadowed originals at p..p+len,
                    // executed in place with the mode resolved above; the
                    // mode split lets the (infallible) write loop drop the
                    // failure bookkeeping
                    let start = self.p as usize;
                    self.p += len as u32;
                    if self.write_mode {
                        for j in start..start + len as usize {
                            let op = self.db.code.code[j];
                            self.exec_unify_write(op);
                        }
                    } else {
                        let mut ok = true;
                        for j in start..start + len as usize {
                            let op = self.db.code.code[j];
                            if !self.exec_unify_read(op) {
                                ok = false;
                                break;
                            }
                        }
                        if !ok {
                            fail!();
                        }
                    }
                }
                Instr::GetListUnify { a, len } => {
                    let d = self.deref(self.x[a as usize]);
                    match d.tag() {
                        Tag::Ref => {
                            let base = self.heap.len();
                            self.bind(d.addr(), Cell::lis(base));
                            self.write_mode = true;
                        }
                        Tag::Lis => {
                            self.s = d.addr();
                            self.write_mode = false;
                        }
                        Tag::Str => {
                            let pa = d.addr();
                            if self.heap[pa] != Cell::fun(well_known::DOT, 2) {
                                fail!();
                            }
                            self.s = pa + 1;
                            self.write_mode = false;
                        }
                        _ => fail!(),
                    }
                    // in-place shadowed tail, as in GetStructureUnify
                    let start = self.p as usize;
                    self.p += len as u32;
                    if self.write_mode {
                        for j in start..start + len as usize {
                            let op = self.db.code.code[j];
                            self.exec_unify_write(op);
                        }
                    } else {
                        let mut ok = true;
                        for j in start..start + len as usize {
                            let op = self.db.code.code[j];
                            if !self.exec_unify_read(op) {
                                ok = false;
                                break;
                            }
                        }
                        if !ok {
                            fail!();
                        }
                    }
                }
                Instr::UnifyRun { run, len } => {
                    // the gathered run in the side pool replaces ops
                    // [p-1, p-1+len); continue after the shadowed tail
                    self.p += len as u32 - 1;
                    let start = run as usize;
                    if self.write_mode {
                        for j in start..start + len as usize {
                            let op = self.db.code.unify_runs[j];
                            self.exec_unify_write(op);
                        }
                    } else {
                        let mut ok = true;
                        for j in start..start + len as usize {
                            let op = self.db.code.unify_runs[j];
                            if !self.exec_unify_read(op) {
                                ok = false;
                                break;
                            }
                        }
                        if !ok {
                            fail!();
                        }
                    }
                }
            }
        }
    }

    /// Executes one unify-group instruction (shared by the plain dispatch
    /// arms and the fused [`Instr::GetStructureUnify`]/[`Instr::UnifyRun`]
    /// run executors). Returns `false` on unification failure.
    /// `inline(always)` so each caller specializes the match instead of
    /// paying a call per unify op.
    #[inline(always)]
    fn exec_unify_op(&mut self, op: Instr) -> bool {
        if self.write_mode {
            self.exec_unify_write(op);
            true
        } else {
            self.exec_unify_read(op)
        }
    }

    /// Write-mode unify op: builds the structure being constructed on the
    /// heap. No write-mode op can fail, so the fused run executors skip
    /// failure bookkeeping entirely on this path. `write_mode` is only
    /// flipped by the get/put structure ops, never by a unify op, so the
    /// mode chosen at the head of a run holds for the whole run.
    #[inline(always)]
    fn exec_unify_write(&mut self, op: Instr) {
        match op {
            Instr::UnifyVariableX { x } => {
                let v = self.new_var();
                self.x[x as usize] = v;
            }
            Instr::UnifyVariableY { y } => {
                let v = self.new_var();
                self.set_y(y, v);
            }
            Instr::UnifyValueX { x } => {
                let v = self.x[x as usize];
                self.heap.push(v);
            }
            Instr::UnifyValueY { y } => {
                let v = self.get_y(y);
                self.heap.push(v);
            }
            Instr::UnifyConstant { c } => self.heap.push(c),
            Instr::UnifyVoid { n } => {
                for _ in 0..n {
                    self.new_var();
                }
            }
            _ => unreachable!("non-unify op {op:?} in a unify run"),
        }
    }

    /// Read-mode unify op: matches against the existing structure at `s`.
    /// Returns `false` on unification failure.
    #[inline(always)]
    fn exec_unify_read(&mut self, op: Instr) -> bool {
        match op {
            Instr::UnifyVariableX { x } => {
                self.x[x as usize] = self.heap[self.s];
                self.s += 1;
                true
            }
            Instr::UnifyVariableY { y } => {
                let v = self.heap[self.s];
                self.s += 1;
                self.set_y(y, v);
                true
            }
            Instr::UnifyValueX { x } => {
                let (u, v) = (self.x[x as usize], self.heap[self.s]);
                self.s += 1;
                self.unify(u, v)
            }
            Instr::UnifyValueY { y } => {
                let (u, v) = (self.get_y(y), self.heap[self.s]);
                self.s += 1;
                self.unify(u, v)
            }
            Instr::UnifyConstant { c } => {
                let d = self.deref(self.heap[self.s]);
                self.s += 1;
                match d.tag() {
                    Tag::Ref => {
                        self.bind(d.addr(), c);
                        true
                    }
                    _ => d == c,
                }
            }
            Instr::UnifyVoid { n } => {
                self.s += n as usize;
                true
            }
            _ => unreachable!("non-unify op {op:?} in a unify run"),
        }
    }

    // ------------------------------------------------------------------
    // dispatch
    // ------------------------------------------------------------------

    fn dispatch(
        &mut self,
        pred: PredId,
        syms: &mut SymbolTable,
        is_tail: bool,
    ) -> Result<Disp, EngineError> {
        self.obs.metrics.count_call(pred as usize);
        // match on the place directly: every binding below is `Copy`, so no
        // clone of the kind (and no `Rc<[CodePtr]>` refcount bump) happens
        // on this per-call path
        match self.db.pred(pred).kind {
            PredKind::Static { entry, .. } => {
                if !is_tail {
                    self.cont = self.p;
                }
                self.b0 = self.b;
                self.p = entry;
                Ok(Disp::Ok)
            }
            PredKind::Dynamic { .. } => {
                if !is_tail {
                    self.cont = self.p;
                }
                self.b0 = self.b;
                self.dyn_call(pred, syms)
            }
            PredKind::Builtin(b) => {
                // builtins like statistics/2 read the step counters; fold
                // the fuel block in so they observe exact counts
                self.flush_steps();
                let resume = if is_tail { self.cont } else { self.p };
                match exec_builtin(self, syms, b, resume, is_tail)? {
                    BAction::Continue => {
                        if is_tail {
                            self.p = self.cont;
                        }
                        Ok(Disp::Ok)
                    }
                    BAction::Fail => Ok(Disp::Failed),
                    BAction::Jumped => Ok(Disp::Ok),
                }
            }
            PredKind::Undefined => {
                let p = self.db.pred(pred);
                Err(EngineError::UndefinedPredicate(format!(
                    "{}/{}",
                    syms.name(p.name),
                    p.arity
                )))
            }
        }
    }

    /// Calls a goal given as a heap term (used by `call/N`, `findall`,
    /// `\+`, dynamic rule bodies). Tail semantics: the caller has already
    /// arranged the continuation.
    pub fn dispatch_goal(&mut self, goal: Cell, syms: &mut SymbolTable) -> Result<(), EngineError> {
        let g = self.deref(goal);
        let (f, n) = match g.tag() {
            Tag::Con => (g.sym(), 0usize),
            Tag::Str => self.functor_of(g),
            Tag::Lis => (well_known::DOT, 2),
            Tag::Ref => return Err(EngineError::Instantiation("call/1")),
            _ => {
                return Err(EngineError::Type {
                    expected: "callable",
                    found: format!("{g:?}"),
                })
            }
        };
        // control constructs are compiled on the fly (they have no predicate
        // entry): (A,B), (A;B), (A->B)
        if (f == well_known::COMMA || f == well_known::SEMICOLON || f == well_known::ARROW)
            && n == 2
        {
            return self.meta_compile_call(g, syms);
        }
        for i in 0..n {
            self.x[i] = self.arg_of(g, i);
        }
        let Some(pred) = self.db.lookup_pred(f, n as u16) else {
            return Err(EngineError::UndefinedPredicate(format!(
                "{}/{n}",
                syms.name(f)
            )));
        };
        match self.dispatch(pred, syms, true)? {
            Disp::Ok => Ok(()),
            Disp::Failed => {
                // make the failure visible to the instruction loop
                self.p = self.db.snippets.fail;
                Ok(())
            }
        }
    }

    /// Runtime compilation of a control-construct goal: decode to AST,
    /// compile as a one-off predicate over its free variables, call it.
    fn meta_compile_call(&mut self, goal: Cell, syms: &mut SymbolTable) -> Result<(), EngineError> {
        let mut var_addrs: Vec<u32> = Vec::new();
        let ast = self.heap_to_ast(goal, &mut var_addrs);
        let nvars = var_addrs.len() as u32;
        let qpred = compile_query(self.db, syms, &[ast], nvars)?;
        for (i, &a) in var_addrs.iter().enumerate() {
            self.x[i] = Cell::r#ref(a as usize);
        }
        match self.dispatch(qpred, syms, true)? {
            Disp::Ok => Ok(()),
            Disp::Failed => {
                self.p = self.db.snippets.fail;
                Ok(())
            }
        }
    }

    fn dyn_call(&mut self, pred: PredId, syms: &mut SymbolTable) -> Result<Disp, EngineError> {
        let arity = self.db.pred(pred).arity as usize;
        let mut tokens = std::mem::take(&mut self.scratch_tokens);
        tokens.clear();
        for i in 0..arity {
            tokens.push(crate::dynamic::outer_token(
                self.deref(self.x[i]),
                &self.heap,
            ));
        }
        let mut cands = std::mem::take(&mut self.scratch_cands);
        self.db
            .dyn_of(pred)
            .expect("dynamic predicate")
            .candidates_into(&tokens, &mut cands);
        self.scratch_tokens = tokens;
        let r = self.dyn_dispatch_cands(pred, &cands, syms);
        self.scratch_cands = cands;
        r
    }

    fn dyn_dispatch_cands(
        &mut self,
        pred: PredId,
        cands: &[u32],
        syms: &mut SymbolTable,
    ) -> Result<Disp, EngineError> {
        let arity = self.db.pred(pred).arity as usize;
        match cands.len() {
            0 => Ok(Disp::Failed),
            1 => {
                if self.try_dyn_clause(pred, cands[0], syms)? {
                    Ok(Disp::Ok)
                } else {
                    Ok(Disp::Failed)
                }
            }
            _ => {
                let first = cands[0];
                self.push_cp(
                    arity as u16,
                    Alt::DynClauses {
                        pred,
                        list: Rc::from(&cands[1..]),
                        idx: 0,
                    },
                );
                if self.try_dyn_clause(pred, first, syms)? {
                    Ok(Disp::Ok)
                } else {
                    Ok(Disp::Failed)
                }
            }
        }
    }

    /// Decodes and runs one dynamic clause: unify head, then either proceed
    /// (fact) or tail-call the body goal.
    fn try_dyn_clause(
        &mut self,
        pred: PredId,
        id: u32,
        syms: &mut SymbolTable,
    ) -> Result<bool, EngineError> {
        let arity = self.db.pred(pred).arity as usize;
        let (canon, has_body) = {
            let c = self.db.dyn_of(pred).expect("dynamic").clause(id);
            (c.canon.clone(), c.has_body)
        };
        // unify the head directly against the stored canonical cells —
        // no term materialization for matched structure (paper §4.2)
        let mut tvars: Vec<Option<Cell>> = Vec::new();
        let mut pos = 0usize;
        for i in 0..arity {
            let target = self.x[i];
            if !self.unify_canon_one(&canon, &mut pos, &mut tvars, target) {
                return Ok(false);
            }
        }
        if has_body {
            let body = self.decode_one(&canon, &mut pos, &mut tvars);
            self.dispatch_goal(body, syms)?;
        } else {
            self.p = self.cont;
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // cut
    // ------------------------------------------------------------------

    /// Errors if cutting from `from` back to `target` would discard a
    /// generator or consumer of an incomplete table (paper §4.4).
    fn check_cut_safety(
        &self,
        from: u32,
        target: u32,
        syms: &SymbolTable,
    ) -> Result<(), EngineError> {
        let mut i = from;
        while i != target && i != NONE {
            match self.cps[i as usize].alt {
                Alt::Generator { sub } | Alt::Consumer { cons: sub } => {
                    // for consumers, `sub` is the consumer id; resolve it
                    let subgoal = match self.cps[i as usize].alt {
                        Alt::Generator { sub } => sub,
                        Alt::Consumer { cons } => self.tables.consumers[cons as usize].sub,
                        _ => unreachable!(),
                    };
                    let f = self.tables.frame(subgoal);
                    if f.state == SubgoalState::Incomplete && !f.deleted {
                        let p = self.db.pred(f.pred);
                        return Err(EngineError::CutOverTable(format!(
                            "{}/{}",
                            syms.name(p.name),
                            p.arity
                        )));
                    }
                    let _ = sub;
                }
                _ => {}
            }
            i = self.cps[i as usize].prev;
        }
        Ok(())
    }

    fn cut_to(&mut self, target: u32, syms: &SymbolTable) -> Result<(), EngineError> {
        if self.b == target || self.b == NONE {
            return Ok(());
        }
        self.check_cut_safety(self.b, target, syms)?;
        self.b = target;
        Ok(())
    }

    // ------------------------------------------------------------------
    // tabling operations
    // ------------------------------------------------------------------

    /// Records a completed-table reuse: counted as a cross-query hit when
    /// the table was built by an earlier query, and stamped for the
    /// least-recently-hit eviction policy either way.
    fn note_table_reuse(&mut self, sub: u32) {
        if self.tables.frame(sub).born < self.tables.clock() {
            self.obs.metrics.bump(Counter::TableHits);
        }
        self.tables.touch(sub);
    }

    /// The write path over this machine's program and tables.
    pub(crate) fn edb<'s>(&'s mut self, syms: &'s SymbolTable) -> crate::edb::Edb<'s> {
        crate::edb::Edb {
            db: self.db,
            tables: self.tables,
            obs: &mut self.obs,
            syms,
        }
    }

    /// Materializes a pool-published frame locally, with the import
    /// stopwatch/span/trace bookkeeping shared by the probe-hit and
    /// claim-wait import paths.
    fn import_shared_frame(&mut self, pred: PredId, sf: &SharedFrame) -> SubgoalId {
        let sw = Stopwatch::new();
        let sub = self.tables.import_shared(sf);
        let import_ns = sw.elapsed_nanos();
        self.obs.metrics.shared_import.record(import_ns);
        if self.obs.spans.enabled {
            let answers = self.tables.frame(sub).store.len() as u32;
            self.obs
                .spans
                .record("import", pred, sub, import_ns, answers);
        }
        if self.obs.trace.enabled {
            self.obs
                .trace
                .push(SlgEvent::SubgoalCall { pred, subgoal: sub });
        }
        sub
    }

    /// Records one parked claim wait (counter + latency histogram). A
    /// claim resolved without parking costs nothing observable.
    fn note_claim_wait(&mut self, parked: bool, waited_ns: u64) {
        if parked {
            self.obs.metrics.bump(Counter::ClaimWaits);
            self.obs.metrics.claim_wait.record(waited_ns);
        }
    }

    fn table_call(
        &mut self,
        pred: PredId,
        arity: u16,
        syms: &mut SymbolTable,
    ) -> Result<Disp, EngineError> {
        let args: Vec<Cell> = self.x[..arity as usize].to_vec();
        let mut var_addrs = Vec::new();
        let mut canon = std::mem::take(&mut self.scratch_canon);
        self.canonicalize_into(&args, &mut var_addrs, &mut canon);
        let found = self.tables.find(pred, &canon);
        let r = match found {
            None => {
                if let Some(sf) = self.tables.shared_probe(pred, &canon) {
                    // another pool worker already completed this table:
                    // import it (zero-copy) and serve it like a local
                    // completed-table hit
                    self.obs.metrics.bump(Counter::SharedTableHits);
                    let sub = self.import_shared_frame(pred, &sf);
                    self.completed_call(sub, var_addrs)
                } else {
                    // cold miss on a shareable subgoal: claim it in the
                    // pool's in-progress registry, or park until the
                    // first claimant publishes (see DESIGN.md §2.9)
                    match self.tables.shared_claim_or_wait(pred, &canon) {
                        SharedClaim::Published {
                            frame,
                            parked,
                            waited_ns,
                        } => {
                            // a concurrent claimant computed it while we
                            // waited — import instead of recomputing
                            self.note_claim_wait(parked, waited_ns);
                            self.obs.metrics.bump(Counter::SharedTableHits);
                            let sub = self.import_shared_frame(pred, &frame);
                            self.completed_call(sub, var_addrs)
                        }
                        outcome => {
                            match outcome {
                                SharedClaim::Claimed { parked, waited_ns } => {
                                    self.obs.metrics.bump(Counter::SharedClaims);
                                    self.note_claim_wait(parked, waited_ns);
                                }
                                SharedClaim::TimedOut { parked, waited_ns } => {
                                    // bounded wait expired behind a stuck
                                    // claimant: compute locally so the
                                    // pool never wedges
                                    self.obs.metrics.bump(Counter::ClaimFallbacks);
                                    self.note_claim_wait(parked, waited_ns);
                                }
                                SharedClaim::Unshared | SharedClaim::Published { .. } => {}
                            }
                            self.obs.metrics.bump(Counter::TableMisses);
                            let owned: Box<[Cell]> = canon.as_slice().into();
                            self.new_generator(
                                pred,
                                arity,
                                owned,
                                var_addrs,
                                GenMode::Positive,
                                NONE,
                                None,
                                syms,
                            )
                        }
                    }
                }
            }
            Some(sub) => {
                if self.tables.frame(sub).state == SubgoalState::Complete {
                    self.note_table_reuse(sub);
                    self.completed_call(sub, var_addrs)
                } else {
                    self.new_consumer(sub, var_addrs, syms)
                }
            }
        };
        self.scratch_canon = canon;
        r
    }

    /// `register_neg`: a suspension id to attach to the new subgoal frame
    /// *before* its first clause runs, so that an immediately-completing
    /// generator still schedules it.
    #[allow(clippy::too_many_arguments)]
    fn new_generator(
        &mut self,
        pred: PredId,
        arity: u16,
        canon: Box<[Cell]>,
        subst: Vec<u32>,
        mode: GenMode,
        exist_cut_b: u32,
        register_neg: Option<u32>,
        syms: &mut SymbolTable,
    ) -> Result<Disp, EngineError> {
        let clauses = match &self.db.pred(pred).kind {
            PredKind::Static { clauses, .. } => clauses.clone(),
            _ => {
                return Err(EngineError::Other(format!(
                    "tabled predicate {}/{} is not static",
                    syms.name(self.db.pred(pred).name),
                    self.db.pred(pred).arity
                )))
            }
        };
        let saved_freeze = self.freeze_state();
        let sub = self.tables.new_subgoal(
            pred,
            Arc::from(canon),
            subst,
            clauses,
            mode,
            saved_freeze,
            exist_cut_b,
        );
        self.obs.metrics.count_subgoal(pred as usize);
        if self.obs.spans.enabled {
            self.obs.spans.begin_subgoal(pred, sub);
        }
        if self.obs.trace.enabled {
            self.obs
                .trace
                .push(SlgEvent::SubgoalCall { pred, subgoal: sub });
        }
        if let Some(neg) = register_neg {
            self.tables.negs[neg as usize].sub = sub;
            self.tables.frame_mut(sub).negs.push(neg);
        }
        let cp = self.push_cp(arity, Alt::Generator { sub });
        self.tables.frame_mut(sub).gen_cp = cp;
        if self.generator_step(sub, syms)? {
            Ok(Disp::Ok)
        } else {
            Ok(Disp::Failed)
        }
    }

    /// Runs the generator's next program clause, or enters completion.
    /// Returns false if execution could not be resumed (caller backtracks).
    fn generator_step(&mut self, sub: u32, syms: &mut SymbolTable) -> Result<bool, EngineError> {
        loop {
            let f = self.tables.frame(sub);
            if f.deleted {
                // table was freed by an existential cut; fall through
                let prev = self.cps[self.tables.frame(sub).gen_cp as usize].prev;
                self.b = prev;
                return Ok(false);
            }
            match f.state {
                SubgoalState::Incomplete => {
                    let cursor = f.clause_cursor as usize;
                    if cursor < f.clauses.len() {
                        let addr = f.clauses[cursor];
                        self.tables.frame_mut(sub).clause_cursor += 1;
                        self.executing_gen = sub;
                        self.b0 = self.b;
                        self.p = addr;
                        return Ok(true);
                    }
                    // clauses exhausted: completion check
                    if !self.tables.is_leader(sub) {
                        self.tables.propagate_dir_link(sub);
                        self.freeze_now();
                        let prev = self.cps[self.tables.frame(sub).gen_cp as usize].prev;
                        self.b = prev;
                        return Ok(false);
                    }
                    // leader: fixpoint over unconsumed answers
                    if let Some(cons) = self.find_unconsumed_consumer(sub) {
                        return self.schedule_consumer(sub, cons, syms);
                    }
                    // fixpoint reached: complete the whole SCC
                    let members = self.tables.complete_scc(sub);
                    self.obs.metrics.bump(Counter::SccCompletions);
                    self.obs
                        .metrics
                        .add(Counter::SubgoalsCompleted, members.len() as u64);
                    if self.obs.trace.enabled {
                        self.obs.trace.push(SlgEvent::CompleteScc {
                            leader: sub,
                            members: members.len() as u32,
                        });
                    }
                    if self.obs.spans.enabled {
                        for &m in &members {
                            let answers = self.tables.frame(m).store.len() as u32;
                            self.obs.spans.end_subgoal(m, answers);
                        }
                        let pred = self.tables.frame(sub).pred;
                        self.obs
                            .spans
                            .record("complete", pred, sub, 0, members.len() as u32);
                    }
                    let mut queue: Vec<u32> = Vec::new();
                    for &m in &members {
                        let negs = self.tables.frame(m).negs.clone();
                        queue.extend(negs);
                        // consumers that have drained a now-complete table
                        // will never receive more answers
                        let nanswers = self.tables.frame(m).store.len();
                        let conss = self.tables.frame(m).consumers.clone();
                        for cid in conss {
                            if self.tables.consumers[cid as usize].cursor as usize >= nanswers {
                                self.tables.consumers[cid as usize].dead = true;
                            }
                        }
                    }
                    self.tables.frame_mut(sub).pending_negs = queue;
                    // loop back into the Complete branch to schedule them
                }
                SubgoalState::Complete => {
                    // post-completion: schedule suspensions one at a time
                    while let Some(neg) = self.tables.frame_mut(sub).pending_negs.pop() {
                        if self.tables.negs[neg as usize].done {
                            continue;
                        }
                        if self.resume_suspension(sub, neg, syms)? {
                            return Ok(true);
                        }
                    }
                    // all scheduled: release frozen space, fail onward
                    let f = self.tables.frame(sub);
                    self.freeze = f.saved_freeze;
                    let prev = self.cps[f.gen_cp as usize].prev;
                    self.b = prev;
                    return Ok(false);
                }
            }
        }
    }

    fn find_unconsumed_consumer(&self, leader: u32) -> Option<u32> {
        for &m in self.tables.scc_members(leader).iter() {
            let f = self.tables.frame(m);
            for &cid in &f.consumers {
                let c = &self.tables.consumers[cid as usize];
                if !c.dead && (c.cursor as usize) < f.store.len() {
                    return Some(cid);
                }
            }
        }
        None
    }

    /// Switches to a suspended consumer and feeds it its next answer.
    fn schedule_consumer(
        &mut self,
        leader: u32,
        cons: u32,
        syms: &mut SymbolTable,
    ) -> Result<bool, EngineError> {
        let cp_idx = self.tables.consumers[cons as usize].cp;
        self.obs.metrics.bump(Counter::ConsumerResumptions);
        if self.obs.trace.enabled {
            self.obs.trace.push(SlgEvent::Resume {
                subgoal: self.tables.consumers[cons as usize].sub,
                consumer: cons,
            });
        }
        let cp = self.cps[cp_idx as usize].clone();
        self.switch_environments(cp.tip);
        self.e = cp.e;
        self.cont = cp.cont;
        self.b = cp_idx;
        self.tables.consumers[cons as usize].scheduled_by = leader;
        self.consumer_step(cons, syms)
    }

    /// Resumes a completed-table suspension (`tnot` succeeds on an empty
    /// table; `tfindall` builds its list). Returns true if execution
    /// resumed.
    fn resume_suspension(
        &mut self,
        leader: u32,
        neg: u32,
        syms: &mut SymbolTable,
    ) -> Result<bool, EngineError> {
        let (sub, cp_idx, mode, resume) = {
            let n = &self.tables.negs[neg as usize];
            (n.sub, n.cp, n.mode, n.resume)
        };
        self.tables.negs[neg as usize].done = true;
        self.obs.metrics.bump(Counter::NegationResumes);
        if self.obs.trace.enabled {
            self.obs.trace.push(SlgEvent::NegResume { subgoal: sub });
        }
        // The resumed branch will fail back into this leader's scheduling
        // loop (Alt::NegScheduled → return_to_leader), so the leader's
        // generator CP — and everything else currently on the stacks —
        // must survive until the drain finishes; the drain-empty branch
        // restores the saved freeze registers.
        self.freeze_now();
        match mode {
            NegMode::Tnot => {
                if self.tables.frame(sub).has_answers() {
                    return Ok(false); // negation fails: never resumed
                }
                let cp = self.cps[cp_idx as usize].clone();
                self.switch_environments(cp.tip);
                self.e = cp.e;
                self.cont = cp.cont;
                self.b = cp_idx;
                self.cps[cp_idx as usize].alt = Alt::NegScheduled { leader };
                self.p = resume;
                let _ = syms;
                Ok(true)
            }
            NegMode::Tfindall { template, result } => {
                let cp = self.cps[cp_idx as usize].clone();
                self.switch_environments(cp.tip);
                self.e = cp.e;
                self.cont = cp.cont;
                self.b = cp_idx;
                self.cps[cp_idx as usize].alt = Alt::NegScheduled { leader };
                // instantiate the template for each answer
                let subst = std::mem::take(&mut self.tables.negs[neg as usize].subst);
                let ok = self.tfindall_list(sub, &subst, template, result);
                self.tables.negs[neg as usize].subst = subst;
                if ok {
                    self.p = resume;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    fn new_consumer(
        &mut self,
        sub: u32,
        subst: Vec<u32>,
        syms: &mut SymbolTable,
    ) -> Result<Disp, EngineError> {
        self.tables.note_dependency(sub);
        let cons = self.tables.consumers.len() as u32;
        let cp = self.push_cp(0, Alt::Consumer { cons });
        self.tables.consumers.push(crate::table::Consumer {
            sub,
            cp,
            subst,
            cursor: 0,
            scheduled_by: NONE,
            dead: false,
        });
        self.tables.frame_mut(sub).consumers.push(cons);
        if self.consumer_step(cons, syms)? {
            Ok(Disp::Ok)
        } else {
            Ok(Disp::Failed)
        }
    }

    /// Feeds the consumer its next unconsumed answer, or suspends.
    /// Returns true if execution resumed with an answer.
    fn consumer_step(&mut self, cons: u32, syms: &mut SymbolTable) -> Result<bool, EngineError> {
        loop {
            let (sub, cursor) = {
                let c = &self.tables.consumers[cons as usize];
                (c.sub, c.cursor as usize)
            };
            let f = self.tables.frame(sub);
            if cursor < f.store.len() {
                let nvars = f.nvars as usize;
                let (off, len) = f.store.span(cursor);
                self.tables.consumers[cons as usize].cursor += 1;
                // zero-copy answer return: take the frame's arena (and the
                // consumer's substitution factor) out of the table space,
                // bind the factored cells directly against the heap, then
                // put both back — no per-answer clone or allocation
                let cells = self.tables.frame_mut(sub).store.take_cells();
                let subst = std::mem::take(&mut self.tables.consumers[cons as usize].subst);
                let mut tvars = std::mem::take(&mut self.scratch_tvars);
                let ans = &cells[off as usize..(off + len) as usize];
                let ok = self.bind_factored_answer(ans, &subst, nvars, &mut tvars);
                self.scratch_tvars = tvars;
                self.tables.consumers[cons as usize].subst = subst;
                self.tables.frame_mut(sub).store.put_cells(cells);
                if ok {
                    self.p = self.cont;
                    return Ok(true);
                }
                // answer did not apply (cannot normally happen for variant
                // calls); undo and try the next one
                let tip = self.cps[self.tables.consumers[cons as usize].cp as usize].tip;
                self.unwind_to(tip);
                continue;
            }
            if f.state == SubgoalState::Complete || f.deleted {
                // exhausted a completed table: this consumer is dead
                self.tables.consumers[cons as usize].dead = true;
                let cp = self.tables.consumers[cons as usize].cp;
                self.b = self.cps[cp as usize].prev;
                return Ok(false);
            }
            // suspend: freeze the stacks and give control back
            self.freeze_now();
            self.obs.metrics.bump(Counter::ConsumerSuspensions);
            if self.obs.trace.enabled {
                self.obs.trace.push(SlgEvent::Suspend {
                    subgoal: sub,
                    consumer: cons,
                });
            }
            let scheduled_by = self.tables.consumers[cons as usize].scheduled_by;
            if scheduled_by != NONE {
                self.tables.consumers[cons as usize].scheduled_by = NONE;
                return self.return_to_leader(scheduled_by, syms);
            }
            let cp = self.tables.consumers[cons as usize].cp;
            self.b = self.cps[cp as usize].prev;
            return Ok(false);
        }
    }

    /// Binds one factored answer against a call's substitution factor:
    /// the k-th binding in `ans` is bound *directly* onto the saved heap
    /// address `subst[k]`, with `unify_canon_one` falling back to full
    /// unification only for cells that are already bound. No tuple is
    /// rebuilt and nothing is copied — `ans` is a slice of the frame's
    /// arena (taken out by the caller) and `tvars` is a reused scratch
    /// map for answer-local variables.
    fn bind_factored_answer(
        &mut self,
        ans: &[Cell],
        subst: &[u32],
        nvars: usize,
        tvars: &mut Vec<Option<Cell>>,
    ) -> bool {
        // flat-ground fast path: a canonical root is either atomic (one
        // cell), an answer variable (one TVAR cell), or a structure
        // (functor cell + args, always > 1 cell). `ans.len() == nvars`
        // with no TVAR therefore means every binding is one atomic cell:
        // bind it straight onto the saved slot without the canonical
        // walker or the tvars scratch. Trailing is identical to the
        // general path (same `bind` calls, same TrailOps counts).
        if ans.len() == nvars && ans.iter().all(|c| c.tag() != Tag::TVar) {
            for (k, &slot) in subst.iter().take(nvars).enumerate() {
                let c = ans[k];
                let d = self.deref(Cell::r#ref(slot as usize));
                match d.tag() {
                    Tag::Ref => self.bind(d.addr(), c),
                    _ if d == c => {}
                    _ => return false,
                }
            }
            return true;
        }
        tvars.clear();
        let mut pos = 0usize;
        for &slot in subst.iter().take(nvars) {
            if !self.unify_canon_one(ans, &mut pos, tvars, Cell::r#ref(slot as usize)) {
                return false;
            }
        }
        true
    }

    /// Restores the leader's completion context and continues its
    /// scheduling loop.
    fn return_to_leader(
        &mut self,
        leader: u32,
        syms: &mut SymbolTable,
    ) -> Result<bool, EngineError> {
        let gen_cp = self.tables.frame(leader).gen_cp;
        let tip = self.cps[gen_cp as usize].tip;
        self.switch_environments(tip);
        self.restore_cp(gen_cp);
        self.generator_step(leader, syms)
    }

    /// Answer return from a completed table (no generator involved).
    fn completed_call(&mut self, sub: u32, subst: Vec<u32>) -> Result<Disp, EngineError> {
        let f = self.tables.frame(sub);
        match f.store.len() {
            0 => Ok(Disp::Failed),
            n => {
                let subst: Rc<[u32]> = Rc::from(subst.into_boxed_slice());
                if n > 1 {
                    self.push_cp(
                        0,
                        Alt::CompletedAnswers {
                            sub,
                            idx: 1,
                            subst: subst.clone(),
                        },
                    );
                }
                if self.completed_answer(sub, 0, &subst) {
                    Ok(Disp::Ok)
                } else {
                    Ok(Disp::Failed)
                }
            }
        }
    }

    fn completed_answer(&mut self, sub: u32, idx: usize, subst: &[u32]) -> bool {
        let f = self.tables.frame(sub);
        let nvars = f.nvars as usize;
        let (off, len) = f.store.span(idx);
        let cells = self.tables.frame_mut(sub).store.take_cells();
        let mut tvars = std::mem::take(&mut self.scratch_tvars);
        let ans = &cells[off as usize..(off + len) as usize];
        let ok = self.bind_factored_answer(ans, subst, nvars, &mut tvars);
        self.scratch_tvars = tvars;
        self.tables.frame_mut(sub).store.put_cells(cells);
        if ok {
            self.p = self.cont;
        }
        ok
    }

    /// Records an answer for `gen` from the current bindings of its
    /// substitution factor. Returns `Ok` to continue (batched scheduling
    /// returns the answer to the caller), `Failed` on duplicates or when
    /// the generator runs in negation mode.
    fn new_answer(&mut self, gen: u32, syms: &mut SymbolTable) -> Result<Disp, EngineError> {
        let (mode, state) = {
            let f = self.tables.frame(gen);
            (f.mode, f.state)
        };
        if state == SubgoalState::Complete {
            let f = self.tables.frame(gen);
            let p = self.db.pred(f.pred);
            return Err(EngineError::NotStratified(format!(
                "{}/{}",
                syms.name(p.name),
                p.arity
            )));
        }
        // canonicalize the bindings of the substitution factor — the
        // factored answer — into reused scratch buffers (no allocation on
        // this path, and the cells are only copied into the frame's arena
        // when the answer turns out to be genuinely new)
        let mut roots = std::mem::take(&mut self.scratch_roots);
        roots.clear();
        roots.extend(
            self.tables
                .frame(gen)
                .subst
                .iter()
                .map(|&a| Cell::r#ref(a as usize)),
        );
        let mut vs = std::mem::take(&mut self.scratch_vars);
        vs.clear();
        let mut canon = std::mem::take(&mut self.scratch_canon);
        self.canonicalize_into(&roots, &mut vs, &mut canon);
        self.scratch_roots = roots;
        self.scratch_vars = vs;
        // single walk: the duplicate probe and the insert share one pass
        let is_new = self.tables.add_answer(gen, &canon);
        if !is_new {
            self.scratch_canon = canon;
            self.obs.metrics.bump(Counter::DuplicateAnswers);
            if self.obs.trace.enabled {
                self.obs
                    .trace
                    .push(SlgEvent::DuplicateAnswer { subgoal: gen });
            }
            return Ok(Disp::Failed);
        }
        self.obs.metrics.bump(Counter::AnswersRecorded);
        self.obs
            .metrics
            .add(Counter::AnswerCellsFactored, canon.len() as u64);
        self.scratch_canon = canon;
        if self.obs.trace.enabled {
            let answer = self.tables.frame(gen).store.len() as u32 - 1;
            self.obs.trace.push(SlgEvent::NewAnswer {
                subgoal: gen,
                answer,
            });
        }
        match mode {
            GenMode::Positive => Ok(Disp::Ok),
            GenMode::Negation => Ok(Disp::Failed),
            GenMode::Existential => {
                // first answer: the negation is false — abort the
                // subgoal's evaluation and free its tables if safe
                // (paper §4.4: tcut). The e_tnot's own suspension (the one
                // sitting at the cut-back choice point) is not an "other
                // user".
                let own_cut = self.tables.frame(gen).exist_cut_b;
                let safe = self.tables.is_leader(gen) && !self.tables.has_other_users(gen, own_cut);
                if safe {
                    let f = self.tables.frame(gen);
                    let cut_b = f.exist_cut_b;
                    let saved = f.saved_freeze;
                    let removed = self.tables.delete_from(gen);
                    for m in removed {
                        let conss = self.tables.frame(m).consumers.clone();
                        for c in conss {
                            self.tables.consumers[c as usize].dead = true;
                        }
                        let negs = self.tables.frame(m).negs.clone();
                        for n in negs {
                            self.tables.negs[n as usize].done = true;
                        }
                    }
                    self.freeze = saved;
                    self.b = cut_b;
                }
                Ok(Disp::Failed)
            }
        }
    }

    /// `tnot/1` and `e_tnot/1` (paper §4.4).
    pub fn slg_negation(
        &mut self,
        syms: &mut SymbolTable,
        resume: CodePtr,
        is_tail: bool,
        existential: bool,
    ) -> Result<BAction, EngineError> {
        let goal = self.deref(self.x[0]);
        let (f, n) = match goal.tag() {
            Tag::Con => (goal.sym(), 0usize),
            Tag::Str => self.functor_of(goal),
            Tag::Ref => return Err(EngineError::Instantiation("tnot/1")),
            _ => {
                return Err(EngineError::Type {
                    expected: "callable",
                    found: format!("{goal:?}"),
                })
            }
        };
        let Some(pred) = self.db.lookup_pred(f, n as u16) else {
            return Err(EngineError::UndefinedPredicate(format!(
                "{}/{n}",
                syms.name(f)
            )));
        };
        if !self.db.pred(pred).tabled {
            return Err(EngineError::Other(format!(
                "tnot/1 requires a tabled predicate, {}/{n} is not tabled",
                syms.name(f)
            )));
        }
        let args: Vec<Cell> = (0..n).map(|i| self.arg_of(goal, i)).collect();
        let mut var_addrs = Vec::new();
        let canon = self.canonicalize(&args, &mut var_addrs);
        if !var_addrs.is_empty() {
            // a non-ground negative call flounders
            return Err(EngineError::Other(format!(
                "floundering: tnot of non-ground goal {}/{n}",
                syms.name(f)
            )));
        }

        if let Some(sub) = self.tables.find(pred, &canon) {
            if self.tables.frame(sub).state == SubgoalState::Complete {
                self.note_table_reuse(sub);
                return Ok(if self.tables.frame(sub).has_answers() {
                    BAction::Fail
                } else {
                    BAction::Continue
                });
            }
            // incomplete: suspend until its SCC completes
            self.tables.note_dependency(sub);
            let neg = self.tables.negs.len() as u32;
            let cp = self.push_cp(1, Alt::NegSuspend { neg });
            let _ = is_tail;
            self.obs.metrics.bump(Counter::NegationSuspends);
            if self.obs.trace.enabled {
                self.obs.trace.push(SlgEvent::NegSuspend { subgoal: sub });
            }
            self.tables.negs.push(NegSusp {
                sub,
                cp,
                mode: NegMode::Tnot,
                subst: Vec::new(),
                resume,
                done: false,
            });
            self.tables.frame_mut(sub).negs.push(neg);
            self.freeze_now();
            return Ok(BAction::Fail);
        }

        // new subgoal: evaluate it under a negation-mode generator with a
        // suspension waiting for the empty-table case. The suspension is
        // registered before the generator's first clause runs, so even an
        // immediately-completing generator schedules it.
        let neg = self.tables.negs.len() as u32;
        let cp = self.push_cp(1, Alt::NegSuspend { neg });
        self.obs.metrics.bump(Counter::NegationSuspends);
        if self.obs.trace.enabled {
            self.obs.trace.push(SlgEvent::NegSuspend { subgoal: NONE });
        }
        self.tables.negs.push(NegSusp {
            sub: NONE, // fixed up by new_generator
            cp,
            mode: NegMode::Tnot,
            subst: Vec::new(),
            resume,
            done: false,
        });
        self.freeze_now();
        let mode = if existential {
            GenMode::Existential
        } else {
            GenMode::Negation
        };
        // copy goal args into registers for the generator's clause code
        for (i, a) in args.iter().enumerate() {
            self.x[i] = *a;
        }
        match self.new_generator(pred, n as u16, canon, var_addrs, mode, cp, Some(neg), syms)? {
            Disp::Ok => Ok(BAction::Jumped),
            Disp::Failed => Ok(BAction::Fail),
        }
    }

    /// `tfindall/3`: suspends until the goal's table is complete, then
    /// builds the full answer list (paper §4.7).
    pub fn tfindall(
        &mut self,
        syms: &mut SymbolTable,
        resume: CodePtr,
        is_tail: bool,
    ) -> Result<BAction, EngineError> {
        let template = self.x[0];
        let goal = self.deref(self.x[1]);
        let result = self.x[2];
        let _ = is_tail;
        let (f, n) = match goal.tag() {
            Tag::Con => (goal.sym(), 0usize),
            Tag::Str => self.functor_of(goal),
            _ => return Err(EngineError::Instantiation("tfindall/3")),
        };
        let Some(pred) = self.db.lookup_pred(f, n as u16) else {
            return Err(EngineError::UndefinedPredicate(format!(
                "{}/{n}",
                syms.name(f)
            )));
        };
        if !self.db.pred(pred).tabled {
            return Err(EngineError::Other(
                "tfindall/3 requires a tabled predicate".into(),
            ));
        }
        let args: Vec<Cell> = (0..n).map(|i| self.arg_of(goal, i)).collect();
        let mut var_addrs = Vec::new();
        let canon = self.canonicalize(&args, &mut var_addrs);

        // already complete: build immediately
        if let Some(sub) = self.tables.find(pred, &canon) {
            if self.tables.frame(sub).state == SubgoalState::Complete {
                self.note_table_reuse(sub);
                return self.tfindall_build_now(sub, template, result, &var_addrs);
            }
            // incomplete: suspend
            self.tables.note_dependency(sub);
            let neg = self.tables.negs.len() as u32;
            let cp = self.push_cp(3, Alt::NegSuspend { neg });
            self.obs.metrics.bump(Counter::NegationSuspends);
            if self.obs.trace.enabled {
                self.obs.trace.push(SlgEvent::NegSuspend { subgoal: sub });
            }
            self.tables.negs.push(NegSusp {
                sub,
                cp,
                mode: NegMode::Tfindall { template, result },
                subst: var_addrs,
                resume,
                done: false,
            });
            self.tables.frame_mut(sub).negs.push(neg);
            self.freeze_now();
            return Ok(BAction::Fail);
        }

        // new: evaluate exhaustively under a negation-mode generator
        let neg = self.tables.negs.len() as u32;
        let cp = self.push_cp(3, Alt::NegSuspend { neg });
        self.obs.metrics.bump(Counter::NegationSuspends);
        if self.obs.trace.enabled {
            self.obs.trace.push(SlgEvent::NegSuspend { subgoal: NONE });
        }
        self.tables.negs.push(NegSusp {
            sub: NONE, // fixed up by new_generator
            cp,
            mode: NegMode::Tfindall { template, result },
            subst: var_addrs.clone(),
            resume,
            done: false,
        });
        self.freeze_now();
        for (i, a) in args.iter().enumerate() {
            self.x[i] = *a;
        }
        match self.new_generator(
            pred,
            n as u16,
            canon,
            var_addrs,
            GenMode::Negation,
            NONE,
            Some(neg),
            syms,
        )? {
            Disp::Ok => Ok(BAction::Jumped),
            Disp::Failed => Ok(BAction::Fail),
        }
    }

    fn tfindall_build_now(
        &mut self,
        sub: u32,
        template: Cell,
        result: Cell,
        subst: &[u32],
    ) -> Result<BAction, EngineError> {
        Ok(if self.tfindall_list(sub, subst, template, result) {
            BAction::Continue
        } else {
            BAction::Fail
        })
    }

    /// Instantiates `template` once per stored answer of table `sub`
    /// (binding the suspension's substitution factor directly against the
    /// factored cells, unwinding between answers), then unifies the list
    /// of collected copies with `result`.
    fn tfindall_list(&mut self, sub: u32, subst: &[u32], template: Cell, result: Cell) -> bool {
        let nvars = self.tables.frame(sub).nvars as usize;
        let n = self.tables.frame(sub).store.len();
        let mut collected: Vec<Box<[Cell]>> = Vec::with_capacity(n);
        let mut tvars = std::mem::take(&mut self.scratch_tvars);
        for idx in 0..n {
            let mark = self.tip;
            let (off, len) = self.tables.frame(sub).store.span(idx);
            let cells = self.tables.frame_mut(sub).store.take_cells();
            let ans = &cells[off as usize..(off + len) as usize];
            let ok = self.bind_factored_answer(ans, subst, nvars, &mut tvars);
            self.tables.frame_mut(sub).store.put_cells(cells);
            if ok {
                let mut vs = Vec::new();
                collected.push(self.canonicalize(&[template], &mut vs));
            }
            self.unwind_to(mark);
        }
        self.scratch_tvars = tvars;
        let items: Vec<Cell> = collected
            .iter()
            .map(|c| self.decode_canon(c, 1)[0])
            .collect();
        let list = self.make_list(&items);
        self.unify(result, list)
    }

    // ------------------------------------------------------------------
    // backtracking (the SLG scheduler)
    // ------------------------------------------------------------------

    fn backtrack(&mut self, syms: &mut SymbolTable) -> Result<Bt, EngineError> {
        loop {
            if self.b == NONE {
                return Ok(Bt::NoMore);
            }
            let i = self.b;
            self.obs.metrics.bump(Counter::Backtracks);
            self.restore_cp(i);
            if self.obs.trace.enabled {
                let depth = self.cps.len() as u32;
                self.obs.trace.push(SlgEvent::Backtrack { depth });
            }
            let alt = self.cps[i as usize].alt.clone();
            match alt {
                Alt::Code(ptr) => {
                    self.p = ptr;
                    return Ok(Bt::Resumed);
                }
                Alt::StaticList { list, idx } => {
                    let idx = idx as usize;
                    if idx + 1 >= list.len() {
                        self.b = self.cps[i as usize].prev; // trust
                    } else {
                        self.cps[i as usize].alt = Alt::StaticList {
                            list: list.clone(),
                            idx: idx as u32 + 1,
                        };
                    }
                    self.p = list[idx];
                    return Ok(Bt::Resumed);
                }
                Alt::DynClauses { pred, list, idx } => {
                    let idx = idx as usize;
                    if idx + 1 >= list.len() {
                        self.b = self.cps[i as usize].prev;
                    } else {
                        self.cps[i as usize].alt = Alt::DynClauses {
                            pred,
                            list: list.clone(),
                            idx: idx as u32 + 1,
                        };
                    }
                    if self.try_dyn_clause(pred, list[idx], syms)? {
                        return Ok(Bt::Resumed);
                    }
                    continue;
                }
                Alt::Generator { sub } => {
                    if self.generator_step(sub, syms)? {
                        return Ok(Bt::Resumed);
                    }
                    continue;
                }
                Alt::Consumer { cons } => {
                    if self.consumer_step(cons, syms)? {
                        return Ok(Bt::Resumed);
                    }
                    continue;
                }
                Alt::CompletedAnswers { sub, idx, subst } => {
                    let idx = idx as usize;
                    let n = self.tables.frame(sub).store.len();
                    if idx + 1 >= n {
                        self.b = self.cps[i as usize].prev;
                    } else {
                        self.cps[i as usize].alt = Alt::CompletedAnswers {
                            sub,
                            idx: idx as u32 + 1,
                            subst: subst.clone(),
                        };
                    }
                    if self.completed_answer(sub, idx, &subst) {
                        return Ok(Bt::Resumed);
                    }
                    continue;
                }
                Alt::NegSuspend { .. } => {
                    // plain failure through a suspension: it stays
                    // registered for completion-time scheduling
                    self.b = self.cps[i as usize].prev;
                    continue;
                }
                Alt::NegScheduled { leader } => {
                    // a scheduled suspension returns control to its leader
                    // exactly once; afterwards the barrier is spent
                    self.cps[i as usize].alt = Alt::Dead;
                    if self.return_to_leader(leader, syms)? {
                        return Ok(Bt::Resumed);
                    }
                    continue;
                }
                Alt::FindallFinish { rec, resume } => {
                    self.b = self.cps[i as usize].prev;
                    let r = self.findalls.pop().expect("findall record for its barrier");
                    debug_assert_eq!(self.findalls.len(), rec as usize);
                    let mut items: Vec<Cell> = r
                        .solutions
                        .iter()
                        .map(|c| self.decode_canon(c, 1)[0])
                        .collect();
                    if r.sort_dedup_fail_empty {
                        if items.is_empty() {
                            continue;
                        }
                        items.sort_by(|&a, &b| self.compare(a, b, syms));
                        items.dedup_by(|&mut a, &mut b| {
                            self.compare(a, b, syms) == std::cmp::Ordering::Equal
                        });
                    }
                    let list = self.make_list(&items);
                    if self.unify(r.result, list) {
                        self.p = resume;
                        return Ok(Bt::Resumed);
                    }
                    continue;
                }
                Alt::NafBarrier { resume } => {
                    // the goal failed exhaustively: \+ succeeds
                    self.b = self.cps[i as usize].prev;
                    self.p = resume;
                    return Ok(Bt::Resumed);
                }
                Alt::Between { cur, hi, resume } => {
                    if cur > hi {
                        self.b = self.cps[i as usize].prev;
                        continue;
                    }
                    if cur == hi {
                        self.b = self.cps[i as usize].prev;
                    } else {
                        self.cps[i as usize].alt = Alt::Between {
                            cur: cur + 1,
                            hi,
                            resume,
                        };
                    }
                    let x = self.deref(self.x[2]);
                    debug_assert_eq!(x.tag(), Tag::Ref, "between variable restored");
                    self.bind(x.addr(), Cell::int(cur));
                    self.p = resume;
                    return Ok(Bt::Resumed);
                }
                Alt::Retract {
                    pred,
                    list,
                    idx,
                    resume,
                } => {
                    let idx = idx as usize;
                    if idx >= list.len() {
                        self.b = self.cps[i as usize].prev;
                        continue;
                    }
                    self.cps[i as usize].alt = Alt::Retract {
                        pred,
                        list: list.clone(),
                        idx: idx as u32 + 1,
                        resume,
                    };
                    let id = list[idx];
                    if !self.db.dyn_of(pred).expect("dynamic").clause(id).live {
                        continue;
                    }
                    if self.retract_match(pred, id)? {
                        self.edb(syms)
                            .remove(pred, crate::edb::Clauses::Ids(&[id]))?;
                        self.p = resume;
                        return Ok(Bt::Resumed);
                    }
                    continue;
                }
                Alt::Query => {
                    self.b = self.cps[i as usize].prev;
                    return Ok(Bt::NoMore);
                }
                Alt::Dead => {
                    self.b = self.cps[i as usize].prev;
                    continue;
                }
            }
        }
    }

    /// Unifies the retract pattern in `x[0]` against stored clause `id`.
    fn retract_match(&mut self, pred: PredId, id: u32) -> Result<bool, EngineError> {
        let arity = self.db.pred(pred).arity as usize;
        let (canon, has_body) = {
            let c = self.db.dyn_of(pred).expect("dynamic").clause(id);
            (c.canon.clone(), c.has_body)
        };
        let roots = self.decode_canon(&canon, arity + has_body as usize);
        // rebuild the clause term: Head or (Head :- Body)
        let head = if arity == 0 {
            Cell::con(self.db.pred(pred).name)
        } else {
            let base = self.heap.len();
            self.heap.push(Cell::fun(self.db.pred(pred).name, arity));
            for r in &roots[..arity] {
                self.heap.push(*r);
            }
            Cell::str(base)
        };
        let clause_term = if has_body {
            let base = self.heap.len();
            self.heap.push(Cell::fun(well_known::NECK, 2));
            self.heap.push(head);
            self.heap.push(roots[arity]);
            Cell::str(base)
        } else {
            head
        };
        // pattern may itself be (H :- B) or just H
        let pattern = self.x[0];
        let pat = self.deref(pattern);
        let target = if has_body {
            clause_term
        } else {
            // allow retract((H :- true))
            if pat.tag() == Tag::Str {
                let (f, n) = self.functor_of(pat);
                if f == well_known::NECK && n == 2 {
                    let base = self.heap.len();
                    self.heap.push(Cell::fun(well_known::NECK, 2));
                    self.heap.push(clause_term);
                    self.heap.push(Cell::con(well_known::TRUE));
                    Cell::str(base)
                } else {
                    clause_term
                }
            } else {
                clause_term
            }
        };
        Ok(self.unify(pattern, target))
    }
}

/// Drops the local tables of `preds` — completed ones immediately,
/// incomplete ones at `end_query` — and pushes the same invalidation
/// pool-wide, so other workers drop theirs at their next sync. Returns
/// the number of local tables removed.
pub(crate) fn invalidate_tables(tables: &mut TableSpace, obs: &mut Obs, preds: &[PredId]) -> usize {
    let mut removed = 0;
    for &pred in preds {
        let n = tables.invalidate_pred(pred);
        if n > 0 {
            obs.metrics.add(Counter::TableInvalidations, n as u64);
            if obs.trace.enabled {
                obs.trace.push(SlgEvent::TableInvalidated { pred });
            }
        }
        removed += n;
    }
    let shared = tables.shared_invalidate(preds);
    if shared > 0 {
        obs.metrics
            .add(Counter::SharedTableInvalidations, shared as u64);
    }
    removed
}
