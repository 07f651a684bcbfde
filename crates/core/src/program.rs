//! The program database: predicate table, code area, directives.
//!
//! XSB distinguishes *static* predicates (fully compiled, unchanging) from
//! *dynamic* predicates (assert/retract, hash-indexed) — paper §4.2. Both
//! live here, keyed by functor/arity. Directives handled:
//!
//! * `:- table p/2.` — per-predicate tabling (§4.3)
//! * `:- table_all.` — call-graph analysis that tables enough predicates to
//!   break every loop (§4.3)
//! * `:- dynamic p/2.` — declare a dynamic predicate
//! * `:- index(p/5, [1,2,3+5]).` — dynamic-predicate index specs (§4.5)
//! * `:- first_string_index p/2.` — static first-string indexing (§4.5)

use crate::builtins::Builtin;
use crate::dynamic::{DynPred, IndexSpec};
use crate::instr::{CodeArea, CodePtr, Instr, PredId};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use xsb_syntax::{well_known, Sym, SymbolTable, Term};

/// How a static predicate is indexed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StaticIndex {
    /// first-argument hash (switch_on_term / constant / structure)
    #[default]
    Hash,
    /// first-string discrimination trie (paper §4.5, Example 4.2)
    FirstString,
}

/// Predicate implementation.
#[derive(Clone, Debug)]
pub enum PredKind {
    /// referenced but not (yet) defined; calling it fails with an error
    Undefined,
    Static {
        entry: CodePtr,
        /// individual clause entry points (the generator iterates these
        /// for tabled predicates)
        clauses: Rc<[CodePtr]>,
    },
    Dynamic {
        dynidx: u32,
    },
    Builtin(Builtin),
}

/// One predicate.
#[derive(Clone, Debug)]
pub struct Pred {
    pub name: Sym,
    pub arity: u16,
    pub tabled: bool,
    pub kind: PredKind,
    pub static_index: StaticIndex,
}

/// Pre-assembled internal code snippets.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snippets {
    /// a single `Fail` instruction
    pub fail: CodePtr,
    /// `FindallCollect; Fail`
    pub findall_collect: CodePtr,
    /// `NafCutFail`
    pub naf_cut: CodePtr,
    /// `HaltSolution`
    pub halt: CodePtr,
}

/// The full program: predicates, compiled code, dynamic clause stores.
pub struct Program {
    pub preds: Vec<Pred>,
    pub pred_map: HashMap<(Sym, u16), PredId>,
    pub code: CodeArea,
    pub dynamics: Vec<DynPred>,
    pub snippets: Snippets,
    /// Predicate dependency graph, callee → direct callers. Built from
    /// clause bodies at consult time and maintained incrementally on
    /// `assert`; drives table invalidation when a dynamic predicate
    /// changes ([`Program::tabled_dependents`]).
    dep_callers: HashMap<PredId, HashSet<PredId>>,
    /// Worker count of the engine pool this program serves (0 = not in a
    /// pool). Reported by the `pool_workers/1` builtin.
    pub pool_workers: u32,
    /// Superinstruction fusion, fixed at construction. When on (every
    /// engine but the reference one), [`Program::fuse_range`]
    /// peephole-rewrites freshly compiled code; off only for
    /// `Engine::with_fusion(false)`, the unfused reference the
    /// differential tests compare against.
    pub fusion_enabled: bool,
    /// Write-ahead-log attachment; `None` for purely in-memory engines.
    pub durable: Option<crate::durable::DurableConn>,
    /// Open explicit transaction (`begin_transaction/0`), if any. Spans
    /// queries: begin in one query, commit or abort in a later one.
    pub txn: Option<crate::durable::ActiveTxn>,
    /// txid allocator for transactions on engines with no WAL attached.
    pub next_local_tx: u64,
}

impl Program {
    /// Creates an empty program with builtins registered and internal
    /// snippets assembled.
    pub fn new(syms: &mut SymbolTable) -> Program {
        let mut p = Program {
            preds: Vec::new(),
            pred_map: HashMap::new(),
            code: CodeArea::new(),
            dynamics: Vec::new(),
            snippets: Snippets::default(),
            dep_callers: HashMap::new(),
            pool_workers: 0,
            fusion_enabled: true,
            durable: None,
            txn: None,
            next_local_tx: 1,
        };
        p.snippets.fail = p.code.emit(Instr::Fail);
        p.snippets.findall_collect = p.code.emit(Instr::FindallCollect);
        p.code.emit(Instr::Fail);
        p.snippets.naf_cut = p.code.emit(Instr::NafCutFail);
        p.snippets.halt = p.code.emit(Instr::HaltSolution);
        for (name, arity, b) in Builtin::registry() {
            let s = syms.intern(name);
            let id = p.ensure_pred(s, arity);
            p.preds[id as usize].kind = PredKind::Builtin(b);
        }
        p
    }

    /// Post-compile superinstruction fusion: peephole-rewrites the hottest
    /// adjacent instruction sequences of `code[start..]` (chosen from the
    /// committed opcode-pair profile) into fused variants. Only the
    /// *first* instruction of each fused sequence is overwritten; the
    /// shadowed originals remain in place, so no code address moves and a
    /// jump landing mid-sequence executes the original tail unchanged.
    /// Returns the number of superinstructions installed.
    ///
    /// Rules, in match order (first-op occurrences only):
    ///
    /// | sequence                         | superinstruction         |
    /// |----------------------------------|--------------------------|
    /// | `get_structure; unify…{k≥1}`     | `get_structure_unify`    |
    /// | `get_list; unify…{k≥1}`          | `get_list_unify`         |
    /// | `unify…{k≥2}`                    | `unify_run` (side pool)  |
    /// | `put_value_x; call`              | `put_value_x_call`       |
    /// | `put_value_y; call`              | `put_value_y_call`       |
    /// | `put_value_y; put_value_y`       | `put_value_y2`           |
    /// | `allocate; save_generator`       | `allocate_save_generator`|
    /// | `deallocate; proceed`            | `deallocate_proceed`     |
    /// | `get_constant; proceed`          | `get_constant_proceed`   |
    pub fn fuse_range(&mut self, start: CodePtr) -> usize {
        if !self.fusion_enabled {
            return 0;
        }
        let end = self.code.code.len();
        let mut i = start as usize;
        let mut installed = 0usize;
        while i + 1 < end {
            let (fst, snd) = (self.code.code[i], self.code.code[i + 1]);
            // get_structure followed by its unify sequence: read/write mode
            // is resolved once, then the tail executes in place
            if let Instr::GetStructure { f, n, a } = fst {
                let mut k = 0usize;
                while i + 1 + k < end
                    && k < u16::MAX as usize
                    && self.code.code[i + 1 + k].is_unify_op()
                {
                    k += 1;
                }
                if k > 0 {
                    self.code.code[i] = Instr::GetStructureUnify {
                        f,
                        n,
                        a,
                        len: k as u16,
                    };
                    installed += 1;
                    i += 1 + k; // shadowed tail must stay original: executed live
                    continue;
                }
                i += 1;
                continue;
            }
            // get_list likewise absorbs its unify tail — the hottest pair
            // in the committed opcode-pair profile (every list cell walked
            // or built dispatches it)
            if let Instr::GetList { a } = fst {
                let mut k = 0usize;
                while i + 1 + k < end
                    && k < u16::MAX as usize
                    && self.code.code[i + 1 + k].is_unify_op()
                {
                    k += 1;
                }
                if k > 0 {
                    self.code.code[i] = Instr::GetListUnify { a, len: k as u16 };
                    installed += 1;
                    i += 1 + k; // shadowed tail must stay original: executed live
                    continue;
                }
                i += 1;
                continue;
            }
            // a standalone unify run (write-mode argument building after
            // put_structure): gather the whole run into the side pool, since
            // the first op is overwritten by the UnifyRun itself
            if fst.is_unify_op() && snd.is_unify_op() {
                let mut k = 2usize;
                while i + k < end && k < u16::MAX as usize && self.code.code[i + k].is_unify_op() {
                    k += 1;
                }
                let run = self.code.unify_runs.len() as u32;
                let slice: Vec<Instr> = self.code.code[i..i + k].to_vec();
                self.code.unify_runs.extend_from_slice(&slice);
                self.code.code[i] = Instr::UnifyRun { run, len: k as u16 };
                installed += 1;
                i += k;
                continue;
            }
            let rewritten = match (fst, snd) {
                (Instr::PutValueX { x, a }, Instr::Call { pred }) => {
                    Some(Instr::PutValueXCall { x, a, pred })
                }
                (Instr::PutValueY { y, a }, Instr::Call { pred }) => {
                    Some(Instr::PutValueYCall { y, a, pred })
                }
                (Instr::PutValueY { y: y1, a: a1 }, Instr::PutValueY { y: y2, a: a2 }) => {
                    Some(Instr::PutValueY2 { y1, a1, y2, a2 })
                }
                (Instr::Allocate { nperms }, Instr::SaveGenerator { y }) => {
                    Some(Instr::AllocateSaveGenerator { nperms, y })
                }
                (Instr::Deallocate, Instr::Proceed) => Some(Instr::DeallocateProceed),
                (Instr::GetConstant { c, a }, Instr::Proceed) => {
                    Some(Instr::GetConstantProceed { c, a })
                }
                _ => None,
            };
            if let Some(r) = rewritten {
                self.code.code[i] = r;
                installed += 1;
                i += 2; // the shadowed second op stays for jump-ins
            } else {
                i += 1;
            }
        }
        installed
    }

    /// Looks up or creates the predicate `name/arity`.
    pub fn ensure_pred(&mut self, name: Sym, arity: u16) -> PredId {
        if let Some(&id) = self.pred_map.get(&(name, arity)) {
            return id;
        }
        let id = self.preds.len() as PredId;
        self.preds.push(Pred {
            name,
            arity,
            tabled: false,
            kind: PredKind::Undefined,
            static_index: StaticIndex::Hash,
        });
        self.pred_map.insert((name, arity), id);
        id
    }

    pub fn lookup_pred(&self, name: Sym, arity: u16) -> Option<PredId> {
        self.pred_map.get(&(name, arity)).copied()
    }

    pub fn pred(&self, id: PredId) -> &Pred {
        &self.preds[id as usize]
    }

    /// Marks `name/arity` tabled. Errors if already defined as dynamic
    /// (tabling is supported for static predicates, as in XSB v1.3).
    pub fn declare_tabled(&mut self, name: Sym, arity: u16) -> Result<(), String> {
        let id = self.ensure_pred(name, arity);
        if matches!(self.preds[id as usize].kind, PredKind::Dynamic { .. }) {
            return Err("cannot table a dynamic predicate".into());
        }
        self.preds[id as usize].tabled = true;
        Ok(())
    }

    /// Declares `name/arity` dynamic, creating its clause store.
    pub fn declare_dynamic(&mut self, name: Sym, arity: u16) -> Result<PredId, String> {
        let id = self.ensure_pred(name, arity);
        match self.preds[id as usize].kind {
            PredKind::Dynamic { .. } => Ok(id),
            PredKind::Undefined => {
                let dynidx = self.dynamics.len() as u32;
                self.dynamics.push(DynPred::new(arity));
                self.preds[id as usize].kind = PredKind::Dynamic { dynidx };
                Ok(id)
            }
            _ => Err("predicate already defined as static or builtin".into()),
        }
    }

    /// The dynamic store of a predicate, if it is dynamic.
    pub fn dyn_of(&self, id: PredId) -> Option<&DynPred> {
        match self.preds[id as usize].kind {
            PredKind::Dynamic { dynidx } => Some(&self.dynamics[dynidx as usize]),
            _ => None,
        }
    }

    pub fn dyn_of_mut(&mut self, id: PredId) -> Option<&mut DynPred> {
        match self.preds[id as usize].kind {
            PredKind::Dynamic { dynidx } => Some(&mut self.dynamics[dynidx as usize]),
            _ => None,
        }
    }

    /// Applies an `index(p/N, Specs)` directive to a dynamic predicate,
    /// e.g. `index(p/5, [1, 2, 3+5])`.
    pub fn apply_index_directive(&mut self, d: &Term) -> Result<(), String> {
        let args = match d {
            Term::Compound(f, args) if *f == well_known::INDEX && args.len() == 2 => args,
            _ => return Err("malformed index/2 directive".into()),
        };
        let (name, arity) = pred_indicator(&args[0]).ok_or("index/2: expected p/N")?;
        let specs = parse_index_specs(&args[1]).ok_or("index/2: bad spec list")?;
        let id = self.declare_dynamic(name, arity)?;
        let dp = self.dyn_of_mut(id).expect("just declared dynamic");
        dp.set_indexes(specs)?;
        Ok(())
    }

    /// Resolves a goal term to its predicate id (by functor/arity).
    pub fn pred_of_goal(&self, goal: &Term) -> Option<PredId> {
        let (f, n) = goal.functor()?;
        self.lookup_pred(f, n as u16)
    }

    /// Records one dependency edge: `caller` has a clause whose body may
    /// call `callee`.
    pub fn record_dep(&mut self, caller: PredId, callee: PredId) {
        self.dep_callers.entry(callee).or_default().insert(caller);
    }

    /// Records dependency edges for every predicate a clause-body goal may
    /// call (descending through `,`/`;`/`->` and the negation wrappers).
    /// Callees not seen before are created as `Undefined` predicates so
    /// the edge survives until they are defined.
    pub fn record_goal_deps(&mut self, caller: PredId, goal: &Term) {
        let mut callees = Vec::new();
        goal_callees(goal, &mut callees);
        self.record_deps(caller, &callees);
    }

    /// Records an edge from `caller` to each `name/arity` callee.
    pub fn record_deps(&mut self, caller: PredId, callees: &[(Sym, u16)]) {
        for &(f, n) in callees {
            let callee = self.ensure_pred(f, n);
            self.record_dep(caller, callee);
        }
    }

    /// Tabled predicates that (transitively) depend on `changed`: walks the
    /// caller edges up from `changed`, collecting every tabled predicate
    /// reached. These are exactly the tables a change to `changed` can make
    /// stale. Meta-calls (`call/N` with a runtime-constructed goal) are not
    /// tracked — see DESIGN.md.
    pub fn tabled_dependents(&self, changed: PredId) -> Vec<PredId> {
        let mut seen: HashSet<PredId> = HashSet::new();
        let mut out = Vec::new();
        let mut work = vec![changed];
        seen.insert(changed);
        while let Some(p) = work.pop() {
            if self.preds[p as usize].tabled {
                out.push(p);
            }
            if let Some(callers) = self.dep_callers.get(&p) {
                for &c in callers {
                    if seen.insert(c) {
                        work.push(c);
                    }
                }
            }
        }
        out
    }
}

/// Parses `p/2` into `(sym, 2)`.
pub fn pred_indicator(t: &Term) -> Option<(Sym, u16)> {
    match t {
        Term::Compound(f, args) if *f == well_known::SLASH && args.len() == 2 => {
            match (&args[0], &args[1]) {
                (Term::Atom(s), Term::Int(n)) => Some((*s, *n as u16)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Parses the spec list of `index/2`: each element is a field number or a
/// `+`-joined combination (at most 3 fields, per the paper).
fn parse_index_specs(t: &Term) -> Option<Vec<IndexSpec>> {
    let mut specs = Vec::new();
    let mut cur = t;
    loop {
        match cur {
            Term::Atom(s) if *s == well_known::NIL => break,
            Term::Compound(f, args) if *f == well_known::DOT && args.len() == 2 => {
                specs.push(parse_one_spec(&args[0])?);
                cur = &args[1];
            }
            _ => return None,
        }
    }
    Some(specs)
}

fn parse_one_spec(t: &Term) -> Option<IndexSpec> {
    let mut fields = Vec::new();
    fn collect(t: &Term, out: &mut Vec<u16>) -> Option<()> {
        match t {
            Term::Int(i) if *i >= 1 => {
                out.push(*i as u16 - 1); // 1-based in source, 0-based here
                Some(())
            }
            Term::Compound(f, args) if *f == well_known::PLUS && args.len() == 2 => {
                collect(&args[0], out)?;
                collect(&args[1], out)
            }
            _ => None,
        }
    }
    collect(t, &mut fields)?;
    if fields.is_empty() || fields.len() > 3 {
        return None; // joint indexes limited to 3 fields (paper §4.5)
    }
    Some(IndexSpec { fields })
}

/// `table_all` support: given the clause groups of one consulted module,
/// returns the predicates that must be tabled so that every loop in the
/// call graph is broken. As in the paper, "simplicity and speed were chosen
/// over refinements in the precision of the algorithm": every predicate on
/// a cycle (any non-trivial SCC, or a self-loop) is tabled.
pub fn table_all_analysis(
    groups: &HashMap<(Sym, u16), Vec<xsb_syntax::Clause>>,
) -> Vec<(Sym, u16)> {
    // build call graph among the module's predicates
    let keys: Vec<(Sym, u16)> = groups.keys().copied().collect();
    let index: HashMap<(Sym, u16), usize> = keys
        .iter()
        .copied()
        .enumerate()
        .map(|(i, k)| (k, i))
        .collect();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
    for (k, clauses) in groups {
        let from = index[k];
        let mut callees = Vec::new();
        for g in clauses.iter().flat_map(|c| &c.body) {
            goal_callees(g, &mut callees);
        }
        edges[from].extend(callees.iter().filter_map(|c| index.get(c)));
    }
    // Tarjan SCC
    let n = keys.len();
    let mut ids = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_id = 0usize;
    let mut result: Vec<(Sym, u16)> = Vec::new();

    // iterative Tarjan to avoid recursion limits on big modules
    #[derive(Clone)]
    struct StackFrame {
        v: usize,
        edge: usize,
    }
    for start in 0..n {
        if ids[start] != usize::MAX {
            continue;
        }
        let mut call_stack = vec![StackFrame { v: start, edge: 0 }];
        ids[start] = next_id;
        low[start] = next_id;
        next_id += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(frame) = call_stack.last().cloned() {
            let v = frame.v;
            if frame.edge < edges[v].len() {
                let w = edges[v][frame.edge];
                call_stack.last_mut().expect("nonempty").edge += 1;
                if ids[w] == usize::MAX {
                    ids[w] = next_id;
                    low[w] = next_id;
                    next_id += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push(StackFrame { v: w, edge: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(ids[w]);
                }
            } else {
                call_stack.pop();
                if let Some(parent) = call_stack.last() {
                    low[parent.v] = low[parent.v].min(low[v]);
                }
                if low[v] == ids[v] {
                    // root of an SCC: pop members
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack nonempty");
                        on_stack[w] = false;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let cyclic = members.len() > 1 || edges[v].contains(&v); // self-loop
                    if cyclic {
                        result.extend(members.iter().map(|&m| keys[m]));
                    }
                }
            }
        }
    }
    result
}

/// True for the control constructs (`,`/`;`/`->`) and negation wrappers
/// that a dependency walk descends through instead of recording as
/// callees.
pub(crate) fn is_control_goal(f: Sym, arity: usize) -> bool {
    match arity {
        2 => f == well_known::COMMA || f == well_known::SEMICOLON || f == well_known::ARROW,
        1 => {
            f == well_known::NAF
                || f == well_known::TNOT
                || f == well_known::E_TNOT
                || f == well_known::NOT
        }
        _ => false,
    }
}

/// Appends the functor/arity pairs of predicates a goal may call
/// (descending through control constructs and negation).
fn goal_callees(g: &Term, out: &mut Vec<(Sym, u16)>) {
    match g {
        Term::Compound(f, args) if is_control_goal(*f, args.len()) => {
            for a in args {
                goal_callees(a, out);
            }
        }
        Term::Atom(s) => out.push((*s, 0)),
        Term::Compound(f, args) => out.push((*f, args.len() as u16)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsb_syntax::{parse_program, Clause, Item, OpTable};

    #[test]
    fn ensure_pred_is_idempotent() {
        let mut syms = SymbolTable::new();
        let mut p = Program::new(&mut syms);
        let s = syms.intern("foo");
        let a = p.ensure_pred(s, 2);
        let b = p.ensure_pred(s, 2);
        assert_eq!(a, b);
        assert_ne!(p.ensure_pred(s, 3), a, "arity distinguishes predicates");
    }

    #[test]
    fn builtins_are_registered() {
        let mut syms = SymbolTable::new();
        let p = Program::new(&mut syms);
        let is = syms.lookup("is").unwrap();
        let id = p.lookup_pred(is, 2).unwrap();
        assert!(matches!(p.pred(id).kind, PredKind::Builtin(_)));
    }

    #[test]
    fn index_directive_round_trip() {
        let mut syms = SymbolTable::new();
        let mut p = Program::new(&mut syms);
        let ops = OpTable::standard();
        let items = parse_program(":- index(p/5, [1, 2, 3+5]).", &mut syms, &ops).unwrap();
        let d = match &items[0] {
            Item::Directive(d) => d.clone(),
            _ => panic!(),
        };
        p.apply_index_directive(&d).unwrap();
        let s = syms.lookup("p").unwrap();
        let id = p.lookup_pred(s, 5).unwrap();
        let dp = p.dyn_of(id).unwrap();
        assert_eq!(dp.index_specs().len(), 3);
        assert_eq!(dp.index_specs()[2].fields, vec![2, 4]);
    }

    #[test]
    fn joint_index_rejects_more_than_three_fields() {
        let mut syms = SymbolTable::new();
        let mut p = Program::new(&mut syms);
        let ops = OpTable::standard();
        let items = parse_program(":- index(p/5, [1+2+3+4]).", &mut syms, &ops).unwrap();
        let d = match &items[0] {
            Item::Directive(d) => d.clone(),
            _ => panic!(),
        };
        assert!(p.apply_index_directive(&d).is_err());
    }

    fn groups_of(src: &str, syms: &mut SymbolTable) -> HashMap<(Sym, u16), Vec<Clause>> {
        let ops = OpTable::standard();
        let items = parse_program(src, syms, &ops).unwrap();
        let mut groups: HashMap<(Sym, u16), Vec<Clause>> = HashMap::new();
        for it in items {
            if let Item::Clause(c) = it {
                let (f, n) = c.head.functor().unwrap();
                groups.entry((f, n as u16)).or_default().push(c);
            }
        }
        groups
    }

    #[test]
    fn table_all_tables_recursive_predicates_only() {
        let mut syms = SymbolTable::new();
        let src = r#"
            path(X,Y) :- edge(X,Y).
            path(X,Y) :- path(X,Z), edge(Z,Y).
            edge(1,2).
            helper(X) :- edge(X,X).
        "#;
        let groups = groups_of(src, &mut syms);
        let tabled = table_all_analysis(&groups);
        let path = syms.lookup("path").unwrap();
        assert_eq!(tabled, vec![(path, 2)]);
    }

    #[test]
    fn table_all_handles_mutual_recursion() {
        let mut syms = SymbolTable::new();
        let src = r#"
            even(0).
            even(X) :- X > 0, Y is X - 1, odd(Y).
            odd(X) :- X > 0, Y is X - 1, even(Y).
        "#;
        let groups = groups_of(src, &mut syms);
        let mut tabled = table_all_analysis(&groups);
        tabled.sort();
        let even = syms.lookup("even").unwrap();
        let odd = syms.lookup("odd").unwrap();
        let mut expect = vec![(even, 1), (odd, 1)];
        expect.sort();
        assert_eq!(tabled, expect);
    }

    #[test]
    fn dependency_graph_finds_transitive_tabled_callers() {
        let mut syms = SymbolTable::new();
        let mut p = Program::new(&mut syms);
        let edge = p.ensure_pred(syms.intern("edge"), 2);
        let path = p.ensure_pred(syms.intern("path"), 2);
        let reach = p.ensure_pred(syms.intern("reach"), 1);
        let island = p.ensure_pred(syms.intern("island"), 1);
        p.preds[path as usize].tabled = true;
        p.preds[reach as usize].tabled = true;
        p.preds[island as usize].tabled = true;
        // path calls edge; reach calls path; island calls nothing
        p.record_dep(path, edge);
        p.record_dep(reach, path);
        let mut deps = p.tabled_dependents(edge);
        deps.sort_unstable();
        assert_eq!(deps, vec![path, reach], "island is unaffected");
        assert!(p.tabled_dependents(island).contains(&island));
    }

    #[test]
    fn record_goal_deps_descends_control_constructs() {
        let mut syms = SymbolTable::new();
        let mut p = Program::new(&mut syms);
        let ops = OpTable::standard();
        let items = parse_program("top :- (a, tnot b ; c -> d).", &mut syms, &ops).unwrap();
        let c = match &items[0] {
            Item::Clause(c) => c.clone(),
            _ => panic!(),
        };
        let top = p.ensure_pred(syms.lookup("top").unwrap(), 0);
        p.preds[top as usize].tabled = true;
        for g in &c.body {
            p.record_goal_deps(top, g);
        }
        for name in ["a", "b", "c", "d"] {
            let callee = p.lookup_pred(syms.lookup(name).unwrap(), 0).unwrap();
            assert_eq!(p.tabled_dependents(callee), vec![top], "callee {name}");
        }
    }

    #[test]
    fn table_all_sees_through_negation() {
        let mut syms = SymbolTable::new();
        let src = "win(X) :- move(X,Y), tnot win(Y).\nmove(1,2).";
        let groups = groups_of(src, &mut syms);
        let tabled = table_all_analysis(&groups);
        let win = syms.lookup("win").unwrap();
        assert_eq!(tabled, vec![(win, 1)]);
    }
}
