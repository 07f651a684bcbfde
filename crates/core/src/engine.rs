//! The public engine API.
//!
//! [`Engine`] owns the symbol table, the program database, and the table
//! space; each query runs a fresh [`Machine`] over them. Completed tables
//! persist across queries and are kept consistent with the dynamic
//! database: `assert`/`retract`/`retractall` on a predicate transitively
//! invalidate the tables of every tabled predicate that depends on it
//! (via the dependency graph in [`crate::program::Program`]), so a
//! re-query recomputes exactly the stale tables and reuses the rest.
//! `abolish_table_pred/1` and `abolish_table_call/1` give manual control;
//! [`Engine::set_table_budget`] bounds the answer store, evicting
//! completed tables least-recently-hit first between queries. Incomplete
//! tables are purged when a query ends early.

use crate::cell::Cell;
use crate::compile::{compile_predicate, compile_query};
use crate::dynamic::IndexSpec;
use crate::edb::{Clauses, Edb, NewClause};
use crate::emulate::Outcome;
use crate::error::EngineError;
use crate::instr::PredId;
use crate::machine::Machine;
use crate::program::{pred_indicator, table_all_analysis, Program, StaticIndex};
use crate::shared::SharedTableStore;
use crate::table::TableSpace;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use xsb_obs::{Counter, Json, Metrics, Obs, SlgEvent, Stopwatch, NO_ID, NO_SPAN};
use xsb_syntax::{
    parse_query, well_known, Clause, ProgramReader, ReadItem, Sym, SymbolTable, Term,
};

/// One solution: bindings of the query's named variables, decoded to AST
/// terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub bindings: Vec<(String, Term)>,
}

impl Solution {
    /// The binding of variable `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Term> {
        self.bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }
}

/// One solution as [`Engine`]'s query driver reports it: still on the
/// machine's heap, decoded only if the callback asks.
pub(crate) struct Derived<'a> {
    machine: &'a Machine<'a>,
    vars: &'a [Cell],
    names: &'a [String],
    /// the engine's symbol table, for rendering decoded terms
    pub(crate) syms: &'a SymbolTable,
}

impl<'a> Derived<'a> {
    /// The query's named variables with their bindings decoded to AST
    /// terms, in query order.
    pub(crate) fn bindings(&self) -> impl Iterator<Item = (&'a String, Term)> + '_ {
        self.names
            .iter()
            .zip(self.vars)
            .filter(|(name, _)| *name != "_")
            .map(|(name, &var)| (name, self.machine.heap_to_ast(var, &mut Vec::new())))
    }

    /// The bindings as an owned [`Solution`].
    pub(crate) fn solution(&self) -> Solution {
        let bindings = self.bindings().map(|(n, t)| (n.clone(), t)).collect();
        Solution { bindings }
    }
}

/// Library predicates consulted into every engine at startup.
const PRELUDE: &str = r#"
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
length([], 0).
length([_|T], N) :- length(T, M), N is M + 1.
reverse(L, R) :- xsb_rev_(L, [], R).
xsb_rev_([], A, A).
xsb_rev_([H|T], A, R) :- xsb_rev_(T, [H|A], R).
last([X], X).
last([_|T], X) :- last(T, X).
sum_list([], 0).
sum_list([H|T], S) :- sum_list(T, S1), S is S1 + H.
max_list([X], X).
max_list([H|T], M) :- max_list(T, M1), M is max(H, M1).
min_list([X], X).
min_list([H|T], M) :- min_list(T, M1), M is min(H, M1).
numlist(L, H, [L]) :- L =:= H.
numlist(L, H, [L|T]) :- L < H, L1 is L + 1, numlist(L1, H, T).
select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).
"#;

/// The XSB-style deductive database engine.
pub struct Engine {
    pub syms: SymbolTable,
    pub reader: ProgramReader,
    pub db: Program,
    pub tables: TableSpace,
    step_limit: Option<u64>,
    /// apply the compile-time specialization of known HiLog calls
    /// (paper §4.7); on by default, disabled for the E8 ablation
    pub hilog_specialization: bool,
    /// Observability: the metrics registry and SLG event tracer. Counters
    /// accumulate across queries until [`Engine::reset_metrics`].
    pub obs: Obs,
    /// Rendered span trees of queries that crossed the slow-query
    /// threshold, oldest first (bounded at [`SLOW_QUERY_LOG_CAP`]).
    slow_query_log: Vec<String>,
}

/// Retained slow-query log entries; older entries are dropped first.
pub const SLOW_QUERY_LOG_CAP: usize = 64;

impl Engine {
    /// A fresh engine with builtins and the library prelude loaded.
    pub fn new() -> Engine {
        Engine::with_fusion(true)
    }

    /// Like [`Engine::new`], but with superinstruction fusion set *before*
    /// the prelude is consulted — `with_fusion(false)` yields a fully
    /// unfused reference engine (the prelude itself compiles unfused),
    /// which the fused-vs-unfused differential tests compare against.
    pub fn with_fusion(fusion: bool) -> Engine {
        let mut syms = SymbolTable::new();
        let mut db = Program::new(&mut syms);
        db.fusion_enabled = fusion;
        let mut e = Engine {
            syms,
            reader: ProgramReader::new(),
            db,
            tables: TableSpace::new(),
            step_limit: None,
            hilog_specialization: true,
            obs: Obs::new(),
            slow_query_log: Vec::new(),
        };
        e.consult(PRELUDE).expect("prelude compiles");
        e
    }

    /// Limits each query to at most `limit` abstract machine steps
    /// (`None` = unlimited). Useful to demonstrate non-termination of SLD
    /// where SLG terminates.
    pub fn set_step_limit(&mut self, limit: Option<u64>) {
        self.step_limit = limit;
    }

    /// Consults program text: handles directives, compiles static
    /// predicates, asserts clauses of dynamic predicates. On a durable
    /// engine the source text is logged as one Broadcast record (the text
    /// subsumes the per-clause assert records, which are suppressed).
    pub fn consult(&mut self, src: &str) -> Result<(), EngineError> {
        let logged =
            crate::durable::log_consult_text(&mut self.db, &self.syms, &mut self.obs.metrics, src)?;
        if logged {
            self.db.durable.as_mut().expect("logged").suspended += 1;
        }
        let r = self.consult_inner(src);
        if logged {
            self.db.durable.as_mut().expect("logged").suspended -= 1;
        }
        r
    }

    fn consult_inner(&mut self, src: &str) -> Result<(), EngineError> {
        let items = self.reader.read(src, &mut self.syms)?;
        let mut clauses: Vec<Clause> = Vec::new();
        let mut directives: Vec<Term> = Vec::new();
        let mut table_all = false;
        for item in items {
            match item {
                ReadItem::Directive(d) => {
                    if d == Term::Atom(well_known::TABLE_ALL) {
                        table_all = true;
                    } else {
                        directives.push(d);
                    }
                }
                ReadItem::Clause(c) => clauses.push(c),
            }
        }
        for d in &directives {
            self.apply_directive(d)?;
        }
        // compile-time specialization of known HiLog calls (paper §4.7)
        if self.hilog_specialization
            && clauses
                .iter()
                .any(|c| c.head.functor().map(|(f, _)| f) == Some(well_known::APPLY))
        {
            clauses = xsb_syntax::hilog::specialize(&clauses, &mut self.syms);
        }

        let mut groups: HashMap<(Sym, u16), Vec<Clause>> = HashMap::new();
        let mut order: Vec<(Sym, u16)> = Vec::new();
        for c in clauses {
            let (f, n) = c
                .head
                .functor()
                .ok_or_else(|| EngineError::Other("clause head must be callable".into()))?;
            let key = (f, n as u16);
            if !groups.contains_key(&key) {
                order.push(key);
            }
            groups.entry(key).or_default().push(c);
        }

        if table_all {
            for (name, arity) in table_all_analysis(&groups) {
                self.db
                    .declare_tabled(name, arity)
                    .map_err(EngineError::Other)?;
            }
        }

        for key in order {
            let clauses = groups.remove(&key).expect("group recorded");
            let pred = self.db.ensure_pred(key.0, key.1);
            if self.db.dyn_of(pred).is_some() {
                self.assert_clauses(pred, &clauses)?;
                continue;
            }
            // dependency graph: every body goal of every clause is a
            // potential callee of `pred` (drives table invalidation)
            for g in clauses.iter().flat_map(|c| &c.body) {
                self.db.record_goal_deps(pred, g);
            }
            compile_predicate(&mut self.db, &mut self.syms, key.0, key.1, &clauses)?;
        }
        Ok(())
    }

    fn apply_directive(&mut self, d: &Term) -> Result<(), EngineError> {
        match d {
            // table p/2  /  table (p/2, q/3)
            Term::Compound(f, args) if *f == well_known::TABLE && args.len() == 1 => {
                for spec in args[0].conjuncts() {
                    let (name, arity) = pred_indicator(spec)
                        .ok_or_else(|| EngineError::Other("table directive expects p/N".into()))?;
                    self.db
                        .declare_tabled(name, arity)
                        .map_err(EngineError::Other)?;
                }
                Ok(())
            }
            Term::Compound(f, args) if *f == well_known::DYNAMIC && args.len() == 1 => {
                for spec in args[0].conjuncts() {
                    let (name, arity) = pred_indicator(spec).ok_or_else(|| {
                        EngineError::Other("dynamic directive expects p/N".into())
                    })?;
                    self.db
                        .declare_dynamic(name, arity)
                        .map_err(EngineError::Other)?;
                }
                Ok(())
            }
            Term::Compound(f, _) if *f == well_known::INDEX => {
                self.db.apply_index_directive(d).map_err(EngineError::Other)
            }
            Term::Compound(f, args) if *f == well_known::FIRST_STRING && args.len() == 1 => {
                for spec in args[0].conjuncts() {
                    let (name, arity) = pred_indicator(spec).ok_or_else(|| {
                        EngineError::Other("first_string_index expects p/N".into())
                    })?;
                    let id = self.db.ensure_pred(name, arity);
                    self.db.preds[id as usize].static_index = StaticIndex::FirstString;
                }
                Ok(())
            }
            // hilog/op: already applied by the reader
            Term::Compound(f, _) if *f == well_known::HILOG || *f == well_known::OP => Ok(()),
            Term::Atom(s) if *s == well_known::HILOG => Ok(()),
            other => Err(EngineError::Other(format!(
                "unknown directive: {}",
                other.display(&self.syms)
            ))),
        }
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    /// Runs a query, invoking `f` for each solution; `f` returns `false`
    /// to stop early.
    pub fn run_query(
        &mut self,
        q: &str,
        mut f: impl FnMut(&Solution) -> bool,
    ) -> Result<(), EngineError> {
        self.drive(q, |d| f(&d.solution())).map(drop)
    }

    /// All solutions of a query.
    pub fn query(&mut self, q: &str) -> Result<Vec<Solution>, EngineError> {
        let mut out = Vec::new();
        self.drive(q, |d| {
            out.push(d.solution());
            true
        })?;
        Ok(out)
    }

    /// True iff the query has at least one solution.
    pub fn holds(&mut self, q: &str) -> Result<bool, EngineError> {
        Ok(self.drive(q, |_| false)? > 0)
    }

    /// Number of solutions (driving the query to exhaustion, like the
    /// paper's `?- path(1,X), fail.` timing harness). Does not decode
    /// bindings — this is the tuple-at-a-time fail-loop fast path.
    pub fn count(&mut self, q: &str) -> Result<usize, EngineError> {
        Ok(self.drive(q, |_| true)? as usize)
    }

    /// The one query driver: parse, HiLog-encode, compile and run `q`,
    /// handing each solution to `on_solution` as it is derived (`false`
    /// stops the query), then end the query's tables, enforce the budget,
    /// publish to the shared store and close the query's observability.
    /// Returns the number of solutions handed out. Bindings are decoded
    /// only when the callback asks ([`Derived::solution`]), so a callback
    /// that never does keeps the fail-loop fast path.
    pub(crate) fn drive(
        &mut self,
        q: &str,
        mut on_solution: impl FnMut(&Derived<'_>) -> bool,
    ) -> Result<u64, EngineError> {
        self.sync_shared_tables();
        let query = parse_query(q, &mut self.syms, &self.reader.ops)?;
        let goals: Vec<Term> = query
            .goals
            .iter()
            .map(|g| self.reader.hilog.encode(g))
            .collect();
        let nvars = query.var_names.len() as u32;
        let qpred = compile_query(&mut self.db, &mut self.syms, &goals, nvars)?;

        let qspan = self.obs.spans.begin("query", NO_ID);
        let mut machine = Machine::new(&mut self.db, &mut self.tables);
        machine.step_limit = self.step_limit;
        machine.obs = std::mem::take(&mut self.obs);
        let sw = Stopwatch::new();
        let vars = machine.setup_query(qpred, nvars);

        let mut n: u64 = 0;
        let result = (|| -> Result<(), EngineError> {
            let mut outcome = machine.run(&mut self.syms)?;
            while outcome == Outcome::Solution {
                n += 1;
                let derived = Derived {
                    machine: &machine,
                    vars: &vars,
                    names: &query.var_names,
                    syms: &self.syms,
                };
                if !on_solution(&derived) {
                    break;
                }
                outcome = machine.next_solution(&mut self.syms)?;
            }
            Ok(())
        })();

        let elapsed_ns = sw.elapsed_nanos();
        machine.obs.metrics.query_time.record(sw);
        machine.obs.metrics.query_latency.record(elapsed_ns);
        self.obs = std::mem::take(&mut machine.obs);
        drop(machine);
        self.tables.end_query();
        self.enforce_table_budget();
        self.publish_shared_tables();
        self.finish_query_obs(qspan, elapsed_ns, n);
        result.map(|()| n)
    }

    /// Catches up with invalidations other pool workers pushed since this
    /// engine's last query (no-op without an attached shared store).
    fn sync_shared_tables(&mut self) {
        if self.tables.shared_handle().is_none() {
            return;
        }
        let sw = Stopwatch::new();
        let n = self.tables.sync_shared();
        let ns = sw.elapsed_nanos();
        self.obs.metrics.shared_sync.record(ns);
        if self.obs.spans.enabled {
            self.obs.spans.record("sync", NO_ID, NO_ID, ns, n as u32);
        }
        if n > 0 {
            self.obs
                .metrics
                .add(Counter::SharedTableInvalidations, n as u64);
        }
    }

    /// Promotes tables completed by the finished query into the pool's
    /// shared store (no-op without an attached shared store).
    fn publish_shared_tables(&mut self) {
        if self.tables.shared_handle().is_none() {
            return;
        }
        let sw = Stopwatch::new();
        let n = self.tables.publish_completed();
        let ns = sw.elapsed_nanos();
        self.obs.metrics.shared_publish.record(ns);
        if self.obs.spans.enabled {
            self.obs.spans.record("publish", NO_ID, NO_ID, ns, n as u32);
        }
        if n > 0 {
            self.obs
                .metrics
                .add(Counter::SharedTablePublishes, n as u64);
        }
    }

    /// Closes the per-query span (plus any subgoal spans the run left
    /// open) and feeds the slow-query log when the query's evaluation
    /// time reaches the configured threshold.
    fn finish_query_obs(&mut self, qspan: u32, elapsed_ns: u64, answers: u64) {
        if self.obs.spans.enabled || qspan != NO_SPAN {
            self.obs.spans.end_open_subgoals();
            self.obs.spans.end(qspan, answers as u32);
        }
        let Some(threshold) = self.obs.slow_query_threshold_ns else {
            return;
        };
        if elapsed_ns < threshold {
            return;
        }
        let header = format!(
            "%% slow query: {:.3} ms, {} solutions",
            elapsed_ns as f64 / 1e6,
            answers
        );
        let tree = if qspan == NO_SPAN {
            String::new()
        } else {
            let db = &self.db;
            let syms = &self.syms;
            self.obs
                .spans
                .render_tree(qspan, |p| pred_display(db, syms, p))
        };
        let entry = if tree.is_empty() {
            header
        } else {
            format!("{header}\n{tree}")
        };
        eprintln!("{entry}");
        if self.slow_query_log.len() >= SLOW_QUERY_LOG_CAP {
            self.slow_query_log.remove(0);
        }
        self.slow_query_log.push(entry);
    }

    /// Evicts completed tables (least-recently-hit first) until the
    /// answer store fits the configured budget. Runs between queries so
    /// no in-flight computation ever loses its tables.
    fn enforce_table_budget(&mut self) {
        let evicted = self.tables.enforce_budget();
        if evicted.is_empty() {
            return;
        }
        self.obs
            .metrics
            .add(Counter::TableEvictions, evicted.len() as u64);
        if self.obs.trace.enabled {
            for sub in evicted {
                self.obs.trace.push(SlgEvent::TableEvicted { subgoal: sub });
            }
        }
    }

    /// The write path over this engine's program and tables.
    fn edb(&mut self) -> Edb<'_> {
        Edb {
            db: &mut self.db,
            tables: &mut self.tables,
            obs: &mut self.obs,
            syms: &self.syms,
        }
    }

    // ------------------------------------------------------------------
    // programmatic EDB access (fast paths for workload generators)
    // ------------------------------------------------------------------

    /// Asserts a clause (fact or rule) built as an AST term, without going
    /// through the parser. The head predicate is auto-declared dynamic.
    pub fn assert_term(&mut self, t: &Term) -> Result<(), EngineError> {
        let (head, body) = match t {
            Term::Compound(f, args) if *f == well_known::NECK && args.len() == 2 => {
                (args[0].clone(), Some(args[1].clone()))
            }
            other => (other.clone(), None),
        };
        let head = self.reader.hilog.encode(&head);
        let body = body.map(|b| self.reader.hilog.encode(&b));
        let c = Clause {
            head,
            body: body.into_iter().collect(),
            var_names: Vec::new(),
        };
        let (f, n) = c
            .head
            .functor()
            .ok_or_else(|| EngineError::Other("assert: head must be callable".into()))?;
        let pred = self
            .db
            .declare_dynamic(f, n as u16)
            .map_err(EngineError::Other)?;
        self.assert_clauses(pred, &[c])
    }

    /// Installs `clauses` of dynamic predicate `pred` through the write
    /// path, in order.
    fn assert_clauses(&mut self, pred: PredId, clauses: &[Clause]) -> Result<(), EngineError> {
        let clauses: Vec<NewClause> = clauses.iter().map(clause_to_canon).collect();
        self.edb().insert(pred, &clauses, false).map(drop)
    }

    /// Declares `name/arity` tabled (programmatic `:- table`).
    pub fn declare_table(&mut self, name: &str, arity: u16) -> Result<(), EngineError> {
        let s = self.syms.intern(name);
        self.db.declare_tabled(s, arity).map_err(EngineError::Other)
    }

    /// Declares `name/arity` dynamic.
    pub fn declare_dynamic(&mut self, name: &str, arity: u16) -> Result<(), EngineError> {
        let s = self.syms.intern(name);
        self.db
            .declare_dynamic(s, arity)
            .map(|_| ())
            .map_err(EngineError::Other)
    }

    /// Sets the index specs of a dynamic predicate (0-based fields).
    pub fn set_indexes(
        &mut self,
        name: &str,
        arity: u16,
        specs: Vec<IndexSpec>,
    ) -> Result<(), EngineError> {
        let s = self.syms.intern(name);
        let pred = self
            .db
            .declare_dynamic(s, arity)
            .map_err(EngineError::Other)?;
        self.db
            .dyn_of_mut(pred)
            .expect("dynamic")
            .set_indexes(specs)
            .map_err(EngineError::Other)
    }

    /// Number of live tables (for tests and the harness).
    pub fn table_count(&self) -> usize {
        self.tables.live_tables()
    }

    /// Forgets every table — pool-wide when a shared store is attached
    /// (every worker fully invalidates at its next query).
    pub fn abolish_all_tables(&mut self) {
        self.tables.abolish_all();
        self.tables.shared_clear();
    }

    /// Selectively forgets the tables of one predicate (programmatic
    /// `abolish_table_pred/1`). Returns the number of tables removed;
    /// unknown or untabled predicates remove nothing.
    pub fn abolish_table_pred(&mut self, name: &str, arity: u16) -> usize {
        let Some(s) = self.syms.lookup(name) else {
            return 0;
        };
        let Some(pred) = self.db.lookup_pred(s, arity) else {
            return 0;
        };
        // other workers may hold tables for this predicate even when this
        // one does not: the abolish always goes pool-wide
        crate::emulate::invalidate_tables(&mut self.tables, &mut self.obs, &[pred])
    }

    /// Sets the table-space answer-store budget in cells (`None` =
    /// unbounded). When a finished query leaves the store over budget,
    /// completed tables are evicted least-recently-hit first. With a
    /// shared store attached, the same budget governs the pool-wide store
    /// (enforced immediately there, since no query is mid-flight in it).
    pub fn set_table_budget(&mut self, cells: Option<u64>) {
        self.tables.set_budget(cells);
        if let Some(h) = self.tables.shared_handle() {
            h.store.set_budget(cells);
        }
    }

    /// Connects this engine to a pool-wide shared table store. The
    /// symbol/predicate floors are fixed *now*: every predicate consulted
    /// so far is shareable with other workers attached at the same point;
    /// predicates or symbols interned later (e.g. by this engine's own
    /// queries) stay engine-local. Used by [`crate::engine_pool::ServerPool`].
    pub fn attach_shared_store(&mut self, store: Arc<SharedTableStore>) {
        let sym_floor = self.syms.len() as u32;
        let pred_floor = self.db.preds.len() as PredId;
        self.tables.attach_shared(store, sym_floor, pred_floor);
    }

    /// Consults program text as one leg of a pool-wide broadcast
    /// (`ServerPool::consult_all`): every worker applies the same update,
    /// so the mutation does not mark this worker's EDB as diverged from
    /// the pool's common program. Identical to [`Engine::consult`] for a
    /// standalone engine.
    pub fn consult_broadcast(&mut self, src: &str) -> Result<(), EngineError> {
        // the pool logs the broadcast text once at pool level; a worker
        // leg must not re-log it (or its interior asserts)
        if let Some(c) = self.db.durable.as_mut() {
            c.suspended += 1;
        }
        self.tables.set_shared_broadcast(true);
        let r = self.consult(src);
        self.tables.set_shared_broadcast(false);
        if let Some(c) = self.db.durable.as_mut() {
            c.suspended -= 1;
        }
        // a broadcast re-establishes the pool's common program: a worker
        // that had diverged via a query-level assert is coherent again
        // once the same update reached everyone, so re-attach it to
        // answer sharing instead of leaving it detached forever
        if r.is_ok() && self.tables.shared_diverged() {
            self.resync();
        }
        r
    }

    /// Re-attaches a diverged pooled engine to answer sharing: clears
    /// the divergence flag, invalidates every shared-floor local table
    /// (they were computed against the private EDB), and fast-forwards
    /// the sync watermark to the store's current epoch. Call once the
    /// worker's program is coherent with the pool again — the pool's
    /// blessed path is [`Engine::consult_broadcast`], which resyncs
    /// automatically; this entry point covers callers that restored
    /// coherence some other way (e.g. retracting the stray fact).
    pub fn resync(&mut self) {
        let n = self.tables.resync_shared();
        if n > 0 {
            self.obs.metrics.add(Counter::TableInvalidations, n as u64);
        }
    }

    /// True when a non-broadcast update detached this pooled engine from
    /// answer sharing (its EDB diverged from the pool's common program;
    /// it still answers correctly from its own database). No longer
    /// permanent: a later [`Engine::consult_broadcast`] or explicit
    /// [`Engine::resync`] re-attaches the worker.
    pub fn shared_diverged(&self) -> bool {
        self.tables.shared_diverged()
    }

    /// Records the worker count of the pool this engine belongs to
    /// (reported by the `pool_workers/1` builtin; 0 = standalone engine).
    pub fn set_pool_workers(&mut self, n: u32) {
        self.db.pool_workers = n;
    }

    // ------------------------------------------------------------------
    // durability (WAL attachment, transactions, recovery) — paper §4.6
    // extended with ARIES-style logging; see DESIGN.md §2.11
    // ------------------------------------------------------------------

    /// Attaches a write-ahead log: every later EDB mutation is logged
    /// before it is applied. `worker` is this engine's pool worker id
    /// ([`crate::durable::WORKER_ALL`] for standalone engines).
    pub fn attach_wal(&mut self, log: Arc<crate::durable::DurableLog>, worker: u16) {
        self.db.durable = Some(crate::durable::DurableConn {
            log,
            worker,
            enabled: true,
            suspended: 0,
            applied_lsn: 0,
        });
    }

    /// The attached durable log, if any.
    pub fn wal(&self) -> Option<&Arc<crate::durable::DurableLog>> {
        self.db.durable.as_ref().map(|c| &c.log)
    }

    /// `set_durability(on/off)`: toggles mutation logging without
    /// detaching the log. No-op on engines with no WAL attached.
    pub fn set_durability(&mut self, on: bool) {
        if let Some(c) = self.db.durable.as_mut() {
            c.enabled = on;
        }
    }

    /// Sets the group-commit window in microseconds (0 = fsync at every
    /// commit point). No-op with no WAL attached.
    pub fn set_group_commit_window_us(&mut self, us: u64) {
        if let Some(c) = self.db.durable.as_ref() {
            c.log.set_group_window_us(us);
        }
    }

    /// Forces any deferred group-commit fsync to disk.
    pub fn wal_flush(&mut self) -> Result<(), EngineError> {
        if let Some(conn) = self.db.durable.as_ref() {
            let (synced, batched) = conn.log.flush().map_err(crate::durable::werr)?;
            if synced {
                self.obs.metrics.bump(Counter::WalFsyncs);
                self.obs.metrics.add(Counter::GroupCommitBatch, batched);
            }
        }
        Ok(())
    }

    /// Creates a durable standalone engine over a fresh log: consults
    /// `program`, attaches the log, and writes the Program record the
    /// next [`Engine::open_durable`] will replay from.
    pub fn create_durable(
        program: &str,
        log: Arc<crate::durable::DurableLog>,
    ) -> Result<Engine, EngineError> {
        if !log.is_fresh() {
            return Err(EngineError::Other(
                "create_durable: log already holds a program; use open_durable".into(),
            ));
        }
        let mut e = Engine::new();
        e.consult(program)?;
        e.attach_wal(log, crate::durable::WORKER_ALL);
        crate::durable::log_program(&mut e.db, &e.syms, &mut e.obs.metrics, program)?;
        Ok(e)
    }

    /// Reopens a durable engine from its log: replays the Program record,
    /// every surviving committed mutation, and undoes loser transactions.
    pub fn open_durable(
        log: Arc<crate::durable::DurableLog>,
    ) -> Result<(Engine, crate::durable::RecoveryReport), EngineError> {
        let mut e = Engine::new();
        e.attach_wal(log, crate::durable::WORKER_ALL);
        let report = e.replay_wal()?;
        Ok((e, report))
    }

    /// ARIES-style recovery over the attached log: an analysis pass
    /// classifies transactions as winners (Commit record on the surviving
    /// log) or losers, a redo pass repeats history in LSN order (filtered
    /// to records addressed to this worker), and an undo pass rolls the
    /// losers back in reverse. Records below the connection's
    /// `applied_lsn` high-water mark are skipped, so calling this twice
    /// replays nothing the second time (duplicate-replay idempotence).
    pub fn replay_wal(&mut self) -> Result<crate::durable::RecoveryReport, EngineError> {
        use crate::durable::{self as dur, Record, UndoEntry};
        let (log, worker, floor) = {
            let c = self
                .db
                .durable
                .as_ref()
                .ok_or_else(|| EngineError::Other("replay_wal: no WAL attached".into()))?;
            (Arc::clone(&c.log), c.worker, c.applied_lsn)
        };
        let raw = log.raw_records().map_err(dur::werr)?;
        // analysis: which explicit transactions won
        let mut committed: HashSet<u64> = HashSet::new();
        for (_, p) in &raw {
            if let Some((dur::KIND_COMMIT, tx)) = dur::record_header(p) {
                committed.insert(tx);
            }
        }
        let mut report = dur::RecoveryReport {
            committed_txns: committed.len() as u64,
            ..Default::default()
        };
        // redo: repeat history in LSN order, logging suppressed
        self.db.durable.as_mut().expect("attached").suspended += 1;
        let mut loser_ops: Vec<UndoEntry> = Vec::new();
        let mut applied_end = floor;
        let redo = (|| -> Result<(), EngineError> {
            for (lsn, payload) in &raw {
                let end = lsn + (payload.len() + xsb_storage::log::FRAME_OVERHEAD) as u64;
                applied_end = applied_end.max(end);
                if *lsn < floor {
                    continue;
                }
                report.scanned += 1;
                let rec = Record::decode(payload, &mut self.syms).map_err(EngineError::Other)?;
                let (tx, w, undo) = match rec {
                    Record::Begin { .. } | Record::Commit { .. } | Record::Abort { .. } => continue,
                    Record::Program { text } | Record::Broadcast { text } => {
                        self.consult(&text)?;
                        report.replayed += 1;
                        continue;
                    }
                    Record::Checkpoint { preds } => {
                        for sp in preds {
                            let pred = self
                                .db
                                .declare_dynamic(sp.name, sp.arity)
                                .map_err(EngineError::Other)?;
                            let clauses: Vec<NewClause> = sp
                                .clauses
                                .into_iter()
                                .map(|(has_body, canon)| (Rc::from(canon), has_body))
                                .collect();
                            let mut edb = self.edb();
                            edb.remove(pred, Clauses::All)?;
                            edb.insert(pred, &clauses, false)?;
                        }
                        report.checkpoint_restored = true;
                        report.replayed += 1;
                        continue;
                    }
                    Record::Assert { worker: w, .. } | Record::Retract { worker: w, .. }
                        if w != dur::WORKER_ALL && w != worker =>
                    {
                        continue
                    }
                    Record::Assert {
                        tx,
                        worker: w,
                        name,
                        arity,
                        at_front,
                        has_body,
                        canon,
                    } => {
                        let pred = self
                            .db
                            .declare_dynamic(name, arity)
                            .map_err(EngineError::Other)?;
                        let clause = (Rc::from(canon), has_body);
                        let ids = self.edb().insert(pred, &[clause], at_front)?;
                        let undo = UndoEntry::Assert {
                            pred,
                            clause: ids.start,
                        };
                        (tx, w, undo)
                    }
                    Record::Retract {
                        tx,
                        worker: w,
                        name,
                        arity,
                        has_body,
                        canon,
                    } => {
                        let pred = self
                            .db
                            .declare_dynamic(name, arity)
                            .map_err(EngineError::Other)?;
                        let dp = self.db.dyn_of(pred).expect("dynamic");
                        let found = dp.all_live().into_iter().find(|&id| {
                            let c = dp.clause(id);
                            c.has_body == has_body && c.canon[..] == canon[..]
                        });
                        let Some(clause) = found else { continue };
                        self.edb().remove(pred, Clauses::Ids(&[clause]))?;
                        (tx, w, UndoEntry::Retract { pred, clause })
                    }
                };
                report.replayed += 1;
                if w == worker && worker != dur::WORKER_ALL {
                    report.own_worker_ops += 1;
                }
                if tx != 0 && !committed.contains(&tx) {
                    loser_ops.push(undo);
                }
            }
            Ok(())
        })();
        self.db.durable.as_mut().expect("attached").suspended -= 1;
        redo?;
        // undo: roll loser transactions back, newest op first
        report.losers_undone = loser_ops.len() as u64;
        self.edb().undo(loser_ops);
        self.obs
            .metrics
            .add(Counter::RecoveryReplayed, report.replayed);
        self.db.durable.as_mut().expect("attached").applied_lsn = applied_end;
        Ok(report)
    }

    /// Fuzzy checkpoint (`checkpoint/0`): snapshots every dynamic
    /// predicate and atomically truncates the log to
    /// `[Program, Broadcast…, Checkpoint]`. Refused inside a transaction
    /// and on pool workers (a worker's snapshot cannot speak for its
    /// siblings' worker-tagged records). Returns log bytes
    /// `(before, after)`.
    pub fn checkpoint(&mut self) -> Result<(u64, u64), EngineError> {
        crate::durable::checkpoint(&mut self.db, &self.syms, &mut self.obs.metrics)
    }

    // ------------------------------------------------------------------
    // observability
    // ------------------------------------------------------------------

    /// The metrics registry (cumulative since construction or the last
    /// [`Engine::reset_metrics`]).
    pub fn metrics(&self) -> &Metrics {
        &self.obs.metrics
    }

    /// Zeroes all counters, gauges, timers, and buffered trace events.
    pub fn reset_metrics(&mut self) {
        self.obs.reset();
    }

    /// Enables/disables SLG event tracing and span collection (disabled
    /// cost: one branch per traced operation).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.obs
            .configure(enabled, self.obs.slow_query_threshold_ns);
    }

    /// Resizes the trace ring buffer (discards buffered events).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.obs.trace.set_capacity(capacity);
    }

    /// Buffered SLG trace events, oldest first.
    pub fn trace_events(&self) -> Vec<SlgEvent> {
        self.obs.trace.events().copied().collect()
    }

    /// Events overwritten because the trace ring was full.
    pub fn trace_dropped(&self) -> u64 {
        self.obs.trace.dropped()
    }

    /// The `statistics/0` report text.
    pub fn statistics_report(&self) -> String {
        let mut s = self.obs.metrics.report();
        s.push_str(&format!(
            "  {:<28}{}\n  {:<28}{}\n",
            "trace_events_total",
            self.obs.trace.total(),
            "trace_events_dropped",
            self.obs.trace.dropped(),
        ));
        s
    }

    /// Snapshot of every scalar metric as a JSON object, plus the trace
    /// ring's truncation counters:
    /// `trace_events_total` is every event ever pushed,
    /// `trace_events_dropped` the oldest ones overwritten because the
    /// ring was full (the buffer keeps the most recent `capacity`).
    pub fn metrics_json(&self) -> Json {
        let mut j = self.obs.metrics.to_json();
        if let Json::Obj(fields) = &mut j {
            fields.push((
                "trace_events_total".into(),
                Json::Int(self.obs.trace.total() as i64),
            ));
            fields.push((
                "trace_events_dropped".into(),
                Json::Int(self.obs.trace.dropped() as i64),
            ));
        }
        j
    }

    /// Enables/disables the emulator opcode profiler (disabled cost: one
    /// predicted branch per dispatched instruction).
    pub fn set_profiling(&mut self, on: bool) {
        self.obs.metrics.profile.enabled = on;
    }

    /// The `profile/0` report: hottest opcodes and adjacent dispatch
    /// pairs since the last `profile_reset/0`.
    pub fn profile_report(&self) -> String {
        self.obs
            .metrics
            .profile
            .report(&crate::instr::Instr::OPCODE_NAMES)
    }

    /// Opcode profile as JSON (the harness `--json` payload).
    pub fn profile_json(&self) -> Json {
        self.obs
            .metrics
            .profile
            .to_json(&crate::instr::Instr::OPCODE_NAMES)
    }

    /// Rendered span trees of queries that crossed the slow-query
    /// threshold, oldest first (bounded; oldest entries dropped).
    pub fn slow_query_log(&self) -> &[String] {
        &self.slow_query_log
    }

    /// Recorded spans as Chrome trace-event JSON — write to a file and
    /// load in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> Json {
        let db = &self.db;
        let syms = &self.syms;
        self.obs.spans.chrome_trace(|p| pred_display(db, syms, p))
    }

    /// Calls dispatched to `name/arity` (cumulative) — the instrumentation
    /// behind the Figure 2 reproduction.
    pub fn call_count(&self, name: &str, arity: u16) -> u64 {
        self.pred_counters(name, arity)
            .map(|c| c.calls)
            .unwrap_or(0)
    }

    /// Tabled subgoals created for `name/arity` (cumulative) — Figure 2's
    /// SLG subgoal counts, per predicate.
    pub fn subgoal_count(&self, name: &str, arity: u16) -> u64 {
        self.pred_counters(name, arity)
            .map(|c| c.subgoals)
            .unwrap_or(0)
    }

    fn pred_counters(&self, name: &str, arity: u16) -> Option<xsb_obs::metrics::PredCounters> {
        let s = self.syms.lookup(name)?;
        let id = self.db.lookup_pred(s, arity)?;
        Some(self.obs.metrics.pred(id as usize))
    }

    /// One line per live subgoal table: predicate, canonical call, answer
    /// count, completion state — the `tables/0` listing.
    pub fn table_listing(&self) -> String {
        crate::table::table_listing(&self.tables, &self.db, &self.syms)
    }

    /// Serializes the facts of a dynamic predicate as an object file.
    pub fn save_object(&self, name: &str, arity: u16) -> Result<Vec<u8>, EngineError> {
        let s = self
            .syms
            .lookup(name)
            .ok_or_else(|| EngineError::Other(format!("unknown predicate {name}")))?;
        crate::objfile::encode(&self.db, &self.syms, s, arity)
    }

    /// Loads an object file produced by [`Engine::save_object`].
    pub fn load_object(&mut self, data: &[u8]) -> Result<usize, EngineError> {
        let (name, arity, clauses) = crate::objfile::decode(&mut self.syms, data)?;
        let pred = self
            .db
            .declare_dynamic(name, arity)
            .map_err(EngineError::Other)?;
        self.edb().insert(pred, &clauses, false)?;
        Ok(clauses.len())
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// `name/arity` display of a predicate id for span rendering (`NO_ID`
/// and out-of-range ids have no name).
fn pred_display(db: &Program, syms: &SymbolTable, pred: u32) -> Option<String> {
    if pred == NO_ID || pred as usize >= db.preds.len() {
        return None;
    }
    let p = db.pred(pred);
    Some(format!("{}/{}", syms.name(p.name), p.arity))
}

/// Converts an AST clause directly to its canonical cells (no WAM heap
/// needed) — the machinery behind `Engine::assert_term` and consult of
/// dynamic clauses. The body goals fold into one right-nested `','/2`
/// term, so a consulted rule is the same clause `assert/1` stores.
fn clause_to_canon(c: &Clause) -> NewClause {
    let mut canon: Vec<Cell> = Vec::new();
    let mut varmap: Vec<u32> = Vec::new();
    for a in c.head.args() {
        ast_to_canon(a, &mut canon, &mut varmap);
    }
    for (i, g) in c.body.iter().enumerate() {
        if i + 1 < c.body.len() {
            canon.push(Cell::fun(well_known::COMMA, 2));
        }
        ast_to_canon(g, &mut canon, &mut varmap);
    }
    (Rc::from(canon), !c.body.is_empty())
}

fn ast_to_canon(t: &Term, out: &mut Vec<Cell>, varmap: &mut Vec<u32>) {
    match t {
        Term::Var(v) => {
            let idx = match varmap.iter().position(|&x| x == *v) {
                Some(i) => i,
                None => {
                    varmap.push(*v);
                    varmap.len() - 1
                }
            };
            out.push(Cell::tvar(idx));
        }
        Term::Atom(s) => out.push(Cell::con(*s)),
        Term::Int(i) => out.push(Cell::int(*i)),
        Term::Compound(f, args) => {
            out.push(Cell::fun(*f, args.len()));
            for a in args {
                ast_to_canon(a, out, varmap);
            }
        }
        Term::HiLog(..) => unreachable!("HiLog encoded before assert"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_and_simple_query() {
        let mut e = Engine::new();
        e.consult("edge(1,2). edge(2,3). edge(1,3).").unwrap();
        let sols = e.query("edge(1, X)").unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0].get("X"), Some(&Term::Int(2)));
        assert_eq!(sols[1].get("X"), Some(&Term::Int(3)));
    }

    #[test]
    fn conjunction_and_join() {
        let mut e = Engine::new();
        e.consult("edge(1,2). edge(2,3). edge(3,4).").unwrap();
        let sols = e.query("edge(X, Y), edge(Y, Z)").unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn rule_evaluation() {
        let mut e = Engine::new();
        e.consult(
            "parent(tom, bob). parent(bob, ann).\n\
             grandparent(X, Z) :- parent(X, Y), parent(Y, Z).",
        )
        .unwrap();
        let sols = e.query("grandparent(tom, W)").unwrap();
        assert_eq!(sols.len(), 1);
        let ann = Term::Atom(e.syms.lookup("ann").unwrap());
        assert_eq!(sols[0].get("W"), Some(&ann));
    }

    #[test]
    fn arithmetic_and_prelude() {
        let mut e = Engine::new();
        let sols = e.query("X is 3 * 4 + 1").unwrap();
        assert_eq!(sols[0].get("X"), Some(&Term::Int(13)));
        let sols = e.query("append([1,2], [3], L)").unwrap();
        assert_eq!(sols.len(), 1);
        let sols = e.query("length([a,b,c], N)").unwrap();
        assert_eq!(sols[0].get("N"), Some(&Term::Int(3)));
    }

    #[test]
    fn tabled_transitive_closure_on_cycle() {
        let mut e = Engine::new();
        e.consult(
            ":- table path/2.\n\
             path(X,Y) :- edge(X,Y).\n\
             path(X,Y) :- path(X,Z), edge(Z,Y).\n\
             edge(1,2). edge(2,3). edge(3,1).",
        )
        .unwrap();
        // SLD would loop forever on the cycle; SLG terminates with all 9 pairs
        let n = e.count("path(X, Y)").unwrap();
        assert_eq!(n, 9);
        // goal-directed variant
        let n = e.count("path(1, X)").unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn sld_on_cycle_hits_step_limit_but_slg_does_not() {
        let mut e = Engine::new();
        e.consult(
            "path2(X,Y) :- edge(X,Y).\n\
             path2(X,Y) :- edge(X,Z), path2(Z,Y).\n\
             edge(1,2). edge(2,3). edge(3,1).",
        )
        .unwrap();
        e.set_step_limit(Some(200_000));
        let r = e.count("path2(1, X), fail");
        assert_eq!(r, Err(EngineError::StepLimit), "SLD loops on the cycle");
        e.set_step_limit(None);
    }
}
