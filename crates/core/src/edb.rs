//! The one EDB write path (paper §4.2, §4.6).
//!
//! Every change to the clauses of a dynamic predicate goes through
//! [`Edb`]: `assert`, `retract`, `retractall`, consult of dynamic clauses,
//! object-file load, WAL redo, transaction abort and recovery undo. Each
//! operation does, in this order and only here:
//!
//! 1. **log** — append the redo records before the data changes
//!    (WAL-before-data), unless logging is suspended or off. Inside an
//!    explicit transaction the records carry its id (after a lazy Begin).
//!    Outside one, a single clause is one auto-commit record, and a write
//!    of more than one clause is one implicit transaction (Begin … Commit),
//!    so a crash mid-write recovers none of it;
//! 2. **apply** — change the predicate's [`crate::dynamic::DynPred`],
//!    which indexes a clause by [`crate::dynamic::canon_tokens`];
//! 3. **undo** — push the undo entries if a transaction is open;
//! 4. **dependency edges** — record the callees of an inserted rule body,
//!    read from its canonical cells (Swift & Warren: tracking the
//!    dependencies of tables on dynamic code is part of every update);
//! 5. **invalidate** — drop the dependent tables, once per predicate.
//!
//! [`Edb::undo`] writes no record of its own: an abort is made durable by
//! its Abort record, a recovery undo by the Commit record that never came.

use crate::cell::{Cell, Tag};
use crate::durable::{append, Record, UndoEntry};
use crate::emulate::invalidate_tables;
use crate::error::EngineError;
use crate::instr::PredId;
use crate::program::{is_control_goal, Program};
use crate::table::{skip_canon_term, TableSpace};
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use xsb_obs::Obs;
use xsb_syntax::{Sym, SymbolTable};

/// A clause to insert: its canonical cells (the head-argument roots, then
/// the body root) and whether it has a body.
pub(crate) type NewClause = (Rc<[Cell]>, bool);

/// Which clauses of one predicate [`Edb::remove`] deletes.
pub(crate) enum Clauses<'a> {
    Ids(&'a [u32]),
    All,
}

/// Everything one write touches: the clause stores and their log, the
/// tables that depend on them, and the counters.
pub(crate) struct Edb<'a> {
    pub db: &'a mut Program,
    pub tables: &'a mut TableSpace,
    pub obs: &'a mut Obs,
    pub syms: &'a SymbolTable,
}

impl Edb<'_> {
    /// Inserts `clauses` into dynamic predicate `pred` in order, each at
    /// the back (`assertz`) or each at the front (`asserta`). Returns the
    /// ids the clauses got.
    pub fn insert(
        &mut self,
        pred: PredId,
        clauses: &[NewClause],
        at_front: bool,
    ) -> Result<Range<u32>, EngineError> {
        if clauses.is_empty() {
            return Ok(0..0);
        }
        self.log(pred, Some(at_front), clauses)?;
        let dp = self.db.dyn_of_mut(pred).expect("dynamic predicate");
        let mut ids = 0..0;
        for (i, (canon, has_body)) in clauses.iter().enumerate() {
            let id = dp.insert(Rc::clone(canon), *has_body, at_front);
            if i == 0 {
                ids.start = id;
            }
            ids.end = id + 1;
        }
        if let Some(t) = self.db.txn.as_mut() {
            let undo = ids.clone().map(|clause| UndoEntry::Assert { pred, clause });
            t.undo.extend(undo);
        }
        let arity = self.db.pred(pred).arity;
        let mut callees = Vec::new();
        for (canon, _) in clauses.iter().filter(|(_, has_body)| *has_body) {
            let body = (0..arity).fold(0, |pos, _| skip_canon_term(canon, pos));
            body_callees(canon, body, &mut callees);
        }
        self.db.record_deps(pred, &callees);
        self.invalidate(pred);
        Ok(ids)
    }

    /// Removes clauses of dynamic predicate `pred`. `All` with no log
    /// active and no transaction open is §4.2's predicate-level retraction,
    /// which frees the clauses; otherwise every live clause is removed one
    /// by one, logged and undoable, like an `Ids` set.
    pub fn remove(&mut self, pred: PredId, which: Clauses) -> Result<(), EngineError> {
        let dp = self.db.dyn_of(pred).expect("dynamic predicate");
        let all;
        let ids = match which {
            Clauses::Ids(ids) => ids,
            Clauses::All if self.logging() || self.db.txn.is_some() => {
                all = dp.all_live();
                &all[..]
            }
            Clauses::All => {
                let removed = !dp.is_empty();
                self.db.dyn_of_mut(pred).expect("dynamic").retract_all();
                if removed {
                    self.invalidate(pred);
                }
                return Ok(());
            }
        };
        if ids.is_empty() {
            return Ok(());
        }
        if self.logging() {
            let clauses: Vec<NewClause> = ids
                .iter()
                .map(|&id| dp.clause(id))
                .map(|c| (Rc::clone(&c.canon), c.has_body))
                .collect();
            self.log(pred, None, &clauses)?;
        }
        let dp = self.db.dyn_of_mut(pred).expect("dynamic predicate");
        for &id in ids {
            dp.remove(id);
        }
        if let Some(t) = self.db.txn.as_mut() {
            let undo = ids
                .iter()
                .map(|&clause| UndoEntry::Retract { pred, clause });
            t.undo.extend(undo);
        }
        self.invalidate(pred);
        Ok(())
    }

    /// Rolls `entries` back, newest (last) first: an inserted clause is
    /// hidden again, a removed one revived.
    pub fn undo(&mut self, entries: Vec<UndoEntry>) {
        let mut touched: Vec<PredId> = Vec::new();
        for entry in entries.into_iter().rev() {
            let (UndoEntry::Assert { pred, clause } | UndoEntry::Retract { pred, clause }) = entry;
            if let Some(dp) = self.db.dyn_of_mut(pred) {
                match entry {
                    UndoEntry::Assert { .. } => dp.remove(clause),
                    UndoEntry::Retract { .. } => dp.revive(clause),
                }
            }
            if !touched.contains(&pred) {
                touched.push(pred);
            }
        }
        for pred in touched {
            self.invalidate(pred);
        }
    }

    /// Whether writes are logged: a log is attached, on, and not
    /// suspended.
    fn logging(&self) -> bool {
        self.db.durable.as_ref().is_some_and(|c| c.active())
    }

    /// Step 1: appends the redo records of one write before the data
    /// changes — `Assert`s when `at_front` is given, `Retract`s otherwise.
    fn log(
        &mut self,
        pred: PredId,
        at_front: Option<bool>,
        clauses: &[NewClause],
    ) -> Result<(), EngineError> {
        let Some(conn) = self.db.durable.as_ref().filter(|c| c.active()) else {
            return Ok(());
        };
        let (log, worker) = (Arc::clone(&conn.log), conn.worker);
        let (syms, metrics) = (self.syms, &mut self.obs.metrics);
        let (tx, implicit) = match self.db.txn.as_mut() {
            Some(t) => {
                if !t.begun_logged {
                    append(&log, syms, metrics, &Record::Begin { tx: t.id }, false)?;
                    t.begun_logged = true;
                }
                (t.id, false)
            }
            None if clauses.len() > 1 => {
                let tx = log.alloc_tx();
                append(&log, syms, metrics, &Record::Begin { tx }, false)?;
                (tx, true)
            }
            None => (0, false),
        };
        let p = self.db.pred(pred);
        let (name, arity) = (p.name, p.arity);
        for (canon, has_body) in clauses {
            let (has_body, canon) = (*has_body, canon.to_vec());
            let rec = match at_front {
                Some(at_front) => Record::Assert {
                    tx,
                    worker,
                    name,
                    arity,
                    at_front,
                    has_body,
                    canon,
                },
                None => Record::Retract {
                    tx,
                    worker,
                    name,
                    arity,
                    has_body,
                    canon,
                },
            };
            append(&log, syms, metrics, &rec, tx == 0)?;
        }
        if implicit {
            append(&log, syms, metrics, &Record::Commit { tx }, true)?;
        }
        Ok(())
    }

    /// Step 5: invalidates the tables of every tabled predicate that
    /// (transitively) depends on `pred`.
    fn invalidate(&mut self, pred: PredId) {
        let deps = self.db.tabled_dependents(pred);
        // unless this is a pool broadcast (`Engine::consult_broadcast`), a
        // write reaching a shared-floor predicate diverges this worker's
        // EDB and detaches it from answer sharing
        self.tables.note_local_mutation(pred, &deps);
        invalidate_tables(self.tables, self.obs, &deps);
    }
}

/// Appends the functor/arity of every predicate the canonical body goal at
/// `pos` may call, descending through control constructs and negation —
/// the canonical-cell twin of the consult-time AST walk.
fn body_callees(canon: &[Cell], pos: usize, out: &mut Vec<(Sym, u16)>) {
    let goal = canon[pos];
    match goal.tag() {
        Tag::Con => out.push((goal.sym(), 0)),
        Tag::Fun => {
            let (f, n) = goal.functor();
            if !is_control_goal(f, n) {
                out.push((f, n as u16));
                return;
            }
            let mut arg = pos + 1;
            for _ in 0..n {
                body_callees(canon, arg, out);
                arg = skip_canon_term(canon, arg);
            }
        }
        _ => {}
    }
}
