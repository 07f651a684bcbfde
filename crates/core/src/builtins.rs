//! Builtin predicates.
//!
//! Builtins are ordinary predicates whose [`crate::program::PredKind`] is
//! `Builtin`; the emulator dispatches them to [`exec_builtin`]. Three
//! classes matter to the compiler (see `compile::goal_boundary`):
//!
//! * *transparent* builtins (arithmetic, unification, type tests, …) touch
//!   neither the continuation register nor the X registers;
//! * *CP-creating* builtins (`between/3`, `retract/1`) push choice points;
//! * *meta* builtins (`call/N`, `findall/3`, `\+`, `tnot`, …) transfer
//!   control into user code.

use crate::cell::{Cell, Tag};
use crate::dynamic::outer_token;
use crate::edb::Clauses;
use crate::error::EngineError;
use crate::instr::CodePtr;
use crate::machine::{Alt, FindallRecord, Machine};
use std::cmp::Ordering;
use std::rc::Rc;
use xsb_obs::{Counter, SlgEvent};
use xsb_syntax::{well_known, Sym, SymbolTable};

/// Identifies a builtin predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    // unification & comparison
    Unify,
    NotUnify,
    TermEq,
    TermNeq,
    TermLt,
    TermGt,
    TermLe,
    TermGe,
    Compare,
    // arithmetic
    Is,
    ArithLt,
    ArithGt,
    ArithLe,
    ArithGe,
    ArithEq,
    ArithNeq,
    // type tests
    VarP,
    NonvarP,
    AtomP,
    NumberP,
    IntegerP,
    AtomicP,
    CompoundP,
    CallableP,
    IsList,
    // term construction/inspection
    Functor,
    Arg,
    Univ,
    CopyTerm,
    // control / meta
    CallN(u8),
    Findall,
    Tfindall,
    Bagof,
    Setof,
    Naf,
    Tnot,
    ETnot,
    Tcut,
    TrueB,
    FailB,
    Between,
    // database
    Assert,
    Asserta,
    Assertz,
    Retract,
    Retractall,
    AbolishAllTables,
    AbolishTablePred,
    AbolishTableCall,
    SetTableBudget,
    // durability (DESIGN.md §2.11)
    SetDurability,
    SetGroupCommit,
    Checkpoint0,
    BeginTxn,
    CommitTxn,
    AbortTxn,
    // observability
    Statistics0,
    Statistics2,
    TablesB,
    PoolWorkers,
    SetProfiling,
    Profile0,
    ProfileReset,
    SetSlowQueryThreshold,
    // I/O & misc
    WriteB,
    WritelnB,
    Nl,
    SortB,
    MsortB,
}

impl Builtin {
    /// Builtins that transfer control into user code (they set the
    /// continuation register before jumping).
    pub fn clobbers_cont(self) -> bool {
        matches!(
            self,
            Builtin::CallN(_)
                | Builtin::Findall
                | Builtin::Tfindall
                | Builtin::Bagof
                | Builtin::Setof
                | Builtin::Naf
                | Builtin::Tnot
                | Builtin::ETnot
        )
    }

    /// Builtins that push a choice point (X registers are stale after a
    /// retry, so they are chunk boundaries).
    pub fn creates_cp(self) -> bool {
        matches!(self, Builtin::Between | Builtin::Retract)
    }

    /// All builtins with their source names and arities.
    pub fn registry() -> Vec<(&'static str, u16, Builtin)> {
        let mut v = vec![
            ("=", 2, Builtin::Unify),
            ("\\=", 2, Builtin::NotUnify),
            ("==", 2, Builtin::TermEq),
            ("\\==", 2, Builtin::TermNeq),
            ("@<", 2, Builtin::TermLt),
            ("@>", 2, Builtin::TermGt),
            ("@=<", 2, Builtin::TermLe),
            ("@>=", 2, Builtin::TermGe),
            ("compare", 3, Builtin::Compare),
            ("is", 2, Builtin::Is),
            ("<", 2, Builtin::ArithLt),
            (">", 2, Builtin::ArithGt),
            ("=<", 2, Builtin::ArithLe),
            (">=", 2, Builtin::ArithGe),
            ("=:=", 2, Builtin::ArithEq),
            ("=\\=", 2, Builtin::ArithNeq),
            ("var", 1, Builtin::VarP),
            ("nonvar", 1, Builtin::NonvarP),
            ("atom", 1, Builtin::AtomP),
            ("number", 1, Builtin::NumberP),
            ("integer", 1, Builtin::IntegerP),
            ("atomic", 1, Builtin::AtomicP),
            ("compound", 1, Builtin::CompoundP),
            ("callable", 1, Builtin::CallableP),
            ("is_list", 1, Builtin::IsList),
            ("functor", 3, Builtin::Functor),
            ("arg", 3, Builtin::Arg),
            ("=..", 2, Builtin::Univ),
            ("copy_term", 2, Builtin::CopyTerm),
            ("findall", 3, Builtin::Findall),
            ("tfindall", 3, Builtin::Tfindall),
            ("bagof", 3, Builtin::Bagof),
            ("setof", 3, Builtin::Setof),
            ("\\+", 1, Builtin::Naf),
            ("not", 1, Builtin::Naf),
            ("tnot", 1, Builtin::Tnot),
            ("e_tnot", 1, Builtin::ETnot),
            ("tcut", 0, Builtin::Tcut),
            ("true", 0, Builtin::TrueB),
            ("fail", 0, Builtin::FailB),
            ("false", 0, Builtin::FailB),
            ("between", 3, Builtin::Between),
            ("assert", 1, Builtin::Assert),
            ("asserta", 1, Builtin::Asserta),
            ("assertz", 1, Builtin::Assertz),
            ("retract", 1, Builtin::Retract),
            ("retractall", 1, Builtin::Retractall),
            ("abolish_all_tables", 0, Builtin::AbolishAllTables),
            ("abolish_table_pred", 1, Builtin::AbolishTablePred),
            ("abolish_table_call", 1, Builtin::AbolishTableCall),
            ("set_table_budget", 1, Builtin::SetTableBudget),
            ("set_durability", 1, Builtin::SetDurability),
            ("set_group_commit", 1, Builtin::SetGroupCommit),
            ("checkpoint", 0, Builtin::Checkpoint0),
            ("begin_transaction", 0, Builtin::BeginTxn),
            ("commit_transaction", 0, Builtin::CommitTxn),
            ("abort_transaction", 0, Builtin::AbortTxn),
            ("statistics", 0, Builtin::Statistics0),
            ("statistics", 2, Builtin::Statistics2),
            ("tables", 0, Builtin::TablesB),
            ("pool_workers", 1, Builtin::PoolWorkers),
            ("set_profiling", 1, Builtin::SetProfiling),
            ("profile", 0, Builtin::Profile0),
            ("profile_reset", 0, Builtin::ProfileReset),
            (
                "set_slow_query_threshold",
                1,
                Builtin::SetSlowQueryThreshold,
            ),
            ("write", 1, Builtin::WriteB),
            ("writeln", 1, Builtin::WritelnB),
            ("nl", 0, Builtin::Nl),
            ("sort", 2, Builtin::SortB),
            ("msort", 2, Builtin::MsortB),
        ];
        for n in 1..=8u8 {
            v.push(("call", n as u16, Builtin::CallN(n)));
        }
        v
    }
}

/// What the emulator does after a builtin returns.
#[derive(Debug, PartialEq)]
pub enum BAction {
    /// fall through (or proceed, when the builtin was a tail call)
    Continue,
    /// backtrack
    Fail,
    /// the builtin already set up the program counter / dispatched
    Jumped,
}

/// Executes builtin `b`. `resume` is where execution continues on success
/// for CP-creating builtins (the instruction after the call for non-tail
/// calls, the continuation for tail calls). `is_tail` is true when invoked
/// via `Execute`.
pub fn exec_builtin(
    m: &mut Machine,
    syms: &mut SymbolTable,
    b: Builtin,
    resume: CodePtr,
    is_tail: bool,
) -> Result<BAction, EngineError> {
    match b {
        Builtin::Unify => {
            let (a, b2) = (m.x[0], m.x[1]);
            Ok(if m.unify(a, b2) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Builtin::NotUnify => {
            let mark = m.tip;
            let (a, b2) = (m.x[0], m.x[1]);
            let unified = m.unify(a, b2);
            m.unwind_to(mark);
            Ok(if unified {
                BAction::Fail
            } else {
                BAction::Continue
            })
        }
        Builtin::TermEq => cmp_result(m, syms, &[Ordering::Equal]),
        Builtin::TermNeq => cmp_result(m, syms, &[Ordering::Less, Ordering::Greater]),
        Builtin::TermLt => cmp_result(m, syms, &[Ordering::Less]),
        Builtin::TermGt => cmp_result(m, syms, &[Ordering::Greater]),
        Builtin::TermLe => cmp_result(m, syms, &[Ordering::Less, Ordering::Equal]),
        Builtin::TermGe => cmp_result(m, syms, &[Ordering::Greater, Ordering::Equal]),
        Builtin::Compare => {
            let o = m.compare(m.x[1], m.x[2], syms);
            let s = match o {
                Ordering::Less => well_known::LT,
                Ordering::Equal => well_known::EQ,
                Ordering::Greater => well_known::GT,
            };
            let c = Cell::con(s);
            let a0 = m.x[0];
            Ok(if m.unify(a0, c) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Builtin::Is => {
            let v = eval_arith(m, m.x[1])?;
            let a0 = m.x[0];
            let c = Cell::int(v);
            Ok(if m.unify(a0, c) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Builtin::ArithLt => arith_cmp(m, |a, b| a < b),
        Builtin::ArithGt => arith_cmp(m, |a, b| a > b),
        Builtin::ArithLe => arith_cmp(m, |a, b| a <= b),
        Builtin::ArithGe => arith_cmp(m, |a, b| a >= b),
        Builtin::ArithEq => arith_cmp(m, |a, b| a == b),
        Builtin::ArithNeq => arith_cmp(m, |a, b| a != b),
        Builtin::VarP => type_test(m, |c, _| c.tag() == Tag::Ref),
        Builtin::NonvarP => type_test(m, |c, _| c.tag() != Tag::Ref),
        Builtin::AtomP => type_test(m, |c, _| c.tag() == Tag::Con),
        Builtin::NumberP | Builtin::IntegerP => type_test(m, |c, _| c.tag() == Tag::Int),
        Builtin::AtomicP => type_test(m, |c, _| c.is_atomic()),
        Builtin::CompoundP => type_test(m, |c, _| matches!(c.tag(), Tag::Str | Tag::Lis)),
        Builtin::CallableP => {
            type_test(m, |c, _| matches!(c.tag(), Tag::Con | Tag::Str | Tag::Lis))
        }
        Builtin::IsList => {
            let mut c = m.deref(m.x[0]);
            loop {
                match c.tag() {
                    Tag::Con if c.sym() == well_known::NIL => return Ok(BAction::Continue),
                    Tag::Lis => c = m.deref(m.heap[c.addr() + 1]),
                    _ => return Ok(BAction::Fail),
                }
            }
        }
        Builtin::Functor => builtin_functor(m, syms),
        Builtin::Arg => {
            let n = match m.deref(m.x[0]).tag() {
                Tag::Int => m.deref(m.x[0]).int_value(),
                _ => return Err(EngineError::Instantiation("arg/3")),
            };
            let t = m.deref(m.x[1]);
            if !matches!(t.tag(), Tag::Str | Tag::Lis) {
                return Err(EngineError::Type {
                    expected: "compound",
                    found: format!("{t:?}"),
                });
            }
            let (_, arity) = m.functor_of(t);
            if n < 1 || n as usize > arity {
                return Ok(BAction::Fail);
            }
            let v = m.arg_of(t, n as usize - 1);
            let a2 = m.x[2];
            Ok(if m.unify(a2, v) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Builtin::Univ => builtin_univ(m),
        Builtin::CopyTerm => {
            let c = m.copy_term(m.x[0]);
            let a1 = m.x[1];
            Ok(if m.unify(a1, c) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Builtin::CallN(n) => builtin_call_n(m, syms, n, is_tail),
        Builtin::Findall => builtin_findall(m, syms, resume, is_tail),
        Builtin::Bagof => builtin_findall(m, syms, resume, is_tail), // simplified: no witness grouping
        Builtin::Setof => {
            // findall then sort+dedup, failing on empty — implemented by
            // running findall into a marker record; the finish handler
            // sorts when `setof` is set
            let act = builtin_findall(m, syms, resume, is_tail)?;
            if let Some(rec) = m.findalls.last_mut() {
                rec.sort_dedup_fail_empty = true;
            }
            Ok(act)
        }
        Builtin::Naf => builtin_naf(m, syms, resume, is_tail),
        Builtin::Tnot => m.slg_negation(syms, resume, is_tail, false),
        Builtin::ETnot => m.slg_negation(syms, resume, is_tail, true),
        Builtin::Tcut => Ok(BAction::Continue), // user-level tcut: safe no-op here
        Builtin::TrueB => Ok(BAction::Continue),
        Builtin::FailB => Ok(BAction::Fail),
        Builtin::Between => builtin_between(m, resume),
        Builtin::Assert | Builtin::Assertz => builtin_assert(m, syms, false),
        Builtin::Asserta => builtin_assert(m, syms, true),
        Builtin::Retract => builtin_retract(m, syms, resume),
        Builtin::Retractall => builtin_retractall(m, syms),
        Builtin::AbolishAllTables => {
            m.tables.abolish_all();
            m.tables.shared_clear();
            Ok(BAction::Continue)
        }
        Builtin::AbolishTablePred => builtin_abolish_table_pred(m, syms),
        Builtin::AbolishTableCall => builtin_abolish_table_call(m),
        Builtin::SetTableBudget => {
            let v = m.deref(m.x[0]);
            if v.tag() != Tag::Int {
                return Err(EngineError::Type {
                    expected: "integer (cells; =< 0 means unbounded)",
                    found: format!("{v:?}"),
                });
            }
            let n = v.int_value();
            let budget = if n <= 0 { None } else { Some(n as u64) };
            m.tables.set_budget(budget);
            if let Some(h) = m.tables.shared_handle() {
                h.store.set_budget(budget);
            }
            Ok(BAction::Continue)
        }
        Builtin::SetDurability => {
            // toggles WAL logging on a durable engine; silently succeeds
            // on engines with no log attached (benches toggle it blindly)
            let v = m.deref(m.x[0]);
            let name = (v.tag() == Tag::Con).then(|| syms.name(v.sym()).to_string());
            let on = match name.as_deref() {
                Some("on") => true,
                Some("off") => false,
                _ => {
                    return Err(EngineError::Type {
                        expected: "'on' or 'off'",
                        found: format!("{v:?}"),
                    })
                }
            };
            if let Some(c) = m.db.durable.as_mut() {
                c.enabled = on;
            }
            Ok(BAction::Continue)
        }
        Builtin::SetGroupCommit => {
            // group-commit window in microseconds; 0 = fsync every commit
            let v = m.deref(m.x[0]);
            if v.tag() != Tag::Int || v.int_value() < 0 {
                return Err(EngineError::Type {
                    expected: "non-negative integer (microseconds)",
                    found: format!("{v:?}"),
                });
            }
            if let Some(c) = m.db.durable.as_ref() {
                c.log.set_group_window_us(v.int_value() as u64);
            }
            Ok(BAction::Continue)
        }
        Builtin::Checkpoint0 => {
            crate::durable::checkpoint(m.db, syms, &mut m.obs.metrics)?;
            Ok(BAction::Continue)
        }
        Builtin::BeginTxn => {
            crate::durable::begin_txn(m.db)?;
            Ok(BAction::Continue)
        }
        Builtin::CommitTxn => {
            crate::durable::commit_txn(m.db, syms, &mut m.obs.metrics)?;
            Ok(BAction::Continue)
        }
        Builtin::AbortTxn => {
            crate::durable::abort_txn(&mut m.edb(syms))?;
            Ok(BAction::Continue)
        }
        Builtin::Statistics0 => {
            print!("{}", m.obs.metrics.report());
            Ok(BAction::Continue)
        }
        Builtin::Statistics2 => builtin_statistics2(m, syms),
        Builtin::TablesB => {
            print!("{}", crate::table::table_listing(m.tables, m.db, syms));
            Ok(BAction::Continue)
        }
        Builtin::PoolWorkers => {
            let val = m.x[0];
            let n = m.db.pool_workers as i64;
            Ok(if m.unify(val, Cell::int(n)) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Builtin::SetProfiling => {
            let v = m.deref(m.x[0]);
            let name = (v.tag() == Tag::Con).then(|| syms.name(v.sym()).to_string());
            match name.as_deref() {
                Some("on") => m.obs.metrics.profile.enabled = true,
                Some("off") => m.obs.metrics.profile.enabled = false,
                _ => {
                    return Err(EngineError::Type {
                        expected: "'on' or 'off'",
                        found: format!("{v:?}"),
                    })
                }
            }
            Ok(BAction::Continue)
        }
        Builtin::Profile0 => {
            print!(
                "{}",
                m.obs
                    .metrics
                    .profile
                    .report(&crate::instr::Instr::OPCODE_NAMES)
            );
            Ok(BAction::Continue)
        }
        Builtin::ProfileReset => {
            m.obs.metrics.profile.reset();
            Ok(BAction::Continue)
        }
        Builtin::SetSlowQueryThreshold => {
            let v = m.deref(m.x[0]);
            let threshold = if v.tag() == Tag::Con && syms.name(v.sym()) == "off" {
                None
            } else if v.tag() == Tag::Int && v.int_value() >= 0 {
                // integer milliseconds; 0 logs every query
                Some(v.int_value() as u64 * 1_000_000)
            } else {
                return Err(EngineError::Type {
                    expected: "milliseconds (integer >= 0) or 'off'",
                    found: format!("{v:?}"),
                });
            };
            m.obs.configure(m.obs.trace.enabled, threshold);
            Ok(BAction::Continue)
        }
        Builtin::WriteB => {
            let mut vars = Vec::new();
            let t = m.heap_to_ast(m.x[0], &mut vars);
            print!("{}", t.display(syms));
            Ok(BAction::Continue)
        }
        Builtin::WritelnB => {
            let mut vars = Vec::new();
            let t = m.heap_to_ast(m.x[0], &mut vars);
            println!("{}", t.display(syms));
            Ok(BAction::Continue)
        }
        Builtin::Nl => {
            println!();
            Ok(BAction::Continue)
        }
        Builtin::SortB => builtin_sort(m, syms, true),
        Builtin::MsortB => builtin_sort(m, syms, false),
        Builtin::Tfindall => m.tfindall(syms, resume, is_tail),
    }
}

/// `statistics(Key, Value)`: unifies `Value` with the named scalar metric.
/// Fails on an unknown key; a free `Key` is an instantiation error.
fn builtin_statistics2(m: &mut Machine, syms: &SymbolTable) -> Result<BAction, EngineError> {
    let key = m.deref(m.x[0]);
    if key.tag() != Tag::Con {
        return Err(EngineError::Instantiation("statistics/2"));
    }
    // trace-ring truncation counters live outside the metrics registry
    let v = match syms.name(key.sym()) {
        "trace_events_total" => m.obs.trace.total(),
        "trace_events_dropped" => m.obs.trace.dropped(),
        name => match m.obs.metrics.lookup(name) {
            Some(v) => v,
            None => return Ok(BAction::Fail),
        },
    };
    let val = m.x[1];
    Ok(if m.unify(val, Cell::int(v as i64)) {
        BAction::Continue
    } else {
        BAction::Fail
    })
}

fn cmp_result(
    m: &mut Machine,
    syms: &SymbolTable,
    accept: &[Ordering],
) -> Result<BAction, EngineError> {
    let o = m.compare(m.x[0], m.x[1], syms);
    Ok(if accept.contains(&o) {
        BAction::Continue
    } else {
        BAction::Fail
    })
}

fn arith_cmp(m: &mut Machine, f: impl Fn(i64, i64) -> bool) -> Result<BAction, EngineError> {
    let a = eval_arith(m, m.x[0])?;
    let b = eval_arith(m, m.x[1])?;
    Ok(if f(a, b) {
        BAction::Continue
    } else {
        BAction::Fail
    })
}

fn type_test(m: &mut Machine, f: impl Fn(Cell, &Machine) -> bool) -> Result<BAction, EngineError> {
    let c = m.deref(m.x[0]);
    Ok(if f(c, m) {
        BAction::Continue
    } else {
        BAction::Fail
    })
}

/// Integer arithmetic evaluation (`is/2` and comparisons). XSB on a Sparc2
/// was integer-centric for database workloads; floats are out of scope.
pub fn eval_arith(m: &Machine, c: Cell) -> Result<i64, EngineError> {
    let c = m.deref(c);
    match c.tag() {
        Tag::Int => Ok(c.int_value()),
        Tag::Ref => Err(EngineError::Instantiation("arithmetic expression")),
        Tag::Str => {
            let (f, n) = m.functor_of(c);
            let arg = |i: usize| m.arg_of(c, i);
            match (f, n) {
                (s, 2) if s == well_known::PLUS => {
                    Ok(eval_arith(m, arg(0))?.wrapping_add(eval_arith(m, arg(1))?))
                }
                (s, 2) if s == well_known::MINUS => {
                    Ok(eval_arith(m, arg(0))?.wrapping_sub(eval_arith(m, arg(1))?))
                }
                (s, 2) if s == well_known::STAR => {
                    Ok(eval_arith(m, arg(0))?.wrapping_mul(eval_arith(m, arg(1))?))
                }
                (s, 2) if s == well_known::SLASH || s == well_known::SLASH_SLASH => {
                    let d = eval_arith(m, arg(1))?;
                    if d == 0 {
                        return Err(EngineError::Other("division by zero".into()));
                    }
                    Ok(eval_arith(m, arg(0))? / d)
                }
                (s, 2) if s == well_known::MOD => {
                    let d = eval_arith(m, arg(1))?;
                    if d == 0 {
                        return Err(EngineError::Other("mod by zero".into()));
                    }
                    Ok(eval_arith(m, arg(0))?.rem_euclid(d))
                }
                (s, 2) if s == well_known::REM => {
                    let d = eval_arith(m, arg(1))?;
                    if d == 0 {
                        return Err(EngineError::Other("rem by zero".into()));
                    }
                    Ok(eval_arith(m, arg(0))? % d)
                }
                (s, 2) if s == well_known::MIN => {
                    Ok(eval_arith(m, arg(0))?.min(eval_arith(m, arg(1))?))
                }
                (s, 2) if s == well_known::MAX => {
                    Ok(eval_arith(m, arg(0))?.max(eval_arith(m, arg(1))?))
                }
                (s, 1) if s == well_known::MINUS => Ok(-eval_arith(m, arg(0))?),
                (s, 1) if s == well_known::PLUS => eval_arith(m, arg(0)),
                (s, 1) if s == well_known::ABS => Ok(eval_arith(m, arg(0))?.abs()),
                _ => Err(EngineError::Type {
                    expected: "arithmetic expression",
                    found: format!("functor {:?}/{n}", f),
                }),
            }
        }
        _ => Err(EngineError::Type {
            expected: "arithmetic expression",
            found: format!("{c:?}"),
        }),
    }
}

fn builtin_functor(m: &mut Machine, _syms: &mut SymbolTable) -> Result<BAction, EngineError> {
    let t = m.deref(m.x[0]);
    match t.tag() {
        Tag::Ref => {
            // construct: functor(X, f, 2)
            let f = m.deref(m.x[1]);
            let n = m.deref(m.x[2]);
            let n = match n.tag() {
                Tag::Int => n.int_value(),
                _ => return Err(EngineError::Instantiation("functor/3")),
            };
            let built = if n == 0 {
                f
            } else {
                match f.tag() {
                    Tag::Con => {
                        let base = m.heap.len();
                        m.heap.push(Cell::fun(f.sym(), n as usize));
                        for _ in 0..n {
                            let a = m.heap.len();
                            m.heap.push(Cell::r#ref(a));
                        }
                        Cell::str(base)
                    }
                    _ => {
                        return Err(EngineError::Type {
                            expected: "atom",
                            found: format!("{f:?}"),
                        })
                    }
                }
            };
            Ok(if m.unify(t, built) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Tag::Con | Tag::Int => {
            let a1 = m.x[1];
            let a2 = m.x[2];
            let ok = m.unify(a1, t) && m.unify(a2, Cell::int(0));
            Ok(if ok { BAction::Continue } else { BAction::Fail })
        }
        Tag::Str | Tag::Lis => {
            let (f, n) = m.functor_of(t);
            let a1 = m.x[1];
            let a2 = m.x[2];
            let ok = m.unify(a1, Cell::con(f)) && m.unify(a2, Cell::int(n as i64));
            Ok(if ok { BAction::Continue } else { BAction::Fail })
        }
        _ => unreachable!(),
    }
}

fn builtin_univ(m: &mut Machine) -> Result<BAction, EngineError> {
    let t = m.deref(m.x[0]);
    match t.tag() {
        Tag::Con | Tag::Int => {
            let l = m.make_list(&[t]);
            let a1 = m.x[1];
            Ok(if m.unify(a1, l) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Tag::Str | Tag::Lis => {
            let (f, n) = m.functor_of(t);
            let mut items = Vec::with_capacity(n + 1);
            items.push(Cell::con(f));
            for i in 0..n {
                items.push(m.arg_of(t, i));
            }
            let l = m.make_list(&items);
            let a1 = m.x[1];
            Ok(if m.unify(a1, l) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Tag::Ref => {
            // construct from list
            let mut items = Vec::new();
            let mut c = m.deref(m.x[1]);
            loop {
                match c.tag() {
                    Tag::Con if c.sym() == well_known::NIL => break,
                    Tag::Lis => {
                        items.push(m.deref(m.heap[c.addr()]));
                        c = m.deref(m.heap[c.addr() + 1]);
                    }
                    _ => return Err(EngineError::Instantiation("=../2")),
                }
            }
            if items.is_empty() {
                return Err(EngineError::Instantiation("=../2"));
            }
            let head = items[0];
            let built = if items.len() == 1 {
                head
            } else {
                match head.tag() {
                    Tag::Con => {
                        let base = m.heap.len();
                        m.heap.push(Cell::fun(head.sym(), items.len() - 1));
                        for &it in &items[1..] {
                            m.heap.push(it);
                        }
                        Cell::str(base)
                    }
                    _ => {
                        return Err(EngineError::Type {
                            expected: "atom",
                            found: format!("{head:?}"),
                        })
                    }
                }
            };
            Ok(if m.unify(t, built) {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        _ => unreachable!(),
    }
}

fn builtin_call_n(
    m: &mut Machine,
    syms: &mut SymbolTable,
    n: u8,
    is_tail: bool,
) -> Result<BAction, EngineError> {
    let goal = m.deref(m.x[0]);
    // call(G, E1, …, Ek): append extra arguments to G (HiLog-style)
    let goal = if n > 1 {
        let extra: Vec<Cell> = (1..n as usize).map(|i| m.x[i]).collect();
        match goal.tag() {
            Tag::Con => {
                let base = m.heap.len();
                m.heap.push(Cell::fun(goal.sym(), extra.len()));
                for e in extra {
                    m.heap.push(e);
                }
                Cell::str(base)
            }
            Tag::Str => {
                let (f, arity) = m.functor_of(goal);
                let base = m.heap.len();
                m.heap.push(Cell::fun(f, arity + extra.len()));
                for i in 0..arity {
                    let a = m.arg_of(goal, i);
                    m.heap.push(a);
                }
                for e in extra {
                    m.heap.push(e);
                }
                Cell::str(base)
            }
            Tag::Ref => return Err(EngineError::Instantiation("call/N")),
            _ => {
                return Err(EngineError::Type {
                    expected: "callable",
                    found: format!("{goal:?}"),
                })
            }
        }
    } else {
        goal
    };
    if !is_tail {
        m.cont = m.p;
    }
    m.dispatch_goal(goal, syms)?;
    Ok(BAction::Jumped)
}

fn builtin_findall(
    m: &mut Machine,
    syms: &mut SymbolTable,
    resume: CodePtr,
    is_tail: bool,
) -> Result<BAction, EngineError> {
    let template = m.x[0];
    let goal = m.x[1];
    let result = m.x[2];
    m.findalls.push(FindallRecord {
        template,
        result,
        solutions: Vec::new(),
        sort_dedup_fail_empty: false,
    });
    let rec = (m.findalls.len() - 1) as u32;
    // the barrier saves the caller's continuation; on finish we resume here
    m.push_cp(0, Alt::FindallFinish { rec, resume });
    let _ = is_tail;
    m.cont = m.db.snippets.findall_collect;
    m.dispatch_goal(goal, syms)?;
    Ok(BAction::Jumped)
}

fn builtin_naf(
    m: &mut Machine,
    syms: &mut SymbolTable,
    resume: CodePtr,
    is_tail: bool,
) -> Result<BAction, EngineError> {
    let goal = m.x[0];
    m.push_cp(0, Alt::NafBarrier { resume });
    let _ = is_tail;
    m.cont = m.db.snippets.naf_cut;
    m.dispatch_goal(goal, syms)?;
    Ok(BAction::Jumped)
}

fn builtin_between(m: &mut Machine, resume: CodePtr) -> Result<BAction, EngineError> {
    let lo = eval_arith(m, m.x[0])?;
    let hi = eval_arith(m, m.x[1])?;
    let x = m.deref(m.x[2]);
    match x.tag() {
        Tag::Int => {
            let v = x.int_value();
            Ok(if lo <= v && v <= hi {
                BAction::Continue
            } else {
                BAction::Fail
            })
        }
        Tag::Ref => {
            if lo > hi {
                return Ok(BAction::Fail);
            }
            if lo < hi {
                m.push_cp(
                    3,
                    Alt::Between {
                        cur: lo + 1,
                        hi,
                        resume,
                    },
                );
            }
            m.bind(x.addr(), Cell::int(lo));
            Ok(BAction::Continue)
        }
        _ => Err(EngineError::Type {
            expected: "integer or variable",
            found: format!("{x:?}"),
        }),
    }
}

/// Splits an assertable term into (head, body) cells.
fn clause_parts(m: &Machine, c: Cell) -> Result<(Cell, Option<Cell>), EngineError> {
    let c = m.deref(c);
    if c.tag() == Tag::Str {
        let (f, n) = m.functor_of(c);
        if f == well_known::NECK && n == 2 {
            return Ok((m.deref(m.arg_of(c, 0)), Some(m.arg_of(c, 1))));
        }
    }
    Ok((c, None))
}

fn builtin_assert(
    m: &mut Machine,
    syms: &mut SymbolTable,
    at_front: bool,
) -> Result<BAction, EngineError> {
    let (head, body) = clause_parts(m, m.x[0])?;
    let (f, arity) = match head.tag() {
        Tag::Con => (head.sym(), 0usize),
        Tag::Str => m.functor_of(head),
        _ => {
            return Err(EngineError::Type {
                expected: "callable head",
                found: format!("{head:?}"),
            })
        }
    };
    let pred =
        m.db.declare_dynamic(f, arity as u16)
            .map_err(|e| EngineError::Other(format!("assert: {e} ({})", syms.name(f))))?;
    // canonicalize head args (+ body) in one shared-variable pass
    let mut roots: Vec<Cell> = (0..arity).map(|i| m.arg_of(head, i)).collect();
    roots.extend(body);
    let canon = m.canonicalize(&roots, &mut Vec::new());
    m.edb(syms)
        .insert(pred, &[(Rc::from(canon), body.is_some())], at_front)?;
    Ok(BAction::Continue)
}

/// Parses the argument of `abolish_table_pred/1`: either a `Name/Arity`
/// indicator or a callable template like `path(_,_)`.
fn pred_spec(m: &Machine, c: Cell) -> Result<(Sym, u16), EngineError> {
    let t = m.deref(c);
    match t.tag() {
        Tag::Con => Ok((t.sym(), 0)),
        Tag::Str => {
            let (f, n) = m.functor_of(t);
            if f == well_known::SLASH && n == 2 {
                let name = m.deref(m.arg_of(t, 0));
                let arity = m.deref(m.arg_of(t, 1));
                if name.tag() == Tag::Con && arity.tag() == Tag::Int && arity.int_value() >= 0 {
                    return Ok((name.sym(), arity.int_value() as u16));
                }
            }
            Ok((f, n as u16))
        }
        Tag::Ref => Err(EngineError::Instantiation("abolish_table_pred/1")),
        _ => Err(EngineError::Type {
            expected: "predicate indicator or callable",
            found: format!("{t:?}"),
        }),
    }
}

/// `abolish_table_pred(P)`: selectively removes every table of one tabled
/// predicate; other predicates' tables survive. Succeeds even when there
/// is nothing to remove.
fn builtin_abolish_table_pred(m: &mut Machine, syms: &SymbolTable) -> Result<BAction, EngineError> {
    let (f, n) = pred_spec(m, m.x[0])?;
    let Some(pred) = m.db.lookup_pred(f, n) else {
        return Ok(BAction::Continue);
    };
    if !m.db.pred(pred).tabled {
        return Err(EngineError::Other(format!(
            "abolish_table_pred: {}/{n} is not tabled",
            syms.name(f)
        )));
    }
    // other pool workers may hold tables for this predicate regardless of
    // what this worker removed locally
    crate::emulate::invalidate_tables(m.tables, &mut m.obs, &[pred]);
    Ok(BAction::Continue)
}

/// `abolish_table_call(G)`: removes the table of the single variant call
/// `G`, leaving the predicate's other tables intact. Succeeds even when
/// no such table exists.
fn builtin_abolish_table_call(m: &mut Machine) -> Result<BAction, EngineError> {
    let goal = m.deref(m.x[0]);
    let (f, n) = match goal.tag() {
        Tag::Con => (goal.sym(), 0usize),
        Tag::Str => m.functor_of(goal),
        Tag::Ref => return Err(EngineError::Instantiation("abolish_table_call/1")),
        _ => {
            return Err(EngineError::Type {
                expected: "callable",
                found: format!("{goal:?}"),
            })
        }
    };
    let Some(pred) = m.db.lookup_pred(f, n as u16) else {
        return Ok(BAction::Continue);
    };
    let args: Vec<Cell> = (0..n).map(|i| m.arg_of(goal, i)).collect();
    let mut var_addrs = Vec::new();
    let canon = m.canonicalize(&args, &mut var_addrs);
    if m.tables.abolish_call(pred, &canon) {
        m.obs.metrics.bump(Counter::TableInvalidations);
        if m.obs.trace.enabled {
            m.obs.trace.push(SlgEvent::TableInvalidated { pred });
        }
    }
    // the shared store has no per-variant invalidation: drop the whole
    // predicate pool-wide (conservative, always safe)
    let shared = m.tables.shared_invalidate(&[pred]);
    if shared > 0 {
        m.obs
            .metrics
            .add(Counter::SharedTableInvalidations, shared as u64);
    }
    Ok(BAction::Continue)
}

fn builtin_retract(
    m: &mut Machine,
    syms: &mut SymbolTable,
    resume: CodePtr,
) -> Result<BAction, EngineError> {
    let (head, _body) = clause_parts(m, m.x[0])?;
    let (f, arity) = match head.tag() {
        Tag::Con => (head.sym(), 0usize),
        Tag::Str => m.functor_of(head),
        Tag::Ref => return Err(EngineError::Instantiation("retract/1")),
        _ => {
            return Err(EngineError::Type {
                expected: "callable",
                found: format!("{head:?}"),
            })
        }
    };
    let Some(pred) = m.db.lookup_pred(f, arity as u16) else {
        return Ok(BAction::Fail);
    };
    let Some(dp) = m.db.dyn_of(pred) else {
        return Err(EngineError::Other(format!(
            "retract: {} is not dynamic",
            syms.name(f)
        )));
    };
    let tokens: Vec<Option<Cell>> = (0..arity)
        .map(|i| outer_token(m.deref(m.arg_of(head, i)), &m.heap))
        .collect();
    let list: Rc<[u32]> = Rc::from(dp.candidates(&tokens).into_boxed_slice());
    if list.is_empty() {
        return Ok(BAction::Fail);
    }
    // iterate candidates through a choice point; the backtrack handler
    // unifies and removes the first matching clause
    m.push_cp(
        1,
        Alt::Retract {
            pred,
            list,
            idx: 0,
            resume,
        },
    );
    // "fail into" the choice point so the backtrack handler tries
    // candidate 0 with a clean binding state
    Ok(BAction::Fail)
}

fn builtin_retractall(m: &mut Machine, syms: &mut SymbolTable) -> Result<BAction, EngineError> {
    let head = m.deref(m.x[0]);
    let (f, arity) = match head.tag() {
        Tag::Con => (head.sym(), 0usize),
        Tag::Str => m.functor_of(head),
        _ => return Err(EngineError::Instantiation("retractall/1")),
    };
    let Some(pred) = m.db.lookup_pred(f, arity as u16) else {
        return Ok(BAction::Continue);
    };
    let Some(dp) = m.db.dyn_of(pred) else {
        return Ok(BAction::Continue);
    };
    // a fully open pattern removes every clause (the write path picks
    // predicate-level retraction when nothing is logged)
    if (0..arity).all(|i| m.deref(m.arg_of(head, i)).tag() == Tag::Ref) {
        m.edb(syms).remove(pred, Clauses::All)?;
        return Ok(BAction::Continue);
    }
    // decode and unify each candidate
    let mut matched: Vec<u32> = Vec::new();
    for id in dp.all_live() {
        let c = m.db.dyn_of(pred).expect("dynamic").clause(id);
        let (canon, has_body) = (c.canon.clone(), c.has_body);
        let mark = m.tip;
        let hlen = m.heap.len();
        // a rule's body is one more root; decode it, match the head only
        let roots = m.decode_canon(&canon, arity + has_body as usize);
        let ok = roots[..arity]
            .iter()
            .enumerate()
            .all(|(i, &root)| m.unify(m.arg_of(head, i), root));
        m.unwind_to(mark);
        m.heap.truncate(hlen.max(m.freeze.heap as usize));
        if ok {
            matched.push(id);
        }
    }
    m.edb(syms).remove(pred, Clauses::Ids(&matched))?;
    Ok(BAction::Continue)
}

fn builtin_sort(
    m: &mut Machine,
    syms: &mut SymbolTable,
    dedup: bool,
) -> Result<BAction, EngineError> {
    let mut items = Vec::new();
    let mut c = m.deref(m.x[0]);
    loop {
        match c.tag() {
            Tag::Con if c.sym() == well_known::NIL => break,
            Tag::Lis => {
                items.push(m.deref(m.heap[c.addr()]));
                c = m.deref(m.heap[c.addr() + 1]);
            }
            _ => return Err(EngineError::Instantiation("sort/2")),
        }
    }
    items.sort_by(|&a, &b| m.compare(a, b, syms));
    if dedup {
        items.dedup_by(|&mut a, &mut b| m.compare(a, b, syms) == Ordering::Equal);
    }
    let l = m.make_list(&items);
    let a1 = m.x[1];
    Ok(if m.unify(a1, l) {
        BAction::Continue
    } else {
        BAction::Fail
    })
}
