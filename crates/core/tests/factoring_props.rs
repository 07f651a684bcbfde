//! Property tests for substitution-factored answer tables: the factored
//! store plus the direct-binding return path must round-trip any answer
//! back to a variant of the original instantiated call, and a table
//! imported from the pool-shared store must return exactly the answers
//! the locally computed table returns.

// Gated behind the `proptest` feature; the strategies and macros come
// from the in-tree deterministic stand-in (`crates/proptest`). Run with
// `cargo test -p xsb-core --features proptest`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use std::rc::Rc;
use std::sync::Arc;
use xsb_core::cell::{Cell, Tag};
use xsb_core::machine::{Freeze, Machine, NONE};
use xsb_core::table::{canon_root_spans, GenMode, TableSpace};
use xsb_core::{Engine, SharedTableStore};
use xsb_obs::Counter;
use xsb_syntax::{SymbolTable, Term};

/// Strategy for terms with shared variables (pool 0..3), depth <= 6.
fn ast_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(Term::Var),
        (0i64..50).prop_map(Term::Int),
        // fixed symbol pool: syms 100..104 are interned in with_machine
        (100u32..104).prop_map(|s| Term::Atom(xsb_syntax::Sym(s))),
    ];
    leaf.prop_recursive(5, 24, 3, |inner| {
        (100u32..104, proptest::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Term::Compound(xsb_syntax::Sym(f), args))
    })
}

fn with_space<R>(f: impl FnOnce(&mut Machine) -> R) -> R {
    let mut syms = SymbolTable::new();
    while syms.len() < 105 {
        syms.intern(&format!("s{}", syms.len()));
    }
    let mut db = xsb_core::program::Program::new(&mut syms);
    let mut tables = TableSpace::new();
    let mut m = Machine::new(&mut db, &mut tables);
    f(&mut m)
}

/// The round-trip core: load a two-argument call with shared variables,
/// instantiate its distinct variables from `bindings`, store the factored
/// answer in a real subgoal frame, undo the instantiation, then replay
/// the answer through the direct-binding return path and check the call
/// is a variant of the original instance (equal canonical forms).
fn roundtrip(t1: &Term, t2: &Term, bindings: &[Term]) -> Result<(), String> {
    with_space(|m| {
        let mut vm = Vec::new();
        let a1 = m.term_to_heap(t1, &mut vm);
        let a2 = m.term_to_heap(t2, &mut vm); // shared varmap: shared vars
        let mut var_addrs = Vec::new();
        let call_canon = m.canonicalize(&[a1, a2], &mut var_addrs);
        let nvars = var_addrs.len();
        let sub = m.tables.new_subgoal(
            0,
            std::sync::Arc::from(call_canon.as_ref()),
            var_addrs.clone(),
            Rc::from(&[][..]),
            GenMode::Positive,
            Freeze::default(),
            NONE,
        );

        // instantiate the call's distinct variables (answer terms may
        // themselves contain — possibly shared — variables)
        let mark = m.tip;
        let mut bvm = Vec::new();
        for (i, &addr) in var_addrs.iter().enumerate() {
            let b = if bindings.is_empty() {
                Cell::int(i as i64)
            } else {
                m.term_to_heap(&bindings[i % bindings.len()], &mut bvm)
            };
            if !m.unify(Cell::r#ref(addr as usize), b) {
                return Err("binding an unbound call variable cannot fail".into());
            }
        }
        let mut ev = Vec::new();
        let expected = m.canonicalize(&[a1, a2], &mut ev);

        // store the factored answer (what new_answer does)
        let roots: Vec<Cell> = var_addrs.iter().map(|&a| Cell::r#ref(a as usize)).collect();
        let mut av = Vec::new();
        let ans = m.canonicalize(&roots, &mut av);
        if !m.tables.add_answer(sub, &ans) {
            return Err("first insertion is new".into());
        }
        if m.tables.add_answer(sub, &ans) {
            return Err("second insertion is a duplicate".into());
        }
        if !m.tables.has_answer(sub, &ans) {
            return Err("stored answer is findable".into());
        }

        // what the answer means — the call template with the bindings
        // spliced in, as the answer listing renders it — must equal the
        // directly canonicalized instantiated call, cell for cell
        let mut spans = Vec::new();
        canon_root_spans(&ans, nvars, &mut spans);
        let mut expanded: Vec<Cell> = Vec::new();
        for &c in call_canon.iter() {
            if c.tag() == Tag::TVar {
                let (o, l) = spans[c.tvar_index()];
                expanded.extend_from_slice(&ans[o as usize..(o + l) as usize]);
            } else {
                expanded.push(c);
            }
        }
        if expanded.as_slice() != expected.as_ref() {
            return Err(format!(
                "expansion {expanded:?} != direct canonical {expected:?}"
            ));
        }

        // undo the instantiation, then replay the stored answer through
        // the zero-copy return path: bind each saved variable address
        // directly against the factored cells
        m.unwind_to(mark);
        let stored = m.tables.frame(sub).store.get(0).to_vec();
        let mut tvars = Vec::new();
        let mut pos = 0usize;
        for &addr in &var_addrs {
            if !m.unify_canon_one(&stored, &mut pos, &mut tvars, Cell::r#ref(addr as usize)) {
                return Err("returning a stored answer to its own call cannot fail".into());
            }
        }
        if pos != stored.len() {
            return Err(format!("answer cells not fully consumed: {pos}"));
        }
        let mut rv = Vec::new();
        let rebound = m.canonicalize(&[a1, a2], &mut rv);
        if rebound != expected {
            return Err(format!("rebound {rebound:?} != expected {expected:?}"));
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Factored store → direct-binding return rebinds the call to a
    /// variant of the original instance.
    #[test]
    fn factored_roundtrip(
        t1 in ast_term(),
        t2 in ast_term(),
        bs in proptest::collection::vec(ast_term(), 0..4),
    ) {
        prop_assert_eq!(roundtrip(&t1, &t2, &bs), Ok(()));
    }

    /// On random edge relations, a completed table that travelled through
    /// the pool store — published by one engine, imported by a second
    /// `TableSpace` that never ran a clause of `path/2` — returns exactly
    /// the answers, in the same order, as a table computed locally.
    #[test]
    fn imported_table_returns_the_local_answers(
        edges in proptest::collection::vec((0i64..6, 0i64..6), 1..14),
    ) {
        let mut src = String::from(
            ":- table path/2.\npath(X,Y) :- path(X,Z), edge(Z,Y).\npath(X,Y) :- edge(X,Y).\n",
        );
        for (a, b) in &edges {
            src.push_str(&format!("edge({a},{b}).\n"));
        }
        let store = Arc::new(SharedTableStore::new());
        let attached = |store: &Arc<SharedTableStore>| {
            let mut e = Engine::new();
            e.consult(&src).unwrap();
            e.attach_shared_store(store.clone());
            e
        };
        let mut local = Engine::new();
        local.consult(&src).unwrap();
        let mut publisher = attached(&store);
        let mut importer = attached(&store);
        // a bound call (one factored binding per answer) and the open
        // call (two)
        for q in ["path(0, X)", "path(X, Y)"] {
            local.query(q).unwrap();
            let want = local.query(q).unwrap(); // served from the completed table
            publisher.query(q).unwrap();
            let got = importer.query(q).unwrap();
            prop_assert_eq!(&got, &want, "query {}", q);
        }
        let m = importer.metrics();
        prop_assert_eq!(m.get(Counter::SharedTableHits), 2);
        prop_assert_eq!(m.get(Counter::SubgoalsCreated), 0, "nothing recomputed");
    }
}
