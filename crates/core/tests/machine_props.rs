//! Property tests on the machine substrate: unification, canonical
//! copy-in/copy-out, and trail-based state restoration — the invariants
//! every SLG operation relies on.

// Gated behind the `proptest` feature; the strategies and macros come
// from the in-tree deterministic stand-in (`crates/proptest`). Run with
// `cargo test -p xsb-core --features proptest`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use xsb_core::cell::Cell;
use xsb_core::machine::Machine;
use xsb_core::program::Program;
use xsb_core::table::TableSpace;
use xsb_syntax::{SymbolTable, Term};

/// Strategy for small AST terms (possibly with variables 0..3).
fn ast_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0u32..3).prop_map(Term::Var),
        (0i64..50).prop_map(Term::Int),
        // fixed symbol pool: syms 100..104 are interned in with_machine
        (100u32..104).prop_map(|s| Term::Atom(xsb_syntax::Sym(s))),
    ];
    leaf.prop_recursive(3, 20, 3, |inner| {
        (100u32..104, proptest::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Term::Compound(xsb_syntax::Sym(f), args))
    })
}

fn with_machine<R>(f: impl FnOnce(&mut Machine) -> R) -> R {
    let mut syms = SymbolTable::new();
    // intern enough symbols that Sym(100..104) exist
    while syms.len() < 105 {
        syms.intern(&format!("s{}", syms.len()));
    }
    let mut db = Program::new(&mut syms);
    let mut tables = TableSpace::new();
    let mut m = Machine::new(&mut db, &mut tables);
    f(&mut m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A term unifies with its own copy, and the unified copy becomes
    /// structurally identical (equal canonical forms).
    #[test]
    fn term_unifies_with_its_copy(t in ast_term()) {
        with_machine(|m| {
            let mut varmap = Vec::new();
            let a = m.term_to_heap(&t, &mut varmap);
            let b = m.copy_term(a);
            prop_assert!(m.unify(a, b));
            let mut v1 = Vec::new();
            let mut v2 = Vec::new();
            let c1 = m.canonicalize(&[a], &mut v1);
            let c2 = m.canonicalize(&[b], &mut v2);
            prop_assert_eq!(c1, c2);
            Ok(())
        })?;
    }

    /// Unification is symmetric in outcome.
    #[test]
    fn unify_outcome_is_symmetric(t1 in ast_term(), t2 in ast_term()) {
        let ab = with_machine(|m| {
            let mut vm = Vec::new();
            let a = m.term_to_heap(&t1, &mut vm);
            let mut vm2 = Vec::new();
            let b = m.term_to_heap(&t2, &mut vm2);
            m.unify(a, b)
        });
        let ba = with_machine(|m| {
            let mut vm = Vec::new();
            let a = m.term_to_heap(&t1, &mut vm);
            let mut vm2 = Vec::new();
            let b = m.term_to_heap(&t2, &mut vm2);
            m.unify(b, a)
        });
        prop_assert_eq!(ab, ba);
    }

    /// canonicalize → decode_canon → canonicalize is a fixpoint.
    #[test]
    fn canonical_roundtrip_is_stable(t in ast_term()) {
        with_machine(|m| {
            let mut vm = Vec::new();
            let a = m.term_to_heap(&t, &mut vm);
            let mut v1 = Vec::new();
            let c1 = m.canonicalize(&[a], &mut v1);
            let b = m.decode_canon(&c1, 1)[0];
            let mut v2 = Vec::new();
            let c2 = m.canonicalize(&[b], &mut v2);
            prop_assert_eq!(c1, c2);
            Ok(())
        })?;
    }

    /// Unwinding the trail restores every binding made after the mark.
    #[test]
    fn trail_unwind_restores_state(t1 in ast_term(), t2 in ast_term()) {
        with_machine(|m| {
            let mut vm = Vec::new();
            let a = m.term_to_heap(&t1, &mut vm);
            let mut pre_vars = Vec::new();
            let pre = m.canonicalize(&[a], &mut pre_vars);
            let mark = m.tip;
            let mut vm2 = Vec::new();
            let b = m.term_to_heap(&t2, &mut vm2);
            let _ = m.unify(a, b); // bind or partially bind, may fail
            m.unwind_to(mark);
            let mut post_vars = Vec::new();
            let post = m.canonicalize(&[a], &mut post_vars);
            prop_assert_eq!(pre, post, "t1 shape restored after unwind");
            Ok(())
        })?;
    }

    /// AST → heap → AST is the identity modulo variable renumbering
    /// (heap_to_ast numbers variables by first occurrence).
    #[test]
    fn ast_heap_roundtrip(t in ast_term()) {
        with_machine(|m| {
            let mut vm = Vec::new();
            let a = m.term_to_heap(&t, &mut vm);
            let mut vo = Vec::new();
            let back = m.heap_to_ast(a, &mut vo);
            prop_assert_eq!(renumber(&back), renumber(&t));
            Ok(())
        })?;
    }

    /// The standard order is total and antisymmetric on ground terms.
    #[test]
    fn compare_is_consistent(t1 in ast_term(), t2 in ast_term()) {
        with_machine(|m| {
            let mut syms = SymbolTable::new();
            while syms.len() < 105 {
                syms.intern(&format!("s{}", syms.len()));
            }
            let mut vm = Vec::new();
            let a = m.term_to_heap(&t1, &mut vm);
            let b = m.term_to_heap(&t2, &mut vm); // shared varmap: same vars alias
            let ab = m.compare(a, b, &syms);
            let ba = m.compare(b, a, &syms);
            prop_assert_eq!(ab, ba.reverse());
            prop_assert_eq!(m.compare(a, a, &syms), std::cmp::Ordering::Equal);
            Ok(())
        })?;
    }

    /// Tabled canonical keys implement variant semantics: renaming
    /// variables does not change the key; collapsing distinct variables
    /// does.
    #[test]
    fn canonical_keys_are_variant_keys(t in ast_term()) {
        with_machine(|m| {
            let mut vm1 = Vec::new();
            let a = m.term_to_heap(&t, &mut vm1);
            let mut vm2 = Vec::new();
            let b = m.term_to_heap(&t, &mut vm2); // same shape, fresh vars
            let mut v1 = Vec::new();
            let mut v2 = Vec::new();
            let c1 = m.canonicalize(&[a], &mut v1);
            let c2 = m.canonicalize(&[b], &mut v2);
            prop_assert_eq!(c1, c2, "renamed variants share a key");
            Ok(())
        })?;
    }
}

/// Renumbers AST variables by first occurrence, the normal form both
/// sides of the heap round-trip should share.
fn renumber(t: &Term) -> Term {
    fn walk(t: &Term, map: &mut Vec<u32>) -> Term {
        match t {
            Term::Var(v) => {
                let id = match map.iter().position(|&x| x == *v) {
                    Some(i) => i,
                    None => {
                        map.push(*v);
                        map.len() - 1
                    }
                };
                Term::Var(id as u32)
            }
            Term::Atom(_) | Term::Int(_) => t.clone(),
            Term::Compound(f, args) => {
                Term::Compound(*f, args.iter().map(|a| walk(a, map)).collect())
            }
            Term::HiLog(f, args) => Term::HiLog(
                Box::new(walk(f, map)),
                args.iter().map(|a| walk(a, map)).collect(),
            ),
        }
    }
    walk(t, &mut Vec::new())
}

#[test]
fn unify_canon_one_equals_decode_then_unify() {
    // the dynamic-clause fast path agrees with the decode-then-unify path
    with_machine(|m| {
        // canon of f(1, g(X), X)
        let f = xsb_syntax::Sym(100);
        let g = xsb_syntax::Sym(101);
        let canon = vec![
            Cell::fun(f, 3),
            Cell::int(1),
            Cell::fun(g, 1),
            Cell::tvar(0),
            Cell::tvar(0),
        ];
        // target: f(1, g(7), Z)
        let z = m.new_var();
        let gbase = m.heap.len();
        m.heap.push(Cell::fun(g, 1));
        m.heap.push(Cell::int(7));
        let fbase = m.heap.len();
        m.heap.push(Cell::fun(f, 3));
        m.heap.push(Cell::int(1));
        m.heap.push(Cell::str(gbase));
        m.heap.push(z);
        let target = Cell::str(fbase);

        let mut tvars = Vec::new();
        let mut pos = 0;
        assert!(m.unify_canon_one(&canon, &mut pos, &mut tvars, target));
        assert_eq!(pos, canon.len());
        // Z must now be bound to 7 (X unified with g-arg then with Z)
        assert_eq!(m.deref(z), Cell::int(7));
    });
}
