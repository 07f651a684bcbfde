//! Edge-case tests: negation corner cases, cut safety, error reporting,
//! builtin semantics, and redefinition behaviour.

use xsb_core::{Engine, EngineError};
use xsb_syntax::Term;

fn engine(src: &str) -> Engine {
    let mut e = Engine::new();
    e.consult(src).expect("program consults");
    e
}

// ---------------------------------------------------------------------
// negation corner cases
// ---------------------------------------------------------------------

#[test]
fn tnot_reuses_completed_table() {
    let mut e = engine(
        ":- table p/1.\np(1). p(2).\n\
         :- table absent/1.\nabsent(X) :- p(X), p(99).",
    );
    // complete p's table first
    assert_eq!(e.count("p(X)").unwrap(), 2);
    // tnot over the already-completed tables
    assert!(e.holds("tnot absent(1)").unwrap());
    assert!(!e.holds("tnot p(1)").unwrap());
}

#[test]
fn tnot_of_empty_tabled_predicate() {
    let mut e = engine(":- table q/1.\nq(X) :- q(X).");
    // q/1 has only a self-recursive clause: completes empty
    assert!(e.holds("tnot q(5)").unwrap());
}

#[test]
fn e_tnot_falls_back_when_table_has_other_users() {
    // win evaluated positively first, then e_tnot over it: cannot cut a
    // table someone else may consume
    let mut e = engine(
        ":- table p/1.\np(1).\n\
         check(X) :- e_tnot p(X).",
    );
    assert_eq!(e.count("p(X)").unwrap(), 1); // table complete
    assert!(!e.holds("check(1)").unwrap());
    // unknown constant: canonical call differs, fresh generator, no answer
    // for p(7) — but p(7) is a *different subgoal* than p(X)
    assert!(e.holds("check(7)").unwrap());
}

#[test]
fn nested_negation_through_two_tables() {
    // even/odd layered over tnot: lose(X) iff not win(X)
    let mut e = engine(
        ":- table win/1.\n:- table lose/1.\n\
         win(X) :- move(X,Y), tnot win(Y).\n\
         lose(X) :- node(X), tnot win(X).\n\
         move(1,2). move(2,3).\n\
         node(1). node(2). node(3).",
    );
    // chain 1→2→3: win(3) false (no moves), win(2) true, win(1) false
    assert!(e.holds("lose(3)").unwrap());
    assert!(e.holds("lose(1)").unwrap());
    assert!(!e.holds("lose(2)").unwrap());
}

#[test]
fn sldnf_naf_with_compound_inner_goal() {
    let mut e = engine("p(1). q(1). r(2).");
    assert!(e.holds("\\+ (p(X), r(X))").unwrap());
    assert!(!e.holds("\\+ (p(X), q(X))").unwrap());
}

#[test]
fn double_sldnf_negation() {
    let mut e = engine("p(1).");
    assert!(e.holds("\\+ \\+ p(1)").unwrap());
    assert!(!e.holds("\\+ \\+ p(2)").unwrap());
}

#[test]
fn tnot_non_ground_flounders() {
    let mut e = engine(":- table p/1.\np(1).");
    let r = e.holds("tnot p(X)");
    assert!(
        matches!(r, Err(EngineError::Other(ref m)) if m.contains("floundering")),
        "{r:?}"
    );
}

#[test]
fn tnot_on_untabled_predicate_errors() {
    let mut e = engine("plain(1).");
    let r = e.holds("tnot plain(1)");
    assert!(
        matches!(r, Err(EngineError::Other(ref m)) if m.contains("tabled")),
        "{r:?}"
    );
}

// ---------------------------------------------------------------------
// cut safety (paper §4.4)
// ---------------------------------------------------------------------

#[test]
fn cut_stops_clause_alternatives_only() {
    let mut e = engine("first(X) :- member(X, [a,b,c]), !.\n");
    assert_eq!(e.count("first(X)").unwrap(), 1);
}

#[test]
fn cut_inside_condition_is_local_to_ite() {
    let mut e = engine("classify(X, neg) :- (X < 0 -> true ; fail).\nclassify(X, pos) :- X >= 0.");
    assert_eq!(e.count("classify(-5, K)").unwrap(), 1);
    assert_eq!(e.count("classify(5, K)").unwrap(), 1);
}

// ---------------------------------------------------------------------
// builtins
// ---------------------------------------------------------------------

#[test]
fn functor_and_arg_and_univ() {
    let mut e = Engine::new();
    let sols = e.query("functor(foo(a, b, c), F, N)").unwrap();
    assert_eq!(
        format!("{}", sols[0].get("F").unwrap().display(&e.syms)),
        "foo"
    );
    assert_eq!(sols[0].get("N"), Some(&Term::Int(3)));
    // construction mode
    assert!(e
        .holds("functor(T, pair, 2), arg(1, T, X), var(X)")
        .unwrap());
    // univ both ways
    let sols = e.query("foo(1, 2) =.. L").unwrap();
    assert_eq!(
        format!("{}", sols[0].get("L").unwrap().display(&e.syms)),
        "[foo,1,2]"
    );
    assert!(e.holds("T =.. [bar, 7], T == bar(7)").unwrap());
}

#[test]
fn arithmetic_operators() {
    let mut e = Engine::new();
    for (q, v) in [
        ("X is 7 mod 3", 1),
        ("X is -7 mod 3", 2),  // mod is euclidean
        ("X is -7 rem 3", -1), // rem follows the dividend
        ("X is 10 // 3", 3),
        ("X is min(4, 9)", 4),
        ("X is max(4, 9)", 9),
        ("X is abs(-5)", 5),
        ("X is - (3 + 4)", -7),
    ] {
        let sols = e.query(q).unwrap();
        assert_eq!(sols[0].get("X"), Some(&Term::Int(v)), "{q}");
    }
    assert!(e.query("X is 1 / 0").is_err());
    assert!(e.query("X is foo + 1").is_err());
    assert!(e.query("X is Y + 1").is_err());
}

#[test]
fn term_ordering_builtins() {
    let mut e = Engine::new();
    assert!(e.holds("1 @< a").unwrap());
    assert!(e.holds("a @< b").unwrap());
    assert!(e.holds("a @< f(a)").unwrap());
    assert!(e.holds("f(a) @< f(b)").unwrap());
    assert!(e.holds("f(a) @< g(a)").unwrap());
    assert!(e.holds("f(a) @< f(a,b)").unwrap());
    assert!(e.holds("compare(<, 1, 2)").unwrap());
    assert!(
        e.holds("compare(O, foo, foo), O == (=)").unwrap_or(false) || {
            // '=' may print specially; check via compare directly
            e.holds("compare(=, foo, foo)").unwrap()
        }
    );
}

#[test]
fn type_test_builtins() {
    let mut e = Engine::new();
    assert!(e.holds("var(_)").unwrap());
    assert!(e.holds("X = f(Y), nonvar(X), compound(X)").unwrap());
    assert!(e.holds("atom(foo), \\+ atom(1), \\+ atom(f(x))").unwrap());
    assert!(e.holds("integer(42), number(42)").unwrap());
    assert!(e.holds("atomic(foo), atomic(3), \\+ atomic(f(x))").unwrap());
    assert!(e
        .holds("callable(foo), callable(f(x)), \\+ callable(3)")
        .unwrap());
    assert!(e
        .holds("is_list([1,2]), is_list([]), \\+ is_list([1|_])")
        .unwrap());
}

#[test]
fn call_n_appends_arguments() {
    let mut e = engine("add(X, Y, Z) :- Z is X + Y.");
    let sols = e.query("call(add(1), 2, R)").unwrap();
    assert_eq!(sols[0].get("R"), Some(&Term::Int(3)));
    let sols = e.query("G = add, call(G, 4, 5, R)").unwrap();
    assert_eq!(sols[0].get("R"), Some(&Term::Int(9)));
}

#[test]
fn not_unify_does_not_bind() {
    let mut e = Engine::new();
    assert!(!e.holds("X \\= 1, var(X)").unwrap_or(false)); // X \= 1 fails (they unify)
    assert!(e.holds("f(a) \\= f(b)").unwrap());
    assert!(!e.holds("f(X) \\= f(b)").unwrap());
}

#[test]
fn msort_keeps_duplicates() {
    let mut e = Engine::new();
    let sols = e.query("msort([3,1,3,2], L)").unwrap();
    assert_eq!(
        format!("{}", sols[0].get("L").unwrap().display(&e.syms)),
        "[1,2,3,3]"
    );
}

#[test]
fn bagof_collects_setof_sorts() {
    let mut e = engine("n(3). n(1). n(3).");
    let sols = e.query("bagof(X, n(X), L)").unwrap();
    assert_eq!(
        format!("{}", sols[0].get("L").unwrap().display(&e.syms)),
        "[3,1,3]"
    );
    let sols = e.query("setof(X, n(X), L)").unwrap();
    assert_eq!(
        format!("{}", sols[0].get("L").unwrap().display(&e.syms)),
        "[1,3]"
    );
}

#[test]
fn prelude_list_predicates() {
    let mut e = Engine::new();
    assert!(e.holds("reverse([1,2,3], [3,2,1])").unwrap());
    assert!(e.holds("last([1,2,3], 3)").unwrap());
    assert!(e.holds("sum_list([1,2,3], 6)").unwrap());
    assert!(e
        .holds("max_list([3,1,4], 4), min_list([3,1,4], 1)")
        .unwrap());
    assert!(e.holds("numlist(1, 5, [1,2,3,4,5])").unwrap());
    assert_eq!(e.count("select(X, [a,b,c], _)").unwrap(), 3);
    assert_eq!(e.count("member(X, [a,b,c])").unwrap(), 3);
}

// ---------------------------------------------------------------------
// errors & redefinition
// ---------------------------------------------------------------------

#[test]
fn undefined_predicate_is_reported() {
    let mut e = Engine::new();
    let r = e.holds("no_such_thing(1)");
    assert!(
        matches!(r, Err(EngineError::UndefinedPredicate(ref p)) if p.contains("no_such_thing")),
        "{r:?}"
    );
}

#[test]
fn consult_redefines_predicates() {
    let mut e = engine("color(red).");
    assert_eq!(e.count("color(X)").unwrap(), 1);
    e.consult("color(green). color(blue).").unwrap();
    assert_eq!(e.count("color(X)").unwrap(), 2, "redefinition replaces");
}

#[test]
fn cannot_redefine_builtins() {
    let mut e = Engine::new();
    assert!(e.consult("is(X, Y) :- X = Y.").is_err());
}

#[test]
fn dynamic_then_static_conflict() {
    let mut e = Engine::new();
    e.consult(":- dynamic d/1.").unwrap();
    e.consult("d(1).").unwrap(); // consulted clauses of dynamic preds assert
    assert_eq!(e.count("d(X)").unwrap(), 1);
    assert!(
        e.declare_table("d", 1).is_err(),
        "cannot table a dynamic pred"
    );
}

#[test]
fn retract_rule_with_body() {
    let mut e = Engine::new();
    e.consult(":- dynamic r/1.").unwrap();
    e.query("assert((r(X) :- X > 3))").unwrap();
    assert!(e.holds("r(5)").unwrap());
    assert!(e.holds("retract((r(X) :- X > 3))").unwrap());
    assert_eq!(e.count("r(5)").unwrap(), 0);
}

/// `retractall/1` with a bound argument matches rule heads as well as
/// facts, and leaves every clause whose head does not unify.
#[test]
fn partially_bound_retractall_on_rules_and_facts() {
    let mut e = engine(":- dynamic r/1, q/1.\nq(5). q(7).\nr(X) :- q(X).\n");
    assert!(e.holds("r(5)").unwrap());
    assert!(e.holds("retractall(r(5))").unwrap());
    assert_eq!(e.count("r(X)").unwrap(), 0);

    let mut e =
        engine(":- dynamic s/2, q/1.\nq(5).\ns(a, X) :- q(X).\ns(b, 1).\ns(a, 2).\ns(b, 3).\n");
    assert_eq!(e.count("s(X, Y)").unwrap(), 4);
    // the rule's head s(a, X) does not unify with s(b, _)
    assert!(e.holds("retractall(s(b, _))").unwrap());
    assert_eq!(e.count("s(b, Y)").unwrap(), 0);
    assert_eq!(e.count("s(a, Y)").unwrap(), 2);
    // s(a, 5) unifies with the rule's head but not with the fact s(a, 2)
    assert!(e.holds("retractall(s(a, 5))").unwrap());
    assert_eq!(e.count("s(X, Y)").unwrap(), 1);
    assert!(e.holds("s(a, 2)").unwrap());
}

/// A consulted dynamic rule with a conjunctive body is stored as the one
/// `','/2` body `assert/1` stores, so the same `retract/1` pattern
/// removes either.
#[test]
fn consulted_dynamic_rule_with_conjunctive_body() {
    let facts = ":- dynamic p/1, q/1, r/1.\nq(1). q(2). q(3). r(2). r(3).\n";
    let mut consulted = engine(&format!("{facts}p(X) :- q(X), r(X).\n"));
    let mut asserted = engine(facts);
    asserted.query("assert((p(X) :- q(X), r(X)))").unwrap();
    for e in [&mut consulted, &mut asserted] {
        assert_eq!(e.count("p(X)").unwrap(), 2);
        assert!(e.holds("retract((p(X) :- q(X), r(X)))").unwrap());
        assert_eq!(e.count("p(X)").unwrap(), 0);
    }
}

#[test]
fn step_limit_is_per_query() {
    let mut e = engine("loop :- loop.");
    e.set_step_limit(Some(10_000));
    assert_eq!(e.holds("loop"), Err(EngineError::StepLimit));
    // limit applies afresh to the next query
    assert!(e.holds("true").unwrap());
}

// ---------------------------------------------------------------------
// tabling interactions
// ---------------------------------------------------------------------

#[test]
fn two_independent_sccs_complete_separately() {
    let mut e = engine(
        ":- table a/1.\n:- table b/1.\n\
         a(X) :- a(X).\na(1).\n\
         b(X) :- a(X), b(X).\nb(2).",
    );
    assert_eq!(e.count("a(X)").unwrap(), 1);
    assert_eq!(e.count("b(X)").unwrap(), 1);
}

#[test]
fn variant_calls_share_one_table() {
    let mut e = engine(
        ":- table p/2.\n\
         p(X, Y) :- q(X, Y).\n\
         q(1, 2). q(3, 4).",
    );
    assert_eq!(e.count("p(A, B)").unwrap(), 2);
    let t1 = e.table_count();
    assert_eq!(e.count("p(U, V)").unwrap(), 2, "variant call");
    assert_eq!(e.table_count(), t1, "no new table for a variant");
    assert_eq!(e.count("p(1, W)").unwrap(), 1, "subsumed but distinct call");
    assert_eq!(e.table_count(), t1 + 1, "non-variant gets its own table");
}

#[test]
fn tabled_predicate_with_bound_structure_args() {
    let mut e = engine(
        ":- table path/2.\n\
         path(X,Y) :- edge(X,Y).\n\
         path(X,Y) :- path(X,Z), edge(Z,Y).\n\
         edge(n(1), n(2)). edge(n(2), n(3)).",
    );
    assert_eq!(e.count("path(n(1), W)").unwrap(), 2);
    assert!(e.holds("path(n(1), n(3))").unwrap());
}

#[test]
fn answers_with_shared_variables() {
    // non-ground answers: p(X, X) — variables shared in the answer
    let mut e = engine(":- table p/2.\np(X, X).");
    let sols = e.query("p(A, B)").unwrap();
    assert_eq!(sols.len(), 1);
    // A and B must decode to the same variable
    assert_eq!(sols[0].get("A"), sols[0].get("B"));
    assert!(e.holds("p(7, 7)").unwrap());
    assert!(!e.holds("p(7, 8)").unwrap());
}

#[test]
fn deep_recursion_on_long_chain() {
    // stress stack/arena growth: chain of 5000 under tabled left recursion
    let mut src = String::from(
        ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n",
    );
    let mut e = Engine::new();
    e.declare_dynamic("edge", 2).unwrap();
    e.consult(&src).unwrap();
    let edge = e.syms.intern("edge");
    for i in 0..5000 {
        e.assert_term(&Term::Compound(edge, vec![Term::Int(i), Term::Int(i + 1)]))
            .unwrap();
    }
    src.clear();
    assert_eq!(e.count("path(0, X)").unwrap(), 5000);
}

#[test]
fn interleaved_queries_on_shared_tables() {
    let mut e = engine(
        ":- table anc/2.\n\
         anc(X,Y) :- par(X,Y).\n\
         anc(X,Y) :- anc(X,Z), par(Z,Y).\n\
         par(a,b). par(b,c). par(c,d).",
    );
    assert!(e.holds("anc(a, d)").unwrap());
    assert_eq!(e.count("anc(b, X)").unwrap(), 2);
    assert_eq!(e.count("anc(a, X)").unwrap(), 3);
    // repeated with tables warm
    assert!(e.holds("anc(a, d)").unwrap());
}

// ---------------------------------------------------------------------
// abolish and re-query
// ---------------------------------------------------------------------

#[test]
fn tables_survive_abolish_and_requery() {
    let mut e = engine(
        ":- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\nedge(1,2). edge(2,1).",
    );
    assert_eq!(e.count("path(1, X)").unwrap(), 2);
    e.abolish_all_tables();
    assert_eq!(e.count("path(1, X)").unwrap(), 2);
    // warm-table lookup
    assert_eq!(e.count("path(1, X)").unwrap(), 2);
    // after a selective abolish, a re-query rebuilds a fresh frame rather
    // than resurrecting the deleted one
    assert!(e.holds("abolish_table_pred(path/2)").unwrap());
    assert_eq!(e.table_count(), 0);
    assert_eq!(e.count("path(1, X)").unwrap(), 2);
    // per-variant abolish, then re-creation of that variant
    assert!(e.holds("abolish_table_call(path(1, _))").unwrap());
    assert_eq!(e.count("path(1, X)").unwrap(), 2);
    assert_eq!(e.count("path(2, X)").unwrap(), 2);
}
