//! Regression tests pinning the rendered table formats: `tables/0`
//! (`Engine::table_listing`) and the per-answer listing, which re-expands
//! substitution-factored answers into full call form.

use xsb_core::table::answer_listing;
use xsb_core::Engine;

const CYCLE3: &str = r#"
    :- table path/2.
    path(X,Y) :- path(X,Z), edge(Z,Y).
    path(X,Y) :- edge(X,Y).
    edge(1,2). edge(2,3). edge(3,1).
"#;

const SKELETON: &str = r#"
    :- table q/2.
    q(f(X), g(X,b)) :- e(X).
    e(1). e(2).
"#;

fn engine(src: &str) -> Engine {
    let mut e = Engine::new();
    e.consult(src).expect("program consults");
    e
}

#[test]
fn table_listing_bytes_are_pinned() {
    let mut e = engine(CYCLE3);
    assert_eq!(e.count("path(1, X)").unwrap(), 3);
    assert_eq!(e.table_listing(), "path/2(1,_0): 3 answers, complete\n");
}

#[test]
fn answer_listing_renders_full_call_form() {
    // an open call: the whole argument tuple is variable, so the store
    // holds just the bindings — the listing re-expands them
    let mut e = engine(SKELETON);
    assert_eq!(e.count("q(U, V)").unwrap(), 2);
    let f = e
        .tables
        .subgoals
        .iter()
        .find(|f| f.nvars == 2)
        .expect("q/2 frame");
    assert_eq!(answer_listing(f, &e.syms), "(f(1),g(1,b))\n(f(2),g(2,b))\n");
}

#[test]
fn ground_call_answer_lists_as_yes() {
    let mut e = engine(SKELETON);
    assert!(e.holds("q(f(1), g(1,b))").unwrap());
    let f = e
        .tables
        .subgoals
        .iter()
        .find(|f| f.nvars == 0)
        .expect("ground q/2 frame");
    assert_eq!(f.store.len(), 1);
    assert_eq!(answer_listing(f, &e.syms), "yes\n");
    // the boolean answer is free: zero cells in the store
    assert_eq!(e.tables.answer_store_cells(), 0);
}

#[test]
fn partially_bound_call_keeps_skeleton_out_of_the_store() {
    // q(f(1), V): the f(1) skeleton lives in the call template only; the
    // single answer stores just V's binding g(1,b) — 3 cells, not the
    // 5-cell full tuple
    let mut e = engine(SKELETON);
    assert_eq!(e.count("q(f(1), V)").unwrap(), 1);
    assert_eq!(e.tables.answer_store_cells(), 3);
    let f = e
        .tables
        .subgoals
        .iter()
        .find(|f| f.nvars == 1)
        .expect("q(f(1),_) frame");
    assert_eq!(answer_listing(f, &e.syms), "(f(1),g(1,b))\n");
}
