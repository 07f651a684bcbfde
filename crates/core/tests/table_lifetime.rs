//! Cross-query table lifetime: dependency-tracked invalidation on
//! assert/retract, selective abolish, the answer-store budget, and
//! shared-table safety under `e_tnot`.

use xsb_core::Engine;
use xsb_obs::Counter;

const PATH_OVER_DYNAMIC_EDGE: &str = ":- dynamic edge/2.\n\
     :- table path/2.\n\
     path(X,Y) :- edge(X,Y).\n\
     path(X,Y) :- path(X,Z), edge(Z,Y).\n\
     edge(1,2).";

fn engine(src: &str) -> Engine {
    let mut e = Engine::new();
    e.consult(src).expect("program consults");
    e
}

// ---------------------------------------------------------------------
// stale-answer regression: assert/retract invalidate dependent tables
// ---------------------------------------------------------------------

#[test]
fn assert_retract_invalidate_dependent_table() {
    let mut e = engine(PATH_OVER_DYNAMIC_EDGE);

    assert_eq!(e.count("path(1, X)").unwrap(), 1);
    // the bug this PR fixes: without invalidation this re-query served
    // the stale completed table and missed the new edge
    e.query("assert(edge(2, 3))").unwrap();
    assert_eq!(e.count("path(1, X)").unwrap(), 2);
    assert!(e.metrics().get(Counter::TableInvalidations) >= 1);

    // retract invalidates too
    assert!(e.holds("retract(edge(2, 3))").unwrap());
    assert_eq!(e.count("path(1, X)").unwrap(), 1);

    // retractall empties the relation and the table follows
    e.query("retractall(edge(_, _))").unwrap();
    assert_eq!(e.count("path(1, X)").unwrap(), 0);
}

#[test]
fn programmatic_assert_invalidates_like_the_builtin() {
    use xsb_syntax::Term;
    let mut e = engine(PATH_OVER_DYNAMIC_EDGE);
    assert_eq!(e.count("path(1, X)").unwrap(), 1);
    let edge = e.syms.lookup("edge").unwrap();
    e.assert_term(&Term::Compound(edge, vec![Term::Int(2), Term::Int(3)]))
        .unwrap();
    assert_eq!(e.count("path(1, X)").unwrap(), 2);
}

#[test]
fn invalidation_is_transitive_through_tabled_layers() {
    let mut e = engine(
        ":- dynamic edge/2.\n\
         :- table path/2.\n\
         path(X,Y) :- edge(X,Y).\n\
         path(X,Y) :- path(X,Z), edge(Z,Y).\n\
         :- table reach/1.\n\
         reach(Y) :- path(1, Y).\n\
         edge(1,2).",
    );
    assert_eq!(e.count("reach(Y)").unwrap(), 1);
    let before = e.metrics().get(Counter::TableInvalidations);
    e.query("assert(edge(2, 3))").unwrap();
    // both path/2 and reach/1 (which only reaches edge/2 via path/2)
    // must be invalidated
    assert!(e.metrics().get(Counter::TableInvalidations) >= before + 2);
    assert_eq!(e.count("reach(Y)").unwrap(), 2);
    assert_eq!(e.count("path(1, Y)").unwrap(), 2);
}

#[test]
fn independent_tables_survive_and_serve_warm_hits() {
    let mut e = engine(
        ":- dynamic da/1.\n:- dynamic db/1.\n\
         :- table pa/1.\npa(X) :- da(X).\n\
         :- table pb/1.\npb(X) :- db(X).\n\
         da(1). db(2).",
    );
    assert_eq!(e.count("pa(X)").unwrap(), 1);
    assert_eq!(e.count("pb(X)").unwrap(), 1);

    e.query("assert(da(9))").unwrap();
    // pa/1 recomputes with the new fact ...
    assert_eq!(e.count("pa(X)").unwrap(), 2);
    // ... while pb/1's table survived the assert and is served warm
    let hits = e.metrics().get(Counter::TableHits);
    assert_eq!(e.count("pb(X)").unwrap(), 1);
    assert!(
        e.metrics().get(Counter::TableHits) > hits,
        "pb/1 re-query should be a cross-query table hit"
    );
}

#[test]
fn assert_to_unrelated_predicate_keeps_tables() {
    let mut e = engine(
        ":- dynamic other/1.\n\
         :- table p/1.\np(1). p(2).",
    );
    assert_eq!(e.count("p(X)").unwrap(), 2);
    let invalidations = e.metrics().get(Counter::TableInvalidations);
    e.query("assert(other(1))").unwrap();
    assert_eq!(e.metrics().get(Counter::TableInvalidations), invalidations);
    let hits = e.metrics().get(Counter::TableHits);
    assert_eq!(e.count("p(X)").unwrap(), 2);
    assert!(e.metrics().get(Counter::TableHits) > hits);
}

#[test]
fn mid_query_assert_keeps_call_time_view_safely() {
    // the assert lands while path/2's completed table still has a live
    // choice point; the running query must keep iterating its (call-time)
    // answers — the invalidated frame's store stays alive until query end
    let mut e = engine(
        ":- dynamic edge/2.\n\
         :- table path/2.\n\
         path(X,Y) :- edge(X,Y).\n\
         path(X,Y) :- path(X,Z), edge(Z,Y).\n\
         edge(1,2). edge(1,3).",
    );
    assert_eq!(e.count("path(1, X)").unwrap(), 2);
    // solution 1 asserts, then backtracking re-enters the invalidated table
    assert_eq!(e.count("path(1, X), assert(edge(3, 4))").unwrap(), 2);
    // the next query recomputes: {2, 3, 4}
    assert_eq!(e.count("path(1, X)").unwrap(), 3);
}

#[test]
fn dependencies_learned_from_asserted_rules() {
    // rule asserted at runtime: `p(X) :- d(X)` makes tabled p/1 depend on
    // dynamic d/1, so a later assert to d/1 invalidates p/1
    let mut e = engine(":- dynamic d/1.\n:- dynamic q/1.\n:- table p/1.\np(X) :- q(X).");
    e.query("assert((q(X) :- d(X)))").unwrap();
    e.query("assert(d(1))").unwrap();
    assert_eq!(e.count("p(X)").unwrap(), 1);
    e.query("assert(d(2))").unwrap();
    assert_eq!(e.count("p(X)").unwrap(), 2);
}

// ---------------------------------------------------------------------
// selective abolish builtins
// ---------------------------------------------------------------------

#[test]
fn abolish_table_pred_is_selective() {
    let mut e = engine(
        ":- table p/1.\np(1). p(2).\n\
         :- table q/1.\nq(7).",
    );
    assert_eq!(e.count("p(X)").unwrap(), 2);
    assert_eq!(e.count("q(X)").unwrap(), 1);
    assert_eq!(e.table_count(), 2);

    assert!(e.holds("abolish_table_pred(p/1)").unwrap());
    assert_eq!(e.table_count(), 1);
    // p/1 recomputes; q/1 is served warm
    assert_eq!(e.count("p(X)").unwrap(), 2);
    let hits = e.metrics().get(Counter::TableHits);
    assert_eq!(e.count("q(X)").unwrap(), 1);
    assert!(e.metrics().get(Counter::TableHits) > hits);
}

#[test]
fn abolish_table_pred_rejects_untabled_and_skips_unknown() {
    let mut e = engine("plain(1).");
    assert!(e.query("abolish_table_pred(plain/1)").is_err());
    // unknown predicates are a no-op, like abolishing an empty table
    assert!(e.holds("abolish_table_pred(nosuch/3)").unwrap());
}

#[test]
fn abolish_table_call_is_per_variant() {
    let mut e = engine(":- table p/1.\np(1). p(2).");
    // `count` drives each call to exhaustion so both variants complete
    // (a query stopped at its first solution purges its incomplete table)
    assert_eq!(e.count("p(1)").unwrap(), 1);
    assert_eq!(e.count("p(X)").unwrap(), 2);
    assert_eq!(e.table_count(), 2); // variants p(1) and p(X)

    assert!(e.holds("abolish_table_call(p(1))").unwrap());
    assert_eq!(e.table_count(), 1);
    // the open-call variant is untouched and serves warm
    let hits = e.metrics().get(Counter::TableHits);
    assert_eq!(e.count("p(X)").unwrap(), 2);
    assert!(e.metrics().get(Counter::TableHits) > hits);
    // the abolished variant recomputes on demand
    assert_eq!(e.count("p(1)").unwrap(), 1);
    assert_eq!(e.table_count(), 2);
}

#[test]
fn engine_api_abolish_table_pred() {
    let mut e = engine(":- table p/1.\np(1).");
    assert_eq!(e.count("p(1)").unwrap(), 1);
    assert_eq!(e.abolish_table_pred("p", 1), 1);
    assert_eq!(e.table_count(), 0);
    assert_eq!(e.abolish_table_pred("p", 1), 0);
    assert_eq!(e.abolish_table_pred("nosuch", 1), 0);
    assert_eq!(e.count("p(1)").unwrap(), 1);
}

// ---------------------------------------------------------------------
// answer-store budget
// ---------------------------------------------------------------------

#[test]
fn budget_evicts_completed_tables_between_queries() {
    let mut e = engine(
        ":- table p/1.\np(1). p(2). p(3).\n\
         :- table q/1.\nq(1). q(2). q(3).",
    );
    e.set_table_budget(Some(0));
    assert_eq!(e.count("p(X)").unwrap(), 3);
    // the budget sweep after the query evicted p's table
    assert!(e.metrics().get(Counter::TableEvictions) >= 1);
    assert_eq!(e.table_count(), 0);
    // evicted tables recompute transparently
    assert_eq!(e.count("p(X)").unwrap(), 3);
    assert_eq!(e.count("q(X)").unwrap(), 3);
}

#[test]
fn budget_keeps_recently_hit_tables_when_it_can() {
    let mut e = engine(
        ":- table p/1.\np(1). p(2). p(3).\n\
         :- table q/1.\nq(1). q(2). q(3).",
    );
    assert_eq!(e.count("p(X)").unwrap(), 3);
    assert_eq!(e.count("q(X)").unwrap(), 3);
    assert_eq!(e.count("q(X)").unwrap(), 3); // q hit more recently than p
    let total = e.table_count();
    assert_eq!(total, 2);
    // room for roughly one table: p (least recently hit) must go first
    e.set_table_budget(Some(4));
    assert_eq!(e.count("q(X)").unwrap(), 3);
    let hits = e.metrics().get(Counter::TableHits);
    assert_eq!(e.count("q(X)").unwrap(), 3);
    assert!(
        e.metrics().get(Counter::TableHits) > hits,
        "q/1 should still be warm after the sweep"
    );
}

#[test]
fn set_table_budget_builtin_and_unbounded_reset() {
    let mut e = engine(":- table p/1.\np(1). p(2).");
    assert!(e.holds("set_table_budget(0)").unwrap()); // 0 = unbounded
    assert_eq!(e.count("p(X)").unwrap(), 2);
    assert_eq!(e.table_count(), 1);
    assert!(e.holds("set_table_budget(1)").unwrap());
    assert_eq!(e.count("p(X)").unwrap(), 2);
    assert_eq!(e.table_count(), 0, "budget of 1 cell evicts the table");
    assert!(e.query("set_table_budget(nope)").is_err());
}

// ---------------------------------------------------------------------
// shared tables under existential negation
// ---------------------------------------------------------------------

#[test]
fn e_tnot_generator_with_second_consumer_keeps_table() {
    // the self-recursive clause makes the e_tnot-spawned generator for
    // p(1) acquire a second consumer of its own table; the early-cut
    // optimisation (one answer suffices for e_tnot) must detect that
    // other user and complete normally, so the table survives for reuse
    let mut e = engine(
        ":- table p/1.\n\
         p(X) :- p(X).\n\
         p(1). p(2).\n\
         probe :- e_tnot p(1).",
    );
    assert!(
        !e.holds("probe").unwrap(),
        "p(1) has an answer, e_tnot fails"
    );
    let hits = e.metrics().get(Counter::TableHits);
    assert_eq!(
        e.count("p(1)").unwrap(),
        1,
        "the table built under e_tnot completed with its answer"
    );
    assert!(
        e.metrics().get(Counter::TableHits) > hits,
        "the p(1) table built under e_tnot is reusable"
    );
}

#[test]
fn e_tnot_without_other_users_still_correct() {
    let mut e = engine(
        ":- table p/1.\np(1). p(2).\n\
         :- table empty/1.\nempty(X) :- empty(X).\n\
         yes :- e_tnot empty(0).\n\
         no :- e_tnot p(1).",
    );
    assert!(e.holds("yes").unwrap());
    assert!(!e.holds("no").unwrap());
}
