//! Cross-engine agreement: the SLG-WAM (top-down tabled), the bottom-up
//! datalog evaluator (all strategies), and the WFS evaluator must compute
//! the same answers on stratified programs — the paper's correctness
//! premise for comparing their performance at all.

// Gated behind the `proptest` feature; the strategies and macros come
// from the in-tree deterministic stand-in (`crates/proptest`). Run with
// `cargo test --features proptest`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use xsb::core::Engine;
use xsb::datalog::{Datalog, Strategy};
use xsb::wfs::{Truth, Wfs};
use xsb_datalog::ast::Value;
use xsb_syntax::Term;

/// Random edge sets over a small node domain.
fn edges_strategy() -> impl Strategy2 {
    proptest::collection::vec((1i64..=8, 1i64..=8), 1..20)
}

// (alias to dodge the name clash with xsb::datalog::Strategy)
trait Strategy2: proptest::strategy::Strategy<Value = Vec<(i64, i64)>> {}
impl<T: proptest::strategy::Strategy<Value = Vec<(i64, i64)>>> Strategy2 for T {}

const RULES: &str = "
    path(X,Y) :- edge(X,Y).
    path(X,Y) :- path(X,Z), edge(Z,Y).
";

fn slg_path_pairs(edges: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut e = Engine::new();
    e.declare_dynamic("edge", 2).unwrap();
    e.consult(&format!(":- table path/2.\n{RULES}")).unwrap();
    let edge = e.syms.intern("edge");
    for &(a, b) in edges {
        e.assert_term(&Term::Compound(edge, vec![Term::Int(a), Term::Int(b)]))
            .unwrap();
    }
    let mut out = Vec::new();
    e.run_query("path(X, Y)", |s| {
        let x = match s.get("X") {
            Some(Term::Int(i)) => *i,
            other => panic!("{other:?}"),
        };
        let y = match s.get("Y") {
            Some(Term::Int(i)) => *i,
            other => panic!("{other:?}"),
        };
        out.push((x, y));
        true
    })
    .unwrap();
    out.sort();
    out.dedup();
    out
}

fn datalog_path_pairs(edges: &[(i64, i64)], strat: Strategy) -> Vec<(i64, i64)> {
    let mut d = Datalog::new(RULES).unwrap();
    for &(a, b) in edges {
        d.add_fact("edge", &[Value::Int(a), Value::Int(b)]);
    }
    let mut out: Vec<(i64, i64)> = d
        .query("path(X, Y)", strat)
        .unwrap()
        .into_iter()
        .map(|row| match (row[0], row[1]) {
            (Value::Int(a), Value::Int(b)) => (a, b),
            other => panic!("{other:?}"),
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Reference: Floyd-Warshall style transitive closure.
fn reference_pairs(edges: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut reach = [[false; 9]; 9];
    for &(a, b) in edges {
        reach[a as usize][b as usize] = true;
    }
    for k in 1..9 {
        for i in 1..9 {
            for j in 1..9 {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    let mut out = Vec::new();
    for (i, row) in reach.iter().enumerate() {
        for (j, &r) in row.iter().enumerate() {
            if r {
                out.push((i as i64, j as i64));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transitive_closure_agrees_across_engines(edges in edges_strategy()) {
        let expect = reference_pairs(&edges);
        prop_assert_eq!(&slg_path_pairs(&edges), &expect, "SLG-WAM");
        prop_assert_eq!(&datalog_path_pairs(&edges, Strategy::SemiNaive), &expect, "semi-naive");
        prop_assert_eq!(&datalog_path_pairs(&edges, Strategy::Naive), &expect, "naive");
    }

    #[test]
    fn goal_directed_strategies_agree(edges in edges_strategy()) {
        let expect: Vec<(i64,i64)> = reference_pairs(&edges)
            .into_iter()
            .filter(|&(a, _)| a == 1)
            .collect();
        // SLG with bound first argument
        let mut e = Engine::new();
        e.declare_dynamic("edge", 2).unwrap();
        e.consult(&format!(":- table path/2.\n{RULES}")).unwrap();
        let edge = e.syms.intern("edge");
        for &(a, b) in &edges {
            e.assert_term(&Term::Compound(edge, vec![Term::Int(a), Term::Int(b)]))
                .unwrap();
        }
        prop_assert_eq!(e.count("path(1, Y)").unwrap(), expect.len(), "SLG path(1,Y)");
        // magic and factored bottom-up
        let mut d = Datalog::new(RULES).unwrap();
        for &(a, b) in &edges {
            d.add_fact("edge", &[Value::Int(a), Value::Int(b)]);
        }
        prop_assert_eq!(d.query("path(1, Y)", Strategy::Magic).unwrap().len(), expect.len(), "magic");
        prop_assert_eq!(
            d.query("path(1, Y)", Strategy::MagicFactored).unwrap().len(),
            expect.len(),
            "factored"
        );
    }

    #[test]
    fn wfs_agrees_with_slg_on_stratified_reachability(edges in edges_strategy()) {
        // unreach(X) :- node(X), tnot reach(X): second stratum
        let nodes: Vec<i64> = (1..=8).collect();
        let mut src = String::from(
            "reach(1).\nreach(Y) :- reach(X), edge(X,Y).\n\
             unreach(X) :- node(X), tnot reach(X).\n",
        );
        for &(a, b) in &edges {
            src.push_str(&format!("edge({a},{b}).\n"));
        }
        for &n in &nodes {
            src.push_str(&format!("node({n}).\n"));
        }
        // WFS model
        let mut w = Wfs::new(&src).unwrap();
        // SLG engine (same program; tabled reach)
        let mut e = Engine::new();
        e.consult(&format!(":- table reach/1.\n{src}")).unwrap();
        for &n in &nodes {
            let wt = w.truth(&format!("unreach({n})")).unwrap();
            let slg = e.holds(&format!("unreach({n})")).unwrap();
            prop_assert_eq!(wt == Truth::True, slg, "node {}", n);
            prop_assert_ne!(wt, Truth::Undefined, "stratified program is two-valued");
        }
    }
}
