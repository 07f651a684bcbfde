//! Property-based tests on core invariants: term round-trips through the
//! machine representation, list builtins against Rust reference semantics,
//! answer-set properties of tabling, and the first-string trie against a
//! naive clause filter.

// Gated behind the `proptest` feature; the strategies and macros come
// from the in-tree deterministic stand-in (`crates/proptest`). Run with
// `cargo test --features proptest`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use xsb::core::Engine;
use xsb_syntax::Term;

// ---------------------------------------------------------------------
// random ground terms
// ---------------------------------------------------------------------

/// AST strategy for small ground terms over a fixed symbol pool.
fn ground_term(syms: &'static [&'static str]) -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0..64i64).prop_map(|i| i.to_string()),
        proptest::sample::select(syms).prop_map(|s| s.to_string()),
    ];
    leaf.prop_recursive(3, 24, 3, move |inner| {
        prop_oneof![
            (
                proptest::sample::select(syms),
                proptest::collection::vec(inner.clone(), 1..3)
            )
                .prop_map(|(f, args)| format!("{f}({})", args.join(","))),
            proptest::collection::vec(inner, 0..3)
                .prop_map(|items| format!("[{}]", items.join(","))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// assert → retract round-trip: any ground term stored as a fact can
    /// be found again by an identical query, and `==`-identically so.
    #[test]
    fn assert_query_roundtrip(t in ground_term(&["f", "g", "atom", "b"])) {
        let mut e = Engine::new();
        e.consult(":- dynamic holds/1.").unwrap();
        e.query(&format!("assert(holds({t}))")).unwrap();
        let q1 = format!("holds(X), X == {t}");
        prop_assert!(e.holds(&q1).unwrap());
        let q2 = format!("retract(holds({t}))");
        prop_assert!(e.holds(&q2).unwrap());
        prop_assert_eq!(e.count("holds(_)").unwrap(), 0);
    }

    /// copy_term produces a variant: `==` to the original for ground terms.
    #[test]
    fn copy_term_ground_identity(t in ground_term(&["f", "g"])) {
        let mut e = Engine::new();
        let q = format!("copy_term({t}, C), C == {t}");
        prop_assert!(e.holds(&q).unwrap());
    }

    /// sort/2 agrees with Rust's sort+dedup on integer lists.
    #[test]
    fn sort_matches_reference(mut xs in proptest::collection::vec(-50i64..50, 0..12)) {
        let mut e = Engine::new();
        let list = format!(
            "[{}]",
            xs.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        );
        let sols = e.query(&format!("sort({list}, S)")).unwrap();
        xs.sort();
        xs.dedup();
        let expect = format!(
            "[{}]",
            xs.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        );
        let got = format!("{}", sols[0].get("S").unwrap().display(&e.syms));
        prop_assert_eq!(got, expect);
    }

    /// append/3 splits a list in exactly len+1 ways, and each split
    /// re-concatenates to the original.
    #[test]
    fn append_split_count(xs in proptest::collection::vec(0i64..9, 0..8)) {
        let mut e = Engine::new();
        let list = format!(
            "[{}]",
            xs.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        );
        prop_assert_eq!(
            e.count(&format!("append(X, Y, {list})")).unwrap(),
            xs.len() + 1
        );
        let q = format!("append(X, Y, {list}), append(X, Y, Z), Z == {list}");
        prop_assert!(e.holds(&q).unwrap());
    }

    /// Tabled answers are set-semantics: no duplicates, invariant under
    /// clause order, and equal to the untabled answer *set* on acyclic
    /// graphs.
    #[test]
    fn tabled_answers_are_a_set(edges in proptest::collection::vec((1i64..=6, 1i64..=6), 1..14)) {
        // make it acyclic by orienting edges upward, so SLD also terminates
        let edges: Vec<(i64, i64)> = edges
            .into_iter()
            .filter(|&(a, b)| a < b)
            .collect();
        let mut facts = String::new();
        for &(a, b) in &edges {
            facts.push_str(&format!("edge({a},{b}).\n"));
        }
        // edge/2 is declared dynamic so the empty edge set is well-defined
        let tabled = format!(
            ":- dynamic edge/2.\n:- table path/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- path(X,Z), edge(Z,Y).\n{facts}"
        );
        let sld = format!(
            ":- dynamic edge/2.\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n{facts}"
        );
        let collect = |src: &str| -> Vec<(i64, i64)> {
            let mut e = Engine::new();
            e.consult(src).unwrap();
            let mut out = Vec::new();
            e.run_query("path(X, Y)", |s| {
                if let (Some(Term::Int(x)), Some(Term::Int(y))) = (s.get("X"), s.get("Y")) {
                    out.push((*x, *y));
                }
                true
            })
            .unwrap();
            out
        };
        let tab = collect(&tabled);
        let mut tab_sorted = tab.clone();
        tab_sorted.sort();
        tab_sorted.dedup();
        prop_assert_eq!(tab.len(), tab_sorted.len(), "tabled answers contain no duplicates");
        let mut sld_set = collect(&sld);
        sld_set.sort();
        sld_set.dedup();
        prop_assert_eq!(tab_sorted, sld_set, "tabled set == SLD set on acyclic input");
    }

    /// between/3 enumerates exactly the closed interval.
    #[test]
    fn between_enumerates_interval(lo in -20i64..20, len in 0i64..30) {
        let hi = lo + len;
        let mut e = Engine::new();
        prop_assert_eq!(
            e.count(&format!("between({lo}, {hi}, X)")).unwrap(),
            (len + 1) as usize
        );
    }

    /// findall result length equals the solution count of the goal.
    #[test]
    fn findall_length_matches_count(n in 0i64..20) {
        let mut e = Engine::new();
        e.consult(":- dynamic item/1.").unwrap();
        for i in 0..n {
            e.query(&format!("assert(item({i}))")).unwrap();
        }
        let direct = e.count("item(_)").unwrap();
        let sols = e.query("findall(X, item(X), L), length(L, N)").unwrap();
        prop_assert_eq!(sols[0].get("N"), Some(&Term::Int(direct as i64)));
    }
}

// ---------------------------------------------------------------------
// first-string trie vs naive filtering
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A first-string-indexed predicate answers exactly like the same
    /// predicate with default hash indexing.
    #[test]
    fn first_string_index_is_transparent(
        rows in proptest::collection::vec((0i64..6, 0i64..6), 1..15),
        qa in 0i64..6,
    ) {
        let mut facts = String::new();
        for &(a, b) in &rows {
            facts.push_str(&format!("p(g({a}), f({b})).\n"));
        }
        let mut hash_e = Engine::new();
        hash_e.consult(&facts).unwrap();
        let mut trie_e = Engine::new();
        trie_e
            .consult(&format!(":- first_string_index(p/2).\n{facts}"))
            .unwrap();
        for q in [
            format!("p(g({qa}), Y)"),
            "p(X, Y)".to_string(),
            format!("p(X, f({qa}))"),
        ] {
            prop_assert_eq!(
                hash_e.count(&q).unwrap(),
                trie_e.count(&q).unwrap(),
                "query {}", q
            );
        }
    }
}
