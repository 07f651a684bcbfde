//! Fused-vs-unfused differential tests.
//!
//! Superinstruction fusion (`Program::fuse_range`) is a pure dispatch
//! optimisation: a fused engine must produce byte-identical answers,
//! byte-identical table listings, and identical table/trail counters to
//! an engine compiled with fusion off. The corpus below spans the same
//! ground the `table_format`, `edge_cases`, and `observability` fixtures
//! cover: left recursion over cycles, structure skeletons, stratified
//! negation over game trees, the list prelude, findall, cut, and
//! arithmetic.
//!
//! The only counter allowed (and expected) to differ is `Instructions`:
//! a fused dispatch retires several original instructions at once, which
//! is exactly what the `instructions_per_sec` benchmark metric measures.

use xsb_core::Engine;
use xsb_obs::Counter;

/// Counters that must be bit-identical across the fusion toggle. Every
/// table, trail, and scheduling counter qualifies; `Instructions` is the
/// deliberate exception (fewer dispatches is the point of fusion).
const INVARIANT_COUNTERS: &[Counter] = &[
    Counter::Calls,
    Counter::Unifications,
    Counter::TrailOps,
    Counter::ChoicePoints,
    Counter::Backtracks,
    Counter::SubgoalsCreated,
    Counter::AnswersRecorded,
    Counter::DuplicateAnswers,
    Counter::ConsumerSuspensions,
    Counter::ConsumerResumptions,
    Counter::SccCompletions,
    Counter::SubgoalsCompleted,
    Counter::NegationSuspends,
    Counter::NegationResumes,
    Counter::TableHits,
    Counter::TableMisses,
];

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

const WIN_TREE: &str = r#"
    :- table win/1.
    win(X) :- move(X,Y), tnot win(Y).
    move(1,2). move(1,3). move(2,4). move(2,5). move(3,6). move(3,7).
"#;

const TWO_CALLS: &str = r#"
    p(X,Y) :- q(X,Z), r(Z,Y).
    q(1,2). q(1,3).
    r(2,20). r(3,30).
"#;

const CUT_FIRST: &str = r#"
    first(X, [X|_]) :- !.
    pick(X) :- member(X, [a,b,c]), !.
"#;

/// `(program, queries)` — each query must behave identically on a fused
/// and an unfused engine.
const CORPUS: &[(&str, &[&str])] = &[
    (CYCLE3, &["path(1,X)", "path(X,Y)", "path(2,1)"]),
    (SKELETON, &["q(U,V)", "q(f(1),W)"]),
    (WIN_TREE, &["win(1)", "win(2)", "win(4)"]),
    (TWO_CALLS, &["p(X,Y)", "p(1,20)"]),
    (CUT_FIRST, &["first(X,[1,2,3])", "pick(X)"]),
    (
        "",
        &[
            "append(X, Y, [1,2,3])",
            "append([1,2], [3,4], Z)",
            "reverse([1,2,3,4], R)",
            "length([a,b,c], N)",
            "numlist(1, 10, L)",
            "sum_list([1,2,3,4], S)",
            "member(X, [a,b,c])",
            "select(X, [1,2,3], Rest)",
            "findall(X, member(X, [a,b,c]), L)",
            "X is 3 * 7 + 1",
        ],
    ),
];

fn render_solutions(e: &mut Engine, q: &str) -> String {
    match e.query(q) {
        Ok(sols) => format!("{sols:?}"),
        Err(err) => format!("error: {err:?}"),
    }
}

#[test]
fn fused_and_unfused_engines_agree_on_the_whole_corpus() {
    for (prog, queries) in CORPUS {
        let mut fused = Engine::with_fusion(true);
        let mut plain = Engine::with_fusion(false);
        if !prog.is_empty() {
            fused.consult(prog).expect("program consults (fused)");
            plain.consult(prog).expect("program consults (unfused)");
        }
        for q in *queries {
            let a = render_solutions(&mut fused, q);
            let b = render_solutions(&mut plain, q);
            assert_eq!(a, b, "answers diverged on {q:?}");
        }
        assert_eq!(
            fused.table_listing(),
            plain.table_listing(),
            "table listing diverged for program {prog:?}"
        );
        for &c in INVARIANT_COUNTERS {
            assert_eq!(
                fused.metrics().get(c),
                plain.metrics().get(c),
                "counter {c:?} diverged for program {prog:?}"
            );
        }
    }
}

#[test]
fn fusion_actually_reduces_dispatches() {
    // sanity that the differential test exercises fused code at all: a
    // fact-heavy workload (GetConstant;Proceed, PutValueY runs, clause
    // epilogues) must retire measurably fewer dispatched instructions
    let mut fused = Engine::with_fusion(true);
    let mut plain = Engine::with_fusion(false);
    for e in [&mut fused, &mut plain] {
        e.consult(CYCLE3).unwrap();
        assert_eq!(e.count("path(X,Y)").unwrap(), 9);
        assert_eq!(e.count("append(X, Y, [1,2,3,4,5])").unwrap(), 6);
    }
    let f = fused.metrics().get(Counter::Instructions);
    let p = plain.metrics().get(Counter::Instructions);
    assert!(
        f < p,
        "fused engine should dispatch fewer instructions (fused {f}, unfused {p})"
    );
}

// ---------------------------------------------------------------------
// structural property test: fusion never loses or moves code
// ---------------------------------------------------------------------

// Requires the in-tree deterministic `proptest` stand-in:
// `cargo test -p xsb-core --features proptest`.
#[cfg(feature = "proptest")]
mod props {
    use proptest::prelude::*;
    use xsb_core::cell::Cell;
    use xsb_core::instr::Instr;
    use xsb_core::program::Program;
    use xsb_syntax::{Sym, SymbolTable};

    /// Strategy over a mix of fusable and non-fusable instructions.
    fn any_instr() -> impl Strategy<Value = Instr> {
        prop_oneof![
            (0i64..9).prop_map(|v| Instr::GetConstant {
                c: Cell::int(v),
                a: 0
            }),
            (0u32..4, 1u16..3).prop_map(|(f, n)| Instr::GetStructure { f: Sym(f), n, a: 0 }),
            (0u16..4).prop_map(|a| Instr::GetList { a }),
            (0u16..4).prop_map(|x| Instr::UnifyVariableX { x }),
            (0u16..4).prop_map(|y| Instr::UnifyValueY { y }),
            (0i64..9).prop_map(|v| Instr::UnifyConstant { c: Cell::int(v) }),
            (1u16..3).prop_map(|n| Instr::UnifyVoid { n }),
            (0u16..4, 0u16..4).prop_map(|(x, a)| Instr::PutValueX { x, a }),
            (0u16..4, 0u16..4).prop_map(|(y, a)| Instr::PutValueY { y, a }),
            (0u16..3).prop_map(|nperms| Instr::Allocate { nperms }),
            Just(Instr::Deallocate),
            (0u32..4).prop_map(|pred| Instr::Call { pred }),
            Just(Instr::Proceed),
            (0u16..3).prop_map(|y| Instr::SaveGenerator { y }),
            Just(Instr::Fail),
        ]
    }

    /// Walks fused code verifying it expands back to exactly the original
    /// sequence, with every shadowed slot untouched.
    fn assert_fusion_preserves(orig: &[Instr], code: &[Instr], pool: &[Instr]) {
        let mut i = 0usize;
        while i < code.len() {
            let covered = match code[i] {
                Instr::UnifyRun { run, len } => {
                    let k = len as usize;
                    // the pool holds the full original run
                    assert_eq!(&pool[run as usize..run as usize + k], &orig[i..i + k]);
                    // shadowed tail slots are the untouched originals
                    assert_eq!(&code[i + 1..i + k], &orig[i + 1..i + k]);
                    k
                }
                Instr::GetStructureUnify { f, n, a, len } => {
                    let k = len as usize;
                    assert_eq!(orig[i], Instr::GetStructure { f, n, a });
                    // the unify tail executes live from the code area: it
                    // must be byte-for-byte the original instructions
                    assert_eq!(&code[i + 1..i + 1 + k], &orig[i + 1..i + 1 + k]);
                    for op in &code[i + 1..i + 1 + k] {
                        assert!(op.is_unify_op());
                    }
                    1 + k
                }
                Instr::GetListUnify { a, len } => {
                    let k = len as usize;
                    assert_eq!(orig[i], Instr::GetList { a });
                    assert_eq!(&code[i + 1..i + 1 + k], &orig[i + 1..i + 1 + k]);
                    for op in &code[i + 1..i + 1 + k] {
                        assert!(op.is_unify_op());
                    }
                    1 + k
                }
                other => {
                    let exp = other.expand(pool);
                    assert_eq!(&exp[..], &orig[i..i + exp.len()]);
                    if exp.len() > 1 {
                        assert_eq!(&code[i + 1..i + exp.len()], &orig[i + 1..i + exp.len()]);
                    }
                    exp.len()
                }
            };
            i += covered;
        }
        assert_eq!(i, code.len());
    }

    proptest! {
        #[test]
        fn fuse_range_is_structure_preserving(
            seq in proptest::collection::vec(any_instr(), 0..40)
        ) {
            let mut syms = SymbolTable::new();
            let mut db = Program::new(&mut syms);
            let start = db.code.here();
            for &op in &seq {
                db.code.emit(op);
            }
            let orig = db.code.code[start as usize..].to_vec();
            db.fuse_range(start);
            prop_assert_eq!(db.code.code.len() - start as usize, orig.len());
            let code = db.code.code[start as usize..].to_vec();
            assert_fusion_preserves(&orig, &code, &db.code.unify_runs);
        }
    }
}
