//! Micro-benches — one group per paper table/figure (small sizes; the
//! `harness` binary runs the full parameter sweeps).
//!
//! Dependency-free: a tiny best-of-N timing loop instead of criterion, so
//! `cargo bench` works in the offline sandbox. Each case runs a warmup
//! pass, then reports the best and median wall time over N timed passes.

use std::time::Instant;
use xsb_bench::runners::native_join;
use xsb_bench::workloads::*;
use xsb_datalog::Strategy;

const PASSES: usize = 7;

fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    f(); // warmup
    let mut times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{group:<24} {name:<24} best {:>9.3} ms   median {:>9.3} ms",
        times[0],
        times[PASSES / 2]
    );
}

/// E1 / Table 2 — win/1 negation strategies (height 7).
fn table2_win() {
    let moves = binary_tree_moves(7);
    for neg in ["tnot", "e_tnot", "\\+"] {
        let label = if neg == "\\+" { "sldnf" } else { neg };
        let mut e = win_engine(neg, &moves);
        bench("table2_win_h7", label, || {
            e.abolish_all_tables();
            assert!(e.holds("win(1)").unwrap());
        });
    }
}

/// E3/E4 / Figure 5 — path over a cycle and a fanout of 256.
fn fig5() {
    for (group, edges) in [
        ("fig5_cycle_256", cycle_edges(256)),
        ("fig5_fanout_256", fanout_edges(256)),
    ] {
        let mut e = engine_with_edges(PATH_LEFT_TABLED, &edges);
        bench(group, "xsb_slg", || {
            e.abolish_all_tables();
            assert_eq!(e.count("path(1, X)").unwrap(), 256);
        });
        let mut d = datalog_with_edges(PATH_DATALOG, &edges);
        bench(group, "coral_def_magic", || {
            assert_eq!(d.query("path(1, Y)", Strategy::Magic).unwrap().len(), 256);
        });
        let mut d2 = datalog_with_edges(PATH_DATALOG, &edges);
        bench(group, "coral_fac_factored", || {
            assert_eq!(
                d2.query("path(1, Y)", Strategy::MagicFactored)
                    .unwrap()
                    .len(),
                256
            );
        });
    }
}

/// E5 / Table 3 — the five join implementations at |R|=|S|=2000.
fn table3_join() {
    use std::sync::Arc;
    use xsb_bench::rdbms::{client_server_join, BufferPool, Disk, Field, Table};
    let (r, s) = join_relations(2000, 1000);
    let expected = native_join(&r, &s);
    let group = "table3_join_2000";

    bench(group, "native_quintus_role", || {
        assert_eq!(native_join(&r, &s), expected)
    });

    let mut e = xsb_core::Engine::new();
    e.declare_dynamic("r", 2).unwrap();
    e.declare_dynamic("s", 2).unwrap();
    let rs = e.syms.intern("r");
    let ss = e.syms.intern("s");
    for &(x, y) in &r {
        e.assert_term(&xsb_syntax::Term::Compound(
            rs,
            vec![xsb_syntax::Term::Int(x), xsb_syntax::Term::Int(y)],
        ))
        .unwrap();
    }
    for &(x, y) in &s {
        e.assert_term(&xsb_syntax::Term::Compound(
            ss,
            vec![xsb_syntax::Term::Int(x), xsb_syntax::Term::Int(y)],
        ))
        .unwrap();
    }
    bench(group, "xsb_slgwam", || {
        assert_eq!(e.count("r(X, Y), s(Y, Z)").unwrap(), expected)
    });

    let load_datalog = || {
        let mut d = xsb_datalog::Datalog::new("j(X,Z) :- r(X,Y), s(Y,Z).").unwrap();
        for &(x, y) in &r {
            d.add_fact(
                "r",
                &[
                    xsb_datalog::ast::Value::Int(x),
                    xsb_datalog::ast::Value::Int(y),
                ],
            );
        }
        for &(x, y) in &s {
            d.add_fact(
                "s",
                &[
                    xsb_datalog::ast::Value::Int(x),
                    xsb_datalog::ast::Value::Int(y),
                ],
            );
        }
        d
    };
    let mut d = load_datalog();
    bench(group, "ldl_role_seminaive", || {
        assert_eq!(
            d.query("j(X, Z)", Strategy::SemiNaive).unwrap().len(),
            expected
        )
    });
    let mut d = load_datalog();
    bench(group, "coral_role_magic", || {
        assert_eq!(d.query("j(X, Z)", Strategy::Magic).unwrap().len(), expected)
    });

    let pool = Arc::new(BufferPool::new(Arc::new(Disk::default()), 4096));
    let rt = Table::load(
        pool.clone(),
        r.iter().map(|&(a, y)| vec![Field::Int(a), Field::Int(y)]),
        1,
        1024,
    );
    let st = Table::load(
        pool.clone(),
        s.iter().map(|&(a, y)| vec![Field::Int(a), Field::Int(y)]),
        0,
        1024,
    );
    bench(group, "sybase_role_pagestore", || {
        assert_eq!(client_server_join(&rt, 1, &st, 0), expected)
    });
}

/// E6 — tabled left recursion vs SLD right recursion on a chain of 1024.
fn slg_vs_sld() {
    let edges = chain_edges(1024);
    let group = "slg_vs_sld_chain_1024";
    let mut e = engine_with_edges(PATH_RIGHT_SLD, &edges);
    bench(group, "sld_right_recursive", || {
        assert_eq!(e.count("path(1, X)").unwrap(), 1023)
    });
    let mut e = engine_with_edges(PATH_LEFT_TABLED, &edges);
    bench(group, "slg_left_recursive", || {
        e.abolish_all_tables();
        assert_eq!(e.count("path(1, X)").unwrap(), 1023);
    });
}

/// E7 — append/3: SLD linear vs tabled quadratic.
fn append_bench() {
    let app = ":- table app/3.\napp([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).";
    for n in [64i64, 256] {
        let listsrc = format!(
            "mylist([{}]).",
            (1..=n).map(|i| i.to_string()).collect::<Vec<_>>().join(",")
        );
        let mut e = xsb_core::Engine::new();
        e.consult(app).unwrap();
        e.consult(&listsrc).unwrap();
        bench("append", &format!("sld/{n}"), || {
            assert!(e.holds("mylist(L), append(L, [0], R)").unwrap())
        });
        let mut e2 = xsb_core::Engine::new();
        e2.consult(app).unwrap();
        e2.consult(&listsrc).unwrap();
        bench("append", &format!("slg_tabled/{n}"), || {
            e2.abolish_all_tables();
            assert!(e2.holds("mylist(L), app(L, [0], R)").unwrap());
        });
    }
}

/// E8 — HiLog overhead (chain of 512).
fn hilog_overhead() {
    let edges = chain_edges(512);
    let group = "hilog_chain_512";
    let mut e = engine_with_edges(PATH_RIGHT_SLD, &edges);
    bench(group, "first_order", || {
        assert_eq!(e.count("path(1, X)").unwrap(), 511)
    });
    for (label, specialize) in [("hilog_specialized", true), ("hilog_generic", false)] {
        let mut e = xsb_core::Engine::new();
        e.hilog_specialization = specialize;
        let mut src = String::from(
            ":- first_string_index(apply/3).\n:- hilog g.\n\
             hpath(G)(X, Y) :- G(X, Y).\n\
             hpath(G)(X, Y) :- G(X, Z), hpath(G)(Z, Y).\n",
        );
        for &(x, y) in &edges {
            src.push_str(&format!("g({x},{y}).\n"));
        }
        e.consult(&src).unwrap();
        bench(group, label, || {
            assert_eq!(e.count("hpath(g)(1, X)").unwrap(), 511)
        });
    }
}

/// E9 — dynamic vs static fact access (indexed point lookups).
fn dynamic_vs_static() {
    let n = 5000i64;
    let group = "dynamic_vs_static_5000";
    let q = format!("between(0, {}, I), ds(I, V), fail", 1999);
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("ds({i}, {}).\n", i * 2));
    }
    let mut e = xsb_core::Engine::new();
    e.consult(&src).unwrap();
    bench(group, "static_compiled", || {
        assert_eq!(e.count(&q).unwrap(), 0)
    });
    let mut e = xsb_core::Engine::new();
    e.declare_dynamic("ds", 2).unwrap();
    let ds = e.syms.intern("ds");
    for i in 0..n {
        e.assert_term(&xsb_syntax::Term::Compound(
            ds,
            vec![xsb_syntax::Term::Int(i), xsb_syntax::Term::Int(i * 2)],
        ))
        .unwrap();
    }
    bench(group, "dynamic_asserted", || {
        assert_eq!(e.count(&q).unwrap(), 0)
    });
}

/// E10 — the three bulk-load paths (n = 5000).
fn bulk_load() {
    use xsb_bench::bulkload::*;
    let n = 5000usize;
    let group = "bulk_load_5000";
    bench(group, "general_reader", || {
        let mut e = xsb_core::Engine::new();
        assert_eq!(load_general(&mut e, "emp", n).unwrap(), n);
    });
    let data = generate_delimited(n);
    bench(group, "formatted_read", || {
        let mut e = xsb_core::Engine::new();
        assert_eq!(load_formatted(&mut e, "emp", &data).unwrap(), n);
    });
    let mut builder = xsb_core::Engine::new();
    load_formatted(&mut builder, "emp", &data).unwrap();
    let obj = builder.save_object("emp", 3).unwrap();
    bench(group, "object_file", || {
        let mut e = xsb_core::Engine::new();
        assert_eq!(load_object(&mut e, &obj).unwrap(), n);
    });
}

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let groups: [(&str, fn()); 8] = [
        ("table2", table2_win),
        ("fig5", fig5),
        ("table3", table3_join),
        ("slg_vs_sld", slg_vs_sld),
        ("append", append_bench),
        ("hilog", hilog_overhead),
        ("dynamic_vs_static", dynamic_vs_static),
        ("bulk_load", bulk_load),
    ];
    for (name, f) in groups {
        if filter.is_empty() || name.contains(&filter) {
            f();
        }
    }
}
