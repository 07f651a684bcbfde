//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p xsb-bench --bin harness --release [experiment] [--quick] [--json PATH]
//! ```
//!
//! Experiments: `table2 fig2 fig5-cycle fig5-fanout table3 slg-vs-sld
//! append hilog dynamic-vs-static bulkload wfs ablation-seminaive all`
//! (default `all`). `trace` runs the reference workload
//! with span tracing and opcode profiling on; its `--json` artifact is a
//! Chrome trace-event object (load it at <https://ui.perfetto.dev>) with
//! the opcode profile attached under the extra `profile` key.

use xsb_bench::runners::*;
use xsb_bench::workloads::{cycle_edges, fanout_edges};
use xsb_core::Engine;
use xsb_obs::Json;
use xsb_wfs::{Truth, Wfs};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let json_path = argv.iter().position(|a| a == "--json").map(|i| {
        argv.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--json requires a path argument");
            std::process::exit(2);
        })
    });
    let arg = argv
        .iter()
        .filter(|a| !a.starts_with("--"))
        .find(|a| Some(a.as_str()) != json_path.as_deref())
        .cloned()
        .unwrap_or_else(|| "all".into());
    if json_path.is_some() && arg != "trace" {
        eprintln!("--json is only written by the trace experiment");
        std::process::exit(2);
    }

    match arg.as_str() {
        "table2" => table2(quick),
        "fig2" => fig2(),
        "fig5-cycle" => fig5(true, quick),
        "fig5-fanout" => fig5(false, quick),
        "table3" => table3(quick),
        "slg-vs-sld" => slg_vs_sld(quick),
        "append" => append(quick),
        "hilog" => hilog(quick),
        "dynamic-vs-static" => dynamic_vs_static(quick),
        "bulkload" => bulkload(quick),
        "trace" => {
            let trace = trace_experiment();
            if let Some(path) = json_path {
                if let Err(e) = std::fs::write(&path, format!("{trace}\n")) {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
                println!("\nwrote JSON report to {path}");
            }
        }
        "wfs" => wfs(),
        "ablation-seminaive" => ablation_seminaive(quick),
        "all" => {
            table2(quick);
            fig2();
            fig5(true, quick);
            fig5(false, quick);
            table3(quick);
            slg_vs_sld(quick);
            append(quick);
            hilog(quick);
            dynamic_vs_static(quick);
            bulkload(quick);
            ablation_seminaive(quick);
            wfs();
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }
}

/// The instrumented reference workload: win/1 on a height-4 binary tree
/// and path/2 on a 64-node cycle.
fn reference_src() -> String {
    let mut src = String::from(":- table win/1.\nwin(X) :- move(X,Y), tnot win(Y).\n");
    for n in 1i64..=15 {
        src.push_str(&format!("move({n},{}). move({n},{}).\n", 2 * n, 2 * n + 1));
    }
    src.push_str(":- table path/2.\npath(X,Y) :- path(X,Z), edge(Z,Y).\npath(X,Y) :- edge(X,Y).\n");
    for i in 1i64..=64 {
        src.push_str(&format!("edge({i},{}).\n", if i == 64 { 1 } else { i + 1 }));
    }
    src
}

/// The `trace` experiment: the reference workload with span tracing and
/// profiling on. Returns a Chrome trace-event object — `traceEvents` as
/// Perfetto expects, with the opcode profile under the (legal) extra
/// top-level key `profile`.
fn trace_experiment() -> Json {
    header("trace — span-traced reference workload (open the JSON in Perfetto)");
    let mut e = Engine::new();
    e.consult(&reference_src())
        .expect("reference workload consults");
    e.set_tracing(true);
    e.set_profiling(true);
    e.holds("win(1)").expect("win/1 evaluates");
    e.count("path(1, X)").expect("path/2 evaluates");
    let mut trace = e.chrome_trace_json();
    if let Json::Obj(fields) = &mut trace {
        fields.push(("profile".to_string(), e.profile_json()));
    }
    let spans = trace
        .get("spanCount")
        .map(|j| format!("{j}"))
        .unwrap_or_default();
    println!("recorded {spans} spans over 2 queries (pass --json PATH to export)");
    trace
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

fn table2(quick: bool) {
    header("E1 / Table 2 — win/1 on complete binary trees (times ÷ E-Neg time)");
    println!("paper:   height      6     7     8     9    10    11");
    println!("paper:   SLG       4.5  4.25   7.6   8.2  15.4  15.7");
    println!("paper:   SLDNF      .3   .24   .22   .24   .24   .23");
    println!("paper:   E-Neg       1     1     1     1     1     1");
    let heights: &[u32] = if quick {
        &[6, 7, 8]
    } else {
        &[6, 7, 8, 9, 10, 11]
    };
    let reps = if quick { 2 } else { 3 };
    let rows = run_table2(heights, reps);
    print!("{:18}", "measured: height");
    for r in &rows {
        print!("{:>8}", r.height);
    }
    println!();
    print!("{:18}", "measured: SLG");
    for r in &rows {
        print!("{:>8.2}", r.slg_ratio);
    }
    println!();
    print!("{:18}", "measured: SLDNF");
    for r in &rows {
        print!("{:>8.2}", r.sldnf_ratio);
    }
    println!();
    print!("{:18}", "measured: E-Neg");
    for _ in &rows {
        print!("{:>8.2}", 1.0);
    }
    println!();
    print!("{:18}", "E-Neg secs");
    for r in &rows {
        print!("{:>8.4}", r.eneg_secs);
    }
    println!();
}

fn fig2() {
    header("E2 / Figure 2 — subgoals evaluated for win(1) over binary trees");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "height", "SLDNF calls", "G(n)", "E-Neg subg", "SLG subg", "2^(h+1)-1"
    );
    for r in run_fig2(&[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]) {
        println!(
            "{:>7} {:>12} {:>12.1} {:>12} {:>10} {:>10}",
            r.height, r.sldnf_calls, r.g_formula, r.eneg_subgoals, r.slg_subgoals, r.all_nodes
        );
    }
    println!("(paper: height 4 evaluates 13 of 31 subgoals under SLDNF; SLG all 31)");
}

fn fig5(cycle: bool, quick: bool) {
    type Shape = fn(i64) -> Vec<(i64, i64)>;
    let (name, shape): (&str, Shape) = if cycle {
        ("E3 / Figure 5 left — path/2 over cycles", cycle_edges)
    } else {
        ("E4 / Figure 5 right — path/2 over fanout", fanout_edges)
    };
    header(name);
    let sizes: &[i64] = if quick {
        &[8, 64, 256]
    } else {
        &[8, 32, 128, 512, 1024, 2048]
    };
    let reps = if quick { 2 } else { 3 };
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>10} {:>10}",
        "n", "xsb (s)", "coral-def (s)", "coral-fac (s)", "def/xsb", "fac/xsb"
    );
    for r in run_fig5(sizes, shape, reps) {
        println!(
            "{:>6} {:>12.6} {:>14.6} {:>14.6} {:>10.1} {:>10.1}",
            r.n,
            r.xsb_secs,
            r.coral_def_secs,
            r.coral_fac_secs,
            r.coral_def_secs / r.xsb_secs,
            r.coral_fac_secs / r.xsb_secs
        );
    }
    println!("(paper: XSB about an order of magnitude faster than CORAL)");
}

fn table3(quick: bool) {
    header("E5 / Table 3 — approximate relative indexed-join speeds");
    println!("paper:  Quintus 1 | XSB 3 | LDL 8 | CORAL 24 | Sybase 100");
    let n = if quick { 2_000 } else { 10_000 };
    let reps = if quick { 2 } else { 3 };
    println!("join of |R| = |S| = {n}:");
    for r in run_table3(n, reps) {
        println!(
            "{:32} {:>12.6}s  relative {:>8.1}",
            r.system, r.secs, r.relative
        );
    }
}

fn slg_vs_sld(quick: bool) {
    header("E6 / §5 — tabled left-recursion vs SLD right-recursion (chains & trees)");
    println!("paper: SLG left recursion takes ~20-25% longer than SLD right recursion");
    let chains: &[i64] = if quick {
        &[256, 1024]
    } else {
        &[128, 512, 2048, 4096]
    };
    let trees: &[u32] = if quick { &[8] } else { &[8, 10, 12] };
    let reps = if quick { 2 } else { 3 };
    println!(
        "{:>12} {:>12} {:>12} {:>8}",
        "workload", "SLD (s)", "SLG (s)", "ratio"
    );
    for r in run_slg_vs_sld(chains, trees, reps) {
        println!(
            "{:>12} {:>12.6} {:>12.6} {:>8.2}",
            r.workload, r.sld_secs, r.slg_secs, r.ratio
        );
    }
}

fn append(quick: bool) {
    header("E7 / §5 — append/3: SLD linear, SLG quadratic (no ground-copy optimization)");
    let lens: &[i64] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let reps = if quick { 2 } else { 3 };
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "len", "SLD (s)", "SLG (s)", "slg/sld"
    );
    for r in run_append(lens, reps) {
        println!(
            "{:>6} {:>12.6} {:>12.6} {:>10.1}",
            r.len,
            r.sld_secs,
            r.slg_secs,
            r.slg_secs / r.sld_secs
        );
    }
}

fn hilog(quick: bool) {
    header("E8 / §3.2, §4.7 — HiLog overhead on chain traversal");
    println!("paper: compiled HiLog executes only marginally slower than first-order");
    let sizes: &[i64] = if quick { &[256] } else { &[256, 1024, 4096] };
    let reps = if quick { 2 } else { 3 };
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "n", "first-order", "specialized", "generic", "spec/fo", "gen/fo"
    );
    for r in run_hilog(sizes, reps) {
        println!(
            "{:>6} {:>14.6} {:>14.6} {:>14.6} {:>10.2} {:>10.2}",
            r.n,
            r.first_order_secs,
            r.specialized_secs,
            r.generic_secs,
            r.specialized_secs / r.first_order_secs,
            r.generic_secs / r.first_order_secs
        );
    }
}

fn dynamic_vs_static(quick: bool) {
    header("E9 / §4.2 — dynamic (asserted) facts vs compiled facts");
    println!("paper: dynamic facts execute at essentially the same speed as compiled");
    let n = if quick { 5_000 } else { 20_000 };
    let reps = if quick { 2 } else { 3 };
    let r = run_dynamic_vs_static(n, reps);
    println!(
        "n = {}: static {:.6}s   dynamic {:.6}s   dynamic/static = {:.2}",
        r.n, r.static_secs, r.dynamic_secs, r.ratio
    );
}

fn bulkload(quick: bool) {
    header("E10 / §4.6 — bulk load: general reader vs formatted read vs object file");
    println!("paper: object file load ≈ 12x faster than formatted read + assert");
    let n = if quick { 10_000 } else { 100_000 };
    let reps = if quick { 1 } else { 2 };
    let r = run_bulkload(n, reps);
    println!(
        "n = {}: general {:.4}s   formatted {:.4}s   object {:.4}s",
        r.n, r.general_secs, r.formatted_secs, r.object_secs
    );
    println!(
        "ratios: general/formatted = {:.1}   formatted/object = {:.1}",
        r.general_secs / r.formatted_secs,
        r.formatted_secs / r.object_secs
    );
}

fn ablation_seminaive(quick: bool) {
    header("Ablation — naive vs semi-naive bottom-up fixpoint (chain closure)");
    let sizes: &[i64] = if quick { &[32, 64] } else { &[32, 64, 128] };
    let reps = if quick { 2 } else { 3 };
    println!(
        "{:>6} {:>12} {:>14} {:>8} {:>14} {:>14}",
        "n", "naive (s)", "seminaive (s)", "speedup", "naive tuples", "semi tuples"
    );
    for r in run_seminaive_ablation(sizes, reps) {
        println!(
            "{:>6} {:>12.6} {:>14.6} {:>8.1} {:>14} {:>14}",
            r.n,
            r.naive_secs,
            r.seminaive_secs,
            r.naive_secs / r.seminaive_secs,
            r.naive_tuples,
            r.seminaive_tuples
        );
    }
}

fn wfs() {
    header("E12 — well-founded semantics on the non-stratified win/1 game");
    let mut w = Wfs::new(
        "win(X) :- move(X,Y), tnot win(Y).\n\
         move(1,2). move(2,1).\n\
         move(3,4). move(4,5).\n\
         move(6,7). move(7,6). move(7,8).",
    )
    .unwrap();
    for node in 1..=8 {
        let atom = format!("win({node})");
        let t = w.truth(&atom).unwrap();
        println!(
            "{atom:>8}: {}",
            match t {
                Truth::True => "true",
                Truth::False => "false",
                Truth::Undefined => "undefined (drawn position)",
            }
        );
    }
    let (t, u) = w.model_size();
    println!("model: {t} true atoms, {u} undefined atoms");
}
