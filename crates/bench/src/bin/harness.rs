//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p xsb-bench --bin harness --release [experiment] [--quick] [--json PATH]
//! ```
//!
//! Experiments: `table2 fig2 fig5-cycle fig5-fanout table3 slg-vs-sld
//! append hilog dynamic-vs-static bulkload serving concurrent
//! emulator durability serving_net wfs all` (default `all`). `baseline`
//! runs just the gate-tracked subset (`serving concurrent
//! emulator durability serving_net`) — it is
//! what `scripts/ci.sh` compares against `BENCH_BASELINE.json`, with the
//! noisy experiments (`concurrent`, `serving_net`) taken best-of-3 and
//! the rep count recorded as `noisy_reps` in the JSON. `trace` runs the reference workload
//! with span tracing and opcode profiling on; its `--json` artifact is a
//! Chrome trace-event object (load it at <https://ui.perfetto.dev>) with
//! the opcode profile attached under the extra `profile` key.
//!
//! `--json PATH` additionally writes a machine-readable report: per-
//! experiment wall-clock seconds, an engine-counter snapshot from an
//! instrumented reference workload (win/1 height 4 + path/2 over a
//! cycle), and — when the `serving` or `concurrent` experiments ran —
//! their warm-vs-cold timings, table counters, and pool throughput.

use std::time::Instant;
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

    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut serving_report: Option<ServingReport> = None;
    let mut emulator_rows: Option<Vec<EmulatorRow>> = None;
    let mut concurrent_report: Option<ConcurrentReport> = None;
    let mut durability_report: Option<DurabilityReport> = None;
    let mut net_report: Option<NetServingReport> = None;
    let mut noisy_reps: Option<usize> = None;
    let mut trace_json: Option<Json> = None;
    let mut run = |name: &str, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        timings.push((name.to_string(), t0.elapsed().as_secs_f64()));
    };

    match arg.as_str() {
        "table2" => run("table2", &mut || table2(quick)),
        "fig2" => run("fig2", &mut fig2),
        "fig5-cycle" => run("fig5-cycle", &mut || fig5(true, quick)),
        "fig5-fanout" => run("fig5-fanout", &mut || fig5(false, quick)),
        "table3" => run("table3", &mut || table3(quick)),
        "slg-vs-sld" => run("slg-vs-sld", &mut || slg_vs_sld(quick)),
        "append" => run("append", &mut || append(quick)),
        "hilog" => run("hilog", &mut || hilog(quick)),
        "dynamic-vs-static" => run("dynamic-vs-static", &mut || dynamic_vs_static(quick)),
        "bulkload" => run("bulkload", &mut || bulkload(quick)),
        "serving" => run("serving", &mut || serving_report = Some(serving(quick))),
        "concurrent" => run("concurrent", &mut || {
            concurrent_report = Some(concurrent(quick))
        }),
        "emulator" => run("emulator", &mut || emulator_rows = Some(emulator(quick))),
        "durability" => run("durability", &mut || {
            durability_report = Some(durability(quick))
        }),
        "serving_net" => run("serving_net", &mut || net_report = Some(serving_net(quick))),
        "baseline" => {
            // the gate-tracked subset — ci.sh compares this run's JSON
            // against the committed BENCH_BASELINE.json. The two noisy
            // experiments (concurrent's shared_speedup is a ratio of two
            // small timed phases; the net serving closed loop runs over
            // real sockets) are taken best-of-N so one descheduled run
            // cannot flake the gate; deterministic counters are
            // unaffected by the repetition.
            const NOISY_REPS: usize = 3;
            noisy_reps = Some(NOISY_REPS);
            run("serving", &mut || serving_report = Some(serving(quick)));
            run("concurrent", &mut || {
                concurrent_report = (0..NOISY_REPS)
                    .map(|_| concurrent(quick))
                    .max_by(|a, b| a.shared_speedup.total_cmp(&b.shared_speedup))
            });
            run("emulator", &mut || emulator_rows = Some(emulator(quick)));
            run("durability", &mut || {
                durability_report = Some(durability(quick))
            });
            run("serving_net", &mut || {
                net_report = (0..NOISY_REPS)
                    .map(|_| serving_net(quick))
                    .max_by(|a, b| a.qps.total_cmp(&b.qps))
            });
        }
        "trace" => run("trace", &mut || trace_json = Some(trace_experiment())),
        "wfs" => run("wfs", &mut wfs),
        "ablation-seminaive" => run("ablation-seminaive", &mut || ablation_seminaive(quick)),
        "all" => {
            run("table2", &mut || table2(quick));
            run("fig2", &mut fig2);
            run("fig5-cycle", &mut || fig5(true, quick));
            run("fig5-fanout", &mut || fig5(false, quick));
            run("table3", &mut || table3(quick));
            run("slg-vs-sld", &mut || slg_vs_sld(quick));
            run("append", &mut || append(quick));
            run("hilog", &mut || hilog(quick));
            run("dynamic-vs-static", &mut || dynamic_vs_static(quick));
            run("bulkload", &mut || bulkload(quick));
            run("serving", &mut || serving_report = Some(serving(quick)));
            run("concurrent", &mut || {
                concurrent_report = Some(concurrent(quick))
            });
            run("emulator", &mut || emulator_rows = Some(emulator(quick)));
            run("durability", &mut || {
                durability_report = Some(durability(quick))
            });
            run("serving_net", &mut || net_report = Some(serving_net(quick)));
            run("ablation-seminaive", &mut || ablation_seminaive(quick));
            run("wfs", &mut wfs);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            std::process::exit(2);
        }
    }

    if let Some(path) = json_path {
        // the trace experiment's artifact IS the Chrome trace object
        let report = trace_json.unwrap_or_else(|| {
            json_report(
                &arg,
                quick,
                noisy_reps,
                &timings,
                serving_report.as_ref(),
                concurrent_report.as_ref(),
                emulator_rows.as_deref(),
                durability_report.as_ref(),
                net_report.as_ref(),
            )
        });
        if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote JSON report to {path}");
    }
}

/// Builds the `--json` payload: per-experiment wall times plus an engine
/// metrics snapshot from a small instrumented reference workload.
#[allow(clippy::too_many_arguments)] // one optional section per experiment
fn json_report(
    experiment: &str,
    quick: bool,
    noisy_reps: Option<usize>,
    timings: &[(String, f64)],
    serving: Option<&ServingReport>,
    concurrent: Option<&ConcurrentReport>,
    emulator: Option<&[EmulatorRow]>,
    durability: Option<&DurabilityReport>,
    net: Option<&NetServingReport>,
) -> Json {
    let experiments = Json::Arr(
        timings
            .iter()
            .map(|(name, secs)| {
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("wall_secs", Json::Num(*secs)),
                ])
            })
            .collect(),
    );
    let (counters, profile) = reference_snapshot();
    let mut fields = vec![
        ("schema", Json::Int(1)),
        ("experiment", Json::str(experiment)),
        ("quick", Json::Bool(quick)),
        ("experiments", experiments),
        ("engine_counters", counters),
        ("opcode_profile", profile),
    ];
    if let Some(reps) = noisy_reps {
        // how many runs the noisy experiments were taken best-of
        fields.insert(3, ("noisy_reps", Json::Int(reps as i64)));
    }
    if let Some(s) = serving {
        fields.push((
            "serving",
            Json::obj([
                ("n", Json::Int(s.n)),
                ("warm_queries", Json::Int(s.warm_queries as i64)),
                ("cold_secs", Json::Num(s.cold_secs)),
                ("warm_secs", Json::Num(s.warm_secs)),
                ("warm_speedup", Json::Num(s.warm_speedup)),
                (
                    "invalidate_requery_secs",
                    Json::Num(s.invalidate_requery_secs),
                ),
                ("table_hits", Json::Int(s.table_hits as i64)),
                ("table_misses", Json::Int(s.table_misses as i64)),
                ("table_invalidations", Json::Int(s.invalidations as i64)),
                ("table_evictions", Json::Int(s.evictions as i64)),
            ]),
        ));
    }
    if let Some(c) = concurrent {
        fields.push((
            "concurrent",
            Json::obj([
                ("n", Json::Int(c.n)),
                ("subgoals", Json::Int(c.subgoals as i64)),
                ("warm_reps", Json::Int(c.warm_reps as i64)),
                ("churn_rounds", Json::Int(c.churn_rounds as i64)),
                ("shared_speedup", Json::Num(c.shared_speedup)),
                ("warm_scaling", Json::Num(c.warm_scaling)),
                ("p50_ns", Json::Int(c.p50_ns as i64)),
                ("p99_ns", Json::Int(c.p99_ns as i64)),
                (
                    "rows",
                    Json::Arr(
                        c.rows
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("workers", Json::Int(r.workers as i64)),
                                    ("cold_qps", Json::Num(r.cold_qps)),
                                    ("cold_dup_computes", Json::Int(r.cold_dup_computes as i64)),
                                    ("claim_waits", Json::Int(r.claim_waits as i64)),
                                    ("warm_qps", Json::Num(r.warm_qps)),
                                    ("churn_qps", Json::Num(r.churn_qps)),
                                    ("shared_hits", Json::Int(r.shared_hits as i64)),
                                    ("shared_publishes", Json::Int(r.shared_publishes as i64)),
                                    (
                                        "shared_invalidations",
                                        Json::Int(r.shared_invalidations as i64),
                                    ),
                                    ("cold_p50_ns", Json::Int(r.cold_p50_ns as i64)),
                                    ("cold_p99_ns", Json::Int(r.cold_p99_ns as i64)),
                                    ("warm_p50_ns", Json::Int(r.warm_p50_ns as i64)),
                                    ("warm_p99_ns", Json::Int(r.warm_p99_ns as i64)),
                                    ("churn_p50_ns", Json::Int(r.churn_p50_ns as i64)),
                                    ("churn_p99_ns", Json::Int(r.churn_p99_ns as i64)),
                                    ("queue_p50_ns", Json::Int(r.queue_p50_ns as i64)),
                                    ("queue_p99_ns", Json::Int(r.queue_p99_ns as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if let Some(rows) = emulator {
        fields.push((
            "emulator",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("workload", Json::str(r.workload)),
                            ("work_instructions", Json::Int(r.work_instructions as i64)),
                            ("fused_instructions", Json::Int(r.fused_instructions as i64)),
                            ("query_time_ns", Json::Int(r.query_time_ns as i64)),
                            (
                                "unfused_query_time_ns",
                                Json::Int(r.unfused_query_time_ns as i64),
                            ),
                            ("instructions_per_sec", Json::Num(r.instructions_per_sec)),
                            (
                                "unfused_instructions_per_sec",
                                Json::Num(r.unfused_instructions_per_sec),
                            ),
                            ("speedup", Json::Num(r.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if let Some(d) = durability {
        fields.push((
            "durability",
            Json::obj([
                ("commit_qps", Json::Num(d.commit_qps)),
                ("recovery_ms", Json::Num(d.recovery_ms)),
                (
                    "recovery_torn_facts",
                    Json::Int(d.recovery_torn_facts as i64),
                ),
                (
                    "checkpoint_bytes_before",
                    Json::Int(d.checkpoint_bytes_before as i64),
                ),
                (
                    "checkpoint_bytes_after",
                    Json::Int(d.checkpoint_bytes_after as i64),
                ),
                (
                    "windows",
                    Json::Arr(
                        d.windows
                            .iter()
                            .map(|w| {
                                Json::obj([
                                    ("window_us", Json::Int(w.window_us as i64)),
                                    ("commits", Json::Int(w.commits as i64)),
                                    ("commit_qps", Json::Num(w.commit_qps)),
                                    ("fsyncs", Json::Int(w.fsyncs as i64)),
                                    ("commit_p50_ns", Json::Int(w.commit_p50_ns as i64)),
                                    ("commit_p99_ns", Json::Int(w.commit_p99_ns as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "recovery",
                    Json::Arr(
                        d.recovery
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("facts", Json::Int(r.facts as i64)),
                                    ("log_bytes", Json::Int(r.log_bytes as i64)),
                                    ("recovery_ms", Json::Num(r.recovery_ms)),
                                    ("replayed", Json::Int(r.replayed as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if let Some(s) = net {
        fields.push((
            "serving_net",
            Json::obj([
                ("n", Json::Int(s.n)),
                ("qps", Json::Num(s.qps)),
                ("p50_ns", Json::Int(s.p50_ns as i64)),
                ("p99_ns", Json::Int(s.p99_ns as i64)),
                ("rejection_rate", Json::Num(s.rejection_rate)),
                ("stuck_connections", Json::Int(s.stuck_connections as i64)),
                ("protocol_errors", Json::Int(s.protocol_errors as i64)),
                (
                    "rows",
                    Json::Arr(
                        s.rows
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("connections", Json::Int(r.connections as i64)),
                                    ("depth", Json::Int(r.depth as i64)),
                                    ("requests", Json::Int(r.requests as i64)),
                                    ("qps", Json::Num(r.qps)),
                                    ("p50_ns", Json::Int(r.p50_ns as i64)),
                                    ("p99_ns", Json::Int(r.p99_ns as i64)),
                                    ("busy", Json::Int(r.busy as i64)),
                                    ("errors", Json::Int(r.errors as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    Json::obj(fields)
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

/// Snapshots every counter from a default-config run of the reference
/// workload (profiling off, so `query_time_ns` reflects the shipping hot
/// path), then the opcode profile from a second, profiled run.
fn reference_snapshot() -> (Json, Json) {
    let mut e = Engine::new();
    e.consult(&reference_src())
        .expect("reference workload consults");
    e.holds("win(1)").expect("win/1 evaluates");
    e.count("path(1, X)").expect("path/2 evaluates");
    let counters = e.metrics_json();
    e.reset_metrics();
    e.abolish_all_tables();
    e.set_profiling(true);
    e.holds("win(1)").expect("win/1 re-evaluates");
    e.count("path(1, X)").expect("path/2 re-evaluates");
    (counters, e.profile_json())
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

fn serving(quick: bool) -> ServingReport {
    header("E13 — repeat-query serving: persistent tables across queries");
    println!("warm repeats answer from the completed table; an assert invalidates");
    println!("exactly the dependent tables; a small budget bounds the table space");
    let n = if quick { 128 } else { 512 };
    let warm_queries = if quick { 10 } else { 50 };
    let r = run_serving(n, warm_queries);
    println!(
        "n = {}: cold {:.6}s   warm {:.6}s (avg of {})   speedup {:.1}x",
        r.n, r.cold_secs, r.warm_secs, r.warm_queries, r.warm_speedup
    );
    println!(
        "assert + re-query {:.6}s (recomputes instead of serving stale answers)",
        r.invalidate_requery_secs
    );
    println!(
        "counters: hits {}  misses {}  invalidations {}  evictions {}",
        r.table_hits, r.table_misses, r.invalidations, r.evictions
    );
    r
}

fn concurrent(quick: bool) -> ConcurrentReport {
    header("E15 — concurrent serving: shared-table engine pool");
    println!("contended cold: every worker races every first call — claim/wait dedups");
    println!("to one compute per subgoal; warm hits then serve on every worker, and");
    println!("consult_all churn invalidates the tables everywhere through the epoch bump");
    let n = if quick { 96 } else { 256 };
    let subgoals = if quick { 6 } else { 12 };
    let warm_reps = if quick { 3 } else { 5 };
    let churn_rounds = if quick { 2 } else { 4 };
    let r = run_concurrent(n, &[1, 2, 4], subgoals, warm_reps, churn_rounds);
    println!(
        "{:>8} {:>12} {:>8} {:>12} {:>12} {:>8} {:>10} {:>8} {:>10} {:>10} {:>10}",
        "workers",
        "cold qps",
        "dup",
        "warm qps",
        "churn qps",
        "hits",
        "publishes",
        "invals",
        "p50 (µs)",
        "p99 (µs)",
        "queue p99"
    );
    for row in &r.rows {
        println!(
            "{:>8} {:>12.0} {:>8} {:>12.0} {:>12.0} {:>8} {:>10} {:>8} {:>10.0} {:>10.0} {:>10.0}",
            row.workers,
            row.cold_qps,
            row.cold_dup_computes,
            row.warm_qps,
            row.churn_qps,
            row.shared_hits,
            row.shared_publishes,
            row.shared_invalidations,
            row.warm_p50_ns as f64 / 1e3,
            row.warm_p99_ns as f64 / 1e3,
            row.queue_p99_ns as f64 / 1e3
        );
    }
    println!(
        "shared speedup (warm vs cold at {} workers): {:.1}x   warm scaling (vs 1 worker): {:.2}x",
        r.rows.last().map_or(0, |row| row.workers),
        r.shared_speedup,
        r.warm_scaling
    );
    println!("(warm scaling reflects host core count; shared speedup does not)");
    r
}

fn emulator(quick: bool) -> Vec<EmulatorRow> {
    header("E16 — emulator raw speed: fused superinstructions vs plain dispatch");
    println!("instructions/sec counts *unfused* work units retired per second, so");
    println!("the fused column credits superinstructions for retiring several at once");
    let rows = run_emulator(quick);
    println!(
        "{:>10} {:>14} {:>12} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "workload",
        "work instrs",
        "fused disp",
        "before (ns)",
        "after (ns)",
        "before ips",
        "after ips",
        "speedup"
    );
    for r in &rows {
        println!(
            "{:>10} {:>14} {:>12} {:>14} {:>14} {:>14.0} {:>14.0} {:>8.2}",
            r.workload,
            r.work_instructions,
            r.fused_instructions,
            r.unfused_query_time_ns,
            r.query_time_ns,
            r.unfused_instructions_per_sec,
            r.instructions_per_sec,
            r.speedup
        );
    }
    rows
}

fn durability(quick: bool) -> DurabilityReport {
    header("E17 — durable EDB: group commit, crash recovery, checkpoint");
    println!("commit throughput is measured against a real file (true fsync cost);");
    println!("recovery replays the WAL through full ARIES analysis/redo/undo");
    let r = run_durability(quick);
    println!(
        "{:>10} {:>10} {:>12} {:>8} {:>12} {:>12}",
        "window µs", "commits", "commit qps", "fsyncs", "p50 (µs)", "p99 (µs)"
    );
    for w in &r.windows {
        println!(
            "{:>10} {:>10} {:>12.0} {:>8} {:>12.1} {:>12.1}",
            w.window_us,
            w.commits,
            w.commit_qps,
            w.fsyncs,
            w.commit_p50_ns as f64 / 1e3,
            w.commit_p99_ns as f64 / 1e3
        );
    }
    println!(
        "{:>10} {:>12} {:>14} {:>10}",
        "facts", "log bytes", "recovery (ms)", "replayed"
    );
    for row in &r.recovery {
        println!(
            "{:>10} {:>12} {:>14.2} {:>10}",
            row.facts, row.log_bytes, row.recovery_ms, row.replayed
        );
    }
    println!(
        "checkpoint truncation: {} -> {} bytes   torn facts after recovery: {}",
        r.checkpoint_bytes_before, r.checkpoint_bytes_after, r.recovery_torn_facts
    );
    r
}

fn serving_net(quick: bool) -> NetServingReport {
    header("E18 — network serving: closed-loop load over the TCP front-end");
    println!("clients pipeline count queries over loopback TCP (port 0, kernel-");
    println!("assigned); an overload burst against a tiny admission queue must be");
    println!("shed with typed Busy — and zero stuck connections or protocol errors");
    let r = run_serving_net(quick);
    println!(
        "{:>6} {:>7} {:>10} {:>12} {:>12} {:>12} {:>6} {:>7}",
        "conns", "depth", "requests", "qps", "p50 (µs)", "p99 (µs)", "busy", "errors"
    );
    for row in &r.rows {
        println!(
            "{:>6} {:>7} {:>10} {:>12.0} {:>12.1} {:>12.1} {:>6} {:>7}",
            row.connections,
            row.depth,
            row.requests,
            row.qps,
            row.p50_ns as f64 / 1e3,
            row.p99_ns as f64 / 1e3,
            row.busy,
            row.errors
        );
    }
    println!(
        "overload rejection rate {:.0}%   stuck connections {}   protocol errors {}",
        r.rejection_rate * 100.0,
        r.stuck_connections,
        r.protocol_errors
    );
    r
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
