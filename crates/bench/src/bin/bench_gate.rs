//! Bench-regression gate for CI.
//!
//! ```text
//! cargo run -p xsb-bench --bin bench_gate -- BASELINE.json CURRENT.json [--tolerance PCT]
//! ```
//!
//! Compares a fresh `harness baseline --json` report against the committed
//! `BENCH_BASELINE.json` and fails (exit 1) if any tracked metric regressed
//! past its allowance. Every tracked metric carries a *tolerance
//! multiplier* on top of the base tolerance (`--tolerance`, default 20%):
//! deterministic counters are held tight (5% or less at the default), while
//! wall-clock timings and throughputs get headroom for scheduler noise.
//! The before/after table is printed whether or not the gate passes.
//!
//! Exit codes: 0 pass, 1 regression, 2 usage/IO/parse error.

use xsb_obs::Json;

/// One gate-tracked metric: where to find it in the report and how much it
/// is allowed to move in the bad direction.
struct Metric {
    name: &'static str,
    /// `true` when larger values are better (throughput, speedup);
    /// `false` when smaller values are better (seconds, error counts).
    higher_is_better: bool,
    /// Multiplier on the base tolerance. Deterministic counters use a
    /// small multiplier; noisy wall-clock measurements a large one.
    tol_mult: f64,
    extract: fn(&Json) -> Option<f64>,
}

/// The tracked set. Adding a metric here makes the gate guard it on every
/// CI run once it appears in `BENCH_BASELINE.json`.
const METRICS: &[Metric] = &[
    Metric {
        name: "serving.cold_secs",
        higher_is_better: false,
        tol_mult: 2.5,
        extract: |r| num_at(r, &["serving", "cold_secs"]),
    },
    Metric {
        name: "serving.warm_secs",
        higher_is_better: false,
        tol_mult: 2.5,
        extract: |r| num_at(r, &["serving", "warm_secs"]),
    },
    Metric {
        name: "serving.warm_hit_rate",
        higher_is_better: true,
        tol_mult: 0.25,
        extract: |r| {
            let hits = num_at(r, &["serving", "table_hits"])?;
            let misses = num_at(r, &["serving", "table_misses"])?;
            Some(hits / (hits + misses).max(1.0))
        },
    },
    Metric {
        // a ratio of two same-run timings, so machine speed divides out,
        // but phase-local scheduler noise does not — and the warm phase
        // is a small sample, so the ratio swings run to run. Wide
        // allowance; the deterministic dedup guarantee lives in
        // cold_dup_computes below.
        name: "concurrent.shared_speedup",
        higher_is_better: true,
        tol_mult: 2.5,
        extract: |r| num_at(r, &["concurrent", "shared_speedup"]),
    },
    Metric {
        name: "concurrent.warm_qps",
        higher_is_better: true,
        tol_mult: 2.5,
        extract: |r| {
            let rows = r.get("concurrent")?.get("rows")?;
            let Json::Arr(rows) = rows else { return None };
            as_f64(rows.last()?.get("warm_qps")?)
        },
    },
    Metric {
        // contended cold-phase throughput at the largest worker count:
        // the claim/wait dedup is what makes this scale with workers
        name: "concurrent.cold_qps",
        higher_is_better: true,
        tol_mult: 2.5,
        extract: |r| {
            let rows = r.get("concurrent")?.get("rows")?;
            let Json::Arr(rows) = rows else { return None };
            as_f64(rows.last()?.get("cold_qps")?)
        },
    },
    Metric {
        // deterministic: claim/wait holds duplicated cold computes at 0,
        // and a baseline of 0 makes ANY extra compute an infinite
        // regression — duplication cannot creep back unnoticed
        name: "concurrent.cold_dup_computes",
        higher_is_better: false,
        tol_mult: 0.05,
        extract: |r| {
            let rows = r.get("concurrent")?.get("rows")?;
            let Json::Arr(rows) = rows else { return None };
            as_f64(rows.last()?.get("cold_dup_computes")?)
        },
    },
    Metric {
        // warm-phase median serving latency at the largest worker count.
        // The histogram is log-bucketed, so at quick-run sample sizes the
        // reported percentile moves in ~2x steps — the allowance must
        // absorb one step of scheduler noise and still catch two.
        name: "concurrent.p50_ns",
        higher_is_better: false,
        tol_mult: 5.5,
        extract: |r| num_at(r, &["concurrent", "p50_ns"]),
    },
    Metric {
        // the tail is the noisiest tracked number, quantized like p50:
        // one 2x bucket step (+100%) passes, two steps (+300%) fail
        name: "concurrent.p99_ns",
        higher_is_better: false,
        tol_mult: 5.5,
        extract: |r| num_at(r, &["concurrent", "p99_ns"]),
    },
    // E16 emulator raw speed: instructions/sec counts unfused work units
    // retired per second on the fused (shipping) engine — higher is
    // better, and the per-workload wall time guards the same ground from
    // the other side. Best-of-reps timings still carry scheduler noise,
    // so both use the wide wall-clock multiplier.
    Metric {
        name: "emulator.e2_win_ips",
        higher_is_better: true,
        tol_mult: 2.5,
        extract: |r| emulator_field(r, "e2_win", "instructions_per_sec"),
    },
    Metric {
        name: "emulator.e6_path_ips",
        higher_is_better: true,
        tol_mult: 2.5,
        extract: |r| emulator_field(r, "e6_path", "instructions_per_sec"),
    },
    Metric {
        name: "emulator.e7_append_ips",
        higher_is_better: true,
        tol_mult: 2.5,
        extract: |r| emulator_field(r, "e7_append", "instructions_per_sec"),
    },
    Metric {
        name: "emulator.e2_win_query_ns",
        higher_is_better: false,
        tol_mult: 2.5,
        extract: |r| emulator_field(r, "e2_win", "query_time_ns"),
    },
    Metric {
        name: "emulator.e6_path_query_ns",
        higher_is_better: false,
        tol_mult: 2.5,
        extract: |r| emulator_field(r, "e6_path", "query_time_ns"),
    },
    Metric {
        name: "emulator.e7_append_query_ns",
        higher_is_better: false,
        tol_mult: 2.5,
        extract: |r| emulator_field(r, "e7_append", "query_time_ns"),
    },
    // E17 durability: commit throughput at the widest group-commit
    // window and recovery wall time for the largest log — both real
    // timings, so both use the wide wall-clock multiplier.
    Metric {
        name: "durability.commit_qps",
        higher_is_better: true,
        tol_mult: 2.5,
        extract: |r| num_at(r, &["durability", "commit_qps"]),
    },
    Metric {
        name: "durability.recovery_ms",
        higher_is_better: false,
        tol_mult: 2.5,
        extract: |r| num_at(r, &["durability", "recovery_ms"]),
    },
    Metric {
        // deterministic and zero-tolerance: a baseline of 0 makes any
        // torn fact after recovery an infinite regression
        name: "durability.recovery_torn_facts",
        higher_is_better: false,
        tol_mult: 0.0,
        extract: |r| num_at(r, &["durability", "recovery_torn_facts"]),
    },
    // E18 network serving: closed-loop throughput and client-observed
    // latency over loopback TCP. Real sockets and a real scheduler, so
    // the timings get the wide multipliers; the health counters are
    // deterministic and zero-tolerance.
    Metric {
        name: "serving_net.qps",
        higher_is_better: true,
        tol_mult: 2.5,
        extract: |r| num_at(r, &["serving_net", "qps"]),
    },
    Metric {
        name: "serving_net.p50_ns",
        higher_is_better: false,
        tol_mult: 5.5,
        extract: |r| num_at(r, &["serving_net", "p50_ns"]),
    },
    Metric {
        name: "serving_net.p99_ns",
        higher_is_better: false,
        tol_mult: 5.5,
        extract: |r| num_at(r, &["serving_net", "p99_ns"]),
    },
    Metric {
        // a baseline of 0 makes any framing error an infinite regression
        name: "serving_net.protocol_errors",
        higher_is_better: false,
        tol_mult: 0.0,
        extract: |r| num_at(r, &["serving_net", "protocol_errors"]),
    },
    Metric {
        // ditto for connections leaked past shutdown
        name: "serving_net.stuck_connections",
        higher_is_better: false,
        tol_mult: 0.0,
        extract: |r| num_at(r, &["serving_net", "stuck_connections"]),
    },
];

/// Looks up `field` in the emulator row whose `workload` matches.
fn emulator_field(r: &Json, workload: &str, field: &str) -> Option<f64> {
    let Json::Arr(rows) = r.get("emulator")? else {
        return None;
    };
    let row = rows
        .iter()
        .find(|row| row.get("workload") == Some(&Json::str(workload)))?;
    as_f64(row.get(field)?)
}

fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Num(f) => Some(*f),
        _ => None,
    }
}

fn num_at(r: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = r;
    for key in path {
        cur = cur.get(key)?;
    }
    as_f64(cur)
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Status {
    Pass,
    Fail,
    /// Tracked metric absent from the baseline (newly added — it starts
    /// being enforced once the baseline is regenerated).
    NewMetric,
    /// Present in the baseline but missing from the current report: the
    /// run lost coverage, which fails the gate.
    LostMetric,
}

#[derive(Debug)]
struct Row {
    name: &'static str,
    base: Option<f64>,
    cur: Option<f64>,
    /// Signed change in the *bad* direction as a fraction of baseline
    /// (positive = regressed).
    regression: f64,
    allowed: f64,
    status: Status,
}

/// Compares the two reports over the tracked set. `base_tol` is the base
/// fractional tolerance (0.20 = 20%).
fn compare(baseline: &Json, current: &Json, base_tol: f64) -> Vec<Row> {
    METRICS
        .iter()
        .map(|m| {
            let base = (m.extract)(baseline);
            let cur = (m.extract)(current);
            let allowed = base_tol * m.tol_mult;
            let (regression, status) = match (base, cur) {
                (None, _) => (0.0, Status::NewMetric),
                (Some(_), None) => (f64::INFINITY, Status::LostMetric),
                (Some(b), Some(c)) => {
                    let delta = if m.higher_is_better { b - c } else { c - b };
                    let reg = if b.abs() > 1e-12 {
                        delta / b.abs()
                    } else if delta > 1e-12 {
                        f64::INFINITY
                    } else {
                        0.0
                    };
                    let status = if reg > allowed {
                        Status::Fail
                    } else {
                        Status::Pass
                    };
                    (reg, status)
                }
            };
            Row {
                name: m.name,
                base,
                cur,
                regression,
                allowed,
                status,
            }
        })
        .collect()
}

fn gate_passes(rows: &[Row]) -> bool {
    rows.iter()
        .all(|r| matches!(r.status, Status::Pass | Status::NewMetric))
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "-".to_string(),
    }
}

fn print_table(rows: &[Row]) {
    println!(
        "{:<28} {:>14} {:>14} {:>10} {:>9}  status",
        "metric", "baseline", "current", "change", "allowed"
    );
    for r in rows {
        let change = if r.regression.is_finite() {
            // negative regression = the metric improved
            format!("{:+.1}%", -r.regression * 100.0)
        } else {
            "lost".to_string()
        };
        println!(
            "{:<28} {:>14} {:>14} {:>10} {:>8.0}%  {}",
            r.name,
            fmt_opt(r.base),
            fmt_opt(r.cur),
            change,
            r.allowed * 100.0,
            match r.status {
                Status::Pass => "ok",
                Status::Fail => "REGRESSED",
                Status::NewMetric => "new (unenforced)",
                Status::LostMetric => "MISSING",
            }
        );
    }
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 0.20;
    let mut files = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--tolerance" {
            let pct = argv.get(i + 1).and_then(|s| s.parse::<f64>().ok());
            match pct {
                Some(p) if p >= 0.0 => tolerance = p / 100.0,
                _ => {
                    eprintln!("bench_gate: --tolerance needs a non-negative percent");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            files.push(argv[i].clone());
            i += 1;
        }
    }
    if files.len() != 2 {
        eprintln!("usage: bench_gate BASELINE.json CURRENT.json [--tolerance PCT]");
        std::process::exit(2);
    }
    let baseline = read_json(&files[0]);
    let current = read_json(&files[1]);

    println!(
        "bench gate: {} vs {} (base tolerance {:.0}%)",
        files[0],
        files[1],
        tolerance * 100.0
    );
    let rows = compare(&baseline, &current, tolerance);
    print_table(&rows);
    if gate_passes(&rows) {
        println!("bench gate: PASS");
    } else {
        println!("bench gate: FAIL — at least one tracked metric regressed past tolerance");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal report with every tracked section populated.
    fn report(cold: f64, warm: f64, hits: i64, misses: i64, speedup: f64, qps: f64) -> Json {
        Json::obj([
            (
                "serving",
                Json::obj([
                    ("cold_secs", Json::Num(cold)),
                    ("warm_secs", Json::Num(warm)),
                    ("table_hits", Json::Int(hits)),
                    ("table_misses", Json::Int(misses)),
                ]),
            ),
            (
                "concurrent",
                Json::obj([
                    ("shared_speedup", Json::Num(speedup)),
                    ("p50_ns", Json::Int(200_000)),
                    ("p99_ns", Json::Int(900_000)),
                    (
                        "rows",
                        Json::Arr(vec![Json::obj([
                            ("warm_qps", Json::Num(qps)),
                            ("cold_qps", Json::Num(qps / 3.0)),
                            ("cold_dup_computes", Json::Int(0)),
                        ])]),
                    ),
                ]),
            ),
            (
                "emulator",
                Json::Arr(
                    ["e2_win", "e6_path", "e7_append"]
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("workload", Json::str(*w)),
                                ("instructions_per_sec", Json::Num(qps * 2.0)),
                                ("query_time_ns", Json::Int(400_000)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "durability",
                Json::obj([
                    ("commit_qps", Json::Num(qps)),
                    ("recovery_ms", Json::Num(5.0)),
                    ("recovery_torn_facts", Json::Int(0)),
                ]),
            ),
            (
                "serving_net",
                Json::obj([
                    ("qps", Json::Num(qps / 2.0)),
                    ("p50_ns", Json::Int(300_000)),
                    ("p99_ns", Json::Int(1_200_000)),
                    ("protocol_errors", Json::Int(0)),
                    ("stuck_connections", Json::Int(0)),
                ]),
            ),
        ])
    }

    /// Overrides the concurrent latency percentiles of a report.
    fn with_latency(mut r: Json, p50: i64, p99: i64) -> Json {
        if let Some(Json::Obj(fields)) = match &mut r {
            Json::Obj(top) => top
                .iter_mut()
                .find(|(k, _)| k == "concurrent")
                .map(|(_, v)| v),
            _ => None,
        } {
            for (k, v) in fields.iter_mut() {
                if k == "p50_ns" {
                    *v = Json::Int(p50);
                }
                if k == "p99_ns" {
                    *v = Json::Int(p99);
                }
            }
        }
        r
    }

    fn base() -> Json {
        report(0.10, 0.01, 90, 10, 4.0, 50_000.0)
    }

    #[test]
    fn identical_reports_pass() {
        let rows = compare(&base(), &base(), 0.20);
        assert!(gate_passes(&rows), "{rows:?}");
        assert!(rows.iter().all(|r| r.status == Status::Pass));
    }

    #[test]
    fn improvements_pass_even_when_large() {
        let cur = report(0.01, 0.001, 99, 1, 10.0, 500_000.0);
        let rows = compare(&base(), &cur, 0.20);
        assert!(gate_passes(&rows), "{rows:?}");
    }

    #[test]
    fn time_regression_past_allowance_fails() {
        // cold_secs allowance is 20% × 2.5 = 50%; a 2x slowdown fails
        let cur = report(0.20, 0.01, 90, 10, 4.0, 50_000.0);
        let rows = compare(&base(), &cur, 0.20);
        assert!(!gate_passes(&rows));
        let r = rows.iter().find(|r| r.name == "serving.cold_secs").unwrap();
        assert_eq!(r.status, Status::Fail);
    }

    #[test]
    fn time_noise_inside_allowance_passes() {
        // 30% slower is inside the 50% wall-clock allowance
        let cur = report(0.13, 0.012, 90, 10, 4.0, 50_000.0);
        let rows = compare(&base(), &cur, 0.20);
        assert!(gate_passes(&rows), "{rows:?}");
    }

    #[test]
    fn deterministic_counter_is_held_tight() {
        // hit rate 0.90 → 0.84 is a 6.7% drop: inside the 20% base
        // tolerance, but the counter ratio allows only 20% × 0.25 = 5%
        let cur = report(0.10, 0.01, 84, 16, 4.0, 50_000.0);
        let rows = compare(&base(), &cur, 0.20);
        let r = rows
            .iter()
            .find(|r| r.name == "serving.warm_hit_rate")
            .unwrap();
        assert_eq!(r.status, Status::Fail, "{rows:?}");
    }

    #[test]
    fn qps_regression_fails_and_direction_is_respected() {
        // warm_qps is higher-is-better with a 20% × 2.5 = 50% allowance:
        // dropping by 70% fails
        let cur = report(0.10, 0.01, 90, 10, 4.0, 15_000.0);
        let rows = compare(&base(), &cur, 0.20);
        let r = rows
            .iter()
            .find(|r| r.name == "concurrent.warm_qps")
            .unwrap();
        assert_eq!(r.status, Status::Fail);
    }

    #[test]
    fn tail_latency_regression_fails() {
        // p99_ns allowance is 20% × 5.5 = 110% (one log-histogram bucket
        // step passes): quadrupling the tail — two bucket steps — fails,
        // while the p50 stays inside its allowance
        let cur = with_latency(base(), 220_000, 3_700_000);
        let rows = compare(&base(), &cur, 0.20);
        assert!(!gate_passes(&rows));
        let p99 = rows.iter().find(|r| r.name == "concurrent.p99_ns").unwrap();
        assert_eq!(p99.status, Status::Fail);
        let p50 = rows.iter().find(|r| r.name == "concurrent.p50_ns").unwrap();
        assert_eq!(p50.status, Status::Pass);
    }

    #[test]
    fn latency_improvement_passes() {
        let cur = with_latency(base(), 50_000, 100_000);
        let rows = compare(&base(), &cur, 0.20);
        assert!(gate_passes(&rows), "{rows:?}");
    }

    #[test]
    fn any_duplicated_cold_compute_fails_from_a_zero_baseline() {
        // the baseline tracks cold_dup_computes at 0: a zero-baseline
        // regression is infinite, so even one duplicated compute fails
        let mut cur = base();
        if let Json::Obj(top) = &mut cur {
            if let Some((_, Json::Obj(conc))) = top.iter_mut().find(|(k, _)| k == "concurrent") {
                if let Some((_, Json::Arr(rows))) = conc.iter_mut().find(|(k, _)| k == "rows") {
                    if let Some(Json::Obj(row)) = rows.last_mut() {
                        for (k, v) in row.iter_mut() {
                            if k == "cold_dup_computes" {
                                *v = Json::Int(1);
                            }
                        }
                    }
                }
            }
        }
        let rows = compare(&base(), &cur, 0.20);
        assert!(!gate_passes(&rows));
        let r = rows
            .iter()
            .find(|r| r.name == "concurrent.cold_dup_computes")
            .unwrap();
        assert_eq!(r.status, Status::Fail);
        assert!(r.regression.is_infinite());
    }

    #[test]
    fn a_single_torn_fact_fails_from_a_zero_baseline() {
        let mut cur = base();
        if let Json::Obj(top) = &mut cur {
            if let Some((_, Json::Obj(dur))) = top.iter_mut().find(|(k, _)| k == "durability") {
                for (k, v) in dur.iter_mut() {
                    if k == "recovery_torn_facts" {
                        *v = Json::Int(1);
                    }
                }
            }
        }
        let rows = compare(&base(), &cur, 0.20);
        assert!(!gate_passes(&rows));
        let r = rows
            .iter()
            .find(|r| r.name == "durability.recovery_torn_facts")
            .unwrap();
        assert_eq!(r.status, Status::Fail);
        assert!(r.regression.is_infinite());
    }

    #[test]
    fn a_single_protocol_error_or_stuck_connection_fails_from_zero() {
        for field in ["protocol_errors", "stuck_connections"] {
            let mut cur = base();
            if let Json::Obj(top) = &mut cur {
                if let Some((_, Json::Obj(net))) = top.iter_mut().find(|(k, _)| k == "serving_net")
                {
                    for (k, v) in net.iter_mut() {
                        if k == field {
                            *v = Json::Int(1);
                        }
                    }
                }
            }
            let rows = compare(&base(), &cur, 0.20);
            assert!(!gate_passes(&rows), "{field}: {rows:?}");
            let r = rows
                .iter()
                .find(|r| r.name == format!("serving_net.{field}"))
                .unwrap();
            assert_eq!(r.status, Status::Fail, "{field}");
            assert!(r.regression.is_infinite(), "{field}");
        }
    }

    #[test]
    fn net_serving_latency_tracks_like_other_percentiles() {
        // one log-bucket step of noise passes; a 4x tail regression fails
        let mut cur = base();
        if let Json::Obj(top) = &mut cur {
            if let Some((_, Json::Obj(net))) = top.iter_mut().find(|(k, _)| k == "serving_net") {
                for (k, v) in net.iter_mut() {
                    if k == "p99_ns" {
                        *v = Json::Int(5_000_000);
                    }
                }
            }
        }
        let rows = compare(&base(), &cur, 0.20);
        let r = rows
            .iter()
            .find(|r| r.name == "serving_net.p99_ns")
            .unwrap();
        assert_eq!(r.status, Status::Fail, "{rows:?}");
    }

    #[test]
    fn metric_missing_from_current_fails_as_lost_coverage() {
        let mut cur = base();
        if let Json::Obj(fields) = &mut cur {
            fields.retain(|(k, _)| k != "concurrent");
        }
        let rows = compare(&base(), &cur, 0.20);
        assert!(!gate_passes(&rows));
        assert!(rows
            .iter()
            .any(|r| r.status == Status::LostMetric && r.name.starts_with("concurrent.")));
    }

    #[test]
    fn metric_missing_from_baseline_is_unenforced() {
        let mut old = base();
        if let Json::Obj(fields) = &mut old {
            fields.retain(|(k, _)| k != "concurrent");
        }
        let rows = compare(&old, &base(), 0.20);
        assert!(gate_passes(&rows), "{rows:?}");
        assert!(rows.iter().any(|r| r.status == Status::NewMetric));
    }

    #[test]
    fn tolerance_flag_scales_every_allowance() {
        // at 100% base tolerance the 2x cold slowdown passes (allowance 250%)
        let cur = report(0.20, 0.01, 90, 10, 4.0, 50_000.0);
        let rows = compare(&base(), &cur, 1.0);
        assert!(gate_passes(&rows), "{rows:?}");
    }
}
