//! `xsbench` — the end-to-end serving benchmark.
//!
//! ```text
//! xsbench --workload W --seed N --seconds S --trace 0|1
//! xsbench --workload all [--seed N] [--seconds S]   one child process per workload
//! xsbench --check                                   all five at 1/100 size
//! ```
//!
//! Each workload runs in a fresh process: it starts an in-process
//! `xsb_server::Server`, drives it as one closed-loop client over
//! loopback TCP, checks every reply against the generator's model, and
//! prints each metric by name with its unit; the last line of standard
//! output is one JSON object. See README.md beside this file.

mod gen;
mod run;
mod stats;
mod trace;

use run::Report;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use xsb_obs::Json;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

const USAGE: &str =
    "usage: xsbench --workload <warm_point|answer_stream|cold_closure|join_sld|update_churn|all> \
     [--seed N] [--seconds S] [--trace 0|1]\n       xsbench --check";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where a run keeps its log file and writes its trace: inside the
/// checkout it was started from, under the build directory.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("xsbench")
}

fn metrics_json(r: &Report) -> Json {
    Json::Obj(
        r.metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

fn result_json(r: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Int(r.attempted as i64)),
        ("failed", Json::Int(r.failed as i64)),
        ("metrics", metrics_json(r)),
    ])
}

fn write_trace_files(r: &Report, dir: &std::path::Path) -> std::io::Result<()> {
    let Some(tracer) = &r.tracer else {
        return Ok(());
    };
    let rows = trace::layers(&tracer.spans);
    let layers = Json::obj([
        ("workload", Json::str(r.workload)),
        ("seed", Json::Int(r.seed as i64)),
        ("layers", trace::layers_json(&rows)),
        ("metrics", metrics_json(r)),
    ]);
    let layers_path = dir.join(format!("{}.layers.json", r.workload));
    let trace_path = dir.join(format!("{}.trace.json", r.workload));
    std::fs::write(&layers_path, layers.to_string())?;
    std::fs::write(
        &trace_path,
        trace::chrome_trace_json(&tracer.spans, 2000).to_string(),
    )?;
    println!(
        "wrote {} and {}",
        layers_path.display(),
        trace_path.display()
    );
    Ok(())
}

fn print_report(r: &Report) {
    for note in &r.notes {
        println!("{note}");
    }
    for m in &r.metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for v in &r.violations {
        println!("VIOLATION: {v}");
    }
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let spec = gen::spec(name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
    let dir = out_dir();
    let report = run::run(&spec, args.seed, args.seconds, args.trace, &dir)?;
    print_report(&report);
    write_trace_files(&report, &dir).map_err(|e| format!("write trace: {e}"))?;
    println!("{}", result_json(&report));
    Ok(report.correct())
}

/// All five workloads, each in a child process of its own, then one table.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Vec::new();
    let mut correct = true;
    for name in gen::WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let json = Json::parse(last).map_err(|e| format!("{name}: no result line: {e}"))?;
        correct &= out.status.success() && json.get("correct") == Some(&Json::Bool(true));
        lines.push((name, json));
    }
    for (name, json) in &lines {
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            continue;
        };
        for (metric, v) in metrics {
            let value = match v.get("value") {
                Some(Json::Num(x)) => *x,
                Some(Json::Int(i)) => *i as f64,
                _ => f64::NAN,
            };
            let unit = match v.get("unit") {
                Some(Json::Str(u)) => u.as_str(),
                _ => "",
            };
            println!("{name:<14} {metric:<28} {value:>16.4} {unit}");
        }
        let field = |k| json.get(k).map_or(String::new(), |v| v.to_string());
        println!(
            "{name:<14} fail_rate: {} failed of {} attempted, correct {}",
            field("failed"),
            field("attempted"),
            field("correct")
        );
    }
    Ok(correct)
}

/// Smoke mode for CI: every workload, both modes, at 1/100 size, in this
/// process. Checks correctness only; the numbers mean nothing.
fn check_all(args: &Args) -> Result<bool, String> {
    let dir = out_dir().join("check");
    let mut correct = true;
    for name in gen::WORKLOADS {
        let spec = gen::spec(name).expect("listed workload").smoke();
        for trace in [false, true] {
            let report = run::run(&spec, args.seed, 0.0, trace, &dir)?;
            let ok = report.correct();
            println!(
                "check {name:<14} trace {} : {} requests, {} failed, {}",
                trace as u8,
                report.attempted,
                report.failed,
                if ok { "ok" } else { "WRONG" }
            );
            for v in &report.violations {
                println!("  VIOLATION: {v}");
            }
            correct &= ok;
        }
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload.as_deref() {
        _ if args.check => check_all(&args),
        Some("all") => run_all(&args),
        Some(name) => run_one(name, &args),
        None => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xsbench: {e}");
            ExitCode::from(2)
        }
    }
}
