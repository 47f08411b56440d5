//! The `run` subcommand.
//!
//! With `--workload W --trace 0|1` it runs one pass of one workload in
//! this process and ends its standard output with the result line the
//! driver reads. Otherwise it is the whole benchmark: every workload
//! (or the one named), each pass in a child process of its own so
//! memory and allocator state do not leak between them, the untraced
//! pass first and the traced pass second; the results go to
//! `benchmark/out/run-seed<S>.json` (`…-smoke.json` under `--smoke`)
//! for `compare`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::harness::{cores, Opts, Outcome};
use crate::{spec, workloads, OUT_DIR};

pub const USAGE: &str = "\
usage: vpm-benchmark run [--workload W] [--seed S] [--trace 0|1] [--smoke] [--runs R]
       vpm-benchmark compare A.json B.json

run      without --workload: all five workloads; without --trace: the untraced
         pass (end-to-end metrics) and then the traced pass (per-layer metrics),
         each in its own child process. --runs R repeats the untraced pass R
         times, for `compare`. --smoke does ~1/20 of the work with every oracle
         on. The work is fixed: `--seconds N`, which the driver of BENCHMARK.json
         appends, is accepted and changes nothing.
compare  applies the bounds of BENCHMARK.json to two result files of `run`.";

struct Args {
    workload: Option<String>,
    seed: u64,
    smoke: bool,
    /// `--trace 0|1`: that pass only; without it, both.
    trace: Option<bool>,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        smoke: false,
        trace: None,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                value("a number")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--runs" => {
                parsed.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| (1..=100).contains(r))
                    .ok_or("--runs takes a count from 1 to 100")?;
            }
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                parsed.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !spec::spec().workloads.iter().any(|known| known.name == *w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(parsed)
}

pub fn run(args: &[String]) -> ExitCode {
    let args = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vpm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.trace) {
        (Some(w), Some(trace)) => run_one(
            w,
            &Opts {
                seed: args.seed,
                trace,
                smoke: args.smoke,
            },
        ),
        _ => run_all(&args),
    }
}

/// The metrics the result line of a pass holds.
fn reported(traced: bool) -> &'static [spec::Metric] {
    let s = spec::spec();
    if traced {
        &s.per_layer
    } else {
        &s.end_to_end
    }
}

/// One pass of one workload, in this process.
fn run_one(workload: &str, opts: &Opts) -> ExitCode {
    let out = workloads::run(workload, opts).expect("parse() checked the workload's name");
    print_outcome(workload, opts, &out);
    let mut missing = Vec::new();
    let metrics: Vec<String> = reported(opts.trace)
        .iter()
        .map(|m| {
            let value = out.metrics.get(&m.name).map_or_else(
                || {
                    missing.push(m.name.as_str());
                    0.0
                },
                |v| v.value,
            );
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    let correct = out.failed == 0 && missing.is_empty();
    for name in &missing {
        println!("FAILED: the run did not measure {name}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite float with all its digits, or 0 for what JSON cannot hold.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn print_outcome(workload: &str, opts: &Opts, out: &Outcome) {
    let spec = spec::spec();
    if let Some(w) = spec.workloads.iter().find(|w| w.name == workload) {
        println!("== {workload}: {}", w.why);
    }
    println!(
        "== {workload}  seed {}  {}  {}",
        opts.seed,
        if opts.trace {
            "traced pass"
        } else {
            "untraced pass"
        },
        if opts.smoke {
            "smoke: ~1/20 of the work".to_string()
        } else {
            format!(
                "fixed work, about {} s timed on the reference box",
                spec.run_seconds
            )
        },
    );
    for note in &out.notes {
        println!("   {note}");
    }
    println!(
        "   {:<46} {:>18} {:<8} {:>6} {:>16} {:>16}",
        "metric", "value", "unit", "n", "min", "max"
    );
    for (name, m) in &out.metrics {
        let reported = reported(opts.trace).iter().any(|m| m.name == *name);
        println!(
            "   {:<46} {:>18.4} {:<8} {:>6} {:>16.4} {:>16.4}{}",
            name,
            m.value,
            spec::unit_of(name).unwrap_or(""),
            m.n,
            m.min,
            m.max,
            if reported { "" } else { "  (informational)" },
        );
    }
    println!(
        "   operations attempted {}, failed {}",
        out.attempted.max(1),
        out.failed
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
}

/// The metrics object of a result line: name → value.
struct MetricMap(BTreeMap<String, (f64, String)>);

impl Deserialize for MetricMap {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::expected("object", "metrics", v))?;
        let mut map = BTreeMap::new();
        for (name, m) in entries {
            let fields = m
                .as_map()
                .ok_or_else(|| DeError::expected("object", "a metric", m))?;
            let get = |key: &str| {
                serde::value_get(fields, key).ok_or_else(|| DeError::missing_field(key, "a metric"))
            };
            map.insert(
                name.clone(),
                (
                    f64::from_value(get("value")?)?,
                    String::from_value(get("unit")?)?,
                ),
            );
        }
        Ok(MetricMap(map))
    }
}

/// The result line a single-pass run ends its output with.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: MetricMap,
}

/// One metric of one pass, as kept in a result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricRecord {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One pass of one workload, as kept in a result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassRecord {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<MetricRecord>,
}

/// What `run` writes and `compare` reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunFile {
    pub seed: u64,
    pub smoke: bool,
    pub cores: u64,
    pub cpu: String,
    pub rustc: String,
    pub passes: Vec<PassRecord>,
}

fn first_line_of(cmd: &str, arg: &str) -> String {
    Command::new(cmd)
        .arg(arg)
        .stderr(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one pass in a child process; echo what it prints; parse its
/// last line.
fn child_pass(workload: &str, args: &Args, traced: bool) -> Result<PassRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    let line: ResultLine = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: the pass ended without a result line ({e}): {last}"))?;
    Ok(PassRecord {
        workload: workload.to_string(),
        traced,
        correct: line.correct && output.status.success(),
        attempted: line.attempted,
        failed: line.failed,
        metrics: line
            .metrics
            .0
            .into_iter()
            .map(|(name, (value, unit))| MetricRecord { name, value, unit })
            .collect(),
    })
}

/// The whole benchmark: every requested workload and pass, one child
/// process each.
fn run_all(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec::spec()
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect(),
    };
    let mut file = RunFile {
        seed: args.seed,
        smoke: args.smoke,
        cores: cores() as u64,
        cpu: cpu_model(),
        rustc: first_line_of("rustc", "-V"),
        passes: Vec::new(),
    };
    println!(
        "vpm-benchmark: seed {}, {} cores, {}, {}",
        file.seed, file.cores, file.cpu, file.rustc
    );
    let mut ok = true;
    for name in names {
        let mut plan = Vec::new();
        if args.trace != Some(true) {
            plan.extend(std::iter::repeat_n(false, args.runs));
        }
        if args.trace != Some(false) {
            plan.push(true);
        }
        for traced in plan {
            match child_pass(name, args, traced) {
                Ok(pass) => {
                    ok &= pass.correct;
                    file.passes.push(pass);
                }
                Err(e) => {
                    eprintln!("vpm-benchmark: {e}");
                    ok = false;
                }
            }
        }
    }
    summarize(&file);
    let path = format!(
        "{OUT_DIR}/run-seed{}{}.json",
        file.seed,
        if file.smoke { "-smoke" } else { "" }
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string(&file).expect("a result file serializes") + "\n",
        )
    });
    match written {
        Ok(()) => println!("results written to {path}"),
        Err(e) => {
            eprintln!("vpm-benchmark: cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end rows and the layer budget, one table each.
fn summarize(file: &RunFile) {
    println!("\n== end to end (untraced pass; last run of each workload)");
    println!(
        "   {:<14} {:<26} {:>18} {:<6}",
        "workload", "metric", "value", "unit"
    );
    for w in &spec::spec().workloads {
        let Some(pass) = file
            .passes
            .iter()
            .rev()
            .find(|p| !p.traced && p.workload == w.name)
        else {
            continue;
        };
        for m in &pass.metrics {
            println!(
                "   {:<14} {:<26} {:>18.4} {:<6}",
                pass.workload, m.name, m.value, m.unit
            );
        }
    }
    println!(
        "\n== layer budget (traced pass): share of busy time per layer, and what tracing cost"
    );
    print!("   {:<14}", "workload");
    let layers: Vec<&str> = spec::spec()
        .per_layer
        .iter()
        .filter_map(|m| m.name.strip_suffix(".time_share"))
        .collect();
    for l in &layers {
        print!(" {:>15}", l);
    }
    println!(" {:>15}", "trace_overhead");
    for pass in file.passes.iter().filter(|p| p.traced) {
        print!("   {:<14}", pass.workload);
        let get = |name: &str| {
            pass.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        for l in &layers {
            print!(" {:>14.1}%", 100.0 * get(&format!("{l}.time_share")));
        }
        println!(" {:>14.1}%", 100.0 * get("bench.trace_overhead_ratio"));
    }
    let failed: u64 = file.passes.iter().map(|p| p.failed).sum();
    let attempted: u64 = file.passes.iter().map(|p| p.attempted).sum();
    println!("\noperations attempted {attempted}, failed {failed}");
}
