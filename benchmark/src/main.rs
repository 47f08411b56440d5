//! `vpm-benchmark`: the repo's one pipeline benchmark. See README.md.

#![forbid(unsafe_code)]

mod cli;
mod compare;
mod gen;
mod harness;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cli::run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!("{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}

/// Where the traced pass writes its spans.
const OUT_DIR: &str = "benchmark/out";

/// Most spans written to a trace file; the folded totals cover all.
const TRACE_FILE_SPANS: usize = 200_000;

/// Write a workload's spans to `benchmark/out/trace-<workload>.json`
/// (relative to the working directory, which is the repo root when the
/// benchmark is run as `BENCHMARK.json` says).
pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    use std::io::Write;
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            f,
            "{{\"workload\": \"{workload}\", \"spans_recorded\": {}, \"spans\": [",
            spans.len()
        )?;
        for (i, s) in spans.iter().take(TRACE_FILE_SPANS).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                f,
                "{sep}{{\"id\": {}, \"parent\": {}, \"thread\": {}, \"phase\": {}, \"layer\": \"{}\", \
                 \"kind\": \"{:?}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"items\": {}, \"bytes\": {}}}",
                s.id, s.parent, s.thread, s.phase, s.layer.name(), s.kind, s.name, s.start_ns, s.end_ns,
                s.items, s.bytes
            )?;
        }
        writeln!(f, "\n]}}")?;
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("vpm-benchmark: could not write {path}: {e}");
    }
}
