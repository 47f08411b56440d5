//! `vpm-benchmark compare A.json B.json`: do two sets of runs agree?
//!
//! For every (end-to-end metric, workload) the bound of
//! `BENCHMARK.json` is applied to the medians of the untraced passes
//! in each file; the exact counts among the per-layer metrics get a
//! row too. One row each: both medians, the ratio `B / A` with
//! `A` as its base, and a mark —
//!
//! * `worse`: B's median is worse than A's by more than the bound —
//!   or, for an exact count ([`EXACT`]), by anything at all: the two
//!   files hold the same seed, so a count that moved was moved by the
//!   code;
//! * `unresolved`: it is not, but the spread of either set is wider
//!   than the bound, and it is not the case that every run of B reads
//!   better than every run of A;
//! * `ok`: otherwise.
//!
//! The spread of a set is the distance between its quartiles as a
//! share of its median (Python's `statistics.quantiles(v, n=4)`), or
//! with fewer than four runs the distance between its extremes. The
//! exit code is 1 when any row is `worse`, and 2 when the two files
//! were not made with the same seed and size and so do not compare.

use std::process::ExitCode;

use crate::cli::RunFile;
use crate::spec::spec;
use crate::stats::{iqr_share, median};

/// Metrics that are counts of the inputs and the code, not times: equal seeds give equal values, bit for bit. Their bound in
/// `BENCHMARK.json` covers what another seed's inputs change; here the
/// seeds are equal and the bound is 0.
const EXACT: [&str; 2] = ["wire_bytes_per_op", "wire.transport.retained_entries_peak"];

fn load_runs(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a result file of `run`: {e}"))
}

fn values(file: &RunFile, workload: &str, metric: &str) -> Vec<f64> {
    // A metric's name says which pass holds it: end-to-end names are in
    // the untraced passes only, per-layer names in the traced one.
    file.passes
        .iter()
        .filter(|p| p.workload == workload)
        .filter_map(|p| p.metrics.iter().find(|m| m.name == metric))
        .map(|m| m.value)
        .collect()
}

fn spread(v: &[f64]) -> f64 {
    if v.len() >= 4 {
        return iqr_share(v).unwrap_or(0.0);
    }
    let m = median(v);
    let (lo, hi) = v
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    if v.is_empty() || m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

/// The mark of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    Ok,
    Worse,
    Unresolved,
}

/// Judge set `b` against base set `a` under `bound`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Mark {
    let (ma, mb) = (median(a), median(b));
    // How much worse B's median is than A's, as a share of A's.
    let worse_by =
        if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        return Mark::Worse;
    }
    let all_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if higher_is_better { y > x } else { y < x })
    });
    if (spread(a) > bound || spread(b) > bound) && !all_better {
        return Mark::Unresolved;
    }
    Mark::Ok
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("{}", crate::cli::USAGE);
        return ExitCode::from(2);
    };
    let loaded = load_runs(a_path).and_then(|a| {
        let b = load_runs(b_path)?;
        if (a.seed, a.smoke) != (b.seed, b.smoke) {
            return Err(format!(
                "the files do not compare: A is seed {}{}, B is seed {}{}",
                a.seed,
                if a.smoke { " --smoke" } else { "" },
                b.seed,
                if b.smoke { " --smoke" } else { "" },
            ));
        }
        Ok((a, b))
    });
    let (a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("vpm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "base A = {a_path} ({} cores, {}), B = {b_path} ({} cores, {})",
        a.cores, a.cpu, b.cores, b.cpu
    );
    if (a.cores, &a.cpu) != (b.cores, &b.cpu) {
        println!(
            "warning: A and B ran on different machines; the timing rows compare the machines too"
        );
    }
    println!(
        "{:<14} {:<38} {:>16} {:>16} {:>9} {:>7} {:>9} {:>9}  mark",
        "workload", "metric", "A median", "B median", "B/A", "bound", "A spread", "B spread"
    );
    let mut any_worse = false;
    for workload in spec().workloads.iter().map(|w| w.name.as_str()) {
        let exact = |m: &&crate::spec::Metric| EXACT.contains(&m.name.as_str());
        let rows = spec()
            .end_to_end
            .iter()
            .chain(spec().per_layer.iter().filter(exact));
        for m in rows {
            let (va, vb) = (values(&a, workload, &m.name), values(&b, workload, &m.name));
            // Not measured, or a layer the workload bypasses.
            if va.is_empty() || vb.is_empty() || va.iter().chain(&vb).all(|&v| v == 0.0) {
                continue;
            }
            let bound = if exact(&m) { 0.0 } else { m.bound };
            let mark = judge(&va, &vb, m.better == "higher", bound);
            any_worse |= mark == Mark::Worse;
            println!(
                "{:<14} {:<38} {:>16.4} {:>16.4} {:>9.4} {:>6.0}% {:>8.1}% {:>8.1}%  {}",
                workload,
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                match mark {
                    Mark::Ok => "ok",
                    Mark::Worse => "worse",
                    Mark::Unresolved => "unresolved",
                },
            );
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_follow_the_bound_the_direction_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput down 20% against a 10% bound.
        assert_eq!(
            judge(&base, &[80.0, 81.0, 79.0, 80.0, 80.5], true, 0.10),
            Mark::Worse
        );
        // The same numbers as a latency: lower is better, so it is fine.
        assert_eq!(
            judge(&base, &[80.0, 81.0, 79.0, 80.0, 80.5], false, 0.10),
            Mark::Ok
        );
        // Within the bound, tight sets.
        assert_eq!(
            judge(&base, &[95.0, 96.0, 95.5, 94.5, 95.2], true, 0.10),
            Mark::Ok
        );
        // Within the bound, but B's spread is wider than the bound.
        assert_eq!(
            judge(&base, &[70.0, 130.0, 99.0, 85.0, 115.0], true, 0.10),
            Mark::Unresolved
        );
        // A wide set whose every run beats every run of the base is resolved.
        assert_eq!(
            judge(&base, &[150.0, 250.0, 200.0, 170.0, 230.0], true, 0.10),
            Mark::Ok
        );
        // Exact counts have a bound of 0: equal is ok, any rise is worse.
        assert_eq!(judge(&[7.0, 7.0], &[7.0, 7.0], false, 0.0), Mark::Ok);
        assert_eq!(judge(&[7.0, 7.0], &[7.001, 7.001], false, 0.0), Mark::Worse);
    }
}
