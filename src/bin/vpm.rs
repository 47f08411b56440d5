//! `vpm` — unified command-line entry point for the reproduction.
//!
//! `vpm --help` (or `-h`) prints `USAGE` below, the one list of the
//! commands and their arguments, to stdout and exits 0.
//!
//! An unknown command or flag, an unparsable or zero value, or a
//! positional argument past the last one `USAGE` shows exits 2 with
//! usage.

// Determinism for non-test code: no wall-clock reads or hash-order
// iteration (`clippy.toml` lists the disallowed methods).
#![cfg_attr(
    not(test),
    warn(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

use std::process::ExitCode;
use vpm::packet::SimDuration;
use vpm::sim::scenario_matrix::{
    evaluate_grid, full_grid, parse_filter, render_matrix_table, MatrixFilter, CANONICAL_BASE_SEED,
};
use vpm::sim::{baselines, figures};

const USAGE: &str = "usage: vpm <command> [args]\n\
         commands:\n\
           matrix [--filter axis=value] [--json] [--jobs N]\n\
                                                evaluate the scenario matrix and print\n\
                                                the verdict table (exit 1 on failing\n\
                                                cells); axes: delay, loss, reorder,\n\
                                                rate, clock, deploy, adversary\n\
           fleet [--paths N] [--jobs J] [--liars K] [--shards S] [--json]\n\
                 [--transport tcp:ADDR]\n\
                                                run N independent paths through one\n\
                                                sharded bus (concurrent publishers)\n\
                                                and verify each path from its frames,\n\
                                                J paths at a time; exit 1 on any\n\
                                                false accusation or missed liar;\n\
                                                --transport tcp:HOST:PORT publishes\n\
                                                and verifies through a `vpm serve`\n\
                                                endpoint instead of in-process\n\
           serve [--listen ADDR] [--shards S]   serve a sharded receipt bus over\n\
                                                length-prefixed TCP (default\n\
                                                127.0.0.1:0 picks a free port,\n\
                                                printed on startup); MAC/key-epoch\n\
                                                checks run server-side\n\
           audit [--paths N] [--intervals N] [--shards S] [--gc-every N]\n\
                 [--checkpoint-every N] [--restart-at K] [--seed S]\n\
                 [--assert-flat] [--json]\n\
                                                follow a churning fleet for N reporting\n\
                                                intervals with a streaming verifier:\n\
                                                epoch GC below the audit cursor,\n\
                                                periodic checkpoints, optional\n\
                                                stop/restore at interval K; --json\n\
                                                prints the restart-invariant verdict,\n\
                                                --assert-flat fails (exit 1) if bus\n\
                                                entries or RSS grow\n\
           fig2 [secs=2] [seed=1] [n_seeds=3]   Figure 2 (delay accuracy)\n\
           fig3 [secs=20] [seed=1]              Figure 3 (loss granularity)\n\
           verifiability [secs=2] [seed=1]      §7.2 verification sweep\n\
           overhead                             §7.1 memory/bandwidth model\n\
           baselines [seed=1]                   §3 strawman comparison\n\
         a positional command takes at most the arguments shown; one more\n\
         is a usage error (exit 2); --help or -h prints this text (exit 0)";

fn print_usage() {
    eprintln!("{USAGE}");
}

fn usage() -> ExitCode {
    print_usage();
    ExitCode::from(2)
}

/// Positional argument at `i`, or `default` when absent. An argument
/// that is *present but unparsable* is an error: print usage, exit 2 —
/// never run an experiment with silently substituted parameters.
fn arg<T: std::str::FromStr>(args: &[String], i: usize, default: T) -> T {
    match args.get(i) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("vpm: unparsable argument '{s}'");
            print_usage();
            std::process::exit(2);
        }),
    }
}

/// A duration or seed count at `i` (see [`arg`]). Zero is refused the
/// same way: no experiment runs for zero seconds or over zero seeds.
fn positive_arg(args: &[String], i: usize, default: u64) -> u64 {
    let v = arg(args, i, default);
    if v == 0 {
        eprintln!("vpm: argument {i} must be positive, got 0");
        print_usage();
        std::process::exit(2);
    }
    v
}

/// Parse and run `vpm matrix [--filter axis=value]... [--json]
/// [--jobs N]`.
fn matrix(args: &[String]) -> ExitCode {
    let mut filters: Vec<MatrixFilter> = Vec::new();
    let mut json = false;
    let mut jobs = 1usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--filter" => {
                let Some(spec) = args.get(i + 1) else {
                    eprintln!("vpm: --filter needs an axis=value argument");
                    return usage();
                };
                match parse_filter(spec) {
                    Ok(f) => filters.push(f),
                    Err(e) => {
                        eprintln!("vpm: {e}");
                        return usage();
                    }
                }
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--jobs" => {
                let Some(n) = args.get(i + 1) else {
                    eprintln!("vpm: --jobs needs a number");
                    return usage();
                };
                match n.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = n,
                    _ => {
                        eprintln!("vpm: --jobs value '{n}' is not a positive integer");
                        return usage();
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown matrix option '{other}'");
                return usage();
            }
        }
    }

    let cells: Vec<_> = full_grid(CANONICAL_BASE_SEED)
        .into_iter()
        .filter(|c| filters.iter().all(|f| f.matches(c)))
        .collect();
    // An empty selection must not pass as a green gate: a filter set
    // that matches nothing (over-constrained, or stale after a grid
    // change) would otherwise "verify" zero cells and exit 0.
    if cells.is_empty() {
        eprintln!("vpm: no cells match the given filters");
        return ExitCode::from(2);
    }
    let verdicts = evaluate_grid(&cells, jobs);
    if json {
        match serde_json::to_string(&verdicts) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("vpm: cannot serialize verdicts: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", render_matrix_table(&cells, &verdicts));
    }
    if verdicts.iter().all(|v| v.passed()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse and run `vpm fleet [--paths N] [--jobs J] [--liars K]
/// [--shards S] [--json] [--transport tcp:ADDR]`.
fn fleet(args: &[String]) -> ExitCode {
    let mut paths = 64usize;
    let mut jobs = 4usize;
    let mut liars: Option<usize> = None;
    let mut shards = 32usize;
    let mut json = false;
    let mut tcp_addr: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--transport" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: --transport needs tcp:HOST:PORT");
                    return usage();
                };
                match v.strip_prefix("tcp:") {
                    Some(addr) if !addr.is_empty() => tcp_addr = Some(addr.to_string()),
                    _ => {
                        eprintln!("vpm: --transport value '{v}' is not tcp:HOST:PORT");
                        return usage();
                    }
                }
                i += 2;
            }
            "--paths" | "--jobs" | "--liars" | "--shards" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: {flag} needs a number");
                    return usage();
                };
                // `--liars 0` is a legitimate all-honest fleet; the
                // other counts must stay positive.
                let min = usize::from(flag != "--liars");
                let parsed = match v.parse::<usize>() {
                    Ok(n) if n >= min => n,
                    _ => {
                        eprintln!("vpm: {flag} value '{v}' is not a valid count");
                        return usage();
                    }
                };
                match flag {
                    "--paths" => paths = parsed,
                    "--jobs" => jobs = parsed,
                    "--liars" => liars = Some(parsed),
                    _ => shards = parsed,
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown fleet option '{other}'");
                return usage();
            }
        }
    }
    let liars = liars.unwrap_or(paths / 8);
    if liars > paths {
        eprintln!("vpm: --liars {liars} exceeds --paths {paths}");
        return usage();
    }
    if paths * vpm::sim::topology::FIGURE1_HOPS as usize > u16::MAX as usize {
        eprintln!("vpm: --paths {paths} overflows the 16-bit HOP id space");
        return usage();
    }

    let cfg = vpm::sim::FleetConfig {
        paths,
        liars,
        publishers: jobs,
        ..vpm::sim::FleetConfig::default()
    };
    let fleet = vpm::sim::build_fleet(&cfg);
    // Same fleet, two dissemination planes: the in-process sharded bus
    // (default) or a `vpm serve` endpoint over TCP. The verdicts are
    // byte-identical either way (test-pinned).
    let transport: Box<dyn vpm::wire::ReceiptTransport> = match &tcp_addr {
        None => Box::new(vpm::wire::ShardedBus::new(shards)),
        Some(addr) => match vpm::wire::TcpTransport::connect(addr.clone()) {
            Ok(t) => Box::new(t),
            Err(e) => {
                eprintln!("vpm: cannot reach receipt server at {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    vpm::sim::run_fleet(&fleet, transport.as_ref());
    let verdicts = vpm::sim::analyze_fleet_from_transport(&fleet, transport.as_ref(), jobs);
    if json {
        match serde_json::to_string(&verdicts) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("vpm: cannot serialize fleet verdicts: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", vpm::sim::render_fleet_table(&fleet, &verdicts));
    }
    if verdicts.iter().all(|v| v.passed()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse and run `vpm serve [--listen ADDR] [--shards S]`: bind a
/// [`vpm::wire::TcpServer`] over a fresh sharded bus and serve until
/// killed.
fn serve(args: &[String]) -> ExitCode {
    let mut listen = String::from("127.0.0.1:0");
    let mut shards = 32usize;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--listen" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: --listen needs HOST:PORT");
                    return usage();
                };
                listen = v.clone();
                i += 2;
            }
            "--shards" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: --shards needs a number");
                    return usage();
                };
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => shards = n,
                    _ => {
                        eprintln!("vpm: --shards value '{v}' is not a positive integer");
                        return usage();
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown serve option '{other}'");
                return usage();
            }
        }
    }

    let bus = std::sync::Arc::new(vpm::wire::ShardedBus::new(shards));
    let server = match vpm::wire::TcpServer::bind(listen.as_str(), bus) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vpm: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The exact line harnesses scrape for the resolved ephemeral port.
    println!("vpm serve: listening on {}", server.local_addr());
    println!("vpm serve: sha256 backend {}", vpm::hash::sha256::backend());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    // Serve until the process is killed; connections are handled on
    // the server's own threads.
    loop {
        std::thread::park();
    }
}

/// Parse and run `vpm audit [--paths N] [--intervals N] [--shards S]
/// [--gc-every N] [--checkpoint-every N] [--restart-at K] [--seed S]
/// [--assert-flat] [--json]`.
fn audit(args: &[String]) -> ExitCode {
    let mut cfg = vpm::sim::audit::AuditConfig::default();
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--json" => {
                json = true;
                i += 1;
            }
            "--assert-flat" => {
                cfg.assert_flat = true;
                i += 1;
            }
            "--paths" | "--intervals" | "--shards" | "--gc-every" | "--checkpoint-every"
            | "--restart-at" | "--seed" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("vpm: {flag} needs a number");
                    return usage();
                };
                let Ok(parsed) = v.parse::<u64>() else {
                    eprintln!("vpm: {flag} value '{v}' is not a non-negative integer");
                    return usage();
                };
                match flag {
                    "--paths" => {
                        if parsed == 0 || parsed > vpm::sim::audit::workload::MAX_AUDIT_PATHS as u64
                        {
                            eprintln!(
                                "vpm: --paths must be 1..={}",
                                vpm::sim::audit::workload::MAX_AUDIT_PATHS
                            );
                            return usage();
                        }
                        cfg.paths = parsed as usize;
                    }
                    "--intervals" => cfg.intervals = parsed,
                    "--shards" => {
                        if parsed == 0 {
                            eprintln!("vpm: --shards must be positive");
                            return usage();
                        }
                        cfg.shards = parsed as usize;
                    }
                    "--gc-every" => cfg.gc_every = parsed,
                    "--checkpoint-every" => cfg.checkpoint_every = parsed,
                    "--restart-at" => cfg.restart_at = Some(parsed),
                    _ => cfg.seed = parsed,
                }
                i += 2;
            }
            other => {
                eprintln!("vpm: unknown audit option '{other}'");
                return usage();
            }
        }
    }
    // Checked once every flag is in: `--intervals` may come later.
    if let Some(k) = cfg.restart_at {
        if !(1..=cfg.intervals).contains(&k) {
            eprintln!(
                "vpm: --restart-at must be 1..={} (an audited interval)",
                cfg.intervals
            );
            return usage();
        }
    }

    let outcome = match vpm::sim::audit::run_audit(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vpm: audit failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        // The verdict alone: deterministic in the seed and invariant
        // under checkpoint/restart, so the CI byte-identity gate can
        // `cmp` two runs directly. Stats (timings, RSS) stay out.
        match serde_json::to_string(&outcome.verdict) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("vpm: cannot serialize audit verdict: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let v = &outcome.verdict;
        let s = &outcome.stats;
        println!(
            "audit: {} intervals over {} paths ({} shards), seed {:#x}",
            v.intervals, cfg.paths, cfg.shards, cfg.seed
        );
        println!(
            "  verdicts: {} path-intervals audited, {} flagged, {} paths seen",
            v.audited_intervals,
            v.flagged_intervals,
            v.paths.len()
        );
        println!(
            "  bus: {} publishes, {} reclaimed over {} GC passes, peak {} retained, {} at end",
            s.publishes, s.reclaimed, s.gc_passes, s.max_entries, s.final_entries
        );
        println!(
            "  checkpoints: {} taken ({} bytes last), {} restarts, {} summary records",
            s.checkpoints, s.checkpoint_bytes, s.restarts, s.summary_records
        );
        if let (Some(base), Some(end)) = (s.rss_baseline_kb, s.rss_end_kb) {
            println!("  rss: {base} KiB after warmup, {end} KiB at end");
        }
    }
    ExitCode::SUCCESS
}

fn print_overhead_rows(rows: &[(String, f64, f64)]) {
    for (label, paper, ours) in rows {
        let p = if paper.is_nan() {
            "—".to_string()
        } else {
            format!("{paper:.3}")
        };
        println!("{label:<48} {p:>10} {ours:>10.3}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    if cmd == "--help" || cmd == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // The positional commands take at most this many arguments; one
    // more would otherwise be silently dropped.
    let max_args = match cmd.as_str() {
        "fig2" => Some(3),
        "fig3" | "verifiability" => Some(2),
        "baselines" => Some(1),
        "overhead" => Some(0),
        _ => None,
    };
    if let Some(extra) = max_args.and_then(|n| args.get(n + 1)) {
        eprintln!("vpm: unexpected argument '{extra}'");
        return usage();
    }
    match cmd.as_str() {
        "matrix" => return matrix(&args),
        "fleet" => return fleet(&args),
        "serve" => return serve(&args),
        "audit" => return audit(&args),
        "fig2" => {
            let cfg = figures::Fig2Config::paper(
                SimDuration::from_secs(positive_arg(&args, 1, 2)),
                arg(&args, 2, 1u64),
            );
            let points = figures::fig2_averaged(&cfg, positive_arg(&args, 3, 3));
            println!("{}", figures::render_fig2(&points));
        }
        "fig3" => {
            let cfg = figures::Fig3Config::paper(
                SimDuration::from_secs(positive_arg(&args, 1, 20)),
                arg(&args, 2, 1u64),
            );
            println!("{}", figures::render_fig3(&figures::fig3(&cfg)));
        }
        "verifiability" => {
            let cfg = figures::VerifiabilityConfig::paper(
                SimDuration::from_secs(positive_arg(&args, 1, 2)),
                arg(&args, 2, 1u64),
            );
            println!(
                "{}",
                figures::render_verifiability(&figures::verifiability(&cfg))
            );
        }
        "overhead" => {
            let report = vpm::core::overhead::section_7_1_report();
            println!("{:<48} {:>10} {:>10}", "quantity", "paper", "ours");
            print_overhead_rows(&report.rows);
            // The same §7.1 numbers, recomputed from actual encoded v1
            // frame lengths instead of the model constants.
            let measured = vpm::wire::measured_overhead_report();
            println!();
            println!(
                "{:<48} {:>10} {:>10}",
                "measured from wire frames", "paper", "ours"
            );
            print_overhead_rows(&measured.rows);
            println!();
            println!("sha256 backend: {}", vpm::hash::sha256::backend());
        }
        "baselines" => {
            let reports = baselines::compare(arg(&args, 1, 1u64));
            println!("{}", baselines::render_table(&reports));
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
