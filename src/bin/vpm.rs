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

/// A flag command's exit code: `Ok` once it ran, `Err` when it stopped
/// early on an error it already reported (a usage error is exit 2).
type Outcome = Result<ExitCode, ExitCode>;

/// Report a usage error: `vpm: {msg}`, then usage; exit 2.
fn usage_error(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("vpm: {msg}");
    usage()
}

/// The one flag parser: a command's `--name` switches and `--name
/// VALUE` options, read left to right.
struct Flags<'a> {
    command: &'static str,
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    /// The flags of `vpm <command> ...` (`args[0]` is the command).
    fn new(command: &'static str, args: &'a [String]) -> Self {
        Flags {
            command,
            rest: args.get(1..).unwrap_or_default().iter(),
        }
    }

    /// The next flag, if any.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }

    /// The value after `flag`; a missing one is "`flag` needs `what`".
    fn value(&mut self, flag: &str, what: &str) -> Result<&'a str, ExitCode> {
        self.next_flag()
            .ok_or_else(|| usage_error(format!("{flag} needs {what}")))
    }

    /// The count after `flag`, at least `min`; an unparsable or smaller
    /// one is "`flag` value '…' is not `what`".
    fn count<T: std::str::FromStr + PartialOrd>(
        &mut self,
        flag: &str,
        min: T,
        what: &str,
    ) -> Result<T, ExitCode> {
        let v = self.value(flag, "a number")?;
        match v.parse::<T>() {
            Ok(n) if n >= min => Ok(n),
            _ => Err(usage_error(format!("{flag} value '{v}' is not {what}"))),
        }
    }

    /// The error for a flag this command does not know.
    fn unknown(&self, flag: &str) -> ExitCode {
        usage_error(format!("unknown {} option '{flag}'", self.command))
    }
}

/// Exit 0 when every verdict passed, else 1.
fn passed(all: bool) -> ExitCode {
    if all {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print serialized `what` as one line of JSON; a serializer failure is
/// exit 1.
fn print_json(json: Result<String, serde_json::Error>, what: &str) -> Result<(), ExitCode> {
    match json {
        Ok(s) => {
            println!("{s}");
            Ok(())
        }
        Err(e) => {
            eprintln!("vpm: cannot serialize {what}: {e:?}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Parse and run `vpm matrix [--filter axis=value]... [--json]
/// [--jobs N]`.
fn matrix(args: &[String]) -> Outcome {
    let mut flags = Flags::new("matrix", args);
    let (mut filters, mut json, mut jobs) = (Vec::<MatrixFilter>::new(), false, 1usize);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--filter" => {
                let spec = flags.value(flag, "an axis=value argument")?;
                filters.push(parse_filter(spec).map_err(usage_error)?);
            }
            "--json" => json = true,
            "--jobs" => jobs = flags.count(flag, 1, "a positive integer")?,
            other => return Err(flags.unknown(other)),
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
        return Err(ExitCode::from(2));
    }
    let verdicts = evaluate_grid(&cells, jobs);
    if json {
        print_json(serde_json::to_string(&verdicts), "verdicts")?;
    } else {
        print!("{}", render_matrix_table(&cells, &verdicts));
    }
    Ok(passed(verdicts.iter().all(|v| v.passed())))
}

/// Parse and run `vpm fleet [--paths N] [--jobs J] [--liars K]
/// [--shards S] [--json] [--transport tcp:ADDR]`.
fn fleet(args: &[String]) -> Outcome {
    let mut flags = Flags::new("fleet", args);
    let (mut paths, mut jobs, mut liars, mut shards) = (64usize, 4usize, None, 32usize);
    let (mut json, mut tcp_addr) = (false, None);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--json" => json = true,
            "--transport" => {
                let v = flags.value(flag, "tcp:HOST:PORT")?;
                match v.strip_prefix("tcp:") {
                    Some(addr) if !addr.is_empty() => tcp_addr = Some(addr.to_string()),
                    _ => {
                        return Err(usage_error(format!(
                            "--transport value '{v}' is not tcp:HOST:PORT"
                        )))
                    }
                }
            }
            "--paths" => paths = flags.count(flag, 1, "a valid count")?,
            "--jobs" => jobs = flags.count(flag, 1, "a valid count")?,
            // `--liars 0` is a legitimate all-honest fleet.
            "--liars" => liars = Some(flags.count(flag, 0, "a valid count")?),
            "--shards" => shards = flags.count(flag, 1, "a valid count")?,
            other => return Err(flags.unknown(other)),
        }
    }
    let liars = liars.unwrap_or(paths / 8);
    if liars > paths {
        return Err(usage_error(format!(
            "--liars {liars} exceeds --paths {paths}"
        )));
    }
    if paths * vpm::sim::topology::FIGURE1_HOPS as usize > u16::MAX as usize {
        return Err(usage_error(format!(
            "--paths {paths} overflows the 16-bit HOP id space"
        )));
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
                return Ok(ExitCode::FAILURE);
            }
        },
    };
    vpm::sim::run_fleet(&fleet, transport.as_ref());
    let verdicts = vpm::sim::analyze_fleet_from_transport(&fleet, transport.as_ref(), jobs);
    if json {
        print_json(serde_json::to_string(&verdicts), "fleet verdicts")?;
    } else {
        print!("{}", vpm::sim::render_fleet_table(&fleet, &verdicts));
    }
    Ok(passed(verdicts.iter().all(|v| v.passed())))
}

/// Parse and run `vpm serve [--listen ADDR] [--shards S]`: bind a
/// [`vpm::wire::TcpServer`] over a fresh sharded bus and serve until
/// killed.
fn serve(args: &[String]) -> Outcome {
    let mut flags = Flags::new("serve", args);
    let (mut listen, mut shards) = ("127.0.0.1:0", 32usize);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--listen" => listen = flags.value(flag, "HOST:PORT")?,
            "--shards" => shards = flags.count(flag, 1, "a positive integer")?,
            other => return Err(flags.unknown(other)),
        }
    }

    let bus = std::sync::Arc::new(vpm::wire::ShardedBus::new(shards));
    let server = match vpm::wire::TcpServer::bind(listen, bus) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vpm: cannot bind {listen}: {e}");
            return Ok(ExitCode::FAILURE);
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
fn audit(args: &[String]) -> Outcome {
    use vpm::sim::audit::workload::MAX_AUDIT_PATHS;
    let mut flags = Flags::new("audit", args);
    let mut cfg = vpm::sim::audit::AuditConfig::default();
    let mut json = false;
    while let Some(flag) = flags.next_flag() {
        let mut count = || flags.count(flag, 0u64, "a non-negative integer");
        match flag {
            "--json" => json = true,
            "--assert-flat" => cfg.assert_flat = true,
            "--paths" => {
                let n = count()?;
                if n == 0 || n > MAX_AUDIT_PATHS as u64 {
                    return Err(usage_error(format!(
                        "--paths must be 1..={MAX_AUDIT_PATHS}"
                    )));
                }
                cfg.paths = n as usize;
            }
            "--intervals" => cfg.intervals = count()?,
            "--shards" => {
                let n = count()?;
                if n == 0 {
                    return Err(usage_error("--shards must be positive"));
                }
                cfg.shards = n as usize;
            }
            "--gc-every" => cfg.gc_every = count()?,
            "--checkpoint-every" => cfg.checkpoint_every = count()?,
            "--restart-at" => cfg.restart_at = Some(count()?),
            "--seed" => cfg.seed = count()?,
            other => return Err(flags.unknown(other)),
        }
    }
    // Checked once every flag is in: `--intervals` may come later.
    if let Some(k) = cfg.restart_at {
        if !(1..=cfg.intervals).contains(&k) {
            return Err(usage_error(format!(
                "--restart-at must be 1..={} (an audited interval)",
                cfg.intervals
            )));
        }
    }

    let outcome = match vpm::sim::audit::run_audit(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vpm: audit failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if json {
        // The verdict alone: deterministic in the seed and invariant
        // under checkpoint/restart, so the CI byte-identity gate can
        // `cmp` two runs directly. Stats (timings, RSS) stay out.
        print_json(serde_json::to_string(&outcome.verdict), "audit verdict")?;
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
    Ok(ExitCode::SUCCESS)
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
    let flagged: Option<fn(&[String]) -> Outcome> = match cmd.as_str() {
        "matrix" => Some(matrix),
        "fleet" => Some(fleet),
        "serve" => Some(serve),
        "audit" => Some(audit),
        _ => None,
    };
    if let Some(run) = flagged {
        return run(&args).unwrap_or_else(|code| code);
    }
    match cmd.as_str() {
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
