//! End-to-end tests of the `vpm` binary: argument handling must be
//! strict (an unparsable argument is a usage error, never a silent
//! fallback to defaults) and the `matrix` subcommand must be
//! deterministic — same filters, same verdicts, same bytes, regardless
//! of `--jobs`.

use std::process::{Command, Output};

fn vpm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vpm"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_command_prints_usage_and_exits_2() {
    let out = vpm(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage: vpm"));
}

#[test]
fn unknown_command_prints_usage_and_exits_2() {
    // The retired `bench-*` harnesses, `pcap` export and `lint`
    // analyzer are unknown commands like any other: `benchmark/` is the
    // one measuring stick, and the lock-discipline check and the shim
    // content pin are tier-1 tests.
    for cmd in [
        "frobnicate",
        "bench-audit",
        "bench-collector",
        "bench-wire",
        "bench-verifier",
        "pcap",
        "lint",
    ] {
        let out = vpm(&[cmd]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = stderr(&out);
        assert!(err.contains("usage: vpm"), "{cmd}: {err}");
        assert!(!err.contains("bench-"), "{cmd}: {err}");
        assert!(!err.contains("pcap"), "{cmd}: {err}");
        assert!(!err.contains("lint"), "{cmd}: {err}");
    }
}

#[test]
fn help_prints_usage_to_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = vpm(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {}", stderr(&out));
        assert!(stdout(&out).contains("usage: vpm"), "{flag}");
        assert!(stderr(&out).is_empty(), "{flag}: {}", stderr(&out));
    }
}

#[test]
fn unparsable_positional_argument_is_an_error_not_a_default() {
    // Regressions: `vpm fig2 junk` used to run the full experiment with
    // the silently substituted default `secs=2`, and an argument past
    // the last positional one was silently dropped.
    for (args, needle) in [
        (&["fig2", "junk"][..], "unparsable argument 'junk'"),
        (&["overhead", "junk"], "unexpected argument 'junk'"),
        (&["baselines", "1", "2"], "unexpected argument '2'"),
        (&["fig3", "1", "1", "extra"], "unexpected argument 'extra'"),
        (&["verifiability", "1", "1", "9"], "unexpected argument '9'"),
        (&["fig2", "1", "1", "1", "1"], "unexpected argument '1'"),
    ] {
        let out = vpm(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage: vpm"), "{args:?}: {err}");
        assert!(
            stdout(&out).is_empty(),
            "{args:?}: no experiment output on a usage error"
        );
    }
}

#[test]
fn zero_duration_or_seed_count_is_a_usage_error_not_a_panic() {
    // Regression: a zero `secs` aborted (exit 101) at the trace
    // generator's assert, and a zero `n_seeds` at `fig2_averaged`'s.
    for args in [
        &["fig2", "0"][..],
        &["fig3", "0"],
        &["verifiability", "0"],
        &["fig2", "1", "1", "0"],
    ] {
        let out = vpm(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("must be positive, got 0"), "{args:?}: {err}");
        assert!(err.contains("usage: vpm"), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?}: no experiment output");
    }
}

#[test]
fn audit_rejects_a_restart_below_the_first_interval() {
    // Regression: `--restart-at 0` exited 0 with "0 restarts".
    let out = vpm(&["audit", "--intervals", "10", "--restart-at", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--restart-at must be 1..=10"));
}

#[test]
fn audit_rejects_a_restart_past_the_last_interval() {
    // Checked once every flag is in: `--intervals` comes last here.
    let out = vpm(&["audit", "--restart-at", "11", "--intervals", "10"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--restart-at must be 1..=10"));
    let last = vpm(&["audit", "--restart-at", "10", "--intervals", "10"]);
    assert_eq!(last.status.code(), Some(0), "{}", stderr(&last));
    assert!(stdout(&last).contains(", 1 restarts,"), "{}", stdout(&last));
}

#[test]
fn unparsable_seed_argument_is_an_error() {
    let out = vpm(&["baselines", "not-a-seed"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unparsable argument 'not-a-seed'"));
}

#[test]
fn matrix_rejects_bad_filters_with_exit_2() {
    for (args, needle) in [
        (
            vec!["matrix", "--filter", "delay=warp"],
            "unknown delay value 'warp'",
        ),
        (
            vec!["matrix", "--filter", "nonsense"],
            "not of the form axis=value",
        ),
        (
            vec!["matrix", "--filter", "axis=value"],
            "unknown filter axis 'axis'",
        ),
        (vec!["matrix", "--filter"], "--filter needs"),
        (vec!["matrix", "--jobs", "zero"], "--jobs value"),
        (vec!["matrix", "--jobs", "0"], "--jobs value"),
        (vec!["matrix", "--frobnicate"], "unknown matrix option"),
        // Individually valid but jointly empty (partial cells are
        // always honest): must not pass as a green gate.
        (
            vec![
                "matrix",
                "--filter",
                "deploy=partial",
                "--filter",
                "adversary=two-liars",
            ],
            "no cells match",
        ),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn matrix_json_is_byte_identical_across_job_counts() {
    // The determinism contract straight through the CLI: a filtered
    // slice evaluated with 1 and with 8 workers prints identical JSON.
    let filter = &[
        "matrix",
        "--filter",
        "delay=congested",
        "--filter",
        "adversary=two-liars",
        "--json",
    ];
    let serial = vpm(&[filter as &[&str], &["--jobs", "1"]].concat());
    let parallel = vpm(&[filter as &[&str], &["--jobs", "8"]].concat());
    assert_eq!(serial.status.code(), Some(0), "{}", stderr(&serial));
    assert_eq!(parallel.status.code(), Some(0), "{}", stderr(&parallel));
    let a = stdout(&serial);
    assert_eq!(a, stdout(&parallel), "--jobs must not change the bytes");
    assert!(a.trim_start().starts_with('['), "JSON array output: {a}");
    assert!(a.contains("two-liars"), "{a}");
}

#[test]
fn fleet_json_is_byte_identical_across_job_counts() {
    // The fleet determinism contract straight through the CLI: the
    // same fleet verified with 1 and with 8 workers prints identical
    // JSON (publishing concurrency differs too — it must not matter).
    let base = &["fleet", "--paths", "8", "--liars", "2", "--json"];
    let serial = vpm(&[base as &[&str], &["--jobs", "1"]].concat());
    let parallel = vpm(&[base as &[&str], &["--jobs", "8"]].concat());
    assert_eq!(serial.status.code(), Some(0), "{}", stderr(&serial));
    assert_eq!(parallel.status.code(), Some(0), "{}", stderr(&parallel));
    let a = stdout(&serial);
    assert_eq!(a, stdout(&parallel), "--jobs must not change the bytes");
    let verdicts: Vec<vpm::sim::FleetPathVerdict> =
        serde_json::from_str(a.trim()).expect("stdout is the verdict list");
    assert_eq!(verdicts.len(), 8);
    assert_eq!(verdicts.iter().filter(|v| v.lie.is_some()).count(), 2);
    assert!(verdicts.iter().all(|v| v.passed()));
}

#[test]
fn fleet_rejects_bad_flags() {
    for (args, needle) in [
        (vec!["fleet", "--paths", "0"], "--paths value"),
        (vec!["fleet", "--paths"], "--paths needs"),
        (vec!["fleet", "--jobs", "zero"], "--jobs value"),
        (vec!["fleet", "--liars", "junk"], "--liars value"),
        (
            vec!["fleet", "--paths", "4", "--liars", "5"],
            "exceeds --paths",
        ),
        (
            vec!["fleet", "--paths", "9000"],
            "overflows the 16-bit HOP id space",
        ),
        (vec!["fleet", "--frobnicate"], "unknown fleet option"),
        (vec!["fleet", "--transport"], "--transport needs"),
        (
            vec!["fleet", "--transport", "udp:1.2.3.4:5"],
            "is not tcp:HOST:PORT",
        ),
        (vec!["fleet", "--transport", "tcp:"], "is not tcp:HOST:PORT"),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn fleet_reports_an_unreachable_receipt_server_as_failure() {
    // Port 1 on loopback is essentially never listening; the connect
    // is eager, so this fails fast with a clear message, exit 1.
    let out = vpm(&["fleet", "--paths", "2", "--transport", "tcp:127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot reach receipt server"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn serve_rejects_bad_flags() {
    for (args, needle) in [
        (vec!["serve", "--shards", "0"], "--shards value"),
        (vec!["serve", "--shards", "many"], "--shards value"),
        (vec!["serve", "--listen"], "--listen needs"),
        (vec!["serve", "--frobnicate"], "unknown serve option"),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn serve_reports_an_unbindable_listen_address_as_failure() {
    let out = vpm(&["serve", "--listen", "256.256.256.256:0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("cannot bind"), "{}", stderr(&out));
}

#[test]
fn overhead_names_the_sha256_backend_under_the_measured_table() {
    let out = vpm(&["overhead"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let want = format!("sha256 backend: {}", vpm::hash::sha256::backend());
    assert_eq!(stdout(&out).lines().last(), Some(want.as_str()));
}

#[test]
fn matrix_table_matches_golden_file() {
    // Pin the exact table rendering for a small filtered slice. If a
    // legitimate change alters the rendering or the cells' verdicts,
    // regenerate with:
    //   cargo run --release --bin vpm -- matrix --filter delay=constant \
    //     --filter adversary=two-liars --filter rate=0.05 --jobs 2 \
    //     > tests/golden/matrix_slice.txt
    let out = vpm(&[
        "matrix",
        "--filter",
        "delay=constant",
        "--filter",
        "adversary=two-liars",
        "--filter",
        "rate=0.05",
        "--jobs",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let golden = include_str!("golden/matrix_slice.txt");
    assert_eq!(
        stdout(&out),
        golden,
        "vpm matrix rendering drifted from tests/golden/matrix_slice.txt"
    );
}

#[test]
fn matrix_constant_ideal_json_matches_golden_file() {
    // Pin every verdict number of an 18-cell slice that covers all
    // seven adversary levels and a partial-deployment cell. If a
    // legitimate change alters the cells' verdicts, regenerate with:
    //   cargo run --release --bin vpm -- matrix --filter delay=constant \
    //     --filter clock=ideal --filter rate=0.05 --json \
    //     > tests/golden/matrix_constant_ideal.json
    let out = vpm(&[
        "matrix",
        "--filter",
        "delay=constant",
        "--filter",
        "clock=ideal",
        "--filter",
        "rate=0.05",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let golden = include_str!("golden/matrix_constant_ideal.json");
    assert_eq!(
        stdout(&out),
        golden,
        "vpm matrix verdicts drifted from tests/golden/matrix_constant_ideal.json"
    );
}

#[test]
fn audit_rejects_bad_flags() {
    let too_many = (vpm::sim::audit::workload::MAX_AUDIT_PATHS + 1).to_string();
    for (args, needle) in [
        (vec!["audit", "--paths", "0"], "--paths must be 1..="),
        (vec!["audit", "--paths", &too_many], "--paths must be 1..="),
        (vec!["audit", "--shards", "0"], "--shards must be positive"),
        (vec!["audit", "--seed"], "--seed needs a number"),
        (
            vec!["audit", "--gc-every", "junk"],
            "--gc-every value 'junk' is not a non-negative integer",
        ),
        (vec!["audit", "--frobnicate"], "unknown audit option"),
    ] {
        let out = vpm(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(err.contains("usage: vpm"), "{args:?}: {err}");
    }
}
