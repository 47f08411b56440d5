//! `fleet_verify`: verification only.
//!
//! Set-up builds a fleet of 96 Figure-1 paths (12 of them lying;
//! 200 ms traces at 50 kpps) and runs it into a 32-shard bus. The
//! timed part is `analyze_fleet_from_transport` with
//! `jobs = min(cores, 4)`, repeated: every path's frames are fetched
//! by `PathID`, re-assembled per HOP and judged. No publish and no
//! collector run inside the timed region.
//!
//! The call is the same in both passes. Traced, the transport wrapper
//! records its spans on the library's worker threads, where they have
//! no parent; [`adopt_worker_spans`] then gives each worker a span as
//! long as the call, so what the transport spans leave of it is the
//! analysis.

use std::sync::atomic::Ordering;

use vpm_sim::fleet::{
    analyze_fleet_from_transport, build_fleet, run_fleet, Fleet, FleetConfig, FLEET_BASE_SEED,
};
use vpm_wire::ShardedBus;

use super::note_machine;
use crate::gen::mix;
use crate::harness::{
    cores, counter_metrics, latency_metrics, layer_metrics, peak_rss_mb, run_reps, thread_root,
    timed_setup, Opts, Outcome,
};
use crate::trace::{self, ratio, Kind, Layer, Span, Summary, TracedTransport};

const SHARDS: usize = 32;
/// Timed repetitions.
const REPS: usize = 16;

struct Inputs {
    fleet: Fleet,
    bus: TracedTransport<ShardedBus>,
    frames: usize,
}

fn build(opts: &Opts, paths: usize, jobs: usize) -> Inputs {
    let fleet = build_fleet(&FleetConfig {
        paths,
        liars: paths / 8,
        publishers: jobs,
        base_seed: FLEET_BASE_SEED ^ mix(opts.seed),
        trace_ms: 200,
        target_pps: 50_000.0,
    });
    let bus = TracedTransport::new(ShardedBus::new(SHARDS), Layer::WireTransport);
    let frames = run_fleet(&fleet, &bus);
    Inputs { fleet, bus, frames }
}

/// Give every library worker thread a `sim.verdict` span and make
/// its transport spans that span's children. A worker lives inside one
/// `analyze_fleet` call and does nothing but analyze paths, so its span
/// is taken to be as long as the call: a worker that runs out of paths
/// before the others idles for less than one path's time (about 1/48 of
/// the call at two jobs), and that idling counts as analysis.
fn adopt_worker_spans(spans: &mut Vec<Span>) {
    let calls: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "analyze_fleet")
        .cloned()
        .collect();
    let mut workers: Vec<Span> = Vec::new();
    for s in spans.iter_mut().filter(|s| s.parent == 0) {
        let Some(call) = calls
            .iter()
            .find(|c| c.thread != s.thread && c.start_ns <= s.start_ns && s.end_ns <= c.end_ns)
        else {
            continue;
        };
        // Span ids count from 1 within a thread, so 0 is free.
        let id = u64::from(s.thread) << 40;
        s.parent = id;
        if workers.iter().all(|w| w.id != id) {
            workers.push(Span {
                id,
                parent: 0,
                thread: s.thread,
                layer: Layer::SimVerdict,
                kind: Kind::Busy,
                name: "analyze_worker",
                items: 0,
                bytes: 0,
                weight: 1,
                ..call.clone()
            });
        }
    }
    spans.extend(workers);
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let paths = opts.size(96, 16);
    let jobs = cores().min(4);
    note_machine(&mut out, jobs);

    let inp = timed_setup(&mut out, || build(opts, paths, jobs));
    let delivered_before = inp.bus.counters.delivered_bytes.load(Ordering::Relaxed);

    // The reference verdicts: the library's own fleet verifier,
    // untraced and untimed.
    let reference = analyze_fleet_from_transport(&inp.fleet, &inp.bus, jobs);
    let reference_json = serde_json::to_string(&reference).expect("verdicts serialize");
    let bytes_per_pass =
        inp.bus.counters.delivered_bytes.load(Ordering::Relaxed) - delivered_before;
    for v in &reference {
        out.check(v.passed(), 1, || {
            format!("path {}: {:?}", v.path, v.failures)
        });
    }

    // A repetition is one call of the library's fleet verifier over
    // all the paths; its verdict latency is the time the call takes.
    let mut differing = 0u64;
    let mut latencies_ms = Vec::new();
    let times = run_reps(opts, opts.size(REPS, 2), |rep, _| {
        let started = std::time::Instant::now();
        // With workers this thread only waits for them; alone it does
        // the analysis itself.
        let (layer, kind) = if jobs > 1 {
            (Layer::Bench, Kind::Blocked)
        } else {
            (Layer::SimVerdict, Kind::Busy)
        };
        let verdicts = thread_root(|| {
            trace::span_kind(layer, kind, "analyze_fleet", |_| {
                analyze_fleet_from_transport(&inp.fleet, &inp.bus, jobs)
            })
        });
        if rep > 0 {
            latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let same = trace::span(Layer::Bench, "oracle", |_| {
            serde_json::to_string(&verdicts).expect("verdicts serialize") == reference_json
        });
        if !same {
            differing += 1;
        }
    });
    out.check(differing == 0, differing * paths as u64, || {
        format!("{differing} repetitions serialized verdicts that differ from the reference")
    });
    out.attempted = (1 + 1 + times.len() as u64) * paths as u64;

    let flagged: usize = reference.iter().map(|v| v.flagged_links.len()).sum();
    let count = |what: &str| {
        reference
            .iter()
            .flat_map(|v| &v.failures)
            .filter(|f| f.contains(what))
            .count() as f64
    };
    out.notes.push(format!(
        "{paths} paths ({} liars), {} frames on a {SHARDS}-shard bus, jobs = {jobs}; {} passes; {flagged} links flagged",
        inp.fleet.config.liars,
        inp.frames,
        times.len()
    ));

    times.note_clock(&mut out, opts);
    latency_metrics(&mut out, opts, &latencies_ms, latencies_ms.len());
    if !opts.trace {
        out.set("ops_per_s", times.rate(paths as f64));
        out.set1(
            "wire_bytes_per_op",
            ratio(bytes_per_pass as f64, paths as f64),
        );
        out.set1("peak_rss_mb", peak_rss_mb());
        return out;
    }
    let mut spans = trace::take();
    adopt_worker_spans(&mut spans);
    layer_metrics(&mut out, &spans, &[]);
    counter_metrics(&mut out, &inp.bus.counters);
    out.set1("bench.trace_overhead_ratio", times.trace_overhead());
    let sum = Summary::of(&spans, &trace::self_times(&spans), &[]);
    let analysis_ns = sum.call(Layer::SimVerdict, "analyze_worker").self_ns
        + sum.call(Layer::SimVerdict, "analyze_fleet").self_ns;
    // The warm-up call is traced too.
    out.set1(
        "sim.verdict.analyze_self_ms_per_path",
        ratio(
            analysis_ns as f64 / 1e6,
            (paths * (times.traced.len() + 1)) as f64,
        ),
    );
    out.set1("sim.verdict.flagged_links", flagged as f64);
    out.set1("sim.verdict.false_accusations", count("false accusation"));
    out.set1("sim.verdict.missed_liars", count("liar not exposed"));
    crate::write_trace("fleet_verify", &spans);
    out
}
