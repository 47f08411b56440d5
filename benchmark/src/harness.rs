//! What every workload shares: options, the outcome a run reports,
//! repetition timing, set-up timing, and the fold from spans to the
//! per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spec;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{self, ratio, Kind, Layer, Span, Summary};

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Traced pass (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// ~1/20 of the work, every oracle still on.
    pub smoke: bool,
}

impl Opts {
    /// `full`, or `small` under `--smoke`. Work is fixed: these two are
    /// the only sizes a workload ever runs at.
    pub fn size(&self, full: usize, small: usize) -> usize {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

/// A metric value with the sample it is the median of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampled {
    /// The reported value (a median where `n > 1`).
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Sampled {
    /// A single measured or counted value.
    pub fn one(value: f64) -> Self {
        Sampled {
            value,
            n: 1,
            min: value,
            max: value,
        }
    }

    /// Median of `samples`, with their range.
    pub fn median_of(samples: &[f64]) -> Self {
        Sampled::percentile_of(samples, 50.0)
    }

    /// The `p`-th percentile of `samples`, with their range.
    pub fn percentile_of(samples: &[f64], p: f64) -> Self {
        Sampled {
            value: percentile(samples, p),
            n: samples.len(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Sampled>,
    /// Operations attempted (packets, frames, deliveries, verdicts).
    pub attempted: u64,
    /// Operations that failed, oracle disagreements included.
    pub failed: u64,
    /// One line per failed oracle.
    pub failures: Vec<String>,
    /// Facts about the run worth printing (counts, machine shape).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: Sampled) {
        debug_assert!(spec::unit_of(name).is_some(), "{name} is not in the spec");
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a single-valued metric.
    pub fn set1(&mut self, name: &str, value: f64) {
        self.set(name, Sampled::one(value));
    }

    /// An oracle: when `ok` is false, `ops` operations count as failed
    /// and the reason is kept.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops.max(1);
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// CPUs available to this process (workloads use at most 4).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per run: the driver's contract asks for several and their
/// median, so that one slow build does not read as a regression.
pub const SETUPS: usize = 5;

/// Build the workload's inputs [`SETUPS`] times (each build dropped
/// before the next, so peak memory holds one) and keep the last.
/// `setup_s` is the median wall-clock time of the builds.
pub fn timed_setup<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    out.set("setup_s", Sampled::median_of(&times));
    built.expect("SETUPS >= 1")
}

/// Steps of the clock probe.
const PROBE_STEPS: u32 = 50_000;

/// How fast the CPU runs right now: steps per nanosecond of a fixed
/// chain of dependent multiply-adds (no memory, ~0.1 ms; the faster of
/// two timings). Informational only — no reported time is scaled by it.
/// The reference box's vCPUs move between clock regimes that last
/// seconds to minutes (the probe reads 1.0, 0.8 or 0.7 there), and a
/// reader comparing two runs can see from `bench.clock_factor` whether
/// the box changed between them.
pub fn clock_factor() -> f64 {
    let fastest = (0..2)
        .map(|_| {
            let start = Instant::now();
            let mut s = 1u64;
            for _ in 0..PROBE_STEPS {
                // Opaque to the optimizer: each step waits for the last.
                s = std::hint::black_box(s)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            std::hint::black_box(s);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    f64::from(PROBE_STEPS) / fastest.max(1.0)
}

/// The stopwatch of one repetition. It starts when the repetition's
/// closure is entered; a closure that first does untimed preparation
/// restarts it when the measured work begins.
pub struct RepClock(Instant);

impl RepClock {
    /// Start measuring now: what the repetition did so far was untimed
    /// preparation.
    pub fn restart(&mut self) {
        self.0 = Instant::now();
    }
}

/// Wall-clock seconds of every timed repetition, split by whether
/// spans were recorded, and the clock probe taken before each.
#[derive(Debug, Default)]
pub struct RepTimes {
    /// Repetitions run with tracing off.
    pub plain: Vec<f64>,
    /// Repetitions run with tracing on (traced pass only).
    pub traced: Vec<f64>,
    /// [`clock_factor`] before every timed repetition.
    pub factors: Vec<f64>,
}

impl RepTimes {
    /// Ops per second on the wall clock: the median over the untraced
    /// repetitions of `ops_per_rep / seconds`, with the slowest and the
    /// fastest repetition as `min` / `max`.
    pub fn rate(&self, ops_per_rep: f64) -> Sampled {
        let rates: Vec<f64> = self.plain.iter().map(|s| ratio(ops_per_rep, *s)).collect();
        Sampled::median_of(&rates)
    }

    /// Median traced repetition over median untraced repetition, minus 1.
    pub fn trace_overhead(&self) -> f64 {
        if self.traced.is_empty() || self.plain.is_empty() {
            return 0.0;
        }
        median(&self.traced) / median(&self.plain) - 1.0
    }

    /// Repetitions timed, traced ones included.
    pub fn len(&self) -> usize {
        self.plain.len() + self.traced.len()
    }

    /// Note the clock probe's readings, and (in the traced pass) record
    /// their mean.
    pub fn note_clock(&self, out: &mut Outcome, opts: &Opts) {
        let all = Sampled::median_of(&self.factors);
        let mean = ratio(self.factors.iter().sum(), self.factors.len() as f64);
        out.notes.push(format!(
            "clock probe before each repetition: mean {mean:.3} steps/ns (min {:.3}, max {:.3}); informational, nothing is scaled by it",
            all.min, all.max
        ));
        if opts.trace {
            out.set1("bench.clock_factor", mean);
        }
    }
}

/// Run one untimed warm-up repetition and then `reps` timed ones of
/// equal work — always all of them, so two commits are measured over
/// the same work. In the traced pass the repetitions alternate between
/// tracing on and off (the warm-up is traced), so the same process
/// yields the spans and the overhead of recording them. `rep` gets the
/// repetition's index (warm-up = 0) and its stopwatch.
pub fn run_reps(opts: &Opts, reps: usize, mut rep: impl FnMut(usize, &mut RepClock)) -> RepTimes {
    assert!(reps >= 2, "the traced pass needs a repetition of each kind");
    let mut times = RepTimes::default();
    let mut timed = |i: usize| {
        let mut clock = RepClock(Instant::now());
        rep(i, &mut clock);
        clock.0.elapsed().as_secs_f64()
    };
    trace::set_enabled(opts.trace);
    timed(0);
    for i in 1..=reps {
        let traced = opts.trace && i % 2 == 1;
        times.factors.push(clock_factor());
        trace::set_enabled(traced);
        let secs = timed(i);
        if traced {
            times.traced.push(secs);
        } else {
            times.plain.push(secs);
        }
    }
    trace::set_enabled(false);
    times
}

/// Record the latency metrics of `samples_ms`, wall clock, taken in
/// consecutive stretches of `per_stretch` samples (a repetition, or a
/// hundred intervals of an open-loop schedule). Untraced: the median
/// over the stretches of each stretch's median, and of each stretch's
/// tail — the highest percentile that has ten samples beyond it in a
/// stretch, or the median again when a stretch supports no such
/// percentile (a workload with one sample a repetition). A stall of
/// the box, which an open loop charges to every interval it delays,
/// then spoils the stretch it falls in and not the run's tail; a delay
/// the program causes again and again is in every stretch. Traced: the
/// 99th percentile of all samples, for information.
pub fn latency_metrics(out: &mut Outcome, opts: &Opts, samples_ms: &[f64], per_stretch: usize) {
    let per_stretch = per_stretch.clamp(1, samples_ms.len().max(1));
    let stretches: Vec<&[f64]> = samples_ms.chunks_exact(per_stretch).collect();
    let tail = highest_supported_percentile(per_stretch);
    out.notes.push(format!(
        "latency: {} samples in {} stretches of {per_stretch}, the median stretch is reported; verdict_latency_tail_ms is {}",
        samples_ms.len(),
        stretches.len(),
        match tail {
            Some(p) => format!("p{p}, the highest percentile with ten samples beyond it in a stretch"),
            None => "the median: no percentile above it has ten samples beyond it".to_string(),
        }
    ));
    if opts.trace {
        out.set1("bench.verdict_latency_p99_ms", percentile(samples_ms, 99.0));
        return;
    }
    let median_stretch = |p: f64| {
        let of_each: Vec<f64> = stretches.iter().map(|s| percentile(s, p)).collect();
        Sampled {
            value: median(&of_each),
            ..Sampled::median_of(samples_ms)
        }
    };
    out.set("verdict_latency_p50_ms", median_stretch(50.0));
    out.set("verdict_latency_tail_ms", median_stretch(tail.unwrap_or(50.0)));
}

/// Fill every per-layer metric that is a plain fold of the spans.
/// `phases` selects the spans the time shares are computed over (the
/// throughput phase of a workload). Workload-specific counters are set
/// by the workload afterwards; every other per-layer name is 0.
pub fn layer_metrics(out: &mut Outcome, spans: &[Span], phases: &[u8]) {
    for m in &spec::spec().per_layer {
        out.metrics
            .entry(m.name.clone())
            .or_insert(Sampled::one(0.0));
    }
    let selfs = trace::self_times(spans);
    let all = Summary::of(spans, &selfs, &[]);
    let c = |layer, name| all.call(layer, name);

    out.set1("bench.gen_ns_per_pkt", c(Layer::Bench, "gen").ns_per_item());
    out.set1(
        "packet.digest_words_ns_per_pkt",
        c(Layer::Packet, "digest_words").ns_per_item(),
    );
    out.set1(
        "hash.digest_batch_ns_per_pkt",
        c(Layer::Hash, "digest_batch").ns_per_item(),
    );
    out.set1(
        "hash.hmac_sha256_mb_per_s",
        c(Layer::Hash, "hmac_sha256").mb_per_s(),
    );
    out.set1(
        "core.collector.classify_ns_per_pkt",
        c(Layer::CoreCollector, "classify").ns_per_item(),
    );
    out.set1(
        "core.collector.ingest_ns_per_pkt",
        c(Layer::CoreCollector, "ingest").ns_per_item(),
    );
    out.set1(
        "core.sharded.ingest_ns_per_pkt",
        c(Layer::CoreSharded, "ingest").ns_per_item(),
    );
    let report = c(Layer::CoreProcessor, "report");
    out.set1(
        "core.processor.report_ms_per_interval",
        report.us_per_call() / 1e3,
    );
    out.set1(
        "core.processor.receipts_per_interval",
        ratio(report.items as f64, report.count as f64),
    );
    let enc = c(Layer::WireCodec, "encode_signed");
    out.set1("wire.codec.encode_signed_us_per_frame", enc.us_per_call());
    out.set1("wire.codec.encode_signed_mb_per_s", enc.mb_per_s());
    out.set1(
        "wire.codec.decode_us_per_frame",
        c(Layer::WireCodec, "decode").us_per_call(),
    );
    out.set1(
        "wire.codec.verify_mac_us_per_frame",
        c(Layer::WireCodec, "verify_mac").us_per_call(),
    );
    out.set1(
        "wire.codec.frame_bytes_mean",
        ratio(enc.bytes as f64, enc.count as f64),
    );

    // Over TCP the transport's spans go to `wire.net`: the round trips
    // get their own metrics, and the calls are reported as the caller
    // sees them.
    let net = c(Layer::WireNet, "publish").count + c(Layer::WireNet, "poll").count > 0;
    let layer = if net {
        Layer::WireNet
    } else {
        Layer::WireTransport
    };
    if net {
        let p50 = |name| median(&trace::durations_us(spans, Layer::WireNet, name));
        out.set1("wire.net.publish_rtt_us_p50", p50("publish"));
        out.set1("wire.net.poll_rtt_us_p50", p50("poll"));
    }
    // A `publish_batch` call is one span: the trait's body (encode,
    // sign, publish) runs inside the transport. The codec's part of it
    // is the mean of the shadow `encode_signed` calls on the same
    // batches; what is left is the publish.
    let publish = c(layer, "publish");
    let batch = c(layer, "publish_batch");
    out.set1(
        "wire.transport.publish_us_per_frame",
        if batch.count > 0 {
            (batch.us_per_call() - enc.us_per_call()).max(0.0)
        } else {
            publish.us_per_call()
        },
    );
    let poll = c(layer, "poll");
    out.set1("wire.transport.poll_us_per_call", poll.us_per_call());
    out.set1(
        "wire.transport.poll_entries_per_call",
        ratio(poll.items as f64, poll.count as f64),
    );
    let fetch = c(layer, "fetch_path");
    out.set1("wire.transport.fetch_path_us_per_call", fetch.us_per_call());
    out.set1("wire.transport.fetch_path_mb_per_s", fetch.mb_per_s());
    let compact = c(layer, "compact_before");
    out.set1("wire.transport.compact_us_per_pass", compact.us_per_call());
    out.set1(
        "wire.transport.reclaimed_per_pass",
        ratio(compact.items as f64, compact.count as f64),
    );
    let frame_bytes = ratio(enc.bytes as f64, enc.count as f64);
    if frame_bytes < 1024.0 {
        out.set1("wire.transport.bytes_per_frame_small", frame_bytes);
    }

    out.set1(
        "wire.checkpoint.encode_us",
        c(Layer::WireCheckpoint, "encode").us_per_call(),
    );
    out.set1(
        "wire.checkpoint.restore_us",
        c(Layer::WireCheckpoint, "restore").us_per_call(),
    );
    let est = c(Layer::CoreVerify, "estimate_domain");
    out.set1(
        "core.verify.estimate_domain_us_per_path",
        ratio(est.dur_ns as f64 / 1e3, est.items as f64),
    );
    let link = c(Layer::CoreVerify, "check_link");
    out.set1(
        "core.verify.check_link_us_per_path",
        ratio(link.dur_ns as f64 / 1e3, link.items as f64),
    );
    let drain = c(Layer::SimAudit, "drain");
    out.set1(
        "sim.audit.drain_us_per_frame",
        ratio(drain.self_ns as f64 / 1e3, drain.items as f64),
    );
    let publish_interval = c(Layer::SimAudit, "publish_interval");
    out.set1(
        "sim.audit.publish_interval_us",
        ratio(
            publish_interval.self_ns as f64 / 1e3,
            publish_interval.count as f64,
        ),
    );

    // Time shares and the blocked share, over the throughput phase.
    let mut phase = Summary::of(spans, &selfs, phases);
    let in_batch = phase.call(layer, "publish_batch");
    phase.move_busy(
        layer,
        Layer::WireCodec,
        ((enc.us_per_call() * 1e3) as u64 * in_batch.count).min(in_batch.self_ns),
    );
    for layer in Layer::ALL {
        out.set1(
            &format!("{}.time_share", layer.name()),
            phase.layer_share(layer),
        );
    }
    let (busy, blocked): (u64, u64) = phase
        .threads
        .values()
        .fold((0, 0), |(b, w), t| (b + t.0, w + t.1));
    let wait = spans
        .iter()
        .filter(|s| {
            s.kind == Kind::Blocked
                && s.name == "wait"
                && (phases.is_empty() || phases.contains(&s.phase))
        })
        .map(Span::dur_ns)
        .sum::<u64>();
    out.set1(
        "wire.transport.wait_blocked_share",
        ratio(wait as f64, (busy + blocked) as f64),
    );
    // Whatever no span covers is the harness's glue: the root spans'
    // self time over the root spans' duration, all threads pooled.
    let (root_self, root_dur) = spans
        .iter()
        .filter(|s| s.parent == 0 && s.layer == Layer::Bench && s.name == "thread")
        .fold((0u64, 0u64), |(a, d), s| {
            (a + selfs.get(&s.id).copied().unwrap_or(0), d + s.dur_ns())
        });
    out.set1(
        "bench.harness_share",
        ratio(root_self as f64, root_dur as f64),
    );
}

/// The always-on transport counters, as per-layer metrics.
pub fn counter_metrics(out: &mut Outcome, c: &trace::TransportCounters) {
    use std::sync::atomic::Ordering::Relaxed;
    out.set1(
        "wire.transport.publish_refused",
        c.publish_refused.load(Relaxed) as f64,
    );
    out.set1(
        "wire.transport.empty_poll_ratio",
        ratio(
            c.empty_polls.load(Relaxed) as f64,
            c.polls.load(Relaxed) as f64,
        ),
    );
    out.set1(
        "wire.transport.wait_timeouts",
        c.wait_timeouts.load(Relaxed) as f64,
    );
    out.set1(
        "wire.net.reconnects",
        c.connection_errors.load(Relaxed) as f64,
    );
    out.set1(
        "wire.transport.retained_entries_peak",
        c.retained_peak.load(Relaxed) as f64,
    );
}

/// Run `f` as the body of a thread's root span: whatever inside it no
/// other span covers is the harness's own time.
pub fn thread_root<R>(f: impl FnOnce() -> R) -> R {
    trace::span(Layer::Bench, "thread", |_| f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_spoilt_stretch_leaves_the_latency_metrics_alone() {
        let opts = Opts {
            seed: 1,
            trace: false,
            smoke: false,
        };
        // Five stretches of 1..=100 ms; a stall then lifts the whole of
        // the third by a second.
        let mut samples: Vec<f64> = (0..500).map(|i| f64::from(i % 100 + 1)).collect();
        let report = |samples: &[f64]| {
            let mut out = Outcome::default();
            latency_metrics(&mut out, &opts, samples, 100);
            (
                out.metrics["verdict_latency_p50_ms"],
                out.metrics["verdict_latency_tail_ms"],
            )
        };
        let (p50, tail) = report(&samples);
        assert_eq!(p50.value, 50.5);
        assert!((tail.value - 90.1).abs() < 1e-9, "p90 of 1..=100");
        samples[200..300].iter_mut().for_each(|s| *s += 1000.0);
        let (p50_stalled, tail_stalled) = report(&samples);
        assert_eq!((p50_stalled.value, tail_stalled.value), (p50.value, tail.value));
        assert_eq!((tail_stalled.n, tail_stalled.max), (500, 1100.0));
        // Fewer samples than a stretch: one stretch, and no percentile
        // above the median is supported.
        let (p50, tail) = report(&samples[..40]);
        assert_eq!(p50.value, tail.value);
    }
}
