//! `audit_stream`: the `vpm audit` loop, rebuilt from public parts
//! over a traced bus.
//!
//! `Churn::new(64, seed)`; per interval `churn.step` →
//! `publish_interval` (four ~100 B frames per active path) →
//! `Auditor::drain` → `finish_interval`; `compact_before(next_seq)`
//! every 32 intervals; `checkpoint` + encode every 256; one
//! `shutdown` + `Auditor::restore` at the midpoint. One thread. A
//! repetition is 1024 intervals on a fresh bus.
//!
//! The oracle is `vpm_sim::audit::run_audit` on the same
//! configuration *without* the restart: every repetition's verdict
//! must serialize to the same bytes, so the loop here is the loop
//! there and the midpoint restore changes nothing.

use std::time::Instant;

use vpm_packet::DomainId;
use vpm_sim::audit::workload::{publish_interval, Churn};
use vpm_sim::audit::{run_audit, AuditConfig, AuditError, AuditVerdict, Auditor};
use vpm_wire::{AuditCheckpoint, ReceiptTransport, ShardedBus};

use super::note_machine;
use crate::harness::{
    counter_metrics, latency_metrics, layer_metrics, peak_rss_mb, run_reps, thread_root,
    timed_setup, Opts, Outcome,
};
use crate::trace::{self, ratio, Layer, TracedTransport};

/// The regulator's position: on-path for everything.
const REQUESTER: DomainId = DomainId(0);
/// What a lying slot adds to its egress counts (`run_audit`'s value;
/// any non-zero delta flags the same intervals).
const LIE_DELTA: u64 = 7;
/// A frame costs a few microseconds here, so the transport records a
/// span for one call in this many.
const SPAN_EVERY: u32 = 16;
/// Timed repetitions.
const REPS: usize = 16;
/// Intervals whose latencies make one stretch (see
/// `harness::latency_metrics`): four GC windows, and short enough that
/// a slow spell of the box spoils few of a run's 128 stretches.
const STRETCH: usize = 128;

/// Counts one pass of the loop reports besides its verdict.
#[derive(Default)]
struct Pass {
    publishes: u64,
    delivered: u64,
    delivered_bytes: u64,
    retained_peak: u64,
    checkpoint_bytes: usize,
    /// Per interval: publish → fold → finish, ms.
    interval_ms: Vec<f64>,
}

/// The audit loop of `run_audit`, with the midpoint restart, over a
/// fresh traced bus.
fn audit_pass(
    cfg: &AuditConfig,
) -> Result<(AuditVerdict, Pass, TracedTransport<ShardedBus>), AuditError> {
    let bus =
        TracedTransport::new(ShardedBus::new(cfg.shards), Layer::WireTransport).sampled(SPAN_EVERY);
    let mut churn = Churn::new(cfg.paths, cfg.seed);
    let mut auditor = Auditor::subscribe(&bus, REQUESTER)?;
    let mut pass = Pass::default();
    for t in 0..cfg.intervals {
        let started = Instant::now();
        trace::span(Layer::SimAudit, "churn_step", |_| churn.step(t));
        pass.publishes += trace::span(Layer::SimAudit, "publish_interval", |c| {
            let n = publish_interval(&bus, &churn, t, LIE_DELTA);
            c.items = *n.as_ref().unwrap_or(&0) as u64;
            n
        })? as u64;
        pass.delivered += trace::span(Layer::SimAudit, "drain", |c| {
            let n = auditor.drain(&bus);
            c.items = *n.as_ref().unwrap_or(&0) as u64;
            n
        })? as u64;
        trace::span(Layer::SimAudit, "finish_interval", |_| {
            auditor.finish_interval()
        })?;
        pass.interval_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if cfg.checkpoint_every > 0 && (t + 1) % cfg.checkpoint_every == 0 {
            pass.checkpoint_bytes = checkpoint(&auditor, &bus)?.len();
        }
        if cfg.restart_at == Some(t + 1) {
            let bytes = checkpoint(&auditor, &bus)?;
            auditor.shutdown(&bus);
            auditor = trace::span(Layer::WireCheckpoint, "restore", |c| {
                c.bytes = bytes.len() as u64;
                Auditor::restore(&bus, REQUESTER, &bytes)
            })?;
        }
        if cfg.gc_every > 0 && (t + 1) % cfg.gc_every == 0 {
            // Retention peaks right before a pass reclaims.
            bus.note_retained();
            bus.compact_before(auditor.next_seq())?;
        }
    }
    bus.note_retained();
    let verdict = auditor.verdict();
    auditor.shutdown(&bus);
    use std::sync::atomic::Ordering::Relaxed;
    pass.delivered_bytes = bus.counters.delivered_bytes.load(Relaxed);
    pass.retained_peak = bus.counters.retained_peak.load(Relaxed);
    Ok((verdict, pass, bus))
}

/// Snapshot the auditor and encode the snapshot.
fn checkpoint(auditor: &Auditor, bus: &dyn ReceiptTransport) -> Result<Vec<u8>, AuditError> {
    trace::span(Layer::WireCheckpoint, "encode", |c| {
        let cp: AuditCheckpoint = auditor.checkpoint(bus)?;
        let bytes = cp.encode()?;
        c.bytes = bytes.len() as u64;
        Ok(bytes)
    })
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    note_machine(&mut out, 1);
    let intervals = opts.size(1024, 128) as u64;
    let cfg = AuditConfig {
        paths: 64,
        intervals,
        shards: 8,
        gc_every: 32,
        checkpoint_every: 256,
        restart_at: None,
        seed: opts.seed,
        assert_flat: true,
    };

    // Set-up is the oracle: the library's own loop, without a restart.
    let reference = timed_setup(&mut out, || run_audit(&cfg));
    let reference_json = match &reference {
        Ok(r) => serde_json::to_string(&r.verdict).expect("a verdict serializes"),
        Err(e) => {
            out.check(false, intervals, || format!("run_audit failed: {e}"));
            String::new()
        }
    };

    let timed_cfg = AuditConfig {
        restart_at: Some(intervals / 2),
        ..cfg
    };
    let gc_window = (cfg.gc_every as usize * cfg.paths * 4) as u64;
    let mut last: Option<(Pass, TracedTransport<ShardedBus>)> = None;
    let mut latencies_ms = Vec::new();
    let (mut publishes, mut delivered) = (0u64, 0u64);
    let times = run_reps(opts, opts.size(REPS, 2), |rep, clock| {
        // Drop the previous repetition's bus before the clock starts.
        drop(last.take());
        clock.restart();
        let result = thread_root(|| audit_pass(&timed_cfg));
        match result {
            Ok((verdict, pass, bus)) => {
                let same = trace::span(Layer::Bench, "oracle", |_| {
                    serde_json::to_string(&verdict).expect("a verdict serializes") == reference_json
                });
                out.check(same, intervals, || {
                    format!(
                        "repetition {rep}: the verdict differs from run_audit's on the same config"
                    )
                });
                out.check(
                    pass.publishes == pass.delivered,
                    pass.publishes.abs_diff(pass.delivered),
                    || {
                        format!(
                            "repetition {rep}: {} frames published, {} folded",
                            pass.publishes, pass.delivered
                        )
                    },
                );
                out.check(pass.retained_peak <= gc_window, intervals, || {
                    format!(
                        "repetition {rep}: {} entries retained, more than one GC window of {gc_window}",
                        pass.retained_peak
                    )
                });
                publishes += pass.publishes;
                delivered += pass.delivered;
                if rep > 0 {
                    latencies_ms.extend_from_slice(&pass.interval_ms);
                }
                last = Some((pass, bus));
            }
            Err(e) => out.check(false, intervals, || format!("repetition {rep}: {e}")),
        }
    });
    out.attempted = publishes + delivered + (times.len() as u64 + 1) * intervals;
    let Some((pass, bus)) = last else {
        return out;
    };
    out.notes.push(format!(
        "{} passes of {intervals} intervals over 64 slots: {} frames per pass, {} B per frame, retained peak {} of a {gc_window}-entry GC window",
        times.len(),
        pass.publishes,
        ratio(pass.delivered_bytes as f64, pass.delivered as f64).round(),
        pass.retained_peak,
    ));

    times.note_clock(&mut out, opts);
    latency_metrics(&mut out, opts, &latencies_ms, STRETCH);
    if !opts.trace {
        out.set("ops_per_s", times.rate(intervals as f64));
        out.set1(
            "wire_bytes_per_op",
            ratio(pass.delivered_bytes as f64, intervals as f64),
        );
        out.set1("peak_rss_mb", peak_rss_mb());
        return out;
    }
    let spans = trace::take();
    layer_metrics(&mut out, &spans, &[]);
    counter_metrics(&mut out, &bus.counters);
    out.set1("bench.trace_overhead_ratio", times.trace_overhead());
    out.set1("wire.checkpoint.bytes", pass.checkpoint_bytes as f64);
    if let Ok(r) = &reference {
        out.set1(
            "sim.audit.flagged_intervals",
            r.verdict.flagged_intervals as f64,
        );
    }
    crate::write_trace("audit_stream", &spans);
    out
}
