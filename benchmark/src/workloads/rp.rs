//! `rp_inproc` and `rp_tcp`: the receipt plane alone.
//!
//! Set-up runs real 4-HOP chains — domain X in/out (HOPs 4, 5), the
//! X→Y link, domain Y in/out (HOPs 6, 7) — over 256 paths and keeps
//! the four `ReceiptBatch`es of each of 32 reporting intervals (~10
//! samples and ~1 aggregate per path and HOP; a ~64 KB precise frame
//! each). The timed part replays those intervals round-robin: the
//! publisher side does `encode_signed` → `publish` for the four
//! frames of an interval; the verifier side does `wait` → `poll` and,
//! on an interval's fourth frame, per path 2× `estimate_domain` and 1×
//! `check_link`, and emits the interval's verdict.
//!
//! Both phases run one client thread that is publisher and verifier in
//! turn, so a run never has more runnable threads than one and its
//! times do not depend on where the scheduler puts a second. Phase
//! `closed` — closed loop, one client: it publishes an interval's four
//! frames, takes them off the bus, judges them, and sends the next
//! interval as soon as that verdict is out; a repetition is the 32
//! intervals, and every stage's time is part of it. Phase `open` —
//! open loop: a 4-frame burst is due every 20 ms (50 intervals/s);
//! latency runs from the burst's due time to its verdict, so a burst
//! that had to wait for the one before carries that wait.
//!
//! `rp_inproc` uses one in-process `ShardedBus`. `rp_tcp` sends the
//! same frames on the same schedule through a `TcpServer` on
//! `127.0.0.1:0` with two `TcpTransport` connections. That is the
//! host's loopback interface, not a real link.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vpm_core::processor::ReceiptBatch;
use vpm_core::{HopConfig, HopPipeline, Ingest, Verifier};
use vpm_hash::{Digest, HopKey, KeyEpoch};
use vpm_packet::{DomainId, HopId, SimTime};
use vpm_wire::{
    Published, ReceiptTransport, ShardedBus, SubscriptionId, TcpServer, TcpTransport, WaitOutcome,
    WireEncoder,
};

use super::{by_path, loss_tolerance, note_machine, path_id, receipts, spec, udp_packet};
use crate::gen::lost;
use crate::harness::{
    counter_metrics, latency_metrics, layer_metrics, peak_rss_mb, run_reps, thread_root,
    timed_setup, Opts, Outcome,
};
use crate::stats::median;
use crate::trace::{self, ratio, Kind, Layer, Span, Summary, TracedTransport};

/// How the publisher and the verifier reach the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// The client calls one in-process `ShardedBus`.
    InProcess,
    /// The client has two `TcpTransport` connections to a `TcpServer`,
    /// one to publish on and one to verify from.
    Tcp,
}

const HOPS: [HopId; 4] = [HopId(4), HopId(5), HopId(6), HopId(7)];
const DOMAIN_X: DomainId = DomainId(2);
const DOMAIN_Y: DomainId = DomainId(3);
/// The neighbor that turns the receipts into verdicts.
const VERIFIER: DomainId = DomainId(4);
/// Publishing domain of each HOP.
const DOMAINS: [DomainId; 4] = [DOMAIN_X, DOMAIN_X, DOMAIN_Y, DOMAIN_Y];
/// Loss inside X and inside Y; the link between them loses nothing.
const LOSS: [f64; 2] = [0.01, 0.005];
/// Delay from HOP 4 to HOPs 5, 6, 7.
const DELAY_NS: [u64; 4] = [0, 300_000, 400_000, 900_000];
const SPACING_NS: u64 = 10_000;
const PKTS_PER_PATH: usize = 200;
const BURST_EVERY: Duration = Duration::from_millis(20);
const WAIT_TIMEOUT: Duration = Duration::from_secs(2);
/// Timed repetitions of phase `closed`, and intervals of phase `open`.
const CLOSED_REPS: usize = 40;
const OPEN_INTERVALS: usize = 500;
/// Intervals of phase `open` whose latencies make one stretch (see
/// `harness::latency_metrics`).
const OPEN_STRETCH: usize = 100;
const PHASE_CLOSED: u8 = 1;
const PHASE_OPEN: u8 = 2;
const PHASE_SHADOW: u8 = 9;
/// In the open phase the verifier compacts the bus every this many
/// intervals.
const GC_EVERY: u64 = 8;

fn hop_config(pos: usize) -> HopConfig {
    HopConfig::new(HOPS[pos], DOMAINS[pos])
        .with_marker_rate(0.01)
        .with_sampling_rate(0.04)
        .with_aggregate_size(PKTS_PER_PATH as u64)
}

/// What the verifier concludes about one interval. Set-up computes it
/// from the batches as reported; the timed verifier must reach the
/// same from what the transport delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct IntervalVerdict {
    sent: [u64; 2],
    lost: [i64; 2],
    matched: [u64; 2],
    joined: [u64; 2],
    in_samples: [u64; 2],
    in_aggs: [u64; 2],
    link_common: u64,
    link_inconsistencies: u64,
}

/// The verifier's work on one interval's four batches: per path, the
/// two domain estimates and the link check.
fn judge(verifier: &Verifier, batches: [&ReceiptBatch; 4]) -> IntervalVerdict {
    let maps = trace::span(Layer::Bench, "group", |_| batches.map(by_path));
    let mut v = IntervalVerdict::default();
    trace::span(Layer::CoreVerify, "estimate_domain", |c| {
        for (d, (up, down)) in [(&maps[0], &maps[1]), (&maps[2], &maps[3])]
            .into_iter()
            .enumerate()
        {
            c.items += up.len() as u64;
            for (spec, i) in up {
                let e = down.get(spec).copied().unwrap_or_default();
                let est = verifier.estimate_domain(i.samples, i.aggs, e.samples, e.aggs);
                v.in_samples[d] += i.samples.len() as u64;
                v.in_aggs[d] += i.aggs.len() as u64;
                v.matched[d] += est.matched_samples as u64;
                v.joined[d] += est.join.joined.len() as u64;
                for j in &est.join.joined {
                    v.sent[d] += j.up_cnt;
                    v.lost[d] += j.lost;
                }
            }
        }
    });
    trace::span(Layer::CoreVerify, "check_link", |c| {
        c.items = maps[1].len() as u64;
        for (spec, up) in &maps[1] {
            let down = maps[2].get(spec).copied().unwrap_or_default();
            let (Some(up_path), Some(down_path)) = (up.path, down.path) else {
                continue;
            };
            let report = verifier.check_link(
                &up_path,
                up.samples,
                up.aggs,
                &down_path,
                down.samples,
                down.aggs,
            );
            v.link_common += report.common_samples as u64;
            v.link_inconsistencies += report.inconsistencies.len() as u64;
        }
    });
    v
}

/// One reporting interval: the four HOPs' batches and the verdict a
/// correct verifier reaches on them.
struct Interval {
    batches: [ReceiptBatch; 4],
    expected: IntervalVerdict,
}

struct Inputs {
    intervals: Vec<Interval>,
    keys: [HopKey; 4],
    /// Packets dropped inside X and inside Y, and packets offered.
    dropped: [u64; 2],
    offered: u64,
}

fn build(opts: &Opts, paths: usize, intervals: usize) -> Inputs {
    let mut hops: Vec<HopPipeline> = (0..4)
        .map(|pos| {
            let mut hop = HopPipeline::new(hop_config(pos));
            for p in 0..paths {
                hop.register_path(path_id(spec(p), &HOPS, pos));
            }
            hop
        })
        .collect();
    let keys = [0, 1, 2, 3].map(|pos| hops[pos].processor.hop_key());
    let verifier = Verifier::default();
    let per_interval = paths * PKTS_PER_PATH;
    let mut dropped = [0u64; 2];
    let mut triples: [Vec<(usize, Digest, SimTime)>; 4] = Default::default();
    let built = (0..intervals as u64)
        .map(|k| {
            for chunk in (0..per_interval).collect::<Vec<_>>().chunks(4096) {
                triples.iter_mut().for_each(Vec::clear);
                for &i in chunk {
                    let p = i % paths;
                    let counter = k as u32 * PKTS_PER_PATH as u32 + (i / paths) as u32;
                    let digest = udp_packet(p, counter).digest();
                    let t0 = (k * per_interval as u64 + i as u64) * SPACING_NS;
                    let in_x = lost(opts.seed ^ 0x58, k, i as u64, LOSS[0]);
                    let in_y = !in_x && lost(opts.seed ^ 0x59, k, i as u64, LOSS[1]);
                    dropped[0] += u64::from(in_x);
                    dropped[1] += u64::from(in_y);
                    let reach = [true, !in_x, !in_x, !in_x && !in_y];
                    for pos in 0..4 {
                        if reach[pos] {
                            triples[pos].push((p, digest, SimTime::from_nanos(t0 + DELAY_NS[pos])));
                        }
                    }
                }
                for (hop, batch) in hops.iter_mut().zip(&triples) {
                    let report = hop.collector.ingest(batch);
                    assert!(report.is_clean(), "set-up feeds registered paths only");
                }
            }
            let batches = [0, 1, 2, 3].map(|pos| hops[pos].report());
            let expected = judge(
                &verifier,
                [&batches[0], &batches[1], &batches[2], &batches[3]],
            );
            Interval { batches, expected }
        })
        .collect();
    Inputs {
        intervals: built,
        keys,
        dropped,
        offered: (intervals * per_interval) as u64,
    }
}

/// The two ends of the link under test. In-process both are the same
/// bus; over TCP each is its own connection, and the server (with the
/// bus it fronts) lives as long as this does.
struct Ends {
    publisher: Arc<dyn Traced>,
    verifier: Arc<dyn Traced>,
    _server: Option<TcpServer>,
}

/// A traced transport whose counters can be read without knowing what
/// it wraps.
trait Traced: ReceiptTransport {
    fn counters(&self) -> &trace::TransportCounters;
}

impl<T: ReceiptTransport> Traced for TracedTransport<T> {
    fn counters(&self) -> &trace::TransportCounters {
        &self.counters
    }
}

fn connect(link: Link) -> Ends {
    match link {
        Link::InProcess => {
            let bus: Arc<dyn Traced> = Arc::new(TracedTransport::new(
                ShardedBus::new(4),
                Layer::WireTransport,
            ));
            Ends {
                publisher: Arc::clone(&bus),
                verifier: bus,
                _server: None,
            }
        }
        Link::Tcp => {
            let server = TcpServer::bind("127.0.0.1:0", Arc::new(ShardedBus::new(4)))
                .expect("loopback accepts an ephemeral listener");
            let client = || {
                let t = TcpTransport::connect(server.local_addr().to_string())
                    .expect("the server just bound is reachable");
                Arc::new(TracedTransport::new(t, Layer::WireNet)) as Arc<dyn Traced>
            };
            Ends {
                publisher: client(),
                verifier: client(),
                _server: Some(server),
            }
        }
    }
}

/// What the verifier side counts, over any number of intervals.
#[derive(Default)]
struct Tally {
    frames_published: u64,
    frame_bytes: u64,
    frames_delivered: u64,
    verdicts: u64,
    sample_records: u64,
    stats: IntervalVerdict,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what());
        }
    }
}

/// The verifier side: takes delivered entries one by one, checks the
/// sequence, and on an interval's fourth frame judges it against the
/// oracle's verdict for that interval.
struct Verifying<'a> {
    inp: &'a Inputs,
    checker: Verifier,
    pending: Vec<Arc<Published>>,
    tally: Tally,
}

impl<'a> Verifying<'a> {
    fn new(inp: &'a Inputs) -> Self {
        Verifying {
            inp,
            checker: Verifier::default(),
            pending: Vec::with_capacity(4),
            tally: Tally::default(),
        }
    }

    /// Take one delivered entry; `true` when it completed an interval
    /// and the verdict is out.
    fn deliver(&mut self, next_seq: &mut Option<u64>, p: Arc<Published>) -> bool {
        // Every seq exactly once, in order.
        if next_seq.is_some_and(|want| want != p.seq) {
            self.tally
                .fail(|| format!("delivered seq {} where {next_seq:?} was due", p.seq));
        }
        *next_seq = Some(p.seq + 1);
        self.tally.frames_delivered += 1;
        self.pending.push(p);
        let [a, b, c, d] = self.pending.as_slice() else {
            return false;
        };
        let got = judge(&self.checker, [&a.batch, &b.batch, &c.batch, &d.batch]);
        let index = self.tally.verdicts as usize;
        self.tally.verdicts += 1;
        trace::span(Layer::Bench, "oracle", |_| {
            let expected = &self.inp.intervals[index % self.inp.intervals.len()].expected;
            let hops_ok = self.pending.iter().zip(HOPS).all(|(p, hop)| p.hop == hop);
            if !hops_ok || got != *expected {
                self.tally.fail(|| {
                    format!(
                        "interval {index}: verdict {got:?} differs from the oracle's {expected:?}"
                    )
                });
            }
            self.tally.sample_records += self
                .pending
                .iter()
                .map(|p| p.batch.sample_records() as u64)
                .sum::<u64>();
            for d in 0..2 {
                self.tally.stats.in_samples[d] += got.in_samples[d];
                self.tally.stats.matched[d] += got.matched[d];
                self.tally.stats.in_aggs[d] += got.in_aggs[d];
                self.tally.stats.joined[d] += got.joined[d];
            }
        });
        self.pending.clear();
        true
    }

    /// `wait` → `poll` → [`Self::deliver`] until `verdicts` more
    /// intervals are judged; `on_verdict` runs after each. Gives up on
    /// a timeout or a transport error (counted as a failure).
    fn judge_next(
        &mut self,
        transport: &dyn ReceiptTransport,
        sub: SubscriptionId,
        next_seq: &mut Option<u64>,
        verdicts: u64,
        mut on_verdict: impl FnMut(&Tally),
    ) {
        let goal = self.tally.verdicts + verdicts;
        while self.tally.verdicts < goal {
            match transport.wait(sub, WAIT_TIMEOUT) {
                Ok(WaitOutcome::Ready) => {}
                other => {
                    let at = self.tally.verdicts;
                    self.tally.fail(|| {
                        format!("wait gave {other:?} with {at} of {goal} intervals judged")
                    });
                    return;
                }
            }
            match transport.poll(sub) {
                Ok(entries) => {
                    for p in entries {
                        if self.deliver(next_seq, p) {
                            on_verdict(&self.tally);
                        }
                    }
                }
                Err(e) => {
                    self.tally.fail(|| format!("poll failed: {e}"));
                    return;
                }
            }
        }
    }
}

/// The publisher side of one interval: `encode_signed` → `publish`
/// for its four frames.
fn publish_interval(
    inp: &Inputs,
    transport: &dyn ReceiptTransport,
    index: usize,
    tally: &mut Tally,
) {
    let interval = &inp.intervals[index % inp.intervals.len()];
    for ((batch, key), domain) in interval.batches.iter().zip(&inp.keys).zip(DOMAINS) {
        let frame = trace::span(Layer::WireCodec, "encode_signed", |c| {
            let f = WireEncoder::precise()
                .encode_signed(batch, key, KeyEpoch(0))
                .expect("a batch a collector drained encodes");
            c.items = 1;
            c.bytes = f.len() as u64;
            f
        });
        tally.frame_bytes += frame.len() as u64;
        match transport.publish(domain, frame, vec![DOMAIN_X, DOMAIN_Y, VERIFIER]) {
            Ok(_) => tally.frames_published += 1,
            Err(e) => tally.fail(|| format!("publish refused: {e}")),
        }
    }
}

/// What a phase reports besides its tally.
struct Schedule {
    tally: Tally,
    /// When each interval's verdict was emitted.
    verdict_at: Vec<Instant>,
    late_ms_max: f64,
    /// Frames the schedule is behind by when it ends.
    backlog_frames: u64,
}

/// `count` intervals through one client thread: it publishes an
/// interval's four frames and then takes them off the bus and judges
/// them. With `paced_from` (phase `open`) interval `i` is due at
/// `paced_from + i × BURST_EVERY`: the thread busy-waits until then
/// (a sleeping vCPU of a shared guest wakes 0.05 to 2 ms late and
/// cold, which is the host's time and not the pipeline's), or starts
/// at once when the interval is already overdue, and compacts the bus
/// as it goes. Without (phase `closed`) it sends the next
/// interval as soon as the verdict of the one before is out.
///
/// The backlog is the frames published and not judged, plus four for
/// every whole burst period by which the schedule's median burst
/// started late: under a rate the pipeline cannot sustain the lateness
/// grows with every burst and the median burst is late by half of what
/// the last one is; a stall of the box, which delays the bursts behind
/// it until the client has caught up, does not move the median.
fn one_client(
    inp: &Inputs,
    ends: &Ends,
    sub: SubscriptionId,
    next_seq: &mut Option<u64>,
    count: usize,
    paced_from: Option<Instant>,
) -> Schedule {
    thread_root(|| {
        let mut verifying = Verifying::new(inp);
        let mut published = Tally::default();
        let mut verdict_at = Vec::with_capacity(count);
        let mut late_ms = Vec::with_capacity(count);
        for i in 0..count {
            if let Some(start) = paced_from {
                let due = start + BURST_EVERY * i as u32;
                trace::span_kind(Layer::Bench, Kind::Blocked, "pace", |_| {
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                });
                late_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            }
            publish_interval(inp, &*ends.publisher, i, &mut published);
            verifying.judge_next(&*ends.verifier, sub, next_seq, 1, |tally| {
                verdict_at.push(Instant::now());
                // Reclaim what is judged, a few intervals at a time,
                // so the bus stays small over the schedule.
                if paced_from.is_some() && tally.verdicts % GC_EVERY == 0 {
                    let _ = ends.verifier.compact_before(4 * tally.verdicts);
                }
            });
        }
        let mut tally = verifying.tally;
        let bursts_behind = (median(&late_ms) / (BURST_EVERY.as_secs_f64() * 1e3)) as u64;
        let backlog_frames =
            published.frames_published.saturating_sub(4 * tally.verdicts) + 4 * bursts_behind;
        tally.frames_published = published.frames_published;
        tally.frame_bytes = published.frame_bytes;
        tally.failed += published.failed;
        tally.failures.extend(published.failures);
        Schedule {
            tally,
            verdict_at,
            late_ms_max: late_ms.iter().copied().fold(0.0, f64::max),
            backlog_frames,
        }
    })
}

/// Fold one tally into the run's outcome and totals. `count` intervals
/// were due: 4 publishes, 4 deliveries and 1 verdict each.
fn absorb(out: &mut Outcome, sums: &mut Tally, t: Tally, count: usize, phase: &str) {
    out.attempted += 9 * count as u64;
    // Whatever was due and did not happen failed, on top of what was
    // seen to fail.
    let missing = (4 * count as u64).saturating_sub(t.frames_delivered)
        + (count as u64).saturating_sub(t.verdicts);
    out.failed += t.failed + missing;
    for f in t.failures {
        if out.failures.len() < 20 {
            out.failures.push(format!("{phase}: {f}"));
        }
    }
    sums.frames_published += t.frames_published;
    sums.frame_bytes += t.frame_bytes;
    sums.sample_records += t.sample_records;
    for d in 0..2 {
        sums.stats.in_samples[d] += t.stats.in_samples[d];
        sums.stats.matched[d] += t.stats.matched[d];
        sums.stats.in_aggs[d] += t.stats.in_aggs[d];
        sums.stats.joined[d] += t.stats.joined[d];
    }
}

/// A fresh link with the HOPs' keys registered and the verifier
/// subscribed.
fn open_link(inp: &Inputs, link: Link) -> (Ends, SubscriptionId) {
    let ends = connect(link);
    for (hop, key) in HOPS.iter().zip(&inp.keys) {
        ends.publisher
            .register_key(*hop, *key)
            .expect("a fresh bus accepts a first key");
    }
    let sub = ends.verifier.subscribe(VERIFIER);
    (ends, sub)
}

pub fn run(opts: &Opts, link: Link) -> Outcome {
    let name = match link {
        Link::InProcess => "rp_inproc",
        Link::Tcp => "rp_tcp",
    };
    let mut out = Outcome::default();
    let paths = opts.size(256, 32);
    let intervals = opts.size(32, 8);
    // One client thread; over TCP also the server-side handler threads
    // of its two connections, of which one runs at a time.
    note_machine(&mut out, if link == Link::Tcp { 3 } else { 1 });
    if link == Link::Tcp {
        out.notes
            .push("traffic crosses the host's loopback interface, not a real link".to_string());
    }

    let inp = timed_setup(&mut out, || build(opts, paths, intervals));
    let receipts_per_rep: u64 = inp
        .intervals
        .iter()
        .flat_map(|i| i.batches.iter().map(receipts))
        .sum();
    let mut bytes_per_rep = 0u64;

    // The inputs' own oracle: the receipts as reported must show the
    // loss that was injected, and a consistent link.
    let mut total = IntervalVerdict::default();
    for i in &inp.intervals {
        for d in 0..2 {
            total.sent[d] += i.expected.sent[d];
            total.lost[d] += i.expected.lost[d];
        }
        total.link_inconsistencies += i.expected.link_inconsistencies;
        total.link_common += i.expected.link_common;
    }
    for d in 0..2 {
        let entering = if d == 0 {
            inp.offered
        } else {
            inp.offered - inp.dropped[0]
        };
        let realized = ratio(inp.dropped[d] as f64, entering as f64);
        let observed = ratio(total.lost[d] as f64, total.sent[d] as f64);
        let tolerance = loss_tolerance(realized, total.sent[d]);
        out.check((observed - realized).abs() <= tolerance, intervals as u64, || {
            format!("domain {d}: receipts show loss {observed:.5}, injected {realized:.5} (tolerance {tolerance:.5})")
        });
    }
    out.check(
        total.link_inconsistencies == 0 && total.link_common > 0,
        intervals as u64,
        || {
            format!(
                "the honest X→Y link shows {} inconsistencies over {} common samples",
                total.link_inconsistencies, total.link_common
            )
        },
    );

    let (ends, sub) = open_link(&inp, link);
    let mut next_seq = None;
    let mut sums = Tally::default();

    // Phase `closed`.
    trace::set_phase(PHASE_CLOSED);
    let closed_times = run_reps(opts, opts.size(CLOSED_REPS, 3), |_, clock| {
        // Reclaim the previous repetition's frames, untimed: the bus
        // holds one repetition at a time and memory stays flat.
        if let Some(seq) = next_seq {
            let _ = ends.verifier.compact_before(seq);
        }
        clock.restart();
        let tally = one_client(&inp, &ends, sub, &mut next_seq, intervals, None).tally;
        bytes_per_rep = tally.frame_bytes;
        absorb(&mut out, &mut sums, tally, intervals, "closed");
    });

    // Phase `open`: 50 intervals/s, on a fresh link so sequence
    // numbers start at 0.
    drop(ends);
    let (ends, sub) = open_link(&inp, link);
    let mut next_seq = None;
    trace::set_phase(PHASE_OPEN);
    trace::set_enabled(opts.trace);
    let open_intervals = opts.size(OPEN_INTERVALS, 50);
    let start = Instant::now() + Duration::from_millis(5);
    let open = one_client(&inp, &ends, sub, &mut next_seq, open_intervals, Some(start));
    trace::set_enabled(false);
    let latencies_ms: Vec<f64> = open
        .verdict_at
        .iter()
        .enumerate()
        .map(|(i, at)| {
            at.duration_since(start + BURST_EVERY * i as u32)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    // A burst or more behind when the schedule ends means the fixed
    // rate is not sustainable.
    out.check(open.backlog_frames < 4, open_intervals as u64, || {
        format!(
            "open loop fell behind: {} frames behind when the schedule ended",
            open.backlog_frames
        )
    });
    out.notes.push(format!(
        "closed: {} repetitions of {intervals} intervals ({receipts_per_rep} receipts); open: {open_intervals} intervals at 50/s, generator late by at most {:.3} ms, backlog {} frames",
        closed_times.len(),
        open.late_ms_max,
        open.backlog_frames
    ));
    absorb(&mut out, &mut sums, open.tally, open_intervals, "open");

    closed_times.note_clock(&mut out, opts);
    latency_metrics(&mut out, opts, &latencies_ms, OPEN_STRETCH);
    if !opts.trace {
        out.set("ops_per_s", closed_times.rate(receipts_per_rep as f64));
        out.set1(
            "wire_bytes_per_op",
            ratio(bytes_per_rep as f64, receipts_per_rep as f64),
        );
        out.set1("peak_rss_mb", peak_rss_mb());
        return out;
    }

    // `rp_tcp` only: a few in-process repetitions of the same frames,
    // so the trace holds both sides of `tcp − inproc`.
    let spans = trace::take();
    let shadow = if link == Link::Tcp {
        trace::set_phase(PHASE_SHADOW);
        let (local, sub) = open_link(&inp, Link::InProcess);
        let mut seq = None;
        trace::set_enabled(true);
        for _ in 0..3 {
            let tally = one_client(&inp, &local, sub, &mut seq, intervals, None).tally;
            absorb(&mut out, &mut sums, tally, intervals, "shadow");
        }
        trace::set_enabled(false);
        trace::take()
    } else {
        Vec::new()
    };

    layer_metrics(&mut out, &spans, &[PHASE_CLOSED]);
    counter_metrics(&mut out, ends.verifier.counters());
    out.set1(
        "wire.transport.publish_refused",
        ends.publisher
            .counters()
            .publish_refused
            .load(Ordering::Relaxed) as f64,
    );
    out.set1("bench.trace_overhead_ratio", closed_times.trace_overhead());
    out.set1("bench.generator_late_ms_max", open.late_ms_max);
    out.set1("bench.open_backlog_frames", open.backlog_frames as f64);
    out.set1(
        "core.processor.sample_records_per_interval",
        ratio(sums.sample_records as f64, sums.frames_published as f64),
    );
    out.set1(
        "wire.codec.bytes_per_sample",
        ratio(sums.frame_bytes as f64, sums.sample_records as f64),
    );
    let s = &sums.stats;
    out.set1(
        "core.verify.matched_ratio",
        ratio(
            (s.matched[0] + s.matched[1]) as f64,
            (s.in_samples[0] + s.in_samples[1]) as f64,
        ),
    );
    out.set1(
        "core.verify.joined_ratio",
        ratio(
            (s.joined[0] + s.joined[1]) as f64,
            (s.in_aggs[0] + s.in_aggs[1]) as f64,
        ),
    );
    if link == Link::Tcp {
        let per_frame = |spans: &[Span], layer: Layer, phase: u8| {
            let sum = Summary::of(spans, &trace::self_times(spans), &[phase]);
            let publish = sum.call(layer, "publish");
            ratio(
                (publish.dur_ns + sum.call(layer, "poll").dur_ns) as f64 / 1e3,
                publish.count as f64,
            )
        };
        out.set1(
            "wire.net.overhead_us_per_frame",
            per_frame(&spans, Layer::WireNet, PHASE_CLOSED)
                - per_frame(&shadow, Layer::WireTransport, PHASE_SHADOW),
        );
    }
    crate::write_trace(name, &spans);
    out
}
