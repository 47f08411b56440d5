//! `dp_zipf100k`: the data plane at the paper's §7.1 scale.
//!
//! One domain with an ingress and an egress HOP, 100 000 registered
//! `/32`-pair paths, packets drawn Zipf(1) over them, 400 B UDP, 1 %
//! sampling, 1000-packet aggregates, batches of 4096. The egress HOP
//! sees a seeded 1 % loss and +300 µs. A pool of packets built in
//! set-up is replayed once per pass with each packet's identity
//! advanced, so no digest ever repeats; the stream is continuous
//! across passes (aggregates stay open over a pass boundary).
//!
//! Phase `single`: every pass is one reporting interval — digest →
//! classify → ingest at both HOPs, then `report` → `encode_signed` →
//! `publish` → `poll` → per-path `estimate_domain`. Phase `sharded`:
//! the same stream into `ShardedCollector`s up to `report`; its
//! batches must be byte-identical to phase `single`'s.

use std::time::Instant;

use vpm_core::processor::ReceiptBatch;
use vpm_core::{Collector, HopConfig, HopPipeline, Ingest, Processor, ShardedCollector, Verifier};
use vpm_hash::{Digest, KeyEpoch, DEFAULT_DIGEST_SEED};
use vpm_packet::{DomainId, HopId, Packet, SimDuration, SimTime, DIGEST_INPUT_WORDS};
use vpm_wire::{ReceiptTransport, ShardedBus, WireEncoder};

use super::{
    by_path, loss_tolerance, note_machine, path_id, receipts, set_identity, spec, udp_packet,
};
use crate::gen::{lost, permutation, SplitMix, Zipf};
use crate::harness::{
    cores, counter_metrics, latency_metrics, layer_metrics, peak_rss_mb, run_reps, thread_root,
    timed_setup, Opts, Outcome,
};
use crate::stats::median;
use crate::trace::{self, ratio, Layer, TracedTransport};

const HOPS: [HopId; 2] = [HopId(4), HopId(5)];
const DOMAIN: DomainId = DomainId(2);
/// The neighbor that turns the receipts into a verdict.
const VERIFIER: DomainId = DomainId(3);
const BATCH: usize = 4096;
const LOSS: f64 = 0.01;
const DELAY: SimDuration = SimDuration(300_000);
/// Packets are offered 10 µs apart (100 kpps).
const SPACING_NS: u64 = 10_000;
/// Timed passes of phase `single` and of phase `sharded` (which
/// compares each of its passes with the same pass of `single`).
const SINGLE_PASSES: usize = 32;
const SHARDED_PASSES: usize = 4;
const PHASE_SINGLE: u8 = 1;
const PHASE_SHARDED: u8 = 2;

type Triple = (usize, Digest, SimTime);

fn hop_config(hop: HopId) -> HopConfig {
    HopConfig::new(hop, DOMAIN)
        .with_sampling_rate(0.01)
        .with_aggregate_size(1000)
}

/// Everything set-up builds.
struct Inputs {
    pool: Vec<Packet>,
    /// Per pool packet: its index among its path's packets of a pass.
    occ: Vec<u32>,
    /// Per pool packet: its path's packets per pass.
    per_pass: Vec<u32>,
    single: [HopPipeline; 2],
    sharded: [(ShardedCollector, Processor); 2],
    bus: TracedTransport<ShardedBus>,
    pkts_per_path_run: f64,
    shard_skew: f64,
    gen_secs: f64,
    /// Share of the traffic the 200 heaviest paths carry.
    top200_share: f64,
}

fn build(opts: &Opts, paths: usize, pool_len: usize, shards: usize) -> Inputs {
    let gen_start = Instant::now();
    let zipf = Zipf::new(paths);
    let mut rng = SplitMix::new(opts.seed, 0xd9);
    let rank_to_path = permutation(paths, &mut rng);
    let mut count = vec![0u32; paths];
    let mut path_of = Vec::with_capacity(pool_len);
    let mut occ = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        let p = rank_to_path[zipf.sample(&mut rng)] as usize;
        occ.push(count[p]);
        count[p] += 1;
        path_of.push(p as u32);
    }
    let pool: Vec<Packet> = path_of
        .iter()
        .zip(&occ)
        .map(|(&p, &c)| udp_packet(p as usize, c))
        .collect();
    let per_pass: Vec<u32> = path_of.iter().map(|&p| count[p as usize]).collect();
    let gen_secs = gen_start.elapsed().as_secs_f64();

    let mut single = [
        HopPipeline::new(hop_config(HOPS[0])),
        HopPipeline::new(hop_config(HOPS[1])),
    ];
    let mut sharded = [0, 1].map(|pos| {
        (
            ShardedCollector::new(hop_config(HOPS[pos]), shards),
            Processor::new(HOPS[pos]),
        )
    });
    for p in 0..paths {
        let s = spec(p);
        for pos in 0..2 {
            single[pos].register_path(path_id(s, &HOPS, pos));
            sharded[pos].0.register_path(path_id(s, &HOPS, pos));
        }
    }

    // Amortization and skew are properties of the input alone: mean
    // packets per distinct path in a batch, and the largest per-shard
    // sub-batch over the mean one.
    let mut stamp = vec![u32::MAX; paths];
    let (mut distinct, mut skew_sum, mut batches) = (0u64, 0.0, 0u32);
    for (b, chunk) in path_of.chunks(BATCH).enumerate() {
        let mut per_shard = vec![0u32; shards];
        for &p in chunk {
            if stamp[p as usize] != b as u32 {
                stamp[p as usize] = b as u32;
                distinct += 1;
            }
            if let Some(s) = sharded[0].0.shard_of(p as usize) {
                per_shard[s] += 1;
            }
        }
        let max = per_shard.iter().copied().max().unwrap_or(0);
        skew_sum += ratio(f64::from(max) * shards as f64, chunk.len() as f64);
        batches += 1;
    }

    let bus = TracedTransport::new(ShardedBus::new(4), Layer::WireTransport);
    for hop in &single {
        bus.register_key(hop.config.hop, hop.processor.hop_key())
            .expect("a fresh bus accepts a first key");
    }
    Inputs {
        pool,
        occ,
        per_pass,
        single,
        sharded,
        bus,
        pkts_per_path_run: ratio(pool_len as f64, distinct as f64),
        shard_skew: ratio(skew_sum, f64::from(batches)),
        gen_secs,
        top200_share: zipf.top_share(200),
    }
}

/// Scratch buffers of one HOP's per-batch work.
#[derive(Default)]
struct Scratch {
    blocks: Vec<[u32; DIGEST_INPUT_WORDS]>,
    digests: Vec<Digest>,
    triples: Vec<Triple>,
}

/// The first half of one HOP's data plane over one batch:
/// digest-input extraction, multi-lane digest, and classification of
/// `picked` pool packets against `classifier`'s path table.
fn digest_and_classify(
    scratch: &mut Scratch,
    packets: &[Packet],
    picked: &[u32],
    time_of: impl Fn(u32) -> SimTime,
    classifier: &Collector,
    tally: &mut Tally,
) {
    let n = picked.len() as u64;
    scratch.blocks.clear();
    trace::span(Layer::Packet, "digest_words", |c| {
        c.items = n;
        scratch
            .blocks
            .extend(picked.iter().map(|&i| packets[i as usize].digest_words()));
    });
    scratch.digests.clear();
    trace::span(Layer::Hash, "digest_batch", |c| {
        c.items = n;
        vpm_hash::digest_batch(&scratch.blocks, DEFAULT_DIGEST_SEED, &mut scratch.digests);
    });
    scratch.triples.clear();
    trace::span(Layer::CoreCollector, "classify", |c| {
        c.items = n;
        for (&i, &d) in picked.iter().zip(&scratch.digests) {
            match classifier.classify(&packets[i as usize]) {
                Some(idx) => scratch.triples.push((idx, d, time_of(i))),
                None => tally.unclassified += 1,
            }
        }
    });
}

/// The second half: the classified batch into the collector plane
/// (`layer` says which one, single-core or sharded).
fn ingest(scratch: &Scratch, layer: Layer, plane: &mut dyn Ingest, tally: &mut Tally) {
    let report = trace::span(layer, "ingest", |c| {
        c.items = scratch.triples.len() as u64;
        plane.ingest(&scratch.triples)
    });
    tally.ingested += report.accepted;
    tally.rejected += report.rejected();
}

/// Operation counts of the run.
#[derive(Default)]
struct Tally {
    offered: u64,
    dropped: u64,
    ingested: u64,
    unclassified: u64,
    rejected: u64,
    frames: u64,
    frame_bytes: u64,
    delivered: u64,
    verdicts: u64,
}

/// What the per-path estimates of the run add up to.
#[derive(Default)]
struct Verdict {
    joined_sent: u64,
    joined_lost: i64,
    inconsistencies: u64,
    delays_ms: Vec<f64>,
    in_samples: u64,
    matched: u64,
    in_aggs: u64,
    joined: u64,
    sample_records: u64,
}

/// Advance the identities of one batch and pick the egress survivors.
fn generate(
    inp: &mut Inputs,
    seed: u64,
    pass: u64,
    lo: usize,
    hi: usize,
    survivors: &mut Vec<u32>,
) {
    trace::span(Layer::Bench, "gen", |c| {
        c.items = (hi - lo) as u64;
        survivors.clear();
        for i in lo..hi {
            let counter = (pass as u32)
                .wrapping_mul(inp.per_pass[i])
                .wrapping_add(inp.occ[i]);
            set_identity(&mut inp.pool[i], counter);
            if !lost(seed, pass, i as u64, LOSS) {
                survivors.push(i as u32);
            }
        }
    });
}

/// The two batches of a pass, as the bytes the oracle compares.
fn batch_fingerprint(batches: &[ReceiptBatch; 2]) -> [u8; 32] {
    let mut h = vpm_hash::Sha256::new();
    for b in batches {
        let frame = WireEncoder::precise()
            .encode(b)
            .expect("a batch a collector drained encodes");
        h.update(frame.as_bytes());
    }
    h.finalize()
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let paths = opts.size(100_000, 5_000);
    let pool_len = opts.size(128, 8) * BATCH;
    let shards = cores().min(4);
    note_machine(&mut out, shards.max(1));

    let mut inp = timed_setup(&mut out, || build(opts, paths, pool_len, shards));
    out.notes.push(format!(
        "{paths} paths (top 200 carry {:.1} % of the traffic), {pool_len} packets/pass, batch {BATCH}, {shards} shards; pool generation {:.3} s of set-up",
        inp.top200_share * 100.0,
        inp.gen_secs
    ));

    let verifier = Verifier::default();
    let sub = inp.bus.subscribe(VERIFIER);
    let keys = [
        inp.single[0].processor.hop_key(),
        inp.single[1].processor.hop_key(),
    ];
    let mut tally = Tally::default();
    let mut verdict = Verdict::default();
    let mut latencies_ms = Vec::new();
    let mut fingerprints: Vec<[u8; 32]> = Vec::new();
    let mut scratch = [Scratch::default(), Scratch::default()];
    let mut everyone: Vec<u32> = Vec::with_capacity(BATCH);
    let mut survivors: Vec<u32> = Vec::with_capacity(BATCH);
    let time_in = |pass: u64, i: u32| {
        SimTime::from_nanos((pass * pool_len as u64 + u64::from(i)) * SPACING_NS)
    };

    // Phase `single`: digest → verdict, one reporting interval a pass.
    trace::set_phase(PHASE_SINGLE);
    let single_reps = opts.size(SINGLE_PASSES, 3);
    let single_times = run_reps(opts, single_reps, |pass, _| {
        let pass = pass as u64;
        thread_root(|| {
            for lo in (0..pool_len).step_by(BATCH) {
                let hi = (lo + BATCH).min(pool_len);
                generate(&mut inp, opts.seed, pass, lo, hi, &mut survivors);
                everyone.clear();
                everyone.extend(lo as u32..hi as u32);
                tally.offered += (hi - lo) as u64;
                tally.dropped += (hi - lo - survivors.len()) as u64;
                for (pos, picked) in [&everyone, &survivors].into_iter().enumerate() {
                    let delay = if pos == 0 { SimDuration(0) } else { DELAY };
                    let hop = &mut inp.single[pos];
                    digest_and_classify(
                        &mut scratch[pos],
                        &inp.pool,
                        picked,
                        |i| time_in(pass, i) + delay,
                        &hop.collector,
                        &mut tally,
                    );
                    ingest(
                        &scratch[pos],
                        Layer::CoreCollector,
                        &mut hop.collector,
                        &mut tally,
                    );
                }
            }
            let closed = Instant::now();
            let batches = inp.single.each_mut().map(|hop| {
                trace::span(Layer::CoreProcessor, "report", |c| {
                    let b = hop.report();
                    c.items = receipts(&b);
                    b
                })
            });
            for (batch, key) in batches.iter().zip(&keys) {
                let frame = trace::span(Layer::WireCodec, "encode_signed", |c| {
                    let f = WireEncoder::precise()
                        .encode_signed(batch, key, KeyEpoch(0))
                        .expect("a batch a collector drained encodes");
                    c.items = 1;
                    c.bytes = f.len() as u64;
                    f
                });
                tally.frames += 1;
                tally.frame_bytes += frame.len() as u64;
                let sent = inp.bus.publish(DOMAIN, frame, vec![DOMAIN, VERIFIER]);
                out.check(sent.is_ok(), 1, || format!("publish refused: {sent:?}"));
            }
            let entries = inp.bus.poll(sub).unwrap_or_default();
            tally.delivered += entries.len() as u64;
            out.check(entries.len() == 2, 2, || {
                format!("pass {pass}: polled {} frames, published 2", entries.len())
            });
            if let [up, down] = entries.as_slice() {
                out.check(
                    up.batch == batches[0] && down.batch == batches[1],
                    2,
                    || format!("pass {pass}: delivered batches differ from the reported ones"),
                );
                estimate_paths(&verifier, &up.batch, &down.batch, &mut verdict);
                tally.verdicts += 1;
            }
            if pass > 0 {
                latencies_ms.push(closed.elapsed().as_secs_f64() * 1e3);
            }
            let fp = trace::span(Layer::Bench, "oracle", |_| batch_fingerprint(&batches));
            fingerprints.push(fp);
            verdict.sample_records += batches
                .iter()
                .map(|b| b.sample_records() as u64)
                .sum::<u64>();
        });
    });

    // Phase `sharded`: the same stream from pass 0 into the sharded
    // collectors, up to `report`.
    trace::set_phase(PHASE_SHARDED);
    let sharded_reps = opts.size(SHARDED_PASSES, 2);
    let (mut compared, mut mismatched) = (0u64, 0u64);
    let mut sharded_tally = Tally::default();
    let sharded_times = run_reps(opts, sharded_reps, |pass, _| {
        let pass_u = pass as u64;
        thread_root(|| {
            for lo in (0..pool_len).step_by(BATCH) {
                let hi = (lo + BATCH).min(pool_len);
                generate(&mut inp, opts.seed, pass_u, lo, hi, &mut survivors);
                everyone.clear();
                everyone.extend(lo as u32..hi as u32);
                for (pos, picked) in [&everyone, &survivors].into_iter().enumerate() {
                    let delay = if pos == 0 { SimDuration(0) } else { DELAY };
                    digest_and_classify(
                        &mut scratch[pos],
                        &inp.pool,
                        picked,
                        |i| time_in(pass_u, i) + delay,
                        &inp.single[pos].collector,
                        &mut sharded_tally,
                    );
                    ingest(
                        &scratch[pos],
                        Layer::CoreSharded,
                        &mut inp.sharded[pos].0,
                        &mut sharded_tally,
                    );
                }
            }
            let batches = inp.sharded.each_mut().map(|(collector, processor)| {
                trace::span(Layer::CoreProcessor, "report", |c| {
                    let b = processor.report(collector);
                    c.items = receipts(&b);
                    b
                })
            });
            // A pass the single phase did not run has nothing to be
            // identical to, and fails.
            let same = trace::span(Layer::Bench, "oracle", |_| {
                fingerprints.get(pass) == Some(&batch_fingerprint(&batches))
            });
            compared += 1;
            if !same {
                mismatched += 1;
            }
        });
    });

    // Oracles.
    let offered = tally.offered;
    let realized_loss = ratio(tally.dropped as f64, offered as f64);
    let observed_loss = ratio(verdict.joined_lost as f64, verdict.joined_sent as f64);
    let tolerance = loss_tolerance(realized_loss, verdict.joined_sent);
    out.check((observed_loss - realized_loss).abs() <= tolerance, tally.verdicts, || {
        format!(
            "loss from joined aggregates {observed_loss:.5} is not within {tolerance:.5} of the injected {realized_loss:.5}"
        )
    });
    let median_delay_ms = median(&verdict.delays_ms);
    out.check(
        (median_delay_ms - 0.3).abs() <= 0.001,
        tally.verdicts,
        || format!("median matched-sample delay {median_delay_ms} ms, injected 0.3 ms"),
    );
    out.check(
        verdict.inconsistencies == 0,
        verdict.inconsistencies,
        || {
            format!(
                "{} inconsistent per-path estimates",
                verdict.inconsistencies
            )
        },
    );
    out.check(mismatched == 0, mismatched, || {
        format!(
            "{mismatched} sharded passes reported batches that differ from the single-core ones"
        )
    });
    let expected_ingest = 2 * offered - tally.dropped;
    out.check(
        tally.ingested == expected_ingest && tally.unclassified + tally.rejected == 0,
        expected_ingest.abs_diff(tally.ingested) + tally.unclassified + tally.rejected,
        || {
            format!(
                "ingested {} of {expected_ingest}, {} unclassified, {} rejected",
                tally.ingested, tally.unclassified, tally.rejected
            )
        },
    );
    out.check(
        sharded_tally.unclassified + sharded_tally.rejected == 0,
        sharded_tally.unclassified + sharded_tally.rejected,
        || "the sharded plane rejected entries".to_string(),
    );
    // Operations: packets ingested, frames published, frames
    // delivered, interval verdicts, sharded-vs-single comparisons.
    out.attempted = tally.ingested
        + sharded_tally.ingested
        + tally.frames
        + tally.delivered
        + tally.verdicts
        + compared;

    out.notes.push(format!(
        "single: {} passes, sharded: {} passes; observed loss {:.4} % vs injected {:.4} % over {} joined packets; {} matched samples",
        single_times.len(),
        sharded_times.len(),
        observed_loss * 100.0,
        realized_loss * 100.0,
        verdict.joined_sent,
        verdict.matched,
    ));

    out.set(
        "core.sharded.pkts_per_s",
        sharded_times.rate(pool_len as f64),
    );
    single_times.note_clock(&mut out, opts);
    latency_metrics(&mut out, opts, &latencies_ms, latencies_ms.len());
    if !opts.trace {
        out.set("ops_per_s", single_times.rate(pool_len as f64));
        out.set1(
            "wire_bytes_per_op",
            ratio(tally.frame_bytes as f64, offered as f64),
        );
        out.set1("peak_rss_mb", peak_rss_mb());
        return out;
    }
    let spans = trace::take();
    layer_metrics(&mut out, &spans, &[PHASE_SINGLE]);
    counter_metrics(&mut out, &inp.bus.counters);
    out.set1("bench.trace_overhead_ratio", single_times.trace_overhead());
    out.set1("core.collector.pkts_per_path_run", inp.pkts_per_path_run);
    out.set1(
        "core.collector.unclassified_pkts",
        tally.unclassified as f64,
    );
    out.set1("core.collector.rejected_entries", tally.rejected as f64);
    out.set1("core.sharded.shard_skew", inp.shard_skew);
    out.set1(
        "core.processor.sample_records_per_interval",
        ratio(verdict.sample_records as f64, (2 * tally.verdicts) as f64),
    );
    out.set1(
        "wire.codec.bytes_per_sample",
        ratio(tally.frame_bytes as f64, verdict.sample_records as f64),
    );
    out.set1(
        "core.verify.matched_ratio",
        ratio(verdict.matched as f64, verdict.in_samples as f64),
    );
    out.set1(
        "core.verify.joined_ratio",
        ratio(verdict.joined as f64, verdict.in_aggs as f64),
    );
    crate::write_trace("dp_zipf100k", &spans);
    out
}

/// Per-path `estimate_domain` over one interval's two batches, folded
/// into the run's verdict.
fn estimate_paths(verifier: &Verifier, up: &ReceiptBatch, down: &ReceiptBatch, v: &mut Verdict) {
    let (ingress, egress) = trace::span(Layer::Bench, "group", |_| (by_path(up), by_path(down)));
    trace::span(Layer::CoreVerify, "estimate_domain", |c| {
        c.items = ingress.len() as u64;
        for (spec, i) in &ingress {
            let e = egress.get(spec).copied().unwrap_or_default();
            let est = verifier.estimate_domain(i.samples, i.aggs, e.samples, e.aggs);
            v.in_samples += i.samples.len() as u64;
            v.matched += est.matched_samples as u64;
            v.in_aggs += i.aggs.len() as u64;
            v.joined += est.join.joined.len() as u64;
            for j in &est.join.joined {
                v.joined_sent += j.up_cnt;
                v.joined_lost += j.lost;
                if j.lost < 0 {
                    v.inconsistencies += 1;
                }
            }
            if let Some(delay) = est.delay {
                v.inconsistencies += delay
                    .delays_ms
                    .iter()
                    .filter(|&&d| (d - 0.3).abs() > 1e-9)
                    .count() as u64;
                v.delays_ms.extend(delay.delays_ms);
            }
        }
    });
}
