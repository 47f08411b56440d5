//! Equivalence of the collector data plane with the per-packet
//! specification, through the public API.
//!
//! `Ingest::ingest` is the collector's only entry point. Its oracle
//! here is [`PerPacketFold`]: one public `DelaySampler::observe` +
//! `Aggregator::observe` per entry and the §7.1 counter rule, with
//! none of the collector's rows, chunked record logs or shared lists.
//! For any batch size and any interleaving of paths, the samples,
//! aggregates, cost counters and ingest reports must match — for the
//! single-core `Collector` and for `ShardedCollector` at 1, 2 and 4
//! shards.

use proptest::prelude::*;
use vpm::core::collector::CostCounters;
use vpm::core::receipt::{AggReceipt, PathId, SampleReceipt};
use vpm::core::sampling::ObserveOutcome;
use vpm::core::{
    Aggregator, Collector, DelaySampler, HopConfig, Ingest, IngestError, IngestReport, Processor,
    ReceiptBatch, ShardedCollector,
};
use vpm::hash::Digest;
use vpm::packet::{DomainId, HeaderSpec, HopId, Ipv4Prefix, SimDuration, SimTime};

fn hop_config() -> HopConfig {
    HopConfig::new(HopId(4), DomainId(2))
        .with_sampling_rate(0.05)
        .with_aggregate_size(200)
        .with_marker_rate(0.01)
        .with_j_window(SimDuration::from_millis(1))
}

fn path_id(spec: HeaderSpec) -> PathId {
    PathId {
        spec,
        prev_hop: Some(HopId(3)),
        next_hop: Some(HopId(5)),
        max_diff: SimDuration::from_millis(2),
    }
}

fn spec32(tag: u8) -> HeaderSpec {
    HeaderSpec::new(
        Ipv4Prefix::new(std::net::Ipv4Addr::new(10, 0, 0, tag), 32).unwrap(),
        Ipv4Prefix::new(std::net::Ipv4Addr::new(20, 0, 0, tag), 32).unwrap(),
    )
}

fn capped(buffer_cap: Option<usize>) -> HopConfig {
    match buffer_cap {
        Some(cap) => hop_config().with_buffer_cap(cap),
        None => hop_config(),
    }
}

fn mk_collector(n_paths: u8, buffer_cap: Option<usize>) -> Collector {
    let mut c = Collector::new(capped(buffer_cap));
    for tag in 0..n_paths {
        c.register_path(path_id(spec32(tag)));
    }
    c
}

/// The per-packet specification of the collector, behind the same
/// [`Ingest`] surface so both sides take identical calls.
struct PerPacketFold {
    cfg: HopConfig,
    paths: Vec<(PathId, DelaySampler, Aggregator)>,
    counters: CostCounters,
}

impl PerPacketFold {
    fn new(cfg: HopConfig) -> Self {
        PerPacketFold {
            cfg,
            paths: Vec::new(),
            counters: CostCounters::default(),
        }
    }
}

fn mk_fold(n_paths: u8, buffer_cap: Option<usize>) -> PerPacketFold {
    let mut fold = PerPacketFold::new(capped(buffer_cap));
    for tag in 0..n_paths {
        fold.register(path_id(spec32(tag)));
    }
    fold
}

impl Ingest for PerPacketFold {
    fn ingest(&mut self, batch: &[(usize, Digest, SimTime)]) -> IngestReport {
        let paths = self.paths.len();
        let mut report = IngestReport::default();
        for (entry, &(index, digest, t)) in batch.iter().enumerate() {
            let Some((_, sampler, aggregator)) = self.paths.get_mut(index) else {
                // Out of range: unclassified, no hash charged.
                self.counters.unclassified += 1;
                report.errors.push(IngestError::PathOutOfRange {
                    entry,
                    index,
                    paths,
                });
                continue;
            };
            report.accepted += 1;
            self.counters.packets += 1;
            self.counters.hash_ops += 1;
            self.counters.timestamp_ops += 1;
            // §7.1: lookup PathID + update PktCnt + store to temp buffer.
            self.counters.memory_accesses += 3;
            aggregator.observe(digest, t);
            if let ObserveOutcome::Marker { swept, .. } = sampler.observe(digest, t) {
                // One extra access per buffered packet examined (§7.1).
                self.counters.marker_sweep_accesses += swept as u64;
            }
        }
        report
    }

    fn flush(&mut self) {
        for (_, _, aggregator) in &mut self.paths {
            aggregator.flush();
        }
    }

    fn drain_receipts(
        &mut self,
        samples: &mut Vec<SampleReceipt>,
        aggregates: &mut Vec<AggReceipt>,
    ) {
        for (path, sampler, aggregator) in &mut self.paths {
            let recs = sampler.drain();
            if !recs.is_empty() {
                samples.push(SampleReceipt {
                    path: *path,
                    samples: recs,
                });
            }
            aggregates.extend(aggregator.drain().into_iter().map(|f| AggReceipt {
                path: *path,
                agg: f.agg,
                pkt_cnt: f.pkt_cnt,
                agg_trans: f.agg_trans,
            }));
        }
    }

    fn counters(&self) -> CostCounters {
        self.counters
    }
}

/// Feed both sides the same `batch_size` chunks (reports must agree
/// call by call), then flush, drain into receipt form and compare
/// everything observable.
fn assert_identical(
    stream: &[(usize, Digest, SimTime)],
    batch_size: usize,
    mut fold: PerPacketFold,
    mut batched: Collector,
    context: &str,
) {
    for chunk in stream.chunks(batch_size) {
        assert_eq!(
            fold.ingest(chunk),
            batched.ingest(chunk),
            "reports differ: {context}"
        );
    }
    fold.flush();
    batched.flush();
    assert_eq!(
        fold.counters(),
        batched.counters(),
        "counters differ: {context}"
    );
    let drain = |c: &mut dyn Ingest| -> (Vec<SampleReceipt>, Vec<AggReceipt>) {
        let mut s = Vec::new();
        let mut g = Vec::new();
        c.drain_receipts(&mut s, &mut g);
        (s, g)
    };
    let (sa, ga) = drain(&mut fold);
    let (sb, gb) = drain(&mut batched);
    assert_eq!(sa, sb, "samples differ: {context}");
    assert_eq!(ga, gb, "aggregates differ: {context}");
}

fn synth_stream(seed: u64, n: usize, n_paths: u8) -> Vec<(usize, Digest, SimTime)> {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            // Mostly valid path indices, occasionally out of range —
            // the batch path must reproduce the per-packet rejection
            // accounting too.
            let idx = if i % 97 == 96 {
                n_paths as usize + 3
            } else {
                rng.gen_range(0..n_paths as usize)
            };
            (idx, Digest(rng.gen()), SimTime::from_micros(10 * i as u64))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline contract: any batch size in 1..=257, any number of
    /// paths, with or without a sampler buffer cap.
    #[test]
    fn observe_batch_equals_per_packet(
        seed in any::<u64>(),
        batch_size in 1usize..=257,
        n_paths in 1u8..6,
        cap_sel in 0usize..3,
    ) {
        let cap = [None, Some(16usize), Some(256usize)][cap_sel];
        let stream = synth_stream(seed, 6_000, n_paths);
        assert_identical(
            &stream,
            batch_size,
            mk_fold(n_paths, cap),
            mk_collector(n_paths, cap),
            &format!("bs={batch_size} paths={n_paths} cap={cap:?}"),
        );
    }
}

/// Deterministic spot check at the batch sizes the ring buffers and
/// chunked drivers actually use.
#[test]
fn observe_batch_equals_per_packet_at_driver_sizes() {
    let stream = synth_stream(7, 30_000, 4);
    for batch_size in [1usize, 2, 255, 256, 257, 4096] {
        assert_identical(
            &stream,
            batch_size,
            mk_fold(4, None),
            mk_collector(4, None),
            &format!("bs={batch_size}"),
        );
    }
}

/// Batching must also commute with interleaved reporting intervals:
/// report → more batches → report yields the same receipt stream.
#[test]
fn observe_batch_commutes_with_reporting() {
    let stream = synth_stream(21, 20_000, 3);
    let run = |c: &mut dyn Ingest, batch_size: usize| {
        let mut p = vpm::core::Processor::new(HopId(4));
        let mut samples = Vec::new();
        let mut aggs = Vec::new();
        for part in stream.chunks(stream.len() / 4 + 1) {
            for chunk in part.chunks(batch_size) {
                let _ = c.ingest(chunk);
            }
            let b = p.report(c);
            samples.extend(b.samples.into_iter().flat_map(|r| r.samples));
            aggs.extend(b.aggregates);
        }
        c.flush();
        let b = p.report(c);
        samples.extend(b.samples.into_iter().flat_map(|r| r.samples));
        aggs.extend(b.aggregates);
        (samples, aggs)
    };
    let per_packet = run(&mut mk_fold(3, None), stream.len());
    for bs in [64, 257] {
        let batched = run(&mut mk_collector(3, None), bs);
        assert_eq!(per_packet.0, batched.0, "bs={bs}");
        assert_eq!(per_packet.1, batched.1, "bs={bs}");
    }
}

/// A collector plane a [`Step`] script drives.
trait Plane: Ingest {
    fn register(&mut self, path: PathId) -> usize;
}

impl Plane for PerPacketFold {
    fn register(&mut self, path: PathId) -> usize {
        let cfg = self.cfg;
        let sampler = DelaySampler::new(cfg.marker, cfg.sampling);
        let sampler = match cfg.buffer_cap {
            Some(cap) => sampler.with_buffer_cap(cap),
            None => sampler,
        };
        self.paths
            .push((path, sampler, Aggregator::new(cfg.partition, cfg.j_window)));
        self.paths.len() - 1
    }
}

impl Plane for Collector {
    fn register(&mut self, path: PathId) -> usize {
        self.register_path(path)
    }
}

impl Plane for ShardedCollector {
    fn register(&mut self, path: PathId) -> usize {
        self.register_path(path)
    }
}

enum Step {
    Register(PathId),
    Ingest(Vec<(usize, Digest, SimTime)>),
    Report,
}

/// Path `i` of the storage-edge scripts (up to 2¹⁶ of them).
fn wide_path(i: usize) -> PathId {
    let host = |net: u32| {
        Ipv4Prefix::new(std::net::Ipv4Addr::from(net | (i as u32 & 0xffff)), 32).unwrap()
    };
    path_id(HeaderSpec::new(host(0x0a00_0000), host(0x1400_0000)))
}

/// A script aimed at the edges of the collector's storage: `n_paths`
/// paths under Zipf-like skew (the last registered only once traffic
/// has started), time gaps longer than `2J` that empty every window,
/// markerless runs long enough to span several log chunks, reports at
/// random points, and the odd out-of-range entry.
fn edge_script(seed: u64, n_paths: usize, batch_size: usize) -> Vec<Step> {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    const PACKETS: usize = 4_000;
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = hop_config();
    // 2J is 2 ms; a 2.5 ms gap leaves no record in any window.
    let gap = SimDuration::from_micros(2_500);
    let late_at = rng.gen_range(PACKETS / 4..3 * PACKETS / 4);
    let mut registered = n_paths - 1;
    let mut steps: Vec<Step> = (0..registered)
        .map(|i| Step::Register(wide_path(i)))
        .collect();
    let (mut t, mut markerless, mut batch) = (SimTime::ZERO, 0usize, Vec::new());
    for k in 0..PACKETS {
        if k == late_at && batch.is_empty() {
            steps.push(Step::Register(wide_path(registered)));
            registered += 1;
        }
        t += if rng.gen_range(0..400) == 0 {
            gap
        } else {
            SimDuration::from_micros(10)
        };
        if markerless == 0 && rng.gen_range(0..300) == 0 {
            markerless = rng.gen_range(40..200);
        }
        let digest = if markerless > 0 {
            markerless -= 1;
            // At or below µ: neither a marker nor (δ is above µ) a cut.
            Digest(rng.gen_range(0..=cfg.marker.0))
        } else {
            Digest(rng.gen())
        };
        let index = if rng.gen_range(0..97) == 0 {
            registered + 3
        } else if registered == n_paths && rng.gen_range(0..20) == 0 {
            registered - 1
        } else {
            // P(i) falls off roughly as 1/(i+1).
            let u: f64 = rng.gen();
            let i = ((registered + 1) as f64).powf(u) as usize;
            i.clamp(1, registered) - 1
        };
        batch.push((index, digest, t));
        if batch.len() == batch_size {
            steps.push(Step::Ingest(std::mem::take(&mut batch)));
            if rng.gen_range(0..8) == 0 {
                steps.push(Step::Report);
            }
        }
    }
    steps.push(Step::Ingest(batch));
    if registered < n_paths {
        steps.push(Step::Register(wide_path(registered)));
    }
    steps
}

/// Everything a plane shows the outside while it runs a script: every
/// ingest report, every receipt batch (the last after a flush), and
/// the final counters.
fn run_script(
    plane: &mut dyn Plane,
    steps: &[Step],
) -> (Vec<IngestReport>, Vec<ReceiptBatch>, CostCounters) {
    let mut processor = Processor::new(HopId(4));
    let (mut reports, mut batches) = (Vec::new(), Vec::new());
    for step in steps {
        match step {
            Step::Register(path) => {
                plane.register(*path);
            }
            Step::Ingest(batch) => reports.push(plane.ingest(batch)),
            Step::Report => batches.push(processor.report(plane)),
        }
    }
    plane.flush();
    batches.push(processor.report(plane));
    (reports, batches, plane.counters())
}

/// How far ahead `Collector::ingest` prefetches: the row of the entry
/// this many places ahead, and the log and pending-close lines of the
/// entry half as far ahead. The tests below sit at those edges.
const AHEAD: usize = 16;

/// Register `n_paths` paths, run `batches`, and check that the fold,
/// the collector and the sharded plane at 1, 2 and 4 shards agree.
fn assert_planes_agree(n_paths: usize, batches: Vec<Vec<(usize, Digest, SimTime)>>, context: &str) {
    let mut steps: Vec<Step> = (0..n_paths).map(|i| Step::Register(wide_path(i))).collect();
    steps.extend(batches.into_iter().map(Step::Ingest));
    let cfg = hop_config();
    let expected = run_script(&mut PerPacketFold::new(cfg), &steps);
    assert!(
        expected.1.iter().any(|b| !b.aggregates.is_empty()),
        "the batches must produce receipts: {context}"
    );
    assert_eq!(
        run_script(&mut Collector::new(cfg), &steps),
        expected,
        "collector: {context}"
    );
    for shards in [1usize, 2, 4] {
        assert_eq!(
            run_script(&mut ShardedCollector::new(cfg, shards), &steps),
            expected,
            "{shards} shards: {context}"
        );
    }
}

/// Entry `k` of a lookahead test stream: 10 µs apart, random digests.
fn entry(rng: &mut rand::rngs::SmallRng, path: usize, k: usize) -> (usize, Digest, SimTime) {
    use rand::Rng;
    (path, Digest(rng.gen()), SimTime::from_micros(10 * k as u64))
}

/// Batches shorter than the lookahead, of exactly it, and one longer,
/// at both distances: no entry ahead exists, or only the near one.
#[test]
fn lookahead_at_batch_lengths_around_its_distance() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(31);
    let stream: Vec<_> = (0..3_000)
        .map(|k| {
            let path = rng.gen_range(0..5);
            entry(&mut rng, path, k)
        })
        .collect();
    let near = AHEAD / 2;
    for len in [1, near - 1, near, near + 1, AHEAD - 1, AHEAD, AHEAD + 1] {
        let batches = stream.chunks(len).map(<[_]>::to_vec).collect();
        assert_planes_agree(5, batches, &format!("batch length {len}"));
    }
}

/// Out-of-range entries exactly as far ahead as each prefetch looks
/// (and at the batch's end), with indices just past the table and at
/// `usize::MAX`: the lookahead must skip them, never index with them.
#[test]
fn lookahead_skips_out_of_range_entries_ahead() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    const PATHS: usize = 4;
    let mut rng = SmallRng::seed_from_u64(32);
    let mut k = 0;
    let batches = (0..200)
        .map(|b| {
            let len = [AHEAD / 2 + 1, AHEAD + 1, 2 * AHEAD + 1][b % 3];
            (0..len)
                .map(|i| {
                    let bad = if b % 2 == 0 { PATHS } else { usize::MAX };
                    let path = if i == AHEAD / 2 || i == AHEAD || i == len - 1 {
                        bad
                    } else {
                        rng.gen_range(0..PATHS)
                    };
                    k += 1;
                    entry(&mut rng, path, k)
                })
                .collect()
        })
        .collect();
    assert_planes_agree(PATHS, batches, "out-of-range entries ahead");
}

/// One path throughout the window: every prefetch names the row being
/// observed, and every eighth append opens a fresh chunk.
#[test]
fn lookahead_on_one_path_repeated() {
    use rand::{rngs::SmallRng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(33);
    let stream: Vec<_> = (0..4_000).map(|k| entry(&mut rng, 0, k)).collect();
    for len in [AHEAD + 1, 4096] {
        let batches = stream.chunks(len).map(<[_]>::to_vec).collect();
        assert_planes_agree(3, batches, &format!("one path, batch length {len}"));
    }
}

/// A prefetched entry whose append opens a fresh chunk: path 0 holds a
/// whole number of chunks at each batch start and next appears exactly
/// `AHEAD / 2` entries in, with its row prefetched at `AHEAD`. Gaps
/// longer than `2J` release its chunks now and then, so the fresh chunk
/// comes both from a new page and from the free list.
#[test]
fn lookahead_onto_an_append_that_opens_a_fresh_chunk() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(34);
    let mut k = 0;
    let batches = (0..300)
        .map(|b| {
            if b % 7 == 6 {
                k += 300; // 3 ms: past 2J, every window empties
            }
            (0..2 * AHEAD + 1)
                .map(|i| {
                    let path = if i == AHEAD / 2 || (AHEAD..AHEAD + 7).contains(&i) {
                        0
                    } else {
                        rng.gen_range(1..4)
                    };
                    k += 1;
                    entry(&mut rng, path, k)
                })
                .collect()
        })
        .collect();
    assert_planes_agree(4, batches, "fresh chunk ahead");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The storage's edges: `buffer_cap` at 1 and either side of the
    /// log's 8-record chunk, or none; many skewed paths; windows that
    /// empty and refill; markerless runs across chunks; reports at any
    /// point; a path registered mid-stream. The fold, the collector
    /// and the sharded plane at 1, 2 and 4 shards must agree.
    #[test]
    fn ingest_equals_per_packet_at_storage_edges(
        seed in any::<u64>(),
        n_paths in 1usize..=300,
        batch_size in 1usize..=300,
        cap_sel in 0usize..5,
    ) {
        let cap = [Some(1usize), Some(7), Some(8), Some(9), None][cap_sel];
        let cfg = capped(cap);
        let steps = edge_script(seed, n_paths, batch_size);
        let expected = run_script(&mut PerPacketFold::new(cfg), &steps);
        let context = format!("paths={n_paths} bs={batch_size} cap={cap:?}");
        prop_assert!(
            expected.1.iter().any(|b| !b.aggregates.is_empty()),
            "the script must produce receipts: {context}"
        );
        prop_assert_eq!(
            &run_script(&mut Collector::new(cfg), &steps),
            &expected,
            "collector: {}",
            context
        );
        for shards in [1usize, 2, 4] {
            prop_assert_eq!(
                &run_script(&mut ShardedCollector::new(cfg, shards), &steps),
                &expected,
                "{} shards: {}",
                shards,
                context
            );
        }
    }
}
