//! Equivalence of the batched collector data plane with the
//! per-packet specification, through the public API.
//!
//! `Ingest::ingest` is the collector's only entry point. Its oracle
//! here is [`PerPacketFold`]: one public `DelaySampler::observe` +
//! `Aggregator::observe` per entry and the §7.1 counter rule, with
//! none of the collector's partitioning or pass masks. For any batch
//! size and any interleaving of paths, the samples, aggregates, cost
//! counters and ingest reports must match. (The sharded drain-merge
//! identity is pinned in `vpm_core::sharded`'s own tests.)

use proptest::prelude::*;
use vpm::core::collector::CostCounters;
use vpm::core::receipt::{AggReceipt, PathId, SampleReceipt};
use vpm::core::sampling::ObserveOutcome;
use vpm::core::{
    Aggregator, Collector, DelaySampler, HopConfig, Ingest, IngestError, IngestReport,
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

fn mk_collector(n_paths: u8, buffer_cap: Option<usize>) -> Collector {
    let mut cfg = hop_config();
    if let Some(cap) = buffer_cap {
        cfg = cfg.with_buffer_cap(cap);
    }
    let mut c = Collector::new(cfg);
    for tag in 0..n_paths {
        c.register_path(path_id(spec32(tag)));
    }
    c
}

/// The per-packet specification of the collector, behind the same
/// [`Ingest`] surface so both sides take identical calls.
struct PerPacketFold {
    paths: Vec<(PathId, DelaySampler, Aggregator)>,
    counters: CostCounters,
}

fn mk_fold(n_paths: u8, buffer_cap: Option<usize>) -> PerPacketFold {
    let cfg = hop_config();
    let paths = (0..n_paths)
        .map(|tag| {
            let sampler = DelaySampler::new(cfg.marker, cfg.sampling);
            (
                path_id(spec32(tag)),
                match buffer_cap {
                    Some(cap) => sampler.with_buffer_cap(cap),
                    None => sampler,
                },
                Aggregator::new(cfg.partition, cfg.j_window),
            )
        })
        .collect();
    PerPacketFold {
        paths,
        counters: CostCounters::default(),
    }
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
