//! The control-plane processor module (paper §7).
//!
//! "The control-plane part periodically reads the state from the
//! data-plane and performs further processing." The processor drains
//! the collector's finished samples/aggregates at each reporting
//! interval, wraps them into receipts, and accounts the bytes that
//! receipt dissemination will cost (the §7.1 bandwidth model).
//!
//! Authenticity: the paper assumes receipts are disseminated with
//! integrity/authenticity guarantees (assumption #2, e.g. HTTPS). A
//! batch itself carries no authenticator; the binding is the
//! HMAC-SHA-256 MAC trailer the wire layer stamps on every published
//! frame under the HOP's [`HopKey`] (see `vpm-wire`'s codec and
//! transport), which the processor holds ([`Processor::hop_key`]).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vpm_hash::HopKey;
use vpm_packet::HopId;

use crate::ingest::Ingest;
use crate::receipt::{compact, AggReceipt, PathId, SampleReceipt};

/// A batch of receipts emitted by one HOP at one reporting interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiptBatch {
    /// The reporting HOP.
    pub hop: HopId,
    /// Monotonic batch sequence number per HOP.
    pub batch_seq: u64,
    /// Sample receipts, one per path with samples this interval.
    pub samples: Vec<SampleReceipt>,
    /// Aggregate receipts, one per finalized aggregate.
    pub aggregates: Vec<AggReceipt>,
}

impl ReceiptBatch {
    /// Compact wire size of the batch in bytes (the unit of the §7.1
    /// bandwidth accounting).
    pub fn compact_bytes(&self) -> usize {
        self.samples
            .iter()
            .map(compact::sample_receipt_bytes)
            .sum::<usize>()
            + self
                .aggregates
                .iter()
                .map(compact::agg_receipt_bytes)
                .sum::<usize>()
    }

    /// Total sample records in the batch.
    pub fn sample_records(&self) -> usize {
        self.samples.iter().map(|s| s.samples.len()).sum()
    }

    /// The distinct `PathID`s this batch's receipts reference, in first-
    /// appearance order (sample receipts before aggregates). This is
    /// the canonical order of a wire frame's per-batch `PathID` table:
    /// the encoder emits each path once here and every receipt carries
    /// a 4-byte reference into it (`receipt::compact::PATH_REF_BYTES`).
    pub fn paths(&self) -> Vec<PathId> {
        self.path_table().0
    }

    /// [`ReceiptBatch::paths`] together with every receipt's reference
    /// into it: one index per sample receipt, then one per aggregate
    /// receipt, in batch order. One pass. A receipt on the path of the
    /// receipt before it (a path's consecutive aggregates), or on the
    /// table's next path (aggregates listed in the order the sample
    /// receipts were, as [`Processor::report`] lists them), costs a
    /// comparison; any other costs one table lookup.
    pub fn path_table(&self) -> (Vec<PathId>, Vec<u32>) {
        let receipts = self.samples.len() + self.aggregates.len();
        let mut paths: Vec<PathId> = Vec::new();
        let mut refs: Vec<u32> = Vec::with_capacity(receipts);
        let mut index: HashMap<ByShardKey, u32> = HashMap::with_capacity(receipts);
        for path in self
            .samples
            .iter()
            .map(|s| s.path)
            .chain(self.aggregates.iter().map(|a| a.path))
        {
            let is = |reference: u32| paths.get(reference as usize) == Some(&path);
            let reference = match refs.last() {
                Some(&last) if is(last) => last,
                Some(&last) if is(last + 1) => last + 1,
                _ => {
                    let next = paths.len() as u32;
                    let reference = *index.entry(ByShardKey(path)).or_insert(next);
                    if reference == next {
                        paths.push(path);
                    }
                    reference
                }
            };
            refs.push(reference);
        }
        (paths, refs)
    }
}

/// A `PathId` that hashes as its [`PathId::shard_key`] — one lookup3
/// pass over the 24 encoded bytes instead of a keyed pass per field —
/// and compares as itself, so paths whose keys collide stay distinct.
/// The key is unkeyed, which is sound where the paths are the reporting
/// HOP's own ([`ReceiptBatch::path_table`]), not a peer's.
#[derive(PartialEq, Eq)]
struct ByShardKey(PathId);

impl std::hash::Hash for ByShardKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.shard_key());
    }
}

/// Cumulative reporting statistics of a processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorStats {
    /// Batches emitted.
    pub batches: u64,
    /// Total compact receipt bytes emitted.
    pub receipt_bytes: u64,
    /// Total sample records emitted.
    pub sample_records: u64,
    /// Total aggregate receipts emitted.
    pub aggregate_receipts: u64,
}

/// The default per-HOP signing key, derived from the HOP id.
pub fn default_hop_key(hop: HopId) -> HopKey {
    HopKey::from_seed(0x5650_4d00 ^ hop.0 as u64)
}

/// The control-plane processor.
#[derive(Debug)]
pub struct Processor {
    hop: HopId,
    key: HopKey,
    next_seq: u64,
    stats: ProcessorStats,
}

impl Processor {
    /// New processor for a HOP with a default per-HOP signing key.
    pub fn new(hop: HopId) -> Self {
        Processor {
            hop,
            key: default_hop_key(hop),
            next_seq: 0,
            stats: ProcessorStats::default(),
        }
    }

    /// The HOP's full signing key (registered with the transport out
    /// of band; MACs every published frame).
    pub fn hop_key(&self) -> HopKey {
        self.key
    }

    /// Drain the collector into a receipt batch (one pass over
    /// the collector plane's path table via [`Ingest::drain_receipts`]).
    ///
    /// Generic over the whole ingest surface: a single-core
    /// [`Collector`](crate::Collector) and a multi-core
    /// [`ShardedCollector`](crate::ShardedCollector) produce
    /// byte-identical batches for the same registrations and traffic.
    pub fn report<I: Ingest + ?Sized>(&mut self, collector: &mut I) -> ReceiptBatch {
        let mut samples = Vec::new();
        let mut aggregates = Vec::new();
        collector.drain_receipts(&mut samples, &mut aggregates);
        let batch = ReceiptBatch {
            hop: self.hop,
            batch_seq: self.next_seq,
            samples,
            aggregates,
        };
        self.next_seq += 1;
        self.stats.batches += 1;
        self.stats.receipt_bytes += batch.compact_bytes() as u64;
        self.stats.sample_records += batch.sample_records() as u64;
        self.stats.aggregate_receipts += batch.aggregates.len() as u64;
        batch
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ProcessorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::hop::HopConfig;
    use crate::receipt::PathId;
    use vpm_packet::{DomainId, SimDuration};

    fn pipeline_parts() -> (Collector, Processor) {
        let cfg = HopConfig::new(HopId(4), DomainId(2))
            .with_sampling_rate(0.05)
            .with_aggregate_size(200)
            .with_marker_rate(0.01)
            .with_j_window(SimDuration::from_millis(1));
        let mut collector = Collector::new(cfg);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        collector.register_path(PathId {
            spec,
            prev_hop: None,
            next_hop: None,
            max_diff: SimDuration::from_millis(2),
        });
        (collector, Processor::new(HopId(4)))
    }

    /// Classify + digest upstream, then one batch-first `ingest` call —
    /// the post-redesign shape of a collector feed.
    fn ingest_packets<'a>(
        collector: &mut Collector,
        packets: impl Iterator<Item = &'a vpm_trace::TracePacket>,
    ) {
        let batch: Vec<_> = packets
            .filter_map(|tp| {
                collector
                    .classify(&tp.packet)
                    .map(|idx| (idx, tp.packet.digest(), tp.ts))
            })
            .collect();
        let report = collector.ingest(&batch);
        assert!(report.is_clean());
    }

    fn feed(collector: &mut Collector, n: usize, seed: u64) {
        let cfg = vpm_trace::TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(400),
            ..vpm_trace::TraceConfig::paper_default(1, seed)
        };
        let trace = vpm_trace::TraceGenerator::new(cfg).generate();
        ingest_packets(collector, trace.iter().take(n));
    }

    #[test]
    fn report_drains_and_numbers_batches() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 10_000, 31);
        c.flush();
        let batch = p.report(&mut c);
        assert!(!batch.samples.is_empty());
        assert!(!batch.aggregates.is_empty());
        assert_eq!((batch.hop, batch.batch_seq), (HopId(4), 0));
        // Second report is empty but still sequenced.
        let batch2 = p.report(&mut c);
        assert_eq!(batch2.batch_seq, 1);
        assert_eq!(batch2.sample_records(), 0);
        assert_eq!(p.hop_key(), default_hop_key(HopId(4)));
    }

    #[test]
    fn stats_accumulate() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 5_000, 33);
        c.flush();
        let b = p.report(&mut c);
        let s = p.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.receipt_bytes, b.compact_bytes() as u64);
        assert_eq!(s.sample_records, b.sample_records() as u64);
        assert_eq!(s.aggregate_receipts, b.aggregates.len() as u64);
    }

    /// Periodic reporting must be equivalent to one big report: the
    /// union of samples matches, and finished aggregates concatenate
    /// (the open aggregate simply continues across intervals).
    #[test]
    fn chunked_reporting_equals_single_report() {
        let cfg = vpm_trace::TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(400),
            ..vpm_trace::TraceConfig::paper_default(1, 35)
        };
        let trace = vpm_trace::TraceGenerator::new(cfg).generate();

        let run_chunked = |chunks: usize| {
            let (mut c, mut p) = pipeline_parts();
            let mut samples = Vec::new();
            let mut aggs = Vec::new();
            for part in trace.chunks(trace.len() / chunks + 1) {
                ingest_packets(&mut c, part.iter());
                let b = p.report(&mut c);
                samples.extend(b.samples.into_iter().flat_map(|r| r.samples));
                aggs.extend(b.aggregates);
            }
            c.flush();
            let b = p.report(&mut c);
            samples.extend(b.samples.into_iter().flat_map(|r| r.samples));
            aggs.extend(b.aggregates);
            (samples, aggs)
        };

        let (s1, a1) = run_chunked(1);
        let (s4, a4) = run_chunked(4);
        assert_eq!(s1, s4, "sample streams must be identical");
        assert_eq!(
            a1.iter().map(|a| (a.agg, a.pkt_cnt)).collect::<Vec<_>>(),
            a4.iter().map(|a| (a.agg, a.pkt_cnt)).collect::<Vec<_>>(),
            "aggregate receipts must be identical"
        );
    }

    #[test]
    fn paths_lists_each_path_once_in_first_appearance_order() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 8_000, 36);
        c.flush();
        let b = p.report(&mut c);
        let paths = b.paths();
        assert_eq!(paths.len(), 1, "single-path pipeline");
        assert_eq!(paths[0], b.samples[0].path);
        // Every receipt's path resolves to an index in the table.
        for s in &b.samples {
            assert!(paths.contains(&s.path));
        }
        for a in &b.aggregates {
            assert!(paths.contains(&a.path));
        }
        // An empty batch has an empty table.
        let empty = p.report(&mut c);
        assert!(empty.paths().is_empty());
    }

    /// Every receipt's path, in batch order.
    fn receipt_paths(b: &ReceiptBatch) -> Vec<PathId> {
        let samples = b.samples.iter().map(|s| s.path);
        samples.chain(b.aggregates.iter().map(|a| a.path)).collect()
    }

    /// The `HashSet` walk `paths()` was before it became
    /// `path_table`'s first half.
    fn paths_reference(b: &ReceiptBatch) -> Vec<PathId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = receipt_paths(b);
        out.retain(|path| seen.insert(*path));
        out
    }

    /// A batch whose sample receipts are on paths `samples` and whose
    /// aggregate receipts on paths `aggregates` (path `n` is `10.n/32`).
    fn batch_on(samples: &[u32], aggregates: &[u32]) -> ReceiptBatch {
        let path = |n: u32| PathId {
            spec: vpm_packet::HeaderSpec::new(
                vpm_packet::Ipv4Prefix::new(std::net::Ipv4Addr::from(0x0a00_0000 | n), 32).unwrap(),
                "192.168.0.0/24".parse().unwrap(),
            ),
            prev_hop: None,
            next_hop: Some(HopId(5)),
            max_diff: SimDuration::from_millis(2),
        };
        ReceiptBatch {
            hop: HopId(4),
            batch_seq: 0,
            samples: samples
                .iter()
                .map(|&n| SampleReceipt {
                    path: path(n),
                    samples: Vec::new(),
                })
                .collect(),
            aggregates: aggregates
                .iter()
                .map(|&n| AggReceipt {
                    path: path(n),
                    agg: crate::receipt::AggId {
                        first: vpm_hash::Digest(1),
                        last: vpm_hash::Digest(2),
                    },
                    pkt_cnt: 1,
                    agg_trans: Vec::new(),
                })
                .collect(),
        }
    }

    fn assert_table_resolves(b: &ReceiptBatch) {
        let (paths, refs) = b.path_table();
        assert_eq!(paths, paths_reference(b));
        assert_eq!(paths, b.paths());
        let resolved: Vec<PathId> = refs.iter().map(|&r| paths[r as usize]).collect();
        assert_eq!(resolved, receipt_paths(b));
    }

    #[test]
    fn path_table_references_resolve_whatever_the_receipt_order() {
        // As `report` lists them: samples, then the same order again.
        assert_table_resolves(&batch_on(&[0, 1, 2, 3], &[0, 0, 1, 2, 2, 3]));
        // Interleaved and not grouped; aggregates on paths no sample
        // receipt named, first; reversed.
        assert_table_resolves(&batch_on(&[2, 0, 2, 1], &[1, 2, 1, 0, 2]));
        assert_table_resolves(&batch_on(&[1], &[7, 1, 8, 7, 1]));
        assert_table_resolves(&batch_on(&[0, 1, 2, 3], &[3, 2, 1, 0]));
        // One side empty, both empty.
        assert_table_resolves(&batch_on(&[], &[4, 4, 5]));
        assert_table_resolves(&batch_on(&[5, 4, 5], &[]));
        assert_table_resolves(&batch_on(&[], &[]));
        // More paths than a one-byte reference could name, each met
        // again out of order.
        let forward: Vec<u32> = (0..700).collect();
        let scattered: Vec<u32> = (0..700).map(|i| (i * 37) % 700).collect();
        assert_table_resolves(&batch_on(&forward, &scattered));
        assert_eq!(batch_on(&forward, &scattered).paths().len(), 700);
    }

    proptest::proptest! {
        #[test]
        fn path_table_equals_the_hash_set_walk(
            samples in proptest::collection::vec(0u32..12, 0..30),
            aggregates in proptest::collection::vec(0u32..12, 0..30)
        ) {
            assert_table_resolves(&batch_on(&samples, &aggregates));
        }
    }

    #[test]
    fn compact_bytes_track_contents() {
        let (mut c, mut p) = pipeline_parts();
        feed(&mut c, 8_000, 34);
        c.flush();
        let b = p.report(&mut c);
        let expected: usize = b
            .samples
            .iter()
            .map(crate::receipt::compact::sample_receipt_bytes)
            .sum::<usize>()
            + b.aggregates
                .iter()
                .map(crate::receipt::compact::agg_receipt_bytes)
                .sum::<usize>();
        assert_eq!(b.compact_bytes(), expected);
        assert!(b.compact_bytes() > 0);
    }
}
