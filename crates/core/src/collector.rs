//! The data-plane collector module (paper §7).
//!
//! "The data-plane part handles per-packet operations and collects
//! per-aggregate state in a monitoring cache; we refer to it as the
//! collector module." The collector:
//!
//! * classifies each packet into a registered HOP path
//!   ([`Collector::classify`]; the driver digests and timestamps it);
//! * takes the classified, digested packets in batches through
//!   [`Ingest::ingest`] — its only entry point — and feeds each path's
//!   [`DelaySampler`] (Algorithm 1) and [`Aggregator`] (Algorithm 2);
//! * accounts every memory access, hash and timestamp so the §7.1
//!   processing claims can be measured rather than asserted.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};
use vpm_hash::Digest;
use vpm_packet::{HeaderSpec, Packet, SimTime};

use crate::aggregation::{Aggregator, FinishedAggregate};
use crate::hop::HopConfig;
use crate::ingest::{Ingest, IngestError, IngestReport};
use crate::receipt::{AggReceipt, PathId, SampleReceipt, SampleRecord};
use crate::sampling::DelaySampler;

/// Per-packet work counters (the §7.1 processing model: "three memory
/// accesses, one hash function, and one timestamp computation per
/// packet", plus one access per buffered packet at marker sweeps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostCounters {
    /// Packets processed.
    pub packets: u64,
    /// Ordinary per-packet memory accesses (lookup, count update,
    /// buffer store).
    pub memory_accesses: u64,
    /// Digest computations.
    pub hash_ops: u64,
    /// Timestamp computations.
    pub timestamp_ops: u64,
    /// Extra accesses spent sweeping the temp buffer at markers.
    pub marker_sweep_accesses: u64,
    /// Batch entries that named no registered path.
    pub unclassified: u64,
}

/// A minimal multiply-xor hasher for the exact-match classifier key
/// (an 8-byte `(src, dst)` address pair). The default SipHash is keyed
/// for HashDoS resistance we don't need on a fixed-at-registration
/// table, and costs more than the rest of the per-packet lookup.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // fxhash-style combine: rotate, xor, multiply by a random odd
        // constant. Plenty for IPv4 pairs feeding a power-of-two table.
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Classifier index over registered [`HeaderSpec`]s.
///
/// The §7.1 model sizes a HOP at 100,000 concurrent paths; a linear
/// `matches()` scan per packet is O(paths) and dominates the hot path
/// long before that. Almost all real path specs are exact `/32`
/// host-pair entries, which an 8-byte hash key classifies in O(1); the
/// remaining genuine prefix ranges stay in a short fallback list
/// scanned in registration order.
///
/// First-match-wins semantics of the original linear scan are
/// preserved exactly: the exact table keeps the earliest index per
/// pair, and a fallback prefix only wins if it was registered earlier
/// than the exact hit.
#[derive(Debug, Default)]
struct ClassifierIndex {
    /// Earliest path index per exact `(src, dst)` address pair.
    exact: HashMap<(u32, u32), usize, BuildHasherDefault<PairHasher>>,
    /// `(registration index, spec)` for prefix specs, in order.
    prefixes: Vec<(usize, HeaderSpec)>,
}

impl ClassifierIndex {
    fn insert(&mut self, spec: HeaderSpec, idx: usize) {
        match spec.host_pair() {
            Some(key) => {
                self.exact.entry(key).or_insert(idx);
            }
            None => self.prefixes.push((idx, spec)),
        }
    }

    fn classify(&self, pkt: &Packet) -> Option<usize> {
        let exact = self
            .exact
            .get(&(u32::from(pkt.ipv4.src), u32::from(pkt.ipv4.dst)))
            .copied();
        // Only prefixes registered before the exact hit can outrank it.
        let bound = exact.unwrap_or(usize::MAX);
        self.prefixes
            .iter()
            .take_while(|&&(i, _)| i < bound)
            .find(|(_, s)| s.matches(pkt))
            .map(|&(i, _)| i)
            .or(exact)
    }
}

/// Per-path measurement state (one "open receipt" set per path, as the
/// monitoring cache holds).
#[derive(Debug)]
pub struct PathState {
    /// The path identifier receipts will carry.
    pub path: PathId,
    /// Algorithm 1 state.
    pub sampler: DelaySampler,
    /// Algorithm 2 state.
    pub aggregator: Aggregator,
}

/// The data-plane collector.
#[derive(Debug)]
pub struct Collector {
    config: HopConfig,
    paths: Vec<PathState>,
    index: ClassifierIndex,
    counters: CostCounters,
    /// Reusable per-batch scratch: `(digest, time)` pairs plus the
    /// precomputed marker (`µ`) and cut (`δ`) pass masks for one run.
    scratch_items: Vec<(Digest, SimTime)>,
    scratch_markers: Vec<bool>,
    scratch_cuts: Vec<bool>,
    /// Per-path partition pool for mixed-path batches (`(path index,
    /// items)`; Vec capacities persist across batches).
    scratch_groups: Vec<(usize, Vec<(Digest, SimTime)>)>,
    /// Epoch-stamped slot map: `slot[path] = (epoch, group)` claims a
    /// group for the current batch iff `epoch` matches
    /// `scratch_epoch`. O(1) per packet, nothing to clear per batch.
    scratch_slot: Vec<(u32, u32)>,
    scratch_epoch: u32,
    /// `PathId -> index` of every registered path, making
    /// [`Collector::register_path`] idempotent: re-registering an
    /// identical `PathId` returns the existing index instead of
    /// silently growing a duplicate state slot.
    registered: HashMap<PathId, usize>,
}

impl Collector {
    /// New collector for a HOP.
    pub fn new(config: HopConfig) -> Self {
        Collector {
            config,
            paths: Vec::new(),
            index: ClassifierIndex::default(),
            counters: CostCounters::default(),
            scratch_items: Vec::new(),
            scratch_markers: Vec::new(),
            scratch_cuts: Vec::new(),
            scratch_groups: Vec::new(),
            scratch_slot: Vec::new(),
            scratch_epoch: 0,
            registered: HashMap::new(),
        }
    }

    /// Register a path; returns its index for the digest fast path.
    ///
    /// Idempotent on exact duplicates: registering a `PathId` that is
    /// already registered returns the existing index and changes
    /// nothing — previously this silently created a second state slot
    /// that could never be classified into (the classifier keeps the
    /// earliest index per spec), splitting drains from observations.
    pub fn register_path(&mut self, path: PathId) -> usize {
        if let Some(&idx) = self.registered.get(&path) {
            return idx;
        }
        let mut sampler = DelaySampler::new(self.config.marker, self.config.sampling);
        if let Some(cap) = self.config.buffer_cap {
            sampler = sampler.with_buffer_cap(cap);
        }
        let idx = self.paths.len();
        self.index.insert(path.spec, idx);
        self.scratch_slot.push((0, 0));
        self.registered.insert(path, idx);
        self.paths.push(PathState {
            path,
            sampler,
            aggregator: Aggregator::new(self.config.partition, self.config.j_window),
        });
        idx
    }

    /// Classify a packet into its registered path index without
    /// observing it (O(1) for `/32`-pair paths, O(prefix paths) for the
    /// fallback list; first registered match wins, as with a linear
    /// scan).
    pub fn classify(&self, pkt: &Packet) -> Option<usize> {
        self.index.classify(pkt)
    }

    /// Number of registered paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Access a path's state by index.
    pub fn path(&self, idx: usize) -> Option<&PathState> {
        self.paths.get(idx)
    }

    /// The batch-observation engine behind [`Ingest::ingest`]: the
    /// batch is partitioned per path (per-path observation order is
    /// preserved; cross-path order is unobservable because paths share
    /// no state and the counters are sums), counter updates become one
    /// add per partition, the marker (`µ`) and cut (`δ`) threshold
    /// checks are precomputed into pass masks in tight loops, and the
    /// per-path sampler/aggregator take their own batch fast paths.
    fn ingest_batch(&mut self, batch: &[(usize, Digest, SimTime)]) {
        let Some(&(first_idx, _, _)) = batch.first() else {
            return;
        };
        // Fast path: the whole batch is one path (the common shape
        // when an upstream stage already separates flows).
        if batch.iter().all(|&(i, _, _)| i == first_idx) {
            self.scratch_items.clear();
            self.scratch_items
                .extend(batch.iter().map(|&(_, d, t)| (d, t)));
            let mut items = std::mem::take(&mut self.scratch_items);
            self.observe_path_batch(first_idx, &items);
            items.clear();
            self.scratch_items = items;
            return;
        }

        // General shape: bucket items per path in one pass, reusing
        // the group pool and its Vec capacities across calls. A new
        // epoch invalidates every slot claim at once.
        self.scratch_epoch = self.scratch_epoch.wrapping_add(1);
        if self.scratch_epoch == 0 {
            self.scratch_slot.fill((0, 0));
            self.scratch_epoch = 1;
        }
        let epoch = self.scratch_epoch;
        let mut groups = std::mem::take(&mut self.scratch_groups);
        let mut used = 0usize;
        for &(idx, d, t) in batch {
            let Some(slot) = self.scratch_slot.get_mut(idx) else {
                // Out-of-range index: unclassified, no hash charged.
                self.counters.unclassified += 1;
                continue;
            };
            let g = if slot.0 == epoch {
                slot.1 as usize
            } else {
                if used == groups.len() {
                    groups.push((idx, Vec::new()));
                } else {
                    groups[used].0 = idx; // vpm-lint: allow(R1, used < groups.len() in this branch)
                    groups[used].1.clear(); // vpm-lint: allow(R1, used < groups.len() in this branch)
                }
                used += 1;
                *slot = (epoch, (used - 1) as u32);
                used - 1
            };
            groups[g].1.push((d, t)); // vpm-lint: allow(R1, g is always below used, which is at most groups.len())
        }
        for (idx, items) in groups.iter().take(used) {
            self.observe_path_batch(*idx, items);
        }
        self.scratch_groups = groups;
    }

    /// Process one path's slice of a batch (all `items` belong to path
    /// `idx`, in observation order).
    fn observe_path_batch(&mut self, idx: usize, items: &[(Digest, SimTime)]) {
        let run_len = items.len() as u64;
        let Some(ps) = self.paths.get_mut(idx) else {
            self.counters.unclassified += run_len;
            return;
        };
        self.counters.packets += run_len;
        self.counters.hash_ops += run_len;
        self.counters.timestamp_ops += run_len;
        // §7.1: lookup PathID + update PktCnt + store to temp buffer —
        // three accesses per packet.
        self.counters.memory_accesses += 3 * run_len;

        let marker = self.config.marker;
        let partition = self.config.partition;
        self.scratch_markers.clear();
        self.scratch_markers.reserve(items.len());
        self.scratch_cuts.clear();
        self.scratch_cuts.reserve(items.len());
        for &(d, _) in items {
            self.scratch_markers.push(marker.passes(d.0));
            self.scratch_cuts.push(partition.passes(d.0));
        }

        ps.aggregator.observe_batch(items, &self.scratch_cuts);
        // One extra access per buffered packet examined at marker
        // sweeps (§7.1).
        self.counters.marker_sweep_accesses +=
            ps.sampler.observe_batch(items, &self.scratch_markers);
    }

    /// Flush end-of-stream state on every path.
    pub fn flush(&mut self) {
        for ps in &mut self.paths {
            ps.aggregator.flush();
        }
    }

    /// Drain accumulated samples and finished aggregates for one path.
    pub fn drain_path(&mut self, idx: usize) -> (Vec<SampleRecord>, Vec<FinishedAggregate>) {
        let ps = &mut self.paths[idx]; // vpm-lint: allow(R1, idx is a registered path index - collector invariant)
        (ps.sampler.drain(), ps.aggregator.drain())
    }

    /// Drain every path's samples and finished aggregates directly into
    /// receipt form, in one pass over the path table (the batched
    /// control-plane read used by `Processor::report`). Equivalent to
    /// calling [`Self::drain_path`] per index and wrapping the results,
    /// without the per-index lookups and intermediate moves.
    pub fn drain_receipts(
        &mut self,
        samples: &mut Vec<SampleReceipt>,
        aggregates: &mut Vec<AggReceipt>,
    ) {
        for ps in &mut self.paths {
            let recs = ps.sampler.drain();
            if !recs.is_empty() {
                samples.push(SampleReceipt {
                    path: ps.path,
                    samples: recs,
                });
            }
            for f in ps.aggregator.drain() {
                aggregates.push(AggReceipt {
                    path: ps.path,
                    agg: f.agg,
                    pkt_cnt: f.pkt_cnt,
                    agg_trans: f.agg_trans,
                });
            }
        }
    }

    /// Iterate path indices.
    pub fn path_indices(&self) -> std::ops::Range<usize> {
        0..self.paths.len()
    }

    /// Work counters.
    pub fn counters(&self) -> CostCounters {
        self.counters
    }

    /// Bytes of monitoring-cache state currently held: ~20 B of open
    /// aggregate state per active path (§7.1).
    pub fn monitoring_cache_bytes(&self) -> usize {
        self.paths.len() * crate::overhead::PER_PATH_STATE_BYTES
    }

    /// Bytes of temporary per-packet buffer currently held across all
    /// paths (7 B per buffered record, §7.1).
    pub fn temp_buffer_bytes(&self) -> usize {
        self.paths
            .iter()
            .map(|ps| ps.sampler.buffered() * crate::receipt::compact::SAMPLE_RECORD_BYTES)
            .sum()
    }
}

impl Ingest for Collector {
    /// Observe one batch of pre-classified, pre-digested packets.
    ///
    /// State and [`CostCounters`] end up byte-identical to the
    /// per-packet fold (pinned by `batch_observe_matches_per_packet`);
    /// on top of that, every entry naming an unregistered path index
    /// comes back as a typed [`IngestError::PathOutOfRange`] — the
    /// entry itself is counted as unclassified and charged no hash.
    fn ingest(&mut self, batch: &[(usize, Digest, SimTime)]) -> IngestReport {
        let paths = self.paths.len();
        let mut errors = Vec::new();
        for (entry, &(index, _, _)) in batch.iter().enumerate() {
            if index >= paths {
                errors.push(IngestError::PathOutOfRange {
                    entry,
                    index,
                    paths,
                });
            }
        }
        let accepted = (batch.len() - errors.len()) as u64;
        self.ingest_batch(batch);
        IngestReport { accepted, errors }
    }

    fn flush(&mut self) {
        Collector::flush(self);
    }

    fn drain_receipts(
        &mut self,
        samples: &mut Vec<SampleReceipt>,
        aggregates: &mut Vec<AggReceipt>,
    ) {
        Collector::drain_receipts(self, samples, aggregates);
    }

    fn counters(&self) -> CostCounters {
        Collector::counters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::ObserveOutcome;
    use vpm_packet::{DomainId, HeaderSpec, HopId, SimDuration};

    fn config() -> HopConfig {
        HopConfig::new(HopId(4), DomainId(2))
            .with_sampling_rate(0.05)
            .with_aggregate_size(100)
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

    fn mk_trace(n: usize) -> Vec<vpm_trace::TracePacket> {
        let cfg = vpm_trace::TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(200),
            ..vpm_trace::TraceConfig::paper_default(1, 21)
        };
        let mut t = vpm_trace::TraceGenerator::new(cfg).generate();
        t.truncate(n);
        t
    }

    /// Classify and digest upstream, then one `ingest` call — the
    /// shape of every collector feed. Returns the packets accepted.
    fn ingest_trace(c: &mut Collector, trace: &[vpm_trace::TracePacket]) -> u64 {
        let batch: Vec<_> = trace
            .iter()
            .filter_map(|tp| {
                c.classify(&tp.packet)
                    .map(|idx| (idx, tp.packet.digest(), tp.ts))
            })
            .collect();
        let report = c.ingest(&batch);
        assert!(report.is_clean());
        report.accepted
    }

    /// The per-packet specification `ingest` is checked against: one
    /// `Aggregator::observe` + `DelaySampler::observe` per entry and
    /// the §7.1 counter rule, with none of the collector's batching.
    struct PerPacketFold {
        paths: Vec<PathState>,
        counters: CostCounters,
    }

    impl PerPacketFold {
        fn new(cfg: HopConfig, paths: &[PathId]) -> Self {
            let paths = paths
                .iter()
                .map(|&path| {
                    let sampler = DelaySampler::new(cfg.marker, cfg.sampling);
                    PathState {
                        path,
                        sampler: match cfg.buffer_cap {
                            Some(cap) => sampler.with_buffer_cap(cap),
                            None => sampler,
                        },
                        aggregator: Aggregator::new(cfg.partition, cfg.j_window),
                    }
                })
                .collect();
            PerPacketFold {
                paths,
                counters: CostCounters::default(),
            }
        }

        fn observe(&mut self, idx: usize, digest: Digest, t: SimTime) {
            let Some(ps) = self.paths.get_mut(idx) else {
                // Out of range: unclassified, no hash charged.
                self.counters.unclassified += 1;
                return;
            };
            self.counters.packets += 1;
            self.counters.hash_ops += 1;
            self.counters.timestamp_ops += 1;
            // §7.1: lookup PathID + update PktCnt + store to temp buffer.
            self.counters.memory_accesses += 3;
            ps.aggregator.observe(digest, t);
            if let ObserveOutcome::Marker { swept, .. } = ps.sampler.observe(digest, t) {
                // One extra access per buffered packet examined (§7.1).
                self.counters.marker_sweep_accesses += swept as u64;
            }
        }

        /// Flush, then drain into receipt form in registration order.
        fn finish(mut self) -> (CostCounters, Vec<SampleReceipt>, Vec<AggReceipt>) {
            let mut samples = Vec::new();
            let mut aggregates = Vec::new();
            for ps in &mut self.paths {
                ps.aggregator.flush();
                let recs = ps.sampler.drain();
                if !recs.is_empty() {
                    samples.push(SampleReceipt {
                        path: ps.path,
                        samples: recs,
                    });
                }
                aggregates.extend(ps.aggregator.drain().into_iter().map(|f| AggReceipt {
                    path: ps.path,
                    agg: f.agg,
                    pkt_cnt: f.pkt_cnt,
                    agg_trans: f.agg_trans,
                }));
            }
            (self.counters, samples, aggregates)
        }
    }

    #[test]
    fn classifies_and_counts() {
        let trace = mk_trace(5_000);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        c.register_path(path_id(spec));
        assert_eq!(ingest_trace(&mut c, &trace), trace.len() as u64);
        c.flush();
        let counters = c.counters();
        assert_eq!(counters.packets, trace.len() as u64);
        assert_eq!(counters.hash_ops, trace.len() as u64);
        assert_eq!(counters.timestamp_ops, trace.len() as u64);
        assert_eq!(counters.memory_accesses, 3 * trace.len() as u64);
        let (samples, aggs) = c.drain_path(0);
        assert!(!samples.is_empty());
        let total: u64 = aggs.iter().map(|a| a.pkt_cnt).sum();
        assert_eq!(total, trace.len() as u64);
    }

    #[test]
    fn unmatched_packets_rejected() {
        let trace = mk_trace(10);
        let mut c = Collector::new(config());
        c.register_path(path_id(HeaderSpec::new(
            "1.0.0.0/8".parse().unwrap(),
            "2.0.0.0/8".parse().unwrap(),
        )));
        for tp in &trace {
            assert!(c.classify(&tp.packet).is_none());
        }
        // Nothing classified, so nothing reaches the collector and no
        // work is charged.
        assert_eq!(ingest_trace(&mut c, &trace), 0);
        assert_eq!(c.counters(), CostCounters::default());
    }

    #[test]
    fn out_of_range_index_rejected_without_hash_charge() {
        let trace = mk_trace(20);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        let idx = c.register_path(path_id(spec));
        assert!(c.ingest(&[(idx, Digest(1), SimTime::ZERO)]).is_clean());
        // A bogus index must not charge a hash for work never done,
        // must not update any path, and must count as unclassified.
        let before = c.counters();
        for tp in trace.iter().take(5) {
            let report = c.ingest(&[(7, tp.packet.digest(), tp.ts)]);
            assert_eq!((report.accepted, report.rejected()), (0, 1));
        }
        let after = c.counters();
        assert_eq!(after.hash_ops, before.hash_ops);
        assert_eq!(after.packets, before.packets);
        assert_eq!(after.timestamp_ops, before.timestamp_ops);
        assert_eq!(after.memory_accesses, before.memory_accesses);
        assert_eq!(after.unclassified, before.unclassified + 5);
    }

    #[test]
    fn multiple_paths_classified_independently() {
        let trace = mk_trace(2_000);
        let real_spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let decoy = HeaderSpec::new("1.0.0.0/8".parse().unwrap(), "2.0.0.0/8".parse().unwrap());
        let mut c = Collector::new(config());
        let decoy_idx = c.register_path(path_id(decoy));
        let real_idx = c.register_path(path_id(real_spec));
        for tp in &trace {
            assert_eq!(c.classify(&tp.packet), Some(real_idx));
        }
        ingest_trace(&mut c, &trace);
        c.flush();
        let (s_decoy, a_decoy) = c.drain_path(decoy_idx);
        assert!(s_decoy.is_empty() && a_decoy.is_empty());
        let (s_real, a_real) = c.drain_path(real_idx);
        assert!(!s_real.is_empty() && !a_real.is_empty());
    }

    #[test]
    fn resource_reporting_tracks_state() {
        let mut c = Collector::new(config());
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        c.register_path(path_id(spec));
        assert_eq!(
            c.monitoring_cache_bytes(),
            crate::overhead::PER_PATH_STATE_BYTES
        );
        ingest_trace(&mut c, &mk_trace(300));
        // Some packets should be buffered awaiting a marker.
        assert!(c.temp_buffer_bytes() > 0);
    }

    /// A HOP observes many concurrent paths; state stays isolated and
    /// the monitoring cache grows linearly (the §7.1 "100,000 paths ⇒
    /// 2 MB" model).
    #[test]
    fn many_paths_isolated_state() {
        use std::net::Ipv4Addr;
        let mut c = Collector::new(config());
        let n_paths = 200u16;
        for i in 0..n_paths {
            // /32-pair paths: each matches exactly one host pair.
            let spec = HeaderSpec::new(
                vpm_packet::Ipv4Prefix::new(Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8), 32)
                    .unwrap(),
                vpm_packet::Ipv4Prefix::new(Ipv4Addr::new(20, 0, (i >> 8) as u8, i as u8), 32)
                    .unwrap(),
            );
            c.register_path(path_id(spec));
        }
        assert_eq!(
            c.monitoring_cache_bytes(),
            n_paths as usize * crate::overhead::PER_PATH_STATE_BYTES
        );
        // Send 50 packets down each of three scattered paths.
        let mut batch = Vec::new();
        for &target in &[0u16, 57, 199] {
            for k in 0..50u16 {
                let mut pkt = vpm_packet::Packet {
                    seq: 0,
                    ipv4: vpm_packet::Ipv4Header::simple(
                        Ipv4Addr::new(10, 0, (target >> 8) as u8, target as u8),
                        Ipv4Addr::new(20, 0, (target >> 8) as u8, target as u8),
                        vpm_packet::ipv4::PROTO_UDP,
                        28,
                    ),
                    transport: vpm_packet::Transport::Udp(vpm_packet::UdpHeader {
                        sport: 1000 + k,
                        dport: 53,
                        length: 8,
                    }),
                    payload_len: 0,
                };
                pkt.ipv4.id = k;
                assert_eq!(c.classify(&pkt), Some(target as usize));
                batch.push((
                    target as usize,
                    pkt.digest(),
                    SimTime::from_micros(k as u64 * 10),
                ));
            }
        }
        assert!(c.ingest(&batch).is_clean());
        c.flush();
        for i in 0..n_paths as usize {
            let (samples, aggs) = c.drain_path(i);
            let total: u64 = aggs.iter().map(|a| a.pkt_cnt).sum();
            if [0usize, 57, 199].contains(&i) {
                assert_eq!(total, 50, "path {i}");
            } else {
                assert_eq!(total, 0, "path {i} must be untouched");
                assert!(samples.is_empty());
            }
        }
    }

    fn pkt(src: std::net::Ipv4Addr, dst: std::net::Ipv4Addr, sport: u16) -> vpm_packet::Packet {
        vpm_packet::Packet {
            seq: 0,
            ipv4: vpm_packet::Ipv4Header::simple(src, dst, vpm_packet::ipv4::PROTO_UDP, 28),
            transport: vpm_packet::Transport::Udp(vpm_packet::UdpHeader {
                sport,
                dport: 53,
                length: 8,
            }),
            payload_len: 0,
        }
    }

    /// The classifier index must preserve the linear scan's
    /// first-registered-match-wins semantics when exact `/32`-pair and
    /// prefix paths overlap.
    #[test]
    fn classifier_index_mixes_exact_and_prefix_paths() {
        use std::net::Ipv4Addr;
        let wide = HeaderSpec::new("10.0.0.0/8".parse().unwrap(), "20.0.0.0/8".parse().unwrap());
        let narrow = HeaderSpec::new(
            "10.0.0.1/32".parse().unwrap(),
            "20.0.0.1/32".parse().unwrap(),
        );
        let other = HeaderSpec::new(
            "10.0.0.2/32".parse().unwrap(),
            "20.0.0.2/32".parse().unwrap(),
        );
        let elsewhere =
            HeaderSpec::new("30.0.0.0/8".parse().unwrap(), "40.0.0.0/8".parse().unwrap());

        // Prefix registered first shadows a later exact pair.
        let mut c = Collector::new(config());
        let w = c.register_path(path_id(wide));
        let n = c.register_path(path_id(narrow));
        let _ = c.register_path(path_id(other));
        let e = c.register_path(path_id(elsewhere));
        assert_ne!(n, w);
        let covered = pkt(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(20, 0, 0, 1), 1);
        assert_eq!(c.classify(&covered), Some(w), "earlier prefix wins");
        let covered2 = pkt(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(20, 0, 0, 2), 1);
        assert_eq!(c.classify(&covered2), Some(w));
        let outside = pkt(Ipv4Addr::new(30, 1, 2, 3), Ipv4Addr::new(40, 4, 5, 6), 1);
        assert_eq!(c.classify(&outside), Some(e));
        let nowhere = pkt(Ipv4Addr::new(50, 0, 0, 1), Ipv4Addr::new(60, 0, 0, 1), 1);
        assert_eq!(c.classify(&nowhere), None);

        // Exact pair registered first outranks a later covering prefix.
        let mut c2 = Collector::new(config());
        let n2 = c2.register_path(path_id(narrow));
        let w2 = c2.register_path(path_id(wide));
        assert_eq!(c2.classify(&covered), Some(n2), "earlier exact pair wins");
        assert_eq!(
            c2.classify(&covered2),
            Some(w2),
            "other host pairs fall to the prefix"
        );

        // Agreement with a reference linear scan across a host sweep.
        for i in 0..16u8 {
            let probe = pkt(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(20, 0, 0, i), 9);
            let linear = [wide, narrow, other, elsewhere]
                .iter()
                .position(|s| s.matches(&probe));
            assert_eq!(c.classify(&probe), linear, "host {i}");
        }
    }

    /// `ingest` must be byte-identical to the per-packet fold —
    /// samples, aggregates, and cost counters — including runs across
    /// multiple paths and invalid indices.
    #[test]
    fn batch_observe_matches_per_packet() {
        let trace = mk_trace(20_000);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let decoy = HeaderSpec::new("1.0.0.0/8".parse().unwrap(), "2.0.0.0/8".parse().unwrap());
        let paths = [path_id(decoy), path_id(spec)];
        // Spread packets over path 0, path 1, and an invalid index.
        let batch: Vec<(usize, Digest, SimTime)> = trace
            .iter()
            .enumerate()
            .map(|(i, tp)| {
                (
                    if i % 31 == 0 { 9 } else { i % 2 },
                    tp.packet.digest(),
                    tp.ts,
                )
            })
            .collect();

        let mut per_packet = PerPacketFold::new(config(), &paths);
        for &(idx, d, t) in &batch {
            per_packet.observe(idx, d, t);
        }
        let expected = per_packet.finish();

        for batch_size in [1usize, 64, 257] {
            let mut batched = Collector::new(config());
            for &p in &paths {
                batched.register_path(p);
            }
            for chunk in batch.chunks(batch_size) {
                let _ = batched.ingest(chunk);
            }
            batched.flush();
            let mut samples = Vec::new();
            let mut aggregates = Vec::new();
            batched.drain_receipts(&mut samples, &mut aggregates);
            assert_eq!(
                (batched.counters(), samples, aggregates),
                expected,
                "bs {batch_size}"
            );
        }
    }

    /// Re-registering an identical `PathId` must return the original
    /// index and create no second state slot; a *different* `PathId`
    /// sharing the same spec still gets its own slot (the classifier
    /// keeps first-match-wins as ever).
    #[test]
    fn duplicate_registration_is_idempotent() {
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        let a = c.register_path(path_id(spec));
        let b = c.register_path(path_id(spec));
        assert_eq!(a, b, "exact duplicate returns the existing index");
        assert_eq!(c.path_count(), 1, "no phantom state slot");

        // Same spec, different hops: a distinct PathId, distinct slot.
        let mut other = path_id(spec);
        other.next_hop = Some(HopId(9));
        let d = c.register_path(other);
        assert_ne!(a, d);
        assert_eq!(c.path_count(), 2);

        // Observations after the duplicate registration land on the
        // one true slot.
        let trace = mk_trace(500);
        for tp in &trace {
            assert_eq!(c.classify(&tp.packet), Some(a));
        }
        ingest_trace(&mut c, &trace);
        c.flush();
        let (_, aggs) = c.drain_path(a);
        let total: u64 = aggs.iter().map(|x| x.pkt_cnt).sum();
        assert_eq!(total, trace.len() as u64);
    }

    /// `Ingest::ingest` must (a) leave state and counters exactly as
    /// the per-packet fold would, and (b) surface
    /// each out-of-range entry as a typed `PathOutOfRange` carrying
    /// its batch position.
    #[test]
    fn ingest_reports_out_of_range_entries_typed() {
        let trace = mk_trace(100);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        let idx = c.register_path(path_id(spec));

        let batch: Vec<(usize, Digest, SimTime)> = trace
            .iter()
            .enumerate()
            .map(|(i, tp)| {
                (
                    if i % 10 == 3 { 42 } else { idx },
                    tp.packet.digest(),
                    tp.ts,
                )
            })
            .collect();
        let bad = batch.iter().filter(|&&(i, _, _)| i == 42).count();

        let mut reference = PerPacketFold::new(config(), &[path_id(spec)]);
        for &(i, d, t) in &batch {
            reference.observe(i, d, t);
        }

        let report = c.ingest(&batch);
        assert_eq!(report.accepted, (batch.len() - bad) as u64);
        assert_eq!(report.rejected(), bad as u64);
        assert!(!report.is_clean());
        for (err, (entry_pos, _)) in report
            .errors
            .iter()
            .zip(batch.iter().enumerate().filter(|(_, e)| e.0 == 42))
        {
            match *err {
                IngestError::PathOutOfRange {
                    entry,
                    index,
                    paths,
                } => {
                    assert_eq!(entry, entry_pos);
                    assert_eq!(index, 42);
                    assert_eq!(paths, 1);
                }
            }
        }
        assert_eq!(c.counters(), reference.counters);
        assert_eq!(
            c.counters().unclassified,
            bad as u64,
            "typed errors and unclassified accounting agree"
        );

        // A clean batch allocates no error list.
        let clean: Vec<(usize, Digest, SimTime)> = trace
            .iter()
            .map(|tp| (idx, tp.packet.digest(), tp.ts))
            .collect();
        let report = c.ingest(&clean);
        assert!(report.is_clean());
        assert_eq!(report.accepted, clean.len() as u64);
    }

    #[test]
    fn marker_sweep_accounting() {
        let trace = mk_trace(20_000);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        c.register_path(path_id(spec));
        ingest_trace(&mut c, &trace);
        let counters = c.counters();
        // Every non-marker packet is swept exactly once (when the next
        // marker arrives), so sweep accesses ≈ packets − markers −
        // still-buffered.
        let ps = c.path(0).unwrap();
        let expected = counters.packets - ps.sampler.stats().markers - ps.sampler.buffered() as u64;
        assert_eq!(counters.marker_sweep_accesses, expected);
    }
}
