//! The multi-core collector plane: per-shard [`Collector`]s behind the
//! same batch-first [`Ingest`] surface.
//!
//! The paper's target regime is a 100,000-path router at 25 Gbps; one
//! `&mut self` collector caps the reproduction at a single core no
//! matter how fast the digest kernel gets. [`ShardedCollector`] breaks
//! that cap the same way the receipt bus did: paths are partitioned by
//! [`PathId::shard_key`] — *the* path-sharding hash of the system, so
//! a path lands on the same shard index here as on the bus when shard
//! counts match — and each shard is a complete, independent
//! [`Collector`] that one worker core owns during a batch.
//!
//! ## Execution model
//!
//! [`ingest`](Ingest::ingest) partitions the batch per shard in one
//! pass (translating global path indices to shard-local ones), then
//! runs every non-empty shard's sub-batch on its own scoped worker
//! thread, [`par_map_indexed`](crate::par_map_indexed)-style: each
//! worker exclusively owns one shard's `&mut Collector`, so shards
//! share no mutable state, take no locks, and the batch joins before
//! `ingest` returns. [`CostCounters`] aggregation is lock-free by
//! construction — every shard mutates only its own counters and
//! [`counters`](Ingest::counters) sums them after the join.
//!
//! ## Determinism
//!
//! For the same registrations and batches,
//! [`drain_receipts`](Ingest::drain_receipts) is **byte-identical to a
//! single-core [`Collector`] at every shard count** (pinned across
//! {1, 2, 4, 8} shards by the tests below): per-path observation order
//! is preserved by the in-order partition pass, paths share no
//! measurement state, and the drain walks global registration order —
//! not shard order — when merging.

use vpm_hash::Digest;
use vpm_packet::SimTime;

use crate::collector::{Collector, CostCounters};
use crate::hop::HopConfig;
use crate::ingest::{Ingest, IngestError, IngestReport};
use crate::receipt::{AggReceipt, PathId, SampleReceipt};

/// A collector plane sharded across worker cores by
/// [`PathId::shard_key`]. See the module docs for the execution and
/// determinism model.
#[derive(Debug)]
pub struct ShardedCollector {
    shards: Vec<Collector>,
    /// Global path index → `(shard, shard-local index)`, in
    /// registration order — the merge order of `drain_receipts`.
    routes: Vec<(usize, usize)>,
    /// Per shard, shard-local index → global index. A shard's
    /// [`Collector::register_path`] is idempotent, so a local index it
    /// already handed out names a duplicate registration.
    globals: Vec<Vec<usize>>,
    /// Entries rejected at the router (global index out of range).
    /// Folded into the `unclassified` counter so the sharded plane's
    /// accounting matches the single-core fold entry for entry.
    router_unclassified: u64,
    /// Reusable per-shard sub-batches (capacities persist).
    scratch: Vec<Vec<(usize, Digest, SimTime)>>,
}

impl ShardedCollector {
    /// New sharded collector: `shards` independent [`Collector`]s
    /// (clamped to at least 1), every one configured identically with
    /// `config`. Size `shards` to the worker cores you want batches
    /// spread across.
    pub fn new(config: HopConfig, shards: usize) -> Self {
        let n = shards.max(1);
        ShardedCollector {
            shards: (0..n).map(|_| Collector::new(config)).collect(),
            routes: Vec::new(),
            globals: (0..n).map(|_| Vec::new()).collect(),
            router_unclassified: 0,
            scratch: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Register a path; returns its **global** index — the index batch
    /// entries carry into [`Ingest::ingest`]. The shard is
    /// `path.shard_key() % shard_count()`, the same reduction the
    /// receipt bus applies. Idempotent on exact duplicates: an
    /// already-registered `PathId` returns its existing global index
    /// and changes nothing.
    pub fn register_path(&mut self, path: PathId) -> usize {
        let shard = (path.shard_key() % self.shards.len() as u64) as usize;
        let global = self.routes.len();
        if let (Some(col), Some(globals)) =
            (self.shards.get_mut(shard), self.globals.get_mut(shard))
        {
            let local = col.register_path(path);
            if let Some(&known) = globals.get(local) {
                return known;
            }
            self.routes.push((shard, local));
            globals.push(global);
        }
        global
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered paths (across all shards).
    pub fn path_count(&self) -> usize {
        self.routes.len()
    }

    /// The shard a registered global path index routes to, if any.
    pub fn shard_of(&self, global: usize) -> Option<usize> {
        self.routes.get(global).map(|&(shard, _)| shard)
    }
}

impl Ingest for ShardedCollector {
    /// Partition the batch per shard (in one in-order pass, preserving
    /// per-path observation order), then ingest every non-empty shard
    /// on its own scoped worker thread. Entries with an unregistered
    /// global index are rejected at the router with a typed
    /// [`IngestError::PathOutOfRange`] and counted as unclassified —
    /// the same accounting as the single-core fold.
    fn ingest(&mut self, batch: &[(usize, Digest, SimTime)]) -> IngestReport {
        for sub in &mut self.scratch {
            sub.clear();
        }
        let paths = self.routes.len();
        let mut errors = Vec::new();
        for (entry, &(global, d, t)) in batch.iter().enumerate() {
            match self.routes.get(global) {
                Some(&(shard, local)) => {
                    if let Some(sub) = self.scratch.get_mut(shard) {
                        sub.push((local, d, t));
                    }
                }
                None => {
                    self.router_unclassified += 1;
                    errors.push(IngestError::PathOutOfRange {
                        entry,
                        index: global,
                        paths,
                    });
                }
            }
        }

        let active = self.scratch.iter().filter(|sub| !sub.is_empty()).count();
        if active == 1 {
            // One shard touched: run inline, no thread to spawn.
            for (col, sub) in self.shards.iter_mut().zip(self.scratch.iter()) {
                if !sub.is_empty() {
                    let _report = col.ingest(sub);
                    debug_assert!(
                        _report.is_clean(),
                        "shard-local indices are valid by construction"
                    );
                }
            }
        } else if active > 1 {
            std::thread::scope(|s| {
                for (col, sub) in self.shards.iter_mut().zip(self.scratch.iter()) {
                    if sub.is_empty() {
                        continue;
                    }
                    s.spawn(move || {
                        let _report = col.ingest(sub);
                        debug_assert!(
                            _report.is_clean(),
                            "shard-local indices are valid by construction"
                        );
                    });
                }
            });
        }

        IngestReport {
            accepted: (batch.len() - errors.len()) as u64,
            errors,
        }
    }

    fn flush(&mut self) {
        for col in &mut self.shards {
            col.flush();
        }
    }

    /// Drain every shard (each in its own registration order), then
    /// merge in **global registration order**, not shard order:
    /// walking `routes` yields exactly the path sequence a single
    /// collector with the same registrations would drain, which is
    /// what makes the output byte-identical at any shard count.
    fn drain_receipts(
        &mut self,
        samples: &mut Vec<SampleReceipt>,
        aggregates: &mut Vec<AggReceipt>,
    ) {
        let mut drained: Vec<_> = self
            .shards
            .iter_mut()
            .map(|col| {
                let (mut s, mut a) = (Vec::new(), Vec::new());
                col.drain_receipts(&mut s, &mut a);
                (s.into_iter().peekable(), a.into_iter().peekable())
            })
            .collect();
        for &(shard, local) in &self.routes {
            let (Some(path), Some((s, a))) = (
                self.shards.get(shard).and_then(|col| col.path_id(local)),
                drained.get_mut(shard),
            ) else {
                continue;
            };
            samples.extend(s.next_if(|r| r.path == path));
            while let Some(r) = a.next_if(|r| r.path == path) {
                aggregates.push(r);
            }
        }
    }

    /// Sum of every shard's counters plus the router's rejected
    /// entries — computed without synchronization, since shards only
    /// ever mutate their own counters and `ingest` joins its workers
    /// before returning.
    fn counters(&self) -> CostCounters {
        let mut total = CostCounters {
            unclassified: self.router_unclassified,
            ..CostCounters::default()
        };
        for col in &self.shards {
            let c = col.counters();
            total.packets += c.packets;
            total.memory_accesses += c.memory_accesses;
            total.hash_ops += c.hash_ops;
            total.timestamp_ops += c.timestamp_ops;
            total.marker_sweep_accesses += c.marker_sweep_accesses;
            total.unclassified += c.unclassified;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Processor;
    use vpm_packet::{DomainId, HeaderSpec, HopId, SimDuration};

    fn config() -> HopConfig {
        HopConfig::new(HopId(4), DomainId(2))
            .with_sampling_rate(0.05)
            .with_aggregate_size(100)
            .with_marker_rate(0.01)
            .with_j_window(SimDuration::from_millis(1))
    }

    fn path_id(i: u16) -> PathId {
        use std::net::Ipv4Addr;
        let spec = HeaderSpec::new(
            vpm_packet::Ipv4Prefix::new(Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8), 32).unwrap(),
            vpm_packet::Ipv4Prefix::new(Ipv4Addr::new(20, 0, (i >> 8) as u8, i as u8), 32).unwrap(),
        );
        PathId {
            spec,
            prev_hop: Some(HopId(3)),
            next_hop: Some(HopId(5)),
            max_diff: SimDuration::from_millis(2),
        }
    }

    /// A mixed-path workload: traffic concentrated on a few paths,
    /// several registered paths left idle (empty intervals), plus a
    /// sprinkle of out-of-range indices.
    fn workload(n_paths: usize, packets: usize) -> Vec<(usize, Digest, SimTime)> {
        (0..packets)
            .map(|k| {
                let idx = if k % 97 == 13 {
                    n_paths + 7 // out of range
                } else {
                    // Concentrate on ~1/4 of the paths; the rest stay
                    // idle so empty intervals are part of the drain.
                    (k * 31) % (n_paths / 4).max(1)
                };
                let d = Digest(vpm_hash::lookup3::hash64(&(k as u64).to_le_bytes(), 99));
                (idx, d, SimTime::from_micros(k as u64))
            })
            .collect()
    }

    /// The acceptance bar of the tentpole: at shard counts {1, 2, 4, 8}
    /// the sharded plane's receipts, counters, and typed reports are
    /// byte-identical to a single-core `Collector` fed the same
    /// batches — including idle paths and rejected entries.
    #[test]
    fn drain_merges_byte_identical_to_single_core_at_every_shard_count() {
        let n_paths = 37usize;
        let batch = workload(n_paths, 30_000);

        let mut single = Collector::new(config());
        for i in 0..n_paths {
            single.register_path(path_id(i as u16));
        }
        let mut single_report = IngestReport::default();
        for chunk in batch.chunks(4096) {
            single_report.merge(single.ingest(chunk));
        }
        single.flush();
        let (mut s_ref, mut a_ref) = (Vec::new(), Vec::new());
        single.drain_receipts(&mut s_ref, &mut a_ref);
        assert!(
            !s_ref.is_empty() && !a_ref.is_empty(),
            "workload must produce receipts for the identity to mean anything"
        );

        for shards in [1usize, 2, 4, 8] {
            let mut sharded = ShardedCollector::new(config(), shards);
            for i in 0..n_paths {
                assert_eq!(sharded.register_path(path_id(i as u16)), i);
            }
            let mut report = IngestReport::default();
            for chunk in batch.chunks(4096) {
                report.merge(sharded.ingest(chunk));
            }
            sharded.flush();
            let (mut s, mut a) = (Vec::new(), Vec::new());
            sharded.drain_receipts(&mut s, &mut a);
            assert_eq!(s, s_ref, "{shards} shards: sample receipts");
            assert_eq!(a, a_ref, "{shards} shards: aggregate receipts");
            assert_eq!(
                sharded.counters(),
                single.counters(),
                "{shards} shards: cost counters"
            );
            assert_eq!(report, single_report, "{shards} shards: ingest reports");
        }
    }

    /// `Processor::report` is generic over `Ingest`; the batch from a
    /// sharded plane must be identical to the single-core one.
    #[test]
    fn processor_report_is_identical_over_sharded_plane() {
        let n_paths = 16usize;
        let batch: Vec<_> = workload(n_paths, 10_000)
            .into_iter()
            .filter(|&(i, _, _)| i < n_paths)
            .collect();

        let run = |ingestor: &mut dyn Ingest| {
            let report = ingestor.ingest(&batch);
            assert!(report.is_clean());
            ingestor.flush();
            Processor::new(HopId(4)).report(ingestor)
        };

        let mut single = Collector::new(config());
        for i in 0..n_paths {
            single.register_path(path_id(i as u16));
        }
        let reference = run(&mut single);

        for shards in [2usize, 5] {
            let mut sharded = ShardedCollector::new(config(), shards);
            for i in 0..n_paths {
                sharded.register_path(path_id(i as u16));
            }
            assert_eq!(run(&mut sharded), reference, "{shards} shards");
        }
    }

    #[test]
    fn duplicate_registration_is_idempotent_across_shards() {
        let mut sharded = ShardedCollector::new(config(), 4);
        let a = sharded.register_path(path_id(7));
        let b = sharded.register_path(path_id(8));
        assert_eq!(sharded.register_path(path_id(7)), a);
        assert_eq!(sharded.register_path(path_id(8)), b);
        assert_eq!(sharded.path_count(), 2);
    }

    #[test]
    fn shard_assignment_matches_path_shard_key() {
        let shards = 4usize;
        let mut sharded = ShardedCollector::new(config(), shards);
        for i in 0..64u16 {
            let p = path_id(i);
            let g = sharded.register_path(p);
            assert_eq!(
                sharded.shard_of(g),
                Some((p.shard_key() % shards as u64) as usize),
                "path {i} must land where the bus's shard hash says"
            );
        }
        // With enough paths, every shard should own some of them.
        for s in 0..shards {
            assert!(
                (0..64).any(|g| sharded.shard_of(g) == Some(s)),
                "shard {s} got no paths"
            );
        }
    }

    #[test]
    fn out_of_range_entries_reported_and_counted() {
        let mut sharded = ShardedCollector::new(config(), 3);
        sharded.register_path(path_id(0));
        let d = Digest(1);
        let t = SimTime::ZERO;
        let report = sharded.ingest(&[(0, d, t), (5, d, t), (0, d, t)]);
        assert_eq!(report.accepted, 2);
        assert_eq!(
            report.errors,
            vec![IngestError::PathOutOfRange {
                entry: 1,
                index: 5,
                paths: 1,
            }]
        );
        let c = sharded.counters();
        assert_eq!(c.unclassified, 1);
        assert_eq!(c.packets, 2);
        assert_eq!(c.hash_ops, 2, "rejected entries are charged no hash");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let mut sharded = ShardedCollector::new(config(), 0);
        assert_eq!(sharded.shard_count(), 1);
        let g = sharded.register_path(path_id(1));
        assert_eq!(sharded.shard_of(g), Some(0));
    }
}
