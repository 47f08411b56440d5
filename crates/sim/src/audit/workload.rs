//! The long-horizon audit workload behind `vpm audit`.
//!
//! A synthetic fleet of 4-HOP paths publishes one receipt batch per
//! HOP per reporting interval for thousands of intervals, under
//! churn: paths leave and rejoin, HOPs start and stop lying about
//! their packet counts. A single [`Auditor`] follows the stream,
//! folds every interval incrementally, periodically checkpoints, and
//! drives the bus's epoch GC by compacting below its own cursor. The
//! driver measures what continuous operation is supposed to
//! guarantee — retained entry count and process RSS stay **flat** no
//! matter how many intervals pass — and, with
//! [`AuditConfig::assert_flat`], turns a violation into a typed
//! [`AuditError::NotFlat`] instead of a green run.
//!
//! Everything is deterministic in [`AuditConfig::seed`] (churn and
//! packet counts come from the same splitmix64 stream the fleet
//! harness uses), so an interrupted-and-restored run must serialize
//! the exact same [`AuditVerdict`] as an uninterrupted one — the
//! byte-identity CI gate diffs the two JSON outputs directly.

use serde::{Deserialize, Serialize};
use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::{AggId, AggReceipt, PathId};
use vpm_hash::{Digest, HopKey};
use vpm_packet::{DomainId, HeaderSpec, HopId, Ipv4Prefix, SimDuration};
use vpm_wire::{Profile, ReceiptTransport, ShardedBus, TransportError};

use super::{AuditError, AuditVerdict, Auditor, HOPS_PER_PATH};
use crate::fleet::mix;

/// Default seed for the audit workload's churn/count stream.
pub const AUDIT_BASE_SEED: u64 = 0x5eed_a0d1;

/// The auditing domain: sees every published entry (the workload puts
/// it on-path for all traffic — the regulator position of the paper).
const AUDIT_REQUESTER: DomainId = DomainId(0);

/// Packet count a liar's egress HOPs add to their reports — any
/// nonzero delta makes the interval's HOP chain inconsistent.
const LIE_DELTA: u64 = 7;

/// Splitmix salts separating the three decision streams drawn from
/// one seed (membership churn, liar churn, per-interval counts).
const SALT_ACTIVE: u64 = 0xace0_0001;
const SALT_LIAR: u64 = 0x11a7_0002;
const SALT_COUNT: u64 = 0xc047_0003;

/// Odd multiplier decorrelating the (interval, slot) pair folded into
/// one splitmix salt.
const SLOT_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The audit workload caps path slots so every HOP id
/// (`1 + slot * 4 + idx`) stays inside `u16`.
pub const MAX_AUDIT_PATHS: usize = 16_000;

/// The deterministic churn process: which path slots are currently
/// publishing, and which of those currently lie.
#[derive(Debug, Clone)]
pub struct Churn {
    seed: u64,
    /// Slot currently publishes (paths leave and rejoin the fleet).
    active: Vec<bool>,
    /// Slot's egress HOPs currently misreport counts.
    liar: Vec<bool>,
}

impl Churn {
    /// All slots active and honest; churn begins with [`Churn::step`].
    pub fn new(paths: usize, seed: u64) -> Churn {
        let paths = paths.min(MAX_AUDIT_PATHS);
        Churn {
            seed,
            active: vec![true; paths],
            liar: vec![false; paths],
        }
    }

    /// Test constructor: a fixed membership/liar assignment (never
    /// stepped by the tests that use it).
    #[cfg(test)]
    pub(crate) fn fixed(paths: usize, active: &[bool], liar: &[bool]) -> Churn {
        let mut c = Churn::new(paths, 0);
        for (dst, src) in c.active.iter_mut().zip(active) {
            *dst = *src;
        }
        for (dst, src) in c.liar.iter_mut().zip(liar) {
            *dst = *src;
        }
        c
    }

    /// Advance the churn process to interval `t`: each slot flips
    /// membership with probability 1/64 and liar status with
    /// probability 1/32, decided by the seed alone.
    pub fn step(&mut self, t: u64) {
        for (s, a) in self.active.iter_mut().enumerate() {
            let cell = t.wrapping_mul(SLOT_MIX).wrapping_add(s as u64);
            if mix(self.seed, SALT_ACTIVE ^ cell).is_multiple_of(64) {
                *a = !*a;
            }
        }
        for (s, l) in self.liar.iter_mut().enumerate() {
            let cell = t.wrapping_mul(SLOT_MIX).wrapping_add(s as u64);
            if mix(self.seed, SALT_LIAR ^ cell).is_multiple_of(32) {
                *l = !*l;
            }
        }
    }

    /// Slots currently publishing.
    pub fn active_paths(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }
}

/// The HOP at position `idx` (0 = ingress … 3 = egress) of path slot
/// `slot`. Slot counts are capped at [`MAX_AUDIT_PATHS`] so the id
/// arithmetic never leaves `u16`; HOP 0 is reserved (the auditor
/// treats it as "not a workload HOP").
fn slot_hop(slot: usize, idx: u16) -> HopId {
    HopId(1 + (slot as u16) * HOPS_PER_PATH + idx)
}

/// Each HOP signs with a key derived from the workload seed space
/// (same idiom as the fleet and bench harnesses).
fn slot_key(hop: HopId) -> HopKey {
    HopKey::from_seed(0xa0d1_7000 ^ u64::from(hop.0))
}

/// A distinct synthetic `PathID` per slot, so frames spread across the
/// bus's path-hashed shards exactly like real per-path traffic.
#[expect(clippy::expect_used, reason = "a /32 literal prefix is always valid")]
fn slot_path(slot: usize) -> PathId {
    let (hi, lo) = ((slot >> 8) as u8, slot as u8);
    PathId {
        spec: HeaderSpec::new(
            Ipv4Prefix::new(std::net::Ipv4Addr::new(10, hi, lo, 1), 32)
                .expect("a /32 literal prefix is always valid"),
            Ipv4Prefix::new(std::net::Ipv4Addr::new(20, hi, lo, 1), 32)
                .expect("a /32 literal prefix is always valid"),
        ),
        prev_hop: Some(slot_hop(slot, 0)),
        next_hop: Some(slot_hop(slot, HOPS_PER_PATH - 1)),
        max_diff: SimDuration::from_millis(2),
    }
}

/// Publish one HOP's signed aggregate report for one interval.
pub(crate) fn publish_hop(
    transport: &dyn ReceiptTransport,
    slot: usize,
    idx: u16,
    interval: u64,
    count: u64,
) -> Result<u64, TransportError> {
    let hop = slot_hop(slot, idx);
    let key = slot_key(hop);
    transport.register_key(hop, key)?; // idempotent after the first interval
    let batch = ReceiptBatch {
        hop,
        batch_seq: interval,
        samples: vec![],
        aggregates: vec![AggReceipt {
            path: slot_path(slot),
            agg: AggId {
                first: Digest(interval.wrapping_mul(2) + 1),
                last: Digest(interval.wrapping_mul(2) + 2),
            },
            pkt_cnt: count,
            agg_trans: vec![],
        }],
    };
    // The publisher domain is the slot's own; the auditor is on-path
    // for everything (the visibility rule stays exercised, not waived).
    let publisher = DomainId(1 + (slot as u16));
    transport.publish_batch(
        publisher,
        &batch,
        Profile::Precise,
        vec![AUDIT_REQUESTER, publisher],
        &key,
    )
}

/// Publish one reporting interval for every active slot: four HOP
/// reports per path, egress HOPs of lying slots off by `lie_delta`.
/// Returns the number of frames published.
pub fn publish_interval(
    transport: &dyn ReceiptTransport,
    churn: &Churn,
    interval: u64,
    lie_delta: u64,
) -> Result<usize, TransportError> {
    let mut published = 0;
    for (slot, active) in churn.active.iter().enumerate() {
        if !*active {
            continue;
        }
        let cell = interval.wrapping_mul(SLOT_MIX).wrapping_add(slot as u64);
        let honest = 100 + mix(churn.seed, SALT_COUNT ^ cell) % 50;
        let lying = churn.liar.get(slot).copied().unwrap_or(false);
        for idx in 0..HOPS_PER_PATH {
            let count = if lying && idx >= HOPS_PER_PATH / 2 {
                honest + lie_delta
            } else {
                honest
            };
            publish_hop(transport, slot, idx, interval, count)?;
            published += 1;
        }
    }
    Ok(published)
}

/// Shape of one `vpm audit` run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AuditConfig {
    /// Path slots in the fleet (capped at [`MAX_AUDIT_PATHS`]).
    pub paths: usize,
    /// Reporting intervals to simulate.
    pub intervals: u64,
    /// Shards of the bus under audit.
    pub shards: usize,
    /// Compact the bus below the auditor's cursor every this many
    /// intervals (0 disables GC — the workload then grows without
    /// bound, which is exactly what `assert_flat` exists to catch).
    pub gc_every: u64,
    /// Encode a checkpoint every this many intervals (0 disables).
    pub checkpoint_every: u64,
    /// Stop after this interval, checkpoint, tear the auditor down,
    /// and restore a fresh one from the encoded bytes — the
    /// byte-identity gate runs with and without this set.
    pub restart_at: Option<u64>,
    /// Seed of the churn/count stream.
    pub seed: u64,
    /// Fail with [`AuditError::NotFlat`] if retained entries exceed
    /// the GC-window bound or RSS grows past the slack.
    pub assert_flat: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            paths: 16,
            intervals: 2000,
            shards: 8,
            gc_every: 32,
            checkpoint_every: 256,
            restart_at: None,
            seed: AUDIT_BASE_SEED,
            assert_flat: false,
        }
    }
}

/// Operational counters of one audit run (reported alongside the
/// verdict, never inside it — the verdict must be restart-invariant).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AuditRunStats {
    /// Frames published.
    pub publishes: u64,
    /// Entries reclaimed by GC passes.
    pub reclaimed: u64,
    /// GC passes run.
    pub gc_passes: u64,
    /// Checkpoints encoded.
    pub checkpoints: u64,
    /// Auditor restarts performed.
    pub restarts: u64,
    /// Peak retained entry count observed on the bus.
    pub max_entries: usize,
    /// Retained entries at the end of the run.
    pub final_entries: usize,
    /// Size of the last encoded checkpoint, in bytes.
    pub checkpoint_bytes: usize,
    /// Interval-summary records the GC passes left behind.
    pub summary_records: usize,
    /// Resident set size after the first GC pass, KiB (Linux only).
    pub rss_baseline_kb: Option<u64>,
    /// Resident set size at the end of the run, KiB (Linux only).
    pub rss_end_kb: Option<u64>,
}

/// A completed audit run: the deterministic verdict plus the
/// operational stats.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditOutcome {
    /// The restart-invariant verdict (`vpm audit --json` prints
    /// exactly this).
    pub verdict: AuditVerdict,
    /// Operational counters (human output only).
    pub stats: AuditRunStats,
}

/// Resident set size in KiB from `/proc/self/statm` (resident pages ×
/// 4 KiB). `None` off-Linux or when unreadable — the flatness check
/// then rests on the exact entry-count bound alone.
fn rss_kb() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4)
}

/// RSS growth slack for `assert_flat`, KiB. Allocator arenas and lazy
/// page-ins move RSS without an actual leak; a real per-interval leak
/// blows through this within a few hundred intervals.
const RSS_SLACK_KB: u64 = 32 * 1024;

/// Drive the long-horizon workload. See the module docs for the
/// shape; every failure is a typed [`AuditError`].
pub fn run_audit(cfg: &AuditConfig) -> Result<AuditOutcome, AuditError> {
    let bus = ShardedBus::new(cfg.shards);
    let mut churn = Churn::new(cfg.paths, cfg.seed);
    let mut auditor = Auditor::subscribe(&bus, AUDIT_REQUESTER)?;
    let mut stats = AuditRunStats::default();
    for t in 0..cfg.intervals {
        churn.step(t);
        stats.publishes += publish_interval(&bus, &churn, t, LIE_DELTA)? as u64;
        auditor.drain(&bus)?;
        auditor.finish_interval()?;
        if cfg.checkpoint_every > 0 && (t + 1) % cfg.checkpoint_every == 0 {
            let bytes = auditor.checkpoint(&bus)?.encode()?;
            stats.checkpoints += 1;
            stats.checkpoint_bytes = bytes.len();
        }
        if cfg.restart_at == Some(t + 1) {
            let bytes = auditor.checkpoint(&bus)?.encode()?;
            stats.checkpoint_bytes = bytes.len();
            auditor.shutdown(&bus);
            auditor = Auditor::restore(&bus, AUDIT_REQUESTER, &bytes)?;
            stats.restarts += 1;
        }
        if cfg.gc_every > 0 && (t + 1) % cfg.gc_every == 0 {
            let report = bus.compact_before(auditor.next_seq())?;
            stats.reclaimed += report.reclaimed;
            stats.gc_passes += 1;
            if stats.rss_baseline_kb.is_none() {
                // Baseline after the first full GC window: caches and
                // allocator arenas are warm, growth past here is real.
                stats.rss_baseline_kb = rss_kb();
            }
        }
        stats.max_entries = stats.max_entries.max(bus.len());
    }
    stats.final_entries = bus.len();
    stats.summary_records = bus.summaries()?.len();
    stats.rss_end_kb = rss_kb();
    if cfg.assert_flat {
        assert_flat(cfg, &stats)?;
    }
    let verdict = auditor.verdict();
    auditor.shutdown(&bus);
    Ok(AuditOutcome { verdict, stats })
}

/// The bounded-memory contract: retained entries never exceed one GC
/// window of publishes, and RSS never grows past the slack from its
/// post-warmup baseline.
fn assert_flat(cfg: &AuditConfig, stats: &AuditRunStats) -> Result<(), AuditError> {
    if cfg.gc_every > 0 {
        let window =
            cfg.gc_every as usize * cfg.paths.min(MAX_AUDIT_PATHS) * HOPS_PER_PATH as usize;
        if stats.max_entries > window {
            return Err(AuditError::NotFlat {
                what: format!(
                    "retained entries peaked at {} (> one GC window of {})",
                    stats.max_entries, window
                ),
            });
        }
    }
    if let (Some(base), Some(end)) = (stats.rss_baseline_kb, stats.rss_end_kb) {
        if end > base + RSS_SLACK_KB {
            return Err(AuditError::NotFlat {
                what: format!("RSS grew from {base} KiB to {end} KiB (> {RSS_SLACK_KB} KiB slack)"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn quick_cfg() -> AuditConfig {
        AuditConfig {
            paths: 4,
            intervals: 96,
            shards: 4,
            gc_every: 8,
            checkpoint_every: 16,
            restart_at: None,
            seed: 0xfeed,
            assert_flat: true,
        }
    }

    /// The workload is deterministic in its seed, GC actually
    /// reclaims, and the entry count respects the GC-window bound.
    #[test]
    fn the_workload_is_flat_and_deterministic() {
        let cfg = quick_cfg();
        let a = run_audit(&cfg).unwrap();
        let b = run_audit(&cfg).unwrap();
        assert_eq!(
            serde_json::to_string(&a.verdict).unwrap(),
            serde_json::to_string(&b.verdict).unwrap()
        );
        assert!(a.stats.gc_passes >= 12, "gc_passes {}", a.stats.gc_passes);
        assert!(a.stats.reclaimed > 0);
        assert!(a.stats.checkpoints >= 6);
        assert!(a.stats.checkpoint_bytes > 0);
        assert!(a.stats.max_entries <= 8 * 4 * 4);
        assert!(
            a.stats.final_entries <= 8 * 4 * 4,
            "final {}",
            a.stats.final_entries
        );
        assert!(a.stats.summary_records > 0);
        // Churn visibly happened: not every interval audited every path.
        assert!(a.verdict.audited_intervals < cfg.intervals * cfg.paths as u64);
        // And some lying was caught.
        assert!(a.verdict.flagged_intervals > 0);
    }

    /// Without GC the same workload violates the flatness contract —
    /// the assertion is real, not tautological.
    #[test]
    fn disabling_gc_trips_the_flatness_assertion() {
        let cfg = AuditConfig {
            gc_every: 0,
            ..quick_cfg()
        };
        // With gc_every = 0 the entry bound is skipped, so re-enable a
        // tiny window the un-GC'd run must blow through: run with GC
        // disabled but judge with the standard window.
        let out = run_audit(&AuditConfig {
            assert_flat: false,
            ..cfg
        })
        .unwrap();
        let judged = assert_flat(&quick_cfg(), &out.stats);
        assert!(matches!(judged, Err(AuditError::NotFlat { .. })));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite: checkpoint/restart equivalence across arbitrary
        /// interruption points — stopping after any interval and
        /// restoring from the encoded checkpoint yields a verdict
        /// byte-identical to the uninterrupted run.
        #[test]
        fn restart_at_any_interval_is_verdict_invisible(restart in 1u64..64) {
            let mut cfg = AuditConfig {
                paths: 3,
                intervals: 64,
                shards: 4,
                gc_every: 16,
                checkpoint_every: 32,
                restart_at: None,
                seed: 0xbead,
                assert_flat: true,
            };
            let full = run_audit(&cfg).unwrap();
            cfg.restart_at = Some(restart);
            let restarted = run_audit(&cfg).unwrap();
            prop_assert_eq!(restarted.stats.restarts, 1);
            prop_assert_eq!(
                serde_json::to_string(&full.verdict).unwrap(),
                serde_json::to_string(&restarted.verdict).unwrap()
            );
        }
    }
}
