//! The batch-first ingest surface.
//!
//! [`Ingest`] is the only way packets enter a collector: one call per
//! pre-classified, pre-digested batch, one [`IngestReport`] back.
//!
//! * **One entry point.** [`Collector`](crate::Collector) and the
//!   multi-core [`ShardedCollector`](crate::ShardedCollector) are
//!   interchangeable behind `impl Ingest` — `Processor::report` is
//!   generic over it.
//! * **Typed errors.** An entry naming an unregistered path index
//!   comes back as [`IngestError::PathOutOfRange`] in the report
//!   (position, offending index, table size). The entry counts into
//!   [`CostCounters::unclassified`] and is charged no hash.

use vpm_hash::Digest;
use vpm_packet::SimTime;

use crate::collector::CostCounters;
use crate::receipt::{AggReceipt, SampleReceipt};

/// A typed rejection of one entry in an ingest batch.
///
/// Every variant is reachable from the public API, pinned by
/// `tests/error_variants.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The entry named a path index with no registered path. The entry
    /// was counted as unclassified and charged no hash — nothing about
    /// the collector's measurement state changed.
    PathOutOfRange {
        /// Position of the offending entry within the batch.
        entry: usize,
        /// The path index the entry carried.
        index: usize,
        /// Number of registered paths at the time of the call.
        paths: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::PathOutOfRange {
                entry,
                index,
                paths,
            } => write!(
                f,
                "batch entry {entry}: path index {index} out of range ({paths} registered)"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// What one [`Ingest::ingest`] call did: how many entries were
/// observed into a registered path, and a typed error per rejected
/// entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[must_use = "the report carries typed rejections; check is_clean() or inspect errors"]
pub struct IngestReport {
    /// Entries observed into a registered path.
    pub accepted: u64,
    /// One error per rejected entry, in batch order. Empty on the hot
    /// path (no allocation when every entry is valid).
    pub errors: Vec<IngestError>,
}

impl IngestReport {
    /// `true` when every entry of the batch was accepted.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Entries rejected with a typed error.
    pub fn rejected(&self) -> u64 {
        self.errors.len() as u64
    }

    /// Fold another report into this one (batch positions stay
    /// relative to each constituent batch).
    pub fn merge(&mut self, other: IngestReport) {
        self.accepted += other.accepted;
        self.errors.extend(other.errors);
    }
}

/// The batch-first ingest surface implemented by
/// [`Collector`](crate::Collector) and
/// [`ShardedCollector`](crate::ShardedCollector).
///
/// A batch entry is `(path index, digest, timestamp)` — classification
/// and digesting happen upstream (see `Collector::classify` and
/// `vpm_hash::digest_batch`), so implementations only route, observe,
/// and account. Entries of one batch are observed in batch order
/// *per path*; cross-path interleaving is unobservable because paths
/// share no measurement state and [`CostCounters`] are sums.
///
/// Implementations guarantee that for the same registration order and
/// the same batches, `flush` + `drain_receipts` produce byte-identical
/// receipts regardless of internal layout (single core or sharded) —
/// that identity is what lets the rest of the pipeline treat the
/// collector plane as a black box.
pub trait Ingest {
    /// Observe one batch; returns per-batch accounting including a
    /// typed error for every rejected entry.
    fn ingest(&mut self, batch: &[(usize, Digest, SimTime)]) -> IngestReport;

    /// Flush end-of-stream state (close open aggregates) on every
    /// path.
    fn flush(&mut self);

    /// Drain every path's samples and finished aggregates into receipt
    /// form, in path registration order.
    fn drain_receipts(
        &mut self,
        samples: &mut Vec<SampleReceipt>,
        aggregates: &mut Vec<AggReceipt>,
    );

    /// Cumulative work counters (the §7.1 processing model), summed
    /// across the whole collector plane.
    fn counters(&self) -> CostCounters;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_out_of_range_formats_all_fields() {
        let e = IngestError::PathOutOfRange {
            entry: 3,
            index: 9,
            paths: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("entry 3"), "{msg}");
        assert!(msg.contains("index 9"), "{msg}");
        assert!(msg.contains("2 registered"), "{msg}");
    }

    #[test]
    fn report_merge_accumulates() {
        let mut r = IngestReport {
            accepted: 2,
            errors: vec![],
        };
        r.merge(IngestReport {
            accepted: 1,
            errors: vec![IngestError::PathOutOfRange {
                entry: 0,
                index: 5,
                paths: 1,
            }],
        });
        assert_eq!(r.accepted, 3);
        assert_eq!(r.rejected(), 1);
        assert!(!r.is_clean());
    }
}
