//! The streaming audit plane: continuous verification with bounded
//! memory.
//!
//! Every other workload in the repo runs to completion — finite trace
//! in, one-shot verdict out. The paper's deployment story is different:
//! domains are monitored *continuously*, which needs three things the
//! run-to-completion pipeline lacks, all provided here on top of the
//! transport layer's retention API:
//!
//! * **incremental re-verdicts** — [`Auditor`] follows one global
//!   subscription and folds each path's reporting interval into a
//!   running [`vpm_wire::PathAuditState`] the moment the interval's
//!   last HOP report arrives. Nothing is ever re-analyzed from
//!   scratch, so the auditor's working set is O(paths), not
//!   O(history).
//! * **checkpointable verification** — [`Auditor::checkpoint`]
//!   snapshots the resume cursor plus the per-path states into a
//!   [`vpm_wire::AuditCheckpoint`]; [`Auditor::restore`] resumes from
//!   the encoded bytes and produces verdicts **byte-identical** to an
//!   uninterrupted run (CI-gated via `vpm audit --restart-at`). A
//!   checkpoint whose cursor fell behind the retention horizon while
//!   the verifier was down is refused with a typed
//!   [`TransportError::LaggedBehind`] at restore — never a silently
//!   gapped audit.
//! * **the long-horizon workload** — [`workload::run_audit`] drives a
//!   synthetic fleet under churn (paths joining/leaving, liars
//!   toggling) for thousands of intervals, GC-ing the bus through
//!   [`ReceiptTransport::compact_before`] as the auditor's cursor
//!   advances and asserting that bus entry count and process RSS stay
//!   flat — surfaced as `vpm audit`, measured by the `audit_stream`
//!   workload of `benchmark/`.

pub mod workload;

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vpm_packet::DomainId;
use vpm_wire::{
    AuditCheckpoint, PathAuditState, Published, ReceiptTransport, SubscriptionId, TransportError,
    WireError,
};

pub use workload::{run_audit, AuditConfig, AuditOutcome, AuditRunStats, AUDIT_BASE_SEED};

/// HOPs per audited path (ingress, two transit boundaries, egress —
/// the minimal chain on which a count mismatch localizes a liar).
pub const HOPS_PER_PATH: u16 = 4;

/// Typed audit-plane failures. Never a panic: transport refusals,
/// checkpoint codec refusals, and audit-protocol violations all
/// surface here.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The transport refused an operation (including `LaggedBehind`
    /// when a restore's cursor fell behind the retention horizon).
    Transport(TransportError),
    /// A checkpoint failed to encode or decode.
    Checkpoint(WireError),
    /// A checkpoint was requested while per-interval accumulators were
    /// still partial — snapshots are only taken at quiescent interval
    /// boundaries (see `vpm_wire::checkpoint`).
    NotQuiescent {
        /// Partially-accumulated (path, interval) cells outstanding.
        pending: usize,
    },
    /// The bounded-memory contract was violated under `--assert-flat`.
    NotFlat {
        /// What grew, with the measured and permitted values.
        what: String,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Transport(e) => write!(f, "transport: {e}"),
            AuditError::Checkpoint(e) => write!(f, "checkpoint codec: {e}"),
            AuditError::NotQuiescent { pending } => write!(
                f,
                "checkpoint requested with {pending} partial interval(s) outstanding"
            ),
            AuditError::NotFlat { what } => write!(f, "memory not flat: {what}"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<TransportError> for AuditError {
    fn from(e: TransportError) -> Self {
        AuditError::Transport(e)
    }
}

impl From<WireError> for AuditError {
    fn from(e: WireError) -> Self {
        AuditError::Checkpoint(e)
    }
}

/// One path's state in the serialized verdict (the JSON mirror of
/// [`PathAuditState`] — field order is stable, the restart
/// byte-identity gate compares serialized verdicts directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathAuditSummary {
    /// The workload's stable path index.
    pub path: u32,
    /// Intervals fully audited.
    pub audited_intervals: u64,
    /// Audited intervals with mutually inconsistent HOP reports.
    pub flagged_intervals: u64,
    /// The most recent interval folded.
    pub last_interval: u64,
}

/// The deterministic verdict `vpm audit --json` prints. Contains only
/// auditor state — no timings, no memory numbers — so an interrupted
/// run restored from a checkpoint serializes byte-identically to an
/// uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditVerdict {
    /// Workload intervals fully folded.
    pub intervals: u64,
    /// Sum of per-path audited intervals.
    pub audited_intervals: u64,
    /// Sum of per-path flagged intervals.
    pub flagged_intervals: u64,
    /// Per-path incremental state, sorted by path index.
    pub paths: Vec<PathAuditSummary>,
}

/// Per-interval accumulator: the HOP counts seen so far for one
/// (path, interval) cell.
#[derive(Debug, Clone, Copy, Default)]
struct IntervalCell {
    counts: [Option<u64>; HOPS_PER_PATH as usize],
}

impl IntervalCell {
    fn complete(&self) -> bool {
        self.counts.iter().all(|c| c.is_some())
    }

    /// All four HOPs reported the same packet count — the audit
    /// plane's per-interval consistency rule (a liar shaving or
    /// inflating its egress count breaks the chain).
    fn consistent(&self) -> bool {
        let mut it = self.counts.iter().flatten();
        match it.next() {
            None => true,
            Some(first) => it.all(|c| c == first),
        }
    }
}

/// The streaming verifier: one global subscription, per-path
/// incremental verdict state, quiescent-boundary checkpoints.
#[derive(Debug)]
pub struct Auditor {
    sub: SubscriptionId,
    /// First undelivered global sequence number (the resume cursor).
    next_seq: u64,
    /// Workload intervals fully folded (bumped by
    /// [`Auditor::finish_interval`]).
    intervals: u64,
    /// Partial per-(path, interval) accumulators. `BTreeMap` so every
    /// iteration order is deterministic.
    pending: BTreeMap<(u32, u64), IntervalCell>,
    /// Per-path incremental verdict state.
    paths: BTreeMap<u32, PathAuditState>,
}

impl Auditor {
    /// Subscribe a fresh auditor at the start of the stream. Fails
    /// with [`TransportError::LaggedBehind`] if the bus already GC'd
    /// past sequence 0 — a fresh verifier on a long-running bus must
    /// start from a checkpoint or the live horizon, not pretend it saw
    /// reclaimed history.
    pub fn subscribe(
        transport: &dyn ReceiptTransport,
        requester: DomainId,
    ) -> Result<Auditor, AuditError> {
        let sub = transport.subscribe_from(requester, 0)?;
        Ok(Auditor {
            sub,
            next_seq: 0,
            intervals: 0,
            pending: BTreeMap::new(),
            paths: BTreeMap::new(),
        })
    }

    /// Resume from an encoded [`AuditCheckpoint`]. The transport
    /// re-checks its *live* horizon: if GC advanced past the
    /// checkpoint's cursor while the verifier was down, this fails
    /// with a typed [`TransportError::LaggedBehind`] instead of
    /// resuming with silently missing frames.
    pub fn restore(
        transport: &dyn ReceiptTransport,
        requester: DomainId,
        bytes: &[u8],
    ) -> Result<Auditor, AuditError> {
        let cp = AuditCheckpoint::decode(bytes)?;
        let sub = transport.subscribe_from(requester, cp.next_seq)?;
        Ok(Auditor {
            sub,
            next_seq: cp.next_seq,
            intervals: cp.intervals,
            pending: BTreeMap::new(),
            paths: cp.paths.iter().map(|p| (p.path, *p)).collect(),
        })
    }

    /// The resume cursor: first global sequence number not yet folded.
    /// Everything below it is fully audited and safe to GC
    /// (`compact_before(auditor.next_seq())`).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Workload intervals fully folded so far.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Poll the subscription once and fold every delivered frame.
    /// Returns the number of frames folded. A `LaggedBehind` refusal
    /// propagates typed — the auditor's cursor state is untouched, so
    /// the caller can checkpoint-diagnose rather than lose the stream.
    pub fn drain(&mut self, transport: &dyn ReceiptTransport) -> Result<usize, AuditError> {
        let fresh = transport.poll(self.sub)?;
        for p in &fresh {
            self.fold(p);
        }
        Ok(fresh.len())
    }

    /// Fold one published frame into the incremental state.
    fn fold(&mut self, p: &Arc<Published>) {
        self.next_seq = self.next_seq.max(p.seq + 1);
        let hop0 = p.hop.0;
        if hop0 == 0 {
            return; // not a workload HOP; ignore rather than misfile
        }
        let (slot, idx) = (
            u32::from((hop0 - 1) / HOPS_PER_PATH),
            ((hop0 - 1) % HOPS_PER_PATH) as usize,
        );
        let count = match p.batch.aggregates.first() {
            Some(agg) => agg.pkt_cnt,
            None => return, // a quiet interval carries no aggregate
        };
        let interval = p.batch.batch_seq;
        let cell = self.pending.entry((slot, interval)).or_default();
        if let Some(c) = cell.counts.get_mut(idx) {
            *c = Some(count);
        }
        if cell.complete() {
            let consistent = cell.consistent();
            self.pending.remove(&(slot, interval));
            let state = self.paths.entry(slot).or_insert(PathAuditState {
                path: slot,
                audited_intervals: 0,
                flagged_intervals: 0,
                last_interval: 0,
            });
            state.audited_intervals += 1;
            if !consistent {
                state.flagged_intervals += 1;
            }
            state.last_interval = state.last_interval.max(interval);
        }
    }

    /// Mark one workload interval complete. Refuses (typed) while any
    /// per-interval accumulator is still partial — the workload
    /// publishes whole intervals, so a partial cell here means frames
    /// were lost, and the verdict must not silently count the interval
    /// as folded.
    pub fn finish_interval(&mut self) -> Result<(), AuditError> {
        if !self.pending.is_empty() {
            return Err(AuditError::NotQuiescent {
                pending: self.pending.len(),
            });
        }
        self.intervals += 1;
        Ok(())
    }

    /// Snapshot the resumable state. Only legal at a quiescent
    /// interval boundary (see `vpm_wire::checkpoint`); the transport's
    /// current horizon is recorded for diagnostics.
    pub fn checkpoint(
        &self,
        transport: &dyn ReceiptTransport,
    ) -> Result<AuditCheckpoint, AuditError> {
        if !self.pending.is_empty() {
            return Err(AuditError::NotQuiescent {
                pending: self.pending.len(),
            });
        }
        Ok(AuditCheckpoint {
            next_seq: self.next_seq,
            horizon: transport.horizon()?,
            intervals: self.intervals,
            paths: self.paths.values().copied().collect(),
        })
    }

    /// The deterministic verdict (see [`AuditVerdict`]).
    pub fn verdict(&self) -> AuditVerdict {
        let paths: Vec<PathAuditSummary> = self
            .paths
            .values()
            .map(|p| PathAuditSummary {
                path: p.path,
                audited_intervals: p.audited_intervals,
                flagged_intervals: p.flagged_intervals,
                last_interval: p.last_interval,
            })
            .collect();
        AuditVerdict {
            intervals: self.intervals,
            audited_intervals: paths.iter().map(|p| p.audited_intervals).sum(),
            flagged_intervals: paths.iter().map(|p| p.flagged_intervals).sum(),
            paths,
        }
    }

    /// Release the subscription (the cursor dies with it).
    pub fn shutdown(self, transport: &dyn ReceiptTransport) {
        let _ = transport.unsubscribe(self.sub);
    }
}

#[cfg(test)]
mod tests {
    use super::workload::{publish_interval, Churn};
    use super::*;
    use vpm_wire::ShardedBus;

    const REQ: DomainId = DomainId(0);

    /// Drive a small honest+liar workload by hand and check the
    /// incremental fold reaches the obvious verdict.
    #[test]
    fn incremental_fold_counts_and_flags_per_interval() {
        let bus = ShardedBus::new(1);
        let mut auditor = Auditor::subscribe(&bus, REQ).unwrap();
        let churn = Churn::fixed(2, &[true, true], &[false, true]);
        for t in 0..5 {
            publish_interval(&bus, &churn, t, 7).unwrap();
            auditor.drain(&bus).unwrap();
            auditor.finish_interval().unwrap();
        }
        let v = auditor.verdict();
        assert_eq!(v.intervals, 5);
        assert_eq!(v.paths.len(), 2);
        assert_eq!(v.paths[0].audited_intervals, 5);
        assert_eq!(v.paths[0].flagged_intervals, 0, "honest path never flags");
        assert_eq!(v.paths[1].audited_intervals, 5);
        assert_eq!(v.paths[1].flagged_intervals, 5, "liar flags every interval");
        assert_eq!(v.audited_intervals, 10);
        assert_eq!(v.flagged_intervals, 5);
    }

    /// Stop at an interval boundary, checkpoint, restore into a fresh
    /// auditor, continue — the final verdict is byte-identical to the
    /// uninterrupted run, on a one-shard and a four-shard bus.
    #[test]
    fn checkpoint_restore_verdicts_are_byte_identical() {
        let backends: Vec<Box<dyn ReceiptTransport>> =
            vec![Box::new(ShardedBus::new(1)), Box::new(ShardedBus::new(4))];
        for bus in &backends {
            let run = |restart_at: Option<u64>| {
                let mut churn = Churn::new(3, 0xA0D1);
                let mut auditor = Auditor::subscribe(bus.as_ref(), REQ).unwrap();
                for t in 0..12 {
                    churn.step(t);
                    publish_interval(bus.as_ref(), &churn, t, 7).unwrap();
                    auditor.drain(bus.as_ref()).unwrap();
                    auditor.finish_interval().unwrap();
                    if restart_at == Some(t + 1) {
                        let bytes = auditor.checkpoint(bus.as_ref()).unwrap().encode().unwrap();
                        auditor.shutdown(bus.as_ref());
                        auditor = Auditor::restore(bus.as_ref(), REQ, &bytes).unwrap();
                    }
                }
                let v = serde_json::to_string(&auditor.verdict()).unwrap();
                auditor.shutdown(bus.as_ref());
                v
            };
            // Each closure run re-publishes the same intervals; the
            // auditor folds only what its cursor hasn't seen, so give
            // each comparison its own bus.
            let full = run(None);
            // Fresh bus for the restart run.
            let bus2: Box<dyn ReceiptTransport> = Box::new(ShardedBus::new(4));
            let mut churn = Churn::new(3, 0xA0D1);
            let mut auditor = Auditor::subscribe(bus2.as_ref(), REQ).unwrap();
            for t in 0..12 {
                churn.step(t);
                publish_interval(bus2.as_ref(), &churn, t, 7).unwrap();
                auditor.drain(bus2.as_ref()).unwrap();
                auditor.finish_interval().unwrap();
                if t + 1 == 6 {
                    let bytes = auditor.checkpoint(bus2.as_ref()).unwrap().encode().unwrap();
                    auditor.shutdown(bus2.as_ref());
                    auditor = Auditor::restore(bus2.as_ref(), REQ, &bytes).unwrap();
                }
            }
            let restarted = serde_json::to_string(&auditor.verdict()).unwrap();
            assert_eq!(full, restarted, "restart must be verdict-invisible");
        }
    }

    /// A checkpoint whose cursor fell behind the horizon while the
    /// verifier was down is refused typed at restore.
    #[test]
    fn restore_behind_the_horizon_is_a_typed_refusal() {
        let bus = ShardedBus::new(2);
        let churn = Churn::fixed(1, &[true], &[false]);
        let mut auditor = Auditor::subscribe(&bus, REQ).unwrap();
        publish_interval(&bus, &churn, 0, 7).unwrap();
        auditor.drain(&bus).unwrap();
        auditor.finish_interval().unwrap();
        let early = auditor.checkpoint(&bus).unwrap();
        // More traffic, then GC past the early checkpoint's cursor.
        for t in 1..4 {
            publish_interval(&bus, &churn, t, 7).unwrap();
            auditor.drain(&bus).unwrap();
            auditor.finish_interval().unwrap();
        }
        let cursor = auditor.next_seq();
        auditor.shutdown(&bus);
        bus.compact_before(cursor).unwrap();
        assert!(matches!(
            Auditor::restore(&bus, REQ, &early.encode().unwrap()),
            Err(AuditError::Transport(TransportError::LaggedBehind { .. }))
        ));
        // The *current* cursor still restores fine.
        let cp = AuditCheckpoint {
            next_seq: cursor,
            horizon: bus.horizon().unwrap(),
            intervals: 4,
            paths: vec![],
        };
        assert!(Auditor::restore(&bus, REQ, &cp.encode().unwrap()).is_ok());
    }

    /// A checkpoint mid-interval (partial accumulators) is refused.
    #[test]
    fn mid_interval_checkpoints_are_refused() {
        let bus = ShardedBus::new(1);
        let churn = Churn::fixed(1, &[true], &[false]);
        let mut auditor = Auditor::subscribe(&bus, REQ).unwrap();
        // Publish a full interval but drop the last HOP's frame by
        // publishing a fresh interval only partially: reuse the
        // workload publisher for 1 path, then manually drain after
        // publishing the next interval's first frames only.
        publish_interval(&bus, &churn, 0, 7).unwrap();
        auditor.drain(&bus).unwrap();
        auditor.finish_interval().unwrap();
        // Hand-publish a partial interval: first HOP only.
        super::workload::publish_hop(&bus, 0, 1, 0, 50).unwrap();
        auditor.drain(&bus).unwrap();
        assert!(matches!(
            auditor.checkpoint(&bus),
            Err(AuditError::NotQuiescent { pending: 1 })
        ));
        assert!(matches!(
            auditor.finish_interval(),
            Err(AuditError::NotQuiescent { pending: 1 })
        ));
    }
}
