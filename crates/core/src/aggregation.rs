//! Algorithm 2 — tunable aggregation (paper §6).
//!
//! ```text
//! Partition(p, δ):
//!   if Digest(p) > δ:            # p is a cutting point
//!     close current receipt
//!     open new receipt, AggID.First ← p
//!   AggID.Last ← p; PktCnt += 1
//! ```
//!
//! Because cuts are threshold events over a uniform digest, a HOP with
//! partition threshold `δ2 < δ1` cuts at a **superset** of the points
//! of a HOP with `δ1`: partitions from different HOPs always nest and
//! never partially overlap (§6.2).
//!
//! On top of the plain algorithm, each closing aggregate carries an
//! `AggTrans` patch-up window (§6.3): the digests of all packets
//! observed within `J` time units on either side of the cut. A verifier
//! uses these windows ([`crate::verify::join_aggregates`]) to migrate
//! packets that reordering pushed across the boundary, re-aligning
//! receipts from different HOPs. Finalizing a receipt therefore waits
//! until `J` time units past the cut.
//!
//! [`Aggregator`] is the per-packet specification: the
//! [`Collector`](crate::Collector) runs the same algorithm over its own
//! per-path rows and record logs and is tested against this type.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vpm_hash::{Digest, Threshold};
use vpm_packet::{SimDuration, SimTime};

use crate::receipt::{AggId, SampleRecord};

/// A closed aggregate, ready to become an [`crate::receipt::AggReceipt`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FinishedAggregate {
    /// First/last packet digests.
    pub agg: AggId,
    /// Number of packets counted.
    pub pkt_cnt: u64,
    /// Patch-up window around the closing cut (empty on flush).
    pub agg_trans: Vec<Digest>,
    /// Whether a cutting point (vs. an end-of-stream flush) closed it.
    pub closed_by_cut: bool,
}

#[derive(Debug, Clone)]
struct OpenAgg {
    first: Digest,
    last: Digest,
    cnt: u64,
}

#[derive(Debug, Clone)]
struct PendingClose {
    agg: OpenAgg,
    /// Observation time of the cutting packet (the boundary).
    boundary_time: SimTime,
}

/// Work counters for the aggregator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregatorStats {
    /// Packets observed.
    pub observed: u64,
    /// Cutting points seen.
    pub cuts: u64,
    /// Aggregates finalized.
    pub finalized: u64,
    /// High-water mark of the recent-packet window buffer.
    pub max_window: usize,
}

/// The per-path aggregator (Algorithm 2 + AggTrans).
///
/// ```
/// use vpm_core::aggregation::Aggregator;
/// use vpm_hash::Digest;
/// use vpm_packet::{SimDuration, SimTime};
///
/// let mut a = Aggregator::new(
///     Aggregator::delta_for_aggregate_size(100), // δ: ~100-pkt aggregates
///     SimDuration::from_millis(1),               // J
/// );
/// for i in 0..5_000u64 {
///     let digest = Digest(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
///     a.observe(digest, SimTime::from_micros(10 * i));
/// }
/// a.flush();
/// let aggregates = a.drain();
/// let total: u64 = aggregates.iter().map(|f| f.pkt_cnt).sum();
/// assert_eq!(total, 5_000, "every packet counted exactly once");
/// ```
#[derive(Debug, Clone)]
pub struct Aggregator {
    /// Partition threshold `δ` (local to the HOP).
    delta: Threshold,
    /// Safety inter-arrival threshold `J` (per path).
    j_window: SimDuration,
    open: Option<OpenAgg>,
    pending: VecDeque<PendingClose>,
    /// Recent `⟨PktID, Time⟩` records covering at least the last `2J`.
    recent: VecDeque<SampleRecord>,
    finished: Vec<FinishedAggregate>,
    stats: AggregatorStats,
}

impl Aggregator {
    /// Create an aggregator with partition threshold `δ` and reorder
    /// window `J`.
    pub fn new(delta: Threshold, j_window: SimDuration) -> Self {
        Aggregator {
            delta,
            j_window,
            open: None,
            pending: VecDeque::new(),
            recent: VecDeque::new(),
            finished: Vec::new(),
            stats: AggregatorStats::default(),
        }
    }

    /// Convenience: threshold for an expected aggregate size of `n`
    /// packets.
    pub fn delta_for_aggregate_size(n: u64) -> Threshold {
        assert!(n > 0);
        Threshold::from_rate(1.0 / n as f64)
    }

    /// The partition threshold `δ`.
    pub fn delta(&self) -> Threshold {
        self.delta
    }

    /// Observe a packet. Returns `true` if it was a cutting point.
    pub fn observe(&mut self, digest: Digest, time: SimTime) -> bool {
        self.stats.observed += 1;

        // Maintain the recent window (≥ 2J of history): push, then
        // evict records older than `2J + 1ns` before this one.
        self.recent.push_back(SampleRecord {
            pkt_id: digest,
            time,
        });
        let horizon = time - (self.j_window.saturating_mul(2) + SimDuration::from_nanos(1));
        while self.recent.front().is_some_and(|r| r.time < horizon) {
            self.recent.pop_front();
        }
        self.stats.max_window = self.stats.max_window.max(self.recent.len());

        // Finalize pending closes whose +J window has fully arrived.
        self.finalize_ready(time);

        let is_cut = self.delta.passes(digest.0);
        if is_cut {
            self.stats.cuts += 1;
            if let Some(open) = self.open.take() {
                self.pending.push_back(PendingClose {
                    agg: open,
                    boundary_time: time,
                });
            }
            self.open = Some(OpenAgg {
                first: digest,
                last: digest,
                cnt: 1,
            });
        } else {
            match self.open.as_mut() {
                Some(open) => {
                    open.last = digest;
                    open.cnt += 1;
                }
                None => {
                    // Stream start: the first packet opens an aggregate
                    // even when it is not a cutting point.
                    self.open = Some(OpenAgg {
                        first: digest,
                        last: digest,
                        cnt: 1,
                    });
                }
            }
        }
        is_cut
    }

    fn finalize_ready(&mut self, now: SimTime) {
        while self
            .pending
            .front()
            .is_some_and(|f| now > f.boundary_time + self.j_window)
        {
            let Some(pc) = self.pending.pop_front() else {
                break;
            };
            let lo = pc.boundary_time - self.j_window;
            let hi = pc.boundary_time + self.j_window;
            let window: Vec<Digest> = self
                .recent
                .iter()
                .filter(|r| r.time >= lo && r.time <= hi)
                .map(|r| r.pkt_id)
                .collect();
            self.push_finished(pc.agg, window, true);
        }
    }

    fn push_finished(&mut self, agg: OpenAgg, window: Vec<Digest>, closed_by_cut: bool) {
        self.stats.finalized += 1;
        self.finished.push(FinishedAggregate {
            agg: AggId {
                first: agg.first,
                last: agg.last,
            },
            pkt_cnt: agg.cnt,
            agg_trans: window,
            closed_by_cut,
        });
    }

    /// End-of-stream: finalize every pending close (with whatever
    /// window history is available) and flush the open aggregate.
    pub fn flush(&mut self) {
        while let Some(pc) = self.pending.pop_front() {
            let lo = pc.boundary_time - self.j_window;
            let hi = pc.boundary_time + self.j_window;
            let window: Vec<Digest> = self
                .recent
                .iter()
                .filter(|r| r.time >= lo && r.time <= hi)
                .map(|r| r.pkt_id)
                .collect();
            self.push_finished(pc.agg, window, true);
        }
        if let Some(open) = self.open.take() {
            self.push_finished(open, Vec::new(), false);
        }
    }

    /// Take all finalized aggregates.
    pub fn drain(&mut self) -> Vec<FinishedAggregate> {
        std::mem::take(&mut self.finished)
    }

    /// Work counters.
    pub fn stats(&self) -> AggregatorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn feed(aggr: &mut Aggregator, digests: &[Digest], gap_us: u64) {
        for (i, &d) in digests.iter().enumerate() {
            aggr.observe(d, SimTime::from_micros(gap_us * i as u64));
        }
        aggr.flush();
    }

    fn digests(n: usize, seed: u64) -> Vec<Digest> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| Digest(rng.gen())).collect()
    }

    #[test]
    fn counts_partition_the_stream() {
        let mut a = Aggregator::new(Threshold::from_rate(0.01), SimDuration::from_millis(1));
        let ds = digests(50_000, 1);
        feed(&mut a, &ds, 10);
        let aggs = a.drain();
        let total: u64 = aggs.iter().map(|f| f.pkt_cnt).sum();
        assert_eq!(total, ds.len() as u64, "every packet counted exactly once");
        // Mean aggregate size ≈ 1/rate = 100.
        let mean = total as f64 / aggs.len() as f64;
        assert!((60.0..140.0).contains(&mean), "mean agg size {mean}");
    }

    #[test]
    fn first_and_last_ids_bracket_aggregates() {
        let mut a = Aggregator::new(Threshold::from_rate(0.05), SimDuration::from_millis(1));
        let ds = digests(5_000, 2);
        feed(&mut a, &ds, 10);
        let aggs = a.drain();
        // Reconstruct: consecutive aggregates tile the digest stream.
        let mut pos = 0usize;
        for f in &aggs {
            assert_eq!(
                ds[pos], f.agg.first,
                "aggregate must start where previous ended"
            );
            pos += f.pkt_cnt as usize;
            assert_eq!(ds[pos - 1], f.agg.last);
        }
        assert_eq!(pos, ds.len());
    }

    #[test]
    fn nesting_property_lower_delta_cuts_superset() {
        // §6.2: cutting points of a coarse HOP ⊆ those of a fine HOP.
        let ds = digests(80_000, 3);
        let coarse_t = Threshold::from_rate(0.002);
        let fine_t = Threshold::from_rate(0.02);
        let mut coarse = Aggregator::new(coarse_t, SimDuration::from_millis(1));
        let mut fine = Aggregator::new(fine_t, SimDuration::from_millis(1));
        feed(&mut coarse, &ds, 10);
        feed(&mut fine, &ds, 10);
        let cuts = |aggs: &[FinishedAggregate]| -> std::collections::HashSet<Digest> {
            aggs.iter().map(|f| f.agg.first).collect()
        };
        let c = cuts(&coarse.drain());
        let f = cuts(&fine.drain());
        assert!(c.len() < f.len());
        assert!(c.is_subset(&f), "coarse boundaries must nest in fine ones");
    }

    #[test]
    fn agg_trans_window_covers_boundary() {
        let mut a = Aggregator::new(Threshold::from_rate(0.01), SimDuration::from_millis(1));
        let ds = digests(20_000, 4);
        feed(&mut a, &ds, 100); // 100 µs gaps → J=1ms covers ±10 pkts
        let aggs = a.drain();
        let cut_closed: Vec<&FinishedAggregate> = aggs.iter().filter(|f| f.closed_by_cut).collect();
        assert!(cut_closed.len() > 10);
        for f in &cut_closed {
            assert!(
                !f.agg_trans.is_empty(),
                "cut-closed aggregates carry a window"
            );
            // The window must include the aggregate's own last packet
            // (observed within J before the boundary).
            assert!(
                f.agg_trans.contains(&f.agg.last),
                "window misses the closing packet"
            );
        }
        // Interior aggregates (away from stream start/end truncation)
        // carry a full ±J window ≈ 2J/gap = 20 packets.
        for f in &cut_closed[2..cut_closed.len() - 2] {
            assert!(
                (15..=25).contains(&f.agg_trans.len()),
                "window size {}",
                f.agg_trans.len()
            );
        }
    }

    #[test]
    fn window_includes_cutting_point_of_next() {
        let mut a = Aggregator::new(Threshold::from_rate(0.02), SimDuration::from_millis(1));
        let ds = digests(10_000, 5);
        feed(&mut a, &ds, 100);
        let aggs = a.drain();
        for pair in aggs.windows(2) {
            if pair[0].closed_by_cut {
                assert!(
                    pair[0].agg_trans.contains(&pair[1].agg.first),
                    "window must contain the next aggregate's cutting point"
                );
            }
        }
    }

    #[test]
    fn flush_emits_tail_without_window() {
        let mut a = Aggregator::new(Threshold::NEVER, SimDuration::from_millis(1));
        let ds = digests(100, 6);
        feed(&mut a, &ds, 10);
        let aggs = a.drain();
        assert_eq!(aggs.len(), 1, "no cuts ⇒ single flushed aggregate");
        assert!(!aggs[0].closed_by_cut);
        assert!(aggs[0].agg_trans.is_empty());
        assert_eq!(aggs[0].pkt_cnt, 100);
    }

    #[test]
    fn deterministic_and_identical_across_hops() {
        let ds = digests(30_000, 7);
        let mk = || Aggregator::new(Threshold::from_rate(0.01), SimDuration::from_millis(1));
        let mut a = mk();
        let mut b = mk();
        feed(&mut a, &ds, 10);
        feed(&mut b, &ds, 10);
        assert_eq!(a.drain(), b.drain());
    }

    #[test]
    fn constant_state_per_aggregate() {
        // Algorithm 2 requires O(1) state per aggregate: the recent
        // window must stay bounded by 2J of traffic, not by aggregate
        // size.
        let mut a = Aggregator::new(
            Aggregator::delta_for_aggregate_size(100_000),
            SimDuration::from_millis(1),
        );
        let ds = digests(200_000, 8);
        feed(&mut a, &ds, 10); // 10µs gaps ⇒ 2J = 2ms ≈ 200 packets
        assert!(
            a.stats().max_window < 600,
            "window grew to {} records",
            a.stats().max_window
        );
    }
}
