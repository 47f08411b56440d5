//! Receipt-based estimation and verification.
//!
//! Given receipts from the two HOPs bracketing a domain (e.g. HOPs 4
//! and 5 around domain X in the paper's Figure 1), a receipt collector
//! can:
//!
//! * match sample records by `PktID` and compute per-packet delays,
//!   then estimate delay quantiles with confidence bounds (§4,
//!   "Receipt-based Statistics", using the \[20\] estimator from
//!   `vpm-stats`);
//! * join the two HOPs' aggregate receipt streams at their common
//!   boundaries (§6.1), re-align near-boundary packets using the
//!   `AggTrans` windows (§6.3), and compute exact per-aggregate and
//!   total loss;
//! * check the §4 consistency rules across an inter-domain link and
//!   collect the evidence that exposes liars (§3.1).

use std::cell::Cell;

use serde::{Deserialize, Serialize};
use vpm_hash::Digest;
use vpm_packet::SimTime;
use vpm_stats::{estimate_quantile, LossStats, QuantileEstimate};

use crate::align::{CutState, WindowTable};
use crate::consistency::{
    check_aggregate_pair, check_max_diff, check_sample_pair, LinkInconsistency,
};
use crate::digest_table::DigestTable;
use crate::receipt::{AggId, AggReceipt, PathId, SampleRecord};

/// A packet sampled by both HOPs, with both observation times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchedSample {
    /// The packet.
    pub pkt_id: Digest,
    /// Observation time at the ingress (upstream) HOP.
    pub t_in: SimTime,
    /// Observation time at the egress (downstream) HOP.
    pub t_out: SimTime,
}

impl MatchedSample {
    /// Signed transit delay in milliseconds (negative under clock skew).
    pub fn delay_ms(&self) -> f64 {
        self.t_out.signed_delta(self.t_in) as f64 / 1e6
    }

    /// Signed transit delay in milliseconds for receipts that traveled
    /// in the *compact* wire profile (§7.1): timestamps are µs modulo
    /// 2²⁴, so the delay is the smallest-magnitude wrapped difference
    /// on that ring ([`crate::receipt::compact::wrapped_delta_us`]).
    /// Exact for true delays under half the ring (≈8.4 s); also correct
    /// on full-precision times whose delay fits that bound.
    pub fn truncated_delay_ms(&self) -> f64 {
        crate::receipt::compact::wrapped_delta_us(self.t_in, self.t_out) as f64 / 1e3
    }
}

/// Match sample records from two HOPs by `PktID`.
///
/// Records whose `PktID` appears more than once on either side (digest
/// collisions, or markers re-elected after loss-induced desync) are
/// skipped conservatively: a mismatched pairing would corrupt the delay
/// distribution, while a skipped one only costs a sample.
///
/// One table, keyed by the egress digests, counts each digest's
/// occurrences on both sides; a pair is emitted, in ingress order, for
/// every digest seen exactly once on each. The table is this thread's,
/// refilled from call to call without a new allocation once it has
/// grown to the largest egress side. The digests are a peer's,
/// who may lie, so the table is the verifier's keyed one (the same as
/// the §6.3 join's): multiply-shift under a per-process secret
/// multiplier, linear probing, at most an eighth full. A peer that does
/// not know the secret cannot pick digests that pile into one probe
/// run.
pub fn match_samples(ingress: &[SampleRecord], egress: &[SampleRecord]) -> Vec<MatchedSample> {
    with_scratch(|scratch| scratch.match_samples(ingress, egress))
}

/// A delay estimate for a domain, from matched samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayEstimate {
    /// Quantile estimates with confidence intervals.
    pub quantiles: Vec<QuantileEstimate>,
    /// Number of matched samples used.
    pub matched: usize,
    /// Sorted per-sample delays in milliseconds (kept for accuracy
    /// analysis; a production verifier could drop these).
    pub delays_ms: Vec<f64>,
}

/// One joined aggregate across two HOPs' receipt streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinedAggregate {
    /// Range `[start, end)` of upstream receipts combined.
    pub up_range: (usize, usize),
    /// Range `[start, end)` of downstream receipts combined.
    pub down_range: (usize, usize),
    /// Upstream packet count over the range.
    pub up_cnt: u64,
    /// Downstream packet count, raw.
    pub down_cnt_raw: u64,
    /// Downstream count after AggTrans boundary re-alignment.
    pub down_cnt_adjusted: i64,
    /// The boundary digest opening this joined aggregate.
    pub start_boundary: Digest,
    /// Packets lost inside the domain over this joined aggregate
    /// (`up − adjusted down`; negative indicates inconsistent receipts).
    pub lost: i64,
}

/// Result of joining two aggregate receipt streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinResult {
    /// The joined aggregates, in stream order.
    pub joined: Vec<JoinedAggregate>,
    /// Total sent/delivered over the joined region.
    pub loss: LossStats,
    /// Mean joined-aggregate span in packets (upstream count) — the
    /// paper's "loss granularity" in packets.
    pub mean_span_pkts: f64,
    /// Boundaries at which AggTrans migration changed a count.
    pub alignments_applied: u64,
    /// Upstream receipts before the first / after the last common
    /// boundary (excluded from loss computation).
    pub up_excluded: usize,
    /// Downstream receipts excluded likewise.
    pub down_excluded: usize,
}

/// Join two aggregate receipt streams at their common boundaries,
/// applying AggTrans re-alignment where windows permit.
///
/// A common boundary is a cut digest both streams open an aggregate
/// with, taken in strictly increasing order on both sides. Each
/// boundary's migration is computed once: it closes one joined
/// aggregate and opens the next. The keyed tables are this thread's, as
/// for [`match_samples`].
pub fn join_aggregates(up: &[AggReceipt], down: &[AggReceipt]) -> JoinResult {
    with_scratch(|scratch| {
        scratch.start_chain(up.len() + down.len());
        scratch.join(Stream::new(up, 0), Stream::new(down, up.len()))
    })
}

/// A full per-domain estimate from two HOPs' receipts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainEstimate {
    /// Delay quantiles (absent when no samples matched).
    pub delay: Option<DelayEstimate>,
    /// Exact loss over the joined aggregates.
    pub loss: LossStats,
    /// The join underlying the loss numbers.
    pub join: JoinResult,
    /// Matched sample count.
    pub matched_samples: usize,
}

/// Consistency report for one inter-domain link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkReport {
    /// All rule violations found.
    pub inconsistencies: Vec<LinkInconsistency>,
    /// Commonly sampled packets checked.
    pub common_samples: usize,
    /// Samples only the upstream HOP reported (claimed delivered but
    /// not acknowledged received — loss or lie evidence).
    pub up_only_samples: usize,
    /// Samples only the downstream HOP reported.
    pub down_only_samples: usize,
    /// Joined aggregates compared.
    pub joined_aggregates: usize,
}

impl LinkReport {
    /// No violations found.
    pub fn is_consistent(&self) -> bool {
        self.inconsistencies.is_empty()
    }
}

/// The receipt collector's computation engine.
#[derive(Debug, Clone)]
pub struct Verifier {
    /// Quantiles to estimate.
    pub quantiles: Vec<f64>,
    /// Confidence level for quantile intervals.
    pub confidence: f64,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier {
            quantiles: vpm_stats::accuracy::DEFAULT_QUANTILES.to_vec(),
            confidence: 0.95,
        }
    }
}

impl Verifier {
    /// Estimate delay quantiles from matched samples.
    pub fn estimate_delay(&self, matched: &[MatchedSample]) -> Option<DelayEstimate> {
        self.estimate_from_delays(matched.iter().map(MatchedSample::delay_ms).collect())
    }

    /// Estimate delay quantiles from matched samples whose times went
    /// through §7.1 truncation (the compact wire profile): per-sample
    /// delays come from [`MatchedSample::truncated_delay_ms`], i.e. the
    /// wrapped difference on the 24-bit microsecond ring. The matching
    /// itself needs no special handling — truncation is deterministic,
    /// so both HOPs report the same 32-bit `PktID` for the same packet,
    /// and 32-bit collisions between *distinct* packets fall into
    /// [`match_samples`]' conservative duplicate-skip rule.
    pub fn estimate_delay_truncated(&self, matched: &[MatchedSample]) -> Option<DelayEstimate> {
        self.estimate_from_delays(
            matched
                .iter()
                .map(MatchedSample::truncated_delay_ms)
                .collect(),
        )
    }

    fn estimate_from_delays(&self, mut delays: Vec<f64>) -> Option<DelayEstimate> {
        if delays.is_empty() {
            return None;
        }
        let matched = delays.len();
        delays.sort_by(f64::total_cmp);
        let quantiles = self
            .quantiles
            .iter()
            .filter_map(|&q| estimate_quantile(&delays, q, self.confidence))
            .collect();
        Some(DelayEstimate {
            quantiles,
            matched,
            delays_ms: delays,
        })
    }

    /// Full per-domain estimate from ingress/egress receipts: a
    /// two-HOP [`HopChain`].
    pub fn estimate_domain(
        &self,
        ingress_samples: &[SampleRecord],
        ingress_aggs: &[AggReceipt],
        egress_samples: &[SampleRecord],
        egress_aggs: &[AggReceipt],
    ) -> DomainEstimate {
        let hops = [
            HopView::new(ingress_samples, ingress_aggs),
            HopView::new(egress_samples, egress_aggs),
        ];
        self.chain(&hops, |chain| chain.estimate_domain(0, 1))
    }

    /// Check the §4 consistency rules across one inter-domain link: a
    /// two-HOP [`HopChain`].
    ///
    /// `up` is the delivering HOP (e.g. HOP 5), `down` the receiving
    /// one (HOP 6).
    pub fn check_link(
        &self,
        up_path: &PathId,
        up_samples: &[SampleRecord],
        up_aggs: &[AggReceipt],
        down_path: &PathId,
        down_samples: &[SampleRecord],
        down_aggs: &[AggReceipt],
    ) -> LinkReport {
        let hops = [
            HopView::new(up_samples, up_aggs),
            HopView::new(down_samples, down_aggs),
        ];
        self.chain(&hops, |chain| chain.check_link(up_path, 0, down_path, 1))
    }

    /// Judge pairs of one path's HOPs, given in path order, through one
    /// engine: `judge` gets a [`HopChain`] over `hops` and names each
    /// pair by the two HOPs' positions in it.
    pub fn chain<R>(&self, hops: &[HopView<'_>], judge: impl FnOnce(&mut HopChain<'_>) -> R) -> R {
        with_scratch(|scratch| {
            scratch.start_chain(hops.iter().map(|h| h.aggregates.len()).sum());
            judge(&mut HopChain {
                verifier: self,
                hops,
                scratch,
            })
        })
    }
}

/// One HOP's receipts, as a [`HopChain`] reads them.
#[derive(Debug, Clone, Copy)]
pub struct HopView<'a> {
    /// Sample records, in observation order.
    pub samples: &'a [SampleRecord],
    /// Aggregate receipts, in stream order.
    pub aggregates: &'a [AggReceipt],
}

impl<'a> HopView<'a> {
    /// A HOP's sample records and aggregate receipts.
    pub fn new(samples: &'a [SampleRecord], aggregates: &'a [AggReceipt]) -> Self {
        HopView {
            samples,
            aggregates,
        }
    }
}

/// One path's HOPs under one verifier engine ([`Verifier::chain`]).
///
/// Every pair it judges gives what [`Verifier::estimate_domain`] and
/// [`Verifier::check_link`] give on that pair alone. What the chain
/// adds is memory: for every receipt, what its `AggTrans` window holds
/// of the cut it was recorded at (the cut absent, present cleanly, or
/// with a digest on both sides), learned the first time a join loads
/// or compares the window. A window byte-identical to a neighbour's
/// inherits the neighbour's state, so when the pairs go in path order
/// (link 1→2, domain 2→3, link 3→4, …) an honest path loads each
/// boundary's window once, not once per pair. The keyed tables are the
/// thread's own and serve every pair and every chain, each fill under a
/// new stamp.
#[derive(Debug)]
pub struct HopChain<'c> {
    verifier: &'c Verifier,
    hops: &'c [HopView<'c>],
    scratch: &'c mut Scratch,
}

impl<'c> HopChain<'c> {
    /// HOP `i`'s receipts and where its receipts' states start in the
    /// memo; a position past the chain reads as a HOP without receipts.
    fn hop(&self, i: usize) -> (HopView<'c>, Stream<'c>) {
        let cuts = self.hops.iter().take(i).map(|h| h.aggregates.len()).sum();
        let view = self.hops.get(i).copied().unwrap_or(HopView::new(&[], &[]));
        (view, Stream::new(view.aggregates, cuts))
    }

    /// [`Verifier::estimate_domain`] with HOP `ingress` of this chain
    /// upstream and HOP `egress` downstream.
    pub fn estimate_domain(&mut self, ingress: usize, egress: usize) -> DomainEstimate {
        let ((ing, ing_aggs), (eg, eg_aggs)) = (self.hop(ingress), self.hop(egress));
        let matched = self.scratch.match_samples(ing.samples, eg.samples);
        let join = self.scratch.join(ing_aggs, eg_aggs);
        DomainEstimate {
            delay: self.verifier.estimate_delay(&matched),
            loss: join.loss,
            matched_samples: matched.len(),
            join,
        }
    }

    /// [`Verifier::check_link`] with HOP `up` of this chain delivering
    /// and HOP `down` receiving.
    pub fn check_link(
        &mut self,
        up_path: &PathId,
        up: usize,
        down_path: &PathId,
        down: usize,
    ) -> LinkReport {
        let ((up, up_aggs), (down, down_aggs)) = (self.hop(up), self.hop(down));
        let mut inconsistencies = Vec::new();
        if let Some(v) = check_max_diff(up_path, down_path) {
            inconsistencies.push(v);
        }
        let max_diff = up_path.max_diff;

        let matched = self.scratch.match_samples(up.samples, down.samples);
        for m in &matched {
            let up_rec = SampleRecord {
                pkt_id: m.pkt_id,
                time: m.t_in,
            };
            let down_rec = SampleRecord {
                pkt_id: m.pkt_id,
                time: m.t_out,
            };
            if let Some(v) = check_sample_pair(&up_rec, &down_rec, max_diff) {
                inconsistencies.push(v);
            }
        }
        // A matched digest occurs exactly once on each side, so the
        // records left over are the unmatched ones.
        let up_only = up.samples.len() - matched.len();
        let down_only = down.samples.len() - matched.len();

        let join = self.scratch.join(up_aggs, down_aggs);
        for j in &join.joined {
            let agg = AggId {
                first: j.start_boundary,
                last: j.start_boundary,
            };
            if let Some(v) = check_aggregate_pair(agg, j.up_cnt, j.down_cnt_adjusted.max(0) as u64)
            {
                inconsistencies.push(v);
            }
        }

        LinkReport {
            inconsistencies,
            common_samples: matched.len(),
            up_only_samples: up_only,
            down_only_samples: down_only,
            joined_aggregates: join.joined.len(),
        }
    }
}

/// One HOP's aggregate receipts, and where their [`CutState`]s start in
/// the chain's memo ([`Scratch::cuts`]).
#[derive(Debug, Clone, Copy)]
struct Stream<'a> {
    receipts: &'a [AggReceipt],
    cuts: usize,
}

impl<'a> Stream<'a> {
    fn new(receipts: &'a [AggReceipt], cuts: usize) -> Self {
        Stream { receipts, cuts }
    }

    /// The `AggTrans` window a cut at receipt `i` is recorded in, with
    /// its state's place in the memo: that of the receipt the cut
    /// *closed*, the one before `i`. The cut that opens the stream
    /// closed nothing.
    fn closed_window(&self, i: usize) -> Option<(&'a [Digest], usize)> {
        let k = i.checked_sub(1)?;
        Some((self.receipts.get(k)?.agg_trans.as_slice(), self.cuts + k))
    }
}

/// One digest's sample records: the egress time of its first, and how
/// many records each side holds.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    t_out: SimTime,
    ingress: u8,
    egress: u8,
}

/// The keyed tables and buffers one thread's verifier reuses from pair
/// to pair and from path to path. Each fill of a table takes a new
/// stamp, so once they have grown to the largest pair nothing is
/// zeroed or allocated.
#[derive(Debug)]
struct Scratch {
    /// [`match_samples`]' table, keyed by the egress digests.
    seen: DigestTable<Seen>,
    /// The join's upstream cut digests, each with its first receipt.
    starts: DigestTable<Option<usize>>,
    /// The join's common boundaries.
    bounds: Vec<(usize, usize, Digest)>,
    /// The downstream window at a boundary.
    windows: WindowTable,
    /// The chain's memo: every receipt's [`CutState`], HOP after HOP.
    cuts: Vec<CutState>,
}

thread_local! {
    /// This thread's [`Scratch`], lent to one call at a time.
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// Run `f` on this thread's [`Scratch`] (a fresh one when it is lent
/// out already, as to a chain judging inside another's `judge`).
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_else(Scratch::new);
    let out = f(&mut scratch);
    let _ = SCRATCH.try_with(|cell| cell.set(Some(scratch)));
    out
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            seen: DigestTable::with_len(0),
            starts: DigestTable::with_len(0),
            bounds: Vec::new(),
            windows: WindowTable::new(),
            cuts: Vec::new(),
        }
    }

    /// Forget every state: a new chain, whose HOPs hold `receipts`
    /// aggregate receipts in all.
    fn start_chain(&mut self, receipts: usize) {
        self.cuts.clear();
        self.cuts.resize(receipts, CutState::Unknown);
    }

    /// [`match_samples`] on this scratch's table.
    fn match_samples(
        &mut self,
        ingress: &[SampleRecord],
        egress: &[SampleRecord],
    ) -> Vec<MatchedSample> {
        let seen = &mut self.seen;
        seen.clear_for(egress.len());
        for r in egress {
            if let Some(s) = seen.entry(r.pkt_id) {
                if s.egress == 0 {
                    s.t_out = r.time;
                }
                s.egress = s.egress.saturating_add(1);
            }
        }
        for r in ingress {
            if let Some(s) = seen.get_mut(r.pkt_id) {
                s.ingress = s.ingress.saturating_add(1);
            }
        }
        let mut out = Vec::with_capacity(ingress.len().min(egress.len()));
        for r in ingress {
            if let Some(&Seen {
                t_out,
                ingress: 1,
                egress: 1,
            }) = seen.get(r.pkt_id)
            {
                out.push(MatchedSample {
                    pkt_id: r.pkt_id,
                    t_in: r.time,
                    t_out,
                });
            }
        }
        out
    }

    /// [`join_aggregates`], reading and writing the memo's states of
    /// both streams' windows.
    fn join(&mut self, up: Stream<'_>, down: Stream<'_>) -> JoinResult {
        // Map upstream cut digests (aggregate first packets) to the
        // index of their first occurrence.
        self.starts.clear_for(up.receipts.len());
        for (i, r) in up.receipts.iter().enumerate() {
            if let Some(first @ None) = self.starts.entry(r.agg.first) {
                *first = Some(i);
            }
        }
        // Common boundaries (upstream index, downstream index, cut
        // digest), strictly increasing on both sides.
        let mut bounds = std::mem::take(&mut self.bounds);
        bounds.clear();
        for (di, r) in down.receipts.iter().enumerate() {
            if let Some(&Some(ui)) = self.starts.get(r.agg.first) {
                if bounds.last().is_none_or(|&(prev, ..)| ui > prev) {
                    bounds.push((ui, di, r.agg.first));
                }
            }
        }
        let span = |side: &[AggReceipt], from: usize, to: usize| -> u64 {
            side.get(from..to)
                .unwrap_or_default()
                .iter()
                .map(|r| r.pkt_cnt)
                .sum()
        };

        let mut joined = Vec::with_capacity(bounds.len().saturating_sub(1));
        let mut loss = LossStats::default();
        let mut alignments = 0u64;
        let mut start_adj = match bounds.as_slice() {
            [first, _, ..] => self.net_to_earlier(up, down, *first),
            _ => 0,
        };
        for (&(ui, di, cut), &end @ (uj, dj, _)) in bounds.iter().zip(bounds.iter().skip(1)) {
            let up_cnt = span(up.receipts, ui, uj);
            let down_raw = span(down.receipts, di, dj);
            let end_adj = self.net_to_earlier(up, down, end);
            // Each interior boundary is tallied once, as the *start* of
            // the joined aggregate it opens (its role as the previous
            // aggregate's end is the same migration).
            if start_adj != 0 {
                alignments += 1;
            }
            let adjusted = down_raw as i64 + end_adj - start_adj;

            joined.push(JoinedAggregate {
                up_range: (ui, uj),
                down_range: (di, dj),
                up_cnt,
                down_cnt_raw: down_raw,
                down_cnt_adjusted: adjusted,
                start_boundary: cut,
                lost: up_cnt as i64 - adjusted,
            });
            loss.merge(LossStats::new(up_cnt, adjusted.max(0) as u64));
            start_adj = end_adj;
        }

        let mean_span = if joined.is_empty() {
            0.0
        } else {
            joined.iter().map(|j| j.up_cnt as f64).sum::<f64>() / joined.len() as f64
        };
        let (up_used, down_used) = match (bounds.first(), bounds.last()) {
            (Some(first), Some(last)) => (last.0 - first.0, last.1 - first.1),
            _ => (0, 0),
        };
        self.bounds = bounds;

        JoinResult {
            joined,
            loss,
            mean_span_pkts: mean_span,
            alignments_applied: alignments,
            up_excluded: up.receipts.len() - up_used,
            down_excluded: down.receipts.len() - down_used,
        }
    }

    /// Net migration at a boundary, toward the aggregate it closes;
    /// zero where the windows cannot re-align it.
    fn net_to_earlier(
        &mut self,
        up: Stream<'_>,
        down: Stream<'_>,
        (ui, di, cut): (usize, usize, Digest),
    ) -> i64 {
        let (Some((up_window, u)), Some((down_window, d))) =
            (up.closed_window(ui), down.closed_window(di))
        else {
            return 0;
        };
        let state = |at: usize| self.cuts.get(at).copied().unwrap_or_default();
        let mut memo = [state(u), state(d)];
        let m = self
            .windows
            .migration(up_window, down_window, cut, &mut memo);
        for (at, learned) in [u, d].into_iter().zip(memo) {
            if let Some(s) = self.cuts.get_mut(at) {
                *s = learned;
            }
        }
        m.map_or(0, |m| m.net_to_earlier())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::Aggregator;
    use crate::sampling::DelaySampler;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use vpm_hash::Threshold;
    use vpm_packet::{HeaderSpec, SimDuration};

    fn rec(id: u64, us: u64) -> SampleRecord {
        SampleRecord {
            pkt_id: Digest(id),
            time: SimTime::from_micros(us),
        }
    }

    /// The bodies this module shipped before the one-table match and
    /// the once-per-boundary join, kept as the specification the
    /// differential tests below hold the new ones to.
    mod reference {
        use super::super::*;
        use crate::align::window_migration_reference as window_migration;
        use std::collections::{HashMap, HashSet};

        pub fn match_samples(
            ingress: &[SampleRecord],
            egress: &[SampleRecord],
        ) -> Vec<MatchedSample> {
            let mut eg: HashMap<Digest, SimTime> = HashMap::with_capacity(egress.len());
            let mut eg_dups: HashSet<Digest> = HashSet::new();
            for r in egress {
                if eg.insert(r.pkt_id, r.time).is_some() {
                    eg_dups.insert(r.pkt_id);
                }
            }
            let mut in_seen: HashSet<Digest> = HashSet::with_capacity(ingress.len());
            let mut in_dups: HashSet<Digest> = HashSet::new();
            for r in ingress {
                if !in_seen.insert(r.pkt_id) {
                    in_dups.insert(r.pkt_id);
                }
            }
            let mut out = Vec::new();
            let mut used: HashSet<Digest> = HashSet::new();
            for r in ingress {
                if in_dups.contains(&r.pkt_id) || eg_dups.contains(&r.pkt_id) {
                    continue;
                }
                if !used.insert(r.pkt_id) {
                    continue;
                }
                if let Some(&t_out) = eg.get(&r.pkt_id) {
                    out.push(MatchedSample {
                        pkt_id: r.pkt_id,
                        t_in: r.time,
                        t_out,
                    });
                }
            }
            out
        }

        /// `check_link`'s former count of one side's unmatched records.
        pub fn unmatched(side: &[SampleRecord], matched: &[MatchedSample]) -> usize {
            let ids: HashSet<Digest> = matched.iter().map(|m| m.pkt_id).collect();
            side.iter().filter(|r| !ids.contains(&r.pkt_id)).count()
        }

        pub fn join_aggregates(up: &[AggReceipt], down: &[AggReceipt]) -> JoinResult {
            let mut up_starts: HashMap<Digest, usize> = HashMap::with_capacity(up.len());
            for (i, r) in up.iter().enumerate() {
                up_starts.entry(r.agg.first).or_insert(i);
            }
            let mut bounds: Vec<(usize, usize)> = Vec::new();
            let mut last_ui: Option<usize> = None;
            for (di, r) in down.iter().enumerate() {
                if let Some(&ui) = up_starts.get(&r.agg.first) {
                    if last_ui.is_none_or(|prev| ui > prev) {
                        bounds.push((ui, di));
                        last_ui = Some(ui);
                    }
                }
            }

            let mut joined = Vec::new();
            let mut loss = LossStats::default();
            let mut alignments = 0u64;
            for w in bounds.windows(2) {
                let (ui, di) = w[0];
                let (uj, dj) = w[1];
                let up_cnt: u64 = up[ui..uj].iter().map(|r| r.pkt_cnt).sum();
                let down_raw: u64 = down[di..dj].iter().map(|r| r.pkt_cnt).sum();
                let m_start = if ui > 0 && di > 0 {
                    window_migration(
                        &up[ui - 1].agg_trans,
                        &down[di - 1].agg_trans,
                        up[ui].agg.first,
                    )
                } else {
                    None
                };
                let m_end = window_migration(
                    &up[uj - 1].agg_trans,
                    &down[dj - 1].agg_trans,
                    up[uj].agg.first,
                );
                let start_adj = m_start.map_or(0, |m| m.net_to_earlier());
                let end_adj = m_end.map_or(0, |m| m.net_to_earlier());
                if start_adj != 0 {
                    alignments += 1;
                }
                let adjusted = down_raw as i64 + end_adj - start_adj;
                joined.push(JoinedAggregate {
                    up_range: (ui, uj),
                    down_range: (di, dj),
                    up_cnt,
                    down_cnt_raw: down_raw,
                    down_cnt_adjusted: adjusted,
                    start_boundary: up[ui].agg.first,
                    lost: up_cnt as i64 - adjusted,
                });
                loss.merge(LossStats::new(up_cnt, adjusted.max(0) as u64));
            }

            let mean_span = if joined.is_empty() {
                0.0
            } else {
                joined.iter().map(|j| j.up_cnt as f64).sum::<f64>() / joined.len() as f64
            };
            let (up_used, down_used) = if bounds.len() >= 2 {
                let first = bounds[0];
                let last = bounds[bounds.len() - 1];
                (last.0 - first.0, last.1 - first.1)
            } else {
                (0, 0)
            };
            JoinResult {
                joined,
                loss,
                mean_span_pkts: mean_span,
                alignments_applied: alignments,
                up_excluded: up.len() - up_used,
                down_excluded: down.len() - down_used,
            }
        }
    }

    fn test_path() -> PathId {
        PathId {
            spec: HeaderSpec::new(
                "10.0.0.0/8".parse().unwrap(),
                "172.16.0.0/12".parse().unwrap(),
            ),
            prev_hop: None,
            next_hop: None,
            max_diff: SimDuration::from_millis(2),
        }
    }

    /// Records over a 24-digest space, so either side, or both, hold a
    /// digest more than once; each digest is shifted left by `shift`
    /// bits, so with a large shift digests differ only in high bits.
    fn arb_records(ids: &[u64], shift: u32) -> Vec<SampleRecord> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| SampleRecord {
                pkt_id: Digest(id << shift),
                time: SimTime::from_micros(10 * i as u64 + id),
            })
            .collect()
    }

    /// One HOP's receipt stream over the cut sequence `cuts`: it keeps
    /// most cuts (sometimes one twice, sometimes a foreign one), and a
    /// receipt's window usually holds the cut that closed it among
    /// digests from a 16-value space — so windows repeat digests, hold
    /// the boundary more than once, or miss it.
    fn arb_stream(rng: &mut SmallRng, cuts: &[u64]) -> Vec<AggReceipt> {
        let mut firsts: Vec<u64> = Vec::new();
        for &cut in cuts {
            match rng.gen_range(0u32..10) {
                0 => {}
                1 => firsts.extend([cut, cut]),
                2 => firsts.push(1_000 + rng.gen_range(0u64..4)),
                _ => firsts.push(cut),
            }
        }
        (0..firsts.len())
            .map(|k| {
                let window = arb_window(rng, firsts.get(k + 1).copied());
                AggReceipt {
                    path: test_path(),
                    agg: AggId {
                        first: Digest(firsts[k]),
                        last: Digest(firsts[k]),
                    },
                    pkt_cnt: rng.gen_range(0u64..500),
                    agg_trans: window,
                }
            })
            .collect()
    }

    /// Up to 9 digests from a 16-value space, with the `closing` cut
    /// inserted 0 to 2 times.
    fn arb_window(rng: &mut SmallRng, closing: Option<u64>) -> Vec<Digest> {
        let mut window: Vec<Digest> = (0..rng.gen_range(0usize..10))
            .map(|_| Digest(rng.gen_range(0u64..16)))
            .collect();
        if let Some(closing) = closing {
            for _ in 0..rng.gen_range(0usize..3) {
                let at = rng.gen_range(0usize..window.len() + 1);
                window.insert(at, Digest(closing));
            }
        }
        window
    }

    /// Two streams over one cut sequence drawn from the windows' own
    /// digest space.
    fn arb_stream_pair(seed: u64) -> (Vec<AggReceipt>, Vec<AggReceipt>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cuts: Vec<u64> = (0..rng.gen_range(0usize..12))
            .map(|_| rng.gen_range(0u64..16))
            .collect();
        (arb_stream(&mut rng, &cuts), arb_stream(&mut rng, &cuts))
    }

    /// A chain of 2 to 8 HOPs over one cut sequence, each with its own
    /// sample records. A HOP after the first usually copies its
    /// predecessor's receipts, keeping most windows byte-for-byte and
    /// redrawing some (so windows are identical on one pair and differ
    /// on the next), or lays one digest on both sides of a cut; now and
    /// then it draws a stream of its own, with cuts dropped, repeated
    /// or foreign. The windows' 16-value space puts digests on both
    /// sides of cuts, and a window holds its cut zero to two times.
    fn arb_chain(seed: u64) -> Vec<(Vec<SampleRecord>, Vec<AggReceipt>)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cuts: Vec<u64> = (0..rng.gen_range(0usize..12))
            .map(|_| rng.gen_range(0u64..16))
            .collect();
        let mut streams = vec![arb_stream(&mut rng, &cuts)];
        for _ in 1..rng.gen_range(2usize..=8) {
            let next = match (streams.last(), rng.gen_range(0u32..5)) {
                (Some(prev), 1..) => {
                    let mut next = prev.clone();
                    let firsts: Vec<u64> = next.iter().map(|r| r.agg.first.0).collect();
                    for (k, r) in next.iter_mut().enumerate() {
                        let closing = firsts.get(k + 1).copied();
                        match rng.gen_range(0u32..8) {
                            0 => r.agg_trans = arb_window(&mut rng, closing),
                            1 => {
                                let x = Digest(rng.gen_range(0u64..16));
                                r.agg_trans = vec![x, Digest(closing.unwrap_or(0)), x];
                            }
                            _ => {}
                        }
                    }
                    next
                }
                _ => arb_stream(&mut rng, &cuts),
            };
            streams.push(next);
        }
        streams
            .into_iter()
            .map(|aggs| {
                let ids: Vec<u64> = (0..rng.gen_range(0usize..40))
                    .map(|_| rng.gen_range(0u64..24))
                    .collect();
                (arb_records(&ids, 0), aggs)
            })
            .collect()
    }

    /// The pairs a chain test judges: every adjacent pair in path
    /// order, then a few more in any order (a segment, a pair taken
    /// twice, a HOP against itself).
    fn chain_pairs(seed: u64, hops: usize) -> Vec<(usize, usize)> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut pairs: Vec<(usize, usize)> = (1..hops).map(|k| (k - 1, k)).collect();
        for _ in 0..rng.gen_range(0usize..4) {
            pairs.push((rng.gen_range(0..hops), rng.gen_range(0..hops)));
        }
        pairs
    }

    proptest::proptest! {
        /// Every pair a chain judges equals the pair judged alone, and
        /// its join the twice-per-boundary reference: the memo carries
        /// only what a window and its cut determine.
        #[test]
        fn chain_equals_the_pairwise_verifier(seed in proptest::prelude::any::<u64>()) {
            let hops = arb_chain(seed);
            let views: Vec<HopView> = hops.iter().map(|(s, a)| HopView::new(s, a)).collect();
            let pairs = chain_pairs(seed, hops.len());
            let (v, path) = (Verifier::default(), test_path());
            let chained: Vec<(DomainEstimate, LinkReport)> = v.chain(&views, |chain| {
                pairs
                    .iter()
                    .map(|&(i, j)| (chain.estimate_domain(i, j), chain.check_link(&path, i, &path, j)))
                    .collect()
            });
            for (&(i, j), (estimate, report)) in pairs.iter().zip(chained) {
                let ((up_s, up_a), (down_s, down_a)) = (&hops[i], &hops[j]);
                proptest::prop_assert_eq!(&estimate, &v.estimate_domain(up_s, up_a, down_s, down_a));
                proptest::prop_assert_eq!(&estimate.join, &join_aggregates(up_a, down_a));
                proptest::prop_assert_eq!(&estimate.join, &reference::join_aggregates(up_a, down_a));
                proptest::prop_assert_eq!(estimate.matched_samples, match_samples(up_s, down_s).len());
                proptest::prop_assert_eq!(
                    &report,
                    &v.check_link(&path, up_s, up_a, &path, down_s, down_a)
                );
            }
        }

        #[test]
        fn match_equals_the_five_table_match(
            ingress in proptest::collection::vec(0u64..24, 0..60),
            egress in proptest::collection::vec(0u64..24, 0..60),
            shift in 0u32..48
        ) {
            let (ingress, egress) = (arb_records(&ingress, shift), arb_records(&egress, shift));
            proptest::prop_assert_eq!(
                match_samples(&ingress, &egress),
                reference::match_samples(&ingress, &egress)
            );
        }

        #[test]
        fn join_equals_the_twice_per_boundary_join(seed in proptest::prelude::any::<u64>()) {
            let (up, down) = arb_stream_pair(seed);
            proptest::prop_assert_eq!(
                join_aggregates(&up, &down),
                reference::join_aggregates(&up, &down)
            );
        }

        #[test]
        fn link_report_counts_equal_the_set_based_counts(
            up in proptest::collection::vec(0u64..24, 0..60),
            down in proptest::collection::vec(0u64..24, 0..60),
            seed in proptest::prelude::any::<u64>()
        ) {
            let (up, down) = (arb_records(&up, 0), arb_records(&down, 0));
            let (up_aggs, down_aggs) = arb_stream_pair(seed);
            let path = test_path();
            let report =
                Verifier::default().check_link(&path, &up, &up_aggs, &path, &down, &down_aggs);
            let matched = reference::match_samples(&up, &down);
            proptest::prop_assert_eq!(report.common_samples, matched.len());
            proptest::prop_assert_eq!(report.up_only_samples, reference::unmatched(&up, &matched));
            proptest::prop_assert_eq!(
                report.down_only_samples,
                reference::unmatched(&down, &matched)
            );
            proptest::prop_assert_eq!(
                report.joined_aggregates,
                reference::join_aggregates(&up_aggs, &down_aggs).joined.len()
            );
        }
    }

    #[test]
    fn differential_streams_do_join_and_realign() {
        // The generator above is only a test of the join if its streams
        // share boundaries and their windows move counts.
        let (mut joined, mut aligned) = (0, 0);
        for seed in 0..200 {
            let (up, down) = arb_stream_pair(seed);
            let res = join_aggregates(&up, &down);
            joined += res.joined.len();
            aligned += res.alignments_applied;
        }
        assert!(joined > 300, "{joined} joined aggregates over 200 seeds");
        assert!(
            aligned > 30,
            "{aligned} re-aligned boundaries over 200 seeds"
        );
    }

    /// Windows loaded by `judge` on a chain over `views`.
    fn loads(views: &[HopView], judge: impl FnOnce(&mut HopChain)) -> u64 {
        Verifier::default().chain(views, |chain| {
            let before = chain.scratch.windows.loads;
            judge(chain);
            chain.scratch.windows.loads - before
        })
    }

    /// An honest 8-HOP path whose windows are all identical and clean:
    /// judged in path order, each common cut's window is loaded once,
    /// by the first pair, not once per pair.
    #[test]
    fn an_identical_chain_loads_each_window_once() {
        let stream = long_stream(Digest, false);
        let stream = &stream[..50];
        let views = vec![HopView::new(&[], stream); 8];
        let path = test_path();
        // 50 common cuts, of which the first closed no window.
        let cuts = 49;
        let chained = loads(&views, |chain| {
            for k in 1..8 {
                if k % 2 == 1 {
                    chain.check_link(&path, k - 1, &path, k);
                } else {
                    chain.estimate_domain(k - 1, k);
                }
            }
        });
        assert_eq!(chained, cuts);
        let pairwise: u64 = (1..8)
            .map(|k| loads(&views[k - 1..=k], |chain| drop(chain.estimate_domain(0, 1))))
            .sum();
        assert_eq!(pairwise, 7 * cuts);
    }

    /// The chain generator is only a test of the memo if its chains
    /// share window states: together they load far fewer windows than
    /// the same pairs judged alone.
    #[test]
    fn generated_chains_share_window_states() {
        let (mut chained, mut pairwise) = (0, 0);
        for seed in 0..200 {
            let hops = arb_chain(seed);
            let views: Vec<HopView> = hops.iter().map(|(s, a)| HopView::new(s, a)).collect();
            let pairs = chain_pairs(seed, hops.len());
            chained += loads(&views, |chain| {
                for &(i, j) in &pairs {
                    chain.estimate_domain(i, j);
                }
            });
            for &(i, j) in &pairs {
                let pair = [views[i], views[j]];
                pairwise += loads(&pair, |chain| drop(chain.estimate_domain(0, 1)));
            }
        }
        assert!(chained * 3 < pairwise * 2, "{chained} of {pairwise} loads");
    }

    /// 2,000 aggregates of 1,024 packets, packet `i`'s digest being
    /// `digest(i)`: every receipt's 512-digest window is centred on the
    /// cut that closed it, and with `reorder` the packet before each
    /// cut arrives after it.
    fn long_stream(digest: fn(u64) -> Digest, reorder: bool) -> Vec<AggReceipt> {
        (0..2_000u64)
            .map(|k| {
                let closing = (k + 1) * 1_024;
                let mut window: Vec<Digest> = (closing - 256..closing + 256).map(digest).collect();
                if reorder {
                    window.swap(255, 256);
                }
                AggReceipt {
                    path: test_path(),
                    agg: AggId {
                        first: digest(k * 1_024),
                        last: digest(closing - 1),
                    },
                    pkt_cnt: 1_000,
                    agg_trans: window,
                }
            })
            .collect()
    }

    /// Join an in-order stream with its reordered twin under a 1 s
    /// limit (a debug build is fine), and check that one packet
    /// migrated to the earlier aggregate at every boundary, so the
    /// interior aggregates gain one and give one. Up to three tries: a
    /// neighbour test holding the core must not fail this one.
    fn assert_long_join_is_fast_and_exact(digest: fn(u64) -> Digest) {
        let (up, down) = (long_stream(digest, false), long_stream(digest, true));
        let limit = std::time::Duration::from_secs(1);
        let timed = || {
            let started = std::time::Instant::now();
            (join_aggregates(&up, &down), started.elapsed())
        };
        let (mut res, mut took) = timed();
        for _ in 0..2 {
            if took >= limit {
                (res, took) = timed();
            }
        }
        assert_eq!(res.joined.len(), 1_999);
        assert_eq!(res.alignments_applied, 1_998);
        assert_eq!(res.joined[0].down_cnt_adjusted, 1_001);
        assert!(
            res.joined[1..].iter().all(|j| j.lost == 0),
            "{:?}",
            res.joined[1]
        );
        assert!(took < limit, "join took {took:?}");
        // The first aggregates against the nested scan, which would
        // need ~10⁹ comparisons for the whole streams.
        assert_eq!(
            join_aggregates(&up[..12], &down[..12]),
            reference::join_aggregates(&up[..12], &down[..12])
        );
    }

    /// The nested scan needed ~10⁹ comparisons here (and each boundary
    /// twice).
    #[test]
    fn join_scales_with_long_windows() {
        assert_long_join_is_fast_and_exact(Digest);
    }

    /// Windows a lying peer could pick to defeat an unkeyed table:
    /// digests spaced `2⁴⁰` apart, every non-cut digest the same value
    /// (each then sits on both sides of the cut downstream, so each
    /// upstream occurrence migrates and the net is still one), and
    /// digests sharing their low 32 bits.
    #[test]
    fn join_scales_with_hostile_windows() {
        let families: [fn(u64) -> Digest; 3] = [
            |i| Digest(i << 40),
            |i| Digest(if i % 1_024 == 0 { i + 1 } else { 7 }),
            |i| Digest(i << 32 | 0x5650_4d00),
        ];
        for digest in families {
            assert_long_join_is_fast_and_exact(digest);
        }
    }

    /// Match 100,000 records a side under a 1 s limit (a debug build is
    /// fine) for digests a lying peer could pick to defeat an unkeyed
    /// table: spaced `2⁴⁰` apart, one value repeated (every record but
    /// one in 1,024, all then skipped as duplicates), and sharing their
    /// low 32 bits. The egress side lists the packets in reverse, 3 ms
    /// later. Up to three tries, as for the join.
    #[test]
    fn match_scales_with_hostile_digests() {
        let families: [fn(u64) -> Digest; 3] = [
            |i| Digest(i << 40),
            |i| Digest(if i % 1_024 == 0 { i + 1 } else { 7 }),
            |i| Digest(i << 32 | 0x5650_4d00),
        ];
        for digest in families {
            let side = |delay_us: u64| -> Vec<SampleRecord> {
                (0..100_000u64)
                    .map(|i| SampleRecord {
                        pkt_id: digest(i),
                        time: SimTime::from_micros(10 * i + delay_us),
                    })
                    .collect()
            };
            let ingress = side(0);
            let mut egress = side(3_000);
            egress.reverse();
            let limit = std::time::Duration::from_secs(1);
            let timed = || {
                let started = std::time::Instant::now();
                (match_samples(&ingress, &egress), started.elapsed())
            };
            let (mut matched, mut took) = timed();
            for _ in 0..2 {
                if took >= limit {
                    (matched, took) = timed();
                }
            }
            assert!(took < limit, "match took {took:?}");
            let distinct = ingress.iter().filter(|r| r.pkt_id != Digest(7)).count();
            assert_eq!(matched.len(), distinct);
            assert!(matched.iter().all(|m| (m.delay_ms() - 3.0).abs() < 1e-9));
            // A prefix against the five-table specification.
            let (ingress, egress) = (&ingress[..5_000], &egress[95_000..]);
            assert_eq!(
                match_samples(ingress, egress),
                reference::match_samples(ingress, egress)
            );
        }
    }

    #[test]
    fn match_samples_pairs_by_id() {
        let ing = vec![rec(1, 10), rec(2, 20), rec(3, 30)];
        let egr = vec![rec(2, 1020), rec(3, 1030), rec(4, 1040)];
        let m = match_samples(&ing, &egr);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].pkt_id, Digest(2));
        assert!((m[0].delay_ms() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn match_samples_skips_duplicates() {
        let ing = vec![rec(1, 10), rec(1, 11), rec(2, 20)];
        let egr = vec![rec(1, 100), rec(2, 120), rec(2, 121)];
        let m = match_samples(&ing, &egr);
        assert!(m.is_empty(), "both ids are ambiguous: {m:?}");
    }

    #[test]
    fn delay_estimate_recovers_constant_delay() {
        let v = Verifier::default();
        let matched: Vec<MatchedSample> = (0..1000)
            .map(|i| MatchedSample {
                pkt_id: Digest(i),
                t_in: SimTime::from_micros(10 * i),
                t_out: SimTime::from_micros(10 * i + 2_500),
            })
            .collect();
        let est = v.estimate_delay(&matched).unwrap();
        for q in &est.quantiles {
            assert!((q.value - 2.5).abs() < 1e-9, "{q:?}");
            assert!(q.lo <= q.value && q.value <= q.hi);
        }
    }

    /// End-to-end: two HOPs run the real sampler; constant 3 ms domain
    /// delay is recovered from the matched receipts.
    #[test]
    fn samplers_to_estimate_pipeline() {
        let marker = Threshold::from_rate(0.01);
        let sigma = Threshold::from_rate(0.05);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut h_in = DelaySampler::new(marker, sigma);
        let mut h_out = DelaySampler::new(marker, sigma);
        for i in 0..50_000u64 {
            let d = Digest(rng.gen());
            let t = SimTime::from_micros(10 * i);
            h_in.observe(d, t);
            h_out.observe(d, t + SimDuration::from_millis(3));
        }
        let matched = match_samples(&h_in.drain(), &h_out.drain());
        assert!(matched.len() > 1000);
        let est = Verifier::default().estimate_delay(&matched).unwrap();
        for q in &est.quantiles {
            assert!((q.value - 3.0).abs() < 1e-6, "{q:?}");
        }
    }

    /// Compact-profile receipts (§7.1 truncation: 32-bit digests,
    /// 24-bit µs timestamps) still match across HOPs and recover the
    /// transit delay — including across the timestamp ring's seam,
    /// which the stream straddles several times here.
    #[test]
    fn truncated_receipts_still_estimate_delay() {
        use crate::receipt::compact;
        let marker = Threshold::from_rate(0.01);
        let sigma = Threshold::from_rate(0.05);
        let mut rng = SmallRng::seed_from_u64(18);
        let mut h_in = DelaySampler::new(marker, sigma);
        let mut h_out = DelaySampler::new(marker, sigma);
        for i in 0..50_000u64 {
            let d = Digest(rng.gen());
            // 400 µs apart × 50k packets = 20 s > the 16.8 s ring.
            let t = SimTime::from_micros(400 * i);
            h_in.observe(d, t);
            h_out.observe(d, t + SimDuration::from_millis(3));
        }
        let truncate = |recs: Vec<SampleRecord>| -> Vec<SampleRecord> {
            recs.iter().map(compact::truncate_record).collect()
        };
        let full_in = h_in.drain();
        let full_out = h_out.drain();
        let matched_full = match_samples(&full_in, &full_out);
        let matched = match_samples(&truncate(full_in), &truncate(full_out));
        // Truncation can only lose samples (32-bit collisions fall to
        // the duplicate rule), never invent matches.
        assert!(matched.len() <= matched_full.len());
        assert!(matched.len() as f64 > 0.99 * matched_full.len() as f64);
        let est = Verifier::default()
            .estimate_delay_truncated(&matched)
            .unwrap();
        for q in &est.quantiles {
            // Truncation floors each timestamp to µs, so a 3 ms delay
            // reads as 3 ms ± 1 µs.
            assert!((q.value - 3.0).abs() < 2e-3, "{q:?}");
        }
        // The naive signed delta would be wildly wrong for seam-
        // straddling samples; the wrapped delta never is.
        for m in &matched {
            assert!((m.truncated_delay_ms() - 3.0).abs() < 2e-3, "{m:?}");
        }
    }

    /// End-to-end: two HOPs run the real aggregator; i.i.d. loss is
    /// computed exactly from joined receipts.
    #[test]
    fn aggregators_to_loss_pipeline() {
        let delta = Threshold::from_rate(0.005); // ~200-pkt aggregates
        let j = SimDuration::from_millis(1);
        let mut up = Aggregator::new(delta, j);
        let mut down = Aggregator::new(delta, j);
        let mut rng = SmallRng::seed_from_u64(13);
        let mut true_lost = 0u64;
        let mut sent = 0u64;
        let mut kept_first = false;
        for i in 0..100_000u64 {
            let d = Digest(rng.gen());
            let t = SimTime::from_micros(10 * i);
            up.observe(d, t);
            sent += 1;
            // 10% i.i.d. loss, but force the first packet through so the
            // streams share their starting boundary.
            let keep = !kept_first || rng.gen::<f64>() >= 0.10;
            kept_first = true;
            if keep {
                down.observe(d, t + SimDuration::from_millis(1));
            } else {
                true_lost += 1;
            }
        }
        up.flush();
        down.flush();
        let to_receipts = |fins: Vec<crate::aggregation::FinishedAggregate>| -> Vec<AggReceipt> {
            let path = PathId {
                spec: HeaderSpec::new(
                    "10.0.0.0/8".parse().unwrap(),
                    "172.16.0.0/12".parse().unwrap(),
                ),
                prev_hop: None,
                next_hop: None,
                max_diff: SimDuration::from_millis(2),
            };
            fins.into_iter()
                .map(|f| AggReceipt {
                    path,
                    agg: f.agg,
                    pkt_cnt: f.pkt_cnt,
                    agg_trans: f.agg_trans,
                })
                .collect()
        };
        let res = join_aggregates(&to_receipts(up.drain()), &to_receipts(down.drain()));
        assert!(!res.joined.is_empty());
        // The joined region covers almost the whole stream; its loss
        // rate must match the injected 10% closely.
        let rate = res.loss.rate().unwrap();
        assert!((rate - 0.10).abs() < 0.01, "rate {rate}");
        // And per-aggregate losses are non-negative (receipts honest).
        for jagg in &res.joined {
            assert!(jagg.lost >= 0, "{jagg:?}");
        }
        let covered: u64 = res.joined.iter().map(|j| j.up_cnt).sum();
        assert!(covered as f64 > 0.9 * sent as f64);
        let _ = true_lost;
    }

    /// §6: HOPs with different partition thresholds still verify
    /// against each other — the join lands at the coarser granularity.
    #[test]
    fn join_across_heterogeneous_aggregation_rates() {
        let jwin = SimDuration::from_millis(1);
        let mut fine = Aggregator::new(Threshold::from_rate(1.0 / 200.0), jwin);
        let mut coarse = Aggregator::new(Threshold::from_rate(1.0 / 1000.0), jwin);
        let mut rng = SmallRng::seed_from_u64(29);
        let mut lost = 0u64;
        let n = 120_000u64;
        for i in 0..n {
            let d = Digest(rng.gen());
            let t = SimTime::from_micros(10 * i);
            fine.observe(d, t); // upstream HOP: fine aggregates
            let keep = i == 0 || rng.gen::<f64>() >= 0.08;
            if keep {
                coarse.observe(d, t + SimDuration::from_micros(100));
            } else {
                lost += 1;
            }
        }
        fine.flush();
        coarse.flush();
        let path = PathId {
            spec: HeaderSpec::new(
                "10.0.0.0/8".parse().unwrap(),
                "172.16.0.0/12".parse().unwrap(),
            ),
            prev_hop: None,
            next_hop: None,
            max_diff: SimDuration::from_millis(2),
        };
        let rx = |fins: Vec<crate::aggregation::FinishedAggregate>| -> Vec<AggReceipt> {
            fins.into_iter()
                .map(|f| AggReceipt {
                    path,
                    agg: f.agg,
                    pkt_cnt: f.pkt_cnt,
                    agg_trans: f.agg_trans,
                })
                .collect()
        };
        let fine_rx = rx(fine.drain());
        let coarse_rx = rx(coarse.drain());
        let res = join_aggregates(&fine_rx, &coarse_rx);
        assert!(!res.joined.is_empty());
        // The join's granularity is bounded below by the coarse side.
        assert!(
            res.mean_span_pkts > 700.0,
            "join granularity {} pkts",
            res.mean_span_pkts
        );
        let rate = res.loss.rate().unwrap();
        assert!((rate - 0.08).abs() < 0.015, "rate {rate}");
        let _ = lost;
    }

    #[test]
    fn join_handles_disjoint_streams() {
        let path = PathId {
            spec: HeaderSpec::new(
                "10.0.0.0/8".parse().unwrap(),
                "172.16.0.0/12".parse().unwrap(),
            ),
            prev_hop: None,
            next_hop: None,
            max_diff: SimDuration::from_millis(2),
        };
        let mk = |first: u64, last: u64, cnt: u64| AggReceipt {
            path,
            agg: AggId {
                first: Digest(first),
                last: Digest(last),
            },
            pkt_cnt: cnt,
            agg_trans: vec![],
        };
        let up = vec![mk(1, 5, 10), mk(6, 9, 10)];
        let down = vec![mk(100, 105, 10), mk(106, 109, 10)];
        let res = join_aggregates(&up, &down);
        assert!(res.joined.is_empty());
        assert_eq!(res.loss.sent, 0);
        assert_eq!(res.up_excluded, 2);
        assert_eq!(res.down_excluded, 2);
    }

    #[test]
    fn link_check_flags_delay_and_count_violations() {
        let v = Verifier::default();
        let path_up = PathId {
            spec: HeaderSpec::new(
                "10.0.0.0/8".parse().unwrap(),
                "172.16.0.0/12".parse().unwrap(),
            ),
            prev_hop: None,
            next_hop: None,
            max_diff: SimDuration::from_millis(1),
        };
        let path_down = path_up;
        // Sample 7 crosses the link in 5 ms >> MaxDiff 1 ms.
        let up_s = vec![rec(7, 0), rec(8, 100)];
        let down_s = vec![rec(7, 5_000), rec(8, 200)];
        // Aggregates: counts disagree by 2 on the common region.
        let mk = |first: u64, cnt: u64| AggReceipt {
            path: path_up,
            agg: AggId {
                first: Digest(first),
                last: Digest(first),
            },
            pkt_cnt: cnt,
            agg_trans: vec![],
        };
        let up_a = vec![mk(1, 100), mk(2, 50)];
        let down_a = vec![mk(1, 98), mk(2, 50)];
        let report = v.check_link(&path_up, &up_s, &up_a, &path_down, &down_s, &down_a);
        assert!(!report.is_consistent());
        assert!(report
            .inconsistencies
            .iter()
            .any(|i| matches!(i, LinkInconsistency::ExcessLinkDelay { pkt_id, .. } if *pkt_id == Digest(7))));
        assert!(report.inconsistencies.iter().any(|i| matches!(
            i,
            LinkInconsistency::CountMismatch {
                up_cnt: 100,
                down_cnt: 98,
                ..
            }
        )));
        assert_eq!(report.common_samples, 2);
    }

    /// Two HOPs across a link with different σ must not produce false
    /// inconsistencies: the check runs over the commonly sampled set,
    /// which the threshold total order makes exactly the rarer HOP's
    /// set (modulo stream-end effects).
    #[test]
    fn link_check_tolerates_heterogeneous_sampling_rates() {
        let marker = Threshold::from_rate(0.01);
        let mut up = DelaySampler::new(marker, Threshold::from_rate(0.08));
        let mut down = DelaySampler::new(marker, Threshold::from_rate(0.02));
        let mut rng = SmallRng::seed_from_u64(71);
        for i in 0..60_000u64 {
            let d = Digest(rng.gen());
            let t = SimTime::from_micros(10 * i);
            up.observe(d, t);
            // Link transit 100 µs, well under MaxDiff.
            down.observe(d, t + SimDuration::from_micros(100));
        }
        let up_s = up.drain();
        let down_s = down.drain();
        assert!(up_s.len() > 2 * down_s.len());
        let path = PathId {
            spec: HeaderSpec::new(
                "10.0.0.0/8".parse().unwrap(),
                "172.16.0.0/12".parse().unwrap(),
            ),
            prev_hop: None,
            next_hop: None,
            max_diff: SimDuration::from_millis(2),
        };
        let v = Verifier::default();
        let report = v.check_link(&path, &up_s, &[], &path, &down_s, &[]);
        assert!(report.is_consistent(), "{:?}", report.inconsistencies);
        // Common set ≈ the rarer HOP's whole set.
        assert!(
            report.common_samples as f64 > 0.95 * down_s.len() as f64,
            "common {} of {}",
            report.common_samples,
            down_s.len()
        );
        // The extra upstream samples are expected, not suspicious.
        assert!(report.up_only_samples > 0);
    }

    #[test]
    fn link_check_consistent_when_honest() {
        let v = Verifier::default();
        let path = PathId {
            spec: HeaderSpec::new(
                "10.0.0.0/8".parse().unwrap(),
                "172.16.0.0/12".parse().unwrap(),
            ),
            prev_hop: None,
            next_hop: None,
            max_diff: SimDuration::from_millis(2),
        };
        let up_s = vec![rec(1, 0), rec(2, 50)];
        let down_s = vec![rec(1, 500), rec(2, 600)];
        let mk = |first: u64, cnt: u64| AggReceipt {
            path,
            agg: AggId {
                first: Digest(first),
                last: Digest(first),
            },
            pkt_cnt: cnt,
            agg_trans: vec![],
        };
        let up_a = vec![mk(1, 10), mk(2, 20)];
        let down_a = vec![mk(1, 10), mk(2, 20)];
        let report = v.check_link(&path, &up_s, &up_a, &path, &down_s, &down_a);
        assert!(report.is_consistent(), "{:?}", report.inconsistencies);
    }
}
