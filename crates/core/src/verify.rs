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

use serde::{Deserialize, Serialize};
use vpm_hash::Digest;
use vpm_packet::SimTime;
use vpm_stats::{estimate_quantile, LossStats, QuantileEstimate};

use crate::align::WindowTable;
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
/// every digest seen exactly once on each. The digests are a peer's,
/// who may lie, so the table is the verifier's keyed one (the same as
/// the §6.3 join's): multiply-shift under a per-process secret
/// multiplier, linear probing, at most an eighth full. A peer that does
/// not know the secret cannot pick digests that pile into one probe
/// run.
pub fn match_samples(ingress: &[SampleRecord], egress: &[SampleRecord]) -> Vec<MatchedSample> {
    #[derive(Debug, Clone, Copy, Default)]
    struct Seen {
        t_out: SimTime,
        ingress: u8,
        egress: u8,
    }
    let mut seen: DigestTable<Seen> = DigestTable::with_len(egress.len());
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

/// The `AggTrans` window a cut at receipt `i` of `side` is recorded in:
/// the receipt that cut *closed*, the one before `i`. The cut that
/// opens the stream closed nothing.
fn closed_window(side: &[AggReceipt], i: usize) -> Option<&[Digest]> {
    Some(side.get(i.checked_sub(1)?)?.agg_trans.as_slice())
}

/// Join two aggregate receipt streams at their common boundaries,
/// applying AggTrans re-alignment where windows permit.
///
/// A common boundary is a cut digest both streams open an aggregate
/// with, taken in strictly increasing order on both sides. Each
/// boundary's migration is computed once: it closes one joined
/// aggregate and opens the next.
pub fn join_aggregates(up: &[AggReceipt], down: &[AggReceipt]) -> JoinResult {
    // Map upstream cut digests (aggregate first packets) to the index
    // of their first occurrence.
    let mut up_starts: DigestTable<Option<usize>> = DigestTable::with_len(up.len());
    for (i, r) in up.iter().enumerate() {
        if let Some(first @ None) = up_starts.entry(r.agg.first) {
            *first = Some(i);
        }
    }
    // Common boundaries (upstream index, downstream index, cut digest),
    // strictly increasing on both sides.
    let mut bounds: Vec<(usize, usize, Digest)> = Vec::new();
    for (di, r) in down.iter().enumerate() {
        if let Some(&Some(ui)) = up_starts.get(r.agg.first) {
            if bounds.last().is_none_or(|&(prev, ..)| ui > prev) {
                bounds.push((ui, di, r.agg.first));
            }
        }
    }

    // Net migration at a boundary, toward the aggregate it closes; zero
    // where the windows cannot re-align it. One table serves every
    // boundary.
    let mut table = WindowTable::new();
    let mut net_to_earlier = |&(ui, di, cut): &(usize, usize, Digest)| -> i64 {
        closed_window(up, ui)
            .zip(closed_window(down, di))
            .and_then(|(up_window, down_window)| table.migration(up_window, down_window, cut))
            .map_or(0, |m| m.net_to_earlier())
    };
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
        [first, _, ..] => net_to_earlier(first),
        _ => 0,
    };
    for (&(ui, di, cut), end @ &(uj, dj, _)) in bounds.iter().zip(bounds.iter().skip(1)) {
        let up_cnt = span(up, ui, uj);
        let down_raw = span(down, di, dj);
        let end_adj = net_to_earlier(end);
        // Each interior boundary is tallied once, as the *start* of the
        // joined aggregate it opens (its role as the previous
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

    JoinResult {
        joined,
        loss,
        mean_span_pkts: mean_span,
        alignments_applied: alignments,
        up_excluded: up.len() - up_used,
        down_excluded: down.len() - down_used,
    }
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

    /// Full per-domain estimate from ingress/egress receipts.
    pub fn estimate_domain(
        &self,
        ingress_samples: &[SampleRecord],
        ingress_aggs: &[AggReceipt],
        egress_samples: &[SampleRecord],
        egress_aggs: &[AggReceipt],
    ) -> DomainEstimate {
        let matched = match_samples(ingress_samples, egress_samples);
        let join = join_aggregates(ingress_aggs, egress_aggs);
        DomainEstimate {
            delay: self.estimate_delay(&matched),
            loss: join.loss,
            matched_samples: matched.len(),
            join,
        }
    }

    /// Check the §4 consistency rules across one inter-domain link.
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
        let mut inconsistencies = Vec::new();
        if let Some(v) = check_max_diff(up_path, down_path) {
            inconsistencies.push(v);
        }
        let max_diff = up_path.max_diff;

        let matched = match_samples(up_samples, down_samples);
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
        let up_only = up_samples.len() - matched.len();
        let down_only = down_samples.len() - matched.len();

        let join = join_aggregates(up_aggs, down_aggs);
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
                let mut window: Vec<Digest> = (0..rng.gen_range(0usize..10))
                    .map(|_| Digest(rng.gen_range(0u64..16)))
                    .collect();
                if let Some(&closing) = firsts.get(k + 1) {
                    for _ in 0..rng.gen_range(0usize..3) {
                        let at = rng.gen_range(0usize..window.len() + 1);
                        window.insert(at, Digest(closing));
                    }
                }
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

    /// Two streams over one cut sequence drawn from the windows' own
    /// digest space.
    fn arb_stream_pair(seed: u64) -> (Vec<AggReceipt>, Vec<AggReceipt>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cuts: Vec<u64> = (0..rng.gen_range(0usize..12))
            .map(|_| rng.gen_range(0u64..16))
            .collect();
        (arb_stream(&mut rng, &cuts), arb_stream(&mut rng, &cuts))
    }

    proptest::proptest! {
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
