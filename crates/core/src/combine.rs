//! Receipt combination `⊎` (paper §4).
//!
//! Receipts from the *same HOP* can be combined into receipts over a
//! larger sample set or a coarser aggregate:
//!
//! * samples: `⊎ᵢ Rᵢ = ⟨PathID, ∪ᵢ Samplesᵢ⟩`;
//! * aggregates (consecutive): `⊎ᵢ Rᵢ = ⟨PathID, AggID, Σᵢ PktCntᵢ⟩`
//!   where `AggID` spans from the first aggregate's first packet to the
//!   last aggregate's last packet.
//!
//! Combination is what lets a verifier compare receipts produced at
//! different aggregation granularities: it combines the finer HOP's
//! receipts up to the join of the two partitions.

use crate::receipt::{AggId, AggReceipt, SampleReceipt};

/// Errors from receipt combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombineError {
    /// No receipts were given.
    Empty,
    /// Receipts name different paths (combination is per-path).
    PathMismatch,
    /// Aggregate receipts are not consecutive: receipt `i+1` does not
    /// start where receipt `i` ended (detectable when windows overlap).
    NotConsecutive {
        /// Index of the first receipt of the offending pair.
        at: usize,
    },
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineError::Empty => write!(f, "no receipts to combine"),
            CombineError::PathMismatch => write!(f, "receipts name different paths"),
            CombineError::NotConsecutive { at } => {
                write!(
                    f,
                    "aggregate receipts {at} and {} are not consecutive",
                    at + 1
                )
            }
        }
    }
}

impl std::error::Error for CombineError {}

/// Combine sample receipts from the same HOP and path.
///
/// The sample union preserves observation order (receipts are emitted
/// in order, and samples within a receipt are ordered); exact duplicate
/// records are dropped.
pub fn combine_samples(receipts: &[SampleReceipt]) -> Result<SampleReceipt, CombineError> {
    let first = receipts.first().ok_or(CombineError::Empty)?;
    if receipts.iter().any(|r| r.path != first.path) {
        return Err(CombineError::PathMismatch);
    }
    let mut seen = std::collections::HashSet::new();
    let mut samples = Vec::new();
    for r in receipts {
        for s in &r.samples {
            if seen.insert((s.pkt_id, s.time)) {
                samples.push(*s);
            }
        }
    }
    Ok(SampleReceipt {
        path: first.path,
        samples,
    })
}

/// Combine `N` **consecutive** aggregate receipts from the same HOP and
/// path into one coarser receipt.
///
/// Consecutiveness cannot be fully proven from the receipts alone (the
/// `AggID` digests of adjacent aggregates are distinct packets), but a
/// necessary condition *is* checkable whenever patch-up windows are
/// present: receipt `i`'s window must contain receipt `i+1`'s first
/// packet (the cut that closed `i` starts `i+1`). We enforce that
/// condition when the window is non-empty.
pub fn combine_aggregates(receipts: &[AggReceipt]) -> Result<AggReceipt, CombineError> {
    let (first, last) = match (receipts.first(), receipts.last()) {
        (Some(f), Some(l)) => (f, l),
        _ => return Err(CombineError::Empty),
    };
    if receipts.iter().any(|r| r.path != first.path) {
        return Err(CombineError::PathMismatch);
    }
    for (i, pair) in receipts.windows(2).enumerate() {
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields exactly two elements"
        )]
        if !pair[0].agg_trans.is_empty() && !pair[0].trans_contains(pair[1].agg.first) {
            return Err(CombineError::NotConsecutive { at: i });
        }
    }
    Ok(AggReceipt {
        path: first.path,
        agg: AggId {
            first: first.agg.first,
            last: last.agg.last,
        },
        pkt_cnt: receipts.iter().map(|r| r.pkt_cnt).sum(),
        agg_trans: last.agg_trans.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receipt::{PathId, SampleRecord};
    use vpm_hash::Digest;
    use vpm_packet::{HeaderSpec, SimDuration, SimTime};

    fn path() -> PathId {
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

    fn other_path() -> PathId {
        PathId {
            max_diff: SimDuration::from_millis(9),
            ..path()
        }
    }

    fn srec(id: u64, us: u64) -> SampleRecord {
        SampleRecord {
            pkt_id: Digest(id),
            time: SimTime::from_micros(us),
        }
    }

    #[test]
    fn combine_samples_unions() {
        let a = SampleReceipt {
            path: path(),
            samples: vec![srec(1, 10), srec(2, 20)],
        };
        let b = SampleReceipt {
            path: path(),
            samples: vec![srec(2, 20), srec(3, 30)], // overlap on (2,20)
        };
        let c = combine_samples(&[a, b]).unwrap();
        assert_eq!(c.samples, vec![srec(1, 10), srec(2, 20), srec(3, 30)]);
    }

    #[test]
    fn combine_samples_rejects_path_mix() {
        let a = SampleReceipt {
            path: path(),
            samples: vec![],
        };
        let b = SampleReceipt {
            path: other_path(),
            samples: vec![],
        };
        assert_eq!(combine_samples(&[a, b]), Err(CombineError::PathMismatch));
        assert_eq!(combine_samples(&[]), Err(CombineError::Empty));
    }

    fn agg(first: u64, last: u64, cnt: u64, trans: &[u64]) -> AggReceipt {
        AggReceipt {
            path: path(),
            agg: AggId {
                first: Digest(first),
                last: Digest(last),
            },
            pkt_cnt: cnt,
            agg_trans: trans.iter().map(|&d| Digest(d)).collect(),
        }
    }

    #[test]
    fn combine_aggregates_sums_counts() {
        // aggregates ⟨1..5⟩(3 pkts) ⟨6..9⟩(4 pkts): window of the first
        // contains 6, the cut that started the second.
        let a = agg(1, 5, 3, &[4, 5, 6, 7]);
        let b = agg(6, 9, 4, &[8, 9, 10]);
        let c = combine_aggregates(&[a, b]).unwrap();
        assert_eq!(c.pkt_cnt, 7);
        assert_eq!(c.agg.first, Digest(1));
        assert_eq!(c.agg.last, Digest(9));
        // paper: identifier of the union of all N aggregates.
        assert_eq!(c.agg_trans, vec![Digest(8), Digest(9), Digest(10)]);
    }

    #[test]
    fn combine_aggregates_detects_gap() {
        // First receipt's window does NOT contain the second's first
        // packet ⇒ they cannot be consecutive.
        let a = agg(1, 5, 3, &[4, 5, 99]);
        let b = agg(6, 9, 4, &[]);
        assert_eq!(
            combine_aggregates(&[a, b]),
            Err(CombineError::NotConsecutive { at: 0 })
        );
    }

    #[test]
    fn combine_aggregates_trusts_windowless_receipts() {
        // Without windows the necessary condition is vacuous.
        let a = agg(1, 5, 3, &[]);
        let b = agg(6, 9, 4, &[]);
        assert!(combine_aggregates(&[a, b]).is_ok());
    }

    #[test]
    fn single_receipt_combines_to_itself() {
        let a = agg(1, 5, 3, &[1, 2]);
        assert_eq!(combine_aggregates(std::slice::from_ref(&a)).unwrap(), a);
    }

    // ---- ⊎ algebra: associativity and commutativity (§4) ----

    use proptest::prelude::*;

    /// Build a chain of consecutive aggregate receipts from random
    /// per-aggregate sizes: receipt `i`'s patch-up window always
    /// contains receipt `i+1`'s first packet, as Algorithm 2 produces.
    fn agg_chain(sizes: &[u64]) -> Vec<AggReceipt> {
        let mut start = 1u64;
        let mut out = Vec::new();
        for (i, &raw) in sizes.iter().enumerate() {
            let n = raw % 50 + 1;
            let last = start + n - 1;
            let next_first = last + 1;
            // Window spans the cut region, including the next opener
            // (empty for the final aggregate).
            let trans: Vec<u64> = if i + 1 < sizes.len() {
                vec![last, next_first]
            } else {
                Vec::new()
            };
            out.push(agg(start, last, n, &trans));
            start = next_first;
        }
        out
    }

    proptest! {
        /// Sample-receipt ⊎ is commutative: the union does not depend
        /// on the order receipts are combined in.
        #[test]
        fn samples_combine_commutatively(
            ids_a in proptest::collection::vec(any::<u64>(), 0..40),
            ids_b in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let mk = |ids: &[u64]| SampleReceipt {
                path: path(),
                samples: ids.iter().map(|&i| srec(i, i % 1000)).collect(),
            };
            let (a, b) = (mk(&ids_a), mk(&ids_b));
            let ab = combine_samples(&[a.clone(), b.clone()]).unwrap();
            let ba = combine_samples(&[b, a]).unwrap();
            let set = |r: &SampleReceipt| {
                r.samples.iter().copied().collect::<std::collections::HashSet<_>>()
            };
            prop_assert_eq!(set(&ab), set(&ba));
            prop_assert_eq!(ab.samples.len(), ba.samples.len(), "both dedup alike");
        }

        /// Sample-receipt ⊎ is associative: (a ⊎ b) ⊎ c = a ⊎ (b ⊎ c),
        /// and both equal the one-shot combination.
        #[test]
        fn samples_combine_associatively(
            ids_a in proptest::collection::vec(any::<u64>(), 0..30),
            ids_b in proptest::collection::vec(any::<u64>(), 0..30),
            ids_c in proptest::collection::vec(any::<u64>(), 0..30),
        ) {
            let mk = |ids: &[u64]| SampleReceipt {
                path: path(),
                samples: ids.iter().map(|&i| srec(i, i % 1000)).collect(),
            };
            let (a, b, c) = (mk(&ids_a), mk(&ids_b), mk(&ids_c));
            let left = combine_samples(&[
                combine_samples(&[a.clone(), b.clone()]).unwrap(),
                c.clone(),
            ])
            .unwrap();
            let right = combine_samples(&[
                a.clone(),
                combine_samples(&[b.clone(), c.clone()]).unwrap(),
            ])
            .unwrap();
            let flat = combine_samples(&[a, b, c]).unwrap();
            prop_assert_eq!(left.clone(), right);
            prop_assert_eq!(left, flat);
        }

        /// Aggregate-receipt ⊎ is associative over any consecutive
        /// chain: grouping does not change the combined receipt.
        /// (Commutativity does not apply: aggregates are consecutive by
        /// definition, so only one order is meaningful.)
        #[test]
        fn aggregates_combine_associatively(
            sizes in proptest::collection::vec(any::<u64>(), 3..12),
            split in any::<u64>(),
        ) {
            let chain = agg_chain(&sizes);
            let k = (split as usize % (chain.len() - 1)) + 1;
            let left = combine_aggregates(&[
                combine_aggregates(&chain[..k]).unwrap(),
                combine_aggregates(&chain[k..]).unwrap(),
            ])
            .unwrap();
            let flat = combine_aggregates(&chain).unwrap();
            prop_assert_eq!(left, flat.clone());
            prop_assert_eq!(flat.pkt_cnt, chain.iter().map(|r| r.pkt_cnt).sum::<u64>());
        }
    }
}
