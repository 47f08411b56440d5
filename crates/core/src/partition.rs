//! The partition algebra of §6.1.
//!
//! A *partition* of a packet set `S` is a set of non-overlapping
//! aggregates whose union equals `S`; we represent partitions of
//! *sequences*, which is what HOPs actually produce. `A1 ≥ A2`
//! ("`A1` is coarser than `A2`") when each aggregate of `A1` is a
//! union of aggregates of `A2`. The *join* of partitions is the finest
//! partition coarser than all of them — the finest granularity at
//! which receipts from differently-tuned HOPs can be compared.
//!
//! The paper's Table 1 appears verbatim in the tests below.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A partition of a sequence into consecutive non-empty aggregates.
///
/// ```
/// use vpm_core::Partition;
///
/// // Paper Table 1: S = {p1..p4}.
/// let a2 = Partition::new(vec![vec![1, 2], vec![3, 4]]).unwrap();
/// let a3 = Partition::new(vec![vec![1], vec![2, 3], vec![4]]).unwrap();
/// let a4 = Partition::new(vec![vec![1, 2, 3, 4]]).unwrap();
/// assert_eq!(a2.join(&a3).unwrap(), a4); // Join(A2, A3) = A4
/// assert!(a4.is_coarser_than(&a2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition<T> {
    aggs: Vec<Vec<T>>,
}

/// Errors constructing partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// An aggregate was empty.
    EmptyAggregate,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::EmptyAggregate => write!(f, "partition contains an empty aggregate"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl<T: Eq + Clone> Partition<T> {
    /// Build a partition from explicit aggregates. Every aggregate must
    /// be non-empty.
    pub fn new(aggs: Vec<Vec<T>>) -> Result<Self, PartitionError> {
        if aggs.iter().any(|a| a.is_empty()) {
            return Err(PartitionError::EmptyAggregate);
        }
        Ok(Partition { aggs })
    }

    /// Partition a sequence by a cutting predicate: an item starting
    /// the sequence, or satisfying `is_cut`, begins a new aggregate —
    /// exactly Algorithm 2's behaviour.
    pub fn from_cuts(items: &[T], mut is_cut: impl FnMut(&T) -> bool) -> Self {
        let mut aggs: Vec<Vec<T>> = Vec::new();
        for item in items {
            match aggs.last_mut() {
                Some(last) if !is_cut(item) => last.push(item.clone()),
                _ => aggs.push(vec![item.clone()]),
            }
        }
        Partition { aggs }
    }

    /// The aggregates.
    pub fn aggregates(&self) -> &[Vec<T>] {
        &self.aggs
    }

    /// Number of aggregates.
    pub fn len(&self) -> usize {
        self.aggs.len()
    }

    /// Is the partition empty (no aggregates)?
    pub fn is_empty(&self) -> bool {
        self.aggs.is_empty()
    }

    /// The underlying sequence, flattened.
    pub fn items(&self) -> Vec<T> {
        self.aggs.iter().flatten().cloned().collect()
    }

    /// Cutting points: the first item of each aggregate.
    #[expect(
        clippy::indexing_slicing,
        reason = "every aggregate is created with at least one item"
    )]
    pub fn cutting_points(&self) -> Vec<&T> {
        self.aggs.iter().map(|a| &a[0]).collect()
    }

    /// Start indices of the aggregates within the flattened sequence.
    fn boundaries(&self) -> BTreeSet<usize> {
        let mut b = BTreeSet::new();
        let mut idx = 0;
        for a in &self.aggs {
            b.insert(idx);
            idx += a.len();
        }
        b
    }

    /// `self ≥ other`: is `self` coarser than (or equal to) `other`?
    ///
    /// Requires both to partition the same sequence; returns `false`
    /// otherwise (the relation is only defined on a common packet set).
    pub fn is_coarser_than(&self, other: &Partition<T>) -> bool {
        if self.items() != other.items() {
            return false;
        }
        // Coarser ⟺ every boundary of self is a boundary of other.
        self.boundaries().is_subset(&other.boundaries())
    }

    /// `Join(self, other)`: the finest partition coarser than both.
    ///
    /// Returns `None` when the two do not partition the same sequence.
    pub fn join(&self, other: &Partition<T>) -> Option<Partition<T>> {
        let items = self.items();
        if items != other.items() {
            return None;
        }
        let common: Vec<usize> = self
            .boundaries()
            .intersection(&other.boundaries())
            .copied()
            .collect();
        let mut aggs = Vec::with_capacity(common.len());
        for (k, &start) in common.iter().enumerate() {
            let end = common.get(k + 1).copied().unwrap_or(items.len());
            #[expect(
                clippy::indexing_slicing,
                reason = "start and end come from in-range cut positions"
            )]
            aggs.push(items[start..end].to_vec());
        }
        Some(Partition { aggs })
    }

    /// Join of many partitions of the same sequence.
    pub fn join_all(parts: &[Partition<T>]) -> Option<Partition<T>> {
        let (first, rest) = parts.split_first()?;
        let mut acc = first.clone();
        for p in rest {
            acc = acc.join(p)?;
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(aggs: &[&[u8]]) -> Partition<u8> {
        Partition::new(aggs.iter().map(|a| a.to_vec()).collect()).unwrap()
    }

    // ---- Table 1 of the paper, as executable assertions ----
    // S = {p1, p2, p3, p4} represented as 1..=4.
    fn a1() -> Partition<u8> {
        p(&[&[1], &[2], &[3], &[4]])
    }
    fn a2() -> Partition<u8> {
        p(&[&[1, 2], &[3, 4]])
    }
    fn a3() -> Partition<u8> {
        p(&[&[1], &[2, 3], &[4]])
    }
    fn a3p() -> Partition<u8> {
        p(&[&[1], &[2], &[3, 4]])
    }
    fn a4() -> Partition<u8> {
        p(&[&[1, 2, 3, 4]])
    }

    #[test]
    fn paper_table1_coarser_relations() {
        assert!(a2().is_coarser_than(&a1()));
        assert!(a3().is_coarser_than(&a1()));
        assert!(a4().is_coarser_than(&a2()));
        assert!(a4().is_coarser_than(&a3()));
        // Note: Table 1 prints "A′3 ≥ A2", but by the paper's own
        // definition it is A2 that is coarser than A′3 (each aggregate
        // of A2 is a union of A′3's); the accompanying text agrees
        // (Join(A2, A′3) = A2, which requires A2 ≥ A′3).
        assert!(a2().is_coarser_than(&a3p()));
        assert!(a3p().is_coarser_than(&a1()));
    }

    #[test]
    fn paper_table1_non_relations() {
        // "we cannot say that A2 ≥ A3 nor that A3 ≥ A2".
        assert!(!a2().is_coarser_than(&a3()));
        assert!(!a3().is_coarser_than(&a2()));
    }

    #[test]
    fn paper_table1_joins() {
        assert_eq!(a1().join(&a2()).unwrap(), a2()); // Join(A1,A2) = A2
        assert_eq!(a2().join(&a3()).unwrap(), a4()); // Join(A2,A3) = A4
        assert_eq!(a2().join(&a3p()).unwrap(), a2()); // Join(A2,A′3) = A2
    }

    // ---- general behaviour ----

    #[test]
    fn from_cuts_matches_algorithm2_semantics() {
        let items = [10u8, 3, 4, 12, 5, 13, 1];
        let part = Partition::from_cuts(&items, |&x| x >= 10);
        assert_eq!(
            part.aggregates(),
            &[vec![10, 3, 4], vec![12, 5], vec![13, 1]]
        );
        // First item starts an aggregate even if not a cut.
        let part2 = Partition::from_cuts(&[1u8, 2, 12, 3], |&x| x >= 10);
        assert_eq!(part2.aggregates(), &[vec![1, 2], vec![12, 3]]);
    }

    #[test]
    fn join_requires_same_sequence() {
        let x = p(&[&[1, 2]]);
        let y = p(&[&[1], &[3]]);
        assert!(x.join(&y).is_none());
        assert!(!x.is_coarser_than(&y));
    }

    #[test]
    fn rejects_empty_aggregate() {
        assert_eq!(
            Partition::new(vec![vec![1u8], vec![]]),
            Err(PartitionError::EmptyAggregate)
        );
    }

    #[test]
    fn join_all_chains() {
        let j = Partition::join_all(&[a1(), a2(), a3p()]).unwrap();
        assert_eq!(j, a2());
        let j2 = Partition::join_all(&[a1(), a2(), a3()]).unwrap();
        assert_eq!(j2, a4());
        assert!(Partition::<u8>::join_all(&[]).is_none());
    }

    #[test]
    fn cutting_points_are_first_items() {
        assert_eq!(a3().cutting_points(), vec![&1, &2, &4]);
    }

    proptest! {
        /// The join is coarser than both operands and is the *finest*
        /// such partition (its boundaries are exactly the common ones).
        #[test]
        fn join_is_least_upper_bound(
            items in proptest::collection::vec(any::<u16>(), 1..60),
            cuts_a in proptest::collection::vec(any::<bool>(), 60),
            cuts_b in proptest::collection::vec(any::<bool>(), 60),
        ) {
            let a = Partition::from_cuts(&items, {
                let mut i = 0;
                move |_| { let c = cuts_a[i]; i += 1; c }
            });
            let b = Partition::from_cuts(&items, {
                let mut i = 0;
                move |_| { let c = cuts_b[i]; i += 1; c }
            });
            let j = a.join(&b).unwrap();
            prop_assert!(j.is_coarser_than(&a));
            prop_assert!(j.is_coarser_than(&b));
            // Finest: every boundary common to a and b survives in j.
            prop_assert_eq!(
                j.boundaries(),
                a.boundaries().intersection(&b.boundaries()).copied().collect::<BTreeSet<_>>()
            );
        }

        /// Threshold-style cuts (Algorithm 2) always produce nested
        /// partitions: the higher threshold's is coarser.
        #[test]
        fn threshold_cuts_always_nest(
            items in proptest::collection::vec(any::<u32>(), 1..80),
            t1 in any::<u32>(),
            t2 in any::<u32>(),
        ) {
            let (hi, lo) = if t1 >= t2 { (t1, t2) } else { (t2, t1) };
            let coarse = Partition::from_cuts(&items, |&x| x > hi);
            let fine = Partition::from_cuts(&items, |&x| x > lo);
            prop_assert!(coarse.is_coarser_than(&fine));
            prop_assert_eq!(coarse.join(&fine).unwrap(), coarse);
        }

        /// Joining with itself or with the trivial partition is identity.
        #[test]
        fn join_identities(items in proptest::collection::vec(any::<u8>(), 1..40)) {
            let part = Partition::from_cuts(&items, |&x| x % 3 == 0);
            prop_assert_eq!(part.join(&part).unwrap(), part.clone());
            let trivial = Partition::new(vec![items.clone()]).unwrap();
            prop_assert_eq!(part.join(&trivial).unwrap(), trivial);
        }
    }
}
