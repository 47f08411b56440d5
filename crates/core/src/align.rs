//! AggTrans-based receipt re-alignment under bounded reordering
//! (paper §6.3).
//!
//! When reordering pushes a packet across an aggregate boundary between
//! two HOPs, their packet counts for the adjacent aggregates disagree
//! even though no packet was lost. Each receipt's `AggTrans` window —
//! the packet ids observed within `J` of the cut — lets a verifier
//! reconstruct *which side of the boundary* each near-boundary packet
//! was counted on at each HOP, and migrate counts so the downstream
//! receipts correspond to the upstream packet assignment.
//!
//! Paper example: HOP 1 observes `⟨… p3 p4 | p5 p6 …⟩` (cut at `p5`),
//! HOP 4 observes `⟨… p3 | p5 p4 p6 …⟩`. `p4` sits before the cut
//! upstream but after it downstream, so the verifier migrates `p4` from
//! HOP 4's later aggregate to its earlier one.

use serde::{Deserialize, Serialize};
use vpm_hash::Digest;

/// Net migration to apply to a downstream aggregate pair at one
/// boundary so it matches the upstream packet assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Migration {
    /// Packets the downstream HOP counted *after* the boundary that the
    /// upstream HOP counted *before* it (move down-count: later →
    /// earlier).
    pub to_earlier: u64,
    /// Packets the downstream HOP counted *before* the boundary that
    /// the upstream HOP counted *after* it (move: earlier → later).
    pub to_later: u64,
}

impl Migration {
    /// Net adjustment to the aggregate *ending* at this boundary, from
    /// the downstream HOP's perspective: positive means its count for
    /// the earlier aggregate should increase.
    pub fn net_to_earlier(&self) -> i64 {
        self.to_earlier as i64 - self.to_later as i64
    }
}

/// Compute the migration for one boundary from the `AggTrans` windows
/// of the two receipts that closed at it.
///
/// `boundary` is the digest of the cutting packet (the first packet of
/// the following aggregate). Returns `None` when either window does not
/// contain the boundary — the verifier then cannot re-align this
/// boundary and must fall back to a coarser join.
///
/// Each window is split at the boundary's first occurrence. Every
/// upstream entry (a digest listed twice counts twice) that the
/// downstream window holds on the other side of the boundary is one
/// migrated packet; the boundary packet itself never migrates. The two
/// downstream sides are sorted once and searched, so a boundary costs
/// `O(w log w)` for `w`-digest windows.
pub fn window_migration(
    up_window: &[Digest],
    down_window: &[Digest],
    boundary: Digest,
) -> Option<Migration> {
    let is_boundary = |d: &Digest| *d == boundary;
    let (up_before, up_after) = up_window.split_at(up_window.iter().position(is_boundary)?);
    let mut down = down_window.to_vec();
    let (down_before, down_after) = down.split_at_mut(down_window.iter().position(is_boundary)?);
    down_before.sort_unstable();
    down_after.sort_unstable();
    let crossed = |side: &[Digest], d: &Digest| !is_boundary(d) && side.binary_search(d).is_ok();
    Some(Migration {
        // downstream put it after; upstream before
        to_earlier: up_before.iter().filter(|d| crossed(down_after, d)).count() as u64,
        to_later: up_after.iter().filter(|d| crossed(down_before, d)).count() as u64,
    })
}

/// The nested-scan `window_migration` this module shipped before the
/// sort-and-search one: quadratic in the window, and the specification
/// the differential tests here and in `verify` hold the new one to.
#[cfg(test)]
pub(crate) fn window_migration_reference(
    up_window: &[Digest],
    down_window: &[Digest],
    boundary: Digest,
) -> Option<Migration> {
    fn split_at_boundary(window: &[Digest], boundary: Digest) -> Option<(&[Digest], &[Digest])> {
        let pos = window.iter().position(|&d| d == boundary)?;
        Some((&window[..pos], &window[pos..]))
    }
    let (up_before, up_after) = split_at_boundary(up_window, boundary)?;
    let (down_before, down_after) = split_at_boundary(down_window, boundary)?;

    let mut m = Migration::default();
    for &d in up_before {
        if d == boundary {
            continue;
        }
        if down_after.contains(&d) {
            m.to_earlier += 1;
        }
    }
    for &d in up_after.iter().skip(1) {
        if down_before.contains(&d) {
            m.to_later += 1;
        }
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(xs: &[u64]) -> Vec<Digest> {
        xs.iter().map(|&x| Digest(x)).collect()
    }

    proptest::proptest! {
        /// Digests from a 12-value space: windows repeat digests, and
        /// the boundary is absent, repeated, first or last about as
        /// often as it is ordinary.
        #[test]
        fn migration_equals_the_nested_scan(
            up in proptest::collection::vec(0u64..12, 0..40),
            down in proptest::collection::vec(0u64..12, 0..40),
            boundary in 0u64..12
        ) {
            let (up, down) = (d(&up), d(&down));
            proptest::prop_assert_eq!(
                window_migration(&up, &down, Digest(boundary)),
                window_migration_reference(&up, &down, Digest(boundary))
            );
        }
    }

    #[test]
    fn duplicates_count_once_per_upstream_occurrence() {
        // 3 sits before the cut twice upstream and after it (twice)
        // downstream: two upstream entries crossed, not one, not four.
        let m = window_migration(&d(&[3, 3, 5, 6]), &d(&[5, 3, 3, 6]), Digest(5)).unwrap();
        assert_eq!((m.to_earlier, m.to_later), (2, 0));
        // A window repeating its boundary splits at the first one, and
        // the repeats never migrate.
        let m = window_migration(&d(&[4, 5, 6, 5]), &d(&[6, 5, 5, 4]), Digest(5)).unwrap();
        assert_eq!((m.to_earlier, m.to_later), (1, 1));
        // Boundary first upstream and last downstream.
        let m = window_migration(&d(&[5, 1, 2]), &d(&[1, 2, 5]), Digest(5)).unwrap();
        assert_eq!((m.to_earlier, m.to_later), (0, 2));
    }

    #[test]
    fn paper_example_p4_migrates_to_earlier() {
        // HOP 1: ⟨p3, p4, p5, p6⟩ window, cut at p5.
        // HOP 4: ⟨p2, p3, p5, p4⟩ window (p4 reordered past p5).
        let up = d(&[3, 4, 5, 6]);
        let down = d(&[2, 3, 5, 4]);
        let m = window_migration(&up, &down, Digest(5)).unwrap();
        assert_eq!(m.to_earlier, 1, "p4 must migrate to the earlier aggregate");
        assert_eq!(m.to_later, 0);
        assert_eq!(m.net_to_earlier(), 1);
    }

    #[test]
    fn aligned_windows_need_no_migration() {
        let up = d(&[1, 2, 5, 6, 7]);
        let down = d(&[1, 2, 5, 6, 7]);
        let m = window_migration(&up, &down, Digest(5)).unwrap();
        assert_eq!(m, Migration::default());
    }

    #[test]
    fn migration_in_both_directions() {
        // Upstream: 4 before cut, 6 after. Downstream: 6 before, 4 after.
        let up = d(&[3, 4, 5, 6, 7]);
        let down = d(&[3, 6, 5, 4, 7]);
        let m = window_migration(&up, &down, Digest(5)).unwrap();
        assert_eq!(m.to_earlier, 1); // 4
        assert_eq!(m.to_later, 1); // 6
        assert_eq!(m.net_to_earlier(), 0);
    }

    #[test]
    fn missing_boundary_means_no_alignment() {
        let up = d(&[1, 2, 3]);
        let down = d(&[1, 2, 3]);
        assert!(window_migration(&up, &down, Digest(9)).is_none());
    }

    #[test]
    fn packets_absent_from_other_window_are_ignored() {
        // A lost packet (present upstream, absent downstream) is a loss
        // matter, not a reordering matter — no migration for it.
        let up = d(&[3, 4, 5, 6]);
        let down = d(&[3, 5, 6]); // p4 lost
        let m = window_migration(&up, &down, Digest(5)).unwrap();
        assert_eq!(m, Migration::default());
    }

    #[test]
    fn boundary_itself_never_migrates() {
        // The boundary packet starts the later aggregate at both HOPs
        // by definition; it must not be counted as a migration even if
        // other packets shuffle around it.
        let up = d(&[4, 5, 6]);
        let down = d(&[4, 5, 6]);
        let m = window_migration(&up, &down, Digest(5)).unwrap();
        assert_eq!(m, Migration::default());
    }
}
