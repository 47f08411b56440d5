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

use vpm_hash::Digest;

use crate::digest_table::DigestTable;

/// Net migration to apply to a downstream aggregate pair at one
/// boundary so it matches the upstream packet assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Migration {
    /// Packets the downstream HOP counted *after* the boundary that the
    /// upstream HOP counted *before* it (move down-count: later →
    /// earlier).
    pub(crate) to_earlier: u64,
    /// Packets the downstream HOP counted *before* the boundary that
    /// the upstream HOP counted *after* it (move: earlier → later).
    pub(crate) to_later: u64,
}

impl Migration {
    /// Net adjustment to the aggregate *ending* at this boundary, from
    /// the downstream HOP's perspective: positive means its count for
    /// the earlier aggregate should increase.
    pub(crate) fn net_to_earlier(&self) -> i64 {
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
/// migrated packet; the boundary packet itself never migrates. The
/// downstream window goes into a keyed hash table and each upstream
/// entry probes it once, so a boundary costs `O(w)` for `w`-digest
/// windows. This one-shot form serves the tests: the verifier calls
/// [`WindowTable::migration`] on one table per thread, with the
/// [`CutState`]s it has learned, so a path loads a window identical to
/// its neighbour's once, not once per pair of HOPs.
#[cfg(test)]
pub(crate) fn window_migration(
    up_window: &[Digest],
    down_window: &[Digest],
    boundary: Digest,
) -> Option<Migration> {
    WindowTable::new().migration(
        up_window,
        down_window,
        boundary,
        &mut [CutState::Unknown; 2],
    )
}

/// A downstream entry sits before the boundary's first occurrence...
const BEFORE: u8 = 1;
/// ...or at or after it.
const AFTER: u8 = 2;

/// What a receipt's `AggTrans` window holds of the cut it was recorded
/// at (the next receipt's first packet). It depends on that window and
/// that cut alone, so a verifier learns it once per receipt and a
/// window byte-identical to a neighbour's shares the neighbour's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum CutState {
    /// Not learned yet.
    #[default]
    Unknown,
    /// The window lacks the cut.
    Absent,
    /// The window holds the cut, and no digest on both sides of it.
    Clean,
    /// The window holds the cut, and some digest on both sides of it.
    Straddles,
}

/// One downstream window as a [`DigestTable`]: each distinct digest
/// with the sides of the boundary the window holds it on ([`BEFORE`]
/// and/or [`AFTER`]). One table serves boundary after boundary.
#[derive(Debug)]
pub(crate) struct WindowTable {
    sides: DigestTable<u8>,
    /// Windows loaded since construction: what the verifier's memo of
    /// [`CutState`]s saves.
    #[cfg(test)]
    pub(crate) loads: u64,
}

impl WindowTable {
    pub(crate) fn new() -> Self {
        WindowTable {
            sides: DigestTable::with_len(0),
            #[cfg(test)]
            loads: 0,
        }
    }

    /// [`window_migration`] on this table, given what `memo` knows of
    /// the upstream and the downstream window's [`CutState`] at
    /// `boundary`, and writing back what it learns.
    ///
    /// Identical windows hold the cut the same way, so the downstream
    /// window inherits the upstream one's state. A window known to lack
    /// the cut answers `None`, and identical clean windows no migration,
    /// both without loading the downstream window. Any other answer
    /// loads it, which learns its state; the probe learns whether the
    /// upstream window lacks the cut.
    pub(crate) fn migration(
        &mut self,
        up_window: &[Digest],
        down_window: &[Digest],
        boundary: Digest,
        memo: &mut [CutState; 2],
    ) -> Option<Migration> {
        let same = up_window == down_window;
        let [up, down] = memo;
        if same && *down == CutState::Unknown {
            *down = *up;
        }
        // In identical windows every entry sits on the same side of the
        // split in both, so none migrates unless some digest sits on
        // both sides. Two honest HOPs with no reordering or loss near
        // the cut report identical windows, so most boundaries end here,
        // and, once one pair has learned the state, without a load.
        let settled = |up: CutState, down: CutState| match (up, down) {
            (CutState::Absent, _) | (_, CutState::Absent) => Some(None),
            (_, CutState::Clean) if same => Some(Some(Migration::default())),
            _ => None,
        };
        if let Some(answer) = settled(*up, *down) {
            return answer;
        }
        *down = self.load(down_window, boundary);
        if let Some(answer) = settled(*up, *down) {
            return answer;
        }
        let (mut m, mut after) = (Migration::default(), false);
        for &d in up_window {
            if d == boundary {
                // Only the first occurrence splits; none migrates.
                after = true;
            } else if after {
                // downstream put it before; upstream after
                m.to_later += u64::from(self.sides(d) & BEFORE != 0);
            } else {
                // downstream put it after; upstream before
                m.to_earlier += u64::from(self.sides(d) & AFTER != 0);
            }
        }
        if !after {
            *up = CutState::Absent;
        }
        after.then_some(m)
    }

    /// Refill the table with `window` and say how it holds `boundary`.
    /// The boundary lands on the [`AFTER`] side only, so no upstream
    /// entry after the split can match it.
    fn load(&mut self, window: &[Digest], boundary: Digest) -> CutState {
        #[cfg(test)]
        {
            self.loads += 1;
        }
        self.sides.clear_for(window.len());
        let (mut side, mut straddles) = (BEFORE, false);
        for &d in window {
            if d == boundary {
                side = AFTER;
            }
            if let Some(sides) = self.sides.entry(d) {
                *sides |= side;
                straddles |= *sides == BEFORE | AFTER;
            }
        }
        match (side == AFTER, straddles) {
            (false, _) => CutState::Absent,
            (true, false) => CutState::Clean,
            (true, true) => CutState::Straddles,
        }
    }

    /// The sides `d` was seen on; 0 when the window lacks it.
    fn sides(&self, d: Digest) -> u8 {
        self.sides.get(d).copied().unwrap_or(0)
    }
}

/// `window_migration` as a nested scan: quadratic in the window, and
/// the one specification the differential tests here and in `verify`
/// hold the table to.
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
        /// Windows of up to 700 digests from a space of 1 to 1,024
        /// values, shifted left by 0 to 47 bits: windows repeat
        /// digests, the boundary is present, absent, repeated, first or
        /// last,
        /// tables grow well past their minimum, and digests differ only
        /// in high bits. One table serves each case three times, a
        /// window, a shorter one and the upstream window against itself,
        /// so a slot left over from a longer window must not leak into
        /// the next.
        #[test]
        fn migration_equals_the_nested_scan(
            up in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..700),
            down in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..700),
            boundary in proptest::prelude::any::<u64>(),
            space in 1u64..=1024,
            shift in 0u32..48
        ) {
            let digest = |x: u64| Digest((x % space) << shift);
            let up: Vec<Digest> = up.into_iter().map(digest).collect();
            let mut down: Vec<Digest> = down.into_iter().map(digest).collect();
            // Mostly one of the upstream digests, and in half the cases
            // spliced into the downstream window as well.
            let pick = (boundary % (up.len() as u64 + 2)) as usize;
            let cut_digest = up.get(pick).copied().unwrap_or(digest(boundary));
            if boundary >> 63 == 0 {
                down.insert((boundary >> 32) as usize % (down.len() + 1), cut_digest);
            }
            let boundary = cut_digest;
            let mut table = WindowTable::new();
            let fresh = || [CutState::Unknown; 2];
            for cut in [1, 5] {
                let (up, down) = (&up[..up.len() / cut], &down[..down.len() / cut]);
                proptest::prop_assert_eq!(
                    table.migration(up, down, boundary, &mut fresh()),
                    window_migration_reference(up, down, boundary)
                );
            }
            // And identical windows, with and without a digest on both
            // sides of the cut: once learning their state, and once
            // from it, with another window loaded in between.
            let same = window_migration_reference(&up, &up, boundary);
            let mut memo = fresh();
            proptest::prop_assert_eq!(table.migration(&up, &up, boundary, &mut memo), same);
            table.migration(&down, &down, boundary, &mut fresh());
            proptest::prop_assert_eq!(table.migration(&up, &up, boundary, &mut memo), same);
            // The downstream window's learned state serves a later pair
            // whose upstream window is unknown.
            let mut memo = fresh();
            table.migration(&up, &down, boundary, &mut memo);
            table.migration(&up, &up, boundary, &mut fresh());
            proptest::prop_assert_eq!(
                table.migration(&up, &down, boundary, &mut [CutState::Unknown, memo[1]]),
                window_migration_reference(&up, &down, boundary)
            );
        }
    }

    #[test]
    fn a_stamp_wrap_forgets_the_previous_window() {
        // 3 sits after the cut in the first downstream window only; a
        // table that survived the wrap with stale slots would still
        // count it.
        let mut table = WindowTable::new();
        let fresh = || [CutState::Unknown; 2];
        let first = table.migration(&d(&[3, 5]), &d(&[5, 3]), Digest(5), &mut fresh());
        assert_eq!(first.map(|m| m.to_earlier), Some(1));
        table.sides.stamp = u32::MAX;
        let (up, down) = (d(&[3, 5]), d(&[5, 6]));
        assert_eq!(
            table.migration(&up, &down, Digest(5), &mut fresh()),
            window_migration_reference(&up, &down, Digest(5))
        );
        assert_eq!(table.sides.stamp, 1);
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
    fn identical_windows_migrate_only_digests_on_both_sides() {
        let same = |xs: &[u64]| window_migration(&d(xs), &d(xs), Digest(5)).unwrap();
        assert_eq!(same(&[3, 4, 5, 6]), Migration::default());
        // 3 sits before and after the cut in both windows: each
        // occurrence crosses, and the net is the difference.
        let m = same(&[3, 3, 5, 3]);
        assert_eq!((m.to_earlier, m.to_later, m.net_to_earlier()), (2, 1, 1));
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
