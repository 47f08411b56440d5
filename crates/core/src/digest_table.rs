//! The verifier's one keyed table over digests: open addressing,
//! multiply-shift hashing under a per-process secret, linear probing.
//!
//! Every digest the verifier indexes — sample `PktID`s
//! (`verify::match_samples`), aggregate cut points
//! (`verify::join_aggregates`) and `AggTrans` windows
//! (`align::WindowTable`) — is a peer's, who may lie. Without the
//! secret it cannot pick digests that pile into one probe run.
//!
//! Each thread's verifier keeps one table of each kind and refills it
//! for every sample match, join and window (`verify::Scratch`): a fill
//! takes a new stamp instead of zeroing, so once a table has grown to
//! the largest fill it is neither cleared nor reallocated.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use vpm_hash::Digest;

/// Slots per digest, rounded up to a power of two: a table at most an
/// eighth full keeps nearly every probe at its home slot.
const SPREAD: usize = 8;

/// The smallest table, in slots.
const MIN_SLOTS: usize = 16;

/// The multiplier every [`DigestTable`] hashes with: odd, drawn once per
/// process from the standard library's randomly keyed hasher.
fn process_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(0x5650_4d2d_414c_4e00_u64) | 1)
}

/// One slot; it belongs to the current fill only if it carries the
/// table's stamp, and is empty otherwise.
#[derive(Debug, Clone, Copy, Default)]
struct Slot<V> {
    digest: Digest,
    stamp: u32,
    value: V,
}

/// A map from digests to `V`, reused from one fill to the next: each
/// [`DigestTable::clear_for`] takes a new stamp instead of clearing,
/// and uses only the power-of-two prefix its length needs.
#[derive(Debug)]
pub(crate) struct DigestTable<V> {
    slots: Vec<Slot<V>>,
    /// The current fill's stamp (crate-visible so a test can force a
    /// wrap).
    pub(crate) stamp: u32,
    /// Live slots minus one (the probe wrap mask).
    mask: usize,
    /// `64 − log2(live slots)`: a product's top bits pick the home slot.
    shift: u32,
    key: u64,
}

impl<V: Copy + Default> DigestTable<V> {
    /// An empty table sized for up to `len` digests.
    pub(crate) fn with_len(len: usize) -> Self {
        let mut table = DigestTable {
            slots: Vec::new(),
            stamp: 0,
            mask: 0,
            shift: 0,
            key: process_key(),
        };
        table.clear_for(len);
        table
    }

    /// Empty the table and size it for up to `len` digests. Stamp 0
    /// marks never-used slots; a stamp wrap (after 2³² − 1 fills)
    /// clears the table once.
    pub(crate) fn clear_for(&mut self, len: usize) {
        let live = (SPREAD * len).next_power_of_two().max(MIN_SLOTS);
        if self.slots.len() < live {
            self.slots.resize(live, Slot::default());
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
        self.mask = live - 1;
        self.shift = 64 - live.trailing_zeros();
    }

    /// `d`'s value, if the table holds `d`.
    pub(crate) fn get(&self, d: Digest) -> Option<&V> {
        self.slots
            .get(self.find(d))
            .filter(|slot| slot.stamp == self.stamp)
            .map(|slot| &slot.value)
    }

    /// `d`'s value, if the table holds `d`, to update in place.
    pub(crate) fn get_mut(&mut self, d: Digest) -> Option<&mut V> {
        let (at, stamp) = (self.find(d), self.stamp);
        self.slots
            .get_mut(at)
            .filter(|slot| slot.stamp == stamp)
            .map(|slot| &mut slot.value)
    }

    /// `d`'s value, inserting `V::default()` first if the table lacks
    /// `d`. At most the `len` digests [`DigestTable::clear_for`] sized
    /// the table for may go in, so that it never fills; the result is
    /// then always `Some`.
    pub(crate) fn entry(&mut self, d: Digest) -> Option<&mut V> {
        let (at, stamp) = (self.find(d), self.stamp);
        let slot = self.slots.get_mut(at)?;
        if slot.stamp != stamp {
            *slot = Slot {
                digest: d,
                stamp,
                value: V::default(),
            };
        }
        Some(&mut slot.value)
    }

    /// The slot holding `d`, or the empty slot it would go in. The
    /// table is never full, so the probe ends.
    fn find(&self, d: Digest) -> usize {
        let mut at = (d.0.wrapping_mul(self.key) >> self.shift) as usize;
        while let Some(slot) = self.slots.get(at) {
            if slot.stamp != self.stamp || slot.digest == d {
                break;
            }
            at = (at + 1) & self.mask;
        }
        at
    }
}
