//! Packet digests.
//!
//! A digest is the 64-bit fingerprint a HOP computes over the invariant
//! portion of a packet (IP + transport headers; see
//! `vpm-packet::Packet::digest`). Every VPM decision — marker election,
//! delay sampling, aggregate cutting — is driven by digests, so the
//! digest must be (a) identical at every HOP that observes the packet
//! and (b) close to uniformly distributed over `u64` for threshold
//! arithmetic to translate into predictable rates.

use crate::lookup3;
use serde::{Deserialize, Serialize};

/// Seed for packet digests. All HOPs must use the same seed for the same
/// traffic, otherwise their receipts cannot be matched; VPM fixes it at
/// design time, like the marker threshold `µ` (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigestSeed(pub u64);

/// The system-wide default digest seed.
pub const DEFAULT_DIGEST_SEED: DigestSeed = DigestSeed(0x5650_4d32_3031_3000); // "VPM2010\0"

/// A 64-bit packet digest (`PktID` in receipt terminology).
///
/// Ordering and equality are plain integer semantics; `Digest` is used
/// directly as the `PktID` field of sample records and aggregate
/// identifiers.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Digest(pub u64);

impl Digest {
    /// Map the digest to a float in `[0, 1)`, for diagnostics and tests.
    #[inline]
    pub fn as_unit_f64(self) -> f64 {
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Digest a byte string with the given seed.
#[inline]
pub fn digest_bytes(bytes: &[u8], seed: DigestSeed) -> Digest {
    Digest(lookup3::hash64(bytes, seed.0))
}

/// Digest a word slice with the given seed.
///
/// lookup3 guarantees that on little-endian byte order `hashword2` over
/// `n` words equals `hashlittle2` over the same `4n` bytes, so for
/// word-aligned digest inputs (little-endian word decoding) this is
/// exactly [`digest_bytes`] — but ~3× cheaper, since the word path
/// skips all per-byte assembly.
#[inline]
pub fn digest_words(words: &[u32], seed: DigestSeed) -> Digest {
    Digest(lookup3::hash64_words(words, seed.0))
}

/// Digest a batch of fixed-width word blocks (one digest per block)
/// into `out`, which is **cleared first**: after the call,
/// `out[i] == digest_words(&blocks[i], seed)` and
/// `out.len() == blocks.len()`, regardless of what the (reusable)
/// scratch Vec held before.
///
/// This is the slice-digesting path of batched collectors: one
/// [`digest_words`] call per block.
pub fn digest_batch<const W: usize>(blocks: &[[u32; W]], seed: DigestSeed, out: &mut Vec<Digest>) {
    out.clear();
    out.extend(blocks.iter().map(|block| digest_words(block, seed)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic() {
        let d1 = digest_bytes(b"packet header bytes", DEFAULT_DIGEST_SEED);
        let d2 = digest_bytes(b"packet header bytes", DEFAULT_DIGEST_SEED);
        assert_eq!(d1, d2);
    }

    #[test]
    fn seed_sensitivity() {
        let a = digest_bytes(b"packet", DigestSeed(1));
        let b = digest_bytes(b"packet", DigestSeed(2));
        assert_ne!(a, b);
    }

    #[test]
    fn unit_mapping_in_range() {
        for x in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            let u = Digest(x).as_unit_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn rough_uniformity_of_unit_mapping() {
        // Mean of mapped digests over distinct inputs should be ~0.5.
        let n = 20_000u64;
        let mut acc = 0.0;
        for i in 0..n {
            acc += digest_bytes(&i.to_le_bytes(), DEFAULT_DIGEST_SEED).as_unit_f64();
        }
        let mean = acc / n as f64;
        assert!((0.48..0.52).contains(&mean), "mean {mean}");
    }

    #[test]
    fn digest_batch_matches_per_element() {
        let blocks: Vec<[u32; 6]> = (0..100u32)
            .map(|i| [i, i ^ 7, i.wrapping_mul(13), 0, u32::MAX - i, i << 8])
            .collect();
        let mut out = Vec::new();
        digest_batch(&blocks, DEFAULT_DIGEST_SEED, &mut out);
        assert_eq!(out.len(), blocks.len());
        for (block, d) in blocks.iter().zip(&out) {
            assert_eq!(*d, digest_words(block, DEFAULT_DIGEST_SEED));
        }
    }

    /// Pin the clear-and-fill contract: a reused, dirty scratch Vec
    /// holds exactly the new batch afterwards — no stale digests ahead
    /// of (or behind) the fresh ones.
    #[test]
    fn digest_batch_clears_a_dirty_scratch_buffer() {
        let stale: Vec<[u32; 4]> = (0..10u32).map(|i| [i, i, i, i]).collect();
        let fresh: Vec<[u32; 4]> = (0..3u32).map(|i| [i ^ 9, 0, 1, 2]).collect();
        let mut out = Vec::new();
        digest_batch(&stale, DEFAULT_DIGEST_SEED, &mut out);
        assert_eq!(out.len(), 10);
        digest_batch(&fresh, DEFAULT_DIGEST_SEED, &mut out);
        assert_eq!(out.len(), fresh.len(), "stale digests must not survive");
        for (block, d) in fresh.iter().zip(&out) {
            assert_eq!(*d, digest_words(block, DEFAULT_DIGEST_SEED));
        }
    }

    proptest! {
        /// `digest_batch` is `digest_words` block by block, over
        /// lengths 0..=257 at the collector's digest width W=6.
        #[test]
        fn digest_batch_equals_digest_words_per_block(
            words in proptest::collection::vec(any::<u32>(), 0..=257 * 6),
            seed in any::<u64>(),
        ) {
            let s = DigestSeed(seed);
            let blocks: Vec<[u32; 6]> = words
                .chunks_exact(6)
                .map(|c| [c[0], c[1], c[2], c[3], c[4], c[5]])
                .collect();
            let mut out = Vec::new();
            digest_batch(&blocks, s, &mut out);
            let expected: Vec<Digest> = blocks.iter().map(|b| digest_words(b, s)).collect();
            prop_assert_eq!(out, expected);
        }

        /// The word path must agree with the byte path on word-aligned
        /// input: this is what lets the batched collector digest
        /// pre-assembled word blocks while per-packet code hashes bytes.
        #[test]
        fn digest_words_matches_digest_bytes(words in proptest::collection::vec(any::<u32>(), 0..32), seed in any::<u64>()) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let s = DigestSeed(seed);
            prop_assert_eq!(digest_words(&words, s), digest_bytes(&bytes, s));
        }

        #[test]
        fn digest_is_pure(bytes in proptest::collection::vec(any::<u8>(), 0..128), seed in any::<u64>()) {
            let s = DigestSeed(seed);
            prop_assert_eq!(digest_bytes(&bytes, s), digest_bytes(&bytes, s));
        }

        #[test]
        fn distinct_suffix_bytes_change_digest(bytes in proptest::collection::vec(any::<u8>(), 1..64)) {
            let mut other = bytes.clone();
            let last = other.len() - 1;
            other[last] = other[last].wrapping_add(1);
            prop_assert_ne!(
                digest_bytes(&bytes, DEFAULT_DIGEST_SEED),
                digest_bytes(&other, DEFAULT_DIGEST_SEED)
            );
        }
    }
}
