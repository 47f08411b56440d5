//! The x86_64 SHA-NI block-run kernel behind [`super::Sha256`].
//!
//! `sha256rnds2` performs two FIPS 180-4 rounds on a state split over
//! two vectors, `ABEF` and `CDGH` (named high lane first); `sha256msg1`
//! / `sha256msg2` extend the message schedule four words at a time.
//! The state is packed once, stays in those two registers across every
//! block of the run, and is unpacked once at the end. Round for round
//! this is the scalar kernel in the parent module, to which the tests
//! there pin it on arbitrary messages, the NIST and RFC 4231 vectors
//! and every padding boundary.
//!
//! The one module in `vpm-hash` allowed to use `unsafe` — for the
//! unaligned 16-byte message loads and for
//! the single call across the `#[target_feature]` boundary, which
//! [`kernel`] puts behind runtime detection (see the `SAFETY`
//! comments). The rest of the crate remains `deny(unsafe_code)`.
#![allow(unsafe_code)]

use super::{Kernel, K, SHA256_BLOCK_BYTES};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8,
};

/// The SHA-NI kernel, if the running CPU has every extension it is
/// compiled with. This is the only way to reach it.
pub(super) fn kernel() -> Option<Kernel> {
    let detected = std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse2")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    detected.then_some(compress_blocks_detected as Kernel)
}

/// [`compress_blocks`] as a plain `fn`, so it fits [`Kernel`].
fn compress_blocks_detected(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: the only precondition of calling a `#[target_feature]`
    // function is that the running CPU supports the features it
    // enables. This wrapper is private and its address leaves the
    // module only through `kernel()`, which hands it out only after
    // `is_x86_feature_detected!` confirmed all four of them, so every
    // call arrives here behind that detection.
    unsafe { compress_blocks(state, blocks) }
}

/// Sixteen message bytes as four big-endian words, word 0 in lane 0.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn load_be(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a reference to 16 readable bytes, and
    // `_mm_loadu_si128` has no alignment requirement.
    let le = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
    let bswap32 = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    _mm_shuffle_epi8(le, bswap32)
}

/// Round constants `K[4i..4i + 4]`, `K[4i]` in lane 0.
#[inline]
#[target_feature(enable = "sse2")]
fn k4(i: usize) -> __m128i {
    let k = &K[4 * i..4 * i + 4];
    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32)
}

/// Rounds `4i..4i + 4` over schedule words `w`.
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let wk = _mm_add_epi32($w, k4($i));
        // Two rounds turn (CDGH, ABEF) into the next ABEF and leave
        // the old ABEF as the next CDGH, so the registers swap roles
        // and swap back.
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }};
}

/// The four schedule words that follow the sixteen in `w0..w3`
/// (FIPS 180-4 §6.2.2 step 1: `msg1` adds σ0 of the word fifteen back
/// to the word sixteen back, the `alignr` term is the word seven back,
/// `msg2` adds σ1 of the word two back).
macro_rules! schedule {
    ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
        _mm_sha256msg2_epu32(
            _mm_add_epi32(
                _mm_sha256msg1_epu32($w0, $w1),
                _mm_alignr_epi8::<4>($w3, $w2),
            ),
            $w3,
        )
    };
}

/// Run the compression function over every whole 64-byte block of
/// `blocks`, in order.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks.chunks_exact(SHA256_BLOCK_BYTES) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (quarters, _) = block.as_chunks::<16>();
        let mut w0 = load_be(&quarters[0]);
        let mut w1 = load_be(&quarters[1]);
        let mut w2 = load_be(&quarters[2]);
        let mut w3 = load_be(&quarters[3]);
        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        for i in [4, 8, 12] {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, i);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, i + 1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, i + 2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|lane| lane as u32);
}
