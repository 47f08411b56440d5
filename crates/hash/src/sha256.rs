//! In-tree SHA-256 (FIPS 180-4) and HMAC-SHA-256 (RFC 2104).
//!
//! The receipt plane needs real cryptographic binding — a MAC trailer
//! over every published wire frame — and the build container has no
//! crates.io access, so the primitive lives here under the same
//! no-dependency discipline as the rest of `vpm-hash`.
//!
//! Every frame is MAC'd twice on its way to a verdict — signed by its
//! HOP, verified once where it enters the transport's process — so the
//! compression function is the receipt plane's inner loop and the §7.1
//! processing budget is spent in it. It exists as one block-run kernel
//! — fold any number of whole 64-byte blocks into the state in one
//! call — with two implementations:
//!
//! * **SHA-NI** (`x86_64` CPUs that report `sha`, `sse2`, `ssse3` and
//!   `sse4.1` at run time): the `sha256rnds2` / `sha256msg1` /
//!   `sha256msg2` instructions, state kept packed across the whole
//!   run — the private `shani` submodule.
//! * **Scalar** (every other target, and every x86 CPU without the
//!   extension): the FIPS 180-4 §6.2.2 rounds as written.
//!
//! Each [`Sha256`] picks its kernel when it is created, from what the
//! CPU reports and nothing else — no cargo feature, environment
//! variable or argument selects one; [`backend`] names the choice.
//! [`Sha256::update`] hands the kernel the whole block-aligned middle
//! of its input in one call, and [`Sha256::finalize`] writes the
//! padding straight into the last block. A `HopKey` keeps its key's two
//! HMAC pad blocks compressed, so its MAC costs two compressions fewer
//! than [`hmac_sha256`], which stays the RFC 2104 reference.
//!
//! Correctness is pinned, for *each* kernel called directly, against
//! the NIST FIPS 180-4 example vectors (including the streaming
//! million-`a` message), all seven RFC 4231 HMAC-SHA-256 test cases
//! and every padding-boundary length; a proptest pins the kernels to
//! each other on arbitrary messages in arbitrary `update` chunks.

#[cfg(target_arch = "x86_64")]
mod shani;

/// Round constants: fractional parts of the cube roots of the first
/// 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: fractional parts of the square roots of the
/// first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256 block size in bytes (also the HMAC pad width).
pub const SHA256_BLOCK_BYTES: usize = 64;

/// SHA-256 digest size in bytes.
pub const SHA256_DIGEST_BYTES: usize = 32;

/// Incremental SHA-256 hasher.
///
/// ```
/// use vpm_hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), vpm_hash::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    kernel: Kernel,
    state: [u32; 8],
    buf: [u8; SHA256_BLOCK_BYTES],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher in the FIPS 180-4 initial state, on the fastest
    /// kernel the running CPU supports.
    pub fn new() -> Self {
        Self::with_kernel(detect().0)
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Self::resume(kernel, H0, 0)
    }

    /// A hasher whose first `total_len` bytes (whole blocks) are
    /// already folded into `state`.
    fn resume(kernel: Kernel, state: [u32; 8], total_len: u64) -> Self {
        Sha256 {
            kernel,
            state,
            buf: [0u8; SHA256_BLOCK_BYTES],
            buf_len: 0,
            total_len,
        }
    }

    /// Absorb `data`; may be called any number of times.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (SHA256_BLOCK_BYTES - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == SHA256_BLOCK_BYTES {
                (self.kernel)(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Invariant from here on: the buffer is empty or `data` is.
        let (blocks, tail) = data.split_at(data.len() - data.len() % SHA256_BLOCK_BYTES);
        if !blocks.is_empty() {
            (self.kernel)(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Pad, run the final blocks, and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; SHA256_DIGEST_BYTES] {
        const LEN_AT: usize = SHA256_BLOCK_BYTES - 8;
        // `update` never leaves a full buffer, so the 0x80 terminator
        // always fits; zeros follow until 8 bytes remain in a block.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= LEN_AT {
            // The terminator took the length field's room: the length
            // goes in a second, otherwise zero, block.
            (self.kernel)(&mut self.state, &self.buf);
            self.buf[..LEN_AT].fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        (self.kernel)(&mut self.state, &self.buf);
        digest_of(self.state)
    }
}

/// The digest a final state stands for: its words, big-endian.
fn digest_of(state: [u32; 8]) -> [u8; SHA256_DIGEST_BYTES] {
    let mut out = [0u8; SHA256_DIGEST_BYTES];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// A block-run kernel: fold every 64-byte block of `blocks` (whose
/// length is a multiple of 64) into `state`, in order.
type Kernel = fn(state: &mut [u32; 8], blocks: &[u8]);

/// The hardware kernel, where the target has one and the running CPU
/// reports the extensions it needs.
fn hardware_kernel() -> Option<Kernel> {
    #[cfg(target_arch = "x86_64")]
    {
        shani::kernel()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// The kernel a new [`Sha256`] runs on, and its [`backend`] name.
fn detect() -> (Kernel, &'static str) {
    match hardware_kernel() {
        Some(kernel) => (kernel, "sha-ni"),
        None => (compress_blocks_scalar, "scalar"),
    }
}

/// Which compression kernel this process hashes with: `"sha-ni"` where
/// the CPU has the x86 SHA extensions, `"scalar"` everywhere else.
/// Digests and MACs are bit-identical on both; only the speed differs.
pub fn backend() -> &'static str {
    detect().1
}

/// The portable kernel: the scalar rounds, one block at a time.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % SHA256_BLOCK_BYTES, 0);
    for block in blocks.chunks_exact(SHA256_BLOCK_BYTES) {
        compress(state, block.try_into().expect("64-byte chunk"));
    }
}

/// One FIPS 180-4 §6.2.2 compression over a 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8; SHA256_BLOCK_BYTES]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    sha256_on(detect().0, data)
}

fn sha256_on(kernel: Kernel, data: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    let mut h = Sha256::with_kernel(kernel);
    h.update(data);
    h.finalize()
}

/// HMAC-SHA-256 of `msg` under `key` (RFC 2104; any key length —
/// keys longer than the 64-byte block are hashed first).
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    hmac_sha256_on(detect().0, key, msg)
}

fn hmac_sha256_on(kernel: Kernel, key: &[u8], msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
    let (ipad, opad) = hmac_pads(kernel, key);
    let mut inner = Sha256::with_kernel(kernel);
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::with_kernel(kernel);
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// The RFC 2104 inner and outer pad blocks of `key`.
fn hmac_pads(kernel: Kernel, key: &[u8]) -> ([u8; SHA256_BLOCK_BYTES], [u8; SHA256_BLOCK_BYTES]) {
    let mut k = [0u8; SHA256_BLOCK_BYTES];
    if key.len() > SHA256_BLOCK_BYTES {
        k[..SHA256_DIGEST_BYTES].copy_from_slice(&sha256_on(kernel, key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; SHA256_BLOCK_BYTES];
    let mut opad = [0x5cu8; SHA256_BLOCK_BYTES];
    for i in 0..SHA256_BLOCK_BYTES {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }
    (ipad, opad)
}

/// HMAC-SHA-256 under one fixed key, its two pad blocks compressed
/// once, up front: each MAC then starts from these states, which saves
/// two of the five compressions a ~100-byte message costs through
/// [`hmac_sha256`]. Bit-identical to it, on either kernel. The states
/// stand in for the key, so whoever holds them must keep them as
/// secret as the key itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct HmacMidstates {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacMidstates {
    pub(crate) fn new(key: &[u8]) -> Self {
        Self::new_on(detect().0, key)
    }

    fn new_on(kernel: Kernel, key: &[u8]) -> Self {
        let (ipad, opad) = hmac_pads(kernel, key);
        let (mut inner, mut outer) = (H0, H0);
        kernel(&mut inner, &ipad);
        kernel(&mut outer, &opad);
        HmacMidstates { inner, outer }
    }

    /// HMAC-SHA-256 of `msg` under the key these states came from.
    pub(crate) fn mac(&self, msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
        self.mac_on(detect().0, msg)
    }

    fn mac_on(&self, kernel: Kernel, msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
        let block = SHA256_BLOCK_BYTES as u64;
        let mut inner = Sha256::resume(kernel, self.inner, block);
        inner.update(msg);
        let mut outer = Sha256::resume(kernel, self.outer, block);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Constant-time 32-byte comparison: MAC checks must not leak how
/// many prefix bytes matched through early exit.
pub fn mac_eq(a: &[u8; SHA256_DIGEST_BYTES], b: &[u8; SHA256_DIGEST_BYTES]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    /// Every kernel this machine can run, called directly rather than
    /// through detection. Where the CPU lacks the SHA extensions the
    /// hardware half is skipped, and says so (once per test binary).
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all = vec![("scalar", compress_blocks_scalar as Kernel)];
        match hardware_kernel() {
            Some(kernel) => all.push(("sha-ni", kernel)),
            None => {
                static NOTICE: std::sync::Once = std::sync::Once::new();
                NOTICE.call_once(|| {
                    println!("SKIPPED: this CPU has no SHA-NI; only the scalar kernel was tested");
                });
            }
        }
        all
    }

    #[test]
    fn backend_agrees_with_feature_detection() {
        #[cfg(target_arch = "x86_64")]
        let has_sha = std::arch::is_x86_feature_detected!("sha");
        #[cfg(not(target_arch = "x86_64"))]
        let has_sha = false;
        println!("vpm-hash sha256 backend: {}", backend());
        assert_eq!(backend(), if has_sha { "sha-ni" } else { "scalar" });
        assert_eq!(kernels().len(), if has_sha { 2 } else { 1 });
    }

    // FIPS 180-4 example vectors (NIST CSRC "SHA All" examples).
    #[test]
    fn nist_fips_180_4_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (name, kernel) in kernels() {
            for (msg, want) in cases {
                let got = sha256_on(kernel, msg);
                assert_eq!(&hex(&got), want, "{name}, msg len {}", msg.len());
            }
        }
    }

    #[test]
    fn nist_million_a_streams_through_arbitrary_chunking() {
        // The millionth-`a` vector, fed in deliberately awkward chunk
        // sizes to exercise the buffered update path.
        for (name, kernel) in kernels() {
            let mut h = Sha256::with_kernel(kernel);
            let mut fed = 0usize;
            let mut chunk = 1usize;
            while fed < 1_000_000 {
                let n = chunk.min(1_000_000 - fed);
                h.update(&b"a".repeat(n));
                fed += n;
                chunk = (chunk * 3 + 7) % 257 + 1;
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i * 31 % 251) as u8).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    /// FIPS 180-4 §5.1.1 padding spelled out by hand — message, 0x80,
    /// zeros to 56 mod 64, 64-bit big-endian bit length — and run
    /// through the scalar rounds with no `Sha256` involved: the oracle
    /// for `finalize`, which writes the same bytes in place.
    fn sha256_by_hand(msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % SHA256_BLOCK_BYTES != SHA256_BLOCK_BYTES - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_blocks_scalar(&mut state, &padded);
        digest_of(state)
    }

    #[test]
    fn finalize_pads_correctly_at_every_boundary() {
        // Either side of: empty, the last length whose padding fits one
        // block (55), the first that needs two (56), a full block, and
        // the same again one block up.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let want = sha256_by_hand(&msg);
            for (name, kernel) in kernels() {
                assert_eq!(sha256_on(kernel, &msg), want, "{name}, len {len}");
                // And with the tail arriving through the buffer.
                let mut h = Sha256::with_kernel(kernel);
                h.update(&msg[..len / 2]);
                h.update(&msg[len / 2..]);
                assert_eq!(h.finalize(), want, "{name}, len {len}, split");
            }
        }
    }

    proptest! {
        /// The kernels pinned to each other: any message, cut into any
        /// `update` chunks, hashes the same on every kernel, chunked or
        /// one-shot.
        #[test]
        fn kernels_agree_on_arbitrary_messages_and_chunkings(
            msg in proptest::collection::vec(any::<u8>(), 0..=4096),
            cuts in proptest::collection::vec(0usize..=200, 0..=40),
        ) {
            let want = sha256_on(compress_blocks_scalar, &msg);
            for (name, kernel) in kernels() {
                prop_assert_eq!(sha256_on(kernel, &msg), want, "{} one-shot", name);
                let mut h = Sha256::with_kernel(kernel);
                let mut rest = &msg[..];
                for cut in &cuts {
                    let (head, tail) = rest.split_at((*cut).min(rest.len()));
                    h.update(head);
                    rest = tail;
                }
                h.update(rest);
                prop_assert_eq!(h.finalize(), want, "{} chunked", name);
            }
            prop_assert_eq!(sha256(&msg), want, "detected kernel");
        }

        /// Same pin one layer up: HMAC over arbitrary keys (short,
        /// block-sized, hashed-first) and messages.
        #[test]
        fn kernels_agree_on_arbitrary_hmacs(
            key in proptest::collection::vec(any::<u8>(), 0..=160),
            msg in proptest::collection::vec(any::<u8>(), 0..=1024),
        ) {
            let want = hmac_sha256_on(compress_blocks_scalar, &key, &msg);
            for (name, kernel) in kernels() {
                prop_assert_eq!(hmac_sha256_on(kernel, &key, &msg), want, "{}", name);
            }
            prop_assert_eq!(hmac_sha256(&key, &msg), want, "detected kernel");
        }

        /// `HopKey::mac` starts from precomputed pad states; it must be
        /// RFC 2104 to the bit: states made and used on every kernel
        /// (and across kernels), and through `HopKey` itself, against
        /// the reference `hmac_sha256`.
        #[test]
        fn midstate_macs_equal_the_reference_hmac(
            material in proptest::collection::vec(any::<u8>(), 32),
            msg in proptest::collection::vec(any::<u8>(), 0..=1024),
        ) {
            let want = hmac_sha256_on(compress_blocks_scalar, &material, &msg);
            for (made, on) in kernels() {
                let states = HmacMidstates::new_on(on, &material);
                for (name, kernel) in kernels() {
                    prop_assert_eq!(states.mac_on(kernel, &msg), want, "{} states on {}", made, name);
                }
            }
            let key = crate::HopKey::from_bytes(material.try_into().expect("32 bytes"));
            prop_assert_eq!(key.mac(&msg), want, "HopKey");
            prop_assert_eq!(key.mac(&msg), hmac_sha256(key.as_bytes(), &msg), "HopKey");
        }
    }

    // RFC 4231: all seven HMAC-SHA-256 test cases. TC5 checks the
    // truncated-output case by prefix.
    #[test]
    fn rfc_4231_hmac_sha256_vectors() {
        struct Tc {
            key: Vec<u8>,
            data: Vec<u8>,
            mac: &'static str,
            truncated_to: usize,
        }
        let cases = [
            Tc {
                key: vec![0x0b; 20],
                data: b"Hi There".to_vec(),
                mac: "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
                truncated_to: 32,
            },
            Tc {
                key: b"Jefe".to_vec(),
                data: b"what do ya want for nothing?".to_vec(),
                mac: "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
                truncated_to: 32,
            },
            Tc {
                key: vec![0xaa; 20],
                data: vec![0xdd; 50],
                mac: "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
                truncated_to: 32,
            },
            Tc {
                key: unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
                data: vec![0xcd; 50],
                mac: "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
                truncated_to: 32,
            },
            Tc {
                key: vec![0x0c; 20],
                data: b"Test With Truncation".to_vec(),
                mac: "a3b6167473100ee06e0c796c2955552b",
                truncated_to: 16,
            },
            Tc {
                key: vec![0xaa; 131],
                data: b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                mac: "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
                truncated_to: 32,
            },
            Tc {
                key: vec![0xaa; 131],
                data: b"This is a test using a larger than block-size key and a larger \
                        than block-size data. The key needs to be hashed before being \
                        used by the HMAC algorithm."
                    .to_vec(),
                mac: "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
                truncated_to: 32,
            },
        ];
        for (name, kernel) in kernels() {
            for (i, tc) in cases.iter().enumerate() {
                let got = hmac_sha256_on(kernel, &tc.key, &tc.data);
                assert_eq!(
                    hex(&got[..tc.truncated_to]),
                    tc.mac,
                    "{name}, RFC 4231 test case {}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn mac_eq_is_exact() {
        let a = sha256(b"x");
        let mut b = a;
        assert!(mac_eq(&a, &b));
        b[31] ^= 1;
        assert!(!mac_eq(&a, &b));
        b[31] ^= 1;
        b[0] ^= 0x80;
        assert!(!mac_eq(&a, &b));
    }
}
