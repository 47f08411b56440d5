//! Per-HOP secret keys and key epochs for receipt binding.
//!
//! A [`HopKey`] is 32 bytes of secret material used by exactly one
//! primitive: it keys the HMAC-SHA-256 trailer over the encoded wire
//! frame ([`HopKey::mac`]). No part of it is ever sent, printed, or fed
//! to another hash.
//!
//! [`KeyEpoch`] names which rotation generation of a HOP's key signed
//! a given frame. The transport stores every epoch it has seen, so
//! receipts published before a rotation keep verifying; a frame
//! claiming an epoch the transport never registered is rejected.

use crate::sha256::{sha256, HmacMidstates, SHA256_DIGEST_BYTES};

/// A HOP's 32-byte secret MAC key.
///
/// Deliberately opaque: `Debug` prints no key bytes at all, so keys
/// cannot leak through logs or assertion messages.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HopKey {
    material: [u8; SHA256_DIGEST_BYTES],
    /// The material's HMAC pad blocks, compressed when the key is made.
    midstates: HmacMidstates,
}

impl core::fmt::Debug for HopKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("HopKey(..)")
    }
}

impl HopKey {
    /// Wrap explicit 32-byte key material.
    pub fn from_bytes(material: [u8; SHA256_DIGEST_BYTES]) -> Self {
        HopKey {
            material,
            midstates: HmacMidstates::new(&material),
        }
    }

    /// Derive a key from a 64-bit seed, for the simulator and tests:
    /// all 32 bytes are the SHA-256 expansion of the seed under a
    /// domain-separation label, so no seed byte appears verbatim.
    pub fn from_seed(seed: u64) -> Self {
        let mut input = [0u8; 21];
        input[..13].copy_from_slice(b"VPM-HOPKEY-V2");
        input[13..].copy_from_slice(&seed.to_le_bytes());
        HopKey::from_bytes(sha256(&input))
    }

    /// The raw key material (e.g. to persist a registration).
    pub fn as_bytes(&self) -> &[u8; SHA256_DIGEST_BYTES] {
        &self.material
    }

    /// HMAC-SHA-256 over `msg` under this key, equal to
    /// [`crate::hmac_sha256`]`(self.as_bytes(), msg)` and two
    /// compressions cheaper.
    pub fn mac(&self, msg: &[u8]) -> [u8; SHA256_DIGEST_BYTES] {
        self.midstates.mac(msg)
    }
}

/// Which rotation generation of a HOP's key signed a frame.
///
/// Epoch 0 is the first registration; each explicit rotation on the
/// transport bumps it by one. Ordered so "newest epoch" is
/// `max`-comparable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KeyEpoch(pub u32);

impl core::fmt::Display for KeyEpoch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic_and_seed_sensitive() {
        let a = HopKey::from_seed(7);
        assert_eq!(a, HopKey::from_seed(7));
        let b = HopKey::from_seed(8);
        assert_ne!(a.as_bytes(), b.as_bytes());
        // Pure expansion: the seed's bytes are not a prefix of the key.
        let seed = 0x0123_4567_89ab_cdefu64;
        assert_ne!(HopKey::from_seed(seed).as_bytes()[..8], seed.to_le_bytes());
    }

    #[test]
    fn mac_depends_on_the_full_material() {
        // Two keys differing only in their last byte must still
        // produce different MACs.
        let mut m1 = [0u8; 32];
        m1[..8].copy_from_slice(&0xabcu64.to_le_bytes());
        let mut m2 = m1;
        m2[31] = 1;
        let k1 = HopKey::from_bytes(m1);
        let k2 = HopKey::from_bytes(m2);
        assert_ne!(k1.mac(b"frame"), k2.mac(b"frame"));
        // And the MAC is message-sensitive.
        assert_ne!(k1.mac(b"frame"), k1.mac(b"fram3"));
    }

    #[test]
    fn debug_redacts_key_material() {
        let k = HopKey::from_seed(0xdead);
        let s = format!("{k:?}");
        assert_eq!(s, "HopKey(..)");
        // No 4-byte window of the material appears hex-encoded.
        for w in k.as_bytes().windows(4) {
            let hex: String = w.iter().map(|b| format!("{b:02x}")).collect();
            assert!(!s.contains(&hex), "Debug leaked key bytes {hex}");
        }
    }
}
