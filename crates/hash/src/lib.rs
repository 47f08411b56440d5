//! Hashing substrate for VPM (Verifiable network-Performance Measurements).
//!
//! The VPM paper computes per-packet digests with the "Bob" hash — Bob
//! Jenkins' `lookup3` — because it was shown to behave well on Internet
//! traffic (Molina et al., ITC 2005, cited as \[19\] in the paper). This
//! crate provides:
//!
//! * [`lookup3`] — a from-scratch, test-vector-verified port of
//!   `lookup3.c` (`hashlittle`, `hashlittle2`, `hashword`, `hashword2`);
//! * [`digest`] — 64-bit packet digests built from two independent
//!   32-bit lookup3 lanes;
//! * [`sample`] — the keyed `SampleFcn(Digest(q), Digest(p))` of the
//!   paper's Algorithm 1, which mixes the digest of an already-observed
//!   packet `q` with the digest of a *future* marker packet `p`;
//! * [`threshold`] — the threshold arithmetic used for the marker
//!   threshold `µ`, the sampling threshold `σ` and the partition
//!   threshold `δ`. Thresholds are totally ordered, which is what gives
//!   VPM its superset-sampling and nested-partition properties (paper
//!   §5.2, §6.2);
//! * [`mod@sha256`] — in-tree SHA-256 / HMAC-SHA-256 (NIST FIPS 180-4 and
//!   RFC 4231 test-vector verified), the primitive behind real receipt
//!   binding on the wire, on the x86 SHA extensions where the running
//!   CPU has them ([`sha256::backend`] says which);
//! * [`hopkey`] — per-HOP 32-byte secret keys ([`HopKey`]) and rotation
//!   generations ([`KeyEpoch`]) for the transport's key registry.
//!
//! Everything here is deterministic and allocation-free: the same bytes
//! always produce the same digest on every HOP, which is the foundation
//! of receipt consistency checking.
//!
//! `unsafe` is denied crate-wide, with one audited exception: the
//! SHA-NI kernel under [`mod@sha256`] (`sha256/shani.rs`), a
//! module-scoped allow around `#[target_feature]` code with a `SAFETY`
//! argument at every `unsafe` block (the gate is run-time detection,
//! and the kernel is unreachable without it). CI fails unless the
//! audited files are exactly that module and `vpm-core`'s prefetch
//! hint.

#![deny(unsafe_code)]
#![warn(missing_docs)]
// Determinism for non-test code: no wall-clock reads or hash-order
// iteration (`clippy.toml` lists the disallowed methods).
#![cfg_attr(
    not(test),
    warn(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod digest;
pub mod hopkey;
pub mod lookup3;
pub mod sample;
pub mod sha256;
pub mod threshold;

pub use digest::{
    digest_batch, digest_bytes, digest_words, Digest, DigestSeed, DEFAULT_DIGEST_SEED,
};
pub use hopkey::{HopKey, KeyEpoch};
pub use sample::{sample_fcn, sample_fcn_keyed, SampleKey};
pub use sha256::{hmac_sha256, mac_eq, sha256, Sha256, SHA256_BLOCK_BYTES, SHA256_DIGEST_BYTES};
pub use threshold::Threshold;
