//! # VPM — Verifiable Network-Performance Measurements
//!
//! A full reproduction of *"Verifiable Network-Performance
//! Measurements"* (Katerina Argyraki, Petros Maniatis, Ankit Singla;
//! CoNEXT 2010, arXiv:1005.3148) as a Rust workspace.
//!
//! VPM lets network domains (ASes) voluntarily report their loss and
//! delay performance through **traffic receipts** generated at their
//! border routers (hand-off points, *HOPs*), such that:
//!
//! * neighbors can **compute** each domain's per-path loss and delay
//!   quantiles from its receipts (computability),
//! * receipts from different domains cross-check each other, so a
//!   domain **cannot exaggerate** its performance without being exposed
//!   to a neighbor (verifiability),
//! * each domain picks its own resource/quality trade-off without
//!   coordination (tunability).
//!
//! This facade crate re-exports the whole workspace. Start with
//! [`core`] for the protocol, [`sim`] for end-to-end scenarios, or run
//! the examples:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example liar_detection
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |-----------|-------|----------|
//! | [`hash`] | `vpm-hash` | Bob Jenkins lookup3, digests, `SampleFcn`, thresholds |
//! | [`packet`] | `vpm-packet` | packets, headers, prefixes, paths, time |
//! | [`stats`] | `vpm-stats` | quantile estimation (Sommers et al.), loss stats |
//! | [`trace`] | `vpm-trace` | synthetic traces (CAIDA substitute) |
//! | [`netsim`] | `vpm-netsim` | DES, drop-tail queue, bursty UDP, Gilbert-Elliott, clocks |
//! | [`core`] | `vpm-core` | receipts, Algorithms 1 & 2, joins, verification |
//! | [`wire`] | `vpm-wire` | v2 binary receipt codec, `ReceiptTransport` dissemination |
//! | [`sim`] | `vpm-sim` | topologies (a §8 non-deployer is a domain without HOPs), one `Scenario` and its runner, the one `Lie` vocabulary, the one verdict reader `analyze_from_transport`; the §7.2 figures, the scenario matrix and the many-path fleet, all built from scenarios and judged from the frames they publish |
//!
//! `vpm-lint` (`crates/lint`) is not re-exported and nothing here
//! depends on it: it holds R3, the lock-discipline check, which runs
//! only as a tier-1 test.
//!
//! ## Minimal example
//!
//! Two HOPs bracket a domain; the verifier recovers the transit delay
//! from matched sample receipts:
//!
//! ```
//! use vpm::core::{sampling::DelaySampler, verify};
//! use vpm::hash::{Digest, Threshold};
//! use vpm::packet::{SimDuration, SimTime};
//!
//! let marker = Threshold::from_rate(0.01);
//! let sigma = Threshold::from_rate(0.05);
//! let mut ingress = DelaySampler::new(marker, sigma);
//! let mut egress = DelaySampler::new(marker, sigma);
//!
//! // The domain delays every packet by 3 ms.
//! for i in 0..50_000u64 {
//!     let digest = Digest(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
//!     let t = SimTime::from_micros(20 * i);
//!     ingress.observe(digest, t);
//!     egress.observe(digest, t + SimDuration::from_millis(3));
//! }
//!
//! let matched = verify::match_samples(&ingress.drain(), &egress.drain());
//! let est = verify::Verifier::default().estimate_delay(&matched).unwrap();
//! let median = est.quantiles.iter().find(|q| q.q == 0.5).unwrap();
//! assert!((median.value - 3.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism for non-test code: no wall-clock reads or hash-order
// iteration (`clippy.toml` lists the disallowed methods).
#![cfg_attr(
    not(test),
    warn(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub use vpm_core as core;
pub use vpm_hash as hash;
pub use vpm_netsim as netsim;
pub use vpm_packet as packet;
pub use vpm_sim as sim;
pub use vpm_stats as stats;
pub use vpm_trace as trace;
pub use vpm_wire as wire;

/// Workspace version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
