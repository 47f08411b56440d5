//! Synthetic packet traces — the CAIDA substitute.
//!
//! The paper evaluates VPM on packet sequences extracted from 2008
//! CAIDA traces of a Tier-1 ISP (all packets carrying a given source
//! and destination origin-prefix pair, at roughly 100 kpps). Those
//! traces are proprietary, so this crate generates synthetic sequences
//! that preserve the properties VPM's algorithms are actually sensitive
//! to:
//!
//! * **header entropy** — digests must be near-uniform so thresholds
//!   translate into rates; we draw hosts, ports, IP ids and TCP
//!   sequence numbers across a realistic flow population;
//! * **packet-size mix** — the paper's overhead math assumes ~400 B
//!   average packets; we use the classic tri-modal Internet mix
//!   (40/576/1500 plus a uniform component);
//! * **rate** — a configurable target pps (default 100 kpps) with
//!   Poisson-ish arrivals from many concurrent flows with heavy-tailed
//!   (bounded-Pareto) sizes.
//!
//! The README's "Reproducing §7.2" section argues why these three are
//! enough for the figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism for non-test code: no wall-clock reads or hash-order
// iteration (`clippy.toml` lists the disallowed methods).
#![cfg_attr(
    not(test),
    warn(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod dist;
pub mod gen;

pub use gen::{FlowMix, TraceConfig, TraceGenerator, TracePacket, TraceStats};
