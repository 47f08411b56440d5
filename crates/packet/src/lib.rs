//! Packet substrate for VPM.
//!
//! This crate models the traffic that VPM HOPs observe: IPv4 packets
//! with TCP or UDP transport headers, the origin prefixes that name HOP
//! paths (paper §2), and simulation time. It also provides the
//! canonical *digest input* — the invariant header bytes that every HOP
//! hashes to obtain the packet's `PktID` (paper §4, §7: "applies it to
//! each packet's IP and transport headers").
//!
//! Design notes:
//! * Mutable-in-flight fields (TTL, IP checksum) are excluded from the
//!   digest input so all HOPs on a path compute identical digests.
//! * [`time::SimTime`] is a nanosecond counter; HOP clocks (which add
//!   skew and drift on top) live in `vpm-netsim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism for non-test code: no wall-clock reads or hash-order
// iteration (`clippy.toml` lists the disallowed methods).
#![cfg_attr(
    not(test),
    warn(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod ipv4;
pub mod packet;
pub mod path;
pub mod prefix;
pub mod time;
pub mod transport;

pub use ipv4::Ipv4Header;
pub use packet::{digest_packets, Packet, DIGEST_INPUT_WORDS};
pub use path::{DomainId, HeaderSpec, HopId};
pub use prefix::Ipv4Prefix;
pub use time::{SimDuration, SimTime};
pub use transport::{TcpFlags, TcpHeader, Transport, UdpHeader};
