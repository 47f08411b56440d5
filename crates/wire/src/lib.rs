//! # vpm-wire — the receipt plane's wire layer
//!
//! The paper's §7.1 bandwidth claims assume receipts travel as compact
//! binary records — 4-byte truncated `PktID`s, 3-byte timestamps,
//! ~22-byte aggregate receipts — disseminated to exactly the domains
//! that observed the corresponding traffic. This crate is that receipt
//! plane:
//!
//! * [`codec`] — the versioned binary codec. v2 frames carry a magic +
//!   version byte, a per-batch `PathID` table (receipts reference paths
//!   by a 4-byte index, `receipt::compact::PATH_REF_BYTES`), and
//!   records in one of two profiles: **compact** (byte-for-byte the
//!   §7.1 arithmetic, with the truncation semantics documented in
//!   `vpm_core::receipt::compact`) or **precise** (lossless — the
//!   simulation pipeline round-trips every receipt through it).
//!   Signed frames append a flag-gated HMAC-SHA-256 MAC trailer
//!   ([`codec::MAC_TRAILER_BYTES`]) binding the frame to a per-HOP
//!   key and epoch. Decoding is total: corrupt or truncated input
//!   yields a typed [`WireError`], never a panic.
//! * [`transport`] — the transport-agnostic dissemination API:
//!   [`ReceiptTransport`] (`publish`/`fetch`/`subscribe`) enforcing
//!   the paper's authenticity rule with real receipt binding — an
//!   epoch-tagged per-HOP key registry with explicit rotation, and
//!   MAC verification once, where a frame enters the process — and the
//!   on-path visibility rule, implemented in process by
//!   [`ShardedBus`], which spreads frames across `PathID`-hashed shards
//!   (`ShardedBus::new(1)` is the single-lock store). The frame MAC is the only authenticity
//!   mechanism. Continuous operation is bounded-memory: verified entries
//!   compact into per-HOP [`IntervalSummary`] digests
//!   ([`ReceiptTransport::compact_before`]) and a subscriber whose
//!   cursor falls behind the retention horizon gets a typed
//!   [`TransportError::LaggedBehind`], never a silently gapped stream.
//! * [`checkpoint`] — the versioned [`AuditCheckpoint`] snapshot a
//!   streaming verifier stops and resumes from (cursor + per-path
//!   incremental verdict state), pinned by its own golden fixture.
//! * [`measure`] —§7.1 sizes measured from actual encoded frames,
//!   feeding `vpm_core::overhead`'s `measured_*` report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom and determinism for non-test code: the codec is total
// on attacker bytes, and verdict bytes never depend on the wall clock
// or hash order (`clippy.toml` lists the disallowed methods). A site
// that is safe by construction carries the smallest statement-level
// `expect` attribute with its reason; a stale one fails clippy.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::disallowed_methods,
        clippy::iter_over_hash_type
    )
)]

pub mod checkpoint;
pub mod codec;
pub mod measure;
pub mod net;
pub mod transport;

pub use checkpoint::{AuditCheckpoint, PathAuditState};
pub use codec::{
    DecodedFrame, FrameSignature, FrameStats, Profile, WireDecoder, WireEncoder, WireError,
    WireFrame, MAC_TRAILER_BYTES, MAGIC, VERSION,
};
pub use measure::{measured_overhead_report, measured_sizes};
pub use net::{TcpServer, TcpTransport};
pub use transport::{
    CompactionReport, IntervalSummary, Published, ReceiptTransport, ShardedBus, SubscriptionId,
    TransportError, WaitOutcome,
};
pub use vpm_hash::{HopKey, KeyEpoch};
