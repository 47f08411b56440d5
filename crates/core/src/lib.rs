//! VPM core — the paper's primary contribution.
//!
//! This crate implements the protocol of *Verifiable Network-
//! Performance Measurements* (Argyraki, Maniatis, Singla; CoNEXT
//! 2010): traffic receipts produced by hand-off points (HOPs), the two
//! algorithms that generate them, and the verifier that turns receipts
//! from multiple domains into estimated — and cross-checked — loss and
//! delay performance.
//!
//! * [`receipt`] — receipt formats (§4): sample receipts
//!   `⟨PathID, Samples⟩` and aggregate receipts
//!   `⟨PathID, AggID, PktCnt, AggTrans⟩`.
//! * [`sampling`] — Algorithm 1, bias-resistant delay sampling (§5):
//!   per-packet state is buffered until a *future marker packet*
//!   determines which packets are sampled, so a domain cannot treat
//!   will-be-sampled packets preferentially.
//! * [`aggregation`] — Algorithm 2, tunable aggregation (§6):
//!   digest-threshold cutting points, plus the `AggTrans` reordering
//!   patch-up window.
//! * [`partition`] — the partition algebra of §6.1 (coarser/finer,
//!   join), including the paper's Table 1 as executable tests.
//! * [`combine`] — receipt combination `⊎` (§4).
//! * [`consistency`] — the inter-domain-link consistency rules (§4).
//! * [`collector`] / [`processor`] — the data-plane and control-plane
//!   router modules of §7, with resource accounting.
//! * [`hop`] — a HOP's full pipeline and its tunable configuration.
//! * [`verify`] — receipt matching, per-domain estimation and
//!   cross-receipt verification with liar exposure, with the
//!   AggTrans-based receipt re-alignment under bounded reordering
//!   (§6.3) of the private `align` module.
//! * [`overhead`] — the §7.1 back-of-the-envelope overhead model,
//!   computed from this implementation's real receipt sizes.
//! * [`parallel`] — the deterministic fork-join helper behind every
//!   `--jobs N` surface (scenario matrix, fleet verifier): parallel
//!   results are byte-identical to sequential ones.
//!
//! `unsafe` is denied crate-wide, with one audited exception: the
//! private `prefetch` module, a module-scoped allow around the single
//! `_mm_prefetch` hint `Collector::ingest` issues ahead of its walk,
//! with a `SAFETY` argument at its `unsafe` block. CI fails unless the
//! audited files are exactly that module and `vpm-hash`'s SHA-NI
//! kernel.

#![deny(unsafe_code)]
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

pub mod aggregation;
mod align;
pub mod collector;
pub mod combine;
pub mod consistency;
mod digest_table;
pub mod hop;
pub mod ingest;
pub mod overhead;
pub mod parallel;
pub mod partition;
mod prefetch;
pub mod processor;
pub mod receipt;
pub mod sampling;
pub mod sharded;
pub mod verify;

pub use aggregation::Aggregator;
pub use collector::Collector;
pub use hop::{HopConfig, HopPipeline, DEFAULT_J_WINDOW, DEFAULT_MARKER_RATE};
pub use ingest::{Ingest, IngestError, IngestReport};
pub use parallel::par_map_indexed;
pub use partition::Partition;
pub use processor::{Processor, ReceiptBatch};
pub use receipt::{AggId, AggReceipt, PathId, SampleReceipt, SampleRecord, SHARD_SEED};
pub use sampling::DelaySampler;
pub use sharded::ShardedCollector;
pub use verify::{DomainEstimate, Verifier};
