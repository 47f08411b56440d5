//! Discrete-event network simulator — the NS substitute for VPM.
//!
//! The paper produces its evaluation inputs in two steps (§7.2):
//! packet *loss* is injected with the Gilbert-Elliott model, and packet
//! *delay* comes from NS simulations of congestion scenarios ("long-
//! lived TCP or UDP flows compete for/saturate the bandwidth of a
//! bottleneck link"). This crate rebuilds that machinery from scratch,
//! with the bursty UDP flow Figure 2 reports as the only cross traffic:
//!
//! * [`event`] — a deterministic discrete-event queue;
//! * [`queue`] — an analytic drop-tail FIFO bottleneck (rate +
//!   bounded queueing delay);
//! * [`gilbert`] — the Gilbert-Elliott two-state Markov loss channel
//!   (paper ref \[9\]);
//! * [`reorder`] — bounded packet reordering (packets farther apart
//!   than the safety threshold `J` never reorder, per ref \[10\]);
//! * [`clock`] — per-HOP clocks with offset/drift/jitter (NTP-grade
//!   synchronization is *not* assumed by VPM, only encouraged);
//! * [`sources`] — the non-adaptive bursty on/off UDP source;
//! * [`congestion`] — the end-to-end scenario runner that pushes a
//!   foreground trace plus cross traffic through a bottleneck and
//!   extracts the per-packet delay series the VPM experiments consume;
//! * [`channel`] — composition of delay/loss/reordering into a single
//!   "what one domain does to traffic" transformation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism for non-test code: no wall-clock reads or hash-order
// iteration (`clippy.toml` lists the disallowed methods).
#![cfg_attr(
    not(test),
    warn(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod channel;
pub mod clock;
pub mod congestion;
pub mod event;
pub mod gilbert;
pub mod queue;
pub mod reorder;
pub mod sources;

pub use channel::{ChannelConfig, DelayModel, Delivery};
pub use clock::HopClock;
pub use congestion::{BottleneckConfig, CrossTraffic, PacketFate};
pub use gilbert::GilbertElliott;
pub use queue::DropTail;
pub use reorder::ReorderModel;
