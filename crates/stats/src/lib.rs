//! Statistics substrate for VPM.
//!
//! The VPM paper estimates a domain's delay performance from *sampled*
//! per-packet delays using the technique of Sommers, Barford, Duffield
//! and Ron, "Accurate and Efficient SLA Compliance Monitoring" (SIGCOMM
//! 2007) — cited as \[20\]. The essence of that technique is estimating
//! *delay quantiles* (not averages) together with confidence bounds
//! derived from order statistics. This crate implements:
//!
//! * [`quantile`] — empirical quantiles and order-statistic confidence
//!   intervals for quantile estimates (the \[20\] estimator);
//! * [`normal`] — the normal distribution helpers those intervals need
//!   (Φ, Φ⁻¹ via Acklam's algorithm, erf);
//! * [`loss`] — exact and sampled loss-rate statistics with Wilson
//!   score intervals;
//! * [`summary`] — streaming mean/variance/min/max (Welford) summaries;
//! * [`accuracy`] — the "delay accuracy" metric of the paper's Figure 2
//!   (worst-case quantile estimation error over a quantile set).
//!
//! Everything operates on plain `f64` values so the crate stays free of
//! unit decisions; callers convert durations to milliseconds (the
//! paper's reporting unit) at the boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism for non-test code: no wall-clock reads or hash-order
// iteration (`clippy.toml` lists the disallowed methods).
#![cfg_attr(
    not(test),
    warn(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod accuracy;
pub mod loss;
pub mod normal;
pub mod quantile;
pub mod summary;

pub use accuracy::{quantile_error, QuantileErrorReport};
pub use loss::{wilson_interval, LossStats};
pub use quantile::{empirical_quantile, estimate_quantile, QuantileEstimate};
pub use summary::Summary;
