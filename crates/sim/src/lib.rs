//! VPM scenario orchestration.
//!
//! This crate assembles the substrates into the paper's world: multi-
//! domain topologies (Figure 1), end-to-end path runs that push a
//! trace through domains and feed every HOP's pipeline, a receipt
//! dissemination bus with the paper's visibility rule, adversarial
//! receipt policies (the threat model of §2.1), path-level verdicts
//! (who is exposed when someone lies), and the §7.2 figures run
//! through all of it.
//!
//! * [`topology`] — domains, HOPs, inter-domain links; the canonical
//!   Figure 1 topology `S–L–X–N–D`, and a domain that runs no HOPs
//!   (§8 partial deployment, [`Topology::without_hops`]).
//! * [`scenario`] — one [`Scenario`]: a trace, a path with every
//!   domain's channel, the HOPs' configuration and the [`Lie`]s its
//!   domains tell; [`Scenario::run`] simulates it and publishes each
//!   HOP's signed frames once to a `vpm_wire::ReceiptTransport`.
//! * [`run`] — the data plane under a scenario: trace in at HOP 1,
//!   every HOP's receipts out, with ground truth retained for
//!   evaluation.
//! * [`adversary`] — the one [`Lie`] vocabulary: blame shifting, delay
//!   sugarcoating, a colluding cover-up, marker dropping, and the
//!   sample-bias fast path VPM is designed to defeat.
//! * [`verdict`] — the receipt collector's path analysis: per-domain
//!   estimates, per-link consistency, liar exposure, and the segment
//!   over each domain without HOPs — read purely from the frames the
//!   HOPs published, by the one reader
//!   [`verdict::analyze_from_transport`] (one shard per HOP fetch).
//! * [`fleet`] — the many-path workload: N independent Figure-1
//!   scenarios publishing interleaved through one shared `ShardedBus`
//!   from concurrent threads, verified in parallel
//!   ([`fleet::analyze_fleet_from_transport`]) with verdicts
//!   byte-identical for every `--jobs` count — surfaced as
//!   `vpm fleet`.
//! * [`figures`] — Figure 2, Figure 3 and the §7.2 verifiability
//!   sweep, each a list of scenarios read back through [`verdict`].
//! * [`scenario_matrix`] — the deterministic scenario grid: delay
//!   model (incl. congestion series), loss process, reorder window,
//!   sampling rate, clock quality, deployment state and adversary
//!   level (incl. two independent liars) as one enumerable,
//!   reproducible, parallel-evaluable table of scenarios — the repo's
//!   primary verification instrument, surfaced as `vpm matrix`.
//! * [`audit`] — continuous operation: a streaming [`audit::Auditor`]
//!   that follows the bus under churn for thousands of intervals with
//!   bounded memory (epoch GC below its own cursor), checkpoints into
//!   `vpm_wire::AuditCheckpoint` snapshots, and restores from them
//!   with byte-identical verdicts — surfaced as `vpm audit`.

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

pub mod adversary;
pub mod audit;
pub mod baselines;
pub mod figures;
pub mod fleet;
pub mod run;
pub mod scenario;
pub mod scenario_matrix;
pub mod topology;
pub mod verdict;

pub use adversary::Lie;
pub use audit::{
    run_audit, AuditConfig, AuditError, AuditOutcome, AuditRunStats, AuditVerdict, Auditor,
};
pub use fleet::{
    analyze_fleet_from_transport, build_fleet, render_fleet_table, run_fleet, Fleet, FleetConfig,
    FleetPath, FleetPathVerdict,
};
pub use run::{PathRun, RunConfig};
pub use scenario::Scenario;
pub use scenario_matrix::{
    evaluate_cell, evaluate_grid, full_grid, parse_filter, render_matrix_table, Cell, CellVerdict,
    MatrixFilter, CANONICAL_BASE_SEED,
};
pub use topology::{DomainRole, Figure1, LinkSpec, Topology};
pub use verdict::{analyze_from_transport, PathAnalysis};
