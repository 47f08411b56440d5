//! The many-path fleet workload and its parallel verifier.
//!
//! The paper's regulator must verify receipts from *every* monitored
//! path, not just the one Figure-1 chain the experiments replay. This
//! module scales the verifier plane the way the collector (PR 3) and
//! wire (PR 4) planes were scaled:
//!
//! * [`build_fleet`] lays out N independent Figure-1 [`Scenario`]s
//!   ([`Figure1::numbered`]) with disjoint HOP/domain id spaces and
//!   per-path prefix pairs, each path's environment (delay model, loss
//!   process, honest vs lying) sampled deterministically from the
//!   scenario-matrix axes;
//! * [`run_fleet`] runs every path's scenario straight into **one
//!   shared transport** from concurrent publisher threads, each frame
//!   published once — interleaved frames, racing sequence numbers,
//!   some paths leading with an empty quiet-interval batch — exactly
//!   the traffic shape a production receipt bus sees;
//! * [`analyze_fleet_from_transport`] fans per-path verification
//!   ([`crate::verdict::analyze_from_transport`], which touches only
//!   each HOP's shard) across a `vpm_core::par_map_indexed` worker
//!   pool. Verdicts are merged in path order, so the output is
//!   **byte-identical for every `jobs` count** — and byte-identical to
//!   folding `analyze_from_transport` over the paths sequentially
//!   (`tests/fleet.rs` pins both, the latter under proptest).
//!
//! A [`FleetPathVerdict`] fails on any **false accusation** (an honest
//! path with a flagged link, or a liar's lie spilling onto an innocent
//! link) and on any **missed liar** — `vpm fleet` exits non-zero if any
//! path fails, which is how CI gates the verifier plane.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use vpm_netsim::channel::{ChannelConfig, DelayModel};
use vpm_netsim::reorder::ReorderModel;
use vpm_packet::{DomainId, SimDuration};
use vpm_trace::TraceConfig;
use vpm_wire::ReceiptTransport;

use crate::adversary::{splitmix, GOLDEN};
use crate::run::RunConfig;
use crate::scenario::Scenario;
use crate::scenario_matrix::AdversaryAxis;
use crate::topology::Figure1;
use crate::verdict::{analyze_from_transport, PathAnalysis};

/// Base seed of the canonical fleet (`vpm fleet` default).
pub const FLEET_BASE_SEED: u64 = 0xF1EE_7000;

/// Shape of a fleet run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Independent paths (Figure-1 instances).
    pub paths: usize,
    /// Paths that lie (spread evenly across the fleet).
    pub liars: usize,
    /// Concurrent publisher threads feeding the shared transport.
    pub publishers: usize,
    /// Master seed; every path derives its randomness from it.
    pub base_seed: u64,
    /// Trace duration per path (ms).
    pub trace_ms: u64,
    /// Trace rate per path (packets per second).
    pub target_pps: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            paths: 64,
            liars: 8,
            publishers: 4,
            base_seed: FLEET_BASE_SEED,
            trace_ms: 80,
            target_pps: 25_000.0,
        }
    }
}

/// One path of the fleet.
#[derive(Debug, Clone)]
pub struct FleetPath {
    /// Position in the fleet (stable across runs).
    pub index: usize,
    /// The path's scenario: a Figure-1 instance with disjoint HOP and
    /// domain ids, and the lies of its adversary level.
    pub scenario: Scenario,
    /// What the path's `X` does: honest, blame-shift or sugarcoat.
    pub adversary: AdversaryAxis,
}

impl FleetPath {
    /// The domain the fleet verifier analyzes this path as (the
    /// path's source domain — always on-path).
    #[expect(
        clippy::indexing_slicing,
        reason = "built topologies always have at least one domain"
    )]
    pub fn collector_domain(&self) -> DomainId {
        self.scenario.topology.domain_ids()[0]
    }
}

/// A built fleet, ready to run and verify.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The shape it was built from.
    pub config: FleetConfig,
    /// Every path, in index order.
    pub paths: Vec<FleetPath>,
}

/// Is path `i` of `n` a liar, with `k` liars spread evenly?
fn is_liar(i: usize, n: usize, k: usize) -> bool {
    // Bresenham-style spread: exactly k of n indices, evenly spaced.
    (i + 1) * k / n > i * k / n
}

/// Deterministic splitmix64 stream over the fleet seed (shared with
/// the audit workload's churn process).
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    splitmix(seed ^ salt.wrapping_mul(GOLDEN))
}

/// Lay out a fleet: `config.paths` independent Figure-1 scenarios with
/// environments cycled deterministically through the matrix's delay
/// and loss axes, `config.liars` lying paths spread evenly (blame-shift
/// paths are guaranteed loss to hide), and every fifth path leading
/// with an empty quiet-interval batch.
pub fn build_fleet(config: &FleetConfig) -> Fleet {
    assert!(config.paths >= 1, "a fleet has at least one path");
    assert!(config.liars <= config.paths, "more liars than paths");
    let mut liar_count = 0usize;
    let paths = (0..config.paths)
        .map(|i| {
            let seed = mix(config.base_seed, i as u64 + 1);
            let adversary = if is_liar(i, config.paths, config.liars) {
                liar_count += 1;
                if liar_count % 2 == 1 {
                    AdversaryAxis::BlameShift
                } else {
                    AdversaryAxis::Sugarcoat
                }
            } else {
                AdversaryAxis::Honest
            };
            let delay = match i % 2 {
                0 => DelayModel::Constant(SimDuration::from_micros(300)),
                _ => DelayModel::Jitter {
                    base: SimDuration::from_micros(100),
                    jitter: SimDuration::from_micros(800),
                },
            };
            // Loss axis: none / uniform / bursty — except a blame-shift
            // liar always carries loss (there is nothing to hide
            // otherwise).
            let loss = match (adversary, i % 3) {
                (AdversaryAxis::BlameShift, _) | (_, 1) => Some((0.05, 1.0)),
                (_, 2) => Some((0.12, 4.0)),
                _ => None,
            };
            let mut fig = Figure1::numbered(i);
            fig.x_transit = ChannelConfig {
                delay,
                loss,
                reorder: ReorderModel::none(),
                seed: seed ^ 0xc4a1,
            };
            let topology = fig.build();
            let trace = TraceConfig {
                target_pps: config.target_pps,
                duration: SimDuration::from_millis(config.trace_ms),
                spec: topology.spec,
                ..TraceConfig::paper_default(1, seed ^ 0x7ace)
            };
            let run_config = RunConfig {
                sampling_rate: 0.05,
                // ~13 aggregates per fleet trace. Blame-shift exposure
                // is the §4 count-mismatch over *joined* aggregates,
                // and joining needs boundary digests that survived the
                // liar's own loss: at 400-packet aggregates a
                // digest-poor 2k-packet trace can realize a single
                // interior boundary, lose it inside X, and leave the
                // verifier nothing to join.
                aggregate_size: 150,
                // The paper's µ = 10⁻² regime (~20 markers per fleet
                // trace). The matrix runs µ = 2·10⁻³ to starve its
                // sample-bias attacker, but at fleet trace lengths
                // that leaves ~4 expected markers — a path whose few
                // markers all die inside a lossy X flushes no samples
                // downstream (Algorithm 1 buffers until a future
                // marker) and a liar there would have nothing to
                // cross-check. The fleet has no sample-bias cell, so
                // it keeps markers plentiful.
                marker_rate: 0.01,
                j_window: SimDuration::from_millis(2),
                seed: seed ^ 0x10c5,
                ..RunConfig::default()
            };
            FleetPath {
                index: i,
                scenario: Scenario {
                    quiet_first_interval: i % 5 == 3,
                    lies: adversary.lies(seed),
                    ..Scenario::new(trace, topology, run_config)
                },
                adversary,
            }
        })
        .collect();
    Fleet {
        config: *config,
        paths,
    }
}

/// Run every path's scenario into `transport` from
/// `config.publishers` concurrent threads: paths are claimed from an
/// atomic work list, so frames from different paths interleave on the
/// bus and sequence numbers race — the traffic shape the per-shard
/// cursor design exists for. Each frame is published once. Returns the
/// total frames published.
pub fn run_fleet(fleet: &Fleet, transport: &dyn ReceiptTransport) -> usize {
    let workers = fleet.config.publishers.clamp(1, fleet.paths.len());
    let next = AtomicUsize::new(0);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(path) = fleet.paths.get(next.fetch_add(1, Ordering::Relaxed)) {
                    #[expect(
                        clippy::expect_used,
                        reason = "fleet paths have disjoint HOP ids, so the transport admits every key and frame"
                    )]
                    let run = path.scenario.run(transport).expect("fleet paths publish");
                    let per_hop = 1 + usize::from(path.scenario.quiet_first_interval);
                    total.fetch_add(run.hops.len() * per_hop, Ordering::Relaxed);
                }
            });
        }
    });
    total.load(Ordering::Relaxed)
}

/// One path's verification verdict, as serialized by `vpm fleet
/// --json`. Field order is stable; the `--jobs` byte-identity tests
/// compare serialized verdicts directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPathVerdict {
    /// The path's fleet index.
    pub path: usize,
    /// The lie the path was built to tell, if any.
    pub lie: Option<String>,
    /// Receipt-derived loss estimate for the path's `X` domain.
    pub x_loss_est: Option<f64>,
    /// Links flagged inconsistent, as `(up, down)` HOP ids.
    pub flagged_links: Vec<(u16, u16)>,
    /// Per-transit-domain summaries, in path order.
    pub domains: Vec<crate::verdict::DomainSummary>,
    /// Every verification invariant that failed (empty = path passes):
    /// false accusations on honest paths or innocent links, missed
    /// liars.
    pub failures: Vec<String>,
}

impl FleetPathVerdict {
    /// Did the verifier reach the right verdict for this path?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Judge one path's analysis against what the fleet built it to be.
    pub fn from_analysis(path: &FleetPath, analysis: &PathAnalysis) -> FleetPathVerdict {
        let scenario = &path.scenario;
        FleetPathVerdict {
            path: path.index,
            lie: (path.adversary != AdversaryAxis::Honest)
                .then(|| path.adversary.name().to_string()),
            x_loss_est: analysis.domain("X").and_then(|d| d.estimate.loss.rate()),
            flagged_links: analysis
                .flagged_links()
                .iter()
                .map(|l| (l.up.0, l.down.0))
                .collect(),
            domains: analysis.domains.iter().map(|d| d.summary()).collect(),
            failures: path
                .adversary
                .failures(&scenario.lies, &scenario.topology, analysis),
        }
    }
}

/// Verify every path of the fleet purely from disseminated frames,
/// `jobs` paths at a time.
///
/// Each worker runs [`analyze_from_transport`] for one path —
/// on a sharded transport that touches only the shards holding that
/// path's frames — and verdicts are merged in path order via
/// [`vpm_core::par_map_indexed`], so the result (and its serialized
/// form) is byte-identical for every `jobs >= 1` and equal to the
/// sequential per-path fold.
pub fn analyze_fleet_from_transport(
    fleet: &Fleet,
    transport: &dyn ReceiptTransport,
    jobs: usize,
) -> Vec<FleetPathVerdict> {
    vpm_core::par_map_indexed(&fleet.paths, jobs, |_, path| {
        #[expect(
            clippy::expect_used,
            reason = "the collector domain is taken from the path being verified"
        )]
        let analysis =
            analyze_from_transport(&path.scenario.topology, transport, path.collector_domain())
                .expect("the fleet collector is on-path");
        FleetPathVerdict::from_analysis(path, &analysis)
    })
}

/// Render the verdict table the `vpm fleet` subcommand prints.
pub fn render_fleet_table(fleet: &Fleet, verdicts: &[FleetPathVerdict]) -> String {
    use std::fmt::Write;
    assert_eq!(fleet.paths.len(), verdicts.len(), "parallel slices");
    let failed = verdicts.iter().filter(|v| !v.passed()).count();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "fleet: {} paths ({} liars), {} failed",
        fleet.paths.len(),
        fleet.config.liars,
        failed
    );
    let _ = writeln!(
        s,
        "{:>5}  {:<12} {:>9}  {:<18} verdict",
        "path", "adversary", "X loss", "flagged links"
    );
    for (p, v) in fleet.paths.iter().zip(verdicts) {
        let links = if v.flagged_links.is_empty() {
            "-".to_string()
        } else {
            v.flagged_links
                .iter()
                .map(|(u, d)| format!("{u}→{d}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            s,
            "{:>5}  {:<12} {:>9}  {:<18} {}",
            p.index,
            v.lie.as_deref().unwrap_or("honest"),
            v.x_loss_est
                .map_or_else(|| "-".to_string(), |l| format!("{l:.3}")),
            links,
            if v.passed() { "pass" } else { "FAIL" }
        );
        for f in &v.failures {
            let _ = writeln!(s, "       !! {f}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liar_spread_is_even_and_exact() {
        for (n, k) in [(64, 8), (10, 3), (5, 5), (7, 0), (1, 1)] {
            let liars: Vec<usize> = (0..n).filter(|&i| is_liar(i, n, k)).collect();
            assert_eq!(liars.len(), k, "n={n} k={k}");
            if k >= 2 {
                let gaps: Vec<usize> = liars.windows(2).map(|w| w[1] - w[0]).collect();
                let (lo, hi) = (*gaps.iter().min().unwrap(), *gaps.iter().max().unwrap());
                assert!(hi - lo <= 1, "uneven spread for n={n} k={k}: {liars:?}");
            }
        }
    }

    #[test]
    fn build_is_deterministic_and_well_formed() {
        let cfg = FleetConfig {
            paths: 12,
            liars: 4,
            ..FleetConfig::default()
        };
        let a = build_fleet(&cfg);
        let b = build_fleet(&cfg);
        assert_eq!(a.paths.len(), 12);
        for (pa, pb) in a.paths.iter().zip(&b.paths) {
            assert_eq!(pa.scenario.trace.seed, pb.scenario.trace.seed);
            assert_eq!(pa.scenario.lies, pb.scenario.lies);
            assert_eq!(pa.adversary, pb.adversary);
            assert_eq!(pa.scenario.topology.hops(), pb.scenario.topology.hops());
        }
        let liars = a
            .paths
            .iter()
            .filter(|p| p.adversary != AdversaryAxis::Honest);
        assert_eq!(liars.count(), 4);
        for p in &a.paths {
            let topology = &p.scenario.topology;
            // Blame-shift paths always have loss to hide.
            if p.adversary == AdversaryAxis::BlameShift {
                let x = topology.domain_by_name("X").unwrap();
                assert!(x.transit.loss.is_some(), "path {}", p.index);
            }
            // Only liars lie.
            assert_eq!(
                p.scenario.lies.is_empty(),
                p.adversary == AdversaryAxis::Honest
            );
            // Disjoint id spaces.
            assert_eq!(
                topology.hops()[0],
                vpm_packet::HopId(1 + p.index as u16 * crate::topology::FIGURE1_HOPS)
            );
        }
        // Both lie flavours appear.
        let lies: std::collections::HashSet<_> =
            a.paths.iter().map(|p| p.adversary.name()).collect();
        assert_eq!(lies.len(), 3, "honest, blame-shift and sugarcoat: {lies:?}");
    }

    #[test]
    fn expected_liar_link_matches_instance_numbering() {
        let fleet = build_fleet(&FleetConfig {
            paths: 3,
            liars: 3,
            ..FleetConfig::default()
        });
        // Path 0 is the canonical Figure 1: X egress 5 → N ingress 6.
        let link = |i: usize| fleet.paths[i].scenario.topology.egress_link("X");
        assert_eq!(link(0), Some((5, 6)));
        assert_eq!(link(2), Some((21, 22)));
    }
}
