//! The deterministic scenario matrix — the repo's primary verification
//! instrument.
//!
//! The ROADMAP's north star asks for "as many scenarios as you can
//! imagine"; this module turns that into one enumerable table. A
//! [`Cell`] fixes every free variable of a Figure-1 experiment — the
//! delay model inside the domain under evaluation (`X`, including
//! congestion-driven delay series from the bottleneck simulator), the
//! loss process (none / uniform / bursty Gilbert-Elliott), the
//! reordering window, the HOPs' sampling rate, the clock quality
//! (ideal vs NTP-grade, §4), the deployment state (full vs partial,
//! §8), the adversary strategy (§2.1, including two independent
//! liars), and the RNG seed — and [`evaluate_cell`] replays it end to
//! end:
//!
//! 1. run the path honestly and check the paper's per-cell invariants:
//!    **consistency** (honest receipts never flag a link — even under
//!    NTP-grade clocks, whose mutual skew stays under the advertised
//!    `MaxDiff` and must never produce a false accusation) and
//!    **accuracy** (receipt-derived loss and delay track the retained
//!    ground truth within tolerances; in a partially deployed cell `X`
//!    runs no HOPs, and the collector's segment spanning it is checked
//!    instead of a per-domain report);
//! 2. if the cell names an adversary, run the same scenario again with
//!    the level's [`Lie`]s (`AdversaryAxis::lies`) and check
//!    **exposure**: the lie surfaces exactly where §3.1 says it must —
//!    on an inter-domain link adjacent to a liar (for two liars, on a
//!    link adjacent to *each* liar; `AdversaryAxis::failures`, the
//!    check the fleet shares), or (for collusion) as blame absorbed
//!    inside the colluding coalition, or (for sampling bias) as a
//!    defeated attack whose estimates still track the truth.
//!
//! Every cell is a [`Scenario`]: each HOP signs its batch into a v2
//! wire frame and publishes it through a private
//! `vpm_wire::ShardedBus`, which MAC-verifies every frame it admits.
//!
//! Everything is seeded: evaluating the same cell twice produces
//! byte-identical [`CellVerdict`]s, and [`evaluate_grid`] evaluates
//! cells in parallel with `std::thread::scope` while merging results
//! in index order — the result set is byte-identical regardless of the
//! thread count (`tests/scenario_matrix.rs` asserts both via JSON
//! serialization). [`full_grid`] enumerates the default 216-cell
//! sweep; the `vpm matrix` subcommand filters, evaluates and prints it
//! ([`parse_filter`], [`render_matrix_table`]). Future PRs extend the
//! grid rather than writing new one-off scenario tests.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use vpm_hash::Threshold;
use vpm_netsim::channel::{ChannelConfig, DelayModel};
use vpm_netsim::congestion::{foreground_delays, BottleneckConfig, CrossTraffic, PacketFate};
use vpm_netsim::reorder::ReorderModel;
use vpm_packet::{HopId, SimDuration};
use vpm_trace::{TraceConfig, TraceGenerator, TracePacket};

use crate::adversary::Lie;
use crate::run::{ClockMode, PathRun, RunConfig};
use crate::scenario::Scenario;
use crate::topology::{Figure1, Topology};
use crate::verdict::PathAnalysis;

/// Base seed of the canonical sweep run by the integration suite and
/// the `vpm matrix` subcommand. Changing it changes every cell's
/// traffic and channel randomness — the invariants must hold anyway.
pub const CANONICAL_BASE_SEED: u64 = 0xA110_F7E5;

/// Delay model applied inside domain `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayAxis {
    /// Constant 300 µs transit.
    Constant,
    /// 100 µs base plus uniform jitter in `[0, 800]` µs.
    Jitter,
    /// Congestion-driven delay series: the cell's trace shares a
    /// drop-tail bottleneck with a bursty UDP flow (the Figure-2
    /// congestion source) and every packet's fate comes out of the
    /// event simulation as a [`DelayModel::Series`].
    Congested,
}

impl DelayAxis {
    /// Every level of this axis, in grid order — the single source of
    /// truth for grid construction and the `--filter` vocabulary.
    pub const ALL: [DelayAxis; 3] = [DelayAxis::Constant, DelayAxis::Jitter, DelayAxis::Congested];

    /// Stable axis label for filters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DelayAxis::Constant => "constant",
            DelayAxis::Jitter => "jitter",
            DelayAxis::Congested => "congested",
        }
    }
}

/// Loss process applied inside domain `X`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossAxis {
    /// Lossless.
    None,
    /// Independent (uniform) drops at the given rate — Gilbert-Elliott
    /// with mean burst length 1.
    Uniform(f64),
    /// Bursty Gilbert-Elliott drops: `(rate, mean burst)`.
    Gilbert(f64, f64),
}

impl LossAxis {
    fn channel_loss(&self) -> Option<(f64, f64)> {
        match *self {
            LossAxis::None => None,
            LossAxis::Uniform(rate) => Some((rate, 1.0)),
            LossAxis::Gilbert(rate, burst) => Some((rate, burst)),
        }
    }

    /// Target loss rate of the process.
    pub fn rate(&self) -> f64 {
        match *self {
            LossAxis::None => 0.0,
            LossAxis::Uniform(r) | LossAxis::Gilbert(r, _) => r,
        }
    }

    /// Every family label `Self::family` can return — the `--filter`
    /// vocabulary (kept adjacent so they cannot drift apart).
    pub const FAMILIES: [&'static str; 3] = ["none", "uniform", "gilbert"];

    /// Stable family label for filters ("none" / "uniform" /
    /// "gilbert").
    fn family(&self) -> &'static str {
        match self {
            LossAxis::None => "none",
            LossAxis::Uniform(_) => "uniform",
            LossAxis::Gilbert(_, _) => "gilbert",
        }
    }
}

/// Reordering window inside domain `X`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReorderAxis {
    /// In-order delivery.
    None,
    /// Bounded reordering: hold-back probability with a shift strictly
    /// below the safety threshold `J`.
    Window {
        /// Probability a packet is held back.
        p: f64,
        /// Hold-back bound in microseconds (< `J`).
        shift_us: u64,
    },
}

impl ReorderAxis {
    fn model(&self) -> ReorderModel {
        match *self {
            ReorderAxis::None => ReorderModel::none(),
            ReorderAxis::Window { p, shift_us } => ReorderModel {
                p_reorder: p,
                max_shift: SimDuration::from_micros(shift_us),
            },
        }
    }

    /// Every family label `Self::family` can return — the `--filter`
    /// vocabulary (kept adjacent so they cannot drift apart).
    pub const FAMILIES: [&'static str; 2] = ["none", "window"];

    /// Stable family label for filters ("none" / "window").
    fn family(&self) -> &'static str {
        match self {
            ReorderAxis::None => "none",
            ReorderAxis::Window { .. } => "window",
        }
    }
}

/// Clock quality at every HOP (§4: VPM needs no synchronized clocks,
/// but delay estimates inherit the HOPs' mutual skew).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockAxis {
    /// Perfect clocks.
    Ideal,
    /// NTP-grade clocks: offset within ±0.5 ms, drift within ±50 ppm,
    /// 10 µs read jitter — "reasonably synchronized, at the
    /// granularity of a millisecond" (§4).
    NtpGrade,
}

impl ClockAxis {
    /// Every level of this axis — the single source of truth for grid
    /// construction and the `--filter` vocabulary.
    pub const ALL: [ClockAxis; 2] = [ClockAxis::Ideal, ClockAxis::NtpGrade];

    fn mode(&self) -> ClockMode {
        match self {
            ClockAxis::Ideal => ClockMode::Ideal,
            ClockAxis::NtpGrade => ClockMode::NtpGrade,
        }
    }

    /// Stable axis label for filters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ClockAxis::Ideal => "ideal",
            ClockAxis::NtpGrade => "ntp",
        }
    }

    /// Extra slack the delay-accuracy tolerance gets under this clock:
    /// two NTP-grade HOPs can disagree by up to ~1 ms of offset plus
    /// drift and read jitter, all of which lands in the estimate.
    fn slack_ms(&self) -> f64 {
        match self {
            ClockAxis::Ideal => 0.0,
            ClockAxis::NtpGrade => 1.2,
        }
    }
}

/// Deployment state of the path (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeployAxis {
    /// Every domain runs HOPs.
    Full,
    /// `X` does not deploy: its domain runs no HOPs
    /// ([`Topology::without_hops`]), so it produces no receipts, and
    /// its performance can only be measured end-to-end over the segment
    /// between the nearest deployed HOPs (3→6), which is exactly where
    /// the collector's [`PathAnalysis::segment_spanning`] must localize
    /// it.
    Partial,
}

impl DeployAxis {
    /// Every level of this axis — the `--filter` vocabulary.
    pub const ALL: [DeployAxis; 2] = [DeployAxis::Full, DeployAxis::Partial];

    /// Stable axis label for filters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DeployAxis::Full => "full",
            DeployAxis::Partial => "partial",
        }
    }
}

/// The lying strategy exercised in a cell (threat model of §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversaryAxis {
    /// Everyone reports honestly.
    Honest,
    /// `X` hides its loss by fabricating egress receipts for every
    /// packet its ingress saw (§3.1).
    BlameShift,
    /// `X` hides delay by shaving its egress timestamps (§3.1).
    Sugarcoat,
    /// `X` drops the marker packets that drive Algorithm 1 (§5.3).
    MarkerDrop,
    /// `X` blame-shifts and its downstream neighbor `N` covers the lie
    /// (§3.1 collusion).
    Collude,
    /// `X` fast-paths the packets it *guesses* will be sampled — the
    /// bias attack Algorithm 1 is designed to defeat (§5.1).
    SampleBias,
    /// Two non-adjacent domains (`L` and `N`) hide their own loss
    /// independently. §3.1's localization argument applies per liar:
    /// *both* must surface, each on an inter-domain link adjacent to
    /// itself, while the innocent `X` between them stays clean.
    TwoLiars,
}

impl AdversaryAxis {
    /// Every strategy, in cycling order — the single source of truth
    /// for grid construction and the `--filter` vocabulary.
    pub const ALL: [AdversaryAxis; 7] = [
        AdversaryAxis::Honest,
        AdversaryAxis::BlameShift,
        AdversaryAxis::Sugarcoat,
        AdversaryAxis::MarkerDrop,
        AdversaryAxis::Collude,
        AdversaryAxis::SampleBias,
        AdversaryAxis::TwoLiars,
    ];

    /// Stable label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryAxis::Honest => "honest",
            AdversaryAxis::BlameShift => "blame-shift",
            AdversaryAxis::Sugarcoat => "sugarcoat",
            AdversaryAxis::MarkerDrop => "marker-drop",
            AdversaryAxis::Collude => "collude",
            AdversaryAxis::SampleBias => "sample-bias",
            AdversaryAxis::TwoLiars => "two-liars",
        }
    }

    /// Strategies that only make sense when `X` has loss to hide.
    /// (`TwoLiars` brings its own loss inside `L` and `N`.)
    fn needs_loss(&self) -> bool {
        matches!(self, AdversaryAxis::BlameShift | AdversaryAxis::Collude)
    }

    /// Can this strategy be exercised meaningfully in the given
    /// environment?
    ///
    /// * loss-hiding needs loss to hide;
    /// * the sample-bias attack needs a closed-form slow path to
    ///   fast-path against (not a congestion series) and ideal clocks
    ///   (its "estimate must sit far above the fast path" check is
    ///   meaningless once clock offsets can push the estimate around).
    fn legal(&self, delay: DelayAxis, loss: LossAxis, clock: ClockAxis) -> bool {
        if self.needs_loss() && loss.rate() <= 0.0 {
            return false;
        }
        match self {
            AdversaryAxis::SampleBias => delay != DelayAxis::Congested && clock == ClockAxis::Ideal,
            _ => true,
        }
    }

    /// The lies a path tells at this level, in the order they apply.
    /// `seed` draws the sample-bias attacker's jittered slow path.
    pub(crate) fn lies(&self, seed: u64) -> Vec<Lie> {
        let blame_shift = |liar| Lie::BlameShift {
            liar,
            claimed_delay: SimDuration::from_micros(300),
        };
        match self {
            AdversaryAxis::Honest => Vec::new(),
            AdversaryAxis::BlameShift => vec![blame_shift("X")],
            AdversaryAxis::Sugarcoat => vec![Lie::Sugarcoat {
                liar: "X",
                shave: SimDuration::from_millis(5),
            }],
            AdversaryAxis::MarkerDrop => vec![Lie::MarkerDrop { liar: "X" }],
            AdversaryAxis::Collude => vec![blame_shift("X"), Lie::CoverUp { accomplice: "N" }],
            AdversaryAxis::SampleBias => vec![Lie::FastPath {
                liar: "X",
                fast: SimDuration::from_micros(FAST_PATH_US),
                seed,
            }],
            AdversaryAxis::TwoLiars => vec![blame_shift("L"), blame_shift("N")],
        }
    }

    /// The domains whose egress link a run at this level must flag,
    /// and no other link; `None` where the evidence is not a flagged
    /// link (the marker dropper's vanished markers, the coalition's
    /// absorbed loss, the defeated bias).
    pub(crate) fn exposes(&self) -> Option<&'static [&'static str]> {
        match self {
            AdversaryAxis::Honest => Some(&[]),
            AdversaryAxis::BlameShift | AdversaryAxis::Sugarcoat => Some(&["X"]),
            AdversaryAxis::TwoLiars => Some(&["L", "N"]),
            AdversaryAxis::MarkerDrop | AdversaryAxis::Collude | AdversaryAxis::SampleBias => None,
        }
    }

    /// Every way `analysis` of a path that told `lies` at this level
    /// falls short of §3.1, as one message each: a liar's link not
    /// flagged, a flagged link no liar explains, or a blame-shifter
    /// whose own books still show its loss. The fleet's verdicts and
    /// the matrix's exposure check share it.
    pub(crate) fn failures(
        &self,
        lies: &[Lie],
        topology: &Topology,
        analysis: &PathAnalysis,
    ) -> Vec<String> {
        let flagged = flagged(analysis);
        let mut failures = Vec::new();
        if let Some(liars) = self.exposes() {
            let expected: Vec<(u16, u16)> = liars
                .iter()
                .filter_map(|l| topology.egress_link(l))
                .collect();
            if expected.is_empty() {
                if !flagged.is_empty() {
                    failures.push(format!(
                        "false accusation: honest path flagged links {flagged:?}"
                    ));
                }
            } else {
                for (up, down) in expected.iter().filter(|l| !flagged.contains(l)) {
                    failures.push(format!(
                        "liar not exposed: {up}→{down} missing from {flagged:?}"
                    ));
                }
                if let Some((up, down)) = flagged.iter().find(|l| !expected.contains(l)) {
                    failures.push(format!(
                        "false accusation: innocent link {up}→{down} flagged"
                    ));
                }
            }
        }
        for lie in lies {
            if let Lie::BlameShift { liar, .. } = *lie {
                // The lie's whole point: the liar must *look* lossless.
                match analysis.domain(liar).and_then(|d| d.estimate.loss.rate()) {
                    Some(est) if est < 0.02 => {}
                    other => failures.push(format!(
                        "blame-shift failed to hide {liar} loss ({other:?})"
                    )),
                }
            }
        }
        failures
    }
}

/// The delay (µs) a sample-bias attacker gives the packets it wants to
/// look good on (well below either closed-form model's typical transit).
const FAST_PATH_US: u64 = 30;

/// One point of the grid, which `Cell::scenario` turns into a
/// [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Position in the grid (stable across runs).
    pub id: usize,
    /// Delay model inside `X`.
    pub delay: DelayAxis,
    /// Loss process inside `X`.
    pub loss: LossAxis,
    /// Reordering inside `X`.
    pub reorder: ReorderAxis,
    /// Sampling rate `σ`-rate at every HOP.
    pub sampling_rate: f64,
    /// Clock quality at every HOP.
    pub clock: ClockAxis,
    /// Deployment state of the path.
    pub deploy: DeployAxis,
    /// The lie under test.
    pub adversary: AdversaryAxis,
    /// Master seed; every random choice in the cell derives from it.
    pub seed: u64,
}

impl Cell {
    /// Compact human-readable label.
    pub fn label(&self) -> String {
        format!(
            "cell{:03} {} {} {} σ={:.2} {} {} {}",
            self.id,
            self.delay_token(),
            self.loss_token(),
            self.reorder_token(),
            self.sampling_rate,
            self.clock.name(),
            self.deploy.name(),
            self.adversary.name()
        )
    }

    /// Detailed delay token ("const300us", "jitter100+800us",
    /// "congested").
    fn delay_token(&self) -> &'static str {
        match self.delay {
            DelayAxis::Constant => "const300us",
            DelayAxis::Jitter => "jitter100+800us",
            DelayAxis::Congested => "congested",
        }
    }

    /// Detailed loss token.
    fn loss_token(&self) -> String {
        match self.loss {
            LossAxis::None => "lossless".to_string(),
            LossAxis::Uniform(r) => format!("uniform{:.0}%", r * 100.0),
            LossAxis::Gilbert(r, b) => format!("gilbert{:.0}%xb{b:.0}", r * 100.0),
        }
    }

    /// Detailed reorder token.
    fn reorder_token(&self) -> String {
        match self.reorder {
            ReorderAxis::None => "inorder".to_string(),
            ReorderAxis::Window { p, shift_us } => {
                format!("reorder{:.0}%<{}us", p * 100.0, shift_us)
            }
        }
    }
}

/// What a cell's evaluation concluded. Field order (and therefore the
/// serialized form) is stable; `tests/scenario_matrix.rs` compares two
/// evaluations of one cell byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellVerdict {
    /// The evaluated cell's id.
    pub id: usize,
    /// The evaluated cell's label.
    pub label: String,
    /// Packets injected at the path head.
    pub trace_len: usize,
    /// Honest run: did every inter-domain link check out?
    pub honest_consistent: bool,
    /// Honest run: receipt-derived loss rate for `X` (for partial
    /// deployment, for the segment spanning `X`).
    pub x_loss_est: f64,
    /// Honest run: ground-truth loss rate for `X`.
    pub x_loss_truth: f64,
    /// Honest run: receipt-derived median transit delay for `X` (ms;
    /// for partial deployment, for the segment spanning `X`).
    pub x_delay_est_ms: f64,
    /// Honest run: ground-truth median transit delay for `X` (ms).
    pub x_delay_truth_ms: f64,
    /// Honest run: matched samples backing the `X` delay estimate.
    pub matched_samples: usize,
    /// Adversary run: links flagged inconsistent, as `(up, down)` HOPs.
    pub flagged_links: Vec<(u16, u16)>,
    /// Adversary run: one-line account of how the lie surfaced.
    pub exposure: String,
    /// Every per-cell invariant that failed (empty = cell passes).
    pub failures: Vec<String>,
}

impl CellVerdict {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Tolerances for the accuracy invariant (the paper's Figures 2/3
/// operate in this regime for comparable sample counts).
const LOSS_TOL: f64 = 0.04;
const DELAY_TOL_MS: f64 = 0.25;
const DELAY_REL_TOL: f64 = 0.25;

/// Loss the two liars of [`AdversaryAxis::TwoLiars`] carry inside
/// their own domains (`L` and `N`), independent of the `X` loss axis.
const TWO_LIAR_LOSS: (f64, f64) = (0.10, 4.0);

/// The delay-accuracy tolerance for a cell given the ground-truth
/// median: base tolerance plus clock-skew slack.
fn delay_tolerance(cell: &Cell, truth_ms: f64) -> f64 {
    DELAY_TOL_MS.max(DELAY_REL_TOL * truth_ms) + cell.clock.slack_ms()
}

/// The ground-truth band the delay estimate must land in. For the
/// closed-form delay models the band collapses to the true median; a
/// congestion series is bimodal (quiet vs. burst), so the *sample*
/// median's realization noise across the gap is unbounded and the
/// estimate is instead checked against the q30–q70 truth band (a
/// ±2σ-of-the-sample-median band for ≥ 90 samples is within ±11
/// percentiles; q30–q70 leaves 4σ of margin).
fn truth_delay_band(cell: &Cell, truth_delays_ms: &[f64]) -> (f64, f64) {
    match cell.delay {
        DelayAxis::Congested => (
            quantile(truth_delays_ms, 0.3),
            quantile(truth_delays_ms, 0.7),
        ),
        _ => {
            let m = median(truth_delays_ms);
            (m, m)
        }
    }
}

/// The default grid: delay (3) × loss (3) × reorder (2) × sampling
/// rate (2) × clock (2) = 72 environments, each contributing three
/// cells — two full-deployment cells cycling deterministically through
/// the legal adversary strategies, plus a third slot that alternates
/// between a partial-deployment (honest) cell and another adversary —
/// 216 cells total.
pub fn full_grid(base_seed: u64) -> Vec<Cell> {
    let delays = DelayAxis::ALL;
    let losses = [
        LossAxis::None,
        LossAxis::Uniform(0.05),
        LossAxis::Gilbert(0.12, 4.0),
    ];
    let reorders = [
        ReorderAxis::None,
        ReorderAxis::Window {
            p: 0.05,
            shift_us: 300,
        },
    ];
    let rates = [0.05, 0.02];
    let clocks = ClockAxis::ALL;
    let all = AdversaryAxis::ALL;
    // Deterministically pick the next strategy legal in the
    // environment; the cursor persists across environments so every
    // strategy lands in many of them.
    fn next_legal(
        all: &[AdversaryAxis],
        cursor: &mut usize,
        delay: DelayAxis,
        loss: LossAxis,
        clock: ClockAxis,
    ) -> AdversaryAxis {
        loop {
            #[expect(
                clippy::indexing_slicing,
                reason = "all is the fixed, non-empty axis table"
            )]
            let cand = all[*cursor % all.len()];
            *cursor += 1;
            if cand.legal(delay, loss, clock) {
                return cand;
            }
        }
    }

    let mut cells = Vec::new();
    let mut cursor = 0usize;
    let mut env_idx = 0usize;
    let push = |cells: &mut Vec<Cell>, delay, loss, reorder, rate, clock, deploy, adversary| {
        let id = cells.len();
        cells.push(Cell {
            id,
            delay,
            loss,
            reorder,
            sampling_rate: rate,
            clock,
            deploy,
            adversary,
            seed: base_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(id as u64),
        });
    };
    for delay in delays {
        for loss in losses {
            for reorder in reorders {
                for rate in rates {
                    for clock in clocks {
                        for _ in 0..2 {
                            let adversary = next_legal(&all, &mut cursor, delay, loss, clock);
                            push(
                                &mut cells,
                                delay,
                                loss,
                                reorder,
                                rate,
                                clock,
                                DeployAxis::Full,
                                adversary,
                            );
                        }
                        // Third slot: every other environment tests
                        // partial deployment (honest — lying with a
                        // non-deployer in the gap is exercised by the
                        // dedicated integration tests).
                        if env_idx.is_multiple_of(2) {
                            push(
                                &mut cells,
                                delay,
                                loss,
                                reorder,
                                rate,
                                clock,
                                DeployAxis::Partial,
                                AdversaryAxis::Honest,
                            );
                        } else {
                            let adversary = next_legal(&all, &mut cursor, delay, loss, clock);
                            push(
                                &mut cells,
                                delay,
                                loss,
                                reorder,
                                rate,
                                clock,
                                DeployAxis::Full,
                                adversary,
                            );
                        }
                        env_idx += 1;
                    }
                }
            }
        }
    }
    cells
}

impl Cell {
    /// The cell's honest scenario — a 120 ms, 40 kpps trace through
    /// Figure 1 with the cell's delay, loss and reordering inside `X`
    /// (and, for two liars, loss of their own inside `L` and `N`), and
    /// no HOPs in `X` when it does not deploy, under the cell's
    /// sampling rate and clocks — with its trace's packets, generated
    /// once per cell: a congested `X` delays them by their own fates.
    pub(crate) fn scenario(&self) -> (Scenario, Vec<TracePacket>) {
        let trace = TraceConfig {
            target_pps: 40_000.0,
            duration: SimDuration::from_millis(120),
            ..TraceConfig::paper_default(1, self.seed ^ 0x7ace)
        };
        let packets = TraceGenerator::new(trace).generate();
        let mut fig = Figure1::ideal();
        fig.x_transit = ChannelConfig {
            delay: match self.delay {
                DelayAxis::Constant => DelayModel::Constant(SimDuration::from_micros(300)),
                DelayAxis::Jitter => DelayModel::Jitter {
                    base: SimDuration::from_micros(100),
                    jitter: SimDuration::from_micros(800),
                },
                DelayAxis::Congested => DelayModel::Series(self.congested_fates(&packets)),
            },
            loss: self.loss.channel_loss(),
            reorder: self.reorder.model(),
            seed: self.seed ^ 0xc4a1,
        };
        if self.adversary == AdversaryAxis::TwoLiars {
            // The liars are L and N; give each loss of its own to hide.
            let lossy = |seed| ChannelConfig {
                delay: DelayModel::Constant(SimDuration::from_micros(300)),
                loss: Some(TWO_LIAR_LOSS),
                reorder: ReorderModel::none(),
                seed,
            };
            fig.l_transit = lossy(self.seed ^ 0x11a2);
            fig.n_transit = lossy(self.seed ^ 0x22b3);
        }
        let config = RunConfig {
            sampling_rate: self.sampling_rate,
            aggregate_size: 400,
            // Near the paper's µ = 10⁻³ regime: markers are identifiable
            // (digest above µ) and always sampled, so they MUST stay a
            // small fraction of the sample set or a sample-bias attacker
            // fast-pathing the top of digest space skews the estimate.
            marker_rate: 2e-3,
            j_window: SimDuration::from_millis(2),
            clocks: self.clock.mode(),
            seed: self.seed ^ 0x10c5,
            ..RunConfig::default()
        };
        let topology = match self.deploy {
            DeployAxis::Full => fig.build(),
            DeployAxis::Partial => fig.build().without_hops("X"),
        };
        (Scenario::new(trace, topology, config), packets)
    }

    /// Per-packet fates of the cell's trace through the congested
    /// bottleneck (the Figure-2 congestion methodology scaled to the
    /// cell's 40 kpps trace: bursty UDP oversubscribes the link while
    /// ON, the queue oscillates through several milliseconds, and drops
    /// stay rare).
    ///
    /// The series is generated over the full trace schedule and applied
    /// positionally to X's input stream. When an upstream domain thins
    /// that stream (two-liar cells, where `L` carries loss), the series
    /// acts as a fixed *exogenous* congestion schedule rather than a
    /// closed-loop function of X's exact arrivals — still a valid
    /// bursty delay process (truth and estimates both derive from the
    /// applied delays), just not re-simulated per survivor set.
    fn congested_fates(&self, packets: &[TracePacket]) -> Vec<PacketFate> {
        // Sized against the cell's ~130 Mbps foreground so the queue
        // oscillates through several milliseconds without tail drops,
        // with bursts short enough (~12 ms cycle) that the delay
        // process mixes ~10 times within the 120 ms trace — congestion
        // states must decorrelate across marker windows or the
        // matched-sample median degenerates to a handful of effective
        // observations.
        let bottleneck = BottleneckConfig {
            rate_bps: 200e6,
            queue_limit: SimDuration::from_millis(30),
            prop_delay: SimDuration::from_micros(500),
        };
        let cross = CrossTraffic::BurstyUdp {
            rate_bps: 400e6,
            mean_on: SimDuration::from_millis(2),
            mean_off: SimDuration::from_millis(10),
            pkt_bytes: 1250,
        };
        foreground_delays(packets, &bottleneck, &cross, self.seed ^ 0x0b07)
    }
}

/// Quantile of an unsorted sample (NaN for an empty one), via the same
/// Hyndman-Fan estimator the verifier uses.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    vpm_stats::empirical_quantile(&v, q)
}

/// Median of an unsorted sample (NaN for an empty one).
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The receipt-derived median delay of an estimate (NaN when no
/// samples matched).
fn est_median(estimate: &vpm_core::verify::DomainEstimate) -> f64 {
    estimate
        .delay
        .as_ref()
        .and_then(|d| {
            d.quantiles
                .iter()
                .find(|q| (q.q - 0.5).abs() < 1e-9)
                .map(|q| q.value)
        })
        .unwrap_or(f64::NAN)
}

/// A domain's receipt-derived loss rate (NaN when incomputable).
fn loss_est(analysis: &PathAnalysis, name: &str) -> f64 {
    analysis
        .domain(name)
        .and_then(|d| d.estimate.loss.rate())
        .unwrap_or(f64::NAN)
}

fn flagged(analysis: &PathAnalysis) -> Vec<(u16, u16)> {
    analysis
        .flagged_links()
        .iter()
        .map(|l| (l.up.0, l.down.0))
        .collect()
}

/// The L→X inter-domain link (where a lie by `L`'s egress surfaces).
const LX_LINK: (u16, u16) = (3, 4);
/// The X→N inter-domain link, where every lie by `X`'s egress must
/// surface.
const XN_LINK: (u16, u16) = (5, 6);
/// The N→D inter-domain link (where a lie by `N`'s egress surfaces).
const ND_LINK: (u16, u16) = (7, 8);
/// One-way delay of each ideal inter-domain link, in ms.
const LINK_DELAY_MS: f64 = 0.05;

/// Evaluate one cell. Pure: the same cell always produces the same
/// verdict, byte for byte.
pub fn evaluate_cell(cell: &Cell) -> CellVerdict {
    let (scenario, packets) = cell.scenario();
    let topo = &scenario.topology;
    let simulation = scenario.simulate(&packets);
    let (honest_run, honest) = scenario.evaluate_simulation(simulation.clone());

    let mut failures = Vec::new();

    // --- Invariant 1: honest receipts are consistent everywhere, ---
    // --- under ideal AND NTP-grade clocks (no false accusations). ---
    let honest_consistent = honest.all_consistent();
    if !honest_consistent {
        failures.push(format!(
            "honest run ({} clocks) flagged links {:?}",
            cell.clock.name(),
            flagged(&honest)
        ));
    }

    // --- Invariant 2: estimates track retained ground truth. ---
    let (x_loss_truth, x_delays_ms) = truth(&honest_run, "X");
    let x_delay_truth_ms = median(x_delays_ms);
    let (band_lo, band_hi) = truth_delay_band(cell, x_delays_ms);

    // Under full deployment X's own report is checked; under partial
    // deployment X runs no HOPs and the bracketing 3→6 segment must
    // localize its behaviour instead (§8). The segment includes the two
    // ideal inter-domain links bracketing X.
    let (x_estimate, delay_offset_ms) = match cell.deploy {
        DeployAxis::Full => (honest.domain("X").map(|x| &x.estimate), 0.0),
        DeployAxis::Partial => {
            let segment = topo
                .domain_by_name("X")
                .and_then(|x| honest.segment_spanning(x.id));
            match segment {
                // Impossible on Figure 1 by construction; recorded as a
                // failure (NaN estimates fail the tolerance checks
                // below too) rather than special-cased.
                None => {
                    failures.push("partial analysis produced no segment spanning X".to_string())
                }
                Some(seg) if (seg.up_hop, seg.down_hop) != (HopId(3), HopId(6)) => {
                    failures.push(format!(
                        "segment spanning X is {}→{}, expected 3→6",
                        seg.up_hop, seg.down_hop
                    ));
                }
                Some(_) => {}
            }
            (segment.map(|s| &s.estimate), 2.0 * LINK_DELAY_MS)
        }
    };
    let (x_loss_est, x_delay_est_ms, matched_samples) =
        x_estimate.map_or((f64::NAN, f64::NAN, 0), |e| {
            let loss = e.loss.rate().unwrap_or(f64::NAN);
            (loss, est_median(e), e.matched_samples)
        });

    // NaN-safe: an unavailable estimate must count as out of tolerance.
    let loss_ok = (x_loss_est - x_loss_truth).abs() <= LOSS_TOL;
    if !loss_ok {
        failures.push(format!(
            "X loss estimate {x_loss_est:.4} strays from truth {x_loss_truth:.4}"
        ));
    }
    let delay_tol = delay_tolerance(cell, x_delay_truth_ms + delay_offset_ms);
    let (lo, hi) = (
        band_lo + delay_offset_ms - delay_tol,
        band_hi + delay_offset_ms + delay_tol,
    );
    // NaN-safe: a NaN estimate must count as out of tolerance.
    let delay_ok = x_delay_est_ms >= lo && x_delay_est_ms <= hi;
    if !delay_ok {
        failures.push(format!(
            "X median delay estimate {x_delay_est_ms:.4} ms outside truth band \
             [{lo:.4}, {hi:.4}] ms"
        ));
    }
    // Neighbors in the honest run: clean — except in two-liar cells,
    // where L and N carry loss of their own and must instead be
    // *measured* accurately before they start lying.
    for name in ["L", "N"] {
        let loss = loss_est(&honest, name);
        if cell.adversary == AdversaryAxis::TwoLiars {
            let truth_rate = truth(&honest_run, name).0;
            // NaN-safe: an unavailable estimate must count as out of
            // tolerance.
            if loss.is_nan() || (loss - truth_rate).abs() > LOSS_TOL {
                failures.push(format!(
                    "honest liar-to-be {name} measured {loss:.4} vs truth {truth_rate:.4}"
                ));
            }
        } else if loss.is_nan() || loss > 0.02 {
            failures.push(format!("honest neighbor {name} shows loss {loss:.4}"));
        }
    }

    // --- Invariant 3: the cell's lie is exposed where it must be. ---
    let (flagged_links, exposure) = match cell.adversary {
        AdversaryAxis::Honest => match cell.deploy {
            DeployAxis::Full => (Vec::new(), "no adversary".to_string()),
            DeployAxis::Partial => (
                Vec::new(),
                format!(
                    "partial deployment: segment 3→6 localizes X \
                     (loss {x_loss_est:.3} vs truth {x_loss_truth:.3})"
                ),
            ),
        },
        adversary => {
            let lying = Scenario {
                lies: adversary.lies(cell.seed ^ 0xb1a5),
                ..scenario.clone()
            };
            // Receipt lies leave what the network did as it was: the
            // liars sign lies over the honest simulation.
            let simulation = if lying.lies.iter().any(Lie::forwards) {
                lying.simulate(&packets)
            } else {
                simulation
            };
            let (run, analysis) = lying.evaluate_simulation(simulation);
            failures.extend(adversary.failures(&lying.lies, topo, &analysis));
            let fl = flagged(&analysis);
            let detail = match adversary {
                AdversaryAxis::BlameShift => format!(
                    "X hid loss {x_loss_truth:.3}→{:.3}; link 5→6 flagged: {}",
                    loss_est(&analysis, "X"),
                    fl.contains(&XN_LINK)
                ),
                AdversaryAxis::Sugarcoat => {
                    format!("X shaved 5 ms; link 5→6 flagged: {}", fl.contains(&XN_LINK))
                }
                AdversaryAxis::MarkerDrop => {
                    let marker = Threshold::from_rate(lying.config.marker_rate);
                    marker_drop_evidence(&honest_run, &run, marker, &mut failures)
                }
                AdversaryAxis::Collude => {
                    // The coalition hides the X→N mismatch…
                    if fl.contains(&XN_LINK) {
                        failures.push("cover-up failed to hide the X→N link".to_string());
                    }
                    // …but §3.1: the loss does not vanish — the
                    // accomplice's own books inherit it.
                    let n_est = analysis
                        .domain("N")
                        .and_then(|d| d.estimate.loss.rate())
                        .unwrap_or(0.0);
                    if n_est < 0.5 * x_loss_truth {
                        failures.push(format!(
                            "accomplice N absorbed only {n_est:.4} of X's {x_loss_truth:.4} loss"
                        ));
                    }
                    format!(
                        "coalition quiet; N absorbed X's loss ({n_est:.3} vs {x_loss_truth:.3})"
                    )
                }
                AdversaryAxis::SampleBias => {
                    // X fast-paths packets whose digest passes the σ
                    // threshold — its best guess at "will be sampled".
                    // Algorithm 1 keys the real sampling decision on a
                    // *future marker*, so the guess misses and the
                    // estimate still tracks the slow path.
                    let truth_med = median(truth(&run, "X").1);
                    let est_med = analysis
                        .domain("X")
                        .map_or(f64::NAN, |x| est_median(&x.estimate));
                    let fast_ms = SimDuration::from_micros(FAST_PATH_US).as_nanos() as f64 / 1e6;
                    let tol = delay_tolerance(cell, truth_med);
                    // NaN-safe: a NaN estimate must count as a failure.
                    let tracks_truth = (est_med - truth_med).abs() <= tol;
                    if !tracks_truth {
                        failures.push(format!(
                            "bias skewed the estimate: {est_med:.4} ms vs truth {truth_med:.4} ms"
                        ));
                    }
                    let above_fast_path = est_med > 3.0 * fast_ms;
                    if !above_fast_path {
                        failures.push(format!(
                            "estimate {est_med:.4} ms collapsed toward the fast path {fast_ms:.4} ms"
                        ));
                    }
                    format!(
                        "bias defeated: estimate {est_med:.3} ms tracks truth {truth_med:.3} ms, \
                         not the {fast_ms:.3} ms fast path"
                    )
                }
                AdversaryAxis::TwoLiars => format!(
                    "both liars exposed: 3→4 flagged {}, 7→8 flagged {}, X clean {}",
                    fl.contains(&LX_LINK),
                    fl.contains(&ND_LINK),
                    !fl.contains(&XN_LINK)
                ),
                AdversaryAxis::Honest => String::new(),
            };
            (fl, detail)
        }
    };

    CellVerdict {
        id: cell.id,
        label: cell.label(),
        trace_len: honest_run.trace_len,
        honest_consistent,
        x_loss_est,
        x_loss_truth,
        x_delay_est_ms,
        x_delay_truth_ms,
        matched_samples,
        flagged_links,
        exposure,
        failures,
    }
}

/// A transit domain's true loss rate and per-packet delays (NaN and
/// none when the run kept no truth for it).
fn truth<'a>(run: &'a PathRun, name: &str) -> (f64, &'a [f64]) {
    run.truth(name).map_or((f64::NAN, &[]), |t| {
        (1.0 - t.delivered as f64 / t.sent as f64, &t.delays_ms)
    })
}

/// §5.3's evidence against a marker dropper, with a failure for each
/// piece missing: markers X's ingress sampled that no HOP downstream of
/// X acknowledges (markers are *expected* receipts, pinned between HOPs
/// 4 and 6), and sample matching across 4→6 collapsing against the
/// honest run.
fn marker_drop_evidence(
    honest: &PathRun,
    attacked: &PathRun,
    marker: Threshold,
    failures: &mut Vec<String>,
) -> String {
    let (Some(h4), Some(h6)) = (attacked.hop(HopId(4)), attacked.hop(HopId(6))) else {
        failures.push("marker-drop run lacks HOP 4 or 6".to_string());
        return String::new();
    };
    let downstream: HashSet<_> = h6.samples().iter().map(|r| r.pkt_id).collect();
    let vanished = h4
        .samples()
        .iter()
        .filter(|r| marker.passes(r.pkt_id.0) && !downstream.contains(&r.pkt_id))
        .count();
    // Samples the verifier can match across the 4→6 segment.
    let matched = |run: &PathRun| match (run.hop(HopId(4)), run.hop(HopId(6))) {
        (Some(h4), Some(h6)) => {
            vpm_core::verify::Verifier::default()
                .estimate_domain(
                    &h4.samples(),
                    &h4.batch.aggregates,
                    &h6.samples(),
                    &h6.batch.aggregates,
                )
                .matched_samples
        }
        _ => 0,
    };
    let (m_honest, m_attacked) = (matched(honest), matched(attacked));
    if vanished == 0 {
        failures.push("marker-drop left no vanished-marker evidence".to_string());
    }
    if (m_attacked as f64) >= 0.7 * m_honest as f64 {
        failures.push(format!(
            "marker-drop did not collapse sample matching ({m_honest}→{m_attacked})"
        ));
    }
    format!("{vanished} expected markers vanished inside X; matches {m_honest}→{m_attacked}")
}

/// Evaluate many cells, `jobs` at a time, merging verdicts in cell
/// order. [`evaluate_cell`] is pure and the fan-out runs on
/// [`vpm_core::par_map_indexed`] — so the result (and its serialized
/// form) is byte-identical for every `jobs >= 1`.
pub fn evaluate_grid(cells: &[Cell], jobs: usize) -> Vec<CellVerdict> {
    vpm_core::par_map_indexed(cells, jobs, |_, cell| evaluate_cell(cell))
}

/// One `axis=value` predicate over cells (the `--filter` grammar of
/// `vpm matrix`).
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixFilter {
    /// `delay=<`[`DelayAxis::name`]`>`
    Delay(DelayAxis),
    /// `loss=<`[`LossAxis::FAMILIES`]`>`
    Loss(&'static str),
    /// `reorder=<`[`ReorderAxis::FAMILIES`]`>`
    Reorder(&'static str),
    /// `rate=<f64>` (exact sampling-rate match)
    Rate(f64),
    /// `clock=<`[`ClockAxis::name`]`>`
    Clock(ClockAxis),
    /// `deploy=<`[`DeployAxis::name`]`>`
    Deploy(DeployAxis),
    /// `adversary=<`[`AdversaryAxis::name`]`>`
    Adversary(AdversaryAxis),
}

impl MatrixFilter {
    /// Does the cell match the predicate?
    pub fn matches(&self, cell: &Cell) -> bool {
        match *self {
            MatrixFilter::Delay(v) => cell.delay == v,
            MatrixFilter::Loss(v) => cell.loss.family() == v,
            MatrixFilter::Reorder(v) => cell.reorder.family() == v,
            MatrixFilter::Rate(v) => (cell.sampling_rate - v).abs() < 1e-12,
            MatrixFilter::Clock(v) => cell.clock == v,
            MatrixFilter::Deploy(v) => cell.deploy == v,
            MatrixFilter::Adversary(v) => cell.adversary == v,
        }
    }
}

/// Find the axis level whose name matches `value`; the error lists the
/// legal values (derived from the same canonical array the grid is
/// built from, so new axis levels are filterable without touching the
/// parser).
fn lookup<T: Copy>(
    all: &[T],
    name_of: impl Fn(&T) -> &'static str,
    key: &str,
    value: &str,
) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|v| name_of(v) == value)
        .ok_or_else(|| {
            format!(
                "unknown {key} value '{value}' (expected one of: {})",
                all.iter().map(&name_of).collect::<Vec<_>>().join(", ")
            )
        })
}

/// Parse one `axis=value` filter; the error names the axis's legal
/// values.
pub fn parse_filter(arg: &str) -> Result<MatrixFilter, String> {
    let Some((key, value)) = arg.split_once('=') else {
        return Err(format!("filter '{arg}' is not of the form axis=value"));
    };
    match key {
        "delay" => Ok(MatrixFilter::Delay(lookup(
            &DelayAxis::ALL,
            |v| v.name(),
            key,
            value,
        )?)),
        "loss" => Ok(MatrixFilter::Loss(lookup(
            &LossAxis::FAMILIES,
            |v| v,
            key,
            value,
        )?)),
        "reorder" => Ok(MatrixFilter::Reorder(lookup(
            &ReorderAxis::FAMILIES,
            |v| v,
            key,
            value,
        )?)),
        "rate" => value
            .parse::<f64>()
            .map(MatrixFilter::Rate)
            .map_err(|_| format!("rate value '{value}' is not a number")),
        "clock" => Ok(MatrixFilter::Clock(lookup(
            &ClockAxis::ALL,
            |v| v.name(),
            key,
            value,
        )?)),
        "deploy" => Ok(MatrixFilter::Deploy(lookup(
            &DeployAxis::ALL,
            |v| v.name(),
            key,
            value,
        )?)),
        "adversary" => Ok(MatrixFilter::Adversary(lookup(
            &AdversaryAxis::ALL,
            |v| v.name(),
            key,
            value,
        )?)),
        _ => Err(format!(
            "unknown filter axis '{key}' (expected one of: delay, loss, reorder, rate, clock, \
             deploy, adversary)"
        )),
    }
}

/// Render the verdict table the `vpm matrix` subcommand prints.
/// `cells` and `verdicts` must be parallel slices.
pub fn render_matrix_table(cells: &[Cell], verdicts: &[CellVerdict]) -> String {
    assert_eq!(cells.len(), verdicts.len(), "parallel slices");
    let failed = verdicts.iter().filter(|v| !v.passed()).count();
    let mut s = format!(
        "scenario matrix: {} cells, {} failed\n",
        cells.len(),
        failed
    );
    s.push_str(&format!(
        "{:>4}  {:<15} {:<13} {:<15} {:>5}  {:<5} {:<7} {:<11} {:<4}  {}\n",
        "id", "delay", "loss", "reorder", "σ", "clock", "deploy", "adversary", "ok", "exposure"
    ));
    for (c, v) in cells.iter().zip(verdicts) {
        s.push_str(&format!(
            "{:>4}  {:<15} {:<13} {:<15} {:>5.2}  {:<5} {:<7} {:<11} {:<4}  {}\n",
            c.id,
            c.delay_token(),
            c.loss_token(),
            c.reorder_token(),
            c.sampling_rate,
            c.clock.name(),
            c.deploy.name(),
            c.adversary.name(),
            if v.passed() { "pass" } else { "FAIL" },
            v.exposure
        ));
        for f in &v.failures {
            s.push_str(&format!("      !! {f}\n"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_216_cells_and_covers_every_axis_value() {
        let grid = full_grid(1);
        assert_eq!(grid.len(), 216);
        let mut delays = HashSet::new();
        let mut adversaries = HashSet::new();
        let mut rates = HashSet::new();
        let mut clocks = HashSet::new();
        let mut deploys = HashSet::new();
        for c in &grid {
            delays.insert(c.delay.name());
            adversaries.insert(c.adversary.name());
            rates.insert(format!("{:.3}", c.sampling_rate));
            clocks.insert(c.clock.name());
            deploys.insert(c.deploy.name());
        }
        assert_eq!(delays.len(), 3);
        assert_eq!(rates.len(), 2);
        assert_eq!(clocks.len(), 2);
        assert_eq!(deploys.len(), 2);
        assert_eq!(
            adversaries.len(),
            7,
            "all seven adversary values must appear: {adversaries:?}"
        );
        for c in &grid {
            // Loss-hiding strategies never land on lossless environments.
            if c.adversary.needs_loss() {
                assert!(c.loss.rate() > 0.0, "{}", c.label());
            }
            // The sample-bias attack needs a closed-form slow path and
            // ideal clocks.
            if c.adversary == AdversaryAxis::SampleBias {
                assert_ne!(c.delay, DelayAxis::Congested, "{}", c.label());
                assert_eq!(c.clock, ClockAxis::Ideal, "{}", c.label());
            }
            // Partial-deployment cells are honest.
            if c.deploy == DeployAxis::Partial {
                assert_eq!(c.adversary, AdversaryAxis::Honest, "{}", c.label());
            }
        }
        // Ids are positional and unique.
        for (i, c) in grid.iter().enumerate() {
            assert_eq!(c.id, i);
        }
    }

    #[test]
    fn grid_is_deterministic_in_the_seed() {
        assert_eq!(full_grid(42), full_grid(42));
        assert_ne!(
            full_grid(1)[0].seed,
            full_grid(2)[0].seed,
            "different base seeds give different cell seeds"
        );
    }

    #[test]
    fn labels_are_unique() {
        let grid = full_grid(7);
        let labels: HashSet<String> = grid.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), grid.len());
    }

    #[test]
    fn one_honest_cell_evaluates_clean() {
        let grid = full_grid(3);
        let cell = grid
            .iter()
            .find(|c| {
                c.adversary == AdversaryAxis::Honest
                    && c.deploy == DeployAxis::Full
                    && c.clock == ClockAxis::Ideal
            })
            .expect("grid contains honest cells");
        let v = evaluate_cell(cell);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert!(v.honest_consistent);
        assert!(v.matched_samples > 0);
    }

    #[test]
    fn evaluate_grid_is_identical_for_any_job_count() {
        let grid = full_grid(5);
        let slice = &grid[..4];
        let serial = evaluate_grid(slice, 1);
        let parallel = evaluate_grid(slice, 3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn filters_parse_and_select() {
        let grid = full_grid(9);
        let f = parse_filter("adversary=two-liars").unwrap();
        let n = grid.iter().filter(|c| f.matches(c)).count();
        assert!(n > 0, "two-liar cells exist");
        for c in grid.iter().filter(|c| f.matches(c)) {
            assert_eq!(c.adversary, AdversaryAxis::TwoLiars);
        }
        let f = parse_filter("clock=ntp").unwrap();
        assert!(grid.iter().filter(|c| f.matches(c)).count() >= 72);
        let f = parse_filter("deploy=partial").unwrap();
        assert_eq!(grid.iter().filter(|c| f.matches(c)).count(), 36);
        let f = parse_filter("rate=0.05").unwrap();
        assert_eq!(grid.iter().filter(|c| f.matches(c)).count(), 108);

        assert!(parse_filter("nonsense").is_err());
        assert!(parse_filter("delay=warp").is_err());
        assert!(parse_filter("rate=fast").is_err());
        assert!(parse_filter("axis=value").is_err());
    }

    #[test]
    fn table_renders_one_row_per_cell() {
        let grid = full_grid(11);
        let cells = &grid[..2];
        let verdicts = evaluate_grid(cells, 2);
        let table = render_matrix_table(cells, &verdicts);
        assert!(table.starts_with("scenario matrix: 2 cells"));
        assert!(table.lines().count() >= 3, "{table}");
        for c in cells {
            assert!(table.contains(c.adversary.name()), "{table}");
        }
    }
}
