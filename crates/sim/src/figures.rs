//! The paper's §7.2 evaluation, run through the shipped pipeline.
//!
//! Every figure is a list of [`Scenario`]s: a synthetic trace pushed
//! through the Figure-1 topology with the figure's channel as domain
//! `X`'s transit, under a [`RunConfig`]. Each scenario runs through
//! [`Scenario::evaluate`] (collector, processor, signed wire codec,
//! bus, and the verifier the scenario matrix and the fleet use), so a
//! regression anywhere on that path moves these tables. Each figure
//! generates its trace once: every scenario of it runs over those
//! packets, and the delay figures' congestion is computed from them.
//!
//! | table | driver | what it reads |
//! |-------|--------|---------------|
//! | Figure 2: delay accuracy vs sampling rate × loss | [`fig2`] | `X`'s matched delays against `X`'s true delays |
//! | Figure 3: loss granularity vs loss rate | [`fig3`] | `X`'s aggregate join |
//! | §7.2 "Verifiability" | [`verifiability`] | `X`'s delay estimate, and the one HOPs 3 and 6 give of it |
//!
//! `tests/golden/{fig2,fig3,verifiability}_quick.txt` pin the rendered
//! `quick` tables.

use std::collections::HashMap;
use vpm_core::receipt::AggReceipt;
use vpm_core::verify::{DelayEstimate, DomainEstimate, JoinResult, Verifier};
use vpm_netsim::channel::{ChannelConfig, DelayModel};
use vpm_netsim::congestion::{foreground_delays, BottleneckConfig, CrossTraffic, PacketFate};
use vpm_netsim::reorder::ReorderModel;
use vpm_packet::{HopId, SimDuration};
use vpm_stats::accuracy::{quantile_error, DEFAULT_QUANTILES};
use vpm_trace::{TraceConfig, TraceGenerator, TracePacket};

use crate::run::{HopTuning, PathRun, RunConfig};
use crate::scenario::Scenario;
use crate::topology::Figure1;

/// Mean Gilbert-Elliott burst length of the paper's loss inside `X`.
const LOSS_BURST: f64 = 5.0;
/// Loss inside `X` in the verifiability sweep (the paper's 25 %).
const VERIFIABILITY_LOSS: f64 = 0.25;
/// `X`'s constant transit delay in Figure 3, µs (granularity ignores it).
const FIG3_TRANSIT_US: u64 = 200;

/// Figure 2: "the accuracy with which domain X's delay performance is
/// estimated as a function of X's sampling rate, for different levels
/// of loss". Congestion is a bursty UDP flow through a drop-tail
/// bottleneck inside `X`; Gilbert-Elliott loss comes on top.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Path rate (the paper's sequences run at 100 kpps).
    pub pps: f64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Sampling rates of every HOP (the figure's x-axis).
    pub sampling_rates: Vec<f64>,
    /// Loss rates inside `X` (the figure's curves).
    pub loss_rates: Vec<f64>,
    /// Marker rate `µ`.
    pub marker_rate: f64,
    /// Seed of the trace, the congestion and the loss.
    pub seed: u64,
}

impl Fig2Config {
    /// The paper's configuration: 100 kpps, rates {5, 1, 0.5, 0.1} %,
    /// loss {0, 10, 25, 50} %.
    pub fn paper(duration: SimDuration, seed: u64) -> Self {
        Fig2Config {
            pps: 100_000.0,
            duration,
            sampling_rates: vec![0.05, 0.01, 0.005, 0.001],
            loss_rates: vec![0.0, 0.10, 0.25, 0.50],
            marker_rate: 1e-3,
            seed,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn quick(seed: u64) -> Self {
        Fig2Config {
            pps: 50_000.0,
            sampling_rates: vec![0.05, 0.01],
            loss_rates: vec![0.0, 0.25],
            marker_rate: 5e-3,
            ..Self::paper(SimDuration::from_millis(500), seed)
        }
    }
}

/// One point of Figure 2.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Sampling rate (x-axis).
    pub sampling_rate: f64,
    /// Loss rate (curve).
    pub loss_rate: f64,
    /// Delay-estimation accuracy: worst quantile error in ms (y-axis).
    pub accuracy_ms: f64,
    /// Matched samples the estimate used.
    pub matched: usize,
}

/// Figure 3: "the granularity at which domain X's loss performance is
/// computed as a function of the loss rate introduced by X". Lost
/// cutting points merge aggregates, so granularity degrades, smoothly.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Path rate (paper: 100 kpps).
    pub pps: f64,
    /// Trace duration (needs to cover many aggregates).
    pub duration: SimDuration,
    /// Packets per aggregate (paper: 100 000, i.e. 1 s of traffic).
    pub aggregate_size: u64,
    /// Loss rates inside `X` (the x-axis, paper: 0–50 %).
    pub loss_rates: Vec<f64>,
    /// Mean Gilbert-Elliott burst length.
    pub loss_burst: f64,
    /// Safety threshold `J`.
    pub j_window: SimDuration,
    /// Seed of the trace and the loss.
    pub seed: u64,
}

impl Fig3Config {
    /// The paper's configuration at a chosen duration.
    pub fn paper(duration: SimDuration, seed: u64) -> Self {
        Fig3Config {
            pps: 100_000.0,
            duration,
            aggregate_size: 100_000,
            loss_rates: vec![
                0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
            ],
            loss_burst: LOSS_BURST,
            j_window: SimDuration::from_millis(10),
            seed,
        }
    }

    /// A scaled-down configuration for tests: 1000-packet aggregates, so
    /// granularity is ~20 ms instead of 1 s, with the same shape.
    pub fn quick(seed: u64) -> Self {
        Fig3Config {
            pps: 50_000.0,
            duration: SimDuration::from_millis(800),
            aggregate_size: 1000,
            loss_rates: vec![0.0, 0.25, 0.50],
            loss_burst: 4.0,
            j_window: SimDuration::from_millis(1),
            seed,
        }
    }
}

/// One point of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    /// Loss rate (x-axis).
    pub loss_rate: f64,
    /// Mean joined-aggregate span in seconds (y-axis).
    pub granularity_secs: f64,
    /// Mean joined-aggregate span in packets.
    pub granularity_pkts: f64,
    /// Joined aggregates the verifier could compute loss over.
    pub joined: usize,
    /// Loss rate computed from the joined receipts.
    pub computed_loss: f64,
}

/// §7.2 "Verifiability": `X`'s delay estimated from its own HOPs (4,
/// 5) at its own rate and from HOPs 3 and 6 at the neighbour rate. The
/// paper: at 1 % sampling and 25 % loss, neighbours at 1 % verify to
/// ~2 ms, at 0.1 % to ~5 ms.
#[derive(Debug, Clone)]
pub struct VerifiabilityConfig {
    /// Path rate.
    pub pps: f64,
    /// Trace duration.
    pub duration: SimDuration,
    /// `X`'s own sampling rate (paper: 1 %).
    pub x_rate: f64,
    /// Neighbour sampling rates to sweep (paper: 1 % and 0.1 %).
    pub neighbor_rates: Vec<f64>,
    /// Marker rate `µ`.
    pub marker_rate: f64,
    /// Seed of the trace, the congestion and the loss.
    pub seed: u64,
}

impl VerifiabilityConfig {
    /// The paper's scenario.
    pub fn paper(duration: SimDuration, seed: u64) -> Self {
        VerifiabilityConfig {
            pps: 100_000.0,
            duration,
            x_rate: 0.01,
            neighbor_rates: vec![0.01, 0.001],
            marker_rate: 1e-3,
            seed,
        }
    }

    /// A scaled-down configuration for tests.
    pub fn quick(seed: u64) -> Self {
        VerifiabilityConfig {
            pps: 50_000.0,
            x_rate: 0.05,
            neighbor_rates: vec![0.05, 0.005],
            marker_rate: 5e-3,
            ..Self::paper(SimDuration::from_millis(500), seed)
        }
    }
}

/// One point of the verifiability sweep.
#[derive(Debug, Clone)]
pub struct VerifiabilityPoint {
    /// Neighbour sampling rate.
    pub neighbor_rate: f64,
    /// Accuracy of `X`'s own estimate (HOPs 4→5), ms.
    pub self_accuracy_ms: f64,
    /// Accuracy of the neighbours' estimate (HOPs 3→6), ms.
    pub verify_accuracy_ms: f64,
    /// Matched samples backing `X`'s own estimate.
    pub matched_self: usize,
    /// Matched samples backing the neighbours' estimate.
    pub matched_verify: usize,
}

fn trace(pps: f64, duration: SimDuration, seed: u64) -> TraceConfig {
    TraceConfig {
        target_pps: pps,
        duration,
        ..TraceConfig::paper_default(1, seed)
    }
}

/// The congestion both delay figures put inside `X`: per-packet fates
/// of the trace's `packets` behind a bursty UDP flow at the paper's
/// bottleneck.
fn congestion(packets: &[TracePacket], seed: u64) -> Vec<PacketFate> {
    foreground_delays(
        packets,
        &BottleneckConfig::paper_default(),
        &CrossTraffic::paper_bursty_udp(),
        seed,
    )
}

/// One scenario: `trace` (whose packets are `packets`) through Figure
/// 1 with `x` as domain `X`'s transit, under `cfg`. Returns the run and
/// the collector's estimate of `X` (every Figure-1 analysis has one).
fn run_x(
    trace: TraceConfig,
    packets: &[TracePacket],
    x: ChannelConfig,
    cfg: RunConfig,
) -> Option<(PathRun, DomainEstimate)> {
    let topology = Figure1 {
        x_transit: x,
        ..Figure1::ideal()
    }
    .build();
    let scenario = Scenario::new(trace, topology, cfg);
    let (run, analysis) = scenario.evaluate_simulation(scenario.simulate(packets));
    let estimate = analysis.domain("X")?.estimate.clone();
    Some((run, estimate))
}

/// `X`'s true per-packet transit delays in ms.
fn x_truth(run: &PathRun) -> &[f64] {
    run.truth("X").map_or(&[], |t| &t.delays_ms)
}

/// Worst quantile error (ms) of an estimate against the true delays;
/// infinite when there is nothing to compare.
fn delay_error(truth: &[f64], estimate: Option<&DelayEstimate>) -> f64 {
    estimate
        .and_then(|d| quantile_error(truth, &d.delays_ms, &DEFAULT_QUANTILES))
        .map_or(f64::INFINITY, |r| r.max_error)
}

/// Run Figure 2: one scenario per loss rate × sampling rate.
pub fn fig2(cfg: &Fig2Config) -> Vec<Fig2Point> {
    let trace = trace(cfg.pps, cfg.duration, cfg.seed);
    let packets = TraceGenerator::new(trace).generate();
    let fates = congestion(&packets, cfg.seed ^ 0xc0);
    let mut points = Vec::new();
    for &loss in &cfg.loss_rates {
        let x = ChannelConfig {
            delay: DelayModel::Series(fates.clone()),
            loss: (loss > 0.0).then_some((loss, LOSS_BURST)),
            reorder: ReorderModel::none(),
            seed: cfg.seed ^ (loss * 1000.0) as u64,
        };
        for &rate in &cfg.sampling_rates {
            let run_cfg = RunConfig {
                sampling_rate: rate,
                marker_rate: cfg.marker_rate,
                ..RunConfig::default()
            };
            let Some((run, estimate)) = run_x(trace, &packets, x.clone(), run_cfg) else {
                continue;
            };
            points.push(Fig2Point {
                sampling_rate: rate,
                loss_rate: loss,
                accuracy_ms: delay_error(x_truth(&run), estimate.delay.as_ref()),
                matched: estimate.matched_samples,
            });
        }
    }
    points
}

/// Figure 2 averaged over `n_seeds` seeds (`seed + k·7919`): one seed's
/// cells carry the realization noise of the bursty congestion process.
pub fn fig2_averaged(cfg: &Fig2Config, n_seeds: u64) -> Vec<Fig2Point> {
    assert!(n_seeds > 0);
    let mut sum = fig2(cfg);
    for k in 1..n_seeds {
        let points = fig2(&Fig2Config {
            seed: cfg.seed.wrapping_add(k * 7919),
            ..cfg.clone()
        });
        for (a, p) in sum.iter_mut().zip(&points) {
            a.accuracy_ms += p.accuracy_ms;
            a.matched += p.matched;
        }
    }
    for a in &mut sum {
        a.accuracy_ms /= n_seeds as f64;
        a.matched /= n_seeds as usize;
    }
    sum
}

/// Render Figure 2 as a table: sampling-rate columns × loss-rate rows.
pub fn render_fig2(points: &[Fig2Point]) -> String {
    let mut rates: Vec<f64> = points.iter().map(|p| p.sampling_rate).collect();
    rates.sort_by(|a, b| b.total_cmp(a));
    rates.dedup();
    let mut losses: Vec<f64> = points.iter().map(|p| p.loss_rate).collect();
    losses.sort_by(|a, b| a.total_cmp(b));
    losses.dedup();

    let mut s = String::from("Figure 2: delay accuracy [ms] vs sampling rate [%]\n");
    s.push_str("loss \\ rate");
    for r in &rates {
        s.push_str(&format!("{:>9.1}%", r * 100.0));
    }
    s.push('\n');
    for &l in &losses {
        s.push_str(&format!("{:>10.0}%", l * 100.0));
        for &r in &rates {
            match points
                .iter()
                .find(|p| p.sampling_rate == r && p.loss_rate == l)
            {
                Some(p) if p.accuracy_ms.is_finite() => {
                    s.push_str(&format!("{:>10.3}", p.accuracy_ms))
                }
                _ => s.push_str("       n/a"),
            }
        }
        s.push('\n');
    }
    s
}

/// The trace-time span (s) of every joined aggregate. HOP 4 sees the
/// whole trace in order, so its aggregates tile it: aggregate `i`
/// starts at the sum of the packet counts before it.
fn joined_spans_secs(trace: &[TracePacket], up: &[AggReceipt], join: &JoinResult) -> Vec<f64> {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(up.iter().scan(0, |at, a| {
            *at += a.pkt_cnt as usize;
            Some(*at)
        }))
        .collect();
    join.joined
        .iter()
        .filter_map(|j| {
            let (s, e) = j.up_range;
            let first = trace.get(*starts.get(s)?)?.ts;
            let last = trace.get(starts.get(e)?.checked_sub(1)?)?.ts;
            Some(last.saturating_since(first).as_secs_f64())
        })
        .collect()
}

/// Run Figure 3: one scenario per loss rate.
pub fn fig3(cfg: &Fig3Config) -> Vec<Fig3Point> {
    let trace_cfg = trace(cfg.pps, cfg.duration, cfg.seed);
    let trace = TraceGenerator::new(trace_cfg).generate();
    let run_cfg = RunConfig {
        aggregate_size: cfg.aggregate_size,
        j_window: cfg.j_window,
        ..RunConfig::default()
    };
    cfg.loss_rates
        .iter()
        .filter_map(|&loss| {
            let x = ChannelConfig {
                delay: DelayModel::Constant(SimDuration::from_micros(FIG3_TRANSIT_US)),
                loss: (loss > 0.0).then_some((loss, cfg.loss_burst)),
                reorder: ReorderModel::none(),
                // `channel::apply` seeds the loss with `seed ^ 0x51ce`:
                // this is the Gilbert-Elliott stream of `cfg.seed ^ 0x6e`
                // the pinned tables were recorded with.
                seed: cfg.seed ^ 0x6e ^ 0x51ce,
            };
            let (run, estimate) = run_x(trace_cfg, &trace, x, run_cfg.clone())?;
            let join = &estimate.join;
            let spans = joined_spans_secs(&trace, &run.hop(HopId(4))?.batch.aggregates, join);
            Some(Fig3Point {
                loss_rate: loss,
                granularity_secs: if spans.is_empty() {
                    f64::INFINITY
                } else {
                    spans.iter().sum::<f64>() / spans.len() as f64
                },
                granularity_pkts: join.mean_span_pkts,
                joined: join.joined.len(),
                computed_loss: join.loss.rate().unwrap_or(f64::NAN),
            })
        })
        .collect()
}

/// Render Figure 3 as a table.
pub fn render_fig3(points: &[Fig3Point]) -> String {
    let mut s = String::from(
        "Figure 3: loss granularity [sec] vs loss rate [%]\n  loss%   granularity[s]   (pkts)   joined   computed-loss%\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:>6.0} {:>16.3} {:>9.0} {:>8} {:>14.2}\n",
            p.loss_rate * 100.0,
            p.granularity_secs,
            p.granularity_pkts,
            p.joined,
            p.computed_loss * 100.0,
        ));
    }
    s
}

/// Run the verifiability sweep: one scenario per neighbour rate, HOPs 3
/// and 6 tuned to it through [`RunConfig::overrides`].
pub fn verifiability(cfg: &VerifiabilityConfig) -> Vec<VerifiabilityPoint> {
    let trace = trace(cfg.pps, cfg.duration, cfg.seed);
    let packets = TraceGenerator::new(trace).generate();
    let x = ChannelConfig {
        delay: DelayModel::Series(congestion(&packets, cfg.seed ^ 0xa1)),
        loss: Some((VERIFIABILITY_LOSS, LOSS_BURST)),
        reorder: ReorderModel::none(),
        seed: cfg.seed ^ 0xb2,
    };
    // HOPs 3 and 6 also see the link on each side of X.
    let links_ms = 2.0 * Figure1::ideal().link_delay.as_secs_f64() * 1e3;
    let base = RunConfig {
        sampling_rate: cfg.x_rate,
        marker_rate: cfg.marker_rate,
        ..RunConfig::default()
    };
    cfg.neighbor_rates
        .iter()
        .filter_map(|&neighbor_rate| {
            let tuning = HopTuning {
                sampling_rate: neighbor_rate,
                aggregate_size: base.aggregate_size,
            };
            let run_cfg = RunConfig {
                overrides: HashMap::from([(HopId(3), tuning), (HopId(6), tuning)]),
                ..base.clone()
            };
            let (run, own) = run_x(trace, &packets, x.clone(), run_cfg)?;
            let (h3, h6) = (run.hop(HopId(3))?, run.hop(HopId(6))?);
            let verify = Verifier::default().estimate_domain(
                &h3.samples(),
                &h3.batch.aggregates,
                &h6.samples(),
                &h6.batch.aggregates,
            );
            let truth = x_truth(&run);
            let truth_3_to_6: Vec<f64> = truth.iter().map(|d| d + links_ms).collect();
            Some(VerifiabilityPoint {
                neighbor_rate,
                self_accuracy_ms: delay_error(truth, own.delay.as_ref()),
                verify_accuracy_ms: delay_error(&truth_3_to_6, verify.delay.as_ref()),
                matched_self: own.matched_samples,
                matched_verify: verify.matched_samples,
            })
        })
        .collect()
}

/// Render the verifiability sweep as a table.
pub fn render_verifiability(points: &[VerifiabilityPoint]) -> String {
    let mut s = String::from(
        "Verifiability (§7.2): X at fixed rate, neighbors swept\n  nbr-rate%   self-acc[ms]   verify-acc[ms]   matched(self/verify)\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:>10.2} {:>14.3} {:>16.3}   {}/{}\n",
            p.neighbor_rate * 100.0,
            p.self_accuracy_ms,
            p.verify_accuracy_ms,
            p.matched_self,
            p.matched_verify,
        ));
    }
    s
}
