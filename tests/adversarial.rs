//! Threat-model integration tests (paper §2.1, §3.1, §5.1, §5.3):
//! every lying strategy the paper discusses, exercised through the
//! public API, with the exposure the paper promises.

use vpm::core::sampling::DelaySampler;
use vpm::core::verify::match_samples;
use vpm::hash::Threshold;
use vpm::netsim::channel::{ChannelConfig, DelayModel};
use vpm::netsim::reorder::ReorderModel;
use vpm::packet::{HopId, SimDuration};
use vpm::sim::run::{PathRun, RunConfig};
use vpm::sim::topology::{Figure1, Topology};
use vpm::sim::verdict::PathAnalysis;
use vpm::sim::{Lie, Scenario};
use vpm::stats::quantile::{empirical_quantile, sort_samples};
use vpm::trace::{TraceConfig, TraceGenerator};

/// Figure 1 with 25 % bursty loss inside X, telling `lies`.
fn lossy_scenario(seed: u64, lies: Vec<Lie>) -> (Topology, PathRun, PathAnalysis) {
    let t = TraceConfig {
        target_pps: 50_000.0,
        duration: SimDuration::from_millis(250),
        ..TraceConfig::paper_default(1, seed)
    };
    let mut fig = Figure1::ideal();
    fig.x_transit = ChannelConfig {
        delay: DelayModel::Constant(SimDuration::from_micros(300)),
        loss: Some((0.25, 5.0)),
        reorder: ReorderModel::none(),
        seed,
    };
    let cfg = RunConfig {
        sampling_rate: 0.05,
        aggregate_size: 500,
        marker_rate: 0.01,
        j_window: SimDuration::from_millis(2),
        ..RunConfig::default()
    };
    let scenario = Scenario {
        lies,
        ..Scenario::new(t, fig.build(), cfg)
    };
    let (run, analysis) = scenario.evaluate();
    (scenario.topology, run, analysis)
}

/// `liar` hides its loss by fabricating egress receipts.
fn blame_shift(liar: &'static str) -> Lie {
    Lie::BlameShift {
        liar,
        claimed_delay: SimDuration::from_micros(300),
    }
}

#[test]
fn lie_hides_loss_from_own_books_but_not_from_the_link() {
    let (_, run, analysis) = lossy_scenario(31, vec![blame_shift("X")]);
    let true_loss = {
        let x = run.truth("X").unwrap();
        1.0 - x.delivered as f64 / x.sent as f64
    };
    assert!(true_loss > 0.2);

    // Books look clean; the link does not.
    assert!(analysis.domain("X").unwrap().estimate.loss.rate().unwrap() < 0.01);
    let flagged = analysis.flagged_links();
    assert_eq!(flagged.len(), 1);
    assert_eq!(flagged[0].up, HopId(5));
    // The inconsistency includes count mismatches whose magnitude
    // reflects the hidden loss.
    let mismatch_total: u64 = flagged[0]
        .report
        .inconsistencies
        .iter()
        .filter_map(|i| match i {
            vpm::core::consistency::LinkInconsistency::CountMismatch {
                up_cnt, down_cnt, ..
            } => Some(up_cnt.saturating_sub(*down_cnt)),
            _ => None,
        })
        .sum();
    let x_truth = run.truth("X").unwrap();
    let hidden = x_truth.sent - x_truth.delivered;
    assert!(
        mismatch_total as f64 > 0.8 * hidden as f64,
        "mismatches {mismatch_total} vs hidden {hidden}"
    );
}

#[test]
fn full_collusion_chain_pushes_blame_to_the_last_liar() {
    // X lies; N covers at ingress but must then either absorb the loss
    // or lie again at egress. Here N lies again (egress fabricated from
    // its ingress claims) — and the N→D link exposes it to D.
    let lies = vec![
        blame_shift("X"),
        Lie::CoverUp { accomplice: "N" },
        blame_shift("N"),
    ];
    let (topo, _, analysis) = lossy_scenario(37, lies);
    // X→N and N internal books are clean...
    assert!(analysis
        .links
        .iter()
        .find(|l| l.up == HopId(5))
        .unwrap()
        .report
        .is_consistent());
    assert!(analysis.domain("N").unwrap().estimate.loss.rate().unwrap() < 0.01);
    // ...but D never received the packets: the N→D link is flagged and
    // N is implicated to D (§3.1: "in which case N is exposed to D as a
    // liar").
    let nd = analysis.links.iter().find(|l| l.up == HopId(7)).unwrap();
    assert!(!nd.report.is_consistent());
    assert_eq!(nd.implicates.1, topo.domain_by_name("D").unwrap().id);
}

#[test]
fn cover_up_without_further_lies_absorbs_the_loss() {
    // The third §3.1 outcome: X lies, N covers X at its ingress but
    // reports its own egress honestly. No link is flagged — but X's
    // loss has not disappeared; N's own books now show it. Collusion
    // means absorbing the liar's losses.
    let lies = vec![blame_shift("X"), Lie::CoverUp { accomplice: "N" }];
    let (_, run, analysis) = lossy_scenario(53, lies);
    let true_loss = {
        let x = run.truth("X").unwrap();
        1.0 - x.delivered as f64 / x.sent as f64
    };

    // The coalition's links are quiet, and X's books look perfect…
    assert!(analysis
        .links
        .iter()
        .find(|l| l.up == HopId(5))
        .unwrap()
        .report
        .is_consistent());
    assert!(analysis.domain("X").unwrap().estimate.loss.rate().unwrap() < 0.01);
    // …but N inherits what X hid, at full magnitude.
    let n_loss = analysis.domain("N").unwrap().estimate.loss.rate().unwrap();
    assert!(
        n_loss > 0.8 * true_loss,
        "N absorbed {n_loss:.4} of X's {true_loss:.4}"
    );
    // The honest neighbor L is untouched.
    assert!(
        analysis
            .domain("L")
            .unwrap()
            .estimate
            .loss
            .rate()
            .unwrap_or(0.0)
            < 0.01
    );
}

#[test]
fn sugarcoating_delay_cannot_beat_max_diff() {
    // X is slow (8 ms transit) and shaves 6 ms off its egress
    // timestamps to look fast. Its own estimate improves — but the
    // X→N link now shows >MaxDiff transit and X is exposed.
    let t = TraceConfig {
        target_pps: 50_000.0,
        duration: SimDuration::from_millis(250),
        ..TraceConfig::paper_default(1, 41)
    };
    let mut fig = Figure1::ideal();
    fig.x_transit = ChannelConfig {
        delay: DelayModel::Constant(SimDuration::from_millis(8)),
        loss: None,
        reorder: ReorderModel::none(),
        seed: 41,
    };
    let cfg = RunConfig {
        sampling_rate: 0.05,
        aggregate_size: 500,
        marker_rate: 0.01,
        j_window: SimDuration::from_millis(2),
        ..RunConfig::default()
    };
    let scenario = Scenario {
        lies: vec![Lie::Sugarcoat {
            liar: "X",
            shave: SimDuration::from_millis(6),
        }],
        ..Scenario::new(t, fig.build(), cfg)
    };
    let (_, analysis) = scenario.evaluate();
    // The lie works on X's own numbers…
    let p50 = analysis
        .domain("X")
        .unwrap()
        .estimate
        .delay
        .as_ref()
        .unwrap()
        .quantiles
        .iter()
        .find(|q| q.q == 0.5)
        .unwrap()
        .value;
    assert!(p50 < 3.0, "sugarcoated p50 {p50}");
    // …and blows up on the link.
    let xn = analysis.links.iter().find(|l| l.up == HopId(5)).unwrap();
    let delay_violations = xn
        .report
        .inconsistencies
        .iter()
        .filter(|i| {
            matches!(
                i,
                vpm::core::consistency::LinkInconsistency::ExcessLinkDelay { .. }
            )
        })
        .count();
    assert!(delay_violations > 0);
}

/// The §5.1 design goal, quantified: a domain fast-paths (0.1 ms) the
/// packets it predicts will be sampled and congests (10 ms) the rest.
/// Under a naive scheme a packet is sampled iff its own digest passes σ,
/// which the domain computes at forwarding time, so the p90 estimate
/// hides the congestion. Under VPM's future markers it cannot predict
/// the sample set and must treat every packet alike: the estimate holds.
///
/// Returns the p90 delay (ms) the domain hides under each scheme:
/// `(naive, vpm)`.
fn sample_bias_ms(seed: u64) -> (f64, f64) {
    let (congested_ms, fast_ms) = (10.0, 0.1);
    let trace = TraceGenerator::new(TraceConfig {
        target_pps: 50_000.0,
        duration: SimDuration::from_millis(600),
        ..TraceConfig::paper_default(1, seed)
    })
    .generate();
    let sigma = Threshold::from_rate(0.01);
    let p90 = |delays: Vec<f64>| empirical_quantile(&sort_samples(delays), 0.9);

    let sampled: Vec<bool> = trace
        .iter()
        .map(|tp| sigma.passes(tp.packet.digest().0))
        .collect();
    let delay = |s: &bool| if *s { fast_ms } else { congested_ms };
    let naive_true = p90(sampled.iter().map(delay).collect());
    let naive_est = p90(sampled.iter().filter(|&&s| s).map(delay).collect());

    let marker = Threshold::from_rate(5e-3);
    let mut hop_in = DelaySampler::new(marker, sigma);
    let mut hop_out = DelaySampler::new(marker, sigma);
    let congested = SimDuration::from_secs_f64(congested_ms / 1e3);
    for tp in &trace {
        hop_in.observe(tp.packet.digest(), tp.ts);
        hop_out.observe(tp.packet.digest(), tp.ts + congested);
    }
    let matched = match_samples(&hop_in.drain(), &hop_out.drain());
    let vpm_est = p90(matched.iter().map(|m| m.delay_ms()).collect());
    (naive_true - naive_est, (congested_ms - vpm_est).abs())
}

#[test]
fn sample_bias_attack_fails_against_vpm() {
    let (naive, vpm) = sample_bias_ms(43);
    assert!(vpm < 0.5, "VPM hides {vpm} ms");
    assert!(naive > 5.0, "naive scheme hides only {naive} ms");
}

#[test]
fn naive_sampling_is_exploitable_vpm_is_not() {
    let (naive, vpm) = sample_bias_ms(3);
    assert!(
        naive > 5.0,
        "naive scheme should be badly biased: {naive} ms"
    );
    assert!(vpm < 0.5, "VPM must stay unbiased: {vpm} ms");
}

#[test]
fn marker_dropping_is_self_defeating() {
    // §5.3: a domain dropping markers desyncs verification — and since
    // cutting points are threshold events on the same digest, every
    // cutting point *is* a marker, so the attack also destroys the
    // aggregate boundaries X's own loss accounting needs. Meanwhile
    // markers "are expected to be always sampled and reported on":
    // HOP 4's receipts contain every marker, HOP 5's contain none of
    // the dropped ones — standing evidence against X.
    let t = TraceConfig {
        target_pps: 50_000.0,
        duration: SimDuration::from_millis(250),
        ..TraceConfig::paper_default(1, 47)
    };
    let cfg = RunConfig {
        sampling_rate: 0.05,
        aggregate_size: 500,
        marker_rate: 0.01,
        j_window: SimDuration::from_millis(2),
        ..RunConfig::default()
    };
    let scenario = Scenario {
        lies: vec![Lie::MarkerDrop { liar: "X" }],
        ..Scenario::new(t, Figure1::ideal().build(), cfg)
    };
    let (run, analysis) = scenario.evaluate();

    // 1. X's loss performance becomes incomputable (join collapses):
    //    self-defeating for a domain that wanted to look good.
    let x = analysis.domain("X").unwrap();
    assert!(
        x.estimate.loss.sent == 0 || x.estimate.join.joined.len() <= 1,
        "boundary destruction must collapse the join: {:?}",
        x.estimate.join.joined.len()
    );
    // 2. Matched delay samples collapse too.
    let h4 = run.hop(HopId(4)).unwrap();
    let h5 = run.hop(HopId(5)).unwrap();
    let (h4, h5) = (h4.samples(), h5.samples());
    let matched = vpm::core::verify::match_samples(&h4, &h5).len();
    assert!(
        (matched as f64) < 0.2 * h4.len() as f64,
        "matched {matched} of {}",
        h4.len()
    );
    // 3. Every marker HOP 4 reported is missing downstream — evidence.
    let marker = vpm::hash::Threshold::from_rate(0.01);
    let h5_ids: std::collections::HashSet<_> = h5.iter().map(|r| r.pkt_id).collect();
    let vanished = h4
        .iter()
        .filter(|r| marker.passes(r.pkt_id.0) && !h5_ids.contains(&r.pkt_id))
        .count();
    assert!(vanished > 50, "only {vanished} markers vanished");
}
