//! Partial deployment (§8) under adversarial conditions, end to end.
//!
//! The paper's incentive argument for non-deployers: "a domain has to
//! report on its performance in order to prevent its neighbors from
//! blaming their problems on it". A non-deployer is a domain that runs
//! no HOPs (`Topology::without_hops`). These tests drive the sharpest
//! form of that claim — a domain that both *lies* and sits *inside* an
//! uncovered segment — and assert that the collector localizes the
//! blame onto the segment spanning the gap, never onto a deployed,
//! honest domain.

use vpm::core::verify::DomainEstimate;
use vpm::netsim::channel::{ChannelConfig, DelayModel};
use vpm::netsim::reorder::ReorderModel;
use vpm::packet::{HopId, SimDuration};
use vpm::sim::run::RunConfig;
use vpm::sim::topology::Figure1;
use vpm::sim::verdict::PathAnalysis;
use vpm::sim::{Lie, Scenario};
use vpm::trace::TraceConfig;

/// Figure 1 with the given loss inside X, which deploys or not, and X
/// telling `lies`: the collector's analysis of the path.
fn lossy_x_scenario(x_loss: f64, seed: u64, x_deploys: bool, lies: Vec<Lie>) -> PathAnalysis {
    let t = TraceConfig {
        target_pps: 50_000.0,
        duration: SimDuration::from_millis(250),
        ..TraceConfig::paper_default(1, seed)
    };
    let mut fig = Figure1::ideal();
    fig.x_transit = ChannelConfig {
        delay: DelayModel::Constant(SimDuration::from_micros(300)),
        loss: Some((x_loss, 4.0)),
        reorder: ReorderModel::none(),
        seed: seed ^ 0x9a,
    };
    let mut topology = fig.build();
    if !x_deploys {
        topology = topology.without_hops("X");
    }
    let cfg = RunConfig {
        sampling_rate: 0.05,
        aggregate_size: 500,
        marker_rate: 0.01,
        j_window: SimDuration::from_millis(2),
        ..RunConfig::default()
    };
    let scenario = Scenario {
        lies,
        ..Scenario::new(t, topology, cfg)
    };
    scenario.evaluate().1
}

/// X hides its loss by fabricating egress receipts.
fn blame_shift() -> Lie {
    Lie::BlameShift {
        liar: "X",
        claimed_delay: SimDuration::from_micros(300),
    }
}

/// The estimate over the segment spanning X, which must run from HOP 3
/// to HOP 6.
fn x_segment(a: &PathAnalysis) -> &DomainEstimate {
    let x = Figure1::ideal().build().domain_by_name("X").unwrap().id;
    let seg = a.segment_spanning(x).expect("segment over X");
    assert_eq!((seg.up_hop, seg.down_hop), (HopId(3), HopId(6)));
    &seg.estimate
}

/// §8, the missing case: the lying domain sits *inside* the uncovered
/// segment. X drops 18% of its traffic AND would fabricate egress
/// receipts claiming full delivery — but X never deployed, so it has
/// no HOPs to sign them. The loss must land on the covered 3→6
/// segment spanning X, with every deployed domain measuring clean.
#[test]
fn liar_inside_uncovered_segment_blame_lands_on_the_spanning_segment() {
    let a = lossy_x_scenario(0.18, 77, false, vec![blame_shift()]);
    // X has no per-domain report, doctored or otherwise.
    assert!(a.domain("X").is_none());
    // The covered segment bracketing the gap carries the loss: HOP 3
    // vs HOP 6 tells the truth.
    let seg_loss = x_segment(&a).loss.rate().expect("segment loss computable");
    assert!(
        (seg_loss - 0.18).abs() < 0.04,
        "segment loss {seg_loss} must carry X's hidden 18%"
    );
    // Deployed, honest domains measure clean — the lie cannot be
    // shifted onto them.
    for d in &a.domains {
        let loss = d.estimate.loss.rate().unwrap_or(0.0);
        assert!(loss < 0.02, "deployed {} shows loss {loss}", d.name);
    }
}

/// The same scenario with a *delay* lie: X sugarcoats its egress
/// timestamps by 5 ms. With no HOPs, X signs nothing, so the segment
/// delay estimate reports the true transit (no sugarcoating visible),
/// because the bracketing HOPs 3 and 6 are honest.
#[test]
fn delay_lie_inside_uncovered_segment_cannot_sugarcoat_the_segment() {
    let median = |a: &PathAnalysis| {
        let delay = x_segment(a).delay.clone().expect("matched samples exist");
        delay.quantiles.iter().find(|q| q.q == 0.5).unwrap().value
    };
    let honest = median(&lossy_x_scenario(0.0, 78, false, vec![]));
    let sugarcoat = Lie::Sugarcoat {
        liar: "X",
        shave: SimDuration::from_millis(5),
    };
    let lied = median(&lossy_x_scenario(0.0, 78, false, vec![sugarcoat]));
    assert!(
        (lied - honest).abs() < 1e-9,
        "segment estimate ({lied} ms) must not move with the non-deployer's lie \
         (honest: {honest} ms)"
    );
}

/// Control: when X *does* deploy and lies the same way, the lie is
/// caught (flagged link) rather than silently absorbed — deployment
/// buys exposure, non-deployment buys blame. Together with the test
/// above this is the §8 incentive in executable form.
#[test]
fn same_lie_with_full_deployment_is_exposed_instead() {
    let analysis = lossy_x_scenario(0.18, 77, true, vec![blame_shift()]);
    let flagged: Vec<_> = analysis
        .flagged_links()
        .iter()
        .map(|l| (l.up, l.down))
        .collect();
    assert!(
        flagged.contains(&(HopId(5), HopId(6))),
        "deployed liar is exposed on its own link: {flagged:?}"
    );
    assert!(analysis.segments.is_empty());
}
