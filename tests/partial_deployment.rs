//! Partial deployment (§8) under adversarial conditions, end to end.
//!
//! The paper's incentive argument for non-deployers: "a domain has to
//! report on its performance in order to prevent its neighbors from
//! blaming their problems on it". These tests drive the sharpest form
//! of that claim — a domain that both *lies* and sits *inside* an
//! uncovered segment — and assert that `analyze_partial` localizes the
//! blame onto the covered segment spanning the gap, never onto a
//! deployed, honest domain.

use std::collections::HashSet;
use vpm::netsim::channel::{ChannelConfig, DelayModel};
use vpm::netsim::reorder::ReorderModel;
use vpm::packet::{DomainId, HopId, SimDuration};
use vpm::sim::partial::analyze_partial;
use vpm::sim::run::{PathRun, RunConfig};
use vpm::sim::topology::{Figure1, Topology};
use vpm::sim::{Lie, Scenario};
use vpm::trace::TraceConfig;

/// Figure-1 run with the given loss inside X, and X telling `lies`.
fn lossy_x_scenario(x_loss: f64, seed: u64, lies: Vec<Lie>) -> (Topology, PathRun) {
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
    let run = scenario.evaluate().0;
    (scenario.topology, run)
}

/// X hides its loss by fabricating egress receipts.
fn blame_shift() -> Lie {
    Lie::BlameShift {
        liar: "X",
        claimed_delay: SimDuration::from_micros(300),
    }
}

fn deployed_except(topo: &Topology, name: &str) -> HashSet<DomainId> {
    topo.domains
        .iter()
        .filter(|d| d.name != name)
        .map(|d| d.id)
        .collect()
}

/// §8, the missing case: the lying domain sits *inside* the uncovered
/// segment. X drops 18% of its traffic AND fabricates egress receipts
/// claiming full delivery — but X never deployed, so its receipts do
/// not exist as far as the collector is concerned. The loss must land
/// on the covered 3→6 segment spanning X, with every deployed domain
/// measuring clean.
#[test]
fn liar_inside_uncovered_segment_blame_lands_on_the_spanning_segment() {
    // X lies exactly as a deployed blame-shifter would…
    let (topo, run) = lossy_x_scenario(0.18, 77, vec![blame_shift()]);
    // …but nobody is listening: X is outside the deployment.
    let deployed = deployed_except(&topo, "X");
    let a = analyze_partial(&topo, &run, &deployed);

    // X has no per-domain report, doctored or otherwise.
    assert!(a.domains.iter().all(|d| d.name != "X"));

    // The covered segment bracketing the gap carries the loss: X's
    // fabricated receipts (HOPs 4 and 5) are ignored, and HOP 3 vs
    // HOP 6 tells the truth.
    let x_id = topo.domain_by_name("X").unwrap().id;
    let seg = a.segment_spanning(x_id).expect("segment over X");
    assert_eq!((seg.up_hop, seg.down_hop), (HopId(3), HopId(6)));
    let seg_loss = seg.estimate.loss.rate().expect("segment loss computable");
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
/// timestamps by 5 ms. Its receipts being ignored, the segment delay
/// estimate still reports the true transit (no sugarcoating visible),
/// because the bracketing HOPs 3 and 6 are honest.
#[test]
fn delay_lie_inside_uncovered_segment_cannot_sugarcoat_the_segment() {
    let (topo, run) = lossy_x_scenario(0.0, 78, vec![]);
    let honest_deployed = deployed_except(&topo, "X");
    let honest_seg_delay = {
        let a = analyze_partial(&topo, &run, &honest_deployed);
        let x_id = topo.domain_by_name("X").unwrap().id;
        let seg = a.segment_spanning(x_id).unwrap();
        seg.estimate
            .delay
            .as_ref()
            .expect("matched samples exist")
            .quantiles
            .iter()
            .find(|q| (q.q - 0.5).abs() < 1e-9)
            .unwrap()
            .value
    };
    let sugarcoat = Lie::Sugarcoat {
        liar: "X",
        shave: SimDuration::from_millis(5),
    };
    let (_, run) = lossy_x_scenario(0.0, 78, vec![sugarcoat]);
    let a = analyze_partial(&topo, &run, &honest_deployed);
    let x_id = topo.domain_by_name("X").unwrap().id;
    let seg = a.segment_spanning(x_id).unwrap();
    let lied_delay = seg
        .estimate
        .delay
        .as_ref()
        .expect("matched samples exist")
        .quantiles
        .iter()
        .find(|q| (q.q - 0.5).abs() < 1e-9)
        .unwrap()
        .value;
    assert!(
        (lied_delay - honest_seg_delay).abs() < 1e-9,
        "segment estimate ({lied_delay} ms) must ignore the non-deployer's doctored \
         receipts entirely (honest: {honest_seg_delay} ms)"
    );
}

/// Control: when X *does* deploy and lies the same way, the lie is
/// caught (flagged link) rather than silently absorbed — deployment
/// buys exposure, non-deployment buys blame. Together with the test
/// above this is the §8 incentive in executable form.
#[test]
fn same_lie_with_full_deployment_is_exposed_instead() {
    let (topo, run) = lossy_x_scenario(0.18, 77, vec![blame_shift()]);
    let analysis = vpm::sim::verdict::analyze_path(&topo, &run);
    let flagged: Vec<_> = analysis
        .flagged_links()
        .iter()
        .map(|l| (l.up, l.down))
        .collect();
    assert!(
        flagged.contains(&(HopId(5), HopId(6))),
        "deployed liar is exposed on its own link: {flagged:?}"
    );
}
