//! End-to-end integration: trace → topology run → encoded receipt
//! frames → transport → verification, all through the public facade
//! API.

use vpm::core::processor::default_hop_key;
use vpm::core::verify::Verifier;
use vpm::netsim::channel::{ChannelConfig, DelayModel};
use vpm::netsim::reorder::ReorderModel;
use vpm::packet::{DomainId, HopId, SimDuration};
use vpm::sim::run::{ClockMode, HopTuning, PathRun, RunConfig};
use vpm::sim::topology::{Figure1, Topology};
use vpm::sim::verdict::{analyze_from_transport, PathAnalysis};
use vpm::sim::Scenario;
use vpm::trace::TraceConfig;
use vpm::wire::{
    HopKey, KeyEpoch, Profile, ReceiptTransport, ShardedBus, TransportError, WireEncoder, WireFrame,
};

fn trace(ms: u64, seed: u64) -> TraceConfig {
    TraceConfig {
        target_pps: 50_000.0,
        duration: SimDuration::from_millis(ms),
        ..TraceConfig::paper_default(1, seed)
    }
}

/// Run `trace` through `topology` under `cfg` on a private bus.
fn evaluate(trace: TraceConfig, topology: Topology, cfg: RunConfig) -> (PathRun, PathAnalysis) {
    Scenario::new(trace, topology, cfg).evaluate()
}

fn base_cfg() -> RunConfig {
    RunConfig {
        sampling_rate: 0.03,
        aggregate_size: 1_000,
        marker_rate: 0.01,
        j_window: SimDuration::from_millis(2),
        ..RunConfig::default()
    }
}

#[test]
fn congested_domain_measured_accurately_across_full_path() {
    let t = trace(300, 1);
    let mut fig = Figure1::ideal();
    fig.x_transit = ChannelConfig {
        delay: DelayModel::Jitter {
            base: SimDuration::from_millis(2),
            jitter: SimDuration::from_millis(8),
        },
        loss: Some((0.10, 5.0)),
        reorder: ReorderModel::none(),
        seed: 9,
    };
    let (run, analysis) = evaluate(t, fig.build(), base_cfg());

    assert!(analysis.all_consistent());

    // X's loss estimate matches injected loss.
    let x = analysis.domain("X").unwrap();
    let loss = x.estimate.loss.rate().unwrap();
    assert!((loss - 0.10).abs() < 0.03, "loss {loss}");

    // X's delay median ∈ [2, 10] ms; truth check against ground truth.
    let truth = run.truth("X").unwrap();
    let mut td = truth.delays_ms.clone();
    td.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let true_p50 = vpm::stats::empirical_quantile(&td, 0.5);
    let est = x.estimate.delay.as_ref().unwrap();
    let p50 = est.quantiles.iter().find(|q| q.q == 0.5).unwrap();
    assert!(
        (p50.value - true_p50).abs() < 1.0,
        "est {} vs truth {true_p50}",
        p50.value
    );
    // The CI brackets the truth.
    assert!(p50.lo <= true_p50 + 0.5 && true_p50 - 0.5 <= p50.hi);

    // Innocent domains show clean books.
    for name in ["L", "N"] {
        let d = analysis.domain(name).unwrap();
        assert!(d.estimate.loss.rate().unwrap_or(0.0) < 0.02);
    }
}

#[test]
fn receipts_flow_through_the_transport_with_privacy() {
    let scenario = Scenario::new(trace(100, 2), Figure1::ideal().build(), base_cfg());
    let bus = ShardedBus::new(1);
    let run = scenario.run(&bus).expect("honest batches publish");
    assert_eq!(bus.len(), 8);
    let on_path: Vec<DomainId> = scenario.topology.domain_ids();

    // Any on-path domain can fetch any HOP's receipts; the decoded
    // batch on the far side is the published one, bit for bit.
    for requester in &on_path {
        let got = bus.fetch(*requester, HopId(5)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].batch, &run.hop(HopId(5)).unwrap().batch);
    }
    // An off-path domain cannot.
    assert!(bus.fetch(DomainId(99), HopId(5)).is_err());
}

#[test]
fn tampered_receipts_never_enter_circulation() {
    let topo = Figure1::ideal().build();
    let (run, _) = evaluate(trace(100, 3), topo.clone(), base_cfg());
    let bus = ShardedBus::new(1);
    let h5 = run.hop(HopId(5)).unwrap();
    let key = default_hop_key(h5.hop);
    bus.register_key(h5.hop, key).unwrap();
    let mut doctored = h5.batch.clone();
    if let Some(a) = doctored.aggregates.first_mut() {
        a.pkt_cnt += 100; // a relay inflates a count without re-signing
    }

    // A relay that strips the MAC and re-encodes is refused outright:
    // only signed frames circulate.
    let unsigned = WireEncoder::precise()
        .encode(&doctored)
        .expect("doctored batches still encode");
    match bus.publish(h5.domain, unsigned, topo.domain_ids()) {
        Err(TransportError::Unsigned { hop }) => assert_eq!(hop, h5.hop),
        other => panic!("expected Unsigned, got {other:?}"),
    }

    // A signed frame corrupted in flight fails HMAC verification (the
    // flipped bit lands in the MAC trailer so the frame still decodes;
    // arbitrary-position corruption is proptested in the codec suite).
    let signed = WireEncoder::precise()
        .encode_signed(&h5.batch, &key, KeyEpoch(0))
        .expect("honest batches sign");
    let mut bytes = signed.as_bytes().to_vec();
    *bytes.last_mut().unwrap() ^= 0x01;
    match bus.publish(h5.domain, WireFrame::from_bytes(bytes), topo.domain_ids()) {
        Err(TransportError::BadMac { hop }) => assert_eq!(hop, h5.hop),
        other => panic!("expected BadMac, got {other:?}"),
    }

    // A relay that doctors the body and splices the honest MAC back on
    // (it holds no key to re-sign with) fails the same check: the MAC
    // covers every body byte.
    let mut spliced = WireEncoder::precise()
        .encode_signed(&doctored, &HopKey::from_seed(0), KeyEpoch(0))
        .expect("doctored batches still encode")
        .as_bytes()
        .to_vec();
    let (n, honest) = (spliced.len(), signed.as_bytes());
    spliced[n - 32..].copy_from_slice(&honest[honest.len() - 32..]);
    match bus.publish(h5.domain, WireFrame::from_bytes(spliced), topo.domain_ids()) {
        Err(TransportError::BadMac { hop }) => assert_eq!(hop, h5.hop),
        other => panic!("expected BadMac, got {other:?}"),
    }
    assert!(bus.is_empty());
}

#[test]
fn per_hop_tuning_controls_receipt_volume() {
    let t = trace(300, 4);
    let topo = Figure1::ideal().build();
    let mut cfg = base_cfg();
    // HOP 4 samples 10×, HOP 6 stays at base.
    cfg.overrides.insert(
        HopId(4),
        HopTuning {
            sampling_rate: 0.3,
            aggregate_size: 200,
        },
    );
    let (run, _) = evaluate(t, topo, cfg);
    let h4 = run.hop(HopId(4)).unwrap();
    let h6 = run.hop(HopId(6)).unwrap();
    assert!(h4.samples().len() > 5 * h6.samples().len());
    assert!(h4.batch.aggregates.len() > 3 * h6.batch.aggregates.len());
    // Superset property across differently-tuned HOPs on the same
    // stream: every packet HOP 6 sampled, HOP 4 (lower σ) sampled too.
    let ids4: std::collections::HashSet<_> = h4.samples().iter().map(|r| r.pkt_id).collect();
    let missing = h6
        .samples()
        .iter()
        .filter(|r| !ids4.contains(&r.pkt_id))
        .count();
    assert_eq!(missing, 0, "σ-ordering must give nested sample sets");
}

#[test]
fn verification_works_under_ntp_grade_clocks() {
    let t = trace(300, 5);
    let mut fig = Figure1::ideal();
    fig.x_transit = ChannelConfig {
        delay: DelayModel::Constant(SimDuration::from_millis(4)),
        loss: None,
        reorder: ReorderModel::none(),
        seed: 3,
    };
    // MaxDiff must absorb clock skew: widen to 5 ms.
    fig.max_diff = SimDuration::from_millis(5);
    let topo = fig.build();
    let mut cfg = base_cfg();
    cfg.clocks = ClockMode::NtpGrade;
    cfg.seed = 55;
    let (_, analysis) = evaluate(t, topo, cfg);
    assert!(
        analysis.all_consistent(),
        "NTP-grade skew within MaxDiff must not trigger inconsistencies"
    );
    let x = analysis.domain("X").unwrap();
    let p50 = x
        .estimate
        .delay
        .as_ref()
        .unwrap()
        .quantiles
        .iter()
        .find(|q| q.q == 0.5)
        .unwrap()
        .value;
    // 4 ms transit ± ~1 ms clock error.
    assert!((2.5..5.5).contains(&p50), "p50 {p50}");
}

#[test]
fn desynchronized_clocks_violate_max_diff_as_the_paper_warns() {
    // §4: HOPs keeping badly desynchronized clocks "generate
    // inconsistent receipts (hence appear to have a problematic
    // inter-domain link or be involved in a lie)".
    let t = trace(200, 6);
    let topo = Figure1::ideal().build(); // MaxDiff = 2 ms
    let (mut run, _) = evaluate(t, topo.clone(), base_cfg());
    // Simulate HOP 6's clock running 5 ms behind: its reported times
    // for received packets are 5 ms late. Every HOP signs and publishes
    // what it reported, and the collector judges the path from there.
    let h6 = run.hops.iter_mut().find(|h| h.hop == HopId(6)).unwrap();
    for r in h6.batch.samples.iter_mut().flat_map(|s| &mut s.samples) {
        r.time += SimDuration::from_millis(5);
    }
    let (bus, on_path) = (ShardedBus::new(1), topo.domain_ids());
    for h in &run.hops {
        let key = default_hop_key(h.hop);
        bus.register_key(h.hop, key).unwrap();
        bus.publish_batch(h.domain, &h.batch, Profile::Precise, on_path.clone(), &key)
            .unwrap();
    }
    let analysis = analyze_from_transport(&topo, &bus, on_path[0]).unwrap();
    let xn = analysis.links.iter().find(|l| l.up == HopId(5)).unwrap();
    assert!(
        !xn.report.is_consistent(),
        "5 ms skew against a 2 ms MaxDiff must flag the link"
    );
}

#[test]
fn domain_estimates_survive_serde_roundtrip() {
    // Receipts and estimates are wire types; a collector may archive
    // them as JSON.
    let (run, _) = evaluate(trace(150, 7), Figure1::ideal().build(), base_cfg());
    let v = Verifier::default();
    let h4 = run.hop(HopId(4)).unwrap();
    let h5 = run.hop(HopId(5)).unwrap();
    let est = v.estimate_domain(
        &h4.samples(),
        &h4.batch.aggregates,
        &h5.samples(),
        &h5.batch.aggregates,
    );
    let json = serde_json::to_string(&est).unwrap();
    let back: vpm::core::verify::DomainEstimate = serde_json::from_str(&json).unwrap();
    assert_eq!(est, back);

    let batch_json = serde_json::to_string(&h4.batch).unwrap();
    let batch_back: vpm::core::processor::ReceiptBatch = serde_json::from_str(&batch_json).unwrap();
    assert_eq!(batch_back, h4.batch);
}
