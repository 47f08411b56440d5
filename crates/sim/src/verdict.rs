//! Path-level analysis: the receipt collector's view.
//!
//! A collector gathers receipts from *all* HOPs on a path (§3.1 shows
//! why anything less destroys the honesty incentives), computes every
//! domain's loss/delay estimate, checks every inter-domain link's
//! consistency, and reports which links carry inconsistent claims —
//! each such link implicates its two adjacent domains, and the
//! implicated honest domain knows exactly who lied.

use serde::{Deserialize, Serialize};
use vpm_core::verify::{DomainEstimate, LinkReport, Verifier};
use vpm_packet::{DomainId, HopId};
use vpm_wire::{ReceiptTransport, TransportError};

use crate::run::{HopOutput, PathRun};
use crate::topology::{DomainRole, Topology};

/// One transit domain's receipt-derived estimate.
#[derive(Debug, Clone)]
pub struct DomainReport {
    /// The domain.
    pub domain: DomainId,
    /// Its name.
    pub name: String,
    /// Ingress/egress HOPs used.
    pub hops: (HopId, HopId),
    /// The estimate.
    pub estimate: DomainEstimate,
}

/// One inter-domain link's consistency verdict.
#[derive(Debug, Clone)]
pub struct LinkVerdict {
    /// Delivering HOP.
    pub up: HopId,
    /// Receiving HOP.
    pub down: HopId,
    /// The two domains the link implicates when inconsistent.
    pub implicates: (DomainId, DomainId),
    /// The consistency report.
    pub report: LinkReport,
}

/// The collector's full path analysis.
#[derive(Debug, Clone)]
pub struct PathAnalysis {
    /// Per-transit-domain estimates.
    pub domains: Vec<DomainReport>,
    /// Per-link verdicts.
    pub links: Vec<LinkVerdict>,
}

impl PathAnalysis {
    /// Links whose receipts are inconsistent, with the implicated
    /// domain pairs — "the liar is exposed to the neighbor it
    /// implicated" (§3.1).
    pub fn flagged_links(&self) -> Vec<&LinkVerdict> {
        self.links
            .iter()
            .filter(|l| !l.report.is_consistent())
            .collect()
    }

    /// The estimate for a domain by name.
    pub fn domain(&self, name: &str) -> Option<&DomainReport> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// Are all links consistent?
    pub fn all_consistent(&self) -> bool {
        self.links.iter().all(|l| l.report.is_consistent())
    }
}

/// Summary suitable for printing (used by examples).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSummary {
    /// Domain name.
    pub name: String,
    /// Estimated loss rate, if computable.
    pub loss_rate: Option<f64>,
    /// Estimated median delay (ms), if computable.
    pub median_delay_ms: Option<f64>,
    /// Estimated 90th-percentile delay (ms), if computable.
    pub p90_delay_ms: Option<f64>,
    /// Matched samples backing the delay estimate.
    pub matched_samples: usize,
}

impl DomainReport {
    /// Condense for display.
    pub fn summary(&self) -> DomainSummary {
        let q = |target: f64| {
            self.estimate.delay.as_ref().and_then(|d| {
                d.quantiles
                    .iter()
                    .find(|e| (e.q - target).abs() < 1e-9)
                    .map(|e| e.value)
            })
        };
        DomainSummary {
            name: self.name.clone(),
            loss_rate: self.estimate.loss.rate(),
            median_delay_ms: q(0.5),
            p90_delay_ms: q(0.9),
            matched_samples: self.estimate.matched_samples,
        }
    }
}

/// Analyze a completed path run (possibly doctored by adversaries).
#[allow(clippy::expect_used)] // audited: every expect below carries a vpm-lint allow
pub fn analyze_path(topology: &Topology, run: &PathRun) -> PathAnalysis {
    let verifier = Verifier::default();

    let mut domains = Vec::new();
    for dom in &topology.domains {
        if dom.role != DomainRole::Transit {
            continue;
        }
        let (ing, eg) = (
            dom.ingress.expect("transit has ingress"), // vpm-lint: allow(R1, verdicts only visit transit domains, which carry both HOPs)
            dom.egress.expect("transit has egress"), // vpm-lint: allow(R1, verdicts only visit transit domains, which carry both HOPs)
        );
        let (Some(hi), Some(he)) = (run.hop(ing), run.hop(eg)) else {
            continue;
        };
        let estimate =
            verifier.estimate_domain(&hi.samples, &hi.aggregates, &he.samples, &he.aggregates);
        domains.push(DomainReport {
            domain: dom.id,
            name: dom.name.clone(),
            hops: (ing, eg),
            estimate,
        });
    }

    let mut links = Vec::new();
    for link in &topology.links {
        let (Some(up), Some(down)) = (run.hop(link.up), run.hop(link.down)) else {
            continue;
        };
        let report = verifier.check_link(
            &up.path,
            &up.samples,
            &up.aggregates,
            &down.path,
            &down.samples,
            &down.aggregates,
        );
        links.push(LinkVerdict {
            up: link.up,
            down: link.down,
            implicates: (up.domain, down.domain),
            report,
        });
    }

    PathAnalysis { domains, links }
}

/// Analyze a path from disseminated receipts alone: fetch every HOP's
/// frames from the transport as `requester`, merge the decoded batches
/// per HOP in publish order, and run the same verifier logic as
/// [`analyze_path`].
///
/// This is the receipt collector's real position in the redesigned
/// pipeline — it never touches a `PathRun`, only what `publish` put on
/// the wire. Authenticity was enforced once, at publish (the transport
/// refuses a frame whose MAC does not verify under its HOP's key), so
/// the collector consumes the decoded batches directly; HOPs that
/// published nothing are simply absent from the analysis, exactly like
/// non-deployed HOPs in [`analyze_path`]. Fails with
/// [`TransportError::NotOnPath`] when `requester` did not observe the
/// traffic.
pub fn analyze_from_transport(
    topology: &Topology,
    transport: &dyn ReceiptTransport,
    requester: DomainId,
) -> Result<PathAnalysis, TransportError> {
    let mut hops = Vec::new();
    for hop in topology.hops() {
        let published = transport.fetch(requester, hop)?;
        // An empty batch (e.g. a quiet first reporting interval) has no
        // path table; take the path from the first frame that names one
        // and skip the hop only if *no* frame does.
        let Some(&path) = published.iter().find_map(|p| p.paths.first()) else {
            continue;
        };
        hops.push(hop_output_from_frames(topology, hop, path, &published));
    }
    let run = PathRun {
        hops,
        truths: Vec::new(),
        trace_len: 0,
    };
    Ok(analyze_path(topology, &run))
}

/// [`analyze_from_transport`], but **path-scoped**: every HOP's frames
/// are fetched by its `PathID` (from [`Topology::hop_path_ids`])
/// instead of by HOP id. On a [`vpm_wire::ShardedBus`] each such fetch
/// touches exactly one shard, so analyzing one path of an N-path fleet
/// costs O(its own frames), not O(every frame on the bus) — this is
/// the per-path unit of work `crate::fleet::analyze_fleet_from_transport`
/// fans across its verification workers.
///
/// Produces the same analysis as [`analyze_from_transport`] for any
/// publish sequence the path runner emits (pinned by test): an empty
/// batch carries no path table, so a path-scoped fetch never sees it —
/// but an empty batch contributes no samples or aggregates either way.
pub fn analyze_from_transport_scoped(
    topology: &Topology,
    transport: &dyn ReceiptTransport,
    requester: DomainId,
) -> Result<PathAnalysis, TransportError> {
    let mut hops = Vec::new();
    for (hop, path) in topology.hop_path_ids() {
        let mut published = transport.fetch_path(requester, &path)?;
        // Defensive: a frame in this path's shard that some *other* HOP
        // published must not pollute this HOP's batch.
        published.retain(|p| p.hop == hop);
        if published.iter().all(|p| p.paths.is_empty()) {
            continue; // nothing but (impossible via fetch_path) empties
        }
        hops.push(hop_output_from_frames(topology, hop, path, &published));
    }
    let run = PathRun {
        hops,
        truths: Vec::new(),
        trace_len: 0,
    };
    Ok(analyze_path(topology, &run))
}

/// Rebuild one HOP's output from its fetched frames: the sample records
/// and aggregate receipts of every frame, in publish order, each copied
/// once (shared by the by-HOP and path-scoped collectors so they cannot
/// drift apart). `batch` keeps the first frame's header only — the
/// verdict reads `samples` and `aggregates`, and a collector has no use
/// for a second copy of them.
#[allow(clippy::expect_used)] // audited: every expect below carries a vpm-lint allow
fn hop_output_from_frames(
    topology: &Topology,
    hop: HopId,
    path: vpm_core::receipt::PathId,
    published: &[std::sync::Arc<vpm_wire::Published>],
) -> HopOutput {
    let first = &published
        .first()
        .expect("caller checked non-empty") // vpm-lint: allow(R1, the caller checked the window is non-empty)
        .batch;
    let batch = vpm_core::ReceiptBatch {
        hop: first.hop,
        batch_seq: first.batch_seq,
        samples: Vec::new(),
        aggregates: Vec::new(),
    };
    let receipts = published.iter().flat_map(|p| &p.batch.samples);
    let mut samples = Vec::with_capacity(receipts.clone().map(|r| r.samples.len()).sum());
    for r in receipts {
        samples.extend_from_slice(&r.samples);
    }
    let aggregates = published
        .iter()
        .flat_map(|p| &p.batch.aggregates)
        .cloned()
        .collect();
    // The collector never learns HOP secrets, so the rebuilt output
    // carries no key — but it does carry the authenticated key epoch
    // the transport MAC-verified the frames under (the newest one, if
    // a rotation happened mid-stream).
    let key_epoch = published
        .iter()
        .map(|p| p.epoch)
        .max()
        .expect("caller checked non-empty"); // vpm-lint: allow(R1, the caller checked the window is non-empty)
    HopOutput {
        hop,
        domain: topology.domain_of(hop).expect("hop has a domain").id, // vpm-lint: allow(R1, every hop in a built topology belongs to a domain)
        path,
        batch,
        samples,
        aggregates,
        observed: 0, // unknown to a pure receipt collector
        key: None,   // the frames' MACs were verified once, at publish
        key_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{apply_lie, cover_up, LieStrategy};
    use crate::run::{run_path, RunConfig};
    use crate::topology::Figure1;
    use vpm_netsim::channel::{ChannelConfig, DelayModel};
    use vpm_netsim::reorder::ReorderModel;
    use vpm_packet::SimDuration;
    use vpm_trace::{TraceConfig, TraceGenerator};

    fn scenario(loss_in_x: f64) -> (Topology, PathRun) {
        let t = TraceGenerator::new(TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(200),
            ..TraceConfig::paper_default(1, 17)
        })
        .generate();
        let mut fig = Figure1::ideal();
        if loss_in_x > 0.0 {
            fig.x_transit = ChannelConfig {
                delay: DelayModel::Constant(SimDuration::from_micros(200)),
                loss: Some((loss_in_x, 4.0)),
                reorder: ReorderModel::none(),
                seed: 5,
            };
        }
        let topo = fig.build();
        let cfg = RunConfig {
            sampling_rate: 0.05,
            aggregate_size: 500,
            marker_rate: 0.01,
            j_window: SimDuration::from_millis(2),
            ..RunConfig::default()
        };
        let run = run_path(&t, &topo, &cfg);
        (topo, run)
    }

    #[test]
    fn honest_lossy_domain_is_consistent_and_measured() {
        let (topo, run) = scenario(0.2);
        let analysis = analyze_path(&topo, &run);
        assert!(analysis.all_consistent(), "honest receipts must check out");
        let x = analysis.domain("X").unwrap();
        let loss = x.estimate.loss.rate().unwrap();
        assert!((loss - 0.2).abs() < 0.05, "estimated X loss {loss}");
        // The innocent neighbors show ~no loss.
        for name in ["L", "N"] {
            let d = analysis.domain(name).unwrap();
            assert!(d.estimate.loss.rate().unwrap_or(0.0) < 0.01, "{name}");
        }
    }

    /// A collector working purely from disseminated frames reaches the
    /// same verdicts as one reading the runner's outputs directly.
    #[test]
    fn transport_only_analysis_matches_path_analysis() {
        let t = TraceGenerator::new(TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(200),
            ..TraceConfig::paper_default(1, 23)
        })
        .generate();
        let mut fig = Figure1::ideal();
        fig.x_transit = ChannelConfig {
            delay: DelayModel::Constant(SimDuration::from_micros(200)),
            loss: Some((0.15, 4.0)),
            reorder: ReorderModel::none(),
            seed: 5,
        };
        let topo = fig.build();
        let cfg = RunConfig {
            sampling_rate: 0.05,
            aggregate_size: 500,
            marker_rate: 0.01,
            j_window: SimDuration::from_millis(2),
            ..RunConfig::default()
        };
        let transport = vpm_wire::ShardedBus::new(4);
        let run = crate::run::run_path_with_transport(&t, &topo, &cfg, &transport).unwrap();
        let from_run = analyze_path(&topo, &run);
        let requester = topo.domain_ids()[0];
        let from_wire = super::analyze_from_transport(&topo, &transport, requester).unwrap();
        assert_eq!(from_run.domains.len(), from_wire.domains.len());
        for (a, b) in from_run.domains.iter().zip(&from_wire.domains) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.estimate, b.estimate, "{}", a.name);
        }
        assert_eq!(from_run.links.len(), from_wire.links.len());
        for (a, b) in from_run.links.iter().zip(&from_wire.links) {
            assert_eq!((a.up, a.down), (b.up, b.down));
            assert_eq!(a.report, b.report, "{}→{}", a.up, a.down);
        }
        // And an off-path collector is refused outright.
        assert!(matches!(
            super::analyze_from_transport(&topo, &transport, DomainId(99)),
            Err(vpm_wire::TransportError::NotOnPath { .. })
        ));
    }

    /// A quiet first reporting interval publishes an empty batch (no
    /// path table); the collector must still use the populated batches
    /// that follow rather than dropping the HOP.
    #[test]
    fn empty_first_batch_does_not_hide_a_hop_from_the_collector() {
        let t = TraceGenerator::new(TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(150),
            ..TraceConfig::paper_default(1, 29)
        })
        .generate();
        let topo = Figure1::ideal().build();
        let cfg = RunConfig {
            sampling_rate: 0.05,
            aggregate_size: 500,
            marker_rate: 0.01,
            j_window: SimDuration::from_millis(2),
            ..RunConfig::default()
        };
        let run = crate::run::run_path(&t, &topo, &cfg);
        let transport = vpm_wire::ShardedBus::new(1);
        let on_path = topo.domain_ids();
        for h in &run.hops {
            let key = h.hop_key();
            transport.register_key(h.hop, key).unwrap();
            // Interval 0: nothing matured yet — an empty, signed batch.
            let empty = vpm_core::processor::ReceiptBatch {
                hop: h.hop,
                batch_seq: 0,
                samples: vec![],
                aggregates: vec![],
            };
            transport
                .publish_batch(
                    h.domain,
                    &empty,
                    vpm_wire::Profile::Precise,
                    on_path.clone(),
                    &key,
                )
                .unwrap();
            // Interval 1: the real receipts.
            transport
                .publish_batch(
                    h.domain,
                    &h.batch,
                    vpm_wire::Profile::Precise,
                    on_path.clone(),
                    &key,
                )
                .unwrap();
        }
        let analysis = super::analyze_from_transport(&topo, &transport, on_path[0]).unwrap();
        let baseline = analyze_path(&topo, &run);
        assert_eq!(analysis.domains.len(), baseline.domains.len());
        for (a, b) in baseline.domains.iter().zip(&analysis.domains) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.estimate, b.estimate, "{}", a.name);
        }
    }

    /// The path-scoped collector (one shard per HOP fetch) reaches the
    /// same verdicts as the by-HOP collector, including with an empty
    /// first reporting interval on the bus.
    #[test]
    fn scoped_analysis_matches_hop_fetch_analysis() {
        let t = TraceGenerator::new(TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(150),
            ..TraceConfig::paper_default(1, 31)
        })
        .generate();
        let mut fig = Figure1::ideal();
        fig.x_transit = ChannelConfig {
            delay: DelayModel::Constant(SimDuration::from_micros(200)),
            loss: Some((0.1, 3.0)),
            reorder: ReorderModel::none(),
            seed: 7,
        };
        let topo = fig.build();
        let cfg = RunConfig {
            sampling_rate: 0.05,
            aggregate_size: 500,
            marker_rate: 0.01,
            j_window: SimDuration::from_millis(2),
            ..RunConfig::default()
        };
        let transport = vpm_wire::ShardedBus::new(8);
        let on_path = topo.domain_ids();
        // An empty interval-0 batch for every HOP, then the real run.
        // The keys must be the processors' own: the run that follows
        // registers them too, and the transport refuses a different
        // key for an established HOP.
        for (hop, _) in topo.hop_path_ids() {
            let key = vpm_core::processor::default_hop_key(hop);
            transport.register_key(hop, key).unwrap();
            let empty = vpm_core::processor::ReceiptBatch {
                hop,
                batch_seq: 0,
                samples: vec![],
                aggregates: vec![],
            };
            transport
                .publish_batch(
                    topo.domain_of(hop).unwrap().id,
                    &empty,
                    vpm_wire::Profile::Precise,
                    on_path.clone(),
                    &key,
                )
                .unwrap();
        }
        crate::run::run_path_with_transport(&t, &topo, &cfg, &transport).unwrap();
        let requester = on_path[0];
        let by_hop = super::analyze_from_transport(&topo, &transport, requester).unwrap();
        let scoped = super::analyze_from_transport_scoped(&topo, &transport, requester).unwrap();
        assert_eq!(by_hop.domains.len(), scoped.domains.len());
        for (a, b) in by_hop.domains.iter().zip(&scoped.domains) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.estimate, b.estimate, "{}", a.name);
        }
        assert_eq!(by_hop.links.len(), scoped.links.len());
        for (a, b) in by_hop.links.iter().zip(&scoped.links) {
            assert_eq!((a.up, a.down), (b.up, b.down));
            assert_eq!(a.report, b.report, "{}→{}", a.up, a.down);
        }
    }

    /// A HOP whose key rotates mid-stream stays fully analyzable: the
    /// old-epoch frames keep being served, the new key signs at the
    /// bumped epoch, the retired key is refused, and the rebuilt output
    /// carries the newest authenticated epoch (never a secret).
    #[test]
    fn rotated_key_hop_still_verifies_and_carries_the_new_epoch() {
        use vpm_wire::{HopKey, KeyEpoch, ReceiptTransport};
        let (topo, run) = scenario(0.0);
        let transport = vpm_wire::ShardedBus::new(1);
        let on_path = topo.domain_ids();
        for h in &run.hops {
            let key = h.hop_key();
            transport.register_key(h.hop, key).unwrap();
            transport
                .publish_batch(
                    h.domain,
                    &h.batch,
                    vpm_wire::Profile::Precise,
                    on_path.clone(),
                    &key,
                )
                .unwrap();
        }
        // Rotate HOP 4 and publish a second interval under the new key.
        let h4 = run.hop(vpm_packet::HopId(4)).unwrap();
        let rotated = HopKey::from_seed(0x5070_a7ed ^ h4.hop.0 as u64);
        assert_eq!(transport.rotate_key(h4.hop, rotated), Ok(KeyEpoch(1)));
        let next = vpm_core::processor::ReceiptBatch {
            hop: h4.hop,
            batch_seq: h4.batch.batch_seq + 1,
            samples: vec![],
            aggregates: vec![],
        };
        transport
            .publish_batch(
                h4.domain,
                &next,
                vpm_wire::Profile::Precise,
                on_path.clone(),
                &rotated,
            )
            .unwrap();
        // The retired key no longer signs at the current epoch.
        assert_eq!(
            transport.publish_batch(
                h4.domain,
                &next,
                vpm_wire::Profile::Precise,
                on_path.clone(),
                &h4.hop_key(),
            ),
            Err(vpm_wire::TransportError::BadMac { hop: h4.hop })
        );
        // Fetch serves both epochs, each frame verified at publish under
        // its own; the rebuilt output carries the newest authenticated
        // epoch and no secret.
        let published = transport.fetch(on_path[0], h4.hop).unwrap();
        assert_eq!(published.len(), 2);
        assert_eq!(published[0].epoch, KeyEpoch(0));
        assert_eq!(published[1].epoch, KeyEpoch(1));
        let rebuilt = super::hop_output_from_frames(&topo, h4.hop, h4.path, &published);
        assert_eq!(rebuilt.key_epoch, KeyEpoch(1));
        assert!(rebuilt.key.is_none());
        // Both frames' receipts, in publish order, each once; `batch` is
        // the first frame's header and nothing else.
        assert_eq!(rebuilt.samples, h4.samples);
        assert_eq!(rebuilt.aggregates, h4.aggregates);
        assert_eq!(rebuilt.batch.batch_seq, h4.batch.batch_seq);
        assert!(rebuilt.batch.samples.is_empty() && rebuilt.batch.aggregates.is_empty());
        // And the collector's verdicts are unchanged by the rotation.
        let analysis = super::analyze_from_transport(&topo, &transport, on_path[0]).unwrap();
        assert!(analysis.all_consistent());
        let baseline = analyze_path(&topo, &run);
        for (a, b) in baseline.domains.iter().zip(&analysis.domains) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.estimate, b.estimate, "{}", a.name);
        }
    }

    #[test]
    fn blame_shift_liar_exposed_on_its_link() {
        let (topo, mut run) = scenario(0.2);
        let ingress = run.hop(vpm_packet::HopId(4)).unwrap().clone();
        apply_lie(
            &ingress,
            run.hop_mut(vpm_packet::HopId(5)).unwrap(),
            LieStrategy::BlameShiftLoss {
                claimed_delay: SimDuration::from_micros(200),
            },
        );
        let analysis = analyze_path(&topo, &run);
        // X now *looks* lossless from its own receipts…
        let x_loss = analysis.domain("X").unwrap().estimate.loss.rate().unwrap();
        assert!(x_loss < 0.01, "liar hides its loss: {x_loss}");
        // …but the X→N link is inconsistent, implicating X to N.
        let flagged = analysis.flagged_links();
        assert!(!flagged.is_empty(), "the lie must surface somewhere");
        assert!(flagged.iter().any(|l| {
            l.up == vpm_packet::HopId(5)
                && l.implicates
                    == (
                        topo.domain_by_name("X").unwrap().id,
                        topo.domain_by_name("N").unwrap().id,
                    )
        }));
        // No *other* link is flagged: the evidence localizes the lie.
        for l in &flagged {
            assert_eq!(l.up, vpm_packet::HopId(5), "only the X→N link: {:?}", l.up);
        }
    }

    #[test]
    fn colluding_cover_up_moves_blame_into_accomplice() {
        let (topo, mut run) = scenario(0.2);
        let ingress4 = run.hop(vpm_packet::HopId(4)).unwrap().clone();
        apply_lie(
            &ingress4,
            run.hop_mut(vpm_packet::HopId(5)).unwrap(),
            LieStrategy::BlameShiftLoss {
                claimed_delay: SimDuration::from_micros(200),
            },
        );
        let liar_egress = run.hop(vpm_packet::HopId(5)).unwrap().clone();
        cover_up(&liar_egress, run.hop_mut(vpm_packet::HopId(6)).unwrap());
        let analysis = analyze_path(&topo, &run);
        // The X→N link now *looks* consistent…
        let xn = analysis
            .links
            .iter()
            .find(|l| l.up == vpm_packet::HopId(5))
            .unwrap();
        assert!(xn.report.is_consistent(), "cover-up hides the X→N mismatch");
        // …but N is left holding X's loss: either N's own estimate shows
        // the loss (it reported its egress honestly) or the N→D link is
        // inconsistent. Here N's egress is honest, so the loss lands on N.
        let n_loss = analysis.domain("N").unwrap().estimate.loss.rate().unwrap();
        assert!(
            n_loss > 0.15,
            "the accomplice inherits the blame: N loss {n_loss}"
        );
    }

    #[test]
    fn sugarcoat_delay_breaks_link_rule() {
        let (topo, mut run) = scenario(0.0);
        let ingress = run.hop(vpm_packet::HopId(4)).unwrap().clone();
        apply_lie(
            &ingress,
            run.hop_mut(vpm_packet::HopId(5)).unwrap(),
            LieStrategy::SugarcoatDelay {
                shave: SimDuration::from_millis(5), // hide 5 ms of delay
            },
        );
        let analysis = analyze_path(&topo, &run);
        // Claiming earlier egress times makes the X→N link transit look
        // LONGER than MaxDiff: rule 2 fires.
        let flagged = analysis.flagged_links();
        assert!(flagged.iter().any(|l| l.up == vpm_packet::HopId(5)));
    }
}
