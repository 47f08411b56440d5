//! Path-level analysis: the receipt collector's view.
//!
//! A collector gathers receipts from *all* HOPs on a path (§3.1 shows
//! why anything less destroys the honesty incentives), computes every
//! domain's loss/delay estimate, checks every inter-domain link's
//! consistency, and reports which links carry inconsistent claims —
//! each such link implicates its two adjacent domains, and the
//! implicated honest domain knows exactly who lied. A domain that runs
//! no HOPs (§8 partial deployment) is measured end to end over the
//! segment its deployed neighbors bracket.
//!
//! [`analyze_from_transport`] is the one reader: it judges a path from
//! the frames its HOPs published, and nothing else.

use std::borrow::Cow;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vpm_core::receipt::{AggReceipt, PathId, SampleRecord};
use vpm_core::verify::{DomainEstimate, HopChain, HopView, LinkReport, Verifier};
use vpm_packet::{DomainId, HopId};
use vpm_wire::{Published, ReceiptTransport, TransportError};

use crate::topology::{DomainRole, LinkSpec, Topology};

/// One transit domain's receipt-derived estimate.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

/// The stretch of a path between two HOPs with receipts that crosses
/// transit domains running no HOPs (§8's non-deployers). Whatever
/// happens there, including a deployed neighbor's own lies, lands on
/// the domains it spans: they have no receipts to refute it.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReport {
    /// The HOP at the segment's upstream edge.
    pub up_hop: HopId,
    /// The HOP at its downstream edge.
    pub down_hop: HopId,
    /// The domains without HOPs inside the segment, in path order.
    pub spans: Vec<DomainId>,
    /// The receipt-derived estimate over the whole segment.
    pub estimate: DomainEstimate,
}

/// The collector's full path analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PathAnalysis {
    /// Per-transit-domain estimates.
    pub domains: Vec<DomainReport>,
    /// Per-link verdicts.
    pub links: Vec<LinkVerdict>,
    /// Per-segment estimates over the domains that run no HOPs.
    pub segments: Vec<SegmentReport>,
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

    /// The segment spanning a domain that runs no HOPs, if HOPs with
    /// receipts bracket it.
    pub fn segment_spanning(&self, domain: DomainId) -> Option<&SegmentReport> {
        self.segments.iter().find(|s| s.spans.contains(&domain))
    }
}

/// One transit domain's estimate condensed to the numbers a verdict
/// reports: what [`crate::fleet::FleetPathVerdict`] carries per domain,
/// and so what `vpm fleet --json` prints.
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

/// One HOP's receipts as the verifier reads them, where they already
/// are: in the frames a transport served. A HOP whose receipts fill one
/// frame (with one sample receipt) is read straight from it; only
/// receipts spread over several frames (a key rotation mid-stream) or
/// several sample receipts are concatenated into one owned copy, in
/// publish order. A verifier never holds a HOP's key.
#[derive(Debug, Clone)]
struct HopReceipts<'a> {
    hop: HopId,
    domain: DomainId,
    /// The `PathID` its receipts carry.
    path: PathId,
    /// Sample records, in observation order.
    samples: Cow<'a, [SampleRecord]>,
    /// Aggregate receipts, in stream order.
    aggregates: Cow<'a, [AggReceipt]>,
}

impl<'a> HopReceipts<'a> {
    /// `hop`'s receipts from its fetched `frames`, in publish order;
    /// `None` for a HOP outside `topology`.
    fn from_frames(
        topology: &Topology,
        hop: HopId,
        path: PathId,
        frames: &'a [Arc<Published>],
    ) -> Option<Self> {
        let samples = frames.iter().flat_map(|p| &p.batch.samples);
        Some(HopReceipts {
            hop,
            domain: topology.domain_of(hop)?.id,
            path,
            samples: concat(samples.map(|r| r.samples.as_slice())),
            aggregates: concat(frames.iter().map(|p| p.batch.aggregates.as_slice())),
        })
    }
}

/// `parts` in order as one slice: borrowed when at most one part is
/// non-empty, else copied once.
pub(crate) fn concat<'a, T: Clone>(parts: impl Iterator<Item = &'a [T]>) -> Cow<'a, [T]> {
    let mut parts = parts.filter(|p| !p.is_empty());
    match (parts.next(), parts.next()) {
        (None, _) => Cow::Borrowed(&[]),
        (Some(only), None) => Cow::Borrowed(only),
        (Some(first), Some(second)) => {
            let all: Vec<&[T]> = [first, second].into_iter().chain(parts).collect();
            Cow::Owned(all.concat())
        }
    }
}

/// Analyze a path from disseminated receipts alone: the receipt
/// collector's position, which never touches a run, only what
/// `publish` put on the wire.
///
/// Every HOP's frames are fetched as `requester` by the `PathID` it
/// stamps (from [`Topology::hop_path_ids`]). On a
/// [`vpm_wire::ShardedBus`] each such fetch touches exactly one shard,
/// so analyzing one path of an N-path fleet costs O(its own frames),
/// not O(every frame on the bus). Authenticity was enforced once, at
/// publish (the transport refuses a frame whose MAC does not verify
/// under its HOP's key), so the collector reads the decoded batches in
/// place. An empty batch (a quiet reporting interval) carries no path
/// table, so a path-scoped fetch never sees it, and it holds no
/// receipts either way.
///
/// A HOP without frames is absent from the analysis: no estimate for
/// its domain and no verdict for its link. Only a domain the topology
/// gives no HOPs (§8's non-deployer) is measured instead, over the
/// segment between the HOPs that bracket it. Fails with
/// [`TransportError::NotOnPath`] when `requester` did not observe the
/// traffic.
pub fn analyze_from_transport(
    topology: &Topology,
    transport: &dyn ReceiptTransport,
    requester: DomainId,
) -> Result<PathAnalysis, TransportError> {
    let mut fetched = Vec::new();
    for (hop, path) in topology.hop_path_ids() {
        let mut frames = transport.fetch_path(requester, &path)?;
        // Defensive: a frame in this path's shard that some *other* HOP
        // published must not pollute this HOP's receipts.
        frames.retain(|p| p.hop == hop);
        if frames.iter().all(|p| p.paths.is_empty()) {
            continue; // nothing but (impossible via fetch_path) empties
        }
        fetched.push((hop, path, frames));
    }
    let hops: Vec<HopReceipts> = fetched
        .iter()
        .filter_map(|(hop, path, frames)| HopReceipts::from_frames(topology, *hop, *path, frames))
        .collect();
    Ok(analyze(topology, &hops))
}

/// The one analysis body: every transit domain's estimate, every
/// link's consistency verdict, and every non-deployer's segment, from
/// whichever HOPs have receipts.
///
/// One [`HopChain`] judges the pairs in path order — the link into a
/// domain, then a segment ending at it, then the domain itself — so
/// each pair's downstream HOP is the next pair's upstream one, and a
/// window identical to its neighbour's is not loaded again.
fn analyze(topology: &Topology, hops: &[HopReceipts]) -> PathAnalysis {
    let views: Vec<HopView> = hops
        .iter()
        .map(|h| HopView::new(&h.samples, &h.aggregates))
        .collect();
    let at = |id: HopId| hops.iter().enumerate().find(|(_, h)| h.hop == id);
    Verifier::default().chain(&views, |chain| {
        let (mut domains, mut links, mut segments) = (Vec::new(), Vec::new(), Vec::new());
        let mut link_verdict = |chain: &mut HopChain, link: &LinkSpec| {
            let (Some((u, up)), Some((d, down))) = (at(link.up), at(link.down)) else {
                return;
            };
            links.push(LinkVerdict {
                up: link.up,
                down: link.down,
                implicates: (up.domain, down.domain),
                report: chain.check_link(&up.path, u, &down.path, d),
            });
        };
        // Each maximal run of transit domains without HOPs, bracketed
        // by the last HOP before it and the first after it, both with
        // receipts, is a segment. Nothing is allocated for segments on
        // a path where every domain deploys.
        let mut gap = Vec::new();
        let mut up: Option<(usize, &HopReceipts)> = None;
        let mut pending = topology.links.iter();
        for (k, dom) in topology.domains.iter().enumerate() {
            // The link into this domain (the first domain has none).
            if let Some(link) = (k > 0).then(|| pending.next()).flatten() {
                link_verdict(chain, link);
            }
            if dom.ingress.is_none() && dom.egress.is_none() {
                if dom.role == DomainRole::Transit {
                    gap.push(dom.id);
                }
                continue;
            }
            let spans = std::mem::take(&mut gap);
            if let (false, Some((u, uh)), Some((d, dh))) =
                (spans.is_empty(), up, dom.ingress.and_then(at))
            {
                segments.push(SegmentReport {
                    up_hop: uh.hop,
                    down_hop: dh.hop,
                    spans,
                    estimate: chain.estimate_domain(u, d),
                });
            }
            if let (DomainRole::Transit, Some(ing), Some(eg)) = (dom.role, dom.ingress, dom.egress)
            {
                if let (Some((i, _)), Some((e, _))) = (at(ing), at(eg)) {
                    domains.push(DomainReport {
                        domain: dom.id,
                        name: dom.name.clone(),
                        hops: (ing, eg),
                        estimate: chain.estimate_domain(i, e),
                    });
                }
            }
            up = dom.egress.or(dom.ingress).and_then(at);
        }
        for link in pending {
            link_verdict(chain, link);
        }
        PathAnalysis {
            domains,
            links,
            segments,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Lie;
    use crate::run::{HopOutput, PathRun};
    use crate::scenario::{lossy, Scenario};
    use crate::topology::Figure1;
    use vpm_core::processor::default_hop_key;
    use vpm_packet::SimDuration;

    /// Figure 1 with `loss_in_x` inside X, a `ms`-long trace of `seed`,
    /// and the given lies.
    fn scenario(loss_in_x: f64, ms: u64, seed: u64, lies: Vec<Lie>) -> Scenario {
        let mut fig = Figure1::ideal();
        if loss_in_x > 0.0 {
            fig.x_transit = lossy(loss_in_x, 5);
        }
        Scenario::quick(fig.build(), ms, seed, lies)
    }

    fn blame_shift(liar: &'static str) -> Lie {
        Lie::BlameShift {
            liar,
            claimed_delay: SimDuration::from_micros(200),
        }
    }

    #[test]
    fn honest_lossy_domain_is_consistent_and_measured() {
        let (_, analysis) = scenario(0.2, 200, 17, vec![]).evaluate();
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

    /// Full deployment: every transit domain reports, nothing is a
    /// segment.
    #[test]
    fn full_deployment_degenerates_to_standard_analysis() {
        let (_, a) = scenario(0.1, 250, 61, vec![]).evaluate();
        assert!(a.segments.is_empty());
        assert_eq!(a.domains.len(), 3); // L, X, N
    }

    /// Publish `batch` for `h`'s HOP, signed with `key`.
    fn publish(
        transport: &vpm_wire::ShardedBus,
        h: &HopOutput,
        batch: &vpm_core::ReceiptBatch,
        key: &vpm_wire::HopKey,
        on_path: &[DomainId],
    ) {
        transport
            .publish_batch(
                h.domain,
                batch,
                vpm_wire::Profile::Precise,
                on_path.to_vec(),
                key,
            )
            .unwrap();
    }

    /// Register every HOP of `run` on `transport` under its own key and
    /// publish its batch, except `skip`'s.
    fn publish_all_but(
        transport: &vpm_wire::ShardedBus,
        run: &PathRun,
        skip: Option<HopId>,
        on_path: &[DomainId],
    ) {
        for h in &run.hops {
            let key = default_hop_key(h.hop);
            transport.register_key(h.hop, key).unwrap();
            if Some(h.hop) != skip {
                publish(transport, h, &h.batch, &key, on_path);
            }
        }
    }

    /// `h`'s batch split in two at the middle of its sample records and
    /// of its aggregate receipts, both halves non-empty.
    fn split_batch(h: &HopOutput) -> [vpm_core::ReceiptBatch; 2] {
        let (samples, aggregates) = (h.samples(), &h.batch.aggregates);
        let (s, a) = (samples.len() / 2, aggregates.len() / 2);
        assert!(s > 0 && a > 0, "too few receipts to split");
        let half = |samples: &[SampleRecord], aggregates: &[AggReceipt], seq: u64| {
            vpm_core::ReceiptBatch {
                hop: h.hop,
                batch_seq: seq,
                samples: vec![vpm_core::SampleReceipt {
                    path: h.path,
                    samples: samples.to_vec(),
                }],
                aggregates: aggregates.to_vec(),
            }
        };
        let seq = h.batch.batch_seq;
        [
            half(&samples[..s], &aggregates[..a], seq),
            half(&samples[s..], &aggregates[a..], seq + 1),
        ]
    }

    /// A quiet first reporting interval publishes an empty batch (no
    /// path table) as `batch_seq` 0; the collector must still use the
    /// populated batch that follows as 1 rather than dropping the HOP,
    /// and reaches the verdicts of a run without the empty batch. Those
    /// batches are the HOP's only receipts, so they are read in place.
    #[test]
    fn empty_first_batch_does_not_hide_a_hop_from_the_collector() {
        let loud = scenario(0.1, 150, 29, vec![]);
        let scenario = Scenario {
            quiet_first_interval: true,
            ..loud.clone()
        };
        let topo = &scenario.topology;
        let transport = vpm_wire::ShardedBus::new(8);
        let run = scenario.run(&transport).unwrap();
        let on_path = topo.domain_ids();
        for h in &run.hops {
            let frames = transport.fetch(on_path[0], h.hop).unwrap();
            assert_eq!(frames.len(), 2);
            assert!(frames[0].batch.samples.is_empty() && frames[0].batch.aggregates.is_empty());
            let seqs: Vec<u64> = frames.iter().map(|p| p.batch.batch_seq).collect();
            assert_eq!(seqs, [0, 1], "{}", h.hop);
            let view = HopReceipts::from_frames(topo, h.hop, h.path, &frames).unwrap();
            assert!(matches!(view.samples, Cow::Borrowed(_)), "{}", h.hop);
            assert!(matches!(view.aggregates, Cow::Borrowed(_)), "{}", h.hop);
            assert_eq!(
                (&*view.samples, &*view.aggregates),
                (&*h.samples(), &*h.batch.aggregates)
            );
        }
        let analysis = analyze_from_transport(topo, &transport, on_path[0]).unwrap();
        assert_eq!(loud.evaluate().1, analysis);
        // And an off-path collector is refused outright.
        assert!(matches!(
            analyze_from_transport(topo, &transport, DomainId(99)),
            Err(TransportError::NotOnPath { .. })
        ));
    }

    /// A HOP whose key rotates mid-stream stays fully analyzable: the
    /// old-epoch frames keep being served, the new key signs at the
    /// bumped epoch, and the retired key is refused.
    #[test]
    fn rotated_key_hop_still_verifies_and_carries_the_new_epoch() {
        use vpm_wire::{HopKey, KeyEpoch, ReceiptTransport};
        let scenario = scenario(0.0, 200, 17, vec![]);
        let (topo, (run, baseline)) = (&scenario.topology, scenario.evaluate());
        let transport = vpm_wire::ShardedBus::new(1);
        let on_path = topo.domain_ids();
        publish_all_but(&transport, &run, None, &on_path);
        // Rotate HOP 4 and publish a second interval under the new key.
        let h4 = run.hop(HopId(4)).unwrap();
        let rotated = HopKey::from_seed(0x5070_a7ed ^ h4.hop.0 as u64);
        assert_eq!(transport.rotate_key(h4.hop, rotated), Ok(KeyEpoch(1)));
        let next = vpm_core::processor::ReceiptBatch {
            hop: h4.hop,
            batch_seq: h4.batch.batch_seq + 1,
            samples: vec![],
            aggregates: vec![],
        };
        publish(&transport, h4, &next, &rotated, &on_path);
        // The retired key no longer signs at the current epoch.
        assert_eq!(
            transport.publish_batch(
                h4.domain,
                &next,
                vpm_wire::Profile::Precise,
                on_path.clone(),
                &default_hop_key(h4.hop),
            ),
            Err(TransportError::BadMac { hop: h4.hop })
        );
        // Fetch serves both epochs, each frame verified at publish under
        // its own, in publish order. The collector holds no secret:
        // `HopReceipts` has no key field at all.
        let published = transport.fetch(on_path[0], h4.hop).unwrap();
        assert_eq!(published.len(), 2);
        assert_eq!(published[0].epoch, KeyEpoch(0));
        assert_eq!(published[1].epoch, KeyEpoch(1));
        assert_eq!(published[0].batch.batch_seq, h4.batch.batch_seq);
        assert_eq!(published[1].batch.batch_seq, h4.batch.batch_seq + 1);
        let view = HopReceipts::from_frames(topo, h4.hop, h4.path, &published).unwrap();
        // Both frames' receipts, in publish order, each once; the
        // second frame holds none, so they are read in place.
        assert_eq!(&*view.samples, &*h4.samples());
        assert_eq!(&*view.aggregates, &h4.batch.aggregates);
        assert!(matches!(view.samples, Cow::Borrowed(_)));
        assert!(matches!(view.aggregates, Cow::Borrowed(_)));
        // And the collector's verdicts are unchanged by the rotation.
        let analysis = analyze_from_transport(topo, &transport, on_path[0]).unwrap();
        assert!(analysis.all_consistent());
        assert_eq!(baseline, analysis);
    }

    /// A HOP whose key rotates between two frames that both hold
    /// receipts is read from one owned copy of them, in publish order,
    /// and verifies as the run does.
    #[test]
    fn receipts_across_a_rotation_are_copied_once_in_publish_order() {
        use vpm_wire::{HopKey, KeyEpoch, ReceiptTransport};
        let scenario = scenario(0.1, 200, 17, vec![]);
        let (topo, (run, baseline)) = (&scenario.topology, scenario.evaluate());
        let transport = vpm_wire::ShardedBus::new(1);
        let on_path = topo.domain_ids();
        let h4 = run.hop(HopId(4)).unwrap();
        publish_all_but(&transport, &run, Some(h4.hop), &on_path);
        let [first, second] = split_batch(h4);
        publish(&transport, h4, &first, &default_hop_key(h4.hop), &on_path);
        let rotated = HopKey::from_seed(0x5070_a7ed ^ h4.hop.0 as u64);
        assert_eq!(transport.rotate_key(h4.hop, rotated), Ok(KeyEpoch(1)));
        publish(&transport, h4, &second, &rotated, &on_path);

        let frames = transport.fetch_path(on_path[0], &h4.path).unwrap();
        assert_eq!(frames.len(), 2);
        let view = HopReceipts::from_frames(topo, h4.hop, h4.path, &frames).unwrap();
        assert!(matches!(view.samples, Cow::Owned(_)));
        assert!(matches!(view.aggregates, Cow::Owned(_)));
        assert_eq!(&*view.samples, &*h4.samples());
        assert_eq!(&*view.aggregates, &h4.batch.aggregates);
        let analysis = analyze_from_transport(topo, &transport, on_path[0]).unwrap();
        assert_eq!(baseline, analysis);
    }

    /// A frame holding more than one sample receipt for the HOP's path
    /// has its sample records copied into one run, in order, while its
    /// aggregate receipts are still read in place.
    #[test]
    fn several_sample_receipts_in_one_frame_are_copied_in_order() {
        let scenario = scenario(0.1, 200, 17, vec![]);
        let (topo, (run, baseline)) = (&scenario.topology, scenario.evaluate());
        let transport = vpm_wire::ShardedBus::new(1);
        let on_path = topo.domain_ids();
        let h5 = run.hop(HopId(5)).unwrap();
        publish_all_but(&transport, &run, Some(h5.hop), &on_path);
        let [first, second] = split_batch(h5);
        let two_receipts = vpm_core::ReceiptBatch {
            samples: [first.samples, second.samples].concat(),
            ..h5.batch.clone()
        };
        assert_eq!(two_receipts.samples.len(), 2);
        publish(
            &transport,
            h5,
            &two_receipts,
            &default_hop_key(h5.hop),
            &on_path,
        );

        let frames = transport.fetch_path(on_path[0], &h5.path).unwrap();
        assert_eq!(frames.len(), 1);
        let view = HopReceipts::from_frames(topo, h5.hop, h5.path, &frames).unwrap();
        assert!(matches!(view.samples, Cow::Owned(_)));
        assert!(matches!(view.aggregates, Cow::Borrowed(_)));
        assert_eq!(&*view.samples, &*h5.samples());
        assert_eq!(&*view.aggregates, &h5.batch.aggregates);
        let analysis = analyze_from_transport(topo, &transport, on_path[0]).unwrap();
        assert_eq!(baseline, analysis);
    }

    /// A HOP whose frames are missing is a gap in the evidence, not a
    /// domain that does not deploy: the collector drops what that HOP
    /// would have backed (X's estimate, the 3→4 link) and does not
    /// measure X over a segment.
    #[test]
    fn a_missing_hop_is_a_gap_not_a_non_deployer() {
        let scenario = scenario(0.1, 150, 37, vec![]);
        let (topo, (run, _)) = (&scenario.topology, scenario.evaluate());
        let transport = vpm_wire::ShardedBus::new(4);
        let on_path = topo.domain_ids();
        publish_all_but(&transport, &run, Some(HopId(4)), &on_path);
        let analysis = analyze_from_transport(topo, &transport, on_path[0]).unwrap();
        assert!(analysis.domain("X").is_none());
        assert!(analysis.domain("L").is_some() && analysis.domain("N").is_some());
        let links: Vec<(HopId, HopId)> = analysis.links.iter().map(|l| (l.up, l.down)).collect();
        assert!(!links.contains(&(HopId(3), HopId(4))), "{links:?}");
        assert!(links.contains(&(HopId(5), HopId(6))), "{links:?}");
        assert!(analysis.segments.is_empty());
    }

    /// §8: a domain without HOPs gets no report of its own; the 3→6
    /// segment spans it and carries its loss.
    #[test]
    fn non_deployer_measured_by_bracketing_hops() {
        let fig = Figure1 {
            x_transit: lossy(0.15, 5),
            ..Figure1::ideal()
        };
        let scenario = Scenario::quick(fig.build().without_hops("X"), 250, 61, vec![]);
        let (topo, (_, a)) = (&scenario.topology, scenario.evaluate());
        assert!(a.domain("X").is_none());
        let x_id = topo.domain_by_name("X").unwrap().id;
        let seg = a.segment_spanning(x_id).unwrap();
        assert_eq!((seg.up_hop, seg.down_hop), (HopId(3), HopId(6)));
        assert_eq!(seg.spans, vec![x_id]);
        let loss = seg.estimate.loss.rate().unwrap();
        assert!((loss - 0.15).abs() < 0.04, "segment loss {loss}");
        // Deployed neighbors stay clean.
        for d in &a.domains {
            assert!(d.estimate.loss.rate().unwrap_or(0.0) < 0.02, "{}", d.name);
        }
    }

    /// §8: "its neighbors are free to blame their performance problems
    /// on X (since X does not produce any receipts to refute their
    /// claims)". L drops 15% itself, then fabricates egress receipts
    /// claiming full delivery — with X out of the protocol, the
    /// fabricated loss lands on the 3→6 segment, i.e. on X.
    #[test]
    fn non_deployer_absorbs_a_neighbors_lie() {
        let fig = Figure1 {
            l_transit: lossy(0.15, 5),
            ..Figure1::ideal()
        };
        let lie = vec![blame_shift("L")];
        let scenario = Scenario::quick(fig.build().without_hops("X"), 250, 61, lie);
        let (topo, (_, a)) = (&scenario.topology, scenario.evaluate());
        // L's books look clean, and X has none.
        assert!(a.domain("L").unwrap().estimate.loss.rate().unwrap() < 0.01);
        assert!(a.domain("X").is_none());
        // The segment spanning X shows L's loss — blame successfully
        // shifted onto the non-deployer.
        let x_id = topo.domain_by_name("X").unwrap().id;
        let seg = a.segment_spanning(x_id).unwrap();
        assert_eq!((seg.up_hop, seg.down_hop), (HopId(3), HopId(6)));
        let loss = seg.estimate.loss.rate().unwrap();
        assert!(loss > 0.10, "shifted blame {loss}");
    }

    /// A sole deployer's receipts are not independently verified, but
    /// they are *verifiable* (§8): honest, internally consistent records
    /// it can hand to customers during an incident.
    #[test]
    fn sole_deployer_still_self_reports() {
        let fig = Figure1 {
            x_transit: lossy(0.10, 3),
            ..Figure1::ideal()
        };
        let only_x = ["S", "L", "N", "D"]
            .into_iter()
            .fold(fig.build(), Topology::without_hops);
        let scenario = Scenario::quick(only_x, 250, 61, vec![]);
        let (_, a) = scenario.evaluate();
        assert!(a.segments.is_empty(), "no bracketing HOPs exist");
        assert_eq!(a.domains.len(), 1);
        let x = a.domain("X").unwrap();
        let loss = x.estimate.loss.rate().unwrap();
        assert!((loss - 0.10).abs() < 0.03, "self-reported loss {loss}");
        assert!(x.estimate.delay.is_some());
    }

    #[test]
    fn blame_shift_liar_exposed_on_its_link() {
        let scenario = scenario(0.2, 200, 17, vec![blame_shift("X")]);
        let (topo, (_, analysis)) = (&scenario.topology, scenario.evaluate());
        // X now *looks* lossless from its own receipts…
        let x_loss = analysis.domain("X").unwrap().estimate.loss.rate().unwrap();
        assert!(x_loss < 0.01, "liar hides its loss: {x_loss}");
        // …but the X→N link is inconsistent, implicating X to N.
        let flagged = analysis.flagged_links();
        assert!(!flagged.is_empty(), "the lie must surface somewhere");
        assert!(flagged.iter().any(|l| {
            l.up == HopId(5)
                && l.implicates
                    == (
                        topo.domain_by_name("X").unwrap().id,
                        topo.domain_by_name("N").unwrap().id,
                    )
        }));
        // No *other* link is flagged: the evidence localizes the lie.
        for l in &flagged {
            assert_eq!(l.up, HopId(5), "only the X→N link: {:?}", l.up);
        }
    }

    #[test]
    fn colluding_cover_up_moves_blame_into_accomplice() {
        let lies = vec![blame_shift("X"), Lie::CoverUp { accomplice: "N" }];
        let (_, analysis) = scenario(0.2, 200, 17, lies).evaluate();
        // The X→N link now *looks* consistent…
        let xn = analysis.links.iter().find(|l| l.up == HopId(5)).unwrap();
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
        let lies = vec![Lie::Sugarcoat {
            liar: "X",
            shave: SimDuration::from_millis(5), // hide 5 ms of delay
        }];
        let (_, analysis) = scenario(0.0, 200, 17, lies).evaluate();
        // Claiming earlier egress times makes the X→N link transit look
        // LONGER than MaxDiff: rule 2 fires.
        let flagged = analysis.flagged_links();
        assert!(flagged.iter().any(|l| l.up == HopId(5)));
    }
}
