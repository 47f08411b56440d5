//! Path-level analysis: the receipt collector's view.
//!
//! A collector gathers receipts from *all* HOPs on a path (§3.1 shows
//! why anything less destroys the honesty incentives), computes every
//! domain's loss/delay estimate, checks every inter-domain link's
//! consistency, and reports which links carry inconsistent claims —
//! each such link implicates its two adjacent domains, and the
//! implicated honest domain knows exactly who lied.

use std::borrow::Cow;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vpm_core::receipt::{AggReceipt, PathId, SampleRecord};
use vpm_core::verify::{DomainEstimate, LinkReport, Verifier};
use vpm_packet::{DomainId, HopId};
use vpm_wire::{KeyEpoch, Published, ReceiptTransport, TransportError};

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
/// are: borrowed from a [`PathRun`]'s [`HopOutput`], or from the frames
/// a transport served. A HOP whose receipts fill one frame (with one
/// sample receipt) is read straight from it; only receipts spread over
/// several frames (a key rotation mid-stream) or several sample
/// receipts are concatenated into one owned copy, in publish order.
#[derive(Debug, Clone)]
pub struct HopReceipts<'a> {
    /// The HOP.
    pub hop: HopId,
    /// Its domain.
    pub domain: DomainId,
    /// The `PathID` its receipts carry.
    pub path: PathId,
    /// Its sample records, in observation order.
    pub samples: Cow<'a, [SampleRecord]>,
    /// Its aggregate receipts, in stream order.
    pub aggregates: Cow<'a, [AggReceipt]>,
    /// The key epoch its receipts were authenticated under: the newest
    /// one when a rotation happened mid-stream. A verifier never holds
    /// a HOP's key.
    pub key_epoch: KeyEpoch,
}

impl<'a> HopReceipts<'a> {
    fn of_output(h: &'a HopOutput) -> Self {
        HopReceipts {
            hop: h.hop,
            domain: h.domain,
            path: h.path,
            samples: h.samples(),
            aggregates: Cow::Borrowed(&h.batch.aggregates),
            key_epoch: h.key_epoch,
        }
    }

    /// `hop`'s receipts from its fetched `frames`, in publish order;
    /// `None` for a HOP outside `topology` or without frames.
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
            key_epoch: frames.iter().map(|p| p.epoch).max()?,
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

/// Analyze a completed path run (possibly doctored by adversaries).
pub fn analyze_path(topology: &Topology, run: &PathRun) -> PathAnalysis {
    let hops: Vec<HopReceipts> = run.hops.iter().map(HopReceipts::of_output).collect();
    analyze(topology, &hops)
}

/// Analyze a path from disseminated receipts alone: fetch every HOP's
/// frames from the transport as `requester`, read the decoded batches
/// per HOP in publish order, and run the same verifier logic as
/// [`analyze_path`].
///
/// This is the receipt collector's real position in the redesigned
/// pipeline — it never touches a `PathRun`, only what `publish` put on
/// the wire. Authenticity was enforced once, at publish (the transport
/// refuses a frame whose MAC does not verify under its HOP's key), so
/// the collector reads the decoded batches in place ([`HopReceipts`]);
/// HOPs that published nothing are simply absent from the analysis,
/// exactly like non-deployed HOPs in [`analyze_path`]. Fails with
/// [`TransportError::NotOnPath`] when `requester` did not observe the
/// traffic.
pub fn analyze_from_transport(
    topology: &Topology,
    transport: &dyn ReceiptTransport,
    requester: DomainId,
) -> Result<PathAnalysis, TransportError> {
    let mut fetched = Vec::new();
    for hop in topology.hops() {
        let frames = transport.fetch(requester, hop)?;
        // An empty batch (e.g. a quiet first reporting interval) has no
        // path table; take the path from the first frame that names one
        // and skip the hop only if *no* frame does.
        let Some(&path) = frames.iter().find_map(|p| p.paths.first()) else {
            continue;
        };
        fetched.push((hop, path, frames));
    }
    Ok(analyze_frames(topology, &fetched))
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
    Ok(analyze_frames(topology, &fetched))
}

/// The analysis over each fetched HOP's frames, read in place.
fn analyze_frames(
    topology: &Topology,
    fetched: &[(HopId, PathId, Vec<Arc<Published>>)],
) -> PathAnalysis {
    let hops: Vec<HopReceipts> = fetched
        .iter()
        .filter_map(|(hop, path, frames)| HopReceipts::from_frames(topology, *hop, *path, frames))
        .collect();
    analyze(topology, &hops)
}

/// The one analysis body: every transit domain's estimate, then every
/// link's consistency verdict, from whichever HOPs have receipts.
fn analyze(topology: &Topology, hops: &[HopReceipts]) -> PathAnalysis {
    let verifier = Verifier::default();
    let hop = |id: HopId| hops.iter().find(|h| h.hop == id);

    let mut domains = Vec::new();
    for dom in &topology.domains {
        if dom.role != DomainRole::Transit {
            continue;
        }
        let (Some(ing), Some(eg)) = (dom.ingress, dom.egress) else {
            continue;
        };
        let (Some(hi), Some(he)) = (hop(ing), hop(eg)) else {
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
        let (Some(up), Some(down)) = (hop(link.up), hop(link.down)) else {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Lie;
    use crate::run::RunConfig;
    use crate::scenario::Scenario;
    use crate::topology::Figure1;
    use vpm_core::processor::default_hop_key;
    use vpm_netsim::channel::{ChannelConfig, DelayModel};
    use vpm_netsim::reorder::ReorderModel;
    use vpm_packet::SimDuration;
    use vpm_trace::TraceConfig;

    /// Figure 1 with `loss_in_x` inside X (bursts of 4), a `ms`-long
    /// 50 kpps trace of `seed`, and the given lies.
    fn scenario(loss_in_x: f64, ms: u64, seed: u64, lies: Vec<Lie>) -> Scenario {
        let mut fig = Figure1::ideal();
        if loss_in_x > 0.0 {
            fig.x_transit = ChannelConfig {
                delay: DelayModel::Constant(SimDuration::from_micros(200)),
                loss: Some((loss_in_x, 4.0)),
                reorder: ReorderModel::none(),
                seed: 5,
            };
        }
        let trace = TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(ms),
            ..TraceConfig::paper_default(1, seed)
        };
        let cfg = RunConfig {
            sampling_rate: 0.05,
            aggregate_size: 500,
            marker_rate: 0.01,
            j_window: SimDuration::from_millis(2),
            ..RunConfig::default()
        };
        Scenario {
            lies,
            ..Scenario::new(trace, fig.build(), cfg)
        }
    }

    fn blame_shift() -> Lie {
        Lie::BlameShift {
            liar: "X",
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

    /// Field by field: every domain's estimate and every link's report.
    fn assert_same_analysis(a: &PathAnalysis, b: &PathAnalysis) {
        assert_eq!(a.domains.len(), b.domains.len());
        for (a, b) in a.domains.iter().zip(&b.domains) {
            assert_eq!((a.domain, &a.name, a.hops), (b.domain, &b.name, b.hops));
            assert_eq!(a.estimate, b.estimate, "{}", a.name);
        }
        assert_eq!(a.links.len(), b.links.len());
        for (a, b) in a.links.iter().zip(&b.links) {
            assert_eq!((a.up, a.down, a.implicates), (b.up, b.down, b.implicates));
            assert_eq!(a.report, b.report, "{}→{}", a.up, a.down);
        }
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

    /// A collector working purely from disseminated frames reaches the
    /// same verdicts as one reading the runner's outputs directly.
    #[test]
    fn transport_only_analysis_matches_path_analysis() {
        let scenario = scenario(0.15, 200, 23, vec![]);
        let topo = &scenario.topology;
        let transport = vpm_wire::ShardedBus::new(4);
        let run = scenario.run(&transport).unwrap();
        let from_run = analyze_path(topo, &run);
        let requester = topo.domain_ids()[0];
        let from_wire = super::analyze_from_transport(topo, &transport, requester).unwrap();
        assert_same_analysis(&from_run, &from_wire);
        // And an off-path collector is refused outright.
        assert!(matches!(
            super::analyze_from_transport(topo, &transport, DomainId(99)),
            Err(vpm_wire::TransportError::NotOnPath { .. })
        ));
    }

    /// A quiet first reporting interval publishes an empty batch (no
    /// path table) as `batch_seq` 0; the collector must still use the
    /// populated batch that follows as 1 rather than dropping the HOP.
    /// Those batches are the HOP's only receipts, so both collectors
    /// read them in place.
    #[test]
    fn empty_first_batch_does_not_hide_a_hop_from_the_collector() {
        let scenario = Scenario {
            quiet_first_interval: true,
            ..scenario(0.0, 150, 29, vec![])
        };
        let topo = &scenario.topology;
        let transport = vpm_wire::ShardedBus::new(1);
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
        let baseline = analyze_path(topo, &run);
        let by_hop = super::analyze_from_transport(topo, &transport, on_path[0]).unwrap();
        assert_same_analysis(&baseline, &by_hop);
        let scoped = super::analyze_from_transport_scoped(topo, &transport, on_path[0]).unwrap();
        assert_same_analysis(&baseline, &scoped);
    }

    /// The path-scoped collector (one shard per HOP fetch) reaches the
    /// same verdicts as the by-HOP collector, including with an empty
    /// first reporting interval on the bus.
    #[test]
    fn scoped_analysis_matches_hop_fetch_analysis() {
        let scenario = Scenario {
            quiet_first_interval: true,
            ..scenario(0.1, 150, 31, vec![])
        };
        let topo = &scenario.topology;
        let transport = vpm_wire::ShardedBus::new(8);
        let run = scenario.run(&transport).unwrap();
        let requester = topo.domain_ids()[0];
        let by_hop = super::analyze_from_transport(topo, &transport, requester).unwrap();
        let scoped = super::analyze_from_transport_scoped(topo, &transport, requester).unwrap();
        assert_same_analysis(&by_hop, &scoped);
        assert_same_analysis(&analyze_path(topo, &run), &scoped);
    }

    /// A HOP whose key rotates mid-stream stays fully analyzable: the
    /// old-epoch frames keep being served, the new key signs at the
    /// bumped epoch, the retired key is refused, and the collector's
    /// view of the HOP carries the newest authenticated epoch (never a
    /// secret).
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
            Err(vpm_wire::TransportError::BadMac { hop: h4.hop })
        );
        // Fetch serves both epochs, each frame verified at publish under
        // its own, in publish order; the collector's view carries the
        // newest authenticated epoch, and no secret: `HopReceipts` has
        // no key field at all.
        let published = transport.fetch(on_path[0], h4.hop).unwrap();
        assert_eq!(published.len(), 2);
        assert_eq!(published[0].epoch, KeyEpoch(0));
        assert_eq!(published[1].epoch, KeyEpoch(1));
        assert_eq!(published[0].batch.batch_seq, h4.batch.batch_seq);
        assert_eq!(published[1].batch.batch_seq, h4.batch.batch_seq + 1);
        let view = HopReceipts::from_frames(topo, h4.hop, h4.path, &published).unwrap();
        assert_eq!(view.key_epoch, KeyEpoch(1));
        // Both frames' receipts, in publish order, each once; the
        // second frame holds none, so they are read in place.
        assert_eq!(&*view.samples, &*h4.samples());
        assert_eq!(&*view.aggregates, &h4.batch.aggregates);
        assert!(matches!(view.samples, Cow::Borrowed(_)));
        assert!(matches!(view.aggregates, Cow::Borrowed(_)));
        // And the collector's verdicts are unchanged by the rotation.
        let analysis = super::analyze_from_transport(topo, &transport, on_path[0]).unwrap();
        assert!(analysis.all_consistent());
        assert_same_analysis(&baseline, &analysis);
        let scoped = super::analyze_from_transport_scoped(topo, &transport, on_path[0]).unwrap();
        assert_same_analysis(&baseline, &scoped);
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
        assert_eq!(view.key_epoch, KeyEpoch(1));
        let scoped = super::analyze_from_transport_scoped(topo, &transport, on_path[0]).unwrap();
        assert_same_analysis(&baseline, &scoped);
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
        let scoped = super::analyze_from_transport_scoped(topo, &transport, on_path[0]).unwrap();
        assert_same_analysis(&baseline, &scoped);
    }

    #[test]
    fn blame_shift_liar_exposed_on_its_link() {
        let scenario = scenario(0.2, 200, 17, vec![blame_shift()]);
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
        let lies = vec![blame_shift(), Lie::CoverUp { accomplice: "N" }];
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
