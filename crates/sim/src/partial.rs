//! Partial deployment (paper §8).
//!
//! VPM does not need universal adoption to be useful — and its
//! incentives bite hardest on the domains that stay out:
//!
//! * a **non-deployer produces no receipts**, so the segment of the
//!   path it occupies can only be measured end-to-end between the
//!   nearest deployed HOPs; whatever happens there — including a
//!   deployed neighbor's own lies — lands on the non-deployer, who has
//!   no receipts to refute it ("a domain has to report on its
//!   performance in order to prevent its neighbors from blaming their
//!   problems on it");
//! * a **sole deployer**'s receipts are not independently verified, but
//!   they are *verifiable*: honest, internally consistent records it
//!   can hand to customers during an incident.

use std::collections::HashSet;
use vpm_core::verify::{DomainEstimate, Verifier};
use vpm_packet::{DomainId, HopId};

use crate::run::PathRun;
use crate::topology::{DomainRole, Topology};
use crate::verdict::DomainReport;

/// A path segment between two deployed HOPs that spans at least one
/// non-deploying domain.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// The deployed HOP at the segment's upstream edge.
    pub up_hop: HopId,
    /// The deployed HOP at the downstream edge.
    pub down_hop: HopId,
    /// Non-deploying domains inside the segment — the parties that
    /// will absorb whatever this segment's numbers show.
    pub spans: Vec<DomainId>,
    /// The receipt-derived estimate over the whole segment.
    pub estimate: DomainEstimate,
}

/// Analysis of a partially deployed path.
#[derive(Debug, Clone)]
pub struct PartialAnalysis {
    /// Per-domain estimates for fully deployed transit domains.
    pub domains: Vec<DomainReport>,
    /// Estimates over segments that span non-deployers.
    pub segments: Vec<SegmentReport>,
    /// Domains that deployed VPM.
    pub deployed: Vec<DomainId>,
}

impl PartialAnalysis {
    /// The segment report spanning a given non-deployer, if any.
    pub fn segment_spanning(&self, domain: DomainId) -> Option<&SegmentReport> {
        self.segments.iter().find(|s| s.spans.contains(&domain))
    }
}

/// Analyze a path where only `deployed` domains produce receipts.
///
/// Receipts from non-deployed domains' HOPs are ignored (in a real
/// deployment they would not exist); measurement falls back to the
/// nearest deployed HOPs bracketing each gap.
pub fn analyze_partial(
    topology: &Topology,
    run: &PathRun,
    deployed: &HashSet<DomainId>,
) -> PartialAnalysis {
    let verifier = Verifier::default();

    // Fully deployed transit domains: per-domain estimates as usual.
    let mut domains = Vec::new();
    for dom in &topology.domains {
        if dom.role != DomainRole::Transit || !deployed.contains(&dom.id) {
            continue;
        }
        let (Some(hi), Some(he)) = (
            dom.ingress.and_then(|h| run.hop(h)),
            dom.egress.and_then(|h| run.hop(h)),
        ) else {
            continue;
        };
        domains.push(DomainReport {
            domain: dom.id,
            name: dom.name.clone(),
            hops: (hi.hop, he.hop),
            estimate: verifier.estimate_domain(
                &hi.samples(),
                &hi.batch.aggregates,
                &he.samples(),
                &he.batch.aggregates,
            ),
        });
    }

    // Walk the path; each maximal run of non-deployed domains becomes a
    // segment bracketed by the nearest deployed HOPs.
    let mut segments = Vec::new();
    let mut last_deployed_hop: Option<HopId> = None;
    let mut gap: Vec<DomainId> = Vec::new();
    for dom in &topology.domains {
        if deployed.contains(&dom.id) {
            if !gap.is_empty() {
                if let (Some(up), Some(down_h)) = (last_deployed_hop, dom.ingress) {
                    if let (Some(u), Some(d)) = (run.hop(up), run.hop(down_h)) {
                        segments.push(SegmentReport {
                            up_hop: up,
                            down_hop: down_h,
                            spans: std::mem::take(&mut gap),
                            estimate: verifier.estimate_domain(
                                &u.samples(),
                                &u.batch.aggregates,
                                &d.samples(),
                                &d.batch.aggregates,
                            ),
                        });
                    }
                }
                gap.clear();
            }
            // The most-downstream deployed HOP so far.
            if let Some(h) = dom.egress.or(dom.ingress) {
                last_deployed_hop = Some(h);
            }
        } else {
            gap.push(dom.id);
        }
    }

    // The deployment set arrives as a `HashSet`; the report must not
    // inherit its per-process iteration order.
    #[expect(
        clippy::disallowed_methods,
        reason = "hash order erased by the sort below"
    )]
    let mut deployed_sorted: Vec<DomainId> = deployed.iter().copied().collect();
    deployed_sorted.sort_unstable();
    PartialAnalysis {
        domains,
        segments,
        deployed: deployed_sorted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Lie;
    use crate::run::RunConfig;
    use crate::scenario::Scenario;
    use crate::topology::Figure1;
    use vpm_netsim::channel::{ChannelConfig, DelayModel};
    use vpm_netsim::reorder::ReorderModel;
    use vpm_packet::SimDuration;
    use vpm_trace::TraceConfig;

    fn scenario(x_loss: f64, l_loss: f64, lies: Vec<Lie>) -> (Topology, PathRun) {
        let mut fig = Figure1::ideal();
        let ch = |loss: f64, seed: u64| ChannelConfig {
            delay: DelayModel::Constant(SimDuration::from_micros(300)),
            loss: (loss > 0.0).then_some((loss, 4.0)),
            reorder: ReorderModel::none(),
            seed,
        };
        fig.x_transit = ch(x_loss, 3);
        fig.l_transit = ch(l_loss, 5);
        let trace = TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(250),
            ..TraceConfig::paper_default(1, 61)
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
            ..Scenario::new(trace, fig.build(), cfg)
        };
        let run = scenario.evaluate().0;
        (scenario.topology, run)
    }

    fn deployed_except(topo: &Topology, name: &str) -> HashSet<DomainId> {
        topo.domains
            .iter()
            .filter(|d| d.name != name)
            .map(|d| d.id)
            .collect()
    }

    #[test]
    fn non_deployer_measured_by_bracketing_hops() {
        let (topo, run) = scenario(0.15, 0.0, vec![]);
        let deployed = deployed_except(&topo, "X");
        let a = analyze_partial(&topo, &run, &deployed);
        // X has no per-domain report…
        assert!(a.domains.iter().all(|d| d.name != "X"));
        // …but the 3→6 segment spans it and carries its loss.
        let x_id = topo.domain_by_name("X").unwrap().id;
        let seg = a.segment_spanning(x_id).expect("segment over X");
        assert_eq!(seg.up_hop, HopId(3));
        assert_eq!(seg.down_hop, HopId(6));
        let loss = seg.estimate.loss.rate().unwrap();
        assert!((loss - 0.15).abs() < 0.04, "segment loss {loss}");
        // Deployed neighbors stay clean.
        for d in &a.domains {
            assert!(d.estimate.loss.rate().unwrap_or(0.0) < 0.02, "{}", d.name);
        }
    }

    #[test]
    fn non_deployer_absorbs_a_neighbors_lie() {
        // §8: "its neighbors are free to blame their performance
        // problems on X (since X does not produce any receipts to
        // refute their claims)". L drops 15% itself, then fabricates
        // egress receipts claiming full delivery — with X out of the
        // protocol, the fabricated loss lands on the 3→6 segment, i.e.
        // on X.
        let lie = Lie::BlameShift {
            liar: "L",
            claimed_delay: SimDuration::from_micros(300),
        };
        let (topo, run) = scenario(0.0, 0.15, vec![lie]);
        let deployed = deployed_except(&topo, "X");
        let a = analyze_partial(&topo, &run, &deployed);
        // L's books look clean.
        let l = a.domains.iter().find(|d| d.name == "L").unwrap();
        assert!(l.estimate.loss.rate().unwrap() < 0.01);
        // The segment spanning X shows L's loss — blame successfully
        // shifted onto the non-deployer.
        let x_id = topo.domain_by_name("X").unwrap().id;
        let seg = a.segment_spanning(x_id).unwrap();
        let loss = seg.estimate.loss.rate().unwrap();
        assert!(loss > 0.10, "shifted blame {loss}");
    }

    #[test]
    fn sole_deployer_still_self_reports() {
        let (topo, run) = scenario(0.10, 0.0, vec![]);
        // Only X deploys.
        let deployed: HashSet<DomainId> =
            [topo.domain_by_name("X").unwrap().id].into_iter().collect();
        let a = analyze_partial(&topo, &run, &deployed);
        assert!(a.segments.is_empty(), "no bracketing HOPs exist");
        let x = a.domains.iter().find(|d| d.name == "X").unwrap();
        // X's self-report is available and accurate — verifiable even if
        // not currently verified (§8).
        let loss = x.estimate.loss.rate().unwrap();
        assert!((loss - 0.10).abs() < 0.03, "self-reported loss {loss}");
        assert!(x.estimate.delay.is_some());
    }

    #[test]
    fn full_deployment_degenerates_to_standard_analysis() {
        let (topo, run) = scenario(0.10, 0.0, vec![]);
        let deployed: HashSet<DomainId> = topo.domain_ids().into_iter().collect();
        let a = analyze_partial(&topo, &run, &deployed);
        assert!(a.segments.is_empty());
        assert_eq!(a.domains.len(), 3); // L, X, N
    }
}
