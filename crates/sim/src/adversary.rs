//! Lying-domain strategies (the paper's threat model, §2.1).
//!
//! A lying domain constructs receipts from incomplete or fabricated
//! information; colluding domains may share observations. These
//! helpers doctor a [`crate::run::HopOutput`]'s receipts the way a liar
//! would, so tests and examples can demonstrate the §3.1 exposure
//! story: lies create inconsistencies, and the inconsistency always
//! lands on an inter-domain link adjacent to a liar, exposing it to the
//! neighbor it implicated.

use vpm_core::receipt::{AggReceipt, SampleRecord};
use vpm_packet::{HopId, SimDuration};

use crate::run::{HopOutput, PathRun};

/// How a lying domain doctors its egress receipts.
#[derive(Debug, Clone, Copy)]
pub enum LieStrategy {
    /// Hide loss: claim every packet that *entered* the domain was
    /// delivered, with a small plausible transit delay. (The §3.1
    /// example: X drops p but claims delivering it to N.)
    BlameShiftLoss {
        /// The fake transit delay to stamp on fabricated receipts.
        claimed_delay: SimDuration,
    },
    /// Hide delay: report egress timestamps shaved by a constant.
    SugarcoatDelay {
        /// How much delay to hide.
        shave: SimDuration,
    },
}

/// Apply a lie: rewrite the egress HOP's receipts given the domain's
/// ingress observations. Returns the doctored egress output.
///
/// The receipt batch is re-signed with the HOP's own key — a lying
/// domain signs its own lies; authenticity is not what VPM relies on to
/// catch them (consistency is).
pub fn apply_lie(ingress: &HopOutput, egress: &mut HopOutput, strategy: LieStrategy) {
    match strategy {
        LieStrategy::BlameShiftLoss { claimed_delay } => {
            // Claim the egress saw exactly what the ingress saw.
            egress.samples = ingress
                .samples
                .iter()
                .map(|r| SampleRecord {
                    pkt_id: r.pkt_id,
                    time: r.time + claimed_delay,
                })
                .collect();
            egress.aggregates = ingress
                .aggregates
                .iter()
                .map(|a| AggReceipt {
                    path: egress.path,
                    ..a.clone()
                })
                .collect();
        }
        LieStrategy::SugarcoatDelay { shave } => {
            for r in &mut egress.samples {
                r.time = r.time - shave;
            }
        }
    }
    rebatch(egress);
}

/// One lying egress: the domain whose egress HOP doctors its receipts
/// from what its ingress HOP observed.
#[derive(Debug, Clone, Copy)]
pub struct LieSite {
    /// The liar's ingress HOP (source of the observations the lie is
    /// constructed from).
    pub ingress: HopId,
    /// The liar's egress HOP (whose receipts are doctored).
    pub egress: HopId,
    /// The lie.
    pub strategy: LieStrategy,
}

/// Apply several independent lies to one run — the multi-liar threat
/// model: each site's domain doctors its own egress from its own
/// ingress observations, without coordination between liars. §3.1's
/// localization argument applies to each liar separately: every lie
/// still surfaces on an inter-domain link adjacent to *that* liar.
pub fn apply_lies(run: &mut PathRun, sites: &[LieSite]) {
    for site in sites {
        #[expect(
            clippy::expect_used,
            reason = "the lie site was resolved on this run's path just above"
        )]
        let ingress = run
            .hop(site.ingress)
            .expect("lie site ingress exists")
            .clone();
        #[expect(
            clippy::expect_used,
            reason = "the lie site was resolved on this run's path just above"
        )]
        let egress = run.hop_mut(site.egress).expect("lie site egress exists");
        apply_lie(&ingress, egress, site.strategy);
    }
}

/// Collusion: a downstream neighbor covers an upstream liar by claiming
/// to have received exactly what the liar claims to have delivered
/// (§3.1: "N has the option of covering X's lie"). The neighbor's
/// *ingress* receipts become a copy of the liar's egress claims.
pub fn cover_up(liar_egress: &HopOutput, accomplice_ingress: &mut HopOutput) {
    accomplice_ingress.samples = liar_egress
        .samples
        .iter()
        .map(|r| SampleRecord {
            pkt_id: r.pkt_id,
            // Received right after the liar claims to have delivered.
            time: r.time + SimDuration::from_micros(50),
        })
        .collect();
    accomplice_ingress.aggregates = liar_egress
        .aggregates
        .iter()
        .map(|a| AggReceipt {
            path: accomplice_ingress.path,
            ..a.clone()
        })
        .collect();
    rebatch(accomplice_ingress);
}

/// Rebuild the HOP's batch from its doctored records. The liar holds
/// its own key, so the frame it publishes MAC-verifies: authenticity
/// binds a receipt to its HOP, not to the truth.
fn rebatch(out: &mut HopOutput) {
    out.batch.samples = vec![vpm_core::receipt::SampleReceipt {
        path: out.path,
        samples: out.samples.clone(),
    }];
    out.batch.aggregates = out.aggregates.clone();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_path, RunConfig};
    use crate::topology::Figure1;
    use vpm_netsim::channel::{ChannelConfig, DelayModel};
    use vpm_netsim::reorder::ReorderModel;
    use vpm_packet::{HopId, SimDuration};
    use vpm_trace::{TraceConfig, TraceGenerator};

    fn lossy_x_run() -> crate::run::PathRun {
        let t = TraceGenerator::new(TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(150),
            ..TraceConfig::paper_default(1, 11)
        })
        .generate();
        let mut fig = Figure1::ideal();
        fig.x_transit = ChannelConfig {
            delay: DelayModel::Constant(SimDuration::from_micros(200)),
            loss: Some((0.15, 4.0)),
            reorder: ReorderModel::none(),
            seed: 3,
        };
        let cfg = RunConfig {
            sampling_rate: 0.05,
            aggregate_size: 500,
            marker_rate: 0.01,
            j_window: SimDuration::from_millis(2),
            ..RunConfig::default()
        };
        run_path(&t, &fig.build(), &cfg)
    }

    #[test]
    fn blame_shift_fabricates_full_delivery() {
        let mut run = lossy_x_run();
        let ingress = run.hop(HopId(4)).unwrap().clone();
        let egress = run.hop_mut(HopId(5)).unwrap();
        let before = egress.samples.len();
        apply_lie(
            &ingress,
            egress,
            LieStrategy::BlameShiftLoss {
                claimed_delay: SimDuration::from_micros(200),
            },
        );
        assert!(
            egress.samples.len() > before,
            "lie must add fabricated records"
        );
        assert_eq!(egress.samples.len(), ingress.samples.len());
        // The batch the liar will sign and publish carries the lie.
        let h5 = run.hop(HopId(5)).unwrap();
        assert_eq!(h5.batch.sample_records(), h5.samples.len());
    }

    #[test]
    fn sugarcoat_shifts_times_down() {
        let mut run = lossy_x_run();
        let ingress = run.hop(HopId(4)).unwrap().clone();
        let before: Vec<_> = run.hop(HopId(5)).unwrap().samples.clone();
        let egress = run.hop_mut(HopId(5)).unwrap();
        apply_lie(
            &ingress,
            egress,
            LieStrategy::SugarcoatDelay {
                shave: SimDuration::from_micros(150),
            },
        );
        for (a, b) in before.iter().zip(&egress.samples) {
            assert!(b.time <= a.time);
            assert_eq!(a.pkt_id, b.pkt_id);
        }
    }

    #[test]
    fn apply_lies_doctors_every_site_independently() {
        let mut run = lossy_x_run();
        let l_ingress = run.hop(HopId(2)).unwrap().samples.len();
        let n_ingress = run.hop(HopId(6)).unwrap().samples.len();
        apply_lies(
            &mut run,
            &[
                LieSite {
                    ingress: HopId(2),
                    egress: HopId(3),
                    strategy: LieStrategy::BlameShiftLoss {
                        claimed_delay: SimDuration::from_micros(200),
                    },
                },
                LieSite {
                    ingress: HopId(6),
                    egress: HopId(7),
                    strategy: LieStrategy::BlameShiftLoss {
                        claimed_delay: SimDuration::from_micros(200),
                    },
                },
            ],
        );
        // Each egress now mirrors its own ingress, batch included.
        for (egress, expect) in [(HopId(3), l_ingress), (HopId(7), n_ingress)] {
            let h = run.hop(egress).unwrap();
            assert_eq!(h.samples.len(), expect, "{egress}");
            assert_eq!(h.batch.sample_records(), expect, "{egress}");
        }
    }

    #[test]
    fn cover_up_copies_the_lie() {
        let mut run = lossy_x_run();
        let ingress = run.hop(HopId(4)).unwrap().clone();
        {
            let egress = run.hop_mut(HopId(5)).unwrap();
            apply_lie(
                &ingress,
                egress,
                LieStrategy::BlameShiftLoss {
                    claimed_delay: SimDuration::from_micros(200),
                },
            );
        }
        let liar_egress = run.hop(HopId(5)).unwrap().clone();
        let accomplice = run.hop_mut(HopId(6)).unwrap();
        cover_up(&liar_egress, accomplice);
        assert_eq!(accomplice.samples.len(), liar_egress.samples.len());
        let ids_match = accomplice
            .samples
            .iter()
            .zip(&liar_egress.samples)
            .all(|(a, b)| a.pkt_id == b.pkt_id && a.time >= b.time);
        assert!(ids_match);
    }
}
