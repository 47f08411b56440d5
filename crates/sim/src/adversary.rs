//! Lying domains (the paper's threat model, §2.1): one [`Lie`] for
//! every way a domain can misreport or mistreat the traffic it carries.
//!
//! A domain either signs receipts that do not match what it forwarded
//! (a *receipt* lie: [`Lie::BlameShift`], [`Lie::Sugarcoat`],
//! [`Lie::CoverUp`]) or treats the packets it forwards differently (a
//! *forwarding* lie: [`Lie::MarkerDrop`], [`Lie::FastPath`]). A
//! [`crate::Scenario`] applies forwarding lies while it simulates the
//! path and receipt lies to the batches before each HOP signs them. A
//! liar holds its own key, so its frames MAC-verify: authenticity binds
//! a receipt to its HOP, not to the truth, and VPM catches lies by
//! consistency instead. §3.1's claim is that a receipt lie always
//! surfaces on an inter-domain link adjacent to a liar, exposing it to
//! the neighbor it implicated.

use std::borrow::Cow;
use vpm_core::receipt::{AggReceipt, SampleReceipt, SampleRecord};
use vpm_hash::{Digest, Threshold};
use vpm_netsim::channel::{ChannelConfig, DelayModel};
use vpm_netsim::congestion::PacketFate;
use vpm_packet::SimDuration;

use crate::run::Report;
use crate::topology::Topology;

/// One domain's lie. Domains are named as in Figure 1 (`"L"`, `"X"`,
/// `"N"`); a lie naming a domain that is not on the path, or a HOP the
/// domain does not have, changes nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lie {
    /// Hide loss: the liar's egress claims it delivered every packet
    /// its ingress saw, `claimed_delay` later (§3.1: X drops p but
    /// claims delivering it to N).
    BlameShift {
        /// The lying domain.
        liar: &'static str,
        /// The transit delay stamped on every claim.
        claimed_delay: SimDuration,
    },
    /// Hide delay: the liar's egress reports every timestamp `shave`
    /// early.
    Sugarcoat {
        /// The lying domain.
        liar: &'static str,
        /// How much delay to hide.
        shave: SimDuration,
    },
    /// Collusion: the accomplice's ingress claims it received exactly
    /// what its upstream neighbor claims to have delivered, 50 µs
    /// later (§3.1: "N has the option of covering X's lie"). Listed
    /// after the neighbor's own lie, it copies that lie.
    CoverUp {
        /// The covering domain.
        accomplice: &'static str,
    },
    /// The liar drops every marker packet it carries (§5.3).
    MarkerDrop {
        /// The lying domain.
        liar: &'static str,
    },
    /// The liar forwards the packets it guesses will be sampled (their
    /// own digest passes the HOPs' sampling rate) after `fast`, and
    /// every other packet as its channel would (§5.1). Algorithm 1 keys
    /// the real decision on a future marker, so the guess misses.
    FastPath {
        /// The lying domain.
        liar: &'static str,
        /// The delay of a fast-pathed packet.
        fast: SimDuration,
        /// Seeds the per-packet draws of a jittered slow path.
        seed: u64,
    },
}

/// The 64-bit golden-ratio increment of the splitmix64 streams.
pub(crate) const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output function.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Lie {
    /// Does this lie change what the liar does to packets, rather than
    /// what its HOPs sign?
    pub(crate) fn forwards(&self) -> bool {
        matches!(self, Lie::MarkerDrop { .. } | Lie::FastPath { .. })
    }

    /// Does domain `name` drop the markers it carries under `lies`?
    pub(crate) fn drops_markers(lies: &[Lie], name: &str) -> bool {
        lies.iter()
            .any(|l| matches!(l, Lie::MarkerDrop { liar } if *liar == name))
    }

    /// What domain `name` does to the packets it forwards under `lies`:
    /// its own `channel`, with the delay of each packet whose digest
    /// passes `guess` replaced by a fast path if it fast-paths.
    /// `digests` are the trace's, in trace order; the replacement is a
    /// per-packet series over them.
    pub(crate) fn transit<'a>(
        lies: &[Lie],
        name: &str,
        channel: &'a ChannelConfig,
        digests: &[Digest],
        guess: Threshold,
    ) -> Cow<'a, ChannelConfig> {
        let Some((fast, seed)) = lies.iter().find_map(|l| match *l {
            Lie::FastPath { liar, fast, seed } if liar == name => Some((fast, seed)),
            _ => None,
        }) else {
            return Cow::Borrowed(channel);
        };
        let fates = digests
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let z = splitmix(seed.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN)));
                let slow = match &channel.delay {
                    DelayModel::Constant(d) => PacketFate::Delivered(*d),
                    DelayModel::Jitter { base, jitter } => PacketFate::Delivered(
                        *base + SimDuration::from_micros(z % (jitter.as_nanos() / 1000 + 1)),
                    ),
                    DelayModel::Series(fates) => {
                        fates.get(i).copied().unwrap_or(PacketFate::Dropped)
                    }
                };
                if guess.passes(d.0) {
                    PacketFate::Delivered(fast)
                } else {
                    slow
                }
            })
            .collect();
        Cow::Owned(ChannelConfig {
            delay: DelayModel::Series(fates),
            ..channel.clone()
        })
    }

    /// Rewrite the receipts the HOPs of `topology` are about to sign,
    /// if this is a receipt lie. `reports` are in path order.
    pub(crate) fn doctor(&self, topology: &Topology, reports: &mut [Report]) {
        let hops = |name: &str| topology.domain_by_name(name).map(|d| (d.ingress, d.egress));
        let (from, to, shift) = match *self {
            Lie::BlameShift {
                liar,
                claimed_delay,
            } => match hops(liar) {
                Some((Some(ingress), Some(egress))) => {
                    (ingress, egress, Shift::Later(claimed_delay))
                }
                _ => return,
            },
            Lie::Sugarcoat { liar, shave } => match hops(liar) {
                Some((_, Some(egress))) => (egress, egress, Shift::Earlier(shave)),
                _ => return,
            },
            Lie::CoverUp { accomplice } => {
                let Some((Some(ingress), _)) = hops(accomplice) else {
                    return;
                };
                match topology.links.iter().find(|l| l.down == ingress) {
                    Some(link) => (link.up, ingress, Shift::Later(SimDuration::from_micros(50))),
                    None => return,
                }
            }
            Lie::MarkerDrop { .. } | Lie::FastPath { .. } => return,
        };
        let Some(source) = reports.iter().find(|r| r.hop == from) else {
            return;
        };
        let samples: Vec<SampleRecord> = source
            .batch
            .samples
            .iter()
            .flat_map(|r| &r.samples)
            .map(|r| SampleRecord {
                pkt_id: r.pkt_id,
                time: match shift {
                    Shift::Later(d) => r.time + d,
                    Shift::Earlier(d) => r.time - d,
                },
            })
            .collect();
        let aggregates = source.batch.aggregates.clone();
        if let Some(target) = reports.iter_mut().find(|r| r.hop == to) {
            forge(target, samples, aggregates);
        }
    }
}

/// Which way a receipt lie moves the timestamps it copies.
#[derive(Clone, Copy)]
enum Shift {
    Later(SimDuration),
    Earlier(SimDuration),
}

/// Make `target` claim `samples` and `aggregates` as one sample receipt
/// and its own aggregate receipts, all under its own `PathID`.
fn forge(target: &mut Report, samples: Vec<SampleRecord>, aggregates: Vec<AggReceipt>) {
    let path = target.path;
    target.batch.samples = vec![SampleReceipt { path, samples }];
    target.batch.aggregates = aggregates
        .into_iter()
        .map(|a| AggReceipt { path, ..a })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::PathRun;
    use crate::scenario::{lossy, Scenario};
    use crate::topology::Figure1;
    use vpm_packet::HopId;

    fn lossy_x(lies: Vec<Lie>) -> PathRun {
        let fig = Figure1 {
            x_transit: lossy(0.15, 3),
            ..Figure1::ideal()
        };
        Scenario::quick(fig.build(), 150, 11, lies).evaluate().0
    }

    fn blame_shift(liar: &'static str) -> Lie {
        Lie::BlameShift {
            liar,
            claimed_delay: SimDuration::from_micros(200),
        }
    }

    #[test]
    fn blame_shift_fabricates_full_delivery() {
        let honest = lossy_x(vec![]);
        let lying = lossy_x(vec![blame_shift("X")]);
        let before = honest.hop(HopId(5)).unwrap().samples().len();
        let ingress = lying.hop(HopId(4)).unwrap().samples();
        let egress = lying.hop(HopId(5)).unwrap();
        assert!(
            egress.samples().len() > before,
            "lie must add fabricated records"
        );
        assert_eq!(egress.samples().len(), ingress.len());
        // The liar signs one sample receipt under its own PathID.
        assert_eq!(egress.batch.samples.len(), 1);
        assert_eq!(egress.batch.samples[0].path, egress.path);
        assert!(egress
            .batch
            .aggregates
            .iter()
            .all(|a| a.path == egress.path));
    }

    #[test]
    fn sugarcoat_shifts_times_down() {
        let honest = lossy_x(vec![]);
        let lying = lossy_x(vec![Lie::Sugarcoat {
            liar: "X",
            shave: SimDuration::from_micros(150),
        }]);
        let before = honest.hop(HopId(5)).unwrap().samples();
        let after = lying.hop(HopId(5)).unwrap().samples();
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            assert!(b.time <= a.time);
            assert_eq!(a.pkt_id, b.pkt_id);
        }
    }

    #[test]
    fn apply_lies_doctors_every_site_independently() {
        let honest = lossy_x(vec![]);
        let lying = lossy_x(vec![blame_shift("L"), blame_shift("N")]);
        // Each egress now mirrors its own ingress; X's is untouched.
        for (ingress, egress) in [(HopId(2), HopId(3)), (HopId(6), HopId(7))] {
            let expect = lying.hop(ingress).unwrap().samples().len();
            assert_eq!(
                lying.hop(egress).unwrap().samples().len(),
                expect,
                "{egress}"
            );
        }
        assert_eq!(
            lying.hop(HopId(5)).unwrap().batch,
            honest.hop(HopId(5)).unwrap().batch
        );
    }

    #[test]
    fn cover_up_copies_the_lie() {
        let run = lossy_x(vec![blame_shift("X"), Lie::CoverUp { accomplice: "N" }]);
        let liar = run.hop(HopId(5)).unwrap().samples();
        let accomplice = run.hop(HopId(6)).unwrap().samples();
        assert_eq!(accomplice.len(), liar.len());
        assert!(accomplice
            .iter()
            .zip(liar.iter())
            .all(|(a, b)| a.pkt_id == b.pkt_id && a.time >= b.time));
    }
}
