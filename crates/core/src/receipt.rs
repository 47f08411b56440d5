//! Traffic receipts (paper §4).
//!
//! Two kinds of receipts exist:
//!
//! * sample receipts `R = ⟨PathID, Samples⟩`, where `Samples` is a
//!   sequence of `⟨PktID, Time⟩` records;
//! * aggregate receipts `R = ⟨PathID, AggID, PktCnt, AggTrans⟩`, where
//!   `AggID` is the digest pair of the aggregate's first and last
//!   packets, `PktCnt` the number of packets the HOP counted into the
//!   aggregate, and `AggTrans` the reordering patch-up window of §6.3.
//!
//! `PathID = ⟨HeaderSpec, PreviousHOP, NextHOP, MaxDiff⟩` names the HOP
//! path a receipt refers to and carries the `MaxDiff` bound agreed for
//! the reporting HOP's inter-domain link.

use serde::{Deserialize, Serialize};
use vpm_hash::Digest;
use vpm_packet::{HeaderSpec, HopId, SimDuration, SimTime};

/// `PathID` of a receipt (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathId {
    /// Which headers identify the path (at least the origin-prefix pair).
    pub spec: HeaderSpec,
    /// The previous HOP on this path (`None` at the path's origin).
    pub prev_hop: Option<HopId>,
    /// The next HOP on this path (`None` at the path's end).
    pub next_hop: Option<HopId>,
    /// Timestamp-difference bound agreed with the HOP across the
    /// reporting HOP's inter-domain link.
    pub max_diff: SimDuration,
}

/// Seed for the stable shard hash (lookup3 over the `PathID` fields):
/// `"SHARDS01"`. Shared by every plane that partitions work by path —
/// the wire transport's sharded bus and the multi-core
/// [`ShardedCollector`](crate::ShardedCollector) — so a path always
/// lands on the same shard index no matter which layer is sharding.
pub const SHARD_SEED: u64 = 0x5348_4152_4453_3031; // "SHARDS01"

impl PathId {
    /// Stable 64-bit shard key: lookup3 over a fixed 24-byte encoding
    /// of the `PathID` fields under [`SHARD_SEED`].
    ///
    /// This is *the* path-sharding hash of the system. The sharded
    /// receipt bus (`vpm-wire`) and the multi-core
    /// [`ShardedCollector`](crate::ShardedCollector) both reduce this
    /// key modulo their shard count, so co-locating collector shards
    /// with bus shards is a matter of matching shard counts, not of
    /// re-deriving a second hash. The encoding (and therefore every
    /// existing shard assignment) is unchanged from the bus-private
    /// hash it replaces.
    pub fn shard_key(&self) -> u64 {
        let mut b = [0u8; 24];
        b[0..4].copy_from_slice(&u32::from(self.spec.src_prefix.network()).to_le_bytes());
        b[4] = self.spec.src_prefix.len();
        b[5..9].copy_from_slice(&u32::from(self.spec.dst_prefix.network()).to_le_bytes());
        b[9] = self.spec.dst_prefix.len();
        let hop_bytes = |h: Option<HopId>| match h {
            None => [0u8, 0, 0],
            Some(h) => {
                let le = h.0.to_le_bytes();
                [1, le[0], le[1]]
            }
        };
        b[10..13].copy_from_slice(&hop_bytes(self.prev_hop));
        b[13..16].copy_from_slice(&hop_bytes(self.next_hop));
        b[16..24].copy_from_slice(&self.max_diff.as_nanos().to_le_bytes());
        vpm_hash::lookup3::hash64(&b, SHARD_SEED)
    }
}

/// One sampled measurement: `⟨PktID, Time⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SampleRecord {
    /// The packet digest.
    pub pkt_id: Digest,
    /// When the packet was observed at the reporting HOP (local clock).
    pub time: SimTime,
}

/// A receipt for a set of sampled packets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleReceipt {
    /// Path the samples belong to.
    pub path: PathId,
    /// The sampled `⟨PktID, Time⟩` records, in observation order.
    pub samples: Vec<SampleRecord>,
}

/// `AggID`: the digests of the first and last packets of an aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AggId {
    /// Digest of the aggregate's first packet (its cutting point).
    pub first: Digest,
    /// Digest of the aggregate's last packet.
    pub last: Digest,
}

/// A receipt for a packet aggregate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggReceipt {
    /// Path the aggregate belongs to.
    pub path: PathId,
    /// Aggregate identifier.
    pub agg: AggId,
    /// Packets the HOP counted into this aggregate.
    pub pkt_cnt: u64,
    /// Reordering patch-up: digests of the packets observed within `J`
    /// time units on either side of the cut that closed this aggregate,
    /// in observation order (§6.3). Empty when the aggregate was closed
    /// by end-of-stream flush rather than a cut.
    pub agg_trans: Vec<Digest>,
}

/// Compact wire sizes and truncation semantics, mirroring the paper's
/// arithmetic (§7.1): a sample record is a 4-byte truncated digest plus
/// a 3-byte timestamp; an aggregate receipt is ~22 bytes.
///
/// ## Truncation semantics
///
/// The compact wire profile (`vpm-wire`, v2 frames without the PRECISE
/// flag) carries exactly these truncated values:
///
/// * **Digests** keep their low 32 bits ([`compact::truncate_digest`]),
///   re-expanded on decode by zero-extension
///   ([`compact::expand_digest`]). Matching stays equality-based: two
///   HOPs truncate the same 64-bit digest to the same 32 bits, so
///   honest receipts still pair up; distinct packets colliding at 32
///   bits are skipped by the verifier's conservative duplicate rule
///   (`verify::match_samples`).
/// * **Timestamps** keep the observation time in microseconds modulo
///   2²⁴ ([`compact::truncate_time`]) — a ≈16.8-second ring. Absolute
///   time is gone, but one-way delays (≪ the ring circumference)
///   survive as the smallest-magnitude wrapped difference
///   ([`compact::wrapped_delta_us`]), which is how the verifier
///   computes delays from compact receipts
///   (`verify::Verifier::estimate_delay_truncated`).
pub mod compact {
    use super::*;

    /// Bytes for a truncated `PktID` on the wire.
    pub const PKT_ID_BYTES: usize = 4;
    /// Bytes for a truncated timestamp on the wire.
    pub const TIME_BYTES: usize = 3;
    /// Bytes per sample record (`⟨PktID, Time⟩`).
    pub const SAMPLE_RECORD_BYTES: usize = PKT_ID_BYTES + TIME_BYTES;
    /// Bytes for a `PathID` reference once the full `PathID` has been
    /// communicated out of band (receipts for the same path share it).
    pub const PATH_REF_BYTES: usize = 4;
    /// Bytes for a packet count.
    pub const PKT_CNT_BYTES: usize = 6;

    /// Resolution of a truncated timestamp: 1 µs per tick.
    pub const TIME_UNIT_NS: u64 = 1_000;
    /// A truncated timestamp lives on a ring of 2²⁴ ticks (≈16.8 s).
    pub const TIME_MOD: u64 = 1 << (8 * TIME_BYTES);

    /// Compact size of a sample receipt.
    pub fn sample_receipt_bytes(r: &SampleReceipt) -> usize {
        PATH_REF_BYTES + r.samples.len() * SAMPLE_RECORD_BYTES
    }

    /// Compact size of an aggregate receipt. Matches the paper's
    /// "receipt size (22 bytes)" when `AggTrans` is empty:
    /// 4 (path ref) + 2·4 (AggID digests) + 6 (count) + 4 (window len).
    pub fn agg_receipt_bytes(r: &AggReceipt) -> usize {
        PATH_REF_BYTES + 2 * PKT_ID_BYTES + PKT_CNT_BYTES + 4 + r.agg_trans.len() * PKT_ID_BYTES
    }

    /// Truncate a digest to its on-wire 32 bits (the low word).
    pub fn truncate_digest(d: Digest) -> u32 {
        d.0 as u32
    }

    /// Re-expand an on-wire digest by zero-extension. Idempotent with
    /// [`truncate_digest`] on already-truncated digests.
    pub fn expand_digest(lo: u32) -> Digest {
        Digest(lo as u64)
    }

    /// Truncate a timestamp to its on-wire 24 bits: microseconds
    /// (floor) modulo [`TIME_MOD`].
    pub fn truncate_time(t: SimTime) -> u32 {
        ((t.as_nanos() / TIME_UNIT_NS) % TIME_MOD) as u32
    }

    /// Re-expand an on-wire timestamp to a `SimTime` on the first ring
    /// revolution. Idempotent with [`truncate_time`] on already-
    /// truncated times.
    pub fn expand_time(ticks: u32) -> SimTime {
        SimTime::from_nanos((ticks as u64 % TIME_MOD) * TIME_UNIT_NS)
    }

    /// Signed microsecond difference `t_out − t_in` on the truncated-
    /// timestamp ring: the smallest-magnitude representative, exact for
    /// true deltas under half the ring (≈8.4 s) — comfortably above any
    /// plausible one-way transit delay. Accepts full-precision times
    /// too (both sides are reduced onto the ring first).
    pub fn wrapped_delta_us(t_in: SimTime, t_out: SimTime) -> i64 {
        let a = truncate_time(t_in) as i64;
        let b = truncate_time(t_out) as i64;
        let half = (TIME_MOD / 2) as i64;
        let mut d = (b - a).rem_euclid(TIME_MOD as i64);
        if d >= half {
            d -= TIME_MOD as i64;
        }
        d
    }

    /// A sample record as the compact wire carries it.
    pub fn truncate_record(r: &SampleRecord) -> SampleRecord {
        SampleRecord {
            pkt_id: expand_digest(truncate_digest(r.pkt_id)),
            time: expand_time(truncate_time(r.time)),
        }
    }

    /// A sample receipt as the compact wire carries it.
    pub fn truncate_sample_receipt(r: &SampleReceipt) -> SampleReceipt {
        SampleReceipt {
            path: r.path,
            samples: r.samples.iter().map(truncate_record).collect(),
        }
    }

    /// An aggregate receipt as the compact wire carries it. `PktCnt` is
    /// preserved in full (it must fit the 6-byte field; values beyond
    /// 2⁴⁸−1 are an encode-time error, not silently wrapped here).
    pub fn truncate_agg_receipt(r: &AggReceipt) -> AggReceipt {
        AggReceipt {
            path: r.path,
            agg: AggId {
                first: expand_digest(truncate_digest(r.agg.first)),
                last: expand_digest(truncate_digest(r.agg.last)),
            },
            pkt_cnt: r.pkt_cnt,
            agg_trans: r
                .agg_trans
                .iter()
                .map(|&d| expand_digest(truncate_digest(d)))
                .collect(),
        }
    }
}

impl SampleReceipt {
    /// Number of sampled records.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Is the receipt empty?
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Look up the record for a packet id (first match).
    pub fn find(&self, pkt_id: Digest) -> Option<&SampleRecord> {
        self.samples.iter().find(|s| s.pkt_id == pkt_id)
    }
}

impl AggReceipt {
    /// Does `pkt_id` appear in this receipt's patch-up window?
    pub fn trans_contains(&self, pkt_id: Digest) -> bool {
        self.agg_trans.contains(&pkt_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> PathId {
        PathId {
            spec: HeaderSpec::new(
                "10.0.0.0/8".parse().unwrap(),
                "192.168.0.0/16".parse().unwrap(),
            ),
            prev_hop: Some(HopId(3)),
            next_hop: Some(HopId(5)),
            max_diff: SimDuration::from_millis(2),
        }
    }

    #[test]
    fn sample_receipt_find() {
        let r = SampleReceipt {
            path: path(),
            samples: vec![
                SampleRecord {
                    pkt_id: Digest(1),
                    time: SimTime::from_millis(1),
                },
                SampleRecord {
                    pkt_id: Digest(2),
                    time: SimTime::from_millis(2),
                },
            ],
        };
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.find(Digest(2)).unwrap().time, SimTime::from_millis(2));
        assert!(r.find(Digest(3)).is_none());
    }

    #[test]
    fn compact_sizes_match_paper_arithmetic() {
        // Paper §7.1: sample records are 4+3 bytes; aggregate receipts
        // are ~22 bytes (without the patch-up window).
        assert_eq!(compact::SAMPLE_RECORD_BYTES, 7);
        let agg = AggReceipt {
            path: path(),
            agg: AggId {
                first: Digest(10),
                last: Digest(20),
            },
            pkt_cnt: 100_000,
            agg_trans: vec![],
        };
        assert_eq!(compact::agg_receipt_bytes(&agg), 22);
        // Window contents add 4 bytes per digest.
        let agg2 = AggReceipt {
            agg_trans: vec![Digest(1), Digest(2), Digest(3)],
            ..agg
        };
        assert_eq!(compact::agg_receipt_bytes(&agg2), 22 + 12);
    }

    #[test]
    fn truncation_is_idempotent_and_sized_right() {
        // Digest: low 32 bits survive, high 32 vanish.
        let d = Digest(0xdead_beef_0123_4567);
        assert_eq!(compact::truncate_digest(d), 0x0123_4567);
        let e = compact::expand_digest(compact::truncate_digest(d));
        assert_eq!(e, Digest(0x0123_4567));
        assert_eq!(compact::truncate_digest(e), compact::truncate_digest(d));
        // Time: µs floor, mod 2^24 — idempotent once truncated.
        let t = SimTime::from_nanos(17_999_999_999_999); // 18000 s − ε
        let w = compact::truncate_time(t);
        assert!(u64::from(w) < compact::TIME_MOD);
        let back = compact::expand_time(w);
        assert_eq!(compact::truncate_time(back), w);
        // The wire stores exactly TIME_BYTES worth of ticks.
        assert_eq!(compact::TIME_MOD, 1 << (8 * compact::TIME_BYTES));
    }

    #[test]
    fn wrapped_delta_recovers_small_delays_across_the_ring_seam() {
        // A 3 ms transit observed just before/after the ring wraps.
        let wrap_ns = compact::TIME_MOD * compact::TIME_UNIT_NS;
        let t_in = SimTime::from_nanos(wrap_ns - 1_000_000); // 1 ms before seam
        let t_out = SimTime::from_nanos(wrap_ns + 2_000_000); // 2 ms after seam
        assert_eq!(compact::wrapped_delta_us(t_in, t_out), 3_000);
        // Negative (skewed-clock) deltas survive too.
        assert_eq!(compact::wrapped_delta_us(t_out, t_in), -3_000);
        // And an ordinary mid-ring delta is just the delta.
        let a = SimTime::from_micros(10_000);
        let b = SimTime::from_micros(12_500);
        assert_eq!(compact::wrapped_delta_us(a, b), 2_500);
    }

    #[test]
    fn truncate_receipt_helpers_truncate_every_field() {
        let r = SampleReceipt {
            path: path(),
            samples: vec![SampleRecord {
                pkt_id: Digest(0xffff_ffff_0000_0001),
                time: SimTime::from_nanos(1_234_567_891),
            }],
        };
        let tr = compact::truncate_sample_receipt(&r);
        assert_eq!(tr.path, r.path);
        assert_eq!(tr.samples[0].pkt_id, Digest(1));
        assert_eq!(tr.samples[0].time, SimTime::from_micros(1_234_567));

        let a = AggReceipt {
            path: path(),
            agg: AggId {
                first: Digest(0xaaaa_bbbb_cccc_dddd),
                last: Digest(0x1111_2222_3333_4444),
            },
            pkt_cnt: 42,
            agg_trans: vec![Digest(0x9999_0000_0000_0007)],
        };
        let ta = compact::truncate_agg_receipt(&a);
        assert_eq!(ta.agg.first, Digest(0xcccc_dddd));
        assert_eq!(ta.agg.last, Digest(0x3333_4444));
        assert_eq!(ta.pkt_cnt, 42);
        assert_eq!(ta.agg_trans, vec![Digest(7)]);
    }

    #[test]
    fn serde_roundtrip() {
        let r = SampleReceipt {
            path: path(),
            samples: vec![SampleRecord {
                pkt_id: Digest(42),
                time: SimTime::from_micros(7),
            }],
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: SampleReceipt = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);

        let a = AggReceipt {
            path: path(),
            agg: AggId {
                first: Digest(1),
                last: Digest(2),
            },
            pkt_cnt: 3,
            agg_trans: vec![Digest(9)],
        };
        let json = serde_json::to_string(&a).unwrap();
        let back: AggReceipt = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
        assert!(back.trans_contains(Digest(9)));
        assert!(!back.trans_contains(Digest(8)));
    }
}
