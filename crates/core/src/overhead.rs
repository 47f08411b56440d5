//! The §7.1 resource-overhead model, parameterized by this
//! implementation's actual receipt and record sizes.
//!
//! The paper argues VPM's memory, processing and bandwidth costs are
//! "well within the capabilities of modern networks" with
//! back-of-the-envelope arithmetic; this module reproduces every one of
//! those numbers from first principles so the claims can be regenerated
//! (`vpm overhead` prints them). These are the paper's model constants;
//! the bytes a running collector actually holds are
//! `Collector::monitoring_cache_bytes` and
//! `Collector::temp_buffer_bytes`.

use crate::receipt::compact::SAMPLE_RECORD_BYTES;
use serde::{Deserialize, Serialize};
use vpm_packet::SimDuration;

/// Per-path monitoring-cache state: "a PathID, AggID, and PktCnt —
/// roughly 20 bytes" (§7.1).
pub const PER_PATH_STATE_BYTES: usize = 20;

/// Monitoring-cache size for a number of concurrently active paths.
///
/// Paper: "if a HOP observes traffic from 100,000 paths at the same
/// time, it needs a 2MB monitoring cache."
pub fn monitoring_cache_bytes(active_paths: u64) -> u64 {
    active_paths * PER_PATH_STATE_BYTES as u64
}

/// Parameters of the temporary packet buffer sizing (§7.1).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TempBufferSpec {
    /// Interface rate in bits per second (one direction).
    pub link_bps: f64,
    /// Average packet size in bytes.
    pub avg_pkt_bytes: f64,
    /// Safety threshold `J` — how long per-packet state is retained.
    pub j: SimDuration,
    /// Count both directions of the interface.
    pub duplex: bool,
}

impl TempBufferSpec {
    /// Packets per second the buffer must absorb.
    pub fn pps(&self) -> f64 {
        let one_way = self.link_bps / (8.0 * self.avg_pkt_bytes);
        if self.duplex {
            2.0 * one_way
        } else {
            one_way
        }
    }

    /// Required buffer size in bytes (7 B per record: 4 B digest +
    /// 3 B timestamp).
    pub fn buffer_bytes(&self) -> u64 {
        (self.pps() * self.j.as_secs_f64() * SAMPLE_RECORD_BYTES as f64).ceil() as u64
    }
}

/// The §7.1 per-packet processing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessingModel {
    /// Ordinary memory accesses per packet (path lookup, count update,
    /// buffer store).
    pub memory_accesses_per_pkt: u64,
    /// Hash computations per packet.
    pub hashes_per_pkt: u64,
    /// Timestamp computations per packet.
    pub timestamps_per_pkt: u64,
    /// Extra accesses per buffered packet at each marker sweep.
    pub sweep_access_per_buffered: u64,
}

/// The paper's processing claim: "three memory accesses, one hash
/// function, and one timestamp computation per packet", plus "one more
/// memory access per packet" for the marker sweep.
pub const PAPER_PROCESSING: ProcessingModel = ProcessingModel {
    memory_accesses_per_pkt: 3,
    hashes_per_pkt: 1,
    timestamps_per_pkt: 1,
    sweep_access_per_buffered: 1,
};

/// Parameters for the bandwidth-overhead model (§7.1).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BandwidthSpec {
    /// HOPs on the path that produce receipts.
    pub n_hops: u32,
    /// Packets per aggregate at each HOP.
    pub pkts_per_aggregate: u64,
    /// Delay-sampling rate at each HOP.
    pub sampling_rate: f64,
    /// Average packet size in bytes (for the relative overhead).
    pub avg_pkt_bytes: f64,
    /// Compact bytes per aggregate receipt.
    pub agg_receipt_bytes: usize,
    /// Compact bytes per sample record.
    pub sample_record_bytes: usize,
}

impl BandwidthSpec {
    /// The paper's §7.1 scenario: a 10-domain path where each HOP puts
    /// 1000 packets per aggregate and samples 1% of traffic, with
    /// 22-byte receipts and 400-byte packets.
    pub fn paper_scenario() -> Self {
        BandwidthSpec {
            n_hops: 10,
            pkts_per_aggregate: 1000,
            sampling_rate: 0.01,
            avg_pkt_bytes: 400.0,
            agg_receipt_bytes: 22,
            sample_record_bytes: SAMPLE_RECORD_BYTES,
        }
    }

    /// Receipt bytes per forwarded packet contributed by one HOP,
    /// counting only aggregate receipts (the paper's accounting).
    pub fn agg_bytes_per_pkt_per_hop(&self) -> f64 {
        self.agg_receipt_bytes as f64 / self.pkts_per_aggregate as f64
    }

    /// Receipt bytes per forwarded packet contributed by one HOP,
    /// including sample records.
    pub fn total_bytes_per_pkt_per_hop(&self) -> f64 {
        self.agg_bytes_per_pkt_per_hop() + self.sampling_rate * self.sample_record_bytes as f64
    }

    /// Aggregate-receipt bytes per packet for the whole path.
    pub fn agg_bytes_per_pkt_path(&self) -> f64 {
        self.n_hops as f64 * self.agg_bytes_per_pkt_per_hop()
    }

    /// All-receipt bytes per packet for the whole path.
    pub fn total_bytes_per_pkt_path(&self) -> f64 {
        self.n_hops as f64 * self.total_bytes_per_pkt_per_hop()
    }

    /// Relative bandwidth overhead of aggregate receipts (the paper's
    /// "0.046%" figure).
    pub fn agg_overhead_fraction(&self) -> f64 {
        self.agg_bytes_per_pkt_path() / self.avg_pkt_bytes
    }

    /// Relative bandwidth overhead counting samples too.
    pub fn total_overhead_fraction(&self) -> f64 {
        self.total_bytes_per_pkt_path() / self.avg_pkt_bytes
    }
}

/// A complete §7.1 report: paper claims vs. this implementation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadReport {
    /// (label, paper value, our value) triples; units in the label.
    pub rows: Vec<(String, f64, f64)>,
}

/// Receipt-plane sizes **measured from actual encoded v2 wire frames**
/// rather than assumed from the model constants. Produced by
/// `vpm_wire::measure::measured_sizes()` (the codec crate sits above
/// this one, so the measurement lives there); consumed by
/// [`measured_bandwidth_spec`] and [`measured_section_7_1_report`] to
/// recompute every §7.1 bandwidth number from what the encoder really
/// emits. A test in the wire crate pins each field to the
/// corresponding `receipt::compact` constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasuredSizes {
    /// Marginal encoded bytes per `⟨PktID, Time⟩` sample record.
    pub sample_record_bytes: usize,
    /// Fixed encoded bytes per sample receipt beyond its records (the
    /// 4-byte path reference plus the frame's 4-byte record-count
    /// directory entry).
    pub sample_receipt_framing_bytes: usize,
    /// Encoded bytes of an aggregate receipt with an empty `AggTrans`
    /// window (the paper's "22 bytes").
    pub agg_receipt_bytes: usize,
    /// Marginal encoded bytes per `AggTrans` window digest.
    pub agg_window_digest_bytes: usize,
    /// Encoded bytes of one full `PathID` table entry (paid once per
    /// path per frame, amortized over every receipt referencing it).
    pub path_entry_bytes: usize,
    /// Encoded bytes of an empty frame (header + empty path table and
    /// receipt sections) — the fixed per-batch framing cost.
    pub frame_base_bytes: usize,
}

/// The paper's §7.1 bandwidth scenario, parameterized by *measured*
/// record sizes instead of the model constants.
pub fn measured_bandwidth_spec(m: &MeasuredSizes) -> BandwidthSpec {
    BandwidthSpec {
        agg_receipt_bytes: m.agg_receipt_bytes,
        sample_record_bytes: m.sample_record_bytes,
        ..BandwidthSpec::paper_scenario()
    }
}

/// The §7.1 bandwidth rows recomputed from measured encoded sizes,
/// plus the measured sizes themselves and the framing costs the paper's
/// arithmetic leaves implicit (batch header, path table).
pub fn measured_section_7_1_report(m: &MeasuredSizes) -> OverheadReport {
    let bw = measured_bandwidth_spec(m);
    let rows = vec![
        (
            "measured sample record [B]".to_string(),
            SAMPLE_RECORD_BYTES as f64,
            m.sample_record_bytes as f64,
        ),
        (
            "measured aggregate receipt [B]".to_string(),
            22.0,
            m.agg_receipt_bytes as f64,
        ),
        (
            "measured receipt bytes/pkt, 10-domain path (aggregates)".to_string(),
            0.2,
            bw.agg_bytes_per_pkt_path(),
        ),
        (
            "measured bandwidth overhead (aggregates) [%]".to_string(),
            0.046,
            bw.agg_overhead_fraction() * 100.0,
        ),
        (
            "measured bandwidth overhead (incl. samples) [%]".to_string(),
            f64::NAN, // the paper does not state this one
            bw.total_overhead_fraction() * 100.0,
        ),
        (
            "frame framing: base + 1 PathID entry [B]".to_string(),
            f64::NAN, // implicit in the paper ("communicated out of band")
            (m.frame_base_bytes + m.path_entry_bytes) as f64,
        ),
    ];
    OverheadReport { rows }
}

/// Build the full §7.1 comparison table.
pub fn section_7_1_report() -> OverheadReport {
    let mut rows = Vec::new();

    rows.push((
        "monitoring cache @100k paths [MB]".to_string(),
        2.0,
        monitoring_cache_bytes(100_000) as f64 / 1e6,
    ));

    let avg = TempBufferSpec {
        link_bps: 10e9,
        avg_pkt_bytes: 400.0,
        j: SimDuration::from_millis(10),
        duplex: true,
    };
    rows.push((
        "temp buffer, 10G @400B pkts [KB]".to_string(),
        436.0,
        avg.buffer_bytes() as f64 / 1e3,
    ));

    let worst = TempBufferSpec {
        link_bps: 10e9,
        avg_pkt_bytes: 64.0, // minimum-size frames ⇒ ~20 Mpps/direction
        j: SimDuration::from_millis(10),
        duplex: true,
    };
    rows.push((
        "temp buffer, 10G @min-size pkts [MB]".to_string(),
        2.8,
        worst.buffer_bytes() as f64 / 1e6,
    ));

    let bw = BandwidthSpec::paper_scenario();
    rows.push((
        "receipt bytes/pkt, 10-domain path (aggregates)".to_string(),
        0.2,
        bw.agg_bytes_per_pkt_path(),
    ));
    rows.push((
        "bandwidth overhead (aggregates) [%]".to_string(),
        0.046,
        bw.agg_overhead_fraction() * 100.0,
    ));
    rows.push((
        "bandwidth overhead (incl. samples) [%]".to_string(),
        f64::NAN, // the paper does not state this one
        bw.total_overhead_fraction() * 100.0,
    ));

    OverheadReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitoring_cache_matches_paper() {
        // 100,000 paths ⇒ 2 MB.
        assert_eq!(monitoring_cache_bytes(100_000), 2_000_000);
    }

    #[test]
    fn temp_buffer_matches_paper_average_case() {
        // 10 Gbps, 400 B ⇒ 3.125 Mpps/direction; duplex over 10 ms at
        // 7 B/record ⇒ ~437 KB ("436KB" in the paper).
        let spec = TempBufferSpec {
            link_bps: 10e9,
            avg_pkt_bytes: 400.0,
            j: SimDuration::from_millis(10),
            duplex: true,
        };
        assert!((spec.pps() - 6.25e6).abs() < 1.0);
        let kb = spec.buffer_bytes() as f64 / 1e3;
        assert!((430.0..445.0).contains(&kb), "{kb} KB");
    }

    #[test]
    fn temp_buffer_matches_paper_worst_case() {
        // Min-size frames ⇒ ~2.8 MB.
        let spec = TempBufferSpec {
            link_bps: 10e9,
            avg_pkt_bytes: 64.0,
            j: SimDuration::from_millis(10),
            duplex: true,
        };
        let mb = spec.buffer_bytes() as f64 / 1e6;
        assert!((2.6..2.9).contains(&mb), "{mb} MB");
    }

    #[test]
    fn bandwidth_matches_paper_scenario() {
        let bw = BandwidthSpec::paper_scenario();
        // Aggregates only: 10 × 22/1000 = 0.22 B/pkt ⇒ 0.055% at 400 B —
        // the paper rounds to "0.2 bytes per packet" and "0.046%".
        assert!((bw.agg_bytes_per_pkt_path() - 0.22).abs() < 1e-9);
        let pct = bw.agg_overhead_fraction() * 100.0;
        assert!((0.04..0.06).contains(&pct), "{pct}%");
        // §2.1 claims "each domain incurs, due to receipts, less than
        // 0.1% overhead over the traffic it observes": a domain runs
        // two HOPs, each emitting aggregate receipts plus 1% samples.
        let per_domain = 2.0 * bw.total_bytes_per_pkt_per_hop() / bw.avg_pkt_bytes;
        assert!(per_domain < 0.001, "per-domain overhead {per_domain}");
    }

    #[test]
    fn report_rows_populated() {
        let r = section_7_1_report();
        assert_eq!(r.rows.len(), 6);
        for (label, _paper, ours) in &r.rows {
            assert!(ours.is_finite(), "{label}");
        }
    }

    #[test]
    fn measured_report_reduces_to_the_model_when_sizes_agree() {
        // When the measured sizes equal the model constants (which the
        // wire crate's tests pin), the measured bandwidth rows must
        // reproduce the §7.1 arithmetic exactly.
        let m = MeasuredSizes {
            sample_record_bytes: SAMPLE_RECORD_BYTES,
            sample_receipt_framing_bytes: 8,
            agg_receipt_bytes: 22,
            agg_window_digest_bytes: 4,
            path_entry_bytes: 24,
            frame_base_bytes: 26,
        };
        let bw = measured_bandwidth_spec(&m);
        assert!((bw.agg_bytes_per_pkt_path() - 0.22).abs() < 1e-9);
        let r = measured_section_7_1_report(&m);
        assert_eq!(r.rows.len(), 6);
        let pct = r
            .rows
            .iter()
            .find(|(l, _, _)| l.contains("(aggregates) [%]"))
            .expect("bandwidth row")
            .2;
        assert!((0.04..0.06).contains(&pct), "{pct}%");
        // A fatter measured record must raise the overhead rows.
        let fat = MeasuredSizes {
            agg_receipt_bytes: 44,
            ..m
        };
        let fat_pct = measured_section_7_1_report(&fat)
            .rows
            .iter()
            .find(|(l, _, _)| l.contains("(aggregates) [%]"))
            .expect("bandwidth row")
            .2;
        assert!((fat_pct - 2.0 * pct).abs() < 1e-9, "{fat_pct} vs {pct}");
    }
}
