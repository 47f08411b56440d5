//! Algorithm 1 — bias-resistant, tunable delay sampling (paper §5).
//!
//! ```text
//! DelaySample(p, µ, σ):
//!   if Digest(p) > µ:                        # p is a marker
//!     for q in TempBuffer:
//!       if SampleFcn(Digest(q), Digest(p)) > σ: sample q
//!     empty TempBuffer
//!     sample p
//!   else:
//!     append p to TempBuffer
//! ```
//!
//! The HOP keeps `⟨PktID, Time⟩` state for *every* packet, but only
//! until the next marker (~10 ms of traffic by choice of `µ`). Whether
//! an already-forwarded packet is sampled is decided by the digest of
//! a *future* marker, so a domain cannot identify will-be-sampled
//! packets in time to prioritize them — that is the bias-resistance
//! property (§5.1).
//!
//! Because the decision is `SampleFcn(q, marker) > σ` with a totally
//! ordered threshold, a HOP with a lower `σ` samples a **superset** of
//! any HOP with a higher `σ` (§5.2) — tunability without partial
//! overlap.
//!
//! [`DelaySampler`] is the per-packet specification: the
//! [`Collector`](crate::Collector) runs the same algorithm over its own
//! per-path rows and record logs and is tested against this type.

use crate::receipt::SampleRecord;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vpm_hash::{sample_fcn, Digest, Threshold};
use vpm_packet::SimTime;

/// Outcome of observing one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveOutcome {
    /// The packet was buffered, awaiting the next marker.
    Buffered,
    /// The packet was a marker; `swept` packets from the buffer were
    /// examined and `sampled` of them (plus the marker itself) were
    /// added to the sample set.
    Marker {
        /// Buffered packets examined.
        swept: usize,
        /// Buffered packets that passed `σ` (not counting the marker).
        sampled: usize,
    },
}

/// Counters describing the sampler's work (feeds the §7.1 processing
/// accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplerStats {
    /// Packets observed.
    pub observed: u64,
    /// Marker packets seen.
    pub markers: u64,
    /// Records emitted into receipts (markers included).
    pub sampled: u64,
    /// High-water mark of the temporary buffer.
    pub max_buffer: usize,
    /// Buffered packets discarded because the optional buffer cap was
    /// hit before a marker arrived.
    pub cap_evictions: u64,
}

/// The per-path delay sampler (Algorithm 1).
///
/// ```
/// use vpm_core::sampling::DelaySampler;
/// use vpm_hash::{Digest, Threshold};
/// use vpm_packet::SimTime;
///
/// let mut s = DelaySampler::new(
///     Threshold::from_rate(0.01), // µ: ~1% of packets are markers
///     Threshold::from_rate(0.05), // σ: ~5% sampling
/// );
/// for i in 0..10_000u64 {
///     let digest = Digest(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
///     s.observe(digest, SimTime::from_micros(10 * i));
/// }
/// let samples = s.drain();
/// // ≈ (0.01 + 0.99·0.05) of the stream, minus the final unswept window.
/// assert!((400..800).contains(&samples.len()), "{}", samples.len());
/// ```
#[derive(Debug, Clone)]
pub struct DelaySampler {
    /// Marker threshold `µ` — a system-wide constant.
    marker: Threshold,
    /// Sampling threshold `σ` — chosen locally by the HOP.
    sigma: Threshold,
    /// `TempBuffer`: state for all packets since the last marker. A
    /// ring (`VecDeque`) so cap eviction of the oldest record is O(1)
    /// instead of a `Vec::remove(0)` memmove — under sustained overload
    /// (cap hit, no marker) the Vec form was quadratic.
    buffer: VecDeque<SampleRecord>,
    /// Accumulated samples since the last [`Self::drain`].
    samples: Vec<SampleRecord>,
    /// Optional hard cap on the buffer (real hardware has finite
    /// SRAM); `None` reproduces the paper's unbounded description.
    buffer_cap: Option<usize>,
    stats: SamplerStats,
}

impl DelaySampler {
    /// Create a sampler with marker threshold `µ` and sampling
    /// threshold `σ`.
    pub fn new(marker: Threshold, sigma: Threshold) -> Self {
        DelaySampler {
            marker,
            sigma,
            buffer: VecDeque::new(),
            samples: Vec::new(),
            buffer_cap: None,
            stats: SamplerStats::default(),
        }
    }

    /// Set a hard cap on the temporary buffer. When full, the oldest
    /// record is evicted (and counted in
    /// [`SamplerStats::cap_evictions`]).
    pub fn with_buffer_cap(mut self, cap: usize) -> Self {
        self.buffer_cap = Some(cap);
        self
    }

    /// The sampling threshold `σ`.
    pub fn sigma(&self) -> Threshold {
        self.sigma
    }

    /// The marker threshold `µ`.
    pub fn marker(&self) -> Threshold {
        self.marker
    }

    /// Observe a packet (Algorithm 1, line by line).
    pub fn observe(&mut self, digest: Digest, time: SimTime) -> ObserveOutcome {
        self.stats.observed += 1;
        if self.marker.passes(digest.0) {
            // p is a marker: sweep the buffer.
            self.stats.markers += 1;
            let swept = self.buffer.len();
            let mut sampled = 0;
            for q in self.buffer.drain(..) {
                if self.sigma.passes(sample_fcn(q.pkt_id, digest)) {
                    self.samples.push(q);
                    sampled += 1;
                }
            }
            // The marker itself is always sampled (Algorithm 1 line 6).
            self.samples.push(SampleRecord {
                pkt_id: digest,
                time,
            });
            self.stats.sampled += sampled as u64 + 1;
            ObserveOutcome::Marker { swept, sampled }
        } else {
            if let Some(cap) = self.buffer_cap {
                if self.buffer.len() >= cap {
                    self.buffer.pop_front();
                    self.stats.cap_evictions += 1;
                }
            }
            self.buffer.push_back(SampleRecord {
                pkt_id: digest,
                time,
            });
            self.stats.max_buffer = self.stats.max_buffer.max(self.buffer.len());
            ObserveOutcome::Buffered
        }
    }

    /// Take all accumulated samples (e.g. at a reporting interval).
    pub fn drain(&mut self) -> Vec<SampleRecord> {
        std::mem::take(&mut self.samples)
    }

    /// Samples accumulated but not yet drained.
    pub fn pending(&self) -> &[SampleRecord] {
        &self.samples
    }

    /// Packets currently buffered awaiting a marker.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Work counters.
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn digests(n: usize, seed: u64) -> Vec<Digest> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| Digest(rng.gen())).collect()
    }

    fn run(sampler: &mut DelaySampler, ds: &[Digest]) -> Vec<SampleRecord> {
        for (i, &d) in ds.iter().enumerate() {
            sampler.observe(d, SimTime::from_micros(10 * i as u64));
        }
        sampler.drain()
    }

    #[test]
    fn marker_sweeps_buffer() {
        let marker = Threshold::from_rate(0.01);
        let mut s = DelaySampler::new(marker, Threshold::from_rate(0.5));
        // Feed non-markers until one marker arrives.
        let mut seen_marker = false;
        for (i, d) in digests(10_000, 1).into_iter().enumerate() {
            if let ObserveOutcome::Marker { swept, sampled } =
                s.observe(d, SimTime::from_micros(i as u64))
            {
                seen_marker = true;
                assert!(sampled <= swept);
                assert_eq!(s.buffered(), 0, "buffer must empty at marker");
                break;
            }
        }
        assert!(seen_marker, "no marker in 10k packets at 1% rate");
    }

    #[test]
    fn markers_always_sampled() {
        let marker = Threshold::from_rate(0.02);
        let mut s = DelaySampler::new(marker, Threshold::NEVER); // σ passes nothing
        let ds = digests(20_000, 2);
        let samples = run(&mut s, &ds);
        // With σ = NEVER only markers are sampled.
        assert_eq!(samples.len() as u64, s.stats().markers);
        for rec in &samples {
            assert!(marker.passes(rec.pkt_id.0), "non-marker sampled");
        }
    }

    #[test]
    fn sampling_rate_close_to_sigma_rate() {
        let marker = Threshold::from_rate(0.001);
        let target = 0.05;
        let mut s = DelaySampler::new(marker, Threshold::from_rate(target));
        let ds = digests(200_000, 3);
        let samples = run(&mut s, &ds);
        let rate = samples.len() as f64 / ds.len() as f64;
        // Expected ≈ marker_rate + (1-marker_rate)·target, within noise;
        // the final partial window loses a few.
        let expect = 0.001 + 0.999 * target;
        assert!(
            (rate - expect).abs() < 0.01,
            "rate {rate} vs expected {expect}"
        );
    }

    #[test]
    fn superset_property_lower_sigma_samples_more() {
        // §5.2: if σ2 < σ1 then HOP 2 samples every packet HOP 1 samples.
        let marker = Threshold::from_rate(0.002);
        let ds = digests(100_000, 4);
        let mut hi = DelaySampler::new(marker, Threshold::from_rate(0.01));
        let mut lo = DelaySampler::new(marker, Threshold::from_rate(0.10));
        let s_hi: std::collections::HashSet<Digest> =
            run(&mut hi, &ds).into_iter().map(|r| r.pkt_id).collect();
        let s_lo: std::collections::HashSet<Digest> =
            run(&mut lo, &ds).into_iter().map(|r| r.pkt_id).collect();
        assert!(s_lo.len() > s_hi.len());
        assert!(
            s_hi.is_subset(&s_lo),
            "higher-σ sample set must nest inside lower-σ set"
        );
    }

    #[test]
    fn identical_hops_sample_identically() {
        let marker = Threshold::from_rate(0.001);
        let sigma = Threshold::from_rate(0.02);
        let ds = digests(50_000, 5);
        let mut a = DelaySampler::new(marker, sigma);
        let mut b = DelaySampler::new(marker, sigma);
        // b observes the same packets 1 ms later (same order, no loss).
        for (i, &d) in ds.iter().enumerate() {
            a.observe(d, SimTime::from_micros(10 * i as u64));
            b.observe(d, SimTime::from_micros(10 * i as u64 + 1000));
        }
        let sa: Vec<Digest> = a.drain().into_iter().map(|r| r.pkt_id).collect();
        let sb: Vec<Digest> = b.drain().into_iter().map(|r| r.pkt_id).collect();
        assert_eq!(sa, sb, "same µ/σ ⇒ same sample set in same order");
    }

    #[test]
    fn bias_resistance_decision_unknown_before_marker() {
        // A packet's sampling fate must not be determined by its own
        // digest: the same digest should sometimes be sampled and
        // sometimes not, depending on the *next marker*. We check that
        // among buffered packets with identical digest fed into
        // different marker windows, outcomes differ.
        let marker = Threshold::from_rate(0.5); // frequent markers
        let sigma = Threshold::from_rate(0.5);
        let fixed = Digest(0x1234_5678_9abc_def0); // non-marker digest? ensure below
        assert!(
            !marker.passes(fixed.0),
            "pick a digest that is not a marker for this test"
        );
        let mut outcomes = std::collections::HashSet::new();
        let mut rng = SmallRng::seed_from_u64(6);
        for trial in 0..64 {
            let mut s = DelaySampler::new(marker, sigma);
            s.observe(fixed, SimTime::from_micros(trial));
            // random future packets until a marker fires
            loop {
                let d = Digest(rng.gen());
                if let ObserveOutcome::Marker { .. } = s.observe(d, SimTime::from_micros(trial + 1))
                {
                    break;
                }
            }
            let sampled = s.drain().iter().any(|r| r.pkt_id == fixed);
            outcomes.insert(sampled);
        }
        assert_eq!(
            outcomes.len(),
            2,
            "fate must depend on the future marker, not the packet itself"
        );
    }

    #[test]
    fn buffer_cap_evicts_oldest() {
        // Marker threshold passed only by u64::MAX, so digests 1..=100
        // all buffer and we can trigger a sweep on demand.
        let marker = Threshold(u64::MAX - 1);
        let mut s = DelaySampler::new(marker, Threshold::ALWAYS).with_buffer_cap(10);
        for i in 0..100u64 {
            s.observe(Digest(i + 1), SimTime::from_micros(i));
        }
        assert_eq!(s.buffered(), 10);
        assert_eq!(s.stats().cap_evictions, 90);
        // Oldest evicted: the survivors are exactly the 10 newest, in
        // arrival order — sweep them out with a marker and look.
        s.observe(Digest(u64::MAX), SimTime::from_micros(1000));
        let swept: Vec<u64> = s
            .drain()
            .into_iter()
            .map(|r| r.pkt_id.0)
            .filter(|&d| d != u64::MAX)
            .collect();
        assert_eq!(swept, (91..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn drain_resets_pending() {
        let mut s = DelaySampler::new(Threshold::ALWAYS, Threshold::ALWAYS);
        s.observe(Digest(5), SimTime::ZERO); // digest 5 > 0 ⇒ marker
        assert_eq!(s.pending().len(), 1);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert!(s.pending().is_empty());
    }
}
