//! Non-adaptive traffic sources.
//!
//! The paper's headline congestion scenario is "a bursty, high-rate UDP
//! flow" saturating a bottleneck (Figure 2 caption). These sources
//! produce fixed `(time, bytes)` arrival sequences — they do not react
//! to loss, which is exactly what makes them brutal to a FIFO.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vpm_packet::{SimDuration, SimTime};

/// A timed packet arrival: `(arrival time, wire bytes)`.
pub type Arrival = (SimTime, usize);

/// Bursty on/off UDP source.
///
/// Alternates between ON periods (constant rate `rate_bps`) and OFF periods
/// (silent). Period lengths are drawn uniformly from
/// `[0.5, 1.5] × mean` so bursts do not phase-lock with anything else
/// in the simulation, while the worst-case burst stays bounded (an
/// exponential tail would occasionally pin a drop-tail queue at its
/// cap for hundreds of milliseconds, which collapses the delay
/// distribution the Figure 2 experiment depends on).
#[derive(Debug, Clone, Copy)]
pub struct OnOffUdp {
    /// Transmission rate during ON periods, bits per second.
    pub rate_bps: f64,
    /// Mean ON duration.
    pub mean_on: SimDuration,
    /// Mean OFF duration.
    pub mean_off: SimDuration,
    /// Packet size in bytes.
    pub pkt_bytes: usize,
}

impl OnOffUdp {
    /// Generate arrivals over `[0, horizon)`.
    pub fn generate(&self, horizon: SimDuration, seed: u64) -> Vec<Arrival> {
        assert!(self.rate_bps > 0.0 && self.pkt_bytes > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let gap = SimDuration::from_secs_f64(self.pkt_bytes as f64 * 8.0 / self.rate_bps);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + horizon;
        let jittered = |rng: &mut SmallRng, mean: SimDuration| {
            let u: f64 = rng.gen(); // uniform [0.5, 1.5] × mean
            SimDuration::from_secs_f64((0.5 + u) * mean.as_secs_f64())
        };
        // Start OFF half the time so the first burst position varies.
        if rng.gen::<bool>() {
            t += jittered(&mut rng, self.mean_off);
        }
        while t < end {
            let on_len = jittered(&mut rng, self.mean_on);
            let on_end = (t + on_len).min(end);
            while t < on_end {
                out.push((t, self.pkt_bytes));
                t += gap;
            }
            t += jittered(&mut rng, self.mean_off);
        }
        out
    }

    /// Long-run average rate of the source, bits per second.
    pub fn average_rate(&self) -> f64 {
        let on = self.mean_on.as_secs_f64();
        let off = self.mean_off.as_secs_f64();
        self.rate_bps * on / (on + off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onoff_average_rate() {
        let src = OnOffUdp {
            rate_bps: 100e6,
            mean_on: SimDuration::from_millis(50),
            mean_off: SimDuration::from_millis(50),
            pkt_bytes: 1250,
        };
        let horizon = SimDuration::from_secs(20);
        let arr = src.generate(horizon, 3);
        let bytes: usize = arr.iter().map(|a| a.1).sum();
        let rate = bytes as f64 * 8.0 / horizon.as_secs_f64();
        let target = src.average_rate();
        assert!(
            (rate - target).abs() / target < 0.15,
            "rate {rate} vs {target}"
        );
    }

    #[test]
    fn onoff_is_bursty() {
        let src = OnOffUdp {
            rate_bps: 100e6,
            mean_on: SimDuration::from_millis(20),
            mean_off: SimDuration::from_millis(80),
            pkt_bytes: 1250,
        };
        let arr = src.generate(SimDuration::from_secs(5), 5);
        // Gaps should be bimodal: tiny inside bursts, large between.
        let mut large_gaps = 0;
        for w in arr.windows(2) {
            if w[1].0 - w[0].0 > SimDuration::from_millis(10) {
                large_gaps += 1;
            }
        }
        assert!(large_gaps > 10, "only {large_gaps} inter-burst gaps");
    }

    #[test]
    fn sorted_outputs() {
        let src = OnOffUdp {
            rate_bps: 50e6,
            mean_on: SimDuration::from_millis(10),
            mean_off: SimDuration::from_millis(30),
            pkt_bytes: 500,
        };
        let arr = src.generate(SimDuration::from_secs(2), 11);
        for w in arr.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
