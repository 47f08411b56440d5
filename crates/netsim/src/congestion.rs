//! Congestion scenarios: foreground trace + cross traffic through a
//! bottleneck.
//!
//! This reproduces step 2 of the paper's methodology (§7.2): "we use
//! the NS simulator to create realistic congestion scenarios, and
//! generate the sequence of delay values that our packet sequence would
//! encounter". The foreground sequence (the traffic whose receipts VPM
//! generates) shares a drop-tail bottleneck with cross traffic —
//! a bursty high-rate UDP flow (the scenario Figure 2 reports, chosen
//! because it "introduced the highest delay variance in the shortest
//! time scale").

use crate::event::EventQueue;
use crate::queue::{DropTail, QueueOutcome};
use crate::sources::{Arrival, OnOffUdp};
use serde::{Deserialize, Serialize};
use vpm_packet::{SimDuration, SimTime};
use vpm_trace::TracePacket;

/// Bottleneck-link parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BottleneckConfig {
    /// Link rate in bits per second.
    pub rate_bps: f64,
    /// Maximum queueing delay (drop-tail bound).
    pub queue_limit: SimDuration,
    /// One-way propagation delay of the link.
    pub prop_delay: SimDuration,
}

impl BottleneckConfig {
    /// Parameters tuned for the paper's regime: a foreground path of
    /// ~100 kpps (~330 Mbps at ~400 B/pkt) squeezed through a 500 Mbps
    /// link whose queue can build up to tens of milliseconds — the
    /// delay range today's SLAs talk about (§5.3).
    pub fn paper_default() -> Self {
        BottleneckConfig {
            rate_bps: 500e6,
            queue_limit: SimDuration::from_millis(50),
            prop_delay: SimDuration::from_micros(500),
        }
    }
}

/// Cross-traffic mix competing with the foreground sequence.
#[derive(Debug, Clone, Copy)]
pub enum CrossTraffic {
    /// No competition: foreground only.
    None,
    /// A bursty, high-rate UDP flow (Figure 2's congestion source).
    BurstyUdp {
        /// Rate during bursts, bits per second.
        rate_bps: f64,
        /// Mean burst duration.
        mean_on: SimDuration,
        /// Mean silence duration.
        mean_off: SimDuration,
        /// UDP packet size in bytes.
        pkt_bytes: usize,
    },
}

impl CrossTraffic {
    /// The configuration used for Figure 2: bursts that oversubscribe
    /// the paper-default bottleneck while ON, but short enough that the
    /// queue oscillates through its whole range instead of pinning at
    /// the drop-tail cap — "the highest delay variance in the shortest
    /// time scale" (paper §7.2).
    pub fn paper_bursty_udp() -> Self {
        CrossTraffic::BurstyUdp {
            rate_bps: 420e6,
            mean_on: SimDuration::from_millis(22),
            mean_off: SimDuration::from_millis(55),
            pkt_bytes: 1250,
        }
    }
}

/// What happened to one foreground packet at the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketFate {
    /// Delivered after the given one-way delay (queueing + service +
    /// propagation).
    Delivered(SimDuration),
    /// Tail-dropped at the bottleneck queue.
    Dropped,
}

impl PacketFate {
    /// Delay if delivered.
    pub fn delay(&self) -> Option<SimDuration> {
        match self {
            PacketFate::Delivered(d) => Some(*d),
            PacketFate::Dropped => None,
        }
    }
}

/// A fixed-schedule arrival at the bottleneck: a foreground packet
/// (`fg_idx`) or a cross-traffic one.
#[derive(Debug)]
struct Arrive {
    fg_idx: Option<usize>,
    bytes: usize,
}

/// Run the bottleneck simulation and return the fate of every
/// foreground packet (indexed like `foreground`).
///
/// `foreground` must be sorted by arrival time.
pub fn run_bottleneck(
    foreground: &[Arrival],
    cfg: &BottleneckConfig,
    cross: &CrossTraffic,
    seed: u64,
) -> Vec<PacketFate> {
    let horizon = foreground
        .last()
        .map_or(SimTime::ZERO, |&(t, _)| t + SimDuration::from_millis(1));

    let mut queue = DropTail::new(cfg.rate_bps, cfg.queue_limit);
    let mut events: EventQueue<Arrive> = EventQueue::new();
    let mut fates = vec![PacketFate::Dropped; foreground.len()];

    for (i, &(t, bytes)) in foreground.iter().enumerate() {
        events.push(
            t,
            Arrive {
                fg_idx: Some(i),
                bytes,
            },
        );
    }
    if let CrossTraffic::BurstyUdp {
        rate_bps,
        mean_on,
        mean_off,
        pkt_bytes,
    } = *cross
    {
        let src = OnOffUdp {
            rate_bps,
            mean_on,
            mean_off,
            pkt_bytes,
        };
        let horizon = horizon.saturating_since(SimTime::ZERO);
        for (t, bytes) in src.generate(horizon, seed ^ 0xfeed) {
            events.push(
                t,
                Arrive {
                    fg_idx: None,
                    bytes,
                },
            );
        }
    }

    while let Some((now, Arrive { fg_idx, bytes })) = events.pop() {
        let fate = match queue.offer(now, bytes) {
            QueueOutcome::Departs(depart) => {
                PacketFate::Delivered(depart.saturating_since(now) + cfg.prop_delay)
            }
            QueueOutcome::Dropped => PacketFate::Dropped,
        };
        if let Some(i) = fg_idx {
            fates[i] = fate;
        }
    }
    fates
}

/// Convenience: run the bottleneck over a generated trace and return
/// per-trace-packet fates.
pub fn foreground_delays(
    trace: &[TracePacket],
    cfg: &BottleneckConfig,
    cross: &CrossTraffic,
    seed: u64,
) -> Vec<PacketFate> {
    let arrivals: Vec<Arrival> = trace
        .iter()
        .map(|tp| (tp.ts, tp.packet.wire_len()))
        .collect();
    run_bottleneck(&arrivals, cfg, cross, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpm_trace::{TraceConfig, TraceGenerator};

    fn small_trace(pps: f64, ms: u64, seed: u64) -> Vec<TracePacket> {
        let cfg = TraceConfig {
            target_pps: pps,
            duration: SimDuration::from_millis(ms),
            ..TraceConfig::paper_default(1, seed)
        };
        TraceGenerator::new(cfg).generate()
    }

    #[test]
    fn uncongested_link_gives_base_delay() {
        let trace = small_trace(5_000.0, 200, 1);
        let cfg = BottleneckConfig {
            rate_bps: 1e9,
            queue_limit: SimDuration::from_millis(50),
            prop_delay: SimDuration::from_micros(500),
        };
        let fates = foreground_delays(&trace, &cfg, &CrossTraffic::None, 0);
        let mut max = SimDuration::ZERO;
        for f in &fates {
            let d = f.delay().expect("no drops on an empty link");
            max = max.max(d);
        }
        // service(1500B @1Gbps)=12µs; delay ≈ prop + service ≪ 1 ms
        assert!(max < SimDuration::from_millis(1), "max {max}");
    }

    #[test]
    fn bursty_udp_builds_delay_spikes() {
        let trace = small_trace(20_000.0, 2_000, 2);
        let cfg = BottleneckConfig {
            rate_bps: 100e6,
            queue_limit: SimDuration::from_millis(50),
            prop_delay: SimDuration::from_micros(500),
        };
        // Foreground ~20kpps·400B ≈ 64 Mbps; bursts add 90 Mbps.
        let cross = CrossTraffic::BurstyUdp {
            rate_bps: 90e6,
            mean_on: SimDuration::from_millis(100),
            mean_off: SimDuration::from_millis(150),
            pkt_bytes: 1250,
        };
        let fates = foreground_delays(&trace, &cfg, &cross, 3);
        let delays: Vec<f64> = fates
            .iter()
            .filter_map(|f| f.delay().map(|d| d.as_millis_f64()))
            .collect();
        assert!(!delays.is_empty());
        let max = delays.iter().copied().fold(0.0, f64::max);
        let min = delays.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max > 5.0, "no delay spikes: max {max} ms");
        assert!(min < 1.0, "even quiet periods delayed: min {min} ms");
    }

    #[test]
    fn overload_drops_at_bounded_delay() {
        let trace = small_trace(20_000.0, 500, 6);
        let cfg = BottleneckConfig {
            rate_bps: 30e6, // ~64 Mbps offered into 30 Mbps: sustained overload
            queue_limit: SimDuration::from_millis(20),
            prop_delay: SimDuration::ZERO,
        };
        let fates = foreground_delays(&trace, &cfg, &CrossTraffic::None, 7);
        let drops = fates.iter().filter(|f| f.delay().is_none()).count();
        assert!(drops > 0, "overload must drop");
        for f in &fates {
            if let Some(d) = f.delay() {
                // queueing bounded by limit + one service time
                assert!(d < SimDuration::from_millis(22), "delay {d}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = small_trace(5_000.0, 300, 8);
        let cfg = BottleneckConfig::paper_default();
        let cross = CrossTraffic::paper_bursty_udp();
        let a = foreground_delays(&trace, &cfg, &cross, 9);
        let b = foreground_delays(&trace, &cfg, &cross, 9);
        assert_eq!(a, b);
    }
}
