//! One scenario value and its one runner.
//!
//! A [`Scenario`] fixes every free variable of a path experiment: the
//! traffic ([`TraceConfig`]), the path with every domain's channel (a
//! [`Topology`], usually a built [`crate::Figure1`]), the HOPs'
//! [`RunConfig`], whether every HOP leads with an empty quiet interval,
//! and the [`Lie`]s its domains tell. [`Scenario::run`] simulates the
//! path, lets each HOP sign the receipts it claims, and publishes each
//! HOP's frames once to the caller's transport. The scenario matrix is
//! a grid of scenarios, the fleet a list of them on one bus, and each
//! §7.2 figure a list read by one estimator.

use vpm_core::processor::ReceiptBatch;
use vpm_packet::DomainId;
use vpm_trace::{TraceConfig, TraceGenerator, TracePacket};
use vpm_wire::{Profile, ReceiptTransport, ShardedBus, TransportError, WireEncoder};

use crate::adversary::Lie;
use crate::run::{simulate, HopOutput, PathRun, Report, RunConfig, Simulation};
use crate::topology::Topology;
use crate::verdict::{analyze_from_transport, PathAnalysis};

/// One fully specified path experiment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The traffic injected at the path head.
    pub trace: TraceConfig,
    /// The path, with what every domain and link does to the traffic.
    pub topology: Topology,
    /// How the HOPs are configured.
    pub config: RunConfig,
    /// Does every HOP lead with an empty, signed batch (a reporting
    /// interval in which nothing matured)?
    pub quiet_first_interval: bool,
    /// The lies the path's domains tell, applied in order.
    pub lies: Vec<Lie>,
}

impl Scenario {
    /// An honest scenario with no quiet first interval.
    pub fn new(trace: TraceConfig, topology: Topology, config: RunConfig) -> Self {
        Scenario {
            trace,
            topology,
            config,
            quiet_first_interval: false,
            lies: Vec::new(),
        }
    }

    /// Simulate the path, let every HOP sign the receipts it claims,
    /// and publish each HOP's frames once, in path order, through
    /// `transport` as precise-profile wire frames. A HOP with a quiet
    /// first interval publishes its empty batch as `batch_seq` 0 and
    /// its receipts as 1, so every HOP's frames count 0, 1, … without a
    /// repeat.
    ///
    /// Concurrent runs on one transport need disjoint HOP id sets
    /// (paths built with [`crate::Figure1::numbered`]): a transport
    /// refuses a second key for an established HOP.
    pub fn run(&self, transport: &dyn ReceiptTransport) -> Result<PathRun, TransportError> {
        self.publish(self.simulate(&self.packets()), transport)
    }

    /// The packets of [`Self::trace`], which scenarios over one trace
    /// can share.
    pub(crate) fn packets(&self) -> Vec<TracePacket> {
        TraceGenerator::new(self.trace).generate()
    }

    /// The data plane of [`Self::run`]: this scenario's `packets`
    /// through the path, with the forwarding lies applied. Receipt lies
    /// do not enter it, so scenarios that differ only in those can
    /// share one simulation.
    pub(crate) fn simulate(&self, packets: &[TracePacket]) -> Simulation {
        simulate(packets, &self.topology, &self.config, &self.lies)
    }

    /// The publishing half of [`Self::run`], over a simulation of this
    /// scenario's path: the receipt lies, then every HOP's frames.
    pub(crate) fn publish(
        &self,
        simulation: Simulation,
        transport: &dyn ReceiptTransport,
    ) -> Result<PathRun, TransportError> {
        let Simulation {
            mut reports,
            truths,
            trace_len,
        } = simulation;
        for lie in &self.lies {
            lie.doctor(&self.topology, &mut reports);
        }
        let on_path = self.topology.domain_ids();
        let encoder = WireEncoder::new(Profile::Precise);
        let mut hops = Vec::with_capacity(reports.len());
        for Report {
            hop,
            domain,
            path,
            mut batch,
            observed,
            key,
        } in reports
        {
            let key_epoch = transport.register_key(hop, key)?;
            let publish = |batch: &ReceiptBatch| {
                let frame = encoder.encode_signed(batch, &key, key_epoch)?;
                transport.publish(domain, frame, on_path.clone())
            };
            if self.quiet_first_interval {
                publish(&ReceiptBatch {
                    hop,
                    batch_seq: batch.batch_seq,
                    samples: Vec::new(),
                    aggregates: Vec::new(),
                })?;
                batch.batch_seq += 1;
            }
            publish(&batch)?;
            hops.push(HopOutput {
                hop,
                domain,
                path,
                batch,
                observed,
                key_epoch,
            });
        }
        Ok(PathRun {
            hops,
            truths,
            trace_len,
        })
    }

    /// [`Self::run`] on a private bus, and the collector's analysis of
    /// the frames the HOPs published there.
    pub fn evaluate(&self) -> (PathRun, PathAnalysis) {
        self.evaluate_simulation(self.simulate(&self.packets()))
    }

    /// [`Self::evaluate`] over a simulation of this scenario's path.
    #[expect(
        clippy::expect_used,
        reason = "a private bus admits every frame its own HOPs sign, and shows it to every domain on the path"
    )]
    pub(crate) fn evaluate_simulation(&self, simulation: Simulation) -> (PathRun, PathAnalysis) {
        let bus = ShardedBus::new(1);
        let run = self
            .publish(simulation, &bus)
            .expect("the bus admits its own HOPs' frames");
        let collector = self.topology.domains.first().map_or(DomainId(0), |d| d.id);
        let analysis = analyze_from_transport(&self.topology, &bus, collector);
        (run, analysis.expect("the collector is on the path"))
    }
}

#[cfg(test)]
impl Scenario {
    /// A test scenario: a `ms`-long 50 kpps trace of `seed` through
    /// `topology`, telling `lies`, every HOP at σ = 5 %, 500-packet
    /// aggregates, µ = 1 % and J = 2 ms.
    pub(crate) fn quick(topology: Topology, ms: u64, seed: u64, lies: Vec<Lie>) -> Self {
        use vpm_packet::SimDuration;
        let trace = TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(ms),
            ..TraceConfig::paper_default(1, seed)
        };
        let config = RunConfig {
            sampling_rate: 0.05,
            aggregate_size: 500,
            marker_rate: 0.01,
            j_window: SimDuration::from_millis(2),
            ..RunConfig::default()
        };
        Scenario {
            lies,
            ..Scenario::new(trace, topology, config)
        }
    }
}

/// A test transit: 200 µs, losing `rate` of the packets in bursts of 4.
#[cfg(test)]
pub(crate) fn lossy(rate: f64, seed: u64) -> vpm_netsim::channel::ChannelConfig {
    let delay = vpm_packet::SimDuration::from_micros(200);
    vpm_netsim::channel::ChannelConfig {
        loss: Some((rate, 4.0)),
        seed,
        ..vpm_netsim::channel::ChannelConfig::ideal(delay)
    }
}
