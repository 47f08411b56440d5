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
use vpm_trace::{TraceConfig, TraceGenerator};
use vpm_wire::{Profile, ReceiptTransport, ShardedBus, TransportError, WireEncoder};

use crate::adversary::Lie;
use crate::run::{simulate, HopOutput, PathRun, Report, RunConfig, Simulation};
use crate::topology::Topology;
use crate::verdict::{analyze_path, PathAnalysis};

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
        self.publish(self.simulate(), transport)
    }

    /// The data plane of [`Self::run`]: the trace through the path, with
    /// the forwarding lies applied. Receipt lies do not enter it, so
    /// scenarios that differ only in those can share one simulation.
    pub(crate) fn simulate(&self) -> Simulation {
        let trace = TraceGenerator::new(self.trace).generate();
        simulate(&trace, &self.topology, &self.config, &self.lies)
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
    /// what the HOPs published.
    pub fn evaluate(&self) -> (PathRun, PathAnalysis) {
        self.evaluate_simulation(self.simulate())
    }

    /// [`Self::evaluate`] over a simulation of this scenario's path.
    #[expect(
        clippy::expect_used,
        reason = "a private bus admits every frame its own HOPs sign"
    )]
    pub(crate) fn evaluate_simulation(&self, simulation: Simulation) -> (PathRun, PathAnalysis) {
        let run = self
            .publish(simulation, &ShardedBus::new(1))
            .expect("a private bus admits every frame its own HOPs sign");
        let analysis = analyze_path(&self.topology, &run);
        (run, analysis)
    }
}
