//! The end-to-end path runner.
//!
//! Pushes a trace along a [`Topology`]: every HOP observes the stream
//! through its (possibly imperfect) clock and feeds its VPM pipeline;
//! every transit domain and inter-domain link transforms the stream
//! (delay / loss / reordering) on the way. The runner retains ground
//! truth (true per-domain delays and losses) so experiments can score
//! the receipt-derived estimates against reality.
//!
//! Receipts do not shortcut from processor to analysis: every batch is
//! encoded into a v2 wire frame, published through a
//! [`ReceiptTransport`], then fetched and decoded to rebuild the
//! [`HopOutput`]s — so the whole test surface built on `run_path`
//! (including the 216-cell scenario matrix) exercises the codec's
//! `encode → decode` round trip and proves it lossless.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};
use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::{AggReceipt, PathId, SampleRecord};
use vpm_core::{HopConfig, HopPipeline, Ingest};
use vpm_hash::{Digest, HopKey, KeyEpoch, Threshold};
use vpm_netsim::channel::{apply, arrivals, ChannelConfig};
use vpm_netsim::clock::HopClock;
use vpm_packet::{DomainId, HopId, SimDuration, SimTime};
use vpm_trace::TracePacket;
use vpm_wire::{Profile, ReceiptTransport, ShardedBus, TransportError, WaitOutcome, WireEncoder};

use crate::topology::{DomainRole, Topology};

/// Shard count of the transport `run_path` creates for itself. Small
/// because a Figure-1 run publishes one frame per HOP; many-path
/// workloads pass their own wider [`ShardedBus`] to
/// [`run_path_with_transport`].
const RUN_TRANSPORT_SHARDS: usize = 4;

/// Clock quality at the HOPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Perfect clocks (intra-domain sync is a domain's own interest).
    Ideal,
    /// NTP-grade clocks (±0.5 ms offset, drift, read jitter).
    NtpGrade,
}

/// Per-HOP tuning overrides.
#[derive(Debug, Clone, Copy)]
pub struct HopTuning {
    /// Delay-sampling rate `σ`-rate.
    pub sampling_rate: f64,
    /// Expected aggregate size in packets (sets `δ`).
    pub aggregate_size: u64,
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Default sampling rate for HOPs without overrides.
    pub sampling_rate: f64,
    /// Default aggregate size for HOPs without overrides.
    pub aggregate_size: u64,
    /// System-wide marker rate `µ`.
    pub marker_rate: f64,
    /// Safety threshold `J`.
    pub j_window: SimDuration,
    /// Clock quality.
    pub clocks: ClockMode,
    /// Per-HOP overrides.
    pub overrides: HashMap<HopId, HopTuning>,
    /// If set, this transit domain drops every marker packet it carries
    /// (the §5.3 attack).
    pub marker_dropper: Option<DomainId>,
    /// Seed for clock randomness.
    pub seed: u64,
    /// Longest the runner blocks waiting for its own published frames
    /// to come back through the transport before giving up with
    /// [`RunError::DrainTimeout`]. On a private bus this never
    /// triggers; on a shared or remote transport it bounds the damage
    /// a publisher that died mid-publish can do.
    pub drain_timeout: Duration,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sampling_rate: 0.01,
            aggregate_size: 1000,
            marker_rate: vpm_core::DEFAULT_MARKER_RATE,
            j_window: SimDuration::from_millis(10),
            clocks: ClockMode::Ideal,
            overrides: HashMap::new(),
            marker_dropper: None,
            seed: 0,
            drain_timeout: Duration::from_secs(30),
        }
    }
}

/// A path run failed at the dissemination layer. (The simulation
/// itself is deterministic and total; only the receipt plane — a
/// shared or remote transport — can fail a run.)
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The runner's published frames did not all come back within
    /// [`RunConfig::drain_timeout`] — the bounded replacement for the
    /// old spin-forever drain. The classic cause: a concurrent
    /// publisher claimed a global sequence number and died before
    /// inserting, stalling the stream's contiguous prefix for good.
    DrainTimeout {
        /// Batches that did arrive before the deadline.
        collected: usize,
        /// Batches the run published and expected back.
        expected: usize,
        /// How long the drain waited.
        waited: Duration,
    },
    /// The transport refused or failed an operation.
    Transport(TransportError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::DrainTimeout {
                collected,
                expected,
                waited,
            } => write!(
                f,
                "receipt drain timed out after {waited:?} with {collected}/{expected} \
                 batches back — a publisher died mid-publish, or the transport stalled"
            ),
            RunError::Transport(e) => write!(f, "receipt transport failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<TransportError> for RunError {
    fn from(e: TransportError) -> Self {
        RunError::Transport(e)
    }
}

/// Everything one HOP produced during a run.
#[derive(Debug, Clone)]
pub struct HopOutput {
    /// The HOP.
    pub hop: HopId,
    /// Its domain.
    pub domain: DomainId,
    /// The `PathID` its receipts carry.
    pub path: PathId,
    /// The receipt batch, decoded from its published signed frame.
    pub batch: ReceiptBatch,
    /// Flattened sample records (observation order).
    pub samples: Vec<SampleRecord>,
    /// Aggregate receipts (stream order).
    pub aggregates: Vec<AggReceipt>,
    /// Packets this HOP observed.
    pub observed: usize,
    /// The HOP's signing key.
    pub key: HopKey,
    /// The key epoch the HOP's frames were published (and verified)
    /// under.
    pub key_epoch: KeyEpoch,
}

impl HopOutput {
    /// The full signing key.
    pub fn hop_key(&self) -> HopKey {
        self.key
    }
}

/// Ground truth for one transit domain.
#[derive(Debug, Clone)]
pub struct DomainTruth {
    /// The domain.
    pub domain: DomainId,
    /// Name for reporting.
    pub name: String,
    /// Packets entering the domain.
    pub sent: u64,
    /// Packets leaving the domain.
    pub delivered: u64,
    /// True per-packet transit delays (ms) of delivered packets.
    pub delays_ms: Vec<f64>,
}

/// The result of a path run.
#[derive(Debug, Clone)]
pub struct PathRun {
    /// Per-HOP outputs, in path order.
    pub hops: Vec<HopOutput>,
    /// Ground truth per transit domain, in path order.
    pub truths: Vec<DomainTruth>,
    /// Packets injected at the path head.
    pub trace_len: usize,
}

impl PathRun {
    /// Output of a HOP.
    pub fn hop(&self, hop: HopId) -> Option<&HopOutput> {
        self.hops.iter().find(|h| h.hop == hop)
    }

    /// Mutable output of a HOP (adversaries doctor receipts here).
    pub fn hop_mut(&mut self, hop: HopId) -> Option<&mut HopOutput> {
        self.hops.iter_mut().find(|h| h.hop == hop)
    }

    /// Ground truth of a transit domain by name.
    pub fn truth(&self, name: &str) -> Option<&DomainTruth> {
        self.truths.iter().find(|t| t.name == name)
    }
}

/// Live packet stream: `(trace index, current time)` in observation
/// order.
type Stream = Vec<(usize, SimTime)>;

fn transform(stream: &Stream, channel: &ChannelConfig) -> (Stream, Vec<f64>) {
    let times: Vec<SimTime> = stream.iter().map(|&(_, t)| t).collect();
    let out = apply(&times, channel);
    let deliveries = arrivals(&out);
    let mut delays = Vec::with_capacity(deliveries.len());
    for d in &deliveries {
        #[expect(
            clippy::indexing_slicing,
            reason = "d.idx indexes the trace the deliveries came from"
        )]
        delays.push(d.ts_out.signed_delta(times[d.idx]) as f64 / 1e6);
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "d.idx indexes the trace the deliveries came from"
    )]
    let next: Stream = deliveries
        .iter()
        .map(|d| (stream[d.idx].0, d.ts_out))
        .collect();
    (next, delays)
}

#[expect(
    clippy::indexing_slicing,
    reason = "idx indexes the trace the samples came from"
)]
fn drop_markers(stream: &Stream, digests: &[Digest], marker: Threshold) -> Stream {
    stream
        .iter()
        .filter(|&&(idx, _)| !marker.passes(digests[idx].0))
        .copied()
        .collect()
}

/// Run a trace through a topology, disseminating receipts over a
/// private [`ShardedBus`] (see [`run_path_with_transport`] to supply a
/// transport and observe the published frames).
#[expect(
    clippy::expect_used,
    reason = "a private in-process bus cannot fail or stall"
)]
pub fn run_path(trace: &[TracePacket], topology: &Topology, cfg: &RunConfig) -> PathRun {
    run_path_with_transport(trace, topology, cfg, &ShardedBus::new(RUN_TRANSPORT_SHARDS))
        .expect("a private in-process bus cannot fail or stall")
}

/// Run a trace through a topology, publishing every HOP's receipt
/// batch through `transport` as an encoded precise-profile wire frame
/// and rebuilding the per-HOP outputs from the fetched, decoded
/// frames.
///
/// The runner opens its own subscription before publishing and drains
/// it afterwards, so it collects exactly this run's frames even on a
/// shared transport. Concurrent runs on one transport are supported
/// as long as their HOP and domain id sets are disjoint (e.g. paths
/// built with `topology::Figure1::numbered`): each run's collector
/// only sees its own frames, so every run's output is byte-identical
/// to a run on a private bus (test-pinned below). Another run's
/// publisher sitting between claiming a sequence number and inserting
/// stalls the stream's contiguous prefix; the drain *blocks* on
/// [`ReceiptTransport::wait`] (no spinning) until the in-flight entry
/// lands, and gives up with [`RunError::DrainTimeout`] after
/// [`RunConfig::drain_timeout`] if it never does. The run's
/// subscription is dropped before returning, success or not.
pub fn run_path_with_transport(
    trace: &[TracePacket],
    topology: &Topology,
    cfg: &RunConfig,
    transport: &dyn ReceiptTransport,
) -> Result<PathRun, RunError> {
    // Slice-digest the whole trace through the word-oriented lookup3
    // fast path (identical digests to per-packet `Packet::digest`).
    let digests: Vec<Digest> = vpm_packet::digest_packets(
        trace.iter().map(|tp| &tp.packet),
        vpm_hash::DEFAULT_DIGEST_SEED,
    );
    let marker = Threshold::from_rate(cfg.marker_rate);

    // Build pipelines and clocks. Every HOP's `PathID` comes from
    // `Topology::hop_path_ids`, the same table path-scoped verification
    // uses — runner and verifier cannot drift apart.
    let hop_order = topology.hops();
    let mut pipelines: HashMap<HopId, (HopPipeline, HopClock, PathId)> = HashMap::new();
    for (hop, path) in topology.hop_path_ids() {
        #[expect(
            clippy::expect_used,
            reason = "every hop in a built topology belongs to a domain"
        )]
        let dom = topology.domain_of(hop).expect("hop has a domain");
        let tuning = cfg.overrides.get(&hop).copied().unwrap_or(HopTuning {
            sampling_rate: cfg.sampling_rate,
            aggregate_size: cfg.aggregate_size,
        });
        let hop_cfg = HopConfig::new(hop, dom.id)
            .with_sampling_rate(tuning.sampling_rate)
            .with_aggregate_size(tuning.aggregate_size)
            .with_marker_rate(cfg.marker_rate)
            .with_j_window(cfg.j_window)
            .with_max_diff(path.max_diff);
        let mut pipe = HopPipeline::new(hop_cfg);
        pipe.register_path(path);
        let clock = match cfg.clocks {
            ClockMode::Ideal => HopClock::ideal(),
            ClockMode::NtpGrade => HopClock::ntp_grade(cfg.seed ^ (hop.0 as u64) << 8),
        };
        pipelines.insert(hop, (pipe, clock, path));
    }

    // Batched data plane: read the clock per packet, then push
    // ring-sized, pre-classified, pre-digested batches through the
    // collector's amortized hot path (byte-identical to per-packet
    // observation, measurably faster, O(batch) transient memory).
    const OBSERVE_BATCH: usize = 4096;
    let mut batch: Vec<(usize, Digest, SimTime)> = Vec::with_capacity(OBSERVE_BATCH);
    let mut observe = |pipelines: &mut HashMap<HopId, (HopPipeline, HopClock, PathId)>,
                       hop: HopId,
                       stream: &Stream| {
        #[expect(
            clippy::expect_used,
            reason = "every on-path hop was registered in the loop above"
        )]
        let (pipe, clock, _) = pipelines.get_mut(&hop).expect("registered hop");
        for part in stream.chunks(OBSERVE_BATCH) {
            batch.clear();
            #[expect(
                clippy::indexing_slicing,
                reason = "idx indexes the trace the samples came from"
            )]
            batch.extend(
                part.iter()
                    .map(|&(idx, t)| (0, digests[idx], clock.read(t))),
            );
            let report = pipe.collector.ingest(&batch);
            debug_assert!(report.is_clean(), "path index 0 is always registered");
        }
    };

    // Walk the path.
    let mut stream: Stream = trace.iter().enumerate().map(|(i, tp)| (i, tp.ts)).collect();
    let mut truths = Vec::new();
    let mut observed_count: HashMap<HopId, usize> = HashMap::new();

    for (d_idx, dom) in topology.domains.iter().enumerate() {
        if let Some(ingress) = dom.ingress {
            observed_count.insert(ingress, stream.len());
            observe(&mut pipelines, ingress, &stream);
        }
        if dom.role == DomainRole::Transit {
            let sent = stream.len() as u64;
            let (mut next, delays) = transform(&stream, &dom.transit);
            if cfg.marker_dropper == Some(dom.id) {
                next = drop_markers(&next, &digests, marker);
            }
            truths.push(DomainTruth {
                domain: dom.id,
                name: dom.name.clone(),
                sent,
                delivered: next.len() as u64,
                delays_ms: if cfg.marker_dropper == Some(dom.id) {
                    Vec::new() // delays no longer aligned after marker drop
                } else {
                    delays
                },
            });
            stream = next;
        }
        if let Some(egress) = dom.egress {
            observed_count.insert(egress, stream.len());
            observe(&mut pipelines, egress, &stream);
        }
        // Inter-domain link to the next domain.
        if d_idx < topology.links.len() {
            #[expect(clippy::indexing_slicing, reason = "d_idx ranges over topology.links")]
            let (next, _) = transform(&stream, &topology.links[d_idx].channel);
            stream = next;
        }
    }

    // Final reports: encode every batch into a precise-profile wire
    // frame, publish it through the transport (which re-decodes and
    // MAC-verifies the actual bytes), then drain this run's
    // subscription and rebuild the outputs from the *decoded* batches —
    // the codec round trip is on the pipeline's critical path.
    let on_path = topology.domain_ids();
    #[expect(
        clippy::expect_used,
        reason = "built topologies always have at least one domain"
    )]
    let collector_domain = *on_path.first().expect("topology has domains");
    let sub = transport.subscribe(collector_domain);
    let encoder = WireEncoder::new(Profile::Precise);
    let mut hop_meta: HashMap<HopId, (DomainId, PathId, HopKey, KeyEpoch)> = HashMap::new();
    let mut decoded: HashMap<HopId, ReceiptBatch> = HashMap::new();
    // Publish + drain share the subscription; run them in a closure so
    // the subscription is unconditionally dropped afterwards — a
    // failed run must not leak a cursor on a shared transport.
    let published_and_drained = (|| -> Result<(), RunError> {
        for &hop in &hop_order {
            #[expect(
                clippy::expect_used,
                reason = "hop_order and pipelines are populated from the same path"
            )]
            let (mut pipe, _, path) = pipelines.remove(&hop).expect("still present");
            #[expect(
                clippy::expect_used,
                reason = "every hop in a built topology belongs to a domain"
            )]
            let dom = topology.domain_of(hop).expect("hop has a domain").id;
            let key = pipe.processor.hop_key();
            let batch = pipe.final_report();
            let epoch = transport.register_key(hop, key)?;
            #[expect(
                clippy::expect_used,
                reason = "encoding a batch this code just built cannot exceed wire limits"
            )]
            let frame = encoder
                .encode_signed(&batch, &key, epoch)
                .expect("receipt batches encode");
            transport.publish(dom, frame, on_path.clone())?;
            hop_meta.insert(hop, (dom, path, key, epoch));
        }

        // Drain the run's subscription until every published batch is
        // back. One poll would suffice on a private transport, but on
        // a shared bus a *concurrent* publisher (another fleet path)
        // can sit between claiming a sequence number and inserting,
        // which stalls the stream's contiguous prefix — so block on
        // `wait` (zero shard scans while idle) until the in-flight
        // entry lands, bounded by the drain deadline: a publisher that
        // claimed a number and died would otherwise hang this loop
        // forever. Frames from other paths are invisible to this
        // collector (disjoint `on_path` sets) and skipped by the poll.
        #[expect(
            clippy::disallowed_methods,
            reason = "bounds a blocking-wait timeout; never feeds a verdict"
        )]
        let deadline = Instant::now() + cfg.drain_timeout;
        loop {
            for p in transport.poll(sub)? {
                if hop_meta.contains_key(&p.hop) {
                    decoded.entry(p.hop).or_insert_with(|| p.batch.clone());
                }
            }
            if decoded.len() >= hop_order.len() {
                return Ok(());
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "bounds a blocking-wait timeout; never feeds a verdict"
            )]
            let now = Instant::now();
            let timed_out =
                now >= deadline || transport.wait(sub, deadline - now)? == WaitOutcome::TimedOut;
            if timed_out {
                return Err(RunError::DrainTimeout {
                    collected: decoded.len(),
                    expected: hop_order.len(),
                    waited: cfg.drain_timeout,
                });
            }
        }
    })();
    let _ = transport.unsubscribe(sub);
    published_and_drained?;

    let mut hops = Vec::new();
    for &hop in &hop_order {
        #[expect(
            clippy::expect_used,
            reason = "hop_meta was populated for every published hop above"
        )]
        let (dom, path, key, epoch) = hop_meta.remove(&hop).expect("published above");
        #[expect(
            clippy::expect_used,
            reason = "the drain loop returns only once every hop's frame arrived"
        )]
        let batch = decoded.remove(&hop).expect("published frame came back");
        let samples: Vec<SampleRecord> = batch
            .samples
            .iter()
            .flat_map(|r| r.samples.iter().copied())
            .collect();
        let aggregates = batch.aggregates.clone();
        hops.push(HopOutput {
            hop,
            domain: dom,
            path,
            batch,
            samples,
            aggregates,
            observed: observed_count.get(&hop).copied().unwrap_or(0),
            key,
            key_epoch: epoch,
        });
    }

    Ok(PathRun {
        hops,
        truths,
        trace_len: trace.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Figure1;
    use std::sync::Arc;
    use vpm_netsim::channel::DelayModel;
    use vpm_netsim::reorder::ReorderModel;
    use vpm_trace::{TraceConfig, TraceGenerator};
    use vpm_wire::{Published, SubscriptionId, WireFrame};

    fn trace(n_ms: u64, seed: u64) -> Vec<TracePacket> {
        let cfg = TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(n_ms),
            ..TraceConfig::paper_default(1, seed)
        };
        TraceGenerator::new(cfg).generate()
    }

    fn quick_cfg() -> RunConfig {
        RunConfig {
            sampling_rate: 0.05,
            aggregate_size: 500,
            marker_rate: 0.01,
            j_window: SimDuration::from_millis(2),
            ..RunConfig::default()
        }
    }

    #[test]
    fn ideal_run_all_hops_see_everything() {
        let t = trace(200, 1);
        let run = run_path(&t, &Figure1::ideal().build(), &quick_cfg());
        assert_eq!(run.hops.len(), 8);
        for h in &run.hops {
            assert_eq!(h.observed, t.len(), "{} observed", h.hop);
            assert!(!h.samples.is_empty());
            assert!(!h.aggregates.is_empty());
        }
        for truth in &run.truths {
            assert_eq!(truth.sent, truth.delivered, "{}", truth.name);
        }
    }

    /// The receipts in a `PathRun` went through encode → transport →
    /// decode; losslessness means the decoded batches re-sign-and-encode
    /// under their HOPs' keys to the very frames the transport holds.
    #[test]
    fn run_receipts_round_trip_the_wire_codec_losslessly() {
        let t = trace(150, 21);
        let topo = Figure1::ideal().build();
        let transport = vpm_wire::ShardedBus::new(1);
        let run = run_path_with_transport(&t, &topo, &quick_cfg(), &transport).unwrap();
        assert_eq!(transport.len(), run.hops.len());
        for h in &run.hops {
            let published = transport.fetch(h.domain, h.hop).unwrap();
            assert_eq!(published.len(), 1);
            assert_eq!(published[0].epoch, h.key_epoch);
            let re = vpm_wire::WireEncoder::precise()
                .encode_signed(&h.batch, &h.hop_key(), h.key_epoch)
                .unwrap();
            assert_eq!(
                re, published[0].frame,
                "decoded batch must re-sign-and-encode to the published bytes"
            );
        }
    }

    /// The shard count is invisible to the result: the same trace
    /// through the single-lock store and through wider sharded buses
    /// yields identical outputs.
    #[test]
    fn path_run_is_identical_across_transports_and_shard_counts() {
        let t = trace(150, 22);
        let topo = Figure1::ideal().build();
        let cfg = quick_cfg();
        let baseline =
            run_path_with_transport(&t, &topo, &cfg, &vpm_wire::ShardedBus::new(1)).unwrap();
        for shards in [4, 16] {
            let run = run_path_with_transport(&t, &topo, &cfg, &vpm_wire::ShardedBus::new(shards))
                .unwrap();
            assert_eq!(run.trace_len, baseline.trace_len);
            for (a, b) in baseline.hops.iter().zip(&run.hops) {
                assert_eq!(a.hop, b.hop, "{shards} shards");
                assert_eq!(a.batch, b.batch, "{shards} shards");
                assert_eq!(a.samples, b.samples, "{shards} shards");
                assert_eq!(a.aggregates, b.aggregates, "{shards} shards");
            }
        }
    }

    /// Concurrent runs on one shared bus (disjoint HOP/domain id
    /// spaces) each produce byte-identical output to a private-bus
    /// run — the drain loop rides out other runs' in-flight publishes
    /// stalling the subscription's contiguous prefix.
    #[test]
    fn concurrent_runs_on_a_shared_transport_match_private_runs() {
        use crate::topology::Figure1;
        let instances = 4usize;
        let traces: Vec<Vec<TracePacket>> =
            (0..instances).map(|i| trace(60, 40 + i as u64)).collect();
        let topos: Vec<_> = (0..instances)
            .map(|i| Figure1::numbered(i).build())
            .collect();
        let cfg = quick_cfg();
        let private: Vec<PathRun> = (0..instances)
            .map(|i| run_path(&traces[i], &topos[i], &cfg))
            .collect();
        let shared = vpm_wire::ShardedBus::new(8);
        let mut runs: Vec<Option<PathRun>> = (0..instances).map(|_| None).collect();
        std::thread::scope(|s| {
            for (i, slot) in runs.iter_mut().enumerate() {
                let (traces, topos, cfg, shared) = (&traces, &topos, &cfg, &shared);
                s.spawn(move || {
                    *slot =
                        Some(run_path_with_transport(&traces[i], &topos[i], cfg, shared).unwrap());
                });
            }
        });
        for (i, (a, b)) in private.iter().zip(&runs).enumerate() {
            let b = b.as_ref().expect("run completed");
            assert_eq!(a.trace_len, b.trace_len, "instance {i}");
            for (ha, hb) in a.hops.iter().zip(&b.hops) {
                assert_eq!(ha.hop, hb.hop, "instance {i}");
                assert_eq!(ha.batch, hb.batch, "instance {i}");
                assert_eq!(ha.samples, hb.samples, "instance {i}");
                assert_eq!(ha.aggregates, hb.aggregates, "instance {i}");
            }
        }
    }

    /// What a [`FaultyTransport`] does to the run driving it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        /// Publishes land but never come back: `poll` is empty and
        /// `wait` times out — what a global stream looks like behind a
        /// publisher that claimed a sequence number and died (the bus
        /// itself pins that in `vpm-wire`'s
        /// `a_claimed_but_never_inserted_seq_does_not_ready_a_wait`).
        NeverDelivers,
        /// Every fallible operation fails with a connection error —
        /// the shape a dead `vpm serve` endpoint presents.
        RefusesAll,
    }

    /// Delegates to a real [`ShardedBus`] except where `fault` bites.
    struct FaultyTransport {
        inner: ShardedBus,
        fault: Fault,
    }

    impl FaultyTransport {
        fn new(fault: Fault) -> Self {
            FaultyTransport {
                inner: ShardedBus::new(4),
                fault,
            }
        }

        /// `Err(Connection)` under [`Fault::RefusesAll`], else `op`.
        fn unless_refused<T>(
            &self,
            op: impl FnOnce(&ShardedBus) -> Result<T, TransportError>,
        ) -> Result<T, TransportError> {
            match self.fault {
                Fault::RefusesAll => Err(TransportError::Connection("refused by test".into())),
                Fault::NeverDelivers => op(&self.inner),
            }
        }
    }

    impl ReceiptTransport for FaultyTransport {
        fn register_key(&self, hop: HopId, key: HopKey) -> Result<KeyEpoch, TransportError> {
            self.unless_refused(|b| b.register_key(hop, key))
        }
        fn rotate_key(&self, hop: HopId, new_key: HopKey) -> Result<KeyEpoch, TransportError> {
            self.unless_refused(|b| b.rotate_key(hop, new_key))
        }
        fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch> {
            self.inner.key_epoch(hop)
        }
        fn publish(
            &self,
            domain: DomainId,
            frame: WireFrame,
            on_path: Vec<DomainId>,
        ) -> Result<u64, TransportError> {
            self.unless_refused(|b| b.publish(domain, frame, on_path))
        }
        fn fetch(
            &self,
            requester: DomainId,
            hop: HopId,
        ) -> Result<Vec<Arc<Published>>, TransportError> {
            self.unless_refused(|b| b.fetch(requester, hop))
        }
        fn fetch_path(
            &self,
            requester: DomainId,
            path: &PathId,
        ) -> Result<Vec<Arc<Published>>, TransportError> {
            self.unless_refused(|b| b.fetch_path(requester, path))
        }
        fn subscribe(&self, requester: DomainId) -> SubscriptionId {
            self.inner.subscribe(requester)
        }
        fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId {
            self.inner.subscribe_path(requester, path)
        }
        fn subscribe_from(
            &self,
            requester: DomainId,
            from_seq: u64,
        ) -> Result<SubscriptionId, TransportError> {
            self.unless_refused(|b| b.subscribe_from(requester, from_seq))
        }
        fn poll(&self, _: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError> {
            self.unless_refused(|_| Ok(Vec::new()))
        }
        fn wait(&self, _: SubscriptionId, _: Duration) -> Result<WaitOutcome, TransportError> {
            self.unless_refused(|_| Ok(WaitOutcome::TimedOut))
        }
        fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError> {
            self.inner.unsubscribe(sub)
        }
        fn subscriptions(&self) -> usize {
            self.inner.subscriptions()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    /// A stream that never delivers this run's frames — the classic
    /// cause being a publisher that claimed a global sequence number
    /// and died before inserting — must not hang the drain: it is
    /// bounded by `wait`, surfaces a typed [`RunError::DrainTimeout`],
    /// and the failed run still releases its subscription.
    #[test]
    fn a_publisher_that_claims_a_seq_and_dies_times_out_instead_of_hanging() {
        let t = trace(60, 33);
        let topo = Figure1::ideal().build();
        let mut cfg = quick_cfg();
        cfg.drain_timeout = Duration::from_millis(200);
        let transport = FaultyTransport::new(Fault::NeverDelivers);
        let started = Instant::now();
        let err = run_path_with_transport(&t, &topo, &cfg, &transport).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the drain must be bounded, not a hang"
        );
        match err {
            RunError::DrainTimeout {
                collected,
                expected,
                waited,
            } => {
                assert_eq!(collected, 0);
                assert_eq!(expected, topo.hops().len());
                assert_eq!(waited, Duration::from_millis(200));
            }
            other => panic!("expected DrainTimeout, got {other:?}"),
        }
        assert_eq!(
            transport.inner.len(),
            topo.hops().len(),
            "every publish landed; only delivery failed"
        );
        assert_eq!(
            transport.inner.subscriptions(),
            0,
            "a failed run must not leak its subscription"
        );
    }

    /// One row per [`RunError`] variant: the fault that provokes it
    /// through `run_path_with_transport`. The `match` has no `_` arm,
    /// so a new variant does not compile until it gets a row.
    #[test]
    fn every_run_error_variant_is_reachable() {
        let (t, topo) = (trace(20, 11), Figure1::ideal().build());
        let mut cfg = quick_cfg();
        cfg.drain_timeout = Duration::from_millis(50);
        for fault in [Fault::NeverDelivers, Fault::RefusesAll] {
            let transport = FaultyTransport::new(fault);
            let err = run_path_with_transport(&t, &topo, &cfg, &transport).unwrap_err();
            let row = match err {
                RunError::DrainTimeout { .. } => Fault::NeverDelivers,
                RunError::Transport(_) => Fault::RefusesAll,
            };
            assert_eq!(row, fault, "{err:?}");
        }
    }

    /// A transport that refuses the very first operation surfaces as a
    /// typed [`RunError::Transport`] — the run does not panic, retry,
    /// or misreport the failure as a drain timeout.
    #[test]
    fn a_refusing_transport_is_a_typed_run_error() {
        let t = trace(20, 11);
        let topo = Figure1::ideal().build();
        let transport = FaultyTransport::new(Fault::RefusesAll);
        let err = run_path_with_transport(&t, &topo, &quick_cfg(), &transport).unwrap_err();
        match err {
            RunError::Transport(TransportError::Connection(msg)) => {
                assert_eq!(msg, "refused by test");
            }
            other => panic!("expected Transport(Connection), got {other:?}"),
        }
        assert_eq!(transport.inner.subscriptions(), 0);
    }

    #[test]
    fn lossy_domain_shrinks_stream() {
        let t = trace(200, 2);
        let mut fig = Figure1::ideal();
        fig.x_transit = ChannelConfig {
            delay: DelayModel::Constant(SimDuration::from_millis(1)),
            loss: Some((0.2, 5.0)),
            reorder: ReorderModel::none(),
            seed: 7,
        };
        let run = run_path(&t, &fig.build(), &quick_cfg());
        let x = run.truth("X").unwrap();
        let loss = 1.0 - x.delivered as f64 / x.sent as f64;
        assert!((loss - 0.2).abs() < 0.05, "loss {loss}");
        // Downstream HOPs observe fewer packets.
        assert!(run.hop(HopId(5)).unwrap().observed < run.hop(HopId(4)).unwrap().observed);
        assert_eq!(
            run.hop(HopId(5)).unwrap().observed,
            run.hop(HopId(8)).unwrap().observed
        );
    }

    #[test]
    fn estimates_recover_truth_on_ideal_path() {
        let t = trace(300, 3);
        let run = run_path(&t, &Figure1::ideal().build(), &quick_cfg());
        let v = vpm_core::verify::Verifier::default();
        let h4 = run.hop(HopId(4)).unwrap();
        let h5 = run.hop(HopId(5)).unwrap();
        let est = v.estimate_domain(&h4.samples, &h4.aggregates, &h5.samples, &h5.aggregates);
        assert_eq!(est.loss.rate().unwrap_or(1.0), 0.0, "no loss in X");
        let delay = est.delay.expect("matched samples exist");
        for q in &delay.quantiles {
            assert!((q.value - 0.1).abs() < 0.01, "transit 100µs, got {q:?}");
        }
    }

    #[test]
    fn marker_dropper_desyncs_sampling() {
        let t = trace(200, 4);
        let topo = Figure1::ideal().build();
        let clean = run_path(&t, &topo, &quick_cfg());
        let mut cfg = quick_cfg();
        cfg.marker_dropper = Some(topo.domain_by_name("X").unwrap().id);
        let attacked = run_path(&t, &topo, &cfg);
        // Downstream of X (HOP 6), the sample yield matched against HOP 4
        // collapses compared to the clean run.
        let matched = |run: &PathRun| {
            vpm_core::verify::match_samples(
                &run.hop(HopId(4)).unwrap().samples,
                &run.hop(HopId(6)).unwrap().samples,
            )
            .len()
        };
        let m_clean = matched(&clean);
        let m_attacked = matched(&attacked);
        assert!(
            (m_attacked as f64) < 0.7 * m_clean as f64,
            "clean {m_clean} vs attacked {m_attacked}"
        );
        // But markers are *expected* receipts: HOP 4 sampled markers that
        // HOP 6 never reports — standing evidence against X (§5.3).
        let h4 = &attacked.hop(HopId(4)).unwrap().samples;
        let h6_ids: std::collections::HashSet<_> = attacked
            .hop(HopId(6))
            .unwrap()
            .samples
            .iter()
            .map(|r| r.pkt_id)
            .collect();
        let marker = Threshold::from_rate(0.01);
        let vanished_markers = h4
            .iter()
            .filter(|r| marker.passes(r.pkt_id.0) && !h6_ids.contains(&r.pkt_id))
            .count();
        assert!(vanished_markers > 0);
    }

    #[test]
    fn ntp_clocks_still_yield_usable_delays() {
        let t = trace(200, 5);
        let mut cfg = quick_cfg();
        cfg.clocks = ClockMode::NtpGrade;
        let run = run_path(&t, &Figure1::ideal().build(), &cfg);
        let v = vpm_core::verify::Verifier::default();
        let h4 = run.hop(HopId(4)).unwrap();
        let h5 = run.hop(HopId(5)).unwrap();
        let matched = vpm_core::verify::match_samples(&h4.samples, &h5.samples);
        let est = v.estimate_delay(&matched).unwrap();
        // Transit is 100µs; NTP-grade offsets can push readings around by
        // ~±1 ms but not more.
        for q in &est.quantiles {
            assert!(q.value.abs() < 1.5, "{q:?}");
        }
    }
}
