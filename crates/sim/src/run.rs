//! The data plane of a path run, and what a run leaves behind.
//!
//! `simulate` pushes a trace along a [`Topology`]: every HOP observes
//! the stream through its (possibly imperfect) clock and feeds its VPM
//! pipeline; every transit domain and inter-domain link transforms the
//! stream (delay / loss / reordering, and the forwarding [`Lie`]s of
//! the domains that tell one) on the way. It retains ground truth (true
//! per-domain delays and losses) so experiments can score the
//! receipt-derived estimates against reality. Each HOP's final batch
//! comes back with its key, which [`crate::Scenario::run`] lets the HOP
//! sign and publish; the published batches make up the [`PathRun`].

use std::borrow::Cow;
use std::collections::HashMap;
use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::{PathId, SampleRecord};
use vpm_core::{HopConfig, HopPipeline, Ingest};
use vpm_hash::{Digest, HopKey, KeyEpoch, Threshold};
use vpm_netsim::channel::{apply, arrivals, ChannelConfig};
use vpm_netsim::clock::HopClock;
use vpm_packet::{DomainId, HopId, SimDuration, SimTime};
use vpm_trace::TracePacket;

use crate::adversary::Lie;
use crate::topology::{DomainRole, Topology};
use crate::verdict::concat;

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

/// How the HOPs of a run are configured.
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
    /// Seed for clock randomness.
    pub seed: u64,
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
            seed: 0,
        }
    }
}

/// What one HOP published during a run.
#[derive(Debug, Clone)]
pub struct HopOutput {
    /// The HOP.
    pub hop: HopId,
    /// Its domain.
    pub domain: DomainId,
    /// The `PathID` its receipts carry.
    pub path: PathId,
    /// The receipts it signed and published, as published.
    pub batch: ReceiptBatch,
    /// Packets this HOP observed.
    pub observed: usize,
    /// The key epoch its frames were published (and verified) under.
    pub key_epoch: KeyEpoch,
}

impl HopOutput {
    /// The sample records, in observation order: read in place from
    /// the batch's one sample receipt, copied only when it holds
    /// several.
    pub fn samples(&self) -> Cow<'_, [SampleRecord]> {
        concat(self.batch.samples.iter().map(|r| r.samples.as_slice()))
    }
}

/// One HOP's final batch before it is signed, with the key that signs
/// it. Receipt lies rewrite `batch` here.
#[derive(Debug, Clone)]
pub(crate) struct Report {
    pub(crate) hop: HopId,
    pub(crate) domain: DomainId,
    pub(crate) path: PathId,
    pub(crate) batch: ReceiptBatch,
    pub(crate) observed: usize,
    pub(crate) key: HopKey,
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

/// A simulated path before its HOPs publish.
#[derive(Debug, Clone)]
pub(crate) struct Simulation {
    /// Every HOP's final batch, in path order.
    pub(crate) reports: Vec<Report>,
    /// Ground truth per transit domain, in path order.
    pub(crate) truths: Vec<DomainTruth>,
    /// Packets injected at the path head.
    pub(crate) trace_len: usize,
}

/// Push `trace` through `topology` under `cfg`, with the forwarding
/// `lies` applied (receipt lies are the publisher's business).
pub(crate) fn simulate(
    trace: &[TracePacket],
    topology: &Topology,
    cfg: &RunConfig,
    lies: &[Lie],
) -> Simulation {
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
    let mut pipelines: HashMap<HopId, (HopPipeline, HopClock, PathId, DomainId)> = HashMap::new();
    for (hop, path) in topology.hop_path_ids() {
        let Some(dom) = topology.domain_of(hop) else {
            continue;
        };
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
        pipelines.insert(hop, (pipe, clock, path, dom.id));
    }

    // Batched data plane: read the clock per packet, then push
    // ring-sized, pre-classified, pre-digested batches through the
    // collector's amortized hot path (byte-identical to per-packet
    // observation, measurably faster, O(batch) transient memory).
    const OBSERVE_BATCH: usize = 4096;
    let mut batch: Vec<(usize, Digest, SimTime)> = Vec::with_capacity(OBSERVE_BATCH);
    let mut observed: HashMap<HopId, usize> = HashMap::new();
    let mut observe = |hop: HopId, stream: &Stream| {
        observed.insert(hop, stream.len());
        let Some((pipe, clock, _, _)) = pipelines.get_mut(&hop) else {
            return;
        };
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
    let guess = Threshold::from_rate(cfg.sampling_rate);
    let mut stream: Stream = trace.iter().enumerate().map(|(i, tp)| (i, tp.ts)).collect();
    let mut truths = Vec::new();
    for (d_idx, dom) in topology.domains.iter().enumerate() {
        if let Some(ingress) = dom.ingress {
            observe(ingress, &stream);
        }
        if dom.role == DomainRole::Transit {
            let sent = stream.len() as u64;
            let channel = Lie::transit(lies, &dom.name, &dom.transit, &digests, guess);
            let (mut next, mut delays_ms) = transform(&stream, &channel);
            if Lie::drops_markers(lies, &dom.name) {
                next = drop_markers(&next, &digests, marker);
                delays_ms = Vec::new(); // no longer aligned with the survivors
            }
            truths.push(DomainTruth {
                domain: dom.id,
                name: dom.name.clone(),
                sent,
                delivered: next.len() as u64,
                delays_ms,
            });
            stream = next;
        }
        if let Some(egress) = dom.egress {
            observe(egress, &stream);
        }
        // Inter-domain link to the next domain.
        if let Some(link) = topology.links.get(d_idx) {
            stream = transform(&stream, &link.channel).0;
        }
    }

    let reports = topology
        .hops()
        .into_iter()
        .filter_map(|hop| {
            let (mut pipe, _, path, domain) = pipelines.remove(&hop)?;
            Some(Report {
                hop,
                domain,
                path,
                key: pipe.processor.hop_key(),
                batch: pipe.final_report(),
                observed: observed.get(&hop).copied().unwrap_or(0),
            })
        })
        .collect();
    Simulation {
        reports,
        truths,
        trace_len: trace.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Lie;
    use crate::scenario::Scenario;
    use crate::topology::Figure1;
    use std::sync::Arc;
    use std::time::Duration;
    use vpm_netsim::channel::DelayModel;
    use vpm_netsim::reorder::ReorderModel;
    use vpm_wire::{
        Published, ReceiptTransport, ShardedBus, SubscriptionId, TransportError, WaitOutcome,
        WireFrame,
    };

    /// The ideal Figure 1 under a `ms`-long trace of `seed`.
    fn ideal(ms: u64, seed: u64) -> Scenario {
        Scenario::quick(Figure1::ideal().build(), ms, seed, vec![])
    }

    #[test]
    fn ideal_run_all_hops_see_everything() {
        let (run, _) = ideal(200, 1).evaluate();
        assert_eq!(run.hops.len(), 8);
        for h in &run.hops {
            assert_eq!(h.observed, run.trace_len, "{} observed", h.hop);
            assert!(!h.samples().is_empty());
            assert!(!h.batch.aggregates.is_empty());
        }
        for truth in &run.truths {
            assert_eq!(truth.sent, truth.delivered, "{}", truth.name);
        }
    }

    /// What a run returns is what its HOPs signed: each batch
    /// re-signs-and-encodes under its HOP's key to the very frame the
    /// transport holds, and decodes back from it bit for bit.
    #[test]
    fn run_receipts_round_trip_the_wire_codec_losslessly() {
        let transport = ShardedBus::new(1);
        let run = ideal(150, 21).run(&transport).unwrap();
        assert_eq!(transport.len(), run.hops.len());
        for h in &run.hops {
            let published = transport.fetch(h.domain, h.hop).unwrap();
            assert_eq!(published.len(), 1);
            assert_eq!(published[0].epoch, h.key_epoch);
            assert_eq!(published[0].batch, h.batch);
            let re = vpm_wire::WireEncoder::precise()
                .encode_signed(
                    &h.batch,
                    &vpm_core::processor::default_hop_key(h.hop),
                    h.key_epoch,
                )
                .unwrap();
            assert_eq!(
                re, published[0].frame,
                "the batch must re-sign-and-encode to the published bytes"
            );
        }
    }

    /// The shard count is invisible to the result: the same scenario
    /// through the single-lock store and through wider sharded buses
    /// yields identical outputs.
    #[test]
    fn path_run_is_identical_across_transports_and_shard_counts() {
        let scenario = ideal(150, 22);
        let baseline = scenario.run(&ShardedBus::new(1)).unwrap();
        for shards in [4, 16] {
            let run = scenario.run(&ShardedBus::new(shards)).unwrap();
            assert_eq!(run.trace_len, baseline.trace_len);
            for (a, b) in baseline.hops.iter().zip(&run.hops) {
                assert_eq!(a.hop, b.hop, "{shards} shards");
                assert_eq!(a.batch, b.batch, "{shards} shards");
            }
        }
    }

    /// Concurrent runs on one shared bus (disjoint HOP/domain id
    /// spaces) each produce byte-identical output to a private-bus
    /// run, and every HOP's frame lands once.
    #[test]
    fn concurrent_runs_on_a_shared_transport_match_private_runs() {
        let scenarios: Vec<Scenario> = (0..4)
            .map(|i| Scenario::quick(Figure1::numbered(i).build(), 60, 40 + i as u64, vec![]))
            .collect();
        let private: Vec<PathRun> = scenarios.iter().map(|s| s.evaluate().0).collect();
        let shared = ShardedBus::new(8);
        let runs: Vec<PathRun> = std::thread::scope(|s| {
            let handles: Vec<_> = scenarios
                .iter()
                .map(|scenario| s.spawn(|| scenario.run(&shared).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(shared.len(), 4 * 8);
        for (i, (a, b)) in private.iter().zip(&runs).enumerate() {
            assert_eq!(a.trace_len, b.trace_len, "instance {i}");
            for (ha, hb) in a.hops.iter().zip(&b.hops) {
                assert_eq!(ha.hop, hb.hop, "instance {i}");
                assert_eq!(ha.batch, hb.batch, "instance {i}");
            }
        }
    }

    /// Every fallible operation fails with a connection error: the
    /// shape a dead `vpm serve` endpoint presents.
    struct RefusingTransport(ShardedBus);

    fn refused<T>() -> Result<T, TransportError> {
        Err(TransportError::Connection("refused by test".into()))
    }

    impl ReceiptTransport for RefusingTransport {
        fn register_key(&self, _: HopId, _: HopKey) -> Result<KeyEpoch, TransportError> {
            refused()
        }
        fn rotate_key(&self, _: HopId, _: HopKey) -> Result<KeyEpoch, TransportError> {
            refused()
        }
        fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch> {
            self.0.key_epoch(hop)
        }
        fn publish(
            &self,
            _: DomainId,
            _: WireFrame,
            _: Vec<DomainId>,
        ) -> Result<u64, TransportError> {
            refused()
        }
        fn fetch(&self, _: DomainId, _: HopId) -> Result<Vec<Arc<Published>>, TransportError> {
            refused()
        }
        fn fetch_path(
            &self,
            _: DomainId,
            _: &PathId,
        ) -> Result<Vec<Arc<Published>>, TransportError> {
            refused()
        }
        fn subscribe(&self, requester: DomainId) -> SubscriptionId {
            self.0.subscribe(requester)
        }
        fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId {
            self.0.subscribe_path(requester, path)
        }
        fn subscribe_from(&self, _: DomainId, _: u64) -> Result<SubscriptionId, TransportError> {
            refused()
        }
        fn poll(&self, _: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError> {
            refused()
        }
        fn wait(&self, _: SubscriptionId, _: Duration) -> Result<WaitOutcome, TransportError> {
            refused()
        }
        fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError> {
            self.0.unsubscribe(sub)
        }
        fn subscriptions(&self) -> usize {
            self.0.subscriptions()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// A transport that refuses the very first operation surfaces as a
    /// typed [`TransportError`]: the run does not panic or retry.
    #[test]
    fn a_refusing_transport_is_a_typed_run_error() {
        let transport = RefusingTransport(ShardedBus::new(1));
        match ideal(20, 11).run(&transport) {
            Err(TransportError::Connection(msg)) => assert_eq!(msg, "refused by test"),
            other => panic!("expected Connection, got {other:?}"),
        }
        assert!(transport.0.is_empty());
    }

    #[test]
    fn lossy_domain_shrinks_stream() {
        let mut fig = Figure1::ideal();
        fig.x_transit = ChannelConfig {
            delay: DelayModel::Constant(SimDuration::from_millis(1)),
            loss: Some((0.2, 5.0)),
            reorder: ReorderModel::none(),
            seed: 7,
        };
        let (run, _) = Scenario::quick(fig.build(), 200, 2, vec![]).evaluate();
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
        let (run, _) = ideal(300, 3).evaluate();
        let v = vpm_core::verify::Verifier::default();
        let h4 = run.hop(HopId(4)).unwrap();
        let h5 = run.hop(HopId(5)).unwrap();
        let est = v.estimate_domain(
            &h4.samples(),
            &h4.batch.aggregates,
            &h5.samples(),
            &h5.batch.aggregates,
        );
        assert_eq!(est.loss.rate().unwrap_or(1.0), 0.0, "no loss in X");
        let delay = est.delay.expect("matched samples exist");
        for q in &delay.quantiles {
            assert!((q.value - 0.1).abs() < 0.01, "transit 100µs, got {q:?}");
        }
    }

    #[test]
    fn marker_dropper_desyncs_sampling() {
        let clean = ideal(200, 4);
        let attacked = Scenario {
            lies: vec![Lie::MarkerDrop { liar: "X" }],
            ..clean.clone()
        };
        let (clean, attacked) = (clean.evaluate().0, attacked.evaluate().0);
        // Downstream of X (HOP 6), the sample yield matched against HOP 4
        // collapses compared to the clean run.
        let matched = |run: &PathRun| {
            vpm_core::verify::match_samples(
                &run.hop(HopId(4)).unwrap().samples(),
                &run.hop(HopId(6)).unwrap().samples(),
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
        let h6_ids: std::collections::HashSet<_> = attacked
            .hop(HopId(6))
            .unwrap()
            .samples()
            .iter()
            .map(|r| r.pkt_id)
            .collect();
        let marker = Threshold::from_rate(0.01);
        let vanished_markers = attacked
            .hop(HopId(4))
            .unwrap()
            .samples()
            .iter()
            .filter(|r| marker.passes(r.pkt_id.0) && !h6_ids.contains(&r.pkt_id))
            .count();
        assert!(vanished_markers > 0);
    }

    #[test]
    fn ntp_clocks_still_yield_usable_delays() {
        let mut scenario = ideal(200, 5);
        scenario.config.clocks = ClockMode::NtpGrade;
        let (run, _) = scenario.evaluate();
        let v = vpm_core::verify::Verifier::default();
        let h4 = run.hop(HopId(4)).unwrap();
        let h5 = run.hop(HopId(5)).unwrap();
        let matched = vpm_core::verify::match_samples(&h4.samples(), &h5.samples());
        let est = v.estimate_delay(&matched).unwrap();
        // Transit is 100µs; NTP-grade offsets can push readings around by
        // ~±1 ms but not more.
        for q in &est.quantiles {
            assert!(q.value.abs() < 1.5, "{q:?}");
        }
    }
}
