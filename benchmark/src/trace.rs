//! In-memory span tracer and the transport wrapper that records a
//! span at every `ReceiptTransport` call.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the crates under test is
//! instrumented. A span is `{id, parent, thread, phase, layer, kind,
//! name, start_ns, end_ns, items, bytes}`. Each thread keeps its own
//! open-span stack (the parent of a new span is the innermost open
//! span of the same thread) and its own finished list, moved to the
//! process-wide sink whenever a root span closes. With tracing disabled
//! a span costs one relaxed atomic load and records nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::PathId;
use vpm_hash::{HopKey, KeyEpoch};
use vpm_packet::{DomainId, HopId};
use vpm_wire::{
    CompactionReport, IntervalSummary, Profile, Published, ReceiptTransport, SubscriptionId,
    TransportError, WaitOutcome, WireDecoder, WireEncoder, WireFrame,
};

/// The layers of the pipeline, named after the modules they live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The harness's own cost (generation, pacing, oracles, glue).
    Bench,
    /// `vpm_packet`: digest-input extraction.
    Packet,
    /// `vpm_hash`: lookup3 digests and HMAC-SHA-256.
    Hash,
    /// `vpm_core::collector`: classify + single-core ingest.
    CoreCollector,
    /// `vpm_core::sharded`: the multi-core ingest plane.
    CoreSharded,
    /// `vpm_core::processor`: `report`.
    CoreProcessor,
    /// `vpm_wire::codec`: encode+sign, decode, MAC verification.
    WireCodec,
    /// `vpm_wire::transport`: the in-process bus.
    WireTransport,
    /// `vpm_wire::net`: the TCP client (server time included: it is a
    /// round trip seen from the client).
    WireNet,
    /// `vpm_wire::checkpoint`: auditor checkpoint encode / restore.
    WireCheckpoint,
    /// `vpm_core::verify`: match, join, estimate, link check.
    CoreVerify,
    /// `vpm_sim::verdict` / `vpm_sim::fleet`: per-path analysis.
    SimVerdict,
    /// `vpm_sim::audit`: the streaming auditor and its workload.
    SimAudit,
}

impl Layer {
    /// Every layer, `Bench` first.
    pub const ALL: [Layer; 13] = [
        Layer::Bench,
        Layer::Packet,
        Layer::Hash,
        Layer::CoreCollector,
        Layer::CoreSharded,
        Layer::CoreProcessor,
        Layer::WireCodec,
        Layer::WireTransport,
        Layer::WireNet,
        Layer::WireCheckpoint,
        Layer::CoreVerify,
        Layer::SimVerdict,
        Layer::SimAudit,
    ];

    /// The layer's metric prefix (the module name).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Packet => "packet",
            Layer::Hash => "hash",
            Layer::CoreCollector => "core.collector",
            Layer::CoreSharded => "core.sharded",
            Layer::CoreProcessor => "core.processor",
            Layer::WireCodec => "wire.codec",
            Layer::WireTransport => "wire.transport",
            Layer::WireNet => "wire.net",
            Layer::WireCheckpoint => "wire.checkpoint",
            Layer::CoreVerify => "core.verify",
            Layer::SimVerdict => "sim.verdict",
            Layer::SimAudit => "sim.audit",
        }
    }
}

/// How a span's time counts in the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The thread was doing the layer's work.
    Busy,
    /// The thread was parked (a `wait`, a paced sleep, a join).
    Blocked,
    /// An extra call made only in the traced pass to split a span the
    /// harness cannot see inside; charged to no layer.
    Shadow,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (thread index in the high bits).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Index of the recording thread.
    pub thread: u32,
    /// Workload phase the span started in (see [`set_phase`]).
    pub phase: u8,
    /// Layer the call went into.
    pub layer: Layer,
    /// Busy, blocked or shadow.
    pub kind: Kind,
    /// Call name within the layer.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Items the call handled (packets, frames, paths, entries).
    pub items: u64,
    /// Bytes the call handled.
    pub bytes: u64,
    /// Calls this span stands for: 1, or `n` when the recorder keeps
    /// one call in `n` (see [`TracedTransport::sampled`]). Folds count
    /// a span's duration, items and bytes `weight` times.
    pub weight: u32,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration times weight: the time of the calls it stands for.
    pub fn weighted_ns(&self) -> u64 {
        self.dur_ns() * u64::from(self.weight)
    }
}

/// Counts a span's body reports once the work is done.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Items handled.
    pub items: u64,
    /// Bytes handled.
    pub bytes: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PHASE: AtomicU8 = AtomicU8::new(0);
static THREADS: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

struct Local {
    thread: u32,
    next: u64,
    open: Vec<Span>,
    done: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: THREADS.fetch_add(1, Ordering::Relaxed) + 1,
        next: 0,
        open: Vec::new(),
        done: Vec::new(),
    });
}

/// Nanoseconds since the tracer's epoch (first use in the process).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is span recording on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag every span started from now on with `phase`.
pub fn set_phase(phase: u8) {
    PHASE.store(phase, Ordering::Relaxed);
}

/// Run `f` inside a busy span of `layer`.
pub fn span<R>(layer: Layer, name: &'static str, f: impl FnOnce(&mut Counts) -> R) -> R {
    span_kind(layer, Kind::Busy, name, f)
}

/// Run `f` inside a span of the given kind.
pub fn span_kind<R>(
    layer: Layer,
    kind: Kind,
    name: &'static str,
    f: impl FnOnce(&mut Counts) -> R,
) -> R {
    span_weighted(layer, kind, name, 1, f)
}

/// Run `f` inside a span that stands for `weight` calls like it.
pub fn span_weighted<R>(
    layer: Layer,
    kind: Kind,
    name: &'static str,
    weight: u32,
    f: impl FnOnce(&mut Counts) -> R,
) -> R {
    let mut counts = Counts::default();
    if !enabled() {
        return f(&mut counts);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.next += 1;
        let id = (u64::from(l.thread) << 40) | l.next;
        let parent = l.open.last().map_or(0, |s| s.id);
        let thread = l.thread;
        l.open.push(Span {
            id,
            parent,
            thread,
            phase: PHASE.load(Ordering::Relaxed),
            layer,
            kind,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            items: 0,
            bytes: 0,
            weight,
        });
    });
    let out = f(&mut counts);
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(mut s) = l.open.pop() {
            s.end_ns = end;
            s.items = counts.items;
            s.bytes = counts.bytes;
            l.done.push(s);
        }
        // A root span has closed: move the thread's finished spans to
        // the process-wide sink. A thread the benchmark did not start
        // (a library worker calling the traced transport) never gets
        // another chance, and a scoped thread's locals may be destroyed
        // after its scope has returned, so a destructor cannot do it.
        if l.open.is_empty() {
            SINK.lock()
                .expect("no span recorder panics holding the sink")
                .append(&mut l.done);
        }
    });
    out
}

/// Take every finished span, ordered by start time. Call it with no
/// span open.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SINK
            .lock()
            .expect("no span recorder panics holding the sink"),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of every span: its duration minus the part of it its
/// child spans cover. Children of one parent run one after another on
/// the parent's thread, so the covered part is the sum of their
/// durations — each counted `weight` times, which for a sampled child
/// estimates the time of the siblings that were not recorded.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.weighted_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(c))
        })
        .collect()
}

/// Totals of every span sharing a `(layer, name)`.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    /// Spans folded in.
    pub count: u64,
    /// Sum of durations, ns.
    pub dur_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of items.
    pub items: u64,
    /// Sum of bytes.
    pub bytes: u64,
}

impl Agg {
    /// Mean duration per span, µs (0 with no spans).
    pub fn us_per_call(&self) -> f64 {
        ratio(self.dur_ns as f64 / 1e3, self.count as f64)
    }

    /// Mean duration per item, ns (0 with no items).
    pub fn ns_per_item(&self) -> f64 {
        ratio(self.dur_ns as f64, self.items as f64)
    }

    /// Bytes per second over the spans' durations, in MB/s.
    pub fn mb_per_s(&self) -> f64 {
        ratio(self.bytes as f64 * 1e3, self.dur_ns as f64)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload bypasses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced pass, folded: per-`(layer, name)` totals, per-layer
/// busy self time, and per-thread busy / blocked / shadow time.
#[derive(Debug, Default)]
pub struct Summary {
    /// Totals per `(layer, name)`.
    pub calls: HashMap<(Layer, &'static str), Agg>,
    /// Busy self time per layer, ns.
    pub layer_busy_ns: HashMap<Layer, u64>,
    /// Per thread: (busy, blocked, shadow) self time, ns.
    pub threads: HashMap<u32, (u64, u64, u64)>,
}

impl Summary {
    /// Fold the spans of the given phases (all phases when empty);
    /// `selfs` is [`self_times`] of the same spans.
    pub fn of(spans: &[Span], selfs: &HashMap<u64, u64>, phases: &[u8]) -> Summary {
        let mut out = Summary::default();
        for s in spans {
            if !phases.is_empty() && !phases.contains(&s.phase) {
                continue;
            }
            let w = u64::from(s.weight);
            let self_ns = selfs.get(&s.id).copied().unwrap_or(0) * w;
            let a = out.calls.entry((s.layer, s.name)).or_default();
            a.count += w;
            a.dur_ns += s.weighted_ns();
            a.self_ns += self_ns;
            a.items += s.items * w;
            a.bytes += s.bytes * w;
            let t = out.threads.entry(s.thread).or_default();
            match s.kind {
                Kind::Busy => {
                    t.0 += self_ns;
                    *out.layer_busy_ns.entry(s.layer).or_default() += self_ns;
                }
                Kind::Blocked => t.1 += self_ns,
                Kind::Shadow => t.2 += self_ns,
            }
        }
        out
    }

    /// Count `ns` of `from`'s busy time as `to`'s: for a span that
    /// covers two layers' work and whose split is measured elsewhere.
    pub fn move_busy(&mut self, from: Layer, to: Layer, ns: u64) {
        let have = self.layer_busy_ns.entry(from).or_default();
        let ns = ns.min(*have);
        *have -= ns;
        *self.layer_busy_ns.entry(to).or_default() += ns;
    }

    /// Totals of one call (zeroes when the workload never made it).
    pub fn call(&self, layer: Layer, name: &'static str) -> Agg {
        self.calls.get(&(layer, name)).cloned().unwrap_or_default()
    }

    /// Share of all busy self time that `layer` holds. On the
    /// two-thread workloads the busy time of both threads is pooled;
    /// blocked and shadow time is in neither numerator nor
    /// denominator.
    pub fn layer_share(&self, layer: Layer) -> f64 {
        let total: u64 = self.layer_busy_ns.values().sum();
        ratio(
            self.layer_busy_ns.get(&layer).copied().unwrap_or(0) as f64,
            total as f64,
        )
    }
}

/// Durations (µs) of every span of one call, for percentiles.
pub fn durations_us(spans: &[Span], layer: Layer, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Shadow calls run on one frame in this many.
const SHADOW_EVERY: u64 = 64;

/// Counters a [`TracedTransport`] keeps whether or not spans are
/// recorded; the oracles read them in both passes.
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// `publish`/`publish_batch` calls that returned an error.
    pub publish_refused: AtomicU64,
    /// Frames accepted by `publish`/`publish_batch`.
    pub published_frames: AtomicU64,
    /// `poll` calls.
    pub polls: AtomicU64,
    /// `poll` calls that returned no entry.
    pub empty_polls: AtomicU64,
    /// Entries returned by `poll`, `fetch` and `fetch_path`.
    pub delivered_entries: AtomicU64,
    /// Frame bytes of those entries.
    pub delivered_bytes: AtomicU64,
    /// `wait` calls that timed out.
    pub wait_timeouts: AtomicU64,
    /// Calls that failed with a connection or protocol error.
    pub connection_errors: AtomicU64,
    /// Highest `len()` seen by [`TracedTransport::note_retained`].
    pub retained_peak: AtomicU64,
}

/// A `ReceiptTransport` that delegates every method to `inner` and
/// records one span per call, so code written against the trait
/// (`analyze_from_transport_scoped`, `Auditor::drain`,
/// `publish_interval`, `run_fleet`) is measured at the trait boundary
/// with its transport time as child spans.
pub struct TracedTransport<T: ReceiptTransport> {
    inner: T,
    layer: Layer,
    /// Keep one per-frame call in this many (1 = every call).
    sample_every: u32,
    /// Calls seen so far of each per-frame method (see [`Hot`]).
    calls: [AtomicU64; 3],
    keys: Mutex<HashMap<HopId, HopKey>>,
    seen: AtomicU64,
    /// Always-on counters.
    pub counters: TransportCounters,
}

/// The methods a publisher calls once per frame.
#[derive(Clone, Copy)]
enum Hot {
    RegisterKey,
    Publish,
    PublishBatch,
}

impl<T: ReceiptTransport> TracedTransport<T> {
    /// Wrap `inner`; its spans are charged to `layer`
    /// (`WireTransport` for a bus, `WireNet` for a TCP client).
    pub fn new(inner: T, layer: Layer) -> Self {
        TracedTransport {
            inner,
            layer,
            sample_every: 1,
            calls: Default::default(),
            keys: Mutex::new(HashMap::new()),
            seen: AtomicU64::new(0),
            counters: TransportCounters::default(),
        }
    }

    /// Record a span for one in `every` of the calls made once per
    /// frame (`register_key`, `publish`, `publish_batch`), weighted
    /// `every`; every other call keeps its own span. For a workload
    /// whose frames take a few microseconds each, where a span per
    /// call would cost a fifth of the time it measures.
    pub fn sampled(mut self, every: u32) -> Self {
        self.sample_every = every.max(1);
        self
    }

    /// Is this per-frame call one of those that get a span? Each
    /// method counts on its own: the methods alternate, and one shared
    /// counter would always keep the same one.
    fn keep(&self, method: Hot) -> bool {
        enabled()
            && (self.sample_every == 1
                || self.calls[method as usize]
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(u64::from(self.sample_every)))
    }

    /// A span of this transport's layer around a per-frame call, if it
    /// is kept; the bare call otherwise.
    fn traced_hot<R>(
        &self,
        method: Hot,
        name: &'static str,
        f: impl FnOnce(&mut Counts) -> R,
    ) -> R {
        if self.keep(method) {
            span_weighted(self.layer, Kind::Busy, name, self.sample_every, f)
        } else {
            f(&mut Counts::default())
        }
    }

    /// Record the current retained-entry count into the peak.
    pub fn note_retained(&self) {
        self.counters
            .retained_peak
            .fetch_max(self.inner.len() as u64, Ordering::Relaxed);
    }

    fn note_err<R>(&self, r: &Result<R, TransportError>) {
        if matches!(
            r,
            Err(TransportError::Connection(_) | TransportError::Protocol(_))
        ) {
            self.counters
                .connection_errors
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn shadow_due(&self) -> bool {
        enabled()
            && self
                .seen
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(SHADOW_EVERY)
    }

    /// Shadow calls on a frame's bytes: decode, MAC verification, and
    /// the bare HMAC-SHA-256 over the same bytes.
    fn shadow_frame(&self, frame: &WireFrame) {
        let decoded = span_kind(Layer::WireCodec, Kind::Shadow, "decode", |c| {
            c.items = 1;
            c.bytes = frame.len() as u64;
            WireDecoder::decode(frame.as_bytes())
        });
        let Ok(decoded) = decoded else { return };
        let key = self
            .keys
            .lock()
            .expect("no key recorder panics holding the map")
            .get(&decoded.batch.hop)
            .copied();
        let Some(key) = key else { return };
        span_kind(Layer::WireCodec, Kind::Shadow, "verify_mac", |c| {
            c.items = 1;
            c.bytes = frame.len() as u64;
            std::hint::black_box(frame.verify_mac(&key));
        });
        span_kind(Layer::Hash, Kind::Shadow, "hmac_sha256", |c| {
            c.items = 1;
            c.bytes = frame.len() as u64;
            std::hint::black_box(vpm_hash::hmac_sha256(key.as_bytes(), frame.as_bytes()));
        });
    }

    fn note_publish(&self, r: &Result<u64, TransportError>) {
        self.note_err(r);
        let counter = if r.is_ok() {
            &self.counters.published_frames
        } else {
            &self.counters.publish_refused
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count what a read returned; fills the span's counts too.
    fn note_delivery(&self, r: &Result<Vec<Arc<Published>>, TransportError>, c: &mut Counts) {
        if let Ok(entries) = r {
            c.items = entries.len() as u64;
            c.bytes = entries.iter().map(|p| p.frame.len() as u64).sum();
            self.counters
                .delivered_entries
                .fetch_add(c.items, Ordering::Relaxed);
            self.counters
                .delivered_bytes
                .fetch_add(c.bytes, Ordering::Relaxed);
        }
    }
}

impl<T: ReceiptTransport> ReceiptTransport for TracedTransport<T> {
    fn register_key(&self, hop: HopId, key: HopKey) -> Result<KeyEpoch, TransportError> {
        self.keys
            .lock()
            .expect("no key recorder panics holding the map")
            .insert(hop, key);
        let r = self.traced_hot(Hot::RegisterKey, "register_key", |_| {
            self.inner.register_key(hop, key)
        });
        self.note_err(&r);
        r
    }

    fn rotate_key(&self, hop: HopId, new_key: HopKey) -> Result<KeyEpoch, TransportError> {
        self.keys
            .lock()
            .expect("no key recorder panics holding the map")
            .insert(hop, new_key);
        span(self.layer, "rotate_key", |_| {
            self.inner.rotate_key(hop, new_key)
        })
    }

    fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch> {
        span(self.layer, "key_epoch", |_| self.inner.key_epoch(hop))
    }

    fn publish(
        &self,
        domain: DomainId,
        frame: WireFrame,
        on_path: Vec<DomainId>,
    ) -> Result<u64, TransportError> {
        if self.shadow_due() {
            self.shadow_frame(&frame);
        }
        let bytes = frame.len() as u64;
        let r = self.traced_hot(Hot::Publish, "publish", |c| {
            c.items = 1;
            c.bytes = bytes;
            self.inner.publish(domain, frame, on_path)
        });
        self.note_publish(&r);
        r
    }

    fn fetch(
        &self,
        requester: DomainId,
        hop: HopId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let r = span(self.layer, "fetch", |c| {
            let r = self.inner.fetch(requester, hop);
            self.note_delivery(&r, c);
            r
        });
        self.note_err(&r);
        r
    }

    fn fetch_path(
        &self,
        requester: DomainId,
        path: &PathId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let r = span(self.layer, "fetch_path", |c| {
            let r = self.inner.fetch_path(requester, path);
            self.note_delivery(&r, c);
            r
        });
        self.note_err(&r);
        if let (true, Ok(entries)) = (self.shadow_due(), &r) {
            if let Some(p) = entries.first() {
                self.shadow_frame(&p.frame);
            }
        }
        r
    }

    fn subscribe(&self, requester: DomainId) -> SubscriptionId {
        span(self.layer, "subscribe", |_| self.inner.subscribe(requester))
    }

    fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId {
        span(self.layer, "subscribe_path", |_| {
            self.inner.subscribe_path(requester, path)
        })
    }

    fn subscribe_from(
        &self,
        requester: DomainId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError> {
        let r = span(self.layer, "subscribe_from", |_| {
            self.inner.subscribe_from(requester, from_seq)
        });
        self.note_err(&r);
        r
    }

    fn poll(&self, sub: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError> {
        let r = span(self.layer, "poll", |c| {
            let r = self.inner.poll(sub);
            self.note_delivery(&r, c);
            r
        });
        self.note_err(&r);
        self.counters.polls.fetch_add(1, Ordering::Relaxed);
        if !matches!(&r, Ok(entries) if !entries.is_empty()) {
            self.counters.empty_polls.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn wait(&self, sub: SubscriptionId, timeout: Duration) -> Result<WaitOutcome, TransportError> {
        let r = span_kind(self.layer, Kind::Blocked, "wait", |_| {
            self.inner.wait(sub, timeout)
        });
        self.note_err(&r);
        if matches!(r, Ok(WaitOutcome::TimedOut)) {
            self.counters.wait_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError> {
        span(self.layer, "unsubscribe", |_| self.inner.unsubscribe(sub))
    }

    fn subscriptions(&self) -> usize {
        self.inner.subscriptions()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn compact_before(&self, before_seq: u64) -> Result<CompactionReport, TransportError> {
        let r = span(self.layer, "compact_before", |c| {
            let r = self.inner.compact_before(before_seq);
            if let Ok(report) = &r {
                c.items = report.reclaimed;
            }
            r
        });
        self.note_err(&r);
        r
    }

    fn horizon(&self) -> Result<u64, TransportError> {
        span(self.layer, "horizon", |_| self.inner.horizon())
    }

    fn summaries(&self) -> Result<Vec<IntervalSummary>, TransportError> {
        span(self.layer, "summaries", |_| self.inner.summaries())
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// One span around `inner.publish_batch`, whatever its body is. The
    /// codec's share of it comes from a shadow `encode_signed` of the
    /// same batch on one call in [`SHADOW_EVERY`].
    fn publish_batch(
        &self,
        domain: DomainId,
        batch: &ReceiptBatch,
        profile: Profile,
        on_path: Vec<DomainId>,
        key: &HopKey,
    ) -> Result<u64, TransportError> {
        if self.shadow_due() {
            let frame = span_kind(Layer::WireCodec, Kind::Shadow, "encode_signed", |c| {
                let epoch = self.inner.key_epoch(batch.hop)?;
                let f = WireEncoder::new(profile)
                    .encode_signed(batch, key, epoch)
                    .ok()?;
                c.items = 1;
                c.bytes = f.len() as u64;
                Some(f)
            });
            if let Some(frame) = frame {
                self.shadow_frame(&frame);
            }
        }
        let r = self.traced_hot(Hot::PublishBatch, "publish_batch", |c| {
            c.items = 1;
            self.inner
                .publish_batch(domain, batch, profile, on_path, key)
        });
        self.note_publish(&r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, start: u64, end: u64, layer: Layer, kind: Kind) -> Span {
        Span {
            id,
            parent,
            thread: 1,
            phase: 0,
            layer,
            kind,
            name: "t",
            start_ns: start,
            end_ns: end,
            items: 1,
            bytes: 10,
            weight: 1,
        }
    }

    /// root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
    fn tree() -> Vec<Span> {
        vec![
            s(1, 0, 0, 100, Layer::Bench, Kind::Busy),
            s(2, 1, 10, 40, Layer::SimVerdict, Kind::Busy),
            s(3, 2, 15, 25, Layer::WireTransport, Kind::Busy),
            s(4, 1, 50, 90, Layer::WireTransport, Kind::Blocked),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let selfs = self_times(&tree());
        assert_eq!(selfs[&1], 100 - 30 - 40);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 40);
        // Self times of a tree sum to the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn summary_splits_busy_blocked_and_shares() {
        let sum = Summary::of(&tree(), &self_times(&tree()), &[]);
        assert_eq!(sum.threads[&1], (30 + 20 + 10, 40, 0));
        assert_eq!(sum.layer_busy_ns[&Layer::WireTransport], 10);
        assert!((sum.layer_share(Layer::SimVerdict) - 20.0 / 60.0).abs() < 1e-12);
        assert_eq!(sum.layer_share(Layer::WireNet), 0.0);
        let a = sum.call(Layer::WireTransport, "t");
        assert_eq!(
            (a.count, a.dur_ns, a.self_ns, a.items, a.bytes),
            (2, 50, 50, 2, 20)
        );
    }

    #[test]
    fn a_sampled_child_stands_for_its_unrecorded_siblings() {
        // A 100 ns parent made 4 calls of ~10 ns; 1 in 4 was recorded.
        let mut child = s(2, 1, 20, 30, Layer::WireTransport, Kind::Busy);
        child.weight = 4;
        let spans = vec![s(1, 0, 0, 100, Layer::SimAudit, Kind::Busy), child];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 4 * 10);
        let sum = Summary::of(&spans, &selfs, &[]);
        let a = sum.call(Layer::WireTransport, "t");
        assert_eq!(
            (a.count, a.dur_ns, a.self_ns, a.items, a.bytes),
            (4, 40, 40, 4, 40)
        );
        assert_eq!(sum.threads[&1], (60 + 40, 0, 0));
    }

    #[test]
    fn phases_filter_the_fold() {
        let mut spans = tree();
        spans[3].phase = 2;
        let sum = Summary::of(&spans, &self_times(&spans), &[2]);
        assert_eq!(sum.threads[&1], (0, 40, 0));
    }

    #[test]
    fn recorded_spans_nest_and_disabled_spans_vanish() {
        // The only test that touches the process-wide switch.
        set_enabled(true);
        let v = span(Layer::Bench, "outer", |c| {
            c.items = 3;
            span(Layer::Hash, "inner", |_| 7)
        });
        set_enabled(false);
        span(Layer::Bench, "off", |_| ());
        assert_eq!(v, 7);
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name == "outer" || s.name == "inner" || s.name == "off")
            .collect();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.items, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
