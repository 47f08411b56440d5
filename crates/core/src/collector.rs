//! The data-plane collector module (paper §7).
//!
//! "The data-plane part handles per-packet operations and collects
//! per-aggregate state in a monitoring cache; we refer to it as the
//! collector module." The collector:
//!
//! * classifies each packet into a registered HOP path
//!   ([`Collector::classify`]; the driver digests and timestamps it);
//! * takes the classified, digested packets in batches through
//!   [`Ingest::ingest`] — its only entry point — and runs Algorithm 1
//!   (delay sampling) and Algorithm 2 (aggregation with §6.3 `AggTrans`
//!   windows) on each path, with exactly the output of one
//!   [`DelaySampler`](crate::DelaySampler) and one
//!   [`Aggregator`](crate::Aggregator) per path fed packet by packet;
//! * accounts every memory access, hash and timestamp so the §7.1
//!   processing claims can be measured rather than asserted.
//!
//! ## Storage
//!
//! The paper sizes a HOP's per-path state at "roughly 20 bytes" for
//! 100,000 concurrent paths, so the layout is built around paths that
//! are many and mostly idle:
//!
//! * **One row per path.** A 64-byte row holds everything a packet
//!   touches: the open aggregate's first digest and count, the path's
//!   log cursors, and the heads of its pending closes, pending samples
//!   and finished aggregates. `µ`, `σ`, `δ`, `J` and the buffer cap are
//!   stored once per collector and `PathId`s live in a cold array read
//!   only at drain. Registering a path allocates nothing but its row.
//! * **One record log per path.** Each packet's `⟨digest, time⟩` is
//!   stored once, in a chain of fixed-size chunks carved from
//!   collector-owned pages. Pages are allocated whole and never moved
//!   or resized; released chunks go on a free list. Algorithm 1's
//!   TempBuffer is the log from the *sampler cursor* on (a marker
//!   sweeps forward from it, a `buffer_cap` eviction advances it) and
//!   the §6.3 `2J` window is the log from the *window cursor* on
//!   (expiry advances it). A chunk behind both cursors is released.
//! * **Shared slabs** hold pending closes, pending samples and finished
//!   aggregates as per-path FIFO lists, so no path owns a heap
//!   allocation; the only allocation `ingest` makes in steady state is
//!   the `AggTrans` digest list of each aggregate it finalizes, which
//!   its receipt then owns.
//! * **A batch-ahead prefetch.** On traffic spread over many paths a
//!   batch holds few packets per path, so each packet's row and then
//!   its log chunk are a cache miss, one after the other. `ingest`
//!   therefore walks the batch once, in order, and while it observes
//!   entry `i` it prefetches the row of entry `i + 16` and, for entry
//!   `i + 8` (whose row is cached by then), the log record its append
//!   and `2J` expiry will touch and its pending-close node. The hints
//!   change no state, so output is the same with or without them.
//!
//! Registration is derived from the classifier: the exact-pair table
//! (or, for prefix specs, the prefix list) names the earliest path with
//! a spec, so an idempotent [`Collector::register_path`] needs no map
//! of its own.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};
use vpm_hash::{sample_fcn, Digest};
use vpm_packet::{HeaderSpec, Packet, SimDuration, SimTime};

use crate::hop::HopConfig;
use crate::ingest::{Ingest, IngestError, IngestReport};
use crate::prefetch::prefetch;
use crate::receipt::{AggId, AggReceipt, PathId, SampleReceipt, SampleRecord};

/// Per-packet work counters (the §7.1 processing model: "three memory
/// accesses, one hash function, and one timestamp computation per
/// packet", plus one access per buffered packet at marker sweeps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostCounters {
    /// Packets processed.
    pub packets: u64,
    /// Ordinary per-packet memory accesses (lookup, count update,
    /// buffer store).
    pub memory_accesses: u64,
    /// Digest computations.
    pub hash_ops: u64,
    /// Timestamp computations.
    pub timestamp_ops: u64,
    /// Extra accesses spent sweeping the temp buffer at markers.
    pub marker_sweep_accesses: u64,
    /// Batch entries that named no registered path.
    pub unclassified: u64,
}

/// A minimal multiply-xor hasher for the exact-match classifier key
/// (an 8-byte `(src, dst)` address pair). The default SipHash is keyed
/// for HashDoS resistance we don't need on a fixed-at-registration
/// table, and costs more than the rest of the per-packet lookup.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // fxhash-style combine: rotate, xor, multiply by a random odd
        // constant. Plenty for IPv4 pairs feeding a power-of-two table.
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Classifier index over registered [`HeaderSpec`]s.
///
/// The §7.1 model sizes a HOP at 100,000 concurrent paths; a linear
/// `matches()` scan per packet is O(paths) and dominates the hot path
/// long before that. Almost all real path specs are exact `/32`
/// host-pair entries, which an 8-byte hash key classifies in O(1); the
/// remaining genuine prefix ranges stay in a short fallback list
/// scanned in registration order.
///
/// First-match-wins semantics of the original linear scan are
/// preserved exactly: the exact table keeps the earliest index per
/// pair, and a fallback prefix only wins if it was registered earlier
/// than the exact hit.
#[derive(Debug, Default)]
struct ClassifierIndex {
    /// Earliest path index per exact `(src, dst)` address pair.
    exact: HashMap<(u32, u32), usize, BuildHasherDefault<PairHasher>>,
    /// `(registration index, spec)` for prefix specs, in order.
    prefixes: Vec<(usize, HeaderSpec)>,
}

impl ClassifierIndex {
    fn insert(&mut self, spec: HeaderSpec, idx: usize) {
        match spec.host_pair() {
            Some(key) => {
                self.exact.entry(key).or_insert(idx);
            }
            None => self.prefixes.push((idx, spec)),
        }
    }

    /// The earliest index registered with exactly `spec`.
    fn first(&self, spec: &HeaderSpec) -> Option<usize> {
        match spec.host_pair() {
            Some(key) => self.exact.get(&key).copied(),
            None => self
                .prefixes
                .iter()
                .find(|(_, s)| s == spec)
                .map(|&(i, _)| i),
        }
    }

    fn classify(&self, pkt: &Packet) -> Option<usize> {
        let exact = self
            .exact
            .get(&(u32::from(pkt.ipv4.src), u32::from(pkt.ipv4.dst)))
            .copied();
        // Only prefixes registered before the exact hit can outrank it.
        let bound = exact.unwrap_or(usize::MAX);
        self.prefixes
            .iter()
            .take_while(|&&(i, _)| i < bound)
            .find(|(_, s)| s.matches(pkt))
            .map(|&(i, _)| i)
            .or(exact)
    }
}

/// Records per log chunk: one chunk is two cache lines.
const CHUNK: u64 = 8;
/// Chunks per log page (64 KiB of records per page).
const PAGE_CHUNKS: usize = 512;
/// The null chunk / list handle.
const NIL: u32 = u32::MAX;

type Chunk = [SampleRecord; CHUNK as usize];

const BLANK: SampleRecord = SampleRecord {
    pkt_id: Digest(0),
    time: SimTime::ZERO,
};

/// Slot of log position `pos` within its chunk.
#[inline]
fn slot(pos: u64) -> usize {
    (pos % CHUNK) as usize
}

/// One page of the record log: chunks and their links, allocated whole
/// and never moved.
struct Page {
    chunks: [Chunk; PAGE_CHUNKS],
    /// The chunk after each chunk in its path's log (or on the free
    /// list); [`NIL`] at a log's newest chunk.
    next: [u32; PAGE_CHUNKS],
}

const EMPTY_PAGE: Page = Page {
    chunks: [[BLANK; CHUNK as usize]; PAGE_CHUNKS],
    next: [NIL; PAGE_CHUNKS],
};

/// The collector's chunk allocator: every path's record log is a chain
/// of chunks from here. `u32` handles address 2³² chunks (512 GiB of
/// records), far beyond any collector's memory.
struct ChunkPool {
    pages: Vec<Box<Page>>,
    /// Head of the free list.
    free: u32,
    /// Chunks handed out from fresh pages so far.
    carved: u32,
    /// Chunks currently in some path's log.
    live: usize,
}

impl std::fmt::Debug for ChunkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkPool")
            .field("pages", &self.pages.len())
            .field("live", &self.live)
            .finish()
    }
}

impl ChunkPool {
    fn new() -> Self {
        ChunkPool {
            pages: Vec::new(),
            free: NIL,
            carved: 0,
            live: 0,
        }
    }

    #[inline]
    fn chunk(&self, c: u32) -> Option<&Chunk> {
        let c = c as usize;
        self.pages.get(c / PAGE_CHUNKS)?.chunks.get(c % PAGE_CHUNKS)
    }

    #[inline]
    fn chunk_mut(&mut self, c: u32) -> Option<&mut Chunk> {
        let c = c as usize;
        self.pages
            .get_mut(c / PAGE_CHUNKS)?
            .chunks
            .get_mut(c % PAGE_CHUNKS)
    }

    #[inline]
    fn next(&self, c: u32) -> u32 {
        let c = c as usize;
        self.pages
            .get(c / PAGE_CHUNKS)
            .and_then(|p| p.next.get(c % PAGE_CHUNKS))
            .copied()
            .unwrap_or(NIL)
    }

    #[inline]
    fn set_next(&mut self, c: u32, to: u32) {
        let c = c as usize;
        if let Some(n) = self
            .pages
            .get_mut(c / PAGE_CHUNKS)
            .and_then(|p| p.next.get_mut(c % PAGE_CHUNKS))
        {
            *n = to;
        }
    }

    /// A chunk with no successor: from the free list, else carved from
    /// the newest page, else from a new page.
    fn alloc(&mut self) -> u32 {
        let c = if self.free != NIL {
            let c = self.free;
            self.free = self.next(c);
            self.set_next(c, NIL);
            c
        } else {
            if self.carved as usize == self.pages.len() * PAGE_CHUNKS {
                self.pages.push(Box::new(EMPTY_PAGE));
            }
            let c = self.carved;
            self.carved += 1;
            c
        };
        self.live += 1;
        c
    }

    fn release(&mut self, c: u32) {
        self.set_next(c, self.free);
        self.free = c;
        self.live -= 1;
    }

    #[inline]
    fn record(&self, c: u32, pos: u64) -> Option<&SampleRecord> {
        self.chunk(c)?.get(slot(pos))
    }

    /// Visit positions `from..to` of a log in which position `from`
    /// lies in chunk `c`.
    #[inline]
    fn for_each(&self, mut c: u32, mut from: u64, to: u64, mut f: impl FnMut(&SampleRecord)) {
        while from < to {
            let start = slot(from);
            let end = (start as u64 + (to - from)).min(CHUNK) as usize;
            let Some(run) = self.chunk(c).and_then(|recs| recs.get(start..end)) else {
                return;
            };
            run.iter().for_each(&mut f);
            from += (end - start) as u64;
            c = self.next(c);
        }
    }

    /// Move a log cursor (`pos` in chunk `c`) forward to `target`,
    /// releasing every chunk it leaves that the log's other cursor (at
    /// `other`) has left too.
    #[inline]
    fn advance(&mut self, pos: &mut u64, c: &mut u32, target: u64, other: u64) {
        while *pos < target {
            let boundary = (*pos / CHUNK + 1) * CHUNK;
            if boundary > target {
                *pos = target;
                return;
            }
            *pos = boundary;
            let left = *c;
            *c = self.next(left);
            if other >= boundary {
                self.release(left);
            }
        }
    }
}

/// A slab of per-path FIFO lists. A list is named by its newest node
/// (its tail), whose link points at its oldest, so one `u32` in a row
/// is a whole queue with O(1) push and pop.
#[derive(Debug)]
struct Lists<T> {
    nodes: Vec<(T, u32)>,
    /// Head of the free-node list (popped nodes).
    free: u32,
}

impl<T> Lists<T> {
    fn new() -> Self {
        Lists {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.nodes.get(n as usize).map_or(NIL, |node| node.1)
    }

    #[inline]
    fn set_next(&mut self, n: u32, to: u32) {
        if let Some(node) = self.nodes.get_mut(n as usize) {
            node.1 = to;
        }
    }

    fn push(&mut self, tail: &mut u32, item: T) {
        let n = match self.nodes.get_mut(self.free as usize) {
            Some(node) => {
                let n = self.free;
                self.free = node.1;
                *node = (item, n);
                n
            }
            None => {
                let n = self.nodes.len() as u32;
                self.nodes.push((item, n));
                n
            }
        };
        if *tail != NIL {
            self.set_next(n, self.next(*tail));
            self.set_next(*tail, n);
        }
        *tail = n;
    }

    #[inline]
    fn front(&self, tail: u32) -> Option<&T> {
        if tail == NIL {
            return None;
        }
        self.nodes.get(self.next(tail) as usize).map(|node| &node.0)
    }

    fn pop(&mut self, tail: &mut u32) -> Option<T>
    where
        T: Copy,
    {
        if *tail == NIL {
            return None;
        }
        let head = self.next(*tail);
        let &(item, after) = self.nodes.get(head as usize)?;
        if head == *tail {
            *tail = NIL;
        } else {
            self.set_next(*tail, after);
        }
        self.set_next(head, self.free);
        self.free = head;
        Some(item)
    }

    /// Visit a list oldest first. The nodes stay until [`Self::clear`].
    fn for_each_mut(&mut self, tail: u32, mut f: impl FnMut(&mut T)) {
        if tail == NIL {
            return;
        }
        let mut at = self.next(tail);
        while let Some((item, next)) = self.nodes.get_mut(at as usize) {
            f(item);
            if at == tail {
                return;
            }
            at = *next;
        }
    }

    /// Drop every list at once (capacity is kept).
    fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
    }
}

/// An aggregate closed by a cutting point, waiting until `J` past its
/// boundary for its `AggTrans` window to fill.
#[derive(Debug, Clone, Copy)]
struct Close {
    agg: AggId,
    count: u64,
    boundary: SimTime,
}

/// A finalized aggregate, waiting for the next drain.
#[derive(Debug)]
struct Finished {
    agg: AggId,
    count: u64,
    agg_trans: Vec<Digest>,
}

/// One path's hot state: everything a packet touches, in one cache
/// line. Log positions count the path's records from its first packet.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Row {
    /// First digest of the open aggregate.
    first: Digest,
    /// Packets in the open aggregate; 0 when none is open.
    count: u64,
    /// Records ever appended to the log.
    end: u64,
    /// Sampler cursor: the TempBuffer is `sampler..end`.
    sampler: u64,
    /// Window cursor: the `2J` window is `window..end`.
    window: u64,
    /// Chunk holding position `end - 1`.
    tail: u32,
    /// Chunk holding position `sampler` ([`NIL`] while `sampler == end`
    /// falls on a chunk not yet allocated).
    sampler_chunk: u32,
    /// Chunk holding position `window`.
    window_chunk: u32,
    /// Pending closes (a [`Lists`] tail).
    pending: u32,
    /// Samples since the last drain (a [`Lists`] tail).
    samples: u32,
    /// Finalized aggregates since the last drain (a [`Lists`] tail).
    finished: u32,
}

const IDLE_ROW: Row = Row {
    first: Digest(0),
    count: 0,
    end: 0,
    sampler: 0,
    window: 0,
    tail: NIL,
    sampler_chunk: NIL,
    window_chunk: NIL,
    pending: NIL,
    samples: NIL,
    finished: NIL,
};

/// Everything rows point into, plus the per-collector constants.
#[derive(Debug)]
struct Store {
    config: HopConfig,
    /// `2J + 1ns`: a record older than this behind the newest packet
    /// has left the window.
    two_j_plus: SimDuration,
    log: ChunkPool,
    closes: Lists<Close>,
    samples: Lists<SampleRecord>,
    finished: Lists<Finished>,
    /// Reusable scratch for one `AggTrans` window.
    window: Vec<Digest>,
}

impl Store {
    /// Observe one packet on one path: Algorithm 2 (with the §6.3
    /// window), then Algorithm 1, in the order of an `Aggregator`
    /// followed by a `DelaySampler`. Returns the buffered records a
    /// marker swept.
    #[inline]
    fn observe(&mut self, row: &mut Row, digest: Digest, time: SimTime) -> u64 {
        // A cutting point closes the open aggregate at the path's
        // previous packet, which is the log's newest record until this
        // one is appended.
        let is_cut = self.config.partition.passes(digest.0);
        let closing = (is_cut && row.count > 0).then(|| Close {
            agg: AggId {
                first: row.first,
                last: self.last_digest(row),
            },
            count: row.count,
            boundary: time,
        });
        self.append(
            row,
            SampleRecord {
                pkt_id: digest,
                time,
            },
        );
        self.expire(row, time);
        let j = self.config.j_window;
        while self
            .closes
            .front(row.pending)
            .is_some_and(|c| time > c.boundary + j)
        {
            let Some(close) = self.closes.pop(&mut row.pending) else {
                break;
            };
            self.finish(row, close);
        }
        if let Some(close) = closing {
            self.closes.push(&mut row.pending, close);
        }
        if is_cut || row.count == 0 {
            row.first = digest;
            row.count = 1;
        } else {
            row.count += 1;
        }

        if self.config.marker.passes(digest.0) {
            return self.sweep(row, digest, time);
        }
        if let Some(cap) = self.config.buffer_cap {
            // The TempBuffer before this packet joined it; a cap of 0
            // evicts nothing from an empty buffer, as in the sampler.
            let buffered = row.end - 1 - row.sampler;
            if buffered > 0 && buffered >= cap as u64 {
                let to = row.sampler + 1;
                self.log
                    .advance(&mut row.sampler, &mut row.sampler_chunk, to, row.window);
            }
        }
        0
    }

    /// Start loading what [`Self::observe`] reads for `row`'s next
    /// packet beyond the row itself: the log slot its append writes,
    /// the record its `2J` expiry checks first, and its pending-close
    /// tail.
    #[inline]
    fn prefetch_lines(&self, row: &Row) {
        if let Some(r) = self.log.record(row.tail, row.end) {
            prefetch(r);
        }
        if let Some(r) = self.log.record(row.window_chunk, row.window) {
            prefetch(r);
        }
        if let Some(node) = self.closes.nodes.get(row.pending as usize) {
            prefetch(node);
        }
    }

    fn last_digest(&self, row: &Row) -> Digest {
        let pos = row.end.saturating_sub(1);
        self.log
            .record(row.tail, pos)
            .map_or(Digest(0), |r| r.pkt_id)
    }

    #[inline]
    fn append(&mut self, row: &mut Row, rec: SampleRecord) {
        let at = slot(row.end);
        if at == 0 {
            let fresh = self.log.alloc();
            if row.tail != NIL {
                self.log.set_next(row.tail, fresh);
            }
            row.tail = fresh;
            if row.sampler_chunk == NIL {
                row.sampler_chunk = fresh;
            }
            if row.window_chunk == NIL {
                row.window_chunk = fresh;
            }
        }
        if let Some(r) = self.log.chunk_mut(row.tail).and_then(|c| c.get_mut(at)) {
            *r = rec;
        }
        row.end += 1;
    }

    /// Advance the window cursor past records older than `2J + 1ns`
    /// before `now` (never past the newest record).
    #[inline]
    fn expire(&mut self, row: &mut Row, now: SimTime) {
        let horizon = now - self.two_j_plus;
        while row.window < row.end
            && self
                .log
                .record(row.window_chunk, row.window)
                .is_some_and(|r| r.time < horizon)
        {
            let to = row.window + 1;
            self.log
                .advance(&mut row.window, &mut row.window_chunk, to, row.sampler);
        }
    }

    /// Finalize a closed aggregate with the window records within `J`
    /// of its boundary.
    fn finish(&mut self, row: &mut Row, close: Close) {
        let j = self.config.j_window;
        let (lo, hi) = (close.boundary - j, close.boundary + j);
        let window = &mut self.window;
        window.clear();
        self.log
            .for_each(row.window_chunk, row.window, row.end, |r| {
                if r.time >= lo && r.time <= hi {
                    window.push(r.pkt_id);
                }
            });
        self.finished.push(
            &mut row.finished,
            Finished {
                agg: close.agg,
                count: close.count,
                agg_trans: window.to_vec(),
            },
        );
    }

    /// A marker: sample the TempBuffer's records that pass `σ` against
    /// it, then the marker itself, and empty the buffer.
    fn sweep(&mut self, row: &mut Row, marker: Digest, time: SimTime) -> u64 {
        let stop = row.end - 1;
        let sigma = self.config.sampling;
        let samples = &mut self.samples;
        let list = &mut row.samples;
        self.log
            .for_each(row.sampler_chunk, row.sampler, stop, |q| {
                if sigma.passes(sample_fcn(q.pkt_id, marker)) {
                    samples.push(list, *q);
                }
            });
        samples.push(
            list,
            SampleRecord {
                pkt_id: marker,
                time,
            },
        );
        let swept = stop - row.sampler;
        let to = row.end;
        self.log
            .advance(&mut row.sampler, &mut row.sampler_chunk, to, row.window);
        swept
    }

    /// End of stream: finalize every pending close with the window as
    /// it stands, then close the open aggregate with no window.
    fn flush(&mut self, row: &mut Row) {
        while let Some(close) = self.closes.pop(&mut row.pending) {
            self.finish(row, close);
        }
        if row.count > 0 {
            let agg = AggId {
                first: row.first,
                last: self.last_digest(row),
            };
            let count = row.count;
            self.finished.push(
                &mut row.finished,
                Finished {
                    agg,
                    count,
                    agg_trans: Vec::new(),
                },
            );
            row.count = 0;
        }
    }
}

/// The data-plane collector.
#[derive(Debug)]
pub struct Collector {
    rows: Vec<Row>,
    /// Each row's `PathId`, read only at drain.
    paths: Vec<PathId>,
    store: Store,
    index: ClassifierIndex,
    counters: CostCounters,
}

/// Batch entries the row prefetch in [`Collector::ingest`] runs ahead
/// of the walk; the log and pending-close lines are prefetched half as
/// far ahead, once the row is cached.
const LOOKAHEAD: usize = 16;

impl Collector {
    /// New collector for a HOP.
    pub fn new(config: HopConfig) -> Self {
        Collector {
            rows: Vec::new(),
            paths: Vec::new(),
            store: Store {
                config,
                two_j_plus: config.j_window.saturating_mul(2) + SimDuration::from_nanos(1),
                log: ChunkPool::new(),
                closes: Lists::new(),
                samples: Lists::new(),
                finished: Lists::new(),
                window: Vec::new(),
            },
            index: ClassifierIndex::default(),
            counters: CostCounters::default(),
        }
    }

    /// Register a path; returns its index for the digest fast path.
    ///
    /// Idempotent on exact duplicates: registering a `PathId` that is
    /// already registered returns the existing index and changes
    /// nothing — previously this silently created a second state slot
    /// that could never be classified into (the classifier keeps the
    /// earliest index per spec), splitting drains from observations.
    pub fn register_path(&mut self, path: PathId) -> usize {
        if let Some(idx) = self.position(&path) {
            return idx;
        }
        let idx = self.rows.len();
        self.index.insert(path.spec, idx);
        self.rows.push(IDLE_ROW);
        self.paths.push(path);
        idx
    }

    /// Where `path` is registered, if it is. The classifier names the
    /// earliest path with its spec; only a spec registered again with
    /// other hops or `MaxDiff` needs the scan past it.
    fn position(&self, path: &PathId) -> Option<usize> {
        let first = self.index.first(&path.spec)?;
        let from = self.paths.get(first..)?;
        from.iter().position(|p| p == path).map(|i| first + i)
    }

    /// Classify a packet into its registered path index without
    /// observing it (O(1) for `/32`-pair paths, O(prefix paths) for the
    /// fallback list; first registered match wins, as with a linear
    /// scan).
    pub fn classify(&self, pkt: &Packet) -> Option<usize> {
        self.index.classify(pkt)
    }

    /// Number of registered paths.
    pub fn path_count(&self) -> usize {
        self.rows.len()
    }

    /// The `PathId` registered at `idx`.
    pub(crate) fn path_id(&self, idx: usize) -> Option<PathId> {
        self.paths.get(idx).copied()
    }

    /// Flush end-of-stream state on every path.
    pub fn flush(&mut self) {
        for row in &mut self.rows {
            self.store.flush(row);
        }
    }

    /// Drain every path's samples and finished aggregates into receipt
    /// form, in one pass over the row table in registration order (the
    /// batched control-plane read used by `Processor::report`).
    pub fn drain_receipts(
        &mut self,
        samples: &mut Vec<SampleReceipt>,
        aggregates: &mut Vec<AggReceipt>,
    ) {
        let store = &mut self.store;
        for (row, &path) in self.rows.iter_mut().zip(&self.paths) {
            if row.samples != NIL {
                let mut recs = Vec::new();
                store.samples.for_each_mut(row.samples, |r| recs.push(*r));
                samples.push(SampleReceipt {
                    path,
                    samples: recs,
                });
                row.samples = NIL;
            }
            store.finished.for_each_mut(row.finished, |f| {
                aggregates.push(AggReceipt {
                    path,
                    agg: f.agg,
                    pkt_cnt: f.count,
                    agg_trans: std::mem::take(&mut f.agg_trans),
                });
            });
            row.finished = NIL;
        }
        store.samples.clear();
        store.finished.clear();
    }

    /// Work counters.
    pub fn counters(&self) -> CostCounters {
        self.counters
    }

    /// Bytes of monitoring-cache state held: the row table, one 64-B
    /// row per registered path (the paper's model is ~20 B, §7.1).
    pub fn monitoring_cache_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<Row>()
    }

    /// Bytes of record-log chunks currently held across all paths:
    /// every TempBuffer and every `2J` `AggTrans` window (a path's two
    /// share one log).
    pub fn temp_buffer_bytes(&self) -> usize {
        self.store.log.live * std::mem::size_of::<Chunk>()
    }
}

impl Ingest for Collector {
    /// Observe one batch of pre-classified, pre-digested packets, in
    /// batch order.
    ///
    /// State and [`CostCounters`] end up byte-identical to the
    /// per-packet fold (pinned by `batch_observe_matches_per_packet`);
    /// on top of that, every entry naming an unregistered path index
    /// comes back as a typed [`IngestError::PathOutOfRange`] — the
    /// entry itself is counted as unclassified and charged no hash.
    ///
    /// The walk prefetches a few entries ahead (see the module
    /// docs); an out-of-range entry ahead is skipped there and rejected
    /// when the walk reaches it.
    fn ingest(&mut self, batch: &[(usize, Digest, SimTime)]) -> IngestReport {
        let paths = self.rows.len();
        let mut errors = Vec::new();
        let mut swept = 0u64;
        for (entry, &(index, digest, time)) in batch.iter().enumerate() {
            if let Some(row) = batch
                .get(entry + LOOKAHEAD)
                .and_then(|ahead| self.rows.get(ahead.0))
            {
                prefetch(row);
            }
            if let Some(row) = batch
                .get(entry + LOOKAHEAD / 2)
                .and_then(|ahead| self.rows.get(ahead.0))
            {
                self.store.prefetch_lines(row);
            }
            match self.rows.get_mut(index) {
                Some(row) => swept += self.store.observe(row, digest, time),
                None => errors.push(IngestError::PathOutOfRange {
                    entry,
                    index,
                    paths,
                }),
            }
        }
        let accepted = (batch.len() - errors.len()) as u64;
        let c = &mut self.counters;
        c.packets += accepted;
        c.hash_ops += accepted;
        c.timestamp_ops += accepted;
        // §7.1: lookup PathID + update PktCnt + store to temp buffer —
        // three accesses per packet; one more per buffered packet
        // examined at a marker sweep.
        c.memory_accesses += 3 * accepted;
        c.marker_sweep_accesses += swept;
        c.unclassified += errors.len() as u64;
        IngestReport { accepted, errors }
    }

    fn flush(&mut self) {
        Collector::flush(self);
    }

    fn drain_receipts(
        &mut self,
        samples: &mut Vec<SampleReceipt>,
        aggregates: &mut Vec<AggReceipt>,
    ) {
        Collector::drain_receipts(self, samples, aggregates);
    }

    fn counters(&self) -> CostCounters {
        Collector::counters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::ObserveOutcome;
    use crate::{Aggregator, DelaySampler};
    use vpm_hash::Threshold;
    use vpm_packet::{DomainId, HeaderSpec, HopId, SimDuration};

    fn config() -> HopConfig {
        HopConfig::new(HopId(4), DomainId(2))
            .with_sampling_rate(0.05)
            .with_aggregate_size(100)
            .with_marker_rate(0.01)
            .with_j_window(SimDuration::from_millis(1))
    }

    fn path_id(spec: HeaderSpec) -> PathId {
        PathId {
            spec,
            prev_hop: Some(HopId(3)),
            next_hop: Some(HopId(5)),
            max_diff: SimDuration::from_millis(2),
        }
    }

    fn mk_trace(n: usize) -> Vec<vpm_trace::TracePacket> {
        let cfg = vpm_trace::TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(200),
            ..vpm_trace::TraceConfig::paper_default(1, 21)
        };
        let mut t = vpm_trace::TraceGenerator::new(cfg).generate();
        t.truncate(n);
        t
    }

    /// Classify and digest upstream, then one `ingest` call — the
    /// shape of every collector feed. Returns the packets accepted.
    fn ingest_trace(c: &mut Collector, trace: &[vpm_trace::TracePacket]) -> u64 {
        let batch: Vec<_> = trace
            .iter()
            .filter_map(|tp| {
                c.classify(&tp.packet)
                    .map(|idx| (idx, tp.packet.digest(), tp.ts))
            })
            .collect();
        let report = c.ingest(&batch);
        assert!(report.is_clean());
        report.accepted
    }

    /// Drain everything, then keep path `idx`'s receipts.
    fn drain_path(c: &mut Collector, idx: usize) -> (Vec<SampleRecord>, Vec<AggReceipt>) {
        let path = c.path_id(idx).unwrap();
        let (mut samples, mut aggs) = (Vec::new(), Vec::new());
        c.drain_receipts(&mut samples, &mut aggs);
        let recs = samples
            .into_iter()
            .filter(|s| s.path == path)
            .flat_map(|s| s.samples)
            .collect();
        aggs.retain(|a| a.path == path);
        (recs, aggs)
    }

    /// The per-packet specification `ingest` is checked against: one
    /// `Aggregator::observe` + `DelaySampler::observe` per entry and
    /// the §7.1 counter rule, with none of the collector's storage.
    struct PerPacketFold {
        paths: Vec<(PathId, DelaySampler, Aggregator)>,
        counters: CostCounters,
    }

    impl PerPacketFold {
        fn new(cfg: HopConfig, paths: &[PathId]) -> Self {
            let paths = paths
                .iter()
                .map(|&path| {
                    let sampler = DelaySampler::new(cfg.marker, cfg.sampling);
                    let sampler = match cfg.buffer_cap {
                        Some(cap) => sampler.with_buffer_cap(cap),
                        None => sampler,
                    };
                    (path, sampler, Aggregator::new(cfg.partition, cfg.j_window))
                })
                .collect();
            PerPacketFold {
                paths,
                counters: CostCounters::default(),
            }
        }

        fn observe(&mut self, idx: usize, digest: Digest, t: SimTime) {
            let Some((_, sampler, aggregator)) = self.paths.get_mut(idx) else {
                // Out of range: unclassified, no hash charged.
                self.counters.unclassified += 1;
                return;
            };
            self.counters.packets += 1;
            self.counters.hash_ops += 1;
            self.counters.timestamp_ops += 1;
            // §7.1: lookup PathID + update PktCnt + store to temp buffer.
            self.counters.memory_accesses += 3;
            aggregator.observe(digest, t);
            if let ObserveOutcome::Marker { swept, .. } = sampler.observe(digest, t) {
                // One extra access per buffered packet examined (§7.1).
                self.counters.marker_sweep_accesses += swept as u64;
            }
        }

        /// Flush, then drain into receipt form in registration order.
        fn finish(mut self) -> (CostCounters, Vec<SampleReceipt>, Vec<AggReceipt>) {
            let mut samples = Vec::new();
            let mut aggregates = Vec::new();
            for (path, sampler, aggregator) in &mut self.paths {
                aggregator.flush();
                let recs = sampler.drain();
                if !recs.is_empty() {
                    samples.push(SampleReceipt {
                        path: *path,
                        samples: recs,
                    });
                }
                aggregates.extend(aggregator.drain().into_iter().map(|f| AggReceipt {
                    path: *path,
                    agg: f.agg,
                    pkt_cnt: f.pkt_cnt,
                    agg_trans: f.agg_trans,
                }));
            }
            (self.counters, samples, aggregates)
        }
    }

    #[test]
    fn classifies_and_counts() {
        let trace = mk_trace(5_000);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        c.register_path(path_id(spec));
        assert_eq!(ingest_trace(&mut c, &trace), trace.len() as u64);
        c.flush();
        let counters = c.counters();
        assert_eq!(counters.packets, trace.len() as u64);
        assert_eq!(counters.hash_ops, trace.len() as u64);
        assert_eq!(counters.timestamp_ops, trace.len() as u64);
        assert_eq!(counters.memory_accesses, 3 * trace.len() as u64);
        let (samples, aggs) = drain_path(&mut c, 0);
        assert!(!samples.is_empty());
        let total: u64 = aggs.iter().map(|a| a.pkt_cnt).sum();
        assert_eq!(total, trace.len() as u64);
    }

    #[test]
    fn unmatched_packets_rejected() {
        let trace = mk_trace(10);
        let mut c = Collector::new(config());
        c.register_path(path_id(HeaderSpec::new(
            "1.0.0.0/8".parse().unwrap(),
            "2.0.0.0/8".parse().unwrap(),
        )));
        for tp in &trace {
            assert!(c.classify(&tp.packet).is_none());
        }
        // Nothing classified, so nothing reaches the collector and no
        // work is charged.
        assert_eq!(ingest_trace(&mut c, &trace), 0);
        assert_eq!(c.counters(), CostCounters::default());
    }

    #[test]
    fn out_of_range_index_rejected_without_hash_charge() {
        let trace = mk_trace(20);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        let idx = c.register_path(path_id(spec));
        assert!(c.ingest(&[(idx, Digest(1), SimTime::ZERO)]).is_clean());
        // A bogus index must not charge a hash for work never done,
        // must not update any path, and must count as unclassified.
        let before = c.counters();
        for tp in trace.iter().take(5) {
            let report = c.ingest(&[(7, tp.packet.digest(), tp.ts)]);
            assert_eq!((report.accepted, report.rejected()), (0, 1));
        }
        let after = c.counters();
        assert_eq!(after.hash_ops, before.hash_ops);
        assert_eq!(after.packets, before.packets);
        assert_eq!(after.timestamp_ops, before.timestamp_ops);
        assert_eq!(after.memory_accesses, before.memory_accesses);
        assert_eq!(after.unclassified, before.unclassified + 5);
    }

    #[test]
    fn multiple_paths_classified_independently() {
        let trace = mk_trace(2_000);
        let real_spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let decoy = HeaderSpec::new("1.0.0.0/8".parse().unwrap(), "2.0.0.0/8".parse().unwrap());
        let mut c = Collector::new(config());
        c.register_path(path_id(decoy));
        let real_idx = c.register_path(path_id(real_spec));
        for tp in &trace {
            assert_eq!(c.classify(&tp.packet), Some(real_idx));
        }
        ingest_trace(&mut c, &trace);
        c.flush();
        let (mut samples, mut aggs) = (Vec::new(), Vec::new());
        c.drain_receipts(&mut samples, &mut aggs);
        // Every receipt is the real path's: the decoy has none.
        let real = c.path_id(real_idx).unwrap();
        assert!(!samples.is_empty() && !aggs.is_empty());
        assert!(samples.iter().all(|s| s.path == real));
        assert!(aggs.iter().all(|a| a.path == real));
    }

    #[test]
    fn resource_reporting_tracks_state() {
        let mut c = Collector::new(config());
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        c.register_path(path_id(spec));
        assert_eq!(c.monitoring_cache_bytes(), std::mem::size_of::<Row>());
        assert_eq!(std::mem::size_of::<Row>(), 64, "a row is one cache line");
        assert_eq!(c.temp_buffer_bytes(), 0, "registration takes no log");
        ingest_trace(&mut c, &mk_trace(300));
        // Some packets should be buffered awaiting a marker, in whole
        // chunks.
        let held = c.temp_buffer_bytes();
        assert!(held > 0);
        assert_eq!(held % std::mem::size_of::<Chunk>(), 0);
    }

    /// A HOP observes many concurrent paths; state stays isolated and
    /// the monitoring cache grows linearly (the §7.1 "100,000 paths ⇒
    /// 2 MB" model, at this implementation's row size).
    #[test]
    fn many_paths_isolated_state() {
        use std::net::Ipv4Addr;
        let mut c = Collector::new(config());
        let n_paths = 200u16;
        for i in 0..n_paths {
            // /32-pair paths: each matches exactly one host pair.
            let spec = HeaderSpec::new(
                vpm_packet::Ipv4Prefix::new(Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8), 32)
                    .unwrap(),
                vpm_packet::Ipv4Prefix::new(Ipv4Addr::new(20, 0, (i >> 8) as u8, i as u8), 32)
                    .unwrap(),
            );
            c.register_path(path_id(spec));
        }
        assert_eq!(
            c.monitoring_cache_bytes(),
            n_paths as usize * std::mem::size_of::<Row>()
        );
        // Send 50 packets down each of three scattered paths.
        let mut batch = Vec::new();
        for &target in &[0u16, 57, 199] {
            for k in 0..50u16 {
                let mut pkt = vpm_packet::Packet {
                    seq: 0,
                    ipv4: vpm_packet::Ipv4Header::simple(
                        Ipv4Addr::new(10, 0, (target >> 8) as u8, target as u8),
                        Ipv4Addr::new(20, 0, (target >> 8) as u8, target as u8),
                        vpm_packet::ipv4::PROTO_UDP,
                        28,
                    ),
                    transport: vpm_packet::Transport::Udp(vpm_packet::UdpHeader {
                        sport: 1000 + k,
                        dport: 53,
                        length: 8,
                    }),
                    payload_len: 0,
                };
                pkt.ipv4.id = k;
                assert_eq!(c.classify(&pkt), Some(target as usize));
                batch.push((
                    target as usize,
                    pkt.digest(),
                    SimTime::from_micros(k as u64 * 10),
                ));
            }
        }
        assert!(c.ingest(&batch).is_clean());
        c.flush();
        let (mut samples, mut aggs) = (Vec::new(), Vec::new());
        c.drain_receipts(&mut samples, &mut aggs);
        for i in 0..n_paths as usize {
            let path = c.path_id(i).unwrap();
            let total: u64 = aggs
                .iter()
                .filter(|a| a.path == path)
                .map(|a| a.pkt_cnt)
                .sum();
            if [0usize, 57, 199].contains(&i) {
                assert_eq!(total, 50, "path {i}");
            } else {
                assert_eq!(total, 0, "path {i} must be untouched");
                assert!(samples.iter().all(|s| s.path != path));
            }
        }
    }

    fn pkt(src: std::net::Ipv4Addr, dst: std::net::Ipv4Addr, sport: u16) -> vpm_packet::Packet {
        vpm_packet::Packet {
            seq: 0,
            ipv4: vpm_packet::Ipv4Header::simple(src, dst, vpm_packet::ipv4::PROTO_UDP, 28),
            transport: vpm_packet::Transport::Udp(vpm_packet::UdpHeader {
                sport,
                dport: 53,
                length: 8,
            }),
            payload_len: 0,
        }
    }

    /// The classifier index must preserve the linear scan's
    /// first-registered-match-wins semantics when exact `/32`-pair and
    /// prefix paths overlap.
    #[test]
    fn classifier_index_mixes_exact_and_prefix_paths() {
        use std::net::Ipv4Addr;
        let wide = HeaderSpec::new("10.0.0.0/8".parse().unwrap(), "20.0.0.0/8".parse().unwrap());
        let narrow = HeaderSpec::new(
            "10.0.0.1/32".parse().unwrap(),
            "20.0.0.1/32".parse().unwrap(),
        );
        let other = HeaderSpec::new(
            "10.0.0.2/32".parse().unwrap(),
            "20.0.0.2/32".parse().unwrap(),
        );
        let elsewhere =
            HeaderSpec::new("30.0.0.0/8".parse().unwrap(), "40.0.0.0/8".parse().unwrap());

        // Prefix registered first shadows a later exact pair.
        let mut c = Collector::new(config());
        let w = c.register_path(path_id(wide));
        let n = c.register_path(path_id(narrow));
        let _ = c.register_path(path_id(other));
        let e = c.register_path(path_id(elsewhere));
        assert_ne!(n, w);
        let covered = pkt(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(20, 0, 0, 1), 1);
        assert_eq!(c.classify(&covered), Some(w), "earlier prefix wins");
        let covered2 = pkt(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(20, 0, 0, 2), 1);
        assert_eq!(c.classify(&covered2), Some(w));
        let outside = pkt(Ipv4Addr::new(30, 1, 2, 3), Ipv4Addr::new(40, 4, 5, 6), 1);
        assert_eq!(c.classify(&outside), Some(e));
        let nowhere = pkt(Ipv4Addr::new(50, 0, 0, 1), Ipv4Addr::new(60, 0, 0, 1), 1);
        assert_eq!(c.classify(&nowhere), None);

        // Exact pair registered first outranks a later covering prefix.
        let mut c2 = Collector::new(config());
        let n2 = c2.register_path(path_id(narrow));
        let w2 = c2.register_path(path_id(wide));
        assert_eq!(c2.classify(&covered), Some(n2), "earlier exact pair wins");
        assert_eq!(
            c2.classify(&covered2),
            Some(w2),
            "other host pairs fall to the prefix"
        );

        // Agreement with a reference linear scan across a host sweep.
        for i in 0..16u8 {
            let probe = pkt(Ipv4Addr::new(10, 0, 0, i), Ipv4Addr::new(20, 0, 0, i), 9);
            let linear = [wide, narrow, other, elsewhere]
                .iter()
                .position(|s| s.matches(&probe));
            assert_eq!(c.classify(&probe), linear, "host {i}");
        }
    }

    /// `ingest` must be byte-identical to the per-packet fold —
    /// samples, aggregates, and cost counters — including runs across
    /// multiple paths and invalid indices.
    #[test]
    fn batch_observe_matches_per_packet() {
        let trace = mk_trace(20_000);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let decoy = HeaderSpec::new("1.0.0.0/8".parse().unwrap(), "2.0.0.0/8".parse().unwrap());
        let paths = [path_id(decoy), path_id(spec)];
        // Spread packets over path 0, path 1, and an invalid index.
        let batch: Vec<(usize, Digest, SimTime)> = trace
            .iter()
            .enumerate()
            .map(|(i, tp)| {
                (
                    if i % 31 == 0 { 9 } else { i % 2 },
                    tp.packet.digest(),
                    tp.ts,
                )
            })
            .collect();

        let mut per_packet = PerPacketFold::new(config(), &paths);
        for &(idx, d, t) in &batch {
            per_packet.observe(idx, d, t);
        }
        let expected = per_packet.finish();

        for batch_size in [1usize, 64, 257] {
            let mut batched = Collector::new(config());
            for &p in &paths {
                batched.register_path(p);
            }
            for chunk in batch.chunks(batch_size) {
                let _ = batched.ingest(chunk);
            }
            batched.flush();
            let mut samples = Vec::new();
            let mut aggregates = Vec::new();
            batched.drain_receipts(&mut samples, &mut aggregates);
            assert_eq!(
                (batched.counters(), samples, aggregates),
                expected,
                "bs {batch_size}"
            );
        }
    }

    /// Re-registering an identical `PathId` must return the original
    /// index and create no second state slot; a *different* `PathId`
    /// sharing the same spec still gets its own slot (the classifier
    /// keeps first-match-wins as ever).
    #[test]
    fn duplicate_registration_is_idempotent() {
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        let a = c.register_path(path_id(spec));
        let b = c.register_path(path_id(spec));
        assert_eq!(a, b, "exact duplicate returns the existing index");
        assert_eq!(c.path_count(), 1, "no phantom state slot");

        // Same spec, different hops: a distinct PathId, distinct slot.
        let mut other = path_id(spec);
        other.next_hop = Some(HopId(9));
        let d = c.register_path(other);
        assert_ne!(a, d);
        assert_eq!(c.path_count(), 2);

        // Observations after the duplicate registration land on the
        // one true slot.
        let trace = mk_trace(500);
        for tp in &trace {
            assert_eq!(c.classify(&tp.packet), Some(a));
        }
        ingest_trace(&mut c, &trace);
        c.flush();
        let (_, aggs) = drain_path(&mut c, a);
        let total: u64 = aggs.iter().map(|x| x.pkt_cnt).sum();
        assert_eq!(total, trace.len() as u64);
    }

    /// `Ingest::ingest` must (a) leave state and counters exactly as
    /// the per-packet fold would, and (b) surface
    /// each out-of-range entry as a typed `PathOutOfRange` carrying
    /// its batch position.
    #[test]
    fn ingest_reports_out_of_range_entries_typed() {
        let trace = mk_trace(100);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        let idx = c.register_path(path_id(spec));

        let batch: Vec<(usize, Digest, SimTime)> = trace
            .iter()
            .enumerate()
            .map(|(i, tp)| {
                (
                    if i % 10 == 3 { 42 } else { idx },
                    tp.packet.digest(),
                    tp.ts,
                )
            })
            .collect();
        let bad = batch.iter().filter(|&&(i, _, _)| i == 42).count();

        let mut reference = PerPacketFold::new(config(), &[path_id(spec)]);
        for &(i, d, t) in &batch {
            reference.observe(i, d, t);
        }

        let report = c.ingest(&batch);
        assert_eq!(report.accepted, (batch.len() - bad) as u64);
        assert_eq!(report.rejected(), bad as u64);
        assert!(!report.is_clean());
        for (err, (entry_pos, _)) in report
            .errors
            .iter()
            .zip(batch.iter().enumerate().filter(|(_, e)| e.0 == 42))
        {
            match *err {
                IngestError::PathOutOfRange {
                    entry,
                    index,
                    paths,
                } => {
                    assert_eq!(entry, entry_pos);
                    assert_eq!(index, 42);
                    assert_eq!(paths, 1);
                }
            }
        }
        assert_eq!(c.counters(), reference.counters);
        assert_eq!(
            c.counters().unclassified,
            bad as u64,
            "typed errors and unclassified accounting agree"
        );

        // A clean batch allocates no error list.
        let clean: Vec<(usize, Digest, SimTime)> = trace
            .iter()
            .map(|tp| (idx, tp.packet.digest(), tp.ts))
            .collect();
        let report = c.ingest(&clean);
        assert!(report.is_clean());
        assert_eq!(report.accepted, clean.len() as u64);
    }

    #[test]
    fn marker_sweep_accounting() {
        let trace = mk_trace(20_000);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let mut c = Collector::new(config());
        c.register_path(path_id(spec));
        ingest_trace(&mut c, &trace);
        let counters = c.counters();
        // Every non-marker packet is swept exactly once (when the next
        // marker arrives), so sweep accesses = packets − markers −
        // still-buffered.
        let mut sampler = DelaySampler::new(config().marker, config().sampling);
        for tp in &trace {
            sampler.observe(tp.packet.digest(), tp.ts);
        }
        let expected = counters.packets - sampler.stats().markers - sampler.buffered() as u64;
        assert_eq!(counters.marker_sweep_accesses, expected);
    }

    /// Chunks behind both cursors go back to the free list: a path
    /// whose markers keep sweeping its buffer holds a bounded log no
    /// matter how long it runs, on one page.
    #[test]
    fn log_chunks_are_recycled() {
        let mut cfg = config();
        cfg.marker = Threshold::from_rate(0.05);
        let mut c = Collector::new(cfg);
        let spec = vpm_trace::TraceConfig::paper_default(1, 0).spec;
        let idx = c.register_path(path_id(spec));
        let mut peak = 0;
        for k in 0..200_000u64 {
            let d = Digest(vpm_hash::lookup3::hash64(&k.to_le_bytes(), 7));
            assert!(c.ingest(&[(idx, d, SimTime::from_micros(k))]).is_clean());
            peak = peak.max(c.temp_buffer_bytes());
        }
        // 2J = 2 ms at 1 packet/µs is ~2,000 records ⇒ ~250 chunks; the
        // buffer between markers adds a few more.
        assert!(peak < 400 * std::mem::size_of::<Chunk>(), "{peak} B");
        assert_eq!(c.store.log.pages.len(), 1, "one page, reused");
    }
}
