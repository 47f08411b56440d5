//! Transport-agnostic receipt dissemination.
//!
//! The paper assumes receipts are disseminated with authenticity and
//! integrity guarantees (assumption #2) and a privacy rule (§2.1): "a
//! receipt is made available only to the domains that observed the
//! corresponding traffic." [`ReceiptTransport`] is that contract as an
//! API — `publish` / `fetch` / `subscribe` over encoded
//! [`WireFrame`]s — with the enforcement points fixed by the trait's
//! documented semantics rather than by any one backing store:
//!
//! * **Authenticity at publish**: a frame must carry an HMAC-SHA-256
//!   MAC trailer that verifies under the publishing HOP's registered
//!   [`HopKey`] at the epoch the frame claims — the frame MAC is the
//!   only authenticity mechanism — so an unsigned, forged, or
//!   tampered batch never enters circulation. Keys are
//!   epoch-tagged: re-registering a *different* key for a HOP is
//!   rejected ([`TransportError::KeyAlreadyRegistered`]) — replacing a
//!   key requires an explicit [`ReceiptTransport::rotate_key`], which
//!   bumps the epoch and keeps old epochs verifiable.
//! * **Authenticity at fetch, by construction**: an entry's MAC is
//!   verified exactly once, when `admit` builds it, under the epoch it
//!   records in [`Published::epoch`]. The entry is then immutable
//!   behind its `Arc`, and key rings are append-only — an epoch, once
//!   issued, names the same key for the life of the transport — so
//!   verifying again on the way out would recompute the same answer.
//!   `fetch` / `fetch_path` therefore only confirm, with one registry
//!   lookup per entry, that the entry's epoch is still registered for
//!   its HOP (typed [`TransportError::UnknownHop`] /
//!   [`TransportError::UnknownKeyEpoch`] otherwise), and `poll`, on
//!   the same argument, checks nothing. The full HMAC runs wherever
//!   bytes enter a process: at every in-process publish, and
//!   server-side behind every `TcpServer` publish. A `TcpTransport`
//!   client does not re-verify what its server returns: it trusts that
//!   server.
//! * **Visibility at fetch/poll**: a frame is returned only to
//!   requesters on the `on_path` list the publisher declared.
//! * **Shared, immutable frames**: published entries are handed out as
//!   [`Arc<Published>`] — fetching never deep-clones a batch, and two
//!   fetches of the same entry return pointers to the same allocation.
//!
//! One in-process implementation ships here: [`ShardedBus`], which
//! spreads frames across `PathID`-hashed, internally-locked shards so
//! many domains publish and fetch concurrently without contending on
//! one `RwLock`; `ShardedBus::new(1)` is the single-lock store. Every
//! shard count presents identical observable behaviour — same errors,
//! same frame order (global publish order), byte-identical fetch
//! results — which this module's tests pin by driving random operation
//! sequences against a sequential, lock-free model of the contract.
//! Shard count shows in two places only, both on path-filtered
//! streams: racing same-path publishers are ordered by shard arrival
//! (see [`ReceiptTransport::subscribe_path`]), and a cursor that a
//! compaction pass overran lags only if the pass reclaimed from the
//! path's own shard at or past it (see
//! [`ReceiptTransport::compact_before`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};
// Every lock in this crate recovers from poisoning
// (`unwrap_or_else(PoisonError::into_inner)`) instead of propagating the
// panic: clippy's panic-freedom lints keep the code under the locks
// free of panicking calls, and one holder that panicked anyway must not
// take every later caller of the bus down with it.

use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::PathId;
use vpm_hash::{HopKey, KeyEpoch};
use vpm_packet::{DomainId, HopId};

use crate::codec::{Profile, WireDecoder, WireEncoder, WireError, WireFrame};

/// The per-HOP key registry: the `Vec` index **is** the [`KeyEpoch`] —
/// rotation appends, old epochs stay verifiable for frames already in
/// circulation.
type KeyRegistry = RwLock<HashMap<HopId, Vec<HopKey>>>;

/// A published frame with its provenance, shared by reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Published {
    /// Global publish sequence number (fetch order).
    pub seq: u64,
    /// The publishing domain.
    pub domain: DomainId,
    /// The reporting HOP.
    pub hop: HopId,
    /// The encoded frame as published.
    pub frame: WireFrame,
    /// The decoded batch (MAC-verified against the HOP's key at
    /// publish).
    pub batch: ReceiptBatch,
    /// The key epoch the frame's MAC trailer verified under.
    pub epoch: KeyEpoch,
    /// The frame's `PathID` table (shard routing, path-scoped fetch).
    pub paths: Vec<PathId>,
    /// Domains that observed the corresponding traffic — the only ones
    /// allowed to see this entry.
    pub on_path: Vec<DomainId>,
}

impl Published {
    fn visible_to(&self, requester: DomainId) -> bool {
        self.on_path.contains(&requester)
    }
}

/// A subscription handle returned by [`ReceiptTransport::subscribe`].
///
/// Handles are never reused: once [`ReceiptTransport::unsubscribe`]
/// drops a subscription, its id stays dead — polling it is a typed
/// [`TransportError::UnknownSubscription`], never a silent re-read of
/// someone else's cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriptionId(pub u64);

/// Result of a blocking [`ReceiptTransport::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// New entries may be available for the subscription — poll now.
    /// (For a filtered subscription the entries that woke the wait may
    /// turn out invisible or foreign; `Ready` is a hint, not a
    /// delivery guarantee.)
    Ready,
    /// The timeout elapsed with no completed publish in the
    /// subscription's scope.
    TimedOut,
}

/// A monotone wakeup counter: waiters snapshot it, re-check their
/// condition, and block until it moves past the snapshot. Publishers
/// bump it **after** an insert completes, so a publisher that claimed
/// a sequence number and died never produces a wakeup — the waiter
/// times out instead of spinning on a stream that cannot advance.
///
/// Built on `std::sync::{Mutex, Condvar}`. Lock poisoning is recovered
/// here as everywhere in this crate: the protected state is a bare
/// counter whose every intermediate value is valid, so a panicking
/// bumper cannot leave it corrupt — recovery converts a would-be poison
/// panic into a spurious (harmless) wakeup.
#[derive(Default)]
struct Notifier {
    count: Mutex<u64>,
    cond: Condvar,
}

impl Notifier {
    /// Current wakeup count (snapshot before checking the condition).
    fn current(&self) -> u64 {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one completed publish and wake every waiter. The guard
    /// is released before notifying so woken waiters never stall on a
    /// mutex the notifier still holds.
    fn bump(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count += 1;
        drop(count);
        self.cond.notify_all();
    }

    /// Block until the count moves past `seen` or `deadline` passes.
    /// Returns `true` when woken by a bump, `false` on timeout.
    fn wait_past(&self, seen: u64, deadline: Instant) -> bool {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *count <= seen {
            #[expect(
                clippy::disallowed_methods,
                reason = "bounds a blocking-wait timeout; never feeds a verdict"
            )]
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, timeout) = self
                .cond
                .wait_timeout(count, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            count = guard;
            if timeout.timed_out() && *count <= seen {
                return false;
            }
        }
        true
    }
}

/// Errors from transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The frame's HMAC-SHA-256 trailer did not verify under the
    /// registered key for the epoch the frame claims.
    BadMac {
        /// Offending HOP.
        hop: HopId,
    },
    /// The frame carries no MAC trailer; the transport only circulates
    /// signed frames.
    Unsigned {
        /// Offending HOP.
        hop: HopId,
    },
    /// The frame claims a key epoch the registry has never issued for
    /// this HOP.
    UnknownKeyEpoch {
        /// Offending HOP.
        hop: HopId,
        /// The epoch the frame claimed.
        epoch: KeyEpoch,
    },
    /// A *different* key is already registered for the HOP. Silent
    /// overwrite would let anyone forge receipts for an established
    /// HOP; replacing a key requires an explicit
    /// [`ReceiptTransport::rotate_key`].
    KeyAlreadyRegistered {
        /// The HOP whose key registration was refused.
        hop: HopId,
    },
    /// The requesting domain is not on the path the receipts describe.
    NotOnPath {
        /// The requester.
        requester: DomainId,
    },
    /// No key registered for the HOP.
    UnknownHop(HopId),
    /// The published frame does not decode.
    Malformed(WireError),
    /// The subscription handle was never issued by this transport, or
    /// was already dropped by [`ReceiptTransport::unsubscribe`].
    UnknownSubscription(SubscriptionId),
    /// The subscription's cursor fell behind the retention horizon: a
    /// [`ReceiptTransport::compact_before`] pass reclaimed entries the
    /// stream had not delivered yet. The transport refuses to resume
    /// the stream with a silent gap — the subscriber must drop the
    /// subscription and re-subscribe at or past `horizon` (the lowest
    /// sequence number still retained), accepting that the reclaimed
    /// prefix is now only available as [`IntervalSummary`] digests.
    LaggedBehind {
        /// The lowest global sequence number still retained.
        horizon: u64,
    },
    /// A resume point past the bus's head: this bus never issued it, so
    /// the cursor is another bus's (a restarted server counts from 0
    /// again). Resuming would re-deliver seen sequence numbers carrying
    /// different frames.
    UnknownResumePoint {
        /// The next global sequence number this bus would issue.
        head: u64,
    },
    /// The connection to a remote transport endpoint failed: the
    /// server is unreachable, or the connection dropped mid-operation
    /// and could not be re-established.
    Connection(String),
    /// The remote peer violated the session protocol: bad handshake,
    /// unknown opcode, an oversized or malformed message, or a frame
    /// the server admitted but this client cannot decode.
    Protocol(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::BadMac { hop } => {
                write!(f, "HMAC verification failed for {hop}")
            }
            TransportError::Unsigned { hop } => {
                write!(f, "unsigned frame from {hop}: only signed frames circulate")
            }
            TransportError::UnknownKeyEpoch { hop, epoch } => {
                write!(f, "{hop} has no key at {epoch}")
            }
            TransportError::KeyAlreadyRegistered { hop } => {
                write!(
                    f,
                    "a different key is already registered for {hop}; use rotate_key"
                )
            }
            TransportError::NotOnPath { requester } => {
                write!(f, "{requester} did not observe this traffic")
            }
            TransportError::UnknownHop(h) => write!(f, "no key registered for {h}"),
            TransportError::Malformed(e) => write!(f, "malformed frame: {e}"),
            TransportError::UnknownSubscription(s) => write!(f, "unknown subscription {}", s.0),
            TransportError::LaggedBehind { horizon } => {
                write!(
                    f,
                    "subscription lagged behind the retention horizon {horizon}; re-subscribe"
                )
            }
            TransportError::UnknownResumePoint { head } => {
                write!(
                    f,
                    "resume point past the bus head {head}: another bus's cursor"
                )
            }
            TransportError::Connection(e) => write!(f, "transport connection failed: {e}"),
            TransportError::Protocol(e) => write!(f, "transport protocol violation: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Malformed(e)
    }
}

/// What one [`ReceiptTransport::compact_before`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Distinct entries reclaimed by this pass (a multi-shard entry
    /// counts once).
    pub reclaimed: u64,
    /// The retention horizon after the pass: the lowest global
    /// sequence number still served as a full entry.
    pub horizon: u64,
}

/// The per-HOP digest a compaction pass leaves behind for the entries
/// it reclaims: enough to audit *that* the traffic was receipted (and
/// to bind the reclaimed frames' exact bytes) without retaining the
/// frames themselves. One summary is appended per HOP per compaction
/// pass, in HOP order within the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSummary {
    /// The reporting HOP the reclaimed frames belonged to.
    pub hop: HopId,
    /// Lowest global sequence number folded into this summary.
    pub first_seq: u64,
    /// Highest global sequence number folded into this summary.
    pub last_seq: u64,
    /// Reclaimed frames from this HOP.
    pub frames: u64,
    /// Sample receipts across those frames.
    pub samples: u64,
    /// Aggregate receipts across those frames.
    pub aggregates: u64,
    /// Total packet count claimed by those aggregate receipts.
    pub pkt_cnt: u64,
    /// Chained lookup3 digest over the reclaimed frames' exact wire
    /// bytes, folded in global sequence order — the compact stand-in
    /// for the bytes the pass dropped.
    pub digest: u64,
}

/// Fold reclaimed entries (in global sequence order) into per-HOP
/// [`IntervalSummary`] records and append them to `sink`. Shared by
/// the bus and its test model so their summary semantics cannot drift.
fn fold_summaries<'a, I>(sink: &mut Vec<IntervalSummary>, dropped: I)
where
    I: Iterator<Item = &'a Arc<Published>>,
{
    let mut per_hop: BTreeMap<HopId, IntervalSummary> = BTreeMap::new();
    for p in dropped {
        let s = per_hop.entry(p.hop).or_insert(IntervalSummary {
            hop: p.hop,
            first_seq: p.seq,
            last_seq: p.seq,
            frames: 0,
            samples: 0,
            aggregates: 0,
            pkt_cnt: 0,
            digest: 0,
        });
        s.first_seq = s.first_seq.min(p.seq);
        s.last_seq = s.last_seq.max(p.seq);
        s.frames += 1;
        s.samples += p
            .batch
            .samples
            .iter()
            .map(|sr| sr.samples.len() as u64)
            .sum::<u64>();
        s.aggregates += p.batch.aggregates.len() as u64;
        s.pkt_cnt += p.batch.aggregates.iter().map(|a| a.pkt_cnt).sum::<u64>();
        s.digest = vpm_hash::lookup3::hash64(p.frame.as_bytes(), s.digest);
    }
    sink.extend(per_hop.into_values());
}

/// The dissemination API every receipt transport implements.
///
/// Implementations must preserve the paper's two receipt-plane
/// guarantees — authenticity at publish, on-path visibility at
/// fetch/poll — and must return entries in global publish order so
/// different transports are byte-for-byte interchangeable.
pub trait ReceiptTransport: Send + Sync {
    /// Register a HOP's signing key (out-of-band trust establishment)
    /// at [`KeyEpoch`] 0. Re-registering the *same* key is an
    /// idempotent no-op returning the current epoch; registering a
    /// *different* key for an established HOP is refused with
    /// [`TransportError::KeyAlreadyRegistered`] — replacing a key is
    /// [`Self::rotate_key`]'s job, so a second registrant can never
    /// silently overwrite a HOP's identity.
    fn register_key(&self, hop: HopId, key: HopKey) -> Result<KeyEpoch, TransportError>;

    /// Explicitly rotate a HOP's key: appends `new_key` at the next
    /// epoch and returns it. Old epochs remain in the registry so
    /// frames signed before the rotation keep verifying. Rotating a
    /// HOP that was never registered is
    /// [`TransportError::UnknownHop`].
    fn rotate_key(&self, hop: HopId, new_key: HopKey) -> Result<KeyEpoch, TransportError>;

    /// The HOP's current (most recent) key epoch, or `None` if no key
    /// was ever registered.
    fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch>;

    /// Publish an encoded frame. Decodes it, requires a MAC trailer
    /// ([`TransportError::Unsigned`]), verifies the HMAC under the
    /// HOP's registered key at the claimed epoch
    /// ([`TransportError::BadMac`] / [`TransportError::UnknownKeyEpoch`])
    /// — a forged, tampered, or malformed frame never enters
    /// circulation — then stores it visible to `on_path`. Returns the
    /// entry's global sequence number.
    fn publish(
        &self,
        domain: DomainId,
        frame: WireFrame,
        on_path: Vec<DomainId>,
    ) -> Result<u64, TransportError>;

    /// Every entry the requester may see for a HOP, in publish order.
    /// Entries are `Arc`-shared, never cloned: fetching twice returns
    /// pointers to the same allocations.
    fn fetch(&self, requester: DomainId, hop: HopId)
        -> Result<Vec<Arc<Published>>, TransportError>;

    /// Every entry the requester may see whose frame references `path`,
    /// in publish order. On a sharded transport this touches only the
    /// path's shard.
    fn fetch_path(
        &self,
        requester: DomainId,
        path: &PathId,
    ) -> Result<Vec<Arc<Published>>, TransportError>;

    /// Open a subscription for a requester: subsequent [`Self::poll`]
    /// calls return entries published since the previous poll (starting
    /// from the subscription point), filtered to what the requester may
    /// see.
    fn subscribe(&self, requester: DomainId) -> SubscriptionId;

    /// Open a **path-filtered** subscription: [`Self::poll`] returns
    /// only entries whose frames reference `path`, each exactly once.
    /// On a sharded transport this is the cheap way to follow one path
    /// — polling touches exactly the path's shard (and, when the shard
    /// is idle, no lock at all). Entries within one poll are returned
    /// in publish order; across polls, publishers racing each other on
    /// the same path may be delivered in shard-arrival order instead.
    fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId;

    /// Open a global subscription whose stream starts at global
    /// sequence number `from_seq` instead of "now" — the resume
    /// primitive a checkpointed verifier restarts from. `from_seq`
    /// past the next sequence number the bus would issue is a typed
    /// [`TransportError::UnknownResumePoint`] — this bus never issued
    /// it, so the cursor is another bus's; `from_seq` below the
    /// retention horizon is a typed [`TransportError::LaggedBehind`] —
    /// the suffix the resume owes was reclaimed, and resuming would
    /// mean silently missing frames.
    fn subscribe_from(
        &self,
        requester: DomainId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError>;

    /// Drain a subscription: visible entries published since the last
    /// poll. Entries the requester may not see are skipped silently (a
    /// stream, unlike a targeted fetch, is not an assertion that
    /// specific traffic was observed).
    ///
    /// Ordering: a subscription from [`Self::subscribe`] delivers
    /// strictly in global publish order. A **path-filtered**
    /// subscription ([`Self::subscribe_path`]) delivers each entry
    /// exactly once and in publish order within one poll, but a
    /// sharded transport may order entries across polls by
    /// shard-arrival when publishers race each other on the same path
    /// (see [`Self::subscribe_path`]).
    fn poll(&self, sub: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError>;

    /// Block until the subscription plausibly has something to poll,
    /// or `timeout` elapses — the event-driven alternative to a
    /// spin-poll loop. Returns [`WaitOutcome::Ready`] when a completed
    /// publish may have produced entries for this subscription (poll
    /// to collect them; a filtered subscription may still poll empty),
    /// and [`WaitOutcome::TimedOut`] when nothing landed in time.
    ///
    /// Crucially, readiness is keyed on **completed** publishes, not
    /// claimed sequence numbers: a publisher that claimed a number and
    /// died never signals `Ready`, so a waiting consumer times out
    /// instead of burning CPU on a stream that cannot advance. An idle
    /// wait on a sharded transport holds no shard lock and performs no
    /// shard scan while blocked.
    fn wait(&self, sub: SubscriptionId, timeout: Duration) -> Result<WaitOutcome, TransportError>;

    /// Drop a subscription and its cursor state. The handle is dead
    /// afterwards: polling, waiting on, or re-unsubscribing it is
    /// [`TransportError::UnknownSubscription`]. Long-lived services
    /// must pair every `subscribe` with an `unsubscribe` or the
    /// transport accumulates cursors for the life of the process.
    fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError>;

    /// Open subscriptions currently holding cursor state (diagnostics;
    /// the lifecycle tests pin that this returns to zero).
    fn subscriptions(&self) -> usize;

    /// Total **retained** entries (diagnostics): published entries not
    /// yet reclaimed by [`Self::compact_before`]. The long-horizon
    /// audit workload pins this flat under periodic compaction.
    fn len(&self) -> usize;

    /// Reclaim every entry below `before_seq`: drop the stored frames
    /// and fold them into per-HOP [`IntervalSummary`] digests
    /// ([`Self::summaries`]). Entries at or past `before_seq` are
    /// untouched. Callers must only compact below sequence numbers
    /// whose publishes have **completed**; an entry whose publisher is
    /// still mid-insert below the new horizon is swept by the next
    /// pass, never lost silently and never a panic.
    ///
    /// After the pass, any subscription whose cursor is below the new
    /// horizon gets a typed [`TransportError::LaggedBehind`] from
    /// `poll`/`wait` — never a silently gapped stream. (A sharded
    /// transport judges a path-filtered cursor by its own shard: if
    /// nothing at or past the cursor was reclaimed there, nothing on
    /// the path was, and the stream continues whole.) `before_seq`
    /// past the current publish sequence is clamped; a `before_seq` at
    /// or below the current horizon is a no-op reporting 0 reclaimed.
    ///
    /// The default implementation retains everything (a transport
    /// without retention support reports a no-op pass).
    fn compact_before(&self, before_seq: u64) -> Result<CompactionReport, TransportError> {
        let _ = before_seq;
        Ok(CompactionReport {
            reclaimed: 0,
            horizon: self.horizon()?,
        })
    }

    /// The retention horizon: the lowest global sequence number still
    /// served as a full entry (0 when nothing was ever compacted).
    /// Fallible because a remote transport answers it with a round
    /// trip.
    fn horizon(&self) -> Result<u64, TransportError> {
        Ok(0)
    }

    /// Interval summaries left behind by compaction passes, in pass
    /// order (per-HOP order within each pass). Empty when nothing was
    /// ever compacted.
    fn summaries(&self) -> Result<Vec<IntervalSummary>, TransportError> {
        Ok(Vec::new())
    }

    /// Is the transport empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convenience: sign `batch` with `key` at the HOP's current
    /// epoch, encode it in `profile`, and publish it. The key must be
    /// the one registered for `batch.hop` at that epoch or the publish
    /// is refused ([`TransportError::BadMac`]).
    fn publish_batch(
        &self,
        domain: DomainId,
        batch: &ReceiptBatch,
        profile: Profile,
        on_path: Vec<DomainId>,
        key: &HopKey,
    ) -> Result<u64, TransportError> {
        let epoch = self
            .key_epoch(batch.hop)
            .ok_or(TransportError::UnknownHop(batch.hop))?;
        let frame = WireEncoder::new(profile).encode_signed(batch, key, epoch)?;
        self.publish(domain, frame, on_path)
    }
}

/// [`ReceiptTransport::register_key`] semantics over the shared
/// registry: first registration lands at epoch 0, the same key is
/// idempotent, a different key is refused.
#[expect(
    clippy::indexing_slicing,
    reason = "key rings are created non-empty and never shrink"
)]
fn register_key_in(
    keys: &KeyRegistry,
    hop: HopId,
    key: HopKey,
) -> Result<KeyEpoch, TransportError> {
    let mut keys = keys.write().unwrap_or_else(PoisonError::into_inner);
    match keys.get(&hop) {
        None => {
            keys.insert(hop, vec![key]);
            Ok(KeyEpoch(0))
        }
        Some(ring) => {
            let current = KeyEpoch(ring.len() as u32 - 1);
            if ring[current.0 as usize] == key {
                Ok(current)
            } else {
                Err(TransportError::KeyAlreadyRegistered { hop })
            }
        }
    }
}

/// [`ReceiptTransport::rotate_key`] semantics: append at the next
/// epoch, keeping every old epoch verifiable.
fn rotate_key_in(
    keys: &KeyRegistry,
    hop: HopId,
    new_key: HopKey,
) -> Result<KeyEpoch, TransportError> {
    let mut keys = keys.write().unwrap_or_else(PoisonError::into_inner);
    let ring = keys.get_mut(&hop).ok_or(TransportError::UnknownHop(hop))?;
    ring.push(new_key);
    Ok(KeyEpoch(ring.len() as u32 - 1))
}

fn key_epoch_in(keys: &KeyRegistry, hop: HopId) -> Option<KeyEpoch> {
    keys.read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&hop)
        .map(|ring| KeyEpoch(ring.len() as u32 - 1))
}

/// Decode + verify a frame against the key registry; shared by the
/// bus and its test model so their admission behaviour cannot drift.
/// The checks run in trust order: decode, key lookup, signature
/// presence, epoch validity, HMAC over the whole frame. This is the
/// only place a stored frame's MAC is computed.
fn admit(
    keys: &KeyRegistry,
    seq: u64,
    domain: DomainId,
    frame: WireFrame,
    on_path: Vec<DomainId>,
) -> Result<Published, TransportError> {
    let decoded = WireDecoder::decode(frame.as_bytes())?;
    let hop = decoded.batch.hop;
    // Copy the key out so the registry guard ends with this block: the
    // HMAC below walks the whole frame, and `register_key` /
    // `rotate_key` must not queue behind it.
    let (epoch, key) = {
        let keys = keys.read().unwrap_or_else(PoisonError::into_inner);
        let ring = keys.get(&hop).ok_or(TransportError::UnknownHop(hop))?;
        let epoch = decoded
            .signature
            .map(|s| s.epoch)
            .ok_or(TransportError::Unsigned { hop })?;
        let key = ring
            .get(epoch.0 as usize)
            .ok_or(TransportError::UnknownKeyEpoch { hop, epoch })?;
        (epoch, *key)
    };
    if !frame.verify_mac(&key) {
        return Err(TransportError::BadMac { hop });
    }
    Ok(Published {
        seq,
        domain,
        hop,
        frame,
        batch: decoded.batch,
        epoch,
        paths: decoded.paths,
        on_path,
    })
}

/// The fetch-side check: every entry about to be returned names an
/// epoch its HOP still has registered. `admit` verified the entry's MAC
/// under exactly that epoch, and neither the entry nor the ring has
/// changed since (see the module doc), so a lookup is the whole check.
fn check_epochs(keys: &KeyRegistry, entries: &[Arc<Published>]) -> Result<(), TransportError> {
    let keys = keys.read().unwrap_or_else(PoisonError::into_inner);
    for p in entries {
        let (hop, epoch) = (p.hop, p.epoch);
        let ring = keys.get(&hop).ok_or(TransportError::UnknownHop(hop))?;
        if ring.get(epoch.0 as usize).is_none() {
            return Err(TransportError::UnknownKeyEpoch { hop, epoch });
        }
    }
    Ok(())
}

/// The privacy rule shared by `fetch`/`fetch_path`: visible entries are
/// returned; an empty result caused by hidden entries is an explicit
/// [`TransportError::NotOnPath`] refusal, not silence.
fn apply_visibility(
    requester: DomainId,
    matching: Vec<Arc<Published>>,
) -> Result<Vec<Arc<Published>>, TransportError> {
    let any_hidden = matching.iter().any(|p| !p.visible_to(requester));
    let visible: Vec<Arc<Published>> = matching
        .into_iter()
        .filter(|p| p.visible_to(requester))
        .collect();
    if visible.is_empty() && any_hidden {
        return Err(TransportError::NotOnPath { requester });
    }
    Ok(visible)
}

/// The path-shard hash lives on `PathId` itself
/// ([`PathId::shard_key`], seeded with [`vpm_core::SHARD_SEED`]) so the
/// multi-core `ShardedCollector` and this bus agree on shard
/// assignment by construction. Only the HOP-key derivation is
/// bus-local.
fn shard_key_path(path: &PathId) -> u64 {
    path.shard_key()
}

fn shard_key_hop(hop: HopId) -> u64 {
    vpm_hash::lookup3::hash64(&hop.0.to_le_bytes(), vpm_core::SHARD_SEED ^ 0x55)
}

/// One shard: its entries behind a private `RwLock`, plus a high-water
/// mark (the number of fully inserted entries) readable without the
/// lock so idle shards can be skipped for free.
///
/// Cursor positions into a shard are **logical**: position `p` means
/// "the `p`-th entry ever inserted into this shard", and the physical
/// vector index is `p - trimmed`. Compaction removes a prefix and
/// advances `trimmed` by the same amount, so `high_water` (a logical
/// count) never moves backwards and caught-up cursors stay valid
/// across GC passes.
struct Shard {
    entries: RwLock<Vec<Arc<Published>>>,
    high_water: AtomicUsize,
    /// Entries ever reclaimed from this shard; only mutated under the
    /// shard's write lock, read with `Acquire` for the lock-free lag
    /// check.
    trimmed: AtomicUsize,
    /// Per-shard wakeups: bumped after an insert into *this* shard
    /// completes, so a path-filtered waiter blocks through foreign-
    /// shard traffic and wakes only for its own shard.
    notify: Notifier,
}

impl Shard {
    fn new() -> Self {
        Shard {
            entries: RwLock::new(Vec::new()),
            high_water: AtomicUsize::new(0),
            trimmed: AtomicUsize::new(0),
            notify: Notifier::default(),
        }
    }
}

/// A global subscription's cursor: per-shard scan positions plus a
/// reorder buffer, so a poll touches only shards with new entries and
/// never rescans what it has already seen.
struct GlobalCursor {
    requester: DomainId,
    /// Next global sequence number the stream owes the subscriber;
    /// everything below it was delivered (or skipped as invisible).
    next_seq: u64,
    /// How far into each shard's entry vector this subscription has
    /// scanned.
    shard_pos: Vec<usize>,
    /// Entries scanned but not yet released: they wait here until the
    /// contiguous sequence prefix reaches them (a publisher between
    /// claiming seq N and inserting must not be skipped when N+1 is
    /// polled first).
    pending: BTreeMap<u64, Arc<Published>>,
}

/// A path-filtered subscription's cursor: one shard, one position.
struct PathCursor {
    requester: DomainId,
    path: PathId,
    shard: usize,
    pos: usize,
    /// Entries below this global sequence number are suppressed — a
    /// resumed subscription ([`ShardedBus::subscribe_path_from`])
    /// rescans its shard from its oldest retained entry and relies on
    /// this filter to deliver exactly the not-yet-seen suffix.
    min_seq: u64,
}

enum ShardSub {
    Global(GlobalCursor),
    Path(PathCursor),
}

/// A `PathID`-sharded transport: entries land in the shard of each path
/// they reference (pathless frames shard by HOP), every shard behind
/// its own `RwLock`, so publishes and fetches for different paths
/// proceed without touching a common lock. A global atomic sequence
/// number preserves publish order, and every read path merges shards in
/// that order — fetch results are byte-identical for the same publish
/// sequence, for any shard count.
///
/// Subscriptions carry **per-shard cursors**: [`ReceiptTransport::poll`]
/// scans each shard only from where the previous poll left off, skips
/// shards whose high-water mark has not moved without taking their
/// lock, and a path-filtered subscription
/// ([`ReceiptTransport::subscribe_path`]) touches exactly one shard —
/// an idle poll on it reads a single atomic and no global state.
///
/// The one observable divergence from a single sequential store: a
/// path-filtered stream orders entries by shard arrival across polls (exact publish
/// order within each poll), so publishers racing each other on the
/// same path may be delivered slightly out of publish order — the
/// global stream's contiguous-prefix ordering is unaffected.
pub struct ShardedBus {
    shards: Vec<Shard>,
    keys: KeyRegistry,
    seq: AtomicU64,
    subs: Mutex<HashMap<u64, ShardSub>>,
    next_sub: AtomicU64,
    /// Shard read-lock acquisitions polling has performed: the
    /// observable the idle-fast-path tests pin.
    #[cfg(test)]
    poll_shard_scans: AtomicU64,
    /// Bus-wide wakeups for global subscriptions (path-filtered ones
    /// wait on their shard's notifier instead).
    notify: Notifier,
    /// The retention horizon: the lowest global sequence number still
    /// served as a full entry. Raised (never lowered) at the *start*
    /// of a compaction pass, so a racing poller sees a conservative
    /// typed `LaggedBehind` rather than a silently gapped stream.
    horizon: AtomicU64,
    /// Serializes compaction passes (publish/poll never take this).
    gc_lock: Mutex<()>,
    summaries: RwLock<Vec<IntervalSummary>>,
}

impl ShardedBus {
    /// A bus with `shards` internally-locked shards (at least 1).
    pub fn new(shards: usize) -> Self {
        ShardedBus {
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            keys: RwLock::new(HashMap::new()),
            seq: AtomicU64::new(0),
            subs: Mutex::new(HashMap::new()),
            next_sub: AtomicU64::new(0),
            #[cfg(test)]
            poll_shard_scans: AtomicU64::new(0),
            notify: Notifier::default(),
            horizon: AtomicU64::new(0),
            gc_lock: Mutex::new(()),
            summaries: RwLock::new(Vec::new()),
        }
    }

    fn add_sub(&self, sub: ShardSub) -> SubscriptionId {
        let id = self.next_sub.fetch_add(1, Ordering::Relaxed);
        self.subs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, sub);
        SubscriptionId(id)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The next global sequence number a publish would claim — the
    /// "now" point a freshly established remote subscription records
    /// as its resume position before any entry is delivered.
    pub fn publish_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Open a path-filtered subscription resuming at global sequence
    /// number `from_seq`: the shard is rescanned from its oldest
    /// retained entry and entries below `from_seq` are suppressed, so
    /// a reconnecting client sees exactly the suffix it has not been
    /// delivered. A `from_seq` past the head or below the retention
    /// horizon is refused, exactly as for
    /// [`ReceiptTransport::subscribe_from`].
    pub fn subscribe_path_from(
        &self,
        requester: DomainId,
        path: &PathId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError> {
        self.check_resume_point(from_seq)?;
        let shard = self.shard_of_path(path);
        // Logical position of the shard's oldest retained entry.
        #[expect(
            clippy::indexing_slicing,
            reason = "shard indices are reduced modulo the shard count"
        )]
        let pos = self.shards[shard].trimmed.load(Ordering::Acquire);
        Ok(self.add_sub(ShardSub::Path(PathCursor {
            requester,
            path: *path,
            shard,
            pos,
            min_seq: from_seq,
        })))
    }

    /// Refuse a resume point this bus never issued (past its head) or
    /// no longer holds the suffix of (below its retention horizon).
    fn check_resume_point(&self, from_seq: u64) -> Result<(), TransportError> {
        let head = self.seq.load(Ordering::Relaxed);
        if from_seq > head {
            return Err(TransportError::UnknownResumePoint { head });
        }
        let horizon = self.horizon.load(Ordering::Acquire);
        if from_seq < horizon {
            return Err(TransportError::LaggedBehind { horizon });
        }
        Ok(())
    }

    /// Would a poll of this cursor plausibly return or park entries?
    /// Readiness is judged from completed inserts only — parked
    /// out-of-order entries count only when the stream's next sequence
    /// number is among them, and shard movement is read from the
    /// high-water marks (atomics, no shard lock, no scan) — so a
    /// claimed-but-never-inserted sequence number never reports ready.
    fn global_ready(&self, c: &GlobalCursor) -> bool {
        c.pending.contains_key(&c.next_seq)
            || self
                .shards
                .iter()
                .zip(&c.shard_pos)
                .any(|(s, &pos)| s.high_water.load(Ordering::Acquire) > pos)
    }

    fn shard_of_path(&self, path: &PathId) -> usize {
        (shard_key_path(path) % self.shards.len() as u64) as usize
    }

    /// Shard indices an entry is stored under: one per distinct path,
    /// or the HOP shard for a pathless (empty) batch.
    fn shard_set(&self, published: &Published) -> Vec<usize> {
        let mut set: Vec<usize> = published
            .paths
            .iter()
            .map(|p| self.shard_of_path(p))
            .collect();
        if set.is_empty() {
            set.push((shard_key_hop(published.hop) % self.shards.len() as u64) as usize);
        }
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Collect entries matching `pred` across all shards, deduplicated
    /// (multi-path entries are stored once per path shard) and merged
    /// in global publish order.
    fn collect<F: Fn(&Published) -> bool>(&self, pred: F) -> Vec<Arc<Published>> {
        let mut seen = HashSet::new();
        let mut out: Vec<Arc<Published>> = Vec::new();
        for shard in &self.shards {
            for p in shard
                .entries
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                if pred(p) && seen.insert(p.seq) {
                    out.push(Arc::clone(p));
                }
            }
        }
        out.sort_by_key(|p| p.seq);
        out
    }

    /// Incremental poll of a global subscription: scan only shards
    /// whose high-water mark moved, park out-of-order arrivals in the
    /// cursor's reorder buffer, and release the contiguous sequence
    /// prefix. A cursor behind the retention horizon is a typed
    /// [`TransportError::LaggedBehind`], repeated on every poll until
    /// the subscriber re-subscribes — never a silently gapped stream.
    fn poll_global(&self, c: &mut GlobalCursor) -> Result<Vec<Arc<Published>>, TransportError> {
        let horizon = self.horizon.load(Ordering::Acquire);
        if c.next_seq < horizon {
            return Err(TransportError::LaggedBehind { horizon });
        }
        // Idle fast path: nothing has claimed a sequence number past
        // the cursor and nothing is parked — no shard is touched.
        if c.pending.is_empty() && self.seq.load(Ordering::Relaxed) <= c.next_seq {
            return Ok(Vec::new());
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_pos has one entry per shard, and the start index is clamped to the entry count"
        )]
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.high_water.load(Ordering::Acquire) <= c.shard_pos[i] {
                continue; // shard idle since the last poll: skip lock-free
            }
            #[cfg(test)]
            self.poll_shard_scans.fetch_add(1, Ordering::Relaxed);
            let entries = shard.entries.read().unwrap_or_else(PoisonError::into_inner);
            // Physical scan start: the cursor's logical position minus
            // the reclaimed prefix. Entries GC removed below it all had
            // `seq < horizon <= next_seq` (checked above), so skipping
            // them drops nothing the stream still owes.
            let trimmed = shard.trimmed.load(Ordering::Acquire);
            let start = c.shard_pos[i].saturating_sub(trimmed).min(entries.len());
            for e in &entries[start..] {
                // `>= next_seq` drops the second copy of a multi-shard
                // entry whose first copy was already released.
                if e.seq >= c.next_seq {
                    c.pending.entry(e.seq).or_insert_with(|| Arc::clone(e));
                }
            }
            c.shard_pos[i] = trimmed + entries.len();
        }
        let mut fresh = Vec::new();
        while let Some(e) = c.pending.remove(&c.next_seq) {
            c.next_seq += 1;
            if e.visible_to(c.requester) {
                fresh.push(e);
            }
        }
        Ok(fresh)
    }

    /// Poll of a path-filtered subscription: exactly one shard, and an
    /// idle shard costs one atomic load — no lock, no global sequence
    /// read. A cursor whose shard position fell behind the shard's
    /// reclaimed prefix is a typed [`TransportError::LaggedBehind`]
    /// (the reclaimed entries *may* have referenced the watched path;
    /// the transport refuses to guess).
    fn poll_path(&self, c: &mut PathCursor) -> Result<Vec<Arc<Published>>, TransportError> {
        #[expect(
            clippy::indexing_slicing,
            reason = "shard indices are reduced modulo the shard count"
        )]
        let shard = &self.shards[c.shard];
        if c.pos < shard.trimmed.load(Ordering::Acquire) {
            return Err(TransportError::LaggedBehind {
                horizon: self.horizon.load(Ordering::Acquire),
            });
        }
        if shard.high_water.load(Ordering::Acquire) <= c.pos {
            return Ok(Vec::new());
        }
        #[cfg(test)]
        self.poll_shard_scans.fetch_add(1, Ordering::Relaxed);
        let entries = shard.entries.read().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the lock: a GC pass may have trimmed past the
        // cursor between the lock-free check and the lock.
        let trimmed = shard.trimmed.load(Ordering::Acquire);
        if c.pos < trimmed {
            return Err(TransportError::LaggedBehind {
                horizon: self.horizon.load(Ordering::Acquire),
            });
        }
        let start = (c.pos - trimmed).min(entries.len());
        #[expect(
            clippy::indexing_slicing,
            reason = "the start index is clamped to the entry count"
        )]
        let mut fresh: Vec<Arc<Published>> = entries[start..]
            .iter()
            .filter(|e| {
                e.seq >= c.min_seq && e.paths.contains(&c.path) && e.visible_to(c.requester)
            })
            .cloned()
            .collect();
        c.pos = trimmed + entries.len();
        fresh.sort_by_key(|e| e.seq);
        Ok(fresh)
    }
}

impl ReceiptTransport for ShardedBus {
    fn register_key(&self, hop: HopId, key: HopKey) -> Result<KeyEpoch, TransportError> {
        register_key_in(&self.keys, hop, key)
    }

    fn rotate_key(&self, hop: HopId, new_key: HopKey) -> Result<KeyEpoch, TransportError> {
        rotate_key_in(&self.keys, hop, new_key)
    }

    fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch> {
        key_epoch_in(&self.keys, hop)
    }

    fn publish(
        &self,
        domain: DomainId,
        frame: WireFrame,
        on_path: Vec<DomainId>,
    ) -> Result<u64, TransportError> {
        // Admit before consuming a sequence number so rejected frames
        // leave no gap in the fetch order.
        let published = admit(&self.keys, 0, domain, frame, on_path)?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let published = Arc::new(Published { seq, ..published });
        let touched = self.shard_set(&published);
        for &shard in &touched {
            #[expect(
                clippy::indexing_slicing,
                reason = "shard indices are reduced modulo the shard count"
            )]
            let shard = &self.shards[shard];
            let mut entries = shard
                .entries
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            entries.push(Arc::clone(&published));
            // Published under the write lock, so a poller that sees
            // the new high-water mark and then locks sees the entry.
            // `trimmed` only mutates under this same lock, so the sum
            // is the consistent logical insert count.
            let trimmed = shard.trimmed.load(Ordering::Relaxed);
            shard
                .high_water
                .store(trimmed + entries.len(), Ordering::Release);
        }
        // Wake blocked waiters only after every insert completed:
        // path waiters on exactly the shards touched, global waiters
        // on the bus-wide notifier. Bumping outside the write locks
        // keeps publishers from serializing on waiter wakeup.
        for &shard in &touched {
            #[expect(
                clippy::indexing_slicing,
                reason = "shard indices are reduced modulo the shard count"
            )]
            self.shards[shard].notify.bump();
        }
        self.notify.bump();
        Ok(seq)
    }

    fn fetch(
        &self,
        requester: DomainId,
        hop: HopId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let visible = apply_visibility(requester, self.collect(|p| p.hop == hop))?;
        check_epochs(&self.keys, &visible)?;
        Ok(visible)
    }

    fn fetch_path(
        &self,
        requester: DomainId,
        path: &PathId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        // The whole point of path sharding: one shard holds every frame
        // referencing this path.
        #[expect(
            clippy::indexing_slicing,
            reason = "shard indices are reduced modulo the shard count"
        )]
        let shard = &self.shards[self.shard_of_path(path)];
        let mut matching: Vec<Arc<Published>> = shard
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|p| p.paths.contains(path))
            .cloned()
            .collect();
        matching.sort_by_key(|p| p.seq);
        let visible = apply_visibility(requester, matching)?;
        check_epochs(&self.keys, &visible)?;
        Ok(visible)
    }

    fn subscribe(&self, requester: DomainId) -> SubscriptionId {
        // `shard_pos` starts at 0: every entry already present has a
        // sequence number below the subscription point (publishers
        // claim their number before inserting), so the first poll's
        // scan filters them out by `seq` and later polls never revisit
        // them.
        self.add_sub(ShardSub::Global(GlobalCursor {
            requester,
            next_seq: self.seq.load(Ordering::Relaxed),
            shard_pos: vec![0; self.shards.len()],
            pending: BTreeMap::new(),
        }))
    }

    fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId {
        let shard = self.shard_of_path(path);
        // Start at the logical end of the shard: reclaimed prefix + retained.
        let pos = {
            #[expect(
                clippy::indexing_slicing,
                reason = "shard indices are reduced modulo the shard count"
            )]
            let s = &self.shards[shard];
            let entries = s.entries.read().unwrap_or_else(PoisonError::into_inner);
            s.trimmed.load(Ordering::Relaxed) + entries.len()
        };
        self.add_sub(ShardSub::Path(PathCursor {
            requester,
            path: *path,
            shard,
            pos,
            min_seq: 0,
        }))
    }

    fn subscribe_from(
        &self,
        requester: DomainId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError> {
        self.check_resume_point(from_seq)?;
        Ok(self.add_sub(ShardSub::Global(GlobalCursor {
            requester,
            next_seq: from_seq,
            shard_pos: vec![0; self.shards.len()],
            pending: BTreeMap::new(),
        })))
    }

    fn poll(&self, sub: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError> {
        let mut subs = self.subs.lock().unwrap_or_else(PoisonError::into_inner);
        let cursor = subs
            .get_mut(&sub.0)
            .ok_or(TransportError::UnknownSubscription(sub))?;
        match cursor {
            ShardSub::Global(c) => self.poll_global(c),
            ShardSub::Path(c) => self.poll_path(c),
        }
    }

    fn wait(&self, sub: SubscriptionId, timeout: Duration) -> Result<WaitOutcome, TransportError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "bounds a blocking-wait timeout; never feeds a verdict"
        )]
        let deadline = Instant::now() + timeout;
        loop {
            // Snapshot the relevant notifier *before* judging
            // readiness: a publish that lands between the check and
            // the block moves the count past the snapshot, so
            // `wait_past` returns immediately — no lost wakeup.
            // Compaction passes bump the same notifiers, so a parked
            // waiter the GC overran wakes here and surfaces
            // `LaggedBehind` instead of sleeping on a reclaimed page.
            let (ready, notifier, seen) = {
                let mut subs = self.subs.lock().unwrap_or_else(PoisonError::into_inner);
                let cursor = subs
                    .get_mut(&sub.0)
                    .ok_or(TransportError::UnknownSubscription(sub))?;
                match cursor {
                    ShardSub::Global(c) => {
                        let seen = self.notify.current();
                        let horizon = self.horizon.load(Ordering::Acquire);
                        if c.next_seq < horizon {
                            return Err(TransportError::LaggedBehind { horizon });
                        }
                        (self.global_ready(c), &self.notify, seen)
                    }
                    ShardSub::Path(c) => {
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "shard indices are reduced modulo the shard count"
                        )]
                        let shard = &self.shards[c.shard];
                        let seen = shard.notify.current();
                        if c.pos < shard.trimmed.load(Ordering::Acquire) {
                            return Err(TransportError::LaggedBehind {
                                horizon: self.horizon.load(Ordering::Acquire),
                            });
                        }
                        let ready = shard.high_water.load(Ordering::Acquire) > c.pos;
                        (ready, &shard.notify, seen)
                    }
                }
            };
            if ready {
                return Ok(WaitOutcome::Ready);
            }
            if !notifier.wait_past(seen, deadline) {
                return Ok(WaitOutcome::TimedOut);
            }
        }
    }

    fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError> {
        self.subs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&sub.0)
            .map(|_| ())
            .ok_or(TransportError::UnknownSubscription(sub))
    }

    fn subscriptions(&self) -> usize {
        self.subs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn len(&self) -> usize {
        let mut seen = HashSet::new();
        self.shards
            .iter()
            .flat_map(|s| {
                s.entries
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .map(|p| p.seq)
                    .collect::<Vec<_>>()
            })
            .filter(|&s| seen.insert(s))
            .count()
    }

    fn compact_before(&self, before_seq: u64) -> Result<CompactionReport, TransportError> {
        let _pass = self.gc_lock.lock().unwrap_or_else(PoisonError::into_inner);
        let cut = before_seq.min(self.seq.load(Ordering::Relaxed));
        let old = self.horizon.load(Ordering::Acquire);
        if cut <= old {
            return Ok(CompactionReport {
                reclaimed: 0,
                horizon: old,
            });
        }
        // Raise the horizon before touching any shard: a poller racing
        // this pass sees a conservative typed `LaggedBehind` (the
        // entries may still be present for a moment), never a stream
        // that silently resumed past reclaimed entries.
        self.horizon.store(cut, Ordering::Release);
        // Dedup by sequence number: a multi-path entry lives in several
        // shards but is reclaimed (and folded into its HOP's summary)
        // once, in global sequence order.
        let mut dropped: BTreeMap<u64, Arc<Published>> = BTreeMap::new();
        for shard in &self.shards {
            let mut entries = shard
                .entries
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let before = entries.len();
            entries.retain(|e| {
                if e.seq < cut {
                    dropped.entry(e.seq).or_insert_with(|| Arc::clone(e));
                    false
                } else {
                    true
                }
            });
            let removed = before - entries.len();
            // Mutated under the shard write lock; `high_water` (a
            // logical count) is deliberately untouched.
            shard.trimmed.fetch_add(removed, Ordering::Release);
        }
        fold_summaries(
            &mut self
                .summaries
                .write()
                .unwrap_or_else(PoisonError::into_inner),
            dropped.values(),
        );
        // The horizon, trims, and summaries are all published; release
        // the pass guard before waking waiters so wakeups never
        // serialize behind a concurrent GC pass.
        drop(_pass);
        // Wake every parked waiter so cursors the pass overran report
        // `LaggedBehind` now, not at their next timeout.
        for shard in &self.shards {
            shard.notify.bump();
        }
        self.notify.bump();
        Ok(CompactionReport {
            reclaimed: dropped.len() as u64,
            horizon: cut,
        })
    }

    fn horizon(&self) -> Result<u64, TransportError> {
        Ok(self.horizon.load(Ordering::Acquire))
    }

    fn summaries(&self) -> Result<Vec<IntervalSummary>, TransportError> {
        Ok(self
            .summaries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpm_core::receipt::{AggId, AggReceipt, SampleReceipt, SampleRecord};
    use vpm_hash::Digest;
    use vpm_packet::{HeaderSpec, SimDuration, SimTime};

    fn path(n: u8) -> PathId {
        PathId {
            spec: HeaderSpec::new(
                format!("10.{n}.0.0/16").parse().unwrap(),
                "192.168.0.0/24".parse().unwrap(),
            ),
            prev_hop: Some(HopId(3)),
            next_hop: Some(HopId(5)),
            max_diff: SimDuration::from_millis(2),
        }
    }

    /// Test-only hooks into the bus's private state.
    impl ShardedBus {
        /// Claim a global sequence number and never insert the entry —
        /// exactly what a publisher that dies between `seq.fetch_add`
        /// and its shard insert leaves behind. A global subscription's
        /// contiguous-prefix stream stalls at this number forever.
        fn claim_seq_and_die(&self) -> u64 {
            self.seq.fetch_add(1, Ordering::Relaxed)
        }

        /// Shard scans (shard read-lock acquisitions) polling has
        /// performed since construction. An idle poll — global or
        /// path-filtered — must not move this counter.
        fn poll_shard_scans(&self) -> u64 {
            self.poll_shard_scans.load(Ordering::Relaxed)
        }
    }

    /// The deterministic per-HOP test key.
    fn hop_key(hop: HopId) -> HopKey {
        HopKey::from_seed(0xabc ^ hop.0 as u64)
    }

    fn batch(hop: HopId, seq: u64, path_n: u8) -> (ReceiptBatch, HopKey) {
        let b = ReceiptBatch {
            hop,
            batch_seq: seq,
            samples: vec![SampleReceipt {
                path: path(path_n),
                samples: vec![SampleRecord {
                    pkt_id: Digest(0x1000 + seq),
                    time: SimTime::from_micros(10 * seq),
                }],
            }],
            aggregates: vec![AggReceipt {
                path: path(path_n),
                agg: AggId {
                    first: Digest(1),
                    last: Digest(2),
                },
                pkt_cnt: 100,
                agg_trans: vec![],
            }],
        };
        (b, hop_key(hop))
    }

    /// Sign-and-encode with the HOP's epoch-0 key (every suite HOP
    /// registers exactly once).
    fn frame(b: &ReceiptBatch) -> WireFrame {
        WireEncoder::precise()
            .encode_signed(b, &hop_key(b.hop), KeyEpoch(0))
            .expect("test batch encodes")
    }

    /// Every transport behaviour the paper requires, exercised
    /// identically against any implementation.
    fn transport_suite(t: &dyn ReceiptTransport) {
        let (b, key) = batch(HopId(5), 0, 1);
        assert_eq!(t.register_key(HopId(5), key), Ok(KeyEpoch(0)));
        // Same-key re-registration is idempotent; a different key is a
        // refused overwrite, not a silent one.
        assert_eq!(t.register_key(HopId(5), key), Ok(KeyEpoch(0)));
        let wrong = HopKey::from_seed(0xdead_beef);
        assert_eq!(
            t.register_key(HopId(5), wrong),
            Err(TransportError::KeyAlreadyRegistered { hop: HopId(5) })
        );
        assert_eq!(t.key_epoch(HopId(5)), Some(KeyEpoch(0)));
        assert_eq!(t.key_epoch(HopId(99)), None);
        t.publish(
            DomainId(2),
            frame(&b),
            vec![DomainId(0), DomainId(1), DomainId(2)],
        )
        .unwrap();

        // On-path fetch returns the decoded batch, Arc-shared.
        let got = t.fetch(DomainId(1), HopId(5)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hop, HopId(5));
        assert_eq!(got[0].batch, b);
        let again = t.fetch(DomainId(1), HopId(5)).unwrap();
        assert!(
            Arc::ptr_eq(&got[0], &again[0]),
            "fetch must share entries, not deep-clone them"
        );

        // Path-scoped fetch finds the same entry; a foreign path is empty.
        let by_path = t.fetch_path(DomainId(0), &path(1)).unwrap();
        assert_eq!(by_path.len(), 1);
        assert!(Arc::ptr_eq(&by_path[0], &got[0]));
        assert!(t.fetch_path(DomainId(0), &path(9)).unwrap().is_empty());

        // Privacy rule: an off-path domain gets an explicit refusal.
        assert_eq!(
            t.fetch(DomainId(9), HopId(5)),
            Err(TransportError::NotOnPath {
                requester: DomainId(9)
            })
        );
        assert_eq!(
            t.fetch_path(DomainId(9), &path(1)),
            Err(TransportError::NotOnPath {
                requester: DomainId(9)
            })
        );

        // A frame signed with the wrong key — the forgery the key
        // registry exists to stop — is refused.
        let forged = WireEncoder::precise()
            .encode_signed(&b, &wrong, KeyEpoch(0))
            .unwrap();
        assert_eq!(
            t.publish(DomainId(2), forged, vec![DomainId(2)]),
            Err(TransportError::BadMac { hop: HopId(5) })
        );

        // An unsigned frame is refused.
        let unsigned = WireEncoder::precise().encode(&b).unwrap();
        assert_eq!(
            t.publish(DomainId(2), unsigned, vec![DomainId(2)]),
            Err(TransportError::Unsigned { hop: HopId(5) })
        );

        // A frame claiming an epoch the registry never issued is
        // refused even when signed with the right key material.
        let future = WireEncoder::precise()
            .encode_signed(&b, &key, KeyEpoch(5))
            .unwrap();
        assert_eq!(
            t.publish(DomainId(2), future, vec![DomainId(2)]),
            Err(TransportError::UnknownKeyEpoch {
                hop: HopId(5),
                epoch: KeyEpoch(5)
            })
        );

        // Unknown HOPs and malformed frames are refused.
        let (unknown, _) = batch(HopId(77), 0, 1);
        assert_eq!(
            t.publish(DomainId(2), frame(&unknown), vec![DomainId(2)]),
            Err(TransportError::UnknownHop(HopId(77)))
        );
        assert!(matches!(
            t.publish(DomainId(2), WireFrame::from_bytes(vec![1, 2, 3]), vec![]),
            Err(TransportError::Malformed(_))
        ));
        assert_eq!(t.len(), 1);

        // Subscriptions see exactly what is published after them, once.
        let sub = t.subscribe(DomainId(1));
        assert!(t.poll(sub).unwrap().is_empty());
        let (b2, key2) = batch(HopId(6), 0, 2);
        t.register_key(HopId(6), key2).unwrap();
        t.publish(DomainId(3), frame(&b2), vec![DomainId(1), DomainId(3)])
            .unwrap();
        let polled = t.poll(sub).unwrap();
        assert_eq!(polled.len(), 1);
        assert_eq!(polled[0].batch, b2);
        assert!(t.poll(sub).unwrap().is_empty(), "a poll drains the stream");
        // A hidden publish is skipped silently by the stream.
        let (b3, key3) = batch(HopId(7), 0, 3);
        t.register_key(HopId(7), key3).unwrap();
        t.publish(DomainId(4), frame(&b3), vec![DomainId(4)])
            .unwrap();
        assert!(t.poll(sub).unwrap().is_empty());
        assert_eq!(
            t.poll(SubscriptionId(999)),
            Err(TransportError::UnknownSubscription(SubscriptionId(999)))
        );
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());

        // Path-filtered subscriptions deliver exactly the entries whose
        // frames reference the path, each exactly once, in publish
        // order; foreign paths and hidden entries are skipped silently.
        let psub = t.subscribe_path(DomainId(1), &path(4));
        assert!(t.poll(psub).unwrap().is_empty());
        let (b4, key4) = batch(HopId(8), 0, 4);
        t.register_key(HopId(8), key4).unwrap();
        t.publish(DomainId(5), frame(&b4), vec![DomainId(1), DomainId(5)])
            .unwrap();
        let (b5, key5) = batch(HopId(9), 0, 5); // foreign path
        t.register_key(HopId(9), key5).unwrap();
        t.publish(DomainId(5), frame(&b5), vec![DomainId(1), DomainId(5)])
            .unwrap();
        let polled = t.poll(psub).unwrap();
        assert_eq!(polled.len(), 1, "only the watched path's frame");
        assert_eq!(polled[0].batch, b4);
        assert!(t.poll(psub).unwrap().is_empty(), "exactly once");
        let (b4b, _) = batch(HopId(8), 1, 4);
        t.publish(DomainId(5), frame(&b4b), vec![DomainId(5)])
            .unwrap(); // hidden from DomainId(1)
        assert!(t.poll(psub).unwrap().is_empty());
        assert_eq!(t.len(), 6);

        // Explicit rotation: the new key signs at the next epoch; the
        // epoch-0 frame already in circulation keeps verifying at
        // fetch because old epochs stay in the registry.
        let rotated = HopKey::from_seed(0xabc ^ 5 ^ 0x0f0f_0f0f);
        assert_eq!(
            t.rotate_key(HopId(55), rotated),
            Err(TransportError::UnknownHop(HopId(55))),
            "rotation is not registration"
        );
        assert_eq!(t.rotate_key(HopId(5), rotated), Ok(KeyEpoch(1)));
        assert_eq!(t.key_epoch(HopId(5)), Some(KeyEpoch(1)));
        let (brot, _) = batch(HopId(5), 3, 1);
        t.publish_batch(
            DomainId(2),
            &brot,
            Profile::Precise,
            vec![DomainId(1), DomainId(2)],
            &rotated,
        )
        .unwrap();
        let got = t.fetch(DomainId(1), HopId(5)).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].epoch, KeyEpoch(0));
        assert_eq!(got[1].epoch, KeyEpoch(1));
        assert_eq!(got[1].batch, brot);
        // The pre-rotation key no longer signs at the current epoch.
        let (bold, old_key) = batch(HopId(5), 4, 1);
        assert_eq!(
            t.publish_batch(
                DomainId(2),
                &bold,
                Profile::Precise,
                vec![DomainId(2)],
                &old_key
            ),
            Err(TransportError::BadMac { hop: HopId(5) })
        );
        assert_eq!(t.len(), 7);

        // Event-driven lifecycle: a subscription with undelivered
        // entries is ready immediately; once drained, `wait` blocks
        // until the timeout; `unsubscribe` drops the cursor and turns
        // the id into a typed error on every entry point.
        assert_eq!(t.subscriptions(), 2);
        assert_eq!(
            t.wait(sub, Duration::from_millis(500)),
            Ok(WaitOutcome::Ready)
        );
        assert!(!t.poll(sub).unwrap().is_empty());
        assert_eq!(
            t.wait(sub, Duration::from_millis(5)),
            Ok(WaitOutcome::TimedOut)
        );
        assert_eq!(
            t.wait(SubscriptionId(999), Duration::from_millis(5)),
            Err(TransportError::UnknownSubscription(SubscriptionId(999)))
        );
        t.unsubscribe(sub).unwrap();
        t.unsubscribe(psub).unwrap();
        assert_eq!(t.subscriptions(), 0, "unsubscribe drops cursor state");
        assert_eq!(t.poll(sub), Err(TransportError::UnknownSubscription(sub)));
        assert_eq!(
            t.wait(sub, Duration::from_millis(5)),
            Err(TransportError::UnknownSubscription(sub))
        );
        assert_eq!(
            t.unsubscribe(sub),
            Err(TransportError::UnknownSubscription(sub))
        );
        // Ids are never reused: a fresh subscription gets a new id even
        // though the old cursors are gone.
        let fresh = t.subscribe(DomainId(1));
        assert_ne!(fresh, sub);
        assert_ne!(fresh, psub);
        t.unsubscribe(fresh).unwrap();
    }

    #[test]
    fn sharded_bus_passes_the_suite_for_1_4_16_shards() {
        for shards in [1, 4, 16] {
            let bus = ShardedBus::new(shards);
            assert_eq!(bus.shards(), shards);
            transport_suite(&bus);
        }
    }

    /// The cursor design's observable contract: an idle poll costs no
    /// shard scan (global subscriptions skip unmoved shards via their
    /// high-water marks; a path-filtered subscription checks only its
    /// own shard's mark and never reads the global sequence), and a
    /// busy poll scans exactly the shards that moved.
    #[test]
    fn idle_polls_touch_no_shard() {
        let bus = ShardedBus::new(8);
        let (_, key1) = batch(HopId(1), 0, 1);
        bus.register_key(HopId(1), key1).unwrap();
        let gsub = bus.subscribe(DomainId(0));
        let psub = bus.subscribe_path(DomainId(0), &path(1));
        assert!(bus.poll(gsub).unwrap().is_empty());
        assert!(bus.poll(psub).unwrap().is_empty());
        assert_eq!(bus.poll_shard_scans(), 0, "idle polls must be free");

        // Publish onto a path whose shard differs from path 1's.
        let other = (2..64u8)
            .find(|&n| bus.shard_of_path(&path(n)) != bus.shard_of_path(&path(1)))
            .expect("some path lands in another shard");
        let (b, keyb) = batch(HopId(2), 0, other);
        bus.register_key(HopId(2), keyb).unwrap();
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();

        // The path subscription's shard did not move: its poll is still
        // free even though the global sequence advanced.
        assert!(bus.poll(psub).unwrap().is_empty());
        assert_eq!(
            bus.poll_shard_scans(),
            0,
            "a foreign-shard publish must not cost the path sub a scan"
        );

        // The global subscription scans exactly the one moved shard…
        assert_eq!(bus.poll(gsub).unwrap().len(), 1);
        assert_eq!(bus.poll_shard_scans(), 1);
        // …and is free again once drained.
        assert!(bus.poll(gsub).unwrap().is_empty());
        assert_eq!(bus.poll_shard_scans(), 1);

        // Traffic on the watched path costs the path sub one scan.
        let (b1, _) = batch(HopId(1), 1, 1);
        bus.publish(DomainId(1), frame(&b1), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(bus.poll(psub).unwrap().len(), 1);
        assert_eq!(bus.poll_shard_scans(), 2);
    }

    #[test]
    fn sharded_bus_spreads_entries_across_shards() {
        let bus = ShardedBus::new(4);
        let mut used = std::collections::HashSet::new();
        for n in 0..16u8 {
            used.insert(bus.shard_of_path(&path(n)));
        }
        assert!(
            used.len() >= 3,
            "16 distinct paths landed in only {} of 4 shards",
            used.len()
        );
    }

    /// A subscription must deliver every visible entry exactly once
    /// even while publishers race: a publisher that claimed sequence N
    /// but has not yet inserted into its shard when a later entry is
    /// polled must not be skipped (the cursor advances only through
    /// the contiguous sequence prefix).
    #[test]
    fn polling_under_concurrent_publishers_loses_nothing() {
        let bus = ShardedBus::new(8);
        for h in 1..=4u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        let sub = bus.subscribe(DomainId(0));
        let total = 4 * 16;
        let mut seen: Vec<u64> = Vec::new();
        std::thread::scope(|s| {
            for h in 1..=4u16 {
                let bus = &bus;
                s.spawn(move || {
                    for i in 0..16u64 {
                        let (b, _) = batch(HopId(h), i, (i % 7) as u8);
                        bus.publish(DomainId(h), frame(&b), vec![DomainId(0), DomainId(h)])
                            .unwrap();
                    }
                });
            }
            // Poll concurrently with the publishers.
            while seen.len() < total {
                seen.extend(bus.poll(sub).unwrap().iter().map(|p| p.seq));
            }
        });
        assert_eq!(seen.len(), total);
        assert!(
            seen.windows(2).all(|w| w[1] == w[0] + 1),
            "stream must be gap-free and in publish order: {seen:?}"
        );
        assert!(bus.poll(sub).unwrap().is_empty());
    }

    /// A path-filtered subscription under racing publishers still
    /// delivers exactly its path's entries, exactly once, with
    /// monotonically increasing sequence numbers (one publisher per
    /// path ⇒ shard-arrival order is publish order).
    #[test]
    fn path_filtered_polling_under_racing_publishers_is_exactly_once() {
        let bus = ShardedBus::new(8);
        for h in 1..=4u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        let watched = path(2);
        let sub = bus.subscribe_path(DomainId(0), &watched);
        let per_hop = 12usize;
        let mut got: Vec<Arc<Published>> = Vec::new();
        std::thread::scope(|s| {
            for h in 1..=4u16 {
                let bus = &bus;
                s.spawn(move || {
                    for i in 0..per_hop as u64 {
                        let (b, _) = batch(HopId(h), i, h as u8);
                        bus.publish(DomainId(h), frame(&b), vec![DomainId(0), DomainId(h)])
                            .unwrap();
                    }
                });
            }
            while got.len() < per_hop {
                got.extend(bus.poll(sub).unwrap());
            }
        });
        assert_eq!(got.len(), per_hop);
        assert!(got.iter().all(|p| p.hop == HopId(2)), "only path 2's hop");
        assert!(
            got.windows(2).all(|w| w[0].seq < w[1].seq),
            "exactly once, in increasing sequence order"
        );
        assert!(bus.poll(sub).unwrap().is_empty());
    }

    #[test]
    fn concurrent_publishers_do_not_contend_on_one_lock() {
        let bus = ShardedBus::new(8);
        for h in 1..=8u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        std::thread::scope(|s| {
            for h in 1..=8u16 {
                let bus = &bus;
                s.spawn(move || {
                    for i in 0..4u64 {
                        let (b, _) = batch(HopId(h), i, h as u8);
                        bus.publish(DomainId(h), frame(&b), vec![DomainId(h)])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(bus.len(), 32);
        // Every publisher's frames come back complete and in order.
        for h in 1..=8u16 {
            let got = bus.fetch(DomainId(h), HopId(h)).unwrap();
            assert_eq!(got.len(), 4);
            assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
        }
    }

    /// A blocked waiter is woken by a publish that lands *after* it
    /// went to sleep — the event-driven path, not a poll race.
    #[test]
    fn wait_wakes_on_a_publish_that_lands_mid_wait() {
        for shards in [1, 8] {
            let bus = ShardedBus::new(shards);
            let (b, key) = batch(HopId(3), 0, 2);
            bus.register_key(HopId(3), key).unwrap();
            let sub = bus.subscribe(DomainId(0));
            let psub = bus.subscribe_path(DomainId(0), &path(2));
            std::thread::scope(|s| {
                let bus = &bus;
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(30));
                    bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
                        .unwrap();
                });
                for handle in [sub, psub] {
                    assert_eq!(
                        bus.wait(handle, Duration::from_secs(10)),
                        Ok(WaitOutcome::Ready),
                        "a publish must wake the blocked waiter"
                    );
                    assert_eq!(bus.poll(handle).unwrap().len(), 1);
                }
            });
        }
    }

    /// Acceptance criterion: an idle subscriber blocked in `wait`
    /// performs **zero** shard scans — blocking replaces spinning, it
    /// does not hide it.
    #[test]
    fn blocked_waiters_scan_no_shards() {
        let bus = ShardedBus::new(8);
        let gsub = bus.subscribe(DomainId(0));
        let psub = bus.subscribe_path(DomainId(0), &path(2));
        let before = bus.poll_shard_scans();
        for sub in [gsub, psub] {
            assert_eq!(
                bus.wait(sub, Duration::from_millis(40)),
                Ok(WaitOutcome::TimedOut)
            );
        }
        assert_eq!(
            bus.poll_shard_scans(),
            before,
            "a blocked wait must not touch any shard"
        );
    }

    /// Path subscriptions block on their own shard's notifier: a
    /// publish routed to a *different* shard neither wakes nor readies
    /// them, while the matching shard's waiter sees `Ready`.
    #[test]
    fn path_waits_use_per_shard_wakeups() {
        let bus = ShardedBus::new(8);
        // Find two paths on distinct shards.
        let (p1, p2) = {
            let first = path(1);
            let mut other = None;
            for n in 2..=20u8 {
                if bus.shard_of_path(&path(n)) != bus.shard_of_path(&first) {
                    other = Some(path(n));
                    break;
                }
            }
            (first, other.expect("8 shards must split 20 paths"))
        };
        let (b, key) = batch(HopId(3), 0, 1); // references p1 only
        bus.register_key(HopId(3), key).unwrap();
        let sub_hit = bus.subscribe_path(DomainId(0), &p1);
        let sub_miss = bus.subscribe_path(DomainId(0), &p2);
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(
            bus.wait(sub_hit, Duration::from_secs(5)),
            Ok(WaitOutcome::Ready)
        );
        assert_eq!(
            bus.wait(sub_miss, Duration::from_millis(30)),
            Ok(WaitOutcome::TimedOut),
            "a foreign shard's publish must not ready this waiter"
        );
    }

    /// The dead-publisher failure this PR exists for: a sequence
    /// number claimed but never inserted stalls a global cursor's
    /// contiguous prefix. `wait` must judge readiness from *completed*
    /// inserts, so the waiter times out instead of spinning ready.
    #[test]
    fn a_claimed_but_never_inserted_seq_does_not_ready_a_wait() {
        let bus = ShardedBus::new(4);
        let (b, key) = batch(HopId(3), 0, 1);
        bus.register_key(HopId(3), key).unwrap();
        let sub = bus.subscribe(DomainId(0));
        bus.claim_seq_and_die();
        assert_eq!(
            bus.wait(sub, Duration::from_millis(40)),
            Ok(WaitOutcome::TimedOut),
            "a claimed-only seq is not an event"
        );
        assert!(bus.poll(sub).unwrap().is_empty());
        // A real publish after the hole wakes the waiter; the poll
        // parks it behind the hole (nothing released yet) and the next
        // wait sees the parked entry is not the stream head.
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(
            bus.wait(sub, Duration::from_secs(5)),
            Ok(WaitOutcome::Ready)
        );
        assert!(
            bus.poll(sub).unwrap().is_empty(),
            "the hole blocks the contiguous prefix"
        );
        assert_eq!(
            bus.wait(sub, Duration::from_millis(40)),
            Ok(WaitOutcome::TimedOut),
            "a parked out-of-order entry must not re-ready the wait"
        );
    }

    /// Cursor resume: `subscribe_from` / `subscribe_path_from` replay
    /// exactly the suffix at-or-past the resume point — no duplicates,
    /// no skips — which is what a reconnecting TCP client relies on.
    #[test]
    fn resumed_subscriptions_replay_exactly_the_suffix() {
        let bus = ShardedBus::new(4);
        for h in 1..=2u16 {
            let (_, key) = batch(HopId(h), 0, h as u8);
            bus.register_key(HopId(h), key).unwrap();
        }
        let mut seqs = Vec::new();
        for i in 0..10u64 {
            let h = 1 + (i % 2) as u16;
            let (b, _) = batch(HopId(h), i, h as u8);
            seqs.push(
                bus.publish(DomainId(h), frame(&b), vec![DomainId(0), DomainId(h)])
                    .unwrap(),
            );
        }
        let resume = seqs[4];
        let sub = bus.subscribe_from(DomainId(0), resume).unwrap();
        let got: Vec<u64> = bus.poll(sub).unwrap().iter().map(|p| p.seq).collect();
        assert_eq!(got, seqs[4..], "global resume replays seq >= resume once");
        assert!(bus.poll(sub).unwrap().is_empty());

        // Path resume: only path-1 entries (hop 1) at-or-past resume.
        let psub = bus
            .subscribe_path_from(DomainId(0), &path(1), resume)
            .unwrap();
        let got: Vec<u64> = bus.poll(psub).unwrap().iter().map(|p| p.seq).collect();
        let expect: Vec<u64> = seqs[4..].iter().copied().step_by(2).collect();
        assert_eq!(got, expect, "path resume filters below the resume seq");
        assert!(bus.poll(psub).unwrap().is_empty());

        // A resume point past the head is another bus's cursor (a
        // restarted bus counts from 0 again): refused, on both kinds
        // of subscription, with the head this bus is at. Resuming at
        // the head itself is "now".
        let head = TransportError::UnknownResumePoint { head: 10 };
        assert_eq!(bus.subscribe_from(DomainId(0), 11), Err(head.clone()));
        assert_eq!(bus.subscribe_from(DomainId(0), u64::MAX), Err(head.clone()));
        assert_eq!(
            bus.subscribe_path_from(DomainId(0), &path(1), 11),
            Err(head)
        );
        let now = bus.subscribe_from(DomainId(0), 10).unwrap();
        assert!(bus.poll(now).unwrap().is_empty());
        let (b, _) = batch(HopId(1), 99, 1);
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(bus.poll(now).unwrap().len(), 1);
    }

    /// The retention contract, exercised identically at every shard
    /// count:
    /// compaction reclaims a prefix into per-HOP summaries and raises
    /// the horizon; caught-up cursors stream on seamlessly; lagging
    /// cursors get a sticky typed error; the boundary is exact.
    fn retention_suite(t: &dyn ReceiptTransport) {
        let on = vec![DomainId(0), DomainId(1)];
        for h in [5u16, 6] {
            let (_, key) = batch(HopId(h), 0, 1);
            t.register_key(HopId(h), key).unwrap();
        }
        // Publish `i` as hop 5/6 alternating, on paths 0/1 alternating.
        let pub_i = |i: u64| {
            let hop = HopId(5 + (i % 2) as u16);
            let (b, _) = batch(hop, i, (i % 2) as u8);
            t.publish(DomainId(1), frame(&b), on.clone()).unwrap()
        };
        for i in 0..6 {
            pub_i(i);
        }
        assert_eq!(t.horizon(), Ok(0));
        assert!(t.summaries().unwrap().is_empty());

        let caught = t.subscribe(DomainId(0));
        let lagging = t.subscribe(DomainId(0));
        let lagging_path = t.subscribe_path(DomainId(0), &path(0));
        for i in 6..10 {
            pub_i(i);
        }
        assert_eq!(t.poll(caught).unwrap().len(), 4);

        // Reclaim everything below sequence number 8.
        assert_eq!(
            t.compact_before(8),
            Ok(CompactionReport {
                reclaimed: 8,
                horizon: 8
            })
        );
        assert_eq!(t.horizon(), Ok(8));
        assert_eq!(t.len(), 2, "only the suffix is retained");
        // The horizon is monotone: a lower cut is a no-op.
        assert_eq!(
            t.compact_before(4),
            Ok(CompactionReport {
                reclaimed: 0,
                horizon: 8
            })
        );

        // The caught-up cursor is unaffected…
        assert!(t.poll(caught).unwrap().is_empty());
        // …the cursors the pass overran get the typed error — sticky
        // on every entry point until the subscription is dropped.
        let lagged = Err(TransportError::LaggedBehind { horizon: 8 });
        assert_eq!(t.poll(lagging), lagged);
        assert_eq!(
            t.poll(lagging),
            lagged,
            "the error repeats, no silent resume"
        );
        assert_eq!(
            t.wait(lagging, Duration::from_millis(10)),
            Err(TransportError::LaggedBehind { horizon: 8 })
        );
        assert_eq!(t.poll(lagging_path), lagged, "path cursors lag too");
        t.unsubscribe(lagging).unwrap();
        t.unsubscribe(lagging_path).unwrap();

        // The pass left per-HOP digests of exactly the reclaimed
        // prefix: hop 5 published seqs 0,2,4,6 and hop 6 seqs 1,3,5,7,
        // each frame carrying 1 sample + 1 aggregate of 100 packets.
        let sums = t.summaries().unwrap();
        assert_eq!(sums.len(), 2, "one summary per HOP per pass");
        assert_eq!(
            (sums[0].hop, sums[0].first_seq, sums[0].last_seq),
            (HopId(5), 0, 6)
        );
        assert_eq!(
            (sums[1].hop, sums[1].first_seq, sums[1].last_seq),
            (HopId(6), 1, 7)
        );
        for s in &sums {
            assert_eq!((s.frames, s.samples, s.aggregates), (4, 4, 4));
            assert_eq!(s.pkt_cnt, 400);
            assert_ne!(s.digest, 0, "the digest binds the reclaimed bytes");
        }

        // Compaction exactly at the epoch boundary: a cut at the next
        // publish sequence reclaims everything, and the caught-up
        // cursor sits exactly on the horizon — polling empty, timing
        // out, never lagging.
        pub_i(10);
        assert_eq!(t.poll(caught).unwrap().len(), 1);
        assert_eq!(
            t.compact_before(u64::MAX),
            Ok(CompactionReport {
                reclaimed: 3,
                horizon: 11
            }),
            "a future cut clamps to the publish sequence"
        );
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert!(t.poll(caught).unwrap().is_empty());
        assert_eq!(
            t.wait(caught, Duration::from_millis(10)),
            Ok(WaitOutcome::TimedOut)
        );
        // The stream continues seamlessly past the boundary.
        pub_i(11);
        let got = t.poll(caught).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 11);
        assert_eq!(
            t.summaries().unwrap().len(),
            4,
            "the second pass appended its own per-HOP summaries"
        );
        t.unsubscribe(caught).unwrap();
    }

    #[test]
    fn sharded_bus_passes_the_retention_suite_for_1_4_16_shards() {
        for shards in [1, 4, 16] {
            retention_suite(&ShardedBus::new(shards));
        }
    }

    /// The GC edge case the ISSUE names: a subscriber parked in
    /// `wait()` across a compaction pass must wake with the typed
    /// `LaggedBehind`, not a stale page and not a timeout.
    #[test]
    fn a_waiter_parked_across_a_gc_pass_wakes_lagged_not_stale() {
        let bus = ShardedBus::new(4);
        let (b, key) = batch(HopId(3), 0, 1);
        bus.register_key(HopId(3), key).unwrap();
        // A hole at seq 0 parks the global cursor: the entry at seq 1
        // is polled into the reorder buffer but never released, so the
        // waiter genuinely blocks.
        bus.claim_seq_and_die();
        bus.publish(DomainId(1), frame(&b), vec![DomainId(0), DomainId(1)])
            .unwrap();
        let sub = bus.subscribe_from(DomainId(0), 0).unwrap();
        assert!(bus.poll(sub).unwrap().is_empty(), "parked behind the hole");
        std::thread::scope(|s| {
            let bus = &bus;
            let waiter = s.spawn(move || bus.wait(sub, Duration::from_secs(10)));
            std::thread::sleep(Duration::from_millis(30));
            // GC deliberately moves the horizon past the hole while
            // the waiter is blocked.
            assert_eq!(
                bus.compact_before(2),
                Ok(CompactionReport {
                    reclaimed: 1,
                    horizon: 2
                })
            );
            assert_eq!(
                waiter.join().unwrap(),
                Err(TransportError::LaggedBehind { horizon: 2 }),
                "the GC pass must wake the parked waiter with the typed error"
            );
        });
        bus.unsubscribe(sub).unwrap();
        // Resuming below the horizon is refused; resuming at it works,
        // which is also how a stream stuck on a dead publisher's hole
        // gets unstuck.
        assert_eq!(
            bus.subscribe_from(DomainId(0), 1),
            Err(TransportError::LaggedBehind { horizon: 2 })
        );
        assert_eq!(
            bus.subscribe_path_from(DomainId(0), &path(1), 0),
            Err(TransportError::LaggedBehind { horizon: 2 })
        );
        let sub2 = bus.subscribe_from(DomainId(0), 2).unwrap();
        let (b2, _) = batch(HopId(3), 1, 1);
        bus.publish(DomainId(1), frame(&b2), vec![DomainId(0), DomainId(1)])
            .unwrap();
        assert_eq!(bus.poll(sub2).unwrap().len(), 1);
        bus.unsubscribe(sub2).unwrap();
    }

    /// One subscription of the [`Model`].
    struct ModelCursor {
        requester: DomainId,
        next_seq: u64,
        /// When set, the stream only carries entries referencing this path.
        path: Option<PathId>,
    }

    /// The transport contract as a sequential program: every admitted
    /// entry in one vector (index = global sequence number), a horizon
    /// below which entries count as reclaimed, and a cursor map. No
    /// storage locks, no notifier, no trait impl — what the bus spreads
    /// over shards, atomics and reorder buffers is here a slice and an
    /// index. Admission, the key registry and summary folding go through
    /// the bus's own helpers, so the model is an independent statement
    /// of storage, ordering, visibility, cursors and retention only.
    #[derive(Default)]
    struct Model {
        keys: KeyRegistry,
        log: Vec<Arc<Published>>,
        horizon: u64,
        cursors: HashMap<u64, ModelCursor>,
        next_sub: u64,
        summaries: Vec<IntervalSummary>,
    }

    type Entries = Result<Vec<Arc<Published>>, TransportError>;

    impl Model {
        fn head(&self) -> u64 {
            self.log.len() as u64
        }

        fn retained(&self) -> &[Arc<Published>] {
            &self.log[self.horizon as usize..]
        }

        fn publish(
            &mut self,
            domain: DomainId,
            frame: WireFrame,
            on_path: Vec<DomainId>,
        ) -> Result<u64, TransportError> {
            let seq = self.head();
            self.log
                .push(Arc::new(admit(&self.keys, seq, domain, frame, on_path)?));
            Ok(seq)
        }

        /// The privacy rule: hidden entries are dropped, and a result
        /// emptied by hiding is an explicit refusal.
        fn fetch_where(&self, requester: DomainId, pred: impl Fn(&Published) -> bool) -> Entries {
            let (visible, hidden): (Vec<_>, Vec<_>) = self
                .retained()
                .iter()
                .filter(|p| pred(p))
                .cloned()
                .partition(|p| p.on_path.contains(&requester));
            if visible.is_empty() && !hidden.is_empty() {
                return Err(TransportError::NotOnPath { requester });
            }
            Ok(visible)
        }

        fn subscribe_at(
            &mut self,
            requester: DomainId,
            from_seq: u64,
            path: Option<PathId>,
        ) -> Result<SubscriptionId, TransportError> {
            if from_seq > self.head() {
                return Err(TransportError::UnknownResumePoint { head: self.head() });
            }
            if from_seq < self.horizon {
                return Err(TransportError::LaggedBehind {
                    horizon: self.horizon,
                });
            }
            let id = self.next_sub;
            self.next_sub += 1;
            self.cursors.insert(
                id,
                ModelCursor {
                    requester,
                    next_seq: from_seq,
                    path,
                },
            );
            Ok(SubscriptionId(id))
        }

        fn poll(&mut self, sub: SubscriptionId) -> Entries {
            let head = self.head();
            let c = self
                .cursors
                .get_mut(&sub.0)
                .ok_or(TransportError::UnknownSubscription(sub))?;
            if c.next_seq < self.horizon {
                return Err(TransportError::LaggedBehind {
                    horizon: self.horizon,
                });
            }
            let fresh = self.log[c.next_seq as usize..]
                .iter()
                .filter(|p| p.on_path.contains(&c.requester))
                .filter(|p| c.path.is_none_or(|f| p.paths.contains(&f)))
                .cloned()
                .collect();
            c.next_seq = head;
            Ok(fresh)
        }

        fn unsubscribe(&mut self, sub: SubscriptionId) -> Result<(), TransportError> {
            self.cursors
                .remove(&sub.0)
                .map(|_| ())
                .ok_or(TransportError::UnknownSubscription(sub))
        }

        fn compact_before(&mut self, before_seq: u64) -> CompactionReport {
            let cut = before_seq.min(self.head()).max(self.horizon);
            let dropped = &self.log[self.horizon as usize..cut as usize];
            fold_summaries(&mut self.summaries, dropped.iter());
            let reclaimed = dropped.len() as u64;
            self.horizon = cut;
            CompactionReport {
                reclaimed,
                horizon: cut,
            }
        }
    }

    /// What a differential step does; its operands live in [`Op`].
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Register,
        Rotate,
        Publish,
        Fetch,
        FetchPath,
        Subscribe,
        SubscribePath,
        SubscribeFrom,
        Poll,
        Unsubscribe,
        Compact,
        Observe,
    }

    /// One step of a differential run. `raw` is reduced against the
    /// model's state when the step is applied (subscription ids modulo
    /// ids issued + 2, sequence numbers modulo the head plus a margin),
    /// so most operands land on live ids and retained entries and some
    /// just outside them.
    #[derive(Debug, Clone, Copy)]
    struct Op {
        kind: Kind,
        hop: u16,
        path: u8,
        requester: u16,
        raw: u64,
    }

    /// `raw` of a publish the bus admits: shape 7 (the HOP's current key
    /// and epoch, one path), visible to domain 0 only.
    const ADMITTED: u64 = 7 + (1 << 3);

    impl Op {
        /// A scripted step: HOP 1, path 2, requester 0.
        fn new(kind: Kind, raw: u64) -> Op {
            Op {
                kind,
                hop: 1,
                path: 2,
                requester: 0,
                raw,
            }
        }

        /// Decode one random word: the low bits select the operation
        /// (publishes and polls weighted up), the rest are operands.
        fn decode(word: u64) -> Op {
            use Kind::*;
            let kind = match word % 32 {
                0..=3 => Register,
                4 => Rotate,
                5..=14 => Publish,
                15 | 16 => Fetch,
                17 | 18 => FetchPath,
                19 => Subscribe,
                20 => SubscribePath,
                21 => SubscribeFrom,
                22..=26 => Poll,
                27 => Unsubscribe,
                28 | 29 => Compact,
                _ => Observe,
            };
            Op {
                kind,
                hop: 1 + (word >> 8) as u16 % 3,
                path: (word >> 12) as u8 % 5,
                requester: [0, 1, 7][(word >> 16) as usize % 3],
                raw: word >> 24,
            }
        }

        /// The frame a publish step sends, by `raw % 8`: 0 = signed
        /// with the HOP's epoch-0 key (still admitted after a
        /// rotation), 1 = unsigned, 2 = wrong key, 3 = an epoch never
        /// issued, 4 = two paths, 5 = pathless, 6 = garbage, 7 = the
        /// current key and epoch.
        fn frame(self, keys: &KeyRegistry, batch_seq: u64) -> WireFrame {
            let ring = keys
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&HopId(self.hop))
                .cloned();
            let ring = ring.unwrap_or_else(|| vec![HopKey::from_seed(0)]);
            let (key, epoch) = (ring[ring.len() - 1], ring.len() as u32 - 1);
            let (mut b, _) = batch(HopId(self.hop), batch_seq, self.path);
            let shape = self.raw % 8;
            if shape == 4 {
                b.samples.push(SampleReceipt {
                    path: path((self.path + 1) % 5),
                    samples: vec![],
                });
            } else if shape == 5 {
                (b.samples, b.aggregates) = (vec![], vec![]);
            }
            let enc = WireEncoder::precise();
            let signed = |key: HopKey, epoch: u32| enc.encode_signed(&b, &key, KeyEpoch(epoch));
            match shape {
                0 => signed(ring[0], 0),
                1 => enc.encode(&b),
                2 => signed(HopKey::from_seed(0xbad), epoch),
                3 => signed(key, epoch + 3),
                6 => Ok(WireFrame::from_bytes(vec![1, 2, 3])),
                _ => signed(key, epoch),
            }
            .expect("test batches encode")
        }
    }

    /// The invariant reads no longer recompute, proven here instead:
    /// every entry a read returned MAC-verifies under the key its
    /// HOP's ring holds at the entry's epoch. Returns the `(HOP, epoch)`
    /// pairs it checked.
    fn authenticated(keys: &KeyRegistry, read: &Entries) -> Vec<(HopId, KeyEpoch)> {
        let keys = keys.read().unwrap_or_else(PoisonError::into_inner);
        read.iter()
            .flatten()
            .map(|p| {
                let key = keys
                    .get(&p.hop)
                    .and_then(|ring| ring.get(p.epoch.0 as usize));
                assert!(
                    key.is_some_and(|key| p.frame.verify_mac(key)),
                    "seq {} from {} at {} does not verify",
                    p.seq,
                    p.hop,
                    p.epoch
                );
                (p.hop, p.epoch)
            })
            .collect()
    }

    /// A `ShardedBus` and a [`Model`] fed the same steps.
    struct Differential {
        shards: usize,
        bus: ShardedBus,
        model: Model,
        steps: u64,
        /// The kinds of typed error compared so far.
        refusals: HashSet<std::mem::Discriminant<TransportError>>,
        /// Every `(HOP, epoch)` an entry returned by a read was
        /// MAC-verified under.
        verified: HashSet<(HopId, KeyEpoch)>,
    }

    impl Differential {
        fn new(shards: usize) -> Self {
            Differential {
                shards,
                bus: ShardedBus::new(shards),
                model: Model::default(),
                steps: 0,
                refusals: HashSet::new(),
                verified: HashSet::new(),
            }
        }

        fn refused(&self, with: &TransportError) -> bool {
            self.refusals.contains(&std::mem::discriminant(with))
        }

        /// Apply `op` to both sides and assert they returned the same
        /// entries (sequence number, frame bytes, provenance) or the
        /// same typed error, and that every entry the bus returned is
        /// [`authenticated`].
        fn apply(&mut self, op: Op) {
            let Differential {
                shards,
                bus,
                model,
                steps,
                refusals,
                verified,
            } = self;
            let mut read = |keys: &KeyRegistry, entries: Entries| -> Entries {
                verified.extend(authenticated(keys, &entries));
                entries
            };
            *steps += 1;
            macro_rules! same {
                ($bus:expr, $model:expr) => {{
                    let (got, want) = ($bus, $model);
                    if let Err(e) = &want {
                        refusals.insert(std::mem::discriminant(e));
                    }
                    assert_eq!(got, want, "{shards} shards, step {steps}: {op:?}");
                }};
            }
            let (hop, requester, watched) = (HopId(op.hop), DomainId(op.requester), path(op.path));
            let sub = SubscriptionId(op.raw % (model.next_sub + 2));
            match op.kind {
                Kind::Register => {
                    let key = HopKey::from_seed(u64::from(op.hop) * 2 + op.raw % 2);
                    same!(
                        bus.register_key(hop, key),
                        register_key_in(&model.keys, hop, key)
                    );
                }
                Kind::Rotate => {
                    let key = HopKey::from_seed(1000 + *steps);
                    same!(
                        bus.rotate_key(hop, key),
                        rotate_key_in(&model.keys, hop, key)
                    );
                    assert_eq!(bus.key_epoch(hop), key_epoch_in(&model.keys, hop));
                }
                Kind::Publish => {
                    let frame = op.frame(&model.keys, *steps);
                    let on_path = match (op.raw >> 3) % 3 {
                        0 => vec![DomainId(0), DomainId(1)],
                        1 => vec![DomainId(0)],
                        _ => vec![DomainId(9)],
                    };
                    same!(
                        bus.publish(DomainId(9), frame.clone(), on_path.clone()),
                        model.publish(DomainId(9), frame, on_path)
                    );
                }
                Kind::Fetch => same!(
                    read(&model.keys, bus.fetch(requester, hop)),
                    model.fetch_where(requester, |p| p.hop == hop)
                ),
                Kind::FetchPath => same!(
                    read(&model.keys, bus.fetch_path(requester, &watched)),
                    model.fetch_where(requester, |p| p.paths.contains(&watched))
                ),
                Kind::Subscribe => same!(
                    Ok(bus.subscribe(requester)),
                    model.subscribe_at(requester, model.head(), None)
                ),
                Kind::SubscribePath => same!(
                    Ok(bus.subscribe_path(requester, &watched)),
                    model.subscribe_at(requester, model.head(), Some(watched))
                ),
                Kind::SubscribeFrom => {
                    let from = op.raw % (model.head() + 3);
                    same!(
                        bus.subscribe_from(requester, from),
                        model.subscribe_at(requester, from, None)
                    );
                }
                Kind::Poll => {
                    let before = model
                        .cursors
                        .get(&sub.0)
                        .map(|c| (c.path, c.next_seq, c.requester));
                    match (before, model.poll(sub), read(&model.keys, bus.poll(sub))) {
                        // The one place shard count shows: a path
                        // cursor lags only once *its own shard*
                        // reclaimed past it. When everything reclaimed
                        // at or past the cursor lived in other shards
                        // the bus keeps serving the stream, and the
                        // stream is then provably whole: nothing
                        // reclaimed referenced the path, and the
                        // retained suffix arrives complete. The model's
                        // cursor is stuck on its error, so the handle
                        // is retired on both sides.
                        (
                            Some((Some(watched), next_seq, requester)),
                            Err(TransportError::LaggedBehind { .. }),
                            Ok(got),
                        ) if *shards > 1 => {
                            let owed = &model.log[next_seq as usize..model.horizon as usize];
                            assert!(owed.iter().all(|p| !p.paths.contains(&watched)), "{op:?}");
                            let whole =
                                model.fetch_where(requester, |p| p.paths.contains(&watched));
                            assert_eq!(got, whole.unwrap_or_default(), "{op:?}");
                            same!(bus.unsubscribe(sub), model.unsubscribe(sub));
                        }
                        (_, want, got) => same!(got, want),
                    }
                }
                Kind::Unsubscribe => same!(bus.unsubscribe(sub), model.unsubscribe(sub)),
                Kind::Compact => {
                    let before = op.raw % (model.head() + 2);
                    same!(bus.compact_before(before), Ok(model.compact_before(before)));
                }
                Kind::Observe => {
                    same!(bus.horizon(), Ok(model.horizon));
                    same!(bus.summaries(), Ok(model.summaries.clone()));
                    assert_eq!(bus.len(), model.retained().len(), "{op:?}");
                    assert_eq!(bus.subscriptions(), model.cursors.len(), "{op:?}");
                }
            }
        }
    }

    proptest::proptest! {
        /// `ShardedBus` at 1, 4 and 16 shards is, step for step, the
        /// sequential [`Model`]: random interleavings of key
        /// registration and rotation, good / stale-epoch / unsigned /
        /// wrong-key / unissued-epoch / multi-path / pathless / garbage
        /// publishes, both fetches, all three subscribes, polls and
        /// unsubscribes of live and dead ids, compaction passes and the
        /// read-only observers agree on every returned entry and every
        /// typed error. Each case ends on a scripted tail that forces
        /// the retention outcomes, so `LaggedBehind` (at poll and at
        /// resume), a successful resume, `NotOnPath` and
        /// `UnknownSubscription` are compared in every case, not just
        /// in lucky ones, and a HOP whose key rotates between admission
        /// and read has both epochs' entries served by every read.
        /// Every entry any read returns is MAC-checked test-side.
        #[test]
        fn sharded_bus_matches_the_sequential_model(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 40..160)
        ) {
            for shards in [1, 4, 16] {
                let mut run = Differential::new(shards);
                for &word in &words {
                    run.apply(Op::decode(word));
                }
                // The tail: overrun a cursor, refuse and accept a resume,
                // ask from off the path, poll a dead id. Scripted
                // operands are below their moduli, so they are taken
                // literally.
                run.refusals.clear();
                run.apply(Op::new(Kind::Register, 0));
                let overrun = run.model.next_sub;
                run.apply(Op::new(Kind::Subscribe, 0));
                run.apply(Op::new(Kind::Publish, ADMITTED));
                run.apply(Op::new(Kind::Publish, ADMITTED));
                run.apply(Op::new(Kind::Compact, run.model.head()));
                proptest::prop_assert!(run.model.horizon >= 2, "the pass reclaims both publishes");
                run.apply(Op::new(Kind::Poll, overrun));
                run.apply(Op::new(Kind::SubscribeFrom, 0));
                proptest::prop_assert!(run.refused(&TransportError::LaggedBehind { horizon: 0 }));
                run.apply(Op::new(Kind::Publish, ADMITTED));
                let resumed = run.model.next_sub;
                run.apply(Op::new(Kind::SubscribeFrom, run.model.horizon));
                proptest::prop_assert!(run.model.cursors.contains_key(&resumed));
                run.apply(Op::new(Kind::Poll, resumed));
                run.apply(Op { requester: 7, ..Op::new(Kind::Fetch, 0) });
                run.apply(Op::new(Kind::Poll, resumed + 2));
                proptest::prop_assert!(
                    run.refused(&TransportError::NotOnPath { requester: DomainId(7) })
                        && run.refused(&TransportError::UnknownSubscription(SubscriptionId(0)))
                );
                // Rotation between admission and read, on a HOP the
                // random steps never touch: publish at epoch 0, rotate,
                // publish at epoch 1. Every read serves both entries,
                // and both verify test-side under their own epoch.
                let fresh = |kind, raw| Op { hop: 4, ..Op::new(kind, raw) };
                let (global, on_path) = (run.model.next_sub, run.model.next_sub + 1);
                run.apply(fresh(Kind::Subscribe, 0));
                run.apply(fresh(Kind::SubscribePath, 0));
                run.apply(fresh(Kind::Register, 0));
                run.apply(fresh(Kind::Publish, ADMITTED));
                run.apply(fresh(Kind::Rotate, 0));
                run.apply(fresh(Kind::Publish, ADMITTED));
                let both = [(HopId(4), KeyEpoch(0)), (HopId(4), KeyEpoch(1))];
                for read in [
                    fresh(Kind::Fetch, 0),
                    fresh(Kind::FetchPath, 0),
                    fresh(Kind::Poll, global),
                    fresh(Kind::Poll, on_path),
                ] {
                    run.verified.clear();
                    run.apply(read);
                    proptest::prop_assert!(both.iter().all(|e| run.verified.contains(e)), "{read:?}");
                }
                run.apply(Op::new(Kind::Observe, 0));
            }
        }
    }
}
