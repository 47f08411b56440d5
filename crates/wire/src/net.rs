//! The first out-of-process receipt transport: signed v2 frames over
//! length-prefixed TCP.
//!
//! The paper's dissemination plane (§7) crosses administrative
//! boundaries; everything before this module crossed, at most, a
//! thread boundary. Here the [`ReceiptTransport`] API becomes a
//! network protocol:
//!
//! * [`TcpServer`] owns a [`ShardedBus`] and serves it over TCP. Every
//!   enforcement point stays **server-side**: a frame published over
//!   the network goes through the same `admit` path as an in-process
//!   publish, so forged-MAC, unsigned, tampered, or unknown-epoch
//!   frames are refused with the same typed errors
//!   ([`TransportError::BadMac`] & friends), now serialized back to
//!   the offending client instead of trusted from it.
//! * [`TcpTransport`] is a client implementing [`ReceiptTransport`],
//!   so `vpm_sim::Scenario::run`, the fleet runner, and anything else
//!   written against the trait works unchanged across a socket. It
//!   reconnects on connection loss and resumes its subscriptions from
//!   the last delivered global sequence number — no duplicates, no
//!   skips (pinned by the loopback tests). If the server GC'd past
//!   the resume point while the client was away, re-establishment
//!   surfaces the typed [`TransportError::LaggedBehind`] instead of
//!   resuming with silently missing frames; a resume point past the
//!   server's head (a restarted server counts from 0 again) surfaces
//!   the typed [`TransportError::UnknownResumePoint`] instead of
//!   re-feeding sequence numbers with different frames.
//!
//! Retention is remote too: `compact_before` / `horizon` /
//! `summaries` round-trip to the server's bus, so an out-of-process
//! auditor can drive the GC cadence and read the per-HOP digests the
//! passes leave behind.
//!
//! # Session protocol
//!
//! On connect both sides send a 5-byte hello (`b"VPMN"` + version).
//! After that the stream is a sequence of messages, each a `u32`
//! little-endian byte length followed by that many bytes (capped at
//! [`MAX_MESSAGE_BYTES`]). Requests carry a 1-byte opcode + payload;
//! responses carry a 1-byte status (0 = ok, 1 = typed error) +
//! payload. All integers are little-endian; `PathId`s reuse the
//! codec's 24-byte encoding; keys travel as their 32 raw bytes
//! (loopback deployments — real key provisioning is a ROADMAP item).
//!
//! Subscriptions are server-side cursors on the bus. `Poll` responses
//! are bounded ([`MAX_ENTRIES_PER_RESPONSE`]): the server parks the
//! overflow in a per-subscription queue and sets a `more` flag, so one
//! enormous backlog cannot produce an unbounded message — that queue
//! is the session's backpressure. A client that disconnects (or whose
//! session drops) has its cursors unsubscribed by the server, so
//! abandoned connections do not leak bus state.
//!
//! # Panic policy
//!
//! Everything reachable from remote bytes is total: length prefixes,
//! opcodes, and payloads are bounds-checked through the codec's typed
//! reader, and malformed input produces an error response (or a
//! dropped connection), never a server panic.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vpm_core::receipt::PathId;
use vpm_hash::{HopKey, KeyEpoch, SHA256_DIGEST_BYTES};
use vpm_packet::{DomainId, HopId};

use crate::codec::{decode_path, encode_path, Reader, WireError, WireFrame, Writer};
use crate::transport::{
    CompactionReport, IntervalSummary, Published, ReceiptTransport, ShardedBus, SubscriptionId,
    TransportError, WaitOutcome,
};

/// Hello preamble both sides send on connect: magic + protocol version.
pub const NET_MAGIC: &[u8; 4] = b"VPMN";
/// Session protocol version.
pub const NET_VERSION: u8 = 1;
/// Upper bound on one length-prefixed message. Larger prefixes are a
/// protocol violation: the peer is refused, not buffered.
pub const MAX_MESSAGE_BYTES: usize = 16 * 1024 * 1024;
/// Most entries one `Poll` response carries; the rest waits in the
/// session's bounded queue behind a `more` flag.
pub const MAX_ENTRIES_PER_RESPONSE: usize = 1024;

/// Longest single blocking wait the server performs on a client's
/// behalf; a client wanting longer re-issues the request.
const MAX_SERVER_WAIT: Duration = Duration::from_secs(30);
/// The server slices blocking waits into chunks of this length so a
/// shutdown request is honoured promptly.
const WAIT_SLICE: Duration = Duration::from_millis(250);
/// Socket read timeout on server connections — the cadence at which a
/// blocked read re-checks the shutdown flag.
const SERVER_READ_SLICE: Duration = Duration::from_millis(200);
/// Client-side cap on waiting for one response; a server silent for
/// this long is treated as a dead connection.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

// Request opcodes.
const OP_REGISTER_KEY: u8 = 1;
const OP_ROTATE_KEY: u8 = 2;
const OP_KEY_EPOCH: u8 = 3;
const OP_PUBLISH: u8 = 4;
const OP_FETCH: u8 = 5;
const OP_FETCH_PATH: u8 = 6;
const OP_SUBSCRIBE: u8 = 7;
const OP_SUBSCRIBE_PATH: u8 = 8;
const OP_POLL: u8 = 9;
const OP_WAIT: u8 = 10;
const OP_UNSUBSCRIBE: u8 = 11;
const OP_LEN: u8 = 12;
const OP_COMPACT: u8 = 13;
const OP_HORIZON: u8 = 14;
const OP_SUMMARIES: u8 = 15;

// Typed-error wire codes (response status 1). Code 1 named the retired
// lookup3 batch-tag refusal and stays unassigned: a peer still sending
// it gets the `unknown error code` protocol error, never a reused
// meaning.
const ERR_BAD_MAC: u8 = 2;
const ERR_UNSIGNED: u8 = 3;
const ERR_UNKNOWN_KEY_EPOCH: u8 = 4;
const ERR_KEY_ALREADY_REGISTERED: u8 = 5;
const ERR_NOT_ON_PATH: u8 = 6;
const ERR_UNKNOWN_HOP: u8 = 7;
const ERR_MALFORMED: u8 = 8;
const ERR_UNKNOWN_SUBSCRIPTION: u8 = 9;
const ERR_PROTOCOL: u8 = 10;
const ERR_LAGGED_BEHIND: u8 = 11;
const ERR_UNKNOWN_RESUME_POINT: u8 = 12;

fn proto_err(msg: impl Into<String>) -> TransportError {
    TransportError::Protocol(msg.into())
}

fn conn_err(e: &io::Error) -> TransportError {
    TransportError::Connection(e.to_string())
}

/// Serialize a typed transport error into a status-1 response body.
fn encode_error(w: &mut Writer, e: &TransportError) {
    match e {
        TransportError::BadMac { hop } => {
            w.u8(ERR_BAD_MAC);
            w.u16(hop.0);
        }
        TransportError::Unsigned { hop } => {
            w.u8(ERR_UNSIGNED);
            w.u16(hop.0);
        }
        TransportError::UnknownKeyEpoch { hop, epoch } => {
            w.u8(ERR_UNKNOWN_KEY_EPOCH);
            w.u16(hop.0);
            w.u32(epoch.0);
        }
        TransportError::KeyAlreadyRegistered { hop } => {
            w.u8(ERR_KEY_ALREADY_REGISTERED);
            w.u16(hop.0);
        }
        TransportError::NotOnPath { requester } => {
            w.u8(ERR_NOT_ON_PATH);
            w.u16(requester.0);
        }
        TransportError::UnknownHop(hop) => {
            w.u8(ERR_UNKNOWN_HOP);
            w.u16(hop.0);
        }
        // `WireError` does not round-trip structurally; its rendering
        // does. The client surfaces it as a `Protocol` refusal.
        TransportError::Malformed(e) => {
            w.u8(ERR_MALFORMED);
            write_string(w, &e.to_string());
        }
        TransportError::UnknownSubscription(sub) => {
            w.u8(ERR_UNKNOWN_SUBSCRIPTION);
            w.u64(sub.0);
        }
        TransportError::Connection(msg) | TransportError::Protocol(msg) => {
            w.u8(ERR_PROTOCOL);
            write_string(w, msg);
        }
        TransportError::LaggedBehind { horizon } => {
            w.u8(ERR_LAGGED_BEHIND);
            w.u64(*horizon);
        }
        TransportError::UnknownResumePoint { head } => {
            w.u8(ERR_UNKNOWN_RESUME_POINT);
            w.u64(*head);
        }
    }
}

/// Decode a status-1 response body back into the typed error.
fn decode_error(r: &mut Reader<'_>) -> Result<TransportError, WireError> {
    Ok(match r.u8()? {
        ERR_BAD_MAC => TransportError::BadMac {
            hop: HopId(r.u16()?),
        },
        ERR_UNSIGNED => TransportError::Unsigned {
            hop: HopId(r.u16()?),
        },
        ERR_UNKNOWN_KEY_EPOCH => TransportError::UnknownKeyEpoch {
            hop: HopId(r.u16()?),
            epoch: KeyEpoch(r.u32()?),
        },
        ERR_KEY_ALREADY_REGISTERED => TransportError::KeyAlreadyRegistered {
            hop: HopId(r.u16()?),
        },
        ERR_NOT_ON_PATH => TransportError::NotOnPath {
            requester: DomainId(r.u16()?),
        },
        ERR_UNKNOWN_HOP => TransportError::UnknownHop(HopId(r.u16()?)),
        ERR_MALFORMED => {
            TransportError::Protocol(format!("server refused frame: {}", read_string(r)?))
        }
        ERR_UNKNOWN_SUBSCRIPTION => TransportError::UnknownSubscription(SubscriptionId(r.u64()?)),
        ERR_PROTOCOL => TransportError::Protocol(read_string(r)?),
        ERR_LAGGED_BEHIND => TransportError::LaggedBehind { horizon: r.u64()? },
        ERR_UNKNOWN_RESUME_POINT => TransportError::UnknownResumePoint { head: r.u64()? },
        other => TransportError::Protocol(format!("unknown error code {other}")),
    })
}

fn write_string(w: &mut Writer, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(u16::MAX as usize);
    w.u16(n as u16);
    #[expect(
        clippy::indexing_slicing,
        reason = "n <= bytes.len() from the read above"
    )]
    w.bytes(&bytes[..n]);
}

fn read_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    let n = r.u16()? as usize;
    Ok(String::from_utf8_lossy(r.take(n)?).into_owned())
}

fn write_domains(w: &mut Writer, domains: &[DomainId]) {
    w.u16(domains.len().min(u16::MAX as usize) as u16);
    for d in domains.iter().take(u16::MAX as usize) {
        w.u16(d.0);
    }
}

fn read_domains(r: &mut Reader<'_>) -> Result<Vec<DomainId>, WireError> {
    let n = r.u16()? as usize;
    r.can_hold(n, 2)?;
    (0..n).map(|_| Ok(DomainId(r.u16()?))).collect()
}

/// Serialize one published entry. The frame travels as its exact
/// published bytes, so the client re-decodes the same batch the server
/// admitted and fetch results stay byte-identical across transports.
fn write_entry(w: &mut Writer, p: &Published) {
    w.u64(p.seq);
    w.u16(p.domain.0);
    w.u16(p.hop.0);
    w.u32(p.epoch.0);
    write_domains(w, &p.on_path);
    let frame = p.frame.as_bytes();
    w.u32(frame.len() as u32);
    w.bytes(frame);
}

/// Rebuild a [`Published`] from the wire. The frame is re-decoded
/// locally (total, typed) to recover the batch and path table.
fn read_entry(r: &mut Reader<'_>) -> Result<Published, TransportError> {
    let seq = r.u64()?;
    let domain = DomainId(r.u16()?);
    let hop = HopId(r.u16()?);
    let epoch = KeyEpoch(r.u32()?);
    let on_path = read_domains(r)?;
    let frame_len = r.u32()? as usize;
    let frame = WireFrame::from_bytes(r.take(frame_len)?.to_vec());
    let decoded = frame
        .decode()
        .map_err(|e| proto_err(format!("server sent an undecodable frame: {e}")))?;
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

/// Fixed-size (58-byte) encoding of one interval summary.
fn write_summary(w: &mut Writer, s: &IntervalSummary) {
    w.u16(s.hop.0);
    w.u64(s.first_seq);
    w.u64(s.last_seq);
    w.u64(s.frames);
    w.u64(s.samples);
    w.u64(s.aggregates);
    w.u64(s.pkt_cnt);
    w.u64(s.digest);
}

fn read_summary(r: &mut Reader<'_>) -> Result<IntervalSummary, WireError> {
    Ok(IntervalSummary {
        hop: HopId(r.u16()?),
        first_seq: r.u64()?,
        last_seq: r.u64()?,
        frames: r.u64()?,
        samples: r.u64()?,
        aggregates: r.u64()?,
        pkt_cnt: r.u64()?,
        digest: r.u64()?,
    })
}

fn write_entries(w: &mut Writer, entries: &[Arc<Published>]) {
    w.u32(entries.len() as u32);
    for e in entries {
        write_entry(w, e);
    }
}

fn read_entries(r: &mut Reader<'_>) -> Result<Vec<Arc<Published>>, TransportError> {
    let n = r.u32()? as usize;
    // Entries are at least 20 bytes each; pre-flight the count so a
    // corrupt header cannot trigger a huge allocation.
    r.can_hold(n, 20).map_err(TransportError::Malformed)?;
    (0..n).map(|_| Ok(Arc::new(read_entry(r)?))).collect()
}

/// Write one length-prefixed message.
fn write_message(stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "message too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Outcome of a stop-aware blocking read on the server side.
enum ReadOutcome {
    /// A complete message body.
    Message(Vec<u8>),
    /// The peer closed the stream (EOF on a message boundary, or a
    /// torn prefix / truncated body — either way the session is over).
    Closed,
    /// The server is shutting down.
    Stopping,
}

/// Read exactly `buf.len()` bytes, re-checking `stop` on every read
/// timeout. Partial progress across timeouts is preserved — a slow
/// peer is not mistaken for a torn stream.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return Ok(false);
        }
        #[expect(clippy::indexing_slicing, reason = "filled < buf.len() in this loop")]
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-message",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one length-prefixed message, tolerating read-timeout slices.
fn read_message(stream: &mut TcpStream, stop: &AtomicBool) -> ReadOutcome {
    let mut prefix = [0u8; 4];
    // Distinguish "closed between messages" (clean EOF on the first
    // prefix byte) from "torn mid-prefix": both end the session.
    match read_full(stream, &mut prefix, stop) {
        Ok(true) => {}
        Ok(false) => return ReadOutcome::Stopping,
        Err(_) => return ReadOutcome::Closed,
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_MESSAGE_BYTES {
        return ReadOutcome::Closed;
    }
    let mut body = vec![0u8; len];
    match read_full(stream, &mut body, stop) {
        Ok(true) => ReadOutcome::Message(body),
        Ok(false) => ReadOutcome::Stopping,
        Err(_) => ReadOutcome::Closed,
    }
}

/// Per-connection server state: the session's bus subscriptions and
/// their bounded spillover queues (entries polled off the bus but not
/// yet shipped, because one response carries at most
/// [`MAX_ENTRIES_PER_RESPONSE`] entries).
#[derive(Default)]
struct Session {
    queues: HashMap<u64, VecDeque<Arc<Published>>>,
}

impl Session {
    fn close(&mut self, bus: &ShardedBus) {
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "unsubscribes every queue - the side effect is order-insensitive"
        )]
        for (&sub, _) in self.queues.iter() {
            let _ = bus.unsubscribe(SubscriptionId(sub));
        }
        self.queues.clear();
    }
}

/// Handle one request body, returning the response body.
fn handle_request(
    bus: &Arc<ShardedBus>,
    session: &mut Session,
    body: &[u8],
    stop: &AtomicBool,
) -> Vec<u8> {
    let mut w = Writer::default();
    match handle_request_inner(bus, session, body, stop) {
        Ok(payload) => {
            w.u8(0);
            w.bytes(&payload);
        }
        Err(e) => {
            w.u8(1);
            encode_error(&mut w, &e);
        }
    }
    w.into_vec()
}

fn handle_request_inner(
    bus: &Arc<ShardedBus>,
    session: &mut Session,
    body: &[u8],
    stop: &AtomicBool,
) -> Result<Vec<u8>, TransportError> {
    let mut r = Reader::new(body);
    let op = r.u8().map_err(|_| proto_err("empty request"))?;
    let mut w = Writer::default();
    let malformed = |e: WireError| proto_err(format!("malformed request: {e}"));
    match op {
        OP_REGISTER_KEY | OP_ROTATE_KEY => {
            let hop = HopId(r.u16().map_err(malformed)?);
            let key = HopKey::from_bytes(r.array::<SHA256_DIGEST_BYTES>().map_err(malformed)?);
            let epoch = if op == OP_REGISTER_KEY {
                bus.register_key(hop, key)?
            } else {
                bus.rotate_key(hop, key)?
            };
            w.u32(epoch.0);
        }
        OP_KEY_EPOCH => {
            let hop = HopId(r.u16().map_err(malformed)?);
            match bus.key_epoch(hop) {
                None => w.u8(0),
                Some(e) => {
                    w.u8(1);
                    w.u32(e.0);
                }
            }
        }
        OP_PUBLISH => {
            let domain = DomainId(r.u16().map_err(malformed)?);
            let on_path = read_domains(&mut r).map_err(malformed)?;
            let frame_len = r.u32().map_err(malformed)? as usize;
            let frame = WireFrame::from_bytes(r.take(frame_len).map_err(malformed)?.to_vec());
            // The enforcement point: `publish` runs the same admit
            // path as in-process, so forged frames die here with the
            // typed refusal serialized back to the publisher.
            let seq = bus.publish(domain, frame, on_path)?;
            w.u64(seq);
        }
        OP_FETCH => {
            let requester = DomainId(r.u16().map_err(malformed)?);
            let hop = HopId(r.u16().map_err(malformed)?);
            write_entries(&mut w, &bus.fetch(requester, hop)?);
        }
        OP_FETCH_PATH => {
            let requester = DomainId(r.u16().map_err(malformed)?);
            let path = decode_path(&mut r).map_err(malformed)?;
            write_entries(&mut w, &bus.fetch_path(requester, &path)?);
        }
        OP_SUBSCRIBE | OP_SUBSCRIBE_PATH => {
            let requester = DomainId(r.u16().map_err(malformed)?);
            let path = if op == OP_SUBSCRIBE_PATH {
                Some(decode_path(&mut r).map_err(malformed)?)
            } else {
                None
            };
            let resume = r.u8().map_err(malformed)?;
            let resume_seq = r.u64().map_err(malformed)?;
            let from = if resume == 1 {
                resume_seq
            } else {
                bus.publish_seq()
            };
            // A resume point the bus has GC'd past, or one past its
            // head, is refused with the typed `LaggedBehind` or
            // `UnknownResumePoint`, serialized back to the client —
            // never a cursor that silently skips or replays frames.
            let sub = match &path {
                None => bus.subscribe_from(requester, from)?,
                Some(p) => bus.subscribe_path_from(requester, p, from)?,
            };
            session.queues.insert(sub.0, VecDeque::new());
            w.u64(sub.0);
            w.u64(from);
        }
        OP_POLL => {
            let sub = SubscriptionId(r.u64().map_err(malformed)?);
            let queue = session
                .queues
                .get_mut(&sub.0)
                .ok_or(TransportError::UnknownSubscription(sub))?;
            if queue.is_empty() {
                queue.extend(bus.poll(sub)?);
            }
            let take = queue.len().min(MAX_ENTRIES_PER_RESPONSE);
            let batch: Vec<Arc<Published>> = queue.drain(..take).collect();
            write_entries(&mut w, &batch);
            w.u8(u8::from(!queue.is_empty()));
        }
        OP_WAIT => {
            let sub = SubscriptionId(r.u64().map_err(malformed)?);
            let timeout =
                Duration::from_millis(u64::from(r.u32().map_err(malformed)?)).min(MAX_SERVER_WAIT);
            let queue = session
                .queues
                .get(&sub.0)
                .ok_or(TransportError::UnknownSubscription(sub))?;
            let outcome = if queue.is_empty() {
                // Slice the blocking wait so shutdown stays prompt.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "bounds a blocking-wait timeout; never feeds a verdict"
                )]
                let deadline = Instant::now() + timeout;
                loop {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "bounds a blocking-wait timeout; never feeds a verdict"
                    )]
                    let now = Instant::now();
                    if now >= deadline || stop.load(Ordering::Relaxed) {
                        break WaitOutcome::TimedOut;
                    }
                    let slice = WAIT_SLICE.min(deadline - now);
                    match bus.wait(sub, slice)? {
                        WaitOutcome::Ready => break WaitOutcome::Ready,
                        WaitOutcome::TimedOut => {}
                    }
                }
            } else {
                WaitOutcome::Ready // undelivered spillover is an event
            };
            w.u8(match outcome {
                WaitOutcome::Ready => 0,
                WaitOutcome::TimedOut => 1,
            });
        }
        OP_UNSUBSCRIBE => {
            let sub = SubscriptionId(r.u64().map_err(malformed)?);
            session
                .queues
                .remove(&sub.0)
                .ok_or(TransportError::UnknownSubscription(sub))?;
            bus.unsubscribe(sub)?;
        }
        OP_LEN => {
            w.u64(bus.len() as u64);
        }
        OP_COMPACT => {
            let before_seq = r.u64().map_err(malformed)?;
            let report = bus.compact_before(before_seq)?;
            w.u64(report.reclaimed);
            w.u64(report.horizon);
        }
        OP_HORIZON => {
            w.u64(bus.horizon()?);
        }
        OP_SUMMARIES => {
            let sums = bus.summaries()?;
            w.u32(sums.len() as u32);
            for s in &sums {
                write_summary(&mut w, s);
            }
        }
        other => return Err(proto_err(format!("unknown opcode {other}"))),
    }
    Ok(w.into_vec())
}

/// Serve one accepted connection until the peer disconnects or the
/// server stops. The session's subscriptions are dropped on exit.
fn serve_connection(bus: Arc<ShardedBus>, mut stream: TcpStream, stop: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SERVER_READ_SLICE));
    let mut session = Session::default();
    // Hello exchange: send ours, require theirs.
    let mut ok = write_message_hello(&mut stream).is_ok();
    if ok {
        let mut hello = [0u8; 5];
        ok = matches!(read_full(&mut stream, &mut hello, &stop), Ok(true))
            && &hello[..4] == NET_MAGIC
            && hello[4] == NET_VERSION;
    }
    if ok {
        while let ReadOutcome::Message(body) = read_message(&mut stream, &stop) {
            let resp = handle_request(&bus, &mut session, &body, &stop);
            if write_message(&mut stream, &resp).is_err() {
                break;
            }
        }
    }
    session.close(&bus);
}

fn write_message_hello(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(NET_MAGIC)?;
    stream.write_all(&[NET_VERSION])?;
    stream.flush()
}

/// A TCP server fronting a [`ShardedBus`]. Dropping the server stops
/// the accept loop and asks live connection handlers to wind down.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `bus`. Each connection is handled on its own
    /// thread; session subscriptions die with their connection.
    pub fn bind(addr: impl ToSocketAddrs, bus: Arc<ShardedBus>) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let bus = Arc::clone(&bus);
                let stop = Arc::clone(&accept_stop);
                std::thread::spawn(move || serve_connection(bus, stream, stop));
            }
        });
        Ok(TcpServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wind down connection handlers. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One client-side subscription: enough to re-establish the server
/// cursor after a reconnect, resuming at `resume_seq`.
#[derive(Clone)]
struct ClientSub {
    requester: DomainId,
    path: Option<PathId>,
    /// The server-side cursor id, `None` until established (or after a
    /// connection loss invalidated it).
    server_sub: Option<u64>,
    /// Global sequence number to resume from; `None` until the first
    /// establishment fixes the subscription point.
    resume_seq: Option<u64>,
}

struct ClientState {
    conn: Option<TcpStream>,
    subs: HashMap<u64, ClientSub>,
    next_sub: u64,
}

/// A [`ReceiptTransport`] speaking the session protocol to a
/// [`TcpServer`]. One connection, guarded by a mutex — callers on
/// multiple threads serialize on it (the fleet runner publishes
/// complete per-path batches, so this is bandwidth-bound, not
/// latency-bound).
///
/// Connection loss is absorbed, not surfaced, wherever that is safe:
/// idempotent requests retry once on a fresh connection, and
/// subscriptions transparently re-establish server cursors resuming
/// from the last delivered sequence number. `publish` is the
/// exception — it is *not* retried, because a retry racing a
/// half-delivered publish could double-publish a receipt; the caller
/// sees [`TransportError::Connection`] and decides.
pub struct TcpTransport {
    addr: String,
    state: Mutex<ClientState>,
}

impl TcpTransport {
    /// Connect to a [`TcpServer`] at `addr` (`host:port`). Fails fast
    /// if the server is unreachable *now*; later connection losses are
    /// reconnected on demand.
    pub fn connect(addr: impl Into<String>) -> Result<TcpTransport, TransportError> {
        let t = TcpTransport {
            addr: addr.into(),
            state: Mutex::new(ClientState {
                conn: None,
                subs: HashMap::new(),
                next_sub: 0,
            }),
        };
        {
            let mut state = t.state.lock().unwrap_or_else(PoisonError::into_inner);
            t.ensure_conn(&mut state)?;
        }
        Ok(t)
    }

    /// Test hook: drop the current connection as if the network cut
    /// it, invalidating every established server cursor. The next
    /// operation reconnects and resumes.
    #[doc(hidden)]
    pub fn break_connection(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        Self::drop_conn(&mut state);
    }

    fn drop_conn(state: &mut ClientState) {
        state.conn = None;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "invalidates every cursor - the side effect is order-insensitive"
        )]
        for sub in state.subs.values_mut() {
            sub.server_sub = None;
        }
    }

    fn ensure_conn<'a>(
        &self,
        state: &'a mut ClientState,
    ) -> Result<&'a mut TcpStream, TransportError> {
        if state.conn.is_none() {
            let mut stream = TcpStream::connect(&self.addr).map_err(|e| conn_err(&e))?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(CLIENT_READ_TIMEOUT))
                .map_err(|e| conn_err(&e))?;
            write_message_hello(&mut stream).map_err(|e| conn_err(&e))?;
            let mut hello = [0u8; 5];
            stream.read_exact(&mut hello).map_err(|e| conn_err(&e))?;
            if &hello[..4] != NET_MAGIC {
                return Err(proto_err("server hello: bad magic"));
            }
            if hello[4] != NET_VERSION {
                return Err(proto_err(format!(
                    "server speaks protocol v{}, client v{NET_VERSION}",
                    hello[4]
                )));
            }
            return Ok(state.conn.insert(stream));
        }
        state
            .conn
            .as_mut()
            .ok_or_else(|| proto_err("connection state lost"))
    }

    /// One request/response round-trip. Any I/O failure drops the
    /// connection (invalidating server cursors) and reports
    /// [`TransportError::Connection`].
    fn request_once(
        &self,
        state: &mut ClientState,
        body: &[u8],
    ) -> Result<Vec<u8>, TransportError> {
        let stream = self.ensure_conn(state)?;
        let round_trip = (|| -> io::Result<Vec<u8>> {
            write_message(stream, body)?;
            let mut prefix = [0u8; 4];
            stream.read_exact(&mut prefix)?;
            let len = u32::from_le_bytes(prefix) as usize;
            if len > MAX_MESSAGE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "oversized response",
                ));
            }
            let mut resp = vec![0u8; len];
            stream.read_exact(&mut resp)?;
            Ok(resp)
        })();
        let resp = match round_trip {
            Ok(resp) => resp,
            Err(e) => {
                Self::drop_conn(state);
                return Err(conn_err(&e));
            }
        };
        let mut r = Reader::new(&resp);
        let status = r
            .u8()
            .map_err(|_| proto_err("empty response from server"))?;
        match status {
            #[expect(
                clippy::indexing_slicing,
                reason = "the u8() read above proved resp has a first byte"
            )]
            0 => Ok(resp[1..].to_vec()),
            1 => Err(decode_error(&mut r)
                .unwrap_or_else(|e| proto_err(format!("undecodable error response: {e}")))),
            other => Err(proto_err(format!("unknown response status {other}"))),
        }
    }

    /// Round-trip with a single reconnect retry — for idempotent
    /// requests only (re-sending them cannot duplicate state).
    fn request_idempotent(
        &self,
        state: &mut ClientState,
        body: &[u8],
    ) -> Result<Vec<u8>, TransportError> {
        match self.request_once(state, body) {
            Err(TransportError::Connection(_)) => self.request_once(state, body),
            other => other,
        }
    }

    /// Ensure the local subscription has a live server cursor,
    /// (re-)subscribing with the recorded resume point if not.
    fn establish(&self, state: &mut ClientState, local: u64) -> Result<u64, TransportError> {
        let sub = state
            .subs
            .get(&local)
            .ok_or(TransportError::UnknownSubscription(SubscriptionId(local)))?
            .clone();
        if let Some(server_sub) = sub.server_sub {
            return Ok(server_sub);
        }
        let mut w = Writer::default();
        match &sub.path {
            None => {
                w.u8(OP_SUBSCRIBE);
                w.u16(sub.requester.0);
            }
            Some(p) => {
                w.u8(OP_SUBSCRIBE_PATH);
                w.u16(sub.requester.0);
                encode_path(&mut w, p);
            }
        }
        match sub.resume_seq {
            None => {
                w.u8(0);
                w.u64(0);
            }
            Some(seq) => {
                w.u8(1);
                w.u64(seq);
            }
        }
        let resp = self.request_idempotent(state, w.as_slice())?;
        let mut r = Reader::new(&resp);
        let server_sub = r
            .u64()
            .map_err(|e| proto_err(format!("bad subscribe response: {e}")))?;
        let start_seq = r
            .u64()
            .map_err(|e| proto_err(format!("bad subscribe response: {e}")))?;
        if let Some(s) = state.subs.get_mut(&local) {
            s.server_sub = Some(server_sub);
            // Fix the subscription point so a reconnect before any
            // delivery resumes from here, not from "now at reconnect".
            s.resume_seq = Some(s.resume_seq.unwrap_or(start_seq));
        }
        Ok(server_sub)
    }

    /// Drain one poll round (following the server's `more` flag) and
    /// advance the local resume point past everything delivered.
    fn poll_established(
        &self,
        state: &mut ClientState,
        local: u64,
        server_sub: u64,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let mut out: Vec<Arc<Published>> = Vec::new();
        loop {
            let mut w = Writer::default();
            w.u8(OP_POLL);
            w.u64(server_sub);
            // Not retried on connection loss: establishment is gone
            // with the connection, and the caller's next poll
            // re-establishes with the resume point instead.
            let resp = self.request_once(state, w.as_slice())?;
            let mut r = Reader::new(&resp);
            let entries = read_entries(&mut r)?;
            let more = r
                .u8()
                .map_err(|e| proto_err(format!("bad poll response: {e}")))?;
            out.extend(entries);
            if more == 0 {
                break;
            }
        }
        if let (Some(last), Some(s)) = (out.last(), state.subs.get_mut(&local)) {
            let next = last.seq + 1;
            s.resume_seq = Some(s.resume_seq.map_or(next, |r| r.max(next)));
        }
        Ok(out)
    }
}

impl ReceiptTransport for TcpTransport {
    fn register_key(&self, hop: HopId, key: HopKey) -> Result<KeyEpoch, TransportError> {
        let mut w = Writer::default();
        w.u8(OP_REGISTER_KEY);
        w.u16(hop.0);
        w.bytes(key.as_bytes());
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let resp = self.request_idempotent(&mut state, w.as_slice())?;
        let mut r = Reader::new(&resp);
        Ok(KeyEpoch(r.u32().map_err(|e| {
            proto_err(format!("bad register response: {e}"))
        })?))
    }

    fn rotate_key(&self, hop: HopId, new_key: HopKey) -> Result<KeyEpoch, TransportError> {
        let mut w = Writer::default();
        w.u8(OP_ROTATE_KEY);
        w.u16(hop.0);
        w.bytes(new_key.as_bytes());
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // NOT idempotent: a duplicated rotation burns an extra epoch.
        let resp = self.request_once(&mut state, w.as_slice())?;
        let mut r = Reader::new(&resp);
        Ok(KeyEpoch(r.u32().map_err(|e| {
            proto_err(format!("bad rotate response: {e}"))
        })?))
    }

    fn key_epoch(&self, hop: HopId) -> Option<KeyEpoch> {
        let mut w = Writer::default();
        w.u8(OP_KEY_EPOCH);
        w.u16(hop.0);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let resp = self.request_idempotent(&mut state, w.as_slice()).ok()?;
        let mut r = Reader::new(&resp);
        match r.u8().ok()? {
            1 => Some(KeyEpoch(r.u32().ok()?)),
            _ => None,
        }
    }

    fn publish(
        &self,
        domain: DomainId,
        frame: WireFrame,
        on_path: Vec<DomainId>,
    ) -> Result<u64, TransportError> {
        let mut w = Writer::default();
        w.u8(OP_PUBLISH);
        w.u16(domain.0);
        write_domains(&mut w, &on_path);
        w.u32(frame.as_bytes().len() as u32);
        w.bytes(frame.as_bytes());
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Never retried: the server may have committed the publish
        // before the connection died, and a blind retry would insert
        // the receipt twice.
        let resp = self.request_once(&mut state, w.as_slice())?;
        let mut r = Reader::new(&resp);
        r.u64()
            .map_err(|e| proto_err(format!("bad publish response: {e}")))
    }

    fn fetch(
        &self,
        requester: DomainId,
        hop: HopId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let mut w = Writer::default();
        w.u8(OP_FETCH);
        w.u16(requester.0);
        w.u16(hop.0);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let resp = self.request_idempotent(&mut state, w.as_slice())?;
        read_entries(&mut Reader::new(&resp))
    }

    fn fetch_path(
        &self,
        requester: DomainId,
        path: &PathId,
    ) -> Result<Vec<Arc<Published>>, TransportError> {
        let mut w = Writer::default();
        w.u8(OP_FETCH_PATH);
        w.u16(requester.0);
        encode_path(&mut w, path);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let resp = self.request_idempotent(&mut state, w.as_slice())?;
        read_entries(&mut Reader::new(&resp))
    }

    fn subscribe(&self, requester: DomainId) -> SubscriptionId {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let local = state.next_sub;
        state.next_sub += 1;
        state.subs.insert(
            local,
            ClientSub {
                requester,
                path: None,
                server_sub: None,
                resume_seq: None,
            },
        );
        // Eager best-effort establishment pins the subscription point
        // near the subscribe call; on failure the first poll retries.
        let _ = self.establish(&mut state, local);
        SubscriptionId(local)
    }

    fn subscribe_path(&self, requester: DomainId, path: &PathId) -> SubscriptionId {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let local = state.next_sub;
        state.next_sub += 1;
        state.subs.insert(
            local,
            ClientSub {
                requester,
                path: Some(*path),
                server_sub: None,
                resume_seq: None,
            },
        );
        let _ = self.establish(&mut state, local);
        SubscriptionId(local)
    }

    fn subscribe_from(
        &self,
        requester: DomainId,
        from_seq: u64,
    ) -> Result<SubscriptionId, TransportError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let local = state.next_sub;
        state.next_sub += 1;
        state.subs.insert(
            local,
            ClientSub {
                requester,
                path: None,
                server_sub: None,
                resume_seq: Some(from_seq),
            },
        );
        // A resume is an assertion about history, so establishment is
        // NOT lazy here: a resume point the server already GC'd past
        // must be refused now, typed, not at some later first poll.
        if let Err(e) = self.establish(&mut state, local) {
            state.subs.remove(&local);
            return Err(e);
        }
        Ok(SubscriptionId(local))
    }

    fn poll(&self, sub: SubscriptionId) -> Result<Vec<Arc<Published>>, TransportError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let server_sub = self.establish(&mut state, sub.0)?;
        match self.poll_established(&mut state, sub.0, server_sub) {
            // One transparent resume: reconnect, re-subscribe at the
            // recorded position, and poll again.
            Err(TransportError::Connection(_)) => {
                let server_sub = self.establish(&mut state, sub.0)?;
                self.poll_established(&mut state, sub.0, server_sub)
            }
            other => other,
        }
    }

    fn wait(&self, sub: SubscriptionId, timeout: Duration) -> Result<WaitOutcome, TransportError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "bounds a blocking-wait timeout; never feeds a verdict"
        )]
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let server_sub = self.establish(&mut state, sub.0)?;
            #[expect(
                clippy::disallowed_methods,
                reason = "bounds a blocking-wait timeout; never feeds a verdict"
            )]
            let now = Instant::now();
            if now >= deadline {
                return Ok(WaitOutcome::TimedOut);
            }
            // The server caps one wait at MAX_SERVER_WAIT; longer
            // client timeouts loop over multiple requests.
            let chunk = (deadline - now).min(MAX_SERVER_WAIT);
            let mut w = Writer::default();
            w.u8(OP_WAIT);
            w.u64(server_sub);
            w.u32(chunk.as_millis().min(u128::from(u32::MAX)) as u32);
            match self.request_once(&mut state, w.as_slice()) {
                Ok(resp) => {
                    let mut r = Reader::new(&resp);
                    let outcome = r
                        .u8()
                        .map_err(|e| proto_err(format!("bad wait response: {e}")))?;
                    if outcome == 0 {
                        return Ok(WaitOutcome::Ready);
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "bounds a blocking-wait timeout; never feeds a verdict"
                    )]
                    if Instant::now() >= deadline {
                        return Ok(WaitOutcome::TimedOut);
                    }
                }
                // Reconnect (next establish) and keep waiting.
                Err(TransportError::Connection(_)) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn unsubscribe(&self, sub: SubscriptionId) -> Result<(), TransportError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let client_sub = state
            .subs
            .remove(&sub.0)
            .ok_or(TransportError::UnknownSubscription(sub))?;
        // Best-effort server-side drop: if the connection is gone the
        // server's session cleanup handles it on disconnect anyway.
        if let Some(server_sub) = client_sub.server_sub {
            let mut w = Writer::default();
            w.u8(OP_UNSUBSCRIBE);
            w.u64(server_sub);
            let _ = self.request_once(&mut state, w.as_slice());
        }
        Ok(())
    }

    fn subscriptions(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .subs
            .len()
    }

    /// Total entries on the *server's* bus; `0` when the server is
    /// unreachable (diagnostics should not panic a disconnected
    /// client).
    fn len(&self) -> usize {
        let mut w = Writer::default();
        w.u8(OP_LEN);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let Ok(resp) = self.request_idempotent(&mut state, w.as_slice()) else {
            return 0;
        };
        Reader::new(&resp).u64().map_or(0, |n| n as usize)
    }

    /// Ask the *server* to compact its bus. Safe to retry: a repeated
    /// pass below the (now raised) horizon is a no-op on the server.
    fn compact_before(&self, before_seq: u64) -> Result<CompactionReport, TransportError> {
        let mut w = Writer::default();
        w.u8(OP_COMPACT);
        w.u64(before_seq);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let resp = self.request_idempotent(&mut state, w.as_slice())?;
        let mut r = Reader::new(&resp);
        let bad = |e: WireError| proto_err(format!("bad compact response: {e}"));
        Ok(CompactionReport {
            reclaimed: r.u64().map_err(bad)?,
            horizon: r.u64().map_err(bad)?,
        })
    }

    fn horizon(&self) -> Result<u64, TransportError> {
        let mut w = Writer::default();
        w.u8(OP_HORIZON);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let resp = self.request_idempotent(&mut state, w.as_slice())?;
        Reader::new(&resp)
            .u64()
            .map_err(|e| proto_err(format!("bad horizon response: {e}")))
    }

    fn summaries(&self) -> Result<Vec<IntervalSummary>, TransportError> {
        let mut w = Writer::default();
        w.u8(OP_SUMMARIES);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let resp = self.request_idempotent(&mut state, w.as_slice())?;
        let mut r = Reader::new(&resp);
        let bad = |e: WireError| proto_err(format!("bad summaries response: {e}"));
        let n = r.u32().map_err(bad)? as usize;
        // 58 bytes per fixed-size summary record; pre-flight the count
        // so a corrupt header cannot trigger a huge allocation.
        r.can_hold(n, 58).map_err(bad)?;
        (0..n).map(|_| read_summary(&mut r).map_err(bad)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every typed error round-trips the wire exactly (`Malformed`
    /// degrades to a documented `Protocol` rendering).
    #[test]
    fn transport_errors_round_trip_the_error_codec() {
        let cases = vec![
            TransportError::BadMac { hop: HopId(8) },
            TransportError::Unsigned { hop: HopId(9) },
            TransportError::UnknownKeyEpoch {
                hop: HopId(1),
                epoch: KeyEpoch(4),
            },
            TransportError::KeyAlreadyRegistered { hop: HopId(2) },
            TransportError::NotOnPath {
                requester: DomainId(3),
            },
            TransportError::UnknownHop(HopId(4)),
            TransportError::UnknownSubscription(SubscriptionId(99)),
            TransportError::Protocol("nope".into()),
            TransportError::LaggedBehind { horizon: 123_456 },
        ];
        for e in cases {
            let mut w = Writer::default();
            encode_error(&mut w, &e);
            let got = decode_error(&mut Reader::new(w.as_slice())).unwrap();
            assert_eq!(got, e, "error must round-trip");
        }
        // Malformed serializes its rendering; the client reads it as a
        // Protocol refusal carrying that rendering.
        let mut w = Writer::default();
        encode_error(
            &mut w,
            &TransportError::Malformed(WireError::BadMagic([0; 4])),
        );
        match decode_error(&mut Reader::new(w.as_slice())).unwrap() {
            TransportError::Protocol(msg) => assert!(msg.contains("server refused frame")),
            other => panic!("expected Protocol, got {other:?}"),
        }
        // Error code 1, retired with the lookup3 batch tag, is a typed
        // protocol error.
        match decode_error(&mut Reader::new(&[1, 7, 0])).unwrap() {
            TransportError::Protocol(msg) => assert_eq!(msg, "unknown error code 1"),
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    /// Dialing a port nobody listens on is a typed
    /// [`TransportError::Connection`], not a panic or a hang.
    #[test]
    fn connecting_to_a_dead_server_is_a_typed_connection_error() {
        // Bind an ephemeral port, learn the address, drop the
        // listener: the port is now provably unserved.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        match TcpTransport::connect(addr) {
            Err(TransportError::Connection(msg)) => {
                assert!(!msg.is_empty(), "the refusal must say why");
            }
            Err(other) => panic!("expected Connection error, got {other:?}"),
            Ok(_) => panic!("connecting to a dead port must not succeed"),
        }
    }

    /// A truncated error body is itself a typed decode error, not a
    /// panic.
    #[test]
    fn truncated_error_bodies_are_typed() {
        let mut w = Writer::default();
        encode_error(
            &mut w,
            &TransportError::UnknownKeyEpoch {
                hop: HopId(1),
                epoch: KeyEpoch(2),
            },
        );
        let bytes = w.into_vec();
        for n in 0..bytes.len() {
            let _ = decode_error(&mut Reader::new(&bytes[..n])); // must not panic
        }
    }

    /// A served bus with one admitted frame and two live session
    /// cursors, plus one valid request per opcode, in an order in which
    /// each succeeds (register before publish, poll before unsubscribe).
    /// `stop` is set, so `OP_WAIT` answers at once instead of parking.
    struct Served {
        bus: Arc<ShardedBus>,
        session: Session,
        stop: AtomicBool,
        requests: Vec<Vec<u8>>,
    }

    impl Served {
        fn new() -> Served {
            use vpm_core::processor::ReceiptBatch;
            use vpm_core::receipt::SampleReceipt;
            let path = PathId {
                spec: vpm_packet::HeaderSpec::new(
                    "10.1.0.0/16".parse().unwrap(),
                    "192.168.0.0/24".parse().unwrap(),
                ),
                prev_hop: None,
                next_hop: Some(HopId(6)),
                max_diff: vpm_packet::SimDuration::from_millis(2),
            };
            let key = HopKey::from_seed(5);
            let batch = ReceiptBatch {
                hop: HopId(5),
                batch_seq: 0,
                samples: vec![SampleReceipt {
                    path,
                    samples: vec![],
                }],
                aggregates: vec![],
            };
            let frame = crate::WireEncoder::compact()
                .encode_signed(&batch, &key, KeyEpoch(0))
                .unwrap();

            let bus = Arc::new(ShardedBus::new(4));
            let mut session = Session::default();
            let [polled, dropped] = [(); 2].map(|()| {
                let sub = bus.subscribe(DomainId(1)).0;
                session.queues.insert(sub, VecDeque::new());
                sub.to_le_bytes()
            });

            let mut path_bytes = Writer::default();
            encode_path(&mut path_bytes, &path);
            let path_bytes = path_bytes.into_vec();
            let (hop, domain) = (5u16.to_le_bytes(), 1u16.to_le_bytes());
            let resume_at_0 = [1u8, 0, 0, 0, 0, 0, 0, 0, 0];
            let frame_len = (frame.len() as u32).to_le_bytes();
            let request = |op: u8, fields: &[&[u8]]| [&[op], fields.concat().as_slice()].concat();
            let requests = vec![
                request(OP_REGISTER_KEY, &[&hop, key.as_bytes()]),
                request(OP_ROTATE_KEY, &[&hop, HopKey::from_seed(6).as_bytes()]),
                request(OP_KEY_EPOCH, &[&hop]),
                // On-path list: one entry, the publishing domain itself.
                request(
                    OP_PUBLISH,
                    &[&domain, &[1, 0], &domain, &frame_len, frame.as_bytes()],
                ),
                request(OP_FETCH, &[&domain, &hop]),
                request(OP_FETCH_PATH, &[&domain, &path_bytes]),
                request(OP_SUBSCRIBE, &[&domain, &resume_at_0]),
                request(OP_SUBSCRIBE_PATH, &[&domain, &path_bytes, &resume_at_0]),
                request(OP_POLL, &[&polled]),
                request(OP_WAIT, &[&polled, &60_000u32.to_le_bytes()]),
                request(OP_UNSUBSCRIBE, &[&dropped]),
                request(OP_LEN, &[]),
                request(OP_COMPACT, &[&1u64.to_le_bytes()]),
                request(OP_HORIZON, &[]),
                request(OP_SUMMARIES, &[]),
            ];
            Served {
                bus,
                session,
                stop: AtomicBool::new(true),
                requests,
            }
        }

        /// Handle `body` and check the response is well-formed: status
        /// 0, or status 1 followed by exactly one decodable typed
        /// error. Returns the status byte.
        fn handle(&mut self, body: &[u8]) -> u8 {
            let resp = handle_request(&self.bus, &mut self.session, body, &self.stop);
            match resp.split_first() {
                Some((0, _)) => 0,
                Some((1, error)) => {
                    let mut r = Reader::new(error);
                    decode_error(&mut r).expect("a status-1 body is a typed error");
                    assert_eq!(r.remaining(), 0, "nothing follows the error");
                    1
                }
                other => panic!("malformed response {other:?} to request {body:02x?}"),
            }
        }
    }

    /// The fixture's requests are valid — one per opcode, each answered
    /// with status 0 — and every strict prefix of each is refused with
    /// a typed error: requests are not self-delimiting by luck.
    #[test]
    fn every_strict_prefix_of_a_valid_request_is_a_typed_refusal() {
        let mut served = Served::new();
        let requests = served.requests.clone();
        let opcodes: Vec<u8> = requests.iter().map(|r| r[0]).collect();
        assert_eq!(
            opcodes,
            (OP_REGISTER_KEY..=OP_SUMMARIES).collect::<Vec<_>>()
        );
        for request in &requests {
            assert_eq!(served.handle(request), 0, "opcode {}", request[0]);
        }
        for request in &requests {
            for cut in 0..request.len() {
                assert_eq!(
                    served.handle(&request[..cut]),
                    1,
                    "opcode {} cut at {cut}",
                    request[0]
                );
            }
        }
    }

    proptest::proptest! {
        /// Request handling is total: arbitrary bytes never panic the
        /// server and always get a well-formed response.
        #[test]
        fn arbitrary_request_bytes_get_a_well_formed_response(
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)
        ) {
            Served::new().handle(&body);
        }

        /// Corrupting any one byte of any valid request never panics
        /// and always gets a well-formed response (it may still succeed
        /// — a flipped requester id is a valid request).
        #[test]
        fn single_byte_request_corruption_gets_a_well_formed_response(xor in 1u8..=255) {
            let mut served = Served::new();
            for request in served.requests.clone() {
                for at in 0..request.len() {
                    let mut corrupt = request.clone();
                    corrupt[at] ^= xor;
                    served.handle(&corrupt);
                }
            }
        }
    }
}
