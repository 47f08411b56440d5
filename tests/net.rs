//! The out-of-process dissemination plane over real loopback sockets:
//!
//! * a fleet run through `TcpTransport` → `vpm serve`'s `TcpServer`
//!   produces verdict JSON byte-identical to the in-process
//!   `ShardedBus` run;
//! * malformed client bytes — a torn length prefix, a truncated body —
//!   neither hang nor kill the server, and later clients are served;
//! * a mid-stream disconnect is survived transparently: the client
//!   reconnects and resumes its cursor with no duplicated and no
//!   skipped frame;
//! * a resume point past a fresh server's head is refused, typed;
//! * authenticity is enforced **server-side**: a forged-MAC frame, an
//!   unknown key epoch, and an unsigned frame are refused with the
//!   same typed errors the in-process bus raises.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use vpm::core::processor::ReceiptBatch;
use vpm::core::receipt::{AggId, AggReceipt, PathId, SampleReceipt, SampleRecord};
use vpm::hash::Digest;
use vpm::packet::{DomainId, HeaderSpec, HopId, SimDuration, SimTime};
use vpm::sim::fleet::{analyze_fleet_from_transport, build_fleet, run_fleet, FleetConfig};
use vpm::wire::{
    HopKey, KeyEpoch, Profile, ReceiptTransport, ShardedBus, TcpServer, TcpTransport,
    TransportError, WaitOutcome, WireEncoder,
};

/// A server over a fresh sharded bus plus a connected client.
fn serve() -> (TcpServer, TcpTransport) {
    let bus = Arc::new(ShardedBus::new(8));
    let server = TcpServer::bind("127.0.0.1:0", bus).expect("bind loopback");
    let client = TcpTransport::connect(server.local_addr().to_string()).expect("connect");
    (server, client)
}

fn test_path(n: u8) -> PathId {
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

fn hop_key(hop: HopId) -> HopKey {
    HopKey::from_seed(0xabc ^ hop.0 as u64)
}

fn batch(hop: HopId, seq: u64, path_n: u8) -> ReceiptBatch {
    ReceiptBatch {
        hop,
        batch_seq: seq,
        samples: vec![SampleReceipt {
            path: test_path(path_n),
            samples: vec![SampleRecord {
                pkt_id: Digest(0x1000 + seq),
                time: SimTime::from_micros(10 * seq),
            }],
        }],
        aggregates: vec![AggReceipt {
            path: test_path(path_n),
            agg: AggId {
                first: Digest(1),
                last: Digest(2),
            },
            pkt_cnt: 100,
            agg_trans: vec![],
        }],
    }
}

#[test]
fn tcp_fleet_verdicts_are_byte_identical_to_the_in_process_bus() {
    let fleet = build_fleet(&FleetConfig {
        paths: 6,
        liars: 2,
        publishers: 2,
        trace_ms: 60,
        target_pps: 25_000.0,
        ..FleetConfig::default()
    });

    let in_process = ShardedBus::new(8);
    run_fleet(&fleet, &in_process);
    let local = analyze_fleet_from_transport(&fleet, &in_process, 2);

    let (mut server, client) = serve();
    run_fleet(&fleet, &client);
    let remote = analyze_fleet_from_transport(&fleet, &client, 2);
    server.shutdown();

    assert_eq!(
        serde_json::to_string(&local).unwrap(),
        serde_json::to_string(&remote).unwrap(),
        "the transport must be invisible in the verdict bytes"
    );
    assert!(remote.iter().all(|v| v.passed()));
}

#[test]
fn a_torn_length_prefix_neither_hangs_nor_kills_the_server() {
    let (mut server, client) = serve();
    let addr = server.local_addr();

    // Connection 1: a valid hello, then 2 of the 4 length-prefix
    // bytes, then a hard close.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"VPMN").unwrap();
        raw.write_all(&[1u8]).unwrap();
        raw.write_all(&[0xff, 0xff]).unwrap();
    }
    // Connection 2: a full length prefix claiming 100 bytes, then
    // only 3 bytes of body, then a hard close.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"VPMN").unwrap();
        raw.write_all(&[1u8]).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
    }
    // Connection 3: garbage instead of a hello.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"NOPE!").unwrap();
    }

    // The server is still alive and still serves well-formed clients.
    let key = hop_key(HopId(5));
    assert_eq!(client.register_key(HopId(5), key), Ok(KeyEpoch(0)));
    assert_eq!(client.key_epoch(HopId(5)), Some(KeyEpoch(0)));
    let b = batch(HopId(5), 0, 1);
    let frame = WireEncoder::new(Profile::Precise)
        .encode_signed(&b, &key, KeyEpoch(0))
        .unwrap();
    client
        .publish(DomainId(2), frame, vec![DomainId(0), DomainId(2)])
        .unwrap();
    assert_eq!(client.len(), 1);
    server.shutdown();
}

#[test]
fn a_mid_stream_disconnect_resumes_the_cursor_without_duplicates_or_skips() {
    let (mut server, client) = serve();
    let key = hop_key(HopId(5));
    client.register_key(HopId(5), key).unwrap();

    let sub = client.subscribe(DomainId(0));
    let publish = |seq: u64| {
        let b = batch(HopId(5), seq, 1);
        let frame = WireEncoder::new(Profile::Precise)
            .encode_signed(&b, &key, KeyEpoch(0))
            .unwrap();
        client
            .publish(DomainId(2), frame, vec![DomainId(0), DomainId(2)])
            .unwrap()
    };

    let mut expected = Vec::new();
    for seq in 0..5 {
        expected.push(publish(seq));
    }
    let mut got: Vec<u64> = client.poll(sub).unwrap().iter().map(|p| p.seq).collect();

    // Kill the TCP connection under the client. The next poll must
    // reconnect, re-subscribe at the cursor's resume point, and
    // deliver exactly the frames published after the ones above.
    client.break_connection();
    for seq in 5..10 {
        expected.push(publish(seq));
    }
    got.extend(client.poll(sub).unwrap().iter().map(|p| p.seq));

    // And again, this time with the break *before* any poll drained
    // the new frames — nothing published while disconnected is lost.
    client.break_connection();
    for seq in 10..15 {
        expected.push(publish(seq));
    }
    got.extend(client.poll(sub).unwrap().iter().map(|p| p.seq));

    assert_eq!(got, expected, "no duplicate, no skip, publish order");

    // The blocking wait also survives the reconnect path.
    assert_eq!(
        client.wait(sub, Duration::from_millis(20)),
        Ok(WaitOutcome::TimedOut)
    );
    client.break_connection();
    expected.push(publish(15));
    assert_eq!(
        client.wait(sub, Duration::from_secs(5)),
        Ok(WaitOutcome::Ready)
    );
    let tail: Vec<u64> = client.poll(sub).unwrap().iter().map(|p| p.seq).collect();
    assert_eq!(tail, expected[15..]);

    client.unsubscribe(sub).unwrap();
    assert_eq!(client.subscriptions(), 0);
    server.shutdown();
}

/// Satellite regression: the server GCs past a disconnected client's
/// resume point. The reconnect must NOT silently resume above the
/// horizon (skipping reclaimed frames) — it surfaces the typed
/// `LaggedBehind`, and a fresh subscription still works.
#[test]
fn a_gc_pass_during_a_disconnect_surfaces_lagged_behind_typed() {
    let bus = Arc::new(ShardedBus::new(8));
    let mut server = TcpServer::bind("127.0.0.1:0", bus.clone()).expect("bind loopback");
    let client = TcpTransport::connect(server.local_addr().to_string()).expect("connect");
    let key = hop_key(HopId(5));
    client.register_key(HopId(5), key).unwrap();

    let encode = |seq: u64| {
        WireEncoder::new(Profile::Precise)
            .encode_signed(&batch(HopId(5), seq, 1), &key, KeyEpoch(0))
            .unwrap()
    };
    let sub = client.subscribe(DomainId(0));
    for seq in 0..5 {
        client
            .publish(DomainId(2), encode(seq), vec![DomainId(0), DomainId(2)])
            .unwrap();
    }
    assert_eq!(client.poll(sub).unwrap().len(), 5, "cursor now at seq 5");

    // Kill the TCP connection under the client; while it is away the
    // bus keeps moving and a server-side GC pass reclaims everything
    // below seq 10 — including the suffix the client's resume owes.
    client.break_connection();
    for seq in 5..10 {
        bus.publish(DomainId(2), encode(seq), vec![DomainId(0), DomainId(2)])
            .unwrap();
    }
    let report = bus.compact_before(10).unwrap();
    assert_eq!(report.horizon, 10);
    assert!(report.reclaimed > 0);

    // The next poll reconnects and re-subscribes at resume point 5 —
    // which the server must refuse, typed, with the live horizon. A
    // silent resume at 10 would have skipped frames 5..10 forever.
    match client.poll(sub) {
        Err(TransportError::LaggedBehind { horizon }) => assert_eq!(horizon, 10),
        other => panic!("expected LaggedBehind, got {other:?}"),
    }
    // The refusal is not transient: the resume point cannot heal.
    assert!(matches!(
        client.poll(sub),
        Err(TransportError::LaggedBehind { .. })
    ));
    // `wait` on the lagged subscription refuses the same way rather
    // than blocking for frames that can never be delivered.
    assert!(matches!(
        client.wait(sub, Duration::from_millis(50)),
        Err(TransportError::LaggedBehind { .. })
    ));

    // The client itself is fine: a fresh subscription (at "now") and
    // new traffic flow normally, and the horizon is visible remotely.
    let fresh = client.subscribe(DomainId(0));
    client
        .publish(DomainId(2), encode(10), vec![DomainId(0), DomainId(2)])
        .unwrap();
    let seqs: Vec<u64> = client.poll(fresh).unwrap().iter().map(|p| p.seq).collect();
    assert_eq!(seqs, vec![10]);
    assert_eq!(client.horizon().unwrap(), 10);

    client.unsubscribe(fresh).unwrap();
    client.unsubscribe(sub).unwrap();
    server.shutdown();
}

/// A cursor from another bus — here resume point 5 sent to a fresh
/// server whose bus has issued nothing, as a client would after the
/// server restarted — is refused with the typed `UnknownResumePoint`
/// and the server's head, both to a raw subscribe request on the wire
/// and through `TcpTransport`. Clamping it would re-feed seqs 0–4 with
/// different frames.
#[test]
fn a_resume_past_a_fresh_servers_head_is_refused_typed() {
    use std::io::Read;
    let (mut server, client) = serve();
    // Hello, then a subscribe (opcode 7) as domain 0 resuming (1) at 5.
    let request = [&[7u8, 0, 0, 1][..], &5u64.to_le_bytes()].concat();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"VPMN\x01").unwrap();
    raw.write_all(&(request.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&request).unwrap();
    // The server's hello, a 10-byte response: status 1 (typed error),
    // code 12 (unknown resume point), head 0.
    let mut response = [0u8; 19];
    raw.read_exact(&mut response).unwrap();
    assert_eq!(response[..9], *b"VPMN\x01\x0a\0\0\0");
    assert_eq!(response[9..], [1, 12, 0, 0, 0, 0, 0, 0, 0, 0]);

    assert_eq!(
        client.subscribe_from(DomainId(0), 5),
        Err(TransportError::UnknownResumePoint { head: 0 })
    );
    assert_eq!(client.subscriptions(), 0);
    server.shutdown();
}

#[test]
fn forged_frames_are_refused_server_side_with_typed_errors() {
    let (mut server, client) = serve();
    let key = hop_key(HopId(5));
    client.register_key(HopId(5), key).unwrap();
    let b = batch(HopId(5), 0, 1);

    // Forged MAC: sign with the right key, then flip a bit in the MAC
    // trailer. The server — not the client — must refuse it.
    let good = WireEncoder::new(Profile::Precise)
        .encode_signed(&b, &key, KeyEpoch(0))
        .unwrap();
    let mut bytes = good.as_bytes().to_vec();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let forged = vpm::wire::WireFrame::from_bytes(bytes);
    assert_eq!(
        client.publish(DomainId(2), forged, vec![DomainId(0)]),
        Err(TransportError::BadMac { hop: HopId(5) })
    );

    // A claimed key epoch nobody registered.
    let wrong_epoch = WireEncoder::new(Profile::Precise)
        .encode_signed(&b, &key, KeyEpoch(7))
        .unwrap();
    assert_eq!(
        client.publish(DomainId(2), wrong_epoch, vec![DomainId(0)]),
        Err(TransportError::UnknownKeyEpoch {
            hop: HopId(5),
            epoch: KeyEpoch(7),
        })
    );

    // An unsigned frame on a signed-only plane.
    let unsigned = WireEncoder::new(Profile::Precise).encode(&b).unwrap();
    assert_eq!(
        client.publish(DomainId(2), unsigned, vec![DomainId(0)]),
        Err(TransportError::Unsigned { hop: HopId(5) })
    );

    // Nothing entered circulation.
    assert_eq!(client.len(), 0);
    server.shutdown();
}
