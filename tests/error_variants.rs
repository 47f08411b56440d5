//! Every variant of the audited error enums `WireError`,
//! `TransportError` and `IngestError` is reachable from the public API.
//! Each table row feeds one input and expects one variant.
//! `variant_table!` also expands its patterns into a `match` with no
//! `_` arm, so a new variant does not compile until it gets a row.

use std::io::Write;
use std::net::TcpListener;

use vpm::core::processor::ReceiptBatch;
use vpm::core::receipt::{AggId, AggReceipt, PathId, SampleReceipt};
use vpm::core::{Collector, HopConfig, Ingest, IngestError};
use vpm::hash::Digest;
use vpm::packet::{DomainId, HeaderSpec, HopId, Ipv4Prefix, SimDuration, SimTime};
use vpm::wire::{
    AuditCheckpoint, HopKey, KeyEpoch, PathAuditState, ReceiptTransport, ShardedBus,
    SubscriptionId, TcpTransport, TransportError, WireDecoder, WireEncoder, WireError, WireFrame,
};

/// `variant_table!(Enum; Variant pattern => input, …)`: every `input`
/// is a `Result<_, Enum>` that must fail with the row's variant, and
/// the patterns (one per variant, payloads wildcarded) must cover
/// `Enum`.
macro_rules! variant_table {
    ($ty:ty; $($pat:pat => $input:expr),+ $(,)?) => {{
        let _exhaustive = |e: &$ty| match e {
            $($pat => ()),+
        };
        $(
            let got: Option<$ty> = $input.err();
            assert!(
                matches!(got, Some($pat)),
                "row `{}`: got {got:?}",
                stringify!($pat)
            );
        )+
    }};
}

/// A batch of empty sample receipts over `n` distinct /32 paths.
fn batch(hop: HopId, n: u32) -> ReceiptBatch {
    let path = |i: u32| PathId {
        spec: HeaderSpec::new(
            Ipv4Prefix::new(i.into(), 32).unwrap(),
            Ipv4Prefix::new(i.into(), 32).unwrap(),
        ),
        prev_hop: Some(HopId(3)),
        next_hop: None,
        max_diff: SimDuration::from_millis(2),
    };
    ReceiptBatch {
        hop,
        batch_seq: 1,
        samples: (0..n)
            .map(|i| SampleReceipt {
                path: path(i),
                samples: Vec::new(),
            })
            .collect(),
        aggregates: Vec::new(),
    }
}

/// The precise frame of a one-path batch with `edit` applied to its
/// bytes: a 16-B header, the 2-B path count, the 24-B path entry
/// (network, prefix length, network, prefix length, prev-hop option
/// tag, …), the sample count and directory, then the receipt body.
fn decode_edited(edit: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
    let frame = WireEncoder::precise().encode(&batch(HopId(4), 1)).unwrap();
    let mut bytes = frame.as_bytes().to_vec();
    edit(&mut bytes);
    WireDecoder::decode(&bytes).map(drop)
}

#[test]
fn every_wire_error_variant_is_reachable() {
    let mut oversized = batch(HopId(4), 1);
    oversized.aggregates.push(AggReceipt {
        path: oversized.samples[0].path,
        agg: AggId {
            first: Digest(1),
            last: Digest(2),
        },
        pkt_cnt: 1 << 48,
        agg_trans: Vec::new(),
    });
    let twice = PathAuditState {
        path: 1,
        audited_intervals: 1,
        flagged_intervals: 0,
        last_interval: 1,
    };
    variant_table!(WireError;
        WireError::Truncated { .. } => WireDecoder::decode(&[]),
        WireError::BadMagic(_) => decode_edited(|b| b[0] = b'X'),
        WireError::UnsupportedVersion(_) => decode_edited(|b| b[4] = 1),
        WireError::BadFlags(_) => decode_edited(|b| b[5] = 0b1000_0001),
        WireError::BadPrefixLen(_) => decode_edited(|b| b[16 + 2 + 4] = 99),
        WireError::BadOptionTag(_) => decode_edited(|b| b[16 + 2 + 10] = 7),
        WireError::BadPathRef { .. } => decode_edited(|b| b[16 + 2 + 24 + 4 + 4] = 99),
        WireError::CountTooLarge(_) => WireEncoder::compact().encode(&oversized),
        WireError::TooManyPaths(_) => WireEncoder::compact().encode(&batch(HopId(4), 65_536)),
        WireError::TooManyItems(_) => AuditCheckpoint {
            paths: vec![twice, twice],
            ..AuditCheckpoint::default()
        }
        .encode(),
        WireError::TrailingBytes(_) => decode_edited(|b| b.push(0)),
    );
}

#[test]
fn every_transport_error_variant_is_reachable() {
    let (hop, key) = (HopId(4), HopKey::from_seed(4));
    let on_path = vec![DomainId(1), DomainId(2)];
    let bus = ShardedBus::new(4);
    bus.register_key(hop, key).unwrap();
    let signed = |b: &ReceiptBatch, k: &HopKey, epoch: u32| {
        WireEncoder::precise()
            .encode_signed(b, k, KeyEpoch(epoch))
            .unwrap()
    };
    let publish = |frame: WireFrame| bus.publish(DomainId(1), frame, on_path.clone());
    // A retention horizon past the first entry strands a replay from
    // 0; the second entry stays to be hidden from an off-path domain.
    publish(signed(&batch(hop, 1), &key, 0)).unwrap();
    bus.compact_before(1).unwrap();
    publish(signed(&batch(hop, 1), &key, 0)).unwrap();

    // A server that answers the hello with the wrong magic, and a port
    // nobody listens on.
    let liar = TcpListener::bind("127.0.0.1:0").unwrap();
    let liar_addr = liar.local_addr().unwrap().to_string();
    let answer = std::thread::spawn(move || {
        let (mut s, _) = liar.accept().unwrap();
        s.write_all(b"NOPE!").unwrap();
        s
    });
    let dead_addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();

    variant_table!(TransportError;
        TransportError::BadMac { .. } => publish(signed(&batch(hop, 1), &HopKey::from_seed(5), 0)),
        TransportError::Unsigned { .. } => publish(WireEncoder::precise().encode(&batch(hop, 1)).unwrap()),
        TransportError::UnknownKeyEpoch { .. } => publish(signed(&batch(hop, 1), &key, 3)),
        TransportError::KeyAlreadyRegistered { .. } => bus.register_key(hop, HopKey::from_seed(5)),
        TransportError::NotOnPath { .. } => bus.fetch(DomainId(9), hop),
        TransportError::UnknownHop(_) => publish(signed(&batch(HopId(6), 1), &key, 0)),
        TransportError::Malformed(_) => publish(WireFrame::from_bytes(b"JUNK".to_vec())),
        TransportError::UnknownSubscription(_) => bus.poll(SubscriptionId(12_345)),
        TransportError::LaggedBehind { .. } => bus.subscribe_from(DomainId(1), 0),
        TransportError::UnknownResumePoint { .. } => bus.subscribe_from(DomainId(1), 3),
        TransportError::Connection(_) => TcpTransport::connect(dead_addr),
        TransportError::Protocol(_) => TcpTransport::connect(liar_addr),
    );
    drop(answer.join().unwrap());
}

#[test]
fn every_ingest_error_variant_is_reachable() {
    let mut c = Collector::new(HopConfig::new(HopId(4), DomainId(2)));
    c.register_path(batch(HopId(4), 1).samples[0].path);
    // Path index 1 of a collector holding one path.
    let report = c.ingest(&[(1, Digest(7), SimTime::from_micros(1))]);
    variant_table!(IngestError;
        IngestError::PathOutOfRange { .. } => report.errors.first().map_or(Ok(()), |e| Err(*e)),
    );
}
