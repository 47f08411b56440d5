//! The five workloads. Each is `run(&Opts) -> Outcome`: it builds its
//! inputs from the seed (timed as `setup_s`), drives fixed work
//! through the crates' public functions, and checks every output
//! against an oracle.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::{AggReceipt, PathId, SampleRecord};
use vpm_packet::{
    ipv4, HeaderSpec, HopId, Ipv4Header, Ipv4Prefix, Packet, SimDuration, Transport, UdpHeader,
};

use crate::harness::{Opts, Outcome};

pub mod audit_stream;
pub mod dp_zipf100k;
pub mod fleet_verify;
pub mod rp;

/// Run the workload called `name`, or `None` for an unknown name.
pub fn run(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "dp_zipf100k" => dp_zipf100k::run(opts),
        "rp_inproc" => rp::run(opts, rp::Link::InProcess),
        "rp_tcp" => rp::run(opts, rp::Link::Tcp),
        "fleet_verify" => fleet_verify::run(opts),
        "audit_stream" => audit_stream::run(opts),
        _ => return None,
    })
}

fn addr(net: u8, p: usize) -> Ipv4Addr {
    Ipv4Addr::new(net, (p >> 16) as u8, (p >> 8) as u8, p as u8)
}

/// The `/32`-pair spec of path `p`: `10.p → 20.p`.
fn spec(p: usize) -> HeaderSpec {
    let host = |a| Ipv4Prefix::new(a, 32).expect("/32 is a valid prefix length");
    HeaderSpec::new(host(addr(10, p)), host(addr(20, p)))
}

/// The `PathID` HOP `hops[pos]` registers for `spec` on the HOP chain
/// `hops`: previous and next HOP of the chain, 2 ms `MaxDiff`.
fn path_id(spec: HeaderSpec, hops: &[HopId], pos: usize) -> PathId {
    PathId {
        spec,
        prev_hop: Some(pos.checked_sub(1).map_or(HopId(hops[0].0 - 1), |i| hops[i])),
        next_hop: Some(hops.get(pos + 1).copied().unwrap_or(HopId(hops[pos].0 + 1))),
        max_diff: SimDuration::from_millis(2),
    }
}

/// A 400 B-payload UDP packet of path `p`; `id`/`sport` carry the
/// per-path packet counter `c`, so no two packets of a path share a
/// digest for 2³² packets.
fn udp_packet(p: usize, c: u32) -> Packet {
    let mut pkt = Packet {
        seq: 0,
        ipv4: Ipv4Header::simple(addr(10, p), addr(20, p), ipv4::PROTO_UDP, 428),
        transport: Transport::Udp(UdpHeader {
            sport: 0,
            dport: 53,
            length: 408,
        }),
        payload_len: 400,
    };
    set_identity(&mut pkt, c);
    pkt
}

/// Give `pkt` the identity of its path's `c`-th packet.
fn set_identity(pkt: &mut Packet, c: u32) {
    pkt.ipv4.id = c as u16;
    if let Transport::Udp(u) = &mut pkt.transport {
        u.sport = (c >> 16) as u16;
    }
}

/// One path's receipts inside a batch.
#[derive(Debug, Clone, Copy, Default)]
struct PathReceipts<'a> {
    /// The `PathID` the reporting HOP registered for the path.
    path: Option<PathId>,
    samples: &'a [SampleRecord],
    aggs: &'a [AggReceipt],
}

/// Index a batch's receipts by path spec. A collector drains in path
/// registration order, so a path's aggregate receipts are one
/// contiguous run.
fn by_path(batch: &ReceiptBatch) -> HashMap<HeaderSpec, PathReceipts<'_>> {
    let mut map: HashMap<HeaderSpec, PathReceipts<'_>> = HashMap::new();
    for s in &batch.samples {
        let e = map.entry(s.path.spec).or_default();
        e.path = Some(s.path);
        e.samples = &s.samples;
    }
    let mut at = 0;
    while at < batch.aggregates.len() {
        let spec = batch.aggregates[at].path.spec;
        let run = batch.aggregates[at..]
            .iter()
            .take_while(|a| a.path.spec == spec)
            .count();
        let e = map.entry(spec).or_default();
        e.path = Some(batch.aggregates[at].path);
        e.aggs = &batch.aggregates[at..at + run];
        at += run;
    }
    map
}

/// Receipts in a batch: sample receipts plus aggregate receipts.
fn receipts(batch: &ReceiptBatch) -> u64 {
    (batch.samples.len() + batch.aggregates.len()) as u64
}

/// How far an observed loss rate may sit from the realized one: 0.1
/// percentage points, or four binomial standard errors of the joined
/// packet count when that is wider (it is under `--smoke`).
fn loss_tolerance(rate: f64, joined_pkts: u64) -> f64 {
    let se = (rate * (1.0 - rate) / joined_pkts.max(1) as f64).sqrt();
    (4.0 * se).max(0.001)
}

/// Note the machine shape every result depends on.
fn note_machine(out: &mut Outcome, threads: usize) {
    out.notes.push(format!(
        "cores = {}, threads+connections used = {threads}",
        crate::harness::cores()
    ));
}
