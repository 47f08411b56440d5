//! The receipt plane end to end through the public facade: the v2
//! binary codec's golden byte layout, the wire constants against that
//! golden and the README's frame diagram, the measured §7.1 sizes, the
//! compact profile's truncation semantics feeding the verifier, and the
//! transport's Arc-sharing contract.

use vpm::core::processor::ReceiptBatch;
use vpm::core::receipt::{compact, AggId, AggReceipt, PathId, SampleReceipt, SampleRecord};
use vpm::core::verify::{match_samples, Verifier};
use vpm::hash::Digest;
use vpm::packet::{DomainId, HeaderSpec, HopId, SimDuration, SimTime};
use vpm::wire::codec::{HEADER_BYTES, PATH_ENTRY_BYTES};
use vpm::wire::{
    measured_sizes, HopKey, Profile, ReceiptTransport, ShardedBus, WireDecoder, WireEncoder,
    WireFrame, MAC_TRAILER_BYTES, MAGIC, VERSION,
};

fn fixture_path(n: u8) -> PathId {
    PathId {
        spec: HeaderSpec::new(
            format!("10.{n}.0.0/16").parse().unwrap(),
            "192.168.7.0/24".parse().unwrap(),
        ),
        prev_hop: (n == 0).then_some(HopId(3)),
        next_hop: Some(HopId(5)),
        max_diff: SimDuration::from_millis(2),
    }
}

/// The pinned fixture batch: every field chosen to exercise the layout
/// (two paths, an empty receipt, truncation-sensitive digests/times, a
/// 6-byte-boundary packet count, a patch-up window).
fn fixture_batch() -> ReceiptBatch {
    ReceiptBatch {
        hop: HopId(4),
        batch_seq: 3,
        samples: vec![
            SampleReceipt {
                path: fixture_path(0),
                samples: vec![
                    SampleRecord {
                        pkt_id: Digest(0xdead_beef_0123_4567),
                        time: SimTime::from_nanos(1_234_567_891),
                    },
                    SampleRecord {
                        pkt_id: Digest(42),
                        time: SimTime::from_micros(17),
                    },
                ],
            },
            SampleReceipt {
                path: fixture_path(1),
                samples: vec![],
            },
        ],
        aggregates: vec![AggReceipt {
            path: fixture_path(0),
            agg: AggId {
                first: Digest(0xaaaa_bbbb_cccc_dddd),
                last: Digest(0x1111_2222_3333_4444),
            },
            pkt_cnt: 0x0000_1234_5678_9abc,
            agg_trans: vec![Digest(7), Digest(0xffff_ffff_0000_0001)],
        }],
    }
}

const GOLDEN: &str = include_str!("golden/wire_v2.hex");
const README: &str = include_str!("../README.md");

/// The bytes of `golden`'s frame tagged `line_tag`.
fn golden_frame(golden: &str, line_tag: &str) -> Vec<u8> {
    let hex = golden
        .lines()
        .find_map(|l| l.strip_prefix(line_tag))
        .unwrap_or_else(|| panic!("tests/golden/wire_v2.hex has no '{line_tag}' line"))
        .trim();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden file is hex"))
        .collect()
}

/// The golden gate for the satellite task: the v2 byte layout of a
/// known batch is pinned in `tests/golden/wire_v2.hex`. Any format
/// drift that forgets to bump the version byte fails here loudly.
/// Regenerate (after an *intentional*, version-bumped change) with:
/// `UPDATE_GOLDEN=1 cargo test --test wire wire_v2_layout`.
#[test]
fn wire_v2_layout_matches_the_golden_fixture() {
    let b = fixture_batch();
    let compact_frame = WireEncoder::compact().encode(&b).unwrap();
    let precise_frame = WireEncoder::precise().encode(&b).unwrap();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let text = format!(
            "compact {}\nprecise {}\n",
            compact_frame.to_hex(),
            precise_frame.to_hex()
        );
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_v2.hex"),
            text,
        )
        .expect("write golden");
    }

    let golden_compact = golden_frame(GOLDEN, "compact ");
    let golden_precise = golden_frame(GOLDEN, "precise ");
    assert_eq!(
        compact_frame.as_bytes(),
        &golden_compact[..],
        "compact v2 layout drifted — if intentional, bump the version byte and regenerate"
    );
    assert_eq!(
        precise_frame.as_bytes(),
        &golden_precise[..],
        "precise v2 layout drifted — if intentional, bump the version byte and regenerate"
    );

    // The pinned bytes decode to the pinned batch (precise: exactly;
    // compact: the documented truncation).
    let precise = WireDecoder::decode(&golden_precise).unwrap();
    assert_eq!(precise.batch, b);
    let truncated = WireDecoder::decode(&golden_compact).unwrap().batch;
    assert_eq!(
        truncated.samples[0].samples[0].pkt_id,
        Digest(0x0123_4567),
        "compact digests keep their low 32 bits"
    );
    assert_eq!(
        truncated.samples[0].samples[0].time,
        SimTime::from_micros(1_234_567),
        "compact times are µs mod 2^24"
    );
    // And the frame header is what the docs say: magic, version 2.
    assert_eq!(&golden_compact[..4], b"VPMW");
    assert_eq!(golden_compact[4], 2);
    assert_eq!(golden_compact[5], 0, "compact profile flag");
    assert_eq!(golden_precise[5], 1, "precise profile flag");
}

/// How a frame field of the compact profile derives from its precise
/// counterpart: unchanged, a digest's low 32 bits, or ns → µs mod 2²⁴.
#[derive(Clone, Copy, Debug)]
enum Field {
    Exact,
    Digest,
    Time,
}

/// A golden frame walked field by field with the compiled constants.
struct Walk<'a> {
    bytes: &'a [u8],
    off: usize,
    fields: Vec<(Field, u64)>,
}

impl Walk<'_> {
    fn take(&mut self, n: usize, field: Field) -> Result<u64, String> {
        let off = self.off;
        let s = self
            .bytes
            .get(off..off + n)
            .ok_or(format!("frame truncated at byte {off} (needed {n} more)"))?;
        self.off += n;
        let v = s.iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b));
        self.fields.push((field, v));
        Ok(v)
    }

    fn path_ref(&mut self, paths: u64) -> Result<(), String> {
        match self.take(compact::PATH_REF_BYTES, Field::Exact)? {
            r if r < paths => Ok(()),
            r => Err(format!("path ref {r} outside the table of {paths}")),
        }
    }
}

/// Walk `bytes` with the compiled layout constants; every byte must be
/// accounted for. Yields every field but the profile flags.
fn walk_frame(bytes: &[u8], precise: bool) -> Result<Vec<(Field, u64)>, String> {
    use Field::{Digest, Exact, Time};
    let mut w = Walk {
        bytes,
        off: 0,
        fields: Vec::new(),
    };
    if w.take(4, Exact)? != u64::from(u32::from_le_bytes(MAGIC)) {
        return Err(format!("magic does not match MAGIC {MAGIC:02x?}"));
    }
    if w.take(1, Exact)? != u64::from(VERSION) {
        return Err(format!("version byte does not match VERSION {VERSION}"));
    }
    let flags = w.take(1, Exact)?;
    w.fields.pop();
    if flags & 1 != u64::from(precise) || flags & !0b11 != 0 {
        return Err(format!("flags {flags:#010b} do not match the profile"));
    }
    w.take(2, Exact)?; // hop
    w.take(8, Exact)?; // batch_seq
    if w.off != HEADER_BYTES {
        return Err(format!(
            "header fields end at byte {}, not HEADER_BYTES",
            w.off
        ));
    }
    let (id, time, cnt) = match precise {
        true => (8, 8, 8),
        false => (
            compact::PKT_ID_BYTES,
            compact::TIME_BYTES,
            compact::PKT_CNT_BYTES,
        ),
    };
    let paths = w.take(2, Exact)?;
    for _ in 0..paths * PATH_ENTRY_BYTES as u64 {
        w.take(1, Exact)?;
    }
    let samples = w.take(4, Exact)?;
    let dir = (0..samples)
        .map(|_| w.take(4, Exact))
        .collect::<Result<Vec<_>, _>>()?;
    for records in dir {
        w.path_ref(paths)?;
        for _ in 0..records {
            w.take(id, Digest)?;
            w.take(time, Time)?;
        }
    }
    for _ in 0..w.take(4, Exact)? {
        w.path_ref(paths)?;
        w.take(id, Digest)?;
        w.take(id, Digest)?;
        w.take(cnt, Exact)?;
        for _ in 0..w.take(4, Exact)? {
            w.take(id, Digest)?;
        }
    }
    match bytes.len() - w.off {
        0 => Ok(w.fields),
        n => Err(format!(
            "{n} trailing byte(s) the layout does not account for"
        )),
    }
}

/// Where the compiled wire constants, the pinned golden frames
/// (`golden`, as in `tests/golden/wire_v2.hex`) and the README's frame
/// diagram (`readme`) disagree; empty when they agree. Both frames
/// encode one batch, so the compact one must be the documented
/// truncation of the precise one: lo-32 digests, µs mod 2²⁴ times.
fn wire_constant_drift(golden: &str, readme: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if compact::SAMPLE_RECORD_BYTES != compact::PKT_ID_BYTES + compact::TIME_BYTES {
        errs.push("SAMPLE_RECORD_BYTES is not PKT_ID_BYTES + TIME_BYTES".to_string());
    }
    let frame = |tag, precise| {
        walk_frame(&golden_frame(golden, tag), precise).map_err(|e| format!("{tag}frame: {e}"))
    };
    match (frame("compact ", false), frame("precise ", true)) {
        (Ok(c), Ok(p)) => {
            let truncated = p.iter().map(|&(field, v)| match field {
                Field::Exact => v,
                Field::Digest => v & 0xFFFF_FFFF,
                Field::Time => v / compact::TIME_UNIT_NS % compact::TIME_MOD,
            });
            if c.len() != p.len() || !c.iter().map(|f| f.1).eq(truncated) {
                errs.push(
                    "compact frame is not the documented truncation of the precise one".into(),
                );
            }
        }
        (c, p) => errs.extend([c.err(), p.err()].into_iter().flatten()),
    }
    let documented = [
        format!("{HEADER_BYTES}-B header"),
        format!("{PATH_ENTRY_BYTES} B per distinct path"),
        format!("= {} B", compact::SAMPLE_RECORD_BYTES),
        format!(
            "{} B + {} B per window digest",
            compact::PATH_REF_BYTES + 2 * compact::PKT_ID_BYTES + compact::PKT_CNT_BYTES + 4,
            compact::PKT_ID_BYTES
        ),
        format!("{MAC_TRAILER_BYTES} B:"),
    ];
    for needle in documented {
        if !readme.contains(&needle) {
            errs.push(format!("README no longer documents '{needle}'"));
        }
    }
    errs
}

/// The v2 layout is declared three times — the compiled constants, the
/// golden frames, the README's frame diagram — and §7.1's byte
/// accounting needs all three to agree.
#[test]
fn wire_constants_agree_with_the_golden_frames_and_the_readme() {
    assert_eq!(wire_constant_drift(GOLDEN, README), Vec::<String>::new());
}

#[test]
fn wire_constant_drift_catches_a_seeded_golden_or_readme_mismatch() {
    // Flip one batch_seq byte of the compact frame (hex chars 16..18
    // encode frame byte 8): the two frames now disagree.
    let seeded_golden: String = GOLDEN
        .lines()
        .map(|line| match line.strip_prefix("compact ") {
            Some(hex) => {
                let flipped = if hex.as_bytes()[16] == b'0' { "1" } else { "0" };
                format!("compact {}{flipped}{}\n", &hex[..16], &hex[17..])
            }
            None => format!("{line}\n"),
        })
        .collect();
    let errs = wire_constant_drift(&seeded_golden, README);
    assert!(
        errs.iter()
            .any(|e| e.contains("not the documented truncation")),
        "{errs:?}"
    );
    // One trailing byte the layout does not account for.
    let padded = GOLDEN.replace("\nprecise", "00\nprecise");
    let errs = wire_constant_drift(&padded, README);
    assert!(errs.iter().any(|e| e.contains("trailing byte")), "{errs:?}");
    // A README size that drifted from HEADER_BYTES.
    let readme = README.replace("16-B header", "17-B header");
    let errs = wire_constant_drift(GOLDEN, &readme);
    assert_eq!(errs, vec!["README no longer documents '16-B header'"]);
}

/// Acceptance gate: encoded record sizes equal the `receipt::compact`
/// §7.1 constants, measured from actual frames through the facade.
#[test]
fn measured_wire_sizes_equal_the_section_7_1_constants() {
    let m = measured_sizes();
    assert_eq!(m.sample_record_bytes, compact::SAMPLE_RECORD_BYTES);
    assert_eq!(m.sample_record_bytes, 7);
    assert_eq!(m.agg_receipt_bytes, 22);
    assert_eq!(m.agg_window_digest_bytes, compact::PKT_ID_BYTES);
    // The measured report is finite everywhere a value is claimed.
    for (label, _paper, ours) in &vpm::wire::measured_overhead_report().rows {
        assert!(ours.is_finite(), "{label}");
    }
    // And per-receipt: the encoder's compact bodies are byte-for-byte
    // the arithmetic the §7.1 bandwidth model charges.
    let b = fixture_batch();
    for r in &b.samples {
        assert_eq!(
            Profile::Compact.sample_receipt_bytes(r.samples.len()),
            compact::sample_receipt_bytes(r)
        );
    }
    for a in &b.aggregates {
        assert_eq!(
            Profile::Compact.agg_receipt_bytes(a.agg_trans.len()),
            compact::agg_receipt_bytes(a)
        );
    }
}

/// The compact (§7.1) profile carries enough for verification: two
/// HOPs' receipts, shipped as truncated wire frames and decoded back,
/// still match by `PktID` and recover delay and loss.
#[test]
fn compact_frames_support_verification_end_to_end() {
    let path = fixture_path(0);
    let transit = SimDuration::from_micros(2_500);
    let mk_records = |offset: SimDuration| -> Vec<SampleRecord> {
        (0..4_000u64)
            .map(|i| SampleRecord {
                // Spread digests across the full 64-bit space so
                // truncation actually discards bits.
                pkt_id: Digest(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                time: SimTime::from_micros(50 * i) + offset,
            })
            .collect()
    };
    let batch = |samples: Vec<SampleRecord>, hop: HopId| ReceiptBatch {
        hop,
        batch_seq: 0,
        samples: vec![SampleReceipt { path, samples }],
        aggregates: vec![],
    };
    let up = batch(mk_records(SimDuration::ZERO), HopId(4));
    let down = batch(mk_records(transit), HopId(5));

    // Ship both through the transport as compact frames.
    let bus = ShardedBus::new(1);
    for b in [&up, &down] {
        let key = HopKey::from_seed(0xabc ^ b.hop.0 as u64);
        bus.register_key(b.hop, key).unwrap();
        bus.publish_batch(DomainId(1), b, Profile::Compact, vec![DomainId(1)], &key)
            .unwrap();
    }
    let fetched_up = &bus.fetch(DomainId(1), HopId(4)).unwrap()[0].batch;
    let fetched_down = &bus.fetch(DomainId(1), HopId(5)).unwrap()[0].batch;

    let matched = match_samples(
        &fetched_up.samples[0].samples,
        &fetched_down.samples[0].samples,
    );
    assert!(matched.len() as f64 > 0.999 * 4_000.0, "{}", matched.len());
    let est = Verifier::default()
        .estimate_delay_truncated(&matched)
        .expect("samples matched");
    for q in &est.quantiles {
        assert!((q.value - 2.5).abs() < 2e-3, "{q:?}");
    }
}

/// Satellite pin: fetching the same entry twice yields the same
/// allocation (`Arc`-shared) at either end of the shard-count range.
#[test]
fn fetch_shares_entries_instead_of_cloning() {
    for bus in [ShardedBus::new(1), ShardedBus::new(16)] {
        let b = fixture_batch();
        let key = HopKey::from_seed(0x5650_4d00 ^ 4);
        bus.register_key(b.hop, key).unwrap();
        bus.publish_batch(DomainId(2), &b, Profile::Precise, vec![DomainId(2)], &key)
            .unwrap();
        let first = bus.fetch(DomainId(2), b.hop).unwrap();
        let second = bus.fetch(DomainId(2), b.hop).unwrap();
        assert!(std::sync::Arc::ptr_eq(&first[0], &second[0]));
    }
}

/// A frame is bytes: hand the raw encoding to a fresh decoder (as a
/// remote receipt collector would receive it) and verification-grade
/// content comes back out.
#[test]
fn frames_survive_a_byte_level_round_trip() {
    let b = fixture_batch();
    let wire_bytes = WireEncoder::precise()
        .encode(&b)
        .unwrap()
        .as_bytes()
        .to_vec();
    let back = WireFrame::from_bytes(wire_bytes).decode().unwrap();
    assert_eq!(back.batch, b);
    assert_eq!(back.paths, b.paths());
}
