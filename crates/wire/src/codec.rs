//! The v2 binary receipt codec.
//!
//! Receipts travel as **frames**: one frame per [`ReceiptBatch`],
//! self-describing, versioned, and decodable without out-of-band
//! context. All multi-byte integers are little-endian.
//!
//! ```text
//! offset size      field
//! 0      4         magic "VPMW"
//! 4      1         version (currently 2)
//! 5      1         flags (bit0: PRECISE profile; bit1: SIGNED frame;
//!                  all other bits zero)
//! 6      2         reporting HOP id
//! 8      8         batch sequence number
//! 16     2         path count (p)
//! 18     24·p      PathID table, one entry per distinct path:
//!                  src net u32 | src len u8 | dst net u32 | dst len u8
//!                  | prev flag u8 | prev u16 | next flag u8 | next u16
//!                  | MaxDiff ns u64
//! …      4         sample-receipt count (s)
//! …      4·s       record-count directory, one u32 per sample receipt
//! …      …         sample-receipt bodies: path ref u32, then records
//!                    compact: PktID lo u32 | time µs mod 2²⁴ u24 (7 B)
//!                    precise: PktID u64   | time ns u64         (16 B)
//! …      4         aggregate-receipt count (a)
//! …      …         aggregate-receipt bodies:
//!                    compact: path ref u32 | first lo u32 | last lo u32
//!                             | PktCnt u48 | window len u32
//!                             | window lo u32 each        (22 + 4w B)
//!                    precise: path ref u32 | first u64 | last u64
//!                             | PktCnt u64 | window len u32
//!                             | window u64 each           (32 + 8w B)
//! …      36        MAC trailer, only when the SIGNED flag is set:
//!                    key epoch u32 | HMAC-SHA-256 (32 B) over every
//!                    preceding frame byte, epoch field included — so
//!                    the MAC binds the epoch, and any bit of header,
//!                    body, or epoch invalidates it
//! ```
//!
//! Two record profiles share this layout:
//!
//! * [`Profile::Compact`] — the §7.1 wire format. Record bytes are
//!   **exactly** the `receipt::compact` arithmetic: 7-byte sample
//!   records, 22-byte aggregate receipts (+4 per window digest), with
//!   the truncation semantics documented in `vpm_core::receipt::compact`
//!   (low-32-bit digests; µs-mod-2²⁴ timestamps). Decoding re-expands
//!   the truncated values; the verifier's truncated digest-matching
//!   path (`Verifier::estimate_delay_truncated`) consumes them.
//! * [`Profile::Precise`] — full-fidelity 8-byte digests and nanosecond
//!   timestamps. `encode → decode` is the identity on [`ReceiptBatch`];
//!   the simulation pipeline routes every receipt through this profile,
//!   so the entire test surface (including the 216-cell matrix goldens)
//!   proves the codec lossless.
//!
//! Decoding is **total**: any byte string either decodes or returns a
//! typed [`WireError`] — truncated input, bad magic, unknown versions
//! or flags, dangling path references, oversized counts and trailing
//! garbage are all errors, never panics (fuzzed in this module's
//! tests).
//!
//! ## Signed frames
//!
//! A frame with the SIGNED flag carries a 36-byte MAC trailer
//! ([`MAC_TRAILER_BYTES`]): the [`vpm_hash::KeyEpoch`] under which the
//! publishing HOP's key was registered, then an HMAC-SHA-256 over all
//! preceding bytes under the HOP's 32-byte [`vpm_hash::HopKey`].
//! [`WireEncoder::encode_signed`] produces them;
//! [`WireFrame::verify_mac`] checks them (constant-time compare). An
//! unsigned frame is the same bytes minus the flag and the trailer; the
//! decoder merely reports `signature: None`. Enforcement — *rejecting*
//! unsigned or mis-signed publishes — lives in the transport's `admit`,
//! not the codec. The MAC is the frame's only authenticator.
//!
//! ## Versioning rules
//!
//! The version byte names the complete layout above. Any layout change
//! — field widths, section order, new sections — bumps it; decoders
//! reject versions they do not know ([`WireError::UnsupportedVersion`])
//! rather than guessing. Flag bits not assigned in a version are
//! reserved-zero and rejected ([`WireError::BadFlags`]), so a decoder
//! can never silently misread a frame that depends on a newer feature.
//! v2 is v1 without the header's 8-byte lookup3 authenticity tag
//! (bytes 16..24); nothing persists frames, so v1 has no decode path
//! and is refused like any unknown version. The golden fixture
//! `tests/golden/wire_v2.hex` pins the v2 bytes; it fails loudly on any
//! drift that forgets to bump the version.

use std::fmt;

use vpm_core::processor::ReceiptBatch;
use vpm_core::receipt::{compact, AggId, AggReceipt, PathId, SampleReceipt, SampleRecord};
use vpm_hash::{mac_eq, Digest, HopKey, KeyEpoch, SHA256_DIGEST_BYTES};
use vpm_packet::{HeaderSpec, HopId, Ipv4Prefix, SimDuration, SimTime};

/// Frame magic: `"VPMW"`.
pub const MAGIC: [u8; 4] = *b"VPMW";
/// Current wire-format version.
pub const VERSION: u8 = 2;
/// Flag bit selecting the precise (full-fidelity) record profile.
const FLAG_PRECISE: u8 = 0b0000_0001;
/// Flag bit marking a signed frame (MAC trailer present).
const FLAG_SIGNED: u8 = 0b0000_0010;
/// Fixed frame header bytes (magic, version, flags, hop, seq).
pub const HEADER_BYTES: usize = 16;
/// Encoded bytes per `PathID` table entry.
pub const PATH_ENTRY_BYTES: usize = 24;
/// Bytes of the MAC trailer a signed frame appends: key epoch (u32) +
/// HMAC-SHA-256 (32 B).
pub const MAC_TRAILER_BYTES: usize = 4 + SHA256_DIGEST_BYTES;

/// Record encoding carried by a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// §7.1 truncated records: 7-byte samples, 22-byte aggregates.
    Compact,
    /// Full-fidelity records: lossless `encode → decode`.
    Precise,
}

impl Profile {
    /// Encoded bytes per sample record in this profile.
    pub fn sample_record_bytes(self) -> usize {
        match self {
            Profile::Compact => compact::SAMPLE_RECORD_BYTES,
            Profile::Precise => 16,
        }
    }

    /// Encoded body bytes of a sample receipt with `records` records
    /// (path reference + records; the 4-byte directory entry lives in
    /// the frame's sample directory, not the body).
    pub fn sample_receipt_bytes(self, records: usize) -> usize {
        compact::PATH_REF_BYTES + records * self.sample_record_bytes()
    }

    /// Encoded body bytes of an aggregate receipt with a `window`-digest
    /// `AggTrans` window. For [`Profile::Compact`] this is the paper's
    /// 22 bytes plus 4 per window digest.
    pub fn agg_receipt_bytes(self, window: usize) -> usize {
        match self {
            Profile::Compact => {
                compact::PATH_REF_BYTES
                    + 2 * compact::PKT_ID_BYTES
                    + compact::PKT_CNT_BYTES
                    + 4
                    + window * compact::PKT_ID_BYTES
            }
            Profile::Precise => compact::PATH_REF_BYTES + 2 * 8 + 8 + 4 + window * 8,
        }
    }

    fn flags(self) -> u8 {
        match self {
            Profile::Compact => 0,
            Profile::Precise => FLAG_PRECISE,
        }
    }
}

/// Typed codec errors. Decoding is total: every malformed input maps to
/// one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a field could be read.
    Truncated {
        /// Byte offset at which more input was needed.
        at: usize,
        /// Bytes the next field needed.
        needed: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte names a layout this decoder does not know.
    UnsupportedVersion(u8),
    /// The flags byte sets bits this version does not assign.
    BadFlags(u8),
    /// A prefix length exceeded 32 bits.
    BadPrefixLen(u8),
    /// An Option tag byte was neither 0 nor 1.
    BadOptionTag(u8),
    /// A receipt referenced a path index beyond the frame's table.
    BadPathRef {
        /// The dangling reference.
        reference: u32,
        /// Entries actually present in the table.
        paths: u16,
    },
    /// A packet count does not fit the compact profile's 6-byte field.
    CountTooLarge(u64),
    /// More than `u16::MAX` distinct paths in one batch (encode-side).
    TooManyPaths(usize),
    /// A receipt or record count overflowed its 4-byte field
    /// (encode-side).
    TooManyItems(usize),
    /// Bytes remained after the last section (corrupt or concatenated
    /// input).
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at, needed } => {
                write!(f, "input truncated at byte {at} (needed {needed} more)")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadFlags(b) => write!(f, "unassigned flag bits set: {b:#010b}"),
            WireError::BadPrefixLen(l) => write!(f, "prefix length {l} > 32"),
            WireError::BadOptionTag(t) => write!(f, "option tag {t} is neither 0 nor 1"),
            WireError::BadPathRef { reference, paths } => {
                write!(f, "path ref {reference} outside table of {paths}")
            }
            WireError::CountTooLarge(c) => {
                write!(f, "packet count {c} exceeds the 6-byte wire field")
            }
            WireError::TooManyPaths(p) => write!(f, "{p} paths exceed the 2-byte table"),
            WireError::TooManyItems(n) => write!(f, "{n} items exceed a 4-byte count"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// Where each section of an encoded frame landed — the measured sizes
/// behind `measure::measured_sizes()` and the `measured_*` §7.1
/// functions in `vpm_core::overhead`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStats {
    /// Total frame bytes.
    pub total_bytes: usize,
    /// Fixed header bytes ([`HEADER_BYTES`]).
    pub header_bytes: usize,
    /// Path-table bytes (2-byte count + entries).
    pub path_table_bytes: usize,
    /// Sample section framing: 4-byte count + 4-byte directory entries.
    pub sample_directory_bytes: usize,
    /// Sample-receipt body bytes (path refs + records).
    pub sample_body_bytes: usize,
    /// Aggregate section bytes (4-byte count + bodies).
    pub agg_section_bytes: usize,
    /// MAC trailer bytes: [`MAC_TRAILER_BYTES`] for a signed frame,
    /// 0 for an unsigned one.
    pub mac_trailer_bytes: usize,
}

/// The MAC trailer of a signed frame, as decoded off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSignature {
    /// The key epoch the publisher claims to have signed under.
    pub epoch: KeyEpoch,
    /// The HMAC-SHA-256 over every preceding frame byte.
    pub mac: [u8; SHA256_DIGEST_BYTES],
}

/// One encoded receipt frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    bytes: Vec<u8>,
}

impl WireFrame {
    /// Wrap raw bytes without validating them (validation happens at
    /// [`WireFrame::decode`] / [`WireDecoder::decode`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        WireFrame { bytes }
    }

    /// The frame's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Is the frame empty (zero bytes — never a valid encoding)?
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Encode a batch in the given profile.
    pub fn encode(batch: &ReceiptBatch, profile: Profile) -> Result<WireFrame, WireError> {
        WireEncoder::new(profile).encode(batch)
    }

    /// Decode this frame.
    pub fn decode(&self) -> Result<DecodedFrame, WireError> {
        WireDecoder::decode(&self.bytes)
    }

    /// Verify the MAC trailer of a signed frame against `key`
    /// (constant-time compare). Returns `false` for unsigned or
    /// impossibly short frames — a frame that carries no signature can
    /// never *verify*.
    ///
    /// The MAC covers every byte before the 32-byte MAC itself
    /// (header, body, and the epoch field), so any single-bit change
    /// anywhere in the frame invalidates it.
    pub fn verify_mac(&self, key: &HopKey) -> bool {
        let n = self.bytes.len();
        #[expect(
            clippy::indexing_slicing,
            reason = "bytes[5] is covered by the length check on the same line"
        )]
        if n < HEADER_BYTES + MAC_TRAILER_BYTES || self.bytes[5] & FLAG_SIGNED == 0 {
            return false;
        }
        let (msg, mac) = self.bytes.split_at(n - SHA256_DIGEST_BYTES);
        #[expect(
            clippy::expect_used,
            reason = "split_at(n - 32) yields an exactly 32-byte tail"
        )]
        let mac: [u8; SHA256_DIGEST_BYTES] = mac.try_into().expect("32-byte split");
        mac_eq(&key.mac(msg), &mac)
    }

    /// Lower-case hex rendering (golden fixtures, debugging).
    pub fn to_hex(&self) -> String {
        self.bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// A decoded frame: the batch plus frame-level metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// The reconstructed batch. Exact under [`Profile::Precise`];
    /// truncated per `receipt::compact` under [`Profile::Compact`].
    pub batch: ReceiptBatch,
    /// The record profile the frame was encoded with.
    pub profile: Profile,
    /// The frame's `PathID` table, in wire order.
    pub paths: Vec<PathId>,
    /// The MAC trailer, when the frame was signed. Decoding reads it;
    /// it does **not** verify it — call [`WireFrame::verify_mac`] with
    /// the registered key for the claimed epoch.
    pub signature: Option<FrameSignature>,
}

/// Encodes [`ReceiptBatch`]es into frames: one pass over the receipts
/// for the path table and references
/// ([`ReceiptBatch::path_table`]), one for the exact size, one
/// allocation, every record written as a whole unit.
#[derive(Debug, Clone, Copy)]
pub struct WireEncoder {
    profile: Profile,
}

impl WireEncoder {
    /// An encoder for the given record profile.
    pub fn new(profile: Profile) -> Self {
        WireEncoder { profile }
    }

    /// The §7.1 compact-profile encoder.
    pub fn compact() -> Self {
        WireEncoder::new(Profile::Compact)
    }

    /// The lossless precise-profile encoder.
    pub fn precise() -> Self {
        WireEncoder::new(Profile::Precise)
    }

    /// This encoder's record profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Encode a batch.
    pub fn encode(&self, batch: &ReceiptBatch) -> Result<WireFrame, WireError> {
        self.encode_with_stats(batch).map(|(f, _)| f)
    }

    /// Encode a batch and report where each section landed.
    pub fn encode_with_stats(
        &self,
        batch: &ReceiptBatch,
    ) -> Result<(WireFrame, FrameStats), WireError> {
        self.encode_inner(batch, None)
    }

    /// Encode a batch as a **signed** frame: the SIGNED flag is set
    /// and a [`MAC_TRAILER_BYTES`]-byte trailer (epoch + HMAC-SHA-256
    /// under `key`) is appended. Deterministic: the same batch, key,
    /// and epoch always produce the same bytes.
    pub fn encode_signed(
        &self,
        batch: &ReceiptBatch,
        key: &HopKey,
        epoch: KeyEpoch,
    ) -> Result<WireFrame, WireError> {
        self.encode_signed_with_stats(batch, key, epoch)
            .map(|(f, _)| f)
    }

    /// [`WireEncoder::encode_signed`], also reporting section sizes
    /// (`mac_trailer_bytes` included).
    pub fn encode_signed_with_stats(
        &self,
        batch: &ReceiptBatch,
        key: &HopKey,
        epoch: KeyEpoch,
    ) -> Result<(WireFrame, FrameStats), WireError> {
        self.encode_inner(batch, Some((key, epoch)))
    }

    /// One pass to build the path table and every receipt's reference,
    /// one to validate every count and add up the exact frame size,
    /// then a single allocation that the writes below fill to the last
    /// byte: nothing after the size pass can fail.
    fn encode_inner(
        &self,
        batch: &ReceiptBatch,
        sign: Option<(&HopKey, KeyEpoch)>,
    ) -> Result<(WireFrame, FrameStats), WireError> {
        let profile = self.profile;
        let (paths, refs) = batch.path_table();
        let path_count =
            u16::try_from(paths.len()).map_err(|_| WireError::TooManyPaths(paths.len()))?;
        let mut refs = refs.into_iter();

        let header_bytes = HEADER_BYTES;
        let path_table_bytes = 2 + paths.len() * PATH_ENTRY_BYTES;
        let sample_count = count32(batch.samples.len())?;
        let sample_directory_bytes = 4 + 4 * batch.samples.len();
        let mut sample_body_bytes = 0;
        for r in &batch.samples {
            count32(r.samples.len())?;
            sample_body_bytes += profile.sample_receipt_bytes(r.samples.len());
        }
        let agg_count = count32(batch.aggregates.len())?;
        let mut agg_section_bytes = 4;
        for a in &batch.aggregates {
            if profile == Profile::Compact && a.pkt_cnt >= 1 << 48 {
                return Err(WireError::CountTooLarge(a.pkt_cnt));
            }
            count32(a.agg_trans.len())?;
            agg_section_bytes += profile.agg_receipt_bytes(a.agg_trans.len());
        }
        let mac_trailer_bytes = if sign.is_some() { MAC_TRAILER_BYTES } else { 0 };
        let total_bytes = header_bytes
            + path_table_bytes
            + sample_directory_bytes
            + sample_body_bytes
            + agg_section_bytes
            + mac_trailer_bytes;

        let mut w = Writer::with_capacity(total_bytes);
        // Header.
        w.bytes(&MAGIC);
        w.u8(VERSION);
        let mut flags = profile.flags();
        if sign.is_some() {
            flags |= FLAG_SIGNED;
        }
        w.u8(flags);
        w.u16(batch.hop.0);
        w.u64(batch.batch_seq);

        // Path table.
        w.u16(path_count);
        for p in &paths {
            encode_path(&mut w, p);
        }

        // Sample directory, then bodies: each record one whole unit.
        w.u32(sample_count);
        for r in &batch.samples {
            w.u32(r.samples.len() as u32);
        }
        for (r, reference) in batch.samples.iter().zip(refs.by_ref()) {
            w.u32(reference);
            match profile {
                Profile::Compact => {
                    for s in &r.samples {
                        let id = u64::from(compact::truncate_digest(s.pkt_id));
                        let time = u64::from(compact::truncate_time(s.time));
                        let [b0, b1, b2, b3, b4, b5, b6, _] = (id | time << 32).to_le_bytes();
                        w.bytes(&[b0, b1, b2, b3, b4, b5, b6]);
                    }
                }
                Profile::Precise => {
                    for s in &r.samples {
                        let unit = u128::from(s.pkt_id.0) | u128::from(s.time.as_nanos()) << 64;
                        w.bytes(&unit.to_le_bytes());
                    }
                }
            }
        }

        // Aggregate section.
        w.u32(agg_count);
        for (a, reference) in batch.aggregates.iter().zip(refs) {
            w.u32(reference);
            match profile {
                Profile::Compact => {
                    w.u32(compact::truncate_digest(a.agg.first));
                    w.u32(compact::truncate_digest(a.agg.last));
                    w.u48(a.pkt_cnt);
                }
                Profile::Precise => {
                    w.u64(a.agg.first.0);
                    w.u64(a.agg.last.0);
                    w.u64(a.pkt_cnt);
                }
            }
            w.u32(a.agg_trans.len() as u32);
            for &d in &a.agg_trans {
                match profile {
                    Profile::Compact => w.u32(compact::truncate_digest(d)),
                    Profile::Precise => w.u64(d.0),
                }
            }
        }

        // MAC trailer: epoch, then the HMAC over everything written so
        // far — epoch field included, so a replay under a different
        // epoch cannot reuse the MAC.
        if let Some((key, epoch)) = sign {
            w.u32(epoch.0);
            let mac = key.mac(w.as_slice());
            w.bytes(&mac);
        }
        debug_assert_eq!(w.len(), total_bytes, "the size pass is exact");

        let stats = FrameStats {
            total_bytes,
            header_bytes,
            path_table_bytes,
            sample_directory_bytes,
            sample_body_bytes,
            agg_section_bytes,
            mac_trailer_bytes,
        };
        Ok((
            WireFrame {
                bytes: w.into_vec(),
            },
            stats,
        ))
    }
}

/// Decodes frames back into batches. Stateless; decoding is total.
///
/// The result owns its batch. A receipt's records, and an aggregate's
/// window, are each taken off the input as one bounds-checked run and
/// converted unit by unit into a `Vec` of exactly that many — the cost
/// of an owned decode is then the allocation and the copy.
#[derive(Debug, Clone, Copy)]
pub struct WireDecoder;

impl WireDecoder {
    /// Decode a frame from raw bytes.
    pub fn decode(bytes: &[u8]) -> Result<DecodedFrame, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.array::<4>()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let flags = r.u8()?;
        let signed = flags & FLAG_SIGNED != 0;
        let profile = match flags & !FLAG_SIGNED {
            0 => Profile::Compact,
            FLAG_PRECISE => Profile::Precise,
            _ => return Err(WireError::BadFlags(flags)),
        };
        let hop = HopId(r.u16()?);
        let batch_seq = r.u64()?;

        // Path table.
        let path_count = r.u16()?;
        r.can_hold(path_count as usize, PATH_ENTRY_BYTES)?;
        let mut paths = Vec::with_capacity(path_count as usize);
        for _ in 0..path_count {
            paths.push(decode_path(&mut r)?);
        }
        let path_at = |reference: u32| -> Result<PathId, WireError> {
            paths
                .get(reference as usize)
                .copied()
                .ok_or(WireError::BadPathRef {
                    reference,
                    paths: path_count,
                })
        };

        // Sample directory, then bodies: a receipt's records are one
        // run of whole units, taken as one slice.
        let sample_count = r.u32()? as usize;
        let (directory, _) = r.run(sample_count, 4)?.as_chunks::<4>();
        let mut samples = Vec::with_capacity(sample_count);
        for count in directory {
            let records = u32::from_le_bytes(*count) as usize;
            let path = path_at(r.u32()?)?;
            let recs = match profile {
                Profile::Compact => {
                    let (units, _) = r
                        .run(records, compact::SAMPLE_RECORD_BYTES)?
                        .as_chunks::<{ compact::SAMPLE_RECORD_BYTES }>();
                    units
                        .iter()
                        .map(|&[i0, i1, i2, i3, t0, t1, t2]| SampleRecord {
                            pkt_id: compact::expand_digest(u32::from_le_bytes([i0, i1, i2, i3])),
                            time: compact::expand_time(u32::from_le_bytes([t0, t1, t2, 0])),
                        })
                        .collect()
                }
                Profile::Precise => {
                    let (units, _) = r.run(records, 16)?.as_chunks::<16>();
                    units
                        .iter()
                        .map(|unit| {
                            let unit = u128::from_le_bytes(*unit);
                            SampleRecord {
                                pkt_id: Digest(unit as u64),
                                time: SimTime::from_nanos((unit >> 64) as u64),
                            }
                        })
                        .collect()
                }
            };
            samples.push(SampleReceipt {
                path,
                samples: recs,
            });
        }

        // Aggregate section.
        let agg_count = r.u32()? as usize;
        r.can_hold(agg_count, profile.agg_receipt_bytes(0))?;
        let mut aggregates = Vec::with_capacity(agg_count);
        for _ in 0..agg_count {
            let path = path_at(r.u32()?)?;
            let (first, last, pkt_cnt) = match profile {
                Profile::Compact => (
                    compact::expand_digest(r.u32()?),
                    compact::expand_digest(r.u32()?),
                    r.u48()?,
                ),
                Profile::Precise => (Digest(r.u64()?), Digest(r.u64()?), r.u64()?),
            };
            let window = r.u32()? as usize;
            let agg_trans = match profile {
                Profile::Compact => {
                    let (digests, _) = r
                        .run(window, compact::PKT_ID_BYTES)?
                        .as_chunks::<{ compact::PKT_ID_BYTES }>();
                    digests
                        .iter()
                        .map(|d| compact::expand_digest(u32::from_le_bytes(*d)))
                        .collect()
                }
                Profile::Precise => {
                    let (digests, _) = r.run(window, 8)?.as_chunks::<8>();
                    digests
                        .iter()
                        .map(|d| Digest(u64::from_le_bytes(*d)))
                        .collect()
                }
            };
            aggregates.push(AggReceipt {
                path,
                agg: AggId { first, last },
                pkt_cnt,
                agg_trans,
            });
        }

        // MAC trailer (signed frames only), then nothing may remain.
        let signature = if signed {
            let epoch = KeyEpoch(r.u32()?);
            let mac = r.array::<SHA256_DIGEST_BYTES>()?;
            Some(FrameSignature { epoch, mac })
        } else {
            None
        };

        if r.remaining() > 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }

        Ok(DecodedFrame {
            batch: ReceiptBatch {
                hop,
                batch_seq,
                samples,
                aggregates,
            },
            profile,
            paths,
            signature,
        })
    }
}

fn count32(n: usize) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| WireError::TooManyItems(n))
}

pub(crate) fn encode_path(w: &mut Writer, p: &PathId) {
    w.u32(u32::from(p.spec.src_prefix.network()));
    w.u8(p.spec.src_prefix.len());
    w.u32(u32::from(p.spec.dst_prefix.network()));
    w.u8(p.spec.dst_prefix.len());
    for hop in [p.prev_hop, p.next_hop] {
        match hop {
            None => {
                w.u8(0);
                w.u16(0);
            }
            Some(h) => {
                w.u8(1);
                w.u16(h.0);
            }
        }
    }
    w.u64(p.max_diff.as_nanos());
}

pub(crate) fn decode_path(r: &mut Reader<'_>) -> Result<PathId, WireError> {
    let prefix = |r: &mut Reader<'_>| -> Result<Ipv4Prefix, WireError> {
        let net = r.u32()?;
        let len = r.u8()?;
        Ipv4Prefix::new(std::net::Ipv4Addr::from(net), len)
            .map_err(|_| WireError::BadPrefixLen(len))
    };
    let src = prefix(r)?;
    let dst = prefix(r)?;
    let hop = |r: &mut Reader<'_>| -> Result<Option<HopId>, WireError> {
        let tag = r.u8()?;
        let id = r.u16()?;
        match tag {
            0 => Ok(None),
            1 => Ok(Some(HopId(id))),
            other => Err(WireError::BadOptionTag(other)),
        }
    };
    let prev_hop = hop(r)?;
    let next_hop = hop(r)?;
    let max_diff = SimDuration::from_nanos(r.u64()?);
    Ok(PathId {
        spec: HeaderSpec::new(src, dst),
        prev_hop,
        next_hop,
        max_diff,
    })
}

/// Little-endian append-only byte writer.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer whose buffer never grows while at most `bytes` are
    /// written.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf
    }
    pub(crate) fn into_vec(self) -> Vec<u8> {
        self.buf
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u48(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes()[..6]);
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader; every overrun is a typed
/// [`WireError::Truncated`].
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Pre-flight an `items × size` section so corrupt counts fail fast
    /// instead of over-allocating before the per-item reads error out.
    pub(crate) fn can_hold(&self, items: usize, size: usize) -> Result<(), WireError> {
        let needed = items.saturating_mul(size);
        if needed > self.remaining() {
            return Err(WireError::Truncated {
                at: self.at,
                needed: needed - self.remaining(),
            });
        }
        Ok(())
    }

    /// `items` whole units of `size` bytes as one slice. The length is
    /// the product [`Reader::can_hold`] checks: a count the input
    /// cannot back is [`WireError::Truncated`] before anything is
    /// allocated for it, and a product that overflows backs nothing.
    pub(crate) fn run(&mut self, items: usize, size: usize) -> Result<&'a [u8], WireError> {
        self.take(items.saturating_mul(size))
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                at: self.at,
                needed: n - self.remaining(),
            });
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "take() checked at + n <= buf.len() above"
        )]
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    #[expect(clippy::expect_used, reason = "take(N) returned exactly N bytes")]
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    #[expect(clippy::indexing_slicing, reason = "take(1) returned exactly one byte")]
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "take(6) returned exactly six bytes"
    )]
    pub(crate) fn u48(&mut self) -> Result<u64, WireError> {
        let b = self.take(6)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], 0, 0,
        ]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use vpm_packet::DomainId;

    fn path(n: u8) -> PathId {
        PathId {
            spec: HeaderSpec::new(
                format!("10.{n}.0.0/16").parse().unwrap(),
                "192.168.0.0/24".parse().unwrap(),
            ),
            prev_hop: n.is_multiple_of(2).then_some(HopId(3)),
            next_hop: Some(HopId(5)),
            max_diff: SimDuration::from_millis(2),
        }
    }

    fn known_batch() -> ReceiptBatch {
        ReceiptBatch {
            hop: HopId(4),
            batch_seq: 9,
            samples: vec![
                SampleReceipt {
                    path: path(0),
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
                    path: path(1),
                    samples: vec![],
                },
            ],
            aggregates: vec![AggReceipt {
                path: path(0),
                agg: AggId {
                    first: Digest(0xaaaa_bbbb_cccc_dddd),
                    last: Digest(0x1111_2222_3333_4444),
                },
                pkt_cnt: 100_000,
                agg_trans: vec![Digest(7), Digest(0xffff_ffff_0000_0001)],
            }],
        }
    }

    /// Deterministic pseudo-random batch for the fuzz properties.
    fn arb_batch(seed: u64) -> ReceiptBatch {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_paths = rng.gen_range(0usize..4) + 1;
        let paths: Vec<PathId> = (0..n_paths)
            .map(|_| PathId {
                spec: HeaderSpec::new(
                    Ipv4Prefix::new(
                        std::net::Ipv4Addr::from(rng.gen::<u32>()),
                        rng.gen_range(0u32..33) as u8,
                    )
                    .unwrap(),
                    Ipv4Prefix::new(
                        std::net::Ipv4Addr::from(rng.gen::<u32>()),
                        rng.gen_range(0u32..33) as u8,
                    )
                    .unwrap(),
                ),
                prev_hop: rng.gen::<bool>().then(|| HopId(rng.gen())),
                next_hop: rng.gen::<bool>().then(|| HopId(rng.gen())),
                max_diff: SimDuration::from_nanos(rng.gen()),
            })
            .collect();
        ReceiptBatch {
            hop: HopId(rng.gen()),
            batch_seq: rng.gen(),
            samples: (0..rng.gen_range(0usize..4))
                .map(|_| SampleReceipt {
                    path: paths[rng.gen_range(0usize..paths.len())],
                    samples: (0..rng.gen_range(0usize..20))
                        .map(|_| SampleRecord {
                            pkt_id: Digest(rng.gen()),
                            time: SimTime::from_nanos(rng.gen()),
                        })
                        .collect(),
                })
                .collect(),
            aggregates: (0..rng.gen_range(0usize..4))
                .map(|_| AggReceipt {
                    path: paths[rng.gen_range(0usize..paths.len())],
                    agg: AggId {
                        first: Digest(rng.gen()),
                        last: Digest(rng.gen()),
                    },
                    pkt_cnt: rng.gen::<u64>() & ((1 << 48) - 1),
                    agg_trans: (0..rng.gen_range(0usize..6))
                        .map(|_| Digest(rng.gen()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// The compact truncation of a batch: what a compact frame decodes
    /// to.
    fn truncated(b: &ReceiptBatch) -> ReceiptBatch {
        ReceiptBatch {
            hop: b.hop,
            batch_seq: b.batch_seq,
            samples: b
                .samples
                .iter()
                .map(compact::truncate_sample_receipt)
                .collect(),
            aggregates: b
                .aggregates
                .iter()
                .map(compact::truncate_agg_receipt)
                .collect(),
        }
    }

    #[test]
    fn precise_roundtrip_is_the_identity() {
        let b = known_batch();
        let frame = WireFrame::encode(&b, Profile::Precise).unwrap();
        let d = frame.decode().unwrap();
        assert_eq!(d.profile, Profile::Precise);
        assert_eq!(d.batch, b);
        assert_eq!(d.paths, b.paths());
    }

    #[test]
    fn compact_roundtrip_is_the_documented_truncation() {
        let b = known_batch();
        let frame = WireFrame::encode(&b, Profile::Compact).unwrap();
        let d = frame.decode().unwrap();
        assert_eq!(d.profile, Profile::Compact);
        assert_eq!(d.batch, truncated(&b));
        // Truncation is idempotent: re-encoding the decoded batch gives
        // the same bytes.
        let again = WireFrame::encode(&d.batch, Profile::Compact).unwrap();
        assert_eq!(again, frame);
    }

    #[test]
    fn encoded_sections_match_the_size_arithmetic() {
        let b = known_batch();
        for profile in [Profile::Compact, Profile::Precise] {
            let (frame, stats) = WireEncoder::new(profile).encode_with_stats(&b).unwrap();
            assert_eq!(stats.total_bytes, frame.len());
            assert_eq!(stats.header_bytes, HEADER_BYTES);
            assert_eq!(
                stats.path_table_bytes,
                2 + b.paths().len() * PATH_ENTRY_BYTES
            );
            assert_eq!(stats.sample_directory_bytes, 4 + 4 * b.samples.len());
            assert_eq!(
                stats.sample_body_bytes,
                b.samples
                    .iter()
                    .map(|r| profile.sample_receipt_bytes(r.samples.len()))
                    .sum::<usize>()
            );
            assert_eq!(
                stats.agg_section_bytes,
                4 + b
                    .aggregates
                    .iter()
                    .map(|a| profile.agg_receipt_bytes(a.agg_trans.len()))
                    .sum::<usize>()
            );
            assert_eq!(
                stats.mac_trailer_bytes, 0,
                "unsigned frames carry no trailer"
            );
            // Signing adds exactly the fixed trailer, nothing else.
            let key = HopKey::from_seed(0xabc);
            let (signed, s_stats) = WireEncoder::new(profile)
                .encode_signed_with_stats(&b, &key, KeyEpoch(0))
                .unwrap();
            assert_eq!(s_stats.mac_trailer_bytes, MAC_TRAILER_BYTES);
            assert_eq!(s_stats.total_bytes, stats.total_bytes + MAC_TRAILER_BYTES);
            assert_eq!(signed.len(), frame.len() + MAC_TRAILER_BYTES);
        }
        // Compact receipt bodies are byte-for-byte the §7.1 arithmetic.
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
        assert_eq!(Profile::Compact.sample_record_bytes(), 7);
        assert_eq!(Profile::Compact.agg_receipt_bytes(0), 22);
    }

    /// One allocation, filled to the last byte: the size pass is exact
    /// for every shape of batch, on both profiles, signed or not.
    fn assert_exact_size(b: &ReceiptBatch) {
        let key = HopKey::from_seed(0xabc);
        for profile in [Profile::Compact, Profile::Precise] {
            let enc = WireEncoder::new(profile);
            for (frame, stats) in [
                enc.encode_with_stats(b).unwrap(),
                enc.encode_signed_with_stats(b, &key, KeyEpoch(2)).unwrap(),
            ] {
                assert_eq!(frame.len(), stats.total_bytes, "{profile:?}");
                assert_eq!(frame.bytes.capacity(), frame.len(), "{profile:?}");
                assert_eq!(
                    stats.total_bytes,
                    stats.header_bytes
                        + stats.path_table_bytes
                        + stats.sample_directory_bytes
                        + stats.sample_body_bytes
                        + stats.agg_section_bytes
                        + stats.mac_trailer_bytes
                );
            }
        }
    }

    #[test]
    fn frames_are_allocated_once_at_their_exact_size() {
        assert_exact_size(&known_batch());
        for seed in 0..64 {
            assert_exact_size(&arb_batch(seed));
        }
        let empty = ReceiptBatch {
            hop: HopId(4),
            batch_seq: 0,
            samples: Vec::new(),
            aggregates: Vec::new(),
        };
        assert_exact_size(&empty);
        assert_eq!(
            WireFrame::encode(&empty, Profile::Compact).unwrap().len(),
            HEADER_BYTES + 2 + 4 + 4
        );
        let only_aggregates = ReceiptBatch {
            samples: Vec::new(),
            ..known_batch()
        };
        assert_exact_size(&only_aggregates);
        assert_eq!(
            only_aggregates,
            WireFrame::encode(&only_aggregates, Profile::Precise)
                .unwrap()
                .decode()
                .unwrap()
                .batch
        );
    }

    #[test]
    fn path_references_survive_any_receipt_order() {
        // 300 paths — more than one byte of reference — whose sample
        // receipts come in one order and whose aggregates, several per
        // path and not grouped, in another.
        let n = 300u32;
        let many = |i: u32| PathId {
            max_diff: SimDuration::from_nanos(u64::from(i)),
            ..path(i as u8)
        };
        let b = ReceiptBatch {
            hop: HopId(4),
            batch_seq: 1,
            samples: (0..n)
                .map(|i| SampleReceipt {
                    path: many(i),
                    samples: vec![SampleRecord {
                        pkt_id: Digest(u64::from(i)),
                        time: SimTime::from_nanos(u64::from(i)),
                    }],
                })
                .collect(),
            aggregates: (0..3 * n)
                .map(|i| AggReceipt {
                    path: many((i * 7) % (n + 20)),
                    agg: AggId {
                        first: Digest(u64::from(i)),
                        last: Digest(u64::from(i) + 1),
                    },
                    pkt_cnt: u64::from(i),
                    agg_trans: vec![Digest(u64::from(i))],
                })
                .collect(),
        };
        assert_eq!(b.paths().len(), (n + 20) as usize);
        assert_exact_size(&b);
        let d = WireFrame::encode(&b, Profile::Precise)
            .unwrap()
            .decode()
            .unwrap();
        assert_eq!(d.paths, b.paths());
        assert_eq!(d.batch, b);
        let d = WireFrame::encode(&b, Profile::Compact)
            .unwrap()
            .decode()
            .unwrap();
        assert_eq!(d.paths, b.paths());
        assert_eq!(d.batch, truncated(&b));
    }

    #[test]
    fn hostile_counts_are_truncation_not_allocation() {
        // Every count a run is sized from — receipts in the directory,
        // records of a receipt, digests of a window — set to the
        // largest the field holds: the input cannot back it, and the
        // decoder says so before reserving anything for it.
        let b = known_batch();
        for profile in [Profile::Compact, Profile::Precise] {
            let bytes = WireFrame::encode(&b, profile).unwrap().as_bytes().to_vec();
            let directory = HEADER_BYTES + 2 + 2 * PATH_ENTRY_BYTES;
            let first_records = directory + 4;
            let window =
                bytes.len() - profile.agg_receipt_bytes(2) + profile.agg_receipt_bytes(0) - 4;
            for at in [directory, first_records, window] {
                let mut bad = bytes.clone();
                bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                assert!(
                    matches!(WireDecoder::decode(&bad), Err(WireError::Truncated { .. })),
                    "{profile:?} count at {at}: {:?}",
                    WireDecoder::decode(&bad)
                );
            }
        }
        // A product that overflows backs nothing either.
        let mut r = Reader::new(&[0u8; 64]);
        assert_eq!(
            r.run(usize::MAX, 16),
            Err(WireError::Truncated {
                at: 0,
                needed: usize::MAX - 64
            })
        );
        assert_eq!(r.run(4, 16).map(<[u8]>::len), Ok(64));
        assert_eq!(r.run(0, 16).map(<[u8]>::len), Ok(0));
    }

    #[test]
    fn an_oversized_compact_count_is_refused_signed_or_not() {
        let mut big = known_batch();
        big.aggregates[0].pkt_cnt = 1 << 48;
        assert_eq!(
            WireEncoder::compact().encode_signed(&big, &HopKey::from_seed(1), KeyEpoch(0)),
            Err(WireError::CountTooLarge(1 << 48))
        );
        big.aggregates[0].pkt_cnt = (1 << 48) - 1;
        let d = WireFrame::encode(&big, Profile::Compact)
            .unwrap()
            .decode()
            .unwrap();
        assert_eq!(d.batch.aggregates[0].pkt_cnt, (1 << 48) - 1);
    }

    #[test]
    fn typed_errors_for_every_malformation() {
        let b = known_batch();
        let frame = WireFrame::encode(&b, Profile::Precise).unwrap();
        let bytes = frame.as_bytes().to_vec();

        assert_eq!(
            WireDecoder::decode(&[]),
            Err(WireError::Truncated { at: 0, needed: 4 })
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            WireDecoder::decode(&bad),
            Err(WireError::BadMagic(_))
        ));
        // The retired v1 layout has no decode path: its version byte
        // is refused like any other unknown version.
        for version in [1, VERSION + 1] {
            let mut bad = bytes.clone();
            bad[4] = version;
            assert_eq!(
                WireDecoder::decode(&bad),
                Err(WireError::UnsupportedVersion(version))
            );
        }
        let mut bad = bytes.clone();
        bad[5] = 0b1000_0001;
        assert_eq!(
            WireDecoder::decode(&bad),
            Err(WireError::BadFlags(0b1000_0001))
        );
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(WireDecoder::decode(&bad), Err(WireError::TrailingBytes(1)));
        // Dangling path reference: the first sample body's path ref
        // sits right after header, table (2 paths) and directory.
        let at = HEADER_BYTES + 2 + 2 * PATH_ENTRY_BYTES + 4 + 4 * b.samples.len();
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            WireDecoder::decode(&bad),
            Err(WireError::BadPathRef {
                reference: 99,
                paths: 2
            })
        );
        // Oversized compact packet count is an encode-time error.
        let mut big = known_batch();
        big.aggregates[0].pkt_cnt = 1 << 48;
        assert_eq!(
            WireFrame::encode(&big, Profile::Compact),
            Err(WireError::CountTooLarge(1 << 48))
        );
        // …but fits the precise profile.
        assert!(WireFrame::encode(&big, Profile::Precise).is_ok());

        // A prefix length over 32 in the first path-table entry (the
        // length byte follows the 4-byte network).
        let at = HEADER_BYTES + 2 + 4;
        let mut bad = bytes.clone();
        bad[at] = 99;
        assert_eq!(WireDecoder::decode(&bad), Err(WireError::BadPrefixLen(99)));
        // A hop-option tag that is neither 0 (absent) nor 1 (present):
        // the prev-hop tag sits after both 5-byte prefixes.
        let at = HEADER_BYTES + 2 + 10;
        let mut bad = bytes.clone();
        bad[at] = 7;
        assert_eq!(WireDecoder::decode(&bad), Err(WireError::BadOptionTag(7)));
    }

    #[test]
    fn encode_refuses_a_path_table_wider_than_its_16_bit_count() {
        // 2^16 distinct /32 pairs: one more path than the u16 path
        // count can index.
        let n = u16::MAX as usize + 1;
        let batch = ReceiptBatch {
            hop: HopId(1),
            batch_seq: 0,
            samples: Vec::new(),
            aggregates: (0..n)
                .map(|i| AggReceipt {
                    path: PathId {
                        spec: HeaderSpec::new(
                            Ipv4Prefix::new(std::net::Ipv4Addr::from(i as u32), 32).unwrap(),
                            "192.168.0.0/24".parse().unwrap(),
                        ),
                        prev_hop: None,
                        next_hop: None,
                        max_diff: SimDuration::from_millis(1),
                    },
                    agg: AggId {
                        first: Digest(1),
                        last: Digest(2),
                    },
                    pkt_cnt: 1,
                    agg_trans: Vec::new(),
                })
                .collect(),
        };
        assert_eq!(
            WireFrame::encode(&batch, Profile::Compact),
            Err(WireError::TooManyPaths(n))
        );
    }

    #[test]
    fn item_counts_beyond_u32_are_a_typed_refusal() {
        // The 4-byte section counts cannot index more items than
        // u32::MAX; `count32` is the single chokepoint.
        let n = u32::MAX as usize + 1;
        assert_eq!(count32(n), Err(WireError::TooManyItems(n)));
        assert_eq!(count32(7), Ok(7));
    }

    #[test]
    fn decoding_shares_no_state_with_the_publisher() {
        // A frame decodes from raw bytes alone (no out-of-band path
        // registry): rebuild from the byte string and compare.
        let b = known_batch();
        let frame = WireFrame::encode(&b, Profile::Precise).unwrap();
        let copy = WireFrame::from_bytes(frame.as_bytes().to_vec());
        assert_eq!(copy.decode().unwrap().batch, b);
        let _ = DomainId(0); // silence unused-import lint paths
    }

    #[test]
    fn signed_frames_round_trip_and_verify() {
        let b = known_batch();
        let key = HopKey::from_seed(0xabc);
        for profile in [Profile::Compact, Profile::Precise] {
            let frame = WireEncoder::new(profile)
                .encode_signed(&b, &key, KeyEpoch(3))
                .unwrap();
            let d = frame.decode().unwrap();
            assert_eq!(d.profile, profile);
            let sig = d.signature.expect("signed frame decodes a signature");
            assert_eq!(sig.epoch, KeyEpoch(3));
            assert!(frame.verify_mac(&key));
            // A different key — even one differing in a single bit —
            // must not verify.
            assert!(!frame.verify_mac(&HopKey::from_seed(0xabd)));
            let mut one_bit_off = *key.as_bytes();
            one_bit_off[31] ^= 1;
            assert!(!frame.verify_mac(&HopKey::from_bytes(one_bit_off)));
            // The signed body is the unsigned encoding except for the
            // flags byte, so the batch content is unchanged.
            if profile == Profile::Precise {
                assert_eq!(d.batch, b);
            }
        }
    }

    #[test]
    fn signing_binds_the_epoch() {
        // Same batch, same key, different epoch: different trailer —
        // and splicing one epoch's MAC after another epoch field fails.
        let b = known_batch();
        let key = HopKey::from_seed(0xabc);
        let e0 = WireEncoder::precise()
            .encode_signed(&b, &key, KeyEpoch(0))
            .unwrap();
        let e1 = WireEncoder::precise()
            .encode_signed(&b, &key, KeyEpoch(1))
            .unwrap();
        assert_ne!(e0, e1);
        let n = e0.len();
        let mut spliced = e0.as_bytes().to_vec();
        // Replace the epoch field (first 4 trailer bytes) with 1 while
        // keeping epoch 0's MAC.
        spliced[n - MAC_TRAILER_BYTES..n - SHA256_DIGEST_BYTES]
            .copy_from_slice(&1u32.to_le_bytes());
        let spliced = WireFrame::from_bytes(spliced);
        assert_eq!(
            spliced.decode().unwrap().signature.unwrap().epoch,
            KeyEpoch(1)
        );
        assert!(!spliced.verify_mac(&key), "epoch splice must break the MAC");
    }

    #[test]
    fn unsigned_frames_are_byte_identical_to_the_pre_mac_encoding() {
        // The SIGNED flag is opt-in: plain encode sets no flag and
        // appends no trailer, and the decoder reports no signature.
        let b = known_batch();
        let frame = WireFrame::encode(&b, Profile::Precise).unwrap();
        assert_eq!(frame.as_bytes()[5] & FLAG_SIGNED, 0);
        assert_eq!(frame.decode().unwrap().signature, None);
        assert!(!frame.verify_mac(&HopKey::from_seed(0xabc)));
    }

    #[test]
    fn truncated_trailers_are_typed_errors() {
        let b = known_batch();
        let key = HopKey::from_seed(0xabc);
        let frame = WireEncoder::precise()
            .encode_signed(&b, &key, KeyEpoch(0))
            .unwrap();
        for cut in [1, SHA256_DIGEST_BYTES, MAC_TRAILER_BYTES] {
            let short = &frame.as_bytes()[..frame.len() - cut];
            assert!(
                matches!(WireDecoder::decode(short), Err(WireError::Truncated { .. })),
                "cut {cut}"
            );
        }
        // A frame claiming SIGNED with extra bytes after the trailer is
        // trailing garbage, and an unsigned frame with a stray trailer
        // appended is too.
        let mut long = frame.as_bytes().to_vec();
        long.push(0);
        assert_eq!(WireDecoder::decode(&long), Err(WireError::TrailingBytes(1)));
        let unsigned = WireFrame::encode(&b, Profile::Precise).unwrap();
        let mut garbage = unsigned.as_bytes().to_vec();
        garbage.extend_from_slice(&[0u8; MAC_TRAILER_BYTES]);
        assert_eq!(
            WireDecoder::decode(&garbage),
            Err(WireError::TrailingBytes(MAC_TRAILER_BYTES))
        );
    }

    proptest::proptest! {
        /// Decoding is total: arbitrary bytes never panic.
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512)
        ) {
            let _ = WireDecoder::decode(&bytes);
        }

        /// Every strict prefix of a valid encoding is a typed error —
        /// frames are self-delimiting, so losing any tail bytes is
        /// always detected.
        #[test]
        fn truncations_of_valid_encodings_error(
            seed in proptest::prelude::any::<u64>(),
            cut in proptest::prelude::any::<u16>(),
            precise in proptest::prelude::any::<bool>()
        ) {
            let profile = if precise { Profile::Precise } else { Profile::Compact };
            let frame = WireFrame::encode(&arb_batch(seed), profile).unwrap();
            let n = frame.len();
            let cut = cut as usize % n;
            proptest::prop_assert!(WireDecoder::decode(&frame.as_bytes()[..cut]).is_err());
        }

        /// Corrupting one byte never panics (it may still decode — a
        /// flipped digest bit is valid content — but must never crash).
        #[test]
        fn single_byte_corruption_never_panics(
            seed in proptest::prelude::any::<u64>(),
            pos in proptest::prelude::any::<u16>(),
            val in proptest::prelude::any::<u8>()
        ) {
            let frame = WireFrame::encode(&arb_batch(seed), Profile::Precise).unwrap();
            let mut bytes = frame.as_bytes().to_vec();
            let n = bytes.len();
            bytes[pos as usize % n] = val;
            let _ = WireDecoder::decode(&bytes);
        }

        /// Corrupting any single byte of a signed frame never panics
        /// and never leaves a frame that still MAC-verifies: the MAC
        /// covers every byte before it, and a corrupted MAC no longer
        /// matches the recomputation.
        #[test]
        fn signed_single_byte_corruption_never_panics_and_never_verifies(
            seed in proptest::prelude::any::<u64>(),
            pos in proptest::prelude::any::<u16>(),
            xor in 1u8..=255
        ) {
            let key = HopKey::from_seed(seed ^ 0x5ec7e7);
            let frame = WireEncoder::precise()
                .encode_signed(&arb_batch(seed), &key, KeyEpoch(seed as u32 % 4))
                .unwrap();
            let mut bytes = frame.as_bytes().to_vec();
            let n = bytes.len();
            bytes[pos as usize % n] ^= xor; // xor≠0: always a real change
            let corrupted = WireFrame::from_bytes(bytes);
            proptest::prop_assert!(!corrupted.verify_mac(&key));
            // Decoding stays total, and anything that still decodes as
            // signed carries a signature that no longer verifies.
            if let Ok(d) = corrupted.decode() {
                proptest::prop_assert!(
                    d.signature.is_none() || !corrupted.verify_mac(&key)
                );
            }
        }

        /// Precise encode→decode is the identity on arbitrary batches.
        #[test]
        fn precise_roundtrip_on_arbitrary_batches(seed in proptest::prelude::any::<u64>()) {
            let b = arb_batch(seed);
            let d = WireFrame::encode(&b, Profile::Precise).unwrap().decode().unwrap();
            proptest::prop_assert_eq!(d.batch, b);
        }

        /// Compact encode→decode is exactly the documented truncation,
        /// and re-encoding the truncation reproduces the same bytes.
        #[test]
        fn compact_roundtrip_on_arbitrary_batches(seed in proptest::prelude::any::<u64>()) {
            let b = arb_batch(seed);
            let frame = WireFrame::encode(&b, Profile::Compact).unwrap();
            let d = frame.decode().unwrap();
            proptest::prop_assert_eq!(&d.batch, &truncated(&b));
            proptest::prop_assert_eq!(WireFrame::encode(&d.batch, Profile::Compact).unwrap(), frame);
        }
    }
}
