//! The audit checkpoint: a verifier's resumable position.
//!
//! Continuous operation means a verifier must be able to stop —
//! process restart, host migration, operator pause — and later resume
//! producing **byte-identical verdicts** to an uninterrupted run. The
//! state that makes that possible is deliberately small: the global
//! subscription cursor to resume from, the retention horizon the
//! cursor was ahead of when the snapshot was taken, the number of
//! workload intervals already folded, and one incremental
//! [`PathAuditState`] record per audited path. Everything else (the
//! receipts themselves) lives on the bus, bounded by
//! [`crate::transport::ReceiptTransport::compact_before`].
//!
//! Checkpoints are taken at quiescent interval boundaries — every
//! delivered frame folded, no partial per-interval accumulator
//! outstanding — which is why the format carries no partial sums. The
//! binary layout is versioned and pinned by the golden fixture
//! `tests/golden/audit_checkpoint_v1.hex`, exactly like the v1 receipt
//! frame; decoding is total (typed [`WireError`], never a panic) and
//! refuses trailing bytes, so a torn or concatenated snapshot cannot
//! silently restore a wrong cursor.
//!
//! ```text
//! checkpoint := magic[4]="VPMC" version[1]=1
//!               next_seq[8] horizon[8] intervals[8] path_count[4]
//!               path_state[path_count × 28]
//! path_state := path[4] audited_intervals[8] flagged_intervals[8]
//!               last_interval[8]
//! ```
//!
//! All integers little-endian, path states sorted by `path` (the
//! encoder enforces the order, the decoder rejects violations — two
//! encoders can therefore never disagree on the bytes of the same
//! state).

use crate::codec::{Reader, WireError, Writer};

/// Checkpoint magic: "VPM Checkpoint".
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"VPMC";

/// Checkpoint layout version this module encodes and decodes.
pub const CHECKPOINT_VERSION: u8 = 1;

/// Fixed prefix: magic + version + next_seq + horizon + intervals +
/// path_count.
pub const CHECKPOINT_HEADER_BYTES: usize = 4 + 1 + 8 + 8 + 8 + 4;

/// One per-path record: path + audited + flagged + last_interval.
pub const PATH_STATE_BYTES: usize = 4 + 8 + 8 + 8;

/// One path's incremental verdict state: everything the auditor has
/// concluded about the path so far, foldable one interval at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathAuditState {
    /// The workload's stable path index.
    pub path: u32,
    /// Intervals fully audited (all HOP reports folded).
    pub audited_intervals: u64,
    /// Audited intervals whose HOP reports were mutually inconsistent.
    pub flagged_intervals: u64,
    /// The most recent interval folded into this state.
    pub last_interval: u64,
}

/// A verifier snapshot: resume cursor plus per-path incremental state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditCheckpoint {
    /// Global subscription cursor to resume from (first undelivered
    /// sequence number).
    pub next_seq: u64,
    /// The bus retention horizon at snapshot time. On restore the
    /// transport re-checks the *live* horizon — if GC advanced past
    /// `next_seq` while the verifier was down, resubscription fails
    /// with a typed `LaggedBehind`, never a silently gapped stream.
    pub horizon: u64,
    /// Workload intervals fully folded before the snapshot.
    pub intervals: u64,
    /// Per-path incremental verdict state, sorted by `path`.
    pub paths: Vec<PathAuditState>,
}

impl AuditCheckpoint {
    /// Encode to the versioned v1 byte layout. Fails with
    /// [`WireError::TooManyItems`] past `u32::MAX` paths and refuses
    /// unsorted or duplicated path records — the byte encoding of a
    /// given state must be unique for restart byte-identity to be
    /// checkable at all.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        if self.paths.len() > u32::MAX as usize {
            return Err(WireError::TooManyItems(self.paths.len()));
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) panics only for size 0, and 2 is a literal"
        )]
        if self.paths.windows(2).any(|w| w[0].path >= w[1].path) {
            return Err(WireError::TooManyItems(self.paths.len()));
        }
        let mut w = Writer::default();
        w.bytes(CHECKPOINT_MAGIC);
        w.u8(CHECKPOINT_VERSION);
        w.u64(self.next_seq);
        w.u64(self.horizon);
        w.u64(self.intervals);
        w.u32(self.paths.len() as u32);
        for p in &self.paths {
            w.u32(p.path);
            w.u64(p.audited_intervals);
            w.u64(p.flagged_intervals);
            w.u64(p.last_interval);
        }
        Ok(w.into_vec())
    }

    /// Decode a v1 checkpoint. Total on arbitrary bytes: bad magic,
    /// unknown version, truncation, unsorted path records, and
    /// trailing bytes all map to a typed [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<AuditCheckpoint, WireError> {
        let mut r = Reader::new(bytes);
        let magic: [u8; 4] = r.array()?;
        if &magic != CHECKPOINT_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != CHECKPOINT_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let next_seq = r.u64()?;
        let horizon = r.u64()?;
        let intervals = r.u64()?;
        let count = r.u32()? as usize;
        r.can_hold(count, PATH_STATE_BYTES)?;
        let mut paths = Vec::with_capacity(count);
        let mut prev: Option<u32> = None;
        for _ in 0..count {
            let path = r.u32()?;
            if prev.is_some_and(|p| p >= path) {
                // Unsorted or duplicate records would make two byte
                // encodings of one logical state — refuse.
                return Err(WireError::BadPathRef {
                    reference: path,
                    paths: 0,
                });
            }
            prev = Some(path);
            paths.push(PathAuditState {
                path,
                audited_intervals: r.u64()?,
                flagged_intervals: r.u64()?,
                last_interval: r.u64()?,
            });
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(AuditCheckpoint {
            next_seq,
            horizon,
            intervals,
            paths,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> AuditCheckpoint {
        AuditCheckpoint {
            next_seq: 0x0102_0304_0506_0708,
            horizon: 0x00ab_cdef,
            intervals: 2000,
            paths: vec![
                PathAuditState {
                    path: 0,
                    audited_intervals: 1985,
                    flagged_intervals: 0,
                    last_interval: 1999,
                },
                PathAuditState {
                    path: 3,
                    audited_intervals: 1200,
                    flagged_intervals: 37,
                    last_interval: 1998,
                },
                PathAuditState {
                    path: 15,
                    audited_intervals: 64,
                    flagged_intervals: 64,
                    last_interval: 801,
                },
            ],
        }
    }

    #[test]
    fn round_trips_and_layout_constants_account_for_every_byte() {
        let cp = sample();
        let bytes = cp.encode().unwrap();
        assert_eq!(
            bytes.len(),
            CHECKPOINT_HEADER_BYTES + cp.paths.len() * PATH_STATE_BYTES
        );
        assert_eq!(AuditCheckpoint::decode(&bytes).unwrap(), cp);
        // The empty checkpoint (fresh verifier) round-trips too.
        let empty = AuditCheckpoint::default();
        let bytes = empty.encode().unwrap();
        assert_eq!(bytes.len(), CHECKPOINT_HEADER_BYTES);
        assert_eq!(AuditCheckpoint::decode(&bytes).unwrap(), empty);
    }

    /// The encoded form is pinned by the golden fixture: a layout
    /// change without a version bump fails here, exactly like the v1
    /// receipt frame's fixture.
    #[test]
    fn golden_fixture_matches_the_v1_layout() {
        let golden = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/audit_checkpoint_v1.hex"
        ))
        .expect("golden checkpoint fixture");
        let hex: String = golden.split_whitespace().collect();
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden fixture is hex"))
            .collect();
        assert_eq!(
            sample().encode().unwrap(),
            bytes,
            "encoder drifted from the pinned v1 checkpoint layout"
        );
        assert_eq!(
            AuditCheckpoint::decode(&bytes).unwrap(),
            sample(),
            "decoder drifted from the pinned v1 checkpoint layout"
        );
    }

    #[test]
    fn malformed_inputs_fail_typed() {
        let good = sample().encode().unwrap();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            AuditCheckpoint::decode(&bad),
            Err(WireError::BadMagic(_))
        ));
        // Unknown version.
        let mut bad = good.clone();
        bad[4] = 9;
        assert_eq!(
            AuditCheckpoint::decode(&bad),
            Err(WireError::UnsupportedVersion(9))
        );
        // Every truncation point is a typed refusal, never a panic.
        for cut in 0..good.len() {
            assert!(matches!(
                AuditCheckpoint::decode(&good[..cut]),
                Err(WireError::Truncated { .. })
            ));
        }
        // Trailing bytes are refused.
        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(
            AuditCheckpoint::decode(&bad),
            Err(WireError::TrailingBytes(1))
        );
        // A duplicate path record is refused (one state, one encoding).
        let mut dup = sample();
        dup.paths[1].path = 0;
        assert!(dup.encode().is_err());
        // An over-claimed path count fails fast in the pre-flight, not
        // by over-allocating.
        let mut bad = good.clone();
        bad[29..33].fill(0xff); // the path_count field of the header
        assert!(matches!(
            AuditCheckpoint::decode(&bad),
            Err(WireError::Truncated { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Decode is total: arbitrary bytes never panic, and whatever
        /// decodes re-encodes to the exact same bytes (the layout has
        /// no redundant representations).
        #[test]
        fn decode_never_panics_and_reencodes_identically(
            bytes in proptest::collection::vec(any::<u8>(), 0..200)
        ) {
            if let Ok(cp) = AuditCheckpoint::decode(&bytes) {
                prop_assert_eq!(cp.encode().unwrap(), bytes);
            }
        }

        /// Encode/decode round-trips every well-formed checkpoint.
        #[test]
        fn round_trip_is_identity(
            next_seq in any::<u64>(),
            horizon in any::<u64>(),
            intervals in any::<u64>(),
            seed in any::<u64>(),
            n in 0usize..20,
        ) {
            let paths: Vec<PathAuditState> = (0..n as u32)
                .map(|i| PathAuditState {
                    path: i * 3,
                    audited_intervals: seed.rotate_left(i),
                    flagged_intervals: seed.rotate_right(i),
                    last_interval: seed ^ i as u64,
                })
                .collect();
            let cp = AuditCheckpoint { next_seq, horizon, intervals, paths };
            prop_assert_eq!(AuditCheckpoint::decode(&cp.encode().unwrap()).unwrap(), cp);
        }
    }
}
