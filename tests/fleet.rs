//! The fleet verification contract, end to end:
//!
//! * a real many-path fleet published from concurrent threads through
//!   one `ShardedBus` verifies correctly — every liar exposed on
//!   exactly its own link, no honest path accused;
//! * `analyze_fleet_from_transport` is byte-identical for every
//!   `jobs` count AND byte-identical to the sequential per-path
//!   `analyze_from_transport` fold — pinned under proptest for
//!   arbitrary path counts 1..=65 and jobs 1/2/8, including paths
//!   whose first published batch is empty (the quiet-first-interval
//!   edge) and paths with partially deployed HOPs;
//! * the shard count stays invisible: the same fleet through
//!   `ShardedBus::new(1)` and `ShardedBus::new(16)` yields identical
//!   verdicts.

use proptest::prelude::*;
use vpm::core::processor::ReceiptBatch;
use vpm::core::receipt::{AggId, AggReceipt, SampleReceipt, SampleRecord};
use vpm::hash::Digest;
use vpm::packet::SimTime;
use vpm::sim::fleet::{
    analyze_fleet_from_transport, build_fleet, run_fleet, Fleet, FleetConfig, FleetPath,
    FleetPathVerdict,
};
use vpm::sim::scenario_matrix::AdversaryAxis;
use vpm::sim::topology::Figure1;
use vpm::sim::verdict::analyze_from_transport;
use vpm::sim::{RunConfig, Scenario};
use vpm::trace::TraceConfig;
use vpm::wire::{HopKey, Profile, ReceiptTransport, ShardedBus};

fn small_fleet_config() -> FleetConfig {
    FleetConfig {
        paths: 10,
        liars: 3,
        publishers: 3,
        trace_ms: 60,
        target_pps: 25_000.0,
        ..FleetConfig::default()
    }
}

/// Serialize verdicts for byte-for-byte comparison.
fn bytes(verdicts: &[FleetPathVerdict]) -> String {
    serde_json::to_string(verdicts).expect("verdicts serialize")
}

#[test]
fn fleet_exposes_exactly_its_liars() {
    let fleet = build_fleet(&small_fleet_config());
    let bus = ShardedBus::new(16);
    let frames = run_fleet(&fleet, &bus);
    assert!(
        frames >= 8 * fleet.paths.len(),
        "one frame per HOP at least"
    );
    let verdicts = analyze_fleet_from_transport(&fleet, &bus, 3);
    assert_eq!(verdicts.len(), fleet.paths.len());
    for (p, v) in fleet.paths.iter().zip(&verdicts) {
        assert!(v.passed(), "path {}: {:?}", p.index, v.failures);
        match p.adversary {
            AdversaryAxis::Honest => assert!(v.flagged_links.is_empty(), "path {}", p.index),
            _ => assert_eq!(
                v.flagged_links,
                Vec::from_iter(p.scenario.topology.egress_link("X")),
                "path {}",
                p.index
            ),
        }
    }
    // The three liars are where the builder spread them.
    let exposed: Vec<usize> = verdicts
        .iter()
        .filter(|v| !v.flagged_links.is_empty())
        .map(|v| v.path)
        .collect();
    assert_eq!(exposed.len(), 3);
}

/// Every HOP's frames on a fleet bus carry `batch_seq` 0, 1, … in
/// publish order, without a repeat: a path with a quiet first interval
/// numbers its empty batch 0 and its receipts 1.
#[test]
fn every_hops_frames_count_their_batch_seqs_from_zero() {
    let fleet = build_fleet(&small_fleet_config());
    let bus = ShardedBus::new(16);
    run_fleet(&fleet, &bus);
    let mut quiet = 0;
    for p in &fleet.paths {
        let topology = &p.scenario.topology;
        for hop in topology.hops() {
            let frames = bus.fetch(p.collector_domain(), hop).unwrap();
            let seqs: Vec<u64> = frames.iter().map(|f| f.batch.batch_seq).collect();
            let expected: Vec<u64> = (0..frames.len() as u64).collect();
            assert_eq!(seqs, expected, "path {} {hop}", p.index);
            assert_eq!(
                frames.len(),
                1 + usize::from(p.scenario.quiet_first_interval)
            );
        }
        quiet += usize::from(p.scenario.quiet_first_interval);
    }
    assert!(quiet > 0, "the fleet has quiet-first-interval paths");
}

#[test]
fn fleet_verdicts_are_byte_identical_across_jobs_and_transports() {
    let fleet = build_fleet(&small_fleet_config());
    let sharded = ShardedBus::new(16);
    run_fleet(&fleet, &sharded);
    let baseline = bytes(&analyze_fleet_from_transport(&fleet, &sharded, 1));
    for jobs in [2, 3, 8] {
        assert_eq!(
            bytes(&analyze_fleet_from_transport(&fleet, &sharded, jobs)),
            baseline,
            "--jobs {jobs} must not change the bytes"
        );
    }
    // Same fleet through the single-lock store (and a re-run: path
    // runs are deterministic): identical verdicts.
    let single = ShardedBus::new(1);
    run_fleet(&fleet, &single);
    assert_eq!(
        bytes(&analyze_fleet_from_transport(&fleet, &single, 2)),
        baseline,
        "the shard count must be invisible to the verdicts"
    );
}

/// The 16-path default-seed fleet's verdicts, byte for byte as `vpm
/// fleet --paths 16 --json` prints them, against
/// `tests/golden/fleet_16.json`: a verifier change that moves a single
/// verdict byte fails here, not only against itself. Regenerate (after
/// a change that is meant to move verdicts) with `UPDATE_GOLDEN=1 cargo
/// test --test fleet fleet_16`.
#[test]
fn fleet_16_verdicts_match_the_golden() {
    let fleet = build_fleet(&FleetConfig {
        paths: 16,
        liars: 2,
        ..FleetConfig::default()
    });
    let bus = ShardedBus::new(32);
    run_fleet(&fleet, &bus);
    let printed = bytes(&analyze_fleet_from_transport(&fleet, &bus, 2)) + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fleet_16.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &printed).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("read golden");
    assert_eq!(printed, golden, "fleet_16 verdicts drifted from the golden");
}

/// The acceptance gate for the authenticity plane, at fleet scale: a
/// running fleet's bus refuses key replacement, forged-key frames,
/// and unsigned frames — and the attack leaves no trace in either the
/// bus contents or the fleet verdicts.
#[test]
fn forged_and_replaced_keys_never_enter_fleet_circulation() {
    use vpm::wire::{KeyEpoch, TransportError, WireEncoder};

    let fleet = build_fleet(&FleetConfig {
        paths: 3,
        liars: 1,
        publishers: 2,
        trace_ms: 40,
        target_pps: 25_000.0,
        ..FleetConfig::default()
    });
    let bus = ShardedBus::new(8);
    run_fleet(&fleet, &bus);
    let len_before = bus.len();
    let verdicts_before = bytes(&analyze_fleet_from_transport(&fleet, &bus, 2));

    let victim_path = &fleet.paths[1].scenario.topology;
    let victim = victim_path.hops()[3];
    let domain = victim_path.domain_of(victim).unwrap().id;
    let on_path = victim_path.domain_ids();

    // An attacker cannot replace an established HOP's key...
    let forged_key = HopKey::from_seed(0xdead_beef);
    match bus.register_key(victim, forged_key) {
        Err(TransportError::KeyAlreadyRegistered { hop }) => assert_eq!(hop, victim),
        other => panic!("expected KeyAlreadyRegistered, got {other:?}"),
    }

    // ...so a fabricated batch signed under the attacker's key fails
    // HMAC verification against the victim's real epoch-0 key.
    let fake = ReceiptBatch {
        hop: victim,
        batch_seq: 99,
        samples: vec![],
        aggregates: vec![],
    };
    let forged_frame = WireEncoder::precise()
        .encode_signed(&fake, &forged_key, KeyEpoch(0))
        .unwrap();
    match bus.publish(domain, forged_frame, on_path.clone()) {
        Err(TransportError::BadMac { hop }) => assert_eq!(hop, victim),
        other => panic!("expected BadMac, got {other:?}"),
    }
    // The high-level publish path refuses the same forgery.
    assert!(bus
        .publish_batch(
            domain,
            &fake,
            Profile::Precise,
            on_path.clone(),
            &forged_key
        )
        .is_err());

    // Stripping the MAC doesn't help: unsigned frames don't circulate.
    let unsigned = WireEncoder::precise().encode(&fake).unwrap();
    match bus.publish(domain, unsigned, on_path) {
        Err(TransportError::Unsigned { hop }) => assert_eq!(hop, victim),
        other => panic!("expected Unsigned, got {other:?}"),
    }

    // Nothing entered circulation; the fleet's verdicts are untouched.
    assert_eq!(bus.len(), len_before);
    assert_eq!(
        bytes(&analyze_fleet_from_transport(&fleet, &bus, 2)),
        verdicts_before
    );
}

/// Deterministic splitmix64 stream for the synthetic fleets.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build an honest synthetic fleet of `n` paths and publish small
/// hand-made receipt batches for a random subset of each path's HOPs —
/// some paths lead with an empty (pathless) batch, some HOPs publish
/// nothing at all (partial deployment), sample contents are arbitrary.
fn synthetic_fleet(n: usize, seed: u64) -> (Fleet, ShardedBus) {
    let mut rng = seed;
    let bus = ShardedBus::new(7);
    let paths: Vec<FleetPath> = (0..n)
        .map(|i| FleetPath {
            index: i,
            scenario: Scenario::new(
                TraceConfig::paper_default(1, seed ^ i as u64),
                Figure1::numbered(i).build(),
                RunConfig::default(),
            ),
            adversary: AdversaryAxis::Honest,
        })
        .collect();
    for p in &paths {
        let topology = &p.scenario.topology;
        let on_path = topology.domain_ids();
        for (hop, path_id) in topology.hop_path_ids() {
            let key = HopKey::from_seed(0x5eed ^ hop.0 as u64);
            bus.register_key(hop, key).unwrap();
            if mix(&mut rng) % 10 < 3 {
                continue; // this HOP never reports (partial deployment)
            }
            if mix(&mut rng) % 10 < 4 {
                // Quiet first interval: an empty, signed, pathless batch.
                let empty = ReceiptBatch {
                    hop,
                    batch_seq: 0,
                    samples: vec![],
                    aggregates: vec![],
                };
                bus.publish_batch(
                    topology.domain_of(hop).unwrap().id,
                    &empty,
                    Profile::Precise,
                    on_path.clone(),
                    &key,
                )
                .unwrap();
            }
            let records = 1 + (mix(&mut rng) % 3) as usize;
            let batch = ReceiptBatch {
                hop,
                batch_seq: 1,
                samples: vec![SampleReceipt {
                    path: path_id,
                    samples: (0..records)
                        .map(|_| SampleRecord {
                            pkt_id: Digest(mix(&mut rng)),
                            time: SimTime::from_micros(mix(&mut rng) % 1_000_000),
                        })
                        .collect(),
                }],
                aggregates: vec![AggReceipt {
                    path: path_id,
                    agg: AggId {
                        first: Digest(mix(&mut rng)),
                        last: Digest(mix(&mut rng)),
                    },
                    pkt_cnt: 1 + mix(&mut rng) % 1000,
                    agg_trans: vec![],
                }],
            };
            bus.publish_batch(
                topology.domain_of(hop).unwrap().id,
                &batch,
                Profile::Precise,
                on_path.clone(),
                &key,
            )
            .unwrap();
        }
    }
    let fleet = Fleet {
        config: FleetConfig {
            paths: n,
            liars: 0,
            ..FleetConfig::default()
        },
        paths,
    };
    (fleet, bus)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole's determinism contract: for arbitrary fleets —
    /// any path count 1..=65, HOPs that never report, empty first
    /// batches, arbitrary receipt contents — the parallel verifier is
    /// byte-identical to the sequential per-path
    /// `analyze_from_transport` fold, for jobs 1, 2, and 8.
    #[test]
    fn parallel_fleet_analysis_is_byte_identical_to_sequential_fold(
        n in 1usize..=65,
        seed in any::<u64>(),
    ) {
        let (fleet, bus) = synthetic_fleet(n, seed);
        let sequential: Vec<FleetPathVerdict> = fleet
            .paths
            .iter()
            .map(|p| {
                let analysis =
                    analyze_from_transport(&p.scenario.topology, &bus, p.collector_domain())
                        .expect("collector is on-path");
                FleetPathVerdict::from_analysis(p, &analysis)
            })
            .collect();
        let expect = bytes(&sequential);
        for jobs in [1usize, 2, 8] {
            let parallel = analyze_fleet_from_transport(&fleet, &bus, jobs);
            prop_assert_eq!(
                bytes(&parallel),
                expect.clone(),
                "jobs={} n={} seed={:#x}",
                jobs,
                n,
                seed
            );
        }
    }
}
