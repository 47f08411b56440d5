//! What the collector's storage allocates, measured by a counting
//! global allocator (this file is its own test binary, so the
//! allocator is this binary's; tallies are per thread, so tests
//! running side by side do not see each other's allocations).
//!
//! 1. Steady state: once a warm-up interval has sized the collector's
//!    lists, `ingest` allocates exactly the `AggTrans` digest list of
//!    each aggregate it finalizes (the receipt owns it) and reallocates
//!    nothing.
//! 2. A markerless stream grows the record log by whole pages, and no
//!    large block is ever reallocated: records never move.
//! 3. Bytes held per idle and per active path, beside the paper's
//!    20 B (§7.1). Run with `--nocapture` to see them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use vpm::core::receipt::PathId;
use vpm::core::{Collector, HopConfig, Ingest};
use vpm::hash::{Digest, Threshold};
use vpm::packet::{DomainId, HeaderSpec, HopId, Ipv4Prefix, SimDuration, SimTime};

/// Allocations at least this large are "big" (log pages, not list
/// nodes or page-table entries).
const BIG: usize = 4096;

/// One thread's allocation tally while armed.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    allocs: u64,
    reallocs: u64,
    /// Net bytes allocated (frees of older blocks count negative).
    bytes: i64,
    /// Big allocations, their size, and whether two sizes were seen.
    big: u64,
    big_size: usize,
    big_mixed: bool,
    /// Reallocations of or into a big block.
    big_reallocs: u64,
}

thread_local! {
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn note(f: impl FnOnce(&mut Tally)) {
    let _ = TALLY.try_with(|cell| {
        if let Some(mut t) = cell.get() {
            f(&mut t);
            cell.set(Some(t));
        }
    });
}

/// The system allocator, tallying the calls of armed threads.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the tally
// only touches a const-initialized thread-local `Cell`, which neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(|t| {
            t.allocs += 1;
            t.bytes += layout.size() as i64;
            if layout.size() >= BIG {
                if t.big > 0 && t.big_size != layout.size() {
                    t.big_mixed = true;
                }
                t.big += 1;
                t.big_size = layout.size();
            }
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(|t| t.bytes -= layout.size() as i64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(|t| {
            t.reallocs += 1;
            t.bytes += new_size as i64 - layout.size() as i64;
            if new_size >= BIG || layout.size() >= BIG {
                t.big_reallocs += 1;
            }
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` with this thread's tally armed.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|cell| cell.set(Some(Tally::default())));
    let r = f();
    let t = TALLY.with(|cell| cell.take()).unwrap_or_default();
    (r, t)
}

fn path_id(i: u32) -> PathId {
    let host = |net: u32| Ipv4Prefix::new(std::net::Ipv4Addr::from(net | i), 32).unwrap();
    PathId {
        spec: HeaderSpec::new(host(0x0a00_0000), host(0x1400_0000)),
        prev_hop: Some(HopId(3)),
        next_hop: Some(HopId(5)),
        max_diff: SimDuration::from_millis(2),
    }
}

fn collector(cfg: HopConfig, paths: u32) -> Collector {
    let mut c = Collector::new(cfg);
    for i in 0..paths {
        c.register_path(path_id(i));
    }
    c
}

#[test]
fn steady_state_ingest_allocates_only_agg_trans() {
    const PATHS: usize = 64;
    const PER_PATH: usize = 64;
    let cfg = HopConfig::new(HopId(4), DomainId(2))
        .with_sampling_rate(0.05)
        .with_aggregate_size(200)
        .with_marker_rate(0.01)
        // A path's packets are 640 µs apart, so a ±5 ms window holds
        // ~16 digests.
        .with_j_window(SimDuration::from_millis(5));
    let mut c = collector(cfg, PATHS as u32);

    // One interval's digests, replayed every interval with its times
    // shifted: every path opens each interval with a marker that is
    // also a cutting point, so from the second interval on the
    // collector's state at each interval boundary is the same.
    let mut rng = SmallRng::seed_from_u64(5);
    let n = PATHS * PER_PATH;
    let digests: Vec<Digest> = (0..n)
        .map(|k| {
            if k < PATHS {
                Digest(u64::MAX - k as u64)
            } else {
                Digest(rng.gen())
            }
        })
        .collect();
    let interval = |i: u64| -> Vec<(usize, Digest, SimTime)> {
        digests
            .iter()
            .enumerate()
            .map(|(k, &d)| {
                let t = SimTime::from_micros((i * n as u64 + k as u64) * 10);
                (k % PATHS, d, t)
            })
            .collect()
    };

    let mut finalized = 0;
    for i in 0..8u64 {
        let batch = interval(i);
        let ((), tally) = measure(|| {
            for chunk in batch.chunks(256) {
                assert!(c.ingest(chunk).is_clean());
            }
        });
        let (mut samples, mut aggregates) = (Vec::new(), Vec::new());
        c.drain_receipts(&mut samples, &mut aggregates);
        assert!(!samples.is_empty(), "every path swept a marker");
        if i < 3 {
            continue; // warm-up: lists and pages find their size
        }
        let windows = aggregates
            .iter()
            .filter(|a| !a.agg_trans.is_empty())
            .count() as u64;
        assert!(windows > 0, "interval {i} finalized no aggregate");
        assert_eq!(
            tally.allocs, windows,
            "interval {i}: one allocation per finalized AggTrans window: {tally:?}"
        );
        assert_eq!(tally.reallocs, 0, "interval {i}: {tally:?}");
        finalized += windows;
    }
    assert!(finalized > 0);
}

#[test]
fn markerless_log_grows_by_whole_pages() {
    const PATHS: u32 = 16;
    let mut cfg = HopConfig::new(HopId(4), DomainId(2)).with_j_window(SimDuration::from_millis(1));
    cfg.marker = Threshold::NEVER;
    cfg.partition = Threshold::NEVER;
    let mut c = collector(cfg, PATHS);
    let mut rng = SmallRng::seed_from_u64(9);
    let stream: Vec<(usize, Digest, SimTime)> = (0..200_000u64)
        .map(|k| {
            let path = rng.gen_range(0..PATHS as usize);
            (path, Digest(rng.gen()), SimTime::from_micros(k))
        })
        .collect();

    let ((), tally) = measure(|| {
        for chunk in stream.chunks(4096) {
            assert!(c.ingest(chunk).is_clean());
        }
    });
    // 200,000 16-B records with no marker to sweep them: the backlog
    // is all of them, held in pages of one size.
    assert!(tally.big > 0, "{tally:?}");
    assert!(!tally.big_mixed, "log pages come in one size: {tally:?}");
    assert_eq!(tally.big_reallocs, 0, "no page is ever moved: {tally:?}");
    let pages = tally.big as i64 * tally.big_size as i64;
    let rest = tally.bytes - pages;
    assert!(
        (0..BIG as i64).contains(&rest),
        "everything but pages is the page table: {rest} B, {tally:?}"
    );
    let held = c.temp_buffer_bytes() as i64;
    assert!(held >= 200_000 * 16 && held <= pages, "{held} of {pages}");
}

#[test]
fn bytes_per_idle_and_active_path() {
    // The §7.1 scale and the pipeline benchmark's configuration.
    const PATHS: u32 = 100_000;
    let cfg = HopConfig::new(HopId(4), DomainId(2))
        .with_sampling_rate(0.01)
        .with_aggregate_size(1000);
    let (mut c, idle) = measure(|| collector(cfg, PATHS));
    // Four packets on every path: each holds its backlog in one chunk.
    let mut rng = SmallRng::seed_from_u64(13);
    let stream: Vec<(usize, Digest, SimTime)> = (0..4 * PATHS as u64)
        .map(|k| {
            let path = (k % u64::from(PATHS)) as usize;
            (path, Digest(rng.gen()), SimTime::from_micros(10 * k))
        })
        .collect();
    let ((), traffic) = measure(|| {
        for chunk in stream.chunks(4096) {
            assert!(c.ingest(chunk).is_clean());
        }
    });
    let per_idle = idle.bytes as f64 / f64::from(PATHS);
    let per_active = per_idle + traffic.bytes as f64 / f64::from(PATHS);
    let row = c.monitoring_cache_bytes() as f64 / f64::from(PATHS);
    println!(
        "collector state at {PATHS} paths: {per_idle:.0} B per idle path \
         ({row:.0} B row + PathId + classifier map), \
         {per_active:.0} B per active path (one 128-B log chunk); \
         the paper's model: 20 B (§7.1)"
    );
    // 148 B measured; registration keeps no map beside the classifier.
    assert!(per_idle <= 163.0, "{per_idle} B per idle path");
    assert!(
        per_active - per_idle <= 256.0,
        "{per_active} B per active path"
    );
}
