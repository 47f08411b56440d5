//! Deterministic fork-join helpers shared by the verification planes.
//!
//! Both the scenario matrix (`vpm matrix --jobs N`) and the fleet
//! verifier (`vpm fleet --jobs N`) promise the same contract: the
//! result of a parallel evaluation is **byte-identical** to the
//! sequential one for every worker count. [`par_map_indexed`] is that
//! contract as a function — a scoped worker pool over an index-claimed
//! work list whose results are merged in input order, so parallelism
//! changes wall-clock time and nothing else.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Map `f` over `items` with `jobs` scoped worker threads, returning
/// results in input order.
///
/// `f` receives `(index, &item)` and must be pure with respect to the
/// output ordering guarantee: the returned vector is exactly
/// `items.iter().enumerate().map(|(i, t)| f(i, t))` regardless of
/// `jobs`. With `jobs <= 1` (or a single item) no threads are spawned
/// and the sequential fold runs inline. Workers claim indices from a
/// shared atomic counter and write each result into its own slot, so
/// scheduling order never leaks into the result.
#[expect(
    clippy::expect_used,
    reason = "scope join proves every claimed slot was written"
)]
pub fn par_map_indexed<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let r = f(i, item);
                if let Some(slot) = slots
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_mut(i)
                {
                    *slot = Some(r);
                }
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        // Every index below `items.len()` was claimed by exactly one
        // worker before the scope joined, so every slot is `Some`.
        .map(|v| v.expect("every index was computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map_indexed(&[] as &[u64], 8, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 + x)
            .collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = par_map_indexed(&items, jobs, |i, &x| i as u64 + x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn every_index_is_computed_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let got = par_map_indexed(&items, 7, |i, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(got, items);
        assert_eq!(hits.load(Ordering::Relaxed), items.len());
    }
}
