//! Deterministic ordered parallel map on `std::thread::scope`.
//!
//! The repo's determinism contract (DESIGN.md, lint rules D001/D002) demands
//! that every simulated quantity be a function of the seeded inputs only —
//! never of thread count, scheduling jitter, or completion order. This crate
//! provides the one sanctioned way to use multiple cores under that contract:
//!
//! * **Fixed worker count.** [`thread_count`] resolves, in order: a
//!   thread-local [`override_threads`] guard (for in-process tests), the
//!   `JAWS_THREADS` environment variable, and finally
//!   [`std::thread::available_parallelism`]. The count only affects *wall
//!   clock*, never results.
//! * **Index-sharded work queue.** Workers claim input indices from a shared
//!   atomic counter ([`map`]/[`map_indexed`]); which worker computes which
//!   index is racy and irrelevant.
//! * **Ordered results.** Every map returns its outputs in *input order*, so
//!   for a pure `f` the output vector is byte-identical at any thread count —
//!   including the inline serial path taken when one worker (or one item)
//!   makes spawning pointless.
//!
//! Callers are responsible for `f` being pure with respect to shared state
//! (the `Fn + Sync` bounds make mutation of captured state a compile error,
//! not a runtime race). A panicking `f` propagates to the caller after all
//! workers have been joined.
//!
//! The crate is dependency-free and `forbid(unsafe_code)`.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

thread_local! {
    /// Thread-local worker-count override (see [`override_threads`]).
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// RAII guard restoring the previous thread-count override on drop.
///
/// Returned by [`override_threads`]; hold it for the scope of the runs whose
/// parallelism you are pinning.
#[must_use = "the override is reverted when the guard drops"]
#[derive(Debug)]
pub struct ThreadGuard {
    prev: Option<usize>,
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Pins [`thread_count`] to `n` (clamped to ≥ 1) for the current thread until
/// the returned guard drops. Nestable; each guard restores its predecessor.
///
/// This is the in-process equivalent of setting `JAWS_THREADS`, usable from
/// tests without the unsafety of `std::env::set_var`.
pub fn override_threads(n: usize) -> ThreadGuard {
    let prev = OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    ThreadGuard { prev }
}

/// The fixed worker count: thread-local override, then the `JAWS_THREADS`
/// environment variable, then [`std::thread::available_parallelism`]
/// (minimum 1). Purely a throughput knob — results never depend on it.
pub fn thread_count() -> usize {
    if let Some(n) = OVERRIDE.with(|c| c.get()) {
        return n.max(1);
    }
    if let Some(n) = std::env::var("JAWS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host's available parallelism, ignoring overrides — a reporting aid.
///
/// Bench reports record this next to the *configured* [`thread_count`] so a
/// reader can tell "ran serial because asked to" apart from "ran serial
/// because the box has one core". Never used to size work: that is
/// [`thread_count`]'s job.
pub fn hardware_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scatters per-worker `(index, result)` runs back into input order.
fn reassemble<R>(n: usize, parts: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for part in parts {
        for (i, r) in part {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every input index produced exactly one result"))
        .collect()
}

/// Evaluates `f(0..n)` on the worker pool and returns the results in index
/// order. Inline (no threads) when `n <= 1` or one worker is configured.
pub fn map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with_workers(n, thread_count().min(n.max(1)), f)
}

/// Like [`map_indexed`], but caps the worker count so every spawned worker
/// has at least `grain` indices to claim: `workers = min(thread_count,
/// n / grain)`. Runs inline (no spawns at all) when `n < 2 * grain`.
///
/// `std::thread::scope` spawns fresh OS threads on every call, which costs
/// tens of microseconds per worker — more than a small shard of work is
/// worth. Hot paths that map over a handful of cheap items (per-atom z-slice
/// fills, per-slab gradient sweeps) pick a bench-chosen `grain` so the spawn
/// overhead is amortized or skipped entirely. Purely a wall-clock knob:
/// results are in input order and bitwise independent of `grain`.
pub fn map_indexed_grained<R, F>(n: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = thread_count().min(n / grain.max(1)).max(1);
    map_indexed_with_workers(n, workers, f)
}

/// Shared body of the indexed maps: `workers` threads claim indices from an
/// atomic counter; results are reassembled in index order.
fn map_indexed_with_workers<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let parts: Vec<Vec<(usize, R)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("jaws-par worker panicked"))
            .collect()
    });
    reassemble(n, parts)
}

/// Ordered parallel map over a shared slice: `map(items, f)[i] == f(&items[i])`
/// bitwise, at any thread count.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 8, 32] {
            let _g = override_threads(threads);
            assert_eq!(map(&items, |&x| x * x + 1), expect, "threads={threads}");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        let _g = override_threads(4);
        assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn grained_map_matches_ungrained_at_any_thread_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 4, 16] {
            let _g = override_threads(threads);
            for grain in [0usize, 1, 7, 50, 99, 100, 1000] {
                assert_eq!(
                    map_indexed_grained(100, grain, |i| i * 3 + 1),
                    expect,
                    "threads={threads} grain={grain}"
                );
            }
        }
    }

    #[test]
    fn grained_map_runs_inline_below_two_grains() {
        // With n < 2*grain every index runs on the calling thread — proof no
        // worker was spawned despite the 8-thread override.
        let _g = override_threads(8);
        let main_id = std::thread::current().id();
        let ids = map_indexed_grained(9, 5, |_| std::thread::current().id());
        assert_eq!(ids.len(), 9);
        assert!(
            ids.iter().all(|&id| id == main_id),
            "all work ran on the calling thread"
        );
    }

    #[test]
    fn float_fold_is_bitwise_identical_across_thread_counts() {
        // The property the whole repo leans on: chunked reductions reassembled
        // in order are *bit-for-bit* equal to the serial result.
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 1e-3).collect();
        let chunks: Vec<&[f64]> = xs.chunks(64).collect();
        let serial: Vec<u64> = chunks
            .iter()
            .map(|c| c.iter().sum::<f64>().to_bits())
            .collect();
        for threads in [2usize, 7, 16] {
            let _g = override_threads(threads);
            let par: Vec<u64> = map(&chunks, |c| c.iter().sum::<f64>().to_bits());
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn override_guard_nests_and_restores() {
        let outer = override_threads(3);
        assert_eq!(thread_count(), 3);
        {
            let _inner = override_threads(1);
            assert_eq!(thread_count(), 1);
        }
        assert_eq!(thread_count(), 3);
        drop(outer);
        // Whatever the environment default is, it is at least 1.
        assert!(thread_count() >= 1);
    }

    #[test]
    fn zero_override_clamps_to_one() {
        let _g = override_threads(0);
        assert_eq!(thread_count(), 1);
        assert_eq!(map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "jaws-par worker panicked")]
    fn worker_panic_propagates() {
        let _g = override_threads(4);
        let _ = map_indexed(16, |i| {
            assert!(i != 11, "boom");
            i
        });
    }
}
