//! Shared parallelism utilities for the Tiny-VBF workspace.
//!
//! Every hot path in the reproduction — the plane-wave simulator, time-of-flight
//! correction, DAS, the network row sweep and the blocked matmul — partitions one
//! output buffer into disjoint contiguous chunks and fills each chunk
//! independently. This crate centralises that pattern (previously hand-rolled
//! with `crossbeam` in `ultrasound::planewave`) on top of [`std::thread::scope`]:
//!
//! * [`par_chunks_mut`] — split a mutable slice into per-worker chunks,
//! * [`par_map_rows`] — the same, but aligned to logical row boundaries,
//! * [`par_collect`] — index-ordered collection of owned per-item results,
//! * [`default_threads`] — the workspace-wide worker count
//!   (`TINY_VBF_THREADS` env override, otherwise the machine's parallelism).
//!
//! # Thread budgets (two-level parallelism)
//!
//! Multi-frame entry points (`Beamformer::beamform_batch_results`, which the
//! `serve` micro-batcher dispatches through) want frames of a batch to run
//! *concurrently* while each frame stays *internally* row-parallel, without
//! the product of the two levels oversubscribing the machine. The budgeted variants make that split
//! explicit:
//!
//! * [`split_budget`] — divide a total thread budget into
//!   `(outer_workers, inner_threads)` for `items` outer work units,
//! * [`par_map_rows_with_budget`] / [`par_collect_budgeted`] — like their
//!   plain counterparts, but each spawned worker is granted `inner_threads`
//!   for its own nested `par_*` calls (instead of the default nested grant
//!   of 1, which runs nested regions inline),
//! * [`fair_shares`] / [`par_collect_shares`] — *heterogeneous* budgets: one
//!   total divided proportionally to per-unit weights, each unit running
//!   with its own nested grant (the `serve` router dispatches unequal
//!   per-engine sub-batches this way).
//!
//! A nested call never exceeds the budget its thread was granted, so the total
//! live worker count stays ≤ `outer_workers × inner_threads` ≤ the budget that
//! was split.
//!
//! # Determinism
//!
//! Every helper hands each worker a *disjoint* chunk plus its global offset, so a
//! worker can only write values that depend on the element/row index — never on
//! the chunking. As long as the per-row computation is itself deterministic, the
//! output is **bitwise identical for every thread count and budget**, which the
//! test-suites assert (`planewave::single_thread_matches_multi_thread` and
//! friends).
//!
//! # Example
//!
//! ```
//! let mut image = vec![0.0f32; 6 * 4]; // 6 rows × 4 cols
//! runtime::par_map_rows(&mut image, 4, 2, |first_row, rows| {
//!     for (i, row) in rows.chunks_mut(4).enumerate() {
//!         let r = first_row + i;
//!         for (c, px) in row.iter_mut().enumerate() {
//!             *px = (r * 4 + c) as f32;
//!         }
//!     }
//! });
//! assert_eq!(image[13], 13.0);
//! ```

#![deny(missing_docs)]

pub mod backoff;
pub mod json;
pub mod poisson;
pub mod simd;

use std::sync::OnceLock;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "TINY_VBF_THREADS";

/// Upper bound on the automatically chosen thread count (an explicit
/// [`THREADS_ENV`] override may exceed it).
pub const MAX_AUTO_THREADS: usize = 16;

/// The workspace-wide default number of worker threads.
///
/// Resolution order, cached after the first call:
/// 1. the `TINY_VBF_THREADS` environment variable (values ≥ 1),
/// 2. [`std::thread::available_parallelism`], capped at [`MAX_AUTO_THREADS`],
/// 3. `1` when neither is available.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(value) = std::env::var(THREADS_ENV) {
            if let Ok(n) = value.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_AUTO_THREADS)
    })
}

/// Splits `data` into at most `num_threads` contiguous chunks and runs
/// `f(offset, chunk)` for each on scoped worker threads, where `offset` is the
/// index of the chunk's first element in `data`.
///
/// With `num_threads <= 1` (or a single-element slice) `f` runs on the calling
/// thread with no spawning overhead. Chunks are disjoint, so no locking is
/// needed and the result is independent of the thread count.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn par_chunks_mut<T, F>(data: &mut [T], num_threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_map_rows(data, 1, num_threads, f);
}

/// Splits `data` — a row-major buffer of rows of `row_len` elements — into at
/// most `num_threads` blocks of *whole* rows and runs `f(first_row, block)` for
/// each block on scoped worker threads.
///
/// `first_row` is the global index of the block's first row, letting workers
/// recover absolute coordinates. With `num_threads <= 1` the single block is
/// processed inline on the calling thread.
///
/// # Panics
///
/// Panics when `row_len` is zero or does not divide `data.len()`; propagates
/// panics from `f`.
pub fn par_map_rows<T, F>(data: &mut [T], row_len: usize, num_threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    // Workers get a nested budget of 1: a worker that is itself one of N outer
    // workers would only oversubscribe the machine by spawning more threads
    // (e.g. the per-row network sweep calling the parallel matmul).
    par_map_rows_with_budget(data, row_len, num_threads, 1, f);
}

/// [`par_map_rows`], but each spawned worker is granted `inner_threads` for
/// its own nested `par_*` calls (the plain variant grants 1, running nested
/// regions inline).
///
/// This is the two-level primitive behind the frame-parallel batch paths:
/// the outer level distributes frames, the inner level lets each frame keep
/// its row parallelism, and the total live worker count stays bounded by
/// `num_threads × inner_threads`. Use [`split_budget`] to derive the two
/// factors from one overall budget.
///
/// When called from inside an existing parallel region, the outer worker
/// count is additionally capped by the calling thread's own nested budget.
///
/// # Panics
///
/// Same as [`par_map_rows`].
pub fn par_map_rows_with_budget<T, F>(data: &mut [T], row_len: usize, num_threads: usize, inner_threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "par_map_rows: row_len must be nonzero");
    assert_eq!(data.len() % row_len, 0, "par_map_rows: data length must be a whole number of rows");
    if data.is_empty() {
        return;
    }
    let num_rows = data.len() / row_len;
    // A nested call never exceeds the budget granted to the current thread.
    let cap = NESTED_BUDGET.get().unwrap_or(usize::MAX);
    let workers = num_threads.max(1).min(cap.max(1)).min(num_rows.max(1));
    // Per-worker grants must share the caller's own grant: `workers` threads
    // each granted `worker_budget` may not exceed `cap` in total, otherwise a
    // nested budgeted call could blow past its budget (`cap²` in the worst
    // case).
    let worker_budget = inner_threads.max(1).min((cap / workers.max(1)).max(1));
    if workers <= 1 {
        // The single inline "worker" gets the same grant a spawned one would,
        // so the `workers × inner_threads` bound holds even when the outer
        // level collapses to one (e.g. a batch of one frame must not let the
        // frame's nested row sweep spawn `default_threads` workers when the
        // caller budgeted 1).
        let _restore = BudgetGuard::grant(worker_budget);
        f(0, data);
        return;
    }
    let rows_per_worker = num_rows.div_ceil(workers);
    let chunk_len = rows_per_worker * row_len;
    std::thread::scope(|scope| {
        for (chunk_index, chunk) in data.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            scope.spawn(move || {
                NESTED_BUDGET.set(Some(worker_budget));
                f(chunk_index * rows_per_worker, chunk);
            });
        }
    });
}

thread_local! {
    /// `None` on free-standing threads (nested calls may use any worker count);
    /// `Some(b)` on `par_*` workers, which may use at most `b` threads for
    /// their own nested parallel regions.
    static NESTED_BUDGET: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Restores the calling thread's previous nested budget on drop (the inline
/// execution path borrows the caller's thread, so the grant must not leak —
/// spawned workers just die with their thread-local).
struct BudgetGuard {
    previous: Option<usize>,
}

impl BudgetGuard {
    fn grant(budget: usize) -> Self {
        let previous = NESTED_BUDGET.get();
        NESTED_BUDGET.set(Some(budget));
        Self { previous }
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        NESTED_BUDGET.set(self.previous);
    }
}

/// Whether the current thread is a [`par_map_rows`] / [`par_chunks_mut`]
/// worker. Nested helper calls on such a thread are capped by the worker's
/// nested thread budget (1 unless granted more via
/// [`par_map_rows_with_budget`] / [`par_collect_budgeted`]), so plain nested
/// calls run inline instead of oversubscribing the machine with
/// threads-inside-threads.
pub fn in_parallel_region() -> bool {
    NESTED_BUDGET.get().is_some()
}

/// Splits a total thread budget into `(outer_workers, inner_threads)` for
/// `items` outer work units: the smallest per-item share that still covers
/// every item (`inner = ⌈total / items⌉`), then as many outer workers as that
/// share affords (`outer = ⌊total / inner⌋`). This keeps `outer × inner`
/// close to `total` even when `items` does not divide it — e.g. 9 frames on
/// 16 threads run as 8 × 2 (16 threads live), not 9 × 1. Both factors are
/// ≥ 1, `outer ≤ max(items, 1)` and `outer × inner ≤ max(total, 1)`.
///
/// ```
/// assert_eq!(runtime::split_budget(8, 4), (4, 2));   // 4 frames × 2 threads each
/// assert_eq!(runtime::split_budget(16, 9), (8, 2));  // non-dividing: keep all 16 busy
/// assert_eq!(runtime::split_budget(8, 100), (8, 1)); // more frames than threads
/// assert_eq!(runtime::split_budget(8, 1), (1, 8));   // one frame keeps all threads
/// assert_eq!(runtime::split_budget(0, 3), (1, 1));
/// ```
pub fn split_budget(total: usize, items: usize) -> (usize, usize) {
    let total = total.max(1);
    let inner = total.div_ceil(items.clamp(1, total));
    let outer = (total / inner).max(1);
    (outer, inner)
}

/// Divides a total thread budget across work units proportionally to their
/// `weights` (largest-remainder allocation): every unit receives at least 1,
/// and the shares sum to exactly `total` when `total >= weights.len()`
/// (otherwise every unit gets the minimum share of 1). Zero weights are
/// treated as 1 so every unit stays schedulable. The allocation is
/// deterministic — remainder ties break toward the lower index.
///
/// This is how a serving router shares one bounded thread budget across
/// *heterogeneous* engines in one dispatch: a sub-batch with 3× the frames
/// gets roughly 3× the threads, instead of the uniform split of
/// [`split_budget`].
///
/// ```
/// assert_eq!(runtime::fair_shares(8, &[3, 1]), vec![6, 2]);
/// assert_eq!(runtime::fair_shares(16, &[2, 1, 1]), vec![8, 4, 4]);
/// assert_eq!(runtime::fair_shares(2, &[5, 5, 5]), vec![1, 1, 1]); // floor of 1 each
/// assert_eq!(runtime::fair_shares(5, &[0, 1]), vec![3, 2]); // zero weight -> weight 1, tie -> lower index
/// ```
pub fn fair_shares(total: usize, weights: &[usize]) -> Vec<usize> {
    let k = weights.len();
    if k == 0 {
        return Vec::new();
    }
    let total = total.max(1);
    if total <= k {
        return vec![1; k];
    }
    let weights: Vec<usize> = weights.iter().map(|&w| w.max(1)).collect();
    let weight_sum: usize = weights.iter().sum();
    // Everyone starts at the floor of 1; the surplus is split proportionally,
    // with the integer leftovers going to the largest remainders.
    let surplus = total - k;
    let mut shares = vec![1usize; k];
    let mut used = 0;
    for (share, &w) in shares.iter_mut().zip(&weights) {
        let extra = surplus * w / weight_sum;
        *share += extra;
        used += extra;
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(surplus * weights[i] % weight_sum), i));
    for &i in order.iter().take(surplus - used) {
        shares[i] += 1;
    }
    shares
}

/// Runs `f(index)` for every index in `0..shares.len()` on scoped worker
/// threads, granting worker `i` a nested thread budget of `shares[i]` —
/// the *heterogeneous-grant* counterpart of [`par_collect_budgeted`], whose
/// workers all receive the same inner budget.
///
/// Pair it with [`fair_shares`] to run unequal work units (e.g. a routing
/// server's per-engine sub-batches) concurrently under one total budget:
/// large units get proportionally more threads for their own nested `par_*`
/// calls. Results are collected in index order, so the output is independent
/// of scheduling, and — as with every helper here — `f`'s own determinism
/// makes the result identical for every budget.
///
/// The caller's own nested budget is honoured: when the requested shares sum
/// past the calling thread's grant they are rescaled with [`fair_shares`],
/// and at most one item per live worker is in flight, so the concurrently
/// active grants never sum past the caller's budget (each item always keeps
/// the floor grant of 1, i.e. fully inline nesting).
pub fn par_collect_shares<R, F>(shares: &[usize], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let count = shares.len();
    if count == 0 {
        return Vec::new();
    }
    let cap = NESTED_BUDGET.get().unwrap_or(usize::MAX);
    // Compare the *clamped* shares against the cap: every item runs with a
    // floor grant of 1, so zero shares still consume budget.
    let budgets: Vec<usize> = shares.iter().map(|&s| s.max(1)).collect();
    let budgets = if budgets.iter().sum::<usize>() > cap { fair_shares(cap, &budgets) } else { budgets };
    let workers = count.min(cap.max(1));
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    if workers <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            let _restore = BudgetGuard::grant(budgets[i]);
            *slot = Some(f(i));
        }
    } else {
        let per_worker = count.div_ceil(workers);
        std::thread::scope(|scope| {
            for (chunk_index, chunk) in slots.chunks_mut(per_worker).enumerate() {
                let f = &f;
                let budgets = &budgets;
                scope.spawn(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let i = chunk_index * per_worker + j;
                        NESTED_BUDGET.set(Some(budgets[i]));
                        *slot = Some(f(i));
                    }
                });
            }
        });
    }
    slots.into_iter().map(|s| s.expect("par_collect_shares worker skipped a slot")).collect()
}

/// Runs `f(index)` for every index in `0..count` across at most `num_threads`
/// scoped worker threads and collects the results in index order.
///
/// Useful when the per-item result is an owned value (an image, a tensor)
/// rather than a slice fill. `f` receives each global index exactly once;
/// ordering of the returned vector matches the index, independent of the
/// thread count.
pub fn par_collect<R, F>(count: usize, num_threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_collect_budgeted(count, num_threads, 1, f)
}

/// [`par_collect`], but each worker is granted `inner_threads` for nested
/// `par_*` calls — the owned-result counterpart of
/// [`par_map_rows_with_budget`].
///
/// This is how a batch of frames runs frame-concurrently while each frame's
/// own computation stays row-parallel: `par_collect_budgeted(frames, outer,
/// inner, |i| beamform(frame[i]))` with `(outer, inner) = split_budget(total,
/// frames)`.
pub fn par_collect_budgeted<R, F>(count: usize, num_threads: usize, inner_threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    par_map_rows_with_budget(&mut slots, 1, num_threads, inner_threads, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(offset + i));
        }
    });
    slots.into_iter().map(|s| s.expect("par_collect worker skipped a slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn par_chunks_covers_every_element_once() {
        for threads in [1, 2, 3, 8, 64] {
            let mut data = vec![0u32; 37];
            par_chunks_mut(&mut data, threads, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (offset + i) as u32 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u32 + 1, "threads {threads}, index {i}");
            }
        }
    }

    #[test]
    fn par_map_rows_keeps_rows_whole() {
        let row_len = 5;
        for threads in [1, 2, 4, 7] {
            let mut data = vec![0usize; 13 * row_len];
            par_map_rows(&mut data, row_len, threads, |first_row, block| {
                assert_eq!(block.len() % row_len, 0);
                for (local, row) in block.chunks_mut(row_len).enumerate() {
                    for v in row.iter_mut() {
                        *v = first_row + local;
                    }
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i / row_len);
            }
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let reference: Vec<f64> = {
            let mut d = vec![0.0f64; 101];
            par_chunks_mut(&mut d, 1, |off, c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = ((off + i) as f64).sin();
                }
            });
            d
        };
        for threads in [2, 3, 5, 16] {
            let mut d = vec![0.0f64; 101];
            par_chunks_mut(&mut d, threads, |off, c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = ((off + i) as f64).sin();
                }
            });
            assert_eq!(d, reference, "threads {threads}");
        }
    }

    #[test]
    fn par_collect_preserves_order() {
        for threads in [1, 3, 9] {
            let out = par_collect(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_parallel_calls_run_inline_and_still_cover_everything() {
        assert!(!in_parallel_region());
        let mut outer = vec![0usize; 8];
        par_chunks_mut(&mut outer, 4, |off, chunk| {
            assert!(in_parallel_region(), "workers must be flagged as parallel");
            let mut inner = vec![0u32; 16];
            par_chunks_mut(&mut inner, 4, |ioff, ichunk| {
                for (i, v) in ichunk.iter_mut().enumerate() {
                    *v = (ioff + i) as u32 + 1;
                }
            });
            for (i, v) in inner.iter().enumerate() {
                assert_eq!(*v, i as u32 + 1, "nested call must cover all elements");
            }
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = off + i;
            }
        });
        assert!(!in_parallel_region(), "flag must not leak to the caller");
        for (i, v) in outer.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut data: Vec<f32> = Vec::new();
        par_chunks_mut(&mut data, 4, |_, _| panic!("must not be called"));
        assert!(par_collect(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_rows_panic() {
        let mut data = vec![0.0f32; 7];
        par_map_rows(&mut data, 3, 2, |_, _| {});
    }

    #[test]
    fn split_budget_is_bounded_and_positive() {
        for total in 0..20 {
            for items in 0..20 {
                let (outer, inner) = split_budget(total, items);
                assert!(outer >= 1 && inner >= 1, "total {total} items {items}");
                assert!(outer * inner <= total.max(1), "total {total} items {items} -> {outer}x{inner}");
                if items >= 1 {
                    assert!(outer <= items.max(1));
                }
            }
        }
        assert_eq!(split_budget(16, 4), (4, 4));
        assert_eq!(split_budget(6, 4), (3, 2));
        assert_eq!(split_budget(7, 3), (2, 3));
    }

    #[test]
    fn budgeted_workers_may_nest_up_to_their_grant() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Outer: 2 workers each granted 3 inner threads. The nested call asks
        // for 8 but must be capped at 3; its grand-children get budget 1.
        let observed_inner = AtomicUsize::new(0);
        let mut outer = vec![0usize; 2];
        par_map_rows_with_budget(&mut outer, 1, 2, 3, |off, chunk| {
            assert!(in_parallel_region());
            let mut inner = vec![0usize; 12];
            let spawned = AtomicUsize::new(0);
            par_map_rows(&mut inner, 1, 8, |ioff, ichunk| {
                spawned.fetch_add(1, Ordering::Relaxed);
                // Grand-children are back to inline-only nesting.
                let mut leaf = vec![0u8; 4];
                par_chunks_mut(&mut leaf, 4, |_, c| {
                    assert_eq!(c.len(), 4, "leaf nested call must run inline as one chunk");
                });
                for (i, v) in ichunk.iter_mut().enumerate() {
                    *v = ioff + i;
                }
            });
            observed_inner.fetch_max(spawned.load(Ordering::Relaxed), Ordering::Relaxed);
            for (i, v) in inner.iter().enumerate() {
                assert_eq!(*v, i);
            }
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = off + i;
            }
        });
        assert_eq!(outer, vec![0, 1]);
        assert!(observed_inner.load(Ordering::Relaxed) <= 3, "nested call exceeded its budget");
    }

    #[test]
    fn nested_budgeted_call_cannot_exceed_its_own_grant() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A worker granted 4 threads issues a budgeted (4 × 4) call: the call
        // may use at most its grant of 4 in total, so its workers' own grants
        // collapse to 1 (leaf nesting must run inline).
        let leaf_chunks = AtomicUsize::new(0);
        let out = par_collect_budgeted(1, 1, 4, |_| {
            par_collect_budgeted(8, 4, 4, |i| {
                let mut leaf = vec![0u8; 6];
                par_map_rows(&mut leaf, 1, 6, |_, chunk| {
                    if chunk.len() == 6 {
                        leaf_chunks.fetch_add(1, Ordering::Relaxed);
                    }
                });
                i
            })
        });
        assert_eq!(out[0], (0..8).collect::<Vec<_>>());
        assert_eq!(leaf_chunks.load(Ordering::Relaxed), 8, "grand-children must run inline (grant 4 / 4 workers = 1)");
    }

    #[test]
    fn inline_outer_level_still_caps_nested_calls() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Outer level collapses to one worker (count = 1) with an inner grant
        // of 4: the nested call may spawn up to 4 workers, not the requested 8.
        let chunks_seen = AtomicUsize::new(0);
        let out = par_collect_budgeted(1, 1, 4, |_| {
            assert!(in_parallel_region(), "inline execution must carry the grant");
            let mut inner = vec![0usize; 12];
            par_map_rows(&mut inner, 1, 8, |off, chunk| {
                chunks_seen.fetch_add(1, Ordering::Relaxed);
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = off + i;
                }
            });
            inner
        });
        assert!(!in_parallel_region(), "grant must be restored after the inline call");
        assert_eq!(out[0], (0..12).collect::<Vec<_>>());
        assert_eq!(chunks_seen.load(Ordering::Relaxed), 4, "12 rows across a grant of 4");

        // Plain single-thread call: the inline grant is 1, so nesting is inline.
        let mut top = vec![0u8; 3];
        par_map_rows(&mut top, 1, 1, |_, _| {
            let mut leaf = vec![0u8; 8];
            let calls = AtomicUsize::new(0);
            par_chunks_mut(&mut leaf, 8, |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(calls.load(Ordering::Relaxed), 1, "num_threads 1 must mean fully serial");
        });
    }

    #[test]
    fn fair_shares_cover_the_budget_with_a_floor_of_one() {
        for total in 0..24 {
            for k in 1..6 {
                let weights: Vec<usize> = (0..k).map(|i| i * 3 % 5).collect();
                let shares = fair_shares(total, &weights);
                assert_eq!(shares.len(), k);
                assert!(shares.iter().all(|&s| s >= 1), "total {total} k {k}");
                if total >= k {
                    assert_eq!(shares.iter().sum::<usize>(), total.max(1), "total {total} k {k}");
                } else {
                    assert_eq!(shares, vec![1; k]);
                }
                // Deterministic.
                assert_eq!(shares, fair_shares(total, &weights));
            }
        }
        assert!(fair_shares(7, &[]).is_empty());
        // Heavier units never get fewer threads than lighter ones.
        let shares = fair_shares(13, &[1, 4, 2]);
        assert!(shares[1] >= shares[2] && shares[2] >= shares[0], "{shares:?}");
    }

    #[test]
    fn par_collect_shares_orders_results_and_grants_each_share() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Item 0 gets 3 threads, item 1 gets 1: a nested call from item 0 may
        // spawn up to 3 workers, item 1 must run nested regions inline.
        let max_chunks = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let out = par_collect_shares(&[3, 1], |i| {
            assert!(in_parallel_region(), "share workers must carry their grant");
            let mut data = vec![0usize; 12];
            let chunks = AtomicUsize::new(0);
            par_map_rows(&mut data, 1, 8, |off, chunk| {
                chunks.fetch_add(1, Ordering::Relaxed);
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = off + j;
                }
            });
            max_chunks[i].fetch_max(chunks.load(Ordering::Relaxed), Ordering::Relaxed);
            assert_eq!(data, (0..12).collect::<Vec<_>>());
            i * 10
        });
        assert_eq!(out, vec![0, 10]);
        assert!(max_chunks[0].load(Ordering::Relaxed) <= 3, "item 0 exceeded its grant of 3");
        assert_eq!(max_chunks[1].load(Ordering::Relaxed), 1, "item 1's grant of 1 must run nesting inline");
        assert!(par_collect_shares(&[], |_: usize| 0usize).is_empty());
    }

    #[test]
    fn par_collect_shares_respects_the_callers_nested_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // The caller is itself granted 2 threads but asks for shares summing
        // to 16: the shares must be rescaled into the caller's grant, so no
        // item may nest wider than 2.
        let widest = AtomicUsize::new(0);
        par_collect_budgeted(1, 1, 2, |_| {
            let out = par_collect_shares(&[8, 8], |i| {
                let mut data = vec![0u8; 8];
                let chunks = AtomicUsize::new(0);
                par_map_rows(&mut data, 1, 8, |_, _| {
                    chunks.fetch_add(1, Ordering::Relaxed);
                });
                widest.fetch_max(chunks.load(Ordering::Relaxed), Ordering::Relaxed);
                i
            });
            assert_eq!(out, vec![0, 1]);
        });
        assert!(widest.load(Ordering::Relaxed) <= 2, "rescaled shares must fit the caller's grant");
    }

    #[test]
    fn par_collect_budgeted_matches_serial() {
        let reference: Vec<usize> = (0..17).map(|i| i * 3 + 1).collect();
        for (outer, inner) in [(1, 1), (2, 2), (4, 3), (17, 1)] {
            let out = par_collect_budgeted(17, outer, inner, |i| i * 3 + 1);
            assert_eq!(out, reference, "outer {outer} inner {inner}");
        }
    }
}
