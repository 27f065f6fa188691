//! Tiny data-parallel helper built on crossbeam scoped threads.
//!
//! `parallel_map` spreads independent pure functions over the available
//! cores without pulling in a full thread-pool dependency: the teacher labels
//! of a synthetic dataset, the importance probes, and the 2³² sweeps of the
//! in-tree transcendentals.
//!
//! Results land in slots the calling thread allocates. Anything else a worker
//! allocates comes from its own allocator arena; handed back, it would
//! outlive the worker, and once the caller freed it the allocator would keep
//! it cached and could keep the worker's heap resident, so the process's
//! peak memory would depend on which thread built what. Results are
//! therefore `Copy` — a `Copy` value owns no heap memory — and the compiler
//! enforces it. A large result that outlives the call (the importance
//! profile's 2-bit grid) is built on the caller's thread instead.
//!
//! ```compile_fail,E0277
//! // A `Vec` owns heap memory, so no worker may return one.
//! let _ = sti_tensor::parallel::parallel_map(2, |_| vec![0u8; 4]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use: the machine's parallelism, capped so tiny
/// inputs don't spawn idle threads.
fn worker_count(items: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    hw.min(items).max(1)
}

/// Applies `f` to every item (by index) in parallel and collects the results
/// in input order.
///
/// `f` must be `Sync` because multiple workers call it concurrently. Work is
/// distributed dynamically via an atomic cursor, so uneven item costs (e.g.
/// importance probes over submodels of different sizes) still balance well.
/// `T` is `Copy` so that no result carries a worker's heap back to the
/// caller (see the module doc).
///
/// ```
/// let squares = sti_tensor::parallel::parallel_map(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, F>(items: usize, f: F) -> Vec<T>
where
    T: Send + Copy,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(worker_count(items), items, f)
}

/// [`parallel_map`] on exactly `workers` threads. Item `i`'s result depends
/// on `f(i)` alone and lands in slot `i`, so the output is the same for
/// every worker count; only the wall time differs.
fn parallel_map_with<T, F>(workers: usize, items: usize, f: F) -> Vec<T>
where
    T: Send + Copy,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || items == 0 {
        return (0..items).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..items).map(|_| Mutex::new(None)).collect();

    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items {
                        break;
                    }
                    let value = f(i);
                    *results[i].lock().expect("result slot poisoned") = Some(value);
                })
            })
            .collect();
        // The scope alone waits for the closures, not for the threads to
        // exit; joining does, so the next call never races a thread still
        // releasing its allocator state and memory use is the same each run.
        for h in handles {
            h.join().expect("parallel_map worker panicked");
        }
    })
    .expect("parallel_map worker panicked");

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("worker skipped an item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = parallel_map(1, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn results_do_not_depend_on_the_worker_count() {
        // CI runners and the 2-vCPU sandbox differ in core count; what a
        // caller gets back must not. The item function is order-sensitive
        // floating point, so a slot written by the wrong item would show.
        let item = |i: usize| (0..=i).fold(0.1f32, |acc, k| acc * 1.000_1 + k as f32 * 0.3);
        let sequential: Vec<u32> = (0..37).map(|i| item(i).to_bits()).collect();
        for workers in [1, 2, 7] {
            let out = parallel_map_with(workers, 37, |i| item(i).to_bits());
            assert_eq!(out, sequential, "{workers} workers");
        }
        // More workers than items: the surplus threads find the cursor spent.
        assert_eq!(parallel_map_with(7, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn handles_uneven_work() {
        let out = parallel_map(32, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }
}
