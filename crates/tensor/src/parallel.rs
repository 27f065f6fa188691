//! Tiny data-parallel helper built on `std::thread::scope`.
//!
//! `parallel_map` spreads independent pure functions over the available
//! cores without pulling in a full thread-pool dependency: the teacher labels
//! of a synthetic dataset, the importance probes, and the 2³² sweeps of the
//! in-tree transcendentals.
//!
//! Results land in slots the calling thread allocates. The rule: **a worker
//! allocates nothing — its result is `Copy`, every buffer it writes is lent
//! from the caller.** Whatever a worker allocates comes from its own
//! allocator arena; the allocator keeps the arena for the rest of the
//! process and may keep its pages resident even once every block in it is
//! freed. So any allocation on a worker, however small, makes the
//! process's resident memory depend on which thread ran what.
//!
//! - Results are `Copy` — a `Copy` value owns no heap memory — and the
//!   compiler enforces it.
//! - Every buffer a worker writes (the importance profiler's decoded layer,
//!   hidden states and forward-pass scratch; the teacher's hidden state and
//!   scratch) is a scratch value [`parallel_map_scratch`] builds on the
//!   calling thread, lends to one worker for the whole call and frees on the
//!   calling thread afterwards. The worker overwrites it in place, never
//!   growing it past what the caller sized it for.
//!
//! A value that outlives the call is built on the caller's thread. Nothing
//! but review enforces the second half; a memory pin in the root crate's
//! tests (`tests/memory_sharing.rs`) counts the blocks the set-up's workers
//! request and expects none.
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
    parallel_map_scratch(items, || (), |(), i| f(i))
}

/// [`parallel_map`] with a scratch value per worker: `scratch` is called on
/// the calling thread once per worker, and `f(scratch, i)` gets the scratch
/// of the worker that runs item `i`, to overwrite in place (see the module
/// doc). A result must not depend on what earlier items left in the
/// scratch, since which worker runs which item varies from run to run.
///
/// ```
/// use sti_tensor::parallel::parallel_map_scratch;
/// let sums = parallel_map_scratch(4, || vec![0u64; 8], |buf, i| {
///     buf.fill(i as u64);
///     buf.iter().sum::<u64>()
/// });
/// assert_eq!(sums, vec![0, 8, 16, 24]);
/// ```
pub fn parallel_map_scratch<S, T, F>(items: usize, scratch: impl FnMut() -> S, f: F) -> Vec<T>
where
    S: Send,
    T: Send + Copy,
    F: Fn(&mut S, usize) -> T + Sync,
{
    map_on(worker_count(items), items, scratch, f)
}

/// [`parallel_map_scratch`] on exactly `workers` threads. Item `i`'s result
/// depends on `f(_, i)` alone and lands in slot `i`, so the output is the
/// same for every worker count; only the wall time differs.
fn map_on<S, T, F>(workers: usize, items: usize, scratch: impl FnMut() -> S, f: F) -> Vec<T>
where
    S: Send,
    T: Send + Copy,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if items == 0 {
        return Vec::new();
    }
    let mut scratches: Vec<S> = std::iter::repeat_with(scratch).take(workers.max(1)).collect();
    if let [only] = scratches.as_mut_slice() {
        return (0..items).map(|i| f(only, i)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..items).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = scratches
            .iter_mut()
            .map(|scratch| {
                let (cursor, results, f) = (&cursor, &results, &f);
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items {
                        break;
                    }
                    let value = f(scratch, i);
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
    });

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
    use std::thread::{self, ThreadId};

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

    /// Which thread built a scratch, which one used it, and for how many
    /// items.
    #[derive(Default)]
    struct Tally {
        built_on: Option<ThreadId>,
        used_on: Option<ThreadId>,
        items: usize,
    }

    #[test]
    fn results_do_not_depend_on_the_worker_count() {
        // CI runners and the 2-vCPU sandbox differ in core count; what a
        // caller gets back must not. The item function is order-sensitive
        // floating point, so a slot written by the wrong item would show.
        let item = |i: usize| (0..=i).fold(0.1f32, |acc, k| acc * 1.000_1 + k as f32 * 0.3);
        let sequential: Vec<u32> = (0..37).map(|i| item(i).to_bits()).collect();
        let caller = thread::current().id();
        for workers in [1, 2, 7] {
            let mut tallies: Vec<Tally> = (0..workers).map(|_| Tally::default()).collect();
            let mut unused = tallies.iter_mut();
            let build = || {
                let tally = unused.next().expect("one scratch per worker");
                tally.built_on = Some(thread::current().id());
                tally
            };
            let out = map_on(workers, 37, build, |tally, i| {
                let worker = thread::current().id();
                assert_eq!(*tally.used_on.get_or_insert(worker), worker, "a scratch changed hands");
                tally.items += 1;
                item(i).to_bits()
            });
            assert_eq!(out, sequential, "{workers} workers");
            // Every scratch came from the caller, and only its worker wrote it.
            assert!(tallies.iter().all(|t| t.built_on == Some(caller)), "{workers} workers");
            assert_eq!(tallies.iter().map(|t| t.items).sum::<usize>(), 37, "{workers} workers");
        }
        // More workers than items: the surplus threads find the cursor spent.
        assert_eq!(map_on(7, 3, || (), |(), i| i), vec![0, 1, 2]);
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
