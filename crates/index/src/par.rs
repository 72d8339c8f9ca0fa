//! The workspace's parallel primitives: one worker-count rule
//! ([`workers`]), one fan-out on `std::thread::scope` ([`fan_out`]), and
//! the parallel unstable sort built on them ([`par_sort_unstable`]).
//!
//! Every data-parallel kernel — BOPS key building and per-level counting,
//! the quadratic pair-distance histogram, the partitioned plane sweep and
//! the sort below — sizes its fan-out with [`workers`], passing its own
//! per-worker floor so tiny inputs never pay thread-spawn overhead, and
//! runs it with [`fan_out`]. Results never depend on the worker count.

/// Workers worth running for `len` units of work when each worker should
/// get at least `min_per_worker` (≥ 1) of them: `threads`, or one per
/// available CPU when `threads` is 0, capped at `⌈len / min_per_worker⌉`,
/// and never below 1.
pub fn workers(len: usize, min_per_worker: usize, threads: usize) -> usize {
    let cap = len.div_ceil(min_per_worker).max(1);
    match threads {
        0 => cap.min(std::thread::available_parallelism().map_or(1, |n| n.get())),
        t => cap.min(t),
    }
}

/// Runs `work` on every item, one scoped thread per item, and returns the
/// results in item order. A single item runs inline on the caller's thread
/// and spawns nothing. A worker's panic resumes on the caller's thread.
pub fn fan_out<T, R, F>(items: impl IntoIterator<Item = T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    if items.len() <= 1 {
        return items.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| s.spawn(move || work(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Below this many elements per thread, extra sort workers cost more than
/// they save.
const MIN_CHUNK: usize = 16 * 1024;

/// Sorts `data` ascending on up to `threads` workers (0 = one per CPU):
/// chunk-sort, then bottom-up pairwise merging. With one worker (or a
/// small input) this is exactly `slice::sort_unstable`.
pub fn par_sort_unstable<T: Ord + Copy + Send + Sync>(data: &mut [T], threads: usize) {
    let n = data.len();
    let chunk = n.div_ceil(workers(n, MIN_CHUNK, threads)).max(1);
    fan_out(data.chunks_mut(chunk), |part| part.sort_unstable());
    if chunk >= n {
        return;
    }
    // Bottom-up merge rounds, ping-ponging between `data` and an aux
    // buffer; each round merges adjacent sorted runs of width `width` into
    // disjoint output regions, one worker per pair.
    let mut aux = data.to_vec();
    let mut width = chunk;
    let mut result_in_aux = false;
    while width < n {
        let (src, dst): (&[T], &mut [T]) = if result_in_aux {
            (&aux, &mut *data)
        } else {
            (&*data, &mut aux)
        };
        let merges = src
            .chunks(2 * width)
            .zip(dst.chunks_mut(2 * width))
            .map(|(runs, out)| {
                let (a, b) = runs.split_at(width.min(runs.len()));
                (a, b, out)
            });
        fan_out(merges, |(a, b, out)| merge_into(a, b, out));
        result_in_aux = !result_in_aux;
        width *= 2;
    }
    if result_in_aux {
        data.copy_from_slice(&aux);
    }
}

/// Merges two sorted slices into `out` (`out.len() == a.len() + b.len()`).
fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::thread;

    fn random_u64s(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<u64>() % 1000).collect()
    }

    #[test]
    fn matches_sequential_sort_across_thread_counts() {
        for n in [0usize, 1, 2, 100, 10_000, 100_000] {
            let base = random_u64s(n, n as u64);
            let mut expect = base.clone();
            expect.sort_unstable();
            for threads in [0, 1, 2, 3, 7, 16] {
                let mut got = base.clone();
                par_sort_unstable(&mut got, threads);
                assert_eq!(got, expect, "n {n} threads {threads}");
            }
        }
    }

    #[test]
    fn tiny_inputs_do_not_fan_out() {
        // With fewer elements than the floor one worker handles it all.
        assert_eq!(workers(10, MIN_CHUNK, 64), 1);
        assert_eq!(workers(MIN_CHUNK, MIN_CHUNK, 64), 1);
        assert_eq!(workers(MIN_CHUNK + 1, MIN_CHUNK, 64), 2);
        assert_eq!(workers(0, MIN_CHUNK, 4), 1);
        assert_eq!(workers(0, MIN_CHUNK, 0), 1);
        // The thread budget still caps the fan-out.
        assert_eq!(workers(1_000_000, MIN_CHUNK, 4), 4);
    }

    #[test]
    fn workers_prefer_an_explicit_count_and_resolve_auto() {
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(workers(usize::MAX, 1, 3), 3);
        assert_eq!(workers(usize::MAX, 1, 0), cpus);
        assert_eq!(workers(2, 1, 0), cpus.min(2));
    }

    #[test]
    fn one_item_runs_inline_on_the_caller_thread() {
        let caller = thread::current().id();
        assert_eq!(fan_out([()], |()| thread::current().id()), [caller]);
        assert_eq!(fan_out(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        // Two items or more each get a scoped worker of their own.
        let ids = fan_out([(), ()], |()| thread::current().id());
        assert!(ids.iter().all(|&id| id != caller));
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn results_come_back_in_item_order() {
        let data: Vec<u64> = (0..1000).collect();
        // Uneven chunks borrowing the caller's data: the first is the
        // largest, so later workers tend to finish first.
        let chunks = [&data[..700], &data[700..710], &data[710..900], &data[900..]];
        let sums = fan_out(chunks, |c| c.iter().sum::<u64>());
        let expect: Vec<u64> = chunks.iter().map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expect);
        assert_eq!(
            fan_out(0..64usize, |i| i * i),
            (0..64).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "worker 2 failed")]
    fn a_panicking_worker_reaches_the_caller() {
        fan_out(0..4, |i| {
            if i == 2 {
                panic!("worker {i} failed");
            }
            i
        });
    }

    #[test]
    fn merge_handles_empty_and_duplicate_runs() {
        let mut out = vec![0u32; 3];
        merge_into(&[1, 2, 3], &[], &mut out);
        assert_eq!(out, [1, 2, 3]);
        let mut out = vec![0u32; 6];
        merge_into(&[2, 2, 5], &[2, 3, 5], &mut out);
        assert_eq!(out, [2, 2, 2, 3, 5, 5]);
    }

    #[test]
    fn already_sorted_and_reverse_sorted() {
        let mut asc: Vec<u64> = (0..50_000).collect();
        let expect = asc.clone();
        par_sort_unstable(&mut asc, 8);
        assert_eq!(asc, expect);
        let mut desc: Vec<u64> = (0..50_000).rev().collect();
        par_sort_unstable(&mut desc, 8);
        assert_eq!(desc, expect);
    }
}
