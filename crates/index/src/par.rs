//! The workspace's parallel primitives: one worker-count rule
//! ([`workers`]), one fan-out on `std::thread::scope` ([`fan_out`]), and
//! the parallel key sort built on them ([`par_sort_keys`]).
//!
//! Every data-parallel kernel — BOPS key building, counting and sorting,
//! the quadratic pair-distance histogram, the partitioned plane sweep and
//! the sort below — sizes its fan-out with [`workers`], passing its own
//! per-worker floor so tiny inputs never pay thread-spawn overhead, and
//! runs it with [`fan_out`]. Results never depend on the worker count.

use crate::morton::MortonKey;

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

/// The widest radix digit: 2¹³ counters per pass stay cache-resident, and
/// the scatter writes few enough streams at once to run at memory speed.
const MAX_DIGIT_BITS: u32 = 13;

/// The most radix passes worth making. Each pass reads and writes every
/// key once; from the third pass on the comparison sort is faster (10⁶
/// random keys, one thread: 48 bits in four passes 54 ms against 35 ms,
/// 96-bit `u128` keys 163 ms against 61 ms).
const MAX_RADIX_PASSES: u32 = 2;

/// Sorts `data` ascending on up to `threads` workers (0 = one per CPU),
/// when every key fits in its low `bits` bits: each chunk is sorted on its
/// own ([`sort_chunk`]: an LSD radix sort over exactly those bits when
/// they are few), then sorted chunks are merged bottom-up in pairs. Narrow
/// keys and few used bits make it cheap: 24-bit `u32` keys take two radix
/// passes of 12-bit digits.
pub fn par_sort_keys<K: MortonKey>(data: &mut [K], bits: u32, threads: usize) {
    let n = data.len();
    let chunk = n.div_ceil(workers(n, MIN_CHUNK, threads)).max(1);
    if chunk >= n && radix_digits::<K>(n, bits).is_none() {
        // One chunk, compared in place: no scatter or merge buffer.
        data.sort_unstable();
        return;
    }
    let mut aux = vec![K::default(); n];
    let parts = data.chunks_mut(chunk).zip(aux.chunks_mut(chunk));
    fan_out(parts, |(part, buf)| sort_chunk(part, buf, bits));
    if chunk >= n {
        return;
    }
    // Bottom-up merge rounds, ping-ponging between `data` and `aux`; each
    // round merges adjacent sorted runs of width `width` into disjoint
    // output regions, one worker per pair.
    let mut width = chunk;
    let mut result_in_aux = false;
    while width < n {
        let (src, dst): (&[K], &mut [K]) = if result_in_aux {
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

/// The radix digits for `n` keys that fit in their low `bits` bits, as
/// `(passes, digit width)`: the fewest digits of at most
/// [`MAX_DIGIT_BITS`] each, evened out. `None` where a comparison sort is
/// the better choice: more than [`MAX_RADIX_PASSES`] digits, fewer keys
/// than a digit has values, or no bits to sort on.
fn radix_digits<K: MortonKey>(n: usize, bits: u32) -> Option<(u32, u32)> {
    let bits = bits.min(K::WIDTH);
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    if passes == 0 || passes > MAX_RADIX_PASSES {
        return None;
    }
    let width = bits.div_ceil(passes);
    (n >= 1 << width).then_some((passes, width))
}

/// Sorts one chunk whose keys fit in their low `bits` bits: an LSD radix
/// sort over the [`radix_digits`] with `buf` (same length) as the scatter
/// target where those exist — one read of `data` builds every pass's
/// histogram, and a pass whose digit all keys share is skipped — else
/// `sort_unstable`, which is faster there.
fn sort_chunk<K: MortonKey>(data: &mut [K], buf: &mut [K], bits: u32) {
    let n = data.len();
    let Some((passes, width)) = radix_digits::<K>(n, bits) else {
        data.sort_unstable();
        return;
    };
    let radix = 1usize << width;
    let mask = radix as u64 - 1;
    let digit = move |k: K, pass: u32| ((k >> (pass * width)).low_u64() & mask) as usize;
    let mut counts = vec![0usize; passes as usize * radix];
    for &k in data.iter() {
        for (pass, hist) in (0..passes).zip(counts.chunks_exact_mut(radix)) {
            hist[digit(k, pass)] += 1;
        }
    }
    let mut in_buf = false;
    for (pass, hist) in (0..passes).zip(counts.chunks_exact_mut(radix)) {
        if hist.contains(&n) {
            continue;
        }
        let mut next = 0;
        for c in hist.iter_mut() {
            (*c, next) = (next, next + *c);
        }
        let (src, dst): (&[K], &mut [K]) = if in_buf { (buf, data) } else { (data, buf) };
        for &k in src {
            let slot = &mut hist[digit(k, pass)];
            dst[*slot] = k;
            *slot += 1;
        }
        in_buf = !in_buf;
    }
    if in_buf {
        data.copy_from_slice(buf);
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

    /// `n` keys of `K` using only the low `bits` bits: random, all equal,
    /// already sorted, reverse sorted, and few distinct values.
    fn inputs<K: MortonKey>(n: usize, bits: u32, seed: u64) -> Vec<Vec<K>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = u128::MAX >> (128 - bits);
        let key = |x: u128| {
            let x = x & mask;
            // Build the key from 32-bit pieces: `K` only converts from u32.
            (0..4).rev().fold(K::default(), |k, i| {
                let piece = K::from((x >> (32 * i)) as u32);
                if i * 32 < K::WIDTH {
                    k | (piece << (32 * i))
                } else {
                    k
                }
            })
        };
        let random: Vec<K> = (0..n)
            .map(|_| key(((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128))
            .collect();
        let mut sorted = random.clone();
        sorted.sort_unstable();
        let reversed = sorted.iter().rev().copied().collect();
        let few = (0..n)
            .map(|_| key((rng.gen_range(0..5u64) as u128) << (bits - 1)))
            .collect();
        vec![random, vec![key(mask); n], sorted, reversed, few]
    }

    fn radix_matches_sort_unstable<K: MortonKey + std::fmt::Debug>() {
        let sizes = [0usize, 1, 2, 1000, MIN_CHUNK + 1000, 100_000];
        for bits in [1u32, 7, 24, 25, 26, 27, 32, 33, 63, 64, 97, 128] {
            if bits > K::WIDTH {
                continue;
            }
            for n in sizes {
                for (case, base) in inputs::<K>(n, bits, bits as u64 * 31 + n as u64)
                    .into_iter()
                    .enumerate()
                {
                    let mut expect = base.clone();
                    expect.sort_unstable();
                    // Up to `MIN_CHUNK + 1000` keys at most two chunks
                    // form; 100 000 keys split into 3 chunks at 3 threads
                    // and 7 at 7 or 16: merge rounds with an odd run that
                    // passes through unpartnered.
                    let threads: &[usize] = match n {
                        100_000 => &[1, 3, 7, 16],
                        _ => &[1, 2, 4, 0],
                    };
                    for &threads in threads {
                        let mut got = base.clone();
                        par_sort_keys(&mut got, bits, threads);
                        assert!(
                            got == expect,
                            "{}-bit keys, {bits} bits, n {n}, case {case}, threads {threads}",
                            K::WIDTH
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_sequential_sort_across_thread_counts() {
        radix_matches_sort_unstable::<u32>();
    }

    #[test]
    fn matches_sequential_sort_across_thread_counts_u64() {
        radix_matches_sort_unstable::<u64>();
    }

    #[test]
    fn matches_sequential_sort_across_thread_counts_u128() {
        radix_matches_sort_unstable::<u128>();
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
        par_sort_keys(&mut asc, 16, 8);
        assert_eq!(asc, expect);
        let mut desc: Vec<u64> = (0..50_000).rev().collect();
        par_sort_keys(&mut desc, 16, 8);
        assert_eq!(desc, expect);
    }

    #[test]
    fn radix_digits_cover_exactly_the_used_bits() {
        // Two 13-bit digits: every bit of both moves a key, and a pass
        // whose digit all keys share (the high one, below) is skipped.
        let top = (1u64 << 26) - 1;
        let mut keys: Vec<u64> = (0..9000).map(|i| (i * 7919) % 8192).collect();
        keys.extend([1 << 25, top, 1 << 13, 1 << 12]);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut buf = vec![0; keys.len()];
        sort_chunk(&mut keys, &mut buf, 26);
        assert_eq!(keys, expect);
        let mut low: Vec<u32> = (0..9000).rev().map(|i| i % 8192).collect();
        let mut expect = low.clone();
        expect.sort_unstable();
        sort_chunk(&mut low, &mut vec![0; 9000], 26);
        assert_eq!(low, expect);
    }
}
