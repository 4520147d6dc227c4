//! Deterministic data-parallelism for the ballfit workspace.
//!
//! The UBF candidacy sweep is Θ(ρ³) per node (paper, Theorem 1) and
//! embarrassingly parallel across nodes, so the reference pipeline shards
//! hot per-node loops over a scoped thread pool. The one non-negotiable
//! requirement — the workspace's determinism invariant — is that parallel
//! output is **byte-identical to sequential at every thread count**. This
//! crate delivers that with a deliberately boring design:
//!
//! * Inputs are split into fixed-size chunks whose boundaries depend only
//!   on the input length and the configured thread count — never on
//!   scheduling.
//! * Workers claim chunks from an atomic cursor (work stealing for load
//!   balance) and send back `(chunk_index, results)` pairs.
//! * The caller reassembles results **by chunk index**, so the output
//!   order is the input order regardless of which worker finished first.
//!
//! The mapped closure must be a pure function of the item and its index;
//! the per-thread `init` state of [`par_map_init`] /
//! [`par_for_each_init`] is scratch (reusable buffers), not an
//! accumulator — chunk-to-thread assignment is scheduling-dependent, so
//! any output that depended on accumulated state would break the
//! byte-identical guarantee.
//!
//! No `rayon`, no channels crates: `std::thread::scope` + `mpsc` only,
//! and no timing — wall-clock measurement lives in `crates/bench` so the
//! `Instant::now` ban in this crate's `clippy.toml` holds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// How many worker threads a parallel region may use.
///
/// This is an explicit configuration value, threaded through the detector
/// and harness APIs rather than read ambiently at each call site, so a
/// caller can pin a run to any thread count and get the same bytes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Exactly `threads` workers (clamped to at least 1).
    pub fn threads(threads: usize) -> Self {
        Parallelism { threads: threads.max(1) }
    }

    /// Single-threaded: every `par_*` call runs inline on the caller.
    pub fn sequential() -> Self {
        Parallelism::threads(1)
    }

    /// One worker per hardware thread (1 if the count is unavailable).
    pub fn available() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Parallelism::threads(n)
    }

    /// `BALLFIT_THREADS` if set to a positive integer, else
    /// [`Parallelism::available`]. This is the default everywhere, so
    /// `BALLFIT_THREADS=2 cargo test` exercises the parallel paths of the
    /// whole suite without code changes.
    pub fn from_env() -> Self {
        match std::env::var("BALLFIT_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Parallelism::threads(n),
                _ => Parallelism::available(),
            },
            Err(_) => Parallelism::available(),
        }
    }

    /// The configured worker count (always ≥ 1).
    pub fn get(self) -> usize {
        self.threads
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::from_env()
    }
}

/// Chunk length for `n` items on `threads` workers: a pure function of
/// the two counts (never of scheduling), sized so each worker sees ~16
/// chunks for load balance without drowning in channel traffic.
fn chunk_len(n: usize, threads: usize) -> usize {
    (n / (threads * 16)).clamp(1, 256)
}

/// Maps `f` over `inputs`, in parallel, preserving input order.
///
/// The output is exactly `inputs.iter().map(f).collect()` — byte for
/// byte, at every thread count — provided `f` is deterministic in its
/// argument.
pub fn par_map<I, O, F>(par: Parallelism, inputs: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    par_map_init(par, inputs, || (), |(), _idx, item| f(item))
}

/// [`par_map`] with per-thread scratch state and the item index.
///
/// `init` builds one `T` per worker (reusable buffers, a scratch matrix);
/// `f(&mut scratch, index, item)` must produce output that depends only
/// on `(index, item)` — the scratch contents carried over from earlier
/// items on the same worker are scheduling-dependent and must not leak
/// into results.
pub fn par_map_init<I, O, T, G, F>(par: Parallelism, inputs: &[I], init: G, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    G: Fn() -> T + Sync,
    F: Fn(&mut T, usize, &I) -> O + Sync,
{
    let n = inputs.len();
    let threads = par.get().min(n);
    if threads <= 1 {
        let mut scratch = init();
        return inputs.iter().enumerate().map(|(i, item)| f(&mut scratch, i, item)).collect();
    }

    let chunk = chunk_len(n, threads);
    let chunks = n.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<O>)>();
    let mut slots: Vec<Option<Vec<O>>> = Vec::new();
    slots.resize_with(chunks, || None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut scratch = init();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        break;
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(n);
                    let out: Vec<O> = inputs[start..end]
                        .iter()
                        .enumerate()
                        .map(|(off, item)| f(&mut scratch, start + off, item))
                        .collect();
                    if tx.send((c, out)).is_err() {
                        break;
                    }
                }
            });
        }
        // Drop the caller's sender so `rx` ends once every worker is done;
        // reassemble by chunk index while workers are still producing.
        drop(tx);
        for (c, out) in rx {
            slots[c] = Some(out);
        }
    });

    let mut result = Vec::with_capacity(n);
    for slot in slots {
        // A missing slot is unreachable: `thread::scope` propagates worker
        // panics before we get here, and every non-panicking worker sends
        // each chunk it claims.
        result.extend(slot.expect("all chunks completed"));
    }
    result
}

/// Maps `f` over `inputs` *by value*, in parallel, preserving input
/// order.
///
/// The owned counterpart of [`par_map`]: each item is moved into exactly
/// one worker, so `f` can consume non-`Clone` state (the serve layer
/// shards whole network instances this way) and hand back ownership in
/// its output. The result is exactly
/// `inputs.into_iter().map(f).collect()` — byte for byte, at every
/// thread count — provided `f` is deterministic in its argument.
pub fn par_map_owned<I, O, F>(par: Parallelism, inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = inputs.len();
    let threads = par.get().min(n);
    if threads <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    // Items are moved into per-chunk cells; workers claim chunks from the
    // shared cursor and take each cell's item exactly once. Reassembly is
    // by chunk index, as in `par_map_init`.
    let chunk = chunk_len(n, threads);
    let chunks = n.div_ceil(chunk);
    let cells: Vec<std::sync::Mutex<Option<I>>> =
        inputs.into_iter().map(|item| std::sync::Mutex::new(Some(item))).collect();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<O>)>();
    let mut slots: Vec<Option<Vec<O>>> = Vec::new();
    slots.resize_with(chunks, || None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let cells = &cells;
            let f = &f;
            scope.spawn(move || loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    break;
                }
                let start = c * chunk;
                let end = (start + chunk).min(n);
                let out: Vec<O> = cells[start..end]
                    .iter()
                    .map(|cell| {
                        let item = cell
                            .lock()
                            .expect("no worker panics while holding an item cell")
                            .take()
                            .expect("each item cell is taken exactly once");
                        f(item)
                    })
                    .collect();
                if tx.send((c, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (c, out) in rx {
            slots[c] = Some(out);
        }
    });

    let mut result = Vec::with_capacity(n);
    for slot in slots {
        result.extend(slot.expect("all chunks completed"));
    }
    result
}

/// Runs `f(&mut scratch, index)` for every index in `0..count`, sharded
/// across workers with one `init`-built scratch per worker.
///
/// There is no output channel: `f` is for effects that are disjoint per
/// index (or pure compute). The same scratch contract as
/// [`par_map_init`] applies.
pub fn par_for_each_init<T, G, F>(par: Parallelism, count: usize, init: G, f: F)
where
    G: Fn() -> T + Sync,
    F: Fn(&mut T, usize) + Sync,
{
    let threads = par.get().min(count);
    if threads <= 1 {
        let mut scratch = init();
        for i in 0..count {
            f(&mut scratch, i);
        }
        return;
    }

    let chunk = chunk_len(count, threads);
    let chunks = count.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut scratch = init();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        break;
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(count);
                    for i in start..end {
                        f(&mut scratch, i);
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallelism_clamps_to_one() {
        assert_eq!(Parallelism::threads(0).get(), 1);
        assert_eq!(Parallelism::threads(7).get(), 7);
        assert_eq!(Parallelism::sequential().get(), 1);
        assert!(Parallelism::available().get() >= 1);
        assert!(Parallelism::from_env().get() >= 1);
    }

    #[test]
    fn par_map_matches_sequential_at_every_thread_count() {
        let inputs: Vec<u64> = (0..1013).collect();
        let f = |x: &u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        let expect: Vec<u64> = inputs.iter().map(f).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = par_map(Parallelism::threads(threads), &inputs, f);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_edge_lengths() {
        for n in [0usize, 1, 2, 255, 256, 257] {
            let inputs: Vec<usize> = (0..n).collect();
            let got = par_map(Parallelism::threads(4), &inputs, |x| x + 1);
            let expect: Vec<usize> = inputs.iter().map(|x| x + 1).collect();
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn par_map_init_sees_the_right_indices() {
        let inputs: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let got = par_map_init(
            Parallelism::threads(8),
            &inputs,
            Vec::<u32>::new,
            |scratch, idx, item| {
                scratch.push(*item); // scratch is write-only here; never read
                (idx, *item)
            },
        );
        let expect: Vec<(usize, u32)> = inputs.iter().copied().enumerate().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn par_map_owned_matches_sequential_at_every_thread_count() {
        // Boxes are non-Clone-dependent owned state: each must be moved
        // into exactly one worker and returned in input order.
        let make = || (0..611u64).map(Box::new).collect::<Vec<_>>();
        let f = |x: Box<u64>| *x ^ 0xA5A5_5A5A_0F0F_F0F0;
        let expect: Vec<u64> = make().into_iter().map(f).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = par_map_owned(Parallelism::threads(threads), make(), f);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_owned_handles_edge_lengths() {
        for n in [0usize, 1, 2, 255, 256, 257] {
            let inputs: Vec<usize> = (0..n).collect();
            let expect: Vec<usize> = inputs.iter().map(|x| x * 2).collect();
            let got = par_map_owned(Parallelism::threads(4), inputs, |x| x * 2);
            assert_eq!(got, expect, "n = {n}");
        }
    }

    #[test]
    fn par_for_each_init_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..777).map(|_| AtomicU64::new(0)).collect();
        par_for_each_init(
            Parallelism::threads(4),
            hits.len(),
            || (),
            |(), i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_len_is_a_pure_function_of_counts() {
        assert_eq!(chunk_len(10, 4), 1);
        assert_eq!(chunk_len(4210, 4), 65);
        assert_eq!(chunk_len(1_000_000, 2), 256);
    }
}
