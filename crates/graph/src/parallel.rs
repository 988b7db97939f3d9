//! Deterministic data parallelism for the sharded hot paths.
//!
//! The engine's two expensive loops — the adversary-matrix accumulation
//! behind Definition 2 (Eqs. 2–3) and Monte-Carlo possible-world sampling
//! (Section 6.1) — are sharded over contiguous index ranges ("chunks") by
//! a [`Parallelism`] configuration. Two design rules keep every parallel
//! result **bit-identical** to the sequential one:
//!
//! 1. **Chunk boundaries depend only on [`Parallelism::chunk_size`]**,
//!    never on the thread count. Threads merely race to claim chunks.
//! 2. **Reductions merge per-chunk partial results in chunk-index
//!    order**, so the floating-point summation tree is fixed no matter
//!    which worker computed which chunk.
//!
//! Consequently `fixed seed ⇒ identical output for every thread count`,
//! which is strictly stronger than the per-`(seed, threads)` determinism
//! the experiments need. Randomised shards draw their seeds from the
//! [`stream_seed`] SplitMix-style stream, indexed by work item — again
//! independent of scheduling.
//!
//! # Examples
//!
//! ```
//! use obf_graph::parallel::Parallelism;
//!
//! // Sum of squares, sharded four ways: per-chunk partial sums are
//! // merged in chunk order, so any thread count gives the same bits.
//! let par = Parallelism::new(4);
//! let partials = par.map_chunks(1_000, |range| {
//!     range.map(|i| (i as f64) * (i as f64)).sum::<f64>()
//! });
//! let total: f64 = partials.iter().sum();
//! let seq: f64 = Parallelism::sequential()
//!     .map_chunks(1_000, |range| range.map(|i| (i as f64) * (i as f64)).sum::<f64>())
//!     .iter()
//!     .sum();
//! assert_eq!(total, seq);
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use crate::hashers::splitmix64;

/// Default number of work items per chunk. Small enough that graphs with a
/// few hundred vertices still split into several chunks, large enough that
/// the per-chunk claim overhead (one atomic increment plus one mutex lock)
/// is negligible against real per-item work.
pub const DEFAULT_CHUNK_SIZE: usize = 64;

/// Thread/shard configuration for the parallel execution layer.
///
/// `threads == 1` is the sequential fallback: all work runs on the calling
/// thread, in chunk order, with no scoped threads spawned. Because chunk
/// boundaries and merge order are identical either way, the sequential
/// path produces bit-identical results to any parallel run — the property
/// the equivalence tests in `crates/core` and `crates/uncertain` assert
/// for `threads ∈ {1, 2, 4}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
    chunk_size: usize,
}

impl Default for Parallelism {
    /// Equivalent to [`Parallelism::available`].
    fn default() -> Self {
        Self::available()
    }
}

impl Parallelism {
    /// `threads` workers with the [`DEFAULT_CHUNK_SIZE`]. A value of 0 is
    /// clamped to 1 (sequential).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// Sequential execution (1 thread); the fallback configuration.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// One worker per available hardware thread.
    pub fn available() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Overrides the number of work items per chunk (clamped to ≥ 1).
    ///
    /// Call sites with very expensive items (e.g. evaluating a whole
    /// sampled world) lower this to 1; cheap per-vertex loops keep the
    /// default. The chunk size — not the thread count — fixes the
    /// reduction tree, so two runs only compare bit-identically when they
    /// use the same chunk size.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Overrides the worker count (clamped to ≥ 1), keeping the chunk size.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of worker threads (1 = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Work items per chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The fixed chunk decomposition of `0..len`: consecutive ranges of
    /// `chunk_size` items (the last may be shorter). Independent of the
    /// thread count by design.
    pub fn chunk_ranges(&self, len: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let chunk = self.chunk_size;
        (0..len.div_ceil(chunk)).map(move |i| i * chunk..((i + 1) * chunk).min(len))
    }

    /// Applies `f` to every chunk of `0..len` and returns the per-chunk
    /// results **in chunk order**. This is the reduction primitive: fold
    /// the returned vector left-to-right and the summation order is fixed
    /// regardless of how many threads ran.
    pub fn map_chunks<A, F>(&self, len: usize, f: F) -> Vec<A>
    where
        A: Send,
        F: Fn(Range<usize>) -> A + Sync,
    {
        let ranges: Vec<Range<usize>> = self.chunk_ranges(len).collect();
        if self.threads <= 1 || ranges.len() <= 1 {
            return ranges.into_iter().map(f).collect();
        }
        let n_chunks = ranges.len();
        let mut out: Vec<Option<A>> = std::iter::repeat_with(|| None).take(n_chunks).collect();
        let next = AtomicUsize::new(0);
        let slots = Mutex::new(&mut out);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n_chunks) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    let value = f(ranges[i].clone());
                    slots.lock().expect("chunk result writer poisoned")[i] = Some(value);
                });
            }
        });
        out.into_iter()
            .map(|v| v.expect("every chunk produced a result"))
            .collect()
    }

    /// Element-wise parallel map preserving order: `out[i] = f(i)`.
    /// Work is dispatched in chunks; since each element is computed
    /// independently, the output is trivially thread-count independent.
    pub fn map_collect<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_chunks(len, |range| range.map(&f).collect::<Vec<T>>())
            .into_iter()
            .flatten()
            .collect()
    }

    /// Splits `data` (conceptually `data.len() / stride` items of `stride`
    /// consecutive elements each) into chunks and hands each chunk slice
    /// to `f(first_item_index, chunk_slice)` on a worker thread. Used for
    /// in-place per-item updates such as the HyperANF register arena;
    /// chunks are disjoint, so no synchronisation of the data is needed.
    ///
    /// # Panics
    /// Panics if `stride == 0` or `data.len()` is not a multiple of
    /// `stride`.
    pub fn for_chunks_mut<T, F>(&self, data: &mut [T], stride: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(
            data.len() % stride,
            0,
            "data length must be a multiple of the stride"
        );
        let mut queue: Vec<(usize, &mut [T])> = Vec::new();
        let mut rest = data;
        let mut first_item = 0usize;
        while !rest.is_empty() {
            let take = (self.chunk_size * stride).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            queue.push((first_item, head));
            first_item += take / stride;
            rest = tail;
        }
        if self.threads <= 1 || queue.len() <= 1 {
            for (start, slice) in queue {
                f(start, slice);
            }
            return;
        }
        let workers = self.threads.min(queue.len());
        let queue = Mutex::new(queue);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let item = queue.lock().expect("chunk queue poisoned").pop();
                    match item {
                        Some((start, slice)) => f(start, slice),
                        None => break,
                    }
                });
            }
        });
    }
}

/// A produce/consume pipeline over `len` items: the calling thread runs
/// `produce(0)`, `produce(1)`, … in index order, while `workers` scoped
/// threads run `consume` on the produced items as they arrive; once every
/// item is produced the caller consumes alongside them. Returns the
/// consumed results **in index order**.
///
/// This is for work whose first half must stay sequential — e.g. it reads
/// one shared RNG stream — and whose second half is independent per item.
/// Because `produce` runs in order on one thread and results are placed by
/// index, the output is the same for every `workers` value; with
/// `workers == 0` the caller consumes each item right after producing it
/// and no thread is spawned.
///
/// # Examples
///
/// ```
/// use obf_graph::parallel::pipeline;
///
/// // `produce` advances one sequential state; `consume` is per item.
/// let run = |workers| {
///     let mut state = 1u64;
///     pipeline(6, workers, |_| { state = state * 31 + 7; state }, |x| x % 1000)
/// };
/// assert_eq!(run(0), run(3));
/// ```
pub fn pipeline<D: Send, C: Send>(
    len: usize,
    workers: usize,
    mut produce: impl FnMut(usize) -> D,
    consume: impl Fn(D) -> C + Sync,
) -> Vec<C> {
    let mut slots: Vec<Option<C>> = std::iter::repeat_with(|| None).take(len).collect();
    if workers == 0 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(consume(produce(i)));
        }
    } else {
        let (tx, rx) = mpsc::channel::<(usize, D)>();
        let rx = Mutex::new(rx);
        let results = Mutex::new(&mut slots);
        let work = || loop {
            // The queue lock is released at the end of this statement,
            // before the item is consumed.
            let job = rx.lock().expect("pipeline queue poisoned").recv();
            let Ok((i, item)) = job else { break };
            let value = consume(item);
            results.lock().expect("pipeline result writer poisoned")[i] = Some(value);
        };
        std::thread::scope(|scope| {
            for _ in 0..workers.min(len) {
                scope.spawn(work);
            }
            for i in 0..len {
                tx.send((i, produce(i)))
                    .expect("a pipeline worker is alive");
            }
            drop(tx);
            work();
        });
    }
    slots
        .into_iter()
        .map(|v| v.expect("every item was consumed"))
        .collect()
}

/// The `index`-th seed of the SplitMix-style stream derived from `master`.
///
/// Every randomised work item (a sampled possible world, an independent
/// HyperANF run, an Algorithm 2 trial shard) takes its RNG seed from this
/// stream rather than from a shared sequential RNG, so the draw is a pure
/// function of `(master, index)` — reordering or parallelising the items
/// cannot change what they sample.
///
/// # Examples
///
/// ```
/// use obf_graph::parallel::stream_seed;
///
/// assert_eq!(stream_seed(42, 3), stream_seed(42, 3));
/// assert_ne!(stream_seed(42, 3), stream_seed(42, 4));
/// assert_ne!(stream_seed(42, 3), stream_seed(43, 3));
/// ```
pub fn stream_seed(master: u64, index: u64) -> u64 {
    // Offset by the SplitMix golden-ratio increment so (master, 0) does
    // not collide with the raw master seed used elsewhere.
    splitmix64(master ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        let par = Parallelism::new(3).with_chunk_size(4);
        let ranges: Vec<_> = par.chunk_ranges(10).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(par.chunk_ranges(0).count(), 0);
        assert_eq!(par.chunk_ranges(4).collect::<Vec<_>>(), vec![0..4]);
    }

    #[test]
    fn chunk_boundaries_independent_of_threads() {
        let a: Vec<_> = Parallelism::new(1)
            .with_chunk_size(8)
            .chunk_ranges(30)
            .collect();
        let b: Vec<_> = Parallelism::new(7)
            .with_chunk_size(8)
            .chunk_ranges(30)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn map_chunks_order_and_equivalence() {
        let work = |r: Range<usize>| r.map(|i| (i * i) as f64).sum::<f64>();
        for threads in [1, 2, 4] {
            let par = Parallelism::new(threads).with_chunk_size(16);
            let partials = par.map_chunks(300, work);
            assert_eq!(partials.len(), 300usize.div_ceil(16));
            let seq = Parallelism::sequential()
                .with_chunk_size(16)
                .map_chunks(300, work);
            assert_eq!(partials, seq, "threads={threads}");
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        for threads in [1, 2, 4] {
            let par = Parallelism::new(threads).with_chunk_size(7);
            let out = par.map_collect(100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
        assert!(Parallelism::new(4).map_collect(0, |i| i).is_empty());
    }

    #[test]
    fn for_chunks_mut_touches_every_item_once() {
        for threads in [1, 2, 4] {
            let par = Parallelism::new(threads).with_chunk_size(3);
            let mut data = vec![0u32; 2 * 11]; // 11 items of stride 2
            par.for_chunks_mut(&mut data, 2, |first_item, slice| {
                assert_eq!(slice.len() % 2, 0);
                for (j, item) in slice.chunks_mut(2).enumerate() {
                    let idx = (first_item + j) as u32;
                    item[0] += idx;
                    item[1] += 2 * idx;
                }
            });
            for (i, pair) in data.chunks(2).enumerate() {
                assert_eq!(pair, [i as u32, 2 * i as u32], "threads={threads}");
            }
        }
    }

    #[test]
    fn pipeline_produces_in_order_and_returns_in_order() {
        for workers in [0, 1, 2, 5, 9] {
            let mut produced = Vec::new();
            let out = pipeline(
                7,
                workers,
                |i| {
                    produced.push(i);
                    i * 10
                },
                |x| x + 1,
            );
            assert_eq!(produced, (0..7).collect::<Vec<_>>(), "workers={workers}");
            assert_eq!(out, (0..7).map(|i| i * 10 + 1).collect::<Vec<_>>());
        }
        assert!(pipeline(0, 3, |i| i, |x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of the stride")]
    fn for_chunks_mut_rejects_ragged_data() {
        let mut data = vec![0u8; 5];
        Parallelism::sequential().for_chunks_mut(&mut data, 2, |_, _| {});
    }

    #[test]
    fn zero_threads_clamp_to_sequential() {
        let par = Parallelism::new(0);
        assert_eq!(par.threads(), 1);
        assert_eq!(Parallelism::new(2).with_threads(0).threads(), 1);
        assert_eq!(Parallelism::new(2).with_chunk_size(0).chunk_size(), 1);
    }

    #[test]
    fn stream_seed_is_a_pure_function() {
        let a: Vec<u64> = (0..64).map(|i| stream_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| stream_seed(7, i)).collect();
        assert_eq!(a, b);
        // No collisions in a short prefix, and master changes everything.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert!((0..64).all(|i| stream_seed(8, i) != a[i as usize]));
    }
}
