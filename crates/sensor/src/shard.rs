//! A persistent row-shard worker pool for intra-frame parallelism.
//!
//! Sensor noise is a pure function of position (see [`crate::noise`]),
//! so the row bands of one
//! capture, pool or ROI readout pass can be computed concurrently with
//! bit-identical results at any shard count. `std::thread::scope` would
//! do that, but it allocates (thread stacks, join packets) on every
//! frame — and the steady-state frame path carries a **zero heap
//! allocations per frame** contract enforced by `tests/alloc.rs`. So the
//! pool here is persistent: threads are spawned once (lazily, on the
//! first sharded readout) and jobs are handed over through a single
//! reused slot — a mutex/condvar publish of a type-erased pointer to a
//! stack-held closure, with completion tracked by stack-held atomic
//! counters. Dispatching a job performs no heap allocation on any
//! thread.
//!
//! Safety model: a published `Job` contains raw pointers into the
//! dispatching stack frame. [`ShardPool::run`] does not return — or
//! unwind — until **every** worker has checked in on that job's
//! sequence number (a drop guard performs the wait even when the
//! calling thread's shard panics), so no worker can still observe the
//! pointers after the frame dies; a worker that wakes late sees an
//! already-processed sequence number and goes back to waiting without
//! touching the stale job. Worker-side panics are caught
//! (`catch_unwind`), flagged on the job, and re-raised as a panic on
//! the calling thread after the check-in — a panicking shard can
//! neither hang the pool nor kill a worker thread.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A type-erased shard job: workers claim shard indices from `cursor`
/// and call `run(ctx, index)` for each, then check in once on `done`
/// (setting `poisoned` first if a shard panicked on their thread).
#[derive(Clone, Copy)]
struct Job {
    // SAFETY: callable only while the publishing call keeps `ctx` alive
    // — i.e. between the job's publication and its final check-in.
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    cursor: *const AtomicUsize,
    done: *const AtomicUsize,
    poisoned: *const AtomicBool,
    shards: usize,
    seq: u64,
}

// SAFETY: the pointers target the stack frame of the `run` call that
// published the job, which outlives every access (see the module docs).
unsafe impl Send for Job {}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
}

struct Slot {
    job: Option<Job>,
    shutdown: bool,
}

/// Blocks until every worker has checked in on the current job — run on
/// the normal exit path and, crucially, on unwind, so the job's
/// stack-held state outlives every cross-thread observer. The residual
/// wait is the tail of at most one shard per worker; spin-yield keeps
/// it cheap and allocation-free.
struct CheckinGuard<'a> {
    done: &'a AtomicUsize,
    expected: usize,
}

impl Drop for CheckinGuard<'_> {
    fn drop(&mut self) {
        while self.done.load(Ordering::Acquire) != self.expected {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }
}

/// The persistent worker pool; see the module docs.
pub struct ShardPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serialises concurrent `run` calls (cloned sensors share the pool
    /// through an `Arc`); uncontended in every intended use.
    gate: Mutex<()>,
    seq: AtomicU64,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool").field("workers", &self.workers.len()).finish()
    }
}

impl ShardPool {
    /// Creates a pool sized for `parallelism`-way sharding: the calling
    /// thread participates in every job, so `parallelism - 1` workers
    /// are spawned.
    pub fn new(parallelism: usize) -> Self {
        let worker_count = parallelism.saturating_sub(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot { job: None, shutdown: false }),
            work_cv: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        Self { shared, workers, gate: Mutex::new(()), seq: AtomicU64::new(0) }
    }

    fn worker_loop(shared: &Shared) {
        let mut last_seq = 0u64;
        loop {
            let job = {
                let mut slot = shared.slot.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if slot.shutdown {
                        return;
                    }
                    match slot.job {
                        Some(job) if job.seq != last_seq => break job,
                        _ => {
                            slot = shared.work_cv.wait(slot).unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            last_seq = job.seq;
            // A panicking shard must not kill the worker (the caller
            // would spin forever on a check-in that never comes) nor
            // unwind past the check-in: catch it, flag the job as
            // poisoned, and check in regardless.
            //
            // SAFETY: this worker has not checked in yet, so the
            // publisher is still blocked in its check-in wait, so every
            // job pointer is alive.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                loop {
                    let i = (*job.cursor).fetch_add(1, Ordering::Relaxed);
                    if i >= job.shards {
                        break;
                    }
                    (job.run)(job.ctx, i);
                }
            }));
            // SAFETY: still pre-check-in for `poisoned`; `done` itself
            // is kept alive by the publisher's check-in wait spinning on
            // it.
            unsafe {
                if outcome.is_err() {
                    (*job.poisoned).store(true, Ordering::Release);
                }
                // Check-in: `run` blocks on this count before returning,
                // which is what keeps the job's stack pointers alive for
                // the whole time any worker can observe them.
                (*job.done).fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Runs `f(0..shards)` across the pool (the calling thread included)
    /// and returns when every shard has completed. With `shards <= 1` or
    /// an empty pool the calls happen inline on the calling thread.
    ///
    /// No heap allocation is performed on any thread.
    pub fn run<F: Fn(usize) + Sync>(&self, shards: usize, f: &F) {
        if shards <= 1 || self.workers.is_empty() {
            for i in 0..shards {
                f(i);
            }
            return;
        }
        // SAFETY(contract): `ctx` must point to a live `F` — upheld
        // because the only caller is the job published below, whose
        // `ctx` is `f` on this stack frame, kept alive by the check-in
        // wait.
        unsafe fn call<F: Fn(usize)>(ctx: *const (), i: usize) {
            // SAFETY: `ctx` points to a live `F` per this fn's contract.
            unsafe { (*(ctx as *const F))(i) }
        }
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let cursor = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        let job = Job {
            run: call::<F>,
            ctx: f as *const F as *const (),
            cursor: &cursor,
            done: &done,
            poisoned: &poisoned,
            shards,
            seq,
        };
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(PoisonError::into_inner);
            slot.job = Some(job);
            self.shared.work_cv.notify_all();
        }
        // From here until every worker checks in, the job's stack
        // pointers are observable from other threads — including while
        // this thread unwinds out of a panicking `f`. The guard performs
        // the check-in wait on the normal path *and* on unwind, so the
        // frame can never die early.
        let guard = CheckinGuard { done: &done, expected: self.workers.len() };
        // The calling thread claims shards like any worker.
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= shards {
                break;
            }
            f(i);
        }
        drop(guard);
        if poisoned.load(Ordering::Acquire) {
            panic!("a shard worker panicked during a sharded job");
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(PoisonError::into_inner);
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The row range of shard `index` when `rows` rows are split as evenly
/// as possible into `shards` bands (earlier bands take the remainder).
#[inline]
pub(crate) fn band(rows: usize, shards: usize, index: usize) -> (usize, usize) {
    let base = rows / shards;
    let rem = rows % shards;
    let start = index * base + index.min(rem);
    let len = base + usize::from(index < rem);
    (start, start + len)
}

/// Wraps a raw pointer so a sharded closure can carry a second disjoint
/// output buffer across threads (bands never overlap). Access goes
/// through [`SendPtr::get`] so closures capture the wrapper — not the
/// bare pointer, which edition-2021 disjoint capture would otherwise
/// pull out field-by-field, losing the `Send`/`Sync` blessing.
pub(crate) struct SendPtr<T>(*mut T);

// Hand-written rather than derived: a derive would require `T: Copy`,
// but only the pointer is copied.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

// SAFETY: the wrapper only moves the pointer value across threads; all
// access goes through `get`, and every user derives disjoint per-shard
// slices or elements from it (band or claim disjointness, argued where
// the references are made).
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as above — shared access hands out the raw pointer only, and
// shards never alias each other's bands.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        Self(ptr)
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` (a `rows × row_len` row-major buffer) into per-shard
/// row bands and runs `f(shard, first_row, band)` for each — on the pool
/// when one is supplied and `shards > 1`, inline otherwise. Because the
/// bands partition the buffer, the result is identical for every shard
/// count whenever `f` is a pure function of the absolute row positions.
/// `shards` is clamped to `1..=rows`, so shard indices stay below both.
///
/// # Panics
///
/// If `data.len() != rows * row_len`.
pub fn shard_rows<T: Send, F: Fn(usize, usize, &mut [T]) + Sync>(
    pool: Option<&ShardPool>,
    data: &mut [T],
    rows: usize,
    row_len: usize,
    shards: usize,
    f: F,
) {
    assert_eq!(data.len(), rows * row_len, "shard_rows: buffer is not rows × row_len");
    let shards = shards.clamp(1, rows.max(1));
    match pool {
        Some(pool) if shards > 1 => {
            let base = SendPtr::new(data.as_mut_ptr());
            pool.run(shards, &|i| {
                let (r0, r1) = band(rows, shards, i);
                // SAFETY: `band` partitions `0..rows` into disjoint,
                // in-bounds row ranges (one per shard index), so each
                // shard's mutable sub-slice aliases nothing — and `data`
                // outlives `pool.run`, which does not return until every
                // shard has checked in.
                let band_slice = unsafe {
                    std::slice::from_raw_parts_mut(
                        base.get().add(r0 * row_len),
                        (r1 - r0) * row_len,
                    )
                };
                f(i, r0, band_slice);
            });
        }
        _ => {
            for i in 0..shards {
                let (r0, r1) = band(rows, shards, i);
                f(i, r0, &mut data[r0 * row_len..r1 * row_len]);
            }
        }
    }
}

/// One shard's view of a [`claim_each`] job: each `next` claims the
/// next position of the shared order and yields `(index, &mut data[index])`.
pub struct Claims<'a, T> {
    base: SendPtr<T>,
    order: &'a [usize],
    cursor: &'a AtomicUsize,
    _data: std::marker::PhantomData<&'a mut [T]>,
}

impl<'a, T> Iterator for Claims<'a, T> {
    type Item = (usize, &'a mut T);

    fn next(&mut self) -> Option<Self::Item> {
        let &index = self.order.get(self.cursor.fetch_add(1, Ordering::Relaxed))?;
        // SAFETY: `claim_each` built `order` from distinct in-bounds
        // indices of `data`, and the shared cursor hands out each
        // position of `order` exactly once across all shards, so no two
        // claims alias. `data` stays exclusively borrowed by
        // `claim_each`, which returns only after every shard has checked
        // in, so the reference cannot outlive it.
        Some((index, unsafe { &mut *self.base.get().add(index) }))
    }
}

/// Runs `f(shard, claims)` on up to `shards` pool shards, where the
/// shards claim the elements of `data` that `class` admits one at a
/// time from one shared cursor (dynamic load balancing, unlike the
/// fixed bands of [`shard_rows`]). `class` returns `None` to skip an
/// element, `Some(true)` to place it in the first class and
/// `Some(false)` in the second; the claim order is the first class then
/// the second, each in index order. `order` is the reusable buffer that
/// order is built in: with capacity for `data.len()` indices, a call
/// allocates nothing. With one shard, or a pool without workers, the
/// claims run inline in that order.
pub fn claim_each<T, C, F>(
    pool: &ShardPool,
    data: &mut [T],
    order: &mut Vec<usize>,
    shards: usize,
    class: C,
    f: F,
) where
    T: Send,
    C: Fn(&T) -> Option<bool>,
    F: Fn(usize, Claims<'_, T>) + Sync,
{
    order.clear();
    for first in [true, false] {
        order.extend((0..data.len()).filter(|&i| class(&data[i]) == Some(first)));
    }
    if order.is_empty() {
        return;
    }
    let base = SendPtr::new(data.as_mut_ptr());
    let (order, cursor) = (&order[..], AtomicUsize::new(0));
    pool.run(shards.clamp(1, order.len()), &|shard| {
        f(shard, Claims { base, order, cursor: &cursor, _data: std::marker::PhantomData });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_each_hands_out_each_admitted_element_once_in_class_order() {
        let pool = ShardPool::new(3);
        let mut order = Vec::with_capacity(10);
        for shards in [1usize, 2, 3, 8] {
            let mut data: Vec<u32> = (0..10).collect();
            let seen = Mutex::new(Vec::new());
            // Multiples of 3 first, odd numbers second, the rest skipped.
            let class = |v: &u32| {
                if v.is_multiple_of(3) {
                    Some(true)
                } else {
                    (v % 2 == 1).then_some(false)
                }
            };
            claim_each(&pool, &mut data, &mut order, shards, class, |_, claims| {
                for (index, value) in claims {
                    *value += 100;
                    seen.lock().unwrap().push(index);
                }
            });
            assert_eq!(order, [0, 3, 6, 9, 1, 5, 7], "shards={shards}");
            let mut seen = seen.into_inner().unwrap();
            if shards == 1 {
                assert_eq!(seen, order, "one shard claims in order");
            }
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 3, 5, 6, 7, 9], "shards={shards}");
            let bumped: Vec<usize> =
                data.iter().filter(|&&v| v >= 100).map(|&v| v as usize - 100).collect();
            assert_eq!(bumped, seen, "shards={shards}");
        }
    }

    #[test]
    fn band_partitions_rows() {
        for rows in [1usize, 2, 5, 7, 480] {
            for shards in [1usize, 2, 3, 4, 7] {
                let mut covered = 0;
                for i in 0..shards.min(rows) {
                    let (a, b) = band(rows, shards.min(rows), i);
                    assert_eq!(a, covered, "rows={rows} shards={shards} band {i}");
                    assert!(b > a);
                    covered = b;
                }
                assert_eq!(covered, rows, "rows={rows} shards={shards}");
            }
        }
    }

    #[test]
    fn pool_runs_every_shard_exactly_once() {
        let pool = ShardPool::new(3);
        for shards in [1usize, 2, 4, 9] {
            let hits: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            pool.run(shards, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "shard {i} of {shards}");
            }
        }
    }

    #[test]
    fn shard_rows_is_shard_count_invariant() {
        let rows = 13usize;
        let row_len = 7usize;
        let reference: Vec<u32> = (0..rows * row_len).map(|i| (i * i) as u32).collect();
        let pool = ShardPool::new(4);
        for (use_pool, shards) in [(false, 1), (false, 3), (true, 2), (true, 4), (true, 13)] {
            let mut data = vec![0u32; rows * row_len];
            shard_rows(
                use_pool.then_some(&pool),
                &mut data,
                rows,
                row_len,
                shards,
                |_, first_row, band| {
                    for (dy, row) in band.chunks_exact_mut(row_len).enumerate() {
                        let y = first_row + dy;
                        for (x, v) in row.iter_mut().enumerate() {
                            let i = y * row_len + x;
                            *v = (i * i) as u32;
                        }
                    }
                },
            );
            assert_eq!(data, reference, "pool={use_pool} shards={shards}");
        }
    }

    #[test]
    fn pool_survives_a_panicking_shard() {
        // Whichever thread draws the poisoned shard, the run must panic
        // on the caller (never hang, never kill a worker) and leave the
        // pool fully usable.
        let pool = ShardPool::new(3);
        for round in 0..3 {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(4, &|i| {
                    if i == 2 {
                        panic!("boom in round {round}");
                    }
                });
            }));
            assert!(outcome.is_err(), "round {round}: panic did not propagate");
            let hits: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
            pool.run(5, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "round {round} shard {i}");
            }
        }
    }

    #[test]
    fn panicking_capture_raises_once_and_the_next_capture_is_bit_identical() {
        // Capture-shaped sharded job: row bands written through
        // `shard_rows`, several bands poisoned at once. The panic must
        // be caught on the worker side, flagged, and re-raised on the
        // caller exactly once per run (never once per poisoned band,
        // never a deadlock) — and the very next capture on the same
        // pool must be bit-identical to an unfaulted one.
        let rows = 16usize;
        let row_len = 9usize;
        let reference: Vec<u32> = (0..rows * row_len).map(|i| (i * 3 + 1) as u32).collect();
        let fill = |first_row: usize, band: &mut [u32]| {
            for (dy, row) in band.chunks_exact_mut(row_len).enumerate() {
                let y = first_row + dy;
                for (x, v) in row.iter_mut().enumerate() {
                    *v = ((y * row_len + x) * 3 + 1) as u32;
                }
            }
        };
        let pool = ShardPool::new(4);
        for round in 0..3 {
            let mut data = vec![0u32; rows * row_len];
            let escapes = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shard_rows(Some(&pool), &mut data, rows, row_len, 8, |s, first_row, band| {
                    if s % 2 == 0 {
                        escapes.fetch_add(1, Ordering::Relaxed);
                        panic!("poisoned band {s} in round {round}");
                    }
                    fill(first_row, band);
                });
            }));
            assert!(outcome.is_err(), "round {round}: the poisoned capture must panic");
            assert!(
                escapes.load(Ordering::Relaxed) >= 2,
                "round {round}: several bands must actually poison for the test to bite"
            );
            // One faulted run, one escaped panic — the next capture sees
            // a clean pool and reproduces the reference bit for bit.
            let mut clean = vec![0u32; rows * row_len];
            shard_rows(Some(&pool), &mut clean, rows, row_len, 8, |_, first_row, band| {
                fill(first_row, band);
            });
            assert_eq!(clean, reference, "round {round}: capture after a fault diverged");
        }
    }

    #[test]
    fn single_parallelism_pool_stays_inline() {
        let pool = ShardPool::new(1);
        assert_eq!(pool.workers.len(), 0);
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }
}
