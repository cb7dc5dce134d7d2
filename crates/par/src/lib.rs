//! Minimal data-parallel runtime for the pchls workspace.
//!
//! The design-space sweeps behind Figure 2 are embarrassingly parallel:
//! every grid point is an independent `synthesize` call. The container
//! this workspace builds in has no network access, so instead of `rayon`
//! this crate provides the one primitive the exploration layer needs —
//! an **order-preserving indexed parallel map** over `std::thread::scope`
//! with an atomic work-stealing cursor — plus a thread-count control.
//!
//! Determinism: [`par_map`] returns results in input order regardless of
//! which worker computed which item, so callers that post-process
//! sequentially (e.g. the monotone-envelope pass of a power sweep) are
//! byte-identical to a serial run.
//!
//! # Example
//!
//! ```
//! let squares = pchls_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Whether this thread is already inside a [`par_map`] worker (or is
    /// a [dedicated](dedicate_thread) pool worker). Nested `par_map`
    /// calls run serially so an outer fan-out composed with an inner one
    /// (a batch started inside another batch's worker) cannot
    /// oversubscribe the machine with `workers²` threads.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };

    /// Per-thread cap on the fan-out width, set by
    /// [`with_thread_count`]. `usize::MAX` means "no scoped cap" — the
    /// process-wide [`thread_count`] alone decides.
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Upper clamp on every thread-count control (`PCHLS_THREADS`,
/// [`with_thread_count`]): fan-out beyond 64 workers is outside this
/// workspace's design envelope (the work-stealing cursor and the
/// per-call thread spawn both stop paying for themselves long before).
pub(crate) const MAX_THREADS: usize = 64;

/// Parses a `PCHLS_THREADS` override: a `usize`, clamped to
/// `[1, MAX_THREADS]`. Returns `None` (fall back to the host core
/// count) when the value does not parse.
fn parse_thread_override(raw: &str) -> Option<usize> {
    raw.trim()
        .parse::<usize>()
        .ok()
        .map(|n| n.clamp(1, MAX_THREADS))
}

/// The fan-out width [`par_map`] would use on this thread right now:
/// the process-wide [`thread_count`] capped by any enclosing
/// [`with_thread_count`] scope.
fn effective_thread_count() -> usize {
    thread_count().min(THREAD_CAP.with(Cell::get))
}

/// Runs `f` with every [`par_map`] fan-out *started on this thread*
/// capped at `threads` workers (clamped to `[1, MAX_THREADS]`).
///
/// This is the in-process knob behind perfbench's per-thread-count
/// runs and the determinism tests: the cached [`thread_count`] resolves
/// the `PCHLS_THREADS` environment once per process, so comparing
/// 1/2/4 workers in one process needs a scoped override instead. `with_thread_count(1, f)` is
/// the in-process serial switch (every `par_map` degenerates to the
/// serial map), and results are byte-identical at every cap because
/// [`par_map`] is order-preserving.
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let cap = threads.clamp(1, MAX_THREADS);
    let prev = THREAD_CAP.with(|c| c.replace(cap));
    let out = f();
    THREAD_CAP.with(|c| c.set(prev));
    out
}

/// Permanently marks the current thread as a dedicated worker: every
/// [`par_map`] call on it runs serially from now on.
///
/// A long-lived pool (e.g. [`WorkerPool`]) already provides the
/// machine-wide fan-out; letting each of its workers fan out *again*
/// through the batch-level `par_map` would oversubscribe the machine
/// with `workers²` threads. [`par_map`] protects nested calls within
/// one thread tree via a thread-local, but pool workers are fresh
/// threads that inherit nothing — they opt in with this call instead.
pub(crate) fn dedicate_thread() {
    IN_PARALLEL_REGION.with(|c| c.set(true));
}

/// A fixed-size pool of named, dedicated worker threads.
///
/// The complement of [`par_map`]: where `par_map` fans one finite work
/// list out and joins, a `WorkerPool` keeps `workers` threads alive for
/// the lifetime of a long-running component (a request-serving loop, a
/// queue consumer). Each thread runs `body(worker_index)` once; the
/// loop — typically "pop a job, process, repeat until the queue closes"
/// — lives in the body. Worker threads are dedicated (nested
/// `par_map` calls inside them run serially), so a pool of N workers
/// uses N threads total no matter how parallel the work items'
/// internals are.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let done = Arc::new(AtomicUsize::new(0));
/// let pool = {
///     let done = Arc::clone(&done);
///     pchls_par::WorkerPool::spawn(4, move |_worker| {
///         done.fetch_add(1, Ordering::Relaxed);
///     })
/// };
/// pool.join();
/// assert_eq!(done.load(Ordering::Relaxed), 4);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` dedicated threads (at least one), each running
    /// `body(worker_index)` to completion. The body is responsible for
    /// its own termination condition (e.g. a closed job queue).
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn spawn<F>(workers: usize, body: F) -> WorkerPool
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let body = std::sync::Arc::new(body);
        let handles = (0..workers.max(1))
            .map(|i| {
                let body = std::sync::Arc::clone(&body);
                std::thread::Builder::new()
                    .name(format!("pchls-worker-{i}"))
                    .spawn(move || {
                        dedicate_thread();
                        body(i);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Blocks until every worker body returns.
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic.
    pub fn join(self) {
        for h in self.handles {
            h.join().expect("pool worker panicked");
        }
    }

    /// Blocks until every worker body returns, swallowing worker
    /// panics; returns how many workers panicked. For teardown paths
    /// that may themselves run during unwinding (e.g. a `Drop` impl),
    /// where a propagated panic would abort the process.
    pub fn join_lossy(self) -> usize {
        self.handles
            .into_iter()
            .map(std::thread::JoinHandle::join)
            .filter(Result::is_err)
            .count()
    }
}

/// The number of worker threads [`par_map`] uses.
///
/// Defaults to [`std::thread::available_parallelism`], clamped to the
/// item count; the `PCHLS_THREADS` environment variable overrides it,
/// clamped to `[1, MAX_THREADS]` (`PCHLS_THREADS=1` forces serial
/// execution, handy for profiling, A/B-testing parallel speedups, and
/// pinning CI runs to a reproducible width).
///
/// Resolved **once per process** and cached: both the env lookup and
/// `available_parallelism` (which re-parses cgroup limits on Linux —
/// ~10µs per call on containerized hosts) are too slow to repeat on
/// every fan-out. Set `PCHLS_THREADS` before the first parallel call;
/// later changes are ignored. In-process A/B switching uses
/// [`with_thread_count`], not the environment.
#[must_use]
pub fn thread_count() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Some(n) = std::env::var("PCHLS_THREADS")
            .ok()
            .and_then(|v| parse_thread_override(&v))
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Applies `f` to every item in parallel, returning results in input
/// order.
///
/// Work is distributed by an atomic cursor (dynamic scheduling), so
/// uneven per-item cost — the norm for synthesis points, where tight
/// constraints backtrack and loose ones finish instantly — balances
/// automatically. Falls back to a plain serial map for a single worker
/// or a single item.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = effective_thread_count().min(items.len());
    if workers <= 1 || IN_PARALLEL_REGION.with(Cell::get) {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let computed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_PARALLEL_REGION.with(|c| c.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break local;
                        };
                        local.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in computed {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different cost still come back in order.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn nested_par_map_runs_serially() {
        // Inside a worker the nested call must not spawn; it still
        // produces identical results.
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..16).collect();
            par_map(&inner, move |&j| i * 100 + j)
        });
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row, &(0..16).map(|j| i * 100 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_pool_runs_every_body_and_dedicates_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let ran = Arc::new(AtomicUsize::new(0));
        let nested_fanned_out = Arc::new(AtomicUsize::new(0));
        let pool = {
            let ran = Arc::clone(&ran);
            let nested = Arc::clone(&nested_fanned_out);
            WorkerPool::spawn(3, move |worker| {
                ran.fetch_add(1, Ordering::SeqCst);
                // Inside a dedicated worker, par_map must not fan out.
                if !IN_PARALLEL_REGION.with(Cell::get) {
                    nested.fetch_add(1, Ordering::SeqCst);
                }
                let items: Vec<usize> = (0..100).collect();
                let out = par_map(&items, |&x| x + worker);
                assert_eq!(out[0], worker);
            })
        };
        assert_eq!(pool.handles.len(), 3);
        pool.join();
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        assert_eq!(
            nested_fanned_out.load(Ordering::SeqCst),
            0,
            "pool workers must run nested par_map serially"
        );
    }

    #[test]
    fn join_lossy_counts_panicked_workers_without_propagating() {
        let pool = WorkerPool::spawn(3, |worker| {
            assert!(worker != 1, "worker 1 panics on purpose");
        });
        assert_eq!(pool.join_lossy(), 1);
    }

    #[test]
    fn worker_pool_clamps_to_one_worker() {
        let pool = WorkerPool::spawn(0, |_| {});
        assert_eq!(pool.handles.len(), 1);
        pool.join();
    }

    #[test]
    fn thread_override_parses_and_clamps() {
        // The `PCHLS_THREADS` grammar: a usize, clamped to [1, 64];
        // anything else falls back to the host core count (None).
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 8 \n"), Some(8));
        assert_eq!(parse_thread_override("1"), Some(1));
        assert_eq!(parse_thread_override("0"), Some(1), "clamped up to 1");
        assert_eq!(parse_thread_override("64"), Some(64));
        assert_eq!(parse_thread_override("65"), Some(64), "clamped to 64");
        assert_eq!(parse_thread_override("100000"), Some(64));
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("abc"), None);
        assert_eq!(parse_thread_override("-2"), None);
        assert_eq!(parse_thread_override("3.5"), None);
    }

    #[test]
    fn with_thread_count_caps_fanout_and_restores() {
        assert_eq!(THREAD_CAP.with(Cell::get), usize::MAX);
        with_thread_count(2, || {
            assert_eq!(THREAD_CAP.with(Cell::get), 2);
            assert_eq!(effective_thread_count(), thread_count().min(2));
            // Nested scopes tighten and restore independently.
            with_thread_count(1, || assert_eq!(effective_thread_count(), 1));
            assert_eq!(THREAD_CAP.with(Cell::get), 2);
        });
        assert_eq!(THREAD_CAP.with(Cell::get), usize::MAX);
        // Out-of-range caps clamp like the env override.
        with_thread_count(0, || assert_eq!(THREAD_CAP.with(Cell::get), 1));
        with_thread_count(1 << 20, || {
            assert_eq!(THREAD_CAP.with(Cell::get), MAX_THREADS);
        });
    }

    #[test]
    fn par_map_is_identical_at_every_thread_cap() {
        let items: Vec<u64> = (0..257).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for cap in [1, 2, 3, 4, 8] {
            let out = with_thread_count(cap, || par_map(&items, |&x| x.wrapping_mul(x) ^ 17));
            assert_eq!(out, reference, "cap {cap}");
        }
    }
}
