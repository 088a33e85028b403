//! The persistent worker pool and thread-count control for the parallel
//! backend.
//!
//! The original harness installed a rayon pool of the desired width; with
//! the workspace's std-only parallel backend the width is a thread-local
//! ambient value read by every `par` kernel. [`with_threads`] is the
//! study's equivalent of setting `OMP_NUM_THREADS`.
//!
//! Kernels used to fork-join scoped `std::thread`s on *every* call, so
//! fork-join overhead — not memory bandwidth — dominated time-per-epoch
//! at small batch sizes, and worker threads started with a fresh
//! thread-local width, silently falling back to machine width when a
//! runner's worker invoked a `par` kernel (oversubscription). Both
//! problems are fixed here:
//!
//! * [`run`] hands tasks to a process-wide pool of parked workers
//!   (condvar handoff, no thread creation on the hot path);
//! * every task **inherits the submitting scope's ambient context**
//!   (width and instrumentation), so nested kernels respect
//!   [`with_threads`] no matter which thread executes them;
//! * a panicking task is caught, the remaining tasks still run, and the
//!   panic resumes on the submitting thread once the whole submission has
//!   drained — workers survive and nothing deadlocks.
//!
//! Determinism note: chunk *assignment* is decided by the caller from the
//! requested width before submission, and results are keyed by task
//! index, never by executing thread — so results are bit-identical across
//! pool sizes, scheduling orders, and the legacy fork-join baseline
//! (available via [`with_dispatch`] for the `BENCH_pool.json` A/B).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::available_parallelism;

use crate::simd::KernelTier;

thread_local! {
    /// Requested kernel width; 0 means "machine width" (no scope active).
    static AMBIENT_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Instrumentation sink installed by [`with_stats`], if any.
    static AMBIENT_STATS: RefCell<Option<Arc<PoolStats>>> = const { RefCell::new(None) };
    /// Execution strategy for [`run`] on this thread.
    static AMBIENT_DISPATCH: Cell<Dispatch> = const { Cell::new(Dispatch::Pool) };
    /// Kernel tier the linalg primitives dispatch to on this thread.
    static AMBIENT_TIER: Cell<KernelTier> = const { Cell::new(KernelTier::Scalar) };
}

/// Degree of parallelism the `par` kernels use on this thread. Defaults to
/// the machine's available parallelism outside any [`with_threads`] scope.
pub fn current_num_threads() -> usize {
    let n = AMBIENT_THREADS.with(Cell::get);
    if n == 0 {
        available_parallelism().map_or(1, usize::from)
    } else {
        n
    }
}

/// Runs `f` with the parallel kernels limited to `n` threads (clamped to at
/// least one). Nested calls see the innermost width; the previous width is
/// restored on exit, including on unwind. Pool tasks submitted inside the
/// scope inherit this width, so kernels keep honoring it even when they
/// execute on a pool worker thread.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_THREADS.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT_THREADS.with(|t| t.replace(n.max(1))));
    f()
}

/// The [`KernelTier`] the linalg primitives dispatch to on this thread.
/// Defaults to [`KernelTier::Scalar`] outside any [`with_tier`] scope, so
/// trajectories recorded before the SIMD tier existed stay bit-identical.
pub fn current_tier() -> KernelTier {
    AMBIENT_TIER.with(Cell::get)
}

/// Runs `f` with the linalg primitives dispatching to `tier`. Scoped and
/// restored on unwind like [`with_threads`]; pool tasks submitted inside
/// the scope inherit the tier, so chunked `par` kernels keep using it no
/// matter which worker thread executes a chunk.
pub fn with_tier<R>(tier: KernelTier, f: impl FnOnce() -> R) -> R {
    struct Restore(KernelTier);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_TIER.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT_TIER.with(|t| t.replace(tier)));
    f()
}

/// How [`run`] executes its tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// Hand tasks to the persistent worker pool (the default).
    Pool,
    /// Spawn fresh scoped threads per call: the pre-pool behaviour, kept
    /// as the measured baseline for the pool bench. Fork-join workers do
    /// *not* inherit the ambient width — reproducing the legacy
    /// width-propagation bug is part of what the bench quantifies.
    ForkJoin,
}

/// The execution strategy [`run`] would use on this thread.
pub fn current_dispatch() -> Dispatch {
    AMBIENT_DISPATCH.with(Cell::get)
}

/// Runs `f` with [`run`] executing via `dispatch`; scoped and restored on
/// unwind like [`with_threads`].
pub fn with_dispatch<R>(dispatch: Dispatch, f: impl FnOnce() -> R) -> R {
    struct Restore(Dispatch);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_DISPATCH.with(|d| d.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT_DISPATCH.with(|d| d.replace(dispatch)));
    f()
}

/// Locks a pool mutex. The pool never panics while holding its own locks,
/// so poisoning cannot arise from pool code; if user code somehow poisons
/// one, the plain counters/queues inside are still consistent, so continue
/// with the data rather than spreading the panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Instrumentation counters for pool submissions, installed for a scope
/// with [`with_stats`] and inherited by pool tasks like the width is.
/// Mutex-backed rather than atomic: the workspace confines atomic RMW to
/// `SharedModel`, and these counters are far off any hot path.
#[derive(Debug, Default)]
pub struct PoolStats {
    inner: Mutex<StatsInner>,
}

#[derive(Clone, Copy, Debug, Default)]
struct StatsInner {
    submissions: u64,
    max_width: usize,
    max_tasks: usize,
}

impl PoolStats {
    /// A fresh counter set, ready to share with [`with_stats`].
    pub fn new() -> Arc<PoolStats> {
        Arc::default()
    }

    /// Number of [`run`] submissions observed (including inline
    /// single-task ones).
    pub fn submissions(&self) -> u64 {
        lock(&self.inner).submissions
    }

    /// Largest ambient width ([`current_num_threads`]) seen at submission.
    pub fn max_width(&self) -> usize {
        lock(&self.inner).max_width
    }

    /// Largest task count seen in a single submission.
    pub fn max_tasks(&self) -> usize {
        lock(&self.inner).max_tasks
    }

    fn record(&self, width: usize, tasks: usize) {
        let mut s = lock(&self.inner);
        s.submissions += 1;
        s.max_width = s.max_width.max(width);
        s.max_tasks = s.max_tasks.max(tasks);
    }
}

/// Runs `f` with `stats` recording every [`run`] submission in the scope,
/// including submissions made from inside pool tasks spawned by the scope.
pub fn with_stats<R>(stats: &Arc<PoolStats>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<PoolStats>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_STATS.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(AMBIENT_STATS.with(|s| s.replace(Some(Arc::clone(stats)))));
    f()
}

/// Completion latch for one submission: counts tasks down and carries the
/// first panic payload back to the submitter.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(count: usize) -> Arc<Latch> {
        Arc::new(Latch {
            state: Mutex::new(LatchState { remaining: count, panic: None }),
            done: Condvar::new(),
        })
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut s = lock(&self.state);
        s.remaining -= 1;
        if s.panic.is_none() {
            s.panic = panic;
        }
        if s.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut s = lock(&self.state);
        while s.remaining > 0 {
            s = match self.done.wait(s) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        s.panic.take()
    }
}

/// One queued unit of work: a type-erased pointer to the submission's
/// closure plus the ambient context captured at submission time.
struct Task {
    /// Valid until the submission's latch trips (see SAFETY in [`run`]).
    closure: *const (dyn Fn(usize) + Sync),
    index: usize,
    width: usize,
    tier: KernelTier,
    stats: Option<Arc<PoolStats>>,
    latch: Arc<Latch>,
}

// SAFETY: the raw closure pointer crosses threads, but `run` blocks until
// the latch has tripped for every task of its submission, and each task
// trips the latch strictly after its last access to the closure — so the
// pointee outlives every dereference. The pointee is `Sync`, so shared
// concurrent calls are allowed.
unsafe impl Send for Task {}

struct PoolShared {
    queue: Mutex<VecDeque<Task>>,
    work: Condvar,
}

/// The process-wide pool, created on first use. Workers are parked in
/// `worker_loop` for the life of the process; their count follows machine
/// parallelism (at least two, so pool handoff is exercised even on
/// single-core CI machines). Determinism never depends on this number:
/// chunk assignment is fixed by the requested width before submission.
fn pool() -> &'static PoolShared {
    static POOL: OnceLock<&'static PoolShared> = OnceLock::new();
    POOL.get_or_init(|| {
        // analyzer: allow(hot-path-alloc) -- one-time pool construction behind OnceLock, never on the per-task path
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
        }));
        let workers = available_parallelism().map_or(1, usize::from).max(2);
        for i in 0..workers {
            // A failed spawn only shrinks the pool: submitters execute
            // their own tasks too, so progress never depends on workers.
            let _ = std::thread::Builder::new()
                // analyzer: allow(hot-path-alloc) -- thread names are built once at pool spawn, never on the per-task path
                .name(format!("sgd-pool-{i}"))
                .spawn(move || worker_loop(shared));
        }
        shared
    })
}

fn worker_loop(shared: &'static PoolShared) {
    loop {
        let task = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = match shared.work.wait(q) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        execute(task);
    }
}

/// Restores the executing thread's ambient context when a task finishes,
/// even if the task panics.
struct InstallCtx {
    prev_width: usize,
    prev_tier: KernelTier,
    prev_stats: Option<Arc<PoolStats>>,
}

impl InstallCtx {
    fn install(width: usize, tier: KernelTier, stats: Option<Arc<PoolStats>>) -> InstallCtx {
        InstallCtx {
            prev_width: AMBIENT_THREADS.with(|t| t.replace(width)),
            prev_tier: AMBIENT_TIER.with(|t| t.replace(tier)),
            prev_stats: AMBIENT_STATS.with(|s| s.replace(stats)),
        }
    }
}

impl Drop for InstallCtx {
    fn drop(&mut self) {
        AMBIENT_THREADS.with(|t| t.set(self.prev_width));
        AMBIENT_TIER.with(|t| t.set(self.prev_tier));
        AMBIENT_STATS.with(|s| *s.borrow_mut() = self.prev_stats.take());
    }
}

fn execute(task: Task) {
    // analyzer: allow(hot-path-alloc) -- Option<Arc> clone is a refcount bump, no heap allocation
    let _ctx = InstallCtx::install(task.width, task.tier, task.stats.clone());
    // SAFETY: see `unsafe impl Send for Task` — the pointee stays alive
    // until the latch trips, which happens strictly after this call.
    let closure = unsafe { &*task.closure };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| closure(task.index)));
    task.latch.complete(result.err());
}

/// Records a submission into the ambient stats sink, if one is installed.
fn record(tasks: usize) {
    AMBIENT_STATS.with(|s| {
        if let Some(stats) = s.borrow().as_ref() {
            stats.record(current_num_threads(), tasks);
        }
    });
}

/// Executes `f(0)`, `f(1)`, …, `f(tasks - 1)` concurrently and returns
/// once all have finished. This is the single entry point all `par`
/// kernels and runner epochs go through.
///
/// * Tasks inherit the submitter's ambient width and stats sink.
/// * The submitting thread participates: it executes tasks of its own
///   submission while waiting, so nested `run` calls from inside a pool
///   task always make progress even when every worker is busy.
/// * If any task panics, the remaining tasks still run, the pool workers
///   survive, and the first panic resumes on the submitting thread.
pub fn run<F>(tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    match tasks {
        0 => return,
        1 => {
            record(1);
            f(0);
            return;
        }
        _ => {}
    }
    record(tasks);
    if current_dispatch() == Dispatch::ForkJoin {
        return fork_join(tasks, &f);
    }
    let shared = pool();
    let latch = Latch::new(tasks);
    let width = AMBIENT_THREADS.with(Cell::get);
    let tier = AMBIENT_TIER.with(Cell::get);
    // analyzer: allow(hot-path-alloc) -- Option<Arc> clone is a refcount bump, no heap allocation
    let stats = AMBIENT_STATS.with(|s| s.borrow().clone());
    // SAFETY (lifetime erasure): `run` does not return before
    // `latch.wait()` observes all `tasks` completions, so `f` strictly
    // outlives every dereference of this pointer.
    let local: &(dyn Fn(usize) + Sync) = &f;
    let closure: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(local)
    };
    {
        let mut q = lock(&shared.queue);
        for index in 0..tasks {
            q.push_back(Task {
                closure,
                index,
                width,
                tier,
                // analyzer: allow(hot-path-alloc) -- Option<Arc> clone is a refcount bump, no heap allocation
                stats: stats.clone(),
                latch: Arc::clone(&latch),
            });
        }
    }
    shared.work.notify_all();
    // Help drain this submission's own tasks (identified by latch), never
    // someone else's — a nested submitter must not block its parent's
    // completion on unrelated long-running work.
    loop {
        let own = {
            let mut q = lock(&shared.queue);
            match q.iter().position(|t| Arc::ptr_eq(&t.latch, &latch)) {
                Some(i) => q.remove(i),
                None => None,
            }
        };
        match own {
            Some(task) => execute(task),
            None => break,
        }
    }
    if let Some(payload) = latch.wait() {
        std::panic::resume_unwind(payload);
    }
}

/// The pre-pool execution strategy: one scoped OS thread per task, spawned
/// and joined on every call. Kept (confined to this module — the analyzer
/// bans thread creation elsewhere) as the measured baseline so the pool
/// bench can quantify both the handoff overhead and the width-inheritance
/// fix. The dispatch *mode* propagates into the scoped workers so nested
/// kernels stay on the baseline path, but the width deliberately does not:
/// that is the legacy bug under measurement. The kernel *tier* does
/// propagate: it postdates the legacy dispatch, so there is no legacy
/// behaviour to preserve, and inheriting it keeps pool and fork-join
/// results bit-identical under any tier (see `pool_bit_identity.rs`).
fn fork_join<F>(tasks: usize, f: &F)
where
    F: Fn(usize) + Sync,
{
    let tier = AMBIENT_TIER.with(Cell::get);
    std::thread::scope(|s| {
        for index in 0..tasks {
            s.spawn(move || with_dispatch(Dispatch::ForkJoin, || with_tier(tier, || f(index))));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_width_is_scoped_and_clamped() {
        let outside = current_num_threads();
        assert!(outside >= 1);
        with_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            with_threads(0, || assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn with_threads_returns_the_closure_value() {
        assert_eq!(with_threads(2, || 41 + 1), 42);
    }

    #[test]
    fn width_is_inherited_by_pool_workers() {
        // The pre-pool backend leaked machine width into worker threads
        // (the oversubscription bug); pool tasks now inherit the
        // installing scope's width no matter which thread runs them.
        with_threads(5, || {
            let seen = Mutex::new(Vec::new());
            run(4, |_| seen.lock().unwrap().push(current_num_threads()));
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 4);
            assert!(seen.iter().all(|&w| w == 5), "widths not inherited: {seen:?}");
        });
    }

    #[test]
    fn fork_join_baseline_does_not_inherit_width() {
        // The legacy dispatch keeps the legacy semantics: fresh scoped
        // threads start at machine width regardless of the caller's scope.
        let machine = available_parallelism().map_or(1, usize::from);
        with_dispatch(Dispatch::ForkJoin, || {
            with_threads(machine + 7, || {
                let seen = Mutex::new(Vec::new());
                run(2, |_| seen.lock().unwrap().push(current_num_threads()));
                for w in seen.into_inner().unwrap() {
                    assert_eq!(w, machine, "fork-join workers must see machine width");
                }
            });
        });
    }

    #[test]
    fn run_executes_every_index_exactly_once() {
        let hits = Mutex::new(vec![0u32; 9]);
        run(9, |i| hits.lock().unwrap()[i] += 1);
        assert_eq!(*hits.lock().unwrap(), vec![1; 9]);
    }

    #[test]
    fn panics_propagate_and_the_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            run(4, |i| {
                if i == 2 {
                    panic!("injected task failure");
                }
            });
        });
        assert!(caught.is_err(), "worker panic must reach the submitter");
        // No deadlock, no dead workers: the pool keeps serving.
        let done = Mutex::new(0usize);
        run(3, |_| *done.lock().unwrap() += 1);
        assert_eq!(*done.lock().unwrap(), 3);
    }

    #[test]
    fn nested_submissions_complete() {
        let total = Mutex::new(0usize);
        run(3, |_| run(3, |_| *total.lock().unwrap() += 1));
        assert_eq!(*total.lock().unwrap(), 9);
    }

    #[test]
    fn stats_observe_width_and_tasks_and_stay_scoped() {
        let stats = PoolStats::new();
        with_stats(&stats, || with_threads(3, || run(5, |_| {})));
        assert_eq!(stats.submissions(), 1);
        assert_eq!(stats.max_width(), 3);
        assert_eq!(stats.max_tasks(), 5);
        // Outside the scope nothing is recorded.
        run(2, |_| {});
        assert_eq!(stats.submissions(), 1);
    }

    #[test]
    fn stats_are_inherited_by_pool_tasks() {
        let stats = PoolStats::new();
        with_stats(&stats, || with_threads(2, || run(2, |_| run(2, |_| {}))));
        // One outer submission plus one nested submission per outer task,
        // all observed at the installed width.
        assert_eq!(stats.submissions(), 3);
        assert_eq!(stats.max_width(), 2);
        assert_eq!(stats.max_tasks(), 2);
    }

    #[test]
    fn tier_is_scoped_and_inherited_by_pool_workers() {
        assert_eq!(current_tier(), KernelTier::Scalar);
        with_tier(KernelTier::Simd, || {
            assert_eq!(current_tier(), KernelTier::Simd);
            let seen = Mutex::new(Vec::new());
            run(4, |_| seen.lock().unwrap().push(current_tier()));
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 4);
            assert!(seen.iter().all(|&t| t == KernelTier::Simd), "tier not inherited: {seen:?}");
        });
        assert_eq!(current_tier(), KernelTier::Scalar);
    }

    #[test]
    fn tier_is_inherited_by_fork_join_workers() {
        // Unlike the width (whose non-inheritance reproduces the legacy
        // bug), the tier propagates into the baseline dispatch so the two
        // modes stay bit-identical under any tier.
        with_dispatch(Dispatch::ForkJoin, || {
            with_tier(KernelTier::SimdPortable, || {
                let seen = Mutex::new(Vec::new());
                run(2, |_| seen.lock().unwrap().push(current_tier()));
                for t in seen.into_inner().unwrap() {
                    assert_eq!(t, KernelTier::SimdPortable);
                }
            });
        });
    }

    #[test]
    fn dispatch_is_scoped_and_restored() {
        assert_eq!(current_dispatch(), Dispatch::Pool);
        with_dispatch(Dispatch::ForkJoin, || {
            assert_eq!(current_dispatch(), Dispatch::ForkJoin);
        });
        assert_eq!(current_dispatch(), Dispatch::Pool);
    }
}
