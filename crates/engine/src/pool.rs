//! [`WorkerPool`] — a long-lived worker pool with a shared task deque.
//!
//! The previous scheduler spawned a fresh `std::thread::scope` per batch
//! and split the unique misses into contiguous chunks, one per worker.
//! That has two costs the frontier workload exposes: thread spawn/join on
//! every level (GrpSel issues one batch per halving level, most of them
//! small), and static chunking (a Z-group whose conditioning set induces a
//! giant stratum pins one worker while the others idle). This pool fixes
//! both: threads are spawned once and owned by the session, and every
//! batch is pushed as a list of *tasks* (one per Z-group chunk) onto one
//! shared deque that idle workers pop from — dynamic balancing without
//! per-task channels.
//!
//! `run_scoped` executes borrowed closures on the pool's `'static`
//! threads. Safety rests on one invariant: **the call does not return
//! until every submitted task has finished** (a latch counts completions,
//! and worker panics are caught so the count always reaches zero); the
//! borrows a task captures therefore outlive its execution. A worker
//! panic is re-raised on the caller's thread after the batch drains.

use fairsel_obs::TrackedMutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    // analyze: bounded-by holds one frontier batch of tasks; fully drained every wave
    queue: TrackedMutex<VecDeque<Task>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// Completion latch for one `run_scoped` batch.
struct Latch {
    remaining: TrackedMutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: TrackedMutex::new("engine.pool.latch", count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn complete(&self, ok: bool) {
        if !ok {
            self.panicked.store(true, Ordering::SeqCst);
        }
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining > 0 {
            remaining = self.remaining.wait(&self.done, remaining);
        }
    }
}

/// A persistent worker pool; see the module docs for the execution model.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (clamped to at least 1). Workers sleep on a
    /// condvar until tasks arrive, so an idle pool costs nothing.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: TrackedMutex::new("engine.pool.queue", VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Execute every task on the pool and block until all complete.
    /// Tasks may borrow from the caller's stack (see the module docs for
    /// why that is sound). Panics with `"CI worker panicked"` if any task
    /// panicked — after the whole batch has drained, so no task is left
    /// running with dangling borrows.
    pub fn run_scoped<'scope, F>(&self, tasks: Vec<F>)
    where
        F: FnOnce() + Send + 'scope,
    {
        if tasks.is_empty() {
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        {
            let mut queue = self.shared.queue.lock();
            for task in tasks {
                let latch = Arc::clone(&latch);
                let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    let ok = catch_unwind(AssertUnwindSafe(task)).is_ok();
                    latch.complete(ok);
                });
                // SAFETY: the job is only executed before `run_scoped`
                // returns — the latch wait below blocks until every job
                // has completed (panics included, via `catch_unwind`) — so
                // every borrow with lifetime 'scope is still live whenever
                // the job runs. The transmute only erases that lifetime.
                let job: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(job) };
                queue.push_back(job);
            }
            self.shared.available.notify_all();
        }
        latch.wait();
        if latch.panicked.load(Ordering::SeqCst) {
            panic!("CI worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Store the flag under the queue lock: a worker checks it under
        // that lock and then waits, so the notify below cannot fall
        // between its check and its wait and leave it asleep.
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    // Busy-time integral across every pool in the process: each task's
    // wall time lands in one monotone counter, so `busy_us / elapsed_us`
    // gives mean pool utilization without per-task exposition.
    let busy = fairsel_obs::counter("engine_pool_busy_us");
    loop {
        let task = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue.wait(&shared.available, queue);
            }
        };
        // analyze: wall-clock worker busy-time counter only; never branches execution
        let t0 = std::time::Instant::now();
        task();
        busy.add(t0.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Dropping a pool whose workers are still starting must not hang:
    /// before the shutdown flag was stored under the queue lock, a worker
    /// could miss the wake-up, and two thousand drops in a debug build hung
    /// every time. The work runs on a watchdog thread so a hang fails
    /// rather than stalls the suite.
    #[test]
    fn dropping_fresh_pools_never_hangs() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..2_000 {
                drop(WorkerPool::new(2));
            }
            tx.send(()).ok();
        });
        let finished = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(finished.is_ok(), "a pool drop hung");
    }

    #[test]
    fn executes_every_task_and_is_reusable() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let counter = AtomicUsize::new(0);
        for round in 1..=3usize {
            let tasks: Vec<_> = (0..17)
                .map(|_| {
                    let counter = &counter;
                    move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect();
            pool.run_scoped(tasks);
            assert_eq!(counter.load(Ordering::SeqCst), 17 * round);
        }
    }

    #[test]
    fn tasks_write_through_borrowed_slots() {
        let pool = WorkerPool::new(2);
        let mut out = vec![0u64; 64];
        pool.run_scoped(
            out.iter_mut()
                .enumerate()
                .map(|(i, slot)| move || *slot = (i * i) as u64)
                .collect(),
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = WorkerPool::new(1);
        pool.run_scoped(Vec::<fn()>::new());
    }

    #[test]
    #[should_panic(expected = "CI worker panicked")]
    fn worker_panic_propagates_after_drain() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
            .map(|i| {
                let completed = &completed;
                let job: Box<dyn FnOnce() + Send> = Box::new(move || {
                    if i == 3 {
                        panic!("boom");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                });
                job
            })
            .collect();
        pool.run_scoped(tasks);
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let pool = WorkerPool::new(2);
        let bad: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| panic!("boom"))];
        assert!(catch_unwind(AssertUnwindSafe(|| pool.run_scoped(bad))).is_err());
        // Workers caught the panic and keep serving.
        let counter = AtomicUsize::new(0);
        pool.run_scoped(
            (0..5)
                .map(|_| {
                    let counter = &counter;
                    move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect(),
        );
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }
}
