//! A scoped work-stealing thread pool on `std::thread`.
//!
//! The shape follows the standard inference-runtime recipe (e.g. rten's thread pool):
//! every worker owns an injector queue and a piece of scratch state; when its queue
//! drains it steals from its peers, so a straggler task never idles the rest of the
//! pool. Three properties matter for the campaign driver built on top:
//!
//! * **Scoped borrows** — tasks run inside [`std::thread::scope`], so they may borrow
//!   the caller's stack (the compiled plan, the golden outputs, the judge) without any
//!   `Arc` or `'static` gymnastics. The pool joins all workers before returning.
//! * **Worker-local scratch** — [`ThreadPool::run_with`] gives every worker one value of
//!   caller-defined scratch state for its whole tenure (the campaign driver passes a
//!   cloned `ExecPlan` buffer arena, keeping the hot path allocation-free per worker).
//! * **Deterministic reduction** — results are returned **in task order**, whatever
//!   interleaving the scheduler produced; a panicking task propagates its panic to the
//!   caller when the scope joins.
//!
//! The queues are `Mutex<VecDeque>`s, not lock-free Chase–Lev deques: campaign tasks are
//! whole forward passes (tens of microseconds to milliseconds), so queue operations are
//! nowhere near the contention regime where lock-free stealing pays for its complexity.
//!
//! When metrics are enabled (`ranger_obs`), every worker tallies its executed tasks,
//! steals and park time (time spent in the steal-scan/idle path rather than running a
//! task — these workers retire instead of sleeping, so that is the whole of their
//! non-working time) into locals, flushed to `pool.worker.<i>.{tasks,steals,park_nanos}`
//! counters once at retirement. The task loop itself touches no shared metric state.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// A fixed-width scoped thread pool with per-worker injector queues and work stealing.
///
/// The pool is a value, not a set of running threads: each [`ThreadPool::run`] /
/// [`ThreadPool::run_with`] call spawns its workers inside a [`std::thread::scope`] and
/// joins them before returning. That keeps the API free of lifetime bounds (tasks may
/// borrow locals) and means an idle pool costs nothing.
///
/// # Example
///
/// ```
/// use ranger_runtime::ThreadPool;
///
/// let data = vec![1u64, 2, 3, 4, 5];
/// let pool = ThreadPool::new(4);
/// // Tasks borrow `data` from the caller's stack and results come back in task order.
/// let squares = pool.run(data.iter().map(|&v| move |_: &mut ()| v * v));
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// assert_eq!(data.len(), 5); // the pool joined before returning; `data` is still live
/// ```
#[derive(Debug, Clone)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// Creates a pool of `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero — a pool with no workers can never complete a task
    /// (callers wanting "serial" should pass 1, which runs tasks inline without spawning).
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a thread pool needs at least one worker");
        ThreadPool { workers }
    }

    /// The number of worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every task and returns their results in task order.
    ///
    /// Tasks receive a `&mut ()` scratch argument so the same closure shape works with
    /// [`ThreadPool::run_with`]; use that method when workers need real scratch state.
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is propagated to the caller once all workers have
    /// stopped (remaining queued tasks may or may not have run).
    pub fn run<T, F, I>(&self, tasks: I) -> Vec<T>
    where
        T: Send,
        F: FnOnce(&mut ()) -> T + Send,
        I: IntoIterator<Item = F>,
    {
        self.run_with(|_| (), tasks)
    }

    /// Runs every task, giving each worker one scratch value built by `init(worker_index)`,
    /// and returns the results in task order.
    ///
    /// `init` runs on the worker's own thread, once per worker that actually starts (a
    /// pool wider than the task list skips the surplus workers' scratch). The scratch
    /// value never crosses threads, so it needs no `Send` bound — this is where a
    /// campaign worker keeps its own buffer arena.
    ///
    /// Tasks are distributed round-robin across the workers' queues; a worker that
    /// drains its own queue steals from the back of the most loaded peer's queue, so
    /// completion order is arbitrary — but the returned `Vec` is always in task order.
    ///
    /// # Panics
    ///
    /// Propagates the first observed task (or `init`) panic to the caller after all
    /// workers have stopped.
    pub fn run_with<S, T, F, I, N>(&self, init: N, tasks: I) -> Vec<T>
    where
        T: Send,
        F: FnOnce(&mut S) -> T + Send,
        I: IntoIterator<Item = F>,
        N: Fn(usize) -> S + Sync,
    {
        let tasks: Vec<F> = tasks.into_iter().collect();
        let mut slots: Vec<Option<T>> = (0..tasks.len()).map(|_| None).collect();
        self.run_with_consumer(init, tasks, |index, result| slots[index] = Some(result));
        slots
            .into_iter()
            .map(|slot| slot.expect("the pool delivers every task's result"))
            .collect()
    }

    /// Runs every task like [`ThreadPool::run_with`], but delivers each `(index, result)`
    /// pair to `consume` **as it completes**, on the calling thread, instead of
    /// collecting results into a `Vec`.
    ///
    /// This is the streaming entry point the campaign service drives: workers push
    /// completed chunk tallies through a channel while the caller — which owns the
    /// checkpoint file and the client event stream — consumes them incrementally, so a
    /// million-trial campaign reports progress long before it finishes. Completion order
    /// is arbitrary (that's the point of stealing); consumers wanting ordered emission
    /// reorder on `index`.
    ///
    /// With one worker, tasks run inline and `consume` is called after each task in task
    /// order — same semantics, no threads. `consume` is `FnMut` on the caller's thread,
    /// so it may freely mutate caller state (append to a file, update a tally) without
    /// locks. The pool still joins all workers before returning.
    ///
    /// # Panics
    ///
    /// Propagates the first observed task (or `init`) panic after all workers have
    /// stopped. If `consume` panics, remaining results are dropped and the panic
    /// surfaces once the workers retire.
    pub fn run_with_consumer<S, T, F, I, N, C>(&self, init: N, tasks: I, mut consume: C)
    where
        T: Send,
        F: FnOnce(&mut S) -> T + Send,
        I: IntoIterator<Item = F>,
        N: Fn(usize) -> S + Sync,
        C: FnMut(usize, T),
    {
        let tasks: Vec<F> = tasks.into_iter().collect();
        let task_count = tasks.len();
        if task_count == 0 {
            return;
        }
        if self.workers == 1 {
            // Inline fast path: no threads, strictly task-ordered delivery.
            let mut stats = WorkerStats::new();
            stats.tasks = task_count as u64;
            let mut scratch = init(0);
            for (index, task) in tasks.into_iter().enumerate() {
                consume(index, task(&mut scratch));
            }
            stats.flush(0);
            return;
        }

        let workers = self.workers.min(task_count);
        observe_run(workers);
        let queues: Vec<Mutex<VecDeque<(usize, F)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (index, task) in tasks.into_iter().enumerate() {
            queues[index % workers]
                .lock()
                .expect("queue lock poisoned during distribution")
                .push_back((index, task));
        }

        let (sender, receiver) = std::sync::mpsc::channel::<(usize, T)>();
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let queues = &queues;
                let init = &init;
                let sender = sender.clone();
                scope.spawn(move || {
                    let mut scratch = init(worker);
                    let mut stats = WorkerStats::new();
                    while let Some((index, task)) = next_task(queues, worker, &mut stats) {
                        // A send only fails when the consumer was dropped early (a
                        // panicking `consume`); finishing the remaining tasks silently
                        // is then the most useful behavior — the panic is already on
                        // its way to the caller.
                        let _ = sender.send((index, task(&mut scratch)));
                    }
                    stats.flush(worker);
                });
            }
            // Drop the caller's clone so the receiver disconnects once all workers
            // retire; until then, deliver results as they arrive.
            drop(sender);
            for (index, result) in receiver {
                consume(index, result);
            }
            // `scope` joins every worker here and re-raises the first panic, if any.
        });
    }
}

/// Worker-local observability tallies, flushed to the global registry once at worker
/// retirement.
///
/// The enable flag is sampled when the worker starts, so the task loop costs nothing
/// when metrics are off and never takes a registry lock either way. Flushing adds the
/// tallies to `pool.worker.<i>.{tasks,steals,park_nanos}` counters — cumulative across
/// pool runs, keyed by the worker's slot in its run.
struct WorkerStats {
    enabled: bool,
    /// Tasks this worker executed (own-queue pops plus steals).
    tasks: u64,
    /// Tasks obtained from a peer's queue.
    steals: u64,
    /// Nanoseconds spent off the own-queue fast path: steal scans plus the final
    /// empty scan before retirement. These workers retire rather than sleep, so this
    /// is the whole of their non-working time.
    park_nanos: u64,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            enabled: ranger_obs::enabled(),
            tasks: 0,
            steals: 0,
            park_nanos: 0,
        }
    }

    fn flush(&self, worker: usize) {
        if !self.enabled {
            return;
        }
        let registry = ranger_obs::registry();
        registry
            .counter(&format!("pool.worker.{worker}.tasks"))
            .add(self.tasks);
        registry
            .counter(&format!("pool.worker.{worker}.steals"))
            .add(self.steals);
        registry
            .counter(&format!("pool.worker.{worker}.park_nanos"))
            .add(self.park_nanos);
    }
}

/// Records the width of a parallel pool run in the `pool.workers` gauge.
fn observe_run(workers: usize) {
    if ranger_obs::enabled() {
        ranger_obs::registry()
            .gauge("pool.workers")
            .set(workers as i64);
    }
}

/// Pops the next task for `worker`: the front of its own queue, else the back entry of
/// the most loaded peer (steal-from-richest keeps the remaining work spread out; owners
/// take the front, thieves the back, so they contend on a queue's ends only when it is
/// nearly empty). No new tasks are ever injected after distribution, so the worker can
/// retire once a full scan observes every queue empty; a victim drained between the
/// scan and the steal just triggers a re-scan.
///
/// Tallies every pop into `stats`; time spent past the own-queue fast path counts as
/// park time. Pure observation — scheduling decisions never read the tallies.
fn next_task<F>(
    queues: &[Mutex<VecDeque<(usize, F)>>],
    worker: usize,
    stats: &mut WorkerStats,
) -> Option<(usize, F)> {
    if let Some(task) = queues[worker]
        .lock()
        .expect("queue lock poisoned by a panicking worker")
        .pop_front()
    {
        stats.tasks += 1;
        return Some(task);
    }
    let idle_start = if stats.enabled {
        Some(Instant::now())
    } else {
        None
    };
    let stolen = loop {
        // Steal: scan peers for the longest queue. Each retry only happens after an
        // observed-non-empty queue turned empty, and queues never refill, so the loop
        // terminates.
        let Some((victim, observed)) = queues
            .iter()
            .enumerate()
            .filter(|&(peer, _)| peer != worker)
            .map(|(peer, queue)| (peer, queue.lock().map(|q| q.len()).unwrap_or(0)))
            .max_by_key(|&(_, len)| len)
        else {
            break None;
        };
        if observed == 0 {
            break None;
        }
        if let Some(task) = queues[victim]
            .lock()
            .expect("queue lock poisoned by a panicking worker")
            .pop_back()
        {
            break Some(task);
        }
    };
    if let Some(start) = idle_start {
        stats.park_nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    if stolen.is_some() {
        stats.tasks += 1;
        stats.steals += 1;
    }
    stolen
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        let pool = ThreadPool::new(4);
        let results = pool.run((0..100usize).map(|i| {
            move |_: &mut ()| {
                // Stagger completion so late tasks finish before early ones.
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
                i * 3
            }
        }));
        assert_eq!(results, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_can_borrow_the_callers_stack() {
        let data: Vec<u64> = (0..64).collect();
        let pool = ThreadPool::new(3);
        let doubled = pool.run(data.iter().map(|&v| move |_: &mut ()| v * 2));
        assert_eq!(doubled.len(), data.len());
        assert!(doubled.iter().zip(&data).all(|(d, &v)| *d == v * 2));
        // `data` is still usable: the pool joined before returning.
        assert_eq!(data.len(), 64);
    }

    #[test]
    fn worker_scratch_is_initialized_once_per_worker_and_reused() {
        let inits = AtomicUsize::new(0);
        let pool = ThreadPool::new(4);
        let counts = pool.run_with(
            |_worker| {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize // per-worker task counter
            },
            (0..200).map(|_| {
                |scratch: &mut usize| {
                    *scratch += 1;
                    *scratch
                }
            }),
        );
        // Scratch is reused across a worker's tasks: some task must have seen a counter
        // above 200 / workers if reuse works at all; with fresh scratch per task every
        // result would be 1.
        assert!(counts.iter().any(|&c| c > 1), "scratch was not reused");
        let inits = inits.load(Ordering::SeqCst);
        assert!(
            (1..=4).contains(&inits),
            "expected one init per started worker, saw {inits}"
        );
    }

    #[test]
    fn a_panicking_task_propagates_to_the_caller() {
        let pool = ThreadPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..16).map(|i| {
                move |_: &mut ()| {
                    if i == 7 {
                        panic!("task 7 exploded");
                    }
                    i
                }
            }))
        }));
        assert!(outcome.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn single_worker_pool_runs_inline_and_in_order() {
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        let results = pool.run((0..10usize).map(|i| {
            let order = &order;
            move |_: &mut ()| {
                order.lock().unwrap().push(i);
                i
            }
        }));
        assert_eq!(results, (0..10).collect::<Vec<_>>());
        // Inline execution is strictly sequential.
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let pool = ThreadPool::new(8);
        let results: Vec<u32> = pool.run(Vec::<fn(&mut ()) -> u32>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn more_workers_than_tasks_still_completes() {
        let pool = ThreadPool::new(8);
        assert_eq!(
            pool.run((0..3usize).map(|i| move |_: &mut ()| i)),
            vec![0, 1, 2]
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        ThreadPool::new(0);
    }

    #[test]
    fn consumer_receives_every_result_exactly_once() {
        let pool = ThreadPool::new(4);
        let mut seen = [false; 100];
        pool.run_with_consumer(
            |_| (),
            (0..100usize).map(|i| move |_: &mut ()| i * 3),
            |index, result| {
                assert_eq!(result, index * 3);
                assert!(!seen[index], "result {index} delivered twice");
                seen[index] = true;
            },
        );
        assert!(seen.iter().all(|&s| s), "some results never arrived");
    }

    #[test]
    fn consumer_runs_on_the_calling_thread_and_may_mutate_caller_state() {
        let caller = std::thread::current().id();
        let pool = ThreadPool::new(3);
        let mut total = 0u64;
        pool.run_with_consumer(
            |_| (),
            (1..=50u64).map(|i| move |_: &mut ()| i),
            |_, value| {
                assert_eq!(std::thread::current().id(), caller);
                total += value; // no lock: `consume` is exclusive to the caller
            },
        );
        assert_eq!(total, 50 * 51 / 2);
    }

    #[test]
    fn consumer_observes_results_before_all_tasks_finish() {
        // One task blocks until the consumer has seen another task's result — only
        // possible if delivery is incremental, not join-then-deliver.
        use std::sync::atomic::AtomicBool;
        let unblocked = AtomicBool::new(false);
        let pool = ThreadPool::new(2);
        let mut order = Vec::new();
        pool.run_with_consumer(
            |_| (),
            vec![
                Box::new(|_: &mut ()| {
                    while !unblocked.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    0usize
                }) as Box<dyn FnOnce(&mut ()) -> usize + Send>,
                Box::new(|_: &mut ()| 1usize),
            ],
            |index, _| {
                if index == 1 {
                    unblocked.store(true, Ordering::SeqCst);
                }
                order.push(index);
            },
        );
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], 1, "the blocked task's result cannot arrive first");
    }

    #[test]
    fn single_worker_consumer_is_inline_and_task_ordered() {
        let pool = ThreadPool::new(1);
        let mut order = Vec::new();
        pool.run_with_consumer(
            |_| (),
            (0..10usize).map(|i| move |_: &mut ()| i),
            |index, result| {
                assert_eq!(index, result);
                order.push(index);
            },
        );
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn consumer_with_empty_task_list_is_a_no_op() {
        let pool = ThreadPool::new(4);
        pool.run_with_consumer(
            |_| (),
            Vec::<fn(&mut ()) -> u32>::new(),
            |_, _| panic!("no results expected"),
        );
    }

    /// One test (not several) because it toggles the process-global enable flag;
    /// delta-based and `>=` assertions throughout because the counters are shared.
    #[test]
    fn workers_flush_task_steal_and_park_tallies_when_metrics_are_enabled() {
        let registry = ranger_obs::registry();
        let was_enabled = ranger_obs::enabled();

        // While disabled (the default), pool runs leave no counters behind.
        if !was_enabled {
            let before = registry.counter("pool.worker.0.tasks").value();
            ThreadPool::new(2).run((0..8usize).map(|i| move |_: &mut ()| i));
            assert_eq!(registry.counter("pool.worker.0.tasks").value(), before);
        }

        let tasks_before: u64 = (0..4)
            .map(|w| registry.counter(&format!("pool.worker.{w}.tasks")).value())
            .sum();
        ranger_obs::set_enabled(true);

        // Uneven task durations force at least some cross-queue traffic in practice,
        // but only the task total is deterministic — steals/park are observed, not
        // asserted beyond existence.
        let pool = ThreadPool::new(4);
        let results = pool.run((0..97usize).map(|i| {
            move |_: &mut ()| {
                if i % 5 == 0 {
                    std::thread::yield_now();
                }
                i
            }
        }));
        assert_eq!(results.len(), 97);

        let tasks_after: u64 = (0..4)
            .map(|w| registry.counter(&format!("pool.worker.{w}.tasks")).value())
            .sum();
        assert!(
            tasks_after - tasks_before >= 97,
            "expected ≥97 new tasks recorded, saw {}",
            tasks_after - tasks_before
        );
        // The steal/park counters exist for every worker slot that ran.
        let snapshot = registry.snapshot();
        assert!(snapshot.counter("pool.worker.0.steals").is_some());
        assert!(snapshot.counter("pool.worker.0.park_nanos").is_some());
        assert_eq!(snapshot.gauge("pool.workers"), Some(4));

        // The single-worker inline path tallies into slot 0, too.
        let inline_before = registry.counter("pool.worker.0.tasks").value();
        ThreadPool::new(1).run((0..13usize).map(|i| move |_: &mut ()| i));
        assert!(registry.counter("pool.worker.0.tasks").value() - inline_before >= 13);

        ranger_obs::set_enabled(was_enabled);
    }

    #[test]
    fn a_panicking_task_still_reaches_the_consumer_caller() {
        let pool = ThreadPool::new(2);
        let delivered = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run_with_consumer(
                |_| (),
                (0..16).map(|i| {
                    move |_: &mut ()| {
                        if i == 7 {
                            panic!("task 7 exploded");
                        }
                        i
                    }
                }),
                |_, _| {
                    delivered.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        assert!(outcome.is_err(), "worker panic must reach the caller");
        assert!(delivered.load(Ordering::SeqCst) <= 15);
    }
}
