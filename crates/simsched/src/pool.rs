//! Scoped worker pool with deterministic result ordering.
//!
//! [`run_pipelined`] runs one consumer per item of an iterator on up to
//! `threads` OS threads. The calling thread drives the iterator and
//! publishes each item the moment it exists; workers claim indices from
//! a shared atomic cursor (so a slow job never stalls the queue behind
//! it), start consumer `i` as soon as item `i` is published, and keep
//! each result with its index, so the returned `Vec` is identical for
//! any thread count, including 1. Panics are propagated to the caller
//! after the scope joins, as with plain `std::thread::scope`.
//!
//! [`run_jobs`] is the case whose jobs are all known up front.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

type Panic = Box<dyn std::any::Any + Send>;

/// Runs `jobs` on up to `threads` scoped threads and returns their
/// results in job order.
///
/// `threads` below 1 counts as 1. The closure type is boxed-free: any
/// `FnOnce` returning `T` works.
///
/// # Panics
///
/// If any job panics, the panic is re-raised on the calling thread after
/// all workers have stopped claiming new jobs.
pub fn run_jobs<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    // Spawned threads only, never the calling thread: jobs run there
    // allocate from glibc's main malloc arena, which kept the quick
    // sweep's peak RSS 14% higher (DESIGN.md §7).
    std::thread::scope(|scope| {
        scope
            .spawn(|| run_pipelined(threads, jobs.into_iter(), |_, job| job()))
            .join()
            .unwrap_or_else(|e| resume_unwind(e))
    })
}

struct Pipe<I> {
    state: Mutex<PipeState<I>>,
    ready: Condvar,
}

struct PipeState<I> {
    slots: Vec<Option<I>>,
    published: usize,
    /// Set when no further item will be published (the iterator ended
    /// or panicked) or a consumer panicked.
    closed: bool,
}

impl<I> Pipe<I> {
    /// Publishes the next item and wakes the consumer waiting for it.
    /// Returns false once the pipeline is closed, so the producer can
    /// stop early.
    fn publish(&self, item: I) -> bool {
        let mut st = self.state.lock().expect("pipeline state poisoned");
        let i = st.published;
        st.slots[i] = Some(item);
        st.published += 1;
        let open = !st.closed;
        drop(st);
        self.ready.notify_all();
        open
    }

    /// Blocks until item `i` is published and takes it, or returns
    /// `None` once the pipeline closed without it.
    fn take(&self, i: usize) -> Option<I> {
        let mut st = self.state.lock().expect("pipeline state poisoned");
        while st.published <= i && !st.closed {
            st = self.ready.wait(st).expect("pipeline state poisoned");
        }
        st.slots[i].take()
    }

    fn close(&self) {
        self.state.lock().expect("pipeline state poisoned").closed = true;
        self.ready.notify_all();
    }
}

/// Drives `items` on the calling thread and runs `consume(i, item)` for
/// each item on up to `threads` threads in all, returning the
/// consumers' results in index order.
///
/// Up to `threads − 1` scoped workers claim indices in order and start
/// consumer `i` the moment the iterator yields item `i`; once the
/// iterator ends, the calling thread joins them as a worker. With
/// `threads <= 1` no thread is spawned: the whole iterator runs, then
/// every consumer in index order. Each consumer owns its item, so it can
/// drop it as soon as it is done with it.
///
/// # Panics
///
/// A panic in the iterator or in any consumer is re-raised on the
/// calling thread after every worker has stopped; no worker is left
/// waiting for an item that will never come, and after a consumer
/// panic the iterator is not advanced further.
pub fn run_pipelined<I, T>(
    threads: usize,
    items: impl ExactSizeIterator<Item = I>,
    consume: impl Fn(usize, I) -> T + Sync,
) -> Vec<T>
where
    I: Send,
    T: Send,
{
    let n = items.len();
    let pipe = Pipe {
        state: Mutex::new(PipeState {
            slots: (0..n).map(|_| None).collect(),
            published: 0,
            closed: false,
        }),
        ready: Condvar::new(),
    };
    let cursor = AtomicUsize::new(0);
    // One consumer loop for workers and the joining caller alike: claim
    // the next index, wait for its item, run it. Results travel back per
    // thread with their index, so completion order cannot permute them.
    let work = || -> Result<Vec<(usize, T)>, Panic> {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return Ok(done);
            }
            let Some(item) = pipe.take(i) else { return Ok(done) };
            match catch_unwind(AssertUnwindSafe(|| consume(i, item))) {
                Ok(v) => done.push((i, v)),
                Err(e) => {
                    // Stop claiming further work, stop the producer, and
                    // surface the panic to the caller.
                    cursor.store(n, Ordering::Relaxed);
                    pipe.close();
                    return Err(e);
                }
            }
        }
    };

    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut panic: Option<Panic> = None;
    let mut keep = |out: Result<Vec<(usize, T)>, Panic>| match out {
        Ok(done) => done.into_iter().for_each(|(i, v)| results[i] = Some(v)),
        Err(e) => {
            panic.get_or_insert(e);
        }
    };
    std::thread::scope(|scope| {
        // The caller takes the last item itself, so never spawn a worker
        // that could only wait for it.
        let workers = threads.saturating_sub(1).min(n.saturating_sub(1));
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        let produced = catch_unwind(AssertUnwindSafe(|| {
            for item in items.take(n) {
                if !pipe.publish(item) {
                    break;
                }
            }
        }));
        pipe.close();
        match produced {
            Ok(()) => keep(work()),
            Err(e) => {
                cursor.store(n, Ordering::Relaxed);
                keep(Err(e));
            }
        }
        for h in handles {
            keep(h.join().expect("worker thread itself panicked"));
        }
    });

    if let Some(e) = panic {
        resume_unwind(e);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("consumer finished without a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = run_jobs(4, Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn results_keep_job_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let jobs: Vec<_> = (0u64..40)
                .map(|i| {
                    move || {
                        // Skew run times so completion order differs from
                        // submission order under real parallelism.
                        if i % 7 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        i * 3
                    }
                })
                .collect();
            let out = run_jobs(threads, jobs);
            assert_eq!(out, (0u64..40).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn flattened_chunk_results_stitch_in_job_order() {
        // The interval-parallel sampling stitch depends on exactly this:
        // each job returns a chunk of consecutive indices, and
        // flattening the job-ordered results reproduces the full
        // sequence for any thread count, even when completion order is
        // scrambled by uneven chunk run times.
        let bounds: [(u64, u64); 5] = [(0, 3), (3, 4), (4, 9), (9, 16), (16, 17)];
        for threads in [1usize, 2, 8] {
            let jobs: Vec<_> = bounds
                .iter()
                .map(|&(lo, hi)| {
                    move || {
                        if lo % 2 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        (lo..hi).collect::<Vec<u64>>()
                    }
                })
                .collect();
            let out: Vec<u64> = run_jobs(threads, jobs).into_iter().flatten().collect();
            assert_eq!(out, (0u64..17).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let jobs: Vec<_> = (0..100).map(|_| || count.fetch_add(1, Ordering::SeqCst)).collect();
        let _ = run_jobs(8, jobs);
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn more_threads_than_jobs_is_clamped() {
        let out = run_jobs(1000, vec![|| 1u8, || 2u8]);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn zero_threads_still_executes() {
        let out = run_jobs(0, vec![|| 41, || 42]);
        assert_eq!(out, vec![41, 42]);
    }

    #[test]
    fn job_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_jobs(2, vec![Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>, Box::new(|| panic!("boom"))]);
        });
        assert!(r.is_err());
    }

    /// Runs `f` on its own thread and fails the test if it does not
    /// finish within a generous bound, so a hung pipeline shows up as a
    /// failure instead of a stuck test run. Returns whether `f` panicked.
    fn panics_within_deadline(what: &str, f: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(AssertUnwindSafe(f));
            let _ = tx.send(r.is_err());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{what}: pipeline hung"))
    }

    #[test]
    fn pipelined_results_keep_index_order() {
        for threads in [1, 2, 3, 8] {
            for n in [0usize, 1, 2, 5, 20] {
                let items = (0..n).map(|i| {
                    if i % 3 == 1 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    i as u64 * 10
                });
                let out = run_pipelined(threads, items, |i, item| {
                    // Skew run times so completion order differs from
                    // index order under real parallelism.
                    if i % 2 == 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    (i, item + 1)
                });
                let want: Vec<_> = (0..n).map(|i| (i, i as u64 * 10 + 1)).collect();
                assert_eq!(out, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn one_thread_produces_everything_then_consumes_in_order() {
        for threads in [0, 1] {
            let log = Mutex::new(Vec::new());
            let items = (0..3).inspect(|i| log.lock().unwrap().push(format!("p{i}")));
            let out = run_pipelined(threads, items, |i, item| {
                log.lock().unwrap().push(format!("c{i}"));
                item
            });
            assert_eq!(out, vec![0, 1, 2]);
            assert_eq!(*log.lock().unwrap(), ["p0", "p1", "p2", "c0", "c1", "c2"]);
        }
    }

    #[test]
    fn consumers_start_while_the_producer_still_runs() {
        // The producer holds item 1 back until consumer 0 reports it is
        // done; that can only happen if consumer 0 ran on a worker while
        // the producer was still running.
        for threads in [2, 3, 8] {
            let (tx, rx) = mpsc::sync_channel(4);
            let items = (0..2u32).inspect(|&i| {
                if i == 1 {
                    let first = rx.recv_timeout(Duration::from_secs(30));
                    assert_eq!(first, Ok(0), "threads={threads}: consumer 0 did not overlap");
                }
            });
            let out = run_pipelined(threads, items, |i, item| {
                tx.send(i).unwrap();
                item * 2
            });
            assert_eq!(out, vec![0, 2]);
        }
    }

    #[test]
    fn producer_panics_propagate_without_hanging_waiters() {
        for threads in [1, 2, 3, 8] {
            for before in [0u32, 1, 3] {
                let what = format!("threads={threads} panic after {before} items");
                let panicked = panics_within_deadline(&what, move || {
                    let items = (0..6u32).inspect(|&i| assert!(i < before, "producer fails"));
                    run_pipelined(threads, items, |_, item| item);
                });
                assert!(panicked, "{what}: the panic must reach the caller");
            }
        }
    }

    #[test]
    fn consumer_panics_propagate_without_hanging_waiters() {
        const N: usize = 100;
        for threads in [1, 2, 3, 8] {
            let what = format!("threads={threads} consumer 1 fails");
            let produced = std::sync::Arc::new(AtomicU64::new(0));
            let failed = std::sync::Arc::new(AtomicBool::new(false));
            let (p, f) = (produced.clone(), failed.clone());
            let panicked = panics_within_deadline(&what, move || {
                let items = (0..N).inspect(|&i| {
                    // Past item 1, wait for consumer 1 to fail, then run
                    // slowly enough that the failure is seen long before
                    // the last item.
                    if i >= 2 && threads >= 2 {
                        while !f.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    p.fetch_add(1, Ordering::SeqCst);
                });
                run_pipelined(threads, items, |i, item| {
                    if i == 1 {
                        f.store(true, Ordering::SeqCst);
                        panic!("consumer fails");
                    }
                    item
                });
            });
            assert!(panicked, "{what}: the panic must reach the caller");
            let produced = produced.load(Ordering::SeqCst) as usize;
            if threads >= 2 {
                // The producer stops at the failure instead of running
                // its remaining items.
                assert!(produced < N, "{what}: the producer ran all {N} items");
            } else {
                // One thread runs the whole producer before any consumer.
                assert_eq!(produced, N, "{what}");
            }
        }
    }
}
