//! The workspace's one scoped work pool.
//!
//! Every dynamic fan-out — catalog functions, sweep units, construction
//! row chunks, encoder texts, sharded merge groups — is an index space
//! `0..n` whose items cost unevenly. [`map_indexed`] runs it on scoped
//! `std::thread` workers that claim indexes from one atomic cursor and
//! returns the results in index order, so the output never depends on
//! the thread count or on completion order.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `f(&mut scratch, i)` for every `i in 0..n`, in index order.
///
/// Up to `threads.clamp(1, n)` scoped workers claim indexes from one
/// atomic cursor, each with its own scratch built once by `init`. With
/// one worker the loop runs inline on the caller. A panic in a worker is
/// re-raised in the caller.
///
/// ```
/// let squares = er_core::par::map_indexed(5, 3, || (), |_, i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn map_indexed<S, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // Workers are not joined one by one: `scope` returns once every
    // worker's closure has returned, while a join also waits for the OS
    // thread to exit. That wait slowed the sharded build, which fans out
    // once per shard, by about 10% on a 2-vCPU host. So a worker's panic
    // is caught in the worker and re-raised below instead.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut scratch = init();
                    loop {
                        // Relaxed: the cursor only hands out indexes;
                        // results reach the caller through the mutex.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t = f(&mut scratch, i);
                        slots.lock().expect("no worker panics holding the lock")[i] = Some(t);
                    }
                }));
                if let Err(payload) = run {
                    panicked
                        .lock()
                        .expect("no worker panics holding the lock")
                        .get_or_insert(payload);
                }
            });
        }
    });
    if let Some(payload) = panicked
        .into_inner()
        .expect("no worker panics holding the lock")
    {
        resume_unwind(payload);
    }
    slots
        .into_inner()
        .expect("no worker panics holding the lock")
        .into_iter()
        .map(|t| t.expect("every index computed"))
        .collect()
}

/// The length of one work chunk when `n` items are split over `threads`
/// workers: about 8 chunks per worker, so one slow chunk cannot idle the
/// rest of the pool. Never 0.
///
/// ```
/// assert_eq!(er_core::par::chunk_len(100, 4), 4);
/// ```
pub fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * 8).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_index_order() {
        for n in [0, 1, 7, 100] {
            for threads in [0, 1, 2, 3, 8, 200] {
                let got = map_indexed(n, threads, || (), |_, i| i * 3);
                let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
                assert_eq!(got, want, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        for threads in [1, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let init = || inits.fetch_add(1, Ordering::Relaxed);
            let got = map_indexed(50, threads, init, |_, i| i);
            assert_eq!(got, (0..50).collect::<Vec<_>>());
            assert!(inits.into_inner() <= threads, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn worker_panic_reaches_the_caller() {
        map_indexed(
            20,
            4,
            || (),
            |_, i| {
                if i == 5 {
                    panic!("item 5 failed");
                }
                i
            },
        );
    }

    #[test]
    fn chunk_len_targets_eight_chunks_per_worker() {
        // 100 items over 4 workers → ceil(100/32) = 4 per chunk.
        assert_eq!(chunk_len(100, 4), 4);
        // Tiny inputs never produce zero-sized chunks.
        assert_eq!(chunk_len(1, 8), 1);
        assert_eq!(chunk_len(0, 4), 1);
    }
}
