//! The in-tree worker pool — the single execution substrate for every
//! parallel fan-out in the crate.
//!
//! [`FitnessEngine`](crate::FitnessEngine) batch evaluation, GA generation
//! evaluation and [`Portfolio`](crate::Portfolio) lane racing all run their
//! work items through one [`WorkerPool`], instead of each spawning their
//! own ad-hoc [`std::thread::scope`] threads. The pool solves two problems
//! those ad-hoc spawns had:
//!
//! * **Oversubscription.** A portfolio race used to spawn one thread per
//!   lane *and* each lane's GA spawned per-batch evaluation threads on
//!   top. The pool holds one shared token budget ([`WorkerPool::new`]'s
//!   worker limit): a nested fan-out only gets extra OS threads while
//!   tokens remain, and degrades to inline execution on the caller's
//!   thread otherwise — so the whole stack never runs more than `limit`
//!   worker threads at once.
//! * **Skew.** Static contiguous chunking stalls on uneven items (one
//!   expensive DBC list, one slow lane). The pool keeps a single claim
//!   queue — one mutex over the batch's `(index, &mut item)` iterator —
//!   and every worker, the caller included, claims the next item whenever
//!   it finishes one, so tail latency tracks the single heaviest item.
//!
//! # Determinism
//!
//! The queue changes *which thread* computes an item, never *what* is
//! computed: every item is claimed exactly once (the iterator hands out
//! disjoint `&mut` slots), each item's result is written only to its own
//! slot, and the work closure is required to be a pure function of the
//! item (shared caches may change *when* a value is computed, never what —
//! see `DESIGN.md` §7). Results are therefore bit-identical for any worker
//! count and any claim order, which is what lets the engine equivalence
//! and portfolio thread-invariance suites pin exact outputs at 1/2/8
//! workers.
//!
//! # Shutdown and panics
//!
//! [`WorkerPool::run`] is fully synchronous: it returns only after every
//! spawned worker has been joined (deterministic shutdown — no detached
//! threads, no work outliving the call). If any worker panics, the
//! remaining items are still drained by the surviving workers, the pool's
//! tokens are released, and the panic is then propagated to the caller.
//!
//! The claim lock is held only for one `next()` on a slice iterator,
//! which cannot panic; should the mutex ever be poisoned anyway, every
//! claim recovers the iterator as-is with [`PoisonError::into_inner`],
//! because each pending slot stays valid whether or not a claim completed
//! (`DESIGN.md` §9).
//!
//! [`WorkerPool::run_with_cancel`] additionally polls a
//! [`CancelToken`](crate::CancelToken) before claiming each item: on
//! cancellation — an explicit `cancel()` or the token's deadline passing —
//! the workers stop claiming, finish only their in-flight items, and
//! return, leaving the unclaimed slots untouched. This is how a portfolio
//! race enforces `deadline + grace`.

use crate::cancel::CancelToken;
use std::iter::Enumerate;
use std::panic::resume_unwind;
use std::slice::IterMut;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, TryLockError};

/// A worker pool with one shared claim queue per batch, bounded by a
/// shared worker-token budget.
///
/// The pool owns no threads while idle: [`run`](Self::run) spawns scoped
/// workers for the duration of one batch and joins them before returning,
/// with the token budget shared across *nested* `run` calls (an inner
/// fan-out inside a running item sees only the tokens the outer one left).
#[derive(Debug)]
pub struct WorkerPool {
    limit: usize,
    /// Extra worker tokens currently lent out across (possibly nested)
    /// `run` calls. The caller's own thread is never counted.
    active: AtomicUsize,
    /// Claims that found the batch's queue lock already held.
    contended: AtomicU64,
}

impl WorkerPool {
    /// Creates a pool with the given worker limit (`0` = auto-detect from
    /// [`std::thread::available_parallelism`]).
    pub fn new(limit: usize) -> Self {
        let limit = if limit > 0 {
            limit
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        };
        Self {
            limit,
            active: AtomicUsize::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// The pool's worker limit (total concurrent threads, caller included).
    pub fn workers(&self) -> usize {
        self.limit
    }

    /// Extra worker tokens currently lent out (0 when the pool is idle).
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Always 0: every worker claims from the batch's one shared queue, so
    /// no item is ever taken from another worker. Kept so that telemetry
    /// written against the earlier work-stealing pool (the `e2ebench`
    /// `pool.steals` metric) still reads a well-defined value.
    pub fn steals(&self) -> u64 {
        0
    }

    /// Cumulative claims that found the batch's queue lock already held
    /// (telemetry: `e2ebench` reports it as `pool.contended` to bound the
    /// hand-off cost on the parallel path).
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Runs `work(ctx, index, item)` once for every item, fanning out over
    /// at most [`workers`](Self::workers) threads (caller included) that
    /// all claim from one queue in index order.
    ///
    /// `init` builds one per-worker context (scratch buffers); each worker
    /// calls it exactly once. When no tokens are free — nested call, or a
    /// 1-worker pool — the batch runs inline on the caller's thread, which
    /// is then the only worker.
    pub fn run<T, C, I, F>(&self, items: &mut [T], init: I, work: F)
    where
        T: Send,
        I: Fn() -> C + Sync,
        F: Fn(&mut C, usize, &mut T) + Sync,
    {
        self.run_with_cancel(items, None, init, work);
    }

    /// [`run`](Self::run) with a cooperative cancellation hook: when
    /// `cancel` fires, workers stop *claiming* new items (in-flight items
    /// still finish — nothing is interrupted mid-computation) and the call
    /// returns with the unclaimed slots untouched. The caller is
    /// responsible for knowing which slots were filled (e.g. the
    /// portfolio's lane slots start as `None`).
    pub fn run_with_cancel<T, C, I, F>(
        &self,
        items: &mut [T],
        cancel: Option<&CancelToken>,
        init: I,
        work: F,
    ) where
        T: Send,
        I: Fn() -> C + Sync,
        F: Fn(&mut C, usize, &mut T) + Sync,
    {
        if items.is_empty() {
            return;
        }
        let extra = self.reserve(items.len() - 1);
        let queue = Mutex::new(items.iter_mut().enumerate());
        let worker = || self.drain(&queue, cancel, &init, &work);
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..extra.count).map(|_| scope.spawn(worker)).collect();
            // The caller drains as one more worker; if it panics, the
            // scope still joins the spawned workers before unwinding.
            worker();
            for handle in spawned {
                if let Err(panic) = handle.join() {
                    resume_unwind(panic);
                }
            }
        });
    }

    /// One worker: claim the next item and run it until the queue is empty
    /// or cancellation fires. Polling before every claim means a cancelled
    /// batch stops growing its in-flight set immediately.
    fn drain<T, C, I, F>(
        &self,
        queue: &Mutex<Enumerate<IterMut<'_, T>>>,
        cancel: Option<&CancelToken>,
        init: &I,
        work: &F,
    ) where
        I: Fn() -> C,
        F: Fn(&mut C, usize, &mut T),
    {
        let mut ctx = init();
        while !cancel.is_some_and(CancelToken::is_cancelled) {
            let claim = match queue.try_lock() {
                Ok(mut q) => q.next(),
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner().next(),
                Err(TryLockError::WouldBlock) => {
                    self.contended.fetch_add(1, Ordering::Relaxed);
                    queue.lock().unwrap_or_else(PoisonError::into_inner).next()
                }
            };
            let Some((i, item)) = claim else { return };
            work(&mut ctx, i, item);
        }
    }

    /// Best-effort reservation of up to `want` extra worker tokens.
    fn reserve(&self, want: usize) -> Tokens<'_> {
        let want = want.min(self.limit.saturating_sub(1));
        let mut got = 0;
        if want > 0 {
            let _ = self
                .active
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |active| {
                    got = (self.limit - 1).saturating_sub(active).min(want);
                    (got > 0).then_some(active + got)
                });
        }
        Tokens {
            pool: self,
            count: got,
        }
    }
}

/// Reserved worker tokens; released on drop (also on the panic path, so a
/// panicking batch never leaks pool capacity).
struct Tokens<'a> {
    pool: &'a WorkerPool,
    count: usize,
}

impl Drop for Tokens<'_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.pool.active.fetch_sub(self.count, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Condvar;
    use std::time::Duration;

    #[test]
    fn every_item_runs_exactly_once_in_order_slots() {
        let pool = WorkerPool::new(4);
        for n in [0usize, 1, 3, 64, 257] {
            let mut items: Vec<u64> = vec![0; n];
            pool.run(&mut items, || (), |_, i, slot| *slot = (i as u64) * 3 + 1);
            assert!(items
                .iter()
                .enumerate()
                .all(|(i, &v)| v == (i as u64) * 3 + 1));
        }
    }

    #[test]
    fn one_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let mut items = vec![None; 16];
        pool.run(
            &mut items,
            || (),
            |_, _, slot| *slot = Some(std::thread::current().id()),
        );
        assert!(items.iter().all(|t| *t == Some(caller)));
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn per_worker_context_is_built_once_per_worker() {
        let pool = WorkerPool::new(3);
        let builds = AtomicUsize::new(0);
        let mut items = vec![0u8; 100];
        pool.run(
            &mut items,
            || builds.fetch_add(1, Ordering::Relaxed),
            |_, _, slot| *slot = 1,
        );
        let built = builds.load(Ordering::Relaxed);
        assert!((1..=3).contains(&built), "contexts built: {built}");
    }

    #[test]
    fn a_blocked_worker_leaves_the_rest_to_the_other() {
        let pool = WorkerPool::new(2);
        let n = 16;
        let completed = (Mutex::new(0usize), Condvar::new());
        let mut items = vec![false; n];
        pool.run(
            &mut items,
            || (),
            |_, i, ran| {
                let (count, changed) = &completed;
                if i == 0 {
                    // Item 0 finishes only after every other item has, so
                    // the batch completes only if the other worker claims
                    // all of them. The timeout fails the test instead of
                    // hanging it; it never decides a passing run.
                    let done = count.lock().unwrap();
                    let (done, wait) = changed
                        .wait_timeout_while(done, Duration::from_secs(60), |done| *done < n - 1)
                        .unwrap();
                    drop(done);
                    assert!(!wait.timed_out(), "items stranded behind item 0");
                } else {
                    *count.lock().unwrap() += 1;
                    changed.notify_all();
                }
                *ran = true;
            },
        );
        assert!(items.iter().all(|&ran| ran));
        assert_eq!(pool.active(), 0, "tokens returned after the batch");
    }

    #[test]
    fn nested_runs_share_the_token_budget() {
        let pool = WorkerPool::new(2);
        let peak = AtomicUsize::new(0);
        let mut outer = vec![0u8; 4];
        pool.run(
            &mut outer,
            || (),
            |_, _, _| {
                // The outer batch holds the only extra token; the nested
                // batch must run inline rather than oversubscribe.
                let mut inner = vec![0u8; 8];
                pool.run(
                    &mut inner,
                    || (),
                    |_, _, _| {
                        let a = pool.active();
                        peak.fetch_max(a, Ordering::Relaxed);
                    },
                );
            },
        );
        assert!(
            peak.load(Ordering::Relaxed) <= 1,
            "nested fan-out exceeded the pool limit"
        );
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn panics_propagate_and_release_tokens() {
        let pool = WorkerPool::new(4);
        for panic_at in [0usize, 7] {
            // The first and the last item of the batch.
            let mut items: Vec<usize> = (0..8).collect();
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run(
                    &mut items,
                    || (),
                    |_, i, _| {
                        if i == panic_at {
                            panic!("boom {i}");
                        }
                    },
                );
            }));
            assert!(result.is_err(), "panic at {panic_at} was swallowed");
            assert_eq!(pool.active(), 0, "panic at {panic_at} leaked tokens");
        }
        // The pool is fully usable after a panicking batch.
        let mut items = vec![0u64; 32];
        pool.run(&mut items, || (), |_, i, slot| *slot = i as u64);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn auto_detect_resolves_to_at_least_one_worker() {
        assert!(WorkerPool::new(0).workers() >= 1);
    }

    #[test]
    fn pre_cancelled_batches_claim_nothing() {
        let token = CancelToken::new();
        token.cancel();
        for workers in [1usize, 4] {
            let pool = WorkerPool::new(workers);
            let mut items = vec![0u64; 64];
            pool.run_with_cancel(&mut items, Some(&token), || (), |_, _, slot| *slot = 1);
            assert!(items.iter().all(|&v| v == 0), "{workers} workers");
            assert_eq!(pool.active(), 0);
        }
    }

    #[test]
    fn cancellation_mid_batch_stops_claiming_but_finishes_in_flight() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let mut items = vec![0u64; 256];
        let done = AtomicUsize::new(0);
        pool.run_with_cancel(
            &mut items,
            Some(&token),
            || (),
            |_, _, slot| {
                // Cancel from inside the batch after a few items: the
                // in-flight item still completes (slot is written), but
                // the bulk of the batch is never claimed.
                if done.fetch_add(1, Ordering::Relaxed) == 3 {
                    token.cancel();
                }
                *slot = 1;
            },
        );
        let filled = items.iter().filter(|&&v| v == 1).count();
        assert!(filled >= 4, "in-flight items must complete: {filled}");
        assert!(filled < 256, "cancellation ignored: all items ran");
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn run_without_cancel_is_unaffected() {
        // `run` delegates with no token; the full batch always completes.
        let pool = WorkerPool::new(3);
        let mut items = vec![0u64; 100];
        pool.run(&mut items, || (), |_, i, slot| *slot = i as u64 + 1);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }
}
