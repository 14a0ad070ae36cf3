//! Stress lane for the [`WorkerPool`] and its one shared claim queue (run
//! under `--release` in CI): hammers the pool with many rounds of skewed,
//! nested and panicking batches and asserts the determinism contract —
//! every item computed exactly once into its own slot, results invariant
//! to worker count and claim order, tokens never leaked — under far more
//! scheduling churn than the unit suite.

use rtm::placement::pool::WorkerPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// A cheap deterministic per-item "computation" with data-dependent cost,
/// so workers finish items at uneven rates and claim in a shifting order.
fn crunch(i: usize) -> u64 {
    let mut h = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
    // More rounds for later indices: a skewed, index-dependent workload.
    for _ in 0..(i % 97) * 50 {
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(23);
    }
    h
}

#[test]
fn hammer_rounds_are_exact_and_worker_count_invariant() {
    let expect: Vec<u64> = (0..513).map(crunch).collect();
    for workers in [1usize, 2, 3, 8] {
        let pool = WorkerPool::new(workers);
        for round in 0..50 {
            let n = [1usize, 7, 64, 513][round % 4];
            let mut items: Vec<u64> = vec![0; n];
            pool.run(&mut items, || (), |_, i, slot| *slot = crunch(i));
            assert_eq!(items, expect[..n], "round {round} at {workers} workers");
            assert_eq!(pool.active(), 0, "tokens leaked at round {round}");
        }
    }
}

#[test]
fn extreme_skew_is_rebalanced_by_the_claim_queue() {
    let pool = WorkerPool::new(4);
    // All the heavy items sit in the last quarter of the batch; whichever
    // workers are free claim them one at a time, so the batch finishes in
    // bounded time without any result being perturbed.
    let mut items: Vec<(usize, u64)> = (0..256).map(|i| (i, 0)).collect();
    pool.run(
        &mut items,
        || (),
        |_, _, (i, out)| {
            let spin = if *i >= 192 { 20_000 } else { 10 };
            let mut h = *i as u64 + 1;
            for _ in 0..spin {
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            *out = h;
        },
    );
    // Recompute serially and compare (the closure is a pure function of i).
    for (i, out) in &items {
        let spin = if *i >= 192 { 20_000 } else { 10 };
        let mut h = *i as u64 + 1;
        for _ in 0..spin {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        assert_eq!(*out, h, "item {i} corrupted under skew");
    }
    assert_eq!(pool.active(), 0);
}

#[test]
fn nested_batches_stay_within_the_token_budget() {
    let pool = WorkerPool::new(3);
    let peak = AtomicUsize::new(0);
    for _ in 0..20 {
        let mut outer: Vec<usize> = (0..6).collect();
        pool.run(
            &mut outer,
            || (),
            |_, _, item| {
                let mut inner: Vec<u64> = vec![0; 16];
                pool.run(
                    &mut inner,
                    || (),
                    |_, i, slot| {
                        peak.fetch_max(pool.active(), Ordering::Relaxed);
                        *slot = crunch(i);
                    },
                );
                *item = inner.iter().map(|&v| (v % 7) as usize).sum();
            },
        );
        assert_eq!(pool.active(), 0);
    }
    // `active` counts extra tokens only (caller excluded), so a 3-worker
    // pool must never lend more than 2 at once, nesting included.
    assert!(peak.load(Ordering::Relaxed) <= 2, "pool oversubscribed");
}

#[test]
fn concurrent_callers_share_one_pool_without_interference() {
    let pool = WorkerPool::new(4);
    let gate = Barrier::new(3);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|caller| {
                let pool = &pool;
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    for _ in 0..30 {
                        let mut items: Vec<u64> = vec![0; 128];
                        pool.run(&mut items, || (), |_, i, slot| *slot = crunch(i + caller));
                        for (i, &v) in items.iter().enumerate() {
                            assert_eq!(v, crunch(i + caller), "caller {caller} item {i}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert_eq!(pool.active(), 0, "concurrent callers leaked tokens");
}

#[test]
fn panic_storms_never_wedge_or_leak() {
    let pool = WorkerPool::new(4);
    for round in 0..25 {
        let panic_at = (round * 13) % 32;
        let mut items: Vec<usize> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                &mut items,
                || (),
                |_, i, _| {
                    if i == panic_at {
                        panic!("storm {round}");
                    }
                    let _ = crunch(i);
                },
            );
        }));
        assert!(result.is_err(), "round {round}: panic swallowed");
        assert_eq!(pool.active(), 0, "round {round}: tokens leaked");
        // The pool must stay fully usable between panicking batches.
        let mut ok: Vec<u64> = vec![0; 16];
        pool.run(&mut ok, || (), |_, i, slot| *slot = crunch(i));
        assert!(ok.iter().enumerate().all(|(i, &v)| v == crunch(i)));
    }
}

#[test]
fn concurrent_panic_storms_poison_nothing_durably() {
    // Unlike the single-panic rounds above, every fourth item panics here,
    // so several workers unwind *concurrently* while their peers keep
    // claiming from the same queue — more than token cleanup is exercised.
    // After each storm both plain and cancellable submissions must
    // complete exactly.
    let pool = WorkerPool::new(4);
    for round in 0..10 {
        let mut items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                &mut items,
                || (),
                |_, i, _| {
                    if i % 4 == round % 4 {
                        panic!("concurrent storm {round}");
                    }
                    let _ = crunch(i);
                },
            );
        }));
        assert!(result.is_err(), "round {round}: panic swallowed");
        assert_eq!(pool.active(), 0, "round {round}: tokens leaked");

        // Post-panic submissions complete bit-exactly on the same pool.
        let mut ok: Vec<u64> = vec![0; 48];
        pool.run(&mut ok, || (), |_, i, slot| *slot = crunch(i));
        assert!(ok.iter().enumerate().all(|(i, &v)| v == crunch(i)));
        let mut ok: Vec<u64> = vec![0; 48];
        pool.run_with_cancel(&mut ok, None, || (), |_, i, slot| *slot = crunch(i));
        assert!(ok.iter().enumerate().all(|(i, &v)| v == crunch(i)));
    }
}

#[test]
fn per_worker_contexts_are_isolated() {
    let pool = WorkerPool::new(4);
    // Each worker accumulates into its own context; the per-item results
    // must still be exact regardless of which context computed them.
    let mut items: Vec<u64> = vec![0; 300];
    pool.run(&mut items, Vec::<u64>::new, |scratch, i, slot| {
        scratch.push(i as u64);
        // Contexts are per-worker scratch: their length varies with the
        // claim order, but results may only depend on the item.
        assert!(!scratch.is_empty());
        *slot = crunch(i);
    });
    assert!(items.iter().enumerate().all(|(i, &v)| v == crunch(i)));
}

/// Cache poison storm (`--features faults`): the engine's memo and
/// subsequence cache locks are repeatedly poisoned — between batches and
/// concurrently with them — and each acquisition must recover its cache
/// via `clear_poison` without changing a single result bit.
#[cfg(feature = "faults")]
mod cache_poison_storm {
    use rtm::placement::eval::{EvalJob, FitnessEngine};
    use rtm::{AccessSequence, CostModel, VarId};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A deterministic synthetic trace (no RNG: the storm must be exactly
    /// reproducible).
    fn trace() -> AccessSequence {
        let mut text = String::new();
        for i in 0..800usize {
            let v = (i * 11 + (i / 9) * 5) % 23;
            text.push_str(&format!("v{v} "));
        }
        AccessSequence::parse(&text).unwrap()
    }

    /// Round-robin base placement plus deterministic reorder variants.
    fn variants(seq: &AccessSequence, dbcs: usize) -> Vec<Vec<Vec<VarId>>> {
        let mut base: Vec<Vec<VarId>> = vec![Vec::new(); dbcs];
        for (i, v) in seq.liveness().by_first_occurrence().into_iter().enumerate() {
            base[i % dbcs].push(v);
        }
        (0..8)
            .map(|r| {
                let mut lists = base.clone();
                for list in &mut lists {
                    let n = list.len().max(1);
                    list.rotate_left(r % n);
                }
                lists
            })
            .collect()
    }

    #[test]
    fn poison_storms_recover_both_caches_without_changing_results() {
        let seq = trace();
        let cost = CostModel::single_port();
        let dbcs = 4;
        let variants = variants(&seq, dbcs);

        // Golden totals from a serial, never-poisoned engine.
        let clean = FitnessEngine::new(&seq, cost).with_threads(1);
        let mut jobs: Vec<EvalJob> = variants.iter().map(|v| EvalJob::fresh(v.clone())).collect();
        clean.evaluate_batch(&mut jobs);
        let want: Vec<u64> = jobs.iter().map(EvalJob::total).collect();
        let want_direct = clean.per_dbc_costs(&variants[0]);

        let engine = FitnessEngine::new(&seq, cost).with_threads(4);

        // Phase 1: storm between batches — both caches poisoned, then the
        // batch path (overlay + try-lock recovery) and the direct path
        // (blocking lock recovery) must both come back bit-identical.
        for round in 0..20 {
            engine.poison_caches();
            let mut jobs: Vec<EvalJob> =
                variants.iter().map(|v| EvalJob::fresh(v.clone())).collect();
            engine.evaluate_batch(&mut jobs);
            let got: Vec<u64> = jobs.iter().map(EvalJob::total).collect();
            assert_eq!(got, want, "batch diverged after storm round {round}");
            assert_eq!(
                engine.per_dbc_costs(&variants[0]),
                want_direct,
                "direct path diverged after storm round {round}"
            );
        }

        // Phase 2: storm *concurrent* with the batches — a poisoner thread
        // hammers both cache locks while the pool evaluates; recovery then
        // happens mid-flight.
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    engine.poison_caches();
                    std::thread::yield_now();
                }
            });
            for round in 0..20 {
                let mut jobs: Vec<EvalJob> =
                    variants.iter().map(|v| EvalJob::fresh(v.clone())).collect();
                engine.evaluate_batch(&mut jobs);
                let got: Vec<u64> = jobs.iter().map(EvalJob::total).collect();
                assert_eq!(got, want, "batch diverged under live storm round {round}");
            }
            stop.store(true, Ordering::Relaxed);
        });

        // The storm must leave nothing durably broken: a final quiet pass
        // over both paths still matches the golden outputs.
        assert_eq!(engine.per_dbc_costs(&variants[0]), want_direct);
        let mut jobs: Vec<EvalJob> = variants.iter().map(|v| EvalJob::fresh(v.clone())).collect();
        engine.evaluate_batch(&mut jobs);
        let got: Vec<u64> = jobs.iter().map(EvalJob::total).collect();
        assert_eq!(got, want);
    }
}
