//! Stress lane for the [`WorkerPool`] and its one shared claim queue (run
//! under `--release` in CI): hammers the pool with many rounds of skewed,
//! nested and panicking batches and asserts the determinism contract —
//! every item computed exactly once into its own slot, results invariant
//! to worker count and claim order, tokens never leaked — under far more
//! scheduling churn than the unit suite.

use rtm::placement::pool::WorkerPool;
use rtm::placement::CancelToken;
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
            pool.run(&mut items, None, |i, slot| *slot = crunch(i));
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
    pool.run(&mut items, None, |_, (i, out)| {
        let spin = if *i >= 192 { 20_000 } else { 10 };
        let mut h = *i as u64 + 1;
        for _ in 0..spin {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        *out = h;
    });
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
        pool.run(&mut outer, None, |_, item| {
            let mut inner: Vec<u64> = vec![0; 16];
            pool.run(&mut inner, None, |i, slot| {
                peak.fetch_max(pool.active(), Ordering::Relaxed);
                *slot = crunch(i);
            });
            *item = inner.iter().map(|&v| (v % 7) as usize).sum();
        });
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
                        pool.run(&mut items, None, |i, slot| *slot = crunch(i + caller));
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
            pool.run(&mut items, None, |i, _| {
                if i == panic_at {
                    panic!("storm {round}");
                }
                let _ = crunch(i);
            });
        }));
        assert!(result.is_err(), "round {round}: panic swallowed");
        assert_eq!(pool.active(), 0, "round {round}: tokens leaked");
        // The pool must stay fully usable between panicking batches.
        let mut ok: Vec<u64> = vec![0; 16];
        pool.run(&mut ok, None, |i, slot| *slot = crunch(i));
        assert!(ok.iter().enumerate().all(|(i, &v)| v == crunch(i)));
    }
}

#[test]
fn concurrent_panic_storms_poison_nothing_durably() {
    // Unlike the single-panic rounds above, every fourth item panics here,
    // so several workers unwind *concurrently* while their peers keep
    // claiming from the same queue — more than token cleanup is exercised.
    // After each storm both plain submissions and submissions carrying a
    // live cancel token must complete exactly.
    let pool = WorkerPool::new(4);
    for round in 0..10 {
        let mut items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut items, None, |i, _| {
                if i % 4 == round % 4 {
                    panic!("concurrent storm {round}");
                }
                let _ = crunch(i);
            });
        }));
        assert!(result.is_err(), "round {round}: panic swallowed");
        assert_eq!(pool.active(), 0, "round {round}: tokens leaked");

        // Post-panic submissions complete bit-exactly on the same pool.
        let mut ok: Vec<u64> = vec![0; 48];
        pool.run(&mut ok, None, |i, slot| *slot = crunch(i));
        assert!(ok.iter().enumerate().all(|(i, &v)| v == crunch(i)));
        let token = CancelToken::new();
        let mut ok: Vec<u64> = vec![0; 48];
        pool.run(&mut ok, Some(&token), |i, slot| *slot = crunch(i));
        assert!(ok.iter().enumerate().all(|(i, &v)| v == crunch(i)));
    }
}

/// Cache poison storm (`--features faults`): the engine's memo lock is
/// repeatedly poisoned — between batches and concurrently with them — and
/// each acquisition must recover the memo via `clear_poison` without
/// changing a single result bit.
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

    /// Each variant three times as a derived job with two of its four
    /// DBCs dirty. A job whose DBCs are all dirty is replayed whole and
    /// never touches the memo; these go through the per-DBC merge behind
    /// it, where repeated lists hit.
    fn jobs(variants: &[Vec<Vec<VarId>>], costs: &[Vec<u64>]) -> Vec<EvalJob> {
        (0..3)
            .flat_map(|_| variants.iter().zip(costs).enumerate())
            .map(|(r, (lists, costs))| {
                let mut job = EvalJob::derived(lists.clone(), costs.clone());
                for d in [r % lists.len(), (r + 1) % lists.len()] {
                    // Stale until the batch recomputes it.
                    job.dbc_costs[d] = 0;
                    job.dirty.mark(d);
                }
                job
            })
            .collect()
    }

    fn totals(engine: &FitnessEngine, mut jobs: Vec<EvalJob>) -> Vec<u64> {
        engine.evaluate_batch(&mut jobs);
        jobs.iter().map(EvalJob::total).collect()
    }

    /// The direct path: one blocking-lock merge per DBC of a placement.
    fn direct(engine: &FitnessEngine, lists: &[Vec<VarId>]) -> Vec<u64> {
        lists.iter().map(|l| engine.dbc_cost(l)).collect()
    }

    #[test]
    fn poison_storms_recover_the_memo_without_changing_results() {
        let seq = trace();
        let cost = CostModel::single_port();
        let dbcs = 4;
        let variants = variants(&seq, dbcs);

        // Golden totals from a serial, never-poisoned engine.
        let clean = FitnessEngine::new(&seq, cost).with_threads(1);
        let costs: Vec<Vec<u64>> = variants.iter().map(|v| clean.per_dbc_costs(v)).collect();
        let want = totals(&clean, jobs(&variants, &costs));
        let want_direct = direct(&clean, &variants[0]);

        let engine = FitnessEngine::new(&seq, cost).with_threads(4);

        // Phase 1: storm between batches — the memo poisoned, then the
        // batch path and the direct path must both recover its lock and
        // come back bit-identical.
        for round in 0..20 {
            engine.poison_caches();
            let got = totals(&engine, jobs(&variants, &costs));
            assert_eq!(got, want, "batch diverged after storm round {round}");
            assert_eq!(
                direct(&engine, &variants[0]),
                want_direct,
                "direct path diverged after storm round {round}"
            );
        }
        // Every job merged its two dirty DBCs, and the memo answered
        // again after its poisoned lock was recovered.
        let phase1 = engine.stats();
        assert_eq!(phase1.dbc_inherited, 20 * 24 * 2, "{phase1:?}");
        assert!(
            phase1.dbc_cache_hits > 0,
            "the storm never reached the memo: {phase1:?}"
        );

        // Phase 2: storm *concurrent* with the batches — a poisoner thread
        // hammers the memo lock while the batches evaluate; recovery then
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
                let got = totals(&engine, jobs(&variants, &costs));
                assert_eq!(got, want, "batch diverged under live storm round {round}");
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Every job kept its two clean DBCs and merged its two dirty ones.
        let phase2 = engine.stats().since(&phase1);
        assert_eq!(phase2.dbc_inherited, 20 * 24 * 2, "{phase2:?}");

        // The storm must leave nothing durably broken: a final quiet pass
        // over both paths still matches the golden outputs.
        assert_eq!(direct(&engine, &variants[0]), want_direct);
        assert_eq!(totals(&engine, jobs(&variants, &costs)), want);
    }
}
