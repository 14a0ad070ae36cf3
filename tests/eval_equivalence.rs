//! Equivalence and determinism suite for the fitness engine (DESIGN.md §7).
//!
//! The incremental/parallel engine must be a *bit-identical* drop-in for
//! the naive evaluator it replaced:
//!
//! * per-DBC subsequence costing equals `CostModel::per_dbc_costs` on
//!   arbitrary traces, placements and port counts;
//! * the batch replay path (random walk) equals per-placement costing;
//! * the GA produces identical outcomes (best, history, evaluations) under
//!   the naive evaluator, the incremental engine, and any thread count;
//! * golden histories captured from the pre-engine implementation are
//!   reproduced exactly.

use proptest::collection::vec;
use proptest::prelude::*;
use rtm::placement::eval::{EvalJob, FitnessEngine};
use rtm::placement::random_walk::{self, RandomWalkConfig};
use rtm::{AccessSequence, Benchmark, CostModel, GaConfig, GeneticPlacer, Placement, VarTable};
use rtm_trace::{ChunkedSequence, VarId};

const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

/// Strategy: a random trace over up to `max_vars` variables with length in
/// `1..=max_len`.
fn arb_trace(
    max_vars: usize,
    max_len: usize,
) -> impl proptest::strategy::Strategy<Value = AccessSequence> {
    (1..=max_vars).prop_flat_map(move |nvars| {
        vec(0..nvars, 1..=max_len).prop_map(move |accesses| {
            let mut vars = VarTable::new();
            let ids: Vec<_> = (0..nvars).map(|i| vars.intern(&format!("v{i}"))).collect();
            let accesses = accesses.into_iter().map(|i| ids[i]).collect();
            AccessSequence::from_ids(vars, accesses)
        })
    })
}

/// Builds a valid placement from per-variable `(dbc, order key)` pairs:
/// every variable appears exactly once; within a DBC, variables are ordered
/// by key (ties by id).
fn placement_from(dbc_of: &[usize], order: &[u8], nvars: usize, dbcs: usize) -> Vec<Vec<VarId>> {
    let mut lists: Vec<Vec<(u8, usize)>> = vec![Vec::new(); dbcs];
    for i in 0..nvars {
        lists[dbc_of[i] % dbcs].push((order[i], i));
    }
    lists
        .into_iter()
        .map(|mut l| {
            l.sort();
            l.into_iter().map(|(_, i)| VarId::from_index(i)).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Subsequence costing equals the full-trace cost model, per DBC, for
    /// single- and multi-port models.
    #[test]
    fn engine_matches_cost_model(
        seq in arb_trace(20, 120),
        dbcs in 1usize..5,
        dbc_of in vec(0usize..5, 20),
        order in vec(any::<u8>(), 20),
        ports in 1usize..4,
    ) {
        let lists = placement_from(&dbc_of, &order, seq.vars().len(), dbcs);
        let track = lists.iter().map(Vec::len).max().unwrap_or(1).max(ports);
        let cost = if ports == 1 {
            CostModel::single_port()
        } else {
            CostModel::multi_port(ports, track)
        };
        let placement = Placement::from_dbc_lists(lists.clone());
        let expect = cost.per_dbc_costs(&placement, seq.accesses());
        let engine = FitnessEngine::new(&seq, cost);
        prop_assert_eq!(engine.per_dbc_costs(&lists), expect.clone());
        // A second pass answers from the caches — still identical.
        prop_assert_eq!(engine.per_dbc_costs(&lists), expect.clone());
        // The naive reference engine replicates the pre-engine path.
        let naive = FitnessEngine::naive(&seq, cost);
        prop_assert_eq!(naive.per_dbc_costs(&lists), expect);
    }

    /// The allocation-free full replay used for fresh candidates equals
    /// per-placement costing.
    #[test]
    fn batch_replay_matches_shift_cost(
        seq in arb_trace(16, 80),
        dbcs in 1usize..4,
        dbc_of in vec(0usize..4, 16),
        order in vec(any::<u8>(), 16),
    ) {
        let lists = placement_from(&dbc_of, &order, seq.vars().len(), dbcs);
        let mut candidates = vec![lists.clone()];
        // A few rotations for variety.
        for rot in 1..4 {
            let mut c = lists.clone();
            for l in &mut c {
                if !l.is_empty() {
                    let n = l.len();
                    l.rotate_left(rot % n);
                }
            }
            candidates.push(c);
        }
        let cost = CostModel::single_port();
        let engine = FitnessEngine::new(&seq, cost).with_memo(false);
        let costs = engine.batch_costs(&candidates);
        for (lists, got) in candidates.iter().zip(costs) {
            let p = Placement::from_dbc_lists(lists.clone());
            prop_assert_eq!(got, cost.shift_cost(&p, seq.accesses()));
        }
    }

    /// Dirty-mask evaluation (inherit + recompute) equals full evaluation
    /// after an arbitrary single edit.
    #[test]
    fn incremental_jobs_match_full_eval(
        seq in arb_trace(16, 100),
        dbcs in 2usize..5,
        dbc_of in vec(0usize..5, 16),
        order in vec(any::<u8>(), 16),
        edit_dbc in 0usize..5,
        edit_i in 0usize..16,
        edit_j in 0usize..16,
    ) {
        let lists = placement_from(&dbc_of, &order, seq.vars().len(), dbcs);
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let base_costs = engine.per_dbc_costs(&lists);
        let mut job = EvalJob::derived(lists, base_costs);
        let d = edit_dbc % dbcs;
        let n = job.lists[d].len();
        if n >= 2 {
            job.lists[d].swap(edit_i % n, edit_j % n);
            job.dirty.mark(d);
        }
        engine.evaluate_batch(std::slice::from_mut(&mut job));
        let reference = FitnessEngine::naive(&seq, CostModel::single_port());
        prop_assert_eq!(&job.dbc_costs, &reference.per_dbc_costs(&job.lists));
    }

    /// Multi-port lane: arbitrary dirty-mask histories through the
    /// incremental engine — sequential and 4-thread — stay bit-identical
    /// to the naive `CostModel::multi_port` replay at every step.
    #[test]
    fn multi_port_dirty_mask_histories_match_naive_replay(
        seq in arb_trace(16, 100),
        dbcs in 2usize..5,
        dbc_of in vec(0usize..5, 16),
        order in vec(any::<u8>(), 16),
        ports in 2usize..5,
        edit_dbcs in vec(0usize..5, 5),
        edit_is in vec(0usize..16, 5),
        edit_js in vec(0usize..16, 5),
    ) {
        let lists = placement_from(&dbc_of, &order, seq.vars().len(), dbcs);
        let track = lists.iter().map(Vec::len).max().unwrap_or(1).max(ports);
        let cost = CostModel::multi_port(ports, track);
        let seq_engine = FitnessEngine::new(&seq, cost).with_threads(1);
        let par_engine = FitnessEngine::new(&seq, cost).with_threads(4);
        let naive = FitnessEngine::naive(&seq, cost);
        let mut current = lists;
        let mut costs = seq_engine.per_dbc_costs(&current);
        prop_assert_eq!(&costs, &naive.per_dbc_costs(&current));
        prop_assert_eq!(&costs, &par_engine.per_dbc_costs(&current));
        // Replay a mutation history: each step derives a job from the
        // previous per-DBC costs, edits one DBC, and marks only it dirty.
        for ((d, i), j) in edit_dbcs.into_iter().zip(edit_is).zip(edit_js) {
            let d = d % dbcs;
            let n = current[d].len();
            if n < 2 {
                continue;
            }
            let mut job = EvalJob::derived(current.clone(), costs.clone());
            job.lists[d].swap(i % n, j % n);
            job.dirty.mark(d);
            let mut par_job = job.clone();
            seq_engine.evaluate_batch(std::slice::from_mut(&mut job));
            par_engine.evaluate_batch(std::slice::from_mut(&mut par_job));
            prop_assert_eq!(&job.dbc_costs, &naive.per_dbc_costs(&job.lists));
            prop_assert_eq!(&job.dbc_costs, &par_job.dbc_costs);
            current = job.lists;
            costs = job.dbc_costs;
        }
    }

    /// Multi-port batch evaluation is thread-count invariant and equals the
    /// naive replay (fresh jobs, both batch entry points).
    #[test]
    fn multi_port_batches_are_thread_invariant(
        seq in arb_trace(12, 80),
        dbcs in 1usize..4,
        dbc_of in vec(0usize..4, 12),
        order in vec(any::<u8>(), 12),
        ports in 2usize..4,
    ) {
        let lists = placement_from(&dbc_of, &order, seq.vars().len(), dbcs);
        let track = lists.iter().map(Vec::len).max().unwrap_or(1).max(ports);
        let cost = CostModel::multi_port(ports, track);
        let candidates: Vec<Vec<Vec<VarId>>> = (0..8)
            .map(|r| {
                let mut c = lists.clone();
                for l in &mut c {
                    if !l.is_empty() {
                        let n = l.len();
                        l.rotate_left(r % n);
                    }
                }
                c
            })
            .collect();
        let one = FitnessEngine::new(&seq, cost).with_memo(false).with_threads(1);
        let four = FitnessEngine::new(&seq, cost).with_memo(false).with_threads(4);
        let naive = FitnessEngine::naive(&seq, cost);
        let a = one.batch_costs(&candidates);
        let b = four.batch_costs(&candidates);
        prop_assert_eq!(&a, &b);
        for (lists, &got) in candidates.iter().zip(&a) {
            prop_assert_eq!(got, naive.per_dbc_costs(lists).into_iter().sum::<u64>());
        }
        let mut jobs_a: Vec<EvalJob> = candidates.iter().cloned().map(EvalJob::fresh).collect();
        let mut jobs_b = jobs_a.clone();
        one.evaluate_batch(&mut jobs_a);
        four.evaluate_batch(&mut jobs_b);
        let totals_a: Vec<u64> = jobs_a.iter().map(EvalJob::total).collect();
        let totals_b: Vec<u64> = jobs_b.iter().map(EvalJob::total).collect();
        prop_assert_eq!(&totals_a, &a);
        prop_assert_eq!(totals_a, totals_b);
    }

    /// A streaming engine (built over an arbitrary re-chunking of the
    /// trace) is bit-identical to the materialized engine — per-DBC and
    /// batch costs, across port counts 1/2/4 and worker counts 1/2/8.
    #[test]
    fn streaming_engine_matches_materialized_engine(
        seq in arb_trace(16, 100),
        dbcs in 1usize..5,
        dbc_of in vec(0usize..5, 16),
        order in vec(any::<u8>(), 16),
        ports_sel in 0usize..3,
        workers_sel in 0usize..3,
        chunk in 1usize..130,
    ) {
        let ports = [1usize, 2, 4][ports_sel];
        let workers = [1usize, 2, 8][workers_sel];
        let lists = placement_from(&dbc_of, &order, seq.vars().len(), dbcs);
        let track = lists.iter().map(Vec::len).max().unwrap_or(1).max(ports);
        let cost = if ports == 1 {
            CostModel::single_port()
        } else {
            CostModel::multi_port(ports, track)
        };
        let materialized = FitnessEngine::new(&seq, cost).with_threads(workers);
        let chunked = ChunkedSequence::new(&seq, chunk);
        let streaming = FitnessEngine::streaming(&chunked, cost).with_threads(workers);
        prop_assert_eq!(streaming.accessed_vars(), materialized.accessed_vars());
        prop_assert_eq!(streaming.per_dbc_costs(&lists), materialized.per_dbc_costs(&lists));
        // Second pass answers from the streaming memo — still identical.
        prop_assert_eq!(streaming.per_dbc_costs(&lists), materialized.per_dbc_costs(&lists));
        // Batch replay over rotated variants.
        let mut candidates = vec![lists.clone()];
        for rot in 1..4 {
            let mut c = lists.clone();
            for l in &mut c {
                if !l.is_empty() {
                    let n = l.len();
                    l.rotate_left(rot % n);
                }
            }
            candidates.push(c);
        }
        prop_assert_eq!(
            streaming.batch_costs(&candidates),
            materialized.batch_costs(&candidates)
        );
    }

    /// A random walk driven through a streaming engine returns the same
    /// best placement and cost as through the materialized engine.
    #[test]
    fn streaming_random_walk_matches_materialized(
        seq in arb_trace(12, 60),
        seed in any::<u64>(),
        chunk in 1usize..64,
    ) {
        let dbcs = 3;
        let capacity = seq.vars().len().max(2);
        let cfg = RandomWalkConfig { iterations: 200, seed };
        let materialized =
            FitnessEngine::new(&seq, CostModel::single_port()).with_memo(false);
        let a = random_walk::search_with_engine(&materialized, dbcs, capacity, cfg).unwrap();
        let chunked = ChunkedSequence::new(&seq, chunk);
        let streaming =
            FitnessEngine::streaming(&chunked, CostModel::single_port()).with_memo(false);
        let b = random_walk::search_with_engine(&streaming, dbcs, capacity, cfg).unwrap();
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.0, b.0);
    }

    /// The GA (heuristic seeding off — heuristics need the materialized
    /// trace on both sides) is evaluator-source invariant: streamed and
    /// materialized engines produce identical outcomes.
    #[test]
    fn streaming_ga_matches_materialized(
        seq in arb_trace(12, 60),
        seed in any::<u64>(),
        chunk in 1usize..64,
    ) {
        let dbcs = 3;
        let capacity = seq.vars().len().max(2);
        let cfg = GaConfig {
            mu: 8,
            lambda: 8,
            generations: 4,
            seed_with_heuristics: false,
            ..GaConfig::paper()
        }
        .with_seed(seed);
        let placer = GeneticPlacer::new(cfg);
        let materialized = FitnessEngine::new(&seq, CostModel::single_port());
        let a = placer.run_with_engine(&materialized, dbcs, capacity, &[]).unwrap();
        let chunked = ChunkedSequence::new(&seq, chunk);
        let streaming = FitnessEngine::streaming(&chunked, CostModel::single_port());
        let b = placer.run_with_engine(&streaming, dbcs, capacity, &[]).unwrap();
        prop_assert_eq!(&a.history, &b.history);
        prop_assert_eq!(a.best_cost, b.best_cost);
        prop_assert_eq!(&a.best, &b.best);
        prop_assert_eq!(a.evaluations, b.evaluations);
    }

    /// Same seed ⇒ identical GA outcome regardless of evaluator mode or
    /// thread count.
    #[test]
    fn ga_outcome_is_evaluator_invariant(
        seq in arb_trace(12, 60),
        seed in any::<u64>(),
    ) {
        let dbcs = 3;
        let capacity = seq.vars().len().max(2);
        let cfg = GaConfig {
            mu: 8,
            lambda: 8,
            generations: 4,
            ..GaConfig::paper()
        }
        .with_seed(seed);
        let placer = GeneticPlacer::new(cfg);
        let naive = FitnessEngine::naive(&seq, CostModel::single_port());
        let a = placer.run_with_engine(&naive, dbcs, capacity, &[]).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let b = placer.run_with_engine(&engine, dbcs, capacity, &[]).unwrap();
        let par = FitnessEngine::new(&seq, CostModel::single_port()).with_threads(4);
        let c = placer.run_with_engine(&par, dbcs, capacity, &[]).unwrap();
        prop_assert_eq!(&a.history, &b.history);
        prop_assert_eq!(&a.history, &c.history);
        prop_assert_eq!(a.best_cost, b.best_cost);
        prop_assert_eq!(&b.best, &c.best);
        prop_assert_eq!(a.evaluations, c.evaluations);
    }
}

#[test]
fn paper_example_costs_through_engine() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let id = |n: &str| seq.vars().id(n).unwrap();
    let lists = vec![
        ["b", "c", "d", "e", "h"].map(id).to_vec(),
        ["a", "f", "g", "i"].map(id).to_vec(),
    ];
    let engine = FitnessEngine::new(&seq, CostModel::single_port());
    assert_eq!(engine.per_dbc_costs(&lists), vec![4, 7]); // Fig. 3(d)
}

/// Golden histories captured from the pre-engine implementation (seed
/// commit 72a1b36): the engine-backed GA must reproduce them bit for bit.
#[test]
fn ga_reproduces_pre_engine_golden_histories() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let out = GeneticPlacer::new(GaConfig::quick().with_seed(7))
        .run(&seq, 2, 512)
        .unwrap();
    assert_eq!(out.best_cost, 9);
    assert_eq!(out.evaluations, 984);
    assert!(out.history.iter().all(|&c| c == 9));

    let adpcm = Benchmark::by_name("adpcm").unwrap().trace();
    let out = GeneticPlacer::new(GaConfig::quick().with_seed(42))
        .run(&adpcm, 4, 4096)
        .unwrap();
    assert_eq!(out.best_cost, 1485);
    assert_eq!(out.evaluations, 984);
    let golden: Vec<u64> = vec![
        1882, 1882, 1882, 1882, 1882, 1882, 1836, 1836, 1798, 1784, 1784, 1762, 1746, 1713, 1703,
        1703, 1699, 1659, 1644, 1620, 1620, 1600, 1600, 1592, 1586, 1582, 1582, 1582, 1538, 1538,
        1538, 1538, 1534, 1522, 1522, 1501, 1501, 1487, 1485, 1485, 1485,
    ];
    assert_eq!(out.history, golden);

    let cfg = GaConfig {
        seed_with_heuristics: false,
        ..GaConfig::quick().with_seed(11)
    };
    let out = GeneticPlacer::new(cfg).run(&adpcm, 8, 4096).unwrap();
    assert_eq!(out.best_cost, 1070);
    assert_eq!(out.evaluations, 984);
    assert_eq!(out.history[0], 1983);
    assert_eq!(out.history[40], 1070);
}

/// Golden random-walk result from the pre-engine implementation.
#[test]
fn random_walk_reproduces_pre_engine_golden() {
    let adpcm = Benchmark::by_name("adpcm").unwrap().trace();
    let (p, c) = random_walk::search(
        &adpcm,
        4,
        4096,
        CostModel::single_port(),
        RandomWalkConfig::quick().with_seed(3),
    )
    .unwrap();
    assert_eq!(c, 4404);
    assert_eq!(p.dbc_lists()[0].len(), 39);
}

/// The engine-backed search paths agree on the paper's multi-port model
/// with the pre-engine goldens.
#[test]
fn multi_port_search_reproduces_pre_engine_goldens() {
    use rtm::{PlacementProblem, Strategy};
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let ga = PlacementProblem::new(seq.clone(), 2, 16)
        .with_cost_model(CostModel::multi_port(2, 16))
        .solve(&Strategy::Ga(GaConfig::quick().with_seed(5)))
        .unwrap();
    assert_eq!(ga.shifts, 9);
    let rw = PlacementProblem::new(seq, 2, 16)
        .with_cost_model(CostModel::multi_port(2, 16))
        .solve(&Strategy::RandomWalk(
            RandomWalkConfig::quick().with_seed(5),
        ))
        .unwrap();
    assert_eq!(rw.shifts, 11);
}

/// Random-walk results are thread-count invariant.
#[test]
fn random_walk_is_thread_invariant() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let cfg = RandomWalkConfig {
        iterations: 600,
        seed: 9,
    };
    let one = FitnessEngine::new(&seq, CostModel::single_port())
        .with_memo(false)
        .with_threads(1);
    let four = FitnessEngine::new(&seq, CostModel::single_port())
        .with_memo(false)
        .with_threads(4);
    let a = random_walk::search_with_engine(&one, 3, 8, cfg).unwrap();
    let b = random_walk::search_with_engine(&four, 3, 8, cfg).unwrap();
    assert_eq!(a, b);
}

/// GA outcomes are bit-identical at 1, 2 and 8 pool workers, on a 2-port
/// flat problem and a 2-port/2-subarray hierarchical problem (the pool's
/// determinism contract: claim order moves work between threads, never
/// between result slots).
#[test]
fn ga_is_worker_count_invariant_on_multi_port_arrays() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let cfg = GaConfig {
        mu: 10,
        lambda: 10,
        generations: 8,
        ..GaConfig::paper()
    }
    .with_seed(77);
    for (dbcs, ports, subarrays) in [(2usize, 2usize, 1usize), (4, 2, 2)] {
        let track = 16;
        let cost = CostModel::multi_port(ports, track);
        let mut baseline = None;
        for workers in [1usize, 2, 8] {
            let engine = FitnessEngine::new(&seq, cost).with_threads(workers);
            let out = GeneticPlacer::new(cfg)
                .with_cost_model(cost)
                .with_subarrays(subarrays)
                .run_with_engine(&engine, dbcs, track, &[])
                .unwrap();
            let got = (out.best, out.best_cost, out.history, out.evaluations);
            match &baseline {
                None => baseline = Some(got),
                Some(want) => {
                    assert_eq!(
                        want, &got,
                        "GA diverged at {workers} workers ({ports}p/{subarrays}s)"
                    );
                }
            }
        }
    }
}
