//! Property-based tests over the core invariants (see DESIGN.md §6).

use proptest::collection::vec;
use proptest::prelude::*;
use rtm::placement::inter::{Afd, Dma, InterHeuristic};
use rtm::placement::intra::{Chen, IntraHeuristic, Ofu, ShiftsReduce};
use rtm::Strategy as Strat;
use rtm::{
    AccessSequence, CostModel, GaConfig, Placement, PlacementProblem, RandomWalkConfig,
    RtmGeometry, Simulator, VarTable,
};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every heuristic strategy yields a placement that places each accessed
    /// variable exactly once within capacity.
    #[test]
    fn strategies_always_produce_valid_placements(
        seq in arb_trace(24, 120),
        dbcs in 1usize..6,
    ) {
        let capacity = seq.vars().len().div_ceil(dbcs).max(2);
        let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);
        for strategy in [
            Strat::AfdNative,
            Strat::AfdOfu,
            Strat::DmaNative,
            Strat::DmaOfu,
            Strat::DmaChen,
            Strat::DmaSr,
        ] {
            let sol = problem.solve(&strategy).unwrap();
            prop_assert!(sol.placement.validate(&seq, capacity).is_ok(),
                "{} produced an invalid placement", strategy.name());
        }
    }

    /// The analytic cost model and the trace-driven simulator report the
    /// same shift counts for any trace/placement pair.
    #[test]
    fn simulator_equals_cost_model(
        seq in arb_trace(16, 80),
        dbcs in 1usize..5,
    ) {
        let capacity = seq.vars().len().div_ceil(dbcs).max(2);
        let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);
        let sol = problem.solve(&Strat::DmaSr).unwrap();
        let geometry = RtmGeometry::new(dbcs, 32, capacity, 1).unwrap();
        let mut params = rtm::arch::table1::preset(2).unwrap();
        params.dbcs = dbcs;
        let sim = Simulator::new(geometry, params).unwrap();
        let stats = sim.run(&seq, &sol.placement).unwrap();
        prop_assert_eq!(stats.shifts, sol.shifts);
        prop_assert_eq!(stats.per_dbc_shifts, sol.per_dbc_shifts);
    }

    /// The simulator ≡ cost model equivalence also holds on multi-port
    /// geometries, with the placement *searched* under the same multi-port
    /// objective (total and per-DBC shift counts alike).
    #[test]
    fn simulator_equals_cost_model_multi_port(
        seq in arb_trace(16, 80),
        dbcs in 1usize..5,
        two_ports in any::<bool>(),
    ) {
        let ports = if two_ports { 2usize } else { 4 };
        let capacity = seq.vars().len().div_ceil(dbcs).max(2).max(ports);
        let problem = PlacementProblem::new(seq.clone(), dbcs, capacity).with_ports(ports);
        let sol = problem.solve(&Strat::DmaSr).unwrap();
        let geometry = RtmGeometry::new(dbcs, 32, capacity, ports).unwrap();
        let mut params = rtm::arch::table1::preset(2).unwrap();
        params.dbcs = dbcs;
        let sim = Simulator::new(geometry, params).unwrap();
        let stats = sim.run(&seq, &sol.placement).unwrap();
        prop_assert_eq!(stats.shifts, sol.shifts);
        prop_assert_eq!(&stats.per_dbc_shifts, &sol.per_dbc_shifts);
        // The simulator's own model bridge agrees too.
        prop_assert_eq!(
            stats.per_dbc_shifts,
            sim.cost_model().per_dbc_costs(&sol.placement, seq.accesses())
        );
    }

    /// DMA's selected set is pairwise disjoint, and together with the
    /// non-disjoint set forms a partition of the accessed variables.
    #[test]
    fn dma_partition_is_a_disjoint_partition(seq in arb_trace(24, 150)) {
        let live = seq.liveness();
        let part = Dma.partition(&seq);
        for (i, &u) in part.disjoint.iter().enumerate() {
            for &v in &part.disjoint[i + 1..] {
                prop_assert!(live.disjoint(u, v), "{u} and {v} overlap");
            }
        }
        let mut all: Vec<_> = part.disjoint.iter().chain(&part.non_disjoint).copied().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), live.by_first_occurrence().len());
    }

    /// Intra heuristics return permutations of their input variables.
    #[test]
    fn intra_heuristics_are_permutations(seq in arb_trace(16, 100)) {
        let vars = seq.liveness().by_first_occurrence();
        for order in [
            Ofu.order(&vars, seq.accesses()),
            Chen.order(&vars, seq.accesses()),
            ShiftsReduce::new().order(&vars, seq.accesses()),
        ] {
            let mut got = order.clone();
            let mut want = vars.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// Shift cost is invariant under relabeling (permuting whole DBC lists
    /// across DBC indices) for single-port models.
    #[test]
    fn cost_invariant_under_dbc_relabeling(
        seq in arb_trace(12, 80),
        swap in any::<bool>(),
    ) {
        let dist = Afd.distribute(&seq, 2, seq.vars().len().max(2)).unwrap();
        let p1 = Placement::from_dbc_lists(dist.clone());
        let mut rev = dist;
        if swap { rev.reverse(); }
        let p2 = Placement::from_dbc_lists(rev);
        let m = CostModel::single_port();
        prop_assert_eq!(m.shift_cost(&p1, seq.accesses()), m.shift_cost(&p2, seq.accesses()));
    }

    /// More ports never increase the shift cost.
    #[test]
    fn more_ports_never_hurt(seq in arb_trace(12, 60)) {
        let n = seq.vars().len().max(2);
        let dist = Afd.distribute(&seq, 1, n).unwrap();
        let p = Placement::from_dbc_lists(dist);
        let c1 = CostModel::single_port().shift_cost(&p, seq.accesses());
        let c2 = CostModel::multi_port(2.min(n), n).shift_cost(&p, seq.accesses());
        prop_assert!(c2 <= c1, "2 ports {} > 1 port {}", c2, c1);
    }

    /// GA and RW never return something worse than their seeds / best
    /// sample, and always valid placements.
    #[test]
    fn search_strategies_valid_and_bounded(seq in arb_trace(10, 60)) {
        let dbcs = 2;
        let capacity = seq.vars().len().div_ceil(dbcs).max(2);
        let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);
        let mut ga_cfg = GaConfig::quick();
        ga_cfg.mu = 8;
        ga_cfg.lambda = 8;
        ga_cfg.generations = 6;
        let ga = problem.solve(&Strat::Ga(ga_cfg)).unwrap();
        prop_assert!(ga.placement.validate(&seq, capacity).is_ok());
        let dma_sr = problem.solve(&Strat::DmaSr).unwrap();
        prop_assert!(ga.shifts <= dma_sr.shifts);

        let rw = problem.solve(&Strat::RandomWalk(RandomWalkConfig {
            iterations: 50,
            seed: 1,
        })).unwrap();
        prop_assert!(rw.placement.validate(&seq, capacity).is_ok());
    }

    /// `AccessSequence::parse` never panics, for any byte string: it
    /// either produces a sequence or a structured [`ParseTraceError`]
    /// carrying the 1-based line and column of the offending token
    /// (DESIGN.md §9 — library code must not panic on user input).
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        match AccessSequence::parse(&text) {
            Ok(seq) => prop_assert!(!seq.is_empty(), "parse accepted an empty trace"),
            Err(e) => {
                // Position telemetry: a diagnosable token has a line and a
                // column; only the whole-input EmptySequence case has none.
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
                if e.line() > 0 {
                    let mentions_line = msg.contains(&format!("line {}", e.line()));
                    prop_assert!(mentions_line, "no position in: {}", msg);
                } else {
                    prop_assert_eq!(e.column(), 0, "column without a line");
                }
            }
        }
    }

    /// Trace round-trips through its textual format.
    #[test]
    fn trace_text_roundtrip(seq in arb_trace(20, 100)) {
        let text = seq.to_trace_string();
        let back = AccessSequence::parse(&text).unwrap();
        prop_assert_eq!(back.accesses().len(), seq.accesses().len());
        // Same variables in the same positions (names are preserved).
        for (a, b) in seq.accesses().iter().zip(back.accesses()) {
            prop_assert_eq!(seq.vars().name(*a), back.vars().name(*b));
        }
    }
}

/// Deals the accessed variables round-robin into `dbcs` lists of at most
/// `capacity` — the fixed base placement the engine-equivalence tests
/// mutate.
fn deal(seq: &AccessSequence, dbcs: usize, capacity: usize) -> Vec<Vec<rtm::VarId>> {
    let mut lists: Vec<Vec<rtm::VarId>> = vec![Vec::new(); dbcs];
    let mut d = 0usize;
    for v in seq.liveness().by_first_occurrence() {
        while lists[d].len() >= capacity {
            d = (d + 1) % dbcs;
        }
        lists[d].push(v);
        d = (d + 1) % dbcs;
    }
    lists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel ≡ serial bit-equality (DESIGN.md §7): for any trace, the
    /// per-DBC costs and batch totals are identical across worker counts
    /// {1,2,8} × port counts {1,2,4} — both on the cold pass and on the
    /// cache-hitting repeat pass.
    #[test]
    fn engines_are_bit_identical_across_workers_and_ports(
        seq in arb_trace(12, 60),
        dbcs in 1usize..4,
        port_sel in 0usize..3,
    ) {
        use rtm::placement::eval::{EvalJob, FitnessEngine};
        let ports = [1usize, 2, 4][port_sel];
        let capacity = seq.vars().len().div_ceil(dbcs).max(2).max(ports);
        let cost = if ports == 1 {
            CostModel::single_port()
        } else {
            CostModel::multi_port(ports.min(capacity), capacity)
        };

        // Base placement plus a few deterministic mutations of it.
        let base = deal(&seq, dbcs, capacity);
        let mut variants = vec![base.clone()];
        let mut reversed = base.clone();
        for list in &mut reversed {
            list.reverse();
        }
        variants.push(reversed);
        let mut rotated = base.clone();
        rotated.rotate_left(dbcs / 2);
        variants.push(rotated);

        // Serial baseline: direct costs (cold + cached repeat) and batch.
        // A sequence-built engine replays a whole placement (`per_dbc_costs`,
        // fresh jobs) without touching a cache, so the direct path is one
        // `dbc_cost` per DBC, and beside each fresh job the batch holds a
        // derived one that keeps DBC 0 and merges the rest.
        let merged = |engine: &FitnessEngine, v: &[Vec<rtm::VarId>]| -> Vec<u64> {
            v.iter().map(|l| engine.dbc_cost(l)).collect()
        };
        let baseline = FitnessEngine::new(&seq, cost).with_threads(1);
        let want: Vec<Vec<u64>> = variants.iter().map(|v| merged(&baseline, v)).collect();
        let again: Vec<Vec<u64>> = variants.iter().map(|v| merged(&baseline, v)).collect();
        prop_assert_eq!(&want, &again, "baseline cache changed a cost");
        let replayed: Vec<Vec<u64>> = variants.iter().map(|v| baseline.per_dbc_costs(v)).collect();
        prop_assert_eq!(&want, &replayed, "replay diverged from the merges");
        let jobs = || -> Vec<EvalJob> {
            variants
                .iter()
                .zip(&want)
                .flat_map(|(v, w)| {
                    let mut derived = EvalJob::derived(v.clone(), w.clone());
                    for d in 1..v.len() {
                        derived.dbc_costs[d] = 0;
                        derived.dirty.mark(d);
                    }
                    [EvalJob::fresh(v.clone()), derived]
                })
                .collect()
        };
        let mut batch = jobs();
        baseline.evaluate_batch(&mut batch);
        let want_totals: Vec<u64> = batch.iter().map(EvalJob::total).collect();

        for &workers in &[1usize, 2, 8] {
            let engine = FitnessEngine::new(&seq, cost).with_threads(workers);
            let mut batch = jobs();
            engine.evaluate_batch(&mut batch);
            let totals: Vec<u64> = batch.iter().map(EvalJob::total).collect();
            prop_assert_eq!(
                &totals, &want_totals,
                "batch diverged at workers={}", workers
            );
            for (v, w) in variants.iter().zip(&want) {
                // Twice: the second pass reads the now-warm caches.
                prop_assert_eq!(&merged(&engine, v), w);
                prop_assert_eq!(&merged(&engine, v), w);
                prop_assert_eq!(&engine.per_dbc_costs(v), w);
            }
        }
    }
}

/// Nested-search golden (DESIGN.md §7): a seed-fixed GA and a seed-fixed,
/// evals-budgeted portfolio race (which runs a GA lane *inside* concurrent
/// lanes sharing one engine) return bit-identical outcomes at every
/// worker count. The GA's batches cost on the calling thread, so its
/// engine counters are worker-invariant too.
#[test]
fn nested_ga_and_portfolio_goldens_are_worker_invariant() {
    use rtm::placement::search::{Budget, PortfolioConfig};
    // A deterministic synthetic trace with enough structure for the
    // searches to have a non-trivial landscape.
    let mut text = String::new();
    for i in 0..600usize {
        let v = (i * 7 + (i / 13) * 3) % 17;
        text.push_str(&format!("v{v} "));
    }
    let seq = AccessSequence::parse(&text).unwrap();
    let (dbcs, capacity) = (4, seq.vars().len().div_ceil(4).max(2));

    let ga_cfg = GaConfig::quick().with_seed(0xD1CE);
    let race_cfg = PortfolioConfig::new(Budget::evals(600)).with_seed(0xD1CE);

    type Outcome = (u64, Vec<u64>, [u64; 3], u64, Placement);
    let mut golden: Option<Outcome> = None;
    for workers in [1, 2, 8] {
        let problem = PlacementProblem::new(seq.clone(), dbcs, capacity).with_threads(workers);
        let ga = problem.solve(&Strat::Ga(ga_cfg)).unwrap();
        let race = problem.solve(&Strat::Portfolio(race_cfg.clone())).unwrap();
        let s = &ga.engine_stats;
        let outcome = (
            ga.shifts,
            ga.per_dbc_shifts.clone(),
            [s.dbc_recomputations, s.dbc_cache_hits, s.dbc_inherited],
            race.shifts,
            race.placement.clone(),
        );
        match &golden {
            None => golden = Some(outcome),
            Some(g) => assert_eq!(g, &outcome, "nested search diverged at workers={workers}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SA and tabu always emit placements that pass
    /// `Placement::validate_array`, and `Budget::evals(n)` is a hard cap:
    /// the telemetry counter never exceeds `max(n, 1)` — across subarray
    /// and port counts.
    #[test]
    fn sa_tabu_respect_budgets_and_emit_valid_placements(
        seq in arb_trace(14, 70),
        dbcs in 1usize..4,
        subarrays in 1usize..3,
        ports in 1usize..3,
        n in 1u64..250,
    ) {
        use rtm::placement::search::{Budget, SaConfig, TabuConfig};
        let vars = seq.vars().len();
        let capacity = vars.div_ceil(dbcs * subarrays).max(2).max(ports);
        let sub = RtmGeometry::new(dbcs, 32, capacity, ports).unwrap();
        let array = rtm::ArrayGeometry::new(subarrays, sub).unwrap();
        prop_assert!(array.fits(vars), "capacity sized to fit by construction");
        let problem = PlacementProblem::for_array(seq.clone(), &array);
        let budget = Budget::evals(n);
        for strategy in [
            Strat::Sa(SaConfig::new(budget)),
            Strat::Tabu(TabuConfig::new(budget)),
        ] {
            let sol = problem.solve(&strategy).unwrap();
            prop_assert!(
                sol.placement.validate_array(&seq, &array).is_ok(),
                "{} emitted an invalid placement", strategy.name()
            );
            prop_assert!(
                sol.evals_consumed <= n.max(1),
                "{}: {} evals > budget {}", strategy.name(), sol.evals_consumed, n
            );
            prop_assert_eq!(sol.shifts, problem.evaluate(&sol.placement));
        }
    }
}
