//! Differential test lane for the anytime search stack (`DESIGN.md` §8):
//!
//! (a) every SA / tabu / portfolio solution re-evaluates to its reported
//!     cost under the **naive** engine (no incremental-evaluation drift);
//! (b) the portfolio's best never loses to any individual lane run
//!     standalone under the same eval budget and lane seed;
//! (c) results are bit-identical for a fixed seed across `--threads`
//!     1, 2, 8;
//! (d) a degenerate one-lane portfolio ≡ the underlying solver;
//! plus fixed-seed goldens pinning the deterministic trajectories,
//! all including ≥2-subarray and 2-port problems.

use rtm::placement::random_walk;
use rtm::placement::search::Budget;
use rtm::{
    AccessSequence, ArrayGeometry, Benchmark, FitnessEngine, GaConfig, GeneticPlacer, LaneSpec,
    Placement, PlacementProblem, Portfolio, PortfolioConfig, RtmGeometry, SaConfig,
    SimulatedAnnealing, Strategy, TabuConfig, TabuSearch,
};

const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

fn paper_seq() -> AccessSequence {
    AccessSequence::parse(PAPER_SEQ).unwrap()
}

/// An array problem over the paper-faithful 4 KiB subarray.
fn array_problem(
    seq: &AccessSequence,
    dbcs: usize,
    ports: usize,
    subarrays: usize,
) -> PlacementProblem {
    let sub = RtmGeometry::paper_4kib_with_ports(dbcs, ports).unwrap();
    let array = ArrayGeometry::new(subarrays, sub).unwrap();
    assert!(array.fits(seq.vars().len()));
    PlacementProblem::for_array(seq.clone(), &array)
}

/// (a) Reported costs must re-evaluate exactly under the naive engine —
/// the pre-engine replay path — for every search strategy, across port
/// and subarray counts.
#[test]
fn reported_costs_reevaluate_under_the_naive_engine() {
    let seq = Benchmark::by_name("adpcm").unwrap().trace();
    let budget = Budget::evals(400);
    for (ports, subarrays) in [(1usize, 1usize), (2, 1), (4, 1), (1, 2), (2, 2)] {
        let problem = array_problem(&seq, 4, ports, subarrays);
        let naive = FitnessEngine::naive(&seq, problem.cost_model());
        for strategy in [
            Strategy::Sa(SaConfig::new(budget)),
            Strategy::Tabu(TabuConfig::new(budget)),
            Strategy::Portfolio(PortfolioConfig::new(budget)),
        ] {
            let sol = problem.solve(&strategy).unwrap();
            assert_eq!(
                naive.shift_cost(&sol.placement),
                sol.shifts,
                "{strategy} @ {ports}p/{subarrays}s: naive re-evaluation disagrees"
            );
            let sub = RtmGeometry::paper_4kib_with_ports(4, ports).unwrap();
            let array = ArrayGeometry::new(subarrays, sub).unwrap();
            sol.placement.validate_array(&seq, &array).unwrap();
            assert!(sol.evals_consumed > 0, "{strategy}");
        }
    }
}

/// (b) + (d): each lane of a portfolio race is bit-identical to the
/// standalone solver run with the same budget and the lane's derived seed,
/// and the portfolio's best is exactly the lane minimum.
#[test]
fn portfolio_lanes_match_standalone_solvers_bit_for_bit() {
    let dct = Benchmark::by_name("dct").unwrap().trace();
    let paper = paper_seq();
    // A 2-port flat problem and a 2-subarray hierarchical problem.
    let problems = [array_problem(&dct, 4, 2, 1), array_problem(&paper, 2, 1, 2)];
    for problem in &problems {
        let budget = Budget::evals(600);
        let cfg = PortfolioConfig::new(budget).with_seed(41);
        let seeds = problem.heuristic_seeds();
        let engine = problem.engine();
        let race = Portfolio::new(cfg.clone())
            .with_subarrays(problem.subarrays())
            .run_with_engine(&engine, problem.dbcs(), problem.capacity(), &seeds)
            .unwrap();
        assert_eq!(race.lanes.len(), 4);
        // Standalone re-runs, lane by lane.
        for (lane, outcome) in race.lanes.iter().enumerate() {
            let seed = cfg.lane_seed(lane);
            let solo = match outcome.spec {
                LaneSpec::Sa => SimulatedAnnealing::new(SaConfig::new(budget).with_seed(seed))
                    .with_subarrays(problem.subarrays())
                    .run_with_engine(&engine, problem.dbcs(), problem.capacity(), &seeds)
                    .unwrap(),
                LaneSpec::Tabu => TabuSearch::new(TabuConfig::new(budget).with_seed(seed))
                    .with_subarrays(problem.subarrays())
                    .run_with_engine(&engine, problem.dbcs(), problem.capacity(), &seeds)
                    .unwrap(),
                LaneSpec::Ga => {
                    let out = GeneticPlacer::new(GaConfig::paper().with_seed(seed))
                        .with_subarrays(problem.subarrays())
                        .run_budgeted(
                            &engine,
                            problem.dbcs(),
                            problem.capacity(),
                            &seeds,
                            budget,
                            None,
                        )
                        .unwrap();
                    rtm::SearchOutcome {
                        placement: out.best,
                        cost: out.best_cost,
                        evals: out.evaluations as u64,
                        evals_at_best: out.evals_at_best as u64,
                        time_to_best: out.time_to_best,
                        elapsed: out.elapsed,
                        stop: out.stop,
                    }
                }
                LaneSpec::RandomWalk => random_walk::run_budgeted(
                    &engine,
                    problem.dbcs(),
                    problem.capacity(),
                    seed,
                    budget,
                    None,
                )
                .unwrap(),
            };
            let raced = outcome
                .outcome
                .as_ref()
                .expect("eval-budget lane completed");
            assert_eq!(
                raced.cost, solo.cost,
                "{} lane diverged from the standalone solver",
                outcome.spec
            );
            assert_eq!(raced.placement, solo.placement, "{}", outcome.spec);
            assert_eq!(raced.evals, solo.evals, "{}", outcome.spec);
        }
        // The racing contract: the portfolio's best is the lane minimum.
        let min = race
            .lanes
            .iter()
            .filter_map(|l| l.outcome.as_ref().map(|o| o.cost))
            .min()
            .unwrap();
        assert_eq!(race.best().cost, min);
    }
}

/// (c) Bit-identical results for a fixed seed across `--threads 1, 2, 8`
/// (pool worker counts), on 2-port, 2-subarray, and combined
/// 2-port/2-subarray problems, through the full `Strategy::solve` path —
/// every searcher that fans work out over the shared [`WorkerPool`]: GA,
/// random walk, the SA/tabu lanes, and the full portfolio race.
#[test]
fn results_are_bit_identical_across_thread_counts() {
    let dct = Benchmark::by_name("dct").unwrap().trace();
    let paper = paper_seq();
    let budget = Budget::evals(500);
    for (seq, ports, subarrays) in [(&dct, 2usize, 1usize), (&paper, 1, 2), (&paper, 2, 2)] {
        for strategy in [
            Strategy::Sa(SaConfig::new(budget)),
            Strategy::Tabu(TabuConfig::new(budget)),
            Strategy::Ga(GaConfig {
                mu: 8,
                lambda: 8,
                generations: 6,
                ..GaConfig::paper()
            }),
            Strategy::RandomWalk(rtm::RandomWalkConfig {
                iterations: 400,
                seed: 17,
            }),
            Strategy::Portfolio(PortfolioConfig::new(budget).with_seed(13)),
        ] {
            let mut baseline: Option<(Placement, u64, u64)> = None;
            for threads in [1usize, 2, 8] {
                let problem =
                    array_problem(seq, if subarrays > 1 { 2 } else { 4 }, ports, subarrays)
                        .with_threads(threads);
                let sol = problem.solve(&strategy).unwrap();
                let got = (sol.placement, sol.shifts, sol.evals_consumed);
                match &baseline {
                    None => baseline = Some(got),
                    Some(want) => {
                        assert_eq!(want.0, got.0, "{strategy} placement @ {threads} threads");
                        assert_eq!(want.1, got.1, "{strategy} shifts @ {threads} threads");
                        assert_eq!(want.2, got.2, "{strategy} evals @ {threads} threads");
                    }
                }
            }
        }
    }
}

/// Fixed-seed goldens on the paper's running example: the deterministic
/// trajectories (costs and consumed budgets) are pinned exactly. With
/// 512-location DBCs the 2-DBC optimum of this trace is **9** shifts
/// (verified against `exact::solve` — the Fig. 3(d) walkthrough's 11 is
/// not optimal at this capacity), and every searcher reaches it from the
/// heuristic seeds within 1 500 evals.
#[test]
fn fixed_seed_goldens_on_the_paper_trace() {
    let problem = PlacementProblem::new(paper_seq(), 2, 512);
    let budget = Budget::evals(1_500);
    let sa = problem.solve(&Strategy::Sa(SaConfig::new(budget))).unwrap();
    let tabu = problem
        .solve(&Strategy::Tabu(TabuConfig::new(budget)))
        .unwrap();
    let folio = problem
        .solve(&Strategy::Portfolio(PortfolioConfig::new(budget)))
        .unwrap();
    let (_, optimum) =
        rtm::placement::exact::solve(problem.seq(), 2, 512, rtm::CostModel::single_port()).unwrap();
    assert_eq!(optimum, 9);
    assert_eq!((sa.shifts, sa.evals_consumed), (9, 1_500));
    assert_eq!((tabu.shifts, tabu.evals_consumed), (9, 1_500));
    assert_eq!(folio.shifts, 9);
    assert_eq!(folio.evals_consumed, 6_000, "4 lanes x 1500 evals");
    // And they are stable across repeated runs (same process, warm caches).
    let again = problem.solve(&Strategy::Sa(SaConfig::new(budget))).unwrap();
    assert_eq!(again.placement, sa.placement);
}

/// FNV-1a over a placement's DBC lists (one separator after each list),
/// so one number pins the exact layout.
fn placement_digest(p: &Placement) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for list in p.dbc_lists() {
        for v in list.iter().map(|v| v.index() as u64).chain([u64::MAX]) {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One trajectory golden: trace, DBCs, ports, eval budget, run (`sa`,
/// `tabu`, or a lane of the two-lane `folio/…` race), then shifts,
/// placement digest, `evals_at_best`, and the engine's
/// `dbc_recomputations` and `dbc_cache_hits` over the run (the race's
/// totals for both of its lanes).
type TierGolden = (
    &'static str,
    usize,
    usize,
    u64,
    &'static str,
    u64,
    u64,
    u64,
    u64,
    u64,
);

#[rustfmt::skip]
const TIER_GOLDENS: &[TierGolden] = &[
    ("expected-dsp", 4, 1, 200, "sa", 3925, 18306925200884332981, 1, 342, 0),
    ("expected-dsp", 4, 1, 200, "tabu", 3822, 1561587752982805613, 196, 354, 4),
    ("expected-dsp", 4, 1, 200, "folio/sa", 3925, 18306925200884332981, 1, 685, 2),
    ("expected-dsp", 4, 1, 200, "folio/tabu", 3925, 18306925200884332981, 1, 685, 2),
    ("expected-dsp", 4, 1, 2000, "sa", 3856, 9418166929503072861, 1732, 3246, 1),
    ("expected-dsp", 4, 1, 2000, "tabu", 3822, 1561587752982805613, 196, 3407, 11),
    ("expected-dsp", 4, 1, 2000, "folio/sa", 3915, 3941301220952957911, 812, 6655, 9),
    ("expected-dsp", 4, 1, 2000, "folio/tabu", 3925, 18306925200884332981, 1, 6655, 9),
    ("expected-dsp", 4, 2, 200, "sa", 3925, 18306925200884332981, 1, 345, 0),
    ("expected-dsp", 4, 2, 200, "tabu", 3840, 10187853423959964133, 20, 355, 4),
    ("expected-dsp", 4, 2, 200, "folio/sa", 3925, 18306925200884332981, 1, 686, 2),
    ("expected-dsp", 4, 2, 200, "folio/tabu", 3789, 8351645367001667115, 200, 686, 2),
    ("expected-dsp", 4, 2, 2000, "sa", 3785, 7296144609123413077, 1844, 3246, 2),
    ("expected-dsp", 4, 2, 2000, "tabu", 3793, 14917506854625674941, 436, 3422, 12),
    ("expected-dsp", 4, 2, 2000, "folio/sa", 3915, 3941301220952957911, 809, 6660, 11),
    ("expected-dsp", 4, 2, 2000, "folio/tabu", 3763, 1530916580205665117, 260, 6660, 11),
    ("expected-dsp", 8, 1, 200, "sa", 1850, 1619651893498708131, 1, 360, 0),
    ("expected-dsp", 8, 1, 200, "tabu", 1756, 12766916084539387181, 196, 372, 2),
    ("expected-dsp", 8, 1, 200, "folio/sa", 1850, 1619651893498708131, 1, 720, 0),
    ("expected-dsp", 8, 1, 200, "folio/tabu", 1835, 12933700990669493813, 68, 720, 0),
    ("expected-dsp", 8, 1, 2000, "sa", 1836, 3180917237021817035, 1627, 3284, 2),
    ("expected-dsp", 8, 1, 2000, "tabu", 1706, 18238359546881029581, 580, 3419, 25),
    ("expected-dsp", 8, 1, 2000, "folio/sa", 1792, 3892424095081726961, 1724, 6661, 19),
    ("expected-dsp", 8, 1, 2000, "folio/tabu", 1759, 6669313332289202499, 1604, 6661, 19),
    ("expected-dsp", 8, 2, 200, "sa", 1850, 1619651893498708131, 1, 359, 0),
    ("expected-dsp", 8, 2, 200, "tabu", 1799, 11999353511376640009, 132, 374, 2),
    ("expected-dsp", 8, 2, 200, "folio/sa", 1850, 1619651893498708131, 1, 725, 0),
    ("expected-dsp", 8, 2, 200, "folio/tabu", 1818, 17848640896498416905, 132, 725, 0),
    ("expected-dsp", 8, 2, 2000, "sa", 1807, 4775628136588734825, 1646, 3276, 2),
    ("expected-dsp", 8, 2, 2000, "tabu", 1645, 15244074026162757361, 1412, 3419, 27),
    ("expected-dsp", 8, 2, 2000, "folio/sa", 1837, 16389600277698972715, 1722, 6686, 19),
    ("expected-dsp", 8, 2, 2000, "folio/tabu", 1653, 12708722911693539825, 932, 6686, 19),
    ("expected-ctl", 4, 1, 200, "sa", 7001, 16989116825300073689, 1, 356, 0),
    ("expected-ctl", 4, 1, 200, "tabu", 6975, 1692745244863396059, 36, 359, 1),
    ("expected-ctl", 4, 1, 200, "folio/sa", 7001, 16989116825300073689, 1, 696, 0),
    ("expected-ctl", 4, 1, 200, "folio/tabu", 7001, 16989116825300073689, 1, 696, 0),
    ("expected-ctl", 4, 1, 2000, "sa", 7001, 16989116825300073689, 1, 3282, 0),
    ("expected-ctl", 4, 1, 2000, "tabu", 6975, 1692745244863396059, 36, 3426, 3),
    ("expected-ctl", 4, 1, 2000, "folio/sa", 7001, 16989116825300073689, 1, 6661, 5),
    ("expected-ctl", 4, 1, 2000, "folio/tabu", 7001, 16989116825300073689, 1, 6661, 5),
    ("expected-ctl", 4, 2, 200, "sa", 7001, 16989116825300073689, 1, 343, 0),
    ("expected-ctl", 4, 2, 200, "tabu", 6924, 9241730944515712197, 148, 359, 1),
    ("expected-ctl", 4, 2, 200, "folio/sa", 7001, 16989116825300073689, 1, 696, 0),
    ("expected-ctl", 4, 2, 200, "folio/tabu", 7001, 16989116825300073689, 1, 696, 0),
    ("expected-ctl", 4, 2, 2000, "sa", 6975, 12909263767050002631, 1607, 3265, 0),
    ("expected-ctl", 4, 2, 2000, "tabu", 6924, 9241730944515712197, 148, 3425, 2),
    ("expected-ctl", 4, 2, 2000, "folio/sa", 6963, 11469958205381187325, 809, 6704, 5),
    ("expected-ctl", 4, 2, 2000, "folio/tabu", 7001, 16989116825300073689, 1, 6704, 5),
    ("expected-ctl", 8, 1, 200, "sa", 3595, 2025026535896686959, 1, 355, 0),
    ("expected-ctl", 8, 1, 200, "tabu", 3575, 5798799017830456961, 164, 374, 1),
    ("expected-ctl", 8, 1, 200, "folio/sa", 3595, 2025026535896686959, 1, 714, 2),
    ("expected-ctl", 8, 1, 200, "folio/tabu", 3519, 12400768987306694759, 180, 714, 2),
    ("expected-ctl", 8, 1, 2000, "sa", 3595, 2025026535896686959, 1, 3264, 1),
    ("expected-ctl", 8, 1, 2000, "tabu", 3427, 11111334700062956467, 1876, 3430, 6),
    ("expected-ctl", 8, 1, 2000, "folio/sa", 3595, 2025026535896686959, 1, 6704, 17),
    ("expected-ctl", 8, 1, 2000, "folio/tabu", 3263, 12615805124260702195, 1076, 6704, 17),
    ("expected-ctl", 8, 2, 200, "sa", 3595, 2025026535896686959, 1, 355, 0),
    ("expected-ctl", 8, 2, 200, "tabu", 3521, 9285019646938607393, 180, 377, 0),
    ("expected-ctl", 8, 2, 200, "folio/sa", 3595, 2025026535896686959, 1, 713, 0),
    ("expected-ctl", 8, 2, 200, "folio/tabu", 3461, 8305549902904174575, 180, 713, 0),
    ("expected-ctl", 8, 2, 2000, "sa", 3595, 2025026535896686959, 1, 3248, 0),
    ("expected-ctl", 8, 2, 2000, "tabu", 3176, 5353086390454808803, 1796, 3433, 16),
    ("expected-ctl", 8, 2, 2000, "folio/sa", 3595, 2025026535896686959, 1, 6673, 32),
    ("expected-ctl", 8, 2, 2000, "folio/tabu", 3104, 11721245537117040211, 1364, 6673, 32),
];

/// Seed-fixed SA and tabu trajectory goldens on the expected-tier traces,
/// standalone and as portfolio lanes, at 4/8 DBCs, 1/2 ports and budgets
/// of 200/2 000 evals. Each run gets a fresh one-worker engine, so the
/// cache counters are those of the run alone and the race runs its lanes
/// in order. Any drift in a trajectory (a different move, a different
/// acceptance) or in how the engine answers a re-cost (memo hit or
/// recomputation) changes a row.
#[test]
fn sa_and_tabu_trajectory_goldens_on_tier_traces() {
    let mut got: Vec<TierGolden> = Vec::new();
    for trace in ["expected-dsp", "expected-ctl"] {
        let seq = rtm::offsetstone::TierWorkload::by_name(trace, 1.0)
            .unwrap()
            .generate();
        for dbcs in [4usize, 8] {
            for ports in [1usize, 2] {
                let problem = array_problem(&seq, dbcs, ports, 1);
                let seeds = problem.heuristic_seeds();
                let (capacity, cost) = (problem.capacity(), problem.cost_model());
                let fresh = || FitnessEngine::new(&seq, cost).with_threads(1);
                for evals in [200u64, 2_000] {
                    let budget = Budget::evals(evals);
                    let mut row = |run, out: &rtm::SearchOutcome, engine: &FitnessEngine| {
                        let stats = engine.stats();
                        got.push((
                            trace,
                            dbcs,
                            ports,
                            evals,
                            run,
                            out.cost,
                            placement_digest(&out.placement),
                            out.evals_at_best,
                            stats.dbc_recomputations,
                            stats.dbc_cache_hits,
                        ));
                    };
                    let engine = fresh();
                    let sa = SimulatedAnnealing::new(SaConfig::new(budget))
                        .run_with_engine(&engine, dbcs, capacity, &seeds)
                        .unwrap();
                    row("sa", &sa, &engine);
                    let engine = fresh();
                    let tabu = TabuSearch::new(TabuConfig::new(budget))
                        .run_with_engine(&engine, dbcs, capacity, &seeds)
                        .unwrap();
                    row("tabu", &tabu, &engine);
                    let engine = fresh();
                    let race = Portfolio::new(
                        PortfolioConfig::new(budget).with_lanes(vec![LaneSpec::Sa, LaneSpec::Tabu]),
                    )
                    .run_with_engine(&engine, dbcs, capacity, &seeds)
                    .unwrap();
                    for lane in &race.lanes {
                        let run = match lane.spec {
                            LaneSpec::Sa => "folio/sa",
                            _ => "folio/tabu",
                        };
                        row(run, lane.outcome.as_ref().unwrap(), &engine);
                    }
                }
            }
        }
    }
    assert_eq!(got.len(), TIER_GOLDENS.len(), "one golden per run");
    for (g, want) in got.iter().zip(TIER_GOLDENS) {
        assert_eq!(g, want, "trajectory golden drifted");
    }
}

/// GA and random-walk rows in the layout of [`TIER_GOLDENS`]; runs are
/// `ga`, `rw`, and the four lanes of a default portfolio race
/// (`folio4/…`, the race's engine totals on each lane's row).
#[rustfmt::skip]
const FRESH_CANDIDATE_GOLDENS: &[TierGolden] = &[
    ("expected-dsp", 4, 1, 200, "ga", 3925, 18306925200884332981, 100, 760, 0),
    ("expected-dsp", 4, 1, 200, "rw", 25269, 14917617959074612651, 152, 800, 0),
    ("expected-dsp", 4, 1, 200, "folio4/sa", 3925, 18306925200884332981, 1, 2256, 2),
    ("expected-dsp", 4, 1, 200, "folio4/tabu", 3925, 18306925200884332981, 1, 2256, 2),
    ("expected-dsp", 4, 1, 200, "folio4/ga", 3925, 18306925200884332981, 100, 2256, 2),
    ("expected-dsp", 4, 1, 200, "folio4/rw", 25666, 8958935417190201839, 42, 2256, 2),
    ("expected-dsp", 4, 1, 2000, "ga", 3821, 13640832722720243587, 1700, 2797, 312),
    ("expected-dsp", 4, 1, 2000, "rw", 24378, 3117662486889249115, 778, 8000, 0),
    ("expected-dsp", 4, 1, 2000, "folio4/sa", 3915, 3941301220952957911, 812, 17293, 234),
    ("expected-dsp", 4, 1, 2000, "folio4/tabu", 3925, 18306925200884332981, 1, 17293, 234),
    ("expected-dsp", 4, 1, 2000, "folio4/ga", 3803, 5509658167461155505, 1800, 17293, 234),
    ("expected-dsp", 4, 1, 2000, "folio4/rw", 24908, 15668691124740925567, 273, 17293, 234),
    ("expected-dsp", 4, 2, 200, "ga", 3925, 18306925200884332981, 100, 760, 0),
    ("expected-dsp", 4, 2, 200, "rw", 25061, 14917617959074612651, 152, 800, 0),
    ("expected-dsp", 4, 2, 200, "folio4/sa", 3925, 18306925200884332981, 1, 2257, 2),
    ("expected-dsp", 4, 2, 200, "folio4/tabu", 3789, 8351645367001667115, 200, 2257, 2),
    ("expected-dsp", 4, 2, 200, "folio4/ga", 3925, 18306925200884332981, 100, 2257, 2),
    ("expected-dsp", 4, 2, 200, "folio4/rw", 25536, 8958935417190201839, 42, 2257, 2),
    ("expected-dsp", 4, 2, 2000, "ga", 3756, 6211828988214535867, 1800, 2739, 343),
    ("expected-dsp", 4, 2, 2000, "rw", 24346, 3117662486889249115, 778, 8000, 0),
    ("expected-dsp", 4, 2, 2000, "folio4/sa", 3915, 3941301220952957911, 809, 17320, 372),
    ("expected-dsp", 4, 2, 2000, "folio4/tabu", 3763, 1530916580205665117, 260, 17320, 372),
    ("expected-dsp", 4, 2, 2000, "folio4/ga", 3769, 10646016046332653965, 2000, 17320, 372),
    ("expected-dsp", 4, 2, 2000, "folio4/rw", 24880, 4986386211696446585, 1142, 17320, 372),
    ("expected-dsp", 8, 1, 200, "ga", 1850, 1619651893498708131, 100, 1535, 0),
    ("expected-dsp", 8, 1, 200, "rw", 9678, 6871499412635606805, 55, 1600, 0),
    ("expected-dsp", 8, 1, 200, "folio4/sa", 1850, 1619651893498708131, 1, 3821, 0),
    ("expected-dsp", 8, 1, 200, "folio4/tabu", 1835, 12933700990669493813, 68, 3821, 0),
    ("expected-dsp", 8, 1, 200, "folio4/ga", 1850, 1619651893498708131, 100, 3821, 0),
    ("expected-dsp", 8, 1, 200, "folio4/rw", 9017, 13050136897315296183, 82, 3821, 0),
    ("expected-dsp", 8, 1, 2000, "ga", 1703, 4929637846399127263, 2000, 4716, 455),
    ("expected-dsp", 8, 1, 2000, "rw", 9164, 7942425725956377261, 1535, 16000, 0),
    ("expected-dsp", 8, 1, 2000, "folio4/sa", 1792, 3892424095081726961, 1724, 27369, 127),
    ("expected-dsp", 8, 1, 2000, "folio4/tabu", 1759, 6669313332289202499, 1604, 27369, 127),
    ("expected-dsp", 8, 1, 2000, "folio4/ga", 1799, 8649178752300116993, 2000, 27369, 127),
    ("expected-dsp", 8, 1, 2000, "folio4/rw", 9017, 13050136897315296183, 82, 27369, 127),
    ("expected-dsp", 8, 2, 200, "ga", 1850, 1619651893498708131, 100, 1533, 0),
    ("expected-dsp", 8, 2, 200, "rw", 9660, 6871499412635606805, 55, 1600, 0),
    ("expected-dsp", 8, 2, 200, "folio4/sa", 1850, 1619651893498708131, 1, 3827, 0),
    ("expected-dsp", 8, 2, 200, "folio4/tabu", 1818, 17848640896498416905, 132, 3827, 0),
    ("expected-dsp", 8, 2, 200, "folio4/ga", 1850, 1619651893498708131, 100, 3827, 0),
    ("expected-dsp", 8, 2, 200, "folio4/rw", 8995, 13050136897315296183, 82, 3827, 0),
    ("expected-dsp", 8, 2, 2000, "ga", 1749, 13622863091170690049, 2000, 4571, 605),
    ("expected-dsp", 8, 2, 2000, "rw", 9152, 7942425725956377261, 1535, 16000, 0),
    ("expected-dsp", 8, 2, 2000, "folio4/sa", 1837, 16389600277698972715, 1722, 27395, 434),
    ("expected-dsp", 8, 2, 2000, "folio4/tabu", 1653, 12708722911693539825, 932, 27395, 434),
    ("expected-dsp", 8, 2, 2000, "folio4/ga", 1782, 6105030551546719331, 1900, 27395, 434),
    ("expected-dsp", 8, 2, 2000, "folio4/rw", 8995, 13050136897315296183, 82, 27395, 434),
    ("expected-ctl", 4, 1, 200, "ga", 7001, 16989116825300073689, 100, 761, 0),
    ("expected-ctl", 4, 1, 200, "rw", 33919, 2093575747100298981, 111, 800, 0),
    ("expected-ctl", 4, 1, 200, "folio4/sa", 7001, 16989116825300073689, 1, 2278, 0),
    ("expected-ctl", 4, 1, 200, "folio4/tabu", 7001, 16989116825300073689, 1, 2278, 0),
    ("expected-ctl", 4, 1, 200, "folio4/ga", 7001, 16989116825300073689, 100, 2278, 0),
    ("expected-ctl", 4, 1, 200, "folio4/rw", 33923, 11767888976707789779, 126, 2278, 0),
    ("expected-ctl", 4, 1, 2000, "ga", 6753, 13050105903125560979, 2000, 2811, 359),
    ("expected-ctl", 4, 1, 2000, "rw", 31975, 5044326953412236381, 1841, 8000, 0),
    ("expected-ctl", 4, 1, 2000, "folio4/sa", 7001, 16989116825300073689, 1, 17278, 186),
    ("expected-ctl", 4, 1, 2000, "folio4/tabu", 7001, 16989116825300073689, 1, 17278, 186),
    ("expected-ctl", 4, 1, 2000, "folio4/ga", 6921, 1081794579262640029, 2000, 17278, 186),
    ("expected-ctl", 4, 1, 2000, "folio4/rw", 31494, 10263960873268061799, 1874, 17278, 186),
    ("expected-ctl", 4, 2, 200, "ga", 7001, 16989116825300073689, 100, 761, 0),
    ("expected-ctl", 4, 2, 200, "rw", 33455, 2093575747100298981, 111, 800, 0),
    ("expected-ctl", 4, 2, 200, "folio4/sa", 7001, 16989116825300073689, 1, 2275, 0),
    ("expected-ctl", 4, 2, 200, "folio4/tabu", 7001, 16989116825300073689, 1, 2275, 0),
    ("expected-ctl", 4, 2, 200, "folio4/ga", 7001, 16989116825300073689, 100, 2275, 0),
    ("expected-ctl", 4, 2, 200, "folio4/rw", 33631, 11767888976707789779, 126, 2275, 0),
    ("expected-ctl", 4, 2, 2000, "ga", 6793, 5372078395691726007, 1900, 2848, 269),
    ("expected-ctl", 4, 2, 2000, "rw", 31817, 5044326953412236381, 1841, 8000, 0),
    ("expected-ctl", 4, 2, 2000, "folio4/sa", 6963, 11469958205381187325, 809, 17392, 273),
    ("expected-ctl", 4, 2, 2000, "folio4/tabu", 7001, 16989116825300073689, 1, 17392, 273),
    ("expected-ctl", 4, 2, 2000, "folio4/ga", 6855, 6742080090082071595, 2000, 17392, 273),
    ("expected-ctl", 4, 2, 2000, "folio4/rw", 31278, 10263960873268061799, 1874, 17392, 273),
    ("expected-ctl", 8, 1, 200, "ga", 3595, 2025026535896686959, 100, 1502, 0),
    ("expected-ctl", 8, 1, 200, "rw", 13559, 13882736701963595267, 74, 1600, 0),
    ("expected-ctl", 8, 1, 200, "folio4/sa", 3595, 2025026535896686959, 1, 3820, 2),
    ("expected-ctl", 8, 1, 200, "folio4/tabu", 3519, 12400768987306694759, 180, 3820, 2),
    ("expected-ctl", 8, 1, 200, "folio4/ga", 3595, 2025026535896686959, 100, 3820, 2),
    ("expected-ctl", 8, 1, 200, "folio4/rw", 14150, 8690175840193341239, 140, 3820, 2),
    ("expected-ctl", 8, 1, 2000, "ga", 3473, 15355616601693882533, 2000, 4366, 872),
    ("expected-ctl", 8, 1, 2000, "rw", 12946, 6068304381493081609, 1799, 16000, 0),
    ("expected-ctl", 8, 1, 2000, "folio4/sa", 3595, 2025026535896686959, 1, 26823, 355),
    ("expected-ctl", 8, 1, 2000, "folio4/tabu", 3263, 12615805124260702195, 1076, 26823, 355),
    ("expected-ctl", 8, 1, 2000, "folio4/ga", 3501, 5955849891855262301, 1900, 26823, 355),
    ("expected-ctl", 8, 1, 2000, "folio4/rw", 13171, 10206785099042018781, 1430, 26823, 355),
    ("expected-ctl", 8, 2, 200, "ga", 3595, 2025026535896686959, 100, 1502, 0),
    ("expected-ctl", 8, 2, 200, "rw", 13525, 13882736701963595267, 74, 1600, 0),
    ("expected-ctl", 8, 2, 200, "folio4/sa", 3595, 2025026535896686959, 1, 3819, 0),
    ("expected-ctl", 8, 2, 200, "folio4/tabu", 3461, 8305549902904174575, 180, 3819, 0),
    ("expected-ctl", 8, 2, 200, "folio4/ga", 3595, 2025026535896686959, 100, 3819, 0),
    ("expected-ctl", 8, 2, 200, "folio4/rw", 14072, 8690175840193341239, 140, 3819, 0),
    ("expected-ctl", 8, 2, 2000, "ga", 3473, 18265577834812832679, 2000, 4314, 1007),
    ("expected-ctl", 8, 2, 2000, "rw", 12834, 6068304381493081609, 1799, 16000, 0),
    ("expected-ctl", 8, 2, 2000, "folio4/sa", 3595, 2025026535896686959, 1, 26996, 784),
    ("expected-ctl", 8, 2, 2000, "folio4/tabu", 3104, 11721245537117040211, 1364, 26996, 784),
    ("expected-ctl", 8, 2, 2000, "folio4/ga", 3485, 6822277267916682775, 1800, 26996, 784),
    ("expected-ctl", 8, 2, 2000, "folio4/rw", 13093, 10206785099042018781, 1430, 26996, 784),
];

/// Seed-fixed GA and random-walk trajectory goldens on the same traces and
/// shapes as [`sa_and_tabu_trajectory_goldens_on_tier_traces`]: the two
/// searchers that spend their budget on fresh random placements, standalone
/// and as lanes of the default four-lane race, each on a fresh one-worker
/// engine. A different RNG word, deal, list order or replayed cost changes
/// a row.
#[test]
fn ga_and_random_walk_trajectory_goldens_on_tier_traces() {
    let rw_seed = rtm::RandomWalkConfig::paper().seed;
    let mut got: Vec<TierGolden> = Vec::new();
    for trace in ["expected-dsp", "expected-ctl"] {
        let seq = rtm::offsetstone::TierWorkload::by_name(trace, 1.0)
            .unwrap()
            .generate();
        for dbcs in [4usize, 8] {
            for ports in [1usize, 2] {
                let problem = array_problem(&seq, dbcs, ports, 1);
                let seeds = problem.heuristic_seeds();
                let (capacity, cost) = (problem.capacity(), problem.cost_model());
                let fresh = || FitnessEngine::new(&seq, cost).with_threads(1);
                for evals in [200u64, 2_000] {
                    let budget = Budget::evals(evals);
                    let mut row = |run, out: &rtm::SearchOutcome, engine: &FitnessEngine| {
                        let stats = engine.stats();
                        got.push((
                            trace,
                            dbcs,
                            ports,
                            evals,
                            run,
                            out.cost,
                            placement_digest(&out.placement),
                            out.evals_at_best,
                            stats.dbc_recomputations,
                            stats.dbc_cache_hits,
                        ));
                    };
                    let engine = fresh();
                    let ga = GeneticPlacer::new(GaConfig::paper())
                        .run_budgeted(&engine, dbcs, capacity, &seeds, budget, None)
                        .unwrap();
                    row("ga", &ga.into(), &engine);
                    let engine = fresh();
                    let rw =
                        random_walk::run_budgeted(&engine, dbcs, capacity, rw_seed, budget, None)
                            .unwrap();
                    row("rw", &rw, &engine);
                    let engine = fresh();
                    let race = Portfolio::new(PortfolioConfig::new(budget))
                        .run_with_engine(&engine, dbcs, capacity, &seeds)
                        .unwrap();
                    for lane in &race.lanes {
                        let run = match lane.spec {
                            LaneSpec::Sa => "folio4/sa",
                            LaneSpec::Tabu => "folio4/tabu",
                            LaneSpec::Ga => "folio4/ga",
                            LaneSpec::RandomWalk => "folio4/rw",
                        };
                        row(run, lane.outcome.as_ref().unwrap(), &engine);
                    }
                }
            }
        }
    }
    assert_eq!(
        got.len(),
        FRESH_CANDIDATE_GOLDENS.len(),
        "one golden per run"
    );
    for (g, want) in got.iter().zip(FRESH_CANDIDATE_GOLDENS) {
        assert_eq!(g, want, "trajectory golden drifted");
    }
}

/// Budget semantics through the `Strategy` layer: eval budgets are hard
/// caps (per lane for the portfolio), stall and deadline budgets
/// terminate with valid solutions.
#[test]
fn budgets_cap_and_terminate() {
    let problem = PlacementProblem::new(paper_seq(), 2, 512);
    for n in [1u64, 7, 200] {
        let sa = problem
            .solve(&Strategy::Sa(SaConfig::new(Budget::evals(n))))
            .unwrap();
        assert!(sa.evals_consumed <= n.max(1), "SA overran evals({n})");
        let folio = problem
            .solve(&Strategy::Portfolio(PortfolioConfig::new(Budget::evals(n))))
            .unwrap();
        assert!(
            folio.evals_consumed <= 4 * n.max(1),
            "portfolio overran 4 x evals({n})"
        );
    }
    for budget in [
        Budget::stall(150),
        Budget::wall_clock_ms(25),
        Budget::evals(400).and_stall(100),
    ] {
        for strategy in [
            Strategy::Sa(SaConfig::new(budget)),
            Strategy::Tabu(TabuConfig::new(budget)),
            Strategy::Portfolio(PortfolioConfig::new(budget)),
        ] {
            let sol = problem.solve(&strategy).unwrap();
            sol.placement
                .validate(problem.seq(), problem.capacity())
                .unwrap();
            assert_eq!(sol.shifts, problem.evaluate(&sol.placement), "{strategy}");
        }
    }
}

/// Lane selection: a custom lane list races exactly those lanes, and the
/// portfolio result is reproducible.
#[test]
fn custom_lane_lists_race_exactly_those_lanes() {
    let problem = PlacementProblem::new(paper_seq(), 2, 512);
    let cfg = PortfolioConfig::new(Budget::evals(300))
        .with_seed(5)
        .with_lanes(vec![LaneSpec::Tabu, LaneSpec::RandomWalk]);
    let seeds = problem.heuristic_seeds();
    let engine = problem.engine();
    let out = Portfolio::new(cfg)
        .run_with_engine(&engine, problem.dbcs(), problem.capacity(), &seeds)
        .unwrap();
    assert_eq!(out.lanes.len(), 2);
    assert_eq!(out.lanes[0].spec, LaneSpec::Tabu);
    assert_eq!(out.lanes[1].spec, LaneSpec::RandomWalk);
    assert_eq!(
        out.total_evals,
        out.lanes
            .iter()
            .filter_map(|l| l.outcome.as_ref().map(|o| o.evals))
            .sum::<u64>()
    );
}
