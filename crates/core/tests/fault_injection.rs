//! Differential tests for the fault-injection harness (`--features
//! faults`): under every seeded fault schedule the portfolio still returns
//! a valid placement, bit-identical to the best *surviving* lane run
//! standalone; deadline races wind down within `deadline + grace`; and
//! fault-free deterministic races are unperturbed by the harness being
//! compiled in.

#![cfg(feature = "faults")]

use rtm_placement::search::faults::{Fault, FaultPlan};
use rtm_placement::{
    Budget, CostModel, FitnessEngine, LaneSpec, LaneStatus, Placement, PlacementError,
    PlacementProblem, Portfolio, PortfolioConfig, SaConfig, SimulatedAnnealing, Strategy,
    TabuConfig, TabuSearch,
};
use rtm_trace::AccessSequence;
use std::time::{Duration, Instant};

const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

/// Generous allowance for CI scheduling noise on top of the contractual
/// `deadline + grace` bound.
const SLACK: Duration = Duration::from_secs(2);

/// A race of every lane kind ([`LaneSpec::ALL`], four lanes): the schedules
/// below fault lanes 0–3, the random walk included, which the default race
/// leaves out.
fn every_lane(budget: Budget) -> PortfolioConfig {
    PortfolioConfig::new(budget).with_lanes(LaneSpec::ALL.to_vec())
}

fn engine_and_seeds(
    seq: &AccessSequence,
    dbcs: usize,
    capacity: usize,
) -> (FitnessEngine<'_>, Vec<Placement>) {
    let p = PlacementProblem::new(seq.clone(), dbcs, capacity);
    let seeds = vec![p.solve(&Strategy::DmaSr).unwrap().placement];
    (FitnessEngine::new(seq, CostModel::single_port()), seeds)
}

/// Panicking the GA and RW lanes leaves SA and tabu: the portfolio's best
/// must be bit-identical to the better of the two survivors run standalone
/// with the same per-lane budget and seed.
#[test]
fn best_equals_the_best_surviving_lane_standalone() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let (engine, seeds) = engine_and_seeds(&seq, 2, 8);
    let budget = Budget::evals(800);
    let cfg = every_lane(budget).with_seed(11);
    let plan = FaultPlan::new()
        .inject(2, Fault::PanicAfterEvals(40))
        .inject(3, Fault::PanicAfterEvals(25));
    let out = Portfolio::new(cfg.clone())
        .with_faults(plan)
        .run_with_engine(&engine, 2, 8, &seeds)
        .unwrap();

    assert_eq!(out.lanes[0].status, LaneStatus::Completed);
    assert_eq!(out.lanes[1].status, LaneStatus::Completed);
    for lane in &out.lanes[2..] {
        assert!(
            matches!(lane.status, LaneStatus::Panicked(_)),
            "{} lane should have panicked",
            lane.spec
        );
        assert!(lane.outcome.is_none());
    }

    let sa = SimulatedAnnealing::new(SaConfig::new(budget).with_seed(cfg.lane_seed(0)))
        .run_with_engine(&engine, 2, 8, &seeds)
        .unwrap();
    let tabu = TabuSearch::new(TabuConfig::new(budget).with_seed(cfg.lane_seed(1)))
        .run_with_engine(&engine, 2, 8, &seeds)
        .unwrap();
    // Same tie-break as the portfolio: earliest lane wins on equal cost.
    let best = if sa.cost <= tabu.cost { &sa } else { &tabu };
    assert_eq!(out.best().cost, best.cost);
    assert_eq!(out.best().placement, best.placement);
    assert_eq!(out.best().evals, best.evals);
    assert!(!out.degraded());
}

/// A panic before any publication in every lane is the one case with
/// nothing to degrade to: the taxonomy names the dead lanes.
#[test]
fn all_lanes_dead_before_publishing_is_no_surviving_lane() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
    let mut plan = FaultPlan::new();
    for lane in 0..4 {
        plan = plan.inject(lane, Fault::PanicAfterEvals(1));
    }
    let err = Portfolio::new(every_lane(Budget::evals(500)))
        .with_faults(plan)
        .run_with_engine(&engine, 2, 512, &seeds)
        .unwrap_err();
    match err {
        PlacementError::NoSurvivingLane { lanes } => {
            assert_eq!(lanes, vec!["sa", "tabu", "ga", "rw"]);
        }
        other => panic!("expected NoSurvivingLane, got {other}"),
    }
}

/// When every lane dies *after* publishing, the race degrades to the
/// incumbent: still a valid placement, flagged as degraded.
#[test]
fn all_lanes_dead_after_publishing_degrades_to_the_incumbent() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
    let mut plan = FaultPlan::new();
    for lane in 0..4 {
        plan = plan.inject(lane, Fault::PanicAfterEvals(60));
    }
    let out = Portfolio::new(every_lane(Budget::evals(2_000)).with_seed(4))
        .with_faults(plan)
        .run_with_engine(&engine, 2, 512, &seeds)
        .unwrap();
    assert!(out.degraded());
    assert!(out
        .lanes
        .iter()
        .all(|l| matches!(l.status, LaneStatus::Panicked(_))));
    out.best().placement.validate(&seq, 512).unwrap();
    assert_eq!(engine.shift_cost(&out.best().placement), out.best().cost);
    // The degraded best is exactly the incumbent's last improvement.
    assert_eq!(out.trace.last().unwrap().cost, out.best().cost);
}

/// Stalls and cache poisoning never change *what* a deterministic race
/// computes — only how long it takes. The eval-budget goldens must be
/// bit-identical with and without these faults.
#[test]
fn stalls_and_poisoning_do_not_perturb_deterministic_results() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let (engine, seeds) = engine_and_seeds(&seq, 2, 8);
    let cfg = every_lane(Budget::evals(600)).with_seed(5);
    let clean = Portfolio::new(cfg.clone())
        .run_with_engine(&engine, 2, 8, &seeds)
        .unwrap();
    let plan = FaultPlan::new()
        .inject(0, Fault::StallAfterEvals(10, Duration::from_millis(15)))
        .inject(1, Fault::PoisonCaches)
        .inject(2, Fault::PoisonCaches)
        .inject(3, Fault::StallAfterEvals(3, Duration::from_millis(5)));
    let faulty = Portfolio::new(cfg)
        .with_faults(plan)
        .run_with_engine(&engine, 2, 8, &seeds)
        .unwrap();
    assert_eq!(clean.winner, faulty.winner);
    assert_eq!(clean.total_evals, faulty.total_evals);
    for (c, f) in clean.lanes.iter().zip(&faulty.lanes) {
        let (co, fo) = (c.outcome.as_ref().unwrap(), f.outcome.as_ref().unwrap());
        assert_eq!(co.cost, fo.cost, "{} lane", c.spec);
        assert_eq!(co.placement, fo.placement);
        assert_eq!(co.evals, fo.evals);
    }
}

/// The hard-deadline contract under misbehaving lanes: a panicking lane, a
/// lane stalled far past the deadline, and a cache-poisoning lane — the
/// race still returns a valid placement within `deadline + grace`.
#[test]
fn deadline_holds_under_every_fault_kind() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
    let deadline = Duration::from_millis(50);
    let cfg = every_lane(Budget::wall_clock(deadline));
    let grace = cfg.grace;
    let plan = FaultPlan::new()
        .inject(1, Fault::PanicAfterEvals(30))
        .inject(2, Fault::StallAfterEvals(5, Duration::from_secs(30)))
        .inject(3, Fault::PoisonCaches);
    let started = Instant::now();
    let out = Portfolio::new(cfg)
        .with_faults(plan)
        .run_with_engine(&engine, 2, 512, &seeds)
        .unwrap();
    let took = started.elapsed();
    assert!(
        took <= deadline + grace + SLACK,
        "race took {took:?}, bound is {:?}",
        deadline + grace + SLACK
    );
    out.best().placement.validate(&seq, 512).unwrap();
    assert_eq!(engine.shift_cost(&out.best().placement), out.best().cost);
    // On a small pool the race may cancel before the faulty lane reaches
    // its threshold; but if it did, the panic must surface in telemetry.
    match &out.lanes[1].status {
        LaneStatus::Panicked(msg) => {
            assert!(msg.contains("injected fault"), "unexpected payload: {msg}");
            assert!(out.lanes[1].outcome.is_none());
        }
        status => {
            let evals = out.lanes[1].outcome.as_ref().map_or(0, |o| o.evals);
            assert!(
                evals < 30,
                "lane ran {evals} evals past the fault threshold without \
                 panicking (status {status})"
            );
        }
    }
}

/// Sweep of seeded pseudo-random schedules: every one returns a valid
/// placement within the deadline bound (each schedule keeps one healthy
/// lane by construction).
#[test]
fn seeded_fault_schedules_always_yield_a_valid_placement() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
    let deadline = Duration::from_millis(40);
    for fault_seed in 0..6u64 {
        let cfg = every_lane(Budget::wall_clock(deadline)).with_seed(fault_seed);
        let grace = cfg.grace;
        let started = Instant::now();
        let out = Portfolio::new(cfg)
            .with_faults(FaultPlan::from_seed(fault_seed, 4))
            .run_with_engine(&engine, 2, 512, &seeds)
            .unwrap_or_else(|e| panic!("schedule {fault_seed} failed: {e}"));
        let took = started.elapsed();
        assert!(
            took <= deadline + grace + SLACK,
            "schedule {fault_seed} took {took:?}"
        );
        out.best().placement.validate(&seq, 512).unwrap();
        assert_eq!(engine.shift_cost(&out.best().placement), out.best().cost);
    }
}

/// Compiling the harness in must not perturb fault-free deterministic
/// races: two identical runs stay bit-identical, lane for lane.
#[test]
fn fault_free_races_stay_bit_identical_with_the_feature_on() {
    let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
    let (engine, seeds) = engine_and_seeds(&seq, 2, 8);
    let cfg = PortfolioConfig::new(Budget::evals(1_500))
        .with_seed(0xF0_2020)
        .with_lanes(vec![LaneSpec::Sa, LaneSpec::Tabu, LaneSpec::RandomWalk]);
    let a = Portfolio::new(cfg.clone())
        .run_with_engine(&engine, 2, 8, &seeds)
        .unwrap();
    let b = Portfolio::new(cfg)
        .run_with_engine(&engine, 2, 8, &seeds)
        .unwrap();
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.total_evals, b.total_evals);
    for (x, y) in a.lanes.iter().zip(&b.lanes) {
        let (xo, yo) = (x.outcome.as_ref().unwrap(), y.outcome.as_ref().unwrap());
        assert_eq!(xo.placement, yo.placement, "{} lane", x.spec);
        assert_eq!(xo.evals, yo.evals);
    }
}
