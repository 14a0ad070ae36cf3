//! Simulated annealing over placements, incremental on the
//! [`FitnessEngine`].
//!
//! A single-candidate Metropolis walk through the move neighborhood shared
//! with [tabu search](super::tabu): relocate / transpose / exchange (plus
//! subarray-migrate on hierarchies). Each proposal re-costs only the one
//! or two DBCs it touches — the dirty-mask idea of the GA applied to a
//! trajectory of single mutations — so an evaluation is `O(A)` in the
//! touched DBCs' access counts, not the trace length.
//!
//! # The cooling schedule
//!
//! Temperature is a function of **evaluation counts only** — never of the
//! total budget, and never of wall clock (`DESIGN.md` §8). Each *sweep*
//! cools linearly from the current peak to [`SaConfig::final_temp`] over
//! [`SaConfig::cool_horizon`] evaluations; going
//! [`SaConfig::quench_after`] evaluations without a new global best
//! *quenches* the sweep (jump to its cold, hill-climbing end), and twice
//! that stall *reheats* — the sweep restarts from a halved peak. Because
//! the trajectory never looks at the budget's size, a run at budget `B`
//! is an exact prefix of the same-seed run at any budget `> B`, so the
//! best cost is monotone non-increasing in the budget. (The earlier
//! schedule cooled over *total budget progress*: mid-size budgets spent
//! nearly every evaluation at the hot end and returned the untouched
//! seed; `rtm-bench search` exposed it on 8051 at 5k/20k evals.)
//!
//! Two deliberate substitutions keep the trajectory a pure function of
//! `(seed, budget)` on every platform (`DESIGN.md` §8):
//!
//! * cooling, quench and reheat use only IEEE-exact add/mul (linear
//!   interpolation, halving) — no `powf`/`ln`, whose libm implementations
//!   vary across platforms;
//! * the Metropolis acceptance probability `exp(−Δ/T)` is computed by a
//!   local polynomial approximation built only from IEEE-exact arithmetic
//!   (`exp_neg`), not the platform `exp`.

use super::{
    choose_start, meter_for, race_publish, race_stopped, Budget, Move, Neighborhood, Race,
    SearchOutcome,
};
use crate::error::PlacementError;
use crate::eval::FitnessEngine;
use crate::inter::check_fit;
use crate::placement::Placement;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of the simulated-annealing solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// The search budget.
    pub budget: Budget,
    /// RNG seed (the run is deterministic given the seed under a
    /// deterministic budget).
    pub seed: u64,
    /// Initial temperature as a fraction of the start state's cost.
    pub initial_temp_frac: f64,
    /// Final temperature, in absolute shifts.
    pub final_temp: f64,
    /// Evaluations per cooling sweep: temperature cools linearly from the
    /// current peak to [`final_temp`](Self::final_temp) over this many
    /// evaluations, independent of the total budget.
    pub cool_horizon: u64,
    /// Evaluations without a new global best that quench the current
    /// sweep (jump to its cold end); twice this stall reheats (a fresh
    /// sweep from a halved peak).
    pub quench_after: u64,
}

impl SaConfig {
    /// The default configuration for a budget: seed `0x5A11_2020`, initial
    /// temperature 2% of the start cost, final temperature 0.25 shifts,
    /// 2 000-eval cooling sweeps, quench after 400 stalled evaluations.
    pub fn new(budget: Budget) -> Self {
        Self {
            budget,
            seed: 0x5A11_2020,
            initial_temp_frac: 0.02,
            final_temp: 0.25,
            cool_horizon: 2_000,
            quench_after: 400,
        }
    }

    /// A small evaluation budget for tests and `--quick` runs.
    pub fn quick() -> Self {
        Self::new(Budget::evals(2_000))
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The simulated-annealing solver.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    config: SaConfig,
    subarrays: usize,
}

impl SimulatedAnnealing {
    /// Creates a solver with the given configuration.
    pub fn new(config: SaConfig) -> Self {
        Self {
            config,
            subarrays: 1,
        }
    }

    /// Declares the hierarchical geometry (enables the subarray-migrate
    /// move, exactly as in the GA's operator mix).
    pub fn with_subarrays(mut self, subarrays: usize) -> Self {
        self.subarrays = subarrays.max(1);
        self
    }

    /// Runs the solver outside any race.
    ///
    /// Seeds are candidate start placements (invalid ones are skipped); the
    /// best evaluated seed starts the walk, a random assignment if none.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the variables cannot fit the geometry.
    pub fn run_with_engine(
        &self,
        engine: &FitnessEngine<'_>,
        dbcs: usize,
        capacity: usize,
        seeds: &[Placement],
    ) -> Result<SearchOutcome, PlacementError> {
        self.run_in_race(engine, dbcs, capacity, seeds, None)
    }

    /// Runs the solver as one lane of a race: improvements are published
    /// to the shared incumbent and the race's stop flag is honored.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the variables cannot fit the geometry.
    pub fn run_in_race(
        &self,
        engine: &FitnessEngine<'_>,
        dbcs: usize,
        capacity: usize,
        seeds: &[Placement],
        race: Race<'_>,
    ) -> Result<SearchOutcome, PlacementError> {
        check_fit(engine.accessed_vars().len(), dbcs, capacity)?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut meter = meter_for(self.config.budget, race);
        let mut state = choose_start(engine, dbcs, capacity, seeds, &mut rng, &mut meter);
        let mut best = (state.lists.clone(), state.total);
        race_publish(race, best.1, &best.0, meter.evals());

        let t0 = (state.total as f64 * self.config.initial_temp_frac).max(1.0);
        let tf = self.config.final_temp.max(0.01);
        let horizon = self.config.cool_horizon.max(1);
        let quench = self.config.quench_after.max(1);
        let hood = Neighborhood::new(dbcs, capacity, self.subarrays);

        // Sweep state, all driven by eval counts (module docs): `cooled`
        // evals into the current sweep, `since_best` evals since the last
        // global improvement, and the sweep's starting `peak` temperature.
        let mut peak = t0;
        let mut cooled = 0u64;
        let mut since_best = 0u64;

        let mut best_costs = state.dbc_costs.clone();
        while best.1 > 0 && !meter.exhausted() && !race_stopped(race) {
            if since_best >= 2 * quench {
                // Reheat: a fresh sweep from a halved peak, restarted from
                // the global best (elitist — a hot sweep that wandered off
                // never strands the walk in a bad basin).
                peak = (peak * 0.5).max(tf);
                cooled = 0;
                since_best = 0;
                state.reset(engine, &best.0, &best_costs, best.1);
            } else if since_best >= quench {
                // Quench: jump to the sweep's cold, hill-climbing end.
                cooled = cooled.max(horizon);
            }
            let pp = cooled.min(horizon) as f64 / horizon as f64;
            let temp = peak * (1.0 - pp) + tf * pp;
            let m = hood.propose(&state.lists, &mut rng);
            if m == Move::Noop {
                // Infeasible sample: still consumes budget (termination on
                // degenerate shapes), costs nothing.
                meter.charge(1);
                cooled += 1;
                since_best += 1;
                continue;
            }
            let before = state.total;
            let after = state.apply(engine, m);
            meter.charge(1);
            cooled += 1;
            since_best += 1;
            let accept = after <= before || {
                let delta = (after - before) as f64;
                rng.gen_bool(exp_neg(delta / temp))
            };
            if accept {
                state.commit();
                if after < best.1 {
                    // Reuse the incumbent's buffers: no per-improvement
                    // allocation, clones only here (the publish point).
                    best.0.clone_from(&state.lists);
                    best_costs.clone_from(&state.dbc_costs);
                    best.1 = after;
                    since_best = 0;
                    meter.note_cost(after);
                    race_publish(race, after, &best.0, meter.evals());
                }
            } else {
                state.undo();
            }
        }

        Ok(SearchOutcome {
            placement: Placement::from_dbc_lists(best.0),
            cost: best.1,
            evals: meter.evals(),
            evals_at_best: meter.evals_at_best(),
            time_to_best: meter.time_to_best(),
            elapsed: meter.elapsed(),
            stop: meter.stop_cause(),
        })
    }
}

/// `e^(−x)` for `x ≥ 0`, to ~1e-5 relative accuracy, built only from
/// IEEE-exact operations (add/mul/div, `floor`, exponent-bit assembly) so
/// the result is bit-identical on every platform — unlike the platform
/// libm `exp`, whose rounding varies. Used for the Metropolis acceptance
/// probability; clamps to `[0, 1]`.
pub(crate) fn exp_neg(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return 1.0; // negative or NaN input: treat as "always accept"
    }
    if x >= 700.0 {
        return 0.0;
    }
    // e^(−x) = 2^(−n) · e^(−r) with n = floor(x / ln 2), r = x − n·ln 2,
    // r ∈ [0, ln 2): a 7-term Taylor series is accurate to ~1e-5 there.
    const LN2: f64 = std::f64::consts::LN_2;
    let n = (x / LN2).floor();
    let r = x - n * LN2;
    let mr = -r;
    let series = 1.0
        + mr * (1.0
            + mr * (0.5
                + mr * (1.0 / 6.0 + mr * (1.0 / 24.0 + mr * (1.0 / 120.0 + mr * (1.0 / 720.0))))));
    // 2^(−n) assembled directly from exponent bits (n ≤ 1010 here).
    let n = n as i64;
    let pow2 = if n >= 1023 {
        return 0.0;
    } else {
        f64::from_bits(((1023 - n) as u64) << 52)
    };
    (series * pow2).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::{PlacementProblem, Strategy};
    use rtm_trace::AccessSequence;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    fn engine_and_seeds(
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> (FitnessEngine<'_>, Vec<Placement>) {
        let p = PlacementProblem::new(seq.clone(), dbcs, capacity);
        let seeds = vec![p.solve(&Strategy::DmaSr).unwrap().placement];
        (FitnessEngine::new(seq, CostModel::single_port()), seeds)
    }

    #[test]
    fn exp_neg_tracks_the_libm_exp() {
        for x in [0.0, 1e-6, 0.3, 1.0, 2.5, 10.0, 50.0, 600.0] {
            let got = exp_neg(x);
            let want = (-x).exp();
            assert!(
                (got - want).abs() <= 2e-5 * want.max(1e-12) + 1e-300,
                "exp_neg({x}) = {got}, libm = {want}"
            );
        }
        assert_eq!(exp_neg(1e9), 0.0);
        assert_eq!(exp_neg(-1.0), 1.0);
        assert_eq!(exp_neg(f64::NAN), 1.0);
    }

    #[test]
    fn never_worse_than_its_seed_and_respects_budget() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
        let seed_cost = engine.shift_cost(&seeds[0]);
        for n in [1u64, 10, 500] {
            let out = SimulatedAnnealing::new(SaConfig::new(Budget::evals(n)))
                .run_with_engine(&engine, 2, 512, &seeds)
                .unwrap();
            assert!(
                out.cost <= seed_cost,
                "budget {n}: {} > {seed_cost}",
                out.cost
            );
            assert!(out.evals <= n.max(1), "budget {n}: used {}", out.evals);
            assert!(out.evals_at_best <= out.evals);
            out.placement.validate(&seq, 512).unwrap();
            assert_eq!(engine.shift_cost(&out.placement), out.cost);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 8);
        let cfg = SaConfig::new(Budget::evals(1_500)).with_seed(7);
        let a = SimulatedAnnealing::new(cfg)
            .run_with_engine(&engine, 2, 8, &seeds)
            .unwrap();
        let b = SimulatedAnnealing::new(cfg)
            .run_with_engine(&engine, 2, 8, &seeds)
            .unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(
            (a.cost, a.evals, a.evals_at_best),
            (b.cost, b.evals, b.evals_at_best)
        );
    }

    #[test]
    fn nested_budgets_are_monotone() {
        // The schedule is driven by eval counts, never by the budget's
        // size, so a 5k-eval run is an exact prefix of the 20k-eval run:
        // the larger budget can never end worse (the bug this schedule
        // replaced: budget-progress cooling left mid-size budgets at the
        // hot end for almost the whole run).
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 8);
        let run = |evals: u64| {
            SimulatedAnnealing::new(SaConfig::new(Budget::evals(evals)).with_seed(11))
                .run_with_engine(&engine, 2, 8, &seeds)
                .unwrap()
        };
        let small = run(5_000);
        let large = run(20_000);
        assert!(
            large.cost <= small.cost,
            "budget 20k ended worse than 5k: {} > {}",
            large.cost,
            small.cost
        );
        if large.cost == small.cost {
            assert_eq!(large.evals_at_best, small.evals_at_best, "prefix drifted");
        }
    }

    #[test]
    fn stall_budget_terminates() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
        let out = SimulatedAnnealing::new(SaConfig::new(Budget::stall(300)))
            .run_with_engine(&engine, 2, 512, &seeds)
            .unwrap();
        out.placement.validate(&seq, 512).unwrap();
        assert!(out.evals >= 300, "must search at least one stall window");
    }

    #[test]
    fn zero_cost_optimum_stops_early() {
        // One variable: any placement costs 0 shifts after the alignment.
        let seq = AccessSequence::parse("a a a a").unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let out = SimulatedAnnealing::new(SaConfig::new(Budget::evals(10_000)))
            .run_with_engine(&engine, 1, 4, &[])
            .unwrap();
        assert_eq!(out.cost, 0);
        assert_eq!(out.evals, 1, "a zero-cost incumbent ends the walk");
    }

    #[test]
    fn rejects_impossible_geometry() {
        let seq = AccessSequence::parse("a b c d").unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        assert!(SimulatedAnnealing::new(SaConfig::quick())
            .run_with_engine(&engine, 1, 2, &[])
            .is_err());
    }

    #[test]
    fn hierarchical_runs_stay_valid() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let out = SimulatedAnnealing::new(SaConfig::new(Budget::evals(800)))
            .with_subarrays(2)
            .run_with_engine(&engine, 4, 3, &[])
            .unwrap();
        out.placement.validate(&seq, 3).unwrap();
        assert_eq!(engine.shift_cost(&out.placement), out.cost);
    }
}
