//! Tabu local search over placements, incremental on the
//! [`FitnessEngine`].
//!
//! Each iteration samples a fixed number of candidate moves from the
//! neighborhood shared with simulated annealing, costs each incrementally
//! (apply → re-cost the one or two touched DBCs → undo), and commits the
//! best *admissible* candidate: not on the tabu list, or better than the
//! global best (aspiration). Committing a move marks its **reversal** tabu
//! for `tenure` iterations — relocations may not send the variable back to
//! its source DBC, transpositions may not re-swap the same pair — which
//! drives the walk out of local minima that plain hill climbing would
//! orbit.
//!
//! Unlike annealing, tabu search accepts the best sampled candidate even
//! when it worsens the cost (that is the escape mechanism), so the
//! best-so-far placement is tracked separately and is what the solver
//! returns. The trajectory is a pure function of `(seed, budget)` under a
//! deterministic budget: sampling uses the lane's own `ChaCha` stream,
//! costing is exact integer arithmetic, and ties among candidates break
//! toward the earliest sample.

use super::{
    choose_start, meter_for, race_publish, race_stopped, Budget, Move, Neighborhood, Race,
    SearchOutcome,
};
use crate::error::PlacementError;
use crate::eval::FitnessEngine;
use crate::inter::check_fit;
use crate::placement::Placement;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rtm_trace::VarId;
use std::collections::HashMap;

/// Configuration of the tabu-search solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabuConfig {
    /// The search budget.
    pub budget: Budget,
    /// RNG seed (the run is deterministic given the seed under a
    /// deterministic budget).
    pub seed: u64,
    /// Iterations a committed move's reversal stays forbidden.
    pub tenure: usize,
    /// Candidate moves sampled per iteration.
    pub neighbors: usize,
}

impl TabuConfig {
    /// The default configuration for a budget: seed `0x7AB0_2020`,
    /// tenure 24, 16 sampled neighbors per iteration.
    pub fn new(budget: Budget) -> Self {
        Self {
            budget,
            seed: 0x7AB0_2020,
            tenure: 24,
            neighbors: 16,
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

/// The tabu-search solver.
#[derive(Debug, Clone)]
pub struct TabuSearch {
    config: TabuConfig,
    subarrays: usize,
}

impl TabuSearch {
    /// Creates a solver with the given configuration.
    pub fn new(config: TabuConfig) -> Self {
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

        let hood = Neighborhood::new(dbcs, capacity, self.subarrays);
        // Reversal key -> iteration index until which it stays tabu.
        let mut tabu: HashMap<u64, u64> = HashMap::new();
        let mut iter = 0u64;

        while best.1 > 0 && !meter.exhausted() && !race_stopped(race) {
            // Sample and cost the neighborhood of this iteration.
            let mut chosen: Option<(Move, u64)> = None;
            let mut fallback: Option<(Move, u64)> = None; // best even-if-tabu
            for _ in 0..self.config.neighbors.max(1) {
                if meter.exhausted() || race_stopped(race) {
                    break;
                }
                let m = hood.propose(&state.lists, &mut rng);
                if m == Move::Noop {
                    meter.charge(1);
                    continue;
                }
                let cost = state.apply(engine, m);
                meter.charge(1);
                let forbidden = Self::candidate_keys(m, &state.lists)
                    .into_iter()
                    .flatten()
                    .any(|k| tabu.get(&k).is_some_and(|&until| iter < until));
                let admissible = !forbidden || cost < best.1; // aspiration
                if admissible && chosen.as_ref().is_none_or(|(_, c)| cost < *c) {
                    chosen = Some((m, cost));
                }
                if fallback.as_ref().is_none_or(|(_, c)| cost < *c) {
                    fallback = Some((m, cost));
                }
                state.undo();
            }
            // Commit the best admissible candidate (all-tabu iterations fall
            // back to the overall best sample — the standard escape rule).
            let Some((m, cost)) = chosen.or(fallback) else {
                continue; // only no-ops sampled; budget already charged
            };
            state.apply(engine, m);
            state.commit();
            debug_assert_eq!(state.total, cost);
            for key in Self::reversal_keys(m, &state.lists).into_iter().flatten() {
                tabu.insert(key, iter + self.config.tenure.max(1) as u64);
            }
            iter += 1;
            // Cheap periodic sweep keeps the map proportional to the tenure.
            if tabu.len() > 16 * self.config.tenure.max(1) {
                tabu.retain(|_, &mut until| iter < until);
            }
            if cost < best.1 {
                best = (state.lists.clone(), cost);
                meter.note_cost(cost);
                race_publish(race, cost, &best.0, meter.evals());
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

    /// Tabu keys a **candidate** move would violate, read from the lists
    /// *with the move applied* (relocated/exchanged variables sit at their
    /// destinations). A relocation is forbidden when the variable was
    /// recently moved out of its destination; a transposition when the
    /// same pair was recently swapped.
    fn candidate_keys(m: Move, lists: &[Vec<VarId>]) -> [Option<u64>; 2] {
        match m {
            Move::Noop => [None, None],
            Move::Transpose { d, i, j } => [Some(pair_key(lists[d][i], lists[d][j])), None],
            Move::Relocate { dst, .. } => match lists[dst].last() {
                Some(&v) => [Some(into_key(v, dst)), None],
                None => [None, None],
            },
            Move::Exchange { a, i, b, j } => [
                Some(into_key(lists[a][i], a)),
                Some(into_key(lists[b][j], b)),
            ],
        }
    }

    /// Tabu keys forbidding the **reversal** of a just-committed move,
    /// read from the lists with the move applied.
    fn reversal_keys(m: Move, lists: &[Vec<VarId>]) -> [Option<u64>; 2] {
        match m {
            Move::Noop => [None, None],
            // Re-swapping the same pair undoes a transposition.
            Move::Transpose { d, i, j } => [Some(pair_key(lists[d][i], lists[d][j])), None],
            // Don't move the variable back into its source DBC.
            Move::Relocate { src, dst, .. } => match lists[dst].last() {
                Some(&v) => [Some(into_key(v, src)), None],
                None => [None, None],
            },
            // Don't send either variable back where it came from.
            Move::Exchange { a, i, b, j } => [
                Some(into_key(lists[a][i], b)),
                Some(into_key(lists[b][j], a)),
            ],
        }
    }
}

/// Key for "variable `v` moves into DBC `d`".
fn into_key(v: VarId, d: usize) -> u64 {
    1u64 << 62 | (v.index() as u64) << 31 | d as u64
}

/// Order-independent key for "swap the pair `(u, v)`".
fn pair_key(u: VarId, v: VarId) -> u64 {
    let (lo, hi) = if u.index() <= v.index() {
        (u.index(), v.index())
    } else {
        (v.index(), u.index())
    };
    2u64 << 62 | (lo as u64) << 31 | hi as u64
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
    fn never_worse_than_its_seed_and_respects_budget() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
        let seed_cost = engine.shift_cost(&seeds[0]);
        for n in [1u64, 17, 600] {
            let out = TabuSearch::new(TabuConfig::new(Budget::evals(n)))
                .run_with_engine(&engine, 2, 512, &seeds)
                .unwrap();
            assert!(
                out.cost <= seed_cost,
                "budget {n}: {} > {seed_cost}",
                out.cost
            );
            assert!(out.evals <= n.max(1), "budget {n}: used {}", out.evals);
            out.placement.validate(&seq, 512).unwrap();
            assert_eq!(engine.shift_cost(&out.placement), out.cost);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 8);
        let cfg = TabuConfig::new(Budget::evals(1_200)).with_seed(11);
        let a = TabuSearch::new(cfg)
            .run_with_engine(&engine, 2, 8, &seeds)
            .unwrap();
        let b = TabuSearch::new(cfg)
            .run_with_engine(&engine, 2, 8, &seeds)
            .unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(
            (a.cost, a.evals, a.evals_at_best),
            (b.cost, b.evals, b.evals_at_best)
        );
    }

    #[test]
    fn finds_the_paper_optimum_on_the_running_example() {
        // The 2-DBC paper example's optimum is known to be <= 11 shifts
        // (Fig. 3(d)); tabu from the DMA-SR seed must stay at least there.
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
        let out = TabuSearch::new(TabuConfig::new(Budget::evals(2_000)))
            .run_with_engine(&engine, 2, 512, &seeds)
            .unwrap();
        assert!(out.cost <= 11, "tabu ended at {}", out.cost);
    }

    #[test]
    fn hierarchical_runs_stay_valid() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let out = TabuSearch::new(TabuConfig::new(Budget::evals(800)))
            .with_subarrays(2)
            .run_with_engine(&engine, 4, 3, &[])
            .unwrap();
        out.placement.validate(&seq, 3).unwrap();
        assert_eq!(engine.shift_cost(&out.placement), out.cost);
    }

    #[test]
    fn rejects_impossible_geometry() {
        let seq = AccessSequence::parse("a b c d").unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        assert!(TabuSearch::new(TabuConfig::quick())
            .run_with_engine(&engine, 1, 2, &[])
            .is_err());
    }

    #[test]
    fn keys_distinguish_kinds_and_are_order_independent() {
        let v = VarId::from_index;
        assert_eq!(pair_key(v(3), v(7)), pair_key(v(7), v(3)));
        assert_ne!(pair_key(v(3), v(7)), into_key(v(3), 7));
        assert_ne!(into_key(v(3), 7), into_key(v(3), 8));
    }
}
