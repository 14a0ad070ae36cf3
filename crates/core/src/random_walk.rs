//! Random-walk search (§III-C): "generates random placement of variables to
//! DBCs and then creates random permutations within every DBC, selecting the
//! best individual".
//!
//! The paper runs it for 60 000 iterations — the upper bound on individuals
//! its GA could evaluate — to put the GA results in perspective (RW serves
//! as the "how good is blind sampling" baseline in Fig. 4).
//!
//! The sampler is already the hierarchical form: a multi-subarray array is
//! `subarrays × dbcs` uniform global DBCs (the cost model is separable per
//! DBC and subarrays share one track geometry), and
//! [`random_assignment`](crate::ga) deals variables uniformly over *all*
//! global DBCs — which samples inter-subarray and intra-subarray
//! distribution jointly. A single-subarray run is bit-identical to the flat
//! sampler by construction.

use crate::cost::CostModel;
use crate::error::PlacementError;
use crate::eval::FitnessEngine;
use crate::ga::random_assignment_into;
use crate::inter::check_fit;
use crate::placement::Placement;
use crate::search::{Budget, RaceControl, SearchOutcome};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rtm_trace::{AccessSequence, VarId};

/// Candidates drawn between two checks of the stop conditions (the budget
/// meter, the race's stop flag and a zero-cost best).
const BATCH: usize = 256;

/// Configuration of the random-walk search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomWalkConfig {
    /// Number of random placements to sample.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl RandomWalkConfig {
    /// The paper's budget: 60 000 iterations.
    pub fn paper() -> Self {
        Self {
            iterations: 60_000,
            seed: 0x5EED_2020,
        }
    }

    /// A small budget for tests and `--quick` runs.
    pub fn quick() -> Self {
        Self {
            iterations: 2_000,
            ..Self::paper()
        }
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Runs the random-walk search; returns the best placement and its cost.
///
/// # Errors
///
/// Returns [`PlacementError`] if the variables cannot fit the geometry.
///
/// # Example
///
/// ```
/// use rtm_placement::random_walk::{self, RandomWalkConfig};
/// use rtm_placement::CostModel;
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("a b a c b a")?;
/// let (best, cost) = random_walk::search(
///     &seq, 2, 8, CostModel::single_port(), RandomWalkConfig::quick(),
/// )?;
/// assert!(best.validate(&seq, 8).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn search(
    seq: &AccessSequence,
    dbcs: usize,
    capacity: usize,
    cost: CostModel,
    config: RandomWalkConfig,
) -> Result<(Placement, u64), PlacementError> {
    let engine = FitnessEngine::new(seq, cost);
    search_with_engine(&engine, dbcs, capacity, config)
}

/// Like [`search`], but evaluating through a caller-owned
/// [`FitnessEngine`] (whose trace and cost model are used).
///
/// Candidates are generated sequentially from the seeded RNG and each is
/// costed as it is drawn; the best placement (earliest, on ties) is
/// identical for any engine mode.
///
/// # Errors
///
/// Returns [`PlacementError`] if the variables cannot fit the geometry.
pub fn search_with_engine(
    engine: &FitnessEngine<'_>,
    dbcs: usize,
    capacity: usize,
    config: RandomWalkConfig,
) -> Result<(Placement, u64), PlacementError> {
    let out = run_budgeted(
        engine,
        dbcs,
        capacity,
        config.seed,
        Budget::evals(config.iterations as u64),
        None,
    )?;
    Ok((out.placement, out.cost))
}

/// Budget-driven *anytime* random walk: samples until the [`Budget`] is
/// exhausted (or the race asks this lane to stop), returning the best
/// placement with its telemetry. With `Budget::evals(n)` this is
/// bit-identical to [`search_with_engine`] at `n` iterations.
///
/// When racing, improvements are published to the shared incumbent as they
/// are found; the trajectory never *reads* the incumbent (see the
/// determinism contract in [`crate::search`]).
///
/// # Errors
///
/// Returns [`PlacementError`] if the variables cannot fit the geometry.
pub fn run_budgeted(
    engine: &FitnessEngine<'_>,
    dbcs: usize,
    capacity: usize,
    seed: u64,
    budget: Budget,
    race: Option<(&RaceControl, usize)>,
) -> Result<SearchOutcome, PlacementError> {
    let vars = engine.accessed_vars();
    check_fit(vars.len(), dbcs, capacity)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut meter = crate::search::meter_for(budget, race);
    let mut best: Option<(Vec<Vec<VarId>>, u64)> = None;
    // One candidate buffer, refilled in place for every draw (its per-DBC
    // lists and the shuffle scratch keep their capacity); only an
    // *improvement* is cloned out, so the steady-state loop allocates
    // nothing per candidate.
    let mut lists: Vec<Vec<VarId>> = Vec::new();
    let mut shuffle_buf: Vec<VarId> = Vec::new();
    let mut scratch = engine.scratch();
    // At least one batch always runs (the result must be reportable even
    // under an already-expired deadline), hence the loop-with-break shape.
    loop {
        let n = (BATCH as u64).min(meter.remaining_evals()).max(1);
        for _ in 0..n {
            random_assignment_into(vars, dbcs, capacity, &mut rng, &mut lists, &mut shuffle_buf);
            let c = engine.total_cost_with(&lists, &mut scratch);
            meter.charge(1);
            if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                meter.note_cost(c);
                match &mut best {
                    Some((b, bc)) => {
                        b.clone_from(&lists);
                        *bc = c;
                    }
                    None => best = Some((lists.clone(), c)),
                }
                crate::search::race_publish(race, c, &lists, meter.evals());
            }
        }
        if best.as_ref().is_some_and(|(_, c)| *c == 0) {
            break; // a zero-cost placement cannot be improved
        }
        if meter.exhausted() || crate::search::race_stopped(race) {
            break;
        }
    }
    let Some((lists, cost)) = best else {
        unreachable!("the first batch always costs at least one candidate")
    };
    Ok(SearchOutcome {
        placement: Placement::from_dbc_lists(lists),
        cost,
        evals: meter.evals(),
        evals_at_best: meter.evals_at_best(),
        time_to_best: meter.time_to_best(),
        elapsed: meter.elapsed(),
        stop: meter.stop_cause(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    #[test]
    fn finds_valid_placement() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (p, c) = search(
            &seq,
            2,
            512,
            CostModel::single_port(),
            RandomWalkConfig::quick(),
        )
        .unwrap();
        p.validate(&seq, 512).unwrap();
        assert!(c < 100); // sanity: random search finds something reasonable
    }

    #[test]
    fn deterministic_given_seed() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let cfg = RandomWalkConfig::quick().with_seed(3);
        let a = search(&seq, 2, 512, CostModel::single_port(), cfg).unwrap();
        let b = search(&seq, 2, 512, CostModel::single_port(), cfg).unwrap();
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn more_iterations_never_hurt() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let small = search(
            &seq,
            2,
            512,
            CostModel::single_port(),
            RandomWalkConfig {
                iterations: 10,
                seed: 5,
            },
        )
        .unwrap();
        let large = search(
            &seq,
            2,
            512,
            CostModel::single_port(),
            RandomWalkConfig {
                iterations: 1000,
                seed: 5,
            },
        )
        .unwrap();
        assert!(large.1 <= small.1);
    }

    #[test]
    fn rejects_impossible_geometry() {
        let seq = AccessSequence::parse("a b c").unwrap();
        assert!(search(
            &seq,
            1,
            2,
            CostModel::single_port(),
            RandomWalkConfig::quick()
        )
        .is_err());
    }

    #[test]
    fn paper_budget_matches_ga_bound() {
        // 60 000 >= mu + lambda * generations of the paper GA.
        let ga = crate::ga::GaConfig::paper();
        assert!(RandomWalkConfig::paper().iterations >= ga.max_evaluations() / 2);
    }
}
