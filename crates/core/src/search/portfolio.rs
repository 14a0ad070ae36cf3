//! The anytime portfolio: N solver lanes racing one budget on the
//! engine's shared [`WorkerPool`](crate::pool::WorkerPool) with a shared
//! incumbent.
//!
//! Each lane (SA / tabu / GA, plus the random walk when named) is one
//! coarse work item on the pool, racing against the **same per-lane budget** with a
//! deterministic per-lane seed derived from the portfolio seed
//! ([`PortfolioConfig::lane_seed`]). Lanes publish improvements to the
//! shared [`RaceControl`] incumbent — never reading it back — and the
//! winner is selected from the finished lane outcomes by
//! `(cost, lane index)`. Under a deterministic budget the whole race is
//! therefore **bit-identical** for any thread count; under a wall-clock
//! budget the incumbent makes the race *anytime* (see the determinism
//! contract in the [module docs](super)).
//!
//! The budget is **per lane**: a `Budget::evals(n)` portfolio gives every
//! lane up to `n` evaluations (racing buys wall-clock parallelism, not an
//! eval split), so the portfolio's best can never lose to any of its lanes
//! run standalone with the same budget and lane seed — a one-lane
//! portfolio degenerates to exactly the underlying solver.
//!
//! # Fault isolation and the degradation contract
//!
//! Every lane body runs under [`std::panic::catch_unwind`]: a panicking
//! lane is recorded as [`LaneStatus::Panicked`] and the race continues on
//! the surviving lanes. Under a wall-clock budget the race's
//! [`CancelToken`](crate::CancelToken) carries the deadline and reads as
//! cancelled once it passes; every lane meter, pool worker and injected
//! stall polls it cooperatively — so the portfolio returns within
//! `deadline + `[`PortfolioConfig::grace`] even when lanes misbehave. If
//! *every* lane dies the best **published incumbent** is still returned
//! (as a degraded result, see [`PortfolioOutcome::degraded`]); only when
//! no lane survived *and* nothing was ever published does
//! [`Portfolio::run_with_engine`] report
//! [`PlacementError::NoSurvivingLane`]. `DESIGN.md` §9 states the full
//! contract.

use super::{Budget, RaceControl, RaceEvent, SaConfig, SearchOutcome, StopCause, TabuConfig};
use super::{SimulatedAnnealing, TabuSearch};
use crate::error::PlacementError;
use crate::eval::FitnessEngine;
use crate::ga::{GaConfig, GeneticPlacer};
use crate::inter::check_fit;
use crate::placement::Placement;
use crate::random_walk;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One lane kind of a portfolio race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneSpec {
    /// Simulated annealing ([`SimulatedAnnealing`]).
    Sa,
    /// Tabu search ([`TabuSearch`]).
    Tabu,
    /// Budget-driven genetic algorithm ([`GeneticPlacer::run_budgeted`]).
    Ga,
    /// Budget-driven random walk ([`random_walk::run_budgeted`]).
    RandomWalk,
}

impl LaneSpec {
    /// Every lane kind, in lane order: the names [`parse`](Self::parse)
    /// accepts and error messages list. Not the default race
    /// ([`DEFAULT`](Self::DEFAULT)).
    pub const ALL: [LaneSpec; 4] = [
        LaneSpec::Sa,
        LaneSpec::Tabu,
        LaneSpec::Ga,
        LaneSpec::RandomWalk,
    ];

    /// The lanes [`PortfolioConfig::new`] races: SA, tabu and the GA. The
    /// random walk is the paper's baseline for the GA (§III-C), not a
    /// contender: it won none of the races in `BENCH_search.json`, so a
    /// default race does not pay for it. `--lanes` and `lanes=` can still
    /// name it. Its index in [`ALL`](Self::ALL) was the last, so dropping it
    /// leaves every other lane's seed and trajectory unchanged.
    pub const DEFAULT: [LaneSpec; 3] = [LaneSpec::Sa, LaneSpec::Tabu, LaneSpec::Ga];

    /// Stable lane name used in tables, traces and the CLI `--lanes`
    /// option.
    pub fn name(self) -> &'static str {
        match self {
            LaneSpec::Sa => "sa",
            LaneSpec::Tabu => "tabu",
            LaneSpec::Ga => "ga",
            LaneSpec::RandomWalk => "rw",
        }
    }

    /// Parses a lane name (`sa` | `tabu` | `ga` | `rw`).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|lane| lane.name() == name)
    }

    /// Parses a comma-separated lane list such as `sa,tabu` (blank entries
    /// skipped): the CLI's `--lanes` option and the daemon's `lanes=` key.
    ///
    /// # Errors
    ///
    /// [`PlacementError::UnknownLane`] for a name no lane has, and
    /// [`PlacementError::EmptyPortfolio`] for a list that names no lane.
    pub fn parse_list(list: &str) -> Result<Vec<Self>, PlacementError> {
        let lanes: Vec<Self> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| Self::parse(s).ok_or_else(|| PlacementError::UnknownLane(s.to_string())))
            .collect::<Result<_, _>>()?;
        if lanes.is_empty() {
            return Err(PlacementError::EmptyPortfolio);
        }
        Ok(lanes)
    }
}

impl std::fmt::Display for LaneSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a portfolio race.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioConfig {
    /// The lanes to race, in index order (duplicates allowed — they get
    /// distinct seeds).
    pub lanes: Vec<LaneSpec>,
    /// The per-lane budget.
    pub budget: Budget,
    /// Base RNG seed; each lane derives its own stream via
    /// [`lane_seed`](Self::lane_seed).
    pub seed: u64,
    /// Wind-down allowance after a wall-clock deadline: the contractual
    /// bound on how long cooperative cancellation may take to propagate
    /// (lane meters poll per evaluation, injected stalls poll every
    /// millisecond). A deadline race returns within `deadline + grace`.
    pub grace: Duration,
}

impl PortfolioConfig {
    /// The default race ([`LaneSpec::DEFAULT`]: SA, tabu, GA) under the
    /// given per-lane budget, seed `0xF0_2020`, 250 ms grace.
    pub fn new(budget: Budget) -> Self {
        Self {
            lanes: LaneSpec::DEFAULT.to_vec(),
            budget,
            seed: 0xF0_2020,
            grace: Duration::from_millis(250),
        }
    }

    /// A small evaluation budget for tests and `--quick` runs.
    pub fn quick() -> Self {
        Self::new(Budget::evals(2_000))
    }

    /// Returns the config with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with the given lanes.
    pub fn with_lanes(mut self, lanes: Vec<LaneSpec>) -> Self {
        self.lanes = lanes;
        self
    }

    /// Returns the config with a different wind-down allowance.
    pub fn with_grace(mut self, grace: Duration) -> Self {
        self.grace = grace;
        self
    }

    /// The deterministic seed of lane `lane`: a splitmix64 finalizer over
    /// `seed ⊕ (lane + 1)`, so lanes draw from independent `ChaCha`
    /// streams. Running a solver standalone with this seed reproduces the
    /// lane bit-for-bit (the degenerate-portfolio contract).
    pub fn lane_seed(&self, lane: usize) -> u64 {
        let mut z = (self.seed ^ (lane as u64 + 1)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// How one lane of a race ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneStatus {
    /// The lane ran its budget to completion (evals, stall or zero cost).
    Completed,
    /// The lane was stopped by the deadline/cancellation — or never
    /// started because the deadline fired before a worker claimed it.
    TimedOut,
    /// The lane panicked (or failed with a lane-local error) and was
    /// contained; the payload/message is kept for telemetry.
    Panicked(String),
}

impl LaneStatus {
    /// Stable status name used in reports and the CLI `--json` output.
    pub fn name(&self) -> &'static str {
        match self {
            LaneStatus::Completed => "completed",
            LaneStatus::TimedOut => "timed-out",
            LaneStatus::Panicked(_) => "panicked",
        }
    }
}

impl std::fmt::Display for LaneStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The finished state of one lane.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// Which solver ran in this lane.
    pub spec: LaneSpec,
    /// How the lane ended.
    pub status: LaneStatus,
    /// The lane's best result and telemetry — `None` when the lane
    /// panicked or never ran.
    pub outcome: Option<SearchOutcome>,
}

/// A flat per-lane summary for reports (the CLI `--json` `lanes` array).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneReport {
    /// Stable lane name ([`LaneSpec::name`]).
    pub name: &'static str,
    /// How the lane ended.
    pub status: LaneStatus,
    /// The lane's best cost, if it produced a result.
    pub cost: Option<u64>,
    /// Evaluations the lane consumed (0 when it produced no result).
    pub evals: u64,
}

/// Result of a portfolio race.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Index (into `lanes`) of the winning lane — lowest cost, earliest
    /// lane on ties. In a degraded race this is the lane that published
    /// the surviving incumbent.
    pub winner: usize,
    /// The best result of the race: the winning lane's outcome, or — when
    /// every lane died — a result synthesized from the published
    /// incumbent (see [`degraded`](Self::degraded)).
    pub best: SearchOutcome,
    /// Every lane's outcome, in lane order.
    pub lanes: Vec<LaneOutcome>,
    /// The incumbent's improvement log (the time-to-best trace).
    pub trace: Vec<RaceEvent>,
    /// Evaluations summed over all lanes that produced a result.
    pub total_evals: u64,
    /// Wall time of the whole race.
    pub elapsed: Duration,
}

impl PortfolioOutcome {
    /// The race's best result (see the [`best`](Self::best) field).
    pub fn best(&self) -> &SearchOutcome {
        &self.best
    }

    /// Whether the result is degraded: no lane survived to report an
    /// outcome, and `best` was recovered from the shared incumbent. The
    /// placement is still valid and the best ever published.
    pub fn degraded(&self) -> bool {
        self.lanes[self.winner].outcome.is_none()
    }

    /// Flat per-lane summaries, in lane order.
    pub fn lane_reports(&self) -> Vec<LaneReport> {
        self.lanes
            .iter()
            .map(|l| LaneReport {
                name: l.spec.name(),
                status: l.status.clone(),
                cost: l.outcome.as_ref().map(|o| o.cost),
                evals: l.outcome.as_ref().map_or(0, |o| o.evals),
            })
            .collect()
    }
}

/// Internal per-lane slot filled by the pool job (one per lane).
enum LaneSlot {
    /// The deadline fired before a worker claimed the lane.
    NotRun,
    /// The lane returned (its own `Ok`/`Err`).
    Finished(Result<SearchOutcome, PlacementError>),
    /// The lane panicked; the payload message was captured.
    Panicked(String),
}

/// Renders a `catch_unwind` payload for telemetry.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The portfolio driver.
#[derive(Debug, Clone)]
pub struct Portfolio {
    config: PortfolioConfig,
    subarrays: usize,
    #[cfg(feature = "faults")]
    faults: Option<super::faults::FaultPlan>,
}

impl Portfolio {
    /// Creates a driver with the given configuration.
    pub fn new(config: PortfolioConfig) -> Self {
        Self {
            config,
            subarrays: 1,
            #[cfg(feature = "faults")]
            faults: None,
        }
    }

    /// Declares the hierarchical geometry, forwarded to every lane.
    pub fn with_subarrays(mut self, subarrays: usize) -> Self {
        self.subarrays = subarrays.max(1);
        self
    }

    /// Attaches a deterministic fault-injection schedule (test-only; see
    /// [`crate::search::faults`]).
    #[cfg(feature = "faults")]
    pub fn with_faults(mut self, faults: super::faults::FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Races the configured lanes on the engine's worker pool; blocks
    /// until every lane has exhausted the budget, panicked, or the
    /// deadline fired (plus the cooperative wind-down, bounded by
    /// [`PortfolioConfig::grace`]).
    ///
    /// `seeds` are candidate start placements handed to every lane (the
    /// heuristic solutions, when called through
    /// [`Strategy`](crate::Strategy)).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the variables cannot fit the
    /// geometry, the configuration has no lanes, or — the only failure a
    /// *running* race can produce — every lane died before publishing an
    /// incumbent ([`PlacementError::NoSurvivingLane`]).
    pub fn run_with_engine(
        &self,
        engine: &FitnessEngine<'_>,
        dbcs: usize,
        capacity: usize,
        seeds: &[Placement],
    ) -> Result<PortfolioOutcome, PlacementError> {
        if self.config.lanes.is_empty() {
            return Err(PlacementError::EmptyPortfolio);
        }
        check_fit(engine.accessed_vars().len(), dbcs, capacity)?;
        let control = RaceControl::new(self.config.budget.deadline());
        #[cfg(feature = "faults")]
        let control = control.with_faults(self.faults.clone());
        // Lanes are coarse work items on the engine's pool: the lanes of
        // every engine sharing it (a daemon's warm sessions) draw from one
        // worker-token budget instead of oversubscribing the machine. Each
        // lane writes only its own slot and is a pure function of its
        // `(seed, budget)` pair, so results are independent of worker
        // count and claim order (`DESIGN.md` §8). Under a wall-clock
        // budget the race's token carries the deadline, so the pool stops
        // claiming lanes, and every lane meter and injected stall stops,
        // once it passes; no thread has to stand by to cancel it.
        let mut slots: Vec<LaneSlot> = self.config.lanes.iter().map(|_| LaneSlot::NotRun).collect();
        engine
            .pool()
            .run(&mut slots, Some(control.cancel_token()), |lane, slot| {
                let spec = self.config.lanes[lane];
                // Panic containment: a lane that unwinds is recorded and
                // the race continues. The closure only touches the shared
                // engine memo (poison-recovering), the race control
                // (poison-recovering) and this lane's slot, so broken
                // invariants cannot leak across the boundary.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    self.run_lane(spec, (&control, lane), engine, dbcs, capacity, seeds)
                }));
                *slot = match result {
                    Ok(res) => LaneSlot::Finished(res),
                    Err(payload) => LaneSlot::Panicked(panic_message(payload.as_ref())),
                };
            });
        // A near-zero deadline can cancel the pool before any worker
        // claims a lane. The portfolio must still report a placement, so
        // run the first lane inline once: every solver returns its best
        // even under an already-expired meter.
        if slots.iter().all(|slot| matches!(slot, LaneSlot::NotRun)) {
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.run_lane(
                    self.config.lanes[0],
                    (&control, 0),
                    engine,
                    dbcs,
                    capacity,
                    seeds,
                )
            }));
            slots[0] = match result {
                Ok(res) => LaneSlot::Finished(res),
                Err(payload) => LaneSlot::Panicked(panic_message(payload.as_ref())),
            };
        }

        let mut lanes = Vec::with_capacity(slots.len());
        for (spec, slot) in self.config.lanes.iter().zip(slots) {
            let (status, outcome) = match slot {
                LaneSlot::NotRun => (LaneStatus::TimedOut, None),
                LaneSlot::Panicked(msg) => (LaneStatus::Panicked(msg), None),
                LaneSlot::Finished(Err(e)) => {
                    (LaneStatus::Panicked(format!("lane failed: {e}")), None)
                }
                LaneSlot::Finished(Ok(out)) => {
                    let status = match out.stop {
                        StopCause::Deadline | StopCause::Cancelled => LaneStatus::TimedOut,
                        _ => LaneStatus::Completed,
                    };
                    (status, Some(out))
                }
            };
            lanes.push(LaneOutcome {
                spec: *spec,
                status,
                outcome,
            });
        }

        // Winner: lowest cost over the surviving lanes, earliest on ties.
        let mut winner_best: Option<(usize, SearchOutcome)> = None;
        for (i, lane) in lanes.iter().enumerate() {
            if let Some(out) = &lane.outcome {
                if winner_best.as_ref().is_none_or(|(_, b)| out.cost < b.cost) {
                    winner_best = Some((i, out.clone()));
                }
            }
        }
        let trace = control.trace();
        let (winner, best) = match winner_best {
            Some(pair) => pair,
            None => {
                // Degraded path: no lane survived, but the shared
                // incumbent may still hold the best placement any lane
                // published before dying. Synthesize its telemetry from
                // the improvement log (its last event *is* the incumbent:
                // costs strictly decrease).
                let Some((cost, placement, lane)) = control.best_placement() else {
                    return Err(PlacementError::NoSurvivingLane {
                        lanes: self
                            .config
                            .lanes
                            .iter()
                            .map(|spec| spec.name().to_string())
                            .collect(),
                    });
                };
                let event = trace.last();
                let best = SearchOutcome {
                    placement,
                    cost,
                    evals: event.map_or(0, |e| e.lane_evals),
                    evals_at_best: event.map_or(0, |e| e.lane_evals),
                    time_to_best: event.map_or(Duration::ZERO, |e| e.elapsed),
                    elapsed: control.elapsed(),
                    stop: StopCause::Cancelled,
                };
                (lane, best)
            }
        };
        let total_evals = lanes
            .iter()
            .filter_map(|l| l.outcome.as_ref())
            .map(|o| o.evals)
            .sum();
        Ok(PortfolioOutcome {
            winner,
            best,
            lanes,
            trace,
            total_evals,
            elapsed: control.elapsed(),
        })
    }

    /// Runs one lane with its derived seed against the shared control
    /// (`race` is the `(control, lane index)` pair).
    fn run_lane(
        &self,
        spec: LaneSpec,
        race: (&RaceControl, usize),
        engine: &FitnessEngine<'_>,
        dbcs: usize,
        capacity: usize,
        seeds: &[Placement],
    ) -> Result<SearchOutcome, PlacementError> {
        let seed = self.config.lane_seed(race.1);
        let budget = self.config.budget;
        #[cfg(feature = "faults")]
        if race
            .0
            .lane_faults(race.1)
            .is_some_and(|f| f.poisons_caches())
        {
            engine.poison_caches();
        }
        let race = Some(race);
        match spec {
            LaneSpec::Sa => SimulatedAnnealing::new(SaConfig::new(budget).with_seed(seed))
                .with_subarrays(self.subarrays)
                .run_in_race(engine, dbcs, capacity, seeds, race),
            LaneSpec::Tabu => TabuSearch::new(TabuConfig::new(budget).with_seed(seed))
                .with_subarrays(self.subarrays)
                .run_in_race(engine, dbcs, capacity, seeds, race),
            LaneSpec::Ga => GeneticPlacer::new(GaConfig::paper().with_seed(seed))
                .with_subarrays(self.subarrays)
                .run_budgeted(engine, dbcs, capacity, seeds, budget, race)
                .map(SearchOutcome::from),
            LaneSpec::RandomWalk => {
                random_walk::run_budgeted(engine, dbcs, capacity, seed, budget, race)
            }
        }
    }
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
    fn lane_seeds_are_distinct_and_stable() {
        let cfg = PortfolioConfig::quick().with_seed(42);
        let seeds: Vec<u64> = (0..4).map(|i| cfg.lane_seed(i)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            cfg.lane_seed(0),
            PortfolioConfig::quick().with_seed(42).lane_seed(0)
        );
    }

    #[test]
    fn lane_spec_names_round_trip() {
        for spec in [
            LaneSpec::Sa,
            LaneSpec::Tabu,
            LaneSpec::Ga,
            LaneSpec::RandomWalk,
        ] {
            assert_eq!(LaneSpec::parse(spec.name()), Some(spec));
            assert_eq!(spec.to_string(), spec.name());
        }
        assert_eq!(LaneSpec::parse("bogus"), None);
        assert_eq!(
            LaneSpec::parse_list(" sa, rw ,"),
            Ok(vec![LaneSpec::Sa, LaneSpec::RandomWalk])
        );
        assert_eq!(
            LaneSpec::parse_list("sa,bogus"),
            Err(PlacementError::UnknownLane("bogus".into()))
        );
        assert_eq!(
            LaneSpec::parse_list(","),
            Err(PlacementError::EmptyPortfolio)
        );
    }

    #[test]
    fn lane_status_names_are_stable() {
        assert_eq!(LaneStatus::Completed.name(), "completed");
        assert_eq!(LaneStatus::TimedOut.name(), "timed-out");
        assert_eq!(LaneStatus::Panicked("boom".into()).name(), "panicked");
        assert_eq!(LaneStatus::Completed.to_string(), "completed");
    }

    #[test]
    fn winner_is_the_min_cost_earliest_lane() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
        let cfg = PortfolioConfig::new(Budget::evals(400)).with_seed(3);
        let out = Portfolio::new(cfg.clone())
            .run_with_engine(&engine, 2, 512, &seeds)
            .unwrap();
        assert_eq!(out.lanes.len(), 3);
        assert!(!out.degraded());
        let costs: Vec<u64> = out
            .lanes
            .iter()
            .map(|l| l.outcome.as_ref().unwrap().cost)
            .collect();
        let min = *costs.iter().min().unwrap();
        assert_eq!(out.best().cost, min);
        let first_min = costs.iter().position(|&c| c == min).unwrap();
        assert_eq!(out.winner, first_min);
        assert_eq!(
            out.total_evals,
            out.lanes
                .iter()
                .map(|l| l.outcome.as_ref().unwrap().evals)
                .sum::<u64>()
        );
    }

    #[test]
    fn eval_budget_lanes_report_completed() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
        let cfg = PortfolioConfig::new(Budget::evals(200)).with_seed(7);
        let out = Portfolio::new(cfg)
            .run_with_engine(&engine, 2, 512, &seeds)
            .unwrap();
        let reports = out.lane_reports();
        assert_eq!(reports.len(), 3);
        for (report, lane) in reports.iter().zip(&out.lanes) {
            assert_eq!(report.status, LaneStatus::Completed, "{} lane", report.name);
            assert_eq!(report.name, lane.spec.name());
            assert_eq!(report.cost, lane.outcome.as_ref().map(|o| o.cost));
            assert_eq!(report.evals, lane.outcome.as_ref().unwrap().evals);
        }
    }

    #[test]
    fn race_is_deterministic_across_runs() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 8);
        let cfg = PortfolioConfig::new(Budget::evals(600)).with_seed(5);
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
            assert_eq!(xo.cost, yo.cost, "{} lane", x.spec);
            assert_eq!(xo.placement, yo.placement);
            assert_eq!(xo.evals, yo.evals);
            assert_eq!(x.status, y.status);
        }
    }

    #[test]
    fn one_lane_portfolio_equals_the_standalone_solver() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 8);
        let budget = Budget::evals(500);
        let cfg = PortfolioConfig::new(budget)
            .with_seed(9)
            .with_lanes(vec![LaneSpec::Tabu]);
        let race = Portfolio::new(cfg.clone())
            .run_with_engine(&engine, 2, 8, &seeds)
            .unwrap();
        let solo = TabuSearch::new(TabuConfig::new(budget).with_seed(cfg.lane_seed(0)))
            .run_with_engine(&engine, 2, 8, &seeds)
            .unwrap();
        assert_eq!(race.best().cost, solo.cost);
        assert_eq!(race.best().placement, solo.placement);
        assert_eq!(race.best().evals, solo.evals);
    }

    #[test]
    fn empty_lanes_are_an_error() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let cfg = PortfolioConfig::quick().with_lanes(vec![]);
        assert!(matches!(
            Portfolio::new(cfg).run_with_engine(&engine, 2, 512, &[]),
            Err(PlacementError::EmptyPortfolio)
        ));
    }

    #[test]
    fn deadline_race_returns_a_valid_best() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
        let cfg = PortfolioConfig::new(Budget::wall_clock_ms(30));
        let out = Portfolio::new(cfg)
            .run_with_engine(&engine, 2, 512, &seeds)
            .unwrap();
        out.best().placement.validate(&seq, 512).unwrap();
        assert_eq!(engine.shift_cost(&out.best().placement), out.best().cost);
        assert!(out.elapsed >= out.best().time_to_best);
        // The incumbent trace is consistent: costs strictly decrease.
        for w in out.trace.windows(2) {
            assert!(w[1].cost < w[0].cost);
        }
    }

    #[test]
    fn zero_deadline_still_reports_a_placement() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let (engine, seeds) = engine_and_seeds(&seq, 2, 512);
        let cfg = PortfolioConfig::new(Budget::wall_clock(Duration::ZERO));
        let out = Portfolio::new(cfg)
            .run_with_engine(&engine, 2, 512, &seeds)
            .unwrap();
        out.best().placement.validate(&seq, 512).unwrap();
    }
}
