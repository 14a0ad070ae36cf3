//! Reusable engine sessions: solve many queries against one warm
//! [`FitnessEngine`]; see [`Session`].

use crate::error::PlacementError;
use crate::eval::{EngineStats, FitnessEngine};
use crate::placement::Placement;
use crate::pool::WorkerPool;
use crate::search::{self, StopCause};
use crate::strategy::{PlacementProblem, Solution, Strategy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A reusable solve handle: one problem, one lazily built warm engine, any
/// number of queries.
///
/// A session owns the trace (shared via [`Arc`]), builds the engine
/// **once** (lazily — pure-heuristic solves never pay for it), and keeps it
/// warm across any number of [`solve`](Session::solve) calls. The
/// heuristic-seed placements the seeded searches start from are likewise
/// computed once and cached. A search strategy runs through
/// [`search::run`](crate::search::run), the dispatch a streamed CLI solve
/// uses too, and `PlacementProblem::solve` routes through a transient
/// one-shot session, so there is exactly one solve path in the crate — the
/// warm path *is* the cold path, just with caches already populated.
///
/// # Warm ≡ cold bit-identity
///
/// A warm solve returns **bit-identical** results to a cold solve of the
/// same query: every cached per-DBC cost is a pure function of the list's
/// content (`DESIGN.md` §7), the cached heuristic seeds are deterministic
/// functions of the trace, and no search trajectory ever reads engine
/// telemetry. What changes is only *work*: the second solve of an identical
/// query performs strictly fewer `dbc_recomputations` (pinned by a
/// regression test). [`Solution::engine_stats`] reports **per-solve**
/// deltas ([`EngineStats::since`]), so callers still see each query's own
/// cache behavior even though the underlying counters accumulate.
///
/// # Sharing and concurrency
///
/// `Session` is `Send + Sync`: each engine cache is one mutex and
/// its counters are atomics, so concurrent `solve` calls on one shared
/// session are safe — and, because caches can change only *when* a value is
/// computed, never *what*, each concurrent solve is bit-identical to the
/// same solve run alone. A server front end caches `Arc<Session>` per
/// (trace fingerprint, geometry) and lets requests race freely; with
/// [`with_worker_pool`](Session::with_worker_pool) every session draws
/// threads from one global [`WorkerPool`] so concurrent requests cannot
/// oversubscribe the host.
#[derive(Debug)]
pub struct Session {
    problem: PlacementProblem,
    /// Global pool override: engines built by this session run on it
    /// instead of a private per-engine pool.
    shared_pool: Option<Arc<WorkerPool>>,
    /// The warm engine, built on the first solve that needs one.
    engine: OnceLock<FitnessEngine<'static>>,
    /// The heuristic seed placements, computed once per session.
    seeds: OnceLock<Vec<Placement>>,
    solves: AtomicU64,
}

impl Session {
    /// Creates a session over `problem`. Construction is cheap (the trace
    /// is shared, not copied); the engine is built lazily on the first
    /// solve that evaluates fitness.
    pub fn new(problem: PlacementProblem) -> Self {
        Self {
            problem,
            shared_pool: None,
            engine: OnceLock::new(),
            seeds: OnceLock::new(),
            solves: AtomicU64::new(0),
        }
    }

    /// Runs this session's engine on a shared [`WorkerPool`] (a server's
    /// global pool) instead of a private one. Must be called before the
    /// first solve — the engine is built once and keeps its pool.
    #[must_use]
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.shared_pool = Some(pool);
        self
    }

    /// The problem this session answers queries about.
    pub fn problem(&self) -> &PlacementProblem {
        &self.problem
    }

    /// Number of [`solve`](Self::solve) calls completed so far.
    pub fn solves(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// The session's warm engine, building it on first use.
    pub fn engine(&self) -> &FitnessEngine<'static> {
        self.engine.get_or_init(|| {
            let engine =
                FitnessEngine::shared(self.problem.seq_shared(), self.problem.cost_model())
                    .with_threads(self.problem.threads());
            match &self.shared_pool {
                Some(pool) => engine.with_worker_pool(pool.clone()),
                None => engine,
            }
        })
    }

    /// Cumulative engine counters over the whole session (all-zero until
    /// the first search-strategy solve builds the engine). Per-solve deltas
    /// are reported in each [`Solution::engine_stats`].
    pub fn engine_stats(&self) -> EngineStats {
        self.engine
            .get()
            .map(FitnessEngine::stats)
            .unwrap_or_default()
    }

    /// The four composite-heuristic seed placements, best-first — computed
    /// on first use and reused by every subsequent search-strategy solve
    /// (they are a deterministic function of the trace and geometry).
    pub fn heuristic_seeds(&self) -> &[Placement] {
        self.seeds.get_or_init(|| self.problem.heuristic_seeds())
    }

    /// Deliberately poisons the warm engine's cache locks (fault
    /// injection — `--features faults` only; a no-op before the engine
    /// exists). Each cache recovers by clear-and-rebuild and results are
    /// unchanged, which is exactly what the live-session fault tests pin.
    #[cfg(feature = "faults")]
    pub fn poison_caches(&self) {
        if let Some(engine) = self.engine.get() {
            engine.poison_caches();
        }
    }

    /// Solves the problem with `strategy` on the warm engine.
    ///
    /// Bit-identical to a cold `PlacementProblem::solve` of the same
    /// query; repeat queries do strictly less evaluation work (see the
    /// [type docs](Session)).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the variables cannot fit the
    /// geometry (`vars > q × N`).
    pub fn solve(&self, strategy: &Strategy) -> Result<Solution, PlacementError> {
        let problem = &self.problem;
        let solution = match problem.solve_heuristic(strategy)? {
            // The deterministic heuristics never evaluate fitness: they run
            // straight off the trace and must not force an engine build.
            Some(placement) => self.costed(placement),
            None => {
                let engine = self.engine();
                let before = engine.stats();
                let (search, lanes) = search::run(
                    strategy,
                    engine,
                    problem.dbcs(),
                    problem.capacity(),
                    problem.subarrays(),
                    || self.heuristic_seeds(),
                )?;
                Solution {
                    evals_consumed: search.evals,
                    time_to_best: search.time_to_best,
                    elapsed: search.elapsed,
                    stop: search.stop,
                    lanes,
                    engine_stats: engine.stats().since(&before),
                    ..self.costed(search.placement)
                }
            }
        };
        self.solves.fetch_add(1, Ordering::Relaxed);
        Ok(solution)
    }

    /// `placement` costed on the trace, with a heuristic's zero search
    /// telemetry. The direct cost-model pass costs the same as one engine
    /// evaluation without forcing an engine build on the heuristic path.
    fn costed(&self, placement: Placement) -> Solution {
        let per_dbc_shifts = self
            .problem
            .cost_model()
            .per_dbc_costs(&placement, self.problem.seq().accesses());
        Solution {
            shifts: per_dbc_shifts.iter().sum(),
            placement,
            per_dbc_shifts,
            evals_consumed: 0,
            time_to_best: Duration::ZERO,
            elapsed: Duration::ZERO,
            stop: StopCause::Finished,
            lanes: Vec::new(),
            engine_stats: EngineStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::GaConfig;
    use crate::random_walk::RandomWalkConfig;
    use crate::search::{Budget, PortfolioConfig, SaConfig, TabuConfig};
    use rtm_trace::AccessSequence;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    fn problem(dbcs: usize) -> PlacementProblem {
        PlacementProblem::new(AccessSequence::parse(PAPER_SEQ).unwrap(), dbcs, 512)
    }

    /// The bugfix regression: a second solve of the identical query on a
    /// warm session returns the bit-identical `Solution` while performing
    /// strictly fewer per-DBC recomputations.
    #[test]
    fn warm_solve_is_bit_identical_and_strictly_cheaper() {
        let session = Session::new(problem(2));
        for strategy in [
            Strategy::Ga(GaConfig::quick()),
            Strategy::Sa(SaConfig::new(Budget::evals(400))),
            Strategy::Tabu(TabuConfig::new(Budget::evals(400))),
            Strategy::Portfolio(PortfolioConfig::new(Budget::evals(300))),
        ] {
            let cold = session.solve(&strategy).unwrap();
            let warm = session.solve(&strategy).unwrap();
            assert_eq!(cold.placement, warm.placement, "{strategy}");
            assert_eq!(cold.shifts, warm.shifts, "{strategy}");
            assert_eq!(cold.per_dbc_shifts, warm.per_dbc_shifts, "{strategy}");
            assert_eq!(cold.evals_consumed, warm.evals_consumed, "{strategy}");
            assert!(
                warm.engine_stats.dbc_recomputations < cold.engine_stats.dbc_recomputations,
                "{strategy}: warm {} !< cold {}",
                warm.engine_stats.dbc_recomputations,
                cold.engine_stats.dbc_recomputations
            );
        }
    }

    /// A warm session agrees bit-exactly with the one-shot
    /// `PlacementProblem::solve` path for every strategy kind.
    #[test]
    fn session_matches_one_shot_solve() {
        let p = problem(2);
        let session = Session::new(p.clone());
        let mut strategies = vec![
            Strategy::Sa(SaConfig::new(Budget::evals(300))),
            Strategy::Tabu(TabuConfig::new(Budget::evals(300))),
            Strategy::Portfolio(PortfolioConfig::new(Budget::evals(200))),
            Strategy::AfdNative,
            Strategy::DmaNative,
            Strategy::DmaMultiSr,
        ];
        strategies.extend(Strategy::evaluation_set(
            GaConfig::quick(),
            RandomWalkConfig::quick(),
        ));
        // Warm the session first so the comparison exercises warm ≡ cold.
        let _ = session.solve(&Strategy::Ga(GaConfig::quick())).unwrap();
        for s in &strategies {
            let warm = session.solve(s).unwrap();
            let cold = p.solve(s).unwrap();
            assert_eq!(warm.placement, cold.placement, "{s}");
            assert_eq!(warm.shifts, cold.shifts, "{s}");
            assert_eq!(warm.per_dbc_shifts, cold.per_dbc_shifts, "{s}");
        }
    }

    #[test]
    fn heuristic_solves_never_build_the_engine() {
        let session = Session::new(problem(2));
        for s in [Strategy::AfdOfu, Strategy::DmaSr, Strategy::DmaChen] {
            session.solve(&s).unwrap();
        }
        assert_eq!(session.engine_stats(), EngineStats::default());
        assert!(session.engine.get().is_none(), "engine built eagerly");
        assert_eq!(session.solves(), 3);
    }

    #[test]
    fn per_solve_stats_are_deltas_not_cumulative() {
        let session = Session::new(problem(2));
        let s = Strategy::Sa(SaConfig::new(Budget::evals(300)));
        let a = session.solve(&s).unwrap();
        let b = session.solve(&s).unwrap();
        let cumulative = session.engine_stats();
        assert_eq!(
            a.engine_stats.evaluations + b.engine_stats.evaluations,
            cumulative.evaluations
        );
        assert_eq!(
            a.engine_stats.dbc_recomputations + b.engine_stats.dbc_recomputations,
            cumulative.dbc_recomputations
        );
    }

    #[test]
    fn sessions_share_a_global_worker_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let a = Session::new(problem(2)).with_worker_pool(pool.clone());
        let b = Session::new(problem(4)).with_worker_pool(pool.clone());
        let s = Strategy::Ga(GaConfig::quick());
        let ra = a.solve(&s).unwrap();
        let rb = b.solve(&s).unwrap();
        // Both engines run on the same pool object...
        assert!(std::ptr::eq(a.engine().pool(), &*pool));
        assert!(std::ptr::eq(b.engine().pool(), &*pool));
        // ...and pool sharing never changes results.
        assert_eq!(ra.placement, problem(2).solve(&s).unwrap().placement);
        assert_eq!(rb.placement, problem(4).solve(&s).unwrap().placement);
    }

    #[test]
    fn concurrent_solves_on_one_session_are_bit_identical() {
        let session = Arc::new(Session::new(problem(2)));
        let s = Strategy::Sa(SaConfig::new(Budget::evals(300)));
        let reference = session.solve(&s).unwrap();
        let results: Vec<Solution> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let session = session.clone();
                    let s = s.clone();
                    scope.spawn(move || session.solve(&s).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r.placement, reference.placement);
            assert_eq!(r.shifts, reference.shifts);
        }
    }

    #[test]
    fn session_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }
}
