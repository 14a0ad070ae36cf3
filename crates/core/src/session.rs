//! Reusable engine sessions: solve many queries against one warm
//! [`FitnessEngine`]; see [`Session`].

use crate::error::PlacementError;
use crate::eval::{EngineStats, FitnessEngine};
use crate::placement::Placement;
use crate::pool::WorkerPool;
use crate::search::{self, StopCause};
use crate::strategy::{DmaSplit, PlacementProblem, Solution, Strategy, StrategyKind};
use rtm_trace::VarId;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The composite heuristics every search starts from, in the order they
/// enter the stable best-first sort of [`Session::heuristic_seeds`].
const SEED_KINDS: [StrategyKind; 4] = [
    StrategyKind::AfdOfu,
    StrategyKind::DmaOfu,
    StrategyKind::DmaChen,
    StrategyKind::DmaSr,
];

/// A heuristic's answer as a session keeps it: its DBC lists laid end to
/// end, and its per-DBC shifts. A [`Placement`] built from the lists adds
/// a location table of 24 bytes per variable, so the store holds neither
/// it nor one allocation per list: two exact-size blocks per answer. On
/// `serve-hot` that keeps peak RSS at the level of recomputing every
/// answer, where one vector per list raised it by 17%.
#[derive(Debug)]
struct Answer {
    /// Every DBC's variables, DBC after DBC.
    vars: Box<[VarId]>,
    /// Per DBC: where its list ends in `vars`, and its shifts.
    dbcs: Box<[(usize, u64)]>,
}

impl Answer {
    fn new(placement: &Placement, per_dbc_shifts: &[u64]) -> Self {
        let lists = placement.dbc_lists();
        let mut vars = Vec::with_capacity(placement.var_count());
        let mut dbcs = Vec::with_capacity(lists.len());
        for (list, &shifts) in lists.iter().zip(per_dbc_shifts) {
            vars.extend_from_slice(list);
            dbcs.push((vars.len(), shifts));
        }
        Self {
            vars: vars.into_boxed_slice(),
            dbcs: dbcs.into_boxed_slice(),
        }
    }

    fn placement(&self) -> Placement {
        let mut start = 0;
        Placement::from_dbc_lists(
            self.dbcs
                .iter()
                .map(|&(end, _)| {
                    let list = self.vars[start..end].to_vec();
                    start = end;
                    list
                })
                .collect(),
        )
    }

    fn per_dbc_shifts(&self) -> Vec<u64> {
        self.dbcs.iter().map(|&(_, shifts)| shifts).collect()
    }

    fn shifts(&self) -> u64 {
        self.dbcs.iter().map(|&(_, shifts)| shifts).sum()
    }
}

/// A reusable solve handle: one problem, one lazily built warm engine, any
/// number of queries.
///
/// A session owns the trace (shared via [`Arc`]), builds the engine
/// **once** (lazily — pure-heuristic solves never pay for it), and keeps it
/// warm across any number of [`solve`](Session::solve) calls. A search
/// strategy runs through [`search::run`](crate::search::run), the dispatch
/// a streamed CLI solve uses too, and `PlacementProblem::solve` routes
/// through a transient one-shot session, so there is exactly one solve
/// path in the crate — the warm path *is* the cold path, just with caches
/// already populated.
///
/// # Heuristic answers
///
/// The deterministic heuristics are pure functions of the trace and the
/// geometry, so a session answers each heuristic kind at most once. The
/// first request for a kind computes and costs it and keeps its DBC lists
/// and per-DBC shifts (not the whole [`Solution`]); every later request
/// rebuilds the `Solution` from them. A capacity error is kept the same
/// way and returned again. The search seeds
/// ([`heuristic_seeds`](Session::heuristic_seeds)) are four of these
/// answers (AFD-OFU, DMA-OFU, DMA-Chen, DMA-SR), drawn from the same
/// store and computed together on one DMA distribution and split, so a
/// heuristic request and a search's seeds never compute the same
/// heuristic twice, whichever comes first. The store holds at most one
/// answer per heuristic kind: a few `VarId` lists and shift counts per
/// session.
///
/// # Warm ≡ cold bit-identity
///
/// A warm solve returns **bit-identical** results to a cold solve of the
/// same query: every cached per-DBC cost is a pure function of the list's
/// content (`DESIGN.md` §7), the kept heuristic answers and seeds are
/// deterministic functions of the trace, and no search trajectory ever
/// reads engine telemetry. What changes is only *work*: the second solve
/// of an identical query performs strictly fewer `dbc_recomputations`
/// (pinned by a regression test). [`Solution::engine_stats`] reports
/// **per-solve** deltas ([`EngineStats::since`]), so callers still see
/// each query's own cache behavior even though the underlying counters
/// accumulate.
///
/// # Sharing and concurrency
///
/// `Session` is `Send + Sync`: the engine's memo is one mutex, its
/// counters are atomics and each kept answer is written once, so
/// concurrent `solve` calls on one shared session are safe — and, because
/// caches can change only *when* a value is computed, never *what*, each
/// concurrent solve is bit-identical to the same solve run alone. A server
/// front end caches `Arc<Session>` per (trace fingerprint, geometry) and
/// lets requests race freely; with
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
    /// The heuristic answers, indexed by `StrategyKind as usize` and
    /// written the first time a kind is asked for; a search kind's slot
    /// holds `None`.
    answers: [OnceLock<Option<Result<Answer, PlacementError>>>; StrategyKind::ALL.len()],
    /// The seed placements, built from `answers` on first use.
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
            answers: std::array::from_fn(|_| OnceLock::new()),
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

    /// The four composite-heuristic seed placements, best-first (stably,
    /// by shift cost), as [`PlacementProblem::heuristic_seeds`] defines
    /// them. Built on first use from the session's heuristic answers —
    /// the DMA-based ones computed together on one DMA distribution and
    /// split — and reused by every later search-strategy solve.
    pub fn heuristic_seeds(&self) -> &[Placement] {
        self.seeds.get_or_init(|| {
            let dma = OnceCell::new();
            let mut scored: Vec<(u64, Placement)> = SEED_KINDS
                .iter()
                .filter_map(|&kind| match self.answer(kind, &dma) {
                    Some(Ok(answer)) => Some((answer.shifts(), answer.placement())),
                    _ => None,
                })
                .collect();
            scored.sort_by_key(|(shifts, _)| *shifts);
            scored.into_iter().map(|(_, p)| p).collect()
        })
    }

    /// The kept answer of heuristic `kind`, computing and costing it on
    /// the first request (sharing `dma` with the other DMA orders asked
    /// for alongside it); `None` for a search kind.
    fn answer(
        &self,
        kind: StrategyKind,
        dma: &OnceCell<Result<DmaSplit, PlacementError>>,
    ) -> Option<&Result<Answer, PlacementError>> {
        self.answers[kind as usize]
            .get_or_init(|| {
                let placement = self.problem.heuristic(kind, dma)?;
                Some(
                    placement
                        .map(|placement| Answer::new(&placement, &self.per_dbc_shifts(&placement))),
                )
            })
            .as_ref()
    }

    /// Deliberately poisons the warm engine's memo lock (fault injection —
    /// `--features faults` only; a no-op before the engine exists). The
    /// memo recovers by clear-and-rebuild and results are unchanged,
    /// which is exactly what the live-session fault tests pin.
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
    /// [type docs](Session)), and a repeated heuristic is not recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the variables cannot fit the
    /// geometry (`vars > q × N`).
    pub fn solve(&self, strategy: &Strategy) -> Result<Solution, PlacementError> {
        let solution = match self.answer(strategy.kind(), &OnceCell::new()) {
            // The deterministic heuristics never evaluate fitness: they run
            // straight off the trace and must not force an engine build.
            Some(answer) => {
                let answer = answer.as_ref().map_err(Clone::clone)?;
                unsearched(answer.placement(), answer.per_dbc_shifts())
            }
            None => {
                let problem = &self.problem;
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
                let per_dbc_shifts = self.per_dbc_shifts(&search.placement);
                Solution {
                    evals_consumed: search.evals,
                    time_to_best: search.time_to_best,
                    elapsed: search.elapsed,
                    stop: search.stop,
                    lanes,
                    engine_stats: engine.stats().since(&before),
                    ..unsearched(search.placement, per_dbc_shifts)
                }
            }
        };
        self.solves.fetch_add(1, Ordering::Relaxed);
        Ok(solution)
    }

    /// `placement`'s shifts per DBC on the trace. The direct cost-model
    /// pass costs the same as one engine evaluation without forcing an
    /// engine build on the heuristic path.
    fn per_dbc_shifts(&self, placement: &Placement) -> Vec<u64> {
        self.problem
            .cost_model()
            .per_dbc_costs(placement, self.problem.seq().accesses())
    }
}

/// `placement` with its per-DBC shifts and a heuristic's zero search
/// telemetry.
fn unsearched(placement: Placement, per_dbc_shifts: Vec<u64>) -> Solution {
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

    const HEURISTICS: [Strategy; 7] = [
        Strategy::AfdNative,
        Strategy::AfdOfu,
        Strategy::DmaNative,
        Strategy::DmaOfu,
        Strategy::DmaChen,
        Strategy::DmaSr,
        Strategy::DmaMultiSr,
    ];

    /// The paper trace and a small expected-tier workload, each at every
    /// geometry of DBCs {1, 2, 4} × ports {1, 2} with the front ends'
    /// default capacity.
    fn problems() -> Vec<PlacementProblem> {
        let tier = rtm_offsetstone::TierWorkload::by_name("expected-dsp", 0.05)
            .unwrap()
            .generate();
        let mut problems = Vec::new();
        for seq in [AccessSequence::parse(PAPER_SEQ).unwrap(), tier] {
            let seq = Arc::new(seq);
            for dbcs in [1, 2, 4] {
                let capacity = crate::inter::default_capacity(dbcs, seq.vars().len());
                for ports in [1, 2] {
                    problems.push(
                        PlacementProblem::shared(seq.clone(), dbcs, capacity).with_ports(ports),
                    );
                }
            }
        }
        problems
    }

    /// The first solve of a heuristic computes and keeps its answer, the
    /// second rebuilds it from the store, and both equal a cold one-shot
    /// solve — also when the search seeds filled the store first.
    #[test]
    fn kept_heuristic_answers_equal_cold_solves() {
        for problem in problems() {
            let session = Session::new(problem.clone());
            let seeded = Session::new(problem.clone());
            let seeds = seeded.heuristic_seeds().to_vec();
            let at = (problem.dbcs(), problem.cost_model());
            for s in &HEURISTICS {
                let cold = problem.solve(s).unwrap();
                for round in ["first", "second"] {
                    assert_eq!(session.solve(s).unwrap(), cold, "{s} {round} {at:?}");
                    assert_eq!(seeded.solve(s).unwrap(), cold, "{s} {round} {at:?}");
                }
                assert!(session.answers[s.kind() as usize].get().is_some(), "{s}");
            }
            assert_eq!(seeded.heuristic_seeds(), &seeds[..]);
            assert_eq!(session.heuristic_seeds(), &seeds[..]);
            assert!(session.engine.get().is_none() && seeded.engine.get().is_none());
        }
    }

    #[test]
    fn a_kept_capacity_error_comes_back_on_every_call() {
        // Nine variables cannot fit one DBC of two locations.
        let p = PlacementProblem::new(AccessSequence::parse(PAPER_SEQ).unwrap(), 1, 2);
        let session = Session::new(p.clone());
        for s in &HEURISTICS {
            let cold = p.solve(s).unwrap_err();
            for _ in 0..3 {
                assert_eq!(session.solve(s).unwrap_err(), cold, "{s}");
            }
        }
        assert!(session.heuristic_seeds().is_empty());
        assert_eq!(session.solves(), 0);
    }

    #[test]
    fn a_search_after_heuristic_requests_equals_a_fresh_one() {
        let searches = [
            Strategy::Ga(GaConfig::quick()),
            Strategy::Sa(SaConfig::new(Budget::evals(300))),
            Strategy::Tabu(TabuConfig::new(Budget::evals(300))),
            Strategy::Portfolio(PortfolioConfig::new(Budget::evals(200))),
        ];
        // Every third geometry: both traces, 1 and 2 DBCs, 1 and 2 ports.
        for problem in problems().into_iter().step_by(3) {
            let session = Session::new(problem.clone());
            for s in &HEURISTICS {
                session.solve(s).unwrap();
            }
            for s in &searches {
                let warm = session.solve(s).unwrap();
                let fresh = Session::new(problem.clone()).solve(s).unwrap();
                assert_eq!(warm.placement, fresh.placement, "{s}");
                assert_eq!(warm.shifts, fresh.shifts, "{s}");
                assert_eq!(warm.per_dbc_shifts, fresh.per_dbc_shifts, "{s}");
                assert_eq!(warm.evals_consumed, fresh.evals_consumed, "{s}");
            }
            assert_eq!(session.heuristic_seeds(), problem.heuristic_seeds());
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
