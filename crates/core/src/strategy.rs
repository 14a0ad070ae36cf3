use crate::cost::CostModel;
use crate::error::PlacementError;
use crate::eval::{EngineStats, FitnessEngine};
use crate::ga::GaConfig;
use crate::inter::{Afd, Dma, InterHeuristic};
use crate::intra::{Chen, IntraHeuristic, Ofu, ShiftsReduce};
use crate::placement::Placement;
use crate::random_walk::RandomWalkConfig;
use crate::search::{
    Budget, LaneReport, LaneSpec, PortfolioConfig, SaConfig, StopCause, TabuConfig,
};
use rtm_arch::ArrayGeometry;
use rtm_trace::{AccessSequence, VarId};
use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The single exhaustive strategy registry: every [`StrategyKind`], its
/// paper-table name, its CLI spelling, a one-line description, and whether
/// it belongs to the §IV evaluation set.
///
/// This macro is the *only* place a strategy is declared, so a new
/// strategy cannot be half-registered: [`Strategy::kind`] is an exhaustive
/// `match` (adding a [`Strategy`] variant without a kind is a compile
/// error), and [`Strategy::evaluation_set`] / the CLI listing derive from
/// [`StrategyKind::ALL`] (a kind cannot be silently missing from an
/// experiment row). It is also the only table of strategy names:
/// [`Strategy::from_cli`] looks a name up in [`StrategyKind::ALL`] for the
/// CLI and the daemon alike, and its exhaustive `match` makes a kind
/// without a constructor a compile error.
macro_rules! strategy_registry {
    ($( $kind:ident { name: $name:literal, cli: $cli:literal,
         evaluated: $evaluated:literal, desc: $desc:literal } ),+ $(,)?) => {
        /// Fieldless tag of a [`Strategy`] variant — the registry key.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum StrategyKind {
            $( #[doc = $desc] $kind, )+
        }

        impl StrategyKind {
            /// Every registered strategy kind, in registry order.
            pub const ALL: &'static [StrategyKind] = &[ $( StrategyKind::$kind, )+ ];

            /// Short, stable name used in experiment tables.
            pub fn name(self) -> &'static str {
                match self { $( StrategyKind::$kind => $name, )+ }
            }

            /// The name `rtm place --strategy` and the daemon's `strategy=`
            /// key take ([`Strategy::from_cli`]).
            pub fn cli_name(self) -> &'static str {
                match self { $( StrategyKind::$kind => $cli, )+ }
            }

            /// One-line description for `rtm strategies`.
            pub fn description(self) -> &'static str {
                match self { $( StrategyKind::$kind => $desc, )+ }
            }

            /// Whether the kind belongs to the paper's §IV evaluation set.
            pub fn in_evaluation_set(self) -> bool {
                match self { $( StrategyKind::$kind => $evaluated, )+ }
            }
        }
    };
}

strategy_registry! {
    AfdNative {
        name: "AFD", cli: "afd", evaluated: false,
        desc: "AFD inter-DBC distribution, deal order (Chen'16 baseline)"
    },
    AfdOfu {
        name: "AFD-OFU", cli: "afd-ofu", evaluated: true,
        desc: "AFD + order-of-first-use intra placement"
    },
    DmaNative {
        name: "DMA", cli: "dma", evaluated: false,
        desc: "DMA (Algorithm 1) with its native orders"
    },
    DmaOfu {
        name: "DMA-OFU", cli: "dma-ofu", evaluated: true,
        desc: "DMA + OFU on non-disjoint DBCs"
    },
    DmaChen {
        name: "DMA-Chen", cli: "dma-chen", evaluated: true,
        desc: "DMA + Chen's frequency-seeded grouping"
    },
    DmaSr {
        name: "DMA-SR", cli: "dma-sr", evaluated: true,
        desc: "DMA + ShiftsReduce (best heuristic, the default)"
    },
    DmaMultiSr {
        name: "DMA-Multi-SR", cli: "dma-multi-sr", evaluated: false,
        desc: "multi-chain DMA (paper's future work) + ShiftsReduce"
    },
    Ga {
        name: "GA", cli: "ga", evaluated: true,
        desc: "genetic algorithm, paper budget (mu=lambda=100, 200 gens)"
    },
    RandomWalk {
        name: "RW", cli: "rw", evaluated: true,
        desc: "random walk, 60000 samples"
    },
    Sa {
        name: "SA", cli: "sa", evaluated: false,
        desc: "anytime simulated annealing under --budget-evals/--budget-ms"
    },
    Tabu {
        name: "Tabu", cli: "tabu", evaluated: false,
        desc: "anytime tabu search under --budget-evals/--budget-ms"
    },
    Portfolio {
        name: "Portfolio", cli: "portfolio", evaluated: false,
        desc: "races --lanes (sa,tabu,ga,rw) against one budget, shared incumbent"
    },
}

/// The placement strategies evaluated in §IV of the paper, the two
/// "native" orders used in the Fig. 3 walkthrough, and the anytime search
/// stack (§8 of `DESIGN.md`).
///
/// | Variant | Inter-DBC | Intra-DBC |
/// |---|---|---|
/// | `AfdNative` | AFD | deal order (Fig. 3(c)) |
/// | `AfdOfu` | AFD | order of first use |
/// | `DmaNative` | DMA | access order / AFD order (Fig. 3(d)) |
/// | `DmaOfu` | DMA | OFU on non-disjoint DBCs |
/// | `DmaChen` | DMA | Chen on non-disjoint DBCs |
/// | `DmaSr` | DMA | ShiftsReduce on non-disjoint DBCs |
/// | `Ga` | joint (genetic algorithm) | joint |
/// | `RandomWalk` | random sampling | random sampling |
/// | `Sa` | joint (anytime annealing) | joint |
/// | `Tabu` | joint (anytime tabu search) | joint |
/// | `Portfolio` | joint (racing lanes) | joint |
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Strategy {
    /// AFD distribution with its native deal order.
    AfdNative,
    /// AFD distribution + OFU intra placement (the paper's baseline
    /// `AFD-OFU`).
    AfdOfu,
    /// DMA distribution with its native orders.
    DmaNative,
    /// DMA + OFU on non-disjoint DBCs (`DMA-OFU`).
    DmaOfu,
    /// DMA + Chen on non-disjoint DBCs (`DMA-Chen`).
    DmaChen,
    /// DMA + ShiftsReduce on non-disjoint DBCs (`DMA-SR`).
    DmaSr,
    /// Multi-chain DMA (the paper's §VI future-work extension) +
    /// ShiftsReduce on the leftover DBCs (`DMA-Multi-SR`).
    DmaMultiSr,
    /// Genetic algorithm (`GA`).
    Ga(GaConfig),
    /// Random-walk search (`RW`).
    RandomWalk(RandomWalkConfig),
    /// Anytime simulated annealing (`SA`).
    Sa(SaConfig),
    /// Anytime tabu search (`Tabu`).
    Tabu(TabuConfig),
    /// Anytime portfolio race (`Portfolio`).
    Portfolio(PortfolioConfig),
}

impl Strategy {
    /// The registry kind of this strategy.
    ///
    /// This `match` is deliberately exhaustive (no wildcard): adding a
    /// [`Strategy`] variant without registering a [`StrategyKind`] for it
    /// fails to compile here.
    pub fn kind(&self) -> StrategyKind {
        match self {
            Strategy::AfdNative => StrategyKind::AfdNative,
            Strategy::AfdOfu => StrategyKind::AfdOfu,
            Strategy::DmaNative => StrategyKind::DmaNative,
            Strategy::DmaOfu => StrategyKind::DmaOfu,
            Strategy::DmaChen => StrategyKind::DmaChen,
            Strategy::DmaSr => StrategyKind::DmaSr,
            Strategy::DmaMultiSr => StrategyKind::DmaMultiSr,
            Strategy::Ga(_) => StrategyKind::Ga,
            Strategy::RandomWalk(_) => StrategyKind::RandomWalk,
            Strategy::Sa(_) => StrategyKind::Sa,
            Strategy::Tabu(_) => StrategyKind::Tabu,
            Strategy::Portfolio(_) => StrategyKind::Portfolio,
        }
    }

    /// The six configurations of the paper's evaluation, with the given
    /// search budgets — derived from the registry
    /// ([`StrategyKind::in_evaluation_set`]), so a registered kind can
    /// never silently miss its experiment row.
    pub fn evaluation_set(ga: GaConfig, rw: RandomWalkConfig) -> Vec<Strategy> {
        StrategyKind::ALL
            .iter()
            .filter(|k| k.in_evaluation_set())
            .map(|k| Strategy::for_evaluation(*k, ga, rw))
            .collect()
    }

    /// Instantiates an evaluation-set kind with the harness budgets.
    ///
    /// Exhaustive over the registry: flipping a kind's `evaluated` flag
    /// without deciding its construction here is caught by the
    /// `unreachable!` (and by the registry round-trip test below).
    fn for_evaluation(kind: StrategyKind, ga: GaConfig, rw: RandomWalkConfig) -> Strategy {
        match kind {
            StrategyKind::AfdOfu => Strategy::AfdOfu,
            StrategyKind::DmaOfu => Strategy::DmaOfu,
            StrategyKind::DmaChen => Strategy::DmaChen,
            StrategyKind::DmaSr => Strategy::DmaSr,
            StrategyKind::Ga => Strategy::Ga(ga),
            StrategyKind::RandomWalk => Strategy::RandomWalk(rw),
            StrategyKind::AfdNative
            | StrategyKind::DmaNative
            | StrategyKind::DmaMultiSr
            | StrategyKind::Sa
            | StrategyKind::Tabu
            | StrategyKind::Portfolio => {
                unreachable!("{} is not in the evaluation set", kind.name())
            }
        }
    }

    /// Short, stable name used in experiment tables.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Resolves a [`StrategyKind::cli_name`], the name that both
    /// `rtm place --strategy` and the daemon's `strategy=` key take.
    ///
    /// SA, tabu and the portfolio search under `budget`, with `seed` in
    /// place of their default seed when given; `lanes`, a
    /// [`LaneSpec::parse_list`] list, replaces the portfolio's four default
    /// lanes. Every other strategy ignores all three: the heuristics are
    /// deterministic and GA/RW keep the paper's fixed budgets.
    ///
    /// # Errors
    ///
    /// [`PlacementError::UnknownStrategy`], listing every registered name,
    /// and the errors of [`LaneSpec::parse_list`].
    pub fn from_cli(
        name: &str,
        budget: Budget,
        seed: Option<u64>,
        lanes: Option<&str>,
    ) -> Result<Strategy, PlacementError> {
        let kind = StrategyKind::ALL
            .iter()
            .find(|k| k.cli_name() == name)
            .ok_or_else(|| PlacementError::UnknownStrategy(name.to_string()))?;
        Ok(match kind {
            StrategyKind::AfdNative => Strategy::AfdNative,
            StrategyKind::AfdOfu => Strategy::AfdOfu,
            StrategyKind::DmaNative => Strategy::DmaNative,
            StrategyKind::DmaOfu => Strategy::DmaOfu,
            StrategyKind::DmaChen => Strategy::DmaChen,
            StrategyKind::DmaSr => Strategy::DmaSr,
            StrategyKind::DmaMultiSr => Strategy::DmaMultiSr,
            StrategyKind::Ga => Strategy::Ga(GaConfig::paper()),
            StrategyKind::RandomWalk => Strategy::RandomWalk(RandomWalkConfig::paper()),
            StrategyKind::Sa => {
                let cfg = SaConfig::new(budget);
                Strategy::Sa(seed.map_or(cfg, |s| cfg.with_seed(s)))
            }
            StrategyKind::Tabu => {
                let cfg = TabuConfig::new(budget);
                Strategy::Tabu(seed.map_or(cfg, |s| cfg.with_seed(s)))
            }
            StrategyKind::Portfolio => {
                let mut cfg = PortfolioConfig::new(budget);
                if let Some(seed) = seed {
                    cfg = cfg.with_seed(seed);
                }
                if let Some(lanes) = lanes {
                    cfg.lanes = LaneSpec::parse_list(lanes)?;
                }
                Strategy::Portfolio(cfg)
            }
        })
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A solved placement: the layout plus its shift cost under the problem's
/// cost model, and the search telemetry of how it was found.
///
/// The telemetry fields are zero for the deterministic heuristics (they
/// perform no fitness evaluations); for the search strategies (`GA`, `RW`,
/// `SA`, `Tabu`, `Portfolio`) they report the consumed budget.
/// `time_to_best` is wall-clock and therefore machine-dependent even when
/// the placement itself is bit-reproducible — compare placements, shift
/// counts and `evals_consumed` across runs, not whole `Solution`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The placement.
    pub placement: Placement,
    /// Total shifts to serve the problem's trace.
    pub shifts: u64,
    /// Shifts per DBC (global DBC index for hierarchical problems).
    pub per_dbc_shifts: Vec<u64>,
    /// Fitness evaluations the solving strategy consumed (0 for the
    /// deterministic heuristics; summed over lanes for `Portfolio`).
    pub evals_consumed: u64,
    /// Wall time from search start to the first sighting of the returned
    /// placement (zero for the deterministic heuristics).
    pub time_to_best: Duration,
    /// Total wall time of the solving strategy (zero for the
    /// deterministic heuristics).
    pub elapsed: Duration,
    /// Why the strategy stopped ([`StopCause::Finished`] for the
    /// deterministic heuristics and fixed-iteration searches).
    pub stop: StopCause,
    /// Per-lane telemetry, non-empty only for `Portfolio` (name, status,
    /// cost, evals of every raced lane).
    pub lanes: Vec<LaneReport>,
    /// Cache/contention counters of the fitness engine that solved the
    /// problem (all-zero for the deterministic heuristics, which build no
    /// engine).
    pub engine_stats: EngineStats,
}

impl Solution {
    /// Shifts per subarray, grouping the global per-DBC counts by
    /// `dbcs_per_subarray` ([`PlacementProblem::dbcs_per_subarray`] for a
    /// problem built with [`PlacementProblem::for_array`]).
    ///
    /// # Panics
    ///
    /// Panics if `dbcs_per_subarray == 0`.
    pub fn per_subarray_shifts(&self, dbcs_per_subarray: usize) -> Vec<u64> {
        crate::cost::sum_per_subarray(&self.per_dbc_shifts, dbcs_per_subarray)
    }
}

/// A data-placement problem instance: a trace plus the RTM geometry
/// (number of DBCs `q`, locations per DBC `N`) and a cost model.
///
/// # Example
///
/// ```
/// use rtm_placement::{PlacementProblem, Strategy};
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("a b a b c c c a")?;
/// let problem = PlacementProblem::new(seq, 2, 64);
/// let sol = problem.solve(&Strategy::DmaSr)?;
/// assert!(sol.shifts <= problem.solve(&Strategy::AfdOfu)?.shifts);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    /// The trace, shared: cloning a problem (or handing it to a
    /// [`Session`](crate::Session)) never copies the access sequence.
    seq: Arc<AccessSequence>,
    dbcs: usize,
    capacity: usize,
    cost: CostModel,
    threads: usize,
    /// Subarray count of the hierarchical form; `1` = today's flat problem.
    subarrays: usize,
}

impl PlacementProblem {
    /// The DBC count of a query that names none: `rtm place --dbcs` and
    /// the daemon's `dbcs=` key both default to it.
    pub const DEFAULT_DBCS: usize = 4;

    /// The access ports per track of a query that names none (`--ports`,
    /// `ports=`): one, the paper's single-port track.
    pub const DEFAULT_PORTS: usize = 1;

    /// Creates a problem over `dbcs` DBCs of `capacity` locations with the
    /// default single-port cost model.
    pub fn new(seq: AccessSequence, dbcs: usize, capacity: usize) -> Self {
        Self::shared(Arc::new(seq), dbcs, capacity)
    }

    /// Like [`new`](Self::new), but over an already-shared trace: several
    /// problems (e.g. one per requested geometry in a server) can reference
    /// one parsed [`AccessSequence`] without copying it.
    pub fn shared(seq: Arc<AccessSequence>, dbcs: usize, capacity: usize) -> Self {
        Self {
            seq,
            dbcs,
            capacity,
            cost: CostModel::single_port(),
            threads: 0,
            subarrays: 1,
        }
    }

    /// Creates the hierarchical problem of an [`ArrayGeometry`]: variables
    /// are placed across `subarrays × dbcs_per_subarray` global DBCs, each
    /// offering the subarray's paper-faithful `locations_per_dbc`, under
    /// the array's port model.
    ///
    /// The shift-cost objective is separable per DBC and every subarray
    /// shares one track geometry, so the hierarchical problem *is* the flat
    /// problem over the global DBCs — which is what makes a one-subarray
    /// array degenerate bit-exactly to [`new`](Self::new) +
    /// [`with_ports`](Self::with_ports). The subarray count still matters
    /// to the searchers (the GA's subarray-migrate operator) and to
    /// per-subarray reporting.
    pub fn for_array(seq: AccessSequence, array: &ArrayGeometry) -> Self {
        Self::for_array_shared(Arc::new(seq), array)
    }

    /// [`for_array`](Self::for_array) over an already-shared trace.
    pub fn for_array_shared(seq: Arc<AccessSequence>, array: &ArrayGeometry) -> Self {
        Self {
            seq,
            dbcs: array.total_dbcs(),
            capacity: array.locations_per_dbc(),
            cost: CostModel::for_array(array),
            threads: 0,
            subarrays: array.subarrays(),
        }
    }

    /// Overrides the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Convenience for the paper's §V generalization axis: searches and
    /// scores under a multi-port model with `ports` access ports spread
    /// evenly over this problem's track length (= its capacity). `1` is
    /// the single-port default.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero or exceeds the capacity (more ports than
    /// domains on a track).
    pub fn with_ports(self, ports: usize) -> Self {
        let cost = if ports == 1 {
            CostModel::single_port()
        } else {
            CostModel::multi_port(ports, self.capacity)
        };
        self.with_cost_model(cost)
    }

    /// Sets the worker count of the engine's pool, on which a portfolio
    /// races its lanes (`0` = auto-detect). Results are bit-identical for
    /// any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The fitness engine for this problem's trace and cost model.
    pub fn engine(&self) -> FitnessEngine<'_> {
        FitnessEngine::new(&self.seq, self.cost).with_threads(self.threads)
    }

    /// The trace.
    pub fn seq(&self) -> &AccessSequence {
        &self.seq
    }

    /// The trace's shared handle (cheap clone; no sequence copy). This is
    /// what lets a [`Session`](crate::Session) build an engine that *owns*
    /// its trace and therefore outlives any particular borrow.
    pub fn seq_shared(&self) -> Arc<AccessSequence> {
        Arc::clone(&self.seq)
    }

    /// The configured worker count of the engine's pool (`0` =
    /// auto-detect).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of DBCs `q`.
    pub fn dbcs(&self) -> usize {
        self.dbcs
    }

    /// Locations per DBC `N`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of subarrays (`1` for flat problems).
    pub fn subarrays(&self) -> usize {
        self.subarrays
    }

    /// DBCs per subarray (`dbcs()` for flat problems).
    pub fn dbcs_per_subarray(&self) -> usize {
        self.dbcs / self.subarrays.max(1)
    }

    /// The cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Evaluates an externally produced placement against this problem.
    ///
    /// One-shot costing through the cost model directly — building a
    /// [`FitnessEngine`] would cost as much as the evaluation itself, and
    /// the direct path keeps the historical semantics for placements that
    /// would not pass [`Placement::validate`] (e.g. duplicated variables,
    /// where the location table's last occurrence wins). Callers
    /// evaluating many placements should hold an [`engine`](Self::engine).
    pub fn evaluate(&self, placement: &Placement) -> u64 {
        self.cost.shift_cost(placement, self.seq.accesses())
    }

    /// Solves the problem with `strategy`.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the variables cannot fit the
    /// geometry (`vars > q × N`).
    pub fn solve(&self, strategy: &Strategy) -> Result<Solution, PlacementError> {
        // One solve path in the crate: a one-shot solve is a warm solve on
        // a session nobody kept. Cloning the problem is cheap (the trace is
        // behind an `Arc`), and a search strategy builds its engine inside
        // the transient session exactly as the old inline code did.
        crate::session::Session::new(self.clone()).solve(strategy)
    }

    /// Runs the deterministic heuristic `kind`, or returns `None` for a
    /// search kind. The heuristics never evaluate fitness, so they must
    /// not force a [`Session`](crate::Session) to build its engine.
    ///
    /// DMA-OFU, DMA-Chen and DMA-SR order one DMA distribution over one
    /// split of the trace. `dma` holds that [`DmaSplit`], computed on first
    /// use, so a caller that runs several of them computes it once.
    pub(crate) fn heuristic(
        &self,
        kind: StrategyKind,
        dma: &OnceCell<Result<DmaSplit, PlacementError>>,
    ) -> Option<Result<Placement, PlacementError>> {
        let dma_with = |intra: &dyn IntraHeuristic| {
            dma.get_or_init(|| self.dma_split())
                .as_ref()
                .map(|split| split.order(intra))
                .map_err(Clone::clone)
        };
        Some(match kind {
            StrategyKind::AfdNative => Afd
                .distribute(&self.seq, self.dbcs, self.capacity)
                .map(Placement::from_dbc_lists),
            StrategyKind::AfdOfu => self.afd_with_intra(&Ofu),
            StrategyKind::DmaNative => Dma
                .distribute(&self.seq, self.dbcs, self.capacity)
                .map(Placement::from_dbc_lists),
            StrategyKind::DmaOfu => dma_with(&Ofu),
            StrategyKind::DmaChen => dma_with(&Chen),
            StrategyKind::DmaSr => dma_with(&ShiftsReduce::new()),
            StrategyKind::DmaMultiSr => self.dma_multi_with_intra(&ShiftsReduce::new()),
            StrategyKind::Ga
            | StrategyKind::RandomWalk
            | StrategyKind::Sa
            | StrategyKind::Tabu
            | StrategyKind::Portfolio => return None,
        })
    }

    /// The four composite-heuristic solutions, used to seed every search
    /// strategy (the paper seeds its GA with "our heuristic result"; SA,
    /// tabu and the portfolio lanes start from the best of these, so no
    /// search strategy can lose to the heuristics it subsumes).
    ///
    /// Ordered best-first (stably, by shift cost): a budgeted solver that
    /// can only afford to cost a single seed still starts from the best
    /// heuristic, which is what makes the never-loses guarantee hold at
    /// any budget ≥ 1 evaluation. Computed by a transient
    /// [`Session`](crate::Session), as [`solve`](Self::solve) is.
    pub fn heuristic_seeds(&self) -> Vec<Placement> {
        crate::session::Session::new(self.clone())
            .heuristic_seeds()
            .to_vec()
    }

    /// The DMA distribution with its disjoint-DBC count, and the trace
    /// split over the DBCs after those.
    fn dma_split(&self) -> Result<DmaSplit, PlacementError> {
        let (dist, keep) = Dma.distribute_counted(&self.seq, self.dbcs, self.capacity)?;
        let subs = self.split(&dist, keep);
        Ok(DmaSplit { dist, keep, subs })
    }

    /// AFD distribution, then an intra heuristic on every DBC.
    fn afd_with_intra(&self, intra: &dyn IntraHeuristic) -> Result<Placement, PlacementError> {
        let dist = Afd.distribute(&self.seq, self.dbcs, self.capacity)?;
        Ok(self.apply_intra(dist, intra, 0))
    }

    /// Multi-chain DMA distribution; intra heuristic on the leftover DBCs
    /// only (chain DBCs keep their access order).
    fn dma_multi_with_intra(
        &self,
        intra: &dyn IntraHeuristic,
    ) -> Result<Placement, PlacementError> {
        let (dist, keep) = crate::inter::DmaMulti::new().distribute_counted(
            &self.seq,
            self.dbcs,
            self.capacity,
        )?;
        Ok(self.apply_intra(dist, intra, keep))
    }

    /// Reorders DBCs `skip..` of `dist` with `intra`.
    fn apply_intra(
        &self,
        dist: Vec<Vec<VarId>>,
        intra: &dyn IntraHeuristic,
        skip: usize,
    ) -> Placement {
        let subs = self.split(&dist, skip);
        reorder(dist, intra, skip, &subs)
    }

    /// The trace restricted to each DBC of `dist` from `skip` on, in one
    /// pass over the trace. DBCs an intra heuristic leaves alone (fewer
    /// than two variables) get an empty subsequence.
    fn split(&self, dist: &[Vec<VarId>], skip: usize) -> Vec<Vec<VarId>> {
        let mut dbc_of = vec![usize::MAX; self.seq.vars().len()];
        for (d, list) in dist.iter().enumerate().skip(skip) {
            if list.len() >= 2 {
                for v in list {
                    dbc_of[v.index()] = d;
                }
            }
        }
        let mut subs = vec![Vec::new(); dist.len()];
        for &v in self.seq.accesses() {
            if let Some(sub) = subs.get_mut(dbc_of[v.index()]) {
                sub.push(v);
            }
        }
        subs
    }
}

/// What DMA-OFU, DMA-Chen and DMA-SR share: the DMA distribution, the
/// number `keep` of its leading disjoint DBCs, and the trace split over
/// the DBCs after them ([`PlacementProblem::split`]).
#[derive(Debug)]
pub(crate) struct DmaSplit {
    dist: Vec<Vec<VarId>>,
    keep: usize,
    subs: Vec<Vec<VarId>>,
}

impl DmaSplit {
    /// The distribution with `intra` run on its non-disjoint DBCs only
    /// (lines 22–23 of Algorithm 1 — disjoint DBCs keep access order).
    fn order(&self, intra: &dyn IntraHeuristic) -> Placement {
        reorder(self.dist.clone(), intra, self.keep, &self.subs)
    }
}

/// Reorders DBCs `skip..` of `dist` with `intra`, given their
/// subsequences ([`PlacementProblem::split`]).
fn reorder(
    mut dist: Vec<Vec<VarId>>,
    intra: &dyn IntraHeuristic,
    skip: usize,
    subs: &[Vec<VarId>],
) -> Placement {
    for (list, sub) in dist.iter_mut().zip(subs).skip(skip) {
        if list.len() >= 2 {
            *list = intra.order(list, sub);
        }
    }
    Placement::from_dbc_lists(dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    fn problem(dbcs: usize) -> PlacementProblem {
        PlacementProblem::new(AccessSequence::parse(PAPER_SEQ).unwrap(), dbcs, 512)
    }

    /// The paper trace with ids interned in name order, so AFD's frequency
    /// ties break exactly as in Fig. 3(c).
    fn paper_problem_alpha(dbcs: usize) -> PlacementProblem {
        let mut b = rtm_trace::SequenceBuilder::new();
        for n in ["a", "b", "c", "d", "e", "f", "g", "h", "i"] {
            b.var(n);
        }
        for n in PAPER_SEQ.split_whitespace() {
            b.access_named(n, rtm_trace::AccessKind::Read);
        }
        PlacementProblem::new(b.finish(), dbcs, 512)
    }

    #[test]
    fn paper_fig3_native_costs() {
        let p = paper_problem_alpha(2);
        assert_eq!(p.solve(&Strategy::AfdNative).unwrap().shifts, 39);
        let dma = p.solve(&Strategy::DmaNative).unwrap();
        assert_eq!(dma.per_dbc_shifts[0], 4);
        assert!(dma.shifts <= 11);
    }

    #[test]
    fn all_strategies_produce_valid_placements() {
        let p = problem(2);
        for s in Strategy::evaluation_set(GaConfig::quick(), RandomWalkConfig::quick()) {
            let sol = p.solve(&s).unwrap();
            sol.placement.validate(p.seq(), p.capacity()).unwrap();
            assert_eq!(sol.shifts, p.evaluate(&sol.placement));
        }
    }

    #[test]
    fn dma_variants_beat_afd_ofu_on_paper_example() {
        let p = problem(2);
        let afd = p.solve(&Strategy::AfdOfu).unwrap().shifts;
        for s in [Strategy::DmaOfu, Strategy::DmaChen, Strategy::DmaSr] {
            let c = p.solve(&s).unwrap().shifts;
            assert!(c < afd, "{s}: {c} >= AFD-OFU {afd}");
        }
    }

    #[test]
    fn ga_at_least_matches_best_heuristic() {
        let p = problem(2);
        let best_heuristic = [Strategy::AfdOfu, Strategy::DmaOfu, Strategy::DmaSr]
            .iter()
            .map(|s| p.solve(s).unwrap().shifts)
            .min()
            .unwrap();
        let ga = p.solve(&Strategy::Ga(GaConfig::quick())).unwrap().shifts;
        assert!(ga <= best_heuristic);
    }

    #[test]
    fn disjoint_dbcs_keep_access_order_under_intra() {
        // DMA-SR must not reorder the disjoint DBC.
        let p = problem(2);
        let native = p.solve(&Strategy::DmaNative).unwrap();
        let sr = p.solve(&Strategy::DmaSr).unwrap();
        assert_eq!(
            native.placement.dbc_lists()[0],
            sr.placement.dbc_lists()[0],
            "disjoint DBC was reordered"
        );
    }

    #[test]
    fn strategy_names_match_paper_labels() {
        let names: Vec<&str> =
            Strategy::evaluation_set(GaConfig::quick(), RandomWalkConfig::quick())
                .iter()
                .map(Strategy::name)
                .collect();
        assert_eq!(
            names,
            ["AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW"]
        );
    }

    #[test]
    fn solve_propagates_capacity_errors() {
        let seq = AccessSequence::parse("a b c d").unwrap();
        let p = PlacementProblem::new(seq, 1, 2);
        for s in [Strategy::AfdOfu, Strategy::DmaSr] {
            assert!(p.solve(&s).is_err());
        }
    }

    #[test]
    fn more_dbcs_never_increase_native_dma_cost() {
        let costs: Vec<u64> = [2usize, 4, 8]
            .iter()
            .map(|&q| problem(q).solve(&Strategy::DmaNative).unwrap().shifts)
            .collect();
        for w in costs.windows(2) {
            assert!(w[1] <= w[0] + 2, "cost should not blow up with more DBCs");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Strategy::DmaSr.to_string(), "DMA-SR");
    }

    #[test]
    fn registry_names_are_unique_and_round_trip() {
        let mut names: Vec<&str> = StrategyKind::ALL.iter().map(|k| k.name()).collect();
        let mut clis: Vec<&str> = StrategyKind::ALL.iter().map(|k| k.cli_name()).collect();
        names.sort_unstable();
        names.dedup();
        clis.sort_unstable();
        clis.dedup();
        assert_eq!(names.len(), StrategyKind::ALL.len(), "duplicate name");
        assert_eq!(clis.len(), StrategyKind::ALL.len(), "duplicate cli name");
        assert!(StrategyKind::ALL.len() >= 12);
        // Every CLI name resolves to its own kind, and an unknown name's
        // error lists them all.
        let budget = crate::search::Budget::evals(10);
        for &kind in StrategyKind::ALL {
            let s = Strategy::from_cli(kind.cli_name(), budget, None, None).unwrap();
            assert_eq!(s.kind(), kind);
        }
        let err = Strategy::from_cli("quantum", budget, None, None).unwrap_err();
        assert_eq!(err, PlacementError::UnknownStrategy("quantum".into()));
        let msg = err.to_string();
        assert!(msg.contains("`quantum`"), "{msg}");
        for &kind in StrategyKind::ALL {
            assert!(
                msg.contains(kind.cli_name()),
                "{msg} lacks {}",
                kind.cli_name()
            );
        }
    }

    #[test]
    fn every_evaluated_kind_reaches_the_evaluation_set() {
        // The registry is the single source of truth: a kind flagged
        // `evaluated` must produce exactly one row, in registry order.
        let set = Strategy::evaluation_set(GaConfig::quick(), RandomWalkConfig::quick());
        let expected: Vec<&str> = StrategyKind::ALL
            .iter()
            .filter(|k| k.in_evaluation_set())
            .map(|k| k.name())
            .collect();
        let got: Vec<&str> = set.iter().map(Strategy::name).collect();
        assert_eq!(got, expected);
        for s in &set {
            assert!(s.kind().in_evaluation_set());
        }
    }

    #[test]
    fn search_strategy_kinds_map_back() {
        use crate::search::{Budget, PortfolioConfig, SaConfig, TabuConfig};
        let b = Budget::evals(10);
        assert_eq!(Strategy::Sa(SaConfig::new(b)).name(), "SA");
        assert_eq!(Strategy::Tabu(TabuConfig::new(b)).name(), "Tabu");
        assert_eq!(
            Strategy::Portfolio(PortfolioConfig::new(b)).name(),
            "Portfolio"
        );
        assert_eq!(StrategyKind::Sa.cli_name(), "sa");
        assert!(!StrategyKind::Portfolio.in_evaluation_set());
    }

    #[test]
    fn heuristics_report_zero_telemetry() {
        let p = problem(2);
        for s in [Strategy::AfdOfu, Strategy::DmaSr, Strategy::DmaMultiSr] {
            let sol = p.solve(&s).unwrap();
            assert_eq!(sol.evals_consumed, 0, "{s}");
            assert_eq!(sol.time_to_best, std::time::Duration::ZERO, "{s}");
        }
        let ga = p.solve(&Strategy::Ga(GaConfig::quick())).unwrap();
        assert!(ga.evals_consumed > 0);
    }

    #[test]
    fn search_strategies_solve_and_seed_from_heuristics() {
        use crate::search::{Budget, PortfolioConfig, SaConfig, TabuConfig};
        let p = problem(2);
        let best_heuristic = p.heuristic_seeds()[..]
            .iter()
            .map(|pl| p.evaluate(pl))
            .min()
            .unwrap();
        let b = Budget::evals(300);
        for s in [
            Strategy::Sa(SaConfig::new(b)),
            Strategy::Tabu(TabuConfig::new(b)),
            Strategy::Portfolio(PortfolioConfig::new(b)),
        ] {
            let sol = p.solve(&s).unwrap();
            sol.placement.validate(p.seq(), p.capacity()).unwrap();
            assert_eq!(sol.shifts, p.evaluate(&sol.placement), "{s}");
            assert!(
                sol.shifts <= best_heuristic,
                "{s}: {} > heuristic {best_heuristic}",
                sol.shifts
            );
            assert!(sol.evals_consumed > 0, "{s}");
        }
    }

    #[test]
    fn with_ports_builds_the_matching_model() {
        let p = problem(2);
        assert_eq!(
            p.clone().with_ports(1).cost_model(),
            CostModel::single_port()
        );
        assert_eq!(p.with_ports(4).cost_model(), CostModel::multi_port(4, 512));
    }

    #[test]
    fn single_subarray_array_problem_degenerates_bit_exactly() {
        use rtm_arch::{ArrayGeometry, RtmGeometry};
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        for ports in [1usize, 2] {
            let sub = RtmGeometry::paper_4kib_with_ports(2, ports).unwrap();
            let array = ArrayGeometry::single(sub);
            let hier = PlacementProblem::for_array(seq.clone(), &array);
            let flat = PlacementProblem::new(seq.clone(), 2, 512).with_ports(ports);
            assert_eq!(hier.dbcs(), flat.dbcs());
            assert_eq!(hier.capacity(), flat.capacity());
            assert_eq!(hier.cost_model(), flat.cost_model());
            assert_eq!(hier.subarrays(), 1);
            for s in [
                Strategy::AfdOfu,
                Strategy::DmaSr,
                Strategy::Ga(GaConfig::quick()),
                Strategy::RandomWalk(RandomWalkConfig::quick()),
            ] {
                let a = hier.solve(&s).unwrap();
                let b = flat.solve(&s).unwrap();
                assert_eq!(a.placement, b.placement, "{s} @ {ports} ports");
                assert_eq!(a.shifts, b.shifts);
                assert_eq!(a.per_dbc_shifts, b.per_dbc_shifts);
            }
        }
    }

    #[test]
    fn hierarchical_problem_places_overflowing_traces() {
        use rtm_arch::{ArrayGeometry, RtmGeometry};
        // 9 variables on 2 subarrays x 2 DBCs x 3 slots (12 slots): no
        // single 2x3 subarray could hold them.
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let sub = RtmGeometry::new(2, 32, 3, 1).unwrap();
        let array = ArrayGeometry::new(2, sub).unwrap();
        assert!(array.fits(seq.vars().len()));
        let p = PlacementProblem::for_array(seq.clone(), &array);
        assert_eq!((p.subarrays(), p.dbcs_per_subarray()), (2, 2));
        for s in Strategy::evaluation_set(GaConfig::quick(), RandomWalkConfig::quick()) {
            let sol = p.solve(&s).unwrap();
            sol.placement.validate_array(&seq, &array).unwrap();
            let per_sub = sol.per_subarray_shifts(p.dbcs_per_subarray());
            assert_eq!(per_sub.iter().sum::<u64>(), sol.shifts, "{s}");
            assert_eq!(per_sub.len(), 2, "{s}");
        }
    }

    #[test]
    fn port_aware_search_never_loses_to_rescored_agnostic_placement() {
        // The §V claim made searchable: a GA running under the 2-port
        // objective (seeded with the port-agnostic heuristics) can never be
        // worse than re-scoring the port-agnostic DMA-SR placement, because
        // that very placement is in its elitist initial population.
        let agnostic = problem(2).solve(&Strategy::DmaSr).unwrap();
        for ports in [2usize, 4] {
            let aware_problem = problem(2).with_ports(ports);
            let rescored = aware_problem.evaluate(&agnostic.placement);
            let aware = aware_problem
                .solve(&Strategy::Ga(GaConfig::quick()))
                .unwrap();
            assert!(
                aware.shifts <= rescored,
                "{ports} ports: aware {} > rescored {rescored}",
                aware.shifts
            );
        }
    }
}
