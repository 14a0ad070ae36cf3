//! Generalized data placement strategies for racetrack memories.
//!
//! This crate implements the contribution of Khan et al., *"Generalized Data
//! Placement Strategies for Racetrack Memories"*, DATE 2020, plus every
//! baseline it evaluates against:
//!
//! * [`Placement`] — a full inter- **and** intra-DBC assignment of program
//!   variables to racetrack locations.
//! * [`CostModel`] — the shift-cost evaluator (the fitness function of the
//!   whole paper): consecutive accesses `u, v` mapped to the same DBC cost
//!   `|offset(u) − offset(v)|` shifts.
//! * [`eval`] — the incremental, allocation-free fitness engine that every
//!   search path evaluates through.
//! * [`inter`] — inter-DBC distribution: the **AFD** baseline of Chen'16 and
//!   the paper's **DMA** heuristic (Algorithm 1).
//! * [`intra`] — intra-DBC orderings: **OFU** (order of first use),
//!   **Chen** (frequency organ-pipe) and **ShiftsReduce** (adjacency-driven
//!   bidirectional grouping).
//! * [`ga`] — the paper's µ+λ genetic algorithm with its custom 2-fold
//!   crossover and three mutations.
//! * [`random_walk`] — the random-walk search used to put GA results in
//!   perspective.
//! * [`search`] — the anytime layer: [`Budget`]-driven simulated annealing
//!   and tabu search, and the [`Portfolio`] racing SA / tabu / GA / RW
//!   lanes against a deadline with a shared incumbent.
//! * [`Strategy`] / [`PlacementProblem`] — the six named configurations of
//!   the evaluation (§IV-A): `AFD-OFU`, `DMA-OFU`, `DMA-Chen`, `DMA-SR`,
//!   `GA`, `RW` — plus the anytime `SA`, `Tabu` and `Portfolio`
//!   strategies, all derived from one exhaustive [`StrategyKind`]
//!   registry.
//!
//! Placement is **capacity-aware and hierarchical**: a workload larger than
//! one paper-faithful 4 KiB subarray is placed across an
//! [`rtm_arch::ArrayGeometry`] of identical subarrays
//! ([`PlacementProblem::for_array`]). Because the shift cost is separable
//! per DBC and subarrays share one track geometry, the hierarchical problem
//! is exactly the flat problem over `subarrays × dbcs` global DBCs — the
//! inter-DBC machinery (AFD, DMA, the GA, the random walk) *is* the
//! inter-subarray machinery, and single-subarray runs degenerate
//! bit-exactly to the historical behavior.
//!
//! # Quickstart
//!
//! ```
//! use rtm_placement::{PlacementProblem, Strategy};
//! use rtm_trace::AccessSequence;
//!
//! // The paper's running example (Fig. 3).
//! let seq = AccessSequence::parse("a b a b c a c a d d a i e f e f g e g h g i h i")?;
//! let problem = PlacementProblem::new(seq, 2, 512); // 2 DBCs x 512 locations
//!
//! let afd = problem.solve(&Strategy::AfdOfu)?;
//! let dma = problem.solve(&Strategy::DmaSr)?;
//! assert!(dma.shifts < afd.shifts); // the paper's headline: DMA wins
//! assert!(dma.shifts <= 11);        // Fig. 3(d) costs 11
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library paths report through `PlacementError` (or recover) instead of
// panicking; `unwrap`/`expect` are allowed only in test modules
// (`DESIGN.md` §9). CI promotes these to errors with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod cancel;
mod cost;
mod error;
pub mod eval;
pub mod exact;
pub mod ga;
#[cfg(test)]
mod heuristic_reference;
pub mod inter;
pub mod intra;
mod placement;
pub mod pool;
pub mod random_walk;
pub mod search;
mod session;
mod strategy;

pub use cancel::CancelToken;
pub use cost::{sum_per_subarray, CostModel, InitialAlignment};
pub use error::{PlacementError, RtmError};
pub use eval::{EngineStats, FitnessEngine};
pub use ga::{GaConfig, GaOutcome, GeneticPlacer};
pub use placement::{Location, Placement};
pub use pool::WorkerPool;
pub use random_walk::RandomWalkConfig;
pub use search::{
    Budget, LaneOutcome, LaneReport, LaneSpec, LaneStatus, Portfolio, PortfolioConfig,
    PortfolioOutcome, SaConfig, SearchOutcome, SimulatedAnnealing, StopCause, TabuConfig,
    TabuSearch,
};
pub use session::Session;
pub use strategy::{PlacementProblem, Solution, Strategy, StrategyKind};
