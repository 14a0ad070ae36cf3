//! Anytime search: deadline-driven solvers racing under a shared incumbent.
//!
//! The paper's evaluation compares *fixed-iteration* heuristics; a serving
//! system answers placement queries under a **latency budget**. This module
//! makes every randomized searcher in the crate *anytime* — interruptible
//! at any moment with the best solution found so far — and races several of
//! them against one [`Budget`]:
//!
//! * [`Budget`] / [`BudgetMeter`] — max evaluations, wall-clock deadline,
//!   or no-improvement stall (any combination);
//! * [`SimulatedAnnealing`] — Metropolis local search, dirty-mask
//!   incremental on top of [`FitnessEngine`] (only the one or two DBCs a
//!   move touches are re-costed);
//! * [`TabuSearch`] — best-of-sampled-neighborhood local search with a
//!   recency tabu list and aspiration;
//! * [`Portfolio`] — races N configurable lanes (SA / tabu / GA /
//!   random walk) as work items on the engine's shared
//!   [`WorkerPool`](crate::pool::WorkerPool), with a shared
//!   [`RaceControl`] incumbent and per-lane deterministic seed streams.
//!
//! # Incumbent protocol and determinism contract
//!
//! Lanes **publish** improvements to the shared incumbent but never *read*
//! it into their search trajectory: each lane is a pure function of its
//! `(seed, budget)` pair. The portfolio's winner is selected from the
//! per-lane outcomes by `(cost, lane index)` — not from the racy incumbent
//! — so under a deterministic budget ([`Budget::is_deterministic`]) the
//! whole portfolio is **bit-identical** for any thread count and any lane
//! scheduling. The incumbent exists for the *anytime* side: it always
//! holds the best placement found so far, and its event log is the
//! time-to-best trace reported by `rtm-bench portfolio`. See `DESIGN.md`
//! §8 for the full argument.

mod budget;
#[cfg(feature = "faults")]
pub mod faults;
pub mod portfolio;
pub mod sa;
pub mod tabu;

pub use budget::{Budget, BudgetMeter, StopCause};
pub use portfolio::{
    LaneOutcome, LaneReport, LaneSpec, LaneStatus, Portfolio, PortfolioConfig, PortfolioOutcome,
};
pub use sa::{SaConfig, SimulatedAnnealing};
pub use tabu::{TabuConfig, TabuSearch};

use crate::cancel::CancelToken;
use crate::eval::{EvalScratch, FitnessEngine};
use crate::ga::random_assignment;
use crate::placement::Placement;
use rand::Rng;
use rtm_trace::VarId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Result of one anytime solver run: the best placement found, its cost,
/// and the budget telemetry.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best placement found over the whole run.
    pub placement: Placement,
    /// Its total shift cost.
    pub cost: u64,
    /// Fitness evaluations consumed.
    pub evals: u64,
    /// Evaluations consumed when the best placement was first reached.
    pub evals_at_best: u64,
    /// Wall time from solver start to the first sighting of the best.
    pub time_to_best: Duration,
    /// Actual wall time from solver start to stop — under a deadline
    /// budget this exposes the overshoot instead of absorbing it.
    pub elapsed: Duration,
    /// Why the run stopped.
    pub stop: StopCause,
}

/// One improvement event of a [`Portfolio`] race — the raw material of the
/// time-to-best trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceEvent {
    /// Lane that published the improvement.
    pub lane: usize,
    /// The improved total cost.
    pub cost: u64,
    /// The lane's own evaluation counter at publication.
    pub lane_evals: u64,
    /// Wall time since the race started.
    pub elapsed: Duration,
}

/// The shared state of a race: a cancellation token that also carries the
/// optional global deadline, and the best-so-far incumbent with its
/// improvement log.
///
/// Publishing is lock-free on the fast path (an atomic best-cost check)
/// and falls back to a mutex only on actual improvements. Lanes never read
/// the incumbent into their trajectories — see the determinism contract in
/// the [module docs](self).
///
/// Both internal mutexes recover from poison by *taking the data as-is*:
/// the incumbent record is built completely before being assigned (a panic
/// cannot tear it) and the event log is append-only, so a lane panicking
/// mid-publish leaves a valid previous state behind.
#[derive(Debug)]
pub struct RaceControl {
    cancel: CancelToken,
    started: Instant,
    best_cost: AtomicU64,
    best: Mutex<Option<Incumbent>>,
    events: Mutex<Vec<RaceEvent>>,
    #[cfg(feature = "faults")]
    faults: Option<faults::FaultPlan>,
}

/// The incumbent record: `(cost, per-DBC lists, publishing lane)`.
type Incumbent = (u64, Vec<Vec<VarId>>, usize);

/// Locks one of the race's mutexes, recovering from poison by taking the
/// data as-is (see the type docs for why that is always valid here).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RaceControl {
    /// Starts a race now, with an optional global wall-clock deadline: the
    /// race's token reads as cancelled once it passes.
    pub fn new(deadline: Option<Duration>) -> Self {
        let started = Instant::now();
        Self {
            cancel: deadline.map_or_else(CancelToken::new, |d| CancelToken::until(started + d)),
            started,
            best_cost: AtomicU64::new(u64::MAX),
            best: Mutex::new(None),
            events: Mutex::new(Vec::new()),
            #[cfg(feature = "faults")]
            faults: None,
        }
    }

    /// Attaches a deterministic fault schedule to the race (test-only).
    #[cfg(feature = "faults")]
    pub fn with_faults(mut self, faults: Option<faults::FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// The fault schedule for one lane, if any (test-only).
    #[cfg(feature = "faults")]
    pub(crate) fn lane_faults(&self, lane: usize) -> Option<faults::LaneFaults> {
        self.faults.as_ref().map(|p| p.lane_faults(lane))
    }

    /// Asks every lane to stop at its next check point (cancels the shared
    /// token, so pool workers and budget meters observe it too).
    pub fn request_stop(&self) {
        self.cancel.cancel();
    }

    /// Whether lanes should stop: an explicit request or an expired global
    /// deadline (both read through the race's token).
    pub fn should_stop(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The race's cancellation token — what [`request_stop`]
    /// (Self::request_stop) cancels, what the race deadline expires, and
    /// what lane meters and pool jobs poll.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Wall time since the race started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Publishes a candidate incumbent from `lane`; records an event and
    /// returns `true` if it strictly improves the shared best.
    ///
    /// The incumbent record (including the `lists` clone — the expensive
    /// part of a publish) is built **before** the lock is taken, so the
    /// critical section is the re-check, two writes and the event push.
    /// The event push stays under the incumbent lock on purpose: it is
    /// what keeps the improvement log strictly decreasing in cost.
    pub fn publish(&self, lane: usize, cost: u64, lists: &[Vec<VarId>], lane_evals: u64) -> bool {
        if cost >= self.best_cost.load(Ordering::Acquire) {
            return false;
        }
        let record = (cost, lists.to_vec(), lane);
        let mut best = lock_recover(&self.best);
        // Re-check under the lock: another lane may have won the race here.
        if best.as_ref().is_some_and(|(c, _, _)| cost >= *c) {
            return false;
        }
        *best = Some(record);
        self.best_cost.store(cost, Ordering::Release);
        lock_recover(&self.events).push(RaceEvent {
            lane,
            cost,
            lane_evals,
            elapsed: self.started.elapsed(),
        });
        true
    }

    /// The incumbent's cost, if any lane has published yet.
    pub fn best_cost(&self) -> Option<u64> {
        let c = self.best_cost.load(Ordering::Acquire);
        (c != u64::MAX).then_some(c)
    }

    /// A snapshot of the incumbent placement, if any.
    pub fn best_placement(&self) -> Option<(u64, Placement, usize)> {
        lock_recover(&self.best)
            .as_ref()
            .map(|(c, lists, lane)| (*c, Placement::from_dbc_lists(lists.clone()), *lane))
    }

    /// The improvement log so far, in publication order.
    pub fn trace(&self) -> Vec<RaceEvent> {
        lock_recover(&self.events).clone()
    }
}

/// A lane's hook into a race: the shared control plus this lane's index.
pub(crate) type Race<'a> = Option<(&'a RaceControl, usize)>;

/// Whether a race asked this lane to stop (`false` outside a race).
pub(crate) fn race_stopped(race: Race<'_>) -> bool {
    race.is_some_and(|(c, _)| c.should_stop())
}

/// Publishes an improvement to the race, if racing.
pub(crate) fn race_publish(race: Race<'_>, cost: u64, lists: &[Vec<VarId>], evals: u64) {
    if let Some((control, lane)) = race {
        control.publish(lane, cost, lists, evals);
    }
}

/// Builds the lane's budget meter: outside a race a plain meter, inside a
/// race one wired to the shared cancellation token (and, under
/// `--features faults`, to the lane's fault schedule). Token checks are
/// free of budget and randomness, so deterministic trajectories are
/// unchanged by the wiring.
pub(crate) fn meter_for(budget: Budget, race: Race<'_>) -> BudgetMeter {
    let meter = BudgetMeter::new(budget);
    match race {
        Some((control, _lane)) => {
            let meter = meter.with_cancel(control.cancel_token().clone());
            #[cfg(feature = "faults")]
            let meter = meter.with_faults(control.lane_faults(_lane));
            meter
        }
        None => meter,
    }
}

// ---- Local-search state and neighborhood ----------------------------------

/// The mutable state of a single-candidate local search (SA / tabu):
/// ordered per-DBC lists plus their individually cached costs, re-costed
/// incrementally through the engine after each move.
#[derive(Debug)]
pub(crate) struct SearchState {
    pub lists: Vec<Vec<VarId>>,
    pub dbc_costs: Vec<u64>,
    pub total: u64,
}

/// A saved view of the ≤2 DBC costs a move may change, plus the total —
/// lets a rejected move roll back in `O(1)` instead of re-costing through
/// the engine (and its memo mutex) a second time.
pub(crate) type CostSnapshot = ([Option<(usize, u64)>; 2], u64);

impl SearchState {
    /// Re-costs exactly the DBCs `touched` by a move and returns the new
    /// total (the incremental evaluation: untouched DBC costs are reused).
    pub fn recost(
        &mut self,
        engine: &FitnessEngine<'_>,
        scratch: &mut EvalScratch,
        touched: [Option<usize>; 2],
    ) -> u64 {
        for d in touched.into_iter().flatten() {
            let new = engine.dbc_cost_with(&self.lists[d], scratch);
            self.total = self.total - self.dbc_costs[d] + new;
            self.dbc_costs[d] = new;
        }
        self.total
    }

    /// Saves the costs a move with these `touched` DBCs may change.
    pub fn snapshot(&self, touched: [Option<usize>; 2]) -> CostSnapshot {
        (
            touched.map(|o| o.map(|d| (d, self.dbc_costs[d]))),
            self.total,
        )
    }

    /// Restores a [`snapshot`](Self::snapshot) (the move itself must be
    /// undone separately via [`Move::undo`]).
    pub fn restore(&mut self, snap: &CostSnapshot) {
        for (d, cost) in snap.0.into_iter().flatten() {
            self.dbc_costs[d] = cost;
        }
        self.total = snap.1;
    }
}

/// One local move over per-DBC lists, with enough information to undo it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Move {
    /// Nothing to do (the sampled operator had no feasible instance).
    Noop,
    /// Swap positions `i` and `j` within DBC `d` (order-only change).
    Transpose { d: usize, i: usize, j: usize },
    /// Move the variable at `src[i]` to the tail of `dst`.
    Relocate { src: usize, i: usize, dst: usize },
    /// Swap the variables at `a[i]` and `b[j]` across two DBCs.
    Exchange {
        a: usize,
        i: usize,
        b: usize,
        j: usize,
    },
}

impl Move {
    /// Applies the move in place.
    pub fn apply(self, lists: &mut [Vec<VarId>]) {
        match self {
            Move::Noop => {}
            Move::Transpose { d, i, j } => lists[d].swap(i, j),
            Move::Relocate { src, i, dst } => {
                let v = lists[src].remove(i);
                lists[dst].push(v);
            }
            Move::Exchange { a, i, b, j } => {
                let va = lists[a][i];
                lists[a][i] = lists[b][j];
                lists[b][j] = va;
            }
        }
    }

    /// Reverts a previously applied move.
    pub fn undo(self, lists: &mut [Vec<VarId>]) {
        match self {
            Move::Noop | Move::Transpose { .. } | Move::Exchange { .. } => self.apply(lists),
            Move::Relocate { src, i, dst } => {
                let Some(v) = lists[dst].pop() else {
                    unreachable!("undo without a matching apply");
                };
                lists[src].insert(i, v);
            }
        }
    }

    /// The DBCs whose cost the move may change.
    pub fn touched(self) -> [Option<usize>; 2] {
        match self {
            Move::Noop => [None, None],
            Move::Transpose { d, .. } => [Some(d), None],
            Move::Relocate { src, dst, .. } => [Some(src), Some(dst)],
            Move::Exchange { a, b, .. } => [Some(a), Some(b)],
        }
    }
}

/// The move sampler shared by SA and tabu: relocate / transpose / exchange
/// (plus subarray-migrate on a real hierarchy) with the GA's familiar
/// operator weights. Infeasible samples degrade to [`Move::Noop`] — which
/// still consumes budget, guaranteeing termination on degenerate shapes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Neighborhood {
    pub capacity: usize,
    /// DBCs per subarray; `== lists.len()` on a flat geometry.
    pub dbcs_per_subarray: usize,
}

impl Neighborhood {
    pub fn new(dbcs: usize, capacity: usize, subarrays: usize) -> Self {
        let dbcs_per_subarray = if subarrays > 1 && dbcs.is_multiple_of(subarrays) {
            dbcs / subarrays
        } else {
            dbcs
        };
        Self {
            capacity,
            dbcs_per_subarray,
        }
    }

    /// Samples one move (weights relocate:transpose:exchange:migrate =
    /// 10:10:6:6, the migrate slice only on a real hierarchy).
    pub fn propose(&self, lists: &[Vec<VarId>], rng: &mut impl Rng) -> Move {
        let hierarchical = self.dbcs_per_subarray < lists.len();
        let total = if hierarchical { 32u32 } else { 26 };
        let roll = rng.gen_range(0..total);
        if roll < 10 {
            self.relocate(lists, rng, None)
        } else if roll < 20 {
            Self::transpose(lists, rng)
        } else if roll < 26 {
            Self::exchange(lists, rng)
        } else {
            self.relocate(lists, rng, Some(self.dbcs_per_subarray))
        }
    }

    /// A relocate move; with `across = Some(q)` the destination must lie in
    /// a different subarray of `q` DBCs (the migrate operator).
    fn relocate(&self, lists: &[Vec<VarId>], rng: &mut impl Rng, across: Option<usize>) -> Move {
        let nonempty: Vec<usize> = (0..lists.len()).filter(|&d| !lists[d].is_empty()).collect();
        if nonempty.is_empty() {
            return Move::Noop;
        }
        let src = nonempty[rng.gen_range(0..nonempty.len())];
        let ok = |d: usize| match across {
            Some(q) => d / q != src / q,
            None => d != src,
        };
        let dsts: Vec<usize> = (0..lists.len())
            .filter(|&d| ok(d) && lists[d].len() < self.capacity)
            .collect();
        if dsts.is_empty() {
            return Move::Noop;
        }
        let dst = dsts[rng.gen_range(0..dsts.len())];
        let i = rng.gen_range(0..lists[src].len());
        Move::Relocate { src, i, dst }
    }

    fn transpose(lists: &[Vec<VarId>], rng: &mut impl Rng) -> Move {
        let eligible: Vec<usize> = (0..lists.len()).filter(|&d| lists[d].len() >= 2).collect();
        if eligible.is_empty() {
            return Move::Noop;
        }
        let d = eligible[rng.gen_range(0..eligible.len())];
        let n = lists[d].len();
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        if i == j {
            j = (j + 1) % n;
        }
        Move::Transpose { d, i, j }
    }

    fn exchange(lists: &[Vec<VarId>], rng: &mut impl Rng) -> Move {
        let nonempty: Vec<usize> = (0..lists.len()).filter(|&d| !lists[d].is_empty()).collect();
        if nonempty.len() < 2 {
            return Move::Noop;
        }
        let a = nonempty[rng.gen_range(0..nonempty.len())];
        let others: Vec<usize> = nonempty.into_iter().filter(|&d| d != a).collect();
        let b = others[rng.gen_range(0..others.len())];
        let i = rng.gen_range(0..lists[a].len());
        let j = rng.gen_range(0..lists[b].len());
        Move::Exchange { a, i, b, j }
    }
}

/// Picks the start state of a local search: the best of the (valid) seed
/// placements evaluated within budget, or a seeded random assignment when
/// no seed survives. Charges one evaluation per costed candidate.
pub(crate) fn choose_start(
    engine: &FitnessEngine<'_>,
    dbcs: usize,
    capacity: usize,
    seeds: &[Placement],
    rng: &mut impl Rng,
    meter: &mut BudgetMeter,
) -> SearchState {
    let mut best: Option<SearchState> = None;
    for seed in seeds {
        if best.is_some() && meter.exhausted() {
            break;
        }
        let lists = seed.dbc_lists();
        let valid = lists.len() == dbcs
            && lists.iter().all(|l| l.len() <= capacity)
            && engine.seed_is_valid(seed, capacity);
        if !valid {
            continue;
        }
        let dbc_costs = engine.per_dbc_costs(lists);
        meter.charge(1);
        let total = dbc_costs.iter().sum();
        meter.note_cost(total);
        if best.as_ref().is_none_or(|b| total < b.total) {
            best = Some(SearchState {
                lists: lists.to_vec(),
                dbc_costs,
                total,
            });
        }
    }
    best.unwrap_or_else(|| {
        let lists = random_assignment(engine.accessed_vars(), dbcs, capacity, rng);
        let dbc_costs = engine.per_dbc_costs(&lists);
        meter.charge(1);
        let total = dbc_costs.iter().sum();
        meter.note_cost(total);
        SearchState {
            lists,
            dbc_costs,
            total,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rtm_trace::AccessSequence;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    #[test]
    fn moves_apply_and_undo_exactly() {
        let v = VarId::from_index;
        let base = vec![vec![v(0), v(1), v(2)], vec![v(3)], vec![]];
        let moves = [
            Move::Noop,
            Move::Transpose { d: 0, i: 0, j: 2 },
            Move::Relocate {
                src: 0,
                i: 1,
                dst: 2,
            },
            Move::Exchange {
                a: 0,
                i: 2,
                b: 1,
                j: 0,
            },
        ];
        for m in moves {
            let mut lists = base.clone();
            m.apply(&mut lists);
            if m != Move::Noop {
                assert_ne!(lists, base, "{m:?} should change the lists");
            }
            m.undo(&mut lists);
            assert_eq!(lists, base, "{m:?} undo must restore the state");
        }
    }

    #[test]
    fn proposals_respect_capacity_and_hierarchy() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let vars = seq.liveness().by_first_occurrence();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let lists = random_assignment(&vars, 4, 3, &mut rng);
        let hood = Neighborhood::new(4, 3, 2);
        assert_eq!(hood.dbcs_per_subarray, 2);
        let mut work = lists.clone();
        for _ in 0..500 {
            let m = hood.propose(&work, &mut rng);
            m.apply(&mut work);
            assert!(work.iter().all(|l| l.len() <= 3), "capacity violated");
            let total: usize = work.iter().map(Vec::len).sum();
            assert_eq!(total, vars.len(), "variables lost or duplicated");
        }
    }

    #[test]
    fn indivisible_subarray_count_degrades_to_flat() {
        let hood = Neighborhood::new(5, 8, 2);
        assert_eq!(hood.dbcs_per_subarray, 5);
    }

    #[test]
    fn recost_matches_from_scratch() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let vars = seq.liveness().by_first_occurrence();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let lists = random_assignment(&vars, 3, 4, &mut rng);
        let dbc_costs = engine.per_dbc_costs(&lists);
        let total = dbc_costs.iter().sum();
        let mut st = SearchState {
            lists,
            dbc_costs,
            total,
        };
        let mut scratch = engine.scratch();
        let hood = Neighborhood::new(3, 4, 1);
        for _ in 0..200 {
            let m = hood.propose(&st.lists, &mut rng);
            m.apply(&mut st.lists);
            let t = st.recost(&engine, &mut scratch, m.touched());
            assert_eq!(t, engine.per_dbc_costs(&st.lists).iter().sum::<u64>());
        }
    }

    #[test]
    fn race_control_keeps_the_minimum() {
        let v = VarId::from_index;
        let lists = vec![vec![v(0)]];
        let race = RaceControl::new(None);
        assert!(race.publish(0, 10, &lists, 1));
        assert!(!race.publish(1, 12, &lists, 2), "worse is rejected");
        assert!(!race.publish(1, 10, &lists, 3), "ties are rejected");
        assert!(race.publish(2, 7, &lists, 4));
        assert_eq!(race.best_cost(), Some(7));
        let (c, _, lane) = race.best_placement().unwrap();
        assert_eq!((c, lane), (7, 2));
        let trace = race.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            (trace[1].lane, trace[1].cost, trace[1].lane_evals),
            (2, 7, 4)
        );
    }

    #[test]
    fn race_stop_flag_and_deadline() {
        let race = RaceControl::new(None);
        assert!(!race.should_stop());
        race.request_stop();
        assert!(race.should_stop());
        let expired = RaceControl::new(Some(Duration::ZERO));
        assert!(expired.should_stop());
    }

    #[test]
    fn choose_start_prefers_the_best_valid_seed() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let p = crate::PlacementProblem::new(seq.clone(), 2, 512);
        let good = p.solve(&crate::Strategy::DmaSr).unwrap().placement;
        let bad = p.solve(&crate::Strategy::AfdNative).unwrap().placement;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut meter = BudgetMeter::new(Budget::evals(100));
        let st = choose_start(
            &engine,
            2,
            512,
            &[bad.clone(), good.clone()],
            &mut rng,
            &mut meter,
        );
        assert_eq!(st.lists, good.dbc_lists());
        assert_eq!(meter.evals(), 2);
        // No seeds: a random (valid) start is costed instead.
        let mut meter = BudgetMeter::new(Budget::evals(100));
        let st = choose_start(&engine, 2, 512, &[], &mut rng, &mut meter);
        assert_eq!(meter.evals(), 1);
        assert_eq!(
            st.total,
            engine.per_dbc_costs(&st.lists).iter().sum::<u64>()
        );
    }
}
