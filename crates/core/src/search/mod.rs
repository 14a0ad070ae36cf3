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
use crate::error::PlacementError;
use crate::eval::{EvalScratch, FitnessEngine};
use crate::ga::{random_assignment, GeneticPlacer};
use crate::placement::Placement;
use crate::random_walk;
use crate::strategy::Strategy;
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

/// Runs the search `strategy` (GA, random walk, SA, tabu or the portfolio)
/// on `engine` over `dbcs` DBCs of `capacity` locations in `subarrays`
/// subarrays: the one place a [`Strategy`] becomes a running solver, for a
/// [`Session`](crate::Session) and a streamed CLI solve alike. `seeds`
/// yields the start placements and is called only by the strategies that
/// start from them (not the random walk).
///
/// Returns the outcome and the per-lane reports (empty unless the
/// strategy is the portfolio). A portfolio reports its winning lane's
/// outcome with `evals` summed over its lanes and `elapsed` timing the
/// whole race.
///
/// # Errors
///
/// [`PlacementError::SearchConfig`] for a deterministic heuristic, which
/// runs on the materialized trace instead of an engine; otherwise the
/// solver's own errors.
pub fn run<'s>(
    strategy: &Strategy,
    engine: &FitnessEngine<'_>,
    dbcs: usize,
    capacity: usize,
    subarrays: usize,
    seeds: impl FnOnce() -> &'s [Placement],
) -> Result<(SearchOutcome, Vec<LaneReport>), PlacementError> {
    let outcome = match strategy {
        Strategy::Ga(cfg) => GeneticPlacer::new(*cfg)
            .with_subarrays(subarrays)
            .run_with_engine(engine, dbcs, capacity, seeds())?
            .into(),
        // The walk's batch path never reads the engine's memo, so a warm
        // engine walks exactly as a fresh one.
        Strategy::RandomWalk(cfg) => random_walk::run_budgeted(
            engine,
            dbcs,
            capacity,
            cfg.seed,
            Budget::evals(cfg.iterations as u64),
            None,
        )?,
        Strategy::Sa(cfg) => SimulatedAnnealing::new(*cfg)
            .with_subarrays(subarrays)
            .run_with_engine(engine, dbcs, capacity, seeds())?,
        Strategy::Tabu(cfg) => TabuSearch::new(*cfg)
            .with_subarrays(subarrays)
            .run_with_engine(engine, dbcs, capacity, seeds())?,
        Strategy::Portfolio(cfg) => {
            let race = Portfolio::new(cfg.clone())
                .with_subarrays(subarrays)
                .run_with_engine(engine, dbcs, capacity, seeds())?;
            let lanes = race.lane_reports();
            let outcome = SearchOutcome {
                evals: race.total_evals,
                elapsed: race.elapsed,
                ..race.best
            };
            return Ok((outcome, lanes));
        }
        Strategy::AfdNative
        | Strategy::AfdOfu
        | Strategy::DmaNative
        | Strategy::DmaOfu
        | Strategy::DmaChen
        | Strategy::DmaSr
        | Strategy::DmaMultiSr => {
            return Err(PlacementError::SearchConfig(format!(
                "{strategy} is a heuristic and needs the materialized trace"
            )))
        }
    };
    Ok((outcome, Vec::new()))
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

    /// The race's cancellation token — what
    /// [`request_stop`](Self::request_stop) cancels, what the race deadline
    /// expires, and what lane meters and pool jobs poll.
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

/// One entry of a kept access sequence: a dedup-stream position and the
/// variable (index) accessed there.
type Access = (u32, u32);

/// The mutable state of a single-candidate local search (SA / tabu):
/// ordered per-DBC lists plus their individually cached costs, re-costed
/// incrementally through the engine after each move.
///
/// Next to the lists the state keeps what a re-cost walks: each DBC's
/// access sequence (its members' dedup positions, each paired with its
/// variable, in trace order — exactly what the engine's merge kernel
/// produces for the same members) and a variable -> offset table. A move
/// edits both and splices only what changed, so a re-cost is one walk of
/// each touched DBC's sequence, behind the engine's exact-list memo: a
/// transpose swaps two offsets and touches no sequence; a relocate drops
/// the variable's entries from its source DBC and merges its position
/// run into its destination; an exchange does one drop-and-merge per side.
/// A spliced sequence replaces the old one, which waits in a spare buffer
/// so [`undo`](Self::undo) is a swap; once warm, no move allocates.
#[derive(Debug)]
pub struct SearchState {
    lists: Vec<Vec<VarId>>,
    dbc_costs: Vec<u64>,
    total: u64,
    /// Each DBC's kept access sequence.
    seqs: Vec<Vec<Access>>,
    /// Variable index -> offset in its DBC list.
    offsets: Vec<u32>,
    /// The applied move awaiting [`commit`](Self::commit) or
    /// [`undo`](Self::undo).
    pending: Option<Pending>,
    /// While a move is pending, the sequences it replaced (for undo);
    /// otherwise free buffers for the next splice.
    spare: [Vec<Access>; 2],
    /// Merge buffers for building the kept sequences.
    scratch: EvalScratch,
}

/// What undoing an applied move restores besides its list edit.
#[derive(Debug)]
struct Pending {
    m: Move,
    /// The touched DBCs' costs before the move.
    costs: [Option<(usize, u64)>; 2],
    /// The total before the move.
    total: u64,
    /// The DBCs whose sequence was spliced, by spare slot.
    spliced: [Option<usize>; 2],
}

impl SearchState {
    /// The state at `lists` (each variable placed at most once), costed
    /// as one evaluation of `engine`.
    pub fn new(engine: &FitnessEngine<'_>, lists: Vec<Vec<VarId>>) -> Self {
        let mut scratch = engine.scratch();
        let dbc_costs = engine.per_dbc_costs_with(&lists, &mut scratch);
        Self::with_costs(engine, lists, dbc_costs, scratch)
    }

    /// The state at `lists`, whose per-DBC costs are `dbc_costs`, with its
    /// kept sequences built through `scratch`.
    pub(crate) fn with_costs(
        engine: &FitnessEngine<'_>,
        lists: Vec<Vec<VarId>>,
        dbc_costs: Vec<u64>,
        scratch: EvalScratch,
    ) -> Self {
        let mut state = Self {
            total: dbc_costs.iter().sum(),
            lists,
            dbc_costs,
            seqs: Vec::new(),
            offsets: Vec::new(),
            pending: None,
            spare: [Vec::new(), Vec::new()],
            scratch,
        };
        state.rebuild(engine);
        state
    }

    /// The per-DBC lists.
    pub fn lists(&self) -> &[Vec<VarId>] {
        &self.lists
    }

    /// The per-DBC costs.
    pub fn dbc_costs(&self) -> &[u64] {
        &self.dbc_costs
    }

    /// DBC `d`'s kept access sequence: its members' dedup positions, each
    /// paired with its variable index, in trace order.
    pub fn kept_sequence(&self, d: usize) -> &[(u32, u32)] {
        &self.seqs[d]
    }

    /// Replaces the whole state (SA's reheat to its best placement) and
    /// rebuilds the kept sequences and offsets to match.
    pub(crate) fn reset(
        &mut self,
        engine: &FitnessEngine<'_>,
        lists: &[Vec<VarId>],
        dbc_costs: &[u64],
        total: u64,
    ) {
        self.lists.clone_from_slice(lists);
        self.dbc_costs.copy_from_slice(dbc_costs);
        self.total = total;
        self.rebuild(engine);
    }

    /// Builds the kept state from the lists: the offsets table, then one
    /// merge of each DBC's members, which reads every run of the engine's
    /// position index once.
    fn rebuild(&mut self, engine: &FitnessEngine<'_>) {
        self.pending = None;
        let width = self
            .lists
            .iter()
            .flatten()
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0)
            .max(engine.var_count());
        self.offsets.clear();
        self.offsets.resize(width, u32::MAX);
        for list in &self.lists {
            for (off, v) in list.iter().enumerate() {
                self.offsets[v.index()] = off as u32;
            }
        }
        self.seqs.resize_with(self.lists.len(), Vec::new);
        for (seq, list) in self.seqs.iter_mut().zip(&self.lists) {
            engine.dbc_sequence(list, &mut self.scratch, seq);
        }
    }

    /// Applies `m`, re-costs the DBCs it touches and returns the new total
    /// (the incremental evaluation: untouched DBC costs are reused). The
    /// move stays pending until [`commit`](Self::commit) or
    /// [`undo`](Self::undo); applying another move commits it.
    pub fn apply(&mut self, engine: &FitnessEngine<'_>, m: Move) -> u64 {
        let touched = m.touched();
        let costs = touched.map(|o| o.map(|d| (d, self.dbc_costs[d])));
        let total = self.total;
        m.apply(&mut self.lists);
        self.reindex(m);
        let mut spliced = [None, None];
        match m {
            Move::Noop | Move::Transpose { .. } => {}
            Move::Relocate { src, dst, .. } => {
                if let Some(&v) = self.lists[dst].last() {
                    let run = engine.positions(v);
                    if !run.is_empty() {
                        self.splice(0, src, run, &[], 0);
                        self.splice(1, dst, &[], run, v.index() as u32);
                        spliced = [Some(src), Some(dst)];
                    }
                }
            }
            Move::Exchange { a, i, b, j } => {
                // `va` moved from `a` to `b`, `vb` the other way.
                let (vb, va) = (self.lists[a][i], self.lists[b][j]);
                let (run_a, run_b) = (engine.positions(va), engine.positions(vb));
                if !(run_a.is_empty() && run_b.is_empty()) {
                    self.splice(0, a, run_a, run_b, vb.index() as u32);
                    self.splice(1, b, run_b, run_a, va.index() as u32);
                    spliced = [Some(a), Some(b)];
                }
            }
        }
        for d in touched.into_iter().flatten() {
            let new = engine.kept_cost(&self.lists[d], &self.seqs[d], &self.offsets);
            self.total = self.total - self.dbc_costs[d] + new;
            self.dbc_costs[d] = new;
        }
        self.pending = Some(Pending {
            m,
            costs,
            total,
            spliced,
        });
        self.total
    }

    /// Keeps the pending move.
    pub fn commit(&mut self) {
        self.pending = None;
    }

    /// Reverts the pending move: the lists and offsets, the spliced
    /// sequences (swapped back from the spares) and the costs.
    pub fn undo(&mut self) {
        let Some(p) = self.pending.take() else {
            return;
        };
        p.m.undo(&mut self.lists);
        self.reindex(p.m);
        for (spare, d) in self.spare.iter_mut().zip(p.spliced) {
            if let Some(d) = d {
                std::mem::swap(spare, &mut self.seqs[d]);
            }
        }
        for (d, cost) in p.costs.into_iter().flatten() {
            self.dbc_costs[d] = cost;
        }
        self.total = p.total;
    }

    /// Rewrites the offsets of the list slots `m` changed, read from the
    /// lists as they now stand (after the move, or after its undo).
    fn reindex(&mut self, m: Move) {
        let mut set = |list: &[VarId], at: usize| {
            if let Some(v) = list.get(at) {
                self.offsets[v.index()] = at as u32;
            }
        };
        match m {
            Move::Noop => {}
            Move::Transpose { d, i, j } => {
                set(&self.lists[d], i);
                set(&self.lists[d], j);
            }
            Move::Relocate { src, i, dst } => {
                // Everything behind the removal point shifts by one; the
                // destination's tail gains (or loses) the variable.
                for at in i..self.lists[src].len() {
                    set(&self.lists[src], at);
                }
                set(&self.lists[dst], self.lists[dst].len().wrapping_sub(1));
            }
            Move::Exchange { a, i, b, j } => {
                set(&self.lists[a], i);
                set(&self.lists[b], j);
            }
        }
    }

    /// Splices DBC `d`'s kept sequence into spare buffer `slot` — with the
    /// entries at the positions of `drop` (a leaving member's run) removed
    /// and `add` (an arriving member's run) merged in as `var` — then
    /// swaps it in, so the old sequence waits in the spare for an undo.
    /// Both runs are ascending; the untouched stretches between their
    /// positions are copied whole.
    fn splice(&mut self, slot: usize, d: usize, drop: &[u32], add: &[u32], var: u32) {
        let (old, out) = (&self.seqs[d], &mut self.spare[slot]);
        out.clear();
        let (mut drop, mut add) = (drop.iter().peekable(), add.iter().peekable());
        let mut at = 0;
        loop {
            let (pos, adding) = match (drop.peek(), add.peek()) {
                (Some(&&x), Some(&&y)) if y < x => (y, true),
                (Some(&&x), _) => (x, false),
                (None, Some(&&y)) => (y, true),
                (None, None) => break,
            };
            let k = at + old[at..].partition_point(|&(p, _)| p < pos);
            out.extend_from_slice(&old[at..k]);
            at = k;
            if adding {
                add.next();
                out.push((pos, var));
            } else {
                drop.next();
                at += usize::from(old.get(k).is_some_and(|&(p, _)| p == pos));
            }
        }
        out.extend_from_slice(&old[at..]);
        std::mem::swap(&mut self.seqs[d], &mut self.spare[slot]);
    }
}

/// One local move over per-DBC lists, with enough information to undo it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Nothing to do (the sampled operator had no feasible instance).
    Noop,
    /// Swap positions `i` and `j` within DBC `d` (order-only change).
    Transpose {
        /// The DBC.
        d: usize,
        /// One position.
        i: usize,
        /// The other position.
        j: usize,
    },
    /// Move the variable at `src[i]` to the tail of `dst`.
    Relocate {
        /// The source DBC.
        src: usize,
        /// The variable's position in `src`.
        i: usize,
        /// The destination DBC.
        dst: usize,
    },
    /// Swap the variables at `a[i]` and `b[j]` across two DBCs.
    Exchange {
        /// One DBC.
        a: usize,
        /// The position in `a`.
        i: usize,
        /// The other DBC.
        b: usize,
        /// The position in `b`.
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
pub struct Neighborhood {
    capacity: usize,
    /// DBCs per subarray; `== lists.len()` on a flat geometry.
    dbcs_per_subarray: usize,
}

impl Neighborhood {
    /// The neighborhood of `dbcs` DBCs of `capacity` locations in
    /// `subarrays` subarrays (flat when `subarrays` does not divide
    /// `dbcs`).
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
        let Some(src) = pick(lists.len(), rng, |d| !lists[d].is_empty()) else {
            return Move::Noop;
        };
        let ok = |d: usize| match across {
            Some(q) => d / q != src / q,
            None => d != src,
        };
        let Some(dst) = pick(lists.len(), rng, |d| {
            ok(d) && lists[d].len() < self.capacity
        }) else {
            return Move::Noop;
        };
        let i = rng.gen_range(0..lists[src].len());
        Move::Relocate { src, i, dst }
    }

    fn transpose(lists: &[Vec<VarId>], rng: &mut impl Rng) -> Move {
        let Some(d) = pick(lists.len(), rng, |d| lists[d].len() >= 2) else {
            return Move::Noop;
        };
        let n = lists[d].len();
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        if i == j {
            j = (j + 1) % n;
        }
        Move::Transpose { d, i, j }
    }

    fn exchange(lists: &[Vec<VarId>], rng: &mut impl Rng) -> Move {
        let nonempty = |d: usize| !lists[d].is_empty();
        // Two non-empty DBCs or nothing is drawn at all.
        if (0..lists.len()).filter(|&d| nonempty(d)).nth(1).is_none() {
            return Move::Noop;
        }
        let Some(a) = pick(lists.len(), rng, nonempty) else {
            return Move::Noop;
        };
        let Some(b) = pick(lists.len(), rng, |d| nonempty(d) && d != a) else {
            return Move::Noop;
        };
        let i = rng.gen_range(0..lists[a].len());
        let j = rng.gen_range(0..lists[b].len());
        Move::Exchange { a, i, b, j }
    }
}

/// Draws uniformly among the indices `0..n` that satisfy `eligible`,
/// without collecting them: count, draw a rank, scan to it. One draw of
/// `0..count` when any index is eligible, none otherwise — the same draw
/// as indexing a collected list.
fn pick(n: usize, rng: &mut impl Rng, eligible: impl Fn(usize) -> bool) -> Option<usize> {
    let count = (0..n).filter(|&d| eligible(d)).count();
    if count == 0 {
        return None;
    }
    let rank = rng.gen_range(0..count);
    (0..n).filter(|&d| eligible(d)).nth(rank)
}

/// Picks the start state of a local search: the best of the (valid) seed
/// placements evaluated within budget, or a seeded random assignment when
/// no seed survives. Charges one evaluation per costed candidate; every
/// candidate is costed through one scratch, which then builds the chosen
/// state's kept sequences.
pub(crate) fn choose_start(
    engine: &FitnessEngine<'_>,
    dbcs: usize,
    capacity: usize,
    seeds: &[Placement],
    rng: &mut impl Rng,
    meter: &mut BudgetMeter,
) -> SearchState {
    let mut scratch = engine.scratch();
    let mut cost_of = |lists: &[Vec<VarId>], meter: &mut BudgetMeter| {
        let dbc_costs = engine.per_dbc_costs_with(lists, &mut scratch);
        meter.charge(1);
        meter.note_cost(dbc_costs.iter().sum());
        dbc_costs
    };
    let mut best: Option<(&Placement, Vec<u64>)> = None;
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
        let dbc_costs = cost_of(lists, meter);
        let total: u64 = dbc_costs.iter().sum();
        if best.as_ref().is_none_or(|(_, b)| total < b.iter().sum()) {
            best = Some((seed, dbc_costs));
        }
    }
    let (lists, dbc_costs) = match best {
        Some((seed, dbc_costs)) => (seed.dbc_lists().to_vec(), dbc_costs),
        None => {
            let lists = random_assignment(engine.accessed_vars(), dbcs, capacity, rng);
            let dbc_costs = cost_of(&lists, meter);
            (lists, dbc_costs)
        }
    };
    SearchState::with_costs(engine, lists, dbc_costs, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use rand::{RngCore, SeedableRng};
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

    /// The sampler as it was before it stopped allocating: each operator
    /// collects its eligible DBCs and indexes the list with one draw.
    fn propose_collecting(hood: &Neighborhood, lists: &[Vec<VarId>], rng: &mut impl Rng) -> Move {
        let relocate = |rng: &mut _, across: Option<usize>| {
            let nonempty: Vec<usize> = (0..lists.len()).filter(|&d| !lists[d].is_empty()).collect();
            if nonempty.is_empty() {
                return Move::Noop;
            }
            let src = nonempty[Rng::gen_range(rng, 0..nonempty.len())];
            let ok = |d: usize| match across {
                Some(q) => d / q != src / q,
                None => d != src,
            };
            let dsts: Vec<usize> = (0..lists.len())
                .filter(|&d| ok(d) && lists[d].len() < hood.capacity)
                .collect();
            if dsts.is_empty() {
                return Move::Noop;
            }
            let dst = dsts[Rng::gen_range(rng, 0..dsts.len())];
            let i = Rng::gen_range(rng, 0..lists[src].len());
            Move::Relocate { src, i, dst }
        };
        let hierarchical = hood.dbcs_per_subarray < lists.len();
        let roll = rng.gen_range(0..if hierarchical { 32u32 } else { 26 });
        if roll < 10 {
            relocate(rng, None)
        } else if roll < 20 {
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
        } else if roll < 26 {
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
        } else {
            relocate(rng, Some(hood.dbcs_per_subarray))
        }
    }

    #[test]
    fn propose_draws_as_the_collecting_reference() {
        let mut shapes = ChaCha8Rng::seed_from_u64(12);
        for case in 0..600 {
            let dbcs = 1 + case % 8;
            let subarrays = [1, 2, 4][case % 3];
            let capacity = shapes.gen_range(1..5usize);
            // Empty DBCs, DBCs at capacity and everything between.
            let mut next = 0;
            let lists: Vec<Vec<VarId>> = (0..dbcs)
                .map(|_| {
                    let n = shapes.gen_range(0..=capacity);
                    next += n;
                    (next - n..next).map(VarId::from_index).collect()
                })
                .collect();
            let hood = Neighborhood::new(dbcs, capacity, subarrays);
            let seed = shapes.next_u64();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reference = ChaCha8Rng::seed_from_u64(seed);
            for draw in 0..20 {
                assert_eq!(
                    hood.propose(&lists, &mut rng),
                    propose_collecting(&hood, &lists, &mut reference),
                    "case {case}, draw {draw}: {lists:?}"
                );
            }
            assert_eq!(
                rng.next_u64(),
                reference.next_u64(),
                "case {case}: streams diverged"
            );
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
        let mut st = SearchState::with_costs(&engine, lists, dbc_costs, engine.scratch());
        let hood = Neighborhood::new(3, 4, 1);
        for step in 0..200 {
            let (lists, costs, total) = (st.lists.clone(), st.dbc_costs.clone(), st.total);
            let m = hood.propose(&st.lists, &mut rng);
            let t = st.apply(&engine, m);
            assert_eq!(t, engine.per_dbc_costs(&st.lists).iter().sum::<u64>());
            if step % 3 == 0 {
                // An undone move leaves lists, costs and total as they were,
                // and the next re-costs still agree with a full replay.
                st.undo();
                assert_eq!(
                    (&st.lists, &st.dbc_costs, st.total),
                    (&lists, &costs, total)
                );
            } else {
                st.commit();
            }
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
