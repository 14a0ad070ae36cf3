//! The [`Budget`] abstraction: how long an anytime solver may search.
//!
//! A budget bounds a search run along up to three axes — fitness
//! evaluations, wall-clock time, and evaluations since the last
//! improvement (*stall*) — and a run stops as soon as **any** configured
//! axis is exhausted. Every solver in [`crate::search`] consumes its budget
//! through a [`BudgetMeter`], which doubles as the telemetry recorder for
//! the `evals_consumed` / `time_to_best` fields of
//! [`Solution`](crate::Solution).
//!
//! Determinism: a budget with no wall-clock deadline is *deterministic* —
//! exhaustion depends only on the evaluation counters, so a solver's
//! trajectory is a pure function of its seed and budget, independent of
//! thread count, scheduling, and machine speed. A deadline budget is
//! inherently machine-dependent; the solvers remain *anytime* under it
//! (best-so-far is always available) but bit-reproducibility is only
//! promised for deterministic budgets (see `DESIGN.md` §8).

use crate::cancel::CancelToken;
use std::fmt;
use std::time::{Duration, Instant};

/// Evaluation horizon assumed by [`BudgetMeter::progress`] when the budget
/// bounds neither evaluations nor wall-clock time (stall-only budgets):
/// the paper's random-walk budget of 60 000 evaluations.
const DEFAULT_HORIZON_EVALS: u64 = 60_000;

/// A search budget: evaluations, wall-clock time, stall, or any
/// combination. Exhaustion of **any** configured axis stops the search.
///
/// # Example
///
/// ```
/// use rtm_placement::search::Budget;
///
/// // At most 50 000 evaluations.
/// let b = Budget::evals(50_000);
/// assert!(b.is_deterministic());
///
/// // 200 ms deadline, but stop early after 5 000 evals without progress.
/// let b = Budget::wall_clock_ms(200).and_stall(5_000);
/// assert!(!b.is_deterministic());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    max_evals: Option<u64>,
    deadline: Option<Duration>,
    stall_evals: Option<u64>,
}

impl Budget {
    /// A budget of at most `n` fitness evaluations.
    ///
    /// Every solver performs at least one evaluation (the start state must
    /// be costed to be reportable), so `n == 0` behaves like `n == 1`.
    pub fn evals(n: u64) -> Self {
        Self {
            max_evals: Some(n),
            deadline: None,
            stall_evals: None,
        }
    }

    /// A wall-clock budget: search until `deadline` has elapsed.
    pub fn wall_clock(deadline: Duration) -> Self {
        Self {
            max_evals: None,
            deadline: Some(deadline),
            stall_evals: None,
        }
    }

    /// [`wall_clock`](Self::wall_clock) in milliseconds.
    pub fn wall_clock_ms(ms: u64) -> Self {
        Self::wall_clock(Duration::from_millis(ms))
    }

    /// A stall budget: stop after `n` evaluations without an improvement
    /// of the best-so-far cost.
    pub fn stall(n: u64) -> Self {
        Self {
            max_evals: None,
            deadline: None,
            stall_evals: Some(n),
        }
    }

    /// Adds (or replaces) an evaluation bound.
    pub fn and_evals(mut self, n: u64) -> Self {
        self.max_evals = Some(n);
        self
    }

    /// Adds (or replaces) a wall-clock deadline in milliseconds.
    pub fn and_wall_clock_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Adds (or replaces) a stall bound.
    pub fn and_stall(mut self, n: u64) -> Self {
        self.stall_evals = Some(n);
        self
    }

    /// The evaluation bound, if configured.
    pub fn max_evals(&self) -> Option<u64> {
        self.max_evals
    }

    /// The wall-clock deadline, if configured.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The stall bound, if configured.
    pub fn stall_evals(&self) -> Option<u64> {
        self.stall_evals
    }

    /// Whether exhaustion is independent of wall-clock time — the
    /// precondition of the bit-reproducibility contract (`DESIGN.md` §8).
    pub fn is_deterministic(&self) -> bool {
        self.deadline.is_none()
    }
}

/// Why a metered run stopped — the telemetry that distinguishes "hit the
/// deadline" from "spent the eval budget" from "was cancelled", so a
/// deadline overshoot shows instead of hiding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The solver reached a natural fixpoint (e.g. a zero-cost optimum)
    /// before any budget axis ran out.
    Finished,
    /// The evaluation bound was spent.
    Evals,
    /// The stall bound was spent (no improvement for `stall_evals`).
    Stall,
    /// The wall-clock deadline elapsed.
    Deadline,
    /// An attached [`CancelToken`] was cancelled (its race deadline passed
    /// or a caller cancelled it).
    Cancelled,
}

impl StopCause {
    /// Stable lowercase name, used verbatim in the CLI `--json` schema.
    pub fn name(self) -> &'static str {
        match self {
            StopCause::Finished => "finished",
            StopCause::Evals => "evals",
            StopCause::Stall => "stall",
            StopCause::Deadline => "deadline",
            StopCause::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runtime state of one solver run against a [`Budget`]: consumed
/// evaluations, elapsed time, stall counter, and the best-so-far telemetry
/// (`evals_at_best`, `time_to_best`).
#[derive(Debug)]
pub struct BudgetMeter {
    budget: Budget,
    start: Instant,
    evals: u64,
    best: Option<u64>,
    evals_at_best: u64,
    time_at_best: Duration,
    stall: u64,
    cancel: Option<CancelToken>,
    #[cfg(feature = "faults")]
    faults: Option<crate::search::faults::LaneFaults>,
}

impl BudgetMeter {
    /// Starts metering `budget` now.
    pub fn new(budget: Budget) -> Self {
        Self {
            budget,
            start: Instant::now(),
            evals: 0,
            best: None,
            evals_at_best: 0,
            time_at_best: Duration::ZERO,
            stall: 0,
            cancel: None,
            #[cfg(feature = "faults")]
            faults: None,
        }
    }

    /// Attaches a cancellation token: once it is cancelled, the meter
    /// reports [`exhausted`](Self::exhausted) at the next check. Checking
    /// the token never consumes budget or draws randomness, so attaching
    /// one to a deterministic run cannot perturb its trajectory.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deterministic fault schedule for this lane (test-only;
    /// see [`crate::search::faults`]).
    #[cfg(feature = "faults")]
    pub(crate) fn with_faults(mut self, faults: Option<crate::search::faults::LaneFaults>) -> Self {
        self.faults = faults;
        self
    }

    /// The budget being metered.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Records `n` fitness evaluations.
    pub fn charge(&mut self, n: u64) {
        self.evals += n;
        self.stall += n;
        #[cfg(feature = "faults")]
        if let Some(faults) = self.faults.as_mut() {
            faults.on_charge(self.evals, self.cancel.as_ref());
        }
    }

    /// Records an observed total cost; returns whether it improves the
    /// best-so-far (strictly), stamping `evals_at_best`/`time_to_best` and
    /// resetting the stall counter if so.
    pub fn note_cost(&mut self, cost: u64) -> bool {
        let improved = self.best.is_none_or(|b| cost < b);
        if improved {
            self.best = Some(cost);
            self.evals_at_best = self.evals;
            self.time_at_best = self.start.elapsed();
            self.stall = 0;
        }
        improved
    }

    /// Whether any configured axis of the budget is exhausted, or an
    /// attached [`CancelToken`] has been cancelled.
    ///
    /// The stall axis only applies once a first cost has been observed; the
    /// deadline axis reads the clock, so deterministic budgets never do.
    pub fn exhausted(&self) -> bool {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return true;
        }
        if let Some(n) = self.budget.max_evals {
            if self.evals >= n.max(1) {
                return true;
            }
        }
        if let Some(s) = self.budget.stall_evals {
            if self.best.is_some() && self.stall >= s.max(1) {
                return true;
            }
        }
        if let Some(d) = self.budget.deadline {
            if self.start.elapsed() >= d {
                return true;
            }
        }
        false
    }

    /// Evaluations left under the evaluation bound (`u64::MAX` when the
    /// budget has none).
    pub fn remaining_evals(&self) -> u64 {
        match self.budget.max_evals {
            Some(n) => n.max(1).saturating_sub(self.evals),
            None => u64::MAX,
        }
    }

    /// Fraction of the budget consumed, in `[0, 1]` — the cooling-schedule
    /// driver. Uses the evaluation axis when bounded, the wall-clock axis
    /// when only a deadline is set, and a default horizon of
    /// 60 000 evaluations for stall-only budgets.
    pub fn progress(&self) -> f64 {
        let mut p = 0.0f64;
        if let Some(n) = self.budget.max_evals {
            p = p.max(self.evals as f64 / n.max(1) as f64);
        } else if let Some(d) = self.budget.deadline {
            p = p.max(self.start.elapsed().as_secs_f64() / d.as_secs_f64().max(1e-9));
        } else {
            p = p.max(self.evals as f64 / DEFAULT_HORIZON_EVALS as f64);
        }
        p.min(1.0)
    }

    /// Evaluations consumed so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Evaluations consumed when the best-so-far cost was first reached.
    pub fn evals_at_best(&self) -> u64 {
        self.evals_at_best
    }

    /// Wall time from start to the first sighting of the best-so-far cost.
    pub fn time_to_best(&self) -> Duration {
        self.time_at_best
    }

    /// The best cost noted so far.
    pub fn best(&self) -> Option<u64> {
        self.best
    }

    /// Wall time elapsed since the meter started — the actual
    /// elapsed-at-stop when read after the solver loop exits, so telemetry
    /// can expose deadline overshoot instead of silently absorbing it.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Why the run stopped, judged from the meter's final state.
    ///
    /// Priority when several axes are spent at once: a blown deadline
    /// outranks cancellation (a race token expires *because* of the
    /// deadline, and "deadline" is the actionable cause), which outranks
    /// the deterministic axes. A meter with nothing spent reports
    /// [`StopCause::Finished`] — the solver stopped on its own (e.g. a
    /// zero-cost optimum).
    pub fn stop_cause(&self) -> StopCause {
        if self
            .budget
            .deadline
            .is_some_and(|d| self.start.elapsed() >= d)
        {
            return StopCause::Deadline;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return StopCause::Cancelled;
        }
        if self
            .budget
            .max_evals
            .is_some_and(|n| self.evals >= n.max(1))
        {
            return StopCause::Evals;
        }
        if self
            .budget
            .stall_evals
            .is_some_and(|s| self.best.is_some() && self.stall >= s.max(1))
        {
            return StopCause::Stall;
        }
        StopCause::Finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_budget_exhausts_exactly() {
        let mut m = BudgetMeter::new(Budget::evals(3));
        assert!(!m.exhausted());
        m.charge(2);
        assert!(!m.exhausted());
        m.charge(1);
        assert!(m.exhausted());
        assert_eq!(m.remaining_evals(), 0);
    }

    #[test]
    fn zero_eval_budget_behaves_like_one() {
        let mut m = BudgetMeter::new(Budget::evals(0));
        assert!(!m.exhausted());
        assert_eq!(m.remaining_evals(), 1);
        m.charge(1);
        assert!(m.exhausted());
    }

    #[test]
    fn stall_budget_waits_for_a_first_cost() {
        let mut m = BudgetMeter::new(Budget::stall(2));
        m.charge(10);
        assert!(!m.exhausted(), "stall needs an observed cost first");
        m.note_cost(100);
        m.charge(1);
        assert!(!m.exhausted());
        m.charge(1);
        assert!(m.exhausted());
        // An improvement resets the stall counter.
        let mut m = BudgetMeter::new(Budget::stall(2));
        m.note_cost(100);
        m.charge(1);
        m.note_cost(90);
        m.charge(1);
        assert!(!m.exhausted());
    }

    #[test]
    fn note_cost_tracks_best_telemetry() {
        let mut m = BudgetMeter::new(Budget::evals(100));
        m.charge(5);
        assert!(m.note_cost(50));
        assert!(!m.note_cost(50), "ties are not improvements");
        m.charge(5);
        assert!(m.note_cost(40));
        assert_eq!(m.evals_at_best(), 10);
        assert_eq!(m.best(), Some(40));
    }

    #[test]
    fn deadline_budget_is_not_deterministic() {
        assert!(Budget::evals(10).is_deterministic());
        assert!(Budget::stall(10).is_deterministic());
        assert!(!Budget::wall_clock_ms(5).is_deterministic());
        assert!(!Budget::evals(10).and_wall_clock_ms(5).is_deterministic());
    }

    #[test]
    fn expired_deadline_exhausts() {
        let m = BudgetMeter::new(Budget::wall_clock(Duration::ZERO));
        assert!(m.exhausted());
    }

    #[test]
    fn progress_prefers_the_eval_axis() {
        let mut m = BudgetMeter::new(Budget::evals(10));
        m.charge(5);
        assert!((m.progress() - 0.5).abs() < 1e-12);
        m.charge(50);
        assert!((m.progress() - 1.0).abs() < 1e-12);
        // Stall-only budgets fall back to the default horizon.
        let mut m = BudgetMeter::new(Budget::stall(10));
        m.charge(30_000);
        assert!((m.progress() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn combinators_replace_axes() {
        let b = Budget::evals(10).and_stall(5).and_evals(20);
        assert_eq!(b.max_evals(), Some(20));
        assert_eq!(b.stall_evals(), Some(5));
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn cancellation_exhausts_immediately() {
        let token = CancelToken::new();
        let m = BudgetMeter::new(Budget::evals(1_000)).with_cancel(token.clone());
        assert!(!m.exhausted());
        assert_eq!(m.stop_cause(), StopCause::Finished);
        token.cancel();
        assert!(m.exhausted());
        assert_eq!(m.stop_cause(), StopCause::Cancelled);
    }

    #[test]
    fn stop_cause_names_each_axis() {
        let mut m = BudgetMeter::new(Budget::evals(2));
        m.charge(2);
        assert_eq!(m.stop_cause(), StopCause::Evals);

        let mut m = BudgetMeter::new(Budget::stall(1));
        m.note_cost(10);
        m.charge(1);
        assert_eq!(m.stop_cause(), StopCause::Stall);

        let m = BudgetMeter::new(Budget::wall_clock(Duration::ZERO));
        assert_eq!(m.stop_cause(), StopCause::Deadline);

        // A blown deadline outranks a cancelled token.
        let token = CancelToken::new();
        token.cancel();
        let m = BudgetMeter::new(Budget::wall_clock(Duration::ZERO)).with_cancel(token);
        assert_eq!(m.stop_cause(), StopCause::Deadline);
    }

    #[test]
    fn stop_cause_names_are_stable() {
        assert_eq!(StopCause::Finished.name(), "finished");
        assert_eq!(StopCause::Evals.name(), "evals");
        assert_eq!(StopCause::Stall.name(), "stall");
        assert_eq!(StopCause::Deadline.name(), "deadline");
        assert_eq!(StopCause::Cancelled.to_string(), "cancelled");
    }
}
