//! Cooperative cancellation: a cheap, cloneable [`CancelToken`] that tells
//! every in-flight solver and pool job to wind down at its next check
//! point — once someone calls [`cancel`](CancelToken::cancel), or once the
//! token's optional deadline passes (a portfolio race's token carries the
//! race deadline, so nothing has to stand by to flip it).
//!
//! Cancellation is *cooperative*: nothing is interrupted mid-evaluation.
//! Solvers poll the token between evaluations (via
//! [`BudgetMeter::exhausted`](crate::search::BudgetMeter::exhausted)), and
//! [`WorkerPool::run_with_cancel`](crate::pool::WorkerPool::run_with_cancel)
//! polls it before claiming each queued item — so the worst-case latency
//! from cancellation to quiescence is one evaluation plus one in-flight
//! item.
//!
//! Checking the token is an atomic load, plus a clock read only when it
//! has a deadline. It never draws from an RNG or consumes budget, and
//! deterministic (eval-budget) runs carry no deadline, so threading a
//! token through one cannot perturb its trajectory: the
//! bit-reproducibility contract of `DESIGN.md` §8 is preserved.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared one-way cancellation flag with an optional deadline. Clones
/// observe the same flag and the same deadline.
///
/// # Example
///
/// ```
/// use rtm_placement::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that also reads as cancelled from `deadline` on.
    pub fn until(deadline: Instant) -> Self {
        Self {
            flag: Arc::default(),
            deadline: Some(deadline),
        }
    }

    /// Requests cancellation. Idempotent; never un-cancels.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // Idempotent.
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn default_is_not_cancelled() {
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn a_passed_deadline_cancels_and_no_deadline_never_does() {
        let expired = CancelToken::until(Instant::now());
        assert!(expired.is_cancelled());
        assert!(expired.clone().is_cancelled(), "clones share the deadline");
        let later = CancelToken::until(Instant::now() + Duration::from_secs(3600));
        assert!(!later.is_cancelled());
        later.cancel();
        assert!(later.is_cancelled(), "the flag still cancels early");
        // Without a deadline only `cancel` can end the token.
        let open = CancelToken::new();
        std::thread::sleep(Duration::from_millis(5));
        assert!(!open.is_cancelled());
    }

    #[test]
    fn token_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
