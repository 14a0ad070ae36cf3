//! Deterministic fault injection for the portfolio race (test-only;
//! compiled under `--features faults`).
//!
//! A [`FaultPlan`] maps lane indices to injected [`Fault`]s on a
//! reproducible schedule: a lane panic after N evaluations, an artificial
//! stall, or poisoning the engine's shared memo at lane start. The plan
//! is threaded from [`Portfolio::with_faults`](crate::Portfolio) through
//! the race control into each lane's [`BudgetMeter`](super::BudgetMeter),
//! whose `charge` calls drive the schedule — so the same plan, seed and
//! budget always fault at the same trajectory points.
//!
//! Every fault is **cancellation-responsive**, which is what makes the
//! `deadline + grace` contract testable: a panic unwinds to the lane
//! boundary immediately, a stall sleeps in millisecond slices polling the
//! race's [`CancelToken`], and cache poisoning is recovered on the next
//! lock (`DESIGN.md` §9).

use crate::cancel::CancelToken;
use std::time::Duration;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic the lane once its meter has charged at least this many
    /// evaluations (`panic!`, contained at the lane boundary).
    PanicAfterEvals(u64),
    /// Sleep for the duration once the meter has charged at least the
    /// given evaluations — once per lane, in 1 ms slices that poll the
    /// race's cancellation token.
    StallAfterEvals(u64, Duration),
    /// Poison the engine's memo at lane start by panicking while its lock
    /// is held (recovered by clear-and-rebuild on the next access).
    PoisonCaches,
}

/// A deterministic fault schedule: which lanes fault, and how.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(usize, Fault)>,
}

/// splitmix64 finalizer — the same mixer [`PortfolioConfig::lane_seed`]
/// (crate::PortfolioConfig::lane_seed) uses, so schedules are stable
/// across platforms.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no lane faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault to the given lane (builder-style; a lane may carry
    /// several faults).
    pub fn inject(mut self, lane: usize, fault: Fault) -> Self {
        self.faults.push((lane, fault));
        self
    }

    /// A reproducible pseudo-random schedule over `lanes` lanes: each lane
    /// independently draws healthy / panic / stall / poison from the seed.
    /// One lane (chosen by the seed) is always left healthy, so a race
    /// under this schedule has a survivor — degradation to the bare
    /// incumbent is exercised with explicit [`inject`](Self::inject)
    /// schedules instead.
    pub fn from_seed(seed: u64, lanes: usize) -> Self {
        let mut plan = Self::new();
        if lanes == 0 {
            return plan;
        }
        let healthy = (splitmix64(seed) % lanes as u64) as usize;
        for lane in 0..lanes {
            if lane == healthy {
                continue;
            }
            let r = splitmix64(seed ^ (lane as u64 + 0x5eed));
            plan = match r % 4 {
                0 => plan,
                1 => plan.inject(lane, Fault::PanicAfterEvals(1 + r % 97)),
                2 => plan.inject(
                    lane,
                    Fault::StallAfterEvals(1 + r % 53, Duration::from_millis(5 + r % 40)),
                ),
                _ => plan.inject(lane, Fault::PoisonCaches),
            };
        }
        plan
    }

    /// The compiled fault state for one lane (what the lane's meter and
    /// the lane runner consume).
    pub(crate) fn lane_faults(&self, lane: usize) -> LaneFaults {
        let mut out = LaneFaults::default();
        for (l, fault) in &self.faults {
            if *l != lane {
                continue;
            }
            match *fault {
                Fault::PanicAfterEvals(n) => out.panic_after = Some(n),
                Fault::StallAfterEvals(n, d) => out.stall = Some((n, d)),
                Fault::PoisonCaches => out.poison = true,
            }
        }
        out
    }
}

/// One lane's compiled fault state, driven by its meter's `charge` calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneFaults {
    panic_after: Option<u64>,
    stall: Option<(u64, Duration)>,
    stalled: bool,
    poison: bool,
}

impl LaneFaults {
    /// Whether this lane poisons the engine's memo at start.
    pub(crate) fn poisons_caches(&self) -> bool {
        self.poison
    }

    /// Drives the schedule from the meter: called after every charge with
    /// the lane's running evaluation count. Stalls fire once; the sleep
    /// polls the race's cancellation token every millisecond so a stalled
    /// lane still honours the deadline wind-down. The panic fires *after*
    /// any stall, unwinding to the lane boundary.
    pub(crate) fn on_charge(&mut self, evals: u64, cancel: Option<&CancelToken>) {
        if let Some((after, duration)) = self.stall {
            if !self.stalled && evals >= after {
                self.stalled = true;
                let mut remaining = duration;
                while remaining > Duration::ZERO {
                    if cancel.is_some_and(CancelToken::is_cancelled) {
                        break;
                    }
                    let step = remaining.min(Duration::from_millis(1));
                    std::thread::sleep(step);
                    remaining = remaining.saturating_sub(step);
                }
            }
        }
        if self.panic_after.is_some_and(|n| evals >= n) {
            panic!("injected fault: lane panic after {evals} evals");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_compile_per_lane() {
        let plan = FaultPlan::new()
            .inject(0, Fault::PanicAfterEvals(10))
            .inject(1, Fault::StallAfterEvals(5, Duration::from_millis(2)))
            .inject(1, Fault::PoisonCaches);
        assert_eq!(plan.lane_faults(0).panic_after, Some(10));
        assert!(!plan.lane_faults(0).poisons_caches());
        let lane1 = plan.lane_faults(1);
        assert_eq!(lane1.stall, Some((5, Duration::from_millis(2))));
        assert!(lane1.poisons_caches());
        assert!(plan.lane_faults(2).panic_after.is_none());
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_keep_a_healthy_lane() {
        let a = FaultPlan::from_seed(17, 4);
        let b = FaultPlan::from_seed(17, 4);
        assert_eq!(a.faults, b.faults);
        let healthy = (0..4)
            .filter(|&l| {
                let f = a.lane_faults(l);
                f.panic_after.is_none() && f.stall.is_none() && !f.poison
            })
            .count();
        assert!(healthy >= 1, "every seeded schedule keeps a survivor");
        assert!(FaultPlan::from_seed(0, 0).faults.is_empty());
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_fires_at_its_threshold() {
        let mut faults = FaultPlan::new()
            .inject(0, Fault::PanicAfterEvals(3))
            .lane_faults(0);
        faults.on_charge(2, None); // below threshold: no-op
        faults.on_charge(3, None);
    }

    #[test]
    fn stall_fault_fires_once_and_honours_cancellation() {
        let mut faults = FaultPlan::new()
            .inject(0, Fault::StallAfterEvals(1, Duration::from_secs(60)))
            .lane_faults(0);
        let token = CancelToken::new();
        token.cancel();
        let start = std::time::Instant::now();
        faults.on_charge(1, Some(&token)); // cancelled: returns immediately
        faults.on_charge(2, Some(&token)); // already stalled: no-op
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(faults.stalled);
    }
}
