//! Exact (exhaustive) placement solver for small instances.
//!
//! Finding the optimal multi-DBC placement is NP-complete (the paper cites
//! Chen'16 for the reduction), so no polynomial exact algorithm exists —
//! but for instances of up to a dozen variables the full space of
//! `(assignment, permutation)` pairs is enumerable. This module provides
//! that enumeration as a *ground-truth oracle*: the property tests of this
//! crate check that every heuristic stays within its expected distance of
//! the optimum and that the GA converges to it on small inputs.
//!
//! The search enumerates ordered DBC contents directly (every way to split
//! the variable sequence across `q` DBCs in every order), pruning branches
//! whose partial cost already exceeds the incumbent.

use crate::cost::{CostModel, InitialAlignment};
use crate::error::PlacementError;
use crate::inter::check_fit;
use crate::placement::Placement;
use rtm_trace::{AccessSequence, VarId};

/// Hard cap on the exhaustive search size: `vars.len()` beyond which
/// [`solve`] refuses to run (the space grows as `q^n · n!`).
pub const MAX_EXACT_VARS: usize = 10;

/// Finds a provably optimal placement by exhaustive search with
/// branch-and-bound pruning.
///
/// # Errors
///
/// Returns [`PlacementError`] when the variables cannot fit the geometry.
///
/// # Panics
///
/// Panics if the trace has more than [`MAX_EXACT_VARS`] distinct variables
/// — call sites must guard; this is an oracle for tests and tiny inputs,
/// not a production solver.
///
/// # Example
///
/// ```
/// use rtm_placement::exact;
/// use rtm_placement::{CostModel, PlacementProblem, Strategy};
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("a b a c b a")?;
/// let (best, optimal) = exact::solve(&seq, 2, 4, CostModel::single_port())?;
/// let dma = PlacementProblem::new(seq, 2, 4).solve(&Strategy::DmaSr)?;
/// assert!(optimal <= dma.shifts);
/// assert!(best.validate_capacity(4));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve(
    seq: &AccessSequence,
    dbcs: usize,
    capacity: usize,
    cost: CostModel,
) -> Result<(ExactPlacement, u64), PlacementError> {
    let vars = seq.liveness().by_first_occurrence();
    assert!(
        vars.len() <= MAX_EXACT_VARS,
        "exact solver limited to {MAX_EXACT_VARS} variables, got {}",
        vars.len()
    );
    check_fit(vars.len(), dbcs, capacity)?;

    let mut best_cost = u64::MAX;
    let mut best: Vec<Vec<VarId>> = vec![Vec::new(); dbcs];
    let mut current: Vec<Vec<VarId>> = vec![Vec::new(); dbcs];
    let bound = PruneBound::new(&cost, capacity);
    search(
        seq,
        &vars,
        0,
        dbcs,
        capacity,
        &cost,
        &bound,
        &mut current,
        &mut best,
        &mut best_cost,
    );
    Ok((ExactPlacement { lists: best }, best_cost))
}

/// Finds a provably optimal *hierarchical* placement: `subarrays`
/// subarrays of `dbcs_per_subarray` DBCs, each DBC holding `capacity`
/// variables.
///
/// # Soundness: the per-subarray decomposition
///
/// The shift-cost objective is separable per DBC, every subarray shares
/// one track geometry, and subarrays never interact (each DBC keeps its
/// own port state). Hence, for any fixed assignment of variables to
/// subarrays, the instance decomposes into `subarrays` independent
/// subproblems and the hierarchical optimum is
///
/// ```text
/// opt(S × q, N) = min over S-way splits Σ_s opt_s(q DBCs, N)
/// ```
///
/// The flat enumeration over `S·q` uniform global DBCs ranges over exactly
/// those splits (a global DBC `d` belongs to subarray `d / q`), so solving
/// the flat instance *is* the hierarchical decomposition — and the per-DBC
/// `PruneBound` sums per-DBC (hence per-subarray) lower bounds, making
/// the pruning sound for the hierarchical form as-is. The decomposition
/// equality is pinned by `subarray_decomposition_equals_flat_optimum`.
///
/// # Errors
///
/// Returns [`PlacementError`] when the variables cannot fit the array.
///
/// # Panics
///
/// Panics if the trace has more than [`MAX_EXACT_VARS`] distinct
/// variables (see [`solve`]).
pub fn solve_array(
    seq: &AccessSequence,
    subarrays: usize,
    dbcs_per_subarray: usize,
    capacity: usize,
    cost: CostModel,
) -> Result<(ExactPlacement, u64), PlacementError> {
    if subarrays == 0 {
        return Err(PlacementError::EmptyGeometry);
    }
    solve(seq, subarrays * dbcs_per_subarray, capacity, cost)
}

/// Sound branch-and-bound pruning for any port count.
///
/// The bound used before this existed — the restricted shift cost of the
/// already-placed variables — is only sound for single-port models. Under
/// a multi-port model, inserting a later variable *between* two placed
/// ones grows their offset gap, and `min`-over-ports costing can make the
/// grown gap land exactly on a port-home difference, so a transition gets
/// *cheaper* in a descendant (ports homed at 0/4: offsets `0 → 3` cost 1,
/// but `0 → 4` cost 0). Pruning on the restricted cost would then cut off
/// branches that still lead to the optimum.
///
/// The sound generalization bounds each restricted transition from below
/// over everything a descendant can do:
///
/// * the relative order of placed variables in a DBC never changes, so a
///   transition's signed offset gap `Δ` can only grow in magnitude —
///   bounded by `min(capacity, track length) − 1`;
/// * serving any chain of interleaved new accesses moves the track at
///   least the displacement distance between the endpoints' port
///   alignments (triangle inequality), which is at least
///   `min over port pairs |Δ − (home_p − home_q)|`.
///
/// Minimizing that distance over the whole reachable gap interval yields
/// a valid per-transition lower bound. For single-port models the
/// home-difference set is `{0}`, the interval minimum is `|Δ|`, and the
/// bound equals the old restricted cost — single-port pruning strength is
/// unchanged.
struct PruneBound {
    /// Distinct pairwise port-home differences (symmetric, contains 0).
    home_diffs: Vec<i64>,
    /// Port home positions (for [`InitialAlignment::TrackHead`] bounds).
    homes: Vec<i64>,
    /// Largest offset any variable can occupy in a completed placement.
    max_offset: i64,
    initial: InitialAlignment,
}

impl PruneBound {
    fn new(cost: &CostModel, capacity: usize) -> Self {
        let homes: Vec<i64> = cost.coster().homes().to_vec();
        let mut home_diffs: Vec<i64> = homes
            .iter()
            .flat_map(|&a| homes.iter().map(move |&b| a - b))
            .collect();
        home_diffs.sort_unstable();
        home_diffs.dedup();
        let track = cost.track_length().unwrap_or(capacity);
        Self {
            home_diffs,
            homes,
            max_offset: capacity.min(track).saturating_sub(1) as i64,
            initial: cost.initial(),
        }
    }

    /// Distance from the closed interval `[lo, hi]` to the point `d`.
    fn interval_dist(lo: i64, hi: i64, d: i64) -> u64 {
        if d < lo {
            (lo - d) as u64
        } else if d > hi {
            (d - hi) as u64
        } else {
            0
        }
    }

    /// Lower bound on what a transition whose current signed offset gap is
    /// `gap` can cost in any completed descendant placement.
    fn transition(&self, gap: i64) -> u64 {
        if gap == 0 {
            return 0; // same variable: a self-transition stays free
        }
        // Descendant gaps keep the sign and can only grow in magnitude.
        let (lo, hi) = if gap > 0 {
            (gap, self.max_offset)
        } else {
            (-self.max_offset, gap)
        };
        self.home_diffs
            .iter()
            .map(|&d| Self::interval_dist(lo, hi, d))
            .min()
            .unwrap_or(0)
    }

    /// Lower bound on a DBC's first access, currently at offset `off`.
    fn first_access(&self, off: i64) -> u64 {
        match self.initial {
            InitialAlignment::FirstAccess => 0,
            InitialAlignment::TrackHead => self
                .homes
                .iter()
                .map(|&h| Self::interval_dist(off, self.max_offset, h))
                .min()
                .unwrap_or(0),
        }
    }

    /// Sound lower bound on the cost of every completed placement reachable
    /// from `lists`: one pass over the trace restricted to placed
    /// variables, summing per-transition bounds.
    fn lower_bound(&self, seq: &AccessSequence, lists: &[Vec<VarId>]) -> u64 {
        let var_count = seq.vars().len();
        let mut dbc_of = vec![u32::MAX; var_count];
        let mut off_of = vec![0u32; var_count];
        for (d, list) in lists.iter().enumerate() {
            for (off, &v) in list.iter().enumerate() {
                if v.index() < var_count {
                    dbc_of[v.index()] = d as u32;
                    off_of[v.index()] = off as u32;
                }
            }
        }
        // Last placed offset per DBC; `i64::MIN` = untouched.
        let mut last: Vec<i64> = vec![i64::MIN; lists.len()];
        let mut total = 0u64;
        for &v in seq.accesses() {
            let i = v.index();
            if i >= var_count || dbc_of[i] == u32::MAX {
                continue;
            }
            let d = dbc_of[i] as usize;
            let off = off_of[i] as i64;
            total += if last[d] == i64::MIN {
                self.first_access(off)
            } else {
                self.transition(off - last[d])
            };
            last[d] = off;
        }
        total
    }
}

/// Recursive enumeration: place `vars[i..]`, each variable at every DBC and
/// every insertion position, pruning on the incumbent via [`PruneBound`].
#[allow(clippy::too_many_arguments)]
fn search(
    seq: &AccessSequence,
    vars: &[VarId],
    i: usize,
    dbcs: usize,
    capacity: usize,
    cost: &CostModel,
    bound: &PruneBound,
    current: &mut Vec<Vec<VarId>>,
    best: &mut Vec<Vec<VarId>>,
    best_cost: &mut u64,
) {
    if i == vars.len() {
        let p = Placement::from_dbc_lists(current.clone());
        let c = cost.shift_cost(&p, seq.accesses());
        if c < *best_cost {
            *best_cost = c;
            *best = current.clone();
        }
        return;
    }
    if *best_cost != u64::MAX && bound.lower_bound(seq, current) >= *best_cost {
        return;
    }
    let v = vars[i];
    for d in 0..dbcs {
        if current[d].len() >= capacity {
            continue;
        }
        // Symmetry breaking: all empty DBCs are interchangeable, try only
        // the first one.
        if current[d].is_empty() && current[..d].iter().any(Vec::is_empty) {
            continue;
        }
        for pos in 0..=current[d].len() {
            current[d].insert(pos, v);
            search(
                seq,
                vars,
                i + 1,
                dbcs,
                capacity,
                cost,
                bound,
                current,
                best,
                best_cost,
            );
            current[d].remove(pos);
        }
    }
}

/// An optimal placement found by [`solve`], kept as raw lists so callers
/// can inspect or convert it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactPlacement {
    lists: Vec<Vec<VarId>>,
}

impl ExactPlacement {
    /// The per-DBC ordered variable lists.
    pub fn dbc_lists(&self) -> &[Vec<VarId>] {
        &self.lists
    }

    /// Converts into a [`Placement`].
    pub fn into_placement(self) -> Placement {
        Placement::from_dbc_lists(self.lists)
    }

    /// Whether every DBC holds at most `capacity` variables.
    pub fn validate_capacity(&self, capacity: usize) -> bool {
        self.lists.iter().all(|l| l.len() <= capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::GaConfig;
    use crate::strategy::{PlacementProblem, Strategy};

    #[test]
    fn optimum_on_trivial_trace_is_zero() {
        // Two variables, each accessed in a run: one shift at most, and with
        // 2 DBCs they separate for zero.
        let seq = AccessSequence::parse("a a a b b b").unwrap();
        let (_, c) = solve(&seq, 2, 4, CostModel::single_port()).unwrap();
        assert_eq!(c, 0);
    }

    #[test]
    fn optimum_on_alternating_pair_in_one_dbc() {
        let seq = AccessSequence::parse("a b a b a b").unwrap();
        let (p, c) = solve(&seq, 1, 2, CostModel::single_port()).unwrap();
        assert_eq!(c, 5); // adjacent placement, 5 transitions
        assert_eq!(p.dbc_lists()[0].len(), 2);
    }

    #[test]
    fn heuristics_never_beat_the_oracle() {
        let traces = [
            "a b a c b a c c",
            "x y z x z y y x",
            "p q p r s p q s r r",
            "m n m n o o m",
        ];
        for t in traces {
            let seq = AccessSequence::parse(t).unwrap();
            let n = seq.vars().len();
            let (_, optimal) = solve(&seq, 2, n, CostModel::single_port()).unwrap();
            let problem = PlacementProblem::new(seq.clone(), 2, n);
            for strat in [Strategy::AfdOfu, Strategy::DmaOfu, Strategy::DmaSr] {
                let sol = problem.solve(&strat).unwrap();
                assert!(
                    sol.shifts >= optimal,
                    "{t}: {} found {} below optimal {optimal}",
                    strat.name(),
                    sol.shifts
                );
            }
        }
    }

    #[test]
    fn ga_reaches_the_optimum_on_small_instances() {
        let seq = AccessSequence::parse("a b a c b a c c d d a").unwrap();
        let n = seq.vars().len();
        let (_, optimal) = solve(&seq, 2, n, CostModel::single_port()).unwrap();
        let problem = PlacementProblem::new(seq.clone(), 2, n);
        let ga = problem.solve(&Strategy::Ga(GaConfig::quick())).unwrap();
        assert_eq!(ga.shifts, optimal, "GA should find the optimum here");
    }

    #[test]
    fn respects_capacity() {
        let seq = AccessSequence::parse("a b c a b c").unwrap();
        let (p, _) = solve(&seq, 3, 1, CostModel::single_port()).unwrap();
        assert!(p.validate_capacity(1));
        assert!(solve(&seq, 1, 2, CostModel::single_port()).is_err());
    }

    #[test]
    #[should_panic(expected = "exact solver limited")]
    fn refuses_large_instances() {
        let text: String = (0..12).map(|i| format!("v{i} ")).collect();
        let seq = AccessSequence::parse(&text).unwrap();
        let _ = solve(&seq, 2, 12, CostModel::single_port());
    }

    /// Unpruned exhaustive reference: the plain minimum over every
    /// (assignment, permutation), no bound involved.
    fn brute_force(seq: &AccessSequence, dbcs: usize, capacity: usize, cost: CostModel) -> u64 {
        fn rec(
            seq: &AccessSequence,
            vars: &[VarId],
            i: usize,
            capacity: usize,
            cost: &CostModel,
            current: &mut Vec<Vec<VarId>>,
            best: &mut u64,
        ) {
            if i == vars.len() {
                let p = Placement::from_dbc_lists(current.clone());
                *best = (*best).min(cost.shift_cost(&p, seq.accesses()));
                return;
            }
            for d in 0..current.len() {
                if current[d].len() >= capacity {
                    continue;
                }
                for pos in 0..=current[d].len() {
                    current[d].insert(pos, vars[i]);
                    rec(seq, vars, i + 1, capacity, cost, current, best);
                    current[d].remove(pos);
                }
            }
        }
        let vars = seq.liveness().by_first_occurrence();
        let mut best = u64::MAX;
        let mut current = vec![Vec::new(); dbcs];
        rec(seq, &vars, 0, capacity, &cost, &mut current, &mut best);
        best
    }

    #[test]
    fn multi_port_pruning_is_sound() {
        // The pre-PruneBound restricted-cost prune was unsound for
        // multi-port models (a grown gap can land on a port-home difference
        // and get cheaper); compare against the unpruned enumeration on
        // traces engineered around the 0/4-home geometry and a few generic
        // shapes.
        let traces = [
            "a b a b c d a c",
            "a b c a b c d d",
            "x y z w x z y w",
            "p q p r q p r r",
        ];
        for t in traces {
            let seq = AccessSequence::parse(t).unwrap();
            let n = seq.vars().len();
            for (ports, track) in [(2, n.max(2)), (2, 8), (4, 8)] {
                let cost = CostModel::multi_port(ports, track);
                let (p, c) = solve(&seq, 2, n, cost).unwrap();
                assert_eq!(
                    c,
                    brute_force(&seq, 2, n, cost),
                    "{t} @ {ports} ports over {track} domains"
                );
                let placement = p.into_placement();
                assert_eq!(cost.shift_cost(&placement, seq.accesses()), c);
            }
        }
    }

    #[test]
    fn multi_port_optimum_never_exceeds_single_port() {
        for t in ["a b a c b a c c", "m n m n o o m", "x y z x z y y x"] {
            let seq = AccessSequence::parse(t).unwrap();
            let n = seq.vars().len();
            let (_, opt1) = solve(&seq, 2, n, CostModel::single_port()).unwrap();
            let (_, opt2) = solve(&seq, 2, n, CostModel::multi_port(2, n)).unwrap();
            assert!(opt2 <= opt1, "{t}: 2-port optimum {opt2} > 1-port {opt1}");
        }
    }

    #[test]
    fn prune_bound_equals_restricted_cost_for_single_port() {
        // For single-port models the generalized bound must degenerate to
        // the old restricted partial cost (same pruning strength).
        let seq = AccessSequence::parse("a b a c b a c c d a").unwrap();
        let id = |i| VarId::from_index(i);
        let partials = [
            vec![vec![id(0)], vec![]],
            vec![vec![id(0), id(2)], vec![id(1)]],
            vec![vec![id(2), id(0)], vec![id(1), id(3)]],
        ];
        let cost = CostModel::single_port();
        let bound = PruneBound::new(&cost, 6);
        for lists in partials {
            let p = Placement::from_dbc_lists(lists.clone());
            assert_eq!(
                bound.lower_bound(&seq, &lists),
                cost.shift_cost(&p, seq.accesses())
            );
        }
    }

    #[test]
    fn subarray_decomposition_equals_flat_optimum() {
        // The soundness claim of `solve_array`, verified by brute force:
        // min over every 2-way variable split of the sum of per-subarray
        // optima equals the flat optimum over 2·q global DBCs.
        let traces = ["a b a c b a c c", "x y z x z y y x", "m n m n o o m"];
        for t in traces {
            let seq = AccessSequence::parse(t).unwrap();
            let vars = seq.liveness().by_first_occurrence();
            let n = vars.len();
            for (subarrays, q, cap) in [(2usize, 1usize, n), (2, 2, 2)] {
                if n > subarrays * q * cap {
                    continue;
                }
                let cost = CostModel::single_port();
                let (_, flat_opt) = solve_array(&seq, subarrays, q, cap, cost).unwrap();
                // Enumerate every assignment of variables to the 2 subarrays.
                let mut best_split = u64::MAX;
                for mask in 0u32..(1 << n) {
                    let mut total = 0u64;
                    let mut feasible = true;
                    for s in 0..2u32 {
                        let group: Vec<VarId> = vars
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| (mask >> i) & 1 == s)
                            .map(|(_, &v)| v)
                            .collect();
                        if group.len() > q * cap {
                            feasible = false;
                            break;
                        }
                        if group.is_empty() {
                            continue;
                        }
                        // Rebuild the subsequence touching this group only.
                        let mut b = rtm_trace::SequenceBuilder::new();
                        for &v in seq.accesses() {
                            if group.contains(&v) {
                                b.access_named(seq.vars().name(v), rtm_trace::AccessKind::Read);
                            }
                        }
                        let sub = b.finish();
                        let (_, opt) = solve(&sub, q, cap, cost).unwrap();
                        total += opt;
                    }
                    if feasible {
                        best_split = best_split.min(total);
                    }
                }
                assert_eq!(
                    flat_opt, best_split,
                    "{t}: decomposition mismatch at {subarrays}x{q} DBCs, cap {cap}"
                );
            }
        }
    }

    #[test]
    fn solve_array_degenerates_and_validates() {
        let seq = AccessSequence::parse("a b a b a b").unwrap();
        let cost = CostModel::single_port();
        // One subarray: identical to the flat solver.
        let (p1, c1) = solve_array(&seq, 1, 1, 2, cost).unwrap();
        let (p2, c2) = solve(&seq, 1, 2, cost).unwrap();
        assert_eq!((p1, c1), (p2, c2));
        // More subarrays never hurt.
        let (_, c_two) = solve_array(&seq, 2, 1, 2, cost).unwrap();
        assert!(c_two <= c1);
        // Zero subarrays is a geometry error, not a panic.
        assert_eq!(
            solve_array(&seq, 0, 1, 2, cost),
            Err(PlacementError::EmptyGeometry)
        );
    }

    #[test]
    fn paper_example_lower_bound() {
        // The Fig. 3 example has 9 variables — still feasible. The paper's
        // DMA layout costs 11; the true optimum can only be lower.
        let seq = AccessSequence::parse("a b a b c a c a d d a i e f e f g e g h g i h i").unwrap();
        let (_, optimal) = solve(&seq, 2, 9, CostModel::single_port()).unwrap();
        assert!(optimal <= 11, "optimum {optimal} must be <= DMA's 11");
        assert!(optimal >= 5, "sanity: {optimal} suspiciously low");
    }
}
