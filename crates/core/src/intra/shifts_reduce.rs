//! The ShiftsReduce intra-DBC heuristic and the arrangement-cost helpers.

use super::grouping::{bidirectional_grouping, LocalGraph, Seed};
use super::{append_unaccessed, IntraHeuristic};
use rtm_trace::{AccessSequence, VarId};

/// The ShiftsReduce heuristic (Khan et al., 2019): adjacency-driven
/// *bidirectional grouping* over the access graph, refined by a swap-based
/// local search.
///
/// Within one DBC (single port, free initial alignment) the exact shift
/// cost of a layout is
///
/// ```text
/// cost(pos) = Σ_{edges {u,v}} w_uv · |pos(u) − pos(v)|
/// ```
///
/// i.e. the classic **minimum linear arrangement** objective over the
/// access graph — the framing the offset-assignment literature behind the
/// paper uses. ShiftsReduce:
///
/// 1. seeds with the vertex of maximum adjacency mass (not raw frequency —
///    the key difference from [`Chen`](super::Chen));
/// 2. grows the layout at *both* ends, always appending the unplaced vertex
///    most strongly connected to the placed set at the cheaper end;
/// 3. runs adjacent-swap hill-climbing passes on the objective until a
///    fixpoint (bounded by [`with_max_passes`](Self::with_max_passes)).
///
/// The original algorithm's exact tie-breaking is not public; this
/// reconstruction is documented in `DESIGN.md` and reproduces the paper's
/// `DMA-SR ≤ DMA-Chen ≤ DMA-OFU` cost ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftsReduce {
    max_passes: usize,
}

impl ShiftsReduce {
    /// Creates the heuristic with the default refinement budget (8 passes).
    pub fn new() -> Self {
        Self { max_passes: 8 }
    }

    /// Sets the maximum number of adjacent-swap refinement passes.
    pub fn with_max_passes(mut self, passes: usize) -> Self {
        self.max_passes = passes;
        self
    }
}

impl Default for ShiftsReduce {
    fn default() -> Self {
        Self::new()
    }
}

impl IntraHeuristic for ShiftsReduce {
    fn name(&self) -> &'static str {
        "SR"
    }

    fn order(&self, vars: &[VarId], sub: &[VarId]) -> Vec<VarId> {
        let g = LocalGraph::of(sub);
        let grouped = bidirectional_grouping(&g, Seed::DegreeWeight);
        append_unaccessed(self.refine(&g, grouped), vars)
    }
}

impl ShiftsReduce {
    /// Adjacent-swap hill climbing of a `layout` of `g`'s vertices on the
    /// arrangement objective; returns the refined order of `g`'s
    /// variables.
    pub(crate) fn refine(&self, g: &LocalGraph, mut layout: Vec<usize>) -> Vec<VarId> {
        let n = layout.len();
        let mut pos = vec![0usize; n];
        for (p, &v) in layout.iter().enumerate() {
            pos[v] = p;
        }
        for _ in 0..self.max_passes {
            let mut improved = false;
            for i in 0..n.saturating_sub(1) {
                let (a, b) = (layout[i], layout[i + 1]);
                if swap_delta(g, &pos, a, b) < 0 {
                    layout.swap(i, i + 1);
                    pos[a] = i + 1;
                    pos[b] = i;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        layout.into_iter().map(|v| g.vars[v]).collect()
    }
}

/// Cost change of swapping adjacent vertices `a` (at `pos[a]`) and `b`
/// (at `pos[a] + 1`) under the arrangement objective.
fn swap_delta(g: &LocalGraph, pos: &[usize], a: usize, b: usize) -> i64 {
    let (pa, pb) = (pos[a] as i64, pos[b] as i64);
    debug_assert_eq!(pb, pa + 1);
    let mut delta = 0i64;
    for &(c, w) in &g.adj[a] {
        if c == b {
            continue; // distance 1 either way
        }
        let pc = pos[c] as i64;
        delta += w as i64 * ((pb - pc).abs() - (pa - pc).abs());
    }
    for &(c, w) in &g.adj[b] {
        if c == a {
            continue;
        }
        let pc = pos[c] as i64;
        delta += w as i64 * ((pa - pc).abs() - (pb - pc).abs());
    }
    delta
}

/// The arrangement cost of an existing layout for a restricted
/// subsequence — exactly the single-DBC shift cost with free initial
/// alignment. Exposed for tests, benches and external analyses.
///
/// # Panics
///
/// May panic (index out of range) if `layout` does not place every
/// variable occurring in `sub`.
pub fn arrangement_cost(layout: &[VarId], sub: &[VarId]) -> u64 {
    let g = LocalGraph::of(sub);
    let mut pos = vec![usize::MAX; g.len()];
    for (p, &v) in layout.iter().enumerate() {
        if let Some(i) = g.local_index(v) {
            pos[i] = p;
        }
    }
    g.arrangement_cost(&pos)
}

/// Builds the restricted subsequence of `seq` for the variables in `vars`.
pub fn restrict(seq: &AccessSequence, vars: &[VarId]) -> Vec<VarId> {
    let mut keep = vec![false; seq.vars().len()];
    for v in vars {
        if let Some(k) = keep.get_mut(v.index()) {
            *k = true;
        }
    }
    seq.restrict_to(|v| keep[v.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::intra::test_util::*;
    use crate::intra::{Chen, Ofu};
    use crate::placement::Placement;

    fn cost_of(order: Vec<VarId>, s: &AccessSequence) -> u64 {
        let p = Placement::from_dbc_lists(vec![order]);
        CostModel::single_port().shift_cost(&p, s.accesses())
    }

    #[test]
    fn result_is_permutation() {
        let (s, ids) = trace("a b c d a b d c a d");
        let order = ShiftsReduce::new().order(&ids, s.accesses());
        assert_permutation(&order, &ids);
    }

    #[test]
    fn chain_access_pattern_yields_path_layout() {
        let (s, ids) = trace("a b a b b c b c c d c d");
        let order = ShiftsReduce::new().order(&ids, s.accesses());
        let posn = |n: &str| {
            let v = s.vars().id(n).unwrap();
            order.iter().position(|&x| x == v).unwrap() as i64
        };
        assert_eq!((posn("a") - posn("b")).abs(), 1);
        assert_eq!((posn("b") - posn("c")).abs(), 1);
        assert_eq!((posn("c") - posn("d")).abs(), 1);
    }

    #[test]
    fn never_worse_than_ofu_or_chen_on_structured_traces() {
        let traces = [
            "a b a b b c b c c d c d",
            "h p h q h r h s h t h u",
            "x y z x y z x y z",
            "m n m o m n o p p q q m",
        ];
        for t in traces {
            let (s, ids) = trace(t);
            let sr = cost_of(ShiftsReduce::new().order(&ids, s.accesses()), &s);
            let ofu = cost_of(Ofu.order(&ids, s.accesses()), &s);
            let chen = cost_of(Chen.order(&ids, s.accesses()), &s);
            assert!(sr <= ofu, "{t}: SR {sr} > OFU {ofu}");
            assert!(sr <= chen, "{t}: SR {sr} > Chen {chen}");
        }
    }

    #[test]
    fn arrangement_cost_equals_simulated_cost() {
        let (s, ids) = trace("a b c a c b a b b c");
        for heuristic_order in [
            Ofu.order(&ids, s.accesses()),
            Chen.order(&ids, s.accesses()),
            ShiftsReduce::new().order(&ids, s.accesses()),
        ] {
            let sim = cost_of(heuristic_order.clone(), &s);
            let ana = arrangement_cost(&heuristic_order, s.accesses());
            assert_eq!(sim, ana);
        }
    }

    #[test]
    fn refinement_never_hurts() {
        let (s, ids) = trace("a b c d e a c e b d a e b c d");
        let raw = ShiftsReduce::new()
            .with_max_passes(0)
            .order(&ids, s.accesses());
        let refined = ShiftsReduce::new().order(&ids, s.accesses());
        assert!(cost_of(refined, &s) <= cost_of(raw, &s));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(ShiftsReduce::new().order(&[], &[]).is_empty());
        let v = VarId::from_index(0);
        assert_eq!(ShiftsReduce::new().order(&[v], &[v, v, v]), vec![v]);
    }

    #[test]
    fn deterministic() {
        let (s, ids) = trace("a b c d b a d c a b");
        assert_eq!(
            ShiftsReduce::new().order(&ids, s.accesses()),
            ShiftsReduce::new().order(&ids, s.accesses())
        );
    }

    #[test]
    fn restrict_helper() {
        let (s, _) = trace("a b c a b");
        let keep = vec![s.vars().id("a").unwrap(), s.vars().id("c").unwrap()];
        let sub = restrict(&s, &keep);
        assert_eq!(sub.len(), 3);
    }
}
