use super::{first_uses, IntraHeuristic};
use rtm_trace::VarId;

/// Order of first use (OFU): variables receive offsets in the order they are
/// first accessed.
///
/// This is the intra-DBC baseline paired with AFD in the paper's `AFD-OFU`
/// configuration and with DMA in `DMA-OFU`. It is also the order the DMA
/// heuristic mandates for its *disjoint* DBCs, where it is provably within
/// `l − 1` shifts for `l` disjoint variables (§III-B).
///
/// # Example
///
/// ```
/// use rtm_placement::intra::{IntraHeuristic, Ofu};
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("c a c b")?;
/// let vars = seq.liveness().by_first_occurrence();
/// let order = Ofu.order(&vars, seq.accesses());
/// let names: Vec<&str> = order.iter().map(|&v| seq.vars().name(v)).collect();
/// assert_eq!(names, ["c", "a", "b"]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ofu;

impl IntraHeuristic for Ofu {
    fn name(&self) -> &'static str {
        "OFU"
    }

    fn order(&self, vars: &[VarId], sub: &[VarId]) -> Vec<VarId> {
        // First uses in `sub`, then the unaccessed variables of `vars`.
        first_uses(sub.iter().chain(vars))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intra::test_util::*;

    #[test]
    fn orders_by_first_use() {
        let (s, ids) = trace("b a b c a");
        let order = Ofu.order(&ids, s.accesses());
        let names: Vec<&str> = order.iter().map(|&v| s.vars().name(v)).collect();
        assert_eq!(names, ["b", "a", "c"]);
    }

    #[test]
    fn result_is_permutation() {
        let (s, ids) = trace("x y z y x z z");
        let order = Ofu.order(&ids, s.accesses());
        assert_permutation(&order, &ids);
    }

    #[test]
    fn unaccessed_vars_go_last() {
        let (s, _) = trace("a b");
        let extra = VarId::from_index(7);
        let vars = vec![s.vars().id("b").unwrap(), extra, s.vars().id("a").unwrap()];
        let order = Ofu.order(&vars, s.accesses());
        assert_eq!(order.last(), Some(&extra));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn empty_subsequence_keeps_given_order() {
        let vars: Vec<VarId> = (0..3).map(VarId::from_index).collect();
        let order = Ofu.order(&vars, &[]);
        assert_eq!(order, vars);
    }
}
