//! Intra-DBC placement heuristics: given the set of variables assigned to
//! one DBC and the subsequence of the trace touching them, choose the order
//! (offsets) along the track.
//!
//! The paper evaluates three of them (§IV-A):
//!
//! * [`Ofu`] — order of first use, the trivial baseline;
//! * [`Chen`] — the single-DBC heuristic of Chen et al., TVLSI'16
//!   (frequency organ-pipe);
//! * [`ShiftsReduce`] — Khan et al., 2019 (adjacency-driven bidirectional
//!   grouping with local search).

mod chen;
pub(crate) mod grouping;
mod ofu;
pub mod shifts_reduce;

pub use chen::Chen;
pub use ofu::Ofu;
pub use shifts_reduce::ShiftsReduce;

use rtm_trace::VarId;

/// An intra-DBC ordering heuristic.
///
/// Implementations receive the subsequence `sub` of the full trace restricted
/// to this DBC's variables and must return a permutation of exactly the
/// distinct variables occurring in `sub` (plus, appended at the tail in their
/// given order, any variable of `vars` that never occurs — they cost nothing
/// wherever they sit).
pub trait IntraHeuristic {
    /// Short, stable name (used in experiment tables: `OFU`, `Chen`, `SR`).
    fn name(&self) -> &'static str;

    /// Orders `vars` for one DBC given the restricted subsequence `sub`.
    fn order(&self, vars: &[VarId], sub: &[VarId]) -> Vec<VarId>;
}

/// Appends variables from `vars` that never occur in the ordered result.
///
/// Heuristics derive their order from the subsequence; variables assigned to
/// the DBC but never accessed must still receive offsets.
pub(crate) fn append_unaccessed(ordered: Vec<VarId>, vars: &[VarId]) -> Vec<VarId> {
    first_uses(ordered.iter().chain(vars))
}

/// The distinct variables of `ids`, in order of first occurrence.
pub(crate) fn first_uses<'a>(ids: impl Iterator<Item = &'a VarId> + Clone) -> Vec<VarId> {
    let mut seen = vec![false; id_bound(ids.clone())];
    ids.filter(|v| !std::mem::replace(&mut seen[v.index()], true))
        .copied()
        .collect()
}

/// One past the largest variable index in `ids` — the length of a dense
/// table indexed by them.
pub(crate) fn id_bound<'a>(ids: impl IntoIterator<Item = &'a VarId>) -> usize {
    ids.into_iter().map(|v| v.index() + 1).max().unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod test_util {
    use rtm_trace::{AccessSequence, VarId};

    /// Parses a trace and returns `(seq, all ids in first-use order)`.
    pub fn trace(text: &str) -> (AccessSequence, Vec<VarId>) {
        let seq = AccessSequence::parse(text).unwrap();
        let ids = seq.liveness().by_first_occurrence();
        (seq, ids)
    }

    /// Asserts `got` is a permutation of `want`.
    pub fn assert_permutation(got: &[VarId], want: &[VarId]) {
        let mut g: Vec<_> = got.to_vec();
        let mut w: Vec<_> = want.to_vec();
        g.sort_unstable();
        w.sort_unstable();
        assert_eq!(g, w, "not a permutation");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_util::*;

    #[test]
    fn append_unaccessed_keeps_order() {
        let (_, ids) = trace("a b c");
        let ordered = vec![ids[1]];
        let full = append_unaccessed(ordered, &ids);
        assert_eq!(full, vec![ids[1], ids[0], ids[2]]);
    }

    #[test]
    fn heuristics_have_distinct_names() {
        let names = [Ofu.name(), Chen.name(), ShiftsReduce::default().name()];
        assert_eq!(names, ["OFU", "Chen", "SR"]);
    }
}
