//! Inter-DBC distribution: which DBC stores which variable.
//!
//! * [`Afd`] — the state-of-the-art baseline, *Access Frequency based
//!   Distribution* (Chen et al., TVLSI'16, §III-A of the paper).
//! * [`Dma`] — the paper's contribution (Algorithm 1): *Disjoint Memory
//!   Accesses* are separated from the rest and stored in access order.
//! * [`DmaMulti`] — DMA re-run on its own leftover, peeling off several
//!   disjoint chains (the paper's §VI future work).

mod afd;
mod dma;
mod dma_multi;

pub use afd::Afd;
pub use dma::{Dma, DmaPartition};
pub use dma_multi::DmaMulti;

use crate::error::PlacementError;
use rtm_trace::{AccessSequence, VarId};

/// An inter-DBC distribution heuristic.
///
/// The result assigns every accessed variable of `seq` to exactly one of
/// `dbcs` DBCs; the per-DBC variable order is the heuristic's *native* order
/// (for AFD the deal order, for DMA the access order of disjoint variables
/// and the frequency order of the rest) and may be refined afterwards by an
/// [`IntraHeuristic`](crate::intra::IntraHeuristic).
pub trait InterHeuristic {
    /// Short, stable name (used in experiment tables: `AFD`, `DMA`).
    fn name(&self) -> &'static str;

    /// Distributes the variables of `seq` over `dbcs` DBCs of `capacity`
    /// locations each.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InsufficientCapacity`] when the variables
    /// cannot fit.
    fn distribute(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<Vec<Vec<VarId>>, PlacementError>;
}

/// Checks the basic fit `vars ≤ dbcs × capacity` shared by all heuristics.
pub(crate) fn check_fit(vars: usize, dbcs: usize, capacity: usize) -> Result<(), PlacementError> {
    if dbcs == 0 || capacity == 0 {
        return Err(PlacementError::EmptyGeometry);
    }
    if vars > dbcs * capacity {
        return Err(PlacementError::InsufficientCapacity {
            vars,
            dbcs,
            capacity,
        });
    }
    Ok(())
}

/// A membership table over variable ids `0..len` with `vars` set.
pub(crate) fn membership(vars: &[VarId], len: usize) -> Vec<bool> {
    let mut set = vec![false; len];
    for v in vars {
        set[v.index()] = true;
    }
    set
}

/// Number of leading DBCs of `dist` whose first variable is a member —
/// the DBCs a composite strategy leaves in their native access order.
pub(crate) fn leading_members(dist: &[Vec<VarId>], member: &[bool]) -> usize {
    dist.iter()
        .take_while(|l| l.first().is_some_and(|v| member[v.index()]))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_fit_boundaries() {
        assert!(check_fit(4, 2, 2).is_ok());
        assert!(matches!(
            check_fit(5, 2, 2),
            Err(PlacementError::InsufficientCapacity { .. })
        ));
        assert_eq!(check_fit(1, 0, 4), Err(PlacementError::EmptyGeometry));
        assert_eq!(check_fit(1, 4, 0), Err(PlacementError::EmptyGeometry));
    }

    #[test]
    fn names() {
        assert_eq!(Afd.name(), "AFD");
        assert_eq!(Dma.name(), "DMA");
    }
}
