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

/// The largest total DBC count a placement accepts: 2^20. A 64 MiB array
/// of the paper's 4 KiB subarrays at 16 DBCs each has 2^18 DBCs, and
/// every strategy allocates per DBC, so a larger count is a malformed
/// request rather than a memory to place into.
pub const MAX_DBCS: usize = 1 << 20;

/// Domains per track of the paper's 4 KiB subarray with 32 tracks per DBC,
/// summed over its DBCs: `4096 · 8 / 32`.
const PAPER_SUBARRAY_DOMAINS: usize = 4096 * 8 / 32;

/// The default locations per DBC for `vars` variables on `dbcs` DBCs: the
/// paper's 4 KiB subarray split `dbcs` ways (`4096 · 8 / (dbcs · 32)`),
/// grown to `⌈vars / dbcs⌉` so the variables fit one subarray (pass
/// `vars = 0` for the paper's track length alone). It divides instead of
/// multiplying, so no `dbcs` overflows it; zero DBCs give 0.
pub fn default_capacity(dbcs: usize, vars: usize) -> usize {
    PAPER_SUBARRAY_DOMAINS
        .checked_div(dbcs)
        .map_or(0, |paper| paper.max(vars.div_ceil(dbcs)))
}

/// Checks the geometry every heuristic needs before it allocates per DBC:
/// at least one DBC and one location, at most [`MAX_DBCS`] DBCs, and the
/// basic fit `vars ≤ dbcs × capacity` (saturating, so it cannot overflow).
pub(crate) fn check_fit(vars: usize, dbcs: usize, capacity: usize) -> Result<(), PlacementError> {
    if dbcs == 0 || capacity == 0 {
        return Err(PlacementError::EmptyGeometry);
    }
    if dbcs > MAX_DBCS {
        return Err(PlacementError::Geometry(format!(
            "{dbcs} DBCs exceed the maximum of {MAX_DBCS}"
        )));
    }
    if vars > dbcs.saturating_mul(capacity) {
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
        assert!(check_fit(1, MAX_DBCS, 1).is_ok());
        assert!(matches!(
            check_fit(1, MAX_DBCS + 1, 1),
            Err(PlacementError::Geometry(_))
        ));
        // `dbcs × capacity` saturates instead of wrapping past the fit.
        assert!(check_fit(usize::MAX, 4, usize::MAX / 2).is_ok());
    }

    #[test]
    fn default_capacity_is_the_paper_track_grown_to_fit() {
        // 512/256/128/64 locations for 2/4/8/16 DBCs (Table I).
        for (dbcs, cap) in [(2, 512), (4, 256), (8, 128), (16, 64)] {
            assert_eq!(default_capacity(dbcs, 0), cap);
            assert_eq!(default_capacity(dbcs, dbcs * cap), cap);
        }
        assert_eq!(default_capacity(2, 1025), 513, "grown to fit");
        assert_eq!(default_capacity(0, 10), 0);
        // No DBC count overflows it.
        assert_eq!(default_capacity(1 << 40, 5), 1);
        assert_eq!(default_capacity(usize::MAX, 0), 0);
    }

    #[test]
    fn names() {
        assert_eq!(Afd.name(), "AFD");
        assert_eq!(Dma.name(), "DMA");
    }
}
