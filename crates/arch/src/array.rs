use crate::error::ConfigError;
use crate::geometry::RtmGeometry;
use std::fmt;

/// Geometry of a full RTM array: `subarrays` identical subarrays, each a
/// paper-faithful [`RtmGeometry`] (the Table I constants describe *one*
/// subarray — DESTINY models the 4 KiB unit, and RTSim composes banks from
/// such subarrays).
///
/// The shift-cost model is separable per DBC — a DBC's port moves only on
/// accesses to its own variables — and all subarrays share one track
/// geometry, so an array behaves exactly like `subarrays × dbcs` uniform
/// DBCs. The workspace therefore addresses DBCs *globally*: global DBC `d`
/// lives in subarray `d / dbcs_per_subarray` at local index
/// `d % dbcs_per_subarray`. A single-subarray array is bit-for-bit the flat
/// geometry it wraps.
///
/// # Example
///
/// ```
/// use rtm_arch::ArrayGeometry;
///
/// let array = ArrayGeometry::paper_array(2, 16, 1)?;
/// assert_eq!(array.total_dbcs(), 32);
/// assert_eq!(array.capacity_bytes(), 8192);
/// assert_eq!(array.subarray_of_dbc(17), 1);
/// assert_eq!(array.local_dbc(17), 1);
/// # Ok::<(), rtm_arch::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayGeometry {
    subarrays: usize,
    subarray: RtmGeometry,
}

impl ArrayGeometry {
    /// Creates an array of `subarrays` identical subarrays.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroSubarrays`] if `subarrays == 0`.
    pub fn new(subarrays: usize, subarray: RtmGeometry) -> Result<Self, ConfigError> {
        if subarrays == 0 {
            return Err(ConfigError::ZeroSubarrays);
        }
        Ok(Self {
            subarrays,
            subarray,
        })
    }

    /// The degenerate single-subarray array (today's flat geometry).
    pub fn single(subarray: RtmGeometry) -> Self {
        Self {
            subarrays: 1,
            subarray,
        }
    }

    /// An array of paper-faithful 4 KiB subarrays
    /// ([`RtmGeometry::paper_4kib_with_ports`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the subarray configuration is invalid or
    /// `subarrays == 0`.
    pub fn paper_array(
        subarrays: usize,
        dbcs_per_subarray: usize,
        ports: usize,
    ) -> Result<Self, ConfigError> {
        Self::new(
            subarrays,
            RtmGeometry::paper_4kib_with_ports(dbcs_per_subarray, ports)?,
        )
    }

    /// The smallest array of copies of `subarray` that offers at least
    /// `vars` variable slots (at least one subarray).
    ///
    /// This is the capacity-aware replacement for growing tracks beyond the
    /// paper's geometry: instead of stretching a subarray, add subarrays.
    pub fn sized_for(subarray: RtmGeometry, vars: usize) -> Self {
        let per = subarray.total_locations();
        Self {
            subarrays: vars.div_ceil(per).max(1),
            subarray,
        }
    }

    /// Number of subarrays.
    pub fn subarrays(&self) -> usize {
        self.subarrays
    }

    /// The per-subarray geometry.
    pub fn subarray(&self) -> RtmGeometry {
        self.subarray
    }

    /// DBCs per subarray.
    pub fn dbcs_per_subarray(&self) -> usize {
        self.subarray.dbcs()
    }

    /// Total number of DBCs across the array. Saturates instead of
    /// wrapping, so an absurd subarray count cannot pass for a small array.
    pub fn total_dbcs(&self) -> usize {
        self.subarrays.saturating_mul(self.subarray.dbcs())
    }

    /// Variable slots per DBC (`N`, uniform across the array).
    pub fn locations_per_dbc(&self) -> usize {
        self.subarray.locations_per_dbc()
    }

    /// Total variable slots across the array.
    pub fn total_locations(&self) -> usize {
        self.subarrays * self.subarray.total_locations()
    }

    /// Total capacity in bits.
    pub fn capacity_bits(&self) -> usize {
        self.subarrays * self.subarray.capacity_bits()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bits() / 8
    }

    /// Access ports per track (uniform across the array).
    pub fn ports_per_track(&self) -> usize {
        self.subarray.ports_per_track()
    }

    /// Whether `vars` variables fit the array.
    pub fn fits(&self, vars: usize) -> bool {
        vars <= self.total_locations()
    }

    /// The subarray containing global DBC `dbc`.
    ///
    /// # Panics
    ///
    /// Panics if `dbc >= total_dbcs()`.
    pub fn subarray_of_dbc(&self, dbc: usize) -> usize {
        assert!(dbc < self.total_dbcs(), "global DBC index out of range");
        dbc / self.subarray.dbcs()
    }

    /// The index of global DBC `dbc` within its subarray.
    ///
    /// # Panics
    ///
    /// Panics if `dbc >= total_dbcs()`.
    pub fn local_dbc(&self, dbc: usize) -> usize {
        assert!(dbc < self.total_dbcs(), "global DBC index out of range");
        dbc % self.subarray.dbcs()
    }

    /// The global index of local DBC `local` in subarray `subarray`.
    ///
    /// # Panics
    ///
    /// Panics if `subarray >= subarrays()` or
    /// `local >= dbcs_per_subarray()`.
    pub fn global_dbc(&self, subarray: usize, local: usize) -> usize {
        assert!(subarray < self.subarrays, "subarray index out of range");
        assert!(local < self.subarray.dbcs(), "local DBC index out of range");
        subarray * self.subarray.dbcs() + local
    }
}

impl fmt::Display for ArrayGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} subarray(s) of {} ({} B total)",
            self.subarrays,
            self.subarray,
            self.capacity_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_array_composes_table1_subarrays() {
        for (dbcs, domains) in [(2, 512), (4, 256), (8, 128), (16, 64)] {
            let a = ArrayGeometry::paper_array(3, dbcs, 1).unwrap();
            assert_eq!(a.subarrays(), 3);
            assert_eq!(a.dbcs_per_subarray(), dbcs);
            assert_eq!(a.locations_per_dbc(), domains);
            assert_eq!(a.total_dbcs(), 3 * dbcs);
            assert_eq!(a.total_locations(), 3 * dbcs * domains);
            assert_eq!(a.capacity_bytes(), 3 * 4096);
        }
    }

    #[test]
    fn single_degenerates_to_the_flat_geometry() {
        let g = RtmGeometry::paper_4kib(8).unwrap();
        let a = ArrayGeometry::single(g);
        assert_eq!(a.subarrays(), 1);
        assert_eq!(a.total_dbcs(), g.dbcs());
        assert_eq!(a.total_locations(), g.total_locations());
        assert_eq!(a.capacity_bytes(), g.capacity_bytes());
        assert_eq!(a, ArrayGeometry::new(1, g).unwrap());
    }

    #[test]
    fn zero_subarrays_rejected() {
        let g = RtmGeometry::paper_4kib(4).unwrap();
        assert_eq!(ArrayGeometry::new(0, g), Err(ConfigError::ZeroSubarrays));
    }

    #[test]
    fn sized_for_adds_whole_subarrays() {
        let g = RtmGeometry::paper_4kib(16).unwrap(); // 1024 slots
        assert_eq!(ArrayGeometry::sized_for(g, 0).subarrays(), 1);
        assert_eq!(ArrayGeometry::sized_for(g, 1024).subarrays(), 1);
        assert_eq!(ArrayGeometry::sized_for(g, 1025).subarrays(), 2);
        // mpeg2's 1336 variables at 16 DBCs: two 4 KiB subarrays.
        let a = ArrayGeometry::sized_for(g, 1336);
        assert_eq!(a.subarrays(), 2);
        assert!(a.fits(1336));
        assert_eq!(a.locations_per_dbc(), 64); // paper-faithful, not grown
    }

    #[test]
    fn global_local_dbc_roundtrip() {
        let a = ArrayGeometry::paper_array(3, 4, 2).unwrap();
        assert_eq!(a.ports_per_track(), 2);
        for d in 0..a.total_dbcs() {
            let (s, l) = (a.subarray_of_dbc(d), a.local_dbc(d));
            assert_eq!(a.global_dbc(s, l), d);
        }
    }

    #[test]
    #[should_panic(expected = "global DBC index out of range")]
    fn out_of_range_dbc_panics() {
        ArrayGeometry::paper_array(2, 4, 1)
            .unwrap()
            .subarray_of_dbc(8);
    }

    #[test]
    fn display_mentions_subarrays() {
        let a = ArrayGeometry::paper_array(2, 4, 1).unwrap();
        assert!(a.to_string().starts_with("2 subarray(s)"));
        assert!(a.to_string().contains("8192 B total"));
    }
}
