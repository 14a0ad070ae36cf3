use crate::stream::AccessStream;
use crate::var::VarId;

/// Per-variable access-position index of a trace's **dedup stream**, in
/// compressed sparse row (CSR) layout.
///
/// The dedup stream is the trace with every run of one variable collapsed
/// to a single access. A repeated access never moves a port at any port
/// count, so the dedup stream costs exactly what the raw trace costs. For
/// every variable `v` the index stores the ascending 0-based dedup-stream
/// positions at which `v` is accessed (as raw `u32`s), plus the accessed
/// variables in first-occurrence order. Where the trace answers "which
/// variable is accessed at position `i`?", the index answers "at which
/// positions is `v` accessed?".
///
/// The fitness engine of the placement crate is built on this: the shift cost
/// of one DBC depends only on the subsequence of accesses touching its own
/// variables, so a DBC can be costed from the position lists of its members —
/// `O(accesses-in-DBC)` work instead of a full `O(|S|)` trace replay.
///
/// # Example
///
/// ```
/// use rtm_trace::{AccessSequence, PositionIndex};
///
/// let seq = AccessSequence::parse("a a b a c a")?;
/// let idx = PositionIndex::from_stream(&seq);
/// // The dedup stream is `a b a c a`: `a` sits at positions 0, 2 and 4.
/// let a = seq.vars().id("a").unwrap();
/// assert_eq!(idx.positions(a), &[0, 2, 4]);
/// assert_eq!(idx.access_count(), 5);
/// # Ok::<(), rtm_trace::ParseTraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionIndex {
    /// `starts[v] .. starts[v + 1]` is `v`'s slice of `positions`.
    starts: Vec<u32>,
    /// All dedup-stream positions, grouped by variable, ascending within a
    /// group.
    positions: Vec<u32>,
    /// Accessed variables in first-occurrence order (the canonical variable
    /// ordering used by seeding and fit checks).
    order: Vec<VarId>,
}

impl PositionIndex {
    /// Builds the index in two passes over `src` — the first counts every
    /// variable's dedup accesses, the second scatters their positions into
    /// the exact-size array — so peak memory is the finished index plus
    /// O(`var_count`) scratch, whatever the chunking.
    ///
    /// # Panics
    ///
    /// Panics if the dedup stream exceeds `u32::MAX` accesses (positions
    /// are 32-bit) or a delivered variable is out of `var_count` range.
    pub fn from_stream(src: &dyn AccessStream) -> Self {
        let vars = src.var_count();
        let mut starts = vec![0u32; vars + 1];
        let mut order: Vec<VarId> = Vec::new();
        let mut len = 0u32;

        // Pass 1: per-variable counts (one slot up, ready for the prefix
        // sum) and first-occurrence order. The dedup carries across chunk
        // boundaries.
        let mut prev: Option<VarId> = None;
        src.for_each_chunk(&mut |chunk, _| {
            for &v in chunk {
                if prev == Some(v) {
                    continue;
                }
                prev = Some(v);
                let Some(next) = len.checked_add(1) else {
                    panic!("dedup stream longer than u32::MAX accesses")
                };
                len = next;
                let count = &mut starts[v.index() + 1];
                if *count == 0 {
                    order.push(v);
                }
                *count += 1;
            }
        });
        for i in 1..=vars {
            starts[i] += starts[i - 1];
        }

        // Pass 2: replay the identical dedup, writing each position at its
        // variable's cursor.
        let mut fill = starts.clone();
        let mut positions = vec![0u32; len as usize];
        let mut pos = 0u32;
        prev = None;
        src.for_each_chunk(&mut |chunk, _| {
            for &v in chunk {
                if prev == Some(v) {
                    continue;
                }
                prev = Some(v);
                let slot = &mut fill[v.index()];
                positions[*slot as usize] = pos;
                *slot += 1;
                pos += 1;
            }
        });
        Self {
            starts,
            positions,
            order,
        }
    }

    /// The ascending 0-based dedup-stream positions of `v`'s accesses.
    ///
    /// Variables outside the indexed table (or never accessed) yield an
    /// empty slice.
    pub fn positions(&self, v: VarId) -> &[u32] {
        let (start, end) = self.span(v);
        &self.positions[start as usize..end as usize]
    }

    /// Number of dedup-stream accesses of `v` (0 for unknown variables).
    pub fn frequency(&self, v: VarId) -> usize {
        self.positions(v).len()
    }

    /// `v`'s run as a `start..end` index range into
    /// [`raw_positions`](Self::raw_positions) (empty for out-of-range or
    /// never-accessed variables) — the zero-indirection view used by merge
    /// loops that walk several runs at once.
    pub fn span(&self, v: VarId) -> (u32, u32) {
        let i = v.index();
        if i + 1 >= self.starts.len() {
            return (0, 0);
        }
        (self.starts[i], self.starts[i + 1])
    }

    /// The full grouped position array underlying [`span`](Self::span).
    pub fn raw_positions(&self) -> &[u32] {
        &self.positions
    }

    /// Accessed variables in first-occurrence order.
    pub fn accessed_vars(&self) -> &[VarId] {
        &self.order
    }

    /// Number of variable slots covered by the index.
    pub fn var_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Length of the indexed dedup stream.
    pub fn access_count(&self) -> usize {
        self.positions.len()
    }

    /// Bytes of heap the index retains — what a bounded-memory pipeline
    /// budgets for.
    pub fn heap_bytes(&self) -> usize {
        (self.starts.len() + self.positions.len()) * size_of::<u32>()
            + self.order.len() * size_of::<VarId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessSequence;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    #[test]
    fn positions_match_linear_scan() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let idx = PositionIndex::from_stream(&seq);
        let mut dedup = seq.accesses().to_vec();
        dedup.dedup();
        assert_eq!(idx.var_count(), seq.vars().len());
        assert_eq!(idx.access_count(), dedup.len());
        for vi in 0..seq.vars().len() {
            let v = VarId::from_index(vi);
            let expect: Vec<u32> = dedup
                .iter()
                .enumerate()
                .filter(|(_, &a)| a == v)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(idx.positions(v), expect.as_slice(), "positions of {v}");
            assert_eq!(idx.frequency(v), expect.len());
        }
    }

    #[test]
    fn frequencies_agree_with_liveness() {
        // Liveness counts raw accesses, the index counts runs: they agree
        // on every variable the trace never repeats back to back (`d d`
        // is the paper trace's only run).
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let idx = PositionIndex::from_stream(&seq);
        let live = seq.liveness();
        let d = seq.vars().id("d").unwrap();
        for vi in 0..seq.vars().len() {
            let v = VarId::from_index(vi);
            let runs = live.frequency(v) - u64::from(v == d);
            assert_eq!(idx.frequency(v) as u64, runs, "frequency of {v}");
        }
    }

    #[test]
    fn out_of_range_variable_is_empty() {
        let seq = AccessSequence::parse("a b").unwrap();
        let idx = PositionIndex::from_stream(&seq);
        assert_eq!(idx.positions(VarId::from_index(99)), &[] as &[u32]);
        assert_eq!(idx.frequency(VarId::from_index(99)), 0);
    }

    #[test]
    fn unaccessed_interned_variable_is_empty() {
        let mut b = crate::SequenceBuilder::new();
        b.var("ghost");
        b.access_named("a", crate::AccessKind::Read);
        let seq = b.finish();
        let idx = PositionIndex::from_stream(&seq);
        let ghost = seq.vars().id("ghost").unwrap();
        assert_eq!(idx.positions(ghost), &[] as &[u32]);
        assert_eq!(idx.accessed_vars(), &[seq.vars().id("a").unwrap()]);
    }
}
