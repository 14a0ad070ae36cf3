//! Chunked access streams.
//!
//! An [`AccessStream`] delivers a trace as a sequence of `(vars, kinds)`
//! slice pairs instead of one materialized `Vec`. Anything that can replay
//! its accesses in order — a materialized [`AccessSequence`], a synthetic
//! generator regenerating from a seed, a file reader — can implement it,
//! and every consumer (index build, simulator replay) then runs in
//! O(chunk) resident memory regardless of trace length.
//!
//! [`PositionIndex::from_stream`] builds the one position index from any
//! stream in two passes; [`CompactPositionIndex`] is another name for it.

use crate::index::PositionIndex;
use crate::sequence::{AccessKind, AccessSequence};
use crate::var::VarId;

/// A trace deliverable in order as chunks of `(variables, kinds)` slices.
///
/// Implementors must deliver every access exactly once, in trace order,
/// with `vars.len() == kinds.len()` in every chunk, and must deliver the
/// same access stream on every call (deterministic replay — consumers may
/// take several passes).
pub trait AccessStream: Sync {
    /// Total number of accesses the stream delivers, `|S|`.
    fn access_count(&self) -> usize;

    /// Number of distinct variable slots; every delivered [`VarId`] has
    /// `index() < var_count()`.
    fn var_count(&self) -> usize;

    /// Streams the trace in order, invoking `f` once per chunk.
    fn for_each_chunk(&self, f: &mut dyn FnMut(&[VarId], &[AccessKind]));
}

impl AccessStream for AccessSequence {
    fn access_count(&self) -> usize {
        self.len()
    }

    fn var_count(&self) -> usize {
        self.vars().len()
    }

    /// A materialized sequence is a single borrowed chunk — no copy.
    fn for_each_chunk(&self, f: &mut dyn FnMut(&[VarId], &[AccessKind])) {
        if !self.is_empty() {
            f(self.accesses(), self.kinds());
        }
    }
}

/// An [`AccessSequence`] re-chunked to a fixed chunk length — the adapter
/// the equivalence proptests use to drive consumers with arbitrary chunk
/// boundaries (chunk-size invariance is part of the streaming contract).
#[derive(Debug, Clone, Copy)]
pub struct ChunkedSequence<'a> {
    seq: &'a AccessSequence,
    chunk: usize,
}

impl<'a> ChunkedSequence<'a> {
    /// Wraps `seq`, delivering chunks of at most `chunk` accesses
    /// (`chunk == 0` is treated as 1).
    pub fn new(seq: &'a AccessSequence, chunk: usize) -> Self {
        Self {
            seq,
            chunk: chunk.max(1),
        }
    }
}

impl AccessStream for ChunkedSequence<'_> {
    fn access_count(&self) -> usize {
        self.seq.len()
    }

    fn var_count(&self) -> usize {
        self.seq.vars().len()
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(&[VarId], &[AccessKind])) {
        let vars = self.seq.accesses();
        let kinds = self.seq.kinds();
        for (vc, kc) in vars.chunks(self.chunk).zip(kinds.chunks(self.chunk)) {
            f(vc, kc);
        }
    }
}

/// Another name for [`PositionIndex`], kept for callers written against
/// the streaming pipeline's own index type (the `e2ebench` benchmark).
/// Both names build the same raw-`u32` index with
/// [`PositionIndex::from_stream`].
///
/// # Example
///
/// ```
/// use rtm_trace::{AccessSequence, ChunkedSequence, CompactPositionIndex, PositionIndex};
///
/// let seq = AccessSequence::parse("a a b a c a")?;
/// // Chunk boundaries (here inside the `a a` run) never show in the index.
/// let idx = CompactPositionIndex::from_stream(&ChunkedSequence::new(&seq, 1));
/// assert_eq!(idx, PositionIndex::from_stream(&seq));
/// # Ok::<(), rtm_trace::ParseTraceError>(())
/// ```
pub type CompactPositionIndex = PositionIndex;

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    /// Checks `idx` against a linear scan of the sequence's dedup stream:
    /// positions, frequencies and first-occurrence order.
    fn assert_matches_reference(seq: &AccessSequence, idx: &PositionIndex) {
        let mut dedup = seq.accesses().to_vec();
        dedup.dedup();
        assert_eq!(idx.var_count(), seq.vars().len());
        assert_eq!(idx.access_count(), dedup.len());
        let mut expect_order = Vec::new();
        for vi in 0..seq.vars().len() {
            let v = VarId::from_index(vi);
            let expect: Vec<u32> = (0..dedup.len() as u32)
                .filter(|&p| dedup[p as usize] == v)
                .collect();
            assert_eq!(idx.positions(v), expect.as_slice(), "positions of {v}");
            assert_eq!(idx.frequency(v), expect.len());
            if let Some(&first) = expect.first() {
                expect_order.push((first, v));
            }
        }
        expect_order.sort_unstable();
        let expect_order: Vec<VarId> = expect_order.into_iter().map(|(_, v)| v).collect();
        assert_eq!(idx.accessed_vars(), expect_order.as_slice());
    }

    #[test]
    fn matches_position_index_on_the_paper_trace() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        assert_matches_reference(&seq, &PositionIndex::from_stream(&seq));
    }

    #[test]
    fn dedup_collapses_consecutive_repeats_across_chunks() {
        let seq = AccessSequence::parse("a a a b b a c c c c a").unwrap();
        for chunk in 1..=12 {
            let chunked = ChunkedSequence::new(&seq, chunk);
            assert_matches_reference(&seq, &PositionIndex::from_stream(&chunked));
        }
    }

    #[test]
    fn chunk_size_is_invisible() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let whole = PositionIndex::from_stream(&seq);
        for chunk in [1usize, 2, 3, 5, 7, 23, 24, 1000] {
            let chunked = ChunkedSequence::new(&seq, chunk);
            assert_eq!(PositionIndex::from_stream(&chunked), whole);
        }
    }

    #[test]
    fn empty_and_out_of_range_are_empty() {
        let seq = AccessSequence::parse("a").unwrap();
        let idx = PositionIndex::from_stream(&seq);
        assert_eq!(idx.positions(VarId::from_index(99)), &[] as &[u32]);
        assert_eq!(idx.frequency(VarId::from_index(99)), 0);
        let empty = crate::SequenceBuilder::new().finish();
        let idx = PositionIndex::from_stream(&empty);
        assert_eq!(idx.access_count(), 0);
        assert_eq!(idx.accessed_vars(), &[] as &[VarId]);
    }

    #[test]
    fn sequence_stream_delivers_kinds() {
        let seq = AccessSequence::parse("a:w b a:r").unwrap();
        let mut kinds = Vec::new();
        AccessStream::for_each_chunk(&seq, &mut |vs, ks| {
            assert_eq!(vs.len(), ks.len());
            kinds.extend_from_slice(ks);
        });
        assert_eq!(
            kinds,
            vec![AccessKind::Write, AccessKind::Read, AccessKind::Read]
        );
        assert_eq!(AccessStream::access_count(&seq), 3);
        assert_eq!(AccessStream::var_count(&seq), 2);
    }
}
