use crate::error::{ParseTraceError, ParseTraceErrorKind};
use crate::graph::AccessGraph;
use crate::liveness::Liveness;
use crate::stats::TraceStats;
use crate::var::{VarId, VarTable};
use std::fmt;

/// Whether an access reads or writes the variable.
///
/// The placement algorithms of the paper are agnostic to the access kind (a
/// shift is a shift), but the energy/latency model of `rtm-sim` charges reads
/// and writes differently (Table I), so traces carry the distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessKind {
    /// Read access (the default when a trace does not say).
    #[default]
    Read,
    /// Write access.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "r"),
            AccessKind::Write => write!(f, "w"),
        }
    }
}

/// An access trace `S = (s_1, …, s_k)` over a set of variables.
///
/// This is the central input of the data-placement problem: every strategy
/// consumes an `AccessSequence` (possibly summarized as an [`AccessGraph`] or
/// a [`Liveness`] table) and produces a placement whose quality is the total
/// number of racetrack shifts needed to serve the trace.
///
/// # Example
///
/// ```
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("x y x x z")?;
/// assert_eq!(seq.len(), 5);
/// assert_eq!(seq.vars().len(), 3);
/// # Ok::<(), rtm_trace::ParseTraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSequence {
    vars: VarTable,
    accesses: Vec<VarId>,
    kinds: Vec<AccessKind>,
}

impl AccessSequence {
    /// Parses a whitespace-separated trace such as `"a b a c"`.
    ///
    /// Each token is a variable name, optionally suffixed with `:r` or `:w`
    /// to mark the access kind (reads by default). Lines starting with `#`
    /// are comments.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] if a token has an unknown suffix, a name
    /// is empty, or the trace contains no accesses at all. Errors carry the
    /// 1-based line and byte column of the offending token; parsing never
    /// panics, for any byte string.
    pub fn parse(text: &str) -> Result<Self, ParseTraceError> {
        let mut builder = SequenceBuilder::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with('#') {
                continue;
            }
            for tok in line.split_whitespace() {
                // Tokens are subslices of `line`, so their byte offset —
                // the reported column — is plain pointer distance.
                let column = tok.as_ptr() as usize - line.as_ptr() as usize + 1;
                let (name, kind) = match tok.rsplit_once(':') {
                    Some((n, "r")) => (n, AccessKind::Read),
                    Some((n, "w")) => (n, AccessKind::Write),
                    Some(_) => {
                        return Err(ParseTraceError::new(
                            ParseTraceErrorKind::BadAccessKind(tok.to_owned()),
                            lineno + 1,
                            column,
                        ))
                    }
                    None => (tok, AccessKind::Read),
                };
                if name.is_empty() {
                    return Err(ParseTraceError::new(
                        ParseTraceErrorKind::EmptyVariable,
                        lineno + 1,
                        column,
                    ));
                }
                builder.access_named(name, kind);
            }
        }
        if builder.is_empty() {
            return Err(ParseTraceError::new(
                ParseTraceErrorKind::EmptySequence,
                0,
                0,
            ));
        }
        Ok(builder.finish())
    }

    /// Builds a sequence directly from ids over an existing variable table.
    ///
    /// All accesses are marked as reads.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range for `vars`.
    pub fn from_ids(vars: VarTable, accesses: Vec<VarId>) -> Self {
        for &v in &accesses {
            assert!(v.index() < vars.len(), "access to unknown variable {v}");
        }
        let kinds = vec![AccessKind::Read; accesses.len()];
        Self {
            vars,
            accesses,
            kinds,
        }
    }

    /// The variable table underlying this trace.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// The raw accesses in trace order.
    pub fn accesses(&self) -> &[VarId] {
        &self.accesses
    }

    /// The access kinds, parallel to [`accesses`](Self::accesses).
    pub fn kinds(&self) -> &[AccessKind] {
        &self.kinds
    }

    /// Number of accesses `|S|`.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Iterates over `(position, variable, kind)` with 1-based positions,
    /// matching the paper's convention `i ∈ {1, …, |S|}`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, VarId, AccessKind)> + '_ {
        self.accesses
            .iter()
            .zip(&self.kinds)
            .enumerate()
            .map(|(i, (&v, &k))| (i + 1, v, k))
    }

    /// Computes the liveness table (`A_v`, `F_v`, `L_v`) of this trace.
    pub fn liveness(&self) -> Liveness {
        Liveness::of(self)
    }

    /// Summarizes the trace as a weighted undirected access graph.
    pub fn access_graph(&self) -> AccessGraph {
        AccessGraph::of(self)
    }

    /// Computes summary statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::of(self)
    }

    /// Restricts the trace to the accesses touching `keep`, preserving order.
    ///
    /// This is how a multi-DBC trace is split into per-DBC subsequences
    /// (`S_0`, `S_1`, … in the paper's Fig. 3): accesses to variables mapped
    /// to other DBCs do not move this DBC's port.
    pub fn restrict_to(&self, keep: impl Fn(VarId) -> bool) -> Vec<VarId> {
        self.accesses.iter().copied().filter(|&v| keep(v)).collect()
    }

    /// Renders the trace back into the textual format accepted by
    /// [`parse`](Self::parse). Write accesses carry a `:w` suffix.
    pub fn to_trace_string(&self) -> String {
        let mut out = String::new();
        for (i, (&v, &k)) in self.accesses.iter().zip(&self.kinds).enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.vars.name(v));
            if k == AccessKind::Write {
                out.push_str(":w");
            }
        }
        out
    }
}

/// Incremental builder for an [`AccessSequence`].
///
/// # Example
///
/// ```
/// use rtm_trace::{AccessKind, SequenceBuilder};
///
/// let mut b = SequenceBuilder::new();
/// let x = b.var("x");
/// b.access(x, AccessKind::Write);
/// b.access_named("y", AccessKind::Read);
/// let seq = b.finish();
/// assert_eq!(seq.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SequenceBuilder {
    vars: VarTable,
    accesses: Vec<VarId>,
    kinds: Vec<AccessKind>,
}

impl SequenceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a variable without recording an access.
    pub fn var(&mut self, name: &str) -> VarId {
        self.vars.intern(name)
    }

    /// Records an access to an already-interned variable.
    pub fn access(&mut self, var: VarId, kind: AccessKind) -> &mut Self {
        self.accesses.push(var);
        self.kinds.push(kind);
        self
    }

    /// Interns `name` and records an access to it.
    pub fn access_named(&mut self, name: &str, kind: AccessKind) -> VarId {
        let id = self.vars.intern(name);
        self.access(id, kind);
        id
    }

    /// Whether no accesses have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Number of accesses recorded so far.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Finalizes the builder into an immutable sequence.
    pub fn finish(self) -> AccessSequence {
        AccessSequence {
            vars: self.vars,
            accesses: self.accesses,
            kinds: self.kinds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example, Fig. 3(b): 24 accesses over 9 variables.
    pub(crate) const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    #[test]
    fn parse_simple() {
        let s = AccessSequence::parse("a b a").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.vars().len(), 2);
        let a = s.vars().id("a").unwrap();
        assert_eq!(s.accesses(), &[a, s.vars().id("b").unwrap(), a]);
    }

    #[test]
    fn parse_paper_example_has_expected_shape() {
        let s = AccessSequence::parse(PAPER_SEQ).unwrap();
        assert_eq!(s.len(), 24);
        assert_eq!(s.vars().len(), 9);
    }

    #[test]
    fn parse_access_kinds() {
        let s = AccessSequence::parse("x:w y:r z").unwrap();
        assert_eq!(
            s.kinds(),
            &[AccessKind::Write, AccessKind::Read, AccessKind::Read]
        );
    }

    #[test]
    fn parse_rejects_bad_kind() {
        let err = AccessSequence::parse("x:q").unwrap_err();
        assert!(err.to_string().contains("x:q"));
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = AccessSequence::parse("a b\n  c x:q").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.column(), 5); // byte column of `x:q` in "  c x:q"
        assert!(err.to_string().contains("(line 2, column 5)"));
        let err = AccessSequence::parse("ok\n:w").unwrap_err();
        assert_eq!((err.line(), err.column()), (2, 1));
    }

    #[test]
    fn parse_rejects_empty_name() {
        assert!(AccessSequence::parse(":w").is_err());
    }

    #[test]
    fn parse_rejects_empty_trace() {
        assert!(AccessSequence::parse("").is_err());
        assert!(AccessSequence::parse("# only a comment\n").is_err());
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let s = AccessSequence::parse("# header\n\na b\n# mid\nc\n").unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_positions_are_one_based() {
        let s = AccessSequence::parse("a b").unwrap();
        let positions: Vec<usize> = s.iter().map(|(i, _, _)| i).collect();
        assert_eq!(positions, vec![1, 2]);
    }

    #[test]
    fn restrict_to_preserves_order() {
        let s = AccessSequence::parse(PAPER_SEQ).unwrap();
        let keep: Vec<VarId> = ["a", "g", "b", "d", "h"]
            .iter()
            .map(|n| s.vars().id(n).unwrap())
            .collect();
        let sub = s.restrict_to(|v| keep.contains(&v));
        let names: Vec<&str> = sub.iter().map(|&v| s.vars().name(v)).collect();
        // S_0 from Fig. 3(c).
        assert_eq!(
            names,
            ["a", "b", "a", "b", "a", "a", "d", "d", "a", "g", "g", "h", "g", "h"]
        );
    }

    #[test]
    fn roundtrip_through_text() {
        let s = AccessSequence::parse("a:w b a c:w").unwrap();
        let text = s.to_trace_string();
        assert_eq!(text, "a:w b a c:w");
        let s2 = AccessSequence::parse(&text).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = SequenceBuilder::new();
        let x = b.var("x");
        b.access(x, AccessKind::Read);
        b.access_named("y", AccessKind::Write);
        assert_eq!(b.len(), 2);
        let s = b.finish();
        assert_eq!(s.len(), 2);
        assert_eq!(s.vars().name(s.accesses()[1]), "y");
    }

    #[test]
    fn from_ids_checks_range() {
        let mut vars = VarTable::new();
        let a = vars.intern("a");
        let s = AccessSequence::from_ids(vars, vec![a, a]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn from_ids_panics_on_unknown() {
        let mut vars = VarTable::new();
        vars.intern("a");
        AccessSequence::from_ids(vars, vec![VarId::from_index(5)]);
    }
}
