//! Memory-trace substrate for racetrack-memory data placement.
//!
//! This crate models the inputs consumed by every placement strategy in the
//! DATE 2020 paper *"Generalized Data Placement Strategies for Racetrack
//! Memories"* (Khan et al.):
//!
//! * [`VarId`] / [`VarTable`] — program variables (memory objects), interned
//!   so the hot paths work on dense `u32` indices.
//! * [`AccessSequence`] — the trace `S = (s_1, …, s_k)` of variable accesses,
//!   optionally tagged with read/write kinds.
//! * [`AccessGraph`] — the weighted, undirected summary graph used by
//!   offset-assignment style heuristics (edge weight = number of consecutive
//!   access pairs).
//! * [`Liveness`] — access frequency `A_v`, first occurrence `F_v`, last
//!   occurrence `L_v`, lifespans and pairwise disjointness, i.e. exactly the
//!   per-variable quantities lines 1–4 of the paper's Algorithm 1 compute.
//! * [`PositionIndex`] — the inverse view of a trace's dedup stream
//!   (per-variable access positions with runs of one variable collapsed,
//!   raw-`u32` CSR layout), built in two passes from any [`AccessStream`].
//!   It lets a single DBC be costed from only its own accesses instead of
//!   a full trace replay.
//! * [`AccessStream`] — a trace delivered in chunks, so the index build and
//!   the simulator's replay never need the whole trace in memory.
//!
//! # Example
//!
//! ```
//! use rtm_trace::AccessSequence;
//!
//! // The running example of the paper (Fig. 3(b)).
//! let seq = AccessSequence::parse("a b a b c a c a d d a i e f e f g e g h g i h i")?;
//! let live = seq.liveness();
//! let b = seq.vars().id("b").unwrap();
//! assert_eq!(live.frequency(b), 2);
//! assert_eq!(live.lifespan(b), 2); // L_b - F_b = 4 - 2 (1-based positions)
//! # Ok::<(), rtm_trace::ParseTraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library paths report through `ParseTraceError` instead of panicking;
// `unwrap`/`expect` are allowed only in test modules (`DESIGN.md` §9). CI
// promotes these to errors with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod graph;
mod index;
mod liveness;
mod sequence;
mod stats;
mod stream;
mod var;

pub use error::ParseTraceError;
pub use graph::{AccessGraph, Edge};
pub use index::PositionIndex;
pub use liveness::{Liveness, VarLiveness};
pub use sequence::{AccessKind, AccessSequence, SequenceBuilder};
pub use stats::TraceStats;
pub use stream::{AccessStream, ChunkedSequence, CompactPositionIndex};
pub use var::{VarId, VarTable};
