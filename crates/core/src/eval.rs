//! The fitness engine: incremental, allocation-free, parallel shift-cost
//! evaluation for the search-based placers.
//!
//! Every search path in this crate (GA, random walk, `Strategy::solve`)
//! ultimately asks the same question many thousands of times: *how many
//! shifts does this placement cost on this trace?* The naive answer — build
//! a [`Placement`] lookup table and replay the whole trace — is `O(|S|)` per
//! evaluation plus two allocations, even though
//!
//! 1. the cost model is **separable per DBC**: a DBC's port only moves on
//!    accesses to its own variables, so its cost depends only on the
//!    subsequence of the trace touching them;
//! 2. elitist µ+λ evolution produces offspring that share most DBC lists
//!    with their parents, so most per-DBC costs are already known.
//!
//! [`FitnessEngine`] exploits both. It precomputes the trace's
//! [`PositionIndex`] once, costs a DBC by merging its members' access
//! positions through a sort-free bitmap scatter into reusable scratch
//! buffers (`O(A + |S|/64)` in the DBC's *own* access count `A`,
//! allocation-free after warm-up), memoizes per-DBC costs
//! under a content key so recurring lists across generations are free, and
//! fans batches of evaluations out over [`std::thread::scope`] workers in a
//! way that is **bit-identical** to the sequential order: every job's slot
//! is written by exactly one worker and each per-DBC cost is a pure function
//! of the list's content, so neither thread count nor scheduling can change
//! a result (see `DESIGN.md` §7 for the full argument).
//!
//! The engine is **port-aware end to end**: every path serves each access
//! at the minimum displacement change over the cost model's port homes
//! (precomputed once per engine), so GA/random-walk/`Strategy::solve` can
//! *search* under a multi-port objective, bit-exactly with
//! [`CostModel::per_dbc_costs`] at any port count. Both caches are
//! engine-local and an engine's [`CostModel`] (port configuration
//! included) is fixed at construction, so cache keys are implicitly scoped
//! to the port config — costs cached under one model can never answer a
//! query under another.
//!
//! The engine also keeps the pre-engine evaluation path alive as
//! [`FitnessEngine::naive`] — a reference evaluator used by the equivalence
//! test-suite and as the baseline of the `rtm-bench perf` experiment.
//!
//! # Example
//!
//! ```
//! use rtm_placement::eval::FitnessEngine;
//! use rtm_placement::{CostModel, Placement};
//! use rtm_trace::{AccessSequence, VarId};
//!
//! let seq = AccessSequence::parse("a b a b c a")?;
//! let engine = FitnessEngine::new(&seq, CostModel::single_port());
//! let v = |i| VarId::from_index(i);
//! let p = Placement::from_dbc_lists(vec![vec![v(0), v(1)], vec![v(2)]]);
//! assert_eq!(engine.shift_cost(&p), CostModel::single_port().shift_cost(&p, seq.accesses()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cost::{AccessCoster, CostModel, InitialAlignment};
use crate::placement::Placement;
use crate::pool::WorkerPool;
use rtm_trace::{AccessSequence, AccessStream, CompactPositionIndex, PositionIndex, VarId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// Locks a cache mutex, recovering from poison by **clearing and
/// rebuilding**: the guard's contents are reset to the empty cache and the
/// poison flag is cleared. Every cached value is a pure function of its key
/// (`DESIGN.md` §7), so dropping the cache can never change a result — a
/// panic that poisoned it (the panicking job's unwind path crossing a lock)
/// degrades throughput, not correctness (`DESIGN.md` §9).
fn lock_cache<T: Default>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        *guard = T::default();
        m.clear_poison();
        guard
    })
}

/// Non-blocking variant of [`lock_cache`]: `WouldBlock` returns `None` (the
/// caller treats the access as a cache miss or skips the write — every
/// cached value is a pure function of its key, so recomputing is always
/// correct), poison recovers by the same clear-and-rebuild.
fn try_lock_cache<T: Default>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => {
            let mut guard = poisoned.into_inner();
            *guard = T::default();
            m.clear_poison();
            Some(guard)
        }
        Err(TryLockError::WouldBlock) => None,
    }
}

/// [`lock_cache`] with a contention counter: an acquisition that cannot
/// complete immediately is counted before blocking. The `rtm-bench smp`
/// experiment reads these counters to verify the batch hot path (which only
/// ever uses [`try_lock_cache`]) takes zero contended locks.
fn lock_counted<'m, T: Default>(m: &'m Mutex<T>, contended: &AtomicU64) -> MutexGuard<'m, T> {
    match try_lock_cache(m) {
        Some(guard) => guard,
        None => {
            contended.fetch_add(1, Ordering::Relaxed);
            lock_cache(m)
        }
    }
}

/// Poisons `m` by panicking while its lock is held (fault injection and
/// the poison-recovery tests).
#[cfg(any(test, feature = "faults"))]
fn poison<T>(m: &Mutex<T>) {
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        panic!("injected cache poison");
    }));
}

/// A fast multiply-xor hasher (FxHash-style) for the memo cache. DBC lists
/// hash dozens of `u32`s per lookup; SipHash's per-word cost dominates the
/// whole cache otherwise. Collisions only cost a key comparison — the map
/// still compares full keys — so cheapness beats distribution here.
#[derive(Default)]
struct ListHasher(u64);

impl ListHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ListHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// The content-keyed per-DBC cost memo, with the same second-touch
/// promotion discipline as the subsequence cache: a list is memoized only
/// when its content hash recurs, so one-off lists (crossover churn, random
/// candidates) cost a filter write instead of a `Box` allocation and a map
/// insert.
struct Memo {
    map: HashMap<Box<[VarId]>, u64, BuildHasherDefault<ListHasher>>,
    filter: Box<[u64]>,
}

impl Default for Memo {
    fn default() -> Self {
        Self {
            map: HashMap::default(),
            filter: vec![0; FILTER_SLOTS].into_boxed_slice(),
        }
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("len", &self.map.len())
            .finish()
    }
}

/// A cached per-DBC subsequence summary, keyed by *membership* (the sorted
/// accessed members). Membership changes far less often than order — every
/// transpose/permute mutation reuses it — and the summary reduces a
/// re-costing to a table-driven walk with no merge at all.
#[derive(Debug)]
enum Summary {
    /// Single-port form: the first accessed member plus the consecutive
    /// transition pairs of the subsequence (single-port cost is
    /// `Σ |off(u) − off(v)|` over them; self-transitions never shift and
    /// are dropped at build time, which deletes most of a loop-heavy
    /// trace).
    Transitions {
        first: u32,
        pairs: Box<[(u32, u32)]>,
    },
    /// Multi-port form: the full member-access sequence in trace order
    /// (multi-port cost is stateful and cannot be pair-decomposed).
    Sequence(Box<[u32]>),
}

impl Summary {
    /// Cache-accounting weight (stored elements).
    fn weight(&self) -> usize {
        match self {
            Summary::Transitions { pairs, .. } => pairs.len(),
            Summary::Sequence(seq) => seq.len(),
        }
    }
}

/// One subsequence-cache slot: the membership it was built for (for exact
/// verification — the map key is only a commutative hash) plus the summary.
#[derive(Debug)]
struct SubseqEntry {
    members: Box<[VarId]>,
    summary: std::sync::Arc<Summary>,
}

#[derive(Debug)]
struct SubseqCache {
    map: HashMap<u64, SubseqEntry, BuildHasherDefault<ListHasher>>,
    stored: usize,
    /// Second-touch promotion filter: a membership is summarized and cached
    /// only when its key is seen a second time. Crossover churns through
    /// memberships that never recur; building summaries for those would be
    /// pure allocation overhead. Fixed-size, collisions just overwrite.
    filter: Box<[u64]>,
}

impl Default for SubseqCache {
    fn default() -> Self {
        Self {
            map: HashMap::default(),
            stored: 0,
            filter: vec![0; FILTER_SLOTS].into_boxed_slice(),
        }
    }
}

/// Size of the second-touch filter (power of two).
const FILTER_SLOTS: usize = 8192;

/// splitmix64 finalizer: the per-member mix of the order-independent
/// membership hash (members are combined with wrapping addition, so any
/// permutation of the same set produces the same key).
fn mix_member(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bound on elements stored across all cached summaries before the
/// subsequence cache is wiped (≈ tens of MB worst case).
const SUBSEQ_ELEM_CAPACITY: usize = 1 << 22;

/// Bound on memoized DBC lists before the memo — or a batch worker's
/// overlay — is wiped (epoch eviction keeps the engine's memory
/// proportional to the working set of a few generations, not a whole run).
const MEMO_CAPACITY: usize = 1 << 16;

/// How a materialized engine holds its trace: borrowed from the caller
/// (the historical transient-engine path) or shared via [`Arc`] (the
/// [`Session`](crate::Session) path, where the engine must outlive any one
/// solve call). Costing never cares which — both deref to the same
/// [`AccessSequence`].
#[derive(Debug)]
enum SeqRef<'a> {
    /// Borrowed for the engine's lifetime.
    Borrowed(&'a AccessSequence),
    /// Shared ownership — the engine can be `'static`.
    Shared(Arc<AccessSequence>),
}

impl std::ops::Deref for SeqRef<'_> {
    type Target = AccessSequence;

    fn deref(&self) -> &AccessSequence {
        match self {
            SeqRef::Borrowed(seq) => seq,
            SeqRef::Shared(seq) => seq,
        }
    }
}

/// Where the engine's trace comes from.
///
/// Both variants index the **consecutive-deduplicated** stream (a
/// self-transition is free at every port count), so a per-DBC cost is the
/// same pure function of the list's content under either source — the
/// streaming path is bit-identical to the materialized one by
/// construction, and the equivalence tests pin it.
#[derive(Debug)]
enum TraceSource<'a> {
    /// An in-memory [`AccessSequence`] with the uncompressed
    /// [`PositionIndex`] of its dedup stream — the historical path, and
    /// the only one that can serve naive-mode replays.
    Materialized {
        seq: SeqRef<'a>,
        /// The trace with consecutive same-variable accesses collapsed.
        /// All engine costing runs against this stream; only the naive
        /// reference path replays `seq` verbatim.
        dedup: Vec<VarId>,
        /// Position index of `dedup` (not of the raw trace).
        index: PositionIndex,
    },
    /// A delta-compressed [`CompactPositionIndex`] built from one
    /// streaming pass pair — the trace itself is never materialized, so
    /// resident memory is the compressed index, not `O(|S|)` ids.
    Streamed { index: CompactPositionIndex },
}

/// How the engine computes per-DBC costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalMode {
    /// Subsequence costing over the [`PositionIndex`] with memoization —
    /// the production path.
    Incremental,
    /// The pre-engine path: clone the lists, build a [`Placement`] and
    /// replay the full trace. Kept as the reference for equivalence tests
    /// and the `perf` baseline.
    Naive,
}

/// Counters describing what the engine actually did — the raw material of
/// the `rtm-bench perf` throughput report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Individuals (whole placements) evaluated.
    pub evaluations: u64,
    /// Per-DBC costs computed from scratch (subsequence merges or, in naive
    /// mode, full-trace replays).
    pub dbc_recomputations: u64,
    /// Per-DBC costs answered by the content-keyed memo cache.
    pub dbc_cache_hits: u64,
    /// Re-costings that reused a membership-keyed subsequence summary
    /// (no merge performed, only the offset walk).
    pub subseq_cache_hits: u64,
    /// Per-DBC costs inherited unchanged from a parent (clean under the
    /// dirty mask — never even looked up).
    pub dbc_inherited: u64,
    /// Worker-overlay memo entries merged into the shared memo at batch
    /// boundaries (the batch path's writes all arrive this way).
    pub memo_merged: u64,
    /// Memo-lock acquisitions that found the lock held and had to block.
    /// The batch hot path only ever try-locks (contention = recompute,
    /// never block), so this counts the direct path alone — the smp
    /// experiment asserts it stays 0 for pure batch evaluation.
    pub memo_contended: u64,
    /// Subsequence-cache lock acquisitions that found the lock held and
    /// had to block (direct path only, as with `memo_contended`).
    pub subseq_contended: u64,
    /// Wall nanoseconds spent inside evaluation calls (batch timings are
    /// wall time, so parallel fan-out shows up as higher throughput).
    pub eval_nanos: u64,
}

impl EngineStats {
    /// Seconds spent evaluating.
    pub fn eval_seconds(&self) -> f64 {
        self.eval_nanos as f64 / 1e9
    }

    /// Fitness evaluations per second of evaluation time.
    pub fn evals_per_sec(&self) -> f64 {
        if self.eval_nanos > 0 {
            self.evaluations as f64 / self.eval_seconds()
        } else {
            0.0
        }
    }

    /// The work accrued since `earlier` (an older snapshot of the same
    /// engine's counters). Every field is a monotonic counter, so the
    /// difference is exactly the work of the interval; subtraction
    /// saturates so a mismatched snapshot can never underflow. This is how
    /// a [`Session`](crate::Session) reports **per-solve** engine stats
    /// while its warm caches keep accumulating across solves.
    #[must_use]
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            evaluations: self.evaluations.saturating_sub(earlier.evaluations),
            dbc_recomputations: self
                .dbc_recomputations
                .saturating_sub(earlier.dbc_recomputations),
            dbc_cache_hits: self.dbc_cache_hits.saturating_sub(earlier.dbc_cache_hits),
            subseq_cache_hits: self
                .subseq_cache_hits
                .saturating_sub(earlier.subseq_cache_hits),
            dbc_inherited: self.dbc_inherited.saturating_sub(earlier.dbc_inherited),
            memo_merged: self.memo_merged.saturating_sub(earlier.memo_merged),
            memo_contended: self.memo_contended.saturating_sub(earlier.memo_contended),
            subseq_contended: self
                .subseq_contended
                .saturating_sub(earlier.subseq_contended),
            eval_nanos: self.eval_nanos.saturating_sub(earlier.eval_nanos),
        }
    }
}

/// Reusable buffers for one evaluation worker. Obtain via
/// [`FitnessEngine::scratch`]; reusing one across calls makes the hot path
/// allocation-free once the buffers have grown to the working-set size.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    /// Variable at each trace position (validity gated by `bitmap`) —
    /// the scatter target of the sort-free subsequence merge.
    slots: Vec<u32>,
    /// One bit per trace position: whether the position belongs to the DBC
    /// being merged.
    bitmap: Vec<u64>,
    /// The merged member-access sequence (variables in trace order).
    seq_buf: Vec<u32>,
    /// Packed `(position << 32) | var_index` keys for the streaming merge
    /// (sorting them orders the members' accesses by trace position).
    merge_buf: Vec<u64>,
    /// Variable -> offset table (`u32::MAX` = not in the DBC / placement),
    /// set and cleared around each costing.
    offsets: Vec<u32>,
    /// Variable -> DBC table for full-placement replays, parallel to
    /// `offsets`.
    dbc_of: Vec<u32>,
    /// Per-DBC displacement state for full-placement replays.
    disp: Vec<Option<i64>>,
    /// Per-DBC displacement for the specialized single-port replay
    /// (`i64::MIN` = port not yet aligned) — a flat array instead of
    /// `Option<i64>` keeps that inner loop branch-light.
    disp1: Vec<i64>,
}

/// Marks which DBCs of an [`EvalJob`] changed relative to the inherited
/// per-DBC costs. GA operators record their edits here so the engine only
/// recomputes what actually moved.
#[derive(Debug, Clone, Default)]
pub struct DirtyMask {
    all: bool,
    dbcs: Vec<u32>,
}

impl DirtyMask {
    /// A mask with every DBC dirty (fresh individuals).
    pub fn all() -> Self {
        Self {
            all: true,
            dbcs: Vec::new(),
        }
    }

    /// A mask with no DBC dirty (a verbatim clone of a parent).
    pub fn clean() -> Self {
        Self::default()
    }

    /// Marks DBC `d` as changed.
    pub fn mark(&mut self, d: usize) {
        if !self.all {
            self.dbcs.push(d as u32);
        }
    }

    /// Marks every DBC as changed.
    pub fn mark_all(&mut self) {
        self.all = true;
        self.dbcs.clear();
    }

    /// Marks every DBC of subarray `s` as changed (global DBCs
    /// `s·q .. (s+1)·q` for `q = dbcs_per_subarray`) — the hierarchical
    /// form of [`mark`](Self::mark) for operators that edit a whole
    /// subarray at once.
    ///
    /// The per-DBC cost stays a pure function of the list's content in any
    /// geometry (subarrays never interact — each DBC keeps its own port
    /// state), so subarray-granular operators need no new cache or
    /// evaluation path: marking the member DBCs is exact.
    pub fn mark_subarray(&mut self, s: usize, dbcs_per_subarray: usize) {
        for d in s * dbcs_per_subarray..(s + 1) * dbcs_per_subarray {
            self.mark(d);
        }
    }

    /// Whether DBC `d` is dirty.
    pub fn is_dirty(&self, d: usize) -> bool {
        self.all || self.dbcs.contains(&(d as u32))
    }
}

/// One pending fitness evaluation: per-DBC variable lists plus the per-DBC
/// costs inherited from the parent and a [`DirtyMask`] of what changed.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// Ordered variable lists, one per DBC.
    pub lists: Vec<Vec<VarId>>,
    /// Per-DBC costs; entries under a dirty mark are stale until
    /// [`FitnessEngine::evaluate_batch`] refreshes them.
    pub dbc_costs: Vec<u64>,
    /// Which entries of `dbc_costs` must be recomputed.
    pub dirty: DirtyMask,
}

impl EvalJob {
    /// A job with no usable inherited costs — every DBC will be computed.
    pub fn fresh(lists: Vec<Vec<VarId>>) -> Self {
        let dbc_costs = vec![0; lists.len()];
        Self {
            lists,
            dbc_costs,
            dirty: DirtyMask::all(),
        }
    }

    /// A job derived from a parent with known per-DBC costs; operators mark
    /// the DBCs they touch via [`EvalJob::dirty`].
    pub fn derived(lists: Vec<Vec<VarId>>, inherited: Vec<u64>) -> Self {
        debug_assert_eq!(lists.len(), inherited.len());
        Self {
            lists,
            dbc_costs: inherited,
            dirty: DirtyMask::clean(),
        }
    }

    /// Total cost (valid after the job has been evaluated).
    pub fn total(&self) -> u64 {
        self.dbc_costs.iter().sum()
    }
}

/// The incremental, allocation-free, parallel fitness evaluator.
///
/// See the [module docs](self) for the design; construction is `O(|S|)`
/// (one [`PositionIndex`] build), after which per-DBC costs are
/// `O(A log A)` in the DBC's own access count.
#[derive(Debug)]
pub struct FitnessEngine<'a> {
    source: TraceSource<'a>,
    cost: CostModel,
    /// The per-access coster with port homes precomputed — the multi-port
    /// min-over-ports displacement runs in the merge/walk inner loops
    /// without a division per port per access.
    coster: AccessCoster,
    /// Accessed variables in first-occurrence order — identical to
    /// `seq.liveness().by_first_occurrence()` on a materialized trace, and
    /// the canonical variable universe for fit checks and random seeding
    /// when no sequence exists (streamed sources).
    accessed: Vec<VarId>,
    mode: EvalMode,
    pool: Arc<WorkerPool>,
    /// Whether the caches are enabled at all (memoization can be turned
    /// off for pure random sampling via [`with_memo`](Self::with_memo)).
    caching: bool,
    memo: Option<Mutex<Memo>>,
    subseq: Option<Mutex<SubseqCache>>,
    evaluations: AtomicU64,
    dbc_recomputations: AtomicU64,
    dbc_cache_hits: AtomicU64,
    subseq_cache_hits: AtomicU64,
    dbc_inherited: AtomicU64,
    memo_merged: AtomicU64,
    memo_contended: AtomicU64,
    subseq_contended: AtomicU64,
    eval_nanos: AtomicU64,
}

impl<'a> FitnessEngine<'a> {
    /// Creates the production engine: subsequence costing, memoization on,
    /// thread count auto-detected.
    pub fn new(seq: &'a AccessSequence, cost: CostModel) -> Self {
        Self::with_mode(SeqRef::Borrowed(seq), cost, EvalMode::Incremental)
    }

    /// Creates the reference engine replicating the pre-engine evaluation
    /// path (full-trace replay through a freshly built [`Placement`], one
    /// list clone per evaluation). Used by the equivalence tests and as the
    /// baseline side of the `rtm-bench perf` experiment.
    pub fn naive(seq: &'a AccessSequence, cost: CostModel) -> Self {
        Self::with_mode(SeqRef::Borrowed(seq), cost, EvalMode::Naive)
    }

    /// Creates a production engine that **shares ownership** of its trace:
    /// the returned engine is `'static`, so it can be stored in a
    /// long-lived [`Session`](crate::Session) (or a server-side cache) and
    /// reused across solves instead of being rebuilt per call. Costing is
    /// bit-identical to [`new`](Self::new) over the same sequence — only
    /// the ownership of the trace differs.
    pub fn shared(seq: Arc<AccessSequence>, cost: CostModel) -> FitnessEngine<'static> {
        FitnessEngine::with_mode(SeqRef::Shared(seq), cost, EvalMode::Incremental)
    }

    /// Creates a **streaming** engine over any [`AccessStream`]: the trace
    /// is consumed in chunks (two passes) into a delta-compressed
    /// [`CompactPositionIndex`] and never materialized, so resident memory
    /// is the compressed index plus per-DBC scratch — `O(chunk)` during
    /// the build, independent of trace length afterwards.
    ///
    /// Costs are **bit-identical** to a materialized engine over the same
    /// trace: both index the consecutive-deduplicated stream and walk the
    /// same per-DBC subsequences. The membership-keyed subsequence cache
    /// stays off (its summaries are `O(subsequence)` each — exactly the
    /// allocation a bounded-memory pipeline must not make); the
    /// content-keyed cost memo works as usual.
    ///
    /// [`seq`](Self::seq) returns `None` for a streaming engine, so
    /// sequence-dependent extras (naive mode, heuristic seeding) are
    /// unavailable — the search loops degrade gracefully.
    pub fn streaming(src: &dyn AccessStream, cost: CostModel) -> Self {
        let index = CompactPositionIndex::from_stream(src);
        Self::from_compact_index(index, cost)
    }

    /// Creates a streaming engine from an already-built
    /// [`CompactPositionIndex`] (see [`streaming`](Self::streaming)) —
    /// lets callers that need the index anyway (memory accounting, reuse
    /// across engines) avoid a second two-pass build.
    pub fn from_compact_index(index: CompactPositionIndex, cost: CostModel) -> Self {
        let accessed = index.accessed_vars().to_vec();
        Self::with_source(
            TraceSource::Streamed { index },
            accessed,
            cost,
            EvalMode::Incremental,
        )
    }

    fn with_mode(seq: SeqRef<'a>, cost: CostModel, mode: EvalMode) -> Self {
        let mut dedup: Vec<VarId> = Vec::with_capacity(seq.len());
        let mut seen = vec![false; seq.vars().len()];
        let mut accessed: Vec<VarId> = Vec::new();
        for &v in seq.accesses() {
            if dedup.last() != Some(&v) {
                dedup.push(v);
            }
            if !seen[v.index()] {
                seen[v.index()] = true;
                accessed.push(v);
            }
        }
        let index = PositionIndex::of_accesses(&dedup, seq.vars().len());
        Self::with_source(
            TraceSource::Materialized { seq, dedup, index },
            accessed,
            cost,
            mode,
        )
    }

    fn with_source(
        source: TraceSource<'a>,
        accessed: Vec<VarId>,
        cost: CostModel,
        mode: EvalMode,
    ) -> Self {
        let mut engine = Self {
            source,
            cost,
            coster: cost.coster(),
            accessed,
            mode,
            pool: Arc::new(WorkerPool::new(0)),
            caching: mode == EvalMode::Incremental,
            memo: None,
            subseq: None,
            evaluations: AtomicU64::new(0),
            dbc_recomputations: AtomicU64::new(0),
            dbc_cache_hits: AtomicU64::new(0),
            subseq_cache_hits: AtomicU64::new(0),
            dbc_inherited: AtomicU64::new(0),
            memo_merged: AtomicU64::new(0),
            memo_contended: AtomicU64::new(0),
            subseq_contended: AtomicU64::new(0),
            eval_nanos: AtomicU64::new(0),
        };
        engine.rebuild_caches();
        engine
    }

    /// (Re)builds the caches for the current mode and source. Only called
    /// from the constructor and [`with_memo`](Self::with_memo), before any
    /// costing — caches start empty either way. The subsequence cache
    /// stores O(subsequence)-sized summaries; streaming engines exist to
    /// avoid exactly that flavor of resident growth, so only materialized
    /// sources enable it.
    fn rebuild_caches(&mut self) {
        let subseq = self.caching && matches!(self.source, TraceSource::Materialized { .. });
        self.memo = self.caching.then(Mutex::default);
        self.subseq = subseq.then(Mutex::default);
    }

    /// Sets the worker limit of the engine's [`WorkerPool`] (`0` =
    /// auto-detect).
    ///
    /// Worker count never affects results — only wall time (see the
    /// determinism argument in the module docs and in [`crate::pool`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Arc::new(WorkerPool::new(threads));
        self
    }

    /// Runs this engine on an existing **shared** [`WorkerPool`] instead of
    /// a private one, so several engines (a server's warm sessions) draw
    /// worker threads from one global token budget — concurrent requests
    /// can never oversubscribe the host. Scheduling never affects results
    /// (`DESIGN.md` §7), so this is purely a resource-control knob.
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The engine's worker pool — the shared execution substrate for batch
    /// evaluation and for anything racing *on top of* the engine (the
    /// portfolio runs its lanes on this pool, so lane threads and batch
    /// workers draw from one token budget).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Disables (or re-enables) both the per-DBC cost memo and the
    /// membership-keyed subsequence cache. Useful for pure random sampling,
    /// where neither lists nor memberships recur.
    pub fn with_memo(mut self, enabled: bool) -> Self {
        self.caching = enabled && self.mode == EvalMode::Incremental;
        self.rebuild_caches();
        self
    }

    /// The materialized trace this engine evaluates against, or `None` for
    /// a [`streaming`](Self::streaming) engine (whose trace only ever
    /// existed as chunks).
    pub fn seq(&self) -> Option<&AccessSequence> {
        match &self.source {
            TraceSource::Materialized { seq, .. } => Some(&**seq),
            TraceSource::Streamed { .. } => None,
        }
    }

    /// Accessed variables in first-occurrence order — identical to
    /// `seq().liveness().by_first_occurrence()` when a sequence exists,
    /// and the canonical variable universe for fit checks and random
    /// seeding when none does.
    pub fn accessed_vars(&self) -> &[VarId] {
        &self.accessed
    }

    /// Whether `placement` is a valid start state for this engine's trace:
    /// no DBC over `capacity`, no variable placed twice, and every
    /// accessed variable placed. Equivalent to
    /// [`Placement::validate`](crate::Placement::validate) without needing
    /// the materialized sequence.
    pub fn seed_is_valid(&self, placement: &Placement, capacity: usize) -> bool {
        let lists = placement.dbc_lists();
        let width = lists
            .iter()
            .flatten()
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        let mut seen = vec![false; self.var_table_len().max(width)];
        for list in lists {
            if list.len() > capacity {
                return false;
            }
            for &v in list {
                if seen[v.index()] {
                    return false;
                }
                seen[v.index()] = true;
            }
        }
        self.accessed.iter().all(|v| seen[v.index()])
    }

    /// Number of variable slots the trace's index covers.
    fn var_table_len(&self) -> usize {
        match &self.source {
            TraceSource::Materialized { index, .. } => index.var_count(),
            TraceSource::Streamed { index } => index.var_count(),
        }
    }

    /// `v`'s dedup-stream access count (0 for unknown variables).
    fn var_frequency(&self, v: VarId) -> usize {
        match &self.source {
            TraceSource::Materialized { index, .. } => index.frequency(v),
            TraceSource::Streamed { index } => index.frequency(v),
        }
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Resolved worker count for batch evaluation.
    pub fn threads(&self) -> usize {
        self.pool.workers()
    }

    /// A fresh scratch buffer.
    pub fn scratch(&self) -> EvalScratch {
        EvalScratch::default()
    }

    /// Deliberately poisons the engine's memo and subsequence cache locks
    /// by panicking while each is held (fault injection — `--features
    /// faults` only). The next evaluation recovers each cache via
    /// [`lock_cache`] / [`try_lock_cache`]'s clear-and-rebuild, so results
    /// are unchanged.
    #[cfg(feature = "faults")]
    pub fn poison_caches(&self) {
        if let Some(m) = &self.memo {
            poison(m);
        }
        if let Some(c) = &self.subseq {
            poison(c);
        }
    }

    /// Snapshot of the engine's work counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            dbc_recomputations: self.dbc_recomputations.load(Ordering::Relaxed),
            dbc_cache_hits: self.dbc_cache_hits.load(Ordering::Relaxed),
            subseq_cache_hits: self.subseq_cache_hits.load(Ordering::Relaxed),
            dbc_inherited: self.dbc_inherited.load(Ordering::Relaxed),
            memo_merged: self.memo_merged.load(Ordering::Relaxed),
            memo_contended: self.memo_contended.load(Ordering::Relaxed),
            subseq_contended: self.subseq_contended.load(Ordering::Relaxed),
            eval_nanos: self.eval_nanos.load(Ordering::Relaxed),
        }
    }

    // ---- Single-DBC costing -----------------------------------------------

    /// Cost of one DBC list, computed from its members' access positions.
    ///
    /// Equivalent to `CostModel::per_dbc_costs` on a placement containing
    /// only this DBC — each variable must appear at most once across the
    /// whole placement for per-DBC separability to hold (every search path
    /// in this crate maintains that invariant).
    pub fn dbc_cost(&self, list: &[VarId]) -> u64 {
        self.dbc_cost_with(list, &mut self.scratch())
    }

    /// [`dbc_cost`](Self::dbc_cost) with an explicit scratch buffer
    /// (allocation-free once the buffer has grown to the working set).
    pub fn dbc_cost_with(&self, list: &[VarId], scratch: &mut EvalScratch) -> u64 {
        self.dbc_cost_cached(list, scratch, None)
    }

    /// The memo key of a list — the exact hash the memo map computes
    /// internally; the second-touch filter slot is its low bits.
    fn list_key(list: &[VarId]) -> u64 {
        let mut hasher = ListHasher::default();
        std::hash::Hash::hash(list, &mut hasher);
        hasher.finish()
    }

    /// The cached costing core. `overlay` is the batch path's per-worker
    /// private memo ([`BatchCtx`]): when present, the shared memo is only
    /// ever try-locked (contention = recompute, never block) and all
    /// writes go to the overlay — the hot loop takes **zero** contended
    /// locks. The direct path (`overlay == None`: SA/tabu re-costing,
    /// [`per_dbc_costs`](Self::per_dbc_costs)) blocks on the memo lock,
    /// counting contended acquisitions. Either way the returned
    /// cost is the same pure function of the list's content.
    fn dbc_cost_cached(
        &self,
        list: &[VarId],
        scratch: &mut EvalScratch,
        overlay: Option<&mut Memo>,
    ) -> u64 {
        let Some(memo) = &self.memo else {
            return self.dbc_cost_uncached(list, scratch, overlay.is_some());
        };
        let key = Self::list_key(list);
        let slot = (key as usize) & (FILTER_SLOTS - 1);
        match overlay {
            Some(worker) => {
                if let Some(&c) = worker.map.get(list) {
                    self.dbc_cache_hits.fetch_add(1, Ordering::Relaxed);
                    return c;
                }
                if let Some(shared) = try_lock_cache(memo) {
                    if let Some(&c) = shared.map.get(list) {
                        self.dbc_cache_hits.fetch_add(1, Ordering::Relaxed);
                        return c;
                    }
                }
                let c = self.dbc_cost_uncached(list, scratch, true);
                // Second-touch promotion against the worker's private
                // filter; the entry reaches the shared memo at the batch
                // boundary merge.
                if worker.filter[slot] == key {
                    if worker.map.len() >= MEMO_CAPACITY {
                        worker.map.clear();
                    }
                    worker.map.insert(list.into(), c);
                } else {
                    worker.filter[slot] = key;
                }
                c
            }
            None => {
                if let Some(&c) = lock_counted(memo, &self.memo_contended).map.get(list) {
                    self.dbc_cache_hits.fetch_add(1, Ordering::Relaxed);
                    return c;
                }
                let c = self.dbc_cost_uncached(list, scratch, false);
                let mut m = lock_counted(memo, &self.memo_contended);
                if m.filter[slot] == key {
                    if m.map.len() >= MEMO_CAPACITY {
                        m.map.clear();
                    }
                    m.map.insert(list.into(), c);
                } else {
                    m.filter[slot] = key;
                }
                c
            }
        }
    }

    fn dbc_cost_uncached(
        &self,
        list: &[VarId],
        scratch: &mut EvalScratch,
        nonblocking: bool,
    ) -> u64 {
        self.dbc_recomputations.fetch_add(1, Ordering::Relaxed);
        // Populate the var -> offset table and find the accessed members.
        let table_len = self.var_table_len();
        if scratch.offsets.len() < table_len {
            scratch.offsets.resize(table_len, u32::MAX);
        }
        let mut members = 0usize;
        let mut last_offset = 0u32;
        let mut set_key = 0u64;
        for (off, &v) in list.iter().enumerate() {
            let i = v.index();
            if i < table_len && self.var_frequency(v) > 0 {
                scratch.offsets[i] = off as u32;
                members += 1;
                last_offset = off as u32;
                set_key = set_key.wrapping_add(mix_member(i as u64));
            }
        }
        let total = match members {
            0 => 0,
            // One accessed member: every access hits the same offset, so
            // only the initial alignment can cost anything.
            1 => self.coster.access_cost(None, last_offset as usize).0,
            _ => match &self.subseq {
                Some(cache) => {
                    // Membership lookup by order-independent hash; order-only
                    // changes (transpose/permute mutations) hit this cache
                    // and skip the merge entirely. The hash is only a key —
                    // the entry's stored membership is verified against the
                    // offsets table (same size + every stored member present
                    // ⇒ identical sets), so a collision is just a miss. On
                    // the nonblocking (batch) path a contended lock is a
                    // miss too: recomputing the same pure value costs wall
                    // time, never correctness.
                    let cached = {
                        let guard = if nonblocking {
                            try_lock_cache(cache)
                        } else {
                            Some(lock_counted(cache, &self.subseq_contended))
                        };
                        guard.and_then(|c| {
                            c.map.get(&set_key).and_then(|e| {
                                let verified = e.members.len() == members
                                    && e.members
                                        .iter()
                                        .all(|v| scratch.offsets[v.index()] != u32::MAX);
                                verified.then(|| e.summary.clone())
                            })
                        })
                    };
                    match cached {
                        Some(s) => {
                            self.subseq_cache_hits.fetch_add(1, Ordering::Relaxed);
                            self.walk_summary(&s, &scratch.offsets)
                        }
                        None => {
                            self.merge_members(list, scratch);
                            let total = self.walk_seq_buf(scratch);
                            // Promote only memberships seen twice — the
                            // first sighting costs nothing but a filter
                            // write, so crossover churn never allocates. A
                            // contended lock skips the promotion entirely
                            // on the nonblocking path.
                            let guard = if nonblocking {
                                try_lock_cache(cache)
                            } else {
                                Some(lock_counted(cache, &self.subseq_contended))
                            };
                            if let Some(mut c) = guard {
                                let slot = (set_key as usize) & (FILTER_SLOTS - 1);
                                if c.filter[slot] == set_key {
                                    let s = std::sync::Arc::new(self.summary_of_seq_buf(scratch));
                                    let entry = SubseqEntry {
                                        members: list
                                            .iter()
                                            .copied()
                                            .filter(|&v| self.var_frequency(v) > 0)
                                            .collect(),
                                        summary: s.clone(),
                                    };
                                    c.stored += s.weight();
                                    if c.stored > SUBSEQ_ELEM_CAPACITY {
                                        c.map.clear();
                                        c.stored = s.weight();
                                    }
                                    c.map.insert(set_key, entry);
                                } else {
                                    c.filter[slot] = set_key;
                                }
                            }
                            total
                        }
                    }
                }
                None => {
                    self.merge_members(list, scratch);
                    self.walk_seq_buf(scratch)
                }
            },
        };
        // Clear the table for the next costing.
        for &v in list {
            let i = v.index();
            if i < table_len {
                scratch.offsets[i] = u32::MAX;
            }
        }
        total
    }

    /// Merges the members' access positions into trace order
    /// (`scratch.seq_buf`), dispatching on the trace source. Both forms
    /// produce the identical subsequence, so [`walk_seq_buf`]
    /// (Self::walk_seq_buf) yields bit-identical costs either way.
    fn merge_members(&self, list: &[VarId], scratch: &mut EvalScratch) {
        match &self.source {
            TraceSource::Materialized { index, .. } => {
                self.merge_members_indexed(index, list, scratch);
            }
            TraceSource::Streamed { index } => Self::merge_members_streamed(index, list, scratch),
        }
    }

    /// Streaming merge: decode each member's delta-compressed positions,
    /// pack `(position << 32) | var_index`, sort. Positions are unique
    /// across members (each dedup slot belongs to one variable), so the
    /// packed sort orders strictly by position — the same subsequence the
    /// bitmap scatter extracts. `O(A log A)` in the DBC's own access
    /// count, resident `O(A)`.
    fn merge_members_streamed(
        index: &CompactPositionIndex,
        list: &[VarId],
        scratch: &mut EvalScratch,
    ) {
        scratch.merge_buf.clear();
        for &v in list {
            for p in index.positions(v) {
                scratch
                    .merge_buf
                    .push((u64::from(p) << 32) | v.index() as u64);
            }
        }
        scratch.merge_buf.sort_unstable();
        scratch.seq_buf.clear();
        scratch
            .seq_buf
            .extend(scratch.merge_buf.iter().map(|&packed| packed as u32));
    }

    /// Materialized merge — no sort: positions are scattered into a
    /// per-position slot array gated by a bitmap, then extracted in
    /// ascending order by iterating the bitmap's set bits.
    fn merge_members_indexed(
        &self,
        index: &PositionIndex,
        list: &[VarId],
        scratch: &mut EvalScratch,
    ) {
        let raw = index.raw_positions();
        let len = index.access_count();
        let words = len.div_ceil(64);
        if scratch.slots.len() < len {
            scratch.slots.resize(len, 0);
        }
        if scratch.bitmap.len() < words {
            scratch.bitmap.resize(words, 0);
        }
        // Track the populated position range while scattering: the bitmap
        // scan and clear below then visit only the words this DBC actually
        // touches, so a small DBC in a long trace costs O(A), not O(|S|/64)
        // (positions are ascending per member, so each span's first/last
        // elements bound its range).
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for &v in list {
            let (start, end) = index.span(v);
            if start == end {
                continue;
            }
            lo = lo.min(raw[start as usize]);
            hi = hi.max(raw[end as usize - 1]);
            for &p in &raw[start as usize..end as usize] {
                scratch.slots[p as usize] = v.index() as u32;
                scratch.bitmap[(p >> 6) as usize] |= 1u64 << (p & 63);
            }
        }
        scratch.seq_buf.clear();
        if lo == u32::MAX {
            return; // no member is ever accessed
        }
        let (w0, w1) = ((lo >> 6) as usize, (hi >> 6) as usize);
        for w in w0..=w1 {
            let mut bits = scratch.bitmap[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                scratch.seq_buf.push(scratch.slots[(w << 6) + b]);
            }
        }
        scratch.bitmap[w0..=w1].fill(0);
    }

    /// Costs the freshly merged subsequence (`scratch.seq_buf`) against the
    /// offsets table in one pass.
    fn walk_seq_buf(&self, scratch: &mut EvalScratch) -> u64 {
        let mut disp: Option<i64> = None;
        let mut total = 0u64;
        for &var in &scratch.seq_buf {
            let off = scratch.offsets[var as usize];
            let (c, nd) = self.coster.access_cost(disp, off as usize);
            total += c;
            disp = Some(nd);
        }
        total
    }

    /// Builds the membership summary from the freshly merged
    /// `scratch.seq_buf`: transition pairs for single-port models, the full
    /// member-access sequence otherwise.
    fn summary_of_seq_buf(&self, scratch: &EvalScratch) -> Summary {
        let seq = &scratch.seq_buf;
        if self.cost.ports_per_track() == 1 {
            let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(seq.len());
            for w in seq.windows(2) {
                // Self-transitions never shift; drop them at build time.
                if w[0] != w[1] {
                    pairs.push((w[0], w[1]));
                }
            }
            Summary::Transitions {
                first: seq[0],
                pairs: pairs.into_boxed_slice(),
            }
        } else {
            // Self-transitions are free under every port count (the access
            // re-aligns to the same target at zero displacement change), so
            // consecutive duplicates are dropped at build time here too —
            // only the run boundaries carry cost in the stateful walk.
            let mut deduped: Vec<u32> = Vec::with_capacity(seq.len());
            for &var in seq.iter() {
                if deduped.last() != Some(&var) {
                    deduped.push(var);
                }
            }
            Summary::Sequence(deduped.into_boxed_slice())
        }
    }

    /// Costs a summary against the current var -> offset table.
    fn walk_summary(&self, summary: &Summary, offsets: &[u32]) -> u64 {
        match summary {
            Summary::Transitions { first, pairs } => {
                let mut total = self
                    .coster
                    .access_cost(None, offsets[*first as usize] as usize)
                    .0;
                for &(u, v) in pairs.iter() {
                    total +=
                        (offsets[u as usize] as i64 - offsets[v as usize] as i64).unsigned_abs();
                }
                total
            }
            Summary::Sequence(seq) => {
                let mut disp: Option<i64> = None;
                let mut total = 0u64;
                for &var in seq.iter() {
                    let (c, nd) = self
                        .coster
                        .access_cost(disp, offsets[var as usize] as usize);
                    total += c;
                    disp = Some(nd);
                }
                total
            }
        }
    }

    /// Allocation-free full replay of a complete placement: one pass over
    /// the deduplicated access stream with scratch lookup tables — naive
    /// semantics without the naive path's clone and `Placement` build. Used
    /// for fresh candidates (random walk) where no per-DBC structure can be
    /// reused.
    fn replay_lists(&self, lists: &[Vec<VarId>], scratch: &mut EvalScratch) -> u64 {
        let TraceSource::Materialized { dedup, .. } = &self.source else {
            unreachable!("replay_lists requires a materialized dedup stream");
        };
        self.dbc_recomputations
            .fetch_add(lists.len() as u64, Ordering::Relaxed);
        let table_len = self.var_table_len();
        if scratch.offsets.len() < table_len {
            scratch.offsets.resize(table_len, u32::MAX);
        }
        if scratch.dbc_of.len() < table_len {
            scratch.dbc_of.resize(table_len, u32::MAX);
        }
        for (d, list) in lists.iter().enumerate() {
            for (off, &v) in list.iter().enumerate() {
                let i = v.index();
                if i < table_len {
                    scratch.offsets[i] = off as u32;
                    scratch.dbc_of[i] = d as u32;
                }
            }
        }
        let mut total = 0u64;
        if self.coster.homes() == [0] {
            // Single-port specialization: the only port is homed at 0, so
            // the target *is* the offset — the walk reduces to
            // `Σ |disp − off|` over the deduplicated stream, with a flat
            // i64 displacement array (`i64::MIN` = not yet aligned; offsets
            // are non-negative, so the sentinel can never be a real value).
            let track_head = self.cost.initial() == InitialAlignment::TrackHead;
            scratch.disp1.clear();
            scratch.disp1.resize(lists.len(), i64::MIN);
            for &v in dedup {
                let i = v.index();
                let d = scratch.dbc_of[i];
                if d == u32::MAX {
                    continue; // unplaced variable
                }
                let off = scratch.offsets[i] as i64;
                let last = scratch.disp1[d as usize];
                if last != i64::MIN {
                    total += (last - off).unsigned_abs();
                } else if track_head {
                    total += off.unsigned_abs();
                }
                scratch.disp1[d as usize] = off;
            }
        } else {
            scratch.disp.clear();
            scratch.disp.resize(lists.len(), None);
            for &v in dedup {
                let i = v.index();
                let d = scratch.dbc_of[i];
                if d == u32::MAX {
                    continue; // unplaced variable
                }
                let (c, nd) = self
                    .coster
                    .access_cost(scratch.disp[d as usize], scratch.offsets[i] as usize);
                total += c;
                scratch.disp[d as usize] = Some(nd);
            }
        }
        for list in lists {
            for &v in list {
                let i = v.index();
                if i < table_len {
                    scratch.offsets[i] = u32::MAX;
                    scratch.dbc_of[i] = u32::MAX;
                }
            }
        }
        total
    }

    // ---- Whole-placement costing ------------------------------------------

    /// Per-DBC costs of a full set of lists (one fitness evaluation).
    pub fn per_dbc_costs(&self, lists: &[Vec<VarId>]) -> Vec<u64> {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let mut scratch = self.scratch();
        let costs = match self.mode {
            EvalMode::Incremental => lists
                .iter()
                .map(|l| self.dbc_cost_with(l, &mut scratch))
                .collect(),
            EvalMode::Naive => self.naive_per_dbc_costs(lists),
        };
        self.add_eval_time(start);
        costs
    }

    /// Total shift cost of a full set of lists.
    pub fn lists_cost(&self, lists: &[Vec<VarId>]) -> u64 {
        self.per_dbc_costs(lists).into_iter().sum()
    }

    /// Total shift cost of a built placement.
    pub fn shift_cost(&self, placement: &Placement) -> u64 {
        self.lists_cost(placement.dbc_lists())
    }

    /// The pre-engine evaluation, verbatim: clone the lists, build a
    /// placement, replay the whole trace.
    fn naive_per_dbc_costs(&self, lists: &[Vec<VarId>]) -> Vec<u64> {
        let TraceSource::Materialized { seq, .. } = &self.source else {
            unreachable!("naive mode is only constructible from a materialized sequence");
        };
        self.dbc_recomputations
            .fetch_add(lists.len() as u64, Ordering::Relaxed);
        let p = Placement::from_dbc_lists(lists.to_vec());
        self.cost.per_dbc_costs(&p, seq.accesses())
    }

    // ---- Batch evaluation --------------------------------------------------

    /// Evaluates a batch of jobs, refreshing every dirty per-DBC cost.
    ///
    /// Jobs fan out over the engine's [`WorkerPool`]: each job is claimed
    /// exactly once and writes only its own slot, and each per-DBC cost is
    /// a pure function of the list's content, so the result is independent
    /// of worker count and claim order — identical to a sequential
    /// pass. Each worker costs through a private memo overlay (see
    /// [`BatchCtx`]), so the per-DBC hot loop takes zero contended locks;
    /// overlays merge into the shared memo when the batch ends.
    pub fn evaluate_batch(&self, jobs: &mut [EvalJob]) {
        self.evaluations
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let start = Instant::now();
        self.pool.run(
            jobs,
            || self.batch_ctx(),
            |ctx, _, job| self.finish_job(job, ctx),
        );
        self.add_eval_time(start);
    }

    /// One worker's batch context: scratch plus the private memo overlay
    /// (when the memo is enabled at all).
    fn batch_ctx(&self) -> BatchCtx<'_, 'a> {
        BatchCtx {
            engine: self,
            scratch: self.scratch(),
            overlay: self.memo.is_some().then(Memo::default),
        }
    }

    /// Merges a worker's private memo overlay into the shared memo at a
    /// batch boundary. A plain blocking lock is fine here — this runs once
    /// per worker per batch, not per DBC, so it never shows up in the
    /// hot-path contention counters.
    fn merge_overlay(&self, overlay: Memo) {
        let Some(memo) = &self.memo else { return };
        let merged = overlay.map.len() as u64;
        let mut m = lock_cache(memo);
        for (list, c) in overlay.map {
            if m.map.len() >= MEMO_CAPACITY {
                m.map.clear();
            }
            m.map.insert(list, c);
        }
        self.memo_merged.fetch_add(merged, Ordering::Relaxed);
    }

    fn finish_job(&self, job: &mut EvalJob, ctx: &mut BatchCtx<'_, 'a>) {
        match self.mode {
            EvalMode::Incremental => {
                let mut inherited = 0u64;
                for d in 0..job.lists.len() {
                    if job.dirty.is_dirty(d) {
                        job.dbc_costs[d] = self.dbc_cost_cached(
                            &job.lists[d],
                            &mut ctx.scratch,
                            ctx.overlay.as_mut(),
                        );
                    } else {
                        inherited += 1;
                    }
                }
                self.dbc_inherited.fetch_add(inherited, Ordering::Relaxed);
            }
            EvalMode::Naive => job.dbc_costs = self.naive_per_dbc_costs(&job.lists),
        }
    }

    /// Evaluates independent candidates with no inherited state (the random
    /// walk's workload): returns the total cost of each, in order.
    pub fn batch_costs(&self, candidates: &[Vec<Vec<VarId>>]) -> Vec<u64> {
        self.evaluations
            .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        let start = Instant::now();
        let mut out = vec![0u64; candidates.len()];
        self.pool.run(
            &mut out,
            || self.scratch(),
            |scratch, i, slot| *slot = self.total_cost_uncached(&candidates[i], scratch),
        );
        self.add_eval_time(start);
        out
    }

    fn add_eval_time(&self, start: Instant) {
        self.eval_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn total_cost_uncached(&self, lists: &[Vec<VarId>], scratch: &mut EvalScratch) -> u64 {
        match (self.mode, &self.source) {
            (EvalMode::Incremental, TraceSource::Materialized { .. }) => {
                self.replay_lists(lists, scratch)
            }
            // Streaming has no linear dedup stream to replay; per-DBC
            // separability makes the sum of per-DBC merges the same total
            // (and the same recomputation count).
            (EvalMode::Incremental, TraceSource::Streamed { .. }) => lists
                .iter()
                .map(|l| self.dbc_cost_uncached(l, scratch, true))
                .sum(),
            (EvalMode::Naive, _) => self.naive_per_dbc_costs(lists).into_iter().sum(),
        }
    }
}

/// One worker's context for [`FitnessEngine::evaluate_batch`]: scratch
/// buffers plus a private memo overlay. During the batch the worker reads
/// the overlay first, then try-locks the shared memo, and writes **only**
/// the overlay — so the per-DBC hot loop never blocks on a lock. The
/// overlay merges into the shared memo when the context drops at the end
/// of the batch.
struct BatchCtx<'e, 'a> {
    engine: &'e FitnessEngine<'a>,
    scratch: EvalScratch,
    /// Private memo overlay; `None` when the engine's memo is disabled.
    overlay: Option<Memo>,
}

impl Drop for BatchCtx<'_, '_> {
    fn drop(&mut self) {
        // Merging is purely an optimization — every value is a pure
        // function of its key — so the unwind path skips it: a panicking
        // job must never risk a second panic inside a drop.
        if std::thread::panicking() {
            return;
        }
        if let Some(overlay) = self.overlay.take() {
            self.engine.merge_overlay(overlay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::AccessSequence;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    fn ids(seq: &AccessSequence, names: &[&str]) -> Vec<VarId> {
        names.iter().map(|n| seq.vars().id(n).unwrap()).collect()
    }

    fn paper_placement(seq: &AccessSequence) -> Vec<Vec<VarId>> {
        vec![
            ids(seq, &["b", "c", "d", "e", "h"]),
            ids(seq, &["a", "f", "g", "i"]),
        ]
    }

    #[test]
    fn matches_cost_model_on_paper_example() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        assert_eq!(engine.per_dbc_costs(&lists), vec![4, 7]);
        assert_eq!(engine.lists_cost(&lists), 11);
        let p = Placement::from_dbc_lists(lists);
        assert_eq!(engine.shift_cost(&p), 11);
    }

    #[test]
    fn naive_mode_matches_incremental() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        for cost in [CostModel::single_port(), CostModel::multi_port(2, 8)] {
            let inc = FitnessEngine::new(&seq, cost);
            let naive = FitnessEngine::naive(&seq, cost);
            assert_eq!(inc.per_dbc_costs(&lists), naive.per_dbc_costs(&lists));
        }
    }

    #[test]
    fn poisoned_caches_recover_by_clear_and_rebuild() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let (memo, subseq) = (
            engine.memo.as_ref().unwrap(),
            engine.subseq.as_ref().unwrap(),
        );
        let want = engine.per_dbc_costs(&lists);
        for _ in 0..2 {
            poison(memo);
            poison(subseq);
            // Costs are pure functions of the lists: recovery rebuilds
            // each cache and every result is bit-identical.
            assert_eq!(engine.per_dbc_costs(&lists), want);
            assert_eq!(engine.per_dbc_costs(&lists), want);
        }
        // Recovery is lazy: each cache clears its poison on its next
        // acquisition.
        drop(lock_cache(memo));
        drop(lock_cache(subseq));
        assert!(!memo.is_poisoned() && !subseq.is_poisoned());
    }

    #[test]
    fn batch_overlays_merge_into_the_shared_memo() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let base = paper_placement(&seq);
        let engine = FitnessEngine::new(&seq, CostModel::single_port()).with_threads(1);
        // The same lists recur within one batch: the worker's private
        // filter promotes them on second touch, and the batch-boundary
        // merge lands them in the shared memo.
        let mut jobs: Vec<EvalJob> = (0..4).map(|_| EvalJob::fresh(base.clone())).collect();
        engine.evaluate_batch(&mut jobs);
        let reference = FitnessEngine::new(&seq, CostModel::single_port());
        let want = reference.per_dbc_costs(&base);
        for job in &jobs {
            assert_eq!(job.dbc_costs, want);
        }
        let stats = engine.stats();
        assert!(stats.memo_merged > 0, "overlay never merged: {stats:?}");
        // A later *direct* costing is served from the merged shared memo.
        let before = stats.dbc_cache_hits;
        assert_eq!(engine.per_dbc_costs(&base), want);
        assert!(engine.stats().dbc_cache_hits > before);
    }

    #[test]
    fn memo_cache_hits_on_repeats() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        engine.per_dbc_costs(&lists);
        engine.per_dbc_costs(&lists);
        engine.per_dbc_costs(&lists);
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 3);
        // Second-touch promotion: pass 1 arms the filter, pass 2 recomputes
        // and memoizes, pass 3 is fully cached.
        assert_eq!(stats.dbc_recomputations, 4);
        assert_eq!(stats.dbc_cache_hits, 2);
    }

    #[test]
    fn dirty_mask_drives_incremental_reuse() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let engine = FitnessEngine::new(&seq, CostModel::single_port()).with_memo(false);
        let costs = engine.per_dbc_costs(&lists);
        // Swap two variables in DBC1 only; DBC0's cost is inherited.
        let mut mutated = lists.clone();
        mutated[1].swap(0, 1);
        let mut job = EvalJob::derived(mutated, costs.clone());
        job.dirty.mark(1);
        engine.evaluate_batch(std::slice::from_mut(&mut job));
        assert_eq!(job.dbc_costs[0], costs[0]);
        let reference = FitnessEngine::new(&seq, CostModel::single_port());
        assert_eq!(job.dbc_costs, reference.per_dbc_costs(&job.lists));
        assert_eq!(engine.stats().dbc_inherited, 1);
    }

    #[test]
    fn mark_subarray_dirties_exactly_the_member_dbcs() {
        let seq = AccessSequence::parse("a b c d a b c d").unwrap();
        let v = VarId::from_index;
        // Four global DBCs = two subarrays of two DBCs.
        let lists = vec![vec![v(0)], vec![v(1)], vec![v(2)], vec![v(3)]];
        let engine = FitnessEngine::new(&seq, CostModel::single_port()).with_memo(false);
        let costs = engine.per_dbc_costs(&lists);
        // Swap the two lists of subarray 1 and mark only that subarray.
        let mut mutated = lists.clone();
        mutated.swap(2, 3);
        let mut job = EvalJob::derived(mutated, costs.clone());
        job.dirty.mark_subarray(1, 2);
        assert!(!job.dirty.is_dirty(0) && !job.dirty.is_dirty(1));
        assert!(job.dirty.is_dirty(2) && job.dirty.is_dirty(3));
        engine.evaluate_batch(std::slice::from_mut(&mut job));
        let reference = FitnessEngine::new(&seq, CostModel::single_port());
        assert_eq!(job.dbc_costs, reference.per_dbc_costs(&job.lists));
        assert_eq!(engine.stats().dbc_inherited, 2);
    }

    #[test]
    fn batch_results_are_thread_count_invariant() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let base = paper_placement(&seq);
        // 16 jobs with different rotations of DBC1.
        let candidates: Vec<Vec<Vec<VarId>>> = (0..16)
            .map(|i| {
                let mut l = base.clone();
                l[1].rotate_left(i % 4);
                l
            })
            .collect();
        let jobs = || -> Vec<EvalJob> { candidates.iter().cloned().map(EvalJob::fresh).collect() };
        let serial = FitnessEngine::new(&seq, CostModel::single_port()).with_threads(1);
        let want_batch = serial.batch_costs(&candidates);
        let want_dbc = serial.per_dbc_costs(&base);
        let mut want_jobs = jobs();
        serial.evaluate_batch(&mut want_jobs);
        let want_totals: Vec<u64> = want_jobs.iter().map(EvalJob::total).collect();
        for threads in [1usize, 4] {
            let engine = FitnessEngine::new(&seq, CostModel::single_port()).with_threads(threads);
            assert_eq!(engine.batch_costs(&candidates), want_batch);
            let mut got_jobs = jobs();
            engine.evaluate_batch(&mut got_jobs);
            let totals: Vec<u64> = got_jobs.iter().map(EvalJob::total).collect();
            assert_eq!(totals, want_totals);
            // Repeat to exercise the memo-hit path.
            for _ in 0..3 {
                assert_eq!(engine.per_dbc_costs(&base), want_dbc);
            }
        }
    }

    #[test]
    fn unplaced_and_unknown_variables_are_ignored() {
        let seq = AccessSequence::parse("a b a b").unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        // Only `a` placed: b's accesses don't move the port.
        assert_eq!(engine.dbc_cost(&[VarId::from_index(0)]), 0);
        // A variable the trace never saw contributes nothing.
        assert_eq!(
            engine.dbc_cost(&[VarId::from_index(0), VarId::from_index(99)]),
            0
        );
    }

    #[test]
    fn streaming_engine_matches_materialized() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        for cost in [CostModel::single_port(), CostModel::multi_port(2, 8)] {
            let materialized = FitnessEngine::new(&seq, cost);
            // Arbitrary chunking must be invisible to the costs.
            for chunk in [1usize, 3, 7, 100] {
                let chunked = rtm_trace::ChunkedSequence::new(&seq, chunk);
                let streaming = FitnessEngine::streaming(&chunked, cost);
                assert_eq!(
                    streaming.per_dbc_costs(&lists),
                    materialized.per_dbc_costs(&lists),
                    "chunk {chunk}"
                );
                assert_eq!(
                    streaming.batch_costs(std::slice::from_ref(&lists)),
                    materialized.batch_costs(std::slice::from_ref(&lists)),
                );
                assert_eq!(streaming.seq(), None);
                assert!(materialized.seq().is_some());
            }
        }
    }

    #[test]
    fn accessed_vars_match_first_occurrence_order() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let expect = seq.liveness().by_first_occurrence();
        let materialized = FitnessEngine::new(&seq, CostModel::single_port());
        assert_eq!(materialized.accessed_vars(), expect.as_slice());
        let streaming = FitnessEngine::streaming(&seq, CostModel::single_port());
        assert_eq!(streaming.accessed_vars(), expect.as_slice());
    }

    #[test]
    fn seed_is_valid_agrees_with_placement_validate() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let v = VarId::from_index;
        let complete = Placement::from_dbc_lists(paper_placement(&seq));
        let missing = Placement::from_dbc_lists(vec![vec![v(0), v(1)]]);
        let duplicate = {
            let mut lists = paper_placement(&seq);
            let dup = lists[0][0];
            lists[1].push(dup);
            Placement::from_dbc_lists(lists)
        };
        for (p, capacity) in [
            (&complete, 5usize),
            (&complete, 4), // DBC0 holds 5 vars: overflow
            (&missing, 8),
            (&duplicate, 8),
        ] {
            assert_eq!(
                engine.seed_is_valid(p, capacity),
                p.validate(&seq, capacity).is_ok(),
                "{p:?} at capacity {capacity}"
            );
        }
        // Unknown (never-traced) variables are legal in both forms.
        let extra = Placement::from_dbc_lists(vec![
            paper_placement(&seq).concat(),
            vec![VarId::from_index(99)],
        ]);
        assert_eq!(
            engine.seed_is_valid(&extra, 512),
            extra.validate(&seq, 512).is_ok()
        );
    }

    #[test]
    fn streaming_memo_works_without_subseq_cache() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let engine = FitnessEngine::streaming(&seq, CostModel::single_port());
        assert!(engine.subseq.is_none(), "no O(subsequence) summaries");
        engine.per_dbc_costs(&lists);
        engine.per_dbc_costs(&lists);
        engine.per_dbc_costs(&lists);
        let stats = engine.stats();
        // Same second-touch promotion discipline as the materialized memo.
        assert_eq!(stats.evaluations, 3);
        assert_eq!(stats.dbc_recomputations, 4);
        assert_eq!(stats.dbc_cache_hits, 2);
        assert_eq!(stats.subseq_cache_hits, 0);
    }

    #[test]
    fn multi_port_costs_match_cost_model() {
        let seq = AccessSequence::parse("x y x y z x").unwrap();
        let vars: Vec<VarId> = (0..3).map(VarId::from_index).collect();
        let lists = vec![vars];
        for (ports, len) in [(2, 8), (3, 9)] {
            let cost = CostModel::multi_port(ports, len);
            let engine = FitnessEngine::new(&seq, cost);
            let p = Placement::from_dbc_lists(lists.clone());
            assert_eq!(
                engine.per_dbc_costs(&lists),
                cost.per_dbc_costs(&p, seq.accesses())
            );
        }
    }
}
