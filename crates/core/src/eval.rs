//! The fitness engine: incremental, allocation-free shift-cost evaluation
//! for the search-based placers.
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
//! [`FitnessEngine`] exploits both. Every engine, built from an
//! [`AccessSequence`] or from any [`AccessStream`], holds the same
//! [`PositionIndex`] of the trace's dedup stream, built once in two
//! passes. It costs a DBC by merging its members' access positions into
//! trace order through a sort-free bitmap scatter, one window of at most
//! 2^16 positions at a time, into reusable scratch (`O(A)` in
//! the DBC's *own* access count `A`, plus, per window it touches, its
//! member count and one bitmap word per 64 spanned positions;
//! allocation-free after warm-up). A placement whose DBCs are all new
//! (nothing to inherit, lists that seldom recur) is instead costed in one
//! linear replay of the dedup stream, when the engine was built from a
//! sequence and so holds it. It memoizes per-DBC costs under a
//! content key so recurring lists across generations are free. Each
//! per-DBC cost is a pure function of the list's content, so neither the
//! memo nor lanes racing on the engine's [`WorkerPool`] can change a
//! result (see `DESIGN.md` §7 for the full argument).
//!
//! The engine is **port-aware end to end**: every path serves each access
//! at the minimum displacement change over the cost model's port homes
//! (precomputed once per engine), so GA/random-walk/`Strategy::solve` can
//! *search* under a multi-port objective, bit-exactly with
//! [`CostModel::per_dbc_costs`] at any port count. The memo is
//! engine-local and an engine's [`CostModel`] (port configuration
//! included) is fixed at construction, so memo keys are implicitly scoped
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
use rtm_trace::{AccessSequence, AccessStream, PositionIndex, VarId};
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

/// [`lock_cache`] with a contention counter: an acquisition that cannot
/// complete immediately is counted before blocking. Only threads sharing
/// one engine (lanes of a race on two or more workers, concurrent solves
/// of one session) can contend.
fn lock_counted<'m, T: Default>(m: &'m Mutex<T>, contended: &AtomicU64) -> MutexGuard<'m, T> {
    match m.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::WouldBlock) => {
            contended.fetch_add(1, Ordering::Relaxed);
            lock_cache(m)
        }
        Err(TryLockError::Poisoned(poisoned)) => {
            // Release the poisoned guard before `lock_cache` re-locks.
            drop(poisoned);
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

/// The content-keyed per-DBC cost memo, under second-touch promotion: a
/// list is memoized only when its content hash recurs, so one-off lists
/// (crossover churn, random candidates) cost a filter write instead of a
/// `Box` allocation and a map insert.
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

impl Memo {
    /// Records a freshly computed cost under second-touch promotion: the
    /// first sighting of `key` only arms its filter slot, the second
    /// memoizes the list (wiping the map first when it is full).
    fn record(&mut self, list: &[VarId], key: u64, cost: u64) {
        let slot = (key as usize) & (FILTER_SLOTS - 1);
        if self.filter[slot] == key {
            if self.map.len() >= MEMO_CAPACITY {
                self.map.clear();
            }
            self.map.insert(list.into(), cost);
        } else {
            self.filter[slot] = key;
        }
    }
}

/// Size of the second-touch filter (power of two).
const FILTER_SLOTS: usize = 8192;

/// Bound on memoized DBC lists before the memo is wiped (epoch eviction
/// keeps the engine's memory proportional to the working set of a few
/// generations, not a whole run).
const MEMO_CAPACITY: usize = 1 << 16;

/// Dedup positions per merge window: the slot array and bitmap cover one
/// window, so a scratch's merge buffers are `O(WINDOW + A)` whatever the
/// trace length (256 KiB of slots, 8 KiB of bitmap).
const WINDOW: usize = 1 << 16;

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

/// What only an engine built from an [`AccessSequence`] holds: the
/// sequence itself (naive replays, GA heuristic seeding) and its dedup
/// stream as one array, which the linear replay of whole placements walks
/// ([`FitnessEngine::per_dbc_costs`], [`FitnessEngine::total_cost_with`]
/// and fully dirty batch jobs).
#[derive(Debug)]
struct Materialized<'a> {
    seq: SeqRef<'a>,
    /// The trace with runs of one variable collapsed — the stream the
    /// [`PositionIndex`] indexes, in trace order.
    dedup: Vec<VarId>,
}

/// How the engine computes per-DBC costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalMode {
    /// Subsequence costing over the [`PositionIndex`] with memoization —
    /// the production path.
    Incremental,
    /// The pre-engine path: clone the lists, build a [`Placement`] and
    /// replay the full trace. Kept as the reference for equivalence tests
    /// and the `perf` baseline; needs a sequence.
    Naive,
}

/// Counters describing what the engine actually did — the raw material of
/// the `rtm-bench perf` throughput report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Individuals (whole placements) evaluated.
    pub evaluations: u64,
    /// Per-DBC costs computed from scratch (subsequence merges, walks of a
    /// local search's kept sequences, one per DBC of a linear replay, or,
    /// in naive mode, full-trace replays).
    pub dbc_recomputations: u64,
    /// Per-DBC costs answered by the content-keyed memo cache.
    pub dbc_cache_hits: u64,
    /// Always 0: the engine has no subsequence cache, so every dirty DBC
    /// is merged or walked from its kept sequence. Kept so that its
    /// readers (the `e2ebench` layer totals, the CLI's and the daemon's
    /// `"cache"` objects) still read a well-defined value.
    pub subseq_cache_hits: u64,
    /// Per-DBC costs inherited unchanged from a parent (clean under the
    /// dirty mask — never even looked up).
    pub dbc_inherited: u64,
    /// Always 0: batches cost on the calling thread straight through the
    /// memo, so nothing is ever merged into it. Kept so that its readers
    /// (the `e2ebench` layer totals, the CLI's and the daemon's `"cache"`
    /// objects) still read a well-defined value.
    pub memo_merged: u64,
    /// Memo-lock acquisitions that found the lock held and had to block
    /// (only threads sharing one engine can contend: lanes of a race on
    /// two or more workers, concurrent solves of one session).
    pub memo_contended: u64,
    /// Always 0, for the same readers as `subseq_cache_hits`: the memo's
    /// lock is the engine's only cache lock.
    pub subseq_contended: u64,
    /// Wall nanoseconds spent inside evaluation calls.
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
    /// while its warm memo keeps accumulating across solves.
    #[must_use]
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            evaluations: self.evaluations.saturating_sub(earlier.evaluations),
            dbc_recomputations: self
                .dbc_recomputations
                .saturating_sub(earlier.dbc_recomputations),
            dbc_cache_hits: self.dbc_cache_hits.saturating_sub(earlier.dbc_cache_hits),
            subseq_cache_hits: 0,
            dbc_inherited: self.dbc_inherited.saturating_sub(earlier.dbc_inherited),
            memo_merged: 0,
            memo_contended: self.memo_contended.saturating_sub(earlier.memo_contended),
            subseq_contended: 0,
            eval_nanos: self.eval_nanos.saturating_sub(earlier.eval_nanos),
        }
    }
}

/// Reusable buffers for one evaluating thread. Obtain via
/// [`FitnessEngine::scratch`]; reusing one across calls makes the hot path
/// allocation-free once the buffers have grown to the working-set size.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    /// The windowed merge's buffers.
    merge: MergeBufs,
    /// The merged member-access sequence (variables in trace order).
    seq_buf: Vec<u32>,
    /// Variable -> offset table (`u32::MAX` = not in the DBC), set and
    /// cleared around each per-DBC costing.
    offsets: Vec<u32>,
    /// Variable -> `(DBC, offset)` table for full-placement replays (DBC
    /// `u32::MAX` = unplaced), so an access reads both with one load; set
    /// and cleared around each replay.
    slot: Vec<(u32, u32)>,
    /// Per-DBC costs of the last full-placement replay, one per list.
    costs: Vec<u64>,
    /// Per-DBC state of a full-placement replay: the port displacement and
    /// the shifts so far, side by side so an access touches one slot.
    disp: Vec<(Option<i64>, u64)>,
    /// The same for the specialized single-port replay (`i64::MIN` = port
    /// not yet aligned) — a flat `i64` instead of `Option<i64>` keeps that
    /// inner loop branch-light.
    disp1: Vec<(i64, u64)>,
}

/// The buffers of the windowed merge ([`FitnessEngine::merge_runs`]).
#[derive(Debug, Default, Clone)]
struct MergeBufs {
    /// Variable at each position of the current merge window (validity
    /// gated by `bitmap`) — the scatter target of the sort-free merge.
    slots: Vec<u32>,
    /// One bit per window position: whether the position belongs to the
    /// DBC being merged.
    bitmap: Vec<u64>,
    /// One cursor per member whose run continues past the first merge
    /// window.
    runs: Vec<Cursor>,
}

/// One member's progress through its position run during a windowed merge.
#[derive(Debug, Clone)]
struct Cursor {
    /// The position at `at` (kept here so a member idle in a window costs
    /// no read of the index).
    next: u32,
    /// Index of the next unmerged position in the index's raw array.
    at: u32,
    /// End of the member's run in the raw array.
    end: u32,
    /// The member's variable index.
    var: u32,
}

/// One merge window: the scatter targets for dedup positions
/// `base .. limit` and the range of positions scattered so far.
struct Window<'s> {
    /// Variable at each window position (validity gated by `bitmap`).
    slots: &'s mut [u32],
    /// One bit per window position.
    bitmap: &'s mut [u64],
    base: u32,
    limit: u32,
    lo: u32,
    hi: u32,
}

impl<'s> Window<'s> {
    /// An empty window over positions `0 .. WINDOW`.
    fn new(slots: &'s mut [u32], bitmap: &'s mut [u64]) -> Self {
        let mut win = Self {
            slots,
            bitmap,
            base: 0,
            limit: 0,
            lo: 0,
            hi: 0,
        };
        win.move_to(0);
        win
    }

    /// Moves the drained window to positions `base .. base + WINDOW`.
    fn move_to(&mut self, base: u32) {
        self.base = base;
        self.limit = base.saturating_add(WINDOW as u32);
        (self.lo, self.hi) = (u32::MAX, 0);
    }

    /// Scatters the prefix of the ascending `run` that lies in this window
    /// as accesses of `var` and returns its length — the whole run when
    /// its last position is inside, so the scatter loop tests no bound.
    #[inline]
    fn scatter(&mut self, run: &[u32], var: u32) -> usize {
        let n = match run.last() {
            None => return 0,
            Some(&last) if last < self.limit => run.len(),
            Some(_) => run.partition_point(|&p| p < self.limit),
        };
        for &p in &run[..n] {
            let off = (p - self.base) as usize;
            self.slots[off] = var;
            self.bitmap[off >> 6] |= 1u64 << (off & 63);
        }
        if n > 0 {
            self.lo = self.lo.min(run[0]);
            self.hi = self.hi.max(run[n - 1]);
        }
        n
    }

    /// Hands every scattered `(position, variable)` to `emit` in position
    /// order. Only the bitmap words between the lowest and highest
    /// scattered position are read (and cleared for the next window), so
    /// a small DBC in a long trace costs `O(A)`, not `O(WINDOW / 64)`.
    fn drain(&mut self, emit: &mut impl FnMut(u32, u32)) {
        if self.lo > self.hi {
            return;
        }
        let first = ((self.lo - self.base) >> 6) as usize;
        let last = ((self.hi - self.base) >> 6) as usize;
        for w in first..=last {
            let mut bits = std::mem::take(&mut self.bitmap[w]);
            while bits != 0 {
                let off = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                emit(self.base + off as u32, self.slots[off]);
            }
        }
    }
}

/// Marks which DBCs of an [`EvalJob`] changed relative to the inherited
/// per-DBC costs. GA operators record their edits here so the engine only
/// recomputes what actually moved.
#[derive(Debug, Clone, Default)]
pub struct DirtyMask {
    all: bool,
    /// The marked DBCs, each once.
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

    /// Marks DBC `d` as changed (marking it again is a no-op).
    pub fn mark(&mut self, d: usize) {
        let d = d as u32;
        if !self.all && !self.dbcs.contains(&d) {
            self.dbcs.push(d);
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

    /// Whether every DBC of an `n`-DBC placement is dirty, so no per-DBC
    /// cost can be inherited. `O(n)`: each DBC is marked once.
    fn covers(&self, n: usize) -> bool {
        self.all || self.dbcs.iter().filter(|&&d| (d as usize) < n).count() == n
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

/// The incremental, allocation-free fitness evaluator.
///
/// See the [module docs](self) for the design; construction is `O(|S|)`
/// (one two-pass [`PositionIndex`] build), after which a per-DBC cost is
/// `O(A)` in the DBC's own access count `A` plus a per-window term (see
/// the module docs).
#[derive(Debug)]
pub struct FitnessEngine<'a> {
    /// Position index of the trace's dedup stream — what every per-DBC
    /// merge reads, whichever constructor built the engine.
    index: PositionIndex,
    /// The sequence and its dedup copy, for engines built from an
    /// [`AccessSequence`]; `None` for [`streaming`](Self::streaming) ones.
    trace: Option<Materialized<'a>>,
    cost: CostModel,
    /// The per-access coster with port homes precomputed — the multi-port
    /// min-over-ports displacement runs in the merge/walk inner loops
    /// without a division per port per access.
    coster: AccessCoster,
    mode: EvalMode,
    pool: Arc<WorkerPool>,
    memo: Mutex<Memo>,
    evaluations: AtomicU64,
    dbc_recomputations: AtomicU64,
    dbc_cache_hits: AtomicU64,
    dbc_inherited: AtomicU64,
    memo_contended: AtomicU64,
    eval_nanos: AtomicU64,
}

impl<'a> FitnessEngine<'a> {
    /// Creates the production engine: subsequence costing behind the memo,
    /// thread count auto-detected.
    pub fn new(seq: &'a AccessSequence, cost: CostModel) -> Self {
        Self::materialized(SeqRef::Borrowed(seq), cost, EvalMode::Incremental)
    }

    /// Creates the reference engine replicating the pre-engine evaluation
    /// path (full-trace replay through a freshly built [`Placement`], one
    /// list clone per evaluation). Used by the equivalence tests and as the
    /// baseline side of the `rtm-bench perf` experiment.
    pub fn naive(seq: &'a AccessSequence, cost: CostModel) -> Self {
        Self::materialized(SeqRef::Borrowed(seq), cost, EvalMode::Naive)
    }

    /// Creates a production engine that **shares ownership** of its trace:
    /// the returned engine is `'static`, so it can be stored in a
    /// long-lived [`Session`](crate::Session) (or a server-side cache) and
    /// reused across solves instead of being rebuilt per call. Costing is
    /// bit-identical to [`new`](Self::new) over the same sequence — only
    /// the ownership of the trace differs.
    pub fn shared(seq: Arc<AccessSequence>, cost: CostModel) -> FitnessEngine<'static> {
        FitnessEngine::materialized(SeqRef::Shared(seq), cost, EvalMode::Incremental)
    }

    /// Creates a **streaming** engine over any [`AccessStream`]: the trace
    /// is consumed in chunks (two passes) into a [`PositionIndex`] and
    /// never materialized, so resident memory is the index plus evaluation
    /// scratch — `O(chunk)` during the build, independent of trace length
    /// afterwards.
    ///
    /// Costs are **bit-identical** to an engine built from the same trace
    /// as a sequence: both hold the same index and run the same merge and
    /// memo. [`seq`](Self::seq) returns `None` for a streaming engine,
    /// so what only a sequence gives is unavailable: naive mode and
    /// heuristic seeding (the search loops degrade gracefully), and the
    /// linear replay of whole placements, which costs one merge per DBC
    /// instead.
    pub fn streaming(src: &dyn AccessStream, cost: CostModel) -> Self {
        Self::from_compact_index(PositionIndex::from_stream(src), cost)
    }

    /// Creates a streaming engine from an already-built [`PositionIndex`]
    /// (see [`streaming`](Self::streaming)) — lets callers that need the
    /// index anyway (memory accounting) avoid a second two-pass build.
    pub fn from_compact_index(index: PositionIndex, cost: CostModel) -> Self {
        Self::with_trace(index, None, cost, EvalMode::Incremental)
    }

    fn materialized(seq: SeqRef<'a>, cost: CostModel, mode: EvalMode) -> Self {
        let index = PositionIndex::from_stream(&*seq);
        let mut dedup: Vec<VarId> = Vec::with_capacity(index.access_count());
        for &v in seq.accesses() {
            if dedup.last() != Some(&v) {
                dedup.push(v);
            }
        }
        Self::with_trace(index, Some(Materialized { seq, dedup }), cost, mode)
    }

    fn with_trace(
        index: PositionIndex,
        trace: Option<Materialized<'a>>,
        cost: CostModel,
        mode: EvalMode,
    ) -> Self {
        Self {
            index,
            trace,
            cost,
            coster: cost.coster(),
            mode,
            pool: Arc::new(WorkerPool::new(0)),
            memo: Mutex::default(),
            evaluations: AtomicU64::new(0),
            dbc_recomputations: AtomicU64::new(0),
            dbc_cache_hits: AtomicU64::new(0),
            dbc_inherited: AtomicU64::new(0),
            memo_contended: AtomicU64::new(0),
            eval_nanos: AtomicU64::new(0),
        }
    }

    /// Sets the worker limit of the engine's [`WorkerPool`] (`0` =
    /// auto-detect), on which a portfolio races its lanes.
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

    /// The engine's worker pool, for anything racing *on top of* the
    /// engine: the portfolio runs its lanes on it, so the lanes of every
    /// engine sharing one pool draw from one token budget.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The materialized trace this engine evaluates against, or `None` for
    /// a [`streaming`](Self::streaming) engine (whose trace only ever
    /// existed as chunks).
    pub fn seq(&self) -> Option<&AccessSequence> {
        self.trace.as_ref().map(|t| &*t.seq)
    }

    /// Accessed variables in first-occurrence order — identical to
    /// `seq().liveness().by_first_occurrence()` when a sequence exists,
    /// and the canonical variable universe for fit checks and random
    /// seeding when none does.
    pub fn accessed_vars(&self) -> &[VarId] {
        self.index.accessed_vars()
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
        let mut seen = vec![false; self.index.var_count().max(width)];
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
        self.accessed_vars().iter().all(|v| seen[v.index()])
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// A fresh scratch buffer.
    pub fn scratch(&self) -> EvalScratch {
        EvalScratch::default()
    }

    /// Deliberately poisons the engine's memo lock by panicking while it
    /// is held (fault injection — `--features faults` only). The next
    /// memo access recovers it via [`lock_cache`]'s clear-and-rebuild, so
    /// results are unchanged.
    #[cfg(feature = "faults")]
    pub fn poison_caches(&self) {
        poison(&self.memo);
    }

    /// Snapshot of the engine's work counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            dbc_recomputations: self.dbc_recomputations.load(Ordering::Relaxed),
            dbc_cache_hits: self.dbc_cache_hits.load(Ordering::Relaxed),
            subseq_cache_hits: 0,
            dbc_inherited: self.dbc_inherited.load(Ordering::Relaxed),
            memo_merged: 0,
            memo_contended: self.memo_contended.load(Ordering::Relaxed),
            subseq_contended: 0,
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
        self.memoized(list, || self.dbc_cost_uncached(list, scratch))
    }

    /// The memo key of a list — the exact hash the memo map computes
    /// internally; the second-touch filter slot is its low bits.
    fn list_key(list: &[VarId]) -> u64 {
        let mut hasher = ListHasher::default();
        std::hash::Hash::hash(list, &mut hasher);
        hasher.finish()
    }

    /// The exact-list memo in front of `compute`: a hit answers from the
    /// memo, a miss runs `compute` and records its value under
    /// second-touch promotion. Both memo accesses block on the lock,
    /// counting contended acquisitions. [`dbc_cost`](Self::dbc_cost) and
    /// [`dbc_cost_with`](Self::dbc_cost_with) (so a streaming engine's
    /// [`per_dbc_costs`](Self::per_dbc_costs) and the dirty DBCs of a
    /// partially dirty batch job) and the local search's kept-sequence
    /// re-costs ([`kept_cost`](Self::kept_cost)) all come through here,
    /// so they probe, record and count hits alike.
    fn memoized(&self, list: &[VarId], compute: impl FnOnce() -> u64) -> u64 {
        if let Some(&c) = lock_counted(&self.memo, &self.memo_contended).map.get(list) {
            self.dbc_cache_hits.fetch_add(1, Ordering::Relaxed);
            return c;
        }
        let c = compute();
        lock_counted(&self.memo, &self.memo_contended).record(list, Self::list_key(list), c);
        c
    }

    /// Cost of the DBC `list` from its kept access sequence `seq` — the
    /// `(position, variable)` pairs [`dbc_sequence`](Self::dbc_sequence)
    /// builds, kept current by the local search — walked against the
    /// search's var -> offset table, behind the memo. No merge: the
    /// sequence is already at hand.
    pub(crate) fn kept_cost(&self, list: &[VarId], seq: &[(u32, u32)], offsets: &[u32]) -> u64 {
        self.memoized(list, || {
            self.dbc_recomputations.fetch_add(1, Ordering::Relaxed);
            self.walk(seq.iter().map(|&(_, var)| var), offsets)
        })
    }

    /// The access sequence of the DBC `list`, written to `out`: its
    /// members' dedup-stream positions, each paired with its variable
    /// index, in trace order — the merge kernel's output with the
    /// positions kept, which is what lets a local search
    /// ([`SearchState`](crate::search::SearchState)) splice one member in
    /// or out later instead of merging again.
    pub fn dbc_sequence(
        &self,
        list: &[VarId],
        scratch: &mut EvalScratch,
        out: &mut Vec<(u32, u32)>,
    ) {
        out.clear();
        self.merge_runs(list, &mut scratch.merge, |pos, var| out.push((pos, var)));
    }

    /// The ascending dedup positions of `v` (empty when the trace never
    /// accesses it).
    pub(crate) fn positions(&self, v: VarId) -> &[u32] {
        self.index.positions(v)
    }

    /// Number of variable slots of the engine's index.
    pub(crate) fn var_count(&self) -> usize {
        self.index.var_count()
    }

    fn dbc_cost_uncached(&self, list: &[VarId], scratch: &mut EvalScratch) -> u64 {
        self.dbc_recomputations.fetch_add(1, Ordering::Relaxed);
        // Populate the var -> offset table and count the accessed members.
        let table_len = self.index.var_count();
        if scratch.offsets.len() < table_len {
            scratch.offsets.resize(table_len, u32::MAX);
        }
        let mut members = 0usize;
        let mut last_offset = 0u32;
        for (off, &v) in list.iter().enumerate() {
            if self.index.frequency(v) > 0 {
                scratch.offsets[v.index()] = off as u32;
                members += 1;
                last_offset = off as u32;
            }
        }
        let total = match members {
            0 => 0,
            // One accessed member: every access hits the same offset, so
            // only the initial alignment can cost anything.
            1 => self.coster.access_cost(None, last_offset as usize).0,
            _ => self.merge_and_walk(list, scratch),
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

    /// Merges the members' dedup positions into trace order without
    /// sorting, handing each `(position, variable)` to `emit`, one
    /// [`Window`] of [`WINDOW`] positions at a time: positions are
    /// scattered into a slot array gated by a bitmap, and the bitmap's set
    /// bits read them back in ascending order. The first window is filled
    /// straight off the member list; a member whose run goes past it keeps
    /// a [`Cursor`], and each later window is the one holding the lowest
    /// pending position, so no empty window is visited.
    fn merge_runs(&self, list: &[VarId], bufs: &mut MergeBufs, mut emit: impl FnMut(u32, u32)) {
        let raw = self.index.raw_positions();
        let span = WINDOW.min(self.index.access_count());
        let MergeBufs {
            slots,
            bitmap,
            runs,
        } = bufs;
        if slots.len() < span {
            slots.resize(span, 0);
            bitmap.resize(span.div_ceil(64), 0);
        }
        runs.clear();
        let mut win = Window::new(slots, bitmap);
        for &v in list {
            let (at, end) = self.index.span(v);
            let run = &raw[at as usize..end as usize];
            let var = v.index() as u32;
            let n = win.scatter(run, var);
            if n < run.len() {
                let at = at + n as u32;
                runs.push(Cursor {
                    next: run[n],
                    at,
                    end,
                    var,
                });
            }
        }
        win.drain(&mut emit);
        while let Some(next) = runs.iter().map(|c| c.next).min() {
            win.move_to(next & !(WINDOW as u32 - 1));
            for c in runs.iter_mut() {
                if c.next < win.limit {
                    c.at += win.scatter(&raw[c.at as usize..c.end as usize], c.var) as u32;
                    if c.at < c.end {
                        c.next = raw[c.at as usize];
                    }
                }
            }
            runs.retain(|c| c.at < c.end);
            win.drain(&mut emit);
        }
    }

    /// Merges the members' subsequence into `scratch.seq_buf` and walks it
    /// against the offsets table.
    fn merge_and_walk(&self, list: &[VarId], scratch: &mut EvalScratch) -> u64 {
        let seq_buf = &mut scratch.seq_buf;
        seq_buf.clear();
        self.merge_runs(list, &mut scratch.merge, |_, var| seq_buf.push(var));
        self.walk(scratch.seq_buf.iter().copied(), &scratch.offsets)
    }

    /// Costs one DBC's access subsequence — its variables in trace order —
    /// against a var -> offset table: the one walk behind the merge path
    /// and the local search's kept sequences.
    /// Under the single-port model (one port homed at 0, so the target is
    /// the offset) the loop is branch-free: the port starts at the track
    /// head, or under first-access alignment at the first offset, and each
    /// access adds `|last − off|`. Other models run the generic coster.
    fn walk(&self, mut vars: impl Iterator<Item = u32>, offsets: &[u32]) -> u64 {
        if self.coster.homes() != [0] {
            let mut disp: Option<i64> = None;
            let mut total = 0u64;
            for var in vars {
                let (c, nd) = self
                    .coster
                    .access_cost(disp, offsets[var as usize] as usize);
                total += c;
                disp = Some(nd);
            }
            return total;
        }
        let Some(first) = vars.next() else {
            return 0;
        };
        let mut last = offsets[first as usize] as i64;
        let mut total = match self.cost.initial() {
            InitialAlignment::TrackHead => last.unsigned_abs(),
            InitialAlignment::FirstAccess => 0,
        };
        for var in vars {
            let off = offsets[var as usize] as i64;
            total += (last - off).unsigned_abs();
            last = off;
        }
        total
    }

    /// Allocation-free full replay of a complete placement: one pass over
    /// the deduplicated access stream with one `(DBC, offset)` scratch
    /// table (one load per access), returning each DBC's cost (one per
    /// list, held in `scratch`) — naive semantics without the naive path's
    /// clone and `Placement` build. Equal to one per-DBC merge per list by
    /// separability, and cheaper when every DBC of a placement is new
    /// (fresh candidates, fully dirty jobs, start states): one linear pass
    /// instead of `q` merges, and no cache traffic for lists that would
    /// almost never recur.
    fn replay_lists<'s>(
        &self,
        dedup: &[VarId],
        lists: &[Vec<VarId>],
        scratch: &'s mut EvalScratch,
    ) -> &'s [u64] {
        const UNPLACED: (u32, u32) = (u32::MAX, u32::MAX);
        self.dbc_recomputations
            .fetch_add(lists.len() as u64, Ordering::Relaxed);
        let table_len = self.index.var_count();
        if scratch.slot.len() < table_len {
            scratch.slot.resize(table_len, UNPLACED);
        }
        for (d, list) in lists.iter().enumerate() {
            for (off, &v) in list.iter().enumerate() {
                let i = v.index();
                if i < table_len {
                    scratch.slot[i] = (d as u32, off as u32);
                }
            }
        }
        // An unplaced variable's DBC is `u32::MAX`, past the last state
        // slot, so one `get_mut` both bounds-checks and skips it.
        if self.coster.homes() == [0] {
            // Single-port specialization: the only port is homed at 0, so
            // the target *is* the offset — the walk reduces to
            // `Σ |disp − off|` over the deduplicated stream, with a flat
            // i64 displacement (`i64::MIN` = not yet aligned; offsets are
            // non-negative, so the sentinel can never be a real value).
            let track_head = self.cost.initial() == InitialAlignment::TrackHead;
            scratch.disp1.clear();
            scratch.disp1.resize(lists.len(), (i64::MIN, 0));
            for &v in dedup {
                let (d, off) = scratch.slot[v.index()];
                let Some((last, shifts)) = scratch.disp1.get_mut(d as usize) else {
                    continue;
                };
                let off = i64::from(off);
                if *last != i64::MIN {
                    *shifts += (*last - off).unsigned_abs();
                } else if track_head {
                    *shifts += off.unsigned_abs();
                }
                *last = off;
            }
            scratch.costs.clear();
            scratch.costs.extend(scratch.disp1.iter().map(|d| d.1));
        } else {
            scratch.disp.clear();
            scratch.disp.resize(lists.len(), (None, 0));
            for &v in dedup {
                let (d, off) = scratch.slot[v.index()];
                let Some((disp, shifts)) = scratch.disp.get_mut(d as usize) else {
                    continue;
                };
                let (c, nd) = self.coster.access_cost(*disp, off as usize);
                *shifts += c;
                *disp = Some(nd);
            }
            scratch.costs.clear();
            scratch.costs.extend(scratch.disp.iter().map(|d| d.1));
        }
        for list in lists {
            for &v in list {
                let i = v.index();
                if i < table_len {
                    scratch.slot[i] = UNPLACED;
                }
            }
        }
        &scratch.costs
    }

    // ---- Whole-placement costing ------------------------------------------

    /// Per-DBC costs of a full set of lists (one fitness evaluation): the
    /// linear replay on an engine built from a sequence, one cached merge
    /// per list on a streaming one. Like [`dbc_cost`](Self::dbc_cost), it
    /// needs each variable placed at most once.
    pub fn per_dbc_costs(&self, lists: &[Vec<VarId>]) -> Vec<u64> {
        self.per_dbc_costs_with(lists, &mut self.scratch())
    }

    /// [`per_dbc_costs`](Self::per_dbc_costs) with an explicit scratch
    /// buffer, so a caller costing several placements (a local search's
    /// candidate seeds) fills the replay's tables into one set of buffers.
    pub(crate) fn per_dbc_costs_with(
        &self,
        lists: &[Vec<VarId>],
        scratch: &mut EvalScratch,
    ) -> Vec<u64> {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let costs = match (self.mode, &self.trace) {
            (EvalMode::Incremental, Some(trace)) => {
                self.replay_lists(&trace.dedup, lists, scratch).to_vec()
            }
            (EvalMode::Incremental, None) => lists
                .iter()
                .map(|l| self.dbc_cost_with(l, scratch))
                .collect(),
            (EvalMode::Naive, _) => self.naive_per_dbc_costs(lists),
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
        let Some(trace) = &self.trace else {
            unreachable!("naive mode is only constructible from a sequence");
        };
        self.dbc_recomputations
            .fetch_add(lists.len() as u64, Ordering::Relaxed);
        let p = Placement::from_dbc_lists(lists.to_vec());
        self.cost.per_dbc_costs(&p, trace.seq.accesses())
    }

    // ---- Batch evaluation --------------------------------------------------

    /// Evaluates a batch of jobs in order on the calling thread, refreshing
    /// every dirty per-DBC cost through one scratch.
    pub fn evaluate_batch(&self, jobs: &mut [EvalJob]) {
        self.evaluations
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let start = Instant::now();
        let mut scratch = self.scratch();
        for job in jobs {
            self.finish_job(job, &mut scratch);
        }
        self.add_eval_time(start);
    }

    /// Refreshes a job's dirty costs: one linear replay when every DBC is
    /// dirty and the engine holds the dedup stream (nothing to inherit, and
    /// lists that new seldom recur), otherwise a cached merge per dirty
    /// DBC.
    fn finish_job(&self, job: &mut EvalJob, scratch: &mut EvalScratch) {
        match (self.mode, &self.trace) {
            (EvalMode::Incremental, Some(trace)) if job.dirty.covers(job.lists.len()) => {
                let costs = self.replay_lists(&trace.dedup, &job.lists, scratch);
                job.dbc_costs.clear();
                job.dbc_costs.extend_from_slice(costs);
            }
            (EvalMode::Incremental, _) => {
                let mut inherited = 0u64;
                for d in 0..job.lists.len() {
                    if job.dirty.is_dirty(d) {
                        job.dbc_costs[d] = self.dbc_cost_with(&job.lists[d], scratch);
                    } else {
                        inherited += 1;
                    }
                }
                self.dbc_inherited.fetch_add(inherited, Ordering::Relaxed);
            }
            (EvalMode::Naive, _) => job.dbc_costs = self.naive_per_dbc_costs(&job.lists),
        }
    }

    /// Total cost of one candidate with no inherited state (the random
    /// walk's workload): a linear replay on an engine built from a
    /// sequence, one merge per DBC without the memo on a streaming one.
    pub fn total_cost_with(&self, lists: &[Vec<VarId>], scratch: &mut EvalScratch) -> u64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let total = match (self.mode, &self.trace) {
            (EvalMode::Incremental, Some(trace)) => {
                self.replay_lists(&trace.dedup, lists, scratch).iter().sum()
            }
            // A streaming engine has no dedup copy to replay; per-DBC
            // separability makes the sum of per-DBC merges the same total
            // (and the same recomputation count).
            (EvalMode::Incremental, None) => lists
                .iter()
                .map(|l| self.dbc_cost_uncached(l, scratch))
                .sum(),
            (EvalMode::Naive, _) => self.naive_per_dbc_costs(lists).into_iter().sum(),
        };
        self.add_eval_time(start);
        total
    }

    fn add_eval_time(&self, start: Instant) {
        self.eval_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
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
        // Single-DBC costing goes through the memo (whole placements are
        // replayed and never touch it).
        let costs = || -> Vec<u64> { lists.iter().map(|l| engine.dbc_cost(l)).collect() };
        let want = costs();
        for _ in 0..2 {
            poison(&engine.memo);
            // Costs are pure functions of the lists: recovery rebuilds the
            // memo and every result is bit-identical.
            assert_eq!(costs(), want);
            assert_eq!(costs(), want);
        }
        // The rebuilt memo answers again once a list recurs.
        let hits = engine.stats().dbc_cache_hits;
        assert_eq!(costs(), want);
        assert!(engine.stats().dbc_cache_hits > hits);
        // Recovery is lazy: the memo clears its poison on its next
        // acquisition.
        poison(&engine.memo);
        assert!(engine.memo.is_poisoned());
        drop(lock_cache(&engine.memo));
        assert!(!engine.memo.is_poisoned());
    }

    #[test]
    fn dirty_batch_lists_are_memoized_across_batches() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let base = paper_placement(&seq);
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let want = FitnessEngine::new(&seq, CostModel::single_port()).per_dbc_costs(&base);
        // Fully dirty jobs are replayed whole and never reach the memo.
        let mut fresh: Vec<EvalJob> = (0..4).map(|_| EvalJob::fresh(base.clone())).collect();
        engine.evaluate_batch(&mut fresh);
        assert!(fresh.iter().all(|job| job.dbc_costs == want));
        assert_eq!(engine.stats().dbc_cache_hits, 0);
        // DBC 1's list is dirty once in each of three batches: the first
        // sighting arms its filter slot, the second records it, and the
        // third is answered from the memo.
        let mut hits = Vec::new();
        for _ in 0..3 {
            let mut job = EvalJob::derived(base.clone(), vec![want[0], 0]);
            job.dirty.mark(1);
            engine.evaluate_batch(std::slice::from_mut(&mut job));
            assert_eq!(job.dbc_costs, want);
            hits.push(engine.stats().dbc_cache_hits);
        }
        assert_eq!(hits, [0, 0, 1]);
        // A later direct costing is served from the memo too.
        assert_eq!(engine.dbc_cost(&base[1]), want[1]);
        let stats = engine.stats();
        assert_eq!((stats.dbc_recomputations, stats.dbc_cache_hits), (10, 2));
        assert_eq!(stats.memo_merged, 0);
    }

    #[test]
    fn memo_cache_hits_on_repeats() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        for _ in 0..3 {
            for list in &lists {
                engine.dbc_cost(list);
            }
        }
        let stats = engine.stats();
        // Second-touch promotion: pass 1 arms the filter, pass 2 recomputes
        // and memoizes, pass 3 is fully cached.
        assert_eq!(stats.dbc_recomputations, 4);
        assert_eq!(stats.dbc_cache_hits, 2);
        // A whole placement is replayed: every DBC recomputed, memo unread.
        engine.per_dbc_costs(&lists);
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 1);
        assert_eq!((stats.dbc_recomputations, stats.dbc_cache_hits), (6, 2));
    }

    /// The mask as it was before `mark` deduplicated: every mark pushed.
    #[derive(Default)]
    struct PushMask {
        all: bool,
        dbcs: Vec<u32>,
    }

    impl PushMask {
        fn mark(&mut self, d: usize) {
            if !self.all {
                self.dbcs.push(d as u32);
            }
        }

        fn is_dirty(&self, d: usize) -> bool {
            self.all || self.dbcs.contains(&(d as u32))
        }
    }

    #[test]
    fn dirty_mask_keeps_each_dbc_once_and_answers_as_before() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for case in 0..300 {
            let n = 1 + case % 12;
            let mut mask = DirtyMask::clean();
            let mut reference = PushMask::default();
            for _ in 0..rng.gen_range(0..40usize) {
                match rng.gen_range(0..64u32) {
                    0 => {
                        mask.mark_all();
                        reference.all = true;
                        reference.dbcs.clear();
                    }
                    1..=15 => {
                        let q = rng.gen_range(1..5usize);
                        let s = rng.gen_range(0..=n / q);
                        mask.mark_subarray(s, q);
                        for d in s * q..(s + 1) * q {
                            reference.mark(d);
                        }
                    }
                    _ => {
                        // Out-of-range marks too: `covers` must ignore them.
                        let d = rng.gen_range(0..n + 2);
                        mask.mark(d);
                        reference.mark(d);
                    }
                }
                for d in 0..n + 6 {
                    assert_eq!(
                        mask.is_dirty(d),
                        reference.is_dirty(d),
                        "case {case}, DBC {d}"
                    );
                }
                assert_eq!(mask.covers(n), (0..n).all(|d| reference.is_dirty(d)));
                let mut once = mask.dbcs.clone();
                once.sort_unstable();
                once.dedup();
                assert_eq!(once.len(), mask.dbcs.len(), "a DBC marked twice");
            }
        }
        assert!(DirtyMask::all().covers(3) && !DirtyMask::clean().covers(1));
        assert!(DirtyMask::clean().covers(0));
    }

    #[test]
    fn dirty_mask_drives_incremental_reuse() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
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
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
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

    /// Each candidate's [`FitnessEngine::total_cost_with`], through one
    /// scratch.
    fn totals(engine: &FitnessEngine, candidates: &[Vec<Vec<VarId>>]) -> Vec<u64> {
        let mut scratch = engine.scratch();
        candidates
            .iter()
            .map(|lists| engine.total_cost_with(lists, &mut scratch))
            .collect()
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
        let serial = FitnessEngine::new(&seq, CostModel::single_port()).with_threads(1);
        let want_batch = totals(&serial, &candidates);
        let want_dbc = serial.per_dbc_costs(&base);
        // Each candidate twice: fresh (replayed whole) and derived with
        // only DBC1 dirty (merged behind the memo).
        let jobs = || -> Vec<EvalJob> {
            candidates
                .iter()
                .flat_map(|c| {
                    let mut derived = EvalJob::derived(c.clone(), vec![want_dbc[0], 0]);
                    derived.dirty.mark(1);
                    [EvalJob::fresh(c.clone()), derived]
                })
                .collect()
        };
        let mut want_jobs = jobs();
        serial.evaluate_batch(&mut want_jobs);
        let want_totals: Vec<u64> = want_jobs.iter().map(EvalJob::total).collect();
        let pairs: Vec<u64> = want_batch.iter().flat_map(|&t| [t, t]).collect();
        assert_eq!(want_totals, pairs);
        for threads in [1usize, 4] {
            let engine = FitnessEngine::new(&seq, CostModel::single_port()).with_threads(threads);
            assert_eq!(totals(&engine, &candidates), want_batch);
            let mut got_jobs = jobs();
            engine.evaluate_batch(&mut got_jobs);
            let got: Vec<u64> = got_jobs.iter().map(EvalJob::total).collect();
            assert_eq!(got, want_totals);
            // Repeat, through the replay and through the memo-hit path.
            for _ in 0..3 {
                assert_eq!(engine.per_dbc_costs(&base), want_dbc);
                let merged: Vec<u64> = base.iter().map(|l| engine.dbc_cost(l)).collect();
                assert_eq!(merged, want_dbc);
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
    fn a_reused_replay_scratch_forgets_the_last_placement() {
        // Every candidate is replayed through one scratch, so a variable
        // placed by one candidate and left out of the next must lose its
        // DBC and offset in between.
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let full = paper_placement(&seq);
        let partial: Vec<Vec<VarId>> = full.iter().map(|l| l[..l.len() / 2].to_vec()).collect();
        for cost in [CostModel::single_port(), CostModel::multi_port(2, 8)] {
            let want = |lists: &[Vec<VarId>]| {
                cost.per_dbc_costs(&Placement::from_dbc_lists(lists.to_vec()), seq.accesses())
            };
            let engine = FitnessEngine::new(&seq, cost);
            let round = [full.clone(), partial.clone(), full.clone(), partial.clone()];
            let want_totals: Vec<u64> = round.iter().map(|l| want(l).iter().sum()).collect();
            assert_eq!(totals(&engine, &round), want_totals);
            let mut scratch = engine.scratch();
            for lists in &round {
                assert_eq!(engine.per_dbc_costs_with(lists, &mut scratch), want(lists));
            }
        }
    }

    #[test]
    fn streaming_engine_matches_materialized() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let placement = Placement::from_dbc_lists(lists.clone());
        for cost in [CostModel::single_port(), CostModel::multi_port(2, 8)] {
            let materialized = FitnessEngine::new(&seq, cost);
            // The index-free reference: a replay of the raw accesses.
            let want = cost.per_dbc_costs(&placement, seq.accesses());
            // Arbitrary chunking must be invisible to the costs.
            for chunk in [1usize, 3, 7, 100] {
                let chunked = rtm_trace::ChunkedSequence::new(&seq, chunk);
                let streaming = FitnessEngine::streaming(&chunked, cost);
                assert_eq!(streaming.per_dbc_costs(&lists), want, "chunk {chunk}");
                assert_eq!(
                    streaming.per_dbc_costs(&lists),
                    materialized.per_dbc_costs(&lists),
                    "chunk {chunk}"
                );
                assert_eq!(
                    totals(&streaming, std::slice::from_ref(&lists)),
                    totals(&materialized, std::slice::from_ref(&lists)),
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
    fn streaming_engines_memoize_recurring_lists() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let lists = paper_placement(&seq);
        let engine = FitnessEngine::streaming(&seq, CostModel::single_port());
        engine.per_dbc_costs(&lists);
        engine.per_dbc_costs(&lists);
        engine.per_dbc_costs(&lists);
        let stats = engine.stats();
        // Same second-touch promotion discipline as the materialized memo.
        assert_eq!(stats.evaluations, 3);
        assert_eq!(stats.dbc_recomputations, 4);
        assert_eq!(stats.dbc_cache_hits, 2);
    }

    /// A trace of more than three merge windows: members that straddle
    /// window edges and skip a whole window, next to dense members that
    /// visit every window, and a DBC of sparse members only, whose merge
    /// jumps over the window none of them touches. Sequence-built and
    /// streaming engines must both equal a replay of the raw accesses on
    /// every evaluation path.
    #[test]
    fn merges_across_window_edges_match_the_cost_model() {
        const W: usize = WINDOW;
        let len = 3 * W + 1000;
        // Both sparse variables straddle the edges at W and 2W (or 3W) and
        // have no access in [2W, 3W).
        let s_at = [5, W - 3, W + 2, 3 * W + 100];
        let t_at = [W - 1, W + 1, 2 * W - 1, len - 1];
        let mut b = rtm_trace::SequenceBuilder::new();
        let dense: Vec<VarId> = (0..6).map(|i| b.var(&format!("d{i}"))).collect();
        let (s, t) = (b.var("s"), b.var("t"));
        for i in 0..len {
            let v = if s_at.contains(&i) {
                s
            } else if t_at.contains(&i) {
                t
            } else {
                // Never the same variable twice in a row: nothing dedups.
                dense[(i + i / 1000) % 6]
            };
            b.access(v, rtm_trace::AccessKind::Read);
        }
        let seq = b.finish();
        let d = |i: usize| dense[i];
        let placements = [
            vec![vec![s, d(0), t], vec![d(1), d(2)], vec![d(3), d(4), d(5)]],
            vec![vec![t, s], dense.clone()],
        ];
        let chunked = rtm_trace::ChunkedSequence::new(&seq, 4096);
        for cost in [CostModel::single_port(), CostModel::multi_port(2, 8)] {
            let engines = [
                FitnessEngine::new(&seq, cost),
                FitnessEngine::streaming(&chunked, cost),
            ];
            assert!(engines[1].index.access_count() > 2 * W);
            for lists in &placements {
                let placement = Placement::from_dbc_lists(lists.clone());
                let want = cost.per_dbc_costs(&placement, seq.accesses());
                for engine in &engines {
                    assert_eq!(engine.per_dbc_costs(lists), want);
                    let merged: Vec<u64> = lists.iter().map(|l| engine.dbc_cost(l)).collect();
                    assert_eq!(merged, want);
                    let mut job = EvalJob::fresh(lists.clone());
                    engine.evaluate_batch(std::slice::from_mut(&mut job));
                    assert_eq!(job.dbc_costs, want);
                    // Only DBC 0 dirty: merged, not replayed.
                    let mut job = EvalJob::derived(lists.clone(), want.clone());
                    job.dbc_costs[0] = 0;
                    job.dirty.mark(0);
                    engine.evaluate_batch(std::slice::from_mut(&mut job));
                    assert_eq!(job.dbc_costs, want);
                    let total: u64 = want.iter().sum();
                    assert_eq!(totals(engine, std::slice::from_ref(lists)), [total]);
                }
            }
        }
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
