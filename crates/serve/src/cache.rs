//! The cross-request cache: canonical query text → parsed trace → warm
//! [`Session`] per requested geometry.
//!
//! Two levels, both keyed structurally:
//!
//! 1. **Trace level** — a [`Fingerprint`] of the canonical query text
//!    nominates candidate entries; the stored text is then compared
//!    **byte-for-byte** before an entry is served. The fingerprint is an
//!    index accelerator, never an identity: even two texts with fully
//!    colliding digests can't cross-hit (`DESIGN.md` §11), so a repeat
//!    query reuses the parsed [`AccessSequence`] and a mismatched one
//!    never can.
//! 2. **Session level** — per cached trace, one [`Session`] per requested
//!    geometry `(dbcs, capacity, ports)`. A session hit lands on a
//!    warm engine: position index built, memo populated, heuristic
//!    seeds cached. Sessions run on the server's one global
//!    [`WorkerPool`], so N concurrent warm engines can't oversubscribe
//!    the host.
//!
//! Capacity is bounded: beyond `max_traces` entries the least-recently-used
//! trace (and all its sessions) is evicted. Eviction and sharing never
//! change results — a session is a pure function of (trace, geometry), and
//! warm ≡ cold bit-identity is the engine's contract.

use crate::fingerprint::Fingerprint;
use rtm_placement::{PlacementProblem, Session, WorkerPool};
use rtm_trace::AccessSequence;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The engine-relevant geometry of a placement request. Worker count is
/// deliberately absent: every session draws from the server's global pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeometryKey {
    /// Number of DBCs `q`.
    pub dbcs: usize,
    /// Locations per DBC `N`.
    pub capacity: usize,
    /// Access ports per track.
    pub ports: usize,
}

/// One cached trace and its per-geometry warm sessions.
#[derive(Debug)]
pub struct TraceEntry {
    /// The canonical query text — the identity the fingerprint only
    /// approximates.
    text: Arc<str>,
    /// The fingerprint of `text`: the key the entry is filed under, kept
    /// so that a request fingerprints its text only once.
    fingerprint: Fingerprint,
    seq: Arc<AccessSequence>,
    sessions: Mutex<HashMap<GeometryKey, Arc<Session>>>,
    last_used: AtomicU64,
}

impl TraceEntry {
    /// The shared parsed trace.
    pub fn seq(&self) -> Arc<AccessSequence> {
        Arc::clone(&self.seq)
    }

    /// The canonical query text this entry answers for.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The fingerprint of [`text`](Self::text).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Number of warm sessions held for this trace.
    fn session_count(&self) -> usize {
        self.sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

/// Monotonic counters of the cache's behavior (snapshot via
/// [`SessionCache::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries whose canonical text was already cached.
    pub trace_hits: u64,
    /// Queries that parsed (or generated) a fresh trace.
    pub trace_misses: u64,
    /// Queries served by an existing warm session.
    pub session_hits: u64,
    /// Queries that built a fresh session for a cached or new trace.
    pub session_misses: u64,
    /// Trace entries evicted to stay within the capacity bound.
    pub evictions: u64,
    /// Fingerprint matches rejected by the byte-for-byte text comparison —
    /// a nonzero value is a *working defense*, not a failure.
    pub collisions_rejected: u64,
    /// Trace entries currently cached.
    pub cached_traces: usize,
    /// Warm sessions currently cached (across all traces).
    pub cached_sessions: usize,
}

/// The cross-request cache. See the [module docs](self).
#[derive(Debug)]
pub struct SessionCache {
    pool: Arc<WorkerPool>,
    traces: Mutex<HashMap<Fingerprint, Vec<Arc<TraceEntry>>>>,
    max_traces: usize,
    tick: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    session_hits: AtomicU64,
    session_misses: AtomicU64,
    evictions: AtomicU64,
    collisions_rejected: AtomicU64,
}

impl SessionCache {
    /// Creates a cache whose sessions all run on `pool`, holding at most
    /// `max_traces` trace entries (≥ 1).
    pub fn new(pool: Arc<WorkerPool>, max_traces: usize) -> Self {
        Self {
            pool,
            traces: Mutex::new(HashMap::new()),
            max_traces: max_traces.max(1),
            tick: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
            trace_misses: AtomicU64::new(0),
            session_hits: AtomicU64::new(0),
            session_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions_rejected: AtomicU64::new(0),
        }
    }

    /// The global worker pool every cached session runs on.
    pub fn pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.pool)
    }

    /// Looks up `text`'s entry, parsing via `parse` on a miss. Returns the
    /// entry and whether it was a hit.
    ///
    /// # Errors
    ///
    /// Propagates `parse`'s error on a miss (nothing is cached then).
    pub fn get_or_parse<E>(
        &self,
        text: &str,
        parse: impl FnOnce() -> Result<AccessSequence, E>,
    ) -> Result<(Arc<TraceEntry>, bool), E> {
        let fp = Fingerprint::of_text(text);
        if let Some(entry) = self.lookup(fp, text) {
            self.trace_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((entry, true));
        }
        // Parse outside the lock: traces can be large, and a slow parse
        // must not stall unrelated queries.
        let seq = Arc::new(parse()?);
        self.trace_misses.fetch_add(1, Ordering::Relaxed);
        Ok((self.insert(fp, text, seq), false))
    }

    /// A fingerprint-nominated, text-verified lookup. The text comparison
    /// is the identity check: an entry whose fingerprint matches but whose
    /// text differs is counted and skipped, never served.
    fn lookup(&self, fp: Fingerprint, text: &str) -> Option<Arc<TraceEntry>> {
        let map = self
            .traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = map.get(&fp)?;
        let mut collisions = 0u64;
        let mut found = None;
        for entry in bucket {
            if &*entry.text == text {
                entry
                    .last_used
                    .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                found = Some(Arc::clone(entry));
                break;
            }
            collisions += 1;
        }
        drop(map);
        if collisions > 0 {
            self.collisions_rejected
                .fetch_add(collisions, Ordering::Relaxed);
        }
        found
    }

    /// Inserts (or, if another thread won the race, returns the winner's)
    /// entry for `text`, evicting the least-recently-used trace beyond the
    /// capacity bound.
    fn insert(&self, fp: Fingerprint, text: &str, seq: Arc<AccessSequence>) -> Arc<TraceEntry> {
        let mut map = self
            .traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = map.entry(fp).or_default();
        if let Some(existing) = bucket.iter().find(|e| &*e.text == text) {
            return Arc::clone(existing);
        }
        let entry = Arc::new(TraceEntry {
            text: Arc::from(text),
            fingerprint: fp,
            seq,
            sessions: Mutex::new(HashMap::new()),
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
        });
        bucket.push(Arc::clone(&entry));
        // LRU eviction keeps the cache bounded; the freshly inserted entry
        // has the newest tick and can't evict itself.
        while map.values().map(Vec::len).sum::<usize>() > self.max_traces {
            let oldest = map
                .iter()
                .flat_map(|(k, v)| {
                    v.iter()
                        .map(move |e| (*k, Arc::clone(e), e.last_used.load(Ordering::Relaxed)))
                })
                .min_by_key(|(_, _, used)| *used);
            let Some((k, victim, _)) = oldest else { break };
            if let Some(bucket) = map.get_mut(&k) {
                bucket.retain(|e| !Arc::ptr_eq(e, &victim));
                if bucket.is_empty() {
                    map.remove(&k);
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        entry
    }

    /// The warm session for (`entry`, `key`), building it on first use.
    /// Returns the session and whether it was a hit.
    pub fn session(&self, entry: &TraceEntry, key: GeometryKey) -> (Arc<Session>, bool) {
        let mut sessions = entry
            .sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(s) = sessions.get(&key) {
            self.session_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(s), true);
        }
        let problem =
            PlacementProblem::shared(entry.seq(), key.dbcs, key.capacity).with_ports(key.ports);
        let session = Arc::new(Session::new(problem).with_worker_pool(self.pool()));
        sessions.insert(key, Arc::clone(&session));
        self.session_misses.fetch_add(1, Ordering::Relaxed);
        (session, false)
    }

    /// Snapshot of the cache counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let map = self
            .traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cached_traces = map.values().map(Vec::len).sum();
        let cached_sessions = map
            .values()
            .flatten()
            .map(|e| e.session_count())
            .sum::<usize>();
        drop(map);
        CacheStats {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            session_hits: self.session_hits.load(Ordering::Relaxed),
            session_misses: self.session_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions_rejected: self.collisions_rejected.load(Ordering::Relaxed),
            cached_traces,
            cached_sessions,
        }
    }

    /// Poisons the memo lock of every warm session's engine (fault
    /// injection — `--features faults` only). The engines recover by
    /// clear-and-rebuild on the next solve with unchanged results; the
    /// live-session fault tests pin exactly that.
    #[cfg(feature = "faults")]
    pub fn poison_all_sessions(&self) {
        let map = self
            .traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for entry in map.values().flatten() {
            let sessions = entry
                .sessions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for session in sessions.values() {
                session.poison_caches();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(max: usize) -> SessionCache {
        SessionCache::new(Arc::new(WorkerPool::new(1)), max)
    }

    fn parse_ok(text: &str) -> Result<AccessSequence, String> {
        AccessSequence::parse(text).map_err(|e| e.to_string())
    }

    const KEY: GeometryKey = GeometryKey {
        dbcs: 2,
        capacity: 64,
        ports: 1,
    };

    #[test]
    fn repeat_text_hits_and_shares_the_parse() {
        let c = cache(8);
        let (a, hit_a) = c
            .get_or_parse("a b a b c", || parse_ok("a b a b c"))
            .unwrap();
        let (b, hit_b) = c
            .get_or_parse("a b a b c", || parse_ok("a b a b c"))
            .unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a.seq(), &b.seq()), "parse was not shared");
        assert_eq!(a.fingerprint(), Fingerprint::of_text("a b a b c"));
        assert_eq!(b.fingerprint(), a.fingerprint());
        let s = c.stats();
        assert_eq!((s.trace_hits, s.trace_misses), (1, 1));
    }

    #[test]
    fn sessions_are_per_geometry_and_warm() {
        let c = cache(8);
        let (e, _) = c
            .get_or_parse("a b a b c c", || parse_ok("a b a b c c"))
            .unwrap();
        let (s1, hit1) = c.session(&e, KEY);
        let (s2, hit2) = c.session(&e, KEY);
        let (s3, hit3) = c.session(&e, GeometryKey { dbcs: 4, ..KEY });
        assert!(!hit1 && hit2 && !hit3);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert!(!Arc::ptr_eq(&s1, &s3));
        assert_eq!(c.stats().cached_sessions, 2);
    }

    /// The collision-behavior satellite: even a *fully colliding*
    /// fingerprint cannot make a mismatched trace hit, because identity is
    /// the stored text, not the digest. We force the collision directly —
    /// engineering a real 256-bit digest collision being infeasible is the
    /// point — by planting an entry under a forged fingerprint key.
    #[test]
    fn mismatched_trace_never_hits_even_under_full_fingerprint_collision() {
        let c = cache(8);
        let fp_b = Fingerprint::of_text("x y x y");
        // Plant trace A's entry in trace B's bucket: from here on, B's
        // fingerprint lookup nominates A's entry.
        let seq_a = Arc::new(parse_ok("a b a b").unwrap());
        c.insert(fp_b, "a b a b", seq_a);
        assert!(c.lookup(fp_b, "x y x y").is_none(), "collision served");
        assert_eq!(c.stats().collisions_rejected, 1);
        // And the querying path parses B fresh rather than serving A.
        let (e, hit) = c.get_or_parse("x y x y", || parse_ok("x y x y")).unwrap();
        assert!(!hit);
        assert_eq!(e.text(), "x y x y");
        assert_eq!(e.seq().accesses().len(), 4);
    }

    #[test]
    fn parse_failures_cache_nothing() {
        let c = cache(8);
        assert!(c.get_or_parse("bad :q", || parse_ok("bad :q")).is_err());
        let s = c.stats();
        assert_eq!(s.cached_traces, 0);
        assert_eq!(s.trace_misses, 0);
    }

    #[test]
    fn eviction_is_lru_and_bounded() {
        let c = cache(2);
        for text in ["a a", "b b", "a a", "c c"] {
            c.get_or_parse(text, || parse_ok(text)).unwrap();
        }
        let s = c.stats();
        assert_eq!(s.cached_traces, 2);
        assert_eq!(s.evictions, 1);
        // "b b" was least recently used; "a a" survived its re-touch.
        assert!(c.lookup(Fingerprint::of_text("a a"), "a a").is_some());
        assert!(c.lookup(Fingerprint::of_text("b b"), "b b").is_none());
    }

    #[test]
    fn racing_inserts_converge_on_one_entry() {
        let c = Arc::new(cache(8));
        let entries: Vec<_> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let c = Arc::clone(&c);
                    scope.spawn(move || {
                        let (e, _) = c.get_or_parse("r s r s", || parse_ok("r s r s")).unwrap();
                        e
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(c.stats().cached_traces, 1);
        for e in &entries[1..] {
            assert!(Arc::ptr_eq(&entries[0].seq(), &e.seq()));
        }
    }
}
