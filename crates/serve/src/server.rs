//! The daemon: a TCP accept loop over the line protocol, one thread per
//! connection, all solves on one shared [`WorkerPool`] through the
//! [`SessionCache`].
//!
//! Fault containment is per-line: a malformed request, an unparseable
//! trace, or an unsolvable query gets a single `error: …` response on its
//! own connection and nothing else — the connection stays open, other
//! connections never notice, and the daemon keeps serving (pinned by the
//! integration tests). Admission control bounds concurrent solves: beyond
//! `max_inflight` in-flight `place` requests, new ones are rejected
//! immediately with `error: overloaded …` instead of queueing into
//! deadline misses.

use crate::cache::{GeometryKey, SessionCache};
use crate::fingerprint::Fingerprint;
use crate::protocol::{parse_request, PlaceRequest, Request, RequestError};
use crate::report::{solution_fields, Geometry};
use rtm_placement::WorkerPool;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration. `Default` is what `rtm serve` starts with.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Global worker-pool size (`0` = auto-detect).
    pub threads: usize,
    /// Maximum concurrent `place` requests before admission control
    /// rejects with `error: overloaded`.
    pub max_inflight: usize,
    /// Trace-entry bound of the cross-request cache (LRU beyond it).
    pub max_cached_traces: usize,
    /// Wall-clock deadline applied to every search-strategy request that
    /// doesn't carry its own `deadline-ms`.
    pub default_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            max_inflight: 32,
            max_cached_traces: 64,
            default_deadline_ms: 10_000,
        }
    }
}

/// Monotonic request counters, reported by `stats`.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
}

/// A bound, not-yet-running daemon. [`run`](Server::run) serves on the
/// calling thread; [`spawn`](Server::spawn) serves on a background thread
/// and returns a [`ServerHandle`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    cache: Arc<SessionCache>,
    shutdown: Arc<AtomicBool>,
    inflight: Arc<AtomicUsize>,
    counters: Arc<Counters>,
}

/// Decrements the in-flight gauge even on the error paths out of a
/// `place` handler.
struct InflightGuard(Arc<AtomicUsize>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Server {
    /// Binds the listener and builds the shared cache + pool.
    ///
    /// # Errors
    ///
    /// I/O errors from binding `config.addr`.
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let pool = Arc::new(WorkerPool::new(config.threads));
        let cache = Arc::new(SessionCache::new(pool, config.max_cached_traces));
        Ok(Self {
            listener,
            config,
            cache,
            shutdown: Arc::new(AtomicBool::new(false)),
            inflight: Arc::new(AtomicUsize::new(0)),
            counters: Arc::new(Counters::default()),
        })
    }

    /// The actually-bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// I/O errors from the socket.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The cross-request cache (shared with every connection thread).
    pub fn cache(&self) -> Arc<SessionCache> {
        Arc::clone(&self.cache)
    }

    /// Serves until a `shutdown` request arrives. Each connection gets its
    /// own thread; panics and errors in one connection never reach
    /// another.
    pub fn run(self) {
        let mut workers = Vec::new();
        while !self.shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let conn = Connection {
                        cache: Arc::clone(&self.cache),
                        config: self.config.clone(),
                        shutdown: Arc::clone(&self.shutdown),
                        inflight: Arc::clone(&self.inflight),
                        counters: Arc::clone(&self.counters),
                    };
                    workers.push(std::thread::spawn(move || conn.serve(stream)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            let _ = w.join();
        }
    }

    /// Runs the daemon on a background thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let cache = Arc::clone(&self.cache);
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            cache,
            thread: Some(thread),
        })
    }
}

/// A handle to a daemon running on a background thread (tests and the
/// load generator).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    cache: Arc<SessionCache>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's cross-request cache (fault injection and assertions).
    pub fn cache(&self) -> Arc<SessionCache> {
        Arc::clone(&self.cache)
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-connection state: shared server internals plus the socket loop.
struct Connection {
    cache: Arc<SessionCache>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    inflight: Arc<AtomicUsize>,
    counters: Arc<Counters>,
}

impl Connection {
    fn serve(&self, stream: TcpStream) {
        if stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
        {
            return;
        }
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let (response, stop) = self.handle_line(line.trim_end_matches(['\r', '\n']));
                    if writer
                        .write_all(response.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .and_then(|()| writer.flush())
                        .is_err()
                        || stop
                    {
                        break;
                    }
                    line.clear();
                }
                // Idle poll: keep any partial line and re-check shutdown.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }

    /// One request line → one response line. Never panics the connection:
    /// every failure becomes an `error: …` response.
    fn handle_line(&self, line: &str) -> (String, bool) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        match parse_request(line) {
            Ok(Request::Ping) => {
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                ("{\"ok\":true,\"pong\":true}".to_string(), false)
            }
            Ok(Request::Stats) => {
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                (self.stats_json(), false)
            }
            Ok(Request::Shutdown) => {
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                self.shutdown.store(true, Ordering::Release);
                ("{\"ok\":true,\"shutdown\":true}".to_string(), true)
            }
            Ok(Request::Place(req)) => match self.handle_place(&req) {
                Ok(json) => {
                    self.counters.ok.fetch_add(1, Ordering::Relaxed);
                    (json, false)
                }
                Err(e) => {
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    (format!("error: {e}"), false)
                }
            },
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                (format!("error: {e}"), false)
            }
        }
    }

    fn handle_place(&self, req: &PlaceRequest) -> Result<String, RequestError> {
        // Admission control: reject instead of queueing once the solve
        // concurrency bound is reached.
        let admitted = self
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.config.max_inflight).then_some(n + 1)
            });
        if admitted.is_err() {
            self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(RequestError::Malformed(format!(
                "overloaded: {} requests in flight (limit {}); retry later",
                self.inflight.load(Ordering::Acquire),
                self.config.max_inflight
            )));
        }
        let _guard = InflightGuard(Arc::clone(&self.inflight));

        let strategy = req.resolve_strategy(self.config.default_deadline_ms)?;
        let text = req.canonical_text();
        let (entry, trace_hit) = self.cache.get_or_parse(&text, || req.materialize())?;
        let seq = entry.seq();
        let geom = req.geometry(&seq)?;
        let (session, session_hit) = self.cache.session(&entry, geom);
        let deadline_ms = req
            .budget(self.config.default_deadline_ms)
            .deadline()
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        let started = Instant::now();
        let solution = session.solve(&strategy)?;
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(self.place_json(
            entry.fingerprint(),
            geom,
            trace_hit,
            session_hit,
            &strategy,
            &seq,
            &solution,
            session.solves(),
            deadline_ms,
            elapsed_ms,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn place_json(
        &self,
        fingerprint: Fingerprint,
        geom: GeometryKey,
        trace_hit: bool,
        session_hit: bool,
        strategy: &rtm_placement::Strategy,
        seq: &rtm_trace::AccessSequence,
        solution: &rtm_placement::Solution,
        session_solves: u64,
        deadline_ms: u64,
        elapsed_ms: f64,
    ) -> String {
        let fields = solution_fields(
            strategy,
            &Geometry::flat(geom.dbcs, geom.capacity, geom.ports),
            seq,
            solution,
        );
        let hit = |b: bool| if b { "hit" } else { "miss" };
        format!(
            "{{\"ok\":true,\"served\":{{\"trace_cache\":\"{}\",\
             \"session_cache\":\"{}\",\"fingerprint\":\"{}\",\
             \"session_solves\":{},\"deadline_ms\":{},\
             \"elapsed_ms\":{:.3},\"inflight\":{}}},{}}}",
            hit(trace_hit),
            hit(session_hit),
            fingerprint,
            session_solves,
            deadline_ms,
            elapsed_ms,
            self.inflight.load(Ordering::Acquire),
            fields
        )
    }

    fn stats_json(&self) -> String {
        let c = self.cache.stats();
        format!(
            "{{\"ok\":true,\"stats\":{{\"requests\":{},\"responses_ok\":{},\
             \"responses_error\":{},\"overloaded\":{},\"inflight\":{},\
             \"max_inflight\":{},\"cache\":{{\"trace_hits\":{},\"trace_misses\":{},\
             \"session_hits\":{},\"session_misses\":{},\"evictions\":{},\
             \"collisions_rejected\":{},\"cached_traces\":{},\"cached_sessions\":{}}}}}}}",
            self.counters.requests.load(Ordering::Relaxed),
            self.counters.ok.load(Ordering::Relaxed),
            self.counters.errors.load(Ordering::Relaxed),
            self.counters.overloaded.load(Ordering::Relaxed),
            self.inflight.load(Ordering::Acquire),
            self.config.max_inflight,
            c.trace_hits,
            c.trace_misses,
            c.session_hits,
            c.session_misses,
            c.evictions,
            c.collisions_rejected,
            c.cached_traces,
            c.cached_sessions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn start() -> (ServerHandle, TcpStream) {
        let server = Server::bind(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.spawn().unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        (handle, stream)
    }

    fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    }

    #[test]
    fn ping_stats_and_shutdown_respond_with_valid_json() {
        let (handle, mut stream) = start();
        let pong = roundtrip(&mut stream, "ping");
        json::validate(&pong).unwrap();
        assert_eq!(json::find_bool(&pong, "pong"), Some(true));
        let stats = roundtrip(&mut stream, "stats");
        json::validate(&stats).unwrap();
        // The stats request counts itself: ping + stats.
        assert_eq!(json::find_u64(&stats, "requests"), Some(2));
        let bye = roundtrip(&mut stream, "shutdown");
        assert_eq!(json::find_bool(&bye, "shutdown"), Some(true));
        handle.shutdown();
    }

    #[test]
    fn place_twice_reuses_the_warm_session() {
        let (handle, mut stream) = start();
        let q = "place strategy=dma-sr dbcs=2 :: a b a b c a c a";
        let cold = roundtrip(&mut stream, q);
        let warm = roundtrip(&mut stream, q);
        json::validate(&cold).unwrap();
        json::validate(&warm).unwrap();
        assert_eq!(json::find_str(&cold, "session_cache"), Some("miss"));
        assert_eq!(json::find_str(&warm, "session_cache"), Some("hit"));
        assert_eq!(json::find_u64(&cold, "session_solves"), Some(1));
        assert_eq!(json::find_u64(&warm, "session_solves"), Some(2));
        // Both envelopes carry the fingerprint of the canonical text.
        let Ok(crate::protocol::Request::Place(req)) = crate::protocol::parse_request(q) else {
            panic!("not a place request: {q}")
        };
        let fp = Fingerprint::of_text(&req.canonical_text()).to_string();
        assert_eq!(json::find_str(&cold, "fingerprint"), Some(fp.as_str()));
        assert_eq!(json::find_str(&warm, "fingerprint"), Some(fp.as_str()));
        // The deterministic payload is bit-identical across warm and cold.
        assert_eq!(
            crate::report::deterministic_slice(&cold).unwrap(),
            crate::report::deterministic_slice(&warm).unwrap()
        );
        handle.shutdown();
    }

    #[test]
    fn bad_requests_get_one_error_line_and_the_daemon_survives() {
        let (handle, mut stream) = start();
        // Trace error with the position of the bad token (line 2 via \n).
        let resp = roundtrip(&mut stream, "place dbcs=2 :: a b\\na :q b");
        assert!(resp.starts_with("error: "), "{resp}");
        assert!(resp.contains("line 2"), "{resp}");
        assert!(resp.contains("column 3"), "{resp}");
        // Unknown command, same connection, still alive.
        let resp = roundtrip(&mut stream, "frobnicate");
        assert!(resp.starts_with("error: "), "{resp}");
        // And a good request still works afterwards.
        let ok = roundtrip(&mut stream, "place dbcs=2 :: a b a b");
        assert_eq!(json::find_bool(&ok, "ok"), Some(true));
        handle.shutdown();
    }

    #[test]
    fn admission_control_rejects_beyond_max_inflight() {
        // max_inflight = 0 makes every place an overload rejection while
        // ping/stats still pass — the bound gates solves, not the socket.
        let server = Server::bind(ServeConfig {
            threads: 1,
            max_inflight: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.spawn().unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let resp = roundtrip(&mut stream, "place dbcs=2 :: a b a b");
        assert!(resp.starts_with("error: overloaded"), "{resp}");
        let pong = roundtrip(&mut stream, "ping");
        assert_eq!(json::find_bool(&pong, "pong"), Some(true));
        let stats = roundtrip(&mut stream, "stats");
        assert_eq!(json::find_u64(&stats, "overloaded"), Some(1));
        handle.shutdown();
    }
}
