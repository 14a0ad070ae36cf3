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
//! deadline misses. A request line never grows past
//! [`MAX_REQUEST_BYTES`]: a longer one gets `error: request too large …`
//! and its connection is closed.

use crate::cache::SessionCache;
use crate::json::{Fixed, Writer};
use crate::protocol::{parse_request, PlaceRequest, Request, RequestError, MAX_REQUEST_BYTES};
use crate::report::{write_solution, Geometry};
use rtm_placement::WorkerPool;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
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
    /// Failed `accept` calls (fd exhaustion, aborted handshakes, …).
    accept_errors: AtomicU64,
}

/// How a daemon is told to stop: a flag every loop checks, and the address
/// whose connection wakes the accept loop out of its blocking `accept` to
/// check it.
#[derive(Debug)]
struct Stop {
    requested: AtomicBool,
    wake: SocketAddr,
}

impl Stop {
    /// A stop signal for a listener bound to `addr`; an unspecified bind
    /// address is woken through loopback.
    fn new(addr: SocketAddr) -> Self {
        let mut wake = addr;
        match wake.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        Self {
            requested: AtomicBool::new(false),
            wake,
        }
    }

    /// Raises the flag and wakes the accept loop. A failed connect means
    /// the loop has already exited, or is cycling through accept errors
    /// and sees the flag within one back-off.
    fn request(&self) {
        self.requested.store(true, Ordering::Release);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    fn requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }
}

/// A bound, not-yet-running daemon. [`run`](Server::run) serves on the
/// calling thread; [`spawn`](Server::spawn) serves on a background thread
/// and returns a [`ServerHandle`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    cache: Arc<SessionCache>,
    stop: Arc<Stop>,
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
        let stop = Arc::new(Stop::new(listener.local_addr()?));
        let pool = Arc::new(WorkerPool::new(config.threads));
        let cache = Arc::new(SessionCache::new(pool, config.max_cached_traces));
        Ok(Self {
            listener,
            config,
            cache,
            stop,
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
    /// another. The loop blocks in `accept` until a client connects or a
    /// stop request wakes it. A failed `accept` — `EMFILE` when the
    /// descriptor limit is reached, `ECONNABORTED`, … — is counted and
    /// retried after a 5 ms back-off, so it can neither spin nor end the
    /// daemon.
    pub fn run(self) {
        let mut workers = Vec::new();
        loop {
            let accepted = self.listener.accept();
            if self.stop.requested() {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let conn = Connection {
                        cache: Arc::clone(&self.cache),
                        config: self.config.clone(),
                        stop: Arc::clone(&self.stop),
                        inflight: Arc::clone(&self.inflight),
                        counters: Arc::clone(&self.counters),
                    };
                    workers.push(std::thread::spawn(move || conn.serve(stream)));
                }
                Err(_) => {
                    self.counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
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
        let stop = Arc::clone(&self.stop);
        let cache = Arc::clone(&self.cache);
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            stop,
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
    stop: Arc<Stop>,
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
        if let Some(t) = self.thread.take() {
            self.stop.request();
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
    stop: Arc<Stop>,
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
        // Raw bytes up to `\n`, decoded once per complete line: a read
        // timeout that splits a multi-byte character keeps both halves,
        // and invalid UTF-8 is one bad request, not a dead connection.
        let mut line = Vec::new();
        loop {
            // One byte past the limit tells an oversized line from one
            // that just fits.
            let room = (MAX_REQUEST_BYTES + 1).saturating_sub(line.len()) as u64;
            match reader.by_ref().take(room).read_until(b'\n', &mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let (response, stop) = self.handle_line(&line);
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
                    if self.stop.requested() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }

    /// One request line → one response line. Never panics the connection:
    /// every failure, invalid UTF-8 included, becomes an `error: …`
    /// response; only a line cut off at the size limit also closes it.
    fn handle_line(&self, line: &[u8]) -> (String, bool) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        if line.len() > MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            let limit = MAX_REQUEST_BYTES;
            return (
                format!("error: request too large (limit {limit} bytes)"),
                true,
            );
        }
        let request = std::str::from_utf8(line)
            .map_err(|e| {
                RequestError::Malformed(format!(
                    "request is not valid UTF-8 (at byte {})",
                    e.valid_up_to()
                ))
            })
            .and_then(|text| parse_request(text.trim_end_matches(['\r', '\n'])));
        match request {
            Ok(Request::Ping) => {
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                (ack("pong"), false)
            }
            Ok(Request::Stats) => {
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                (self.stats_json(), false)
            }
            Ok(Request::Shutdown) => {
                self.counters.ok.fetch_add(1, Ordering::Relaxed);
                self.stop.request();
                (ack("shutdown"), true)
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
        let hit = |b: bool| if b { "hit" } else { "miss" };
        let mut w = Writer::compact();
        w.object()
            .field("ok", true)
            .key("served")
            .object()
            .field("trace_cache", hit(trace_hit))
            .field("session_cache", hit(session_hit))
            .field("fingerprint", entry.fingerprint().to_string().as_str())
            .field("session_solves", session.solves())
            .field("deadline_ms", deadline_ms)
            .field("elapsed_ms", Fixed(elapsed_ms, 3))
            .field("inflight", self.inflight.load(Ordering::Acquire))
            .end();
        let geometry = Geometry::flat(geom.dbcs, geom.capacity, geom.ports);
        write_solution(&mut w, &strategy, &geometry, &seq, &solution);
        w.end();
        Ok(w.finish())
    }

    fn stats_json(&self) -> String {
        let count = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let c = self.cache.stats();
        let mut w = Writer::compact();
        w.object()
            .field("ok", true)
            .key("stats")
            .object()
            .field("requests", count(&self.counters.requests))
            .field("responses_ok", count(&self.counters.ok))
            .field("responses_error", count(&self.counters.errors))
            .field("overloaded", count(&self.counters.overloaded))
            .field("accept_errors", count(&self.counters.accept_errors))
            .field("inflight", self.inflight.load(Ordering::Acquire))
            .field("max_inflight", self.config.max_inflight)
            .key("cache")
            .object()
            .field("trace_hits", c.trace_hits)
            .field("trace_misses", c.trace_misses)
            .field("session_hits", c.session_hits)
            .field("session_misses", c.session_misses)
            .field("evictions", c.evictions)
            .field("collisions_rejected", c.collisions_rejected)
            .field("cached_traces", c.cached_traces)
            .field("cached_sessions", c.cached_sessions)
            .end()
            .end()
            .end();
        w.finish()
    }
}

/// `{"ok":true,"<key>":true}`: the `ping` and `shutdown` replies.
fn ack(key: &str) -> String {
    let mut w = Writer::compact();
    w.object().field("ok", true).field(key, true).end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
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
        reply(stream)
    }

    /// Reads one response line (empty when the daemon closed the socket).
    fn reply(stream: &TcpStream) -> String {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    }

    #[test]
    fn stop_wakes_an_unspecified_bind_address_through_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:7", "127.0.0.1:7"),
            ("[::]:7", "[::1]:7"),
            ("10.1.2.3:7", "10.1.2.3:7"),
        ] {
            let wake: SocketAddr = wake.parse().unwrap();
            assert_eq!(Stop::new(bound.parse().unwrap()).wake, wake, "{bound}");
        }
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
        assert_eq!(json::find_u64(&stats, "accept_errors"), Some(0));
        let bye = roundtrip(&mut stream, "shutdown");
        assert_eq!(json::find_bool(&bye, "shutdown"), Some(true));
        handle.shutdown();
    }

    /// `reply` with the digits of every `elapsed_ms` and `time_to_best_ms`
    /// masked (`12.345` → `#.###`): the only bytes that differ between runs.
    fn mask_times(reply: &str) -> String {
        let mut out = String::with_capacity(reply.len());
        let mut rest = reply;
        while let Some(at) = ["\"elapsed_ms\":", "\"time_to_best_ms\":"]
            .iter()
            .filter_map(|k| rest.find(k).map(|i| i + k.len()))
            .min()
        {
            out.push_str(&rest[..at]);
            rest = &rest[at..];
            let int = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(0);
            out.push('#');
            rest = &rest[int..];
            if let Some(frac) = rest.strip_prefix('.') {
                let n = frac.find(|c: char| !c.is_ascii_digit()).unwrap_or(0);
                out.push('.');
                out.push_str(&"#".repeat(n));
                rest = &frac[n..];
            }
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn replies_are_pinned_byte_for_byte() {
        let (handle, mut stream) = start();
        assert_eq!(
            roundtrip(&mut stream, "stats"),
            "{\"ok\":true,\"stats\":{\"requests\":1,\"responses_ok\":1,\"responses_error\":0,\
             \"overloaded\":0,\"accept_errors\":0,\"inflight\":0,\"max_inflight\":32,\
             \"cache\":{\"trace_hits\":0,\"trace_misses\":0,\"session_hits\":0,\
             \"session_misses\":0,\"evictions\":0,\"collisions_rejected\":0,\
             \"cached_traces\":0,\"cached_sessions\":0}}}"
        );
        assert_eq!(
            roundtrip(&mut stream, "ping"),
            "{\"ok\":true,\"pong\":true}"
        );
        let place = roundtrip(
            &mut stream,
            "place strategy=dma-sr dbcs=2 :: a b a b c a c a d d a i e f e f g e g h g i h i",
        );
        assert_eq!(
            mask_times(&place),
            "{\"ok\":true,\"served\":{\"trace_cache\":\"miss\",\"session_cache\":\"miss\",\
             \"fingerprint\":\"47-24-823c3822f500a8e812916b991e2d7526c1c1001782bf761119f0582409efd2fd\",\
             \"session_solves\":1,\"deadline_ms\":10000,\"elapsed_ms\":#.###,\"inflight\":1},\
             \"strategy\":\"DMA-SR\",\"geometry\":{\"subarrays\":1,\"dbcs_per_subarray\":2,\
             \"locations_per_dbc\":512,\"ports_per_track\":1,\"total_dbcs\":2},\
             \"total_shifts\":9,\"per_subarray_shifts\":[9],\"dbcs\":[\
             {\"subarray\":0,\"dbc\":0,\"shifts\":4,\"vars\":[\"b\",\"c\",\"d\",\"e\",\"h\"]},\
             {\"subarray\":0,\"dbc\":1,\"shifts\":5,\"vars\":[\"f\",\"g\",\"i\",\"a\"]}],\
             \"search\":{\"evals_consumed\":0,\"time_to_best_ms\":#.###,\"elapsed_ms\":#.###,\
             \"stop\":\"finished\",\"cache\":{\"dbc_recomputations\":0,\"dbc_cache_hits\":0,\
             \"subseq_cache_hits\":0,\"dbc_inherited\":0,\"memo_merged\":0,\
             \"memo_contended\":0,\"subseq_contended\":0}}}"
        );
        assert_eq!(
            roundtrip(&mut stream, "shutdown"),
            "{\"ok\":true,\"shutdown\":true}"
        );
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
        // Invalid UTF-8 is one bad request, and the connection stays open.
        stream.write_all(b"place dbcs=2 :: a \xff b a\n").unwrap();
        let resp = reply(&stream);
        assert!(resp.starts_with("error: "), "{resp}");
        assert!(resp.contains("UTF-8"), "{resp}");
        let pong = roundtrip(&mut stream, "ping");
        assert_eq!(json::find_bool(&pong, "pong"), Some(true), "{pong}");
        // A valid line whose `é` is split by a pause longer than the read
        // timeout is reassembled and served, not dropped.
        let split = "place dbcs=2 :: a é a b\n".as_bytes();
        let cut = split.iter().position(|&b| b >= 0x80).unwrap() + 1;
        stream.write_all(&split[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(&split[cut..]).unwrap();
        let ok = reply(&stream);
        assert_eq!(json::find_bool(&ok, "ok"), Some(true), "{ok}");
        // And a good request still works afterwards.
        let ok = roundtrip(&mut stream, "place dbcs=2 :: a b a b");
        assert_eq!(json::find_bool(&ok, "ok"), Some(true));
        handle.shutdown();
    }

    #[test]
    fn an_oversized_line_gets_one_error_and_closes_only_its_connection() {
        let (handle, mut stream) = start();
        // A daemon that never answers fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let chunk = vec![b'a'; 1 << 16];
        let mut left = MAX_REQUEST_BYTES + 1;
        while left > 0 {
            let n = left.min(chunk.len());
            stream.write_all(&chunk[..n]).unwrap();
            left -= n;
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.starts_with("error: request too large"), "{resp}");
        resp.clear();
        assert_eq!(
            reader.read_line(&mut resp).unwrap(),
            0,
            "not closed: {resp}"
        );
        // Other connections never notice.
        let mut other = TcpStream::connect(handle.addr()).unwrap();
        let pong = roundtrip(&mut other, "ping");
        assert_eq!(json::find_bool(&pong, "pong"), Some(true), "{pong}");
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
