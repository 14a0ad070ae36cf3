//! `serve-hot` and `serve-cold`: an in-process `rtm-serve` daemon driven
//! over TCP by a closed-loop client, every answer checked against a cold
//! in-process reference.
//!
//! The traced run adds an in-process replay of the same request lines
//! through the public calls the connection handler makes, in its order,
//! with a span around each call.

use crate::inputs;
use crate::layers;
use crate::procfs;
use crate::report::Outcome;
use crate::spans::{self, Recorder, Span, Timed};
use crate::stats;
use rtm_placement::{EngineStats, LaneStatus, Strategy, WorkerPool};
use rtm_serve::cache::SessionCache;
use rtm_serve::fingerprint::Fingerprint;
use rtm_serve::json;
use rtm_serve::protocol::{parse_request, Request};
use rtm_serve::report::{deterministic_slice, solution_fields, Geometry};
use rtm_serve::server::{ServeConfig, Server, ServerHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `serve-cold` trace-cache bound, far below the distinct traces a run
/// sends, so every insert evicts.
const COLD_MAX_TRACES: usize = 4;
/// `serve-cold` request lines generated per untimed batch.
const COLD_BATCH: u64 = 256;
/// `serve-cold` requests whose placements make up `shifts` and the
/// simulated metrics, sent or not, so those are fixed by the seed.
const COLD_PLACEMENTS: u64 = 256;
/// Requests a timed phase sends at least, so p99 has ten samples beyond
/// it: the phase runs past `--seconds` if it must, but never past twice.
const MIN_SAMPLES: u64 = 1000;
/// Line ids from here on name `serve-cold` warm-up lines.
const WARM_UP: u64 = 1 << 63;
/// Requests of the traced run's in-process replay; every other one is
/// traced.
const HOT_REPLAY: usize = 2000;
const COLD_REPLAY: usize = 400;

/// Which request mix the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Repeated heuristic requests over a few traces: every request hits.
    Hot,
    /// A fresh trace and a budgeted search per request: every request
    /// misses and evicts.
    Cold,
}

/// One serve run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Request mix.
    pub mix: Mix,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Client connections (and replay threads).
    pub clients: usize,
    /// Daemon worker-pool size.
    pub threads: usize,
}

fn deadline_ms() -> u64 {
    ServeConfig::default().default_deadline_ms
}

fn digest(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// The request lines of a run, addressed by request number.
enum Lines {
    /// Distinct lines (newline-terminated) and the seeded replay order.
    Hot {
        wires: Vec<Vec<u8>>,
        order: Vec<usize>,
    },
    /// Line `i` is generated from the seed on demand.
    Cold { seed: u64 },
}

impl Lines {
    fn new(mix: Mix, seed: u64) -> Self {
        match mix {
            Mix::Hot => {
                let wires: Vec<Vec<u8>> = inputs::hot_lines(seed)
                    .into_iter()
                    .map(|l| (l + "\n").into_bytes())
                    .collect();
                let order =
                    inputs::permutation(inputs::derive_seed(seed, "serve-hot/order"), wires.len());
                Lines::Hot { wires, order }
            }
            Mix::Cold => Lines::Cold { seed },
        }
    }

    /// The distinct line request `request` sends.
    fn line_of(&self, request: u64) -> u64 {
        match self {
            Lines::Hot { order, .. } => order[(request % order.len() as u64) as usize] as u64,
            Lines::Cold { .. } => request,
        }
    }

    /// The text of distinct line `line`, without its newline.
    fn text(&self, line: u64) -> String {
        match self {
            Lines::Hot { wires, .. } => String::from_utf8_lossy(&wires[line as usize])
                .trim_end()
                .to_string(),
            Lines::Cold { seed } if line >= WARM_UP => {
                inputs::cold_warmup_line(*seed, line - WARM_UP)
            }
            Lines::Cold { seed } => inputs::cold_line(*seed, line),
        }
    }
}

/// A protocol client that adds no stall of its own: `TCP_NODELAY` on its
/// socket and every request line (newline included) handed to the kernel
/// in one write.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    response: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Self {
            writer: stream,
            reader,
            response: String::new(),
        })
    }

    /// Sends one newline-terminated line and reads one response line.
    fn roundtrip(&mut self, wire: &[u8]) -> Result<&str, String> {
        self.writer
            .write_all(wire)
            .map_err(|e| format!("send: {e}"))?;
        self.response.clear();
        self.reader
            .read_line(&mut self.response)
            .map_err(|e| format!("recv: {e}"))?;
        if self.response.is_empty() {
            return Err("connection closed by the daemon".into());
        }
        Ok(self.response.trim_end())
    }
}

/// What the client saw of one request.
#[derive(Debug, Clone)]
struct Sample {
    line: u64,
    rtt_ms: f64,
    served_ms: Option<f64>,
    digest: Option<u64>,
    error: Option<String>,
    lanes_failed: u64,
    request_bytes: usize,
    response_bytes: usize,
}

impl Sample {
    fn observe(line: u64, request_bytes: usize, rtt_ms: f64, resp: &str) -> Self {
        let error = resp
            .starts_with("error:")
            .then(|| resp.chars().take(200).collect());
        let lanes = resp.matches("\"status\":\"").count();
        let completed = resp.matches("\"status\":\"completed\"").count();
        Self {
            line,
            rtt_ms,
            served_ms: json::find_f64(resp, "elapsed_ms"),
            digest: deterministic_slice(resp).map(digest),
            error,
            lanes_failed: (lanes - completed) as u64,
            request_bytes,
            response_bytes: resp.len() + 1,
        }
    }
}

/// A daemon with its connected clients.
struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Daemon {
    fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// When the timed phase ends.
#[derive(Debug, Clone, Copy)]
struct Stop {
    seconds: f64,
}

impl Stop {
    /// Whether to send another request after `elapsed` s and `sent`
    /// requests, the last of which took `last` s: not when it would more
    /// likely end past `seconds` than before it, unless the phase still
    /// lacks samples.
    fn more(self, elapsed: f64, last: f64, sent: u64) -> bool {
        elapsed + last / 2.0 < self.seconds || (sent < MIN_SAMPLES && elapsed < 2.0 * self.seconds)
    }
}

/// Requests run in one timed window.
#[derive(Debug, Default)]
struct Window {
    samples: Vec<Sample>,
    seconds: f64,
    cpu_seconds: f64,
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    h.join()
        .unwrap_or_else(|_| Err("worker thread panicked".into()))
}

impl Run {
    fn serve_config(&self) -> ServeConfig {
        let defaults = ServeConfig::default();
        ServeConfig {
            threads: self.threads,
            max_cached_traces: match self.mix {
                Mix::Hot => defaults.max_cached_traces,
                Mix::Cold => COLD_MAX_TRACES,
            },
            ..defaults
        }
    }

    /// Binds and starts a daemon, connects the clients and waits until
    /// each has its `ping` answered. On `serve-hot` the clients then open
    /// every (trace, DBC count) session once, so every timed request hits
    /// the trace and session caches; on `serve-cold` each sends one
    /// request of the mix's shape over a trace the timed phase never
    /// sends, so the first timed requests do not pay first-use costs.
    fn setup(&self, lines: &Lines) -> Result<(Daemon, f64, Vec<Sample>), String> {
        let started = Instant::now();
        let server = Server::bind(self.serve_config()).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        // Connect before the accept loop starts: the kernel queues the
        // connections, so set-up time does not depend on where the loop's
        // 5 ms accept poll happens to be.
        let mut clients = (0..self.clients)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let n = self.clients;
        let warm = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || -> Result<Vec<Sample>, String> {
                        let pong = client.roundtrip(b"ping\n")?;
                        if json::find_bool(pong, "pong") != Some(true) {
                            return Err(format!("bad ping reply: {pong}"));
                        }
                        let warm: Vec<(u64, Vec<u8>)> = match lines {
                            Lines::Hot { wires, .. } => (0..wires.len())
                                .filter(|&k| inputs::opens_hot_session(k))
                                .skip(c)
                                .step_by(n)
                                .map(|k| (k as u64, wires[k].clone()))
                                .collect(),
                            Lines::Cold { .. } => {
                                let id = WARM_UP + c as u64;
                                vec![(id, (lines.text(id) + "\n").into_bytes())]
                            }
                        };
                        let mut out = Vec::new();
                        for (line, wire) in &warm {
                            let t = Instant::now();
                            let resp = client.roundtrip(wire)?;
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            out.push(Sample::observe(*line, wire.len(), ms, resp));
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles.into_iter().map(join).collect::<Result<Vec<_>, _>>()
        })?;
        let seconds = started.elapsed().as_secs_f64();
        Ok((Daemon { handle, clients }, seconds, warm.concat()))
    }

    /// Runs requests `first..first + count` closed-loop over every client
    /// until they are sent or `stop` ends the phase, which has already run
    /// `before` s and sent `first` requests.
    fn window<'w>(
        clients: &mut [Client],
        wire: &(dyn Fn(u64) -> (u64, &'w [u8]) + Sync),
        first: u64,
        count: u64,
        stop: Stop,
        before: f64,
    ) -> Result<Window, String> {
        let next = AtomicU64::new(0);
        let cpu0 = procfs::cpu_seconds()?;
        let started = Instant::now();
        let per_client = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let next = &next;
                    s.spawn(move || -> Result<Vec<Sample>, String> {
                        let mut out = Vec::new();
                        let mut last_s = 0.0;
                        loop {
                            let elapsed = before + started.elapsed().as_secs_f64();
                            let sent = first + next.load(Ordering::Relaxed).min(count);
                            if !stop.more(elapsed, last_s, sent) {
                                break;
                            }
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= count {
                                break;
                            }
                            let (line, bytes) = wire(first + k);
                            let t = Instant::now();
                            let resp = client.roundtrip(bytes)?;
                            last_s = t.elapsed().as_secs_f64();
                            out.push(Sample::observe(line, bytes.len(), last_s * 1e3, resp));
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles.into_iter().map(join).collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Window {
            samples: per_client.concat(),
            seconds: started.elapsed().as_secs_f64(),
            cpu_seconds: procfs::cpu_seconds()? - cpu0,
        })
    }

    /// The timed phase. `serve-cold` lines are generated in untimed
    /// batches between timed windows.
    fn timed(&self, daemon: &mut Daemon, lines: &Lines) -> Result<Window, String> {
        let stop = Stop {
            seconds: self.seconds,
        };
        match lines {
            Lines::Hot { wires, .. } => {
                let wire = |r: u64| {
                    let line = lines.line_of(r);
                    (line, wires[line as usize].as_slice())
                };
                Self::window(&mut daemon.clients, &wire, 0, u64::MAX, stop, 0.0)
            }
            Lines::Cold { seed } => {
                let mut total = Window::default();
                let mut first = 0u64;
                loop {
                    let last_s = total.samples.last().map_or(0.0, |s| s.rtt_ms / 1e3);
                    if !stop.more(total.seconds, last_s, first) {
                        break;
                    }
                    let batch: Vec<Vec<u8>> = (first..first + COLD_BATCH)
                        .map(|i| (inputs::cold_line(*seed, i) + "\n").into_bytes())
                        .collect();
                    let wire = |r: u64| (r, batch[(r - first) as usize].as_slice());
                    let w = Self::window(
                        &mut daemon.clients,
                        &wire,
                        first,
                        COLD_BATCH,
                        stop,
                        total.seconds,
                    )?;
                    let sent = w.samples.len() as u64;
                    total.samples.extend(w.samples);
                    total.seconds += w.seconds;
                    total.cpu_seconds += w.cpu_seconds;
                    first += sent;
                    if sent < COLD_BATCH {
                        break;
                    }
                }
                Ok(total)
            }
        }
    }
}

/// A cold in-process reference answer and its simulation.
#[derive(Debug, Clone)]
struct Reference {
    digest: u64,
    shifts: u64,
    sim_shifts: u64,
    sim_runtime_ms: f64,
    sim_energy_uj: f64,
    accesses: u64,
    sim_ns: u64,
}

fn reference(line: &str) -> Result<Reference, String> {
    let req = match parse_request(line).map_err(|e| e.to_string())? {
        Request::Place(req) => req,
        other => return Err(format!("not a place request: {other:?}")),
    };
    let (strategy, geom, seq, sol) = req
        .reference_solution(deadline_ms())
        .map_err(|e| e.to_string())?;
    let geometry = Geometry::flat(geom.dbcs, geom.capacity, geom.ports);
    let fields = solution_fields(&strategy, &geometry, &seq, &sol);
    let slice = deterministic_slice(&fields).ok_or("reference has no payload")?;
    let sim = crate::place::simulator(geom.dbcs, geom.capacity, geom.ports)?;
    let t = Instant::now();
    let st = sim.run(&seq, &sol.placement).map_err(|e| e.to_string())?;
    let sim_ns = t.elapsed().as_nanos() as u64;
    Ok(Reference {
        digest: digest(slice),
        shifts: sol.shifts,
        sim_shifts: st.shifts,
        sim_runtime_ms: st.runtime().value() * 1e-6,
        sim_energy_uj: st.energy.total().value() * 1e-6,
        accesses: st.accesses(),
        sim_ns,
    })
}

/// References for every distinct line in `ids`, solved on `threads`
/// threads.
fn references(
    lines: &Lines,
    ids: &BTreeSet<u64>,
    threads: usize,
) -> Result<BTreeMap<u64, Reference>, String> {
    let ids: Vec<u64> = ids.iter().copied().collect();
    let next = AtomicUsize::new(0);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| -> Result<Vec<(u64, Reference)>, String> {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&id) = ids.get(k) else { break };
                        let r =
                            reference(&lines.text(id)).map_err(|e| format!("line {id}: {e}"))?;
                        out.push((id, r));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(join).collect::<Result<Vec<_>, _>>()
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// Why `s` failed its check against `refs`, if it did.
fn check(s: &Sample, refs: &BTreeMap<u64, Reference>) -> Option<String> {
    if let Some(e) = &s.error {
        return Some(format!("line {}: {e}", s.line));
    }
    if s.lanes_failed > 0 {
        return Some(format!(
            "line {}: {} lanes did not complete",
            s.line, s.lanes_failed
        ));
    }
    match (s.digest, refs.get(&s.line)) {
        (Some(d), Some(r)) if d == r.digest => None,
        _ => Some(format!(
            "line {}: answer differs from its cold reference",
            s.line
        )),
    }
}

/// Runs one serve workload.
pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lines = Lines::new(r.mix, r.seed);

    let mut setups = Vec::new();
    let mut warm = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        let (d, seconds, w) = r.setup(&lines)?;
        setups.push(seconds);
        warm.extend(w);
        if k + 1 < SETUPS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.ok_or("no daemon")?;
    let timed = r.timed(&mut daemon, &lines)?;
    // Read before any reference or check work.
    let peak_rss = procfs::peak_rss_mib()?;
    let stats_line = if r.traced {
        Some(daemon.clients[0].roundtrip(b"stats\n")?.to_string())
    } else {
        None
    };
    daemon.stop();

    // The placements behind `shifts` and the simulated metrics: every
    // distinct hot line, or the first cold requests.
    let placements: Vec<u64> = match &lines {
        Lines::Hot { wires, .. } => (0..wires.len() as u64).collect(),
        Lines::Cold { .. } => (0..COLD_PLACEMENTS).collect(),
    };
    let mut ids: BTreeSet<u64> = timed.samples.iter().chain(&warm).map(|s| s.line).collect();
    ids.extend(&placements);
    let refs = references(&lines, &ids, r.clients)?;

    out.attempted = timed.samples.len() as u64;
    for s in &timed.samples {
        if let Some(why) = check(s, &refs) {
            out.failed += 1;
            out.fail(why);
        }
    }
    for s in &warm {
        if let Some(why) = check(s, &refs) {
            out.fail(format!("warm-up {why}"));
        }
    }
    for (id, rf) in &refs {
        if rf.sim_shifts != rf.shifts {
            out.fail(format!(
                "line {id}: simulator {} shifts, solution {}",
                rf.sim_shifts, rf.shifts
            ));
        }
    }

    let n = timed.samples.len();
    let setup = stats::median(&setups);
    out.set("setup_s", setup.value, setup.samples);
    out.set("ops_per_s", stats::ratio(n as f64, timed.seconds), n);
    let rtt: Vec<f64> = timed.samples.iter().map(|s| s.rtt_ms).collect();
    layers::set_percentile(&mut out, "p50_ms", &rtt, 50.0);
    layers::set_percentile(&mut out, "p99_ms", &rtt, 99.0);
    out.set("peak_rss_mb", peak_rss, 1);
    out.set(
        "cpu_ms_per_op",
        stats::ratio(timed.cpu_seconds * 1e3, n as f64),
        n,
    );
    let placed: Vec<&Reference> = placements.iter().filter_map(|id| refs.get(id)).collect();
    let geo = |f: fn(&Reference) -> f64| {
        stats::geomean(&placed.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.set("shifts", geo(|r| r.shifts as f64), placed.len());
    out.set("sim_latency_ms", geo(|r| r.sim_runtime_ms), placed.len());
    out.set("sim_energy_uj", geo(|r| r.sim_energy_uj), placed.len());

    let p99 = stats::percentile(&rtt, 99.0);
    out.note(format!(
        "{} requests over {:.3} s from {} closed-loop clients; {} distinct lines; \
         p99 has {} samples beyond it",
        n,
        timed.seconds,
        r.clients,
        ids.len(),
        p99.beyond
    ));
    out.note(format!("setup_s samples: {setups:?}"));

    if r.traced {
        traced_layers(
            r,
            &lines,
            &timed,
            stats_line.as_deref().unwrap_or(""),
            &refs,
            &mut out,
        )?;
    }
    Ok(out)
}

/// One request replayed in-process through the connection handler's
/// public calls.
#[derive(Debug, Clone)]
struct Replayed {
    request: u64,
    line: u64,
    op_ms: f64,
    trace_hit: bool,
    session_hit: bool,
    solve: &'static str,
    evals: u64,
    lanes_failed: u64,
    stats: EngineStats,
    text_bytes: usize,
    digest: Option<u64>,
}

/// The span name of `Session::solve` for `strategy`.
fn solve_span(strategy: &Strategy) -> &'static str {
    match strategy {
        Strategy::Sa(_) => "session.solve.sa",
        Strategy::Tabu(_) => "session.solve.tabu",
        Strategy::Portfolio(_) => "session.solve.portfolio",
        Strategy::Ga(_) | Strategy::RandomWalk(_) => "session.solve.other",
        _ => "session.solve.heuristic",
    }
}

/// One request through the connection handler's public calls, in its
/// order, each inside a span (recorded when `rec` is enabled).
fn replay_one(
    cache: &SessionCache,
    request: u64,
    line: u64,
    text: &str,
    rec: &mut Recorder,
) -> Result<Replayed, String> {
    let started = Instant::now();
    rec.set_request(request);
    let op = rec.begin("op");
    let req = match rec.time("protocol.parse_request", || parse_request(text)) {
        Ok(Request::Place(req)) => req,
        Ok(other) => return Err(format!("not a place request: {other:?}")),
        Err(e) => return Err(e.to_string()),
    };
    let strategy = rec
        .time("protocol.resolve_strategy", || {
            req.resolve_strategy(deadline_ms())
        })
        .map_err(|e| e.to_string())?;
    let canonical = rec.time("protocol.canonical_text", || req.canonical_text());
    let get = rec.begin("cache.get_or_parse");
    let got = cache.get_or_parse(&canonical, || {
        rec.time("trace.materialize", || req.materialize())
    });
    rec.end(get);
    let (entry, trace_hit) = got.map_err(|e| e.to_string())?;
    let seq = entry.seq();
    let geom = rec
        .time("protocol.geometry", || req.geometry(&seq))
        .map_err(|e| e.to_string())?;
    let (session, session_hit) = rec.time("cache.session", || cache.session(&entry, geom));
    let solve = solve_span(&strategy);
    if !session_hit && solve != "session.solve.heuristic" {
        rec.time("session.engine", || {
            session.engine();
        });
        rec.time("session.heuristic_seeds", || {
            session.heuristic_seeds();
        });
    }
    let sol = rec
        .time(solve, || session.solve(&strategy))
        .map_err(|e| e.to_string())?;
    let geometry = Geometry::flat(geom.dbcs, geom.capacity, geom.ports);
    let fields = rec.time("report.solution_fields", || {
        solution_fields(&strategy, &geometry, &seq, &sol)
    });
    // The daemon fingerprints the text a second time for its envelope.
    let fp = rec.time("fingerprint.of_text", || Fingerprint::of_text(&canonical));
    rec.end(op);
    let op_ms = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(fp);
    Ok(Replayed {
        request,
        line,
        op_ms,
        trace_hit,
        session_hit,
        solve,
        evals: sol.evals_consumed,
        lanes_failed: sol
            .lanes
            .iter()
            .filter(|l| l.status != LaneStatus::Completed)
            .count() as u64,
        stats: sol.engine_stats,
        text_bytes: canonical.len(),
        digest: deterministic_slice(&fields).map(digest),
    })
}

/// Replays `requests` (`(line, text)` pairs) closed-loop on `threads`
/// threads against `cache`. With `traced`, odd requests are traced and
/// even ones not, so both halves run under the same conditions and their
/// op times give the tracing overhead.
fn replay(
    cache: &SessionCache,
    requests: &[(u64, String)],
    threads: usize,
    traced: bool,
) -> Result<(Vec<Replayed>, Vec<Vec<Span>>), String> {
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| -> Result<(Vec<Replayed>, Vec<Span>), String> {
                    let mut rec = Recorder::new(epoch);
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some((line, text)) = requests.get(k) else {
                            break;
                        };
                        rec.set_enabled(traced && k % 2 == 1);
                        out.push(replay_one(cache, k as u64, *line, text, &mut rec)?);
                    }
                    Ok((out, rec.into_spans()))
                })
            })
            .collect();
        handles.into_iter().map(join).collect::<Result<Vec<_>, _>>()
    })?;
    let (records, spans): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    Ok((records.concat(), spans))
}

/// The per-layer figures of a serve run.
fn traced_layers(
    r: &Run,
    lines: &Lines,
    timed: &Window,
    stats_line: &str,
    refs: &BTreeMap<u64, Reference>,
    out: &mut Outcome,
) -> Result<(), String> {
    // From the socket run: transport is what the client waited beyond the
    // daemon's own solve time.
    let ok: Vec<&Sample> = timed.samples.iter().filter(|s| s.error.is_none()).collect();
    let solve: Vec<f64> = ok.iter().filter_map(|s| s.served_ms).collect();
    let transport: Vec<f64> = ok
        .iter()
        .filter_map(|s| s.served_ms.map(|srv| s.rtt_ms - srv))
        .collect();
    layers::set_percentile(out, "server.transport_ms.p50", &transport, 50.0);
    layers::set_percentile(out, "server.transport_ms.p99", &transport, 99.0);
    layers::set_percentile(out, "server.solve_ms.p50", &solve, 50.0);
    layers::set_percentile(out, "server.solve_ms.p99", &solve, 99.0);
    let count = |key: &str| json::find_u64(stats_line, key).unwrap_or(0) as f64;
    let requests = count("requests") as usize;
    out.set("server.rejected", count("responses_error"), requests);
    let rate = |hits: &str, misses: &str| stats::ratio(count(hits), count(hits) + count(misses));
    out.set(
        "cache.trace_hit_rate",
        rate("trace_hits", "trace_misses"),
        requests,
    );
    out.set(
        "cache.session_hit_rate",
        rate("session_hits", "session_misses"),
        requests,
    );
    out.set("cache.evictions", count("evictions"), requests);
    out.note(format!("daemon stats: {stats_line}"));
    let n = timed.samples.len();
    let mean_kib = |f: fn(&Sample) -> usize| {
        stats::ratio(
            timed.samples.iter().map(|s| f(s) as f64).sum::<f64>(),
            n as f64,
        ) / 1024.0
    };
    out.set("protocol.request_kb", mean_kib(|s| s.request_bytes), n);
    out.set("report.response_kb", mean_kib(|s| s.response_bytes), n);

    // The in-process replay over the same lines as the socket run: hot
    // on a cache warmed by one pass over the distinct lines, cold on a
    // fresh one.
    let pool = Arc::new(WorkerPool::new(r.threads));
    let cache = SessionCache::new(Arc::clone(&pool), r.serve_config().max_cached_traces);
    let text = |line: u64| (line, lines.text(line));
    let requests: Vec<_> = match lines {
        Lines::Hot { wires, .. } => {
            let distinct: Vec<_> = (0..wires.len() as u64).map(text).collect();
            replay(&cache, &distinct, r.clients, false)?;
            (0..HOT_REPLAY as u64)
                .map(|i| text(lines.line_of(i)))
                .collect()
        }
        Lines::Cold { .. } => (0..COLD_REPLAY.min(n) as u64).map(text).collect(),
    };
    let (steals, contended) = (pool.steals(), pool.contended());
    let (replayed, spans) = replay(&cache, &requests, r.clients, true)?;
    let (pool_steals, pool_contended) = (pool.steals() - steals, pool.contended() - contended);
    for rec in &replayed {
        if rec.digest.is_none() || rec.digest != refs.get(&rec.line).map(|r| r.digest) {
            out.fail(format!(
                "replayed line {}: answer differs from its cold reference",
                rec.line
            ));
        }
    }
    let (records, untraced): (Vec<Replayed>, Vec<Replayed>) =
        replayed.into_iter().partition(|x| x.request % 2 == 1);
    let timed_spans = spans::flatten(spans);
    replay_layers(out, &records, &timed_spans);
    for line in layers::span_summary(&timed_spans) {
        out.note(line);
    }
    let replayed_n = records.len() + untraced.len();
    out.set("pool.steals", pool_steals as f64, replayed_n);
    out.set("pool.contended", pool_contended as f64, replayed_n);
    let lanes_failed: u64 = records
        .iter()
        .chain(&untraced)
        .map(|x| x.lanes_failed)
        .sum::<u64>()
        + timed.samples.iter().map(|s| s.lanes_failed).sum::<u64>();
    out.set("search.lanes_failed", lanes_failed as f64, replayed_n + n);
    layers::set_tracing(
        out,
        &untraced.iter().map(|x| x.op_ms).collect::<Vec<_>>(),
        &records.iter().map(|x| x.op_ms).collect::<Vec<_>>(),
    );

    let sim_ns: u64 = refs.values().map(|x| x.sim_ns).sum();
    let accesses: u64 = refs.values().map(|x| x.accesses).sum();
    out.set(
        "sim.accesses_per_s",
        stats::ratio(accesses as f64, sim_ns as f64 * 1e-9),
        refs.len(),
    );
    Ok(())
}

/// Layer figures from the traced replay's spans and records.
fn replay_layers(out: &mut Outcome, records: &[Replayed], timed: &[Timed]) {
    let us = |name: &str| layers::durations(timed, name, 1e-3);
    let ms = |name: &str| layers::durations(timed, name, 1e-6);
    layers::set_percentile(
        out,
        "protocol.parse_us.p50",
        &us("protocol.parse_request"),
        50.0,
    );
    layers::set_percentile(out, "fingerprint.us.p50", &us("fingerprint.of_text"), 50.0);
    layers::set_percentile(out, "report.us.p50", &us("report.solution_fields"), 50.0);
    layers::set_percentile(
        out,
        "strategy.heuristic_ms.p50",
        &ms("session.solve.heuristic"),
        50.0,
    );
    layers::set_percentile(
        out,
        "session.engine_build_ms.p50",
        &ms("session.engine"),
        50.0,
    );
    layers::set_percentile(
        out,
        "strategy.seeds_ms.p50",
        &ms("session.heuristic_seeds"),
        50.0,
    );
    layers::set_percentile(out, "search.sa_ms.p50", &ms("session.solve.sa"), 50.0);
    layers::set_percentile(out, "search.tabu_ms.p50", &ms("session.solve.tabu"), 50.0);
    layers::set_percentile(
        out,
        "search.portfolio_ms.p50",
        &ms("session.solve.portfolio"),
        50.0,
    );
    layers::set_percentile(
        out,
        "unaccounted_ms.p50",
        &layers::unaccounted_ms(timed),
        50.0,
    );

    // Cache time per request: get_or_parse without its parse closure,
    // plus the session lookup.
    let mut cache_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for t in timed {
        match t.name {
            "cache.get_or_parse" => *cache_ns.entry(t.request).or_default() += t.self_time,
            "cache.session" => *cache_ns.entry(t.request).or_default() += t.duration,
            _ => {}
        }
    }
    let cache_us = |pick: fn(&Replayed) -> bool| -> Vec<f64> {
        records
            .iter()
            .filter(|x| pick(x))
            .filter_map(|x| cache_ns.get(&x.request).map(|&ns| ns as f64 * 1e-3))
            .collect()
    };
    let hits = cache_us(|x| x.trace_hit && x.session_hit);
    layers::set_percentile(out, "cache.hit_us.p50", &hits, 50.0);
    layers::set_percentile(out, "cache.miss_us.p50", &cache_us(|x| !x.trace_hit), 50.0);

    let parse_ns: f64 = layers::durations(timed, "trace.materialize", 1.0)
        .iter()
        .sum();
    let parsed: Vec<&Replayed> = records.iter().filter(|x| !x.trace_hit).collect();
    let parsed_bytes: usize = parsed.iter().map(|x| x.text_bytes).sum();
    out.set(
        "trace.parse_mb_s",
        stats::ratio(parsed_bytes as f64 / 1e6, parse_ns * 1e-9),
        parsed.len(),
    );

    let searches: Vec<&Replayed> = records
        .iter()
        .filter(|x| x.solve != "session.solve.heuristic")
        .collect();
    let mut engine = EngineStats::default();
    for x in &searches {
        layers::add_stats(&mut engine, &x.stats);
    }
    let search_ns: f64 = timed
        .iter()
        .filter(|t| t.name.starts_with("session.solve.") && t.name != "session.solve.heuristic")
        .map(|t| t.duration as f64)
        .sum();
    out.set(
        "search.evals",
        searches.iter().map(|x| x.evals).sum::<u64>() as f64,
        searches.len(),
    );
    layers::set_eval(out, &engine, search_ns, searches.len());
}
