//! The line protocol: one request per line, one response line back.
//!
//! ```text
//! ping
//! stats
//! shutdown
//! place [key=value …] :: <trace text>
//! place profile=NAME [scale=S] [key=value …]
//! ```
//!
//! `place` keys mirror the CLI options (`strategy`, `dbcs`, `capacity`,
//! `ports`, `budget-evals`, `budget-ms`, `budget-stall`, `seed`, `lanes`)
//! plus the serve-only `deadline-ms`, and resolve through the library code
//! the CLI calls: `Strategy::from_cli` for the strategy name, seed and
//! lanes, `Budget::from_limits` for the budget and its 50 000-eval
//! default, `inter::default_capacity` for the capacity. A serve query and
//! an `rtm place` invocation therefore describe the same problem, which the
//! bit-identity integration tests check end to end. Inline trace text
//! follows a literal ` :: ` separator; a two-character `\n` escape embeds
//! line breaks so multi-line traces survive the one-line framing (and
//! parse errors report real line/column positions).
//!
//! Successful responses are one line of JSON. Failures are one line
//! starting with `error: ` — carrying `ParseTraceError`'s line and column
//! when the trace text is at fault — and never kill the connection, let
//! alone the daemon. The one exception is a line longer than
//! [`MAX_REQUEST_BYTES`]: it gets `error: request too large …` and its
//! connection is closed, since the rest of the line cannot be skipped
//! without reading it.

use rtm_placement::inter::default_capacity;
use rtm_placement::{Budget, PlacementError, PlacementProblem, Solution, Strategy, StrategyKind};
use rtm_trace::{AccessSequence, ParseTraceError};
use std::fmt;

use crate::cache::GeometryKey;

/// The longest tier workload a `place profile=NAME scale=S` query may ask
/// for, in accesses: 2^24 (about 16.8M), above the 10M-access row of the
/// scale ladder. The daemon materializes profile traces, so a larger
/// scaled length is refused when the request is parsed, before anything is
/// generated.
pub const MAX_PROFILE_ACCESSES: usize = 1 << 24;

/// The longest request line the daemon reads, in bytes before the newline:
/// 2^24 (16 MiB), far above the inline traces a client sends (a few
/// thousand accesses). Larger traces go through `profile=` or the CLI. A
/// connection whose line grows past it gets one `error: request too
/// large …` line and is closed, so one client cannot grow the daemon
/// without bound.
pub const MAX_REQUEST_BYTES: usize = 1 << 24;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server + cache counters.
    Stats,
    /// Stop accepting and drain.
    Shutdown,
    /// Solve a placement query.
    Place(Box<PlaceRequest>),
}

/// Where a query's trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySource {
    /// Inline trace text (after `\n`-unescaping).
    Inline(String),
    /// A deterministic tier workload (`rtm suite` names).
    Profile {
        /// Tier workload name (e.g. `expected-dsp`).
        name: String,
        /// Scale factor (default 1.0).
        scale: f64,
    },
}

/// One placement query. Field defaults mirror the CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceRequest {
    /// Trace source.
    pub source: QuerySource,
    /// Strategy CLI name (default `dma-sr`).
    pub strategy: String,
    /// DBC count (default 4).
    pub dbcs: usize,
    /// Locations per DBC (default: the paper's 4 KiB track, grown to fit).
    pub capacity: Option<usize>,
    /// Access ports per track (default 1).
    pub ports: usize,
    /// `--budget-evals` equivalent.
    pub budget_evals: Option<u64>,
    /// `--budget-ms` equivalent.
    pub budget_ms: Option<u64>,
    /// `--budget-stall` equivalent.
    pub budget_stall: Option<u64>,
    /// `--seed` equivalent.
    pub seed: Option<u64>,
    /// `--lanes` equivalent (portfolio only).
    pub lanes: Option<String>,
    /// Per-request deadline override (the server's default applies
    /// otherwise).
    pub deadline_ms: Option<u64>,
}

/// Why a request could not be served. `Trace` preserves the parse error's
/// structure so responses can carry its line and column.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The request line itself is malformed (unknown command/key, bad
    /// number, missing trace, …).
    Malformed(String),
    /// The inline trace text failed to parse.
    Trace(ParseTraceError),
    /// The query is well-formed but unsolvable (capacity too small, …).
    Placement(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Malformed(m) => write!(f, "{m}"),
            // ParseTraceError's Display includes "(line L, column C)".
            RequestError::Trace(e) => write!(f, "invalid trace: {e}"),
            RequestError::Placement(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<ParseTraceError> for RequestError {
    fn from(e: ParseTraceError) -> Self {
        RequestError::Trace(e)
    }
}

impl From<PlacementError> for RequestError {
    fn from(e: PlacementError) -> Self {
        RequestError::Placement(e.to_string())
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`RequestError::Malformed`] for anything that is not a well-formed
/// command.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let line = line.trim();
    match line {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        _ => {
            let rest = line
                .strip_prefix("place")
                .filter(|r| r.is_empty() || r.starts_with(' '))
                .ok_or_else(|| {
                    RequestError::Malformed(format!(
                        "unknown command `{}` (expected ping|stats|shutdown|place)",
                        line.split_whitespace().next().unwrap_or("")
                    ))
                })?;
            Ok(Request::Place(Box::new(PlaceRequest::parse(rest)?)))
        }
    }
}

/// Replaces the two-character `\n` escape with a real newline (and `\\`
/// with a backslash, so a literal `\n` stays expressible).
fn unescape_trace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl PlaceRequest {
    /// Parses the key-value options (and optional ` :: trace` tail) of a
    /// `place` line.
    fn parse(rest: &str) -> Result<Self, RequestError> {
        let (opts, trace) = match rest.split_once(" :: ") {
            Some((o, t)) => (o, Some(t)),
            None => match rest.strip_suffix(" ::") {
                Some(o) => (o, Some("")),
                None => (rest, None),
            },
        };
        let mut req = PlaceRequest {
            source: QuerySource::Inline(String::new()),
            strategy: StrategyKind::DmaSr.cli_name().to_string(),
            dbcs: 4,
            capacity: None,
            ports: 1,
            budget_evals: None,
            budget_ms: None,
            budget_stall: None,
            seed: None,
            lanes: None,
            deadline_ms: None,
        };
        let mut profile: Option<String> = None;
        let mut scale: f64 = 1.0;
        for tok in opts.split_whitespace() {
            let (key, value) = tok.split_once('=').ok_or_else(|| {
                RequestError::Malformed(format!("expected key=value, got `{tok}`"))
            })?;
            fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, RequestError> {
                value.parse().map_err(|_| {
                    RequestError::Malformed(format!("bad number for `{key}`: `{value}`"))
                })
            }
            match key {
                "strategy" => req.strategy = value.to_string(),
                "dbcs" => req.dbcs = num(key, value)?,
                "capacity" => req.capacity = Some(num(key, value)?),
                "ports" => req.ports = num(key, value)?,
                "budget-evals" => req.budget_evals = Some(num(key, value)?),
                "budget-ms" => req.budget_ms = Some(num(key, value)?),
                "budget-stall" => req.budget_stall = Some(num(key, value)?),
                "seed" => req.seed = Some(num(key, value)?),
                "lanes" => req.lanes = Some(value.to_string()),
                "deadline-ms" => req.deadline_ms = Some(num(key, value)?),
                "profile" => profile = Some(value.to_string()),
                "scale" => scale = num(key, value)?,
                other => return Err(RequestError::Malformed(format!("unknown option `{other}`"))),
            }
        }
        req.source = match (profile, trace) {
            (Some(_), Some(_)) => {
                return Err(RequestError::Malformed(
                    "profile= and an inline `:: trace` are mutually exclusive".into(),
                ))
            }
            (Some(name), None) => {
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(RequestError::Malformed(
                        "scale must be a positive number".into(),
                    ));
                }
                // Sizing a workload generates nothing; an unknown name is
                // reported when the trace is materialized.
                let accesses =
                    rtm_offsetstone::TierWorkload::by_name(&name, scale).map_or(0, |w| w.dims().1);
                if accesses > MAX_PROFILE_ACCESSES {
                    return Err(RequestError::Malformed(format!(
                        "profile `{name}` at scale={scale} exceeds the limit of \
                         {MAX_PROFILE_ACCESSES} accesses"
                    )));
                }
                QuerySource::Profile { name, scale }
            }
            (None, Some(t)) if !t.trim().is_empty() => QuerySource::Inline(unescape_trace(t)),
            _ => {
                return Err(RequestError::Malformed(
                    "missing trace: add ` :: <trace text>` or profile=NAME".into(),
                ))
            }
        };
        if req.dbcs == 0 {
            return Err(RequestError::Malformed("dbcs must be at least 1".into()));
        }
        if req.ports == 0 {
            return Err(RequestError::Malformed("ports must be at least 1".into()));
        }
        Ok(req)
    }

    /// The canonical cache-key text of this query's trace: the unescaped
    /// inline text verbatim, or a `profile:NAME@SCALE` tag (tier workloads
    /// are deterministic functions of name and scale).
    pub fn canonical_text(&self) -> String {
        match &self.source {
            QuerySource::Inline(t) => t.clone(),
            QuerySource::Profile { name, scale } => format!("profile:{name}@{scale}"),
        }
    }

    /// Parses or generates the trace.
    ///
    /// # Errors
    ///
    /// [`RequestError::Trace`] with line/column for bad inline text;
    /// [`RequestError::Malformed`] for an unknown profile name.
    pub fn materialize(&self) -> Result<AccessSequence, RequestError> {
        match &self.source {
            QuerySource::Inline(t) => Ok(AccessSequence::parse(t)?),
            QuerySource::Profile { name, scale } => {
                rtm_offsetstone::TierWorkload::by_name(name, *scale)
                    .map(|w| w.generate())
                    .ok_or_else(|| RequestError::Malformed(format!("unknown profile `{name}`")))
            }
        }
    }

    /// Resolves the engine-relevant geometry, defaulting the capacity
    /// exactly as the CLI does for flat problems (the paper's 4 KiB track,
    /// grown to fit the variable count).
    ///
    /// # Errors
    ///
    /// [`RequestError::Malformed`] when ports exceed the track length.
    pub fn geometry(&self, seq: &AccessSequence) -> Result<GeometryKey, RequestError> {
        let capacity = self
            .capacity
            .unwrap_or_else(|| default_capacity(self.dbcs, seq.vars().len()));
        if capacity == 0 {
            return Err(RequestError::Malformed(
                "capacity must be at least 1".into(),
            ));
        }
        if self.ports > capacity {
            return Err(RequestError::Malformed(format!(
                "ports {} exceeds the track length {capacity}",
                self.ports
            )));
        }
        Ok(GeometryKey {
            dbcs: self.dbcs,
            capacity,
            ports: self.ports,
        })
    }

    /// The search budget of the request's `budget-*` keys
    /// ([`Budget::from_limits`], as for the CLI's `--budget-*` options),
    /// with the effective deadline — the request's `deadline-ms`, or
    /// `default_deadline_ms` — layered on as a wall-clock bound. A tighter
    /// explicit `budget-ms` survives; the deadline only ever shortens.
    pub fn budget(&self, default_deadline_ms: u64) -> Budget {
        let budget = Budget::from_limits(self.budget_evals, self.budget_ms, self.budget_stall);
        let deadline = self.deadline_ms.unwrap_or(default_deadline_ms);
        let effective = match budget.deadline() {
            Some(d) => u64::try_from(d.as_millis())
                .unwrap_or(u64::MAX)
                .min(deadline),
            None => deadline,
        };
        budget.and_wall_clock_ms(effective)
    }

    /// Resolves the [`Strategy`] through [`Strategy::from_cli`], as the CLI
    /// does. Search strategies carry [`budget`](Self::budget) (deadline
    /// included); the deterministic heuristics and the paper's
    /// fixed-iteration GA/RW ignore the budget by construction.
    ///
    /// # Errors
    ///
    /// [`RequestError::Malformed`] for unknown strategy or lane names.
    pub fn resolve_strategy(&self, default_deadline_ms: u64) -> Result<Strategy, RequestError> {
        let budget = self.budget(default_deadline_ms);
        Strategy::from_cli(&self.strategy, budget, self.seed, self.lanes.as_deref())
            .map_err(|e| RequestError::Malformed(e.to_string()))
    }

    /// The cold single-shot reference for this query: a fresh
    /// [`PlacementProblem`] solved outside any cache or shared pool. The
    /// server's warm concurrent answers must be bit-identical to this —
    /// it's what the load generator and the correctness tests compare
    /// against.
    ///
    /// # Errors
    ///
    /// Any [`RequestError`] the serving path would also report.
    pub fn reference_solution(
        &self,
        default_deadline_ms: u64,
    ) -> Result<(Strategy, GeometryKey, AccessSequence, Solution), RequestError> {
        let strategy = self.resolve_strategy(default_deadline_ms)?;
        let seq = self.materialize()?;
        let geom = self.geometry(&seq)?;
        let problem =
            PlacementProblem::new(seq.clone(), geom.dbcs, geom.capacity).with_ports(geom.ports);
        let solution = problem.solve(&strategy)?;
        Ok((strategy, geom, seq, solution))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(line: &str) -> PlaceRequest {
        match parse_request(line).unwrap() {
            Request::Place(p) => *p,
            other => panic!("expected place, got {other:?}"),
        }
    }

    #[test]
    fn commands_parse() {
        assert_eq!(parse_request(" ping "), Ok(Request::Ping));
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(parse_request("shutdown"), Ok(Request::Shutdown));
        assert!(parse_request("nope").is_err());
        assert!(parse_request("placebo x").is_err());
    }

    #[test]
    fn place_defaults_mirror_the_cli() {
        let r = place("place :: a b a b");
        assert_eq!(r.strategy, "dma-sr");
        assert_eq!((r.dbcs, r.ports), (4, 1));
        assert_eq!(r.capacity, None);
        let seq = r.materialize().unwrap();
        // 4 DBCs: the paper's 4 KiB track is 4096*8/(4*32) = 256.
        assert_eq!(r.geometry(&seq).unwrap().capacity, 256);
    }

    #[test]
    fn options_and_inline_trace_parse() {
        let r =
            place("place strategy=sa dbcs=2 budget-evals=300 seed=7 deadline-ms=900 :: a b a b c");
        assert_eq!(r.strategy, "sa");
        assert_eq!(r.dbcs, 2);
        assert_eq!(r.budget_evals, Some(300));
        assert_eq!(r.deadline_ms, Some(900));
        assert_eq!(r.canonical_text(), "a b a b c");
        assert!(matches!(
            r.resolve_strategy(10_000).unwrap(),
            Strategy::Sa(_)
        ));
    }

    #[test]
    fn profile_queries_have_a_stable_canonical_tag() {
        let r = place("place profile=expected-dsp scale=0.25 strategy=dma-sr");
        assert_eq!(r.canonical_text(), "profile:expected-dsp@0.25");
        assert!(r.materialize().is_ok());
        assert!(place("place profile=nope").materialize().is_err());
    }

    #[test]
    fn escaped_newlines_reach_the_parser_as_line_breaks() {
        let r = place("place dbcs=2 :: a b\\na b\\nc :q");
        // The bad token sits on line 3, column 3 of the unescaped text.
        match r.materialize() {
            Err(RequestError::Trace(e)) => {
                assert_eq!((e.line(), e.column()), (3, 3));
                let msg = RequestError::Trace(e).to_string();
                assert!(msg.contains("line 3"), "{msg}");
                assert!(msg.contains("column 3"), "{msg}");
            }
            other => panic!("expected trace error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("place", "missing trace"),
            ("place strategy=sa", "missing trace"),
            ("place bogus=1 :: a b", "unknown option"),
            ("place shards=8 :: a b", "unknown option `shards`"),
            ("place dbcs=zero :: a b", "bad number"),
            ("place dbcs=0 :: a b", "dbcs"),
            ("place ports=0 :: a b", "ports"),
            ("place profile=x :: a b", "mutually exclusive"),
            ("place strategy=bogus :: a b", "unknown strategy"),
            ("place scale=-2 profile=expected-dsp", "scale"),
            ("place profile=expected-dsp scale=1e30", "scale"),
        ] {
            match parse_request(line).map(|r| match r {
                Request::Place(p) => p.resolve_strategy(1000).map(|_| ()),
                _ => Ok(()),
            }) {
                Err(e) | Ok(Err(e)) => {
                    assert!(e.to_string().contains(needle), "`{line}`: {e}")
                }
                Ok(Ok(())) => panic!("`{line}` should fail"),
            }
        }
    }

    #[test]
    fn deadline_only_ever_shortens() {
        let r = place("place strategy=sa budget-evals=100 budget-ms=50 :: a b");
        // Explicit 50 ms budget is tighter than the 10 s default deadline.
        assert_eq!(
            r.budget(10_000).deadline(),
            Some(std::time::Duration::from_millis(50))
        );
        // A tight per-request deadline wins over a loose budget.
        let r = place("place strategy=sa budget-ms=5000 deadline-ms=200 :: a b");
        assert_eq!(
            r.budget(10_000).deadline(),
            Some(std::time::Duration::from_millis(200))
        );
        // Pure evals budgets still get the liveness backstop.
        let r = place("place strategy=sa budget-evals=100 :: a b");
        assert_eq!(
            r.budget(10_000).deadline(),
            Some(std::time::Duration::from_secs(10))
        );
    }

    #[test]
    fn reference_solution_solves_the_query() {
        let r = place("place strategy=dma-sr dbcs=2 :: a b a b c a c a");
        let (strategy, geom, seq, sol) = r.reference_solution(10_000).unwrap();
        assert_eq!(strategy, Strategy::DmaSr);
        assert_eq!(geom.dbcs, 2);
        assert_eq!(seq.accesses().len(), 8);
        assert!(sol.shifts > 0);
    }
}
