//! `rtm` — command-line front end for racetrack-memory data placement.
//!
//! ```text
//! rtm place    --trace FILE | --profile NAME [--scale S] [--stream] [--dbcs N] [--capacity N]
//!              [--ports N] [--subarrays N] [--strategy NAME]
//!              [--budget-evals N] [--budget-ms N] [--budget-stall N] [--lanes L,..] [--seed N]
//!              [--threads N] [--json]
//! rtm simulate --trace FILE | --profile NAME [--scale S] [--stream] [--dbcs N] [--ports N]
//!              [--subarrays N] [--strategy NAME] [--threads N] [--json]
//! rtm stats    --trace FILE
//! rtm suite    [--benchmark NAME]
//! rtm strategies
//! ```
//!
//! Traces are whitespace-separated variable names with optional `:r`/`:w`
//! suffixes; `--trace -` reads stdin. An option no command reads is an
//! error (`error: unknown option --NAME`), never silently ignored.

use rtm_arch::ArrayGeometry;
use rtm_placement::inter::default_capacity;
use rtm_placement::{Budget, PlacementProblem, Strategy, StrategyKind};
use rtm_trace::AccessSequence;
use std::error::Error;
use std::io::{ErrorKind, Read, Write};
use std::process::ExitCode;

mod args;
mod commands;

use args::CliArgs;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match CliArgs::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "place" if args.flag("stream") => commands::place_stream(&args),
        "place" => commands::place(&args),
        "simulate" if args.flag("stream") => commands::simulate_stream(&args),
        "simulate" => commands::simulate(&args),
        "stats" => commands::stats(&args),
        "suite" => commands::suite(&args),
        "strategies" => commands::strategies(),
        "serve" => commands::serve(&args),
        "help" | "--help" | "-h" => print_report(USAGE).map_err(Into::into),
        other => Err(format!("unknown command `{other}`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed its end early (`rtm place … | head -5`)
        // already has what it wanted: stop quietly, as a Unix filter does.
        Err(e) if is_broken_pipe(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes a command's report and a newline to stdout and flushes: the one
/// way the CLI prints. A failed write is returned, never a panic, and
/// `main` turns a closed pipe into a quiet exit.
pub(crate) fn print_report(text: &str) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{text}")?;
    out.flush()
}

/// Whether a command failed only because stdout's reader went away.
fn is_broken_pipe(e: &(dyn Error + 'static)) -> bool {
    e.downcast_ref::<std::io::Error>()
        .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe)
}

const USAGE: &str = "rtm — racetrack-memory data placement

USAGE:
    rtm place     --trace FILE | --profile NAME [--scale S] [--stream] [--dbcs N] [--capacity N] [--ports N] [--subarrays N] [--strategy NAME] [--threads N] [--json]
    rtm simulate  --trace FILE | --profile NAME [--scale S] [--stream] [--dbcs N] [--ports N] [--subarrays N] [--strategy NAME] [--threads N] [--json]
    rtm stats     --trace FILE
    rtm suite     [--benchmark NAME]
    rtm strategies
    rtm serve     [--addr HOST:PORT] [--threads N] [--max-inflight N] [--max-traces N] [--deadline-ms N]

OPTIONS:
    --trace FILE      trace file (`-` for stdin)
    --profile NAME    generate a tier workload instead of reading a file
                      (expected-*/stress-*/adv-*; see `rtm suite`)
    --scale S         grow a --profile workload: length x S, variables x sqrt(S)
                      (default 1.0)
    --stream          with --profile: solve and simulate through the
                      bounded-memory streaming pipeline (never materializes
                      the trace; anytime strategies only, no --json)
    --dbcs N          number of DBCs per subarray (default 4)
    --capacity N      locations per DBC (default: the paper's 4 KiB subarray
                      track length; without --subarrays, grown to fit)
    --ports N         access ports per track (default 1); placement search,
                      scoring, and simulation all use the N-port model
    --subarrays N     place across N paper-faithful 4 KiB subarrays
                      (default 1); tracks are never grown in array mode
    --strategy NAME   a strategy name from `rtm strategies` (default dma-sr;
                      sa with --stream)
    --budget-evals N  eval budget for sa/tabu/portfolio (default 50000;
                      per lane for portfolio)
    --budget-ms N     wall-clock budget in milliseconds for sa/tabu/portfolio
                      (combinable with --budget-evals; whichever fires first)
    --budget-stall N  stop after N evals without improvement (sa/tabu/portfolio)
    --lanes L,L,...   portfolio lanes from sa,tabu,ga,rw (default all four)
    --seed N          RNG seed for sa/tabu/portfolio (fixed defaults otherwise)
    --threads N       workers that run the portfolio's lanes side by side, on
                      both the materialized and --stream paths (default: all
                      cores; results are identical for any value)
    --json            machine-readable output for place/simulate
    --benchmark NAME  one benchmark of the OffsetStone-style suite

SERVE OPTIONS (see README `Serving` for the line protocol):
    --addr HOST:PORT  bind address (default 127.0.0.1:0; the resolved
                      address is printed as `listening on ADDR`)
    --max-inflight N  admission-control bound on concurrent place solves
                      (default 32, at least 1; beyond it requests get
                      `error: overloaded`)
    --max-traces N    cross-request cache capacity in traces (default 64,
                      at least 1, LRU)
    --deadline-ms N   default wall-clock deadline per request (default 10000;
                      requests may tighten it with deadline-ms=N)";

/// Resolves `--profile NAME` (with `--scale S`) to a tier workload, if
/// given.
fn tier_workload(args: &CliArgs) -> Result<Option<rtm_offsetstone::TierWorkload>, Box<dyn Error>> {
    let Some(name) = args.get("profile") else {
        return Ok(None);
    };
    if args.get("trace").is_some() {
        return Err("--trace and --profile are mutually exclusive".into());
    }
    let scale: f64 = args.get_parsed("scale")?.unwrap_or(1.0);
    if !(scale.is_finite() && scale > 0.0) {
        return Err("--scale must be a positive number".into());
    }
    let w = rtm_offsetstone::TierWorkload::by_name(name, scale)
        .ok_or_else(|| format!("unknown profile `{name}` (see `rtm suite`)"))?;
    Ok(Some(w))
}

/// Reads the trace named by `--trace` (stdin for `-`), or generates the
/// tier workload named by `--profile`.
fn read_trace(args: &CliArgs) -> Result<AccessSequence, Box<dyn Error>> {
    if let Some(w) = tier_workload(args)? {
        return Ok(w.generate());
    }
    let path = args
        .get("trace")
        .ok_or("missing required option --trace (or --profile)")?;
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("cannot read trace from stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?
    };
    Ok(AccessSequence::parse(&text)?)
}

/// Resolves `--strategy` (`default` when absent) through the library's
/// registry, with the search options `--budget-evals`, `--budget-ms`,
/// `--budget-stall`, `--seed` and `--lanes`.
fn parse_strategy(args: &CliArgs, default: StrategyKind) -> Result<Strategy, Box<dyn Error>> {
    let budget = Budget::from_limits(
        args.get_parsed("budget-evals")?,
        args.get_parsed("budget-ms")?,
        args.get_parsed("budget-stall")?,
    );
    let name = args.get("strategy").unwrap_or(default.cli_name());
    Ok(Strategy::from_cli(
        name,
        budget,
        args.get_parsed("seed")?,
        args.get("lanes"),
    )?)
}

/// The resolved problem of a `place`/`simulate` invocation: the placement
/// problem plus the one array geometry both it and the simulator are built
/// from (so the two can never drift apart).
pub(crate) struct ProblemSpec {
    pub(crate) problem: PlacementProblem,
    pub(crate) array: ArrayGeometry,
}

impl ProblemSpec {
    /// DBCs per subarray.
    pub(crate) fn dbcs(&self) -> usize {
        self.array.dbcs_per_subarray()
    }

    /// Locations per DBC (per-subarray track length).
    pub(crate) fn capacity(&self) -> usize {
        self.array.locations_per_dbc()
    }

    pub(crate) fn ports(&self) -> usize {
        self.array.ports_per_track()
    }

    pub(crate) fn subarrays(&self) -> usize {
        self.array.subarrays()
    }
}

/// Resolves `--dbcs`, `--subarrays`, `--capacity` and `--ports` to the
/// array a trace of `vars` variables is placed on.
///
/// Without `--subarrays` this is the historical flat array (default
/// capacity grows to fit the trace). With `--subarrays N` the capacity
/// defaults to the paper-faithful 4 KiB subarray track length — tracks are
/// never grown; workloads must fit the `N`-subarray array.
fn build_array(args: &CliArgs, vars: usize) -> Result<ArrayGeometry, Box<dyn Error>> {
    let dbcs: usize = args
        .get_parsed("dbcs")?
        .unwrap_or(PlacementProblem::DEFAULT_DBCS);
    if dbcs == 0 {
        return Err("--dbcs must be at least 1".into());
    }
    let subarrays: usize = args.get_parsed("subarrays")?.unwrap_or(1);
    if subarrays == 0 {
        return Err("--subarrays must be at least 1".into());
    }
    // A multi-subarray array keeps the paper's tracks; a flat one grows
    // them to fit the trace.
    let fit_vars = if subarrays > 1 { 0 } else { vars };
    let capacity: usize = args
        .get_parsed("capacity")?
        .unwrap_or_else(|| default_capacity(dbcs, fit_vars));
    if capacity == 0 {
        return Err("--capacity must be at least 1".into());
    }
    let ports: usize = args
        .get_parsed("ports")?
        .unwrap_or(PlacementProblem::DEFAULT_PORTS);
    if ports == 0 {
        return Err("--ports must be at least 1".into());
    }
    if ports > capacity {
        return Err(format!("--ports {ports} exceeds the track length {capacity}").into());
    }
    let subarray = rtm_arch::RtmGeometry::new(dbcs, 32, capacity, ports)?;
    Ok(ArrayGeometry::new(subarrays, subarray)?)
}

/// Builds the placement problem implied by the options.
fn build_problem(args: &CliArgs, seq: &AccessSequence) -> Result<ProblemSpec, Box<dyn Error>> {
    let array = build_array(args, seq.vars().len())?;
    let threads: usize = args.get_parsed("threads")?.unwrap_or(0);
    let problem = PlacementProblem::for_array(seq.clone(), &array).with_threads(threads);
    Ok(ProblemSpec { problem, array })
}
