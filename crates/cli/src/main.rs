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

use rtm_placement::inter::default_capacity;
use rtm_placement::{
    Budget, GaConfig, LaneSpec, PlacementProblem, PortfolioConfig, RandomWalkConfig, SaConfig,
    Strategy, TabuConfig,
};
use rtm_sim::Simulator;
use rtm_trace::AccessSequence;
use std::io::Read;
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
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
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
    --strategy NAME   afd-ofu | dma-ofu | dma-chen | dma-sr | dma-multi-sr |
                      ga | rw | sa | tabu | portfolio  (default dma-sr)
    --budget-evals N  eval budget for sa/tabu/portfolio (default 50000;
                      per lane for portfolio)
    --budget-ms N     wall-clock budget in milliseconds for sa/tabu/portfolio
                      (combinable with --budget-evals; whichever fires first)
    --budget-stall N  stop after N evals without improvement (sa/tabu/portfolio)
    --lanes L,L,...   portfolio lanes from sa,tabu,ga,rw (default all four)
    --seed N          RNG seed for sa/tabu/portfolio (fixed defaults otherwise)
    --threads N       fitness-engine workers for the search strategies, on
                      both the materialized and --stream paths (default: all
                      cores; results are identical for any value)
    --json            machine-readable output for place/simulate
    --benchmark NAME  one benchmark of the OffsetStone-style suite

SERVE OPTIONS (see README `Serving` for the line protocol):
    --addr HOST:PORT  bind address (default 127.0.0.1:0; the resolved
                      address is printed as `listening on ADDR`)
    --max-inflight N  admission-control bound on concurrent place solves
                      (default 32; beyond it requests get `error: overloaded`)
    --max-traces N    cross-request cache capacity in traces (default 64, LRU)
    --deadline-ms N   default wall-clock deadline per request (default 10000;
                      requests may tighten it with deadline-ms=N)";

/// Resolves `--profile NAME` (with `--scale S`) to a tier workload, if
/// given.
fn tier_workload(
    args: &CliArgs,
) -> Result<Option<rtm_offsetstone::TierWorkload>, Box<dyn std::error::Error>> {
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
fn read_trace(args: &CliArgs) -> Result<AccessSequence, Box<dyn std::error::Error>> {
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

/// Resolves a strategy name, reading the search options (`--budget-evals`,
/// `--budget-ms`, `--budget-stall`, `--lanes`, `--seed`) for the anytime
/// strategies.
fn parse_strategy(name: &str, args: &CliArgs) -> Result<Strategy, String> {
    Ok(match name {
        "afd" => Strategy::AfdNative,
        "afd-ofu" => Strategy::AfdOfu,
        "dma" => Strategy::DmaNative,
        "dma-ofu" => Strategy::DmaOfu,
        "dma-chen" => Strategy::DmaChen,
        "dma-sr" => Strategy::DmaSr,
        "dma-multi-sr" => Strategy::DmaMultiSr,
        "ga" => Strategy::Ga(GaConfig::paper()),
        "rw" => Strategy::RandomWalk(RandomWalkConfig::paper()),
        "sa" => {
            let mut cfg = SaConfig::new(parse_budget(args)?);
            if let Some(seed) = args.get_parsed("seed")? {
                cfg = cfg.with_seed(seed);
            }
            Strategy::Sa(cfg)
        }
        "tabu" => {
            let mut cfg = TabuConfig::new(parse_budget(args)?);
            if let Some(seed) = args.get_parsed("seed")? {
                cfg = cfg.with_seed(seed);
            }
            Strategy::Tabu(cfg)
        }
        "portfolio" => {
            let mut cfg = PortfolioConfig::new(parse_budget(args)?);
            if let Some(seed) = args.get_parsed("seed")? {
                cfg = cfg.with_seed(seed);
            }
            if let Some(lanes) = args.get("lanes") {
                cfg.lanes = parse_lanes(lanes)?;
            }
            Strategy::Portfolio(cfg)
        }
        other => return Err(format!("unknown strategy `{other}` (see `rtm strategies`)")),
    })
}

/// Builds the [`Budget`] implied by `--budget-evals` / `--budget-ms` /
/// `--budget-stall` (default: 50 000 evaluations).
fn parse_budget(args: &CliArgs) -> Result<Budget, String> {
    let evals: Option<u64> = args.get_parsed("budget-evals")?;
    let ms: Option<u64> = args.get_parsed("budget-ms")?;
    let stall: Option<u64> = args.get_parsed("budget-stall")?;
    let mut budget = match (evals, ms) {
        (Some(n), _) => Budget::evals(n),
        (None, Some(m)) => Budget::wall_clock_ms(m),
        (None, None) => Budget::evals(50_000),
    };
    if let (Some(_), Some(m)) = (evals, ms) {
        budget = budget.and_wall_clock_ms(m);
    }
    if let Some(s) = stall {
        budget = budget.and_stall(s);
    }
    Ok(budget)
}

/// Parses the `--lanes` list (`sa,tabu,ga,rw`).
fn parse_lanes(list: &str) -> Result<Vec<LaneSpec>, String> {
    let lanes: Vec<LaneSpec> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| LaneSpec::parse(s).ok_or_else(|| format!("unknown lane `{s}` (sa|tabu|ga|rw)")))
        .collect::<Result<_, _>>()?;
    if lanes.is_empty() {
        return Err("--lanes needs at least one of sa,tabu,ga,rw".into());
    }
    Ok(lanes)
}

/// The resolved problem of a `place`/`simulate` invocation: the placement
/// problem plus the one array geometry both it and the simulator are built
/// from (so the two can never drift apart).
pub(crate) struct ProblemSpec {
    pub(crate) problem: PlacementProblem,
    pub(crate) array: rtm_arch::ArrayGeometry,
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

/// Builds the placement problem implied by the options.
///
/// Without `--subarrays` this is the historical flat problem (default
/// capacity grows to fit the trace). With `--subarrays N` the capacity
/// defaults to the paper-faithful 4 KiB subarray track length — tracks are
/// never grown; workloads must fit the `N`-subarray array.
fn build_problem(
    args: &CliArgs,
    seq: &AccessSequence,
) -> Result<ProblemSpec, Box<dyn std::error::Error>> {
    let dbcs: usize = args.get_parsed("dbcs")?.unwrap_or(4);
    if dbcs == 0 {
        return Err("--dbcs must be at least 1".into());
    }
    let subarrays: usize = args.get_parsed("subarrays")?.unwrap_or(1);
    if subarrays == 0 {
        return Err("--subarrays must be at least 1".into());
    }
    // A multi-subarray array keeps the paper's tracks; a flat one grows
    // them to fit the trace.
    let fit_vars = if subarrays > 1 { 0 } else { seq.vars().len() };
    let default_cap = default_capacity(dbcs, fit_vars);
    let capacity: usize = args.get_parsed("capacity")?.unwrap_or(default_cap);
    let ports: usize = args.get_parsed("ports")?.unwrap_or(1);
    if ports == 0 {
        return Err("--ports must be at least 1".into());
    }
    if ports > capacity {
        return Err(format!("--ports {ports} exceeds the track length {capacity}").into());
    }
    let threads: usize = args.get_parsed("threads")?.unwrap_or(0);
    let subarray = rtm_arch::RtmGeometry::new(dbcs, 32, capacity, ports)?;
    let array = rtm_arch::ArrayGeometry::new(subarrays, subarray)?;
    let problem = PlacementProblem::for_array(seq.clone(), &array).with_threads(threads);
    Ok(ProblemSpec { problem, array })
}

/// Builds a simulator matching the problem geometry (per-operation
/// constants from Table I for the per-subarray DBC count).
fn build_simulator(spec: &ProblemSpec) -> Simulator {
    Simulator::for_array(&spec.array)
}
