//! The five subcommands.

use crate::args::CliArgs;
use crate::{build_problem, build_simulator, parse_strategy, read_trace, ProblemSpec};
use rtm_offsetstone::{suite as bench_suite, Benchmark, Tier, TierWorkload};
use rtm_placement::eval::FitnessEngine;
use rtm_placement::{
    random_walk, CostModel, GeneticPlacer, Portfolio, SimulatedAnnealing, Solution, Strategy,
    StrategyKind, TabuSearch,
};
use rtm_serve::report::{json_escape, solution_fields, Geometry};
use rtm_serve::server::{ServeConfig, Server};
use rtm_sim::SimStats;
use rtm_trace::{AccessSequence, AccessStream};
use std::fmt::Write as _;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// `rtm place` — solve the placement and print the layout (or, with
/// `--json`, the machine-readable report).
pub fn place(args: &CliArgs) -> CmdResult {
    println!("{}", place_report(args)?);
    Ok(())
}

/// `rtm simulate` — place and replay, printing latency/energy (or, with
/// `--json`, the machine-readable report).
pub fn simulate(args: &CliArgs) -> CmdResult {
    println!("{}", simulate_report(args)?);
    Ok(())
}

/// Builds the full `rtm place` output.
pub(crate) fn place_report(args: &CliArgs) -> Result<String, Box<dyn std::error::Error>> {
    let seq = read_trace(args)?;
    let spec = build_problem(args, &seq)?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("dma-sr"), args)?;
    let sol = spec.problem.solve(&strategy)?;
    if args.flag("json") {
        return Ok(json_report("place", &strategy, &spec, &seq, &sol, None));
    }
    // Flat invocations keep the historical header verbatim; the subarray
    // prefix only appears for a real hierarchy.
    let geometry_label = if spec.subarrays() > 1 {
        format!("{} subarrays x {} DBCs", spec.subarrays(), spec.dbcs())
    } else {
        format!("{} DBCs", spec.dbcs())
    };
    let mut out = format!(
        "strategy {} on {geometry_label} x {} locations ({} port(s)/track): {} shifts",
        strategy.name(),
        spec.capacity(),
        spec.ports(),
        sol.shifts
    );
    // Search strategies carry budget telemetry; heuristics (0 evals) keep
    // the historical output verbatim.
    if sol.evals_consumed > 0 {
        write!(
            out,
            "\nsearch: {} evals, best found after {:.1} ms",
            sol.evals_consumed,
            sol.time_to_best.as_secs_f64() * 1e3
        )?;
        // Per-lane telemetry exists only for the portfolio strategy.
        for lane in &sol.lanes {
            write!(
                out,
                "\nlane {}: {}, cost {}, {} evals",
                lane.name,
                lane.status,
                lane.cost.map_or_else(|| "-".to_string(), |c| c.to_string()),
                lane.evals
            )?;
        }
    }
    for (d, list) in sol.placement.dbc_lists().iter().enumerate() {
        let names: Vec<&str> = list.iter().map(|&v| seq.vars().name(v)).collect();
        let label = if spec.subarrays() > 1 {
            format!("S{}.DBC{}", d / spec.dbcs(), d % spec.dbcs())
        } else {
            format!("DBC{d}")
        };
        write!(
            out,
            "\n{label} ({} shifts): {}",
            sol.per_dbc_shifts[d],
            names.join(" ")
        )?;
    }
    Ok(out)
}

/// Builds the full `rtm simulate` output.
pub(crate) fn simulate_report(args: &CliArgs) -> Result<String, Box<dyn std::error::Error>> {
    let seq = read_trace(args)?;
    let spec = build_problem(args, &seq)?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("dma-sr"), args)?;
    let sol = spec.problem.solve(&strategy)?;
    let sim = build_simulator(&spec);
    let stats = sim.run(&seq, &sol.placement)?;
    if args.flag("json") {
        return Ok(json_report(
            "simulate",
            &strategy,
            &spec,
            &seq,
            &sol,
            Some(&stats),
        ));
    }
    Ok(format!(
        "strategy {}: {stats}\nruntime {:.1} (incl. compute gaps)",
        strategy.name(),
        stats.runtime()
    ))
}

/// `rtm place --stream` — solve through the bounded-memory streaming
/// pipeline (the trace is indexed, never materialized).
pub fn place_stream(args: &CliArgs) -> CmdResult {
    let (spec, outcome) = stream_solve(args)?;
    let mut out = format!(
        "strategy {} on {} DBCs x {} locations ({} port(s)/track): {} shifts [streamed]",
        outcome.strategy_name, spec.dbcs, spec.capacity, spec.ports, outcome.cost
    );
    write!(
        out,
        "\nsearch: {} evals, best found after {:.1} ms",
        outcome.evals,
        outcome.time_to_best_ms()
    )?;
    let per_dbc = outcome.engine.per_dbc_costs(outcome.placement.dbc_lists());
    for (d, list) in outcome.placement.dbc_lists().iter().enumerate() {
        // Streams carry no symbol table; variables print positionally.
        let names: Vec<String> = list.iter().map(|v| format!("v{}", v.index())).collect();
        write!(out, "\nDBC{d} ({} shifts): {}", per_dbc[d], names.join(" "))?;
    }
    println!("{out}");
    Ok(())
}

/// `rtm simulate --stream` — solve as [`place_stream`], then replay the
/// stream through [`rtm_sim::Simulator::run_stream`].
pub fn simulate_stream(args: &CliArgs) -> CmdResult {
    let (spec, outcome) = stream_solve(args)?;
    let geometry = rtm_arch::RtmGeometry::new(spec.dbcs, 32, spec.capacity, spec.ports)?;
    let params = rtm_arch::table1::preset(spec.dbcs)
        .unwrap_or_else(|| rtm_arch::ScalingModel::from_table1().params(spec.dbcs));
    let sim = rtm_sim::Simulator::new(geometry, params)?;
    let stats = sim.run_stream(&spec.workload, &outcome.placement)?;
    println!(
        "strategy {} [streamed]: {stats}\nruntime {:.1} (incl. compute gaps)",
        outcome.strategy_name,
        stats.runtime()
    );
    Ok(())
}

/// The resolved geometry of a `--stream` invocation.
struct StreamSpec {
    workload: TierWorkload,
    dbcs: usize,
    capacity: usize,
    ports: usize,
}

/// A solved streaming placement with its telemetry (and the engine it was
/// costed on, for per-DBC reporting).
struct StreamOutcome<'a> {
    strategy_name: &'static str,
    placement: rtm_placement::Placement,
    cost: u64,
    evals: u64,
    time_to_best: std::time::Duration,
    engine: FitnessEngine<'a>,
}

impl StreamOutcome<'_> {
    fn time_to_best_ms(&self) -> f64 {
        self.time_to_best.as_secs_f64() * 1e3
    }
}

/// Resolves `--profile`/`--scale`/geometry and runs the selected anytime
/// strategy through a streaming [`FitnessEngine`].
fn stream_solve(
    args: &CliArgs,
) -> Result<(StreamSpec, StreamOutcome<'static>), Box<dyn std::error::Error>> {
    let workload = crate::tier_workload(args)?
        .ok_or("--stream requires --profile (a file trace is already materialized)")?;
    if args.flag("json") {
        return Err("--json is not supported with --stream".into());
    }
    if args.get("subarrays").is_some() {
        return Err("--subarrays is not supported with --stream".into());
    }
    let dbcs: usize = args.get_parsed("dbcs")?.unwrap_or(4);
    if dbcs == 0 {
        return Err("--dbcs must be at least 1".into());
    }
    let paper_cap = 4096 * 8 / (dbcs * 32);
    let default_cap = paper_cap.max(workload.var_count().div_ceil(dbcs));
    let capacity: usize = args.get_parsed("capacity")?.unwrap_or(default_cap);
    let ports: usize = args.get_parsed("ports")?.unwrap_or(1);
    if ports == 0 {
        return Err("--ports must be at least 1".into());
    }
    if ports > capacity {
        return Err(format!("--ports {ports} exceeds the track length {capacity}").into());
    }
    let cost = if ports == 1 {
        CostModel::single_port()
    } else {
        CostModel::multi_port(ports, capacity)
    };
    let strategy = parse_strategy(args.get("strategy").unwrap_or("sa"), args)?;
    let strategy_name = strategy.name();
    // --threads/--shards reach the streaming engine exactly as they reach
    // the materialized one (build_problem): results are identical for any
    // value of either.
    let threads: usize = args.get_parsed("threads")?.unwrap_or(0);
    let shards: usize = args.get_parsed("shards")?.unwrap_or(0);
    let engine = FitnessEngine::streaming(&workload, cost)
        .with_threads(threads)
        .with_shards(shards);
    let (placement, total, evals, time_to_best) = match &strategy {
        Strategy::Sa(cfg) => {
            let o = SimulatedAnnealing::new(*cfg).run_with_engine(&engine, dbcs, capacity, &[])?;
            (o.placement, o.cost, o.evals, o.time_to_best)
        }
        Strategy::Tabu(cfg) => {
            let o = TabuSearch::new(*cfg).run_with_engine(&engine, dbcs, capacity, &[])?;
            (o.placement, o.cost, o.evals, o.time_to_best)
        }
        Strategy::Portfolio(cfg) => {
            let o = Portfolio::new(cfg.clone()).run_with_engine(&engine, dbcs, capacity, &[])?;
            let best = o.best();
            (
                best.placement.clone(),
                best.cost,
                o.total_evals,
                best.time_to_best,
            )
        }
        Strategy::Ga(cfg) => {
            let o = GeneticPlacer::new(*cfg).run_with_engine(&engine, dbcs, capacity, &[])?;
            let cost = o.best_cost;
            (o.best, cost, o.evaluations as u64, o.time_to_best)
        }
        Strategy::RandomWalk(cfg) => {
            let o = random_walk::run_budgeted(
                &engine,
                dbcs,
                capacity,
                cfg.seed,
                rtm_placement::Budget::evals(cfg.iterations as u64),
                None,
            )?;
            (o.placement, o.cost, o.evals, o.time_to_best)
        }
        other => {
            return Err(format!(
            "strategy {} needs a materialized trace; --stream supports sa, tabu, ga, rw, portfolio",
            other.name()
        )
            .into())
        }
    };
    Ok((
        StreamSpec {
            workload,
            dbcs,
            capacity,
            ports,
        },
        StreamOutcome {
            strategy_name,
            placement,
            cost: total,
            evals,
            time_to_best,
            engine,
        },
    ))
}

/// The stable machine-readable schema shared by `place` and `simulate`:
/// the workspace-wide [`solution_fields`] payload (also what the serve
/// protocol emits, so the two can never drift) wrapped in the CLI's
/// `{"command":…}` envelope — plus a `simulation` object when simulator
/// statistics are available.
fn json_report(
    command: &str,
    strategy: &Strategy,
    spec: &ProblemSpec,
    seq: &AccessSequence,
    sol: &Solution,
    stats: Option<&SimStats>,
) -> String {
    let geom = Geometry {
        subarrays: spec.subarrays(),
        dbcs_per_subarray: spec.dbcs(),
        locations_per_dbc: spec.capacity(),
        ports_per_track: spec.ports(),
    };
    let mut out = format!(
        "{{\"command\":\"{}\",{}",
        json_escape(command),
        solution_fields(strategy, &geom, seq, sol)
    );
    if let Some(s) = stats {
        let _ = write!(
            out,
            ",\"simulation\":{{\"reads\":{},\"writes\":{},\"shifts\":{},\
             \"shifts_per_access\":{:.6},\"latency_ns\":{:.6},\"runtime_ns\":{:.6},\
             \"energy_pj\":{{\"leakage\":{:.6},\"read_write\":{:.6},\"shift\":{:.6},\
             \"total\":{:.6}}}}}",
            s.reads,
            s.writes,
            s.shifts,
            s.shifts_per_access(),
            s.latency.total().value(),
            s.runtime().value(),
            s.energy.leakage.value(),
            s.energy.read_write.value(),
            s.energy.shift.value(),
            s.energy.total().value()
        );
    }
    out.push('}');
    out
}

/// `rtm stats` — trace shape summary.
pub fn stats(args: &CliArgs) -> CmdResult {
    let seq = read_trace(args)?;
    let st = seq.stats();
    println!("accesses:            {}", st.length);
    println!("variables:           {}", st.variables);
    println!("distinct edges:      {}", st.distinct_transitions);
    println!("self transitions:    {}", st.self_transitions);
    println!("mean frequency:      {:.2}", st.mean_frequency);
    println!("max frequency:       {}", st.max_frequency);
    println!("mean lifespan:       {:.1}", st.mean_lifespan);
    println!(
        "disjoint pairs:      {:.1}%  (DMA's raw material)",
        st.disjoint_pair_fraction * 100.0
    );
    Ok(())
}

/// `rtm suite` — list the synthetic OffsetStone suite and the workload
/// tiers, or show one entry (a benchmark or a tier profile).
pub fn suite(args: &CliArgs) -> CmdResult {
    match args.get("benchmark") {
        Some(name) => {
            if let Some(b) = Benchmark::by_name(name) {
                let p = b.profile();
                let trace = b.trace();
                println!("{} ({}):", b.name(), p.class);
                println!("  variables {} / length {}", p.variables, p.length);
                println!("  phases {} / zipf {:.1}", p.phases, p.zipf_exponent);
                println!("  generated: {}", trace.stats());
            } else if let Some(w) = TierWorkload::by_name(name, 1.0) {
                let (vars, len) = (w.var_count(), w.access_count());
                println!("{} (tier {}):", w.name(), w.tier());
                println!("  variables {vars} / length {len}  (at --scale 1)");
                println!("  seed {:#018x}", w.seed());
                println!("  generated: {}", w.generate().stats());
            } else {
                return Err(format!("unknown benchmark or profile `{name}`").into());
            }
        }
        None => {
            println!("{:10} {:>6} {:>7}  class", "name", "vars", "length");
            for b in bench_suite() {
                let p = b.profile();
                println!(
                    "{:10} {:>6} {:>7}  {}",
                    b.name(),
                    p.variables,
                    p.length,
                    p.class
                );
            }
            println!("\nworkload tiers (usable as --profile NAME [--scale S]):");
            println!("{:13} {:>6} {:>7}  tier", "name", "vars", "length");
            for tier in Tier::ALL {
                for w in tier.workloads() {
                    let (vars, len) = (w.var_count(), w.access_count());
                    println!("{:13} {:>6} {:>7}  {}", w.name(), vars, len, tier);
                }
            }
        }
    }
    Ok(())
}

/// `rtm strategies` — list strategy names with one-line descriptions,
/// straight from the library's exhaustive [`StrategyKind`] registry (a new
/// strategy appears here without touching the CLI).
pub fn strategies() -> CmdResult {
    for kind in StrategyKind::ALL {
        println!("{:14} {}", kind.cli_name(), kind.description());
    }
    Ok(())
}

/// `rtm serve` — run the placement daemon until a `shutdown` request.
/// Prints one `listening on ADDR` line (so scripts and tests can read the
/// resolved port when binding port 0), then serves the line protocol.
pub fn serve(args: &CliArgs) -> CmdResult {
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: args
            .get("addr")
            .map_or(defaults.addr, std::string::ToString::to_string),
        threads: args.get_parsed("threads")?.unwrap_or(defaults.threads),
        max_inflight: args
            .get_parsed("max-inflight")?
            .unwrap_or(defaults.max_inflight),
        max_cached_traces: args
            .get_parsed("max-traces")?
            .unwrap_or(defaults.max_cached_traces),
        default_deadline_ms: args
            .get_parsed("deadline-ms")?
            .unwrap_or(defaults.default_deadline_ms),
    };
    let server = Server::bind(config)?;
    println!("listening on {}", server.local_addr()?);
    // The address line must reach a pipe-connected parent before the
    // accept loop blocks.
    std::io::Write::flush(&mut std::io::stdout())?;
    server.run();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> CliArgs {
        // An empty value denotes a bare boolean flag (e.g. `--json`).
        let argv: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| {
                if v.is_empty() {
                    vec![format!("--{k}")]
                } else {
                    vec![format!("--{k}"), v.to_string()]
                }
            })
            .collect();
        CliArgs::parse(argv.into_iter()).unwrap()
    }

    fn trace_file(content: &str) -> std::path::PathBuf {
        // One path per call: tests run in parallel and delete their files,
        // so two tests must never share one.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "rtm_cli_test_{}_{}.txt",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn place_runs_on_a_file() {
        let f = trace_file("a b a b c c a");
        let a = args(&[("trace", f.to_str().unwrap()), ("dbcs", "2")]);
        place(&a).unwrap();
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn simulate_runs_with_strategy_choice() {
        let f = trace_file("x y x y z z");
        let a = args(&[
            ("trace", f.to_str().unwrap()),
            ("dbcs", "4"),
            ("strategy", "afd-ofu"),
        ]);
        simulate(&a).unwrap();
        let _ = std::fs::remove_file(f);
    }

    /// The workspace-shared strict JSON validator (`rtm_serve::json`):
    /// the `--json` outputs must be *valid* JSON, not just JSON-looking
    /// text.
    mod json {
        pub use rtm_serve::json::validate as parse;
    }

    #[test]
    fn place_json_is_valid_and_carries_the_schema() {
        let f = trace_file("a b a b c c a");
        let a = args(&[("trace", f.to_str().unwrap()), ("dbcs", "2"), ("json", "")]);
        let out = place_report(&a).unwrap();
        json::parse(&out).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{out}"));
        for key in [
            "\"command\":\"place\"",
            "\"strategy\":\"DMA-SR\"",
            "\"geometry\"",
            "\"subarrays\":1",
            "\"dbcs_per_subarray\":2",
            "\"locations_per_dbc\"",
            "\"ports_per_track\":1",
            "\"total_dbcs\":2",
            "\"total_shifts\"",
            "\"per_subarray_shifts\"",
            "\"dbcs\":[",
            "\"vars\":[",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn simulate_json_is_valid_and_includes_simulation_totals() {
        let f = trace_file("x y x y z z x");
        let a = args(&[
            ("trace", f.to_str().unwrap()),
            ("dbcs", "2"),
            ("subarrays", "2"),
            ("capacity", "2"),
            ("json", ""),
        ]);
        let out = simulate_report(&a).unwrap();
        json::parse(&out).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{out}"));
        for key in [
            "\"command\":\"simulate\"",
            "\"subarrays\":2",
            "\"total_dbcs\":4",
            "\"simulation\"",
            "\"reads\"",
            "\"energy_pj\"",
            "\"runtime_ns\"",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn place_and_simulate_accept_subarrays() {
        // 6 variables on 2 subarrays x 2 DBCs x 2 slots: no single
        // subarray could hold them; tracks stay paper-faithful.
        let f = trace_file("a b c d e f a b c");
        for cmd in [place as fn(&CliArgs) -> CmdResult, simulate] {
            let a = args(&[
                ("trace", f.to_str().unwrap()),
                ("dbcs", "2"),
                ("capacity", "2"),
                ("subarrays", "2"),
            ]);
            cmd(&a).unwrap();
        }
        // Subarray labels appear in the human-readable layout.
        let a = args(&[
            ("trace", f.to_str().unwrap()),
            ("dbcs", "2"),
            ("capacity", "2"),
            ("subarrays", "2"),
        ]);
        let out = place_report(&a).unwrap();
        assert!(out.contains("S1.DBC0"), "missing subarray label in {out}");
        // Zero subarrays, or a workload that cannot fit, are errors.
        let bad = args(&[("trace", f.to_str().unwrap()), ("subarrays", "0")]);
        assert!(place(&bad).is_err());
        let tight = args(&[
            ("trace", f.to_str().unwrap()),
            ("dbcs", "1"),
            ("capacity", "2"),
            ("subarrays", "2"),
        ]);
        assert!(place(&tight).is_err(), "6 vars cannot fit 4 slots");
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn single_subarray_output_is_unchanged() {
        // The flat invocation keeps its historical DBC labels (no subarray
        // prefix) — goldens that scrape it stay valid.
        let f = trace_file("a b a b c c a");
        let a = args(&[("trace", f.to_str().unwrap()), ("dbcs", "2")]);
        let out = place_report(&a).unwrap();
        assert!(out.contains("on 2 DBCs x "), "header changed: {out}");
        assert!(out.contains("\nDBC0 ("));
        assert!(!out.contains("subarray"));
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn place_and_simulate_accept_ports() {
        let f = trace_file("a b a b c c a b a");
        for cmd in [place as fn(&CliArgs) -> CmdResult, simulate] {
            let a = args(&[
                ("trace", f.to_str().unwrap()),
                ("dbcs", "2"),
                ("ports", "2"),
            ]);
            cmd(&a).unwrap();
        }
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn invalid_ports_are_an_error() {
        let f = trace_file("a b");
        for bad in ["0", "100000"] {
            let a = args(&[("trace", f.to_str().unwrap()), ("ports", bad)]);
            assert!(place(&a).is_err(), "--ports {bad} should be rejected");
        }
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn place_runs_the_anytime_strategies() {
        let f = trace_file("a b a b c c a b a c a b");
        for strat in ["sa", "tabu", "portfolio"] {
            let a = args(&[
                ("trace", f.to_str().unwrap()),
                ("dbcs", "2"),
                ("strategy", strat),
                ("budget-evals", "200"),
            ]);
            let out = place_report(&a).unwrap();
            assert!(out.contains("search: "), "{strat} lacks telemetry: {out}");
            assert!(out.contains(" evals, best found after "), "{strat}: {out}");
        }
        // Lane selection and the stall/deadline budget axes parse and run.
        let a = args(&[
            ("trace", f.to_str().unwrap()),
            ("dbcs", "2"),
            ("strategy", "portfolio"),
            ("lanes", "sa,rw"),
            ("budget-evals", "100"),
            ("budget-stall", "50"),
            ("seed", "7"),
        ]);
        place(&a).unwrap();
        let a = args(&[
            ("trace", f.to_str().unwrap()),
            ("dbcs", "2"),
            ("strategy", "sa"),
            ("budget-ms", "20"),
        ]);
        place(&a).unwrap();
        let bad = args(&[
            ("trace", f.to_str().unwrap()),
            ("strategy", "portfolio"),
            ("lanes", "bogus"),
        ]);
        assert!(place(&bad).is_err());
        let empty = args(&[
            ("trace", f.to_str().unwrap()),
            ("strategy", "portfolio"),
            ("lanes", ","),
        ]);
        assert!(place(&empty).is_err());
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn place_json_carries_search_telemetry() {
        let f = trace_file("a b a b c c a b a c");
        let a = args(&[
            ("trace", f.to_str().unwrap()),
            ("dbcs", "2"),
            ("strategy", "tabu"),
            ("budget-evals", "150"),
            ("json", ""),
        ]);
        let out = place_report(&a).unwrap();
        json::parse(&out).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{out}"));
        assert!(out.contains("\"search\":{\"evals_consumed\":"), "{out}");
        assert!(out.contains("\"time_to_best_ms\":"), "{out}");
        assert!(out.contains("\"elapsed_ms\":"), "{out}");
        assert!(out.contains("\"stop\":\"evals\""), "{out}");
        assert!(!out.contains("\"lanes\":"), "single-lane solve: {out}");
        // Heuristic solves report the zero-telemetry form.
        let a = args(&[("trace", f.to_str().unwrap()), ("dbcs", "2"), ("json", "")]);
        let out = place_report(&a).unwrap();
        assert!(out.contains("\"search\":{\"evals_consumed\":0,"), "{out}");
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn place_json_reports_portfolio_lane_outcomes() {
        let f = trace_file("a b a b c c a b a c");
        let a = args(&[
            ("trace", f.to_str().unwrap()),
            ("dbcs", "2"),
            ("strategy", "portfolio"),
            ("lanes", "sa,tabu"),
            ("budget-evals", "120"),
            ("json", ""),
        ]);
        let out = place_report(&a).unwrap();
        json::parse(&out).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{out}"));
        assert!(out.contains("\"lanes\":[{\"name\":\"sa\""), "{out}");
        assert!(out.contains("\"name\":\"tabu\""), "{out}");
        assert!(out.contains("\"status\":\"completed\""), "{out}");
        assert!(out.contains("\"cost\":"), "{out}");
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn profile_generates_a_workload_trace() {
        // Materialized tier workload in place of a trace file.
        let a = args(&[("profile", "expected-dsp"), ("scale", "0.1"), ("dbcs", "2")]);
        place(&a).unwrap();
        stats(&a).unwrap();
        // Unknown profile and trace/profile conflict are errors.
        assert!(place(&args(&[("profile", "nope")])).is_err());
        let f = trace_file("a b");
        let both = args(&[("trace", f.to_str().unwrap()), ("profile", "expected-dsp")]);
        assert!(place(&both).is_err());
        let bad_scale = args(&[("profile", "expected-dsp"), ("scale", "-1")]);
        assert!(place(&bad_scale).is_err());
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn stream_place_and_simulate_run() {
        for cmd in [place_stream as fn(&CliArgs) -> CmdResult, simulate_stream] {
            let a = args(&[
                ("profile", "adv-ping"),
                ("scale", "0.2"),
                ("dbcs", "2"),
                ("strategy", "sa"),
                ("budget-evals", "150"),
                ("seed", "3"),
            ]);
            cmd(&a).unwrap();
        }
        // rw and portfolio route through their engine entry points too.
        let a = args(&[
            ("profile", "expected-ctl"),
            ("scale", "0.2"),
            ("strategy", "rw"),
        ]);
        place_stream(&a).unwrap();
        let a = args(&[
            ("profile", "expected-ctl"),
            ("scale", "0.2"),
            ("strategy", "portfolio"),
            ("budget-evals", "100"),
        ]);
        place_stream(&a).unwrap();
    }

    #[test]
    fn stream_rejects_unsupported_combinations() {
        let f = trace_file("a b a");
        // --stream without --profile.
        let a = args(&[("trace", f.to_str().unwrap()), ("stream", "")]);
        assert!(place_stream(&a).is_err());
        // Heuristic strategies need the materialized trace.
        let a = args(&[("profile", "expected-dsp"), ("strategy", "dma-sr")]);
        assert!(place_stream(&a).is_err());
        // --json and --subarrays are materialized-only for now.
        let a = args(&[("profile", "expected-dsp"), ("json", "")]);
        assert!(place_stream(&a).is_err());
        let a = args(&[("profile", "expected-dsp"), ("subarrays", "2")]);
        assert!(place_stream(&a).is_err());
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn stream_solve_matches_materialized_solve() {
        // The same SA run must find the same cost whether the trace is
        // materialized or streamed (heuristic seeds are skipped on both
        // sides by pinning the start with a fixed seed and no seeds).
        let a = args(&[
            ("profile", "stress-ctl"),
            ("scale", "0.05"),
            ("dbcs", "2"),
            ("strategy", "sa"),
            ("budget-evals", "300"),
            ("seed", "5"),
        ]);
        let (_, streamed) = stream_solve(&a).unwrap();
        let w = TierWorkload::by_name("stress-ctl", 0.05).unwrap();
        let seq = w.generate();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let capacity = seq.vars().len().div_ceil(2).max(4096 * 8 / (2 * 32));
        let cfg = rtm_placement::SaConfig::new(rtm_placement::Budget::evals(300)).with_seed(5);
        let out = SimulatedAnnealing::new(cfg)
            .run_with_engine(&engine, 2, capacity, &[])
            .unwrap();
        assert_eq!(streamed.cost, out.cost);
        assert_eq!(streamed.placement, out.placement);
    }

    #[test]
    fn stats_runs() {
        let f = trace_file("a a b b");
        stats(&args(&[("trace", f.to_str().unwrap())])).unwrap();
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn suite_lists_and_describes() {
        suite(&args(&[])).unwrap();
        suite(&args(&[("benchmark", "gzip")])).unwrap();
        // Tier profiles resolve too (the adversarial tier has no
        // Benchmark wrapper).
        suite(&args(&[("benchmark", "adv-sweep")])).unwrap();
        assert!(suite(&args(&[("benchmark", "nope")])).is_err());
    }

    #[test]
    fn strategies_prints() {
        strategies().unwrap();
    }

    #[test]
    fn missing_trace_is_an_error() {
        assert!(place(&args(&[])).is_err());
    }

    #[test]
    fn unknown_strategy_is_an_error() {
        let f = trace_file("a b");
        let a = args(&[("trace", f.to_str().unwrap()), ("strategy", "bogus")]);
        assert!(place(&a).is_err());
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn zero_dbcs_is_an_error() {
        let f = trace_file("a b");
        let a = args(&[("trace", f.to_str().unwrap()), ("dbcs", "0")]);
        assert!(place(&a).is_err());
        let _ = std::fs::remove_file(f);
    }
}
