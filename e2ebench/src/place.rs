//! `place-large`: seeded ~250k-access traces, each placed by seeded SA
//! under a fixed evaluation budget and then simulated, once per path,
//! in-process:
//!
//! * streamed: `FitnessEngine::streaming` over the benchmark's own
//!   [`AccessStream`] → SA → `Simulator::run_stream`;
//! * materialized: trace text → `AccessSequence::parse` →
//!   `PlacementProblem::solve` → `Simulator::run`.
//!
//! Every op places a trace of its own, derived from the seed and the op
//! number, so a run's figures average over trace structure.

use crate::inputs::{self, GeneratedTrace};
use crate::layers;
use crate::procfs;
use crate::report::Outcome;
use crate::spans::{self, Recorder};
use crate::stats;
use rtm_arch::{table1, RtmGeometry, ScalingModel};
use rtm_placement::eval::FitnessEngine;
use rtm_placement::{
    Budget, CostModel, EngineStats, PlacementProblem, SaConfig, Session, SimulatedAnnealing,
    Solution, Strategy, WorkerPool,
};
use rtm_sim::{SimStats, Simulator};
use rtm_trace::{AccessSequence, AccessStream, CompactPositionIndex};
use std::sync::Arc;
use std::time::Instant;

/// DBCs of the placed array.
const DBCS: usize = 8;
/// SA evaluation budget on both paths.
const SA_EVALS: u64 = 300;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops whose placements make up `shifts` and the simulated metrics, so
/// those are fixed by the seed whenever a run completes this many ops.
const PLACEMENT_OPS: usize = 6;

/// One `place-large` run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// The simulator for a flat array of `dbcs` DBCs of `capacity`
/// locations, with Table I parameters (scaled where Table I has no
/// column) — the geometry `rtm simulate` uses.
pub fn simulator(dbcs: usize, capacity: usize, ports: usize) -> Result<Simulator, String> {
    let geometry = RtmGeometry::new(dbcs, 32, capacity, ports).map_err(|e| e.to_string())?;
    let params = table1::preset(dbcs).unwrap_or_else(|| ScalingModel::from_table1().params(dbcs));
    Simulator::new(geometry, params).map_err(|e| e.to_string())
}

fn cost_model() -> CostModel {
    CostModel::single_port()
}

/// One op's inputs: its trace and SA configuration, fixed by the seed.
struct OpInput {
    stream: GeneratedTrace,
    sa: SaConfig,
    capacity: usize,
}

impl OpInput {
    fn new(stream: GeneratedTrace, sa_seed: u64) -> Self {
        // The CLI's default capacity: the paper's 4 KiB track, grown to fit.
        let capacity = (4096 * 8 / (DBCS * 32)).max(stream.var_count().div_ceil(DBCS));
        Self {
            stream,
            sa: SaConfig::new(Budget::evals(SA_EVALS)).with_seed(sa_seed),
            capacity,
        }
    }

    fn large(seed: u64, k: u64) -> Self {
        let sa_seed = inputs::derive_seed(seed, &format!("place-large/sa/{k}"));
        Self::new(inputs::large_trace(seed, k), sa_seed)
    }
}

/// What the program sets up once and reuses across ops.
struct Program {
    sim: Simulator,
    pool: Arc<WorkerPool>,
}

/// One op's placements and simulations.
#[derive(Debug, Clone)]
struct Op {
    ms: f64,
    streamed_cost: u64,
    streamed_sim: SimStats,
    materialized: Solution,
    materialized_sim: SimStats,
}

/// Both paths, untraced.
fn op(pool: &Arc<WorkerPool>, sim: &Simulator, inp: &OpInput, text: &str) -> Result<Op, String> {
    let started = Instant::now();
    let engine =
        FitnessEngine::streaming(&inp.stream, cost_model()).with_worker_pool(Arc::clone(pool));
    let sa = SimulatedAnnealing::new(inp.sa)
        .run_with_engine(&engine, DBCS, inp.capacity, &[])
        .map_err(|e| e.to_string())?;
    drop(engine);
    let streamed_sim = sim
        .run_stream(&inp.stream, &sa.placement)
        .map_err(|e| e.to_string())?;

    let seq = AccessSequence::parse(text).map_err(|e| e.to_string())?;
    let problem = PlacementProblem::new(seq, DBCS, inp.capacity);
    let materialized = problem
        .solve(&Strategy::Sa(inp.sa))
        .map_err(|e| e.to_string())?;
    let materialized_sim = sim
        .run(problem.seq(), &materialized.placement)
        .map_err(|e| e.to_string())?;
    Ok(Op {
        ms: started.elapsed().as_secs_f64() * 1e3,
        streamed_cost: sa.cost,
        streamed_sim,
        materialized,
        materialized_sim,
    })
}

/// Builds the reusable program state, then pushes a small trace through
/// both paths so lazy set-up and allocator growth happen before timing.
fn setup(seed: u64, capacity: usize) -> Result<Program, String> {
    let pool = Arc::new(WorkerPool::new(0));
    let warm = OpInput::new(
        inputs::warmup_trace(seed),
        inputs::derive_seed(seed, "place-large/sa/warm-up"),
    );
    op(
        &pool,
        &simulator(DBCS, warm.capacity, 1)?,
        &warm,
        &warm.stream.text(),
    )?;
    Ok(Program {
        sim: simulator(DBCS, capacity, 1)?,
        pool,
    })
}

/// Engine work of one traced path.
#[derive(Debug, Default)]
struct PathWork {
    stats: EngineStats,
    evals: u64,
    steals: u64,
    contended: u64,
}

/// The streamed path with a span around each call; the index build and
/// the engine wrap are the two halves of `FitnessEngine::streaming`.
fn streamed_traced(
    p: &Program,
    inp: &OpInput,
    rec: &mut Recorder,
) -> Result<(u64, SimStats, PathWork, f64), String> {
    rec.set_request(0);
    let root = rec.begin("path.streamed");
    let index = rec.time("trace.compact_index", || {
        CompactPositionIndex::from_stream(&inp.stream)
    });
    let index_mib = index.heap_bytes() as f64 / (1u64 << 20) as f64;
    let engine = rec.time("eval.engine_from_index", || {
        FitnessEngine::from_compact_index(index, cost_model()).with_worker_pool(Arc::clone(&p.pool))
    });
    let (before, steals, contended) = (engine.stats(), p.pool.steals(), p.pool.contended());
    let sa = rec
        .time("search.sa_streamed", || {
            SimulatedAnnealing::new(inp.sa).run_with_engine(&engine, DBCS, inp.capacity, &[])
        })
        .map_err(|e| e.to_string())?;
    let work = PathWork {
        stats: engine.stats().since(&before),
        evals: sa.evals,
        steals: p.pool.steals() - steals,
        contended: p.pool.contended() - contended,
    };
    drop(engine);
    let sim = rec
        .time("sim.run_stream", || {
            p.sim.run_stream(&inp.stream, &sa.placement)
        })
        .map_err(|e| e.to_string())?;
    rec.end(root);
    Ok((sa.cost, sim, work, index_mib))
}

/// The materialized path with a span around each call; engine build and
/// seeding run explicitly before the solve that would otherwise run them.
fn materialized_traced(
    p: &Program,
    inp: &OpInput,
    text: &str,
    rec: &mut Recorder,
) -> Result<(Solution, SimStats, PathWork), String> {
    rec.set_request(1);
    let root = rec.begin("path.materialized");
    let seq = rec
        .time("trace.parse", || AccessSequence::parse(text))
        .map_err(|e| e.to_string())?;
    let session = Session::new(PlacementProblem::new(seq, DBCS, inp.capacity));
    rec.time("session.engine", || {
        session.engine();
    });
    rec.time("session.heuristic_seeds", || {
        session.heuristic_seeds();
    });
    let pool = session.engine().pool();
    let (steals, contended) = (pool.steals(), pool.contended());
    let sol = rec
        .time("session.solve.sa", || session.solve(&Strategy::Sa(inp.sa)))
        .map_err(|e| e.to_string())?;
    let work = PathWork {
        stats: sol.engine_stats,
        evals: sol.evals_consumed,
        steals: pool.steals() - steals,
        contended: pool.contended() - contended,
    };
    let sim = rec
        .time("sim.run", || {
            p.sim.run(session.problem().seq(), &sol.placement)
        })
        .map_err(|e| e.to_string())?;
    rec.end(root);
    Ok((sol, sim, work))
}

/// Checks op `k`: simulator shifts equal solution shifts on both paths,
/// and the streamed engine costs the materialized placement exactly as
/// the materialized path did.
fn check_op(seed: u64, k: u64, op: &Op) -> Option<String> {
    if op.streamed_sim.shifts != op.streamed_cost {
        return Some(format!(
            "op {k} streamed: simulator {} shifts, solution {}",
            op.streamed_sim.shifts, op.streamed_cost
        ));
    }
    if op.materialized_sim.shifts != op.materialized.shifts {
        return Some(format!(
            "op {k} materialized: simulator {} shifts, solution {}",
            op.materialized_sim.shifts, op.materialized.shifts
        ));
    }
    let inp = OpInput::large(seed, k);
    let cross =
        FitnessEngine::streaming(&inp.stream, cost_model()).shift_cost(&op.materialized.placement);
    if cross != op.materialized.shifts {
        return Some(format!(
            "op {k}: streamed engine costs the materialized placement at {cross}, \
             materialized cost {}",
            op.materialized.shifts
        ));
    }
    None
}

/// What the traced run measured before the timed ops.
struct TracedOp {
    stream_pass_ms: f64,
    streamed: (u64, SimStats, PathWork, f64),
    streamed_peak_rss: f64,
    materialized: (Solution, SimStats, PathWork),
    spans: Vec<spans::Span>,
    text_bytes: usize,
}

/// Runs `place-large`.
pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let first = OpInput::large(r.seed, 0);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut program = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let p = setup(r.seed, first.capacity)?;
        setups.push(t.elapsed().as_secs_f64());
        program = Some(p);
    }
    let p = program.ok_or("no set-up")?;

    // The traced run measures op 0's streamed path before anything
    // materializes a large trace, so its peak memory is the stream's.
    let traced = if r.traced {
        let t = Instant::now();
        let mut n = 0usize;
        first.stream.for_each_chunk(&mut |vars, _| n += vars.len());
        let stream_pass_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut rec = Recorder::new(Instant::now());
        let streamed = streamed_traced(&p, &first, &mut rec)?;
        let streamed_peak_rss = procfs::peak_rss_mib()?;
        let text = first.stream.text();
        let materialized = materialized_traced(&p, &first, &text, &mut rec)?;
        Some(TracedOp {
            stream_pass_ms,
            streamed,
            streamed_peak_rss,
            materialized,
            spans: rec.into_spans(),
            text_bytes: text.len(),
        })
    } else {
        None
    };

    let mut ops: Vec<Op> = Vec::new();
    let mut timed_s = 0.0;
    let mut cpu_s = 0.0;
    loop {
        // At least one op; then stop when the next would more likely end
        // past the budget than before it.
        if let Some(last) = ops.last() {
            if timed_s + last.ms / 2e3 >= r.seconds {
                break;
            }
        }
        let k = ops.len() as u64;
        let inp = OpInput::large(r.seed, k);
        let text = inp.stream.text();
        let cpu0 = procfs::cpu_seconds()?;
        let o = op(&p.pool, &p.sim, &inp, &text)?;
        cpu_s += procfs::cpu_seconds()? - cpu0;
        timed_s += o.ms / 1e3;
        ops.push(o);
    }
    // Read before any check work.
    let peak_rss = procfs::peak_rss_mib()?;

    out.attempted = ops.len() as u64;
    for (k, o) in ops.iter().enumerate() {
        if let Some(why) = check_op(r.seed, k as u64, o) {
            out.failed += 1;
            out.fail(why);
        }
    }

    let n = ops.len();
    let setup = stats::median(&setups);
    out.set("setup_s", setup.value, setup.samples);
    out.set("ops_per_s", stats::ratio(n as f64, timed_s), n);
    let lat: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    layers::set_percentile(&mut out, "p50_ms", &lat, 50.0);
    layers::set_percentile(&mut out, "p99_ms", &lat, 99.0);
    out.set("peak_rss_mb", peak_rss, 1);
    out.set("cpu_ms_per_op", stats::ratio(cpu_s * 1e3, n as f64), n);
    let both = |f: &dyn Fn(&SimStats) -> f64| -> f64 {
        let xs: Vec<f64> = ops
            .iter()
            .take(PLACEMENT_OPS)
            .flat_map(|o| [f(&o.streamed_sim), f(&o.materialized_sim)])
            .collect();
        stats::geomean(&xs).unwrap_or(0.0)
    };
    let placed = 2 * n.min(PLACEMENT_OPS);
    out.set("shifts", both(&|s| s.shifts as f64), placed);
    out.set(
        "sim_latency_ms",
        both(&|s| s.runtime().value() * 1e-6),
        placed,
    );
    out.set(
        "sim_energy_uj",
        both(&|s| s.energy.total().value() * 1e-6),
        placed,
    );

    let streamed: Vec<f64> = ops.iter().map(|o| o.streamed_cost as f64).collect();
    let materialized: Vec<f64> = ops.iter().map(|o| o.materialized.shifts as f64).collect();
    let (gs, gm) = (
        stats::geomean(&streamed).unwrap_or(0.0),
        stats::geomean(&materialized).unwrap_or(0.0),
    );
    out.note(format!(
        "{n} ops over {timed_s:.3} s; each a trace of {} accesses and {} variable slots on \
         {DBCS} DBCs x {} locations, SA {SA_EVALS} evals per path",
        first.stream.access_count(),
        first.stream.var_count(),
        first.capacity,
    ));
    out.note(format!(
        "shifts geomean streamed {gs:.0} vs materialized {gm:.0} ({:.2}x)",
        stats::ratio(gs, gm)
    ));
    out.note(format!("op ms: {lat:?}"));
    out.note(format!("setup_s samples: {setups:?}"));

    if let Some(t) = traced {
        traced_layers(&mut out, t, &ops[0], &lat)?;
    }
    Ok(out)
}

/// The per-layer figures of the traced op (op 0 of the run).
fn traced_layers(
    out: &mut Outcome,
    t: TracedOp,
    op0: &Op,
    untraced_ms: &[f64],
) -> Result<(), String> {
    let (s_cost, s_sim, s_work, index_mib) = t.streamed;
    let (m_sol, m_sim, m_work) = t.materialized;
    if (s_cost, &m_sol.placement) != (op0.streamed_cost, &op0.materialized.placement) {
        out.fail("traced op 0 differs from untraced op 0".into());
    }
    let timed = spans::flatten(vec![t.spans]);
    let dur_ms = |name: &str| layers::durations(&timed, name, 1e-6);
    out.set("trace.stream_pass_ms", t.stream_pass_ms, 1);
    layers::set_percentile(
        out,
        "trace.compact_index_ms",
        &dur_ms("trace.compact_index"),
        50.0,
    );
    out.set("trace.compact_index_mb", index_mib, 1);
    out.set("trace.streamed_peak_rss_mb", t.streamed_peak_rss, 1);
    let parse_ms: f64 = dur_ms("trace.parse").iter().sum();
    out.set(
        "trace.parse_mb_s",
        stats::ratio(t.text_bytes as f64 / 1e6, parse_ms * 1e-3),
        1,
    );
    layers::set_percentile(
        out,
        "session.engine_build_ms.p50",
        &dur_ms("session.engine"),
        50.0,
    );
    layers::set_percentile(
        out,
        "strategy.seeds_ms.p50",
        &dur_ms("session.heuristic_seeds"),
        50.0,
    );
    layers::set_percentile(out, "search.sa_ms.p50", &dur_ms("session.solve.sa"), 50.0);
    layers::set_percentile(
        out,
        "search.sa_streamed_ms.p50",
        &dur_ms("search.sa_streamed"),
        50.0,
    );
    out.set("search.evals", (s_work.evals + m_work.evals) as f64, 2);
    out.set("search.lanes_failed", 0.0, 2);
    let mut engine = s_work.stats;
    layers::add_stats(&mut engine, &m_work.stats);
    let search_ms: f64 = dur_ms("search.sa_streamed")
        .iter()
        .chain(&dur_ms("session.solve.sa"))
        .sum();
    layers::set_eval(out, &engine, search_ms * 1e6, 2);
    out.set("pool.steals", (s_work.steals + m_work.steals) as f64, 2);
    out.set(
        "pool.contended",
        (s_work.contended + m_work.contended) as f64,
        2,
    );
    let sim_ms: f64 = dur_ms("sim.run_stream")
        .iter()
        .chain(&dur_ms("sim.run"))
        .sum();
    let accesses = (s_sim.accesses() + m_sim.accesses()) as f64;
    out.set(
        "sim.accesses_per_s",
        stats::ratio(accesses, sim_ms * 1e-3),
        2,
    );
    let unaccounted: f64 = layers::unaccounted_ms(&timed).iter().sum();
    out.set("unaccounted_ms.p50", unaccounted, 1);
    let traced_ms: f64 = timed
        .iter()
        .filter(|s| s.name.starts_with("path."))
        .map(|s| s.duration as f64 * 1e-6)
        .sum();
    layers::set_tracing(out, &untraced_ms[..1], &[traced_ms]);
    for line in layers::span_summary(&timed) {
        out.note(line);
    }
    Ok(())
}
