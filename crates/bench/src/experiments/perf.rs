//! `perf` — throughput of the placement search stack, recorded as
//! machine-readable JSON so the performance trajectory of the repository is
//! tracked alongside its correctness.
//!
//! Per DBC configuration, aggregated over the selected OffsetStone
//! benchmarks, the experiment times fitness evaluation through the
//! pre-engine *naive* path (clone + placement build + full-trace replay,
//! kept alive as [`FitnessEngine::naive`]) and through the incremental
//! engine, on three workloads:
//!
//! * **reorder** — offspring that reorder one DBC (transpose mutations),
//!   leaving membership intact; the engine merges and walks only that DBC
//!   while the naive path replays the whole trace. This is the headline
//!   evaluations/sec metric.
//! * **mixed** — the paper's §III-C mutation distribution (move :
//!   transpose : permute-all at 10 : 10 : 3): an offspring with some DBCs
//!   clean merges each dirty one, whether its membership changed or only
//!   its order, and one that permutes every DBC is replayed whole.
//! * **ga** — the actual GA run under both evaluators; throughput is
//!   measured from the engine's own evaluation-time counters, so operator
//!   overhead (selection, crossover) is excluded from the evals/sec figure
//!   and reported separately as wall time.
//!
//! Every workload asserts bit-identical costs/outcomes between the two
//! evaluators — the speedups are of *the same answers*.
//!
//! Besides the usual table/CSV output, `run` returns the `BENCH_perf.json`
//! record, which `emit` writes into the output directory.

use super::{capacity_for, simulator_for, ExperimentResult};
use crate::{ExperimentOpts, Table};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtm_offsetstone::{generate_traces, suite, Benchmark};
use rtm_placement::eval::{EvalJob, FitnessEngine};
use rtm_placement::random_walk::{self, RandomWalkConfig};
use rtm_placement::{CostModel, GaConfig, GeneticPlacer, PlacementProblem, Strategy};
use rtm_serve::json::{Fixed, Writer};
use rtm_trace::{AccessSequence, VarId};
use std::time::Instant;

/// Offspring evaluated per benchmark per fitness workload.
fn eval_budget(opts: &ExperimentOpts) -> usize {
    if opts.quick {
        512
    } else {
        4096
    }
}

/// Times of one workload under both evaluators.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Evaluations timed (identical for both sides).
    pub evals: u64,
    /// Seconds under the naive evaluator.
    pub naive_s: f64,
    /// Seconds under the incremental engine.
    pub engine_s: f64,
    /// Whether both evaluators produced bit-identical results on every
    /// fold. Recorded (not asserted) so a divergence still reaches the
    /// JSON, where CI's `"identical": false` gate fails the build.
    pub identical: bool,
}

impl Default for Pair {
    fn default() -> Self {
        Self {
            evals: 0,
            naive_s: 0.0,
            engine_s: 0.0,
            identical: true,
        }
    }
}

impl Pair {
    /// Naive evaluations per second.
    pub fn naive_eps(&self) -> f64 {
        rate(self.evals, self.naive_s)
    }

    /// Engine evaluations per second.
    pub fn engine_eps(&self) -> f64 {
        rate(self.evals, self.engine_s)
    }

    /// Engine speedup.
    pub fn speedup(&self) -> f64 {
        if self.engine_s > 0.0 {
            self.naive_s / self.engine_s
        } else {
            0.0
        }
    }

    fn fold(&mut self, evals: u64, naive_s: f64, engine_s: f64, identical: bool) {
        self.evals += evals;
        self.naive_s += naive_s;
        self.engine_s += engine_s;
        self.identical &= identical;
    }
}

/// Throughput numbers of one DBC configuration, aggregated over benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfMetrics {
    /// Reorder-only offspring stream (the incremental headline).
    pub reorder: Pair,
    /// Paper mutation-mix offspring stream.
    pub mixed: Pair,
    /// Real GA, evaluation time only (from the engine's counters).
    pub ga_eval: Pair,
    /// Real GA, end-to-end wall time (includes selection/crossover).
    pub ga_wall: Pair,
    /// Random walk, evaluation time only (from the engine's counters) —
    /// wall time is dominated by the pinned candidate-sampling RNG stream
    /// both evaluators pay identically, so this isolates the evaluator.
    pub rw_eval: Pair,
    /// Random walk end-to-end wall time.
    pub rw: Pair,
    /// DMA-SR solves timed.
    pub heuristic_solves: u64,
    /// Seconds for those solves.
    pub heuristic_s: f64,
    /// Accesses replayed by the simulator.
    pub sim_accesses: u64,
    /// Seconds for the replay.
    pub sim_s: f64,
}

fn rate(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// Deals the trace's variables round-robin into `dbcs` lists — the fixed
/// base placement the offspring streams derive from (shared with the
/// `smp` experiment).
fn base_lists(seq: &AccessSequence, dbcs: usize, capacity: usize) -> Vec<Vec<VarId>> {
    let vars = seq.liveness().by_first_occurrence();
    let mut lists: Vec<Vec<VarId>> = vec![Vec::new(); dbcs];
    let mut d = 0usize;
    for v in vars {
        while lists[d].len() >= capacity {
            d = (d + 1) % dbcs;
        }
        lists[d].push(v);
        d = (d + 1) % dbcs;
    }
    lists
}

/// Transpose two variables of DBC `d`, marking it dirty.
fn transpose(job: &mut EvalJob, d: usize, rng: &mut ChaCha8Rng) {
    let n = job.lists[d].len();
    if n >= 2 {
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        if i == j {
            j = (j + 1) % n;
        }
        job.lists[d].swap(i, j);
        job.dirty.mark(d);
    }
}

/// A reorder-only offspring stream: each job transposes two variables in
/// one random DBC (membership intact; one DBC merged per offspring).
fn reorder_jobs(
    base: &[Vec<VarId>],
    base_costs: &[u64],
    count: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<EvalJob> {
    (0..count)
        .map(|_| {
            let mut job = EvalJob::derived(base.to_vec(), base_costs.to_vec());
            let d = rng.gen_range(0..base.len());
            transpose(&mut job, d, rng);
            job
        })
        .collect()
}

/// The paper's mutation mix (move : transpose : permute-all at 10 : 10 : 3),
/// one mutation per offspring.
fn mixed_jobs(
    base: &[Vec<VarId>],
    base_costs: &[u64],
    capacity: usize,
    count: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<EvalJob> {
    let dbcs = base.len();
    (0..count)
        .map(|_| {
            let mut job = EvalJob::derived(base.to_vec(), base_costs.to_vec());
            let roll = rng.gen_range(0..23u32);
            if roll < 10 && dbcs >= 2 {
                // Move a variable to another DBC's tail.
                let src = rng.gen_range(0..dbcs);
                let dst = (src + rng.gen_range(1..dbcs)) % dbcs;
                if !job.lists[src].is_empty() && job.lists[dst].len() < capacity {
                    let i = rng.gen_range(0..job.lists[src].len());
                    let v = job.lists[src].remove(i);
                    job.lists[dst].push(v);
                    job.dirty.mark(src);
                    job.dirty.mark(dst);
                }
            } else if roll < 20 {
                let d = rng.gen_range(0..dbcs);
                transpose(&mut job, d, rng);
            } else {
                for d in 0..dbcs {
                    job.lists[d].shuffle(rng);
                    if job.lists[d].len() >= 2 {
                        job.dirty.mark(d);
                    }
                }
            }
            job
        })
        .collect()
}

/// Times one job stream under both evaluators, recording whether the
/// totals were bit-identical (a mismatch is reported, written to the JSON
/// as `"identical": false`, and caught by the CI gate — the run itself
/// completes so the record stays auditable).
fn time_stream(
    naive: &FitnessEngine<'_>,
    engine: &FitnessEngine<'_>,
    jobs: Vec<EvalJob>,
    out: &mut Pair,
) {
    let mut naive_jobs = jobs.clone();
    let t = Instant::now();
    naive.evaluate_batch(&mut naive_jobs);
    let naive_s = t.elapsed().as_secs_f64();

    let mut engine_jobs = jobs;
    let t = Instant::now();
    engine.evaluate_batch(&mut engine_jobs);
    let engine_s = t.elapsed().as_secs_f64();

    let naive_totals: Vec<u64> = naive_jobs.iter().map(EvalJob::total).collect();
    let engine_totals: Vec<u64> = engine_jobs.iter().map(EvalJob::total).collect();
    let identical = naive_totals == engine_totals;
    if !identical {
        eprintln!("ERROR: evaluator disagreement on a fitness workload");
    }
    out.fold(engine_totals.len() as u64, naive_s, engine_s, identical);
}

/// Times both evaluators over one benchmark and folds into `m`.
fn measure_benchmark(
    seq: &AccessSequence,
    dbcs: usize,
    opts: &ExperimentOpts,
    m: &mut PerfMetrics,
) {
    let capacity = capacity_for(dbcs, seq.vars().len());
    let cost = CostModel::single_port();
    let engine = FitnessEngine::new(seq, cost);
    let naive = FitnessEngine::naive(seq, cost);

    // ---- Offspring streams (the headline) -----------------------------
    let base = base_lists(seq, dbcs, capacity);
    let base_costs = engine.per_dbc_costs(&base);
    let budget = eval_budget(opts);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ dbcs as u64);
    // No warm-up: the memo promotes a list on its second touch, so the
    // measurement includes the engine's real cold-start cost.
    let jobs = reorder_jobs(&base, &base_costs, budget, &mut rng);
    time_stream(&naive, &engine, jobs, &mut m.reorder);
    let jobs = mixed_jobs(&base, &base_costs, capacity, budget, &mut rng);
    time_stream(&naive, &engine, jobs, &mut m.mixed);

    // ---- Real GA under both evaluators --------------------------------
    let ga_cfg = if opts.quick {
        GaConfig {
            mu: 16,
            lambda: 16,
            generations: 8,
            ..GaConfig::paper()
        }
    } else {
        GaConfig::quick()
    }
    .with_seed(opts.seed);
    let placer = GeneticPlacer::new(ga_cfg);
    let ga_naive_engine = FitnessEngine::naive(seq, cost);
    let t = Instant::now();
    let ga_naive = placer
        .run_with_engine(&ga_naive_engine, dbcs, capacity, &[])
        .expect("experiment capacities always fit");
    let naive_wall = t.elapsed().as_secs_f64();
    let ga_inc_engine = FitnessEngine::new(seq, cost);
    let t = Instant::now();
    let ga_engine = placer
        .run_with_engine(&ga_inc_engine, dbcs, capacity, &[])
        .expect("experiment capacities always fit");
    let engine_wall = t.elapsed().as_secs_f64();
    let ga_identical =
        ga_naive.history == ga_engine.history && ga_naive.best_cost == ga_engine.best_cost;
    if !ga_identical {
        eprintln!("ERROR: GA outcome diverged between evaluators");
    }
    let evals = ga_engine.evaluations as u64;
    m.ga_eval.fold(
        evals,
        ga_naive_engine.stats().eval_seconds(),
        ga_inc_engine.stats().eval_seconds(),
        ga_identical,
    );
    m.ga_wall.fold(evals, naive_wall, engine_wall, ga_identical);

    // ---- Random walk under both evaluators ----------------------------
    let rw_cfg = RandomWalkConfig {
        iterations: if opts.quick { 256 } else { 2000 },
        seed: opts.seed,
    };
    let rw_naive_engine = FitnessEngine::naive(seq, cost);
    let t = Instant::now();
    let rw_naive = random_walk::search_with_engine(&rw_naive_engine, dbcs, capacity, rw_cfg)
        .expect("experiment capacities always fit");
    let naive_s = t.elapsed().as_secs_f64();
    let rw_inc_engine = FitnessEngine::new(seq, cost);
    let t = Instant::now();
    let rw_engine = random_walk::search_with_engine(&rw_inc_engine, dbcs, capacity, rw_cfg)
        .expect("experiment capacities always fit");
    let engine_s = t.elapsed().as_secs_f64();
    let rw_identical = rw_naive.1 == rw_engine.1;
    if !rw_identical {
        eprintln!("ERROR: random-walk best diverged between evaluators");
    }
    m.rw_eval.fold(
        rw_cfg.iterations as u64,
        rw_naive_engine.stats().eval_seconds(),
        rw_inc_engine.stats().eval_seconds(),
        rw_identical,
    );
    m.rw.fold(rw_cfg.iterations as u64, naive_s, engine_s, rw_identical);

    // ---- Heuristic + simulator context --------------------------------
    let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);
    let t = Instant::now();
    let sol = problem
        .solve(&Strategy::DmaSr)
        .expect("experiment capacities always fit");
    m.heuristic_s += t.elapsed().as_secs_f64();
    m.heuristic_solves += 1;

    let sim = simulator_for(dbcs, capacity);
    let t = Instant::now();
    let stats = sim
        .run(seq, &sol.placement)
        .expect("solution placements are valid");
    m.sim_s += t.elapsed().as_secs_f64();
    m.sim_accesses += stats.accesses();
}

/// Collects per-configuration throughput over the selected benchmarks.
pub fn collect(opts: &ExperimentOpts) -> (Vec<(usize, PerfMetrics)>, Vec<&'static str>, f64) {
    let benchmarks: Vec<Benchmark> = suite()
        .into_iter()
        .filter(|b| opts.selects(b.name()))
        .collect();
    let names: Vec<&'static str> = benchmarks.iter().map(Benchmark::name).collect();
    let t = Instant::now();
    let traces = generate_traces(&benchmarks, 0);
    let load_s = t.elapsed().as_secs_f64();
    let data = opts
        .dbcs
        .iter()
        .map(|&d| {
            let mut m = PerfMetrics::default();
            for seq in &traces {
                measure_benchmark(seq, d, opts, &mut m);
            }
            (d, m)
        })
        .collect();
    (data, names, load_s)
}

fn write_pair(w: &mut Writer, name: &str, p: &Pair) {
    w.key(name)
        .object()
        .field("evaluations", p.evals)
        .field("naive_s", Fixed(p.naive_s, 4))
        .field("engine_s", Fixed(p.engine_s, 4))
        .field("naive_evals_per_sec", Fixed(p.naive_eps(), 1))
        .field("engine_evals_per_sec", Fixed(p.engine_eps(), 1))
        .field("speedup", Fixed(p.speedup(), 2))
        .field("identical", p.identical)
        .end();
}

/// Renders the JSON record (`BENCH_perf.json`).
pub fn to_json(
    data: &[(usize, PerfMetrics)],
    names: &[&str],
    load_s: f64,
    opts: &ExperimentOpts,
) -> String {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut w = Writer::pretty();
    w.object()
        .field("experiment", "perf")
        .field("quick", opts.quick)
        .field("seed", opts.seed)
        .field("threads", threads)
        .field("suite_load_s", Fixed(load_s, 4))
        .key("benchmarks")
        .values(names.iter().copied())
        .key("configs")
        .array();
    for (dbcs, m) in data {
        w.object().field("dbcs", *dbcs);
        write_pair(&mut w, "fitness_reorder", &m.reorder);
        write_pair(&mut w, "fitness_mixed", &m.mixed);
        write_pair(&mut w, "ga_eval", &m.ga_eval);
        write_pair(&mut w, "ga_wall", &m.ga_wall);
        write_pair(&mut w, "rw_eval", &m.rw_eval);
        write_pair(&mut w, "rw_wall", &m.rw);
        let heuristic = rate(m.heuristic_solves, m.heuristic_s);
        w.field("heuristic_solves_per_sec", Fixed(heuristic, 2))
            .field(
                "simulator_accesses_per_sec",
                Fixed(rate(m.sim_accesses, m.sim_s), 1),
            )
            .end();
    }
    w.end().end();
    w.finish()
}

/// Runs the experiment; its record is `BENCH_perf.json`.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let (data, names, load_s) = collect(opts);
    let json = to_json(&data, &names, load_s, opts);

    let mut t = Table::new(vec![
        "dbcs".into(),
        "reorder_naive/s".into(),
        "reorder_engine/s".into(),
        "reorder_x".into(),
        "mixed_x".into(),
        "ga_eval_x".into(),
        "ga_wall_x".into(),
        "rw_eval_x".into(),
        "heur_solves/s".into(),
        "sim_acc/s".into(),
    ]);
    for (dbcs, m) in &data {
        t.row(vec![
            dbcs.to_string(),
            format!("{:.0}", m.reorder.naive_eps()),
            format!("{:.0}", m.reorder.engine_eps()),
            format!("{:.2}", m.reorder.speedup()),
            format!("{:.2}", m.mixed.speedup()),
            format!("{:.2}", m.ga_eval.speedup()),
            format!("{:.2}", m.ga_wall.speedup()),
            format!("{:.2}", m.rw_eval.speedup()),
            format!("{:.1}", rate(m.heuristic_solves, m.heuristic_s)),
            format!("{:.0}", rate(m.sim_accesses, m.sim_s)),
        ]);
    }
    ExperimentResult {
        tables: vec![("perf".into(), t)],
        record: Some(("BENCH_perf.json", json)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![4],
            benchmarks: vec!["dct".into()],
            out_dir: std::env::temp_dir().join("rtm-perf-test"),
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn evaluators_agree_and_json_is_well_formed() {
        let opts = tiny_opts();
        let (data, names, load_s) = collect(&opts);
        assert_eq!(data.len(), 1);
        assert_eq!(names, ["dct"]);
        let m = data[0].1;
        assert!(m.reorder.evals > 0 && m.mixed.evals > 0 && m.ga_eval.evals > 0);
        let json = to_json(&data, &names, load_s, &opts);
        assert!(json.contains("\"experiment\": \"perf\""));
        assert!(json.contains("\"fitness_reorder\""));
        assert!(json.contains("\"identical\": true"));
        rtm_serve::json::validate(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
    }

    #[test]
    fn base_lists_respect_capacity() {
        let seq = Benchmark::by_name("dct").unwrap().trace();
        let capacity = capacity_for(8, seq.vars().len());
        let lists = base_lists(&seq, 8, capacity);
        assert_eq!(lists.len(), 8);
        assert!(lists.iter().all(|l| l.len() <= capacity));
        let total: usize = lists.iter().map(Vec::len).sum();
        assert_eq!(total, seq.liveness().by_first_occurrence().len());
    }
}
