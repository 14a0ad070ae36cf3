//! `smp` — multi-core scaling of the fitness engine, swept over worker
//! counts; writes `BENCH_smp.json`.
//!
//! Three workloads per configuration, all asserted bit-identical to the
//! serial (1 worker) baseline at collection time:
//!
//! * **batch** — batch fitness evaluation over the perf experiment's
//!   offspring streams (reorder + paper mutation mix), aggregated over the
//!   selected OffsetStone benchmarks. This is the headline scaling number:
//!   the worker pool fans the jobs out while each worker costs against a
//!   private memo overlay, so the hot loop takes **zero contended locks**
//!   (`"contention_free"` is computed from the engine's own contention
//!   counters, not assumed).
//! * **ga** — a seed-fixed GA run on the representative benchmark;
//!   throughput from the engine's wall-clock evaluation counters.
//! * **portfolio** — a seed-fixed, evals-budgeted portfolio race (SA,
//!   tabu, GA, RW) on the representative benchmark; the race is
//!   deterministic because lanes are seeded independently and the winner
//!   is picked by (cost, lane index), never arrival time.
//!
//! Per row: evaluations/sec, speedup vs the serial baseline, parallel
//! efficiency (speedup / workers), and the per-cache hit/merge/contention
//! counters. The JSON carries `host_cpus` and a `speedup_gate` verdict
//! ("pass"/"fail"/"skipped") so CI can require ≥ 1.5× batch speedup at 4
//! workers on multi-core hosts while staying green on 1-core containers.

use super::{capacity_for, ExperimentResult};
use crate::experiments::perf::{base_lists, mixed_jobs, reorder_jobs};
use crate::{ExperimentOpts, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rtm_offsetstone::{generate_traces, suite, Benchmark};
use rtm_placement::eval::{EngineStats, EvalJob, FitnessEngine};
use rtm_placement::search::{Budget, PortfolioConfig};
use rtm_placement::{CostModel, GaConfig, GeneticPlacer, Placement, PlacementProblem, Strategy};
use rtm_serve::json::{Fixed, Writer};
use rtm_trace::AccessSequence;
use std::time::Instant;

/// DBC count the sweep runs at (a mid-table paper configuration), unless
/// `--dbcs` names exactly one.
const DEFAULT_DBCS: usize = 8;

/// Minimum 4-worker batch speedup required on hosts with ≥ 2 CPUs.
const SPEEDUP_FLOOR: f64 = 1.5;

/// One timed workload of one configuration.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Evaluations timed.
    pub evals: u64,
    /// Wall seconds.
    pub secs: f64,
    /// Bit-identical to the serial baseline (trivially true on the
    /// baseline row). Recorded, not asserted, so a divergence reaches the
    /// JSON where CI's `"identical": false` gate fails the build.
    pub identical: bool,
    /// The engine's cache/contention counters after the workload.
    pub stats: EngineStats,
}

impl Measurement {
    /// Evaluations per second.
    pub fn evals_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.evals as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Whether the workload took zero contended cache locks.
    pub fn contention_free(&self) -> bool {
        self.stats.memo_contended == 0 && self.stats.subseq_contended == 0
    }
}

/// One point of the worker-count sweep.
#[derive(Debug, Clone)]
pub struct SmpRow {
    /// Engine worker count.
    pub workers: usize,
    /// Batch fitness evaluation (the headline).
    pub batch: Measurement,
    /// Seed-fixed GA run (evaluation time only).
    pub ga: Measurement,
    /// Seed-fixed evals-budgeted portfolio race (wall time).
    pub portfolio: Measurement,
}

/// The serial baseline's reference outputs, compared bit-for-bit by every
/// other configuration.
struct Golden {
    /// Concatenated batch totals over all benchmarks/jobs.
    batch_totals: Vec<u64>,
    /// GA `(best_cost, history)`.
    ga: (u64, Vec<u64>),
    /// Portfolio `(placement, shifts, evals_consumed)`.
    race: (Placement, u64, u64),
}

fn fold_stats(acc: &mut EngineStats, s: &EngineStats) {
    acc.evaluations += s.evaluations;
    acc.dbc_recomputations += s.dbc_recomputations;
    acc.dbc_cache_hits += s.dbc_cache_hits;
    acc.subseq_cache_hits += s.subseq_cache_hits;
    acc.dbc_inherited += s.dbc_inherited;
    acc.memo_merged += s.memo_merged;
    acc.memo_contended += s.memo_contended;
    acc.subseq_contended += s.subseq_contended;
    acc.eval_nanos += s.eval_nanos;
}

/// Offspring evaluated per benchmark per stream (reorder and mixed each
/// contribute this many).
fn batch_budget(opts: &ExperimentOpts) -> usize {
    if opts.quick {
        512
    } else {
        4096
    }
}

fn ga_config(opts: &ExperimentOpts) -> GaConfig {
    if opts.quick {
        GaConfig {
            mu: 16,
            lambda: 16,
            generations: 8,
            ..GaConfig::paper()
        }
    } else {
        GaConfig::quick()
    }
    .with_seed(opts.seed)
}

fn race_config(opts: &ExperimentOpts) -> PortfolioConfig {
    let evals = if opts.quick { 2_000 } else { 20_000 };
    PortfolioConfig::new(Budget::evals(evals)).with_seed(opts.seed ^ 0x5b9)
}

/// The DBC count the sweep runs at.
fn dbcs_for(opts: &ExperimentOpts) -> usize {
    match opts.dbcs.as_slice() {
        [one] => *one,
        _ => DEFAULT_DBCS,
    }
}

/// Measures one worker count over all three workloads.
/// With `golden == None` this *is* the baseline run and every `identical`
/// is trivially true; otherwise outputs are compared bit-for-bit.
fn measure_config(
    workers: usize,
    traces: &[AccessSequence],
    dbcs: usize,
    opts: &ExperimentOpts,
    golden: Option<&Golden>,
) -> (SmpRow, Golden) {
    let cost = CostModel::single_port();

    // ---- Batch fitness evaluation (the headline) ----------------------
    let budget = batch_budget(opts);
    let mut batch = Measurement {
        identical: true,
        ..Measurement::default()
    };
    let mut totals: Vec<u64> = Vec::new();
    for seq in traces {
        let capacity = capacity_for(dbcs, seq.vars().len());
        let engine = FitnessEngine::new(seq, cost).with_threads(workers);
        let base = base_lists(seq, dbcs, capacity);
        let base_costs = engine.per_dbc_costs(&base);
        // The job streams are a pure function of the seed: every
        // configuration evaluates the exact same offspring.
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ dbcs as u64);
        let mut jobs = reorder_jobs(&base, &base_costs, budget, &mut rng);
        jobs.extend(mixed_jobs(&base, &base_costs, capacity, budget, &mut rng));
        let t = Instant::now();
        engine.evaluate_batch(&mut jobs);
        batch.secs += t.elapsed().as_secs_f64();
        batch.evals += jobs.len() as u64;
        totals.extend(jobs.iter().map(EvalJob::total));
        fold_stats(&mut batch.stats, &engine.stats());
    }
    if let Some(g) = golden {
        batch.identical = totals == g.batch_totals;
        if !batch.identical {
            eprintln!("ERROR: batch totals diverged at workers={workers}");
        }
    }

    // ---- Seed-fixed GA on the representative benchmark ----------------
    let rep = &traces[0];
    let capacity = capacity_for(dbcs, rep.vars().len());
    let engine = FitnessEngine::new(rep, cost).with_threads(workers);
    let placer = GeneticPlacer::new(ga_config(opts));
    let out = placer
        .run_with_engine(&engine, dbcs, capacity, &[])
        .expect("experiment capacities always fit");
    let ga_golden = (out.best_cost, out.history.clone());
    let mut ga = Measurement {
        evals: out.evaluations as u64,
        secs: engine.stats().eval_seconds(),
        identical: true,
        stats: engine.stats(),
    };
    if let Some(g) = golden {
        ga.identical = ga_golden == g.ga;
        if !ga.identical {
            eprintln!("ERROR: GA outcome diverged at workers={workers}");
        }
    }

    // ---- Seed-fixed, evals-budgeted portfolio race --------------------
    let problem = PlacementProblem::new(rep.clone(), dbcs, capacity).with_threads(workers);
    let t = Instant::now();
    let sol = problem
        .solve(&Strategy::Portfolio(race_config(opts)))
        .expect("experiment capacities always fit");
    let race_golden = (sol.placement.clone(), sol.shifts, sol.evals_consumed);
    let mut portfolio = Measurement {
        evals: sol.evals_consumed,
        secs: t.elapsed().as_secs_f64(),
        identical: true,
        stats: sol.engine_stats,
    };
    if let Some(g) = golden {
        portfolio.identical = race_golden == g.race;
        if !portfolio.identical {
            eprintln!("ERROR: portfolio outcome diverged at workers={workers}");
        }
    }

    (
        SmpRow {
            workers,
            batch,
            ga,
            portfolio,
        },
        Golden {
            batch_totals: totals,
            ga: ga_golden,
            race: race_golden,
        },
    )
}

/// Collects the full sweep: the serial baseline first, then every
/// other `opts.workers` count compared against it.
pub fn collect(opts: &ExperimentOpts) -> (Vec<SmpRow>, Vec<&'static str>) {
    let benchmarks: Vec<Benchmark> = suite()
        .into_iter()
        .filter(|b| opts.selects(b.name()))
        .collect();
    assert!(!benchmarks.is_empty(), "benchmark filter selected nothing");
    let names: Vec<&'static str> = benchmarks.iter().map(Benchmark::name).collect();
    let traces = generate_traces(&benchmarks, 0);
    let dbcs = dbcs_for(opts);

    let (baseline, golden) = measure_config(1, &traces, dbcs, opts, None);
    let mut rows = vec![baseline];
    // One worker is already measured as the baseline.
    for &w in opts.workers.iter().filter(|&&w| w != 1) {
        let (row, _) = measure_config(w, &traces, dbcs, opts, Some(&golden));
        rows.push(row);
    }
    (rows, names)
}

/// Batch speedup over the serial baseline at `workers` workers, `None`
/// when the sweep has no such row.
pub fn batch_speedup_at(rows: &[SmpRow], workers: usize) -> Option<f64> {
    let base = rows.first()?.batch.secs;
    rows.iter()
        .find(|r| r.workers == workers && r.batch.secs > 0.0)
        .map(|r| base / r.batch.secs)
}

/// The CI gate verdict: `"skipped"` below 2 CPUs or without a 4-worker
/// row, otherwise `"pass"`/`"fail"` against [`SPEEDUP_FLOOR`].
pub fn speedup_gate(rows: &[SmpRow], host_cpus: usize) -> (&'static str, f64) {
    let speedup = batch_speedup_at(rows, 4).unwrap_or(0.0);
    if host_cpus < 2 || batch_speedup_at(rows, 4).is_none() {
        ("skipped", speedup)
    } else if speedup >= SPEEDUP_FLOOR {
        ("pass", speedup)
    } else {
        ("fail", speedup)
    }
}

/// One measurement object. `contention_free` is emitted only for the
/// batch workload (`hot_path`): GA/portfolio lanes legitimately take the
/// blocking direct path, so their contention counters are reported but
/// not gated.
fn write_measurement(
    w: &mut Writer,
    name: &str,
    m: &Measurement,
    baseline: &Measurement,
    workers: usize,
    hot_path: bool,
) {
    let speedup = if m.secs > 0.0 {
        baseline.secs / m.secs
    } else {
        0.0
    };
    w.key(name)
        .object()
        .field("evaluations", m.evals)
        .field("secs", Fixed(m.secs, 4))
        .field("evals_per_sec", Fixed(m.evals_per_sec(), 1))
        .field("speedup", Fixed(speedup, 3))
        .field("efficiency", Fixed(speedup / workers as f64, 3))
        .field("identical", m.identical);
    if hot_path {
        w.field("contention_free", m.contention_free());
    }
    let s = &m.stats;
    w.field("dbc_recomputations", s.dbc_recomputations)
        .field("dbc_cache_hits", s.dbc_cache_hits)
        .field("subseq_cache_hits", s.subseq_cache_hits)
        .field("dbc_inherited", s.dbc_inherited)
        .field("memo_merged", s.memo_merged)
        .field("memo_contended", s.memo_contended)
        .field("subseq_contended", s.subseq_contended)
        .end();
}

/// Renders the JSON record (`BENCH_smp.json`). `rows[0]` is the serial
/// baseline every speedup is computed against.
pub fn to_json(rows: &[SmpRow], names: &[&str], opts: &ExperimentOpts) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let (gate, four_worker) = speedup_gate(rows, host_cpus);
    let base = &rows[0];
    let mut w = Writer::pretty();
    w.object()
        .field("experiment", "smp")
        .field("quick", opts.quick)
        .field("seed", opts.seed)
        .field("dbcs", dbcs_for(opts))
        .field("host_cpus", host_cpus)
        .key("benchmarks")
        .values(names.iter().copied())
        .field("four_worker_batch_speedup", Fixed(four_worker, 3))
        .field("speedup_gate", gate)
        .key("rows")
        .array();
    for r in rows {
        w.object().field("workers", r.workers);
        write_measurement(&mut w, "batch", &r.batch, &base.batch, r.workers, true);
        write_measurement(&mut w, "ga", &r.ga, &base.ga, r.workers, false);
        write_measurement(
            &mut w,
            "portfolio",
            &r.portfolio,
            &base.portfolio,
            r.workers,
            false,
        );
        w.end();
    }
    w.end().end();
    w.finish()
}

/// Runs the sweep; its record is `BENCH_smp.json`.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let (rows, names) = collect(opts);
    let json = to_json(&rows, &names, opts);

    let base_batch = rows[0].batch.secs;
    let mut t = Table::new(vec![
        "workers".into(),
        "batch_evals/s".into(),
        "batch_x".into(),
        "efficiency".into(),
        "ga_x".into(),
        "race_x".into(),
        "hot_contended".into(),
        "identical".into(),
    ]);
    for r in &rows {
        let batch_x = if r.batch.secs > 0.0 {
            base_batch / r.batch.secs
        } else {
            0.0
        };
        let ga_x = if r.ga.secs > 0.0 {
            rows[0].ga.secs / r.ga.secs
        } else {
            0.0
        };
        let race_x = if r.portfolio.secs > 0.0 {
            rows[0].portfolio.secs / r.portfolio.secs
        } else {
            0.0
        };
        t.row(vec![
            r.workers.to_string(),
            format!("{:.0}", r.batch.evals_per_sec()),
            format!("{batch_x:.2}"),
            format!("{:.2}", batch_x / r.workers as f64),
            format!("{ga_x:.2}"),
            format!("{race_x:.2}"),
            (r.batch.stats.memo_contended + r.batch.stats.subseq_contended).to_string(),
            (r.batch.identical && r.ga.identical && r.portfolio.identical).to_string(),
        ]);
    }
    ExperimentResult {
        tables: vec![("smp".into(), t)],
        record: Some(("BENCH_smp.json", json)),
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
            workers: vec![1, 2],
            out_dir: std::env::temp_dir().join("rtm-smp-test"),
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn sweep_is_bit_identical_and_contention_free_on_the_batch_path() {
        let opts = tiny_opts();
        let (rows, names) = collect(&opts);
        assert_eq!(names, ["dct"]);
        // Baseline + the 2-worker point.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].workers, 1);
        for r in &rows {
            assert!(
                r.batch.identical && r.ga.identical && r.portfolio.identical,
                "divergence at workers={}",
                r.workers
            );
            assert!(
                r.batch.contention_free(),
                "contended batch lock at workers={}",
                r.workers
            );
            assert!(r.batch.evals > 0 && r.ga.evals > 0 && r.portfolio.evals > 0);
        }
        let json = to_json(&rows, &names, &opts);
        assert!(json.contains("\"experiment\": \"smp\""));
        assert!(json.contains("\"speedup_gate\""));
        assert!(!json.contains("\"identical\": false"));
        assert!(!json.contains("\"contention_free\": false"));
        rtm_serve::json::validate(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
    }

    #[test]
    fn speedup_gate_skips_below_two_cpus_and_without_four_worker_rows() {
        let opts = tiny_opts();
        let (rows, _) = collect(&opts);
        // No 4-worker row in the tiny sweep: always skipped.
        assert_eq!(speedup_gate(&rows, 8).0, "skipped");
        // And a 1-CPU host skips regardless of the sweep.
        assert_eq!(speedup_gate(&rows, 1).0, "skipped");
    }
}
