//! `smp` — the portfolio race swept over worker counts; writes
//! `BENCH_smp.json`.
//!
//! Per configuration, a seed-fixed, evals-budgeted portfolio race (SA,
//! tabu, GA, RW) on the representative benchmark, compared bit-for-bit
//! with the serial (1 worker) baseline at collection time. The race is
//! deterministic because lanes are seeded independently and the winner is
//! picked by (cost, lane index), never arrival time. Racing lanes is the
//! one parallel fan-out the crate has: fitness batches cost on the calling
//! thread (`DESIGN.md` §7).
//!
//! Per row: evaluations/sec, speedup vs the serial baseline, parallel
//! efficiency (speedup / workers), and the engine's cache and contention
//! counters. Speedup is reported, not gated: the JSON carries `host_cpus`
//! so a reader can tell what the host could serve.

use super::{capacity_for, ExperimentResult};
use crate::{ExperimentOpts, Table};
use rtm_offsetstone::suite;
use rtm_placement::eval::EngineStats;
use rtm_placement::search::{Budget, PortfolioConfig};
use rtm_placement::{Placement, PlacementProblem, Strategy};
use rtm_serve::json::{Fixed, Writer};
use rtm_trace::AccessSequence;
use std::time::Instant;

/// DBC count the sweep runs at (a mid-table paper configuration), unless
/// `--dbcs` names exactly one.
const DEFAULT_DBCS: usize = 8;

/// One point of the worker-count sweep: a timed portfolio race.
#[derive(Debug, Clone)]
pub struct SmpRow {
    /// Engine worker count.
    pub workers: usize,
    /// Evaluations the race consumed.
    pub evals: u64,
    /// Wall seconds.
    pub secs: f64,
    /// Bit-identical to the serial baseline (trivially true on the
    /// baseline row). Recorded, not asserted, so a divergence reaches the
    /// JSON where CI's `"identical": false` gate fails the build.
    pub identical: bool,
    /// The engine's cache/contention counters over the race.
    pub stats: EngineStats,
}

impl SmpRow {
    /// Evaluations per second.
    pub fn evals_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.evals as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Wall-time speedup over `baseline` (0 when this row took no time).
    pub fn speedup_over(&self, baseline: &SmpRow) -> f64 {
        if self.secs > 0.0 {
            baseline.secs / self.secs
        } else {
            0.0
        }
    }
}

/// The race outcome every configuration must reproduce bit for bit:
/// `(placement, shifts, evals_consumed)`.
type Golden = (Placement, u64, u64);

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

/// Races the portfolio at one worker count. With `golden == None` this
/// *is* the baseline run and `identical` is trivially true; otherwise the
/// outcome is compared bit-for-bit.
fn measure_config(
    workers: usize,
    rep: &AccessSequence,
    dbcs: usize,
    opts: &ExperimentOpts,
    golden: Option<&Golden>,
) -> (SmpRow, Golden) {
    let capacity = capacity_for(dbcs, rep.vars().len());
    let problem = PlacementProblem::new(rep.clone(), dbcs, capacity).with_threads(workers);
    let t = Instant::now();
    let sol = problem
        .solve(&Strategy::Portfolio(race_config(opts)))
        .expect("experiment capacities always fit");
    let secs = t.elapsed().as_secs_f64();
    let outcome = (sol.placement, sol.shifts, sol.evals_consumed);
    let identical = golden.is_none_or(|g| *g == outcome);
    if !identical {
        eprintln!("ERROR: portfolio outcome diverged at workers={workers}");
    }
    let row = SmpRow {
        workers,
        evals: sol.evals_consumed,
        secs,
        identical,
        stats: sol.engine_stats,
    };
    (row, outcome)
}

/// Collects the full sweep on the first selected benchmark: the serial
/// baseline first, then every other `opts.workers` count compared against
/// it.
pub fn collect(opts: &ExperimentOpts) -> (Vec<SmpRow>, &'static str) {
    let benchmark = suite()
        .into_iter()
        .find(|b| opts.selects(b.name()))
        .expect("benchmark filter selected nothing");
    let rep = benchmark.trace();
    let dbcs = dbcs_for(opts);

    let (baseline, golden) = measure_config(1, &rep, dbcs, opts, None);
    let mut rows = vec![baseline];
    // One worker is already measured as the baseline.
    for &w in opts.workers.iter().filter(|&&w| w != 1) {
        let (row, _) = measure_config(w, &rep, dbcs, opts, Some(&golden));
        rows.push(row);
    }
    (rows, benchmark.name())
}

/// Renders the JSON record (`BENCH_smp.json`). `rows[0]` is the serial
/// baseline every speedup is computed against.
pub fn to_json(rows: &[SmpRow], benchmark: &str, opts: &ExperimentOpts) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let base = &rows[0];
    let mut w = Writer::pretty();
    w.object()
        .field("experiment", "smp")
        .field("quick", opts.quick)
        .field("seed", opts.seed)
        .field("dbcs", dbcs_for(opts))
        .field("host_cpus", host_cpus)
        .field("benchmark", benchmark)
        .key("rows")
        .array();
    for r in rows {
        let speedup = r.speedup_over(base);
        let s = &r.stats;
        w.object()
            .field("workers", r.workers)
            .key("portfolio")
            .object()
            .field("evaluations", r.evals)
            .field("secs", Fixed(r.secs, 4))
            .field("evals_per_sec", Fixed(r.evals_per_sec(), 1))
            .field("speedup", Fixed(speedup, 3))
            .field("efficiency", Fixed(speedup / r.workers as f64, 3))
            .field("identical", r.identical)
            .field("dbc_recomputations", s.dbc_recomputations)
            .field("dbc_cache_hits", s.dbc_cache_hits)
            .field("dbc_inherited", s.dbc_inherited)
            .field("memo_contended", s.memo_contended)
            .end()
            .end();
    }
    w.end().end();
    w.finish()
}

/// Runs the sweep; its record is `BENCH_smp.json`.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let (rows, benchmark) = collect(opts);
    let json = to_json(&rows, benchmark, opts);

    let mut t = Table::new(vec![
        "workers".into(),
        "race_evals/s".into(),
        "race_x".into(),
        "efficiency".into(),
        "contended".into(),
        "identical".into(),
    ]);
    for r in &rows {
        let race_x = r.speedup_over(&rows[0]);
        t.row(vec![
            r.workers.to_string(),
            format!("{:.0}", r.evals_per_sec()),
            format!("{race_x:.2}"),
            format!("{:.2}", race_x / r.workers as f64),
            r.stats.memo_contended.to_string(),
            r.identical.to_string(),
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

    #[test]
    fn race_sweep_is_bit_identical_at_every_worker_count() {
        let opts = ExperimentOpts {
            quick: true,
            dbcs: vec![4],
            benchmarks: vec!["dct".into()],
            workers: vec![1, 2],
            out_dir: std::env::temp_dir().join("rtm-smp-test"),
            ..ExperimentOpts::default()
        };
        let (rows, benchmark) = collect(&opts);
        assert_eq!(benchmark, "dct");
        // Baseline + the 2-worker point.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].workers, 1);
        for r in &rows {
            assert!(r.identical, "divergence at workers={}", r.workers);
            assert!(r.evals > 0);
        }
        let json = to_json(&rows, benchmark, &opts);
        assert!(json.contains("\"experiment\": \"smp\""));
        assert!(json.contains("\"identical\": true"));
        assert!(!json.contains("\"identical\": false"));
        rtm_serve::json::validate(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
    }
}
