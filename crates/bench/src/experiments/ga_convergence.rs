//! §IV-B optimality-gap study — "we executed GA significantly longer for
//! the benchmark with the largest access sequence. After 2000 generations,
//! the result from the best variant of the heuristics was around 38 % worse
//! than the best solution found by the GA."

use super::{capacity_for, ExperimentResult};
use crate::{ExperimentOpts, Table};
use rtm_offsetstone::largest;
use rtm_placement::{GeneticPlacer, PlacementProblem, Strategy};

/// Result of the convergence study.
#[derive(Debug, Clone)]
pub struct ConvergenceData {
    /// Benchmark name (the largest trace: `mpeg2`).
    pub benchmark: String,
    /// Best heuristic strategy name.
    pub best_heuristic: String,
    /// Its shift cost.
    pub heuristic_cost: u64,
    /// The long GA's best cost.
    pub ga_cost: u64,
    /// `(heuristic − GA) / GA` in percent (the paper's ~38 %).
    pub gap_percent: f64,
    /// Best-so-far GA fitness sampled every [`SAMPLE_EVERY`] generations.
    pub history: Vec<(usize, u64)>,
}

/// Sampling interval of the convergence history.
pub const SAMPLE_EVERY: usize = 50;

/// Runs the study on the largest benchmark with the configured DBC count
/// (first entry of `--dbcs`) and generation budget (`--generations`,
/// default 2000 like the paper, or 200 under `--quick`).
pub fn collect(opts: &ExperimentOpts) -> ConvergenceData {
    let bench = largest();
    let seq = bench.trace();
    let dbcs = opts.dbcs.first().copied().unwrap_or(4);
    let capacity = capacity_for(dbcs, seq.vars().len());
    let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);

    let heuristics = [
        Strategy::AfdOfu,
        Strategy::DmaOfu,
        Strategy::DmaChen,
        Strategy::DmaSr,
    ];
    let solutions: Vec<(String, rtm_placement::Solution)> = heuristics
        .iter()
        .map(|s| {
            (
                s.name().to_owned(),
                problem.solve(s).expect("capacity fits"),
            )
        })
        .collect();
    let (best_heuristic, heuristic_cost) = solutions
        .iter()
        .map(|(n, sol)| (n.clone(), sol.shifts))
        .min_by_key(|&(_, c)| c)
        .expect("nonempty strategy list");

    let generations = opts
        .generations
        .unwrap_or(if opts.quick { 200 } else { 2000 });
    let ga_cfg = opts.ga_config().with_generations(generations);
    let seeds: Vec<rtm_placement::Placement> = solutions
        .into_iter()
        .map(|(_, sol)| sol.placement)
        .collect();
    let outcome = GeneticPlacer::new(ga_cfg)
        .run_seeded(&seq, dbcs, capacity, &seeds)
        .expect("capacity fits");

    let history: Vec<(usize, u64)> = outcome
        .history
        .iter()
        .enumerate()
        .filter(|(g, _)| g % SAMPLE_EVERY == 0 || *g == outcome.history.len() - 1)
        .map(|(g, &c)| (g, c))
        .collect();

    let gap_percent = (heuristic_cost as f64 - outcome.best_cost as f64)
        / outcome.best_cost.max(1) as f64
        * 100.0;

    ConvergenceData {
        benchmark: bench.name().to_owned(),
        best_heuristic,
        heuristic_cost,
        ga_cost: outcome.best_cost,
        gap_percent,
        history,
    }
}

/// Runs the experiment and renders summary + history tables.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let data = collect(opts);
    let mut summary = Table::new(vec![
        "benchmark".into(),
        "best heuristic".into(),
        "heuristic shifts".into(),
        "GA shifts".into(),
        "heuristic gap [%]".into(),
    ]);
    summary.row(vec![
        data.benchmark.clone(),
        data.best_heuristic.clone(),
        data.heuristic_cost.to_string(),
        data.ga_cost.to_string(),
        format!("{:.1}", data.gap_percent),
    ]);
    let mut history = Table::new(vec!["generation".into(), "best shifts".into()]);
    for &(g, c) in &data.history {
        history.row(vec![g.to_string(), c.to_string()]);
    }
    ExperimentResult {
        tables: vec![
            ("ga_convergence_summary".into(), summary),
            ("ga_convergence_history".into(), history),
        ],
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            generations: Some(10),
            dbcs: vec![4],
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn gap_is_nonnegative() {
        // GA is seeded with the heuristics, so it can only match or beat
        // them.
        let data = collect(&tiny_opts());
        assert!(data.gap_percent >= -1e-9, "gap {}", data.gap_percent);
        assert!(data.ga_cost <= data.heuristic_cost);
        assert_eq!(data.benchmark, "mpeg2");
    }

    #[test]
    fn history_is_sampled_and_monotone() {
        let data = collect(&tiny_opts());
        assert!(data.history.len() >= 2);
        for w in data.history.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn tables_render() {
        let r = run(&tiny_opts());
        assert_eq!(r.tables.len(), 2);
    }
}
