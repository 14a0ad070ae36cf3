//! Fig. 4 — shifts improvement of every strategy, per benchmark and DBC
//! count, normalized to the genetic algorithm (GA = 1.0, exactly as the
//! paper plots it), plus the §IV-B geomean summaries.

use super::{selected_benchmarks, solve_and_simulate_with, ExperimentResult};
use crate::{geomean, ExperimentOpts, Table};
use rtm_placement::Strategy;
use std::collections::BTreeMap;

/// Raw result grid: `costs[strategy][(benchmark, dbcs)] = shifts`.
#[derive(Debug, Clone, Default)]
pub struct Fig4Data {
    /// Strategy names in evaluation order.
    pub strategies: Vec<String>,
    /// Benchmark names in suite order.
    pub benchmarks: Vec<String>,
    /// DBC sweep.
    pub dbcs: Vec<usize>,
    /// `(strategy, benchmark, dbcs) -> total shifts`.
    pub shifts: BTreeMap<(String, String, usize), u64>,
}

impl Fig4Data {
    /// Normalized cost of `strategy` on `(benchmark, dbcs)` relative to GA.
    pub fn normalized(&self, strategy: &str, benchmark: &str, dbcs: usize) -> f64 {
        let s = self.shifts[&(strategy.to_owned(), benchmark.to_owned(), dbcs)] as f64;
        let ga = self.shifts[&("GA".to_owned(), benchmark.to_owned(), dbcs)] as f64;
        s.max(1.0) / ga.max(1.0)
    }

    /// Geomean over benchmarks of the normalized cost of `strategy`.
    pub fn geomean_normalized(&self, strategy: &str, dbcs: usize) -> f64 {
        let xs: Vec<f64> = self
            .benchmarks
            .iter()
            .map(|b| self.normalized(strategy, b, dbcs))
            .collect();
        geomean(&xs)
    }

    /// Geomean improvement factor of `better` over `worse` (paper's
    /// "reduction as expressed by the geometric mean": e.g. DMA-OFU vs
    /// AFD-OFU is 2.4x/2.9x/2.8x/1.7x for 2/4/8/16 DBCs).
    pub fn geomean_improvement(&self, better: &str, worse: &str, dbcs: usize) -> f64 {
        let xs: Vec<f64> = self
            .benchmarks
            .iter()
            .map(|b| {
                let w = self.shifts[&(worse.to_owned(), b.clone(), dbcs)] as f64;
                let bt = self.shifts[&(better.to_owned(), b.clone(), dbcs)] as f64;
                w.max(1.0) / bt.max(1.0)
            })
            .collect();
        geomean(&xs)
    }
}

/// Runs every (benchmark × DBC count × strategy) cell of Fig. 4.
pub fn collect(opts: &ExperimentOpts) -> Fig4Data {
    let strategies = Strategy::evaluation_set(opts.ga_config(), opts.rw_config());
    let mut data = Fig4Data {
        strategies: strategies.iter().map(|s| s.name().to_owned()).collect(),
        dbcs: opts.dbcs.clone(),
        ..Fig4Data::default()
    };
    for (bench, seq) in selected_benchmarks(opts) {
        data.benchmarks.push(bench.name().to_owned());
        for &d in &opts.dbcs {
            for strat in &strategies {
                let (sol, _) = solve_and_simulate_with(&seq, d, strat, opts.legacy_spill);
                data.shifts.insert(
                    (strat.name().to_owned(), bench.name().to_owned(), d),
                    sol.shifts,
                );
            }
        }
    }
    data
}

/// Runs the experiment and renders the paper's tables:
///
/// 1. `fig4_normalized` — per-benchmark normalized cost (the figure's bars);
/// 2. `fig4_geomean` — geomean normalized cost per strategy and DBC count;
/// 3. `fig4_improvements` — the §IV-B headline factors.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let data = collect(opts);
    let mut tables = Vec::new();

    // Per-benchmark normalized costs.
    let mut headers = vec!["benchmark".to_owned(), "dbcs".to_owned()];
    headers.extend(data.strategies.iter().cloned());
    let mut t = Table::new(headers);
    for b in &data.benchmarks {
        for &d in &data.dbcs {
            let mut row = vec![b.clone(), d.to_string()];
            for s in &data.strategies {
                row.push(format!("{:.3}", data.normalized(s, b, d)));
            }
            t.row(row);
        }
    }
    tables.push(("fig4_normalized".to_owned(), t));

    // Geomean summary.
    let mut headers = vec!["strategy".to_owned()];
    headers.extend(data.dbcs.iter().map(|d| format!("{d} DBCs")));
    let mut t = Table::new(headers);
    for s in &data.strategies {
        let mut row = vec![s.clone()];
        for &d in &data.dbcs {
            row.push(format!("{:.3}", data.geomean_normalized(s, d)));
        }
        t.row(row);
    }
    tables.push(("fig4_geomean".to_owned(), t));

    // Headline improvement factors (§IV-B).
    let mut headers = vec!["comparison".to_owned()];
    headers.extend(data.dbcs.iter().map(|d| format!("{d} DBCs")));
    let mut t = Table::new(headers);
    for (better, worse, label) in [
        ("DMA-OFU", "AFD-OFU", "DMA-OFU vs AFD-OFU"),
        ("DMA-Chen", "DMA-OFU", "DMA-Chen vs DMA-OFU"),
        ("DMA-SR", "DMA-OFU", "DMA-SR vs DMA-OFU"),
        ("DMA-SR", "AFD-OFU", "DMA-SR vs AFD-OFU"),
    ] {
        let mut row = vec![label.to_owned()];
        for &d in &data.dbcs {
            row.push(format!(
                "{:.2}x",
                data.geomean_improvement(better, worse, d)
            ));
        }
        t.row(row);
    }
    tables.push(("fig4_improvements".to_owned(), t));

    ExperimentResult {
        tables,
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![2, 4],
            benchmarks: vec!["adpcm".into(), "dct".into(), "anagram".into()],
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn grid_is_complete() {
        let data = collect(&quick_opts());
        assert_eq!(data.benchmarks.len(), 3);
        assert_eq!(
            data.shifts.len(),
            data.strategies.len() * data.benchmarks.len() * data.dbcs.len()
        );
    }

    #[test]
    fn dma_beats_afd_in_geomean() {
        let data = collect(&quick_opts());
        for &d in &data.dbcs {
            let imp = data.geomean_improvement("DMA-OFU", "AFD-OFU", d);
            assert!(imp > 1.0, "{d} DBCs: DMA-OFU improvement {imp:.2} <= 1");
        }
    }

    #[test]
    fn ga_is_the_reference() {
        let data = collect(&quick_opts());
        for b in &data.benchmarks {
            for &d in &data.dbcs {
                assert!((data.normalized("GA", b, d) - 1.0).abs() < 1e-9);
                // Heuristics are never better than a GA seeded with them.
                assert!(data.normalized("DMA-SR", b, d) >= 1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn tables_render() {
        let r = run(&quick_opts());
        assert_eq!(r.tables.len(), 3);
        for (_, t) in &r.tables {
            assert!(!t.is_empty());
        }
    }
}
