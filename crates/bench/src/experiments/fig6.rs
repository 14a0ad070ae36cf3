//! Fig. 6 — the trade-off between shifts, latency, energy and area for the
//! best-performing DMA-SR configuration as the DBC count grows from 2 to
//! 16. Values are reported as *improvement factors relative to the 2-DBC
//! configuration* (>1 = better than 2 DBCs; area shrinks below 1 because
//! more ports cost area).

use super::{params_for, selected_sequences, solve_and_simulate_with, ExperimentResult};
use crate::{ExperimentOpts, Table};
use rtm_placement::Strategy;

/// Aggregate metrics of one DBC configuration under DMA-SR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigMetrics {
    /// Total shifts over all selected benchmarks.
    pub shifts: u64,
    /// Total runtime (memory latency + compute gaps, ns).
    pub latency_ns: f64,
    /// Total energy (pJ).
    pub energy_pj: f64,
    /// Die area (mm²).
    pub area_mm2: f64,
}

/// Collects per-configuration aggregates (under `--multi-seq`, sums over
/// every sequence of every benchmark).
pub fn collect(opts: &ExperimentOpts) -> Vec<(usize, ConfigMetrics)> {
    let benchmarks = selected_sequences(opts);
    opts.dbcs
        .iter()
        .map(|&d| {
            let mut m = ConfigMetrics {
                shifts: 0,
                latency_ns: 0.0,
                energy_pj: 0.0,
                area_mm2: params_for(d).area.value(),
            };
            for (_, seqs) in &benchmarks {
                for seq in seqs {
                    let (_, stats) =
                        solve_and_simulate_with(seq, d, &Strategy::DmaSr, opts.legacy_spill);
                    m.shifts += stats.shifts;
                    m.latency_ns += stats.runtime().value();
                    m.energy_pj += stats.energy.total().value();
                }
            }
            (d, m)
        })
        .collect()
}

/// Runs the experiment: improvement factors relative to the 2-DBC (first
/// sweep point) configuration.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let data = collect(opts);
    let base = data.first().map(|&(_, m)| m).unwrap_or(ConfigMetrics {
        shifts: 1,
        latency_ns: 1.0,
        energy_pj: 1.0,
        area_mm2: 1.0,
    });
    let mut t = Table::new(vec![
        "dbcs".into(),
        "shifts_improvement".into(),
        "latency_improvement".into(),
        "energy_improvement".into(),
        "area_improvement".into(),
    ]);
    for &(d, m) in &data {
        t.row(vec![
            d.to_string(),
            format!("{:.3}", base.shifts as f64 / m.shifts.max(1) as f64),
            format!("{:.3}", base.latency_ns / m.latency_ns.max(1e-12)),
            format!("{:.3}", base.energy_pj / m.energy_pj.max(1e-12)),
            format!("{:.3}", base.area_mm2 / m.area_mm2.max(1e-12)),
        ]);
    }
    ExperimentResult {
        tables: vec![("fig6_tradeoff".into(), t)],
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            benchmarks: vec!["adpcm".into(), "gsm".into()],
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn more_dbcs_reduce_shifts_but_cost_area() {
        let data = collect(&quick_opts());
        let (d2, m2) = data[0];
        let (d16, m16) = data[data.len() - 1];
        assert_eq!((d2, d16), (2, 16));
        assert!(m16.shifts <= m2.shifts, "sparser DBCs must shift less");
        assert!(m16.area_mm2 > m2.area_mm2, "more ports must cost area");
    }

    #[test]
    fn table_has_one_row_per_config() {
        let r = run(&quick_opts());
        assert_eq!(r.tables[0].1.len(), 4);
    }

    #[test]
    fn area_improvement_below_one_for_many_dbcs() {
        let r = run(&quick_opts());
        let csv = r.tables[0].1.to_csv();
        let last = csv.lines().last().unwrap();
        let area: f64 = last.split(',').next_back().unwrap().parse().unwrap();
        assert!(area < 1.0);
    }
}
