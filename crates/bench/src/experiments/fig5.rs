//! Fig. 5 — total energy consumption of AFD-OFU, DMA-OFU and DMA-SR,
//! broken into leakage / read-write / shift energy and normalized to the
//! AFD-OFU baseline of each DBC configuration.

use super::{selected_benchmarks, solve_and_simulate_with, ExperimentResult};
use crate::{ExperimentOpts, Table};
use rtm_arch::EnergyBreakdown;
use rtm_placement::Strategy;
use std::collections::BTreeMap;

/// The three strategies Fig. 5 plots.
pub fn strategies() -> [Strategy; 3] {
    [Strategy::AfdOfu, Strategy::DmaOfu, Strategy::DmaSr]
}

/// Collects summed energy breakdowns: `(strategy, dbcs) -> energy` over the
/// selected benchmarks.
pub fn collect(opts: &ExperimentOpts) -> BTreeMap<(String, usize), EnergyBreakdown> {
    let mut out: BTreeMap<(String, usize), EnergyBreakdown> = BTreeMap::new();
    for (_, seq) in selected_benchmarks(opts) {
        for &d in &opts.dbcs {
            for strat in strategies() {
                let (_, stats) = solve_and_simulate_with(&seq, d, &strat, opts.legacy_spill);
                let e = out.entry((strat.name().to_owned(), d)).or_default();
                *e = *e + stats.energy;
            }
        }
    }
    out
}

/// Runs the experiment: one row per (DBC count × strategy) with the
/// normalized component stack.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let data = collect(opts);
    let mut t = Table::new(vec![
        "dbcs".into(),
        "strategy".into(),
        "leakage".into(),
        "read_write".into(),
        "shift".into(),
        "total".into(),
    ]);
    for &d in &opts.dbcs {
        let base = data[&("AFD-OFU".to_owned(), d)].total().value().max(1e-12);
        for strat in strategies() {
            let e = data[&(strat.name().to_owned(), d)];
            t.row(vec![
                d.to_string(),
                strat.name().into(),
                format!("{:.3}", e.leakage.value() / base),
                format!("{:.3}", e.read_write.value() / base),
                format!("{:.3}", e.shift.value() / base),
                format!("{:.3}", e.total().value() / base),
            ]);
        }
    }
    ExperimentResult {
        tables: vec![("fig5_energy".into(), t)],
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![2, 8],
            benchmarks: vec!["adpcm".into(), "dct".into()],
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn dma_consumes_less_total_energy_than_afd() {
        let data = collect(&quick_opts());
        for &d in &[2usize, 8] {
            let afd = data[&("AFD-OFU".to_owned(), d)].total().value();
            let dma = data[&("DMA-SR".to_owned(), d)].total().value();
            assert!(dma < afd, "{d} DBCs: DMA-SR {dma} >= AFD-OFU {afd}");
        }
    }

    #[test]
    fn shift_energy_drops_proportionally_more() {
        // The paper's observation (1): the gain in shift energy is
        // proportional to the shift reduction.
        let data = collect(&quick_opts());
        let afd = data[&("AFD-OFU".to_owned(), 2)];
        let dma = data[&("DMA-SR".to_owned(), 2)];
        let shift_ratio = dma.shift.value() / afd.shift.value();
        let rw_ratio = dma.read_write.value() / afd.read_write.value();
        assert!(
            shift_ratio < rw_ratio,
            "shift energy should drop more than r/w"
        );
    }

    #[test]
    fn baseline_normalizes_to_one() {
        let r = run(&quick_opts());
        let csv = r.tables[0].1.to_csv();
        for line in csv.lines().filter(|l| l.contains("AFD-OFU")) {
            let total: f64 = line.split(',').next_back().unwrap().parse().unwrap();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }
}
