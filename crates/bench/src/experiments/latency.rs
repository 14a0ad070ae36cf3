//! §IV-C — RTM access-latency improvement of the DMA configurations over
//! AFD-OFU, per DBC count (the paper reports e.g. 50.3 % / 50.5 % / 33.1 %
//! / 10.4 % for DMA-OFU on 2/4/8/16 DBCs).

use super::{selected_benchmarks, solve_and_simulate_with, ExperimentResult};
use crate::{ExperimentOpts, Table};
use rtm_placement::Strategy;
use std::collections::BTreeMap;

/// The strategies compared against the AFD-OFU baseline.
pub fn contenders() -> [Strategy; 3] {
    [Strategy::DmaOfu, Strategy::DmaChen, Strategy::DmaSr]
}

/// Collects summed latency per `(strategy, dbcs)` including the baseline.
pub fn collect(opts: &ExperimentOpts) -> BTreeMap<(String, usize), f64> {
    let mut out = BTreeMap::new();
    for (_, seq) in selected_benchmarks(opts) {
        for &d in &opts.dbcs {
            for strat in [Strategy::AfdOfu].iter().chain(contenders().iter()) {
                let (_, stats) = solve_and_simulate_with(&seq, d, strat, opts.legacy_spill);
                *out.entry((strat.name().to_owned(), d)).or_insert(0.0) +=
                    stats.latency.total().value();
            }
        }
    }
    out
}

/// Runs the experiment: percentage latency improvement over AFD-OFU.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let data = collect(opts);
    let mut headers = vec!["strategy".to_owned()];
    headers.extend(opts.dbcs.iter().map(|d| format!("{d} DBCs [%]")));
    let mut t = Table::new(headers);
    for strat in contenders() {
        let mut row = vec![strat.name().to_owned()];
        for &d in &opts.dbcs {
            let base = data[&("AFD-OFU".to_owned(), d)];
            let lat = data[&(strat.name().to_owned(), d)];
            row.push(format!("{:.1}", (base - lat) / base.max(1e-12) * 100.0));
        }
        t.row(row);
    }
    ExperimentResult {
        tables: vec![("latency_improvement".into(), t)],
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![2, 16],
            benchmarks: vec!["adpcm".into(), "motion".into()],
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn dma_latency_improvements_are_positive_at_2_dbcs() {
        let data = collect(&quick_opts());
        let base = data[&("AFD-OFU".to_owned(), 2)];
        for strat in contenders() {
            let lat = data[&(strat.name().to_owned(), 2)];
            assert!(lat < base, "{} not faster than baseline", strat.name());
        }
    }

    #[test]
    fn improvement_shrinks_with_more_dbcs() {
        // The paper: gains diminish as DBC count grows (sparser variables).
        let data = collect(&quick_opts());
        let gain = |d: usize| {
            let base = data[&("AFD-OFU".to_owned(), d)];
            let lat = data[&("DMA-SR".to_owned(), d)];
            (base - lat) / base
        };
        assert!(gain(2) > gain(16), "{} !> {}", gain(2), gain(16));
    }

    #[test]
    fn table_renders() {
        let r = run(&quick_opts());
        assert_eq!(r.tables[0].1.len(), 3);
    }
}
