//! Table I — memory system parameters (4 KiB RTM, 32 nm, 32 tracks/DBC).
//!
//! Prints the DESTINY-derived parameter table the whole evaluation is built
//! on, for the paper's four configurations plus any extra `--dbcs` points
//! (non-tabulated counts use the scaling-model fit and are marked).

use super::{params_for, ExperimentResult};
use crate::{ExperimentOpts, Table};
use rtm_arch::table1::TABULATED_DBCS;

/// Runs the experiment.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let mut t = Table::new(vec![
        "parameter".into(),
        "unit".into(),
        "source".into(),
        "dbcs".into(),
        "value".into(),
    ]);
    for &d in &opts.dbcs {
        let p = params_for(d);
        let source = if TABULATED_DBCS.contains(&d) {
            "Table I"
        } else {
            "scaling fit"
        };
        let rows: [(&str, &str, f64); 9] = [
            ("domains per DBC", "-", p.domains_per_dbc as f64),
            ("leakage power", "mW", p.leakage_power.value()),
            ("write energy", "pJ", p.write_energy.value()),
            ("read energy", "pJ", p.read_energy.value()),
            ("shift energy", "pJ", p.shift_energy.value()),
            ("read latency", "ns", p.read_latency.value()),
            ("write latency", "ns", p.write_latency.value()),
            ("shift latency", "ns", p.shift_latency.value()),
            ("area", "mm^2", p.area.value()),
        ];
        for (name, unit, value) in rows {
            t.row(vec![
                name.into(),
                unit.into(),
                source.into(),
                d.to_string(),
                format!("{value:.4}"),
            ]);
        }
    }
    ExperimentResult {
        tables: vec![("table1".into(), t)],
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_nine_rows_per_config() {
        let opts = ExperimentOpts::default();
        let r = run(&opts);
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.tables[0].1.len(), 9 * 4);
    }

    #[test]
    fn marks_non_tabulated_configs() {
        let opts = ExperimentOpts {
            dbcs: vec![12],
            ..ExperimentOpts::default()
        };
        let r = run(&opts);
        assert!(r.tables[0].1.to_csv().contains("scaling fit"));
    }
}
