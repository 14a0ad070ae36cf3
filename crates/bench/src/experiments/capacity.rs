//! Capacity experiment: sweep the subarray count of the capacity-aware
//! hierarchical placement path.
//!
//! The paper evaluates inside one fixed 4 KiB subarray (Table I via
//! DESTINY), which several OffsetStone benchmarks exceed at high DBC
//! counts. The historical harness grew tracks just enough to fit (the
//! `--legacy-spill` baseline, [`super::capacity_for`]); the capacity-aware
//! path instead places across an array of paper-faithful subarrays
//! ([`super::array_for`]). This experiment quantifies both:
//!
//! * **sweep** — DMA-SR shifts per benchmark as the subarray count grows
//!   (each swept count is clamped up to the benchmark's minimum fit, so
//!   every row is a legal geometry);
//! * **vs-spill** — the minimal capacity-aware array against the legacy
//!   grown-track geometry at the same DBC count.
//!
//! Every collected placement is cross-checked against the trace-driven
//! simulator on the matching array geometry (the §3.1 fidelity contract at
//! collection time) and validated against the array bounds.

use super::{array_for, capacity_for, selected_benchmarks, subarray_for, ExperimentResult};
use crate::{ExperimentOpts, Table};
use rtm_arch::ArrayGeometry;
use rtm_placement::{PlacementProblem, Strategy};
use rtm_sim::Simulator;

/// One swept cell of the capacity experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Subarray count actually used (the swept count, clamped up to the
    /// benchmark's minimum fit).
    pub subarrays: usize,
    /// Global DBC count (`subarrays × dbcs_per_subarray`).
    pub total_dbcs: usize,
    /// Paper-faithful locations per DBC (never grown).
    pub locations_per_dbc: usize,
    /// DMA-SR shifts under the array.
    pub shifts: u64,
    /// Shifts per access.
    pub shifts_per_access: f64,
}

/// The collected experiment: the sweep plus the per-benchmark comparison
/// `(benchmark, min_subarrays, capacity_aware_shifts, legacy_spill_shifts)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityData {
    /// Sweep cells in (benchmark, subarrays) order.
    pub cells: Vec<CapacityCell>,
    /// Minimal capacity-aware array vs the legacy grown-track spill.
    pub vs_spill: Vec<(String, usize, u64, u64)>,
}

/// Runs the sweep at the first `--dbcs` entry (default 16 — the paper's
/// highest-pressure configuration, where spills actually occur).
///
/// # Panics
///
/// Panics if a collected placement diverges from the simulator or escapes
/// its array — either would mean the capacity-aware path is unsound.
pub fn collect(opts: &ExperimentOpts) -> CapacityData {
    let dbcs = opts.dbcs.first().copied().unwrap_or(16);
    let sub = subarray_for(dbcs);
    let mut data = CapacityData::default();
    for (bench, seq) in selected_benchmarks(opts) {
        let vars = seq.vars().len();
        let min_subarrays = array_for(dbcs, vars).subarrays();
        // Clamp each swept count up to the minimum fit; the minimum itself
        // is always swept (the vs-spill lane needs it, and a sweep like
        // `--subarrays 4,8` must not skip it), then dedup.
        let mut counts: Vec<usize> = opts
            .subarrays
            .iter()
            .map(|&s| s.max(min_subarrays))
            .collect();
        counts.push(min_subarrays);
        counts.sort_unstable();
        counts.dedup();
        let mut minimal_shifts = None;
        for s in counts {
            let array = ArrayGeometry::new(s, sub).expect("positive subarray count");
            let problem = PlacementProblem::for_array(seq.clone(), &array);
            let sol = problem.solve(&Strategy::DmaSr).expect("array fits");
            sol.placement
                .validate_array(&seq, &array)
                .expect("placement stays within the array");
            let stats = Simulator::for_array(&array)
                .run(&seq, &sol.placement)
                .expect("valid placement simulates");
            assert_eq!(
                stats.shifts,
                sol.shifts,
                "simulator/cost-model divergence on {} at {s} subarrays",
                bench.name()
            );
            if s == min_subarrays {
                minimal_shifts = Some(sol.shifts);
            }
            data.cells.push(CapacityCell {
                benchmark: bench.name().to_owned(),
                subarrays: s,
                total_dbcs: array.total_dbcs(),
                locations_per_dbc: array.locations_per_dbc(),
                shifts: sol.shifts,
                shifts_per_access: stats.shifts_per_access(),
            });
        }
        let minimal_shifts = minimal_shifts.expect("minimum fit is always swept");
        // Legacy lane: the grown-track flat geometry.
        let capacity = capacity_for(dbcs, vars);
        let legacy = PlacementProblem::new(seq.clone(), dbcs, capacity)
            .solve(&Strategy::DmaSr)
            .expect("grown capacity fits")
            .shifts;
        data.vs_spill.push((
            bench.name().to_owned(),
            min_subarrays,
            minimal_shifts,
            legacy,
        ));
    }
    data
}

/// Runs the experiment and renders two tables: the sweep and the
/// spill comparison.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let data = collect(opts);
    let mut sweep = Table::new(vec![
        "benchmark".into(),
        "subarrays".into(),
        "total_dbcs".into(),
        "locations_per_dbc".into(),
        "shifts".into(),
        "shifts_per_access".into(),
    ]);
    for c in &data.cells {
        sweep.row(vec![
            c.benchmark.clone(),
            c.subarrays.to_string(),
            c.total_dbcs.to_string(),
            c.locations_per_dbc.to_string(),
            c.shifts.to_string(),
            format!("{:.3}", c.shifts_per_access),
        ]);
    }
    let mut vs = Table::new(vec![
        "benchmark".into(),
        "min_subarrays".into(),
        "capacity_aware_shifts".into(),
        "legacy_spill_shifts".into(),
        "aware_vs_spill".into(),
    ]);
    for (name, min_s, aware, legacy) in &data.vs_spill {
        vs.row(vec![
            name.clone(),
            min_s.to_string(),
            aware.to_string(),
            legacy.to_string(),
            format!("{:.3}", *legacy as f64 / (*aware).max(1) as f64),
        ]);
    }
    ExperimentResult {
        tables: vec![
            ("capacity_sweep".into(), sweep),
            ("capacity_vs_spill".into(), vs),
        ],
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![16],
            subarrays: vec![1, 2, 4],
            benchmarks: vec!["adpcm".into(), "mpeg2".into()],
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn sweep_never_grows_tracks_and_clamps_to_the_minimum_fit() {
        let data = collect(&quick_opts());
        for c in &data.cells {
            assert_eq!(c.locations_per_dbc, 64, "{}: grown track", c.benchmark);
            assert_eq!(c.total_dbcs, c.subarrays * 16);
            assert!(c.shifts > 0);
        }
        // adpcm fits one subarray; mpeg2 needs two, so its swept counts
        // clamp to {2, 4}.
        let counts = |name: &str| -> Vec<usize> {
            data.cells
                .iter()
                .filter(|c| c.benchmark == name)
                .map(|c| c.subarrays)
                .collect()
        };
        assert_eq!(counts("adpcm"), vec![1, 2, 4]);
        assert_eq!(counts("mpeg2"), vec![2, 4]);
    }

    #[test]
    fn spill_comparison_has_one_row_per_benchmark() {
        let data = collect(&quick_opts());
        assert_eq!(data.vs_spill.len(), 2);
        let mpeg2 = data.vs_spill.iter().find(|r| r.0 == "mpeg2").unwrap();
        assert_eq!(mpeg2.1, 2, "mpeg2 needs two 4 KiB subarrays at 16 DBCs");
        assert!(mpeg2.2 > 0 && mpeg2.3 > 0);
    }

    #[test]
    fn sweep_always_includes_the_minimum_fit() {
        // Regression: a sweep that excludes a benchmark's minimum-fit
        // count (adpcm fits 1 subarray, sweep starts at 2) must still
        // collect the minimal lane instead of panicking.
        let opts = ExperimentOpts {
            subarrays: vec![2, 4],
            ..quick_opts()
        };
        let data = collect(&opts);
        let adpcm: Vec<usize> = data
            .cells
            .iter()
            .filter(|c| c.benchmark == "adpcm")
            .map(|c| c.subarrays)
            .collect();
        assert_eq!(adpcm, vec![1, 2, 4]);
        assert!(data.vs_spill.iter().any(|r| r.0 == "adpcm" && r.1 == 1));
    }

    #[test]
    fn collection_is_deterministic() {
        let opts = quick_opts();
        assert_eq!(collect(&opts), collect(&opts));
    }

    #[test]
    fn tables_render() {
        let r = run(&quick_opts());
        assert_eq!(r.tables.len(), 2);
        for (_, t) in &r.tables {
            assert!(!t.is_empty());
        }
    }
}
