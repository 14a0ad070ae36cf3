//! One module per table/figure of the paper's evaluation.

pub mod ablation;
pub mod capacity;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod ga_convergence;
pub mod latency;
pub mod perf;
pub mod portfolio;
pub mod ports;
pub mod scale;
pub mod serve;
pub mod smp;
pub mod table1;

use crate::ExperimentOpts;
use crate::Table;
use rtm_arch::{table1 as arch_table1, ArrayGeometry, MemoryParams, RtmGeometry, ScalingModel};
use rtm_offsetstone::{suite, Benchmark};
use rtm_placement::inter::default_capacity;
use rtm_placement::{PlacementProblem, Solution, Strategy};
use rtm_sim::{SimStats, Simulator};
use rtm_trace::AccessSequence;

/// A finished experiment: named tables ready for printing and CSV export,
/// plus the machine-readable record some experiments keep.
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// `(name, table)` pairs, in presentation order.
    pub tables: Vec<(String, Table)>,
    /// `(file name, JSON text)` of the experiment's `BENCH_*.json` record.
    pub record: Option<(&'static str, String)>,
}

impl ExperimentResult {
    /// Writes the record (if any) under `opts.out_dir`, then prints every
    /// table to stdout and writes `<name>.csv` files next to it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the record and CSV export.
    pub fn emit(&self, opts: &ExperimentOpts) -> std::io::Result<()> {
        if let Some((file, json)) = &self.record {
            std::fs::create_dir_all(&opts.out_dir)?;
            let path = opts.out_dir.join(file);
            std::fs::write(&path, json)?;
            println!("wrote {}", path.display());
        }
        for (name, table) in &self.tables {
            println!("\n== {name} ==\n");
            println!("{}", table.to_markdown());
            table.write_csv(&opts.out_dir.join(format!("{name}.csv")))?;
        }
        Ok(())
    }
}

/// Locations per DBC of the **legacy grown-track spill**: the paper's 4 KiB
/// subarray offers 512/256/128/64 locations for 2/4/8/16 DBCs, and
/// benchmarks that exceed it get their tracks stretched just enough to fit.
///
/// This was the experiments' default until the capacity-aware
/// multi-subarray path replaced it ([`array_for`]); it is kept as the
/// explicit `--legacy-spill` comparison baseline and for the perf/ablation
/// micro-harnesses where the grown flat geometry is the measured artifact.
pub fn capacity_for(dbcs: usize, vars: usize) -> usize {
    default_capacity(dbcs, vars)
}

/// The paper-faithful 4 KiB subarray for a DBC count: 32 tracks, Table I
/// domains per track, single port. Tracks are **never grown**.
pub fn subarray_for(dbcs: usize) -> RtmGeometry {
    RtmGeometry::new(dbcs, 32, default_capacity(dbcs, 0), 1).expect("paper subarray is valid")
}

/// The smallest array of paper-faithful 4 KiB subarrays (each `dbcs` DBCs)
/// holding `vars` variables — the capacity-aware replacement for the
/// [`capacity_for`] track-growing spill: workloads that exceed one subarray
/// get more subarrays, not longer tracks.
pub fn array_for(dbcs: usize, vars: usize) -> ArrayGeometry {
    ArrayGeometry::sized_for(subarray_for(dbcs), vars)
}

/// The per-operation parameters for a DBC count: Table I when tabulated,
/// the [`ScalingModel`] fit otherwise.
pub fn params_for(dbcs: usize) -> MemoryParams {
    arch_table1::preset(dbcs).unwrap_or_else(|| ScalingModel::from_table1().params(dbcs))
}

/// Builds a simulator for `dbcs` DBCs with tracks long enough for
/// `capacity` locations.
///
/// # Panics
///
/// Panics if the geometry is degenerate (zero counts) — impossible for the
/// experiment sweeps.
pub fn simulator_for(dbcs: usize, capacity: usize) -> Simulator {
    simulator_with_ports(dbcs, capacity, 1)
}

/// Like [`simulator_for`], with `ports` access ports per track (the
/// `ports` experiment's §V sweep).
///
/// # Panics
///
/// Panics if the geometry is degenerate (zero counts, or more ports than
/// domains) — the sweeps cap the port count at the capacity.
pub fn simulator_with_ports(dbcs: usize, capacity: usize, ports: usize) -> Simulator {
    let geometry = RtmGeometry::new(dbcs, 32, capacity, ports).expect("valid geometry");
    Simulator::new(geometry, params_for(dbcs)).expect("matching params")
}

/// Solves one benchmark trace for one configuration with one strategy and
/// simulates the result — the **capacity-aware** path: placement happens
/// inside the smallest array of paper-faithful 4 KiB subarrays that fits
/// the benchmark ([`array_for`]); tracks are never grown.
///
/// For benchmarks that fit one subarray this is bit-identical to the
/// historical behavior (the array degenerates to the flat geometry).
///
/// # Panics
///
/// Panics if the strategy fails (arrays are sized by [`array_for`], so
/// this indicates a bug).
pub fn solve_and_simulate(
    seq: &AccessSequence,
    dbcs: usize,
    strategy: &Strategy,
) -> (Solution, SimStats) {
    let array = array_for(dbcs, seq.vars().len());
    let problem = PlacementProblem::for_array(seq.clone(), &array);
    let solution = problem
        .solve(strategy)
        .expect("experiment arrays always fit");
    let stats = Simulator::for_array(&array)
        .run(seq, &solution.placement)
        .expect("solution placements are valid");
    (solution, stats)
}

/// [`solve_and_simulate`] with the historical `--legacy-spill` behavior
/// switchable: `legacy_spill` grows the flat subarray's tracks just enough
/// to fit ([`capacity_for`]) instead of adding subarrays.
pub fn solve_and_simulate_with(
    seq: &AccessSequence,
    dbcs: usize,
    strategy: &Strategy,
    legacy_spill: bool,
) -> (Solution, SimStats) {
    if !legacy_spill {
        return solve_and_simulate(seq, dbcs, strategy);
    }
    let capacity = capacity_for(dbcs, seq.vars().len());
    let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);
    let solution = problem
        .solve(strategy)
        .expect("experiment capacities always fit");
    let stats = simulator_for(dbcs, capacity)
        .run(seq, &solution.placement)
        .expect("solution placements are valid");
    (solution, stats)
}

/// The benchmarks selected by `opts`, with their canonical traces.
pub fn selected_benchmarks(opts: &ExperimentOpts) -> Vec<(Benchmark, AccessSequence)> {
    suite()
        .into_iter()
        .filter(|b| opts.selects(b.name()))
        .map(|b| {
            let t = b.trace();
            (b, t)
        })
        .collect()
}

/// Like [`selected_benchmarks`], but under `--multi-seq` every benchmark
/// contributes *all* of its access sequences (the canonical large one plus
/// the small per-function style ones), matching the real OffsetStone
/// suite's composition more closely.
pub fn selected_sequences(opts: &ExperimentOpts) -> Vec<(Benchmark, Vec<AccessSequence>)> {
    suite()
        .into_iter()
        .filter(|b| opts.selects(b.name()))
        .map(|b| {
            let seqs = if opts.multi_seq {
                b.sequences()
            } else {
                vec![b.trace()]
            };
            (b, seqs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_covers_table_and_spill() {
        assert_eq!(capacity_for(2, 100), 512);
        assert_eq!(capacity_for(16, 100), 64);
        // mpeg2: 1336 vars on 16 DBCs -> needs 84 per DBC.
        assert_eq!(capacity_for(16, 1336), 84);
    }

    #[test]
    fn arrays_never_grow_tracks() {
        for dbcs in [2usize, 4, 8, 16] {
            let sub = subarray_for(dbcs);
            assert_eq!(sub.capacity_bytes(), 4096);
            // mpeg2's 1336 variables: more subarrays, same tracks.
            let a = array_for(dbcs, 1336);
            assert_eq!(a.locations_per_dbc(), sub.locations_per_dbc());
            assert!(a.fits(1336));
            // Small benchmarks stay on one subarray.
            assert_eq!(array_for(dbcs, 100).subarrays(), 1);
        }
        assert_eq!(array_for(16, 1336).subarrays(), 2);
    }

    #[test]
    fn capacity_aware_path_matches_legacy_when_nothing_spills() {
        // adpcm (165 vars) fits one subarray at 4 DBCs: the new default
        // must reproduce the legacy behavior bit for bit.
        let seq = Benchmark::by_name("adpcm").unwrap().trace();
        let (sol_new, stats_new) = solve_and_simulate(&seq, 4, &Strategy::DmaSr);
        let (sol_old, stats_old) = solve_and_simulate_with(&seq, 4, &Strategy::DmaSr, true);
        assert_eq!(sol_new.placement, sol_old.placement);
        assert_eq!(sol_new.shifts, sol_old.shifts);
        assert_eq!(stats_new, stats_old);
    }

    #[test]
    fn spilling_benchmark_is_placed_within_paper_subarrays() {
        // mpeg2 at 16 DBCs used to grow tracks to 84 domains; the
        // capacity-aware path keeps 64-domain tracks on 2 subarrays.
        let seq = Benchmark::by_name("mpeg2").unwrap().trace();
        let array = array_for(16, seq.vars().len());
        assert_eq!((array.subarrays(), array.locations_per_dbc()), (2, 64));
        let (sol, stats) = solve_and_simulate(&seq, 16, &Strategy::DmaSr);
        assert_eq!(sol.shifts, stats.shifts);
        sol.placement.validate_array(&seq, &array).unwrap();
        assert_eq!(stats.per_subarray_shifts(16).len(), 2);
    }

    #[test]
    fn params_for_all_sweep_points() {
        for d in [2, 4, 8, 12, 16] {
            let p = params_for(d);
            assert_eq!(p.dbcs, d);
            p.validate().unwrap();
        }
    }

    #[test]
    fn solve_and_simulate_agree_on_shifts() {
        let seq = Benchmark::by_name("adpcm").unwrap().trace();
        let (sol, stats) = solve_and_simulate(&seq, 4, &Strategy::DmaSr);
        assert_eq!(sol.shifts, stats.shifts);
    }

    #[test]
    fn benchmark_filter_applies() {
        let opts = ExperimentOpts {
            benchmarks: vec!["gzip".into(), "dct".into()],
            ..ExperimentOpts::default()
        };
        let sel = selected_benchmarks(&opts);
        assert_eq!(sel.len(), 2);
    }
}
