//! Ablation: access-port count. The paper's motivation for *generalized*
//! placement is that Chen's multi-DBC heuristic "is designed for RTMs with
//! two or more access ports per track" while DMA "is independent of the
//! number of ports" (§II-B, §III). This experiment sweeps the port counts
//! of `--ports` (default 1/2/4) at a fixed DBC count and compares three
//! lanes per benchmark:
//!
//! * **AFD-OFU (rescored)** / **DMA-SR (rescored)** — placements produced
//!   with the single-port cost model (the heuristics are port-agnostic,
//!   which is the point) and *re-evaluated* under each multi-port model;
//! * **GA (port-aware)** — the genetic search run *under* the multi-port
//!   objective itself ([`PlacementProblem::with_ports`]), seeded with the
//!   port-agnostic heuristics. Because the DMA-SR placement sits in the
//!   GA's elitist initial population, the port-aware lane can never lose
//!   to the rescored DMA-SR lane — the sweep quantifies how much
//!   *searching* under the real port model wins on top of re-scoring.
//!
//! Zero-shift results are counted explicitly per lane (last table column)
//! and excluded from the geometric means rather than being clamped to 1.

use super::{capacity_for, selected_benchmarks, simulator_with_ports, ExperimentResult};
use crate::{geomean_nonzero, ExperimentOpts, Table};
use rtm_placement::{PlacementProblem, Strategy};
use std::collections::BTreeMap;

/// Default port counts swept (`--ports` overrides).
pub const PORT_COUNTS: [usize; 3] = [1, 2, 4];

/// Lane label: AFD-OFU placed port-agnostically, re-scored per port model.
pub const AFD_RESCORED: &str = "AFD-OFU (rescored)";
/// Lane label: DMA-SR placed port-agnostically, re-scored per port model.
pub const DMA_RESCORED: &str = "DMA-SR (rescored)";
/// Lane label: GA searching under the multi-port objective.
pub const GA_AWARE: &str = "GA (port-aware)";

/// Collects `(lane, ports) -> per-benchmark shift counts`, benchmarks in
/// suite order (indices align across lanes). Raw counts — zero stays zero.
///
/// Each port-aware result is cross-checked against the trace-driven
/// simulator on the matching multi-port geometry (the §3.1 fidelity
/// contract, enforced at collection time).
///
/// # Panics
///
/// Panics if a swept port count exceeds some benchmark's track length —
/// such a row would silently measure a different model than its label.
pub fn collect(opts: &ExperimentOpts) -> BTreeMap<(String, usize), Vec<f64>> {
    let dbcs = opts.dbcs.first().copied().unwrap_or(4);
    let mut out: BTreeMap<(String, usize), Vec<f64>> = BTreeMap::new();
    for (bench, seq) in selected_benchmarks(opts) {
        let capacity = capacity_for(dbcs, seq.vars().len());
        // The port-agnostic placements are computed once per benchmark…
        let agnostic = PlacementProblem::new(seq.clone(), dbcs, capacity);
        let afd = agnostic.solve(&Strategy::AfdOfu).expect("capacity fits");
        let dma = agnostic.solve(&Strategy::DmaSr).expect("capacity fits");
        for &ports in &opts.ports {
            assert!(
                ports <= capacity,
                "--ports {ports} exceeds {}'s track length {capacity} — \
                 the row would not measure what it is labeled",
                bench.name()
            );
            // …and re-scored under each port model, while the port-aware
            // lane searches under that model directly.
            let aware_problem =
                PlacementProblem::new(seq.clone(), dbcs, capacity).with_ports(ports);
            let mut push = |lane: &str, shifts: u64| {
                out.entry((lane.to_owned(), ports))
                    .or_default()
                    .push(shifts as f64);
            };
            push(AFD_RESCORED, aware_problem.evaluate(&afd.placement));
            push(DMA_RESCORED, aware_problem.evaluate(&dma.placement));
            let ga = aware_problem
                .solve(&Strategy::Ga(opts.ga_config()))
                .expect("capacity fits");
            let sim_shifts = simulator_with_ports(dbcs, capacity, ports)
                .run(&seq, &ga.placement)
                .expect("GA placements fit the geometry")
                .shifts;
            assert_eq!(
                sim_shifts,
                ga.shifts,
                "simulator/cost-model divergence on {} at {ports} ports",
                bench.name()
            );
            push(GA_AWARE, ga.shifts);
        }
    }
    out
}

/// Runs the ablation: per-port geomean shifts for the three lanes, the
/// DMA-SR vs AFD-OFU improvement, the port-aware search's win over the
/// rescored DMA-SR, and the explicit zero-shift counts.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let data = collect(opts);
    let mut t = Table::new(vec![
        "ports".into(),
        "AFD-OFU rescored".into(),
        "DMA-SR rescored".into(),
        "GA port-aware".into(),
        "DMA-SR vs AFD".into(),
        "aware vs DMA-SR".into(),
        "zero-shift runs (afd/dma/ga)".into(),
    ]);
    for &ports in &opts.ports {
        let (afd, afd_zeros) = geomean_nonzero(&data[&(AFD_RESCORED.to_owned(), ports)]);
        let (dma, dma_zeros) = geomean_nonzero(&data[&(DMA_RESCORED.to_owned(), ports)]);
        let (ga, ga_zeros) = geomean_nonzero(&data[&(GA_AWARE.to_owned(), ports)]);
        t.row(vec![
            ports.to_string(),
            format!("{afd:.1}"),
            format!("{dma:.1}"),
            format!("{ga:.1}"),
            format!("{:.2}x", afd / dma.max(1e-12)),
            format!("{:.2}x", dma / ga.max(1e-12)),
            format!("{afd_zeros}/{dma_zeros}/{ga_zeros}"),
        ]);
    }
    ExperimentResult {
        tables: vec![("ports_ablation".into(), t)],
        record: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![4],
            benchmarks: vec!["adpcm".into(), "gzip".into(), "fft".into()],
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn dma_advantage_persists_across_port_counts() {
        let data = collect(&quick_opts());
        for ports in PORT_COUNTS {
            let (afd, _) = crate::geomean_nonzero(&data[&(AFD_RESCORED.to_owned(), ports)]);
            let (dma, _) = crate::geomean_nonzero(&data[&(DMA_RESCORED.to_owned(), ports)]);
            assert!(
                dma < afd,
                "{ports} ports: DMA-SR {dma:.0} should beat AFD-OFU {afd:.0}"
            );
        }
    }

    #[test]
    fn more_ports_reduce_shifts_per_benchmark() {
        // Re-scoring the *same* placement with more ports can never cost
        // more — checked per benchmark, not through the geomean (so a
        // benchmark dropping to zero shifts cannot mask a regression).
        let data = collect(&quick_opts());
        for lane in [AFD_RESCORED, DMA_RESCORED] {
            let one = &data[&(lane.to_owned(), 1)];
            let four = &data[&(lane.to_owned(), 4)];
            for (i, (a, b)) in one.iter().zip(four).enumerate() {
                assert!(b <= a, "{lane} bench #{i}: 4 ports {b} > 1 port {a}");
            }
        }
    }

    #[test]
    fn port_aware_search_never_loses_to_rescoring() {
        // The GA's elitist initial population contains the DMA-SR seed, so
        // searching under the multi-port objective is at worst a re-score
        // of it — per benchmark, at every swept port count.
        let data = collect(&quick_opts());
        for ports in PORT_COUNTS {
            let rescored = &data[&(DMA_RESCORED.to_owned(), ports)];
            let aware = &data[&(GA_AWARE.to_owned(), ports)];
            for (i, (d, g)) in rescored.iter().zip(aware).enumerate() {
                assert!(
                    g <= d,
                    "{ports} ports, bench #{i}: aware {g} > rescored {d}"
                );
            }
        }
    }

    #[test]
    fn collected_table_is_deterministic() {
        let opts = quick_opts();
        assert_eq!(collect(&opts), collect(&opts));
    }

    #[test]
    fn table_renders_with_zero_counts() {
        let opts = quick_opts();
        let r = run(&opts);
        let table = &r.tables[0].1;
        assert_eq!(table.len(), opts.ports.len());
        // The zero-count column is present and formatted a/b/c.
        for row in table.rows() {
            assert_eq!(row.last().unwrap().split('/').count(), 3);
        }
    }
}
