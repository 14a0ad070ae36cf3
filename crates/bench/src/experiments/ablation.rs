//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **Intra-DBC refinement** — DMA native order vs. DMA + ShiftsReduce
//!    (the value of Algorithm 1's lines 22–23).
//! 2. **SR local search** — bidirectional grouping alone vs. grouping +
//!    adjacent-swap refinement.
//! 3. **GA seeding** — heuristic-seeded vs. random-only initial population
//!    at the paper's budget.
//! 4. **Multi-chain DMA** — the paper's §VI future-work extension vs. the
//!    published single-chain heuristic.

use super::{capacity_for, selected_benchmarks, ExperimentResult};
use crate::{geomean, ExperimentOpts, Table};
use rtm_placement::intra::{IntraHeuristic, ShiftsReduce};
use rtm_placement::{GaConfig, GeneticPlacer, Placement, PlacementProblem, Strategy};

/// One ablation row: geomean shifts of the baseline and the variant.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// What is being ablated.
    pub name: &'static str,
    /// Geomean shifts with the design choice enabled.
    pub with_choice: f64,
    /// Geomean shifts with it disabled / replaced.
    pub without_choice: f64,
}

impl AblationRow {
    /// Improvement factor of the design choice.
    pub fn factor(&self) -> f64 {
        self.without_choice / self.with_choice.max(1e-12)
    }
}

/// Runs all four ablations on the selected benchmarks at the first `--dbcs`
/// entry.
pub fn collect(opts: &ExperimentOpts) -> Vec<AblationRow> {
    let dbcs = opts.dbcs.first().copied().unwrap_or(4);
    let benchmarks = selected_benchmarks(opts);

    let mut intra_with = Vec::new();
    let mut intra_without = Vec::new();
    let mut sr_with = Vec::new();
    let mut sr_without = Vec::new();
    let mut multi_with = Vec::new();
    let mut multi_without = Vec::new();
    let mut ga_seeded = Vec::new();
    let mut ga_random = Vec::new();

    for (_, seq) in &benchmarks {
        let capacity = capacity_for(dbcs, seq.vars().len());
        let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);
        let shifts = |s: &Strategy| problem.solve(s).expect("fits").shifts.max(1) as f64;

        // 1. Intra refinement on non-disjoint DBCs.
        intra_with.push(shifts(&Strategy::DmaSr));
        intra_without.push(shifts(&Strategy::DmaNative));

        // 2. SR local search (single-DBC view: order all variables).
        let vars = seq.liveness().by_first_occurrence();
        let refined = ShiftsReduce::new().order(&vars, seq.accesses());
        let raw = ShiftsReduce::new()
            .with_max_passes(0)
            .order(&vars, seq.accesses());
        let single = |order: Vec<rtm_trace::VarId>| {
            let p = Placement::from_dbc_lists(vec![order]);
            problem.cost_model().shift_cost(&p, seq.accesses()).max(1) as f64
        };
        sr_with.push(single(refined));
        sr_without.push(single(raw));

        // 3. Multi-chain DMA.
        multi_with.push(shifts(&Strategy::DmaMultiSr));
        multi_without.push(shifts(&Strategy::DmaSr));

        // 4. GA seeding (quick budget to keep the ablation affordable).
        let mut cfg = GaConfig::quick().with_seed(opts.seed);
        cfg.seed_with_heuristics = true;
        let seeded = GeneticPlacer::new(cfg)
            .run(seq, dbcs, capacity)
            .expect("fits")
            .best_cost;
        cfg.seed_with_heuristics = false;
        let random = GeneticPlacer::new(cfg)
            .run(seq, dbcs, capacity)
            .expect("fits")
            .best_cost;
        ga_seeded.push(seeded.max(1) as f64);
        ga_random.push(random.max(1) as f64);
    }

    vec![
        AblationRow {
            name: "intra refinement on non-disjoint DBCs (DMA-SR vs DMA native)",
            with_choice: geomean(&intra_with),
            without_choice: geomean(&intra_without),
        },
        AblationRow {
            name: "SR adjacent-swap local search (8 passes vs 0, single DBC)",
            with_choice: geomean(&sr_with),
            without_choice: geomean(&sr_without),
        },
        AblationRow {
            name: "multi-chain DMA (future work, vs single-chain DMA-SR)",
            with_choice: geomean(&multi_with),
            without_choice: geomean(&multi_without),
        },
        AblationRow {
            name: "GA heuristic seeding (vs random-only population)",
            with_choice: geomean(&ga_seeded),
            without_choice: geomean(&ga_random),
        },
    ]
}

/// Runs the experiment and renders the table.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let rows = collect(opts);
    let mut t = Table::new(vec![
        "ablation".into(),
        "with".into(),
        "without".into(),
        "factor".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.name.to_owned(),
            format!("{:.1}", r.with_choice),
            format!("{:.1}", r.without_choice),
            format!("{:.2}x", r.factor()),
        ]);
    }
    ExperimentResult {
        tables: vec![("ablation".into(), t)],
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
            benchmarks: vec!["adpcm".into(), "anagram".into()],
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn intra_refinement_helps() {
        let rows = collect(&quick_opts());
        let intra = &rows[0];
        assert!(
            intra.factor() > 1.0,
            "intra refinement factor {}",
            intra.factor()
        );
    }

    #[test]
    fn sr_local_search_never_hurts() {
        let rows = collect(&quick_opts());
        assert!(rows[1].factor() >= 1.0 - 1e-9);
    }

    #[test]
    fn ga_seeding_never_hurts() {
        let rows = collect(&quick_opts());
        assert!(rows[3].factor() >= 1.0 - 1e-9, "{}", rows[3].factor());
    }

    #[test]
    fn table_renders_four_rows() {
        let r = run(&quick_opts());
        assert_eq!(r.tables[0].1.len(), 4);
    }
}
