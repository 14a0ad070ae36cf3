//! Cross-crate invariants over the whole benchmark suite: every strategy
//! yields valid placements, the analytic cost model agrees with the
//! simulator, and the paper's quality ordering holds in aggregate.

use rtm::offsetstone::{Tier, TierWorkload};
use rtm::{
    suite, Budget, GaConfig, PlacementProblem, RandomWalkConfig, RtmGeometry, SaConfig, Simulator,
    Strategy,
};

fn capacity_for(dbcs: usize, vars: usize) -> usize {
    (4096 * 8 / (dbcs * 32)).max(vars.div_ceil(dbcs))
}

const HEURISTICS: [Strategy; 7] = [
    Strategy::AfdNative,
    Strategy::AfdOfu,
    Strategy::DmaNative,
    Strategy::DmaOfu,
    Strategy::DmaChen,
    Strategy::DmaSr,
    Strategy::DmaMultiSr,
];

/// Every heuristic solves `seq` at each DBC count, on the capacity the
/// CLI grows to fit, with a valid placement.
fn assert_heuristics_valid(name: &str, seq: &rtm::AccessSequence, dbcs: &[usize]) {
    for &dbcs in dbcs {
        let capacity = capacity_for(dbcs, seq.vars().len());
        let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);
        for strategy in &HEURISTICS {
            let sol = problem
                .solve(strategy)
                .unwrap_or_else(|e| panic!("{} on {name} @ {dbcs} DBCs: {e}", strategy.name()));
            sol.placement.validate(seq, capacity).unwrap_or_else(|e| {
                panic!("{} invalid on {name} @ {dbcs} DBCs: {e}", strategy.name())
            });
        }
    }
}

#[test]
fn all_heuristics_are_valid_on_the_whole_suite() {
    for bench in suite() {
        assert_heuristics_valid(bench.name(), &bench.trace(), &[2, 8]);
    }
}

#[test]
fn all_heuristics_are_valid_on_every_tier_workload() {
    // At scale 0.1 `adv-chase` leaves DMA-Multi more interleaved
    // variables than its non-chain DBCs hold at 2, 4 and 8 DBCs, and at
    // one DBC every workload has chains and a leftover to share it.
    for tier in Tier::ALL {
        for workload in tier.workloads_scaled(0.1) {
            assert_heuristics_valid(workload.name(), &workload.generate(), &[1, 2, 4, 8]);
        }
    }
}

#[test]
fn simulator_matches_cost_model_on_the_whole_suite() {
    for bench in suite() {
        let seq = bench.trace();
        let dbcs = 4;
        let capacity = capacity_for(dbcs, seq.vars().len());
        let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);
        let sol = problem.solve(&Strategy::DmaSr).unwrap();
        let geometry = RtmGeometry::new(dbcs, 32, capacity, 1).unwrap();
        let params = rtm::arch::table1::preset(dbcs).unwrap();
        let sim = Simulator::new(geometry, params).unwrap();
        let stats = sim.run(&seq, &sol.placement).unwrap();
        assert_eq!(stats.shifts, sol.shifts, "{}", bench.name());
        assert_eq!(stats.per_dbc_shifts, sol.per_dbc_shifts, "{}", bench.name());
        assert_eq!(stats.accesses() as usize, seq.len(), "{}", bench.name());
    }
}

#[test]
fn quality_ordering_holds_in_aggregate() {
    // The paper's Fig. 4 ordering, summed over a sample of the suite:
    // DMA-SR <= DMA-Chen (approx) <= DMA-OFU < AFD-OFU.
    let mut totals = [0u64; 4]; // afd_ofu, dma_ofu, dma_chen, dma_sr
    for name in [
        "adpcm", "gzip", "bison", "fft", "sparse", "h263", "cc65", "triangle",
    ] {
        let seq = rtm::Benchmark::by_name(name).unwrap().trace();
        let dbcs = 4;
        let problem =
            PlacementProblem::new(seq.clone(), dbcs, capacity_for(dbcs, seq.vars().len()));
        totals[0] += problem.solve(&Strategy::AfdOfu).unwrap().shifts;
        totals[1] += problem.solve(&Strategy::DmaOfu).unwrap().shifts;
        totals[2] += problem.solve(&Strategy::DmaChen).unwrap().shifts;
        totals[3] += problem.solve(&Strategy::DmaSr).unwrap().shifts;
    }
    let [afd, dma_ofu, dma_chen, dma_sr] = totals;
    assert!(dma_ofu < afd, "DMA-OFU {dma_ofu} !< AFD-OFU {afd}");
    assert!(
        dma_chen < dma_ofu,
        "DMA-Chen {dma_chen} !< DMA-OFU {dma_ofu}"
    );
    assert!(dma_sr < dma_ofu, "DMA-SR {dma_sr} !< DMA-OFU {dma_ofu}");
    assert!(
        dma_sr <= dma_chen,
        "DMA-SR {dma_sr} !<= DMA-Chen {dma_chen}"
    );
}

#[test]
fn ga_and_rw_respect_search_contracts() {
    let seq = rtm::Benchmark::by_name("anagram").unwrap().trace();
    let dbcs = 2;
    let capacity = capacity_for(dbcs, seq.vars().len());
    let problem = PlacementProblem::new(seq.clone(), dbcs, capacity);

    let ga = problem.solve(&Strategy::Ga(GaConfig::quick())).unwrap();
    let best_heuristic = problem.solve(&Strategy::DmaSr).unwrap().shifts;
    assert!(
        ga.shifts <= best_heuristic,
        "seeded GA {} must match/beat DMA-SR {}",
        ga.shifts,
        best_heuristic
    );

    let rw = problem
        .solve(&Strategy::RandomWalk(RandomWalkConfig::quick()))
        .unwrap();
    rw.placement.validate(&seq, capacity).unwrap();
    // RW samples blindly; on a trace this size it loses to the GA clearly.
    assert!(rw.shifts >= ga.shifts);
}

/// Best-of-the-heuristic-family shifts divided by what a budgeted SA run
/// finds from a cold start on the same problem — 1.0 means the heuristics
/// left nothing on the table.
fn heuristic_regret(workload: &str, scale: f64) -> f64 {
    let seq = TierWorkload::by_name(workload, scale)
        .unwrap_or_else(|| panic!("unknown workload {workload}"))
        .generate();
    let dbcs = 4;
    let capacity = capacity_for(dbcs, seq.vars().len());
    let problem = PlacementProblem::new(seq, dbcs, capacity);
    let heuristic = [
        Strategy::AfdOfu,
        Strategy::DmaOfu,
        Strategy::DmaChen,
        Strategy::DmaSr,
    ]
    .iter()
    .map(|s| problem.solve(s).unwrap().shifts)
    .min()
    .unwrap();
    let sa = problem
        .solve(&Strategy::Sa(SaConfig::new(Budget::evals(20_000))))
        .unwrap()
        .shifts;
    heuristic as f64 / sa.max(1) as f64
}

#[test]
fn adversarial_tier_maximizes_heuristic_regret() {
    // The adversarial generators exist to break locality-driven
    // heuristics. `adv-ping` ping-pongs between distant pairs — a search
    // can co-locate each pair, but access-frequency heuristics cannot see
    // the pairing — so the regret there must decisively exceed every
    // expected-tier workload's (measured ~1.96 vs at most ~1.31; all runs
    // are seed-fixed and thread-count invariant, hence deterministic).
    let expected_worst = ["expected-ctl", "expected-dsp", "expected-sci"]
        .iter()
        .map(|w| heuristic_regret(w, 1.0))
        .fold(0.0f64, f64::max);
    let adversarial = heuristic_regret("adv-ping", 0.2);
    assert!(
        expected_worst < 1.5,
        "heuristics should stay competitive on the expected tier, worst regret {expected_worst:.3}"
    );
    assert!(
        adversarial > 1.5,
        "adv-ping should leave a large gap to search, regret {adversarial:.3}"
    );
    assert!(
        adversarial > expected_worst * 1.2,
        "adversarial regret {adversarial:.3} should clearly exceed the expected tier's worst {expected_worst:.3}"
    );
}

#[test]
fn shift_reduction_diminishes_with_dbc_count() {
    // "the shift reduction is less pronounced when more DBCs are employed".
    let seq = rtm::Benchmark::by_name("gsm").unwrap().trace();
    let improvement = |dbcs: usize| {
        let problem =
            PlacementProblem::new(seq.clone(), dbcs, capacity_for(dbcs, seq.vars().len()));
        let afd = problem.solve(&Strategy::AfdOfu).unwrap().shifts;
        let dma = problem.solve(&Strategy::DmaSr).unwrap().shifts;
        afd as f64 / dma.max(1) as f64
    };
    let at2 = improvement(2);
    let at16 = improvement(16);
    assert!(
        at2 > at16 * 0.8,
        "improvement should not grow strongly with DBCs: {at2:.2} vs {at16:.2}"
    );
    // Absolute shifts fall as DBCs increase (sparser distribution).
    let shifts = |dbcs: usize| {
        PlacementProblem::new(seq.clone(), dbcs, capacity_for(dbcs, seq.vars().len()))
            .solve(&Strategy::DmaSr)
            .unwrap()
            .shifts
    };
    assert!(shifts(16) < shifts(2));
}
