//! The quadratic heuristic pipeline, kept as a test-only reference for the
//! near-linear one (`DESIGN.md` §5.1).
//!
//! The pieces the rewrite replaced are the original code here: the
//! `O(V²)` liveness scan of Algorithm 1, membership tests by list scan,
//! the per-DBC trace split through `list.contains`, the hash-map access
//! graph, and the grouping's scan of every unplaced vertex for the next
//! one. What the rewrite did not change (DMA's capacity loop and deal,
//! DmaMulti's packing, ShiftsReduce's swap refinement) is shared with
//! the production path. The proptest below holds every heuristic
//! [`Solution`] and [`heuristic_seeds`](PlacementProblem::heuristic_seeds)
//! list to this pipeline's, bit for bit.

use crate::error::PlacementError;
use crate::inter::{check_fit, Afd, Dma, DmaMulti, DmaPartition, InterHeuristic};
use crate::intra::grouping::{LocalGraph, Seed};
use crate::intra::ShiftsReduce;
use crate::search::StopCause;
use crate::{EngineStats, Placement, PlacementProblem, Solution, Strategy};
use rtm_trace::{AccessSequence, Liveness, VarId};
use std::collections::HashMap;
use std::time::Duration;

/// Algorithm 1, lines 5–12, testing `V_ndj` membership and nesting for
/// every pair of candidates.
fn scan_chain(live: &Liveness, candidates: &[VarId]) -> Vec<VarId> {
    let mut in_ndj: Vec<bool> = vec![false; live.len()];
    for &v in candidates {
        in_ndj[v.index()] = true;
    }
    let mut chain = Vec::new();
    let mut t_min = 0usize;
    for &v in candidates {
        if live.first(v) > t_min {
            // Σ A_u over u still in V_ndj with F_u > F_v and L_u < L_v.
            let nested_sum: u64 = candidates
                .iter()
                .filter(|&&u| {
                    u != v
                        && in_ndj[u.index()]
                        && live.first(u) > live.first(v)
                        && live.last(u) < live.last(v)
                })
                .map(|&u| live.frequency(u))
                .sum();
            if live.frequency(v) > nested_sum {
                chain.push(v);
                in_ndj[v.index()] = false;
                t_min = live.last(v);
            }
        }
    }
    chain
}

fn partition(live: &Liveness) -> DmaPartition {
    let order = live.by_first_occurrence();
    let disjoint = scan_chain(live, &order);
    let non_disjoint = order
        .into_iter()
        .filter(|v| !disjoint.contains(v))
        .collect();
    DmaPartition {
        disjoint,
        non_disjoint,
    }
}

/// `DmaMulti::chains` with the default budget of four chains.
fn chains(live: &Liveness) -> (Vec<Vec<VarId>>, Vec<VarId>) {
    let mut remaining = live.by_first_occurrence();
    let mut chains = Vec::new();
    for _ in 0..4 {
        let chain = scan_chain(live, &remaining);
        if chain.len() < 2 {
            break;
        }
        remaining.retain(|v| !chain.contains(v));
        chains.push(chain);
        if remaining.is_empty() {
            break;
        }
    }
    (chains, remaining)
}

/// The access graph of `sub` through two hash maps.
fn local_graph(sub: &[VarId]) -> LocalGraph {
    let mut index = HashMap::new();
    let mut vars = Vec::new();
    for &v in sub {
        index.entry(v).or_insert_with(|| {
            vars.push(v);
            vars.len() - 1
        });
    }
    let n = vars.len();
    let mut weights: HashMap<(usize, usize), u64> = HashMap::new();
    let mut freq = vec![0u64; n];
    for &v in sub {
        freq[index[&v]] += 1;
    }
    for pair in sub.windows(2) {
        let (a, b) = (index[&pair[0]], index[&pair[1]]);
        if a != b {
            let key = (a.min(b), a.max(b));
            *weights.entry(key).or_insert(0) += 1;
        }
    }
    let mut adj = vec![Vec::new(); n];
    for (&(a, b), &w) in &weights {
        adj[a].push((b, w));
        adj[b].push((a, w));
    }
    for l in &mut adj {
        l.sort_unstable();
    }
    LocalGraph::from_parts(vars, adj, freq)
}

fn append_unaccessed(mut ordered: Vec<VarId>, vars: &[VarId]) -> Vec<VarId> {
    for &v in vars {
        if !ordered.contains(&v) {
            ordered.push(v);
        }
    }
    ordered
}

#[derive(Debug, Clone, Copy)]
enum Intra {
    Ofu,
    Chen,
    Sr,
}

fn order(intra: Intra, vars: &[VarId], sub: &[VarId]) -> Vec<VarId> {
    match intra {
        Intra::Ofu => {
            let mut seen = Vec::with_capacity(vars.len());
            for &v in sub {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
            append_unaccessed(seen, vars)
        }
        Intra::Chen => {
            let g = local_graph(sub);
            let grouped = grouping(&g, Seed::Frequency);
            append_unaccessed(grouped.into_iter().map(|v| g.vars[v]).collect(), vars)
        }
        Intra::Sr => {
            let g = local_graph(sub);
            let grouped = grouping(&g, Seed::DegreeWeight);
            append_unaccessed(ShiftsReduce::new().refine(&g, grouped), vars)
        }
    }
}

/// The bidirectional grouping, scanning every unplaced vertex for the
/// next one to place.
fn grouping(g: &LocalGraph, seed: Seed) -> Vec<usize> {
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    let seed_vertex =
        match seed {
            Seed::Frequency => (0..n)
                .max_by_key(|&v| (g.freq[v], g.degree_weight(v), std::cmp::Reverse(g.vars[v]))),
            Seed::DegreeWeight => (0..n)
                .max_by_key(|&v| (g.degree_weight(v), g.freq[v], std::cmp::Reverse(g.vars[v]))),
        };
    let Some(seed_vertex) = seed_vertex else {
        unreachable!("n > 0 was checked above")
    };

    let mut left: Vec<usize> = Vec::new(); // grows outwards; left[0] next to seed
    let mut right: Vec<usize> = vec![seed_vertex];
    let mut placed = vec![false; n];
    placed[seed_vertex] = true;
    let mut relpos: Vec<i64> = vec![0; n];
    let mut conn: Vec<u64> = vec![0; n];
    for &(b, w) in &g.adj[seed_vertex] {
        conn[b] += w;
    }

    for _ in 1..n {
        let next = (0..n)
            .filter(|&v| !placed[v])
            .max_by_key(|&v| (conn[v], g.freq[v], std::cmp::Reverse(g.vars[v])));
        let Some(next) = next else {
            unreachable!("fewer than n vertices are placed")
        };

        let mut cost_left = 0i128;
        let mut cost_right = 0i128;
        let lpos = -(left.len() as i64) - 1;
        let rpos = right.len() as i64;
        for &(b, w) in &g.adj[next] {
            if placed[b] {
                let p = relpos[b];
                cost_left += w as i128 * (lpos - p).abs() as i128;
                cost_right += w as i128 * (rpos - p).abs() as i128;
            }
        }
        if cost_left < cost_right {
            left.push(next);
            relpos[next] = lpos;
        } else {
            right.push(next);
            relpos[next] = rpos;
        }
        placed[next] = true;
        for &(b, w) in &g.adj[next] {
            if !placed[b] {
                conn[b] += w;
            }
        }
    }

    left.into_iter().rev().chain(right).collect()
}

fn apply_intra(
    seq: &AccessSequence,
    mut dist: Vec<Vec<VarId>>,
    intra: Intra,
    skip: usize,
) -> Placement {
    for list in dist.iter_mut().skip(skip) {
        if list.len() < 2 {
            continue;
        }
        let sub = seq.restrict_to(|v| list.contains(&v));
        *list = order(intra, list, &sub);
    }
    Placement::from_dbc_lists(dist)
}

/// DMA's distribution and the number of leading DBCs whose first variable
/// is in `V_dj`.
fn dma(p: &PlacementProblem) -> Result<(Vec<Vec<VarId>>, usize), PlacementError> {
    let live = p.seq().liveness();
    check_fit(live.by_first_occurrence().len(), p.dbcs(), p.capacity())?;
    let part = partition(&live);
    let dist = Dma.assign(&live, part.clone(), p.dbcs(), p.capacity());
    let k = dist
        .iter()
        .take_while(|l| l.first().is_some_and(|v| part.disjoint.contains(v)))
        .count();
    Ok((dist, k))
}

/// DmaMulti's distribution and the number of leading DBCs whose first
/// variable is in a chain.
fn dma_multi(p: &PlacementProblem) -> Result<(Vec<Vec<VarId>>, usize), PlacementError> {
    let seq = p.seq();
    let live = seq.liveness();
    check_fit(live.by_first_occurrence().len(), p.dbcs(), p.capacity())?;
    let (chains, leftover) = chains(&live);
    let chain_vars: Vec<VarId> = chains.iter().flatten().copied().collect();
    let dist = DmaMulti::new().assign(&live, seq.len(), chains, leftover, p.dbcs(), p.capacity());
    let k = dist
        .iter()
        .take_while(|l| l.first().is_some_and(|v| chain_vars.contains(v)))
        .count();
    Ok((dist, k))
}

fn placement(p: &PlacementProblem, strategy: &Strategy) -> Result<Placement, PlacementError> {
    let seq = p.seq();
    let dma_with = |intra| dma(p).map(|(dist, k)| apply_intra(seq, dist, intra, k));
    match strategy {
        Strategy::AfdNative => Ok(Placement::from_dbc_lists(Afd.distribute(
            seq,
            p.dbcs(),
            p.capacity(),
        )?)),
        Strategy::AfdOfu => Ok(apply_intra(
            seq,
            Afd.distribute(seq, p.dbcs(), p.capacity())?,
            Intra::Ofu,
            0,
        )),
        Strategy::DmaNative => Ok(Placement::from_dbc_lists(dma(p)?.0)),
        Strategy::DmaOfu => dma_with(Intra::Ofu),
        Strategy::DmaChen => dma_with(Intra::Chen),
        Strategy::DmaSr => dma_with(Intra::Sr),
        Strategy::DmaMultiSr => dma_multi(p).map(|(dist, k)| apply_intra(seq, dist, Intra::Sr, k)),
        other => unreachable!("{other} is not a heuristic"),
    }
}

/// The reference [`Solution`] of a heuristic strategy.
fn solve(p: &PlacementProblem, strategy: &Strategy) -> Result<Solution, PlacementError> {
    let placement = placement(p, strategy)?;
    let per_dbc_shifts = p.cost_model().per_dbc_costs(&placement, p.seq().accesses());
    Ok(Solution {
        placement,
        shifts: per_dbc_shifts.iter().sum(),
        per_dbc_shifts,
        evals_consumed: 0,
        time_to_best: Duration::ZERO,
        elapsed: Duration::ZERO,
        stop: StopCause::Finished,
        lanes: Vec::new(),
        engine_stats: EngineStats::default(),
    })
}

/// The reference seed list: the four composite heuristics, solved one by
/// one, stably sorted by shifts.
fn heuristic_seeds(p: &PlacementProblem) -> Vec<Placement> {
    let mut scored: Vec<(u64, Placement)> = [
        Strategy::AfdOfu,
        Strategy::DmaOfu,
        Strategy::DmaChen,
        Strategy::DmaSr,
    ]
    .iter()
    .filter_map(|s| solve(p, s).ok().map(|sol| (sol.shifts, sol.placement)))
    .collect();
    scored.sort_by_key(|(shifts, _)| *shifts);
    scored.into_iter().map(|(_, p)| p).collect()
}

mod tests {
    use super::*;
    use crate::intra::shifts_reduce::restrict;
    use crate::Strategy;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::strategy::Strategy as _;
    use rtm_trace::VarTable;

    /// A random trace over `vars` variables whose accesses drift through
    /// the variable range, drawing from a window of `width` variables: a
    /// narrow window gives long disjoint chains and nested lifespans, a
    /// wide one fully interleaved traffic.
    fn drifting_trace(
        max_vars: usize,
        max_len: usize,
    ) -> impl proptest::strategy::Strategy<Value = AccessSequence> {
        (1..=max_vars).prop_flat_map(move |vars| {
            (1..=vars).prop_flat_map(move |width| {
                vec(0..vars, 1..=max_len).prop_map(move |draws| {
                    let mut table = VarTable::new();
                    let ids: Vec<VarId> =
                        (0..vars).map(|i| table.intern(&format!("v{i}"))).collect();
                    let len = draws.len();
                    let accesses = draws
                        .iter()
                        .enumerate()
                        .map(|(t, &r)| ids[(t * vars / len + r % width) % vars])
                        .collect();
                    AccessSequence::from_ids(table, accesses)
                })
            })
        })
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 4000 }))]

        /// Every heuristic solution and the seed list equal the quadratic
        /// reference pipeline's, over tight, slack and paper capacities at
        /// one and two ports.
        #[test]
        fn heuristics_match_the_quadratic_reference(
            seq in drifting_trace(64, 400),
            dbcs in 1usize..=16,
            slack in 0usize..3,
            two_ports in any::<bool>(),
        ) {
            let live = seq.liveness();
            let vars = live.by_first_occurrence().len();
            let tight = vars.div_ceil(dbcs).max(1);
            let capacity = [tight, tight + 3, 512][slack];
            let ports = if two_ports { 2.min(capacity) } else { 1 };
            let problem = PlacementProblem::new(seq.clone(), dbcs, capacity).with_ports(ports);

            prop_assert_eq!(Dma.partition(&seq), partition(&live));
            let (multi_chains, multi_left) = DmaMulti::new().chains(&seq);
            prop_assert_eq!((multi_chains, multi_left), chains(&live));
            for strategy in &HEURISTICS {
                let got = problem.solve(strategy);
                let want = solve(&problem, strategy);
                prop_assert_eq!(&got, &want, "{}", strategy);
                if let Ok(sol) = got {
                    sol.placement.validate(&seq, capacity).map_err(|e| {
                        TestCaseError::fail(format!("{strategy}: {e}"))
                    })?;
                    for list in sol.placement.dbc_lists() {
                        let sub = restrict(&seq, list);
                        prop_assert_eq!(LocalGraph::of(&sub), local_graph(&sub));
                        prop_assert_eq!(&sub, &seq.restrict_to(|v| list.contains(&v)));
                    }
                }
            }
            prop_assert_eq!(problem.heuristic_seeds(), heuristic_seeds(&problem));
        }
    }
}
