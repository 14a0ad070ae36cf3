use super::dma::scan_chain;
use super::{check_fit, leading_members, InterHeuristic};
use crate::error::PlacementError;
use rtm_trace::{AccessSequence, Liveness, VarId};

/// Multi-chain DMA — the extension the paper sketches as future work
/// (§VI: "we plan to explore placement of more than one sets of disjoint
/// variables in the same DBC and in different DBCs").
///
/// Where [`Dma`](super::Dma) extracts a *single* chain of pairwise-disjoint
/// variables and sends everything else to AFD, `DmaMulti` re-runs the
/// liveness scan of Algorithm 1 on the leftover variables, peeling off up
/// to [`max_chains`](Self::with_max_chains) further chains. Chains are then
/// packed into DBCs first-fit in order of decreasing total access
/// frequency — so several short chains may share one DBC (concatenated in
/// first-use order, each keeping its internal access order) — and the
/// final remainder is dealt AFD-style to the remaining DBCs.
///
/// Every chain of `l` variables stored in access order costs at most
/// `l − 1` shifts *in isolation*; co-located chains add transitions between
/// each other, which is exactly the trade-off the paper wants explored.
///
/// # Example
///
/// ```
/// use rtm_placement::inter::{DmaMulti, InterHeuristic};
/// use rtm_trace::AccessSequence;
///
/// let seq = AccessSequence::parse("g a a g b b g c c g d d g")?;
/// let dist = DmaMulti::new().distribute(&seq, 3, 4)?;
/// assert_eq!(dist.iter().map(Vec::len).sum::<usize>(), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaMulti {
    max_chains: usize,
}

impl DmaMulti {
    /// Creates the heuristic with the default chain budget (4).
    pub fn new() -> Self {
        Self { max_chains: 4 }
    }

    /// Sets the maximum number of disjoint chains to extract.
    pub fn with_max_chains(mut self, max_chains: usize) -> Self {
        self.max_chains = max_chains.max(1);
        self
    }

    /// Extracts up to `max_chains` disjoint chains; returns `(chains,
    /// leftover)` with the leftover in ascending first-occurrence order.
    pub fn chains(&self, seq: &AccessSequence) -> (Vec<Vec<VarId>>, Vec<VarId>) {
        let (chains, leftover, _) = self.chains_with(&seq.liveness());
        (chains, leftover)
    }

    /// [`chains`](Self::chains) with a precomputed liveness table, plus the
    /// membership table of every chain variable.
    fn chains_with(&self, live: &Liveness) -> (Vec<Vec<VarId>>, Vec<VarId>, Vec<bool>) {
        let mut remaining = live.by_first_occurrence();
        let mut in_chain = vec![false; live.len()];
        let mut chains = Vec::new();
        for _ in 0..self.max_chains {
            let chain = scan_chain(live, &remaining);
            // Singleton chains no longer pay for a DBC of their own.
            if chain.len() < 2 {
                break;
            }
            for v in &chain {
                in_chain[v.index()] = true;
            }
            remaining.retain(|v| !in_chain[v.index()]);
            chains.push(chain);
            if remaining.is_empty() {
                break;
            }
        }
        (chains, remaining, in_chain)
    }

    /// [`distribute`](InterHeuristic::distribute), plus the number of
    /// leading DBCs that keep their access order: those whose first
    /// variable belongs to an extracted chain.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the variables cannot fit.
    pub(crate) fn distribute_counted(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<(Vec<Vec<VarId>>, usize), PlacementError> {
        let live = seq.liveness();
        let (chains, leftover, in_chain) = self.chains_with(&live);
        check_fit(
            chains.iter().map(Vec::len).sum::<usize>() + leftover.len(),
            dbcs,
            capacity,
        )?;
        let dist = self.assign(&live, seq.len(), chains, leftover, dbcs, capacity);
        let keep = leading_members(&dist, &in_chain);
        Ok((dist, keep))
    }

    /// Packs `chains` into DBCs and deals `leftover` AFD-style over the rest
    /// (total fit already checked). `accesses` is the trace length.
    pub(crate) fn assign(
        &self,
        live: &Liveness,
        accesses: usize,
        mut chains: Vec<Vec<VarId>>,
        mut leftover: Vec<VarId>,
        dbcs: usize,
        capacity: usize,
    ) -> Vec<Vec<VarId>> {
        // Give chains a number of DBCs proportional to the access volume
        // they absorb — dedicating too many DBCs to (cheap) chains starves
        // the leftover variables of spread and inflates their arrangement
        // distances. The leftover keeps at least one DBC (with one DBC,
        // that is all of it and no chain gets a DBC of its own).
        let chain_freq: u64 = chains.iter().flatten().map(|&v| live.frequency(v)).sum();
        let share = chain_freq as f64 / accesses.max(1) as f64;
        let chain_dbcs = if leftover.is_empty() {
            dbcs
        } else {
            let most = dbcs - 1;
            ((dbcs as f64 * share).round() as usize)
                .clamp(usize::from(!chains.is_empty()).min(most), most)
        };

        // First-fit-decreasing by summed access frequency.
        chains
            .sort_by_key(|c| std::cmp::Reverse(c.iter().map(|&v| live.frequency(v)).sum::<u64>()));
        let mut chain_bins: Vec<Vec<Vec<VarId>>> = vec![Vec::new(); chain_dbcs];
        let mut bin_fill = vec![0usize; chain_dbcs];
        for chain in chains {
            match (0..chain_dbcs).find(|&b| bin_fill[b] + chain.len() <= capacity) {
                Some(b) => {
                    bin_fill[b] += chain.len();
                    chain_bins[b].push(chain);
                }
                None => {
                    // No room anywhere: chain joins the leftover.
                    leftover.extend(chain);
                }
            }
        }

        // Chains sharing a DBC are *merged* in global access order:
        // temporally overlapping chains concatenated segment-by-segment
        // would ping-pong the port across whole segments, while the
        // first-use merge keeps temporally adjacent variables spatially
        // adjacent (each chain's internal order is preserved, since a
        // chain is already sorted by first use).
        let mut chain_lists: Vec<Vec<VarId>> = chain_bins
            .into_iter()
            .filter(|b| !b.is_empty())
            .map(|bin| {
                let mut merged: Vec<VarId> = bin.into_iter().flatten().collect();
                merged.sort_by_key(|&v| live.first(v));
                merged
            })
            .collect();

        // The leftover must fit the DBCs the chains leave it: while it does
        // not, the chain DBC absorbing the least access volume rejoins it.
        // Total fit holds, so this stops at the latest when no chain DBC is
        // left.
        while leftover.len() > (dbcs - chain_lists.len()) * capacity {
            let volume = |l: &Vec<VarId>| l.iter().map(|&v| live.frequency(v)).sum::<u64>();
            let lightest = chain_lists
                .iter()
                .enumerate()
                .min_by_key(|&(i, l)| (volume(l), std::cmp::Reverse(i)))
                .map(|(i, _)| i);
            let Some(lightest) = lightest else { break };
            leftover.extend(chain_lists.remove(lightest));
        }

        let used = chain_lists.len();
        let mut out = chain_lists;
        out.resize(dbcs, Vec::new());

        // AFD over the remaining DBCs for the leftover.
        if !leftover.is_empty() {
            leftover.sort_by(|a, b| {
                live.frequency(*b)
                    .cmp(&live.frequency(*a))
                    .then(a.index().cmp(&b.index()))
            });
            let span = dbcs - used;
            let mut d = 0usize;
            for v in leftover {
                let mut tries = 0;
                while out[used + d].len() >= capacity {
                    d = (d + 1) % span;
                    tries += 1;
                    debug_assert!(tries <= span, "the leftover fits its DBCs");
                }
                out[used + d].push(v);
                d = (d + 1) % span;
            }
        }
        out
    }

    /// Number of leading DBCs that hold chains (and must keep access order)
    /// in a distribution produced by [`distribute`](InterHeuristic::distribute).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the variables cannot fit.
    pub fn chain_dbc_count(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<usize, PlacementError> {
        Ok(self.distribute_counted(seq, dbcs, capacity)?.1)
    }
}

impl Default for DmaMulti {
    fn default() -> Self {
        Self::new()
    }
}

impl InterHeuristic for DmaMulti {
    fn name(&self) -> &'static str {
        "DMA-Multi"
    }

    fn distribute(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<Vec<Vec<VarId>>, PlacementError> {
        Ok(self.distribute_counted(seq, dbcs, capacity)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::placement::Placement;

    /// Workload with two interleaved "streams" of temporaries: a single
    /// scan only harvests one chain, the re-scan gets the second.
    const TWO_STREAM: &str = "g a a g b b g c c g d d g e e g f f g";

    #[test]
    fn extracts_multiple_chains() {
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        let multi = DmaMulti::new();
        let (chains, leftover) = multi.chains(&seq);
        assert!(!chains.is_empty());
        let total: usize = chains.iter().map(Vec::len).sum::<usize>() + leftover.len();
        assert_eq!(total, seq.vars().len());
        // Chains are pairwise disjoint internally.
        let live = seq.liveness();
        for chain in &chains {
            for (i, &u) in chain.iter().enumerate() {
                for &v in &chain[i + 1..] {
                    assert!(live.disjoint(u, v));
                }
            }
        }
    }

    #[test]
    fn distribute_is_complete_and_capacity_bounded() {
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        for (dbcs, cap) in [(2usize, 8usize), (3, 4), (4, 3)] {
            let dist = DmaMulti::new().distribute(&seq, dbcs, cap).unwrap();
            let p = Placement::from_dbc_lists(dist);
            p.validate(&seq, cap).unwrap();
        }
    }

    #[test]
    fn never_worse_than_single_chain_dma_on_stream_workloads() {
        use super::super::Dma;
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        let m = CostModel::single_port();
        let multi = Placement::from_dbc_lists(DmaMulti::new().distribute(&seq, 3, 8).unwrap());
        let single = Placement::from_dbc_lists(Dma.distribute(&seq, 3, 8).unwrap());
        let cm = m.shift_cost(&multi, seq.accesses());
        let cs = m.shift_cost(&single, seq.accesses());
        assert!(cm <= cs, "multi {cm} should be <= single {cs}");
    }

    #[test]
    fn single_dbc_degenerates_gracefully() {
        // All disjoint; and a chain plus a leftover, which once asked for
        // a chain DBC and a leftover DBC out of the one DBC.
        let mixed = AccessSequence::parse("a b a c a b d d c").unwrap();
        let (chains, leftover) = DmaMulti::new().chains(&mixed);
        assert!(!chains.is_empty() && !leftover.is_empty());
        for seq in [AccessSequence::parse("a a b b c c").unwrap(), mixed] {
            let dist = DmaMulti::new().distribute(&seq, 1, 8).unwrap();
            assert_eq!(dist.len(), 1);
            Placement::from_dbc_lists(dist).validate(&seq, 8).unwrap();
        }
    }

    #[test]
    fn chain_dbcs_give_way_when_the_leftover_overflows() {
        // The chain {a, b} gets one DBC; the four interleaved variables
        // left over cannot fit the other DBC's three slots, so the chain
        // DBC rejoins the leftover.
        let seq = AccessSequence::parse("x y z w x y z w a a b b x y z w").unwrap();
        let (chains, leftover) = DmaMulti::new().chains(&seq);
        assert!(leftover.len() > 3, "{chains:?} / {leftover:?}");
        let (dist, keep) = DmaMulti::new().distribute_counted(&seq, 2, 3).unwrap();
        Placement::from_dbc_lists(dist.clone())
            .validate(&seq, 3)
            .unwrap();
        assert!(dist.iter().all(|l| l.len() <= 3));
        assert_eq!(keep, 0);
    }

    #[test]
    fn all_disjoint_uses_all_dbcs() {
        let seq = AccessSequence::parse("a a b b c c d d").unwrap();
        let dist = DmaMulti::new().distribute(&seq, 2, 2).unwrap();
        let total: usize = dist.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        assert!(dist.iter().all(|l| l.len() <= 2));
    }

    #[test]
    fn max_chains_is_respected() {
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        let (chains, _) = DmaMulti::new().with_max_chains(1).chains(&seq);
        assert!(chains.len() <= 1);
    }

    #[test]
    fn chain_dbc_count_reports() {
        let seq = AccessSequence::parse(TWO_STREAM).unwrap();
        let k = DmaMulti::new().chain_dbc_count(&seq, 3, 8).unwrap();
        assert!((1..=2).contains(&k));
    }

    #[test]
    fn rejects_insufficient_capacity() {
        let seq = AccessSequence::parse("a b c d e").unwrap();
        assert!(DmaMulti::new().distribute(&seq, 2, 2).is_err());
    }
}
