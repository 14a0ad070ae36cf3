//! Shared machinery of the graph-based intra-DBC heuristics: a dense local
//! access graph over one DBC's subsequence and the center-out
//! *bidirectional grouping* both Chen and ShiftsReduce build on.
//!
//! Within one DBC (single port, free initial alignment) the exact shift
//! cost of a layout is the **minimum linear arrangement** objective
//! `Σ_{edges {u,v}} w_uv · |pos(u) − pos(v)|` over the access graph, which
//! is what the grouping greedily minimizes.

use super::id_bound;
use rtm_trace::VarId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dense edge-weight view of one DBC's restricted subsequence.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LocalGraph {
    /// Local index of every variable index below the largest one in the
    /// subsequence ([`ABSENT`] for variables that do not occur).
    local: Vec<usize>,
    /// Local index -> variable, in first-use order.
    pub(crate) vars: Vec<VarId>,
    /// Adjacency list: local -> (local, weight), sorted by neighbor.
    pub(crate) adj: Vec<Vec<(usize, u64)>>,
    pub(crate) freq: Vec<u64>,
}

/// [`LocalGraph::local`] entry of a variable absent from the subsequence.
const ABSENT: usize = usize::MAX;

impl LocalGraph {
    /// Builds the graph of `sub` in `O(m log m)` for `m = sub.len()`.
    pub(crate) fn of(sub: &[VarId]) -> Self {
        let mut local = vec![ABSENT; id_bound(sub)];
        let mut vars = Vec::new();
        let mut freq = Vec::new();
        for &v in sub {
            let slot = &mut local[v.index()];
            if *slot == ABSENT {
                *slot = vars.len();
                vars.push(v);
                freq.push(0);
            }
            freq[*slot] += 1;
        }
        // One key per transition between two variables, the smaller local
        // index in the high half. Local indices fit in 32 bits: variable
        // ids are `u32`, so a subsequence has at most 2^32 of them.
        let mut edges: Vec<u64> = sub
            .windows(2)
            .map(|p| (local[p[0].index()], local[p[1].index()]))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| ((a.min(b) as u64) << 32) | a.max(b) as u64)
            .collect();
        edges.sort_unstable();
        // Keys arrive sorted, so each list receives its smaller neighbors
        // (as the second endpoint) before its larger ones (as the first),
        // each group ascending: the lists come out sorted.
        let mut adj = vec![Vec::new(); vars.len()];
        for run in edges.chunk_by(|x, y| x == y) {
            let (a, b) = ((run[0] >> 32) as usize, (run[0] & 0xffff_ffff) as usize);
            let w = run.len() as u64;
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        Self {
            local,
            vars,
            adj,
            freq,
        }
    }

    /// A graph from its parts, for the test-only reference pipeline.
    #[cfg(test)]
    pub(crate) fn from_parts(
        vars: Vec<VarId>,
        adj: Vec<Vec<(usize, u64)>>,
        freq: Vec<u64>,
    ) -> Self {
        let mut local = vec![ABSENT; id_bound(&vars)];
        for (i, v) in vars.iter().enumerate() {
            local[v.index()] = i;
        }
        Self {
            local,
            vars,
            adj,
            freq,
        }
    }

    /// The local index of `v`, if it occurs in the subsequence.
    pub(crate) fn local_index(&self, v: VarId) -> Option<usize> {
        self.local.get(v.index()).copied().filter(|&i| i != ABSENT)
    }

    /// Number of local vertices.
    pub(crate) fn len(&self) -> usize {
        self.vars.len()
    }

    /// Sum of incident edge weights of `v`.
    pub(crate) fn degree_weight(&self, v: usize) -> u64 {
        self.adj[v].iter().map(|&(_, w)| w).sum()
    }

    /// Arrangement objective Σ w·|pos difference| for a full layout
    /// (`pos` indexed by local vertex).
    pub(crate) fn arrangement_cost(&self, pos: &[usize]) -> u64 {
        let mut total = 0u64;
        for (a, l) in self.adj.iter().enumerate() {
            for &(b, w) in l {
                if a < b {
                    total += w * (pos[a] as i64 - pos[b] as i64).unsigned_abs();
                }
            }
        }
        total
    }
}

/// How the grouping picks its center seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seed {
    /// Highest access frequency (Chen's rule).
    Frequency,
    /// Highest adjacency mass (ShiftsReduce's rule).
    DegreeWeight,
}

/// Center-out bidirectional grouping: seed one vertex, then repeatedly take
/// the unplaced vertex most strongly connected to the placed set and append
/// it to whichever end increases the arrangement objective least.
///
/// Returns the layout as local vertex indices, left to right.
pub(crate) fn bidirectional_grouping(g: &LocalGraph, seed: Seed) -> Vec<usize> {
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    let seed_vertex = match seed {
        Seed::Frequency => {
            (0..n).max_by_key(|&v| (g.freq[v], g.degree_weight(v), Reverse(g.vars[v])))
        }
        Seed::DegreeWeight => {
            (0..n).max_by_key(|&v| (g.degree_weight(v), g.freq[v], Reverse(g.vars[v])))
        }
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
    // The unplaced vertices by (connection, frequency, lowest id). A
    // vertex whose connection grows is pushed again; connections only
    // grow, so its newest entry outranks its older ones and surfaces
    // first. Entries of placed vertices are skipped.
    let entry = |v: usize, conn: u64| (conn, g.freq[v], Reverse(g.vars[v]), v);
    let mut frontier: BinaryHeap<_> = (0..n)
        .filter(|&v| v != seed_vertex)
        .map(|v| entry(v, conn[v]))
        .collect();

    for _ in 1..n {
        let next = loop {
            let Some((.., v)) = frontier.pop() else {
                unreachable!("every unplaced vertex has an entry")
            };
            if !placed[v] {
                break v;
            }
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
                frontier.push(entry(b, conn[b]));
            }
        }
    }

    left.into_iter().rev().chain(right).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::AccessSequence;

    fn local(text: &str) -> (AccessSequence, LocalGraph) {
        let s = AccessSequence::parse(text).unwrap();
        let g = LocalGraph::of(s.accesses());
        (s, g)
    }

    #[test]
    fn graph_construction() {
        let (_, g) = local("a b a a c");
        assert_eq!(g.len(), 3);
        assert_eq!(g.freq, vec![3, 1, 1]);
        // edges: a-b weight 2, a-c weight 1.
        assert_eq!(g.degree_weight(0), 3);
    }

    #[test]
    fn grouping_covers_all_vertices() {
        let (_, g) = local("a b c d a c b d");
        for seed in [Seed::Frequency, Seed::DegreeWeight] {
            let layout = bidirectional_grouping(&g, seed);
            let mut sorted = layout.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..g.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chain_graph_becomes_path() {
        let (_, g) = local("a b a b b c b c c d c d");
        let layout = bidirectional_grouping(&g, Seed::DegreeWeight);
        // positions of a,b,c,d must form a path in order (or reversed).
        let pos = |v: usize| layout.iter().position(|&x| x == v).unwrap() as i64;
        assert_eq!((pos(0) - pos(1)).abs(), 1);
        assert_eq!((pos(1) - pos(2)).abs(), 1);
        assert_eq!((pos(2) - pos(3)).abs(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = LocalGraph::of(&[]);
        assert!(bidirectional_grouping(&g, Seed::Frequency).is_empty());
    }

    #[test]
    fn arrangement_cost_of_identity() {
        let (_, g) = local("a b a b");
        let pos: Vec<usize> = (0..g.len()).collect();
        assert_eq!(g.arrangement_cost(&pos), 3); // w(a,b)=3, distance 1
    }
}
