//! Every input the benchmark sends, derived from the one workload seed.
//!
//! Traces come from the expected-tier generator profiles; each trace and
//! each search seed gets its own seed derived from the workload seed and a
//! name, so the program only ever receives generated text and streams.

use rtm_offsetstone::tiers::{expected_profiles, scaled_dims};
use rtm_offsetstone::{GeneratorConfig, TraceGenerator};
use rtm_trace::{AccessKind, AccessStream, VarId};
use std::fmt::Write as _;

/// Heuristic strategies of the `serve-hot` mix.
pub const HOT_STRATEGIES: [&str; 5] = ["dma-sr", "dma-chen", "dma-ofu", "afd-ofu", "dma-multi-sr"];
/// Search strategies of the `serve-cold` mix; `portfolio` races all four
/// lanes.
pub const COLD_STRATEGIES: [&str; 3] = ["sa", "tabu", "portfolio"];
/// DBC counts every serve mix alternates between.
pub const SERVE_DBCS: [usize; 2] = [4, 8];
/// Evaluation budget of every `serve-cold` search (per lane for the
/// portfolio), so answers are deterministic and checkable.
pub const COLD_BUDGET_EVALS: u64 = 200;
/// Scale of each `place-large` trace: about 250k accesses and 4.5k
/// variables of the `expected-ctl` shape.
pub const LARGE_SCALE: f64 = 113.636;

/// Accesses per chunk of a [`GeneratedTrace`] stream.
const CHUNK: usize = 64 * 1024;

/// Derives the seed of input `name` from the workload seed: FNV-1a over
/// the seed's bytes and the name, then a splitmix64 finalizer.
pub fn derive_seed(seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in seed.to_le_bytes().iter().chain(name.as_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix(h)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded permutation of `0..n` (Fisher-Yates over a splitmix64 stream).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A generated expected-tier trace, deliverable as a stream or as text.
///
/// Variables are numbered in order of first occurrence and named `v{n}`,
/// so the stream's ids equal the ids `AccessSequence::parse` gives the
/// text, and one placement is valid on both.
#[derive(Debug, Clone)]
pub struct GeneratedTrace {
    generator: TraceGenerator,
    seed: u64,
    vars: usize,
    len: usize,
}

impl GeneratedTrace {
    /// Expected-tier profile `profile` (0 = ctl, 1 = dsp, 2 = sci) grown
    /// by `scale`, generated from `seed`.
    pub fn expected(profile: usize, scale: f64, seed: u64) -> Self {
        let profiles = expected_profiles();
        let p = &profiles[profile % profiles.len()];
        let mut cfg = GeneratorConfig::from(p);
        (cfg.variables, cfg.length) = scaled_dims(p.variables, p.length, scale);
        Self {
            vars: cfg.variables.max(1),
            len: cfg.length,
            generator: TraceGenerator::new(cfg),
            seed,
        }
    }

    fn emit(&self, sink: &mut dyn FnMut(VarId, AccessKind)) {
        let mut rank = vec![u32::MAX; self.vars];
        let mut next = 0u32;
        self.generator.emit(self.seed, &mut |v, kind| {
            let r = &mut rank[v.index()];
            if *r == u32::MAX {
                *r = next;
                next += 1;
            }
            sink(VarId::from_index(*r as usize), kind);
        });
    }

    /// The trace as one line of protocol text (`v3 v7:w …`).
    pub fn text(&self) -> String {
        let mut out = String::with_capacity(self.len * 7);
        self.emit(&mut |v, kind| {
            if !out.is_empty() {
                out.push(' ');
            }
            let _ = write!(out, "v{}", v.index());
            if kind == AccessKind::Write {
                out.push_str(":w");
            }
        });
        out
    }
}

impl AccessStream for GeneratedTrace {
    fn access_count(&self) -> usize {
        self.len
    }

    fn var_count(&self) -> usize {
        self.vars
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(&[VarId], &[AccessKind])) {
        let mut vars = Vec::with_capacity(CHUNK);
        let mut kinds = Vec::with_capacity(CHUNK);
        self.emit(&mut |v, k| {
            vars.push(v);
            kinds.push(k);
            if vars.len() == CHUNK {
                f(&vars, &kinds);
                vars.clear();
                kinds.clear();
            }
        });
        if !vars.is_empty() {
            f(&vars, &kinds);
        }
    }
}

/// `serve-hot` traces per expected profile. Shift counts are fixed by
/// the seed; nine traces keep their geometric mean steady across seeds.
pub const HOT_TRACES_PER_PROFILE: usize = 3;

/// The distinct request lines of `serve-hot`: the traces crossed with
/// every heuristic and both DBC counts, grouped by trace with the
/// strategy outermost, so lines `0..SERVE_DBCS.len()` of each group of
/// `HOT_STRATEGIES.len() * SERVE_DBCS.len()` open every session of it.
pub fn hot_lines(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    for (p, profile) in expected_profiles().iter().enumerate() {
        for t in 0..HOT_TRACES_PER_PROFILE {
            let name = format!("serve-hot/trace/{}/{t}", profile.name);
            let text = GeneratedTrace::expected(p, 1.0, derive_seed(seed, &name)).text();
            for strategy in HOT_STRATEGIES {
                for dbcs in SERVE_DBCS {
                    lines.push(format!("place strategy={strategy} dbcs={dbcs} :: {text}"));
                }
            }
        }
    }
    lines
}

/// Whether hot line `k` is the first line of its (trace, DBC count)
/// session — the lines the warm-up sends.
pub fn opens_hot_session(k: usize) -> bool {
    k % (HOT_STRATEGIES.len() * SERVE_DBCS.len()) < SERVE_DBCS.len()
}

/// Request `i` of `serve-cold`: a trace never sent before, a search
/// strategy and a search seed, all derived from `seed` and `i`.
pub fn cold_line(seed: u64, i: u64) -> String {
    let i_usize = i as usize;
    let strategy = COLD_STRATEGIES[i_usize % COLD_STRATEGIES.len()];
    let profile = (i_usize / 3) % 3;
    let dbcs = SERVE_DBCS[(i_usize / 9) % SERVE_DBCS.len()];
    let text = GeneratedTrace::expected(
        profile,
        1.0,
        derive_seed(seed, &format!("serve-cold/trace/{i}")),
    )
    .text();
    let search_seed = derive_seed(seed, &format!("serve-cold/search/{i}"));
    format!(
        "place strategy={strategy} dbcs={dbcs} seed={search_seed} \
         budget-evals={COLD_BUDGET_EVALS} :: {text}"
    )
}

/// Warm-up request `c` of `serve-cold`: shaped like the mix, from traces
/// the timed requests never send.
pub fn cold_warmup_line(seed: u64, c: u64) -> String {
    cold_line(derive_seed(seed, "serve-cold/warm-up"), c)
}

/// The trace of `place-large` op `k`.
pub fn large_trace(seed: u64, k: u64) -> GeneratedTrace {
    GeneratedTrace::expected(
        0,
        LARGE_SCALE,
        derive_seed(seed, &format!("place-large/trace/{k}")),
    )
}

/// The small trace `place-large` warms the pipeline with during set-up.
pub fn warmup_trace(seed: u64) -> GeneratedTrace {
    GeneratedTrace::expected(0, 1.0, derive_seed(seed, "place-large/warm-up"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::AccessSequence;

    fn trace_of(line: &str) -> &str {
        line.split_once(" :: ").expect("inline trace").1
    }

    #[test]
    fn derived_seeds_depend_on_seed_and_name() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
    }

    #[test]
    fn one_seed_gives_byte_identical_request_lines() {
        assert_eq!(hot_lines(5), hot_lines(5));
        for i in [0, 1, 2, 17] {
            assert_eq!(cold_line(5, i), cold_line(5, i));
        }
        assert_eq!(permutation(5, 30), permutation(5, 30));
    }

    #[test]
    fn another_seed_gives_other_traces() {
        let (a, b) = (hot_lines(5), hot_lines(6));
        assert_eq!(a.len(), 90);
        assert_eq!(
            a.iter()
                .enumerate()
                .filter(|(k, _)| opens_hot_session(*k))
                .count(),
            18
        );
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(trace_of(x), trace_of(y));
        }
        assert_ne!(trace_of(&cold_line(5, 0)), trace_of(&cold_line(6, 0)));
        // Within one seed, every cold request carries a fresh trace.
        assert_ne!(trace_of(&cold_line(5, 0)), trace_of(&cold_line(5, 3)));
        // The first chunk of each trace is enough to tell traces apart.
        let accesses = |t: GeneratedTrace| {
            let mut head = Vec::new();
            t.for_each_chunk(&mut |v, k| {
                if head.is_empty() {
                    head.extend(v.iter().zip(k).map(|(v, k)| (v.index(), *k)));
                }
            });
            head
        };
        assert_eq!(accesses(large_trace(5, 0)), accesses(large_trace(5, 0)));
        assert_ne!(accesses(large_trace(5, 0)), accesses(large_trace(6, 0)));
        assert_ne!(accesses(large_trace(5, 0)), accesses(large_trace(5, 1)));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(9, 30);
        p.sort_unstable();
        assert_eq!(p, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn stream_and_text_carry_the_same_accesses_and_ids() {
        let trace = GeneratedTrace::expected(0, 2.0, 42);
        let seq = AccessSequence::parse(&trace.text()).unwrap();
        let mut vars = Vec::new();
        let mut kinds = Vec::new();
        trace.for_each_chunk(&mut |v, k| {
            vars.extend_from_slice(v);
            kinds.extend_from_slice(k);
        });
        assert_eq!(vars.len(), trace.access_count());
        assert_eq!(seq.accesses(), &vars[..]);
        assert_eq!(seq.kinds(), &kinds[..]);
        assert!(seq.vars().len() <= trace.var_count());
    }
}
