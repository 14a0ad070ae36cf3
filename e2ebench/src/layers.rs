//! Per-layer figures shared by the serve and place workloads.

use crate::report::Outcome;
use crate::spans::Timed;
use crate::stats;
use rtm_placement::EngineStats;
use std::collections::BTreeMap;

/// Durations of every span named `name`, scaled from ns by `per_ns`
/// (1e-3 for µs, 1e-6 for ms).
pub fn durations(timed: &[Timed], name: &str, per_ns: f64) -> Vec<f64> {
    timed
        .iter()
        .filter(|t| t.name == name)
        .map(|t| t.duration as f64 * per_ns)
        .collect()
}

/// The spans written out at the end of a traced run: one line per span
/// name with its calls, median duration and total self time.
pub fn span_summary(timed: &[Timed]) -> Vec<String> {
    let mut by_name: BTreeMap<&str, Vec<&Timed>> = BTreeMap::new();
    for t in timed {
        by_name.entry(t.name).or_default().push(t);
    }
    by_name
        .iter()
        .map(|(name, spans)| {
            let durations: Vec<f64> = spans.iter().map(|t| t.duration as f64 * 1e-6).collect();
            let self_ms: f64 = spans.iter().map(|t| t.self_time as f64 * 1e-6).sum();
            format!(
                "span {name}: {} calls, p50 {:.4} ms, self time {self_ms:.3} ms in all",
                spans.len(),
                stats::median(&durations).value
            )
        })
        .collect()
}

/// Sets `metric` to the nearest-rank `p`-th percentile of `values`.
pub fn set_percentile(out: &mut Outcome, metric: &'static str, values: &[f64], p: f64) {
    let q = stats::percentile(values, p);
    out.set(metric, q.value, q.samples);
}

/// Per-op time that no layer span accounts for: the self time of the
/// structural spans (`op`, `path.*`) of each op, in ms.
pub fn unaccounted_ms(timed: &[Timed]) -> Vec<f64> {
    let mut per_op = BTreeMap::<u64, u64>::new();
    for t in timed
        .iter()
        .filter(|t| t.name == "op" || t.name.starts_with("path."))
    {
        *per_op.entry(t.request).or_default() += t.self_time;
    }
    per_op.values().map(|&ns| ns as f64 * 1e-6).collect()
}

/// Sums per-solve engine counter deltas.
pub fn add_stats(acc: &mut EngineStats, s: &EngineStats) {
    acc.evaluations += s.evaluations;
    acc.dbc_recomputations += s.dbc_recomputations;
    acc.dbc_cache_hits += s.dbc_cache_hits;
    acc.subseq_cache_hits += s.subseq_cache_hits;
    acc.dbc_inherited += s.dbc_inherited;
    acc.memo_merged += s.memo_merged;
    acc.memo_contended += s.memo_contended;
    acc.subseq_contended += s.subseq_contended;
    acc.eval_nanos += s.eval_nanos;
}

/// The `eval.*` figures of `solves` searches whose summed engine deltas
/// are `s` and whose search spans took `search_ns` in all.
pub fn set_eval(out: &mut Outcome, s: &EngineStats, search_ns: f64, solves: usize) {
    let n = if s.evaluations > 0 { solves } else { 0 };
    out.set("eval.evals_per_s", s.evals_per_sec(), n);
    out.set(
        "eval.share",
        stats::ratio(s.eval_nanos as f64, search_ns),
        n,
    );
    // Every per-DBC costing is a memo hit or a recomputation; a
    // recomputation may reuse a subsequence summary. Inherited costs are
    // never looked up at all.
    let looked_up = (s.dbc_cache_hits + s.dbc_recomputations) as f64;
    out.set(
        "eval.memo_hit_ratio",
        stats::ratio(s.dbc_cache_hits as f64, looked_up),
        n,
    );
    out.set(
        "eval.subseq_hit_ratio",
        stats::ratio(s.subseq_cache_hits as f64, s.dbc_recomputations as f64),
        n,
    );
    out.set(
        "eval.inherited_ratio",
        stats::ratio(s.dbc_inherited as f64, s.dbc_inherited as f64 + looked_up),
        n,
    );
    out.set(
        "eval.contended",
        (s.memo_contended + s.subseq_contended) as f64,
        n,
    );
}

/// The tracing overhead: the same ops replayed without and with spans.
pub fn set_tracing(out: &mut Outcome, untraced_ms: &[f64], traced_ms: &[f64]) {
    let untraced = stats::median(untraced_ms);
    let traced = stats::median(traced_ms);
    out.set(
        "tracing.untraced_op_ms.p50",
        untraced.value,
        untraced.samples,
    );
    out.set("tracing.traced_op_ms.p50", traced.value, traced.samples);
    out.set(
        "tracing.overhead_frac",
        stats::ratio(traced.value - untraced.value, untraced.value),
        traced.samples.min(untraced.samples),
    );
}
