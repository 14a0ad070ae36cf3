//! `scale` — throughput and resident memory of the bounded-memory trace
//! pipeline as trace length grows, per workload tier; writes
//! `BENCH_scale.json`.
//!
//! One representative workload per [`Tier`] is grown along a length ladder
//! (`--quick`: ~20k/50k accesses; full: 100k/1M per tier plus one
//! 10M-access adversarial row). Each row streams the workload through
//! [`PositionIndex`] into a streaming [`FitnessEngine`], runs a
//! fixed random-walk eval budget, and replays the best placement through
//! [`Simulator::run_stream`] — the whole pipeline never materializes a
//! `Vec<Access>`.
//!
//! Recorded per row: index build time and heap size, evaluations per
//! second, best cost, simulator replay rate, the peak bytes tracked by the
//! binary's counting allocator (zero when run without one, e.g. from unit
//! tests) and the OS-reported `VmHWM`. Rows short enough to afford it are
//! differentially checked against a materialized engine and a replay of
//! the raw accesses on the same placement (`"checked"`/`"identical"`), and
//! the whole OffsetStone suite is swept once for streaming ≡ materialized
//! ≡ replay cost identity (`"suite_identical"`) — CI greps both gates.

use super::ExperimentResult;
use crate::{ExperimentOpts, Table};
use rtm_arch::RtmGeometry;
use rtm_offsetstone::{suite, Tier, TierWorkload};
use rtm_placement::eval::FitnessEngine;
use rtm_placement::random_walk;
use rtm_placement::search::Budget;
use rtm_placement::{CostModel, Placement};
use rtm_serve::json::{Fixed, Writer};
use rtm_sim::Simulator;
use rtm_trace::{AccessStream, PositionIndex, VarId};
use std::time::Instant;

/// Memory instrumentation supplied by the binary (whose global allocator
/// counts live bytes); [`MemProbe::none`] when no counting allocator is
/// installed.
#[derive(Debug, Clone, Copy)]
pub struct MemProbe {
    /// Resets the peak counter to the current live total.
    pub reset: fn(),
    /// Peak live bytes since the last reset.
    pub peak: fn() -> usize,
}

impl MemProbe {
    /// A probe that measures nothing (reports zero).
    pub fn none() -> Self {
        Self {
            reset: || {},
            peak: || 0,
        }
    }
}

/// Rows longer than this skip the differential check against a
/// materialized engine (the check itself would materialize the trace).
const CHECK_LIMIT: usize = 2_000_000;

/// DBC count the pipeline is exercised at (a mid-table paper
/// configuration), unless `--dbcs` names exactly one.
const DEFAULT_DBCS: usize = 8;

/// One measured point of the ladder.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Owning tier name.
    pub tier: &'static str,
    /// Workload name within the tier.
    pub workload: &'static str,
    /// Scale factor the workload was grown by.
    pub scale: f64,
    /// Accesses streamed.
    pub accesses: usize,
    /// Variable slots drawn from.
    pub variables: usize,
    /// Seconds to build the position index (two passes).
    pub index_build_s: f64,
    /// Position index heap footprint in bytes.
    pub index_heap_bytes: usize,
    /// Random-walk evaluations run.
    pub evals: u64,
    /// Wall seconds for those evaluations.
    pub eval_s: f64,
    /// Best shift cost found.
    pub best_cost: u64,
    /// Seconds to replay the best placement through the streaming
    /// simulator.
    pub sim_s: f64,
    /// Peak live bytes tracked by the binary's allocator over the row
    /// (0 without a counting allocator).
    pub peak_tracked_bytes: usize,
    /// OS-reported peak resident set (`VmHWM`, kB; 0 where unavailable).
    pub vm_hwm_kb: u64,
    /// Whether the streaming-vs-materialized differential check ran.
    pub checked: bool,
    /// Check outcome (`true` when unchecked, so a single flag gates CI).
    pub identical: bool,
}

impl ScaleRow {
    /// Evaluations per second.
    pub fn evals_per_sec(&self) -> f64 {
        rate(self.evals as f64, self.eval_s)
    }

    /// Streamed simulator accesses per second.
    pub fn sim_accesses_per_sec(&self) -> f64 {
        rate(self.accesses as f64, self.sim_s)
    }
}

fn rate(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// One ladder point: `(target accesses, eval budget)`.
type Rung = (usize, u64);

/// The length ladder per tier, plus an optional extra adversarial point.
fn ladder(opts: &ExperimentOpts) -> (Vec<Rung>, Option<Rung>) {
    if opts.quick {
        (vec![(20_000, 128), (50_000, 128)], None)
    } else {
        (
            vec![(100_000, 512), (1_000_000, 512)],
            Some((10_000_000, 128)),
        )
    }
}

/// Peak resident set from `/proc/self/status` (kB), 0 where unavailable.
fn vm_hwm_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The tier's ladder representative: its first workload, regrown so the
/// emitted trace hits `target` accesses.
fn representative(tier: Tier, target: usize) -> TierWorkload {
    let base = tier
        .workloads()
        .into_iter()
        .next()
        .expect("every tier has workloads");
    let (_, base_len) = base.dims();
    let scale = target as f64 / base_len as f64;
    TierWorkload::by_name(base.name(), scale).expect("representative exists at any scale")
}

/// Measures one ladder point end to end. `threads` is the engine worker
/// count (`0` = all cores), routed into the streaming engine exactly as
/// the CLI routes `--threads` into the materialized path — results are
/// identical for any value.
fn measure(
    w: &TierWorkload,
    dbcs: usize,
    evals: u64,
    seed: u64,
    threads: usize,
    probe: &MemProbe,
) -> ScaleRow {
    (probe.reset)();
    let (variables, accesses) = (w.var_count(), w.access_count());
    let capacity = variables.div_ceil(dbcs).max(8);
    let cost = CostModel::single_port();

    let t = Instant::now();
    let index = PositionIndex::from_stream(w);
    let index_build_s = t.elapsed().as_secs_f64();
    let index_heap_bytes = index.heap_bytes();

    // Random walk through the streaming engine: candidate placements are
    // costed straight off the position index, O(chunk) resident.
    let engine = FitnessEngine::from_compact_index(index, cost)
        .with_memo(false)
        .with_threads(threads);
    let t = Instant::now();
    let out = random_walk::run_budgeted(&engine, dbcs, capacity, seed, Budget::evals(evals), None)
        .expect("ladder capacities always fit");
    let eval_s = t.elapsed().as_secs_f64();

    let geometry = RtmGeometry::new(dbcs, 32, capacity, 1).expect("valid ladder geometry");
    let sim = Simulator::new(geometry, super::params_for(dbcs)).expect("matching params");
    let t = Instant::now();
    let stats = sim
        .run_stream(w, &out.placement)
        .expect("search placements are valid");
    let sim_s = t.elapsed().as_secs_f64();
    assert_eq!(
        stats.shifts,
        out.cost,
        "sim/engine fidelity on {}",
        w.name()
    );
    let peak_tracked_bytes = (probe.peak)();

    // Differential gate: the same best placement must cost bit-identically
    // through a materialized engine and through the index-free replay of
    // the raw accesses (skipped above CHECK_LIMIT, where the check itself
    // would defeat the bounded-memory point).
    let checked = accesses <= CHECK_LIMIT;
    let identical = !checked || {
        let seq = w.generate();
        let materialized = FitnessEngine::new(&seq, cost);
        let streamed = engine.per_dbc_costs(out.placement.dbc_lists());
        materialized.per_dbc_costs(out.placement.dbc_lists()) == streamed
            && cost.per_dbc_costs(&out.placement, seq.accesses()) == streamed
    };

    ScaleRow {
        tier: w.tier().name(),
        workload: w.name(),
        scale: w.scale(),
        accesses,
        variables,
        index_build_s,
        index_heap_bytes,
        evals: out.evals,
        eval_s,
        best_cost: out.cost,
        sim_s,
        peak_tracked_bytes,
        vm_hwm_kb: vm_hwm_kb(),
        checked,
        identical,
    }
}

/// Streaming ≡ materialized cost identity across the full OffsetStone
/// suite (round-robin placement per benchmark, at the row DBC count).
fn suite_identical(dbcs: usize) -> bool {
    suite().into_iter().all(|b| {
        let seq = b.trace();
        let materialized = FitnessEngine::new(&seq, CostModel::single_port());
        let streaming = FitnessEngine::streaming(&seq, CostModel::single_port());
        let vars = materialized.accessed_vars();
        let mut lists: Vec<Vec<VarId>> = vec![Vec::new(); dbcs];
        for (i, &v) in vars.iter().enumerate() {
            lists[i % dbcs].push(v);
        }
        let streamed = streaming.per_dbc_costs(&lists);
        let placement = Placement::from_dbc_lists(lists.clone());
        materialized.per_dbc_costs(&lists) == streamed
            && CostModel::single_port().per_dbc_costs(&placement, seq.accesses()) == streamed
    })
}

/// The DBC count the ladder runs at.
fn dbcs_for(opts: &ExperimentOpts) -> usize {
    match opts.dbcs.as_slice() {
        [one] => *one,
        _ => DEFAULT_DBCS,
    }
}

/// Collects the full ladder.
pub fn collect(opts: &ExperimentOpts, probe: &MemProbe) -> (Vec<ScaleRow>, bool) {
    let dbcs = dbcs_for(opts);
    let (steps, extra) = ladder(opts);
    let mut rows = Vec::new();
    for tier in Tier::ALL {
        for &(target, evals) in &steps {
            let w = representative(tier, target);
            rows.push(measure(&w, dbcs, evals, opts.seed, opts.threads, probe));
        }
    }
    // The deep end: one 10M-access adversarial row (the profiled
    // generators' per-access constants make 10M impractical there; the
    // adversarial emitter is O(1) per access).
    if let Some((target, evals)) = extra {
        let w = representative(Tier::Adversarial, target);
        rows.push(measure(&w, dbcs, evals, opts.seed, opts.threads, probe));
    }
    (rows, suite_identical(dbcs))
}

/// Renders the JSON record (`BENCH_scale.json`).
pub fn to_json(rows: &[ScaleRow], suite_ok: bool, opts: &ExperimentOpts) -> String {
    let threads = if opts.threads > 0 {
        opts.threads
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    };
    let mut w = Writer::pretty();
    w.object()
        .field("experiment", "scale")
        .field("quick", opts.quick)
        .field("seed", opts.seed)
        .field("dbcs", dbcs_for(opts))
        .field("threads", threads)
        .field("suite_identical", suite_ok)
        .key("rows")
        .array();
    for r in rows {
        w.object()
            .field("tier", r.tier)
            .field("workload", r.workload)
            .field("scale", Fixed(r.scale, 3))
            .field("accesses", r.accesses)
            .field("variables", r.variables)
            .field("index_build_s", Fixed(r.index_build_s, 4))
            .field("index_heap_bytes", r.index_heap_bytes)
            .field("evals", r.evals)
            .field("eval_s", Fixed(r.eval_s, 4))
            .field("evals_per_sec", Fixed(r.evals_per_sec(), 1))
            .field("best_cost", r.best_cost)
            .field("sim_accesses_per_sec", Fixed(r.sim_accesses_per_sec(), 1))
            .field("peak_tracked_bytes", r.peak_tracked_bytes)
            .field("vm_hwm_kb", r.vm_hwm_kb)
            .field("checked", r.checked)
            .field("identical", r.identical)
            .end();
    }
    w.end().end();
    w.finish()
}

/// Runs the experiment with `probe`; its record is `BENCH_scale.json`.
pub fn run_with_probe(opts: &ExperimentOpts, probe: &MemProbe) -> ExperimentResult {
    let (rows, suite_ok) = collect(opts, probe);
    let json = to_json(&rows, suite_ok, opts);
    if !suite_ok {
        eprintln!("ERROR: streaming/materialized cost divergence on the OffsetStone suite");
    }

    let mut t = Table::new(vec![
        "tier".into(),
        "workload".into(),
        "accesses".into(),
        "index_MB".into(),
        "evals/s".into(),
        "peak_MB".into(),
        "sim_acc/s".into(),
        "identical".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.tier.to_string(),
            r.workload.to_string(),
            r.accesses.to_string(),
            format!("{:.1}", r.index_heap_bytes as f64 / (1 << 20) as f64),
            format!("{:.0}", r.evals_per_sec()),
            format!("{:.1}", r.peak_tracked_bytes as f64 / (1 << 20) as f64),
            format!("{:.0}", r.sim_accesses_per_sec()),
            r.identical.to_string(),
        ]);
    }
    ExperimentResult {
        tables: vec![("scale".into(), t)],
        record: Some(("BENCH_scale.json", json)),
    }
}

/// Runs the experiment without memory instrumentation (library callers and
/// tests; the `scale` binary installs a counting allocator and calls
/// [`run_with_probe`]).
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    run_with_probe(opts, &MemProbe::none())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![4],
            out_dir: std::env::temp_dir().join("rtm-scale-test"),
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn ladder_covers_every_tier_and_json_is_well_formed() {
        let opts = tiny_opts();
        let (rows, suite_ok) = collect(&opts, &MemProbe::none());
        assert_eq!(rows.len(), 6); // 3 tiers x 2 quick ladder points
        for tier in Tier::ALL {
            assert!(rows.iter().any(|r| r.tier == tier.name()));
        }
        assert!(suite_ok, "streaming/materialized divergence on the suite");
        for r in &rows {
            assert!(
                r.checked && r.identical,
                "{}: differential check",
                r.workload
            );
            assert!(r.evals > 0 && r.accesses >= 19_000);
        }
        let json = to_json(&rows, suite_ok, &opts);
        assert!(json.contains("\"experiment\": \"scale\""));
        assert!(json.contains("\"suite_identical\": true"));
        assert!(json.contains("\"peak_tracked_bytes\""));
        assert!(!json.contains("\"identical\": false"));
        rtm_serve::json::validate(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
    }

    #[test]
    fn representative_hits_the_target_length() {
        for tier in Tier::ALL {
            let w = representative(tier, 50_000);
            let got = w.access_count();
            assert!(
                (got as i64 - 50_000i64).abs() <= 1,
                "{tier}: {got} accesses"
            );
        }
    }
}
