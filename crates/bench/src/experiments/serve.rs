//! `serve` — end-to-end measurement of the placement daemon; writes
//! `BENCH_serve.json`.
//!
//! Boots an in-process `rtm-serve` daemon (one global worker pool, the
//! cross-request session cache) and drives it with the load generator's
//! standard mixed workload: every expected/stress tier crossed with
//! heuristic, GA, and seeded eval-budget SA/tabu/portfolio queries. The
//! generator verifies **every** response bit-identical against a cold
//! in-process single-shot solve before anything is summarized, so the
//! JSON's `"identical"` flag is a measured property, not an assumption.
//!
//! Two CI gates ride in the JSON:
//!
//! * `"identical": false` must never appear — warm, concurrent,
//!   cache-shared serving must not change results;
//! * `deadline_gate` — the server-side p99 `elapsed_ms` must stay within
//!   `default_deadline_ms + grace` (`"pass"`/`"fail"`; server-side time is
//!   judged so client/socket scheduling noise can't flake CI).
//!
//! The warm-cache win is reported as cold vs warm `dbc_recomputations`
//! and cold vs warm whole-mix latency, both measured sequentially so
//! per-solve engine-stat deltas aren't interleaved by concurrency.

use crate::{ExperimentOpts, Table};
use rtm_serve::json::{Fixed, Writer};
use rtm_serve::loadgen::{self, LoadReport, LoadgenConfig};
use rtm_serve::server::{ServeConfig, Server};

/// Grace on top of the default deadline for the p99 gate (scheduling
/// noise allowance; the portfolio's contractual wind-down grace is far
/// smaller).
const GRACE_MS: f64 = 500.0;

/// Collects one load run against a fresh in-process daemon.
///
/// # Panics
///
/// Panics if the daemon cannot bind or the load run fails — an experiment
/// binary's acceptable failure mode.
pub fn collect(opts: &ExperimentOpts) -> LoadReport {
    let (scale, budget_evals) = if opts.quick {
        (0.05, 200)
    } else {
        (0.25, 2_000)
    };
    let (clients, rounds) = if opts.quick { (3, 2) } else { (8, 4) };
    let config = ServeConfig {
        threads: opts.threads,
        ..ServeConfig::default()
    };
    let deadline_ms = config.default_deadline_ms;
    let server = Server::bind(config).expect("bind serve daemon");
    let handle = server.spawn().expect("spawn serve daemon");
    let mix = loadgen::standard_mix(scale, budget_evals);
    let report = loadgen::run(
        &LoadgenConfig {
            addr: handle.addr(),
            clients,
            rounds,
            default_deadline_ms: deadline_ms,
        },
        &mix,
    )
    .expect("load run");
    handle.shutdown();
    report
}

/// The deadline-gate verdict: server-side p99 within `deadline + grace`.
pub fn deadline_gate(report: &LoadReport) -> &'static str {
    if report.server_ms.p99 <= report.deadline_ms as f64 + GRACE_MS {
        "pass"
    } else {
        "fail"
    }
}

/// Renders the JSON record (`BENCH_serve.json`).
pub fn to_json(report: &LoadReport, opts: &ExperimentOpts) -> String {
    let mut w = Writer::pretty();
    w.object()
        .field("experiment", "serve")
        .field("quick", opts.quick)
        .field("queries", report.queries)
        .field("requests", report.requests)
        .field("identical", report.identical)
        .field("mismatches", report.mismatches)
        .field("errors", report.errors)
        .field("trace_hit_rate", Fixed(report.trace_hit_rate, 4))
        .field("session_hit_rate", Fixed(report.session_hit_rate, 4))
        .field("cold_recomputations", report.cold_recomputations)
        .field("warm_recomputations", report.warm_recomputations)
        .field("warm_cache_win", report.warm_cache_win)
        .field("cold_mix_ms", Fixed(report.cold_mix_ms, 3))
        .field("warm_mix_ms", Fixed(report.warm_mix_ms, 3));
    for (name, p) in [
        ("client_latency_ms", &report.client_ms),
        ("server_elapsed_ms", &report.server_ms),
    ] {
        w.key(name)
            .object()
            .field("p50", Fixed(p.p50, 3))
            .field("p95", Fixed(p.p95, 3))
            .field("p99", Fixed(p.p99, 3))
            .field("max", Fixed(p.max, 3))
            .end();
    }
    w.field("deadline_ms", report.deadline_ms)
        .field("grace_ms", Fixed(GRACE_MS, 0))
        .field("deadline_gate", deadline_gate(report))
        .end();
    w.finish()
}

/// Runs the load experiment; its record is `BENCH_serve.json`.
pub fn run(opts: &ExperimentOpts) -> crate::experiments::ExperimentResult {
    let report = collect(opts);
    let json = to_json(&report, opts);

    let mut t = Table::new(vec![
        "metric".into(),
        "cold".into(),
        "warm".into(),
        "note".into(),
    ]);
    t.row(vec![
        "mix_latency_ms".into(),
        format!("{:.1}", report.cold_mix_ms),
        format!("{:.1}", report.warm_mix_ms),
        "sequential full-mix pass".into(),
    ]);
    t.row(vec![
        "dbc_recomputations".into(),
        report.cold_recomputations.to_string(),
        report.warm_recomputations.to_string(),
        format!("warm_cache_win={}", report.warm_cache_win),
    ]);
    t.row(vec![
        "server_p50/p99_ms".into(),
        format!("{:.1}", report.server_ms.p50),
        format!("{:.1}", report.server_ms.p99),
        format!("deadline_gate={}", deadline_gate(&report)),
    ]);
    t.row(vec![
        "hit_rates".into(),
        format!("trace={:.2}", report.trace_hit_rate),
        format!("session={:.2}", report.session_hit_rate),
        format!("identical={}", report.identical),
    ]);
    crate::experiments::ExperimentResult {
        tables: vec![("serve".into(), t)],
        record: Some(("BENCH_serve.json", json)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_both_gates_and_writes_valid_json() {
        let opts = ExperimentOpts {
            quick: true,
            threads: 2,
            out_dir: std::env::temp_dir().join(format!("rtm_serve_bench_{}", std::process::id())),
            ..ExperimentOpts::default()
        };
        let result = run(&opts);
        assert_eq!(result.tables.len(), 1);
        result.emit(&opts).unwrap();
        let json = std::fs::read_to_string(opts.out_dir.join("BENCH_serve.json")).unwrap();
        rtm_serve::json::validate(&json).unwrap();
        assert!(json.contains("\"identical\": true"), "{json}");
        assert!(json.contains("\"warm_cache_win\": true"), "{json}");
        assert!(json.contains("\"deadline_gate\": \"pass\""), "{json}");
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
