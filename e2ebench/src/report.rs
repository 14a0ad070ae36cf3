//! The metric catalogue and the result printer.
//!
//! Every run prints one human-readable line per metric (value, unit and
//! sample count) and then, as its last line, the JSON result object.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by the untraced run of
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
    ("shifts", "shifts"),
    ("sim_latency_ms", "ms"),
    ("sim_energy_uj", "uJ"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A
/// workload that does not reach a layer reports it as 0 from 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.transport_ms.p50", "ms"),
    ("server.transport_ms.p99", "ms"),
    ("server.solve_ms.p50", "ms"),
    ("server.solve_ms.p99", "ms"),
    ("server.rejected", "count"),
    ("protocol.parse_us.p50", "us"),
    ("protocol.request_kb", "KiB"),
    ("fingerprint.us.p50", "us"),
    ("cache.hit_us.p50", "us"),
    ("cache.miss_us.p50", "us"),
    ("cache.trace_hit_rate", "ratio"),
    ("cache.session_hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("report.us.p50", "us"),
    ("report.response_kb", "KiB"),
    ("strategy.heuristic_ms.p50", "ms"),
    ("session.engine_build_ms.p50", "ms"),
    ("strategy.seeds_ms.p50", "ms"),
    ("search.sa_ms.p50", "ms"),
    ("search.sa_streamed_ms.p50", "ms"),
    ("search.tabu_ms.p50", "ms"),
    ("search.portfolio_ms.p50", "ms"),
    ("search.evals", "count"),
    ("search.lanes_failed", "count"),
    ("eval.evals_per_s", "1/s"),
    ("eval.share", "ratio"),
    ("eval.memo_hit_ratio", "ratio"),
    ("eval.subseq_hit_ratio", "ratio"),
    ("eval.inherited_ratio", "ratio"),
    ("eval.contended", "count"),
    ("pool.steals", "count"),
    ("pool.contended", "count"),
    ("trace.parse_mb_s", "MB/s"),
    ("trace.stream_pass_ms", "ms"),
    ("trace.compact_index_ms", "ms"),
    ("trace.compact_index_mb", "MiB"),
    ("trace.streamed_peak_rss_mb", "MiB"),
    ("sim.accesses_per_s", "1/s"),
    ("unaccounted_ms.p50", "ms"),
    ("tracing.untraced_op_ms.p50", "ms"),
    ("tracing.traced_op_ms.p50", "ms"),
    ("tracing.overhead_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed: error or overload replies, lanes that did not
    /// complete, check mismatches.
    pub failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, (f64, usize)>,
    notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name` measured from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Records a failed check. The run then reports `correct: false`.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Adds a free-text line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Prints the report for `catalogue` and returns whether it is
    /// correct. The JSON object is the last line of standard output.
    pub fn print(&self, catalogue: &[(&'static str, &'static str)]) -> bool {
        for note in &self.notes {
            println!("# {note}");
        }
        let error_frac = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            0.0
        };
        println!(
            "{:<30} {error_frac} ratio ({} of {} ops failed)",
            "error_frac", self.failed, self.attempted
        );
        let mut json = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
            let value = if value.is_finite() { value } else { 0.0 };
            if samples == 0 {
                println!("{name:<30} n/a (not exercised by this workload)");
            } else {
                println!("{name:<30} {value} {unit} (n={samples})");
            }
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        for why in self.failures.iter().take(20) {
            println!("# CHECK FAILED: {why}");
        }
        if self.failures.len() > 20 {
            println!("# … and {} more failed checks", self.failures.len() - 20);
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        self.correct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the one in `BENCHMARK.json` must name the
    /// same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + spec.matches("\"why\": ").count(),
            "BENCHMARK.json names metrics this catalogue lacks"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(n, names.len());
    }
}
