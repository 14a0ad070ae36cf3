//! Experiment harness for the DATE 2020 reproduction.
//!
//! One binary per table/figure of the paper's evaluation (see `DESIGN.md`
//! §4 for the experiment index):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I — memory system parameters |
//! | `fig4` | Fig. 4 — shifts per benchmark, normalized to GA |
//! | `fig5` | Fig. 5 — energy breakdown normalized to AFD-OFU |
//! | `fig6` | Fig. 6 — DBC-count trade-off for DMA-SR |
//! | `latency` | §IV-C — latency improvement over AFD-OFU |
//! | `ga_convergence` | §IV-B — long-GA optimality-gap study |
//! | `capacity` | subarray-count sweep of the capacity-aware path vs the legacy grown-track spill |
//! | `perf` | search-stack throughput, written to `BENCH_perf.json` |
//! | `portfolio` | anytime search quality vs budget (per lane and portfolio, across ports/subarrays), written to `BENCH_search.json` |
//! | `scale` | workload-tier scaling of the bounded-memory trace pipeline, written to `BENCH_scale.json` |
//! | `smp` | the portfolio race over worker counts, written to `BENCH_smp.json` |
//!
//! All binaries accept `--quick` (reduced GA/RW budgets), `--dbcs 2,4,8,16`,
//! `--seed N`, `--benchmarks a,b,c` and write CSV next to the printed table
//! under `target/experiments/`; `--help` lists every flag ([`USAGE`]), and
//! an invalid flag exits 2 with one `error: …` line. Fig. 4/5/6 and latency place benchmarks
//! that exceed one 4 KiB subarray across multiple paper-faithful subarrays
//! by default; `--legacy-spill` restores the historical grown-track
//! behavior as an explicit baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod opts;
mod stats;
mod table;

pub use opts::{ExperimentOpts, OptsError, USAGE};
pub use stats::{geomean, geomean_nonzero, mean};
pub use table::Table;
