//! Worker-count scaling sweep of the fitness engine; writes
//! `BENCH_smp.json`. See `DESIGN.md` §4 and §7.
//!
//! Every configuration is asserted bit-identical to the serial (1 worker)
//! baseline at collection time; CI greps the JSON for
//! `"identical": false` / `"contention_free": false` (must be absent) and
//! for the `speedup_gate` verdict.

fn main() -> std::io::Result<()> {
    let opts = rtm_bench::ExperimentOpts::from_args();
    rtm_bench::experiments::smp::run(&opts).emit(&opts)
}
