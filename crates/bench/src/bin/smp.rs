//! Worker-count sweep of the portfolio race; writes `BENCH_smp.json`. See
//! `DESIGN.md` §4 and §7.
//!
//! Every configuration is compared bit for bit with the serial (1 worker)
//! baseline at collection time; CI greps the JSON for `"identical": false`
//! (must be absent).

fn main() -> std::io::Result<()> {
    let opts = rtm_bench::ExperimentOpts::from_args();
    rtm_bench::experiments::smp::run(&opts).emit(&opts)
}
