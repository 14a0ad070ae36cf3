use rtm_placement::{GaConfig, RandomWalkConfig};
use std::path::PathBuf;

/// Command-line options shared by every experiment binary.
///
/// Parsed by hand (flags only, no external dependency):
///
/// * `--quick` — reduced GA/RW budgets for smoke runs;
/// * `--dbcs 2,4,8,16` — DBC configurations to sweep;
/// * `--ports 1,2,4` — access-port counts to sweep (`ports` experiment);
/// * `--subarrays 1,2,4` — subarray counts to sweep (`capacity`
///   experiment);
/// * `--budgets 5000,20000,50000` — eval budgets to sweep (`portfolio`
///   experiment);
/// * `--workers 1,2,4` — engine worker counts to sweep (`smp` experiment);
/// * `--threads N` — the daemon's worker count (`serve`; `0` = all
///   cores);
/// * `--legacy-spill` — revert Fig. 4/5/6 and latency to the historical
///   grown-track behavior instead of the capacity-aware multi-subarray
///   path (kept as an explicit comparison baseline);
/// * `--seed N` — base RNG seed;
/// * `--benchmarks gzip,dct` — restrict the benchmark set;
/// * `--generations N` — GA generations override (`ga_convergence`);
/// * `--out DIR` — output directory (default `target/experiments`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOpts {
    /// DBC configurations to sweep.
    pub dbcs: Vec<usize>,
    /// Access-port counts per track to sweep (the `ports` experiment).
    pub ports: Vec<usize>,
    /// Subarray counts to sweep (the `capacity` experiment).
    pub subarrays: Vec<usize>,
    /// Eval budgets to sweep (the `portfolio` experiment); empty = the
    /// experiment's defaults (reduced under `--quick`).
    pub budgets: Vec<u64>,
    /// Engine worker counts to sweep (the `smp` experiment).
    pub workers: Vec<usize>,
    /// The daemon's worker count in the `serve` experiment (`0` = all
    /// cores).
    pub threads: usize,
    /// Use the historical grown-track spill instead of the capacity-aware
    /// multi-subarray path (Fig. 4/5/6 and latency).
    pub legacy_spill: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Use reduced search budgets.
    pub quick: bool,
    /// Benchmark-name filter (empty = all).
    pub benchmarks: Vec<String>,
    /// GA generation override.
    pub generations: Option<usize>,
    /// Use every per-benchmark access sequence (not just the canonical
    /// large one) — closer to the real OffsetStone suite's composition.
    pub multi_seq: bool,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        Self {
            dbcs: vec![2, 4, 8, 16],
            ports: vec![1, 2, 4],
            subarrays: vec![1, 2, 4],
            budgets: Vec::new(),
            workers: vec![1, 2, 4],
            threads: 0,
            legacy_spill: false,
            seed: 1,
            quick: false,
            benchmarks: Vec::new(),
            generations: None,
            multi_seq: false,
            out_dir: PathBuf::from("target/experiments"),
        }
    }
}

impl ExperimentOpts {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments (acceptable for
    /// an experiment binary).
    pub fn from_args() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable core of
    /// [`from_args`](Self::from_args)).
    #[allow(clippy::should_implement_trait)] // not a collection conversion
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| -> String {
                it.next()
                    .unwrap_or_else(|| panic!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--multi-seq" => opts.multi_seq = true,
                "--legacy-spill" => opts.legacy_spill = true,
                "--subarrays" => {
                    opts.subarrays = value("--subarrays")
                        .split(',')
                        .map(|s| s.trim().parse().expect("--subarrays takes integers"))
                        .collect();
                    assert!(
                        !opts.subarrays.is_empty() && opts.subarrays.iter().all(|&s| s >= 1),
                        "--subarrays takes positive integers"
                    );
                }
                "--budgets" => {
                    opts.budgets = value("--budgets")
                        .split(',')
                        .map(|s| s.trim().parse().expect("--budgets takes integers"))
                        .collect();
                    assert!(
                        !opts.budgets.is_empty() && opts.budgets.iter().all(|&b| b >= 1),
                        "--budgets takes positive integers"
                    );
                }
                "--dbcs" => {
                    opts.dbcs = value("--dbcs")
                        .split(',')
                        .map(|s| s.trim().parse().expect("--dbcs takes integers"))
                        .collect();
                }
                "--ports" => {
                    opts.ports = value("--ports")
                        .split(',')
                        .map(|s| s.trim().parse().expect("--ports takes integers"))
                        .collect();
                    assert!(
                        !opts.ports.is_empty() && opts.ports.iter().all(|&p| p >= 1),
                        "--ports takes positive integers"
                    );
                }
                "--workers" => {
                    opts.workers = value("--workers")
                        .split(',')
                        .map(|s| s.trim().parse().expect("--workers takes integers"))
                        .collect();
                    assert!(
                        !opts.workers.is_empty() && opts.workers.iter().all(|&w| w >= 1),
                        "--workers takes positive integers"
                    );
                }
                "--threads" => {
                    opts.threads = value("--threads")
                        .parse()
                        .expect("--threads takes an integer");
                }
                "--seed" => opts.seed = value("--seed").parse().expect("--seed takes an integer"),
                "--benchmarks" => {
                    opts.benchmarks = value("--benchmarks")
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .collect();
                }
                "--generations" => {
                    opts.generations = Some(
                        value("--generations")
                            .parse()
                            .expect("--generations takes an integer"),
                    );
                }
                "--out" => opts.out_dir = PathBuf::from(value("--out")),
                other => panic!("unknown argument `{other}`"),
            }
        }
        opts
    }

    /// The GA budget implied by the options: the paper's configuration, or
    /// a reduced one under `--quick`.
    pub fn ga_config(&self) -> GaConfig {
        let base = if self.quick {
            GaConfig::quick()
        } else {
            GaConfig::paper()
        };
        let base = base.with_seed(self.seed ^ 0x6A5);
        match self.generations {
            Some(g) => base.with_generations(g),
            None => base,
        }
    }

    /// The RW budget implied by the options.
    pub fn rw_config(&self) -> RandomWalkConfig {
        let base = if self.quick {
            RandomWalkConfig::quick()
        } else {
            RandomWalkConfig::paper()
        };
        base.with_seed(self.seed ^ 0x125)
    }

    /// Whether `name` passes the benchmark filter.
    pub fn selects(&self, name: &str) -> bool {
        self.benchmarks.is_empty() || self.benchmarks.iter().any(|b| b == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExperimentOpts {
        ExperimentOpts::from_iter(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.dbcs, vec![2, 4, 8, 16]);
        assert_eq!(o.ports, vec![1, 2, 4]);
        assert!(!o.quick);
        assert!(o.selects("anything"));
    }

    #[test]
    fn parses_ports() {
        assert_eq!(parse(&["--ports", "1,2"]).ports, vec![1, 2]);
    }

    #[test]
    fn parses_budgets() {
        assert_eq!(parse(&["--budgets", "500, 2000"]).budgets, vec![500, 2000]);
        assert!(parse(&[]).budgets.is_empty());
    }

    #[test]
    #[should_panic(expected = "--budgets takes positive integers")]
    fn rejects_zero_budgets() {
        parse(&["--budgets", "0"]);
    }

    #[test]
    fn parses_workers_and_threads() {
        let o = parse(&["--workers", "1,2,8", "--threads", "2"]);
        assert_eq!(o.workers, vec![1, 2, 8]);
        assert_eq!(o.threads, 2);
        let d = parse(&[]);
        assert_eq!(d.workers, vec![1, 2, 4]);
        assert_eq!(d.threads, 0);
    }

    #[test]
    #[should_panic(expected = "--workers takes positive integers")]
    fn rejects_zero_workers() {
        parse(&["--workers", "0,2"]);
    }

    #[test]
    fn parses_subarrays_and_legacy_spill() {
        let o = parse(&["--subarrays", "1,4", "--legacy-spill"]);
        assert_eq!(o.subarrays, vec![1, 4]);
        assert!(o.legacy_spill);
        let d = parse(&[]);
        assert_eq!(d.subarrays, vec![1, 2, 4]);
        assert!(!d.legacy_spill);
    }

    #[test]
    #[should_panic(expected = "--subarrays takes positive integers")]
    fn rejects_zero_subarrays() {
        parse(&["--subarrays", "0,2"]);
    }

    #[test]
    #[should_panic(expected = "--ports takes positive integers")]
    fn rejects_zero_ports() {
        parse(&["--ports", "0,2"]);
    }

    #[test]
    fn parses_flags() {
        let o = parse(&[
            "--quick",
            "--dbcs",
            "2,8",
            "--seed",
            "99",
            "--benchmarks",
            "gzip, dct",
            "--generations",
            "2000",
            "--out",
            "/tmp/x",
        ]);
        assert!(o.quick);
        assert_eq!(o.dbcs, vec![2, 8]);
        assert_eq!(o.seed, 99);
        assert!(o.selects("gzip") && o.selects("dct") && !o.selects("fft"));
        assert_eq!(o.generations, Some(2000));
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn quick_shrinks_budgets() {
        let q = parse(&["--quick"]);
        let f = parse(&[]);
        assert!(q.ga_config().generations < f.ga_config().generations);
        assert!(q.rw_config().iterations < f.rw_config().iterations);
    }

    #[test]
    fn generations_override_applies() {
        let o = parse(&["--generations", "7"]);
        assert_eq!(o.ga_config().generations, 7);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn rejects_unknown() {
        parse(&["--bogus"]);
    }
}
