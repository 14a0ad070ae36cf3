use rtm_placement::{GaConfig, RandomWalkConfig};
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::str::FromStr;

/// The flag list `--help` prints, and an invalid argument prints after its
/// error line.
pub const USAGE: &str = "\
options (every experiment binary accepts all of them):
  --quick              reduced budgets and sweeps for smoke runs
  --dbcs 2,4,8,16      DBC configurations to sweep
  --ports 1,2,4        access-port counts to sweep (ports, portfolio)
  --subarrays 1,2,4    subarray counts to sweep (capacity, portfolio)
  --budgets 200,5000   per-lane eval budgets to sweep (portfolio)
  --workers 1,2,4      engine worker counts to sweep (smp)
  --threads N          the daemon's worker count (serve; 0 = all cores)
  --legacy-spill       grow tracks instead of adding subarrays (fig4-6, latency)
  --multi-seq          every access sequence of a benchmark, not only the canonical one
  --seed N             base RNG seed (default 1)
  --benchmarks a,b     restrict the benchmark set
  --generations N      GA generations override (ga_convergence)
  --out DIR            output directory (default target/experiments)
  --help               print this list and exit
";

/// Command-line options shared by every experiment binary.
///
/// Parsed by hand (flags only, no external dependency); [`USAGE`] lists
/// the flags.
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

/// Why [`ExperimentOpts::from_iter`] returned no options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptsError {
    /// `--help` (or `-h`) was given: print [`USAGE`] and exit 0.
    Help,
    /// An unknown flag, a flag without its value, or a malformed value.
    Invalid(String),
}

impl fmt::Display for OptsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptsError::Help => f.write_str("help requested"),
            OptsError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for OptsError {}

/// A comma-separated list of integers.
fn list<T: FromStr>(flag: &str, value: &str) -> Result<Vec<T>, OptsError> {
    value
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| OptsError::Invalid(format!("{flag} takes integers")))
        })
        .collect()
}

/// A comma-separated list of integers, each at least 1.
fn positive_list<T: FromStr + PartialOrd + From<u8>>(
    flag: &str,
    value: &str,
) -> Result<Vec<T>, OptsError> {
    let values: Vec<T> = list(flag, value)?;
    if values.iter().any(|v| *v < T::from(1)) {
        return Err(OptsError::Invalid(format!(
            "{flag} takes positive integers"
        )));
    }
    Ok(values)
}

/// One integer.
fn integer<T: FromStr>(flag: &str, value: &str) -> Result<T, OptsError> {
    value
        .parse()
        .map_err(|_| OptsError::Invalid(format!("{flag} takes an integer")))
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
    /// Parses `std::env::args`. `--help` prints [`USAGE`] on stdout and
    /// exits 0; an invalid argument prints one `error: …` line and the
    /// usage on stderr and exits 2.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let name = std::path::Path::new(&program)
            .file_name()
            .map_or(program.as_str(), |n| n.to_str().unwrap_or("experiment"));
        let usage = format!("usage: {name} [options]\n{USAGE}");
        match Self::from_iter(args) {
            Ok(opts) => opts,
            Err(OptsError::Help) => {
                // A closed stdout (`--help | head -1`) is still a clean exit.
                let _ = std::io::stdout().write_all(usage.as_bytes());
                std::process::exit(0)
            }
            Err(err) => {
                eprint!("error: {err}\n{usage}");
                std::process::exit(2)
            }
        }
    }

    /// Parses an explicit argument list (testable core of
    /// [`from_args`](Self::from_args)).
    ///
    /// # Errors
    ///
    /// [`OptsError::Help`] for `--help`/`-h`, [`OptsError::Invalid`] for an
    /// unknown flag, a flag missing its value, or a malformed value.
    #[allow(clippy::should_implement_trait)] // not a collection conversion
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I) -> Result<Self, OptsError> {
        let mut opts = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| -> Result<String, OptsError> {
                it.next()
                    .ok_or_else(|| OptsError::Invalid(format!("{flag} requires a value")))
            };
            match arg.as_str() {
                "--help" | "-h" => return Err(OptsError::Help),
                "--quick" => opts.quick = true,
                "--multi-seq" => opts.multi_seq = true,
                "--legacy-spill" => opts.legacy_spill = true,
                "--subarrays" => opts.subarrays = positive_list(&arg, &value(&arg)?)?,
                "--budgets" => opts.budgets = positive_list(&arg, &value(&arg)?)?,
                "--dbcs" => opts.dbcs = list(&arg, &value(&arg)?)?,
                "--ports" => opts.ports = positive_list(&arg, &value(&arg)?)?,
                "--workers" => opts.workers = positive_list(&arg, &value(&arg)?)?,
                "--threads" => opts.threads = integer(&arg, &value(&arg)?)?,
                "--seed" => opts.seed = integer(&arg, &value(&arg)?)?,
                "--benchmarks" => {
                    opts.benchmarks = value(&arg)?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .collect();
                }
                "--generations" => opts.generations = Some(integer(&arg, &value(&arg)?)?),
                "--out" => opts.out_dir = PathBuf::from(value(&arg)?),
                other => return Err(OptsError::Invalid(format!("unknown argument `{other}`"))),
            }
        }
        Ok(opts)
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

    fn try_parse(args: &[&str]) -> Result<ExperimentOpts, OptsError> {
        ExperimentOpts::from_iter(args.iter().map(|s| s.to_string()))
    }

    /// Parses or panics with the error's message.
    fn parse(args: &[&str]) -> ExperimentOpts {
        try_parse(args).unwrap_or_else(|e| panic!("{e}"))
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

    #[test]
    fn help_asks_for_the_usage() {
        assert_eq!(try_parse(&["--help"]), Err(OptsError::Help));
        assert_eq!(try_parse(&["--quick", "-h"]), Err(OptsError::Help));
        assert!(USAGE.contains("--budgets") && USAGE.contains("--help"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            try_parse(&["--bogus"]),
            Err(OptsError::Invalid("unknown argument `--bogus`".into()))
        );
    }

    #[test]
    fn zero_budget_is_an_error() {
        assert_eq!(
            try_parse(&["--budgets", "0"]),
            Err(OptsError::Invalid(
                "--budgets takes positive integers".into()
            ))
        );
        assert_eq!(
            try_parse(&["--budgets", "200,x"]),
            Err(OptsError::Invalid("--budgets takes integers".into()))
        );
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            try_parse(&["--quick", "--seed"]),
            Err(OptsError::Invalid("--seed requires a value".into()))
        );
        assert_eq!(
            try_parse(&["--seed", "x"]),
            Err(OptsError::Invalid("--seed takes an integer".into()))
        );
    }
}
