//! The repository benchmark: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve-hot|serve-cold|place-large --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input derives from `--seed`. Every answer is checked against a
//! cold in-process reference; a failed check makes `correct` false and the
//! exit code 1. The last line of standard output is the JSON result.

mod inputs;
mod layers;
mod place;
mod procfs;
mod report;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;

/// Closed-loop clients the serve workloads want; never more than the host
/// has CPUs.
const CLIENTS: usize = 2;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Client connections for a host with `host_cpus` CPUs: the load
/// generator never starts more threads or connections than that.
fn client_count(wanted: usize, host_cpus: usize) -> usize {
    wanted.min(host_cpus).max(1)
}

fn run(args: &Args) -> Result<bool, String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let clients = client_count(CLIENTS, host_cpus);
    let serve = |mix| serve::Run {
        mix,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        clients,
        threads: host_cpus,
    };
    let mut outcome = match args.workload.as_str() {
        "serve-hot" => serve::run(&serve(serve::Mix::Hot))?,
        "serve-cold" => serve::run(&serve(serve::Mix::Cold))?,
        "place-large" => place::run(&place::Run {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace,
        })?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (serve-hot, serve-cold, place-large)"
            ))
        }
    };
    outcome.note(format!(
        "workload {} seed {} host_cpus {host_cpus} clients {clients} traced {}",
        args.workload, args.seed, args.trace
    ));
    let catalogue = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    Ok(outcome.print(catalogue))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|a| run(&a)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-hot".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 1")).is_err());
    }

    #[test]
    fn never_more_clients_than_cpus() {
        assert_eq!(client_count(2, 1), 1);
        assert_eq!(client_count(2, 8), 2);
    }
}
