//! `portfolio` — solution quality vs budget for the anytime search stack,
//! recorded as machine-readable JSON (`BENCH_search.json`) so the search
//! trajectory of the repository is tracked alongside engine throughput
//! (`BENCH_perf.json`).
//!
//! For every selected benchmark the experiment sweeps two geometry axes —
//! port counts at one subarray, then subarray counts at one port — and for
//! each eval budget races every lane kind ([`LaneSpec::ALL`]: SA / tabu /
//! GA / random walk, all seeded with the composite heuristics), not just
//! the default race, because the record exists to judge every lane. One
//! race yields *both* the per-lane quality and time (lanes are independent
//! under an eval budget) and the portfolio quality, plus the incumbent's
//! time-to-best trace. The default budgets include the daemon's served
//! 200 evals. Per budget, the summary counts each lane's wins and its share
//! of the summed lane time: the evidence behind [`LaneSpec::DEFAULT`].
//!
//! Two invariants are asserted at collection time:
//!
//! * the portfolio's best equals the minimum over its lanes (the racing
//!   contract — the portfolio can never lose to a lane);
//! * the portfolio never loses to the best composite heuristic (every lane
//!   starts from those seeds).

use super::ExperimentResult;
use crate::{geomean_nonzero, ExperimentOpts, Table};
use rtm_arch::{ArrayGeometry, RtmGeometry};
use rtm_offsetstone::suite;
use rtm_placement::{
    Budget, FitnessEngine, LaneSpec, Placement, PlacementProblem, Portfolio, PortfolioConfig,
    PortfolioOutcome, Strategy,
};
use rtm_serve::json::{Fixed, Writer};

/// One lane's quality numbers in one race.
#[derive(Debug, Clone)]
pub struct LaneQuality {
    /// Lane name (`sa` / `tabu` / `ga` / `rw`).
    pub name: &'static str,
    /// Best cost the lane reached.
    pub cost: u64,
    /// Evaluations the lane consumed.
    pub evals: u64,
    /// Wall milliseconds to the lane's best.
    pub time_to_best_ms: f64,
    /// Wall milliseconds the lane ran.
    pub elapsed_ms: f64,
}

/// One (benchmark, geometry, budget) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Ports per track.
    pub ports: usize,
    /// Subarrays.
    pub subarrays: usize,
    /// Per-lane eval budget.
    pub budget: u64,
    /// Per-lane quality, in lane order.
    pub lanes: Vec<LaneQuality>,
    /// The portfolio's best cost (= min over lanes).
    pub portfolio_cost: u64,
    /// Winning lane name.
    pub winner: &'static str,
    /// Wall milliseconds to the portfolio's best.
    pub portfolio_time_to_best_ms: f64,
    /// Best composite heuristic and its cost.
    pub best_heuristic: (&'static str, u64),
}

/// The geometry points of the sweep: `(ports, subarrays)`.
fn sweep_points(opts: &ExperimentOpts) -> Vec<(usize, usize)> {
    let mut points: Vec<(usize, usize)> = opts.ports.iter().map(|&p| (p, 1)).collect();
    for &s in &opts.subarrays {
        if s > 1 {
            points.push((1, s));
        }
    }
    points
}

/// The budget sweep: `--budgets` verbatim, else defaults sized by
/// `--quick`.
pub fn budgets(opts: &ExperimentOpts) -> Vec<u64> {
    if !opts.budgets.is_empty() {
        opts.budgets.clone()
    } else if opts.quick {
        vec![200, 2_000]
    } else {
        vec![200, 5_000, 20_000, 50_000]
    }
}

/// One pass over the four composite heuristics: the seed placements
/// ordered best-first (matching `PlacementProblem::heuristic_seeds`) and
/// the best heuristic's `(name, cost)` — a single solve per strategy
/// serves both, and it is computed once per geometry point, not per
/// budget.
fn heuristic_pass(problem: &PlacementProblem) -> (Vec<Placement>, (&'static str, u64)) {
    let mut scored: Vec<(&'static str, u64, Placement)> = [
        Strategy::AfdOfu,
        Strategy::DmaOfu,
        Strategy::DmaChen,
        Strategy::DmaSr,
    ]
    .iter()
    .filter_map(|s| {
        problem
            .solve(s)
            .ok()
            .map(|sol| (s.name(), sol.shifts, sol.placement))
    })
    .collect();
    scored.sort_by_key(|(_, shifts, _)| *shifts);
    let best = (scored[0].0, scored[0].1);
    (scored.into_iter().map(|(_, _, p)| p).collect(), best)
}

/// Everything about one (benchmark, geometry) point that is shared by its
/// budget sweep: computed once, raced once per budget.
struct GeometryRun<'a> {
    name: &'static str,
    problem: &'a PlacementProblem,
    engine: &'a FitnessEngine<'a>,
    seeds: &'a [Placement],
    heuristic: (&'static str, u64),
    array: &'a ArrayGeometry,
}

/// Runs one race and folds it into a [`Row`], asserting the collection
/// invariants.
fn measure(run: &GeometryRun<'_>, budget: u64, opts: &ExperimentOpts) -> Row {
    let GeometryRun {
        name,
        problem,
        engine,
        seeds,
        heuristic,
        array,
    } = *run;
    let cfg = PortfolioConfig::new(Budget::evals(budget))
        .with_seed(opts.seed)
        .with_lanes(LaneSpec::ALL.to_vec());
    let out: PortfolioOutcome = Portfolio::new(cfg)
        .with_subarrays(problem.subarrays())
        .run_with_engine(engine, problem.dbcs(), problem.capacity(), seeds)
        .expect("experiment arrays always fit");
    let lanes: Vec<LaneQuality> = out
        .lanes
        .iter()
        .map(|l| {
            // Eval-budget races have no deadline and no faults, so every
            // lane completes with an outcome.
            let o = l.outcome.as_ref().expect("eval-budget lanes complete");
            LaneQuality {
                name: l.spec.name(),
                cost: o.cost,
                evals: o.evals,
                time_to_best_ms: o.time_to_best.as_secs_f64() * 1e3,
                elapsed_ms: o.elapsed.as_secs_f64() * 1e3,
            }
        })
        .collect();
    let best = out.best();
    let lane_min = lanes
        .iter()
        .map(|l| l.cost)
        .min()
        .expect("a race has lanes");
    assert_eq!(
        best.cost, lane_min,
        "{name}: portfolio lost to one of its own lanes"
    );
    assert!(
        best.cost <= heuristic.1,
        "{name}: portfolio {} lost to {} {}",
        best.cost,
        heuristic.0,
        heuristic.1
    );
    Row {
        benchmark: name,
        ports: array.ports_per_track(),
        subarrays: array.subarrays(),
        budget,
        lanes,
        portfolio_cost: best.cost,
        winner: out.lanes[out.winner].spec.name(),
        portfolio_time_to_best_ms: best.time_to_best.as_secs_f64() * 1e3,
        best_heuristic: heuristic,
    }
}

/// Collects the full sweep. Benchmarks that cannot fit a geometry point
/// (e.g. mpeg2 in a single subarray at low DBC counts) are skipped there
/// and reported in the skip list.
pub fn collect(opts: &ExperimentOpts) -> (Vec<Row>, Vec<String>) {
    let dbcs = opts.dbcs.first().copied().unwrap_or(4);
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for bench in suite() {
        if !opts.selects(bench.name()) {
            continue;
        }
        let seq = bench.trace();
        for (ports, subarrays) in sweep_points(opts) {
            let sub: RtmGeometry =
                RtmGeometry::paper_4kib_with_ports(dbcs, ports).expect("paper subarray is valid");
            let array = match ArrayGeometry::new(subarrays, sub) {
                Ok(a) if a.fits(seq.vars().len()) => a,
                _ => {
                    skipped.push(format!("{}@{}p{}s", bench.name(), ports, subarrays));
                    continue;
                }
            };
            let problem = PlacementProblem::for_array(seq.clone(), &array);
            let (seeds, heuristic) = heuristic_pass(&problem);
            let engine = problem.engine();
            let run = GeometryRun {
                name: bench.name(),
                problem: &problem,
                engine: &engine,
                seeds: &seeds,
                heuristic,
                array: &array,
            };
            for budget in budgets(opts) {
                rows.push(measure(&run, budget, opts));
            }
        }
    }
    (rows, skipped)
}

/// Benchmarks that have a row at *every* geometry point of the sweep.
///
/// Skipped points (a benchmark too large for one subarray, say) leave the
/// per-point benchmark sets unequal, so any cross-point aggregate over all
/// rows silently compares different workload mixes. Summaries therefore
/// restrict themselves to this intersection; per-point coverage is emitted
/// in the JSON so the restriction is auditable.
pub fn benchmark_intersection(rows: &[Row]) -> Vec<&'static str> {
    let mut points: Vec<(usize, usize)> = rows.iter().map(|r| (r.ports, r.subarrays)).collect();
    points.sort_unstable();
    points.dedup();
    // Rows are grouped by benchmark (collect's outer loop), so consecutive
    // dedup yields each name once, in sweep order.
    let mut names: Vec<&'static str> = rows.iter().map(|r| r.benchmark).collect();
    names.dedup();
    names
        .into_iter()
        .filter(|b| {
            points.iter().all(|&(p, s)| {
                rows.iter()
                    .any(|r| r.benchmark == *b && r.ports == p && r.subarrays == s)
            })
        })
        .collect()
}

/// Row count per geometry point, in sweep order: `((ports, subarrays), n)`.
pub fn point_counts(rows: &[Row]) -> Vec<((usize, usize), usize)> {
    let mut counts: Vec<((usize, usize), usize)> = Vec::new();
    for r in rows {
        let key = (r.ports, r.subarrays);
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    counts
}

/// One budget's aggregate over the races of the summary benchmarks
/// ([`benchmark_intersection`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSummary {
    /// Per-lane eval budget.
    pub budget: u64,
    /// Races at this budget.
    pub races: usize,
    /// Geomean of portfolio cost over the best heuristic's (zero-cost
    /// ratios left out and counted in `zero_rows`).
    pub geomean_vs_best_heuristic: f64,
    /// Races whose ratio was zero.
    pub zero_rows: usize,
    /// Races the portfolio won outright against the best heuristic.
    pub portfolio_wins: usize,
    /// `(lane, races it won)`, in [`LaneSpec::ALL`] order.
    pub lane_wins: Vec<(&'static str, usize)>,
    /// `(lane, share of the summed lane time)`, in the same order.
    pub lane_time_share: Vec<(&'static str, f64)>,
}

/// Summarizes each budget over the summary benchmarks, in budget order;
/// a budget with no such race is left out.
pub fn summarize(rows: &[Row], opts: &ExperimentOpts) -> Vec<BudgetSummary> {
    let inter = benchmark_intersection(rows);
    let mut out = Vec::new();
    for budget in budgets(opts) {
        let sel: Vec<&Row> = rows
            .iter()
            .filter(|r| r.budget == budget && inter.contains(&r.benchmark))
            .collect();
        if sel.is_empty() {
            continue;
        }
        let ratios: Vec<f64> = sel
            .iter()
            .map(|r| r.portfolio_cost as f64 / r.best_heuristic.1.max(1) as f64)
            .collect();
        let (geomean, zero_rows) = geomean_nonzero(&ratios);
        let lane_ms = |name: &str| -> f64 {
            sel.iter()
                .flat_map(|r| &r.lanes)
                .filter(|l| l.name == name)
                .map(|l| l.elapsed_ms)
                .sum()
        };
        let total_ms: f64 = LaneSpec::ALL.iter().map(|l| lane_ms(l.name())).sum();
        out.push(BudgetSummary {
            budget,
            races: sel.len(),
            geomean_vs_best_heuristic: geomean,
            zero_rows,
            portfolio_wins: sel
                .iter()
                .filter(|r| r.portfolio_cost < r.best_heuristic.1)
                .count(),
            lane_wins: LaneSpec::ALL
                .iter()
                .map(|l| {
                    (
                        l.name(),
                        sel.iter().filter(|r| r.winner == l.name()).count(),
                    )
                })
                .collect(),
            lane_time_share: LaneSpec::ALL
                .iter()
                .map(|l| {
                    let share = if total_ms > 0.0 {
                        lane_ms(l.name()) / total_ms
                    } else {
                        0.0
                    };
                    (l.name(), share)
                })
                .collect(),
        });
    }
    out
}

/// Renders the JSON record (`BENCH_search.json`).
pub fn to_json(rows: &[Row], skipped: &[String], opts: &ExperimentOpts) -> String {
    let mut w = Writer::pretty();
    w.object()
        .field("experiment", "search")
        .field("quick", opts.quick)
        .field("seed", opts.seed)
        .field("dbcs", opts.dbcs.first().copied().unwrap_or(4))
        .key("budgets")
        .values(budgets(opts))
        .key("skipped")
        .values(skipped.iter().map(String::as_str))
        .key("points")
        .array();
    for ((ports, subarrays), n) in point_counts(rows) {
        w.object()
            .field("ports", ports)
            .field("subarrays", subarrays)
            .field("rows", n)
            .end();
    }
    w.end()
        .key("summary_benchmarks")
        .values(benchmark_intersection(rows))
        .key("summary")
        .array();
    for b in summarize(rows, opts) {
        w.object()
            .field("budget", b.budget)
            .field("races", b.races)
            .field(
                "geomean_vs_best_heuristic",
                Fixed(b.geomean_vs_best_heuristic, 4),
            )
            .field("zero_rows", b.zero_rows)
            .field("portfolio_wins", b.portfolio_wins)
            .key("lane_wins")
            .object();
        for (lane, wins) in &b.lane_wins {
            w.field(lane, *wins);
        }
        w.end().key("lane_time_share").object();
        for (lane, share) in &b.lane_time_share {
            w.field(lane, Fixed(*share, 4));
        }
        w.end().end();
    }
    w.end().key("rows").array();
    for r in rows {
        w.object()
            .field("benchmark", r.benchmark)
            .field("ports", r.ports)
            .field("subarrays", r.subarrays)
            .field("budget", r.budget)
            .key("lanes")
            .object();
        for l in &r.lanes {
            w.key(l.name)
                .object()
                .field("cost", l.cost)
                .field("evals", l.evals)
                .field("time_to_best_ms", Fixed(l.time_to_best_ms, 3))
                .field("elapsed_ms", Fixed(l.elapsed_ms, 3))
                .end();
        }
        w.end()
            .key("portfolio")
            .object()
            .field("cost", r.portfolio_cost)
            .field("winner", r.winner)
            .field("time_to_best_ms", Fixed(r.portfolio_time_to_best_ms, 3))
            .end()
            .key("best_heuristic")
            .object()
            .field("name", r.best_heuristic.0)
            .field("cost", r.best_heuristic.1)
            .end()
            .end();
    }
    w.end().end();
    w.finish()
}

/// Runs the experiment: prints the per-config tables, writes the CSVs and
/// returns the `BENCH_search.json` record.
pub fn run(opts: &ExperimentOpts) -> ExperimentResult {
    let (rows, skipped) = collect(opts);
    let json = to_json(&rows, &skipped, opts);
    if !skipped.is_empty() {
        println!("skipped (does not fit geometry): {}", skipped.join(", "));
    }

    let mut quality = Table::new(vec![
        "benchmark".into(),
        "ports".into(),
        "subarrays".into(),
        "budget".into(),
        "sa".into(),
        "tabu".into(),
        "ga".into(),
        "rw".into(),
        "portfolio".into(),
        "winner".into(),
        "best_heur".into(),
        "heur_cost".into(),
    ]);
    for r in &rows {
        let lane = |n: &str| {
            r.lanes
                .iter()
                .find(|l| l.name == n)
                .map_or_else(|| "-".into(), |l| l.cost.to_string())
        };
        quality.row(vec![
            r.benchmark.into(),
            r.ports.to_string(),
            r.subarrays.to_string(),
            r.budget.to_string(),
            lane("sa"),
            lane("tabu"),
            lane("ga"),
            lane("rw"),
            r.portfolio_cost.to_string(),
            r.winner.into(),
            r.best_heuristic.0.into(),
            r.best_heuristic.1.to_string(),
        ]);
    }

    // Summary: per budget, the geomean of portfolio cost over the best
    // heuristic (zero-shift runs counted explicitly, never clamped), the
    // races each lane won and each lane's share of the summed lane time.
    // Only benchmarks present at every geometry point contribute — skipped
    // points would otherwise make the per-budget mixes incomparable.
    let inter = benchmark_intersection(&rows);
    let excluded: Vec<&str> = rows
        .iter()
        .map(|r| r.benchmark)
        .filter(|b| !inter.contains(b))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    if !excluded.is_empty() {
        println!(
            "summary restricted to {} of {} benchmarks (partial geometry coverage: {})",
            inter.len(),
            inter.len() + excluded.len(),
            excluded.join(", ")
        );
    }
    let mut header: Vec<String> = [
        "budget",
        "benchmarks",
        "races",
        "geomean_vs_best_heuristic",
        "zero_rows",
        "portfolio_wins",
    ]
    .map(String::from)
    .to_vec();
    header.extend(LaneSpec::ALL.iter().map(|l| format!("{l}_wins")));
    header.extend(LaneSpec::ALL.iter().map(|l| format!("{l}_time_share")));
    let mut summary = Table::new(header);
    for b in summarize(&rows, opts) {
        let mut cells = vec![
            b.budget.to_string(),
            inter.len().to_string(),
            b.races.to_string(),
            format!("{:.4}", b.geomean_vs_best_heuristic),
            b.zero_rows.to_string(),
            format!("{}/{}", b.portfolio_wins, b.races),
        ];
        cells.extend(b.lane_wins.iter().map(|(_, wins)| wins.to_string()));
        cells.extend(
            b.lane_time_share
                .iter()
                .map(|(_, share)| format!("{share:.4}")),
        );
        summary.row(cells);
    }

    ExperimentResult {
        tables: vec![
            ("search_quality".into(), quality),
            ("search_summary".into(), summary),
        ],
        record: Some(("BENCH_search.json", json)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            dbcs: vec![4],
            ports: vec![1, 2],
            subarrays: vec![1, 2],
            budgets: vec![120, 400],
            benchmarks: vec!["dct".into()],
            out_dir: std::env::temp_dir().join("rtm-portfolio-test"),
            ..ExperimentOpts::default()
        }
    }

    #[test]
    fn collects_the_sweep_and_emits_valid_json() {
        let opts = tiny_opts();
        let (rows, skipped) = collect(&opts);
        // 3 geometry points (1p/1s, 2p/1s, 1p/2s) x 2 budgets.
        assert_eq!(rows.len(), 6);
        assert!(skipped.is_empty(), "dct fits every point: {skipped:?}");
        for r in &rows {
            // Every lane kind races, the random walk included.
            let names: Vec<&str> = r.lanes.iter().map(|l| l.name).collect();
            assert_eq!(names, ["sa", "tabu", "ga", "rw"]);
            assert_eq!(
                r.portfolio_cost,
                r.lanes.iter().map(|l| l.cost).min().unwrap()
            );
            assert!(r.portfolio_cost <= r.best_heuristic.1);
            for l in &r.lanes {
                assert!(l.evals <= r.budget, "{} overran its budget", l.name);
                assert!(l.elapsed_ms >= l.time_to_best_ms, "{}", l.name);
            }
        }
        // One summary per budget: the lane wins add up to the races, and
        // the lane time shares to one.
        let summary = summarize(&rows, &opts);
        assert_eq!(
            summary.iter().map(|b| b.budget).collect::<Vec<_>>(),
            opts.budgets
        );
        for b in &summary {
            assert_eq!(b.races, 3);
            assert_eq!(b.lane_wins.iter().map(|(_, n)| n).sum::<usize>(), b.races);
            let share: f64 = b.lane_time_share.iter().map(|(_, s)| s).sum();
            assert!((share - 1.0).abs() < 1e-9, "time shares sum to {share}");
        }
        let json = to_json(&rows, &skipped, &opts);
        assert!(json.contains("\"experiment\": \"search\""));
        assert!(json.contains("\"portfolio\""));
        assert!(json.contains("\"best_heuristic\""));
        assert!(json.contains("\"elapsed_ms\": "));
        assert!(json.contains("\"summary\": ["));
        assert!(json.contains("\"lane_wins\": {\"sa\": "));
        assert!(json.contains("\"lane_time_share\": {\"sa\": "));
        rtm_serve::json::validate(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
    }

    fn stub_row(benchmark: &'static str, ports: usize, subarrays: usize, budget: u64) -> Row {
        Row {
            benchmark,
            ports,
            subarrays,
            budget,
            lanes: Vec::new(),
            portfolio_cost: 1,
            winner: "sa",
            portfolio_time_to_best_ms: 0.0,
            best_heuristic: ("dma_ofu", 2),
        }
    }

    #[test]
    fn summary_intersection_excludes_partially_covered_benchmarks() {
        // "big" is missing at the (1, 1) point — like mpeg2 skipped when it
        // cannot fit a single subarray.
        let rows = vec![
            stub_row("small", 1, 1, 100),
            stub_row("small", 2, 1, 100),
            stub_row("big", 2, 1, 100),
        ];
        assert_eq!(benchmark_intersection(&rows), vec!["small"]);
        assert_eq!(point_counts(&rows), vec![((1, 1), 1), ((2, 1), 2)]);
    }

    #[test]
    fn full_coverage_keeps_every_benchmark_in_the_summary() {
        let rows = vec![
            stub_row("a", 1, 1, 100),
            stub_row("a", 1, 2, 100),
            stub_row("b", 1, 1, 100),
            stub_row("b", 1, 2, 100),
        ];
        assert_eq!(benchmark_intersection(&rows), vec!["a", "b"]);
    }

    #[test]
    fn json_reports_per_point_coverage() {
        let opts = tiny_opts();
        let (rows, skipped) = collect(&opts);
        let json = to_json(&rows, &skipped, &opts);
        assert!(json.contains("\"points\": ["));
        assert!(json.contains("\"summary_benchmarks\": [\"dct\"]"));
        // dct fits all 3 geometry points at 2 budgets each.
        assert!(json.contains("{\"ports\": 1, \"subarrays\": 1, \"rows\": 2}"));
    }

    #[test]
    fn budget_defaults_scale_with_quick() {
        let mut opts = ExperimentOpts {
            quick: true,
            ..ExperimentOpts::default()
        };
        assert_eq!(budgets(&opts), vec![200, 2_000]);
        opts.quick = false;
        assert_eq!(budgets(&opts), vec![200, 5_000, 20_000, 50_000]);
        opts.budgets = vec![7];
        assert_eq!(budgets(&opts), vec![7]);
    }

    #[test]
    fn unfitting_geometry_points_are_skipped_not_fatal() {
        let opts = ExperimentOpts {
            quick: true,
            dbcs: vec![16],
            ports: vec![1],
            subarrays: vec![1],
            budgets: vec![60],
            benchmarks: vec!["mpeg2".into()],
            out_dir: std::env::temp_dir().join("rtm-portfolio-skip-test"),
            ..ExperimentOpts::default()
        };
        // mpeg2 (1336 vars) cannot fit one 16-DBC subarray (1024 slots).
        let (rows, skipped) = collect(&opts);
        assert!(rows.is_empty());
        assert_eq!(skipped, vec!["mpeg2@1p1s".to_string()]);
    }
}
