//! Fitness-evaluation throughput: the naive full-trace replay against the
//! incremental engine, which merges each dirty DBC's subsequence, on a
//! GA-shaped offspring batch — the microbenchmark behind the `rtm-bench
//! perf` experiment's offspring streams.
//!
//! Each iteration evaluates a prebuilt batch of reorder offspring (one
//! transposed DBC per job, the rest inherited), which is idempotent, so the
//! same jobs are re-evaluated every iteration with warm scratch buffers —
//! exactly the steady state of a GA generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtm_offsetstone::Benchmark;
use rtm_placement::eval::{EvalJob, FitnessEngine};
use rtm_placement::CostModel;
use rtm_trace::VarId;
use std::hint::black_box;

const BATCH: usize = 64;

/// Round-robin base placement of the benchmark's variables.
fn base_lists(seq: &rtm_trace::AccessSequence, dbcs: usize) -> Vec<Vec<VarId>> {
    let mut lists: Vec<Vec<VarId>> = vec![Vec::new(); dbcs];
    for (i, v) in seq.liveness().by_first_occurrence().into_iter().enumerate() {
        lists[i % dbcs].push(v);
    }
    lists
}

/// A batch of reorder offspring: job `i` rotates DBC `i % dbcs` and marks
/// it dirty; all other per-DBC costs are inherited.
fn reorder_batch(lists: &[Vec<VarId>], costs: &[u64]) -> Vec<EvalJob> {
    (0..BATCH)
        .map(|i| {
            let mut job = EvalJob::derived(lists.to_vec(), costs.to_vec());
            let d = i % lists.len();
            let n = job.lists[d].len();
            job.lists[d].rotate_left(1 + i / lists.len() % n.max(1));
            job.dirty.mark(d);
            job
        })
        .collect()
}

fn fitness_eval(c: &mut Criterion) {
    let seq = Benchmark::by_name("adpcm").expect("in suite").trace();
    let mut group = c.benchmark_group("fitness_eval");
    group.throughput(Throughput::Elements(BATCH as u64));
    for dbcs in [4usize, 8] {
        let lists = base_lists(&seq, dbcs);
        let naive = FitnessEngine::naive(&seq, CostModel::single_port());
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let costs = engine.per_dbc_costs(&lists);
        let mut naive_jobs = reorder_batch(&lists, &costs);
        group.bench_with_input(BenchmarkId::new("naive", dbcs), &(), |b, ()| {
            b.iter(|| {
                naive.evaluate_batch(&mut naive_jobs);
                black_box(naive_jobs[0].total())
            })
        });
        let mut engine_jobs = reorder_batch(&lists, &costs);
        group.bench_with_input(BenchmarkId::new("incremental", dbcs), &(), |b, ()| {
            b.iter(|| {
                engine.evaluate_batch(&mut engine_jobs);
                black_box(engine_jobs[0].total())
            })
        });
        // Fresh candidates (the random walk's workload): allocation-free
        // replay vs the naive clone + placement build.
        for (name, engine) in [("fresh_naive", &naive), ("fresh_replay", &engine)] {
            let mut scratch = engine.scratch();
            group.bench_with_input(BenchmarkId::new(name, dbcs), &(), |b, ()| {
                b.iter(|| {
                    black_box(
                        (0..BATCH)
                            .map(|_| engine.total_cost_with(&lists, &mut scratch))
                            .sum::<u64>(),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fitness_eval);
criterion_main!(benches);
