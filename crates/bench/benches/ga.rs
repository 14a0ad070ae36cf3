//! Cost of the search-based placers: GA generations and random-walk
//! iterations per second, quantifying why the paper calls them baselines
//! rather than compiler passes; plus the two kernels every fresh random
//! candidate pays for: a `serve-cold`-shaped random walk and the ChaCha8
//! word stream it draws from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtm_offsetstone::{Benchmark, TierWorkload};
use rtm_placement::random_walk::{self, RandomWalkConfig};
use rtm_placement::search::Budget;
use rtm_placement::{CostModel, FitnessEngine, GaConfig, GeneticPlacer};
use std::hint::black_box;

fn ga_generation_cost(c: &mut Criterion) {
    let seq = Benchmark::by_name("adpcm").expect("in suite").trace();
    let mut group = c.benchmark_group("ga");
    group.sample_size(10);
    for generations in [5usize, 20] {
        let cfg = GaConfig {
            mu: 32,
            lambda: 32,
            generations,
            ..GaConfig::paper()
        };
        group.bench_with_input(
            BenchmarkId::new("generations", generations),
            &cfg,
            |b, cfg| {
                b.iter(|| black_box(GeneticPlacer::new(*cfg).run(&seq, 4, 4096).expect("fits")))
            },
        );
    }
    group.finish();
}

fn random_walk_cost(c: &mut Criterion) {
    let seq = Benchmark::by_name("adpcm").expect("in suite").trace();
    let mut group = c.benchmark_group("random_walk");
    group.sample_size(10);
    for iters in [500usize, 2000] {
        let cfg = RandomWalkConfig {
            iterations: iters,
            seed: 3,
        };
        group.bench_with_input(BenchmarkId::new("iterations", iters), &cfg, |b, cfg| {
            b.iter(|| {
                black_box(
                    random_walk::search(&seq, 4, 4096, CostModel::single_port(), *cfg)
                        .expect("fits"),
                )
            })
        });
    }
    group.finish();
}

/// One `serve-cold` random-walk lane: an expected-ctl trace at scale 1 on
/// 4 DBCs of the daemon's default capacity, 200 evaluations, one worker.
/// Nearly all of it is drawing, dealing and replaying fresh candidates.
fn serve_cold_random_walk(c: &mut Criterion) {
    let seq = TierWorkload::by_name("expected-ctl", 1.0)
        .expect("expected tier")
        .generate();
    let dbcs = 4;
    let capacity = (4096 * 8 / (dbcs * 32)).max(seq.vars().len().div_ceil(dbcs));
    let engine = FitnessEngine::new(&seq, CostModel::single_port()).with_threads(1);
    let mut group = c.benchmark_group("random_walk");
    group.sample_size(10);
    group.throughput(Throughput::Elements(200));
    group.bench_function("serve_cold_200_evals", |b| {
        b.iter(|| {
            black_box(
                random_walk::run_budgeted(&engine, dbcs, capacity, 3, Budget::evals(200), None)
                    .expect("fits")
                    .cost,
            )
        })
    });
    group.finish();
}

/// ChaCha8 words as the samplers draw them: `next_u64` throughput.
fn chacha8_next_u64(c: &mut Criterion) {
    const DRAWS: u64 = 4096;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut group = c.benchmark_group("chacha8");
    group.throughput(Throughput::Elements(DRAWS));
    group.bench_function("next_u64", |b| {
        b.iter(|| (0..DRAWS).fold(0u64, |acc, _| acc ^ rng.next_u64()))
    });
    group.finish();
}

criterion_group!(
    benches,
    ga_generation_cost,
    random_walk_cost,
    serve_cold_random_walk,
    chacha8_next_u64
);
criterion_main!(benches);
