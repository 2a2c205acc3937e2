//! Criterion micro-benchmarks for the sampling substrate: stream extension
//! throughput (Gaussian, empirical and hostile-noise streams) and
//! normal-variate generation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use stoch_eval::objective::SampleStream;
use stoch_eval::rng::rng_from_seed;
use stoch_eval::sampler::{standard_normal, EmpiricalStream, GaussianStream, HostileStream};
use stoch_eval::{EstimatorChoice, NoiseDistribution};

fn bench_streams(c: &mut Criterion) {
    c.bench_function("gaussian_stream_extend", |b| {
        let mut s = GaussianStream::new(1.0, 10.0, 7);
        b.iter(|| {
            s.extend(black_box(1.0));
            black_box(s.estimate())
        })
    });

    c.bench_function("empirical_stream_extend_10_batches", |b| {
        let mut s = EmpiricalStream::new(1.0, 10.0, 1.0, 7);
        b.iter(|| {
            s.extend(black_box(10.0));
            black_box(s.estimate())
        })
    });

    // 4096 unit samples of Student-t(3) + 5% spikes at 20× per iteration:
    // divide the time by 4096 for the per-sample cost of the block draw
    // plus the moment fold.
    c.bench_function("hostile_stream_extend_4096", |b| {
        let dist = NoiseDistribution::student_t(3.0).with_contamination(0.05, 20.0);
        let mut s = HostileStream::new(1.0, 10.0, 1.0, 7, dist, EstimatorChoice::Welford);
        b.iter(|| {
            s.extend(black_box(4096.0));
            black_box(s.estimate())
        })
    });

    c.bench_function("standard_normal", |b| {
        let mut rng = rng_from_seed(3);
        b.iter(|| black_box(standard_normal(&mut rng)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_streams
);
criterion_main!(benches);
