//! Criterion micro-benchmarks for the MW framework: round-trip dispatch
//! latency and batched fan-out throughput — the in-process analogue of the
//! paper's master↔worker communication overhead (§3.4's "minor
//! degradation... attributed to the I/O").

use criterion::{criterion_group, criterion_main, Criterion};
use mw_framework::{MwPool, ThreadedBackend};
use std::hint::black_box;
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::sampler::GaussianStream;

fn bench_mw(c: &mut Criterion) {
    let pool = MwPool::new(4);
    c.bench_function("pool_call_roundtrip", |b| {
        b.iter(|| black_box(pool.call(|w| w + 1)))
    });

    let backend = ThreadedBackend::new(4);
    c.bench_function("threaded_extend_batch_23_jobs", |b| {
        // 23 = the d+3 workers of a 20-dimensional deployment.
        b.iter(|| {
            let jobs: Vec<StreamJob<GaussianStream>> = (0..23)
                .map(|i| StreamJob {
                    slot: i,
                    dt: 1.0,
                    stream: GaussianStream::new(0.0, 1.0, i as u64),
                })
                .collect();
            black_box(backend.extend_batch(jobs))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mw
);
criterion_main!(benches);
