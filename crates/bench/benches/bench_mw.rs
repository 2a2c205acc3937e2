//! Criterion micro-benchmarks for the MW framework: round-trip dispatch
//! latency and batched fan-out throughput — the in-process analogue of the
//! paper's master↔worker communication overhead (§3.4's "minor
//! degradation... attributed to the I/O").

use criterion::{criterion_group, criterion_main, Criterion};
use mw_framework::{
    default_respawn_budget, FaultPlan, MwPool, ProcessBackend, RetryPolicy, ThreadedBackend,
};
use std::hint::black_box;
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::codec::crc32;
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::objective::StochasticObjective;
use stoch_eval::sampler::{GaussianStream, Noisy};

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

    // The checksum every wire frame pays twice (encode and verify).
    let page: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    c.bench_function("crc32_4k", |b| {
        b.iter(|| black_box(crc32(black_box(&page))))
    });

    // One MN round at d = 50 on worker processes: d + 2 = 52 empirical
    // Gaussian streams (the shape of the repository benchmark's
    // mn_d50_process) over 2 workers.
    let obj = Noisy::empirical(Rosenbrock::new(50), ConstantNoise(5.0), 0.02);
    let process = ProcessBackend::with_options(
        2,
        FaultPlan::none(),
        RetryPolicy::default(),
        default_respawn_budget(2),
        None,
    );
    c.bench_function("process_extend_batch_52_jobs", |b| {
        b.iter(|| {
            let jobs = (0..52)
                .map(|i| StreamJob {
                    slot: i,
                    dt: 0.5,
                    stream: obj.open(&[0.1 * i as f64; 50], i as u64),
                })
                .collect();
            black_box(process.extend_batch(jobs))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mw
);
criterion_main!(benches);
