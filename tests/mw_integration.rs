//! Integration tests for the MW deployment: the optimizers run unchanged
//! over the worker pool through the `SamplingBackend` seam, and the
//! scale-up machinery produces consistent accounting.

use mw_framework::{Allocation, ThreadedBackend};
use noisy_simplex::prelude::*;
use repro_bench::scaleup::scaleup_rosenbrock;
use std::sync::Arc;
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::sampler::Noisy;

#[test]
fn every_method_runs_over_the_mw_pool() {
    let backend = Arc::new(ThreadedBackend::new(3));
    let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(5.0));
    let term = Termination {
        tolerance: Some(1e-3),
        max_time: Some(5e3),
        max_iterations: Some(500),
    };
    let pcmn = PcMn::new();
    let drivers = [
        Driver::Det,
        Driver::Mn(MaxNoise::with_k(2.0).params),
        Driver::Pc(PointComparison::new().params),
        Driver::PcMn(pcmn.mn, pcmn.pc),
        Driver::Anderson(AndersonNm::with_k1(256.0).params),
    ];
    for (i, driver) in drivers.into_iter().enumerate() {
        let init = init::random_uniform(2, -3.0, 3.0, i as u64);
        let res = RunSession::with_backend(
            &obj,
            init,
            SimplexConfig::default(),
            term,
            TimeMode::Parallel,
            i as u64,
            driver,
            backend.clone(),
        )
        .run_to_completion();
        assert!(res.iterations > 0, "{driver:?} made no progress over MW");
    }
    let jobs: u64 = backend.pool().job_counts().iter().sum();
    assert!(jobs > 100, "pool executed only {jobs} jobs");
}

#[test]
fn mw_runs_are_reproducible_despite_threading() {
    // The pool executes sampling on arbitrary workers, but seeds determine
    // the streams completely: two identical deployments must agree exactly.
    let run = || {
        let obj = Noisy::new(Rosenbrock::new(3), ConstantNoise(50.0));
        let init = init::random_uniform(3, -6.0, 3.0, 9);
        RunSession::with_backend(
            &obj,
            init,
            SimplexConfig::default(),
            Termination {
                tolerance: None,
                max_time: None,
                max_iterations: Some(40),
            },
            TimeMode::Parallel,
            13,
            Driver::Mn(MaxNoise::with_k(2.0).params),
            Arc::new(ThreadedBackend::new(4)),
        )
        .run_to_completion()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best_point, b.best_point);
    assert_eq!(a.best_observed, b.best_observed);
    assert_eq!(a.elapsed, b.elapsed);
}

#[test]
fn scaleup_descends_and_accounts_processors() {
    let res = scaleup_rosenbrock(20, 2, 0.2, 1.0, 200, 1e-9, 5);
    assert_eq!(res.alloc, Allocation::new(20, 2));
    assert_eq!(res.alloc.total(), 20 * 2 + 3 * 2 + 2 * 20 + 7);
    assert!(res.steps > 0 && res.steps <= 200);
    let first = res.trace.first().unwrap().best_value;
    let last = res.trace.last().unwrap().best_value;
    assert!(last < first, "no descent over MW: {first} -> {last}");
    assert!(res.secs_per_step > 0.0);
}

#[test]
fn scaleup_step_cost_grows_mildly_with_dimension() {
    // Fig 3.18c shape: per-step cost grows with d, but sublinearly relative
    // to the 5x dimension jump (the paper calls it "minor").
    let small = scaleup_rosenbrock(10, 1, 0.2, 1.0, 150, 1e-12, 6);
    let large = scaleup_rosenbrock(50, 1, 0.2, 1.0, 150, 1e-12, 6);
    assert!(
        large.secs_per_step < small.secs_per_step * 50.0,
        "per-step cost exploded: {} -> {}",
        small.secs_per_step,
        large.secs_per_step
    );
}
