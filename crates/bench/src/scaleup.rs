//! The scale-up experiment (§3.4, Fig 3.18, Table 3.3): optimize the
//! Rosenbrock function in `d = 20 / 50 / 100` dimensions over the MW
//! deployment's `d + 3` workers — one stream extension per vertex
//! evaluation, dispatched through the `SamplingBackend` seam — measuring
//! real wall-clock time per simplex step.

use mw_framework::alloc::Allocation;
use mw_framework::pool::{default_respawn_budget, RetryPolicy};
use mw_framework::{FaultPlan, ThreadedBackend};
use noisy_simplex::geometry::{centroid_excluding, contract, expand, order, reflect};
use std::time::Instant;
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::functions::Rosenbrock;
use stoch_eval::objective::{Objective, SampleStream};
use stoch_eval::rng::child_seed;
use stoch_eval::sampler::GaussianStream;

/// One evaluation of the noisy Rosenbrock at a point.
///
/// In the paper the vertex's server fans out to `Ns` clients, each sampling
/// an independent system for `dt`, and averages them. Here the `Ns` clients
/// are one Gaussian stream sampled at `Ns` times the rate, i.e. extended by
/// `Ns·dt`: the vertex estimate keeps the variance `σ0²/(Ns·dt)`, and at
/// `Ns = 1` it is exactly the single client's stream.
#[derive(Debug, Clone)]
pub struct VertexEvalTask {
    /// The point in parameter space.
    pub x: Vec<f64>,
    /// Inherent per-system noise magnitude.
    pub sigma0: f64,
    /// Sampling duration per client.
    pub dt: f64,
    /// Task seed (the stream's seed is `child_seed(seed, 0)`).
    pub seed: u64,
}

/// Evaluate `tasks` as one batch on `backend` with `ns` clients per vertex,
/// returning the vertex estimates in task order.
pub fn evaluate(backend: &ThreadedBackend, ns: usize, tasks: &[VertexEvalTask]) -> Vec<f64> {
    let jobs = tasks
        .iter()
        .enumerate()
        .map(|(slot, t)| {
            let f = Rosenbrock::new(t.x.len()).value(&t.x);
            StreamJob {
                slot,
                dt: ns as f64 * t.dt,
                stream: GaussianStream::new(f, t.sigma0, child_seed(t.seed, 0)),
            }
        })
        .collect();
    backend
        .extend_batch(jobs)
        .into_iter()
        .map(|j| j.stream.estimate().value)
        .collect()
}

/// One per-step record of the scale-up run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleupPoint {
    /// 1-based simplex step.
    pub step: u64,
    /// Wall-clock seconds since the optimization started.
    pub wall_secs: f64,
    /// Best observed vertex value after the step.
    pub best_value: f64,
}

/// Result of one scale-up run.
#[derive(Debug, Clone)]
pub struct ScaleupResult {
    /// Problem dimensionality.
    pub d: usize,
    /// Clients per vertex.
    pub ns: usize,
    /// The MW processor allocation this deployment represents.
    pub alloc: Allocation,
    /// Steps actually taken.
    pub steps: u64,
    /// Total wall-clock seconds.
    pub total_wall_secs: f64,
    /// Mean wall-clock seconds per simplex step (Fig 3.18c).
    pub secs_per_step: f64,
    /// Per-step trace (Figs 3.18a/b).
    pub trace: Vec<ScaleupPoint>,
}

/// Run the DET simplex over the MW hierarchy on noisy Rosenbrock.
///
/// `max_steps` bounds the run; it stops early if the vertex spread drops
/// below `tol`.
pub fn scaleup_rosenbrock(
    d: usize,
    ns: usize,
    sigma0: f64,
    eval_dt: f64,
    max_steps: u64,
    tol: f64,
    seed: u64,
) -> ScaleupResult {
    scaleup_rosenbrock_with_metrics(d, ns, sigma0, eval_dt, max_steps, tol, seed, None)
}

/// [`scaleup_rosenbrock`] with optional run accounting: when `registry` is
/// given, the worker pool records its job, busy/idle and queue-depth
/// tallies into it (`mw.pool.*` metrics), and the backend its batch
/// tallies (`mw.backend.*`).
#[allow(clippy::too_many_arguments)]
pub fn scaleup_rosenbrock_with_metrics(
    d: usize,
    ns: usize,
    sigma0: f64,
    eval_dt: f64,
    max_steps: u64,
    tol: f64,
    seed: u64,
    registry: Option<&obs::MetricsRegistry>,
) -> ScaleupResult {
    let alloc = Allocation::new(d, ns);
    let workers = alloc.workers();
    let backend = ThreadedBackend::with_options(
        workers,
        FaultPlan::none(),
        RetryPolicy::default(),
        default_respawn_budget(workers),
        registry,
    );
    let eval_one = |task: VertexEvalTask| evaluate(&backend, ns, &[task])[0];
    let mut next_seed = seed;
    let mut seed_gen = move || {
        next_seed = next_seed.wrapping_add(1);
        child_seed(0xC0FFEE, next_seed)
    };

    let mut points = noisy_simplex::init::random_uniform(d, -6.0, 3.0, seed);
    let eval = |x: &[f64], s: u64| VertexEvalTask {
        x: x.to_vec(),
        sigma0,
        dt: eval_dt,
        seed: s,
    };

    // Initial concurrent evaluation of all d+1 vertices.
    let tasks: Vec<VertexEvalTask> = points.iter().map(|x| eval(x, seed_gen())).collect();
    let mut values = evaluate(&backend, ns, &tasks);

    let t0 = Instant::now();
    let mut trace = Vec::new();
    let mut steps = 0u64;

    while steps < max_steps {
        let spread = {
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            max - min
        };
        if spread <= tol {
            break;
        }
        let ord = order(&values);
        let cent = centroid_excluding(&points, ord.max);
        let refl_x = reflect(&cent, &points[ord.max], 1.0);
        let g_ref = eval_one(eval(&refl_x, seed_gen()));

        if g_ref < values[ord.min] {
            let exp_x = expand(&cent, &refl_x, 2.0);
            let g_exp = eval_one(eval(&exp_x, seed_gen()));
            if g_exp < g_ref {
                points[ord.max] = exp_x;
                values[ord.max] = g_exp;
            } else {
                points[ord.max] = refl_x;
                values[ord.max] = g_ref;
            }
        } else if g_ref < values[ord.max] {
            points[ord.max] = refl_x;
            values[ord.max] = g_ref;
        } else {
            let con_x = contract(&cent, &points[ord.max], 0.5);
            let g_con = eval_one(eval(&con_x, seed_gen()));
            if g_con < values[ord.max] {
                points[ord.max] = con_x;
                values[ord.max] = g_con;
            } else {
                // Collapse towards the best vertex and re-evaluate everyone
                // concurrently (one batch, one job per worker).
                let keep = points[ord.min].clone();
                let mut moved = Vec::new();
                let mut tasks = Vec::new();
                for (i, p) in points.iter_mut().enumerate() {
                    if i == ord.min {
                        continue;
                    }
                    for (pj, kj) in p.iter_mut().zip(&keep) {
                        *pj = 0.5 * *pj + 0.5 * kj;
                    }
                    moved.push(i);
                    tasks.push(eval(p, seed_gen()));
                }
                for (i, v) in moved.into_iter().zip(evaluate(&backend, ns, &tasks)) {
                    values[i] = v;
                }
            }
        }

        steps += 1;
        trace.push(ScaleupPoint {
            step: steps,
            wall_secs: t0.elapsed().as_secs_f64(),
            best_value: values.iter().cloned().fold(f64::INFINITY, f64::min),
        });
    }

    let total = t0.elapsed().as_secs_f64();
    ScaleupResult {
        d,
        ns,
        alloc,
        steps,
        total_wall_secs: total,
        secs_per_step: if steps > 0 {
            total / steps as f64
        } else {
            f64::NAN
        },
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaleup_runs_and_descends_in_20d() {
        let res = scaleup_rosenbrock(20, 1, 0.1, 1.0, 300, 1e-6, 42);
        assert!(res.steps > 0);
        assert_eq!(res.alloc.total(), 70);
        let first = res.trace.first().unwrap().best_value;
        let last = res.trace.last().unwrap().best_value;
        assert!(last < first, "no descent: {first} -> {last}");
    }

    #[test]
    fn scaleup_with_metrics_counts_dispatched_jobs() {
        let reg = obs::MetricsRegistry::new();
        let res = scaleup_rosenbrock_with_metrics(5, 1, 0.1, 1.0, 20, 0.0, 3, Some(&reg));
        assert!(res.steps > 0);
        // d+1 initial vertex evaluations, then at least one dispatch
        // (the reflection) per simplex step.
        let jobs = reg.counter("mw.pool.jobs_submitted").get();
        assert!(
            jobs >= res.steps + 6,
            "only {jobs} jobs for {} steps",
            res.steps
        );
    }

    #[test]
    fn scaleup_trace_wall_time_is_monotone() {
        let res = scaleup_rosenbrock(5, 2, 0.1, 1.0, 50, 0.0, 7);
        for w in res.trace.windows(2) {
            assert!(w[1].wall_secs >= w[0].wall_secs);
            assert_eq!(w[1].step, w[0].step + 1);
        }
    }

    #[test]
    fn vertex_eval_task_averages_clients() {
        // With sigma0 = 0 every client returns exactly f(x).
        let backend = ThreadedBackend::new(2);
        let x = vec![0.0, 0.0, 0.0];
        let f = Rosenbrock::new(3).value(&x);
        let task = VertexEvalTask {
            x,
            sigma0: 0.0,
            dt: 1.0,
            seed: 1,
        };
        assert_eq!(evaluate(&backend, 4, &[task]), vec![f]);
    }

    #[test]
    fn single_client_is_the_seeded_gaussian_stream() {
        // Ns = 1 pins the evaluation to one stream seeded child_seed(seed, 0)
        // and extended by dt, bit for bit.
        let backend = ThreadedBackend::new(2);
        let x = vec![-1.2, 1.0, 0.5];
        let task = VertexEvalTask {
            x: x.clone(),
            sigma0: 3.0,
            dt: 0.7,
            seed: 42,
        };
        let f = Rosenbrock::new(3).value(&x);
        let mut s = GaussianStream::new(f, 3.0, child_seed(42, 0));
        s.extend(0.7);
        let got = evaluate(&backend, 1, &[task])[0];
        assert_eq!(got.to_bits(), s.estimate().value.to_bits());
    }

    #[test]
    fn more_clients_reduce_noise() {
        let backend = ThreadedBackend::new(2);
        let x = vec![1.0, 1.0];
        let f = Rosenbrock::new(2).value(&x); // 0
        let rms = |ns: usize| -> f64 {
            let tasks: Vec<VertexEvalTask> = (0..64u64)
                .map(|s| VertexEvalTask {
                    x: x.clone(),
                    sigma0: 10.0,
                    dt: 1.0,
                    seed: s,
                })
                .collect();
            let outs = evaluate(&backend, ns, &tasks);
            let mean_sq: f64 =
                outs.iter().map(|v| (v - f) * (v - f)).sum::<f64>() / outs.len() as f64;
            mean_sq.sqrt()
        };
        let rms1 = rms(1);
        let rms16 = rms(16);
        assert!(
            rms16 < rms1,
            "16 clients should average noise down: {rms16} vs {rms1}"
        );
    }
}
