//! The pool-backed sampling backend: batches of stream extensions fan out
//! over [`MwPool`] workers, supervised against worker loss.
//!
//! This implements the `stoch-eval` [`SamplingBackend`] seam with real
//! threads — the in-process analogue of the paper's master–worker
//! deployment (§3.1): the master (the optimizer engine) hands a round of
//! extensions to the backend, each extension runs on a worker, and the
//! master blocks until the whole round is back. Determinism is inherited
//! from the seam's contract: every stream owns its RNG, so the worker
//! schedule cannot change any result, and results are collected in
//! submission order so floating-point accounting sums identically to the
//! serial backend.
//!
//! This seam is the only way work reaches a worker: the engine's rounds,
//! the scheduler's merged fleet batches, and the §3.4 scale-up all call
//! [`SamplingBackend::extend_batch`], and the process transport
//! ([`crate::transport::ProcessBackend`]) implements the same trait across
//! process boundaries.
//!
//! # Fault tolerance (DESIGN.md §9)
//!
//! The backend keeps a master-side clone of every stream it ships. If a
//! worker dies mid-job (or a per-attempt timeout fires), the extension is
//! re-issued from the clone under the backend's [`RetryPolicy`] while the
//! pool's supervisor respawns workers; because the clone carries the RNG
//! state, a retried extension reproduces the lost one bit for bit. When the
//! pool permanently fails (respawn budget exhausted, no live workers) or a
//! job runs out of attempts, the remaining work executes inline on the
//! calling thread — the run *degrades to serial* instead of erroring, and
//! the backend reports it through [`SamplingBackend::degraded`] and the
//! `mw.backend.degraded` metric.
//!
//! Faults themselves come from the `NSX_FAULTS` environment variable (see
//! [`FaultPlan`]) for chaos testing, or programmatically via
//! [`ThreadedBackend::with_options`].
//!
//! # Straggler hedging (DESIGN.md §16)
//!
//! Dead workers are detected by channel disconnection, but a merely *slow*
//! worker stalls the whole rendezvoused batch. With hedging enabled
//! (`NSX_HEDGE=on`, or [`ThreadedBackend::with_hedge`]), a job whose
//! in-flight latency exceeds a quantile-tracked threshold — a
//! [`P2Quantile`] estimate over completed job latencies, scaled by the
//! policy's factor — is speculatively re-dispatched from its master-side
//! clone and the first answer wins. Both replicas extend identical RNG
//! state, so the race is between bit-identical results: hedging can only
//! ever buy tail latency, never change an answer. `mw.hedge.launched` and
//! `mw.hedge.wins` count launches and races won by the hedge.

use crate::faults::FaultPlan;
use crate::pool::{default_respawn_budget, JobHandle, MwPool, RetryPolicy, WorkerLost};
use crate::resilience::{HedgePolicy, P2Quantile};
use obs::{Counter, Gauge, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::objective::SampleStream;

/// Fallback wake-up bound while a batch is in flight. Batch completion is
/// event-driven — the pool's completion notifier wakes the master the
/// moment any job resolves or a worker dies — so this only bounds how long
/// a *silent* stall (a wedged-but-alive worker) can defer a supervision
/// pass. It is not a completion-latency quantum.
const SUPERVISION_FALLBACK: Duration = Duration::from_millis(100);

/// Ship one extension job to the pool: the stream state moves to a worker,
/// extends there, and is handed back through the job handle.
fn ship_extend<S: SampleStream + 'static>(
    pool: &MwPool,
    mut job: StreamJob<S>,
) -> JobHandle<StreamJob<S>> {
    pool.submit(move |_worker| {
        job.stream.extend(job.dt);
        job
    })
}

/// Registry handles recorded per dispatched batch. Metric names:
/// `mw.backend.batches`, `mw.backend.jobs`, `mw.backend.fanout_nanos`,
/// `mw.backend.batch_size_hwm`, `mw.backend.busy_pct`, plus the
/// fault-tolerance series `mw.retry.attempts`, `mw.retry.timeouts`,
/// `mw.backend.degraded`, and the straggler-hedging series
/// `mw.hedge.launched`, `mw.hedge.wins`.
struct BackendObs {
    batches: Arc<Counter>,
    jobs: Arc<Counter>,
    fanout_nanos: Arc<Counter>,
    batch_size_hwm: Arc<Gauge>,
    busy_pct: Arc<Gauge>,
    retry_attempts: Arc<Counter>,
    retry_timeouts: Arc<Counter>,
    degraded: Arc<Counter>,
    hedge_launched: Arc<Counter>,
    hedge_wins: Arc<Counter>,
}

impl BackendObs {
    fn register(registry: &MetricsRegistry) -> Self {
        BackendObs {
            batches: registry.counter("mw.backend.batches"),
            jobs: registry.counter("mw.backend.jobs"),
            fanout_nanos: registry.counter("mw.backend.fanout_nanos"),
            batch_size_hwm: registry.gauge("mw.backend.batch_size_hwm"),
            busy_pct: registry.gauge("mw.backend.busy_pct"),
            retry_attempts: registry.counter("mw.retry.attempts"),
            retry_timeouts: registry.counter("mw.retry.timeouts"),
            degraded: registry.counter("mw.backend.degraded"),
            hedge_launched: registry.counter("mw.hedge.launched"),
            hedge_wins: registry.counter("mw.hedge.wins"),
        }
    }
}

/// A [`SamplingBackend`] that runs every job of a batch on an [`MwPool`]
/// worker and blocks until the round completes, surviving worker loss (see
/// the module docs for the fault model).
pub struct ThreadedBackend {
    pool: Arc<MwPool>,
    obs: Option<BackendObs>,
    retry: RetryPolicy,
    degraded: AtomicBool,
    /// Straggler-hedging policy (`NSX_HEDGE`, DESIGN.md §16). Off by
    /// default: hedging never changes results (first-wins over bit-identical
    /// replicas), only tail latency, so it is a pure opt-in.
    hedge: HedgePolicy,
    /// Online estimate of the hedge quantile over completed job latencies.
    latency: Mutex<P2Quantile>,
}

/// Worker count for the shared pool: `NSX_WORKERS` if set (≥ 1), otherwise
/// the machine's available hardware parallelism.
pub fn default_workers() -> usize {
    std::env::var("NSX_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

static SHARED: OnceLock<Arc<ThreadedBackend>> = OnceLock::new();

/// One in-flight batch entry: where the result goes, the master-side backup
/// to re-issue from, and the attempt bookkeeping.
struct Pending<S> {
    idx: usize,
    slot: usize,
    dt: f64,
    backup: S,
    handle: JobHandle<StreamJob<S>>,
    attempt: u32,
    /// A speculative second dispatch of the same extension, launched when
    /// the primary overran the hedge threshold. Both replicas extend the
    /// identical RNG state, so whichever answers first is THE result.
    hedge: Option<JobHandle<StreamJob<S>>>,
}

impl ThreadedBackend {
    /// Spawn a dedicated supervised pool of `n_workers` threads for this
    /// backend, with fault injection taken from the `NSX_FAULTS`
    /// environment variable (none when unset).
    pub fn new(n_workers: usize) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::from_env(),
            RetryPolicy::default(),
            default_respawn_budget(n_workers),
            None,
        )
    }

    /// Run batches over an existing pool (no env fault injection — the pool
    /// was configured by its owner).
    pub fn over(pool: Arc<MwPool>) -> Self {
        let hedge = HedgePolicy::from_env();
        ThreadedBackend {
            pool,
            obs: None,
            retry: RetryPolicy::default(),
            degraded: AtomicBool::new(false),
            hedge,
            latency: Mutex::new(P2Quantile::new(hedge.quantile)),
        }
    }

    /// Like [`ThreadedBackend::new`], with per-batch run accounting
    /// mirrored into `registry` (`mw.backend.*`: batches, jobs, fan-out
    /// latency, batch-size high-water mark, worker busy fraction, and the
    /// fault-tolerance counters).
    pub fn with_metrics(n_workers: usize, registry: &MetricsRegistry) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::from_env(),
            RetryPolicy::default(),
            default_respawn_budget(n_workers),
            Some(registry),
        )
    }

    /// Full-control constructor: worker count, programmatic fault plan,
    /// retry policy, worker-respawn budget, and optional metrics registry.
    pub fn with_options(
        n_workers: usize,
        faults: FaultPlan,
        retry: RetryPolicy,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        let hedge = HedgePolicy::from_env();
        ThreadedBackend {
            pool: Arc::new(MwPool::with_options(
                n_workers,
                faults,
                respawn_budget,
                registry,
            )),
            obs: registry.map(BackendObs::register),
            retry,
            degraded: AtomicBool::new(false),
            hedge,
            latency: Mutex::new(P2Quantile::new(hedge.quantile)),
        }
    }

    /// Replace the hedging policy (builder style). The environment default
    /// (`NSX_HEDGE`, off when unset) is read at construction; exhibits and
    /// tests use this to force a specific policy programmatically.
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = hedge;
        self.latency = Mutex::new(P2Quantile::new(hedge.quantile));
        self
    }

    /// The active hedging policy.
    pub fn hedge_policy(&self) -> HedgePolicy {
        self.hedge
    }

    /// The process-wide shared backend, sized by [`default_workers`] on
    /// first use. Engines constructed with an auto-sized threaded backend
    /// all share this pool, so repeated runs do not respawn threads.
    pub fn shared() -> Arc<ThreadedBackend> {
        Arc::clone(SHARED.get_or_init(|| Arc::new(ThreadedBackend::new(default_workers()))))
    }

    /// The underlying worker pool.
    pub fn pool(&self) -> &Arc<MwPool> {
        &self.pool
    }

    /// The backend's retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Record the transition into degraded (inline) execution exactly once.
    fn note_degraded(&self) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            if let Some(o) = &self.obs {
                o.degraded.inc();
            }
        }
    }

    /// Feed a completed job's dispatch-to-result latency to the hedge
    /// quantile estimator (no-op with hedging off).
    fn observe_latency(&self, d: Duration) {
        if !self.hedge.enabled {
            return;
        }
        let mut est = match self.latency.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        est.observe(d.as_secs_f64());
    }

    /// The in-flight age beyond which a job should be hedged *right now*,
    /// from the current quantile estimate; `None` while hedging is off or
    /// the estimator is still warming up.
    fn hedge_after(&self) -> Option<Duration> {
        if !self.hedge.enabled {
            return None;
        }
        let est = match self.latency.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        self.hedge.hedge_after(est.count(), est.estimate())
    }

    /// Re-issue a lost/expired job if attempts and workers remain;
    /// otherwise run it inline (degradation at single-job granularity —
    /// the batch still completes with correct results).
    fn retry_or_inline<S: SampleStream + 'static>(
        &self,
        p: Pending<S>,
        pending: &mut VecDeque<Pending<S>>,
        out: &mut [Option<StreamJob<S>>],
    ) {
        let next_attempt = p.attempt + 1;
        if next_attempt <= self.retry.max_attempts && !self.pool.is_failed() {
            if let Some(o) = &self.obs {
                o.retry_attempts.inc();
            }
            let backoff = self.retry.backoff_before(next_attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            let handle = ship_extend(
                &self.pool,
                StreamJob {
                    slot: p.slot,
                    dt: p.dt,
                    stream: p.backup.clone(),
                },
            );
            // The fresh handle re-anchors the attempt clock at dispatch.
            pending.push_back(Pending {
                handle,
                attempt: next_attempt,
                ..p
            });
        } else {
            let mut stream = p.backup;
            stream.extend(p.dt);
            out[p.idx] = Some(StreamJob {
                slot: p.slot,
                dt: p.dt,
                stream,
            });
        }
    }

    /// Run the whole batch inline (serial fallback).
    fn extend_inline<S: SampleStream>(mut jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        for job in &mut jobs {
            job.stream.extend(job.dt);
        }
        jobs
    }

    fn record_batch(&self, n_jobs: usize, fanout: std::time::Duration) {
        let Some(o) = &self.obs else { return };
        o.batches.inc();
        o.jobs.add(n_jobs as u64);
        o.fanout_nanos.add(fanout.as_nanos() as u64);
        o.batch_size_hwm.record(n_jobs as u64);
        let busy: f64 = self.pool.busy_seconds().iter().sum();
        let idle: f64 = self.pool.idle_seconds().iter().sum();
        if busy + idle > 0.0 {
            o.busy_pct.record((100.0 * busy / (busy + idle)) as u64);
        }
    }
}

impl<S: SampleStream + 'static> SamplingBackend<S> for ThreadedBackend {
    fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        let n = jobs.len();
        let t0 = Instant::now();
        if self.degraded.load(Ordering::SeqCst) || self.pool.is_failed() {
            self.note_degraded();
            let done = Self::extend_inline(jobs);
            self.record_batch(n, t0.elapsed());
            return done;
        }
        // Submit everything before waiting on anything, keeping a
        // master-side backup of each stream; collect in submission order
        // (the seam's ordering contract; completion order is whatever the
        // workers make of it).
        let mut out: Vec<Option<StreamJob<S>>> = (0..n).map(|_| None).collect();
        let mut pending: VecDeque<Pending<S>> = jobs
            .into_iter()
            .enumerate()
            .map(|(idx, job)| Pending {
                idx,
                slot: job.slot,
                dt: job.dt,
                backup: job.stream.clone(),
                handle: ship_extend(&self.pool, job),
                attempt: 1,
                hedge: None,
            })
            .collect();
        while !pending.is_empty() {
            // Snapshot the completion generation BEFORE scanning: a result
            // that lands mid-scan bumps past this snapshot, so the wait at
            // the bottom returns immediately instead of sleeping through
            // the wakeup.
            let seen = self.pool.completion_generation();
            // One hedge-threshold read per scan pass: the estimate moves
            // with completions, not mid-scan.
            let hedge_after = self.hedge_after();
            let mut still: VecDeque<Pending<S>> = VecDeque::with_capacity(pending.len());
            while let Some(mut p) = pending.pop_front() {
                match p.handle.try_recv() {
                    Ok(Some(job)) => {
                        // Primary answered (possibly beating its hedge: the
                        // straggling replica is simply dropped — both carry
                        // identical bits, so first-wins loses nothing).
                        self.observe_latency(p.handle.elapsed());
                        out[p.idx] = Some(job);
                    }
                    Ok(None) => {
                        // A hedge launched earlier may have won the race.
                        if let Some(h) = &p.hedge {
                            match h.try_recv() {
                                Ok(Some(job)) => {
                                    self.observe_latency(h.elapsed());
                                    if let Some(o) = &self.obs {
                                        o.hedge_wins.inc();
                                    }
                                    out[p.idx] = Some(job);
                                    continue;
                                }
                                Ok(None) => {}
                                // A dead hedge is no worse than no hedge.
                                Err(WorkerLost) => p.hedge = None,
                            }
                        }
                        // Attempt age is measured from dispatch (the
                        // handle's clock), not from when this scan happens
                        // to reach the job.
                        if self
                            .retry
                            .timeout
                            .is_some_and(|limit| p.handle.elapsed() >= limit)
                        {
                            // The attempt overran its budget: abandon the
                            // handle (a straggling result is ignored) and
                            // re-issue from the backup.
                            if let Some(o) = &self.obs {
                                o.retry_timeouts.inc();
                            }
                            self.retry_or_inline(p, &mut still, &mut out);
                        } else {
                            // Straggler past the quantile-tracked threshold:
                            // speculatively re-dispatch the identical stream
                            // clone to a second worker (DESIGN.md §16).
                            if p.hedge.is_none()
                                && hedge_after.is_some_and(|after| p.handle.elapsed() >= after)
                            {
                                if let Some(o) = &self.obs {
                                    o.hedge_launched.inc();
                                }
                                p.hedge = Some(ship_extend(
                                    &self.pool,
                                    StreamJob {
                                        slot: p.slot,
                                        dt: p.dt,
                                        stream: p.backup.clone(),
                                    },
                                ));
                            }
                            still.push_back(p);
                        }
                    }
                    Err(WorkerLost) => {
                        // Reap/respawn before re-issuing so the retry lands
                        // on a live worker where possible.
                        self.pool.supervise();
                        if self.pool.is_failed() {
                            self.note_degraded();
                        }
                        if let Some(h) = p.hedge.take() {
                            // The in-flight hedge replica already carries
                            // this extension: promote it to primary instead
                            // of burning a retry attempt.
                            p.handle = h;
                            still.push_back(p);
                        } else {
                            self.retry_or_inline(p, &mut still, &mut out);
                        }
                    }
                }
            }
            pending = still;
            if pending.is_empty() {
                break;
            }
            // A supervision pass each round keeps dead-worker detection
            // bounded even when nothing completes.
            self.pool.supervise();
            if self.pool.is_failed() {
                // Respawn budget exhausted with no live workers: degrade —
                // finish everything still pending inline. Queued handles
                // would error anyway (the failed pool drained them); the
                // backups make the results whole.
                self.note_degraded();
                let mut sink = VecDeque::new();
                while let Some(p) = pending.pop_front() {
                    // is_failed() makes retry_or_inline run inline.
                    self.retry_or_inline(p, &mut sink, &mut out);
                }
                debug_assert!(sink.is_empty(), "failed pool must not re-queue");
                break;
            }
            // Sleep until a completion event, the earliest per-attempt or
            // hedge-launch deadline, or the supervision fallback —
            // whichever is first.
            let mut wait = SUPERVISION_FALLBACK;
            if let Some(limit) = self.retry.timeout {
                for p in &pending {
                    wait = wait.min(limit.saturating_sub(p.handle.elapsed()));
                }
            }
            if let Some(after) = self.hedge_after() {
                for p in pending.iter().filter(|p| p.hedge.is_none()) {
                    wait = wait.min(after.saturating_sub(p.handle.elapsed()));
                }
            }
            if !wait.is_zero() {
                self.pool.wait_for_completion(seen, wait);
            }
        }
        let done: Vec<StreamJob<S>> = out
            .into_iter()
            .map(|o| o.unwrap_or_else(|| panic!("MW backend dropped a batch slot")))
            .collect();
        self.record_batch(n, t0.elapsed());
        done
    }

    fn name(&self) -> &'static str {
        "threaded"
    }

    fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst) || self.pool.is_failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoch_eval::backend::SerialBackend;
    use stoch_eval::functions::Rosenbrock;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::objective::StochasticObjective;
    use stoch_eval::sampler::Noisy;

    fn jobs_at(
        obj: &Noisy<Rosenbrock, ConstantNoise>,
        n: usize,
    ) -> Vec<StreamJob<<Noisy<Rosenbrock, ConstantNoise> as StochasticObjective>::Stream>> {
        (0..n)
            .map(|i| StreamJob {
                slot: i,
                dt: 1.0 + i as f64,
                stream: obj.open(&[i as f64, 0.5], 100 + i as u64),
            })
            .collect()
    }

    fn assert_batches_identical<S: SampleStream>(a: &[StreamJob<S>], b: &[StreamJob<S>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.slot, y.slot);
            assert_eq!(x.dt, y.dt);
            let (ea, eb) = (x.stream.estimate(), y.stream.estimate());
            assert_eq!(ea.value, eb.value);
            assert_eq!(ea.std_err, eb.std_err);
            assert_eq!(ea.time, eb.time);
        }
    }

    #[test]
    fn threaded_matches_serial_bit_for_bit() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(5.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 6));
        let threaded = ThreadedBackend::new(3).extend_batch(jobs_at(&obj, 6));
        assert_batches_identical(&serial, &threaded);
    }

    #[test]
    fn batch_returns_in_submission_order() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let backend = ThreadedBackend::new(4);
        for _ in 0..20 {
            let done = backend.extend_batch(jobs_at(&obj, 8));
            let slots: Vec<usize> = done.iter().map(|j| j.slot).collect();
            assert_eq!(slots, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn retry_recovers_from_worker_death_bit_for_bit() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(3.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 12));
        // Worker 0 dies after one job; supervision respawns it and the lost
        // extension is retried from the master-side backup.
        let backend = ThreadedBackend::with_options(
            2,
            FaultPlan::none().kill(0, 1),
            RetryPolicy::default(),
            default_respawn_budget(2),
            None,
        );
        let threaded = backend.extend_batch(jobs_at(&obj, 12));
        assert_batches_identical(&serial, &threaded);
        assert!(!SamplingBackend::<
            <Noisy<Rosenbrock, ConstantNoise> as StochasticObjective>::Stream,
        >::degraded(&backend));
    }

    #[test]
    fn drop_result_fault_is_retried_identically() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(3.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 8));
        let backend = ThreadedBackend::with_options(
            2,
            FaultPlan::none().drop_result(0, 2),
            RetryPolicy::default(),
            default_respawn_budget(2),
            None,
        );
        let threaded = backend.extend_batch(jobs_at(&obj, 8));
        assert_batches_identical(&serial, &threaded);
    }

    #[test]
    fn exhausted_pool_degrades_to_serial_within_bounded_time() {
        // The sole worker dies immediately and there is no respawn budget:
        // the batch must still complete (inline), promptly, with results
        // identical to the serial backend — and report degradation.
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 6));
        let backend = ThreadedBackend::with_options(
            1,
            FaultPlan::none().kill(0, 0),
            RetryPolicy::default(),
            0,
            Some(&reg),
        );
        let t0 = Instant::now();
        let threaded = backend.extend_batch(jobs_at(&obj, 6));
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "degradation must be bounded, took {:?}",
            t0.elapsed()
        );
        assert_batches_identical(&serial, &threaded);
        assert!(SamplingBackend::<
            <Noisy<Rosenbrock, ConstantNoise> as StochasticObjective>::Stream,
        >::degraded(&backend));
        assert!(reg.counter("mw.backend.degraded").get() >= 1);
        // Later batches keep working, inline.
        let again = backend.extend_batch(jobs_at(&obj, 6));
        assert_batches_identical(&serial, &again);
    }

    #[test]
    fn per_attempt_timeout_fires_and_results_stay_identical() {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 2));
        // Every job on the sole worker is delayed 60ms but the per-attempt
        // budget is 10ms: the master gives up on the straggler, retries,
        // and eventually falls back inline. Slowness must cost time only,
        // never correctness.
        let backend = ThreadedBackend::with_options(
            1,
            FaultPlan::none().delay(0, 0, 60),
            RetryPolicy {
                max_attempts: 2,
                timeout: Some(Duration::from_millis(10)),
                backoff: Duration::ZERO,
            },
            default_respawn_budget(1),
            Some(&reg),
        );
        let threaded = backend.extend_batch(jobs_at(&obj, 2));
        assert_batches_identical(&serial, &threaded);
        assert!(reg.counter("mw.retry.timeouts").get() >= 1);
    }

    #[test]
    fn attempt_deadlines_do_not_fire_on_healthy_runs() {
        // Contract for `mw.retry.timeouts`: the per-attempt clock starts at
        // dispatch and a healthy worker answering within budget must never
        // trip it — regardless of how the master's scan loop is scheduled.
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let backend = ThreadedBackend::with_options(
            2,
            FaultPlan::none(),
            RetryPolicy {
                max_attempts: 4,
                timeout: Some(Duration::from_secs(30)),
                backoff: Duration::ZERO,
            },
            default_respawn_budget(2),
            Some(&reg),
        );
        for _ in 0..5 {
            backend.extend_batch(jobs_at(&obj, 8));
        }
        assert_eq!(reg.counter("mw.retry.timeouts").get(), 0);
        assert_eq!(reg.counter("mw.retry.attempts").get(), 0);
    }

    #[test]
    fn hedged_dispatch_stays_bit_identical_and_records_wins() {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        // Worker 0 sleeps 50ms on every job — a permanent straggler. An
        // aggressive hedge policy re-dispatches its jobs to the healthy
        // worker 1, and every batch must stay bit-identical to serial.
        let backend = ThreadedBackend::with_options(
            2,
            FaultPlan::none().delay(0, 0, 50),
            RetryPolicy::default(),
            default_respawn_budget(2),
            Some(&reg),
        )
        .with_hedge(HedgePolicy::parse("on:q=0.5:factor=1:min_ms=5:warmup=5").unwrap());
        for _ in 0..5 {
            let serial = SerialBackend.extend_batch(jobs_at(&obj, 8));
            let hedged = backend.extend_batch(jobs_at(&obj, 8));
            assert_batches_identical(&serial, &hedged);
        }
        assert!(
            reg.counter("mw.hedge.launched").get() >= 1,
            "straggler never triggered a hedge"
        );
        assert!(
            reg.counter("mw.hedge.wins").get() >= 1,
            "no hedge ever won its race"
        );
        // Hedging is not retrying: a healthy-but-slow worker must not burn
        // retry attempts or timeouts.
        assert_eq!(reg.counter("mw.retry.attempts").get(), 0);
        assert_eq!(reg.counter("mw.retry.timeouts").get(), 0);
    }

    #[test]
    fn metrics_record_batches_and_fanout() {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let backend = ThreadedBackend::with_metrics(2, &reg);
        for _ in 0..3 {
            backend.extend_batch(jobs_at(&obj, 5));
        }
        assert_eq!(reg.counter("mw.backend.batches").get(), 3);
        assert_eq!(reg.counter("mw.backend.jobs").get(), 15);
        assert!(reg.counter("mw.backend.fanout_nanos").get() > 0);
        assert_eq!(reg.gauge("mw.backend.batch_size_hwm").max(), 5);
        // The underlying pool mirrored its own counters too. Under
        // `NSX_FAULTS` chaos runs, retries may add submissions beyond the
        // batch jobs, so this is a floor rather than an exact count.
        assert!(reg.counter("mw.pool.jobs_submitted").get() >= 15);
    }

    #[test]
    fn shared_backend_is_one_pool() {
        let a = ThreadedBackend::shared();
        let b = ThreadedBackend::shared();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.pool().n_workers() >= 1);
    }
}
