//! The four workloads, their seeded inputs, and one measured repetition of
//! each through the public API.
//!
//! A workload is one fixed set of runs generated from the workload seed.
//! A repetition sets up the backend (and, for the service, admits every
//! run), drives all runs to their `RunResult`, and tears the backend down.
//! The same runs are also executed solo on the in-process serial backend,
//! outside any timed region, as the correctness reference.

use crate::trace::{self, Draws, Timed, TracedBackend};
use mw_framework::{
    default_respawn_budget, FaultPlan, ProcessBackend, RetryPolicy, ThreadedBackend,
};
use noisy_simplex::config::{MnParams, PcParams, SimplexConfig};
use noisy_simplex::init::random_uniform;
use noisy_simplex::result::{RunNote, RunResult};
use noisy_simplex::session::{Driver, RunSession, SessionStatus};
use noisy_simplex::termination::Termination;
use nsx_sched::{RunSpec, SchedConfig, Scheduler};
use obs::{MetricValue, MetricsRegistry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use stoch_eval::backend::{SamplingBackend, SerialBackend};
use stoch_eval::clock::TimeMode;
use stoch_eval::functions::{Rosenbrock, Sphere};
use stoch_eval::noise::{ConstantNoise, NoiseDistribution};
use stoch_eval::objective::StochasticObjective;
use stoch_eval::rng::child_seed;
use stoch_eval::sampler::{Noisy, NoisyStream};
use water_md::cost::{CostWeights, MdWaterObjective};
use water_md::reference::INITIAL_VERTICES;
use water_md::simulate::MdConfig;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "mn_d50_process",
    "pc_hostile_threaded",
    "service_1k",
    "water_md_threaded",
];

/// Runs per repetition of each workload.
const MN_RUNS: usize = 10;
const PC_RUNS: usize = 24;
const SERVICE_RUNS: usize = 1000;
const WATER_RUNS: usize = 6;

/// Water protocol: a 27-molecule box, short NVT equilibration then NVE
/// production per replica.
const WATER_EQUIL_STEPS: usize = 100;
const WATER_PROD_STEPS: usize = 200;

/// One run's inputs.
pub struct Spec {
    init: Vec<Vec<f64>>,
    term: Termination,
    seed: u64,
    driver: Driver,
    priority: i32,
    weight: f64,
}

/// What one repetition produced.
pub struct Rep {
    /// Backend spawn plus run construction/admission, s.
    pub setup_s: f64,
    /// First step to last `RunResult`, s.
    pub wall_s: f64,
    /// User + system CPU over the whole repetition, workers included, s.
    pub cpu_s: f64,
    /// Per-run admit-to-done latency, s, in run order.
    pub latencies: Vec<f64>,
    /// Results in run order.
    pub results: Vec<RunResult>,
    /// Program counters and wrapper counts, by name.
    pub counters: BTreeMap<String, f64>,
}

/// The solo serial execution of a workload's runs.
pub struct Reference {
    /// Results in run order.
    pub results: Vec<RunResult>,
    /// Sampling jobs the runs submit (identical on every backend).
    pub jobs: u64,
}

/// Shipped defaults for every field the workloads do not name.
fn cfg() -> SimplexConfig {
    SimplexConfig::default()
}

/// Which pool a solo workload dispatches on.
#[derive(Clone, Copy)]
enum Pool {
    Process,
    Threaded,
}

fn threaded(workers: usize, reg: &MetricsRegistry) -> ThreadedBackend {
    ThreadedBackend::with_options(
        workers,
        FaultPlan::none(),
        RetryPolicy::default(),
        default_respawn_budget(workers),
        Some(reg),
    )
}

fn pool_backend<S>(pool: Pool, workers: usize, reg: &MetricsRegistry) -> Arc<dyn SamplingBackend<S>>
where
    S: stoch_eval::objective::SampleStream + 'static,
{
    match pool {
        Pool::Process => Arc::new(ProcessBackend::with_options(
            workers,
            FaultPlan::none(),
            RetryPolicy::default(),
            default_respawn_budget(workers),
            Some(reg),
        )),
        Pool::Threaded => Arc::new(threaded(workers, reg)),
    }
}

fn counters_of(reg: &MetricsRegistry, out: &mut BTreeMap<String, f64>) {
    for (name, v) in reg.snapshot() {
        let x = match v {
            MetricValue::Counter(c) | MetricValue::Gauge(c) => c as f64,
            MetricValue::Time(t) => t,
            MetricValue::Histogram { sum, .. } => sum as f64,
        };
        out.insert(name, x);
    }
}

/// Drive `specs` one after another on `backend`, each to its result.
/// Returns results and admit-to-done latencies measured from `t0`.
fn drive_solo<G: StochasticObjective>(
    obj: &G,
    specs: &[Spec],
    backend: &Arc<dyn SamplingBackend<G::Stream>>,
    t0: Instant,
) -> (Vec<RunResult>, Vec<f64>) {
    let mut results = Vec::with_capacity(specs.len());
    let mut latencies = Vec::with_capacity(specs.len());
    for (i, s) in specs.iter().enumerate() {
        let run = i as u64;
        let mut session = {
            let _g = trace::span("engine.construct", run);
            RunSession::with_backend(
                obj,
                s.init.clone(),
                cfg(),
                s.term,
                TimeMode::Parallel,
                s.seed,
                s.driver,
                Arc::clone(backend),
            )
        };
        loop {
            let status = {
                let _g = trace::span("engine.step", run);
                session.step()
            };
            if status == SessionStatus::Finished {
                break;
            }
        }
        results.push(session.finish());
        latencies.push(t0.elapsed().as_secs_f64());
    }
    (results, latencies)
}

/// Drive `specs` solo on the in-process serial backend, counting jobs.
fn serial_reference<G: StochasticObjective>(obj: &G, specs: &[Spec]) -> Reference {
    let serial = Arc::new(TracedBackend::new(Arc::new(SerialBackend)));
    let backend: Arc<dyn SamplingBackend<G::Stream>> = serial.clone();
    let (results, _) = drive_solo(obj, specs, &backend, Instant::now());
    Reference {
        results,
        jobs: serial.jobs(),
    }
}

/// The solo serial reference; with `timed`, every stream is a
/// [`trace::TimedStream`] so the replay yields the sampler's spans.
fn solo_reference<F: StochasticObjective>(
    obj: &F,
    specs: &[Spec],
    draws: Draws,
    timed: bool,
) -> Reference {
    if timed {
        serial_reference(&Timed { inner: obj, draws }, specs)
    } else {
        serial_reference(obj, specs)
    }
}

/// One repetition of a solo workload: spawn the pool, drive every run in
/// admission order, read the counters, tear the pool down.
fn solo_rep<F: StochasticObjective>(
    obj: &F,
    specs: &[Spec],
    pool: Pool,
    workers: usize,
    traced: bool,
) -> Rep {
    let cpu0 = crate::sys::cpu_s();
    let t0 = Instant::now();
    let reg = MetricsRegistry::new();
    let raw: Arc<dyn SamplingBackend<F::Stream>> = pool_backend(pool, workers, &reg);
    let wrapper = traced.then(|| Arc::new(TracedBackend::new(Arc::clone(&raw))));
    let backend: Arc<dyn SamplingBackend<F::Stream>> = match &wrapper {
        Some(w) => w.clone(),
        None => Arc::clone(&raw),
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (results, latencies) = drive_solo(obj, specs, &backend, t1);
    let wall_s = t1.elapsed().as_secs_f64();
    let mut counters = BTreeMap::new();
    counters_of(&reg, &mut counters);
    if let Some(w) = &wrapper {
        counters.insert("bench.jobs".into(), w.jobs() as f64);
        counters.insert("bench.batches".into(), w.batches() as f64);
    }
    drop((backend, wrapper, raw));
    Rep {
        setup_s,
        wall_s,
        cpu_s: crate::sys::cpu_s() - cpu0,
        latencies,
        results,
        counters,
    }
}

/// Bit-identity of everything a run reports, as the determinism contract
/// promises across backends.
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.best_point.len() == b.best_point.len()
        && a.best_point
            .iter()
            .zip(&b.best_point)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.best_observed.to_bits() == b.best_observed.to_bits()
        && a.elapsed.to_bits() == b.elapsed.to_bits()
        && a.total_sampling.to_bits() == b.total_sampling.to_bits()
        && a.iterations == b.iterations
        && a.stop == b.stop
}

/// Notes that mean a run did not execute as configured.
pub fn bad_note(r: &RunResult) -> Option<RunNote> {
    r.notes.iter().copied().find(|n| {
        matches!(
            n,
            RunNote::DegradedToSerial
                | RunNote::TransportDegraded
                | RunNote::CheckpointFellBack
                | RunNote::Quarantined
        )
    })
}

/// A workload ready to run.
pub struct Workload {
    /// Its name.
    pub name: &'static str,
    kind: Kind,
    specs: Vec<Spec>,
    /// Pool size (hardware threads).
    pub workers: usize,
}

enum Kind {
    Mn(Noisy<Rosenbrock, ConstantNoise>),
    Pc(Noisy<Rosenbrock, ConstantNoise>),
    Service(Noisy<Sphere, ConstantNoise>),
    Water(MdWaterObjective),
}

fn spec(init: Vec<Vec<f64>>, term: Termination, seed: u64, driver: Driver) -> Spec {
    Spec {
        init,
        term,
        seed,
        driver,
        priority: 0,
        weight: 1.0,
    }
}

/// The MD protocol every water replica runs.
pub fn water_md_config() -> MdConfig {
    MdConfig {
        n_side: 3,
        equil_steps: WATER_EQUIL_STEPS,
        prod_steps: WATER_PROD_STEPS,
        ..MdConfig::default()
    }
}

impl Workload {
    /// Build workload `name` from `seed`: every initial simplex, run spec
    /// and RNG seed is derived from it.
    pub fn new(name: &str, seed: u64, workers: usize) -> Option<Workload> {
        let s = |i: u64| child_seed(seed, i);
        let (name, kind, specs) = match name {
            "mn_d50_process" => {
                let obj = Noisy::empirical(Rosenbrock::new(50), ConstantNoise(5.0), 0.02);
                let term = Termination {
                    tolerance: None,
                    max_time: Some(700.0),
                    max_iterations: Some(200),
                };
                let specs = (0..MN_RUNS as u64)
                    .map(|i| {
                        let init = random_uniform(50, -2.0, 2.0, s(2 * i));
                        spec(init, term, s(2 * i + 1), Driver::Mn(MnParams { k: 2.0 }))
                    })
                    .collect();
                (NAMES[0], Kind::Mn(obj), specs)
            }
            "pc_hostile_threaded" => {
                let dist = NoiseDistribution::student_t(3.0).with_contamination(0.05, 20.0);
                let obj =
                    Noisy::new(Rosenbrock::new(2), ConstantNoise(10.0)).with_distribution(dist);
                let term = Termination {
                    tolerance: None,
                    max_time: Some(3.5e5),
                    max_iterations: None,
                };
                let specs = (0..PC_RUNS as u64)
                    .map(|i| {
                        let init = random_uniform(2, -3.0, 3.0, s(2 * i));
                        spec(init, term, s(2 * i + 1), Driver::Pc(PcParams::default()))
                    })
                    .collect();
                (NAMES[1], Kind::Pc(obj), specs)
            }
            "service_1k" => {
                let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
                let term = Termination {
                    tolerance: None,
                    max_time: None,
                    max_iterations: Some(5),
                };
                let specs = (0..SERVICE_RUNS as u64)
                    .map(|i| {
                        let r = s(2 * i + 1);
                        Spec {
                            init: random_uniform(2, -3.0, 3.0, s(2 * i)),
                            term,
                            seed: r,
                            driver: Driver::Det,
                            // Priorities -2..=2 and weights 1..=4, drawn
                            // from the run's own seed.
                            priority: (r % 5) as i32 - 2,
                            weight: 1.0 + ((r >> 8) % 4) as f64,
                        }
                    })
                    .collect();
                (NAMES[2], Kind::Service(obj), specs)
            }
            "water_md_threaded" => {
                let obj = MdWaterObjective {
                    cfg: water_md_config(),
                    weights: CostWeights::default(),
                };
                let term = Termination {
                    tolerance: None,
                    max_time: Some(8.0),
                    max_iterations: Some(10),
                };
                let specs = (0..WATER_RUNS as u64)
                    .map(|i| {
                        // The paper's poor initial simplex (Table 3.4a, the
                        // first four vertices, as the Table 3.4 exhibit
                        // uses). Other four-vertex subsets reflect to
                        // parameters (e.g. sigma 2.57, q_H 0.78) at which
                        // `run_md` panics with "SHAKE failed to converge".
                        let init = INITIAL_VERTICES[..4].iter().map(|v| v.to_vec()).collect();
                        spec(init, term, s(i), Driver::Mn(MnParams { k: 2.0 }))
                    })
                    .collect();
                (NAMES[3], Kind::Water(obj), specs)
            }
            _ => return None,
        };
        Some(Workload {
            name,
            kind,
            specs,
            workers,
        })
    }

    /// Runs per repetition.
    pub fn runs(&self) -> usize {
        self.specs.len()
    }

    /// Whether this workload crosses the process transport.
    pub fn uses_transport(&self) -> bool {
        matches!(self.kind, Kind::Mn(_))
    }

    /// Whether this workload runs through the scheduler.
    pub fn is_service(&self) -> bool {
        matches!(self.kind, Kind::Service(_))
    }

    /// Noise-free objective value at a result's best point, where the
    /// objective defines one.
    pub fn solution_f(&self, r: &RunResult) -> Option<f64> {
        match &self.kind {
            Kind::Mn(o) | Kind::Pc(o) => o.true_value(&r.best_point),
            Kind::Service(o) => o.true_value(&r.best_point),
            Kind::Water(o) => o.true_value(&r.best_point),
        }
    }

    /// The solo serial reference (timed streams when `timed`).
    pub fn reference(&self, timed: bool) -> Reference {
        match &self.kind {
            Kind::Mn(o) => solo_reference(o, &self.specs, Draws::PerSample(0.02), timed),
            Kind::Pc(o) => solo_reference(o, &self.specs, Draws::PerSample(1.0), timed),
            Kind::Service(o) => solo_reference(o, &self.specs, Draws::PerExtend, timed),
            Kind::Water(o) => solo_reference(o, &self.specs, Draws::PerExtend, timed),
        }
    }

    /// One measured repetition.
    pub fn rep(&self, traced: bool) -> Rep {
        match &self.kind {
            Kind::Mn(o) => solo_rep(o, &self.specs, Pool::Process, self.workers, traced),
            Kind::Pc(o) => solo_rep(o, &self.specs, Pool::Threaded, self.workers, traced),
            Kind::Service(o) => service_rep(o, &self.specs, self.workers, traced),
            Kind::Water(o) => solo_rep(o, &self.specs, Pool::Threaded, self.workers, traced),
        }
    }

    /// Set up and tear down once without running anything; returns the
    /// set-up time, s (the same span a repetition reports as `setup_s`).
    pub fn setup_only(&self) -> f64 {
        let t0 = Instant::now();
        let reg = MetricsRegistry::new();
        let setup_s = match &self.kind {
            Kind::Mn(_) => {
                let _pool: Arc<dyn SamplingBackend<NoisyStream>> =
                    pool_backend(Pool::Process, self.workers, &reg);
                t0.elapsed().as_secs_f64()
            }
            Kind::Pc(_) | Kind::Water(_) => {
                let _pool = threaded(self.workers, &reg);
                t0.elapsed().as_secs_f64()
            }
            Kind::Service(o) => {
                let _sched = admit_all(Arc::new(threaded(self.workers, &reg)), o, &self.specs);
                t0.elapsed().as_secs_f64()
            }
        };
        // The pool was torn down at the end of its arm, outside the timing.
        setup_s
    }

    /// Extra traced measurements that need their own replay: checkpoint
    /// encode/decode on the service's runs (checked against `reference`),
    /// the force kernel on water.
    pub fn layer_probes(&self, reference: &Reference) -> BTreeMap<&'static str, f64> {
        match &self.kind {
            Kind::Service(o) => checkpoint_replay(o, &self.specs, &reference.results),
            Kind::Water(o) => water_probe(&o.cfg),
            _ => BTreeMap::new(),
        }
    }
}

/// The service: `Scheduler{width: 4, quantum: 1}` over `inner`, with every
/// run admitted at once (a closed burst).
fn admit_all<'a, F: StochasticObjective>(
    inner: Arc<dyn SamplingBackend<F::Stream>>,
    obj: &'a F,
    specs: &[Spec],
) -> Scheduler<'a, F> {
    let mut sched = Scheduler::new(
        SchedConfig {
            width: 4,
            quantum: 1,
        },
        inner,
    );
    for (i, s) in specs.iter().enumerate() {
        let _g = trace::span("sched.admit", i as u64);
        sched
            .admit(
                RunSpec::new(
                    obj,
                    s.init.clone(),
                    cfg(),
                    s.term,
                    TimeMode::Parallel,
                    s.seed,
                    s.driver,
                )
                .priority(s.priority)
                .weight(s.weight),
            )
            .expect("service runs dispatch on the fleet, never on their own pool");
    }
    sched
}

/// One repetition of the service: every run admitted at once (a closed
/// burst) to `Scheduler{width: 4, quantum: 1}` over a threaded pool.
fn service_rep<F: StochasticObjective>(
    obj: &F,
    specs: &[Spec],
    workers: usize,
    traced: bool,
) -> Rep {
    let cpu0 = crate::sys::cpu_s();
    let t0 = Instant::now();
    let reg = MetricsRegistry::new();
    let raw: Arc<dyn SamplingBackend<F::Stream>> = Arc::new(threaded(workers, &reg));
    let wrapper = traced.then(|| Arc::new(TracedBackend::new(Arc::clone(&raw))));
    let inner: Arc<dyn SamplingBackend<F::Stream>> = match &wrapper {
        Some(w) => w.clone(),
        None => Arc::clone(&raw),
    };
    let mut sched = admit_all(inner, obj, specs);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut done_at = vec![0.0; specs.len()];
    let mut open: Vec<usize> = (0..specs.len()).collect();
    loop {
        let more = {
            let g = trace::span("sched.tick", 0);
            trace::set_ambient(g.as_ref().map(|g| g.id()));
            let more = sched.tick();
            trace::set_ambient(None);
            more
        };
        let now = t1.elapsed().as_secs_f64();
        open.retain(|&i| {
            let finished = sched.result(i as u64).is_some();
            if finished {
                done_at[i] = now;
            }
            !finished
        });
        if !more {
            break;
        }
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let mut counters = BTreeMap::new();
    counters_of(&reg, &mut counters);
    counters_of(sched.service_registry(), &mut counters);
    let rounds: u64 = (0..specs.len() as u64)
        .filter_map(|i| sched.run_registry(i))
        .map(|r| r.counter("sched.run.rounds").get())
        .sum();
    counters.insert("bench.engine_steps".into(), rounds as f64);
    if let Some(w) = &wrapper {
        counters.insert("bench.jobs".into(), w.jobs() as f64);
        counters.insert("bench.batches".into(), w.batches() as f64);
    }
    let mut results: Vec<(u64, RunResult)> = sched.into_results();
    results.sort_by_key(|(id, _)| *id);
    drop((wrapper, raw));
    Rep {
        setup_s,
        wall_s,
        cpu_s: crate::sys::cpu_s() - cpu0,
        latencies: done_at,
        results: results.into_iter().map(|(_, r)| r).collect(),
        counters,
    }
}

/// Replay every service run serially, suspending it to checkpoint bytes
/// and resuming it after every step, as the scheduler does under
/// contention. Times `RunSession::snapshot` and `resume_with_backend`.
/// Panics if a replayed run differs from its solo execution.
fn checkpoint_replay<F: StochasticObjective>(
    obj: &F,
    specs: &[Spec],
    solo: &[RunResult],
) -> BTreeMap<&'static str, f64> {
    let serial: Arc<dyn SamplingBackend<F::Stream>> = Arc::new(SerialBackend);
    let mut bytes = 0u64;
    let mut snaps = 0u64;
    for (i, s) in specs.iter().enumerate() {
        let run = i as u64;
        let mut session = RunSession::with_backend(
            obj,
            s.init.clone(),
            cfg(),
            s.term,
            TimeMode::Parallel,
            s.seed,
            s.driver,
            Arc::clone(&serial),
        );
        while session.step() == SessionStatus::Running {
            let payload = {
                let _g = trace::span("checkpoint.encode", run);
                session
                    .snapshot()
                    .expect("Gaussian oracle streams save their state")
            };
            snaps += 1;
            bytes += payload.len() as u64;
            let _g = trace::span("checkpoint.decode", run);
            session = RunSession::resume_with_backend(
                obj,
                cfg(),
                &payload,
                None,
                s.driver,
                Arc::clone(&serial),
            )
            .expect("an in-memory snapshot resumes");
        }
        assert!(
            same_result(&solo[i], &session.finish()),
            "run {i}: snapshot/resume changed the result"
        );
    }
    let mut out = BTreeMap::new();
    out.insert(
        "checkpoint.bytes",
        if snaps > 0 {
            bytes as f64 / snaps as f64
        } else {
            0.0
        },
    );
    out
}

/// Time `ForceEngine::compute` (`water.force` spans) on the workload's box
/// after a short equilibration, and read the kernel's own pair counts.
fn water_probe(cfg: &MdConfig) -> BTreeMap<&'static str, f64> {
    use water_md::integrate::step;
    use water_md::kernel::ForceEngine;
    use water_md::model::WaterModel;
    use water_md::system::System;
    const WARM_STEPS: usize = 50;
    const PROBE_EVALS: usize = 400;
    let p = INITIAL_VERTICES[0];
    let model = WaterModel::with_params(p[0], p[1], p[2]);
    let mut sys = System::lattice(model, cfg.n_side, cfg.density, cfg.temperature, cfg.seed);
    let rc = sys.box_len / 2.0;
    let mut engine = ForceEngine::new(cfg.kernel);
    let mut f = engine.compute(&sys, rc);
    for _ in 0..WARM_STEPS {
        f = step(&mut sys, &f, cfg.dt, rc, &mut engine);
    }
    for _ in 0..PROBE_EVALS {
        let _g = trace::span("water.force", 0);
        std::hint::black_box(engine.compute(&sys, rc));
    }
    let stats = *engine.stats();
    let mut out = BTreeMap::new();
    let rebuilds = stats.rebuilds.max(1);
    out.insert(
        "water.pairs_per_eval",
        stats.pair_sum as f64 / rebuilds as f64,
    );
    out.insert(
        "water.evals_per_replica",
        (1 + cfg.equil_steps + cfg.prod_steps) as f64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrappers (traced backend, step spans, timed streams) must
    /// not change a single bit of any workload's results.
    #[test]
    fn wrappers_leave_every_workload_bit_identical() {
        for name in NAMES {
            let mut w = Workload::new(name, 7, 2).expect("known workload");
            // The first few runs keep the test short; the service keeps
            // enough runs to contend for its width of four.
            w.specs.truncate(if w.is_service() { 40 } else { 2 });
            let plain = w.rep(false);
            let plain_ref = w.reference(false);
            trace::set_enabled(true);
            let traced = w.rep(true);
            let timed_ref = w.reference(true);
            trace::set_enabled(false);
            let (spans, counts) = trace::take();
            assert!(!spans.is_empty(), "{name}: no spans recorded");
            assert!(counts["sampler.samples"] > 0, "{name}: no samples counted");
            assert_eq!(plain.results.len(), w.specs.len(), "{name}");
            for (i, p) in plain.results.iter().enumerate() {
                assert!(
                    same_result(p, &plain_ref.results[i]),
                    "{name} run {i}: pool vs serial"
                );
                assert!(
                    same_result(p, &traced.results[i]),
                    "{name} run {i}: traced rep"
                );
                assert!(
                    same_result(p, &timed_ref.results[i]),
                    "{name} run {i}: timed streams"
                );
                assert!(bad_note(p).is_none(), "{name} run {i}: {:?}", p.notes);
            }
            assert_eq!(plain_ref.jobs, timed_ref.jobs, "{name}: job count");
            if w.uses_transport() {
                let c = |k: &str| plain.counters[k] as u64;
                assert_eq!(c("mw.transport.inline_jobs"), 0, "{name}");
                assert_eq!(c("mw.transport.frames_sent"), plain_ref.jobs, "{name}");
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in NAMES {
            let a = Workload::new(name, 3, 2).expect("known workload");
            let b = Workload::new(name, 3, 2).expect("known workload");
            let c = Workload::new(name, 4, 2).expect("known workload");
            let key = |w: &Workload| {
                w.specs
                    .iter()
                    .map(|s| (s.init.clone(), s.seed, s.priority, s.weight.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert!(key(&a) == key(&b), "{name}: same seed, different inputs");
            assert!(key(&a) != key(&c), "{name}: seed does not reach the inputs");
        }
    }
}
