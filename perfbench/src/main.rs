//! `perfbench` — the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 if any run fails its correctness check and 2 on a
//! usage or environment error.

mod pct;
mod sys;
mod trace;
mod workloads;

use pct::{median, Pct};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{bad_note, same_result, Reference, Rep, Workload, NAMES};

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2011;
/// Repetitions measured even when one outlasts `--seconds`.
const MIN_REPS: usize = 3;
/// Set-up samples per invocation (repetitions plus set-up-only cycles).
const SETUP_SAMPLES: usize = 51;
/// Worker sockets and span files stay inside the working directory.
const TMP_DIR: &str = ".perfbench_tmp";
const OUT_DIR: &str = ".perfbench_out";

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virtual_time", "units"),
];

/// Per-layer metrics: name and unit. Every workload reports all of them;
/// a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("engine.steps", "count"),
    ("engine.self_s", "s"),
    ("engine.self_share", "ratio"),
    ("mw.batches", "count"),
    ("mw.jobs", "count"),
    ("mw.jobs_per_batch", "jobs/batch"),
    ("mw.busy_s", "s"),
    ("mw.batch_p50_us", "us"),
    ("mw.batch_p99_us", "us"),
    ("mw.retries", "count"),
    ("mw.hedges", "count"),
    ("mw.respawns", "count"),
    ("mw.parallel_efficiency", "ratio"),
    ("sampler.extends", "count"),
    ("sampler.samples", "count"),
    ("sampler.compute_s", "s"),
    ("sampler.samples_per_s", "1/s"),
    ("transport.frames_sent", "count"),
    ("transport.frames_received", "count"),
    ("transport.bytes_sent", "bytes"),
    ("transport.bytes_received", "bytes"),
    ("transport.bytes_per_job", "bytes/job"),
    ("transport.overhead_s", "s"),
    ("transport.inline_jobs", "count"),
    ("transport.stale", "count"),
    ("transport.reconnects", "count"),
    ("sched.ticks", "count"),
    ("sched.tick_s", "s"),
    ("sched.self_s", "s"),
    ("sched.tick_p99_us", "us"),
    ("sched.preemptions", "count"),
    ("sched.fleet.dispatches", "count"),
    ("sched.fleet.merged_dispatches", "count"),
    ("sched.jobs_per_dispatch", "jobs/dispatch"),
    ("sched.queue_depth_hwm", "count"),
    ("sched.latency_p50_s", "s"),
    ("sched.latency_p99_s", "s"),
    ("checkpoint.snapshots", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("water.replicas", "count"),
    ("water.replica_ms_p50", "ms"),
    ("water.force_evals", "count"),
    ("water.ns_per_force_eval", "ns"),
    ("water.pairs_per_eval", "count"),
    ("host.cpu_util", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            NAMES.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

/// Correctness counts over every measured run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Check one repetition against the solo serial reference: every run
    /// bit-identical and free of degradation notes; on the process
    /// transport, every job shipped over the wire.
    fn check(&mut self, w: &Workload, reference: &Reference, rep: &Rep) {
        let n = reference.results.len() as u64;
        self.attempted += n;
        if rep.results.len() != reference.results.len() {
            eprintln!(
                "FAIL: {} of {} runs finished",
                rep.results.len(),
                reference.results.len()
            );
            self.failed += n;
            return;
        }
        if w.uses_transport() {
            let c = |k: &str| rep.counters.get(k).copied().unwrap_or(0.0) as u64;
            let inline = c("mw.transport.inline_jobs");
            let sent = c("mw.transport.frames_sent");
            if inline != 0 || sent != reference.jobs {
                eprintln!(
                    "FAIL: transport inline_jobs={inline} frames_sent={sent} jobs={}",
                    reference.jobs
                );
                self.failed += n;
                return;
            }
        }
        for (i, (got, want)) in rep.results.iter().zip(&reference.results).enumerate() {
            if !same_result(got, want) {
                eprintln!("FAIL: run {i} differs from its solo serial execution");
                self.failed += 1;
            } else if let Some(note) = bad_note(got) {
                eprintln!("FAIL: run {i} carries {note:?}");
                self.failed += 1;
            }
        }
    }
}

/// Repeat `f` until `seconds` have passed and at least `min` repetitions
/// ran.
fn repeat_for<T>(seconds: u64, min: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut out = Vec::new();
    while out.len() < min || Instant::now() < deadline {
        out.push(f(out.len()));
    }
    out
}

fn latency_p50(rep: &Rep) -> f64 {
    Pct::of(&rep.latencies).map_or(0.0, |p| p.p50)
}

/// Per-repetition p99 of run latency, when a repetition has enough runs.
fn latency_p99(rep: &Rep) -> Option<f64> {
    Pct::of(&rep.latencies).and_then(|p| p.at(99.0))
}

struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    tally: Tally,
    notes: Vec<String>,
}

fn end_to_end(w: &Workload, a: &Args) -> Outcome {
    let reference = w.reference(false);
    let mut tally = Tally::default();
    let reps = repeat_for(a.seconds, MIN_REPS, |_| {
        let rep = w.rep(false);
        tally.check(w, &reference, &rep);
        rep
    });
    let mut setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setup.len() < SETUP_SAMPLES {
        setup.push(w.setup_only());
    }
    let col = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let virtual_time: f64 = reference.results.iter().map(|r| r.elapsed).sum();
    let values = [
        median(&setup),
        col(|r| r.wall_s),
        col(|r| r.cpu_s),
        sys::peak_rss_mb(),
        virtual_time,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();

    let mut notes = vec![format!("repetitions {} of {} runs", reps.len(), w.runs())];
    let iters: Vec<f64> = reference
        .results
        .iter()
        .map(|r| r.iterations as f64)
        .collect();
    let mut stops: Vec<String> = reference
        .results
        .iter()
        .map(|r| format!("{:?}", r.stop))
        .collect();
    stops.sort();
    stops.dedup();
    notes.push(format!(
        "iterations median {} per run; stop reasons {}; reference jobs {}",
        median(&iters),
        stops.join(","),
        reference.jobs
    ));
    let sol: Vec<f64> = reference
        .results
        .iter()
        .filter_map(|r| w.solution_f(r))
        .collect();
    notes.push(match Pct::of(&sol) {
        Some(p) => format!(
            "solution_f {} value (median noise-free f, n={})",
            p.p50, p.n
        ),
        None => "solution_f n/a (the objective defines no noise-free value)".into(),
    });
    notes.push(format!(
        "latency_p50_s {} s (median over repetitions of the median admit-to-done time)",
        col(latency_p50)
    ));
    let p99: Vec<f64> = reps.iter().filter_map(latency_p99).collect();
    notes.push(if p99.is_empty() {
        format!(
            "latency_p99_s n/a ({} runs per repetition; p99 needs 1000)",
            w.runs()
        )
    } else {
        format!(
            "latency_p99_s {} s (median over repetitions, n={} runs each)",
            median(&p99),
            w.runs()
        )
    });
    Outcome {
        metrics,
        tally,
        notes,
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not exercise).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Look up a span layer's field, 0 when absent.
fn lf(l: &BTreeMap<&'static str, trace::Layer>, name: &str, f: fn(&trace::Layer) -> f64) -> f64 {
    l.get(name).map_or(0.0, f)
}

/// Per-layer metrics of one traced repetition.
fn rep_layers(
    w: &Workload,
    rep: &Rep,
    spans: &[trace::Span],
    replay: &BTreeMap<&'static str, trace::Layer>,
) -> BTreeMap<&'static str, f64> {
    let l = trace::layers(spans);
    let c = |k: &str| rep.counters.get(k).copied().unwrap_or(0.0);
    let workers = w.workers as f64;
    let mut m = BTreeMap::new();

    let engine = |l: &BTreeMap<&'static str, trace::Layer>| {
        lf(l, "engine.step", |x| x.self_s) + lf(l, "engine.construct", |x| x.self_s)
    };
    let (steps, engine_self) = if w.is_service() {
        (c("bench.engine_steps"), engine(replay))
    } else {
        (lf(&l, "engine.step", |x| x.count as f64), engine(&l))
    };
    m.insert("engine.steps", steps);
    m.insert("engine.self_s", engine_self);
    m.insert("engine.self_share", engine_self / rep.wall_s);

    let busy = lf(&l, "mw.batch", |x| x.total_s);
    let batches = c("bench.batches");
    let jobs = c("bench.jobs");
    m.insert("mw.batches", batches);
    m.insert("mw.jobs", jobs);
    m.insert("mw.jobs_per_batch", ratio(jobs, batches));
    m.insert("mw.busy_s", busy);
    let bp = l.get("mw.batch").and_then(|x| Pct::of(&x.durs_s));
    m.insert("mw.batch_p50_us", bp.map_or(0.0, |p| p.p50 * 1e6));
    m.insert(
        "mw.batch_p99_us",
        bp.and_then(|p| p.at(99.0)).map_or(0.0, |v| v * 1e6),
    );
    m.insert("mw.retries", c("mw.retry.attempts"));
    m.insert("mw.hedges", c("mw.hedge.launched"));
    m.insert(
        "mw.respawns",
        c("mw.pool.respawns") + c("mw.transport.reconnects"),
    );
    let compute = lf(replay, "sampler.extend", |x| x.total_s);
    m.insert("mw.parallel_efficiency", ratio(compute, busy * workers));

    for (k, src) in [
        ("transport.frames_sent", "mw.transport.frames_sent"),
        ("transport.frames_received", "mw.transport.frames_received"),
        ("transport.bytes_sent", "mw.transport.bytes_sent"),
        ("transport.bytes_received", "mw.transport.bytes_received"),
        ("transport.inline_jobs", "mw.transport.inline_jobs"),
        ("transport.stale", "mw.transport.stale"),
        ("transport.reconnects", "mw.transport.reconnects"),
    ] {
        m.insert(k, c(src));
    }
    let wire = c("mw.transport.bytes_sent") + c("mw.transport.bytes_received");
    m.insert("transport.bytes_per_job", ratio(wire, jobs));
    m.insert(
        "transport.overhead_s",
        if w.uses_transport() {
            busy - compute / workers
        } else {
            0.0
        },
    );

    let tick_s = lf(&l, "sched.tick", |x| x.total_s);
    m.insert("sched.ticks", lf(&l, "sched.tick", |x| x.count as f64));
    m.insert("sched.tick_s", tick_s);
    m.insert("sched.self_s", lf(&l, "sched.tick", |x| x.self_s));
    let tp = l.get("sched.tick").and_then(|x| Pct::of(&x.durs_s));
    m.insert(
        "sched.tick_p99_us",
        tp.and_then(|p| p.at(99.0)).map_or(0.0, |v| v * 1e6),
    );
    m.insert("sched.preemptions", c("sched.preemptions"));
    let dispatches = c("sched.fleet.dispatches");
    m.insert("sched.fleet.dispatches", dispatches);
    m.insert(
        "sched.fleet.merged_dispatches",
        c("sched.fleet.merged_dispatches"),
    );
    m.insert(
        "sched.jobs_per_dispatch",
        ratio(c("sched.fleet.jobs"), dispatches),
    );
    m.insert("sched.queue_depth_hwm", c("sched.queue_depth_hwm"));
    m.insert("checkpoint.snapshots", c("sched.preemptions"));

    m.insert("trace.wall_s", rep.wall_s);
    let accounted = if w.is_service() {
        tick_s
    } else {
        engine_self + busy
    };
    m.insert("trace.residual_s", rep.wall_s - accounted);
    m
}

fn traced(w: &Workload, a: &Args) -> (Outcome, Vec<trace::Span>) {
    trace::set_enabled(true);
    let reference = w.reference(true);
    let (mut all_spans, replay_counts) = trace::take();
    let replay = trace::layers(&all_spans);
    let probes = w.layer_probes(&reference);
    let (probe_spans, _) = trace::take();
    let probe_layers = trace::layers(&probe_spans);
    all_spans.extend(probe_spans);
    trace::set_enabled(false);

    let mut tally = Tally::default();
    let mut plain: Vec<Rep> = Vec::new();
    let mut per_rep: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    // ABBA order (untraced, traced, traced, untraced, ...), so warm-up and
    // drift fall on both sides of `trace.overhead_frac` alike.
    repeat_for(a.seconds, 2 * MIN_REPS, |i| {
        if (i % 2 == 1) == (i / 2 % 2 == 1) {
            let rep = w.rep(false);
            tally.check(w, &reference, &rep);
            plain.push(rep);
        } else {
            trace::set_enabled(true);
            let rep = w.rep(true);
            trace::set_enabled(false);
            let (spans, _) = trace::take();
            tally.check(w, &reference, &rep);
            per_rep.push(rep_layers(w, &rep, &spans, &replay));
            all_spans.extend(spans);
        }
    });

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, _) in &PER_LAYER {
        let xs: Vec<f64> = per_rep
            .iter()
            .filter_map(|r| r.get(name).copied())
            .collect();
        m.insert(name, median(&xs));
    }
    let extend = replay.get("sampler.extend");
    let compute = extend.map_or(0.0, |x| x.total_s);
    let samples = replay_counts.get("sampler.samples").copied().unwrap_or(0) as f64;
    m.insert("sampler.extends", extend.map_or(0.0, |x| x.count as f64));
    m.insert("sampler.samples", samples);
    m.insert("sampler.compute_s", compute);
    m.insert("sampler.samples_per_s", ratio(samples, compute));

    let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let plain_cpu = median(&plain.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
    m.insert(
        "host.cpu_util",
        plain_cpu / (plain_wall * sys::hardware_threads() as f64),
    );
    m.insert("trace.overhead_frac", m["trace.wall_s"] / plain_wall - 1.0);
    // Median span time of a probe layer, us.
    let us = |name: &str| {
        probe_layers
            .get(name)
            .and_then(|x| Pct::of(&x.durs_s))
            .map_or(0.0, |p| p.p50 * 1e6)
    };
    if w.is_service() {
        let p50: Vec<f64> = plain.iter().map(latency_p50).collect();
        let p99: Vec<f64> = plain.iter().filter_map(latency_p99).collect();
        m.insert("sched.latency_p50_s", median(&p50));
        m.insert("sched.latency_p99_s", median(&p99));
        m.insert("checkpoint.bytes", probes["checkpoint.bytes"]);
        m.insert("checkpoint.encode_us", us("checkpoint.encode"));
        m.insert("checkpoint.decode_us", us("checkpoint.decode"));
    }
    if let Some(&per_replica) = probes.get("water.evals_per_replica") {
        let replicas = m["mw.jobs"];
        m.insert("water.replicas", replicas);
        m.insert(
            "water.replica_ms_p50",
            extend
                .and_then(|x| Pct::of(&x.durs_s))
                .map_or(0.0, |p| p.p50 * 1e3),
        );
        m.insert("water.force_evals", replicas * per_replica);
        m.insert("water.ns_per_force_eval", us("water.force") * 1e3);
        m.insert("water.pairs_per_eval", probes["water.pairs_per_eval"]);
    }

    let metrics = PER_LAYER.iter().map(|&(n, u)| (n, u, m[n])).collect();
    let notes = vec![format!(
        "repetitions {} untraced + {} traced of {} runs; {} spans",
        plain.len(),
        per_rep.len(),
        w.runs(),
        all_spans.len()
    )];
    (
        Outcome {
            metrics,
            tally,
            notes,
        },
        all_spans,
    )
}

/// A JSON number: shortest round-trip form; non-finite values become 0.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(t: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", jnum(*v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        body.join(", ")
    )
}

fn main() {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let forbidden = sys::forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: these change what a workload measures",
            forbidden.join(", ")
        );
        std::process::exit(2);
    }
    for dir in [TMP_DIR, OUT_DIR] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            std::process::exit(2);
        }
    }
    // Worker processes find their rendezvous socket through the temp dir;
    // keep it in the working directory. Set before any thread starts.
    std::env::set_var("TMPDIR", TMP_DIR);

    let hw = sys::hardware_threads();
    let w = Workload::new(&a.workload, a.seed, hw).expect("workload name validated by parse_args");
    let rev = sys::git_revision();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} hardware_threads={hw} workers={hw} git={rev}",
        w.name, a.seed, a.seconds, a.trace as u8
    );

    let (out, spans) = if a.trace {
        traced(&w, &a)
    } else {
        (end_to_end(&w, &a), Vec::new())
    };
    let tag = format!("{}-seed{}-trace{}", w.name, a.seed, a.trace as u8);
    if a.trace {
        let path = std::path::Path::new(OUT_DIR).join(format!("spans-{tag}.tsv"));
        if let Err(e) = trace::write_tsv(&path, &spans) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    for note in &out.notes {
        println!("  {note}");
    }
    let t = &out.tally;
    println!(
        "  failed_frac {} ratio ({} of {} runs)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    for (n, u, v) in &out.metrics {
        println!("  {n} {v} {u}");
    }

    let json = result_line(t, &out.metrics);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"hardware_threads\": {hw}, \"workers\": {hw}, \"git\": \"{rev}\", \"result\": {json}}}\n",
        w.name, a.seed, a.seconds, a.trace as u8
    );
    let path = std::path::Path::new(OUT_DIR).join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{json}");
    if t.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn listed(doc: &Value, key: &str, field: &str) -> Vec<String> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|m| match m.get(field) {
                Some(Value::String(s)) => s.clone(),
                other => panic!("{key} entry without a string `{field}`: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn metric_and_workload_lists_match_benchmark_json() {
        let doc = benchmark_json();
        let pairs = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let zip = |key: &str| -> Vec<(String, String)> {
            listed(&doc, key, "name")
                .into_iter()
                .zip(listed(&doc, key, "unit"))
                .collect()
        };
        assert_eq!(zip("end_to_end"), pairs(&END_TO_END));
        assert_eq!(zip("per_layer"), pairs(&PER_LAYER));
        assert_eq!(listed(&doc, "workloads", "name"), NAMES.to_vec());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let t = Tally {
            attempted: 12,
            failed: 0,
        };
        let line = result_line(&t, &[("wall_s", "s", 1.25), ("setup_s", "s", f64::NAN)]);
        let doc = parse(&line).expect("result line is JSON");
        let keys: Vec<&String> = doc.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(12));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit"), Some(&Value::String("s".into())));
    }

    #[test]
    fn args_parse_with_defaults_and_reject_bad_input() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&["--workload", "service_1k"]).expect("minimal args");
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 10, false));
        let a = args(&[
            "--workload",
            "mn_d50_process",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("full args");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "service_1k", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "service_1k", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "service_1k", "--seed"]).is_err());
        assert!(args(&["--workload", "service_1k", "--bogus"]).is_err());
    }
}
