//! Force-kernel exhibit (DESIGN.md §10, §15): how much do the O(n)
//! cell-list kernel and the lane-batched SoA kernel buy over the naive
//! O(n²) double loop, and do all kernels agree?
//!
//! For each system size the harness builds a liquid-density TIP4P box,
//! verifies that every production kernel (scalar cell-list, lane-batched
//! `simd`) reproduces the naive forces/energy/virial to 1e-10 relative
//! (both on the fresh configuration and after a short trajectory that
//! exercises stale-list reuse), then times an MD run per kernel and reports
//! ns/step, the measured speedups, rebuild counts, and neighbor statistics.
//!
//! Writes `BENCH_water.json` (with the host's `hardware_threads`). Exits
//! non-zero if any kernel disagrees with the oracle, if the cell list fails
//! to beat the naive kernel at n = 256, or if the simd kernel fails to beat
//! the cell list at n = 512.
//!
//! ```text
//! cargo run --release --bin water_kernel_bench -- [--smoke] [--out <path>]
//! ```

use repro_bench::apply_smoke_defaults;
use water_md::forces::{compute_forces, Forces};
use water_md::integrate::step;
use water_md::kernel::{ForceEngine, ForceKernel, DEFAULT_SKIN};
use water_md::system::System;
use water_md::TIP4P;

/// Liquid water at ambient conditions.
const DENSITY: f64 = 0.997;
const TEMPERATURE: f64 = 300.0;
/// Benchmark cutoff (Å), clamped to the half-box per size. Short enough
/// that the O(n²) sweep — not the in-cutoff force work shared by all
/// kernels — dominates the naive cost at n = 512 (see DESIGN.md §10).
const RC: f64 = 3.0;
const DT_FS: f64 = 1.0;
const EQUIV_TOL: f64 = 1e-10;

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

fn max_rel_err(a: &Forces, b: &Forces) -> f64 {
    let mut worst = rel(a.potential, b.potential).max(rel(a.virial, b.virial));
    for (fa, fb) in a.f.iter().zip(&b.f) {
        for (va, vb) in fa.iter().zip(fb) {
            worst = worst
                .max(rel(va.x, vb.x))
                .max(rel(va.y, vb.y))
                .max(rel(va.z, vb.z));
        }
    }
    worst
}

/// Run `steps` MD steps from `sys0` under `kernel`; return (ns/force-eval,
/// rebuilds, avg neighbors per molecule).
fn time_kernel(kernel: ForceKernel, sys0: &System, rc: f64, steps: u64) -> (f64, u64, f64) {
    let mut sys = sys0.clone();
    let mut engine = ForceEngine::with_skin(kernel, DEFAULT_SKIN);
    let mut f = engine.compute(&sys, rc);
    for _ in 0..steps {
        f = step(&mut sys, &f, DT_FS, rc, &mut engine);
    }
    let s = engine.stats();
    (s.ns_per_eval(), s.rebuilds, engine.avg_neighbors())
}

/// `kernel` vs naive on the fresh lattice, then again after `steps` of MD
/// under that kernel (stale-list reuse + at least one rebuild in the loop).
fn equivalence_err(kernel: ForceKernel, sys0: &System, rc: f64, steps: u64) -> f64 {
    let mut engine = ForceEngine::with_skin(kernel, DEFAULT_SKIN);
    let mut sys = sys0.clone();
    let mut f = engine.compute(&sys, rc);
    let worst = max_rel_err(&f, &compute_forces(&sys, rc));
    for _ in 0..steps {
        f = step(&mut sys, &f, DT_FS, rc, &mut engine);
    }
    worst.max(max_rel_err(&f, &compute_forces(&sys, rc)))
}

struct SizeResult {
    n: usize,
    rc: f64,
    box_len: f64,
    naive_ns_per_step: f64,
    cell_ns_per_step: f64,
    simd_ns_per_step: f64,
    cell_speedup_vs_naive: f64,
    simd_speedup_vs_cell: f64,
    rebuilds: u64,
    avg_neighbors: f64,
    cell_max_rel_err: f64,
    simd_max_rel_err: f64,
}

impl SizeResult {
    fn to_json(&self) -> String {
        format!(
            "  {{\n    \"n\": {},\n    \"rc\": {:.3},\n    \"box_len\": {:.3},\n    \
             \"naive_ns_per_step\": {:.1},\n    \"cell_ns_per_step\": {:.1},\n    \
             \"simd_ns_per_step\": {:.1},\n    \
             \"cell_speedup_vs_naive\": {:.3},\n    \"simd_speedup_vs_cell\": {:.3},\n    \
             \"rebuilds\": {},\n    \"avg_neighbors\": {:.2},\n    \
             \"cell_max_rel_err\": {:.3e},\n    \"simd_max_rel_err\": {:.3e}\n  }}",
            self.n,
            self.rc,
            self.box_len,
            self.naive_ns_per_step,
            self.cell_ns_per_step,
            self.simd_ns_per_step,
            self.cell_speedup_vs_naive,
            self.simd_speedup_vs_cell,
            self.rebuilds,
            self.avg_neighbors,
            self.cell_max_rel_err,
            self.simd_max_rel_err,
        )
    }
}

fn report_json(steps: u64, results: &[SizeResult]) -> String {
    let sizes: Vec<String> = results.iter().map(SizeResult::to_json).collect();
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\n  \"hardware_threads\": {hardware_threads},\n  \
         \"density_g_cm3\": {DENSITY},\n  \"temperature_k\": {TEMPERATURE},\n  \
         \"skin\": {DEFAULT_SKIN},\n  \"dt_fs\": {DT_FS},\n  \"steps\": {steps},\n  \
         \"sizes\": [\n{}\n  ]\n}}\n",
        sizes.join(",\n")
    )
}

fn main() {
    let mut out = std::path::PathBuf::from("BENCH_water.json");
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                apply_smoke_defaults();
                smoke = true;
            }
            "--out" => match args.next() {
                Some(p) => out = p.into(),
                None => {
                    eprintln!("error: --out requires a path argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: water_kernel_bench [--smoke] [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    // Smoke still runs enough steps to leave the near-lattice start-up
    // regime: the first few dozen steps keep molecules close to their
    // ordered initial sites, which flatters the scalar kernel's cache
    // behavior and is not the configuration distribution production runs
    // spend their time in. ~100 steps is past the crossover and still
    // milliseconds per kernel.
    let (sizes, steps): (&[usize], u64) = if smoke {
        (&[64, 256, 512], 100)
    } else {
        (&[64, 256, 512, 1024, 2048], 300)
    };

    println!("water kernel bench: naive O(n\u{b2}) vs cell vs simd (DESIGN.md \u{a7}10, \u{a7}15)");
    let mut results = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let lattice = System::lattice_count(TIP4P, n, DENSITY, TEMPERATURE, 2_000 + n as u64);
        let rc = RC.min(lattice.box_len / 2.0);
        // Equilibrate off the artificial lattice before measuring anything:
        // for the first several dozen steps the molecules sit near their
        // ordered initial sites, a memory-access pattern no production run
        // ever sees again, and one that flatters the scalar kernel's cache
        // behavior. All kernels are then compared on the disordered
        // configuration the trajectory actually spends its time in. The
        // equilibration is deterministic (cell kernel, fixed step count),
        // so the benchmark remains reproducible.
        let sys = {
            let mut s = lattice;
            let mut engine = ForceEngine::with_skin(ForceKernel::CellList, DEFAULT_SKIN);
            let mut f = engine.compute(&s, rc);
            for _ in 0..300 {
                f = step(&mut s, &f, DT_FS, rc, &mut engine);
            }
            s
        };
        let cell_err = equivalence_err(ForceKernel::CellList, &sys, rc, steps.min(50));
        let simd_err = equivalence_err(ForceKernel::Simd, &sys, rc, steps.min(50));
        // Best of three timed runs per kernel: the short smoke runs are
        // only a few ms, and shared-machine scheduler blips of ±15% per
        // run are routine — the minimum is the estimator least distorted
        // by interference, and the speedup gates below compare minima.
        let best = |kernel: ForceKernel, steps: u64| {
            let mut best = time_kernel(kernel, &sys, rc, steps);
            for _ in 0..2 {
                let t = time_kernel(kernel, &sys, rc, steps);
                if t.0 < best.0 {
                    best = t;
                }
            }
            best
        };
        // The O(n²) sweep at n ≥ 1024 takes tens of ms per step; a tenth of
        // the steps still averages hundreds of evals' worth of pair work.
        let naive_steps = if n > 512 { (steps / 10).max(5) } else { steps };
        let (naive_ns, _, _) = best(ForceKernel::Naive, naive_steps);
        let (cell_ns, rebuilds, avg_neighbors) = best(ForceKernel::CellList, steps);
        let (simd_ns, _, _) = best(ForceKernel::Simd, steps);
        let r = SizeResult {
            n,
            rc,
            box_len: sys.box_len,
            naive_ns_per_step: naive_ns,
            cell_ns_per_step: cell_ns,
            simd_ns_per_step: simd_ns,
            cell_speedup_vs_naive: naive_ns / cell_ns.max(1.0),
            simd_speedup_vs_cell: cell_ns / simd_ns.max(1.0),
            rebuilds,
            avg_neighbors,
            cell_max_rel_err: cell_err,
            simd_max_rel_err: simd_err,
        };
        println!(
            "n={:4}: naive {:9.0} cell {:9.0} simd {:9.0} ns/step | \
             cell/naive {:5.2}x, simd/cell {:5.2}x | rebuilds {}, avg nb {:.1}, \
             err c={:.1e} s={:.1e}",
            r.n,
            r.naive_ns_per_step,
            r.cell_ns_per_step,
            r.simd_ns_per_step,
            r.cell_speedup_vs_naive,
            r.simd_speedup_vs_cell,
            r.rebuilds,
            r.avg_neighbors,
            r.cell_max_rel_err,
            r.simd_max_rel_err,
        );
        results.push(r);
    }

    if let Err(e) = std::fs::write(&out, report_json(steps, &results)) {
        eprintln!("error: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("written to {}", out.display());

    let mut ok = true;
    for r in &results {
        let worst = r.cell_max_rel_err.max(r.simd_max_rel_err);
        if worst > EQUIV_TOL {
            eprintln!(
                "error: kernels disagree at n={} (max rel err {:.3e} > {EQUIV_TOL:.0e})",
                r.n, worst
            );
            ok = false;
        }
        if r.n == 256 && r.cell_speedup_vs_naive <= 1.0 {
            eprintln!(
                "error: cell list is not faster than naive at n=256 (speedup {:.3})",
                r.cell_speedup_vs_naive
            );
            ok = false;
        }
        if r.n == 512 && r.simd_speedup_vs_cell <= 1.0 {
            eprintln!(
                "error: simd kernel is not faster than cell at n=512 (speedup {:.3})",
                r.simd_speedup_vs_cell
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
