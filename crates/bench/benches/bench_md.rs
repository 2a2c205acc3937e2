//! Criterion micro-benchmarks for the MD substrate: the pair-force loop
//! (naive oracle vs cell-list kernel) and a full velocity-Verlet+SHAKE step
//! at two system sizes from the lattice start, plus the step and its
//! constraint phase alone on an equilibrated box (the lattice start needs
//! few constraint sweeps, an equilibrated liquid ~30 per molecule).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use water_md::forces::compute_forces;
use water_md::integrate::{drift_and_shake, kick_and_rattle, rescale_to, step};
use water_md::kernel::{ForceEngine, ForceKernel};
use water_md::model::TIP4P;
use water_md::system::System;

fn bench_md(c: &mut Criterion) {
    for n_side in [3usize, 4] {
        let sys = System::lattice(TIP4P, n_side, 0.997, 298.0, 1);
        let rc = sys.box_len / 2.0;
        let n = sys.n_molecules();
        c.bench_function(&format!("compute_forces_n{n}"), |b| {
            b.iter(|| black_box(compute_forces(black_box(&sys), rc)))
        });
        c.bench_function(&format!("cell_list_forces_n{n}"), |b| {
            let mut engine = ForceEngine::new(ForceKernel::CellList);
            b.iter(|| black_box(engine.compute(black_box(&sys), rc)))
        });
        c.bench_function(&format!("md_step_n{n}"), |b| {
            let mut sys2 = sys.clone();
            let mut engine = ForceEngine::new(ForceKernel::CellList);
            let mut f = engine.compute(&sys2, rc);
            b.iter(|| {
                f = step(&mut sys2, &f, 1.0, rc, &mut engine);
                black_box(f.potential)
            })
        });
    }

    // The MD replica's own protocol: 100 NVT steps, rescaled every fifth.
    let mut sys = System::lattice(TIP4P, 3, 0.997, 298.0, 1);
    let rc = sys.box_len / 2.0;
    let n = sys.n_molecules();
    let mut engine = ForceEngine::new(ForceKernel::CellList);
    let mut f = engine.compute(&sys, rc);
    for i in 0..100 {
        f = step(&mut sys, &f, 1.0, rc, &mut engine);
        if i % 5 == 0 {
            rescale_to(&mut sys, 298.0);
        }
    }
    c.bench_function(&format!("md_step_equil_n{n}"), |b| {
        let mut sys2 = sys.clone();
        let mut engine = ForceEngine::new(ForceKernel::CellList);
        let mut f = engine.compute(&sys2, rc);
        b.iter(|| {
            f = step(&mut sys2, &f, 1.0, rc, &mut engine);
            black_box(f.potential)
        })
    });
    // Half-kick + drift + SHAKE, then half-kick + RATTLE, with no force
    // evaluation between: the constraint phase of one step.
    c.bench_function(&format!("constraints_equil_n{n}"), |b| {
        b.iter_batched(
            || sys.clone(),
            |mut s| {
                drift_and_shake(&mut s, &f, 1.0).expect("equilibrated box stays rigid");
                kick_and_rattle(&mut s, &f, 1.0).expect("equilibrated box stays rigid");
                s
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_md
);
criterion_main!(benches);
