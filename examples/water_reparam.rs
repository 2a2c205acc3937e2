//! The paper's application (§3.5): automated reparameterization of the
//! TIP4P water model against six experimental targets.
//!
//! Runs the fast surrogate objective with MN, PC, and PC+MN from the
//! paper's poor starting vertices, then validates the winning parameters by
//! running the *real* molecular-dynamics engine once at those parameters.
//!
//! ```sh
//! cargo run --release --example water_reparam
//! ```

use noisy_simplex::prelude::*;
use water_md::cost::WaterObjective;
use water_md::reference::{Experiment, INITIAL_VERTICES};
use water_md::simulate::{run_md, MdConfig};
use water_md::surrogate::SurrogateWater;
use water_md::WaterModel;

fn main() {
    let objective = WaterObjective::new(SurrogateWater);
    let init: Vec<Vec<f64>> = INITIAL_VERTICES[..4].iter().map(|v| v.to_vec()).collect();
    let term = Termination {
        tolerance: Some(1e-4),
        max_time: Some(2e5),
        max_iterations: Some(10_000),
    };

    println!("initial vertices (eps, sigma, qH):");
    for v in &init {
        println!(
            "  ({:.4}, {:.3}, {:.3})  cost {:.3}",
            v[0],
            v[1],
            v[2],
            objective.true_cost(&[v[0], v[1], v[2]])
        );
    }
    println!(
        "published TIP4P cost: {:.4}\n",
        objective.true_cost(&[0.1550, 3.1540, 0.5200])
    );

    let mut best: Option<(String, Vec<f64>, f64)> = None;
    let methods: [(&str, SimplexMethod); 3] = [
        ("MN   ", SimplexMethod::Mn(MaxNoise::with_k(2.0))),
        ("PC   ", SimplexMethod::Pc(PointComparison::new())),
        ("PC+MN", SimplexMethod::PcMn(PcMn::new())),
    ];
    for (name, method) in methods {
        let res = method.run(&objective, init.clone(), term, TimeMode::Parallel, 11);
        let cost = objective.true_cost(&[res.best_point[0], res.best_point[1], res.best_point[2]]);
        println!(
            "{name}: {} steps -> eps={:.4} sigma={:.4} qH={:.4}  cost {:.4}",
            res.iterations, res.best_point[0], res.best_point[1], res.best_point[2], cost
        );
        if best.as_ref().map(|(_, _, c)| cost < *c).unwrap_or(true) {
            best = Some((name.trim().to_string(), res.best_point.clone(), cost));
        }
    }

    let (name, p, cost) = best.unwrap();
    println!("\nbest model ({name}, surrogate cost {cost:.4}); validating with real MD...");
    let model = WaterModel::with_params(p[0], p[1], p[2]);
    let cfg = MdConfig {
        n_side: 3,
        equil_steps: 400,
        prod_steps: 1_500,
        sample_every: 10,
        ..MdConfig::default()
    };
    let props = match run_md(model, &cfg) {
        Ok(props) => props,
        Err(e) => {
            println!("  MD diverged: {e}");
            return;
        }
    };
    println!(
        "  MD (27 molecules, {} fs production):",
        props.production_fs
    );
    println!(
        "  U = {:.1} kJ/mol (exp {:.1})   P = {:.0} atm (exp {:.0})   D = {:.2e} cm2/s (exp 2.27e-5)",
        props.energy_kj_mol.mean,
        Experiment::U,
        props.pressure_atm.mean,
        Experiment::P,
        props.diffusion_cm2_s,
    );
    let (rs, gs) = &props.g_oo;
    let peak = rs
        .iter()
        .zip(gs)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "  first gOO peak at {:.2} A, height {:.2} (experiment: 2.73 A, ~2.8)",
        peak.0, peak.1
    );

    // Dump a short viewable trajectory of the optimized model.
    use water_md::integrate::step;
    use water_md::kernel::ForceEngine;
    use water_md::system::System;
    use water_md::trajectory::XyzWriter;
    let mut sys = System::lattice(model, 3, 0.997, 298.0, 7);
    let rc = sys.box_len / 2.0;
    let mut engine = ForceEngine::from_env();
    let mut f = engine.compute(&sys, rc);
    if let Ok(file) = std::fs::File::create("results/optimized_water.xyz") {
        let mut xyz = XyzWriter::new(std::io::BufWriter::new(file));
        for frame in 0..20 {
            for _ in 0..25 {
                f = step(&mut sys, &f, 1.0, rc, &mut engine);
            }
            let _ = xyz.write_frame(&sys, (frame + 1) as f64 * 25.0);
        }
        let n = xyz.frames();
        let _ = xyz.finish();
        println!("  wrote {n}-frame trajectory to results/optimized_water.xyz");
    }
}
