//! NPT equilibration: a Berendsen barostat on top of the NVT protocol.
//!
//! The paper fits ⟨P⟩ at fixed experimental density and finds every model
//! hundreds of atmospheres off (Table 3.4) — the natural follow-up (and a
//! standard MD capability) is to let the box relax to a target pressure.
//! Rigid molecules are scaled by their centers of mass so constraints are
//! never violated by the box move.

use crate::integrate::{rescale_to, step, temperature};
use crate::kernel::ForceEngine;
use crate::properties::pressure_atm;
use crate::system::{System, MASSES};
use crate::vec3::Vec3;

/// Berendsen barostat parameters.
#[derive(Debug, Clone, Copy)]
pub struct Barostat {
    /// Target pressure, atm.
    pub target_atm: f64,
    /// Coupling time constant, fs (larger = gentler).
    pub tau_fs: f64,
    /// Isothermal compressibility × pressure unit, 1/atm (water ≈ 4.5e−5).
    pub compressibility: f64,
    /// Per-step clamp on the linear scale factor (guards against shocks
    /// from noisy instantaneous pressure).
    pub max_scaling: f64,
}

impl Default for Barostat {
    fn default() -> Self {
        Barostat {
            target_atm: 1.0,
            tau_fs: 500.0,
            compressibility: 4.5e-5,
            max_scaling: 0.02,
        }
    }
}

impl Barostat {
    /// The linear box-scaling factor for one step of length `dt` at
    /// instantaneous pressure `p_atm`.
    pub fn scale_factor(&self, p_atm: f64, dt: f64) -> f64 {
        let mu3 = 1.0 - self.compressibility * dt / self.tau_fs * (self.target_atm - p_atm);
        let mu = mu3.max(0.1).cbrt();
        mu.clamp(1.0 - self.max_scaling, 1.0 + self.max_scaling)
    }
}

/// Center of mass of one molecule.
fn center_of_mass(r: &[Vec3; 3]) -> Vec3 {
    let m_tot: f64 = MASSES.iter().sum();
    (r[0] * MASSES[0] + r[1] * MASSES[1] + r[2] * MASSES[2]) / m_tot
}

/// Apply one barostat box move: scale the box and every molecular center of
/// mass by `mu`, translating molecules rigidly (bond geometry untouched).
pub fn scale_box(sys: &mut System, mu: f64) {
    assert!(mu > 0.0);
    sys.box_len *= mu;
    for mol in &mut sys.molecules {
        let com = center_of_mass(&mol.r);
        let shift = com * (mu - 1.0);
        for r in &mut mol.r {
            *r += shift;
        }
    }
}

/// Result of an NPT equilibration.
#[derive(Debug, Clone)]
pub struct NptResult {
    /// Final box edge, Å.
    pub box_len: f64,
    /// Final mass density, g/cm³.
    pub density_g_cm3: f64,
    /// Mean pressure over the final quarter of the run, atm.
    pub mean_pressure_atm: f64,
    /// (step, box_len) trace.
    pub box_trace: Vec<(usize, f64)>,
}

/// Run `steps` of NPT dynamics (velocity rescale thermostat + Berendsen
/// barostat) at temperature `t_target` K, with the force kernel taken from
/// `NSX_FORCE_KERNEL`.
pub fn equilibrate_npt(
    sys: &mut System,
    barostat: &Barostat,
    t_target: f64,
    dt: f64,
    steps: usize,
) -> NptResult {
    equilibrate_npt_with(
        sys,
        barostat,
        t_target,
        dt,
        steps,
        &mut ForceEngine::from_env(),
    )
}

/// [`equilibrate_npt`] driving a caller-supplied [`ForceEngine`], so a
/// pre-configured kernel (explicit skin, simd) is not silently overridden by
/// the environment default, and
/// the engine's stats/list survive for the caller to inspect or reuse.
pub fn equilibrate_npt_with(
    sys: &mut System,
    barostat: &Barostat,
    t_target: f64,
    dt: f64,
    steps: usize,
    engine: &mut ForceEngine,
) -> NptResult {
    use crate::units::WATER_MOLAR_MASS;
    let mut box_trace = Vec::with_capacity(steps / 10 + 1);
    let mut p_tail = Vec::new();
    let mut f = engine.compute(sys, sys.box_len / 2.0);
    for i in 0..steps {
        let rc = sys.box_len / 2.0;
        f = step(sys, &f, dt, rc, engine);
        if i % 5 == 0 {
            rescale_to(sys, t_target);
        }
        let t_inst = temperature(sys);
        let p_inst = pressure_atm(sys, t_inst, f.virial);
        let mu = barostat.scale_factor(p_inst, dt);
        scale_box(sys, mu);
        // The rescale moved every molecule and changed rc for the next
        // step; the engine's box-length key would catch this, but make the
        // invalidation explicit rather than relying on the cache heuristic.
        engine.invalidate();
        if i % 10 == 0 {
            box_trace.push((i, sys.box_len));
        }
        if i >= steps - steps / 4 {
            p_tail.push(p_inst);
        }
    }
    let n = sys.n_molecules() as f64;
    let density = n * WATER_MOLAR_MASS / 0.602_214_076 / sys.volume();
    NptResult {
        box_len: sys.box_len,
        density_g_cm3: density,
        mean_pressure_atm: p_tail.iter().sum::<f64>() / p_tail.len().max(1) as f64,
        box_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TIP4P;

    #[test]
    fn scale_factor_direction_and_clamp() {
        let b = Barostat::default();
        // Over-pressurized: box should grow (mu > 1).
        assert!(b.scale_factor(10_000.0, 1.0) > 1.0);
        // Under-pressurized (tension): box should shrink.
        assert!(b.scale_factor(-10_000.0, 1.0) < 1.0);
        // At target: unity.
        assert!((b.scale_factor(1.0, 1.0) - 1.0).abs() < 1e-12);
        // Extreme pressure is clamped.
        assert!(b.scale_factor(1e12, 1.0) <= 1.0 + b.max_scaling);
        assert!(b.scale_factor(-1e12, 1.0) >= 1.0 - b.max_scaling);
    }

    #[test]
    fn box_scaling_preserves_rigid_geometry() {
        let mut sys = System::lattice(TIP4P, 2, 0.997, 298.0, 1);
        let l0 = sys.box_len;
        scale_box(&mut sys, 1.05);
        assert!((sys.box_len - 1.05 * l0).abs() < 1e-12);
        assert!(sys.constraints_satisfied(1e-9), "bond lengths changed");
        scale_box(&mut sys, 1.0 / 1.05);
        assert!((sys.box_len - l0).abs() < 1e-9);
    }

    #[test]
    fn box_scaling_scales_centers_of_mass() {
        let mut sys = System::lattice(TIP4P, 2, 0.997, 298.0, 2);
        let com0 = center_of_mass(&sys.molecules[3].r);
        scale_box(&mut sys, 1.1);
        let com1 = center_of_mass(&sys.molecules[3].r);
        assert!((com1 - com0 * 1.1).norm() < 1e-9);
    }

    #[test]
    fn compressed_box_expands_under_npt() {
        // Start 30% over-dense: the virial pressure is strongly positive,
        // so the barostat must expand the box.
        let mut sys = System::lattice(TIP4P, 2, 1.3, 298.0, 3);
        let l0 = sys.box_len;
        let res = equilibrate_npt(&mut sys, &Barostat::default(), 298.0, 1.0, 300);
        assert!(
            res.box_len > l0,
            "box did not expand: {} -> {}",
            l0,
            res.box_len
        );
        assert!(res.density_g_cm3 < 1.3);
        assert!(sys.constraints_satisfied(1e-5));
        assert!(res.box_trace.len() >= 30);
    }

    #[test]
    fn injected_engine_is_used_and_keeps_its_stats() {
        // equilibrate_npt_with must drive the caller's engine (not a fresh
        // from_env one): its eval/rebuild counters advance, and the
        // repeated box rescales force a rebuild per step.
        let mut sys = System::lattice(TIP4P, 2, 1.1, 298.0, 4);
        let mut engine = crate::kernel::ForceEngine::new(crate::kernel::ForceKernel::Simd);
        let steps = 40;
        let res = equilibrate_npt_with(
            &mut sys,
            &Barostat::default(),
            298.0,
            1.0,
            steps,
            &mut engine,
        );
        assert!(res.box_len > 0.0);
        assert!(engine.stats().evals >= steps as u64);
        assert!(engine.stats().rebuilds >= steps as u64);
        assert!(engine.stats().lanes > 0, "simd path should have run");
        assert!(sys.constraints_satisfied(1e-5));
    }
}
