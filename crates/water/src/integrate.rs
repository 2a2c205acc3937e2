//! Velocity-Verlet integration with SHAKE/RATTLE rigid-body constraints and
//! a velocity-rescale thermostat.
//!
//! Each water molecule carries three holonomic constraints (two O–H bonds
//! and the H–H distance), keeping the TIP4P geometry exactly rigid. SHAKE
//! corrects positions after the drift step; RATTLE projects constraint-
//! violating components out of the velocities after the second half-kick.
//!
//! Both solvers are Gauss–Seidel sweeps, and one sweep of one molecule is
//! a serial chain of three corrections, each with a division. Solving the
//! molecules one after another leaves the core waiting on that latency, so
//! the constraint phase packs the molecules into lane groups of four
//! ([`F64x4`] per coordinate) and runs one sweep loop over all of them: a
//! sweep applies constraint 0 to every group with a lane still active, then
//! constraint 1, then constraint 2. Each lane carries its own active flag
//! and retires after its first sweep in which no constraint needed a
//! correction — the scalar solver's `done` rule. Corrections are applied
//! through a lane mask, so a lane that needs none (or has retired) keeps
//! its bits, and every lane executes exactly the scalar per-molecule
//! operation sequence: same `diff`, `denom`, `g`, same correction order,
//! tolerance test and sweep limit. Trajectories are therefore
//! bit-identical to solving molecule by molecule (the `#[cfg(test)]`
//! oracle below checks this bit for bit).

use std::fmt;

use crate::forces::Forces;
use crate::kernel::ForceEngine;
use crate::model::WaterModel;
use crate::system::{System, MASSES};
use crate::units::{KB, KCAL_ACC, KE_TO_KCAL};
use crate::vec3::{F64x4, Vec3};

/// SHAKE/RATTLE convergence tolerance (relative, on squared distances).
const SHAKE_TOL: f64 = 1e-10;
/// Maximum SHAKE/RATTLE sweeps per step.
const SHAKE_MAX_ITERS: usize = 500;
/// Molecules per lane group.
const LANES: usize = 4;

/// A constraint solver ran out of sweeps: the step could not keep every
/// molecule rigid (a timestep too large for the forces, or parameters far
/// from physical water). After a failed [`try_step`] the system may be
/// left mid-step and should be discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintError {
    /// SHAKE (positions) failed; `molecule` is the lowest-index molecule
    /// still unconverged after the last sweep.
    Shake {
        /// Index of the molecule.
        molecule: usize,
    },
    /// RATTLE (velocities) failed; `molecule` as for [`Self::Shake`].
    Rattle {
        /// Index of the molecule.
        molecule: usize,
    },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::Shake { molecule } => write!(
                f,
                "SHAKE failed to converge for molecule {molecule} within \
                 {SHAKE_MAX_ITERS} sweeps — timestep too large?"
            ),
            ConstraintError::Rattle { molecule } => write!(
                f,
                "RATTLE failed to converge for molecule {molecule} within \
                 {SHAKE_MAX_ITERS} sweeps"
            ),
        }
    }
}

impl std::error::Error for ConstraintError {}

/// One rigid constraint between sites `i` and `j` at distance `d`, with the
/// scalar update's per-constraint factors hoisted. Each is computed by the
/// exact expression the per-molecule solver evaluates inline, so hoisting
/// changes no bit.
#[derive(Debug, Clone, Copy)]
struct Constraint {
    i: usize,
    j: usize,
    /// `d * d`.
    d2: f64,
    /// `SHAKE_TOL * d * d`.
    tol: f64,
    /// `1 / m_i`, `1 / m_j`.
    inv_mi: f64,
    inv_mj: f64,
    /// SHAKE's `2 (1/m_i + 1/m_j)`.
    shake_den: f64,
    /// RATTLE's `d * d * (1/m_i + 1/m_j)`.
    rattle_den: f64,
}

/// The three rigid constraints of a water molecule: O–H1, O–H2, H1–H2, in
/// the order every sweep visits them.
fn constraints(model: &WaterModel) -> [Constraint; 3] {
    let d_oh = model.r_oh;
    let d_hh = model.r_hh();
    [(0, 1, d_oh), (0, 2, d_oh), (1, 2, d_hh)].map(|(i, j, d)| {
        let inv_mi = 1.0 / MASSES[i];
        let inv_mj = 1.0 / MASSES[j];
        Constraint {
            i,
            j,
            d2: d * d,
            tol: SHAKE_TOL * d * d,
            inv_mi,
            inv_mj,
            shake_den: 2.0 * (inv_mi + inv_mj),
            rattle_den: d * d * (inv_mi + inv_mj),
        }
    })
}

/// Half-kick velocity factors `dt/2 · a-per-force` for sites `[O, H, H]`.
fn half_kick(dt: f64) -> [f64; 3] {
    MASSES.map(|m| 0.5 * dt * KCAL_ACC / m)
}

/// `a · b` per lane, summed in [`Vec3::dot`]'s order.
#[inline(always)]
fn dot(a: &[F64x4; 3], b: &[F64x4; 3]) -> F64x4 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Elementwise `a && b` of two lane masks.
#[inline(always)]
fn and(a: [bool; LANES], b: [bool; LANES]) -> [bool; LANES] {
    [a[0] && b[0], a[1] && b[1], a[2] && b[2], a[3] && b[3]]
}

/// Elementwise `a || b` of two lane masks.
#[inline(always)]
fn or(a: [bool; LANES], b: [bool; LANES]) -> [bool; LANES] {
    [a[0] || b[0], a[1] || b[1], a[2] || b[2], a[3] || b[3]]
}

/// Up to [`LANES`] molecules in structure-of-arrays form: `r[site][axis]`
/// holds that coordinate of every lane's molecule.
#[derive(Debug, Clone, Copy, Default)]
struct Group {
    /// Site positions.
    r: [[F64x4; 3]; 3],
    /// Site velocities.
    v: [[F64x4; 3]; 3],
    /// Per-constraint reference vector `r_i − r_j`: the pre-drift geometry
    /// for SHAKE, the current one for RATTLE.
    bond: [[F64x4; 3]; 3],
    /// Lanes still sweeping; padding lanes of a partial group never start.
    active: [bool; LANES],
    /// Lanes corrected at least once in the current sweep.
    moved: [bool; LANES],
}

impl Group {
    /// SHAKE correction of constraint `c` on every active lane whose
    /// squared length is off by more than the tolerance.
    #[inline(always)]
    fn shake(&mut self, c: usize, k: &Constraint, vi: F64x4, vj: F64x4) {
        let (i, j) = (k.i, k.j);
        let (ri, rj) = (&self.r[i], &self.r[j]);
        let s = [ri[0] - rj[0], ri[1] - rj[1], ri[2] - rj[2]];
        let diff = dot(&s, &s) - F64x4::splat(k.d2);
        let need = and(self.active, diff.abs().gt(F64x4::splat(k.tol)));
        let b = self.bond[c];
        let g = diff / (F64x4::splat(k.shake_den) * dot(&s, &b));
        let (inv_mi, inv_mj) = (F64x4::splat(k.inv_mi), F64x4::splat(k.inv_mj));
        for (a, ba) in b.into_iter().enumerate() {
            let corr = ba * g;
            let (ri, rj) = (self.r[i][a], self.r[j][a]);
            let (vi0, vj0) = (self.v[i][a], self.v[j][a]);
            self.r[i][a] = F64x4::select(need, ri - corr * inv_mi, ri);
            self.r[j][a] = F64x4::select(need, rj + corr * inv_mj, rj);
            self.v[i][a] = F64x4::select(need, vi0 - corr * vi, vi0);
            self.v[j][a] = F64x4::select(need, vj0 + corr * vj, vj0);
        }
        self.moved = or(self.moved, need);
    }

    /// RATTLE projection of constraint `c` on every active lane whose bond
    /// velocity is off by more than the tolerance.
    #[inline(always)]
    fn rattle(&mut self, c: usize, k: &Constraint) {
        let (i, j) = (k.i, k.j);
        let b = self.bond[c];
        let (vi, vj) = (&self.v[i], &self.v[j]);
        let vij = [vi[0] - vj[0], vi[1] - vj[1], vi[2] - vj[2]];
        let rv = dot(&b, &vij);
        let need = and(self.active, rv.abs().gt(F64x4::splat(k.tol)));
        let kk = rv / F64x4::splat(k.rattle_den);
        let (ki, kj) = (kk * F64x4::splat(k.inv_mi), kk * F64x4::splat(k.inv_mj));
        for (a, ba) in b.into_iter().enumerate() {
            let (vi0, vj0) = (self.v[i][a], self.v[j][a]);
            self.v[i][a] = F64x4::select(need, vi0 - ba * ki, vi0);
            self.v[j][a] = F64x4::select(need, vj0 + ba * kj, vj0);
        }
        self.moved = or(self.moved, need);
    }
}

/// Every molecule of a system in lane groups: molecule `m` is lane
/// `m % LANES` of group `m / LANES`.
struct Lanes {
    groups: Vec<Group>,
}

impl Lanes {
    /// Pack `sys` with each site's `(r, v)` given by `site(s, r, v, f)`
    /// from its current position, velocity and force. Constraint
    /// reference vectors come from the current positions: SHAKE's pre-drift
    /// geometry, and for RATTLE the positions SHAKE left.
    fn pack(
        sys: &System,
        forces: &Forces,
        cons: &[Constraint; 3],
        site: impl Fn(usize, Vec3, Vec3, Vec3) -> (Vec3, Vec3),
    ) -> Lanes {
        let lane = |x: &mut [F64x4; 3], l: usize, p: Vec3| {
            (x[0].0[l], x[1].0[l], x[2].0[l]) = (p.x, p.y, p.z);
        };
        let mut groups = vec![Group::default(); sys.n_molecules().div_ceil(LANES)];
        for (m, (mol, f)) in sys.molecules.iter().zip(&forces.f).enumerate() {
            let (g, l) = (&mut groups[m / LANES], m % LANES);
            for (s, &fs) in f.iter().enumerate() {
                let (r, v) = site(s, mol.r[s], mol.v[s], fs);
                lane(&mut g.r[s], l, r);
                lane(&mut g.v[s], l, v);
            }
            for (c, k) in cons.iter().enumerate() {
                lane(&mut g.bond[c], l, mol.r[k.i] - mol.r[k.j]);
            }
            g.active[l] = true;
        }
        Lanes { groups }
    }

    /// Run sweeps of `apply(group, c)` until every lane has retired. On
    /// failure, returns the lowest-index molecule still active after
    /// `SHAKE_MAX_ITERS` sweeps.
    fn solve(&mut self, mut apply: impl FnMut(&mut Group, usize)) -> Result<(), usize> {
        for _ in 0..SHAKE_MAX_ITERS {
            for c in 0..3 {
                for g in &mut self.groups {
                    if g.active.contains(&true) {
                        apply(g, c);
                    }
                }
            }
            let mut any = false;
            for g in &mut self.groups {
                g.active = g.moved;
                g.moved = [false; LANES];
                any |= g.active.contains(&true);
            }
            if !any {
                return Ok(());
            }
        }
        let first = self.groups.iter().flat_map(|g| g.active).position(|a| a);
        Err(first.expect("an unconverged lane remains"))
    }

    /// Write every lane's positions and velocities back to `sys`.
    fn store(&self, sys: &mut System) {
        for (m, mol) in sys.molecules.iter_mut().enumerate() {
            let (g, l) = (&self.groups[m / LANES], m % LANES);
            let at = |x: &[F64x4; 3]| Vec3::new(x[0].0[l], x[1].0[l], x[2].0[l]);
            for (s, (r, v)) in mol.r.iter_mut().zip(&mut mol.v).enumerate() {
                *r = at(&g.r[s]);
                *v = at(&g.v[s]);
            }
        }
    }
}

/// First half of a velocity-Verlet step: half-kick with `forces`, drift by
/// `dt`, then SHAKE every molecule back onto its rigid geometry (velocities
/// receive the matching correction). On error `sys` is unchanged.
pub fn drift_and_shake(sys: &mut System, forces: &Forces, dt: f64) -> Result<(), ConstraintError> {
    let cons = constraints(&sys.model);
    let kick = half_kick(dt);
    let mut lanes = Lanes::pack(sys, forces, &cons, |s, r, v, f| {
        let v = v + f * kick[s];
        (r + v * dt, v)
    });
    let inv_dt = cons.map(|k| (F64x4::splat(k.inv_mi / dt), F64x4::splat(k.inv_mj / dt)));
    lanes
        .solve(|g, c| g.shake(c, &cons[c], inv_dt[c].0, inv_dt[c].1))
        .map_err(|molecule| ConstraintError::Shake { molecule })?;
    lanes.store(sys);
    Ok(())
}

/// Second half of a velocity-Verlet step: half-kick with the new `forces`,
/// then RATTLE every molecule's velocities onto the constraint tangent
/// space. On error `sys` is unchanged.
pub fn kick_and_rattle(sys: &mut System, forces: &Forces, dt: f64) -> Result<(), ConstraintError> {
    let cons = constraints(&sys.model);
    let kick = half_kick(dt);
    let mut lanes = Lanes::pack(sys, forces, &cons, |s, r, v, f| (r, v + f * kick[s]));
    lanes
        .solve(|g, c| g.rattle(c, &cons[c]))
        .map_err(|molecule| ConstraintError::Rattle { molecule })?;
    lanes.store(sys);
    Ok(())
}

/// One velocity-Verlet step of length `dt` (fs). Takes the forces at the
/// current positions and returns the forces at the new positions (so force
/// evaluations are never repeated). Force evaluation goes through `engine`,
/// which owns the kernel selection and neighbor-list cache.
pub fn try_step(
    sys: &mut System,
    forces: &Forces,
    dt: f64,
    rc: f64,
    engine: &mut ForceEngine,
) -> Result<Forces, ConstraintError> {
    drift_and_shake(sys, forces, dt)?;
    let new_forces = engine.compute(sys, rc);
    kick_and_rattle(sys, &new_forces, dt)?;
    Ok(new_forces)
}

/// [`try_step`] for callers that treat a constraint failure as a bug.
///
/// # Panics
/// When SHAKE or RATTLE fails to converge.
pub fn step(
    sys: &mut System,
    forces: &Forces,
    dt: f64,
    rc: f64,
    engine: &mut ForceEngine,
) -> Forces {
    try_step(sys, forces, dt, rc, engine).unwrap_or_else(|e| panic!("{e}"))
}

/// Total kinetic energy, kcal/mol.
pub fn kinetic_energy(sys: &System) -> f64 {
    let mut ke = 0.0;
    for mol in &sys.molecules {
        for (v, m) in mol.v.iter().zip(&MASSES) {
            ke += 0.5 * m * v.norm_sq();
        }
    }
    ke * KE_TO_KCAL
}

/// Constrained degrees of freedom: `6N − 3` (each rigid molecule has 6,
/// minus the conserved total momentum).
pub fn degrees_of_freedom(sys: &System) -> usize {
    6 * sys.n_molecules() - 3
}

/// Instantaneous kinetic temperature, K.
pub fn temperature(sys: &System) -> f64 {
    2.0 * kinetic_energy(sys) / (degrees_of_freedom(sys) as f64 * KB)
}

/// Velocity-rescale thermostat: scale all velocities so the kinetic
/// temperature equals `target` exactly.
pub fn rescale_to(sys: &mut System, target: f64) {
    let t = temperature(sys);
    if t <= 0.0 {
        return;
    }
    let s = (target / t).sqrt();
    for mol in &mut sys.molecules {
        for v in &mut mol.v {
            *v = *v * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TIP4P;
    use crate::reference::INITIAL_VERTICES;

    fn engine() -> ForceEngine {
        // from_env so the CI kernel matrix exercises both paths here.
        ForceEngine::from_env()
    }

    /// The per-molecule SHAKE/RATTLE solver the lane solver replaced: the
    /// bit-for-bit reference. Unchanged but for reporting non-convergence
    /// at the first failing molecule instead of panicking there.
    mod oracle {
        use super::*;

        fn constraints(sys: &System) -> [(usize, usize, f64); 3] {
            let d_oh = sys.model.r_oh;
            let d_hh = sys.model.r_hh();
            [(0, 1, d_oh), (0, 2, d_oh), (1, 2, d_hh)]
        }

        fn shake(
            r_old: &[Vec3; 3],
            r_new: &mut [Vec3; 3],
            v: &mut [Vec3; 3],
            cons: &[(usize, usize, f64); 3],
            dt: f64,
        ) -> bool {
            for _ in 0..SHAKE_MAX_ITERS {
                let mut done = true;
                for &(i, j, d) in cons {
                    let s = r_new[i] - r_new[j];
                    let diff = s.norm_sq() - d * d;
                    if diff.abs() > SHAKE_TOL * d * d {
                        done = false;
                        let ref_ij = r_old[i] - r_old[j];
                        let inv_mi = 1.0 / MASSES[i];
                        let inv_mj = 1.0 / MASSES[j];
                        let denom = 2.0 * (inv_mi + inv_mj) * s.dot(ref_ij);
                        let g = diff / denom;
                        let corr = ref_ij * g;
                        r_new[i] -= corr * inv_mi;
                        r_new[j] += corr * inv_mj;
                        v[i] -= corr * (inv_mi / dt);
                        v[j] += corr * (inv_mj / dt);
                    }
                }
                if done {
                    return true;
                }
            }
            false
        }

        fn rattle(r: &[Vec3; 3], v: &mut [Vec3; 3], cons: &[(usize, usize, f64); 3]) -> bool {
            for _ in 0..SHAKE_MAX_ITERS {
                let mut done = true;
                for &(i, j, d) in cons {
                    let rij = r[i] - r[j];
                    let vij = v[i] - v[j];
                    let rv = rij.dot(vij);
                    if rv.abs() > SHAKE_TOL * d * d {
                        done = false;
                        let inv_mi = 1.0 / MASSES[i];
                        let inv_mj = 1.0 / MASSES[j];
                        let k = rv / (d * d * (inv_mi + inv_mj));
                        v[i] -= rij * (k * inv_mi);
                        v[j] += rij * (k * inv_mj);
                    }
                }
                if done {
                    return true;
                }
            }
            false
        }

        pub fn drift_and_shake(
            sys: &mut System,
            forces: &Forces,
            dt: f64,
        ) -> Result<(), ConstraintError> {
            let cons = constraints(sys);
            for (m, (mol, f)) in sys.molecules.iter_mut().zip(&forces.f).enumerate() {
                let r_old = mol.r;
                for s in 0..3 {
                    mol.v[s] += f[s] * (0.5 * dt * KCAL_ACC / MASSES[s]);
                    mol.r[s] += mol.v[s] * dt;
                }
                let (mut r_new, mut v) = (mol.r, mol.v);
                if !shake(&r_old, &mut r_new, &mut v, &cons, dt) {
                    return Err(ConstraintError::Shake { molecule: m });
                }
                mol.r = r_new;
                mol.v = v;
            }
            Ok(())
        }

        pub fn kick_and_rattle(
            sys: &mut System,
            forces: &Forces,
            dt: f64,
        ) -> Result<(), ConstraintError> {
            let cons = constraints(sys);
            for (m, (mol, f)) in sys.molecules.iter_mut().zip(&forces.f).enumerate() {
                for s in 0..3 {
                    mol.v[s] += f[s] * (0.5 * dt * KCAL_ACC / MASSES[s]);
                }
                let (r, mut v) = (mol.r, mol.v);
                if !rattle(&r, &mut v, &cons) {
                    return Err(ConstraintError::Rattle { molecule: m });
                }
                mol.v = v;
            }
            Ok(())
        }
    }

    /// Every position and velocity bit of `a` equals `b`'s.
    fn same_bits(a: &System, b: &System) -> bool {
        let bits = |p: Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
        a.molecules.len() == b.molecules.len()
            && a.molecules.iter().zip(&b.molecules).all(|(x, y)| {
                (0..3).all(|s| bits(x.r[s]) == bits(y.r[s]) && bits(x.v[s]) == bits(y.v[s]))
            })
    }

    /// Run `steps` steps of the `run_md` protocol (velocity rescale on every
    /// fifth of the first `nvt` steps) with the lane solver and the scalar
    /// oracle side by side, asserting identical bits after every half-step.
    /// Both halves see the same forces, which is exact while the bits agree.
    fn lockstep(model: WaterModel, n_side: usize, seed: u64, steps: usize, nvt: usize) {
        let mut lanes = System::lattice(model, n_side, 0.997, 298.0, seed);
        let mut scalar = lanes.clone();
        let rc = lanes.box_len / 2.0;
        let mut eng = engine();
        let mut f = eng.compute(&lanes, rc);
        let at = |i: usize, half: &str| {
            format!("{model:?} n_side {n_side} seed {seed}: step {i} {half}")
        };
        for i in 0..steps {
            let lane = drift_and_shake(&mut lanes, &f, 1.0);
            assert_eq!(
                lane,
                oracle::drift_and_shake(&mut scalar, &f, 1.0),
                "{}",
                at(i, "SHAKE")
            );
            assert!(same_bits(&lanes, &scalar), "{}", at(i, "SHAKE"));
            f = eng.compute(&lanes, rc);
            let lane = kick_and_rattle(&mut lanes, &f, 1.0);
            assert_eq!(
                lane,
                oracle::kick_and_rattle(&mut scalar, &f, 1.0),
                "{}",
                at(i, "RATTLE")
            );
            assert!(same_bits(&lanes, &scalar), "{}", at(i, "RATTLE"));
            if i < nvt && i % 5 == 0 {
                rescale_to(&mut lanes, 298.0);
                rescale_to(&mut scalar, 298.0);
            }
        }
    }

    /// The paper's six initial vertices plus TIP4P.
    fn models() -> impl Iterator<Item = WaterModel> {
        INITIAL_VERTICES
            .into_iter()
            .chain([TIP4P.params()])
            .map(|p| WaterModel::with_params(p[0], p[1], p[2]))
    }

    // 8, 27 and 64 molecules: all-full and partial lane groups.
    #[test]
    fn lane_solver_matches_the_scalar_oracle_n8() {
        for model in models() {
            for seed in [1, 2, 3] {
                lockstep(model, 2, seed, 300, 100);
            }
        }
    }

    #[test]
    fn lane_solver_matches_the_scalar_oracle_n27() {
        for (seed, model) in (4..).zip(models()) {
            lockstep(model, 3, seed, 300, 100);
        }
    }

    #[test]
    fn lane_solver_matches_the_scalar_oracle_n64() {
        for (seed, model) in (11..).zip(models()) {
            lockstep(model, 4, seed, 300, 100);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn lane_solver_matches_the_oracle_on_perturbed_boxes(
            n in 2usize..40,
            seed in 0u64..1_000_000,
            jitter in 0.0f64..0.2,
            dt in 0.25f64..3.0,
            epsilon in 0.1f64..0.2,
            sigma in 2.5f64..3.5,
            q_h in 0.4f64..0.8,
            kick in 0.0f64..0.5,
        ) {
            // Any molecule count (partial lane groups included), every site
            // knocked up to `jitter` Å off its rigid geometry and its
            // velocity by up to `kick` Å/fs, and timesteps up to 3 fs (the
            // largest kicks reach the sweep limit): both solvers must agree
            // bit for bit, or fail on the same molecule.
            use rand::Rng;
            let model = WaterModel::with_params(epsilon, sigma, q_h);
            let mut scalar = System::lattice_count(model, n, 0.997, 298.0, seed);
            let mut rng = stoch_eval::rng::rng_from_seed(seed ^ 0x5EED);
            for mol in &mut scalar.molecules {
                let mut offset = |half: f64| {
                    Vec3::new(rng.gen(), rng.gen(), rng.gen()) * (2.0 * half)
                        - Vec3::new(half, half, half)
                };
                for (r, v) in mol.r.iter_mut().zip(&mut mol.v) {
                    *r += offset(jitter);
                    *v += offset(kick);
                }
            }
            let mut lanes = scalar.clone();
            let rc = lanes.box_len / 2.0;
            let mut eng = engine();
            let f = eng.compute(&lanes, rc);
            let lane = drift_and_shake(&mut lanes, &f, dt);
            proptest::prop_assert_eq!(lane, oracle::drift_and_shake(&mut scalar, &f, dt));
            if lane.is_ok() {
                proptest::prop_assert!(same_bits(&lanes, &scalar));
                let f = eng.compute(&lanes, rc);
                let lane = kick_and_rattle(&mut lanes, &f, dt);
                proptest::prop_assert_eq!(lane, oracle::kick_and_rattle(&mut scalar, &f, dt));
                proptest::prop_assert!(lane.is_err() || same_bits(&lanes, &scalar));
            }
        }
    }

    #[test]
    fn try_step_matches_the_scalar_step_over_a_trajectory() {
        let mut sys = small_system(9);
        let mut reference = sys.clone();
        let rc = sys.box_len / 2.0;
        let (mut eng, mut eng_ref) = (engine(), engine());
        let mut f = eng.compute(&sys, rc);
        let mut f_ref = eng_ref.compute(&reference, rc);
        for i in 0..300 {
            f = try_step(&mut sys, &f, 1.0, rc, &mut eng).expect("TIP4P stays rigid");
            oracle::drift_and_shake(&mut reference, &f_ref, 1.0).expect("oracle SHAKE");
            f_ref = eng_ref.compute(&reference, rc);
            oracle::kick_and_rattle(&mut reference, &f_ref, 1.0).expect("oracle RATTLE");
            if i < 100 && i % 5 == 0 {
                rescale_to(&mut sys, 298.0);
                rescale_to(&mut reference, 298.0);
            }
        }
        assert!(same_bits(&sys, &reference));
        assert_eq!(f.potential.to_bits(), f_ref.potential.to_bits());
    }

    #[test]
    fn diverging_constraints_are_an_error_not_a_panic() {
        // Molecule 0's H1 drifts 3 Å out of the molecular plane in one
        // step. SHAKE corrects only along the pre-step bonds, which lie in
        // that plane, so no sweep can bring the O–H1 bond back to 0.96 Å.
        let mut sys = small_system(10);
        let mol = &mut sys.molecules[0];
        let normal = (mol.r[1] - mol.r[0])
            .cross(mol.r[2] - mol.r[0])
            .normalized();
        mol.v[1] = normal * 3.0;
        let mut scalar = sys.clone();
        let f = Forces {
            f: vec![[Vec3::zero(); 3]; sys.n_molecules()],
            potential: 0.0,
            virial: 0.0,
        };
        let before = sys.clone();
        let err = drift_and_shake(&mut sys, &f, 1.0).expect_err("SHAKE must give up");
        assert_eq!(Err(err), oracle::drift_and_shake(&mut scalar, &f, 1.0));
        assert!(matches!(err, ConstraintError::Shake { molecule: 0 }));
        assert!(same_bits(&sys, &before), "a failed SHAKE left sys changed");
        assert!(err.to_string().contains("SHAKE failed to converge"));
    }

    fn small_system(seed: u64) -> System {
        // 27 molecules: rc = L/2 ≈ 4.65 Å, beyond the first coordination
        // shell, so cutoff artefacts stay small.
        System::lattice(TIP4P, 3, 0.997, 298.0, seed)
    }

    #[test]
    fn constraints_hold_over_many_steps() {
        let mut sys = small_system(1);
        let rc = sys.box_len / 2.0;
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        for _ in 0..200 {
            f = step(&mut sys, &f, 1.0, rc, &mut eng);
        }
        assert!(sys.constraints_satisfied(1e-6));
    }

    #[test]
    fn rattle_keeps_bond_velocities_orthogonal() {
        let mut sys = small_system(2);
        let rc = sys.box_len / 2.0;
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        for _ in 0..20 {
            f = step(&mut sys, &f, 1.0, rc, &mut eng);
        }
        for mol in &sys.molecules {
            let rij = mol.r[0] - mol.r[1];
            let vij = mol.v[0] - mol.v[1];
            assert!(rij.dot(vij).abs() < 1e-6);
        }
    }

    #[test]
    fn lane_kernels_integrate_like_the_scalar_path() {
        // Short trajectories under the simd engine must track the scalar
        // cell-list trajectory: per-step force agreement is ~1e-12
        // relative, so 25 steps leave no visible divergence.
        let rc = small_system(8).box_len / 2.0;
        let run = |mut eng: crate::kernel::ForceEngine| -> System {
            let mut sys = small_system(8);
            let mut f = eng.compute(&sys, rc);
            for _ in 0..25 {
                f = step(&mut sys, &f, 1.0, rc, &mut eng);
            }
            assert!(sys.constraints_satisfied(1e-6));
            sys
        };
        let cell = run(crate::kernel::ForceEngine::new(
            crate::kernel::ForceKernel::CellList,
        ));
        let simd = run(crate::kernel::ForceEngine::new(
            crate::kernel::ForceKernel::Simd,
        ));
        for (a, b) in cell.molecules.iter().zip(&simd.molecules) {
            for s in 0..3 {
                assert!((a.r[s] - b.r[s]).norm() < 1e-8, "simd drifted");
            }
        }
    }

    #[test]
    fn nve_energy_is_approximately_conserved() {
        let mut sys = small_system(3);
        let rc = sys.box_len / 2.0;
        // Short settle so the lattice overlaps relax, then measure drift.
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        for _ in 0..100 {
            f = step(&mut sys, &f, 0.5, rc, &mut eng);
            rescale_to(&mut sys, 298.0);
        }
        let e0 = f.potential + kinetic_energy(&sys);
        let mut e_min = e0;
        let mut e_max = e0;
        for _ in 0..400 {
            f = step(&mut sys, &f, 0.5, rc, &mut eng);
            let e = f.potential + kinetic_energy(&sys);
            e_min = e_min.min(e);
            e_max = e_max.max(e);
        }
        let scale = kinetic_energy(&sys).abs().max(1.0);
        let drift = (e_max - e_min) / scale;
        assert!(drift < 0.05, "energy drift {drift} too large");
    }

    #[test]
    fn momentum_is_conserved() {
        let mut sys = small_system(4);
        let rc = sys.box_len / 2.0;
        let p0 = sys.momentum();
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        for _ in 0..100 {
            f = step(&mut sys, &f, 1.0, rc, &mut eng);
        }
        assert!((sys.momentum() - p0).norm() < 1e-8);
    }

    #[test]
    fn thermostat_hits_target() {
        let mut sys = small_system(5);
        rescale_to(&mut sys, 350.0);
        assert!((temperature(&sys) - 350.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_is_positive_and_sane_after_thermalize() {
        let sys = small_system(6);
        let t = temperature(&sys);
        // COM-only thermalization puts kBT/2 in 3 of 6 dof per molecule:
        // expect roughly half the target before equilibration.
        assert!(t > 50.0 && t < 600.0, "T = {t}");
    }
}
