//! Structure-of-arrays site stores for the hardware-fast force path.
//!
//! The simulation state ([`crate::system::System`]) keeps molecules as an
//! array-of-structures — natural for the integrator, SHAKE/RATTLE, and the
//! property samplers, which all walk one molecule at a time (and carry
//! velocities the force kernel never reads). [`SoaSites`] is the
//! per-evaluation repack for the pair kernel: one dense 12-float block per
//! molecule holding the O, H1, H2, and derived virtual-M coordinates, in a
//! flat `Vec<[f64; 12]>`. The block layout matters: the pair loop's access
//! pattern is a *random* neighbor index per pair, and fetching all four
//! sites of a neighbor touches exactly two cache lines here — planar
//! per-site-per-coordinate arrays (the textbook SoA) scatter the same
//! twelve values across twelve lines and turn the pair loop latency-bound.
//! The pack is O(n) against the O(n·neighbors) force work it feeds; its
//! cost is surfaced as `water.kernel.pack_nanos`.
//!
//! [`SoaForces`] is the matching force accumulator: one flattened
//! `fx/fy/fz` array of length `4·n` (slot-major: slot `s` of molecule `i`
//! lives at index `s·n + i`, slots `[O, H1, H2, M]`), plus the potential
//! and molecular-virial sums; [`SoaForces::into_forces`] performs the
//! final M-site redistribution back to the AoS [`Forces`] the integrator
//! consumes.

use crate::forces::Forces;
use crate::system::System;
use crate::vec3::Vec3;

/// Packed site coordinates: one `[f64; 12]` block per molecule, laid out
/// `[Ox, Oy, Oz, H1x, H1y, H1z, H2x, H2y, H2z, Mx, My, Mz]`.
#[derive(Debug, Clone, Default)]
pub struct SoaSites {
    /// Molecule count.
    pub n: usize,
    /// Per-molecule site blocks, `n` entries.
    pub sites: Vec<[f64; 12]>,
}

impl SoaSites {
    /// Pack `sys` into the dense block layout, reusing this store's buffer.
    /// The M coordinates are derived with the model's own
    /// [`crate::model::WaterModel::msite`] so they are bit-identical to the
    /// oracle's.
    pub fn pack(&mut self, sys: &System) {
        let n = sys.n_molecules();
        self.n = n;
        self.sites.clear();
        self.sites.reserve(n);
        for mol in &sys.molecules {
            let [o, h1, h2] = mol.r;
            let m = sys.model.msite(o, h1, h2);
            self.sites.push([
                o.x, o.y, o.z, h1.x, h1.y, h1.z, h2.x, h2.y, h2.z, m.x, m.y, m.z,
            ]);
        }
    }

    /// Position of site `s` (0=O, 1=H1, 2=H2, 3=M) of molecule `i`.
    #[inline]
    pub fn site(&self, s: usize, i: usize) -> Vec3 {
        let b = &self.sites[i];
        Vec3::new(b[3 * s], b[3 * s + 1], b[3 * s + 2])
    }
}

/// Flattened per-site force accumulator plus energy/virial sums.
///
/// Component arrays have length `4·n`, slot-major: index `s·n + i` is slot
/// `s` (`[O, H1, H2, M]`) of molecule `i`.
#[derive(Debug, Clone, Default)]
pub struct SoaForces {
    /// Molecule count.
    pub n: usize,
    /// Force x components, `4·n` slot-major.
    pub fx: Vec<f64>,
    /// Force y components, `4·n` slot-major.
    pub fy: Vec<f64>,
    /// Force z components, `4·n` slot-major.
    pub fz: Vec<f64>,
    /// Total potential energy, kcal/mol.
    pub potential: f64,
    /// Molecular virial `Σ_pairs R_ij · F_ij`, kcal/mol.
    pub virial: f64,
}

impl SoaForces {
    /// Reset to zero for `n` molecules, reusing the buffers.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        for v in [&mut self.fx, &mut self.fy, &mut self.fz] {
            v.clear();
            v.resize(4 * n, 0.0);
        }
        self.potential = 0.0;
        self.virial = 0.0;
    }

    /// Fold into the AoS [`Forces`] form, redistributing the virtual-site
    /// forces: `F_O += (1−2a) F_M`, `F_Hi += a F_M`.
    pub fn into_forces(&self, a_coef: f64) -> Forces {
        let n = self.n;
        let at = |s: usize, i: usize| {
            Vec3::new(self.fx[s * n + i], self.fy[s * n + i], self.fz[s * n + i])
        };
        let f = (0..n)
            .map(|i| {
                let fm = at(3, i);
                [
                    at(0, i) + (1.0 - 2.0 * a_coef) * fm,
                    at(1, i) + a_coef * fm,
                    at(2, i) + a_coef * fm,
                ]
            })
            .collect();
        Forces {
            f,
            potential: self.potential,
            virial: self.virial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TIP4P;

    #[test]
    fn pack_mirrors_system_sites() {
        let sys = System::lattice(TIP4P, 2, 0.997, 298.0, 7);
        let mut soa = SoaSites::default();
        soa.pack(&sys);
        assert_eq!(soa.n, 8);
        for (i, mol) in sys.molecules.iter().enumerate() {
            for s in 0..3 {
                assert_eq!(soa.site(s, i), mol.r[s]);
            }
            let m = sys.model.msite(mol.r[0], mol.r[1], mol.r[2]);
            assert_eq!(soa.site(3, i), m);
        }
        // Repacking reuses buffers and stays correct.
        soa.pack(&sys);
        assert_eq!(soa.site(1, 3), sys.molecules[3].r[1]);
    }

    #[test]
    fn fold_redistributes_msite() {
        let mut a = SoaForces::default();
        a.reset(2);
        a.fx[0] = 1.0; // O of molecule 0
        a.fx[3 * 2] = 4.0; // M of molecule 0
        a.fx[3] = 2.0; // H1 of molecule 1 (slot 1 · n + 1)
        let ac = 0.25;
        let f = a.into_forces(ac);
        assert_eq!(f.f[0][0].x, 1.0 + (1.0 - 2.0 * ac) * 4.0);
        assert_eq!(f.f[0][1].x, ac * 4.0);
        assert_eq!(f.f[1][1].x, 2.0);
        a.reset(2);
        assert_eq!(a.fx.len(), 8);
        assert!(a.fx.iter().all(|&v| v == 0.0));
    }
}
