//! Property estimators: pressure, radial distribution functions, and
//! mean-square displacement / self-diffusion.
//!
//! These are the six observables the paper's cost function fits (§3.5):
//! ⟨U⟩, ⟨P⟩, D, and the three RDFs gOO, gOH, gHH.

use crate::system::{min_image_vec, Molecule, System};
use crate::units::{A2_FS_TO_CM2_S, KB, KCAL_A3_TO_ATM};
use crate::vec3::Vec3;

/// Instantaneous pressure from the molecular virial, atm:
/// `P = (N kB T + W/3) / V`.
pub fn pressure_atm(sys: &System, temperature: f64, virial: f64) -> f64 {
    let n = sys.n_molecules() as f64;
    let v = sys.volume();
    (n * KB * temperature + virial / 3.0) / v * KCAL_A3_TO_ATM
}

/// Which site pair a radial distribution function correlates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdfKind {
    /// Oxygen–oxygen.
    OO,
    /// Oxygen–hydrogen (intermolecular).
    OH,
    /// Hydrogen–hydrogen (intermolecular).
    HH,
}

/// A binned radial distribution function accumulator.
#[derive(Debug, Clone)]
pub struct RdfAccumulator {
    kind: RdfKind,
    r_max: f64,
    dr: f64,
    counts: Vec<f64>,
    samples: usize,
}

impl RdfAccumulator {
    /// Accumulate `g(r)` for `kind` out to `r_max` with `bins` bins.
    pub fn new(kind: RdfKind, r_max: f64, bins: usize) -> Self {
        assert!(r_max > 0.0 && bins > 0);
        RdfAccumulator {
            kind,
            r_max,
            dr: r_max / bins as f64,
            counts: vec![0.0; bins],
            samples: 0,
        }
    }

    /// Sites of molecule `m` this RDF correlates, borrowed from its `[O,
    /// H1, H2]` array: O for gOO, both Hs for gHH (`sample` pairs gOH's
    /// sites itself).
    fn sites(kind: RdfKind, m: &Molecule) -> &[Vec3] {
        match kind {
            RdfKind::OO => &m.r[..1],
            RdfKind::OH | RdfKind::HH => &m.r[1..],
        }
    }

    /// Record one configuration (intermolecular pairs only).
    pub fn sample(&mut self, sys: &System) {
        let l = sys.box_len;
        let n = sys.n_molecules();
        for i in 0..n {
            for j in i + 1..n {
                match self.kind {
                    RdfKind::OO | RdfKind::HH => {
                        let si = Self::sites(self.kind, &sys.molecules[i]);
                        let sj = Self::sites(self.kind, &sys.molecules[j]);
                        for &a in si {
                            for &b in sj {
                                self.push(min_image_vec(a - b, l).norm());
                            }
                        }
                    }
                    RdfKind::OH => {
                        // O of i with Hs of j and vice versa.
                        let (mi, mj) = (&sys.molecules[i], &sys.molecules[j]);
                        for &(a, b) in &[
                            (mi.r[0], mj.r[1]),
                            (mi.r[0], mj.r[2]),
                            (mj.r[0], mi.r[1]),
                            (mj.r[0], mi.r[2]),
                        ] {
                            self.push(min_image_vec(a - b, l).norm());
                        }
                    }
                }
            }
        }
        self.samples += 1;
    }

    fn push(&mut self, r: f64) {
        if r < self.r_max {
            let last = self.counts.len() - 1;
            let bin = ((r / self.dr) as usize).min(last);
            self.counts[bin] += 1.0;
        }
    }

    /// Normalize into `g(r)`: returns `(r_centers, g)` such that an ideal
    /// gas gives `g ≈ 1` at large `r`.
    pub fn normalize(&self, sys: &System) -> (Vec<f64>, Vec<f64>) {
        let n = sys.n_molecules() as f64;
        let v = sys.volume();
        // Pairs counted per sample by `sample()`:
        let pairs_per_sample = match self.kind {
            RdfKind::OO => n * (n - 1.0) / 2.0,
            RdfKind::HH => n * (n - 1.0) / 2.0 * 4.0,
            RdfKind::OH => n * (n - 1.0) / 2.0 * 4.0,
        };
        let mut rs = Vec::with_capacity(self.counts.len());
        let mut gs = Vec::with_capacity(self.counts.len());
        let nsamp = self.samples.max(1) as f64;
        for (b, &c) in self.counts.iter().enumerate() {
            let r_lo = b as f64 * self.dr;
            let r_hi = r_lo + self.dr;
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
            // Ideal count in this shell for pairs_per_sample pairs: the pair
            // density is pairs/V.
            let ideal = pairs_per_sample * shell / v;
            rs.push(r_lo + 0.5 * self.dr);
            gs.push(c / (nsamp * ideal));
        }
        (rs, gs)
    }
}

/// Mean-square-displacement tracker for the oxygen atoms (positions are
/// unwrapped, so no image bookkeeping is needed).
#[derive(Debug, Clone)]
pub struct MsdTracker {
    origin: Vec<Vec3>,
    /// (time fs, MSD Å²) samples.
    pub series: Vec<(f64, f64)>,
}

impl MsdTracker {
    /// Start tracking from the current configuration.
    pub fn new(sys: &System) -> Self {
        MsdTracker {
            origin: sys.molecules.iter().map(|m| m.r[0]).collect(),
            series: Vec::new(),
        }
    }

    /// Record the MSD at elapsed time `t` fs.
    pub fn sample(&mut self, sys: &System, t: f64) {
        let msd = sys
            .molecules
            .iter()
            .zip(&self.origin)
            .map(|(m, &r0)| (m.r[0] - r0).norm_sq())
            .sum::<f64>()
            / sys.n_molecules() as f64;
        self.series.push((t, msd));
    }

    /// Self-diffusion coefficient in cm²/s via the Einstein relation,
    /// least-squares slope of the second half of the MSD series:
    /// `D = slope / 6`.
    pub fn diffusion_cm2_s(&self) -> f64 {
        let pts = &self.series[self.series.len() / 2..];
        if pts.len() < 2 {
            return f64::NAN;
        }
        let n = pts.len() as f64;
        let (mut st, mut sm, mut stt, mut stm) = (0.0, 0.0, 0.0, 0.0);
        for &(t, m) in pts {
            st += t;
            sm += m;
            stt += t * t;
            stm += t * m;
        }
        let denom = n * stt - st * st;
        if denom.abs() < 1e-30 {
            return f64::NAN;
        }
        let slope = (n * stm - st * sm) / denom; // Å²/fs
        slope / 6.0 * A2_FS_TO_CM2_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TIP4P;

    #[test]
    fn ideal_gas_pressure() {
        // Zero virial: P = rho kB T.
        let sys = System::lattice(TIP4P, 2, 0.997, 298.0, 1);
        let p = pressure_atm(&sys, 298.0, 0.0);
        let rho = sys.n_molecules() as f64 / sys.volume();
        let expected = rho * KB * 298.0 * KCAL_A3_TO_ATM;
        assert!((p - expected).abs() < 1e-9);
        // Ballpark: ~1350 atm for ideal gas at water density.
        assert!(p > 1000.0 && p < 1700.0, "p = {p}");
    }

    #[test]
    fn rdf_of_random_ideal_gas_is_flat() {
        // Molecules at uniform random positions (ignore overlaps) should
        // give g_OO ≈ 1 away from zero.
        use rand::Rng;
        let mut rng = stoch_eval::rng::rng_from_seed(7);
        let l = 30.0;
        let n = 200;
        let molecules: Vec<Molecule> = (0..n)
            .map(|_| {
                let c = Vec3::new(
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                    rng.gen::<f64>() * l,
                );
                Molecule {
                    r: [c, c, c],
                    v: [Vec3::zero(); 3],
                }
            })
            .collect();
        let sys = System {
            model: TIP4P,
            molecules,
            box_len: l,
        };
        let mut acc = RdfAccumulator::new(RdfKind::OO, l / 2.0, 30);
        acc.sample(&sys);
        let (rs, gs) = acc.normalize(&sys);
        // Average g over r in [5, 15): should be near 1.
        let sel: Vec<f64> = rs
            .iter()
            .zip(&gs)
            .filter(|(r, _)| **r > 5.0 && **r < 15.0)
            .map(|(_, g)| *g)
            .collect();
        let mean = sel.iter().sum::<f64>() / sel.len() as f64;
        assert!((mean - 1.0).abs() < 0.15, "mean g = {mean}");
    }

    #[test]
    fn msd_of_ballistic_motion() {
        // A single molecule moving at constant v: MSD = v² t².
        let (o, h1, h2) = TIP4P.reference_sites();
        let v = Vec3::new(0.01, 0.0, 0.0);
        let mut sys = System {
            model: TIP4P,
            molecules: vec![Molecule {
                r: [o, h1, h2],
                v: [v, v, v],
            }],
            box_len: 100.0,
        };
        let mut msd = MsdTracker::new(&sys);
        for step in 1..=10 {
            for r in &mut sys.molecules[0].r {
                *r += v * 1.0;
            }
            msd.sample(&sys, step as f64);
        }
        let (t, m) = msd.series[4];
        assert!((m - (0.01 * t) * (0.01 * t)).abs() < 1e-12);
    }

    #[test]
    fn diffusion_of_linear_msd() {
        // MSD = 0.6 t  =>  slope 0.6 Å²/fs  =>  D = 0.1 Å²/fs = 0.01 cm²/s.
        let mut tracker = MsdTracker {
            origin: vec![],
            series: (0..100).map(|i| (i as f64, 0.6 * i as f64)).collect(),
        };
        let d = tracker.diffusion_cm2_s();
        assert!((d - 0.01).abs() < 1e-12, "D = {d}");
        tracker.series.truncate(1);
        assert!(tracker.diffusion_cm2_s().is_nan());
    }
}
