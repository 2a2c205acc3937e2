//! The parameterization cost function (Eq. 3.4) and its exposure as a
//! [`StochasticObjective`].
//!
//! ```text
//! g(θ) = Σ_i w_i² (p_i(θ) − p0_i)² / s_i²
//! ```
//!
//! where `s_i = max(|p0_i|, floor_i)` — the floor handles targets that are
//! identically zero (the RDF residuals, whose experimental target is zero
//! by construction, Eq. 3.5) and near-zero (pressure: 1 atm), for which a
//! purely relative error would blow up. The paper chooses weights
//! "subjectively to balance the level of error in each property"; the
//! defaults here are tuned the same way.
//!
//! Each of the six properties is measured with sampling noise
//! `σ_i²(t) = σ0_i²/t`; the cost's standard error follows by first-order
//! error propagation. This gives the realistic structure where noise on the
//! *cost* is parameter-dependent even though per-property noise is not.

use crate::integrate::ConstraintError;
use crate::reference::Experiment;
use crate::simulate::{run_md, MdConfig};
use crate::surrogate::{prop, PropertyEngine};
use stoch_eval::objective::{Estimate, SampleStream, StochasticObjective};
use stoch_eval::sampler::NormalSource;
use stoch_eval::stats::Welford;

/// Weights and normalization scales of the six cost terms.
#[derive(Debug, Clone, Copy)]
pub struct CostWeights {
    /// Per-property weights `w_i` (order: D, gHH, gOH, gOO, P, U).
    pub w: [f64; 6],
    /// Normalization floors `floor_i` for targets near zero.
    pub floors: [f64; 6],
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            //    D     gHH   gOH   gOO   P     U
            w: [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            // Scales: RDF residuals measured against a 0.25 structure
            // scale; pressure against 1000 atm; D and U are relative.
            floors: [0.5, 0.25, 0.25, 0.25, 1500.0, 5.0],
        }
    }
}

/// Experimental targets in property order (D, gHH, gOH, gOO, P, U).
pub const TARGETS: [f64; 6] = [
    Experiment::D,
    Experiment::RDF_RESIDUAL,
    Experiment::RDF_RESIDUAL,
    Experiment::RDF_RESIDUAL,
    Experiment::P,
    Experiment::U,
];

impl CostWeights {
    /// Normalization scale `s_i`.
    #[inline]
    pub fn scale(&self, i: usize) -> f64 {
        TARGETS[i].abs().max(self.floors[i])
    }

    /// Evaluate the cost (Eq. 3.4) from a property vector.
    pub fn cost(&self, props: &[f64; 6]) -> f64 {
        let mut g = 0.0;
        for i in 0..6 {
            let s = self.scale(i);
            let r = (props[i] - TARGETS[i]) / s;
            g += self.w[i] * self.w[i] * r * r;
        }
        g
    }

    /// First-order propagated standard error of the cost given per-property
    /// standard errors.
    pub fn cost_std_err(&self, props: &[f64; 6], prop_errs: &[f64; 6]) -> f64 {
        let mut var = 0.0;
        for i in 0..6 {
            let s = self.scale(i);
            let dgdp = 2.0 * self.w[i] * self.w[i] * (props[i] - TARGETS[i]) / (s * s);
            var += dgdp * dgdp * prop_errs[i] * prop_errs[i];
        }
        var.sqrt()
    }
}

/// Default per-property inherent noise magnitudes `σ0_i` (per unit virtual
/// time), sized relative to each property's typical magnitude — diffusion
/// and pressure converge slowly in real MD, RDF residuals faster.
pub const DEFAULT_PROP_SIGMA0: [f64; 6] = [1.5, 0.15, 0.15, 0.15, 900.0, 6.0];

/// The water-parameterization objective over any [`PropertyEngine`].
///
/// Parameter vector: `θ = (ε kcal/mol, σ Å, q_H e)`.
#[derive(Debug, Clone)]
pub struct WaterObjective<E> {
    engine: E,
    /// Cost weights/scales.
    pub weights: CostWeights,
    /// Per-property `σ0` (noise per unit sampling time).
    pub sigma0: [f64; 6],
    /// Global noise multiplier (0 disables noise).
    pub noise_level: f64,
}

impl<E: PropertyEngine> WaterObjective<E> {
    /// Standard noisy objective.
    pub fn new(engine: E) -> Self {
        WaterObjective {
            engine,
            weights: CostWeights::default(),
            sigma0: DEFAULT_PROP_SIGMA0,
            noise_level: 1.0,
        }
    }

    /// Noise-free variant (for measuring the true cost surface).
    pub fn noiseless(engine: E) -> Self {
        let mut o = Self::new(engine);
        o.noise_level = 0.0;
        o
    }

    /// The underlying property engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// True (noise-free) property vector at `params`.
    pub fn true_properties(&self, params: &[f64; 3]) -> [f64; 6] {
        self.engine.properties(params)
    }

    /// True (noise-free) cost at `params`.
    pub fn true_cost(&self, params: &[f64; 3]) -> f64 {
        self.weights.cost(&self.true_properties(params))
    }
}

/// Sampling stream over the six noisy properties.
#[derive(Debug, Clone)]
pub struct WaterCostStream {
    props: [f64; 6],
    sigma0: [f64; 6],
    weights: CostWeights,
    t: f64,
    sums: [f64; 6],
    nonfinite: u64,
    src: NormalSource,
}

impl SampleStream for WaterCostStream {
    fn extend(&mut self, dt: f64) {
        assert!(dt > 0.0);
        // One bulk draw for every *noisy* property (σ0 > 0), so the RNG
        // position does not depend on the data — quarantined extends must
        // consume exactly as many variates as clean ones. `fill` is
        // bit-exact with the per-draw sample() loop it replaces.
        let noisy = self.sigma0.iter().filter(|&&s| s > 0.0).count();
        let mut z6 = [0.0; 6];
        self.src.fill(&mut z6[..noisy]);
        let mut at = 0;
        for i in 0..6 {
            let z = if self.sigma0[i] > 0.0 {
                at += 1;
                z6[at - 1]
            } else {
                0.0
            };
            let incr = self.props[i] * dt + self.sigma0[i] * dt.sqrt() * z;
            if incr.is_finite() {
                self.sums[i] += incr;
            } else {
                // A diverged simulation property (e.g. a NaN RDF residual)
                // is quarantined rather than poisoning the running sums.
                self.nonfinite += 1;
            }
        }
        self.t += dt;
    }

    fn estimate(&self) -> Estimate {
        if self.nonfinite > 0 {
            return Estimate {
                value: f64::INFINITY,
                std_err: 0.0,
                time: self.t,
            };
        }
        if self.t <= 0.0 {
            return Estimate {
                value: self.weights.cost(&self.props),
                std_err: f64::INFINITY,
                time: 0.0,
            };
        }
        let mut est = [0.0; 6];
        let mut errs = [0.0; 6];
        for i in 0..6 {
            est[i] = self.sums[i] / self.t;
            errs[i] = self.sigma0[i] / self.t.sqrt();
        }
        Estimate {
            value: self.weights.cost(&est),
            std_err: self.weights.cost_std_err(&est, &errs),
            time: self.t,
        }
    }

    fn save_state(
        &self,
        w: &mut stoch_eval::codec::Writer,
    ) -> Result<(), stoch_eval::codec::CodecError> {
        w.put_f64_slice(&self.props);
        w.put_f64_slice(&self.sigma0);
        w.put_f64_slice(&self.weights.w);
        w.put_f64_slice(&self.weights.floors);
        w.put_f64(self.t);
        w.put_f64_slice(&self.sums);
        w.put_u64(self.nonfinite);
        self.src.save_state(w);
        Ok(())
    }

    fn load_state(
        r: &mut stoch_eval::codec::Reader<'_>,
    ) -> Result<Self, stoch_eval::codec::CodecError> {
        let take6 = |r: &mut stoch_eval::codec::Reader<'_>| -> Result<[f64; 6], _> {
            let v = r.take_f64_vec()?;
            <[f64; 6]>::try_from(v).map_err(|_| stoch_eval::codec::CodecError::Invalid {
                what: "WaterCostStream property vector",
            })
        };
        let props = take6(r)?;
        let sigma0 = take6(r)?;
        let w = take6(r)?;
        let floors = take6(r)?;
        let t = r.take_f64()?;
        let sums = take6(r)?;
        let nonfinite = r.take_u64()?;
        let src = NormalSource::load_state(r)?;
        Ok(WaterCostStream {
            props,
            sigma0,
            weights: CostWeights { w, floors },
            t,
            sums,
            nonfinite,
            src,
        })
    }

    fn nonfinite_samples(&self) -> u64 {
        self.nonfinite
    }
}

impl<E: PropertyEngine> StochasticObjective for WaterObjective<E> {
    type Stream = WaterCostStream;

    fn dim(&self) -> usize {
        3
    }

    fn open(&self, x: &[f64], seed: u64) -> WaterCostStream {
        let params = [x[0], x[1], x[2]];
        let props = self.engine.properties(&params);
        let mut sigma0 = self.sigma0;
        for s in &mut sigma0 {
            *s *= self.noise_level;
        }
        WaterCostStream {
            props,
            sigma0,
            weights: self.weights,
            t: 0.0,
            sums: [0.0; 6],
            nonfinite: 0,
            src: NormalSource::new(seed),
        }
    }

    fn true_value(&self, x: &[f64]) -> Option<f64> {
        Some(self.true_cost(&[x[0], x[1], x[2]]))
    }
}

/// An MD-backed property engine: every evaluation runs the real simulation
/// protocol (§3.5) at the given parameters. Expensive — used by the
/// integration demo and available for full-fidelity runs.
#[derive(Debug, Clone)]
pub struct MdPropertyEngine {
    /// Simulation protocol.
    pub cfg: MdConfig,
}

impl MdPropertyEngine {
    /// The six properties at `params`, or why the simulation could not
    /// keep its molecules rigid.
    pub fn try_properties(&self, params: &[f64; 3]) -> Result<[f64; 6], ConstraintError> {
        let model = crate::model::WaterModel::with_params(params[0], params[1], params[2]);
        let out = run_md(model, &self.cfg)?;
        let mut p = [0.0; 6];
        p[prop::D] = out.diffusion_cm2_s * 1e5;
        p[prop::G_HH] = rdf_residual(&out.g_hh, Experiment::g_hh);
        p[prop::G_OH] = rdf_residual(&out.g_oh, Experiment::g_oh);
        p[prop::G_OO] = rdf_residual(&out.g_oo, Experiment::g_oo);
        p[prop::P] = out.pressure_atm.mean;
        p[prop::U] = out.energy_kj_mol.mean;
        Ok(p)
    }
}

impl PropertyEngine for MdPropertyEngine {
    /// A diverged simulation reports every property as NaN, which
    /// [`WaterCostStream`] quarantines.
    fn properties(&self, params: &[f64; 3]) -> [f64; 6] {
        self.try_properties(params).unwrap_or([f64::NAN; 6])
    }
}

/// Reduce a measured RDF to its RMS difference from the experimental curve
/// (Eq. 3.5), integrated over `[r_min, r_max] = [2.0, min(r_data_max, 8)]`.
pub fn rdf_residual(curve: &(Vec<f64>, Vec<f64>), reference: fn(f64) -> f64) -> f64 {
    let (rs, gs) = curve;
    let pairs: Vec<(f64, f64)> = rs
        .iter()
        .zip(gs)
        .filter(|(r, _)| **r >= 2.0 && **r <= 8.0)
        .map(|(r, g)| (*r, *g))
        .collect();
    if pairs.is_empty() {
        return f64::NAN;
    }
    let ss: f64 = pairs
        .iter()
        .map(|&(r, g)| {
            let d = g - reference(r);
            d * d
        })
        .sum();
    (ss / pairs.len() as f64).sqrt()
}

/// An empirical stream over repeated *independent MD replicas*: each
/// `extend(dt)` runs one more short simulation (a fresh seed) and folds its
/// cost into a Welford mean. This is the full-fidelity path where the noise
/// is genuine thermal sampling error, not a synthetic Gaussian.
///
/// A replica that diverges (a [`ConstraintError`]) or yields a non-finite
/// cost is quarantined like a [`WaterCostStream`] increment: it is counted
/// by `nonfinite_samples`, and from then on the estimate is `+inf` with
/// zero standard error, so the engine's `NonFinitePolicy` decides.
#[derive(Debug, Clone)]
pub struct MdCostStream {
    params: [f64; 3],
    cfg: MdConfig,
    weights: CostWeights,
    acc: Welford,
    replica: u64,
    seed: u64,
    nonfinite: u64,
}

impl SampleStream for MdCostStream {
    fn extend(&mut self, _dt: f64) {
        let mut cfg = self.cfg;
        cfg.seed = stoch_eval::rng::child_seed(self.seed, self.replica);
        self.replica += 1;
        let engine = MdPropertyEngine { cfg };
        match engine
            .try_properties(&self.params)
            .map(|p| self.weights.cost(&p))
        {
            Ok(cost) if cost.is_finite() => self.acc.push(cost),
            _ => self.nonfinite += 1,
        }
    }

    fn estimate(&self) -> Estimate {
        if self.nonfinite > 0 {
            return Estimate {
                value: f64::INFINITY,
                std_err: 0.0,
                time: self.replica as f64,
            };
        }
        let n = self.acc.count();
        Estimate {
            value: if n > 0 { self.acc.mean() } else { f64::NAN },
            std_err: if n >= 2 {
                self.acc.std_err()
            } else {
                f64::INFINITY
            },
            time: n as f64,
        }
    }

    fn nonfinite_samples(&self) -> u64 {
        self.nonfinite
    }
}

/// The full-fidelity MD water objective (each sample = one MD replica).
#[derive(Debug, Clone)]
pub struct MdWaterObjective {
    /// Per-replica simulation protocol.
    pub cfg: MdConfig,
    /// Cost weights/scales.
    pub weights: CostWeights,
}

impl StochasticObjective for MdWaterObjective {
    type Stream = MdCostStream;

    fn dim(&self) -> usize {
        3
    }

    fn open(&self, x: &[f64], seed: u64) -> MdCostStream {
        MdCostStream {
            params: [x[0], x[1], x[2]],
            cfg: self.cfg,
            weights: self.weights,
            acc: Welford::new(),
            replica: 0,
            seed,
            nonfinite: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateWater;

    const TIP4P_PARAMS: [f64; 3] = [0.1550, 3.1540, 0.5200];

    #[test]
    fn cost_is_zero_at_exact_targets() {
        let w = CostWeights::default();
        let mut p = TARGETS;
        assert_eq!(w.cost(&p), 0.0);
        p[prop::U] += 1.0;
        assert!(w.cost(&p) > 0.0);
    }

    #[test]
    fn tip4p_cost_is_order_one_and_balanced() {
        let obj = WaterObjective::noiseless(SurrogateWater);
        let c = obj.true_cost(&TIP4P_PARAMS);
        assert!(c > 0.01 && c < 10.0, "TIP4P cost {c}");
    }

    #[test]
    fn cost_grows_away_from_tip4p() {
        let obj = WaterObjective::noiseless(SurrogateWater);
        let base = obj.true_cost(&TIP4P_PARAMS);
        let off = obj.true_cost(&[0.1625, 2.80, 0.60]);
        assert!(off > 5.0 * base, "off {off} vs base {base}");
    }

    #[test]
    fn noiseless_stream_is_exact() {
        let obj = WaterObjective::noiseless(SurrogateWater);
        let mut s = obj.open(&TIP4P_PARAMS, 1);
        s.extend(1.0);
        let e = s.estimate();
        assert!((e.value - obj.true_cost(&TIP4P_PARAMS)).abs() < 1e-12);
        assert_eq!(e.std_err, 0.0);
    }

    #[test]
    fn noisy_stream_converges_to_true_cost() {
        let obj = WaterObjective::new(SurrogateWater);
        let mut s = obj.open(&TIP4P_PARAMS, 2);
        s.extend(1.0);
        let rough = s.estimate();
        assert!(rough.std_err > 0.0);
        s.extend(1e6);
        let fine = s.estimate();
        let truth = obj.true_cost(&TIP4P_PARAMS);
        assert!(
            (fine.value - truth).abs() < 20.0 * fine.std_err + 1e-6,
            "estimate {} vs truth {truth}",
            fine.value
        );
        assert!(fine.std_err < rough.std_err);
    }

    #[test]
    fn water_stream_state_round_trips_bit_identically() {
        let obj = WaterObjective::new(SurrogateWater);
        let mut s = obj.open(&TIP4P_PARAMS, 7);
        s.extend(2.5);
        s.extend(0.5);

        let mut w = stoch_eval::codec::Writer::new();
        s.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = stoch_eval::codec::Reader::new(&bytes);
        let mut restored = WaterCostStream::load_state(&mut r).unwrap();
        r.finish().unwrap();

        // Same estimate now, and identical future trajectory (RNG position
        // restored exactly).
        for _ in 0..5 {
            let a = s.estimate();
            let b = restored.estimate();
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.std_err.to_bits(), b.std_err.to_bits());
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            s.extend(1.25);
            restored.extend(1.25);
        }
    }

    #[test]
    fn water_stream_quarantines_nonfinite_increments() {
        let obj = WaterObjective::new(SurrogateWater);
        let mut s = obj.open(&[f64::NAN, 3.1540, 0.5200], 3);
        assert_eq!(s.nonfinite_samples(), 0);
        s.extend(1.0);
        assert!(s.nonfinite_samples() > 0, "NaN property not quarantined");
        let e = s.estimate();
        assert!(e.value.is_infinite() && e.value > 0.0);
        assert_eq!(e.std_err, 0.0);
        // The quarantine tally survives a save/load round trip.
        let mut w = stoch_eval::codec::Writer::new();
        s.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = stoch_eval::codec::Reader::new(&bytes);
        let restored = WaterCostStream::load_state(&mut r).unwrap();
        assert_eq!(restored.nonfinite_samples(), s.nonfinite_samples());
    }

    #[test]
    fn error_propagation_is_first_order_consistent() {
        let w = CostWeights::default();
        let props = SurrogateWater.properties(&[0.16, 3.2, 0.55]);
        let errs = [0.01; 6];
        let se = w.cost_std_err(&props, &errs);
        // Compare against a finite-difference estimate of |∇g|·err for a
        // single-coordinate perturbation.
        let mut p2 = props;
        p2[prop::U] += 1e-6;
        let dgdu = (w.cost(&p2) - w.cost(&props)) / 1e-6;
        assert!(se >= (dgdu.abs() * 0.01) * 0.99, "se {se} too small");
    }

    #[test]
    fn rdf_residual_of_perfect_curve_is_zero() {
        let rs: Vec<f64> = (0..60).map(|i| 2.0 + i as f64 * 0.1).collect();
        let gs: Vec<f64> = rs.iter().map(|&r| Experiment::g_oo(r)).collect();
        let res = rdf_residual(&(rs, gs), Experiment::g_oo);
        assert!(res < 1e-12);
    }

    #[test]
    fn rdf_residual_detects_deviation() {
        let rs: Vec<f64> = (0..60).map(|i| 2.0 + i as f64 * 0.1).collect();
        let gs: Vec<f64> = rs.iter().map(|&r| Experiment::g_oo(r) + 0.2).collect();
        let res = rdf_residual(&(rs, gs), Experiment::g_oo);
        assert!((res - 0.2).abs() < 1e-12);
    }

    #[test]
    fn md_stream_quarantines_a_diverged_replica() {
        // At σ = 2.5 Å, q_H = 0.78 e SHAKE runs out of sweeps during
        // equilibration (see `simulate`'s divergence test).
        let obj = MdWaterObjective {
            cfg: MdConfig {
                n_side: 3,
                equil_steps: 100,
                prod_steps: 200,
                ..MdConfig::default()
            },
            weights: CostWeights::default(),
        };
        let mut s = obj.open(&[0.155, 2.5, 0.78], 1);
        assert_eq!(s.nonfinite_samples(), 0);
        s.extend(1.0);
        assert_eq!(s.nonfinite_samples(), 1);
        let e = s.estimate();
        assert!(e.value.is_infinite() && e.value > 0.0);
        assert_eq!(e.std_err, 0.0);
        assert_eq!(e.time, 1.0);
        let engine = MdPropertyEngine { cfg: obj.cfg };
        assert!(engine
            .properties(&[0.155, 2.5, 0.78])
            .iter()
            .all(|p| p.is_nan()));
    }

    #[test]
    #[ignore = "runs real MD; expensive — exercised by the harness"]
    fn md_engine_produces_finite_properties() {
        let engine = MdPropertyEngine {
            cfg: MdConfig {
                n_side: 2,
                equil_steps: 100,
                prod_steps: 200,
                ..MdConfig::default()
            },
        };
        let p = engine.properties(&TIP4P_PARAMS);
        assert!(p.iter().all(|v| v.is_finite()));
    }
}
