//! Noise-magnitude models: how the inherent sampling noise `σ0(θ)` varies
//! over parameter space.
//!
//! The paper (Eq. 1.2) allows the inherent variance `(σ0_k)²` to depend on
//! the location in parameter space ("some models may be noisier than
//! others"), with no expectation that it is known ahead of time. The
//! experiments in Ch. 3 use a constant `σ0`; we provide that plus a relative
//! model for robustness testing.

use crate::codec::{CodecError, Reader, Writer};
use crate::objective::Objective;
use crate::rng::{child_seed, sample_word, word_to_unit, PerSampleRng};

/// Lane width of [`NoiseDistribution::observe_block`]'s word stage:
/// eight `u64`/`f64` lanes fill one 512-bit vector (or two 256-bit ones).
const LANES: usize = 8;

/// How the inherent (per-unit-time) noise magnitude varies with location.
pub trait NoiseModel: Sync {
    /// The inherent standard deviation `σ0` at `x`, given the underlying
    /// noise-free value `f(x)` (some models scale with the signal).
    fn sigma0(&self, x: &[f64], f_value: f64) -> f64;
}

/// Constant noise magnitude everywhere (what the paper's experiments use:
/// `σ0 ∈ {1, 100, 1000}`).
#[derive(Debug, Clone, Copy)]
pub struct ConstantNoise(pub f64);

impl NoiseModel for ConstantNoise {
    fn sigma0(&self, _x: &[f64], _f: f64) -> f64 {
        self.0
    }
}

/// Noise proportional to the magnitude of the underlying value, with a floor.
///
/// Mimics sampling estimators whose variance scales with the quantity being
/// measured (e.g. pressure fluctuations in MD).
#[derive(Debug, Clone, Copy)]
pub struct RelativeNoise {
    /// Fractional noise level (e.g. `0.1` for 10%).
    pub fraction: f64,
    /// Lower bound on `σ0` so noise never vanishes entirely.
    pub floor: f64,
}

impl NoiseModel for RelativeNoise {
    fn sigma0(&self, _x: &[f64], f: f64) -> f64 {
        (self.fraction * f.abs()).max(self.floor)
    }
}

/// No noise at all — turns a stochastic wrapper into a deterministic oracle.
/// Useful for validating that the stochastic algorithms reduce to classical
/// Nelder–Mead behaviour when the noise vanishes.
#[derive(Debug, Clone, Copy)]
pub struct ZeroNoise;

impl NoiseModel for ZeroNoise {
    fn sigma0(&self, _x: &[f64], _f: f64) -> f64 {
        0.0
    }
}

/// Noise magnitude that depends on position through a user closure.
pub struct FnNoise<F: Fn(&[f64], f64) -> f64 + Sync>(pub F);

impl<F: Fn(&[f64], f64) -> f64 + Sync> NoiseModel for FnNoise<F> {
    fn sigma0(&self, x: &[f64], f: f64) -> f64 {
        (self.0)(x, f)
    }
}

/// Nonstationary drift of the noise process over virtual time.
///
/// `σ(t) = σ_unit · (1 + sigma · sin(2πt/period))` (clamped at zero) and an
/// additive bias `σ_unit · bias · cos(2πt/period)` wander over a full period
/// of `period` virtual time units. Both modulations scale with the unit
/// standard deviation, so zero-noise streams stay exactly deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// Relative amplitude of the σ modulation (0 = constant σ).
    pub sigma: f64,
    /// Bias amplitude in units of the unit standard deviation.
    pub bias: f64,
    /// Period of the wander, in virtual time units.
    pub period: f64,
}

impl DriftSpec {
    /// Defaults used by the `drift` shorthand: ±50% σ wander, ±0.5·σ bias,
    /// one full cycle every 64 time units.
    pub fn default_spec() -> Self {
        DriftSpec {
            sigma: 0.5,
            bias: 0.5,
            period: 64.0,
        }
    }
}

/// The *shape* of the per-sample noise, orthogonal to the magnitude model
/// ([`NoiseModel`], which only scales `σ0`).
///
/// The default is the paper's Gaussian (Eq. 1.2) and is bit-identical to the
/// pre-existing streams. Hostile shapes compose: a Student-t core, an
/// ε-contamination layer (rare `k·σ` spikes), and nonstationary drift can be
/// combined, e.g. `student_t:nu=3:eps=0.05:k=20` (DESIGN.md §14).
///
/// Draws are standardized to unit variance where the variance exists
/// (`ν > 2`); for `ν ≤ 2` the raw t variate is used and no finite variance
/// exists — which is exactly the regime the robust estimators are for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseDistribution {
    /// Student-t degrees of freedom of the core draw; `None` = Gaussian.
    nu: Option<f64>,
    /// Probability that a sample is a spike (ε-contamination).
    eps: f64,
    /// Spike magnitude multiplier `k` (spikes are `k · σ`-sized).
    spike: f64,
    /// Nonstationary drift, if any.
    drift: Option<DriftSpec>,
}

impl Default for NoiseDistribution {
    fn default() -> Self {
        Self::gaussian()
    }
}

impl NoiseDistribution {
    /// The paper's Gaussian noise (the default).
    pub fn gaussian() -> Self {
        NoiseDistribution {
            nu: None,
            eps: 0.0,
            spike: 0.0,
            drift: None,
        }
    }

    /// Heavy-tailed Student-t core with `nu` degrees of freedom.
    ///
    /// `ν ≤ 4` gives infinite kurtosis (naive variance estimates break
    /// down); `ν ≤ 2` gives infinite variance.
    pub fn student_t(nu: f64) -> Self {
        assert!(nu > 0.0 && nu.is_finite(), "student_t requires nu > 0");
        NoiseDistribution {
            nu: Some(nu),
            ..Self::gaussian()
        }
    }

    /// ε-contaminated Gaussian: with probability `eps` a sample's noise is
    /// multiplied by `k` (a rare huge spike).
    pub fn contaminated(eps: f64, k: f64) -> Self {
        Self::gaussian().with_contamination(eps, k)
    }

    /// Gaussian core with nonstationary drift.
    pub fn drifting(spec: DriftSpec) -> Self {
        NoiseDistribution {
            drift: Some(spec),
            ..Self::gaussian()
        }
    }

    /// Layer ε-contamination on top of the current core.
    pub fn with_contamination(mut self, eps: f64, k: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "eps must be in [0, 1]");
        assert!(k.is_finite(), "spike multiplier must be finite");
        self.eps = eps;
        self.spike = k;
        self
    }

    /// Layer nonstationary drift on top of the current core.
    pub fn with_drift(mut self, spec: DriftSpec) -> Self {
        assert!(
            spec.period > 0.0 && spec.period.is_finite(),
            "drift period must be positive"
        );
        self.drift = Some(spec);
        self
    }

    /// Whether this is exactly the paper's Gaussian model (no hostile layer
    /// active) — the condition for [`crate::sampler::Noisy`] to keep using
    /// the bit-identical legacy streams.
    pub fn is_gaussian(&self) -> bool {
        self.nu.is_none() && self.eps == 0.0 && self.drift.is_none()
    }

    /// Human-readable label (`student_t(nu=3)+eps=0.05,k=20`, ...).
    pub fn label(&self) -> String {
        let mut s = match self.nu {
            None => "gaussian".to_string(),
            Some(nu) => format!("student_t(nu={nu})"),
        };
        if self.eps > 0.0 {
            s.push_str(&format!("+eps={},k={}", self.eps, self.spike));
        }
        if let Some(d) = self.drift {
            s.push_str(&format!(
                "+drift(sigma={},bias={},period={})",
                d.sigma, d.bias, d.period
            ));
        }
        s
    }

    /// Parse the `NSX_NOISE` grammar: `<shape>[:key=value]*` with shapes
    /// `gaussian`, `student_t` (alias `t`), `contaminated`, `drift` and keys
    /// `nu`, `eps`, `k`, `sigma`, `bias`, `period`. Shapes only pick
    /// defaults; any key may be combined with any shape, e.g.
    /// `student_t:nu=3:eps=0.05:k=20`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let shape = parts.next().unwrap_or("").trim();
        let mut d = match shape {
            "" | "gaussian" | "normal" => Self::gaussian(),
            "student_t" | "t" => Self::student_t(3.0),
            "contaminated" => Self::contaminated(0.05, 20.0),
            "drift" => Self::drifting(DriftSpec::default_spec()),
            other => return Err(format!("unknown noise shape '{other}'")),
        };
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            let v: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("invalid number '{value}' for '{key}'"))?;
            match key.trim() {
                "nu" => {
                    if !(v > 0.0 && v.is_finite()) {
                        return Err(format!("nu must be > 0, got {v}"));
                    }
                    d.nu = Some(v);
                }
                "eps" => {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("eps must be in [0, 1], got {v}"));
                    }
                    d.eps = v;
                    if d.eps > 0.0 && d.spike == 0.0 {
                        d.spike = 20.0;
                    }
                }
                "k" => {
                    if !v.is_finite() {
                        return Err(format!("k must be finite, got {v}"));
                    }
                    d.spike = v;
                }
                "sigma" | "bias" | "period" => {
                    let mut spec = d.drift.unwrap_or(DriftSpec {
                        sigma: 0.0,
                        bias: 0.0,
                        period: 64.0,
                    });
                    match key.trim() {
                        "sigma" => spec.sigma = v,
                        "bias" => spec.bias = v,
                        _ => {
                            if !(v > 0.0 && v.is_finite()) {
                                return Err(format!("period must be > 0, got {v}"));
                            }
                            spec.period = v;
                        }
                    }
                    d.drift = Some(spec);
                }
                other => return Err(format!("unknown noise key '{other}'")),
            }
        }
        Ok(d)
    }

    /// Read `NSX_NOISE`, defaulting to Gaussian. Panics on an invalid spec —
    /// a misconfigured experiment must fail loudly, not silently fall back
    /// to the friendly distribution.
    pub fn from_env() -> Self {
        match std::env::var("NSX_NOISE") {
            Ok(spec) => match Self::parse(&spec) {
                Ok(d) => d,
                Err(e) => panic!("invalid NSX_NOISE='{spec}': {e}"),
            },
            Err(_) => Self::gaussian(),
        }
    }

    /// The standardized core draw for unit sample `index` of stream `seed`:
    /// unit variance where it exists, heavy tails / spikes as configured.
    ///
    /// Pure in `(seed, index)`: the draw is identical regardless of how
    /// extensions were batched or which worker executed them. Streams draw
    /// through [`observe_block`](Self::observe_block); this scalar form is
    /// its reference.
    #[inline]
    pub fn unit_variate(&self, seed: u64, index: u64) -> f64 {
        let mut rng = PerSampleRng::new(seed, index);
        // Fixed draw order (contamination coin first, then the core draw)
        // keeps the variate layout stable across parameter values.
        let spike = self.eps > 0.0 && rng.uniform() < self.eps;
        let z = match self.nu {
            None => rng.normal(),
            Some(nu) => {
                let t = rng.student_t(nu);
                if nu > 2.0 {
                    // Standardize to unit variance: Var[t_ν] = ν/(ν−2).
                    t * ((nu - 2.0) / nu).sqrt()
                } else {
                    t
                }
            }
        };
        if spike {
            z * self.spike
        } else {
            z
        }
    }

    /// One observed unit sample: underlying value `f`, unit standard
    /// deviation `unit_sd`, at stream-local virtual time `t` (for drift).
    #[inline]
    pub fn observe(&self, seed: u64, index: u64, t: f64, f: f64, unit_sd: f64) -> f64 {
        self.shift(t, f, unit_sd, self.unit_variate(seed, index))
    }

    /// Scale and shift a unit variate `z` into an observation at time `t`.
    #[inline]
    fn shift(&self, t: f64, f: f64, unit_sd: f64, z: f64) -> f64 {
        match self.drift {
            None => f + unit_sd * z,
            Some(d) => {
                let phase = std::f64::consts::TAU * t / d.period;
                let sigma_t = (unit_sd * (1.0 + d.sigma * phase.sin())).max(0.0);
                let bias_t = unit_sd * d.bias * phase.cos();
                f + bias_t + sigma_t * z
            }
        }
    }

    /// Block form of [`observe`](Self::observe): `out[j]` is, bit for bit,
    /// `observe(seed, first + j, (first + j + 1) · dt_sample, f, unit_sd)`
    /// — sample `first + j` observed at the end of its own time slice.
    ///
    /// Samples are drawn eight at a time. Word `k` of a sample's
    /// [`PerSampleRng`] is a pure function of `(seed, index, k)`, so the
    /// lanes compute the words the scalar draw would consume, in the same
    /// layout: the contamination coin at word 0 iff `eps > 0`, then the
    /// first polar pair at words `k0, k0 + 1` (`k0` = 1 with a coin, else
    /// 0). Each sample then finishes on its own — the libm `ln`/`powf`
    /// call, standardization, spike and shift — with the scalar draw's
    /// operations in its order, so no result bit changes. A sample whose
    /// pair falls outside the unit disc (~21% of samples) continues scalar
    /// from word `k0 + 2`, exactly where the scalar rejection loop would.
    pub fn observe_block(
        &self,
        seed: u64,
        first: u64,
        dt_sample: f64,
        f: f64,
        unit_sd: f64,
        out: &mut [f64],
    ) {
        let t_core = self.nu.map(|nu| TCore {
            nu,
            exponent: -2.0 / nu,
            // Standardize to unit variance where it exists: Var[t_ν] = ν/(ν−2).
            scale: (nu > 2.0).then(|| ((nu - 2.0) / nu).sqrt()),
        });
        let k0 = u64::from(self.eps > 0.0);
        for (c, chunk) in out.chunks_mut(LANES).enumerate() {
            let lane0 = first.wrapping_add((c * LANES) as u64);
            // Lane stage: the words of every sample's coin and first polar
            // pair. Without contamination word 0 is the pair's `u` and the
            // coin goes unused.
            let mut base = [0u64; LANES];
            let (mut coin, mut u, mut w) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                base[l] = child_seed(seed, lane0.wrapping_add(l as u64));
                coin[l] = word_to_unit(sample_word(base[l], 0));
                let uu = word_to_unit(sample_word(base[l], k0)) * 2.0 - 1.0;
                let vv = word_to_unit(sample_word(base[l], k0 + 1)) * 2.0 - 1.0;
                u[l] = uu;
                w[l] = uu * uu + vv * vv;
            }
            // Per sample: finish the draw in the scalar draw's operation
            // order, continuing a rejected pair scalar from word k0 + 2.
            for (j, x) in chunk.iter_mut().enumerate() {
                let (u, w) = (u[j], w[j]);
                let accepted = w > 0.0 && w < 1.0;
                let rest = || PerSampleRng::resume(base[j], k0 + 2);
                let z = match t_core {
                    None if accepted => u * (-2.0 * w.ln() / w).sqrt(),
                    None => rest().normal(),
                    Some(t) => {
                        let raw = if accepted {
                            u * (t.nu * (w.powf(t.exponent) - 1.0) / w).sqrt()
                        } else {
                            rest().student_t(t.nu)
                        };
                        t.scale.map_or(raw, |scale| raw * scale)
                    }
                };
                let z = if k0 == 1 && coin[j] < self.eps {
                    z * self.spike
                } else {
                    z
                };
                let t = lane0.wrapping_add(j as u64 + 1) as f64 * dt_sample;
                *x = self.shift(t, f, unit_sd, z);
            }
        }
    }

    /// Serialize for checkpointing (paired with [`load`](Self::load)).
    pub fn save(&self, w: &mut Writer) {
        w.put_opt_f64(self.nu);
        w.put_f64(self.eps);
        w.put_f64(self.spike);
        match self.drift {
            None => w.put_bool(false),
            Some(d) => {
                w.put_bool(true);
                w.put_f64(d.sigma);
                w.put_f64(d.bias);
                w.put_f64(d.period);
            }
        }
    }

    /// Reconstruct from bytes written by [`save`](Self::save).
    pub fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let nu = r.take_opt_f64()?;
        if let Some(nu) = nu {
            if !(nu > 0.0 && nu.is_finite()) {
                return Err(CodecError::Invalid {
                    what: "NoiseDistribution nu",
                });
            }
        }
        let eps = r.take_f64()?;
        let spike = r.take_f64()?;
        if !(0.0..=1.0).contains(&eps) || !spike.is_finite() {
            return Err(CodecError::Invalid {
                what: "NoiseDistribution contamination",
            });
        }
        let drift = if r.take_bool()? {
            let spec = DriftSpec {
                sigma: r.take_f64()?,
                bias: r.take_f64()?,
                period: r.take_f64()?,
            };
            if !(spec.period > 0.0 && spec.period.is_finite()) {
                return Err(CodecError::Invalid {
                    what: "NoiseDistribution drift period",
                });
            }
            Some(spec)
        } else {
            None
        };
        Ok(NoiseDistribution {
            nu,
            eps,
            spike,
            drift,
        })
    }
}

/// Student-t constants of [`NoiseDistribution::observe_block`], computed
/// once per block instead of once per sample.
#[derive(Debug, Clone, Copy)]
struct TCore {
    nu: f64,
    /// `−2/ν`, the polar method's `powf` exponent.
    exponent: f64,
    /// `√((ν−2)/ν)` for `ν > 2`; `None` leaves the raw t variate.
    scale: Option<f64>,
}

/// Convenience: evaluate `σ0` for a noise model over an objective at `x`.
pub fn sigma0_at<O: Objective, N: NoiseModel>(obj: &O, noise: &N, x: &[f64]) -> f64 {
    noise.sigma0(x, obj.value(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_noise_ignores_location() {
        let n = ConstantNoise(100.0);
        assert_eq!(n.sigma0(&[0.0], 0.0), 100.0);
        assert_eq!(n.sigma0(&[1e9, -3.0], 1e12), 100.0);
    }

    #[test]
    fn relative_noise_scales_and_floors() {
        let n = RelativeNoise {
            fraction: 0.1,
            floor: 0.5,
        };
        assert_eq!(n.sigma0(&[], 100.0), 10.0);
        assert_eq!(n.sigma0(&[], -100.0), 10.0);
        assert_eq!(n.sigma0(&[], 0.0), 0.5);
        assert_eq!(n.sigma0(&[], 1.0), 0.5);
    }

    #[test]
    fn zero_noise_is_zero() {
        assert_eq!(ZeroNoise.sigma0(&[1.0], 42.0), 0.0);
    }

    #[test]
    fn fn_noise_delegates() {
        let n = FnNoise(|x: &[f64], _f| x[0].abs() + 1.0);
        assert_eq!(n.sigma0(&[3.0], 0.0), 4.0);
    }

    #[test]
    fn distribution_grammar_round_trips() {
        assert_eq!(
            NoiseDistribution::parse("gaussian").unwrap(),
            NoiseDistribution::gaussian()
        );
        assert!(NoiseDistribution::parse("gaussian").unwrap().is_gaussian());
        let t3 = NoiseDistribution::parse("student_t:nu=3").unwrap();
        assert_eq!(t3, NoiseDistribution::student_t(3.0));
        assert!(!t3.is_gaussian());
        let combo = NoiseDistribution::parse("student_t:nu=3:eps=0.05:k=20").unwrap();
        assert_eq!(
            combo,
            NoiseDistribution::student_t(3.0).with_contamination(0.05, 20.0)
        );
        let drift = NoiseDistribution::parse("drift:sigma=0.3:period=10").unwrap();
        assert_eq!(
            drift,
            NoiseDistribution::drifting(DriftSpec {
                sigma: 0.3,
                bias: 0.5,
                period: 10.0
            })
        );
        // eps on its own picks a default spike size.
        let c = NoiseDistribution::parse("gaussian:eps=0.1").unwrap();
        assert_eq!(c, NoiseDistribution::contaminated(0.1, 20.0));
        assert!(NoiseDistribution::parse("cauchy").is_err());
        assert!(NoiseDistribution::parse("student_t:nu=-1").is_err());
        assert!(NoiseDistribution::parse("gaussian:eps=2").is_err());
        assert!(NoiseDistribution::parse("gaussian:nu").is_err());
    }

    #[test]
    fn distribution_codec_round_trips() {
        use crate::codec::{Reader, Writer};
        for spec in [
            "gaussian",
            "student_t:nu=2.5",
            "contaminated:eps=0.01:k=50",
            "student_t:nu=3:eps=0.05:k=20:sigma=0.4:bias=0.2:period=32",
        ] {
            let d = NoiseDistribution::parse(spec).unwrap();
            let mut w = Writer::new();
            d.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = NoiseDistribution::load(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(d, back, "{spec}");
        }
    }

    #[test]
    fn draws_are_pure_in_seed_and_index() {
        let d = NoiseDistribution::parse("student_t:nu=3:eps=0.05:k=20").unwrap();
        for i in 0..64u64 {
            assert_eq!(
                d.unit_variate(7, i).to_bits(),
                d.unit_variate(7, i).to_bits()
            );
        }
        assert_ne!(
            d.unit_variate(7, 0).to_bits(),
            d.unit_variate(8, 0).to_bits()
        );
    }

    #[test]
    fn drift_modulates_sigma_and_bias() {
        let d = NoiseDistribution::drifting(DriftSpec {
            sigma: 0.0,
            bias: 1.0,
            period: 4.0,
        });
        // With sigma modulation off and z scaled by unit_sd = 0 ... use a
        // direct check: at t = period the bias term is cos(2π) = 1.
        let x = d.observe(1, 0, 4.0, 10.0, 0.5);
        let z = d.unit_variate(1, 0);
        assert!((x - (10.0 + 0.5 + 0.5 * z)).abs() < 1e-12);
    }

    #[test]
    fn gaussian_label_and_combined_label() {
        assert_eq!(NoiseDistribution::gaussian().label(), "gaussian");
        let combo = NoiseDistribution::student_t(3.0).with_contamination(0.05, 20.0);
        assert_eq!(combo.label(), "student_t(nu=3)+eps=0.05,k=20");
    }
}
