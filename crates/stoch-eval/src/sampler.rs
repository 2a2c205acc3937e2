//! Sampling streams: the consistent Gaussian model of Eq. 1.1–1.2, and an
//! empirical batch-based estimator.
//!
//! # Consistency
//!
//! The paper's noise model says the observed value after sampling time `t` is
//! `f + ε`, `ε ~ N(0, σ0²/t)`. When an optimizer "resamples" a point it is
//! *continuing* the same simulation, so the new estimate must be a refinement
//! of the old one, not an independent redraw. [`GaussianStream`] realises
//! this with a Brownian accumulator: each increment `dt` adds
//! `N(f·dt, σ0²·dt)` to a running sum `S`, and the estimate is `S/t` which
//! has exactly variance `σ0²/t`. Successive estimates are correlated in the
//! way a true running average is.

use crate::codec::{CodecError, Reader, Writer};
use crate::noise::{NoiseDistribution, NoiseModel};
use crate::objective::{Estimate, Objective, SampleStream, StochasticObjective};
use crate::rng::rng_from_seed;
use crate::stats::{BlockMeans, EstimatorChoice, Moments, TailReport};
use rand::rngs::StdRng;
use rand::Rng;

/// Draw a standard normal variate via the Marsaglia polar method.
///
/// We implement this by hand to keep the workspace on the approved
/// dependency set (`rand` only, no `rand_distr`). Each accepted trial
/// produces two independent normals; this free function discards the
/// second — stream-owned sampling goes through [`NormalSource`], which
/// caches it.
#[inline]
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// A standard-normal source that keeps the spare Marsaglia variate.
///
/// The polar method yields two independent normals (`u·f` and `v·f`) per
/// accepted trial; caching the second halves the RNG and transcendental
/// cost for per-unit-sample loops like [`EmpiricalStream::extend`].
/// Cloning carries both the RNG state *and* the cached spare, so
/// clone-and-replay (the `mw` retry path) reproduces the exact variate
/// sequence — the cross-backend bit-identical contract is preserved.
///
/// Note the variate *sequence* differs from repeated [`standard_normal`]
/// calls on the same seed (that path discards spares), so seed-level
/// trajectories shift wherever a stream adopts this source.
#[derive(Debug, Clone)]
pub struct NormalSource {
    rng: StdRng,
    spare: Option<f64>,
}

impl NormalSource {
    /// A source seeded like [`rng_from_seed`], with no cached spare.
    pub fn new(seed: u64) -> Self {
        NormalSource {
            rng: rng_from_seed(seed),
            spare: None,
        }
    }

    /// Adopt an existing RNG mid-stream (no cached spare). Lets a caller
    /// that has been drawing through [`standard_normal`] hand its generator
    /// over to a spare-caching source without reseeding.
    pub fn from_rng(rng: StdRng) -> Self {
        NormalSource { rng, spare: None }
    }

    /// Draw one standard normal variate.
    #[inline]
    pub fn sample(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u: f64 = self.rng.gen_range(-1.0..1.0);
            let v: f64 = self.rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Fill `out` with standard normal variates — the bulk path for
    /// many-draw consumers (velocity initialization, per-step thermostat
    /// noise, batched unit samples).
    ///
    /// The draw order is *bit-exact* with `out.len()` successive
    /// [`sample`](Self::sample) calls: a cached spare is emitted first, each
    /// accepted polar trial then fills two slots, and a trailing odd variate
    /// leaves its partner cached — so mixing `fill` and `sample` calls in
    /// any interleaving yields one and the same variate sequence. The win is
    /// dispatch, not distribution: one bounds-checked loop, no per-draw
    /// `Option` churn, and the polar loop's second output is always
    /// consumed in-place while hot.
    pub fn fill(&mut self, out: &mut [f64]) {
        let mut at = 0;
        if at < out.len() {
            if let Some(z) = self.spare.take() {
                out[at] = z;
                at += 1;
            }
        }
        while at < out.len() {
            let (u, v, f) = loop {
                let u: f64 = self.rng.gen_range(-1.0..1.0);
                let v: f64 = self.rng.gen_range(-1.0..1.0);
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    break (u, v, (-2.0 * s.ln() / s).sqrt());
                }
            };
            out[at] = u * f;
            at += 1;
            if at < out.len() {
                out[at] = v * f;
                at += 1;
            } else {
                self.spare = Some(v * f);
            }
        }
    }

    /// Serialize the RNG state words *and* the cached spare variate.
    ///
    /// Persisting the spare is load-bearing for bit-identical resume: a
    /// restored source that dropped it would consume the RNG one accepted
    /// polar trial early and shift every subsequent variate.
    pub fn save_state(&self, w: &mut Writer) {
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_opt_f64(self.spare);
    }

    /// Reconstruct a source from bytes written by
    /// [`save_state`](Self::save_state).
    pub fn load_state(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.take_u64()?;
        }
        Ok(NormalSource {
            rng: StdRng::from_state(s),
            spare: r.take_opt_f64()?,
        })
    }
}

/// A consistent Gaussian sampling stream at a fixed point.
///
/// Estimate after total time `t`: `S/t ~ N(f, σ0²/t)`. The reported standard
/// error is the *oracle* value `σ0/√t`, matching the paper's assumption that
/// the expectation value of the noise is available to the algorithm.
#[derive(Debug, Clone)]
pub struct GaussianStream {
    f: f64,
    sigma0: f64,
    t: f64,
    sum: f64,
    nonfinite: u64,
    src: NormalSource,
}

impl GaussianStream {
    /// Start a stream at a point whose noise-free value is `f` with inherent
    /// noise magnitude `sigma0`.
    pub fn new(f: f64, sigma0: f64, seed: u64) -> Self {
        GaussianStream {
            f,
            sigma0,
            t: 0.0,
            sum: 0.0,
            nonfinite: 0,
            src: NormalSource::new(seed),
        }
    }

    /// The underlying noise-free value (test/measurement use only).
    pub fn underlying(&self) -> f64 {
        self.f
    }

    /// The inherent noise magnitude `σ0`.
    pub fn sigma0(&self) -> f64 {
        self.sigma0
    }
}

impl SampleStream for GaussianStream {
    fn extend(&mut self, dt: f64) {
        assert!(dt > 0.0, "sampling increment must be positive, got {dt}");
        // Brownian increment: N(f*dt, sigma0^2 * dt).
        let z = if self.sigma0 > 0.0 {
            self.src.sample()
        } else {
            0.0
        };
        let inc = self.f * dt + self.sigma0 * dt.sqrt() * z;
        if !inc.is_finite() {
            // Quarantine at ingestion: a NaN/Inf underlying value must not
            // reach the Brownian accumulator (it would silently poison every
            // later estimate). Time still advances — the sampling effort was
            // spent — and `estimate` reports `+inf` from now on.
            self.nonfinite += 1;
            self.t += dt;
            return;
        }
        self.sum += inc;
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
            // An unsampled stream is maximally uncertain; report the prior
            // mean with infinite error so no confidence comparison passes.
            return Estimate {
                value: self.f,
                std_err: f64::INFINITY,
                time: 0.0,
            };
        }
        Estimate {
            value: self.sum / self.t,
            std_err: if self.sigma0 > 0.0 {
                self.sigma0 / self.t.sqrt()
            } else {
                0.0
            },
            time: self.t,
        }
    }

    fn save_state(&self, w: &mut Writer) -> Result<(), CodecError> {
        w.put_f64(self.f);
        w.put_f64(self.sigma0);
        w.put_f64(self.t);
        w.put_f64(self.sum);
        w.put_u64(self.nonfinite);
        self.src.save_state(w);
        Ok(())
    }

    fn load_state(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GaussianStream {
            f: r.take_f64()?,
            sigma0: r.take_f64()?,
            t: r.take_f64()?,
            sum: r.take_f64()?,
            nonfinite: r.take_u64()?,
            src: NormalSource::load_state(r)?,
        })
    }

    fn wire_id() -> Option<&'static str> {
        Some("gaussian.v1")
    }

    fn nonfinite_samples(&self) -> u64 {
        self.nonfinite
    }
}

/// A stream that estimates its own standard error empirically from discrete
/// sample batches (no oracle knowledge of `σ0`).
///
/// Each `extend(dt)` draws `ceil(dt / dt_sample)` unit samples
/// `N(f, σ0²/dt_sample)` and folds them into a Welford accumulator; the
/// reported error is the standard error of the mean. This is the "realistic"
/// mode: the paper notes the inherent variance is not known ahead of time.
#[derive(Debug, Clone)]
pub struct EmpiricalStream {
    f: f64,
    sigma0: f64,
    dt_sample: f64,
    n: u64,
    mean: f64,
    m2: f64,
    nonfinite: u64,
    src: NormalSource,
}

impl EmpiricalStream {
    /// Start an empirical stream; `dt_sample` is the virtual duration of one
    /// discrete sample (one MD segment, one simulation batch, ...).
    pub fn new(f: f64, sigma0: f64, dt_sample: f64, seed: u64) -> Self {
        assert!(dt_sample > 0.0);
        EmpiricalStream {
            f,
            sigma0,
            dt_sample,
            n: 0,
            mean: 0.0,
            m2: 0.0,
            nonfinite: 0,
            src: NormalSource::new(seed),
        }
    }

    /// Whether unit samples from this stream are finite. Noise variates are
    /// always finite, so finiteness is a per-stream property of `f` and the
    /// unit standard deviation — either every sample is finite or every
    /// sample is quarantined, which keeps the single-sample and batched
    /// ingestion paths consistent.
    fn samples_finite(&self) -> bool {
        self.f.is_finite()
            && (self.sigma0 == 0.0 || (self.sigma0 / self.dt_sample.sqrt()).is_finite())
    }

    fn push(&mut self, x: f64) {
        if !x.is_finite() {
            // Quarantine at ingestion (see `SampleStream::nonfinite_samples`):
            // one NaN through Welford would corrupt `mean`/`m2` forever.
            self.nonfinite += 1;
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sufficient-statistics fast path for multi-sample extensions: one
    /// pass accumulating (count, sum, sum of squares) of the *deviations*
    /// from the known mean `f` (centering avoids the cancellation that
    /// makes raw sum-of-squares variance unstable), then a single Chan
    /// parallel-Welford merge into the running accumulator. Consumes
    /// exactly the same variate sequence as `batches` calls to `push`.
    fn extend_batched(&mut self, batches: u64) {
        if !self.samples_finite() {
            // Every unit sample would be non-finite: quarantine the whole
            // batch, but still consume the same number of noise variates as
            // the per-sample path so RNG trajectories stay aligned.
            for _ in 0..batches {
                if self.sigma0 > 0.0 {
                    let _ = self.src.sample();
                }
            }
            self.nonfinite += batches;
            return;
        }
        let unit_sd = self.sigma0 / self.dt_sample.sqrt();
        let (mut sum_c, mut sumsq_c) = (0.0, 0.0);
        for _ in 0..batches {
            let x_c = if self.sigma0 > 0.0 {
                unit_sd * self.src.sample()
            } else {
                0.0
            };
            sum_c += x_c;
            sumsq_c += x_c * x_c;
        }
        let nb = batches as f64;
        let mean_b = self.f + sum_c / nb;
        // Batch M2; clamp the rounding underflow that can make it -0-ish.
        let m2_b = (sumsq_c - sum_c * (sum_c / nb)).max(0.0);
        if self.n == 0 {
            self.n = batches;
            self.mean = mean_b;
            self.m2 = m2_b;
            return;
        }
        let na = self.n as f64;
        let n = na + nb;
        let delta = mean_b - self.mean;
        self.mean += delta * (nb / n);
        self.m2 += m2_b + delta * delta * na * (nb / n);
        self.n += batches;
    }
}

impl SampleStream for EmpiricalStream {
    fn extend(&mut self, dt: f64) {
        assert!(dt > 0.0);
        let batches = (dt / self.dt_sample).ceil().max(1.0) as u64;
        if batches > 1 {
            self.extend_batched(batches);
            return;
        }
        let unit_sd = self.sigma0 / self.dt_sample.sqrt();
        let z = if self.sigma0 > 0.0 {
            self.src.sample()
        } else {
            0.0
        };
        self.push(self.f + unit_sd * z);
    }

    fn estimate(&self) -> Estimate {
        if self.nonfinite > 0 {
            // Quarantined point: worst possible value with zero uncertainty,
            // so it loses every confidence comparison outright instead of
            // stalling gates behind an infinite error bar. Time counts the
            // quarantined draws — that sampling effort was spent.
            return Estimate {
                value: f64::INFINITY,
                std_err: 0.0,
                time: (self.n + self.nonfinite) as f64 * self.dt_sample,
            };
        }
        if self.n < 2 {
            return Estimate {
                value: if self.n == 1 { self.mean } else { self.f },
                std_err: f64::INFINITY,
                time: self.n as f64 * self.dt_sample,
            };
        }
        let var = self.m2 / (self.n - 1) as f64;
        Estimate {
            value: self.mean,
            std_err: (var / self.n as f64).sqrt(),
            time: self.n as f64 * self.dt_sample,
        }
    }

    fn save_state(&self, w: &mut Writer) -> Result<(), CodecError> {
        w.put_f64(self.f);
        w.put_f64(self.sigma0);
        w.put_f64(self.dt_sample);
        w.put_u64(self.n);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_u64(self.nonfinite);
        self.src.save_state(w);
        Ok(())
    }

    fn load_state(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let f = r.take_f64()?;
        let sigma0 = r.take_f64()?;
        let dt_sample = r.take_f64()?;
        if dt_sample.is_nan() || dt_sample <= 0.0 {
            return Err(CodecError::Invalid {
                what: "EmpiricalStream dt_sample",
            });
        }
        Ok(EmpiricalStream {
            f,
            sigma0,
            dt_sample,
            n: r.take_u64()?,
            mean: r.take_f64()?,
            m2: r.take_f64()?,
            nonfinite: r.take_u64()?,
            src: NormalSource::load_state(r)?,
        })
    }

    fn wire_id() -> Option<&'static str> {
        Some("empirical.v1")
    }

    fn nonfinite_samples(&self) -> u64 {
        self.nonfinite
    }
}

/// An empirical stream for *hostile* noise: any [`NoiseDistribution`]
/// (heavy tails, contamination, drift) with any [`EstimatorChoice`].
///
/// Unlike [`EmpiricalStream`], every unit sample's noise is a pure function
/// of `(seed, sample index)` via [`crate::rng::PerSampleRng`], so draws are
/// independent of how `extend` calls were batched, retried, or distributed
/// (the satellite RNG-derivation fix — DESIGN.md §14). The stream keeps
/// *all* sufficient statistics in parallel — full Welford moments to order
/// four (which also power the tail diagnostic) and round-robin block means —
/// so the reporting estimator can be switched mid-run without losing
/// history, which is what breakdown auto-degradation relies on.
#[derive(Debug, Clone)]
pub struct HostileStream {
    f: f64,
    sigma0: f64,
    dt_sample: f64,
    seed: u64,
    /// Unit samples drawn so far — the per-sample RNG index.
    drawn: u64,
    dist: NoiseDistribution,
    est: EstimatorChoice,
    moments: Moments,
    blocks: BlockMeans,
    outliers: u64,
    nonfinite: u64,
}

/// Samples needed before the running outlier test switches on — below
/// this the running standard deviation is too noisy to call anything an
/// outlier.
const OUTLIER_MIN_N: u64 = 16;

impl HostileStream {
    /// Start a hostile stream at a point whose noise-free value is `f`.
    /// `dt_sample` is the virtual duration of one unit sample; the block
    /// count is fixed at open time from `est` (see
    /// [`EstimatorChoice::block_count`]).
    pub fn new(
        f: f64,
        sigma0: f64,
        dt_sample: f64,
        seed: u64,
        dist: NoiseDistribution,
        est: EstimatorChoice,
    ) -> Self {
        assert!(dt_sample > 0.0);
        HostileStream {
            f,
            sigma0,
            dt_sample,
            seed,
            drawn: 0,
            dist,
            est,
            moments: Moments::new(),
            blocks: BlockMeans::new(est.block_count()),
            outliers: 0,
            nonfinite: 0,
        }
    }

    /// The distribution this stream draws from.
    pub fn distribution(&self) -> NoiseDistribution {
        self.dist
    }

    /// The estimator currently reported through `estimate`.
    pub fn estimator(&self) -> EstimatorChoice {
        self.est
    }

    /// Fold a block of samples in arrival order. The finite ones are
    /// compacted to the front of `xs` on the way, for the block means.
    fn ingest(&mut self, xs: &mut [f64]) {
        let mut kept = 0;
        for i in 0..xs.len() {
            let x = xs[i];
            if !x.is_finite() {
                // Quarantine at ingestion, exactly like EmpiricalStream: one
                // NaN through the accumulators would corrupt them forever.
                self.nonfinite += 1;
                continue;
            }
            // Outlier test against the *pre-update* running estimate: a
            // spike must not first inflate the σ it is measured against.
            if self.moments.count() >= OUTLIER_MIN_N {
                let sd = self.moments.variance().sqrt();
                if sd.is_finite() && sd > 0.0 && (x - self.moments.mean()).abs() > 6.0 * sd {
                    self.outliers += 1;
                }
            }
            self.moments.push(x);
            xs[kept] = x;
            kept += 1;
        }
        self.blocks.push_slice(&xs[..kept]);
    }
}

/// Unit samples [`HostileStream::extend`] draws and folds per block.
const DRAW_BLOCK: usize = 64;

impl SampleStream for HostileStream {
    fn extend(&mut self, dt: f64) {
        assert!(dt > 0.0);
        let mut left = (dt / self.dt_sample).ceil().max(1.0) as u64;
        let unit_sd = self.sigma0 / self.dt_sample.sqrt();
        let mut buf = [0.0; DRAW_BLOCK];
        while left > 0 {
            let n = left.min(DRAW_BLOCK as u64) as usize;
            let block = &mut buf[..n];
            if self.sigma0 > 0.0 {
                self.dist.observe_block(
                    self.seed,
                    self.drawn,
                    self.dt_sample,
                    self.f,
                    unit_sd,
                    block,
                );
            } else {
                // Zero noise stays exactly deterministic: drift bias scales
                // with the unit σ, so it vanishes too.
                block.fill(self.f);
            }
            self.drawn += n as u64;
            left -= n as u64;
            self.ingest(block);
        }
    }

    fn estimate(&self) -> Estimate {
        if self.nonfinite > 0 {
            // Quarantined point: worst value, zero uncertainty — loses every
            // ordering comparison outright (see EmpiricalStream::estimate).
            return Estimate {
                value: f64::INFINITY,
                std_err: 0.0,
                time: (self.moments.count() + self.nonfinite) as f64 * self.dt_sample,
            };
        }
        let n = self.moments.count();
        let time = n as f64 * self.dt_sample;
        if n == 0 {
            return Estimate {
                value: self.f,
                std_err: f64::INFINITY,
                time: 0.0,
            };
        }
        if self.sigma0 == 0.0 {
            return Estimate {
                value: self.moments.mean(),
                std_err: 0.0,
                time,
            };
        }
        match self.est {
            EstimatorChoice::Welford => Estimate {
                value: self.moments.mean(),
                std_err: if n < 2 {
                    f64::INFINITY
                } else {
                    (self.moments.variance() / n as f64).sqrt()
                },
                time,
            },
            robust => {
                let pair = match robust {
                    EstimatorChoice::TrimmedMean { .. } => {
                        self.blocks.trimmed_mean(robust.trim_fraction())
                    }
                    _ => self.blocks.median_of_means(),
                };
                let (value, std_err) = pair.unwrap_or((self.f, f64::INFINITY));
                // Below ~one sample per block the block means are single
                // draws and their dispersion is meaningless: stay maximally
                // uncertain rather than reporting a sharp error bar.
                let enough = n >= self.blocks.blocks() as u64 + 2;
                Estimate {
                    value,
                    std_err: if enough { std_err } else { f64::INFINITY },
                    time,
                }
            }
        }
    }

    fn save_state(&self, w: &mut Writer) -> Result<(), CodecError> {
        w.put_f64(self.f);
        w.put_f64(self.sigma0);
        w.put_f64(self.dt_sample);
        w.put_u64(self.seed);
        w.put_u64(self.drawn);
        self.dist.save(w);
        self.est.save(w);
        self.moments.save(w);
        self.blocks.save(w);
        w.put_u64(self.outliers);
        w.put_u64(self.nonfinite);
        Ok(())
    }

    fn load_state(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let f = r.take_f64()?;
        let sigma0 = r.take_f64()?;
        let dt_sample = r.take_f64()?;
        if dt_sample.is_nan() || dt_sample <= 0.0 {
            return Err(CodecError::Invalid {
                what: "HostileStream dt_sample",
            });
        }
        Ok(HostileStream {
            f,
            sigma0,
            dt_sample,
            seed: r.take_u64()?,
            drawn: r.take_u64()?,
            dist: NoiseDistribution::load(r)?,
            est: EstimatorChoice::load(r)?,
            moments: Moments::load(r)?,
            blocks: BlockMeans::load(r)?,
            outliers: r.take_u64()?,
            nonfinite: r.take_u64()?,
        })
    }

    fn wire_id() -> Option<&'static str> {
        Some("hostile.v1")
    }

    fn nonfinite_samples(&self) -> u64 {
        self.nonfinite
    }

    fn tail_report(&self) -> Option<TailReport> {
        let n = self.moments.count();
        if n == 0 {
            return None;
        }
        Some(TailReport {
            n,
            excess_kurtosis: self.moments.excess_kurtosis(),
            outlier_frac: self.outliers as f64 / n as f64,
        })
    }

    fn set_estimator(&mut self, choice: EstimatorChoice) {
        // Only the *reporting* changes; the block layout was fixed at open,
        // so the sufficient statistics are untouched and the switch is
        // loss-free and bit-deterministic at any point in the run.
        self.est = choice;
    }
}

/// Wrap a deterministic [`Objective`] with a [`NoiseModel`] to obtain a
/// [`StochasticObjective`] whose streams follow Eq. 1.1–1.2.
#[derive(Debug, Clone)]
pub struct Noisy<O, N> {
    objective: O,
    noise: N,
    empirical: bool,
    dt_sample: f64,
    dist: NoiseDistribution,
    estimator: EstimatorChoice,
}

impl<O: Objective, N: NoiseModel> Noisy<O, N> {
    /// Oracle-error mode (default; matches the paper's experiments).
    ///
    /// Honours the `NSX_NOISE` / `NSX_ESTIMATOR` environment: a hostile
    /// distribution or non-Welford estimator switches the opened streams to
    /// [`HostileStream`]. With both at their defaults this is bit-identical
    /// to the historical behaviour. Use [`gaussian`](Self::gaussian) to pin
    /// the paper's exact model regardless of environment.
    pub fn new(objective: O, noise: N) -> Self {
        Noisy {
            objective,
            noise,
            empirical: false,
            dt_sample: 1.0,
            dist: NoiseDistribution::from_env(),
            estimator: EstimatorChoice::from_env(),
        }
    }

    /// Empirical-error mode: streams estimate their own standard error from
    /// batches of duration `dt_sample`. Honours `NSX_NOISE` /
    /// `NSX_ESTIMATOR` like [`new`](Self::new).
    pub fn empirical(objective: O, noise: N, dt_sample: f64) -> Self {
        Noisy {
            objective,
            noise,
            empirical: true,
            dt_sample,
            dist: NoiseDistribution::from_env(),
            estimator: EstimatorChoice::from_env(),
        }
    }

    /// The paper's exact model — oracle Gaussian streams with Welford
    /// reporting — *ignoring* any `NSX_NOISE`/`NSX_ESTIMATOR` environment.
    /// For tests and exhibits that assert Gaussian-specific values.
    pub fn gaussian(objective: O, noise: N) -> Self {
        Noisy {
            objective,
            noise,
            empirical: false,
            dt_sample: 1.0,
            dist: NoiseDistribution::gaussian(),
            estimator: EstimatorChoice::Welford,
        }
    }

    /// Override the noise distribution (builder style).
    pub fn with_distribution(mut self, dist: NoiseDistribution) -> Self {
        self.dist = dist;
        self
    }

    /// Override the reporting estimator (builder style).
    pub fn with_estimator(mut self, estimator: EstimatorChoice) -> Self {
        self.estimator = estimator;
        self
    }

    /// The distribution streams will draw from.
    pub fn distribution(&self) -> NoiseDistribution {
        self.dist
    }

    /// The estimator streams will report through.
    pub fn estimator(&self) -> EstimatorChoice {
        self.estimator
    }

    /// Access the wrapped deterministic objective.
    pub fn objective(&self) -> &O {
        &self.objective
    }
}

/// Stream type produced by [`Noisy`]: oracle Gaussian, empirical, or
/// hostile (non-Gaussian distribution and/or robust estimator).
#[derive(Debug, Clone)]
pub enum NoisyStream {
    /// Oracle-error Gaussian stream.
    Oracle(GaussianStream),
    /// Batch-based empirical stream.
    Empirical(EmpiricalStream),
    /// Hostile-noise stream (any distribution, any estimator).
    Hostile(HostileStream),
}

impl SampleStream for NoisyStream {
    fn extend(&mut self, dt: f64) {
        match self {
            NoisyStream::Oracle(s) => s.extend(dt),
            NoisyStream::Empirical(s) => s.extend(dt),
            NoisyStream::Hostile(s) => s.extend(dt),
        }
    }
    fn estimate(&self) -> Estimate {
        match self {
            NoisyStream::Oracle(s) => s.estimate(),
            NoisyStream::Empirical(s) => s.estimate(),
            NoisyStream::Hostile(s) => s.estimate(),
        }
    }

    fn save_state(&self, w: &mut Writer) -> Result<(), CodecError> {
        match self {
            NoisyStream::Oracle(s) => {
                w.put_u8(0);
                s.save_state(w)
            }
            NoisyStream::Empirical(s) => {
                w.put_u8(1);
                s.save_state(w)
            }
            NoisyStream::Hostile(s) => {
                w.put_u8(2);
                s.save_state(w)
            }
        }
    }

    fn load_state(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(NoisyStream::Oracle(GaussianStream::load_state(r)?)),
            1 => Ok(NoisyStream::Empirical(EmpiricalStream::load_state(r)?)),
            2 => Ok(NoisyStream::Hostile(HostileStream::load_state(r)?)),
            tag => Err(CodecError::Tag {
                what: "NoisyStream variant",
                tag,
            }),
        }
    }

    // Still "noisy.v1": adding the Hostile tag is a compatible extension —
    // every byte layout that decoded before still decodes to the same
    // stream, and a newer master never sends tag 2 to an older worker
    // (master and workers are the same binary).
    fn wire_id() -> Option<&'static str> {
        Some("noisy.v1")
    }

    fn nonfinite_samples(&self) -> u64 {
        match self {
            NoisyStream::Oracle(s) => s.nonfinite_samples(),
            NoisyStream::Empirical(s) => s.nonfinite_samples(),
            NoisyStream::Hostile(s) => s.nonfinite_samples(),
        }
    }

    fn tail_report(&self) -> Option<TailReport> {
        match self {
            NoisyStream::Hostile(s) => s.tail_report(),
            _ => None,
        }
    }

    fn set_estimator(&mut self, choice: EstimatorChoice) {
        if let NoisyStream::Hostile(s) = self {
            s.set_estimator(choice);
        }
    }
}

impl<O: Objective, N: NoiseModel> StochasticObjective for Noisy<O, N> {
    type Stream = NoisyStream;

    fn dim(&self) -> usize {
        self.objective.dim()
    }

    fn open(&self, x: &[f64], seed: u64) -> NoisyStream {
        let f = self.objective.value(x);
        let sigma0 = self.noise.sigma0(x, f);
        if !self.dist.is_gaussian() || self.estimator != EstimatorChoice::Welford {
            // Any hostile layer (or a robust reporting estimator) needs the
            // per-sample stream; the Gaussian+Welford default keeps the
            // legacy streams bit-identical to every release before the seam.
            NoisyStream::Hostile(HostileStream::new(
                f,
                sigma0,
                self.dt_sample,
                seed,
                self.dist,
                self.estimator,
            ))
        } else if self.empirical {
            NoisyStream::Empirical(EmpiricalStream::new(f, sigma0, self.dt_sample, seed))
        } else {
            NoisyStream::Oracle(GaussianStream::new(f, sigma0, seed))
        }
    }

    fn true_value(&self, x: &[f64]) -> Option<f64> {
        Some(self.objective.value(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{ConstantNoise, ZeroNoise};
    use crate::objective::Objective;

    struct Const(f64);
    impl Objective for Const {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, _x: &[f64]) -> f64 {
            self.0
        }
    }

    #[test]
    fn unsampled_stream_is_infinitely_uncertain() {
        let s = GaussianStream::new(5.0, 1.0, 1);
        let e = s.estimate();
        assert!(e.std_err.is_infinite());
        assert_eq!(e.time, 0.0);
    }

    #[test]
    fn oracle_error_shrinks_as_inverse_sqrt_t() {
        let mut s = GaussianStream::new(0.0, 10.0, 2);
        s.extend(4.0);
        assert!((s.estimate().std_err - 5.0).abs() < 1e-12);
        s.extend(12.0); // t = 16
        assert!((s.estimate().std_err - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_noise_stream_is_exact() {
        let mut s = GaussianStream::new(3.25, 0.0, 3);
        s.extend(1.0);
        let e = s.estimate();
        assert_eq!(e.value, 3.25);
        assert_eq!(e.std_err, 0.0);
    }

    #[test]
    fn estimate_converges_to_underlying() {
        let mut s = GaussianStream::new(7.0, 50.0, 4);
        s.extend(1.0);
        let rough = (s.estimate().value - 7.0).abs();
        s.extend(1e6);
        let fine = (s.estimate().value - 7.0).abs();
        assert!(fine < rough.max(1.0));
        assert!(fine < 0.5, "fine error {fine} too large");
    }

    #[test]
    fn refinement_is_consistent_running_average() {
        // Extending must update the estimate as a weighted running average:
        // after a huge extension the earlier noise contribution washes out.
        let mut s = GaussianStream::new(0.0, 100.0, 5);
        s.extend(1.0);
        let e1 = s.estimate().value;
        s.extend(1e8);
        let e2 = s.estimate().value;
        assert!(e2.abs() < e1.abs().max(0.5));
    }

    #[test]
    fn empirical_error_tracks_oracle() {
        let mut s = EmpiricalStream::new(0.0, 10.0, 1.0, 6);
        s.extend(10_000.0);
        let e = s.estimate();
        let oracle = 10.0 / 10_000.0_f64.sqrt();
        assert!(
            (e.std_err - oracle).abs() / oracle < 0.2,
            "empirical {} vs oracle {}",
            e.std_err,
            oracle
        );
        assert!(e.value.abs() < 5.0 * oracle);
    }

    #[test]
    fn noisy_wrapper_reports_truth_and_respects_zero_noise() {
        let obj = Noisy::new(Const(9.0), ZeroNoise);
        assert_eq!(obj.true_value(&[0.0]), Some(9.0));
        let mut st = obj.open(&[0.0], 0);
        st.extend(1.0);
        assert_eq!(st.estimate().value, 9.0);
        assert_eq!(st.estimate().std_err, 0.0);
    }

    #[test]
    fn noisy_streams_with_different_seeds_differ() {
        let obj = Noisy::new(Const(0.0), ConstantNoise(10.0));
        let mut a = obj.open(&[0.0], 1);
        let mut b = obj.open(&[0.0], 2);
        a.extend(1.0);
        b.extend(1.0);
        assert_ne!(a.estimate().value, b.estimate().value);
    }

    #[test]
    fn normal_source_moments_and_spare_reuse() {
        let mut src = NormalSource::new(99);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let z = src.sample();
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        // Spare caching: the second draw comes from the cache, not the RNG,
        // so one accepted polar trial serves two samples. Verify clones
        // replay identically (the mw retry contract) including the spare.
        let mut a = NormalSource::new(5);
        let _ = a.sample(); // leaves a spare cached
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.sample().to_bits(), b.sample().to_bits());
        }
    }

    #[test]
    fn fill_is_bit_exact_with_sample_loop() {
        // Every interleaving of fill sizes (odd, even, empty, size 1) must
        // reproduce the one-at-a-time sample() sequence exactly, including
        // spare hand-off across call boundaries.
        for sizes in [
            vec![7usize, 4, 0, 1, 6],
            vec![1, 1, 1, 1],
            vec![10],
            vec![0, 5, 3],
        ] {
            let total: usize = sizes.iter().sum();
            let mut reference = NormalSource::new(42);
            let expected: Vec<f64> = (0..total).map(|_| reference.sample()).collect();
            let mut bulk = NormalSource::new(42);
            let mut got = Vec::with_capacity(total);
            for len in &sizes {
                let mut buf = vec![0.0; *len];
                bulk.fill(&mut buf);
                got.extend_from_slice(&buf);
            }
            for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(e.to_bits(), g.to_bits(), "sizes {sizes:?}, draw {i}");
            }
            // The sources end in the same state: next draws still agree.
            assert_eq!(reference.sample().to_bits(), bulk.sample().to_bits());
        }
        // A fill can also *start* from a cached spare left by sample().
        let mut a = NormalSource::new(77);
        let mut b = NormalSource::new(77);
        let first = [a.sample(), a.sample(), a.sample()];
        let _ = b.sample(); // leaves a spare cached
        let mut buf = [0.0; 2];
        b.fill(&mut buf);
        assert_eq!(first[1].to_bits(), buf[0].to_bits());
        assert_eq!(first[2].to_bits(), buf[1].to_bits());
    }

    #[test]
    fn from_rng_continues_the_generator() {
        let mut rng = rng_from_seed(31);
        let _ = standard_normal(&mut rng);
        let mut src = NormalSource::from_rng(rng.clone());
        // Same generator state, no spare: the next accepted trial's first
        // output matches a direct standard_normal draw.
        assert_eq!(src.sample().to_bits(), standard_normal(&mut rng).to_bits());
    }

    #[test]
    fn gaussian_stream_quarantines_nonfinite() {
        let mut s = GaussianStream::new(f64::NAN, 1.0, 7);
        s.extend(1.0);
        s.extend(2.0);
        assert_eq!(s.nonfinite_samples(), 2);
        let e = s.estimate();
        assert_eq!(e.value, f64::INFINITY);
        assert_eq!(e.std_err, 0.0);
        assert_eq!(e.time, 3.0); // sampling effort still counted
    }

    #[test]
    fn empirical_stream_quarantines_both_paths() {
        // Single-sample path.
        let mut s = EmpiricalStream::new(f64::INFINITY, 1.0, 1.0, 8);
        s.extend(1.0);
        assert_eq!(s.nonfinite_samples(), 1);
        // Batched path consumes the same variate count as per-sample pushes.
        let mut a = EmpiricalStream::new(f64::NAN, 2.0, 1.0, 9);
        let mut b = a.clone();
        a.extend(16.0); // batched
        for _ in 0..16 {
            b.extend(1.0); // per-sample
        }
        assert_eq!(a.nonfinite_samples(), 16);
        assert_eq!(b.nonfinite_samples(), 16);
        assert_eq!(a.src.sample().to_bits(), b.src.sample().to_bits());
        let e = a.estimate();
        assert_eq!(e.value, f64::INFINITY);
        assert_eq!(e.std_err, 0.0);
        assert_eq!(e.time, 16.0);
    }

    #[test]
    fn finite_streams_report_zero_nonfinite() {
        let mut g = GaussianStream::new(1.0, 2.0, 10);
        g.extend(5.0);
        assert_eq!(g.nonfinite_samples(), 0);
        let mut e = EmpiricalStream::new(1.0, 2.0, 1.0, 10);
        e.extend(5.0);
        assert_eq!(e.nonfinite_samples(), 0);
    }

    /// Save → load → continue must be bit-identical to continuing directly.
    fn assert_replay_identical<S: SampleStream>(mut live: S) {
        let mut w = Writer::new();
        live.save_state(&mut w).expect("save");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut restored = S::load_state(&mut r).expect("load");
        r.finish().expect("no trailing bytes");
        for i in 0..50 {
            live.extend(0.7);
            restored.extend(0.7);
            let (a, b) = (live.estimate(), restored.estimate());
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "value step {i}");
            assert_eq!(a.std_err.to_bits(), b.std_err.to_bits(), "err step {i}");
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "time step {i}");
        }
    }

    #[test]
    fn gaussian_stream_state_round_trip() {
        let mut s = GaussianStream::new(3.0, 7.0, 11);
        s.extend(2.5); // leaves a cached spare in the NormalSource
        assert_replay_identical(s);
    }

    #[test]
    fn empirical_stream_state_round_trip() {
        let mut s = EmpiricalStream::new(-1.0, 4.0, 0.5, 12);
        s.extend(3.0);
        assert_replay_identical(s);
    }

    #[test]
    fn noisy_stream_state_round_trip_both_variants() {
        let oracle = Noisy::new(Const(2.0), ConstantNoise(3.0));
        let mut s = oracle.open(&[0.0], 13);
        s.extend(1.0);
        assert_replay_identical(s);
        let emp = Noisy::empirical(Const(2.0), ConstantNoise(3.0), 1.0);
        let mut s = emp.open(&[0.0], 14);
        s.extend(4.0);
        assert_replay_identical(s);
    }

    #[test]
    fn empirical_load_rejects_bad_dt_sample() {
        let mut s = EmpiricalStream::new(0.0, 1.0, 1.0, 15);
        s.extend(1.0);
        let mut w = Writer::new();
        s.save_state(&mut w).expect("save");
        let mut bytes = w.into_bytes();
        // dt_sample is the third f64 field (bytes 16..24); zero it out.
        bytes[16..24].copy_from_slice(&0.0f64.to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            EmpiricalStream::load_state(&mut r),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn hostile_gaussian_tracks_empirical_statistics() {
        let dist = NoiseDistribution::gaussian();
        let mut s = HostileStream::new(0.0, 10.0, 1.0, 21, dist, EstimatorChoice::Welford);
        s.extend(10_000.0);
        let e = s.estimate();
        let oracle = 10.0 / 10_000.0_f64.sqrt();
        assert!(
            (e.std_err - oracle).abs() / oracle < 0.2,
            "hostile gaussian std_err {} vs oracle {}",
            e.std_err,
            oracle
        );
        assert!(e.value.abs() < 5.0 * oracle);
        let rep = s.tail_report().expect("has samples");
        assert!(rep.excess_kurtosis.abs() < 0.5, "{rep:?}");
        assert!(rep.outlier_frac < 0.001, "{rep:?}");
    }

    /// Every shape the block draw tells apart: Gaussian or Student-t core
    /// (standardized for ν > 2, raw for ν ≤ 2), the contamination coin on
    /// or off, drift on or off.
    const HOSTILE_SHAPES: [&str; 12] = [
        "gaussian",
        "contaminated:eps=0.05:k=20",
        "student_t:nu=1",
        "student_t:nu=1:eps=0.05:k=20",
        "student_t:nu=2",
        "student_t:nu=2:eps=0.05:k=20",
        "student_t:nu=3",
        "student_t:nu=3:eps=0.05:k=20",
        "student_t:nu=10",
        "student_t:nu=10:eps=0.05:k=20",
        "drift:sigma=0.5:bias=0.5:period=16",
        "student_t:nu=3:eps=0.05:k=20:sigma=0.5:bias=0.5:period=16",
    ];

    fn state_bytes(s: &HostileStream) -> Vec<u8> {
        let mut w = Writer::new();
        s.save_state(&mut w).expect("save");
        w.into_bytes()
    }

    #[test]
    fn hostile_draws_do_not_depend_on_batching() {
        // Extension sizes straddling the 8-wide lanes and the 64-sample
        // draw block; run in sequence, later ones start mid-lane.
        let sizes = [1u64, 7, 8, 9, 63, 64, 65, 1000];
        let dt = 0.5;
        for spec in HOSTILE_SHAPES {
            let dist = NoiseDistribution::parse(spec).unwrap();
            let est = EstimatorChoice::MedianOfMeans { blocks: 5 };
            let fresh = HostileStream::new(1.0, 5.0, dt, 22, dist, est);
            // Oracle: the scalar per-sample draw folded one sample at a time.
            let mut oracle = fresh.clone();
            let unit_sd = 5.0 / dt.sqrt();
            let mut batched = fresh.clone();
            let mut single = fresh;
            for &n in &sizes {
                for _ in 0..n {
                    let i = oracle.drawn;
                    let t = (i + 1) as f64 * dt;
                    let mut x = [dist.observe(22, i, t, 1.0, unit_sd)];
                    oracle.drawn += 1;
                    oracle.ingest(&mut x);
                }
                batched.extend(n as f64 * dt);
                for _ in 0..n {
                    single.extend(dt);
                }
                let want = state_bytes(&oracle);
                assert_eq!(state_bytes(&batched), want, "{spec}: extend({n})");
                assert_eq!(state_bytes(&single), want, "{spec}: {n} one-sample extends");
            }
        }
    }

    #[test]
    fn hostile_zero_noise_is_exact_even_with_drift() {
        let dist = NoiseDistribution::parse("drift:sigma=0.9:bias=2.0:period=8").unwrap();
        let obj = Noisy::gaussian(Const(4.5), ZeroNoise).with_distribution(dist);
        let mut st = obj.open(&[0.0], 0);
        st.extend(5.0);
        let e = st.estimate();
        assert_eq!(e.value, 4.5);
        assert_eq!(e.std_err, 0.0);
    }

    #[test]
    fn hostile_estimator_switch_is_loss_free() {
        let dist = NoiseDistribution::student_t(3.0);
        let mut s = HostileStream::new(0.0, 5.0, 1.0, 23, dist, EstimatorChoice::Welford);
        s.extend(200.0);
        let welford = s.estimate();
        s.set_estimator(EstimatorChoice::MedianOfMeans { blocks: 8 });
        let robust = s.estimate();
        assert_ne!(welford.std_err.to_bits(), robust.std_err.to_bits());
        // Switching back restores the exact Welford report: nothing was lost.
        s.set_estimator(EstimatorChoice::Welford);
        let back = s.estimate();
        assert_eq!(welford.value.to_bits(), back.value.to_bits());
        assert_eq!(welford.std_err.to_bits(), back.std_err.to_bits());
    }

    #[test]
    fn hostile_robust_estimate_needs_enough_samples() {
        let dist = NoiseDistribution::gaussian();
        let mut s = HostileStream::new(
            0.0,
            1.0,
            1.0,
            24,
            dist,
            EstimatorChoice::MedianOfMeans { blocks: 8 },
        );
        s.extend(4.0); // fewer than blocks + 2 samples
        assert!(s.estimate().std_err.is_infinite());
        s.extend(60.0);
        assert!(s.estimate().std_err.is_finite());
    }

    #[test]
    fn hostile_stream_quarantines_nonfinite() {
        let dist = NoiseDistribution::student_t(3.0);
        let mut s = HostileStream::new(f64::NAN, 1.0, 1.0, 25, dist, EstimatorChoice::Welford);
        s.extend(3.0);
        assert_eq!(s.nonfinite_samples(), 3);
        let e = s.estimate();
        assert_eq!(e.value, f64::INFINITY);
        assert_eq!(e.std_err, 0.0);
        assert_eq!(e.time, 3.0);
    }

    #[test]
    fn hostile_stream_state_round_trip() {
        for spec in [
            "student_t:nu=3",
            "contaminated:eps=0.05:k=20",
            "drift:sigma=0.5:bias=0.5:period=16",
            "student_t:nu=3:eps=0.05:k=20",
        ] {
            let dist = NoiseDistribution::parse(spec).unwrap();
            let mut s = HostileStream::new(
                2.0,
                3.0,
                0.5,
                26,
                dist,
                EstimatorChoice::MedianOfMeans { blocks: 4 },
            );
            s.extend(7.0);
            assert_replay_identical(s);
        }
    }

    #[test]
    fn noisy_env_defaults_preserve_legacy_streams() {
        // With no hostile layer configured the wrapper must open the exact
        // legacy stream types (the bit-identical default contract) — unless
        // the environment opts in, in which case Hostile is correct.
        let hostile_env = std::env::var("NSX_NOISE").is_ok_and(|s| {
            !NoiseDistribution::parse(&s)
                .map(|d| d.is_gaussian())
                .unwrap_or(true)
        }) || std::env::var("NSX_ESTIMATOR")
            .is_ok_and(|s| EstimatorChoice::parse(&s) != Ok(EstimatorChoice::Welford));
        let obj = Noisy::new(Const(1.0), ConstantNoise(1.0));
        match obj.open(&[0.0], 0) {
            NoisyStream::Oracle(_) => assert!(!hostile_env),
            NoisyStream::Hostile(_) => assert!(hostile_env),
            NoisyStream::Empirical(_) => panic!("oracle mode opened an empirical stream"),
        }
        // Pinned constructor ignores the environment entirely.
        let pinned = Noisy::gaussian(Const(1.0), ConstantNoise(1.0));
        assert!(matches!(pinned.open(&[0.0], 0), NoisyStream::Oracle(_)));
        // Builder overrides open hostile streams regardless of environment.
        let t3 = Noisy::gaussian(Const(1.0), ConstantNoise(1.0))
            .with_distribution(NoiseDistribution::student_t(3.0));
        assert!(matches!(t3.open(&[0.0], 0), NoisyStream::Hostile(_)));
    }

    #[test]
    fn noisy_hostile_stream_round_trips_through_noisy_codec() {
        let obj = Noisy::gaussian(Const(2.0), ConstantNoise(3.0))
            .with_distribution(NoiseDistribution::parse("student_t:nu=3:eps=0.02").unwrap())
            .with_estimator(EstimatorChoice::MedianOfMeans { blocks: 8 });
        let mut s = obj.open(&[0.0], 27);
        s.extend(12.0);
        assert_replay_identical(s);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng_from_seed(99);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}
