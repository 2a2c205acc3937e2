//! Statistics used by the experiment harness: streaming moments, quantiles,
//! histograms, and the paired log-ratio analysis behind Figs 3.5–3.17 —
//! plus the robust-estimator seam (median-of-means / trimmed-mean block
//! accumulators and the tail diagnostics behind breakdown-aware gating,
//! DESIGN.md §14).
//!
//! This module is on the hot decision path of every gate, so it must never
//! panic on data: `unwrap`/`expect` are denied, empty-sample quantiles
//! return a documented `NaN`, and sorting uses the `total_cmp` order (NaNs
//! sort last) instead of panicking on incomparable values.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::codec::{CodecError, Reader, Writer};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        (self.variance() / self.n as f64).sqrt()
    }

    /// Merge two accumulators (parallel reduction).
    pub fn merge(&self, other: &Welford) -> Welford {
        if self.n == 0 {
            return other.clone();
        }
        if other.n == 0 {
            return self.clone();
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        Welford { n, mean, m2 }
    }
}

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (linear-interpolated).
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample (empty samples yield NaNs, n = 0).
    pub fn of(data: &[f64]) -> Summary {
        if data.is_empty() {
            return Summary {
                n: 0,
                mean: f64::NAN,
                std_dev: f64::NAN,
                min: f64::NAN,
                median: f64::NAN,
                max: f64::NAN,
            };
        }
        let mut w = Welford::new();
        for &x in data {
            w.push(x);
        }
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: data.len(),
            mean: w.mean(),
            std_dev: if data.len() > 1 { w.std_dev() } else { 0.0 },
            min: sorted[0],
            median: quantile_sorted(&sorted, 0.5),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Linear-interpolated quantile of an already-sorted sample, `q ∈ [0, 1]`.
///
/// An empty sample yields `NaN` (a quantile of nothing is undefined — this
/// used to be a panic path). Out-of-range `q` is clamped to `[0, 1]`, and
/// the sort order expected is [`f64::total_cmp`]'s, under which any `NaN`s
/// sort last (so they only surface through the top quantiles).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Linear-interpolated quantile of an unsorted sample; `NaN` when empty
/// (see [`quantile_sorted`]). NaN observations sort last rather than
/// panicking the comparison.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Which location/scale estimator a sampling stream reports through
/// `estimate()` (DESIGN.md §14).
///
/// [`Welford`](EstimatorChoice::Welford) is the classical mean / standard
/// error (the paper's assumption); the robust choices survive heavy tails
/// and contamination at the cost of statistical efficiency under clean
/// Gaussian noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorChoice {
    /// Sample mean with Welford standard error (default).
    #[default]
    Welford,
    /// Median of block means; scale from the MAD of the block means.
    /// Breakdown point ~ `blocks/2` adversarial samples.
    MedianOfMeans {
        /// Number of round-robin blocks (≥ 2).
        blocks: u32,
    },
    /// Mean of the central block means after trimming a fraction from each
    /// end.
    TrimmedMean {
        /// Number of round-robin blocks (≥ 2).
        blocks: u32,
        /// Fraction trimmed from *each* tail, in units of 1e-3 (e.g. `100`
        /// = 10%). Stored as an integer so the choice stays `Eq`/hashable
        /// and codec-exact.
        trim_milli: u32,
    },
}

impl EstimatorChoice {
    /// Default robust fallback used by breakdown auto-switching.
    pub const ROBUST_DEFAULT: EstimatorChoice = EstimatorChoice::MedianOfMeans { blocks: 8 };

    /// Number of blocks a stream should allocate to be able to serve this
    /// choice (Welford still allocates the default 8 so the estimator can
    /// be switched mid-run without losing history).
    pub fn block_count(&self) -> usize {
        match *self {
            EstimatorChoice::Welford => 8,
            EstimatorChoice::MedianOfMeans { blocks }
            | EstimatorChoice::TrimmedMean { blocks, .. } => blocks.max(2) as usize,
        }
    }

    /// The trim fraction per tail (0 for non-trimmed estimators).
    pub fn trim_fraction(&self) -> f64 {
        match *self {
            EstimatorChoice::TrimmedMean { trim_milli, .. } => f64::from(trim_milli) / 1000.0,
            _ => 0.0,
        }
    }

    /// Human-readable label (`welford`, `mom:blocks=8`, ...).
    pub fn label(&self) -> String {
        match *self {
            EstimatorChoice::Welford => "welford".to_string(),
            EstimatorChoice::MedianOfMeans { blocks } => format!("mom:blocks={blocks}"),
            EstimatorChoice::TrimmedMean { blocks, trim_milli } => {
                format!(
                    "trimmed:blocks={blocks}:trim={}",
                    f64::from(trim_milli) / 1000.0
                )
            }
        }
    }

    /// Parse the `NSX_ESTIMATOR` grammar: `welford`, `mom[:blocks=N]`,
    /// `trimmed[:blocks=N][:trim=F]` (trim is the per-tail fraction).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("").trim();
        let mut blocks: u32 = 8;
        let mut trim_milli: u32 = 100;
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            match key.trim() {
                "blocks" => {
                    let b: u32 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid blocks '{value}'"))?;
                    if b < 2 {
                        return Err(format!("blocks must be >= 2, got {b}"));
                    }
                    blocks = b;
                }
                "trim" => {
                    let f: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid trim '{value}'"))?;
                    if !(0.0..0.5).contains(&f) {
                        return Err(format!("trim must be in [0, 0.5), got {f}"));
                    }
                    trim_milli = (f * 1000.0).round() as u32;
                }
                other => return Err(format!("unknown estimator key '{other}'")),
            }
        }
        match name {
            "" | "welford" | "mean" => Ok(EstimatorChoice::Welford),
            "mom" | "median_of_means" => Ok(EstimatorChoice::MedianOfMeans { blocks }),
            "trimmed" | "trimmed_mean" => Ok(EstimatorChoice::TrimmedMean { blocks, trim_milli }),
            other => Err(format!("unknown estimator '{other}'")),
        }
    }

    /// Read `NSX_ESTIMATOR`, defaulting to Welford. Panics on an invalid
    /// spec (misconfiguration must be loud).
    pub fn from_env() -> Self {
        match std::env::var("NSX_ESTIMATOR") {
            Ok(spec) => match Self::parse(&spec) {
                Ok(e) => e,
                Err(err) => panic!("invalid NSX_ESTIMATOR='{spec}': {err}"),
            },
            Err(_) => EstimatorChoice::Welford,
        }
    }

    /// Serialize (tag + parameters) for checkpointing.
    pub fn save(&self, w: &mut Writer) {
        match *self {
            EstimatorChoice::Welford => {
                w.put_u8(0);
                w.put_u32(0);
                w.put_u32(0);
            }
            EstimatorChoice::MedianOfMeans { blocks } => {
                w.put_u8(1);
                w.put_u32(blocks);
                w.put_u32(0);
            }
            EstimatorChoice::TrimmedMean { blocks, trim_milli } => {
                w.put_u8(2);
                w.put_u32(blocks);
                w.put_u32(trim_milli);
            }
        }
    }

    /// Reconstruct from bytes written by [`save`](Self::save).
    pub fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.take_u8()?;
        let blocks = r.take_u32()?;
        let trim_milli = r.take_u32()?;
        match tag {
            0 => Ok(EstimatorChoice::Welford),
            1 if blocks >= 2 => Ok(EstimatorChoice::MedianOfMeans { blocks }),
            2 if blocks >= 2 && trim_milli < 500 => {
                Ok(EstimatorChoice::TrimmedMean { blocks, trim_milli })
            }
            _ => Err(CodecError::Tag {
                what: "EstimatorChoice",
                tag,
            }),
        }
    }
}

/// Streaming central moments up to order four (one-pass Pébay updates).
///
/// Powers the online tail diagnostic: the excess kurtosis of the unit
/// samples is the cheapest sufficient statistic that separates Gaussian
/// noise (`g2 ≈ 0`) from heavy tails (`g2` large or diverging with `n`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Moments {
    // `n` sits between `mean` and `m2..m4` on purpose: with the four f64
    // fields adjacent, the compiler packs them into one vector register in
    // fold loops, which chains the short `mean` recurrence behind the long
    // `m4` update and roughly doubles the cost of a push.
    mean: f64,
    n: u64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl Moments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        let n0 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n0;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` below two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population excess kurtosis `g2 = n·m4/m2² − 3` (`NaN` below four
    /// observations or when the variance is zero).
    pub fn excess_kurtosis(&self) -> f64 {
        if self.n < 4 || self.m2 <= 0.0 {
            f64::NAN
        } else {
            (self.n as f64) * self.m4 / (self.m2 * self.m2) - 3.0
        }
    }

    /// Serialize for checkpointing.
    pub fn save(&self, w: &mut Writer) {
        w.put_u64(self.n);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.m3);
        w.put_f64(self.m4);
    }

    /// Reconstruct from bytes written by [`save`](Self::save).
    pub fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Moments {
            n: r.take_u64()?,
            mean: r.take_f64()?,
            m2: r.take_f64()?,
            m3: r.take_f64()?,
            m4: r.take_f64()?,
        })
    }
}

/// Round-robin block-mean accumulator: the sufficient statistics behind
/// median-of-means and trimmed-mean estimation.
///
/// Sample `i` (by arrival order) lands in block `i mod B`, each block
/// keeping only `(count, mean)`. Assignment is by arrival index, so the
/// block contents are independent of how extensions were batched — the
/// estimator is a pure function of the sample sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeans {
    total: u64,
    counts: Vec<u64>,
    means: Vec<f64>,
}

impl BlockMeans {
    /// An accumulator with `blocks` empty blocks (at least 2).
    pub fn new(blocks: usize) -> Self {
        let blocks = blocks.max(2);
        BlockMeans {
            total: 0,
            counts: vec![0; blocks],
            means: vec![0.0; blocks],
        }
    }

    /// Fold observations into their round-robin blocks, in order.
    pub fn push_slice(&mut self, xs: &[f64]) {
        let blocks = self.counts.len();
        let mut idx = (self.total % blocks as u64) as usize;
        for &x in xs {
            self.counts[idx] += 1;
            self.means[idx] += (x - self.means[idx]) / self.counts[idx] as f64;
            idx += 1;
            if idx == blocks {
                idx = 0;
            }
        }
        self.total += xs.len() as u64;
    }

    /// Total observations folded in.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.counts.len()
    }

    /// Means of the non-empty blocks, in block order.
    fn filled(&self) -> Vec<f64> {
        self.counts
            .iter()
            .zip(&self.means)
            .filter(|(&c, _)| c > 0)
            .map(|(_, &m)| m)
            .collect()
    }

    /// Median-of-means location and a robust standard error.
    ///
    /// The location is the median of the non-empty block means; the scale is
    /// the MAD of the block means rescaled to a standard deviation
    /// (`×1.4826` for Gaussian consistency), divided by `√B` and rescaled
    /// by `√(π/2)` (the efficiency of a median relative to a mean). Returns
    /// `None` when no sample has arrived. A non-finite or zero scale is
    /// reported as `f64::INFINITY` — "unknown error", never "no error".
    pub fn median_of_means(&self) -> Option<(f64, f64)> {
        let mut ms = self.filled();
        if ms.is_empty() {
            return None;
        }
        ms.sort_by(f64::total_cmp);
        let med = quantile_sorted(&ms, 0.5);
        let mut dev: Vec<f64> = ms.iter().map(|&m| (m - med).abs()).collect();
        dev.sort_by(f64::total_cmp);
        let mad = quantile_sorted(&dev, 0.5);
        let scale = 1.4826 * mad;
        let se = 1.2533 * scale / (ms.len() as f64).sqrt();
        let se = if se.is_finite() && se > 0.0 {
            se
        } else {
            f64::INFINITY
        };
        Some((med, se))
    }

    /// Trimmed-mean location (fraction `trim` of block means removed from
    /// *each* end) and its standard error from the surviving blocks'
    /// dispersion. Returns `None` when no sample has arrived; degenerate
    /// scales report `f64::INFINITY` like [`median_of_means`](Self::median_of_means).
    pub fn trimmed_mean(&self, trim: f64) -> Option<(f64, f64)> {
        let mut ms = self.filled();
        if ms.is_empty() {
            return None;
        }
        ms.sort_by(f64::total_cmp);
        let g = ((trim.clamp(0.0, 0.49) * ms.len() as f64).floor() as usize).min(ms.len() / 2);
        let kept = &ms[g..ms.len() - g];
        let kept = if kept.is_empty() { &ms[..] } else { kept };
        let mut w = Welford::new();
        for &m in kept {
            w.push(m);
        }
        let se = w.std_dev() / (ms.len() as f64).sqrt();
        let se = if se.is_finite() && se > 0.0 {
            se
        } else {
            f64::INFINITY
        };
        Some((w.mean(), se))
    }

    /// Serialize for checkpointing.
    pub fn save(&self, w: &mut Writer) {
        w.put_u64(self.total);
        w.put_u32(self.counts.len() as u32);
        for &c in &self.counts {
            w.put_u64(c);
        }
        w.put_f64_slice(&self.means);
    }

    /// Reconstruct from bytes written by [`save`](Self::save).
    pub fn load(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let total = r.take_u64()?;
        let blocks = r.take_u32()? as usize;
        if blocks < 2 {
            return Err(CodecError::Invalid {
                what: "BlockMeans blocks",
            });
        }
        let mut counts = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            counts.push(r.take_u64()?);
        }
        let means = r.take_f64_vec()?;
        if means.len() != blocks {
            return Err(CodecError::Invalid {
                what: "BlockMeans means length",
            });
        }
        Ok(BlockMeans {
            total,
            counts,
            means,
        })
    }
}

/// Online tail diagnostic reported by hostile-aware streams
/// (`SampleStream::tail_report`, DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailReport {
    /// Finite samples observed so far.
    pub n: u64,
    /// Excess kurtosis of the unit samples (`NaN` until estimable).
    pub excess_kurtosis: f64,
    /// Fraction of samples falling more than six running standard
    /// deviations from the running mean.
    pub outlier_frac: f64,
}

/// A fixed-range histogram with uniform bins, matching the paper's
/// count-vs-log-ratio panels.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    below: u64,
    above: u64,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `bins` uniform bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            below: 0,
            above: 0,
        }
    }

    /// Add one observation. Out-of-range values are folded into the edge
    /// bins' overflow counters (reported separately).
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.below += 1;
        } else if x >= self.hi {
            self.above += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Add many observations.
    pub fn extend_from(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Bin counts (in-range only).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below `lo` / at-or-above `hi`.
    pub fn overflow(&self) -> (u64, u64) {
        (self.below, self.above)
    }

    /// Total observations pushed, including overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.below + self.above
    }

    /// Centers of the bins.
    pub fn centers(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (0..self.counts.len())
            .map(|i| self.lo + (i as f64 + 0.5) * w)
            .collect()
    }

    /// Render as an ASCII bar chart, one bin per row.
    pub fn render(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let centers = self.centers();
        let mut out = String::new();
        for (c, n) in centers.iter().zip(&self.counts) {
            let bar = "#".repeat((*n as usize * width) / max as usize);
            out.push_str(&format!("{c:>8.2} |{bar:<width$}| {n}\n"));
        }
        if self.below + self.above > 0 {
            out.push_str(&format!(
                "  (out of range: {} below, {} at/above)\n",
                self.below, self.above
            ));
        }
        out
    }
}

/// `log10(a/b)` with clamping so that exact zeros (an optimizer landing on
/// the true minimum) do not produce infinities: values are floored at
/// `floor_value` before taking the ratio. The paper plots exactly this
/// quantity; negative means the numerator method got closer to the minimum.
pub fn log10_ratio(a: f64, b: f64, floor_value: f64) -> f64 {
    let a = a.abs().max(floor_value);
    let b = b.abs().max(floor_value);
    (a / b).log10()
}

/// Paired comparison of two methods' final minima across replicates:
/// the distribution of `log10(min_a / min_b)` plus headline fractions.
#[derive(Debug, Clone)]
pub struct PairedComparison {
    /// Per-replicate `log10(min_a/min_b)` values.
    pub log_ratios: Vec<f64>,
    /// Fraction of replicates where method A strictly beat method B
    /// (ratio < -tie_band).
    pub frac_a_wins: f64,
    /// Fraction within the tie band.
    pub frac_tie: f64,
    /// Fraction where B beat A.
    pub frac_b_wins: f64,
}

impl PairedComparison {
    /// Build from paired final minima; `tie_band` is the |log10 ratio| below
    /// which the pair counts as a tie (the paper treats ~0 as "comparable").
    pub fn new(mins_a: &[f64], mins_b: &[f64], floor_value: f64, tie_band: f64) -> Self {
        assert_eq!(mins_a.len(), mins_b.len());
        let log_ratios: Vec<f64> = mins_a
            .iter()
            .zip(mins_b)
            .map(|(&a, &b)| log10_ratio(a, b, floor_value))
            .collect();
        let n = log_ratios.len().max(1) as f64;
        let a = log_ratios.iter().filter(|&&r| r < -tie_band).count() as f64;
        let b = log_ratios.iter().filter(|&&r| r > tie_band).count() as f64;
        PairedComparison {
            frac_a_wins: a / n,
            frac_b_wins: b / n,
            frac_tie: 1.0 - (a + b) / n,
            log_ratios,
        }
    }

    /// Histogram of the log ratios over `[lo, hi)`.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        h.extend_from(&self.log_ratios);
        h
    }

    /// Two-sided sign-test p-value for "the two methods are equally likely
    /// to win" — ties excluded, exact binomial tail. Small p means the win
    /// imbalance is unlikely under the null.
    pub fn sign_test_p(&self, tie_band: f64) -> f64 {
        let wins_a = self.log_ratios.iter().filter(|&&r| r < -tie_band).count() as u64;
        let wins_b = self.log_ratios.iter().filter(|&&r| r > tie_band).count() as u64;
        sign_test(wins_a, wins_b)
    }
}

/// Exact two-sided sign test: probability, under a fair coin, of a split at
/// least as extreme as `(wins_a, wins_b)`.
pub fn sign_test(wins_a: u64, wins_b: u64) -> f64 {
    let n = wins_a + wins_b;
    if n == 0 {
        return 1.0;
    }
    let k = wins_a.min(wins_b);
    // P(X <= k) for X ~ Binomial(n, 1/2), computed in log space for
    // numerical stability at large n.
    let ln_half = 0.5f64.ln();
    let mut ln_choose = 0.0; // ln C(n, 0)
    let mut tail = 0.0f64;
    for i in 0..=k {
        if i > 0 {
            ln_choose += ((n - i + 1) as f64).ln() - (i as f64).ln();
        }
        tail += (ln_choose + n as f64 * ln_half).exp();
    }
    (2.0 * tail).min(1.0)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn empty_quantile_is_nan_not_panic() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(quantile_sorted(&[], 0.0).is_nan());
        // NaN observations sort last instead of panicking the comparison.
        let with_nan = [1.0, f64::NAN, 2.0];
        assert_eq!(quantile(&with_nan, 0.0), 1.0);
        assert!(quantile(&with_nan, 1.0).is_nan());
        // Out-of-range q clamps.
        assert_eq!(quantile(&[1.0, 2.0], 7.0), 2.0);
    }

    #[test]
    fn estimator_grammar_round_trips() {
        assert_eq!(
            EstimatorChoice::parse("welford").unwrap(),
            EstimatorChoice::Welford
        );
        assert_eq!(
            EstimatorChoice::parse("mom:blocks=8").unwrap(),
            EstimatorChoice::MedianOfMeans { blocks: 8 }
        );
        assert_eq!(
            EstimatorChoice::parse("trimmed:blocks=10:trim=0.2").unwrap(),
            EstimatorChoice::TrimmedMean {
                blocks: 10,
                trim_milli: 200
            }
        );
        assert!(EstimatorChoice::parse("huber").is_err());
        assert!(EstimatorChoice::parse("mom:blocks=1").is_err());
        assert!(EstimatorChoice::parse("trimmed:trim=0.5").is_err());
        for spec in ["welford", "mom:blocks=4", "trimmed:blocks=6:trim=0.1"] {
            let e = EstimatorChoice::parse(spec).unwrap();
            let mut w = Writer::new();
            e.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(EstimatorChoice::load(&mut r).unwrap(), e, "{spec}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn moments_match_welford_and_detect_kurtosis() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37 % 101) as f64).sin()).collect();
        let mut m = Moments::new();
        let mut w = Welford::new();
        for &x in &data {
            m.push(x);
            w.push(x);
        }
        assert!((m.mean() - w.mean()).abs() < 1e-12);
        assert!((m.variance() - w.variance()).abs() < 1e-10);
        // A two-point symmetric distribution (±1) has kurtosis 1 → g2 = −2;
        // add rare large spikes and g2 goes strongly positive.
        let mut flat = Moments::new();
        for i in 0..1000 {
            flat.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert!((flat.excess_kurtosis() + 2.0).abs() < 1e-9);
        let mut spiky = Moments::new();
        for i in 0..1000 {
            spiky.push(if i % 100 == 0 {
                30.0
            } else {
                0.1 * (i as f64).sin()
            });
        }
        assert!(spiky.excess_kurtosis() > 10.0);
        // Codec round trip.
        let mut wtr = Writer::new();
        spiky.save(&mut wtr);
        let bytes = wtr.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Moments::load(&mut r).unwrap(), spiky);
    }

    #[test]
    fn block_means_round_robin_and_estimators() {
        let mut b = BlockMeans::new(4);
        for i in 0..12 {
            b.push_slice(&[i as f64]);
        }
        // Block j holds {j, j+4, j+8} → mean j + 4.
        assert_eq!(b.total(), 12);
        let (mom, se) = b.median_of_means().unwrap();
        assert!((mom - 5.5).abs() < 1e-12, "mom {mom}");
        assert!(se.is_finite() && se > 0.0);
        let (tm, _) = b.trimmed_mean(0.25).unwrap();
        assert!((tm - 5.5).abs() < 1e-12, "trimmed {tm}");
        // Empty accumulator has no estimate.
        assert!(BlockMeans::new(4).median_of_means().is_none());
        // Codec round trip.
        let mut w = Writer::new();
        b.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(BlockMeans::load(&mut r).unwrap(), b);
        r.finish().unwrap();
    }

    #[test]
    fn median_of_means_shrugs_off_contamination() {
        // 5% of samples are 1000σ spikes: the block-mean median must stay
        // near the true location while the plain mean is dragged away.
        let mut b = BlockMeans::new(8);
        let mut w = Welford::new();
        for i in 0..400u64 {
            let x = if i % 20 == 7 {
                1000.0
            } else {
                (crate::rng::PerSampleRng::new(3, i).normal()) + 5.0
            };
            b.push_slice(&[x]);
            w.push(x);
        }
        let (mom, _) = b.median_of_means().unwrap();
        assert!((mom - 5.0).abs() < 20.0, "mom {mom}");
        assert!((w.mean() - 5.0).abs() > 40.0, "mean {}", w.mean());
    }

    #[test]
    fn degenerate_block_scale_reports_infinite_error() {
        // All-identical samples → MAD 0 → the scale must degrade to +inf
        // ("unknown"), never 0 ("certain").
        let mut b = BlockMeans::new(4);
        for _ in 0..16 {
            b.push_slice(&[2.0]);
        }
        let (loc, se) = b.median_of_means().unwrap();
        assert_eq!(loc, 2.0);
        assert!(se.is_infinite());
    }

    #[test]
    fn welford_matches_closed_form() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 4.0 * 8/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        let mut left = Welford::new();
        let mut right = Welford::new();
        for (i, &x) in data.iter().enumerate() {
            all.push(x);
            if i < 37 {
                left.push(x)
            } else {
                right.push(x)
            }
        }
        let merged = left.merge(&right);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-12);
        assert!((merged.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert!(w.variance().is_nan());
    }

    #[test]
    fn quantiles_interpolate() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 4.0);
        assert_eq!(quantile(&data, 0.5), 2.5);
        assert!((quantile(&data, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 5.5, 9.99, 10.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        assert_eq!(h.overflow(), (1, 2));
        assert_eq!(h.total(), 8);
        assert_eq!(h.centers()[0], 1.0);
    }

    #[test]
    fn histogram_renders_without_panic() {
        let mut h = Histogram::new(-2.0, 2.0, 4);
        h.extend_from(&[-1.5, 0.0, 0.1, 1.5, 1.5]);
        let s = h.render(20);
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn log_ratio_clamps_zeros() {
        assert_eq!(log10_ratio(0.0, 1.0, 1e-12), -12.0);
        assert_eq!(log10_ratio(1.0, 0.0, 1e-12), 12.0);
        assert_eq!(log10_ratio(100.0, 1.0, 1e-12), 2.0);
    }

    #[test]
    fn sign_test_values() {
        // Balanced split: p = 1.
        assert!((sign_test(5, 5) - 1.0).abs() < 0.3);
        // 10-0: p = 2 * (1/2)^10 ≈ 0.00195.
        assert!((sign_test(10, 0) - 2.0 * 0.5f64.powi(10)).abs() < 1e-12);
        // Empty: no evidence.
        assert_eq!(sign_test(0, 0), 1.0);
        // Symmetry.
        assert!((sign_test(3, 12) - sign_test(12, 3)).abs() < 1e-12);
        // Monotone: more extreme splits are less likely.
        assert!(sign_test(9, 1) < sign_test(7, 3));
    }

    #[test]
    fn paired_sign_test_detects_dominance() {
        let a = vec![1e-6; 12];
        let b = vec![1.0; 12];
        let c = PairedComparison::new(&a, &b, 1e-12, 0.25);
        assert!(c.sign_test_p(0.25) < 0.001);
        let even: Vec<f64> = (0..12)
            .map(|i| if i % 2 == 0 { 1e-6 } else { 1e6 })
            .collect();
        let c2 = PairedComparison::new(&even, &b, 1e-12, 0.25);
        assert!(c2.sign_test_p(0.25) > 0.5);
    }

    #[test]
    fn paired_comparison_fractions() {
        let a = [1e-6, 1.0, 1.0, 1e3];
        let b = [1.0, 1.0, 1e-6, 1.0];
        let c = PairedComparison::new(&a, &b, 1e-12, 0.5);
        assert!((c.frac_a_wins - 0.25).abs() < 1e-12);
        assert!((c.frac_b_wins - 0.5).abs() < 1e-12);
        assert!((c.frac_tie - 0.25).abs() < 1e-12);
        let h = c.histogram(-8.0, 8.0, 16);
        assert_eq!(h.total(), 4);
    }
}
