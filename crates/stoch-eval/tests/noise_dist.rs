//! `NoiseDistribution` draws against their analytic oracles.
//!
//! Each distribution's `unit_variate` sequence is checked against closed-form
//! moments: mean and variance where they exist (Gaussian; Student-t with
//! ν > 4 after standardization; ε-contamination with known mixture inflation),
//! and the *median* for heavy-tailed shapes (ν ≤ 4), where the sample mean is
//! no longer a trustworthy statistic — exactly the failure mode the robust
//! estimators exist for.

use proptest::prelude::*;
use stoch_eval::NoiseDistribution;

fn draws(dist: &NoiseDistribution, seed: u64, n: u64) -> Vec<f64> {
    (0..n).map(|i| dist.unit_variate(seed, i)).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gaussian_unit_variates_are_standard_normal(seed in 0u64..10_000) {
        let xs = draws(&NoiseDistribution::gaussian(), seed, 20_000);
        let (m, v) = (mean(&xs), variance(&xs));
        // 20k standard normals: se(mean) ≈ 0.007, se(var) ≈ 0.01.
        prop_assert!(m.abs() < 0.05, "mean {m}");
        prop_assert!((v - 1.0).abs() < 0.08, "variance {v}");
    }

    #[test]
    fn student_t_light_tail_is_standardized(
        seed in 0u64..10_000,
        nu in 5.0f64..30.0,
    ) {
        // ν > 4: the standardized t has mean 0, variance 1, and a finite
        // fourth moment, so sample moments converge at the usual rate.
        let xs = draws(&NoiseDistribution::student_t(nu), seed, 20_000);
        let (m, v) = (mean(&xs), variance(&xs));
        prop_assert!(m.abs() < 0.08, "mean {m} at nu={nu}");
        // var(sample variance) grows as ν ↓ 4; keep the band generous.
        prop_assert!((v - 1.0).abs() < 0.35, "variance {v} at nu={nu}");
    }

    #[test]
    fn student_t_heavy_tail_has_zero_median(
        seed in 0u64..10_000,
        nu in 2.1f64..4.0,
    ) {
        // ν ≤ 4: the fourth (and near ν=2 the second) moment diverges — the
        // sample mean is untrustworthy, but the t distribution is symmetric,
        // so the median oracle is exactly 0.
        let xs = draws(&NoiseDistribution::student_t(nu), seed, 20_000);
        prop_assert!(median(&xs).abs() < 0.05, "median {} at nu={nu}", median(&xs));
        // The draws really are heavier than Gaussian: count |x| > 4, which
        // for a standard normal has probability ~6e-5 (expect ~1 in 20k).
        let tail = xs.iter().filter(|x| x.abs() > 4.0).count();
        prop_assert!(tail > 10, "only {tail} draws beyond 4 at nu={nu}");
    }

    #[test]
    fn contamination_inflates_variance_by_the_mixture_formula(
        seed in 0u64..10_000,
    ) {
        // (1-ε)·N(0,1) + ε·N(0,k²): variance = 1 - ε + ε·k².
        let (eps, k) = (0.05, 10.0);
        let dist = NoiseDistribution::gaussian().with_contamination(eps, k);
        let xs = draws(&dist, seed, 50_000);
        let expect = 1.0 - eps + eps * k * k;
        let v = variance(&xs);
        prop_assert!(m_ok(mean(&xs)), "mean {}", mean(&xs));
        prop_assert!(
            (v / expect - 1.0).abs() < 0.35,
            "variance {v}, mixture predicts {expect}"
        );
        // Spike frequency matches ε: the count is Binomial(50k, ~ε-ish).
        // Count draws beyond 5σ of the clean core — essentially all spikes,
        // essentially no clean draws.
        let spikes = xs.iter().filter(|x| x.abs() > 5.0).count() as f64;
        let frac = spikes / xs.len() as f64;
        prop_assert!(frac > 0.02 && frac < 0.06, "spike fraction {frac}");
    }

    #[test]
    fn drift_preserves_the_long_run_median(seed in 0u64..10_000) {
        // Sinusoidal σ(t) and cosine bias average out over whole periods:
        // the median over many periods stays at 0. Drift enters through
        // `observe`, not `unit_variate`, so sample via observe at f = 0.
        let dist = NoiseDistribution::drifting(stoch_eval::DriftSpec::default_spec());
        let xs: Vec<f64> = (0..20_000u64)
            .map(|i| dist.observe(seed, i, (i + 1) as f64, 0.0, 1.0))
            .collect();
        prop_assert!(median(&xs).abs() < 0.06, "median {}", median(&xs));
    }
}

/// Every shape `observe_block` tells apart: Gaussian or Student-t core
/// (standardized for ν > 2, raw for ν ≤ 2), the contamination coin on or
/// off, drift on or off.
const SHAPES: [&str; 12] = [
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_draws_match_the_scalar_oracle(
        seed in 0u64..u64::MAX,
        first in 0u64..1 << 40,
        len in 0usize..=130,
        dt_sample in 0.01f64..4.0,
        f in -100.0f64..100.0,
        unit_sd in 0.1f64..50.0,
    ) {
        // Sample first + j of the block is the scalar draw of that index,
        // observed at the end of its own time slice — bit for bit, across
        // lane tails and mid-lane starts.
        for spec in SHAPES {
            let dist = NoiseDistribution::parse(spec).unwrap();
            let mut out = vec![f64::NAN; len];
            dist.observe_block(seed, first, dt_sample, f, unit_sd, &mut out);
            for (j, x) in out.iter().enumerate() {
                let i = first + j as u64;
                let want = dist.observe(seed, i, (i + 1) as f64 * dt_sample, f, unit_sd);
                prop_assert_eq!(x.to_bits(), want.to_bits(), "{} sample {}", spec, i);
            }
        }
    }
}

fn m_ok(m: f64) -> bool {
    m.abs() < 0.1
}

#[test]
fn unit_variates_are_a_pure_function_of_seed_and_index() {
    // The determinism keystone: draw i depends only on (seed, i) — any order,
    // any interleaving, any repetition gives identical bits.
    for dist in [
        NoiseDistribution::gaussian(),
        NoiseDistribution::student_t(3.0),
        NoiseDistribution::gaussian().with_contamination(0.05, 20.0),
    ] {
        let forward: Vec<u64> = (0..500u64)
            .map(|i| dist.unit_variate(7, i).to_bits())
            .collect();
        let backward: Vec<u64> = (0..500u64)
            .rev()
            .map(|i| dist.unit_variate(7, i).to_bits())
            .collect();
        let rev: Vec<u64> = backward.into_iter().rev().collect();
        assert_eq!(forward, rev, "order-dependent draws for {}", dist.label());
    }
}
