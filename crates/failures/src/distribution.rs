//! Inter-arrival distributions for failure processes.
//!
//! The paper's analysis assumes Exponential inter-arrivals ("failures
//! strike with uniform distribution over time", §III-C). The related
//! work it cites ([8–10]) models real machines with Weibull and similar
//! laws, so the simulator also supports Weibull and LogNormal renewal
//! processes for robustness experiments, plus a Deterministic spacing
//! for unit tests that need exact failure placement.
//!
//! All distributions are driven through the object-safe [`InterArrival`]
//! trait so failure processes can hold `Box<dyn InterArrival>` without
//! generics leaking into every simulator signature. Besides the
//! inter-arrival itself, every law samples its exact stationary
//! residual life ([`InterArrival::sample_residual`]), which is how a
//! renewal source starts in its long-run regime without a burn-in.

use dck_simcore::SimTime;
use rand::Rng;
use rand_distr::{Distribution as _, LogNormal, Weibull};
use serde::{Deserialize, Serialize};

/// A positive inter-arrival time sampler.
pub trait InterArrival: Send + Sync {
    /// Samples the time until the next arrival.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> SimTime;

    /// The distribution mean (time units), used for MTBF calibration
    /// and sanity checks.
    fn mean(&self) -> SimTime;

    /// Samples the stationary residual life: the time from an instant
    /// far into a renewal process with these inter-arrivals to its next
    /// arrival, with density `P(X > t) / E[X]` and mean
    /// `E[X²] / (2·E[X])`. Drawn exactly as `U·L`, with `L` from the
    /// length-biased law (density `x·f(x) / E[X]`: an instant falls in
    /// an interval with probability proportional to its length) and `U`
    /// uniform on (0, 1] (where in that interval it falls).
    fn sample_residual(&self, rng: &mut dyn rand::RngCore) -> SimTime;
}

/// Uniform on (0, 1]: a position inside an interval, never exactly 0.
fn unit_open(rng: &mut dyn rand::RngCore) -> f64 {
    1.0 - rng.gen::<f64>()
}

/// Serializable description of an inter-arrival distribution,
/// parameterized by its **mean** so that every law can be calibrated to
/// the same MTBF and compared apples-to-apples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DistributionSpec {
    /// Exponential with the given mean (the paper's assumption).
    Exponential {
        /// Mean inter-arrival time (= MTBF for a renewal process).
        mean: SimTime,
    },
    /// Weibull with the given mean and shape `k` (k < 1: infant
    /// mortality, the empirically observed HPC regime; k = 1 reduces to
    /// Exponential).
    Weibull {
        /// Mean inter-arrival time.
        mean: SimTime,
        /// Shape parameter `k > 0`.
        shape: f64,
    },
    /// LogNormal with the given mean and `sigma` (log-scale std-dev).
    LogNormal {
        /// Mean inter-arrival time.
        mean: SimTime,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Every arrival exactly `period` apart (testing/debugging).
    Deterministic {
        /// Fixed spacing.
        period: SimTime,
    },
}

impl DistributionSpec {
    /// Convenience: Exponential with the given mean.
    pub fn exponential(mean: SimTime) -> Self {
        DistributionSpec::Exponential { mean }
    }

    /// Builds the sampler described by this spec.
    ///
    /// # Panics
    /// Panics if parameters are out of range (non-positive mean/shape).
    pub fn build(&self) -> Box<dyn InterArrival> {
        match *self {
            DistributionSpec::Exponential { mean } => Box::new(Exponential::with_mean(mean)),
            DistributionSpec::Weibull { mean, shape } => {
                Box::new(WeibullArrival::with_mean(mean, shape))
            }
            DistributionSpec::LogNormal { mean, sigma } => {
                Box::new(LogNormalArrival::with_mean(mean, sigma))
            }
            DistributionSpec::Deterministic { period } => Box::new(Deterministic { period }),
        }
    }

    /// The mean of the described distribution.
    pub fn mean(&self) -> SimTime {
        match *self {
            DistributionSpec::Exponential { mean }
            | DistributionSpec::Weibull { mean, .. }
            | DistributionSpec::LogNormal { mean, .. } => mean,
            DistributionSpec::Deterministic { period } => period,
        }
    }

    /// Re-targets the spec to a new mean, keeping the shape parameters.
    pub fn with_mean(&self, mean: SimTime) -> DistributionSpec {
        match *self {
            DistributionSpec::Exponential { .. } => DistributionSpec::Exponential { mean },
            DistributionSpec::Weibull { shape, .. } => DistributionSpec::Weibull { mean, shape },
            DistributionSpec::LogNormal { sigma, .. } => {
                DistributionSpec::LogNormal { mean, sigma }
            }
            DistributionSpec::Deterministic { .. } => {
                DistributionSpec::Deterministic { period: mean }
            }
        }
    }
}

/// Exponential inter-arrivals, sampled by inverse CDF
/// (`−mean·ln(1−u)`), implemented directly so the hot path of the
/// paper-faithful simulations does not depend on `rand_distr`.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Exponential with the given mean.
    ///
    /// # Panics
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: SimTime) -> Self {
        let m = mean.as_secs();
        assert!(
            m > 0.0 && m.is_finite(),
            "Exponential mean must be positive"
        );
        Exponential { mean: m }
    }

    /// The rate `1/mean`.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean
    }
}

impl InterArrival for Exponential {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> SimTime {
        // ln never sees 0: the sample is finite and ≥ 0.
        SimTime::seconds(-self.mean * unit_open(rng).ln())
    }

    fn mean(&self) -> SimTime {
        SimTime::seconds(self.mean)
    }

    /// Memoryless: the residual life is a plain draw.
    fn sample_residual(&self, rng: &mut dyn rand::RngCore) -> SimTime {
        self.sample(rng)
    }
}

/// Weibull renewal inter-arrivals calibrated by mean.
#[derive(Debug, Clone, Copy)]
pub struct WeibullArrival {
    inner: Weibull<f64>,
    mean: f64,
    scale: f64,
    shape: f64,
    /// `(L/scale)^shape` of a length-biased interval `L` is
    /// Gamma(1 + 1/shape, 1).
    biased: Gamma,
}

impl WeibullArrival {
    /// Weibull with shape `k` whose mean equals `mean`.
    ///
    /// The scale is derived from `mean = scale · Γ(1 + 1/k)`.
    ///
    /// # Panics
    /// Panics on non-positive mean or shape.
    pub fn with_mean(mean: SimTime, shape: f64) -> Self {
        let m = mean.as_secs();
        assert!(m > 0.0 && m.is_finite(), "Weibull mean must be positive");
        assert!(shape > 0.0, "Weibull shape must be positive");
        let scale = m / gamma(1.0 + 1.0 / shape);
        WeibullArrival {
            inner: Weibull::new(scale, shape).expect("validated parameters"),
            mean: m,
            scale,
            shape,
            biased: Gamma::new(1.0 + 1.0 / shape),
        }
    }
}

impl InterArrival for WeibullArrival {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> SimTime {
        SimTime::seconds(self.inner.sample(rng))
    }

    fn mean(&self) -> SimTime {
        SimTime::seconds(self.mean)
    }

    fn sample_residual(&self, rng: &mut dyn rand::RngCore) -> SimTime {
        let length = self.scale * self.biased.sample(rng).powf(1.0 / self.shape);
        SimTime::seconds(unit_open(rng) * length)
    }
}

/// LogNormal renewal inter-arrivals calibrated by mean.
#[derive(Debug, Clone, Copy)]
pub struct LogNormalArrival {
    inner: LogNormal<f64>,
    mean: f64,
    /// `exp(sigma²)`: scaling a LogNormal(mu, sigma) draw by it gives the
    /// length-biased law, LogNormal(mu + sigma², sigma).
    bias: f64,
}

impl LogNormalArrival {
    /// LogNormal with log-scale std-dev `sigma` whose mean equals
    /// `mean` (so `mu = ln(mean) − sigma²/2`).
    ///
    /// # Panics
    /// Panics on non-positive mean or negative sigma.
    pub fn with_mean(mean: SimTime, sigma: f64) -> Self {
        let m = mean.as_secs();
        assert!(m > 0.0 && m.is_finite(), "LogNormal mean must be positive");
        assert!(sigma >= 0.0, "LogNormal sigma must be non-negative");
        let mu = m.ln() - sigma * sigma / 2.0;
        LogNormalArrival {
            inner: LogNormal::new(mu, sigma).expect("validated parameters"),
            mean: m,
            bias: (sigma * sigma).exp(),
        }
    }
}

impl InterArrival for LogNormalArrival {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> SimTime {
        SimTime::seconds(self.inner.sample(rng))
    }

    fn mean(&self) -> SimTime {
        SimTime::seconds(self.mean)
    }

    fn sample_residual(&self, rng: &mut dyn rand::RngCore) -> SimTime {
        let length = self.bias * self.inner.sample(rng);
        SimTime::seconds(unit_open(rng) * length)
    }
}

/// Exact fixed spacing (for tests that need failures at known times).
#[derive(Debug, Clone, Copy)]
pub struct Deterministic {
    period: SimTime,
}

impl InterArrival for Deterministic {
    fn sample(&self, _rng: &mut dyn rand::RngCore) -> SimTime {
        self.period
    }

    fn mean(&self) -> SimTime {
        self.period
    }

    fn sample_residual(&self, rng: &mut dyn rand::RngCore) -> SimTime {
        self.period * unit_open(rng)
    }
}

/// Gamma(a, 1) for shape `a ≥ 1`, by Marsaglia and Tsang's squeeze
/// method ("A simple method for generating gamma variables", ACM TOMS
/// 26(3), 2000): a transformed normal, accepted with probability above
/// 0.95 for every `a ≥ 1`.
#[derive(Debug, Clone, Copy)]
struct Gamma {
    d: f64,
    c: f64,
}

impl Gamma {
    fn new(shape: f64) -> Self {
        assert!(
            shape >= 1.0 && shape.is_finite(),
            "Gamma shape must be finite and at least 1"
        );
        let d = shape - 1.0 / 3.0;
        Gamma {
            d,
            c: 1.0 / (9.0 * d).sqrt(),
        }
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        loop {
            let x = standard_normal(rng);
            let v = 1.0 + self.c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = unit_open(rng);
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 0.5 * x2 + self.d * (1.0 - v + v.ln()) {
                return self.d * v;
            }
        }
    }
}

/// A standard normal variate by Box–Muller (the second variate of the
/// pair is discarded).
fn standard_normal(rng: &mut dyn rand::RngCore) -> f64 {
    let r = (-2.0 * unit_open(rng).ln()).sqrt();
    r * (2.0 * std::f64::consts::PI * rng.gen::<f64>()).cos()
}

/// Lanczos approximation of the Gamma function (g = 7, n = 9), accurate
/// to ~1e-13 on the positive reals we use for Weibull calibration.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dck_simcore::{OnlineStats, RngFactory};

    fn sample_mean(spec: DistributionSpec, n: usize) -> (f64, f64) {
        let d = spec.build();
        let mut rng = RngFactory::new(123).stream(0);
        let mut stats = OnlineStats::new();
        for _ in 0..n {
            let x = d.sample(&mut rng).as_secs();
            assert!(x >= 0.0, "negative inter-arrival");
            stats.push(x);
        }
        (stats.mean(), stats.std_error())
    }

    #[test]
    fn gamma_reference_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-12);
        assert!((gamma(1.5) - 0.5 * std::f64::consts::PI.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn exponential_mean_calibrated() {
        let mean = SimTime::hours(1.0);
        let (m, se) = sample_mean(DistributionSpec::Exponential { mean }, 40_000);
        assert!((m - 3600.0).abs() < 5.0 * se.max(1.0), "mean {m}, se {se}");
    }

    #[test]
    fn weibull_mean_calibrated_across_shapes() {
        for shape in [0.5, 0.7, 1.0, 2.0] {
            let mean = SimTime::seconds(100.0);
            let (m, se) = sample_mean(DistributionSpec::Weibull { mean, shape }, 60_000);
            assert!(
                (m - 100.0).abs() < 6.0 * se.max(0.05),
                "shape {shape}: mean {m}, se {se}"
            );
        }
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        // With k = 1 the Weibull *is* Exponential; compare CDFs via
        // sample quantiles loosely: both should have ~63.2% of mass
        // below the mean.
        let spec = DistributionSpec::Weibull {
            mean: SimTime::seconds(50.0),
            shape: 1.0,
        };
        let d = spec.build();
        let mut rng = RngFactory::new(5).stream(1);
        let below = (0..50_000)
            .filter(|_| d.sample(&mut rng).as_secs() < 50.0)
            .count() as f64
            / 50_000.0;
        assert!((below - 0.632).abs() < 0.01, "below-mean mass {below}");
    }

    #[test]
    fn lognormal_mean_calibrated() {
        let mean = SimTime::seconds(10.0);
        let (m, se) = sample_mean(DistributionSpec::LogNormal { mean, sigma: 1.0 }, 80_000);
        assert!((m - 10.0).abs() < 6.0 * se.max(0.01), "mean {m}, se {se}");
    }

    #[test]
    fn deterministic_is_exact() {
        let d = DistributionSpec::Deterministic {
            period: SimTime::seconds(7.0),
        }
        .build();
        let mut rng = RngFactory::new(0).stream(0);
        for _ in 0..5 {
            assert_eq!(d.sample(&mut rng), SimTime::seconds(7.0));
        }
        assert_eq!(d.mean(), SimTime::seconds(7.0));
    }

    #[test]
    fn gamma_sampler_mean_and_variance_equal_shape() {
        // Gamma(a, 1) has mean a and variance a; the shapes are those a
        // Weibull residual uses (1 + 1/k for k = 2, 0.7, 0.5).
        for a in [1.5, 2.43, 3.0] {
            let g = Gamma::new(a);
            let mut rng = RngFactory::new(77).stream(0);
            let mut stats = OnlineStats::new();
            for _ in 0..200_000 {
                stats.push(g.sample(&mut rng));
            }
            let se = stats.std_error();
            assert!(
                (stats.mean() - a).abs() < 4.0 * se,
                "a = {a}: mean {}",
                stats.mean()
            );
            // Var of the sample variance ≈ (μ₄ − σ⁴)/n, μ₄ = 3a² + 6a.
            let var_se = ((3.0 * a * a + 6.0 * a - a * a) / 200_000.0).sqrt();
            assert!(
                (stats.variance() - a).abs() < 4.0 * var_se,
                "a = {a}: variance {}",
                stats.variance()
            );
        }
    }

    #[test]
    fn residual_mean_is_second_moment_over_twice_the_mean() {
        // The stationary residual life has mean E[X²] / (2·E[X]).
        let mean = 100.0;
        let t = SimTime::seconds(mean);
        let weibull = |k: f64| gamma(1.0 + 2.0 / k) / gamma(1.0 + 1.0 / k).powi(2) * mean / 2.0;
        let lognormal = |sigma: f64| mean * (sigma * sigma).exp() / 2.0;
        let cases = [
            (DistributionSpec::Exponential { mean: t }, mean),
            (
                DistributionSpec::Weibull {
                    mean: t,
                    shape: 0.5,
                },
                weibull(0.5),
            ),
            (
                DistributionSpec::Weibull {
                    mean: t,
                    shape: 0.7,
                },
                weibull(0.7),
            ),
            (
                DistributionSpec::Weibull {
                    mean: t,
                    shape: 2.0,
                },
                weibull(2.0),
            ),
            (
                DistributionSpec::LogNormal {
                    mean: t,
                    sigma: 1.0,
                },
                lognormal(1.0),
            ),
            (DistributionSpec::Deterministic { period: t }, mean / 2.0),
        ];
        for (spec, expected) in cases {
            let d = spec.build();
            let mut rng = RngFactory::new(91).stream(0);
            let mut stats = OnlineStats::new();
            for _ in 0..200_000 {
                let x = d.sample_residual(&mut rng).as_secs();
                assert!(x > 0.0, "{spec:?}: non-positive residual");
                stats.push(x);
            }
            let se = stats.std_error();
            assert!(
                (stats.mean() - expected).abs() < 4.0 * se,
                "{spec:?}: residual mean {} ± {se}, expected {expected}",
                stats.mean()
            );
        }
    }

    #[test]
    fn with_mean_retargets() {
        let spec = DistributionSpec::Weibull {
            mean: SimTime::seconds(1.0),
            shape: 0.7,
        };
        let re = spec.with_mean(SimTime::hours(2.0));
        assert_eq!(re.mean(), SimTime::hours(2.0));
        match re {
            DistributionSpec::Weibull { shape, .. } => assert_eq!(shape, 0.7),
            _ => panic!("shape family changed"),
        }
    }

    #[test]
    fn spec_roundtrips_serde() {
        let spec = DistributionSpec::LogNormal {
            mean: SimTime::minutes(3.0),
            sigma: 0.5,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: DistributionSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        let _ = Exponential::with_mean(SimTime::ZERO);
    }
}
