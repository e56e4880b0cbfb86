//! Platform-level failure event streams.
//!
//! A failure process answers one question forever: *when and where does
//! the next failure strike?* Two implementations are provided:
//!
//! * [`AggregatedExponential`] — exploits the memorylessness of the
//!   Exponential law: the superposition of `n` independent Poisson
//!   processes with rate `λ` is a single Poisson process with rate
//!   `nλ`, with the victim chosen uniformly. O(1) per event and valid
//!   even while nodes are being replaced (the replacement inherits the
//!   memoryless clock). This is the paper-faithful source.
//! * [`PerNodeRenewal`] — keeps one pending arrival per node in a
//!   [`dck_simcore::EventQueue`] and resamples a node's next arrival
//!   whenever one fires. Correct for *any* inter-arrival law (Weibull,
//!   LogNormal, ...), at O(log n) per event and O(n) memory. It starts
//!   either fresh (every node brand-new at t = 0) or exactly
//!   stationary (every node's first arrival is its residual life).
//!
//! Both yield identical *distributions* in the Exponential case (tested
//! below), so experiments can switch sources without re-deriving
//! anything.

use crate::distribution::{DistributionSpec, InterArrival};
use crate::mtbf::MtbfSpec;
use dck_simcore::{fill_exponential_events, EventQueue, SimTime};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Index of a platform node, dense in `0..n`.
pub type NodeId = u64;

/// One failure: node `node` dies at absolute time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureEvent {
    /// Absolute virtual time of the failure.
    pub at: SimTime,
    /// The node that fails.
    pub node: NodeId,
}

/// An infinite, ordered stream of failures over an `n`-node platform.
pub trait FailureSource {
    /// Returns the next failure (times are non-decreasing call-to-call).
    fn next_failure(&mut self) -> FailureEvent;

    /// Number of nodes the source covers.
    fn nodes(&self) -> u64;

    /// The calibrated platform MTBF of the stream (mean spacing between
    /// successive events, over all nodes).
    fn platform_mtbf(&self) -> SimTime;
}

/// Largest number of `(gap, victim)` pairs drawn per RNG refill once
/// the batch size has warmed up. Refills consume the generator in the
/// same per-event order as an unbatched loop (see
/// [`fill_exponential_events`]), so the emitted event stream is
/// bit-identical for a given seed regardless of batching.
const EVENT_BATCH_MAX: usize = 64;

/// First refill size. Short runs — a typical Monte-Carlo replication
/// consumes only a handful of events — should not pay for a full batch
/// of `ln()` transforms they never use, so refills start small and
/// double up to [`EVENT_BATCH_MAX`].
const EVENT_BATCH_FIRST: usize = 8;

/// O(1)-per-event Poisson failure source (Exponential law only).
///
/// Draws are buffered in batches so the hot replication loop runs a
/// straight array fill instead of alternating transform/consume per
/// event; batching never changes the emitted stream (the generator is
/// consumed in identical order).
#[derive(Debug)]
pub struct AggregatedExponential {
    now: SimTime,
    platform_mean: f64,
    nodes: u64,
    rng: StdRng,
    gaps: [f64; EVENT_BATCH_MAX],
    victims: [u64; EVENT_BATCH_MAX],
    filled: usize,
    next: usize,
    batch: usize,
}

impl AggregatedExponential {
    /// Builds the source from an MTBF specification and an RNG stream.
    pub fn new(mtbf: MtbfSpec, rng: StdRng) -> Self {
        let platform_mean = mtbf.platform_mtbf().as_secs();
        assert!(
            platform_mean > 0.0 && platform_mean.is_finite(),
            "platform MTBF must be positive"
        );
        AggregatedExponential {
            now: SimTime::ZERO,
            platform_mean,
            nodes: mtbf.nodes(),
            rng,
            gaps: [0.0; EVENT_BATCH_MAX],
            victims: [0; EVENT_BATCH_MAX],
            filled: 0,
            next: 0,
            batch: EVENT_BATCH_FIRST,
        }
    }

    fn refill(&mut self) {
        let n = self.batch;
        fill_exponential_events(
            &mut self.rng,
            self.platform_mean,
            self.nodes,
            &mut self.gaps[..n],
            &mut self.victims[..n],
        );
        self.filled = n;
        self.next = 0;
        self.batch = (self.batch * 2).min(EVENT_BATCH_MAX);
    }
}

impl FailureSource for AggregatedExponential {
    fn next_failure(&mut self) -> FailureEvent {
        if self.next == self.filled {
            self.refill();
        }
        let gap = self.gaps[self.next];
        let node = self.victims[self.next];
        self.next += 1;
        self.now += SimTime::seconds(gap);
        FailureEvent { at: self.now, node }
    }

    fn nodes(&self) -> u64 {
        self.nodes
    }

    fn platform_mtbf(&self) -> SimTime {
        SimTime::seconds(self.platform_mean)
    }
}

/// Heap-based per-node renewal failure source (any inter-arrival law).
///
/// Each node runs an independent renewal process with the supplied
/// *per-node* distribution (mean = individual MTBF). When a node's
/// arrival fires, its next arrival is sampled immediately — modeling a
/// replacement node drawn from the same hardware population.
pub struct PerNodeRenewal {
    queue: EventQueue<NodeId>,
    dist: Box<dyn InterArrival>,
    nodes: u64,
    rng: StdRng,
}

impl PerNodeRenewal {
    /// Builds a fresh-start source: every node is brand-new at t = 0,
    /// so its first arrival is a full inter-arrival draw.
    /// `per_node_spec.mean()` must equal the individual-node MTBF; the
    /// platform MTBF is derived from it.
    pub fn new(per_node_spec: DistributionSpec, nodes: u64, rng: StdRng) -> Self {
        Self::start(per_node_spec, nodes, rng, |dist, rng| dist.sample(rng))
    }

    /// Builds a stationary source: the process is observed from an
    /// instant far into its run, so each node's first arrival is an
    /// exact draw of its stationary residual life
    /// ([`InterArrival::sample_residual`]) and the failure count over
    /// any window `[0, t)` has mean exactly `t / platform MTBF`. This
    /// matters for non-memoryless laws — a fresh-start Weibull with
    /// shape `k < 1` front-loads failures (infant mortality), inflating
    /// early-window counts well above the long-run rate. (For the
    /// Exponential law both starts have the same distribution.)
    pub fn stationary(per_node_spec: DistributionSpec, nodes: u64, rng: StdRng) -> Self {
        Self::start(per_node_spec, nodes, rng, |dist, rng| {
            dist.sample_residual(rng)
        })
    }

    /// Draws each node's first arrival with `first`, in node order, and
    /// heapifies them once.
    fn start(
        per_node_spec: DistributionSpec,
        nodes: u64,
        mut rng: StdRng,
        first: impl Fn(&dyn InterArrival, &mut StdRng) -> SimTime,
    ) -> Self {
        assert!(nodes > 0, "platform must have nodes");
        let dist = per_node_spec.build();
        let queue = (0..nodes)
            .map(|node| (first(&*dist, &mut rng), node))
            .collect();
        PerNodeRenewal {
            queue,
            dist,
            nodes,
            rng,
        }
    }

    /// Convenience: Exponential per-node renewal from an [`MtbfSpec`].
    pub fn exponential(mtbf: MtbfSpec, rng: StdRng) -> Self {
        Self::new(
            DistributionSpec::Exponential {
                mean: mtbf.individual_mtbf(),
            },
            mtbf.nodes(),
            rng,
        )
    }
}

impl FailureSource for PerNodeRenewal {
    fn next_failure(&mut self) -> FailureEvent {
        let ev = self
            .queue
            .peek()
            .expect("renewal queue is never empty (one arrival per node)");
        let (at, node) = (ev.at, ev.payload);
        self.queue
            .reschedule_first(at + self.dist.sample(&mut self.rng));
        FailureEvent { at, node }
    }

    fn nodes(&self) -> u64 {
        self.nodes
    }

    fn platform_mtbf(&self) -> SimTime {
        self.dist.mean() / self.nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dck_simcore::{OnlineStats, RngFactory};

    fn mtbf_1h_64nodes() -> MtbfSpec {
        MtbfSpec::Platform {
            mtbf: SimTime::hours(1.0),
            nodes: 64,
        }
    }

    #[test]
    fn aggregated_times_are_nondecreasing() {
        let mut src = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(1).stream(0));
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let ev = src.next_failure();
            assert!(ev.at >= last);
            assert!(ev.node < 64);
            last = ev.at;
        }
    }

    #[test]
    fn aggregated_platform_mtbf_calibrated() {
        let mut src = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(2).stream(0));
        let mut stats = OnlineStats::new();
        let mut last = SimTime::ZERO;
        for _ in 0..30_000 {
            let ev = src.next_failure();
            stats.push((ev.at - last).as_secs());
            last = ev.at;
        }
        let se = stats.std_error();
        assert!(
            (stats.mean() - 3600.0).abs() < 5.0 * se,
            "mean {} se {se}",
            stats.mean()
        );
    }

    #[test]
    fn aggregated_victims_uniform() {
        let mut src = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(3).stream(0));
        let mut counts = vec![0u64; 64];
        let n = 64_000;
        for _ in 0..n {
            counts[src.next_failure().node as usize] += 1;
        }
        let expected = n as f64 / 64.0;
        // Chi-squared-ish sanity: every node within ±20% of expectation.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.2 * expected,
                "node {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn renewal_times_are_nondecreasing_and_cover_nodes() {
        let mut src = PerNodeRenewal::exponential(mtbf_1h_64nodes(), RngFactory::new(4).stream(0));
        let mut last = SimTime::ZERO;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let ev = src.next_failure();
            assert!(ev.at >= last);
            last = ev.at;
            seen.insert(ev.node);
        }
        // With 5000 events over 64 nodes, all nodes fail at least once
        // with overwhelming probability.
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn renewal_matches_aggregated_rate_for_exponential() {
        // Both sources should produce the same platform-level event
        // rate when the law is Exponential.
        let spec = mtbf_1h_64nodes();
        let horizon = SimTime::hours(2000.0);

        let mut agg = AggregatedExponential::new(spec, RngFactory::new(5).stream(0));
        let mut n_agg = 0u64;
        while agg.next_failure().at < horizon {
            n_agg += 1;
        }

        let mut ren = PerNodeRenewal::exponential(spec, RngFactory::new(5).stream(1));
        let mut n_ren = 0u64;
        while ren.next_failure().at < horizon {
            n_ren += 1;
        }

        let expected = horizon / SimTime::hours(1.0); // 2000 failures
        let tol = 5.0 * expected.sqrt(); // ~5 sigma for Poisson counts
        assert!(
            (n_agg as f64 - expected).abs() < tol,
            "aggregated count {n_agg} vs {expected}"
        );
        assert!(
            (n_ren as f64 - expected).abs() < tol,
            "renewal count {n_ren} vs {expected}"
        );
    }

    #[test]
    fn renewal_supports_weibull() {
        let spec = DistributionSpec::Weibull {
            mean: SimTime::hours(64.0), // individual MTBF
            shape: 0.7,
        };
        let mut src = PerNodeRenewal::new(spec, 64, RngFactory::new(6).stream(0));
        assert_eq!(src.nodes(), 64);
        assert!((src.platform_mtbf().as_hours() - 1.0).abs() < 1e-12);
        let mut last = SimTime::ZERO;
        for _ in 0..2000 {
            let ev = src.next_failure();
            assert!(ev.at >= last);
            last = ev.at;
        }
    }

    #[test]
    fn stationary_start_removes_weibull_infant_mortality() {
        // Fresh-start Weibull k = 0.5 front-loads failures: the first
        // window sees far more than rate × window. A stationary source
        // runs at the long-run rate. A single run of this process
        // has heavy-tailed count noise, so the assertion averages a
        // fixed seed ensemble: the ensemble means are deterministic
        // (seeded RNG) and far better separated than any single draw.
        let nodes = 64;
        let mean = SimTime::hours(64.0); // individual MTBF ⇒ platform 1 h
        let spec = DistributionSpec::Weibull { mean, shape: 0.5 };
        let window = SimTime::hours(50.0); // expect ~50 under stationarity
        const SEEDS: [u64; 8] = [21, 22, 23, 24, 25, 26, 27, 28];

        let count_in_window = |mut src: PerNodeRenewal| -> u64 {
            let mut n = 0;
            while src.next_failure().at < window {
                n += 1;
            }
            n
        };
        let mut fresh_mean = 0.0;
        let mut warmed_mean = 0.0;
        for seed in SEEDS {
            fresh_mean += count_in_window(PerNodeRenewal::new(
                spec,
                nodes,
                RngFactory::new(seed).stream(0),
            )) as f64;
            warmed_mean += count_in_window(PerNodeRenewal::stationary(
                spec,
                nodes,
                RngFactory::new(seed).stream(0),
            )) as f64;
        }
        fresh_mean /= SEEDS.len() as f64;
        warmed_mean /= SEEDS.len() as f64;

        // Fresh start massively over-produces early failures (the
        // k = 0.5 burn-in factor is ≫ 2× over this window)…
        assert!(fresh_mean > 80.0, "fresh mean {fresh_mean}");
        // …while the stationary ensemble sits near 50.
        // Band = ±60 % of the expectation, several ensemble standard
        // errors wide (σ/√8 ≈ 4 counts), so it tolerates RNG changes
        // without ever overlapping the fresh-start regime.
        assert!(
            (20.0..=80.0).contains(&warmed_mean),
            "warmed mean {warmed_mean} (expected near 50)"
        );
        assert!(warmed_mean < 0.6 * fresh_mean);
    }

    #[test]
    fn stationary_start_is_noop_for_exponential_statistics() {
        // Memoryless: stationary and fresh sources have the same rate.
        let spec = DistributionSpec::Exponential {
            mean: SimTime::hours(64.0),
        };
        let horizon = SimTime::hours(500.0);
        let count = |src: &mut PerNodeRenewal| {
            let mut n = 0u64;
            while src.next_failure().at < horizon {
                n += 1;
            }
            n as f64
        };
        let mut fresh = PerNodeRenewal::new(spec, 64, RngFactory::new(8).stream(0));
        let mut warmed = PerNodeRenewal::stationary(spec, 64, RngFactory::new(8).stream(1));
        let (a, b) = (count(&mut fresh), count(&mut warmed));
        // Both ≈ 500 (platform MTBF 1 h); 5σ Poisson band.
        let tol = 5.0 * 500.0_f64.sqrt();
        assert!((a - 500.0).abs() < tol, "fresh {a}");
        assert!((b - 500.0).abs() < tol, "warmed {b}");
    }

    /// The renewal laws the stationary start is checked on, each with
    /// individual mean 1 s.
    fn renewal_laws() -> [(&'static str, DistributionSpec); 4] {
        let mean = SimTime::seconds(1.0);
        [
            ("exponential", DistributionSpec::Exponential { mean }),
            (
                "weibull_k0.5",
                DistributionSpec::Weibull { mean, shape: 0.5 },
            ),
            (
                "weibull_k0.7",
                DistributionSpec::Weibull { mean, shape: 0.7 },
            ),
            (
                "lognormal_s1",
                DistributionSpec::LogNormal { mean, sigma: 1.0 },
            ),
        ]
    }

    #[test]
    fn stationary_first_failure_matches_a_long_burn_in() {
        // Two-sample Kolmogorov–Smirnov test at α = 0.001: the first
        // failure of a one-node stationary source against the residual
        // life seen after 200 MTBFs of a fresh-start process.
        const N: usize = 3_000;
        let burn_in = SimTime::seconds(200.0);
        // c(α) = sqrt(−ln(α/2) / 2) for equal sample sizes N.
        let critical = (-(0.001_f64 / 2.0).ln() / 2.0).sqrt() * (2.0 / N as f64).sqrt();
        for (i, (label, spec)) in renewal_laws().into_iter().enumerate() {
            let factory = RngFactory::new(0x5747 + i as u64);
            let mut stationary: Vec<f64> = (0..N as u64)
                .map(|r| {
                    let mut src = PerNodeRenewal::stationary(spec, 1, factory.stream(2 * r));
                    src.next_failure().at.as_secs()
                })
                .collect();
            let mut reference: Vec<f64> = (0..N as u64)
                .map(|r| {
                    let mut src = PerNodeRenewal::new(spec, 1, factory.stream(2 * r + 1));
                    loop {
                        let at = src.next_failure().at;
                        if at >= burn_in {
                            break (at - burn_in).as_secs();
                        }
                    }
                })
                .collect();
            stationary.sort_by(f64::total_cmp);
            reference.sort_by(f64::total_cmp);
            let (mut a, mut b, mut d) = (0, 0, 0.0_f64);
            while a < N && b < N {
                if stationary[a] <= reference[b] {
                    a += 1;
                } else {
                    b += 1;
                }
                d = d.max((a as f64 - b as f64).abs() / N as f64);
            }
            assert!(d < critical, "{label}: KS distance {d} ≥ {critical}");
        }
    }

    #[test]
    fn stationary_count_has_the_renewal_mean() {
        // A stationary renewal process has E[N(0, t)] = t/μ exactly, for
        // every law: 64 nodes of individual MTBF 64 s expect 50 failures
        // in 50 s. The fixed seed ensemble is large enough (SE ≈ 0.12
        // failures for Weibull k = 0.5) that the 2 % excess left by ten
        // MTBFs of burn-in fails it.
        const SEEDS: u64 = 8_000;
        let (nodes, window) = (64, SimTime::seconds(50.0));
        for (label, spec) in renewal_laws().into_iter().skip(1) {
            let spec = spec.with_mean(SimTime::seconds(64.0));
            let factory = RngFactory::new(0xC0DE);
            let mut counts = OnlineStats::new();
            for seed in 0..SEEDS {
                let mut src = PerNodeRenewal::stationary(spec, nodes, factory.stream(seed));
                let mut n = 0u64;
                while src.next_failure().at < window {
                    n += 1;
                }
                counts.push(n as f64);
            }
            let se = counts.std_error();
            assert!(
                (counts.mean() - 50.0).abs() < 4.0 * se,
                "{label}: mean count {} ± {se}, expected 50",
                counts.mean()
            );
        }
    }

    #[test]
    fn batching_preserves_the_scalar_event_stream() {
        // The buffered source must emit exactly the events a scalar
        // draw-per-event loop would: one uniform → gap, one bounded
        // draw → victim, per event, in order. This pins the seeded
        // streams across the batching rewrite — every (seed, stream)
        // pair produces the same failures as before.
        use rand::Rng;
        let spec = mtbf_1h_64nodes();
        let mut src = AggregatedExponential::new(spec, RngFactory::new(41).stream(0));
        let mut rng = RngFactory::new(41).stream(0);
        let mean = spec.platform_mtbf().as_secs();
        let mut now = SimTime::ZERO;
        for i in 0..500 {
            let u: f64 = rng.gen();
            let gap = -mean * (1.0 - u).ln();
            now += SimTime::seconds(gap);
            let node = rng.gen_range(0..64u64);
            let ev = src.next_failure();
            assert_eq!(ev.at, now, "event {i} time");
            assert_eq!(ev.node, node, "event {i} victim");
        }
    }

    #[test]
    fn sources_are_reproducible() {
        let a: Vec<FailureEvent> = {
            let mut s = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(9).stream(7));
            (0..100).map(|_| s.next_failure()).collect()
        };
        let b: Vec<FailureEvent> = {
            let mut s = AggregatedExponential::new(mtbf_1h_64nodes(), RngFactory::new(9).stream(7));
            (0..100).map(|_| s.next_failure()).collect()
        };
        assert_eq!(a, b);
    }
}
