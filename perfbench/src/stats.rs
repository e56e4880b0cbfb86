//! Order statistics shared by every workload.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`): the smallest sample with
/// at least `q · n` samples at or below it. `NaN` for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `k` interleaved batch means of `xs`: sample `i` goes
/// to batch `i % k`, so that each batch spans the whole run and a spell
/// of host noise is shared out over every batch. With fewer than `k`
/// samples, the median of the samples.
pub fn interleaved_median(xs: &[f64], k: usize) -> f64 {
    if xs.len() < k.max(1) {
        return median(xs);
    }
    let means: Vec<f64> = (0..k)
        .map(|b| {
            let batch: Vec<f64> = xs.iter().skip(b).step_by(k).copied().collect();
            batch.iter().sum::<f64>() / batch.len() as f64
        })
        .collect();
    median(&means)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Times `f` once, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs(t0))
}

/// Share of the machine's CPU time above which a timed unit counts as
/// disturbed by the hypervisor and is measured again.
pub const DISTURBED: f64 = 0.03;

/// CPU seconds the hypervisor has stolen from this machine so far (the
/// `steal` column of `/proc/stat`, in 1/100 s ticks); 0 where the
/// column is unavailable.
fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Measures how much CPU time was stolen while a unit ran.
pub struct StealMeter {
    t0: Instant,
    stolen0: f64,
}

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> StealMeter {
        StealMeter {
            t0: Instant::now(),
            stolen0: stolen_s(),
        }
    }

    /// Stolen CPU time over the machine's CPU time since the start.
    pub fn share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let wall = secs(self.t0).max(1e-3);
        (stolen_s() - self.stolen0) / (wall * cpus)
    }
}

/// Runs `f` up to `1 + retries` times until one run is not disturbed
/// (see [`DISTURBED`]); returns the least disturbed result, its steal
/// share, and the number of runs discarded. `f` gets the attempt number
/// (0 first), so that a retry can draw fresh inputs: replaying the same
/// requests would find every cell they touched already cached.
pub fn undisturbed<T>(retries: usize, mut f: impl FnMut(u64) -> T) -> (T, f64, usize) {
    let mut best: Option<(T, f64)> = None;
    let mut runs = 0;
    loop {
        let meter = StealMeter::start();
        let out = f(runs as u64);
        let share = meter.share();
        runs += 1;
        if best.as_ref().is_none_or(|(_, b)| share < *b) {
            best = Some((out, share));
        }
        let (_, b) = best.as_ref().expect("set above");
        if *b <= DISTURBED || runs > retries {
            let (out, share) = best.expect("set above");
            return (out, share, runs - 1);
        }
    }
}

/// SplitMix64: the benchmark's own input generator, seeded from
/// `--seed`, so every generated input is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interleaved_median_takes_the_median_of_strided_batch_means() {
        // Batches {1, 4, 7}, {2, 5, 8}, {3, 6, 9}: means 4, 5, 6.
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(interleaved_median(&xs, 3), 5.0);
        assert_eq!(interleaved_median(&[3.0, 1.0], 3), 2.0);
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(9);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix64::new(9);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }
}
