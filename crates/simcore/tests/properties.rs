//! Property-based tests for the simulation kernel.

use dck_simcore::stats::student_t_quantile;
use dck_simcore::{EventQueue, OnlineStats, ScheduledEvent, SimTime, SplitMix64, TimeWeighted};
use proptest::prelude::*;

proptest! {
    /// The event queue pops in exactly the order `sort_by (time, seq)`
    /// would produce — total order, stable among ties.
    #[test]
    fn event_queue_is_stable_total_order(times in prop::collection::vec(0u32..100, 1..200)) {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u32, usize)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::seconds(t as f64), i);
            reference.push((t, i));
        }
        reference.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<(u32, usize)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at.as_secs() as u32, e.payload))
            .collect();
        prop_assert_eq!(popped, reference);
    }

    /// `reschedule_first` is pop-then-push of the same payload, and
    /// collecting builds the queue that pushing in order builds: under
    /// any mix of pushes and reschedules the two queues hold and pop
    /// the same `(at, seq, payload)` events.
    #[test]
    fn reschedule_first_matches_pop_then_push(
        initial in prop::collection::vec(0u32..50, 1..50),
        ops in prop::collection::vec((any::<bool>(), 0u32..50), 0..200),
    ) {
        let key = |e: &ScheduledEvent<usize>| (e.at, e.seq, e.payload);
        let mut fused: EventQueue<usize> = initial
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::seconds(t as f64), i))
            .collect();
        let mut reference = EventQueue::new();
        for (i, &t) in initial.iter().enumerate() {
            reference.push(SimTime::seconds(t as f64), i);
        }
        for (k, &(reschedule, t)) in ops.iter().enumerate() {
            if reschedule {
                let top = reference.pop().expect("queues are never empty");
                prop_assert_eq!(fused.peek().map(key), Some(key(&top)));
                let at = top.at + SimTime::seconds(t as f64);
                let seq = reference.push(at, top.payload);
                prop_assert_eq!(fused.reschedule_first(at), Some(seq));
            } else {
                let (at, payload) = (SimTime::seconds(t as f64), initial.len() + k);
                prop_assert_eq!(fused.push(at, payload), reference.push(at, payload));
            }
        }
        let drain = |q: &mut EventQueue<usize>| {
            std::iter::from_fn(|| q.pop()).map(|e| key(&e)).collect::<Vec<_>>()
        };
        prop_assert_eq!(drain(&mut fused), drain(&mut reference));
    }

    /// Welford statistics agree with the two-pass formulas for any
    /// finite sample.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = OnlineStats::new();
        s.extend(xs.iter().copied());
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
    }

    /// Merging any split of a sample equals processing it whole.
    #[test]
    fn welford_merge_associative(xs in prop::collection::vec(-1e3f64..1e3, 2..100), cut in 0usize..100) {
        let cut = cut % xs.len();
        let mut whole = OnlineStats::new();
        whole.extend(xs.iter().copied());
        let mut a = OnlineStats::new();
        a.extend(xs[..cut].iter().copied());
        let mut b = OnlineStats::new();
        b.extend(xs[cut..].iter().copied());
        a.merge(&b);
        prop_assert_eq!(whole.count(), a.count());
        prop_assert!((whole.mean() - a.mean()).abs() < 1e-8);
        prop_assert!((whole.variance() - a.variance()).abs() < 1e-6);
    }

    /// The time-weighted integral of a piecewise-constant signal equals
    /// the sum of value × duration over its segments.
    #[test]
    fn time_weighted_integral_exact(segments in prop::collection::vec((0.0f64..100.0, 0.01f64..50.0), 1..30)) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut t = 0.0;
        let mut expected = 0.0;
        for &(value, dur) in &segments {
            tw.set(SimTime::seconds(t), value);
            expected += value * dur;
            t += dur;
        }
        prop_assert!((tw.integral(SimTime::seconds(t)) - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    /// SplitMix64 is a bijection-ish mixer: distinct seeds give
    /// distinct first outputs (no collisions in small samples).
    #[test]
    fn splitmix_no_trivial_collisions(seed in any::<u64>()) {
        let a = SplitMix64::new(seed).next_u64();
        let b = SplitMix64::new(seed.wrapping_add(1)).next_u64();
        prop_assert_ne!(a, b);
    }

    /// Student-t quantiles are monotone in p and decrease toward the
    /// normal quantile as df grows.
    #[test]
    fn t_quantile_monotonicity(df in 3.0f64..500.0) {
        let q90 = student_t_quantile(0.90, df);
        let q95 = student_t_quantile(0.95, df);
        let q99 = student_t_quantile(0.99, df);
        prop_assert!(q90 < q95 && q95 < q99);
        let tighter = student_t_quantile(0.975, df * 4.0);
        let looser = student_t_quantile(0.975, df);
        prop_assert!(tighter <= looser + 1e-9);
    }

    /// SimTime arithmetic respects ordering: adding a positive span
    /// strictly increases the time.
    #[test]
    fn simtime_order_respects_addition(base in -1e9f64..1e9, span in 1e-6f64..1e9) {
        let t = SimTime::seconds(base);
        prop_assert!(t + SimTime::seconds(span) > t);
        prop_assert!(t - SimTime::seconds(span) < t);
    }
}
