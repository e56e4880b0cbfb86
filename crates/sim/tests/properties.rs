//! Property-based tests for the platform simulator.

use dck_core::{optimal_period, ControllerConfig, PlatformParams, Protocol};
use dck_failures::{AggregatedExponential, MtbfSpec};
use dck_sim::{
    estimate_waste, run_adaptive_traced, run_sweep, run_to_completion, run_to_completion_traced,
    run_until, run_until_traced, AdaptiveRunConfig, EarlyStop, MonteCarloConfig, PeriodChoice,
    RunConfig, StopReason, SweepEngine, SweepSpec, TimelineEvent,
};
use dck_simcore::{RngFactory, SimTime};
use proptest::prelude::*;

fn params() -> PlatformParams {
    PlatformParams::new(0.0, 2.0, 4.0, 10.0, 24).unwrap()
}

fn protocol_strategy() -> impl Strategy<Value = Protocol> {
    prop::sample::select(vec![
        Protocol::DoubleNbl,
        Protocol::DoubleBof,
        Protocol::Triple,
    ])
}

fn source(cfg: &RunConfig, seed: u64) -> AggregatedExponential {
    let spec = MtbfSpec::Individual {
        mtbf: SimTime::seconds(cfg.mtbf * cfg.params.nodes as f64),
        nodes: cfg.usable_nodes(),
    };
    AggregatedExponential::new(spec, RngFactory::new(seed).stream(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: wall-clock time = productive schedule time +
    /// outage time, and useful work never exceeds either the requested
    /// work or the elapsed time.
    #[test]
    fn run_conserves_time_and_work(
        protocol in protocol_strategy(),
        ratio in 0.0f64..1.0,
        mtbf in 120.0f64..7200.0,
        seed in 0u64..1000,
    ) {
        let phi = ratio * params().theta_min;
        let cfg = RunConfig::new(protocol, params(), phi, mtbf);
        let t_base = 10.0 * mtbf;
        let mut src = source(&cfg, seed);
        let out = run_to_completion(&cfg, t_base, &mut src).unwrap();
        match out.reason {
            StopReason::WorkComplete => {
                prop_assert!((out.useful_work - t_base).abs() < 1e-6);
                prop_assert!(out.total_time >= t_base - 1e-9);
                // total = productive schedule time + outages; the
                // productive time is work / (W/P) = t_base * P / W,
                // which run-internally equals total - outage.
                let schedule_time = out.total_time - out.outage_time;
                prop_assert!(schedule_time >= out.useful_work - 1e-6);
            }
            StopReason::Fatal => {
                prop_assert!(out.fatal_at.is_some());
                prop_assert!(out.useful_work <= t_base + 1e-6);
            }
            _ => {}
        }
        prop_assert!((0.0..=1.0).contains(&out.waste()));
    }

    /// Determinism: identical seeds give identical outcomes.
    #[test]
    fn runs_are_deterministic(
        protocol in protocol_strategy(),
        seed in 0u64..500,
    ) {
        let cfg = RunConfig::new(protocol, params(), 1.0, 900.0);
        let mut s1 = source(&cfg, seed);
        let mut s2 = source(&cfg, seed);
        let a = run_to_completion(&cfg, 5_000.0, &mut s1).unwrap();
        let b = run_to_completion(&cfg, 5_000.0, &mut s2).unwrap();
        prop_assert_eq!(a.total_time, b.total_time);
        prop_assert_eq!(a.failures, b.failures);
        prop_assert_eq!(a.fatal_at, b.fatal_at);
    }

    /// Horizon runs never exceed the horizon, and longer horizons only
    /// accumulate more (or equal) work for the same failure stream.
    #[test]
    fn horizon_monotone(seed in 0u64..300, h1 in 1_000.0f64..20_000.0) {
        let cfg = RunConfig::new(Protocol::DoubleNbl, params(), 1.0, 600.0);
        let h2 = h1 * 2.0;
        let mut s1 = source(&cfg, seed);
        let mut s2 = source(&cfg, seed);
        let a = run_until(&cfg, h1, &mut s1).unwrap();
        let b = run_until(&cfg, h2, &mut s2).unwrap();
        prop_assert!(a.total_time <= h1 + 1e-9);
        prop_assert!(b.total_time <= h2 + 1e-9);
        if a.reason == StopReason::HorizonReached && b.reason == StopReason::HorizonReached {
            prop_assert!(b.useful_work >= a.useful_work - 1e-9);
        }
    }

    /// More failures never help: halving the MTBF cannot reduce the
    /// mean waste of *completed* runs (fatal runs end early and are
    /// excluded; checked on seed-averaged ensembles to absorb noise).
    #[test]
    fn lower_mtbf_never_wastes_less(seed in 0u64..50) {
        let work = 20_000.0;
        let mean_waste = |mtbf: f64| -> Option<f64> {
            let cfg = RunConfig::new(Protocol::DoubleNbl, params(), 1.0, mtbf);
            let mut sum = 0.0;
            let mut n = 0u32;
            for i in 0..8 {
                let mut s = source(&cfg, seed * 8 + i);
                let out = run_to_completion(&cfg, work, &mut s).unwrap();
                if out.reason == StopReason::WorkComplete {
                    sum += out.waste();
                    n += 1;
                }
            }
            (n > 0).then(|| sum / n as f64)
        };
        if let (Some(fast_failing), Some(slow_failing)) = (mean_waste(600.0), mean_waste(6_000.0)) {
            prop_assert!(
                fast_failing >= slow_failing * 0.9,
                "fast {fast_failing} vs slow {slow_failing}"
            );
        }
    }

    /// Sweep execution is one algorithm in six guises: both engines at
    /// every worker count produce bit-identical cells, with and
    /// without early stopping. The invariant behind it: replication
    /// RNG streams derive from (cell seed, index) only, and per-chunk
    /// accumulators merge in fixed ascending order.
    #[test]
    fn sweep_engines_bit_identical_across_workers(
        seed in 0u64..200,
        reps in 8usize..32,
        early in any::<bool>(),
    ) {
        let mut spec = SweepSpec::new(
            Protocol::DoubleNbl,
            params(),
            vec![0.25, 0.75],
            vec![900.0, 3_600.0],
        );
        spec.seed = seed;
        spec.replications = reps;
        spec.work_in_mtbfs = 6.0;
        if early {
            spec.early_stop = Some(EarlyStop {
                target_half_width: 0.02,
                min_replications: 8,
                batch: 8,
            });
        }
        let mut results = Vec::new();
        for engine in [SweepEngine::PerCell, SweepEngine::GlobalPool] {
            for workers in [1usize, 2, 8] {
                spec.engine = engine;
                spec.workers = workers;
                results.push(run_sweep(&spec).unwrap());
            }
        }
        let reference = results[0].clone();
        for other in &results[1..] {
            for (a, b) in reference.cells.iter().zip(&other.cells) {
                prop_assert_eq!(
                    a.sim_waste.map(f64::to_bits),
                    b.sim_waste.map(f64::to_bits)
                );
                prop_assert_eq!(
                    a.half_width.map(f64::to_bits),
                    b.half_width.map(f64::to_bits)
                );
                prop_assert_eq!(a.completed, b.completed);
                prop_assert_eq!(a.fatal, b.fatal);
                prop_assert_eq!(a.truncated, b.truncated);
                prop_assert_eq!(a.replications_run, b.replications_run);
            }
        }
    }

    /// The global pool reproduces the seed sequential path bit-for-bit:
    /// a one-cell sweep equals a direct `estimate_waste` call at the
    /// same operating point and seed.
    #[test]
    fn global_pool_matches_direct_estimator(
        seed in 0u64..200,
        ratio in 0.0f64..1.0,
    ) {
        let mtbf = 1_800.0;
        let mut spec = SweepSpec::new(Protocol::DoubleNbl, params(), vec![ratio], vec![mtbf]);
        spec.seed = seed;
        spec.replications = 16;
        spec.work_in_mtbfs = 6.0;
        spec.workers = 8;
        let sweep = run_sweep(&spec).unwrap();
        let cell = &sweep.cells[0];

        let phi = ratio * params().theta_min;
        let opt = optimal_period(Protocol::DoubleNbl, &params(), phi, mtbf).unwrap();
        let mut run_cfg = RunConfig::new(Protocol::DoubleNbl, params(), phi, mtbf);
        run_cfg.period = PeriodChoice::Explicit(opt.period);
        // A one-cell sweep's derived seed is the master seed itself.
        let mut mc = MonteCarloConfig::new(16, seed);
        mc.workers = 1;
        let est = estimate_waste(&run_cfg, 6.0 * mtbf, &mc).unwrap();

        prop_assert_eq!(
            cell.sim_waste.map(f64::to_bits),
            est.ci95.map(|ci| ci.mean.to_bits())
        );
        prop_assert_eq!(
            cell.half_width.map(f64::to_bits),
            est.ci95.map(|ci| ci.half_width.to_bits())
        );
        prop_assert_eq!(cell.completed, est.completed);
        prop_assert_eq!(cell.fatal, est.fatal);
        prop_assert_eq!(cell.truncated, est.truncated);
    }

    /// Timeline invariants for traced runs: timestamps are monotone
    /// non-decreasing, no prefix has more `OutageEnd`s than `Failure`s
    /// (an outage can only end after a failure opened it), and the
    /// `Finished` marker — emitted on every stop path — is unique,
    /// terminal, and names the outcome's stop reason at the outcome's
    /// stop time.
    #[test]
    fn timeline_is_monotone_and_well_formed(
        protocol in protocol_strategy(),
        ratio in 0.0f64..1.0,
        mtbf in 120.0f64..7200.0,
        seed in 0u64..300,
    ) {
        let phi = ratio * params().theta_min;
        let cfg = RunConfig::new(protocol, params(), phi, mtbf);
        let mut src = source(&cfg, seed);
        let (out, timeline) = run_to_completion_traced(&cfg, 6.0 * mtbf, &mut src).unwrap();

        let stamp = |e: &TimelineEvent| match *e {
            TimelineEvent::Failure { at, .. }
            | TimelineEvent::OutageEnd { at }
            | TimelineEvent::Retune { at, .. }
            | TimelineEvent::Finished { at, .. } => at,
        };
        let mut prev = 0.0;
        let mut failures = 0usize;
        let mut outage_ends = 0usize;
        for (i, e) in timeline.iter().enumerate() {
            let t = stamp(e);
            prop_assert!(t >= prev - 1e-9, "event {i} at {t} before {prev}: {e:?}");
            prev = t;
            match e {
                TimelineEvent::Failure { .. } => failures += 1,
                TimelineEvent::OutageEnd { .. } => outage_ends += 1,
                TimelineEvent::Retune { .. } => {
                    prop_assert!(false, "static machine emitted a Retune event")
                }
                TimelineEvent::Finished { reason, at } => {
                    prop_assert_eq!(i, timeline.len() - 1, "Finished not terminal");
                    prop_assert_eq!(*reason, out.reason);
                    prop_assert!((at - out.total_time).abs() < 1e-6);
                }
            }
            prop_assert!(
                outage_ends <= failures,
                "event {i}: {outage_ends} OutageEnds but only {failures} Failures"
            );
        }
        prop_assert_eq!(failures, out.failures as usize);
        prop_assert!(
            matches!(timeline.last(), Some(TimelineEvent::Finished { .. })),
            "run missing terminal Finished marker: {:?}",
            timeline.last()
        );
    }

    /// Every traced run — whichever of the five `StopReason`s ends it —
    /// produces a timeline with exactly one `Finished` event, terminal,
    /// whose reason matches `RunOutcome::reason`; and the whole
    /// timeline survives the JSONL wire format. The five modes steer
    /// runs toward every stop reason (mode 3/4 hit `NoProgress`
    /// deterministically; mode 1's failure cap of 1 cannot be beaten
    /// to a fatal failure by a first failure). Work-mode runs also go
    /// through the adaptive executor with a live controller.
    #[test]
    fn every_traced_run_ends_with_one_finished(
        protocol in protocol_strategy(),
        ratio in 0.0f64..1.0,
        mtbf in 120.0f64..7200.0,
        seed in 0u64..300,
        mode in 0usize..5,
    ) {
        let phi = ratio * params().theta_min;
        let adaptive = |cfg: &RunConfig, work: f64| {
            let acfg = AdaptiveRunConfig {
                base: *cfg,
                prior_mtbf: cfg.mtbf / 4.0,
                controller: ControllerConfig::default(),
            };
            let (out, tl) = run_adaptive_traced(&acfg, work, &mut source(cfg, seed)).unwrap();
            (out.run, tl)
        };
        let runs = match mode {
            // Work mode: WorkComplete or Fatal.
            0 => {
                let cfg = RunConfig::new(protocol, params(), phi, mtbf);
                vec![
                    run_to_completion_traced(&cfg, 4.0 * mtbf, &mut source(&cfg, seed)).unwrap(),
                    adaptive(&cfg, 4.0 * mtbf),
                ]
            }
            // Tiny failure cap with unreachable work: FailureCapReached.
            1 => {
                let mut cfg = RunConfig::new(protocol, params(), phi, mtbf);
                cfg.max_failures = 1 + seed % 3;
                vec![
                    run_to_completion_traced(&cfg, 1e6 * mtbf, &mut source(&cfg, seed)).unwrap(),
                    adaptive(&cfg, 1e6 * mtbf),
                ]
            }
            // Horizon mode: HorizonReached or Fatal.
            2 => {
                let cfg = RunConfig::new(protocol, params(), phi, mtbf);
                vec![run_until_traced(&cfg, 2.0 * mtbf, &mut source(&cfg, seed)).unwrap()]
            }
            // No-progress operating point, work mode.
            3 => {
                let mut cfg = RunConfig::new(Protocol::DoubleBlocking, params(), 0.0, mtbf);
                cfg.period = PeriodChoice::Explicit(6.0);
                vec![
                    run_to_completion_traced(&cfg, 100.0, &mut source(&cfg, seed)).unwrap(),
                    adaptive(&cfg, 100.0),
                ]
            }
            // No-progress operating point, horizon mode.
            _ => {
                let mut cfg = RunConfig::new(Protocol::DoubleBlocking, params(), 0.0, mtbf);
                cfg.period = PeriodChoice::Explicit(6.0);
                vec![run_until_traced(&cfg, 2.0 * mtbf, &mut source(&cfg, seed)).unwrap()]
            }
        };

        for (out, timeline) in &runs {
            let finished = timeline
                .iter()
                .filter(|e| matches!(e, TimelineEvent::Finished { .. }))
                .count();
            prop_assert_eq!(finished, 1, "expected exactly one Finished: {:?}", timeline);
            match timeline.last() {
                Some(TimelineEvent::Finished { at, reason }) => {
                    prop_assert_eq!(*reason, out.reason);
                    if out.total_time.is_finite() {
                        prop_assert!((at - out.total_time).abs() < 1e-6);
                    } else {
                        // Work-mode NoProgress: infinite total time, marker
                        // stamped at 0 so JSON can carry it.
                        prop_assert_eq!(*at, 0.0);
                    }
                }
                other => prop_assert!(false, "terminal event not Finished: {other:?}"),
            }
            for e in timeline {
                let line = serde_json::to_string(e).unwrap();
                let back: TimelineEvent = serde_json::from_str(&line).unwrap();
                prop_assert_eq!(&back, e, "round trip changed {}", line);
            }
        }
    }

    /// A timeline survives the JSONL wire format bit-for-bit: each
    /// event serialized to a line and parsed back compares equal
    /// (including the exact float timestamps).
    #[test]
    fn timeline_round_trips_through_jsonl(seed in 0u64..300, ratio in 0.0f64..1.0) {
        let phi = ratio * params().theta_min;
        let cfg = RunConfig::new(Protocol::DoubleNbl, params(), phi, 600.0);
        let mut src = source(&cfg, seed);
        let (_, timeline) = run_to_completion_traced(&cfg, 4_000.0, &mut src).unwrap();
        for e in &timeline {
            let line = serde_json::to_string(e).unwrap();
            prop_assert!(!line.contains('\n'), "JSONL line must be newline-free");
            let back: TimelineEvent = serde_json::from_str(&line).unwrap();
            prop_assert_eq!(&back, e, "round trip changed {}", line);
        }
    }

    /// The no-progress guard fires exactly when the schedule's work per
    /// period is zero.
    #[test]
    fn no_progress_guard(period_extra in 0.0f64..10.0) {
        // DoubleBlocking: W = P - delta - theta_min; zero at minimum period.
        let mut cfg = RunConfig::new(Protocol::DoubleBlocking, params(), 0.0, 3600.0);
        cfg.period = PeriodChoice::Explicit(6.0 + period_extra);
        let mut src = source(&cfg, 1);
        let out = run_to_completion(&cfg, 100.0, &mut src).unwrap();
        if period_extra < 1e-12 {
            prop_assert_eq!(out.reason, StopReason::NoProgress);
        } else {
            prop_assert_ne!(out.reason, StopReason::NoProgress);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sweep accounting invariant: however early stopping lands
    /// relative to round boundaries, every executed replication is
    /// counted exactly once. Outcome counts sum to `replications_run`,
    /// which is a whole number of rounds (or the exact budget), and
    /// both engines agree on every count and every bit.
    #[test]
    fn sweep_accounting_is_exact(
        protocol in protocol_strategy(),
        ratio in 0.0f64..1.0,
        replications in 8usize..48,
        batch in 8usize..24,
        target in 0.0f64..0.1,
        seed in 0u64..1000,
    ) {
        let mut spec = SweepSpec::new(protocol, params(), vec![ratio], vec![1_800.0, 3_600.0]);
        spec.replications = replications;
        spec.work_in_mtbfs = 4.0;
        spec.seed = seed;
        spec.early_stop = Some(EarlyStop {
            target_half_width: target,
            min_replications: 8,
            batch,
        });
        // Rounds are the batch rounded up to the REP_CHUNK (8) multiple.
        let round = batch.div_ceil(8) * 8;
        let global = run_sweep(&spec).unwrap();
        for c in &global.cells {
            prop_assert_eq!(c.completed + c.fatal + c.truncated, c.replications_run,
                "outcome counts must partition the executed replications: {:?}", c);
            prop_assert!(c.replications_run <= replications);
            prop_assert!(
                c.replications_run == replications || c.replications_run % round == 0,
                "ran {} (round {}, budget {})", c.replications_run, round, replications
            );
        }
        spec.engine = SweepEngine::PerCell;
        let per_cell = run_sweep(&spec).unwrap();
        for (a, b) in global.cells.iter().zip(&per_cell.cells) {
            prop_assert_eq!(a.replications_run, b.replications_run);
            prop_assert_eq!(a.completed, b.completed);
            prop_assert_eq!(a.fatal, b.fatal);
            prop_assert_eq!(a.truncated, b.truncated);
            prop_assert_eq!(a.sim_waste.map(f64::to_bits), b.sim_waste.map(f64::to_bits));
            prop_assert_eq!(a.half_width.map(f64::to_bits), b.half_width.map(f64::to_bits));
        }
    }
}

/// Deterministic coverage companion to
/// `every_traced_run_ends_with_one_finished`: the property test cannot
/// guarantee each variant occurs, so this exercises one concrete run
/// per `StopReason` and checks its terminal `Finished` marker. (The
/// predicted policies, which have no public traced entry point, are
/// covered the same way inside the crate.)
#[test]
fn all_five_stop_reasons_produce_terminal_finished() {
    use dck_failures::{FailureEvent, FailureTrace};

    let mk_trace = |events: &[(f64, u64)]| {
        FailureTrace::new(
            24,
            events
                .iter()
                .map(|&(at, node)| FailureEvent {
                    at: SimTime::seconds(at),
                    node,
                })
                .collect(),
        )
    };
    let check = |out: &dck_sim::RunOutcome, timeline: &[TimelineEvent], expect: StopReason| {
        assert_eq!(out.reason, expect);
        let finished = timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Finished { .. }))
            .count();
        assert_eq!(finished, 1, "{expect:?}: {timeline:?}");
        match timeline.last() {
            Some(TimelineEvent::Finished { reason, .. }) => assert_eq!(*reason, expect),
            other => panic!("{expect:?}: terminal event not Finished: {other:?}"),
        }
    };
    let mut cfg = RunConfig::new(Protocol::DoubleNbl, params(), 1.0, 3600.0);
    cfg.period = PeriodChoice::Explicit(100.0);

    // The adaptive executor (live controller) on every work-mode path.
    let adaptive = |cfg: &RunConfig, work: f64, tr: &FailureTrace| {
        let acfg = AdaptiveRunConfig {
            base: *cfg,
            prior_mtbf: 3600.0,
            controller: ControllerConfig {
                min_failures: 1,
                ..ControllerConfig::default()
            },
        };
        let (out, tl) = run_adaptive_traced(&acfg, work, &mut tr.replay()).unwrap();
        (out.run, tl)
    };

    let tr = mk_trace(&[]);
    let (out, tl) = run_to_completion_traced(&cfg, 970.0, &mut tr.replay()).unwrap();
    check(&out, &tl, StopReason::WorkComplete);
    let (out, tl) = adaptive(&cfg, 970.0, &tr);
    check(&out, &tl, StopReason::WorkComplete);

    // Buddy failure inside the risk window.
    let tr = mk_trace(&[(250.0, 0), (260.0, 1)]);
    let (out, tl) = run_to_completion_traced(&cfg, 970.0, &mut tr.replay()).unwrap();
    check(&out, &tl, StopReason::Fatal);
    let (out, tl) = adaptive(&cfg, 970.0, &tr);
    check(&out, &tl, StopReason::Fatal);

    let tr = mk_trace(&[]);
    let (out, tl) = run_until_traced(&cfg, 500.0, &mut tr.replay()).unwrap();
    check(&out, &tl, StopReason::HorizonReached);

    // Two survivable failures against a cap of two.
    let mut capped = cfg;
    capped.max_failures = 2;
    let tr = mk_trace(&[(1000.0, 0), (2000.0, 4), (3000.0, 8)]);
    let (out, tl) = run_to_completion_traced(&capped, 1e9, &mut tr.replay()).unwrap();
    check(&out, &tl, StopReason::FailureCapReached);
    let (out, tl) = adaptive(&capped, 1e9, &tr);
    check(&out, &tl, StopReason::FailureCapReached);

    // Zero work per period in both stop modes.
    let mut stuck = RunConfig::new(Protocol::DoubleBlocking, params(), 0.0, 3600.0);
    stuck.period = PeriodChoice::Explicit(6.0);
    let tr = mk_trace(&[]);
    let (out, tl) = run_to_completion_traced(&stuck, 100.0, &mut tr.replay()).unwrap();
    check(&out, &tl, StopReason::NoProgress);
    let (out, tl) = adaptive(&stuck, 100.0, &tr);
    check(&out, &tl, StopReason::NoProgress);
    let (out, tl) = run_until_traced(&stuck, 500.0, &mut tr.replay()).unwrap();
    check(&out, &tl, StopReason::NoProgress);
}
