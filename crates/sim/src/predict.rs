//! Mechanistic simulation of the fault-prediction scenario.
//!
//! Independent re-implementation of the physics behind
//! [`dck_core::predict`], as a `Policy` on the one executor of
//! [`crate::run`]: failures stream from the usual aggregated Poisson
//! source; each is flagged *predicted* with probability `r` (the
//! predictor's recall) and announces itself `w` seconds early; false
//! alarms arrive as their own Poisson process at rate `r(1 − p)/(pM)`.
//! Every alarm freezes the platform for a proactive checkpoint
//! `C_p = δ + R`; a predicted failure then rolls back only to that
//! fresh image (outage `D + R` plus re-execution of the short stretch
//! since the proactive checkpoint), while an unpredicted one pays the
//! full §III/§V case-analysis outage.
//!
//! Proactive checkpoints and predicted rollbacks are outages like any
//! other: a failure striking during one restarts the outage from the
//! frozen schedule position, exactly as in the static machine. A true
//! alarm whose instant has already passed — or falls inside an outage
//! — is lost, and its failure strikes unpredicted; a false alarm that
//! falls inside an outage is taken when the outage ends.

use crate::config::RunConfig;
use crate::montecarlo::{replication_source, MonteCarloConfig, WasteEstimate};
use crate::run::{Policy, RunMachine, RunOutcome, Stop, StopReason};
use dck_core::{predict::proactive_cost, ModelError, PredictorSpec};
use dck_failures::{FailureEvent, FailureSource};
use dck_simcore::{ConfidenceInterval, OnlineStats, RngFactory};
use rand::rngs::StdRng;
use rand::Rng;

/// Outcome of one predicted run: the base outcome plus predictor
/// bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedOutcome {
    /// The base measurements (waste, failures, outage time, …).
    pub run: RunOutcome,
    /// Alarms raised (true and false).
    pub alarms: u64,
    /// Failures that were successfully predicted.
    pub predicted_hits: u64,
}

/// Runs one predicted replication until `t_base` units of useful work
/// complete. `rng` drives the predictor (recall coin flips and the
/// false-alarm process) and must be independent of the failure stream.
///
/// # Errors
/// Propagates configuration/predictor validation; the failure source
/// must cover exactly the configuration's usable nodes.
pub fn run_predicted_to_completion(
    cfg: &RunConfig,
    predictor: &PredictorSpec,
    t_base: f64,
    source: &mut dyn FailureSource,
    rng: &mut StdRng,
) -> Result<PredictedOutcome, ModelError> {
    let mut policy = Predicted::new(cfg, predictor, rng)?;
    let (run, _) = RunMachine::new(cfg)?.drive(Stop::Work(t_base), source, &mut policy, |_| {})?;
    Ok(PredictedOutcome {
        run,
        alarms: policy.alarms,
        predicted_hits: policy.hits,
    })
}

/// The predictor as a [`Policy`]: a recall coin per failure, a Poisson
/// false-alarm stream, and the proactive image a predicted failure
/// rolls back to.
pub(crate) struct Predicted<'r> {
    rng: &'r mut StdRng,
    recall: f64,
    window: f64,
    /// Proactive checkpoint `C_p`.
    cost: f64,
    /// `D + R`, the fixed part of a predicted rollback.
    rollback: f64,
    false_rate: f64,
    /// Alarm of the pending failure (`+∞` if unpredicted or lost).
    true_alarm: f64,
    false_alarm: f64,
    /// The false-alarm stream starts after the first recall coin.
    primed: bool,
    /// Schedule clock of the proactive checkpoint taken for the pending
    /// failure.
    image: Option<f64>,
    alarms: u64,
    hits: u64,
}

impl<'r> Predicted<'r> {
    /// Validates `predictor` against `cfg`. False alarms follow the
    /// machine's true failure rate, `cfg.mtbf`.
    ///
    /// # Errors
    /// Rejects an invalid predictor and, at positive recall, a lead
    /// window shorter than the proactive checkpoint.
    pub(crate) fn new(
        cfg: &RunConfig,
        predictor: &PredictorSpec,
        rng: &'r mut StdRng,
    ) -> Result<Self, ModelError> {
        predictor.validate()?;
        let cost = proactive_cost(&cfg.params);
        if predictor.recall > 0.0 && predictor.window < cost {
            return Err(ModelError::invalid(
                "window",
                format!(
                    "lead window {} shorter than the proactive checkpoint {cost}",
                    predictor.window
                ),
            ));
        }
        Ok(Predicted {
            rng,
            recall: predictor.recall,
            window: predictor.window,
            cost,
            rollback: cfg.params.downtime + cfg.params.recovery(),
            false_rate: predictor.false_alarm_rate(cfg.mtbf),
            true_alarm: f64::INFINITY,
            false_alarm: f64::INFINITY,
            primed: false,
            image: None,
            alarms: 0,
            hits: 0,
        })
    }

    /// The first false alarm after `from`.
    fn false_alarm_after(&mut self, from: f64) -> f64 {
        if self.false_rate > 0.0 {
            let u: f64 = self.rng.gen();
            from + -(1.0 - u).ln() / self.false_rate
        } else {
            f64::INFINITY
        }
    }
}

impl Policy for Predicted<'_> {
    fn drawn(&mut self, fault: &FailureEvent, now: f64) {
        let coin: f64 = self.rng.gen();
        let at = fault.at.as_secs() - self.window;
        self.true_alarm = if coin < self.recall && at >= now {
            at
        } else {
            f64::INFINITY
        };
        if !self.primed {
            self.primed = true;
            self.false_alarm = self.false_alarm_after(0.0);
        }
    }

    fn next_alarm(&self) -> f64 {
        self.true_alarm.min(self.false_alarm)
    }

    fn alarm(&mut self, clock: f64) -> f64 {
        self.alarms += 1;
        if self.false_alarm <= self.true_alarm {
            self.false_alarm = self.false_alarm_after(self.false_alarm + self.cost);
        } else {
            self.true_alarm = f64::INFINITY;
            self.image = Some(clock);
        }
        self.cost
    }

    fn alarm_in_outage(&mut self, end: f64) {
        if self.false_alarm <= self.true_alarm {
            self.false_alarm = end;
        } else {
            self.true_alarm = f64::INFINITY;
        }
    }

    fn failure(&mut self, _at: f64, clock: f64) -> Result<Option<f64>, ModelError> {
        Ok(self.image.take().map(|image| {
            self.hits += 1;
            self.rollback + (clock - image)
        }))
    }
}

/// Monte-Carlo estimate of the predicted waste: `mc.replications`
/// independent runs of `t_base` work each, aggregated exactly like
/// [`crate::montecarlo::estimate_waste`]. Replication `i` derives its
/// failure stream from `(seed, "failures", i)` and its predictor
/// stream from `(seed, "predictor", i)`, so the two never correlate
/// and the estimate is reproducible across worker counts (the loop is
/// sequential — prediction grids are small).
///
/// # Errors
/// Propagates configuration/predictor validation.
pub fn estimate_predicted_waste(
    cfg: &RunConfig,
    predictor: &PredictorSpec,
    t_base: f64,
    mc: &MonteCarloConfig,
) -> Result<WasteEstimate, ModelError> {
    predictor.validate()?;
    let factory = RngFactory::new(mc.seed);
    let mut waste = OnlineStats::default();
    let mut fail_stats = OnlineStats::default();
    let mut completed = 0usize;
    let mut fatal = 0usize;
    let mut truncated = 0usize;
    for i in 0..mc.replications {
        let mut source = replication_source(cfg, mc, i as u64);
        let mut rng = factory.component_stream("predictor", i as u64);
        let out = run_predicted_to_completion(cfg, predictor, t_base, source.as_mut(), &mut rng)?;
        match out.run.reason {
            StopReason::WorkComplete => {
                completed += 1;
                waste.push(out.run.waste());
                fail_stats.push(out.run.failures as f64);
            }
            StopReason::Fatal => fatal += 1,
            _ => truncated += 1,
        }
    }
    let ci95 = if completed > 0 {
        Some(ConfidenceInterval::from_stats(&waste, 0.95))
    } else {
        None
    };
    Ok(WasteEstimate {
        waste,
        ci95,
        failures: fail_stats,
        completed,
        fatal,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeriodChoice;
    use crate::montecarlo::estimate_waste;
    use dck_core::{PlatformParams, Protocol};
    use dck_failures::{FailureEvent, FailureTrace};
    use dck_simcore::SimTime;

    fn base_params(nodes: u64) -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
    }

    fn cfg(protocol: Protocol, period: f64, mtbf: f64) -> RunConfig {
        let mut c = RunConfig::new(protocol, base_params(12), 0.0, mtbf);
        c.period = PeriodChoice::Explicit(period);
        c
    }

    fn rng() -> StdRng {
        RngFactory::new(7).component_stream("predictor", 0)
    }

    #[test]
    fn failure_free_run_matches_base_simulator() {
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 1.0, 60.0);
        let trace = FailureTrace::new(12, vec![]);
        let mut replay = trace.replay();
        let out =
            run_predicted_to_completion(&c, &predictor, 980.0, &mut replay, &mut rng()).unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert_eq!(out.alarms, 0);
        // 10 full periods of 98 work each (phi = 0), no disruptions.
        assert!((out.run.total_time - 1_000.0).abs() < 1e-9);
        assert_eq!(out.run.outage_time, 0.0);
    }

    #[test]
    fn predicted_failure_loses_only_the_window_stretch() {
        // One failure at t = 350 (compute phase of period 4), predicted
        // with a 60 s window; C_p = δ + R = 6.
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 1.0, 60.0);
        let trace = FailureTrace::new(
            12,
            vec![FailureEvent {
                at: SimTime::seconds(350.0),
                node: 0,
            }],
        );
        let mut replay = trace.replay();
        let out =
            run_predicted_to_completion(&c, &predictor, 980.0, &mut replay, &mut rng()).unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert_eq!(out.alarms, 1);
        assert_eq!(out.predicted_hits, 1);
        // Alarm at 290, checkpoint to 296, hit at 350: outage clock
        // carries C_p + (D + R + 54) = 6 + 58 = 64.
        assert!((out.run.outage_time - 64.0).abs() < 1e-9, "{out:?}");
        assert!((out.run.total_time - 1_064.0).abs() < 1e-9);
    }

    #[test]
    fn unpredicted_failure_pays_the_full_case_analysis() {
        // recall 0: identical to the base machine on the same trace.
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 0.0, 60.0);
        let events = vec![FailureEvent {
            at: SimTime::seconds(350.0),
            node: 0,
        }];
        let trace = FailureTrace::new(12, events.clone());
        let mut replay = trace.replay();
        let out =
            run_predicted_to_completion(&c, &predictor, 970.0, &mut replay, &mut rng()).unwrap();
        let trace = FailureTrace::new(12, events);
        let mut replay = trace.replay();
        let base = crate::run::run_to_completion(&c, 970.0, &mut replay).unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert_eq!(out.alarms, 0);
        assert!((out.run.total_time - base.total_time).abs() < 1e-9);
        assert!((out.run.outage_time - base.outage_time).abs() < 1e-9);
    }

    #[test]
    fn failure_during_a_predicted_rollback_restarts_the_outage() {
        // Alarm at 340, proactive checkpoint to 346, hit at 350 after
        // 4 s of schedule: rollback 350 → 358. The second failure's
        // alarm (345) had already passed when it was drawn, so it
        // strikes unpredicted at 355, inside the rollback, and pays the
        // case analysis at the frozen position v = 344.
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 1.0, 10.0);
        let trace = FailureTrace::new(
            12,
            vec![
                FailureEvent {
                    at: SimTime::seconds(350.0),
                    node: 0,
                },
                FailureEvent {
                    at: SimTime::seconds(355.0),
                    node: 4,
                },
            ],
        );
        let out =
            run_predicted_to_completion(&c, &predictor, 980.0, &mut trace.replay(), &mut rng())
                .unwrap();
        let (_, resp, _) = c.build().unwrap();
        let expected = 6.0 + 5.0 + resp.outage(44.0).total();
        assert_eq!(out.run.failures, 2);
        assert_eq!((out.alarms, out.predicted_hits), (1, 1));
        assert!((out.run.outage_time - expected).abs() < 1e-9, "{out:?}");
        assert!((out.run.total_time - (1_000.0 + expected)).abs() < 1e-9);
    }

    #[test]
    fn fatal_failures_still_end_the_run() {
        // Two paired nodes inside the risk window; prediction does not
        // resurrect a destroyed group.
        let c = cfg(Protocol::DoubleNbl, 100.0, 1e9);
        let predictor = PredictorSpec::new(1.0, 0.0, 60.0);
        let trace = FailureTrace::new(
            12,
            vec![
                FailureEvent {
                    at: SimTime::seconds(500.0),
                    node: 2,
                },
                FailureEvent {
                    at: SimTime::seconds(510.0),
                    node: 3,
                },
            ],
        );
        let mut replay = trace.replay();
        let out =
            run_predicted_to_completion(&c, &predictor, 10_000.0, &mut replay, &mut rng()).unwrap();
        assert_eq!(out.run.reason, StopReason::Fatal);
    }

    #[test]
    fn short_window_is_rejected_with_positive_recall() {
        let c = cfg(Protocol::DoubleNbl, 100.0, 3_600.0);
        let trace = FailureTrace::new(12, vec![]);
        let mut replay = trace.replay();
        let err = run_predicted_to_completion(
            &c,
            &PredictorSpec::new(1.0, 0.5, 1.0), // w = 1 < C_p = 6
            970.0,
            &mut replay,
            &mut rng(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn monte_carlo_estimate_matches_the_predicted_model() {
        // The conformance-style check in miniature: model vs sim at one
        // benign predicted operating point, judged by the sim's CI95.
        let mtbf = 3_600.0;
        let mut c = RunConfig::new(Protocol::DoubleNbl, base_params(48), 0.0, mtbf);
        // A short lead window: the predicted loss D + R + (w - C_p)
        // = 28 s undercuts the ~108 s unpredicted average.
        let predictor = PredictorSpec::new(0.8, 0.7, 30.0);
        let opt = dck_core::predicted_optimal_period(
            Protocol::DoubleNbl,
            &c.params,
            0.0,
            &predictor,
            mtbf,
        )
        .unwrap();
        c.period = PeriodChoice::Explicit(opt.period);
        let mc = MonteCarloConfig::new(48, 0xBEEF);
        let est = estimate_predicted_waste(&c, &predictor, 10.0 * mtbf, &mc).unwrap();
        let ci = est.ci95.expect("benign point: all replications complete");
        let tol = 3.0 * ci.half_width + 0.01;
        assert!(
            (opt.total - ci.mean).abs() <= tol,
            "model {} vs sim {} ± {} (tol {tol})",
            opt.total,
            ci.mean,
            ci.half_width
        );
        // Prediction must actually reduce the measured waste vs the
        // unpredicted machine at its own optimal period.
        let base_cfg = RunConfig::new(Protocol::DoubleNbl, base_params(48), 0.0, mtbf);
        let base_est = estimate_waste(&base_cfg, 10.0 * mtbf, &mc).unwrap();
        let base_ci = base_est.ci95.unwrap();
        assert!(
            ci.mean < base_ci.mean,
            "predicted waste {} not below unpredicted {}",
            ci.mean,
            base_ci.mean
        );
    }

    #[test]
    fn estimates_are_reproducible() {
        let c = cfg(Protocol::Triple, 300.0, 1_800.0);
        let predictor = PredictorSpec::new(0.6, 0.5, 30.0);
        let mc = MonteCarloConfig::new(8, 42);
        let a = estimate_predicted_waste(&c, &predictor, 5_000.0, &mc).unwrap();
        let b = estimate_predicted_waste(&c, &predictor, 5_000.0, &mc).unwrap();
        assert_eq!(a.waste.mean().to_bits(), b.waste.mean().to_bits());
        assert_eq!(a.completed, b.completed);
    }
}
