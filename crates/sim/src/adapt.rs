//! Closed-loop adaptive execution and the regret harness.
//!
//! The static machine ([`crate::run`]) resolves one period up front
//! and never revisits it. The adaptive policy here wires
//! [`dck_core::PeriodController`] into the same executor,
//! `RunMachine::drive`: every failure feeds the censored-MLE
//! estimator, the controller is consulted at **outage ends** (the
//! instants fresh information just arrived and the schedule is about
//! to resume), and a committed retune is applied at the **next
//! period boundary** — the schedule is never torn mid-period, the
//! completed fraction of the old schedule is banked as done work, and
//! the new schedule starts from a period boundary exactly as a fresh
//! run would. Each applied retune emits a [`TimelineEvent::Retune`]
//! marker into traced timelines. The same policy wraps the predictor of
//! [`crate::predict`] for predictor-assisted runs.
//!
//! With the controller disabled the executor runs the static policy,
//! so adaptation-off runs are bit-identical to
//! [`crate::run::run_to_completion`] by construction — the golden
//! corpus pins this.
//!
//! The **risk tracker** follows the operating point: the window
//! `D + R + (k−1)θ(φ)` does not depend on the period, so a pure period
//! retune leaves it unchanged, and a `rescan_phi` retune gives windows
//! opened from then on the length for the new `φ`.
//!
//! [`run_regret`] measures what adaptation buys: for each scenario it
//! runs three **paired** arms against the same failure stream —
//! *adaptive* (starts from the misspecified belief), *static
//! misspecified* (stuck with the bad belief forever), and *oracle
//! static* (the best fixed period a clairvoyant would pick) — and
//! reports `waste(adaptive) − waste(oracle)` plus whether the adaptive
//! arm beats the misspecified static one. Failures strike at
//! source-determined wall-clock times independent of the schedule, so
//! a fatal stream is fatal in every unpredicted arm and the pairing is
//! exact.

use crate::config::RunConfig;
use crate::predict::Predicted;
use crate::run::{Policy, RunMachine, RunOutcome, Static, Stop, StopReason, TimelineEvent};
use dck_core::{
    optimal_period, predicted_optimal_period, ControllerConfig, ModelError, PeriodController,
    PlatformParams, PredictorSpec, Protocol, Retune,
};
use dck_failures::{DriftingExponential, FailureEvent, FailureSource, MtbfSpec};
use dck_simcore::{ConfidenceInterval, OnlineStats, RngFactory, SimTime};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration of an adaptive run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveRunConfig {
    /// The execution physics: protocol, platform, `φ`, the *initial*
    /// period (via [`RunConfig::resolve_period`]) and the failure cap.
    /// `base.mtbf` is only consulted when `base.period` is
    /// `PeriodChoice::Optimal`; the controller's belief is
    /// `prior_mtbf`.
    pub base: RunConfig,
    /// The MTBF the controller believes at time 0 (the possibly-wrong
    /// nameplate value). Kept separate from `base.mtbf` so regret
    /// arms can share identical physics while disagreeing on beliefs.
    pub prior_mtbf: f64,
    /// Controller policy (estimator window, hysteresis, gates).
    pub controller: ControllerConfig,
}

/// Outcome of one adaptive run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// The base measurements (waste, failures, outage time, …).
    pub run: RunOutcome,
    /// Retunes applied to the schedule.
    pub retunes: u64,
    /// Period in force when the run ended (seconds).
    pub final_period: f64,
    /// The controller's final MTBF belief (the prior if it never
    /// retuned).
    pub believed_mtbf: f64,
}

/// Runs one adaptive replication until `t_base` units of useful work
/// complete. With `controller.enabled == false` this is exactly
/// [`crate::run::run_to_completion`] (bit-identical event handling —
/// it drives the same machine with the static policy).
///
/// # Errors
/// Propagates configuration/controller validation; the failure source
/// must cover exactly the configuration's usable nodes.
pub fn run_adaptive_to_completion(
    cfg: &AdaptiveRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<AdaptiveOutcome, ModelError> {
    run_adaptive(cfg, t_base, source, |_| {})
}

/// Like [`run_adaptive_to_completion`], but records the full timeline
/// including [`TimelineEvent::Retune`] markers at the instants new
/// schedules took effect.
///
/// # Errors
/// Propagates configuration/controller validation.
pub fn run_adaptive_traced(
    cfg: &AdaptiveRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<(AdaptiveOutcome, Vec<TimelineEvent>), ModelError> {
    let mut timeline = Vec::new();
    let out = run_adaptive(cfg, t_base, source, |e| timeline.push(e))?;
    Ok((out, timeline))
}

fn run_adaptive(
    cfg: &AdaptiveRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
    observe: impl FnMut(TimelineEvent),
) -> Result<AdaptiveOutcome, ModelError> {
    if cfg.controller.predictor.is_some() {
        return Err(ModelError::invalid(
            "predictor",
            "use run_adaptive_predicted_to_completion for predictor-assisted runs",
        ));
    }
    drive_adaptive(cfg, Stop::Work(t_base), source, Static, observe)
}

/// Adaptive execution of the fault-prediction scenario: the predictor
/// of [`crate::predict`] with the controller in the loop. Requires
/// `controller.predictor` (retunes optimize the *predicted* waste
/// model); `rng` drives the recall coins and the false-alarm process
/// exactly as in [`crate::predict::run_predicted_to_completion`].
///
/// # Errors
/// Propagates configuration/controller/predictor validation.
pub fn run_adaptive_predicted_to_completion(
    cfg: &AdaptiveRunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
    rng: &mut StdRng,
) -> Result<AdaptiveOutcome, ModelError> {
    let Some(predictor) = cfg.controller.predictor else {
        return Err(ModelError::invalid(
            "predictor",
            "run_adaptive_predicted_to_completion requires controller.predictor",
        ));
    };
    let inner = Predicted::new(&cfg.base, &predictor, rng)?;
    drive_adaptive(cfg, Stop::Work(t_base), source, inner, |_| {})
}

/// Drives one run with the controller wrapped around `inner`, or with
/// `inner` alone when the controller is disabled.
fn drive_adaptive<P: Policy>(
    cfg: &AdaptiveRunConfig,
    stop: Stop,
    source: &mut dyn FailureSource,
    mut inner: P,
    observe: impl FnMut(TimelineEvent),
) -> Result<AdaptiveOutcome, ModelError> {
    cfg.controller.validate()?;
    let initial_period = cfg.base.resolve_period()?;
    let mut machine = RunMachine::new(&cfg.base)?;
    if !cfg.controller.enabled {
        let (run, _) = machine.drive(stop, source, &mut inner, observe)?;
        return Ok(AdaptiveOutcome {
            run,
            retunes: 0,
            final_period: initial_period,
            believed_mtbf: cfg.prior_mtbf,
        });
    }
    let controller = PeriodController::new(
        cfg.base.protocol,
        &cfg.base.params,
        cfg.base.phi,
        cfg.prior_mtbf,
        Some(initial_period),
        cfg.controller,
    )?;
    let mut policy = Adaptive {
        controller,
        pending: None,
        inner,
    };
    let (run, _) = machine.drive(stop, source, &mut policy, observe)?;
    let controller = &policy.controller;
    Ok(AdaptiveOutcome {
        run,
        retunes: controller.retunes(),
        final_period: controller.current_period(),
        believed_mtbf: controller.believed_mtbf(),
    })
}

/// The controller as a [`Policy`] around an inner one: failures feed
/// the estimator, outage ends consult it (one decision at a time — a
/// committed retune must be applied before the next is considered),
/// and alarms come from `inner`.
struct Adaptive<P> {
    controller: PeriodController,
    pending: Option<Retune>,
    inner: P,
}

impl<P: Policy> Policy for Adaptive<P> {
    fn drawn(&mut self, fault: &FailureEvent, now: f64) {
        self.inner.drawn(fault, now);
    }

    fn next_alarm(&self) -> f64 {
        self.inner.next_alarm()
    }

    fn alarm(&mut self, clock: f64) -> f64 {
        self.inner.alarm(clock)
    }

    fn alarm_in_outage(&mut self, end: f64) {
        self.inner.alarm_in_outage(end);
    }

    fn failure(&mut self, at: f64, clock: f64) -> Result<Option<f64>, ModelError> {
        self.controller.record_failure(at)?;
        self.inner.failure(at, clock)
    }

    fn outage_end(&mut self, at: f64) -> Result<(), ModelError> {
        if self.pending.is_none() {
            self.pending = self.controller.maybe_retune(at)?;
        }
        self.inner.outage_end(at)
    }

    fn pending_retune(&self) -> Option<Retune> {
        self.pending
    }

    fn retune_applied(&mut self) {
        self.pending = None;
    }
}

// ---------------------------------------------------------------------------
// Regret harness
// ---------------------------------------------------------------------------

/// One scenario shape for the regret harness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RegretScenario {
    /// Stationary platform at the true MTBF; the nameplate belief is
    /// `factor ×` the truth.
    Misspecified {
        /// Believed MTBF = `factor × true_mtbf`.
        factor: f64,
    },
    /// The platform MTBF drifts linearly from `true_mtbf` to
    /// `end_factor × true_mtbf` over the run's work horizon; the
    /// static arms hold the period picked for the *starting* MTBF,
    /// the oracle holds the period for the horizon-effective MTBF.
    Drift {
        /// Final MTBF = `end_factor × true_mtbf`.
        end_factor: f64,
    },
    /// Stationary misspecified platform running the fault-prediction
    /// protocol: all arms execute with the predictor, and periods come
    /// from the predicted waste model.
    Predicted {
        /// Believed MTBF = `factor × true_mtbf`.
        factor: f64,
        /// The (correctly known) predictor characteristics.
        predictor: PredictorSpec,
    },
}

/// A named scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretCase {
    /// Display name (stable across reports).
    pub name: String,
    /// The scenario shape.
    pub scenario: RegretScenario,
}

/// Specification of a regret measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretSpec {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Platform parameters.
    pub params: PlatformParams,
    /// Overhead `φ`.
    pub phi: f64,
    /// The platform's *actual* MTBF at time 0 (seconds).
    pub true_mtbf: f64,
    /// Useful work per replication, in multiples of `true_mtbf` — the
    /// estimator needs failures to learn from, so this should be large
    /// enough for `O(100)` failures.
    pub work_in_mtbfs: f64,
    /// Replications per arm.
    pub replications: usize,
    /// Master seed; arms share per-replication failure streams.
    pub seed: u64,
    /// Controller policy for the adaptive arm. For drift scenarios a
    /// `half_life` of `work / 8` is applied when none is configured
    /// (an unwindowed estimator averages the whole ramp and lags it).
    pub controller: ControllerConfig,
    /// The scenarios to measure.
    pub cases: Vec<RegretCase>,
}

/// Aggregated waste of one arm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmStats {
    /// Mean waste over completed replications.
    pub mean_waste: f64,
    /// Half-width of the 95% CI on the mean waste.
    pub ci95_half_width: f64,
    /// Replications that completed their work.
    pub completed: usize,
    /// Replications ended by a fatal failure.
    pub fatal: usize,
    /// Replications ended by the failure cap.
    pub truncated: usize,
}

impl ArmStats {
    fn from_stats(stats: &OnlineStats, fatal: usize, truncated: usize) -> ArmStats {
        let ci = if stats.count() > 1 {
            ConfidenceInterval::from_stats(stats, 0.95).half_width
        } else {
            f64::INFINITY
        };
        ArmStats {
            mean_waste: stats.mean(),
            ci95_half_width: ci,
            completed: stats.count() as usize,
            fatal,
            truncated,
        }
    }
}

/// Regret measurement for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretResult {
    /// Scenario name.
    pub name: String,
    /// The scenario that produced this row.
    pub scenario: RegretScenario,
    /// The believed (nameplate) MTBF the static/adaptive arms start
    /// from (seconds).
    pub believed_mtbf: f64,
    /// The MTBF a clairvoyant would plan for (seconds): the true MTBF,
    /// or the horizon-effective MTBF under drift.
    pub oracle_mtbf: f64,
    /// Period of the misspecified static arm (seconds).
    pub static_period: f64,
    /// Period of the oracle arm (seconds).
    pub oracle_period: f64,
    /// The adaptive arm.
    pub adaptive: ArmStats,
    /// The static arm stuck with the misspecified period.
    pub static_arm: ArmStats,
    /// The oracle static arm.
    pub oracle: ArmStats,
    /// `adaptive.mean_waste − oracle.mean_waste` (the price of
    /// learning online).
    pub regret: f64,
    /// `regret / oracle.mean_waste`.
    pub regret_ratio: f64,
    /// Whether the adaptive arm strictly beats the misspecified
    /// static arm.
    pub beats_static: bool,
    /// Mean retunes applied per adaptive replication.
    pub retunes_mean: f64,
}

/// Per-case seed decorrelation (same discipline as the sweep grid).
fn case_seed(master: u64, index: usize) -> u64 {
    master
        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03)
}

/// Runs the full regret measurement.
///
/// # Errors
/// Propagates configuration validation and optimizer failures.
pub fn run_regret(spec: &RegretSpec) -> Result<Vec<RegretResult>, ModelError> {
    spec.params.validate()?;
    spec.controller.validate()?;
    if !(spec.true_mtbf.is_finite() && spec.true_mtbf > 0.0) {
        return Err(ModelError::invalid("true_mtbf", "must be finite and > 0"));
    }
    if spec.replications == 0 {
        return Err(ModelError::invalid("replications", "must be >= 1"));
    }
    if !(spec.work_in_mtbfs.is_finite() && spec.work_in_mtbfs > 0.0) {
        return Err(ModelError::invalid(
            "work_in_mtbfs",
            "must be finite and > 0",
        ));
    }
    let t_base = spec.work_in_mtbfs * spec.true_mtbf;
    let mut results = Vec::with_capacity(spec.cases.len());
    for (ci, case) in spec.cases.iter().enumerate() {
        results.push(run_case(spec, case, t_base, case_seed(spec.seed, ci))?);
    }
    Ok(results)
}

fn run_case(
    spec: &RegretSpec,
    case: &RegretCase,
    t_base: f64,
    seed: u64,
) -> Result<RegretResult, ModelError> {
    let m_true = spec.true_mtbf;
    let (believed, oracle_mtbf, predictor) = match case.scenario {
        RegretScenario::Misspecified { factor } => (factor * m_true, m_true, None),
        RegretScenario::Drift { end_factor } => {
            let m1 = end_factor * m_true;
            // Log-mean of the ramp endpoints = the stationary MTBF with
            // the same expected failure count over the horizon.
            let eff = if (m1 - m_true).abs() < 1e-12 {
                m_true
            } else {
                (m1 - m_true) / (m1 / m_true).ln()
            };
            (m_true, eff, None)
        }
        RegretScenario::Predicted { factor, predictor } => {
            (factor * m_true, m_true, Some(predictor))
        }
    };
    let solve = |m: f64| -> Result<f64, ModelError> {
        match &predictor {
            Some(p) => {
                Ok(predicted_optimal_period(spec.protocol, &spec.params, spec.phi, p, m)?.period)
            }
            None => Ok(optimal_period(spec.protocol, &spec.params, spec.phi, m)?.period),
        }
    };
    let static_period = solve(believed)?;
    let oracle_period = solve(oracle_mtbf)?;

    let mut controller = spec.controller;
    controller.enabled = true;
    controller.predictor = predictor;
    if matches!(case.scenario, RegretScenario::Drift { .. }) && controller.half_life.is_none() {
        controller.half_life = Some(t_base / 8.0);
    }

    // All arms share the physics config (true MTBF, explicit periods).
    let arm_cfg = |period: f64| -> RunConfig {
        let mut c = RunConfig::new(spec.protocol, spec.params, spec.phi, m_true);
        c.period = crate::config::PeriodChoice::Explicit(period);
        c
    };
    let static_cfg = arm_cfg(static_period);
    let oracle_cfg = arm_cfg(oracle_period);
    let adaptive_cfg = AdaptiveRunConfig {
        base: static_cfg,
        prior_mtbf: believed,
        controller,
    };
    let usable = static_cfg.usable_nodes();
    let factory = RngFactory::new(seed);
    let source = |rep: u64| -> Box<dyn FailureSource> {
        let stream = factory.component_stream("failures", rep);
        match case.scenario {
            RegretScenario::Drift { end_factor } => Box::new(DriftingExponential::new(
                m_true,
                end_factor * m_true,
                t_base,
                usable,
                stream,
            )),
            _ => Box::new(dck_failures::AggregatedExponential::new(
                MtbfSpec::Platform {
                    mtbf: SimTime::seconds(m_true),
                    nodes: usable,
                },
                stream,
            )),
        }
    };

    let mut stats = [
        OnlineStats::default(),
        OnlineStats::default(),
        OnlineStats::default(),
    ];
    let mut fatal = [0usize; 3];
    let mut truncated = [0usize; 3];
    let mut retunes = OnlineStats::default();
    for rep in 0..spec.replications as u64 {
        // Paired arms: identical failure stream; identical predictor
        // stream where applicable.
        let run_static = |cfg: &RunConfig| -> Result<RunOutcome, ModelError> {
            let mut src = source(rep);
            match &predictor {
                Some(p) => {
                    let mut rng = factory.component_stream("predictor", rep);
                    crate::predict::run_predicted_to_completion(
                        cfg,
                        p,
                        t_base,
                        src.as_mut(),
                        &mut rng,
                    )
                    .map(|o| o.run)
                }
                None => crate::run::run_to_completion(cfg, t_base, src.as_mut()),
            }
        };
        let adaptive_out = {
            let mut src = source(rep);
            match &predictor {
                Some(_) => {
                    let mut rng = factory.component_stream("predictor", rep);
                    run_adaptive_predicted_to_completion(
                        &adaptive_cfg,
                        t_base,
                        src.as_mut(),
                        &mut rng,
                    )?
                }
                None => run_adaptive_to_completion(&adaptive_cfg, t_base, src.as_mut())?,
            }
        };
        retunes.push(adaptive_out.retunes as f64);
        let outs = [
            adaptive_out.run,
            run_static(&static_cfg)?,
            run_static(&oracle_cfg)?,
        ];
        for (i, out) in outs.iter().enumerate() {
            match out.reason {
                StopReason::WorkComplete => stats[i].push(out.waste()),
                StopReason::Fatal => fatal[i] += 1,
                _ => truncated[i] += 1,
            }
        }
    }

    let adaptive = ArmStats::from_stats(&stats[0], fatal[0], truncated[0]);
    let static_arm = ArmStats::from_stats(&stats[1], fatal[1], truncated[1]);
    let oracle = ArmStats::from_stats(&stats[2], fatal[2], truncated[2]);
    let regret = adaptive.mean_waste - oracle.mean_waste;
    let regret_ratio = if oracle.mean_waste > 0.0 {
        regret / oracle.mean_waste
    } else {
        0.0
    };
    Ok(RegretResult {
        name: case.name.clone(),
        scenario: case.scenario,
        believed_mtbf: believed,
        oracle_mtbf,
        static_period,
        oracle_period,
        adaptive,
        static_arm,
        oracle,
        regret,
        regret_ratio,
        beats_static: adaptive.mean_waste < static_arm.mean_waste,
        retunes_mean: retunes.mean(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeriodChoice;
    use crate::predict::run_predicted_to_completion;
    use crate::run::run_to_completion_traced;
    use dck_failures::{AggregatedExponential, FailureTrace};
    use dck_obs::{EventSink, VecSink};

    fn base_params(nodes: u64) -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
    }

    fn static_cfg(nodes: u64, mtbf: f64, period: f64) -> RunConfig {
        let mut c = RunConfig::new(Protocol::DoubleNbl, base_params(nodes), 1.0, mtbf);
        c.period = PeriodChoice::Explicit(period);
        c
    }

    fn platform_source(mtbf: f64, nodes: u64, seed: u64) -> AggregatedExponential {
        AggregatedExponential::new(
            MtbfSpec::Platform {
                mtbf: SimTime::seconds(mtbf),
                nodes,
            },
            RngFactory::new(seed).component_stream("failures", 0),
        )
    }

    #[test]
    fn disabled_controller_is_bit_identical_to_static() {
        let m = 7.0 * 3600.0;
        let cfg = static_cfg(8, m, 600.0);
        let t_base = 40.0 * m;
        let (base_out, base_tl) =
            run_to_completion_traced(&cfg, t_base, &mut platform_source(m, 8, 11)).unwrap();
        let adaptive = AdaptiveRunConfig {
            base: cfg,
            prior_mtbf: m / 4.0,
            controller: ControllerConfig {
                enabled: false,
                ..ControllerConfig::default()
            },
        };
        let (out, tl) =
            run_adaptive_traced(&adaptive, t_base, &mut platform_source(m, 8, 11)).unwrap();
        // Exact equality, not tolerance: the disabled machine IS the
        // static machine.
        assert_eq!(out.run, base_out);
        assert_eq!(tl, base_tl);
        assert_eq!(out.retunes, 0);
    }

    #[test]
    fn misspecified_prior_converges_and_closes_the_gap() {
        let m = 3600.0;
        let believed = m / 4.0;
        let p_static = optimal_period(Protocol::DoubleNbl, &base_params(16), 1.0, believed)
            .unwrap()
            .period;
        let p_oracle = optimal_period(Protocol::DoubleNbl, &base_params(16), 1.0, m)
            .unwrap()
            .period;
        let cfg = AdaptiveRunConfig {
            base: static_cfg(16, m, p_static),
            prior_mtbf: believed,
            controller: ControllerConfig::default(),
        };
        let t_base = 150.0 * m;
        let out =
            run_adaptive_to_completion(&cfg, t_base, &mut platform_source(m, 16, 23)).unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert!(out.retunes >= 1, "controller never retuned");
        // ~150+ failures: the MLE should be well within 30% of truth,
        // and the final period far closer to the oracle's than the
        // misspecified starting point was.
        assert!(
            (out.believed_mtbf - m).abs() / m < 0.3,
            "believed {} vs true {m}",
            out.believed_mtbf
        );
        let gap_start = (p_static - p_oracle).abs();
        let gap_end = (out.final_period - p_oracle).abs();
        assert!(
            gap_end < 0.5 * gap_start,
            "final period {} did not approach oracle {p_oracle} (start {p_static})",
            out.final_period
        );
    }

    #[test]
    fn retune_events_appear_in_the_trace_and_match_the_outcome() {
        let m = 3600.0;
        let cfg = AdaptiveRunConfig {
            base: static_cfg(16, m, 200.0),
            prior_mtbf: m / 4.0,
            controller: ControllerConfig::default(),
        };
        let (out, tl) =
            run_adaptive_traced(&cfg, 120.0 * m, &mut platform_source(m, 16, 31)).unwrap();
        let retunes: Vec<_> = tl
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Retune { .. }))
            .collect();
        assert_eq!(retunes.len() as u64, out.retunes);
        assert!(!retunes.is_empty());
        // Retune markers must be causally ordered and chain old→new.
        let mut last_t = 0.0;
        let mut period = 200.0;
        for e in &retunes {
            if let TimelineEvent::Retune {
                at,
                old_period,
                new_period,
                mtbf_estimate,
            } = e
            {
                assert!(*at >= last_t);
                assert!((old_period - period).abs() < 1e-9);
                assert!(mtbf_estimate.is_finite() && *mtbf_estimate > 0.0);
                last_t = *at;
                period = *new_period;
            }
        }
        assert!((period - out.final_period).abs() < 1e-9);
    }

    #[test]
    fn adaptive_predicted_requires_a_predictor_and_completes_with_one() {
        let m = 3600.0;
        let cfg = AdaptiveRunConfig {
            base: static_cfg(12, m, 300.0),
            prior_mtbf: m / 2.0,
            controller: ControllerConfig::default(),
        };
        let mut rng = RngFactory::new(5).component_stream("predictor", 0);
        let err = run_adaptive_predicted_to_completion(
            &cfg,
            10.0 * m,
            &mut platform_source(m, 12, 41),
            &mut rng,
        )
        .unwrap_err();
        assert!(err.to_string().contains("predictor"), "{err}");

        let with = AdaptiveRunConfig {
            controller: ControllerConfig {
                predictor: Some(PredictorSpec::new(0.9, 0.7, 60.0)),
                ..ControllerConfig::default()
            },
            ..cfg
        };
        let out = run_adaptive_predicted_to_completion(
            &with,
            60.0 * m,
            &mut platform_source(m, 12, 41),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.run.reason, StopReason::WorkComplete);
        assert!(out.run.failures > 0);
        assert!(out.run.waste() > 0.0 && out.run.waste() < 1.0);
    }

    #[test]
    fn unpredicted_runner_rejects_a_predictor() {
        let cfg = AdaptiveRunConfig {
            base: static_cfg(8, 3600.0, 300.0),
            prior_mtbf: 3600.0,
            controller: ControllerConfig {
                predictor: Some(PredictorSpec::new(0.9, 0.7, 60.0)),
                ..ControllerConfig::default()
            },
        };
        let err = run_adaptive_to_completion(&cfg, 1000.0, &mut platform_source(3600.0, 8, 1))
            .unwrap_err();
        assert!(err.to_string().contains("predicted"), "{err}");
    }

    fn trace(nodes: u64, events: &[(f64, u64)]) -> FailureTrace {
        let events = events
            .iter()
            .map(|&(at, node)| FailureEvent {
                at: SimTime::seconds(at),
                node,
            })
            .collect();
        FailureTrace::new(nodes, events)
    }

    fn predicted_cfg(base: RunConfig, predictor: PredictorSpec, live: bool) -> AdaptiveRunConfig {
        AdaptiveRunConfig {
            base,
            prior_mtbf: base.mtbf,
            controller: ControllerConfig {
                enabled: live,
                predictor: Some(predictor),
                ..ControllerConfig::default()
            },
        }
    }

    /// Drives the predicted policy — alone (controller disabled) or
    /// wrapped in the controller — into a `VecSink`.
    fn predicted_timeline(
        cfg: &AdaptiveRunConfig,
        stop: Stop,
        source: &mut dyn FailureSource,
        seed: u64,
    ) -> (RunOutcome, Vec<TimelineEvent>) {
        let mut rng = RngFactory::new(seed).component_stream("predictor", 0);
        let predictor = cfg.controller.predictor.expect("predicted config");
        let inner = Predicted::new(&cfg.base, &predictor, &mut rng).unwrap();
        let mut sink = VecSink::new();
        let out = drive_adaptive(cfg, stop, source, inner, |e| sink.emit(&e)).unwrap();
        (out.run, sink.into_events())
    }

    /// Exactly one `Finished`, terminal, matching the outcome, on a
    /// timeline that never steps back in time.
    fn assert_one_terminal_finished(out: &RunOutcome, timeline: &[TimelineEvent]) {
        let stamps: Vec<f64> = timeline
            .iter()
            .map(|e| match *e {
                TimelineEvent::Failure { at, .. }
                | TimelineEvent::OutageEnd { at }
                | TimelineEvent::Retune { at, .. }
                | TimelineEvent::Finished { at, .. } => at,
            })
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{timeline:?}");
        let finished = timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Finished { .. }))
            .count();
        assert_eq!(finished, 1, "{timeline:?}");
        match timeline.last() {
            Some(TimelineEvent::Finished { at, reason }) => {
                assert_eq!(*reason, out.reason);
                assert!(at.is_finite());
                if out.total_time.is_finite() {
                    assert!((at - out.total_time).abs() < 1e-6, "{at} vs {out:?}");
                }
            }
            other => panic!("terminal event not Finished: {other:?}"),
        }
    }

    #[test]
    fn fatal_after_a_true_alarm_reports_work_not_schedule_time() {
        // Alarms at 240 and 270 (w = 10): the buddy's hit at 280 lands
        // in node 0's 38 s window with the schedule at v = 260, i.e.
        // work 2·97 + 33 + 24 = 251.
        let base = static_cfg(8, 3600.0, 100.0);
        let predictor = PredictorSpec::new(1.0, 1.0, 10.0);
        let tr = trace(8, &[(250.0, 0), (280.0, 1)]);
        let rng = || RngFactory::new(3).component_stream("predictor", 0);
        let plain =
            run_predicted_to_completion(&base, &predictor, 970.0, &mut tr.replay(), &mut rng())
                .unwrap();
        let mut cfg = predicted_cfg(base, predictor, true);
        cfg.controller.min_failures = u64::MAX;
        let adaptive =
            run_adaptive_predicted_to_completion(&cfg, 970.0, &mut tr.replay(), &mut rng())
                .unwrap();
        assert_eq!(plain.run.reason, StopReason::Fatal);
        assert_eq!(plain.predicted_hits, 2);
        assert!((plain.run.useful_work - 251.0).abs() < 1e-9, "{plain:?}");
        assert_eq!(adaptive.run, plain.run);
    }

    #[test]
    fn predicted_policies_end_every_stop_reason_with_one_finished() {
        let predictor = PredictorSpec::new(0.9, 1.0, 10.0);
        let base = static_cfg(8, 3600.0, 100.0);
        let mut capped = base;
        capped.max_failures = 2;
        let mut stuck = RunConfig::new(Protocol::DoubleBlocking, base_params(8), 0.0, 3600.0);
        stuck.period = PeriodChoice::Explicit(6.0);
        let empty = trace(8, &[]);
        let cases = [
            (
                base,
                Stop::Work(970.0),
                empty.clone(),
                StopReason::WorkComplete,
            ),
            (
                base,
                Stop::Work(970.0),
                trace(8, &[(250.0, 0), (260.0, 1)]),
                StopReason::Fatal,
            ),
            (
                base,
                Stop::Horizon(500.0),
                empty.clone(),
                StopReason::HorizonReached,
            ),
            (
                capped,
                Stop::Work(1e9),
                trace(8, &[(1000.0, 0), (2000.0, 4), (3000.0, 6)]),
                StopReason::FailureCapReached,
            ),
            (
                stuck,
                Stop::Work(100.0),
                empty.clone(),
                StopReason::NoProgress,
            ),
            (stuck, Stop::Horizon(500.0), empty, StopReason::NoProgress),
        ];
        for live in [false, true] {
            for (base, stop, tr, expect) in &cases {
                let cfg = predicted_cfg(*base, predictor, live);
                let (out, tl) = predicted_timeline(&cfg, *stop, &mut tr.replay(), 1);
                assert_eq!(out.reason, *expect, "live {live}: {tl:?}");
                assert_one_terminal_finished(&out, &tl);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random failure and predictor streams, with and without live
        /// retunes, in both stop modes and against a tight failure cap.
        #[test]
        fn every_predicted_run_ends_with_one_finished(
            mtbf in 120.0f64..3600.0,
            precision in 0.3f64..1.0,
            recall in 0.0f64..1.0,
            seed in 0u64..300,
            mode in 0usize..3,
            live in proptest::prelude::any::<bool>(),
        ) {
            let mut base = static_cfg(8, mtbf, 100.0);
            base.max_failures = if mode == 1 { 1 + seed % 3 } else { 50_000_000 };
            let cfg = predicted_cfg(base, PredictorSpec::new(precision, recall, 40.0), live);
            let stop = match mode {
                2 => Stop::Horizon(20.0 * mtbf),
                _ => Stop::Work(20.0 * mtbf),
            };
            let (out, tl) = predicted_timeline(&cfg, stop, &mut platform_source(mtbf, 8, seed), seed);
            assert_one_terminal_finished(&out, &tl);
        }
    }

    #[test]
    fn regret_harness_stationary_misspecification() {
        let spec = RegretSpec {
            protocol: Protocol::DoubleNbl,
            params: base_params(16),
            phi: 1.0,
            true_mtbf: 3600.0,
            work_in_mtbfs: 80.0,
            replications: 12,
            seed: 97,
            controller: ControllerConfig::default(),
            cases: vec![
                RegretCase {
                    name: "over".into(),
                    scenario: RegretScenario::Misspecified { factor: 4.0 },
                },
                RegretCase {
                    name: "under".into(),
                    scenario: RegretScenario::Misspecified { factor: 0.25 },
                },
            ],
        };
        let results = run_regret(&spec).unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.adaptive.completed > 0, "{}: no completions", r.name);
            // The adaptive arm must recover most of the misspecification
            // penalty: closer to the oracle than the static arm is.
            assert!(
                r.beats_static,
                "{}: adaptive {} vs static {}",
                r.name, r.adaptive.mean_waste, r.static_arm.mean_waste
            );
            assert!(
                r.regret_ratio < 0.25,
                "{}: regret ratio {}",
                r.name,
                r.regret_ratio
            );
            assert!(r.retunes_mean >= 1.0);
        }
    }

    #[test]
    fn regret_harness_drift_beats_static() {
        let spec = RegretSpec {
            protocol: Protocol::DoubleNbl,
            params: base_params(16),
            phi: 1.0,
            true_mtbf: 3600.0,
            work_in_mtbfs: 80.0,
            replications: 12,
            seed: 131,
            controller: ControllerConfig::default(),
            cases: vec![RegretCase {
                name: "degrading".into(),
                scenario: RegretScenario::Drift { end_factor: 0.25 },
            }],
        };
        let r = &run_regret(&spec).unwrap()[0];
        assert!(r.adaptive.completed > 0);
        assert!(
            r.beats_static,
            "adaptive {} vs static {}",
            r.adaptive.mean_waste, r.static_arm.mean_waste
        );
        // Oracle belief for the ramp is the log-mean of the endpoints.
        let expect = (0.25_f64 * 3600.0 - 3600.0) / 0.25_f64.ln();
        assert!((r.oracle_mtbf - expect).abs() < 1e-6);
    }
}
