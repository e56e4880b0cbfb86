//! Single-run protocol simulation: the one executor.
//!
//! The simulator advances in O(1) per failure event: between failures
//! the platform follows the deterministic period schedule, so nothing
//! needs to happen per period. State is three scalars — wall-clock
//! time `t`, schedule position `v` (seconds of schedule successfully
//! executed; work is `schedule.work_at(v)`), and an optional in-flight
//! outage ending at `end`.
//!
//! Failure handling: a failure at schedule offset `off` freezes `v` and
//! opens an outage of `D + blocking + RE(off)` (§III/§V case analysis).
//! A failure during an outage rolls the platform back again: the outage
//! restarts in full from the same schedule position — the recovery and
//! partially re-executed work are lost, exactly as they would be on a
//! real machine where no new checkpoint exists until the schedule
//! resumes. Every failure also opens a fixed-length risk window for the
//! victim's group; a failure that closes the last redundant copy of a
//! group (buddy within an open window / all three triple members) is
//! **fatal** and ends the run.
//!
//! `RunMachine::drive` runs this loop for every executor. A
//! `Policy` hooks in at failures, outage ends and period boundaries
//! and may add a stream of alarm instants: the adaptive executor
//! ([`crate::adapt`]) retunes the period, the predicted one
//! ([`crate::predict`]) takes proactive checkpoints. The static policy
//! is a zero-sized type whose hooks compile away.

use crate::config::RunConfig;
use dck_core::{ModelError, Retune, RiskModel};
use dck_failures::{FailureEvent, FailureSource};
use dck_protocols::{FailureResponse, PeriodSchedule};
use serde::{Deserialize, Serialize};

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The configured amount of useful work was completed.
    WorkComplete,
    /// The exploitation horizon was reached (risk-mode runs).
    HorizonReached,
    /// A fatal failure destroyed a group's checkpoint data.
    Fatal,
    /// The failure-count safety cap was hit before completion.
    FailureCapReached,
    /// The schedule delivers no work at all (`W ≤ 0`): the operating
    /// point cannot make progress regardless of failures.
    NoProgress,
}

/// The measured outcome of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Wall-clock duration of the run (seconds).
    pub total_time: f64,
    /// Useful work completed (work units = seconds at unit speed).
    pub useful_work: f64,
    /// Failures processed.
    pub failures: u64,
    /// Wall-clock time spent in outages (downtime + blocking +
    /// re-execution).
    pub outage_time: f64,
    /// Time of the fatal failure, if one occurred.
    pub fatal_at: Option<f64>,
}

impl RunOutcome {
    /// Empirical waste: the fraction of wall-clock time not converted
    /// into useful work (0 for an empty run).
    ///
    /// `useful_work > total_time` is impossible for a real run (work
    /// accrues at unit speed); an outcome in that state is corrupted
    /// upstream. Clamping silently would launder it into a legal-looking
    /// waste of 0, so this records the always-on defect counter
    /// `run.waste_clamped` and debug-panics before clamping. A small
    /// negative tolerance absorbs float rounding at run boundaries.
    pub fn waste(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        let raw = 1.0 - self.useful_work / self.total_time;
        if raw < -1e-9 {
            // Count before asserting so release builds still record the
            // defect that debug builds would panic on.
            dck_obs::incr("run.waste_clamped");
            debug_assert!(
                false,
                "corrupt RunOutcome: useful_work {} exceeds total_time {} (raw waste {raw})",
                self.useful_work, self.total_time
            );
        }
        raw.clamp(0.0, 1.0)
    }

    /// True if the run saw no fatal failure.
    pub fn survived(&self) -> bool {
        self.fatal_at.is_none()
    }
}

/// When a run stops: after a fixed amount of useful work (waste mode)
/// or at a wall-clock horizon (risk mode). Crate-internal; the public
/// entry points pick the variant.
#[derive(Clone, Copy)]
pub(crate) enum Stop {
    Work(f64),
    Horizon(f64),
}

/// One event in a simulated run's timeline (see
/// [`run_to_completion_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimelineEvent {
    /// A failure struck.
    Failure {
        /// Wall-clock time.
        at: f64,
        /// Victim node.
        node: u64,
        /// Offset into the checkpoint period at which it struck.
        offset: f64,
        /// Planned outage (downtime + blocking + re-execution).
        outage: f64,
        /// Whether this failure was fatal.
        fatal: bool,
        /// Whether it struck during an already-running outage
        /// (restarting it).
        during_outage: bool,
    },
    /// An outage completed and the schedule resumed.
    OutageEnd {
        /// Wall-clock time.
        at: f64,
    },
    /// The adaptive controller committed a new period, applied at a
    /// period boundary (see `dck-sim`'s adaptive executor). Never
    /// emitted by the static machine.
    Retune {
        /// Wall-clock time at which the new schedule took effect.
        at: f64,
        /// Period before the retune (seconds).
        old_period: f64,
        /// Period after the retune (seconds).
        new_period: f64,
        /// The MTBF estimate that drove the decision (seconds).
        mtbf_estimate: f64,
    },
    /// The run ended. Emitted on **every** stop path — a traced
    /// timeline always carries exactly one terminal `Finished` event,
    /// whose `reason` equals [`RunOutcome::reason`].
    Finished {
        /// Wall-clock time.
        at: f64,
        /// Why it ended.
        reason: StopReason,
    },
}

/// Runs until `t_base` units of useful work are complete (waste
/// measurement mode).
///
/// # Errors
/// Propagates configuration errors, and fails when the failure
/// `source` does not cover exactly [`RunConfig::usable_nodes`] nodes.
pub fn run_to_completion(
    cfg: &RunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<RunOutcome, ModelError> {
    drive(cfg, Stop::Work(t_base), source).map(|(out, _)| out)
}

/// Like [`run_to_completion`], but also returns the failure event the
/// simulator had drawn from the source without handling (its timestamp
/// lies beyond the run's end). Drivers that continue the same failure
/// stream across multiple runs (e.g. the hierarchical wrapper) must
/// re-inject it, or the stream would be thinned at every boundary.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_to_completion_with_pending(
    cfg: &RunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<(RunOutcome, Option<FailureEvent>), ModelError> {
    drive(cfg, Stop::Work(t_base), source)
}

/// Runs for a fixed exploitation horizon (risk measurement mode): the
/// application streams work indefinitely; the question is whether a
/// fatal failure strikes before `horizon`.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_until(
    cfg: &RunConfig,
    horizon: f64,
    source: &mut dyn FailureSource,
) -> Result<RunOutcome, ModelError> {
    drive(cfg, Stop::Horizon(horizon), source).map(|(out, _)| out)
}

/// Like [`run_to_completion`], but records every failure, outage end
/// and completion into a timeline — the observability surface for
/// debugging protocol behaviour and for visualization tooling.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_to_completion_traced(
    cfg: &RunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
) -> Result<(RunOutcome, Vec<TimelineEvent>), ModelError> {
    let mut sink = dck_obs::VecSink::new();
    let out = run_to_completion_sinked(cfg, t_base, source, &mut sink)?;
    Ok((out, sink.into_events()))
}

/// Like [`run_to_completion`], but streams every [`TimelineEvent`] into
/// an [`EventSink`](dck_obs::EventSink) as it happens — no intermediate
/// `Vec`, so a long run can trace straight to a JSONL file. The sink is
/// flushed before returning.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_to_completion_sinked(
    cfg: &RunConfig,
    t_base: f64,
    source: &mut dyn FailureSource,
    sink: &mut dyn dck_obs::EventSink<TimelineEvent>,
) -> Result<RunOutcome, ModelError> {
    let (out, _) =
        RunMachine::new(cfg)?.drive(Stop::Work(t_base), source, &mut Static, |e| sink.emit(&e))?;
    sink.flush();
    Ok(out)
}

/// Like [`run_until`], but records the full timeline (see
/// [`run_to_completion_traced`]).
///
/// # Errors
/// Propagates configuration errors.
pub fn run_until_traced(
    cfg: &RunConfig,
    horizon: f64,
    source: &mut dyn FailureSource,
) -> Result<(RunOutcome, Vec<TimelineEvent>), ModelError> {
    let mut sink = dck_obs::VecSink::new();
    let out = run_until_sinked(cfg, horizon, source, &mut sink)?;
    Ok((out, sink.into_events()))
}

/// Like [`run_until`], but streams every [`TimelineEvent`] into an
/// [`EventSink`](dck_obs::EventSink) as it happens. The sink is flushed
/// before returning.
///
/// # Errors
/// Propagates configuration errors.
pub fn run_until_sinked(
    cfg: &RunConfig,
    horizon: f64,
    source: &mut dyn FailureSource,
    sink: &mut dyn dck_obs::EventSink<TimelineEvent>,
) -> Result<RunOutcome, ModelError> {
    let (out, _) =
        RunMachine::new(cfg)?.drive(Stop::Horizon(horizon), source, &mut Static, |e| {
            sink.emit(&e)
        })?;
    sink.flush();
    Ok(out)
}

type DriveResult = Result<(RunOutcome, Option<FailureEvent>), ModelError>;

fn drive(cfg: &RunConfig, stop: Stop, source: &mut dyn FailureSource) -> DriveResult {
    RunMachine::new(cfg)?.drive(stop, source, &mut Static, |_| {})
}

/// What an executor adds to the static machine: hooks at a failure, at
/// an outage end and at a period boundary, plus a side stream of alarm
/// instants. [`RunMachine::drive`] is monomorphized over the policy and
/// every hook defaults to a no-op, so [`Static`] compiles to the plain
/// loop.
pub(crate) trait Policy {
    /// The source produced the next failure, which has not struck yet;
    /// `now` is the wall clock at the draw.
    fn drawn(&mut self, _fault: &FailureEvent, _now: f64) {}

    /// Instant of the next alarm, `+∞` when none is due.
    fn next_alarm(&self) -> f64 {
        f64::INFINITY
    }

    /// The running platform reached the next alarm with `clock` seconds
    /// of schedule executed since the start (across retunes). Returns
    /// the length of the proactive checkpoint it triggers.
    fn alarm(&mut self, _clock: f64) -> f64 {
        0.0
    }

    /// The next alarm fell inside an outage that ends at `end`.
    fn alarm_in_outage(&mut self, _end: f64) {}

    /// A failure struck at `at` with the schedule frozen at `clock`.
    /// Returns the outage length when it replaces the case analysis.
    fn failure(&mut self, _at: f64, _clock: f64) -> Result<Option<f64>, ModelError> {
        Ok(None)
    }

    /// An outage ended at `at` and the schedule resumes.
    fn outage_end(&mut self, _at: f64) -> Result<(), ModelError> {
        Ok(())
    }

    /// A committed retune to apply at the next period boundary.
    fn pending_retune(&self) -> Option<Retune> {
        None
    }

    /// The pending retune took effect.
    fn retune_applied(&mut self) {}
}

/// The static machine: one operating point, no alarms.
pub(crate) struct Static;

impl Policy for Static {}

/// Reusable simulation machinery for one run configuration.
///
/// Building a [`RunConfig`] resolves the checkpoint period (possibly
/// solving for the optimal one), derives the failure response and
/// allocates a risk tracker — work identical for every replication of
/// a Monte-Carlo estimate. `RunMachine` performs it once and drives
/// many runs against the same machinery: [`RunMachine::drive`] resets
/// the risk tracker on entry and is generic over the failure source
/// and the [`Policy`], so the Monte-Carlo fast path is monomorphized
/// over the concrete source type (no per-event dyn dispatch) while the
/// public single-run entry points keep their `&mut dyn FailureSource`
/// signatures.
pub(crate) struct RunMachine {
    cfg: RunConfig,
    sched: PeriodSchedule,
    resp: FailureResponse,
    tracker: dck_protocols::RiskTracker,
    /// The configured window length, restored after a `φ` retune.
    risk_window: f64,
    usable: u64,
}

impl RunMachine {
    /// Builds the machinery for `cfg`, resolving the period once.
    ///
    /// # Errors
    /// Propagates configuration errors.
    pub(crate) fn new(cfg: &RunConfig) -> Result<Self, ModelError> {
        let (sched, resp, tracker) = cfg.build()?;
        Ok(RunMachine {
            cfg: *cfg,
            sched,
            resp,
            risk_window: tracker.risk_window(),
            tracker,
            usable: cfg.usable_nodes(),
        })
    }

    /// Drives one run to its stop condition under `policy`.
    ///
    /// A failure freezes the schedule position and opens an outage; a
    /// failure during any outage (recovery, proactive checkpoint or
    /// predicted rollback) restarts it from the frozen position. A
    /// retune applies at the next period boundary: the work completed
    /// so far is banked and the schedule, failure response and risk
    /// window are rebuilt for the rest of the run. Every stop path emits
    /// exactly one terminal [`TimelineEvent::Finished`].
    ///
    /// # Errors
    /// Fails when the failure source does not cover exactly the
    /// configuration's usable nodes, and propagates policy errors.
    pub(crate) fn drive<S, P, O>(
        &mut self,
        stop: Stop,
        source: &mut S,
        policy: &mut P,
        mut observe: O,
    ) -> DriveResult
    where
        S: FailureSource + ?Sized,
        P: Policy,
        O: FnMut(TimelineEvent),
    {
        let usable = self.usable;
        if source.nodes() != usable {
            return Err(ModelError::invalid(
                "failure_source",
                format!(
                    "failure source covers {} nodes but the configuration simulates {usable} usable nodes",
                    source.nodes(),
                ),
            ));
        }
        self.tracker.reset();
        self.tracker.set_risk_window(self.risk_window)?;
        // Retunes rebuild these copies, never the machine's own.
        let mut sched = self.sched;
        let mut resp = self.resp;
        let tracker = &mut self.tracker;
        let horizon = match stop {
            Stop::Work(_) => f64::INFINITY,
            Stop::Horizon(h) => h,
        };
        // Work banked by the schedule segments closed by retunes.
        let banked = |done: Option<f64>, w: f64| done.map_or(w, |d| d + w);

        let mut failures = 0u64;
        let mut outage_time = 0.0_f64;
        let (reason, at, useful_work, unhandled) = 'run: {
            if sched.work_per_period() <= 0.0 {
                break 'run (StopReason::NoProgress, 0.0, 0.0, None);
            }
            let mut v_end = match stop {
                Stop::Work(w) => Some(sched.time_to_reach_work(w)),
                Stop::Horizon(_) => None,
            };
            let mut t = 0.0_f64; // wall clock
            let mut v = 0.0_f64; // position in the current schedule segment
            let mut elapsed = 0.0_f64; // schedule time of the closed segments
            let mut done: Option<f64> = None;
            let mut outage: Option<f64> = None; // end of the running outage
            let mut next = source.next_failure();
            policy.drawn(&next, t);

            loop {
                let next_at = next.at.as_secs();
                let alarm_at = policy.next_alarm();
                let alarm_first = alarm_at < next_at;
                let event_at = if alarm_first { alarm_at } else { next_at };
                let in_outage_at_event = outage.is_some();
                match outage {
                    None => {
                        if let Some(r) = policy.pending_retune() {
                            let p = sched.period();
                            let vb = (v / p).ceil() * p;
                            let ts = t + (vb - v);
                            let t_end = v_end.map_or(horizon, |ve| t + (ve - v));
                            if ts < t_end && event_at >= ts {
                                policy.retune_applied();
                                let work = banked(done, sched.work_at(vb));
                                sched = PeriodSchedule::new(
                                    self.cfg.protocol,
                                    &self.cfg.params,
                                    r.phi,
                                    r.new_period,
                                )?;
                                resp = FailureResponse::for_schedule(&self.cfg.params, &sched)?;
                                let risk =
                                    RiskModel::new(self.cfg.protocol, &self.cfg.params, r.phi)?;
                                tracker.set_risk_window(risk.risk_window())?;
                                t = ts;
                                v = 0.0;
                                elapsed += vb;
                                done = Some(work);
                                observe(TimelineEvent::Retune {
                                    at: ts,
                                    old_period: r.old_period,
                                    new_period: r.new_period,
                                    mtbf_estimate: r.mtbf_estimate,
                                });
                                if dck_obs::enabled() {
                                    dck_obs::incr("adapt.retunes_applied");
                                }
                                if sched.work_per_period() <= 0.0 {
                                    break 'run (StopReason::NoProgress, t, work, Some(next));
                                }
                                if let Stop::Work(w) = stop {
                                    v_end = Some(sched.time_to_reach_work(w - work));
                                }
                                continue;
                            }
                        }
                        if let Some(ve) = v_end {
                            let t_complete = t + (ve - v);
                            if event_at >= t_complete && t_complete <= horizon {
                                // A segmented run completes exactly the
                                // work target of its last segment.
                                let work = match (done, stop) {
                                    (Some(d), Stop::Work(w)) => d + (w - d),
                                    _ => sched.work_at(ve),
                                };
                                break 'run (
                                    StopReason::WorkComplete,
                                    t_complete,
                                    work,
                                    Some(next),
                                );
                            }
                        }
                        if event_at >= horizon {
                            let work = banked(done, sched.work_at(v + (horizon - t)));
                            break 'run (StopReason::HorizonReached, horizon, work, Some(next));
                        }
                        v += event_at - t;
                        t = event_at;
                        if alarm_first {
                            let cost = policy.alarm(elapsed + v);
                            outage = Some(t + cost);
                            outage_time += cost;
                            continue;
                        }
                    }
                    Some(end) => {
                        if event_at >= end && end <= horizon {
                            observe(TimelineEvent::OutageEnd { at: end });
                            t = end;
                            outage = None;
                            policy.outage_end(t)?;
                            continue;
                        }
                        if event_at >= horizon {
                            let work = banked(done, sched.work_at(v));
                            break 'run (StopReason::HorizonReached, horizon, work, Some(next));
                        }
                        if alarm_first {
                            policy.alarm_in_outage(end);
                            continue;
                        }
                        // A failure strikes during the outage: the
                        // platform rolls back again. The unspent tail is
                        // discarded (its elapsed part already counted via
                        // t) and the outage is re-armed below.
                        outage_time -= end - next_at;
                        t = next_at;
                    }
                }

                failures += 1;
                let rollback = policy.failure(t, elapsed + v)?;
                let fate = tracker.record_failure(next.node, t);
                let off = v % sched.period();
                let o = match rollback {
                    Some(o) => o,
                    None => resp.outage(off).total(),
                };
                observe(TimelineEvent::Failure {
                    at: t,
                    node: next.node,
                    offset: off,
                    outage: o,
                    fatal: fate.fatal,
                    during_outage: in_outage_at_event,
                });
                if fate.fatal {
                    break 'run (StopReason::Fatal, t, banked(done, sched.work_at(v)), None);
                }
                outage = Some(t + o);
                outage_time += o;
                if failures >= self.cfg.max_failures {
                    let work = banked(done, sched.work_at(v));
                    break 'run (StopReason::FailureCapReached, t, work, None);
                }
                next = source.next_failure();
                policy.drawn(&next, t);
            }
        };

        // A run that can make no progress never completes its work, so
        // total_time is +∞ in work mode (its marker keeps the finite
        // instant progress stopped, as JSON cannot carry ∞); in horizon
        // mode the platform idles out the horizon.
        let (total_time, finished_at) = match (reason, stop) {
            (StopReason::NoProgress, Stop::Work(_)) => (f64::INFINITY, at),
            (StopReason::NoProgress, Stop::Horizon(h)) => (h, h),
            _ => (at, at),
        };
        observe(TimelineEvent::Finished {
            at: finished_at,
            reason,
        });
        Ok((
            RunOutcome {
                reason,
                total_time,
                useful_work,
                failures,
                outage_time,
                fatal_at: (reason == StopReason::Fatal).then_some(at),
            },
            unhandled,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeriodChoice;
    use dck_core::{PlatformParams, Protocol};
    use dck_failures::FailureTrace;
    use dck_simcore::SimTime;

    fn base_params(nodes: u64) -> PlatformParams {
        PlatformParams::new(0.0, 2.0, 4.0, 10.0, nodes).unwrap()
    }

    fn cfg(protocol: Protocol, nodes: u64, phi: f64, period: f64) -> RunConfig {
        let mut c = RunConfig::new(protocol, base_params(nodes), phi, 7.0 * 3600.0);
        c.period = PeriodChoice::Explicit(period);
        c
    }

    fn trace(nodes: u64, events: &[(f64, u64)]) -> FailureTrace {
        FailureTrace::new(
            nodes,
            events
                .iter()
                .map(|&(at, node)| FailureEvent {
                    at: SimTime::seconds(at),
                    node,
                })
                .collect(),
        )
    }

    #[test]
    fn failure_free_run_is_exact() {
        // φ=1 ⇒ θ=34, P=100, W=97. t_base = 970 ⇒ exactly 10 periods.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let empty = trace(8, &[]);
        let out = run_to_completion(&c, 970.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::WorkComplete);
        assert!((out.total_time - 1000.0).abs() < 1e-9);
        assert!((out.useful_work - 970.0).abs() < 1e-9);
        assert_eq!(out.failures, 0);
        // Waste = fault-free waste = (δ+φ)/P = 3%.
        assert!((out.waste() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn single_failure_costs_exactly_the_outage() {
        // Failure at t = 250 (schedule position 250, offset 50 into the
        // 3rd period — compute phase). Outage = D+R + RE(50) with
        // RE(off≥δ+θ) = off−δ = 48 ⇒ outage = 4 + 48 = 52.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 3)]);
        let out = run_to_completion(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.failures, 1);
        assert!((out.outage_time - 52.0).abs() < 1e-9);
        assert!((out.total_time - 1052.0).abs() < 1e-9);
        assert_eq!(out.reason, StopReason::WorkComplete);
    }

    #[test]
    fn failure_during_outage_restarts_it() {
        // First failure at 250 opens outage until 302; second failure at
        // 300 (same offset) restarts: new end 300 + 52 = 352.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        // Use distant nodes so nothing is fatal (groups (0,1),(2,3),…).
        let tr = trace(8, &[(250.0, 0), (300.0, 2)]);
        let out = run_to_completion(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.failures, 2);
        // Outage time = (300−250 spent) + 52 = 102; completion at
        // 352 + (1000 − 250) remaining schedule = 1102.
        assert!(
            (out.outage_time - 102.0).abs() < 1e-9,
            "{}",
            out.outage_time
        );
        assert!((out.total_time - 1102.0).abs() < 1e-9, "{}", out.total_time);
    }

    #[test]
    fn buddy_failure_in_risk_window_is_fatal() {
        // Risk window (NBL, φ=1): D+R+θ = 38. Buddy fails 10 s later.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0), (260.0, 1)]);
        let out = run_to_completion(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::Fatal);
        assert_eq!(out.fatal_at, Some(260.0));
        assert!(!out.survived());
    }

    #[test]
    fn buddy_failure_after_risk_window_is_survivable() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        // 38 s window; buddy fails 40 s later.
        let tr = trace(8, &[(250.0, 0), (290.1, 1)]);
        let out = run_to_completion(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::WorkComplete);
        assert!(out.survived());
    }

    #[test]
    fn triple_survives_double_failure() {
        let c = cfg(Protocol::Triple, 9, 1.0, 100.0);
        let tr = trace(9, &[(250.0, 0), (251.0, 1)]);
        let out = run_to_completion(&c, 960.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::WorkComplete);
        // …but a third member within the windows kills it.
        let tr = trace(9, &[(250.0, 0), (251.0, 1), (252.0, 2)]);
        let out = run_to_completion(&c, 960.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::Fatal);
    }

    #[test]
    fn horizon_mode_reports_work_done() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let empty = trace(8, &[]);
        let out = run_until(&c, 1000.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::HorizonReached);
        assert!((out.useful_work - 970.0).abs() < 1e-9);
        assert!((out.waste() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn horizon_inside_outage() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0)]);
        // Outage runs 250→302; horizon at 275 lands inside it.
        let out = run_until(&c, 275.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::HorizonReached);
        // Work frozen at the failure position: work_at(250) =
        // 2·97 + (33 + 14) = 241.
        assert!(
            (out.useful_work - 241.0).abs() < 1e-9,
            "{}",
            out.useful_work
        );
        assert_eq!(out.total_time, 275.0);
    }

    #[test]
    fn no_progress_configuration_detected() {
        // DoubleBlocking at the minimum period: W = P − δ − θmin = 0.
        let c = cfg(Protocol::DoubleBlocking, 8, 0.0, 6.0);
        let empty = trace(8, &[]);
        let out = run_to_completion(&c, 100.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::NoProgress);
        assert_eq!(out.useful_work, 0.0);
    }

    #[test]
    fn failure_cap_stops_runaway_runs() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        c.max_failures = 3;
        // Failures every 10 s starve the run (outage ≥ 38 s each).
        let events: Vec<(f64, u64)> = (1..100)
            .map(|i| (i as f64 * 1000.0, (2 * (i % 4)) as u64))
            .collect();
        let tr = trace(8, &events);
        let out = run_to_completion(&c, 1e9, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::FailureCapReached);
        assert_eq!(out.failures, 3);
    }

    #[test]
    fn timeline_records_failures_and_outages() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0), (300.0, 2)]);
        let (out, timeline) = run_to_completion_traced(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::WorkComplete);
        // Two failures, one outage end, one completion.
        let failures: Vec<_> = timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Failure { .. }))
            .collect();
        assert_eq!(failures.len(), 2);
        match failures[0] {
            TimelineEvent::Failure {
                at,
                node,
                during_outage,
                fatal,
                ..
            } => {
                assert_eq!(*at, 250.0);
                assert_eq!(*node, 0);
                assert!(!during_outage);
                assert!(!fatal);
            }
            _ => unreachable!(),
        }
        match failures[1] {
            TimelineEvent::Failure { during_outage, .. } => assert!(during_outage),
            _ => unreachable!(),
        }
        assert!(matches!(
            timeline.last(),
            Some(TimelineEvent::Finished {
                reason: StopReason::WorkComplete,
                ..
            })
        ));
        // Exactly one outage completed (the restarted one).
        let outage_ends = timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::OutageEnd { .. }))
            .count();
        assert_eq!(outage_ends, 1);
    }

    #[test]
    fn timeline_marks_fatal() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0), (260.0, 1)]);
        let (out, timeline) = run_to_completion_traced(&c, 970.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::Fatal);
        assert!(timeline
            .iter()
            .any(|e| matches!(e, TimelineEvent::Failure { fatal: true, .. })));
        assert!(matches!(
            timeline.last(),
            Some(TimelineEvent::Finished {
                reason: StopReason::Fatal,
                ..
            })
        ));
    }

    #[test]
    fn traced_and_untraced_agree() {
        let c = cfg(Protocol::Triple, 9, 1.0, 100.0);
        let tr = trace(9, &[(250.0, 0), (700.0, 5)]);
        let plain = run_to_completion(&c, 960.0, &mut tr.replay()).unwrap();
        let (traced, _) = run_to_completion_traced(&c, 960.0, &mut tr.replay()).unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn waste_definition_sane() {
        let out = RunOutcome {
            reason: StopReason::WorkComplete,
            total_time: 200.0,
            useful_work: 150.0,
            failures: 0,
            outage_time: 0.0,
            fatal_at: None,
        };
        assert!((out.waste() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn waste_tolerates_float_rounding_without_counting() {
        let _guard = dck_obs::exclusive_session();
        dck_obs::reset();
        let out = RunOutcome {
            reason: StopReason::WorkComplete,
            total_time: 200.0,
            // One ulp over total_time: boundary rounding, not corruption.
            useful_work: 200.0 * (1.0 + 1e-15),
            failures: 0,
            outage_time: 0.0,
            fatal_at: None,
        };
        assert_eq!(out.waste(), 0.0);
        assert_eq!(dck_obs::snapshot().counter("run.waste_clamped"), 0);
    }

    #[test]
    fn corrupt_waste_is_counted_not_laundered() {
        let _guard = dck_obs::exclusive_session();
        dck_obs::reset();
        let out = RunOutcome {
            reason: StopReason::WorkComplete,
            total_time: 200.0,
            useful_work: 300.0, // impossible: work outran the clock
            failures: 0,
            outage_time: 0.0,
            fatal_at: None,
        };
        let waste = std::panic::catch_unwind(|| out.waste());
        if cfg!(debug_assertions) {
            assert!(waste.is_err(), "debug builds must panic on corruption");
        } else {
            assert_eq!(waste.unwrap(), 0.0);
        }
        // The defect counter records it either way — always-on, no
        // enabled() gate.
        assert_eq!(dck_obs::snapshot().counter("run.waste_clamped"), 1);
    }

    #[test]
    fn horizon_trace_ends_with_finished() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0)]);
        let (out, timeline) = run_until_traced(&c, 1000.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::HorizonReached);
        assert_eq!(
            timeline.last(),
            Some(&TimelineEvent::Finished {
                at: 1000.0,
                reason: StopReason::HorizonReached,
            })
        );
        // Horizon landing inside the outage also gets its end marker.
        let (out, timeline) = run_until_traced(&c, 275.0, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::HorizonReached);
        assert_eq!(
            timeline.last(),
            Some(&TimelineEvent::Finished {
                at: 275.0,
                reason: StopReason::HorizonReached,
            })
        );
    }

    #[test]
    fn failure_cap_trace_ends_with_finished() {
        let mut c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        c.max_failures = 3;
        let events: Vec<(f64, u64)> = (1..100)
            .map(|i| (i as f64 * 1000.0, (2 * (i % 4)) as u64))
            .collect();
        let tr = trace(8, &events);
        let (out, timeline) = run_to_completion_traced(&c, 1e9, &mut tr.replay()).unwrap();
        assert_eq!(out.reason, StopReason::FailureCapReached);
        assert_eq!(
            timeline.last(),
            Some(&TimelineEvent::Finished {
                at: out.total_time,
                reason: StopReason::FailureCapReached,
            })
        );
    }

    #[test]
    fn no_progress_trace_and_waste_convention_work_mode() {
        // W = 0: the run can never reach the requested work, so
        // total_time is +∞ and waste() = 1 by convention. The terminal
        // event is stamped at 0.0 (JSON cannot carry ∞).
        let c = cfg(Protocol::DoubleBlocking, 8, 0.0, 6.0);
        let empty = trace(8, &[]);
        let (out, timeline) = run_to_completion_traced(&c, 100.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::NoProgress);
        assert!(out.total_time.is_infinite());
        assert_eq!(out.useful_work, 0.0);
        assert_eq!(out.waste(), 1.0);
        assert_eq!(
            timeline,
            vec![TimelineEvent::Finished {
                at: 0.0,
                reason: StopReason::NoProgress,
            }]
        );
        // The lone event must survive a JSON round-trip (the reason the
        // timestamp is finite).
        let json = serde_json::to_string(&timeline[0]).unwrap();
        let back: TimelineEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, timeline[0]);
    }

    #[test]
    fn no_progress_waste_convention_horizon_mode() {
        // Horizon mode: the platform idles out the horizon with zero
        // work, so total_time = horizon and waste() = 1 as well.
        let c = cfg(Protocol::DoubleBlocking, 8, 0.0, 6.0);
        let empty = trace(8, &[]);
        let (out, timeline) = run_until_traced(&c, 500.0, &mut empty.replay()).unwrap();
        assert_eq!(out.reason, StopReason::NoProgress);
        assert_eq!(out.total_time, 500.0);
        assert_eq!(out.useful_work, 0.0);
        assert_eq!(out.waste(), 1.0);
        assert_eq!(
            timeline,
            vec![TimelineEvent::Finished {
                at: 500.0,
                reason: StopReason::NoProgress,
            }]
        );
    }

    #[test]
    fn mismatched_source_is_a_typed_error() {
        // A source covering the wrong node count must surface as a
        // ModelError, not abort a pool worker.
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let wrong = trace(4, &[]);
        let err = run_to_completion(&c, 970.0, &mut wrong.replay()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("4") && msg.contains("8"), "message: {msg}");
    }

    /// Injects one retune through the policy, committed at the first
    /// outage end (or up front when `at_start`).
    struct Inject {
        retune: Option<Retune>,
        pending: Option<Retune>,
    }

    impl Inject {
        fn new(phi: f64, new_period: f64, at_start: bool) -> Self {
            let retune = Retune {
                at: 0.0,
                old_period: 100.0,
                new_period,
                phi,
                mtbf_estimate: 3600.0,
                shape: None,
            };
            Inject {
                retune: (!at_start).then_some(retune),
                pending: at_start.then_some(retune),
            }
        }
    }

    impl Policy for Inject {
        fn outage_end(&mut self, _at: f64) -> Result<(), ModelError> {
            if let Some(r) = self.retune.take() {
                self.pending = Some(r);
            }
            Ok(())
        }

        fn pending_retune(&self) -> Option<Retune> {
            self.pending
        }

        fn retune_applied(&mut self) {
            self.pending = None;
        }
    }

    fn drive_with(
        c: &RunConfig,
        stop: Stop,
        tr: &FailureTrace,
        policy: &mut impl Policy,
    ) -> (RunOutcome, Vec<TimelineEvent>) {
        let mut sink = dck_obs::VecSink::new();
        let (out, _) = RunMachine::new(c)
            .unwrap()
            .drive(stop, &mut tr.replay(), policy, |e| {
                dck_obs::EventSink::emit(&mut sink, &e)
            })
            .unwrap();
        (out, sink.into_events())
    }

    #[test]
    fn retune_to_no_progress_keeps_the_accounting() {
        // DoubleBlocking at φ = 0: W = P − 6 = 94 at P = 100, and 0 at
        // the minimum period 6. The failure at 250 opens a 4 + 48 s
        // outage; the retune waits for the boundary at v = 300.
        let c = cfg(Protocol::DoubleBlocking, 8, 0.0, 100.0);
        let tr = trace(8, &[(250.0, 0)]);
        let (out, timeline) = drive_with(
            &c,
            Stop::Work(10_000.0),
            &tr,
            &mut Inject::new(0.0, 6.0, false),
        );
        assert_eq!(out.reason, StopReason::NoProgress);
        assert!(out.total_time.is_infinite());
        assert_eq!(out.failures, 1);
        assert!((out.outage_time - 52.0).abs() < 1e-9, "{out:?}");
        assert!((out.useful_work - 3.0 * 94.0).abs() < 1e-9, "{out:?}");
        let finished: Vec<_> = timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Finished { .. }))
            .collect();
        assert_eq!(finished.len(), 1, "{timeline:?}");
        // Stamped at the boundary where progress stopped: 302 + 50.
        assert_eq!(
            timeline.last(),
            Some(&TimelineEvent::Finished {
                at: 352.0,
                reason: StopReason::NoProgress,
            })
        );
        assert!(matches!(
            timeline[timeline.len() - 2],
            TimelineEvent::Retune { at, .. } if at == 352.0
        ));
    }

    #[test]
    fn phi_retune_resizes_risk_windows_opened_afterwards() {
        // NBL windows: D + R + θ(φ) = 38 s at φ = 1, 48 s at φ = 0. A
        // buddy pair 43 s apart is fatal exactly under the 48 s window.
        let tr = trace(8, &[(250.0, 0), (293.0, 1)]);
        let run = |phi: f64, retune_to: Option<f64>| {
            let c = cfg(Protocol::DoubleNbl, 8, phi, 100.0);
            match retune_to {
                Some(p) => {
                    drive_with(&c, Stop::Work(970.0), &tr, &mut Inject::new(p, 100.0, true)).0
                }
                None => run_to_completion(&c, 970.0, &mut tr.replay()).unwrap(),
            }
        };
        assert!(run(1.0, None).survived());
        assert!(!run(0.0, None).survived());
        assert!(!run(1.0, Some(0.0)).survived(), "window for the new φ");
        assert!(run(0.0, Some(1.0)).survived(), "window for the new φ");
        assert!(run(1.0, Some(1.0)).survived(), "period-only retune");
    }

    #[test]
    fn sinked_run_matches_traced_and_serializes() {
        let c = cfg(Protocol::DoubleNbl, 8, 1.0, 100.0);
        let tr = trace(8, &[(250.0, 0), (300.0, 2)]);
        let (out, timeline) = run_to_completion_traced(&c, 970.0, &mut tr.replay()).unwrap();
        let mut buf = Vec::new();
        let mut jsonl = dck_obs::JsonlSink::new(&mut buf);
        let sinked = run_to_completion_sinked(&c, 970.0, &mut tr.replay(), &mut jsonl).unwrap();
        let lines = jsonl.finish().unwrap();
        assert_eq!(sinked, out);
        assert_eq!(lines as usize, timeline.len());
        let parsed: Vec<TimelineEvent> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed, timeline);
    }
}
