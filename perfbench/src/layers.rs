//! Per-layer probes: each layer's cost per operation, measured from
//! outside through the layer's public functions on the configurations
//! the workloads run.

use crate::serve::{answer, Mix};
use crate::stats::{median, timed, SplitMix64};
use dck_core::{optimal_period, Evaluation, PlatformParams, Protocol, RiskModel, Scenario};
use dck_failures::DistributionSpec;
use dck_protocols::{GroupLayout, RiskTracker};
use dck_serve::queries;
use dck_serve::{ok_line, parse_request};
use dck_sim::montecarlo::SourceKind;
use dck_sim::{
    estimate_success, estimate_waste, replication_source, run_to_completion, run_until,
    MonteCarloConfig, RunConfig,
};
use dck_simcore::SimTime;
use serde::Value;
use std::hint::black_box;

/// How a probed replication stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Waste mode: until this much useful work is done.
    Work(f64),
    /// Risk mode: for this exploitation horizon.
    Horizon(f64),
}

/// One probed operating point.
#[derive(Debug, Clone)]
pub struct Case {
    /// Label for the report.
    pub label: String,
    /// The run configuration.
    pub cfg: RunConfig,
    /// Stop condition.
    pub stop: Stop,
    /// Failure process.
    pub source: SourceKind,
}

/// Per-replication costs of one case, split by layer.
#[derive(Debug, Clone, Default)]
pub struct CaseCost {
    /// Replications probed.
    pub reps: usize,
    /// Median seconds to build the replication's failure source.
    pub build_s: f64,
    /// Median seconds to build the run machinery (period, schedule,
    /// failure response, risk tracker).
    pub machine_s: f64,
    /// Executor self time per replication, seconds: the median over
    /// replications of each one's run minus its own machinery build and
    /// its own drain.
    pub exec_s: f64,
    /// Executor self time per failure event, seconds: the median over
    /// replications of each one's executor self time over the events it
    /// drew.
    pub exec_per_event_s: f64,
    /// Seconds per failure event drawn.
    pub draw_s: f64,
    /// Mean failure events drawn per replication.
    pub draws_per_rep: f64,
    /// Events drained in total.
    pub draws: u64,
    /// Mean failures handled per replication.
    pub failures_per_rep: f64,
}

/// Probes `reps` replications of `case`. For each: time
/// `replication_source`, time the run machinery on its own, time the
/// run, then drain as many events as the run consumed from a fresh,
/// identical source. The executor's self time is, replication by
/// replication, the run minus that replication's machinery and drain.
pub fn probe(case: &Case, reps: usize, seed: u64) -> Result<CaseCost, String> {
    let mc = MonteCarloConfig {
        replications: reps,
        seed,
        workers: 1,
        source: case.source,
    };
    let (mut builds, mut machines, mut execs, mut per_event) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut drain_s, mut draws, mut failures) = (0.0, 0u64, 0u64);
    for i in 0..reps as u64 {
        let (mut src, b) = timed(|| replication_source(&case.cfg, &mc, i));
        let (m, ms) = timed(|| case.cfg.build());
        m.map_err(|e| format!("{}: {e}", case.label))?;
        let (out, run_s) = timed(|| match case.stop {
            Stop::Work(t) => run_to_completion(&case.cfg, t, &mut *src),
            Stop::Horizon(h) => run_until(&case.cfg, h, &mut *src),
        });
        let out = out.map_err(|e| format!("{}: {e}", case.label))?;
        // The executor draws one event past the last one it handles.
        let n = out.failures + 1;
        let mut fresh = replication_source(&case.cfg, &mc, i);
        let (_, d) = timed(|| {
            for _ in 0..n {
                black_box(fresh.next_failure());
            }
        });
        builds.push(b);
        machines.push(ms);
        execs.push(run_s - ms - d);
        per_event.push((run_s - ms - d) / n as f64);
        drain_s += d;
        draws += n;
        failures += out.failures;
    }
    Ok(CaseCost {
        reps,
        build_s: median(&builds),
        machine_s: median(&machines),
        exec_s: median(&execs),
        exec_per_event_s: median(&per_event),
        draw_s: drain_s / draws.max(1) as f64,
        draws_per_rep: draws as f64 / reps.max(1) as f64,
        draws,
        failures_per_rep: failures as f64 / reps.max(1) as f64,
    })
}

/// The seven failure-law variants the robustness stage compares, with
/// the same labels.
pub fn robustness_sources() -> Vec<(&'static str, SourceKind)> {
    let unit = SimTime::seconds(1.0);
    let weibull = |shape| DistributionSpec::Weibull { mean: unit, shape };
    let lognormal = DistributionSpec::LogNormal {
        mean: unit,
        sigma: 1.0,
    };
    vec![
        ("exponential", SourceKind::Exponential),
        ("weibull_k0.7", SourceKind::Renewal(weibull(0.7))),
        ("weibull_k0.7_warm", SourceKind::RenewalWarmed(weibull(0.7))),
        ("weibull_k0.5", SourceKind::Renewal(weibull(0.5))),
        ("weibull_k0.5_warm", SourceKind::RenewalWarmed(weibull(0.5))),
        ("lognormal_s1", SourceKind::Renewal(lognormal)),
        ("lognormal_s1_warm", SourceKind::RenewalWarmed(lognormal)),
    ]
}

/// Protocols the robustness stage runs.
const ROBUSTNESS_PROTOCOLS: [Protocol; 2] = [Protocol::DoubleNbl, Protocol::Triple];

/// The robustness stage's operating points (`dck-experiments
/// robustness --fast`): waste on a 96-node Base-shaped platform at
/// M = 30 min (25 MTBFs of work), and risk on the full Base machine at
/// M = 60 s over one day. Returned with the replications the stage
/// runs at each point.
pub fn robustness_cases() -> Vec<(Case, usize)> {
    let base = Scenario::base().params;
    let mut small = base;
    small.nodes = 96;
    let mut out = Vec::new();
    for protocol in ROBUSTNESS_PROTOCOLS {
        for (label, source) in robustness_sources() {
            out.push((
                Case {
                    label: format!("waste/{}/{label}", protocol.id()),
                    cfg: RunConfig::new(protocol, small, 1.0, 1_800.0),
                    stop: Stop::Work(25.0 * 1_800.0),
                    source,
                },
                40,
            ));
        }
    }
    for protocol in ROBUSTNESS_PROTOCOLS {
        for (label, source) in robustness_sources() {
            out.push((
                Case {
                    label: format!("risk/{}/{label}", protocol.id()),
                    cfg: RunConfig::new(protocol, base, 0.0, 60.0),
                    stop: Stop::Horizon(86_400.0),
                    source,
                },
                100,
            ));
        }
    }
    out
}

/// A representative paper-sweep cell (DOUBLENBL, φ/R = 0.5, M = 1 h,
/// 20 MTBFs of work, Exponential failures) on Base or Exa.
pub fn sweep_case(exa: bool) -> Case {
    let scenario = if exa {
        Scenario::exa()
    } else {
        Scenario::base()
    };
    let p = scenario.params;
    Case {
        label: format!("sweep/{}", scenario.name),
        cfg: RunConfig::new(Protocol::DoubleNbl, p, 0.5 * p.theta_min, 3_600.0),
        stop: Stop::Work(20.0 * 3_600.0),
        source: SourceKind::Exponential,
    }
}

/// Work, in MTBFs, of the executor probe: long enough that the
/// executor's self time (about 0.2 µs per failure) stands well above
/// the noise of the ~0.7 ms Exa run-machinery build it is told apart
/// from.
const EXECUTOR_MTBFS: f64 = 4_000.0;

/// [`sweep_case`] with [`EXECUTOR_MTBFS`] of work, for the executor's
/// cost per failure event.
pub fn executor_case(exa: bool) -> Case {
    let mut case = sweep_case(exa);
    case.label.push_str("/long");
    case.stop = Stop::Work(EXECUTOR_MTBFS * 3_600.0);
    case
}

/// Median seconds of one `RiskTracker::new` for a DOUBLENBL layout of
/// `nodes` nodes.
pub fn tracker_new_s(nodes: u64, repeats: usize) -> Result<f64, String> {
    let nodes = GroupLayout::usable_nodes(Protocol::DoubleNbl, nodes);
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let layout = GroupLayout::new(Protocol::DoubleNbl, nodes).map_err(|e| e.to_string())?;
        let (t, s) = timed(|| RiskTracker::new(layout, 120.0));
        black_box(t.map_err(|e| e.to_string())?);
        times.push(s);
    }
    Ok(median(&times))
}

/// Seconds per `record_failure` on an Exa-sized tracker, for failures
/// at random nodes a platform MTBF apart.
pub fn record_failure_s(calls: usize, seed: u64) -> Result<f64, String> {
    let nodes = GroupLayout::usable_nodes(Protocol::DoubleNbl, Scenario::exa().params.nodes);
    let layout = GroupLayout::new(Protocol::DoubleNbl, nodes).map_err(|e| e.to_string())?;
    let mut tracker = RiskTracker::new(layout, 120.0).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(seed);
    let events: Vec<(u64, f64)> = {
        let mut t = 0.0;
        (0..calls)
            .map(|_| {
                t += 60.0 * rng.unit();
                (rng.next_u64() % nodes, t)
            })
            .collect()
    };
    let (_, s) = timed(|| {
        for &(node, t) in &events {
            black_box(tracker.record_failure(node, t));
        }
    });
    Ok(s / calls.max(1) as f64)
}

/// Monte-Carlo throughput at one worker on the Base sweep cell,
/// replications per second.
pub fn reps_per_s_w1(reps: usize, seed: u64) -> Result<f64, String> {
    let case = sweep_case(false);
    let Stop::Work(t_base) = case.stop else {
        return Err("the sweep case runs in waste mode".to_string());
    };
    let mc = MonteCarloConfig {
        replications: reps,
        seed,
        workers: 1,
        source: case.source,
    };
    let (est, s) = timed(|| estimate_waste(&case.cfg, t_base, &mc));
    est.map_err(|e| e.to_string())?;
    Ok(reps as f64 / s)
}

/// Monte-Carlo wall of `reps` replications of `case` at one worker over
/// its wall at `workers` workers: the parallel width the pool achieves
/// on that operating point.
pub fn mc_speedup(case: &Case, reps: usize, seed: u64, workers: usize) -> Result<f64, String> {
    let wall = |workers: usize| -> Result<f64, String> {
        let mc = MonteCarloConfig {
            replications: reps,
            seed,
            workers,
            source: case.source,
        };
        let (r, s) = timed(|| match case.stop {
            Stop::Work(t) => estimate_waste(&case.cfg, t, &mc).map(|_| ()),
            Stop::Horizon(h) => estimate_success(&case.cfg, h, &mc).map(|_| ()),
        });
        r.map_err(|e| format!("{}: {e}", case.label))?;
        Ok(s)
    };
    Ok(wall(1)? / wall(workers)?)
}

/// Median seconds per call of `f` over `calls` calls, in `rounds`
/// timed batches (the median of the batch means).
pub fn per_call(rounds: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let means: Vec<f64> = (0..rounds)
        .map(|_| {
            let (_, s) = timed(|| {
                for i in 0..calls {
                    f(i);
                }
            });
            s / calls as f64
        })
        .collect();
    median(&means)
}

/// The analytic model's cost per call over the paper-sweep grid:
/// `(optimal_period, waste evaluation at a period, risk)` seconds.
pub fn core_costs() -> (f64, f64, f64) {
    let mut points: Vec<(Protocol, PlatformParams, f64, f64)> = Vec::new();
    for scenario in [Scenario::base(), Scenario::exa()] {
        for protocol in crate::sweep::PROTOCOLS {
            for &m in &crate::sweep::MTBFS {
                for &r in &crate::sweep::PHI_RATIOS {
                    let p = scenario.params;
                    points.push((protocol, p, r * p.theta_min, m));
                }
            }
        }
    }
    let n = points.len();
    let opt = per_call(7, n, |i| {
        let (pr, p, phi, m) = points[i];
        black_box(optimal_period(pr, &p, phi, m).ok());
    });
    let waste = per_call(7, n, |i| {
        let (pr, p, phi, m) = points[i];
        black_box(Evaluation::at_period(pr, &p, phi, m, m / 10.0).ok());
    });
    let risk = per_call(7, n, |i| {
        let (pr, p, phi, m) = points[i];
        black_box(
            RiskModel::new(pr, &p, phi)
                .and_then(|r| r.success_probability(m, 30.0 * 86_400.0))
                .ok(),
        );
    });
    (opt, waste, risk)
}

/// Serve-path costs per call on the mix's own request lines.
#[derive(Debug, Clone, Copy)]
pub struct ServeCosts {
    /// `parse_request`, seconds.
    pub parse_s: f64,
    /// `ok_line`, seconds.
    pub encode_s: f64,
    /// `queries::waste`, seconds.
    pub waste_s: f64,
    /// `queries::risk`, seconds.
    pub risk_s: f64,
    /// `queries::pstar`, seconds.
    pub pstar_s: f64,
    /// A Base `sweep_cell` miss (`run_sweep_cell`), seconds.
    pub miss_base_s: f64,
    /// An Exa `sweep_cell` miss, seconds.
    pub miss_exa_s: f64,
}

/// Measures [`ServeCosts`] on `n` requests drawn from `mix`.
pub fn serve_costs(mix: &Mix, seed: u64, n: usize) -> Result<ServeCosts, String> {
    let reqs = mix.requests(seed, n);
    let lines: Vec<&str> = reqs.iter().map(|r| r.line.as_str()).collect();
    let parse_s = per_call(5, lines.len(), |i| {
        black_box(parse_request(lines[i]).ok());
    });
    let parsed: Vec<_> = lines.iter().filter_map(|l| parse_request(l).ok()).collect();
    let by_method = |m: &str| -> Vec<Value> {
        parsed
            .iter()
            .filter(|r| r.method == m)
            .map(|r| r.params.clone())
            .collect()
    };
    let query = |m: &str| -> Result<(f64, Vec<Value>), String> {
        let ps = by_method(m);
        if ps.is_empty() {
            return Err(format!("the mix has no `{m}` request"));
        }
        let answers = ps
            .iter()
            .map(|p| answer(m, p))
            .collect::<Result<Vec<_>, _>>()?;
        let s = per_call(5, ps.len(), |i| {
            black_box(answer(m, &ps[i]).ok());
        });
        Ok((s, answers))
    };
    let (waste_s, mut payloads) = query("waste")?;
    let (risk_s, more) = query("risk")?;
    payloads.extend(more);
    let (pstar_s, more) = query("pstar")?;
    payloads.extend(more);
    let encode_s = per_call(5, payloads.len(), |i| {
        black_box(ok_line(&Value::U64(i as u64), payloads[i].clone()));
    });
    let miss = |exa: bool, take: usize| -> Result<f64, String> {
        let qs = mix.cell_queries(exa);
        let mut times = Vec::new();
        for q in qs.iter().step_by((qs.len() / take).max(1)).take(take) {
            let (c, s) = timed(|| queries::compute_sweep_cell(q));
            black_box(c.map_err(|e| e.message)?);
            times.push(s);
        }
        Ok(median(&times))
    };
    Ok(ServeCosts {
        parse_s,
        encode_s,
        waste_s,
        risk_s,
        pstar_s,
        miss_base_s: miss(false, 15)?,
        miss_exa_s: miss(true, 15)?,
    })
}
