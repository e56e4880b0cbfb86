//! E1 — failure-distribution robustness (extension; §VII direction).
//!
//! The paper's model assumes Exponential failures ("uniform distribution
//! over time"); the related work it cites (\[8–10\]) fits real machines
//! with Weibull-like laws, usually with shape `k < 1` (infant
//! mortality / bursty failures). This experiment re-runs the
//! Monte-Carlo waste and risk estimation under Weibull and LogNormal
//! renewal processes calibrated to the *same per-node MTBF*, and
//! measures how far the Exponential-based model drifts:
//!
//! * **waste** is driven by the long-run failure *rate*, which the
//!   renewal theorem pins to 1/MTBF regardless of shape — so the waste
//!   prediction should stay close;
//! * **risk** is driven by failure *clustering* inside risk windows —
//!   bursty laws (k < 1) should make fatal failures more likely than
//!   Eq. 11/16 predicts.
//!
//! Each law runs from a fresh start and from the exact stationary
//! regime, so deployment transients and the stationary law itself can
//! be told apart.

use crate::output::{ascii_table, fmt_f64, to_csv, OutputDir};
use dck_core::{ModelError, PlatformParams, Protocol, RiskModel, Scenario};
use dck_failures::DistributionSpec;
use dck_sim::montecarlo::SourceKind;
use dck_sim::{estimate_success, estimate_waste, MonteCarloConfig, RunConfig};
use dck_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Configuration of the robustness sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RobustnessConfig {
    /// Replications per waste point.
    pub waste_replications: usize,
    /// Replications per risk point.
    pub risk_replications: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub workers: usize,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            waste_replications: 150,
            risk_replications: 300,
            seed: 0x0B57,
            workers: 0,
        }
    }
}

impl RobustnessConfig {
    /// Cheap settings for CI.
    pub fn fast() -> Self {
        RobustnessConfig {
            waste_replications: 40,
            risk_replications: 100,
            ..Default::default()
        }
    }
}

/// The distribution variants compared (all calibrated to the same
/// mean). Each non-Exponential law appears twice: fresh-start (all
/// nodes brand-new at t = 0 — infant mortality front-loads failures)
/// and warmed (the exact stationary regime: each node's first failure
/// is a draw of its stationary residual life), so the transient and
/// steady-state effects can be told apart.
fn distributions() -> Vec<(&'static str, SourceKind)> {
    let unit = SimTime::seconds(1.0); // re-targeted inside the harness
    let weibull7 = DistributionSpec::Weibull {
        mean: unit,
        shape: 0.7,
    };
    let weibull5 = DistributionSpec::Weibull {
        mean: unit,
        shape: 0.5,
    };
    let lognormal = DistributionSpec::LogNormal {
        mean: unit,
        sigma: 1.0,
    };
    vec![
        ("exponential", SourceKind::Exponential),
        ("weibull_k0.7", SourceKind::Renewal(weibull7)),
        ("weibull_k0.7_warm", SourceKind::RenewalWarmed(weibull7)),
        ("weibull_k0.5", SourceKind::Renewal(weibull5)),
        ("weibull_k0.5_warm", SourceKind::RenewalWarmed(weibull5)),
        ("lognormal_s1", SourceKind::Renewal(lognormal)),
        ("lognormal_s1_warm", SourceKind::RenewalWarmed(lognormal)),
    ]
}

/// One waste robustness row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WasteRobustnessRow {
    /// Distribution label.
    pub distribution: String,
    /// Protocol.
    pub protocol: Protocol,
    /// Exponential-model waste prediction.
    pub model_waste: f64,
    /// Simulated mean waste.
    pub sim_waste: f64,
    /// 95% half-width.
    pub half_width: f64,
    /// Relative drift of the simulation from the model.
    pub rel_drift: f64,
}

/// One risk robustness row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RiskRobustnessRow {
    /// Distribution label.
    pub distribution: String,
    /// Protocol.
    pub protocol: Protocol,
    /// Eq. 11/16 prediction (Exponential assumption).
    pub model_p: f64,
    /// Simulated success probability.
    pub sim_p: f64,
    /// Wilson 95% interval.
    pub wilson: (f64, f64),
}

/// The robustness report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Waste rows.
    pub waste: Vec<WasteRobustnessRow>,
    /// Risk rows.
    pub risk: Vec<RiskRobustnessRow>,
}

/// Runs the sweep: waste on a 96-node Base-shaped platform at M = 30
/// min; risk at the harsh Base corner (full size, M = 60 s, T = 1 day).
///
/// # Errors
/// Propagates model/configuration errors; an operating point where no
/// replication completes is reported as a degenerate-estimate error.
pub fn run(cfg: &RobustnessConfig) -> Result<RobustnessReport, ModelError> {
    let scenario = Scenario::base();
    let mut waste_params = scenario.params;
    waste_params.nodes = 96;
    let phi = 1.0;
    let mtbf = 1_800.0;

    let mut waste = Vec::new();
    for protocol in [Protocol::DoubleNbl, Protocol::Triple] {
        let model = dck_core::optimal_period(protocol, &waste_params, phi, mtbf)?
            .waste
            .total;
        for (label, source) in distributions() {
            let run_cfg = RunConfig::new(protocol, waste_params, phi, mtbf);
            let mc = MonteCarloConfig {
                replications: cfg.waste_replications,
                seed: cfg.seed,
                workers: cfg.workers,
                source,
            };
            let est = estimate_waste(&run_cfg, 25.0 * mtbf, &mc)?;
            let ci = est.ci95.ok_or_else(|| {
                ModelError::invalid("replications", "no V3 replication completed its work")
            })?;
            waste.push(WasteRobustnessRow {
                distribution: label.to_string(),
                protocol,
                model_waste: model,
                sim_waste: ci.mean,
                half_width: ci.half_width,
                rel_drift: (ci.mean - model) / model,
            });
        }
    }

    let risk_params = risk_platform(&scenario.params);
    let mtbf_risk = 60.0;
    let horizon = 86_400.0;
    let mut risk = Vec::new();
    for protocol in [Protocol::DoubleNbl, Protocol::Triple] {
        let model_p = RiskModel::with_theta(protocol, &risk_params, risk_params.theta_max())?
            .success_probability(mtbf_risk, horizon)?
            .probability;
        for (label, source) in distributions() {
            let run_cfg = RunConfig::new(protocol, risk_params, 0.0, mtbf_risk);
            let mc = MonteCarloConfig {
                replications: cfg.risk_replications,
                seed: cfg.seed ^ 0xF00D,
                workers: cfg.workers,
                source,
            };
            let est = estimate_success(&run_cfg, horizon, &mc)?;
            risk.push(RiskRobustnessRow {
                distribution: label.to_string(),
                protocol,
                model_p,
                sim_p: est.p_hat,
                wilson: est.wilson95,
            });
        }
    }
    Ok(RobustnessReport { waste, risk })
}

/// The risk platform: the full Base machine (the heap-based renewal
/// source handles 10⁴ nodes comfortably).
fn risk_platform(params: &PlatformParams) -> PlatformParams {
    *params
}

impl RobustnessReport {
    /// ASCII rendering.
    pub fn to_ascii(&self) -> String {
        let waste_rows: Vec<Vec<String>> = self
            .waste
            .iter()
            .map(|r| {
                vec![
                    r.protocol.to_string(),
                    r.distribution.clone(),
                    format!("{:.5}", r.model_waste),
                    format!("{:.5} ± {:.5}", r.sim_waste, r.half_width),
                    format!("{:+.1}%", 100.0 * r.rel_drift),
                ]
            })
            .collect();
        let risk_rows: Vec<Vec<String>> = self
            .risk
            .iter()
            .map(|r| {
                vec![
                    r.protocol.to_string(),
                    r.distribution.clone(),
                    format!("{:.5}", r.model_p),
                    format!("{:.5} [{:.4}, {:.4}]", r.sim_p, r.wilson.0, r.wilson.1),
                ]
            })
            .collect();
        format!(
            "Waste under non-Exponential failures (model assumes Exponential)\n{}\n\
             Risk under non-Exponential failures\n{}",
            ascii_table(
                &["protocol", "distribution", "model", "simulated", "drift"],
                &waste_rows
            ),
            ascii_table(
                &["protocol", "distribution", "model_p", "sim_p (95% CI)"],
                &risk_rows
            )
        )
    }

    /// Writes CSV + JSON + ASCII.
    ///
    /// # Errors
    /// I/O errors.
    pub fn write(&self, out: &OutputDir) -> std::io::Result<()> {
        let rows: Vec<Vec<String>> = self
            .waste
            .iter()
            .map(|r| {
                vec![
                    r.protocol.id(),
                    r.distribution.clone(),
                    fmt_f64(r.model_waste),
                    fmt_f64(r.sim_waste),
                    fmt_f64(r.half_width),
                    fmt_f64(r.rel_drift),
                ]
            })
            .collect();
        out.write_text(
            "robustness_waste.csv",
            &to_csv(
                &[
                    "protocol",
                    "distribution",
                    "model_waste",
                    "sim_waste",
                    "ci95_half_width",
                    "rel_drift",
                ],
                &rows,
            ),
        )?;
        let rows: Vec<Vec<String>> = self
            .risk
            .iter()
            .map(|r| {
                vec![
                    r.protocol.id(),
                    r.distribution.clone(),
                    fmt_f64(r.model_p),
                    fmt_f64(r.sim_p),
                    fmt_f64(r.wilson.0),
                    fmt_f64(r.wilson.1),
                ]
            })
            .collect();
        out.write_text(
            "robustness_risk.csv",
            &to_csv(
                &[
                    "protocol",
                    "distribution",
                    "model_p",
                    "sim_p",
                    "wilson_lo",
                    "wilson_hi",
                ],
                &rows,
            ),
        )?;
        out.write_json("robustness.json", self)?;
        out.write_text("robustness.txt", &self.to_ascii())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_row_matches_model_and_shapes_drift_bounded() {
        let mut cfg = RobustnessConfig::fast();
        cfg.waste_replications = 30;
        cfg.risk_replications = 0; // waste-only in the unit test
        let scenario = Scenario::base();
        let mut params = scenario.params;
        params.nodes = 24;
        // Inline a reduced version of the waste sweep for speed.
        let phi = 1.0;
        let mtbf = 1_800.0;
        let model = dck_core::optimal_period(Protocol::DoubleNbl, &params, phi, mtbf)
            .unwrap()
            .waste
            .total;
        for (label, source) in distributions() {
            let run_cfg = RunConfig::new(Protocol::DoubleNbl, params, phi, mtbf);
            let mc = MonteCarloConfig {
                replications: cfg.waste_replications,
                seed: 1,
                workers: 0,
                source,
            };
            let est = estimate_waste(&run_cfg, 15.0 * mtbf, &mc).unwrap();
            let ci = est.ci95.expect("moderate-MTBF runs complete");
            let drift = (ci.mean - model) / model;
            // Fresh-start bursty shapes drift *upward* (front-loaded
            // hazard); warmed (stationary) sources sit on the model —
            // that split is this experiment's finding.
            assert!(drift > -0.15, "{label}: waste below model by {drift}");
            assert!(drift < 1.5, "{label}: drift {drift} implausibly large");
            if label.ends_with("_warm") {
                assert!(
                    drift.abs() < 0.15,
                    "{label}: stationary run should match the model, drift {drift}"
                );
            }
            if label == "exponential" {
                assert!(
                    ci.contains_with_slack(model, 4.0),
                    "exponential should match the model closely"
                );
            }
        }
    }
}
