//! The `experiments` workload: every stage of
//! `dck-experiments all --fast`, in the CLI's order, each called
//! through its public `run` and written to a scratch output directory.

use dck_core::Scenario;
use dck_experiments::{
    blocking_gain, fig5_sim, hierarchical_exp, output::OutputDir, period_check, phi_choice,
    refined_exp, risk_surface, robustness, sweep_engine, table1, validate, waste_ratio,
    waste_surface,
};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Stage names in the order `dck-experiments all` runs them.
pub const STAGES: [&str; 16] = [
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "period-check",
    "phi-choice",
    "blocking-gain",
    "fig5-sim",
    "sweep-engine",
    "hierarchical",
    "refined",
    "validate",
    "robustness",
];

/// Stages that run the simulator (the rest evaluate the analytic model
/// only).
pub const SIMULATING: [&str; 6] = [
    "fig5-sim",
    "sweep-engine",
    "hierarchical",
    "refined",
    "validate",
    "robustness",
];

/// Everything a pass needs, resolved once: the `--fast` stage
/// configurations with the benchmark seed applied, and the output
/// directory.
pub struct Plan {
    out: OutputDir,
    base: Scenario,
    exa: Scenario,
    validate: validate::ValidateConfig,
    robustness: robustness::RobustnessConfig,
    fig5_sim: fig5_sim::Fig5SimConfig,
    sweep_engine: sweep_engine::SweepEngineConfig,
    hierarchical: hierarchical_exp::HierarchicalConfig,
    refined: refined_exp::RefinedConfig,
    /// What the sweep-engine stage must report for `engines_identical`
    /// (`false` only to self-test the check).
    pub expect_engines_identical: bool,
    /// `validate` runs that put some model point outside its
    /// Monte-Carlo tolerance. Reported, not counted as failures: the
    /// tolerance is statistical, and under a varied seed a correct
    /// program falls outside it now and then (seed 25 of seeds 0–399 at
    /// the `--fast` sizes), where the CLI runs one fixed seed.
    pub outside_tolerance: Cell<usize>,
}

impl Plan {
    /// Resolves every stage configuration and creates `dir`.
    pub fn new(seed: u64, dir: &Path) -> Result<Plan, String> {
        let out = OutputDir::create(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut validate = validate::ValidateConfig::fast();
        validate.seed = seed;
        let mut robustness = robustness::RobustnessConfig::fast();
        robustness.seed = seed;
        let mut fig5_sim = fig5_sim::Fig5SimConfig::fast();
        fig5_sim.seed = seed;
        let mut sweep_engine = sweep_engine::SweepEngineConfig::fast();
        sweep_engine.seed = seed;
        let mut hierarchical = hierarchical_exp::HierarchicalConfig {
            replications: 12,
            ..Default::default()
        };
        hierarchical.seed = seed;
        let mut refined = refined_exp::RefinedConfig::fast();
        refined.seed = seed;
        Ok(Plan {
            out,
            base: Scenario::base(),
            exa: Scenario::exa(),
            validate,
            robustness,
            fig5_sim,
            sweep_engine,
            hierarchical,
            refined,
            expect_engines_identical: true,
            outside_tolerance: Cell::new(0),
        })
    }

    /// Runs one stage as the CLI does (compute, render, write). An
    /// error, or a sweep-engine report whose engines disagree, is a
    /// failed stage.
    pub fn run_stage(&self, stage: &str) -> Result<(), String> {
        let out = &self.out;
        let io = |e: std::io::Error| format!("{stage}: write failed: {e}");
        let model = |e: dck_core::ModelError| format!("{stage}: {e}");
        let surface = waste_surface::Resolution {
            mtbf_points: 9,
            phi_points: 9,
        };
        let risk = risk_surface::Resolution {
            mtbf_points: 10,
            exploitation_points: 10,
        };
        match stage {
            "table1" => {
                let t = table1::run();
                black_box(t.to_ascii());
                t.write(out).map_err(io)
            }
            "fig4" | "fig7" => {
                let s = if stage == "fig4" {
                    &self.base
                } else {
                    &self.exa
                };
                waste_surface::run(s, surface)
                    .map_err(model)?
                    .write(out)
                    .map_err(io)
            }
            "fig5" | "fig8" => {
                let s = if stage == "fig5" {
                    &self.base
                } else {
                    &self.exa
                };
                waste_ratio::run(s, 11)
                    .map_err(model)?
                    .write(out)
                    .map_err(io)
            }
            "fig6" | "fig9" => {
                let s = if stage == "fig6" {
                    &self.base
                } else {
                    &self.exa
                };
                risk_surface::run(s, risk)
                    .map_err(model)?
                    .write(out)
                    .map_err(io)
            }
            "period-check" => {
                let r = period_check::run().map_err(model)?;
                black_box((r.to_ascii(), r.max_interior_rel_err()));
                r.write(out).map_err(io)
            }
            "phi-choice" => {
                let r = phi_choice::run(8).map_err(model)?;
                black_box((r.to_ascii(), r.max_gain_over_fixed()));
                r.write(out).map_err(io)
            }
            "blocking-gain" => {
                let r = blocking_gain::run(8).map_err(model)?;
                black_box((r.to_ascii(), r.max_gain()));
                r.write(out).map_err(io)
            }
            "fig5-sim" => {
                let f = fig5_sim::run(&self.fig5_sim).map_err(model)?;
                black_box(f.max_ratio_deviation());
                f.write(out).map_err(io)
            }
            "sweep-engine" => {
                let r = sweep_engine::run(&self.sweep_engine).map_err(model)?;
                black_box(r.to_ascii());
                r.write(out).map_err(io)?;
                if r.engines_identical == self.expect_engines_identical {
                    Ok(())
                } else {
                    Err(format!(
                        "sweep-engine: engines_identical is {}",
                        r.engines_identical
                    ))
                }
            }
            "hierarchical" => {
                let r = hierarchical_exp::run(&self.hierarchical).map_err(model)?;
                black_box(r.to_ascii());
                r.write(out).map_err(io)
            }
            "refined" => {
                let r = refined_exp::run(&self.refined).map_err(model)?;
                black_box(r.to_ascii());
                r.write(out).map_err(io)
            }
            "validate" => {
                let r = validate::run(&self.validate).map_err(model)?;
                black_box(r.to_ascii());
                if !r.all_within() {
                    self.outside_tolerance.set(self.outside_tolerance.get() + 1);
                }
                r.write(out).map_err(io)
            }
            "robustness" => {
                let r = robustness::run(&self.robustness).map_err(model)?;
                black_box(r.to_ascii());
                r.write(out).map_err(io)
            }
            other => Err(format!("unknown stage `{other}`")),
        }
    }
}

/// One pass over a list of stages.
pub struct Pass {
    /// Seconds per stage, in the order run.
    pub stage_s: Vec<f64>,
    /// Seconds of the whole pass: the stages' sum, so that work done
    /// between stages (a set-up sample) is not counted.
    pub wall_s: f64,
    /// Error messages of the stages that failed.
    pub failures: Vec<String>,
}

/// Runs each of `stages` once, in order, timing each; calls
/// `after_stage` after each, outside the timings.
pub fn pass(plan: &Plan, stages: &[&str], mut after_stage: impl FnMut()) -> Pass {
    let mut stage_s = Vec::with_capacity(stages.len());
    let mut failures = Vec::new();
    for &stage in stages {
        let ts = Instant::now();
        if let Err(e) = plan.run_stage(stage) {
            failures.push(e);
        }
        stage_s.push(ts.elapsed().as_secs_f64());
        after_stage();
    }
    Pass {
        wall_s: stage_s.iter().sum(),
        stage_s,
        failures,
    }
}
