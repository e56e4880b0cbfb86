//! V4 — the sweep execution engines, head to head.
//!
//! Runs the same Fig-4-shaped `(φ/R, MTBF)` grid through both sweep
//! engines ([`SweepEngine::PerCell`] and [`SweepEngine::GlobalPool`]),
//! checks the results agree bit-for-bit (the engines' contract), and
//! reports the wall-clock cost of each plus the replication budget the
//! global pool's early stopping saves at a given precision target.
//!
//! perfbench's `experiments` workload times this stage; this module
//! validates and renders.

use crate::output::{fmt_f64, to_csv, OutputDir};
use dck_core::{ModelError, Protocol, Scenario};
use dck_obs::MetricsSnapshot;
use dck_sim::{run_sweep, EarlyStop, SweepEngine, SweepResult, SweepSpec};
use serde::{Deserialize, Serialize};
use std::io;
use std::time::Instant;

/// Configuration for the engine comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepEngineConfig {
    /// φ/R grid.
    pub phi_ratios: Vec<f64>,
    /// MTBF grid (seconds).
    pub mtbfs: Vec<f64>,
    /// Replication budget per cell.
    pub replications: usize,
    /// Useful work per run in MTBF multiples.
    pub work_in_mtbfs: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub workers: usize,
    /// Early-stop half-width target for the adaptive run.
    pub target_half_width: f64,
}

impl Default for SweepEngineConfig {
    fn default() -> Self {
        SweepEngineConfig {
            // Fig. 4's axes at reduced density: waste is evaluated at
            // every crossing, so 6 × 5 = 30 cells.
            phi_ratios: vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            mtbfs: vec![900.0, 1_800.0, 3_600.0, 4.0 * 3_600.0, 7.0 * 3_600.0],
            replications: 48,
            work_in_mtbfs: 10.0,
            seed: 0x0D0C_5EED,
            workers: 0,
            target_half_width: 0.01,
        }
    }
}

impl SweepEngineConfig {
    /// Reduced grid for `--fast` runs and tests.
    pub fn fast() -> Self {
        SweepEngineConfig {
            phi_ratios: vec![0.0, 0.5, 1.0],
            mtbfs: vec![1_800.0, 7.0 * 3_600.0],
            replications: 16,
            work_in_mtbfs: 6.0,
            ..SweepEngineConfig::default()
        }
    }

    fn spec(&self) -> SweepSpec {
        let mut spec = SweepSpec::new(
            Protocol::DoubleNbl,
            Scenario::base().params,
            self.phi_ratios.clone(),
            self.mtbfs.clone(),
        );
        spec.replications = self.replications;
        spec.work_in_mtbfs = self.work_in_mtbfs;
        spec.seed = self.seed;
        spec.workers = self.workers;
        spec
    }
}

/// Comparison outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepEngineReport {
    /// The configuration that produced it.
    pub config: SweepEngineConfig,
    /// Per-cell wall-clock seconds, per-cell engine.
    pub per_cell_seconds: f64,
    /// Wall-clock seconds, global pool.
    pub global_pool_seconds: f64,
    /// Wall-clock seconds, global pool with early stopping.
    pub adaptive_seconds: f64,
    /// Whether the two fixed-budget engines agreed bit-for-bit.
    pub engines_identical: bool,
    /// Replications executed by the fixed-budget run.
    pub fixed_replications: usize,
    /// Replications executed under early stopping.
    pub adaptive_replications: usize,
    /// Observability counters accumulated across all three engine runs
    /// (rounds, work units, early-stopped cells, pool occupancy).
    pub metrics: MetricsSnapshot,
    /// The global-pool result (the artifact the grid feeds plotting).
    pub result: SweepResult,
}

/// Runs the comparison. Metric recording is enabled for its duration
/// (and the prior enabled state restored after): the counter work is a
/// handful of relaxed atomic adds per round, far below the timing noise
/// of the Monte-Carlo work being compared, and never affects results.
///
/// # Errors
/// Propagates sweep configuration errors from either engine.
pub fn run(cfg: &SweepEngineConfig) -> Result<SweepEngineReport, ModelError> {
    dck_obs::reset();
    let was_enabled = dck_obs::set_enabled(true);
    let report = run_enabled(cfg);
    dck_obs::set_enabled(was_enabled);
    report
}

/// The body of [`run`], executed with metric recording switched on so
/// the caller can restore the prior state on both success and error.
fn run_enabled(cfg: &SweepEngineConfig) -> Result<SweepEngineReport, ModelError> {
    let mut spec = cfg.spec();

    spec.engine = SweepEngine::PerCell;
    let t0 = Instant::now();
    let per_cell = run_sweep(&spec)?;
    let per_cell_seconds = t0.elapsed().as_secs_f64();

    spec.engine = SweepEngine::GlobalPool;
    let t0 = Instant::now();
    let global = run_sweep(&spec)?;
    let global_pool_seconds = t0.elapsed().as_secs_f64();

    let engines_identical = per_cell.cells.iter().zip(&global.cells).all(|(a, b)| {
        a.sim_waste.map(f64::to_bits) == b.sim_waste.map(f64::to_bits)
            && a.half_width.map(f64::to_bits) == b.half_width.map(f64::to_bits)
            && a.completed == b.completed
            && a.replications_run == b.replications_run
    });

    spec.early_stop = Some(EarlyStop::at_half_width(cfg.target_half_width));
    let t0 = Instant::now();
    let adaptive = run_sweep(&spec)?;
    let adaptive_seconds = t0.elapsed().as_secs_f64();

    let metrics = dck_obs::snapshot();

    Ok(SweepEngineReport {
        config: cfg.clone(),
        per_cell_seconds,
        global_pool_seconds,
        adaptive_seconds,
        engines_identical,
        fixed_replications: global.total_replications_run(),
        adaptive_replications: adaptive.total_replications_run(),
        metrics,
        result: global,
    })
}

impl SweepEngineReport {
    /// Terminal summary.
    pub fn to_ascii(&self) -> String {
        format!(
            "sweep engines on a {} cell grid ({} replications/cell):\n\
             \x20 per-cell engine:    {:.2} ms\n\
             \x20 global pool:        {:.2} ms ({:.2}x)\n\
             \x20 + early stopping:   {:.2} ms ({} of {} replications at half-width {})\n\
             \x20 engines bit-identical: {}\n\
             \x20 observed: {} rounds, {} units, {} cells early-stopped, {} pool spawns\n",
            self.result.cells.len(),
            self.config.replications,
            1e3 * self.per_cell_seconds,
            1e3 * self.global_pool_seconds,
            self.per_cell_seconds / self.global_pool_seconds.max(1e-12),
            1e3 * self.adaptive_seconds,
            self.adaptive_replications,
            self.fixed_replications,
            fmt_f64(self.config.target_half_width),
            self.engines_identical,
            self.metrics.counter("sweep.rounds"),
            self.metrics.counter("sweep.units"),
            self.metrics.counter("sweep.cells_early_stopped"),
            self.metrics.counter("par.pool_spawns"),
        )
    }

    /// Writes the grid CSV and the JSON report.
    ///
    /// # Errors
    /// I/O errors.
    pub fn write(&self, out: &OutputDir) -> io::Result<()> {
        let rows: Vec<Vec<String>> = self
            .result
            .cells
            .iter()
            .map(|c| {
                vec![
                    fmt_f64(c.phi_ratio),
                    fmt_f64(c.mtbf),
                    fmt_f64(c.period),
                    fmt_f64(c.model_waste),
                    c.sim_waste.map(fmt_f64).unwrap_or_default(),
                    c.half_width.map(fmt_f64).unwrap_or_default(),
                    c.completed.to_string(),
                    c.fatal.to_string(),
                    c.truncated.to_string(),
                    c.replications_run.to_string(),
                ]
            })
            .collect();
        out.write_text(
            "sweep_engine_grid.csv",
            &to_csv(
                &[
                    "phi_ratio",
                    "mtbf_s",
                    "period_s",
                    "model_waste",
                    "sim_waste",
                    "half_width",
                    "completed",
                    "fatal",
                    "truncated",
                    "replications_run",
                ],
                &rows,
            ),
        )?;
        out.write_json("sweep_engine.json", self)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_adaptive_saves_budget() {
        let mut cfg = SweepEngineConfig::fast();
        // Loose target so early stopping actually bites in a test-sized
        // budget.
        cfg.target_half_width = 0.05;
        let report = run(&cfg).unwrap();
        assert!(report.engines_identical);
        assert_eq!(
            report.fixed_replications,
            cfg.replications * report.result.cells.len()
        );
        assert!(report.adaptive_replications <= report.fixed_replications);
        for c in &report.result.cells {
            assert!(c.sim_waste.is_some(), "cell {c:?}");
        }
        // Metrics were recorded across the three engine runs. Other
        // tests in this binary may run concurrently while the flag is
        // up, so only assert lower bounds, not exact counts.
        let cells = report.result.cells.len() as u64;
        assert!(report.metrics.counter("sweep.cells") >= 3 * cells);
        assert!(report.metrics.counter("sweep.rounds") >= 3);
        assert!(
            report.metrics.counter("sweep.replications")
                >= (report.fixed_replications + report.adaptive_replications) as u64
        );
    }
}
