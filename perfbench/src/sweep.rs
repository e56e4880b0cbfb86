//! The `paper-sweep` workload: crash-safe paper-scale sweeps, run the
//! way `dck sweep --checkpoint` runs them — a snapshot every round, a
//! pause halfway through (`max_rounds`), and a resume from the newest
//! snapshot.

use crate::stats::SplitMix64;
use dck_core::{optimal_period, Protocol, Scenario};
use dck_sim::{
    run_sweep, run_sweep_with_checkpoint, validate_snapshot, EarlyStop, PeriodChoice, RunConfig,
    SweepCheckpoint, SweepResult, SweepSpec,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `φ/R` axis of every grid.
pub const PHI_RATIOS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// MTBF axis of every grid: 30 min, 1 h, 2 h, 4 h, 7 h, 1 day.
pub const MTBFS: [f64; 6] = [1_800.0, 3_600.0, 7_200.0, 14_400.0, 25_200.0, 86_400.0];
/// Protocols swept on each scenario.
pub const PROTOCOLS: [Protocol; 3] = [Protocol::DoubleNbl, Protocol::DoubleBof, Protocol::Triple];
/// Replication budget per cell.
pub const BUDGET: usize = 192;
/// Early-stopping target on the 95% half-width of a cell's mean waste.
pub const TARGET_HALF_WIDTH: f64 = 0.002;
/// Replications per early-stopping round (a multiple of the sweep's
/// 8-replication chunk).
pub const BATCH: usize = 32;
/// Replications per chunk of the sweep engine's pool (`REP_CHUNK` in
/// `dck-sim`): the unit the pool dispatches.
pub const CHUNK: usize = 8;

/// One grid of the workload.
pub struct Grid {
    /// `<scenario>/<protocol>`.
    pub name: String,
    /// `true` for the Exa scenario.
    pub exa: bool,
    /// The sweep specification.
    pub spec: SweepSpec,
}

/// Base and Exa × the three protocols, each with its own seed drawn
/// from the benchmark seed.
pub fn grids(seed: u64) -> Vec<Grid> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for (scenario, exa) in [(Scenario::base(), false), (Scenario::exa(), true)] {
        for protocol in PROTOCOLS {
            let mut spec = SweepSpec::new(
                protocol,
                scenario.params,
                PHI_RATIOS.to_vec(),
                MTBFS.to_vec(),
            );
            spec.replications = BUDGET;
            spec.seed = rng.next_u64();
            spec.early_stop = Some(EarlyStop {
                target_half_width: TARGET_HALF_WIDTH,
                min_replications: BATCH,
                batch: BATCH,
            });
            out.push(Grid {
                name: format!("{}/{}", scenario.name, protocol.id()),
                exa,
                spec,
            });
        }
    }
    out
}

/// Plan resolution, done from outside the way the sweep resolves a
/// cell: its optimal period, then the run machinery (schedule, failure
/// response, risk tracker) at that period. Returns how many cells
/// resolved.
pub fn resolve_plans(grids: &[Grid]) -> usize {
    let mut resolved = 0;
    for g in grids {
        let p = g.spec.params;
        for &mtbf in &g.spec.mtbfs {
            for &ratio in &g.spec.phi_ratios {
                // The sweep's own φ/R convention: φ = ratio · θmin.
                let phi = ratio * p.theta_min;
                let Ok(opt) = optimal_period(g.spec.protocol, &p, phi, mtbf) else {
                    continue;
                };
                let mut cfg = RunConfig::new(g.spec.protocol, p, phi, mtbf);
                cfg.period = PeriodChoice::Explicit(opt.period);
                if cfg.build().is_ok() {
                    resolved += 1;
                }
            }
        }
    }
    resolved
}

/// Rounds an uninterrupted run of `result` took: the longest cell.
pub fn rounds_of(result: &SweepResult) -> u64 {
    result
        .cells
        .iter()
        .map(|c| c.replications_run.div_ceil(BATCH) as u64)
        .max()
        .unwrap_or(0)
}

/// Indices of the cells where `a` and `b` differ in any bit (every
/// cell when the grids differ in shape).
pub fn mismatched_cells(a: &SweepResult, b: &SweepResult) -> Vec<usize> {
    if a.cells.len() != b.cells.len() {
        return (0..a.cells.len().max(b.cells.len())).collect();
    }
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    a.cells
        .iter()
        .zip(&b.cells)
        .enumerate()
        .filter(|(_, (x, y))| {
            x.period.to_bits() != y.period.to_bits()
                || x.model_waste.to_bits() != y.model_waste.to_bits()
                || bits(x.sim_waste) != bits(y.sim_waste)
                || bits(x.half_width) != bits(y.half_width)
                || (x.completed, x.fatal, x.truncated, x.replications_run)
                    != (y.completed, y.fatal, y.truncated, y.replications_run)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Newest snapshot file in `dir`, by name (names embed the round).
pub fn newest_snapshot(dir: &Path) -> Option<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dckpt"))
        .collect();
    files.sort();
    files.pop()
}

/// What one crash-safe run of a grid did.
pub struct CrashSafeRun {
    /// The resumed run's result.
    pub result: Option<SweepResult>,
    /// Wall seconds of the paused run plus the resume.
    pub wall_s: f64,
    /// Seconds of the `validate_snapshot` check plus the resume call.
    pub resume_s: f64,
    /// Snapshots on disk after the pause (the newest is resumed from).
    pub snapshot_bytes: u64,
    /// Failures: a missing pause, an invalid snapshot, a failed resume.
    pub errors: Vec<String>,
}

/// Runs `spec` with a snapshot every round into `dir`, pauses after
/// `pause_after` rounds, checks the newest snapshot, and resumes.
pub fn crash_safe(spec: &SweepSpec, dir: &Path, pause_after: u64) -> CrashSafeRun {
    let mut errors = Vec::new();
    let t0 = Instant::now();
    let mut ckpt = SweepCheckpoint::new(dir);
    ckpt.max_rounds = Some(pause_after);
    if run_sweep_with_checkpoint(spec, Some(&ckpt)).is_ok() {
        errors.push(format!("no pause after {pause_after} rounds"));
    }
    let tr = Instant::now();
    let mut snapshot_bytes = 0;
    match newest_snapshot(dir) {
        Some(path) => {
            snapshot_bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            match validate_snapshot(&path) {
                Ok(info) if info.rounds_done == pause_after => {}
                Ok(info) => errors.push(format!(
                    "snapshot at round {} after pausing at {pause_after}",
                    info.rounds_done
                )),
                Err(e) => errors.push(format!("invalid snapshot: {e}")),
            }
        }
        None => errors.push("no snapshot written".to_string()),
    }
    ckpt.max_rounds = None;
    ckpt.resume = true;
    let result = match run_sweep_with_checkpoint(spec, Some(&ckpt)) {
        Ok(r) => Some(r),
        Err(e) => {
            errors.push(format!("resume failed: {e}"));
            None
        }
    };
    CrashSafeRun {
        result,
        wall_s: t0.elapsed().as_secs_f64(),
        resume_s: tr.elapsed().as_secs_f64(),
        snapshot_bytes,
        errors,
    }
}

/// The uninterrupted reference run of a grid, with its wall time.
pub fn uninterrupted(spec: &SweepSpec) -> Result<(SweepResult, f64), String> {
    let t0 = Instant::now();
    let r = run_sweep(spec).map_err(|e| e.to_string())?;
    Ok((r, t0.elapsed().as_secs_f64()))
}
