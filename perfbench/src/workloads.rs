//! The three workloads, end to end with tracing off: each measures its
//! fixed job for the run's time budget and checks every output.

use crate::experiments::{self, Plan, STAGES};
use crate::report::{nproc, peak_rss_mb, Inject, Outcome};
use crate::serve::{self, Checker, Mix, PhaseStats, Server};
use crate::stats::{
    interleaved_median, median, percentile, secs, timed, undisturbed, StealMeter, DISTURBED,
};
use crate::sweep::{self, Grid};
use dck_sim::SweepResult;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `setup_s` on experiments and paper-sweep, and `wall_s` on serve-mix,
/// are the median of [`BATCHES`] batch means of samples spread over the
/// whole run, each batch taking every `BATCHES`-th sample (see
/// [`interleaved_median`]). On a shared host the cost of a system call
/// flips between two levels about 1.7× apart every second or so; a
/// batch that spans the run averages over both, where the median of
/// single samples falls on either.
const BATCHES: usize = 5;
/// An `experiments` set-up sample is the median of this many set-ups
/// back to back (one takes microseconds, and the first of a row finds
/// cold caches), taken once before the first pass and after every
/// stage, so that the samples spread over the whole run.
const EXPERIMENTS_ROW: usize = 21;
/// `paper-sweep` set-ups timed before the first pass; one more is timed
/// after every pass.
const SWEEP_SETUPS: usize = 5;
/// `serve-mix` server set-ups timed before the first round and after
/// each round of batch and segment. The first of each group reads about
/// twice the others (it follows the round's traffic), and one in a few
/// dozen stalls for milliseconds, so serve-mix `setup_s` is the median
/// of all of them, not a mean.
const SERVE_SETUPS: usize = 4;

/// Run parameters shared by every workload.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// Self-test fault, if any.
    pub inject: Option<Inject>,
}

/// Runs `pass` while the budget lasts (at least once) and, past it, up
/// to 1.5 times the budget until [`MIN_CLEAN`] passes ran undisturbed by
/// the hypervisor. Returns the undisturbed passes (every pass when none
/// was) and how many were discarded.
fn passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> (Vec<T>, usize) {
    const MIN_CLEAN: usize = 2;
    let t0 = Instant::now();
    let (mut clean, mut all) = (Vec::new(), Vec::new());
    while all.len() + clean.len() == 0
        || secs(t0) < seconds
        || (clean.len() < MIN_CLEAN && secs(t0) < 1.5 * seconds)
    {
        let meter = StealMeter::start();
        let p = pass();
        if meter.share() <= DISTURBED {
            &mut clean
        } else {
            &mut all
        }
        .push(p);
    }
    let discarded = all.len();
    if clean.is_empty() {
        (all, 0)
    } else {
        (clean, discarded)
    }
}

/// Records `setup_s` as `value`, the statistic of `samples` the
/// workload uses, and notes their range.
fn setup_metric(out: &mut Outcome, value: f64, samples: &[f64]) {
    out.metric("setup_s", value, "s", samples.len());
    out.note(format!(
        "setup_s: {} samples, min {:.4e} s, p25 {:.4e} s, p75 {:.4e} s, max {:.4e} s",
        samples.len(),
        percentile(samples, 0.0),
        percentile(samples, 0.25),
        percentile(samples, 0.75),
        percentile(samples, 1.0)
    ));
}

// ---------------------------------------------------------------- experiments

/// The stage plans of `run`, writing into a fresh output directory.
pub fn experiments_plan(run: &Run) -> Result<Plan, String> {
    let mut plan = Plan::new(run.seed, &run.work.join("experiments"))?;
    if run.inject == Some(Inject::Wrong) {
        plan.expect_engines_identical = false;
    }
    Ok(plan)
}

/// Times [`EXPERIMENTS_ROW`] set-ups into one output directory and
/// returns their median: stage plans resolved and the directory
/// created (the first time) or found, as a rerun of `dck-experiments`
/// into an existing `--out` does.
fn experiments_setup(run: &Run) -> Result<f64, String> {
    let dir = run.work.join("setup");
    let row = (0..EXPERIMENTS_ROW)
        .map(|_| {
            let (r, s) = timed(|| Plan::new(run.seed, &dir));
            r.map(|_| s)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&row))
}

/// `experiments`: full passes over the 16 stages while the budget
/// lasts (at least one), a set-up sample taken after every stage.
pub fn experiments(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = experiments_plan(run)?;
    let mut setups = vec![experiments_setup(run)];
    let (kept, discarded) = passes(run.seconds, || {
        let pass = experiments::pass(&plan, &STAGES, || setups.push(experiments_setup(run)));
        out.attempted += STAGES.len() as u64;
        out.failures.extend(pass.failures.iter().cloned());
        pass
    });
    if run.inject == Some(Inject::Refuse) {
        out.attempted += 1;
        if let Err(e) = plan.run_stage("no-such-stage") {
            out.failures.push(e);
        }
    }
    let setups = setups.into_iter().collect::<Result<Vec<f64>, String>>()?;
    setup_metric(&mut out, interleaved_median(&setups, BATCHES), &setups);
    let walls: Vec<f64> = kept.iter().map(|p| p.wall_s).collect();
    out.metric("wall_s", median(&walls), "s", walls.len());
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    out.note(format!(
        "experiments: validate put model points outside their statistical tolerance in {} of its runs (reported, not counted as failures)",
        plan.outside_tolerance.get()
    ));
    out.note(format!(
        "experiments: {} passes kept, {discarded} discarded for host steal",
        walls.len(),
    ));
    Ok(out)
}

// ---------------------------------------------------------------- paper-sweep

/// One timed `paper-sweep` set-up: the grids built, every cell's plan
/// resolved (optimal period and run machinery) and snapshot root `k`
/// created. Returns the grids, the root and the seconds it took.
fn sweep_setup_once(run: &Run, k: usize) -> Result<(Vec<Grid>, PathBuf, f64), String> {
    let root = run.work.join(format!("snapshots-{k}"));
    let (r, s) = timed(|| {
        let grids = sweep::grids(run.seed);
        let resolved = sweep::resolve_plans(&grids);
        fs::create_dir_all(&root).map(|()| (grids, resolved))
    });
    let (grids, resolved) = r.map_err(|e| format!("{}: {e}", root.display()))?;
    if resolved != grids.len() * sweep::MTBFS.len() * sweep::PHI_RATIOS.len() {
        return Err(format!("only {resolved} cells resolve to a plan"));
    }
    Ok((grids, root, s))
}

/// Runs [`SWEEP_SETUPS`] set-ups and returns the last one's grids and
/// snapshot root with every set-up's seconds.
pub fn sweep_setup(run: &Run) -> Result<(Vec<Grid>, PathBuf, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SWEEP_SETUPS {
        let (grids, root, s) = sweep_setup_once(run, k)?;
        times.push(s);
        last = Some((grids, root));
    }
    let (mut grids, root) = last.ok_or("no set-up ran")?;
    if run.inject == Some(Inject::Refuse) {
        // φ/R outside [0, 1]: the sweep must refuse it.
        grids[0].spec.phi_ratios[0] = 1.5;
    }
    Ok((grids, root, times))
}

/// The uninterrupted reference of every grid: results, walls and the
/// round each crash-safe run pauses after (half the rounds).
pub struct References {
    /// One result per grid (`None` when the sweep refused the spec).
    pub results: Vec<Option<SweepResult>>,
    /// Wall seconds per grid.
    pub walls: Vec<f64>,
    /// Rounds per grid.
    pub rounds: Vec<u64>,
}

impl References {
    /// Runs every grid once without checkpoints.
    pub fn of(grids: &[Grid], inject: Option<Inject>) -> References {
        let mut refs = References {
            results: Vec::new(),
            walls: Vec::new(),
            rounds: Vec::new(),
        };
        for g in grids {
            match sweep::uninterrupted(&g.spec) {
                Ok((mut r, w)) => {
                    if inject == Some(Inject::Wrong) && refs.results.is_empty() {
                        if let Some(x) = r.cells[0].sim_waste.as_mut() {
                            *x = f64::from_bits(x.to_bits() ^ 1);
                        }
                    }
                    refs.rounds.push(sweep::rounds_of(&r));
                    refs.walls.push(w);
                    refs.results.push(Some(r));
                }
                Err(_) => {
                    refs.rounds.push(2);
                    refs.walls.push(0.0);
                    refs.results.push(None);
                }
            }
        }
        refs
    }

    /// The round grid `i` pauses after.
    pub fn pause_after(&self, i: usize) -> u64 {
        (self.rounds[i] / 2).max(1)
    }
}

/// One crash-safe pass over every grid.
pub struct SweepPass {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Wall seconds per grid.
    pub grid_s: Vec<f64>,
    /// `validate_snapshot` plus resume, seconds per grid.
    pub resume_s: Vec<f64>,
    /// Bytes of the snapshot resumed from, per grid.
    pub snapshot_bytes: Vec<u64>,
    /// Replications the pass ran.
    pub reps: usize,
    /// Operations: one per cell compared plus one per resume.
    pub attempted: u64,
    /// Failure messages.
    pub failures: Vec<String>,
}

/// Runs every grid crash-safe into `dir`, compares each resumed result
/// with its reference bit for bit, and removes the snapshots.
pub fn sweep_pass(grids: &[Grid], refs: &References, dir: &Path) -> SweepPass {
    let mut pass = SweepPass {
        wall_s: 0.0,
        grid_s: Vec::new(),
        resume_s: Vec::new(),
        snapshot_bytes: Vec::new(),
        reps: 0,
        attempted: 0,
        failures: Vec::new(),
    };
    let t0 = Instant::now();
    for (i, g) in grids.iter().enumerate() {
        let gdir = dir.join(format!("grid-{i}"));
        let run = sweep::crash_safe(&g.spec, &gdir, refs.pause_after(i));
        pass.grid_s.push(run.wall_s);
        pass.resume_s.push(run.resume_s);
        pass.snapshot_bytes.push(run.snapshot_bytes);
        pass.attempted += 1 + (sweep::MTBFS.len() * sweep::PHI_RATIOS.len()) as u64;
        pass.failures
            .extend(run.errors.iter().map(|e| format!("{}: {e}", g.name)));
        match (&run.result, &refs.results[i]) {
            (Some(r), Some(reference)) => {
                pass.reps += r.total_replications_run();
                let bad = sweep::mismatched_cells(r, reference);
                pass.failures.extend(
                    bad.iter().map(|c| {
                        format!("{}: cell {c} differs from the uninterrupted sweep", g.name)
                    }),
                );
            }
            (None, _) => {}
            (Some(_), None) => pass
                .failures
                .push(format!("{}: resumed a sweep the reference refused", g.name)),
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    let _ = fs::remove_dir_all(dir);
    pass
}

/// `paper-sweep`: crash-safe passes over the six grids while the
/// budget lasts (at least one).
pub fn paper_sweep(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (grids, root, first) = sweep_setup(run)?;
    let mut setups: Vec<Result<f64, String>> = first.into_iter().map(Ok).collect();
    let refs = References::of(&grids, run.inject);
    let mut k = 0;
    let (kept, discarded) = passes(run.seconds, || {
        k += 1;
        let pass = sweep_pass(&grids, &refs, &root.join(format!("pass-{k}")));
        out.attempted += pass.attempted;
        out.failures.extend(pass.failures.iter().cloned());
        let again = sweep_setup_once(run, SWEEP_SETUPS + k);
        setups.push(again.map(|(_, dir, s)| {
            let _ = fs::remove_dir_all(dir);
            s
        }));
        pass
    });
    let setups = setups.into_iter().collect::<Result<Vec<f64>, String>>()?;
    let walls: Vec<f64> = kept.iter().map(|p| p.wall_s).collect();
    let _ = fs::remove_dir_all(&root);
    setup_metric(&mut out, interleaved_median(&setups, BATCHES), &setups);
    out.metric("wall_s", median(&walls), "s", walls.len());
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    out.note(format!(
        "paper-sweep: {} crash-safe passes of {} grids kept, {discarded} discarded for host steal",
        walls.len(),
        grids.len()
    ));
    Ok(out)
}

// ---------------------------------------------------------------- serve-mix

/// Requests in the closed-loop batch whose wall is `wall_s`.
pub const BATCH_REQUESTS: usize = 4_000;
/// Closed-loop requests that warm the cell cache before anything is
/// timed.
pub const WARM_REQUESTS: usize = 10_000;
/// Offered rates of the two fixed open-loop phases, requests per
/// second, chosen below the knee measured on a 2-core host.
pub const RATE_LO: f64 = 2_000.0;
/// See [`RATE_LO`].
pub const RATE_HI: f64 = 4_000.0;
/// Exact comparisons: every n-th reply.
pub const SAMPLE_EVERY: usize = 25;

/// Connections (and generator threads): as many as `dck serve` starts
/// workers (one per core, clamped to 2..=8). Each worker serves one
/// connection at a time, so this lets every worker have a request in
/// flight and hits overlap misses on the server, and leaves no
/// connection waiting for a worker.
pub fn connections() -> usize {
    nproc().clamp(2, 8)
}

/// Times [`SERVE_SETUPS`] server set-ups into `times`, each from bind
/// until the first `ping` is answered, stopping each server again.
fn serve_setups(times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SERVE_SETUPS {
        let (srv, s) = Server::start()?;
        srv.stop()?;
        times.push(s);
    }
    Ok(())
}

/// One closed-loop batch: its wall, requests and samples.
pub struct Batch {
    /// Wall seconds until the last reply.
    pub wall_s: f64,
    /// The requests sent.
    pub reqs: Vec<serve::Req>,
    /// Their samples.
    pub samples: Vec<serve::Sample>,
}

/// Sends `n` requests back to back over every connection and checks
/// the replies.
pub fn closed_loop(
    srv: &Server,
    mix: &Mix,
    seed: u64,
    n: usize,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Batch {
    let reqs = mix.requests(seed, n);
    let (samples, wall_s) = serve::drive(srv.addr, &reqs, None, connections());
    out.attempted += reqs.len() as u64;
    out.failures.extend(checker.check(&reqs, &samples));
    Batch {
        wall_s,
        reqs,
        samples,
    }
}

/// Runs one open-loop phase at `rate` for `seconds`, checks every
/// reply, and returns its stats, samples and requests.
#[allow(clippy::too_many_arguments)]
pub fn open_phase(
    srv: &Server,
    mix: &Mix,
    seed: u64,
    rate: f64,
    seconds: f64,
    checker: &mut Checker,
    out: &mut Outcome,
    refuse_one: bool,
) -> (PhaseStats, Vec<serve::Sample>, Vec<serve::Req>) {
    let n = ((rate * seconds) as usize).max(serve::WINDOW);
    let mut reqs = mix.requests(seed, n);
    if refuse_one {
        reqs[n / 2].line = serve::request_line((n / 2) as u64, "no_such_method", serde::Map::new());
    }
    let due = serve::poisson_schedule(seed ^ 0xD0E, rate, n);
    let (samples, _) = serve::drive(srv.addr, &reqs, Some(&due), connections());
    out.attempted += reqs.len() as u64;
    out.failures.extend(checker.check(&reqs, &samples));
    (PhaseStats::of(rate, &samples), samples, reqs)
}

/// `max_rps`: the highest offered rate whose phase meets the p99 limit
/// without a growing backlog, by bisection between three times `hi`
/// (below the knee, taken as met) and twelve times `hi` (past it, taken
/// as failed), [`BISECTIONS`] steps. A rate fails only when it fails
/// twice in a row (one failure may be a stall of the host). The search
/// stops early, keeping the best rate met so far, once it has spent
/// `budget_s`.
pub fn max_rps(
    srv: &Server,
    mix: &Mix,
    seed: u64,
    probe_s: f64,
    budget_s: f64,
    checker: &mut Checker,
    out: &mut Outcome,
) -> (f64, Vec<PhaseStats>) {
    const BISECTIONS: usize = 6;
    let t0 = Instant::now();
    let mut phases = Vec::new();
    let mut k = 0u64;
    let mut holds = |rate: f64, out: &mut Outcome| {
        (0..2).any(|_| {
            k += 1;
            let ((ps, _, _), _, _) = undisturbed(1, |attempt| {
                open_phase(
                    srv,
                    mix,
                    seed ^ (k << 20) ^ (attempt << 40),
                    rate,
                    probe_s,
                    checker,
                    out,
                    false,
                )
            });
            let ok = ps.sustained();
            phases.push(ps);
            ok
        })
    };
    let (mut good, mut bad) = (3.0 * RATE_HI, 12.0 * RATE_HI);
    for _ in 0..BISECTIONS {
        if secs(t0) >= budget_s {
            break;
        }
        let mid = (good + bad) / 2.0;
        if holds(mid, out) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    (good, phases)
}

/// `serve-mix`: after a closed-loop warm-up, rounds of two closed-loop
/// batches around an open-loop segment, at `lo` and `hi` in turn, while
/// the budget lasts (at least `MIN_ROUNDS`), so that a disturbance of
/// the host touches only some samples of each figure. A batch or
/// segment disturbed by host steal is measured again only within the
/// budget, which bounds the run's length. Server set-ups are timed
/// before the first round and after each round.
///
/// The open-loop latencies at `lo` and `hi` are printed by name and
/// unit but are not end-to-end metrics of the result: on a 2-core
/// shared host they swing by several times between runs of the same
/// code (the p99 with how Exa misses queue behind each other, the p50
/// with the host's wake-up latency), far past any regression bound.
/// `max_rps` is searched for in the traced run, not here: its probes
/// past the knee hold request and reply buffers whose size depends on
/// where the search goes, and would set the process's peak RSS. The
/// traced run reports all five as per-layer metrics.
pub fn serve_mix(run: &Run) -> Result<Outcome, String> {
    const MIN_ROUNDS: u64 = 10;
    let mut out = Outcome::default();
    let mix = Mix::new(run.seed);
    let mut checker = Checker::new(SAMPLE_EVERY);
    checker.inject_wrong = run.inject == Some(Inject::Wrong);
    let mut setups = Vec::new();
    serve_setups(&mut setups)?;
    let (srv, _) = Server::start()?;
    closed_loop(
        &srv,
        &mix,
        run.seed ^ 0x3A73,
        WARM_REQUESTS,
        &mut checker,
        &mut out,
    );
    // Whole 1 000-request windows at both rates on a 25-second run.
    let segment_s = 0.02 * run.seconds;
    let (mut walls, mut lo, mut hi) = (Vec::new(), Vec::new(), Vec::new());
    let mut discarded = 0;
    let t0 = Instant::now();
    let mut k = 0u64;
    while k < MIN_ROUNDS || secs(t0) < run.seconds {
        let retries = if secs(t0) < run.seconds { 2 } else { 0 };
        let batch = |b: u64, out: &mut Outcome, checker: &mut Checker| {
            let (batch, _, d) = undisturbed(retries, |attempt| {
                closed_loop(
                    &srv,
                    &mix,
                    run.seed ^ (2 * k + b + 1) ^ (attempt << 40),
                    BATCH_REQUESTS,
                    checker,
                    out,
                )
            });
            (batch.wall_s, d)
        };
        let (wall, d) = batch(0, &mut out, &mut checker);
        walls.push(wall);
        discarded += d;
        let (rate, phases, salt) = if k.is_multiple_of(2) {
            (RATE_LO, &mut lo, 0x10)
        } else {
            (RATE_HI, &mut hi, 0x20)
        };
        let refuse = k == 0 && run.inject == Some(Inject::Refuse);
        let seed = run.seed ^ (salt << 8 | k);
        let ((ps, _, _), _, d) = undisturbed(retries, |attempt| {
            open_phase(
                &srv,
                &mix,
                seed ^ (attempt << 40),
                rate,
                segment_s,
                &mut checker,
                &mut out,
                refuse,
            )
        });
        phases.push(ps);
        discarded += d;
        let (wall, d) = batch(1, &mut out, &mut checker);
        walls.push(wall);
        discarded += d;
        serve_setups(&mut setups)?;
        k += 1;
    }
    let (lo, hi) = (PhaseStats::join(&lo), PhaseStats::join(&hi));
    let summary = srv.stop()?;
    if summary.worker_panics > 0 {
        out.failures
            .push(format!("{} worker panics", summary.worker_panics));
    }
    for ps in [&lo, &hi] {
        if ps.lag_p99_ms > serve::LAG_LIMIT_MS {
            return Err(format!(
                "invalid run: the generator ran {:.3} ms late at p99 at {} req/s (limit {} ms); not reported as slow",
                ps.lag_p99_ms,
                ps.rate,
                serve::LAG_LIMIT_MS
            ));
        }
    }
    setup_metric(&mut out, median(&setups), &setups);
    out.metric(
        "wall_s",
        interleaved_median(&walls, BATCHES),
        "s",
        walls.len(),
    );
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    for (name, p) in [("lo", &lo), ("hi", &hi)] {
        out.note(format!(
            "p50_ms.{name} {:.6} ms, p99_ms.{name} {:.6} ms (n={}; printed, not gated: see the README)",
            p.p50_ms, p.p99_ms, p.sent
        ));
    }
    out.note(format!(
        "serve-mix: open loop over {} connections; lo = {RATE_LO} req/s, hi = {RATE_HI} req/s, {} segments of {:.2} s at each, latency from the due time, p99 = median of the p99s of {}-request windows; generator lag p99 {:.3} / {:.3} ms (limit {} ms)",
        connections(),
        hi.window_p99_ms.len() / 2,
        segment_s,
        serve::WINDOW,
        lo.lag_p99_ms,
        hi.lag_p99_ms,
        serve::LAG_LIMIT_MS
    ));
    out.note(format!(
        "serve-mix: wall_s = closed loop, {BATCH_REQUESTS} requests after a {WARM_REQUESTS}-request warm-up, median of {BATCHES} interleaved batch means of {} ({k} rounds); setup_s = median of {} server starts; {discarded} batches or segments measured again for host steal; hit ratio {:.3} over the run; {} replies compared byte for byte",
        walls.len(),
        setups.len(),
        serve::hit_ratio(&summary),
        checker.compared
    ));
    out.note(format!("serve-mix: batch walls {walls:.4?} s"));
    let us: Vec<f64> = setups.iter().map(|s| 1e6 * s).collect();
    out.note(format!("serve-mix: set-ups {us:.0?} us"));
    for (name, p) in [("lo", &lo), ("hi", &hi)] {
        out.note(format!(
            "{name} phase: {} window p99s {:.3?} ms, median {:.3} ms",
            p.window_p99_ms.len(),
            p.window_p99_ms,
            p.p99_ms
        ));
    }
    Ok(out)
}
