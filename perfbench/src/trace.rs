//! The traced run: a traced pass of every workload with spans around
//! each call into a layer, the per-layer probes, and the reconciliation
//! of count × cost by layer against each workload's measured wall.
//!
//! Spans are recorded by the benchmark around the calls it makes; the
//! program itself carries no tracing. The traced run also times
//! untraced passes of the named workload, alternated with traced ones
//! on the same inputs, for `trace.overhead`.

use crate::experiments::{self, SIMULATING, STAGES};
use crate::layers::{self, CaseCost};
use crate::report::{nproc, Outcome};
use crate::serve::{self, Checker, Kind, Mix, Server};
use crate::stats::{median, percentile, timed};
use crate::sweep::{self, BUDGET, CHUNK};
use crate::workloads::{self, connections, open_phase, Run, RATE_HI, RATE_LO};
use dck_core::Scenario;
use dck_sim::run_sweep;
use serde::Value;
use std::fs;

/// One row of a reconciliation table.
struct Row {
    layer: &'static str,
    what: String,
    count: f64,
    unit_s: f64,
    /// Parallel width the work is spread over (1 = serial).
    width: f64,
}

/// Shorthand for a [`Row`].
fn row(layer: &'static str, what: impl Into<String>, count: f64, unit_s: f64, width: f64) -> Row {
    Row {
        layer,
        what: what.into(),
        count,
        unit_s,
        width,
    }
}

impl Row {
    fn wall_s(&self) -> f64 {
        self.count * self.unit_s / self.width
    }
}

/// Renders a table, records its residual share, and returns it.
fn reconcile(out: &mut Outcome, workload: &str, wall: f64, rows: &[Row]) -> f64 {
    out.note(format!("reconciliation: {workload} (wall {wall:.4} s)"));
    out.note(format!(
        "  {:<10} {:<44} {:>12} {:>14} {:>7} {:>10}",
        "layer", "operation", "count", "cost/op (s)", "width", "wall (s)"
    ));
    let mut explained = 0.0;
    for r in rows {
        explained += r.wall_s();
        out.note(format!(
            "  {:<10} {:<44} {:>12.0} {:>14.3e} {:>7.2} {:>10.4}",
            r.layer,
            r.what,
            r.count,
            r.unit_s,
            r.width,
            r.wall_s()
        ));
    }
    let residual = wall - explained;
    out.note(format!(
        "  {:<10} {:<44} {:>12} {:>14} {:>7} {:>10.4}  ({:+.1}% of wall)",
        "residual",
        "unexplained",
        "",
        "",
        "",
        residual,
        100.0 * residual / wall
    ));
    residual / wall
}

/// Runs the traced passes and probes; `workload` names the workload
/// whose tracing overhead is reported.
pub fn traced(workload: &str, run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // --- probes: per-operation costs of every layer --------------------
    let (speedup, units) = par_speedup(run)?;
    out.metric("par.speedup", speedup, "ratio", 1);
    out.metric("par.efficiency", speedup / nproc() as f64, "ratio", 1);
    out.metric("par.units", units as f64, "count", 1);

    let mut base = layers::probe(&layers::sweep_case(false), 24, run.seed)?;
    let mut exa = layers::probe(&layers::sweep_case(true), 24, run.seed)?;
    // Executor self time per replication of a sweep cell: its cost per
    // failure event, measured on a long horizon where it stands above
    // the machinery build's noise, times the events of a cell's
    // replication.
    for (c, exa) in [(&mut base, false), (&mut exa, true)] {
        let long = layers::probe(&layers::executor_case(exa), 12, run.seed)?;
        c.exec_s = long.exec_per_event_s * c.draws_per_rep;
    }
    let robustness: Vec<(String, CaseCost, usize)> = layers::robustness_cases()
        .into_iter()
        .map(|(case, reps)| layers::probe(&case, 3, run.seed).map(|c| (case.label, c, reps)))
        .collect::<Result<_, _>>()?;
    let renewal = |warm: bool| -> Vec<&CaseCost> {
        robustness
            .iter()
            .filter(|(l, _, _)| l.starts_with("risk/") && !l.ends_with("/exponential"))
            .filter(|(l, _, _)| l.ends_with("_warm") == warm)
            .map(|(_, c, _)| c)
            .collect()
    };
    let med = |cs: &[&CaseCost], f: fn(&CaseCost) -> f64| {
        median(&cs.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let fresh = renewal(false);
    let warm = renewal(true);
    let all_renewal: Vec<&CaseCost> = fresh.iter().chain(&warm).copied().collect();
    out.metric(
        "failures.build_us.exponential",
        1e6 * median(&[base.build_s, exa.build_s]),
        "us",
        base.reps + exa.reps,
    );
    out.metric(
        "failures.build_us.renewal",
        1e6 * med(&fresh, |c| c.build_s),
        "us",
        fresh.len() * 3,
    );
    out.metric(
        "failures.build_us.renewal_warm",
        1e6 * med(&warm, |c| c.build_s),
        "us",
        warm.len() * 3,
    );
    let draw_ns = |cs: &[&CaseCost]| {
        let (t, n) = cs.iter().fold((0.0, 0u64), |(t, n), c| {
            (t + c.draw_s * c.draws as f64, n + c.draws)
        });
        1e9 * t / n.max(1) as f64
    };
    out.metric(
        "failures.draw_ns.exponential",
        draw_ns(&[&base, &exa]),
        "ns",
        (base.draws + exa.draws) as usize,
    );
    out.metric(
        "failures.draw_ns.renewal",
        draw_ns(&all_renewal),
        "ns",
        all_renewal.iter().map(|c| c.draws as usize).sum(),
    );
    let draws: u64 =
        base.draws + exa.draws + robustness.iter().map(|(_, c, _)| c.draws).sum::<u64>();
    out.metric("failures.draws", draws as f64, "count", 1);

    let exa_nodes = Scenario::exa().params.nodes;
    let base_nodes = Scenario::base().params.nodes;
    out.metric(
        "protocols.tracker_new_us.base",
        1e6 * layers::tracker_new_s(base_nodes, 21)?,
        "us",
        21,
    );
    out.metric(
        "protocols.tracker_new_us.exa",
        1e6 * layers::tracker_new_s(exa_nodes, 21)?,
        "us",
        21,
    );
    out.metric(
        "protocols.record_failure_ns",
        1e9 * layers::record_failure_s(200_000, run.seed)?,
        "ns",
        200_000,
    );

    out.metric("sim.exec_us.base", 1e6 * base.exec_s, "us", 12);
    out.metric("sim.exec_us.exa", 1e6 * exa.exec_s, "us", 12);
    let probe_reps =
        base.reps + exa.reps + robustness.iter().map(|(_, c, _)| c.reps).sum::<usize>();
    out.metric("sim.reps", probe_reps as f64, "count", 1);
    out.metric(
        "sim.failures_per_rep",
        (base.failures_per_rep + exa.failures_per_rep) / 2.0,
        "count",
        base.reps + exa.reps,
    );
    out.metric(
        "sim.reps_per_s.w1",
        layers::reps_per_s_w1(512, run.seed)?,
        "1/s",
        512,
    );

    let (opt_s, waste_s, risk_s) = layers::core_costs();
    out.metric("core.optimal_period_us", 1e6 * opt_s, "us", 7);
    out.metric("core.waste_us", 1e6 * waste_s, "us", 7);
    out.metric("core.risk_us", 1e6 * risk_s, "us", 7);

    let mix = Mix::new(run.seed);
    let sc = layers::serve_costs(&mix, run.seed, 4_000)?;
    out.metric("serve.parse_us", 1e6 * sc.parse_s, "us", 5);
    out.metric("serve.encode_us", 1e6 * sc.encode_s, "us", 5);
    out.metric("serve.query_us.waste", 1e6 * sc.waste_s, "us", 5);
    out.metric("serve.query_us.risk", 1e6 * sc.risk_s, "us", 5);
    out.metric("serve.query_us.pstar", 1e6 * sc.pstar_s, "us", 5);
    out.metric("serve.cell_miss_ms.base", 1e3 * sc.miss_base_s, "ms", 15);
    out.metric("serve.cell_miss_ms.exa", 1e3 * sc.miss_exa_s, "ms", 15);

    // --- experiments, traced ------------------------------------------
    let plan = workloads::experiments_plan(run)?;
    let (pass, exp_overhead) = alternated(workload == "experiments", || {
        let pass = experiments::pass(&plan, &STAGES, || {});
        out.attempted += STAGES.len() as u64;
        out.failures.extend(pass.failures.iter().cloned());
        let wall = pass.wall_s;
        Ok((pass, wall))
    })?;
    for (stage, s) in STAGES.iter().zip(&pass.stage_s) {
        out.metric(format!("experiments.stage_s.{stage}"), *s, "s", 1);
    }
    let mut rows = Vec::new();
    let stage_sum = |pred: &dyn Fn(&str) -> bool| -> (f64, f64) {
        let picked: Vec<f64> = STAGES
            .iter()
            .zip(&pass.stage_s)
            .filter(|(s, _)| pred(s))
            .map(|(_, t)| *t)
            .collect();
        (
            picked.len() as f64,
            picked.iter().sum::<f64>() / picked.len().max(1) as f64,
        )
    };
    let (n, mean) = stage_sum(&|s| !SIMULATING.contains(&s));
    rows.push(row(
        "core",
        "model-only stages (measured spans)",
        n,
        mean,
        1.0,
    ));
    let (n, mean) = stage_sum(&|s| SIMULATING.contains(&s) && s != "robustness");
    rows.push(row(
        "sim",
        "small simulating stages (measured spans)",
        n,
        mean,
        1.0,
    ));
    // robustness: its replications by layer, from the probes of the
    // very operating points the stage runs, spread over the width the
    // pool reaches on its costliest point (warmed Weibull, full Base).
    let costliest = layers::robustness_cases()
        .into_iter()
        .map(|(case, _)| case)
        .find(|c| c.label == "risk/double-nbl/weibull_k0.7_warm")
        .ok_or("robustness case missing")?;
    let width = layers::mc_speedup(&costliest, 16, run.seed, nproc())?;
    let (
        mut builds,
        mut build_s,
        mut ndraws,
        mut draw_s,
        mut machines,
        mut machine_s,
        mut reps,
        mut exec_s,
    ) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (_, c, n) in &robustness {
        let n = *n as f64;
        builds += n;
        build_s += n * c.build_s;
        ndraws += n * c.draws_per_rep;
        draw_s += n * c.draws_per_rep * c.draw_s;
        let m = (n / CHUNK as f64).ceil() + 1.0;
        machines += m;
        machine_s += m * c.machine_s;
        reps += n;
        exec_s += n * c.exec_s;
    }
    rows.push(row(
        "failures",
        "robustness: source builds",
        builds,
        build_s / builds,
        width,
    ));
    rows.push(row(
        "failures",
        "robustness: failure draws",
        ndraws,
        draw_s / ndraws,
        width,
    ));
    rows.push(row(
        "protocols",
        "robustness: run machinery (per chunk)",
        machines,
        machine_s / machines,
        width,
    ));
    rows.push(row(
        "sim",
        "robustness: executor self time",
        reps,
        exec_s / reps,
        width,
    ));
    let exp_residual = reconcile(&mut out, "experiments", pass.wall_s, &rows);

    // --- paper-sweep, traced ------------------------------------------
    let (grids, root, _) = workloads::sweep_setup(run)?;
    let refs = workloads::References::of(&grids, None);
    let mut k = 0;
    let (sp, sweep_overhead) = alternated(workload == "paper-sweep", || {
        k += 1;
        let sp = workloads::sweep_pass(&grids, &refs, &root.join(format!("pass-{k}")));
        out.attempted += sp.attempted;
        out.failures.extend(sp.failures.iter().cloned());
        let wall = sp.wall_s;
        Ok((sp, wall))
    })?;
    let _ = fs::remove_dir_all(&root);
    let rounds: u64 = refs.rounds.iter().sum();
    let snapshots = rounds + grids.len() as u64;
    let overhead: f64 = sp.grid_s.iter().zip(&refs.walls).map(|(c, u)| c - u).sum();
    let cells = grids.len() * sweep::MTBFS.len() * sweep::PHI_RATIOS.len();
    let ref_reps: usize = refs
        .results
        .iter()
        .flatten()
        .map(|r| r.total_replications_run())
        .sum();
    out.metric("sweep.rounds", rounds as f64, "count", 1);
    out.metric("sweep.snapshots", snapshots as f64, "count", 1);
    out.metric(
        "sweep.snapshot_ms",
        1e3 * overhead / snapshots as f64,
        "ms",
        grids.len(),
    );
    out.metric(
        "sweep.snapshot_bytes",
        median(
            &sp.snapshot_bytes
                .iter()
                .map(|&b| b as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
        grids.len(),
    );
    out.metric(
        "sweep.resume_ms",
        1e3 * median(&sp.resume_s),
        "ms",
        grids.len(),
    );
    out.metric(
        "sweep.early_stop_saved",
        1.0 - ref_reps as f64 / (cells * BUDGET) as f64,
        "ratio",
        1,
    );
    let completed: usize = refs
        .results
        .iter()
        .flatten()
        .flat_map(|r| &r.cells)
        .map(|c| c.completed)
        .sum();
    out.metric(
        "sim.completed_ratio",
        completed as f64 / ref_reps as f64,
        "ratio",
        ref_reps,
    );
    let mut chunks = [0.0; 2];
    let mut scale_reps = [0.0; 2];
    for (g, r) in grids.iter().zip(&refs.results) {
        if let Some(r) = r {
            let k = usize::from(g.exa);
            scale_reps[k] += r.total_replications_run() as f64;
            chunks[k] += r
                .cells
                .iter()
                .map(|c| c.replications_run.div_ceil(CHUNK) as f64)
                .sum::<f64>();
        }
    }
    // Three grids per scale; the paused run and the resume each build
    // every cell's plan.
    let plans = 2.0 * (cells / 2) as f64;
    out.metric(
        "protocols.machines",
        chunks[0] + chunks[1] + 2.0 * plans,
        "count",
        1,
    );
    let mut rows = Vec::new();
    for (k, (name, c)) in [("Base", &base), ("Exa", &exa)].into_iter().enumerate() {
        rows.push(row(
            "core",
            format!("{name}: optimal period per plan"),
            plans,
            opt_s,
            1.0,
        ));
        rows.push(row(
            "protocols",
            format!("{name}: plan machinery"),
            plans,
            c.machine_s,
            1.0,
        ));
        rows.push(row(
            "protocols",
            format!("{name}: chunk machinery"),
            chunks[k],
            c.machine_s,
            speedup,
        ));
        rows.push(row(
            "failures",
            format!("{name}: exponential source builds"),
            scale_reps[k],
            c.build_s,
            speedup,
        ));
        rows.push(row(
            "failures",
            format!("{name}: exponential draws"),
            scale_reps[k] * c.draws_per_rep,
            c.draw_s,
            speedup,
        ));
        rows.push(row(
            "sim",
            format!("{name}: executor self time"),
            scale_reps[k],
            c.exec_s,
            speedup,
        ));
    }
    rows.push(row(
        "sweep",
        "snapshots, pause and resume (crash-safe − plain)",
        snapshots as f64,
        overhead / snapshots as f64,
        1.0,
    ));
    let sweep_residual = reconcile(&mut out, "paper-sweep", sp.wall_s, &rows);

    // --- serve-mix, traced --------------------------------------------
    // Every pass gets a fresh server warmed the same way, so that each
    // batch starts from the same cache; the first one's server goes on
    // to the open-loop phase.
    let mut checker = Checker::new(workloads::SAMPLE_EVERY);
    let mut kept = None;
    let (batch, serve_overhead) = alternated(workload == "serve-mix", || {
        let (srv, _) = Server::start()?;
        workloads::closed_loop(
            &srv,
            &mix,
            run.seed ^ 0x3A73,
            workloads::WARM_REQUESTS,
            &mut checker,
            &mut out,
        );
        let batch = workloads::closed_loop(
            &srv,
            &mix,
            run.seed ^ 1,
            workloads::BATCH_REQUESTS,
            &mut checker,
            &mut out,
        );
        if kept.is_none() {
            kept = Some(srv);
        } else {
            stopped(srv, &mut out)?;
        }
        let wall = batch.wall_s;
        Ok((batch, wall))
    })?;
    let srv = kept.ok_or("no serve pass ran")?;
    let count = |k: Kind| batch.reqs.iter().filter(|r| r.kind == k).count() as f64;
    let misses = |k: Kind| {
        batch
            .samples
            .iter()
            .filter(|s| batch.reqs[s.idx].kind == k)
            .filter(|s| {
                s.reply
                    .as_ref()
                    .ok()
                    .and_then(|r| serde_json::from_str::<Value>(r).ok())
                    .and_then(|v| {
                        v.get("ok")
                            .and_then(|ok| ok.get("cached"))
                            .and_then(Value::as_bool)
                    })
                    == Some(false)
            })
            .count() as f64
    };
    let width = connections() as f64;
    let rows = vec![
        row(
            "serve",
            "parse_request",
            batch.reqs.len() as f64,
            sc.parse_s,
            width,
        ),
        row(
            "serve",
            "ok_line",
            batch.reqs.len() as f64,
            sc.encode_s,
            width,
        ),
        row(
            "core",
            "waste queries",
            count(Kind::Waste),
            sc.waste_s,
            width,
        ),
        row("core", "risk queries", count(Kind::Risk), sc.risk_s, width),
        row(
            "core",
            "pstar queries",
            count(Kind::Pstar),
            sc.pstar_s,
            width,
        ),
        row(
            "sim",
            "Base cell misses",
            misses(Kind::CellBase),
            sc.miss_base_s,
            width,
        ),
        row(
            "sim",
            "Exa cell misses",
            misses(Kind::CellExa),
            sc.miss_exa_s,
            width,
        ),
    ];
    let serve_residual = reconcile(&mut out, "serve-mix", batch.wall_s, &rows);
    out.note("  (serve-mix residual: socket I/O, cache hits, the client and scheduling — not probed per layer)");
    let (ps, samples, reqs) = open_phase(
        &srv,
        &mix,
        run.seed ^ 0x10,
        RATE_LO,
        5.0,
        &mut checker,
        &mut out,
        false,
    );
    let (hi, _, _) = open_phase(
        &srv,
        &mix,
        run.seed ^ 0x20,
        RATE_HI,
        2.5,
        &mut checker,
        &mut out,
        false,
    );
    let (max_rps, probes) = workloads::max_rps(
        &srv,
        &mix,
        run.seed ^ 0x30,
        0.5,
        6.0,
        &mut checker,
        &mut out,
    );
    for p in &probes {
        out.note(format!(
            "max_rps probe {:>9.0} req/s: p99 {:>8.3} ms, backlog grew {}, {}",
            p.rate,
            p.p99_ms,
            p.backlog_grew,
            if p.sustained() {
                "ok"
            } else {
                "over the limit"
            }
        ));
    }
    let summary = stopped(srv, &mut out)?;
    let rtt = |analytic: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| reqs[s.idx].kind.analytic() == analytic)
            .map(serve::Sample::rtt_ms)
            .collect();
        (percentile(&v, 0.99), v.len())
    };
    out.metric(
        "serve.cache_hit_ratio",
        serve::hit_ratio(&summary),
        "ratio",
        (summary.cache_hits + summary.cache_misses) as usize,
    );
    let (a, na) = rtt(true);
    out.metric("serve.rtt_p99_ms.analytic", a, "ms", na);
    let (c, nc) = rtt(false);
    out.metric("serve.rtt_p99_ms.cell", c, "ms", nc);
    out.metric(
        "serve.worker_panics",
        summary.worker_panics as f64,
        "count",
        1,
    );
    out.metric("serve.max_rps", max_rps, "1/s", probes.len());
    out.metric("serve.p50_ms.lo", ps.p50_ms, "ms", ps.sent);
    out.metric("serve.p99_ms.lo", ps.p99_ms, "ms", ps.sent);
    out.metric("serve.p50_ms.hi", hi.p50_ms, "ms", hi.sent);
    out.metric("serve.p99_ms.hi", hi.p99_ms, "ms", hi.sent);
    out.metric(
        "loadgen.lag_p99_ms",
        ps.lag_p99_ms.max(hi.lag_p99_ms),
        "ms",
        ps.sent + hi.sent,
    );
    out.metric("loadgen.sent", (ps.sent + hi.sent) as f64, "count", 1);

    out.metric("reconcile.residual.experiments", exp_residual, "ratio", 1);
    out.metric("reconcile.residual.paper-sweep", sweep_residual, "ratio", 1);
    out.metric("reconcile.residual.serve-mix", serve_residual, "ratio", 1);
    let overhead = exp_overhead
        .or(sweep_overhead)
        .or(serve_overhead)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    out.metric("trace.overhead", overhead, "ratio", 4);
    Ok(out)
}

/// Runs `pass` (which returns its result and its wall) once, traced.
/// With `named` it then runs it untraced twice and traced once more,
/// on the same inputs, and returns beside the first traced result the
/// traced walls over the untraced walls. The order (traced, untraced,
/// untraced, traced) cancels a linear drift of the host. Both kinds run
/// the same calls — the benchmark's own spans are all the tracing there
/// is — so the ratio is about 1 by construction: it bounds the spans'
/// cost, within run-to-run noise.
fn alternated<T>(
    named: bool,
    mut pass: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, Option<f64>), String> {
    let (first, t1) = pass()?;
    if !named {
        return Ok((first, None));
    }
    let (_, u1) = pass()?;
    let (_, u2) = pass()?;
    let (_, t2) = pass()?;
    Ok((first, Some((t1 + t2) / (u1 + u2))))
}

/// Stops a server and returns its summary; each worker panic is a
/// failure.
fn stopped(srv: Server, out: &mut Outcome) -> Result<dck_serve::ServeSummary, String> {
    let summary = srv.stop()?;
    out.attempted += 1;
    if summary.worker_panics > 0 {
        out.failures
            .push(format!("{} worker panics", summary.worker_panics));
    }
    Ok(summary)
}

/// Wall of one Exa grid (uninterrupted) at one worker over its wall at
/// `nproc` workers, each the faster of two alternating runs, and the
/// chunks the pool dispatched.
fn par_speedup(run: &Run) -> Result<(f64, usize), String> {
    let mut spec = sweep::grids(run.seed)
        .into_iter()
        .find(|g| g.exa)
        .ok_or("no Exa grid")?
        .spec;
    let (mut t1, mut tn, mut units) = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..2 {
        for workers in [1, nproc()] {
            spec.workers = workers;
            let (r, t) = timed(|| run_sweep(&spec));
            let r = r.map_err(|e| e.to_string())?;
            if workers == 1 {
                t1 = t1.min(t);
                units = r
                    .cells
                    .iter()
                    .map(|c| c.replications_run.div_ceil(CHUNK))
                    .sum();
            } else {
                tn = tn.min(t);
            }
        }
    }
    Ok((t1 / tn, units))
}
