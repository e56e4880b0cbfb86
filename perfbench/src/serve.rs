//! The `serve-mix` workload: an in-process `dck_serve::serve` on an
//! ephemeral port, driven by an open-loop generator (independent users
//! arriving as a Poisson process) over as many connections as the
//! server has workers, so every worker can have a request in flight.
//!
//! The mix starts from the stock `dck loadgen` rotation (`waste`,
//! `risk`, `pstar`, `sweep_cell`: a quarter each) and its sweep-spec
//! shape (16 replications, 2 MTBFs of work). What the benchmark adds is
//! what the stock mix lacks: `sweep_cell` keys on Base and Exa specs,
//! Zipf-skewed over a key set larger than the server's cell cache, so
//! the hit ratio lies strictly between 0 and 1.

use crate::stats::{median, percentile, SplitMix64};
use dck_core::{Protocol, Scenario};
use dck_serve::queries::{self, SweepCellQuery};
use dck_serve::{ok_line, parse_request, serve, ServeConfig, ServeSummary};
use dck_sim::SweepSpec;
use serde::{Map, Serialize, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Cells the server caches (the `dck serve` default).
const CACHE_CELLS: usize = 256;
/// `sweep_cell` specs in the key set (30 cells each, 480 keys in all):
/// Base ones first, then Exa. Half and half is an assumption — no
/// measured traffic says how often Exa cells are asked for.
const BASE_SPECS: usize = 8;
const EXA_SPECS: usize = 8;
/// Zipf exponent of the key popularity: within the 0.64–0.83 that
/// Breslau et al. (INFOCOM 1999, "Web Caching and Zipf-like
/// Distributions") measured on web proxy traces, an assumption for
/// this server's traffic.
const ZIPF_S: f64 = 0.8;
/// Share of requests that are `sweep_cell` lookups: one method in four,
/// as in the stock loadgen rotation; the rest split evenly over
/// `waste`, `risk` and `pstar`.
const CELL_SHARE: f64 = 0.25;
/// Latency limit on the p99 (from the due time) that `max_rps` must
/// keep.
pub const P99_LIMIT_MS: f64 = 25.0;
/// A phase is invalid when the generator itself ran later than this
/// (p99 of its own lateness).
pub const LAG_LIMIT_MS: f64 = 10.0;
/// The analytic methods, in the order of [`Mix`]'s parameter pools.
const ANALYTIC: [(Kind, &str); 3] = [
    (Kind::Waste, "waste"),
    (Kind::Risk, "risk"),
    (Kind::Pstar, "pstar"),
];
const PHIS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const MTBFS: [f64; 6] = [1_800.0, 3_600.0, 7_200.0, 14_400.0, 25_200.0, 86_400.0];
const LIVES: [f64; 3] = [86_400.0, 7.0 * 86_400.0, 30.0 * 86_400.0];

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `waste` query.
    Waste,
    /// `risk` query.
    Risk,
    /// `pstar` query.
    Pstar,
    /// `sweep_cell` on a Base spec.
    CellBase,
    /// `sweep_cell` on an Exa spec.
    CellExa,
}

impl Kind {
    /// Analytic (model-only) query, as opposed to a cell lookup.
    pub fn analytic(self) -> bool {
        matches!(self, Kind::Waste | Kind::Risk | Kind::Pstar)
    }
}

/// One generated request line (no trailing newline) and its kind.
#[derive(Debug, Clone)]
pub struct Req {
    /// What it asks for.
    pub kind: Kind,
    /// The wire line; its id is the request's index in its batch.
    pub line: String,
}

/// The workload's input space, drawn once from the seed.
pub struct Mix {
    /// Parameter pools of `waste`, `risk` and `pstar`, in that order.
    analytic: [Vec<Map>; 3],
    specs: Vec<Value>,
    keys: Vec<(usize, usize, usize)>,
    zipf_cdf: Vec<f64>,
}

/// The `i`-th spec of the key set: the stock loadgen's spec shape (16
/// replications, 2 MTBFs of work) over the full φ/R × MTBF grid, on
/// Base or Exa, cycling through the protocols, with a seeded stream.
fn spec_for(i: usize, rng: &mut SplitMix64) -> SweepSpec {
    let scenario = if i >= BASE_SPECS {
        Scenario::exa()
    } else {
        Scenario::base()
    };
    let protocol = Protocol::ALL[i % Protocol::ALL.len()];
    let mut spec = SweepSpec::new(protocol, scenario.params, PHIS.to_vec(), MTBFS.to_vec());
    spec.replications = 16;
    spec.work_in_mtbfs = 2.0;
    spec.seed = rng.next_u64();
    spec
}

impl Mix {
    /// Draws the key set and the analytic parameter pool from `seed`.
    /// Only parameter sets the model accepts are kept, so no request
    /// of the mix is refused by a correct server.
    pub fn new(seed: u64) -> Mix {
        let mut rng = SplitMix64::new(seed);
        let mut analytic: [Vec<Map>; 3] = Default::default();
        for protocol in Protocol::registry() {
            for scenario in ["base", "exa"] {
                for &mtbf in &MTBFS {
                    for &phi in &PHIS {
                        for (pool, method) in [(0, "waste"), (2, "pstar")] {
                            let mut p = Map::new();
                            p.insert("protocol", Value::String(protocol.id()));
                            p.insert("scenario", Value::String(scenario.into()));
                            p.insert("phi_ratio", Value::F64(phi));
                            p.insert("mtbf_s", Value::F64(mtbf));
                            if answer(method, &Value::Object(p.clone())).is_ok() {
                                analytic[pool].push(p);
                            }
                        }
                        let mut p = Map::new();
                        p.insert("protocol", Value::String(protocol.id()));
                        p.insert("scenario", Value::String(scenario.into()));
                        p.insert("phi_ratio", Value::F64(phi));
                        p.insert("mtbf_s", Value::F64(mtbf));
                        p.insert("life_s", Value::F64(rng.pick(&LIVES)));
                        if answer("risk", &Value::Object(p.clone())).is_ok() {
                            analytic[1].push(p);
                        }
                    }
                }
            }
        }
        let specs: Vec<Value> = (0..BASE_SPECS + EXA_SPECS)
            .map(|i| spec_for(i, &mut rng).to_value())
            .collect();
        // Popularity ranks, stratified so every stretch of ranks holds
        // the same share of Exa cells whatever the seed: rank r is an
        // Exa cell when r % stride == stride - 1. Which cell holds which
        // rank within each group is seeded.
        let group = |specs: std::ops::Range<usize>, rng: &mut SplitMix64| {
            let mut g: Vec<(usize, usize, usize)> = specs
                .flat_map(|s| {
                    (0..MTBFS.len()).flat_map(move |m| (0..PHIS.len()).map(move |p| (s, m, p)))
                })
                .collect();
            for i in (1..g.len()).rev() {
                g.swap(i, rng.below(i + 1));
            }
            g
        };
        let mut base = group(0..BASE_SPECS, &mut rng).into_iter();
        let mut exa = group(BASE_SPECS..BASE_SPECS + EXA_SPECS, &mut rng).into_iter();
        let stride = (BASE_SPECS + EXA_SPECS) / EXA_SPECS;
        let keys: Vec<(usize, usize, usize)> =
            (0..(BASE_SPECS + EXA_SPECS) * MTBFS.len() * PHIS.len())
                .filter_map(|r| {
                    if r % stride == stride - 1 {
                        exa.next()
                    } else {
                        base.next()
                    }
                })
                .collect();
        let weights: Vec<f64> = (1..=keys.len())
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix {
            analytic,
            specs,
            keys,
            zipf_cdf,
        }
    }

    /// `n` requests drawn from the mix with stream `seed`; request `i`
    /// carries id `i`.
    pub fn requests(&self, seed: u64, n: usize) -> Vec<Req> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let (kind, method, params) = if rng.unit() < CELL_SHARE {
                    let u = rng.unit();
                    let rank = self.zipf_cdf.partition_point(|&c| c < u);
                    let key = self.keys[rank.min(self.keys.len() - 1)];
                    let params = self.cell_params(key);
                    let kind = if key.0 >= BASE_SPECS {
                        Kind::CellExa
                    } else {
                        Kind::CellBase
                    };
                    (kind, "sweep_cell", params)
                } else {
                    let k = rng.below(ANALYTIC.len());
                    let (kind, method) = ANALYTIC[k];
                    let pool = &self.analytic[k];
                    (kind, method, pool[rng.below(pool.len())].clone())
                };
                Req {
                    kind,
                    line: request_line(i as u64, method, params),
                }
            })
            .collect()
    }

    /// The parsed `sweep_cell` query of every Exa (or every Base) key,
    /// for the miss-cost probe.
    pub fn cell_queries(&self, exa: bool) -> Vec<SweepCellQuery> {
        self.keys
            .iter()
            .filter(|&&(s, _, _)| (s >= BASE_SPECS) == exa)
            .filter_map(|&key| {
                queries::parse_sweep_cell(&Value::Object(self.cell_params(key))).ok()
            })
            .collect()
    }

    fn cell_params(&self, (s, m, p): (usize, usize, usize)) -> Map {
        let mut params = Map::new();
        params.insert("spec", self.specs[s].clone());
        params.insert("mtbf_idx", Value::U64(m as u64));
        params.insert("phi_idx", Value::U64(p as u64));
        params
    }
}

/// Renders a request line.
pub fn request_line(id: u64, method: &str, params: Map) -> String {
    let mut req = Map::new();
    req.insert("v", Value::U64(1));
    req.insert("id", Value::U64(id));
    req.insert("method", Value::String(method.to_string()));
    req.insert("params", Value::Object(params));
    serde_json::to_string(&Value::Object(req)).unwrap_or_default()
}

/// The in-process answer to an analytic method.
pub fn answer(method: &str, params: &Value) -> Result<Value, String> {
    let r = match method {
        "waste" => queries::waste(params),
        "risk" => queries::risk(params),
        "pstar" => queries::pstar(params),
        other => return Err(format!("not an analytic method: {other}")),
    };
    r.map_err(|e| format!("{}: {}", e.code, e.message))
}

/// A running in-process server.
pub struct Server {
    /// Its bound address.
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

impl Server {
    /// Binds an ephemeral port and waits until a `ping` is answered.
    /// Returns the server and the seconds that took (the set-up time).
    pub fn start() -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 0,
                cache_cells: CACHE_CELLS,
            };
            serve(&cfg, |addr| {
                let _ = tx.send(addr);
            })
        });
        let addr = match rx.recv() {
            Ok(a) => a,
            Err(_) => {
                let why = match handle.join() {
                    Ok(Err(e)) => e.to_string(),
                    _ => "server thread ended before binding".to_string(),
                };
                return Err(format!("serve failed to bind: {why}"));
            }
        };
        let server = Server { addr, handle };
        let mut conn = Conn::open(addr)?;
        let pong = conn.call(r#"{"v":1,"id":"ping","method":"ping"}"#)?;
        if !pong.contains("\"pong\":true") {
            return Err(format!("unexpected ping reply: {pong}"));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// Sends `shutdown` and waits for the server to drain.
    pub fn stop(self) -> Result<ServeSummary, String> {
        let reply = Conn::open(self.addr)
            .and_then(|mut c| c.call(r#"{"v":1,"id":"bye","method":"shutdown"}"#));
        let summary = match self.handle.join() {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => return Err(format!("serve failed: {e}")),
            Err(_) => return Err("server thread panicked".to_string()),
        };
        reply.map(|_| summary)
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and a generous read timeout.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: s,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one line and reads one reply line (newline stripped).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {
                reply.truncate(reply.trim_end().len());
                Ok(reply)
            }
            Ok(_) => Err("connection closed".to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One answered (or failed) request of a phase.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the phase's requests.
    pub idx: usize,
    /// Due time, seconds from phase start.
    pub due: f64,
    /// When the connection became free for it, seconds from start.
    pub free: f64,
    /// When it was sent.
    pub sent: f64,
    /// When its reply arrived.
    pub done: f64,
    /// The reply, or the transport error.
    pub reply: Result<String, String>,
}

impl Sample {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// Round trip from the send, ms.
    pub fn rtt_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }

    /// How late the generator itself sent the request, ms: the time
    /// past both its due time and the moment its connection was free.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due.max(self.free)).max(0.0) * 1e3
    }
}

/// Offsets (s) of `n` Poisson arrivals at `rate` per second.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            t
        })
        .collect()
}

/// Sends `reqs` over `conns` connections. With a schedule, request `i`
/// is due at `due[i]` (open loop); without, every request is due at
/// the start and each connection sends its next as soon as it is free
/// (a closed loop). Returns the samples in request order and the wall
/// seconds until the last reply.
pub fn drive(
    addr: SocketAddr,
    reqs: &[Req],
    due: Option<&[f64]>,
    conns: usize,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut samples: Vec<Sample> = thread::scope(|scope| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = Conn::open(addr);
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(idx) else { break };
                        let free = t0.elapsed().as_secs_f64();
                        let due_at = due.map_or(0.0, |d| d[idx]);
                        let wait = due_at - free;
                        if wait > 0.0 {
                            thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let sent = t0.elapsed().as_secs_f64();
                        let reply = match conn.as_mut() {
                            Ok(c) => c.call(&req.line),
                            Err(e) => Err(e.clone()),
                        };
                        if reply.is_err() {
                            // A broken connection is replaced for the
                            // next request; this one counts as failed.
                            conn = Conn::open(addr);
                        }
                        out.push(Sample {
                            idx,
                            due: due_at,
                            free,
                            sent,
                            done: t0.elapsed().as_secs_f64(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_default())
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.idx);
    (samples, wall)
}

/// Checks every reply of a phase: each must parse, echo its id and
/// carry no `err`; every `sample_every`-th one must also equal, byte
/// for byte, the line the in-process query function (or
/// `run_sweep_cell`) produces. `wrong` corrupts the first sampled
/// expectation (a self-test of the check). Returns the failures.
pub struct Checker {
    cells: HashMap<(u64, usize, usize), dck_sim::SweepCell>,
    sample_every: usize,
    /// Replies compared byte for byte.
    pub compared: usize,
    /// Corrupt the next sampled expectation (self-test).
    pub inject_wrong: bool,
}

impl Checker {
    /// A checker comparing every `sample_every`-th reply exactly.
    pub fn new(sample_every: usize) -> Checker {
        Checker {
            cells: HashMap::new(),
            sample_every: sample_every.max(1),
            compared: 0,
            inject_wrong: false,
        }
    }

    /// Checks one phase; returns one message per failed request.
    pub fn check(&mut self, reqs: &[Req], samples: &[Sample]) -> Vec<String> {
        let mut failures = Vec::new();
        if samples.len() != reqs.len() {
            failures.push(format!(
                "{} of {} requests answered",
                samples.len(),
                reqs.len()
            ));
        }
        for s in samples {
            if let Err(e) = self.check_one(&reqs[s.idx], s) {
                failures.push(format!("request {}: {e}", s.idx));
            }
        }
        failures
    }

    fn check_one(&mut self, req: &Req, s: &Sample) -> Result<(), String> {
        let reply = s.reply.as_ref().map_err(Clone::clone)?;
        let v: Value = serde_json::from_str(reply).map_err(|e| format!("reply not JSON: {e}"))?;
        if v.get("id").and_then(Value::as_u64) != Some(s.idx as u64) {
            return Err("reply does not echo the request id".to_string());
        }
        if let Some(err) = v.get("err") {
            return Err(format!(
                "err envelope: {}",
                serde_json::to_string(err).unwrap_or_default()
            ));
        }
        let ok = v.get("ok").ok_or("reply has no `ok`")?;
        if !s.idx.is_multiple_of(self.sample_every) {
            return Ok(());
        }
        let parsed = parse_request(&req.line).map_err(|e| e.message)?;
        let payload = if req.kind.analytic() {
            answer(&parsed.method, &parsed.params)?
        } else {
            let q = queries::parse_sweep_cell(&parsed.params).map_err(|e| e.message)?;
            let key = (q.fingerprint, q.mtbf_idx, q.phi_idx);
            let cell = match self.cells.get(&key) {
                Some(c) => *c,
                None => {
                    let c = queries::compute_sweep_cell(&q).map_err(|e| e.message)?;
                    self.cells.insert(key, c);
                    c
                }
            };
            let cached = ok.get("cached").and_then(Value::as_bool).unwrap_or(false);
            queries::sweep_cell_payload(&q, &cell, cached)
        };
        let mut expected = ok_line(&parsed.id, payload);
        if std::mem::take(&mut self.inject_wrong) {
            expected.push(' ');
        }
        self.compared += 1;
        if &expected == reply {
            Ok(())
        } else {
            Err("reply differs from the in-process answer".to_string())
        }
    }
}

/// Latency summary of one open-loop phase.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Median latency from the due time, ms.
    pub p50_ms: f64,
    /// Every request's latency from the due time, ms.
    pub latencies_ms: Vec<f64>,
    /// p99 latency from the due time, ms: the median of the p99s of
    /// consecutive windows of [`WINDOW`] requests, so that one stall of
    /// the host does not decide the figure.
    pub p99_ms: f64,
    /// The p99 of each window, ms.
    pub window_p99_ms: Vec<f64>,
    /// p99 of the generator's own lateness, ms.
    pub lag_p99_ms: f64,
    /// Whether queueing grew over the phase: in the median window of its
    /// second half, the median wait for a connection exceeds half the
    /// latency limit.
    pub backlog_grew: bool,
    /// Requests sent.
    pub sent: usize,
}

/// Requests per window a phase's p99 is taken over: ten samples lie
/// beyond each window's p99.
pub const WINDOW: usize = 1_000;

impl PhaseStats {
    /// Summarizes a phase's samples (in request order).
    pub fn of(rate: f64, samples: &[Sample]) -> PhaseStats {
        let lat = |w: &[Sample]| w.iter().map(Sample::latency_ms).collect::<Vec<_>>();
        let latencies_ms = lat(samples);
        let windows: Vec<&[Sample]> = samples
            .chunks(WINDOW)
            .filter(|w| w.len() == WINDOW)
            .collect();
        let window_p99_ms: Vec<f64> = windows.iter().map(|w| percentile(&lat(w), 0.99)).collect();
        let queued: Vec<f64> = windows[windows.len() / 2..]
            .iter()
            .map(|w| median(&w.iter().map(|s| (s.sent - s.due) * 1e3).collect::<Vec<_>>()))
            .collect();
        let lag: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
        PhaseStats {
            rate,
            p50_ms: percentile(&latencies_ms, 0.5),
            latencies_ms,
            p99_ms: median(&window_p99_ms),
            window_p99_ms,
            lag_p99_ms: percentile(&lag, 0.99),
            backlog_grew: median(&queued) > P99_LIMIT_MS / 2.0,
            sent: samples.len(),
        }
    }

    /// Joins the segments of one rate spread over a run: p50 is the
    /// median of all their requests (a level of the host that comes and
    /// goes moves it in proportion to the time it lasted, where the
    /// median of the segments' p50s would take one level or the other),
    /// p99 the median of all their window p99s, the generator's lateness
    /// the worst segment's.
    pub fn join(parts: &[PhaseStats]) -> PhaseStats {
        let window_p99_ms: Vec<f64> = parts.iter().flat_map(|p| p.window_p99_ms.clone()).collect();
        let latencies_ms: Vec<f64> = parts.iter().flat_map(|p| p.latencies_ms.clone()).collect();
        PhaseStats {
            rate: parts.first().map_or(f64::NAN, |p| p.rate),
            p50_ms: percentile(&latencies_ms, 0.5),
            latencies_ms,
            p99_ms: median(&window_p99_ms),
            window_p99_ms,
            lag_p99_ms: parts.iter().map(|p| p.lag_p99_ms).fold(0.0, f64::max),
            backlog_grew: parts.iter().any(|p| p.backlog_grew),
            sent: parts.iter().map(|p| p.sent).sum(),
        }
    }

    /// Meets the latency limit without a growing backlog.
    pub fn sustained(&self) -> bool {
        self.p99_ms <= P99_LIMIT_MS && !self.backlog_grew
    }
}

/// Summary counters of a server's lifetime, for the hit ratio.
pub fn hit_ratio(s: &ServeSummary) -> f64 {
    let total = s.cache_hits + s.cache_misses;
    if total == 0 {
        f64::NAN
    } else {
        s.cache_hits as f64 / total as f64
    }
}
