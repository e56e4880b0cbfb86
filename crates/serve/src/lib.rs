//! # dck-serve — queryable waste/risk service and paired load generator
//!
//! The paper's model answers "what waste/risk does a platform with
//! MTBF `M` and checkpoint cost `C` pay?" — exactly the query a
//! scheduler or capacity planner asks at runtime. This crate serves
//! those answers over TCP:
//!
//! * [`server::serve`] — a long-running, multi-threaded server
//!   (std `TcpListener` + `std::thread::scope` worker pool; the
//!   vendored-deps constraint rules out async runtimes) speaking the
//!   line-delimited JSON protocol of [`protocol`]. `waste` / `risk` /
//!   `pstar` point queries are answered directly from `dck-core`;
//!   `sweep_cell` lookups go through an LRU cache
//!   ([`cache::CellCache`]) keyed by the worker-normalized
//!   [`dck_sim::sweep_spec_fingerprint`] plus cell coordinates, with
//!   misses computed by [`dck_sim::run_sweep_cell`] — so every
//!   response is **bit-identical** to `dck sweep` output regardless of
//!   cache state, concurrency, or arrival order.
//! * [`loadgen::run_loadgen`] — the paired client: a threads ×
//!   concurrency × duration matrix of synchronous request loops,
//!   per-request latencies recorded into the `dck-obs` histogram
//!   machinery and kept raw for exact percentiles, emitting the
//!   schema-validated `BENCH_serve.json` report of
//!   [`report::ServeBenchReport`].
//!
//! ## Shutdown
//!
//! The workspace forbids `unsafe` (and vendors no libc), so a SIGTERM
//! handler cannot be installed; supervisors stop the server by sending
//! the protocol-level `shutdown` request instead. On receipt the
//! server acknowledges, stops accepting connections, drains in-flight
//! requests (each worker finishes the request it is answering, then
//! closes its connection), and returns a [`server::ServeSummary`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod loadgen;
pub mod protocol;
pub mod queries;
pub mod report;
pub mod server;

pub use cache::{CellCache, CellKey};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenOutcome};
pub use protocol::{
    err_line, ok_line, parse_request, Request, WireError, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
pub use report::{
    latency_ladder, nearest_rank, ServeBenchConfig, ServeBenchReport, ServeLatency,
    LATENCY_LADDER_PERMILLE, SERVE_SCHEMA,
};
pub use server::{serve, ServeConfig, ServeSummary};
