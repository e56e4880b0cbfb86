//! # dck-cli — what-if analysis for in-memory buddy checkpointing
//!
//! Library backing the `dck` binary. Every command is a pure function
//! from parsed arguments to a rendered report string, so the whole
//! surface is unit-testable without spawning processes:
//!
//! ```text
//! dck scenarios
//! dck waste    --scenario base --protocol triple --phi-ratio 0.25 --mtbf 7h
//! dck period   --scenario exa  --phi-ratio 0.5   --mtbf 1h
//! dck risk     --scenario base --mtbf 10min --life 30d
//! dck compare  --scenario base --phi-ratio 0.25 --mtbf 7h --life 30d
//! dck simulate --scenario base --protocol double-nbl --phi-ratio 0.5 \
//!              --mtbf 1h --work 40h --reps 100 --seed 7
//! dck trace generate --nodes 64 --mtbf 10min --horizon 1d --seed 1 --out trace.json
//! dck trace stats trace.json
//! ```
//!
//! Durations accept `s`, `min`, `h`, `d`, `w` suffixes (`90s`, `7h`,
//! `30min`, `1d`); platform parameters can be overridden with
//! `--delta`, `--theta-min`, `--alpha`, `--downtime`, `--nodes`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt_report;
pub mod app;
pub mod parse;

pub use app::run;
