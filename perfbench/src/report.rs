//! What a run reports: operation counts, failures and named metrics,
//! printed as readable lines followed by the one-line JSON result.

use serde::{Map, Value};

/// A deliberate fault, for the benchmark's own self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt one expected answer, so the correctness check must fail.
    Wrong,
    /// Submit one operation the program refuses.
    Refuse,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (stages, cells and resumes, or requests).
    pub attempted: u64,
    /// Failure messages, one per failed operation.
    pub failures: Vec<String>,
    /// `(name, value, unit, samples)` in report order.
    pub metrics: Vec<(String, f64, &'static str, usize)>,
    /// Free-form report lines (tables, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric measured over `samples` samples.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push((name.into(), value, unit, samples));
    }

    /// Records a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// Prints the readable report, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self, header: &[String]) {
        for h in header {
            println!("# {h}");
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit, samples) in &self.metrics {
            println!("# {name:<34} {value:>16.6} {unit:<8} (n={samples})");
        }
        println!(
            "# error_rate {:.6} ratio ({} failed of {} attempted)",
            self.error_rate(),
            self.failures.len(),
            self.attempted
        );
        for f in self.failures.iter().take(10) {
            println!("# FAILED: {f}");
        }
        let mut metrics = Map::new();
        for (name, value, unit, _) in &self.metrics {
            let mut m = Map::new();
            m.insert("value", Value::F64(*value));
            m.insert("unit", Value::String((*unit).to_string()));
            metrics.insert(name.clone(), Value::Object(m));
        }
        let mut out = Map::new();
        out.insert("correct", Value::Bool(self.failures.is_empty()));
        out.insert("attempted", Value::U64(self.attempted.max(1)));
        out.insert("failed", Value::U64(self.failures.len() as u64));
        out.insert("metrics", Value::Object(metrics));
        println!(
            "{}",
            serde_json::to_string(&Value::Object(out)).unwrap_or_default()
        );
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host line every output carries: cores, compiler, CPU, build
/// profile and source revision.
pub fn host_lines() -> Vec<String> {
    let nproc = nproc();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![format!(
        "host nproc={nproc} rustc=\"{}\" cpu=\"{cpu}\" profile={profile} commit={}",
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT")
    )]
}

/// High-water resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
