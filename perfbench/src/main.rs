//! The repository benchmark: end-to-end and per-layer figures for
//! workloads of the photomosaic pipeline (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <exact_s1024|served_mix>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with the
//! tracer off; with `--trace 1` it prints the per-layer ledger instead,
//! from spans the benchmark records around its own calls into each
//! layer's public functions. Every output is checked; a wrong one makes
//! the run exit non-zero. The last line of standard output is the
//! result object; the line before it describes the run (commit, SIMD
//! level, core count, seed, sample counts).

mod closed_loop;
mod inprocess;
mod inputs;
mod layers;
mod served;
mod stats;

use photomosaic::Json;
use std::process::ExitCode;
use std::time::Duration;

/// Hard stop for a measured phase that keeps going past `--seconds` to
/// reach its minimum job count, far inside a run's time limit.
pub const MAX_PHASE: Duration = Duration::from_secs(100);

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One named figure with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    /// Jobs started in the measured phase (and, when traced, the ledger
    /// jobs).
    pub attempted: u64,
    /// Jobs that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Descriptions of every wrong output and failed self-check.
    pub errors: Vec<String>,
    /// The metrics to print, in order.
    pub metrics: Vec<Metric>,
    /// Run description for the line before the result.
    pub meta: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn meta(&mut self, key: &str, value: impl Into<Json>) {
        self.meta.push((key.to_string(), value.into()));
    }

    /// Record a wrong output or failed self-check.
    pub fn error(&mut self, message: String) {
        eprintln!("perfbench: {message}");
        self.errors.push(message);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // Resolve SIMD dispatch and spin up the global pool before any
    // set-up is timed: every user pays these once per process.
    let simd = mosaic_grid::init_simd_kernels();
    let _ = mosaic_pool::global();
    mosaic_telemetry::tracer().set_enabled(false);

    let mut outcome = match args.workload.as_str() {
        "exact_s1024" => inprocess::run(&args),
        "served_mix" => served::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        match peak_rss_mib() {
            Some(mib) => outcome.metric("peak_rss_mib", mib, "MiB"),
            None => outcome.error("VmHWM is not readable from /proc/self/status".into()),
        }
    }

    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let mut meta = vec![
        ("workload".to_string(), Json::from(args.workload.as_str())),
        ("seed".to_string(), Json::Str(args.seed.to_string())),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("seconds".to_string(), Json::from(args.seconds.as_secs())),
        ("commit".to_string(), inputs::commit()),
        (
            "source_fnv".to_string(),
            Json::from(inputs::source_digest()),
        ),
        ("simd".to_string(), Json::from(simd.name())),
        ("nproc".to_string(), Json::from(inputs::nproc())),
        (
            "failed_share".to_string(),
            Json::from(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
    ];
    meta.append(&mut outcome.meta);
    meta.push((
        "errors".to_string(),
        Json::Arr(
            outcome
                .errors
                .iter()
                .map(|e| Json::from(e.as_str()))
                .collect(),
        ),
    ));
    println!("{}", Json::obj([("meta", Json::Obj(meta))]).encode());

    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
        )
    });
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
