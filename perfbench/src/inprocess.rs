//! The in-process workload: closed-loop callers of
//! `photomosaic::generate`, one per core (at most two), cycling through
//! seeded image pairs with the paper's exact algorithm.
//!
//! Each caller builds its Step-2 matrix on its own core with the serial
//! backend. With the default simulated-GPU backend, the two callers
//! shared one two-thread pool for Step 2, and the job time followed the
//! host's load from run to run more than it does with a core each.

use crate::inputs::{self, Pair};
use crate::layers::{Output, Replays};
use crate::{closed_loop, stats, Args, Outcome};
use mosaic_assign::SolverKind;
use photomosaic::{generate, Algorithm, Backend, MosaicBuilder, MosaicConfig};
use std::time::Instant;

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Mixed into the seed so workloads never share images.
const SALT: u64 = 0x6578_6163_745f_3130;
/// 512 px at grid 32: S = 1024 tiles of M = 16 px.
const SIZE: usize = 512;
const GRID: usize = 32;
/// Distinct pairs a run cycles through; every run completes each at
/// least once, so `total_error_mean` covers all of them.
const PAIRS: usize = 32;

/// The paper's §III exact algorithm: Jonker–Volgenant after a serial
/// Step 2.
fn config() -> MosaicConfig {
    MosaicBuilder::new()
        .grid(GRID)
        .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
        .backend(Backend::Serial)
        .build()
}

pub fn run(args: &Args) -> Outcome {
    let config = config();
    let lanes = inputs::nproc().min(2);
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        pairs = inputs::pairs(args.seed, SALT, PAIRS, SIZE);
        setups.push(started.elapsed().as_secs_f64());
    }
    out.meta("image_px", SIZE);
    out.meta("grid", GRID);
    out.meta("tile_px", SIZE / GRID);
    out.meta("algorithm", config.algorithm.name());
    out.meta("backend", config.backend.name());
    out.meta("pairs", PAIRS);
    if args.trace {
        traced(&config, &pairs, args, &mut out);
    } else {
        out.meta("lanes", lanes);
        untraced(&config, &pairs, lanes, args, &mut out);
        out.metric("setup_s", stats::median(&setups).expect("set-up ran"), "s");
    }
    out
}

/// Run one `generate` job and check its output against Eq. 2.
fn checked_generate(config: &MosaicConfig, pair: &Pair) -> Result<Output, String> {
    let result =
        generate(&pair.input, &pair.target, config).map_err(|e| format!("generate failed: {e}"))?;
    let output = Output::from_result(&result);
    output
        .check(&pair.target, GRID)
        .map_err(|e| format!("generate: {e}"))?;
    Ok(output)
}

fn untraced(config: &MosaicConfig, pairs: &[Pair], lanes: usize, args: &Args, out: &mut Outcome) {
    let phase = closed_loop::run(
        lanes,
        args.seconds,
        closed_loop::MIN_JOBS,
        || (),
        |_, j| {
            let started = Instant::now();
            let output = checked_generate(config, &pairs[j % PAIRS]);
            let wall = started.elapsed().as_secs_f64();
            (wall, output.map(|o| (o.digest(), o.total)))
        },
    );
    // A repeated pair must give its first output again.
    let mut first: Vec<Option<(u64, u64)>> = vec![None; PAIRS];
    let mut walls = Vec::new();
    for (j, (wall, verdict)) in &phase.records {
        out.attempted += 1;
        let landed = match verdict {
            Ok(landed) => *landed,
            Err(e) => {
                out.failed += 1;
                out.error(format!("job {j}: {e}"));
                continue;
            }
        };
        match first[j % PAIRS] {
            Some(earlier) if earlier != landed => {
                out.failed += 1;
                out.error(format!(
                    "job {j}: generate gave a different mosaic for the same pair"
                ));
                continue;
            }
            Some(_) => {}
            None => first[j % PAIRS] = Some(landed),
        }
        walls.push(*wall);
    }
    let totals: Vec<f64> = first
        .iter()
        .flatten()
        .map(|&(_, total)| total as f64)
        .collect();
    out.meta("jobs", phase.records.len());
    out.meta("job_s_p50_samples", walls.len());
    out.meta("job_s_p90_samples", walls.len());
    out.meta("job_s_p90_beyond", stats::beyond(walls.len(), 0.9));
    out.meta("measured_s", phase.measured_s);
    match (stats::median(&walls), stats::tail_percentile(&walls, 0.9)) {
        (Some(p50), Some(p90)) => {
            out.metric("job_s_p50", p50, "s");
            out.metric("job_s_p90", p90, "s");
        }
        _ => out.error(format!("{} jobs cannot resolve a p90", walls.len())),
    }
    out.metric("jobs_per_s", walls.len() as f64 / phase.measured_s, "1/s");
    match stats::mean(&totals) {
        Some(mean) => out.metric("total_error_mean", mean, "SAD"),
        None => out.error("no pair completed".into()),
    }
}

/// One caller: each pair runs through `generate` for its reference,
/// then through the composed pipeline untraced and traced.
fn traced(config: &MosaicConfig, pairs: &[Pair], args: &Args, out: &mut Outcome) {
    let mut replays = Replays::new();
    let started = Instant::now();
    let mut job = 0;
    while started.elapsed() < args.seconds || job == 0 {
        let pair = &pairs[job % PAIRS];
        job += 1;
        out.attempted += 1;
        match checked_generate(config, pair) {
            Ok(reference) => replays.run(pair, config, &reference, out),
            Err(e) => {
                out.failed += 1;
                out.error(e);
            }
        }
    }
    out.meta("reference_jobs", job);
    out.meta("composed_jobs", replays.jobs());
    replays.figures(config, SIZE / GRID).emit(out);
}
