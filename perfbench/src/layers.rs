//! The pipeline composed from each layer's public entry point with a
//! span around every call, the checks every output must pass, and the
//! ledger that turns recorded spans into per-layer figures.
//!
//! Spans go to the process-global `mosaic_telemetry::tracer()`, which
//! the program's own instrumentation also writes to; the benchmark's
//! spans carry the `bench.` prefix and only they are read back.

use crate::inputs::{Fnv, Pair};
use crate::{stats, Outcome};
use mosaic_edgecolor::SwapSchedule;
use mosaic_gpu::{DeviceSpec, GpuSim};
use mosaic_grid::{assemble, Deadline, TileLayout};
use mosaic_image::GrayImage;
use mosaic_telemetry::SpanRecord;
use photomosaic::optimal::to_cost_matrix;
use photomosaic::parallel_search::{
    parallel_search_gpu_bounded, parallel_search_threads_bounded_in,
};
use photomosaic::preprocess::preprocess_gray;
use photomosaic::{Algorithm, Backend, JobResult, MosaicConfig, MosaicResult};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Span around one in-process job composed from layer calls.
pub const JOB: &str = "bench.job";
/// Span around one served job: submit, wait, decode.
pub const SERVED_JOB: &str = "bench.served_job";
pub const STEP1: &str = "bench.step1";
pub const STEP2: &str = "bench.step2";
pub const SCHEDULE: &str = "bench.schedule";
pub const SEARCH: &str = "bench.step3.search";
pub const COST_COPY: &str = "bench.step3.cost_copy";
pub const SOLVE: &str = "bench.step3.solve";
pub const ASSEMBLE: &str = "bench.assemble";
pub const ROUND_TRIP: &str = "bench.round_trip";
pub const RESULT_DECODE: &str = "bench.result_decode";

/// What every job's output is checked on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    pub image: GrayImage,
    pub assignment: Vec<usize>,
    pub total: u64,
}

impl Output {
    pub fn from_result(result: &MosaicResult) -> Output {
        Output {
            image: result.image.clone(),
            assignment: result.assignment.clone(),
            total: result.report.total_error,
        }
    }

    /// A decoded wire result; its total comes from the report.
    pub fn from_job(result: JobResult) -> Result<Output, String> {
        let total = result
            .report
            .get("total_error")
            .and_then(photomosaic::Json::as_f64)
            .ok_or("result report has no total_error")?;
        Ok(Output {
            image: result.image,
            assignment: result.assignment,
            total: total as u64,
        })
    }

    /// FNV-1a over the image bytes, the assignment and the total: equal
    /// digests mean bit-identical outputs.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv::new();
        let pixels: Vec<u8> = self.image.pixels().iter().map(|p| p.0).collect();
        hash.feed(&pixels);
        for &u in &self.assignment {
            hash.feed(&(u as u64).to_le_bytes());
        }
        hash.feed(&self.total.to_le_bytes());
        hash.finish()
    }

    /// The assignment is a permutation of the `grid²` tiles and the
    /// reported total is the SAD between the mosaic and the target
    /// (Eq. 2).
    pub fn check(&self, target: &GrayImage, grid: usize) -> Result<(), String> {
        if !mosaic_grid::assemble::is_permutation(&self.assignment, grid * grid) {
            return Err(format!(
                "assignment is not a permutation of {} tiles",
                grid * grid
            ));
        }
        if self.image.dimensions() != target.dimensions() {
            return Err("mosaic and target differ in size".into());
        }
        let sad = mosaic_image::metrics::sad(&self.image, target);
        if sad != self.total {
            return Err(format!(
                "reported total {} but the mosaic's SAD is {sad}",
                self.total
            ));
        }
        Ok(())
    }
}

/// A composed job's output plus its Step-3 counts.
pub struct Composed {
    pub output: Output,
    pub sweeps: usize,
    pub swaps: usize,
}

/// Run one job the way `photomosaic::generate` does, one public layer
/// call at a time, each inside its own span under a [`JOB`] span.
///
/// # Panics
/// For algorithms and backends no workload uses, and for geometry the
/// workloads never produce.
pub fn compose(input: &GrayImage, target: &GrayImage, config: &MosaicConfig) -> Composed {
    let tracer = mosaic_telemetry::tracer();
    let pool = mosaic_pool::global();
    let _job = tracer.span(JOB);
    let layout = TileLayout::with_grid(target.width(), config.grid).expect("workload geometry");
    let prepared = {
        let _span = tracer.span(STEP1);
        preprocess_gray(input, target, config.preprocess)
    };
    let matrix = {
        let _span = tracer.span(STEP2);
        photomosaic::errors::compute_error_matrix_bounded_in(
            pool,
            &prepared,
            target,
            layout,
            config.metric,
            config.backend,
            &Deadline::NONE,
        )
        .expect("workload geometry")
        .0
    };
    let s = matrix.size();
    let (assignment, total, sweeps, swaps) = match config.algorithm {
        Algorithm::ParallelSearch => {
            let schedule = {
                let _span = tracer.span(SCHEDULE);
                SwapSchedule::for_tiles(s)
            };
            let _span = tracer.span(SEARCH);
            let result = match config.backend {
                Backend::Threads(t) => parallel_search_threads_bounded_in(
                    pool,
                    &matrix,
                    &schedule,
                    t.max(1),
                    &Deadline::NONE,
                ),
                Backend::GpuSim { workers } => {
                    let lanes = workers.unwrap_or_else(|| pool.threads());
                    let sim = GpuSim::with_pool(DeviceSpec::tesla_k40(), Arc::clone(pool), lanes);
                    parallel_search_gpu_bounded(&sim, &matrix, &schedule, &Deadline::NONE)
                }
                Backend::Serial => panic!("no workload runs the serial backend"),
            }
            .expect("no deadline");
            let o = result.outcome;
            (o.assignment, o.total, o.sweeps, o.swaps)
        }
        Algorithm::Optimal(kind) => {
            let cost = {
                let _span = tracer.span(COST_COPY);
                to_cost_matrix(&matrix)
            };
            let solution = {
                let _span = tracer.span(SOLVE);
                kind.build().solve(&cost)
            };
            (solution.col_to_row(), solution.total(), 0, 0)
        }
        other => panic!("no workload runs {}", other.name()),
    };
    let image = {
        let _span = tracer.span(ASSEMBLE);
        assemble(&prepared, layout, &assignment).expect("a permutation of the layout's tiles")
    };
    Composed {
        output: Output {
            image,
            assignment,
            total,
        },
        sweeps,
        swaps,
    }
}

/// Per-job means of the benchmark's spans under one kind of job span.
pub struct Ledger {
    job: &'static str,
    jobs: usize,
    layer_ms: BTreeMap<String, f64>,
    unaccounted_ms: f64,
}

impl Ledger {
    pub fn new(job: &'static str) -> Ledger {
        Ledger {
            job,
            jobs: 0,
            layer_ms: BTreeMap::new(),
            unaccounted_ms: 0.0,
        }
    }

    /// Fold in recorded spans: each job span's wall, its direct
    /// children's walls by layer, and the part of the job no child
    /// covers.
    pub fn absorb(&mut self, spans: &[SpanRecord]) {
        for job in spans.iter().filter(|s| s.name == self.job) {
            let wall = ms(job);
            let mut covered = 0.0;
            for child in spans
                .iter()
                .filter(|s| s.parent == job.id && s.name.starts_with("bench."))
            {
                *self.layer_ms.entry(child.name.clone()).or_default() += ms(child);
                covered += ms(child);
            }
            self.jobs += 1;
            self.unaccounted_ms += wall - covered;
        }
    }

    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Mean time per job in `layer` (0 for a layer no job called).
    pub fn mean_ms(&self, layer: &str) -> f64 {
        self.layer_ms.get(layer).copied().unwrap_or(0.0) / self.jobs().max(1) as f64
    }

    /// Mean time per job that no layer span covers.
    pub fn unaccounted_ms(&self) -> f64 {
        self.unaccounted_ms / self.jobs().max(1) as f64
    }
}

fn ms(span: &SpanRecord) -> f64 {
    span.wall_ns as f64 / 1e6
}

/// Every per-layer figure, zero for layers a workload's jobs never
/// reach (the workload table in the benchmark's README says which).
#[derive(Default)]
pub struct Figures {
    pub step1_ms: f64,
    pub step2_ms: f64,
    pub step2_pairs: f64,
    pub step2_bytes: f64,
    pub step2_gb_per_s_core: f64,
    pub schedule_ms: f64,
    pub schedule_mib: f64,
    pub search_ms: f64,
    pub sweeps: f64,
    pub swaps: f64,
    pub pair_tests: f64,
    pub mpair_tests_per_s: f64,
    pub cost_copy_ms: f64,
    pub solve_ms: f64,
    pub assemble_ms: f64,
    pub request_bytes: f64,
    pub request_encode_ms: f64,
    pub cache_key_ms: f64,
    pub resolve_ms: f64,
    pub result_bytes: f64,
    pub result_encode_ms: f64,
    pub result_decode_ms: f64,
    pub queue_wait_ms: f64,
    pub cache_hit_ratio: f64,
    pub residual_ms: f64,
    pub route_ms: f64,
    pub hop_ms: f64,
    pub unaccounted_ms: f64,
    pub overhead_pct: f64,
}

/// Composed jobs, each run once with the tracer off and once with it
/// on, with their Step-3 counts.
pub struct Replays {
    ledger: Ledger,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    sweeps: Vec<f64>,
    swaps: Vec<f64>,
}

impl Replays {
    pub fn new() -> Replays {
        Replays {
            ledger: Ledger::new(JOB),
            untraced_ms: Vec::new(),
            traced_ms: Vec::new(),
            sweeps: Vec::new(),
            swaps: Vec::new(),
        }
    }

    /// Traced composed jobs so far.
    pub fn jobs(&self) -> usize {
        self.ledger.jobs()
    }

    /// Run one composed job with the tracer off and one with it on, in
    /// alternating order from call to call, so the tracer's overhead is
    /// measured on one code path. Fold the traced job's spans into the
    /// ledger, and check both outputs equal `reference` from `generate`.
    pub fn run(
        &mut self,
        pair: &Pair,
        config: &MosaicConfig,
        reference: &Output,
        out: &mut Outcome,
    ) {
        let tracer = mosaic_telemetry::tracer();
        let order = if self.traced_ms.len().is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            out.attempted += 1;
            tracer.clear();
            tracer.set_enabled(traced);
            let started = Instant::now();
            let composed = compose(&pair.input, &pair.target, config);
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            tracer.set_enabled(false);
            if traced {
                self.ledger.absorb(&tracer.take());
                self.traced_ms.push(wall_ms);
                self.sweeps.push(composed.sweeps as f64);
                self.swaps.push(composed.swaps as f64);
            } else {
                self.untraced_ms.push(wall_ms);
            }
            if composed.output != *reference {
                out.failed += 1;
                out.error("the composed pipeline disagrees with generate".into());
            }
        }
    }

    /// The pipeline layers' figures for jobs run with `config` on
    /// `tile_size` px tiles.
    pub fn figures(&self, config: &MosaicConfig, tile_size: usize) -> Figures {
        let ledger = &self.ledger;
        let s = (config.grid * config.grid) as f64;
        let pairs_per_sweep = s * (s - 1.0) / 2.0;
        let step2_ms = ledger.mean_ms(STEP2);
        let step2_bytes = s * s * (tile_size * tile_size) as f64;
        let search_ms = ledger.mean_ms(SEARCH);
        let sweeps = stats::mean(&self.sweeps).unwrap_or(0.0);
        let pair_tests = sweeps * pairs_per_sweep;
        let parallel = matches!(config.algorithm, Algorithm::ParallelSearch);
        Figures {
            step1_ms: ledger.mean_ms(STEP1),
            step2_ms,
            step2_pairs: s * s,
            step2_bytes,
            step2_gb_per_s_core: step2_bytes
                / (step2_ms / 1e3)
                / step2_cores(config.backend) as f64
                / 1e9,
            schedule_ms: ledger.mean_ms(SCHEDULE),
            schedule_mib: if parallel {
                pairs_per_sweep * 16.0 / f64::from(1 << 20)
            } else {
                0.0
            },
            search_ms,
            sweeps,
            swaps: stats::mean(&self.swaps).unwrap_or(0.0),
            pair_tests,
            mpair_tests_per_s: if search_ms > 0.0 {
                pair_tests / (search_ms / 1e3) / 1e6
            } else {
                0.0
            },
            cost_copy_ms: ledger.mean_ms(COST_COPY),
            solve_ms: ledger.mean_ms(SOLVE),
            assemble_ms: ledger.mean_ms(ASSEMBLE),
            unaccounted_ms: ledger.unaccounted_ms(),
            overhead_pct: match (
                stats::median(&self.traced_ms),
                stats::median(&self.untraced_ms),
            ) {
                (Some(traced), Some(untraced)) => (traced - untraced) / untraced * 100.0,
                _ => 0.0,
            },
            ..Figures::default()
        }
    }
}

impl Figures {
    /// Print every per-layer metric, in the order BENCHMARK.json lists
    /// them.
    pub fn emit(&self, out: &mut Outcome) {
        out.metric("step1.ms", self.step1_ms, "ms");
        out.metric("step2.ms", self.step2_ms, "ms");
        out.metric("step2.pairs", self.step2_pairs, "count");
        out.metric("step2.bytes_compared", self.step2_bytes, "bytes");
        out.metric("step2.gb_per_s_core", self.step2_gb_per_s_core, "GB/s");
        out.metric("schedule.ms", self.schedule_ms, "ms");
        out.metric("schedule.mib", self.schedule_mib, "MiB");
        out.metric("step3.search_ms", self.search_ms, "ms");
        out.metric("step3.sweeps", self.sweeps, "count");
        out.metric("step3.swaps", self.swaps, "count");
        out.metric("step3.pair_tests", self.pair_tests, "count");
        out.metric(
            "step3.mpair_tests_per_s",
            self.mpair_tests_per_s,
            "Mpairs/s",
        );
        out.metric("step3.cost_copy_ms", self.cost_copy_ms, "ms");
        out.metric("step3.solve_ms", self.solve_ms, "ms");
        out.metric("assemble.ms", self.assemble_ms, "ms");
        out.metric("codec.request_bytes", self.request_bytes, "bytes");
        out.metric("codec.request_encode_ms", self.request_encode_ms, "ms");
        out.metric("codec.cache_key_ms", self.cache_key_ms, "ms");
        out.metric("codec.resolve_ms", self.resolve_ms, "ms");
        out.metric("codec.result_bytes", self.result_bytes, "bytes");
        out.metric("codec.result_encode_ms", self.result_encode_ms, "ms");
        out.metric("codec.result_decode_ms", self.result_decode_ms, "ms");
        out.metric("service.queue_wait_ms", self.queue_wait_ms, "ms");
        out.metric("service.cache_hit_ratio", self.cache_hit_ratio, "ratio");
        out.metric("service.residual_ms", self.residual_ms, "ms");
        out.metric("gateway.route_ms", self.route_ms, "ms");
        out.metric("gateway.hop_ms", self.hop_ms, "ms");
        out.metric("unaccounted.ms", self.unaccounted_ms, "ms");
        out.metric("trace.overhead_pct", self.overhead_pct, "%");
    }
}

/// Cores a Step-2 build on `backend` keeps busy.
fn step2_cores(backend: Backend) -> usize {
    let pool = mosaic_pool::global();
    let lanes = match backend {
        Backend::Serial => 1,
        Backend::Threads(t) => t.max(1),
        Backend::GpuSim { workers } => workers.unwrap_or_else(|| pool.threads()),
    };
    lanes.min(crate::inputs::nproc()).max(1)
}
