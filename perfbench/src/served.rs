//! The served workload: an in-process gateway in front of two
//! single-worker backends (`mosaic_gateway::Fleet`, default
//! `ServiceConfig` otherwise), driven by closed-loop client lanes over
//! real TCP.
//!
//! The job stream cycles a hot set of six specs — fewer than one
//! backend's eight cache slots, so hits stay hits under any routing —
//! and every eighth job is a never-seen spec: a miss, a Step-2 build
//! and a cache insert.

use crate::inputs::{self, Pair};
use crate::layers::{self, Figures, Ledger, Output, Replays};
use crate::{closed_loop, stats, Args, Outcome};
use mosaic_gateway::{Fleet, GatewayConfig};
use mosaic_image::GrayImage;
use mosaic_service::protocol::Response;
use mosaic_service::{Client, ServiceConfig};
use mosaic_telemetry::SpanRecord;
use photomosaic::{generate, ImageSource, JobResult, JobSpec, Json, MosaicBuilder, MosaicConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SALT: u64 = 0x7365_7276_6564_5f6d;
const SIZE: usize = 1024;
const GRID: usize = 32;
const BACKENDS: usize = 2;
const HOT: usize = 6;
/// Job `j` is a never-seen spec when `j % MISS_EVERY == MISS_EVERY - 1`.
const MISS_EVERY: usize = 8;
const SETUP_REPEATS: usize = crate::inprocess::SETUP_REPEATS;

fn config() -> MosaicConfig {
    MosaicBuilder::new().grid(GRID).build()
}

fn pixels(image: &GrayImage) -> ImageSource {
    ImageSource::Pixels {
        size: image.width(),
        pixels: image.pixels().iter().map(|p| p.0).collect(),
    }
}

/// The hot set and its in-process reference outputs.
struct Setup {
    pairs: Vec<Pair>,
    specs: Vec<JobSpec>,
    references: Vec<Output>,
    results: Vec<JobResult>,
}

impl Setup {
    /// The spec of job `j`, the hot pair it derives from, and whether
    /// it is a never-seen spec. A never-seen spec is its hot spec with
    /// its first input pixels XORed with the little-endian bytes of
    /// `j + 1` (the first pixel for `j < 255`, the first two for
    /// `j < 65535`), so no two jobs share one and none equals a hot spec.
    fn job(&self, j: usize) -> (JobSpec, usize, bool) {
        let h = j % HOT;
        let mut spec = self.specs[h].clone();
        let miss = j % MISS_EVERY == MISS_EVERY - 1;
        if miss {
            if let ImageSource::Pixels { pixels, .. } = &mut spec.input {
                for (pixel, byte) in pixels.iter_mut().zip((j as u64 + 1).to_le_bytes()) {
                    *pixel ^= byte;
                }
            }
        }
        (spec, h, miss)
    }
}

/// Render the hot set, compute its references, start the fleet and
/// warm its cache with every hot spec.
fn set_up(seed: u64, lanes: usize, out: &mut Outcome) -> Result<(Setup, Fleet), String> {
    let config = config();
    let pairs = inputs::pairs(seed, SALT, HOT, SIZE);
    let specs: Vec<JobSpec> = pairs
        .iter()
        .map(|p| JobSpec {
            input: pixels(&p.input),
            target: pixels(&p.target),
            config: config.clone(),
        })
        .collect();
    let mut references = Vec::with_capacity(HOT);
    let mut results = Vec::with_capacity(HOT);
    for pair in &pairs {
        let result = generate(&pair.input, &pair.target, &config)
            .map_err(|e| format!("reference generate failed: {e}"))?;
        references.push(Output::from_result(&result));
        results.push(JobResult::from(result));
    }
    let backend = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let fleet = Fleet::start(vec![backend; BACKENDS], GatewayConfig::default())
        .map_err(|e| format!("fleet start failed: {e}"))?;
    let setup = Setup {
        pairs,
        specs,
        references,
        results,
    };
    // Warm the cache: one submission per hot spec, spread over the
    // lanes; each is a miss and must match its reference.
    let addr = fleet.gateway_addr();
    let warmed: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let setup = &setup;
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    for h in (lane..HOT).step_by(lanes) {
                        let reply = submit(&mut client, &setup.specs[h]).map_err(|e| e.0)?;
                        reply.output.check(&setup.pairs[h].target, GRID)?;
                        if reply.output != setup.references[h] {
                            return Err(format!("warm-up of hot spec {h} differs from generate"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up lane panicked".into()))
            })
            .collect()
    });
    for result in warmed {
        if let Err(e) = result {
            out.error(format!("set-up: {e}"));
        }
    }
    Ok((setup, fleet))
}

/// A decoded reply and the report fields the ledger reads.
struct Reply {
    output: Output,
    queue_wait_ms: f64,
    step_ms: f64,
    cache_hit: bool,
}

/// Why a submission produced no usable reply, and whether the
/// connection must be replaced.
struct SubmitError(String, bool);

fn submit(client: &mut Client, spec: &JobSpec) -> Result<Reply, SubmitError> {
    let tracer = mosaic_telemetry::tracer();
    let response = {
        let _span = tracer.span(layers::ROUND_TRIP);
        client.submit(spec)
    };
    let result = match response {
        Ok(Response::Result { result }) => result,
        Ok(other) => {
            let refusal = other.to_json().encode();
            return Err(SubmitError(format!("refused: {refusal}"), false));
        }
        Err(e) => return Err(SubmitError(format!("i/o: {e}"), true)),
    };
    let decoded = {
        let _span = tracer.span(layers::RESULT_DECODE);
        JobResult::from_json(&result)
    };
    let decoded = decoded.map_err(|e| SubmitError(format!("undecodable result: {e}"), false))?;
    let field = |name: &str| {
        decoded
            .report
            .get(name)
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let step_ms = field("step1_wall_ms") + field("step2_wall_ms") + field("step3_wall_ms");
    let queue_wait_ms = field("queue_wait_ms");
    let cache_hit = decoded.report.get("cache_hit").and_then(Json::as_bool) == Some(true);
    let output = Output::from_job(decoded).map_err(|e| SubmitError(e, false))?;
    Ok(Reply {
        output,
        queue_wait_ms,
        step_ms,
        cache_hit,
    })
}

/// One measured job, checked as it landed.
struct JobRecord {
    miss: bool,
    wall_s: f64,
    verdict: Result<Landed, String>,
}

/// What the ledger and the post-phase comparison keep of a checked
/// reply.
struct Landed {
    digest: u64,
    queue_wait_ms: f64,
    step_ms: f64,
}

/// Server-side counters, summed over the backends, plus the gateway's.
#[derive(Clone, Copy, Default)]
struct Counters {
    completed: f64,
    failed: f64,
    refused: f64,
    hits: f64,
    misses: f64,
    routed: f64,
    route_us_sum: f64,
    route_us_count: f64,
}

impl Counters {
    fn delta(self, before: Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            refused: self.refused - before.refused,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            routed: self.routed - before.routed,
            route_us_sum: self.route_us_sum - before.route_us_sum,
            route_us_count: self.route_us_count - before.route_us_count,
        }
    }
}

fn stats_of(addr: std::net::SocketAddr) -> Result<Json, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match client.stats() {
        Ok(Response::Stats { stats }) => Ok(stats),
        other => Err(format!(
            "stats from {addr}: {:?}",
            other.map(|r| r.to_json().encode())
        )),
    }
}

fn counters(fleet: &Fleet) -> Result<Counters, String> {
    let get = |json: &Json, section: &str, key: &str| {
        json.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats lack {section}.{key}"))
    };
    let mut c = Counters::default();
    for i in 0..fleet.backend_count() {
        let stats = stats_of(fleet.backend_addr(i))?;
        c.completed += get(&stats, "jobs", "completed")?;
        c.failed += get(&stats, "jobs", "failed")?;
        c.hits += get(&stats, "cache", "hits")?;
        c.misses += get(&stats, "cache", "misses")?;
    }
    let gateway = fleet.gateway_addr();
    let gateway_stats = stats_of(gateway)?;
    c.routed = get(&gateway_stats, "jobs", "routed")?;
    c.refused = get(&gateway_stats, "jobs", "rejected")?;
    let mut client = Client::connect(gateway).map_err(|e| format!("connect {gateway}: {e}"))?;
    let text = match client.metrics() {
        Ok(Response::Metrics { text }) => text,
        _ => return Err("gateway metrics scrape failed".into()),
    };
    let sample = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .ok_or_else(|| format!("metrics lack {name}"))
    };
    c.route_us_sum = sample("gateway_route_us_sum")?;
    c.route_us_count = sample("gateway_route_us_count")?;
    Ok(c)
}

/// What one measured phase produced.
struct Phase {
    records: Vec<(usize, JobRecord)>,
    measured_s: f64,
    delta: Counters,
    spans: Vec<SpanRecord>,
}

/// Drive the fleet from `lanes` closed-loop clients until `seconds`
/// have passed and at least `min_jobs` jobs completed, then check the
/// server-side counters against what the clients saw.
fn phase(
    setup: &Setup,
    fleet: &Fleet,
    lanes: usize,
    seconds: Duration,
    min_jobs: usize,
    traced: bool,
    out: &mut Outcome,
) -> Option<Phase> {
    let tracer = mosaic_telemetry::tracer();
    let before = match counters(fleet) {
        Ok(c) => c,
        Err(e) => {
            out.error(format!("stats before the phase: {e}"));
            return None;
        }
    };
    let spans = Mutex::new(Vec::new());
    let keep_bench_spans = || {
        let taken = tracer.take();
        let mut spans = mosaic_telemetry::lock_unpoisoned(&spans);
        spans.extend(taken.into_iter().filter(|s| s.name.starts_with("bench.")));
    };
    tracer.clear();
    tracer.set_enabled(traced);
    let addr = fleet.gateway_addr();
    let run = closed_loop::run(
        lanes,
        seconds,
        min_jobs,
        || Client::connect(addr).ok(),
        |client, j| {
            let (spec, h, miss) = setup.job(j);
            let job_started = Instant::now();
            let reply = {
                let _span = tracer.span(layers::SERVED_JOB);
                match client.as_mut() {
                    Some(client) => submit(client, &spec),
                    None => Err(SubmitError("not connected".into(), true)),
                }
            };
            let wall_s = job_started.elapsed().as_secs_f64();
            let verdict = match reply {
                Ok(reply) => check(&reply, &setup.pairs[h].target, miss),
                Err(SubmitError(message, reconnect)) => {
                    if reconnect {
                        *client = Client::connect(addr).ok();
                    }
                    Err(message)
                }
            };
            if traced {
                keep_bench_spans();
            }
            JobRecord {
                miss,
                wall_s,
                verdict,
            }
        },
    );
    tracer.set_enabled(false);
    keep_bench_spans();
    if tracer.dropped() > 0 {
        out.error(format!("the tracer dropped {} spans", tracer.dropped()));
    }
    let after = match counters(fleet) {
        Ok(c) => c,
        Err(e) => {
            out.error(format!("stats after the phase: {e}"));
            return None;
        }
    };
    let phase = Phase {
        records: run.records,
        measured_s: run.measured_s,
        delta: after.delta(before),
        spans: spans.into_inner().unwrap_or_default(),
    };
    self_check(&phase, out);
    Some(phase)
}

/// Check one reply: Eq. 2 holds, the assignment is a permutation, and
/// the cache behaved as the mix intends. Comparison against the
/// in-process reference happens after the phase, by digest.
fn check(reply: &Reply, target: &GrayImage, miss: bool) -> Result<Landed, String> {
    reply.output.check(target, GRID)?;
    if reply.cache_hit == miss {
        let expected = if miss { "miss" } else { "hit" };
        return Err(format!("a job designed as a cache {expected} was not one"));
    }
    Ok(Landed {
        digest: reply.output.digest(),
        queue_wait_ms: reply.queue_wait_ms,
        step_ms: reply.step_ms,
    })
}

/// The server-side counters must agree with what the clients saw:
/// every attempted job was completed, failed or refused server-side,
/// the backends completed exactly the client-completed jobs, the
/// gateway routed them, and the cache hit and missed exactly as the
/// 1-in-8 design says.
fn self_check(phase: &Phase, out: &mut Outcome) {
    let attempted = phase.records.len() as f64;
    let completed = phase
        .records
        .iter()
        .filter(|(_, r)| r.verdict.is_ok())
        .count() as f64;
    let misses = phase
        .records
        .iter()
        .filter(|(_, r)| r.miss && r.verdict.is_ok())
        .count() as f64;
    let d = phase.delta;
    let checks = [
        (
            "attempted = completed + failed + refused",
            attempted == d.completed + d.failed + d.refused,
        ),
        (
            "backend jobs completed = client completed",
            d.completed == completed,
        ),
        (
            "gateway jobs routed = client completed",
            d.routed == completed,
        ),
        ("cache misses = never-seen jobs", d.misses == misses),
        ("cache hits = hot-set jobs", d.hits == completed - misses),
    ];
    for (what, ok) in checks {
        if !ok {
            out.error(format!(
                "self-check failed: {what} (attempted {attempted}, completed {completed}, \
                 never-seen {misses}, backend completed {} failed {}, gateway routed {} \
                 refused {}, hits {}, misses {})",
                d.completed, d.failed, d.routed, d.refused, d.hits, d.misses
            ));
        }
    }
}

/// Compare every distinct spec's served output with in-process
/// `generate` on the same spec, and fold failures into the tally.
fn verify(setup: &Setup, phase: &Phase, out: &mut Outcome) {
    let config = config();
    let hot_digests: Vec<u64> = setup.references.iter().map(Output::digest).collect();
    for (j, record) in &phase.records {
        out.attempted += 1;
        let digest = match &record.verdict {
            Ok(landed) => landed.digest,
            Err(e) => {
                out.failed += 1;
                out.error(format!("job {j}: {e}"));
                continue;
            }
        };
        let (spec, h, miss) = setup.job(*j);
        let expected = if miss {
            let input = spec.input.resolve().expect("bench-built pixels");
            match generate(&input, &setup.pairs[h].target, &config) {
                Ok(result) => Output::from_result(&result).digest(),
                Err(e) => {
                    out.failed += 1;
                    out.error(format!("job {j}: in-process generate failed: {e}"));
                    continue;
                }
            }
        } else {
            hot_digests[h]
        };
        if digest != expected {
            out.failed += 1;
            out.error(format!("job {j}: served result differs from generate"));
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let lanes = inputs::nproc().min(2);
    out.meta("image_px", SIZE);
    out.meta("grid", GRID);
    out.meta("tile_px", SIZE / GRID);
    out.meta("backends", BACKENDS);
    out.meta("backend_workers", 1usize);
    out.meta("lanes", lanes);
    out.meta("hot_specs", HOT);
    out.meta("miss_every", MISS_EVERY);

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut setup: Option<(Setup, Fleet)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, fleet)) = setup.take() {
            fleet.join();
        }
        let started = Instant::now();
        match set_up(args.seed, lanes, &mut out) {
            Ok(s) => setup = Some(s),
            Err(e) => {
                out.error(format!("set-up: {e}"));
                return out;
            }
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let (setup, fleet) = setup.expect("set-up ran");

    // Traced, the phase only needs to reach every layer; untraced, its
    // p90 needs 100 jobs.
    let min_jobs = if args.trace { 1 } else { closed_loop::MIN_JOBS };
    let phase = phase(
        &setup,
        &fleet,
        lanes,
        args.seconds,
        min_jobs,
        args.trace,
        &mut out,
    );
    fleet.join();
    let Some(phase) = phase else {
        return out;
    };
    verify(&setup, &phase, &mut out);
    out.meta("jobs", phase.records.len());
    out.meta(
        "never_seen_jobs",
        phase.records.iter().filter(|(_, r)| r.miss).count(),
    );
    out.meta("cache_hits", phase.delta.hits);
    out.meta("cache_misses", phase.delta.misses);
    out.meta("measured_s", phase.measured_s);
    if args.trace {
        ledger(&setup, &phase, &mut out);
        return out;
    }

    let walls: Vec<f64> = phase
        .records
        .iter()
        .filter(|(_, r)| r.verdict.is_ok())
        .map(|(_, r)| r.wall_s)
        .collect();
    out.meta("job_s_p50_samples", walls.len());
    out.meta("job_s_p90_samples", walls.len());
    out.meta("job_s_p90_beyond", stats::beyond(walls.len(), 0.9));
    let totals: Vec<f64> = setup.references.iter().map(|r| r.total as f64).collect();
    match (stats::median(&walls), stats::tail_percentile(&walls, 0.9)) {
        (Some(p50), Some(p90)) => {
            out.metric("job_s_p50", p50, "s");
            out.metric("job_s_p90", p90, "s");
        }
        _ => out.error(format!("{} jobs cannot resolve a p90", walls.len())),
    }
    out.metric("jobs_per_s", walls.len() as f64 / phase.measured_s, "1/s");
    out.metric(
        "total_error_mean",
        stats::mean(&totals).expect("hot set"),
        "SAD",
    );
    out.metric("setup_s", stats::median(&setups).expect("set-up ran"), "s");
    out
}

/// The per-layer ledger of a traced phase: the pipeline layers from
/// composed replays of the hot set, the codec on the hot set's
/// payloads, and the service and gateway from the phase's replies,
/// spans and counter deltas.
fn ledger(setup: &Setup, traced: &Phase, out: &mut Outcome) {
    let config = config();
    let mut replays = Replays::new();
    for (pair, reference) in setup.pairs.iter().zip(&setup.references) {
        replays.run(pair, &config, reference, out);
    }
    let mut figures = replays.figures(&config, SIZE / GRID);
    codec(setup, &mut figures);

    let mut served = Ledger::new(layers::SERVED_JOB);
    served.absorb(&traced.spans);
    let landed: Vec<&Landed> = traced
        .records
        .iter()
        .filter_map(|(_, r)| r.verdict.as_ref().ok())
        .collect();
    let queue_wait: Vec<f64> = landed.iter().map(|l| l.queue_wait_ms).collect();
    let step_walls: Vec<f64> = landed.iter().map(|l| l.step_ms).collect();
    let d = traced.delta;
    figures.result_decode_ms = served.mean_ms(layers::RESULT_DECODE);
    figures.queue_wait_ms = stats::mean(&queue_wait).unwrap_or(0.0);
    figures.cache_hit_ratio = d.hits / (d.hits + d.misses).max(1.0);
    figures.route_ms = d.route_us_sum / d.route_us_count.max(1.0) / 1e3;
    figures.residual_ms =
        figures.route_ms - figures.queue_wait_ms - stats::mean(&step_walls).unwrap_or(0.0);
    figures.hop_ms = served.mean_ms(layers::ROUND_TRIP) - figures.route_ms;
    figures.unaccounted_ms = served.unaccounted_ms();
    out.meta("traced_jobs", served.jobs());
    out.meta("composed_jobs", replays.jobs());
    figures.emit(out);
}

/// Time the wire codec on the hot set's own payloads: encode each
/// request, hash its cache key, resolve its images, encode its result
/// (the result decode is timed on every served reply instead).
fn codec(setup: &Setup, figures: &mut Figures) {
    let time_ms = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed().as_secs_f64() * 1e3
    };
    let n = setup.specs.len() as f64;
    for (spec, result) in setup.specs.iter().zip(&setup.results) {
        let mut request = String::new();
        figures.request_encode_ms += time_ms(&mut || request = spec.to_json().encode()) / n;
        figures.request_bytes += request.len() as f64 / n;
        figures.cache_key_ms += time_ms(&mut || {
            std::hint::black_box(spec.cache_key());
        }) / n;
        figures.resolve_ms += time_ms(&mut || {
            std::hint::black_box(spec.resolve().expect("bench-built pixels"));
        }) / n;
        let mut encoded = String::new();
        figures.result_encode_ms += time_ms(&mut || encoded = result.to_json().encode()) / n;
        figures.result_bytes += encoded.len() as f64 / n;
    }
}
