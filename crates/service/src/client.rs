//! Client side of the wire protocol, plus a multi-threaded load
//! generator for exercising a running server.

use crate::protocol::{
    library_message, read_message, submit_message, write_message, Request, Response,
};
use mosaic_image::synth::XorShift64;
use mosaic_tilelib::LibraryJobSpec;
use photomosaic::{JobSpec, Json};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Response frames larger than this are treated as protocol errors.
/// Generous — results carry base64-free JSON images — but bounded, so a
/// confused or hostile server cannot make a client allocate without
/// limit.
const MAX_RESPONSE_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Floor for the retry back-off: a server hint of 0 must not turn the
/// retry loop into a hot spin.
const BACKOFF_FLOOR_MS: u64 = 1;

/// Cap for the exponential retry back-off.
const BACKOFF_CAP_MS: u64 = 250;

/// Back-off before retry number `rejection` (1-based), derived from the
/// server's `retry_after_ms` hint: clamped to a floor, doubled per
/// rejection up to a cap, then jittered to the upper half of the window
/// so simultaneous rejectees fan out instead of re-colliding.
fn backoff_delay_ms(hint_ms: u64, rejection: u64, rng: &mut XorShift64) -> u64 {
    let base = hint_ms.clamp(BACKOFF_FLOOR_MS, BACKOFF_CAP_MS);
    // Shift saturating at the cap; the exponent is bounded to keep the
    // shift well-defined.
    let exponent = rejection.saturating_sub(1).min(16) as u32;
    let scaled = base.saturating_mul(1u64 << exponent).min(BACKOFF_CAP_MS);
    // Jitter in [scaled/2, scaled] (never below the floor).
    let low = (scaled / 2).max(BACKOFF_FLOOR_MS);
    low + rng.next_below(scaled - low + 1)
}

/// A connected protocol client. One request/response at a time, in
/// order; open one client per thread for concurrency.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    rng: XorShift64,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        // Jitter seed: the ephemeral local port differs per connection,
        // which is exactly the property that de-synchronises retries.
        let seed = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(1);
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            rng: XorShift64::new(seed ^ 0xB0FF_5EED),
        })
    }

    /// Send one request and wait for its response.
    ///
    /// # Errors
    /// I/O failures, a server-side disconnect, or a malformed response
    /// (surfaced as [`std::io::ErrorKind::InvalidData`]).
    pub fn request(&mut self, request: &Request) -> std::io::Result<Response> {
        self.round_trip(request.to_json())
    }

    /// Send one request and wait for its response. The request tree is
    /// freed once written, not held while the job runs, and the response
    /// is moved out of the parsed reply rather than copied.
    fn round_trip(&mut self, request: Json) -> std::io::Result<Response> {
        write_message(&mut self.writer, &request)?;
        drop(request);
        let message = read_message(&mut self.reader, MAX_RESPONSE_FRAME_BYTES)
            .map_err(std::io::Error::from)?
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )
            })?;
        Response::try_from(message)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Submit one job.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn submit(&mut self, spec: &JobSpec) -> std::io::Result<Response> {
        self.round_trip(submit_message(spec))
    }

    /// Submit one job, retrying on the typed refusals — queue-full
    /// `rejected` from a server, `backend_down`/`no_backend_available`
    /// from a gateway — up to `max_attempts`. The `retry_after_ms` hint
    /// seeds a floored, capped exponential back-off with per-connection
    /// jitter — a hint of 0 never hot-spins, and simultaneous rejectees
    /// spread out instead of stampeding back together. Returns the final
    /// response (a refusal only if every attempt was refused) plus the
    /// number of refusals absorbed.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        max_attempts: usize,
    ) -> std::io::Result<(Response, u64)> {
        let attempts = max_attempts.max(1) as u64;
        let mut rejections = 0;
        loop {
            let response = self.submit(spec)?;
            let hint = match &response {
                Response::Rejected { retry_after_ms }
                | Response::BackendDown { retry_after_ms, .. }
                | Response::NoBackendAvailable { retry_after_ms } => *retry_after_ms,
                _ => return Ok((response, rejections)),
            };
            rejections += 1;
            if rejections >= attempts {
                return Ok((response, rejections));
            }
            let delay = backoff_delay_ms(hint, rejections, &mut self.rng);
            std::thread::sleep(Duration::from_millis(delay));
        }
    }

    /// Submit one tile-library job.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn submit_library(&mut self, spec: &LibraryJobSpec) -> std::io::Result<Response> {
        self.round_trip(library_message(spec))
    }

    /// Fetch aggregate metrics.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn stats(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Stats)
    }

    /// Fetch the Prometheus-style text exposition.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn metrics(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Metrics)
    }

    /// Liveness check.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn ping(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Ping)
    }

    /// Fetch a gateway's routing table and per-backend health. Plain
    /// servers answer this with a typed `error`.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn gateway_info(&mut self) -> std::io::Result<Response> {
        self.request(&Request::GatewayInfo)
    }

    /// Ask the server to shut down gracefully.
    ///
    /// # Errors
    /// See [`request`](Self::request).
    pub fn shutdown(&mut self) -> std::io::Result<Response> {
        self.request(&Request::Shutdown)
    }
}

/// Outcome of a [`run_load`] session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadSummary {
    /// Jobs that returned a result.
    pub completed: u64,
    /// Queue-full rejections absorbed (including retried ones).
    pub rejections: u64,
    /// Jobs that ended in an error response or an I/O failure.
    pub failed: u64,
    /// Results whose report marked the error matrix as cached.
    pub cache_hits: u64,
    /// Total wall time of the whole session in milliseconds.
    pub wall_ms: u64,
}

/// Drive a server with `specs`, `concurrency` connections at a time
/// (client mode for load generation). Spec `i` is handled by connection
/// `i % concurrency`; each job is retried on rejection up to 40 times.
/// Lanes run on the process-wide `mosaic-pool` workers, so repeated load
/// sessions (the bench harness runs many) reuse threads instead of
/// spawning a scope per call.
///
/// # Errors
/// Propagates connection failures; per-job errors are counted in the
/// summary instead.
pub fn run_load(
    addr: impl ToSocketAddrs,
    specs: &[JobSpec],
    concurrency: usize,
) -> std::io::Result<LoadSummary> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let concurrency = concurrency.max(1);
    let start = Instant::now();

    let run_lane = |lane: usize| -> std::io::Result<LoadSummary> {
        let mut lane_summary = LoadSummary::default();
        let lane_specs: Vec<&JobSpec> = specs.iter().skip(lane).step_by(concurrency).collect();
        if lane_specs.is_empty() {
            return Ok(lane_summary);
        }
        let mut client = Client::connect(addr)?;
        for spec in lane_specs {
            match client.submit_with_retry(spec, 40) {
                Ok((Response::Result { result }, rejections)) => {
                    lane_summary.completed += 1;
                    lane_summary.rejections += rejections;
                    let hit = result
                        .get("report")
                        .and_then(|r| r.get("cache_hit"))
                        .and_then(Json::as_bool);
                    if hit == Some(true) {
                        lane_summary.cache_hits += 1;
                    }
                }
                Ok((
                    Response::Rejected { .. }
                    | Response::BackendDown { .. }
                    | Response::NoBackendAvailable { .. },
                    rejections,
                )) => {
                    lane_summary.rejections += rejections;
                    lane_summary.failed += 1;
                }
                Ok(_) | Err(_) => lane_summary.failed += 1,
            }
        }
        Ok(lane_summary)
    };

    // One pool chunk per lane; each writes only its own slot.
    let mut lanes: Vec<Option<std::io::Result<LoadSummary>>> = Vec::new();
    lanes.resize_with(concurrency, || None);
    mosaic_pool::global().parallel_for_mut(&mut lanes, 1, |lane, slot| {
        slot[0] = Some(run_lane(lane));
    });

    let mut summary = LoadSummary::default();
    for slot in lanes {
        let lane = slot.unwrap_or_else(|| Err(std::io::Error::other("load lane skipped")))?;
        summary.completed += lane.completed;
        summary.rejections += lane.rejections;
        summary.failed += lane.failed;
        summary.cache_hits += lane.cache_hits;
    }
    summary.wall_ms = start.elapsed().as_millis() as u64;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServiceConfig};
    use mosaic_image::synth::Scene;
    use photomosaic::{Backend, ImageSource, MosaicBuilder};

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            input: ImageSource::Synth {
                scene: Scene::Plasma,
                size: 16,
                seed,
            },
            target: ImageSource::Synth {
                scene: Scene::Drapery,
                size: 16,
                seed,
            },
            config: MosaicBuilder::new()
                .grid(4)
                .backend(Backend::Serial)
                .build(),
        }
    }

    #[test]
    fn load_generator_completes_all_jobs() {
        let server = Server::start(ServiceConfig {
            workers: 2,
            queue_capacity: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let specs: Vec<JobSpec> = (0..8).map(|i| spec(i % 3)).collect();
        let summary = run_load(server.local_addr(), &specs, 4).unwrap();
        assert_eq!(summary.completed, 8);
        assert_eq!(summary.failed, 0);
        // 3 distinct jobs, 8 submissions: at least 5 served from cache.
        assert!(summary.cache_hits >= 5, "{summary:?}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn connect_failure_is_an_error() {
        // Port 1 on localhost is essentially never listening.
        assert!(Client::connect("127.0.0.1:1").is_err());
    }

    #[test]
    fn zero_hint_never_yields_a_zero_delay() {
        let mut rng = XorShift64::new(7);
        for rejection in 1..=50 {
            let delay = backoff_delay_ms(0, rejection, &mut rng);
            assert!(delay >= BACKOFF_FLOOR_MS, "rejection {rejection}: {delay}");
            assert!(delay <= BACKOFF_CAP_MS, "rejection {rejection}: {delay}");
        }
    }

    #[test]
    fn backoff_grows_toward_the_cap_and_stays_bounded() {
        let mut rng = XorShift64::new(11);
        // With a 10 ms hint the un-jittered schedule is 10, 20, 40, ...
        // capped at 250; jitter keeps each delay within [half, full].
        for (rejection, expected_scaled) in [(1, 10u64), (2, 20), (3, 40), (6, 250), (60, 250)] {
            for _ in 0..100 {
                let delay = backoff_delay_ms(10, rejection, &mut rng);
                assert!(delay <= expected_scaled, "rejection {rejection}: {delay}");
                assert!(
                    delay >= expected_scaled / 2,
                    "rejection {rejection}: {delay}"
                );
            }
        }
    }

    #[test]
    fn oversized_hints_are_clamped_to_the_cap() {
        let mut rng = XorShift64::new(13);
        for _ in 0..100 {
            assert!(backoff_delay_ms(u64::MAX, 1, &mut rng) <= BACKOFF_CAP_MS);
        }
    }

    #[test]
    fn jitter_actually_varies_between_connections() {
        let mut a = XorShift64::new(21);
        let mut b = XorShift64::new(22);
        let seq_a: Vec<u64> = (1..=8).map(|r| backoff_delay_ms(200, r, &mut a)).collect();
        let seq_b: Vec<u64> = (1..=8).map(|r| backoff_delay_ms(200, r, &mut b)).collect();
        assert_ne!(seq_a, seq_b, "distinct seeds must desynchronise retries");
    }
}
