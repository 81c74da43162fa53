//! Closed-loop callers: each lane takes the next job index, runs it,
//! and only then takes another.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Jobs an untraced phase completes even past `--seconds`: a p90 needs
/// ten samples beyond it.
pub const MIN_JOBS: usize = 100;

/// What one measured phase of closed-loop lanes produced.
pub struct Phase<R> {
    /// Every job's index and record, in job order.
    pub records: Vec<(usize, R)>,
    /// Wall time of the whole phase.
    pub measured_s: f64,
}

/// Run `lanes` closed-loop callers over one shared job counter until
/// `seconds` have passed and at least `min_jobs` jobs completed, or
/// until [`crate::MAX_PHASE`]. Each lane builds its own state with
/// `lane` and runs job `j` with `job(&mut state, j)`. A lane finishes
/// the job it took before it stops, so the job indices that ran are
/// exactly `0..records.len()`.
pub fn run<L, R: Send>(
    lanes: usize,
    seconds: Duration,
    min_jobs: usize,
    lane: impl Fn() -> L + Sync,
    job: impl Fn(&mut L, usize) -> R + Sync,
) -> Phase<R> {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let mut records: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|_| {
                let (next, done, lane, job) = (&next, &done, &lane, &job);
                scope.spawn(move || {
                    let mut state = lane();
                    let mut records = Vec::new();
                    loop {
                        let elapsed = started.elapsed();
                        let enough = elapsed >= seconds && done.load(Ordering::SeqCst) >= min_jobs;
                        if enough || elapsed >= crate::MAX_PHASE {
                            break;
                        }
                        let j = next.fetch_add(1, Ordering::SeqCst);
                        records.push((j, job(&mut state, j)));
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop lanes do not panic"))
            .collect()
    });
    let measured_s = started.elapsed().as_secs_f64();
    records.sort_by_key(|&(j, _)| j);
    Phase {
        records,
        measured_s,
    }
}
