//! A std-only parallel job pool.
//!
//! `std::thread::scope` workers drain a shared `Mutex<VecDeque>` of job
//! indices. Each job runs under `catch_unwind`, so one panicking
//! configuration cannot take down a sweep; a panicked attempt is retried
//! up to [`PoolConfig::retries`] times. Results come back in **submission
//! order** regardless of which worker finished first, so sweeps stay
//! deterministic.
//!
//! No registry dependencies: the workspace's hermetic `--offline` build is
//! preserved.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Pool sizing and failure policy.
#[derive(Debug, Clone, Default)]
pub struct PoolConfig {
    /// Worker threads; 0 means [`default_workers`].
    pub workers: usize,
    /// Extra attempts after a panicked one; 0 by default, since a
    /// deterministic simulation that panics once panics again.
    pub retries: u32,
}

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Every attempt panicked; `message` is from the last panic payload.
    Panicked {
        /// Attempts made (1 + retries).
        attempts: u32,
        /// Panic payload of the final attempt, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { attempts, message } => {
                write!(f, "panicked on all {attempts} attempt(s): {message}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Worker count matching the machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// One observable job-lifecycle event. Timestamps are wall-clock
/// milliseconds from pool start — the pool is host-side machinery, so
/// its trace lives on the wall clock, not simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolEvent {
    /// Milliseconds since the pool started.
    pub at_ms: u64,
    /// What happened: `"panic"` (a failed attempt), `"retry"` (another
    /// attempt follows a failure), or `"done"`.
    pub what: &'static str,
    /// Submission-order job index.
    pub job: usize,
    /// 1-based attempt number the event belongs to.
    pub attempt: u32,
}

/// Aggregate counters over one pool run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that returned a value.
    pub succeeded: usize,
    /// Jobs that exhausted every attempt.
    pub failed: usize,
    /// Extra attempts made after failures.
    pub retries: u64,
    /// Attempts that panicked.
    pub panics: u64,
}

/// What [`run_jobs_observed`] saw: counters plus the event log, sorted
/// by time (ties by job then attempt) for stable export.
#[derive(Debug, Clone, Default)]
pub struct PoolObs {
    /// Aggregate counters.
    pub stats: PoolStats,
    /// Per-attempt lifecycle events.
    pub events: Vec<PoolEvent>,
}

/// Runs `jobs` on the pool and returns one result per job, in submission
/// order. Jobs must be `Fn` (not `FnOnce`) so a panicked attempt can be
/// retried.
pub fn run_jobs<T, F>(cfg: &PoolConfig, jobs: Vec<F>) -> Vec<Result<T, JobError>>
where
    T: Send,
    F: Fn() -> T + Send + Sync,
{
    run_jobs_observed(cfg, jobs).0
}

/// Like [`run_jobs`], but also returns what happened: the retries and
/// panic isolations that [`run_jobs`] absorbs silently. Feed
/// [`PoolObs::events`] to a tracer and [`PoolObs::stats`] to a metrics
/// registry to make sweep failures observable.
#[allow(
    clippy::disallowed_methods,
    reason = "the run pool's threads and timing never reach simulated state"
)]
#[allow(
    clippy::expect_used,
    clippy::cast_possible_truncation,
    reason = "a poisoned lock re-raises a job panic; ms clamped"
)]
pub fn run_jobs_observed<T, F>(
    cfg: &PoolConfig,
    jobs: Vec<F>,
) -> (Vec<Result<T, JobError>>, PoolObs)
where
    T: Send,
    F: Fn() -> T + Send + Sync,
{
    let n = jobs.len();
    let workers = match cfg.workers {
        0 => default_workers(),
        w => w,
    }
    .min(n.max(1));

    let started = Instant::now();
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
    let results: Vec<Mutex<Option<Result<T, JobError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let events: Mutex<Vec<PoolEvent>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(i) = queue.lock().expect("queue lock").pop_front() else {
                    return;
                };
                let outcome = run_one(&jobs[i], cfg, |what, attempt| {
                    events.lock().expect("event lock").push(PoolEvent {
                        at_ms: started.elapsed().as_millis().min(u64::MAX as u128) as u64,
                        what,
                        job: i,
                        attempt,
                    });
                });
                *results[i].lock().expect("result lock") = Some(outcome);
            });
        }
    });

    let results: Vec<Result<T, JobError>> = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result lock")
                .expect("every queued job ran")
        })
        .collect();
    let mut events = events.into_inner().expect("event lock");
    events.sort_by_key(|e| (e.at_ms, e.job, e.attempt));
    let count = |what: &str| events.iter().filter(|e| e.what == what).count() as u64;
    let stats = PoolStats {
        jobs: n,
        succeeded: results.iter().filter(|r| r.is_ok()).count(),
        failed: results.iter().filter(|r| r.is_err()).count(),
        retries: count("retry"),
        panics: count("panic"),
    };
    (results, PoolObs { stats, events })
}

/// One job with retry: the error carries the final attempt's panic.
/// `observe` is called with (`what`, 1-based attempt) for every failed
/// attempt, every retry, and the successful completion.
#[allow(clippy::expect_used, reason = "retries + 1 ≥ 1 attempts ran")]
fn run_one<T>(
    job: &(impl Fn() -> T + Sync),
    cfg: &PoolConfig,
    mut observe: impl FnMut(&'static str, u32),
) -> Result<T, JobError> {
    let attempts = cfg.retries + 1;
    let mut last_err = None;
    for attempt in 1..=attempts {
        if attempt > 1 {
            observe("retry", attempt);
        }
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(v) => {
                observe("done", attempt);
                return Ok(v);
            }
            Err(payload) => {
                observe("panic", attempt);
                let message = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                last_err = Some(JobError::Panicked { attempts, message });
            }
        }
    }
    Err(last_err.expect("at least one attempt"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    fn cfg(workers: usize) -> PoolConfig {
        PoolConfig {
            workers,
            retries: 1,
        }
    }

    #[test]
    fn results_keep_submission_order() {
        // Jobs finish in scrambled order (later jobs sleep less), but the
        // result vector must still line up with the inputs.
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis((16 - i) % 4));
                    i * i
                }
            })
            .collect();
        let out = run_jobs(&cfg(4), jobs);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("ok"), (i * i) as u64);
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom in job 1")),
            Box::new(|| 3),
        ];
        let out = run_jobs(&cfg(2), jobs);
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3), "jobs after the panic still run");
        match &out[1] {
            Err(JobError::Panicked { attempts, message }) => {
                assert_eq!(*attempts, 2, "one retry configured");
                assert!(message.contains("boom"), "payload surfaced: {message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn flaky_job_succeeds_on_retry() {
        let tries = AtomicU32::new(0);
        let jobs = vec![|| {
            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            42u32
        }];
        let out = run_jobs(&cfg(1), jobs);
        assert_eq!(out[0], Ok(42));
        assert_eq!(tries.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn adversarial_durations_still_come_back_in_submission_order() {
        // Worst case for ordering bugs: job 0 is by far the slowest, the
        // rest finish immediately and in reverse queue order across many
        // workers. The result vector must still be index-aligned.
        let jobs: Vec<Box<dyn Fn() -> usize + Send + Sync>> = (0..24usize)
            .map(|i| {
                let sleep_ms = if i == 0 { 30 } else { (24 - i as u64) % 3 };
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                    i
                }) as Box<dyn Fn() -> usize + Send + Sync>
            })
            .collect();
        let out = run_jobs(&cfg(8), jobs);
        let got: Vec<usize> = out.into_iter().map(|r| r.expect("ok")).collect();
        assert_eq!(got, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn observed_run_reports_retries_and_panics() {
        let tries = AtomicU32::new(0);
        let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = vec![
            Box::new(|| 1),
            Box::new(|| {
                if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient");
                }
                2
            }),
        ];
        let (out, obs) = run_jobs_observed(&cfg(2), jobs);
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Ok(2));
        assert_eq!(obs.stats.jobs, 2);
        assert_eq!(obs.stats.succeeded, 2);
        assert_eq!(obs.stats.failed, 0);
        assert_eq!(obs.stats.panics, 1, "first attempt of job 1 panicked");
        assert_eq!(obs.stats.retries, 1);
        // The panic event names job 1, attempt 1; a retry follows.
        let panic = obs
            .events
            .iter()
            .find(|e| e.what == "panic")
            .expect("panic recorded");
        assert_eq!((panic.job, panic.attempt), (1, 1));
        assert!(obs.events.iter().any(|e| e.what == "retry" && e.job == 1));
        assert_eq!(obs.events.iter().filter(|e| e.what == "done").count(), 2);
        // Events come back time-sorted.
        assert!(obs.events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        let out = run_jobs(&PoolConfig::default(), vec![|| 7u8, || 8u8]);
        assert_eq!(out, vec![Ok(7), Ok(8)]);
        assert!(default_workers() >= 1);
    }
}
