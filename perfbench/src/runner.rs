//! The closed loop: one client, one job at a time, each started when the
//! previous one finishes.

use crate::flows::{run_job, Counters, JobError};
use crate::jobs::{generate, Job, Pool, Workload};
use crate::spans::Tracer;
use crate::speed::{self, Slowdown, Timed};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Pool jobs every workload has at least, so that at least ten job
/// times lie beyond p90.
pub const MIN_POOL: usize = 100;
/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_PASSES: usize = 3;
/// Hard stop for the timed phase, whatever the other conditions, so a
/// run always ends in bounded time.
const TIMED_CAP: Duration = Duration::from_secs(150);
/// Failure messages echoed to stderr (the rest are only counted).
const ECHOED_FAILURES: u64 = 5;

/// Job execution with per-job failure isolation, the per-job digest
/// check, span recording and layer counters.
#[derive(Debug)]
pub struct Runner {
    /// Span recorder (on only for traced executions).
    pub tracer: Tracer,
    /// Layer counters summed over traced executions.
    pub counters: Counters,
    /// First digest seen for each pool slot; later runs of the same job
    /// must reproduce it.
    pub digests: Vec<Option<u64>>,
    /// Executions attempted.
    pub attempted: u64,
    /// Executions that failed: a layer error, a failed check, a panic,
    /// or a digest differing from the job's first run.
    pub failed: u64,
    next_job_id: u64,
}

impl Runner {
    /// A runner for a pool of `slots` jobs.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        Runner {
            tracer: Tracer::new(false),
            counters: Counters::default(),
            digests: vec![None; slots],
            attempted: 0,
            failed: 0,
            next_job_id: 0,
        }
    }

    /// Runs pool slot `slot` through `exec` and returns its host time,
    /// or `None` when it failed. A panic inside `exec` is caught and
    /// counted as a failure; the run continues.
    pub fn attempt(
        &mut self,
        slot: usize,
        exec: impl FnOnce(&mut Tracer, &mut Counters) -> Result<u64, JobError>,
    ) -> Option<Duration> {
        self.attempted += 1;
        self.next_job_id += 1;
        self.tracer.begin_job(self.next_job_id);
        let t0 = Instant::now();
        let (tr, c) = (&mut self.tracer, &mut self.counters);
        let result = catch_unwind(AssertUnwindSafe(|| exec(tr, c)));
        let dt = t0.elapsed();
        self.tracer.end_job();
        let outcome = match result {
            Ok(Ok(d)) => match self.digests[slot] {
                Some(first) if first != d => Err(format!(
                    "digest {d:#018x} differs from this job's first run ({first:#018x})"
                )),
                _ => {
                    self.digests[slot] = Some(d);
                    Ok(dt)
                }
            },
            Ok(Err(e)) => Err(e),
            Err(_) => Err("job panicked".to_string()),
        };
        outcome
            .map_err(|e| {
                self.failed += 1;
                if self.failed <= ECHOED_FAILURES {
                    eprintln!("perfbench: job in slot {slot} failed: {e}");
                }
            })
            .ok()
    }

    /// Digest of the whole pool: every slot's first digest, in order.
    /// `None` until every slot has run successfully.
    #[must_use]
    pub fn pool_digest(&self) -> Option<u64> {
        let mut d = crate::digest::Digest::new();
        for slot in &self.digests {
            d.u64((*slot)?);
        }
        Some(d.finish())
    }
}

/// One verified untraced execution of a pool job in the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// The job's pool slot.
    pub slot: usize,
    /// When it ran and its host time.
    pub run: Timed,
}

/// One set-up pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupPass {
    /// Host time of the pass, without the host-speed kernel's runs.
    pub took: Duration,
    /// The host's slowdown during the pass, from the kernel run after
    /// every warm-up job.
    pub slowdown: f64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The set-up passes.
    pub setup: Vec<SetupPass>,
    /// Every verified untraced job execution of the timed phase.
    pub samples: Vec<Sample>,
    /// The host-speed kernel run after every job of the timed phase.
    pub kernel_runs: Vec<Timed>,
    /// When the timed phase started.
    pub timed_start: Instant,
    /// Length of the timed phase.
    pub timed: Duration,
    /// Traced run only: summed host time of the traced and of the
    /// untraced execution of each job both of which succeeded.
    pub traced_vs_plain: Option<(Duration, Duration)>,
    /// Traced executions that succeeded (the per-layer denominator).
    pub traced_jobs: u64,
    /// The runner, with its counts, digests, spans and counters.
    pub runner: Runner,
}

/// One set-up pass: generate the pool and run the warm-up jobs, timing
/// the host-speed kernel after each.
fn setup_pass(workload: Workload, seed: u64) -> (Pool, SetupPass) {
    let t0 = Instant::now();
    let pool = generate(workload, seed);
    let mut warm = Runner::new(pool.warmup.len());
    let (mut kernel_runs, mut in_kernel) = (Vec::new(), Duration::ZERO);
    for (i, job) in pool.warmup.iter().enumerate() {
        warm.attempt(i, |tr, c| run_job(job, tr, c));
        let k0 = Instant::now();
        kernel_runs.push(speed::time_kernel(Duration::ZERO));
        in_kernel += k0.elapsed();
    }
    let pass = SetupPass {
        took: t0.elapsed() - in_kernel,
        slowdown: Slowdown::new(&kernel_runs).whole(),
    };
    (pool, pass)
}

/// Runs `workload` from `seed`: [`SETUP_PASSES`] set-up passes, then a
/// timed phase of at least `seconds` that cycles through the pool in
/// order and covers every pool job at least once, timing the host-speed
/// kernel after every job. With `traced`, every timed job runs twice,
/// untraced and traced in alternating order, and only the untraced run
/// is sampled.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (pool, first) = setup_pass(workload, seed);
    let mut setup = vec![first];
    setup.extend((1..SETUP_PASSES).map(|_| setup_pass(workload, seed).1));
    let mut runner = Runner::new(pool.jobs.len());
    let want = Duration::from_secs_f64(seconds.max(0.0));
    let (mut samples, mut kernel_runs) = (Vec::new(), Vec::new());
    let (mut traced_ns, mut plain_ns, mut traced_jobs) = (Duration::ZERO, Duration::ZERO, 0);
    let t0 = Instant::now();
    let mut k = 0usize;
    loop {
        let elapsed = t0.elapsed();
        if elapsed >= TIMED_CAP || (k >= pool.jobs.len() && elapsed >= want) {
            break;
        }
        let slot = k % pool.jobs.len();
        let job: &Job = &pool.jobs[slot];
        let at = t0.elapsed();
        let plain = if traced {
            let mut pair = [None, None];
            for on in [!k.is_multiple_of(2), k.is_multiple_of(2)] {
                runner.tracer.set_on(on);
                pair[usize::from(on)] = runner.attempt(slot, |tr, c| run_job(job, tr, c));
            }
            match pair {
                [Some(plain), Some(trace)] => {
                    plain_ns += plain;
                    traced_ns += trace;
                    traced_jobs += 1;
                    Some(plain)
                }
                _ => None,
            }
        } else {
            runner.attempt(slot, |tr, c| run_job(job, tr, c))
        };
        if let Some(took) = plain {
            samples.push(Sample {
                slot,
                run: Timed { at, took },
            });
        }
        kernel_runs.push(speed::time_kernel(t0.elapsed()));
        k += 1;
    }
    Outcome {
        setup,
        samples,
        kernel_runs,
        timed_start: t0,
        timed: t0.elapsed(),
        traced_vs_plain: traced.then_some((traced_ns, plain_ns)),
        traced_jobs,
        runner,
    }
}
