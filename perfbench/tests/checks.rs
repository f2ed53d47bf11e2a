//! The benchmark's own checks: failures reach `failed`, digests repeat,
//! span self times add up, and the metric names match `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds work too, more slowly).

use perfbench::flows::{run_job, Counters};
use perfbench::jobs::{generate, Job, Workload};
use perfbench::report::{end_to_end, per_layer, quantile};
use perfbench::runner::{Outcome, Runner, Sample, SetupPass, MIN_POOL};
use perfbench::spans::Tracer;
use perfbench::speed::{Timed, REFERENCE_NS};
use std::time::Duration;

/// The first `n` jobs of a workload's pool for `seed`.
fn first_jobs(w: Workload, seed: u64, n: usize) -> Vec<Job> {
    generate(w, seed).jobs.into_iter().take(n).collect()
}

/// An outcome with no jobs run.
fn empty_outcome() -> Outcome {
    Outcome {
        setup: vec![SetupPass {
            took: Duration::ZERO,
            slowdown: 1.0,
        }],
        samples: vec![],
        kernel_runs: vec![],
        timed_start: std::time::Instant::now(),
        timed: Duration::ZERO,
        traced_vs_plain: None,
        traced_jobs: 0,
        runner: Runner::new(0),
    }
}

/// Runs `jobs` once each in a fresh runner and returns the runner.
fn run_all(jobs: &[Job]) -> Runner {
    let mut r = Runner::new(jobs.len());
    for (slot, job) in jobs.iter().enumerate() {
        r.attempt(slot, |tr, c| run_job(job, tr, c));
    }
    r
}

#[test]
fn same_seed_gives_same_jobs_and_digest() {
    for w in Workload::ALL {
        let a = first_jobs(w, 42, 2);
        assert_eq!(
            a,
            first_jobs(w, 42, 2),
            "{}: pool not fixed by seed",
            w.name()
        );
        assert_ne!(
            generate(w, 42).jobs,
            generate(w, 43).jobs,
            "{}: seed does not vary the jobs",
            w.name()
        );
        let (r1, r2) = (run_all(&a), run_all(&a));
        assert_eq!(r1.failed, 0, "{}: a generated job failed", w.name());
        let d = r1.pool_digest().expect("every job succeeded");
        assert_eq!(
            Some(d),
            r2.pool_digest(),
            "{}: digest not repeatable",
            w.name()
        );
    }
}

#[test]
fn failures_raise_fail_rate_and_the_run_continues() {
    let good = first_jobs(Workload::CosynFlow, 1, 1).remove(0);
    let broken_setup = Job::Soc(cosma_cosim::scenario::ScenarioSpec {
        units: 0,
        ..Default::default()
    });
    let mut r = Runner::new(2);
    assert!(r.attempt(0, |tr, c| run_job(&good, tr, c)).is_some());
    // A layer error (`CosimError` from an empty scenario).
    assert!(r
        .attempt(1, |tr, c| run_job(&broken_setup, tr, c))
        .is_none());
    // A panic inside a job is caught.
    assert!(r.attempt(1, |_, _| panic!("injected")).is_none());
    // A broken check: the job ran but its output is rejected.
    assert!(r
        .attempt(0, |tr, c| run_job(&good, tr, c)
            .and_then(|_| Err("injected check failure".to_string())))
        .is_none());
    // Output that differs from the job's first run.
    r.digests[0] = r.digests[0].map(|d| d ^ 1);
    assert!(r.attempt(0, |tr, c| run_job(&good, tr, c)).is_none());
    r.digests[0] = None;
    // The run goes on: the next good job still passes.
    assert!(r.attempt(0, |tr, c| run_job(&good, tr, c)).is_some());
    assert_eq!((r.attempted, r.failed), (6, 4));
}

#[test]
fn self_times_partition_each_job() {
    let mut tr = Tracer::new(true);
    let mut c = Counters::default();
    let job = first_jobs(Workload::SocSweep, 5, 1).remove(0);
    tr.begin_job(1);
    run_job(&job, &mut tr, &mut c).expect("job runs");
    tr.end_job();
    let spans = tr.spans();
    let root = &spans[0];
    assert_eq!((root.name, root.parent), ("job", None));
    assert!(spans[1..].iter().all(|s| s.parent == Some(0) && s.job == 1));
    let total: u64 = tr.self_times().values().sum();
    assert_eq!(total, root.end_ns - root.start_ns);
    assert!(c.modules_stepped > 0 && c.events > 0 && c.sim_cycles > 0);
}

#[test]
fn hundred_samples_leave_ten_beyond_p90() {
    let s: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
    assert_eq!(quantile(&s, 0.9), (Duration::from_millis(90), 10));
    assert_eq!(quantile(&s, 0.5), (Duration::from_millis(50), 50));
}

#[test]
fn every_pool_leaves_ten_job_times_beyond_p90() {
    for w in Workload::ALL {
        let n = generate(w, 9).jobs.len();
        assert!(n >= MIN_POOL, "{}: pool of {n}", w.name());
        let times: Vec<Duration> = (1..=n as u64).map(Duration::from_micros).collect();
        assert!(quantile(&times, 0.9).1 >= 10, "{}", w.name());
    }
}

/// 100 pool jobs, job `i` sampled at i, 3i and 2i ms, on a host that
/// runs `slow` times slower than the reference host.
fn outcome_on_host(slow: u32) -> Outcome {
    let ms = |n: u64| Duration::from_millis(n) * slow;
    let mut samples = Vec::new();
    let mut kernel_runs = Vec::new();
    for (k, f) in [1, 3, 2].into_iter().enumerate() {
        for i in 1..=100u64 {
            let at = Duration::from_secs(k as u64 * 5 + i / 50);
            samples.push(Sample {
                slot: i as usize,
                run: Timed {
                    at,
                    took: ms(f * i),
                },
            });
            let took = Duration::from_nanos(REFERENCE_NS as u64) * slow;
            kernel_runs.push(Timed { at, took });
        }
    }
    Outcome {
        setup: [400, 300, 500]
            .map(|n| SetupPass {
                took: ms(n),
                slowdown: f64::from(slow),
            })
            .to_vec(),
        samples,
        kernel_runs,
        ..empty_outcome()
    }
}

#[test]
fn end_to_end_times_are_pool_job_medians_on_the_reference_host() {
    for slow in [1, 2] {
        let e2e = end_to_end(&outcome_on_host(slow), 1.0);
        let value = |name: &str| e2e.iter().find(|x| x.name == name).unwrap().value;
        // Scaling may round each sample by a nanosecond.
        assert!(
            (value("job_p50_ms") - 100.0).abs() < 1e-5,
            "slowdown {slow}"
        );
        assert!(
            (value("job_p90_ms") - 180.0).abs() < 1e-5,
            "slowdown {slow}"
        );
        assert!((value("jobs_per_s") - 100.0 / 10.1).abs() < 1e-6);
        assert!((value("setup_s") - 0.4).abs() < 1e-9);
    }
}

#[test]
fn metric_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let o = empty_outcome();
    let names: Vec<&str> = end_to_end(&o, 0.0)
        .iter()
        .chain(per_layer(&o).iter())
        .map(|m| m.name)
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(json.matches("\"unit\":").count(), names.len());
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
