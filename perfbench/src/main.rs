//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Human-readable lines first; the last line of standard
//! output is the JSON result.

use perfbench::jobs::Workload;
use perfbench::report::{self, Metric};
use perfbench::runner;
use perfbench::speed::{self, Slowdown};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 30.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let entry = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cosyn_flow|soc_sweep|trace_replay> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let (rev, dirty) = report::provenance();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let calib_start = report::calibration_ms();

    let o = runner::run(args.workload, args.seed, args.seconds, args.trace);

    let calib_end = report::calibration_ms();
    let r = &o.runner;
    let digest = r.pool_digest();
    let mut unscaled: Vec<_> = o.samples.iter().map(|s| s.run.took).collect();
    unscaled.sort_unstable();
    let jobs = report::job_times(&o);
    let (_, beyond_p90) = report::quantile(&jobs, 0.9);
    let slowdown = Slowdown::new(&o.kernel_runs).whole();
    let fail_rate = r.failed as f64 / r.attempted.max(1) as f64;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    println!(
        "provenance: rev={rev} dirty={dirty} cpus={cpus} seed={} timed_s={:.3} \
         (closed loop, 1 client, 1 thread)",
        args.seed,
        o.timed.as_secs_f64()
    );
    println!(
        "calibration: ref_sparse_wakeup_ms start={calib_start:.4} end={calib_end:.4} \
         (machine-drift diagnostic, not a metric)"
    );
    let setup: Vec<String> = o
        .setup
        .iter()
        .map(|p| format!("{:.4} s at {:.3}x", p.took.as_secs_f64(), p.slowdown))
        .collect();
    println!(
        "setup: {} passes [{}], process entry to timed phase {:.3} s",
        o.setup.len(),
        setup.join(", "),
        (o.timed_start - entry).as_secs_f64()
    );
    println!(
        "jobs: attempted={} failed={} fail_rate={fail_rate} ratio, samples={} \
         ({:.1} per pool job)",
        r.attempted,
        r.failed,
        o.samples.len(),
        o.samples.len() as f64 / r.digests.len().max(1) as f64
    );
    println!(
        "host speed: {} kernel runs, median {:.1} us = {slowdown:.3}x the reference host's {:.0} us",
        o.kernel_runs.len(),
        slowdown * speed::REFERENCE_NS / 1e3,
        speed::REFERENCE_NS / 1e3
    );
    println!(
        "job times: {} pool jobs ({beyond_p90} beyond p90), scaled to the reference host; \
         unscaled over all samples: {:.3} jobs/s, p50 {:.4} ms, p90 {:.4} ms",
        jobs.len(),
        o.samples.len() as f64 / o.timed.as_secs_f64().max(1e-9),
        ms(report::quantile(&unscaled, 0.5).0),
        ms(report::quantile(&unscaled, 0.9).0)
    );
    match digest {
        Some(d) => println!("digest: {d:#018x} over {} pool jobs", r.digests.len()),
        None => println!("digest: incomplete (a pool job never succeeded)"),
    }

    let metrics: Vec<Metric> = if args.trace {
        let mut spans = Vec::new();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let file = format!("{path}/spans-{name}-seed{}.tsv", args.seed);
        let written = std::fs::create_dir_all(path)
            .and_then(|()| r.tracer.write_tsv(&mut spans))
            .and_then(|()| std::fs::File::create(&file)?.write_all(&spans));
        match written {
            Ok(()) => println!("spans: {} written to {file}", r.tracer.spans().len()),
            Err(e) => eprintln!("perfbench: writing spans to {file}: {e}"),
        }
        println!("traced jobs: {}", o.traced_jobs);
        report::per_layer(&o)
    } else {
        report::end_to_end(&o, report::peak_rss_mb())
    };
    for x in &metrics {
        println!("metric {:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let correct = r.failed == 0 && digest.is_some() && r.attempted > 0;
    println!(
        "{}",
        report::json_line(correct, r.attempted, r.failed, &metrics)
    );
    ExitCode::SUCCESS
}
