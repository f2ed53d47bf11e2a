//! Host-speed reference for the end-to-end timings.
//!
//! On a shared cloud VM the host's speed swings by up to 2x for seconds
//! to minutes at a time, and every workload slows by about the same
//! factor. A fixed kernel that uses only the standard library is timed
//! after every job. Each job time is divided by how much slower than
//! [`REFERENCE_NS`] the kernel ran around the job's start, so the
//! end-to-end timings read as host time on a reference host on which the
//! kernel takes [`REFERENCE_NS`]. The kernel never calls the library
//! crates, so a change to them cannot move the scale.

use crate::report::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time of one kernel run on the reference host, in ns: about its
/// time on a 2-vCPU 2.1 GHz Xeon VM when nothing else loads the host.
pub const REFERENCE_NS: f64 = 110_000.0;
/// Length of the windows of the timed phase whose median kernel time
/// scales the jobs started in them.
pub const WINDOW: Duration = Duration::from_secs(2);

/// Something timed in the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// Start, since the timed phase began.
    pub at: Duration,
    /// Host time taken.
    pub took: Duration,
}

/// Runs the kernel twice, starting `at`, and times the second run. The
/// first run brings the kernel's code and data back into the caches, so
/// the timed run does not depend on what the job before it left there.
#[must_use]
pub fn time_kernel(at: Duration) -> Timed {
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
    black_box(kernel(black_box(SEED)));
    let t0 = Instant::now();
    black_box(kernel(black_box(SEED)));
    Timed {
        at,
        took: t0.elapsed(),
    }
}

/// About 0.1-0.2 ms of table updates, branches on pseudo-random bits
/// and a sort, all on the stack: it allocates nothing, so the heap a job
/// leaves behind cannot change its time.
fn kernel(seed: u64) -> u64 {
    let mut table = [0u64; 1024];
    let mut sorted = [0u32; 4096];
    let (mut x, mut acc) = (seed, 0u64);
    for i in 0..6000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x % 1024) as usize;
        match x % 4 {
            0 => table[slot] = i,
            1 => acc = acc.wrapping_add(table[slot]),
            2 => table[slot * 7 % 1024] ^= x,
            _ => acc ^= x.rotate_left((i % 64) as u32),
        }
    }
    for (i, e) in (0u32..).zip(sorted.iter_mut()) {
        *e = i.wrapping_mul(2_654_435_761) ^ acc as u32;
    }
    sorted.sort_unstable();
    acc ^ u64::from(sorted[sorted.len() / 2])
}

/// How much slower than the reference host the running host was, per window
/// of the timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Slowdown {
    windows: Vec<Option<f64>>,
    whole: f64,
}

impl Slowdown {
    /// The slowdown measured by `kernel_runs`; 1 when there are none.
    #[must_use]
    pub fn new(kernel_runs: &[Timed]) -> Self {
        let factor = |v: &[Duration]| median(v).as_nanos() as f64 / REFERENCE_NS;
        let mut by_window: Vec<Vec<Duration>> = Vec::new();
        for r in kernel_runs {
            let i = window(r.at);
            if by_window.len() <= i {
                by_window.resize(i + 1, Vec::new());
            }
            by_window[i].push(r.took);
        }
        let all: Vec<Duration> = kernel_runs.iter().map(|r| r.took).collect();
        Slowdown {
            windows: by_window
                .iter()
                .map(|v| (!v.is_empty()).then(|| factor(v)))
                .collect(),
            whole: if all.is_empty() { 1.0 } else { factor(&all) },
        }
    }

    /// Slowdown around `at`: its window's, or the whole phase's when the
    /// kernel did not run in that window.
    #[must_use]
    pub fn at(&self, at: Duration) -> f64 {
        self.windows
            .get(window(at))
            .copied()
            .flatten()
            .unwrap_or(self.whole)
    }

    /// Slowdown over the whole timed phase.
    #[must_use]
    pub fn whole(&self) -> f64 {
        self.whole
    }
}

fn window(at: Duration) -> usize {
    (at.as_nanos() / WINDOW.as_nanos()) as usize
}
