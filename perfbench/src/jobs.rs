//! Workloads and their seeded job pools.
//!
//! Every pool is *stratified*: the seed picks each job's exact size
//! inside a fixed grid cell and shuffles the order, but every seed draws
//! the same grid. The mix of job costs is therefore fixed by design, so
//! runs with different seeds measure the same amount of work and their
//! job-time quantiles are stable order statistics.

use cosma_cosim::scenario::{LinkKind, ScenarioSpec, Topology};
use cosma_cosim::BusTiming;
use cosma_motor::MotorConfig;
use cosma_sim::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 1 flow on seeded motor-controller variants:
    /// co-simulate, co-synthesize, run the board, compare traces.
    CosynFlow,
    /// Sparse-activity SoCs from the scenario generator, run to
    /// completion and verified.
    SocSweep,
    /// Checkpointed debug sessions on dense traced rings: snapshot,
    /// replay twice, round-trip the trace through `tracebin`.
    TraceReplay,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::CosynFlow,
        Workload::SocSweep,
        Workload::TraceReplay,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CosynFlow => "cosyn_flow",
            Workload::SocSweep => "soc_sweep",
            Workload::TraceReplay => "trace_replay",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs run once, before timing, in each set-up pass (cache and
    /// allocator warm-up). Each pass takes about half a second, long
    /// enough to average over the host's second-to-second speed swings.
    #[must_use]
    pub fn warmup_jobs(self) -> usize {
        match self {
            Workload::CosynFlow => 24,
            Workload::SocSweep => 64,
            Workload::TraceReplay => 24,
        }
    }
}

/// One unit of work: the inputs of one design run.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// A motor-controller variant for the co-synthesis flow.
    Cosyn(MotorConfig),
    /// A generated SoC, run to completion.
    Soc(ScenarioSpec),
    /// A traced ring: run `prefix`, snapshot, finish, replay twice.
    Replay {
        /// The traced ring scenario.
        spec: ScenarioSpec,
        /// Simulated time run before the snapshot.
        prefix: Duration,
    },
}

/// SplitMix64: a small deterministic generator for job parameters.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (mixed, so nearby seeds diverge).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// A workload's job pool for one seed: the jobs the timed phase cycles
/// through, and the set-up pass's warm-up jobs.
#[derive(Debug, Clone)]
pub struct Pool {
    /// Timed jobs, in run order.
    pub jobs: Vec<Job>,
    /// Warm-up jobs: evenly spaced through the unshuffled grid, so every
    /// seed warms up on the same spread of sizes.
    pub warmup: Vec<Job>,
}

/// Builds the job pool of `workload` from `seed`.
#[must_use]
pub fn generate(workload: Workload, seed: u64) -> Pool {
    let mut rng = Rng::new(seed);
    let grid = match workload {
        Workload::CosynFlow => cosyn_grid(&mut rng),
        Workload::SocSweep => soc_grid(&mut rng),
        Workload::TraceReplay => replay_grid(&mut rng),
    };
    let n = workload.warmup_jobs();
    let warmup = (0..n).map(|i| grid[i * grid.len() / n].clone()).collect();
    let mut jobs = grid;
    rng.shuffle(&mut jobs);
    Pool { jobs, warmup }
}

/// 16 x 8 grid over segment count (8..=23) and segment length (10..=40).
fn cosyn_grid(rng: &mut Rng) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(128);
    for segments in 8..24 {
        for j in 0..8 {
            jobs.push(Job::Cosyn(MotorConfig {
                segments,
                segment_len: 10 + 4 * j + rng.below(3) as i64,
                ..MotorConfig::default()
            }));
        }
    }
    jobs
}

/// Per SoC class: values per link, chosen so each class's median job
/// costs about the same host time (the slowest class stays within about
/// 2x of the median job).
fn soc_values(topology: Topology, link: LinkKind) -> usize {
    match (topology, link) {
        (Topology::Pipeline, LinkKind::Handshake) => 4,
        (Topology::Pipeline, _) => 8,
        (Topology::Star, LinkKind::Handshake) => 3,
        (Topology::Star, _) => 4,
        (_, LinkKind::Handshake) => 6,
        _ => 12,
    }
}

/// 3 topologies x 3 link flavours x 16 link-count strata (48..=127).
fn soc_grid(rng: &mut Rng) -> Vec<Job> {
    let links = [
        LinkKind::Handshake,
        LinkKind::Batched {
            max_batch: 4,
            capacity: 8,
            timing: BusTiming::LengthOnly,
        },
        LinkKind::Batched {
            max_batch: 4,
            capacity: 8,
            timing: BusTiming::PayloadBeats,
        },
    ];
    let mut jobs = Vec::with_capacity(144);
    for t in 0..3 {
        for &link in &links {
            for s in 0..16 {
                let topology = match t {
                    0 => Topology::RandomDag {
                        seed: rng.next_u64(),
                    },
                    1 => Topology::Star,
                    _ => Topology::Pipeline,
                };
                jobs.push(Job::Soc(ScenarioSpec {
                    units: 48 + 5 * s + rng.below(5) as usize,
                    topology,
                    values_per_link: soc_values(topology, link),
                    link,
                    ..ScenarioSpec::default()
                }));
            }
        }
    }
    jobs
}

/// Tokens sent around each traced ring.
const REPLAY_TOKENS: usize = 2;

/// 2 link flavours x every ring size in 24..=39 x 4 snapshot-point
/// strata, traced throughout.
fn replay_grid(rng: &mut Rng) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(128);
    for timing in [BusTiming::LengthOnly, BusTiming::PayloadBeats] {
        for units in 24..40 {
            for q in 0..4 {
                let spec = ScenarioSpec {
                    units,
                    topology: Topology::Ring,
                    values_per_link: REPLAY_TOKENS,
                    link: LinkKind::Batched {
                        max_batch: 4,
                        capacity: 8,
                        timing,
                    },
                    trace: true,
                    ..ScenarioSpec::default()
                };
                // A ring finishes after about 420 ns (LengthOnly) to
                // 520 ns (PayloadBeats) of simulated time per link and
                // token; snapshot 32-60% of the way through.
                let per_token_ns = 167 + 21 * q + rng.below(21);
                jobs.push(Job::Replay {
                    spec,
                    prefix: Duration::from_ns((units * REPLAY_TOKENS) as u64 * per_token_ns),
                });
            }
        }
    }
    jobs
}
