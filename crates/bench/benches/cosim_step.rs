//! Co-simulation backplane throughput: module activations per second,
//! and the many-unit scaling story (sharded+batched vs per-unit).

use cosma_comm::handshake_unit;
use cosma_core::{Expr, ModuleBuilder, ModuleKind, ServiceCall, Stmt, Type, Value};
use cosma_cosim::scenario::{build_scenario, LinkKind, Scenario, ScenarioSpec, Topology};
use cosma_cosim::{BusTiming, Cosim, CosimConfig, SchedulingConfig};
use cosma_sim::Duration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn ping_pong_cosim(pairs: usize) -> Cosim {
    let mut cosim = Cosim::new(CosimConfig::default());
    for k in 0..pairs {
        let link = cosim.add_fsm_unit(&format!("link{k}"), handshake_unit("hs", Type::INT16));
        let mut p = ModuleBuilder::new(format!("p{k}"), ModuleKind::Software);
        let done = p.var("D", Type::Bool, Value::Bool(false));
        let b = p.binding("chan", "hs");
        let s = p.state("S");
        p.actions(
            s,
            vec![Stmt::Call(ServiceCall {
                binding: b,
                service: "put".into(),
                args: vec![Expr::int(1)],
                done: Some(done),
                result: None,
            })],
        );
        p.transition(s, None, s);
        p.initial(s);
        cosim
            .add_module(&p.build().expect("ok"), &[("chan", link)])
            .expect("added");

        let mut q = ModuleBuilder::new(format!("c{k}"), ModuleKind::Hardware);
        let done = q.var("D", Type::Bool, Value::Bool(false));
        let got = q.var("G", Type::INT16, Value::Int(0));
        let b = q.binding("chan", "hs");
        let s = q.state("S");
        q.actions(
            s,
            vec![Stmt::Call(ServiceCall {
                binding: b,
                service: "get".into(),
                args: vec![],
                done: Some(done),
                result: Some(got),
            })],
        );
        q.transition(s, None, s);
        q.initial(s);
        cosim
            .add_module(&q.build().expect("ok"), &[("chan", link)])
            .expect("added");
    }
    cosim
}

/// Units instantiated but never called: with controller gating their
/// clocked steps are skipped once the protocol proves itself idle.
fn idle_units_cosim(units: usize) -> Cosim {
    let mut cosim = Cosim::new(CosimConfig::default());
    for k in 0..units {
        cosim.add_fsm_unit(&format!("quiet{k}"), handshake_unit("hs", Type::INT16));
    }
    cosim
}

fn bench_cosim(c: &mut Criterion) {
    let mut group = c.benchmark_group("cosim_step");
    for pairs in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("ping_pong_pairs", pairs),
            &pairs,
            |b, &n| {
                b.iter_batched(
                    || ping_pong_cosim(n),
                    |mut cosim| cosim.run_for(Duration::from_us(50)).expect("runs"),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    for units in [16usize, 64] {
        group.bench_with_input(BenchmarkId::new("idle_units", units), &units, |b, &n| {
            b.iter_batched(
                || idle_units_cosim(n),
                |mut cosim| cosim.run_for(Duration::from_us(50)).expect("runs"),
                criterion::BatchSize::SmallInput,
            );
        });
    }

    // The many-unit headline: an N-unit pipeline carrying a burst of
    // traffic then idling — the realistic many-unit regime. `per_unit`
    // is the PR-2-era baseline (one clocked process per unit AND per
    // module, stepped every edge, classic per-value handshakes, no
    // parking); `sharded` adds the unified activation scheduler —
    // sharded module+unit dispatch, blocked-FSM parking on completion
    // wires — plus batched bus transactions.
    fn many_units(
        n: usize,
        topology: Topology,
        scheduling: SchedulingConfig,
        link: LinkKind,
    ) -> Scenario {
        build_scenario(&ScenarioSpec {
            units: n,
            topology,
            values_per_link: 4,
            link,
            config: CosimConfig::default(),
            scheduling,
            trace: false,
            domains: Default::default(),
        })
        .expect("scenario builds")
    }
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("many_units_per_unit", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    many_units(
                        n,
                        Topology::Pipeline,
                        SchedulingConfig::legacy(),
                        LinkKind::Handshake,
                    )
                },
                |mut s| s.cosim.run_for(Duration::from_us(200)).expect("runs"),
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("many_units_sharded", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    many_units(
                        n,
                        Topology::Pipeline,
                        SchedulingConfig::sharded(),
                        LinkKind::Batched {
                            max_batch: 8,
                            capacity: 32,
                            timing: BusTiming::LengthOnly,
                        },
                    )
                },
                |mut s| s.cosim.run_for(Duration::from_us(200)).expect("runs"),
                criterion::BatchSize::SmallInput,
            );
        });
        // Cycle-accurate payload beats on the same scenario: every
        // batch additionally occupies the bus for one DATA beat per
        // value, so this row tracks the cost of timing fidelity
        // against the length-only fast path above.
        group.bench_with_input(BenchmarkId::new("payload_beats", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    many_units(
                        n,
                        Topology::Pipeline,
                        SchedulingConfig::sharded(),
                        LinkKind::Batched {
                            max_batch: 8,
                            capacity: 32,
                            timing: BusTiming::PayloadBeats,
                        },
                    )
                },
                |mut s| s.cosim.run_for(Duration::from_us(200)).expect("runs"),
                criterion::BatchSize::SmallInput,
            );
        });
    }

    // Mostly-blocked consumers: N links with a consumer each but a
    // producer only on link 0 — N-1 consumers are service-blocked the
    // whole run. With parking they cost zero activations; the legacy
    // path pays one no-op wakeup per consumer per edge.
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("blocked_per_unit", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    many_units(
                        n,
                        Topology::Starved,
                        SchedulingConfig::legacy(),
                        LinkKind::Handshake,
                    )
                },
                |mut s| s.cosim.run_for(Duration::from_us(200)).expect("runs"),
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("blocked_sharded", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    many_units(
                        n,
                        Topology::Starved,
                        SchedulingConfig::sharded(),
                        LinkKind::Handshake,
                    )
                },
                // Parking itself is asserted by the scenario test
                // starved_consumers_park_at_zero_activation_cost; the
                // timed routine matches blocked_per_unit exactly.
                |mut s| s.cosim.run_for(Duration::from_us(200)).expect("runs"),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cosim
}
criterion_main!(benches);
