//! Streaming throughput — wall time for the online pipeline to drain a
//! full arrival stream (every window driven, every task settled),
//! per method and per windowing policy, plus the sharded mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpta_core::Method;
use dpta_spatial::{Aabb, GridPartition};
use dpta_stream::{
    run_sharded, ArrivalModel, ArrivalStream, ShardStrategy, StreamConfig, StreamDriver,
    StreamScenario, WindowPolicy,
};
use dpta_workloads::{Dataset, Scenario};
use std::hint::black_box;
use std::time::Duration;

fn bench_stream(scale: f64) -> ArrivalStream {
    StreamScenario {
        scenario: Scenario {
            dataset: Dataset::Normal,
            batch_size: ((1000.0 * scale).round() as usize).max(20),
            n_batches: 2,
            ..Scenario::default()
        },
        task_model: ArrivalModel::Bursty {
            base_rate: 0.05,
            burst_rate: 0.5,
            period: 600.0,
            burst_fraction: 0.25,
        },
        worker_model: ArrivalModel::Poisson { rate: 0.02 },
        initial_worker_fraction: 0.8,
    }
    .stream()
}

fn cfg(policy: WindowPolicy) -> StreamConfig {
    StreamConfig {
        policy,
        ..StreamConfig::default()
    }
}

fn time_to_drain(c: &mut Criterion) {
    let stream = bench_stream(0.1);
    let mut group = c.benchmark_group("stream_time_to_drain");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    for (policy_name, policy) in [
        ("time300s", WindowPolicy::ByTime { width: 300.0 }),
        ("count50", WindowPolicy::ByCount { tasks: 50 }),
    ] {
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let cfg = cfg(policy);
            let engine = method.engine(&cfg.params);
            group.bench_with_input(
                BenchmarkId::new(method.name(), policy_name),
                &stream,
                |b, stream| {
                    b.iter(|| {
                        black_box(
                            StreamDriver::new(engine.as_ref(), cfg.clone()).run(black_box(stream)),
                        )
                    })
                },
            );
        }
    }

    // Sharded drain: the parallel mode's end-to-end cost on the same
    // stream (approximate decomposition — the comparison of interest is
    // wall time, not utility).
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
    let cfg = cfg(WindowPolicy::ByTime { width: 300.0 });
    let engine = Method::Puce.engine(&cfg.params);
    group.bench_with_input(
        BenchmarkId::new("PUCE", "time300s_sharded2x2"),
        &stream,
        |b, stream| {
            b.iter(|| {
                black_box(run_sharded(
                    engine.as_ref(),
                    black_box(stream),
                    &cfg,
                    &part,
                    ShardStrategy::DropPairs,
                ))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, time_to_drain);
criterion_main!(benches);
