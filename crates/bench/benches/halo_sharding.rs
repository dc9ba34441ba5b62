//! Drop-pairs vs boundary-halo sharding on a *non-disjoint* stream —
//! what the halo protocol costs (reconciliation passes, shard reruns)
//! and what it buys (recovered matches) against the unsharded
//! baseline and the lossy drop-pairs mode.

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

/// A Table X workload streamed over the full frame: worker discs land
/// wherever the generator puts them, so plenty straddle the 2×2 grid's
/// boundaries — the regime drop-pairs silently truncates.
fn crossing_stream(scale: f64) -> ArrivalStream {
    StreamScenario {
        scenario: Scenario {
            dataset: Dataset::Uniform,
            batch_size: ((1000.0 * scale).round() as usize).max(20),
            n_batches: 2,
            worker_range: 4.0, // wide discs: many boundary crossings
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

fn halo_sharding(c: &mut Criterion) {
    let stream = crossing_stream(0.1);
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
    let cfg = StreamConfig {
        policy: WindowPolicy::ByTime { width: 300.0 },
        ..StreamConfig::default()
    };

    let mut group = c.benchmark_group("halo_sharding");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1500));

    for method in [Method::Puce, Method::Grd] {
        let engine = method.engine(&cfg.params);
        group.bench_with_input(
            BenchmarkId::new(method.name(), "unsharded"),
            &stream,
            |b, stream| {
                b.iter(|| {
                    black_box(
                        StreamDriver::new(engine.as_ref(), cfg.clone()).run(black_box(stream)),
                    )
                })
            },
        );
        for (label, strategy) in [
            ("drop_pairs2x2", ShardStrategy::DropPairs),
            ("halo2x2", ShardStrategy::Halo),
        ] {
            group.bench_with_input(
                BenchmarkId::new(method.name(), label),
                &stream,
                |b, stream| {
                    b.iter(|| {
                        black_box(run_sharded(
                            engine.as_ref(),
                            black_box(stream),
                            &cfg,
                            &part,
                            strategy,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, halo_sharding);
criterion_main!(benches);
