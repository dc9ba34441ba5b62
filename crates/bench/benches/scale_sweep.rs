//! Entity-scale sweep — drain wall time as the stream grows 10³ → 10⁵
//! tasks (10⁶ behind `SCALE_SWEEP_FULL=1`), the regression harness
//! behind ROADMAP item 2 ("production scale").
//!
//! The workload is *constant-density*: sites live on a √n × √n grid
//! with fixed spacing, so the service area grows with the entity count
//! and each worker's disc covers the same handful of candidates at
//! every scale. Arrivals tick at a fixed rate under a fixed time
//! window, so the per-window live set is scale-independent too — total
//! work should therefore grow ~linearly in `n`, and any super-linear
//! drift (an accidental full-ledger scan per window, a rebuild that
//! touches all dead slots, a quadratic buffer drain) bends the
//! `scale_sweep/…/n10³ → n10⁵` curve upward. `bench_gate
//! --scale-sweep` fits the growth exponent between consecutive scales
//! and fails CI when it exceeds the sub-quadratic threshold.
//!
//! Per site `k` a worker arrives at `t = k` and a co-sited task one
//! half-radius away arrives in the same instant (workers sort first),
//! so GRD matches the pair inside its window and both entities leave —
//! except every fifth site, which is an orphan task with no worker and
//! expires after `task_ttl` windows (or is still pending at stream
//! end). Matched fractions are exact (4/5 of tasks), asserted before
//! any timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, ArrivalEvent, ArrivalStream, ShardStrategy, StreamConfig, StreamDriver,
    TaskArrival, WindowPolicy, WorkerArrival,
};
use std::hint::black_box;
use std::time::Duration;

/// Grid pitch between neighbouring sites; discs of radius
/// [`RADIUS`] never reach a neighbouring site, so the matching is a
/// disjoint union of singleton pairs at every scale.
const SPACING: f64 = 4.0;
const RADIUS: f64 = 1.0;
/// One site's arrivals per second; with [`WINDOW`]-second windows the
/// live set per window is ~[`WINDOW`] sites regardless of `n`.
const WINDOW: f64 = 120.0;

/// Side length (in sites) of the square occupied by `n` sites.
fn side(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// The constant-density sweep stream for `n` task sites: one task per
/// site, a matching worker on all but every fifth site (⌈4n/5⌉ workers,
/// so ~1.8 n entities in total).
fn sweep_stream(n: usize) -> ArrivalStream {
    let side = side(n);
    let mut events = Vec::with_capacity(2 * n);
    for k in 0..n {
        let x = (k % side) as f64 * SPACING;
        let y = (k / side) as f64 * SPACING;
        let t = k as f64;
        if k % 5 != 4 {
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k as u32,
                time: t,
                worker: Worker::new(Point::new(x, y), RADIUS),
            }));
        }
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k as u32,
            time: t,
            task: Task::new(Point::new(x + 0.5 * RADIUS, y), 4.5),
        }));
    }
    ArrivalStream::new(events)
}

fn sweep_cfg() -> StreamConfig {
    StreamConfig {
        policy: WindowPolicy::ByTime { width: WINDOW },
        ..StreamConfig::default()
    }
}

/// The 4×4 partition over `n` sites' occupied square.
fn sweep_partition(n: usize) -> GridPartition {
    let extent = side(n) as f64 * SPACING;
    GridPartition::new(Aabb::from_extents(0.0, 0.0, extent, extent), 4, 4)
}

fn scale_sweep(c: &mut Criterion) {
    let cfg = sweep_cfg();
    let engine = Method::Grd.engine(&cfg.params);

    // The construction is exact at every scale: paired sites match,
    // orphan sites expire. Pin it once before timing anything.
    {
        let n = 1000;
        let report = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&sweep_stream(n));
        let (matched, expired, pending) = report.assert_conservation();
        // Orphans arriving in the last `task_ttl` windows are still
        // pending when the stream ends; the rest have expired.
        assert_eq!(
            (matched, expired + pending),
            (n - n / 5, n / 5),
            "sweep stream lost its exact matching structure"
        );
    }

    let mut group = c.benchmark_group("scale_sweep");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(1000));

    let mut scales = vec![1_000usize, 10_000, 100_000];
    if std::env::var("SCALE_SWEEP_FULL").is_ok_and(|v| !v.is_empty() && v != "0") {
        scales.push(1_000_000);
    }
    for n in scales {
        let stream = sweep_stream(n);
        group.bench_with_input(
            BenchmarkId::new("drain", format!("n{n}")),
            &stream,
            |b, stream| {
                b.iter(|| {
                    black_box(
                        StreamDriver::new(engine.as_ref(), cfg.clone()).run(black_box(stream)),
                    )
                })
            },
        );
        let part = sweep_partition(n);
        group.bench_with_input(
            BenchmarkId::new("sharded4x4", format!("n{n}")),
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
    }
    group.finish();
}

criterion_group!(benches, scale_sweep);
criterion_main!(benches);
