//! Pipeline-level properties of the streaming subsystem:
//!
//! * **determinism** — the same seed produces identical window
//!   boundaries, assignments and fates, for every engine family;
//! * **conservation** — every task arrival is assigned, expired, or
//!   pending at stream end, exactly once;
//! * **shard equivalence** — on shard-disjoint input, sharded and
//!   unsharded execution agree on matches, utility and budget spend,
//!   private engines included (noise and budgets are keyed by logical
//!   ids, so a shard sees exactly the draws of the unsharded run).

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, ArrivalEvent, ArrivalModel, ArrivalStream, ShardStrategy, StreamConfig,
    StreamDriver, StreamScenario, TaskArrival, TaskFate, WindowPolicy, WorkerArrival,
};
use dpta_workloads::{Dataset, Scenario};

fn scenario_stream(dataset: Dataset, batch_size: usize) -> ArrivalStream {
    StreamScenario {
        scenario: Scenario {
            dataset,
            batch_size,
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
        initial_worker_fraction: 0.7,
    }
    .stream()
}

fn cfg(width: f64) -> StreamConfig {
    StreamConfig {
        policy: WindowPolicy::ByTime { width },
        ..StreamConfig::default()
    }
}

/// A synthetic stream whose workers' service discs are interior to the
/// cells of `part`: clusters at each cell centre, radii below the
/// margin. Tasks arrive bursty; some workers join late.
fn disjoint_clustered_stream(part: &GridPartition) -> ArrivalStream {
    let frame = part.frame();
    let (cols, rows) = (part.cols(), part.rows());
    let cell_w = frame.width() / cols as f64;
    let cell_h = frame.height() / rows as f64;
    let mut events = Vec::new();
    let mut task_id = 0u32;
    let mut worker_id = 0u32;
    for cy in 0..rows {
        for cx in 0..cols {
            let centre = Point::new(
                frame.min.x + (cx as f64 + 0.5) * cell_w,
                frame.min.y + (cy as f64 + 0.5) * cell_h,
            );
            let radius = 0.2 * cell_w.min(cell_h);
            for k in 0..4u32 {
                let jitter = 0.1 * cell_w.min(cell_h) * (k as f64 / 4.0 - 0.4);
                events.push(ArrivalEvent::Worker(WorkerArrival {
                    id: worker_id,
                    time: if k < 3 { 0.0 } else { 40.0 },
                    worker: Worker::new(Point::new(centre.x + jitter, centre.y - jitter), radius),
                }));
                worker_id += 1;
            }
            for k in 0..6u32 {
                let dx = 0.15 * cell_w * ((k % 3) as f64 / 3.0 - 0.3);
                let dy = 0.15 * cell_h * ((k / 3) as f64 / 2.0 - 0.2);
                events.push(ArrivalEvent::Task(TaskArrival {
                    id: task_id,
                    time: 5.0 + 17.0 * k as f64 + (cx + cy) as f64,
                    task: Task::new(Point::new(centre.x + dx, centre.y + dy), 4.5),
                }));
                task_id += 1;
            }
        }
    }
    ArrivalStream::new(events)
}

#[test]
fn same_seed_same_run_for_every_engine_family() {
    let stream = scenario_stream(Dataset::Uniform, 60);
    let cfg = cfg(300.0);
    for method in [Method::Puce, Method::Pgt, Method::Grd, Method::GeoI] {
        let engine = method.engine(&cfg.params);
        let a = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        let b = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        assert_eq!(
            a.without_timing(),
            b.without_timing(),
            "{method}: replay must be bit-identical"
        );
        // Window boundaries are data-determined, not timing-determined.
        for (wa, wb) in a.windows.iter().zip(&b.windows) {
            assert_eq!((wa.start, wa.end), (wb.start, wb.end));
        }
    }
}

#[test]
fn conservation_holds_across_methods_and_datasets() {
    for dataset in [Dataset::Uniform, Dataset::Normal] {
        let stream = scenario_stream(dataset, 50);
        let cfg = cfg(240.0);
        for method in [Method::Puce, Method::Pdce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let report = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            let (matched, expired, pending) = report.assert_conservation();
            assert_eq!(
                matched + expired + pending,
                stream.n_tasks(),
                "{method} on {dataset}"
            );
            // Fate ids must be exactly the arrival ids.
            assert_eq!(report.fates.len(), stream.n_tasks());
            assert!(report
                .fates
                .keys()
                .all(|&id| (id as usize) < stream.n_tasks()));
        }
    }
}

#[test]
fn matched_fates_point_at_real_workers_and_windows() {
    let stream = scenario_stream(Dataset::Uniform, 60);
    let cfg = cfg(300.0);
    let engine = Method::Puce.engine(&cfg.params);
    let report = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
    let n_windows = report.windows.len();
    for fate in report.fates.values() {
        match *fate {
            TaskFate::Assigned {
                window,
                worker,
                latency,
            } => {
                assert!(window < n_windows);
                assert!((worker as usize) < stream.n_workers());
                assert!(latency >= 0.0, "latency {latency} negative");
            }
            TaskFate::Expired { window } => assert!(window < n_windows),
            TaskFate::Pending => {}
        }
    }
}

#[test]
fn sharded_equals_unsharded_for_private_and_plain_engines() {
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 3, 2);
    let stream = disjoint_clustered_stream(&part);
    assert!(stream.is_shard_disjoint(&part));
    let cfg = cfg(60.0);
    // ≥ 3 engine methods, covering the CE, game and one-shot families.
    for method in [Method::Puce, Method::Pgt, Method::Uce, Method::Grd] {
        let engine = method.engine(&cfg.params);
        let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        let sharded = run_sharded(
            engine.as_ref(),
            &stream,
            &cfg,
            &part,
            ShardStrategy::DropPairs,
        );
        assert_eq!(sharded.matched(), flat.matched(), "{method}");
        assert!(
            (sharded.total_utility() - flat.total_utility()).abs() < 1e-9,
            "{method}: sharded {} vs flat {}",
            sharded.total_utility(),
            flat.total_utility()
        );
        assert!(
            (sharded.total_distance() - flat.total_distance()).abs() < 1e-9,
            "{method}"
        );
        assert!(
            (sharded.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
            "{method}"
        );
        // Per-shard fates must partition the flat run's fate map.
        let mut shard_fates: Vec<(u32, TaskFate)> = sharded
            .shards
            .iter()
            .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
            .collect();
        shard_fates.sort_by_key(|&(id, _)| id);
        let flat_fates: Vec<(u32, TaskFate)> = flat.fates.iter().map(|(&id, &f)| (id, f)).collect();
        assert_eq!(shard_fates, flat_fates, "{method}");

        // The halo protocol degrades to drop-pairs on disjoint input:
        // same fates, same totals, same per-worker lifetime spend.
        let halo = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
        assert_eq!(halo.matched(), flat.matched(), "halo {method}");
        assert!(
            (halo.total_utility() - flat.total_utility()).abs() < 1e-9,
            "halo {method}"
        );
        assert!(
            (halo.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
            "halo {method}"
        );
        let mut halo_fates: Vec<(u32, TaskFate)> = halo
            .shards
            .iter()
            .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
            .collect();
        halo_fates.sort_by_key(|&(id, _)| id);
        assert_eq!(halo_fates, flat_fates, "halo {method}");
        let halo_spend: std::collections::BTreeMap<u32, f64> = halo
            .shards
            .iter()
            .flat_map(|s| s.spend_by_worker.iter().map(|(&w, &e)| (w, e)))
            .collect();
        assert_eq!(
            halo_spend.keys().collect::<Vec<_>>(),
            flat.spend_by_worker.keys().collect::<Vec<_>>(),
            "halo {method}: charged workers"
        );
        for (w, eps) in &halo_spend {
            assert!(
                (eps - flat.spend_by_worker[w]).abs() < 1e-9,
                "halo {method}: worker {w} spend {eps} vs {}",
                flat.spend_by_worker[w]
            );
        }
    }
}

#[test]
fn count_windows_also_conserve() {
    let stream = scenario_stream(Dataset::Uniform, 50);
    let cfg = StreamConfig {
        policy: WindowPolicy::ByCount { tasks: 25 },
        ..StreamConfig::default()
    };
    let engine = Method::Pdce.engine(&cfg.params);
    let report = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
    report.assert_conservation();
    assert!(report.windows.len() >= 3, "100 tasks / 25 per window");
    for w in &report.windows {
        assert!(w.tasks_arrived <= 25);
    }
}

#[test]
fn budget_depletion_eventually_retires_the_fleet() {
    // Tight lifetime capacity with surplus workers: every conflict
    // loser has already published (PDCE publishes on every proposal),
    // so losing means burnout and retirement.
    let mut events = Vec::new();
    for k in 0..8u32 {
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: k,
            time: 0.0,
            worker: Worker::new(Point::new(0.1 * k as f64, 0.0), 3.0),
        }));
    }
    for k in 0..8u32 {
        // Four tasks in window 0, four more afterwards.
        events.push(ArrivalEvent::Task(TaskArrival {
            id: k,
            time: 10.0 + 20.0 * k as f64,
            task: Task::new(Point::new(0.1 * k as f64, 1.0), 4.5),
        }));
    }
    let stream = ArrivalStream::new(events);
    let cfg = StreamConfig {
        policy: WindowPolicy::ByTime { width: 80.0 },
        // Room for exactly one publication (ε ∈ [0.5, 1.75) under
        // Table X budgets): after it, the remaining budget is below the
        // cheapest possible release and the hard cap retires the
        // worker. Losers publish without winning, so they burn out.
        worker_capacity: 1.0,
        ..StreamConfig::default()
    };
    let engine = Method::Pdce.engine(&cfg.params);
    let report = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
    report.assert_conservation();
    let retired: usize = report.windows.iter().map(|w| w.workers_retired).sum();
    assert!(retired > 0, "tight capacity must retire someone");
    // The hard-cap guarantee: no worker's lifetime spend exceeds the
    // capacity, ever — not even inside his final window.
    for (&w, &spent) in &report.spend_by_worker {
        assert!(
            spent <= cfg.worker_capacity + 1e-9,
            "worker {w} spent {spent} over the hard cap"
        );
    }
    // Against an unconstrained fleet, depletion can only cost matches.
    let loose_cfg = StreamConfig {
        worker_capacity: f64::INFINITY,
        ..cfg
    };
    let loose = StreamDriver::new(engine.as_ref(), loose_cfg).run(&stream);
    let loose_retired: usize = loose.windows.iter().map(|w| w.workers_retired).sum();
    assert_eq!(loose_retired, 0, "infinite capacity never retires");
    assert!(
        report.matched() <= loose.matched(),
        "depleted fleet cannot match more ({} vs {})",
        report.matched(),
        loose.matched()
    );
}
