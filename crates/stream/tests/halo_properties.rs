//! Property tests of the boundary-halo protocol on *random,
//! non-disjoint* streams — the regime drop-pairs sharding cannot
//! handle:
//!
//! * **no duplicate assignments** — reconciliation gives every worker
//!   to at most one shard, and every task has exactly one fate in
//!   exactly one (home) shard;
//! * **budget charged at most once** — replaying the same stream
//!   charges bit-identical per-worker spend (reruns re-derive
//!   identical releases, the dedup set filters them), totals equal the
//!   per-worker map, and under a finite lifetime capacity no worker
//!   ever exceeds it (the hard-cap guarantee);
//! * **weak dominance** — within a window, recovering cross-boundary
//!   pairs never does worse than dropping them, for the deterministic
//!   engines whose proposal order is utility-faithful (GRD, UCE).
//!   Across windows no mode dominates per-instance — serve-and-leave
//!   means a pair dropped today can free the worker for a better task
//!   tomorrow, an online-matching anomaly that hits the *unsharded*
//!   pipeline identically — so the dominance property is asserted on
//!   single-window streams, where the comparison is meaningful.

use dpta_core::{Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, ArrivalEvent, ArrivalStream, ShardStrategy, StreamConfig, TaskArrival, TaskFate,
    WindowPolicy, WorkerArrival,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random stream over the unit frame with worker radii large enough
/// that many discs cross cell boundaries.
fn random_stream(tasks: &[(f64, f64, f64)], workers: &[(f64, f64, f64, f64)]) -> ArrivalStream {
    let mut events = Vec::new();
    for (id, &(x, y, t)) in tasks.iter().enumerate() {
        events.push(ArrivalEvent::Task(TaskArrival {
            id: id as u32,
            time: t,
            task: Task::new(Point::new(x, y), 4.5),
        }));
    }
    for (id, &(x, y, r, t)) in workers.iter().enumerate() {
        events.push(ArrivalEvent::Worker(WorkerArrival {
            id: id as u32,
            time: t,
            worker: Worker::new(Point::new(x, y), r),
        }));
    }
    ArrivalStream::new(events)
}

fn cfg() -> StreamConfig {
    StreamConfig {
        policy: WindowPolicy::ByTime { width: 300.0 },
        ..StreamConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn halo_runs_are_sound_on_random_non_disjoint_streams(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..900.0), 4..24),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 3.0f64..25.0, 0.0f64..600.0), 3..12),
        cols in 1usize..4, rows in 1usize..4,
    ) {
        let stream = random_stream(&tasks, &workers);
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);
        let cfg = cfg();

        for method in [Method::Grd, Method::Uce, Method::Puce] {
            let engine = method.engine(&cfg.params);
            let halo = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
            let dropped = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::DropPairs);

            // ── No duplicate assignments ─────────────────────────────
            // Every task settles exactly once, in its home shard…
            let mut fates: BTreeMap<u32, TaskFate> = BTreeMap::new();
            for s in &halo.shards {
                s.assert_conservation();
                for (&id, &f) in &s.fates {
                    prop_assert!(
                        fates.insert(id, f).is_none(),
                        "{method}: task {id} settled in two shards"
                    );
                }
            }
            prop_assert_eq!(fates.len(), stream.n_tasks(), "{}", method);
            // …and every worker serves at most one task, ever.
            let mut serving: BTreeMap<u32, u32> = BTreeMap::new();
            for (&t, f) in &fates {
                if let TaskFate::Assigned { worker, .. } = *f {
                    prop_assert!(
                        serving.insert(worker, t).is_none(),
                        "{method}: worker {worker} assigned twice"
                    );
                }
            }

            // ── Budget charged at most once ──────────────────────────
            // Determinism: a replay charges bit-identical spend.
            let replay = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
            for (a, b) in halo.shards.iter().zip(&replay.shards) {
                prop_assert_eq!(&a.spend_by_worker, &b.spend_by_worker, "{}", method);
                prop_assert_eq!(&a.fates, &b.fates, "{}", method);
            }
            // The window totals are exactly the per-worker charges.
            let by_worker: f64 = halo
                .shards
                .iter()
                .flat_map(|s| s.spend_by_worker.values())
                .sum();
            prop_assert!(
                (halo.total_epsilon() - by_worker).abs() < 1e-9,
                "{}: window ε {} vs per-worker ε {}",
                method, halo.total_epsilon(), by_worker
            );

            let _ = dropped;
        }
    }

    #[test]
    fn halo_weakly_dominates_drop_pairs_within_a_window(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..250.0), 4..24),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 3.0f64..25.0, 0.0f64..250.0), 3..12),
        cols in 1usize..4, rows in 1usize..4,
    ) {
        // Every arrival lands in one window, so serve-and-leave timing
        // cannot reward dropping a pair: recovering cross-boundary
        // pairs can only add utility for the noise-free engines.
        let stream = random_stream(&tasks, &workers);
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);
        let cfg = cfg(); // 300 s windows ⊇ the 250 s arrival span
        for method in [Method::Grd, Method::Uce] {
            let engine = method.engine(&cfg.params);
            let halo = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
            let dropped = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::DropPairs);
            prop_assert!(
                halo.total_utility() + 1e-9 >= dropped.total_utility(),
                "{}: halo {} < drop-pairs {}",
                method, halo.total_utility(), dropped.total_utility()
            );
            prop_assert!(halo.matched() >= dropped.matched(), "{}", method);
        }
    }

    #[test]
    fn hard_cap_is_exact_under_halo_and_flat_driving(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..600.0), 6..20),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 5.0f64..30.0, 0.0f64..300.0), 3..10),
        capacity in 0.6f64..4.0,
    ) {
        let stream = random_stream(&tasks, &workers);
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
        let cfg = StreamConfig {
            worker_capacity: capacity,
            ..cfg()
        };
        for method in [Method::Puce, Method::Pdce, Method::Pgt] {
            let engine = method.engine(&cfg.params);
            let flat = dpta_stream::StreamDriver::new(engine.as_ref(), cfg.clone())
                .run(&stream);
            for (&w, &spent) in &flat.spend_by_worker {
                prop_assert!(
                    spent <= capacity + 1e-9,
                    "{}: flat worker {} spent {} over cap {}",
                    method, w, spent, capacity
                );
            }
            let halo = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
            for s in &halo.shards {
                for (&w, &spent) in &s.spend_by_worker {
                    prop_assert!(
                        spent <= capacity + 1e-9,
                        "{}: halo worker {} spent {} over cap {}",
                        method, w, spent, capacity
                    );
                }
            }
        }
    }
}
