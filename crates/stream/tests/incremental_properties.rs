//! Property tests of the incremental maintenance layer (PR 6):
//!
//! * **delta ≡ rebuild** — a [`DeltaInstance`] maintained through a
//!   random sequence of arrivals, expiries, retirements and service
//!   returns emits an [`Instance`] structurally identical to an
//!   [`Instance::from_locations`] rebuild over the surviving entities
//!   in insertion order — same entities, same order, same reach sets,
//!   same budget vectors, same feasible-pair count;
//! * **incremental ≡ full rerun** — driving the halo protocol with
//!   component-restricted reconciliation re-drives
//!   ([`StreamConfig::halo_full_rerun`] `= false`, the default)
//!   reproduces the full-rerun reference *bit for bit* in everything
//!   observable: task fates, per-worker privacy spend, per-window
//!   matched/expired/carried counts, utility, distance and ε totals.
//!   Only effort counters (rounds, publications, drive time) may
//!   differ — that is the point of the optimisation.
//!
//! The second property is the acceptance gate for the component-
//! locality argument in `crates/stream/src/halo.rs`: engine
//! interactions flow only along feasibility edges and noise/budgets
//! are keyed by logical ids, so skipping undisturbed components must
//! be observationally undetectable. It runs the full engine spread —
//! greedy, conflict-elimination, game-theoretic and the one-shot
//! Geo-I location baseline — because each stresses a different part of
//! the argument (proposal order, budget slots, best-response rounds,
//! reach-dependent location ε).

use dpta_core::{DeltaInstance, Instance, Method, Task, Worker};
use dpta_spatial::{Aabb, GridPartition, Point};
use dpta_stream::{
    run_sharded, ArrivalEvent, ArrivalStream, ShardStrategy, StreamConfig, TaskArrival,
    WindowPolicy, WorkerArrival,
};
use dpta_workloads::budgets::BudgetGen;
use proptest::prelude::*;

/// One random mutation of the maintained instance, tuple-encoded for
/// the strategy layer: `(kind, key)` picks the operation and target,
/// `(x, y, r)` supplies geometry for the insert kinds.
type RawOp = ((usize, u64), (f64, f64, f64));

fn op_strategy() -> impl Strategy<Value = RawOp> {
    (
        (0usize..4, 0u64..8),
        (0.0f64..50.0, 0.0f64..50.0, 2.0f64..20.0),
    )
}

/// Asserts `delta.instance()` is structurally identical to a
/// from-scratch rebuild over `(key, entity)` mirrors kept in insertion
/// order.
fn assert_matches_rebuild(
    delta: &DeltaInstance,
    tasks: &[(u64, Task)],
    workers: &[(u64, Worker)],
    gen: &BudgetGen,
) {
    let reference = Instance::from_locations(
        tasks.iter().map(|&(_, t)| t).collect(),
        workers.iter().map(|&(_, w)| w).collect(),
        |i, j| gen.vector(tasks[i].0 as usize, workers[j].0 as usize),
    );
    let emitted = delta.instance();
    prop_assert_eq!(emitted.n_tasks(), reference.n_tasks());
    prop_assert_eq!(emitted.n_workers(), reference.n_workers());
    prop_assert_eq!(
        delta.task_keys().collect::<Vec<_>>(),
        tasks.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
        "task emission order must be insertion order"
    );
    prop_assert_eq!(
        delta.worker_keys().collect::<Vec<_>>(),
        workers.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
        "worker emission order must be insertion order"
    );
    prop_assert_eq!(emitted.tasks(), reference.tasks());
    prop_assert_eq!(emitted.workers(), reference.workers());
    for j in 0..reference.n_workers() {
        prop_assert_eq!(emitted.reach(j), reference.reach(j), "worker {}", j);
        for &i in reference.reach(j) {
            prop_assert_eq!(
                emitted.distance(i, j).to_bits(),
                reference.distance(i, j).to_bits()
            );
            prop_assert_eq!(emitted.budget(i, j), reference.budget(i, j));
        }
    }
    prop_assert_eq!(emitted.feasible_pairs(), reference.feasible_pairs());
    prop_assert_eq!(
        delta.feasible_pairs(),
        reference.feasible_pairs(),
        "the O(1) pair counter must track the true edge count"
    );
}

/// A random stream over the frame with worker radii large enough that
/// many discs cross cell boundaries — the regime where reconciliation
/// reruns actually happen.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_instance_matches_a_from_scratch_rebuild(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let gen = BudgetGen::new(0xD0_17A5, 0, (0.2, 1.0), 4);
        let mut delta = DeltaInstance::new();
        // Insertion-order mirrors of the live entity sets. A key
        // removed and re-inserted moves to the back — exactly the
        // arena's never-reuse-a-slot rule.
        let mut tasks: Vec<(u64, Task)> = Vec::new();
        let mut workers: Vec<(u64, Worker)> = Vec::new();
        for ((kind, key), (x, y, r)) in ops {
            match kind {
                0 => {
                    if !delta.contains_task(key) {
                        let t = Task::new(Point::new(x, y), 1.0);
                        delta.insert_task(key, t, |tk, wk| {
                            gen.vector(tk as usize, wk as usize)
                        });
                        tasks.push((key, t));
                    }
                }
                1 => {
                    if !delta.contains_worker(key) {
                        let w = Worker::new(Point::new(x, y), r);
                        delta.insert_worker(key, w, |tk, wk| {
                            gen.vector(tk as usize, wk as usize)
                        });
                        workers.push((key, w));
                    }
                }
                2 => {
                    let was_live = tasks.iter().any(|&(k, _)| k == key);
                    prop_assert_eq!(delta.remove_task(key), was_live);
                    tasks.retain(|&(k, _)| k != key);
                }
                _ => {
                    let was_live = workers.iter().any(|&(k, _)| k == key);
                    prop_assert_eq!(delta.remove_worker(key), was_live);
                    workers.retain(|&(k, _)| k != key);
                }
            }
            assert_matches_rebuild(&delta, &tasks, &workers, &gen);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_reconciliation_matches_full_reruns_bit_for_bit(
        tasks in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..900.0), 4..24),
        workers in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 3.0f64..25.0, 0.0f64..600.0), 3..12),
        cols in 2usize..4, rows in 2usize..4,
    ) {
        let stream = random_stream(&tasks, &workers);
        let part = GridPartition::new(
            Aabb::from_extents(0.0, 0.0, 100.0, 100.0), cols, rows);
        let base = StreamConfig {
            policy: WindowPolicy::ByTime { width: 300.0 },
            ..StreamConfig::default()
        };
        let full_cfg = StreamConfig { halo_full_rerun: true, ..base.clone() };

        for method in [Method::Grd, Method::Uce, Method::Puce, Method::Pgt, Method::GeoI] {
            let engine = method.engine(&base.params);
            let incremental = run_sharded(engine.as_ref(), &stream, &base, &part, ShardStrategy::Halo);
            let full = run_sharded(engine.as_ref(), &stream, &full_cfg, &part, ShardStrategy::Halo);

            prop_assert_eq!(incremental.shards.len(), full.shards.len());
            for (k, (inc, refr)) in incremental.shards.iter().zip(&full.shards).enumerate() {
                prop_assert_eq!(&inc.fates, &refr.fates, "{} shard {}: fates", method, k);
                prop_assert_eq!(
                    &inc.spend_by_worker, &refr.spend_by_worker,
                    "{} shard {}: spend", method, k
                );
                prop_assert_eq!(inc.windows.len(), refr.windows.len());
                for (a, b) in inc.windows.iter().zip(&refr.windows) {
                    prop_assert_eq!(a.matched, b.matched, "{}", method);
                    prop_assert_eq!(a.expired, b.expired, "{}", method);
                    prop_assert_eq!(a.carried_out, b.carried_out, "{}", method);
                    prop_assert_eq!(a.tasks_arrived, b.tasks_arrived, "{}", method);
                    prop_assert_eq!(a.carried_in, b.carried_in, "{}", method);
                    prop_assert_eq!(a.workers_available, b.workers_available, "{}", method);
                    prop_assert_eq!(a.workers_departed, b.workers_departed, "{}", method);
                    prop_assert_eq!(a.workers_retired, b.workers_retired, "{}", method);
                    prop_assert_eq!(a.workers_returned, b.workers_returned, "{}", method);
                    prop_assert_eq!(
                        a.utility.to_bits(), b.utility.to_bits(),
                        "{}: window {} utility {} vs {}", method, a.index, a.utility, b.utility
                    );
                    prop_assert_eq!(
                        a.distance.to_bits(), b.distance.to_bits(),
                        "{}: window {} distance", method, a.index
                    );
                    prop_assert_eq!(
                        a.epsilon_spent.to_bits(), b.epsilon_spent.to_bits(),
                        "{}: window {} ε {} vs {}",
                        method, a.index, a.epsilon_spent, b.epsilon_spent
                    );
                }
            }
        }
    }
}

/// Deterministic witness that the incremental path actually *does
/// less*: on a stream whose shards hold several feasibility components
/// (a contended junction cluster plus isolated interior clusters),
/// reconciliation re-drives must republish strictly fewer releases
/// than full reruns while reproducing the same matches. Guards the
/// suite above against vacuity — if the planner degraded to always
/// re-driving everything, the bit-for-bit property would still pass.
#[test]
fn incremental_mode_rederives_strictly_less() {
    // Contended cluster around the 2x2 junction: every worker's disc
    // covers all four cells, so every claim is contested.
    let tasks: Vec<(f64, f64, f64)> = (0..40)
        .map(|i| {
            (
                40.0 + (i % 8) as f64 * 2.6,
                41.0 + (i / 8) as f64 * 4.4,
                20.0 * i as f64,
            )
        })
        .collect();
    let workers: Vec<(f64, f64, f64, f64)> = (0..16)
        .map(|j| {
            (
                46.0 + (j % 4) as f64 * 2.5,
                46.5 + (j / 4) as f64 * 2.4,
                15.0,
                40.0 * j as f64,
            )
        })
        .collect();
    // Plus an interior cluster per cell: its discs stay inside the
    // cell, forming components untouched by junction contention.
    let mut tasks = tasks;
    let mut workers = workers;
    for (c, &(cx, cy)) in [(20.0, 20.0), (80.0, 20.0), (20.0, 80.0), (80.0, 80.0)]
        .iter()
        .enumerate()
    {
        for i in 0..5 {
            tasks.push((cx + i as f64 * 1.5, cy, 25.0 * i as f64 + c as f64));
        }
        workers.push((cx + 3.0, cy + 2.0, 6.0, 30.0 + c as f64));
        workers.push((cx - 3.0, cy - 2.0, 6.0, 350.0 + c as f64));
    }
    let stream = random_stream(&tasks, &workers);
    let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
    let base = StreamConfig {
        policy: WindowPolicy::ByTime { width: 300.0 },
        ..StreamConfig::default()
    };
    let full_cfg = StreamConfig {
        halo_full_rerun: true,
        ..base.clone()
    };
    for method in [Method::Grd, Method::Puce] {
        let engine = method.engine(&base.params);
        let inc = run_sharded(engine.as_ref(), &stream, &base, &part, ShardStrategy::Halo);
        let full = run_sharded(
            engine.as_ref(),
            &stream,
            &full_cfg,
            &part,
            ShardStrategy::Halo,
        );
        let pubs_inc: usize = inc
            .shards
            .iter()
            .flat_map(|s| s.windows.iter())
            .map(|w| w.publications)
            .sum();
        let pubs_full: usize = full
            .shards
            .iter()
            .flat_map(|s| s.windows.iter())
            .map(|w| w.publications)
            .sum();
        assert_eq!(inc.matched(), full.matched(), "{method}");
        assert!(
            pubs_inc <= pubs_full,
            "{method}: incremental republished more ({pubs_inc} > {pubs_full})"
        );
        if method == Method::Puce {
            assert!(
                pubs_inc < pubs_full,
                "{method}: incremental mode re-derived as much as full reruns \
                 ({pubs_inc}) — component skipping is not engaging"
            );
        }
    }
}
