//! The three benchmark workloads, each generated from the seed with the
//! repository's own generators. Each one puts most of its time in a
//! different layer (see README.md, "Workloads").

use dpta_core::Method;
use dpta_spatial::{Aabb, GridPartition};
use dpta_stream::{
    AdmissionConfig, ArrivalEvent, ArrivalModel, ArrivalStream, LedgerMode, PacingConfig,
    ServiceModel, ShardStrategy, StreamConfig, StreamScenario, WindowPolicy,
};
use dpta_workloads::{chengdu, Dataset, Scenario};

/// Workload names the benchmark accepts. `BENCHMARK.json` gates
/// `halo_cross` and `city_durable`; see README.md for why `dense_flat`
/// is not gated.
pub const NAMES: [&str; 3] = ["dense_flat", "halo_cross", "city_durable"];

/// How the stream is sharded, if at all.
pub struct Sharding {
    pub partition: GridPartition,
    pub strategy: ShardStrategy,
}

/// One generated workload: the stream, the session configuration and
/// the engine to drive it with.
pub struct Workload {
    pub name: &'static str,
    pub stream: ArrivalStream,
    pub cfg: StreamConfig,
    pub method: Method,
    /// `ByTime` window width; the client advances the watermark to
    /// every multiple of it.
    pub width: f64,
    /// `None` drives a flat `StreamSession`.
    pub sharding: Option<Sharding>,
    /// Checkpoint (snapshot → JSON → restore) after every this many
    /// windows.
    pub checkpoint_every: Option<usize>,
}

/// Builds workload `name` from `seed`. `scale` multiplies the entity
/// count (1.0 is the benchmark size; tests use less).
pub fn build(name: &str, seed: u64, scale: f64) -> Result<Workload, String> {
    let n = |full: usize| ((full as f64 * scale).round() as usize).max(20);
    match name {
        "dense_flat" => {
            // The paper's normal set at the top of its worker-range
            // sweep. Workers join a little faster than tasks arrive, so
            // nearly every task is served and the pool grows steadily
            // to a few thousand: every task sees a dense candidate set
            // and the engine dominates. Joins end with the last task,
            // so no idle window trails it. A scenario batch resolves
            // every feasible pair of its points up front, so eight
            // batches keep set-up time and memory small.
            let scenario = Scenario {
                dataset: Dataset::Normal,
                worker_range: 2.0,
                worker_task_ratio: 1.2,
                batch_size: n(4750),
                n_batches: 8,
                seed,
                ..Scenario::default()
            };
            let stream = StreamScenario {
                scenario,
                task_model: ArrivalModel::Poisson { rate: 3.0 },
                worker_model: ArrivalModel::Poisson { rate: 3.42 },
                initial_worker_fraction: 0.05,
            }
            .stream();
            let width = 60.0;
            let cfg = StreamConfig::builder_for_scenario(&scenario)
                .policy(WindowPolicy::ByTime { width })
                .build()
                .map_err(|e| e.to_string())?;
            Ok(Workload {
                name: "dense_flat",
                stream,
                cfg,
                method: Method::Puce,
                width,
                sharding: None,
                checkpoint_every: None,
            })
        }
        "halo_cross" => {
            // Wide discs over a 2×2 grid: many discs straddle a cell
            // boundary, so the halo coordinator reconciles every window.
            let scenario = Scenario {
                dataset: Dataset::Uniform,
                worker_range: 4.0,
                batch_size: n(1500),
                n_batches: 2,
                seed,
                ..Scenario::default()
            };
            let stream = StreamScenario {
                scenario,
                task_model: ArrivalModel::Bursty {
                    base_rate: 0.05,
                    burst_rate: 0.5,
                    period: 600.0,
                    burst_fraction: 0.25,
                },
                worker_model: ArrivalModel::Poisson { rate: 0.2 },
                initial_worker_fraction: 0.8,
            }
            .stream();
            let width = 60.0;
            let cfg = StreamConfig::builder_for_scenario(&scenario)
                .policy(WindowPolicy::ByTime { width })
                .build()
                .map_err(|e| e.to_string())?;
            Ok(Workload {
                name: "halo_cross",
                stream,
                cfg,
                method: Method::Pgt,
                width,
                sharding: Some(Sharding {
                    partition: GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2),
                    strategy: ShardStrategy::Halo,
                }),
                checkpoint_every: None,
            })
        }
        "city_durable" => {
            // A bounded taxi fleet that is on duty early and re-enters
            // after each service, under a renewable (sliding-window)
            // budget, checkpointed as a crash-safe service would be.
            let scenario = Scenario {
                dataset: Dataset::Chengdu,
                worker_range: 1.4,
                worker_task_ratio: 0.1,
                batch_size: n(40000),
                n_batches: 1,
                seed,
                ..Scenario::default()
            };
            let stream = StreamScenario {
                scenario,
                task_model: ArrivalModel::Poisson { rate: 2.0 },
                worker_model: ArrivalModel::Poisson { rate: 1.0 },
                initial_worker_fraction: 0.9,
            }
            .stream();
            let width = 15.0;
            let cfg = StreamConfig::builder_for_scenario(&scenario)
                .policy(WindowPolicy::ByTime { width })
                .worker_capacity(3.0)
                .service(ServiceModel::Fixed { secs: 300.0 })
                .ledger(LedgerMode::Windowed { window_secs: 900.0 })
                .pacing(Some(PacingConfig { horizon_windows: 4 }))
                .admission(Some(AdmissionConfig {
                    epsilon_per_task: 1.0,
                }))
                .build()
                .map_err(|e| e.to_string())?;
            Ok(Workload {
                name: "city_durable",
                stream,
                cfg,
                method: Method::Puce,
                width,
                sharding: Some(Sharding {
                    partition: GridPartition::new(chengdu::taxi_frame(), 4, 4),
                    strategy: ShardStrategy::DropPairs,
                }),
                checkpoint_every: Some(500),
            })
        }
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

impl Workload {
    /// Window ends the client advances the watermark to, in order. The
    /// window holding the last event is left for `close()`, so no idle
    /// trailing window is driven.
    pub fn boundaries(&self) -> Vec<f64> {
        let last = self.stream.horizon();
        (1..)
            .map(|k| k as f64 * self.width)
            .take_while(|&end| end <= last)
            .collect()
    }

    /// Events routed to each shard (one entry when flat).
    pub fn events_per_shard(&self) -> Vec<usize> {
        match &self.sharding {
            None => vec![self.stream.events().len()],
            Some(s) => {
                let mut counts = vec![0; s.partition.n_shards()];
                for e in self.stream.events() {
                    let loc = match e {
                        ArrivalEvent::Task(a) => a.task.location,
                        ArrivalEvent::Worker(a) => a.worker.location,
                    };
                    counts[s.partition.shard_of(&loc)] += 1;
                }
                counts
            }
        }
    }
}
