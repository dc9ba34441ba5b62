//! Sharded execution: one engine run per spatial grid cell.
//!
//! Task assignment is spatially local — a worker only ever interacts
//! with tasks inside his service disc — so a stream whose workers'
//! discs never cross cell boundaries decomposes *exactly*: running one
//! session per [`GridPartition`] cell produces, pair for pair, the run
//! the single-threaded session would have produced, at a wall-clock
//! cost of the slowest shard instead of the sum.
//!
//! When discs do cross boundaries, the [`ShardStrategy`] decides what
//! happens: [`DropPairs`](ShardStrategy::DropPairs) never considers
//! cross-cell pairs (exact only on shard-disjoint input), while
//! [`Halo`](ShardStrategy::Halo) extends each shard with the foreign
//! workers whose service discs reach into its cell and reconciles the
//! shards' competing claims deterministically — near-exact on general
//! input, bit-for-bit equal to the unsharded run on disjoint input.
//! The protocol is documented in `ARCHITECTURE.md` ("Sharding & the
//! halo protocol").
//!
//! There is one execution path: [`run_sharded`] pushes a whole stream
//! into a [`ShardedSession`] and closes it. Shard jobs fan out over the
//! crate's one thread pool (`parallel_map`), used by the drop-pairs
//! close and by the halo coordinator's reconciliation passes.

use crate::driver::StreamConfig;
use crate::event::{check_arrival, ArrivalEvent, ArrivalStream};
use crate::halo::HaloCore;
use crate::metrics::ShardedReport;
use crate::session::{SessionCore, StepSignals, StreamSession};
use crate::snapshot::{ShardedModeSnapshot, ShardedSnapshot, SnapshotError, SNAPSHOT_VERSION};
use crate::window::{Window, WindowPolicy, Windower};
use dpta_core::AssignmentEngine;
use dpta_dp::Interner;
use dpta_spatial::GridPartition;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The warning drop-pairs sharding attaches to every shard report when
/// it runs under a count policy: count windows close on shard-local
/// arrivals, so the sharded windows cannot align with an unsharded run
/// (or across shards). The `stream` subcommand's witness gate coerces
/// such runs to time windows and, under `--strict`, turns the coercion
/// into a hard error.
pub const COUNT_WINDOW_SHARD_WARNING: &str =
    "count windows close on shard-local arrivals: sharded windows do not align \
     with an unsharded run (use a time or adaptive policy for exact agreement)";

/// How sharded execution treats feasible pairs that cross cell
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Route every entity to the cell owning its location and run the
    /// shards fully independently: cross-boundary pairs are silently
    /// dropped. Exact only on
    /// [shard-disjoint](ArrivalStream::is_shard_disjoint) input; the
    /// cheapest mode, and the baseline the halo protocol's recovered
    /// utility is measured against.
    #[default]
    DropPairs,
    /// The boundary-halo protocol: each shard's windows additionally
    /// include the foreign workers whose service discs reach into its
    /// cell ([`GridPartition::halo_shards`]), shards propose matches
    /// over interior ∪ halo, and a deterministic reconciliation pass
    /// resolves competing claims on shared workers (id-keyed,
    /// home-shard priority) so no worker is ever assigned twice and
    /// every release is charged exactly once. Bit-for-bit equal to the
    /// unsharded run on shard-disjoint input, near-exact in general.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpta_core::{Method, Task, Worker};
    /// use dpta_spatial::{Aabb, GridPartition, Point};
    /// use dpta_stream::{
    ///     run_sharded, ArrivalEvent, ArrivalStream, ShardStrategy, StreamConfig, TaskArrival,
    ///     WindowPolicy, WorkerArrival,
    /// };
    ///
    /// // One worker left of x = 5, one task right of it: the only feasible
    /// // pair crosses the shard boundary.
    /// let stream = ArrivalStream::new(vec![
    ///     ArrivalEvent::Worker(WorkerArrival {
    ///         id: 0,
    ///         time: 0.0,
    ///         worker: Worker::new(Point::new(4.5, 5.0), 2.0),
    ///     }),
    ///     ArrivalEvent::Task(TaskArrival {
    ///         id: 0,
    ///         time: 1.0,
    ///         task: Task::new(Point::new(5.5, 5.0), 4.5),
    ///     }),
    /// ]);
    /// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
    /// let cfg = StreamConfig {
    ///     policy: WindowPolicy::ByTime { width: 10.0 },
    ///     ..StreamConfig::default()
    /// };
    /// let engine = Method::Grd.engine(&cfg.params);
    /// let run = |strategy| run_sharded(engine.as_ref(), &stream, &cfg, &part, strategy);
    /// // Drop-pairs sharding loses the pair; the halo recovers it.
    /// assert_eq!(run(ShardStrategy::DropPairs).matched(), 0);
    /// assert_eq!(run(ShardStrategy::Halo).matched(), 1);
    /// ```
    Halo,
}

/// Runs `stream` sharded by `partition` under `strategy`: every event
/// is pushed into a [`ShardedSession`], which is then closed, so batch
/// and push driving are one code path.
///
/// Every shard walks the global window grid, so with a time or adaptive
/// policy and a [shard-disjoint](ArrivalStream::is_shard_disjoint)
/// stream the merged totals equal the unsharded run's exactly —
/// asserted by the crate's equivalence tests. [`ShardStrategy::Halo`]
/// recovers the cross-boundary pairs drop-pairs loses (its example
/// shows one such pair); see `ARCHITECTURE.md` ("Sharding & the halo
/// protocol").
///
/// # Examples
///
/// ```
/// use dpta_core::Method;
/// use dpta_spatial::{Aabb, GridPartition};
/// use dpta_stream::{run_sharded, ShardStrategy, StreamConfig, StreamScenario, WindowPolicy};
/// use dpta_workloads::{Dataset, Scenario};
///
/// let stream = StreamScenario::new(Scenario {
///     batch_size: 30,
///     n_batches: 2,
///     worker_range: 1.0,
///     ..Scenario::for_dataset(Dataset::Uniform)
/// })
/// .stream();
/// let cfg = StreamConfig {
///     policy: WindowPolicy::ByTime { width: 60.0 },
///     ..StreamConfig::default()
/// };
/// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
/// let engine = Method::Grd.engine(&cfg.params);
/// let sharded = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::DropPairs);
/// assert_eq!(sharded.shards.len(), 4);
/// let direct: usize = sharded.shards.iter().map(|s| s.task_arrivals).sum();
/// assert_eq!(direct, stream.n_tasks());
/// ```
pub fn run_sharded(
    engine: &dyn AssignmentEngine,
    stream: &ArrivalStream,
    cfg: &StreamConfig,
    partition: &GridPartition,
    strategy: ShardStrategy,
) -> ShardedReport {
    let mut session = ShardedSession::new(engine, cfg.clone(), partition, strategy);
    for &event in stream.events() {
        session.push(event);
    }
    session.close()
}

/// The crate's one thread pool: runs `work` over `jobs` on up to
/// `threads` scoped threads (`None` = one per available core) and
/// returns the results **in job order**.
///
/// Jobs sit in one queue ordered heaviest first by `weight`
/// (longest-processing-time, ties by index) and every idle thread
/// steals the next one, so on skewed input the makespan approaches the
/// max(job, total/threads) bound. Each result is a pure function of its
/// job and lands in the job's slot: which thread ran a job, and when,
/// is unobservable. A panicking job re-raises on the caller's thread.
pub(crate) fn parallel_map<J: Send, R: Send>(
    jobs: Vec<J>,
    weight: impl Fn(&J) -> usize,
    threads: Option<usize>,
    work: impl Fn(J) -> R + Sync,
) -> Vec<R> {
    let auto = || std::thread::available_parallelism().map_or(8, std::num::NonZeroUsize::get);
    let threads = jobs.len().min(threads.unwrap_or_else(auto).max(1));
    if threads <= 1 {
        return jobs.into_iter().map(work).collect();
    }
    let mut queue: Vec<usize> = (0..jobs.len()).collect();
    queue.sort_by_key(|&i| (std::cmp::Reverse(weight(&jobs[i])), i));
    let cells: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while let Some(&i) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let job = cells[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .take()
                            .expect("every job is claimed once");
                        out.push((i, work(job)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Shard `k`'s view of a globally-formed window: the same span, holding
/// only the tasks and workers whose locations the cell owns. Relative
/// event order is preserved.
fn project_window(window: &Window, partition: &GridPartition, k: usize) -> Window {
    Window {
        index: window.index,
        start: window.start,
        end: window.end,
        tasks: window
            .tasks
            .iter()
            .filter(|t| partition.shard_of(&t.task.location) == k)
            .copied()
            .collect(),
        workers: window
            .workers
            .iter()
            .filter(|w| partition.shard_of(&w.worker.location) == k)
            .copied()
            .collect(),
    }
}

/// One durable sharded session over a spatial partition, fed events one
/// at a time — the only sharded execution path ([`run_sharded`] is
/// push-all-then-close over it).
///
/// `push(event)` routes by the entity's location, `advance_to(t)`
/// declares the global event-time watermark (shards step one after
/// another), and `close()` settles the per-shard [`ShardedReport`]. Like
/// [`StreamSession`](crate::StreamSession), a mid-run session can be
/// captured with [`snapshot`](Self::snapshot) and reopened with
/// [`restore`](Self::restore). The execution mode follows strategy and
/// policy: independent per-shard sessions for static drop-pairs
/// policies (closed in parallel, heaviest shard first), one lockstep
/// windower for adaptive drop-pairs, and the halo coordinator for
/// [`ShardStrategy::Halo`].
///
/// The typed per-event outcome log is a flat-session feature; the
/// sharded session reports through its per-shard window reports and
/// fates instead.
///
/// # Examples
///
/// ```
/// use dpta_core::Method;
/// use dpta_spatial::{Aabb, GridPartition};
/// use dpta_stream::{
///     run_sharded, ShardStrategy, ShardedSession, StreamConfig, StreamScenario, WindowPolicy,
/// };
/// use dpta_workloads::{Dataset, Scenario};
///
/// let stream = StreamScenario::new(Scenario {
///     batch_size: 30,
///     n_batches: 2,
///     worker_range: 1.0,
///     ..Scenario::for_dataset(Dataset::Uniform)
/// })
/// .stream();
/// let cfg = StreamConfig {
///     policy: WindowPolicy::ByTime { width: 60.0 },
///     ..StreamConfig::default()
/// };
/// let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 2, 2);
/// let engine = Method::Grd.engine(&cfg.params);
///
/// // Drive windows as time passes instead of all at close.
/// let mut session = ShardedSession::new(engine.as_ref(), cfg.clone(), &part, ShardStrategy::DropPairs);
/// for &event in stream.events() {
///     session.advance_to(event.time());
///     session.push(event);
/// }
/// let streamed = session.close();
/// let batch = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::DropPairs);
/// assert_eq!(streamed.matched(), batch.matched());
/// ```
pub struct ShardedSession<'e, 'p> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
    partition: &'p GridPartition,
    strategy: ShardStrategy,
    watermark: f64,
    task_ids: Interner,
    worker_ids: Interner,
    /// Thread bound for the parallel close (`None` = one per core).
    /// Results do not depend on it; only the pool-size tests set it.
    threads: Option<usize>,
    /// `None` once closed.
    mode: Option<Mode<'e>>,
}

/// The three sharded execution modes.
// One mode lives per session and is never collected, so the size skew
// between variants costs nothing — boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum Mode<'e> {
    /// Static drop-pairs policies: fully independent per-shard
    /// sessions, the global span injected at close.
    PerShard {
        shards: Vec<StreamSession<'e>>,
        /// Arrival-checked events routed to each shard and not yet
        /// pushed into it. They move in at the next `advance_to`, or
        /// inside the shard's parallel job at `close`, so a
        /// push-then-close run pushes its shards in parallel.
        inbox: Vec<Vec<ArrivalEvent>>,
        max_event_time: f64,
    },
    /// Adaptive drop-pairs: one global windower cuts for every shard,
    /// fed the merged shard signals.
    Lockstep {
        former: Windower,
        cores: Vec<SessionCore<'e>>,
        shard_tasks: Vec<usize>,
        shard_workers: Vec<usize>,
    },
    /// The boundary-halo protocol behind the global windower.
    Halo {
        former: Windower,
        core: HaloCore<'e>,
    },
}

/// Per-shard sessions never see the user's horizon directly: the
/// *global* span is injected into populated shards only, so the session
/// strips the horizon at construction and injects it via
/// [`StreamSession::extend_horizon`] at close.
fn per_shard_config(cfg: &StreamConfig) -> StreamConfig {
    StreamConfig {
        horizon: None,
        ..cfg.clone()
    }
}

impl<'e, 'p> ShardedSession<'e, 'p> {
    /// Opens a sharded session for `engine` under `cfg`, partitioned by
    /// `partition` under `strategy`. Panics on degenerate configuration
    /// (the same invariants as
    /// [`StreamSession::new`](crate::StreamSession::new)).
    pub fn new(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: &'p GridPartition,
        strategy: ShardStrategy,
    ) -> Self {
        cfg.assert_valid();
        let n = partition.n_shards();
        let mode = match (strategy, cfg.policy) {
            (ShardStrategy::Halo, _) => Mode::Halo {
                former: Windower::new(cfg.policy, cfg.horizon),
                core: HaloCore::new(engine, cfg.clone(), n),
            },
            (ShardStrategy::DropPairs, WindowPolicy::Adaptive(_)) => Mode::Lockstep {
                former: Windower::new(cfg.policy, cfg.horizon),
                cores: (0..n)
                    .map(|_| SessionCore::new(engine, cfg.clone()))
                    .collect(),
                shard_tasks: vec![0; n],
                shard_workers: vec![0; n],
            },
            (ShardStrategy::DropPairs, _) => Mode::PerShard {
                shards: (0..n)
                    .map(|_| StreamSession::new(engine, per_shard_config(&cfg)))
                    .collect(),
                inbox: vec![Vec::new(); n],
                max_event_time: 0.0,
            },
        };
        ShardedSession {
            engine,
            cfg,
            partition,
            strategy,
            watermark: 0.0,
            task_ids: Interner::new(),
            worker_ids: Interner::new(),
            threads: None,
            mode: Some(mode),
        }
    }

    /// The configuration this session runs under.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The current global event-time watermark.
    pub fn now(&self) -> f64 {
        self.watermark
    }

    /// Feeds one arrival event, routed to the shard owning its
    /// location. Panics under the same invariants as
    /// [`StreamSession::push`](crate::StreamSession::push) — ids are
    /// unique per entity kind *globally*, across shards.
    pub fn push(&mut self, event: ArrivalEvent) {
        assert!(self.mode.is_some(), "push on a closed session");
        check_arrival(
            &event,
            self.watermark,
            &mut self.task_ids,
            &mut self.worker_ids,
        );
        let partition = self.partition;
        match self.mode.as_mut().expect("mode present") {
            Mode::PerShard {
                inbox,
                max_event_time,
                ..
            } => {
                *max_event_time = max_event_time.max(event.time());
                inbox[partition.shard_of(&event.location())].push(event);
            }
            Mode::Lockstep { former, .. } | Mode::Halo { former, .. } => former.push(event),
        }
    }

    /// Advances the global watermark to `t` (monotone; lower values are
    /// no-ops) and drives every window that closes before it, in every
    /// shard.
    pub fn advance_to(&mut self, t: f64) {
        assert!(self.mode.is_some(), "advance_to on a closed session");
        assert!(
            t.is_finite() && t >= 0.0,
            "watermark must be finite, got {t}"
        );
        if t <= self.watermark {
            return;
        }
        self.watermark = t;
        let mode = self.mode.as_mut().expect("mode present");
        match mode {
            Mode::PerShard { shards, inbox, .. } => {
                // Only shards that received input are watermarked: empty
                // cells close to empty reports.
                for (s, pending) in shards.iter_mut().zip(inbox) {
                    pending.drain(..).for_each(|e| s.push(e));
                    if s.arrivals() > 0 {
                        s.advance_to(t);
                    }
                }
            }
            Mode::Lockstep { former, .. } | Mode::Halo { former, .. } => former.advance(t),
        }
        mode.drive_global(self.partition, false);
    }

    /// Drives every remaining window in every shard (trailing empties
    /// included) and settles the per-shard reports. Panics if called
    /// twice.
    pub fn close(&mut self) -> ShardedReport {
        let mut mode = self.mode.take().expect("close on a closed session");
        mode.drive_global(self.partition, true);
        match mode {
            Mode::PerShard {
                shards,
                inbox,
                max_event_time,
            } => {
                // Every populated shard is forced onto the window grid
                // of the *global* span, so windows line up across
                // shards. The shards take in their inboxes and drain
                // in parallel.
                let inject = self
                    .cfg
                    .horizon
                    .unwrap_or_else(|| max_event_time.max(self.watermark));
                let jobs: Vec<_> = shards.into_iter().zip(inbox).collect();
                let weight = |(s, pending): &(StreamSession, Vec<ArrivalEvent>)| {
                    s.arrivals() + pending.len()
                };
                let mut reports = parallel_map(jobs, weight, self.threads, |(mut s, pending)| {
                    s.reserve(pending.len());
                    pending.into_iter().for_each(|e| s.push(e));
                    if s.arrivals() > 0 {
                        s.extend_horizon(inject);
                    }
                    s.close()
                });
                if matches!(self.cfg.policy, WindowPolicy::ByCount { .. }) && reports.len() > 1 {
                    for s in reports
                        .iter_mut()
                        .filter(|s| s.task_arrivals > 0 || s.worker_arrivals > 0)
                    {
                        s.warnings.push(COUNT_WINDOW_SHARD_WARNING.to_string());
                    }
                }
                ShardedReport { shards: reports }
            }
            Mode::Lockstep {
                cores,
                shard_tasks,
                shard_workers,
                ..
            } => ShardedReport {
                shards: cores
                    .into_iter()
                    .enumerate()
                    .map(|(k, core)| core.finish(shard_tasks[k], shard_workers[k]))
                    .collect(),
            },
            Mode::Halo { core, .. } => core.finish(self.partition),
        }
    }

    /// Captures the sharded session's full state — every shard's
    /// windower and pipeline state, or the halo coordinator's global
    /// protocol state — as a versioned [`ShardedSnapshot`]. Panics on a
    /// closed session.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let mode = self.mode.as_ref().expect("snapshot on a closed session");
        let mode_snap = match mode {
            Mode::PerShard {
                shards,
                inbox,
                max_event_time,
            } => ShardedModeSnapshot::PerShard {
                shards: shards
                    .iter()
                    .zip(inbox)
                    .map(|(s, pending)| s.snapshot_with(pending))
                    .collect(),
                max_event_time: *max_event_time,
            },
            Mode::Lockstep {
                former,
                cores,
                shard_tasks,
                shard_workers,
            } => ShardedModeSnapshot::Lockstep {
                windower: former.snapshot(),
                cores: cores.iter().map(SessionCore::snapshot).collect(),
                shard_tasks: shard_tasks.clone(),
                shard_workers: shard_workers.clone(),
            },
            Mode::Halo { former, core } => ShardedModeSnapshot::Halo {
                windower: former.snapshot(),
                core: core.snapshot(),
            },
        };
        ShardedSnapshot {
            version: SNAPSHOT_VERSION,
            engine: self.engine.name().to_string(),
            config: self.cfg.clone(),
            strategy: self.strategy,
            n_shards: self.partition.n_shards(),
            watermark: self.watermark,
            task_ids: self.task_ids.ids().iter().map(|&id| id as u32).collect(),
            worker_ids: self.worker_ids.ids().iter().map(|&id| id as u32).collect(),
            mode: mode_snap,
        }
    }

    /// Reopens a sharded session from a snapshot taken by
    /// [`ShardedSession::snapshot`]. Engine, configuration, strategy
    /// and partition shard count must all match what the snapshot was
    /// taken under — mismatches are rejected with the same typed errors
    /// as [`StreamSession::restore`](crate::StreamSession::restore),
    /// with `"strategy"` and `"partition"` as additional
    /// [`SnapshotError::ConfigMismatch`] fields.
    pub fn restore(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: &'p GridPartition,
        strategy: ShardStrategy,
        snapshot: &ShardedSnapshot,
    ) -> Result<Self, SnapshotError> {
        snapshot.validate(engine.name(), &cfg, partition.n_shards(), strategy)?;
        let n = partition.n_shards();
        let bad_len = |what: &str| {
            Err(SnapshotError::Malformed(format!(
                "sharded snapshot's {what} does not cover every shard of the partition"
            )))
        };
        let mode = match (&snapshot.mode, strategy, cfg.policy) {
            (
                ShardedModeSnapshot::PerShard {
                    shards,
                    max_event_time,
                },
                ShardStrategy::DropPairs,
                policy,
            ) if !matches!(policy, WindowPolicy::Adaptive(_)) => {
                if shards.len() != n {
                    return bad_len("per-shard session list");
                }
                let sessions = shards
                    .iter()
                    .map(|s| StreamSession::restore(engine, per_shard_config(&cfg), s))
                    .collect::<Result<Vec<_>, _>>()?;
                Mode::PerShard {
                    shards: sessions,
                    inbox: vec![Vec::new(); n],
                    max_event_time: *max_event_time,
                }
            }
            (
                ShardedModeSnapshot::Lockstep {
                    windower,
                    cores,
                    shard_tasks,
                    shard_workers,
                },
                ShardStrategy::DropPairs,
                WindowPolicy::Adaptive(_),
            ) => {
                if cores.len() != n || shard_tasks.len() != n || shard_workers.len() != n {
                    return bad_len("lockstep core list");
                }
                Mode::Lockstep {
                    former: Windower::from_snapshot(cfg.policy, cfg.horizon, windower)?,
                    cores: cores
                        .iter()
                        .map(|c| SessionCore::from_snapshot(engine, cfg.clone(), c))
                        .collect(),
                    shard_tasks: shard_tasks.clone(),
                    shard_workers: shard_workers.clone(),
                }
            }
            (ShardedModeSnapshot::Halo { windower, core }, ShardStrategy::Halo, _) => Mode::Halo {
                former: Windower::from_snapshot(cfg.policy, cfg.horizon, windower)?,
                core: HaloCore::from_snapshot(engine, cfg.clone(), partition, core)?,
            },
            _ => {
                return Err(SnapshotError::Malformed(
                    "snapshot execution mode does not match the strategy/policy mode".to_string(),
                ))
            }
        };
        Ok(ShardedSession {
            engine,
            cfg,
            partition,
            strategy,
            watermark: snapshot.watermark,
            task_ids: snapshot.task_ids.iter().map(|&id| u64::from(id)).collect(),
            worker_ids: snapshot
                .worker_ids
                .iter()
                .map(|&id| u64::from(id))
                .collect(),
            threads: None,
            mode: Some(mode),
        })
    }
}

impl Mode<'_> {
    /// Drives every ready window of the global windower (`drain`: up to
    /// the covered span); the per-shard sessions drive themselves.
    /// Lockstep projects each window onto every shard, steps all cores
    /// and feeds the merged signals back, so the adaptive cut sequence
    /// equals the unsharded run's on shard-disjoint input bit for bit.
    fn drive_global(&mut self, partition: &GridPartition, drain: bool) {
        match self {
            Mode::PerShard { .. } => {}
            Mode::Lockstep {
                former,
                cores,
                shard_tasks,
                shard_workers,
            } => {
                while let Some(window) = former.next_ready(drain) {
                    let cut = former.last_decision;
                    let signals: Vec<StepSignals> = cores
                        .iter_mut()
                        .enumerate()
                        .map(|(k, core)| {
                            let projected = project_window(&window, partition, k);
                            shard_tasks[k] += projected.tasks.len();
                            shard_workers[k] += projected.workers.len();
                            core.step(&projected, cut)
                        })
                        .collect();
                    former.observe(&StepSignals::merge(&signals));
                }
            }
            Mode::Halo { former, core } => {
                while let Some(window) = former.next_ready(drain) {
                    let cut = former.last_decision;
                    let signals = core.step_window(partition, &window, cut);
                    former.observe(&StepSignals::merge(std::slice::from_ref(&signals)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::StreamDriver;
    use crate::event::{TaskArrival, WorkerArrival};
    use dpta_core::{Method, Task, Worker};
    use dpta_spatial::{Aabb, Point};

    /// Two clusters, one per cell of a 2×1 partition, discs interior.
    fn disjoint_stream() -> ArrivalStream {
        let mut events = Vec::new();
        for (k, cx) in [2.5f64, 7.5].into_iter().enumerate() {
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k as u32,
                time: 0.0,
                worker: Worker::new(Point::new(cx, 5.0), 1.0),
            }));
            events.push(ArrivalEvent::Task(TaskArrival {
                id: k as u32,
                time: 3.0 + k as f64,
                task: Task::new(Point::new(cx + 0.5, 5.0), 4.5),
            }));
        }
        ArrivalStream::new(events)
    }

    #[test]
    fn sharded_totals_match_unsharded_on_disjoint_input() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let stream = disjoint_stream();
        assert!(stream.is_shard_disjoint(&part));
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 5.0 },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Grd] {
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
                "{method}: {} vs {}",
                sharded.total_utility(),
                flat.total_utility()
            );
            assert!(
                (sharded.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
                "{method}"
            );
        }
    }

    #[test]
    fn halo_matches_flat_exactly_on_disjoint_input() {
        // On shard-disjoint input no worker has a halo, so the halo
        // coordinator must reproduce the unsharded run fate for fate —
        // private engines included.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let stream = disjoint_stream();
        assert!(stream.is_shard_disjoint(&part));
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 5.0 },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            let halo = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
            assert_eq!(halo.matched(), flat.matched(), "{method}");
            assert!(
                (halo.total_utility() - flat.total_utility()).abs() < 1e-9,
                "{method}"
            );
            assert!(
                (halo.total_epsilon() - flat.total_epsilon()).abs() < 1e-9,
                "{method}"
            );
            let mut halo_fates: Vec<(u32, crate::TaskFate)> = halo
                .shards
                .iter()
                .flat_map(|s| s.fates.iter().map(|(&id, &f)| (id, f)))
                .collect();
            halo_fates.sort_by_key(|&(id, _)| id);
            let flat_fates: Vec<(u32, crate::TaskFate)> =
                flat.fates.iter().map(|(&id, &f)| (id, f)).collect();
            assert_eq!(halo_fates, flat_fates, "{method}: fates must be identical");
        }
    }

    #[test]
    fn halo_recovers_cross_boundary_pairs_dropped_by_default_sharding() {
        // Workers sit left of x = 5, their only reachable tasks right
        // of it: drop-pairs sharding matches nothing, the halo protocol
        // matches everything.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let mut events = Vec::new();
        for k in 0..3u32 {
            let y = 2.0 + 2.0 * k as f64;
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k,
                time: 0.0,
                worker: Worker::new(Point::new(4.6, y), 1.0),
            }));
            events.push(ArrivalEvent::Task(TaskArrival {
                id: k,
                time: 1.0 + k as f64,
                task: Task::new(Point::new(5.2, y), 4.5),
            }));
        }
        let stream = ArrivalStream::new(events);
        assert!(!stream.is_shard_disjoint(&part));
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 10.0 },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&cfg.params);
            let flat = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
            let dropped = run_sharded(
                engine.as_ref(),
                &stream,
                &cfg,
                &part,
                ShardStrategy::DropPairs,
            );
            let halo = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
            assert_eq!(
                dropped.matched(),
                0,
                "{method}: drop-pairs loses everything"
            );
            // Here every feasible pair crosses the boundary, so the
            // halo recovers exactly what the unsharded run matches —
            // which is everything the (noisy) engine accepts.
            assert_eq!(
                halo.matched(),
                flat.matched(),
                "{method}: the halo must recover the unsharded matching"
            );
            assert!(flat.matched() > 0, "{method}: nothing matched at all");
            assert!(
                (halo.total_utility() - flat.total_utility()).abs() < 1e-9,
                "{method}"
            );
            assert!(halo.total_utility() > dropped.total_utility(), "{method}");
            // Every shard's report still conserves its own tasks.
            for s in &halo.shards {
                s.assert_conservation();
            }
        }
    }

    #[test]
    fn halo_reconciliation_gives_contested_workers_to_their_home_shard() {
        // One worker on the boundary reachable-by both cells' tasks;
        // both shards propose him. Home-shard priority must win, the
        // loser's task must carry over (and expire under its TTL), and
        // the worker must be assigned exactly once.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let events = vec![
            ArrivalEvent::Worker(WorkerArrival {
                id: 0,
                time: 0.0,
                worker: Worker::new(Point::new(4.8, 5.0), 1.0),
            }),
            // Home-cell task (left of x = 5).
            ArrivalEvent::Task(TaskArrival {
                id: 0,
                time: 1.0,
                task: Task::new(Point::new(4.2, 5.0), 4.5),
            }),
            // Foreign-cell task (right of x = 5), same distance class.
            ArrivalEvent::Task(TaskArrival {
                id: 1,
                time: 1.0,
                task: Task::new(Point::new(5.4, 5.0), 4.5),
            }),
        ];
        let stream = ArrivalStream::new(events);
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 10.0 },
            task_ttl: 1,
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let halo = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
        assert_eq!(halo.matched(), 1, "one worker serves exactly one task");
        // The home shard (0) won the contested worker.
        assert_eq!(halo.shards[0].matched(), 1);
        assert_eq!(halo.shards[1].matched(), 0);
        assert!(matches!(
            halo.shards[0].fates[&0],
            crate::TaskFate::Assigned { worker: 0, .. }
        ));
        assert!(matches!(
            halo.shards[1].fates[&1],
            crate::TaskFate::Expired { .. }
        ));
    }

    #[test]
    fn halo_resolves_mutual_loss_cycles_even_beside_clean_commits() {
        // Shards 0 and 1 each claim both boundary workers: worker 0
        // (home 1) and worker 1 (home 0) go to their home shards and
        // each shard loses one claim — a mutual-loss cycle with no
        // clean candidate. Shard 2 holds an unrelated interior pair
        // that commits cleanly with no losers in the same pass.
        // Regression: reconciliation must not treat that loser-free
        // clean pass as "window done" and abandon the cycle — both
        // boundary workers must still end up matched.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 30.0, 10.0), 3, 1);
        let mut events = vec![
            ArrivalEvent::Worker(WorkerArrival {
                id: 0,
                time: 0.0,
                worker: Worker::new(Point::new(10.5, 5.0), 3.0), // home shard 1
            }),
            ArrivalEvent::Worker(WorkerArrival {
                id: 1,
                time: 0.0,
                worker: Worker::new(Point::new(9.5, 5.0), 3.0), // home shard 0
            }),
            ArrivalEvent::Worker(WorkerArrival {
                id: 2,
                time: 0.0,
                worker: Worker::new(Point::new(25.0, 5.0), 1.0), // interior, shard 2
            }),
            ArrivalEvent::Task(TaskArrival {
                id: 4,
                time: 1.0,
                task: Task::new(Point::new(25.5, 5.0), 4.5), // shard 2
            }),
        ];
        // Two tasks per boundary shard, all reachable by both boundary
        // workers, so each shard's engine claims both workers.
        for (id, x) in [(0u32, 9.0), (1, 9.8), (2, 10.2), (3, 11.0)] {
            events.push(ArrivalEvent::Task(TaskArrival {
                id,
                time: 1.0,
                task: Task::new(Point::new(x, 5.0), 4.5),
            }));
        }
        let stream = ArrivalStream::new(events);
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 10.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let dropped = run_sharded(
            engine.as_ref(),
            &stream,
            &cfg,
            &part,
            ShardStrategy::DropPairs,
        );
        let halo = run_sharded(engine.as_ref(), &stream, &cfg, &part, ShardStrategy::Halo);
        // Drop-pairs: one worker per boundary shard plus the interior
        // pair. The halo must do no worse.
        assert_eq!(dropped.matched(), 3);
        assert_eq!(
            halo.matched(),
            3,
            "the mutual-loss cycle was abandoned mid-reconciliation"
        );
        assert!(halo.total_utility() + 1e-9 >= dropped.total_utility());
        // Every worker served exactly one task.
        let mut served: Vec<u32> = halo
            .shards
            .iter()
            .flat_map(|s| s.fates.values())
            .filter_map(|f| match f {
                crate::TaskFate::Assigned { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        served.sort_unstable();
        assert_eq!(served, vec![0, 1, 2]);
    }

    #[test]
    fn empty_cells_produce_empty_reports() {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 3, 3);
        let stream = disjoint_stream();
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 5.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let sharded = run_sharded(
            engine.as_ref(),
            &stream,
            &cfg,
            &part,
            ShardStrategy::DropPairs,
        );
        assert_eq!(sharded.shards.len(), 9);
        let populated = sharded
            .shards
            .iter()
            .filter(|s| s.task_arrivals > 0)
            .count();
        assert_eq!(populated, 2);
    }

    /// An adversarially skewed stream: ~90 % of all entities crowd into
    /// one hotspot cell, the rest sprinkle over the other 15 cells of a
    /// 4×4 partition. Under work stealing the hotspot shard pins one
    /// thread while the others race through the sprinkle shards — the
    /// regime where which-thread-ran-what varies most between runs.
    fn hotspot_stream() -> ArrivalStream {
        let mut events = Vec::new();
        for k in 0..200u32 {
            // 90 % hotspot (cell at origin), 10 % elsewhere.
            let (cx, cy) = if k % 10 != 9 {
                (0.0, 0.0)
            } else {
                let cell = 1 + (k as usize / 10) % 15;
                ((cell % 4) as f64 * 25.0, (cell / 4) as f64 * 25.0)
            };
            let x = cx + 4.0 + (k % 8) as f64 * 2.0;
            let y = cy + 4.0 + (k % 5) as f64 * 3.0;
            let t = k as f64 * 3.0;
            events.push(ArrivalEvent::Worker(WorkerArrival {
                id: k,
                time: t,
                worker: Worker::new(Point::new(x, y), 3.0),
            }));
            events.push(ArrivalEvent::Task(TaskArrival {
                id: k,
                time: t,
                task: Task::new(Point::new(x + 1.0, y), 4.5),
            }));
        }
        ArrivalStream::new(events)
    }

    /// The parallel close must be byte-identical across pool sizes
    /// 1/2/8/auto and across repeated runs — on a hotspot-skewed stream
    /// where the steal order genuinely differs run to run. The
    /// comparison is on the full debug rendering of the timing-stripped
    /// report, so any bit difference in any float anywhere fails.
    #[test]
    fn work_stealing_reports_are_identical_across_pool_sizes_and_runs() {
        let stream = hotspot_stream();
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 100.0, 100.0), 4, 4);
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 60.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Puce.engine(&cfg.params);
        let run = |threads: Option<usize>| {
            let mut session = ShardedSession::new(
                engine.as_ref(),
                cfg.clone(),
                &part,
                ShardStrategy::DropPairs,
            );
            session.threads = threads;
            for &e in stream.events() {
                session.push(e);
            }
            session.close().without_timing()
        };
        let reference = run(Some(1));
        assert!(reference.matched() > 0, "hotspot stream matched nothing");
        let rendered = format!("{reference:?}");
        for pool in [Some(1), Some(2), Some(8), None] {
            for rep in 0..2 {
                let report = run(pool);
                assert_eq!(
                    report, reference,
                    "pool {pool:?} rep {rep}: structural difference"
                );
                assert_eq!(
                    format!("{report:?}"),
                    rendered,
                    "pool {pool:?} rep {rep}: byte-level difference"
                );
            }
        }
    }

    #[test]
    fn snapshot_carries_events_still_waiting_in_shard_inboxes() {
        // No advance_to: every routed event still waits in an inbox, so
        // the snapshot must show them as pushed — byte for byte what a
        // restored session (whose shards took them in) writes back.
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 5.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Puce.engine(&cfg.params);
        let strategy = ShardStrategy::DropPairs;
        let mut s = ShardedSession::new(engine.as_ref(), cfg.clone(), &part, strategy);
        disjoint_stream().events().iter().for_each(|&e| s.push(e));
        let json = s.snapshot().to_json();
        let snap = ShardedSnapshot::from_json(&json).expect("snapshot parses");
        let mut restored = ShardedSession::restore(engine.as_ref(), cfg, &part, strategy, &snap)
            .expect("snapshot restores");
        assert_eq!(restored.snapshot().to_json(), json);
        assert_eq!(
            restored.close().without_timing(),
            s.close().without_timing()
        );
    }

    /// Pushes `event` into a fresh default session over a 2×1 grid.
    fn push_one(event: ArrivalEvent, strategy: ShardStrategy) {
        let part = GridPartition::new(Aabb::from_extents(0.0, 0.0, 10.0, 10.0), 2, 1);
        let cfg = StreamConfig::default();
        let engine = Method::Grd.engine(&cfg.params);
        ShardedSession::new(engine.as_ref(), cfg, &part, strategy).push(event);
    }

    #[test]
    #[should_panic(expected = "worker radius must be finite and >= 0")]
    fn sharded_push_rejects_a_negative_worker_radius() {
        // Public fields bypass `Worker::new`; the push must not.
        let mut event = disjoint_stream().events()[0];
        if let ArrivalEvent::Worker(w) = &mut event {
            w.worker.radius = -30.0;
        }
        push_one(event, ShardStrategy::Halo);
    }

    #[test]
    #[should_panic(expected = "arrival location must be finite")]
    fn sharded_push_rejects_a_nan_location() {
        let mut event = disjoint_stream().events()[2];
        if let ArrivalEvent::Task(t) = &mut event {
            t.task.location.x = f64::NAN;
        }
        push_one(event, ShardStrategy::DropPairs);
    }
}
