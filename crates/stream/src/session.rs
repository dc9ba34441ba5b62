//! The push-based session API — the primary interface of the online
//! pipeline — plus worker re-entry.
//!
//! [`StreamDriver::run`](crate::StreamDriver::run) is batch-shaped: it
//! consumes a pre-built [`ArrivalStream`](crate::ArrivalStream) and
//! drains it to completion. A production dispatch loop is not like
//! that — events arrive one at a time, time advances, and the caller
//! wants to *see* what the pipeline decided. [`StreamSession`] is that
//! interface:
//!
//! * [`push`](StreamSession::push) — feed one arrival event;
//! * [`advance_to`](StreamSession::advance_to) — declare the event-time
//!   watermark; every window that closes before it is formed and
//!   driven;
//! * [`poll_outcomes`](StreamSession::poll_outcomes) — drain the typed
//!   [`Outcome`] log (assignments, expiries, retirements, service
//!   departures, **worker returns**);
//! * [`close`](StreamSession::close) — drive the remaining windows and
//!   settle the aggregate [`StreamReport`](crate::StreamReport).
//!
//! [`StreamDriver::run`](crate::StreamDriver::run) and
//! [`run_sharded`](crate::run_sharded) are `push* → close` over this
//! session and [`ShardedSession`](crate::ShardedSession); flat and
//! drop-pairs runs step the same [`SessionCore`] behind the crate's one
//! windower, so every driving mode shares one set of
//! window/budget/fate semantics.
//!
//! # Worker re-entry
//!
//! A [`ServiceModel`] gives matched workers a *service duration*:
//! instead of departing for good (`ServiceModel::Never`, the
//! serve-and-leave default), a matched worker is held in an in-service
//! set and re-enters the pool at his completion time — with the same
//! logical id, so lifetime budgets
//! ([`CumulativeAccountant`](dpta_dp::CumulativeAccountant)), hard
//! caps and replay determinism all carry across service cycles.
//! Durations are pure functions of the match (pickup distance, task
//! value), never wall-clock time, so re-entry preserves bit-for-bit
//! replay and the flat/drop-pairs/halo equivalence gates.

use crate::driver::{novel_ledger_spend, IdStableNoise, PendingTask, ReleaseDedup, StreamConfig};
use crate::event::{check_arrival, ArrivalEvent, TaskArrival, WorkerArrival};
use crate::metrics::{
    percentile, StreamReport, TaskFate, WindowCutDecision, WindowFeedback, WindowReport,
};
use crate::snapshot::{SessionSnapshot, SnapshotError, SNAPSHOT_VERSION};
use crate::window::{Window, WindowPolicy, Windower};
use dpta_core::board::LOCATION_RELEASE;
use dpta_core::metrics::measure;
use dpta_core::{AssignmentEngine, Board, DeltaInstance};
use dpta_dp::{AccountId, BudgetLedger, FastMap, Interner, LedgerState, SeededNoise};
use dpta_workloads::budgets::BudgetGen;
use dpta_workloads::ValueModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// How long a matched worker is held in service before re-entering the
/// pool.
///
/// Durations are deterministic functions of the match — pickup distance
/// and task value — never wall-clock time, so enabling re-entry keeps
/// every replay and sharding gate bit-for-bit. `Never` reproduces the
/// pre-session serve-and-leave pipeline exactly.
///
/// # Examples
///
/// ```
/// use dpta_stream::ServiceModel;
/// use dpta_workloads::ValueModel;
///
/// assert_eq!(ServiceModel::Never.duration(2.0, 4.5), None);
/// assert_eq!(ServiceModel::Fixed { secs: 300.0 }.duration(2.0, 4.5), Some(300.0));
/// // Trip-length service: pickup leg + the trip the task value encodes
/// // (value = base + per_km · trip ⇒ trip = 5 km here), at 90 s/km.
/// let model = ServiceModel::PerTripKm {
///     value_model: ValueModel::PerTripKm { base: 2.0, per_km: 0.8 },
///     secs_per_km: 90.0,
/// };
/// assert_eq!(model.duration(1.0, 6.0), Some(90.0 * 6.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ServiceModel {
    /// Serve-and-leave: a matched worker departs for good. This is the
    /// pre-re-entry pipeline, bit for bit.
    #[default]
    Never,
    /// Every service takes the same fixed duration (seconds).
    Fixed {
        /// Service duration in seconds (positive, finite).
        secs: f64,
    },
    /// Travel-time service: `secs_per_km × (pickup distance + trip
    /// length)`, where the trip length is decoded from the task's value
    /// via [`ValueModel::trip_km`] — the Chengdu simulator's trips ride
    /// along on `ValueModel::PerTripKm` pricing, and constant-value
    /// tasks contribute only the pickup leg.
    PerTripKm {
        /// The pricing model the task values were generated under.
        value_model: ValueModel,
        /// Travel seconds per kilometre (positive, finite).
        secs_per_km: f64,
    },
    /// Fixed mean duration with deterministic multiplicative jitter: a
    /// match's service time is `secs · m` where the multiplier
    /// `m ∈ [1 − frac, 1 + frac]` is hashed from the run seed and the
    /// matched pair's *logical* ids. Same seed, same pair → same draw,
    /// in every window, shard and replay — stochastic-looking service
    /// times that keep the bit-for-bit gates intact (pinned by the
    /// replay-determinism test).
    Jittered {
        /// Mean service duration in seconds (positive, finite).
        secs: f64,
        /// Jitter half-width as a fraction of `secs`, in `[0, 1)`.
        /// Zero degenerates to [`ServiceModel::Fixed`].
        frac: f64,
    },
}

impl ServiceModel {
    /// The service duration of one match, or `None` when matched
    /// workers depart for good. `pickup_km` is the worker→task
    /// distance, `task_value` the matched task's value.
    pub fn duration(&self, pickup_km: f64, task_value: f64) -> Option<f64> {
        match *self {
            ServiceModel::Never => None,
            ServiceModel::Fixed { secs } => Some(secs),
            ServiceModel::PerTripKm {
                value_model,
                secs_per_km,
            } => Some(secs_per_km * (pickup_km + value_model.trip_km(task_value))),
            // The unkeyed view reports the mean; the pipeline draws via
            // `duration_keyed`.
            ServiceModel::Jittered { secs, .. } => Some(secs),
        }
    }

    /// The service duration of one *specific* match, keyed by the
    /// pair's logical ids and the run seed — the call the session
    /// stepper and halo coordinator make. Deterministic: the same
    /// (seed, worker, task) always draws the same duration, so replays
    /// and sharded runs agree bit for bit. Non-jittered variants
    /// ignore the key and defer to [`duration`](ServiceModel::duration).
    pub fn duration_keyed(
        &self,
        pickup_km: f64,
        task_value: f64,
        worker: u32,
        task: u32,
        seed: u64,
    ) -> Option<f64> {
        match *self {
            ServiceModel::Jittered { secs, frac } => {
                if frac == 0.0 {
                    return Some(secs);
                }
                let unit = jitter_unit(seed, worker, task);
                Some(secs * (1.0 + frac * (2.0 * unit - 1.0)))
            }
            _ => self.duration(pickup_km, task_value),
        }
    }

    /// Whether matched workers re-enter the pool at all.
    pub fn reenters(&self) -> bool {
        !matches!(self, ServiceModel::Never)
    }

    pub(crate) fn validate(&self) {
        match *self {
            ServiceModel::Never => {}
            ServiceModel::Fixed { secs } => assert!(
                secs > 0.0 && secs.is_finite(),
                "service duration must be positive and finite, got {secs}"
            ),
            ServiceModel::PerTripKm { secs_per_km, .. } => assert!(
                secs_per_km > 0.0 && secs_per_km.is_finite(),
                "secs_per_km must be positive and finite, got {secs_per_km}"
            ),
            ServiceModel::Jittered { secs, frac } => {
                assert!(
                    secs > 0.0 && secs.is_finite(),
                    "service duration must be positive and finite, got {secs}"
                );
                assert!(
                    (0.0..1.0).contains(&frac),
                    "jitter fraction must lie in [0, 1), got {frac}"
                );
            }
        }
    }
}

/// A uniform draw in `[0, 1)` hashed from `(seed, worker, task)` — the
/// service-jitter analog of the budget/noise derivations: a pure
/// function of logical ids, never of window indices or wall clocks.
fn jitter_unit(seed: u64, worker: u32, task: u32) -> f64 {
    // splitmix64 finalizer over the salted key; the salt keeps the
    // stream independent of the budget and noise derivations that hash
    // the same ids.
    const SALT: u64 = 0x9e2a_57f3_11c8_46d1;
    let mut x = seed ^ SALT ^ ((worker as u64) << 32) ^ (task as u64).rotate_left(17);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One typed event of the session's outcome log, drained via
/// [`StreamSession::poll_outcomes`]. Everything the per-window reports
/// aggregate is emitted here first, as it happens.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// A task was matched to a worker.
    Assigned {
        /// Logical task id.
        task: u32,
        /// Logical worker id.
        worker: u32,
        /// Window in which the match happened.
        window: usize,
        /// Seconds from task arrival to the matching window's close.
        latency: f64,
    },
    /// A task was dropped unserved (time-to-live exhausted).
    Expired {
        /// Logical task id.
        task: u32,
        /// Window after which the task was dropped.
        window: usize,
    },
    /// A worker's lifetime privacy budget ran out; he left the system.
    Retired {
        /// Logical worker id.
        worker: u32,
        /// Window at whose close the retirement fired.
        window: usize,
    },
    /// A matched worker left the pool to serve.
    EnteredService {
        /// Logical worker id.
        worker: u32,
        /// Window in which the match happened.
        window: usize,
        /// When the worker re-enters the pool, or `None` under
        /// [`ServiceModel::Never`] (departs for good).
        returns_at: Option<f64>,
    },
    /// A worker completed a service cycle and re-entered the pool.
    Returned {
        /// Logical worker id.
        worker: u32,
        /// Window that re-admitted the worker.
        window: usize,
        /// Completion time (seconds) at which the worker came free.
        at: f64,
        /// Completed service cycles so far (1 on the first return).
        cycle: usize,
    },
    /// Admission control held a task out of the window: the pool's
    /// aggregate remaining budget could not have served the backlog, so
    /// the task waits (burning no time-to-live) and is admitted into a
    /// later window once budget frees up. Emitted once, at the first
    /// deferral; re-deferrals of an already-waiting task are silent.
    Deferred {
        /// Logical task id.
        task: u32,
        /// Window that declined the admission.
        window: usize,
    },
}

/// One worker held out of the pool while serving a match.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct InService {
    return_time: f64,
    cycle: usize,
    worker: WorkerArrival,
}

/// The protocol state carried between windows for warm-start engines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CarriedBoard {
    board: Board,
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
}

/// One window's stream-observable signals, handed back to the adaptive
/// window controller after the window settles. The lockstep sharded
/// mode merges one per shard into a single global [`WindowFeedback`], which
/// is what keeps adaptive cuts identical across flat, drop-pairs and
/// halo execution.
pub(crate) struct StepSignals {
    /// Seconds from arrival to window close of every task present in
    /// the window (matched, expired and carried alike).
    pub(crate) ages: Vec<f64>,
    /// Unserved tasks carried out of the window.
    pub(crate) backlog: usize,
    /// Workers on duty after the window settled.
    pub(crate) pool: usize,
}

impl StepSignals {
    /// Merges per-shard signals into the global controller feedback.
    /// The percentile sorts, so shard order never affects the merge —
    /// concatenating shard age vectors reproduces the flat run's
    /// feedback exactly on shard-disjoint input.
    pub(crate) fn merge(signals: &[StepSignals]) -> WindowFeedback {
        let ages: Vec<f64> = signals
            .iter()
            .flat_map(|s| s.ages.iter().copied())
            .collect();
        WindowFeedback {
            p95_age: percentile(&ages, 0.95),
            backlog: signals.iter().map(|s| s.backlog).sum(),
            pool: signals.iter().map(|s| s.pool).sum(),
        }
    }
}

/// The mutable state of one driven stream: pool, pending tasks,
/// in-service set, lifetime accounting and carried protocol state,
/// stepped one window at a time. [`StreamSession`] wraps it behind the
/// push API; [`StreamDriver::run`](crate::StreamDriver::run) drains it
/// over a whole stream; the lockstep sharded mode steps one core per
/// shard so a single adaptive controller can window every shard
/// identically.
pub(crate) struct SessionCore<'e> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
    warm: bool,
    /// Worker re-entry on: matched workers keep their accountant entry
    /// and the lifetime charge goes through the id-keyed dedup set even
    /// on warm boards (a returned worker's carried history was dropped
    /// with his column, so his bit-identical re-publications must be
    /// filtered by the dedup, not the board spend delta).
    reentry: bool,
    budget_gen: BudgetGen,
    pool: Vec<WorkerArrival>,
    pending: Vec<PendingTask>,
    /// Tasks held back by admission control: arrived, not yet admitted
    /// into any window, burning no TTL. FIFO — the oldest deferral is
    /// readmitted first once budget frees up.
    deferred: VecDeque<PendingTask>,
    in_service: VecDeque<InService>,
    cycles: BTreeMap<u32, usize>,
    ledger: LedgerState,
    /// Per-worker pacing state (trailing burn-rate estimate), only
    /// maintained when [`StreamConfig::pacing`] is set.
    pace: BTreeMap<u32, PaceState>,
    carried: Option<CarriedBoard>,
    charged: ReleaseDedup,
    /// The pool and pending set as a maintained PA-TA instance: every
    /// admission/settlement below mirrors into it, so forming a
    /// window's [`Instance`](dpta_core::Instance) is an O(live +
    /// feasible pairs) emission instead of an all-pairs rebuild.
    delta: DeltaInstance,
    /// Task id → fate, hash-interned for O(1) per-settlement updates;
    /// every observable artefact (report, snapshot) re-sorts by id.
    fates: FastMap<u32, TaskFate>,
    /// Worker id → lifetime spend, same interned representation.
    spend_by_worker: FastMap<u32, f64>,
    reports: Vec<WindowReport>,
    outcomes: VecDeque<Outcome>,
}

/// The serializable state of a [`SessionCore`] at a window boundary.
///
/// Everything not here is reconstructed on restore: `warm`/`reentry`
/// are pure functions of the configuration and engine, `budget_gen` is
/// a pure keyed generator re-derived from the seed, and the
/// [`DeltaInstance`] caches are rebuilt by re-inserting the live pool
/// and pending set in their maintained order — which *is* the insertion
/// order a live session would have reached (pool/pending only append
/// and retain), so the rebuilt instance emits bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CoreSnapshot {
    pub(crate) pool: Vec<WorkerArrival>,
    pub(crate) pending: Vec<PendingTask>,
    pub(crate) deferred: VecDeque<PendingTask>,
    pub(crate) in_service: VecDeque<InService>,
    pub(crate) cycles: BTreeMap<u32, usize>,
    pub(crate) ledger: LedgerState,
    pub(crate) pace: BTreeMap<u32, PaceState>,
    pub(crate) carried: Option<CarriedBoard>,
    pub(crate) charged: ReleaseDedup,
    pub(crate) fates: BTreeMap<u32, TaskFate>,
    pub(crate) spend_by_worker: BTreeMap<u32, f64>,
    pub(crate) reports: Vec<WindowReport>,
    pub(crate) outcomes: VecDeque<Outcome>,
}

/// Per-worker budget-pacing state: the trailing per-window spend
/// estimate the throttle compares against the worker's remaining
/// budget. An exponential moving average (α = ½) keeps the forecast
/// responsive to bursts while damping one-window spikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PaceState {
    /// Ledger spend at the last window close (the delta baseline).
    pub(crate) last_spent: f64,
    /// Trailing per-window spend estimate, ε per window.
    pub(crate) ema: f64,
}

/// Admission control, shared by the session stepper and the halo
/// coordinator. Off (the default), every arrival is admitted on the
/// spot. With [`StreamConfig::admission`] set, a window admits only as
/// many tasks as the pool's aggregate remaining budget could plausibly
/// serve beyond the `carried_in` backlog; the excess waits in
/// `deferred` (no TTL burned), oldest deferral first. Returns the
/// admitted tasks in order, each flagged `true` when it is a fresh
/// arrival rather than a readmitted deferral; `on_defer` sees every
/// fresh arrival that is deferred.
pub(crate) fn admit_tasks(
    cfg: &StreamConfig,
    ledger: &LedgerState,
    pool: &[WorkerArrival],
    carried_in: usize,
    deferred: &mut VecDeque<PendingTask>,
    arrivals: &[TaskArrival],
    mut on_defer: impl FnMut(&PendingTask),
) -> Vec<(PendingTask, bool)> {
    let fresh = arrivals.iter().map(|&arrival| {
        let ttl = cfg.task_ttl;
        (PendingTask { arrival, ttl }, true)
    });
    let Some(ac) = cfg.admission else {
        return fresh.collect();
    };
    let mut aggregate = 0.0f64;
    for w in pool {
        aggregate += ledger.remaining(u64::from(w.id));
    }
    let serveable = if aggregate.is_finite() {
        (aggregate / ac.epsilon_per_task) as usize
    } else {
        usize::MAX
    };
    let mut allowed = serveable.saturating_sub(carried_in);
    let waiting: Vec<PendingTask> = deferred.drain(..).collect();
    let mut admitted = Vec::with_capacity(waiting.len() + arrivals.len());
    for (p, is_fresh) in waiting.into_iter().map(|p| (p, false)).chain(fresh) {
        if allowed > 0 {
            allowed -= 1;
            admitted.push((p, is_fresh));
        } else {
            if is_fresh {
                on_defer(&p);
            }
            deferred.push_back(p);
        }
    }
    admitted
}

/// Refreshes every tracked worker's pacing forecast from the window's
/// realized spend: an EMA over the per-window spend delta, clamped at
/// zero (window-`W` reclamation can shrink recorded spend, which is
/// not negative burn). Shared by the session stepper and the halo
/// coordinator.
pub(crate) fn refresh_pacing(ledger: &LedgerState, pace: &mut BTreeMap<u32, PaceState>) {
    let tracked = ledger.tracked_ids();
    for &id in &tracked {
        let spent = ledger.spent(id);
        let st = pace.entry(id as u32).or_insert(PaceState {
            last_spent: 0.0,
            ema: 0.0,
        });
        let burned = (spent - st.last_spent).max(0.0);
        st.ema = 0.5 * st.ema + 0.5 * burned;
        st.last_spent = spent;
    }
    pace.retain(|&id, _| tracked.binary_search(&u64::from(id)).is_ok());
}

/// Seconds from arrival to window close of every task in `pending` —
/// the age the window width controls, matched or not. Only the
/// adaptive controller consumes it, so static policies skip the
/// allocation.
pub(crate) fn waiting_ages(policy: &WindowPolicy, pending: &[PendingTask], end: f64) -> Vec<f64> {
    if !matches!(policy, WindowPolicy::Adaptive(_)) {
        return Vec::new();
    }
    pending.iter().map(|p| end - p.arrival.time).collect()
}

/// The workers a settled window retires, forgotten by the ledger.
/// Sliding-window (renewable) accounting never retires: an exhausted
/// worker idles behind the guard until old charges age out (an infinite
/// protection window is not renewable, so it retires exactly like
/// lifetime accounting). Under a hard cap spend never overshoots, so a
/// pooled worker who did not just depart retires once his remaining
/// budget cannot cover even the cheapest possible release (`floor`, the
/// draw range's lower bound). Shared by the session stepper and the
/// halo coordinator.
pub(crate) fn retire_exhausted(
    ledger: &mut LedgerState,
    pool: &[WorkerArrival],
    departed: &BTreeSet<u32>,
    capped: bool,
    floor: f64,
) -> BTreeSet<u64> {
    if ledger.renewable() {
        return BTreeSet::new();
    }
    let mut retired: BTreeSet<u64> = ledger.drain_exhausted().into_iter().collect();
    if capped {
        for w in pool {
            let id = u64::from(w.id);
            if !departed.contains(&w.id)
                && !retired.contains(&id)
                && ledger.remaining(id) + 1e-12 < floor
            {
                ledger.forget(id);
                retired.insert(id);
            }
        }
    }
    retired
}

impl<'e> SessionCore<'e> {
    /// A fresh session core for `engine` under `cfg`.
    pub(crate) fn new(engine: &'e dyn AssignmentEngine, cfg: StreamConfig) -> Self {
        cfg.service.validate();
        let warm = cfg.carry_releases && engine.supports_warm_start();
        let reentry = cfg.service.reenters();
        let budget_gen = BudgetGen::new(
            cfg.params.seed ^ 0x5712_EA11,
            0,
            cfg.budget_range,
            cfg.budget_group_size,
        );
        let ledger = cfg.ledger.state();
        SessionCore {
            engine,
            cfg,
            warm,
            reentry,
            budget_gen,
            pool: Vec::new(),
            pending: Vec::new(),
            deferred: VecDeque::new(),
            in_service: VecDeque::new(),
            cycles: BTreeMap::new(),
            ledger,
            pace: BTreeMap::new(),
            carried: None,
            charged: ReleaseDedup::default(),
            delta: DeltaInstance::new(),
            fates: FastMap::default(),
            spend_by_worker: FastMap::default(),
            reports: Vec::new(),
            outcomes: VecDeque::new(),
        }
    }

    /// Drains the outcome log accumulated since the last drain.
    pub(crate) fn drain_outcomes(&mut self) -> Vec<Outcome> {
        self.outcomes.drain(..).collect()
    }

    /// Captures the core's window-boundary state for a session
    /// snapshot.
    pub(crate) fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            pool: self.pool.clone(),
            pending: self.pending.clone(),
            deferred: self.deferred.clone(),
            in_service: self.in_service.clone(),
            cycles: self.cycles.clone(),
            ledger: self.ledger.clone(),
            pace: self.pace.clone(),
            carried: self.carried.clone(),
            charged: self.charged.clone(),
            fates: self.fates.iter().map(|(&id, f)| (id, *f)).collect(),
            spend_by_worker: self
                .spend_by_worker
                .iter()
                .map(|(&id, &e)| (id, e))
                .collect(),
            reports: self.reports.clone(),
            outcomes: self.outcomes.clone(),
        }
    }

    /// Rebuilds a core mid-stream from a snapshot. The delta caches are
    /// re-derived by inserting the pool (workers, in pool order) and
    /// the pending set (tasks, in pending order) — the maintained order
    /// equals the live session's insertion order, so the rebuilt
    /// instance emission is bit-identical to the uninterrupted run's.
    pub(crate) fn from_snapshot(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        snap: &CoreSnapshot,
    ) -> Self {
        let mut core = SessionCore::new(engine, cfg);
        core.pool = snap.pool.clone();
        core.pending = snap.pending.clone();
        core.deferred = snap.deferred.clone();
        core.in_service = snap.in_service.clone();
        core.cycles = snap.cycles.clone();
        core.ledger = snap.ledger.clone();
        core.pace = snap.pace.clone();
        core.carried = snap.carried.clone();
        core.charged = snap.charged.clone();
        core.fates = snap.fates.iter().map(|(&id, f)| (id, *f)).collect();
        core.spend_by_worker = snap
            .spend_by_worker
            .iter()
            .map(|(&id, &e)| (id, e))
            .collect();
        core.reports = snap.reports.clone();
        core.outcomes = snap.outcomes.clone();
        for w in &snap.pool {
            core.delta
                .insert_worker(u64::from(w.id), w.worker, |t, wk| {
                    core.budget_gen.vector(t as usize, wk as usize)
                });
        }
        for p in &snap.pending {
            core.delta
                .insert_task(u64::from(p.arrival.id), p.arrival.task, |tk, wk| {
                    core.budget_gen.vector(tk as usize, wk as usize)
                });
        }
        core
    }

    /// Settles remaining fates and assembles the aggregate report.
    pub(crate) fn finish(mut self, task_arrivals: usize, worker_arrivals: usize) -> StreamReport {
        for p in &self.pending {
            self.fates.insert(p.arrival.id, TaskFate::Pending);
        }
        // Tasks still held by admission control never entered a window,
        // but they arrived — the conservation law covers them as
        // pending.
        for p in &self.deferred {
            self.fates.insert(p.arrival.id, TaskFate::Pending);
        }
        StreamReport {
            engine: self.engine.name().to_string(),
            windows: self.reports,
            fates: self.fates.into_iter().collect(),
            task_arrivals,
            worker_arrivals,
            spend_by_worker: self.spend_by_worker.into_iter().collect(),
            warnings: Vec::new(),
        }
    }

    /// One window: re-admit returned workers, admit arrivals, drive the
    /// engine, settle fates. Returns the window's stream-observable
    /// signals for the adaptive controller.
    pub(crate) fn step(&mut self, window: &Window, cut: WindowCutDecision) -> StepSignals {
        let warm = self.warm;
        // Advance the ledger clock to the window start: under sliding-
        // window accounting this reclaims every charge that has aged
        // out of the protection window. Window starts are global across
        // flat, drop-pairs and halo execution, so every driving mode
        // reclaims at identical instants.
        self.ledger.advance_time(window.start);
        let mut returned_now = 0usize;
        // Returned workers re-enter the pool ahead of the window's fresh
        // arrivals, in (completion time, id) order — the same rule every
        // driving mode (flat, drop-pairs, halo) applies, so pool order
        // (and hence instance shape) stays identical across them.
        while self
            .in_service
            .front()
            .is_some_and(|s| s.return_time < window.end)
        {
            let s = self.in_service.pop_front().expect("front exists");
            self.outcomes.push_back(Outcome::Returned {
                worker: s.worker.id,
                window: window.index,
                at: s.return_time,
                cycle: s.cycle,
            });
            returned_now += 1;
            self.delta
                .insert_worker(u64::from(s.worker.id), s.worker.worker, |t, w| {
                    self.budget_gen.vector(t as usize, w as usize)
                });
            self.pool.push(s.worker);
        }
        for w in &window.workers {
            self.ledger
                .register(u64::from(w.id), self.cfg.worker_capacity);
        }
        for w in &window.workers {
            self.delta
                .insert_worker(u64::from(w.id), w.worker, |t, wk| {
                    self.budget_gen.vector(t as usize, wk as usize)
                });
            self.pool.push(*w);
        }
        let carried_in_now = self.pending.len();
        let mut deferred_now = 0usize;
        let admitted = admit_tasks(
            &self.cfg,
            &self.ledger,
            &self.pool,
            carried_in_now,
            &mut self.deferred,
            &window.tasks,
            |p| {
                deferred_now += 1;
                self.outcomes.push_back(Outcome::Deferred {
                    task: p.arrival.id,
                    window: window.index,
                });
            },
        );
        let mut readmitted_now = 0usize;
        for &(p, fresh) in &admitted {
            readmitted_now += usize::from(!fresh);
            self.delta
                .insert_task(u64::from(p.arrival.id), p.arrival.task, |tk, wk| {
                    self.budget_gen.vector(tk as usize, wk as usize)
                });
            self.pending.push(p);
        }
        let (pool, pending) = (&mut self.pool, &mut self.pending);
        let (ledger, carried) = (&mut self.ledger, &mut self.carried);
        let pace = &mut self.pace;
        let (charged, fates) = (&mut self.charged, &mut self.fates);
        let spend_by_worker = &mut self.spend_by_worker;
        let delta = &mut self.delta;

        // Observed stream state at window close: how long every task
        // present has been waiting. Matched or not, the formula is the
        // same — it is the age the window width controls. Only the
        // adaptive controller consumes it, so static-policy runs skip
        // the per-window allocation entirely.
        let ages = waiting_ages(&self.cfg.policy, pending, window.end);

        let mut report = WindowReport {
            index: window.index,
            start: window.start,
            end: window.end,
            tasks_arrived: window.tasks.len(),
            carried_in: carried_in_now + readmitted_now,
            workers_available: pool.len(),
            matched: 0,
            expired: 0,
            carried_out: 0,
            utility: 0.0,
            distance: 0.0,
            epsilon_spent: 0.0,
            publications: 0,
            rounds: 0,
            drive_time: std::time::Duration::ZERO,
            workers_retired: 0,
            workers_departed: 0,
            workers_returned: returned_now,
            workers_throttled: 0,
            tasks_deferred: deferred_now,
            cut,
        };

        // (pending index, pool index, worker id) of every match.
        let mut matched_tasks: Vec<(usize, usize, u32)> = Vec::new();
        if !pending.is_empty() && !pool.is_empty() {
            let task_ids: Vec<u32> = pending.iter().map(|p| p.arrival.id).collect();
            let worker_ids: Vec<u32> = pool.iter().map(|w| w.id).collect();
            // The maintained delta emits the window's instance — reach
            // sets and budget rows were resolved incrementally at each
            // arrival/return, and emission order equals the pool/pending
            // order `Instance::from_locations` would see, bit for bit
            // (pinned by the incremental property suite).
            let inst = delta.instance();
            debug_assert_eq!(inst.n_tasks(), pending.len());
            debug_assert_eq!(inst.n_workers(), pool.len());
            // Lifetime accounts, interned once per window: the guard
            // and charge loops below do dense-slot lookups instead of
            // per-worker tree descents.
            let worker_handles: Vec<AccountId> = pool
                .iter()
                .map(|w| {
                    ledger
                        .resolve(u64::from(w.id))
                        .expect("pooled worker is registered")
                })
                .collect();
            let noise = IdStableNoise {
                base: SeededNoise::new(self.cfg.params.seed),
                task_ids: &task_ids,
                worker_ids: &worker_ids,
            };

            let board = match carried.take() {
                Some(prev) if warm => {
                    let task_to_new: FastMap<u32, usize> = task_ids
                        .iter()
                        .enumerate()
                        .map(|(i, &id)| (id, i))
                        .collect();
                    let worker_to_new: FastMap<u32, usize> = worker_ids
                        .iter()
                        .enumerate()
                        .map(|(j, &id)| (id, j))
                        .collect();
                    prev.board.carry(
                        inst.n_tasks(),
                        inst.n_workers(),
                        |t_old| task_to_new.get(&prev.task_ids[t_old]).copied(),
                        |j_old| worker_to_new.get(&prev.worker_ids[j_old]).copied(),
                    )
                }
                _ => Board::new(inst.n_tasks(), inst.n_workers()),
            };
            // Only the delta-charging path below reads the pre-drive
            // spend snapshot; skip the scan everywhere else.
            let pre_spend: Option<Vec<f64>> = (warm && !self.reentry).then(|| {
                (0..inst.n_workers())
                    .map(|j| board.spent_total(j))
                    .collect()
            });
            let pre_pubs = board.publications();

            // With a finite lifetime capacity, warm drives run under
            // the engine-level remaining-budget hook: every proposal
            // whose ε would overshoot the worker's remaining lifetime
            // budget is skipped, so the cap is exact rather than
            // retire-at-window-close. (Fresh-board drives re-publish
            // already-charged releases the hook cannot distinguish from
            // novel spend, so they keep the window-close semantics.)
            let pacing = (warm && self.cfg.worker_capacity.is_finite())
                .then_some(self.cfg.pacing)
                .flatten();
            let guard: Option<Vec<f64>> =
                (warm && self.cfg.worker_capacity.is_finite()).then(|| {
                    worker_handles
                        .iter()
                        .zip(worker_ids.iter())
                        .map(|(&h, &wid)| {
                            let mut g = ledger.remaining_at(h);
                            // Pacing: when the trailing burn rate would
                            // exhaust the worker within the forecast
                            // horizon, cap this window's guard to an
                            // even slice of what remains, stretching
                            // the budget across the horizon.
                            if let Some(p) = pacing {
                                if let Some(st) = pace.get(&wid) {
                                    let horizon = p.horizon_windows as f64;
                                    if st.ema > 0.0 && g > 0.0 && st.ema * horizon > g {
                                        g /= horizon;
                                        report.workers_throttled += 1;
                                    }
                                }
                            }
                            g
                        })
                        .collect()
                });

            // dpta-lint: allow(no-wall-clock) -- drive_time is observability-only; no windowing or matching decision reads it
            let start = Instant::now();
            let outcome = if self.engine.supports_warm_start() {
                match &guard {
                    Some(g) => self.engine.resume_capped(&inst, board, &noise, g),
                    None => self.engine.resume(&inst, board, &noise),
                }
            } else {
                // One-shot engines require (and here always get) a
                // fresh board.
                let mut board = board;
                self.engine.assign(&inst, &mut board, &noise)
            };
            report.drive_time = start.elapsed();

            if let Some(pre_spend) = &pre_spend {
                // Warm board, serve-and-leave: a carried board never
                // re-publishes (slots only advance), so the spend delta
                // is exactly the novel information released this
                // window.
                for (j, w) in pool.iter().enumerate() {
                    let novel = (outcome.board.spent_total(j) - pre_spend[j]).max(0.0);
                    ledger.charge_at(worker_handles[j], novel);
                    report.epsilon_spent += novel;
                    if novel > 0.0 {
                        *spend_by_worker.entry(w.id).or_insert(0.0) += novel;
                    }
                }
            } else if warm {
                // Warm board under re-entry: a returned worker's column
                // is fresh (his history left the board with his old
                // column), so bit-identical re-publications to
                // still-pending tasks show up as board spend again. The
                // shared ledger-ordered dedup — the same helper the
                // halo coordinator charges through — filters them, so
                // each release is charged once per lifetime, service
                // cycles included, and flat and sharded runs sum spend
                // in the same order.
                for (j, &wid) in worker_ids.iter().enumerate() {
                    let novel = novel_ledger_spend(&outcome.board, j, wid, &task_ids, charged);
                    ledger.charge_at(worker_handles[j], novel);
                    report.epsilon_spent += novel;
                    if novel > 0.0 {
                        *spend_by_worker.entry(wid).or_insert(0.0) += novel;
                    }
                }
            } else {
                // Fresh boards re-publish for pairs still pending from
                // earlier windows. Under id-keyed noise and budgets the
                // repeat is bit-identical to the original release —
                // zero new information — so each distinct release is
                // charged exactly once over the stream's lifetime.
                // Deliberately NOT `novel_ledger_spend`: this path
                // predates re-entry and iterates `inst.reach(j)` —
                // switching to ledger order would reorder the float
                // sums and move serve-and-leave spend off its
                // historical bit pattern.
                for (j, &wid) in worker_ids.iter().enumerate() {
                    let mut novel = 0.0;
                    for &i in inst.reach(j) {
                        if let Some(set) = outcome.board.releases(i, j) {
                            for (u, rel) in set.releases().iter().enumerate() {
                                if charged.charge_pair(wid, task_ids[i], u as u32) {
                                    novel += rel.epsilon;
                                }
                            }
                        }
                    }
                    // Whole-location releases (Geo-I) appear only on
                    // the ledger, one per drive.
                    let loc = outcome.board.ledger(j).spent_on(LOCATION_RELEASE);
                    if loc > 0.0 && charged.charge_location(wid, loc.to_bits()) {
                        novel += loc;
                    }
                    ledger.charge_at(worker_handles[j], novel);
                    report.epsilon_spent += novel;
                    if novel > 0.0 {
                        *spend_by_worker.entry(wid).or_insert(0.0) += novel;
                    }
                }
            }
            let m = measure(
                &inst,
                &outcome,
                self.cfg.params.alpha,
                self.cfg.params.beta,
                self.engine.accounts_privacy(),
            );
            report.matched = m.matched;
            report.utility = m.total_utility;
            report.distance = m.total_distance;
            report.rounds = outcome.rounds;
            report.publications = outcome.board.publications() - pre_pubs;

            for (i, j) in outcome.assignment.pairs() {
                let worker_id = worker_ids[j];
                let latency = window.end - pending[i].arrival.time;
                fates.insert(
                    task_ids[i],
                    TaskFate::Assigned {
                        window: window.index,
                        worker: worker_id,
                        latency,
                    },
                );
                self.outcomes.push_back(Outcome::Assigned {
                    task: task_ids[i],
                    worker: worker_id,
                    window: window.index,
                    latency,
                });
                matched_tasks.push((i, j, worker_id));
            }

            if warm {
                *carried = Some(CarriedBoard {
                    board: outcome.board,
                    task_ids,
                    worker_ids,
                });
            }
        }

        // Settle the pool: matched workers depart to serve — for good
        // under `ServiceModel::Never`, into the in-service set
        // otherwise — and exhausted workers retire.
        let departed: BTreeSet<u32> = matched_tasks.iter().map(|&(_, _, w)| w).collect();
        for &(i, j, wid) in &matched_tasks {
            let pickup = pending[i]
                .arrival
                .task
                .location
                .distance(&pool[j].worker.location);
            match self.cfg.service.duration_keyed(
                pickup,
                pending[i].arrival.task.value,
                wid,
                pending[i].arrival.id,
                self.cfg.params.seed,
            ) {
                Some(d) => {
                    let return_time = window.end + d;
                    let cycle = {
                        let c = self.cycles.entry(wid).or_insert(0);
                        *c += 1;
                        *c
                    };
                    let entry = InService {
                        return_time,
                        cycle,
                        worker: pool[j],
                    };
                    // Kept sorted by (completion time, id) so re-entry
                    // order is a pure function of the run.
                    let pos = self
                        .in_service
                        .partition_point(|s| (s.return_time, s.worker.id) < (return_time, wid));
                    self.in_service.insert(pos, entry);
                    self.outcomes.push_back(Outcome::EnteredService {
                        worker: wid,
                        window: window.index,
                        returns_at: Some(return_time),
                    });
                }
                None => {
                    ledger.forget(u64::from(wid));
                    self.outcomes.push_back(Outcome::EnteredService {
                        worker: wid,
                        window: window.index,
                        returns_at: None,
                    });
                }
            }
        }
        report.workers_departed = departed.len();
        let capped = warm && self.cfg.worker_capacity.is_finite();
        let retired = retire_exhausted(ledger, pool, &departed, capped, self.cfg.budget_range.0);
        // An in-service worker can exhaust his budget at the very match
        // that sent him out (re-entry keeps him tracked): he finishes
        // the trip he is on but retires instead of returning.
        if self.reentry && !retired.is_empty() {
            self.in_service
                .retain(|s| !retired.contains(&u64::from(s.worker.id)));
        }
        report.workers_retired = retired.len();
        for &id in &retired {
            self.outcomes.push_back(Outcome::Retired {
                worker: id as u32,
                window: window.index,
            });
        }
        pool.retain(|w| !departed.contains(&w.id) && !retired.contains(&u64::from(w.id)));
        // Mirror the pool settlement into the maintained instance.
        // Removal is idempotent, so retired ids that were never pooled
        // (e.g. workers retiring mid-service) fall through harmlessly.
        for &wid in &departed {
            delta.remove_worker(u64::from(wid));
        }
        for &id in &retired {
            delta.remove_worker(id);
        }

        // Settle the tasks: matched leave, survivors age, the too-old
        // expire.
        let mut matched_mask = vec![false; pending.len()];
        for &(i, _, _) in &matched_tasks {
            matched_mask[i] = true;
        }
        let mut next_pending = Vec::with_capacity(pending.len());
        for (i, mut p) in pending.drain(..).enumerate() {
            if matched_mask[i] {
                delta.remove_task(u64::from(p.arrival.id));
                continue;
            }
            p.ttl -= 1;
            if p.ttl == 0 {
                delta.remove_task(u64::from(p.arrival.id));
                fates.insert(
                    p.arrival.id,
                    TaskFate::Expired {
                        window: window.index,
                    },
                );
                self.outcomes.push_back(Outcome::Expired {
                    task: p.arrival.id,
                    window: window.index,
                });
                report.expired += 1;
            } else {
                next_pending.push(p);
            }
        }
        *pending = next_pending;
        report.carried_out = pending.len();
        if self.cfg.pacing.is_some() {
            refresh_pacing(ledger, pace);
        }
        let signals = StepSignals {
            ages,
            backlog: pending.len(),
            pool: pool.len(),
        };
        self.reports.push(report);
        signals
    }
}

/// The push-based streaming interface: feed arrival events, advance
/// the event-time watermark, poll typed [`Outcome`]s, close for the
/// aggregate report. [`StreamDriver::run`](crate::StreamDriver::run)
/// is exactly `push* → close` over a pre-built stream.
///
/// # Watermark contract
///
/// [`advance_to(t)`](StreamSession::advance_to) declares that every
/// event strictly before `t` has been pushed; pushing an event whose
/// timestamp lies below the watermark afterwards panics (the window it
/// belonged to may already be driven). This is the standard
/// out-of-orderness bound of streaming systems: events may be pushed
/// in any order ahead of the watermark, and the session sorts them
/// into windows exactly as [`ArrivalStream`](crate::ArrivalStream)
/// construction would.
///
/// # Examples
///
/// ```
/// use dpta_core::{Method, Task, Worker};
/// use dpta_spatial::Point;
/// use dpta_stream::{
///     ArrivalEvent, Outcome, StreamConfig, StreamSession, TaskArrival, WindowPolicy,
///     WorkerArrival,
/// };
///
/// let cfg = StreamConfig {
///     policy: WindowPolicy::ByTime { width: 60.0 },
///     ..StreamConfig::default()
/// };
/// let engine = Method::Grd.engine(&cfg.params);
/// let mut session = StreamSession::new(engine.as_ref(), cfg);
/// session.push(ArrivalEvent::Worker(WorkerArrival {
///     id: 0,
///     time: 0.0,
///     worker: Worker::new(Point::new(0.0, 0.0), 2.0),
/// }));
/// session.push(ArrivalEvent::Task(TaskArrival {
///     id: 0,
///     time: 10.0,
///     task: Task::new(Point::new(0.5, 0.0), 4.5),
/// }));
/// // Nothing is driven until the watermark passes a window boundary.
/// session.advance_to(59.0);
/// assert!(session.poll_outcomes().is_empty());
/// session.advance_to(61.0);
/// let outcomes = session.poll_outcomes();
/// assert!(matches!(outcomes[0], Outcome::Assigned { task: 0, worker: 0, .. }));
/// let report = session.close();
/// assert_eq!(report.matched(), 1);
/// ```
pub struct StreamSession<'e> {
    core: Option<SessionCore<'e>>,
    former: Windower,
    residual: VecDeque<Outcome>,
    n_tasks: usize,
    n_workers: usize,
    /// Arrival ids seen so far, interned to dense symbols — the
    /// uniqueness check is one hash probe however many entities the
    /// stream has carried.
    task_ids: Interner,
    worker_ids: Interner,
}

impl<'e> StreamSession<'e> {
    /// Opens a session for `engine` under `cfg`. Panics on degenerate
    /// configuration (zero TTL, empty budget group, non-positive
    /// capacity or window knobs).
    pub fn new(engine: &'e dyn AssignmentEngine, cfg: StreamConfig) -> Self {
        cfg.assert_valid();
        let former = Windower::new(cfg.policy, cfg.horizon);
        StreamSession {
            core: Some(SessionCore::new(engine, cfg)),
            former,
            residual: VecDeque::new(),
            n_tasks: 0,
            n_workers: 0,
            task_ids: Interner::new(),
            worker_ids: Interner::new(),
        }
    }

    /// The configuration this session runs under. Panics once closed.
    pub fn config(&self) -> &StreamConfig {
        &self.core.as_ref().expect("session closed").cfg
    }

    /// The current event-time watermark.
    pub fn now(&self) -> f64 {
        self.former.watermark
    }

    /// Pre-sizes the windower's event buffer for `additional` more
    /// pushes. Purely an allocation hint: a drain over a pre-built
    /// stream knows its length up front, and reserving once spares the
    /// buffer its ~log n doubling copies on the way to 10⁵⁺ buffered
    /// events.
    pub fn reserve(&mut self, additional: usize) {
        self.former.reserve(additional);
    }

    /// Feeds one arrival event. Panics on a non-finite or negative
    /// timestamp, a timestamp below the watermark (its window may
    /// already be closed), a non-finite location, a non-finite or
    /// negative task value or worker radius, a duplicate id within an
    /// entity kind, or a closed session.
    pub fn push(&mut self, event: ArrivalEvent) {
        assert!(self.core.is_some(), "push on a closed session");
        check_arrival(
            &event,
            self.former.watermark,
            &mut self.task_ids,
            &mut self.worker_ids,
        );
        match event {
            ArrivalEvent::Task(_) => self.n_tasks += 1,
            ArrivalEvent::Worker(_) => self.n_workers += 1,
        }
        self.former.push(event);
    }

    /// Advances the watermark to `t` (monotone; lower values are
    /// no-ops) and drives every window that closes before it. Outcomes
    /// accumulate for [`poll_outcomes`](Self::poll_outcomes).
    pub fn advance_to(&mut self, t: f64) {
        assert!(self.core.is_some(), "advance_to on a closed session");
        assert!(
            t.is_finite() && t >= 0.0,
            "watermark must be finite, got {t}"
        );
        if t <= self.former.watermark {
            return;
        }
        self.former.advance(t);
        self.drive_ready(false);
    }

    /// Drains the typed outcome log accumulated since the last poll.
    pub fn poll_outcomes(&mut self) -> Vec<Outcome> {
        let mut out: Vec<Outcome> = self.residual.drain(..).collect();
        if let Some(core) = self.core.as_mut() {
            out.extend(core.drain_outcomes());
        }
        out
    }

    /// Drives every remaining window (trailing empties included, up to
    /// the configured horizon), settles the final fates and returns the
    /// aggregate report. Outcomes emitted while closing stay pollable.
    /// Panics if called twice.
    pub fn close(&mut self) -> StreamReport {
        assert!(self.core.is_some(), "close on a closed session");
        self.drive_ready(true);
        let mut core = self.core.take().expect("core present");
        self.residual.extend(core.drain_outcomes());
        core.finish(self.n_tasks, self.n_workers)
    }

    /// Captures the session's full state — buffered events, watermark,
    /// adaptive-controller trajectory, pool/pending/in-service sets,
    /// the lifetime-budget ledger with its dedup set, carried protocol
    /// boards, fates and per-window reports — as a versioned, stable
    /// [`SessionSnapshot`]. Restoring it with
    /// [`StreamSession::restore`] and draining reproduces the
    /// uninterrupted run bit for bit. Panics on a closed session.
    pub fn snapshot(&self) -> SessionSnapshot {
        self.snapshot_with(&[])
    }

    /// [`snapshot`](Self::snapshot) as if `pending` (arrival-checked
    /// events) had been pushed first — the sharded session's view of a
    /// shard whose routed events still wait in its inbox.
    pub(crate) fn snapshot_with(&self, pending: &[ArrivalEvent]) -> SessionSnapshot {
        let core = self.core.as_ref().expect("snapshot on a closed session");
        let mut snap = SessionSnapshot {
            version: SNAPSHOT_VERSION,
            engine: core.engine.name().to_string(),
            config: core.cfg.clone(),
            windower: self.former.snapshot(),
            core: core.snapshot(),
            residual: self.residual.clone(),
            n_tasks: self.n_tasks,
            n_workers: self.n_workers,
            task_ids: self.task_ids.ids().iter().map(|&id| id as u32).collect(),
            worker_ids: self.worker_ids.ids().iter().map(|&id| id as u32).collect(),
        };
        if !pending.is_empty() {
            let mut former = self.former.clone();
            for &event in pending {
                former.push(event);
                let (count, ids, id) = match event {
                    ArrivalEvent::Task(a) => (&mut snap.n_tasks, &mut snap.task_ids, a.id),
                    ArrivalEvent::Worker(a) => (&mut snap.n_workers, &mut snap.worker_ids, a.id),
                };
                *count += 1;
                ids.insert(id);
            }
            snap.windower = former.snapshot();
        }
        snap
    }

    /// Reopens a session from a snapshot taken by
    /// [`StreamSession::snapshot`]. The caller supplies the engine and
    /// configuration; both must match what the snapshot was taken
    /// under — a different snapshot format version is rejected as
    /// [`SnapshotError::VersionMismatch`], and any differing
    /// configuration field (engine, policy, capacity, service model,
    /// ...) as [`SnapshotError::ConfigMismatch`] naming the field.
    /// Everything derivable is reconstructed: budget generators from
    /// the seed, delta-instance caches from the live pool/pending
    /// order.
    pub fn restore(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        snapshot: &SessionSnapshot,
    ) -> Result<Self, SnapshotError> {
        snapshot.validate(engine.name(), &cfg)?;
        let former = Windower::from_snapshot(cfg.policy, cfg.horizon, &snapshot.windower)?;
        let core = SessionCore::from_snapshot(engine, cfg, &snapshot.core);
        Ok(StreamSession {
            core: Some(core),
            former,
            residual: snapshot.residual.clone(),
            n_tasks: snapshot.n_tasks,
            n_workers: snapshot.n_workers,
            task_ids: snapshot.task_ids.iter().map(|&id| u64::from(id)).collect(),
            worker_ids: snapshot
                .worker_ids
                .iter()
                .map(|&id| u64::from(id))
                .collect(),
        })
    }

    /// Extends the covered span to at least `t` — the sharded session
    /// injects the *global* span before closing so every shard forms
    /// the same trailing windows.
    pub(crate) fn extend_horizon(&mut self, t: f64) {
        self.former.extend_horizon(t);
    }

    /// Events pushed so far.
    pub(crate) fn arrivals(&self) -> usize {
        self.n_tasks + self.n_workers
    }

    fn drive_ready(&mut self, drain: bool) {
        let core = self.core.as_mut().expect("core present");
        while let Some(window) = self.former.next_ready(drain) {
            let signals = core.step(&window, self.former.last_decision);
            self.former
                .observe(&StepSignals::merge(std::slice::from_ref(&signals)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::StreamDriver;
    use crate::event::{ArrivalStream, TaskArrival};
    use crate::window::AdaptivePolicy;
    use dpta_core::{Method, Task, Worker};
    use dpta_spatial::Point;

    fn task(id: u32, time: f64, x: f64) -> ArrivalEvent {
        ArrivalEvent::Task(TaskArrival {
            id,
            time,
            task: Task::new(Point::new(x, 0.5), 4.5),
        })
    }

    fn worker(id: u32, time: f64, x: f64, r: f64) -> ArrivalEvent {
        ArrivalEvent::Worker(WorkerArrival {
            id,
            time,
            worker: Worker::new(Point::new(x, 0.0), r),
        })
    }

    fn busy_stream() -> ArrivalStream {
        let mut events = Vec::new();
        for k in 0..5u32 {
            events.push(worker(k, 7.0 * k as f64, k as f64, 2.5));
        }
        for k in 0..12u32 {
            events.push(task(k, 5.0 + 23.0 * k as f64, (k % 5) as f64));
        }
        ArrivalStream::new(events)
    }

    /// Pushing a stream's events and closing must reproduce
    /// `StreamDriver::run` exactly, for every policy family.
    #[test]
    fn session_drain_equals_driver_run_across_policies() {
        let stream = busy_stream();
        for policy in [
            WindowPolicy::ByTime { width: 60.0 },
            WindowPolicy::ByCount { tasks: 4 },
            WindowPolicy::Adaptive(AdaptivePolicy {
                base_width: 60.0,
                min_width: 10.0,
                max_width: 240.0,
                burst_tasks: 3,
                target_p95: 45.0,
            }),
        ] {
            let cfg = StreamConfig {
                policy,
                ..StreamConfig::default()
            };
            for method in [Method::Puce, Method::Grd] {
                let engine = method.engine(&cfg.params);
                let direct = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
                let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
                for e in stream.events() {
                    session.push(*e);
                }
                let pushed = session.close();
                assert_eq!(
                    direct.without_timing(),
                    pushed.without_timing(),
                    "{method} under {policy:?}"
                );
            }
        }
    }

    /// Interleaving pushes with watermark advances must not change the
    /// run: windows close identically whether events are drained in one
    /// go or as time passes.
    #[test]
    fn incremental_advance_matches_one_shot_close() {
        let stream = busy_stream();
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 45.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Puce.engine(&cfg.params);
        let direct = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);

        let mut session = StreamSession::new(engine.as_ref(), cfg);
        let mut outcomes = Vec::new();
        for e in stream.events() {
            // Watermark trails the event times: everything before this
            // arrival is final.
            session.advance_to(e.time());
            session.push(*e);
            outcomes.extend(session.poll_outcomes());
        }
        let report = session.close();
        outcomes.extend(session.poll_outcomes());
        assert_eq!(direct.without_timing(), report.without_timing());
        let assigned = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Assigned { .. }))
            .count();
        assert_eq!(assigned, report.matched());
        let expired = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Expired { .. }))
            .count();
        assert_eq!(expired, report.expired());
    }

    #[test]
    fn by_time_boundaries_stay_on_the_k_width_grid() {
        // Regression: a width with no exact binary representation must
        // not drift off the `k·width` grid every shard anchors to —
        // accumulated addition did.
        let stream = busy_stream();
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 0.7 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let report = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        // Windows tile [0, horizon] on the grid: the last starts at or
        // before the final event at t = 258.
        assert_eq!(stream.horizon(), 258.0);
        assert_eq!(report.windows.len(), (258.0f64 / 0.7) as usize + 1);
        for (k, w) in report.windows.iter().enumerate() {
            assert_eq!(w.index, k);
            assert_eq!(
                (w.start.to_bits(), w.end.to_bits()),
                ((k as f64 * 0.7).to_bits(), ((k + 1) as f64 * 0.7).to_bits()),
                "window {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "widen the window")]
    fn degenerate_widths_fail_fast() {
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 1e-6 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        session.push(task(0, 100_000.0, 0.0));
        let _ = session.close();
    }

    #[test]
    #[should_panic(expected = "late arrival")]
    fn late_pushes_panic() {
        let cfg = StreamConfig::default();
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        session.advance_to(100.0);
        session.push(task(0, 50.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "unique per entity kind")]
    fn duplicate_ids_panic() {
        let cfg = StreamConfig::default();
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        session.push(task(3, 1.0, 0.0));
        session.push(task(3, 2.0, 0.0));
    }

    /// Pushes `event` into a fresh default session.
    fn push_one(event: ArrivalEvent) {
        let cfg = StreamConfig::default();
        let engine = Method::Grd.engine(&cfg.params);
        StreamSession::new(engine.as_ref(), cfg).push(event);
    }

    #[test]
    #[should_panic(expected = "worker radius must be finite and >= 0")]
    fn negative_worker_radius_panics() {
        // Public fields bypass `Worker::new`; the push must not.
        let mut event = worker(0, 0.0, 0.0, 1.0);
        if let ArrivalEvent::Worker(w) = &mut event {
            w.worker.radius = -30.0;
        }
        push_one(event);
    }

    #[test]
    #[should_panic(expected = "arrival location must be finite")]
    fn nan_location_panics() {
        let mut event = task(0, 0.0, 0.0);
        if let ArrivalEvent::Task(t) = &mut event {
            t.task.location.x = f64::NAN;
        }
        push_one(event);
    }

    #[test]
    fn untouched_session_closes_to_an_empty_report() {
        let cfg = StreamConfig::default();
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        let report = session.close();
        assert!(report.windows.is_empty());
        assert_eq!(report.task_arrivals, 0);
    }

    #[test]
    fn out_of_order_pushes_ahead_of_the_watermark_are_sorted() {
        let cfg = StreamConfig {
            policy: WindowPolicy::ByTime { width: 50.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let mut session = StreamSession::new(engine.as_ref(), cfg.clone());
        // Pushed out of order; the stream constructor would sort them.
        session.push(task(1, 80.0, 1.0));
        session.push(worker(0, 0.0, 1.0, 2.0));
        session.push(task(0, 10.0, 1.0));
        let pushed = session.close();
        let stream = ArrivalStream::new(vec![
            worker(0, 0.0, 1.0, 2.0),
            task(0, 10.0, 1.0),
            task(1, 80.0, 1.0),
        ]);
        let direct = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
        assert_eq!(direct.without_timing(), pushed.without_timing());
    }

    #[test]
    fn reentry_recycles_the_worker_with_the_same_id() {
        // One worker, three reachable tasks spread over time: under
        // serve-and-leave only the first is served; with a short fixed
        // service the same worker (same id) returns and serves all.
        let events: Vec<ArrivalEvent> = vec![
            worker(7, 0.0, 0.0, 3.0),
            task(0, 10.0, 0.5),
            task(1, 130.0, 0.6),
            task(2, 250.0, 0.4),
        ];
        let stream = ArrivalStream::new(events);
        let base = StreamConfig {
            policy: WindowPolicy::ByTime { width: 60.0 },
            task_ttl: 10,
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&base.params);

        let never = StreamDriver::new(engine.as_ref(), base.clone()).run(&stream);
        assert_eq!(never.matched(), 1, "serve-and-leave serves once");
        assert_eq!(never.returns(), 0);

        let cfg = StreamConfig {
            service: ServiceModel::Fixed { secs: 30.0 },
            ..base
        };
        let reentry = StreamDriver::new(engine.as_ref(), cfg.clone()).run(&stream);
        reentry.assert_conservation();
        assert_eq!(reentry.matched(), 3, "the recycled worker serves all");
        assert_eq!(reentry.returns(), 2, "two completed cycles re-admitted");
        for fate in reentry.fates.values() {
            assert!(
                matches!(fate, TaskFate::Assigned { worker: 7, .. }),
                "every match must carry the same logical worker id"
            );
        }
        // The outcome log narrates the cycles.
        let mut session = StreamSession::new(engine.as_ref(), cfg);
        for e in stream.events() {
            session.push(*e);
        }
        let _ = session.close();
        let outcomes = session.poll_outcomes();
        let cycles: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Returned {
                    worker: 7, cycle, ..
                } => Some(*cycle),
                _ => None,
            })
            .collect();
        assert_eq!(cycles, vec![1, 2]);
    }

    #[test]
    fn huge_service_durations_degenerate_to_serve_and_leave() {
        // A duration beyond the stream horizon means nobody ever
        // returns: fates, spend and window cuts must equal the
        // serve-and-leave run's exactly.
        let stream = busy_stream();
        let base = StreamConfig {
            policy: WindowPolicy::ByTime { width: 60.0 },
            ..StreamConfig::default()
        };
        for method in [Method::Puce, Method::Pgt, Method::Grd] {
            let engine = method.engine(&base.params);
            let never = StreamDriver::new(engine.as_ref(), base.clone()).run(&stream);
            let parked = StreamDriver::new(
                engine.as_ref(),
                StreamConfig {
                    service: ServiceModel::Fixed { secs: 1e9 },
                    ..base.clone()
                },
            )
            .run(&stream);
            assert_eq!(never.fates, parked.fates, "{method}");
            assert_eq!(never.spend_by_worker, parked.spend_by_worker, "{method}");
            let cuts = |r: &StreamReport| {
                r.windows
                    .iter()
                    .map(|w| (w.start, w.end, w.cut))
                    .collect::<Vec<_>>()
            };
            assert_eq!(cuts(&never), cuts(&parked), "{method}");
            assert_eq!(parked.returns(), 0, "{method}");
        }
    }

    #[test]
    fn per_trip_service_durations_scale_with_the_task_value() {
        let value_model = ValueModel::PerTripKm {
            base: 2.0,
            per_km: 0.8,
        };
        let service = ServiceModel::PerTripKm {
            value_model,
            secs_per_km: 60.0,
        };
        // A 6-value task encodes a 5 km trip; with a 1 km pickup leg the
        // service runs 6 km at 60 s/km.
        assert_eq!(service.duration(1.0, 6.0), Some(360.0));
        // Constant-value tasks carry no trip: pickup leg only.
        let service = ServiceModel::PerTripKm {
            value_model: ValueModel::Constant,
            secs_per_km: 60.0,
        };
        assert_eq!(service.duration(2.0, 4.5), Some(120.0));
    }

    #[test]
    #[should_panic(expected = "service duration must be positive")]
    fn degenerate_service_durations_panic() {
        let cfg = StreamConfig {
            service: ServiceModel::Fixed { secs: 0.0 },
            ..StreamConfig::default()
        };
        let engine = Method::Grd.engine(&cfg.params);
        let _ = StreamSession::new(engine.as_ref(), cfg);
    }
}
