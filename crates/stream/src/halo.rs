//! The boundary-halo protocol: cross-shard routing for sharded
//! streaming without dropped pairs.
//!
//! Drop-pairs sharding ([`ShardStrategy::DropPairs`]) is exact only
//! when every worker's service disc stays inside its grid cell. Real
//! spatial workloads are not like that — demand concentrates exactly
//! where cells meet — so this module implements the recovery protocol:
//!
//! 1. **Halo membership.** Each window, every shard's instance holds
//!    its own tasks plus every worker — interior *or foreign* — whose
//!    service disc reaches into its cell
//!    ([`GridPartition::reach_shards`]). Tasks are never replicated
//!    (each lives in exactly the cell owning its location), so every
//!    feasible pair, cross-boundary or not, is seen by exactly one
//!    shard: the task's. Membership is resolved once per worker —
//!    locations are immutable — and each shard's instance is
//!    *maintained* as a [`DeltaInstance`] across windows and
//!    reconciliation passes, so building a shard's window costs
//!    O(arrivals + departures), not a from-scratch rebuild.
//! 2. **Propose.** Shards drive the engine over interior ∪ halo and
//!    *propose* their matches. A worker reaching `k` cells can be
//!    claimed by up to `k` shards.
//! 3. **Reconcile.** Competing claims on a worker are resolved by a
//!    deterministic, id-keyed priority rule: the worker's *home* shard
//!    (the cell owning his location) wins; a foreign-only worker goes
//!    to the lowest claiming shard id. A winning claim is *committed*
//!    only when it is clean — neither the winning shard nor the
//!    worker's home shard lost a conflict in the same pass (a losing
//!    shard reruns, and its rerun may claim differently); when every
//!    candidate is entangled in mutual-loss cycles, the smallest
//!    worker id is forced through. Committed claims are final; shards
//!    that lost a committed worker rerun over their remaining
//!    entities, and the loop repeats until no claim is rejected. Every
//!    pass commits at least one worker, so the loop terminates within
//!    `|pool|` passes.
//! 4. **Incremental reruns.** Engine interactions flow only along
//!    feasibility-graph edges, and noise/budgets are keyed by logical
//!    ids — so a rerun over the remaining entities can differ from the
//!    previous pass only inside the connected components that lost an
//!    entity. The coordinator therefore tracks the components of each
//!    shard's last full drive ([`PairComponents`]) and, on a
//!    reconciliation pass, re-drives *only the dirty components*: the
//!    undisturbed components keep their previous claims, spend and
//!    board columns, which are bit-identical to what a full rerun
//!    would re-derive. A shard none of whose remaining entities sit in
//!    a dirty component skips the drive entirely — the PR-5
//!    zero-feasible early-out is the trivial case, now an O(1) check
//!    off the maintained instance. The next window's carried board is
//!    stitched per entity from the last drive that covered it; the
//!    stitch is exact because a worker's whole release history lives
//!    inside his own component. Full reruns are kept in two cases:
//!    under a finite hard cap (the budget guard reads the live
//!    accountant, whose reservations move between passes, so a rerun
//!    is guard-sensitive beyond its own components) and under
//!    [`StreamConfig::halo_full_rerun`] (the reference semantics the
//!    incremental property suite compares against).
//! 5. **Charge once.** Per-pair releases are deterministic functions
//!    of `(worker id, task id, slot)`, so a rerun re-derives
//!    bit-identical publications. A global release dedup
//!    ([`ReleaseDedup`]) keys a
//!    [`BudgetLedger::reserve`](dpta_dp::BudgetLedger::reserve) for
//!    each *novel* release; after reconciliation the window's
//!    reservations are committed exactly once per worker
//!    ([`BudgetLedger::commit`](dpta_dp::BudgetLedger::commit)).
//!    Whole-location releases (the Geo-I baseline) are the one
//!    exception: their ε is the mean over the worker's reach set, so a
//!    rerun over fewer reachable tasks publishes a *genuinely new*
//!    noisy location — real additional leakage, reserved and charged
//!    as such. One-shot location engines therefore pay per
//!    reconciliation rerun; that is the honest price, not a dedup
//!    miss.
//!
//! On shard-disjoint input no worker has a halo, no claim ever
//! conflicts, and the run settles in one pass per window — matching the
//! unsharded run assignment for assignment, fate for fate. On general
//! input the protocol is near-exact: the only utility left unrecovered
//! is what reconciliation rejects in the final pass of a window.
//! `ARCHITECTURE.md` ("Sharding & the halo protocol", "Incremental
//! instance maintenance") documents the guarantees and their limits.
//!
//! [`ShardStrategy::DropPairs`]: crate::ShardStrategy::DropPairs
//! [`ReleaseDedup`]: crate::driver::ReleaseDedup

use crate::driver::{novel_ledger_spend, IdStableNoise, PendingTask, ReleaseDedup, StreamConfig};
use crate::event::WorkerArrival;
use crate::metrics::{ShardedReport, StreamReport, TaskFate, WindowCutDecision, WindowReport};
use crate::session::{
    admit_tasks, refresh_pacing, retire_exhausted, waiting_ages, PaceState, StepSignals,
};
use crate::shard::parallel_map;
use crate::snapshot::SnapshotError;
use crate::window::Window;
use dpta_core::board::LOCATION_RELEASE;
use dpta_core::{AssignmentEngine, Board, DeltaInstance, Instance, RunOutcome};
use dpta_dp::{BudgetLedger, FastMap, LedgerState, SeededNoise};
use dpta_matching::repair::PairComponents;
use dpta_spatial::GridPartition;
use dpta_workloads::budgets::BudgetGen;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Protocol state a shard carries across windows (warm-start engines).
///
/// After an incremental window this is a *stitched* view: the base
/// full drive plus every component-restricted re-drive, later sources
/// overriding earlier ones per entity. [`carry_board`] flattens the
/// stack onto the next window's board; the result is bit-identical to
/// carrying a monolithic full-rerun board because an entity's release
/// history never leaves its own feasibility component.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Carried {
    sources: Vec<CarrySource>,
}

/// One board in the carried stack, keyed by the logical ids it was
/// built over.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CarrySource {
    board: Board,
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
}

/// One worker held out of the pool while serving a committed match —
/// the halo coordinator's half of [`ServiceModel`] re-entry, mirroring
/// the session stepper's rules exactly (same completion-time ordering,
/// same re-admission boundary) so flat and halo runs stay bit-for-bit
/// on shard-disjoint input.
///
/// [`ServiceModel`]: crate::ServiceModel
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct Serving {
    return_time: f64,
    worker: WorkerArrival,
}

/// One shard's engine run inside one reconciliation pass.
struct ShardRun {
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
    outcome: RunOutcome,
    /// Publications already on the board before the drive (carried
    /// history), subtracted from the reported publication count.
    pre_pubs: usize,
    /// Feasibility components of the driven instance, resolved to a
    /// root per entity id. Computed for full drives on the incremental
    /// path; `None` for sub-drives (which inherit the base's roots)
    /// and for full-rerun / capped runs (which never consult them).
    roots: Option<RunRoots>,
}

/// Component roots of one driven instance, by logical id.
struct RunRoots {
    task_root: FastMap<u32, u32>,
    worker_root: FastMap<u32, u32>,
}

/// A shard's reconciliation state for the current window.
#[derive(Default)]
struct ShardPassState {
    /// The last *full* drive of this window.
    base: Option<ShardRun>,
    /// Component-restricted re-drives since `base`, in pass order.
    subs: Vec<ShardRun>,
    /// Roots (of `base`'s components) that lost an entity since the
    /// shard last drove. Cleared whenever the shard drives or proves a
    /// skip.
    dirty: BTreeSet<u32>,
    /// Latest board spend per driven worker id — what the commit step
    /// prices privacy cost from, regardless of which (full or sub) run
    /// last covered the worker.
    spent: FastMap<u32, f64>,
}

/// A shard's proposed match, by logical id.
#[derive(Debug, Clone, Copy)]
struct Claim {
    task: u32,
    worker: u32,
}

/// The inputs of one shard run, assembled before the (possibly
/// parallel) drive.
struct PreparedRun {
    shard: usize,
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
    inst: Instance,
    board: Board,
    pre_pubs: usize,
    /// Remaining lifetime budget per worker (finite caps only).
    guard: Option<Vec<f64>>,
    /// Component roots of `inst` (incremental full drives only).
    roots: Option<RunRoots>,
}

/// What component analysis concludes about a flagged shard's rerun.
enum IncrementalPlan {
    /// No remaining entity shares a component with a removed one (or
    /// the dirty side has only tasks / only workers, which cannot form
    /// a pair): the rerun is a proven no-op. Keep the previous run —
    /// claims, spend, board — minus the departed workers' claims.
    Keep,
    /// Re-drive exactly the listed entities — the remaining members of
    /// every dirty component, in instance order.
    Redrive {
        task_ids: Vec<u32>,
        worker_ids: Vec<u32>,
    },
}

/// A worker's shard membership, resolved once on arrival (locations
/// are immutable): the cell owning his location and every cell his
/// service disc reaches.
struct Membership {
    home: usize,
    reach: Vec<usize>,
}

/// The halo coordinator's cross-window state, stepped one globally
/// formed window at a time. Fates, arrivals and spend are attributed to
/// the entity's *home* shard, so per-shard conservation holds and the
/// merged totals are globally correct; matches (and their utility) land
/// on the shard owning the task, which is always the shard that claimed
/// it. The sharded session drives it from the global windower, and
/// [`HaloCore::snapshot`] / [`HaloCore::from_snapshot`] make a mid-run
/// coordinator durable — a restored shard re-enters reconciliation
/// coherently because the whole protocol state (pool, pending,
/// in-service set, lifetime ledger, release dedup, carried board
/// stacks) lives here, while the per-shard membership and maintained
/// instances are deterministically rebuilt from it.
pub(crate) struct HaloCore<'e> {
    engine: &'e dyn AssignmentEngine,
    cfg: StreamConfig,
    warm: bool,
    capped: bool,
    incremental: bool,
    reentry: bool,
    budget_gen: BudgetGen,
    // Per-shard report state.
    shard_windows: Vec<Vec<WindowReport>>,
    shard_fates: Vec<BTreeMap<u32, TaskFate>>,
    shard_tasks: Vec<usize>,
    shard_workers: Vec<usize>,
    shard_spend: Vec<BTreeMap<u32, f64>>,
    // Global pipeline state — one pool, one pending list, one
    // accountant, one in-service set, exactly like the unsharded
    // driver.
    pool: Vec<WorkerArrival>,
    pending: Vec<PendingTask>,
    /// Tasks held back by admission control (FIFO, no TTL burned) —
    /// the session stepper's rule, applied to the global backlog.
    deferred: VecDeque<PendingTask>,
    in_service: VecDeque<Serving>,
    ledger: LedgerState,
    /// Per-worker pacing state, maintained only under
    /// [`StreamConfig::pacing`].
    pace: BTreeMap<u32, PaceState>,
    charged: ReleaseDedup,
    carried: Vec<Option<Carried>>,
    // The maintained per-shard instances: shard `k`'s delta holds its
    // uncommitted owned tasks and every uncommitted worker whose disc
    // reaches cell `k`, in pool/pending order. All pool and pending
    // mutations below are mirrored into them, so preparing a shard run
    // is an O(live + pairs) emission instead of a from-scratch rebuild.
    deltas: Vec<DeltaInstance>,
    member: FastMap<u32, Membership>,
}

impl<'e> HaloCore<'e> {
    /// A fresh coordinator for `engine` under `cfg` over `n_shards`
    /// cells.
    pub(crate) fn new(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        n_shards: usize,
    ) -> Self {
        let warm = cfg.carry_releases && engine.supports_warm_start();
        let capped = warm && cfg.worker_capacity.is_finite();
        // Component-restricted reruns are sound only when a rerun's
        // inputs beyond the instance itself are pass-invariant: a
        // finite hard cap reads the live accountant (reservations move
        // between passes), so capped reruns stay full.
        // `halo_full_rerun` is the debugging / reference override.
        let incremental = !capped && !cfg.halo_full_rerun;
        let reentry = cfg.service.reenters();
        let budget_gen = BudgetGen::new(
            cfg.params.seed ^ 0x5712_EA11,
            0,
            cfg.budget_range,
            cfg.budget_group_size,
        );
        let ledger = cfg.ledger.state();
        HaloCore {
            engine,
            cfg,
            warm,
            capped,
            incremental,
            reentry,
            budget_gen,
            shard_windows: vec![Vec::new(); n_shards],
            shard_fates: vec![BTreeMap::new(); n_shards],
            shard_tasks: vec![0; n_shards],
            shard_workers: vec![0; n_shards],
            shard_spend: vec![BTreeMap::new(); n_shards],
            pool: Vec::new(),
            pending: Vec::new(),
            deferred: VecDeque::new(),
            in_service: VecDeque::new(),
            ledger,
            pace: BTreeMap::new(),
            charged: ReleaseDedup::default(),
            carried: (0..n_shards).map(|_| None).collect(),
            deltas: (0..n_shards).map(|_| DeltaInstance::new()).collect(),
            member: FastMap::default(),
        }
    }

    /// One globally-formed window: admit, propose, reconcile, settle.
    /// Returns the window's stream-observable signals for the adaptive
    /// controller.
    pub(crate) fn step_window(
        &mut self,
        partition: &GridPartition,
        window: &Window,
        cut: WindowCutDecision,
    ) -> StepSignals {
        let HaloCore {
            engine,
            cfg,
            warm,
            capped,
            incremental,
            reentry,
            budget_gen,
            shard_windows,
            shard_fates,
            shard_tasks,
            shard_workers,
            shard_spend,
            pool,
            pending,
            deferred,
            in_service,
            ledger,
            pace,
            charged,
            carried,
            deltas,
            member,
        } = self;
        let engine: &dyn AssignmentEngine = *engine;
        let cfg: &StreamConfig = cfg;
        let (warm, capped, incremental, reentry) = (*warm, *capped, *incremental, *reentry);
        let n_shards = deltas.len();
        // Advance the ledger clock to the (globally formed) window
        // start: sliding-window reclamation fires at the same instants
        // the flat stepper's does, keeping the agreement gates exact.
        ledger.advance_time(window.start);
        // ── Re-admit returned workers ─────────────────────────────────
        // Completed service cycles re-enter the pool ahead of the
        // window's fresh arrivals, in (completion time, id) order — the
        // session stepper's rule, so pool order matches the flat run's
        // on shard-disjoint input.
        let mut returned_by_home = vec![0usize; n_shards];
        while in_service
            .front()
            .is_some_and(|s| s.return_time < window.end)
        {
            let s = in_service.pop_front().expect("front exists");
            let m = &member[&s.worker.id];
            returned_by_home[m.home] += 1;
            for &k in &m.reach {
                deltas[k].insert_worker(u64::from(s.worker.id), s.worker.worker, |t, w| {
                    budget_gen.vector(t as usize, w as usize)
                });
            }
            pool.push(s.worker);
        }
        // ── Admit arrivals ────────────────────────────────────────────
        for w in &window.workers {
            ledger.register(u64::from(w.id), cfg.worker_capacity);
            let m = Membership {
                home: partition.shard_of(&w.worker.location),
                reach: partition.reach_shards(&w.worker.location, w.worker.radius),
            };
            shard_workers[m.home] += 1;
            for &k in &m.reach {
                deltas[k].insert_worker(u64::from(w.id), w.worker, |t, wk| {
                    budget_gen.vector(t as usize, wk as usize)
                });
            }
            member.insert(w.id, m);
            pool.push(*w);
        }
        // Unserved tasks already maintained per shard, before this
        // window's admissions (the report's carried-in view).
        let carried_by_shard: Vec<usize> = deltas.iter().map(DeltaInstance::n_tasks).collect();
        let mut arrived_by_shard = vec![0usize; n_shards];
        let mut deferred_by_shard = vec![0usize; n_shards];
        let mut readmitted_by_shard = vec![0usize; n_shards];
        for &arrival in &window.tasks {
            let home = partition.shard_of(&arrival.task.location);
            shard_tasks[home] += 1;
            arrived_by_shard[home] += 1;
        }
        // Admission control: the session stepper's rule over the global
        // pool. (The coordinator keeps no outcome log; the per-shard
        // `tasks_deferred` counters carry the observability.)
        let admitted = admit_tasks(
            cfg,
            ledger,
            pool,
            pending.len(),
            deferred,
            &window.tasks,
            |p| deferred_by_shard[task_home_of(partition, p)] += 1,
        );
        for &(p, fresh) in &admitted {
            let home = task_home_of(partition, &p);
            if !fresh {
                readmitted_by_shard[home] += 1;
            }
            deltas[home].insert_task(u64::from(p.arrival.id), p.arrival.task, |t, w| {
                budget_gen.vector(t as usize, w as usize)
            });
            pending.push(p);
        }
        // Observed stream state at window close (identical to the
        // unsharded driver's: one global pending list, same formula).
        // Static policies never read it, so skip the allocation there.
        let ages = waiting_ages(&cfg.policy, pending, window.end);

        // Per-window id → index maps (pool and pending are frozen for
        // the duration of the reconciliation loop).
        let pend_at: FastMap<u32, usize> = pending
            .iter()
            .enumerate()
            .map(|(i, p)| (p.arrival.id, i))
            .collect();
        let pool_at: FastMap<u32, usize> =
            pool.iter().enumerate().map(|(j, w)| (w.id, j)).collect();
        let mut avail = vec![0usize; n_shards];
        for w in pool.iter() {
            for &k in &member[&w.id].reach {
                avail[k] += 1;
            }
        }

        let mut reports: Vec<WindowReport> = (0..n_shards)
            .map(|k| WindowReport {
                index: window.index,
                start: window.start,
                end: window.end,
                tasks_arrived: arrived_by_shard[k],
                carried_in: carried_by_shard[k] + readmitted_by_shard[k],
                workers_available: avail[k],
                matched: 0,
                expired: 0,
                carried_out: 0,
                utility: 0.0,
                distance: 0.0,
                epsilon_spent: 0.0,
                publications: 0,
                rounds: 0,
                drive_time: Duration::ZERO,
                workers_retired: 0,
                workers_departed: 0,
                workers_returned: returned_by_home[k],
                workers_throttled: 0,
                tasks_deferred: deferred_by_shard[k],
                cut,
            })
            .collect();

        // Budget pacing: cap a worker's remaining-budget guard when his
        // trailing burn rate would exhaust him within the forecast
        // horizon. Computed once from the pre-window ledger, so every
        // reconciliation pass reads the same caps.
        let pace_caps: Option<BTreeMap<u32, f64>> = cfg.pacing.filter(|_| capped).map(|p| {
            let horizon = p.horizon_windows as f64;
            let mut caps = BTreeMap::new();
            for w in pool.iter() {
                if let Some(st) = pace.get(&w.id) {
                    let rem = ledger.remaining(u64::from(w.id));
                    if st.ema > 0.0 && rem > 0.0 && st.ema * horizon > rem {
                        caps.insert(w.id, rem / horizon);
                    }
                }
            }
            caps
        });
        if let Some(caps) = &pace_caps {
            for &wid in caps.keys() {
                reports[member[&wid].home].workers_throttled += 1;
            }
        }

        // ── Propose / reconcile loop ──────────────────────────────────
        let mut committed_tasks: BTreeSet<u32> = BTreeSet::new();
        let mut committed_workers: BTreeSet<u32> = BTreeSet::new();
        // Per committed worker: the service duration of his match (the
        // settle step turns it into a return time or a departure).
        let mut service_of: BTreeMap<u32, Option<f64>> = BTreeMap::new();
        let mut window_spend: BTreeMap<u32, f64> = BTreeMap::new();
        let mut needs_run = vec![true; n_shards];
        let mut claims: Vec<Vec<Claim>> = vec![Vec::new(); n_shards];
        let mut states: Vec<ShardPassState> =
            (0..n_shards).map(|_| ShardPassState::default()).collect();
        let pool_size = pool.len();
        let mut passes = 0usize;

        loop {
            passes += 1;
            assert!(
                passes <= pool_size + 2,
                "halo reconciliation failed to converge in {passes} passes"
            );
            let rerun = passes > 1;

            // (a) Run every flagged shard over its remaining entities.
            let flagged_now: Vec<usize> = (0..n_shards).filter(|&k| needs_run[k]).collect();
            let mut prepared: Vec<PreparedRun> = Vec::new();
            let mut sub_driven: Vec<(usize, ShardRun, Duration)> = Vec::new();
            for &k in &flagged_now {
                needs_run[k] = false;
                if deltas[k].n_tasks() == 0 || deltas[k].n_workers() == 0 {
                    claims[k].clear();
                    continue;
                }
                if rerun && deltas[k].feasible_pairs() == 0 {
                    // Losing a boundary worker often leaves a shard
                    // whose remaining tasks nobody can reach. Driving
                    // that instance is a guaranteed no-op — engines
                    // publish and claim only over feasible pairs — so
                    // skip it. O(1) off the maintained pair count; the
                    // trivial case of the component skip below. Never
                    // taken on first-pass runs: those mirror the
                    // unsharded drive bit for bit, and location engines
                    // (Geo-I) may legitimately publish there.
                    claims[k].clear();
                    continue;
                }
                if rerun && incremental {
                    match plan_incremental(&states[k], &deltas[k]) {
                        Some(IncrementalPlan::Keep) => {
                            // Proven no-op: every remaining entity sits
                            // in an undisturbed component, so a full
                            // rerun would reproduce the previous run
                            // exactly. Keep it; only the departed
                            // workers' claims are withdrawn.
                            claims[k].retain(|c| !committed_workers.contains(&c.worker));
                            states[k].dirty.clear();
                            continue;
                        }
                        Some(IncrementalPlan::Redrive {
                            task_ids,
                            worker_ids,
                        }) => {
                            let p = prepare_sub_run(
                                k,
                                task_ids,
                                worker_ids,
                                &pend_at,
                                &pool_at,
                                pending,
                                pool,
                                budget_gen,
                                &carried[k],
                                warm,
                            );
                            let (run, dt) = drive_prepared(engine, cfg, p);
                            sub_driven.push((k, run, dt));
                            continue;
                        }
                        None => {}
                    }
                }
                claims[k].clear();
                let built = prepare_run(
                    budget_gen,
                    k,
                    &deltas[k],
                    &carried[k],
                    warm,
                    capped.then_some(&*ledger),
                    pace_caps.as_ref(),
                    incremental,
                );
                if let Some(p) = built {
                    if capped {
                        // Finite caps gate on the live accountant
                        // (reservations included), so capped shard runs
                        // execute sequentially in ascending shard id.
                        let (run, dt) = drive_prepared(engine, cfg, p);
                        account_run(&run, charged, ledger, &mut window_spend, &mut reports[k]);
                        finish_run(k, run, dt, &mut reports, &mut claims, &mut states);
                    } else {
                        prepared.push(p);
                    }
                }
            }
            if !prepared.is_empty() || !sub_driven.is_empty() {
                // Uncapped: inputs were fixed above, so the full drives
                // can fan out over the crate's thread pool, heaviest
                // first, without changing the result; sub-drives
                // already ran inline.
                // Charge accounting stays sequential in ascending shard
                // order so the dedup set is deterministic.
                let mut driven: Vec<(usize, ShardRun, Duration, bool)> = parallel_map(
                    prepared,
                    |p| p.inst.feasible_pairs(),
                    None,
                    |p| {
                        let k = p.shard;
                        let (run, dt) = drive_prepared(engine, cfg, p);
                        (k, run, dt, false)
                    },
                );
                driven.extend(
                    sub_driven
                        .into_iter()
                        .map(|(k, run, dt)| (k, run, dt, true)),
                );
                driven.sort_by_key(|&(k, _, _, _)| k);
                for (k, run, dt, is_sub) in driven {
                    account_run(&run, charged, ledger, &mut window_spend, &mut reports[k]);
                    if is_sub {
                        finish_sub_run(
                            k,
                            run,
                            dt,
                            &mut reports,
                            &mut claims,
                            &mut states,
                            &committed_workers,
                        );
                    } else {
                        finish_run(k, run, dt, &mut reports, &mut claims, &mut states);
                    }
                }
            }

            // (b) Resolve claims: group by worker, pick winners.
            let mut by_worker: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (k, shard_claims) in claims.iter().enumerate() {
                for c in shard_claims {
                    by_worker.entry(c.worker).or_default().push(k);
                }
            }
            if by_worker.is_empty() {
                break;
            }

            // Candidate winner per claimed worker: the home shard when
            // it claims him (id-keyed priority), else the lowest
            // claiming shard id. Losers of any conflict must rerun, and
            // a rerunning shard's claims are provisional — so a commit
            // is *clean* only when neither the winning shard nor the
            // worker's home shard lost a conflict this pass. Committing
            // only clean candidates protects the drop-pairs baseline:
            // a shard never loses a worker to a claim that a rerun
            // would have withdrawn. When every candidate is entangled
            // (mutual-loss cycles), the smallest worker id is forced
            // through so each pass still commits at least one worker
            // and the loop terminates.
            let cands: Vec<(u32, usize, Vec<usize>)> = by_worker
                .iter()
                .map(|(&w, ks)| {
                    let home = member[&w].home;
                    let winner = if ks.contains(&home) { home } else { ks[0] };
                    let losers = ks.iter().copied().filter(|&k| k != winner).collect();
                    (w, winner, losers)
                })
                .collect();
            let contested: BTreeSet<usize> = cands
                .iter()
                .flat_map(|(_, _, losers)| losers.iter().copied())
                .collect();
            let clean: Vec<&(u32, usize, Vec<usize>)> = cands
                .iter()
                .filter(|(w, winner, _)| {
                    !contested.contains(winner) && !contested.contains(&member[w].home)
                })
                .collect();
            let to_commit: Vec<&(u32, usize, Vec<usize>)> = if clean.is_empty() {
                vec![&cands[0]] // forced progress: smallest worker id
            } else {
                clean
            };
            let mut winners: Vec<(u32, usize)> = Vec::new();
            let mut flagged: BTreeSet<usize> = BTreeSet::new();
            for (w, winner, losers) in to_commit {
                winners.push((*w, *winner));
                flagged.extend(losers.iter().copied());
            }

            // (c) Apply commits: the pair is final, the task completes,
            // the worker departs to serve.
            for &(w, k) in &winners {
                let claim = claims[k]
                    .iter()
                    .find(|c| c.worker == w)
                    .copied()
                    .expect("winner shard holds a claim on the worker");
                let task = &pending[pend_at[&claim.task]];
                let worker = &pool[pool_at[&w]];
                let d = task.arrival.task.location.distance(&worker.worker.location);
                let privacy_cost = if engine.accounts_privacy() {
                    cfg.params.beta
                        * states[k]
                            .spent
                            .get(&w)
                            .copied()
                            .expect("claimed worker was driven")
                } else {
                    0.0
                };
                reports[k].matched += 1;
                reports[k].utility += task.arrival.task.value - cfg.params.alpha * d - privacy_cost;
                reports[k].distance += d;
                shard_fates[k].insert(
                    claim.task,
                    TaskFate::Assigned {
                        window: window.index,
                        worker: w,
                        latency: window.end - task.arrival.time,
                    },
                );
                committed_tasks.insert(claim.task);
                committed_workers.insert(w);
                service_of.insert(
                    w,
                    cfg.service.duration_keyed(
                        d,
                        task.arrival.task.value,
                        w,
                        claim.task,
                        cfg.params.seed,
                    ),
                );
                claims[k].retain(|c| c.worker != w);
                // The committed pair leaves every maintained instance
                // that sees it, and its components become dirty: any
                // shard later flagged re-drives exactly the components
                // that lost an entity.
                deltas[k].remove_task(u64::from(claim.task));
                if incremental {
                    if let Some(roots) = states[k].base.as_ref().and_then(|b| b.roots.as_ref()) {
                        if let Some(&r) = roots.task_root.get(&claim.task) {
                            states[k].dirty.insert(r);
                        }
                    }
                }
                for &k2 in &member[&w].reach {
                    deltas[k2].remove_worker(u64::from(w));
                    if incremental {
                        if let Some(roots) = states[k2].base.as_ref().and_then(|b| b.roots.as_ref())
                        {
                            if let Some(&r) = roots.worker_root.get(&w) {
                                states[k2].dirty.insert(r);
                            }
                        }
                    }
                }
            }
            // The window is reconciled only when no claim is left
            // pending: a pass can commit clean candidates and flag
            // nobody while a mutual-loss cycle is still outstanding —
            // those claims persist, and the next pass (with the clean
            // candidates gone) resolves them via the forced-progress
            // path. Breaking on "nothing flagged" here would silently
            // abandon them.
            if flagged.is_empty() && claims.iter().all(Vec::is_empty) {
                break;
            }
            for &k in &flagged {
                needs_run[k] = true;
            }
        }

        // ── Settle the window ─────────────────────────────────────────
        // Commit this window's reservations — exactly once per worker —
        // then depart matched workers and retire exhausted ones.
        for (&wid, &eps) in &window_spend {
            ledger.commit(u64::from(wid));
            *shard_spend[member[&wid].home].entry(wid).or_insert(0.0) += eps;
        }
        for &w in &committed_workers {
            reports[member[&w].home].workers_departed += 1;
            match service_of.get(&w).copied().flatten() {
                Some(d) => {
                    // Re-entry: the worker keeps his accountant entry
                    // (lifetime budgets span service cycles) and waits
                    // out his service duration.
                    let return_time = window.end + d;
                    let arrival = pool[pool_at[&w]];
                    let pos = in_service
                        .partition_point(|s| (s.return_time, s.worker.id) < (return_time, w));
                    in_service.insert(
                        pos,
                        Serving {
                            return_time,
                            worker: arrival,
                        },
                    );
                }
                None => {
                    ledger.forget(u64::from(w));
                }
            }
        }
        let retired =
            retire_exhausted(ledger, pool, &committed_workers, capped, cfg.budget_range.0);
        // An in-service worker can exhaust his budget at the very match
        // that sent him out: he finishes the trip but retires instead
        // of returning (the session stepper's rule). Home shards come
        // off the membership cache — every tracked worker was admitted
        // through it, pooled or serving alike.
        for &id in &retired {
            let m = &member[&(id as u32)];
            for &k2 in &m.reach {
                deltas[k2].remove_worker(id);
            }
            reports[m.home].workers_retired += 1;
        }
        if reentry && !retired.is_empty() {
            in_service.retain(|s| !retired.contains(&u64::from(s.worker.id)));
        }
        pool.retain(|w| !committed_workers.contains(&w.id) && !retired.contains(&u64::from(w.id)));

        // Carry each shard's last drives into the next window: the base
        // full run plus its component re-drives, later sources owning
        // the entities they cover.
        if warm {
            for (k, st) in states.iter_mut().enumerate() {
                if let Some(base) = st.base.take() {
                    let mut sources = Vec::with_capacity(1 + st.subs.len());
                    sources.push(CarrySource {
                        board: base.outcome.board,
                        task_ids: base.task_ids,
                        worker_ids: base.worker_ids,
                    });
                    sources.extend(st.subs.drain(..).map(|sub| CarrySource {
                        board: sub.outcome.board,
                        task_ids: sub.task_ids,
                        worker_ids: sub.worker_ids,
                    }));
                    carried[k] = Some(Carried { sources });
                }
            }
        }

        // Matched tasks leave, survivors age, the too-old expire.
        let mut next_pending = Vec::with_capacity(pending.len());
        for mut p in pending.drain(..) {
            if committed_tasks.contains(&p.arrival.id) {
                continue;
            }
            p.ttl -= 1;
            if p.ttl == 0 {
                let home = task_home_of(partition, &p);
                deltas[home].remove_task(u64::from(p.arrival.id));
                shard_fates[home].insert(
                    p.arrival.id,
                    TaskFate::Expired {
                        window: window.index,
                    },
                );
                reports[home].expired += 1;
            } else {
                next_pending.push(p);
            }
        }
        *pending = next_pending;
        for p in pending.iter() {
            reports[task_home_of(partition, p)].carried_out += 1;
        }
        if cfg.pacing.is_some() {
            refresh_pacing(ledger, pace);
        }
        for (k, report) in reports.into_iter().enumerate() {
            shard_windows[k].push(report);
        }
        StepSignals {
            ages,
            backlog: pending.len(),
            pool: pool.len(),
        }
    }

    /// Settles the remaining pending fates and assembles the per-shard
    /// reports.
    pub(crate) fn finish(mut self, partition: &GridPartition) -> ShardedReport {
        for p in &self.pending {
            self.shard_fates[task_home_of(partition, p)].insert(p.arrival.id, TaskFate::Pending);
        }
        for p in &self.deferred {
            self.shard_fates[task_home_of(partition, p)].insert(p.arrival.id, TaskFate::Pending);
        }
        let engine_name = self.engine.name().to_string();
        ShardedReport {
            shards: (0..self.shard_windows.len())
                .map(|k| StreamReport {
                    engine: engine_name.clone(),
                    windows: std::mem::take(&mut self.shard_windows[k]),
                    fates: std::mem::take(&mut self.shard_fates[k]),
                    task_arrivals: self.shard_tasks[k],
                    worker_arrivals: self.shard_workers[k],
                    spend_by_worker: std::mem::take(&mut self.shard_spend[k]),
                    warnings: Vec::new(),
                })
                .collect(),
        }
    }

    /// Captures the coordinator's window-boundary state. The per-shard
    /// maintained instances and the membership cache are *not* here —
    /// both are pure functions of the partition and the serialized
    /// pool / pending / in-service sets, rebuilt on restore.
    pub(crate) fn snapshot(&self) -> HaloSnapshot {
        HaloSnapshot {
            shard_windows: self.shard_windows.clone(),
            shard_fates: self.shard_fates.clone(),
            shard_tasks: self.shard_tasks.clone(),
            shard_workers: self.shard_workers.clone(),
            shard_spend: self.shard_spend.clone(),
            pool: self.pool.clone(),
            pending: self.pending.clone(),
            deferred: self.deferred.clone(),
            in_service: self.in_service.clone(),
            ledger: self.ledger.clone(),
            pace: self.pace.clone(),
            charged: self.charged.clone(),
            carried: self.carried.clone(),
        }
    }

    /// Rebuilds a coordinator mid-stream from a snapshot. Membership is
    /// re-resolved from the partition for every tracked worker (pooled
    /// or serving — locations are immutable, so the result is
    /// identical), and each shard's maintained instance is re-derived
    /// by inserting the pool and pending set in their maintained order,
    /// which equals the live coordinator's insertion order — so the
    /// rebuilt instances emit bit-identically.
    pub(crate) fn from_snapshot(
        engine: &'e dyn AssignmentEngine,
        cfg: StreamConfig,
        partition: &GridPartition,
        snap: &HaloSnapshot,
    ) -> Result<Self, SnapshotError> {
        let n_shards = partition.n_shards();
        let per_shard = [
            snap.shard_windows.len(),
            snap.shard_fates.len(),
            snap.shard_tasks.len(),
            snap.shard_workers.len(),
            snap.shard_spend.len(),
            snap.carried.len(),
        ];
        if per_shard.iter().any(|&n| n != n_shards) {
            return Err(SnapshotError::Malformed(format!(
                "halo snapshot holds per-shard state for {} shards, partition has {n_shards}",
                per_shard[0]
            )));
        }
        let sorted = snap
            .in_service
            .iter()
            .zip(snap.in_service.iter().skip(1))
            .all(|(a, b)| (a.return_time, a.worker.id) <= (b.return_time, b.worker.id));
        if !sorted {
            return Err(SnapshotError::Malformed(
                "halo in-service set is not in (completion time, id) order".to_string(),
            ));
        }
        let mut core = HaloCore::new(engine, cfg, n_shards);
        core.shard_windows = snap.shard_windows.clone();
        core.shard_fates = snap.shard_fates.clone();
        core.shard_tasks = snap.shard_tasks.clone();
        core.shard_workers = snap.shard_workers.clone();
        core.shard_spend = snap.shard_spend.clone();
        core.pool = snap.pool.clone();
        core.pending = snap.pending.clone();
        core.deferred = snap.deferred.clone();
        core.in_service = snap.in_service.clone();
        core.ledger = snap.ledger.clone();
        core.pace = snap.pace.clone();
        core.charged = snap.charged.clone();
        core.carried = snap.carried.clone();
        for w in &snap.pool {
            let m = Membership {
                home: partition.shard_of(&w.worker.location),
                reach: partition.reach_shards(&w.worker.location, w.worker.radius),
            };
            for &k in &m.reach {
                core.deltas[k].insert_worker(u64::from(w.id), w.worker, |t, wk| {
                    core.budget_gen.vector(t as usize, wk as usize)
                });
            }
            core.member.insert(w.id, m);
        }
        for s in &snap.in_service {
            // Serving workers left the maintained instances with their
            // commit, but settle still consults their membership (home
            // attribution, retirement mid-service).
            core.member.insert(
                s.worker.id,
                Membership {
                    home: partition.shard_of(&s.worker.worker.location),
                    reach: partition
                        .reach_shards(&s.worker.worker.location, s.worker.worker.radius),
                },
            );
        }
        for p in &snap.pending {
            let home = partition.shard_of(&p.arrival.task.location);
            core.deltas[home].insert_task(u64::from(p.arrival.id), p.arrival.task, |t, w| {
                core.budget_gen.vector(t as usize, w as usize)
            });
        }
        Ok(core)
    }
}

/// The serializable window-boundary state of a [`HaloCore`]: per-shard
/// report accumulators plus the global protocol state. Maintained
/// instances and worker membership are deliberately absent — they are
/// rebuild markers, re-derived on restore from the partition and the
/// pool / pending order (see [`HaloCore::from_snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct HaloSnapshot {
    pub(crate) shard_windows: Vec<Vec<WindowReport>>,
    pub(crate) shard_fates: Vec<BTreeMap<u32, TaskFate>>,
    pub(crate) shard_tasks: Vec<usize>,
    pub(crate) shard_workers: Vec<usize>,
    pub(crate) shard_spend: Vec<BTreeMap<u32, f64>>,
    pub(crate) pool: Vec<WorkerArrival>,
    pub(crate) pending: Vec<PendingTask>,
    pub(crate) deferred: VecDeque<PendingTask>,
    pub(crate) in_service: VecDeque<Serving>,
    pub(crate) ledger: LedgerState,
    pub(crate) pace: BTreeMap<u32, PaceState>,
    pub(crate) charged: ReleaseDedup,
    pub(crate) carried: Vec<Option<Carried>>,
}

/// Home shard of a pending task.
fn task_home_of(partition: &GridPartition, p: &PendingTask) -> usize {
    partition.shard_of(&p.arrival.task.location)
}

/// Decides how much of a flagged shard's rerun is actually needed.
///
/// Every remaining entity of the shard was present in its last full
/// drive (instances only shrink within a window), so each resolves to
/// a component root there. Entities in undisturbed components keep
/// their previous outcome bit for bit — engine interactions flow only
/// along feasibility edges and noise/budgets are id-keyed — so only
/// the dirty components need re-driving. Returns `None` when the shard
/// has no component information (no full drive yet), forcing a full
/// drive.
fn plan_incremental(st: &ShardPassState, delta: &DeltaInstance) -> Option<IncrementalPlan> {
    let roots = st.base.as_ref()?.roots.as_ref()?;
    let mut task_ids: Vec<u32> = Vec::new();
    let mut worker_ids: Vec<u32> = Vec::new();
    for key in delta.task_keys() {
        let id = key as u32;
        match roots.task_root.get(&id) {
            Some(r) if st.dirty.contains(r) => task_ids.push(id),
            Some(_) => {}
            None => return None,
        }
    }
    for key in delta.worker_keys() {
        let id = key as u32;
        match roots.worker_root.get(&id) {
            Some(r) if st.dirty.contains(r) => worker_ids.push(id),
            Some(_) => {}
            None => return None,
        }
    }
    // A dirty side without a counterpart cannot form a feasible pair
    // (components are edge-closed), so its re-drive is a no-op too.
    if task_ids.is_empty() || worker_ids.is_empty() {
        Some(IncrementalPlan::Keep)
    } else {
        Some(IncrementalPlan::Redrive {
            task_ids,
            worker_ids,
        })
    }
}

/// Resolves the feasibility components of a driven instance to a root
/// per entity id.
fn compute_roots(inst: &Instance, task_ids: &[u32], worker_ids: &[u32]) -> RunRoots {
    let mut comp = PairComponents::new(inst.n_tasks(), inst.n_workers());
    for j in 0..inst.n_workers() {
        for &i in inst.reach(j) {
            comp.join(i, j);
        }
    }
    RunRoots {
        task_root: task_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, comp.find_task(i)))
            .collect(),
        worker_root: worker_ids
            .iter()
            .enumerate()
            .map(|(j, &id)| (id, comp.find_worker(j)))
            .collect(),
    }
}

/// Transplants the carried protocol state onto a fresh board for the
/// given id lists, flattening the carried stack: the *last* source
/// covering an entity owns its columns. With a single source this is
/// exactly [`Board::carry`]; with re-drive sources the stitch is still
/// bit-identical to carrying a monolithic full-rerun board, because a
/// worker's release history never crosses his feasibility component
/// (geometry is immutable, so a carried pair's edge persists) and
/// ledger iteration is ascending in task index either way.
fn carry_board(
    carried: &Option<Carried>,
    warm: bool,
    task_ids: &[u32],
    worker_ids: &[u32],
    n_tasks: usize,
    n_workers: usize,
) -> Board {
    let Some(prev) = carried else {
        return Board::new(n_tasks, n_workers);
    };
    if !warm {
        return Board::new(n_tasks, n_workers);
    }
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
    let mut task_owner: FastMap<u32, usize> = FastMap::default();
    let mut worker_owner: FastMap<u32, usize> = FastMap::default();
    for (s, src) in prev.sources.iter().enumerate() {
        for &id in &src.task_ids {
            task_owner.insert(id, s);
        }
        for &id in &src.worker_ids {
            worker_owner.insert(id, s);
        }
    }
    let mut next = Board::new(n_tasks, n_workers);
    for (s, src) in prev.sources.iter().enumerate() {
        for (j_old, &wid) in src.worker_ids.iter().enumerate() {
            if worker_owner[&wid] != s {
                continue;
            }
            let Some(&j_new) = worker_to_new.get(&wid) else {
                continue;
            };
            for t in src.board.ledger(j_old).tasks() {
                if t == LOCATION_RELEASE {
                    continue;
                }
                let t_old = t as usize;
                let Some(&t_new) = task_to_new.get(&src.task_ids[t_old]) else {
                    continue;
                };
                if let Some(set) = src.board.releases(t_old, j_old) {
                    for r in set.releases() {
                        next.publish(t_new, j_new, r.value, r.epsilon);
                    }
                }
            }
        }
    }
    for (s, src) in prev.sources.iter().enumerate() {
        for (t_old, w) in src.board.alloc().iter().enumerate() {
            let Some(j_old) = *w else {
                continue;
            };
            if task_owner[&src.task_ids[t_old]] != s {
                continue;
            }
            if let (Some(&t_new), Some(&j_new)) = (
                task_to_new.get(&src.task_ids[t_old]),
                worker_to_new.get(&src.worker_ids[j_old]),
            ) {
                next.set_winner(t_new, Some(j_new));
            }
        }
    }
    next
}

/// Builds shard `k`'s full run from its maintained instance, carrying
/// protocol state from the pre-window board. Returns `None` when the
/// shard has nothing to drive.
#[allow(clippy::too_many_arguments)]
fn prepare_run(
    budget_gen: &BudgetGen,
    k: usize,
    delta: &DeltaInstance,
    carried: &Option<Carried>,
    warm: bool,
    guard_from: Option<&LedgerState>,
    pace_caps: Option<&BTreeMap<u32, f64>>,
    track_components: bool,
) -> Option<PreparedRun> {
    if delta.n_tasks() == 0 || delta.n_workers() == 0 {
        return None;
    }
    let _ = budget_gen; // budgets were cached at insertion time
    let task_ids: Vec<u32> = delta.task_keys().map(|key| key as u32).collect();
    let worker_ids: Vec<u32> = delta.worker_keys().map(|key| key as u32).collect();
    let inst = delta.instance();
    let roots = track_components.then(|| compute_roots(&inst, &task_ids, &worker_ids));
    let board = carry_board(
        carried,
        warm,
        &task_ids,
        &worker_ids,
        inst.n_tasks(),
        inst.n_workers(),
    );
    let pre_pubs = board.publications();
    // The cap guard reads the live accountant, reservations included.
    // On a *rerun* this is deliberately conservative: the shard's own
    // earlier pass already reserved the releases it published, and the
    // engine counts their bit-identical re-derivations as novel board
    // spend again, so a worker near his cap may publish less than the
    // ideal continuation would. The alternative — refunding the
    // shard's own reservations — could let a rerun that takes a
    // different proposal path overshoot the lifetime cap, which is the
    // one thing the hard cap must never do. Conservative, deterministic
    // under-publishing in the (rare) rerun case is the chosen trade.
    let guard = guard_from.map(|acc| {
        worker_ids
            .iter()
            .map(|&id| {
                let mut g = acc.remaining(u64::from(id));
                // Pacing cap, when the controller flagged the worker
                // for this window.
                if let Some(caps) = pace_caps {
                    if let Some(&c) = caps.get(&id) {
                        g = g.min(c);
                    }
                }
                g
            })
            .collect()
    });
    Some(PreparedRun {
        shard: k,
        task_ids,
        worker_ids,
        inst,
        board,
        pre_pubs,
        guard,
        roots,
    })
}

/// Builds the component-restricted re-drive of a flagged shard: the
/// instance over exactly the dirty components' remaining entities, in
/// instance order, with the carried board restricted to them. Exact by
/// the component-locality argument in the module docs; only reached on
/// uncapped runs, so no guard.
#[allow(clippy::too_many_arguments)]
fn prepare_sub_run(
    k: usize,
    task_ids: Vec<u32>,
    worker_ids: Vec<u32>,
    pend_at: &FastMap<u32, usize>,
    pool_at: &FastMap<u32, usize>,
    pending: &[PendingTask],
    pool: &[WorkerArrival],
    budget_gen: &BudgetGen,
    carried: &Option<Carried>,
    warm: bool,
) -> PreparedRun {
    let inst = Instance::from_locations(
        task_ids
            .iter()
            .map(|&id| pending[pend_at[&id]].arrival.task)
            .collect(),
        worker_ids
            .iter()
            .map(|&id| pool[pool_at[&id]].worker)
            .collect(),
        |i, j| budget_gen.vector(task_ids[i] as usize, worker_ids[j] as usize),
    );
    let board = carry_board(
        carried,
        warm,
        &task_ids,
        &worker_ids,
        inst.n_tasks(),
        inst.n_workers(),
    );
    let pre_pubs = board.publications();
    PreparedRun {
        shard: k,
        task_ids,
        worker_ids,
        inst,
        board,
        pre_pubs,
        guard: None,
        roots: None,
    }
}

/// Drives one prepared shard run. Mirrors the unsharded driver: warm
/// engines resume (capped when a guard is set), one-shot engines assign
/// from their fresh board.
fn drive_prepared(
    engine: &dyn AssignmentEngine,
    cfg: &StreamConfig,
    p: PreparedRun,
) -> (ShardRun, Duration) {
    let noise = IdStableNoise {
        base: SeededNoise::new(cfg.params.seed),
        task_ids: &p.task_ids,
        worker_ids: &p.worker_ids,
    };
    // dpta-lint: allow(no-wall-clock) -- drive_time is observability-only; no windowing or matching decision reads it
    let start = Instant::now();
    let outcome = if engine.supports_warm_start() {
        match &p.guard {
            Some(g) => engine.resume_capped(&p.inst, p.board, &noise, g),
            None => engine.resume(&p.inst, p.board, &noise),
        }
    } else {
        let mut board = p.board;
        engine.assign(&p.inst, &mut board, &noise)
    };
    let dt = start.elapsed();
    (
        ShardRun {
            task_ids: p.task_ids,
            worker_ids: p.worker_ids,
            outcome,
            pre_pubs: p.pre_pubs,
            roots: p.roots,
        },
        dt,
    )
}

/// Reserves the run's *novel* releases against the lifetime accountant.
/// Reruns and carried history re-derive bit-identical releases, which
/// the global dedup filters out, so each release is charged at most
/// once over the stream's lifetime.
fn account_run(
    run: &ShardRun,
    charged: &mut ReleaseDedup,
    ledger: &mut LedgerState,
    window_spend: &mut BTreeMap<u32, f64>,
    report: &mut WindowReport,
) {
    let board = &run.outcome.board;
    for (j, &wid) in run.worker_ids.iter().enumerate() {
        let novel = novel_ledger_spend(board, j, wid, &run.task_ids, charged);
        if novel > 0.0 {
            ledger.reserve(u64::from(wid), novel);
            report.epsilon_spent += novel;
            *window_spend.entry(wid).or_insert(0.0) += novel;
        }
    }
}

/// Records a finished full run: claims, rounds, publications, wall
/// time, per-worker spend, and the component baseline for later
/// incremental passes.
fn finish_run(
    k: usize,
    run: ShardRun,
    dt: Duration,
    reports: &mut [WindowReport],
    claims: &mut [Vec<Claim>],
    states: &mut [ShardPassState],
) {
    reports[k].rounds += run.outcome.rounds;
    reports[k].drive_time += dt;
    reports[k].publications += run.outcome.board.publications() - run.pre_pubs;
    claims[k] = run
        .outcome
        .assignment
        .pairs()
        .map(|(i, j)| Claim {
            task: run.task_ids[i],
            worker: run.worker_ids[j],
        })
        .collect();
    let st = &mut states[k];
    for (j, &wid) in run.worker_ids.iter().enumerate() {
        st.spent.insert(wid, run.outcome.board.spent_total(j));
    }
    st.subs.clear();
    st.dirty.clear();
    st.base = Some(run);
}

/// Records a finished component re-drive: stats and spend like a full
/// run, but claims *merge* — the re-driven components' claims replace
/// only their own tasks' previous claims, everything undisturbed (and
/// not departed) stays.
fn finish_sub_run(
    k: usize,
    run: ShardRun,
    dt: Duration,
    reports: &mut [WindowReport],
    claims: &mut [Vec<Claim>],
    states: &mut [ShardPassState],
    committed_workers: &BTreeSet<u32>,
) {
    reports[k].rounds += run.outcome.rounds;
    reports[k].drive_time += dt;
    reports[k].publications += run.outcome.board.publications() - run.pre_pubs;
    let redriven: BTreeSet<u32> = run.task_ids.iter().copied().collect();
    claims[k].retain(|c| !redriven.contains(&c.task) && !committed_workers.contains(&c.worker));
    let fresh: Vec<Claim> = run
        .outcome
        .assignment
        .pairs()
        .map(|(i, j)| Claim {
            task: run.task_ids[i],
            worker: run.worker_ids[j],
        })
        .collect();
    claims[k].extend(fresh);
    let st = &mut states[k];
    for (j, &wid) in run.worker_ids.iter().enumerate() {
        st.spent.insert(wid, run.outcome.board.spent_total(j));
    }
    st.dirty.clear();
    st.subs.push(run);
}
