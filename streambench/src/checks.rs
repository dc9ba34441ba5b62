//! Output checks run on every drain. Each works from the stream, the
//! configuration and what the session handed back (reports, outcome
//! log), not from the session's internal state.

use crate::engine::{AuditRelease, PlaceKey};
use dpta_stream::{
    ArrivalEvent, ArrivalStream, LedgerMode, Outcome, StreamConfig, StreamReport, TaskArrival,
    TaskFate, WindowPolicy, WorkerArrival,
};
use std::collections::{BTreeMap, BTreeSet};

/// Which invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every task ends assigned, expired or pending exactly once, and
    /// the outcome log agrees with the report.
    Conservation,
    /// Each assigned task lies inside its worker's disc.
    Feasibility,
    /// No task is assigned twice.
    TaskTwice,
    /// No worker is assigned while serving an earlier match.
    InService,
    /// No worker's spend exceeds the capacity.
    Spend,
}

pub type Violation = (Check, String);

/// What one drain produced, as the checks see it.
pub struct RunView<'a> {
    pub stream: &'a ArrivalStream,
    pub cfg: &'a StreamConfig,
    /// One report per shard (one in all for a flat session).
    pub reports: &'a [StreamReport],
    /// The flat session's outcome log; sharded sessions have none.
    pub outcomes: Option<&'a [Outcome]>,
    /// Releases recorded by the engine decorator, when audited.
    pub audit: Option<&'a [AuditRelease]>,
}

/// Runs every check and returns the violations found.
pub fn check(view: &RunView) -> Vec<Violation> {
    let mut out = Vec::new();
    let tasks: BTreeMap<u32, &TaskArrival> = view
        .stream
        .events()
        .iter()
        .filter_map(|e| match e {
            ArrivalEvent::Task(t) => Some((t.id, t)),
            ArrivalEvent::Worker(_) => None,
        })
        .collect();
    let workers: BTreeMap<u32, &WorkerArrival> = view
        .stream
        .events()
        .iter()
        .filter_map(|e| match e {
            ArrivalEvent::Worker(w) => Some((w.id, w)),
            ArrivalEvent::Task(_) => None,
        })
        .collect();
    let fates = conservation(view, &tasks, &mut out);
    feasibility(&fates, &tasks, &workers, &mut out);
    in_service(view, &fates, &tasks, &workers, &mut out);
    spend(view, &mut out);
    out
}

/// Merges the shards' fates, checking that each task has exactly one,
/// and that the outcome log and per-window counts agree with them.
fn conservation(
    view: &RunView,
    tasks: &BTreeMap<u32, &TaskArrival>,
    out: &mut Vec<Violation>,
) -> BTreeMap<u32, TaskFate> {
    let mut bad = |msg: String| out.push((Check::Conservation, msg));
    let mut fates = BTreeMap::new();
    for report in view.reports {
        for (&id, &fate) in &report.fates {
            if fates.insert(id, fate).is_some() {
                bad(format!("task {id} has a fate in two shards"));
            }
        }
    }
    for id in tasks.keys().filter(|id| !fates.contains_key(id)) {
        bad(format!("task {id} arrived but has no fate"));
    }
    for id in fates.keys().filter(|id| !tasks.contains_key(id)) {
        bad(format!("task {id} has a fate but never arrived"));
    }
    let assigned = fates
        .values()
        .filter(|f| matches!(f, TaskFate::Assigned { .. }))
        .count();
    let expired = fates
        .values()
        .filter(|f| matches!(f, TaskFate::Expired { .. }))
        .count();
    let windows = || view.reports.iter().flat_map(|r| &r.windows);
    let win_matched: usize = windows().map(|w| w.matched).sum();
    let win_expired: usize = windows().map(|w| w.expired).sum();
    if win_matched != assigned {
        bad(format!(
            "windows report {win_matched} matches, fates hold {assigned}"
        ));
    }
    if win_expired != expired {
        bad(format!(
            "windows report {win_expired} expiries, fates hold {expired}"
        ));
    }
    if let Some(log) = view.outcomes {
        let mut log_assigned: BTreeMap<u32, (u32, usize)> = BTreeMap::new();
        let mut log_expired: BTreeSet<u32> = BTreeSet::new();
        for o in log {
            match *o {
                Outcome::Assigned {
                    task,
                    worker,
                    window,
                    ..
                } if log_assigned.insert(task, (worker, window)).is_some() => out.push((
                    Check::TaskTwice,
                    format!("task {task} is assigned twice in the outcome log"),
                )),
                Outcome::Expired { task, .. } if !log_expired.insert(task) => out.push((
                    Check::Conservation,
                    format!("task {task} expires twice in the outcome log"),
                )),
                _ => {}
            }
        }
        let mut bad = |msg: String| out.push((Check::Conservation, msg));
        for (&id, fate) in &fates {
            let in_log = (log_assigned.get(&id), log_expired.contains(&id));
            match (fate, in_log) {
                (TaskFate::Assigned { worker, window, .. }, (Some(&(w, k)), false))
                    if *worker == w && *window == k => {}
                (TaskFate::Expired { .. }, (None, true)) => {}
                (TaskFate::Pending, (None, false)) => {}
                _ => bad(format!(
                    "task {id}: report fate {fate:?} disagrees with the outcome log"
                )),
            }
        }
        for id in log_assigned.keys().chain(&log_expired) {
            if !fates.contains_key(id) {
                bad(format!("task {id} is in the outcome log but has no fate"));
            }
        }
    }
    fates
}

fn feasibility(
    fates: &BTreeMap<u32, TaskFate>,
    tasks: &BTreeMap<u32, &TaskArrival>,
    workers: &BTreeMap<u32, &WorkerArrival>,
    out: &mut Vec<Violation>,
) {
    for (id, fate) in fates {
        let TaskFate::Assigned { worker, .. } = fate else {
            continue;
        };
        let (Some(t), Some(w)) = (tasks.get(id), workers.get(worker)) else {
            out.push((
                Check::Feasibility,
                format!("task {id} is assigned to unknown worker {worker}"),
            ));
            continue;
        };
        let r = w.worker.radius;
        let d2 = t.task.location.distance_sq(&w.worker.location);
        if d2 > r * r * (1.0 + 1e-12) {
            out.push((
                Check::Feasibility,
                format!(
                    "task {id} lies {:.4} km from worker {worker}, outside his {r} km disc",
                    d2.sqrt()
                ),
            ));
        }
    }
}

/// A worker assigned in window `a` serves until `end(a) + duration` and
/// is re-admitted only by a window that ends after that; under
/// serve-and-leave he is never assigned again.
fn in_service(
    view: &RunView,
    fates: &BTreeMap<u32, TaskFate>,
    tasks: &BTreeMap<u32, &TaskArrival>,
    workers: &BTreeMap<u32, &WorkerArrival>,
    out: &mut Vec<Violation>,
) {
    let WindowPolicy::ByTime { width } = view.cfg.policy else {
        return;
    };
    let mut by_worker: BTreeMap<u32, Vec<(usize, u32)>> = BTreeMap::new();
    for (&task, fate) in fates {
        if let TaskFate::Assigned { worker, window, .. } = *fate {
            by_worker.entry(worker).or_default().push((window, task));
        }
    }
    for (worker, mut jobs) in by_worker {
        jobs.sort_unstable();
        for pair in jobs.windows(2) {
            let ((a, task_a), (b, task_b)) = (pair[0], pair[1]);
            let returns_at = match (tasks.get(&task_a), workers.get(&worker)) {
                (Some(t), Some(w)) => view.cfg.service.duration_keyed(
                    t.task.location.distance(&w.worker.location),
                    t.task.value,
                    worker,
                    task_a,
                    view.cfg.params.seed,
                ),
                _ => continue,
            }
            .map(|d| (a + 1) as f64 * width + d);
            let free = returns_at.is_some_and(|r| r < (b + 1) as f64 * width);
            if a == b || !free {
                out.push((
                    Check::InService,
                    format!(
                        "worker {worker} is assigned task {task_b} in window {b} while \
                         serving task {task_a} from window {a}"
                    ),
                ));
            }
        }
    }
}

fn spend(view: &RunView, out: &mut Vec<Violation>) {
    let cap = view.cfg.worker_capacity;
    let mut total: BTreeMap<u32, f64> = BTreeMap::new();
    for r in view.reports {
        for (&w, &eps) in &r.spend_by_worker {
            *total.entry(w).or_insert(0.0) += eps;
        }
    }
    let window = match view.cfg.ledger {
        LedgerMode::Windowed { window_secs } if window_secs.is_finite() => window_secs,
        _ => {
            for (w, eps) in total.iter().filter(|(_, &e)| e > cap * (1.0 + 1e-9)) {
                out.push((
                    Check::Spend,
                    format!("worker {w} spent {eps} over a lifetime capacity of {cap}"),
                ));
            }
            return;
        }
    };
    // A sliding-window ledger reclaims old spend, so a worker's lifetime
    // total may exceed the capacity; what must hold is that no
    // protection window holds more than the capacity. The reports carry
    // only totals, so this needs the decorator's release audit.
    let (Some(audit), WindowPolicy::ByTime { width }) = (view.audit, view.cfg.policy) else {
        return;
    };
    let mut seen: BTreeSet<(PlaceKey, PlaceKey, u32)> = BTreeSet::new();
    let mut charges: BTreeMap<PlaceKey, Vec<(f64, f64)>> = BTreeMap::new();
    let mut audited = 0.0;
    for r in audit {
        // Bit-identical re-publications are charged once.
        if seen.insert((r.task, r.worker, r.slot)) {
            let at = r.window as f64 * width;
            charges.entry(r.worker).or_default().push((at, r.epsilon));
            audited += r.epsilon;
        }
    }
    let reported: f64 = total.values().sum();
    if (audited - reported).abs() > 1e-6 * reported.max(1.0) {
        out.push((
            Check::Spend,
            format!("releases audited at the engine sum to {audited}, reports to {reported}"),
        ));
    }
    for (worker, mut list) in charges {
        list.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut lo = 0;
        let mut live = 0.0;
        for hi in 0..list.len() {
            live += list[hi].1;
            while list[lo].0 <= list[hi].0 - window {
                live -= list[lo].1;
                lo += 1;
            }
            if live > cap * (1.0 + 1e-9) {
                out.push((
                    Check::Spend,
                    format!(
                        "worker at {worker:?} spent {live} within {window} s ending at t = {}, \
                         over a capacity of {cap}",
                        list[hi].0
                    ),
                ));
                break;
            }
        }
    }
}

/// A digest of everything a drain decided: fates, spend, the semantic
/// fields of every window report and, for flat sessions, the outcome
/// log. Wall-clock fields are left out.
pub fn digest(reports: &[StreamReport], outcomes: Option<&[Outcome]>) -> u64 {
    let mut h = Fnv::default();
    for r in reports {
        for (id, fate) in &r.fates {
            h.write(format!("{id}:{fate:?};").as_bytes());
        }
        for (id, eps) in &r.spend_by_worker {
            h.write(format!("{id}:{};", eps.to_bits()).as_bytes());
        }
        for w in &r.windows {
            h.write(
                format!(
                    "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {};",
                    w.index,
                    w.tasks_arrived,
                    w.carried_in,
                    w.workers_available,
                    w.matched,
                    w.expired,
                    w.carried_out,
                    w.utility.to_bits(),
                    w.distance.to_bits(),
                    w.epsilon_spent.to_bits(),
                    w.publications,
                    w.rounds,
                    w.workers_retired,
                    w.workers_departed,
                    w.workers_returned,
                    w.workers_throttled,
                    w.tasks_deferred,
                )
                .as_bytes(),
            );
        }
        h.write(b"|");
    }
    for o in outcomes.unwrap_or_default() {
        h.write(format!("{o:?};").as_bytes());
    }
    h.0
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
