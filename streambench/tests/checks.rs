//! Every output check must fire on a run corrupted to break exactly its
//! invariant, so none of them passes vacuously.

use dpta_stream::{Outcome, TaskFate};
use streambench::checks::{self, Check, RunView};
use streambench::drain::{self, Drain, Ops};
use streambench::engine::{AuditRelease, TracedEngine};
use streambench::trace::Tracer;
use streambench::workload::{self, Workload};

fn run(name: &str) -> (Workload, Drain, Vec<AuditRelease>) {
    let wl = workload::build(name, 11, 0.05).expect("known workload");
    let engine = wl.method.engine(&wl.cfg.params);
    let tracer = Tracer::default();
    let decorated = TracedEngine::new(engine.as_ref(), &tracer, true);
    let d =
        drain::drain(&wl, &decorated, Some(&tracer), false, &mut Ops::default()).expect("drain");
    let audit = decorated.take_audit();
    (wl, d, audit)
}

fn violations(wl: &Workload, d: &Drain, audit: Option<&[AuditRelease]>) -> Vec<Check> {
    checks::check(&RunView {
        stream: &wl.stream,
        cfg: &wl.cfg,
        reports: &d.reports,
        outcomes: d.outcomes.as_deref(),
        audit,
    })
    .into_iter()
    .map(|(c, _)| c)
    .collect()
}

/// The first assigned task and its fate.
fn first_assigned(d: &Drain) -> (u32, u32, usize) {
    d.reports[0]
        .fates
        .iter()
        .find_map(|(&t, f)| match *f {
            TaskFate::Assigned { worker, window, .. } => Some((t, worker, window)),
            _ => None,
        })
        .expect("the run assigns something")
}

#[test]
fn clean_runs_pass_every_check() {
    for name in workload::NAMES {
        let (wl, d, audit) = run(name);
        assert_eq!(violations(&wl, &d, Some(&audit)), vec![], "{name}");
    }
}

#[test]
fn conservation_fires_on_a_lost_fate_and_on_a_log_that_disagrees() {
    let (wl, mut d, _) = run("dense_flat");
    let (task, ..) = first_assigned(&d);
    d.reports[0].fates.remove(&task);
    assert!(violations(&wl, &d, None).contains(&Check::Conservation));

    let (wl, mut d, _) = run("dense_flat");
    let log = d.outcomes.as_mut().expect("flat runs keep a log");
    let at = log
        .iter()
        .position(|o| matches!(o, Outcome::Expired { .. } | Outcome::Assigned { .. }))
        .expect("some terminal outcome");
    log.remove(at);
    assert!(violations(&wl, &d, None).contains(&Check::Conservation));
}

#[test]
fn task_twice_fires_on_a_repeated_assignment() {
    let (wl, mut d, _) = run("dense_flat");
    let log = d.outcomes.as_mut().expect("flat runs keep a log");
    let first = *log
        .iter()
        .find(|o| matches!(o, Outcome::Assigned { .. }))
        .expect("some assignment");
    log.push(first);
    assert!(violations(&wl, &d, None).contains(&Check::TaskTwice));
}

#[test]
fn feasibility_fires_on_a_task_outside_the_disc() {
    let (wl, mut d, _) = run("dense_flat");
    let (task, worker, window) = first_assigned(&d);
    // Hand the task to the worker farthest from it.
    let loc = |id: u32| {
        wl.stream.events().iter().find_map(|e| match e {
            dpta_stream::ArrivalEvent::Task(t) if t.id == id => Some(t.task.location),
            _ => None,
        })
    };
    let at = loc(task).expect("task arrived");
    let far = wl
        .stream
        .events()
        .iter()
        .filter_map(|e| match e {
            dpta_stream::ArrivalEvent::Worker(w) => Some(w),
            _ => None,
        })
        .max_by(|a, b| {
            a.worker
                .location
                .distance(&at)
                .total_cmp(&b.worker.location.distance(&at))
        })
        .expect("workers arrived");
    assert_ne!(far.id, worker);
    if let Some(TaskFate::Assigned { worker: w, .. }) = d.reports[0].fates.get_mut(&task) {
        *w = far.id;
    }
    for o in d.outcomes.iter_mut().flatten() {
        if let Outcome::Assigned {
            task: t, worker: w, ..
        } = o
        {
            if *t == task {
                *w = far.id;
            }
        }
    }
    let v = violations(&wl, &d, None);
    assert!(v.contains(&Check::Feasibility), "{v:?} (window {window})");
}

#[test]
fn in_service_fires_on_a_worker_assigned_twice() {
    // Serve-and-leave: a matched worker never comes back.
    let (wl, mut d, _) = run("dense_flat");
    let (_, worker, window) = first_assigned(&d);
    let other = d.reports[0]
        .fates
        .iter()
        .find_map(|(&t, f)| match f {
            TaskFate::Assigned { window: k, .. } if *k > window => Some(t),
            _ => None,
        })
        .expect("a later assignment");
    if let Some(TaskFate::Assigned { worker: w, .. }) = d.reports[0].fates.get_mut(&other) {
        *w = worker;
    }
    assert!(violations(&wl, &d, None).contains(&Check::InService));

    // Fixed service time: re-assigned within the service period.
    let (wl, mut d, _) = run("city_durable");
    let fates: Vec<(usize, u32, u32, usize)> = d
        .reports
        .iter()
        .enumerate()
        .flat_map(|(s, r)| {
            r.fates.iter().filter_map(move |(&t, f)| match *f {
                TaskFate::Assigned { worker, window, .. } => Some((s, t, worker, window)),
                _ => None,
            })
        })
        .collect();
    let (_, _, worker, window) = fates[0];
    let &(shard, task, ..) = fates
        .iter()
        .find(|&&(_, _, w, k)| w != worker && k == window + 1)
        .expect("an assignment in the next window");
    if let Some(TaskFate::Assigned { worker: w, .. }) = d.reports[shard].fates.get_mut(&task) {
        *w = worker;
    }
    assert!(violations(&wl, &d, None).contains(&Check::InService));
}

#[test]
fn spend_fires_over_capacity_and_on_an_audit_mismatch() {
    // Lifetime ledger: one worker's total over the capacity.
    let (mut wl, mut d, _) = run("dense_flat");
    wl.cfg.worker_capacity = 1.0;
    let spend = &mut d.reports[0].spend_by_worker;
    let (&w, _) = spend.iter().next().expect("someone spent");
    spend.insert(w, 1.5);
    assert!(violations(&wl, &d, None).contains(&Check::Spend));

    // Sliding-window ledger: releases piled into one window.
    let (wl, d, mut audit) = run("city_durable");
    let r = audit[0];
    let cap = wl.cfg.worker_capacity;
    audit.extend(
        (1..)
            .take((cap / r.epsilon) as usize + 1)
            .map(|k| AuditRelease {
                slot: r.slot + 1000 + k,
                ..r
            }),
    );
    let found = checks::check(&RunView {
        stream: &wl.stream,
        cfg: &wl.cfg,
        reports: &d.reports,
        outcomes: None,
        audit: Some(&audit),
    });
    assert!(
        found
            .iter()
            .any(|(c, msg)| *c == Check::Spend && msg.contains(" within ")),
        "{found:?}"
    );

    // Reports that charge less than the engine published.
    let (wl, mut d, audit) = run("city_durable");
    let report = d
        .reports
        .iter_mut()
        .find(|r| !r.spend_by_worker.is_empty())
        .expect("someone spent");
    let first = report.spend_by_worker.values_mut().next().expect("entry");
    *first /= 2.0;
    assert!(violations(&wl, &d, Some(&audit)).contains(&Check::Spend));
}

#[test]
fn digest_changes_with_any_decision() {
    let (_, mut d, _) = run("city_durable");
    let before = checks::digest(&d.reports, None);
    let w = d
        .reports
        .iter_mut()
        .flat_map(|r| &mut r.windows)
        .find(|w| w.matched > 0)
        .expect("a window with matches");
    w.utility += 1e-9;
    assert_ne!(before, checks::digest(&d.reports, None));
}
