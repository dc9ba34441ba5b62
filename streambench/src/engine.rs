//! An [`AssignmentEngine`] decorator that forwards every call to the
//! real engine and counts and times it from outside, with counting
//! wrappers of the [`NoiseSource`] and [`BudgetRemaining`] handed to
//! each drive.

use crate::trace::Tracer;
use dpta_core::{AssignmentEngine, Board, BudgetRemaining, EngineConfig, EngineTrace, Instance};
use dpta_dp::NoiseSource;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Work counted across every drive. Atomic because the halo pool
/// drives engines from its worker threads; each is a plain statistic
/// that publishes no other data, hence `Relaxed`.
#[derive(Default)]
pub struct Counters {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
    pub feasible_pairs: AtomicU64,
    pub rounds: AtomicU64,
    pub moves: AtomicU64,
    pub noise_draws: AtomicU64,
    pub guard_reads: AtomicU64,
    pub publications: AtomicU64,
}

impl Counters {
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

/// Identity of an entity as the engine sees it: instance indices carry
/// no logical id, but locations and radii do not change along a stream.
pub type PlaceKey = (u64, u64);

pub fn place_key(p: &dpta_spatial::Point) -> PlaceKey {
    (p.x.to_bits(), p.y.to_bits())
}

/// One release published by a drive, for the independent spend audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRelease {
    pub task: PlaceKey,
    pub worker: PlaceKey,
    pub slot: u32,
    pub epsilon: f64,
    /// Window whose drive published it.
    pub window: u32,
}

/// The decorator. Forwards `name`, `config`, `supports_warm_start`,
/// `enforces_budget_cap`, `accounts_privacy`, `drive` and
/// `drive_capped`; every other trait method keeps its default, which
/// routes through `drive`/`drive_capped` exactly as on the real engine.
pub struct TracedEngine<'a> {
    inner: &'a dyn AssignmentEngine,
    tracer: &'a Tracer,
    pub counters: Counters,
    /// Releases recorded per drive when auditing spend.
    audit: Option<Mutex<Vec<AuditRelease>>>,
}

impl<'a> TracedEngine<'a> {
    pub fn new(inner: &'a dyn AssignmentEngine, tracer: &'a Tracer, audit: bool) -> Self {
        TracedEngine {
            inner,
            tracer,
            counters: Counters::default(),
            audit: audit.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn take_audit(&self) -> Vec<AuditRelease> {
        self.audit.as_ref().map_or_else(Vec::new, |a| {
            std::mem::take(&mut *a.lock().expect("audit log poisoned"))
        })
    }

    fn call(
        &self,
        inst: &Instance,
        board: &mut Board,
        noise: &dyn NoiseSource,
        remaining: Option<&dyn BudgetRemaining>,
    ) -> EngineTrace {
        let noise = CountingNoise {
            inner: noise,
            draws: Cell::new(0),
        };
        let before = self.audit.as_ref().map(|_| slots_used(inst, board));
        let pre_pubs = board.publications();
        let start = self.tracer.now();
        let trace = match remaining {
            Some(r) => {
                let guard = CountingGuard {
                    inner: r,
                    reads: AtomicU64::new(0),
                };
                let trace = self.inner.drive_capped(inst, board, &noise, &guard);
                add(&self.counters.guard_reads, Counters::get(&guard.reads));
                trace
            }
            None => self.inner.drive(inst, board, &noise),
        };
        let end = self.tracer.now();
        self.tracer.leaf("engine.drive", start, end);
        let c = &self.counters;
        add(&c.calls, 1);
        add(&c.busy_ns, end - start);
        add(&c.feasible_pairs, inst.feasible_pairs() as u64);
        add(&c.rounds, trace.rounds as u64);
        add(&c.moves, trace.moves.len() as u64);
        add(&c.noise_draws, noise.draws.get());
        add(
            &c.publications,
            board.publications().saturating_sub(pre_pubs) as u64,
        );
        if let (Some(audit), Some(before)) = (&self.audit, before) {
            let window = self.tracer.window();
            let mut log = audit.lock().expect("audit log poisoned");
            for ((i, j), used) in before {
                let Some(set) = board.releases(i, j) else {
                    continue;
                };
                for (slot, r) in set.releases().iter().enumerate().skip(used) {
                    log.push(AuditRelease {
                        task: place_key(&inst.tasks()[i].location),
                        worker: place_key(&inst.workers()[j].location),
                        slot: slot as u32,
                        epsilon: r.epsilon,
                        window,
                    });
                }
            }
        }
        trace
    }
}

/// Slots already used on every feasible pair, before a drive.
fn slots_used(inst: &Instance, board: &Board) -> Vec<((usize, usize), usize)> {
    (0..inst.n_workers())
        .flat_map(|j| inst.reach(j).iter().map(move |&i| (i, j)))
        .map(|(i, j)| ((i, j), board.used_slots(i, j)))
        .collect()
}

impl AssignmentEngine for TracedEngine<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &EngineConfig {
        self.inner.config()
    }

    fn supports_warm_start(&self) -> bool {
        self.inner.supports_warm_start()
    }

    fn enforces_budget_cap(&self) -> bool {
        self.inner.enforces_budget_cap()
    }

    fn accounts_privacy(&self) -> bool {
        self.inner.accounts_privacy()
    }

    fn drive(&self, inst: &Instance, board: &mut Board, noise: &dyn NoiseSource) -> EngineTrace {
        self.call(inst, board, noise, None)
    }

    fn drive_capped(
        &self,
        inst: &Instance,
        board: &mut Board,
        noise: &dyn NoiseSource,
        remaining: &dyn BudgetRemaining,
    ) -> EngineTrace {
        self.call(inst, board, noise, Some(remaining))
    }
}

/// Counts noise draws; lives on the thread of one drive.
struct CountingNoise<'a> {
    inner: &'a dyn NoiseSource,
    draws: Cell<u64>,
}

impl NoiseSource for CountingNoise<'_> {
    fn noise(&self, task: u32, worker: u32, slot: u32, epsilon: f64) -> f64 {
        self.draws.set(self.draws.get() + 1);
        self.inner.noise(task, worker, slot, epsilon)
    }

    fn uniform(&self, task: u32, worker: u32, slot: u32) -> f64 {
        self.draws.set(self.draws.get() + 1);
        self.inner.uniform(task, worker, slot)
    }
}

/// Counts remaining-budget reads. `BudgetRemaining` is `Sync`, so the
/// count is atomic.
struct CountingGuard<'a> {
    inner: &'a dyn BudgetRemaining,
    reads: AtomicU64,
}

impl BudgetRemaining for CountingGuard<'_> {
    fn remaining(&self, worker: usize) -> f64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.remaining(worker)
    }
}
