//! The closed-loop client: replays a workload's stream through the
//! public session API from one thread, one call at a time.

use crate::trace::Tracer;
use crate::workload::Workload;
use dpta_core::AssignmentEngine;
use dpta_stream::{Outcome, ShardedSession, ShardedSnapshot, StreamReport, StreamSession};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A flat or sharded session behind one interface.
// One session lives per drain, so the size skew between the variants
// costs nothing; boxing would only add an indirection to every call.
#[allow(clippy::large_enum_variant)]
pub enum Session<'e, 'p> {
    Flat(StreamSession<'e>),
    Sharded(ShardedSession<'e, 'p>),
}

/// Opens the session `wl` runs on.
pub fn open<'e, 'p>(wl: &'p Workload, engine: &'e dyn AssignmentEngine) -> Session<'e, 'p> {
    match &wl.sharding {
        None => Session::Flat(StreamSession::new(engine, wl.cfg.clone())),
        Some(s) => Session::Sharded(ShardedSession::new(
            engine,
            wl.cfg.clone(),
            &s.partition,
            s.strategy,
        )),
    }
}

/// Wall time of each checkpoint step, summed over a drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotStats {
    pub count: usize,
    pub capture_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub restore_ns: u64,
    /// Size of the largest encoded snapshot.
    pub max_bytes: usize,
}

impl SnapshotStats {
    pub fn total_ns(&self) -> u64 {
        self.capture_ns + self.encode_ns + self.decode_ns + self.restore_ns
    }
}

/// What one drain produced.
pub struct Drain {
    pub events: usize,
    pub wall_s: f64,
    /// `(window, ms)` of every `advance_to` (+ `poll_outcomes` when
    /// flat) call.
    pub decide_ms: Vec<(usize, f64)>,
    /// One report per shard; one in all when flat.
    pub reports: Vec<StreamReport>,
    /// The flat session's outcome log.
    pub outcomes: Option<Vec<Outcome>>,
    pub snapshots: SnapshotStats,
}

/// Operations attempted and failed, across drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Runs `n` operations as one call, counting a panic as one failed
    /// operation.
    fn run<T>(&mut self, n: u64, f: impl FnOnce() -> T) -> Result<T, String> {
        self.attempted += n;
        catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
            self.failed += 1;
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            format!("operation panicked: {msg}")
        })
    }

    /// An operation that returns a typed error.
    fn fallible<T, E: std::fmt::Display>(
        &mut self,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        self.run(1, f)?.map_err(|e| {
            self.failed += 1;
            e.to_string()
        })
    }
}

/// Runs `f`, inside a span when tracing; returns its result and wall
/// nanoseconds.
fn timed<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    };
    (out, start.elapsed().as_nanos() as u64)
}

/// Drains `wl` through `engine`: pushes every event in event-time
/// order, advances the watermark to every window end (polling outcomes
/// when flat), checkpoints when `checkpoints` is set and the workload
/// asks for it, and closes. The wall clock runs from the first push to
/// the return of `close`.
pub fn drain(
    wl: &Workload,
    engine: &dyn AssignmentEngine,
    tracer: Option<&Tracer>,
    checkpoints: bool,
    ops: &mut Ops,
) -> Result<Drain, String> {
    let mut session = open(wl, engine);
    let events = wl.stream.events();
    let bounds = wl.boundaries();
    let flat = matches!(session, Session::Flat(_));
    let mut outcomes = Vec::new();
    let mut decide_ms = Vec::with_capacity(bounds.len());
    let mut snapshots = SnapshotStats::default();
    let every = wl.checkpoint_every.filter(|_| checkpoints);
    let mut next = 0;
    let start = Instant::now();
    for (k, &end) in bounds.iter().enumerate() {
        if let Some(t) = tracer {
            t.set_window(k);
        }
        let upto = next + events[next..].partition_point(|e| e.time() < end);
        push(&mut session, &events[next..upto], tracer, ops)?;
        next = upto;
        let t0 = Instant::now();
        let adv = timed(tracer, "session.advance", || {
            ops.run(1, || match &mut session {
                Session::Flat(s) => s.advance_to(end),
                Session::Sharded(s) => s.advance_to(end),
            })
        });
        adv.0?;
        if let Session::Flat(s) = &mut session {
            let polled = timed(tracer, "session.poll", || ops.run(1, || s.poll_outcomes()));
            outcomes.extend(polled.0?);
        }
        decide_ms.push((k, t0.elapsed().as_secs_f64() * 1e3));
        if every.is_some_and(|n| (k + 1) % n == 0) {
            checkpoint(wl, engine, &mut session, tracer, ops, &mut snapshots)?;
        }
    }
    if let Some(t) = tracer {
        t.set_window(bounds.len());
    }
    push(&mut session, &events[next..], tracer, ops)?;
    let (closed, _) = timed(tracer, "session.close", || {
        ops.run(1, || match &mut session {
            Session::Flat(s) => {
                let report = s.close();
                outcomes.extend(s.poll_outcomes());
                vec![report]
            }
            Session::Sharded(s) => s.close().shards,
        })
    });
    let reports = closed?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Drain {
        events: events.len(),
        wall_s,
        decide_ms,
        reports,
        outcomes: flat.then_some(outcomes),
        snapshots,
    })
}

fn push(
    session: &mut Session,
    batch: &[dpta_stream::ArrivalEvent],
    tracer: Option<&Tracer>,
    ops: &mut Ops,
) -> Result<(), String> {
    if batch.is_empty() {
        return Ok(());
    }
    timed(tracer, "session.push", || {
        ops.run(batch.len() as u64, || match session {
            Session::Flat(s) => batch.iter().for_each(|&e| s.push(e)),
            Session::Sharded(s) => batch.iter().for_each(|&e| s.push(e)),
        })
    })
    .0
}

/// Snapshot → JSON → parse → restore, continuing on the restored
/// session as a crash-safe service would.
fn checkpoint<'e, 'p>(
    wl: &'p Workload,
    engine: &'e dyn AssignmentEngine,
    session: &mut Session<'e, 'p>,
    tracer: Option<&Tracer>,
    ops: &mut Ops,
    stats: &mut SnapshotStats,
) -> Result<(), String> {
    let (Session::Sharded(s), Some(sharding)) = (&*session, &wl.sharding) else {
        return Err("checkpoints need a sharded session".to_string());
    };
    let (snap, ns) = timed(tracer, "snapshot.capture", || ops.run(1, || s.snapshot()));
    let snap = snap?;
    stats.capture_ns += ns;
    let (json, ns) = timed(tracer, "snapshot.encode", || ops.run(1, || snap.to_json()));
    let json = json?;
    stats.encode_ns += ns;
    drop(snap);
    let (back, ns) = timed(tracer, "snapshot.decode", || {
        ops.fallible(|| ShardedSnapshot::from_json(&json))
    });
    let back = back?;
    stats.decode_ns += ns;
    stats.max_bytes = stats.max_bytes.max(json.len());
    drop(json);
    let (restored, ns) = timed(tracer, "snapshot.restore", || {
        ops.fallible(|| {
            ShardedSession::restore(
                engine,
                wl.cfg.clone(),
                &sharding.partition,
                sharding.strategy,
                &back,
            )
        })
        .map(|s| *session = Session::Sharded(s))
    });
    restored?;
    stats.restore_ns += ns;
    stats.count += 1;
    Ok(())
}
