//! The engine decorator must be invisible: a decorated drain decides
//! bit for bit what the bare engine decides, on every workload.

use streambench::drain::{self, Ops};
use streambench::engine::{Counters, TracedEngine};
use streambench::trace::Tracer;
use streambench::{checks, workload};

#[test]
fn decorated_drain_matches_the_bare_engine_on_every_workload() {
    for name in workload::NAMES {
        let mut wl = workload::build(name, 7, 0.05).expect("known workload");
        // Checkpoint often enough that the reduced stream crosses a few.
        wl.checkpoint_every = wl.checkpoint_every.map(|_| 10);
        let engine = wl.method.engine(&wl.cfg.params);
        let mut ops = Ops::default();
        let bare = drain::drain(&wl, engine.as_ref(), None, true, &mut ops).expect("bare drain");

        let tracer = Tracer::default();
        let decorated = TracedEngine::new(engine.as_ref(), &tracer, true);
        let traced =
            drain::drain(&wl, &decorated, Some(&tracer), true, &mut ops).expect("traced drain");

        assert_eq!(ops.failed, 0, "{name}");
        assert!(Counters::get(&decorated.counters.calls) > 0, "{name}");
        assert_eq!(bare.outcomes, traced.outcomes, "{name}: outcome log");
        assert_eq!(bare.reports.len(), traced.reports.len(), "{name}");
        for (a, b) in bare.reports.iter().zip(&traced.reports) {
            assert_eq!(a.fates, b.fates, "{name}: fates");
            let bits = |r: &dpta_stream::StreamReport| -> Vec<(u32, u64)> {
                r.spend_by_worker
                    .iter()
                    .map(|(&w, e)| (w, e.to_bits()))
                    .collect()
            };
            assert_eq!(bits(a), bits(b), "{name}: spend");
        }
        assert_eq!(
            checks::digest(&bare.reports, bare.outcomes.as_deref()),
            checks::digest(&traced.reports, traced.outcomes.as_deref()),
            "{name}: digest"
        );
        if wl.checkpoint_every.is_some() {
            assert!(bare.snapshots.count > 0, "{name}: no checkpoint taken");
        }
    }
}

#[test]
fn checkpointed_drain_matches_the_uninterrupted_drain() {
    let mut wl = workload::build("city_durable", 3, 0.05).expect("known workload");
    wl.checkpoint_every = Some(7);
    let engine = wl.method.engine(&wl.cfg.params);
    let mut ops = Ops::default();
    let plain = drain::drain(&wl, engine.as_ref(), None, false, &mut ops).expect("drain");
    let durable = drain::drain(&wl, engine.as_ref(), None, true, &mut ops).expect("drain");
    assert_eq!(plain.snapshots.count, 0);
    assert!(durable.snapshots.count > 0);
    assert_eq!(
        checks::digest(&plain.reports, None),
        checks::digest(&durable.reports, None)
    );
}
