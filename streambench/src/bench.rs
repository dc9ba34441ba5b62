//! One benchmark run: set-up, a checked reference drain, then timed
//! drains until the run length is used up.

use crate::checks::{self, RunView};
use crate::drain::{self, Drain, Ops};
use crate::engine::{Counters, TracedEngine};
use crate::host;
use crate::trace::{self, Span, Tracer};
use crate::workload::{self, Workload};
use dpta_stream::{LedgerMode, ShardStrategy, StreamReport, TaskFate};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups timed per run: at least `SETUP_MIN`, then more until
/// `SETUP_BUDGET` has passed, at most `SETUP_MAX`. `setup_s` is their
/// median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Host, run and input-property metadata, as a JSON object.
    pub info: String,
    /// Every check violation and failed operation, for stderr.
    pub problems: Vec<String>,
    /// Spans of the last traced drain, as JSON lines.
    pub spans: Vec<String>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let host = host::collect();
    let mut setup = Vec::new();
    let mut built = None;
    let begun = Instant::now();
    while setup.len() < SETUP_MIN || (setup.len() < SETUP_MAX && begun.elapsed() < SETUP_BUDGET) {
        let start = Instant::now();
        let wl = workload::build(&args.workload, args.seed, 1.0)?;
        let engine = wl.method.engine(&wl.cfg.params);
        let session = drain::open(&wl, engine.as_ref());
        setup.push(start.elapsed().as_secs_f64());
        drop(session);
        built = Some((wl, engine));
    }
    let (wl, engine) = built.expect("at least one set-up");
    let engine = engine.as_ref();
    let mut problems = Vec::new();
    let mut ops = Ops::default();

    // Reference drain: decorated, audited when the ledger needs it,
    // without checkpoints. Every later drain must reproduce its digest.
    let tracer = Tracer::default();
    let windowed = matches!(wl.cfg.ledger, LedgerMode::Windowed { .. });
    let audited = TracedEngine::new(engine, &tracer, windowed);
    let reference = drain::drain(&wl, &audited, Some(&tracer), false, &mut ops)?;
    drop(tracer.take());
    let audit = audited.take_audit();
    for (check, msg) in checks::check(&view(&wl, &reference, Some(&audit))) {
        problems.push(format!("reference drain: {check:?}: {msg}"));
    }
    drop(audit);
    let ref_digest = checks::digest(&reference.reports, reference.outcomes.as_deref());
    let live = live_windows(&reference.reports);
    let input = input_properties(&wl, &reference, &audited.counters, &live);
    let quality = quality(&wl, &reference.reports);
    drop(reference);

    let verify = |d: &Drain, what: &str, problems: &mut Vec<String>| {
        for (check, msg) in checks::check(&view(&wl, d, None)) {
            problems.push(format!("{what} drain: {check:?}: {msg}"));
        }
        if checks::digest(&d.reports, d.outcomes.as_deref()) != ref_digest {
            problems.push(format!(
                "{what} drain decided differently from the reference drain"
            ));
        }
    };

    let measuring = Instant::now();
    let deadline = measuring + Duration::from_secs(args.seconds);
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    // Best `advance_to` time of each decided window over the run's
    // drains.
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    let steal_start = host::steal_ticks();
    let mut checkpoint_share = Vec::new();
    let mut layers: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut last_spans = Vec::new();
    loop {
        match drain::drain(&wl, engine, None, true, &mut ops) {
            Ok(d) => {
                verify(&d, "timed", &mut problems);
                rates.push(d.events as f64 / d.wall_s);
                checkpoint_share.push(d.snapshots.total_ns() as f64 / 1e9 / d.wall_s);
                for &(k, ms) in d.decide_ms.iter().filter(|(k, _)| live.contains(k)) {
                    let b = best.entry(k).or_insert(ms);
                    *b = b.min(ms);
                }
            }
            Err(e) => {
                problems.push(e);
                break;
            }
        }
        if args.trace {
            let tracer = Tracer::default();
            let traced = TracedEngine::new(engine, &tracer, false);
            match drain::drain(&wl, &traced, Some(&tracer), true, &mut ops) {
                Ok(d) => {
                    verify(&d, "traced", &mut problems);
                    traced_rates.push(d.events as f64 / d.wall_s);
                    let spans = tracer.take();
                    for (name, value, unit) in layer_metrics(&wl, &d, &spans, &traced.counters) {
                        layers
                            .entry(name)
                            .or_insert((Vec::new(), unit))
                            .0
                            .push(value);
                    }
                    last_spans = spans;
                }
                Err(e) => {
                    problems.push(e);
                    break;
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let steal_per_s =
        (host::steal_ticks() - steal_start) as f64 / measuring.elapsed().as_secs_f64();
    let correct = problems.is_empty() && ops.failed == 0 && !rates.is_empty();
    let mut decide: Vec<f64> = best.into_values().collect();
    decide.sort_by(f64::total_cmp);
    let p95 = quantile(&decide, 0.95);
    let metrics: Vec<Metric> = if args.trace {
        let mut m: Vec<Metric> = layers
            .into_iter()
            .map(|(name, (values, unit))| (name, median(values), unit))
            .collect();
        m.push((
            "trace.overhead",
            ratio(fastest(&rates), fastest(&traced_rates)),
            "ratio",
        ));
        m
    } else {
        vec![
            ("events_per_s", fastest(&rates), "events/s"),
            ("decide_p50_ms", quantile(&decide, 0.5), "ms"),
            ("decide_p95_ms", p95, "ms"),
            ("setup_s", median(setup.clone()), "s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MB"),
            ("matched_frac", quality.matched_frac, "share"),
            ("utility_per_task", quality.utility_per_task, "utility"),
            ("eps_per_match", quality.eps_per_match, "eps"),
            (
                "ok_rate",
                1.0 - ratio(ops.failed as f64, ops.attempted as f64),
                "share",
            ),
        ]
    };

    let info = format!(
        concat!(
            "{{\"workload\": {}, \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, ",
            "\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, ",
            "\"source_digest\": {}, \"setup_reps\": {}, \"drains\": {}, ",
            "\"traced_drains\": {}, \"decide_samples\": {}, \"decide_samples_beyond_p95\": {}, ",
            "\"error_rate\": {}, \"checkpoint_share\": {}, \"input\": {}, ",
            "\"drain_events_per_s\": {}, \"steal_ticks_per_s\": {}}}"
        ),
        json_str(wl.name),
        args.seed,
        args.seconds,
        args.trace,
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.rustc),
        host.commit.as_deref().map_or("null".to_string(), json_str),
        json_str(&host.source_digest),
        setup.len(),
        rates.len(),
        traced_rates.len(),
        decide.len(),
        decide.iter().filter(|&&ms| ms > p95).count(),
        num(ratio(ops.failed as f64, ops.attempted as f64)),
        num(median(checkpoint_share)),
        input,
        json_list(&rates),
        num(steal_per_s),
    );
    let spans = last_spans.iter().map(span_json).collect();
    Ok(Outcome {
        correct,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        info,
        problems,
        spans,
    })
}

fn view<'a>(
    wl: &'a Workload,
    d: &'a Drain,
    audit: Option<&'a [crate::engine::AuditRelease]>,
) -> RunView<'a> {
    RunView {
        stream: &wl.stream,
        cfg: &wl.cfg,
        reports: &d.reports,
        outcomes: d.outcomes.as_deref(),
        audit,
    }
}

/// Windows that held at least one live task in some shard.
fn live_windows(reports: &[StreamReport]) -> std::collections::BTreeSet<usize> {
    reports
        .iter()
        .flat_map(|r| &r.windows)
        .filter(|w| w.tasks_arrived + w.carried_in > 0)
        .map(|w| w.index)
        .collect()
}

struct Quality {
    matched_frac: f64,
    utility_per_task: f64,
    eps_per_match: f64,
}

fn quality(wl: &Workload, reports: &[StreamReport]) -> Quality {
    let tasks = wl.stream.n_tasks() as f64;
    let matched: usize = reports.iter().map(StreamReport::matched).sum();
    let utility: f64 = reports.iter().map(StreamReport::total_utility).sum();
    let eps: f64 = reports.iter().map(StreamReport::total_epsilon).sum();
    Quality {
        matched_frac: ratio(matched as f64, tasks),
        utility_per_task: ratio(utility, tasks),
        eps_per_match: ratio(eps, matched as f64),
    }
}

fn shard_skew(wl: &Workload) -> f64 {
    let per_shard = wl.events_per_shard();
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean = per_shard.iter().sum::<usize>() as f64 / per_shard.len() as f64;
    ratio(max, mean)
}

/// The input properties later claims cite: measured on the reference
/// drain.
fn input_properties(
    wl: &Workload,
    d: &Drain,
    counters: &Counters,
    live: &std::collections::BTreeSet<usize>,
) -> String {
    let mut pool: BTreeMap<usize, usize> = BTreeMap::new();
    for w in d.reports.iter().flat_map(|r| &r.windows) {
        *pool.entry(w.index).or_insert(0) += w.workers_available;
    }
    let mean_pool = ratio(pool.values().sum::<usize>() as f64, pool.len() as f64);
    let calls = Counters::get(&counters.calls) as f64;
    format!(
        concat!(
            "{{\"events\": {}, \"tasks\": {}, \"workers\": {}, \"windows\": {}, ",
            "\"decided_windows\": {}, \"engine_calls\": {}, ",
            "\"mean_feasible_pairs_per_call\": {}, \"mean_live_pool_per_window\": {}, ",
            "\"shard_event_skew\": {}, \"shards\": {}}}"
        ),
        wl.stream.events().len(),
        wl.stream.n_tasks(),
        wl.stream.n_workers(),
        pool.len(),
        live.len(),
        calls,
        num(ratio(Counters::get(&counters.feasible_pairs) as f64, calls)),
        num(mean_pool),
        num(shard_skew(wl)),
        wl.events_per_shard().len(),
    )
}

/// Per-layer metrics of one traced drain.
fn layer_metrics(wl: &Workload, d: &Drain, spans: &[Span], c: &Counters) -> Vec<Metric> {
    let self_ns = trace::self_times(spans);
    let sum = |name: &str| -> u64 { spans.iter().filter(|s| s.name == name).map(Span::ns).sum() };
    let advance_self: Vec<f64> = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "session.advance")
        .map(|(_, &ns)| ns as f64)
        .collect();
    let advance_self_ns: f64 = advance_self.iter().sum();
    let decile = (advance_self.len() / 10).max(1);
    let drift = ratio(
        advance_self[advance_self.len().saturating_sub(decile)..]
            .iter()
            .sum::<f64>(),
        advance_self[..decile.min(advance_self.len())]
            .iter()
            .sum::<f64>(),
    );
    let engine: Vec<&Span> = spans.iter().filter(|s| s.name == "engine.drive").collect();
    let mut calls_us: Vec<f64> = engine.iter().map(|s| s.ns() as f64 / 1e3).collect();
    calls_us.sort_by(f64::total_cmp);
    let engine_wall = trace::covered(engine.iter().map(|s| (s.start, s.end)).collect());
    let get = |a: &std::sync::atomic::AtomicU64| Counters::get(a) as f64;
    let busy_ns = get(&c.busy_ns);
    let windows = d.reports.iter().map(|r| r.windows.len()).max().unwrap_or(0) as f64;
    let matched: usize = d.reports.iter().map(StreamReport::matched).sum();
    let outcomes = match &d.outcomes {
        Some(log) => log.len(),
        None => d
            .reports
            .iter()
            .flat_map(|r| r.fates.values())
            .filter(|f| !matches!(f, TaskFate::Pending))
            .count(),
    };
    let windows_sum = |f: fn(&dpta_stream::WindowReport) -> usize| -> f64 {
        d.reports
            .iter()
            .flat_map(|r| &r.windows)
            .map(f)
            .sum::<usize>() as f64
    };
    let halo = matches!(&wl.sharding, Some(s) if s.strategy == ShardStrategy::Halo);
    let sharded = wl.sharding.is_some();
    let wall_ns = d.wall_s * 1e9;
    let ms = |ns: u64| ns as f64 / 1e6;
    let snap = &d.snapshots;
    vec![
        (
            "session.push_ns",
            ratio(sum("session.push") as f64, d.events as f64),
            "ns",
        ),
        ("session.advance_self_ms", advance_self_ns / 1e6, "ms"),
        ("session.poll_ms", ms(sum("session.poll")), "ms"),
        ("session.close_ms", ms(sum("session.close")), "ms"),
        ("session.windows", windows, "count"),
        ("session.outcomes", outcomes as f64, "count"),
        ("session.self_drift", drift, "ratio"),
        ("engine.calls", get(&c.calls), "count"),
        ("engine.busy_ms", busy_ns / 1e6, "ms"),
        ("engine.busy_share", ratio(busy_ns, wall_ns), "share"),
        ("engine.call_p50_us", quantile(&calls_us, 0.5), "us"),
        ("engine.call_p95_us", quantile(&calls_us, 0.95), "us"),
        ("engine.feasible_pairs", get(&c.feasible_pairs), "count"),
        (
            "engine.ns_per_pair",
            ratio(busy_ns, get(&c.feasible_pairs)),
            "ns",
        ),
        ("engine.rounds", get(&c.rounds), "count"),
        ("engine.moves", get(&c.moves), "count"),
        ("dp.noise_draws", get(&c.noise_draws), "count"),
        ("dp.guard_reads", get(&c.guard_reads), "count"),
        ("dp.publications", get(&c.publications), "count"),
        (
            "dp.publications_per_match",
            ratio(get(&c.publications), matched as f64),
            "ratio",
        ),
        (
            "halo.drives_per_window",
            ratio(get(&c.calls), windows),
            "ratio",
        ),
        (
            "halo.coord_ms",
            if halo { advance_self_ns / 1e6 } else { 0.0 },
            "ms",
        ),
        ("halo.overlap", ratio(busy_ns, engine_wall as f64), "ratio"),
        ("shard.event_skew", shard_skew(wl), "ratio"),
        (
            "shard.advance_ms",
            if sharded {
                ms(sum("session.advance"))
            } else {
                0.0
            },
            "ms",
        ),
        (
            "ledger.retired",
            windows_sum(|w| w.workers_retired),
            "count",
        ),
        (
            "ledger.throttled",
            windows_sum(|w| w.workers_throttled),
            "count",
        ),
        (
            "ledger.deferred",
            windows_sum(|w| w.tasks_deferred),
            "count",
        ),
        (
            "ledger.returned",
            windows_sum(|w| w.workers_returned),
            "count",
        ),
        ("snapshot.count", snap.count as f64, "count"),
        ("snapshot.capture_ms", ms(snap.capture_ns), "ms"),
        ("snapshot.encode_ms", ms(snap.encode_ns), "ms"),
        ("snapshot.decode_ms", ms(snap.decode_ns), "ms"),
        ("snapshot.restore_ms", ms(snap.restore_ns), "ms"),
        ("snapshot.bytes", snap.max_bytes as f64, "bytes"),
        (
            "snapshot.share",
            ratio(snap.total_ns() as f64, wall_ns),
            "share",
        ),
    ]
}

fn span_json(s: &Span) -> String {
    format!(
        "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"window\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
        s.id, s.parent, s.name, s.window, s.start, s.end
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The fastest drain's rate. Other tenants of a shared host only ever
/// slow a drain down, so the fastest one is the least disturbed.
fn fastest(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Linear-interpolated quantile of sorted `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A finite number as JSON (non-finite values print as 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn json_list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(", ")
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
