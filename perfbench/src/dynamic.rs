//! `dynamic_mixed`: mixed `ArrivalProcess` streams fed through
//! `ContinuousAssignment::apply` in process, one event at a time.

use std::time::{Duration, Instant};

use cca::{
    ContinuousAssignment, ContinuousConfig, Problem, RepairKind, SolverConfig, SolverRegistry,
    WorldEvent,
};
use cca_datagen::{ArrivalProcess, StreamEvent};
use cca_geo::Point;
use cca_storage::IoStats;

use crate::stats::median;
use crate::trace::{self, Recorder};
use crate::{Config, Report, Scale};

/// Worlds per run, fed round-robin. One clustered world's geometry sets
/// the cost of its events; several average that out.
const WORLDS: usize = 4;

/// Per-kind span and metric names, indexed by the kind
/// [`World::next_event`] returns.
const APPLY_SPANS: [&str; 4] = [
    "core.apply.arrive",
    "core.apply.depart",
    "core.apply.capacity",
    "core.apply.move",
];
const APPLY_METRICS: [&str; 4] = [
    "core.apply_ms.arrive",
    "core.apply_ms.depart",
    "core.apply_ms.capacity",
    "core.apply_ms.move",
];

/// The engine configuration of the `continuous_assignment` bench's mixed
/// row (`sspa_edge_limit` 500k, so full re-solves run IDA), with two
/// changes that keep multi-second full re-solves out of the timed phase,
/// where how many land in a run would set its throughput and peak memory:
/// the dirty-fraction threshold never fires, and a local repair may expand
/// five times instead of three, to 8 · 2⁵ ≥ 100 providers, so a deficit a
/// 64-provider neighbourhood cannot absorb is repaired over every provider
/// instead of by a full re-solve. The from-scratch solve is still timed by
/// `setup_s`, since every engine build runs it.
fn engine_config() -> ContinuousConfig {
    ContinuousConfig {
        dirty_threshold: f64::INFINITY,
        sspa_edge_limit: 500_000,
        max_expansions: 5,
        ..ContinuousConfig::default()
    }
}

/// One engine and the event stream that drives it.
struct World {
    engine: ContinuousAssignment,
    stream: ArrivalProcess,
    /// Where the stream's arrivals land, in turn (cycling): clustered on the
    /// map like the initial customers. The stream itself places arrivals
    /// uniformly, which would turn the clustered world uniform over a run
    /// and let a world's event costs drift with how far the run got.
    arrivals: Vec<Point>,
    next_arrival: usize,
}

impl World {
    /// The stream's next event, and its kind as an index into
    /// [`APPLY_SPANS`].
    fn next_event(&mut self) -> (WorldEvent, usize) {
        match self.stream.next_event() {
            StreamEvent::CustomerArrive { id, .. } => {
                let pos = self.arrivals[self.next_arrival % self.arrivals.len()];
                self.next_arrival += 1;
                (WorldEvent::CustomerArrive { id, pos }, 0)
            }
            StreamEvent::CustomerDepart { id, .. } => (WorldEvent::CustomerDepart { id }, 1),
            StreamEvent::ProviderCapacityDelta { index, delta } => {
                (WorldEvent::ProviderCapacityDelta { index, delta }, 2)
            }
            StreamEvent::ProviderMove { index, to } => (WorldEvent::ProviderMove { index, to }, 3),
        }
    }
}

/// One applied event.
struct Event {
    kind: usize,
    /// When the event's apply returned, in seconds since the phase began.
    end_s: f64,
    ms: f64,
    repair: RepairKind,
}

/// Applies events round-robin over `worlds` until `seconds` have passed
/// and `min_ops` were applied (or a hard cap of three times `seconds` plus
/// 20 s). An event whose report is aborted or leaves a deficit is a failed
/// op.
fn drive(
    worlds: &mut [World],
    seconds: Duration,
    min_ops: usize,
    mut rec: Option<&mut Recorder>,
    report: &mut Report,
) -> Vec<Event> {
    // Reserved, not touched: pages join the resident set as events fill
    // them, so the run's peak grows with its event count instead of
    // jumping when a growing vector doubles (a 4 MB step in peak RSS at
    // 2^17 events, crossed by some 30 s runs and not by others).
    let mut events = Vec::with_capacity(seconds.as_secs() as usize * 100_000 + min_ops);
    let start = Instant::now();
    let cap = seconds * 3 + Duration::from_secs(20);
    loop {
        let world = &mut worlds[events.len() % WORLDS];
        let t_op = Instant::now();
        let (event, kind) = world.next_event();
        let t0 = Instant::now();
        let r = world.engine.apply(event, None);
        let t1 = Instant::now();
        report.attempted += 1;
        if r.aborted.is_some() || r.deficit != 0 {
            report.fail(format!(
                "event {}: aborted {:?}, deficit {}",
                events.len(),
                r.aborted,
                r.deficit
            ));
        }
        if let Some(rec) = rec.as_deref_mut() {
            let op = events.len() as u64;
            rec.record(op, 1, None, "op", t_op, t1);
            rec.record(op, 2, Some(1), APPLY_SPANS[kind], t0, t1);
        }
        events.push(Event {
            kind,
            end_s: (t1 - start).as_secs_f64(),
            ms: (t1 - t0).as_secs_f64() * 1e3,
            repair: r.repair,
        });
        let elapsed = start.elapsed();
        if (elapsed >= seconds && events.len() >= min_ops) || elapsed >= cap {
            break;
        }
    }
    events
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (providers, customers, capacity, min_ops) = match cfg.scale {
        Scale::Full => (100, 10_000, 80, 100),
        Scale::Tiny => (20, 1_000, 60, 50),
    };
    report.note(format!(
        "{WORLDS} fixed worlds of providers: {providers}, customers: {customers}, \
         capacity: {capacity}; clustered arrivals; dirty threshold: never, max_expansions: 5, \
         sspa_edge_limit: 500000"
    ));

    // Set-up: one engine build per world (bulk load plus the initial
    // from-scratch solve); `setup_s` is their median.
    let mut setups = Vec::with_capacity(WORLDS);
    let mut worlds = Vec::with_capacity(WORLDS);
    for i in 0..WORLDS as u64 {
        // The worlds are the same in every run, and `--seed` draws their
        // event streams: a world's geometry sets how often a departure
        // needs a repair over many providers, and with worlds drawn from
        // the seed a run holding one costly world lost 10-15 % of its
        // throughput.
        let w = crate::clustered(providers, customers, capacity, i);
        let seed = cfg.seed.wrapping_mul(WORLDS as u64).wrapping_add(i);
        // Arrivals and departures at equal odds keep each world near its
        // initial size, so the cost of an event does not depend on how
        // many events the run got through (the default mix grows it).
        let stream = ArrivalProcess::new(&w, seed).with_weights(4.0, 4.0, 1.0, 0.5);
        let arrivals = crate::clustered_points(customers, seed ^ 0x5eed_0004);
        let t0 = Instant::now();
        let engine = ContinuousAssignment::build(w.providers, w.customers, engine_config());
        setups.push(t0.elapsed().as_secs_f64());
        worlds.push(World {
            engine,
            stream,
            arrivals,
            next_arrival: 0,
        });
    }
    report.metric("setup_s", median(&setups), "s");
    let store = worlds[0].engine.tree().store();
    report.note(format!(
        "engine tree: {} pages, buffer {} pages",
        store.num_pages(),
        store.buffer_capacity()
    ));

    if cfg.trace {
        traced(&mut worlds, cfg, min_ops, &mut report);
        return report;
    }

    crate::reset_peak_rss(&mut report);
    let events = drive(&mut worlds, cfg.seconds, min_ops, None, &mut report);
    // Before the reference solves below, which are the benchmark's work.
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    let done: Vec<(f64, f64)> = events.iter().map(|e| (e.end_s, e.ms)).collect();
    crate::report_timing(&done, 1, &mut report);
    let fulls = events
        .iter()
        .filter(|e| e.repair == RepairKind::Full)
        .count();
    report.note(format!("full re-solves in the run: {fulls}"));

    // Each final world: feasible, maximal, and its cost against a
    // from-scratch IDA solve.
    let optima = reference_optima(&worlds);
    let mut ratios = Vec::with_capacity(WORLDS);
    for (i, (World { engine, .. }, optimum)) in worlds.iter().zip(optima).enumerate() {
        if let Err(e) = engine.check_feasible() {
            report.fail(format!("world {i}: final matching infeasible: {e}"));
        }
        if engine.deficit() != 0 {
            report.fail(format!("world {i}: final deficit {}", engine.deficit()));
        }
        let optimum = match optimum {
            Ok(optimum) => optimum,
            Err(e) => {
                report.fail(format!("world {i}: reference solve invalid: {e}"));
                continue;
            }
        };
        let cost = engine.cost();
        if cost < optimum - 1e-9 * optimum.max(1.0) {
            report.fail(format!(
                "world {i}: engine cost {cost} beats the optimum {optimum}"
            ));
        }
        ratios.push(cost / optimum.max(1e-9));
    }
    report.metric(
        "success_frac",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("cost_ratio", crate::stats::mean(&ratios), "ratio");
    report
}

/// The cost of a from-scratch `ida` solve of each world as it stands, or
/// why the solve's matching is invalid. The solves are untimed checks, so
/// they run two worlds at a time.
fn reference_optima(worlds: &[World]) -> Vec<Result<f64, String>> {
    let ida = SolverRegistry::with_defaults()
        .build(&SolverConfig::new("ida"))
        .expect("ida is registered");
    let solve = |w: &World| {
        let (providers, customers) = (w.engine.providers(), w.engine.alive_customers());
        let (matching, _) = ida
            .run(&Problem::new(providers).with_customers(customers))
            .into_parts();
        matching
            .validate_unit(providers, customers)
            .map(|()| matching.cost())
            .map_err(|e| e.to_string())
    };
    let (first, second) = worlds.split_at(worlds.len().div_ceil(2));
    std::thread::scope(|s| {
        let other = s.spawn(|| second.iter().map(solve).collect::<Vec<_>>());
        let mut optima: Vec<_> = first.iter().map(solve).collect();
        optima.extend(other.join().expect("reference solve panicked"));
        optima
    })
}

/// Summed store counters of every world: I/O, lock acquisitions, pages.
fn store_totals(worlds: &[World]) -> (IoStats, u64, usize) {
    let mut io = IoStats::default();
    let (mut locks, mut pages) = (0, 0);
    for w in worlds {
        let store = w.engine.tree().store();
        let s = store.io_stats();
        io.hits += s.hits;
        io.faults += s.faults;
        io.writes += s.writes;
        locks += store.lock_acquisitions();
        pages += store.num_pages();
    }
    (io, locks, pages)
}

fn traced(worlds: &mut [World], cfg: &Config, min_ops: usize, report: &mut Report) {
    let phase = cfg.seconds / 2;
    let plain = drive(worlds, phase, min_ops, None, report);

    let (io0, locks0, pages0) = store_totals(worlds);
    let stats0: Vec<_> = worlds.iter().map(|w| w.engine.stats()).collect();
    let mut rec = Recorder::new(Instant::now());
    let events = drive(worlds, phase, min_ops, Some(&mut rec), report);
    let (io1, locks1, pages1) = store_totals(worlds);
    let io = io1.since(&io0);
    let (mut expansions, mut fulls) = (0, 0);
    for (w, s0) in worlds.iter().zip(&stats0) {
        let s1 = w.engine.stats();
        expansions += s1.expansions - s0.expansions;
        fulls += s1.full_resolves - s0.full_resolves;
    }
    let spans = rec.into_spans();

    let ops = events.len().max(1) as f64;
    for (kind, metric) in APPLY_METRICS.into_iter().enumerate() {
        let lat: Vec<f64> = events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.ms)
            .collect();
        report.metric(metric, median(&lat), "ms");
    }
    let local = events
        .iter()
        .filter(|e| e.repair == RepairKind::Local)
        .count();
    report.metric("core.local_repair_share", local as f64 / ops, "ratio");
    report.metric("core.expansions", expansions as f64 / ops, "count");
    report.metric("core.full_resolves", fulls as f64, "count");
    report.metric(
        "rtree.page_reads_per_op",
        io.logical_reads() as f64 / ops,
        "count",
    );
    report.metric("storage.hit_ratio", io.hit_ratio(), "ratio");
    report.metric("storage.faults_per_op", io.faults as f64 / ops, "count");
    report.metric(
        "storage.lock_acqs_per_op",
        (locks1 - locks0) as f64 / ops,
        "count",
    );
    report.metric("storage.writes", io.writes as f64 / ops, "count");
    report.metric("rtree.pages_delta", pages1 as f64 - pages0 as f64, "count");

    let traced_lat: Vec<f64> = events.iter().map(|e| e.ms).collect();
    let plain_lat: Vec<f64> = plain.iter().map(|e| e.ms).collect();
    report.metric(
        "trace.overhead_ms",
        median(&traced_lat) - median(&plain_lat),
        "ms",
    );
    report.metric("trace.span_coverage", trace::coverage(&spans), "ratio");
    report.metric("trace.pipeline_p50_ms", median(&traced_lat), "ms");
    report.note(format!(
        "untraced events: {}, traced events: {}, spans: {}",
        plain.len(),
        events.len(),
        spans.len()
    ));
    crate::write_spans(cfg, &spans, report);
}
