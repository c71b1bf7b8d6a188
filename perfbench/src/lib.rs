//! The CCA serving benchmark: three seeded workloads, two over the real
//! TCP path (`NetClient` → `NetServer`/`Gateway` → `ServingInstance` →
//! solver) and one through `ContinuousAssignment::apply` in process.
//!
//! A plain run (`trace = false`) measures the end-to-end metrics of
//! [`END_TO_END`]; a traced run replays the same ops through the layers'
//! public calls, records spans around each call, and reports the
//! [`PER_LAYER`] metrics. Every output is checked; see `README.md`.

pub mod dynamic;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wire;

use std::time::Duration;

use cca_datagen::spatial::cluster_centers;
use cca_datagen::{generate_points, RoadNetwork, SpatialDistribution, Workload};
use cca_geo::Point;

pub use report::Report;

/// End-to-end metrics, in print order: name, unit, better direction.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_ops_s", "ops/s", "higher"),
    ("success_frac", "ratio", "higher"),
    ("cost_ratio", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of the traced run, in print order: name and unit.
/// A layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("net.request_bytes", "bytes"),
    ("net.reply_bytes", "bytes"),
    ("net.frames_over_8k_share", "ratio"),
    ("net.encode_ms", "ms"),
    ("net.decode_ms", "ms"),
    ("net.transport_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.handoff_ms", "ms"),
    ("serve.rejected", "count"),
    ("core.solve_ms", "ms"),
    ("core.cpu_ms", "ms"),
    ("core.esub_edges", "count"),
    ("core.dijkstra_runs", "count"),
    ("core.valid_path_ratio", "ratio"),
    ("core.apply_ms.arrive", "ms"),
    ("core.apply_ms.depart", "ms"),
    ("core.apply_ms.capacity", "ms"),
    ("core.apply_ms.move", "ms"),
    ("core.local_repair_share", "ratio"),
    ("core.expansions", "count"),
    ("core.full_resolves", "count"),
    ("flow.sspa_ms", "ms"),
    ("flow.settle_ms", "ms"),
    ("flow.augment_ms", "ms"),
    ("flow.settled", "count"),
    ("flow.pushes_per_pop", "ratio"),
    ("flow.radix_fallbacks", "count"),
    ("rtree.page_reads_per_op", "count"),
    ("storage.hit_ratio", "ratio"),
    ("storage.faults_per_op", "count"),
    ("storage.lock_acqs_per_op", "count"),
    ("storage.writes", "count"),
    ("rtree.pages_delta", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.span_coverage", "ratio"),
    ("trace.pipeline_p50_ms", "ms"),
    ("trace.wire_p50_ms", "ms"),
];

/// The workloads, with why each was chosen (as in `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "inline_sspa",
        "Cold cca-flow SSPA does most of the work over frames above 8 KiB; storage is \
         unused. Stresses flow (SSPA frontier push amplification) and the large-frame \
         path.",
    ),
    (
        "dataset_scarce",
        "Paper's scarce regime on a disk-backed R-tree whose working set overflows a \
         16-page buffer: the only cache-overflowing read path; ~64 KB replies expose the \
         reply codec.",
    ),
    (
        "dynamic_mixed",
        "The only write workload: R-tree insert/delete and bounded SSPA splices through \
         ContinuousAssignment::apply, in process; cache-resident counterpart of \
         dataset_scarce.",
    ),
];

/// Seed of the road map every clustered workload is drawn on. The map is
/// one fixed city, so `--seed` moves providers and customers within it but
/// does not redraw the city's districts, whose density sets most of a
/// solve's cost.
const MAP_SEED: u64 = 2008;

/// `n` clustered points on the fixed map, placed from `seed`.
pub(crate) fn clustered_points(n: usize, seed: u64) -> Vec<Point> {
    let net = RoadNetwork::default_map(MAP_SEED);
    let centers = cluster_centers(&net, MAP_SEED);
    generate_points(&net, &centers, n, SpatialDistribution::Clustered, seed)
}

/// A clustered instance on the fixed map: `providers` with capacity
/// `capacity` each, and `customers`, placed from `seed`.
pub fn clustered(providers: usize, customers: usize, capacity: u32, seed: u64) -> Workload {
    Workload {
        providers: clustered_points(providers, seed ^ 0x5eed_0002)
            .into_iter()
            .map(|p| (p, capacity))
            .collect(),
        customers: clustered_points(customers, seed ^ 0x5eed_0003),
    }
}

/// Size of a run: the real benchmark, or a tiny one for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: Duration,
    pub trace: bool,
    pub scale: Scale,
}

/// Runs one workload and returns its report, with every metric of the
/// chosen mode present in the declared order.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = match cfg.workload.as_str() {
        "inline_sspa" => wire::run(wire::Kind::InlineSspa, cfg),
        "dataset_scarce" => wire::run(wire::Kind::DatasetScarce, cfg),
        "dynamic_mixed" => dynamic::run(cfg),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                names.join(", ")
            ));
        }
    };
    order_metrics(&mut report, cfg.trace);
    Ok(report)
}

/// Puts the report's metrics in the declared order, filling a bypassed
/// layer's metrics with 0, and drops anything undeclared.
fn order_metrics(report: &mut Report, trace: bool) {
    let declared: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    let metrics = declared
        .into_iter()
        .map(|(name, unit)| report::Metric {
            name,
            value: report.get(name).unwrap_or(0.0),
            unit,
        })
        .collect();
    report.metrics = metrics;
}

/// Set-ups per run: at least [`SETUP_MIN_REPS`], and more while their
/// total stays under [`SETUP_BUDGET`], up to [`SETUP_MAX_REPS`]. A
/// 2 ms set-up thus samples half a second of the host, not a moment of
/// it, and the cap bounds the sockets the repeats leave in `TIME_WAIT`.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 250;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Builds the system under test repeatedly, tearing down every build but
/// the last, and returns the last with the median build time in seconds.
pub fn repeat_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    loop {
        let t0 = std::time::Instant::now();
        let built = build()?;
        let took = t0.elapsed();
        times.push(took.as_secs_f64());
        total += took;
        let done = times.len() >= SETUP_MAX_REPS
            || (times.len() >= SETUP_MIN_REPS && total >= SETUP_BUDGET);
        if done {
            return Ok((built, stats::median(&times)));
        }
        teardown(built);
    }
}

/// Reports the end-to-end timing metrics of a timed phase whose op mix
/// repeats every `period` ops; `done` holds `(end_s, latency_ms)` per
/// completed op.
pub fn report_timing(done: &[(f64, f64)], period: usize, report: &mut Report) {
    let t = stats::timing(done, period);
    report.metric("latency_p50_ms", t.p50, "ms");
    report.metric("latency_p90_ms", t.p90, "ms");
    report.metric("throughput_ops_s", t.throughput, "ops/s");
    let latencies: Vec<f64> = done.iter().map(|d| d.1).collect();
    report.note(stats::describe(&stats::sorted(&latencies)));
    let p50s = stats::sorted(&t.chunk_p50s);
    let (lo, hi) = (p50s.first().unwrap_or(&0.0), p50s.last().unwrap_or(&0.0));
    report.note(format!(
        "timing: quiet pool of {} of {} chunks of {} ops; chunk p50 (ms): \
         lowest {lo:.4}, median {:.4}, highest {hi:.4}",
        t.pooled,
        t.chunk_p50s.len(),
        t.chunk_len,
        stats::median(&t.chunk_p50s),
    ));
}

/// Resets the process's peak resident set to its current size, so the
/// peak read when the timed phase ends is that phase's own; set-up has its
/// own metric. Where the kernel refuses, the peak includes set-up, and
/// the run says so.
pub fn reset_peak_rss(report: &mut Report) {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        report.note(format!("peak RSS not reset ({e}); it includes set-up"));
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, read when a timed
/// phase ends.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build identity printed with every result.
pub fn provenance(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    format!(
        "host: available_parallelism={cores} cpu=\"{cpu}\" rustc=\"{rustc}\" rev={} seed={seed}",
        git_rev()
    )
}

/// The commit the benchmark was built from, read from `.git` beside the
/// benchmark's directory; `unknown` in a checkout without one.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the traced run's spans once, at its end, to
/// `out/spans-<workload>-<seed>.tsv` beside this package's manifest.
/// The smoke tests skip the file.
pub fn write_spans(cfg: &Config, spans: &[trace::Span], report: &mut Report) {
    if cfg.scale == Scale::Tiny {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.tsv", cfg.workload, cfg.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| trace::write_tsv(&path, spans)) {
        Ok(()) => report.note(format!("spans: {}", path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}
