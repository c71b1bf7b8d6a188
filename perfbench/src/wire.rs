//! The two workloads over the TCP path: `NetClient` → `NetServer` /
//! `Gateway` → `ServingInstance` → solver.
//!
//! The plain run drives the plan's client threads, one connection each,
//! in a closed loop (each sends its next request once the previous reply
//! is in): two on the inline workloads, one on `dataset_scarce`. The
//! traced run first measures the same wire loop, then replays the ops
//! through an in-process pipeline built from the public calls
//! `Gateway::handle` makes — decode, validate, submit, solve inside the
//! job, encode and decode the reply — with a span around each call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cca::serve::Request;
use cca::{
    AbortReason, Problem, QueryContext, ServeConfig, ServingInstance, Solver, SolverConfig,
    SolverRegistry, SpatialAssignment, TenantId,
};
use cca_core::{AlgoStats, MatchPair, Matching};
use cca_flow::sspa::{solve_complete_bipartite, FlowCustomer, FlowProvider, SspaStats};
use cca_geo::Point;
use cca_net::{
    codec, Gateway, NetClient, NetRequest, NetResponse, NetServer, ProblemSpec, SolveReply,
    SolveRequest,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean, median};
use crate::trace::{self, Recorder};
use crate::{Config, Report, Scale};

/// Client threads, one connection each (= cores of the reference host),
/// on the inline workloads; see [`Plan::clients`].
const CLIENTS: usize = 2;
/// Gateway worker threads.
const WORKERS: usize = 2;
/// Page size and buffer of the preloaded dataset: 16 pages is far below
/// its R-tree, so dataset solves fault.
const PAGE_SIZE: usize = 1024;
const BUFFER_PAGES: usize = 16;
const DATASET: &str = "scarce";
/// Seed of the dataset's providers and customers, fixed across runs.
const DATASET_POINTS: u64 = 0;
/// `BufWriter`'s capacity: a frame (4-byte header + payload) above it is
/// written in two pieces.
const FRAME_SPLIT: usize = 8 * 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    InlineSspa,
    DatasetScarce,
}

/// One problem the ops solve, with its exact optimum.
struct Instance {
    providers: Vec<(Point, u32)>,
    customers: Vec<Point>,
    optimum: f64,
}

/// One op: a request and how its reply is judged.
struct Template {
    instance: usize,
    request: SolveRequest,
    /// Exact solvers must hit the optimum to 1e-9 relative.
    exact: bool,
    /// Additive error bound of an approximate solver (CA γδ, SA 2γδ).
    bound: Option<f64>,
}

struct Plan {
    instances: Vec<Instance>,
    templates: Vec<Template>,
    /// Whether instance 0 is served as a preloaded dataset.
    dataset: bool,
    /// Client threads driving the plan.
    clients: usize,
}

/// The outcome of one op as the client saw it.
struct Sample {
    template: usize,
    /// When the op ended, in seconds since the timed phase began.
    end_s: f64,
    latency_ms: f64,
    /// Returned cost over the optimum, or why the op failed.
    outcome: Result<f64, String>,
}

pub fn run(kind: Kind, cfg: &Config) -> Report {
    let mut report = Report::default();
    let plan = plan(kind, cfg.seed, cfg.scale);
    report.note(describe(&plan));
    let min_ops = match cfg.scale {
        Scale::Full => 100,
        Scale::Tiny => 12,
    };

    let mut stack = match crate::repeat_setup(|| start(&plan), stop) {
        Ok((stack, setup_s)) => {
            report.metric("setup_s", setup_s, "s");
            stack
        }
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };

    if let Some(data) = &stack.data {
        let store = data.tree().store();
        report.note(format!(
            "dataset tree: {} pages, buffer {} pages",
            store.num_pages(),
            store.buffer_capacity()
        ));
    }

    if cfg.trace {
        traced(&plan, stack, cfg, min_ops, &mut report);
        return report;
    }

    crate::reset_peak_rss(&mut report);
    let samples = drive(&mut stack.clients, &plan, cfg.seconds, min_ops);
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    stop(stack);
    tally(&samples, &mut report);
    let done: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| (s.end_s, s.latency_ms))
        .collect();
    crate::report_timing(&done, plan.templates.len(), &mut report);
    report.metric(
        "success_frac",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("cost_ratio", cost_ratio(&plan, &samples), "ratio");
    report
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

fn uniform_points(rng: &mut StdRng, n: usize) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)))
        .collect()
}

/// Optimal matching of an inline problem by in-process SSPA.
fn sspa_reference(providers: &[(Point, u32)], customers: &[Point]) -> Matching {
    let (fps, fcs) = flow_instance(providers, customers);
    let (asg, _) = solve_complete_bipartite(&fps, &fcs);
    let pairs = asg
        .pairs
        .iter()
        .map(|&(q, c, units)| MatchPair {
            provider: q,
            customer: c as u64,
            units,
            dist: providers[q].0.dist(&customers[c]),
            customer_pos: customers[c],
        })
        .collect();
    Matching { pairs }
}

fn flow_instance(
    providers: &[(Point, u32)],
    customers: &[Point],
) -> (Vec<FlowProvider>, Vec<FlowCustomer>) {
    let fps = providers
        .iter()
        .map(|&(pos, cap)| FlowProvider { pos, cap })
        .collect();
    let fcs = customers
        .iter()
        .map(|&pos| FlowCustomer { pos, weight: 1 })
        .collect();
    (fps, fcs)
}

fn inline_request(config: SolverConfig, inst: &Instance) -> SolveRequest {
    SolveRequest::new(
        config,
        ProblemSpec::Inline {
            providers: inst.providers.clone(),
            customers: inst.customers.clone(),
        },
    )
}

fn plan(kind: Kind, seed: u64, scale: Scale) -> Plan {
    let tiny = scale == Scale::Tiny;
    match kind {
        Kind::InlineSspa => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1a11_0002);
            let (count, np, nc, cap) = if tiny {
                (2, 6, 80, 10)
            } else {
                (16, 24, 800, 12)
            };
            let mut instances = Vec::with_capacity(count);
            let mut templates = Vec::with_capacity(count);
            for i in 0..count {
                let providers: Vec<_> = uniform_points(&mut rng, np)
                    .into_iter()
                    .map(|p| (p, cap))
                    .collect();
                let customers = uniform_points(&mut rng, nc);
                let optimum = sspa_reference(&providers, &customers).cost();
                let inst = Instance {
                    providers,
                    customers,
                    optimum,
                };
                templates.push(Template {
                    instance: i,
                    request: inline_request(SolverConfig::new("sspa"), &inst),
                    exact: true,
                    bound: None,
                });
                instances.push(inst);
            }
            Plan {
                instances,
                templates,
                dataset: false,
                clients: CLIENTS,
            }
        }
        Kind::DatasetScarce => {
            let (np, nc) = if tiny { (10, 600) } else { (100, 10_000) };
            // k = 5 (γ = 500, ~64 KB replies): a run holds enough ops for
            // the quiet pool to pick from; see README.md. The points are
            // the same in every run and `--seed` draws the coreset sample
            // seeds: with points drawn from the seed, the approximate
            // solvers' cost ratio moved with each seed's geometry and
            // spread 0.022 over ten seeds.
            let w = crate::clustered(np, nc, 5, DATASET_POINTS);
            // Reference: in-process IDA on the same storage layout.
            let reference = SpatialAssignment::build_with_storage(
                w.providers.clone(),
                w.customers.clone(),
                PAGE_SIZE,
                1.0,
            );
            let optimum = reference
                .run_config(&SolverConfig::new("ida"))
                .expect("ida is registered")
                .cost();
            let gamma = reference.gamma() as f64;
            let inst = Instance {
                providers: w.providers,
                customers: w.customers,
                optimum,
            };
            let dataset = |config: SolverConfig, exact: bool, bound: Option<f64>| Template {
                instance: 0,
                request: SolveRequest::new(config, ProblemSpec::Dataset(DATASET.into())),
                exact,
                bound,
            };
            let mut templates = vec![
                dataset(SolverConfig::new("ida"), true, None),
                dataset(SolverConfig::new("ida-grouped"), true, None),
            ];
            for delta in [5.0, 10.0, 20.0] {
                let c = SolverConfig::new("ca").delta(delta);
                templates.push(dataset(c, false, Some(gamma * delta)));
            }
            for delta in [20.0, 40.0] {
                let c = SolverConfig::new("sa").delta(delta);
                templates.push(dataset(c, false, Some(2.0 * gamma * delta)));
            }
            for s in 1..=2u64 {
                let c =
                    SolverConfig::new("coreset").sample_seed(seed.wrapping_mul(31).wrapping_add(s));
                templates.push(dataset(c, false, None));
            }
            Plan {
                instances: vec![inst],
                templates,
                dataset: true,
                // Two clients' decodes and solves on the one 16-page
                // buffer drift in and out of step over a run, which moved
                // a run's p50 by a third.
                clients: 1,
            }
        }
    }
}

/// Sizes of the plan, and the largest request frame.
fn describe(plan: &Plan) -> String {
    let max_request = plan
        .templates
        .iter()
        .map(|t| codec::encode(&NetRequest::Solve(t.request.clone())).len())
        .max()
        .unwrap_or(0);
    let customers: usize = plan.instances.iter().map(|i| i.customers.len()).sum();
    let providers: usize = plan.instances.iter().map(|i| i.providers.len()).sum();
    format!(
        "instances: {}, templates: {}, customers: {customers}, providers: {providers}, \
         largest request frame: {max_request} bytes",
        plan.instances.len(),
        plan.templates.len(),
    )
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// Validates a returned matching against its own problem and the optimum;
/// returns cost ÷ optimum.
fn check(plan: &Plan, t: &Template, m: &Matching) -> Result<f64, String> {
    let inst = &plan.instances[t.instance];
    m.validate_unit(&inst.providers, &inst.customers)?;
    let cost = m.cost();
    let opt = inst.optimum;
    let tol = 1e-9 * opt.abs().max(1.0);
    if t.exact && (cost - opt).abs() > tol {
        return Err(format!("exact solver returned {cost}, optimum is {opt}"));
    }
    if cost < opt - tol {
        return Err(format!("cost {cost} beats the optimum {opt}"));
    }
    if let Some(bound) = t.bound {
        if cost - opt > bound + tol {
            return Err(format!(
                "cost {cost} exceeds optimum {opt} by more than {bound}"
            ));
        }
    }
    Ok(if opt > 0.0 { cost / opt } else { 1.0 })
}

fn tally(samples: &[Sample], report: &mut Report) {
    report.attempted += samples.len() as u64;
    for s in samples {
        if let Err(e) = &s.outcome {
            report.fail(format!("template {}: {e}", s.template));
        }
    }
}

fn ok_latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| s.latency_ms)
        .collect()
}

/// Mean over templates of each template's mean cost ratio, so the op mix a
/// run happens to reach does not move it.
fn cost_ratio(plan: &Plan, samples: &[Sample]) -> f64 {
    let mut per = vec![(0.0, 0u32); plan.templates.len()];
    for s in samples {
        if let Ok(r) = s.outcome {
            per[s.template].0 += r;
            per[s.template].1 += 1;
        }
    }
    let means: Vec<f64> = per
        .iter()
        .filter(|p| p.1 > 0)
        .map(|p| p.0 / f64::from(p.1))
        .collect();
    mean(&means)
}

// ---------------------------------------------------------------------
// The serving stack and the closed loop
// ---------------------------------------------------------------------

struct Stack {
    clients: Vec<NetClient>,
    server: NetServer,
    gateway: Arc<Gateway>,
    data: Option<Arc<SpatialAssignment>>,
}

fn serve_config() -> ServeConfig {
    ServeConfig::default().workers(WORKERS)
}

/// Bulk-loads the dataset (if any), starts the gateway, binds, connects
/// every client and warms each connection (and the buffer) with one op.
fn start(plan: &Plan) -> Result<Stack, String> {
    let data = plan.dataset.then(|| {
        let inst = &plan.instances[0];
        let data = SpatialAssignment::build_with_storage(
            inst.providers.clone(),
            inst.customers.clone(),
            PAGE_SIZE,
            1.0,
        );
        data.tree().store().set_buffer_capacity(BUFFER_PAGES);
        data.tree().store().clear_cache();
        Arc::new(data)
    });
    let mut builder = Gateway::builder().serve_config(serve_config());
    if let Some(data) = &data {
        builder = builder.dataset(DATASET, Arc::clone(data));
    }
    let gateway = Arc::new(builder.start());
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&gateway)).map_err(|e| e.to_string())?;
    let mut clients = Vec::with_capacity(plan.clients);
    for c in 0..plan.clients {
        let mut client = NetClient::connect(server.local_addr(), TenantId(c as u32 + 1))
            .map_err(|e| e.to_string())?;
        let t = &plan.templates[c % plan.templates.len()];
        let reply = client
            .solve(t.request.clone())
            .map_err(|e| format!("warm-up: {e}"))?;
        check(plan, t, &reply.matching).map_err(|e| format!("warm-up: {e}"))?;
        clients.push(client);
    }
    Ok(Stack {
        clients,
        server,
        gateway,
        data,
    })
}

fn stop(stack: Stack) {
    drop(stack.clients);
    stack.server.shutdown();
    drop(stack.gateway);
}

/// Runs `op` in a closed loop on one thread per entry of `states` until
/// `seconds` have passed and at least `min_ops` ops have started (or a hard
/// cap of three times `seconds` plus 20 s). Op `n` of the loop gets `n` and
/// the loop's start. Returns each thread's state and outputs.
fn closed_loop<C: Send, S: Send>(
    states: Vec<C>,
    seconds: Duration,
    min_ops: usize,
    op: impl Fn(&mut C, u64, Instant) -> S + Sync,
) -> Vec<(C, Vec<S>)> {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let cap = seconds * 3 + Duration::from_secs(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (next, op) = (&next, &op);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        out.push(op(&mut state, n, start));
                        let elapsed = start.elapsed();
                        if (elapsed >= seconds && n as usize + 1 >= min_ops) || elapsed >= cap {
                            break;
                        }
                    }
                    (state, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    })
}

/// The wire loop: each client sends the next template's request and checks
/// the reply.
fn drive(clients: &mut [NetClient], plan: &Plan, seconds: Duration, min_ops: usize) -> Vec<Sample> {
    let states: Vec<&mut NetClient> = clients.iter_mut().collect();
    let per_thread = closed_loop(states, seconds, min_ops, |client, n, start| {
        let ti = n as usize % plan.templates.len();
        let t = &plan.templates[ti];
        let request = t.request.clone();
        let t0 = Instant::now();
        let reply = client.solve(request);
        let latency_ms = ms(t0.elapsed());
        let outcome = match reply {
            Ok(reply) => check(plan, t, &reply.matching),
            Err(e) => Err(e.to_string()),
        };
        Sample {
            template: ti,
            end_s: start.elapsed().as_secs_f64(),
            latency_ms,
            outcome,
        }
    });
    per_thread.into_iter().flat_map(|(_, out)| out).collect()
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// What a pipeline job hands back: the solver's outcome and when it ran.
struct JobOut {
    matching: Matching,
    stats: AlgoStats,
    aborted: Option<AbortReason>,
    start: Instant,
    end: Instant,
}

/// One op replayed through the in-process pipeline.
struct PipeSample {
    template: usize,
    total_ms: f64,
    request_bytes: usize,
    reply_bytes: usize,
    dispatch_ms: f64,
    handoff_ms: f64,
    stats: AlgoStats,
    rejected: bool,
    outcome: Result<f64, String>,
}

/// Runs `solver` on `problem` inside a job, noting when it ran.
fn run_job(solver: &dyn Solver, problem: &Problem<'_>) -> JobOut {
    let start = Instant::now();
    let outcome = solver.run(problem);
    let end = Instant::now();
    let aborted = outcome.abort_reason();
    let (matching, stats) = outcome.into_parts();
    JobOut {
        matching,
        stats,
        aborted,
        start,
        end,
    }
}

struct Pipeline<'a> {
    plan: &'a Plan,
    instance: ServingInstance<JobOut>,
    registry: SolverRegistry,
    data: Option<Arc<SpatialAssignment>>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Pipeline<'_> {
    /// The calls `Gateway::handle` makes for one solve, plus the client's
    /// encode and decode. With a recorder, each call gets a span.
    fn op(&self, ti: usize, op: u64, tenant: TenantId, rec: Option<&mut Recorder>) -> PipeSample {
        let t = &self.plan.templates[ti];
        let message = NetRequest::Solve(t.request.clone());
        let mut sample = PipeSample {
            template: ti,
            total_ms: 0.0,
            request_bytes: 0,
            reply_bytes: 0,
            dispatch_ms: 0.0,
            handoff_ms: 0.0,
            stats: AlgoStats::default(),
            rejected: false,
            outcome: Err("not run".into()),
        };

        let t0 = Instant::now();
        let request_bytes = codec::encode(&message);
        let t1 = Instant::now();
        let decoded: Result<NetRequest, _> = codec::decode(&request_bytes);
        let t2 = Instant::now();
        sample.request_bytes = request_bytes.len();
        let req = match decoded {
            Ok(NetRequest::Solve(req)) => req,
            Ok(_) => {
                sample.outcome = Err("request decoded to a non-solve".into());
                return sample;
            }
            Err(e) => {
                sample.outcome = Err(format!("request decode: {e}"));
                return sample;
            }
        };
        // Gateway validation: the solver must be registered.
        let solver = match self.registry.build(&req.config) {
            Ok(s) => s,
            Err(e) => {
                sample.outcome = Err(e.to_string());
                return sample;
            }
        };
        let ctx = QueryContext::new()
            .with_tenant(tenant)
            .with_priority(req.priority);
        let work: Box<dyn FnOnce(&QueryContext) -> JobOut + Send> = match req.problem {
            ProblemSpec::Dataset(_) => {
                let data = Arc::clone(self.data.as_ref().expect("dataset workload"));
                Box::new(move |ctx: &QueryContext| {
                    run_job(&*solver, &data.problem().with_context(ctx))
                })
            }
            ProblemSpec::Inline {
                providers,
                customers,
            } => Box::new(move |ctx: &QueryContext| {
                let problem = Problem::new(&providers).with_customers(&customers);
                run_job(&*solver, &problem.with_context(ctx))
            }),
        };
        let t3 = Instant::now();
        let ticket = match self.instance.submit(Request::new(work).context(ctx)) {
            Ok(ticket) => ticket,
            Err(rejected) => {
                sample.rejected = true;
                sample.outcome = Err(rejected.to_string());
                return sample;
            }
        };
        let job = ticket.wait();
        let t4 = Instant::now();
        sample.dispatch_ms = ms(job.start.saturating_duration_since(t3));
        sample.handoff_ms = ms(t4.saturating_duration_since(job.end));
        sample.stats = job.stats;
        if let Some(reason) = job.aborted {
            sample.outcome = Err(format!("aborted: {reason}"));
            return sample;
        }
        let (job_start, job_end) = (job.start, job.end);
        let reply = NetResponse::Solved(SolveReply {
            matching: job.matching,
            stats: job.stats,
        });
        let t5 = Instant::now();
        let reply_bytes = codec::encode(&reply);
        let t6 = Instant::now();
        let back: Result<NetResponse, _> = codec::decode(&reply_bytes);
        let t7 = Instant::now();
        sample.reply_bytes = reply_bytes.len();
        sample.total_ms = ms(t7 - t0);
        sample.outcome = match back {
            Ok(NetResponse::Solved(reply)) => check(self.plan, t, &reply.matching),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(format!("reply decode: {e}")),
        };
        if let Some(rec) = rec {
            rec.record(op, 1, None, "op", t0, t7);
            rec.record(op, 2, Some(1), "net.encode.request", t0, t1);
            rec.record(op, 3, Some(1), "net.decode.request", t1, t2);
            rec.record(op, 4, Some(1), "serve", t3, t4);
            rec.record(op, 5, Some(4), "core.solve", job_start, job_end);
            rec.record(op, 6, Some(1), "net.encode.reply", t5, t6);
            rec.record(op, 7, Some(1), "net.decode.reply", t6, t7);
        }
        sample
    }

    /// The closed loop of [`drive`], through the pipeline instead of TCP.
    /// With an epoch, every op's spans are recorded against it.
    fn drive(
        &self,
        seconds: Duration,
        min_ops: usize,
        epoch: Option<Instant>,
    ) -> (Vec<PipeSample>, Vec<trace::Span>) {
        let states: Vec<(TenantId, Option<Recorder>)> = (0..self.plan.clients)
            .map(|c| (TenantId(c as u32 + 1), epoch.map(Recorder::new)))
            .collect();
        let per_thread = closed_loop(states, seconds, min_ops, |(tenant, rec), n, _| {
            let ti = n as usize % self.plan.templates.len();
            self.op(ti, n, *tenant, rec.as_mut())
        });
        let mut samples = Vec::new();
        let mut spans = Vec::new();
        for ((_, rec), out) in per_thread {
            samples.extend(out);
            spans.extend(rec.map_or_else(Vec::new, Recorder::into_spans));
        }
        (samples, spans)
    }
}

/// Per-op flow measurements: `solve_complete_bipartite` on an op's own
/// instance, outside the pipeline.
struct FlowSample {
    ms: f64,
    stats: SspaStats,
}

fn traced(plan: &Plan, mut stack: Stack, cfg: &Config, min_ops: usize, report: &mut Report) {
    let phase = cfg.seconds / 3;

    // 1. The untraced wire loop, for the transport remainder.
    let wire = drive(&mut stack.clients, plan, phase, min_ops);
    let data = stack.data.clone();
    stop(stack);
    tally(&wire, report);
    let wire_p50 = median(&ok_latencies(&wire));

    // 2. The pipeline, traced and then untraced.
    let pipeline = Pipeline {
        plan,
        instance: ServingInstance::start(serve_config()),
        registry: SolverRegistry::with_defaults(),
        data: data.clone(),
    };
    let locks_before = data.as_ref().map(|d| d.tree().store().lock_acquisitions());
    let (samples, spans) = pipeline.drive(phase, min_ops, Some(Instant::now()));
    let locks = match (&data, locks_before) {
        (Some(d), Some(before)) => d.tree().store().lock_acquisitions() - before,
        _ => 0,
    };
    let (plain, _) = pipeline.drive(phase, min_ops, None);
    for s in samples.iter().chain(&plain) {
        report.attempted += 1;
        if let Err(e) = &s.outcome {
            report.fail(format!("pipeline template {}: {e}", s.template));
        }
    }
    let ops = samples.len().max(1) as f64;
    let per_op = |f: &dyn Fn(&PipeSample) -> f64| samples.iter().map(f).sum::<f64>() / ops;

    let totals: Vec<f64> = samples.iter().map(|s| s.total_ms).collect();
    let plain_totals: Vec<f64> = plain.iter().map(|s| s.total_ms).collect();
    let pipeline_p50 = median(&totals);

    // Self times per layer from the spans.
    let by_name = trace::self_time_by_name(&spans);
    let layer_ms = |prefix: &str| {
        by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum::<f64>()
            / ops
    };

    report.metric(
        "net.request_bytes",
        per_op(&|s| s.request_bytes as f64),
        "bytes",
    );
    report.metric(
        "net.reply_bytes",
        per_op(&|s| s.reply_bytes as f64),
        "bytes",
    );
    let over = samples
        .iter()
        .map(|s| {
            usize::from(s.request_bytes + 4 > FRAME_SPLIT)
                + usize::from(s.reply_bytes + 4 > FRAME_SPLIT)
        })
        .sum::<usize>();
    report.metric(
        "net.frames_over_8k_share",
        over as f64 / (2.0 * ops),
        "ratio",
    );
    report.metric("net.encode_ms", layer_ms("net.encode"), "ms");
    report.metric("net.decode_ms", layer_ms("net.decode"), "ms");
    report.metric("net.transport_ms", wire_p50 - pipeline_p50, "ms");
    report.metric("serve.dispatch_ms", per_op(&|s| s.dispatch_ms), "ms");
    report.metric("serve.handoff_ms", per_op(&|s| s.handoff_ms), "ms");
    let rejected = samples.iter().chain(&plain).filter(|s| s.rejected).count();
    report.metric("serve.rejected", rejected as f64, "count");
    report.metric("core.solve_ms", layer_ms("core.solve"), "ms");
    report.metric("core.cpu_ms", per_op(&|s| ms(s.stats.cpu_time)), "ms");
    report.metric(
        "core.esub_edges",
        per_op(&|s| s.stats.esub_edges as f64),
        "count",
    );
    report.metric(
        "core.dijkstra_runs",
        per_op(&|s| s.stats.dijkstra_runs as f64),
        "count",
    );
    let iterations: u64 = samples.iter().map(|s| s.stats.iterations).sum();
    let invalid: u64 = samples.iter().map(|s| s.stats.invalid_paths).sum();
    report.metric(
        "core.valid_path_ratio",
        iterations as f64 / (iterations + invalid).max(1) as f64,
        "ratio",
    );
    let hits: u64 = samples.iter().map(|s| s.stats.io.hits).sum();
    let faults: u64 = samples.iter().map(|s| s.stats.io.faults).sum();
    report.metric(
        "rtree.page_reads_per_op",
        (hits + faults) as f64 / ops,
        "count",
    );
    report.metric(
        "storage.hit_ratio",
        hits as f64 / (hits + faults).max(1) as f64,
        "ratio",
    );
    report.metric("storage.faults_per_op", faults as f64 / ops, "count");
    report.metric("storage.lock_acqs_per_op", locks as f64 / ops, "count");
    report.metric(
        "trace.overhead_ms",
        pipeline_p50 - median(&plain_totals),
        "ms",
    );
    report.metric("trace.span_coverage", trace::coverage(&spans), "ratio");
    report.metric("trace.pipeline_p50_ms", pipeline_p50, "ms");
    report.metric("trace.wire_p50_ms", wire_p50, "ms");
    report.note(format!(
        "wire ops: {}, traced pipeline ops: {}, untraced pipeline ops: {}, spans: {}",
        wire.len(),
        samples.len(),
        plain.len(),
        spans.len()
    ));

    // 3. Flow beside the pipeline: SSPA on each op's own inline instance.
    if !plan.dataset {
        flow_phase(plan, &samples, report);
    }

    crate::write_spans(cfg, &spans, report);
}

fn flow_phase(plan: &Plan, samples: &[PipeSample], report: &mut Report) {
    let mut cache: Vec<Option<FlowSample>> = (0..plan.instances.len()).map(|_| None).collect();
    let mut per_op = Vec::with_capacity(samples.len());
    for s in samples {
        let i = plan.templates[s.template].instance;
        if cache[i].is_none() {
            let inst = &plan.instances[i];
            let (fps, fcs) = flow_instance(&inst.providers, &inst.customers);
            let t0 = Instant::now();
            let (_, stats) = solve_complete_bipartite(&fps, &fcs);
            cache[i] = Some(FlowSample {
                ms: ms(t0.elapsed()),
                stats,
            });
        }
        per_op.push(i);
    }
    let ops = per_op.len().max(1) as f64;
    let sum = |f: &dyn Fn(&FlowSample) -> f64| {
        per_op
            .iter()
            .map(|&i| f(cache[i].as_ref().expect("filled above")))
            .sum::<f64>()
    };
    report.metric("flow.sspa_ms", sum(&|f| f.ms) / ops, "ms");
    report.metric(
        "flow.settle_ms",
        sum(&|f| f.stats.settle_ns as f64 / 1e6) / ops,
        "ms",
    );
    report.metric(
        "flow.augment_ms",
        sum(&|f| f.stats.augment_ns as f64 / 1e6) / ops,
        "ms",
    );
    report.metric(
        "flow.settled",
        sum(&|f| f.stats.settled as f64) / ops,
        "count",
    );
    report.metric(
        "flow.pushes_per_pop",
        sum(&|f| f.stats.heap_pushes as f64) / sum(&|f| f.stats.heap_pops as f64).max(1.0),
        "ratio",
    );
    report.metric(
        "flow.radix_fallbacks",
        sum(&|f| f.stats.radix_fallbacks as f64) / ops,
        "count",
    );
}
