//! `live_gateway`: an open loop through the sharded gateway at three fixed
//! offered rates. The only workload that runs the executor, the live
//! platform, the gateway and telemetry recording.

use crate::util::{self, median, quantile_sorted, ratio, Metrics, Spans, Verdict, LEVELS};
use crate::Args;
use bytes::Bytes;
use faasbatch_container::ids::InvocationId;
use faasbatch_container::spec::ColdStartModel;
use faasbatch_core::platform::{InvokeOutcome, InvokeTicket};
use faasbatch_core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch_exec::{Executor, ExecutorConfig};
use faasbatch_gateway::Gateway;
use faasbatch_metrics::telemetry::MetricRegistry;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::{SimDuration, SimTime};
use faasbatch_storage::client::{ClientConfig, CreationCost};
use faasbatch_storage::cost::ClientCostModel;
use faasbatch_storage::object_store::ObjectStore;
use faasbatch_trace::function::{FunctionKind, FunctionRegistry};
use faasbatch_trace::workload::{Invocation, Workload};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rates of the `low`, `mid` and `high` steps, requests per second.
pub const RATES: [f64; 3] = [500.0, 1_250.0, 2_000.0];
/// Target length of one measured window at one rate, seconds.
const WINDOW_S: f64 = 2.0;
/// p99 limit a step must meet to count towards `max_rate_per_s`.
pub const LIMIT_MS: f64 = 100.0;
/// Generator lag bound: a window whose p99 send lag exceeds it is invalid.
pub const LAG_BOUND_MS: f64 = 10.0;
const FUNCTIONS: usize = 16;
/// Every fourth function reads an object through the multiplexer.
const IO_EVERY: usize = 4;
const WINDOW: Duration = Duration::from_millis(50);
const COLD_START: Duration = Duration::from_millis(50);
const KEEP_ALIVE: Duration = Duration::from_secs(1);
const WORKERS: usize = 2;
const SHARDS: usize = 2;
/// Warm-up at the `mid` rate before each set-up completes.
const WARM_UP: Duration = Duration::from_millis(600);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const OBJECT_BYTES: usize = 4 << 10;
/// Attempts at a valid untraced `high` step in a traced run.
const TRACED_TRIES: usize = 3;

/// One generated function: its CPU spin and whether it does I/O.
#[derive(Debug, Clone)]
struct Function {
    name: String,
    spin: Duration,
    io: bool,
}

/// The generated input: functions and their Zipf popularity.
#[derive(Debug, Clone)]
struct Input {
    functions: Vec<Function>,
    weights: Vec<f64>,
}

/// The deployed functions are fixed; the seed drives the traffic. Spins
/// rise from 200 µs with popularity rank, so the CPU cost of a request
/// does not hinge on which body the seed made most popular.
fn input() -> Input {
    let functions = (0..FUNCTIONS)
        .map(|i| Function {
            name: format!("fn-{i}"),
            spin: Duration::from_micros(200 + 20 * i as u64),
            io: i % IO_EVERY == IO_EVERY - 1,
        })
        .collect();
    let weights = (1..=FUNCTIONS).map(|k| 1.0 / k as f64).collect();
    Input { functions, weights }
}

/// A step's send schedule: `(due offset, function index)`, Poisson
/// arrivals at `rate` for `seconds`.
fn schedule(
    seed: u64,
    label: &str,
    input: &Input,
    rate: f64,
    seconds: f64,
) -> Vec<(Duration, usize)> {
    let mut rng = DetRng::new(seed).fork(label);
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    loop {
        at += rng.exponential(1.0 / rate);
        if at >= seconds {
            return out;
        }
        out.push((
            Duration::from_secs_f64(at),
            rng.weighted_index(&input.weights),
        ));
    }
}

fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

struct Live {
    gateway: Gateway,
    executor: Arc<Executor>,
    registry: MetricRegistry,
}

fn start_live(input: &Input, seed: u64) -> Result<Live, String> {
    let executor = Executor::new(ExecutorConfig {
        workers: util::nproc(),
        seed,
        ..ExecutorConfig::default()
    });
    let store = ObjectStore::new();
    let registry = MetricRegistry::new();
    let mut builder = Gateway::builder()
        .workers(WORKERS)
        .shards(SHARDS)
        .window(WINDOW)
        .cold_start_delay(COLD_START)
        .keep_alive(KEEP_ALIVE)
        .executor(Arc::clone(&executor))
        .telemetry(&registry)
        .store(store.clone());
    for f in &input.functions {
        let spin_for = f.spin;
        if f.io {
            let bucket = format!("bucket-{}", f.name);
            store
                .create_bucket(&bucket)
                .map_err(|e| format!("cannot create {bucket}: {e}"))?;
            store
                .put(&bucket, "object", Bytes::from(vec![7u8; OBJECT_BYTES]))
                .map_err(|e| format!("cannot fill {bucket}: {e}"))?;
            let config = ClientConfig::for_bucket(&bucket);
            builder = builder.register(&f.name, move |env| {
                let client = env.container.storage_client(&config);
                let object = client.get("object").expect("the object was stored");
                assert_eq!(object.len(), OBJECT_BYTES, "object read back whole");
                spin(spin_for);
            });
        } else {
            builder = builder.register(&f.name, move |_env| spin(spin_for));
        }
    }
    Ok(Live {
        gateway: builder.start(),
        executor,
        registry,
    })
}

/// One request as the collector saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due: Instant,
    call: Instant,
    ret: Instant,
}

/// Everything one step measured.
#[derive(Debug, Default)]
struct Step {
    attempted: u64,
    rejected: u64,
    completed: u64,
    panicked: u64,
    cold: u64,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    invoke_us: Vec<f64>,
    queued_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    start: Option<Instant>,
    last_done: Option<Instant>,
    cpu_s: f64,
    spans: Option<Spans>,
}

impl Step {
    fn seconds(&self) -> f64 {
        match (self.start, self.last_done) {
            (Some(s), Some(e)) => e.duration_since(s).as_secs_f64(),
            _ => 0.0,
        }
    }

    fn p99_ms(&self) -> f64 {
        sorted_q(&self.latency_ms, 0.99)
    }

    fn lag_p99_ms(&self) -> f64 {
        sorted_q(&self.lag_ms, 0.99)
    }

    /// A window whose generator ran late measures the generator, not the
    /// system: it is left out of the reported figures.
    fn valid(&self) -> bool {
        self.lag_p99_ms() <= LAG_BOUND_MS
    }
}

fn sorted_q(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Runs one open-loop step: this thread sends on the schedule while a
/// collector thread waits for the tickets.
fn step(
    live: &Live,
    input: &Input,
    plan: &[(Duration, usize)],
    spans: Option<(Instant, u64)>,
) -> Result<Step, String> {
    let (tx, rx) = mpsc::channel::<(Sent, Result<InvokeTicket, String>)>();
    let cpu_before = util::process_cpu_s()?;
    let begin = Instant::now();
    let collector = std::thread::spawn(move || {
        let mut out = Step {
            spans: spans.map(|(origin, _)| Spans::new(origin)),
            ..Step::default()
        };
        let trace_base = spans.map_or(0, |(_, base)| base);
        for (seq, (sent, ticket)) in rx.into_iter().enumerate() {
            out.attempted += 1;
            out.lag_ms
                .push(sent.call.duration_since(sent.due).as_secs_f64() * 1e3);
            out.invoke_us
                .push(sent.ret.duration_since(sent.call).as_secs_f64() * 1e6);
            let Ok(ticket) = ticket else {
                out.rejected += 1;
                continue;
            };
            let o: InvokeOutcome = ticket.wait();
            out.completed += 1;
            out.panicked += u64::from(o.panicked);
            out.cold += u64::from(o.cold || o.restored);
            let done = sent.call + o.total();
            out.latency_ms
                .push(done.duration_since(sent.due).as_secs_f64() * 1e3);
            out.queued_ms.push(o.queued.as_secs_f64() * 1e3);
            out.exec_ms.push(o.execution.as_secs_f64() * 1e3);
            out.last_done = Some(out.last_done.map_or(done, |d| d.max(done)));
            if let Some(spans) = out.spans.as_mut() {
                // Children tile the request: generator lag, the invoke
                // call, waiting for window and container, the handler.
                let trace = trace_base + seq as u64;
                let queued = (sent.call + o.queued).max(sent.ret);
                let root = spans.record("loadgen.request", trace, None, sent.due, done);
                spans.record("loadgen.lag", trace, Some(root), sent.due, sent.call);
                spans.record("gateway.invoke", trace, Some(root), sent.call, sent.ret);
                spans.record("core.queued", trace, Some(root), sent.ret, queued);
                spans.record("core.exec", trace, Some(root), queued, done);
            }
        }
        out
    });
    for &(offset, f) in plan {
        let due = begin + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let call = Instant::now();
        let ticket = live
            .gateway
            .invoke(&input.functions[f].name, Bytes::new())
            .map_err(|e| e.to_string());
        let ret = Instant::now();
        tx.send((Sent { due, call, ret }, ticket))
            .map_err(|_| "the collector thread stopped early".to_owned())?;
    }
    drop(tx);
    let mut out = collector
        .join()
        .map_err(|_| "the collector thread panicked".to_owned())?;
    out.cpu_s = util::process_cpu_s()? - cpu_before;
    out.start = Some(begin);
    Ok(out)
}

/// Starts the gateway and warms it up at the `mid` rate.
fn set_up(input: &Input, seed: u64) -> Result<(Live, f64, u64), String> {
    let start = Instant::now();
    let live = start_live(input, seed)?;
    let warm = schedule(seed, "warm-up", input, RATES[1], WARM_UP.as_secs_f64());
    let s = step(&live, input, &warm, None)?;
    live.gateway.drain().map_err(|e| e.to_string())?;
    Ok((live, start.elapsed().as_secs_f64(), s.completed))
}

/// Set-up repeated; the last gateway is kept for measuring.
fn set_up_median(input: &Input, seed: u64) -> Result<(Live, f64, u64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = kept.take() {
            stop(old);
        }
        let (live, t, warm_completed) = set_up(input, seed)?;
        times.push(t);
        kept = Some((live, warm_completed));
    }
    let (live, warm_completed) = kept.expect("at least one set-up");
    Ok((live, median(&times), warm_completed))
}

fn stop(live: Live) {
    let Live {
        gateway, executor, ..
    } = live;
    drop(gateway);
    executor.shutdown();
}

fn check_step(verdict: &mut Verdict, name: &str, s: &Step) {
    verdict.attempted += s.attempted;
    let failed = s.rejected + s.panicked + (s.attempted - s.rejected - s.completed);
    verdict.failed += failed;
    verdict.check(s.completed + s.rejected == s.attempted, || {
        format!(
            "{name}: {} completed + {} rejected != {} attempted",
            s.completed, s.rejected, s.attempted
        )
    });
    verdict.check(s.panicked == 0, || {
        format!("{name}: {} handlers panicked", s.panicked)
    });
}

/// Conservation across layers, over everything sent since start.
fn check_totals(verdict: &mut Verdict, live: &Live, completed: u64) {
    let snapshot = live.gateway.stats();
    verdict.check(snapshot.in_flight == 0, || {
        format!("drain left {} invocations in flight", snapshot.in_flight)
    });
    let routed: u64 = snapshot.shards.iter().map(|s| s.routed_groups).sum();
    let admitted: u64 = snapshot.shards.iter().map(|s| s.admitted).sum();
    let workers = live.gateway.worker_stats();
    let batches: u64 = workers.iter().map(|w| load(&w.batches)).sum();
    let invocations: u64 = workers.iter().map(|w| load(&w.invocations)).sum();
    verdict.check(batches == routed, || {
        format!("worker batches sum to {batches}, the gateway routed {routed} groups")
    });
    verdict.check(admitted == completed, || {
        format!("shards admitted {admitted} jobs, {completed} completed")
    });
    verdict.check(invocations == completed, || {
        format!("workers ran {invocations} invocations, {completed} completed")
    });
}

fn load(a: &std::sync::atomic::AtomicU64) -> u64 {
    a.load(std::sync::atomic::Ordering::Relaxed)
}

fn sim_duration(d: Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// The simulator's FaaSBatch replay of the same generated requests.
fn sim_twin(
    input: &Input,
    plans: &[Vec<(Duration, usize)>],
) -> faasbatch_metrics::report::RunReport {
    let mut registry = FunctionRegistry::new();
    let ids: Vec<_> = input
        .functions
        .iter()
        .map(|f| {
            let kind = if f.io {
                FunctionKind::Io {
                    bucket: format!("bucket-{}", f.name),
                    ops: 1,
                }
            } else {
                FunctionKind::Cpu { fib_n: 20 }
            };
            registry.register(&f.name, kind)
        })
        .collect();
    let mut invocations = Vec::new();
    let mut origin = Duration::ZERO;
    for plan in plans {
        for &(offset, f) in plan {
            invocations.push(Invocation {
                id: InvocationId::new(invocations.len() as u64),
                function: ids[f],
                arrival: SimTime::ZERO + sim_duration(origin + offset),
                work: sim_duration(input.functions[f].spin),
            });
        }
        origin += plan.last().map_or(Duration::ZERO, |p| p.0) + Duration::from_millis(1);
    }
    let w = Workload::from_sorted(registry, invocations);
    // The live platform's costs: a 50 ms cold start that is all delay, no
    // container-daemon launch work to speak of, the live storage SDK's
    // client creation, this host's cores.
    let cfg = SimConfig {
        cores: util::nproc() as f64,
        cold_start: ColdStartModel::new(sim_duration(COLD_START), SimDuration::from_millis(1)),
        keep_alive: sim_duration(KEEP_ALIVE),
        daemon_cores: 1.0,
        container_launch_work: SimDuration::from_millis(1),
        warm_dispatch_work: SimDuration::from_micros(50),
        client_cost: ClientCostModel {
            base_work: sim_duration(CreationCost::default().base_cpu),
            memory_per_client: CreationCost::default().ballast_bytes as u64,
            op_latency: SimDuration::from_micros(10),
            ..ClientCostModel::default()
        },
        ..SimConfig::default()
    };
    run_faasbatch(
        &w,
        cfg,
        FaasBatchConfig::with_window(sim_duration(WINDOW)),
        "live-twin",
    )
}

/// End-to-end run: set-up, then the three rate steps.
pub fn run(
    args: &Args,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
    host: &mut Vec<String>,
) -> Result<(), String> {
    let input = input();
    let (live, setup_s, warm_completed) = set_up_median(&input, args.seed)?;
    metrics.set("setup_s", setup_s);
    host.push(format!("executor_workers={}", live.executor.workers()));

    // Rates cycle low, mid, high in windows of WINDOW_S, so a stall of the
    // shared host lands in one window of one level; each level reports the
    // median over its windows.
    let cycles = ((args.seconds / (RATES.len() as f64 * WINDOW_S)).floor() as usize).max(1);
    let window_s = args.seconds / (cycles * RATES.len()) as f64;
    let mut plans = Vec::new();
    let mut windows: [Vec<Step>; 3] = Default::default();
    for cycle in 0..cycles {
        for (level, (&rate, name)) in RATES.iter().zip(LEVELS).enumerate() {
            let plan = schedule(
                args.seed,
                &format!("{name}-{cycle}"),
                &input,
                rate,
                window_s,
            );
            let s = step(&live, &input, &plan, None)?;
            check_step(verdict, name, &s);
            plans.push(plan);
            windows[level].push(s);
        }
    }
    // A window whose generator ran late is left out of the figures. While a
    // level has fewer valid windows than half its planned ones, it gets one
    // more window, up to twice as many again as were planned: CPU steal on
    // the shared host reaches 10–25% for minutes at a time, and a short
    // stretch of it should cost run time, not the run. The extra windows
    // count towards the latency figures and `max_rate_per_s`, not towards
    // throughput, CPU time or the simulated replay.
    let needed = cycles.div_ceil(2);
    let valid_count = |w: &[Step]| w.iter().filter(|s| s.valid()).count();
    for extra in 0..2 * cycles {
        let short: Vec<usize> = (0..RATES.len())
            .filter(|&l| valid_count(&windows[l]) < needed)
            .collect();
        if short.is_empty() {
            break;
        }
        for level in short {
            let name = LEVELS[level];
            let plan = schedule(
                args.seed,
                &format!("{name}-extra-{extra}"),
                &input,
                RATES[level],
                window_s,
            );
            let s = step(&live, &input, &plan, None)?;
            check_step(verdict, name, &s);
            windows[level].push(s);
        }
    }
    live.gateway.drain().map_err(|e| e.to_string())?;
    let all = || windows.iter().flatten();
    let planned = || windows.iter().flat_map(|w| &w[..cycles]);
    let completed: u64 = warm_completed + all().map(|s| s.completed).sum::<u64>();
    check_totals(verdict, &live, completed);
    let lag: Vec<f64> = all().flat_map(|s| s.lag_ms.iter().copied()).collect();
    host.push(format!(
        "loadgen: lag p99 {:.3} ms, max {:.3} ms",
        sorted_q(&lag, 0.99),
        sorted_q(&lag, 1.0)
    ));

    let mut max_rate = 0.0;
    for (level, name) in windows.iter().zip(LEVELS) {
        let valid: Vec<&Step> = level.iter().filter(|s| s.valid()).collect();
        host.push(format!(
            "{name}: {} of {} windows valid (generator lag p99 <= {LAG_BOUND_MS} ms)",
            valid.len(),
            level.len()
        ));
        verdict.check(valid.len() >= needed, || {
            format!("{name}: the generator ran late in most windows")
        });
        if valid.is_empty() {
            continue;
        }
        let per =
            |f: &dyn Fn(&Step) -> f64| median(&valid.iter().map(|s| f(s)).collect::<Vec<_>>());
        let p99 = per(&|s| s.p99_ms());
        metrics.set(
            format!("p50_ms.{name}"),
            per(&|s| sorted_q(&s.latency_ms, 0.50)),
        );
        metrics.set(format!("p99_ms.{name}"), p99);
        let kept_up = level
            .iter()
            .all(|s| s.completed == s.attempted && s.seconds() <= window_s + LIMIT_MS / 1e3);
        if p99 <= LIMIT_MS && kept_up {
            max_rate = per(&|s| s.completed as f64 / s.seconds());
        }
    }
    metrics.set("max_rate_per_s", max_rate);
    let jobs: u64 = planned().map(|s| s.completed).sum();
    let busy: f64 = planned().map(Step::seconds).sum();
    let cpu: f64 = planned().map(|s| s.cpu_s).sum();
    metrics.set("inv_per_s", jobs as f64 / busy);
    metrics.set("cpu_us_per_job", cpu / jobs as f64 * 1e6);

    let twin = sim_twin(&input, &plans);
    let e2e = twin.end_to_end_cdf();
    metrics.set("sim_p50_ms", e2e.quantile(0.50).as_micros() as f64 / 1e3);
    metrics.set("sim_p99_ms", e2e.quantile(0.99).as_micros() as f64 / 1e3);
    metrics.set("sim_containers", twin.provisioned_containers as f64);
    stop(live);
    Ok(())
}

/// Per-layer counters sampled around the `high` step.
struct Counters {
    polls: u64,
    steals: u64,
    parks: u64,
    shed: u64,
    timers: u64,
    batches: u64,
    invocations: u64,
    created: u64,
    evicted: u64,
    clients: u64,
    rejected: u64,
    routed: u64,
    admitted: Vec<u64>,
}

fn counters(live: &Live) -> Counters {
    let m = live.executor.metrics();
    let workers = live.gateway.worker_stats();
    let sum = |f: fn(&faasbatch_core::platform::PlatformStats) -> u64| -> u64 {
        workers.iter().map(|w| f(w)).sum()
    };
    let snapshot = live.gateway.stats();
    Counters {
        polls: m.executed_per_worker.iter().sum(),
        steals: m.total_steals(),
        parks: m.parked_per_worker.iter().sum(),
        shed: m.shed_total,
        timers: m.timer_scheduled_total,
        batches: sum(|w| load(&w.batches)),
        invocations: sum(|w| load(&w.invocations)),
        created: sum(|w| load(&w.containers_created)),
        evicted: sum(|w| load(&w.containers_evicted)),
        clients: sum(|w| load(&w.clients_created)),
        rejected: snapshot.shards.iter().map(|s| s.rejected).sum(),
        routed: snapshot.shards.iter().map(|s| s.routed_groups).sum(),
        admitted: snapshot.shards.iter().map(|s| s.admitted).collect(),
    }
}

/// Queue depths and in-flight peaks polled while a step runs.
#[derive(Debug, Default, Clone, Copy)]
struct Peaks {
    queue: usize,
    injector: usize,
    gateway_in_flight: usize,
}

/// Runs `f` while a sampler thread polls the executor and gateway.
fn sampled<T>(live: &Live, f: impl FnOnce() -> T) -> (T, Peaks) {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peaks = Peaks::default();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let m = live.executor.metrics();
                peaks.queue = peaks
                    .queue
                    .max(m.queue_depths.iter().copied().max().unwrap_or(0));
                peaks.injector = peaks.injector.max(m.injector_depth);
                peaks.gateway_in_flight = peaks.gateway_in_flight.max(live.gateway.in_flight());
                std::thread::sleep(Duration::from_millis(2));
            }
            peaks
        });
        let out = f();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (out, sampler.join().expect("the sampler does not panic"))
    })
}

/// Traced run: the `high` step untraced and traced in pairs; the first
/// untraced one gives the per-layer numbers.
pub fn run_traced(
    args: &Args,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
    spans: &mut Spans,
    host: &mut Vec<String>,
) -> Result<(), String> {
    let input = input();
    let (live, _, warm_completed) = set_up_median(&input, args.seed)?;
    host.push(format!("executor_workers={}", live.executor.workers()));
    let step_s = args.seconds / 2.0;
    let plan = schedule(args.seed, "high", &input, RATES[2], step_s);

    let mut earlier = 0u64;
    let mut tries = 0;
    let (plain, peaks, before, after, exec_peak) = loop {
        live.executor.reset_peak_in_flight();
        let before = counters(&live);
        let (plain, peaks) = sampled(&live, || step(&live, &input, &plan, None));
        let plain = plain?;
        live.gateway.drain().map_err(|e| e.to_string())?;
        let after = counters(&live);
        let exec_peak = live.executor.metrics().peak_in_flight;
        check_step(verdict, "high", &plain);
        if plain.valid() || tries + 1 == TRACED_TRIES {
            break (plain, peaks, before, after, exec_peak);
        }
        host.push(format!(
            "high: invalid step, generator lag p99 {:.3} ms; repeated",
            plain.lag_p99_ms()
        ));
        earlier += plain.completed;
        tries += 1;
    };
    verdict.check(plain.valid(), || {
        format!("high: the generator ran late in {TRACED_TRIES} tries")
    });
    let traced = step(&live, &input, &plan, Some((args.origin, 0)))?;
    live.gateway.drain().map_err(|e| e.to_string())?;
    check_step(verdict, "high.traced", &traced);
    check_totals(
        verdict,
        &live,
        warm_completed + earlier + plain.completed + traced.completed,
    );
    for s in [&plain, &traced] {
        host.push(format!(
            "loadgen.high: lag p99 {:.3} ms, max {:.3} ms",
            s.lag_p99_ms(),
            sorted_q(&s.lag_ms, 1.0)
        ));
    }
    let mut traced = traced;
    if let Some(s) = traced.spans.take() {
        spans.absorb(s);
    }
    let cpu_per_job = |s: &Step| s.cpu_s / s.completed.max(1) as f64;
    metrics.set(
        "metrics.trace_overhead",
        cpu_per_job(&traced) / cpu_per_job(&plain),
    );

    let d = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    metrics.set("exec.polls", d(|c| c.polls));
    metrics.set("exec.steals", d(|c| c.steals));
    metrics.set("exec.steal_ratio", ratio(d(|c| c.steals), d(|c| c.polls)));
    metrics.set("exec.parks", d(|c| c.parks));
    metrics.set("exec.shed", d(|c| c.shed));
    metrics.set("exec.peak_in_flight", exec_peak as f64);
    metrics.set("exec.timers_scheduled", d(|c| c.timers));
    metrics.set("exec.max_queue_depth", peaks.queue as f64);
    metrics.set("exec.max_injector_depth", peaks.injector as f64);

    metrics.set("core.batches", d(|c| c.batches));
    metrics.set(
        "core.batch_size",
        ratio(d(|c| c.invocations), d(|c| c.batches)),
    );
    metrics.set("core.containers_created", d(|c| c.created));
    metrics.set("core.containers_evicted", d(|c| c.evicted));
    metrics.set(
        "core.cold_share",
        ratio(plain.cold as f64, plain.completed as f64),
    );
    metrics.set("core.queued_p50_ms", sorted_q(&plain.queued_ms, 0.50));
    metrics.set("core.queued_p99_ms", sorted_q(&plain.queued_ms, 0.99));
    metrics.set("core.exec_p50_ms", sorted_q(&plain.exec_ms, 0.50));
    metrics.set("core.exec_p99_ms", sorted_q(&plain.exec_ms, 0.99));
    metrics.set("core.clients_created", d(|c| c.clients));

    let admitted: Vec<f64> = after
        .admitted
        .iter()
        .zip(&before.admitted)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let admitted_sum: f64 = admitted.iter().sum();
    verdict.check(admitted_sum == plain.completed as f64, || {
        format!(
            "shards admitted {admitted_sum} jobs in the step, {} completed",
            plain.completed
        )
    });
    verdict.check(d(|c| c.batches) == d(|c| c.routed), || {
        "worker batches and routed groups of the step differ".to_owned()
    });
    metrics.set("gateway.invoke_p50_us", sorted_q(&plain.invoke_us, 0.50));
    metrics.set("gateway.invoke_p99_us", sorted_q(&plain.invoke_us, 0.99));
    metrics.set("gateway.rejected", d(|c| c.rejected));
    metrics.set("gateway.routed_groups", d(|c| c.routed));
    metrics.set("gateway.group_size", ratio(admitted_sum, d(|c| c.routed)));
    metrics.set("gateway.peak_in_flight", peaks.gateway_in_flight as f64);
    metrics.set(
        "gateway.shard_skew",
        ratio(
            admitted.iter().copied().fold(0.0, f64::max),
            admitted_sum / admitted.len() as f64,
        ),
    );

    let mut render_ms = Vec::new();
    let mut families = 0;
    for _ in 0..5 {
        let (text, s) = util::timed(|| live.registry.render_prometheus());
        families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        render_ms.push(s * 1e3);
    }
    verdict.check(families > 0, || {
        "the telemetry rendering has no families".to_owned()
    });
    metrics.set("metrics.render_ms", median(&render_ms));
    metrics.set("metrics.families", families as f64);

    metrics.set("loadgen.lag_p99_ms", plain.lag_p99_ms());
    metrics.set("loadgen.lag_max_ms", sorted_q(&plain.lag_ms, 1.0));
    metrics.set("loadgen.attempted", plain.attempted as f64);
    stop(live);
    Ok(())
}
