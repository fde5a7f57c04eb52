//! `sim_burst`: all six schedulers on 30 simulated minutes of bursty CPU + I/O
//! load with the snapshot tier on. Dominated by the CPU model's many-small-groups
//! path under Vanilla and SFS; FaaSBatch's run is the paper's result.

use crate::layer_sink::LayerSink;
use crate::util::{self, median, ratio, Metrics, Spans, Verdict};
use crate::{Args, SIM_LIMIT_MS};
use faasbatch_bench::snapshot_ablation_setup;
use faasbatch_container::ids::InvocationId;
use faasbatch_container::snapshot::SnapshotConfig;
use faasbatch_core::policy::{run_faasbatch, FaasBatchConfig};
use faasbatch_core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch_metrics::analysis::AttributionEngine;
use faasbatch_metrics::events::{AuditorSink, TraceSink, VecSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::{run_simulation, run_simulation_traced};
use faasbatch_schedulers::kraken::KrakenCalibration;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_simcore::time::SimTime;
use faasbatch_trace::workload::{cpu_workload, io_workload, Invocation, Workload, WorkloadConfig};
use std::time::Instant;

/// CPU (`fib`) invocations in one segment.
const CPU_PER_SEGMENT: usize = 185;
/// I/O (storage-client) invocations in one segment.
const IO_PER_SEGMENT: usize = 65;
/// Segments back to back. Each holds one CPU burst in its first half and
/// one I/O burst in its second, so a run's burst intensity does not hinge
/// on where randomly placed bursts overlap, and many bursts per run keep
/// the seed-to-seed spread of the results small.
const SEGMENTS: u64 = 90;
/// Segments per part, the unit host time is measured on. A part starts
/// with no container or snapshot; a burst that hits such a cluster costs
/// Vanilla two to three times the host time of one that meets restorable
/// snapshots, so parts of one segment would make host time hinge on where
/// the first bursts fall.
const SEGMENTS_PER_PART: usize = 6;
const HALF_SEGMENT: SimDuration = SimDuration::from_secs(10);
const CPU_FUNCTIONS: usize = 16;
const IO_FUNCTIONS: usize = 8;
/// Snapshot slots: fewer than the 24 functions, so the cache evicts.
const SNAPSHOT_CAPACITY: usize = 20;
const WINDOW: SimDuration = SimDuration::from_millis(200);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One segment: a bursty `fib` CPU half, then a bursty I/O half.
fn segment(rng: &DetRng) -> Workload {
    let cfg = |total, functions| WorkloadConfig {
        total,
        span: HALF_SEGMENT,
        functions,
        bursts: 1,
        heterogeneity: 0.0,
    };
    let io = io_workload(rng, &cfg(IO_PER_SEGMENT, IO_FUNCTIONS));
    let shifted = io
        .invocations()
        .iter()
        .map(|inv| Invocation {
            arrival: SimTime::from_micros(HALF_SEGMENT.as_micros() + inv.arrival.as_micros()),
            ..*inv
        })
        .collect();
    cpu_workload(rng, &cfg(CPU_PER_SEGMENT, CPU_FUNCTIONS))
        .merge(Workload::from_sorted(io.registry().clone(), shifted))
}

/// Concatenates `parts`, the `k`-th shifted by `k` segment lengths, and
/// renumbers the invocations dense.
fn concat(parts: &[Workload]) -> Workload {
    let mut invocations = Vec::new();
    for (k, w) in parts.iter().enumerate() {
        let origin = 2 * HALF_SEGMENT.as_micros() * k as u64;
        for inv in w.invocations() {
            invocations.push(Invocation {
                id: InvocationId::new(invocations.len() as u64),
                arrival: SimTime::from_micros(origin + inv.arrival.as_micros()),
                ..*inv
            });
        }
    }
    let registry = parts.first().expect("at least one segment").registry();
    Workload::from_sorted(registry.clone(), invocations)
}

/// The workload's input: its parts, each on its own (the units replay time
/// is measured on), and all of them back to back.
pub fn input(seed: u64) -> (Vec<Workload>, Workload) {
    let root = DetRng::new(seed);
    let segments: Vec<Workload> = (0..SEGMENTS)
        .map(|k| segment(&root.fork(&format!("segment-{k}"))))
        .collect();
    let parts: Vec<Workload> = segments.chunks(SEGMENTS_PER_PART).map(concat).collect();
    let whole = concat(&segments);
    (parts, whole)
}

fn config() -> SimConfig {
    SimConfig {
        snapshot: SnapshotConfig {
            capacity: SNAPSHOT_CAPACITY,
            ..SnapshotConfig::default()
        },
        ..snapshot_ablation_setup()
    }
}

/// One scheduler's replay.
struct Replay {
    kind: SchedulerKind,
    report: RunReport,
    host_s: f64,
    cpu_s: f64,
    /// The traced replay's sink (a [`LayerSink`] over a [`VecSink`]).
    sink: Option<Box<dyn TraceSink>>,
    start: Instant,
    end: Instant,
}

/// Replays `w` under all six schedulers, Kraken calibrated from Vanilla's
/// report as the repository's six-way runners do. With `best`, a reference
/// call is timed after each replay, in `slot`.
fn round(
    w: &Workload,
    cfg: &SimConfig,
    traced: bool,
    mut best: Option<(&mut util::BestTimes, usize)>,
) -> Result<Vec<Replay>, String> {
    let mut replays: Vec<Replay> = Vec::with_capacity(SchedulerKind::ALL.len());
    let mut setup = SchedulerSetup::new(WINDOW);
    for kind in SchedulerKind::ALL {
        let (policy, interval) = kind.build(&setup);
        let cpu_start = util::thread_cpu_s()?;
        let start = Instant::now();
        let (report, sink) = if traced {
            let sink = Box::new(LayerSink::new(Box::new(VecSink::new())));
            let (report, sink) =
                run_simulation_traced(policy, w, cfg.clone(), "sim_burst", interval, sink);
            (report, Some(sink))
        } else {
            (
                run_simulation(policy, w, cfg.clone(), "sim_burst", interval),
                None,
            )
        };
        let end = Instant::now();
        let cpu_s = util::thread_cpu_s()? - cpu_start;
        if let Some((best, slot)) = best.as_mut() {
            best.reference(*slot)?;
        }
        replays.push(Replay {
            kind,
            report,
            host_s: end.duration_since(start).as_secs_f64(),
            cpu_s,
            sink,
            start,
            end,
        });
        if kind == SchedulerKind::Vanilla {
            setup =
                setup.with_kraken_calibration(KrakenCalibration::from_vanilla(&replays[0].report));
        }
    }
    Ok(replays)
}

/// Checks that every invocation of `w` completed, with a consistent
/// record, in each named report.
fn check_complete(verdict: &mut Verdict, w: &Workload, reports: &[(&str, &RunReport)]) {
    for &(name, report) in reports {
        let missing = w.len().saturating_sub(report.records.len());
        verdict.failed += missing as u64;
        verdict.check(missing == 0, || {
            format!("{name}: {missing} invocations did not complete")
        });
        let bad = report.inconsistencies();
        verdict.check(bad.is_empty(), || {
            format!("{name}: {} inconsistent records", bad.len())
        });
    }
}

/// Counts and checks one round of replays of `w`.
fn check_round(verdict: &mut Verdict, w: &Workload, replays: &[Replay]) {
    verdict.attempted += (replays.len() * w.len()) as u64;
    let named: Vec<(&str, &RunReport)> =
        replays.iter().map(|r| (r.kind.name(), &r.report)).collect();
    check_complete(verdict, w, &named);
}

fn round_time(replays: &[Replay]) -> f64 {
    replays.iter().map(|r| r.host_s).sum()
}

/// What the set-up produced: the input, FaaSBatch's replay of the whole
/// input, the median generation time, and the median set-up time at the
/// reference speed.
struct SetUp {
    parts: Vec<Workload>,
    whole: Workload,
    faasbatch: RunReport,
    gen_s: f64,
    setup_s: f64,
}

/// Set-up: input generation plus one FaaSBatch replay of the whole input,
/// repeated, with reference calls between the repetitions.
fn set_up(seed: u64, cfg: &SimConfig, mut spans: Option<&mut Spans>) -> SetUp {
    let mut gen = Vec::with_capacity(SETUPS);
    let mut total = Vec::with_capacity(SETUPS);
    let mut last = None;
    let mut refs = Vec::new();
    for i in 0..SETUPS {
        let start = Instant::now();
        let (parts, whole) = input(seed);
        let generated = Instant::now();
        let faasbatch = run_faasbatch(
            &whole,
            cfg.clone(),
            FaasBatchConfig::with_window(WINDOW),
            "sim_burst",
        );
        let end = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            let root = spans.record("setup", i as u64, None, start, end);
            spans.record("trace.generate", i as u64, Some(root), start, generated);
            spans.record("schedulers.warm_up", i as u64, Some(root), generated, end);
        }
        gen.push(generated.duration_since(start).as_secs_f64());
        total.push(end.duration_since(start).as_secs_f64());
        last = Some((parts, whole, faasbatch));
        util::time_reference(&mut refs);
    }
    let (parts, whole, faasbatch) = last.expect("at least one set-up");
    SetUp {
        parts,
        whole,
        faasbatch,
        gen_s: median(&gen),
        setup_s: util::at_reference_speed(median(&total), &refs),
    }
}

/// Latency of FaaSBatch's records at three levels of offered load: each
/// invocation's load is the arrival rate within half a burst width of it,
/// a window that does not split bursts the way fixed buckets do.
fn faasbatch_levels(w: &Workload, report: &RunReport) -> util::LoadLevels {
    const HALF_US: u64 = 125_000;
    let arrivals: Vec<u64> = w
        .invocations()
        .iter()
        .map(|i| i.arrival.as_micros())
        .collect();
    let samples: Vec<(f64, f64)> = report
        .records
        .iter()
        .map(|r| {
            let t = r.arrival.as_micros();
            let lo = arrivals.partition_point(|&a| a + HALF_US < t);
            let hi = arrivals.partition_point(|&a| a <= t + HALF_US);
            let rate = (hi - lo) as f64 / (2 * HALF_US) as f64 * 1e6;
            (rate, r.latency.end_to_end().as_micros() as f64 / 1e3)
        })
        .collect();
    util::load_levels(&samples, SIM_LIMIT_MS)
}

fn set_sim_results(metrics: &mut Metrics, w: &Workload, faasbatch: &RunReport) {
    let e2e = faasbatch.end_to_end_cdf();
    let ms = |q: f64| e2e.quantile(q).as_micros() as f64 / 1e3;
    metrics.set("sim_p50_ms", ms(0.50));
    metrics.set("sim_p99_ms", ms(0.99));
    metrics.set("sim_containers", faasbatch.provisioned_containers as f64);
    util::set_levels(metrics, &faasbatch_levels(w, faasbatch));
}

/// End-to-end run: the six schedulers replay the segments one at a time,
/// pass after pass, until the time is up (at least one whole pass). Host
/// and CPU time are each (segment, scheduler) replay's best over the
/// passes, scaled to the reference speed; the simulated results are
/// FaaSBatch's replay of the whole input.
pub fn run(
    args: &Args,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
    host: &mut Vec<String>,
) -> Result<(), String> {
    let cfg = config();
    let set = set_up(args.seed, &cfg, None);
    verdict.attempted += set.whole.len() as u64;
    check_complete(verdict, &set.whole, &[("faasbatch", &set.faasbatch)]);
    set_sim_results(metrics, &set.whole, &set.faasbatch);

    let kinds = SchedulerKind::ALL.len();
    let mut best = util::BestTimes::new(set.parts.len() * kinds, set.parts.len());
    let mut first: Vec<u64> = Vec::with_capacity(set.parts.len() * kinds);
    let started = Instant::now();
    let mut passes = 0;
    'passes: for pass in 0.. {
        for (k, part) in set.parts.iter().enumerate() {
            if pass > 0 && started.elapsed().as_secs_f64() >= args.seconds {
                break 'passes;
            }
            passes = pass + 1;
            let replays = round(part, &cfg, false, Some((&mut best, k)))?;
            check_round(verdict, part, &replays);
            for (i, r) in replays.iter().enumerate() {
                let unit = k * kinds + i;
                best.observe(unit, r.host_s, r.cpu_s);
                let digest = util::digest(&r.report);
                if pass == 0 {
                    first.push(digest);
                } else {
                    verdict.check(first[unit] == digest, || {
                        format!(
                            "{}: a repeated replay of part {k} produced a different report",
                            r.kind.name()
                        )
                    });
                }
            }
        }
    }
    let (host_s, cpu_s) = best.totals();
    let speed = best.speed().0;
    host.push(format!(
        "passes={passes} host_speed_vs_reference={speed:.4}"
    ));
    metrics.set("setup_s", set.setup_s);
    let jobs = (kinds * set.whole.len()) as f64;
    metrics.set("inv_per_s", jobs / host_s);
    metrics.set("cpu_us_per_job", cpu_s / jobs * 1e6);
    Ok(())
}

/// Span trace id of scheduler `i`'s replay in round pair `pair`.
fn replay_trace(pair: u64, i: usize, traced: bool) -> u64 {
    pair * 100 + 2 * i as u64 + u64::from(traced)
}

/// The [`LayerSink`] a traced replay ran with.
fn layer_sink(r: &Replay) -> &LayerSink {
    r.sink
        .as_ref()
        .and_then(|s| s.as_any().downcast_ref::<LayerSink>())
        .expect("traced replays run with a LayerSink")
}

/// Traced run: untraced and traced rounds in pairs, then audit and
/// attribution of the first traced round's streams.
pub fn run_traced(
    args: &Args,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
    spans: &mut Spans,
) -> Result<(), String> {
    let cfg = config();
    let set = set_up(args.seed, &cfg, Some(&mut *spans));
    let w = set.whole;
    metrics.set("trace.gen_s", set.gen_s);
    metrics.set("trace.invocations", w.len() as f64);

    let started = Instant::now();
    let mut host: Vec<Vec<f64>> = vec![Vec::new(); SchedulerKind::ALL.len()];
    let mut overhead = Vec::new();
    let mut traced_first: Option<Vec<Replay>> = None;
    let mut pair = 0u64;
    while overhead.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let plain = round(&w, &cfg, false, None)?;
        let traced = round(&w, &cfg, true, None)?;
        check_round(verdict, &w, &plain);
        check_round(verdict, &w, &traced);
        for (p, t) in plain.iter().zip(&traced) {
            verdict.check(util::digest(&p.report) == util::digest(&t.report), || {
                format!("{}: traced and untraced reports differ", p.kind.name())
            });
        }
        for (i, p) in plain.iter().enumerate() {
            host[i].push(p.host_s);
        }
        overhead.push(round_time(&traced) / round_time(&plain));
        for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
            let name = p.kind.name();
            spans.record(
                format!("schedulers.replay.{name}"),
                replay_trace(pair, i, false),
                None,
                p.start,
                p.end,
            );
            let trace = replay_trace(pair, i, true);
            let root = spans.record(
                format!("schedulers.replay_traced.{name}"),
                trace,
                None,
                t.start,
                t.end,
            );
            for &(s, e) in &layer_sink(t).batch_calls {
                spans.record("metrics.sink.record_batch", trace, Some(root), s, e);
            }
        }
        if traced_first.is_none() {
            traced_first = Some(traced);
        }
        pair += 1;
    }
    metrics.set("metrics.trace_overhead", median(&overhead));

    let traced = traced_first.expect("one pair ran");
    let (mut calls, mut events, mut vec_events, mut sink_s) = (0u64, 0u64, 0u64, 0.0);
    let (mut audit_s, mut attribution_s, mut violations) = (0.0, 0.0, 0usize);
    for (i, r) in traced.iter().enumerate() {
        let name = r.kind.name();
        let layer = layer_sink(r);
        let stream = layer
            .inner()
            .as_any()
            .downcast_ref::<VecSink>()
            .expect("the LayerSink forwards to a VecSink")
            .events();
        let host_s = median(&host[i]);
        metrics.set(format!("schedulers.host_s.{name}"), host_s);
        metrics.set(format!("simcore.events.{name}"), layer.events as f64);
        metrics.set(
            format!("simcore.us_per_event.{name}"),
            ratio(host_s * 1e6, layer.events as f64),
        );
        metrics.add("simcore.cpu_tasks", layer.tasks_started as f64);
        metrics.set(
            format!("simcore.cpu_peak_tasks.{name}"),
            layer.peak_tasks as f64,
        );
        metrics.set(
            format!("simcore.cpu_peak_groups.{name}"),
            layer.peak_groups as f64,
        );
        metrics.set(
            format!("schedulers.batch_size.{name}"),
            ratio(layer.decision_members as f64, layer.decisions as f64),
        );
        calls += layer.calls;
        events += layer.events;
        vec_events += stream.len() as u64;
        sink_s += layer.self_s;

        let audit_start = Instant::now();
        let mut auditor = AuditorSink::new();
        auditor.record_batch(stream);
        let found = auditor.finish().len();
        let audit_end = Instant::now();
        let mut engine = AttributionEngine::new();
        engine.consume(stream);
        let attribution = engine.finish();
        let attribution_end = Instant::now();
        let trace = replay_trace(0, i, true);
        spans.record("metrics.audit", trace, None, audit_start, audit_end);
        spans.record(
            "metrics.attribution",
            trace,
            None,
            audit_end,
            attribution_end,
        );
        audit_s += audit_end.duration_since(audit_start).as_secs_f64();
        attribution_s += attribution_end.duration_since(audit_end).as_secs_f64();
        violations += found;
        verdict.check(found == 0, || {
            format!("{name}: auditor found {found} violations")
        });
        verdict.check(
            attribution.all_exact()
                && attribution.skipped == 0
                && attribution.unfinished == 0
                && attribution.invocations.len() == w.len(),
            || format!("{name}: attribution is not 100% exact"),
        );
        verdict.check(layer.events == stream.len() as u64, || {
            format!(
                "{name}: sink counted {} events, stream holds {}",
                layer.events,
                stream.len()
            )
        });
    }
    let per_scheduler: f64 = SchedulerKind::ALL
        .iter()
        .map(|k| {
            metrics
                .get(&format!("simcore.events.{}", k.name()))
                .unwrap_or(0.0)
        })
        .sum();
    verdict.check(per_scheduler == vec_events as f64, || {
        format!("per-scheduler events sum to {per_scheduler}, the streams hold {vec_events}")
    });
    let traced_s = round_time(&traced);
    metrics.set("metrics.sink_batches", calls as f64);
    metrics.set(
        "metrics.events_per_batch",
        ratio(events as f64, calls as f64),
    );
    metrics.set("metrics.sink_self_s", sink_s);
    metrics.set("metrics.events_per_s", events as f64 / traced_s);
    metrics.set("metrics.audit_s", audit_s);
    metrics.set("metrics.attribution_s", attribution_s);
    metrics.set("metrics.audit_violations", violations as f64);

    for r in &traced {
        if matches!(r.kind, SchedulerKind::Vanilla | SchedulerKind::FaasBatch) {
            let mut totals = ReportTotals::default();
            totals.add(&r.report);
            totals.set_metrics(metrics, r.kind.name());
        }
    }
    Ok(())
}

/// Scheduler, container and storage totals over one or more reports.
#[derive(Debug, Default)]
pub struct ReportTotals {
    warm_hits: u64,
    cold: u64,
    restored: u64,
    snapshot_hits: u64,
    snapshot_misses: u64,
    snapshot_evictions: u64,
    peak_live: u64,
    daemon_core_s: f64,
    clients_created: u64,
    client_requests: u64,
    client_bytes: u64,
    sched_ms: Vec<f64>,
}

impl ReportTotals {
    pub fn add(&mut self, rep: &RunReport) {
        self.warm_hits += rep.warm_hits;
        self.cold += rep.provisioned_containers;
        self.restored += rep.restored_starts;
        self.snapshot_hits += rep.snapshot_stats.hits;
        self.snapshot_misses += rep.snapshot_stats.misses;
        self.snapshot_evictions += rep.snapshot_stats.evictions;
        self.peak_live = self.peak_live.max(rep.peak_live_containers);
        self.daemon_core_s += rep.core_seconds_daemon;
        self.clients_created += rep.clients_created;
        self.client_requests += rep.client_requests;
        self.client_bytes += rep.client_bytes_allocated;
        self.sched_ms.extend(
            rep.records
                .iter()
                .map(|r| r.latency.scheduling.as_micros() as f64 / 1e3),
        );
    }

    /// Sets the `<vf>` metrics of scheduler `name`, plus the multiplexer
    /// ones for FaaSBatch.
    pub fn set_metrics(&mut self, metrics: &mut Metrics, name: &str) {
        self.sched_ms.sort_by(f64::total_cmp);
        let starts = self.warm_hits + self.cold + self.restored;
        metrics.set(
            format!("schedulers.daemon_core_s.{name}"),
            self.daemon_core_s,
        );
        metrics.set(
            format!("schedulers.sched_p99_ms.{name}"),
            util::quantile_sorted(&self.sched_ms, 0.99),
        );
        metrics.set(format!("container.cold_starts.{name}"), self.cold as f64);
        metrics.set(format!("container.restores.{name}"), self.restored as f64);
        metrics.set(
            format!("container.warm_hit_ratio.{name}"),
            ratio(self.warm_hits as f64, starts as f64),
        );
        metrics.set(
            format!("container.snapshot_hit_ratio.{name}"),
            ratio(
                self.snapshot_hits as f64,
                (self.snapshot_hits + self.snapshot_misses) as f64,
            ),
        );
        metrics.set(
            format!("container.snapshot_evictions.{name}"),
            self.snapshot_evictions as f64,
        );
        metrics.set(format!("container.peak_live.{name}"), self.peak_live as f64);
        metrics.set(
            format!("storage.clients_created.{name}"),
            self.clients_created as f64,
        );
        metrics.set(
            format!("storage.client_mb.{name}"),
            self.client_bytes as f64 / (1u64 << 20) as f64,
        );
        if name == SchedulerKind::FaasBatch.name() {
            metrics.set("core.mux_requests.faasbatch", self.client_requests as f64);
            let hits = self.client_requests.saturating_sub(self.clients_created);
            metrics.set(
                "core.mux_hit_ratio.faasbatch",
                ratio(hits as f64, self.client_requests as f64),
            );
        }
    }
}
