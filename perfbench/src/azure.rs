//! `sim_azure_stream`: the streamed synthetic Azure day through the fleet
//! in hour chunks, FaaSBatch on every worker, snapshots off. Host time goes
//! to per-event engine, emission, pool and fleet work; the CPU model sees
//! few groups with many tasks each.

use crate::layer_sink::LayerSink;
use crate::sim_burst::ReportTotals;
use crate::util::{self, median, ratio, Metrics, Spans, Verdict};
use crate::{Args, SIM_LIMIT_MS};
use faasbatch_container::ids::InvocationId;
use faasbatch_core::scheduler_kind::SchedulerKind;
use faasbatch_fleet::config::FleetConfig;
use faasbatch_fleet::report::FleetReport;
use faasbatch_fleet::routing::RoutingKind;
use faasbatch_fleet::sim::{run_fleet, run_fleet_traced};
use faasbatch_metrics::analysis::AttributionEngine;
use faasbatch_metrics::events::{AuditorSink, TraceSink, VecSink};
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimTime;
use faasbatch_trace::stream::{AzureDayConfig, InvocationSource, WorkloadStream};
use faasbatch_trace::workload::{Invocation, Workload};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Invocations in the streamed day.
const DAY_INVOCATIONS: usize = 300_000;
const HOUR_US: u64 = 3_600 * 1_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

fn day_config() -> AzureDayConfig {
    AzureDayConfig {
        total: DAY_INVOCATIONS,
        ..AzureDayConfig::default()
    }
}

/// Takes the next `count` invocations of `stream` as one chunk, rebased to
/// `origin_us` and renumbered dense, like the repository's full-day replay.
fn chunk(stream: &mut WorkloadStream, count: usize, origin_us: u64) -> Workload {
    let invocations: Vec<Invocation> = (0..count)
        .map(|i| {
            let inv = stream.next_invocation().expect("hourly counts are exact");
            Invocation {
                id: InvocationId::new(i as u64),
                arrival: SimTime::from_micros(inv.arrival.as_micros() - origin_us),
                ..inv
            }
        })
        .collect();
    Workload::from_sorted(stream.registry().clone(), invocations)
}

fn replay(
    w: &Workload,
    fleet: &FleetConfig,
    traced: bool,
) -> Result<(FleetReport, Option<Box<dyn TraceSink>>), String> {
    let policy = RoutingKind::LeastLoaded.build();
    if traced {
        let sink = Box::new(LayerSink::new(Box::new(VecSink::new())));
        run_fleet_traced(w, fleet, policy, "azure-day", sink)
            .map(|(r, s)| (r, Some(s)))
            .map_err(|e| format!("fleet replay failed: {e}"))
    } else {
        run_fleet(w, fleet, policy, "azure-day")
            .map(|r| (r, None))
            .map_err(|e| format!("fleet replay failed: {e}"))
    }
}

/// Digest of the records that make up a fleet replay's result.
fn fleet_digest(report: &FleetReport) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for r in &report.records {
        (
            r.record.id,
            r.record.arrival.as_micros(),
            r.record.completion.as_micros(),
            r.record.container,
            r.record.cold,
            r.worker,
            r.retries,
        )
            .hash(&mut h);
    }
    report.provisioned_containers().hash(&mut h);
    h.finish()
}

/// Minute of the hour an arrival (relative to its chunk) falls in.
fn minute(at: SimTime) -> usize {
    ((at.as_micros() / 60_000_000) as usize).min(59)
}

/// What one replayed day produced.
#[derive(Default)]
struct Day {
    gen_s: f64,
    fleet_s: f64,
    digests: Vec<u64>,
    /// `(offered rate per s in the arrival's minute, end-to-end ms)` per
    /// invocation.
    samples: Vec<(f64, f64)>,
    containers: u64,
    retries: u64,
    load_cov: Vec<f64>,
    completed: usize,
    inconsistent: usize,
    totals: ReportTotals,
    /// Traced days: each chunk's sink.
    sinks: Vec<Box<dyn TraceSink>>,
    /// `(start, generated, end)` of each chunk's generation and replay.
    chunks: Vec<(Instant, Instant, Instant)>,
    /// CPU seconds of each chunk's generation and replay.
    chunk_cpu_s: Vec<f64>,
}

/// Replays the day chunk by chunk. With `best`, a reference call is timed
/// after each chunk, in the chunk's slot.
fn day(
    seed: u64,
    fleet: &FleetConfig,
    traced: bool,
    keep: bool,
    mut best: Option<&mut util::BestTimes>,
) -> Result<Day, String> {
    let cfg = day_config();
    let mut stream = WorkloadStream::azure_day(&DetRng::new(seed), &cfg);
    let mut out = Day::default();
    for (hour, &count) in cfg.hourly_counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        let cpu_start = util::thread_cpu_s()?;
        let start = Instant::now();
        let w = chunk(&mut stream, count, hour as u64 * HOUR_US);
        let generated = Instant::now();
        let (report, sink) = replay(&w, fleet, traced)?;
        let end = Instant::now();
        out.chunk_cpu_s.push(util::thread_cpu_s()? - cpu_start);
        if let Some(best) = best.as_deref_mut() {
            best.reference(out.chunks.len())?;
        }
        out.gen_s += generated.duration_since(start).as_secs_f64();
        out.fleet_s += end.duration_since(generated).as_secs_f64();
        out.chunks.push((start, generated, end));
        out.digests.push(fleet_digest(&report));
        out.completed += report.records.len();
        out.inconsistent += report.inconsistencies().len();
        out.containers += report.provisioned_containers();
        out.retries += report.retries;
        out.load_cov.push(report.load_imbalance());
        if keep {
            let mut per_minute = [0u32; 60];
            for inv in w.invocations() {
                per_minute[minute(inv.arrival)] += 1;
            }
            out.samples.extend(report.records.iter().map(|r| {
                (
                    f64::from(per_minute[minute(r.record.arrival)]) / 60.0,
                    r.record.latency.end_to_end().as_micros() as f64 / 1e3,
                )
            }));
            for worker in &report.workers {
                out.totals.add(&worker.report);
            }
        }
        out.sinks.extend(sink);
    }
    if stream.next_invocation().is_some() {
        return Err("the day stream was not exhausted".to_owned());
    }
    Ok(out)
}

fn check_day(verdict: &mut Verdict, d: &Day) {
    verdict.attempted += DAY_INVOCATIONS as u64;
    let missing = DAY_INVOCATIONS.saturating_sub(d.completed);
    verdict.failed += missing as u64;
    verdict.check(missing == 0, || {
        format!("{missing} invocations of the day did not complete")
    });
    verdict.check(d.inconsistent == 0, || {
        format!("{} inconsistent fleet records", d.inconsistent)
    });
}

/// Set-up: builds the day stream and replays its first hour, repeated, with
/// reference calls between the repetitions; returns the median set-up time
/// at the reference speed.
fn set_up(seed: u64, fleet: &FleetConfig) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut refs = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let cfg = day_config();
        let mut stream = WorkloadStream::azure_day(&DetRng::new(seed), &cfg);
        let w = chunk(&mut stream, cfg.hourly_counts()[0], 0);
        replay(&w, fleet, false)?;
        times.push(start.elapsed().as_secs_f64());
        util::time_reference(&mut refs);
    }
    Ok(util::at_reference_speed(median(&times), &refs))
}

/// End-to-end run: whole days until the time is up. Host and CPU time are
/// each hour chunk's best over the days (generation and replay), scaled to
/// the reference speed.
pub fn run(
    args: &Args,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
    host: &mut Vec<String>,
) -> Result<(), String> {
    let fleet = FleetConfig::default();
    let setup_s = set_up(args.seed, &fleet)?;

    let hours = day_config()
        .hourly_counts()
        .iter()
        .filter(|&&c| c > 0)
        .count();
    let mut best = util::BestTimes::new(hours, hours);
    let started = Instant::now();
    let mut days = 0;
    let mut first: Option<Day> = None;
    while days == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let d = day(args.seed, &fleet, false, first.is_none(), Some(&mut best))?;
        check_day(verdict, &d);
        for (i, (&(start, _, end), &cpu_s)) in d.chunks.iter().zip(&d.chunk_cpu_s).enumerate() {
            best.observe(i, end.duration_since(start).as_secs_f64(), cpu_s);
        }
        days += 1;
        match &first {
            None => first = Some(d),
            Some(f) => verdict.check(f.digests == d.digests, || {
                "a repeated day produced different fleet reports".to_owned()
            }),
        }
    }
    let (host_s, cpu_s) = best.totals();
    let speed = best.speed().0;
    host.push(format!("days={days} host_speed_vs_reference={speed:.4}"));
    metrics.set("setup_s", setup_s);
    metrics.set("inv_per_s", DAY_INVOCATIONS as f64 / host_s);
    metrics.set("cpu_us_per_job", cpu_s / DAY_INVOCATIONS as f64 * 1e6);
    let d = first.expect("one day ran");
    let mut e2e: Vec<f64> = d.samples.iter().map(|s| s.1).collect();
    e2e.sort_by(f64::total_cmp);
    metrics.set("sim_p50_ms", util::quantile_sorted(&e2e, 0.50));
    metrics.set("sim_p99_ms", util::quantile_sorted(&e2e, 0.99));
    metrics.set("sim_containers", d.containers as f64);
    util::set_levels(metrics, &util::load_levels(&d.samples, SIM_LIMIT_MS));
    Ok(())
}

/// Span trace id of hour `hour`'s chunk in day pair `pair`.
fn chunk_trace(pair: u64, hour: usize, traced: bool) -> u64 {
    pair * 100 + 2 * hour as u64 + u64::from(traced)
}

/// Traced run: untraced and traced days in pairs, then audit and
/// attribution of the first traced day's chunk streams.
pub fn run_traced(
    args: &Args,
    metrics: &mut Metrics,
    verdict: &mut Verdict,
    spans: &mut Spans,
) -> Result<(), String> {
    let fleet = FleetConfig::default();
    let started = Instant::now();
    let (mut gen, mut fleet_s, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Day, Day)> = None;
    let mut pair = 0u64;
    while overhead.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let plain = day(args.seed, &fleet, false, first.is_none(), None)?;
        let traced = day(args.seed, &fleet, true, false, None)?;
        check_day(verdict, &plain);
        check_day(verdict, &traced);
        verdict.check(plain.digests == traced.digests, || {
            "traced and untraced fleet reports differ".to_owned()
        });
        gen.push(plain.gen_s);
        fleet_s.push(plain.fleet_s);
        overhead.push((traced.gen_s + traced.fleet_s) / (plain.gen_s + plain.fleet_s));
        for (d, traced) in [(&plain, false), (&traced, true)] {
            for (hour, &(s, g, e)) in d.chunks.iter().enumerate() {
                let trace = chunk_trace(pair, hour, traced);
                let name = if traced {
                    "fleet.chunk_traced"
                } else {
                    "fleet.chunk"
                };
                let root = spans.record(name, trace, None, s, e);
                spans.record("trace.stream_chunk", trace, Some(root), s, g);
                spans.record("fleet.run_fleet", trace, Some(root), g, e);
            }
        }
        if first.is_none() {
            first = Some((plain, traced));
        }
        pair += 1;
    }
    let (plain, traced) = first.expect("one pair ran");
    metrics.set("trace.gen_s", median(&gen));
    metrics.set("trace.invocations", DAY_INVOCATIONS as f64);
    let host_s = median(&fleet_s);
    metrics.set("fleet.host_s", host_s);
    metrics.set("fleet.chunks", plain.chunks.len() as f64);
    metrics.set(
        "fleet.worker_load_cov",
        plain.load_cov.iter().sum::<f64>() / plain.load_cov.len() as f64,
    );
    metrics.set("fleet.retries", plain.retries as f64);
    metrics.set("metrics.trace_overhead", median(&overhead));

    let (mut calls, mut events, mut vec_events, mut sink_s) = (0u64, 0u64, 0u64, 0.0);
    let (mut audit_s, mut attribution_s, mut violations) = (0.0, 0.0, 0usize);
    let (mut groups, mut members) = (0u64, 0u64);
    for (hour, sink) in traced.sinks.iter().enumerate() {
        let layer = sink
            .as_any()
            .downcast_ref::<LayerSink>()
            .expect("traced replays use a LayerSink");
        let stream = layer
            .inner()
            .as_any()
            .downcast_ref::<VecSink>()
            .expect("the LayerSink forwards to a VecSink")
            .events();
        calls += layer.calls;
        events += layer.events;
        vec_events += stream.len() as u64;
        sink_s += layer.self_s;
        groups += layer.fleet_groups;
        members += layer.fleet_group_members;

        let audit_start = Instant::now();
        let mut auditor = AuditorSink::new();
        auditor.record_batch(stream);
        let found = auditor.finish().len();
        let audit_end = Instant::now();
        let mut engine = AttributionEngine::new();
        engine.consume(stream);
        let attribution = engine.finish();
        let end = Instant::now();
        let trace = chunk_trace(0, hour, true);
        spans.record("metrics.audit", trace, None, audit_start, audit_end);
        spans.record("metrics.attribution", trace, None, audit_end, end);
        audit_s += audit_end.duration_since(audit_start).as_secs_f64();
        attribution_s += end.duration_since(audit_end).as_secs_f64();
        violations += found;
        verdict.check(found == 0, || {
            format!("hour {hour}: auditor found {found} violations")
        });
        verdict.check(
            attribution.all_exact() && attribution.skipped == 0 && attribution.unfinished == 0,
            || format!("hour {hour}: attribution is not 100% exact"),
        );
    }
    verdict.check(events == vec_events, || {
        format!("sinks counted {events} events, the streams hold {vec_events}")
    });
    verdict.check(members == DAY_INVOCATIONS as u64, || {
        format!("fleet groups hold {members} invocations, the day {DAY_INVOCATIONS}")
    });
    let name = SchedulerKind::FaasBatch.name();
    metrics.set(format!("schedulers.host_s.{name}"), host_s);
    metrics.set(format!("simcore.events.{name}"), events as f64);
    metrics.set(
        format!("simcore.us_per_event.{name}"),
        ratio(host_s * 1e6, events as f64),
    );
    metrics.set(
        format!("schedulers.batch_size.{name}"),
        ratio(members as f64, groups as f64),
    );
    let traced_s = traced.gen_s + traced.fleet_s;
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
    let mut totals = plain.totals;
    totals.set_metrics(metrics, name);
    Ok(())
}
