//! # faasbatch-bench
//!
//! Figure-regeneration harnesses for the FaaSBatch reproduction.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that rebuilds its workload, runs the relevant schedulers, and
//! prints the same rows/series the paper plots (see `DESIGN.md` §5 for the
//! index). This library holds the shared plumbing: canonical workloads,
//! report and sink helpers over the shared [`run_kinds`] runner, CDF/table
//! rendering, and JSON export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faasbatch_core::scheduler_kind::{run_kinds, SchedulerKind, SchedulerSetup};
use faasbatch_metrics::autoscaler::{AutoscalerConfig, AutoscalerSink, AutoscalerStats};
use faasbatch_metrics::events::{SimEvent, VecSink};
use faasbatch_metrics::report::{text_table, RunReport};
use faasbatch_metrics::stats::Cdf;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::rng::DetRng;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use serde::{Serialize, Value};
use std::path::Path;

/// Seed used by every figure harness (the replayed "trace").
pub const SEED: u64 = 2023;

/// The paper's default dispatch window.
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_millis(200);

/// The dispatch intervals swept in Fig. 13/14.
pub const DISPATCH_INTERVALS_MS: [u64; 4] = [10, 100, 200, 500];

/// The paper's CPU workload: 800 `fib` invocations across one bursty minute.
pub fn paper_cpu_workload() -> Workload {
    cpu_workload(&DetRng::new(SEED), &WorkloadConfig::default())
}

/// The paper's I/O workload: the first 400 invocations of the minute.
pub fn paper_io_workload() -> Workload {
    io_workload(
        &DetRng::new(SEED),
        &WorkloadConfig {
            total: 400,
            span: SimDuration::from_secs(30),
            functions: 8,
            bursts: 4,
            ..WorkloadConfig::default()
        },
    )
}

/// Replays `workload` under each of `kinds` with the default simulation
/// config and the given dispatch window, untraced, and returns the reports
/// in `kinds` order (see [`run_kinds`] for the Kraken calibration rule).
pub fn reports(
    kinds: &[SchedulerKind],
    workload: &Workload,
    label: &str,
    window: SimDuration,
) -> Vec<RunReport> {
    let (cfg, setup) = (SimConfig::default(), SchedulerSetup::new(window));
    run_kinds(kinds, workload, &cfg, label, &setup, |_| None)
        .into_iter()
        .map(|(report, _)| report)
        .collect()
}

/// [`reports`] under `cfg` with a [`VecSink`] on every run: the reports
/// plus each run's full event stream, in `kinds` order — the input to the
/// auditor and the attribution engine.
pub fn traced(
    kinds: &[SchedulerKind],
    workload: &Workload,
    label: &str,
    window: SimDuration,
    cfg: &SimConfig,
) -> (Vec<RunReport>, Vec<Vec<SimEvent>>) {
    let setup = SchedulerSetup::new(window);
    run_kinds(kinds, workload, cfg, label, &setup, |_| {
        Some(Box::new(VecSink::new()))
    })
    .into_iter()
    .map(|(report, sink)| {
        let events = sink
            .as_ref()
            .and_then(|s| s.as_any().downcast_ref::<VecSink>())
            .expect("traced run returns its vec sink")
            .events()
            .to_vec();
        (report, events)
    })
    .unzip()
}

/// The static simulation config and controller used by the
/// `ablation_autoscaler` harness, the `faasbatch autoscale` CLI mode, and
/// the determinism tests. A deliberately short static keep-alive (2 s)
/// makes the cold-start cost of static configuration visible; the
/// controller may extend per-function keep-alive up to 60 s while a
/// function is live and pre-warm up to 4 containers per function.
pub fn autoscaler_ablation_setup() -> (SimConfig, AutoscalerConfig) {
    let keep_alive = SimDuration::from_secs(2);
    let sim = SimConfig {
        keep_alive,
        ..SimConfig::default()
    };
    let ac = AutoscalerConfig {
        prewarm_cap: 4,
        keepalive_floor: keep_alive,
        keepalive_ceiling: SimDuration::from_secs(60),
        base_keep_alive: keep_alive,
        ..AutoscalerConfig::default()
    };
    (sim, ac)
}

/// Builds an object [`Value`] with the given (deterministic) key order.
fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// One scheduler's row of the autoscaler ablation: static vs controller.
fn ablation_row(static_run: &RunReport, auto_run: &RunReport, stats: &AutoscalerStats) -> Value {
    fn mode(r: &RunReport) -> Value {
        obj(vec![
            (
                "cold_pct",
                Value::F64((r.cold_fraction() * 1000.0).round() / 10.0),
            ),
            ("containers", Value::U64(r.provisioned_containers)),
            ("warm_hits", Value::U64(r.warm_hits)),
            (
                "e2e_p50_us",
                Value::U64(r.end_to_end_cdf().quantile(0.5).as_micros()),
            ),
            (
                "e2e_p99_us",
                Value::U64(r.end_to_end_cdf().quantile(0.99).as_micros()),
            ),
        ])
    }
    obj(vec![
        ("static", mode(static_run)),
        ("autoscaled", mode(auto_run)),
        (
            "controller",
            obj(vec![
                ("prewarm_actions", Value::U64(stats.prewarm_actions)),
                (
                    "prewarmed_containers",
                    Value::U64(stats.prewarmed_containers),
                ),
                ("keepalive_actions", Value::U64(stats.keepalive_actions)),
                (
                    "max_outstanding_prewarm",
                    Value::U64(stats.max_outstanding_prewarm as u64),
                ),
            ]),
        ),
    ])
}

/// The controller-on vs static-config ablation over all six schedulers.
///
/// Returns the JSON summary the `ablation_autoscaler` bin commits to
/// `results/ablation_autoscaler.json`: per scheduler, cold-start rate and
/// end-to-end p50/p99 under the static config and under the controller,
/// plus the controller's action counters. Deterministic for fixed inputs —
/// every map is built in a fixed key order.
pub fn autoscaler_ablation(
    workload: &Workload,
    label: &str,
    window: SimDuration,
    cfg: &SimConfig,
    ac: &AutoscalerConfig,
) -> Value {
    let setup = SchedulerSetup::new(window);
    let all = &SchedulerKind::ALL;
    let static_runs = run_kinds(all, workload, cfg, label, &setup, |_| None);
    let auto_runs = run_kinds(all, workload, cfg, label, &setup, |_| {
        Some(Box::new(AutoscalerSink::new(ac.clone())))
    });
    let schedulers = Value::Map(
        static_runs
            .into_iter()
            .zip(auto_runs)
            .map(|((static_run, _), (auto_run, sink))| {
                let controller = sink.as_ref().and_then(|s| s.as_any().downcast_ref());
                let stats = AutoscalerSink::stats(controller.expect("controller sink comes back"));
                let row = ablation_row(&static_run, &auto_run, &stats);
                (static_run.scheduler, row)
            })
            .collect(),
    );
    obj(vec![
        ("workload", Value::Str(label.to_owned())),
        ("invocations", Value::U64(workload.len() as u64)),
        ("window_us", Value::U64(window.as_micros())),
        (
            "static_keep_alive_us",
            Value::U64(cfg.keep_alive.as_micros()),
        ),
        ("autoscaler", ac.to_value()),
        ("schedulers", schedulers),
    ])
}

/// The static simulation config used by the `ablation_snapshot` harness and
/// the snapshot integration tests: the default worker with the autoscaler
/// ablation's short 2 s keep-alive, so warm containers churn out of the pool
/// between bursts and the restore tier has cold starts to absorb. The
/// snapshot cache itself is left disabled — each sweep point installs its
/// own [`SnapshotConfig`](faasbatch_container::snapshot::SnapshotConfig).
pub fn snapshot_ablation_setup() -> SimConfig {
    SimConfig {
        keep_alive: SimDuration::from_secs(2),
        ..SimConfig::default()
    }
}

/// One scheduler's row of the snapshot ablation: the warm/restore/cold
/// split, end-to-end latency, and the cache's lifetime counters.
fn snapshot_row(r: &RunReport) -> Value {
    let total = r.records.len().max(1) as f64;
    let pct = |n: f64| Value::F64((n * 1000.0).round() / 10.0);
    obj(vec![
        ("cold_pct", pct(r.cold_fraction())),
        ("restored_pct", pct(r.restored_starts as f64 / total)),
        ("restored_starts", Value::U64(r.restored_starts)),
        ("containers", Value::U64(r.provisioned_containers)),
        (
            "e2e_p50_us",
            Value::U64(r.end_to_end_cdf().quantile(0.5).as_micros()),
        ),
        (
            "e2e_p99_us",
            Value::U64(r.end_to_end_cdf().quantile(0.99).as_micros()),
        ),
        (
            "cache",
            obj(vec![
                ("hits", Value::U64(r.snapshot_stats.hits)),
                ("misses", Value::U64(r.snapshot_stats.misses)),
                ("evictions", Value::U64(r.snapshot_stats.evictions)),
                ("captures", Value::U64(r.snapshot_stats.captures)),
            ]),
        ),
    ])
}

/// One snapshot-tier sweep point: all six schedulers on `workload` under
/// `base` with the given cache configuration installed.
///
/// Returns the JSON object the `ablation_snapshot` bin collects into
/// `results/ablation_snapshot.json`: the sweep coordinates (capacity,
/// eviction policy, restore band) plus a per-scheduler row with the
/// warm/restore/cold split and cache counters. Deterministic for fixed
/// inputs — every map is built in a fixed key order.
pub fn snapshot_ablation(
    workload: &Workload,
    label: &str,
    window: SimDuration,
    base: &SimConfig,
    snapshot: &faasbatch_container::snapshot::SnapshotConfig,
) -> Value {
    let cfg = SimConfig {
        snapshot: snapshot.clone(),
        ..base.clone()
    };
    let setup = SchedulerSetup::new(window);
    let runs = run_kinds(&SchedulerKind::ALL, workload, &cfg, label, &setup, |_| None);
    let schedulers = Value::Map(
        runs.iter()
            .map(|(r, _)| (r.scheduler.clone(), snapshot_row(r)))
            .collect(),
    );
    obj(vec![
        ("workload", Value::Str(label.to_owned())),
        ("invocations", Value::U64(workload.len() as u64)),
        ("window_us", Value::U64(window.as_micros())),
        ("keep_alive_us", Value::U64(cfg.keep_alive.as_micros())),
        ("capacity", Value::U64(snapshot.capacity as u64)),
        ("eviction", Value::Str(snapshot.eviction.name().to_owned())),
        (
            "restore_min_us",
            Value::U64(snapshot.model.min_latency().as_micros()),
        ),
        (
            "restore_max_us",
            Value::U64(snapshot.model.max_latency().as_micros()),
        ),
        ("boot_fraction", Value::F64(snapshot.model.boot_fraction())),
        ("schedulers", schedulers),
    ])
}

/// Renders the standard per-scheduler resource/latency summary table.
pub fn summary_table(reports: &[RunReport]) -> String {
    let headers = [
        "scheduler",
        "invocations",
        "containers",
        "inv/ctr",
        "cold%",
        "sched p50",
        "sched p99",
        "exec p50",
        "exec+queue p99",
        "e2e mean",
        "mem mean (MB)",
        "cpu util",
        "daemon cpu-s",
        "clients",
        "MB/client-req",
    ];
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.scheduler.clone(),
                r.records.len().to_string(),
                r.provisioned_containers.to_string(),
                format!("{:.2}", r.invocations_per_container()),
                format!("{:.1}", r.cold_fraction() * 100.0),
                format!("{}", r.scheduling_cdf().quantile(0.5)),
                format!("{}", r.scheduling_cdf().quantile(0.99)),
                format!("{}", r.execution_cdf().quantile(0.5)),
                format!("{}", r.exec_queue_cdf().quantile(0.99)),
                format!("{}", r.end_to_end_cdf().mean()),
                format!("{:.1}", r.mean_memory_bytes() / (1 << 20) as f64),
                format!("{:.3}", r.mean_cpu_utilization()),
                format!("{:.1}", r.core_seconds_daemon),
                r.clients_created.to_string(),
                format!("{:.2}", r.client_memory_per_request() / (1 << 20) as f64),
            ]
        })
        .collect();
    text_table(&headers, &rows)
}

/// Renders one latency-component CDF (Fig. 11/12 panels) as aligned columns:
/// a fixed grid of cumulative fractions and the per-scheduler latencies at
/// each.
pub fn cdf_table(title: &str, series: &[(&str, Cdf)]) -> String {
    let fractions = [0.10, 0.25, 0.50, 0.75, 0.90, 0.96, 0.99, 1.00];
    let mut headers = vec!["fraction"];
    for (name, _) in series {
        headers.push(name);
    }
    let rows: Vec<Vec<String>> = fractions
        .iter()
        .map(|&q| {
            let mut row = vec![format!("p{:02.0}", q * 100.0)];
            for (_, cdf) in series {
                row.push(if cdf.is_empty() {
                    "-".to_owned()
                } else {
                    format!("{}", cdf.quantile(q))
                });
            }
            row
        })
        .collect();
    format!("{title}\n{}", text_table(&headers, &rows))
}

/// Writes reports as JSON under `results/<name>.json` (best effort — the
/// harness prints the tables regardless).
pub fn export_json(name: &str, reports: &[RunReport]) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    if let Ok(json) = serde_json::to_string_pretty(reports) {
        let _ = std::fs::write(dir.join(format!("{name}.json")), json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_have_paper_sizes() {
        assert_eq!(paper_cpu_workload().len(), 800);
        assert_eq!(paper_io_workload().len(), 400);
    }

    #[test]
    fn paper_four_reports_equal_their_entries_in_all() {
        let w = cpu_workload(
            &DetRng::new(1),
            &WorkloadConfig {
                total: 30,
                span: SimDuration::from_secs(5),
                functions: 2,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let all = reports(&SchedulerKind::ALL, &w, "cpu", DEFAULT_WINDOW);
        let names: Vec<&str> = all.iter().map(|r| r.scheduler.as_str()).collect();
        let expected: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, expected);
        assert!(all.iter().all(|r| r.records.len() == 30));
        let four = reports(&SchedulerKind::PAPER_FOUR, &w, "cpu", DEFAULT_WINDOW);
        for (kind, report) in SchedulerKind::PAPER_FOUR.iter().zip(&four) {
            let i = SchedulerKind::ALL.iter().position(|k| k == kind).unwrap();
            assert_eq!(report, &all[i], "{}", kind.name());
        }
    }

    #[test]
    fn snapshot_ablation_reports_restores_for_every_scheduler_row() {
        let w = cpu_workload(
            &DetRng::new(5),
            &WorkloadConfig {
                total: 60,
                span: SimDuration::from_secs(10),
                functions: 3,
                bursts: 3,
                ..WorkloadConfig::default()
            },
        );
        let base = snapshot_ablation_setup();
        let snapshot = faasbatch_container::snapshot::SnapshotConfig::with_capacity(4);
        let point = snapshot_ablation(&w, "cpu", DEFAULT_WINDOW, &base, &snapshot);
        assert_eq!(point.get_field("capacity").unwrap(), &Value::U64(4));
        let Value::Map(schedulers) = point.get_field("schedulers").unwrap() else {
            panic!("schedulers is an object");
        };
        assert_eq!(schedulers.len(), 6);
        for (name, row) in schedulers {
            let Value::U64(restored) = row.get_field("restored_starts").unwrap() else {
                panic!("restored_starts is a count");
            };
            let cache = row.get_field("cache").unwrap();
            let Value::U64(hits) = cache.get_field("hits").unwrap() else {
                panic!("hits is a count");
            };
            assert_eq!(restored, hits, "{name}: one cache hit per restored start");
            if name == "vanilla" {
                assert!(*restored > 0, "vanilla churns enough to restore");
            }
        }
    }

    #[test]
    fn tables_render_nonempty() {
        let w = cpu_workload(
            &DetRng::new(1),
            &WorkloadConfig {
                total: 20,
                span: SimDuration::from_secs(5),
                functions: 2,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let reports = reports(&SchedulerKind::PAPER_FOUR, &w, "cpu", DEFAULT_WINDOW);
        let summary = summary_table(&reports);
        assert!(summary.contains("faasbatch"));
        let cdfs: Vec<(&str, Cdf)> = reports
            .iter()
            .map(|r| (r.scheduler.as_str(), r.scheduling_cdf()))
            .collect();
        let t = cdf_table("scheduling", &cdfs);
        assert!(t.contains("p50"));
    }
}
