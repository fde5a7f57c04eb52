//! Determinism guarantees: a run is a pure function of (seed, config).
//! Bit-identical reports make every figure in EXPERIMENTS.md reproducible.

use faasbatch::core::policy::{run_faasbatch_traced, FaasBatchConfig};
use faasbatch::core::scheduler_kind::{run_kinds, KindRun, SchedulerKind, SchedulerSetup};
use faasbatch::metrics::autoscaler::{AutoscalerConfig, AutoscalerSink};
use faasbatch::metrics::events::{MultiSink, SimEvent, TraceSink, VecSink};
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};

fn wl(seed: u64) -> Workload {
    cpu_workload(
        &DetRng::new(seed),
        &WorkloadConfig {
            total: 120,
            span: SimDuration::from_secs(10),
            functions: 4,
            bursts: 3,
            ..WorkloadConfig::default()
        },
    )
}

/// Runs `kind` over `w` through the shared runner (which calibrates Kraken
/// from a Vanilla run), traced through `sink` when one is given.
fn run(
    kind: SchedulerKind,
    w: &Workload,
    cfg: &SimConfig,
    sink: Option<Box<dyn TraceSink>>,
) -> KindRun {
    let mut sink = sink;
    let setup = SchedulerSetup::new(SimDuration::from_millis(200));
    let mut runs = run_kinds(&[kind], w, cfg, "cpu", &setup, |_| sink.take());
    runs.pop().expect("one run per kind")
}

fn run_scheduler(kind: SchedulerKind, w: &Workload) -> RunReport {
    run(kind, w, &SimConfig::default(), None).0
}

#[test]
fn workload_generation_is_deterministic() {
    assert_eq!(wl(1), wl(1));
    assert_ne!(wl(1), wl(2), "different seeds must differ");
    let io_a = io_workload(&DetRng::new(9), &WorkloadConfig::default());
    let io_b = io_workload(&DetRng::new(9), &WorkloadConfig::default());
    assert_eq!(io_a, io_b);
}

#[test]
fn every_scheduler_is_bit_reproducible() {
    let w = wl(77);
    for kind in SchedulerKind::ALL {
        let a = run_scheduler(kind, &w);
        let b = run_scheduler(kind, &w);
        assert_eq!(a, b, "{} run not reproducible", kind.name());
    }
}

#[test]
fn reports_roundtrip_through_json() {
    let w = wl(3);
    let report = run_scheduler(SchedulerKind::FaasBatch, &w);
    let json = serde_json::to_string(&report).expect("serializes");
    let back: RunReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(report, back);
}

#[test]
fn different_seeds_give_different_results() {
    let a = run_scheduler(SchedulerKind::Vanilla, &wl(1));
    let b = run_scheduler(SchedulerKind::Vanilla, &wl(2));
    assert_ne!(a.records, b.records);
}

/// Runs `name` with the autoscaling controller attached and returns the
/// report plus the serialized JSONL event log.
fn run_scheduler_autoscaled(
    kind: SchedulerKind,
    w: &Workload,
    ac: &AutoscalerConfig,
) -> (RunReport, String) {
    let cfg = SimConfig {
        keep_alive: SimDuration::from_secs(2),
        ..SimConfig::default()
    };
    let sink: Box<dyn TraceSink> = Box::new(MultiSink::new(vec![
        Box::new(AutoscalerSink::new(ac.clone())),
        Box::new(VecSink::new()),
    ]));
    let (report, sink) = run(kind, w, &cfg, Some(sink));
    let sink = sink.expect("traced run returns its sink");
    let events: &[SimEvent] = sink
        .as_any()
        .downcast_ref::<MultiSink>()
        .expect("multi sink round-trips")
        .sinks()[1]
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink")
        .events();
    let mut jsonl = String::new();
    for e in events {
        jsonl.push_str(&serde_json::to_string(e).expect("events serialize"));
        jsonl.push('\n');
    }
    (report, jsonl)
}

/// Same seed + controller config ⇒ bit-identical reports *and* bit-identical
/// serialized JSONL event logs, scale actions included.
#[test]
fn controller_runs_are_bit_reproducible() {
    let w = wl(41);
    let ac = AutoscalerConfig {
        prewarm_cap: 3,
        keepalive_floor: SimDuration::from_secs(2),
        keepalive_ceiling: SimDuration::from_secs(30),
        base_keep_alive: SimDuration::from_secs(2),
        ..AutoscalerConfig::default()
    };
    for kind in SchedulerKind::PAPER_FOUR {
        let name = kind.name();
        let (report_a, jsonl_a) = run_scheduler_autoscaled(kind, &w, &ac);
        let (report_b, jsonl_b) = run_scheduler_autoscaled(kind, &w, &ac);
        assert_eq!(report_a, report_b, "{name} report not reproducible");
        assert_eq!(jsonl_a, jsonl_b, "{name} event log not reproducible");
        assert!(
            jsonl_a.contains("ScaleKeepAlive") || jsonl_a.contains("ScalePrewarm"),
            "{name} log carries no scale actions — the comparison is vacuous"
        );
    }
}

/// The whole ablation artifact — static and controller legs across all four
/// schedulers — serializes identically run to run.
#[test]
fn ablation_summary_is_deterministic() {
    use faasbatch_bench::{autoscaler_ablation, autoscaler_ablation_setup};
    let w = wl(13);
    let (cfg, ac) = autoscaler_ablation_setup();
    let window = SimDuration::from_millis(200);
    let a = autoscaler_ablation(&w, "cpu", window, &cfg, &ac);
    let b = autoscaler_ablation(&w, "cpu", window, &cfg, &ac);
    assert_eq!(
        serde_json::to_string_pretty(&a).expect("summary serializes"),
        serde_json::to_string_pretty(&b).expect("summary serializes"),
        "ablation summary not reproducible"
    );
}

/// Two identical simulated runs routed through a `TelemetrySink` fold to
/// byte-identical `/json` registry snapshots — the live-metrics plane
/// inherits the determinism guarantee of the trace spine.
#[test]
fn telemetry_registry_snapshot_is_byte_identical() {
    use faasbatch::metrics::telemetry::{MetricRegistry, TelemetrySink};
    fn snapshot(seed: u64) -> String {
        let w = wl(seed);
        let registry = MetricRegistry::new();
        let sink: Box<dyn TraceSink> = Box::new(TelemetrySink::new(registry.clone()));
        let _ = run_faasbatch_traced(
            &w,
            SimConfig::default(),
            FaasBatchConfig::default(),
            "cpu",
            sink,
        );
        registry.render_json()
    }
    let a = snapshot(29);
    let b = snapshot(29);
    assert_eq!(a, b, "telemetry /json snapshot not reproducible");
    assert!(a.contains("\"faasbatch_arrivals_total\""));
    assert!(a.contains("\"faasbatch_e2e_latency_us\""));
    assert_ne!(a, snapshot(30), "different seeds must fold differently");
}
