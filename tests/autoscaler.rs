//! Properties of the trace-driven autoscaling controller (DESIGN.md §12):
//! a no-op controller never perturbs the run, the pre-warm budget respects
//! its cap, and keep-alive honours the floor while work is queued.

use faasbatch::core::scheduler_kind::{run_kinds, KindRun, SchedulerKind, SchedulerSetup};
use faasbatch::metrics::autoscaler::{AutoscalerConfig, AutoscalerSink, ScaleAction};
use faasbatch::metrics::events::{MultiSink, SimEvent, TraceSink, VecSink};
use faasbatch::metrics::report::RunReport;
use faasbatch::schedulers::config::SimConfig;
use faasbatch::simcore::rng::DetRng;
use faasbatch::simcore::time::SimDuration;
use faasbatch::trace::workload::{cpu_workload, io_workload, Workload, WorkloadConfig};
use proptest::prelude::*;

const SCHEDULERS: [SchedulerKind; 4] = SchedulerKind::PAPER_FOUR;
const WINDOW: SimDuration = SimDuration::from_millis(200);

fn wl(seed: u64, io: bool) -> Workload {
    let cfg = WorkloadConfig {
        total: 40,
        span: SimDuration::from_secs(4),
        functions: 3,
        bursts: 2,
        ..WorkloadConfig::default()
    };
    let rng = DetRng::new(seed);
    if io {
        io_workload(&rng, &cfg)
    } else {
        cpu_workload(&rng, &cfg)
    }
}

/// A short static keep-alive so the controller has something to improve.
fn sim_cfg() -> SimConfig {
    SimConfig {
        keep_alive: SimDuration::from_secs(2),
        ..SimConfig::default()
    }
}

/// An active controller matched to [`sim_cfg`].
fn active_cfg() -> AutoscalerConfig {
    AutoscalerConfig {
        prewarm_cap: 3,
        keepalive_floor: SimDuration::from_secs(2),
        keepalive_ceiling: SimDuration::from_secs(30),
        base_keep_alive: SimDuration::from_secs(2),
        ..AutoscalerConfig::default()
    }
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
    let setup = SchedulerSetup::new(WINDOW);
    let mut runs = run_kinds(&[kind], w, cfg, "t", &setup, |_| sink.take());
    runs.pop().expect("one run per kind")
}

/// Runs `scheduler` over `w` untraced.
fn run_plain(scheduler: SchedulerKind, w: &Workload, cfg: &SimConfig) -> RunReport {
    run(scheduler, w, cfg, None).0
}

/// Runs `scheduler` over `w` with a controller plus an event capture, and
/// returns (report, controller actions, captured events).
fn run_autoscaled(
    scheduler: SchedulerKind,
    w: &Workload,
    cfg: &SimConfig,
    ac: &AutoscalerConfig,
) -> (RunReport, Vec<ScaleAction>, Vec<SimEvent>) {
    let sink: Box<dyn TraceSink> = Box::new(MultiSink::new(vec![
        Box::new(AutoscalerSink::new(ac.clone())),
        Box::new(VecSink::new()),
    ]));
    let (report, sink) = run(scheduler, w, cfg, Some(sink));
    let sink = sink.expect("traced run returns its sink");
    let multi = sink
        .as_any()
        .downcast_ref::<MultiSink>()
        .expect("multi sink round-trips");
    let controller = multi.sinks()[0]
        .as_any()
        .downcast_ref::<AutoscalerSink>()
        .expect("controller sink");
    let events = multi.sinks()[1]
        .as_any()
        .downcast_ref::<VecSink>()
        .expect("vec sink")
        .events()
        .to_vec();
    let actions = controller
        .actions()
        .iter()
        .map(|&(_, a)| a)
        .collect::<Vec<_>>();
    (report, actions, events)
}

proptest! {
    /// (a) A controller whose actions are all no-ops (pre-warm disabled,
    /// keep-alive band pinned to the static TTL) leaves the run
    /// bit-identical to the untraced one.
    #[test]
    fn noop_controller_never_perturbs(
        seed in 0u64..300,
        io in 0usize..2,
        scheduler in 0usize..4,
    ) {
        let w = wl(seed, io == 1);
        let cfg = sim_cfg();
        let noop = AutoscalerConfig::noop(cfg.keep_alive);
        let plain = run_plain(SCHEDULERS[scheduler], &w, &cfg);
        let (auto_report, actions, _) = run_autoscaled(SCHEDULERS[scheduler], &w, &cfg, &noop);
        prop_assert!(actions.is_empty(), "no-op controller acted: {actions:?}");
        prop_assert_eq!(
            plain, auto_report,
            "{} perturbed by a no-op controller", SCHEDULERS[scheduler].name()
        );
    }

    /// (b) The outstanding pre-warm budget never exceeds the configured cap,
    /// on any scheduler or seed.
    #[test]
    fn prewarm_budget_never_exceeds_cap(
        seed in 0u64..300,
        scheduler in 0usize..4,
        cap in 1usize..5,
    ) {
        let w = wl(seed, false);
        let cfg = sim_cfg();
        let ac = AutoscalerConfig { prewarm_cap: cap, ..active_cfg() };
        let (_, actions, _) = run_autoscaled(SCHEDULERS[scheduler], &w, &cfg, &ac);
        for a in &actions {
            if let ScaleAction::Prewarm { count, .. } = a {
                prop_assert!(
                    *count <= cap,
                    "a single prewarm burst ({count}) exceeded the cap ({cap})"
                );
            }
        }
    }

    /// (c) Keep-alive never drops below the floor — and while a function
    /// still has queued (arrived but undispatched) invocations the
    /// controller holds the ceiling, never the floor.
    #[test]
    fn keepalive_respects_floor_under_backlog(
        seed in 0u64..300,
        scheduler in 0usize..4,
    ) {
        let w = wl(seed, false);
        let cfg = sim_cfg();
        let ac = active_cfg();
        let (_, _, events) = run_autoscaled(SCHEDULERS[scheduler], &w, &cfg, &ac);
        use faasbatch::metrics::events::EventKind;
        use std::collections::HashMap;
        let mut backlog: HashMap<u32, i64> = HashMap::new();
        for e in &events {
            match &e.kind {
                EventKind::Arrival { function, .. } => {
                    *backlog.entry(function.index()).or_insert(0) += 1;
                }
                EventKind::DispatchDecision { function, members, .. } => {
                    *backlog.entry(function.index()).or_insert(0) -= members.len() as i64;
                }
                EventKind::ScaleKeepAlive { function, keep_alive } => {
                    prop_assert!(
                        *keep_alive >= ac.keepalive_floor,
                        "keep-alive {keep_alive} fell below the floor {}",
                        ac.keepalive_floor
                    );
                    if backlog.get(&function.index()).copied().unwrap_or(0) > 0 {
                        prop_assert_eq!(
                            *keep_alive, ac.keepalive_ceiling,
                            "fn#{} had queued work but keep-alive was lowered",
                            function.index()
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// The watermark the controller reports never exceeds the cap either —
/// exhaustive over schedulers at a fixed seed, checking the sink's own
/// accounting rather than the emitted events.
#[test]
fn max_outstanding_watermark_respects_cap() {
    let w = wl(11, false);
    let cfg = sim_cfg();
    for cap in [1usize, 2, 4] {
        let ac = AutoscalerConfig {
            prewarm_cap: cap,
            ..active_cfg()
        };
        for scheduler in SCHEDULERS {
            let sink = Box::new(AutoscalerSink::new(ac.clone()));
            let (_, sink) = run(scheduler, &w, &cfg, Some(sink));
            let sink = sink.expect("traced run returns its sink");
            let stats = sink
                .as_any()
                .downcast_ref::<AutoscalerSink>()
                .expect("controller sink")
                .stats();
            assert!(
                stats.max_outstanding_prewarm <= cap,
                "{}: watermark {} exceeded cap {cap}",
                scheduler.name(),
                stats.max_outstanding_prewarm
            );
        }
    }
}

/// An active controller is itself deterministic: identical inputs produce
/// identical action sequences and reports.
#[test]
fn controller_actions_are_deterministic() {
    let w = wl(5, false);
    let cfg = sim_cfg();
    let ac = active_cfg();
    for scheduler in SCHEDULERS {
        let (ra, aa, ea) = run_autoscaled(scheduler, &w, &cfg, &ac);
        let (rb, ab, eb) = run_autoscaled(scheduler, &w, &cfg, &ac);
        let name = scheduler.name();
        assert_eq!(ra, rb, "{name} report diverged");
        assert_eq!(aa, ab, "{name} actions diverged");
        assert_eq!(ea, eb, "{name} event stream diverged");
    }
}
