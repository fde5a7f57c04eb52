//! The typed scheduler registry: every comparison scheduler by name.
//!
//! [`SchedulerKind`] enumerates the six schedulers of the comparison —
//! Vanilla, SFS, Kraken, Hiku, core-late-bind, and FaaSBatch — in
//! canonical sweep order, and [`SchedulerKind::parse`] turns a CLI /
//! bench name into a typed value with an error that lists every valid
//! name (mirroring [`crate::routing::RoutingKind::parse`]). A parsed
//! kind builds a ready-to-run [`Policy`] plus the dispatch interval its
//! harness run needs, and [`run_kinds`] replays a workload under any set
//! of kinds, so the CLI, bench bins, fleet workers, and test matrices all
//! share one spelling of each name, one construction path, and one runner.

use crate::policy::{FaasBatchConfig, FaasBatchPolicy};
use faasbatch_metrics::events::{NoopSink, TraceSink};
use faasbatch_metrics::report::RunReport;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::run_simulation_traced;
use faasbatch_schedulers::hiku::Hiku;
use faasbatch_schedulers::kraken::{Kraken, KrakenCalibration};
use faasbatch_schedulers::late_bind::CoreLateBind;
use faasbatch_schedulers::policy::Policy;
use faasbatch_schedulers::sfs::Sfs;
use faasbatch_schedulers::vanilla::Vanilla;
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::workload::Workload;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned by [`SchedulerKind::parse`] for an unrecognised
/// scheduler name.
///
/// Its [`Display`](fmt::Display) lists every valid name, so CLI users see
/// the menu instead of a bare failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheduler {
    /// The name that failed to parse.
    pub input: String,
}

impl fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheduler `{}`; valid schedulers: ", self.input)?;
        for (i, kind) in SchedulerKind::ALL.into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", kind.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownScheduler {}

/// Enumerates the comparison schedulers, for CLI / bench sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// One container per invocation (`faasbatch_schedulers::vanilla`).
    Vanilla,
    /// Per-invocation containers + aging CPU weights
    /// (`faasbatch_schedulers::sfs`).
    Sfs,
    /// SLO-slack serial batching (`faasbatch_schedulers::kraken`).
    Kraken,
    /// Pull-based worker-initiated scheduling
    /// (`faasbatch_schedulers::hiku`).
    Hiku,
    /// Core-granular late binding (`faasbatch_schedulers::late_bind`).
    CoreLateBind,
    /// The paper's batching + expansion scheduler
    /// ([`crate::policy::FaasBatchPolicy`]).
    FaasBatch,
}

/// Everything needed to instantiate any scheduler of the comparison.
///
/// Kraken needs a calibration (normally derived from a Vanilla run of the
/// same workload) and FaaSBatch a full [`FaasBatchConfig`]; the rest are
/// parameter-free. Bundling them lets one setup build all six.
#[derive(Debug, Clone)]
pub struct SchedulerSetup {
    /// Dispatch window for the windowed schedulers (Kraken, FaaSBatch).
    pub window: SimDuration,
    /// Kraken's execution-time calibration ([`run_kinds`] replaces it with
    /// one derived from a Vanilla run of the replayed workload).
    pub kraken: KrakenCalibration,
    /// FaaSBatch's full configuration (its `window` field should agree
    /// with `window`; [`SchedulerSetup::new`] keeps them in sync).
    pub faasbatch: FaasBatchConfig,
}

impl SchedulerSetup {
    /// A setup with default Kraken calibration and default FaaSBatch
    /// knobs over the given dispatch window.
    pub fn new(window: SimDuration) -> Self {
        SchedulerSetup {
            window,
            kraken: KrakenCalibration::default(),
            faasbatch: FaasBatchConfig::with_window(window),
        }
    }

    /// Replaces the Kraken calibration (e.g. with
    /// [`KrakenCalibration::from_vanilla`]).
    pub fn with_kraken_calibration(mut self, calibration: KrakenCalibration) -> Self {
        self.kraken = calibration;
        self
    }
}

impl SchedulerKind {
    /// All comparison schedulers, in sweep order.
    pub const ALL: [SchedulerKind; 6] = [
        SchedulerKind::Vanilla,
        SchedulerKind::Sfs,
        SchedulerKind::Kraken,
        SchedulerKind::Hiku,
        SchedulerKind::CoreLateBind,
        SchedulerKind::FaasBatch,
    ];

    /// The paper's own comparison (Vanilla, SFS, Kraken, FaaSBatch), in the
    /// report order of its figures.
    pub const PAPER_FOUR: [SchedulerKind; 4] = [
        SchedulerKind::Vanilla,
        SchedulerKind::Sfs,
        SchedulerKind::Kraken,
        SchedulerKind::FaasBatch,
    ];

    /// CLI name of the scheduler.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Vanilla => "vanilla",
            SchedulerKind::Sfs => "sfs",
            SchedulerKind::Kraken => "kraken",
            SchedulerKind::Hiku => "hiku",
            SchedulerKind::CoreLateBind => "core-late-bind",
            SchedulerKind::FaasBatch => "faasbatch",
        }
    }

    /// Parses a CLI name; the error lists the valid names.
    pub fn parse(s: &str) -> Result<SchedulerKind, UnknownScheduler> {
        SchedulerKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| UnknownScheduler {
                input: s.to_owned(),
            })
    }

    /// Builds a fresh policy instance plus the dispatch interval to pass
    /// to the harness (`Some(window)` for the windowed schedulers, `None`
    /// for the arrival-driven ones).
    pub fn build(self, setup: &SchedulerSetup) -> (Box<dyn Policy>, Option<SimDuration>) {
        match self {
            SchedulerKind::Vanilla => (Box::new(Vanilla::new()), None),
            SchedulerKind::Sfs => (Box::new(Sfs::new()), None),
            SchedulerKind::Kraken => (
                Box::new(Kraken::new(setup.kraken.clone(), setup.window)),
                Some(setup.window),
            ),
            SchedulerKind::Hiku => (Box::new(Hiku::new()), None),
            SchedulerKind::CoreLateBind => (Box::new(CoreLateBind::new()), None),
            SchedulerKind::FaasBatch => (
                Box::new(FaasBatchPolicy::new(setup.faasbatch.clone())),
                Some(setup.faasbatch.window),
            ),
        }
    }
}

/// One replay of [`run_kinds`]: the report plus the sink the run was
/// traced through, returned for downcasting.
pub type KindRun = (RunReport, Option<Box<dyn TraceSink>>);

/// Replays `workload` under each of `kinds` with `cfg` and returns one run
/// per kind, in `kinds` order.
///
/// `sink(kind)` is asked once per run for the sink to trace it through
/// (`None` runs untraced). Kraken calibrates its SLOs from a Vanilla run of
/// the same workload: from the Vanilla run in `kinds` when there is one
/// (sink attached, so a controller sink shapes both), otherwise from an
/// extra untraced Vanilla replay under the same `cfg`. Every other
/// scheduler is built from `setup` as given.
///
/// # Examples
///
/// ```
/// use faasbatch_core::scheduler_kind::{run_kinds, SchedulerKind, SchedulerSetup};
/// use faasbatch_schedulers::config::SimConfig;
/// use faasbatch_simcore::rng::DetRng;
/// use faasbatch_simcore::time::SimDuration;
/// use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
///
/// let small = WorkloadConfig { total: 20, functions: 2, ..WorkloadConfig::default() };
/// let w = cpu_workload(&DetRng::new(42), &small);
/// let setup = SchedulerSetup::new(SimDuration::from_millis(200));
/// let cfg = SimConfig::default();
/// let runs = run_kinds(&SchedulerKind::PAPER_FOUR, &w, &cfg, "cpu", &setup, |_| None);
/// assert_eq!(runs[3].0.scheduler, "faasbatch");
/// ```
pub fn run_kinds(
    kinds: &[SchedulerKind],
    workload: &Workload,
    cfg: &SimConfig,
    label: &str,
    setup: &SchedulerSetup,
    mut sink: impl FnMut(SchedulerKind) -> Option<Box<dyn TraceSink>>,
) -> Vec<KindRun> {
    let run = |kind: SchedulerKind, setup: &SchedulerSetup, sink: Option<Box<dyn TraceSink>>| {
        let (policy, interval) = kind.build(setup);
        let traced = sink.is_some();
        let sink = sink.unwrap_or_else(|| Box::new(NoopSink));
        let (report, sink) =
            run_simulation_traced(policy, workload, cfg.clone(), label, interval, sink);
        (report, traced.then_some(sink))
    };
    let mut setup = setup.clone();
    let mut runs: Vec<Option<KindRun>> = kinds.iter().map(|_| None).collect();
    if kinds.contains(&SchedulerKind::Kraken) {
        let vanilla = SchedulerKind::Vanilla;
        let listed = kinds.iter().position(|&k| k == vanilla);
        let vanilla_run = run(vanilla, &setup, listed.and_then(|_| sink(vanilla)));
        setup.kraken = KrakenCalibration::from_vanilla(&vanilla_run.0);
        if let Some(i) = listed {
            runs[i] = Some(vanilla_run);
        }
    }
    kinds
        .iter()
        .zip(runs)
        .map(|(&kind, done)| done.unwrap_or_else(|| run(kind, &setup, sink(kind))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};

    fn small_workload() -> Workload {
        cpu_workload(
            &DetRng::new(1),
            &WorkloadConfig {
                total: 30,
                span: SimDuration::from_secs(5),
                functions: 2,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        )
    }

    fn reports(kinds: &[SchedulerKind], w: &Workload) -> Vec<RunReport> {
        let setup = SchedulerSetup::new(SimDuration::from_millis(200));
        run_kinds(kinds, w, &SimConfig::default(), "cpu", &setup, |_| None)
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    #[test]
    fn kraken_alone_calibrates_like_kraken_inside_all() {
        let w = small_workload();
        let all = reports(&SchedulerKind::ALL, &w);
        let alone = reports(&[SchedulerKind::Kraken], &w);
        assert_eq!(alone[0], all[2]);
        // Vanilla after Kraken in the slice still calibrates it.
        let reversed = reports(&[SchedulerKind::Kraken, SchedulerKind::Vanilla], &w);
        assert_eq!(reversed[0], all[2]);
        assert_eq!(reversed[1], all[0]);
    }

    #[test]
    fn sinks_are_requested_once_per_run_and_returned() {
        use faasbatch_metrics::events::VecSink;
        let w = small_workload();
        let mut asked = Vec::new();
        let setup = SchedulerSetup::new(SimDuration::from_millis(200));
        let cfg = SimConfig::default();
        let runs = run_kinds(&SchedulerKind::ALL, &w, &cfg, "cpu", &setup, |kind| {
            asked.push(kind);
            Some(Box::new(VecSink::new()))
        });
        assert_eq!(asked, SchedulerKind::ALL);
        for (report, sink) in &runs {
            let sink = sink.as_ref().expect("traced run returns its sink");
            let events = sink.as_any().downcast_ref::<VecSink>().unwrap().events();
            assert!(!events.is_empty(), "{}", report.scheduler);
        }
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()), Ok(kind));
        }
    }

    #[test]
    fn unknown_name_lists_valid_schedulers() {
        let err = SchedulerKind::parse("shortest-job-first").unwrap_err();
        assert_eq!(err.input, "shortest-job-first");
        let msg = err.to_string();
        for kind in SchedulerKind::ALL {
            assert!(
                msg.contains(kind.name()),
                "error message should list `{}`: {msg}",
                kind.name()
            );
        }
    }

    #[test]
    fn build_names_match_parse_names() {
        let setup = SchedulerSetup::new(SimDuration::from_millis(200));
        for kind in SchedulerKind::ALL {
            let (policy, interval) = kind.build(&setup);
            assert_eq!(policy.name(), kind.name());
            // Windowed schedulers get a dispatch interval; the rest don't.
            let windowed = matches!(kind, SchedulerKind::Kraken | SchedulerKind::FaasBatch);
            assert_eq!(interval.is_some(), windowed, "{}", kind.name());
        }
    }
}
