//! Fleet-level configuration: worker count, per-worker scheduler, the
//! router's dispatch window, and the fault schedule.

use faasbatch_core::policy::FaasBatchConfig;
use faasbatch_core::scheduler_kind::{SchedulerKind, SchedulerSetup};
use faasbatch_metrics::autoscaler::AutoscalerConfig;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a worker leaves the fleet mid-replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The worker dies instantly: invocations still in flight at the fault
    /// instant are lost and re-dispatched to surviving workers.
    Crash,
    /// The worker stops accepting new work but finishes what it already
    /// holds; nothing is lost.
    Drain,
}

/// One scheduled worker fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerFault {
    /// Index of the affected worker.
    pub worker: usize,
    /// Fault instant on the fleet clock.
    pub at: SimTime,
    /// Crash (lose in-flight work) or drain (finish it).
    pub kind: FaultKind,
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of workers.
    pub workers: usize,
    /// Router dispatch window: invocations of one function arriving within
    /// the same window form a group that is routed to one worker as a unit
    /// (the fleet-level extension of the Invoke Mapper's never-split
    /// invariant).
    pub window: SimDuration,
    /// Per-worker simulation config (identical across workers).
    pub sim: SimConfig,
    /// The scheduler every worker runs. The fleet is homogeneous — the
    /// paper's single-worker comparison is reproduced per worker, and the
    /// fleet layer isolates *routing* policy on top of it.
    pub scheduler: SchedulerKind,
    /// FaaSBatch's knobs when `scheduler` is FaaSBatch; its `window` is also
    /// the dispatch window of the other windowed scheduler, Kraken.
    pub faasbatch: FaasBatchConfig,
    /// Scheduled worker faults.
    pub faults: Vec<WorkerFault>,
    /// Maximum re-dispatch attempts per invocation before the run is
    /// declared infeasible.
    pub max_retries: u32,
    /// Delay between a crash and the re-dispatch of its lost invocations
    /// (failure detection + re-routing cost, charged to scheduling latency).
    pub redispatch_delay: SimDuration,
    /// When set, every worker runs its own trace-driven autoscaling
    /// controller with this configuration (DESIGN.md §12). `None` replays
    /// with the static prewarm/keep-alive config only.
    #[serde(default)]
    pub autoscaler: Option<AutoscalerConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            window: SimDuration::from_millis(200),
            sim: SimConfig::default(),
            scheduler: SchedulerKind::FaasBatch,
            faasbatch: FaasBatchConfig::default(),
            faults: Vec::new(),
            max_retries: 3,
            redispatch_delay: SimDuration::from_millis(50),
            autoscaler: None,
        }
    }
}

impl FleetConfig {
    /// Panics with a descriptive message when the configuration is
    /// internally inconsistent (zero workers, zero window, or a fault on a
    /// worker index that does not exist).
    pub fn validate(&self) {
        assert!(self.workers >= 1, "fleet needs at least one worker");
        assert!(!self.window.is_zero(), "router window must be positive");
        for f in &self.faults {
            assert!(
                f.worker < self.workers,
                "fault references worker {} but the fleet has {}",
                f.worker,
                self.workers
            );
        }
        if let Some(ac) = &self.autoscaler {
            if let Err(e) = ac.validate() {
                panic!("invalid autoscaler config: {e}");
            }
        }
    }

    /// What every worker builds its scheduler from.
    pub fn setup(&self) -> SchedulerSetup {
        SchedulerSetup {
            faasbatch: self.faasbatch.clone(),
            ..SchedulerSetup::new(self.faasbatch.window)
        }
    }

    /// True when `worker` still accepts new arrivals at `at` (no crash or
    /// drain fault has taken effect yet).
    pub fn accepting(&self, worker: usize, at: SimTime) -> bool {
        !self.faults.iter().any(|f| f.worker == worker && f.at <= at)
    }

    /// The crash instant of `worker`, if it has a crash fault.
    pub fn crash_at(&self, worker: usize) -> Option<SimTime> {
        self.faults
            .iter()
            .find(|f| f.worker == worker && f.kind == FaultKind::Crash)
            .map(|f| f.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        FleetConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        FleetConfig {
            workers: 0,
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "fault references worker")]
    fn fault_on_missing_worker_rejected() {
        FleetConfig {
            workers: 2,
            faults: vec![WorkerFault {
                worker: 5,
                at: SimTime::from_secs(1),
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    fn accepting_respects_faults() {
        let cfg = FleetConfig {
            workers: 2,
            faults: vec![WorkerFault {
                worker: 1,
                at: SimTime::from_secs(5),
                kind: FaultKind::Drain,
            }],
            ..FleetConfig::default()
        };
        assert!(cfg.accepting(1, SimTime::from_secs(4)));
        assert!(!cfg.accepting(1, SimTime::from_secs(5)));
        assert!(cfg.accepting(0, SimTime::from_secs(9)));
        assert_eq!(cfg.crash_at(1), None);
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let cfg = FleetConfig {
            faults: vec![WorkerFault {
                worker: 0,
                at: SimTime::from_secs(3),
                kind: FaultKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let json = serde_json::to_string(&cfg).expect("serializes");
        let back: FleetConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(cfg, back);
    }
}
