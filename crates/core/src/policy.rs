//! FaaSBatch as a scheduling policy over the shared harness.
//!
//! This wires the three modules together exactly as §III describes:
//! the [`InvokeMapper`] buffers the request
//! queue for one dispatch window and emits function groups; the
//! Inline-Parallel Producer maps each group onto **one** container and
//! expands its invocations as parallel threads
//! ([`ExecMode::Parallel`]); and the Resource Multiplexer is switched on
//! inside every container so repeated client creations are served from
//! cache. Both the window and the multiplexer are configurable for the
//! dispatch-interval sweeps (Fig. 13/14) and the ablation study.

use crate::mapper::InvokeMapper;
use faasbatch_metrics::events::TraceSink;
use faasbatch_metrics::report::RunReport;
use faasbatch_schedulers::config::SimConfig;
use faasbatch_schedulers::harness::{run_simulation, run_simulation_traced, run_source_traced};
use faasbatch_schedulers::policy::{Completion, Ctx, DispatchRequest, ExecMode, Policy};
use faasbatch_simcore::time::SimDuration;
use faasbatch_trace::stream::InvocationSource;
use faasbatch_trace::workload::{Invocation, Workload};
use serde::{Deserialize, Serialize};

/// FaaSBatch configuration knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaasBatchConfig {
    /// Dispatch window (the paper's default: 0.2 s; swept 0.01–0.5 s in
    /// Fig. 13/14).
    pub window: SimDuration,
    /// Enable the Resource Multiplexer (off = ablation).
    pub multiplex: bool,
    /// Optional cap on group size (None = batch all concurrent invocations,
    /// the paper's strategy).
    pub max_group_size: Option<usize>,
    /// Optional per-container CPU limit (customer-specified `cpu_count`).
    pub cpu_limit: Option<f64>,
    /// Hold each group's responses until the whole group finishes (the
    /// paper's prototype semantics — its HTTP request returns only after
    /// all invocations of the function group complete). Off by default:
    /// early return, the paper's stated future work.
    pub batch_responses: bool,
}

impl Default for FaasBatchConfig {
    fn default() -> Self {
        FaasBatchConfig {
            window: InvokeMapper::DEFAULT_WINDOW,
            multiplex: true,
            max_group_size: None,
            cpu_limit: None,
            batch_responses: false,
        }
    }
}

impl FaasBatchConfig {
    /// Config with a specific dispatch window.
    pub fn with_window(window: SimDuration) -> Self {
        FaasBatchConfig {
            window,
            ..FaasBatchConfig::default()
        }
    }
}

/// The FaaSBatch scheduler (window batching + inline parallelism +
/// resource multiplexing).
#[derive(Debug, Clone)]
pub struct FaasBatchPolicy {
    cfg: FaasBatchConfig,
    mapper: InvokeMapper,
}

impl FaasBatchPolicy {
    /// Window-timer token.
    const WINDOW: u64 = 0;

    /// Creates the policy from its configuration.
    pub fn new(cfg: FaasBatchConfig) -> Self {
        let mut mapper = InvokeMapper::new(cfg.window);
        if let Some(cap) = cfg.max_group_size {
            mapper = mapper.with_max_group(cap);
        }
        FaasBatchPolicy { cfg, mapper }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FaasBatchConfig {
        &self.cfg
    }
}

impl Default for FaasBatchPolicy {
    fn default() -> Self {
        FaasBatchPolicy::new(FaasBatchConfig::default())
    }
}

impl Policy for FaasBatchPolicy {
    fn name(&self) -> String {
        if self.cfg.multiplex {
            "faasbatch".to_owned()
        } else {
            "faasbatch-nomux".to_owned()
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.cfg.window, Self::WINDOW);
    }

    fn on_arrival(&mut self, _ctx: &mut Ctx<'_>, invocation: &Invocation) {
        self.mapper.observe(invocation.clone());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for group in self.mapper.drain() {
            let mut req = DispatchRequest::new(group.invocations, ExecMode::Parallel);
            req.multiplex_clients = self.cfg.multiplex;
            req.cpu_limit = self.cfg.cpu_limit;
            req.completion = if self.cfg.batch_responses {
                Completion::PerBatch
            } else {
                Completion::PerInvocation
            };
            ctx.dispatch(req);
        }
        if !ctx.all_done() {
            ctx.set_timer(self.cfg.window, Self::WINDOW);
        }
    }
}

/// Runs FaaSBatch over `workload` — convenience wrapper around the shared
/// harness.
///
/// # Examples
///
/// ```
/// use faasbatch_core::policy::{run_faasbatch, FaasBatchConfig};
/// use faasbatch_schedulers::config::SimConfig;
/// use faasbatch_simcore::rng::DetRng;
/// use faasbatch_simcore::time::SimDuration;
/// use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
///
/// let w = cpu_workload(&DetRng::new(42), &WorkloadConfig {
///     total: 20, span: SimDuration::from_secs(5), functions: 2, bursts: 2,
///     ..WorkloadConfig::default()
/// });
/// let report = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "cpu");
/// assert_eq!(report.records.len(), 20);
/// ```
pub fn run_faasbatch(
    workload: &Workload,
    sim: SimConfig,
    cfg: FaasBatchConfig,
    label: &str,
) -> RunReport {
    let window = cfg.window;
    run_simulation(
        Box::new(FaasBatchPolicy::new(cfg)),
        workload,
        sim,
        label,
        Some(window),
    )
}

/// [`run_faasbatch`] over any [`InvocationSource`] — e.g. a
/// [`WorkloadStream`](faasbatch_trace::stream::WorkloadStream) sampling
/// invocations on demand, so day-scale replays never materialise the full
/// trace — with an observable event stream.
pub fn run_faasbatch_source_traced(
    source: impl InvocationSource,
    sim: SimConfig,
    cfg: FaasBatchConfig,
    label: &str,
    sink: Box<dyn TraceSink>,
) -> (RunReport, Box<dyn TraceSink>) {
    let window = cfg.window;
    run_source_traced(
        Box::new(FaasBatchPolicy::new(cfg)),
        source,
        sim,
        label,
        Some(window),
        sink,
    )
}

/// [`run_faasbatch`] with an observable event stream: every event the run
/// derives its report from also flows through `sink`, which is returned for
/// downcasting (DESIGN.md §11).
pub fn run_faasbatch_traced(
    workload: &Workload,
    sim: SimConfig,
    cfg: FaasBatchConfig,
    label: &str,
    sink: Box<dyn TraceSink>,
) -> (RunReport, Box<dyn TraceSink>) {
    let window = cfg.window;
    run_simulation_traced(
        Box::new(FaasBatchPolicy::new(cfg)),
        workload,
        sim,
        label,
        Some(window),
        sink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasbatch_schedulers::vanilla::Vanilla;
    use faasbatch_simcore::rng::DetRng;
    use faasbatch_trace::workload::{cpu_workload, io_workload, WorkloadConfig};

    fn wl(total: usize, functions: usize, seed: u64) -> Workload {
        cpu_workload(
            &DetRng::new(seed),
            &WorkloadConfig {
                total,
                span: SimDuration::from_secs(10),
                functions,
                bursts: 3,
                ..WorkloadConfig::default()
            },
        )
    }

    #[test]
    fn completes_cpu_workload_parallel_no_queuing() {
        let w = wl(60, 4, 1);
        let report = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "cpu");
        assert_eq!(report.records.len(), 60);
        assert!(report.inconsistencies().is_empty());
        // Inline parallelism: no queuing inside containers.
        assert!(report.records.iter().all(|r| r.latency.queuing.is_zero()));
        assert_eq!(report.scheduler, "faasbatch");
    }

    #[test]
    fn provisions_far_fewer_containers_than_vanilla() {
        // A concentrated burst — the regime the paper targets (Fig. 13(b)).
        let w = cpu_workload(
            &DetRng::new(2),
            &WorkloadConfig {
                total: 120,
                span: SimDuration::from_millis(300),
                functions: 4,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let fb = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "cpu");
        let van = run_simulation(
            Box::new(Vanilla::new()),
            &w,
            SimConfig::default(),
            "cpu",
            None,
        );
        assert!(
            fb.provisioned_containers * 2 < van.provisioned_containers,
            "faasbatch {} vs vanilla {}",
            fb.provisioned_containers,
            van.provisioned_containers
        );
    }

    #[test]
    fn window_batches_share_containers() {
        // Everything arrives in one window for one function → exactly one
        // container.
        let w = cpu_workload(
            &DetRng::new(3),
            &WorkloadConfig {
                total: 30,
                span: SimDuration::from_millis(100),
                functions: 1,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let report = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "cpu");
        assert_eq!(report.provisioned_containers, 1);
        assert!((report.invocations_per_container() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn multiplexer_eliminates_repeated_client_creation() {
        let w = io_workload(
            &DetRng::new(4),
            &WorkloadConfig {
                total: 80,
                span: SimDuration::from_secs(10),
                functions: 2,
                bursts: 2,
                ..WorkloadConfig::default()
            },
        );
        let on = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "io");
        let off = run_faasbatch(
            &w,
            SimConfig::default(),
            FaasBatchConfig {
                multiplex: false,
                ..FaasBatchConfig::default()
            },
            "io",
        );
        assert_eq!(on.client_requests, 80);
        assert_eq!(off.client_requests, 80);
        assert_eq!(
            off.clients_created, 80,
            "without the multiplexer every request builds"
        );
        assert!(
            on.clients_created <= on.provisioned_containers,
            "multiplexed creations ({}) bounded by containers ({})",
            on.clients_created,
            on.provisioned_containers
        );
        assert!(on.client_memory_per_request() < off.client_memory_per_request() / 4.0);
        // And it is faster end-to-end.
        assert!(on.end_to_end_cdf().mean() < off.end_to_end_cdf().mean());
    }

    #[test]
    fn larger_window_means_fewer_containers() {
        let w = wl(200, 4, 5);
        let narrow = run_faasbatch(
            &w,
            SimConfig::default(),
            FaasBatchConfig::with_window(SimDuration::from_millis(10)),
            "cpu",
        );
        let wide = run_faasbatch(
            &w,
            SimConfig::default(),
            FaasBatchConfig::with_window(SimDuration::from_millis(500)),
            "cpu",
        );
        assert!(
            wide.provisioned_containers <= narrow.provisioned_containers,
            "wide {} vs narrow {}",
            wide.provisioned_containers,
            narrow.provisioned_containers
        );
    }

    #[test]
    fn max_group_size_is_respected() {
        let w = cpu_workload(
            &DetRng::new(6),
            &WorkloadConfig {
                total: 40,
                span: SimDuration::from_millis(100),
                functions: 1,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let report = run_faasbatch(
            &w,
            SimConfig::default(),
            FaasBatchConfig {
                max_group_size: Some(10),
                ..FaasBatchConfig::default()
            },
            "cpu",
        );
        // 40 invocations in one window, cap 10 → 4 containers.
        assert_eq!(report.provisioned_containers, 4);
    }

    #[test]
    fn batch_responses_hold_until_group_finishes() {
        // One window, one function, varying work: under PerBatch semantics
        // every member completes at the same instant (the group barrier) and
        // the barrier wait shows up as queuing.
        let w = cpu_workload(
            &DetRng::new(8),
            &WorkloadConfig {
                total: 20,
                span: SimDuration::from_millis(100),
                functions: 1,
                bursts: 1,
                ..WorkloadConfig::default()
            },
        );
        let batched = run_faasbatch(
            &w,
            SimConfig::default(),
            FaasBatchConfig {
                batch_responses: true,
                ..FaasBatchConfig::default()
            },
            "cpu",
        );
        assert_eq!(batched.records.len(), 20);
        assert!(batched.inconsistencies().is_empty());
        let completions: std::collections::HashSet<_> =
            batched.records.iter().map(|r| r.completion).collect();
        assert_eq!(completions.len(), 1, "all members share the batch barrier");
        assert!(
            batched.records.iter().any(|r| !r.latency.queuing.is_zero()),
            "someone must wait at the barrier"
        );
        // Early return strictly dominates on mean latency.
        let early = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "cpu");
        assert!(early.end_to_end_cdf().mean() < batched.end_to_end_cdf().mean());
        // The barrier never delays the group's final completion instant
        // (the latency *max* can differ: under the barrier the earliest
        // arriver owns the longest span, not the last finisher).
        let last =
            |r: &faasbatch_metrics::report::RunReport| r.records.iter().map(|x| x.completion).max();
        assert_eq!(last(&early), last(&batched));
    }

    #[test]
    fn deterministic_runs() {
        let w = wl(50, 3, 7);
        let a = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "cpu");
        let b = run_faasbatch(&w, SimConfig::default(), FaasBatchConfig::default(), "cpu");
        assert_eq!(a, b);
    }
}
