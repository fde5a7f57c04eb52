//! # faasbatch-fleet
//!
//! Deterministic multi-worker fleet simulation on top of the single-worker
//! FaaSBatch reproduction.
//!
//! The paper evaluates FaaSBatch on one 32-vCPU worker. This crate scales
//! that model out: a fleet-level front door routes the invocation stream
//! across N identical workers, each replaying its share through the
//! shared runner ([`run_kinds`](faasbatch_core::scheduler_kind::run_kinds)),
//! under any of the six schedulers of
//! [`SchedulerKind`](faasbatch_core::scheduler_kind::SchedulerKind).
//! Three ideas define the layer:
//!
//! 1. **Pluggable routing** ([`routing`]) — a [`routing::RoutingPolicy`]
//!    trait with four built-ins: [`routing::RoundRobin`],
//!    [`routing::LeastLoaded`] (runnable-task pressure),
//!    [`routing::WarmAffinity`] (stable function→worker hashing), and
//!    [`routing::PullBased`] (idle workers pull from a shared queue,
//!    Hiku-style).
//! 2. **Group-unit routing** — the router places *function groups* (same
//!    function, same dispatch window), never single invocations, extending
//!    the Invoke Mapper's never-split invariant to the fleet.
//! 3. **Faults** ([`config::WorkerFault`]) — workers can crash (in-flight
//!    invocations re-dispatched to survivors under a bounded retry budget,
//!    the delay charged to scheduling latency) or drain (finish held work,
//!    accept nothing new). A fault schedule that strands an invocation past
//!    its budget surfaces as a typed [`error::FleetError`] instead of a
//!    completed report.
//!
//! The entry point is [`sim::run_fleet`]; results land in a
//! [`report::FleetReport`] with per-worker [`RunReport`]s plus fleet
//! aggregates (load-imbalance CoV, warm-hit rate, retry accounting). Same
//! seed and configuration ⇒ bit-identical report.
//! [`sim::run_fleet_traced`] additionally narrates the fleet layer as a
//! typed [`SimEvent`](faasbatch_metrics::events::SimEvent) stream
//! (arrivals, group formation, crashes, re-dispatches, completions) through
//! any [`TraceSink`](faasbatch_metrics::events::TraceSink).
//!
//! # Examples
//!
//! ```
//! use faasbatch_fleet::config::FleetConfig;
//! use faasbatch_fleet::routing::RoutingKind;
//! use faasbatch_fleet::sim::run_fleet;
//! use faasbatch_simcore::rng::DetRng;
//! use faasbatch_simcore::time::SimDuration;
//! use faasbatch_trace::workload::{cpu_workload, WorkloadConfig};
//!
//! let workload = cpu_workload(&DetRng::new(42), &WorkloadConfig {
//!     total: 60,
//!     span: SimDuration::from_secs(5),
//!     functions: 3,
//!     bursts: 2,
//!     ..WorkloadConfig::default()
//! });
//! let cfg = FleetConfig { workers: 2, ..FleetConfig::default() };
//! let report = run_fleet(&workload, &cfg, RoutingKind::LeastLoaded.build(), "cpu")
//!     .expect("no fault schedule, so the run cannot fail");
//! assert_eq!(report.records.len(), 60);
//! ```
//!
//! [`RunReport`]: faasbatch_metrics::report::RunReport

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod error;
pub mod report;
pub mod routing;
pub mod sim;

pub use config::{FaultKind, FleetConfig, WorkerFault};
pub use error::FleetError;
pub use report::{FleetRecord, FleetReport, WorkerReport};
pub use routing::{RoutingKind, RoutingPolicy};
pub use sim::{run_fleet, run_fleet_traced};
