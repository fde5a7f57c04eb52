//! # faasbatch-core
//!
//! The paper's primary contribution: **FaaSBatch** (Wu et al., ICDCS 2023) —
//! a serverless scheduling framework that batches concurrent invocations of
//! the same function into a *single* container, expands them there as
//! parallel threads, and multiplexes redundant resources (storage clients)
//! created during execution.
//!
//! Three modules mirror the paper's architecture (Fig. 6):
//!
//! * [`mapper::InvokeMapper`] — classifies the requests of one dispatch
//!   window (default 0.2 s) into per-function groups (§III-B);
//! * the Inline-Parallel Producer — embodied by
//!   [`policy::FaasBatchPolicy`] in simulation (groups dispatched
//!   `Parallel` onto one container each) and by the live
//!   [`platform::FaasBatchPlatform`] dispatcher (§III-C);
//! * [`multiplexer::ResourceMultiplexer`] — the per-container
//!   `resource → Hash(args) → instance` cache with single-flight creation
//!   (§III-D).
//!
//! Use [`policy::run_faasbatch`] to run the simulated evaluation against
//! the baselines in `faasbatch-schedulers`, or
//! [`platform::PlatformBuilder`] to run real closures on a live,
//! thread-backed platform.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use faasbatch_core::platform::PlatformBuilder;
//! use std::time::Duration;
//!
//! let platform = PlatformBuilder::new()
//!     .window(Duration::from_millis(5))
//!     .register("hello", |env| {
//!         assert_eq!(env.payload, Bytes::from_static(b"hi"));
//!     })
//!     .start();
//! let outcome = platform.invoke("hello", Bytes::from_static(b"hi"))?.wait();
//! assert!(outcome.cold);
//! # Ok::<(), faasbatch_core::platform::PlatformError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code propagates errors or uses `expect` with context; bare
// `unwrap()` stays confined to tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod mapper;
pub mod multiplexer;
pub mod platform;
pub mod policy;
pub mod routing;
pub mod scheduler_kind;
pub mod telemetry;

pub use mapper::{FunctionGroup, InvokeMapper};
pub use multiplexer::{mux_trace_events, MultiplexerStats, MuxEvent, ResourceMultiplexer};
pub use platform::{FaasBatchPlatform, InvokeOutcome, OutcomeSummary, PlatformBuilder};
pub use policy::{
    run_faasbatch, run_faasbatch_source_traced, run_faasbatch_traced, FaasBatchConfig,
    FaasBatchPolicy,
};
pub use routing::{RoutingKind, RoutingPolicy, UnknownRoutingPolicy};
pub use scheduler_kind::{run_kinds, KindRun, SchedulerKind, SchedulerSetup, UnknownScheduler};
pub use telemetry::{register_executor, PlatformTelemetry};
