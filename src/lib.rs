//! # hta — High-Throughput Autoscaler (facade crate)
//!
//! Reproduction of *"Autoscaling High-Throughput Workloads on Container
//! Orchestrators"* (Zheng, Kremer-Herman, Shaffer, Thain — IEEE CLUSTER
//! 2020), built as a deterministic discrete-event simulation of the full
//! Makeflow / Work Queue / Kubernetes stack plus the paper's contribution,
//! the HTA feedback autoscaler.
//!
//! This crate re-exports every workspace crate under one roof and provides
//! a [`prelude`] for the examples.
//!
//! # Example
//!
//! ```
//! use hta::core::driver::{DriverConfig, SystemDriver};
//! use hta::core::policy::{HtaConfig, HtaPolicy};
//! use hta::workloads::{blast_single_stage, BlastParams};
//! use hta::prelude::*;
//!
//! let workflow = blast_single_stage(&BlastParams {
//!     jobs: 6,
//!     wall: Duration::from_secs(30),
//!     ..BlastParams::default()
//! });
//! let result = SystemDriver::new(
//!     DriverConfig::default(),
//!     workflow,
//!     Box::new(HtaPolicy::new(HtaConfig::default())),
//! )
//! .run();
//! assert!(!result.timed_out);
//! assert_eq!(result.task_spans.len(), 6);
//! ```
//!
//! See the individual crates for the subsystem documentation:
//!
//! * [`des`] — simulation kernel (time, event queue, RNG),
//! * [`resources`] — resource vectors and the pool ledger,
//! * [`metrics`] — run recording, integrals, ASCII charts,
//! * [`cluster`] — the Kubernetes-like orchestrator simulator,
//! * [`workqueue`] — the Work-Queue-like master/worker scheduler,
//! * [`makeflow`] — the DAG workflow manager,
//! * [`core`] — HTA itself: estimator, operator, policies, driver,
//! * [`forecast`] — snapshot/fork what-if branches and the MPC policy,
//! * [`workloads`] — BLAST-like and I/O-bound workload generators,
//! * [`trace`] — streaming open-loop arrival traces (synthetic + Azure).

pub use hta_cluster as cluster;
pub use hta_core as core;
pub use hta_des as des;
pub use hta_forecast as forecast;
pub use hta_makeflow as makeflow;
pub use hta_metrics as metrics;
pub use hta_resources as resources;
pub use hta_trace as trace;
pub use hta_workloads as workloads;
pub use hta_workqueue as workqueue;

/// Common imports for examples and downstream users.
pub mod prelude {
    pub use hta_des::{Duration, SimRng, SimTime};
    pub use hta_metrics::{RunRecorder, RunSummary};
    pub use hta_resources::{ResourcePool, Resources};
}
