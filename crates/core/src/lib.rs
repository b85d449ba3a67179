//! # hta-core — the High-Throughput Autoscaler
//!
//! The paper's contribution: a *well-informed feedback autoscaler* that
//! resizes the worker-pod pool of an HTC stack by combining three inputs
//! (Fig. 7):
//!
//! 1. the **job queue** state reported by the job scheduler,
//! 2. the **runtime statistics of completed jobs** (resource consumption
//!    and execution time, grouped by category) reported by the workflow
//!    manager's resource monitor, and
//! 3. the **resource initialization time** of the cluster manager,
//!    measured continuously from the informer's pod-lifecycle events.
//!
//! Modules:
//!
//! * [`category_stats`] — per-category online estimates (feedback input),
//! * [`init_time`] — the informer consumer measuring initialization time,
//! * [`estimator`] — Algorithm 1: forward-simulate one initialization
//!   cycle and return the scale delta + next-action time,
//! * [`policy`] — the [`policy::ScalingPolicy`] trait with the HTA, HPA,
//!   fixed-pool and oracle implementations,
//! * [`operator`] — the Makeflow-Kubernetes operator: job submission,
//!   warm-up probing (one job per category), category learning,
//! * [`driver`] — the end-to-end system driver wiring the cluster
//!   simulator, Work Queue master, workflow and policy into one
//!   deterministic event loop, with the metrics recorder attached.
//!
//! # Example: Algorithm 1 directly
//!
//! ```
//! use hta_core::{estimate, EstimatorInput, EstimatorMode, WaitingTask};
//! use hta_des::Duration;
//! use hta_resources::Resources;
//!
//! // Nine queued 1-core jobs, no workers yet, node-sized worker pods.
//! let input = EstimatorInput {
//!     rsrc_init_time: Duration::from_secs(157),
//!     default_cycle: Duration::from_secs(30),
//!     running: vec![],
//!     waiting: vec![
//!         WaitingTask {
//!             resources: Resources::cores(1, 3_000, 5_000),
//!             exec: Duration::from_secs(300),
//!         };
//!         9
//!     ],
//!     active_workers: vec![],
//!     worker_unit: Resources::cores(3, 12_000, 50_000),
//!     overflow: vec![],
//! };
//! let decision = estimate(&input, EstimatorMode::Aggregate);
//! assert_eq!(decision.delta, 3, "9 one-core jobs pack into 3 workers");
//! assert_eq!(decision.next_action, Duration::from_secs(157));
//! ```
//!
//! # Example: a full run
//!
//! ```
//! use hta_core::driver::{DriverConfig, SystemDriver};
//! use hta_core::policy::{HtaConfig, HtaPolicy};
//! use hta_makeflow::parse;
//!
//! let wf = parse("out: in\n\twork\n").unwrap();
//! let result = SystemDriver::new(
//!     DriverConfig::default(),
//!     wf,
//!     Box::new(HtaPolicy::new(HtaConfig::default())),
//! )
//! .run();
//! assert!(!result.timed_out);
//! assert!(result.makespan_s > 0.0);
//! ```

pub mod category_stats;
#[expect(
    clippy::disallowed_types,
    reason = "the driver owns the event queue: components emit through EffectSink, and only \
              the driver schedules"
)]
pub mod driver;
pub mod estimator;
pub mod fault;
pub mod init_time;
pub mod operator;
pub mod oracle;
pub mod policy;
pub mod target_tracking;
pub mod whatif;

pub use category_stats::{CategoryEstimate, CategoryStats};
pub use driver::{DriverConfig, RecoveryReport, SystemDriver};
pub use estimator::{
    estimate, EstimatorInput, EstimatorMode, RunningTask, ScaleDecision, WaitingTask,
};
pub use fault::{ControlPlaneFaults, FaultPlan};
pub use init_time::InitTimeTracker;
pub use operator::{Operator, OperatorConfig};
pub use oracle::OraclePolicy;
pub use policy::{
    FixedPolicy, HoldPolicy, HpaPolicy, HtaPolicy, PolicyContext, ScaleAction, ScalingPolicy,
};
pub use target_tracking::TargetTrackingPolicy;
pub use whatif::{BranchOutcome, BranchSpec, BranchStop, WhatIf};
