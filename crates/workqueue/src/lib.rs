//! # hta-workqueue — a Work-Queue-like master/worker job scheduler
//!
//! Work Queue (Bui et al., PyHPC 2011) is the job-scheduling layer of the
//! paper's stack: a master process holds a queue of tasks, workers connect
//! from wherever resources exist, and the master matches tasks to workers,
//! moves input/output data, and records per-task resource consumption with
//! its resource monitor.
//!
//! This crate reproduces the behaviours the autoscaling study depends on:
//!
//! * **Resource matching** (§III-A): when a task's resources are unknown,
//!   the master conservatively runs it *alone* on a whole worker; once the
//!   category's requirements are known (measured from a completed task),
//!   tasks are bin-packed so a node-sized worker runs several in parallel.
//! * **Master egress bandwidth** (§III-A / Fig. 4): all input/output
//!   transfers share the master's uplink under a fluid fair-share model
//!   with a concurrency-overhead term calibrated to the paper's measured
//!   278 / 452 / 466 MB/s aggregate rates.
//! * **Per-worker input caches**: a cacheable input (the 1.4 GB BLAST
//!   database) is pulled once per worker — more, smaller workers therefore
//!   move more data, the paper's argument for node-sized worker pods.
//! * **Worker lifecycle control**: workers can be *drained* (finish
//!   running tasks, then stop — how HTA scales down without interrupting
//!   jobs) or *killed* (eviction — what happens when the HPA deletes a
//!   worker pod; running tasks are re-queued and their transfers lost).
//! * The **resource monitor**: completed tasks report measured usage and
//!   wall time, the feedback input of HTA's category estimator.
//!
//! Like the cluster simulator, [`master::Master`] is a pure state machine
//! driven by [`master::WqEvent`]s and produces [`master::WqNotification`]s
//! for the layers above.
//!
//! # Example
//!
//! ```
//! use hta_des::{Duration, EffectSink, EventQueue, SimTime};
//! use hta_resources::Resources;
//! use hta_workqueue::master::{Master, MasterConfig};
//! use hta_workqueue::task::{ExecModel, TaskSpec};
//! use hta_workqueue::{FileCatalog, TaskId};
//!
//! let mut catalog = FileCatalog::new();
//! let db = catalog.register("blast-db", 100.0, true);
//! let mut master = Master::new(MasterConfig::default(), catalog);
//! // Categories are interned before the first submission; specs carry ids.
//! let align = master.intern_category("align");
//! let mut queue = EventQueue::new();
//! let mut fx = EffectSink::new();
//!
//! let _worker = master.worker_connect(SimTime::ZERO, Resources::cores(4, 16_000, 50_000), &mut fx);
//! for (d, e) in fx.drain() { queue.schedule_in(d, e); }
//!
//! master.submit(SimTime::ZERO, TaskSpec {
//!     id: TaskId(0),
//!     cat: align,
//!     inputs: vec![db],
//!     output_mb: 0.6,
//!     declared: Some(Resources::cores(1, 3_000, 5_000)),
//!     actual: Resources::cores(1, 2_500, 4_000),
//!     exec: ExecModel::cpu_bound(Duration::from_secs(60)),
//! }, &mut fx);
//! for (d, e) in fx.drain() { queue.schedule_in(d, e); }
//!
//! // Drive the event loop to completion. One sink is reused for the
//! // whole run — steady-state dispatch allocates nothing.
//! while let Some((now, ev)) = queue.pop() {
//!     master.handle(now, ev, &mut fx);
//!     for (d, e) in fx.drain() {
//!         queue.schedule_in(d, e);
//!     }
//!     if master.all_complete() { break; }
//! }
//! assert_eq!(master.completed_count(), 1);
//! ```

pub mod file;
pub mod ids;
pub mod link;
pub mod master;
pub mod proto;
pub mod task;
mod task_table;
mod waiting;
pub mod worker;

pub use file::{FileCatalog, FileSpec};
pub use hta_des::{ChannelStats, NetworkFaults, Partition};
pub use ids::{FileId, FlowId, TaskId, WorkerId};
pub use link::FairShareLink;
pub use master::{
    FailKind, Master, MasterConfig, QueueView, RunningSnapshot, TaskFaultStats, TaskFaults,
    WaitingSnapshot, WorkerSnapshot, WqEffect, WqEvent, WqNotification,
};
pub use proto::ControlMsg;
pub use task::{ExecModel, Speculative, TaskRecord, TaskSpec, TaskState};
pub use worker::{Worker, WorkerState};
