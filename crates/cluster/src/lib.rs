//! # hta-cluster — a Kubernetes-like container-orchestrator simulator
//!
//! The paper evaluates HTA on Google Kubernetes Engine. This crate is the
//! substitute substrate: a deterministic simulation of the orchestrator
//! behaviours the autoscaling problem actually depends on —
//!
//! * **Pods** with the paper's Fig. 9 lifecycle: *No Available Node*
//!   (`Pending/InsufficientResource`) → *No Container Image*
//!   (`Pending/PullingImage`) → *Running* → *Stopped*. A stopped pod
//!   leaves the API server; its `PodSucceeded`/`PodFailed` watch event
//!   is the last trace of it. Removed nodes leave the same way, so the
//!   cluster's state scales with live objects, not with run history.
//! * **Nodes** of a fixed machine type, provisioned by a cloud-controller-
//!   manager with a calibrated Gaussian initialization latency (the paper
//!   measures GKE at mean 157.4 s, σ 4.2 s — Fig. 6; that total includes
//!   the image pull, so the node-reservation component here defaults to
//!   the measured total minus the pull time).
//! * A **bin-packing pod scheduler** (first-fit over ready nodes, FIFO
//!   pod order).
//! * An **image registry** with per-node image caches and bandwidth-limited
//!   pulls.
//! * An **informer**-style watch stream ([`watch::WatchEvent`]) that HTA's
//!   init-time tracker consumes, exactly as the real implementation uses
//!   client-go's informer cache.
//! * The **Horizontal Pod Autoscaler** ([`hpa::Hpa`]): eq. 1 ratio control
//!   with tolerance dead-band, 15 s sync period and the 5-minute downscale
//!   stabilization window the paper calls out in §VI-A.
//! * A **cluster autoscaler** (part of [`cluster::Cluster`]'s controller
//!   tick): adds nodes for unschedulable pods, removes nodes that have
//!   been empty past an idle threshold, within `[min_nodes, max_nodes]`.
//!
//! The simulator is a pure state machine: [`cluster::Cluster::handle`]
//! consumes a [`cluster::ClusterEvent`] at a known time and pushes
//! follow-up events with delays into a caller-owned
//! [`hta_des::EffectSink`], like the Work Queue master does; the system
//! driver in `hta-core` owns the sinks and the global event loop.
//!
//! # Example
//!
//! ```
//! use hta_cluster::{Cluster, ClusterConfig, PodPhase, PodSpec};
//! use hta_des::{EffectSink, EventQueue, SimTime};
//! use hta_resources::Resources;
//!
//! let mut cluster = Cluster::new(ClusterConfig::default());
//! let image = cluster.registry_mut().register("wq-worker:latest", 500.0);
//! let mut queue = EventQueue::new();
//! let mut fx = EffectSink::new();
//! cluster.bootstrap(SimTime::ZERO, &mut fx);
//! let pod = cluster.create_pod(SimTime::ZERO, PodSpec {
//!     request: Resources::cores(3, 12_000, 50_000),
//!     image,
//!     group: "wq-worker".into(),
//! }, &mut fx);
//! // Drive events until the pod runs (image pull ≈ 12.5 s).
//! while cluster.pod(pod).unwrap().phase != PodPhase::Running {
//!     for (d, e) in fx.drain() {
//!         queue.schedule_in(d, e);
//!     }
//!     let (now, ev) = queue.pop().expect("events pending");
//!     cluster.handle(now, ev, &mut fx);
//! }
//! assert!(queue.now() > SimTime::from_secs(10));
//! ```

pub mod cluster;
pub mod config;
pub mod hpa;
pub mod ids;
pub mod image;
pub mod node;
pub mod objects;
pub mod pod;
pub mod watch;

pub use cluster::{Cluster, ClusterEvent, ClusterFaultStats};
pub use config::{ClusterConfig, ClusterFaults, MachineType};
pub use hpa::{Hpa, HpaConfig};
pub use ids::{ImageId, NodeId, PodId};
pub use image::ImageSpec;
pub use node::{Node, NodeState};
pub use pod::{PendingReason, Pod, PodPhase, PodSpec};
pub use watch::{WatchEvent, WatchKind};
