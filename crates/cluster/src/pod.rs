//! Pods: the primary deployment unit.
//!
//! The lifecycle mirrors the paper's Fig. 9 exactly:
//!
//! 1. **No Available Node** — `Pending` with reason
//!    [`PendingReason::InsufficientResource`]: no ready node can fit the
//!    pod's request; the cloud controller manager will notice and reserve
//!    a node.
//! 2. **No Container Image** — scheduled onto a node, `Pending` with
//!    reason [`PendingReason::PullingImage`] while kubelet pulls.
//! 3. **Running** — containers started.
//! 4. **Stopped** — for HTA worker pods, the worker process exits after
//!    draining and the pod turns `Succeeded` and is removed. Evictions
//!    (HPA scale-down of a plain pod group) turn the pod `Failed`.
//!
//! A [`Pod`] record exists only while the pod is live (phases 1–3). The
//! stop removes it from the API server; the outcome travels on the watch
//! stream as [`WatchKind::PodSucceeded`](crate::watch::WatchKind::PodSucceeded)
//! or [`WatchKind::PodFailed`](crate::watch::WatchKind::PodFailed), which
//! is where HTA's informer learns it (§V-B).

use hta_des::SimTime;
use hta_resources::Resources;
use serde::{Deserialize, Serialize};

use crate::ids::{ImageId, NodeId, PodId};

/// Why a pod is still `Pending` (surfaced as Kubernetes events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PendingReason {
    /// `FailedScheduling: Insufficient cpu/memory` — no node fits.
    InsufficientResource,
    /// Scheduled; kubelet is pulling the container image.
    PullingImage,
}

/// Phase of a live pod (Kubernetes `status.phase`). A pod that stops
/// leaves the API server, so there is no terminal phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PodPhase {
    /// Accepted but containers not running yet; see [`PendingReason`].
    Pending(PendingReason),
    /// Containers running.
    Running,
}

impl PodPhase {
    /// True for phases that still hold node resources.
    pub fn holds_resources(self) -> bool {
        matches!(
            self,
            PodPhase::Pending(PendingReason::PullingImage) | PodPhase::Running
        )
    }
}

/// What the user submits to the API server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodSpec {
    /// Resource request (drives scheduling and node sizing).
    pub request: Resources,
    /// Container image to run.
    pub image: ImageId,
    /// Logical group (e.g. `"wq-worker"`): HPA and the provisioner act on
    /// groups, mirroring a Deployment/label-selector.
    pub group: String,
}

/// A pod object plus the timestamps the informer exposes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pod {
    /// Identity.
    pub id: PodId,
    /// The submitted spec.
    pub spec: PodSpec,
    /// Current phase.
    pub phase: PodPhase,
    /// Node the pod is bound to (set when scheduled).
    pub node: Option<NodeId>,
    /// When the create request reached the API server.
    pub created_at: SimTime,
    /// When the pod was bound to a node.
    pub scheduled_at: Option<SimTime>,
    /// When containers started running.
    pub running_at: Option<SimTime>,
    /// Whether this pod ever waited for a node, so its
    /// `PodUnschedulable` watch event is emitted once.
    pub waited_for_node: bool,
}

impl Pod {
    /// A new pod in the *No Available Node* state.
    pub fn new(id: PodId, spec: PodSpec, created_at: SimTime) -> Self {
        Pod {
            id,
            spec,
            phase: PodPhase::Pending(PendingReason::InsufficientResource),
            node: None,
            created_at,
            scheduled_at: None,
            running_at: None,
            waited_for_node: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PodSpec {
        PodSpec {
            request: Resources::cores(3, 12_000, 50_000),
            image: ImageId(0),
            group: "wq-worker".into(),
        }
    }

    #[test]
    fn new_pod_is_waiting_for_node() {
        let p = Pod::new(PodId(1), spec(), SimTime::from_secs(5));
        assert_eq!(
            p.phase,
            PodPhase::Pending(PendingReason::InsufficientResource)
        );
        assert!(p.node.is_none());
        assert!(!p.phase.holds_resources());
    }

    #[test]
    fn phase_resource_semantics() {
        assert!(PodPhase::Running.holds_resources());
        assert!(PodPhase::Pending(PendingReason::PullingImage).holds_resources());
        assert!(!PodPhase::Pending(PendingReason::InsufficientResource).holds_resources());
    }
}
