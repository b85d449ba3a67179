//! Cluster nodes (virtual machines).
//!
//! A node goes `Provisioning → Ready`, and its record leaves the cluster
//! when the node is scaled down, preempted or crashes (the removal is a
//! `NodeRemoved` watch event). While `Ready` it owns a [`ResourcePool`]
//! keyed by pod id and an image cache. The cluster autoscaler removes a
//! node only after it has been empty for the idle timeout, mirroring the
//! Kubernetes cluster-autoscaler's scale-down behaviour the paper
//! contrasts HTA against.

use hta_des::SimTime;
use hta_resources::{ResourcePool, Resources};

use crate::config::MachineType;
use crate::ids::{ImageId, NodeId};

/// Node lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// VM reservation in flight; becomes `Ready` at the recorded time.
    Provisioning,
    /// Accepting pods.
    Ready,
}

/// A virtual machine in the node pool.
#[derive(Debug, Clone)]
pub struct Node {
    /// Identity.
    pub id: NodeId,
    /// Shape this node was provisioned from.
    pub machine: MachineType,
    /// Lifecycle state.
    pub state: NodeState,
    /// Pod allocations against allocatable capacity.
    pub pool: ResourcePool,
    /// Images present on the node's disk.
    images: Vec<ImageId>,
    /// Last instant the node transitioned to empty (no pods). Drives the
    /// idle-timeout scale-down. `None` while occupied.
    pub empty_since: Option<SimTime>,
}

impl Node {
    /// A node entering provisioning.
    pub fn provisioning(id: NodeId, machine: MachineType) -> Self {
        let pool = ResourcePool::new(machine.allocatable);
        Node {
            id,
            machine,
            state: NodeState::Provisioning,
            pool,
            images: Vec::new(),
            empty_since: None,
        }
    }

    /// Transition to `Ready`.
    pub fn mark_ready(&mut self, now: SimTime) {
        debug_assert_eq!(self.state, NodeState::Provisioning);
        self.state = NodeState::Ready;
        self.empty_since = Some(now);
    }

    /// True when `Ready` and able to fit `request` right now.
    pub fn can_fit(&self, request: &Resources) -> bool {
        self.state == NodeState::Ready && self.pool.can_fit(request)
    }

    /// Whether the image is cached locally.
    pub fn has_image(&self, image: ImageId) -> bool {
        self.images.contains(&image)
    }

    /// Record a completed image pull.
    pub fn cache_image(&mut self, image: ImageId) {
        if !self.has_image(image) {
            self.images.push(image);
        }
    }

    /// Bind a pod's resources; updates emptiness tracking.
    pub fn bind_pod(
        &mut self,
        pod: u64,
        request: Resources,
    ) -> Result<(), hta_resources::pool::PoolError> {
        self.pool.allocate(pod, request)?;
        self.empty_since = None;
        Ok(())
    }

    /// Release a pod's resources; records emptiness time when the node
    /// becomes vacant.
    pub fn release_pod(&mut self, pod: u64, now: SimTime) {
        let _ = self.pool.release(pod);
        if self.pool.is_empty() {
            self.empty_since = Some(now);
        }
    }

    /// True if `Ready`, vacant, and idle past `timeout` at `now`.
    pub fn idle_expired(&self, now: SimTime, timeout: hta_des::Duration) -> bool {
        self.state == NodeState::Ready
            && self.pool.is_empty()
            && self
                .empty_since
                .is_some_and(|since| now.since(since) >= timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_des::Duration;

    fn node() -> Node {
        let mut n = Node::provisioning(
            NodeId(0),
            MachineType::custom("test", Resources::cores(4, 16_000, 100_000)),
        );
        n.mark_ready(SimTime::from_secs(150));
        n
    }

    #[test]
    fn provisioning_to_ready() {
        let mut n = Node::provisioning(NodeId(0), MachineType::n1_standard_4());
        assert_eq!(n.state, NodeState::Provisioning);
        assert!(!n.can_fit(&Resources::cores(1, 0, 0)));
        n.mark_ready(SimTime::from_secs(150));
        assert_eq!(n.state, NodeState::Ready);
        assert_eq!(n.empty_since, Some(SimTime::from_secs(150)));
        assert!(n.can_fit(&Resources::cores(1, 0, 0)));
    }

    #[test]
    fn bind_release_tracks_emptiness() {
        let mut n = node();
        assert!(n.empty_since.is_some());
        n.bind_pod(1, Resources::cores(2, 1000, 0)).unwrap();
        assert!(n.empty_since.is_none());
        n.bind_pod(2, Resources::cores(1, 1000, 0)).unwrap();
        n.release_pod(1, SimTime::from_secs(200));
        assert!(n.empty_since.is_none(), "still one pod bound");
        n.release_pod(2, SimTime::from_secs(300));
        assert_eq!(n.empty_since, Some(SimTime::from_secs(300)));
    }

    #[test]
    fn idle_expiry() {
        let mut n = node();
        n.bind_pod(1, Resources::cores(1, 0, 0)).unwrap();
        n.release_pod(1, SimTime::from_secs(200));
        let timeout = Duration::from_secs(600);
        assert!(!n.idle_expired(SimTime::from_secs(700), timeout));
        assert!(n.idle_expired(SimTime::from_secs(800), timeout));
    }

    #[test]
    fn image_cache() {
        let mut n = node();
        assert!(!n.has_image(ImageId(0)));
        n.cache_image(ImageId(0));
        n.cache_image(ImageId(0));
        assert!(n.has_image(ImageId(0)));
    }
}
