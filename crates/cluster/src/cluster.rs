//! The cluster state machine: API server + scheduler + cloud controller
//! manager + cluster autoscaler.
//!
//! [`Cluster`] is a pure state machine. The system driver delivers
//! [`ClusterEvent`]s at simulated instants via [`Cluster::handle`]; each
//! call pushes follow-up events as `(delay, event)` effects into a
//! caller-owned [`EffectSink`], which the driver drains onto the global
//! queue. API mutations ([`Cluster::bootstrap`], [`Cluster::create_pod`],
//! [`Cluster::delete_pod`], [`Cluster::complete_pod`],
//! [`Cluster::fail_node`]) push into the same sink.
//!
//! Every observable transition is appended to the informer buffer; HTA's
//! init-time tracker and the Work Queue driver drain it with
//! [`Cluster::drain_watch_into`].
//!
//! Like a Kubernetes API server, the cluster stores only live objects: a
//! pod leaves when it succeeds, fails or is deleted, and a node leaves
//! when it is scaled down, preempted or crashes. The watch stream carries
//! those exits, so a what-if fork copies live state, not run history.

use std::collections::BTreeMap;
use std::sync::Arc;

use hta_des::{Backoff, Duration, EffectSink, SimRng, SimTime};
use hta_resources::Resources;

use crate::config::ClusterConfig;
use crate::ids::{IdGen, ImageId, NodeId, PodId};
use crate::image::Registry;
use crate::node::{Node, NodeState};
use crate::pod::{PendingReason, Pod, PodPhase, PodSpec};
use crate::watch::{WatchEvent, WatchKind};

/// Internal events the cluster schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// Cloud-controller-manager reconcile: provision nodes for
    /// unschedulable pods, remove idle-expired nodes, re-arm the tick.
    ControllerTick,
    /// A node reservation completed.
    NodeProvisioned(NodeId),
    /// The provider reclaimed a preemptible node (spot pool only).
    NodePreempted(NodeId),
    /// Kubelet finished pulling a pod's image on a node. The image is
    /// carried because the node caches it even if the pod is gone.
    PodImagePulled(PodId, NodeId, ImageId),
    /// A pull attempt failed (fault injection); the kubelet begins
    /// attempt number `.2` after its `ImagePullBackOff` delay.
    PodPullRetry(PodId, NodeId, u32),
    /// The kubelet exhausted its pull attempts for this pod.
    PodPullGaveUp(PodId),
    /// A flaky node's sampled lifetime expired (fault injection): the
    /// node crashes like a preemption, but a replacement rejoins later.
    NodeFault(NodeId),
    /// A flaky-node replacement machine is ready to join.
    NodeRejoin,
    /// Pod containers finished starting.
    PodStarted(PodId),
}

/// Cumulative fault-injection counters (see [`Cluster::fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterFaultStats {
    /// Image-pull attempts that failed and entered backoff.
    pub image_pull_retries: u64,
    /// Pods failed after exhausting their pull attempts.
    pub image_pull_gaveups: u64,
    /// Flaky-node crashes injected (MTTF expiries on live nodes).
    pub node_faults: u64,
    /// Replacement nodes that rejoined after a flaky-node crash.
    pub node_rejoins: u64,
}

/// The simulated orchestrator.
#[derive(Debug, Clone)]
pub struct Cluster {
    cfg: ClusterConfig,
    registry: Registry,
    /// The live nodes (`Provisioning` or `Ready`).
    nodes: BTreeMap<NodeId, Node>,
    /// The live pods (pending or running).
    pods: BTreeMap<PodId, Pod>,
    /// Number of `pods` per pod group, so the per-sample replica count is
    /// one lookup. A group keeps its entry (possibly zero) once seen, so
    /// only a group's first pod allocates its key, and a clone shares the
    /// keys.
    live_per_group: BTreeMap<Arc<str>, usize>,
    /// FIFO queue of pods awaiting a node binding.
    pending: Vec<PodId>,
    node_ids: IdGen,
    pod_ids: IdGen,
    rng: SimRng,
    watch: Vec<WatchEvent>,
    controller_armed: bool,
    fault_stats: ClusterFaultStats,
}

impl hta_des::SnapshotState for Cluster {
    /// Re-partition the provisioning/fault RNG for a what-if branch; all
    /// other state (nodes, pods, pending queue, watch log) is untouched.
    fn reseed(&mut self, salt: u64) {
        self.rng = self.rng.partition(salt);
    }
}

impl Cluster {
    /// A cluster with no nodes. Call [`Cluster::bootstrap`] to create the
    /// initial node pool and arm the controller loop.
    pub fn new(cfg: ClusterConfig) -> Self {
        let rng = SimRng::seed_from_u64(cfg.seed);
        let registry = Registry::new(cfg.registry_bandwidth_mbps, cfg.image_pull_jitter);
        Cluster {
            cfg,
            registry,
            nodes: BTreeMap::new(),
            pods: BTreeMap::new(),
            live_per_group: BTreeMap::new(),
            pending: Vec::new(),
            node_ids: IdGen::default(),
            pod_ids: IdGen::default(),
            rng,
            watch: Vec::new(),
            controller_armed: false,
            fault_stats: ClusterFaultStats::default(),
        }
    }

    /// Access the image registry (to register images before running).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Create the initial `min_nodes` pool **already Ready** (the paper's
    /// experiments start from an existing 3-node cluster) and arm the
    /// controller tick.
    pub fn bootstrap(&mut self, now: SimTime, fx: &mut EffectSink<ClusterEvent>) {
        for _ in 0..self.cfg.min_nodes {
            let id = NodeId(self.node_ids.alloc());
            let mut node = Node::provisioning(id, self.cfg.machine.clone());
            node.mark_ready(now);
            self.watch
                .push(WatchEvent::node(now, WatchKind::NodeReady(id)));
            self.nodes.insert(id, node);
            if let Some(d) = self.sample_preemption() {
                fx.push(d, ClusterEvent::NodePreempted(id));
            }
            if let Some(d) = self.sample_node_fault() {
                fx.push(d, ClusterEvent::NodeFault(id));
            }
        }
        self.controller_armed = true;
        fx.push(self.cfg.controller_interval, ClusterEvent::ControllerTick);
    }

    /// Sample a preemptible node's lifetime (exponential with the
    /// configured mean), or `None` for on-demand pools.
    fn sample_preemption(&mut self) -> Option<Duration> {
        let mean = self.cfg.preemption_mean_lifetime?;
        Some(self.sample_exp(mean))
    }

    /// Sample a flaky node's time-to-failure, or `None` when the fault
    /// is disabled. Called only when a node (re)joins, so fault-free
    /// configurations draw nothing.
    fn sample_node_fault(&mut self) -> Option<Duration> {
        let mean = self.cfg.faults.node_mttf?;
        Some(self.sample_exp(mean))
    }

    /// Inverse-CDF sampling of `Exp(1/mean)`.
    fn sample_exp(&mut self, mean: Duration) -> Duration {
        let u = (1.0 - self.rng.uniform()).max(1e-12);
        Duration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    // ------------------------------------------------------------------
    // API-server surface
    // ------------------------------------------------------------------

    /// Submit a pod and return its id. It may schedule immediately onto a
    /// warm node, pushing the follow-up effects into `fx`.
    pub fn create_pod(
        &mut self,
        now: SimTime,
        spec: PodSpec,
        fx: &mut EffectSink<ClusterEvent>,
    ) -> PodId {
        let id = PodId(self.pod_ids.alloc());
        let pod = Pod::new(id, spec, now);
        self.watch
            .push(WatchEvent::pod(now, id, WatchKind::PodCreated));
        match self.live_per_group.get_mut(pod.spec.group.as_str()) {
            Some(n) => *n += 1,
            None => {
                self.live_per_group
                    .insert(Arc::from(pod.spec.group.as_str()), 1);
            }
        }
        self.pods.insert(id, pod);
        self.pending.push(id);
        self.try_schedule_all(now, fx);
        self.assert_invariants();
        id
    }

    /// Delete a pod (eviction semantics): it leaves the API server and
    /// frees its node's resources immediately. A running pod's watchers
    /// see `PodFailed`, a pending pod's `PodSucceeded`.
    pub fn delete_pod(&mut self, now: SimTime, id: PodId, fx: &mut EffectSink<ClusterEvent>) {
        if !self.pods.contains_key(&id) {
            return;
        }
        let kind = match self.retire_pod(now, id).phase {
            PodPhase::Running => WatchKind::PodFailed,
            PodPhase::Pending(_) => WatchKind::PodSucceeded,
        };
        self.watch.push(WatchEvent::pod(now, id, kind));
        // Freed capacity may admit a pending pod right away.
        self.try_schedule_all(now, fx);
        self.assert_invariants();
    }

    /// A running pod's containers exited successfully (graceful worker
    /// drain — the paper's *Worker-Pod Stopped* state): the pod leaves the
    /// API server and frees its node's resources.
    pub fn complete_pod(&mut self, now: SimTime, id: PodId, fx: &mut EffectSink<ClusterEvent>) {
        if !self.pods.contains_key(&id) {
            return;
        }
        self.retire_pod(now, id);
        self.watch
            .push(WatchEvent::pod(now, id, WatchKind::PodSucceeded));
        self.try_schedule_all(now, fx);
        self.assert_invariants();
    }

    /// Crash a node (failure injection): the node is removed and every
    /// pod bound to it fails (emitting `PodFailed` watch events — workers
    /// on it are killed and their tasks re-queued by the layers above);
    /// the cloud controller will replace capacity on its next scan if
    /// pending pods need it.
    pub fn fail_node(&mut self, now: SimTime, id: NodeId, fx: &mut EffectSink<ClusterEvent>) {
        let Some(node) = self.nodes.remove(&id) else {
            return;
        };
        self.watch
            .push(WatchEvent::node(now, WatchKind::NodeRemoved(id)));
        for (key, _) in node.pool.iter() {
            let pid = PodId(key);
            self.retire_pod(now, pid);
            self.watch
                .push(WatchEvent::pod(now, pid, WatchKind::PodFailed));
        }
        // Any queue pressure re-provisions via the controller.
        self.try_schedule_all(now, fx);
        self.assert_invariants();
    }

    /// Remove a stopped pod from the API server: out of `pods`, its
    /// group's count, the pending queue and its node's pool. The caller
    /// reports how it ended on the watch stream.
    fn retire_pod(&mut self, now: SimTime, id: PodId) -> Pod {
        let pod = self.pods.remove(&id).expect("a retired pod is live");
        *self
            .live_per_group
            .get_mut(pod.spec.group.as_str())
            .expect("a live pod's group is counted") -= 1;
        // The pending queue holds exactly the pods waiting for a node.
        if pod.phase == PodPhase::Pending(PendingReason::InsufficientResource) {
            self.pending.retain(|p| *p != id);
        }
        if let Some(n) = pod.node.and_then(|nid| self.nodes.get_mut(&nid)) {
            n.release_pod(id.raw(), now);
        }
        pod
    }

    /// Hand the informer buffer (events since the last drain) to the
    /// caller in exchange for `out`, which must be empty. The two buffers
    /// trade places and keep their capacity, so a caller that reuses
    /// `out` drains without allocating or copying.
    pub fn drain_watch_into(&mut self, out: &mut Vec<WatchEvent>) {
        debug_assert!(out.is_empty(), "draining into a full buffer");
        std::mem::swap(&mut self.watch, out);
    }

    /// Drain the informer buffer into a fresh `Vec`.
    #[cfg(test)]
    fn drain_watch(&mut self) -> Vec<WatchEvent> {
        std::mem::take(&mut self.watch)
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Deliver one internal event, pushing its follow-ups into `fx`.
    pub fn handle(&mut self, now: SimTime, ev: ClusterEvent, fx: &mut EffectSink<ClusterEvent>) {
        match ev {
            ClusterEvent::ControllerTick => self.controller_tick(now, fx),
            ClusterEvent::NodeProvisioned(id) => self.node_provisioned(now, id, fx),
            ClusterEvent::NodePreempted(id) => self.fail_node(now, id, fx),
            ClusterEvent::PodImagePulled(pod, node, image) => {
                self.image_pulled(now, pod, node, image, fx)
            }
            ClusterEvent::PodPullRetry(pod, node, attempt) => {
                self.pod_pull_retry(pod, node, attempt, fx)
            }
            ClusterEvent::PodPullGaveUp(pod) => self.pod_pull_gave_up(now, pod, fx),
            ClusterEvent::NodeFault(id) => self.node_fault(now, id, fx),
            ClusterEvent::NodeRejoin => self.node_rejoin(now, fx),
            ClusterEvent::PodStarted(pod) => self.pod_started(now, pod),
        }
        self.assert_invariants();
    }

    /// Handle a flaky node's MTTF expiry: crash it like a preemption and
    /// schedule a replacement machine after the sampled repair time.
    fn node_fault(&mut self, now: SimTime, id: NodeId, fx: &mut EffectSink<ClusterEvent>) {
        if !self.nodes.contains_key(&id) {
            // The autoscaler (or a preemption) already removed it.
            return;
        }
        self.fault_stats.node_faults += 1;
        self.fail_node(now, id, fx);
        let mttr = self.cfg.faults.node_mttr;
        fx.push(self.sample_exp(mttr), ClusterEvent::NodeRejoin);
    }

    /// A replacement machine for a crashed flaky node joins the pool
    /// (already booted — the MTTR sample covered provisioning).
    fn node_rejoin(&mut self, now: SimTime, fx: &mut EffectSink<ClusterEvent>) {
        if self.live_node_count() >= self.cfg.max_nodes {
            return;
        }
        let id = NodeId(self.node_ids.alloc());
        let mut node = Node::provisioning(id, self.cfg.machine.clone());
        node.mark_ready(now);
        self.watch
            .push(WatchEvent::node(now, WatchKind::NodeReady(id)));
        self.nodes.insert(id, node);
        self.fault_stats.node_rejoins += 1;
        if let Some(d) = self.sample_preemption() {
            fx.push(d, ClusterEvent::NodePreempted(id));
        }
        if let Some(d) = self.sample_node_fault() {
            fx.push(d, ClusterEvent::NodeFault(id));
        }
        self.try_schedule_all(now, fx);
    }

    fn controller_tick(&mut self, now: SimTime, fx: &mut EffectSink<ClusterEvent>) {
        self.scale_up_for_pending(fx);
        self.scale_down_idle(now);
        fx.push(self.cfg.controller_interval, ClusterEvent::ControllerTick);
    }

    /// Provision nodes for pods that cannot be placed on current (ready or
    /// in-flight) capacity. First-fit virtual packing decides how many new
    /// machines the pending set needs; the request is submitted as one
    /// batch, each node sampling its own latency from the calibrated
    /// distribution (the paper: "requests submitted in the same batch …
    /// experience similar resource initialization latency").
    fn scale_up_for_pending(&mut self, fx: &mut EffectSink<ClusterEvent>) {
        if self.pending.is_empty() {
            return;
        }
        // Batched reservation processing: while a batch is in flight, new
        // requests wait for the next scan after it is ready (§IV-B:
        // "cluster managers usually process reservation requests in
        // batches"). This is the staircase scale-up of Figs. 2 and 10.
        if self
            .nodes
            .values()
            .any(|n| n.state == NodeState::Provisioning)
        {
            return;
        }
        // Virtual free list: ready nodes' available + provisioning nodes'
        // full allocatable.
        let mut free: Vec<Resources> = self
            .nodes
            .values()
            .map(|n| match n.state {
                NodeState::Ready => n.pool.available(),
                NodeState::Provisioning => n.machine.allocatable,
            })
            .collect();
        let machine_alloc = self.cfg.machine.allocatable;
        let mut new_nodes = 0usize;
        for pid in &self.pending {
            let req = self.pods[pid].spec.request;
            if let Some(slot) = free.iter_mut().find(|s| req.fits_in(s)) {
                *slot = slot.saturating_sub(&req);
                continue;
            }
            if req.fits_in(&machine_alloc) {
                new_nodes += 1;
                free.push(machine_alloc.saturating_sub(&req));
            }
            // else: request larger than any machine — stays pending forever.
        }
        let live = self.live_node_count();
        let headroom = self.cfg.max_nodes.saturating_sub(live);
        for _ in 0..new_nodes.min(headroom) {
            let id = NodeId(self.node_ids.alloc());
            let node = Node::provisioning(id, self.cfg.machine.clone());
            self.nodes.insert(id, node);
            let latency = self
                .rng
                .normal_duration(self.cfg.node_provision_mean, self.cfg.node_provision_sd);
            if let Some(life) = self.sample_preemption() {
                fx.push(latency + life, ClusterEvent::NodePreempted(id));
            }
            if let Some(life) = self.sample_node_fault() {
                fx.push(latency + life, ClusterEvent::NodeFault(id));
            }
            fx.push(latency, ClusterEvent::NodeProvisioned(id));
        }
    }

    /// Remove nodes that have been empty past the idle timeout, never
    /// shrinking below `min_nodes`.
    fn scale_down_idle(&mut self, now: SimTime) {
        let mut live = self.live_node_count();
        let expired: Vec<NodeId> = self
            .nodes
            .values()
            .filter(|n| n.idle_expired(now, self.cfg.node_idle_timeout))
            .map(|n| n.id)
            .collect();
        for id in expired {
            if live <= self.cfg.min_nodes {
                break;
            }
            self.nodes.remove(&id);
            live -= 1;
            self.watch
                .push(WatchEvent::node(now, WatchKind::NodeRemoved(id)));
        }
    }

    fn node_provisioned(&mut self, now: SimTime, id: NodeId, fx: &mut EffectSink<ClusterEvent>) {
        if let Some(n) = self.nodes.get_mut(&id) {
            if n.state == NodeState::Provisioning {
                n.mark_ready(now);
                self.watch
                    .push(WatchEvent::node(now, WatchKind::NodeReady(id)));
            }
        }
        self.try_schedule_all(now, fx);
    }

    fn image_pulled(
        &mut self,
        now: SimTime,
        pod_id: PodId,
        node_id: NodeId,
        image: ImageId,
        fx: &mut EffectSink<ClusterEvent>,
    ) {
        // The pull completed on the node regardless of the pod's fate.
        if let Some(n) = self.nodes.get_mut(&node_id) {
            n.cache_image(image);
        }
        let pulling = self
            .pods
            .get(&pod_id)
            .is_some_and(|p| p.phase == PodPhase::Pending(PendingReason::PullingImage));
        if !pulling {
            return;
        }
        self.watch.push(WatchEvent::pod(
            now,
            pod_id,
            WatchKind::PodImagePulled(node_id),
        ));
        fx.push(self.cfg.pod_start_delay, ClusterEvent::PodStarted(pod_id));
    }

    /// Begin pull attempt `attempt` for a pod whose image transfer takes
    /// `pull`. With fault injection active, the attempt may fail
    /// (`ErrImagePull`): the transfer time is spent anyway, then the
    /// kubelet backs off on the capped-exponential schedule before the
    /// next attempt — or gives up once the attempt budget is exhausted.
    fn start_pull(
        &mut self,
        pid: PodId,
        nid: NodeId,
        image: ImageId,
        attempt: u32,
        pull: Duration,
        fx: &mut EffectSink<ClusterEvent>,
    ) {
        let rate = self.cfg.faults.image_pull_fail_rate;
        // No draw at rate 0 so fault-free runs keep their RNG stream.
        let failed = rate > 0.0 && self.rng.uniform() < rate;
        if !failed {
            fx.push(pull, ClusterEvent::PodImagePulled(pid, nid, image));
            return;
        }
        let next = attempt + 1;
        if next >= self.cfg.faults.image_pull_max_attempts {
            fx.push(pull, ClusterEvent::PodPullGaveUp(pid));
            return;
        }
        self.fault_stats.image_pull_retries += 1;
        let backoff = Backoff::IMAGE_PULL.jittered(attempt, &mut self.rng);
        fx.push(pull + backoff, ClusterEvent::PodPullRetry(pid, nid, next));
    }

    /// A backoff window elapsed: re-attempt the pull if the pod is still
    /// waiting on this node (it may have died with the node meanwhile; a
    /// live pod's node is live).
    fn pod_pull_retry(
        &mut self,
        pod_id: PodId,
        node_id: NodeId,
        attempt: u32,
        fx: &mut EffectSink<ClusterEvent>,
    ) {
        let Some(pod) = self.pods.get(&pod_id).filter(|p| {
            p.phase == PodPhase::Pending(PendingReason::PullingImage) && p.node == Some(node_id)
        }) else {
            return;
        };
        let image = pod.spec.image;
        let pull = self.registry.pull_duration(image, &mut self.rng);
        self.start_pull(pod_id, node_id, image, attempt, pull, fx);
    }

    /// The kubelet exhausted its pull attempts: fail the pod and free its
    /// node slot. The layers above observe `PodFailed` and recover.
    fn pod_pull_gave_up(&mut self, now: SimTime, pod_id: PodId, fx: &mut EffectSink<ClusterEvent>) {
        let pulling = self
            .pods
            .get(&pod_id)
            .is_some_and(|p| p.phase == PodPhase::Pending(PendingReason::PullingImage));
        if !pulling {
            return;
        }
        self.fault_stats.image_pull_gaveups += 1;
        self.retire_pod(now, pod_id);
        self.watch
            .push(WatchEvent::pod(now, pod_id, WatchKind::PodFailed));
        self.try_schedule_all(now, fx);
    }

    /// Containers started: the pod runs. Schedules nothing.
    fn pod_started(&mut self, now: SimTime, pod_id: PodId) {
        let Some(pod) = self.pods.get_mut(&pod_id) else {
            return;
        };
        if pod.phase == PodPhase::Running {
            return;
        }
        let Some(node) = pod.node else {
            return;
        };
        pod.phase = PodPhase::Running;
        pod.running_at = Some(now);
        self.watch
            .push(WatchEvent::pod(now, pod_id, WatchKind::PodRunning(node)));
    }

    /// First-fit FIFO scheduler pass over the pending queue.
    fn try_schedule_all(&mut self, now: SimTime, fx: &mut EffectSink<ClusterEvent>) {
        let mut still_pending = Vec::new();
        let pending = std::mem::take(&mut self.pending);
        for pid in pending {
            let Some(pod) = self.pods.get(&pid) else {
                continue;
            };
            if pod.phase != PodPhase::Pending(PendingReason::InsufficientResource) {
                continue;
            }
            let req = pod.spec.request;
            let image = pod.spec.image;
            let target = self.nodes.values().find(|n| n.can_fit(&req)).map(|n| n.id);
            match target {
                Some(nid) => {
                    let node = self.nodes.get_mut(&nid).expect("node exists");
                    node.bind_pod(pid.raw(), req)
                        .expect("can_fit checked before bind");
                    let cached = node.has_image(image);
                    let pull = if cached {
                        Duration::ZERO
                    } else {
                        self.registry.pull_duration(image, &mut self.rng)
                    };
                    let pod = self.pods.get_mut(&pid).expect("pod exists");
                    pod.node = Some(nid);
                    pod.scheduled_at = Some(now);
                    pod.phase = PodPhase::Pending(PendingReason::PullingImage);
                    self.watch
                        .push(WatchEvent::pod(now, pid, WatchKind::PodScheduled(nid)));
                    if cached {
                        // Skip the pull phase entirely.
                        fx.push(self.cfg.pod_start_delay, ClusterEvent::PodStarted(pid));
                        self.watch
                            .push(WatchEvent::pod(now, pid, WatchKind::PodImagePulled(nid)));
                    } else {
                        self.start_pull(pid, nid, image, 0, pull, fx);
                    }
                }
                None => {
                    let pod = self.pods.get_mut(&pid).expect("pod exists");
                    if !pod.waited_for_node {
                        pod.waited_for_node = true;
                        self.watch
                            .push(WatchEvent::pod(now, pid, WatchKind::PodUnschedulable));
                    }
                    still_pending.push(pid);
                }
            }
        }
        self.pending = still_pending;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Nodes that are `Ready` or `Provisioning`.
    pub fn live_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes currently `Ready`.
    pub fn ready_node_count(&self) -> usize {
        self.nodes
            .values()
            .filter(|n| n.state == NodeState::Ready)
            .count()
    }

    /// A live pod by id; `None` once it has stopped.
    pub fn pod(&self, id: PodId) -> Option<&Pod> {
        self.pods.get(&id)
    }

    /// Live pods in a group, in id order. O(live pods).
    pub fn live_pods_in_group<'a>(&'a self, group: &'a str) -> impl Iterator<Item = &'a Pod> + 'a {
        self.pods.values().filter(move |p| p.spec.group == group)
    }

    /// Number of live pods in a group (HPA's "current replicas").
    /// O(log groups): read from the per-group count.
    pub fn group_replicas(&self, group: &str) -> usize {
        self.live_per_group.get(group).copied().unwrap_or(0)
    }

    /// Running pods in a group.
    pub fn running_pods_in_group(&self, group: &str) -> Vec<PodId> {
        self.live_pods_in_group(group)
            .filter(|p| p.phase == PodPhase::Running)
            .map(|p| p.id)
            .collect()
    }

    /// Number of pods still pending (any group).
    pub fn pending_pod_count(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative fault-injection counters.
    pub fn fault_stats(&self) -> ClusterFaultStats {
        self.fault_stats
    }

    /// `kubectl get`-style textual snapshot of the live nodes and pods —
    /// the first thing to print when a simulation misbehaves.
    pub fn describe(&self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "NODES ({} live):", self.live_node_count());
        for n in self.nodes.values() {
            let _ = writeln!(
                out,
                "  {:<10} {:<13} used {} / {}  pods {}",
                n.id.to_string(),
                format!("{:?}", n.state),
                n.pool.used(),
                n.pool.capacity(),
                n.pool.len(),
            );
        }
        let _ = writeln!(out, "PODS ({} live):", self.pods.len());
        for p in self.pods.values() {
            let age = now.since(p.created_at).as_secs_f64();
            let _ = writeln!(
                out,
                "  {:<8} {:<12} {:<28} node {:<8} age {:.0}s",
                p.id.to_string(),
                p.spec.group,
                format!("{:?}", p.phase),
                p.node.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
                age,
            );
        }
        out
    }

    /// Assert [`Cluster::check_invariants`] after a mutation (sanitized
    /// builds only: debug, or the `sim-sanitizer` feature).
    fn assert_invariants(&self) {
        if hta_des::sanitize::ACTIVE {
            assert!(
                self.check_invariants(),
                "cluster invariants violated (node pools or group counts)"
            );
        }
    }

    /// Debug invariant: every node pool's allocations reference pods
    /// bound to that node, sums are consistent, every bound pod's node is
    /// live, and the per-group counts are exactly a recount of `pods`.
    pub fn check_invariants(&self) -> bool {
        let mut per_group: BTreeMap<&str, usize> = BTreeMap::new();
        for p in self.pods.values() {
            *per_group.entry(p.spec.group.as_str()).or_default() += 1;
            if p.node.is_some_and(|n| !self.nodes.contains_key(&n)) {
                return false;
            }
        }
        let counted = self
            .live_per_group
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(g, &n)| (&**g, n));
        if !counted.eq(per_group) {
            return false;
        }
        self.nodes.values().all(|node| {
            node.pool.check_invariant()
                && node.pool.iter().all(|(key, _)| {
                    self.pods
                        .get(&PodId(key))
                        .is_some_and(|p| p.node == Some(node.id) && p.phase.holds_resources())
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineType;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            machine: MachineType::custom("m4", Resources::cores(4, 16_000, 100_000)),
            min_nodes: 1,
            max_nodes: 5,
            node_provision_mean: Duration::from_secs(150),
            node_provision_sd: Duration::ZERO,
            controller_interval: Duration::from_secs(10),
            node_idle_timeout: Duration::from_secs(60),
            registry_bandwidth_mbps: 50.0,
            preemption_mean_lifetime: None,
            image_pull_jitter: 0.0,
            pod_start_delay: Duration::from_secs(1),
            faults: crate::config::ClusterFaults::default(),
            seed: 7,
        }
    }

    type Queue = hta_des::EventQueue<ClusterEvent>;
    type Sink = EffectSink<ClusterEvent>;

    /// Schedule the sink's effects on the queue, in push order.
    fn flush(fx: &mut Sink, q: &mut Queue) {
        for (d, e) in fx.drain() {
            q.schedule_in(d, e);
        }
    }

    /// Deliver the next event and schedule its effects.
    fn step(cluster: &mut Cluster, fx: &mut Sink, q: &mut Queue) -> Option<SimTime> {
        flush(fx, q);
        let (now, ev) = q.pop()?;
        cluster.handle(now, ev, fx);
        flush(fx, q);
        Some(now)
    }

    /// Deliver every event due at or before `until`.
    fn run_until(cluster: &mut Cluster, fx: &mut Sink, q: &mut Queue, until: SimTime) {
        flush(fx, q);
        while q.peek_time().is_some_and(|at| at <= until) {
            step(cluster, fx, q);
        }
    }

    /// Drive a cluster's own event loop until quiescent. Mirrors what the
    /// hta-core driver does for the full system.
    fn run_to_quiescence(cluster: &mut Cluster, fx: &mut Sink, q: &mut Queue, max_events: usize) {
        flush(fx, q);
        for _ in 0..max_events {
            // Stop if only the recurring controller tick remains and
            // nothing is pending or provisioning.
            let only_ticks = cluster.pending_pod_count() == 0
                && cluster
                    .nodes
                    .values()
                    .all(|n| n.state != NodeState::Provisioning);
            if only_ticks && cluster.pods.values().all(|p| p.phase == PodPhase::Running) {
                break;
            }
            if step(cluster, fx, q).is_none() {
                break;
            }
        }
    }

    fn worker_spec(image: ImageId) -> PodSpec {
        PodSpec {
            request: Resources::cores(4, 15_000, 50_000),
            image,
            group: "wq-worker".into(),
        }
    }

    #[test]
    fn bootstrap_creates_ready_min_nodes() {
        let mut c = Cluster::new(small_cfg());
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        assert_eq!(c.ready_node_count(), 1);
        assert_eq!(fx.len(), 1); // the controller tick
        let events = c.drain_watch();
        assert!(matches!(events[0].kind, WatchKind::NodeReady(_)));
    }

    #[test]
    fn pod_on_warm_node_skips_pull_when_cached() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 500.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);

        // First pod: cold pull (10s at 50MB/s).
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let pod1 = c.pod(p1).unwrap();
        assert_eq!(pod1.phase, PodPhase::Running);
        assert!(!pod1.waited_for_node);
        // 10s pull + 1s start.
        assert_eq!(pod1.running_at.unwrap(), SimTime::from_secs(11));

        // Complete it, then a second pod reuses the cached image.
        c.complete_pod(q.now(), p1, &mut fx);
        assert!(c.pod(p1).is_none(), "a completed pod leaves the cluster");
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let p2 = c.create_pod(q.now(), worker_spec(img), &mut fx);
        let before = q.now();
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let pod2 = c.pod(p2).unwrap();
        assert_eq!(pod2.phase, PodPhase::Running);
        // No pull: only the 1s container start.
        assert_eq!(
            pod2.running_at.unwrap().since(before),
            Duration::from_secs(1)
        );
    }

    #[test]
    fn unschedulable_pod_triggers_node_provision_and_full_init() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 500.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);

        // Fill the single warm node, then submit one more pod.
        let _p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        c.drain_watch();
        let p2 = c.create_pod(q.now(), worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 5000);

        let pod2 = c.pod(p2).unwrap();
        assert_eq!(pod2.phase, PodPhase::Running);
        assert!(pod2.waited_for_node);
        // Init latency ≈ controller tick (≤10s) + 150s provision + 10s pull + 1s start.
        let lat = pod2
            .running_at
            .unwrap()
            .since(pod2.created_at)
            .as_secs_f64();
        assert!((155.0..=175.0).contains(&lat), "latency {lat}");
        // The watch stream shows all three creation states (§V-B).
        let kinds: Vec<WatchKind> = c
            .drain_watch()
            .into_iter()
            .filter(|e| e.pod == p2)
            .map(|e| e.kind)
            .collect();
        assert!(matches!(
            kinds[..],
            [
                WatchKind::PodCreated,
                WatchKind::PodUnschedulable,
                WatchKind::PodScheduled(_),
                WatchKind::PodImagePulled(_),
                WatchKind::PodRunning(_),
            ]
        ));
        assert_eq!(c.ready_node_count(), 2);
        assert!(c.check_invariants());
    }

    #[test]
    fn max_nodes_is_respected() {
        let mut cfg = small_cfg();
        cfg.max_nodes = 2;
        let mut c = Cluster::new(cfg);
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        for _ in 0..5 {
            c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        }
        run_to_quiescence(&mut c, &mut fx, &mut q, 3000);
        assert_eq!(c.live_node_count(), 2);
        // 2 pods run (one per node), 3 remain pending.
        assert_eq!(c.pending_pod_count(), 3);
        assert!(c.check_invariants());
    }

    #[test]
    fn pod_pending_during_a_batch_waits_for_the_next_scan() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        // One node-sized pod fills the bootstrap node; the second makes
        // the 10 s scan request a node, ready 150 s later.
        for _ in 0..2 {
            c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        }
        run_until(&mut c, &mut fx, &mut q, SimTime::from_secs(10));
        assert_eq!(c.live_node_count(), 2, "the first batch is requested");
        // A third pod turns pending while that batch is provisioning: the
        // scans at 60..150 s request nothing for it.
        run_until(&mut c, &mut fx, &mut q, SimTime::from_secs(55));
        let p3 = c.create_pod(q.now(), worker_spec(img), &mut fx);
        run_until(&mut c, &mut fx, &mut q, SimTime::from_secs(159));
        assert_eq!(
            c.live_node_count(),
            2,
            "no request while the batch is in flight"
        );
        assert_eq!(c.ready_node_count(), 1);
        // The batch is ready at 160 s and takes the second pod; the next
        // scan then requests a node for the third.
        run_until(&mut c, &mut fx, &mut q, SimTime::from_secs(160));
        assert_eq!(c.ready_node_count(), 2);
        assert_eq!(c.pending_pod_count(), 1);
        assert!(c.pod(p3).unwrap().node.is_none());
        run_until(&mut c, &mut fx, &mut q, SimTime::from_secs(170));
        assert_eq!(c.live_node_count(), 3, "the next scan requests a node");
        assert_eq!(c.ready_node_count(), 2);
        assert!(c.check_invariants());
    }

    #[test]
    fn idle_nodes_scale_down_but_not_below_min() {
        let mut cfg = small_cfg();
        cfg.min_nodes = 1;
        cfg.node_idle_timeout = Duration::from_secs(30);
        let mut c = Cluster::new(cfg);
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);

        // Force a second node into existence.
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let p2 = c.create_pod(q.now(), worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 5000);
        assert_eq!(c.ready_node_count(), 2);

        // Finish both pods; after the idle timeout one node is reclaimed.
        c.drain_watch();
        c.complete_pod(q.now(), p1, &mut fx);
        c.complete_pod(q.now(), p2, &mut fx);
        // Run controller ticks for 120 s of simulated time.
        let deadline = q.now() + Duration::from_secs(120);
        run_until(&mut c, &mut fx, &mut q, deadline);
        assert_eq!(c.ready_node_count(), 1, "scaled down to min_nodes");
        assert_eq!(c.live_node_count(), 1, "the removed node is gone");
        let removed = c
            .drain_watch()
            .iter()
            .filter(|e| matches!(e.kind, WatchKind::NodeRemoved(_)))
            .count();
        assert_eq!(removed, 1);
        assert!(c.check_invariants());
    }

    #[test]
    fn delete_running_pod_fails_it_and_frees_capacity() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        assert_eq!(c.pod(p1).unwrap().phase, PodPhase::Running);

        c.drain_watch();
        c.delete_pod(q.now(), p1, &mut fx);
        assert!(c.pod(p1).is_none());
        let events = c.drain_watch();
        assert!(events
            .iter()
            .any(|e| e.pod == p1 && e.kind == WatchKind::PodFailed));
        // Node is free again.
        let node = c.nodes.values().next().unwrap();
        assert!(node.pool.is_empty());
        assert!(c.check_invariants());
    }

    #[test]
    fn delete_pending_pod_is_clean() {
        let mut cfg = small_cfg();
        cfg.max_nodes = 1; // nothing can ever fit a second pod
        let mut c = Cluster::new(cfg);
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let _p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let p2 = c.create_pod(q.now(), worker_spec(img), &mut fx);
        c.drain_watch();
        c.delete_pod(q.now(), p2, &mut fx);
        assert!(c.pod(p2).is_none());
        assert_eq!(c.pending_pod_count(), 0);
        assert_eq!(c.group_replicas("wq-worker"), 1);
        // A pod deleted before it ran reports a clean exit.
        let events = c.drain_watch();
        assert!(events
            .iter()
            .any(|e| e.pod == p2 && e.kind == WatchKind::PodSucceeded));
        assert!(c.check_invariants());
    }

    #[test]
    fn watch_stream_records_full_lifecycle_in_order() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        c.bootstrap(SimTime::ZERO, &mut Sink::new());
        c.drain_watch();
        let mut q = Queue::new();
        let mut fx = Sink::new();
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let kinds: Vec<WatchKind> = c
            .drain_watch()
            .into_iter()
            .filter(|e| e.pod == p1)
            .map(|e| e.kind)
            .collect();
        assert!(matches!(kinds[0], WatchKind::PodCreated));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, WatchKind::PodScheduled(_))));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, WatchKind::PodImagePulled(_))));
        assert!(matches!(kinds.last(), Some(WatchKind::PodRunning(_))));
    }

    #[test]
    fn describe_reports_nodes_and_pods() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let _p = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let text = c.describe(q.now());
        assert!(text.contains("NODES (1 live)"), "{text}");
        assert!(text.contains("PODS (1 live)"), "{text}");
        assert!(text.contains("Running"), "{text}");
        assert!(text.contains("wq-worker"), "{text}");
    }

    #[test]
    fn group_queries() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        assert_eq!(c.group_replicas("wq-worker"), 1);
        assert_eq!(c.group_replicas("other"), 0);
        assert_eq!(c.running_pods_in_group("wq-worker"), vec![p1]);
    }

    #[test]
    fn group_counts_follow_every_exit_from_the_live_set() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let other = |image| PodSpec {
            group: "other".into(),
            ..worker_spec(image)
        };
        let recount = |c: &Cluster, g: &str| c.live_pods_in_group(g).count();
        let running = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let deleted = c.create_pod(q.now(), worker_spec(img), &mut fx);
        let completed = c.create_pod(q.now(), other(img), &mut fx);
        assert_eq!(
            (c.group_replicas("wq-worker"), c.group_replicas("other")),
            (2, 1)
        );
        c.delete_pod(q.now(), deleted, &mut fx);
        c.complete_pod(q.now(), completed, &mut fx);
        assert_eq!(
            (c.group_replicas("wq-worker"), c.group_replicas("other")),
            (1, 0)
        );
        // A node crash fails the running pod; a retired pod's second
        // exit is a no-op and must not count twice.
        let node = c.pod(running).and_then(|p| p.node).expect("bound");
        c.fail_node(q.now(), node, &mut fx);
        c.delete_pod(q.now(), running, &mut fx);
        for g in ["wq-worker", "other", "never-seen"] {
            assert_eq!(c.group_replicas(g), 0, "{g}");
            assert_eq!(c.group_replicas(g), recount(&c, g), "{g}");
        }
        assert!(c.check_invariants());
        c.create_pod(q.now(), other(img), &mut fx);
        assert_eq!(c.group_replicas("other"), 1);
        // A desynchronised count is an invariant violation.
        *c.live_per_group.get_mut("other").expect("seen") += 1;
        assert!(!c.check_invariants());
    }

    #[test]
    fn preemptible_nodes_get_reclaimed_and_replaced() {
        let mut cfg = small_cfg();
        cfg.preemption_mean_lifetime = Some(Duration::from_secs(300));
        cfg.min_nodes = 1;
        cfg.max_nodes = 4;
        let mut c = Cluster::new(cfg);
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        // A long-lived pod occupies the bootstrap node.
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        // Run for two simulated hours: the node must be reclaimed at some
        // point (mean lifetime 300 s) and the pod must fail with it.
        let mut preempted = false;
        flush(&mut fx, &mut q);
        while q.peek_time().is_some_and(|t| t <= SimTime::from_secs(7200)) {
            step(&mut c, &mut fx, &mut q);
            if c.pod(p1).is_none() {
                preempted = true;
                break;
            }
        }
        assert!(preempted, "spot node must be reclaimed within 2 h");
        assert!(c
            .drain_watch()
            .iter()
            .any(|e| e.pod == p1 && e.kind == WatchKind::PodFailed));
        assert!(c.check_invariants());
    }

    #[test]
    fn on_demand_nodes_never_self_preempt() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        // Drain controller ticks for a long horizon; nothing may fail.
        run_until(&mut c, &mut fx, &mut q, SimTime::from_secs(7200));
        assert_eq!(c.pod(p1).unwrap().phase, PodPhase::Running);
    }

    #[test]
    fn node_failure_fails_pods_and_replacement_provisions() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let node = c.pod(p1).unwrap().node.unwrap();
        c.drain_watch();
        c.fail_node(q.now(), node, &mut fx);
        assert!(c.pod(p1).is_none());
        assert_eq!(c.live_node_count(), 0);
        let events = c.drain_watch();
        assert!(events
            .iter()
            .any(|e| e.pod == p1 && e.kind == WatchKind::PodFailed));
        assert!(events
            .iter()
            .any(|e| e.kind == WatchKind::NodeRemoved(node)));
        assert!(c.check_invariants());
        // A replacement pod pends and a fresh node is provisioned.
        let p2 = c.create_pod(q.now(), worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 5000);
        assert_eq!(c.pod(p2).unwrap().phase, PodPhase::Running);
    }

    #[test]
    fn failing_unknown_or_removed_node_is_noop() {
        let mut c = Cluster::new(small_cfg());
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        fx.drain();
        c.fail_node(SimTime::ZERO, NodeId(99), &mut fx);
        assert!(fx.is_empty());
        let WatchKind::NodeReady(id) = c.drain_watch()[0].kind else {
            panic!("bootstrap readies a node");
        };
        c.fail_node(SimTime::ZERO, id, &mut fx);
        fx.drain();
        c.fail_node(SimTime::ZERO, id, &mut fx);
        assert!(fx.is_empty(), "double fail");
    }

    #[test]
    fn memory_binds_packing_before_cpu() {
        // 4-core node with 16 GB: 7 GB pods pack 2-per-node even though
        // CPU would allow 4.
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let spec = PodSpec {
            request: Resources::new(1000, 7_000, 5_000),
            image: img,
            group: "wq-worker".into(),
        };
        for _ in 0..4 {
            c.create_pod(SimTime::ZERO, spec.clone(), &mut fx);
        }
        run_to_quiescence(&mut c, &mut fx, &mut q, 5000);
        // 2 pods on the bootstrap node, 2 on a provisioned one.
        assert_eq!(c.ready_node_count(), 2);
        assert_eq!(c.running_pods_in_group("wq-worker").len(), 4);
        assert!(c.check_invariants());
    }

    #[test]
    fn pod_larger_than_any_machine_pends_forever() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let p = c.create_pod(
            SimTime::ZERO,
            PodSpec {
                request: Resources::cores(64, 1_000_000, 0),
                image: img,
                group: "huge".into(),
            },
            &mut fx,
        );
        // Run many controller ticks: no node is ever provisioned for it.
        run_until(&mut c, &mut fx, &mut q, SimTime::from_secs(600));
        assert!(matches!(
            c.pod(p).unwrap().phase,
            PodPhase::Pending(PendingReason::InsufficientResource)
        ));
        assert_eq!(c.live_node_count(), 1, "no futile provisioning");
    }

    #[test]
    fn image_pull_jitter_is_deterministic_per_seed() {
        let run_once = |seed: u64| {
            let mut cfg = small_cfg();
            cfg.image_pull_jitter = 0.2;
            cfg.seed = seed;
            let mut c = Cluster::new(cfg);
            let img = c.registry_mut().register("worker", 400.0);
            let mut q = Queue::new();
            let mut fx = Sink::new();
            c.bootstrap(SimTime::ZERO, &mut fx);
            let p = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
            run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
            c.pod(p).unwrap().running_at.unwrap()
        };
        assert_eq!(run_once(5), run_once(5), "same seed, same pull time");
        assert_ne!(run_once(5), run_once(6), "different seed differs");
    }

    #[test]
    fn small_pods_pack_multiple_per_node() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 100.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        let small = PodSpec {
            request: Resources::cores(1, 2_000, 5_000),
            image: img,
            group: "wq-worker".into(),
        };
        for _ in 0..4 {
            c.create_pod(SimTime::ZERO, small.clone(), &mut fx);
        }
        run_to_quiescence(&mut c, &mut fx, &mut q, 2000);
        // All four 1-core pods fit the single 4-core node.
        assert_eq!(c.ready_node_count(), 1);
        assert_eq!(c.running_pods_in_group("wq-worker").len(), 4);
        assert!(c.check_invariants());
    }

    #[test]
    fn image_pulled_for_a_deleted_pod_is_still_cached() {
        let mut c = Cluster::new(small_cfg());
        let img = c.registry_mut().register("worker", 500.0);
        let mut q = Queue::new();
        let mut fx = Sink::new();
        c.bootstrap(SimTime::ZERO, &mut fx);
        // The pod is deleted while its 10 s pull is in flight.
        let p1 = c.create_pod(SimTime::ZERO, worker_spec(img), &mut fx);
        let node = c.pod(p1).and_then(|p| p.node).expect("bound at once");
        c.delete_pod(SimTime::ZERO, p1, &mut fx);
        assert!(c.pod(p1).is_none());
        // The pull still completes on the node and caches the image.
        run_until(&mut c, &mut fx, &mut q, SimTime::from_secs(10));
        assert!(c.nodes[&node].has_image(img));
        // The next pod on that node skips the pull: scheduled and pulled
        // at once, running after the 1 s container start.
        c.drain_watch();
        let created = q.now();
        let p2 = c.create_pod(created, worker_spec(img), &mut fx);
        run_to_quiescence(&mut c, &mut fx, &mut q, 1000);
        let pod2 = c.pod(p2).unwrap();
        assert_eq!(pod2.node, Some(node));
        assert_eq!(pod2.running_at, Some(created + Duration::from_secs(1)));
        let pulled: Vec<SimTime> = c
            .drain_watch()
            .iter()
            .filter(|e| e.pod == p2 && e.kind == WatchKind::PodImagePulled(node))
            .map(|e| e.at)
            .collect();
        assert_eq!(pulled, vec![created]);
    }

    mod retired_state {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        #[derive(Debug, Clone)]
        enum Op {
            /// Create a pod in the worker group (`true`) or another group.
            Create(bool),
            /// Complete the live pod at this position (modulo the count).
            Complete(usize),
            /// Delete the live pod at this position.
            Delete(usize),
            /// Crash the live node at this position (or an unknown node
            /// when none is live).
            FailNode(usize),
            /// Deliver up to this many cluster events.
            Step(usize),
        }

        fn op() -> impl Strategy<Value = Op> {
            (0u32..10, any::<usize>(), 1usize..40).prop_map(|(kind, i, n)| match kind {
                0..=2 => Op::Create(i % 2 == 0),
                3 => Op::Complete(i),
                4 => Op::Delete(i),
                5 => Op::FailNode(i),
                _ => Op::Step(n),
            })
        }

        fn pick<T: Copy>(items: &[T], i: usize) -> Option<T> {
            (!items.is_empty()).then(|| items[i % items.len()])
        }

        proptest! {
            /// With pull and node faults on, a pod or node that stops leaves
            /// the cluster: the stored pods are exactly the group counts, a
            /// pod with a `PodSucceeded`/`PodFailed` watch event is gone for
            /// good (its id never comes back), every other issued pod is
            /// still there, a node with a `NodeRemoved` event is gone, and
            /// the pool stays within `max_nodes`.
            #[test]
            fn stopped_objects_leave_the_cluster(
                seed in any::<u64>(),
                ops in proptest::collection::vec(op(), 1..120),
            ) {
                let mut cfg = small_cfg();
                cfg.seed = seed;
                cfg.max_nodes = 4;
                cfg.faults.image_pull_fail_rate = 0.3;
                cfg.faults.image_pull_max_attempts = 3;
                cfg.faults.node_mttf = Some(Duration::from_secs(400));
                cfg.faults.node_mttr = Duration::from_secs(60);
                let max_nodes = cfg.max_nodes;
                let mut c = Cluster::new(cfg);
                let img = c.registry_mut().register("worker", 100.0);
                let mut q = Queue::new();
                let mut fx = Sink::new();
                c.bootstrap(SimTime::ZERO, &mut fx);
                let mut issued: BTreeSet<PodId> = BTreeSet::new();
                let mut retired: BTreeSet<PodId> = BTreeSet::new();
                let mut removed: BTreeSet<NodeId> = BTreeSet::new();
                for op in ops {
                    let now = q.now();
                    let live: Vec<PodId> = issued.difference(&retired).copied().collect();
                    match op {
                        Op::Create(worker) => {
                            let mut spec = worker_spec(img);
                            if !worker {
                                spec.group = "other".into();
                                spec.request = Resources::cores(1, 2_000, 5_000);
                            }
                            let id = c.create_pod(now, spec, &mut fx);
                            prop_assert!(issued.insert(id), "{} reissued", id);
                        }
                        Op::Complete(i) => {
                            if let Some(id) = pick(&live, i) {
                                c.complete_pod(now, id, &mut fx);
                            }
                        }
                        Op::Delete(i) => {
                            if let Some(id) = pick(&live, i) {
                                c.delete_pod(now, id, &mut fx);
                            }
                        }
                        Op::FailNode(i) => {
                            let nodes: Vec<NodeId> = c.nodes.keys().copied().collect();
                            let id = pick(&nodes, i).unwrap_or(NodeId(u64::MAX));
                            c.fail_node(now, id, &mut fx);
                        }
                        Op::Step(n) => {
                            for _ in 0..n {
                                if step(&mut c, &mut fx, &mut q).is_none() {
                                    break;
                                }
                            }
                        }
                    }
                    flush(&mut fx, &mut q);
                    for e in c.drain_watch() {
                        match e.kind {
                            WatchKind::PodSucceeded | WatchKind::PodFailed => {
                                prop_assert!(retired.insert(e.pod), "{} stopped twice", e.pod);
                            }
                            WatchKind::NodeRemoved(n) => {
                                prop_assert!(removed.insert(n), "{} removed twice", n);
                            }
                            _ => {}
                        }
                    }
                    let replicas: usize =
                        ["wq-worker", "other"].iter().map(|g| c.group_replicas(g)).sum();
                    prop_assert_eq!(c.pods.len(), replicas);
                    for id in &issued {
                        prop_assert_eq!(c.pod(*id).is_none(), retired.contains(id), "{}", id);
                    }
                    prop_assert!(removed.iter().all(|n| !c.nodes.contains_key(n)));
                    prop_assert!(c.live_node_count() <= max_nodes);
                    prop_assert!(c.check_invariants());
                }
            }
        }
    }
}
