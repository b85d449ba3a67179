//! Configuration of every evaluation setup in the paper.
//!
//! This module is the one place that decides a run's [`DriverConfig`],
//! workload and policy. Each builder returns a [`Scenario`] and states
//! only where its setup differs from `DriverConfig::default()`, which is
//! already the §VI evaluation cluster. The figure binaries, the perf
//! harness, `hta-run` and the integration tests all run these values, so
//! every run of a setup uses the same definition.
//!
//! [`PolicyKind`] is the one policy table: it parses every policy
//! spelling, builds the policy, and [`PolicyKind::operator`] derives the
//! operator mode a policy needs.

use std::str::FromStr;

use hta_cluster::{ClusterConfig, MachineType};
use hta_core::driver::{DriverConfig, RunResult, SystemDriver};
use hta_core::policy::{FixedPolicy, HpaPolicy, HtaConfig, HtaPolicy, ScalingPolicy};
use hta_core::{ControlPlaneFaults, OperatorConfig, OraclePolicy, TargetTrackingPolicy};
use hta_des::{DigestConfig, Duration};
use hta_forecast::{MpcConfig, MpcPolicy};
use hta_makeflow::Workflow;
use hta_resources::Resources;
use hta_trace::ArrivalSource;
use hta_workloads::{
    blast_multistage, blast_single_stage, iobound, BlastParams, IoBoundParams, MultistageParams,
};
use hta_workqueue::master::MasterConfig;
use hta_workqueue::{NetworkFaults, Partition};

/// Which autoscaler drives a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// The paper's contribution.
    Hta,
    /// `HPA(target CPU)` with the given target in `[0, 1]`.
    Hpa(f64),
    /// A fixed pool of N workers.
    Fixed(usize),
    /// Clairvoyant baseline that plans from the workflow's true task
    /// footprints (workflow runs only).
    Oracle,
    /// Target tracking on CPU utilization with a cooldown.
    Tracking,
    /// Model-predictive control over snapshot/fork what-if branches
    /// (`hta-forecast`, not in the paper).
    Mpc,
}

impl FromStr for PolicyKind {
    type Err = String;

    /// Parse `hta`, `hpa:<target%>` (a trailing `%` is allowed),
    /// `fixed:<n>`, `oracle`, `tracking` or `mpc`.
    fn from_str(spec: &str) -> Result<Self, String> {
        if let Some(t) = spec.strip_prefix("hpa:") {
            let pct: f64 = t
                .trim_end_matches('%')
                .parse()
                .map_err(|e| format!("hpa: {e}"))?;
            if !pct.is_finite() || pct < 0.0 {
                return Err(format!("hpa: target {pct}% is not a CPU percentage"));
            }
            return Ok(PolicyKind::Hpa(pct / 100.0));
        }
        if let Some(n) = spec.strip_prefix("fixed:") {
            let n = n.parse().map_err(|e| format!("fixed: {e}"))?;
            return Ok(PolicyKind::Fixed(n));
        }
        match spec {
            "hta" => Ok(PolicyKind::Hta),
            "oracle" => Ok(PolicyKind::Oracle),
            "tracking" => Ok(PolicyKind::Tracking),
            "mpc" => Ok(PolicyKind::Mpc),
            _ => Err(format!("unknown policy {spec:?}")),
        }
    }
}

impl PolicyKind {
    /// The operator mode a run under this policy needs. On a workflow,
    /// HTA and MPC run the HTA operator pipeline (warm-up probing,
    /// learned categories, undeclared resources) and the baselines trust
    /// declared resources. An open-loop trace has no workflow jobs to
    /// probe and its generator declares every task's resources, so a
    /// trace run trusts declared resources under every policy.
    pub fn operator(self, trace: bool, seed: u64) -> OperatorConfig {
        let probe = matches!(self, PolicyKind::Hta | PolicyKind::Mpc) && !trace;
        OperatorConfig {
            warmup: probe,
            trust_declared: !probe,
            learn: true,
            seed,
        }
    }

    /// A fresh policy for a run of `cfg`: HPA scales between the run's
    /// initial and maximum worker counts, and the oracle plans from
    /// `workflow`, so it fails on a trace run (no workflow).
    pub fn build(
        self,
        cfg: &DriverConfig,
        workflow: Option<&Workflow>,
    ) -> Result<Box<dyn ScalingPolicy>, String> {
        Ok(match self {
            PolicyKind::Hta => Box::new(HtaPolicy::new(HtaConfig::default())),
            PolicyKind::Hpa(target) => {
                Box::new(HpaPolicy::new(target, cfg.initial_workers, cfg.max_workers))
            }
            PolicyKind::Fixed(n) => Box::new(FixedPolicy::new(n)),
            PolicyKind::Oracle => {
                let workflow = workflow
                    .ok_or("oracle plans from the workflow DAG; an open-loop trace has none")?;
                Box::new(OraclePolicy::from_workflow(workflow))
            }
            PolicyKind::Tracking => Box::new(TargetTrackingPolicy::new()),
            PolicyKind::Mpc => Box::new(MpcPolicy::new(MpcConfig::default())),
        })
    }
}

/// What a run executes.
#[derive(Debug)]
pub enum Input {
    /// A workflow DAG.
    Workflow(Workflow),
    /// An open-loop arrival stream.
    Trace(ArrivalSource),
}

/// One run's whole definition: driver configuration, input and policy.
#[derive(Debug)]
pub struct Scenario {
    /// The driver configuration.
    pub cfg: DriverConfig,
    /// The workflow or arrival stream.
    pub input: Input,
    /// The autoscaler.
    pub policy: PolicyKind,
}

impl Scenario {
    /// A fresh instance of the scenario's policy. Fails only when the
    /// policy cannot drive the input (the oracle on a trace).
    pub fn build_policy(&self) -> Result<Box<dyn ScalingPolicy>, String> {
        let workflow = match &self.input {
            Input::Workflow(w) => Some(w),
            Input::Trace(_) => None,
        };
        self.policy.build(&self.cfg, workflow)
    }

    /// The scenario's driver under `policy`: the scenario's own (see
    /// [`Scenario::build_policy`]) or a variant of it.
    pub fn driver(self, policy: Box<dyn ScalingPolicy>) -> SystemDriver {
        match self.input {
            Input::Workflow(w) => SystemDriver::new(self.cfg, w, policy),
            Input::Trace(source) => SystemDriver::new_traced(self.cfg, source, policy),
        }
    }

    /// Run the scenario under its own policy, recording an event-stream
    /// digest when `digest` is given (`perf --paranoid`).
    pub fn run(self, digest: Option<DigestConfig>) -> RunResult {
        let policy = self
            .build_policy()
            .expect("a scenario's policy drives its input");
        let driver = self.driver(policy);
        match digest {
            Some(d) => driver.with_digest(d).run(),
            None => driver.run(),
        }
    }
}

// ----------------------------------------------------------------------
// The §VI setup
// ----------------------------------------------------------------------

/// `DriverConfig::default()`, the §VI cluster (3–20 × n1-standard-4,
/// node-sized 3-core worker pods, master in-cluster, 60 s metrics lag),
/// in the operator mode `kind` needs on a workflow. `seed` seeds both
/// the operator and the cluster's latency stream.
pub fn paper_driver(kind: PolicyKind, seed: u64) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig {
            seed,
            ..ClusterConfig::default()
        },
        operator: kind.operator(false, seed),
        ..DriverConfig::default()
    }
}

/// A workflow on the §VI setup ([`paper_driver`]) under `kind`, as the
/// `compare`, `chaos`, `sweep` and `forecast --quick` tables run it.
/// `workflow(declared)` builds the workload; `declared` is true when the
/// policy's operator mode trusts declared resources.
pub fn paper(kind: PolicyKind, seed: u64, workflow: impl FnOnce(bool) -> Workflow) -> Scenario {
    let cfg = paper_driver(kind, seed);
    let workflow = workflow(cfg.operator.trust_declared);
    Scenario {
        cfg,
        input: Input::Workflow(workflow),
        policy: kind,
    }
}

/// `hta-run`'s workflow mode: `workflow` on the §VI setup.
pub fn cli_workflow(workflow: Workflow, kind: PolicyKind, seed: u64) -> Scenario {
    paper(kind, seed, |_| workflow)
}

// ----------------------------------------------------------------------
// Fig. 2 — HPA target-CPU sweep on BLAST-200
// ----------------------------------------------------------------------

/// The Fig. 2 workload: 200 equal BLAST jobs, requirements known
/// (§III-B: "We assume that the resource requirements of individual jobs
/// are known in advance").
pub fn fig2_workload() -> Workflow {
    blast_single_stage(&BlastParams {
        jobs: 200,
        db_mb: 50.0,
        query_mb: 2.0,
        output_mb: 0.6,
        wall: Duration::from_secs(60),
        wall_jitter: 0.05,
        actual: Resources::cores(1, 3_000, 5_000),
        declared: Some(Resources::cores(1, 3_000, 5_000)),
    })
}

/// One Fig. 2 configuration (`Config-10/50/99` under `Hpa`, or the ideal
/// pool under `Fixed`): a 15-node GKE cluster, 1-core worker pods (up to
/// 60), master outside the cluster.
pub fn fig2(kind: PolicyKind, seed: u64) -> Scenario {
    let mut cfg = DriverConfig {
        cluster: ClusterConfig {
            max_nodes: 15,
            seed,
            ..ClusterConfig::default()
        },
        operator: kind.operator(false, seed),
        worker_request: Resources::new(1000, 3_500, 10_000),
        master_in_cluster: false,
        master_request: Resources::ZERO,
        max_workers: 60,
        max_sim_time: Duration::from_secs(50_000),
        ..DriverConfig::default()
    };
    if let PolicyKind::Fixed(n) = kind {
        // The "ideal scenario": the full pool exists from the start.
        cfg.initial_workers = n;
        cfg.cluster.min_nodes = cfg.cluster.max_nodes;
    }
    Scenario {
        cfg,
        input: Input::Workflow(fig2_workload()),
        policy: kind,
    }
}

// ----------------------------------------------------------------------
// Fig. 4 — worker-pod sizing on BLAST-100
// ----------------------------------------------------------------------

/// The three §IV-A configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig4Config {
    /// (a) 15 × 1-vCPU/4 GB worker pods.
    FineGrained,
    /// (b) 5 node-sized workers, resource requirements unknown.
    CoarseUnknown,
    /// (c) 5 node-sized workers, resource requirements known.
    CoarseKnown,
    /// Extension (not in the paper): the fine-grained configuration with
    /// worker-to-worker transfers enabled — the database replicates over
    /// the peer network instead of the master uplink, recovering most of
    /// the fine-grained penalty.
    FineGrainedPeer,
}

/// The Fig. 4 workload: 100 BLAST jobs sharing a cacheable 1.4 GB input,
/// ~600 KB outputs.
pub fn fig4_workload(declared: bool) -> Workflow {
    blast_single_stage(&BlastParams {
        jobs: 100,
        db_mb: 1_400.0,
        query_mb: 2.0,
        output_mb: 0.6,
        wall: Duration::from_secs(40),
        wall_jitter: 0.05,
        actual: Resources::cores(1, 3_000, 5_000),
        declared: declared.then_some(Resources::cores(1, 3_000, 5_000)),
    })
}

/// One Fig. 4 run: a fixed pool on the fixed 5-node (3 vCPU / 12 GB)
/// cluster, master outside it.
pub fn fig4(config: Fig4Config, seed: u64) -> Scenario {
    let machine = MachineType::gke_3cpu_12gb();
    let (workers, worker_request) = match config {
        Fig4Config::FineGrained | Fig4Config::FineGrainedPeer => {
            (15, Resources::new(1000, 3_800, 20_000))
        }
        Fig4Config::CoarseUnknown | Fig4Config::CoarseKnown => (5, machine.allocatable),
    };
    let kind = PolicyKind::Fixed(workers);
    let mut cfg = DriverConfig {
        cluster: ClusterConfig {
            machine,
            min_nodes: 5,
            max_nodes: 5,
            seed,
            ..ClusterConfig::default()
        },
        master: MasterConfig {
            peer_transfers: config == Fig4Config::FineGrainedPeer,
            ..MasterConfig::default()
        },
        operator: kind.operator(false, seed),
        worker_request,
        master_in_cluster: false,
        master_request: Resources::ZERO,
        initial_workers: workers,
        max_workers: workers,
        max_sim_time: Duration::from_secs(20_000),
        ..DriverConfig::default()
    };
    let declared = config != Fig4Config::CoarseUnknown;
    if !declared {
        // (b): nothing declared and nothing learned, so every task holds
        // a whole worker.
        cfg.operator.trust_declared = false;
        cfg.operator.learn = false;
    }
    Scenario {
        cfg,
        input: Input::Workflow(fig4_workload(declared)),
        policy: kind,
    }
}

// ----------------------------------------------------------------------
// Fig. 6 — resource-initialization latency
// ----------------------------------------------------------------------

/// One cold-start measurement: (reservation_s, pull_and_start_s).
#[derive(Debug, Clone, Copy)]
pub struct InitSample {
    /// Machine reservation component (create → scheduled on a node).
    pub reservation_s: f64,
    /// Image pull + container start (scheduled → running).
    pub pull_s: f64,
}

impl InitSample {
    /// End-to-end initialization latency.
    pub fn total_s(&self) -> f64 {
        self.reservation_s + self.pull_s
    }
}

/// Reproduce the Fig. 6 benchmark: `runs` sequential pod creations, each
/// requiring a fresh node (previous pods keep their nodes busy).
pub fn fig6_measurements(runs: usize, seed: u64) -> Vec<InitSample> {
    use hta_cluster::{Cluster, ClusterEvent, PodPhase, PodSpec};
    use hta_des::{EffectSink, EventQueue, SimTime};

    let mut cluster = Cluster::new(ClusterConfig {
        machine: MachineType::n1_standard_4(),
        min_nodes: 0,
        max_nodes: runs + 1,
        seed,
        ..ClusterConfig::default()
    });
    let image = cluster.registry_mut().register("wq-worker:latest", 500.0);
    let mut q: EventQueue<ClusterEvent> = EventQueue::new();
    let mut fx = EffectSink::new();
    cluster.bootstrap(SimTime::ZERO, &mut fx);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let pod = cluster.create_pod(
            q.now(),
            PodSpec {
                request: Resources::cores(4, 14_000, 50_000),
                image,
                group: "bench".into(),
            },
            &mut fx,
        );
        // Run until this pod is running (or has failed and left the
        // cluster).
        for _ in 0..100_000 {
            if cluster
                .pod(pod)
                .is_none_or(|p| p.phase == PodPhase::Running)
            {
                break;
            }
            for (d, e) in fx.drain() {
                q.schedule_in(d, e);
            }
            let Some((now, ev)) = q.pop() else { break };
            cluster.handle(now, ev, &mut fx);
        }
        let p = cluster
            .pod(pod)
            .filter(|p| p.phase == PodPhase::Running)
            .expect("pod failed to start");
        let created = p.created_at.as_secs_f64();
        let scheduled = p.scheduled_at.expect("scheduled").as_secs_f64();
        let running = p.running_at.expect("running").as_secs_f64();
        samples.push(InitSample {
            reservation_s: scheduled - created,
            pull_s: running - scheduled,
        });
    }
    samples
}

// ----------------------------------------------------------------------
// Fig. 10 — multistage BLAST under HPA-20 / HPA-50 / HTA
// ----------------------------------------------------------------------

/// The multistage workload (stages of 200/34/164 tasks).
pub fn fig10_workload(declared: bool) -> Workflow {
    let params = if declared {
        MultistageParams::default().declared()
    } else {
        MultistageParams::default()
    };
    blast_multistage(&params)
}

/// Driver config for the §VI evaluation cluster: [`paper_driver`] with
/// a 100 000 s cut-off.
pub fn fig10_driver(kind: PolicyKind, seed: u64) -> DriverConfig {
    DriverConfig {
        max_sim_time: Duration::from_secs(100_000),
        ..paper_driver(kind, seed)
    }
}

/// One Fig. 10 run.
pub fn fig10(kind: PolicyKind, seed: u64) -> Scenario {
    let cfg = fig10_driver(kind, seed);
    let workflow = fig10_workload(cfg.operator.trust_declared);
    Scenario {
        cfg,
        input: Input::Workflow(workflow),
        policy: kind,
    }
}

/// [`fig10`] with a seeded control-plane crash-recovery cycle: the
/// master/operator/policy die mid-ramp, checkpoint-restore after the
/// outage and WAL-replay their decisions. The perf harness tracks this
/// workload (`master-crash-recover300s`) to bound the checkpoint + WAL
/// overhead on the hot path, and `perf --paranoid` replays it bitwise.
pub fn fig10_crash_recovery(kind: PolicyKind, seed: u64) -> Scenario {
    let mut s = fig10(kind, seed);
    s.cfg.faults.control_plane = ControlPlaneFaults {
        crash_times: vec![Duration::from_secs(900)],
        outage: Duration::from_secs(60),
        checkpoint_interval: Duration::from_secs(300),
    };
    s
}

/// [`fig10`] over a degraded control channel: 20 ms message delay
/// (30 % jitter), 0.5 % loss, 60 s heartbeat leases, and a 300 s
/// symmetric partition mid-run. The perf harness tracks this workload
/// (`net-partition300s`) to bound the cost of routing every dispatch /
/// ack / completion / heartbeat through the message channel plus the
/// partition's presumed-dead re-queues, and `perf --paranoid` replays
/// it bitwise.
pub fn fig10_net_partition(kind: PolicyKind, seed: u64) -> Scenario {
    let mut s = fig10(kind, seed);
    s.cfg.faults.network = NetworkFaults {
        delay: Duration::from_millis(20),
        jitter: 0.3,
        loss: 0.005,
        lease: Duration::from_secs(60),
        partitions: vec![Partition {
            start: Duration::from_secs(900),
            duration: Duration::from_secs(300),
            asymmetric: false,
        }],
        ..NetworkFaults::default()
    };
    s
}

// ----------------------------------------------------------------------
// Fig. 11 — I/O-bound workload under HPA-20 / HPA-50 / HTA
// ----------------------------------------------------------------------

/// One Fig. 11 run: 200 `dd` tasks on the Fig. 10 cluster.
pub fn fig11(kind: PolicyKind, seed: u64) -> Scenario {
    let mut cfg = fig10_driver(kind, seed);
    // The HPA baselines start from the small standing pool they then
    // never grow (CPU stays under every target); HTA starts from the
    // 3-node warm-up pool.
    if !cfg.operator.warmup {
        cfg.initial_workers = 5;
        cfg.cluster.min_nodes = 5;
    }
    let params = if cfg.operator.trust_declared {
        IoBoundParams::default().declared()
    } else {
        IoBoundParams::default()
    };
    Scenario {
        cfg,
        input: Input::Workflow(iobound(&params)),
        policy: kind,
    }
}

// ----------------------------------------------------------------------
// Streaming traces — open-loop arrivals (crates/trace)
// ----------------------------------------------------------------------

/// Driver config for the open-loop trace workloads: the §VI cluster
/// grown to 100 nodes so HTA can track the ~39 task/s MMPP plateau —
/// ~156 one-core slots at the ~4 s mean wall time (~211 at the diurnal
/// peak), 3 slots per 3-core/12 GB worker, so the 96-worker quota
/// (288 slots) keeps sustained demand served and the backlog bounded
/// by burst transients rather than growing with the trace. Master
/// in-cluster, 60 s metrics lag.
pub fn trace_driver(seed: u64) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig {
            max_nodes: 100,
            seed,
            ..ClusterConfig::default()
        },
        // The trace-mode operator is the same under every policy.
        operator: PolicyKind::Hta.operator(true, seed),
        initial_workers: 8,
        max_workers: 96,
        // blast-1m spans ~25.6 k sim-seconds of arrivals; leave room
        // for the ramp and the drain tail.
        max_sim_time: Duration::from_secs(60_000),
        ..DriverConfig::default()
    }
}

/// An open-loop run of `source` on the trace cluster ([`trace_driver`])
/// under `kind`. Finished tasks leave the master and a traced run keeps
/// no spans of them, so peak memory is bounded by the in-flight set,
/// not the trace length.
pub fn trace(source: ArrivalSource, kind: PolicyKind, seed: u64) -> Scenario {
    Scenario {
        cfg: trace_driver(seed),
        input: Input::Trace(source),
        policy: kind,
    }
}

/// A synthetic trace (`<preset>[,tasks=N][,rate=R][,amp=A]`) under HTA:
/// `blast-1m` (10⁶ tasks) is the bounded-memory headline, `trace-50k`
/// the CI-sized stand-in.
pub fn synth_trace(spec: &str, seed: u64) -> Result<Scenario, String> {
    Ok(trace(
        ArrivalSource::synth(spec, seed)?,
        PolicyKind::Hta,
        seed,
    ))
}

// ----------------------------------------------------------------------
// Ablations
// ----------------------------------------------------------------------

/// HTA ablation variants (design-choice benches called out in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Full HTA (reference).
    Full,
    /// No category learning: every task holds a whole worker for the
    /// entire run (what §IV-A's measurement step buys).
    NoLearning,
    /// No warm-up: all jobs fan out immediately; unknown-resource tasks
    /// flood the exclusive path (what §V-C's probing buys).
    NoWarmup,
    /// Init-time feedback disabled: the estimator always uses a fixed
    /// 30 s window instead of the measured ~157 s (what the informer
    /// tracking buys).
    FrozenInitTime,
    /// Per-worker free lists instead of the paper's aggregate `avaRsrc`
    /// (no phantom fits across capacity fragments).
    PerWorkerEstimator,
}

/// Run one ablation variant on the Fig. 10 multistage workload.
pub fn ablation_run(variant: Ablation, seed: u64) -> RunResult {
    use hta_core::EstimatorMode;
    let mut s = fig10(PolicyKind::Hta, seed);
    let mut hta_cfg = HtaConfig::default();
    match variant {
        Ablation::Full => {}
        Ablation::NoLearning => {
            s.cfg.operator.learn = false;
            s.cfg.operator.warmup = false;
        }
        Ablation::NoWarmup => {
            s.cfg.operator.warmup = false;
        }
        Ablation::FrozenInitTime => {
            s.cfg.use_measured_init_time = false;
            s.cfg.default_init_time = Duration::from_secs(30);
        }
        Ablation::PerWorkerEstimator => {
            hta_cfg.estimator_mode = EstimatorMode::PerWorker;
        }
    }
    s.driver(Box::new(HtaPolicy::new(hta_cfg))).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_run_seed_seeds_the_cluster_latency_stream() {
        let seeds: Vec<u64> = [1, 2]
            .into_iter()
            .map(|seed| {
                paper(PolicyKind::Hta, seed, |_| fig2_workload())
                    .cfg
                    .cluster
                    .seed
            })
            .collect();
        assert_ne!(seeds[0], seeds[1], "two seeds, two cluster streams");
        assert_eq!(fig10_driver(PolicyKind::Hta, 2).cluster.seed, seeds[1]);
    }

    #[test]
    fn fig6_latency_matches_calibration() {
        let samples = fig6_measurements(10, 42);
        assert_eq!(samples.len(), 10);
        let totals: Vec<f64> = samples.iter().map(|s| s.total_s()).collect();
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        // Paper: mean 157.4 s, σ 4.2 s.
        assert!((mean - 157.4).abs() < 12.0, "mean={mean}");
        for s in &samples {
            assert!(s.reservation_s > 100.0, "reservation {:?}", s);
            assert!(s.pull_s > 5.0 && s.pull_s < 30.0, "pull {:?}", s);
        }
    }

    #[test]
    fn fig4_workload_sizes() {
        assert_eq!(fig4_workload(true).len(), 100);
        assert!(fig4_workload(false).categories["align"].declared.is_none());
    }

    #[test]
    fn fig4_peer_variant_completes() {
        let r = fig4(Fig4Config::FineGrainedPeer, 1).run(None);
        assert!(!r.timed_out);
        assert_eq!(r.summary.peak_workers, 15.0);
    }

    #[test]
    fn fig2_ideal_beats_every_hpa_config() {
        let ideal = fig2(PolicyKind::Fixed(60), 1).run(None);
        let hpa10 = fig2(PolicyKind::Hpa(0.10), 1).run(None);
        let hpa99 = fig2(PolicyKind::Hpa(0.99), 1).run(None);
        assert!(!ideal.timed_out && !hpa10.timed_out && !hpa99.timed_out);
        assert!(ideal.summary.runtime_s < hpa10.summary.runtime_s);
        assert!(hpa10.summary.runtime_s < hpa99.summary.runtime_s);
        assert!(
            hpa99.summary.peak_workers <= 3.0,
            "Config-99 must never scale (peak {})",
            hpa99.summary.peak_workers
        );
    }

    #[test]
    fn fig11_headline_holds_for_any_seed() {
        for seed in [3, 77] {
            let hpa = fig11(PolicyKind::Hpa(0.20), seed).run(None);
            let hta = fig11(PolicyKind::Hta, seed).run(None);
            assert!(
                hta.summary.runtime_s * 1.5 < hpa.summary.runtime_s,
                "seed {seed}: HTA {} vs HPA {}",
                hta.summary.runtime_s,
                hpa.summary.runtime_s
            );
        }
    }

    #[test]
    fn fig10_headline_holds_for_any_seed() {
        for seed in [3, 77] {
            let hpa = fig10(PolicyKind::Hpa(0.20), seed).run(None);
            let hta = fig10(PolicyKind::Hta, seed).run(None);
            // Waste at least halved; runtime within +40 %.
            assert!(
                hta.summary.accumulated_waste_core_s * 2.0 < hpa.summary.accumulated_waste_core_s,
                "seed {seed}: waste {} vs {}",
                hta.summary.accumulated_waste_core_s,
                hpa.summary.accumulated_waste_core_s
            );
            assert!(
                hta.summary.runtime_s < hpa.summary.runtime_s * 1.4,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fig10_workload_shape() {
        let wf = fig10_workload(true);
        assert_eq!(wf.len(), 398);
        assert!(wf.categories["align"].declared.is_some());
    }
}
