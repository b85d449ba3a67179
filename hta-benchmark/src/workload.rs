//! The three benchmark workloads and the inputs each one is built from.
//!
//! Inputs come only from the `hta_bench::experiments` builders (plus the
//! public workload and trace generators for the tiny test sizes), and all
//! of them derive from the workload seed.

use hta_bench::experiments::{fig10_driver, fig10_workload, trace_driver, PolicyKind};
use hta_core::driver::{DriverConfig, SystemDriver};
use hta_core::policy::{HtaConfig, HtaPolicy, ScalingPolicy};
use hta_core::FaultPlan;
use hta_des::{Duration, Partition};
use hta_forecast::{MpcConfig, MpcPolicy};
use hta_makeflow::Workflow;
use hta_trace::ArrivalSource;
use hta_workloads::{blast_multistage, MultistageParams};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A long diurnal trace under HTA: the pool swings between a dozen
    /// and 96 workers every 900 s cycle.
    StreamChurn,
    /// `trace-50k` under HTA with heavy faults: lossy channel with a
    /// partition, transient and OOM retries, a control-plane crash with
    /// WAL replay, node and image-pull faults.
    StreamChaos,
    /// The Fig. 10 multistage BLAST workflow under the model-predictive
    /// policy, whose decisions fork what-if branches.
    MpcFig10,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::StreamChurn,
    Workload::StreamChaos,
    Workload::MpcFig10,
];

/// How big the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's own sizes.
    Full,
    /// Task counts small enough for the benchmark's tests.
    Tiny,
}

/// What a driver is built over.
pub enum Work {
    /// An open-loop arrival trace.
    Trace(ArrivalSource),
    /// A closed workflow DAG.
    Flow(Workflow),
}

/// Everything needed to construct one [`SystemDriver`].
pub struct Inputs {
    /// Driver configuration.
    pub cfg: DriverConfig,
    /// The workload itself.
    pub work: Work,
    /// Tasks the workload will submit in total.
    pub tasks: u64,
}

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamChurn => "stream-churn",
            Workload::StreamChaos => "stream-chaos",
            Workload::MpcFig10 => "mpc-fig10",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The synthetic trace spec of a trace workload.
    pub fn trace_spec(self, scale: Scale) -> Option<&'static str> {
        match (self, scale) {
            (Workload::StreamChurn, Scale::Full) => Some("trace-50k,tasks=300000,amp=0.8"),
            (Workload::StreamChurn, Scale::Tiny) => Some("trace-50k,tasks=1500,amp=0.8"),
            (Workload::StreamChaos, Scale::Full) => Some("trace-50k"),
            (Workload::StreamChaos, Scale::Tiny) => Some("trace-50k,tasks=1500"),
            (Workload::MpcFig10, _) => None,
        }
    }

    /// Wall time one full-size untraced `run()` takes on the reference
    /// host (a shared 2-core x86-64 Xeon), seconds. It only sets how many
    /// instances an end-to-end run makes (see
    /// [`instance_count`](crate::instance_count)).
    pub fn nominal_instance_s(self) -> f64 {
        match self {
            Workload::StreamChurn => 5.6,
            Workload::StreamChaos => 0.7,
            Workload::MpcFig10 => 3.9,
        }
    }

    /// Build the workload's inputs from `seed`.
    pub fn inputs(self, seed: u64, scale: Scale) -> Inputs {
        match self {
            Workload::StreamChurn | Workload::StreamChaos => {
                let mut cfg = trace_driver(seed);
                if self == Workload::StreamChaos {
                    cfg.faults = chaos_faults(seed);
                    // An OOM-killed attempt is retried at the task's declared
                    // memory. With the default escalation (×1.5 per kill, up
                    // to a whole worker) the escalated requests stall dispatch
                    // for seconds at a time, by an amount that depends on the
                    // seed (README.md, observation 2).
                    cfg.master.faults.oom_escalation = 1.0;
                }
                let spec = self.trace_spec(scale).expect("trace workload");
                let source = ArrivalSource::synth(spec, seed).expect("valid synth spec");
                let tasks = source.stats().total_tasks;
                Inputs {
                    cfg,
                    work: Work::Trace(source),
                    tasks,
                }
            }
            Workload::MpcFig10 => {
                let workflow = match scale {
                    Scale::Full => fig10_workload(false),
                    Scale::Tiny => blast_multistage(&MultistageParams {
                        stage_tasks: vec![12, 4, 8],
                        ..MultistageParams::default()
                    }),
                };
                Inputs {
                    cfg: fig10_driver(PolicyKind::Mpc, seed),
                    tasks: workflow.dag.len() as u64,
                    work: Work::Flow(workflow),
                }
            }
        }
    }

    /// A fresh instance of the workload's scaling policy (the same one
    /// the experiment builders use for its [`PolicyKind`]).
    pub fn policy(self) -> Box<dyn ScalingPolicy> {
        match self {
            Workload::StreamChurn | Workload::StreamChaos => {
                Box::new(HtaPolicy::new(HtaConfig::default()))
            }
            Workload::MpcFig10 => Box::new(MpcPolicy::new(MpcConfig::default())),
        }
    }
}

/// The seed of instance `i` of a run with workload seed `seed`: the seed
/// itself for instance 0, then SplitMix64-style mixes of the pair, so
/// the instances of nearby seeds never coincide.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `FaultPlan::heavy` with its partition moved inside the run: the
/// heavy plan's partition starts at 1,500 s, after the ~1,130 s
/// `trace-50k` run has ended, so it would never fire.
pub fn chaos_faults(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::heavy(seed);
    plan.network.partitions = vec![Partition {
        start: Duration::from_secs(600),
        duration: Duration::from_secs(90),
        asymmetric: false,
    }];
    plan
}

impl Inputs {
    /// Construct the driver over these inputs.
    pub fn into_driver(self, policy: Box<dyn ScalingPolicy>) -> SystemDriver {
        match self.work {
            Work::Trace(source) => SystemDriver::new_traced(self.cfg, source, policy),
            Work::Flow(workflow) => SystemDriver::new(self.cfg, workflow, policy),
        }
    }
}
