//! Chaos-recovery property harness: for random workloads × crash points,
//! a run whose control plane crashes and recovers must terminate with the
//! *identical* completed-task set as its crash-free twin, with matching
//! cost accounting, bitwise-reproducibly per seed — plus the
//! bounded-amnesia contract (a crash replays at most one checkpoint
//! interval of WAL records on top of its checkpoint).

use hta_cluster::{ClusterConfig, MachineType};
use hta_core::driver::{DriverConfig, RunResult, SystemDriver};
use hta_core::operator::OperatorConfig;
use hta_core::policy::FixedPolicy;
use hta_core::{ControlPlaneFaults, FaultPlan};
use hta_des::Duration;
use hta_makeflow::{CategoryProfile, Job, JobId, SimProfile, Workflow};
use hta_resources::Resources;
use hta_workqueue::master::MasterConfig;
use proptest::prelude::*;

fn workload(jobs: u64, wall_s: u64) -> Workflow {
    let jobs: Vec<Job> = (0..jobs)
        .map(|i| Job {
            id: JobId(i),
            category: "stage".into(),
            command: format!("work {i}"),
            inputs: vec!["db".into()],
            outputs: vec![format!("out.{i}")],
        })
        .collect();
    let profile = CategoryProfile {
        name: "stage".into(),
        declared: Some(Resources::cores(1, 2_000, 2_000)),
        sim: SimProfile {
            wall: Duration::from_secs(wall_s),
            cpu_fraction: 0.9,
            actual: Resources::cores(1, 2_000, 2_000),
            output_mb: 0.5,
            wall_jitter: 0.0,
            heavy_tail: false,
        },
    };
    Workflow::from_jobs(jobs, vec![profile])
        .expect("single-stage workflow is well-formed")
        .with_source_file("db", 80.0, true)
}

fn cfg(seed: u64) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig {
            machine: MachineType::custom("m4", Resources::cores(4, 16_000, 100_000)),
            min_nodes: 2,
            max_nodes: 6,
            node_provision_mean: Duration::from_secs(150),
            node_provision_sd: Duration::from_secs(2),
            controller_interval: Duration::from_secs(10),
            node_idle_timeout: Duration::from_secs(120),
            registry_bandwidth_mbps: 50.0,
            image_pull_jitter: 0.0,
            pod_start_delay: Duration::from_secs(1),
            preemption_mean_lifetime: None,
            faults: Default::default(),
            seed,
        },
        master: MasterConfig {
            egress_base_mbps: 200.0,
            egress_overhead_per_flow: 0.0,
            peer_transfers: false,
            peer_bandwidth_mbps: 2_000.0,
            faults: Default::default(),
            net: Default::default(),
        },
        operator: OperatorConfig {
            warmup: false,
            trust_declared: true,
            learn: true,
            seed: seed.wrapping_add(1),
        },
        worker_request: Resources::cores(3, 12_000, 50_000),
        worker_image_mb: 250.0,
        master_in_cluster: true,
        master_request: Resources::new(1000, 2_000, 5_000),
        initial_workers: 2,
        max_workers: 6,
        sample_interval: Duration::from_secs(1),
        default_init_time: Duration::from_secs(157),
        use_measured_init_time: true,
        faults: FaultPlan::default(),
        trace_capacity: 0,
        metrics_lag: Duration::ZERO,
        max_sim_time: Duration::from_secs(20_000),
    }
}

fn completed_set(r: &RunResult) -> Vec<String> {
    let mut v: Vec<String> = r
        .task_spans
        .iter()
        .filter(|s| s.completed_s.is_some())
        .map(|s| s.label.clone())
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash at a uniformly random instant: the recovered run terminates
    /// with the same completed-task set and cost accounting as the
    /// crash-free baseline, reproducibly per seed.
    #[test]
    fn crash_recovery_matches_crash_free_baseline(
        seed in 0u64..1_000,
        jobs in 4u64..20,
        wall_s in 20u64..90,
        crash_s in 20u64..260,
        outage_s in 10u64..60,
        interval_s in 30u64..90,
    ) {
        let baseline =
            SystemDriver::new(cfg(seed), workload(jobs, wall_s), Box::new(FixedPolicy::new(3)))
                .run();
        prop_assert!(!baseline.timed_out);
        let crashed = || {
            let mut c = cfg(seed);
            c.faults.control_plane = ControlPlaneFaults {
                crash_times: vec![Duration::from_secs(crash_s)],
                outage: Duration::from_secs(outage_s),
                checkpoint_interval: Duration::from_secs(interval_s),
            };
            SystemDriver::new(c, workload(jobs, wall_s), Box::new(FixedPolicy::new(3))).run()
        };
        let a = crashed();
        prop_assert!(!a.timed_out, "recovered run must terminate");
        // Identical terminal completed-task set (the crash may or may not
        // have landed inside the workload window; equivalence holds either
        // way).
        prop_assert_eq!(completed_set(&a), completed_set(&baseline));
        // Cost accounting: exactly-once completion, no failure leakage.
        prop_assert_eq!(a.jobs_failed, baseline.jobs_failed);
        prop_assert_eq!(a.jobs_abandoned, baseline.jobs_abandoned);
        prop_assert_eq!(
            a.task_spans.iter().filter(|s| s.completed_s.is_some()).count(),
            baseline.task_spans.iter().filter(|s| s.completed_s.is_some()).count(),
            "completed-task accounting must match"
        );
        // Every span keeps the times of its real run, although WAL replay
        // re-finished the tasks completed since the checkpoint.
        for s in &a.task_spans {
            let done = s.completed_s.expect("every job completes");
            let start = s.started_s.expect("a completed span has a start");
            prop_assert!(s.submitted_s <= start && start <= done, "{:?}", s);
        }
        // Bounded amnesia: every recovery restored a checkpoint at most
        // one interval old and was re-queued exactly once per orphan.
        for rep in &a.recoveries {
            prop_assert!(rep.amnesia_window_s() <= interval_s as f64 + 1e-9);
            prop_assert_eq!(rep.outage_s(), outage_s as f64);
        }
        if a.summary.faults.master_crashes > 0 {
            prop_assert!(a.summary.faults.checkpoints_taken >= 2);
        }
        // Bitwise per-seed reproducibility of the crashed run.
        let b = crashed();
        prop_assert_eq!(&a.summary, &b.summary);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.makespan_s, b.makespan_s);
        prop_assert_eq!(&a.recoveries, &b.recoveries);
    }
}
