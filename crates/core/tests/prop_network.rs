//! Lossy-control-plane property harness: for random workloads × network
//! fault plans (delay, loss, duplication, reordering, partitions,
//! heartbeat leases), a run over the degraded channel must terminate with
//! the *identical* completed-task set as its fault-free twin — exactly
//! once per task, no zombie double-completions, no lost work — and do so
//! bitwise-reproducibly per seed. The shared input is either small
//! (80 MB, staged in well under a second) or large (16–64 GB over the
//! master's 200 MB/s link, staged for minutes), so lease expiries also
//! land while workers are still staging and the re-adopt-and-restage
//! path is checked against the twin too. A salt-0 what-if fork
//! taken while a partition is actively cutting the link must replay its
//! parent exactly.

use hta_cluster::{ClusterConfig, MachineType};
use hta_core::driver::{DriverConfig, RunResult, SystemDriver};
use hta_core::operator::OperatorConfig;
use hta_core::policy::FixedPolicy;
use hta_core::whatif::{BranchSpec, WhatIf};
use hta_core::{FaultPlan, ScaleAction};
use hta_des::{Duration, SimTime};
use hta_makeflow::{CategoryProfile, Job, JobId, SimProfile, Workflow};
use hta_resources::Resources;
use hta_workqueue::master::MasterConfig;
use hta_workqueue::{NetworkFaults, Partition};
use proptest::prelude::*;

fn workload(jobs: u64, wall_s: u64, db_mb: f64) -> Workflow {
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
        .with_source_file("db", db_mb, true)
}

fn cfg(seed: u64, net: NetworkFaults) -> DriverConfig {
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
        faults: FaultPlan {
            seed,
            network: net,
            ..FaultPlan::default()
        },
        trace_capacity: 0,
        metrics_lag: Duration::ZERO,
        max_sim_time: Duration::from_secs(40_000),
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

/// A random-but-bounded fault plan: every transport fault plus an
/// optional partition episode and an optional heartbeat lease.
fn arb_net() -> impl Strategy<Value = NetworkFaults> {
    (
        0u64..200,                                              // delay ms
        0.0f64..0.25,                                           // loss
        (0.0f64..0.15, 0.0f64..0.15),                           // duplicate, reorder
        (any::<bool>(), 30u64..280, 10u64..120, any::<bool>()), // partition?
        (any::<bool>(), 30u64..90),                             // lease?
    )
        .prop_map(|(delay_ms, loss, dup_reorder, partition, lease)| {
            let (duplicate, reorder) = dup_reorder;
            let (has_partition, start, dur, asym) = partition;
            let (has_lease, lease_s) = lease;
            NetworkFaults {
                delay: Duration::from_millis(delay_ms),
                jitter: if delay_ms > 0 { 0.3 } else { 0.0 },
                loss,
                duplicate,
                reorder,
                partitions: if has_partition {
                    vec![Partition {
                        start: Duration::from_secs(start),
                        duration: Duration::from_secs(dur),
                        asymmetric: asym,
                    }]
                } else {
                    Vec::new()
                },
                lease: if has_lease {
                    Duration::from_secs(lease_s)
                } else {
                    Duration::ZERO
                },
                ..NetworkFaults::default()
            }
        })
}

/// The shared input's size: the small 80 MB file or a large one
/// (16–64 GB) that keeps workers staging long enough for a lease expiry
/// to catch them mid-transfer (about one case in eight does).
fn arb_db_mb() -> impl Strategy<Value = f64> {
    (any::<bool>(), 16_000.0f64..64_000.0).prop_map(|(large, mb)| if large { mb } else { 80.0 })
}

proptest! {
    // Enough cases for several lease expiries to land mid-staging.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any seeded network-fault plan — loss, duplication, reordering,
    /// partitions, lease expiries, zombie fencing — terminates with the
    /// same completed-task set as the fault-free twin, bitwise
    /// reproducibly per seed.
    #[test]
    fn lossy_channel_matches_fault_free_twin(
        seed in 0u64..1_000,
        jobs in 4u64..16,
        wall_s in 20u64..90,
        db_mb in arb_db_mb(),
        net in arb_net(),
    ) {
        let baseline = SystemDriver::new(
            cfg(seed, NetworkFaults::default()),
            workload(jobs, wall_s, db_mb),
            Box::new(FixedPolicy::new(3)),
        )
        .run();
        prop_assert!(!baseline.timed_out);

        let faulted = || {
            SystemDriver::new(
                cfg(seed, net.clone()),
                workload(jobs, wall_s, db_mb),
                Box::new(FixedPolicy::new(3)),
            )
            .run()
        };
        let a = faulted();
        prop_assert!(!a.timed_out, "degraded run must still terminate");
        // The network loses messages, not work: identical terminal
        // completed-task set, exactly once per task.
        prop_assert_eq!(completed_set(&a), completed_set(&baseline));
        prop_assert_eq!(a.jobs_failed, baseline.jobs_failed);
        prop_assert_eq!(a.jobs_abandoned, baseline.jobs_abandoned);
        // Accounting stays self-consistent: fault-free transport implies
        // zero channel counters; an expired lease implies liveness was on.
        if !net.transport_active() {
            prop_assert_eq!(a.summary.faults.msgs_dropped, 0);
            prop_assert_eq!(a.summary.faults.msgs_duplicated, 0);
            prop_assert_eq!(a.summary.faults.msgs_reordered, 0);
        }
        if a.summary.faults.leases_expired > 0 {
            prop_assert!(net.lease > Duration::ZERO);
        }
        // Bitwise per-seed reproducibility of the degraded run.
        let b = faulted();
        prop_assert_eq!(&a.summary, &b.summary);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.makespan_s, b.makespan_s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// A salt-0 no-action fork taken while a partition is actively
    /// cutting the control link replays the parent's own future exactly:
    /// the branch sees the same in-flight retransmits, the same partition
    /// healing, the same re-queues.
    #[test]
    fn salt_zero_fork_under_active_partition_replays_parent(
        seed in 0u64..500,
        jobs in 4u64..12,
        wall_s in 30u64..90,
        start_s in 60u64..200,
        dur_s in 30u64..120,
        asym in any::<bool>(),
        into_s in 5u64..25,
        horizon_s in 120u64..600,
    ) {
        let net = NetworkFaults {
            delay: Duration::from_millis(25),
            jitter: 0.3,
            loss: 0.05,
            partitions: vec![Partition {
                start: Duration::from_secs(start_s),
                duration: Duration::from_secs(dur_s),
                asymmetric: asym,
            }],
            lease: Duration::from_secs(45),
            ..NetworkFaults::default()
        };
        let mut parent = SystemDriver::new(
            cfg(seed, net),
            workload(jobs, wall_s, 80.0),
            Box::new(FixedPolicy::new(3)),
        );
        // Fork strictly inside the partition window.
        let fork_time = SimTime::ZERO + Duration::from_secs(start_s + into_s.min(dur_s - 1));
        parent.advance_until(fork_time);
        let outcome = parent.branch(&BranchSpec {
            salt: 0,
            initial_action: ScaleAction::None,
            horizon: Duration::from_secs(horizon_s),
            max_events: 400_000,
        });
        let before = parent.completed_tasks();
        parent.advance_until(fork_time + Duration::from_secs(horizon_s));
        let parent_delta = parent.completed_tasks() - before;
        prop_assert_eq!(
            outcome.completed_delta, parent_delta,
            "salt-0 branch diverged from its parent under an active partition"
        );
    }
}
