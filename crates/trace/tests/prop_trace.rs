//! Property tests for the streaming trace contract: same-seed streams
//! are bitwise identical, streaming emission equals eager
//! materialization, a salt-0 mid-trace fork replays the parent stream
//! exactly (non-zero salts diverge), and a trace-driven run that
//! crashes and recovers completes the identical task set as its
//! crash-free twin.

use hta_cluster::{ClusterConfig, MachineType};
use hta_core::driver::{DriverConfig, SystemDriver};
use hta_core::operator::OperatorConfig;
use hta_core::policy::FixedPolicy;
use hta_core::{ControlPlaneFaults, FaultPlan};
use hta_des::{Duration, SimTime, SnapshotState};
use hta_resources::Resources;
use hta_trace::source::LOOKAHEAD;
use hta_trace::ArrivalSource;
use hta_workqueue::master::MasterConfig;
use hta_workqueue::TaskSpec;
use proptest::prelude::*;

fn spec(tasks: u64, rate: u64) -> String {
    format!("demo-1k,tasks={tasks},rate={rate}")
}

/// Drain a source eagerly: the whole remaining stream as one vector.
fn drain(mut s: ArrivalSource) -> Vec<(SimTime, TaskSpec)> {
    let mut out = Vec::new();
    while let Some(ev) = s.replay_next() {
        out.push(ev);
    }
    out
}

fn driver_cfg(seed: u64) -> DriverConfig {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ bitwise-identical arrival streams, across arbitrary
    /// preset knobs.
    #[test]
    fn same_seed_streams_are_bitwise_identical(
        seed in 0u64..10_000,
        tasks in 20u64..300,
        rate in 1u64..20,
    ) {
        let s = spec(tasks, rate);
        let a = drain(ArrivalSource::synth(&s, seed).expect("valid spec"));
        let b = drain(ArrivalSource::synth(&s, seed).expect("valid spec"));
        prop_assert_eq!(a.len() as u64, tasks);
        prop_assert_eq!(a, b);
    }

    /// Streaming emission through the bounded lookahead window
    /// (peek/pop as the clock advances) yields exactly the eagerly
    /// materialized stream.
    #[test]
    fn streaming_equals_eager_materialization(
        seed in 0u64..10_000,
        tasks in 20u64..200,
        rate in 1u64..20,
    ) {
        let s = spec(tasks, rate);
        let eager = drain(ArrivalSource::synth(&s, seed).expect("valid spec"));
        let mut src = ArrivalSource::synth(&s, seed).expect("valid spec");
        let mut streamed = Vec::new();
        while let Some(at) = src.peek_next_time() {
            // The driver pattern: wake at the next arrival instant and
            // pop everything that is due.
            while let Some(task) = src.pop_due(at) {
                streamed.push((at, task));
            }
        }
        prop_assert!(src.exhausted());
        // Co-due arrivals pop at the first peek that covers them, so the
        // popped timestamps are the peeked ones; compare specs against
        // the true arrival order and times monotonically.
        prop_assert_eq!(streamed.len(), eager.len());
        for ((pt, pspec), (et, espec)) in streamed.iter().zip(eager.iter()) {
            prop_assert!(pt >= et, "popped no earlier than it arrived");
            prop_assert_eq!(pspec, espec);
        }
    }

    /// A salt-0 fork taken mid-trace replays the parent's remaining
    /// stream exactly; a non-zero salt diverges once the pre-drawn
    /// lookahead window is spent.
    #[test]
    fn salt_zero_fork_mid_trace_replays_parent(
        seed in 0u64..10_000,
        prefix in 0u64..80,
        salt in 1u64..1_000,
    ) {
        // Enough remaining tasks that divergence must clear the
        // committed lookahead buffer and still have room to show.
        let tasks = prefix + LOOKAHEAD as u64 + 120;
        let mut parent = ArrivalSource::synth(&spec(tasks, 10), seed).expect("valid spec");
        for _ in 0..prefix {
            let _ = parent.replay_next();
        }
        let replay = parent.fork(0);
        let branch = parent.fork(salt);
        let rest = drain(parent);
        prop_assert_eq!(&drain(replay), &rest, "salt-0 fork must replay the parent");
        // Non-zero salt must diverge once the committed lookahead is spent.
        prop_assert_ne!(&drain(branch), &rest);
    }

    /// Crash the control plane mid-trace: the recovered run completes
    /// the identical task set (by retirement digest) as the crash-free
    /// twin, bitwise-reproducibly per seed.
    #[test]
    fn traced_crash_recovery_completes_identical_task_set(
        seed in 0u64..1_000,
        tasks in 30u64..120,
        rate in 2u64..6,
        crash_s in 20u64..200,
        outage_s in 10u64..40,
        interval_s in 30u64..60,
    ) {
        let s = spec(tasks, rate);
        let baseline = {
            let source = ArrivalSource::synth(&s, seed).expect("valid spec");
            SystemDriver::new_traced(driver_cfg(seed), source, Box::new(FixedPolicy::new(4))).run()
        };
        prop_assert!(!baseline.timed_out);
        prop_assert_eq!(baseline.completed as u64, tasks);
        let crashed = || {
            let mut cfg = driver_cfg(seed);
            cfg.faults.control_plane = ControlPlaneFaults {
                crash_times: vec![Duration::from_secs(crash_s)],
                outage: Duration::from_secs(outage_s),
                checkpoint_interval: Duration::from_secs(interval_s),
            };
            let source = ArrivalSource::synth(&s, seed).expect("valid spec");
            SystemDriver::new_traced(cfg, source, Box::new(FixedPolicy::new(4))).run()
        };
        let a = crashed();
        prop_assert!(!a.timed_out, "recovered traced run must terminate");
        prop_assert_eq!(a.completed, baseline.completed);
        prop_assert_eq!(
            a.completed_digest, baseline.completed_digest,
            "identical completed-task set across crash and crash-free runs"
        );
        let st = a.arrivals.clone().expect("traced run reports arrival stats");
        prop_assert_eq!(st.submitted, tasks);
        prop_assert!(st.exhausted);
        // Bitwise per-seed reproducibility of the crashed run.
        let b = crashed();
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.completed_digest, b.completed_digest);
        prop_assert_eq!(a.makespan_s, b.makespan_s);
    }
}
