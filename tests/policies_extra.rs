//! End-to-end tests for the extra policies (oracle, target-tracking) and
//! the driver's trace ring.

use hta::cluster::{ClusterConfig, MachineType};
use hta::core::driver::{DriverConfig, SystemDriver};
use hta::core::policy::{HtaConfig, HtaPolicy};
use hta::core::{OperatorConfig, OraclePolicy, TargetTrackingPolicy};
use hta::prelude::*;
use hta::workloads::{blast_single_stage, BlastParams};

fn cfg(is_informed: bool) -> DriverConfig {
    DriverConfig {
        cluster: ClusterConfig {
            machine: MachineType::n1_standard_4(),
            min_nodes: 2,
            max_nodes: 10,
            seed: 6,
            ..ClusterConfig::default()
        },
        operator: OperatorConfig {
            warmup: is_informed,
            trust_declared: !is_informed,
            learn: true,
            seed: 6,
        },
        initial_workers: 2,
        max_workers: 10,
        trace_capacity: 512,
        ..DriverConfig::default()
    }
}

fn workload(jobs: usize, declared: bool) -> hta::makeflow::Workflow {
    blast_single_stage(&BlastParams {
        jobs,
        wall: Duration::from_secs(90),
        db_mb: 200.0,
        declared: declared.then_some(Resources::cores(1, 3_000, 5_000)),
        ..BlastParams::default()
    })
}

#[test]
fn oracle_completes_and_bounds_hta() {
    // The oracle scenario is fully informed end to end: the policy knows
    // the true footprints AND the workflow declares them to Work Queue
    // (otherwise tasks would still dispatch exclusively).
    let wf = workload(40, true);
    let oracle = SystemDriver::new(
        cfg(false),
        wf.clone(),
        Box::new(OraclePolicy::from_workflow(&wf)),
    )
    .run();
    let hta = SystemDriver::new(
        cfg(true),
        workload(40, false),
        Box::new(HtaPolicy::new(HtaConfig::default())),
    )
    .run();
    assert!(!oracle.timed_out && !hta.timed_out);
    // The oracle knows requirements instantly (no probe serialization),
    // so it cannot be slower than HTA on this embarrassingly parallel
    // workload.
    assert!(
        oracle.makespan_s <= hta.makespan_s,
        "oracle {} vs hta {}",
        oracle.makespan_s,
        hta.makespan_s
    );
    assert!(oracle.summary.peak_workers > 2.0);
}

#[test]
fn target_tracking_scales_on_queue_depth() {
    let r = SystemDriver::new(
        cfg(false),
        workload(40, true),
        Box::new(TargetTrackingPolicy::new()),
    )
    .run();
    assert!(!r.timed_out);
    assert!(
        r.summary.peak_workers > 2.0,
        "queue depth must drive growth (peak {})",
        r.summary.peak_workers
    );
}

#[test]
fn trace_records_scaling_decisions() {
    let r = SystemDriver::new(
        cfg(true),
        workload(30, false),
        Box::new(HtaPolicy::new(HtaConfig::default())),
    )
    .run();
    assert!(!r.trace.is_empty(), "tracing was enabled");
    let rendered = r.trace.render();
    assert!(
        rendered.contains("CreateWorkers"),
        "scale-up decision traced:\n{rendered}"
    );
    assert!(
        rendered.contains("workload complete"),
        "completion traced:\n{rendered}"
    );
}

#[test]
fn trace_disabled_by_default() {
    let mut c = cfg(true);
    c.trace_capacity = 0;
    let r = SystemDriver::new(
        c,
        workload(10, false),
        Box::new(HtaPolicy::new(HtaConfig::default())),
    )
    .run();
    assert!(r.trace.is_empty());
}
