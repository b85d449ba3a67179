//! Run one workload under every built-in scaling policy and compare.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use hta::core::driver::{DriverConfig, SystemDriver};
use hta::core::policy::{FixedPolicy, HpaPolicy, HtaConfig, HtaPolicy, ScalingPolicy};
use hta::core::{OperatorConfig, OraclePolicy, TargetTrackingPolicy};
use hta::prelude::*;
use hta::workloads::{blast_single_stage, BlastParams};

fn policies(declared_wf: &hta::makeflow::Workflow) -> Vec<(bool, Box<dyn ScalingPolicy>)> {
    // (is_hta, policy) — HTA learns resources via warm-up probing, the
    // others are given the declared requirements.
    vec![
        (
            true,
            Box::new(HtaPolicy::new(HtaConfig::default())) as Box<dyn ScalingPolicy>,
        ),
        (false, Box::new(HpaPolicy::new(0.20, 3, 20))),
        (false, Box::new(HpaPolicy::new(0.50, 3, 20))),
        (false, Box::new(FixedPolicy::new(20))),
        (false, Box::new(TargetTrackingPolicy::new())),
        (false, Box::new(OraclePolicy::from_workflow(declared_wf))),
    ]
}

fn main() {
    println!(
        "{:<14} {:>10} {:>14} {:>16} {:>8} {:>6}",
        "policy", "runtime_s", "waste_core_s", "shortage_core_s", "peak_w", "intr"
    );
    let make_wf = |declared: bool| {
        blast_single_stage(&BlastParams {
            jobs: 150,
            wall: Duration::from_secs(120),
            declared: declared.then_some(Resources::cores(1, 3_000, 5_000)),
            ..BlastParams::default()
        })
    };
    let declared_wf = make_wf(true);
    for (hta, policy) in policies(&declared_wf) {
        let workload = make_wf(!hta);
        let cfg = DriverConfig {
            operator: OperatorConfig {
                warmup: hta,
                trust_declared: !hta,
                learn: true,
                seed: 5,
            },
            ..DriverConfig::default()
        };
        let label = policy.name();
        let r = SystemDriver::new(cfg, workload, policy).run();
        assert!(!r.timed_out, "{label} must complete");
        println!(
            "{:<14} {:>10.0} {:>14.0} {:>16.0} {:>8.0} {:>6}",
            label,
            r.summary.runtime_s,
            r.summary.accumulated_waste_core_s,
            r.summary.accumulated_shortage_core_s,
            r.summary.peak_workers,
            r.interrupted_tasks,
        );
    }
    println!(
        "\n`intr` counts tasks interrupted by pod evictions — only the HPA\n\
         kills busy workers (it deletes pods to downscale); HTA and the\n\
         fixed pool drain gracefully."
    );
}
