//! Extend the system with your own scaling policy.
//!
//! Implements a naive "one worker per waiting task, never scale down"
//! policy against the [`hta::core::policy::ScalingPolicy`] trait and runs
//! it through the same driver as HTA — showing what the estimator's
//! initialization-cycle awareness buys over naive queue-length scaling.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use hta::core::driver::{DriverConfig, SystemDriver};
use hta::core::policy::{HtaConfig, HtaPolicy, PolicyContext, ScaleAction, ScalingPolicy};
use hta::core::OperatorConfig;
use hta::prelude::*;
use hta::workloads::{blast_single_stage, BlastParams};

/// Naive queue-length scaler: request one worker per waiting task (no
/// packing, no in-flight accounting, no initialization-cycle forecast),
/// and never drain. `Clone` is required by the trait: the driver's
/// snapshot/fork capability deep-clones whatever policy it carries.
#[derive(Clone)]
struct GreedyPolicy {
    desired: usize,
}

impl ScalingPolicy for GreedyPolicy {
    fn name(&self) -> String {
        "Greedy".into()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> (ScaleAction, Duration) {
        let waiting =
            ctx.queue.waiting_count() + ctx.held_jobs.iter().map(|(_, n)| n).sum::<usize>();
        let want = waiting.min(ctx.max_workers);
        self.desired = want.max(ctx.live_worker_pods);
        let action = if want > ctx.live_worker_pods {
            ScaleAction::CreateWorkers(want - ctx.live_worker_pods)
        } else {
            ScaleAction::None
        };
        (action, Duration::from_secs(15))
    }

    fn desired(&self) -> usize {
        self.desired
    }

    fn clone_box(&self) -> Box<dyn ScalingPolicy> {
        Box::new(self.clone())
    }
}

fn run(label: &str, policy: Box<dyn ScalingPolicy>) -> (f64, f64) {
    let workload = blast_single_stage(&BlastParams {
        jobs: 120,
        wall: Duration::from_secs(90),
        declared: None, // both policies learn via warm-up probing
        ..BlastParams::default()
    });
    let cfg = DriverConfig {
        operator: OperatorConfig {
            warmup: true,
            trust_declared: false,
            learn: true,
            seed: 3,
        },
        ..DriverConfig::default()
    };
    let r = SystemDriver::new(cfg, workload, policy).run();
    assert!(!r.timed_out);
    println!(
        "{label:<8} runtime {:>6.0} s | waste {:>7.0} core·s | peak workers {:>2.0}",
        r.summary.runtime_s, r.summary.accumulated_waste_core_s, r.summary.peak_workers
    );
    (r.summary.runtime_s, r.summary.accumulated_waste_core_s)
}

fn main() {
    println!("120 BLAST jobs, unknown resources, custom policy vs HTA:\n");
    let (_, greedy_waste) = run("Greedy", Box::new(GreedyPolicy { desired: 0 }));
    let (_, hta_waste) = run("HTA", Box::new(HtaPolicy::new(HtaConfig::default())));
    println!(
        "\nGreedy provisions one node-sized worker per waiting task and\n\
         never lets go — {:.1}x the waste of HTA, which packs tasks by\n\
         their measured footprint and forecasts completions across the\n\
         initialization cycle before adding machines.",
        greedy_waste / hta_waste.max(1.0)
    );
}
