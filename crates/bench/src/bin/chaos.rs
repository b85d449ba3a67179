//! Resilience table: fault levels × policies.
//!
//! ```text
//! cargo run --release -p hta-bench --bin chaos -- [tasks] [seed]
//!   tasks: stage-1 task count of the multistage workload (default 60)
//!   seed:  fault-plan seed (default 42)
//! ```
//!
//! Runs the multistage BLAST workload under three chaos levels — none,
//! light (5 % pull failures, 2 % transient exits), heavy (flaky nodes +
//! 15 % pull failures, 5 % transients, OOM kills, speculation, plus a
//! seeded control-plane crash that checkpoint-restores and WAL-replays) —
//! for each autoscaling policy, and prints runtime inflation, retries by
//! kind, wasted core·s, crash-recovery work and the completion guarantee.
//! Everything draws from the seeded plan, so the table is reproducible.

use hta_bench::{paper, PolicyKind};
use hta_core::driver::RunResult;
use hta_core::FaultPlan;
use hta_des::Duration;
use hta_makeflow::Workflow;
use hta_workloads::{blast_multistage, MultistageParams};
use rayon::prelude::*;

const POLICIES: [(&str, PolicyKind); 3] = [
    ("hta", PolicyKind::Hta),
    ("hpa20", PolicyKind::Hpa(0.20)),
    ("fixed", PolicyKind::Fixed(20)),
];
const LEVELS: [&str; 3] = ["none", "light", "heavy"];

fn plan(level: &str, seed: u64) -> FaultPlan {
    match level {
        "light" => FaultPlan::light(seed),
        "heavy" => FaultPlan {
            // One targeted mid-run crash on top of the probabilistic mix.
            node_crash_times: vec![Duration::from_secs(1_200)],
            ..FaultPlan::heavy(seed)
        },
        _ => FaultPlan::default(),
    }
}

fn workload(tasks: usize, declared: bool) -> Workflow {
    let p = MultistageParams {
        stage_tasks: vec![tasks, (tasks / 6).max(2), tasks / 2 + 2],
        ..MultistageParams::default()
    };
    blast_multistage(&if declared { p.declared() } else { p })
}

fn run(kind: PolicyKind, level: &str, tasks: usize, seed: u64) -> RunResult {
    let mut s = paper(kind, seed, |declared| workload(tasks, declared));
    s.cfg.faults = plan(level, seed);
    s.run(None)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tasks: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(60);
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    println!("chaos sweep: multistage BLAST ({tasks} stage-1 tasks), seed {seed}\n");

    let cells: Vec<(usize, usize)> = (0..POLICIES.len())
        .flat_map(|p| (0..LEVELS.len()).map(move |l| (p, l)))
        .collect();
    let results: Vec<((usize, usize), RunResult)> = cells
        .par_iter()
        .map(|&(p, l)| ((p, l), run(POLICIES[p].1, LEVELS[l], tasks, seed)))
        .collect();

    println!(
        "{:<8} {:<7} {:>10} {:>9} {:>8} {:>6} {:>6} {:>6} {:>12} {:>6} {:>8} {:>7} {:>7} {:>6} {:>6} {:>7} {:>9}",
        "policy",
        "chaos",
        "runtime_s",
        "inflate",
        "retries",
        "trans",
        "oom",
        "pull",
        "wasted_c·s",
        "crash",
        "requeue",
        "down_s",
        "dropped",
        "duped",
        "lease",
        "part_s",
        "complete"
    );
    for (p, (policy, _)) in POLICIES.iter().enumerate() {
        let baseline = results
            .iter()
            .find(|((pp, ll), _)| *pp == p && *ll == 0)
            .map(|(_, r)| r.summary.runtime_s)
            .unwrap_or(0.0);
        for (l, level) in LEVELS.iter().enumerate() {
            let r = &results
                .iter()
                .find(|((pp, ll), _)| *pp == p && *ll == l)
                .expect("cell ran")
                .1;
            let f = &r.summary.faults;
            let complete = if r.timed_out {
                "TIMEOUT".to_string()
            } else if r.jobs_failed == 0 {
                "all".to_string()
            } else {
                format!("-{}", r.jobs_failed + r.jobs_abandoned)
            };
            println!(
                "{:<8} {:<7} {:>10.0} {:>8.2}x {:>8} {:>6} {:>6} {:>6} {:>12.0} {:>6} {:>8} {:>7.0} {:>7} {:>6} {:>6} {:>7.0} {:>9}",
                policy,
                level,
                r.summary.runtime_s,
                if baseline > 0.0 {
                    r.summary.runtime_s / baseline
                } else {
                    1.0
                },
                f.task_retries,
                f.transient_failures,
                f.oom_kills,
                f.image_pull_retries,
                f.wasted_core_s,
                f.master_crashes,
                f.recovery_requeued,
                f.outage_s,
                f.msgs_dropped,
                f.msgs_duplicated,
                f.leases_expired,
                f.partition_s,
                complete,
            );
        }
    }
    println!(
        "\ncolumns: inflate = runtime vs the same policy fault-free; trans/oom = attempt kills by kind;\n\
         pull = image-pull retries; crash/requeue/down_s = control-plane crashes survived, tasks\n\
         re-queued by recovery reconciliation, total outage; dropped/duped = control messages lost\n\
         (loss + partitions) and duplicated in flight; lease = worker leases expired (presumed dead);\n\
         part_s = scheduled partition seconds; complete = jobs finished (\"all\") or failed+abandoned\n\
         count."
    );
}
