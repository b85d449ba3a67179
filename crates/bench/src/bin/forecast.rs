//! Cost frontier: model-predictive scaling vs the paper's policies.
//!
//! ```text
//! cargo run --release -p hta-bench --bin forecast -- [--quick] [seed]
//!   --quick: scaled-down multistage workload only (the CI smoke job)
//!   seed:    base simulation seed (default 42)
//! ```
//!
//! Runs the Fig. 10 (multistage BLAST) and Fig. 11 (I/O-bound) workloads
//! under MPC (`hta-forecast`), HTA and HPA-20 — clean, under the light
//! fault plan, and under the heavy plan (node churn + OOM kills + a
//! seeded control-plane crash-recovery cycle) — and prints the
//! cost/makespan frontier each policy lands on. MPC forks what-if branches of the live simulation at every
//! decision (snapshot/fork, see ARCHITECTURE.md), so unlike HTA's
//! Algorithm 1 estimate its forecasts see staging, contention and the
//! injected faults; the table quantifies what that buys (and what it
//! costs in decision overhead, reported as forked-branch event counts).

use hta_bench::{fig10, fig11, paper, PolicyKind, ReportTable};
use hta_core::driver::RunResult;
use hta_core::FaultPlan;
use hta_forecast::{MpcConfig, MpcPolicy};
use hta_workloads::{blast_multistage, MultistageParams};
use rayon::prelude::*;

const POLICIES: [(&str, PolicyKind); 3] = [
    ("MPC", PolicyKind::Mpc),
    ("HTA", PolicyKind::Hta),
    ("HPA(20%)", PolicyKind::Hpa(0.20)),
];

/// Total pool spend over the run: `∫ supply dt` in core·s — the "cost"
/// axis of the frontier (waste is the part of it not covered by demand).
fn cost_core_s(r: &RunResult) -> f64 {
    r.recorder.supply.integral_until(r.summary.runtime_s)
}

fn frontier_table(title: &str, rows: Vec<(&str, &RunResult)>) -> String {
    let mut table = ReportTable::new(
        title,
        vec![
            "runtime_s",
            "cost_core_s",
            "waste_core_s",
            "shortage_core_s",
        ],
    );
    for (label, r) in &rows {
        table.add_row(
            *label,
            vec![
                r.summary.runtime_s,
                cost_core_s(r),
                r.summary.accumulated_waste_core_s,
                r.summary.accumulated_shortage_core_s,
            ],
            vec![None, None, None, None],
        );
    }
    table.render()
}

fn quick(seed: u64) {
    // The CI smoke: a scaled-down multistage workload, MPC vs HTA, with
    // tight forecast budgets so the whole comparison runs in seconds.
    let workload = || {
        blast_multistage(&MultistageParams {
            stage_tasks: vec![30, 6, 18],
            ..MultistageParams::default()
        })
    };
    let run = |kind: PolicyKind| -> RunResult {
        let s = paper(kind, seed, |_| workload());
        if kind != PolicyKind::Mpc {
            return s.run(None);
        }
        let mut mpc_cfg = MpcConfig::default();
        mpc_cfg.forecast.ensemble = 1;
        mpc_cfg.forecast.max_branches = 8;
        s.driver(Box::new(MpcPolicy::new(mpc_cfg))).run()
    };
    let mut results: Vec<RunResult> = [PolicyKind::Mpc, PolicyKind::Hta]
        .par_iter()
        .map(|&k| run(k))
        .collect();
    let hta = results.pop().expect("two runs");
    let mpc = results.pop().expect("two runs");
    assert!(!mpc.timed_out, "MPC run hit the simulation cut-off");
    assert!(!hta.timed_out, "HTA run hit the simulation cut-off");
    println!(
        "{}",
        frontier_table(
            "forecast smoke — scaled-down multistage BLAST (clean)",
            vec![("MPC", &mpc), ("HTA", &hta)],
        )
    );
    println!("forecast smoke OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick_mode = args.iter().any(|a| a == "--quick");
    let seed: u64 = args.iter().find_map(|a| a.parse().ok()).unwrap_or(42);

    if quick_mode {
        quick(seed);
        return;
    }

    println!("=== forecast: cost/makespan frontier, MPC vs HTA vs HPA-20 ===\n");

    // 2 workloads × {clean, light, heavy} × 3 policies, all independent.
    const LEVELS: [&str; 3] = [
        "clean",
        "light faults (5% pull failures, 2% transients)",
        "heavy faults (node churn, OOM kills, control-plane crash-recovery)",
    ];
    let cells: Vec<(usize, usize, usize)> = (0..2usize)
        .flat_map(|w| {
            (0..LEVELS.len()).flat_map(move |f| (0..POLICIES.len()).map(move |p| (w, f, p)))
        })
        .collect();
    let runs: Vec<((usize, usize, usize), RunResult)> = cells
        .par_iter()
        .map(|&(w, level, p)| {
            let kind = POLICIES[p].1;
            let mut s = if w == 0 {
                fig10(kind, seed)
            } else {
                fig11(kind, seed)
            };
            match level {
                1 => s.cfg.faults = FaultPlan::light(seed),
                2 => s.cfg.faults = FaultPlan::heavy(seed),
                _ => {}
            }
            ((w, level, p), s.run(None))
        })
        .collect();

    for (w, wname) in [(0, "fig10 multistage BLAST"), (1, "fig11 I/O-bound")] {
        for (level, lname) in LEVELS.iter().enumerate() {
            let mut rows: Vec<(&str, &RunResult)> = Vec::new();
            let mut crashes = 0;
            let mut dropped = 0;
            let mut duped = 0;
            let mut leases = 0;
            let mut part_s = 0.0;
            for (p, (pname, _)) in POLICIES.iter().enumerate() {
                if let Some((_, r)) = runs
                    .iter()
                    .find(|((rw, rf, rp), _)| (*rw, *rf, *rp) == (w, level, p))
                {
                    assert!(!r.timed_out, "{pname} on {wname} hit the sim cut-off");
                    crashes += r.summary.faults.master_crashes;
                    dropped += r.summary.faults.msgs_dropped;
                    duped += r.summary.faults.msgs_duplicated;
                    leases += r.summary.faults.leases_expired;
                    part_s += r.summary.faults.partition_s;
                    rows.push((pname, r));
                }
            }
            let title = format!("{wname} — {lname}");
            println!("{}", frontier_table(&title, rows));
            if crashes > 0 {
                println!(
                    "  ({crashes} control-plane crash(es) survived across the row — \
                     costs include checkpoint + WAL-replay recovery)\n"
                );
            }
            if dropped + duped + leases > 0 || part_s > 0.0 {
                println!(
                    "  (control channel across the row: {dropped} messages dropped, \
                     {duped} duplicated, {leases} leases expired, {part_s:.0} s partitioned)\n"
                );
            }
        }
    }
    println!(
        "Reading the frontier: each policy is one point per table; down\n\
         and left dominates. MPC spends forked-branch simulation at each\n\
         decision to place itself; HTA gets its point from the Algorithm 1\n\
         closed-form estimate; HPA only sees CPU utilization."
    );
}
