//! `hta-run` — run a Makeflow workflow file through the simulated stack.
//!
//! ```text
//! hta-run <workflow.mf | demo> [options]
//! hta-run --trace <synth:preset[,knobs] | azure:file.csv> [options]
//!
//! options:
//!   --trace <spec>         drive the run from an open-loop arrival
//!                          trace instead of a workflow DAG:
//!                            synth:<preset>[,tasks=N][,rate=R][,amp=A]
//!                              presets: demo-1k, trace-50k, blast-1m
//!                            azure:<file.csv>
//!                              per-minute invocation-count CSV
//!   --policy <hta | hpa:<target%> | fixed:<n> | oracle | tracking | mpc>
//!                          autoscaler driving the worker pool  [hta]
//!                          (mpc forks what-if branches of the live
//!                          simulation at each decision; see hta-forecast)
//!   --max-workers <n>      worker-pod quota          [workflow 20, trace 96]
//!   --nodes <min>:<max>    cluster size bounds       [workflow 3:20, trace 3:100]
//!   --worker-cores <n>     worker pod size in cores            [3]
//!   --initial <n>          worker pods created at start [workflow 3, trace 8]
//!   --seed <n>             simulation seed                     [42]
//!   --fail-at <s,s,...>    inject node crashes at these times
//!   --fail-node <s,s,...>  alias for --fail-at
//!   --crash-master <s,s,...> kill the control plane (master+operator+
//!                          policy) at these times; it checkpoint-restores
//!                          and WAL-replays after the outage
//!   --crash-outage <s>     control-plane outage length           [60]
//!   --checkpoint-interval <s> control-plane checkpoint cadence   [120]
//!   --task-fail-rate <p>   transient task-failure probability  [0]
//!   --oom-rate <p>         OOM-kill probability per attempt    [0]
//!                          (with --task-fail-rate, at most 1 in sum)
//!   --pull-fail-rate <p>   image-pull failure probability      [0]
//!   --net-delay <ms>       control-message one-way delay (ms)  [0]
//!   --net-loss <p>         control-message loss probability    [0]
//!   --partition <start:dur[:asym]>
//!                          cut the master↔worker link from start for dur
//!                          seconds (repeatable); `:asym` cuts only the
//!                          worker→master direction (zombie workers)
//!   --lease <s>            heartbeat lease; a worker silent this long is
//!                          presumed dead and its tasks re-queued  [off]
//!   --preempt-mean <s>     spot preemption mean lifetime (s)
//!   --max-retries <n>      per-task retry budget               [3]
//!   --straggler-factor <f> speculative re-execution threshold
//!   --csv <path>           write the full metric series as CSV
//!   --json <path>          write the run summary as JSON
//!   --chart                print supply/demand ASCII chart
//!   --gantt                print a per-task Gantt timeline
//!   --trace-log            print the scaling-decision trace tail
//!   --analyze-only         print DAG structure + plan bounds, don't run
//! ```
//!
//! A workflow runs on the paper's §VI cluster and a trace on the larger
//! trace cluster, both as defined in `hta_bench::experiments`; the
//! cluster flags override those defaults only when given.
//!
//! Example:
//! ```sh
//! cargo run --release --bin hta-run -- demo --policy hpa:20 --chart
//! ```

use std::collections::VecDeque;
use std::process::ExitCode;

use hta::core::{ControlPlaneFaults, FaultPlan};
use hta::makeflow;
use hta::metrics::AsciiChart;
use hta::prelude::*;
use hta::workqueue::{NetworkFaults, Partition};
use hta_bench::experiments::{self, PolicyKind};

const DEMO: &str = r#"
# Demo: a two-stage pipeline with a shared cacheable input.
DB=ref.db
.SIZE ref.db 700 cache
.SIZE input.fasta 20

CATEGORY=split
SIM_WALL_SECS=30
part.0 part.1 part.2 part.3: input.fasta
	split input.fasta 4

CATEGORY=align
SIM_WALL_SECS=120
SIM_ACTUAL_CORES=1
SIM_ACTUAL_MEMORY=2500
SIM_OUTPUT_MB=1.0
out.0: $(DB) part.0
	align part.0
out.1: $(DB) part.1
	align part.1
out.2: $(DB) part.2
	align part.2
out.3: $(DB) part.3
	align part.3

CATEGORY=reduce
SIM_WALL_SECS=20
result: out.0 out.1 out.2 out.3
	merge
"#;

struct Options {
    workflow: Option<String>,
    trace_source: Option<String>,
    policy: PolicyKind,
    // The cluster flags are `None` unless given: each mode has its own
    // defaults (see the module docs).
    max_workers: Option<usize>,
    nodes: Option<(usize, usize)>,
    worker_cores: Option<i64>,
    initial: Option<usize>,
    seed: u64,
    fail_at: Vec<u64>,
    crash_master: Vec<u64>,
    crash_outage: u64,
    checkpoint_interval: u64,
    task_fail_rate: f64,
    oom_rate: f64,
    pull_fail_rate: f64,
    net_delay_ms: u64,
    net_loss: f64,
    partitions: Vec<Partition>,
    lease: Option<u64>,
    preempt_mean: Option<u64>,
    max_retries: u32,
    straggler_factor: Option<f64>,
    csv: Option<String>,
    json: Option<String>,
    chart: bool,
    gantt: bool,
    trace_log: bool,
    analyze_only: bool,
}

fn usage() -> &'static str {
    "usage: hta-run <workflow.mf | demo> [options]\n\
            hta-run --trace <synth:preset[,knobs] | azure:file.csv> [options]\n\
     options: [--policy hta|hpa:<target%>|fixed:<n>|oracle|tracking|mpc] \
     [--max-workers N] [--nodes MIN:MAX] [--worker-cores N] [--initial N] [--seed N] \
     [--fail-at s,s,...] [--fail-node s,s,...] [--crash-master s,s,...] [--crash-outage S] \
     [--checkpoint-interval S] [--task-fail-rate P] [--oom-rate P] \
     [--pull-fail-rate P] [--net-delay MS] [--net-loss P] [--partition START:DUR[:asym]] \
     [--lease S] [--preempt-mean S] [--max-retries N] [--straggler-factor F] \
     [--csv path] [--json path] [--chart] [--gantt] [--trace-log] [--analyze-only]\n\
     defaults: workflow mode --max-workers 20 --nodes 3:20 --initial 3; \
     trace mode --max-workers 96 --nodes 3:100 --initial 8"
}

/// Parse a fault rate: a finite probability in `[0, 1]`.
fn probability(flag: &str, v: &str) -> Result<f64, String> {
    let p: f64 = v.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{flag}: probability {p} not in [0, 1]"));
    }
    Ok(p)
}

/// A whole number of seconds that must be positive: zero would make
/// the run degenerate rather than fast.
fn positive_secs(flag: &str, v: &str) -> Result<u64, String> {
    match v.parse().map_err(|e| format!("{flag}: {e}"))? {
        0 => Err(format!("{flag}: must be at least 1 s")),
        s => Ok(s),
    }
}

fn parse_args() -> Result<Options, String> {
    let mut args: VecDeque<String> = std::env::args().skip(1).collect();
    let mut opt = Options {
        workflow: None,
        trace_source: None,
        policy: PolicyKind::Hta,
        max_workers: None,
        nodes: None,
        worker_cores: None,
        initial: None,
        seed: 42,
        fail_at: Vec::new(),
        crash_master: Vec::new(),
        crash_outage: 60,
        checkpoint_interval: 120,
        task_fail_rate: 0.0,
        oom_rate: 0.0,
        pull_fail_rate: 0.0,
        net_delay_ms: 0,
        net_loss: 0.0,
        partitions: Vec::new(),
        lease: None,
        preempt_mean: None,
        max_retries: 3,
        straggler_factor: None,
        csv: None,
        json: None,
        chart: false,
        gantt: false,
        trace_log: false,
        analyze_only: false,
    };
    let need = |args: &mut VecDeque<String>, flag: &str| {
        args.pop_front()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while let Some(a) = args.pop_front() {
        match a.as_str() {
            "--trace" => {
                let spec = need(&mut args, "--trace")?;
                if !spec.starts_with("synth:") && !spec.starts_with("azure:") {
                    return Err(format!(
                        "--trace: expected synth:<preset>[,knobs] or azure:<file.csv>, got {spec:?}"
                    ));
                }
                opt.trace_source = Some(spec);
            }
            "--policy" => {
                opt.policy = need(&mut args, "--policy")?
                    .parse()
                    .map_err(|e| format!("--policy: {e}\n{}", usage()))?
            }
            "--max-workers" => {
                opt.max_workers = Some(
                    need(&mut args, "--max-workers")?
                        .parse()
                        .map_err(|e| format!("--max-workers: {e}"))?,
                )
            }
            "--nodes" => {
                let v = need(&mut args, "--nodes")?;
                let (lo, hi) = v
                    .split_once(':')
                    .ok_or_else(|| "--nodes wants MIN:MAX".to_string())?;
                let lo: usize = lo.parse().map_err(|e| format!("--nodes: {e}"))?;
                let hi: usize = hi.parse().map_err(|e| format!("--nodes: {e}"))?;
                if lo > hi {
                    return Err(format!("--nodes: MIN {lo} is above MAX {hi}"));
                }
                opt.nodes = Some((lo, hi));
            }
            "--worker-cores" => {
                opt.worker_cores = Some(
                    need(&mut args, "--worker-cores")?
                        .parse()
                        .map_err(|e| format!("--worker-cores: {e}"))?,
                )
            }
            "--initial" => {
                opt.initial = Some(
                    need(&mut args, "--initial")?
                        .parse()
                        .map_err(|e| format!("--initial: {e}"))?,
                )
            }
            "--seed" => {
                opt.seed = need(&mut args, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--fail-at" | "--fail-node" => {
                let v = need(&mut args, &a)?;
                for part in v.split(',') {
                    opt.fail_at
                        .push(part.trim().parse().map_err(|e| format!("{a}: {e}"))?);
                }
            }
            "--crash-master" => {
                let v = need(&mut args, "--crash-master")?;
                for part in v.split(',') {
                    opt.crash_master
                        .push(part.trim().parse().map_err(|e| format!("{a}: {e}"))?);
                }
            }
            "--crash-outage" => {
                opt.crash_outage = need(&mut args, "--crash-outage")?
                    .parse()
                    .map_err(|e| format!("--crash-outage: {e}"))?
            }
            // A zero cadence re-arms the checkpoint tick at the same
            // instant forever, so simulated time never advances.
            "--checkpoint-interval" => {
                opt.checkpoint_interval = positive_secs(&a, &need(&mut args, &a)?)?
            }
            "--task-fail-rate" => opt.task_fail_rate = probability(&a, &need(&mut args, &a)?)?,
            "--oom-rate" => opt.oom_rate = probability(&a, &need(&mut args, &a)?)?,
            "--pull-fail-rate" => opt.pull_fail_rate = probability(&a, &need(&mut args, &a)?)?,
            "--net-delay" => {
                opt.net_delay_ms = need(&mut args, "--net-delay")?
                    .parse()
                    .map_err(|e| format!("--net-delay: {e}"))?
            }
            "--net-loss" => {
                let p: f64 = need(&mut args, "--net-loss")?
                    .parse()
                    .map_err(|e| format!("--net-loss: {e}"))?;
                // p = 1 would drop every message forever: no dispatch
                // can ever be acknowledged, so the run only ends at the
                // simulation cut-off.
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("--net-loss: probability {p} not in [0, 1)"));
                }
                opt.net_loss = p;
            }
            "--partition" => {
                let v = need(&mut args, "--partition")?;
                let mut parts = v.split(':');
                let start: u64 = parts
                    .next()
                    .ok_or_else(|| "--partition wants START:DUR[:asym]".to_string())?
                    .parse()
                    .map_err(|e| format!("--partition start: {e}"))?;
                let dur: u64 = parts
                    .next()
                    .ok_or_else(|| "--partition wants START:DUR[:asym]".to_string())?
                    .parse()
                    .map_err(|e| format!("--partition duration: {e}"))?;
                let asymmetric = match parts.next() {
                    None => false,
                    Some("asym") => true,
                    Some(other) => {
                        return Err(format!("--partition: expected \"asym\", got {other:?}"))
                    }
                };
                opt.partitions.push(Partition {
                    start: Duration::from_secs(start),
                    duration: Duration::from_secs(dur),
                    asymmetric,
                });
            }
            "--lease" => {
                opt.lease = Some(
                    need(&mut args, "--lease")?
                        .parse()
                        .map_err(|e| format!("--lease: {e}"))?,
                )
            }
            // A zero mean lifetime preempts every node the moment it
            // boots, so the run only ends at the simulation cut-off.
            "--preempt-mean" => opt.preempt_mean = Some(positive_secs(&a, &need(&mut args, &a)?)?),
            "--max-retries" => {
                opt.max_retries = need(&mut args, "--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?
            }
            "--straggler-factor" => {
                opt.straggler_factor = Some(
                    need(&mut args, "--straggler-factor")?
                        .parse()
                        .map_err(|e| format!("--straggler-factor: {e}"))?,
                )
            }
            "--csv" => opt.csv = Some(need(&mut args, "--csv")?),
            "--json" => opt.json = Some(need(&mut args, "--json")?),
            "--chart" => opt.chart = true,
            "--gantt" => opt.gantt = true,
            "--trace-log" => opt.trace_log = true,
            "--analyze-only" => opt.analyze_only = true,
            other if !other.starts_with('-') && opt.workflow.is_none() => {
                opt.workflow = Some(other.to_string())
            }
            other if !other.starts_with('-') => {
                return Err(format!(
                    "unexpected second workflow argument {other:?}\n{}",
                    usage()
                ))
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    // One uniform draw per attempt picks OOM below `oom` and a transient
    // failure below `oom + transient`, so the two rates share [0, 1].
    if opt.task_fail_rate + opt.oom_rate > 1.0 {
        return Err(format!(
            "--task-fail-rate {} plus --oom-rate {} exceeds 1",
            opt.task_fail_rate, opt.oom_rate
        ));
    }
    match (&opt.workflow, &opt.trace_source) {
        (None, None) => Err(format!("need a workflow file or --trace\n{}", usage())),
        (Some(w), Some(_)) => Err(format!(
            "a workflow ({w:?}) and --trace are mutually exclusive — \
             an open-loop trace defines its own arrivals\n{}",
            usage()
        )),
        _ => Ok(opt),
    }
}

fn main() -> ExitCode {
    let opt = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // Workflow mode parses a DAG; trace mode builds an open-loop arrival
    // source. Exactly one is present (enforced by parse_args).
    let workflow = match &opt.workflow {
        Some(name) => {
            let text = if name == "demo" {
                DEMO.to_string()
            } else {
                match std::fs::read_to_string(name) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read {name}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            match makeflow::parse(&text) {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!("parse error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let arrivals = match &opt.trace_source {
        Some(spec) => {
            let source = if let Some(synth) = spec.strip_prefix("synth:") {
                hta::trace::ArrivalSource::synth(synth, opt.seed)
            } else if let Some(path) = spec.strip_prefix("azure:") {
                // The trace crate stays I/O-free: the CLI owns the read.
                match std::fs::read_to_string(path) {
                    Ok(text) => hta::trace::ArrivalSource::azure_csv(spec.clone(), &text, opt.seed),
                    Err(e) => Err(format!("cannot read {path}: {e}")),
                }
            } else {
                unreachable!("parse_args validated the prefix")
            };
            match source {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("--trace: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    if let Some(workflow) = &workflow {
        let analysis = makeflow::analyze(workflow);
        println!(
            "workflow: {} jobs, categories {:?}",
            workflow.len(),
            workflow.dag.categories()
        );
        println!(
            "structure: depth {}, peak width {}, critical path {:.0} s, avg parallelism {:.1}",
            analysis.depth,
            analysis.max_width,
            analysis.critical_path.as_secs_f64(),
            analysis.average_parallelism()
        );

        if opt.analyze_only {
            println!("\nper-level widths: {:?}", analysis.level_widths);
            println!("category counts:  {:?}", analysis.category_counts);
            for slots in [3usize, 15, 30, 60] {
                println!(
                    "makespan lower bound @ {slots:>3} slots: {:>8.0} s",
                    analysis.makespan_lower_bound(slots).as_secs_f64()
                );
            }
            return ExitCode::SUCCESS;
        }
    } else if opt.analyze_only {
        eprintln!("--analyze-only inspects a workflow DAG; --trace has none");
        return ExitCode::FAILURE;
    } else if let Some(source) = &arrivals {
        let stats = source.stats();
        println!("trace: {} ({} tasks)", stats.label, stats.total_tasks);
    }

    let mut scenario = match (workflow, arrivals) {
        (Some(workflow), None) => experiments::cli_workflow(workflow, opt.policy, opt.seed),
        (None, Some(source)) => experiments::trace(source, opt.policy, opt.seed),
        _ => unreachable!("parse_args enforces exactly one input"),
    };
    let cfg = &mut scenario.cfg;
    if let Some(n) = opt.max_workers {
        cfg.max_workers = n;
    }
    if let Some((min, max)) = opt.nodes {
        cfg.cluster.min_nodes = min;
        cfg.cluster.max_nodes = max;
    }
    if let Some(cores) = opt.worker_cores {
        cfg.worker_request = Resources::cores(cores, 4_000 * cores, 50_000);
    }
    if let Some(n) = opt.initial {
        cfg.initial_workers = n;
    }
    cfg.cluster.preemption_mean_lifetime = opt.preempt_mean.map(Duration::from_secs);
    cfg.faults = FaultPlan {
        seed: opt.seed,
        node_crash_times: opt
            .fail_at
            .iter()
            .map(|s| Duration::from_secs(*s))
            .collect(),
        image_pull_fail_rate: opt.pull_fail_rate,
        task_transient_rate: opt.task_fail_rate,
        task_oom_rate: opt.oom_rate,
        straggler_factor: opt.straggler_factor,
        max_task_retries: opt.max_retries,
        control_plane: ControlPlaneFaults {
            crash_times: opt
                .crash_master
                .iter()
                .map(|s| Duration::from_secs(*s))
                .collect(),
            outage: Duration::from_secs(opt.crash_outage),
            checkpoint_interval: Duration::from_secs(opt.checkpoint_interval),
        },
        network: NetworkFaults {
            delay: Duration::from_millis(opt.net_delay_ms),
            jitter: if opt.net_delay_ms > 0 { 0.3 } else { 0.0 },
            loss: opt.net_loss,
            partitions: opt.partitions.clone(),
            lease: opt.lease.map_or(Duration::ZERO, Duration::from_secs),
            ..NetworkFaults::default()
        },
        ..FaultPlan::default()
    };
    cfg.trace_capacity = if opt.trace_log { 2048 } else { 0 };
    let policy = match scenario.build_policy() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--policy {e}");
            return ExitCode::FAILURE;
        }
    };
    let label = policy.name();
    println!("policy: {label}\n");
    let result = scenario.driver(policy).run();

    println!("makespan:             {:>10.0} s", result.makespan_s);
    println!(
        "accumulated waste:    {:>10.0} core·s",
        result.summary.accumulated_waste_core_s
    );
    println!(
        "accumulated shortage: {:>10.0} core·s",
        result.summary.accumulated_shortage_core_s
    );
    println!(
        "avg CPU utilization:  {:>10.1} %",
        result.summary.avg_cpu_utilization * 100.0
    );
    println!(
        "peak worker pods:     {:>10.0}",
        result.summary.peak_workers
    );
    println!("peak nodes:           {:>10.0}", result.summary.peak_nodes);
    println!("interrupted tasks:    {:>10}", result.interrupted_tasks);
    println!("node failures:        {:>10}", result.failures_injected);
    println!("simulation events:    {:>10}", result.events);
    if let Some(a) = &result.arrivals {
        println!("--- trace ---");
        println!("source:               {:>10}", a.label);
        println!(
            "arrivals:             {:>10} of {} ({})",
            a.submitted,
            a.total_tasks,
            if a.exhausted {
                "exhausted"
            } else {
                "cut off early"
            }
        );
        if let (Some(first), Some(last)) = (a.first_arrival_s, a.last_arrival_s) {
            println!(
                "arrival span:         {:>10.0} s ({first:.1} → {last:.1})",
                last - first
            );
        }
        println!(
            "tasks completed:      {:>10} (digest {:#018x})",
            result.completed, result.completed_digest
        );
    }
    let f = &result.summary.faults;
    if !f.is_clean() || result.jobs_failed > 0 {
        println!("--- failures & retries ---");
        println!(
            "task retries:         {:>10} ({} transient, {} oom)",
            f.task_retries, f.transient_failures, f.oom_kills
        );
        println!(
            "permanent failures:   {:>10} ({} jobs abandoned)",
            f.permanent_failures, f.jobs_abandoned
        );
        if f.speculative_launched > 0 {
            println!(
                "speculative dups:     {:>10} launched, {} won",
                f.speculative_launched, f.speculative_wins
            );
        }
        if f.image_pull_retries > 0 {
            println!(
                "image-pull retries:   {:>10} ({} gave up)",
                f.image_pull_retries, f.image_pull_gaveups
            );
        }
        println!("wasted work:          {:>10.0} core·s", f.wasted_core_s);
        if f.mean_recovery_s > 0.0 {
            println!("mean recovery:        {:>10.0} s", f.mean_recovery_s);
        }
        if f.master_crashes > 0 {
            println!(
                "master crashes:       {:>10} survived ({:.0} s down, {} checkpoints)",
                f.master_crashes, f.outage_s, f.checkpoints_taken
            );
            println!(
                "crash recovery:       {:>10} tasks re-queued, {} WAL records replayed",
                f.recovery_requeued, f.wal_replayed
            );
            for (i, r) in result.recoveries.iter().enumerate() {
                println!(
                    "  recovery #{i}: crashed t={:.0}s, back t={:.0}s \
                     (checkpoint t={:.0}s, {} replayed, {} re-queued, {} workers re-adopted)",
                    r.crashed_at.as_secs_f64(),
                    r.recovered_at.as_secs_f64(),
                    r.checkpoint_at.as_secs_f64(),
                    r.wal_replayed,
                    r.tasks_requeued,
                    r.workers_readopted
                );
            }
        }
        let net_touched = f.msgs_dropped + f.msgs_duplicated + f.msgs_reordered + f.leases_expired
            > 0
            || f.partition_s > 0.0;
        if net_touched {
            println!("--- network ---");
            println!(
                "control messages:     {:>10} dropped, {} duplicated, {} reordered",
                f.msgs_dropped, f.msgs_duplicated, f.msgs_reordered
            );
            println!(
                "worker leases:        {:>10} expired ({} zombie completions fenced)",
                f.leases_expired, f.zombies_fenced
            );
            if f.partition_s > 0.0 {
                println!("partitioned:          {:>10.0} s", f.partition_s);
            }
        }
    }
    if result.timed_out {
        eprintln!("WARNING: run hit the simulation time cut-off");
    }

    if opt.chart {
        let mut chart = AsciiChart::new(
            format!("{label}: supply (s) / demand (d) / in-use (u), cores"),
            100,
            14,
            result.makespan_s,
        );
        chart.add('s', result.recorder.supply.clone());
        chart.add('d', result.recorder.demand.clone());
        chart.add('u', result.recorder.in_use.clone());
        println!("\n{}", chart.render());
    }
    if opt.trace_log {
        println!(
            "\n--- decision log (most recent {} entries) ---",
            result.trace.len()
        );
        print!("{}", result.trace.render());
    }
    if opt.gantt {
        println!(
            "\n{}",
            hta::metrics::render_gantt(&result.task_spans, result.makespan_s, 100, 24)
        );
    }
    if let Some(path) = opt.csv {
        if let Err(e) = std::fs::write(&path, result.recorder.to_csv()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("series written to {path}");
    }
    if let Some(path) = opt.json {
        match serde_json::to_string_pretty(&result.summary) {
            Ok(js) => {
                if let Err(e) = std::fs::write(&path, js) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("summary written to {path}");
            }
            Err(e) => {
                eprintln!("serialize: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
