//! Integration tests for the `hta-run` CLI binary.

use std::process::Command;

use hta::core::policy::{FixedPolicy, HpaPolicy, HtaConfig, HtaPolicy, ScalingPolicy};
use hta::core::{OraclePolicy, TargetTrackingPolicy};
use hta::forecast::{MpcConfig, MpcPolicy};
use hta_bench::experiments::{fig2_workload, paper_driver, synth_trace, PolicyKind};

fn hta_run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hta-run"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn demo_runs_to_completion() {
    let out = hta_run(&["demo"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("policy: HTA"));
    assert!(stdout.contains("makespan:"));
    assert!(stdout.contains("workflow: 6 jobs"));
}

#[test]
fn policy_flag_selects_hpa() {
    let out = hta_run(&["demo", "--policy", "hpa:20"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("policy: HPA(20% CPU)"));
}

#[test]
fn oracle_and_tracking_policies_run() {
    for p in ["oracle", "tracking", "fixed:4"] {
        let out = hta_run(&["demo", "--policy", p]);
        assert!(
            out.status.success(),
            "policy {p}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn chart_flag_prints_series() {
    let out = hta_run(&["demo", "--chart"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("supply_cores"), "{stdout}");
}

#[test]
fn gantt_flag_prints_task_timeline() {
    let out = hta_run(&["demo", "--gantt"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("task-0"), "{stdout}");
    assert!(stdout.contains("lowercase = executing"));
}

#[test]
fn json_and_csv_exports_write_files() {
    let dir = std::env::temp_dir().join(format!("hta-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("run.json");
    let csv = dir.join("run.csv");
    let out = hta_run(&[
        "demo",
        "--json",
        json.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"runtime_s\""));
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("series,time_s,value"));
    assert!(
        csv_text.contains("running:align"),
        "per-category series exported"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workflow_files_in_repo_run() {
    let out = hta_run(&["examples/workflows/blast.mf", "--seed", "7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workflow: 26 jobs"));
}

#[test]
fn failure_injection_flag_is_reported() {
    let out = hta_run(&["demo", "--fail-at", "100"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("node failures:"));
}

#[test]
fn fault_knobs_print_failure_summary() {
    let out = hta_run(&[
        "demo",
        "--policy",
        "fixed:3",
        "--task-fail-rate",
        "0.9",
        "--max-retries",
        "8",
        "--seed",
        "9",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("failures & retries"), "{stdout}");
    assert!(stdout.contains("task retries:"), "{stdout}");
    assert!(stdout.contains("wasted work:"), "{stdout}");
}

#[test]
fn fail_node_alias_and_oom_knob_are_accepted() {
    let out = hta_run(&[
        "demo",
        "--policy",
        "fixed:3",
        "--fail-node",
        "100,200",
        "--oom-rate",
        "0.05",
        "--pull-fail-rate",
        "0.1",
        "--straggler-factor",
        "4.0",
        "--preempt-mean",
        "100000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("node failures:"), "{stdout}");
}

#[test]
fn same_seed_fault_runs_are_identical() {
    let args = [
        "demo",
        "--policy",
        "fixed:3",
        "--task-fail-rate",
        "0.5",
        "--pull-fail-rate",
        "0.2",
        "--seed",
        "1234",
    ];
    let a = hta_run(&args);
    let b = hta_run(&args);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "seeded fault injection must be deterministic"
    );
}

#[test]
fn bad_fault_knob_values_fail_cleanly() {
    for args in [
        vec!["demo", "--task-fail-rate", "abc"],
        vec!["demo", "--max-retries", "-1"],
        vec!["demo", "--fail-node", "1,x"],
    ] {
        let out = hta_run(&args);
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn network_knobs_print_network_summary_deterministically() {
    let args = [
        "demo",
        "--policy",
        "fixed:3",
        "--net-delay",
        "20",
        "--net-loss",
        "0.01",
        "--lease",
        "30",
        "--partition",
        "100:150:asym",
        "--seed",
        "9",
    ];
    let a = hta_run(&args);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.contains("--- network ---"), "{stdout}");
    assert!(stdout.contains("control messages:"), "{stdout}");
    assert!(stdout.contains("partitioned:"), "{stdout}");
    let b = hta_run(&args);
    assert_eq!(
        stdout,
        String::from_utf8_lossy(&b.stdout),
        "seeded network faults must be deterministic"
    );
}

#[test]
fn bad_network_knob_values_fail_cleanly() {
    for args in [
        vec!["demo", "--net-loss", "2.0"],
        vec!["demo", "--net-loss", "abc"],
        vec!["demo", "--partition", "bogus"],
        vec!["demo", "--partition", "100:20:sideways"],
        vec!["demo", "--lease", "abc"],
    ] {
        let out = hta_run(&args);
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn out_of_range_cluster_and_fault_values_fail_cleanly() {
    for args in [
        vec!["demo", "--nodes", "5:2"],
        vec!["demo", "--task-fail-rate", "1.5"],
        vec!["demo", "--task-fail-rate", "nan"],
        vec!["demo", "--oom-rate", "2"],
        vec!["demo", "--pull-fail-rate", "-1"],
        vec![
            "demo",
            "--task-fail-rate",
            "0.8",
            "--oom-rate",
            "0.8",
            "--max-retries",
            "50",
            "--seed",
            "9",
        ],
    ] {
        let out = hta_run(&args);
        assert_eq!(out.status.code(), Some(1), "args {args:?} should fail");
        assert!(out.stdout.is_empty(), "args {args:?} must not run");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn synth_trace_runs_open_loop() {
    let out = hta_run(&["--trace", "synth:demo-1k", "--max-workers", "30"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("trace: synth:demo-1k (1000 tasks)"),
        "{stdout}"
    );
    assert!(stdout.contains("--- trace ---"), "{stdout}");
    assert!(
        stdout.contains("arrivals:                   1000 of 1000 (exhausted)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("tasks completed:            1000"),
        "{stdout}"
    );
}

#[test]
fn synth_trace_knobs_override_the_preset() {
    let out = hta_run(&["--trace", "synth:demo-1k,tasks=200", "--policy", "fixed:6"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(200 tasks)"), "{stdout}");
    assert!(
        stdout.contains("tasks completed:             200"),
        "{stdout}"
    );
}

#[test]
fn same_seed_trace_runs_are_identical() {
    let args = ["--trace", "synth:demo-1k", "--seed", "77"];
    let a = hta_run(&args);
    let b = hta_run(&args);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "seeded trace generation must be deterministic (digest line included)"
    );
}

#[test]
fn azure_trace_file_runs() {
    let out = hta_run(&["--trace", "azure:examples/traces/azure-demo.csv"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("trace: azure:examples/traces/azure-demo.csv"),
        "{stdout}"
    );
    assert!(stdout.contains("(exhausted)"), "{stdout}");
}

#[test]
fn trace_composes_with_fault_injection() {
    let out = hta_run(&[
        "--trace",
        "synth:demo-1k,tasks=300",
        "--task-fail-rate",
        "0.2",
        "--net-loss",
        "0.01",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--- trace ---"), "{stdout}");
    assert!(stdout.contains("task retries:"), "{stdout}");
}

#[test]
fn bad_trace_specs_fail_cleanly() {
    for args in [
        vec!["--trace", "synth:nonsense"],
        vec!["--trace", "bogus:x"],
        vec!["--trace", "synth:demo-1k,tasks=abc"],
        vec!["--trace", "azure:/definitely/not/a/file.csv"],
        vec!["demo", "--trace", "synth:demo-1k"], // mutually exclusive
        vec!["--trace", "synth:demo-1k", "--policy", "oracle"],
        vec!["--trace", "synth:demo-1k", "--analyze-only"],
        vec![], // neither workflow nor trace
    ] {
        let out = hta_run(&args);
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty(), "args {args:?} should explain");
    }
}

#[test]
fn trace_log_flag_prints_decision_tail() {
    let out = hta_run(&["demo", "--trace-log"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--- decision log"), "{stdout}");
}

#[test]
fn analyze_only_skips_the_run() {
    let out = hta_run(&["examples/workflows/md.mf", "--analyze-only"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("makespan lower bound"));
    assert!(!stdout.contains("makespan:"), "must not simulate");
}

#[test]
fn bad_inputs_fail_cleanly() {
    for args in [
        vec!["demo", "--policy", "nonsense"],
        vec!["demo", "--max-workers", "abc"],
        vec!["/definitely/not/a/file.mf"],
        vec!["demo", "--nodes", "5"], // wants MIN:MAX
        vec!["demo", "--unknown-flag"],
    ] {
        let out = hta_run(&args);
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
}

#[test]
fn trace_mode_runs_the_experiments_trace_scenario() {
    let spec = "trace-50k,tasks=2000";
    let out = hta_run(&["--trace", &format!("synth:{spec}"), "--seed", "42"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = |key: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("no {key:?} line in\n{stdout}"))
            .to_string()
    };
    let r = synth_trace(spec, 42).expect("valid synth spec").run(None);
    assert_eq!(
        line("simulation events:"),
        format!("simulation events:    {:>10}", r.events)
    );
    assert_eq!(
        line("tasks completed:"),
        format!(
            "tasks completed:      {:>10} (digest {:#018x})",
            r.completed, r.completed_digest
        )
    );
}

#[test]
fn every_policy_spelling_maps_to_one_policy_and_operator_mode() {
    // The policy and operator mode each spelling got from the per-binary
    // policy tables: HTA and MPC probe a workflow with a warm-up batch
    // and learn undeclared resources; every baseline trusts declared
    // resources. HPA scales between the initial and maximum pool.
    let cfg = paper_driver(PolicyKind::Hta, 7);
    let wf = fig2_workload();
    let table: Vec<(&str, PolicyKind, bool, Box<dyn ScalingPolicy>)> = vec![
        (
            "hta",
            PolicyKind::Hta,
            true,
            Box::new(HtaPolicy::new(HtaConfig::default())),
        ),
        (
            "mpc",
            PolicyKind::Mpc,
            true,
            Box::new(MpcPolicy::new(MpcConfig::default())),
        ),
        (
            "hpa:20",
            PolicyKind::Hpa(0.20),
            false,
            Box::new(HpaPolicy::new(0.20, 3, 20)),
        ),
        (
            "hpa:50%",
            PolicyKind::Hpa(0.50),
            false,
            Box::new(HpaPolicy::new(0.50, 3, 20)),
        ),
        (
            "fixed:6",
            PolicyKind::Fixed(6),
            false,
            Box::new(FixedPolicy::new(6)),
        ),
        (
            "oracle",
            PolicyKind::Oracle,
            false,
            Box::new(OraclePolicy::from_workflow(&wf)),
        ),
        (
            "tracking",
            PolicyKind::Tracking,
            false,
            Box::new(TargetTrackingPolicy::new()),
        ),
    ];
    for (spelling, kind, probes, expected) in table {
        let parsed: PolicyKind = spelling.parse().expect("known spelling");
        assert_eq!(parsed, kind, "{spelling}");
        let op = parsed.operator(false, 7);
        assert_eq!(
            (op.warmup, op.trust_declared, op.learn, op.seed),
            (probes, !probes, true, 7),
            "{spelling} on a workflow"
        );
        // An open-loop trace has nothing to probe: every policy trusts
        // the declared resources.
        let op = parsed.operator(true, 7);
        assert_eq!(
            (op.warmup, op.trust_declared),
            (false, true),
            "{spelling} on a trace"
        );
        let built = parsed.build(&cfg, Some(&wf)).expect("policy builds");
        assert_eq!(built.name(), expected.name(), "{spelling}");
    }
    for bad in [
        "nonsense", "HTA", "", "hpa:", "hpa:x", "hpa:-5", "hpa:nan", "fixed:", "fixed:-1",
    ] {
        assert!(bad.parse::<PolicyKind>().is_err(), "{bad:?} must not parse");
    }
    assert!(
        PolicyKind::Oracle.build(&cfg, None).is_err(),
        "the oracle needs a workflow"
    );
}
