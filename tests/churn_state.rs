//! Bounded state under worker churn.
//!
//! A short diurnal open-loop trace makes HTA grow its worker pool and
//! shrink it again; every worker it creates has stopped by the end of
//! the run. With the sim-sanitizer active (always in debug builds, and in
//! release builds with `--features sim-sanitizer`) the master asserts
//! after every transition that it retains no stopped worker and that its
//! incremental dispatch gate equals a full scan of the eligible workers,
//! and the cluster asserts that its per-group pod counts equal a recount
//! of the pods it stores (stopped pods and removed nodes leave it, so
//! what it stores is the live set). The master also asserts that it
//! stores only waiting and on-worker task records — every finished task
//! leaves — in the trace runs and in a closed Fig. 10 workflow. State
//! that grows with run history instead of with the live set therefore
//! fails this test on any machine: the checks count, they do not time.
//!
//! Under a release-mode sanitizer:
//! `cargo test --release --features sim-sanitizer --test churn_state`.

use hta::core::driver::RunResult;
use hta_bench::experiments::{fig10, fig10_workload, synth_trace, PolicyKind};

/// The churny open-loop trace: `trace-50k` cut to 3 000 tasks at a
/// 1 task/s base rate, so the arrivals span ~3 diurnal cycles of 900 s,
/// with a deep swing. (At the preset's 30 task/s the same 3 000 tasks
/// arrive within ~100 s: the pool grows once and drains once, with no
/// churn in between.)
const SPEC: &str = "trace-50k,tasks=3000,rate=1,amp=0.8";

/// The churny trace on the perf harness's trace cluster (up to 96
/// node-sized workers on up to 100 nodes) under HTA.
fn churn_run(seed: u64) -> RunResult {
    synth_trace(SPEC, seed).expect("valid synth spec").run(None)
}

/// Workers that connected over the run: every rise of the sampled
/// connected-worker series.
fn worker_connects(r: &RunResult) -> f64 {
    let connected = r.recorder.workers_connected.values();
    connected.first().copied().unwrap_or(0.0)
        + connected
            .windows(2)
            .map(|w| (w[1] - w[0]).max(0.0))
            .sum::<f64>()
}

#[test]
fn churny_trace_completes_with_bounded_state() {
    for seed in [42, 7] {
        let r = churn_run(seed);
        assert!(!r.timed_out, "seed {seed}: run hit the safety cut-off");
        assert_eq!(r.completed, 3_000, "seed {seed}: every arrival completes");
        let st = r
            .arrivals
            .as_ref()
            .expect("traced run reports arrival stats");
        assert!(st.exhausted, "seed {seed}: trace fully admitted");
        // The pool churned: at least twice as many workers connected over
        // the run as were ever live at once, so stopped workers had to be
        // retired for the sanitizer's bounded-state checks to hold.
        let connects = worker_connects(&r);
        assert!(
            connects >= 2.0 * r.summary.peak_workers,
            "seed {seed}: {connects} connects vs peak {} — no churn",
            r.summary.peak_workers
        );
    }
}

#[test]
fn closed_workflow_leaves_no_task_record() {
    let jobs = fig10_workload(false).len();
    let r = fig10(PolicyKind::Hta, 42).run(None);
    assert!(!r.timed_out, "run hit the safety cut-off");
    assert_eq!(r.completed, jobs, "every job completes");
    // One span per job, all from exit notifications: a record still in
    // the master at the end would add an unfinished span.
    assert_eq!(r.task_spans.len(), jobs);
    assert!(r.task_spans.iter().all(|s| s.completed_s.is_some()));
}
