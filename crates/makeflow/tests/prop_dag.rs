//! Property tests for the DAG: random layered workflows complete in any
//! valid order; the maintained ready set equals a scan of the job states
//! after any submit/complete/fail sequence; cycles are rejected.

use hta_makeflow::{Dag, Job, JobId, JobState};
use proptest::prelude::*;

/// Build a random layered DAG: `widths[l]` jobs in layer `l`, each job in
/// layer l > 0 consuming 1..=3 outputs of layer l-1 (indices from the
/// seed data).
fn layered(widths: Vec<usize>, picks: Vec<usize>) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    let mut prev: Vec<String> = Vec::new();
    let mut pick_iter = picks.into_iter().cycle();
    for (l, &w) in widths.iter().enumerate() {
        let mut outs = Vec::new();
        for j in 0..w {
            let out = format!("f{l}.{j}");
            let inputs: Vec<String> = if prev.is_empty() {
                vec![]
            } else {
                let k = 1 + pick_iter.next().unwrap_or(0) % 3.min(prev.len());
                (0..k)
                    .map(|i| {
                        let idx = pick_iter.next().unwrap_or(0) % prev.len();
                        prev[(idx + i) % prev.len()].clone()
                    })
                    .collect()
            };
            jobs.push(Job {
                id: JobId(id),
                category: format!("layer{l}"),
                command: format!("job {id}"),
                inputs,
                outputs: vec![out.clone()],
            });
            outs.push(out);
            id += 1;
        }
        prev = outs;
    }
    jobs
}

proptest! {
    /// Repeatedly submitting+completing the ready set finishes every job,
    /// and no job ever becomes ready before its producers completed.
    #[test]
    fn layered_dags_complete_in_ready_order(
        widths in proptest::collection::vec(1usize..8, 1..6),
        picks in proptest::collection::vec(0usize..100, 8..64),
    ) {
        let jobs = layered(widths, picks);
        let total = jobs.len();
        let inputs_of: std::collections::BTreeMap<JobId, Vec<String>> =
            jobs.iter().map(|j| (j.id, j.inputs.clone())).collect();
        let mut dag = Dag::build(jobs).expect("layered graphs are acyclic");
        let mut produced: std::collections::BTreeSet<String> = Default::default();
        let mut steps = 0;
        while !dag.all_complete() {
            let ready = dag.ready_jobs();
            prop_assert!(!ready.is_empty(), "stuck with incomplete DAG");
            for r in ready {
                // Every input of a ready job is a source or already produced.
                for input in &inputs_of[&r] {
                    let is_source = dag.producer_of(input).is_none();
                    prop_assert!(
                        is_source || produced.contains(input),
                        "job {r} ready before input {input}"
                    );
                }
                dag.mark_submitted(r);
                for out in &dag.job(r).unwrap().outputs.clone() {
                    produced.insert(out.clone());
                }
                dag.complete_job(r);
            }
            steps += 1;
            prop_assert!(steps <= total + 1, "too many rounds");
        }
        prop_assert_eq!(dag.completed(), total);
    }

    /// Under any interleaving of submissions, completions and failures
    /// (including repeats on terminal jobs), the maintained ready set is
    /// exactly a scan of the `Ready` states in id order, and the terminal
    /// counters are exactly a recount of the states.
    #[test]
    fn ready_set_matches_a_state_scan_after_every_step(
        widths in proptest::collection::vec(1usize..7, 1..6),
        picks in proptest::collection::vec(0usize..100, 8..64),
        ops in proptest::collection::vec((0u8..4, 0usize..1_000), 1..120),
    ) {
        let mut dag = Dag::build(layered(widths, picks)).expect("acyclic");
        let ids: Vec<JobId> = dag.jobs().map(|j| j.id).collect();
        let in_state = |dag: &Dag, st: JobState| -> Vec<JobId> {
            ids.iter().copied().filter(|j| dag.state(*j) == Some(st)).collect()
        };
        for (op, pick) in ops {
            let pick_from = |v: Vec<JobId>| (!v.is_empty()).then(|| v[pick % v.len()]);
            match op {
                // Submit a ready job.
                0 => if let Some(j) = pick_from(in_state(&dag, JobState::Ready)) {
                    dag.mark_submitted(j);
                },
                // Complete a submitted job.
                1 => if let Some(j) = pick_from(in_state(&dag, JobState::Submitted)) {
                    dag.complete_job(j);
                },
                // Fail a ready or submitted job (abandons its dependents).
                2 => {
                    let mut live = in_state(&dag, JobState::Ready);
                    live.extend(in_state(&dag, JobState::Submitted));
                    if let Some(j) = pick_from(live) {
                        dag.fail_job(j);
                    }
                }
                // Complete or fail any job, terminal ones included.
                _ => {
                    let j = ids[pick % ids.len()];
                    if pick % 2 == 0 {
                        dag.complete_job(j);
                    } else {
                        dag.fail_job(j);
                    }
                }
            }
            prop_assert_eq!(dag.ready_jobs(), in_state(&dag, JobState::Ready));
            prop_assert_eq!(dag.completed(), in_state(&dag, JobState::Complete).len());
            prop_assert_eq!(dag.failed(), in_state(&dag, JobState::Failed).len());
            prop_assert_eq!(dag.abandoned(), in_state(&dag, JobState::Abandoned).len());
        }
    }

    /// The initial ready set is exactly the jobs with no produced inputs.
    #[test]
    fn initial_ready_set_is_exact(
        widths in proptest::collection::vec(1usize..6, 1..5),
        picks in proptest::collection::vec(0usize..100, 8..64),
    ) {
        let jobs = layered(widths, picks);
        let dag = Dag::build(jobs.clone()).unwrap();
        for j in &jobs {
            let expect_ready = j
                .inputs
                .iter()
                .all(|i| dag.producer_of(i).is_none());
            let state = dag.state(j.id).unwrap();
            if expect_ready {
                prop_assert_eq!(state, JobState::Ready);
            } else {
                prop_assert_eq!(state, JobState::Blocked);
            }
        }
    }

    /// Closing a random layered DAG into a ring (last layer feeding the
    /// first) is always rejected as a cycle.
    #[test]
    fn rings_are_rejected(
        widths in proptest::collection::vec(1usize..5, 2..5),
        picks in proptest::collection::vec(0usize..100, 8..32),
    ) {
        let mut jobs = layered(widths, picks);
        // Guarantee a cycle: the last job consumes the first job's output
        // and the first job consumes the last job's output.
        let first_out = jobs[0].outputs[0].clone();
        let last_out = jobs.last().unwrap().outputs[0].clone();
        jobs.last_mut().unwrap().inputs.push(first_out);
        jobs[0].inputs.push(last_out);
        let result = Dag::build(jobs);
        prop_assert!(result.is_err(), "ring must be rejected");
    }
}

mod roundtrip {
    use super::layered;
    use hta_makeflow::{emit, parse, Workflow};
    use proptest::prelude::*;

    proptest! {
        /// emit → parse round-trips any layered workflow's structure.
        #[test]
        fn emit_parse_roundtrip(
            widths in proptest::collection::vec(1usize..6, 1..5),
            picks in proptest::collection::vec(0usize..100, 8..64),
        ) {
            let jobs = layered(widths, picks);
            let wf = Workflow::from_jobs(jobs, vec![]).unwrap();
            let text = emit(&wf);
            let parsed = parse(&text).expect("emitted workflow parses");
            prop_assert_eq!(parsed.len(), wf.len());
            prop_assert_eq!(parsed.dag.categories(), wf.dag.categories());
            prop_assert_eq!(parsed.ready_jobs().len(), wf.ready_jobs().len());
            // Analysis (levels, widths) is identical on both.
            let a = hta_makeflow::analyze(&wf);
            let b = hta_makeflow::analyze(&parsed);
            prop_assert_eq!(a.level_widths, b.level_widths);
            prop_assert_eq!(a.depth, b.depth);
        }
    }
}
