//! Property tests for the DAG: random layered workflows complete in any
//! valid order; the maintained ready set equals a scan of the job states
//! after any submit/complete/fail sequence; the flat DAG agrees with an
//! ordered-map reference model; cycles are rejected.

use std::collections::{BTreeMap, BTreeSet};

use hta_makeflow::{Dag, Job, JobId, JobState};
use proptest::prelude::*;

/// The DAG's execution state as plain ordered maps keyed by job id,
/// updated by direct search: the reference the flat, position-indexed
/// [`Dag`] is checked against.
struct Reference {
    states: BTreeMap<JobId, JobState>,
    missing: BTreeMap<JobId, usize>,
    dependents: BTreeMap<JobId, BTreeSet<JobId>>,
    completed: usize,
    failed: usize,
    abandoned: usize,
}

fn terminal(s: JobState) -> bool {
    matches!(
        s,
        JobState::Complete | JobState::Failed | JobState::Abandoned
    )
}

impl Reference {
    fn new(jobs: &[Job]) -> Self {
        let producers: BTreeMap<&str, JobId> = jobs
            .iter()
            .flat_map(|j| j.outputs.iter().map(move |o| (o.as_str(), j.id)))
            .collect();
        let mut states = BTreeMap::new();
        let mut missing = BTreeMap::new();
        let mut dependents: BTreeMap<JobId, BTreeSet<JobId>> = BTreeMap::new();
        for job in jobs {
            let deps: BTreeSet<JobId> = job
                .inputs
                .iter()
                .filter_map(|i| producers.get(i.as_str()).copied())
                .collect();
            for &p in &deps {
                dependents.entry(p).or_default().insert(job.id);
            }
            let state = if deps.is_empty() {
                JobState::Ready
            } else {
                JobState::Blocked
            };
            states.insert(job.id, state);
            missing.insert(job.id, deps.len());
        }
        Reference {
            states,
            missing,
            dependents,
            completed: 0,
            failed: 0,
            abandoned: 0,
        }
    }

    fn in_state(&self, st: JobState) -> Vec<JobId> {
        self.states
            .iter()
            .filter(|(_, s)| **s == st)
            .map(|(&j, _)| j)
            .collect()
    }

    fn submit(&mut self, id: JobId) {
        if let Some(s) = self.states.get_mut(&id) {
            *s = JobState::Submitted;
        }
    }

    fn complete(&mut self, id: JobId) -> Vec<JobId> {
        match self.states.get_mut(&id) {
            Some(s) if !terminal(*s) => *s = JobState::Complete,
            _ => return Vec::new(),
        }
        self.completed += 1;
        let mut newly_ready = Vec::new();
        for &d in self.dependents.get(&id).into_iter().flatten() {
            let m = self.missing.get_mut(&d).expect("dependent tracked");
            *m = m.saturating_sub(1);
            let st = self.states.get_mut(&d).expect("state tracked");
            if *m == 0 && *st == JobState::Blocked {
                *st = JobState::Ready;
                newly_ready.push(d);
            }
        }
        newly_ready
    }

    fn fail(&mut self, id: JobId) -> Vec<JobId> {
        match self.states.get_mut(&id) {
            Some(s) if !terminal(*s) => *s = JobState::Failed,
            _ => return Vec::new(),
        }
        self.failed += 1;
        let mut abandoned = Vec::new();
        let mut frontier = vec![id];
        while let Some(j) = frontier.pop() {
            for &d in self.dependents.get(&j).into_iter().flatten() {
                let st = self.states.get_mut(&d).expect("state tracked");
                if terminal(*st) {
                    continue;
                }
                *st = JobState::Abandoned;
                self.abandoned += 1;
                abandoned.push(d);
                frontier.push(d);
            }
        }
        abandoned
    }
}

/// A random DAG of `n` jobs. Job `i` produces `f{i}.a` and `f{i}.b`;
/// each edge `(x, y)` makes the later of the two consume one output of
/// the earlier (repeats and both outputs of one producer included), so
/// the graph is acyclic. Ids are a permutation of `0..n` (by `keys`),
/// scaled by `stride` and shifted by `offset`, so they can be sparse
/// and out of topological order; the jobs are listed rotated by
/// `rotate`, so not in id order either.
fn random_dag(
    n: usize,
    edges: &[(usize, usize, bool)],
    keys: &[u32],
    stride: u64,
    offset: u64,
    rotate: usize,
) -> Vec<Job> {
    let mut by_key: Vec<usize> = (0..n).collect();
    by_key.sort_by_key(|&i| (keys[i], i));
    let mut ids = vec![0u64; n];
    for (rank, &i) in by_key.iter().enumerate() {
        ids[i] = rank as u64 * stride + offset;
    }
    let mut jobs: Vec<Job> = (0..n)
        .map(|i| Job {
            id: JobId(ids[i]),
            category: format!("c{}", i % 3),
            command: format!("job {i}"),
            inputs: vec![format!("src.{}", i % 2)],
            outputs: vec![format!("f{i}.a"), format!("f{i}.b")],
        })
        .collect();
    for &(x, y, second) in edges {
        let (lo, hi) = (x.min(y), x.max(y));
        if lo == hi || hi >= n {
            continue;
        }
        let file = format!("f{lo}.{}", if second { "b" } else { "a" });
        jobs[hi].inputs.push(file);
    }
    jobs.rotate_left(rotate % n);
    jobs
}

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

    /// On random DAGs (sparse, unordered ids; repeated and parallel
    /// edges) and random submit/complete/fail sequences, the flat DAG
    /// reports exactly what the ordered-map reference does: every job's
    /// state, the ready set in id order, the newly ready and abandoned
    /// lists in order, and the counters.
    #[test]
    fn flat_dag_matches_an_ordered_map_reference(
        n in 1usize..24,
        edges in proptest::collection::vec((0usize..24, 0usize..24, any::<bool>()), 0..60),
        keys in proptest::collection::vec(0u32..1_000, 24..25),
        stride in 1u64..4,
        offset in 0u64..3,
        rotate in 0usize..24,
        ops in proptest::collection::vec((0u8..4, 0usize..1_000), 1..80),
    ) {
        let jobs = random_dag(n, &edges, &keys, stride, offset, rotate);
        let mut reference = Reference::new(&jobs);
        let mut dag = Dag::build(jobs).expect("forward edges are acyclic");
        let ids: Vec<JobId> = reference.states.keys().copied().collect();
        prop_assert!(dag.jobs().map(|j| j.id).eq(ids.iter().copied()));
        let unknown = JobId(1_000);
        for (op, pick) in ops {
            let pick_from = |v: Vec<JobId>| (!v.is_empty()).then(|| v[pick % v.len()]);
            let (got, want) = match op {
                0 => match pick_from(reference.in_state(JobState::Ready)) {
                    Some(j) => {
                        dag.mark_submitted(j);
                        reference.submit(j);
                        (Vec::new(), Vec::new())
                    }
                    None => continue,
                },
                1 => match pick_from(reference.in_state(JobState::Submitted)) {
                    Some(j) => (dag.complete_job(j), reference.complete(j)),
                    None => continue,
                },
                2 => {
                    let mut live = reference.in_state(JobState::Ready);
                    live.extend(reference.in_state(JobState::Submitted));
                    match pick_from(live) {
                        Some(j) => (dag.fail_job(j), reference.fail(j)),
                        None => continue,
                    }
                }
                // Any job, terminal ones and an unknown id included.
                _ => {
                    let j = ids.get(pick % (ids.len() + 1)).copied().unwrap_or(unknown);
                    if pick % 2 == 0 {
                        (dag.complete_job(j), reference.complete(j))
                    } else {
                        (dag.fail_job(j), reference.fail(j))
                    }
                }
            };
            prop_assert_eq!(got, want);
            for (&j, &st) in &reference.states {
                prop_assert_eq!(dag.state(j), Some(st), "{:?}", j);
            }
            prop_assert_eq!(dag.state(unknown), None);
            prop_assert_eq!(dag.ready_jobs(), reference.in_state(JobState::Ready));
            prop_assert_eq!(
                (dag.completed(), dag.failed(), dag.abandoned()),
                (reference.completed, reference.failed, reference.abandoned)
            );
            let resolved = reference.completed + reference.failed + reference.abandoned;
            prop_assert_eq!(dag.all_resolved(), resolved == ids.len());
            prop_assert_eq!(dag.all_complete(), reference.completed == ids.len());
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
