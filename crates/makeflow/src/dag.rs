//! The workflow DAG.
//!
//! Nodes are jobs; an edge exists from job A to job B when B consumes a
//! file A produces. The DAG keeps the set of `Ready` jobs beside the job
//! states and updates it on every state change: [`Dag::build`] seeds it
//! with the source jobs, a completion adds exactly the jobs whose last
//! missing input it produced (the operation Makeflow performs on every
//! completion notification), and submission, failure and abandonment
//! take jobs out. [`Dag::ready_jobs`] reads the set, so asking what to
//! submit costs O(ready), not O(jobs).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::job::{Job, JobId, JobState};

/// Errors building a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Two jobs claim to produce the same file.
    DuplicateProducer(String),
    /// The dependency graph contains a cycle through this job.
    Cycle(JobId),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::DuplicateProducer(file) => {
                write!(f, "file {file:?} is produced by more than one rule")
            }
            DagError::Cycle(j) => write!(f, "dependency cycle involving {j}"),
        }
    }
}

impl std::error::Error for DagError {}

/// The workflow DAG with execution state.
///
/// The graph itself (job table, producers, dependents) is fixed once
/// [`Dag::build`] returns, so it sits behind an [`Arc`] and every clone
/// shares it; a clone copies only the per-run execution state. That
/// keeps a what-if fork of a running workflow cheap.
#[derive(Debug, Clone)]
pub struct Dag {
    graph: Arc<Graph>,
    states: BTreeMap<JobId, JobState>,
    /// Exactly the jobs whose state is `Ready`, in id order.
    ready: BTreeSet<JobId>,
    /// job → number of *incomplete* producer jobs it waits on.
    missing_deps: BTreeMap<JobId, usize>,
    completed: usize,
    failed: usize,
    abandoned: usize,
}

/// The immutable shape of a DAG, shared by all clones.
#[derive(Debug)]
struct Graph {
    jobs: BTreeMap<JobId, Job>,
    /// file name → producing job. Ordered so that any future iteration
    /// (none today) cannot depend on hash state.
    producers: BTreeMap<String, JobId>,
    /// job → jobs that consume one of its outputs.
    dependents: BTreeMap<JobId, BTreeSet<JobId>>,
}

impl Dag {
    /// Build a DAG from jobs. Inputs with no producer are workflow source
    /// files (assumed present). Fails on duplicate producers or cycles.
    pub fn build(jobs: Vec<Job>) -> Result<Self, DagError> {
        let mut producers: BTreeMap<String, JobId> = BTreeMap::new();
        for job in &jobs {
            for out in &job.outputs {
                if producers.insert(out.clone(), job.id).is_some() {
                    return Err(DagError::DuplicateProducer(out.clone()));
                }
            }
        }
        let mut dependents: BTreeMap<JobId, BTreeSet<JobId>> = BTreeMap::new();
        let mut missing: BTreeMap<JobId, usize> = BTreeMap::new();
        for job in &jobs {
            let mut producer_set = BTreeSet::new();
            for input in &job.inputs {
                if let Some(&p) = producers.get(input) {
                    if p == job.id {
                        return Err(DagError::Cycle(job.id));
                    }
                    producer_set.insert(p);
                }
            }
            missing.insert(job.id, producer_set.len());
            for p in producer_set {
                dependents.entry(p).or_default().insert(job.id);
            }
        }
        let states: BTreeMap<JobId, JobState> = jobs
            .iter()
            .map(|j| {
                let st = if missing[&j.id] == 0 {
                    JobState::Ready
                } else {
                    JobState::Blocked
                };
                (j.id, st)
            })
            .collect();
        let ready = states
            .iter()
            .filter(|(_, s)| **s == JobState::Ready)
            .map(|(&j, _)| j)
            .collect();
        let dag = Dag {
            graph: Arc::new(Graph {
                jobs: jobs.into_iter().map(|j| (j.id, j)).collect(),
                producers,
                dependents,
            }),
            states,
            ready,
            missing_deps: missing,
            completed: 0,
            failed: 0,
            abandoned: 0,
        };
        dag.check_acyclic()?;
        Ok(dag)
    }

    /// Kahn's algorithm over the producer counts: if not every job can be
    /// ordered, there is a cycle.
    fn check_acyclic(&self) -> Result<(), DagError> {
        let mut missing = self.missing_deps.clone();
        let mut queue: Vec<JobId> = missing
            .iter()
            .filter(|(_, &m)| m == 0)
            .map(|(&j, _)| j)
            .collect();
        let mut seen = 0usize;
        while let Some(j) = queue.pop() {
            seen += 1;
            if let Some(deps) = self.graph.dependents.get(&j) {
                for &d in deps {
                    let m = missing.get_mut(&d).expect("dependent exists");
                    *m -= 1;
                    if *m == 0 {
                        queue.push(d);
                    }
                }
            }
        }
        if seen != self.graph.jobs.len() {
            let stuck = missing
                .iter()
                .find(|(_, &m)| m > 0)
                .map(|(&j, _)| j)
                .expect("some job is stuck in a cycle");
            return Err(DagError::Cycle(stuck));
        }
        Ok(())
    }

    /// Total job count.
    pub fn len(&self) -> usize {
        self.graph.jobs.len()
    }

    /// True when the DAG holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.graph.jobs.is_empty()
    }

    /// Jobs currently in `Ready` state, in id order. O(ready).
    pub fn ready_jobs(&self) -> Vec<JobId> {
        self.ready.iter().copied().collect()
    }

    /// A job by id.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.graph.jobs.get(&id)
    }

    /// A job's state.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.states.get(&id).copied()
    }

    /// Mark a ready job as handed to the execution layer.
    pub fn mark_submitted(&mut self, id: JobId) {
        if let Some(s) = self.states.get_mut(&id) {
            debug_assert_eq!(*s, JobState::Ready, "submitting a non-ready job");
            *s = JobState::Submitted;
            self.ready.remove(&id);
        }
        self.assert_ready_set();
    }

    /// Record a completion; returns the jobs that just became ready. A
    /// job already terminal (complete, failed or abandoned) stays as it
    /// is, so the terminal counters never count a job twice.
    pub fn complete_job(&mut self, id: JobId) -> Vec<JobId> {
        let Some(s) = self.states.get_mut(&id) else {
            return Vec::new();
        };
        if matches!(
            s,
            JobState::Complete | JobState::Failed | JobState::Abandoned
        ) {
            return Vec::new();
        }
        *s = JobState::Complete;
        self.ready.remove(&id);
        self.completed += 1;
        let mut newly_ready = Vec::new();
        // The graph and the per-run state are disjoint fields, so the
        // loop reads the dependents in place.
        if let Some(deps) = self.graph.dependents.get(&id) {
            for &d in deps {
                let m = self.missing_deps.get_mut(&d).expect("dependent tracked");
                *m = m.saturating_sub(1);
                if *m == 0 {
                    let st = self.states.get_mut(&d).expect("state tracked");
                    if *st == JobState::Blocked {
                        *st = JobState::Ready;
                        self.ready.insert(d);
                        newly_ready.push(d);
                    }
                }
            }
        }
        self.assert_ready_set();
        newly_ready
    }

    /// Record a permanent failure; transitively abandons every job that
    /// (directly or not) consumes one of its outputs, and returns the
    /// abandoned jobs. The rest of the workflow keeps running — graceful
    /// degradation rather than workflow abort.
    pub fn fail_job(&mut self, id: JobId) -> Vec<JobId> {
        let Some(s) = self.states.get_mut(&id) else {
            return Vec::new();
        };
        if matches!(
            s,
            JobState::Complete | JobState::Failed | JobState::Abandoned
        ) {
            return Vec::new();
        }
        *s = JobState::Failed;
        self.ready.remove(&id);
        self.failed += 1;
        // BFS over the dependents closure.
        let mut abandoned = Vec::new();
        let mut frontier = vec![id];
        while let Some(j) = frontier.pop() {
            let Some(deps) = self.graph.dependents.get(&j) else {
                continue;
            };
            for &d in deps {
                let st = self.states.get_mut(&d).expect("state tracked");
                if matches!(
                    st,
                    JobState::Complete | JobState::Failed | JobState::Abandoned
                ) {
                    continue;
                }
                *st = JobState::Abandoned;
                self.ready.remove(&d);
                self.abandoned += 1;
                abandoned.push(d);
                frontier.push(d);
            }
        }
        self.assert_ready_set();
        abandoned
    }

    /// Assert that the ready set is exactly a scan of the `Ready` states
    /// (sanitized builds only: debug, or the `sim-sanitizer` feature).
    /// O(jobs), so plain release builds never evaluate it.
    fn assert_ready_set(&self) {
        if hta_des::sanitize::ACTIVE {
            let scan = self
                .states
                .iter()
                .filter(|(_, s)| **s == JobState::Ready)
                .map(|(&j, _)| j);
            assert!(
                scan.eq(self.ready.iter().copied()),
                "DAG ready set {:?} out of sync with the job states",
                self.ready
            );
        }
    }

    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Number of permanently failed jobs.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Number of jobs abandoned because a dependency failed.
    pub fn abandoned(&self) -> usize {
        self.abandoned
    }

    /// True when every job is complete.
    pub fn all_complete(&self) -> bool {
        self.completed == self.graph.jobs.len()
    }

    /// True when every job has reached a terminal state — complete,
    /// failed, or abandoned. This is "the workflow is over" under fault
    /// injection; without faults it coincides with [`Dag::all_complete`].
    pub fn all_resolved(&self) -> bool {
        self.completed + self.failed + self.abandoned == self.graph.jobs.len()
    }

    /// Which job produces `file`, if any (workflow sources have none).
    pub fn producer_of(&self, file: &str) -> Option<JobId> {
        self.graph.producers.get(file).copied()
    }

    /// Iterate jobs in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.graph.jobs.values()
    }

    /// Distinct category names, in first-seen (id) order.
    pub fn categories(&self) -> Vec<String> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        self.graph
            .jobs
            .values()
            .filter(|j| seen.insert(j.category.as_str()))
            .map(|j| j.category.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, cat: &str, inputs: &[&str], outputs: &[&str]) -> Job {
        Job {
            id: JobId(id),
            category: cat.into(),
            command: format!("cmd-{id}"),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// split → [a, b] → reduce diamond.
    fn diamond() -> Dag {
        Dag::build(vec![
            job(0, "split", &["input"], &["p0", "p1"]),
            job(1, "align", &["p0"], &["o0"]),
            job(2, "align", &["p1"], &["o1"]),
            job(3, "reduce", &["o0", "o1"], &["result"]),
        ])
        .unwrap()
    }

    #[test]
    fn initial_ready_set_is_sources_only() {
        let d = diamond();
        assert_eq!(d.ready_jobs(), vec![JobId(0)]);
        assert_eq!(d.state(JobId(3)), Some(JobState::Blocked));
    }

    #[test]
    fn completion_unblocks_dependents_incrementally() {
        let mut d = diamond();
        d.mark_submitted(JobId(0));
        let ready = d.complete_job(JobId(0));
        assert_eq!(ready, vec![JobId(1), JobId(2)]);
        assert!(d.complete_job(JobId(1)).is_empty(), "reduce still waits");
        let ready = d.complete_job(JobId(2));
        assert_eq!(ready, vec![JobId(3)]);
        d.complete_job(JobId(3));
        assert!(d.all_complete());
        assert_eq!(d.completed(), 4);
    }

    #[test]
    fn double_completion_is_idempotent() {
        let mut d = diamond();
        d.complete_job(JobId(0));
        assert!(d.complete_job(JobId(0)).is_empty());
        assert_eq!(d.completed(), 1);
    }

    #[test]
    fn duplicate_producer_rejected() {
        let err = Dag::build(vec![job(0, "a", &[], &["x"]), job(1, "a", &[], &["x"])]).unwrap_err();
        assert_eq!(err, DagError::DuplicateProducer("x".into()));
    }

    #[test]
    fn self_cycle_rejected() {
        let err = Dag::build(vec![job(0, "a", &["x"], &["x"])]).unwrap_err();
        assert_eq!(err, DagError::Cycle(JobId(0)));
    }

    #[test]
    fn two_job_cycle_rejected() {
        let err = Dag::build(vec![
            job(0, "a", &["y"], &["x"]),
            job(1, "a", &["x"], &["y"]),
        ])
        .unwrap_err();
        assert!(matches!(err, DagError::Cycle(_)));
    }

    #[test]
    fn producer_lookup_and_categories() {
        let d = diamond();
        assert_eq!(d.producer_of("o1"), Some(JobId(2)));
        assert_eq!(d.producer_of("input"), None, "workflow source");
        assert_eq!(d.categories(), vec!["split", "align", "reduce"]);
    }

    #[test]
    fn failure_abandons_transitive_dependents_only() {
        let mut d = diamond();
        d.mark_submitted(JobId(0));
        d.complete_job(JobId(0));
        // align job-1 fails permanently: reduce (job-3) can never run, but
        // align job-2 is untouched.
        let abandoned = d.fail_job(JobId(1));
        assert_eq!(abandoned, vec![JobId(3)]);
        assert_eq!(d.state(JobId(1)), Some(JobState::Failed));
        assert_eq!(d.state(JobId(3)), Some(JobState::Abandoned));
        assert_eq!(d.state(JobId(2)), Some(JobState::Ready));
        assert!(!d.all_resolved(), "job-2 still live");
        d.complete_job(JobId(2));
        assert!(d.all_resolved());
        assert!(!d.all_complete());
        assert_eq!((d.completed(), d.failed(), d.abandoned()), (2, 1, 1));
    }

    #[test]
    fn completion_never_revives_an_abandoned_job() {
        let mut d = diamond();
        d.complete_job(JobId(0));
        d.fail_job(JobId(1));
        // job-3 is abandoned; job-2 completing must not flip it to Ready.
        d.complete_job(JobId(2));
        assert_eq!(d.state(JobId(3)), Some(JobState::Abandoned));
        assert!(d.ready_jobs().is_empty());
    }

    #[test]
    fn completing_a_failed_or_abandoned_job_changes_nothing() {
        let mut d = diamond();
        d.complete_job(JobId(0));
        d.fail_job(JobId(1));
        assert!(d.complete_job(JobId(1)).is_empty());
        assert!(d.complete_job(JobId(3)).is_empty());
        assert_eq!(d.state(JobId(1)), Some(JobState::Failed));
        assert_eq!(d.state(JobId(3)), Some(JobState::Abandoned));
        assert_eq!((d.completed(), d.failed(), d.abandoned()), (1, 1, 1));
        assert_eq!(d.ready_jobs(), vec![JobId(2)]);
    }

    // The ready-set audit runs in sanitized builds only.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of sync with the job states")]
    fn sanitizer_catches_a_ready_set_desync() {
        let mut d = diamond();
        d.ready.insert(JobId(3));
        d.mark_submitted(JobId(0));
    }

    #[test]
    fn fail_job_is_idempotent_and_ignores_terminal_jobs() {
        let mut d = diamond();
        d.complete_job(JobId(0));
        assert!(d.fail_job(JobId(0)).is_empty(), "complete job can't fail");
        d.fail_job(JobId(1));
        assert!(d.fail_job(JobId(1)).is_empty(), "double fail is a no-op");
        assert_eq!(d.failed(), 1);
        assert_eq!(d.abandoned(), 1);
    }

    #[test]
    fn clones_share_the_graph_but_not_the_run_state() {
        let original = diamond();
        let mut fork = original.clone();
        assert!(Arc::ptr_eq(&original.graph, &fork.graph));
        fork.mark_submitted(JobId(0));
        assert_eq!(fork.complete_job(JobId(0)), vec![JobId(1), JobId(2)]);
        assert_eq!(fork.fail_job(JobId(1)), vec![JobId(3)]);
        assert_eq!(
            (fork.completed(), fork.failed(), fork.abandoned()),
            (1, 1, 1)
        );
        // The original still stands where it was built.
        assert_eq!(original.ready_jobs(), vec![JobId(0)]);
        for j in 1..4 {
            assert_eq!(original.state(JobId(j)), Some(JobState::Blocked));
        }
        assert_eq!(
            (
                original.completed(),
                original.failed(),
                original.abandoned()
            ),
            (0, 0, 0)
        );
        assert_eq!(original.missing_deps, diamond().missing_deps);
        // And it still runs to completion on its own.
        let mut original = original;
        for j in 0..4 {
            original.complete_job(JobId(j));
        }
        assert!(original.all_complete());
        assert_eq!(fork.state(JobId(3)), Some(JobState::Abandoned));
    }

    #[test]
    fn independent_jobs_all_start_ready() {
        let d = Dag::build(
            (0..10)
                .map(|i| job(i, "par", &["db"], &[]))
                .map(|mut j| {
                    j.outputs = vec![format!("out.{}", j.id.raw())];
                    j
                })
                .collect(),
        )
        .unwrap();
        assert_eq!(d.ready_jobs().len(), 10);
    }
}
