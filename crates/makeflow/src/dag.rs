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
//!
//! The per-run state is flat: one array of job states and one of missing
//! producer counts, both indexed by a job's position in id order
//! ([`Dag::position`]), so a completion indexes instead of searching and
//! a clone copies two small arrays.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::job::{Job, JobId, JobState};

/// Errors building a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Two jobs claim to produce the same file.
    DuplicateProducer(String),
    /// Two jobs share this id.
    DuplicateJob(JobId),
    /// The dependency graph contains a cycle through this job.
    Cycle(JobId),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::DuplicateProducer(file) => {
                write!(f, "file {file:?} is produced by more than one rule")
            }
            DagError::DuplicateJob(j) => write!(f, "more than one job is {j}"),
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
    /// Each job's state, by position.
    states: Vec<JobState>,
    /// Exactly the jobs whose state is `Ready`, in id order.
    ready: BTreeSet<JobId>,
    /// By position: the number of *incomplete* producer jobs the job
    /// waits on.
    missing_deps: Vec<u32>,
    completed: usize,
    failed: usize,
    abandoned: usize,
}

/// The immutable shape of a DAG, shared by all clones.
#[derive(Debug)]
struct Graph {
    /// The jobs in id order; a job's index here is its position.
    jobs: Vec<Job>,
    /// file name → producing job. Ordered so that any future iteration
    /// (none today) cannot depend on hash state.
    producers: BTreeMap<String, JobId>,
    /// By position: the positions of the jobs that consume one of the
    /// job's outputs, ascending.
    dependents: Vec<Vec<u32>>,
}

/// The position of `id` among `jobs` (sorted by id, ids distinct). The
/// parser and the workload generators number jobs densely from 0, so
/// the lookup is one index; other numberings fall back to a binary
/// search.
fn position_in(jobs: &[Job], id: JobId) -> Option<usize> {
    let dense = usize::try_from(id.raw()).ok();
    match dense.and_then(|i| jobs.get(i).map(|j| (i, j))) {
        Some((i, j)) if j.id == id => Some(i),
        _ => jobs.binary_search_by_key(&id, |j| j.id).ok(),
    }
}

impl Dag {
    /// Build a DAG from jobs. Inputs with no producer are workflow source
    /// files (assumed present). Fails on duplicate producers, duplicate
    /// job ids or cycles.
    pub fn build(mut jobs: Vec<Job>) -> Result<Self, DagError> {
        let mut producers: BTreeMap<String, JobId> = BTreeMap::new();
        for job in &jobs {
            for out in &job.outputs {
                if producers.insert(out.clone(), job.id).is_some() {
                    return Err(DagError::DuplicateProducer(out.clone()));
                }
            }
        }
        jobs.sort_by_key(|j| j.id);
        if let Some(pair) = jobs.windows(2).find(|pair| pair[0].id == pair[1].id) {
            return Err(DagError::DuplicateJob(pair[0].id));
        }
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); jobs.len()];
        let mut missing_deps = Vec::with_capacity(jobs.len());
        let mut producer_set = Vec::new();
        for (pos, job) in jobs.iter().enumerate() {
            producer_set.clear();
            for input in &job.inputs {
                if let Some(&p) = producers.get(input) {
                    if p == job.id {
                        return Err(DagError::Cycle(job.id));
                    }
                    producer_set.push(position_in(&jobs, p).expect("a producer is a job"));
                }
            }
            producer_set.sort_unstable();
            producer_set.dedup();
            missing_deps.push(producer_set.len() as u32);
            // Positions ascend, so every dependents list is built sorted.
            for &p in &producer_set {
                dependents[p].push(pos as u32);
            }
        }
        let states: Vec<JobState> = missing_deps
            .iter()
            .map(|&m| {
                if m == 0 {
                    JobState::Ready
                } else {
                    JobState::Blocked
                }
            })
            .collect();
        let ready = jobs
            .iter()
            .zip(&states)
            .filter(|(_, s)| **s == JobState::Ready)
            .map(|(j, _)| j.id)
            .collect();
        let dag = Dag {
            graph: Arc::new(Graph {
                jobs,
                producers,
                dependents,
            }),
            states,
            ready,
            missing_deps,
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
        let mut queue: Vec<usize> = (0..missing.len()).filter(|&p| missing[p] == 0).collect();
        let mut seen = 0usize;
        while let Some(j) = queue.pop() {
            seen += 1;
            for &d in &self.graph.dependents[j] {
                let m = &mut missing[d as usize];
                *m -= 1;
                if *m == 0 {
                    queue.push(d as usize);
                }
            }
        }
        if seen != self.graph.jobs.len() {
            let stuck = missing
                .iter()
                .position(|&m| m > 0)
                .expect("some job is stuck in a cycle");
            return Err(DagError::Cycle(self.graph.jobs[stuck].id));
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

    /// A job's position: its index in id order, the order of
    /// [`Dag::jobs`]. Tables built alongside the DAG can index by it.
    pub fn position(&self, id: JobId) -> Option<usize> {
        position_in(&self.graph.jobs, id)
    }

    /// Jobs currently in `Ready` state, in id order. O(ready).
    pub fn ready_jobs(&self) -> Vec<JobId> {
        self.ready.iter().copied().collect()
    }

    /// A job by id.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.position(id).map(|p| &self.graph.jobs[p])
    }

    /// A job's state.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.position(id).map(|p| self.states[p])
    }

    /// Mark a ready job as handed to the execution layer.
    pub fn mark_submitted(&mut self, id: JobId) {
        if let Some(p) = self.position(id) {
            debug_assert_eq!(
                self.states[p],
                JobState::Ready,
                "submitting a non-ready job"
            );
            self.states[p] = JobState::Submitted;
            self.ready.remove(&id);
        }
        self.assert_ready_set();
    }

    /// Record a completion; returns the jobs that just became ready. A
    /// job already terminal (complete, failed or abandoned) stays as it
    /// is, so the terminal counters never count a job twice.
    pub fn complete_job(&mut self, id: JobId) -> Vec<JobId> {
        let Some(p) = self.position(id) else {
            return Vec::new();
        };
        if is_terminal(self.states[p]) {
            return Vec::new();
        }
        self.states[p] = JobState::Complete;
        self.ready.remove(&id);
        self.completed += 1;
        let mut newly_ready = Vec::new();
        // The graph and the per-run state are disjoint fields, so the
        // loop reads the dependents in place.
        for &d in &self.graph.dependents[p] {
            let d = d as usize;
            let m = &mut self.missing_deps[d];
            *m = m.saturating_sub(1);
            if *m == 0 && self.states[d] == JobState::Blocked {
                self.states[d] = JobState::Ready;
                let job = self.graph.jobs[d].id;
                self.ready.insert(job);
                newly_ready.push(job);
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
        let Some(p) = self.position(id) else {
            return Vec::new();
        };
        if is_terminal(self.states[p]) {
            return Vec::new();
        }
        self.states[p] = JobState::Failed;
        self.ready.remove(&id);
        self.failed += 1;
        // DFS over the dependents closure.
        let mut abandoned = Vec::new();
        let mut frontier = vec![p];
        while let Some(j) = frontier.pop() {
            for &d in &self.graph.dependents[j] {
                let d = d as usize;
                if is_terminal(self.states[d]) {
                    continue;
                }
                self.states[d] = JobState::Abandoned;
                let job = self.graph.jobs[d].id;
                self.ready.remove(&job);
                self.abandoned += 1;
                abandoned.push(job);
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
                .graph
                .jobs
                .iter()
                .zip(&self.states)
                .filter(|(_, s)| **s == JobState::Ready)
                .map(|(j, _)| j.id);
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
        self.graph.jobs.iter()
    }

    /// Distinct category names, in first-seen (id) order.
    pub fn categories(&self) -> Vec<String> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        self.graph
            .jobs
            .iter()
            .filter(|j| seen.insert(j.category.as_str()))
            .map(|j| j.category.clone())
            .collect()
    }
}

/// True for the states a job never leaves.
fn is_terminal(s: JobState) -> bool {
    matches!(
        s,
        JobState::Complete | JobState::Failed | JobState::Abandoned
    )
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
    fn duplicate_job_id_rejected() {
        let err = Dag::build(vec![job(0, "a", &[], &["x"]), job(0, "a", &[], &["y"])]).unwrap_err();
        assert_eq!(err, DagError::DuplicateJob(JobId(0)));
    }

    #[test]
    fn sparse_unordered_ids_index_by_position() {
        // Ids neither dense nor in input order: positions follow id order.
        let mut d = Dag::build(vec![
            job(40, "reduce", &["o7", "o9"], &["result"]),
            job(9, "align", &["p"], &["o9"]),
            job(3, "split", &["input"], &["p"]),
            job(7, "align", &["p"], &["o7"]),
        ])
        .unwrap();
        let ids: Vec<JobId> = d.jobs().map(|j| j.id).collect();
        assert_eq!(ids, vec![JobId(3), JobId(7), JobId(9), JobId(40)]);
        assert_eq!(d.position(JobId(9)), Some(2));
        assert_eq!(d.position(JobId(1)), None);
        assert_eq!(d.state(JobId(1)), None);
        assert_eq!(d.ready_jobs(), vec![JobId(3)]);
        assert_eq!(d.complete_job(JobId(3)), vec![JobId(7), JobId(9)]);
        assert!(d.complete_job(JobId(9)).is_empty());
        assert_eq!(d.complete_job(JobId(7)), vec![JobId(40)]);
        assert_eq!(d.job(JobId(40)).unwrap().category, "reduce");
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
