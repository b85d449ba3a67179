//! The Makeflow-Kubernetes operator (§V-A).
//!
//! The operator sits between Makeflow and Work Queue: it receives job
//! specifications from the workflow manager (the paper's TCP server),
//! submits ready jobs to the master (the TCP client), and implements the
//! **warm-up stage** (§V-C): "Instead of fanning out all jobs at once,
//! HTA sends out only a portion of jobs with one job per category to
//! collect resource statistics of each category." Once a category's probe
//! completes, its measured resources are applied to every held and queued
//! job of that category.
//!
//! The operator also owns the translation from workflow jobs (file names,
//! category profiles) into Work Queue task specs (file ids, exec models),
//! registering source and intermediate files in the master's catalogue.
//!
//! Category bookkeeping is keyed by interned [`CategoryId`]s: the
//! operator interns every workflow category in the master's interner at
//! construction — the master's table is the only name↔id map — so task
//! specs, completion handling and warm-up checks carry ids, never names.
//! The same construction pass resolves each job's category id, profile
//! and input file ids into a job table, so a submission looks nothing
//! up by name.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hta_des::{CategoryId, Duration, EffectSink, SimRng, SimTime};
use hta_makeflow::{Dag, JobId, SimProfile, Workflow};
use hta_resources::Resources;
use hta_workqueue::master::{Master, WqEvent};
use hta_workqueue::task::{ExecModel, Measured, TaskSpec};
use hta_workqueue::{FileId, TaskId};

use crate::driver::WalRecord;

/// Operator behaviour switches.
#[derive(Debug, Clone)]
pub struct OperatorConfig {
    /// Warm-up probing: hold a category's jobs until one measured probe
    /// completes. HTA runs with this on; the HPA baselines (which assume
    /// resources are known, §III-B) run with it off.
    pub warmup: bool,
    /// Trust the workflow's declared category resources (HPA baselines).
    /// When false, declared resources are ignored and everything is
    /// learned from probes (pure HTA mode).
    pub trust_declared: bool,
    /// Learn category resources from completed jobs. Disabling this
    /// reproduces the paper's Fig. 4(b) configuration: resources stay
    /// unknown for the whole run and every task holds a whole worker.
    pub learn: bool,
    /// Seed for per-job wall-time jitter.
    pub seed: u64,
}

impl Default for OperatorConfig {
    fn default() -> Self {
        OperatorConfig {
            warmup: true,
            trust_declared: false,
            learn: true,
            seed: 0xC0FFEE,
        }
    }
}

/// Category knowledge state used for submission decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CatKnowledge {
    /// Resources known (declared and trusted, or learned).
    Known,
    /// Probe in flight; hold further jobs.
    Probing,
    /// Nothing known; next job becomes the probe.
    Unknown,
}

/// What one workflow job's submission needs, resolved once when the
/// operator is built.
#[derive(Debug)]
pub(crate) struct JobEntry {
    cat: CategoryId,
    /// The category's profile; a category without one runs as
    /// [`SimProfile::default`].
    sim: SimProfile,
    inputs: Box<[FileId]>,
}

/// The operator.
#[derive(Debug, Clone)]
pub struct Operator {
    cfg: OperatorConfig,
    /// The workflow's DAG: its graph is shared by clones, its per-run job
    /// states are copied.
    dag: Dag,
    /// One entry per job, by DAG position. Fixed at construction and
    /// shared by clones.
    jobs: Arc<[JobEntry]>,
    stats: crate::category_stats::CategoryStats,
    /// Learned (or trusted-declared) per-category resources.
    learned: BTreeMap<CategoryId, Resources>,
    /// Categories with a warm-up probe in flight.
    probing: BTreeSet<CategoryId>,
    held: BTreeMap<CategoryId, Vec<JobId>>,
    /// The workflow job behind each task still in the master (waiting or
    /// on a worker); a task's entry leaves with its record, so a fork
    /// copies O(in-flight) entries.
    job_for_task: BTreeMap<TaskId, JobId>,
    next_task: u64,
    rng: SimRng,
    submitted: usize,
    /// Decision records pending collection into the driver's WAL (only
    /// populated while [`record_wal`](Self::record_wal) is on).
    wal_pending: Vec<WalRecord>,
    wal_recording: bool,
}

impl hta_des::SnapshotState for Operator {
    /// Re-partition the submission RNG for a what-if branch; DAG state,
    /// holds and learned resources are untouched.
    fn reseed(&mut self, salt: hta_des::Salt) {
        self.rng = self.rng.partition(salt);
    }
}

impl Operator {
    /// Build an operator over a workflow, registering its files in the
    /// master's catalogue and its categories in the master's interner.
    /// The workflow's category profiles and source-file sizes are
    /// consumed here: what submissions need of them goes into the job
    /// table.
    pub fn new(cfg: OperatorConfig, workflow: Workflow, master: &mut Master) -> Self {
        let Workflow {
            dag,
            categories,
            source_files,
        } = workflow;
        let rng = SimRng::seed_from_u64(cfg.seed);
        // Register source files with their metadata; intermediate files
        // with the producing category's output size (non-cacheable);
        // unlisted sources (wrapper scripts etc.) zero-sized.
        let register = |master: &mut Master, name: &str| match source_files.get(name) {
            Some(src) => master
                .catalog_mut()
                .register(name, src.size_mb, src.cacheable),
            None => {
                let out_mb = dag.producer_of(name).map_or(0.0, |producer| {
                    let cat = &dag.job(producer).expect("producer exists").category;
                    categories.get(cat).map_or(0.0, |p| p.sim.output_mb)
                });
                master.catalog_mut().register(name, out_mb, false)
            }
        };
        // One pass over the jobs in id order: each distinct file is
        // registered and each category interned at its first sight
        // (inputs before outputs), so every `FileId` and `CategoryId`
        // follows the jobs' id order, and each job's entry is resolved
        // on the way.
        let mut file_ids: BTreeMap<&str, FileId> = BTreeMap::new();
        let mut jobs = Vec::with_capacity(dag.len());
        for job in dag.jobs() {
            let mut inputs = Vec::with_capacity(job.inputs.len());
            for (i, name) in job.inputs.iter().chain(&job.outputs).enumerate() {
                let id = *file_ids
                    .entry(name.as_str())
                    .or_insert_with(|| register(master, name));
                if i < job.inputs.len() {
                    inputs.push(id);
                }
            }
            jobs.push(JobEntry {
                cat: master.intern_category(&job.category),
                sim: categories
                    .get(&job.category)
                    .map_or_else(SimProfile::default, |p| p.sim),
                inputs: inputs.into(),
            });
        }
        // Trusted declared resources seed the knowledge map. Categories
        // without jobs are interned too, after the jobs' own.
        let mut learned = BTreeMap::new();
        for (name, prof) in &categories {
            let id = master.intern_category(name);
            if let Some(r) = prof.declared.filter(|_| cfg.trust_declared) {
                learned.insert(id, r);
            }
        }
        Operator {
            cfg,
            dag,
            jobs: jobs.into(),
            stats: crate::category_stats::CategoryStats::new(),
            learned,
            probing: BTreeSet::new(),
            held: BTreeMap::new(),
            job_for_task: BTreeMap::new(),
            next_task: 0,
            rng,
            submitted: 0,
            wal_pending: Vec::new(),
            wal_recording: false,
        }
    }

    /// Turn write-ahead decision logging on or off. The driver enables
    /// this when the fault plan schedules control-plane crashes; normal
    /// runs keep it off and pay nothing.
    pub(crate) fn record_wal(&mut self, on: bool) {
        self.wal_recording = on;
    }

    /// Drain the decision records logged since the last call (the driver
    /// appends them to its WAL after every operator entry point).
    pub(crate) fn drain_wal_records(&mut self) -> Vec<WalRecord> {
        std::mem::take(&mut self.wal_pending)
    }

    /// The learned statistics (feedback input).
    pub fn stats(&self) -> &crate::category_stats::CategoryStats {
        &self.stats
    }

    /// The DAG and the job table, for sharing checks in tests.
    #[cfg(test)]
    pub(crate) fn shared_inputs(&self) -> (&Dag, &Arc<[JobEntry]>) {
        (&self.dag, &self.jobs)
    }

    /// The table entry of a workflow job.
    fn entry(&self, job: JobId) -> &JobEntry {
        let pos = self.dag.position(job).expect("a workflow job");
        &self.jobs[pos]
    }

    /// Known per-category resources (declared-and-trusted or learned) by
    /// interned id; resolve a name through [`Master::interner`].
    pub fn known_resources_id(&self, cat: CategoryId) -> Option<Resources> {
        self.learned.get(&cat).copied()
    }

    /// Jobs currently held back by warm-up, as `(category, count)`.
    pub fn held_jobs(&self) -> Vec<(CategoryId, usize)> {
        self.held
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, v)| (*k, v.len()))
            .collect()
    }

    /// Total jobs submitted to the master so far.
    pub fn submitted_count(&self) -> usize {
        self.submitted
    }

    /// True when the whole workflow is resolved: every job completed,
    /// permanently failed, or abandoned because a dependency failed.
    /// (Without fault injection nothing fails, so this is exactly
    /// "all complete".)
    pub fn all_complete(&self) -> bool {
        self.dag.all_resolved()
    }

    /// Jobs that permanently failed or were abandoned, as
    /// `(failed, abandoned)` counts.
    pub fn failure_counts(&self) -> (usize, usize) {
        (self.dag.failed(), self.dag.abandoned())
    }

    fn knowledge(&self, cat: CategoryId) -> CatKnowledge {
        if self.learned.contains_key(&cat) {
            CatKnowledge::Known
        } else if self.probing.contains(&cat) {
            CatKnowledge::Probing
        } else {
            CatKnowledge::Unknown
        }
    }

    /// Submit every ready job the warm-up rules allow.
    pub fn submit_ready(
        &mut self,
        now: SimTime,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) {
        for job in self.dag.ready_jobs() {
            let cat = self.entry(job).cat;
            if !self.cfg.warmup {
                self.submit_job(now, job, cat, master, fx);
                continue;
            }
            match self.knowledge(cat) {
                CatKnowledge::Known => self.submit_job(now, job, cat, master, fx),
                CatKnowledge::Unknown => {
                    self.probing.insert(cat);
                    self.submit_job(now, job, cat, master, fx);
                }
                CatKnowledge::Probing => {
                    self.dag.mark_submitted(job); // leaves the ready set
                    self.held.entry(cat).or_default().push(job);
                }
            }
        }
    }

    /// Build a task spec for `job`, whose category id is `cat`, and
    /// submit it to the master. Everything comes from the job's table
    /// entry; only the spec's own fields are allocated.
    fn push_job(
        &mut self,
        now: SimTime,
        job: JobId,
        cat: CategoryId,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) {
        let entry = self.entry(job);
        let (sim, inputs) = (entry.sim, entry.inputs.to_vec());
        let declared = self.known_resources_id(cat);
        let wall = sample_wall(&mut self.rng, &sim);
        let task_id = TaskId(self.next_task);
        self.next_task += 1;
        let spec = TaskSpec {
            id: task_id,
            cat,
            inputs,
            output_mb: sim.output_mb,
            declared,
            actual: sim.actual,
            exec: ExecModel {
                duration: wall,
                cpu_fraction: sim.cpu_fraction,
            },
        };
        self.job_for_task.insert(task_id, job);
        self.submitted += 1;
        if self.wal_recording {
            self.wal_pending.push(WalRecord::Submit {
                job,
                spec: Arc::new(spec.clone()),
            });
        }
        master.submit(now, spec, fx);
    }

    fn submit_job(
        &mut self,
        now: SimTime,
        job: JobId,
        cat: CategoryId,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) {
        self.dag.mark_submitted(job);
        self.push_job(now, job, cat, master, fx);
    }

    /// Admit one open-loop trace arrival. Trace tasks have no workflow
    /// job behind them: the DAG stays untouched and completion
    /// acknowledgements only feed the category statistics and learning.
    /// The spec's category id comes from the trace's table, which the
    /// driver interned at construction. The arrival itself is the trace
    /// cursor's decision, which the checkpoint holds, so the WAL record
    /// names only the task id.
    pub fn submit_trace(
        &mut self,
        now: SimTime,
        spec: TaskSpec,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if self.wal_recording {
            self.wal_pending
                .push(WalRecord::TraceSubmit { task: spec.id });
        }
        self.admit_trace(now, spec, master, fx);
    }

    /// Submit a trace arrival without logging it: the one path live
    /// admission and WAL replay share (replay passes the arrival the
    /// restored cursor produced again). A spec with no declared resources
    /// picks up whatever the category has learned so far, so a replayed
    /// arrival gets the value the live one got: replay re-applies `Learn`
    /// records in log order. Open-loop arrivals never wait in warm-up
    /// holds.
    pub(crate) fn admit_trace(
        &mut self,
        now: SimTime,
        mut spec: TaskSpec,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if spec.declared.is_none() {
            spec.declared = self.known_resources_id(spec.cat);
        }
        self.next_task = self.next_task.max(spec.id.raw() + 1);
        self.submitted += 1;
        master.submit(now, spec, fx);
    }

    /// Handle a completed task: record statistics, release held jobs,
    /// unblock dependents, submit whatever is now ready.
    pub fn on_task_completed(
        &mut self,
        now: SimTime,
        task: TaskId,
        cat: CategoryId,
        measured: Measured,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) {
        self.stats.observe(cat, measured);

        // First measurement for a category with unknown resources: commit
        // the learned requirement, upgrade queued tasks, release held jobs.
        if self.cfg.learn && !self.learned.contains_key(&cat) {
            let est = self
                .stats
                .estimate(cat)
                .expect("just observed this category");
            self.learned.insert(cat, est.resources);
            self.probing.remove(&cat);
            if self.wal_recording {
                self.wal_pending.push(WalRecord::Learn {
                    cat,
                    resources: est.resources,
                });
            }
            declare_waiting(cat, est.resources, master);
            if let Some(held) = self.held.remove(&cat) {
                for job in held {
                    // Held jobs were marked submitted in the DAG; submit
                    // them to the master now with the learned resources.
                    self.push_job(now, job, cat, master, fx);
                }
            }
        }

        // Unblock the DAG and submit whatever its ready set now holds.
        if let Some(job) = self.job_for_task.remove(&task) {
            self.dag.complete_job(job);
            self.submit_ready(now, master, fx);
        }
    }

    /// Handle a permanently failed task (retry budget exhausted under
    /// fault injection): fail the job, abandon its transitive dependents
    /// (graceful degradation — independent branches keep running), and if
    /// the failed task was a category's warm-up probe, promote a held job
    /// of that category as the replacement probe so the category doesn't
    /// deadlock.
    pub fn on_task_failed(
        &mut self,
        now: SimTime,
        task: TaskId,
        cat: CategoryId,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) {
        if !self.fail_job(task) {
            return;
        }
        // Re-aim the warm-up probe if it just died unlearned.
        if self.cfg.warmup && !self.learned.contains_key(&cat) && self.probing.remove(&cat) {
            let next = self
                .held
                .get_mut(&cat)
                .filter(|v| !v.is_empty())
                .map(|v| v.remove(0));
            if let Some(next_job) = next {
                self.probing.insert(cat);
                self.push_job(now, next_job, cat, master, fx);
            }
        }
        self.submit_ready(now, master, fx);
    }

    // ------------------------------------------------------------------
    // WAL replay (crash recovery)
    // ------------------------------------------------------------------
    //
    // Replay methods re-apply logged decisions against a checkpoint-
    // restored operator and a data-plane-reset master. They must never
    // draw randomness (the logged spec carries the sampled wall time) and
    // never log (the records being replayed are still in the driver's WAL
    // for a possible second crash before the next checkpoint).

    /// Re-apply a logged submission.
    pub fn replay_submit(
        &mut self,
        now: SimTime,
        job: JobId,
        spec: TaskSpec,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) {
        // A job released from a warm-up hold was already marked submitted
        // in the DAG when it was held; a directly submitted job was not.
        let mut was_held = false;
        for list in self.held.values_mut() {
            let before = list.len();
            list.retain(|j| *j != job);
            was_held |= list.len() != before;
        }
        self.held.retain(|_, v| !v.is_empty());
        if !was_held {
            self.dag.mark_submitted(job);
        }
        // The first submission of a still-unlearned category under warm-up
        // was that category's probe: restore the flag.
        let cat = spec.cat;
        if self.cfg.warmup && !self.learned.contains_key(&cat) {
            self.probing.insert(cat);
        }
        self.next_task = self.next_task.max(spec.id.raw() + 1);
        self.job_for_task.insert(spec.id, job);
        self.submitted += 1;
        master.submit(now, spec, fx);
    }

    /// Re-apply a logged category learning decision. Held jobs are *not*
    /// released here — their releases follow as their own `Submit`
    /// records.
    pub fn replay_learn(&mut self, cat: CategoryId, resources: Resources, master: &mut Master) {
        self.learned.insert(cat, resources);
        self.probing.remove(&cat);
        declare_waiting(cat, resources, master);
    }

    /// Re-apply a logged completion acknowledgement (DAG unblock only;
    /// newly ready jobs were submitted under their own records).
    pub fn replay_complete(&mut self, task: TaskId) {
        if let Some(job) = self.job_for_task.remove(&task) {
            self.dag.complete_job(job);
        }
    }

    /// Re-apply a logged permanent-failure acknowledgement. The original
    /// handler's probe re-aim produced its own `Submit` record, so replay
    /// only fails the DAG and drops the dead probe flag.
    pub fn replay_fail(&mut self, task: TaskId, cat: CategoryId) {
        if !self.fail_job(task) {
            return;
        }
        if self.cfg.warmup && !self.learned.contains_key(&cat) {
            self.probing.remove(&cat);
        }
    }

    /// Fail `task`'s job in the DAG and purge the dependents it abandons
    /// from the warm-up holds: they will never run. False when no
    /// workflow job stands behind the task (trace arrivals).
    fn fail_job(&mut self, task: TaskId) -> bool {
        let Some(job) = self.job_for_task.remove(&task) else {
            return false;
        };
        let abandoned = self.dag.fail_job(job);
        if !abandoned.is_empty() {
            for list in self.held.values_mut() {
                list.retain(|j| !abandoned.contains(j));
            }
            self.held.retain(|_, v| !v.is_empty());
        }
        true
    }

    /// Post-replay invariant pass: every category flagged as probing must
    /// have a live probe task in the master. A flag without a probe (its
    /// fate was lost in the outage in a way replay couldn't reconstruct)
    /// would deadlock the category's held jobs forever — promote a held
    /// job as the new probe, or clear the flag when nothing is held.
    /// Promotions are fresh decisions and log normally. Returns the
    /// number of probes promoted.
    pub fn reconcile_probes(
        &mut self,
        now: SimTime,
        master: &mut Master,
        fx: &mut EffectSink<WqEvent>,
    ) -> usize {
        let flagged: Vec<CategoryId> = self.probing.iter().copied().collect();
        let mut promoted = 0;
        for cat in flagged {
            if self.learned.contains_key(&cat) {
                self.probing.remove(&cat);
                continue;
            }
            if master.has_live_task_in_category(cat) {
                continue;
            }
            let next = self
                .held
                .get_mut(&cat)
                .filter(|v| !v.is_empty())
                .map(|v| v.remove(0));
            match next {
                Some(job) => {
                    self.push_job(now, job, cat, master, fx);
                    promoted += 1;
                }
                None => {
                    self.probing.remove(&cat);
                }
            }
        }
        self.held.retain(|_, v| !v.is_empty());
        promoted
    }
}

/// Upgrade the queued waiting tasks of `cat` (e.g. re-queued after a
/// worker kill) to the category's learned requirement.
fn declare_waiting(cat: CategoryId, resources: Resources, master: &mut Master) {
    let waiting: Vec<TaskId> = master
        .view()
        .waiting()
        .filter(|w| w.cat == cat)
        .map(|w| w.id)
        .collect();
    for t in waiting {
        master.declare_resources(t, resources);
    }
}

/// Sample a job's wall time from its category profile: exact when jitter
/// is zero, uniform ±jitter by default, lognormal (median = nominal wall,
/// σ = jitter) when the profile is heavy-tailed.
fn sample_wall(rng: &mut SimRng, sim: &SimProfile) -> Duration {
    if sim.wall_jitter <= 0.0 {
        return sim.wall;
    }
    if sim.heavy_tail {
        let mu = sim.wall.as_secs_f64().max(1e-3).ln();
        let secs = rng.lognormal(mu, sim.wall_jitter);
        Duration::from_secs_f64(secs)
    } else {
        rng.jittered(sim.wall, sim.wall_jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_makeflow::{CategoryProfile, Job, SimProfile, Workflow};
    use hta_workqueue::master::MasterConfig;
    use hta_workqueue::FileCatalog;

    fn parallel_workflow(n: u64, declared: Option<Resources>) -> Workflow {
        let jobs: Vec<Job> = (0..n)
            .map(|i| Job {
                id: JobId(i),
                category: "align".into(),
                command: format!("blast {i}"),
                inputs: vec!["db".into()],
                outputs: vec![format!("out.{i}")],
            })
            .collect();
        let profile = CategoryProfile {
            name: "align".into(),
            declared,
            sim: SimProfile {
                wall: Duration::from_secs(60),
                cpu_fraction: 0.9,
                actual: Resources::cores(1, 2_000, 2_000),
                output_mb: 0.6,
                wall_jitter: 0.0,
                heavy_tail: false,
            },
        };
        Workflow::from_jobs(jobs, vec![profile])
            .unwrap()
            .with_source_file("db", 100.0, true)
    }

    fn master() -> Master {
        Master::new(
            MasterConfig {
                egress_base_mbps: 100.0,
                egress_overhead_per_flow: 0.0,
                peer_transfers: false,
                peer_bandwidth_mbps: 2_000.0,
                faults: Default::default(),
                net: Default::default(),
            },
            FileCatalog::new(),
        )
    }

    fn cat(m: &Master, name: &str) -> CategoryId {
        m.interner().get(name).expect("category interned")
    }

    #[test]
    fn files_are_registered_in_catalog() {
        let mut m = master();
        let wf = parallel_workflow(3, None);
        let op = Operator::new(OperatorConfig::default(), wf, &mut m);
        // db + 3 outputs.
        assert_eq!(m.catalog().len(), 4);
        assert!(
            m.interner().get("align").is_some(),
            "workflow categories are pre-interned"
        );
        assert!(op.known_resources_id(cat(&m, "align")).is_none());
    }

    #[test]
    fn warmup_probes_one_job_per_category() {
        let mut m = master();
        let wf = parallel_workflow(10, None);
        let mut op = Operator::new(OperatorConfig::default(), wf, &mut m);
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert_eq!(op.submitted_count(), 1, "only the probe goes out");
        assert_eq!(op.held_jobs(), vec![(cat(&m, "align"), 9)]);
        assert_eq!(m.waiting_count() + m.running_count(), 1);
    }

    #[test]
    fn probe_completion_releases_held_jobs_with_learned_resources() {
        let mut m = master();
        let wf = parallel_workflow(10, None);
        let mut op = Operator::new(OperatorConfig::default(), wf, &mut m);
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        let measured = Measured {
            peak: Resources::cores(1, 2_000, 2_000),
            wall: Duration::from_secs(58),
        };
        let align = cat(&m, "align");
        op.on_task_completed(
            SimTime::from_secs(60),
            TaskId(0),
            align,
            measured,
            &mut m,
            &mut fx,
        );
        assert_eq!(op.submitted_count(), 10, "probe + 9 released");
        assert!(op.held_jobs().is_empty());
        assert_eq!(
            op.known_resources_id(align),
            Some(Resources::cores(1, 2_000, 2_000))
        );
        // Released tasks carry the learned declaration.
        assert!(m
            .view()
            .waiting()
            .all(|w| w.declared == Some(Resources::cores(1, 2_000, 2_000))));
    }

    #[test]
    fn trust_declared_skips_probing() {
        let mut m = master();
        let wf = parallel_workflow(10, Some(Resources::cores(1, 2_000, 2_000)));
        let mut op = Operator::new(
            OperatorConfig {
                warmup: true,
                trust_declared: true,
                learn: true,
                seed: 1,
            },
            wf,
            &mut m,
        );
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert_eq!(op.submitted_count(), 10, "no probing needed");
        assert!(op.held_jobs().is_empty());
    }

    #[test]
    fn no_warmup_fans_out_everything() {
        let mut m = master();
        let wf = parallel_workflow(10, None);
        let mut op = Operator::new(
            OperatorConfig {
                warmup: false,
                trust_declared: false,
                learn: true,
                seed: 1,
            },
            wf,
            &mut m,
        );
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert_eq!(op.submitted_count(), 10);
    }

    #[test]
    fn requeued_tasks_get_upgraded_once_category_is_learned() {
        // A task re-queued (worker killed) before its category was learned
        // sits in the queue with unknown resources; the first completion
        // of the category must upgrade it in place.
        let mut m = master();
        let wf = parallel_workflow(3, None);
        let mut op = Operator::new(
            OperatorConfig {
                warmup: false,
                trust_declared: false,
                learn: true,
                seed: 1,
            },
            wf,
            &mut m,
        );
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        // All three submitted unknown; none dispatched (no workers), so
        // they are all waiting with declared = None.
        assert!(m.view().waiting().all(|w| w.declared.is_none()));
        // Simulate the category's first measurement arriving: every task
        // still in the queue gets the learned declaration in place.
        let measured = Measured {
            peak: Resources::cores(1, 2_000, 2_000),
            wall: Duration::from_secs(55),
        };
        let align = cat(&m, "align");
        op.on_task_completed(
            SimTime::from_secs(60),
            TaskId(0),
            align,
            measured,
            &mut m,
            &mut fx,
        );
        let upgraded = m
            .view()
            .waiting()
            .filter(|w| w.declared == Some(Resources::cores(1, 2_000, 2_000)))
            .count();
        assert_eq!(upgraded, 3, "all queued align tasks upgraded");
    }

    #[test]
    fn second_category_probes_independently() {
        // Two-stage workflow with distinct categories: after stage a is
        // learned, stage b still probes one job first.
        let jobs = vec![
            Job {
                id: JobId(0),
                category: "a".into(),
                command: "a".into(),
                inputs: vec![],
                outputs: vec!["x".into()],
            },
            Job {
                id: JobId(1),
                category: "b".into(),
                command: "b1".into(),
                inputs: vec!["x".into()],
                outputs: vec!["y1".into()],
            },
            Job {
                id: JobId(2),
                category: "b".into(),
                command: "b2".into(),
                inputs: vec!["x".into()],
                outputs: vec!["y2".into()],
            },
            Job {
                id: JobId(3),
                category: "b".into(),
                command: "b3".into(),
                inputs: vec!["x".into()],
                outputs: vec!["y3".into()],
            },
        ];
        let wf = Workflow::from_jobs(jobs, vec![]).unwrap();
        let mut m = master();
        let mut op = Operator::new(OperatorConfig::default(), wf, &mut m);
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert_eq!(op.submitted_count(), 1, "stage-a probe only");
        let measured = Measured {
            peak: Resources::cores(1, 1_000, 0),
            wall: Duration::from_secs(10),
        };
        let a = cat(&m, "a");
        let b = cat(&m, "b");
        op.on_task_completed(
            SimTime::from_secs(10),
            TaskId(0),
            a,
            measured,
            &mut m,
            &mut fx,
        );
        // Stage b became ready: exactly one b-probe goes out, two held.
        assert_eq!(op.submitted_count(), 2);
        assert_eq!(op.held_jobs(), vec![(b, 2)]);
        op.on_task_completed(
            SimTime::from_secs(20),
            TaskId(1),
            b,
            measured,
            &mut m,
            &mut fx,
        );
        assert_eq!(op.submitted_count(), 4, "held b jobs released");
        assert!(op.held_jobs().is_empty());
    }

    #[test]
    fn failed_probe_promotes_a_new_probe() {
        let mut m = master();
        let wf = parallel_workflow(5, None);
        let mut op = Operator::new(OperatorConfig::default(), wf, &mut m);
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert_eq!(op.submitted_count(), 1, "only the probe goes out");
        let align = cat(&m, "align");
        op.on_task_failed(SimTime::from_secs(30), TaskId(0), align, &mut m, &mut fx);
        // One held job is promoted as the replacement probe; the rest
        // stay held behind it.
        assert_eq!(op.submitted_count(), 2);
        assert_eq!(op.held_jobs(), vec![(align, 3)]);
        assert_eq!(op.failure_counts(), (1, 0));
        assert!(!op.all_complete());
    }

    #[test]
    fn failure_abandons_dependents_and_resolves_workflow() {
        // Chain a → b: a fails permanently, b is abandoned, and the
        // workflow counts as resolved (nothing left to run).
        let jobs = vec![
            Job {
                id: JobId(0),
                category: "a".into(),
                command: "a".into(),
                inputs: vec![],
                outputs: vec!["x".into()],
            },
            Job {
                id: JobId(1),
                category: "b".into(),
                command: "b".into(),
                inputs: vec!["x".into()],
                outputs: vec!["y".into()],
            },
        ];
        let wf = Workflow::from_jobs(jobs, vec![]).unwrap();
        let mut m = master();
        let mut op = Operator::new(
            OperatorConfig {
                warmup: false,
                ..OperatorConfig::default()
            },
            wf,
            &mut m,
        );
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert!(!op.all_complete());
        let a = cat(&m, "a");
        op.on_task_failed(SimTime::from_secs(10), TaskId(0), a, &mut m, &mut fx);
        assert_eq!(op.failure_counts(), (1, 1));
        assert!(op.all_complete(), "failed + abandoned = resolved");
    }

    #[test]
    fn dag_dependencies_gate_submission() {
        // two-stage: 2 stage-a jobs then 1 stage-b job consuming both.
        let jobs = vec![
            Job {
                id: JobId(0),
                category: "a".into(),
                command: "a0".into(),
                inputs: vec![],
                outputs: vec!["x0".into()],
            },
            Job {
                id: JobId(1),
                category: "a".into(),
                command: "a1".into(),
                inputs: vec![],
                outputs: vec!["x1".into()],
            },
            Job {
                id: JobId(2),
                category: "b".into(),
                command: "b".into(),
                inputs: vec!["x0".into(), "x1".into()],
                outputs: vec!["y".into()],
            },
        ];
        let wf = Workflow::from_jobs(jobs, vec![]).unwrap();
        let mut m = master();
        let mut op = Operator::new(
            OperatorConfig {
                warmup: false,
                ..OperatorConfig::default()
            },
            wf,
            &mut m,
        );
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert_eq!(op.submitted_count(), 2, "stage-b blocked");
        let measured = Measured {
            peak: Resources::cores(1, 0, 0),
            wall: Duration::from_secs(10),
        };
        let a = cat(&m, "a");
        let b = cat(&m, "b");
        op.on_task_completed(
            SimTime::from_secs(10),
            TaskId(0),
            a,
            measured,
            &mut m,
            &mut fx,
        );
        assert_eq!(op.submitted_count(), 2, "one dependency still missing");
        op.on_task_completed(
            SimTime::from_secs(12),
            TaskId(1),
            a,
            measured,
            &mut m,
            &mut fx,
        );
        assert_eq!(op.submitted_count(), 3, "stage-b released");
        assert!(!op.all_complete());
        op.on_task_completed(
            SimTime::from_secs(30),
            TaskId(2),
            b,
            measured,
            &mut m,
            &mut fx,
        );
        assert!(op.all_complete());
    }

    #[test]
    fn wal_recording_off_logs_nothing() {
        let mut m = master();
        let wf = parallel_workflow(5, None);
        let mut op = Operator::new(OperatorConfig::default(), wf, &mut m);
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert!(op.drain_wal_records().is_empty());
    }

    #[test]
    fn wal_replay_reconstructs_control_plane_decisions() {
        let mut m = master();
        let wf = parallel_workflow(5, None);
        let mut op = Operator::new(OperatorConfig::default(), wf, &mut m);
        op.record_wal(true);
        // Checkpoint #0: pristine clones before any submission.
        let cp_op = op.clone();
        let cp_m = m.clone();
        let mut fx = EffectSink::new();
        // Live timeline, with WAL collection ordered the way the driver
        // orders it: terminal acknowledgements are logged *before* the
        // handler runs, the handler's own decisions right after.
        let mut wal: Vec<WalRecord> = Vec::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        wal.extend(op.drain_wal_records());
        assert_eq!(wal.len(), 1, "only the probe was submitted");
        let measured = Measured {
            peak: Resources::cores(1, 2_000, 2_000),
            wall: Duration::from_secs(58),
        };
        let align = cat(&m, "align");
        wal.push(WalRecord::Complete { task: TaskId(0) });
        // In a full run the master completes the task before notifying the
        // operator; there are no workers here, so apply the exit directly
        // to keep the live master consistent.
        m.recover_complete(TaskId(0));
        op.on_task_completed(
            SimTime::from_secs(60),
            TaskId(0),
            align,
            measured,
            &mut m,
            &mut fx,
        );
        wal.extend(op.drain_wal_records());
        // Probe + Complete + Learn + 4 released submissions.
        assert_eq!(wal.len(), 7);
        // Crash: restore the checkpoint and replay the log.
        let (mut rm, mut rop) = (cp_m, cp_op);
        let t = SimTime::from_secs(90);
        assert_eq!(rm.recover_reset_data_plane(t), 0, "nothing was in flight");
        let mut rfx = EffectSink::new();
        for rec in &wal {
            match rec {
                WalRecord::Submit { job, spec } => {
                    rop.replay_submit(t, *job, (**spec).clone(), &mut rm, &mut rfx)
                }
                WalRecord::Learn { cat, resources } => rop.replay_learn(*cat, *resources, &mut rm),
                WalRecord::Complete { task } => {
                    rm.recover_complete(*task);
                    rop.replay_complete(*task);
                }
                WalRecord::Fail { task } => {
                    let c = rm.task(*task).unwrap().cat();
                    rm.recover_failed(*task);
                    rop.replay_fail(*task, c);
                }
                WalRecord::TraceSubmit { .. } => unreachable!("a workflow admits no arrival"),
            }
        }
        rop.reconcile_probes(t, &mut rm, &mut rfx);
        assert_eq!(rop.submitted_count(), op.submitted_count());
        assert_eq!(rop.held_jobs(), op.held_jobs());
        assert_eq!(
            rop.known_resources_id(cat(&rm, "align")),
            op.known_resources_id(cat(&m, "align"))
        );
        assert_eq!(rm.completed_count(), m.completed_count());
        assert_eq!(rm.completed_digest(), m.completed_digest());
        assert_eq!(rm.waiting_count(), m.waiting_count());
        // The job map holds exactly the tasks still in the master.
        let live = |m: &Master| m.task_records().map(|r| r.id()).collect::<Vec<_>>();
        assert_eq!(live(&rm), (1..5).map(TaskId).collect::<Vec<_>>());
        assert!(rop.job_for_task.keys().copied().eq(live(&rm)));
        assert!(op.job_for_task.keys().copied().eq(live(&m)));
        // Released submissions carry the learned declaration (embedded in
        // the recorded specs), exactly like the live queue.
        assert!(rm
            .view()
            .waiting()
            .all(|w| w.declared == Some(Resources::cores(1, 2_000, 2_000))));
        // Fresh decisions after recovery keep the task-id sequence intact:
        // no replayed id is ever reissued.
        assert!(!rop.all_complete());
    }

    #[test]
    fn reconcile_probes_promotes_orphaned_hold() {
        // A probing flag with no live probe and jobs still held would
        // deadlock the category: reconciliation must promote a new probe.
        let mut m = master();
        let wf = parallel_workflow(4, None);
        let mut op = Operator::new(OperatorConfig::default(), wf, &mut m);
        let mut fx = EffectSink::new();
        op.submit_ready(SimTime::ZERO, &mut m, &mut fx);
        assert_eq!(op.submitted_count(), 1);
        // Lose the probe without any record of its fate (simulates an
        // acknowledgement lost in the outage): force-complete it in the
        // master only.
        m.recover_complete(TaskId(0));
        let promoted = op.reconcile_probes(SimTime::from_secs(20), &mut m, &mut fx);
        assert_eq!(promoted, 1, "one held job became the new probe");
        assert_eq!(op.submitted_count(), 2);
        let align = cat(&m, "align");
        assert_eq!(op.held_jobs(), vec![(align, 2)]);
    }
}
