//! Property: a live task's record gives back, through [`Master::spec`],
//! exactly the spec it was built from — floats bit for bit — after
//! submission, a redeclaration, OOM escalation, a re-queue, and across a
//! checkpoint's restore and the replay of the submissions logged after
//! it.

use proptest::prelude::*;

use super::testkit::*;

/// A spec's bit-exact image: its floats by their bits.
type Image = (
    TaskId,
    CategoryId,
    Vec<FileId>,
    u64,
    Option<Resources>,
    Resources,
    Duration,
    u64,
);

fn image(s: &TaskSpec) -> Image {
    (
        s.id,
        s.cat,
        s.inputs.clone(),
        s.output_mb.to_bits(),
        s.declared,
        s.actual,
        s.exec.duration,
        s.exec.cpu_fraction.to_bits(),
    )
}

/// A float a producer might fill: zero of either sign, a short decimal,
/// or a long mantissa.
fn float(pick: u8, noise: f64) -> f64 {
    match pick % 4 {
        0 => 0.0,
        1 => -0.0,
        2 => 0.6,
        _ => noise,
    }
}

/// One category-level shape: `(output pick, output noise, memory MB,
/// CPU-fraction pick, CPU-fraction noise)`.
type RawShape = (u8, f64, i64, u8, f64);

/// One task: `(category, shape within it, declared pick, inputs,
/// wall ms)`.
type RawTask = (u8, u8, u8, u8, u64);

/// Two categories of three shapes each; every task picks one.
fn specs(shapes: &[RawShape], tasks: &[RawTask], first_id: u64, files: &[FileId]) -> Vec<TaskSpec> {
    tasks
        .iter()
        .zip(first_id..)
        .map(|(&(cat, k, decl, n_inputs, wall_ms), id)| {
            let cat = cat % 2;
            let (out_pick, out_noise, mem, cpu_pick, cpu_noise) =
                shapes[usize::from(cat * 3 + k % 3)];
            TaskSpec {
                id: TaskId(id),
                cat: CategoryId::from_u32(u32::from(cat)),
                inputs: files[..usize::from(n_inputs % 4)].to_vec(),
                output_mb: float(out_pick, out_noise * 10.0),
                declared: (decl % 3 != 0).then(|| {
                    Resources::cores(i64::from(decl % 2) + 1, 1_000 * i64::from(decl), 500)
                }),
                actual: Resources::cores(1, mem, 1_000),
                exec: ExecModel {
                    duration: Duration::from_millis(wall_ms),
                    cpu_fraction: float(cpu_pick, cpu_noise),
                },
            }
        })
        .collect()
}

/// Every live task's reassembled spec equals the model's, and the model
/// holds no task the master lacks.
fn check(m: &Master, model: &BTreeMap<TaskId, TaskSpec>, when: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        m.task_records().count(),
        model.len(),
        "{}: live tasks",
        when
    );
    for (id, want) in model {
        let got = m.spec(*id).map(|s| image(&s));
        prop_assert_eq!(got, Some(image(want)), "{}: {:?}", when, id);
    }
    Ok(())
}

/// The memory an OOM retry escalates `declared` to on a master whose
/// largest worker has `cap` MB at escalation factor 1.5.
fn escalated(declared: Resources, cap: i64) -> Resources {
    let mem = ((declared.memory_mb as f64 * 1.5).ceil() as i64).min(cap);
    Resources::new(
        declared.millicores,
        mem.max(declared.memory_mb),
        declared.disk_mb,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_record_gives_back_its_spec(
        shapes in proptest::collection::vec(
            // Few memory sizes, so two shapes of one category often
            // differ only in a float's sign or last bits.
            (any::<u8>(), 0.0..1.0f64, 1_000i64..1_002, any::<u8>(), 0.0..1.0f64),
            6..7,
        ),
        early in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), 1u64..200_000),
            1..24,
        ),
        late in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), 1u64..200_000),
            1..12,
        ),
    ) {
        let mut catalog = FileCatalog::new();
        let files: Vec<FileId> = (0..3)
            .map(|i| catalog.register(format!("in-{i}"), 5.0, i % 2 == 0))
            .collect();
        let faults = TaskFaults {
            oom_rate: 1.0,
            // No task fails for good (and leaves) within the run.
            max_retries: 1_000,
            oom_escalation: 1.5,
            ..TaskFaults::default()
        };
        let mut m = new_master(faulty_cfg(faults), catalog);
        assert_eq!(m.intern_category("blast"), CategoryId::from_u32(1));
        let mut fx = EffectSink::new();
        let mut model = BTreeMap::new();

        // Submission, then a redeclaration of every third waiting task.
        for spec in specs(&shapes, &early, 0, &files) {
            model.insert(spec.id, spec.clone());
            m.submit(SimTime::ZERO, spec, &mut fx);
        }
        check(&m, &model, "after submit")?;
        let raised = Resources::cores(1, 1_500, 700);
        for spec in model.values_mut().step_by(3) {
            m.declare_resources(spec.id, raised);
            spec.declared = Some(raised);
        }
        check(&m, &model, "after declare_resources")?;

        // A checkpoint; the submissions after it are logged.
        let cp = Checkpoint::take(m.clone(), SimTime::ZERO);
        let at_checkpoint = model.clone();
        let log = specs(&shapes, &late, early.len() as u64, &files);
        for spec in &log {
            model.insert(spec.id, spec.clone());
            m.submit(SimTime::ZERO, spec.clone(), &mut fx);
        }
        check(&m, &model, "after the logged submissions")?;

        // Every attempt is OOM-killed: a declared task's retry escalates
        // its memory. Checked after every event.
        let cap = 16_000;
        let mut q = Queue::new();
        let w = m.worker_connect(SimTime::ZERO, Resources::cores(4, cap, 50_000), &mut fx);
        sched(&mut q, &mut fx);
        let mut retries: BTreeMap<TaskId, u32> = model.keys().map(|id| (*id, 0)).collect();
        for _ in 0..300 {
            let Some((now, ev)) = q.pop() else { break };
            m.handle(now, ev, &mut fx);
            sched(&mut q, &mut fx);
            for (id, seen) in &mut retries {
                let now_retries = m.task(*id).expect("no task leaves").retries();
                let spec = model.get_mut(id).expect("modelled");
                for _ in *seen..now_retries {
                    spec.declared = spec.declared.map(|d| escalated(d, cap));
                }
                *seen = now_retries;
            }
            check(&m, &model, "after an event")?;
        }
        prop_assert!(
            retries.values().any(|r| *r > 0),
            "some attempt was OOM-killed"
        );

        // A killed worker re-queues its tasks; their specs stay.
        m.kill_worker(q.now(), w, &mut fx);
        prop_assert_eq!(m.running_count(), 0);
        check(&m, &model, "after a re-queue")?;

        // The checkpoint restores its own specs, and replaying the log
        // rebuilds the later ones.
        let mut restored = cp.restore();
        let mut expect = at_checkpoint;
        check(&restored, &expect, "restored")?;
        let now = q.now();
        prop_assert_eq!(restored.recover_reset_data_plane(now), 0);
        for spec in log {
            expect.insert(spec.id, spec.clone());
            restored.submit(now, spec, &mut fx);
        }
        check(&restored, &expect, "after WAL replay")?;
    }
}
