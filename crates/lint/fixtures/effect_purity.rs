//! Lint fixture: effect-purity — a handler holding an `&mut
//! EffectSink` owns exactly one effect channel. Scanned by
//! `tests/fixtures.rs` under a `crates/des/src/` path (the rule is
//! scoped to the des/core/workqueue source trees). Never compiled.

struct Machine;

impl Machine {
    // Positive: sink plus an event queue parameter — two channels.
    fn dual(&mut self, fx: &mut EffectSink<Ev>, queue: &mut EventQueue<Ev>) {
        let _ = (fx, queue);
    }

    // Positive: sink plus a returned effect list — two channels.
    fn listy(&mut self, fx: &mut EffectSink<Ev>) -> Vec<(Duration, Ev)> {
        let _ = fx;
        Vec::new()
    }

    // Positive: sink held, but the body schedules directly.
    fn sneaky(&mut self, fx: &mut EffectSink<Ev>, world: &mut World) {
        world.queue.schedule_in(Duration::ZERO, Ev::Tick);
        let _ = fx;
    }

    // Negative: every effect routed through the sink.
    fn pure(&mut self, fx: &mut EffectSink<Ev>) {
        fx.push(Duration::ZERO, Ev::Tick);
    }

    // Negative: no sink in scope — free use of the queue is the
    // caller's business, not this rule's.
    fn driver(&mut self, queue: &mut EventQueue<Ev>) {
        queue.schedule_in(Duration::ZERO, Ev::Tick);
    }
}
