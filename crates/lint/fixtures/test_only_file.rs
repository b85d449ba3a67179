//! Lint fixture: a test-only module kept in its own file
//! (`#[cfg(test)] mod testkit;`). The inner attribute below makes the
//! whole file a test region, so its drivers — which hold both an
//! effect sink and an event queue, an `effect-purity` finding in
//! production code — must scan clean. Never compiled.

#![cfg(test)]

use super::*;

pub(super) fn drive(m: &mut Machine, fx: &mut EffectSink<Ev>, queue: &mut EventQueue<Ev>) {
    m.step(fx);
    for (d, e) in fx.drain() {
        queue.schedule_in(d, e);
    }
}

pub(super) fn settle(m: &mut Machine, fx: &mut EffectSink<Ev>) -> Vec<(Duration, Ev)> {
    m.step(fx);
    fx.drain().collect()
}
