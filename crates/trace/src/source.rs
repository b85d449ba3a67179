//! The driver-facing open-loop arrival source.
//!
//! [`ArrivalSource`] wraps a concrete trace generator behind a bounded
//! lookahead buffer: the driver peeks the next arrival instant to arm
//! its wake-up event, then pops every arrival that is due. The buffer
//! holds at most [`LOOKAHEAD`] pre-drawn events, so memory stays O(1) in
//! the trace length while the event loop never touches the generator
//! more than once per refill.
//!
//! The whole source — generator cursor, RNG streams, buffered events,
//! counters — is plain owned data (`Clone`), so a control-plane
//! checkpoint captures the exact trace cursor and WAL replay never
//! re-draws an arrival that was already submitted.

use std::collections::VecDeque;

use hta_des::{Salt, SimTime, SnapshotState};
use hta_workqueue::TaskSpec;
use serde::{Deserialize, Serialize};

use crate::azure::AzureTrace;
use crate::synth::{CategorySpec, SynthTrace};

/// Cap on pre-drawn arrivals buffered ahead of the simulation clock.
pub const LOOKAHEAD: usize = 64;

/// A concrete trace generator.
#[derive(Debug, Clone)]
pub enum TraceKind {
    /// Seeded synthetic generator (boxed: its regime/category state
    /// dwarfs the Azure variant).
    Synth(Box<SynthTrace>),
    /// Azure-Functions-style CSV replay.
    Azure(AzureTrace),
}

impl TraceKind {
    fn next_arrival(&mut self) -> Option<(SimTime, TaskSpec)> {
        match self {
            TraceKind::Synth(t) => t.next_arrival(),
            TraceKind::Azure(t) => t.next_arrival(),
        }
    }

    fn total_tasks(&self) -> u64 {
        match self {
            TraceKind::Synth(t) => t.total_tasks(),
            TraceKind::Azure(t) => t.total_tasks(),
        }
    }

    fn reseed(&mut self, salt: Salt) {
        match self {
            TraceKind::Synth(t) => t.reseed(salt),
            TraceKind::Azure(t) => t.reseed(salt),
        }
    }
}

/// Summary of an arrival stream for run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalStats {
    /// Human-readable source label (e.g. `synth:blast-1m`).
    pub label: String,
    /// Tasks the trace will emit in total.
    pub total_tasks: u64,
    /// Tasks handed to the control plane so far.
    pub submitted: u64,
    /// First arrival instant (seconds), once one was emitted.
    pub first_arrival_s: Option<f64>,
    /// Latest arrival instant (seconds) emitted so far.
    pub last_arrival_s: Option<f64>,
    /// True when the generator and the lookahead buffer are both drained.
    pub exhausted: bool,
}

/// The open-loop arrival source the driver pumps.
#[derive(Debug, Clone)]
pub struct ArrivalSource {
    label: String,
    trace: TraceKind,
    /// Bounded pre-drawn arrivals, time-ordered.
    lookahead: VecDeque<(SimTime, TaskSpec)>,
    /// True once the generator returned `None`.
    generator_done: bool,
    /// Tasks handed out (by pop or replay).
    submitted: u64,
    first_arrival: Option<SimTime>,
    last_arrival: Option<SimTime>,
}

impl ArrivalSource {
    /// Wrap a generator with a fresh lookahead buffer.
    pub fn new(label: impl Into<String>, trace: TraceKind) -> Self {
        ArrivalSource {
            label: label.into(),
            trace,
            lookahead: VecDeque::new(),
            generator_done: false,
            submitted: 0,
            first_arrival: None,
            last_arrival: None,
        }
    }

    /// Build a synthetic source from a `<preset>[,knob=value]*` spec.
    pub fn synth(spec: &str, seed: u64) -> Result<Self, String> {
        let cfg = crate::synth::parse_synth_spec(spec)?;
        let trace = SynthTrace::new(cfg, seed)?;
        Ok(ArrivalSource::new(
            format!("synth:{spec}"),
            TraceKind::Synth(Box::new(trace)),
        ))
    }

    /// Build an Azure-style source from CSV text (the caller reads the
    /// file; this crate stays I/O-free).
    pub fn azure_csv(label: impl Into<String>, text: &str, seed: u64) -> Result<Self, String> {
        let cfg = crate::azure::parse_csv(text)?;
        Ok(ArrivalSource::new(
            label,
            TraceKind::Azure(AzureTrace::new(cfg, seed)),
        ))
    }

    /// The category table: entry `i` names `CategoryId` `i` in every spec
    /// this source emits. `SystemDriver::new_traced` interns it in order.
    pub fn categories(&self) -> impl Iterator<Item = &str> {
        let (mix, functions): (&[CategorySpec], &[String]) = match &self.trace {
            TraceKind::Synth(t) => (&t.config().categories, &[]),
            TraceKind::Azure(t) => (&[], t.functions()),
        };
        let mix = mix.iter().map(|c| c.name.as_str());
        mix.chain(functions.iter().map(String::as_str))
    }

    fn refill(&mut self) {
        while !self.generator_done && self.lookahead.len() < LOOKAHEAD {
            match self.trace.next_arrival() {
                Some(ev) => self.lookahead.push_back(ev),
                None => self.generator_done = true,
            }
        }
    }

    /// Arrival instant of the next event, if any (refills the buffer).
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.refill();
        self.lookahead.front().map(|(at, _)| *at)
    }

    /// Pop the next arrival if it is due at `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<TaskSpec> {
        self.refill();
        match self.lookahead.front() {
            Some((at, _)) if *at <= now => {}
            _ => return None,
        }
        let (at, spec) = self.lookahead.pop_front().expect("peeked above");
        self.note_emitted(at);
        Some(spec)
    }

    /// Pop the next arrival unconditionally — WAL replay advancing the
    /// restored cursor over already-logged submissions.
    pub fn replay_next(&mut self) -> Option<(SimTime, TaskSpec)> {
        self.refill();
        let (at, spec) = self.lookahead.pop_front()?;
        self.note_emitted(at);
        Some((at, spec))
    }

    fn note_emitted(&mut self, at: SimTime) {
        self.submitted += 1;
        if self.first_arrival.is_none() {
            self.first_arrival = Some(at);
        }
        self.last_arrival = Some(at);
    }

    /// True when no arrival will ever be produced again.
    pub fn exhausted(&mut self) -> bool {
        self.refill();
        self.generator_done && self.lookahead.is_empty()
    }

    /// Tasks handed to the control plane so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Source label (e.g. `synth:trace-50k`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Snapshot of the stream counters for run reports.
    pub fn stats(&self) -> ArrivalStats {
        ArrivalStats {
            label: self.label.clone(),
            total_tasks: self.trace.total_tasks(),
            submitted: self.submitted,
            first_arrival_s: self.first_arrival.map(SimTime::as_secs_f64),
            last_arrival_s: self.last_arrival.map(SimTime::as_secs_f64),
            exhausted: self.generator_done && self.lookahead.is_empty(),
        }
    }
}

impl SnapshotState for ArrivalSource {
    /// Re-partition the generator's streams. Events already in the
    /// lookahead buffer were drawn before the fork and stay as-is (they
    /// are the branch's committed near future); divergence starts once
    /// the buffer refills.
    fn reseed(&mut self, salt: Salt) {
        let [trace] = salt.streams();
        self.trace.reseed(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source() -> ArrivalSource {
        ArrivalSource::synth("demo-1k,tasks=300", 9).expect("valid spec")
    }

    #[test]
    fn pop_due_respects_arrival_times() {
        let mut s = source();
        let t0 = s.peek_next_time().expect("has arrivals");
        assert!(s.pop_due(SimTime::ZERO).is_none() || t0 == SimTime::ZERO);
        let spec = s.pop_due(t0).expect("due now");
        assert_eq!(spec.id.raw(), 0);
        assert_eq!(s.submitted(), 1);
    }

    #[test]
    fn drains_exactly_total_tasks() {
        let mut s = source();
        let mut n = 0u64;
        while let Some((_, _)) = s.replay_next() {
            n += 1;
        }
        assert_eq!(n, 300);
        assert!(s.exhausted());
        let st = s.stats();
        assert_eq!(st.submitted, 300);
        assert!(st.exhausted);
        assert!(st.first_arrival_s.unwrap() <= st.last_arrival_s.unwrap());
    }

    /// The lookahead's `(length, capacity)` when `spec` is built and its
    /// high-water mark over a full drain, read after every refill.
    fn buffered(spec: &str) -> [(usize, usize); 2] {
        let mut s = ArrivalSource::synth(spec, 42).expect("valid spec");
        let built = (s.lookahead.len(), s.lookahead.capacity());
        let mut high = built;
        while let Some(t) = s.peek_next_time() {
            high.0 = high.0.max(s.lookahead.len());
            high.1 = high.1.max(s.lookahead.capacity());
            s.pop_due(t);
        }
        assert!(s.exhausted());
        [built, high]
    }

    #[test]
    fn lookahead_buffer_stays_bounded() {
        // Twice the tasks, the same buffer: memory follows the in-flight
        // window, never the trace length.
        let base = buffered("trace-50k");
        assert_eq!(base, buffered("trace-50k,tasks=100000"));
        assert_eq!(base[1].0, LOOKAHEAD, "the window fills");
    }

    #[test]
    fn salt_zero_fork_replays_parent_stream() {
        let mut parent = source();
        // Consume a prefix so the fork happens mid-trace.
        for _ in 0..50 {
            let _ = parent.replay_next();
        }
        let mut replay = parent.fork(0);
        let mut branch = parent.fork(13);
        let mut diverged = false;
        for _ in 0..200 {
            let p = parent.replay_next();
            assert_eq!(p, replay.replay_next(), "salt-0 fork must replay");
            if p != branch.replay_next() {
                diverged = true;
            }
        }
        assert!(diverged, "non-zero salt must eventually diverge");
    }
}
