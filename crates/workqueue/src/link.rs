//! Fluid fair-share model of the master's egress link.
//!
//! All task input/output transfers share the Work Queue master's uplink.
//! The model is the classic fluid-flow approximation: at any instant the
//! `n` active flows split the link's *effective* aggregate capacity
//! equally. Effective capacity degrades mildly with concurrency,
//!
//! ```text
//! aggregate(n) = base / (1 + overhead × (n − 1))
//! ```
//!
//! calibrated against the paper's Fig. 4 bandwidth measurements: ~15
//! concurrent 1-core workers pulling the BLAST database sustained
//! 278 MB/s aggregate while 5 node-sized workers sustained 452–466 MB/s.
//! With `base = 600 MB/s`, `overhead = 0.083` the model reproduces both
//! (this is TCP contention/stream overhead, not physical line rate).
//!
//! Whenever the flow set changes, previously predicted completion times
//! become stale; the link keeps a **generation counter** and the master
//! tags its wake-up events with it, discarding stale ones.

use std::collections::BTreeMap;

use hta_des::{Duration, SimTime};

use crate::ids::FlowId;

/// Residual MB below which a flow counts as complete (covers millisecond
/// rounding of completion events).
const COMPLETE_EPS_MB: f64 = 1e-6;

/// The shared link.
#[derive(Debug, Clone)]
pub struct FairShareLink {
    base_capacity_mbps: f64,
    overhead_per_flow: f64,
    flows: BTreeMap<FlowId, f64>,
    last_advance: SimTime,
    generation: u64,
}

impl FairShareLink {
    /// A link with the given base capacity (MB/s) and per-flow
    /// concurrency-overhead coefficient.
    pub fn new(base_capacity_mbps: f64, overhead_per_flow: f64) -> Self {
        FairShareLink {
            base_capacity_mbps: base_capacity_mbps.max(1e-9),
            overhead_per_flow: overhead_per_flow.max(0.0),
            flows: BTreeMap::new(),
            last_advance: SimTime::ZERO,
            generation: 0,
        }
    }

    /// The paper-calibrated master uplink (Fig. 4).
    pub fn paper_calibrated() -> Self {
        FairShareLink::new(600.0, 0.083)
    }

    /// Current generation; events tagged with an older generation are
    /// stale and must be ignored.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Effective aggregate throughput at a given concurrency.
    pub fn aggregate_mbps(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.base_capacity_mbps / (1.0 + self.overhead_per_flow * (n as f64 - 1.0))
    }

    /// Instantaneous aggregate throughput right now.
    pub fn current_throughput_mbps(&self) -> f64 {
        self.aggregate_mbps(self.flows.len())
    }

    /// Per-flow rate right now.
    fn per_flow_rate(&self) -> f64 {
        let n = self.flows.len();
        if n == 0 {
            0.0
        } else {
            self.aggregate_mbps(n) / n as f64
        }
    }

    /// Advance the fluid model to `now`, draining every flow by the
    /// per-flow rate × elapsed time.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt <= 0.0 || self.flows.is_empty() {
            return;
        }
        let drained = self.per_flow_rate() * dt;
        for remaining in self.flows.values_mut() {
            *remaining = (*remaining - drained).max(0.0);
        }
    }

    /// Start a flow of `mb` megabytes. Call [`FairShareLink::advance`] to
    /// `now` first. Zero-sized flows complete immediately (they never
    /// enter the flow set). Returns the new generation.
    pub fn add_flow(&mut self, now: SimTime, id: FlowId, mb: f64) -> u64 {
        debug_assert!(now == self.last_advance, "advance() before add_flow()");
        if mb > COMPLETE_EPS_MB {
            self.flows.insert(id, mb);
        } else {
            self.flows.insert(id, 0.0);
        }
        self.generation += 1;
        self.generation
    }

    /// Cancel a flow (worker killed mid-transfer). Returns the new
    /// generation, or the current one if the flow was unknown.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> u64 {
        self.advance(now);
        if self.flows.remove(&id).is_some() {
            self.generation += 1;
        }
        self.generation
    }

    /// Remove every flow whose residual is (numerically) zero, appending
    /// their ids to `done` in ascending order. Bumps the generation when
    /// any complete. The caller owns `done`, so a recycled buffer makes
    /// the per-wake path allocation-free.
    pub fn take_completed(&mut self, done: &mut Vec<FlowId>) {
        let before = done.len();
        self.flows.retain(|id, r| {
            let complete = *r <= COMPLETE_EPS_MB;
            if complete {
                done.push(*id);
            }
            !complete
        });
        if done.len() > before {
            self.generation += 1;
        }
    }

    /// Delay (from the last advance point) until the next flow completes.
    /// Rounded *up* to the next millisecond plus one, so by the time the
    /// wake-up fires the flow has fully drained.
    pub fn next_completion_delay(&self) -> Option<Duration> {
        let rate = self.per_flow_rate();
        if rate <= 0.0 {
            return None;
        }
        let min_rem = self.flows.values().copied().fold(f64::INFINITY, f64::min);
        if !min_rem.is_finite() {
            return None;
        }
        let secs = min_rem / rate;
        Some(Duration::from_millis((secs * 1000.0).ceil() as u64 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Remaining MB of one flow.
    fn remaining_mb(link: &FairShareLink, id: FlowId) -> Option<f64> {
        link.flows.get(&id).copied()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn completed(link: &mut FairShareLink) -> Vec<FlowId> {
        let mut done = Vec::new();
        link.take_completed(&mut done);
        done
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut link = FairShareLink::new(100.0, 0.0);
        link.advance(t(0));
        link.add_flow(t(0), FlowId(1), 1000.0); // 10 s at 100 MB/s
        let d = link.next_completion_delay().unwrap();
        assert!((d.as_secs_f64() - 10.0).abs() < 0.01, "{d:?}");
        link.advance(t(0) + d);
        assert_eq!(completed(&mut link), vec![FlowId(1)]);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn fair_sharing_halves_rates() {
        let mut link = FairShareLink::new(100.0, 0.0);
        link.advance(t(0));
        link.add_flow(t(0), FlowId(1), 100.0);
        link.add_flow(t(0), FlowId(2), 100.0);
        // Each flow gets 50 MB/s → 2 s to move 100 MB.
        link.advance(t(1000));
        assert!((remaining_mb(&link, FlowId(1)).unwrap() - 50.0).abs() < 1e-6);
        assert!((remaining_mb(&link, FlowId(2)).unwrap() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn late_joiner_shares_fairly_from_arrival() {
        let mut link = FairShareLink::new(100.0, 0.0);
        link.advance(t(0));
        link.add_flow(t(0), FlowId(1), 100.0);
        // 1 s alone: 100 MB/s → 0 remaining at t=1s? No: flow is 100MB so
        // drain half (0.5 s) then add a second flow.
        link.advance(t(500));
        assert!((remaining_mb(&link, FlowId(1)).unwrap() - 50.0).abs() < 1e-6);
        link.add_flow(t(500), FlowId(2), 50.0);
        // Both now drain at 50 MB/s; flow1 (50MB) and flow2 (50MB) finish
        // together 1 s later.
        link.advance(t(1500));
        let done = completed(&mut link);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn overhead_degrades_aggregate() {
        let link = FairShareLink::paper_calibrated();
        let agg5 = link.aggregate_mbps(5);
        let agg15 = link.aggregate_mbps(15);
        // Fig. 4 calibration: ≈452 MB/s at 5 flows, ≈278 MB/s at 15.
        assert!((agg5 - 450.0).abs() < 15.0, "agg5={agg5}");
        assert!((agg15 - 278.0).abs() < 15.0, "agg15={agg15}");
        assert_eq!(link.aggregate_mbps(0), 0.0);
    }

    #[test]
    fn bytes_are_conserved_across_advances() {
        let mut link = FairShareLink::new(100.0, 0.05);
        link.advance(t(0));
        link.add_flow(t(0), FlowId(1), 123.0);
        link.add_flow(t(0), FlowId(2), 77.0);
        let total_before: f64 = [FlowId(1), FlowId(2)]
            .iter()
            .filter_map(|f| remaining_mb(&link, *f))
            .sum();
        // Advance in odd small steps; drained amounts must sum correctly.
        let mut now = 0u64;
        let mut drained_total = 0.0;
        for step in [13u64, 7, 29, 3, 41] {
            let before: f64 = [FlowId(1), FlowId(2)]
                .iter()
                .filter_map(|f| remaining_mb(&link, *f))
                .sum();
            now += step;
            link.advance(t(now));
            let after: f64 = [FlowId(1), FlowId(2)]
                .iter()
                .filter_map(|f| remaining_mb(&link, *f))
                .sum();
            drained_total += before - after;
        }
        let rate = link.aggregate_mbps(2); // constant flow count
        let expected = rate * (now as f64 / 1000.0);
        assert!(
            (drained_total - expected).abs() < 1e-6,
            "drained {drained_total} expected {expected}"
        );
        assert!(drained_total < total_before);
    }

    #[test]
    fn cancel_flow_bumps_generation() {
        let mut link = FairShareLink::new(100.0, 0.0);
        link.advance(t(0));
        let g1 = link.add_flow(t(0), FlowId(1), 50.0);
        let g2 = link.cancel_flow(t(10), FlowId(1));
        assert!(g2 > g1);
        let g3 = link.cancel_flow(t(10), FlowId(1));
        assert_eq!(g3, g2, "cancelling unknown flow keeps generation");
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn zero_sized_flow_completes_immediately() {
        let mut link = FairShareLink::new(100.0, 0.0);
        link.advance(t(0));
        link.add_flow(t(0), FlowId(1), 0.0);
        assert_eq!(completed(&mut link), vec![FlowId(1)]);
    }

    #[test]
    fn completion_delay_rounds_up() {
        let mut link = FairShareLink::new(3.0, 0.0);
        link.advance(t(0));
        link.add_flow(t(0), FlowId(1), 1.0); // 333.33 ms
        let d = link.next_completion_delay().unwrap();
        assert!(d.as_millis() >= 334);
        link.advance(t(0) + d);
        assert_eq!(completed(&mut link), vec![FlowId(1)]);
    }

    #[test]
    fn idle_link_reports_zero_throughput() {
        let link = FairShareLink::new(100.0, 0.0);
        assert_eq!(link.current_throughput_mbps(), 0.0);
        assert_eq!(link.next_completion_delay(), None);
    }

    proptest! {
        /// Advancing in many small steps drains exactly as much as one big
        /// step while the flow set is unchanged.
        #[test]
        fn advance_is_step_invariant(
            mb in 10.0f64..1000.0,
            steps in proptest::collection::vec(1u64..500, 1..50),
        ) {
            let total_ms: u64 = steps.iter().sum();
            // Path A: single advance.
            let mut a = FairShareLink::new(100.0, 0.0);
            a.advance(SimTime::ZERO);
            a.add_flow(SimTime::ZERO, FlowId(0), mb);
            a.advance(SimTime::from_millis(total_ms));
            // Path B: stepwise advances.
            let mut b = FairShareLink::new(100.0, 0.0);
            b.advance(SimTime::ZERO);
            b.add_flow(SimTime::ZERO, FlowId(0), mb);
            let mut now = 0;
            for s in steps {
                now += s;
                b.advance(SimTime::from_millis(now));
            }
            let ra = remaining_mb(&a, FlowId(0)).unwrap_or(0.0);
            let rb = remaining_mb(&b, FlowId(0)).unwrap_or(0.0);
            prop_assert!((ra - rb).abs() < 1e-6, "ra={ra} rb={rb}");
        }
    }
}
