//! A sampled step-function time series.
//!
//! Samples are `(t_seconds, value)` pairs appended in non-decreasing time
//! order. Between samples the series holds its last value (step semantics),
//! which matches the modeled quantities: cluster supply, resources in use
//! and queue lengths change only at discrete events, and the paper's
//! accumulated waste/shortage metrics are the step integrals of those
//! signals over the run.

use serde::{Deserialize, Serialize};

/// A named step-function series of `(time_s, value)` samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Display name (used by CSV headers and chart legends).
    pub name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Append a sample. Panics (debug) if time goes backwards; out-of-order
    /// samples in release builds are clamped to the last time.
    pub fn push(&mut self, time_s: f64, value: f64) {
        debug_assert!(
            self.times.last().is_none_or(|&t| time_s >= t),
            "series {} sampled backwards in time: {} after {:?}",
            self.name,
            time_s,
            self.times.last()
        );
        let t = self.times.last().map_or(time_s, |&last| time_s.max(last));
        // Collapse consecutive identical values to keep long runs compact,
        // but always retain the first and allow explicit duplicates at the
        // same timestamp (value change at an instant).
        if let (Some(&lv), Some(&lt)) = (self.values.last(), self.times.last()) {
            if lv == value && lt == t {
                return;
            }
        }
        self.times.push(t);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The sample times (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate `(time_s, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Value at time `t` under step semantics (last sample at or before
    /// `t`); `None` before the first sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        match self.times.partition_point(|&x| x <= t) {
            0 => None,
            i => Some(self.values[i - 1]),
        }
    }

    /// Largest sample value (0 for an empty series).
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Last sample value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Last sample time, if any.
    pub fn last_time(&self) -> Option<f64> {
        self.times.last().copied()
    }

    /// Step integral `∫ value dt` from the first sample to `end_s`.
    ///
    /// Each sample holds until the next sample (or `end_s`). Samples after
    /// `end_s` are ignored. This is exactly the paper's "accumulated
    /// waste/shortage" definition when the series is sampled at every
    /// change point.
    pub fn integral_until(&self, end_s: f64) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.times.len() {
            let t0 = self.times[i];
            if t0 >= end_s {
                break;
            }
            let t1 = if i + 1 < self.times.len() {
                self.times[i + 1].min(end_s)
            } else {
                end_s
            };
            if t1 > t0 {
                acc += self.values[i] * (t1 - t0);
            }
        }
        acc
    }

    /// The running form of [`TimeSeries::integral_until`] over the
    /// samples so far; keep it going with [`StepIntegral::push`].
    pub fn running_integral(&self) -> StepIntegral {
        let mut acc = StepIntegral::default();
        for (t, v) in self.iter() {
            acc.push(t, v);
        }
        acc
    }

    /// Step integral over the full recorded span.
    pub fn integral(&self) -> f64 {
        match self.last_time() {
            Some(end) => self.integral_until(end),
            None => 0.0,
        }
    }

    /// Time-weighted mean over `[first_sample, end_s]`.
    pub fn time_weighted_mean(&self, end_s: f64) -> f64 {
        let Some(&start) = self.times.first() else {
            return 0.0;
        };
        let span = end_s - start;
        if span <= 0.0 {
            return self.values.first().copied().unwrap_or(0.0);
        }
        self.integral_until(end_s) / span
    }

    /// Downsample to at most `n` evenly spaced points (step-evaluated).
    /// Used by the ASCII charts; returns `(times, values)`.
    pub fn resample(&self, n: usize, end_s: f64) -> (Vec<f64>, Vec<f64>) {
        let mut ts = Vec::with_capacity(n);
        let mut vs = Vec::with_capacity(n);
        if self.is_empty() || n == 0 {
            return (ts, vs);
        }
        let start = self.times[0];
        let span = (end_s - start).max(0.0);
        for i in 0..n {
            let t = if n == 1 {
                start
            } else {
                start + span * i as f64 / (n - 1) as f64
            };
            ts.push(t);
            vs.push(self.value_at(t).unwrap_or(0.0));
        }
        (ts, vs)
    }
}

/// The step integral of a series that is only ever appended to, kept in
/// O(1) space: the sum of every closed step plus the newest sample.
///
/// [`StepIntegral::push`] takes samples as [`TimeSeries::push`] does
/// (a time before the newest one is clamped forward) and adds each step
/// as it closes, in the order [`TimeSeries::integral_until`] adds it.
/// So for any `end_s` at or after the newest sample, `until(end_s)` is
/// bitwise equal to `integral_until(end_s)` over the same samples.
/// Equality is bitwise, field by field.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepIntegral {
    closed: f64,
    /// Newest `(time_s, value)`.
    last: Option<(f64, f64)>,
}

impl StepIntegral {
    /// Append a sample.
    pub fn push(&mut self, time_s: f64, value: f64) {
        let t = match self.last {
            Some((lt, lv)) => {
                let t = time_s.max(lt);
                if t > lt {
                    self.closed += lv * (t - lt);
                }
                t
            }
            None => time_s,
        };
        self.last = Some((t, value));
    }

    /// `∫ value dt` from the first sample to `end_s`, which must not be
    /// before the newest sample.
    pub fn until(&self, end_s: f64) -> f64 {
        match self.last {
            Some((lt, lv)) if lt < end_s => self.closed + lv * (end_s - lt),
            _ => {
                debug_assert!(
                    self.last.is_none_or(|(lt, _)| lt == end_s),
                    "step integral read before its newest sample"
                );
                self.closed
            }
        }
    }
}

impl PartialEq for StepIntegral {
    fn eq(&self, other: &Self) -> bool {
        let bits = |s: &Self| {
            (
                s.closed.to_bits(),
                s.last.map(|(t, v)| (t.to_bits(), v.to_bits())),
            )
        };
        bits(self) == bits(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A running integral taken from a series at any split point and
        /// fed the rest of the samples reads bitwise what the series'
        /// own `integral_until` reads, at every sample and between them.
        #[test]
        fn running_integral_is_bitwise_integral_until(
            steps in proptest::collection::vec((0u8..4, 0.0f64..1.7, 0u8..6), 1..120),
            split in 0usize..120,
            tail in 0.0f64..3.3,
        ) {
            let mut series = TimeSeries::new("x");
            let mut running = None;
            let mut t = 0.0;
            for (i, &(kind, dt, v)) in steps.iter().enumerate() {
                if i == split.min(steps.len() - 1) {
                    running = Some(series.running_integral());
                }
                // Kind 0 samples again at the same instant (a value
                // change with no width); the rest step forward.
                if kind > 0 {
                    t += dt;
                }
                let value = f64::from(v) * 0.3 + 0.1;
                series.push(t, value);
                let Some(run) = running.as_mut() else {
                    continue;
                };
                run.push(t, value);
                for end in [t, t + tail] {
                    prop_assert_eq!(
                        run.until(end).to_bits(),
                        series.integral_until(end).to_bits()
                    );
                }
            }
        }
    }

    fn s(pairs: &[(f64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::new("t");
        for &(t, v) in pairs {
            ts.push(t, v);
        }
        ts
    }

    #[test]
    fn step_lookup() {
        let ts = s(&[(0.0, 1.0), (10.0, 3.0), (20.0, 0.0)]);
        assert_eq!(ts.value_at(-1.0), None);
        assert_eq!(ts.value_at(0.0), Some(1.0));
        assert_eq!(ts.value_at(9.999), Some(1.0));
        assert_eq!(ts.value_at(10.0), Some(3.0));
        assert_eq!(ts.value_at(100.0), Some(0.0));
    }

    #[test]
    fn step_integral_matches_hand_computation() {
        // 1.0 for 10s, then 3.0 for 10s, then 0: integral to t=25 is 10+30+0.
        let ts = s(&[(0.0, 1.0), (10.0, 3.0), (20.0, 0.0)]);
        assert!((ts.integral_until(25.0) - 40.0).abs() < 1e-9);
        assert!((ts.integral_until(15.0) - 25.0).abs() < 1e-9);
        assert!((ts.integral_until(0.0) - 0.0).abs() < 1e-9);
        // Full span: to last sample time (20) -> 10 + 30.
        assert!((ts.integral() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_consecutive_values_collapse() {
        let mut ts = TimeSeries::new("t");
        ts.push(0.0, 5.0);
        ts.push(0.0, 5.0);
        assert_eq!(ts.len(), 1);
        ts.push(1.0, 5.0); // same value, later time — kept so span is known
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn time_weighted_mean() {
        let ts = s(&[(0.0, 2.0), (10.0, 4.0)]);
        // 2.0 for 10s, 4.0 for 10s over [0,20] -> mean 3.0
        assert!((ts.time_weighted_mean(20.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn resample_evaluates_steps() {
        let ts = s(&[(0.0, 1.0), (10.0, 2.0)]);
        let (t, v) = ts.resample(3, 20.0);
        assert_eq!(t, vec![0.0, 10.0, 20.0]);
        assert_eq!(v, vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn empty_series_is_harmless() {
        let ts = TimeSeries::new("e");
        assert!(ts.is_empty());
        assert_eq!(ts.integral(), 0.0);
        assert_eq!(ts.max_value(), 0.0);
        assert_eq!(ts.time_weighted_mean(10.0), 0.0);
        assert!(ts.resample(4, 10.0).0.is_empty());
    }
}
