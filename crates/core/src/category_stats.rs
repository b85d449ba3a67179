//! Per-category runtime statistics (the feedback input).
//!
//! §IV-A: "By collecting the resource usage of complete jobs, we can
//! estimate the resource requirements of jobs belonging to the same
//! stage." The estimate is conservative: the **component-wise maximum**
//! of measured peaks (so packing never starves a job), while execution
//! time uses a running mean (the estimator wants expected completion
//! times, not worst cases).
//!
//! Categories are addressed by interned [`CategoryId`]s (assigned by the
//! master at submission), so the per-completion hot path indexes a `Vec`
//! instead of hashing category name strings.

use hta_des::{CategoryId, Duration};
use hta_resources::Resources;
use hta_workqueue::task::Measured;

/// What the stats can say about one category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryEstimate {
    /// Conservative per-job resource requirement (max of observed peaks).
    pub resources: Resources,
    /// Mean observed execution (wall) time.
    pub mean_wall: Duration,
    /// Number of completed jobs backing the estimate.
    pub samples: u64,
}

#[derive(Debug, Clone, Default)]
struct Accum {
    peak: Resources,
    total_wall_ms: u128,
    samples: u64,
}

/// Online per-category statistics, indexed by [`CategoryId`].
#[derive(Debug, Clone, Default)]
pub struct CategoryStats {
    by_category: Vec<Accum>,
}

impl CategoryStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed job's measurement.
    pub fn observe(&mut self, cat: CategoryId, measured: Measured) {
        let idx = cat.index();
        if self.by_category.len() <= idx {
            self.by_category.resize_with(idx + 1, Accum::default);
        }
        let acc = &mut self.by_category[idx];
        acc.peak = acc.peak.max(&measured.peak);
        acc.total_wall_ms += measured.wall.as_millis() as u128;
        acc.samples += 1;
    }

    /// Current estimate for a category, if at least one job completed.
    pub fn estimate(&self, cat: CategoryId) -> Option<CategoryEstimate> {
        let acc = self.by_category.get(cat.index())?;
        if acc.samples == 0 {
            return None;
        }
        Some(CategoryEstimate {
            resources: acc.peak,
            mean_wall: Duration::from_millis((acc.total_wall_ms / acc.samples as u128) as u64),
            samples: acc.samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALIGN: CategoryId = CategoryId::from_u32(0);
    const REDUCE: CategoryId = CategoryId::from_u32(1);

    fn m(cores: i64, mem: i64, wall_s: u64) -> Measured {
        Measured {
            peak: Resources::new(cores, mem, 0),
            wall: Duration::from_secs(wall_s),
        }
    }

    #[test]
    fn unknown_category_has_no_estimate() {
        let s = CategoryStats::new();
        assert!(s.estimate(ALIGN).is_none());
    }

    #[test]
    fn single_observation_is_the_estimate() {
        let mut s = CategoryStats::new();
        s.observe(ALIGN, m(1000, 2000, 90));
        let e = s.estimate(ALIGN).unwrap();
        assert_eq!(e.resources, Resources::new(1000, 2000, 0));
        assert_eq!(e.mean_wall, Duration::from_secs(90));
        assert_eq!(e.samples, 1);
    }

    #[test]
    fn resources_take_max_wall_takes_mean() {
        let mut s = CategoryStats::new();
        s.observe(ALIGN, m(1000, 4000, 80));
        s.observe(ALIGN, m(1500, 2000, 120));
        let e = s.estimate(ALIGN).unwrap();
        // Max per component — not the max vector of either sample.
        assert_eq!(e.resources, Resources::new(1500, 4000, 0));
        assert_eq!(e.mean_wall, Duration::from_secs(100));
        assert_eq!(e.samples, 2);
    }

    #[test]
    fn categories_are_independent() {
        let mut s = CategoryStats::new();
        s.observe(ALIGN, m(1000, 0, 10));
        s.observe(REDUCE, m(2000, 0, 20));
        assert_eq!(s.estimate(ALIGN).unwrap().resources.millicores, 1000);
        assert_eq!(s.estimate(REDUCE).unwrap().resources.millicores, 2000);
    }

    #[test]
    fn sparse_ids_do_not_count_as_known() {
        let mut s = CategoryStats::new();
        // Observing id 2 grows the table through ids 0 and 1, which must
        // stay unknown.
        s.observe(CategoryId::from_u32(2), m(500, 0, 5));
        assert!(s.estimate(ALIGN).is_none());
        assert!(s.estimate(REDUCE).is_none());
        assert!(s.estimate(CategoryId::from_u32(2)).is_some());
    }
}
