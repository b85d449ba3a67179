//! # hta-resources — resource vectors and packing helpers
//!
//! Everything in the HTA stack reasons about three resource dimensions,
//! mirroring what Work Queue declares per task and what Kubernetes
//! allocates per node: **CPU** (millicores, Kubernetes-style), **memory**
//! (MB) and **disk** (MB).
//!
//! [`Resources`] is a small copyable vector with saturating arithmetic and
//! the comparison helpers the schedulers need (`fits`, `dominates`,
//! component-wise max). Shortage arithmetic in the HTA estimator can go
//! negative mid-computation, so fields are `i64`; the constructors clamp
//! user inputs to be non-negative.
//!
//! # Example
//!
//! ```
//! use hta_resources::{ResourcePool, Resources};
//!
//! let node = Resources::cores(4, 15_000, 100_000); // n1-standard-4
//! let task = Resources::cores(1, 3_000, 5_000);
//! assert!(task.fits_in(&node));
//! assert_eq!(node.divide_by(&task), 4); // tasks that pack onto the node
//!
//! let mut pool = ResourcePool::new(node);
//! pool.allocate(1, task).unwrap();
//! assert_eq!(pool.available().millicores, 3_000);
//! assert!(pool.check_invariant());
//! ```

pub mod pool;

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

pub use pool::ResourcePool;

/// Millicores in one CPU core.
pub const MILLIS_PER_CORE: i64 = 1000;

/// A resource vector: CPU (millicores), memory (MB), disk (MB).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Resources {
    /// CPU in millicores (1000 = one core).
    pub millicores: i64,
    /// Memory in megabytes.
    pub memory_mb: i64,
    /// Scratch disk in megabytes.
    pub disk_mb: i64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources {
        millicores: 0,
        memory_mb: 0,
        disk_mb: 0,
    };

    /// Construct from raw fields, clamping negatives to zero.
    pub fn new(millicores: i64, memory_mb: i64, disk_mb: i64) -> Self {
        Resources {
            millicores: millicores.max(0),
            memory_mb: memory_mb.max(0),
            disk_mb: disk_mb.max(0),
        }
    }

    /// Convenience: whole cores + memory + disk.
    pub fn cores(cores: i64, memory_mb: i64, disk_mb: i64) -> Self {
        Resources::new(cores * MILLIS_PER_CORE, memory_mb, disk_mb)
    }

    /// CPU as fractional cores.
    pub fn cores_f64(&self) -> f64 {
        self.millicores as f64 / MILLIS_PER_CORE as f64
    }

    /// True if every component is zero.
    pub fn is_zero(&self) -> bool {
        *self == Resources::ZERO
    }

    /// True if any component is negative (possible after raw subtraction).
    pub fn has_negative(&self) -> bool {
        self.millicores < 0 || self.memory_mb < 0 || self.disk_mb < 0
    }

    /// True if `self` fits inside `capacity` on every dimension.
    pub fn fits_in(&self, capacity: &Resources) -> bool {
        self.millicores <= capacity.millicores
            && self.memory_mb <= capacity.memory_mb
            && self.disk_mb <= capacity.disk_mb
    }

    /// True if `self >= other` on every dimension.
    pub fn dominates(&self, other: &Resources) -> bool {
        other.fits_in(self)
    }

    /// Component-wise maximum (used to merge per-task peak measurements).
    pub fn max(&self, other: &Resources) -> Resources {
        Resources {
            millicores: self.millicores.max(other.millicores),
            memory_mb: self.memory_mb.max(other.memory_mb),
            disk_mb: self.disk_mb.max(other.disk_mb),
        }
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &Resources) -> Resources {
        Resources {
            millicores: self.millicores.min(other.millicores),
            memory_mb: self.memory_mb.min(other.memory_mb),
            disk_mb: self.disk_mb.min(other.disk_mb),
        }
    }

    /// Exact subtraction; `None` when any dimension would go negative
    /// (use when over-release must be a detected error, not clamped).
    pub fn checked_sub(&self, other: &Resources) -> Option<Resources> {
        if other.fits_in(self) {
            Some(Resources {
                millicores: self.millicores - other.millicores,
                memory_mb: self.memory_mb - other.memory_mb,
                disk_mb: self.disk_mb - other.disk_mb,
            })
        } else {
            None
        }
    }

    /// Subtraction clamped at zero on each dimension.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            millicores: (self.millicores - other.millicores).max(0),
            memory_mb: (self.memory_mb - other.memory_mb).max(0),
            disk_mb: (self.disk_mb - other.disk_mb).max(0),
        }
    }

    /// Scale every component by an integer factor.
    pub fn scaled(&self, k: i64) -> Resources {
        Resources {
            millicores: self.millicores.saturating_mul(k),
            memory_mb: self.memory_mb.saturating_mul(k),
            disk_mb: self.disk_mb.saturating_mul(k),
        }
    }

    /// How many copies of `unit` fit inside `self` simultaneously
    /// (the binding dimension decides). Returns `i64::MAX` when `unit`
    /// is zero on every dimension that `self` is non-zero on.
    pub fn divide_by(&self, unit: &Resources) -> i64 {
        let mut n = i64::MAX;
        for (have, need) in [
            (self.millicores, unit.millicores),
            (self.memory_mb, unit.memory_mb),
            (self.disk_mb, unit.disk_mb),
        ] {
            if need > 0 {
                n = n.min((have.max(0)) / need);
            }
        }
        n
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            millicores: self.millicores.saturating_add(rhs.millicores),
            memory_mb: self.memory_mb.saturating_add(rhs.memory_mb),
            disk_mb: self.disk_mb.saturating_add(rhs.disk_mb),
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    /// Raw subtraction — may go negative; the estimator relies on this to
    /// represent shortages. Use [`Resources::saturating_sub`] for capacity
    /// bookkeeping.
    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            millicores: self.millicores.saturating_sub(rhs.millicores),
            memory_mb: self.memory_mb.saturating_sub(rhs.memory_mb),
            disk_mb: self.disk_mb.saturating_sub(rhs.disk_mb),
        }
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl Mul<i64> for Resources {
    type Output = Resources;
    fn mul(self, k: i64) -> Resources {
        self.scaled(k)
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{cpu: {}m, mem: {}MB, disk: {}MB}}",
            self.millicores, self.memory_mb, self.disk_mb
        )
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}c/{}MB/{}MB",
            self.cores_f64(),
            self.memory_mb,
            self.disk_mb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(c: i64, m: i64, d: i64) -> Resources {
        Resources::new(c, m, d)
    }

    #[test]
    fn constructors_clamp_negatives() {
        let x = Resources::new(-5, -1, -9);
        assert_eq!(x, Resources::ZERO);
        assert!(x.is_zero());
    }

    #[test]
    fn cores_helper() {
        let x = Resources::cores(4, 15_000, 100_000);
        assert_eq!(x.millicores, 4000);
        assert!((x.cores_f64() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fits_and_dominates() {
        let node = Resources::cores(4, 15_000, 100_000);
        let task = r(1000, 4_000, 10_000);
        assert!(task.fits_in(&node));
        assert!(node.dominates(&task));
        assert!(!node.fits_in(&task));
        // One oversized dimension breaks the fit.
        let fat = r(500, 20_000, 0);
        assert!(!fat.fits_in(&node));
    }

    #[test]
    fn raw_sub_can_go_negative_saturating_cannot() {
        let a = r(1000, 100, 0);
        let b = r(2000, 50, 10);
        let raw = a - b;
        assert_eq!(raw.millicores, -1000);
        assert!(raw.has_negative());
        let sat = a.saturating_sub(&b);
        assert_eq!(sat, r(0, 50, 0));
        assert!(!sat.has_negative());
    }

    #[test]
    fn divide_by_reports_binding_dimension() {
        let node = Resources::cores(4, 15_000, 100_000);
        let task = r(1000, 8_000, 0);
        // CPU would allow 4, memory only 1.
        assert_eq!(node.divide_by(&task), 1);
        let small = r(1000, 1_000, 0);
        assert_eq!(node.divide_by(&small), 4);
        assert_eq!(node.divide_by(&Resources::ZERO), i64::MAX);
    }

    #[test]
    fn sum_and_scale() {
        let total: Resources = vec![r(100, 10, 1), r(200, 20, 2), r(300, 30, 3)]
            .into_iter()
            .sum();
        assert_eq!(total, r(600, 60, 6));
        assert_eq!(total * 2, r(1200, 120, 12));
    }

    #[test]
    fn max_min_merge() {
        let a = r(100, 500, 5);
        let b = r(300, 100, 9);
        assert_eq!(a.max(&b), r(300, 500, 9));
        assert_eq!(a.min(&b), r(100, 100, 5));
    }

    #[test]
    fn checked_sub_detects_over_release() {
        let a = r(1000, 100, 10);
        let b = r(500, 50, 5);
        assert_eq!(a.checked_sub(&b), Some(r(500, 50, 5)));
        assert_eq!(b.checked_sub(&a), None);
        assert_eq!(a.checked_sub(&a), Some(Resources::ZERO));
    }

    #[test]
    fn display_formats() {
        let x = Resources::cores(2, 4096, 0);
        assert_eq!(format!("{x}"), "2.00c/4096MB/0MB");
        assert!(format!("{x:?}").contains("2000m"));
    }
}
