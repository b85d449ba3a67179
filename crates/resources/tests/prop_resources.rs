//! Property-based tests for resource arithmetic and the pool ledger.

use hta_resources::{ResourcePool, Resources};
use proptest::prelude::*;

fn arb_resources() -> impl Strategy<Value = Resources> {
    (0i64..10_000, 0i64..100_000, 0i64..1_000_000).prop_map(|(c, m, d)| Resources::new(c, m, d))
}

proptest! {
    #[test]
    fn addition_is_commutative(a in arb_resources(), b in arb_resources()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn addition_is_associative(a in arb_resources(), b in arb_resources(), c in arb_resources()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn zero_is_identity(a in arb_resources()) {
        prop_assert_eq!(a + Resources::ZERO, a);
        prop_assert_eq!(a - Resources::ZERO, a);
    }

    #[test]
    fn saturating_sub_never_negative(a in arb_resources(), b in arb_resources()) {
        prop_assert!(!a.saturating_sub(&b).has_negative());
    }

    #[test]
    fn sub_then_add_recovers_when_dominated(
        a in arb_resources(),
        (fc, fm, fd) in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        // Derive b <= a component-wise, then (a - b) + b == a exactly.
        let b = Resources::new(
            (a.millicores as f64 * fc) as i64,
            (a.memory_mb as f64 * fm) as i64,
            (a.disk_mb as f64 * fd) as i64,
        );
        prop_assert!(b.fits_in(&a));
        prop_assert_eq!(a.saturating_sub(&b) + b, a);
        prop_assert_eq!((a - b) + b, a);
    }

    #[test]
    fn fits_in_is_reflexive_and_antisymmetric_on_eq(a in arb_resources(), b in arb_resources()) {
        prop_assert!(a.fits_in(&a));
        if a.fits_in(&b) && b.fits_in(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn fits_in_is_transitive(a in arb_resources(), b in arb_resources(), c in arb_resources()) {
        if a.fits_in(&b) && b.fits_in(&c) {
            prop_assert!(a.fits_in(&c));
        }
    }

    #[test]
    fn max_dominates_both(a in arb_resources(), b in arb_resources()) {
        let m = a.max(&b);
        prop_assert!(a.fits_in(&m));
        prop_assert!(b.fits_in(&m));
    }

    #[test]
    fn min_fits_both(a in arb_resources(), b in arb_resources()) {
        let m = a.min(&b);
        prop_assert!(m.fits_in(&a));
        prop_assert!(m.fits_in(&b));
    }

    #[test]
    fn divide_by_is_consistent_with_scaling(unit in arb_resources(), k in 1i64..64) {
        prop_assume!(!unit.is_zero());
        prop_assume!(unit.millicores > 0 || unit.memory_mb > 0 || unit.disk_mb > 0);
        let total = unit.scaled(k);
        let n = total.divide_by(&unit);
        // At least k copies fit in k*unit.
        prop_assert!(n >= k, "n={} k={}", n, k);
        prop_assert!(unit.scaled(n).fits_in(&total) || n == i64::MAX);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random allocate/release sequences never break the pool ledger
    /// invariant, and failures leave the pool untouched.
    #[test]
    fn pool_invariant_under_random_ops(
        capacity in arb_resources(),
        ops in proptest::collection::vec((0u64..32, arb_resources(), any::<bool>()), 0..200),
    ) {
        let mut pool = ResourcePool::new(capacity);
        for (key, size, is_alloc) in ops {
            if is_alloc {
                let before_used = pool.used();
                let ok = pool.allocate(key, size).is_ok();
                if !ok {
                    prop_assert_eq!(pool.used(), before_used);
                }
            } else {
                let _ = pool.release(key);
            }
            prop_assert!(pool.check_invariant());
            prop_assert!(pool.used().fits_in(&pool.capacity()));
        }
    }
}
