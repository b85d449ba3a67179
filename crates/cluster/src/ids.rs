//! Typed identifiers for cluster objects.
//!
//! Newtypes prevent the classic simulator bug of indexing the pod table
//! with a node id. Ids are allocated densely by per-type counters owned by
//! the [`crate::Cluster`].

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// The raw numeric id.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A cluster node (virtual machine).
    NodeId,
    "node-"
);
id_type!(
    /// A pod (the primary deployment unit).
    PodId,
    "pod-"
);
id_type!(
    /// A container image.
    ImageId,
    "img-"
);

/// Monotone id allocator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Allocate the next raw id.
    pub fn alloc(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", NodeId(3)), "node-3");
        assert_eq!(format!("{:?}", PodId(9)), "pod-9");
        assert_eq!(format!("{}", ImageId(0)), "img-0");
    }

    #[test]
    fn idgen_is_dense_and_monotone() {
        let mut g = IdGen::default();
        assert_eq!(g.alloc(), 0);
        assert_eq!(g.alloc(), 1);
        assert_eq!(g.alloc(), 2);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "exercises the Hash impl itself and never iterates the set"
    )]
    fn ids_are_ord_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(PodId(1));
        s.insert(PodId(1));
        s.insert(PodId(2));
        assert_eq!(s.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }
}
