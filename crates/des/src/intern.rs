//! Category interning.
//!
//! Workflow categories ("stages") are tiny in number — a handful per
//! workload — but their `String` names used to be cloned on every
//! dispatch, completion, and autoscaler snapshot. An [`Interner`] maps
//! each distinct name to a dense [`CategoryId`] once; the hot path then
//! moves `Copy` ids around and aggregates in `Vec`s indexed by id.
//!
//! The layer that builds the run fills the table before the first
//! submission, so task specs, WAL records and checkpoints carry only ids.
//!
//! Determinism: ids are assigned in first-intern order, which is fixed
//! per run: workflow order (job categories, then profile names) or
//! trace-table order. Anything that must present output in *name* order
//! (summaries, recorded metrics) goes through [`Interner::iter_by_name`],
//! which walks the names in lexicographic order exactly like the
//! `BTreeMap<String, _>` aggregates this replaces.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A dense handle for one interned category name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CategoryId(u32);

impl CategoryId {
    /// Construct from a raw index: a position in a table interned in
    /// order when the run is built (a trace's category table), or a test
    /// fixture.
    pub const fn from_u32(v: u32) -> Self {
        CategoryId(v)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The raw index as a `usize`, for `Vec`-indexed per-category tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string-to-[`CategoryId`] interner. Each name is allocated once and
/// shared by both maps, so a clone (every checkpoint and fork copies the
/// master's) bumps reference counts instead of copying names.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Arc<str>>,
    by_name: BTreeMap<Arc<str>, CategoryId>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `name`, returning its id. Allocates only on first sight of
    /// a name; subsequent calls are a map lookup.
    pub fn intern(&mut self, name: &str) -> CategoryId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id =
            CategoryId(u32::try_from(self.names.len()).expect("more than u32::MAX categories"));
        let shared: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&shared));
        self.by_name.insert(shared, id);
        crate::sanitize_assert!(
            self.names.len() == self.by_name.len(),
            "interner id instability: {} dense ids vs {} names (duplicate or lost intern)",
            self.names.len(),
            self.by_name.len()
        );
        crate::sanitize_assert!(
            &*self.names[id.index()] == name,
            "interner id instability: id {id:?} resolves to {:?}, interned {name:?}",
            self.names[id.index()]
        );
        id
    }

    /// The id of an already-interned name, if any.
    pub fn get(&self, name: &str) -> Option<CategoryId> {
        self.by_name.get(name).copied()
    }

    /// The name behind an id.
    ///
    /// Panics if `id` did not come from this interner.
    pub fn name(&self, id: CategoryId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// `(name, id)` pairs in lexicographic name order — the iteration
    /// order of the `BTreeMap<String, _>` aggregates interning replaced.
    pub fn iter_by_name(&self) -> impl Iterator<Item = (&str, CategoryId)> {
        self.by_name.iter().map(|(n, &id)| (&**n, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("align");
        let b = i.intern("blast");
        assert_eq!(i.intern("align"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.name(a), "align");
        assert_eq!(i.name(b), "blast");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn iter_by_name_is_lexicographic() {
        let mut i = Interner::new();
        i.intern("split");
        i.intern("align");
        i.intern("reduce");
        let names: Vec<&str> = i.iter_by_name().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["align", "reduce", "split"]);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
        assert_eq!(i.len(), 1);
    }
}
