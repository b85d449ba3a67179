//! The master's shape table: the per-task fields that every producer
//! fills from its category or job table, stored once and shared by the
//! task records that name them.
//!
//! HTC jobs in one category are near-identical copies, so a deep backlog
//! repeats the same `(category, output size, true footprint, CPU
//! fraction)` thousands of times, and the same few declared
//! requirements. A [`TaskRecord`](crate::task::TaskRecord) holds a
//! [`ShapeId`] and a [`DeclaredId`] instead.
//!
//! * **Append-only.** An entry is never changed or removed, so an id
//!   stays valid for the life of the run, in every fork and checkpoint.
//! * **Shared.** Both tables sit behind one `Arc`: cloning the master (a
//!   checkpoint, a what-if fork) bumps a count, and an append after the
//!   clone copies the tables once (they are O(distinct), not O(tasks)).
//! * **Built on first use.** An empty table holds no allocation, so a
//!   master that never receives a task pays nothing for it.
//! * **Bitwise.** Floats are matched by their bits, so a record gives
//!   back exactly the spec it was built from (`-0.0` stays `-0.0`).

use std::sync::Arc;

use hta_des::CategoryId;
use hta_resources::Resources;

use crate::task::TaskRecord;

/// A task's shape in the master's [`ShapeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShapeId(u32);

/// A task's declared requirement in the master's [`ShapeTable`]; the
/// default names "undeclared" (`None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct DeclaredId(u32);

/// The category-level fields of a task spec.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// Workflow category.
    pub(crate) cat: CategoryId,
    /// Output size returned on completion (MB).
    pub(crate) output_mb: f64,
    /// Ground-truth peak consumption.
    pub(crate) actual: Resources,
    /// Fraction of the allocated CPU the task keeps busy.
    pub(crate) cpu_fraction: f64,
}

impl Shape {
    /// Equal field for field, floats by their bits.
    fn same(&self, other: &Shape) -> bool {
        self.cat == other.cat
            && self.output_mb.to_bits() == other.output_mb.to_bits()
            && self.actual == other.actual
            && self.cpu_fraction.to_bits() == other.cpu_fraction.to_bits()
    }
}

/// Sentinel in [`Tables::latest`]: the category has no shape yet.
const NO_SHAPE: u32 = u32::MAX;

#[derive(Debug, Clone, Default)]
struct Tables {
    /// Shapes by [`ShapeId`].
    shapes: Vec<Shape>,
    /// Per category index, the shape it appended last: the O(1) path for
    /// the common case of one shape per category.
    latest: Vec<u32>,
    /// Declared requirements; [`DeclaredId`] `k > 0` is `declared[k - 1]`.
    declared: Vec<Resources>,
}

/// Interned task shapes and declared requirements (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShapeTable(Option<Arc<Tables>>);

/// The tables of a master that has interned nothing yet.
static EMPTY: Tables = Tables {
    shapes: Vec::new(),
    latest: Vec::new(),
    declared: Vec::new(),
};

impl ShapeTable {
    fn tables(&self) -> &Tables {
        self.0.as_deref().unwrap_or(&EMPTY)
    }

    /// The tables, for an append: copied first if a clone shares them.
    fn tables_mut(&mut self) -> &mut Tables {
        Arc::make_mut(self.0.get_or_insert_with(Arc::default))
    }

    /// The id of `shape`, appending it when it is new.
    pub(crate) fn intern(&mut self, shape: Shape) -> ShapeId {
        let t = self.tables();
        let cat = shape.cat.index();
        let latest = t.latest.get(cat).copied().unwrap_or(NO_SHAPE);
        if latest != NO_SHAPE && t.shapes[latest as usize].same(&shape) {
            return ShapeId(latest);
        }
        if let Some(i) = t.shapes.iter().position(|s| s.same(&shape)) {
            return ShapeId(u32::try_from(i).expect("shape ids fit in u32"));
        }
        let t = self.tables_mut();
        t.shapes.push(shape);
        let id = u32::try_from(t.shapes.len() - 1).expect("shape ids fit in u32");
        if t.latest.len() <= cat {
            t.latest.resize(cat + 1, NO_SHAPE);
        }
        t.latest[cat] = id;
        ShapeId(id)
    }

    /// The id of `declared`, appending it when it is new.
    pub(crate) fn intern_declared(&mut self, declared: Option<Resources>) -> DeclaredId {
        let Some(req) = declared else {
            return DeclaredId::default();
        };
        let pos = match self.tables().declared.iter().position(|d| *d == req) {
            Some(pos) => pos,
            None => {
                let t = self.tables_mut();
                t.declared.push(req);
                t.declared.len() - 1
            }
        };
        DeclaredId(u32::try_from(pos + 1).expect("declared ids fit in u32"))
    }

    /// The shape behind `id`.
    pub(crate) fn shape(&self, id: ShapeId) -> &Shape {
        &self.tables().shapes[id.0 as usize]
    }

    /// The category of shape `id`.
    pub(crate) fn cat(&self, id: ShapeId) -> CategoryId {
        self.shape(id).cat
    }

    /// The requirement behind `id`.
    pub(crate) fn declared(&self, id: DeclaredId) -> Option<Resources> {
        let k = id.0 as usize;
        (k > 0).then(|| self.tables().declared[k - 1])
    }

    /// The waiting queue's `(category, declared)` key of `rec`.
    pub(crate) fn key(&self, rec: &TaskRecord) -> (CategoryId, Option<Resources>) {
        (self.cat(rec.shape), self.declared(rec.declared))
    }

    /// True when `shape` and `declared` name entries of this table.
    pub(crate) fn holds(&self, shape: ShapeId, declared: DeclaredId) -> bool {
        let t = self.tables();
        (shape.0 as usize) < t.shapes.len() && (declared.0 as usize) <= t.declared.len()
    }

    /// Bytes the tables hold, by capacity.
    pub(crate) fn bytes(&self) -> usize {
        self.0.as_deref().map_or(0, |t| {
            2 * size_of::<usize>()
                + size_of::<Tables>()
                + t.shapes.capacity() * size_of::<Shape>()
                + t.latest.capacity() * size_of::<u32>()
                + t.declared.capacity() * size_of::<Resources>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(cat: u32, output_mb: f64) -> Shape {
        Shape {
            cat: CategoryId::from_u32(cat),
            output_mb,
            actual: Resources::cores(1, 1_000, 1_000),
            cpu_fraction: 0.9,
        }
    }

    #[test]
    fn interning_is_stable_and_bitwise() {
        let mut t = ShapeTable::default();
        assert_eq!(t.bytes(), 0, "an unused table allocates nothing");
        let a = t.intern(shape(0, 1.0));
        let b = t.intern(shape(0, 2.0));
        let z = t.intern(shape(1, 0.0));
        let nz = t.intern(shape(1, -0.0));
        assert_ne!(z, nz, "-0.0 is its own shape");
        assert_eq!(t.intern(shape(0, 1.0)), a, "an older shape of a category");
        assert_eq!(t.intern(shape(0, 2.0)), b);
        assert_eq!(t.shape(nz).output_mb.to_bits(), (-0.0f64).to_bits());
        assert_eq!(t.cat(z), CategoryId::from_u32(1));
        let none = t.intern_declared(None);
        let some = t.intern_declared(Some(Resources::cores(2, 1, 1)));
        assert_eq!(t.declared(none), None);
        assert_eq!(t.declared(some), Some(Resources::cores(2, 1, 1)));
        assert_eq!(t.intern_declared(Some(Resources::cores(2, 1, 1))), some);
        assert!(t.holds(nz, some));
    }

    #[test]
    fn a_clone_shares_until_an_append() {
        let mut t = ShapeTable::default();
        let a = t.intern(shape(0, 1.0));
        let c = t.clone();
        assert_eq!(t.intern(shape(0, 1.0)), a);
        assert!(Arc::ptr_eq(
            t.0.as_ref().expect("built"),
            c.0.as_ref().expect("built")
        ));
        let b = t.intern(shape(0, 3.0));
        assert!(!Arc::ptr_eq(
            t.0.as_ref().expect("built"),
            c.0.as_ref().expect("built")
        ));
        assert_eq!(c.tables().shapes.len(), 1, "the clone keeps its table");
        assert_eq!(t.shape(b).output_mb, 3.0);
    }
}
