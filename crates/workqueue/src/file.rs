//! Files: task inputs and outputs.
//!
//! The paper's BLAST jobs share a 1.4 GB **cacheable** database input and
//! write ~600 KB outputs. Cacheable files are kept in a worker's cache
//! after first delivery (Work Queue's `WORK_QUEUE_CACHE` flag), so each
//! worker pays the transfer once; non-cacheable inputs (per-task query
//! chunks) are moved for every task.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ids::FileId;

/// A file known to the master.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileSpec {
    /// Identity within the catalogue.
    pub id: FileId,
    /// Display name.
    pub name: String,
    /// Size in MB.
    pub size_mb: f64,
    /// Whether workers keep it cached after first delivery.
    pub cacheable: bool,
}

/// The master's file catalogue.
///
/// Files are registered while the workflow is set up and never change
/// afterwards, so the list sits behind an [`Arc`] and clones (what-if
/// forks of the master) share it. [`FileCatalog::register`] copies the
/// list first if a clone still shares it.
#[derive(Debug, Clone, Default)]
pub struct FileCatalog {
    files: Arc<Vec<FileSpec>>,
}

impl FileCatalog {
    /// An empty catalogue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a file; returns its id.
    pub fn register(&mut self, name: impl Into<String>, size_mb: f64, cacheable: bool) -> FileId {
        let id = FileId(self.files.len() as u64);
        Arc::make_mut(&mut self.files).push(FileSpec {
            id,
            name: name.into(),
            size_mb: size_mb.max(0.0),
            cacheable,
        });
        id
    }

    /// Look up a file.
    pub fn get(&self, id: FileId) -> Option<&FileSpec> {
        self.files.get(id.raw() as usize)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_get() {
        let mut cat = FileCatalog::new();
        let db = cat.register("blast-db", 1400.0, true);
        let q = cat.register("query-0", 2.0, false);
        assert_eq!(cat.len(), 2);
        assert!(cat.get(db).unwrap().cacheable);
        assert!(!cat.get(q).unwrap().cacheable);
        assert_eq!(cat.get(FileId(99)), None);
    }

    #[test]
    fn clones_share_files_until_one_registers() {
        let mut original = FileCatalog::new();
        let db = original.register("db", 1400.0, true);
        let mut fork = original.clone();
        assert!(Arc::ptr_eq(&original.files, &fork.files));
        let q = fork.register("q", 2.0, false);
        assert_eq!(fork.len(), 2);
        assert_eq!(fork.get(q).unwrap().name, "q");
        assert_eq!(original.len(), 1, "the original never sees the fork's file");
        assert_eq!(original.get(q), None);
        assert_eq!(original.get(db), fork.get(db));
    }

    #[test]
    fn negative_sizes_clamp() {
        let mut cat = FileCatalog::new();
        let f = cat.register("weird", -5.0, false);
        assert_eq!(cat.get(f).unwrap().size_mb, 0.0);
    }
}
