//! A lightweight StatefulSet object.
//!
//! The paper's deployment (§V-A) wraps the Work Queue *master* pod in a
//! StatefulSet (sticky identity + persistent volume for intermediate
//! data); the driver restarts a lost master pod through it. Worker pods
//! are deliberately *not* wrapped in a controller object — §II-C:
//! deleting a managing deployment unit would interrupt running jobs, so
//! HTA manages worker-pod lifecycles directly through Work Queue.
//!
//! The object carries just enough state to reproduce that topology; it
//! adds no behaviour beyond identity bookkeeping. The paper's two
//! Services in front of the master (in-cluster for workers, external for
//! Makeflow/HTA) are not modelled: the simulation routes every message
//! directly, so they would carry no state anything reads.

use serde::{Deserialize, Serialize};

use crate::ids::PodId;

/// A StatefulSet with sticky pod identities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatefulSet {
    /// Object name (e.g. `"wq-master"`).
    pub name: String,
    /// Desired replica count.
    pub replicas: usize,
    /// Ordinal → pod binding; `None` while the ordinal's pod is pending
    /// replacement.
    pub pods: Vec<Option<PodId>>,
    /// Size of the attached persistent volume (MB).
    pub volume_mb: i64,
}

impl StatefulSet {
    /// A new set with all ordinals unbound.
    pub fn new(name: impl Into<String>, replicas: usize, volume_mb: i64) -> Self {
        StatefulSet {
            name: name.into(),
            replicas,
            pods: vec![None; replicas],
            volume_mb: volume_mb.max(0),
        }
    }

    /// Bind `pod` to the first free ordinal; returns the ordinal.
    pub fn bind(&mut self, pod: PodId) -> Option<usize> {
        let slot = self.pods.iter().position(|p| p.is_none())?;
        self.pods[slot] = Some(pod);
        Some(slot)
    }

    /// Unbind whichever ordinal holds `pod` (pod restart); the identity
    /// (ordinal) is retained for the replacement.
    pub fn unbind(&mut self, pod: PodId) -> Option<usize> {
        let slot = self.pods.iter().position(|p| *p == Some(pod))?;
        self.pods[slot] = None;
        Some(slot)
    }

    /// True when every ordinal is bound.
    pub fn fully_bound(&self) -> bool {
        self.pods.iter().all(|p| p.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statefulset_sticky_identity() {
        let mut ss = StatefulSet::new("wq-master", 1, 50_000);
        assert!(!ss.fully_bound());
        let ord = ss.bind(PodId(10)).unwrap();
        assert_eq!(ord, 0);
        assert!(ss.fully_bound());
        // Restart: unbind frees the same ordinal for the replacement.
        assert_eq!(ss.unbind(PodId(10)), Some(0));
        let ord2 = ss.bind(PodId(11)).unwrap();
        assert_eq!(ord2, 0, "replacement keeps the sticky ordinal");
    }

    #[test]
    fn bind_fails_when_full() {
        let mut ss = StatefulSet::new("s", 1, 0);
        ss.bind(PodId(1)).unwrap();
        assert_eq!(ss.bind(PodId(2)), None);
        assert_eq!(ss.unbind(PodId(99)), None);
    }
}
