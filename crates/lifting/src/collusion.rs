//! Verification-layer collusion behaviours (Section 5.2, Figure 8).
//!
//! Colluding freeriders not only freeride at the dissemination layer; they
//! also subvert the verification procedures:
//!
//! * **Cover-up** — a colluding witness answers confirm requests about a
//!   coalition member positively regardless of what it actually received, and
//!   a colluding verifier never blames a coalition member.
//! * **Man-in-the-middle (Figure 8b)** — a freerider acknowledges a colluder
//!   as the destination of its forwarding, so the honest server's confirm
//!   requests go to a colluder who vouches for it.
//!
//! The entropy checks of the a-posteriori audit are designed to defeat both.

use std::sync::Arc;

use lifting_sim::NodeId;

/// Collusion configuration of one node's verification layer.
#[derive(Debug, Clone, Default)]
pub struct CollusionConfig {
    coalition: Arc<Vec<NodeId>>,
    cover_up: bool,
    mitm: bool,
}

impl CollusionConfig {
    /// A node that does not collude (honest verification behaviour).
    pub fn none() -> Self {
        CollusionConfig::default()
    }

    /// A coalition member.
    ///
    /// * `cover_up` — vouch for coalition members during confirmations and
    ///   never blame them.
    /// * `mitm` — name colluders instead of the real partners in
    ///   acknowledgments (the man-in-the-middle attack).
    pub fn coalition(coalition: Arc<Vec<NodeId>>, cover_up: bool, mitm: bool) -> Self {
        CollusionConfig {
            coalition,
            cover_up,
            mitm,
        }
    }

    /// True if `node` belongs to the coalition.
    pub fn is_colluder(&self, node: NodeId) -> bool {
        self.coalition.contains(&node)
    }

    /// True if this node covers up coalition members.
    pub fn covers_up(&self) -> bool {
        self.cover_up && !self.coalition.is_empty()
    }

    /// True if this node mounts the man-in-the-middle attack.
    pub fn man_in_the_middle(&self) -> bool {
        self.mitm && !self.coalition.is_empty()
    }

    /// The coalition members other than `me`, used to fabricate partner lists
    /// for the man-in-the-middle attack.
    pub fn accomplices(&self, me: NodeId) -> Vec<NodeId> {
        self.coalition
            .iter()
            .copied()
            .filter(|c| *c != me)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coalition(ids: &[u32]) -> Arc<Vec<NodeId>> {
        Arc::new(ids.iter().map(|i| NodeId::new(*i)).collect())
    }

    #[test]
    fn non_colluder_has_no_special_behaviour() {
        let c = CollusionConfig::none();
        assert!(!c.covers_up());
        assert!(!c.man_in_the_middle());
        assert!(!c.is_colluder(NodeId::new(3)));
    }

    #[test]
    fn coalition_membership_and_accomplices() {
        let c = CollusionConfig::coalition(coalition(&[1, 2, 3]), true, true);
        assert!(c.is_colluder(NodeId::new(2)));
        assert!(!c.is_colluder(NodeId::new(9)));
        assert!(c.covers_up());
        assert!(c.man_in_the_middle());
        assert_eq!(
            c.accomplices(NodeId::new(2)),
            vec![NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn flags_require_a_coalition() {
        let c = CollusionConfig::coalition(Arc::new(Vec::new()), true, true);
        assert!(!c.covers_up());
        assert!(!c.man_in_the_middle());
    }
}
