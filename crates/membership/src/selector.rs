//! Partner-selection policies.
//!
//! Honest nodes select gossip partners uniformly at random (Section 3 of the
//! paper). Colluding freeriders *bias* this selection (Section 4.1(iii)),
//! choosing a colluder with probability `pm`.

use std::sync::Arc;

use lifting_sim::{NodeId, StreamId};
use rand::Rng;

use crate::directory::Directory;

/// How a node picks its `f` gossip partners each period.
#[derive(Debug, Clone)]
pub enum SelectionPolicy {
    /// Uniformly at random over all active nodes (honest behaviour).
    Uniform,
    /// With probability `pm` pick a colluder, otherwise pick uniformly among
    /// non-colluders. `pm = 0` degenerates to uniform selection over honest
    /// nodes only; `pm = 1` only ever picks colluders.
    ColludingBias {
        /// The coalition (includes the selecting node itself, which is skipped).
        colluders: Arc<Vec<NodeId>>,
        /// Probability of picking a colluder for each partner slot.
        pm: f64,
    },
}

/// Partner selector for one node.
#[derive(Debug, Clone)]
pub struct PartnerSelector {
    policy: SelectionPolicy,
}

impl PartnerSelector {
    /// Creates a selector with the given policy.
    pub fn new(policy: SelectionPolicy) -> Self {
        PartnerSelector { policy }
    }

    /// A uniform (honest) selector.
    pub fn uniform() -> Self {
        PartnerSelector::new(SelectionPolicy::Uniform)
    }

    /// The policy this selector applies.
    pub fn policy(&self) -> &SelectionPolicy {
        &self.policy
    }

    /// Selects `fanout` distinct partners for `me` among the participants of
    /// `stream` (active and subscribed) in `directory`.
    ///
    /// On a single-stream directory participation degenerates to activity and
    /// every policy consumes exactly the RNG draws it always did.
    pub fn select<R: Rng + ?Sized>(
        &mut self,
        me: NodeId,
        fanout: usize,
        directory: &Directory,
        stream: StreamId,
        rng: &mut R,
    ) -> Vec<NodeId> {
        match &self.policy {
            SelectionPolicy::Uniform => directory.sample_stream(rng, fanout, me, stream),
            SelectionPolicy::ColludingBias { colluders, pm } => {
                let active_colluders: Vec<NodeId> = colluders
                    .iter()
                    .copied()
                    .filter(|c| *c != me && directory.is_participant(*c, stream))
                    .collect();
                let mut picked: Vec<NodeId> = Vec::with_capacity(fanout);
                let mut guard = 0;
                while picked.len() < fanout && guard < fanout * 50 + 100 {
                    guard += 1;
                    let pick_colluder =
                        !active_colluders.is_empty() && rng.gen_bool(pm.clamp(0.0, 1.0));
                    let candidate = if pick_colluder {
                        active_colluders[rng.gen_range(0..active_colluders.len())]
                    } else {
                        match directory.sample_stream(rng, 1, me, stream).first() {
                            Some(c) => *c,
                            None => break,
                        }
                    };
                    if !picked.contains(&candidate) {
                        picked.push(candidate);
                    }
                }
                picked
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;

    fn coalition(ids: &[u32]) -> Arc<Vec<NodeId>> {
        Arc::new(ids.iter().map(|i| NodeId::new(*i)).collect())
    }

    #[test]
    fn uniform_selection_matches_directory_sampling() {
        let dir = Directory::new(100);
        let mut sel = PartnerSelector::uniform();
        let mut rng = derive_rng(1, 0);
        let partners = sel.select(NodeId::new(5), 12, &dir, StreamId::PRIMARY, &mut rng);
        assert_eq!(partners.len(), 12);
        assert!(!partners.contains(&NodeId::new(5)));
    }

    #[test]
    fn colluding_bias_prefers_colluders() {
        let dir = Directory::new(1000);
        let coalition = coalition(&(0..26).collect::<Vec<_>>());
        let mut sel = PartnerSelector::new(SelectionPolicy::ColludingBias {
            colluders: coalition.clone(),
            pm: 0.8,
        });
        let mut rng = derive_rng(2, 0);
        let mut colluder_picks = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let partners = sel.select(NodeId::new(0), 7, &dir, StreamId::PRIMARY, &mut rng);
            total += partners.len();
            colluder_picks += partners.iter().filter(|p| coalition.contains(p)).count();
        }
        let fraction = colluder_picks as f64 / total as f64;
        assert!(
            fraction > 0.6,
            "colluders should dominate the selection, got {fraction}"
        );
    }

    #[test]
    fn colluding_bias_zero_behaves_like_uniform_over_non_colluders() {
        let dir = Directory::new(100);
        let coalition = coalition(&[1, 2, 3]);
        let mut sel = PartnerSelector::new(SelectionPolicy::ColludingBias {
            colluders: coalition,
            pm: 0.0,
        });
        let mut rng = derive_rng(3, 0);
        let partners = sel.select(NodeId::new(0), 10, &dir, StreamId::PRIMARY, &mut rng);
        assert_eq!(partners.len(), 10);
    }

    #[test]
    fn expelled_colluders_are_not_selected() {
        let mut dir = Directory::new(100);
        dir.deactivate(NodeId::new(2));
        let mut sel = PartnerSelector::new(SelectionPolicy::ColludingBias {
            colluders: coalition(&[1, 2, 3]),
            pm: 1.0,
        });
        let mut rng = derive_rng(6, 0);
        for _ in 0..50 {
            let partners = sel.select(NodeId::new(1), 2, &dir, StreamId::PRIMARY, &mut rng);
            assert!(!partners.contains(&NodeId::new(2)));
        }
    }
}
