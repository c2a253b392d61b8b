//! The membership directory: which nodes exist, which are still active, and
//! which streams (channels) each node subscribes to.

use lifting_sim::{NodeId, StreamId};
use rand::Rng;

/// Full-membership directory.
///
/// The directory knows every node that ever joined and whether it is still
/// active (not expelled, not departed). Uniform sampling is performed over the
/// active nodes only, which is how an expulsion propagates: once the managers
/// expel a node, honest nodes stop selecting it as a partner.
///
/// **Streams.** A multi-channel deployment keeps one subscription set per
/// stream: churn and expulsion act on the *node* (activity), subscriptions on
/// the *stream*. A directory built with [`new`](Directory::new) has a single
/// implicit stream everyone subscribes to — the per-stream paths then take
/// the exact same branches and RNG draws as the stream-less ones, which is
/// what keeps single-stream scenarios bit-identical.
#[derive(Debug, Clone)]
pub struct Directory {
    active: Vec<bool>,
    active_count: usize,
    /// Per-stream subscriber sets, indexed by `StreamId` (entry 0 is the
    /// primary stream). Empty when only the single implicit all-subscribed
    /// stream exists (the overwhelmingly common case).
    subscriptions: Vec<StreamSubscribers>,
}

#[derive(Debug, Clone)]
struct StreamSubscribers {
    subscribed: Vec<bool>,
    /// Number of nodes both active and subscribed (kept incrementally so the
    /// per-stream sampler has the same O(1) availability check as the global
    /// one).
    active_subscribed: usize,
}

impl Directory {
    /// Creates a directory with `n` active nodes, identified `0..n`, serving
    /// a single stream that every node subscribes to.
    pub fn new(n: usize) -> Self {
        Directory {
            active: vec![true; n],
            active_count: n,
            subscriptions: Vec::new(),
        }
    }

    /// Creates a directory with `n` active nodes serving `streams` channels.
    /// Every node starts subscribed to every stream; restrict audiences with
    /// [`unsubscribe`](Directory::unsubscribe).
    ///
    /// With `streams <= 1` this is identical to [`new`](Directory::new): no
    /// per-stream state exists and every sampling path short-circuits to the
    /// stream-less one.
    pub fn with_streams(n: usize, streams: usize) -> Self {
        let mut dir = Directory::new(n);
        if streams > 1 {
            dir.subscriptions = (0..streams)
                .map(|_| StreamSubscribers {
                    subscribed: vec![true; n],
                    active_subscribed: n,
                })
                .collect();
        }
        dir
    }

    /// Number of streams the directory tracks (1 when no per-stream
    /// subscription state exists).
    pub fn stream_count(&self) -> usize {
        self.subscriptions.len().max(1)
    }

    /// True if `node` subscribes to `stream`. Always true for the implicit
    /// single stream of a [`new`](Directory::new)-built directory.
    pub fn is_subscribed(&self, node: NodeId, stream: StreamId) -> bool {
        match self.subscriptions.get(stream.index()) {
            None => self.subscriptions.is_empty(),
            Some(subs) => subs.subscribed.get(node.index()).copied().unwrap_or(false),
        }
    }

    /// True if `node` currently participates in `stream`: active **and**
    /// subscribed. This is the predicate every per-stream selection site
    /// (gossip partners, witnesses) samples under.
    pub fn is_participant(&self, node: NodeId, stream: StreamId) -> bool {
        self.is_active(node) && self.is_subscribed(node, stream)
    }

    /// Subscribes `node` to `stream` (no-op on a single-stream directory).
    pub fn subscribe(&mut self, node: NodeId, stream: StreamId) {
        let active = self.is_active(node);
        if let Some(subs) = self.subscriptions.get_mut(stream.index()) {
            if let Some(s) = subs.subscribed.get_mut(node.index()) {
                if !*s {
                    *s = true;
                    if active {
                        subs.active_subscribed += 1;
                    }
                }
            }
        }
    }

    /// Unsubscribes `node` from `stream` (no-op on a single-stream
    /// directory: the implicit stream has no subscription state to shrink).
    pub fn unsubscribe(&mut self, node: NodeId, stream: StreamId) {
        let active = self.is_active(node);
        if let Some(subs) = self.subscriptions.get_mut(stream.index()) {
            if let Some(s) = subs.subscribed.get_mut(node.index()) {
                if *s {
                    *s = false;
                    if active {
                        subs.active_subscribed -= 1;
                    }
                }
            }
        }
    }

    /// Number of nodes both active and subscribed to `stream`.
    pub fn participant_count(&self, stream: StreamId) -> usize {
        match self.subscriptions.get(stream.index()) {
            None => self.active_count,
            Some(subs) => subs.active_subscribed,
        }
    }

    /// Total number of nodes ever known (active or not).
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True if the directory knows no nodes.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Heap bytes held by the membership tables (capacity walk,
    /// deterministic).
    pub fn estimated_heap_bytes(&self) -> usize {
        self.active.capacity()
            + self
                .subscriptions
                .iter()
                .map(|s| s.subscribed.capacity())
                .sum::<usize>()
            + self.subscriptions.capacity() * std::mem::size_of::<StreamSubscribers>()
    }

    /// True if the node is currently active.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active.get(node.index()).copied().unwrap_or(false)
    }

    /// Marks a node inactive (expelled or departed). Idempotent. Activity
    /// acts on the node: its stream subscriptions are untouched (a rejoining
    /// node resumes the same channels), only the per-stream participant
    /// counts shrink while it is away.
    pub fn deactivate(&mut self, node: NodeId) {
        if let Some(a) = self.active.get_mut(node.index()) {
            if *a {
                *a = false;
                self.active_count -= 1;
                for subs in &mut self.subscriptions {
                    if subs.subscribed.get(node.index()).copied().unwrap_or(false) {
                        subs.active_subscribed -= 1;
                    }
                }
            }
        }
    }

    /// Re-activates a node (e.g. rejoin after churn). Idempotent.
    pub fn activate(&mut self, node: NodeId) {
        if let Some(a) = self.active.get_mut(node.index()) {
            if !*a {
                *a = true;
                self.active_count += 1;
                for subs in &mut self.subscriptions {
                    if subs.subscribed.get(node.index()).copied().unwrap_or(false) {
                        subs.active_subscribed += 1;
                    }
                }
            }
        }
    }

    /// Iterates over the active node identifiers.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(i, _)| NodeId::new(i as u32))
    }

    /// Iterates over the nodes both active and subscribed to `stream`.
    pub fn participants(&self, stream: StreamId) -> impl Iterator<Item = NodeId> + '_ {
        self.active_nodes()
            .filter(move |n| self.is_subscribed(*n, stream))
    }

    /// Samples `count` distinct active nodes uniformly at random, excluding
    /// `exclude`. Returns fewer than `count` nodes if not enough are active.
    pub fn sample_uniform<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        exclude: NodeId,
    ) -> Vec<NodeId> {
        self.sample_where(rng, count, exclude, None)
    }

    /// Samples `count` distinct **participants of `stream`** (active and
    /// subscribed) uniformly at random, excluding `exclude`.
    ///
    /// On a single-stream directory (no subscription state) the eligibility
    /// predicate degenerates to plain activity and the RNG draw sequence is
    /// identical to [`sample_uniform`](Self::sample_uniform) — subscription
    /// checks never consume randomness.
    pub fn sample_stream<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        exclude: NodeId,
        stream: StreamId,
    ) -> Vec<NodeId> {
        let filter = if self.subscriptions.is_empty() {
            None // single stream: exactly the stream-less path
        } else {
            Some(stream)
        };
        self.sample_where(rng, count, exclude, filter)
    }

    /// The one sampling routine. `stream = None` means "any active node";
    /// `Some(s)` additionally requires subscription to `s`. The two modes
    /// share every draw site so the filter can only *reject more*, never
    /// reorder the sequence of RNG consumptions for the candidates it accepts.
    fn sample_where<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        exclude: NodeId,
        stream: Option<StreamId>,
    ) -> Vec<NodeId> {
        let mut picked = Vec::with_capacity(count);
        let eligible = |c: NodeId| match stream {
            None => self.is_active(c),
            Some(s) => self.is_participant(c, s),
        };
        let pool = match stream {
            None => self.active_count,
            Some(s) => self.participant_count(s),
        };
        let target = count.min(pool.saturating_sub(usize::from(eligible(exclude))));
        if target == 0 {
            return picked;
        }
        // Rejection sampling: cheap because fanout << n in all experiments.
        // Falls back to a full scan if the eligible fraction is tiny.
        let n = self.active.len();
        let mut attempts = 0usize;
        let max_attempts = 50 * count.max(1) + 100;
        while picked.len() < target && attempts < max_attempts {
            attempts += 1;
            let candidate = NodeId::new(rng.gen_range(0..n as u32));
            if candidate == exclude || !eligible(candidate) || picked.contains(&candidate) {
                continue;
            }
            picked.push(candidate);
        }
        if picked.len() < target {
            // Dense fallback: enumerate remaining eligible nodes and fill up.
            let mut rest: Vec<NodeId> = self
                .active_nodes()
                .filter(|c| eligible(*c) && *c != exclude && !picked.contains(c))
                .collect();
            // Fisher–Yates partial shuffle.
            let need = target - picked.len();
            for i in 0..need.min(rest.len()) {
                let j = rng.gen_range(i..rest.len());
                rest.swap(i, j);
                picked.push(rest[i]);
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;
    use std::collections::HashSet;

    #[test]
    fn join_and_deactivate_update_counts() {
        let mut dir = Directory::new(3);
        assert_eq!(dir.len(), 3);
        assert_eq!(dir.active_count(), 3);
        dir.deactivate(NodeId::new(1));
        dir.deactivate(NodeId::new(1));
        assert_eq!(dir.active_count(), 2);
        assert!(!dir.is_active(NodeId::new(1)));
        dir.activate(NodeId::new(1));
        dir.activate(NodeId::new(1));
        assert_eq!(dir.active_count(), 3);
    }

    #[test]
    fn sample_excludes_self_and_inactive() {
        let mut dir = Directory::new(50);
        dir.deactivate(NodeId::new(10));
        let mut rng = derive_rng(5, 0);
        for _ in 0..200 {
            let s = dir.sample_uniform(&mut rng, 7, NodeId::new(0));
            assert_eq!(s.len(), 7);
            assert!(!s.contains(&NodeId::new(0)));
            assert!(!s.contains(&NodeId::new(10)));
            let unique: HashSet<_> = s.iter().collect();
            assert_eq!(unique.len(), 7, "samples must be distinct");
        }
    }

    #[test]
    fn sample_handles_small_populations() {
        let dir = Directory::new(3);
        let mut rng = derive_rng(6, 0);
        let s = dir.sample_uniform(&mut rng, 10, NodeId::new(2));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&NodeId::new(2)));
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let dir = Directory::new(100);
        let mut rng = derive_rng(7, 0);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            for id in dir.sample_uniform(&mut rng, 5, NodeId::new(0)) {
                counts[id.index()] += 1;
            }
        }
        // Every selectable node (1..100) should be picked roughly 20000*5/99 ≈ 1010 times.
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (700..1400).contains(&c),
                "node {i} selected {c} times, expected ~1010"
            );
        }
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn subscriptions_gate_participation_but_not_activity() {
        use lifting_sim::StreamId;
        let s0 = StreamId::new(0);
        let s1 = StreamId::new(1);
        let mut dir = Directory::with_streams(10, 2);
        assert_eq!(dir.stream_count(), 2);
        assert_eq!(dir.participant_count(s1), 10);
        dir.unsubscribe(NodeId::new(3), s1);
        assert!(dir.is_active(NodeId::new(3)));
        assert!(dir.is_participant(NodeId::new(3), s0));
        assert!(!dir.is_participant(NodeId::new(3), s1));
        assert_eq!(dir.participant_count(s1), 9);
        // Churn acts on the node: departing removes it from every stream's
        // participant set, rejoining restores exactly its subscriptions.
        dir.deactivate(NodeId::new(4));
        assert_eq!(dir.participant_count(s0), 9);
        assert_eq!(dir.participant_count(s1), 8);
        dir.activate(NodeId::new(4));
        assert_eq!(dir.participant_count(s1), 9);
        // Deactivating an unsubscribed node does not double-shrink the count.
        dir.deactivate(NodeId::new(3));
        assert_eq!(dir.participant_count(s1), 9);
        dir.activate(NodeId::new(3));
        dir.subscribe(NodeId::new(3), s1);
        assert_eq!(dir.participant_count(s1), 10);
    }

    #[test]
    fn stream_sampling_draws_identically_to_uniform_when_all_subscribed() {
        use lifting_sim::StreamId;
        // The bit-compat contract: on a single-stream directory (and on a
        // multi-stream one whose audience is everyone) the per-stream sampler
        // must consume the exact same RNG sequence as the stream-less one.
        let mut single = Directory::new(40);
        let mut multi = Directory::with_streams(40, 2);
        single.deactivate(NodeId::new(7));
        multi.deactivate(NodeId::new(7));
        let mut a = derive_rng(13, 0);
        let mut b = derive_rng(13, 0);
        let mut c = derive_rng(13, 0);
        for _ in 0..50 {
            let plain = single.sample_uniform(&mut a, 6, NodeId::new(2));
            let s0 = single.sample_stream(&mut b, 6, NodeId::new(2), StreamId::PRIMARY);
            let full = multi.sample_stream(&mut c, 6, NodeId::new(2), StreamId::new(1));
            assert_eq!(plain, s0, "single-stream draw sequences must match");
            assert_eq!(plain, full, "all-subscribed stream must draw the same");
        }
    }

    #[test]
    fn stream_sampling_only_selects_subscribers() {
        use lifting_sim::StreamId;
        let s1 = StreamId::new(1);
        let mut dir = Directory::with_streams(30, 2);
        // Stream 1's audience: nodes 15..30 only.
        for i in 0..15u32 {
            dir.unsubscribe(NodeId::new(i), s1);
        }
        let mut rng = derive_rng(14, 0);
        for _ in 0..100 {
            let picked = dir.sample_stream(&mut rng, 5, NodeId::new(20), s1);
            assert_eq!(picked.len(), 5);
            for p in &picked {
                assert!(dir.is_participant(*p, s1), "{p} is not in the audience");
                assert_ne!(*p, NodeId::new(20));
            }
        }
        // Asking for more than the audience clips to it.
        let all = dir.sample_stream(&mut rng, 40, NodeId::new(20), s1);
        assert_eq!(all.len(), 14);
    }

    #[test]
    fn sample_with_mostly_inactive_population_uses_fallback() {
        let mut dir = Directory::new(1000);
        for i in 0..995u32 {
            dir.deactivate(NodeId::new(i));
        }
        let mut rng = derive_rng(8, 0);
        let s = dir.sample_uniform(&mut rng, 4, NodeId::new(999));
        assert_eq!(s.len(), 4);
        for node in &s {
            assert!(dir.is_active(*node));
            assert_ne!(*node, NodeId::new(999));
        }
    }
}
