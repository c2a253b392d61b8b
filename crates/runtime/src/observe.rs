//! Metric readouts of a live [`SystemWorld`]: score snapshots, the
//! stream-health curves (aggregate and per stream), the memory walk, the
//! per-node blame provenance and counters, and the assembled [`RunOutcome`].
//!
//! Kept apart from `world.rs` so the world module stays focused on event
//! dispatch and the cross-layer glue.

use lifting_gossip::{Chunk, StreamHealth};
use lifting_reputation::ManagerState;
use lifting_sim::{NodeId, SimDuration, SimTime, StreamId};

use crate::inflight::{land, BlamesInFlight};
use crate::layers::NodeStack;
use crate::metrics::{
    layer_breakdown, ChurnStats, NodeOutcome, RunOutcome, ScoreSnapshot, StreamOutcome,
};
use crate::world::SystemWorld;

impl SystemWorld {
    /// Reads the normalized score of every node (min vote over its managers)
    /// at `at`, the instant the engine stopped at, together with its
    /// expulsion status. Blame copies that arrived by `at` but still wait
    /// for the next event to land them are folded into copies of their
    /// managers' books, so the scores are those of a world where every
    /// copy was delivered as an event.
    pub fn score_snapshot(&self, at: SimTime) -> ScoreSnapshot {
        let mut folded: Vec<(NodeId, ManagerState)> = Vec::new();
        for blame in self.blames_in_flight.due(at) {
            let i = match folded.binary_search_by_key(&blame.manager, |(m, _)| *m) {
                Ok(i) => i,
                Err(i) => {
                    let book = self.stacks[blame.manager.index()].reputation.clone();
                    folded.insert(i, (blame.manager, book));
                    i
                }
            };
            land(&self.directory, &mut folded[i].1, &blame);
        }
        self.snapshot_of(at, &folded)
    }

    /// The score snapshot over the live books, except those of `folded`
    /// (sorted by manager), which replace them.
    pub(crate) fn snapshot_of(
        &self,
        at: SimTime,
        folded: &[(NodeId, ManagerState)],
    ) -> ScoreSnapshot {
        let book = |m: NodeId| match folded.binary_search_by_key(&m, |(id, _)| *id) {
            Ok(i) => &folded[i].1,
            Err(_) => &self.stacks[m.index()].reputation,
        };
        let outcomes = (1..self.config.nodes)
            .map(|i| {
                let id = NodeId::new(i as u32);
                let replies: Vec<f64> = self
                    .assignment
                    .managers_of(id)
                    .iter()
                    .filter_map(|m| book(*m).normalized_score(id))
                    .collect();
                NodeOutcome {
                    node: id,
                    is_freerider: self.config.is_freerider(i),
                    score: lifting_reputation::aggregate_min(&replies),
                    expelled: self.expelled[i],
                }
            })
            .collect();
        ScoreSnapshot { at, outcomes }
    }

    /// Computes the primary stream's health curve (Figure 1) over the given
    /// lags, using only the chunks emitted at least `settle` before `now` so
    /// that chunks still in flight do not bias the result.
    pub fn stream_health(
        &self,
        now: SimTime,
        lags: &[SimDuration],
        settle: SimDuration,
    ) -> StreamHealth {
        self.stream_health_of(StreamId::PRIMARY, now, lags, settle)
    }

    /// The health curve of one stream, computed over that stream's
    /// subscribers only (a node that never tuned in cannot be "missing" the
    /// channel). In single-channel runs every node subscribes, so this is
    /// the historical whole-population curve.
    pub fn stream_health_of(
        &self,
        stream: StreamId,
        now: SimTime,
        lags: &[SimDuration],
        settle: SimDuration,
    ) -> StreamHealth {
        let reference: Vec<Chunk> = self.sources[stream.index()]
            .emitted_chunks()
            .filter(|c| c.emitted_at + settle <= now)
            .collect();
        let buffers: Vec<_> = self
            .stacks
            .iter()
            .skip(1)
            .filter(|s| self.directory.is_subscribed(s.id(), stream))
            .map(|s| s.plane(stream).gossip.playout())
            .collect();
        StreamHealth::compute(
            &buffers,
            &reference,
            lags,
            self.config.gossip.clear_stream_threshold,
        )
    }

    /// Estimated heap bytes of the whole simulated system's protocol state,
    /// by component: every stack's tables, the network's link tables, the
    /// directory, the manager assignment and the world-level dense columns. A
    /// deterministic capacity walk (no allocator queries), so the figures are
    /// bit-identical across worker counts and shard counts; executor scratch
    /// is deliberately excluded — it belongs to the runner, not to the
    /// simulated system. A shared `Arc` list is split over the holders the
    /// walk visits (`lifting_gossip::chunk::shared_list_heap_bytes`).
    pub fn memory_breakdown(&self) -> Vec<(&'static str, u64)> {
        use crate::layers::StreamPlane;
        use std::mem::size_of;
        let (mut chunks, mut offers, mut history, mut books) = (0, 0, 0, 0);
        let mut checks = [0; 3];
        let mut inline = self.stacks.capacity() * size_of::<NodeStack>();
        for stack in &self.stacks {
            for plane in &stack.planes {
                let table = plane.gossip.playout().estimated_heap_bytes();
                chunks += table;
                offers += plane.gossip.estimated_heap_bytes() - table;
                history += plane.verifier.history().estimated_heap_bytes();
                for (sum, bytes) in checks.iter_mut().zip(plane.verifier.check_heap_bytes()) {
                    *sum += bytes;
                }
            }
            books += stack.reputation.estimated_heap_bytes();
            inline += stack.planes.capacity() * size_of::<StreamPlane>();
        }
        let columns = self.epochs.capacity() * size_of::<u32>()
            + self.period.voter_heap_bytes()
            + self.blame_counts.capacity() * size_of::<u64>()
            + self.blame_values.capacity() * size_of::<f64>()
            + self.expelled.capacity()
            + self.partition_holds.capacity();
        [
            ("chunk tables", chunks),
            ("offers and fresh lists", offers),
            ("serve checks", checks[0]),
            ("ack checks", checks[1]),
            ("confirm checks", checks[2]),
            ("history", history),
            ("score books", books),
            ("inline NodeStack / StreamPlane", inline),
            ("links", self.network.estimated_heap_bytes()),
            ("directory", self.directory.estimated_heap_bytes()),
            ("assignment", self.assignment.estimated_heap_bytes()),
            ("blames in flight", self.blames_in_flight.heap_bytes()),
            ("world columns", columns),
        ]
        .map(|(name, bytes)| (name, bytes as u64))
        .to_vec()
    }

    /// The sum of [`memory_breakdown`](Self::memory_breakdown).
    pub fn estimated_memory_bytes(&self) -> u64 {
        self.memory_breakdown().iter().map(|(_, bytes)| bytes).sum()
    }

    /// [`estimated_memory_bytes`](Self::estimated_memory_bytes) divided by
    /// the population — the scale experiments' headline memory metric.
    pub fn memory_per_node_bytes(&self) -> f64 {
        self.estimated_memory_bytes() as f64 / self.config.nodes.max(1) as f64
    }

    /// Membership dynamics observed so far (all zero in a static population).
    pub fn churn_stats(&self) -> ChurnStats {
        let expelled = self.expelled_count();
        ChurnStats {
            sessions: self.churn_sessions,
            departures: self.churn_departures,
            rejoins: self.churn_rejoins,
            audits_aborted_by_departure: self.audits_aborted_by_departure,
            offline_at_end: self.directory.len() - self.directory.active_count() - expelled,
        }
    }

    /// Per-stream readouts: each channel's health over its own audience plus
    /// the blame volume its verification attributed.
    pub fn per_stream_outcomes(
        &self,
        now: SimTime,
        lags: &[SimDuration],
        settle: SimDuration,
    ) -> Vec<StreamOutcome> {
        (0..self.stream_count())
            .map(|s| {
                let stream = StreamId::new(s as u16);
                let subscribers = (1..self.config.nodes)
                    .filter(|i| self.directory.is_subscribed(NodeId::new(*i as u32), stream))
                    .count();
                let blames = (0..self.config.nodes)
                    .map(|i| self.blames_against(NodeId::new(i as u32), stream))
                    .sum();
                let blame_value = (0..self.config.nodes)
                    .map(|i| self.blame_value_against(NodeId::new(i as u32), stream))
                    .sum();
                let freerider_blame_value = (0..self.config.nodes)
                    .filter(|i| self.config.is_freerider(*i))
                    .map(|i| self.blame_value_against(NodeId::new(i as u32), stream))
                    .sum();
                StreamOutcome {
                    stream,
                    subscribers,
                    emitted_chunks: self.sources[s].emitted() as usize,
                    stream_health: self.stream_health_of(stream, now, lags, settle),
                    blames,
                    blame_value,
                    freerider_blame_value,
                }
            })
            .collect()
    }

    /// Assembles the final outcome of a run.
    pub fn run_outcome(
        &self,
        now: SimTime,
        snapshots: Vec<ScoreSnapshot>,
        lags: &[SimDuration],
    ) -> RunOutcome {
        let traffic = self.network.stats().report();
        let settle = SimDuration::from_secs(10);
        // The headline curve is stream 0's: reuse the per-stream readout
        // rather than paying for the most expensive metric twice.
        let per_stream = self.per_stream_outcomes(now, lags, settle);
        let stream_health = per_stream[0].stream_health.clone();
        RunOutcome {
            finals: self.score_snapshot(now),
            snapshots,
            layer_traffic: layer_breakdown(&traffic),
            traffic,
            emitted_chunks: self.emitted_chunks(),
            stream_health,
            per_stream,
            expelled_count: self.expelled_count(),
            churn: self.churn_stats(),
            confirm_retry: self.confirm_retry_totals(),
            audit_rpc: self.audits.rpc_stats(),
            recovery: self.period.recovery().cloned(),
            memory_per_node_bytes: self.memory_per_node_bytes(),
            duration: now.saturating_since(SimTime::ZERO),
        }
    }

    /// Confirm-RPC hardening counters summed over every node's planes (all
    /// zero when `confirm_retries` is 0 — the paper's semantics).
    pub fn confirm_retry_totals(&self) -> lifting_core::ConfirmRetryStats {
        self.stacks.iter().map(NodeStack::confirm_retry_stats).sum()
    }

    /// The per-period score compensation a fully subscribed node collects
    /// (the sum over every stream's credit; in a single-channel run this is
    /// exactly the primary stream's Equation 5 value).
    pub fn compensation_per_period(&self) -> f64 {
        self.compensation_per_stream.iter().sum()
    }

    /// Number of concurrent streams this world broadcasts.
    pub fn stream_count(&self) -> usize {
        self.sources.len()
    }

    /// The chunks emitted by the primary stream's source so far.
    pub fn emitted_chunks(&self) -> Vec<Chunk> {
        self.sources[0].emitted_chunks().collect()
    }

    /// Blames booked against `node` that were emitted by `stream`'s
    /// verification plane (provenance; the score itself aggregates all
    /// streams).
    pub fn blames_against(&self, node: NodeId, stream: StreamId) -> u64 {
        self.blame_counts[node.index() * self.stream_count() + stream.index()]
    }

    /// Total blame **value** booked against `node` from `stream`'s
    /// verification plane (the quantity the score actually sums; counts
    /// weigh a heavy missing-ack blame the same as a sliver of wrongful
    /// partial-serve noise, values do not).
    pub fn blame_value_against(&self, node: NodeId, stream: StreamId) -> f64 {
        self.blame_values[node.index() * self.stream_count() + stream.index()]
    }

    /// Number of nodes expelled so far.
    pub fn expelled_count(&self) -> usize {
        self.expelled.iter().filter(|e| **e).count()
    }

    /// True if `node` has been expelled.
    pub fn is_expelled(&self, node: NodeId) -> bool {
        self.expelled[node.index()]
    }

    /// The copies in flight (observability and tests).
    pub fn blames_in_flight(&self) -> &BlamesInFlight {
        &self.blames_in_flight
    }

    /// Channel switches executed so far by the workload plan (zap-style
    /// scenarios; 0 everywhere else).
    pub fn workload_switches(&self) -> u64 {
        self.workload_switches
    }
}
