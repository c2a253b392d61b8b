//! The shard-parallel wave executor: processes a same-timestamp batch of
//! node-local events across the worker pool, bit-identically to sequential
//! dispatch — by running sequential dispatch's own two functions.
//!
//! # How a wave runs
//!
//! The engine hands [`SystemWorld`] a **wave**: the maximal run of due events
//! that share one timestamp and are all *node-local* (`GossipTick`,
//! `Deliver`, `Timer` — events whose handler mutates only the acting node's
//! stack). Execution splits into two phases:
//!
//! * **Phase A (shard-parallel).** Events are grouped by the shard owning
//!   their acting node ([`lifting_sim::ShardMap`], contiguous id ranges) and
//!   each shard's group is processed on the worker pool against a disjoint
//!   `&mut [NodeStack]` slice. A shard runs its events in ascending wave
//!   position through [`handle_local`] — the function sequential dispatch
//!   calls — and keeps the [`Downcall`]s it emits in its outbox, tagged with
//!   the wave position and the acting node, instead of committing them.
//! * **Phase B (sequential commit).** Wave positions are walked in order; for
//!   each, the world first lands the blame copies that have arrived, as it
//!   does before every sequential event, then the owning shard's outbox holds
//!   that event's effects at its front, in emission order, and they are
//!   handed one by one to [`SystemWorld::commit`] — the function sequential
//!   dispatch calls.
//!
//! # Why this is bit-identical
//!
//! Within one wave, a handler reads only its own stack, its private RNG and
//! the [`LocalView`](crate::world::LocalView) — none of which any same-wave
//! event mutates (membership, epochs and expulsions only change at barrier
//! events, which never join a wave; two events on the *same* node run on the
//! same shard in wave order) — so Phase A computes exactly the effects a
//! sequential loop would. A wave position belongs to exactly one shard and
//! that shard emits in position order, so the Phase B walk commits them in
//! exactly the sequential order: network RNG draws, blame booking and event
//! scheduling cannot tell the difference.
//!
//! # Cost
//!
//! Per-shard event lists and outboxes are recycled across waves; what a wave
//! still allocates is the job vector it fans out and, inside
//! [`lifting_sim::run_owned`], one slot vector and one result vector.

use std::collections::VecDeque;

use lifting_sim::{run_owned, Context, NodeId, ShardMap, ShardedWorld, SimTime};

use crate::layers::{Downcall, NodeStack};
use crate::message::Event;
use crate::world::{handle_local, SystemWorld};

/// Reusable per-shard buffers (events in, staged effects out).
#[derive(Debug, Default)]
struct ShardScratch {
    /// This shard's slice of the wave: `(wave position, acting node, seq,
    /// event)`.
    events: Vec<(usize, NodeId, u64, Event)>,
    /// The handler's output buffer for one event.
    downcalls: Vec<Downcall>,
    /// Staged effects `(wave position, acting node, effect)`, ascending by
    /// position and, within one position, in emission order.
    outbox: VecDeque<(usize, NodeId, Downcall)>,
}

/// Persistent sharded-execution state, created by
/// [`SystemWorld::set_shard_count`]: the shard map, the recycled per-shard
/// scratch and the observability counters.
#[derive(Debug)]
pub(crate) struct WaveExec {
    pub(crate) map: ShardMap,
    shards: Vec<ShardScratch>,
    /// The shard owning each position of the current wave.
    owners: Vec<usize>,
    /// Multi-event waves executed so far.
    pub(crate) waves: u64,
    /// Events processed through those waves.
    pub(crate) wave_events: u64,
    /// Cumulative effects committed per `(src, dst)` shard pair, at
    /// `src * shards + dst`: `src` owns the acting node, `dst` the receiver
    /// of a send (every other effect stays with `src`).
    staged: Vec<u64>,
}

impl WaveExec {
    pub(crate) fn new(map: ShardMap) -> Self {
        WaveExec {
            map,
            shards: std::iter::repeat_with(ShardScratch::default)
                .take(map.shards())
                .collect(),
            owners: Vec::new(),
            waves: 0,
            wave_events: 0,
            staged: vec![0; map.shards() * map.shards()],
        }
    }

    /// Cumulative staged effects for one `(src, dst)` shard pair.
    pub(crate) fn staged(&self, src: usize, dst: usize) -> u64 {
        self.staged[src * self.map.shards() + dst]
    }

    /// Cumulative staged effects over all waves: `(intra-shard, cross-shard)`.
    pub(crate) fn staged_totals(&self) -> (u64, u64) {
        let k = self.map.shards();
        let intra: u64 = (0..k).map(|s| self.staged(s, s)).sum();
        (intra, self.staged.iter().sum::<u64>() - intra)
    }
}

/// A shard's unit of Phase A work: its scratch plus its disjoint stack slice.
struct ShardJob<'a> {
    /// First node id owned by this shard (`stacks[i]` is node `base + i`).
    base: usize,
    stacks: &'a mut [NodeStack],
    scratch: ShardScratch,
}

impl SystemWorld {
    /// Executes one same-timestamp wave of node-local events (Phase A on the
    /// worker pool, Phase B sequentially). See the module docs for the
    /// determinism argument.
    pub(crate) fn execute_wave(
        &mut self,
        now: SimTime,
        wave: &mut Vec<(u64, Event)>,
        ctx: &mut Context<Event>,
    ) {
        let mut exec = self
            .wave_exec
            .take()
            .expect("execute_wave requires sharded execution state");
        let map = exec.map;
        exec.waves += 1;
        exec.wave_events += wave.len() as u64;

        // Group the wave per owning shard, remembering each event's global
        // (sequential) position and which shard took it.
        exec.owners.clear();
        for (pos, (seq, event)) in wave.drain(..).enumerate() {
            let node = self
                .local_node(&event)
                .expect("waves contain only node-local events");
            let shard = map.shard_of(node);
            exec.owners.push(shard);
            exec.shards[shard].events.push((pos, node, seq, event));
        }

        // Split the stacks into disjoint per-shard ranges and fan Phase A out
        // over the pool. The view the handlers read travels by copy; each job
        // owns its slice.
        let (view, mut rest) = self.split_local();
        let mut jobs: Vec<ShardJob> = Vec::with_capacity(map.shards());
        for (shard, scratch) in exec.shards.drain(..).enumerate() {
            let range = map.range(shard);
            let (stacks, tail) = rest.split_at_mut(range.len());
            rest = tail;
            jobs.push(ShardJob {
                base: range.start as usize,
                stacks,
                scratch,
            });
        }
        let results = run_owned(jobs, |_, mut job| {
            let ShardScratch {
                events,
                downcalls,
                outbox,
            } = &mut job.scratch;
            for (pos, node, seq, event) in events.drain(..) {
                let stack = &mut job.stacks[node.index() - job.base];
                handle_local(view, node, stack, (now, seq), event, downcalls);
                outbox.extend(downcalls.drain(..).map(|d| (pos, node, d)));
            }
            job.scratch
        });
        exec.shards.extend(results);

        // Phase B: every position's effects sit at the front of its owner's
        // outbox; commit them in position order, as a sequential loop would.
        // Sequential dispatch lands the arrived blame copies before each
        // event; no node-local handler reads a book, so landing them before
        // each event's effects instead puts the buffer through the same calls.
        for (pos, &src) in exec.owners.iter().enumerate() {
            self.settle_blames((now, 0));
            let outbox = &mut exec.shards[src].outbox;
            while outbox.front().is_some_and(|(p, ..)| *p == pos) {
                let (_, node, downcall) = outbox.pop_front().expect("front was just seen");
                let dst = downcall.receiver().map_or(src, |to| map.shard_of(to));
                exec.staged[src * map.shards() + dst] += 1;
                self.commit(node, downcall, now, ctx);
            }
        }
        debug_assert!(exec.shards.iter().all(|s| s.outbox.is_empty()));
        self.wave_exec = Some(exec);
    }
}
