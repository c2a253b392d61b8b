//! The simulated system: the node stacks, the network, the audit plane and
//! the world-level glue (event dispatch, blame routing, expulsions, and the
//! disturbance edges of the scenario's workload plan).
//!
//! Blames do not travel as queued events: `SystemWorld::route_blame` draws
//! each manager copy's delivery from the network and keeps the delivered
//! copies in flight ([`crate::inflight`]); every event first lands the copies
//! the queue would have popped before it. Nor do witness answers:
//! `SystemWorld::send` lands each delivered `ConfirmResponse` in the
//! receiver's confirm check at once, keyed the same way.
//!
//! All node-local protocol logic lives in [`crate::layers`]; the world only
//! routes events into the right [`NodeStack`] (`handle_local`, the one
//! place the three node-local events are gated and handled), commits the
//! [`Downcall`]s the stacks emit (`SystemWorld::commit`, the one place they
//! reach the network and the scheduler), coordinates cross-node concerns
//! (audits, membership transitions, expulsions) and reads out the metrics.
//! The shard-parallel executor in `wave.rs` calls the same two
//! functions. A period end runs the steps of the period plane
//! (`period.rs`) and applies their effects.
//!
//! **Membership invariant**: the [`Directory`] is the single source of truth
//! for who participates. Every selection site — gossip partners, audit
//! targets, audit witnesses — samples from the directory's active set, every
//! event dispatch gates on it, and the two sends that can address a node
//! that has left (a gossip or verification message, a blame copy) ask it
//! before the network sees them (`SystemWorld::transmit`), so an expelled or
//! departed node can never be handed a partner or witness slot nor receive
//! traffic. The network knows nothing of membership; it owns the partitions.
//! `expelled` only records *why* a node is inactive (expulsion is permanent;
//! departure is reversible).

use lifting_core::Blame;
use lifting_gossip::StreamSource;
use lifting_membership::{Directory, Sessions, WorkloadPlan};
use lifting_net::{DeliveryOutcome, Network, TrafficCategory};
use lifting_reputation::{ManagerAssignment, ManagerState};
use lifting_sim::{Context, NodeId, SimDuration, SimTime, StreamId, World};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;

use lifting_core::VerificationMessage;

use crate::builder;
use crate::inflight::{land, BlamesInFlight, InFlightBlame};
use crate::layers::{AuditCoordinator, AuditOutcome, Downcall, FeedbackAction, NodeStack};
use crate::message::{Event, Message, CHURN_EPOCH_ANY};
use crate::metrics::{ScoreSnapshot, WaveKind};
use crate::period::PeriodPlane;
use crate::scenario::ScenarioConfig;
use crate::wave::WaveExec;

/// The whole simulated system.
pub struct SystemWorld {
    pub(crate) config: ScenarioConfig,
    pub(crate) directory: Directory,
    pub(crate) network: Network,
    pub(crate) stacks: Vec<NodeStack>,
    pub(crate) assignment: ManagerAssignment,
    pub(crate) audits: AuditCoordinator,
    /// One broadcast source per stream, indexed by [`StreamId`]: its clock
    /// and count rebuild the chunks it emitted (the reference sets for
    /// stream health) at readout.
    pub(crate) sources: Vec<StreamSource>,
    /// Per stream, the per-period wrongful-blame compensation (Equation 5
    /// evaluated at that stream's rate); a node's credit is the sum over its
    /// subscriptions.
    pub(crate) compensation_per_stream: Vec<f64>,
    /// Per `(node, stream)` (row-major, `node * streams + stream`): blames
    /// routed to the node's managers, attributed to the stream whose
    /// verification emitted them — occurrence counts and summed values.
    /// Cross-stream provenance for metrics and the aggregation invariant
    /// tests; scoring never reads either.
    pub(crate) blame_counts: Vec<u64>,
    pub(crate) blame_values: Vec<f64>,
    /// Delivered blame copies that have not reached their manager yet.
    pub(crate) blames_in_flight: BlamesInFlight,
    pub(crate) expelled: Vec<bool>,
    /// Per node: the session epoch, bumped when churn rebuilds the node's
    /// stack, so events scheduled for an earlier session are dropped (see
    /// [`Event`]). A dense column, not a stack field: every event gate reads
    /// it, and the wave executor shares it across shard threads.
    pub(crate) epochs: Vec<u32>,
    /// Sharded-execution state; `None` runs the classic sequential dispatch
    /// (see [`crate::wave`] and [`SystemWorld::set_shard_count`]).
    pub(crate) wave_exec: Option<WaveExec>,
    /// The declared disturbance generator's plan (empty when the scenario
    /// declares none), expanded once by the builder: its edges are scheduled
    /// by [`SystemWorld::initial_events`]; steady churn's live draws and the
    /// partition waves' members are read as the run progresses.
    pub(crate) workload: WorkloadPlan,
    pub(crate) churn_departures: u64,
    pub(crate) churn_rejoins: u64,
    /// Online sessions begun (nodes that started online plus every rejoin).
    pub(crate) churn_sessions: u64,
    /// Channel switches executed by the workload plan (zap scenarios).
    pub(crate) workload_switches: u64,
    /// Audits whose negative verdict was discarded because a witness named in
    /// the audited history had departed (benefit of the doubt: absence of a
    /// confirmation is indistinguishable from churn).
    pub(crate) audits_aborted_by_departure: u64,
    /// The freerider coalition (kept for stack rebuilds after a rejoin).
    pub(crate) coalition: Arc<Vec<NodeId>>,
    pub(crate) rng: SmallRng,
    /// Draws that only exist in multi-channel runs (audit stream picks).
    /// Never consumed when one stream runs, so single-stream scenarios keep
    /// their exact RNG stream consumption.
    pub(crate) mstream_rng: SmallRng,
    /// Recycled scratch buffer for stack downcalls (allocation-free loop).
    pub(crate) scratch_downcalls: Vec<Downcall>,
    /// Recycled scratch for audit-target candidates, so the periodic events
    /// allocate nothing at steady state either.
    pub(crate) scratch_nodes: Vec<NodeId>,
    /// Everything that changes only at a period end: the period count, the
    /// applied threshold, the expulsion voters and the recovery trace.
    pub(crate) period: PeriodPlane,
}

impl SystemWorld {
    /// Builds the system described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario does not validate (a field out of range, a
    /// cross-field rule); use [`builder::build_world`] to get the typed
    /// error instead.
    pub fn new(config: ScenarioConfig) -> Self {
        builder::build_world(config).unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// The scenario this world was built from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The simulated network (traffic statistics, partitions).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The per-node protocol stacks.
    pub fn stacks(&self) -> &[NodeStack] {
        &self.stacks
    }

    /// The membership directory — the single source of truth for which nodes
    /// currently participate (neither expelled nor departed).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Forcibly removes `node` from the system mid-run, as a churn departure
    /// would (deactivated in the directory, stack left to be torn down on a
    /// later rejoin). Exposed for fault injection between engine segments
    /// and for invariant tests; `now` is where the last segment stopped, and
    /// the blames that arrived by then land first.
    pub fn force_depart(&mut self, node: NodeId, now: SimTime) {
        self.settle_blames((now, u64::MAX));
        if node != NodeId::new(0) && self.directory.is_active(node) {
            self.depart(node);
        }
    }

    /// A departure: deactivated in the directory.
    fn depart(&mut self, node: NodeId) {
        self.directory.deactivate(node);
        self.churn_departures += 1;
    }

    /// Schedules the initial events of a run.
    pub fn initial_events(&self) -> Vec<(SimTime, Event)> {
        builder::initial_events(self)
    }

    fn lifting_on(&self) -> bool {
        self.config.lifting_enabled
    }

    /// Splits the world into what a node-local handler reads and the stacks
    /// it mutates (one of them, or a disjoint range per shard).
    pub(crate) fn split_local(&mut self) -> (LocalView<'_>, &mut [NodeStack]) {
        let view = LocalView {
            directory: &self.directory,
            epochs: &self.epochs,
            lifting_on: self.config.lifting_enabled,
        };
        (view, &mut self.stacks)
    }

    /// Switches the world to shard-parallel wave execution over `shards`
    /// contiguous node ranges (1 or 0 restores classic sequential dispatch).
    /// Results are bit-identical at any shard count; only wall-clock time and
    /// the per-shard observability counters change. Call before running the
    /// engine via [`lifting_sim::Engine::run_until_sharded`].
    pub fn set_shard_count(&mut self, shards: usize) {
        let map = lifting_sim::ShardMap::new(self.config.nodes, shards);
        self.wave_exec = (map.shards() > 1).then(|| WaveExec::new(map));
    }

    /// Cumulative wave-executor counters, in this order: `waves` (multi-event
    /// waves executed), `events in waves` (events those waves held),
    /// `intra-shard` (effects staged whose destination is the acting node's
    /// own shard) and `cross-shard` (sends staged for a node of another
    /// shard). `None` when running sequentially. Observability only — never
    /// part of a [`crate::RunOutcome`], which must be shard-invariant.
    pub fn wave_stats(&self) -> Option<(u64, u64, u64, u64)> {
        self.wave_exec
            .as_ref()
            .map(|e| (e.waves, e.wave_events, e.intra, e.cross))
    }

    pub(crate) fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        message: Message,
        ctx: &mut Context<Event>,
    ) {
        let outcome = self.transmit(now, from, to, message.wire_size(), message.category());
        // A witness's answer lands in the receiver's confirm check now, keyed
        // `(arrival, stamp)` like a blame in flight: a confirm check is read
        // only when its own timer fires, so the answer needs no event. If the
        // receiver leaves before the answer arrives, the check it lands in
        // never expires: a departed node's timers are dropped and a rejoin
        // rebuilds its stack.
        if let Message::Verification(VerificationMessage::ConfirmResponse(response)) = &message {
            for at in outcome.arrivals() {
                let key = (at.max(ctx.now()), ctx.stamp());
                self.stacks[to.index()].land_confirm_response(from, response, key);
            }
            return;
        }
        // One copy per arrival; the last one moves (`repeat_n` clones the
        // message only for a duplicate).
        let arrivals = outcome.arrivals();
        let copies = std::iter::repeat_n(message, arrivals.len());
        for (at, message) in arrivals.zip(copies) {
            ctx.schedule_at(at, Event::Deliver { from, to, message });
        }
    }

    /// Adjudicates one send between two nodes. A departed or expelled
    /// endpoint has no address: the message counts as sent and never
    /// arrives, and draws nothing. Between two members the network decides
    /// (partitions, loss, latency, uplink). `send` and `route_blame` call
    /// it; every other send has members at both ends.
    fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        category: TrafficCategory,
    ) -> DeliveryOutcome {
        if self.directory.is_active(from) && self.directory.is_active(to) {
            self.network.send(now, from, to, payload_bytes, category)
        } else {
            self.network.send_undeliverable(payload_bytes, category);
            DeliveryOutcome::Lost
        }
    }

    /// Commits one effect of a node-local handler run for `node`. This is the
    /// single point where layer traffic reaches the network and the
    /// scheduler — sequential dispatch and the wave executor's Phase B both
    /// call it, effect by effect in emission order — so the stacks' emission
    /// order fully determines the wire order.
    pub(crate) fn commit(
        &mut self,
        node: NodeId,
        downcall: Downcall,
        now: SimTime,
        ctx: &mut Context<Event>,
    ) {
        // Scheduled events carry the node's *current* epoch: no node-local
        // event changes it, so it is the epoch the handler's gate accepted.
        match downcall {
            Downcall::Send { to, message } => self.send(now, node, to, message, ctx),
            Downcall::StartTimer {
                stream,
                timer,
                deadline,
            } => {
                let epoch = self.epochs[node.index()];
                ctx.schedule_at(
                    deadline,
                    Event::Timer {
                        node,
                        stream,
                        timer,
                        epoch,
                    },
                );
            }
            Downcall::Blame(blame) => self.route_blame(node, blame, now, ctx),
            Downcall::NextGossipTick => {
                let epoch = self.epochs[node.index()];
                ctx.schedule_after(
                    self.config.gossip.gossip_period,
                    Event::GossipTick { node, epoch },
                );
            }
        }
    }

    /// Sends `blame` to each of its target's managers. Every copy pays its
    /// network send (loss, duplication, latency, traffic counters); each
    /// delivered copy goes in flight ([`deliver_blame`](Self::deliver_blame)).
    pub(crate) fn route_blame(
        &mut self,
        from: NodeId,
        blame: Blame,
        now: SimTime,
        ctx: &mut Context<Event>,
    ) {
        if !self.lifting_on() || blame.target == NodeId::new(0) {
            return; // the source is not scored
        }
        let slot = blame.target.index() * self.sources.len() + blame.stream.index();
        self.blame_counts[slot] += 1;
        self.blame_values[slot] += blame.value;
        let message = Message::Verification(VerificationMessage::Blame(blame));
        let (size, category) = (message.wire_size(), message.category());
        for k in 0..self.assignment.managers_of(blame.target).len() {
            let manager = self.assignment.managers_of(blame.target)[k];
            let outcome = self.transmit(now, from, manager, size, category);
            for at in outcome.arrivals() {
                self.deliver_blame(at, manager, &blame, ctx);
            }
        }
    }

    /// Puts one delivered copy of `blame` in flight to `manager`, arriving
    /// at `arrival` (never before now), stamped with the engine seq its
    /// `Deliver` event would have taken. This is what blame routing does
    /// with each copy the network delivers; tests call it to place arrivals
    /// exactly.
    pub fn deliver_blame(
        &mut self,
        arrival: SimTime,
        manager: NodeId,
        blame: &Blame,
        ctx: &mut Context<Event>,
    ) {
        self.blames_in_flight.push(InFlightBlame {
            arrival: arrival.max(ctx.now()),
            stamp: ctx.stamp(),
            manager,
            subject: blame.target,
            value: blame.value,
        });
    }

    /// Lands, in key order, every copy in flight whose `(arrival, stamp)`
    /// sorts before `key`: before an event `(time, seq)`, exactly the copies
    /// the queue would have popped first.
    pub(crate) fn settle_blames(&mut self, key: (SimTime, u64)) {
        while let Some(blame) = self.blames_in_flight.pop_before(key) {
            let book = &mut self.stacks[blame.manager.index()].reputation;
            land(&self.directory, book, &blame);
        }
    }

    fn expel(&mut self, node: NodeId) {
        if node == NodeId::new(0) || self.expelled[node.index()] {
            return;
        }
        self.expelled[node.index()] = true;
        self.directory.deactivate(node);
    }

    /// Tears the node's protocol stack down and rebuilds it from scratch, as
    /// a crash-rejoin does: empty chunk store, fresh verification history
    /// issuing tokens of the new session (a late reply to an earlier
    /// session's check matches nothing), blank manager book (re-registered
    /// below) and a new session RNG stream.
    fn rebuild_stack(&mut self, node: NodeId) {
        let clocks: Vec<_> = self.sources.iter().map(StreamSource::clock).collect();
        let session = self.epochs[node.index()];
        let mut stack = NodeStack::new(&self.config, &clocks, &self.coalition, node, session);
        // A crash loses the manager book; re-register this manager's charges
        // (their records restart — the other replicas of the min-vote still
        // hold the accumulated scores), the book sized to them.
        let charges: Vec<NodeId> = (1..self.config.nodes)
            .map(|j| NodeId::new(j as u32))
            .filter(|id| self.assignment.managers_of(*id).contains(&node))
            .collect();
        stack.reputation.reserve_exact(charges.len());
        for id in charges {
            stack.reputation.register(id);
        }
        self.stacks[node.index()] = stack;
    }

    /// Executes one membership transition: a departure or a (re)join of the
    /// workload plan, of steady churn's live draws or of a whitewasher.
    fn handle_churn(
        &mut self,
        node: NodeId,
        up: bool,
        epoch: u32,
        now: SimTime,
        ctx: &mut Context<Event>,
    ) {
        if node == NodeId::new(0) {
            return; // the broadcast source never churns
        }
        if !up && epoch != CHURN_EPOCH_ANY && epoch != self.epochs[node.index()] {
            // A session-end departure from a previous session: a wave already
            // took this node down and a rejoin opened a new session in the
            // meantime. Firing it would fork a second departure/rejoin chain.
            return;
        }
        if up {
            if self.expelled[node.index()] || self.directory.is_active(node) {
                return; // expulsion is permanent; double joins are no-ops
            }
            self.directory.activate(node);
            self.epochs[node.index()] += 1;
            self.rebuild_stack(node);
            self.churn_rejoins += 1;
            self.churn_sessions += 1;
            let epoch = self.epochs[node.index()];
            let at_once = (SimDuration::ZERO, SimDuration::ZERO);
            for (at, event) in builder::session_ticks(&self.config, node, epoch, now, at_once) {
                ctx.schedule_at(at, event);
            }
            if let Some(sessions) = self.churner(node) {
                let session = sessions.session_length();
                ctx.schedule_after(
                    session,
                    Event::Churn {
                        node,
                        up: false,
                        epoch,
                    },
                );
            }
        } else {
            if self.expelled[node.index()] || !self.directory.is_active(node) {
                return; // already gone (expelled, or a wave hit a churned node)
            }
            self.depart(node);
            if let Some(sessions) = self.churner(node) {
                ctx.schedule_after(sessions.offline_length(), Event::rejoin(node));
            }
        }
    }

    /// Steady churn's live draws, when `node` is one of its churners.
    fn churner(&mut self, node: NodeId) -> Option<&mut Sessions> {
        let sessions = self.workload.sessions.as_mut()?;
        sessions.churners[node.index()].then_some(sessions)
    }

    /// Executes one channel switch of the workload plan: the viewer leaves
    /// `from` and joins `to`. Pre-drawn switches targeting a departed or
    /// expelled viewer are dropped (the plan does not know who churn or the
    /// managers removed); the source never switches — it feeds every channel.
    fn handle_resubscribe(&mut self, node: NodeId, from: StreamId, to: StreamId) {
        if node == NodeId::new(0) || !self.directory.is_active(node) || from == to {
            return;
        }
        self.directory.unsubscribe(node, from);
        self.directory.subscribe(node, to);
        self.workload_switches += 1;
    }

    /// The expulsion threshold applied at the most recent period end: the
    /// configured η, or the online-recalibrated value when that defense is
    /// active.
    pub fn effective_eta(&self) -> f64 {
        self.period.eta()
    }

    /// Applies one partition-wave transition: the network partitions the
    /// wave's members on `begin` and heals them at the end; it counts the
    /// waves holding each node, so overlapping waves compose.
    fn handle_fault(&mut self, wave: u32, begin: bool) {
        for (i, hit) in self.workload.waves[wave as usize].iter().enumerate() {
            if !hit {
                continue;
            }
            let node = NodeId::new(i as u32);
            if begin {
                self.network.partition(node);
            } else {
                self.network.heal(node);
            }
        }
        if begin {
            self.period.begin_wave(WaveKind::Partition);
        }
    }

    /// Ends a gossip period ([`crate::period`]): age, snapshot (every copy
    /// ordered before this event has landed), recalibrate, vote and expel,
    /// closed-loop feedback, then the recovery row, last because a whitewash
    /// wave the feedback begins takes the previous period's row as baseline.
    fn handle_period_end(&mut self, now: SimTime, ctx: &mut Context<Event>) {
        self.period.advance();
        if self.lifting_on() {
            let config = &self.config;
            let on_air = |s: StreamId| now >= SimTime::ZERO + config.stream_spec(s).start_offset;
            let (directory, expelled) = (&self.directory, &self.expelled);
            let (books, credit) = (books_of(&mut self.stacks), &self.compensation_per_stream);
            self.period.age(books, directory, expelled, credit, on_air);
            let traced = self.period.recovery().is_some();
            let snap = traced.then(|| self.snapshot_of(now, &[]));
            if let Some(snap) = &snap {
                self.period.recalibrate(snap, &self.directory);
            }
            let books = (0..)
                .map(NodeId::new)
                .zip(self.stacks.iter().map(|s| &s.reputation));
            let expelling = self.period.vote(books, &self.directory, &self.expelled);
            for target in expelling {
                self.expel(target);
            }
            if let Some(snap) = &snap {
                if self.config.adversary.closed_loop() {
                    self.score_feedback(snap, now, ctx);
                }
                self.period.record(snap, &self.expelled);
            }
        }
        ctx.schedule_after(self.config.gossip.gossip_period, Event::PeriodEnd);
    }

    /// Closed-loop adversaries read their own score (public: a freerider can
    /// probe it) against the *static* η (the defender's recalibrated one is
    /// not public) and adapt. Whitewashers that give up depart now and rejoin
    /// later; the burst is a wave the detector must reconverge from.
    fn score_feedback(&mut self, snap: &ScoreSnapshot, now: SimTime, ctx: &mut Context<Event>) {
        let (period, eta_static) = (self.period.completed(), self.config.lifting.eta);
        let mut burst = false;
        for o in &snap.outcomes {
            let (node, adversary) = (o.node, &mut self.stacks[o.node.index()].adversary);
            // (an expelled node is inactive too)
            if !self.directory.is_active(node) || !adversary.wants_score_feedback() {
                continue;
            }
            let action = adversary.on_score_feedback(period, o.score, eta_static);
            let FeedbackAction::Depart { offline } = action else {
                continue;
            };
            if !std::mem::replace(&mut burst, true) {
                self.period.begin_wave(WaveKind::Whitewash);
            }
            self.handle_churn(node, false, CHURN_EPOCH_ANY, now, ctx);
            ctx.schedule_after(offline, Event::rejoin(node));
        }
    }

    fn handle_audit_tick(
        &mut self,
        auditor: NodeId,
        epoch: u32,
        now: SimTime,
        ctx: &mut Context<Event>,
    ) {
        if epoch != self.epochs[auditor.index()]
            || !self.config.audits_enabled
            || !self.directory.is_active(auditor)
        {
            return; // stale session, or the auditor left: the chain dies
        }
        // Pick the stream to audit (a draw that only exists in multi-channel
        // runs — single-stream runs must consume exactly their historical
        // RNG streams), then a random participant of that stream as target
        // (never the source, never self). The candidate list is staged in a
        // recycled buffer: audit ticks fire for every node every interval, so
        // this path must not allocate.
        let stream = if self.sources.len() > 1 {
            StreamId::new(self.mstream_rng.gen_range(0..self.sources.len() as u16))
        } else {
            StreamId::PRIMARY
        };
        let mut candidates = std::mem::take(&mut self.scratch_nodes);
        candidates.clear();
        candidates.extend(
            self.directory
                .participants(stream)
                .filter(|c| *c != auditor && *c != NodeId::new(0)),
        );
        if !candidates.is_empty() && self.lifting_on() {
            let target = candidates[self.rng.gen_range(0..candidates.len())];
            let outcome = self.audits.audit(
                &self.stacks,
                &mut self.network,
                &self.directory,
                auditor,
                target,
                stream,
                now,
            );
            match outcome {
                AuditOutcome::Expel => self.expel(target),
                AuditOutcome::Blame(blame) => self.route_blame(auditor, blame, now, ctx),
                AuditOutcome::Pass => {}
                AuditOutcome::Aborted => self.audits_aborted_by_departure += 1,
            }
            // Closed-loop colluders watch the audit plane: an accomplice that
            // just answered for its history is "burned" and the coalition
            // re-aims its cover-traffic bias elsewhere for a cooldown.
            if self.config.adversary.closed_loop() {
                let period = self.period.completed();
                for (i, stack) in self.stacks.iter_mut().enumerate() {
                    if self.directory.is_active(NodeId::new(i as u32)) {
                        stack.adversary.on_audit_observed(target, period);
                    }
                }
            }
        }
        self.scratch_nodes = candidates;
        ctx.schedule_after(
            self.config.audit_interval,
            Event::AuditTick { auditor, epoch },
        );
    }
}

/// Every node's manager book, by node id: what the period plane ages.
fn books_of(stacks: &mut [NodeStack]) -> impl Iterator<Item = (NodeId, &mut ManagerState)> {
    let ids = (0..).map(NodeId::new);
    ids.zip(stacks.iter_mut().map(|stack| &mut stack.reputation))
}

/// What a node-local handler may read of the world besides its own stack:
/// membership, the session-epoch column and the LiFTinG switch. Nothing in it
/// changes while node-local events run (membership, epochs and expulsions
/// move only at barrier events), which is what lets the wave executor share
/// it across shard threads.
#[derive(Clone, Copy)]
pub(crate) struct LocalView<'a> {
    directory: &'a Directory,
    epochs: &'a [u32],
    lifting_on: bool,
}

/// Gates and handles one node-local event (`GossipTick`, `Deliver`, `Timer`)
/// of key `(now, seq)` against the acting `node`'s stack, appending every
/// effect it has on the rest of the world to `out` in emission order. The
/// only caller-visible state it touches is `stack`; sequential dispatch and
/// the wave executor's Phase A both run exactly this.
pub(crate) fn handle_local(
    view: LocalView<'_>,
    node: NodeId,
    stack: &mut NodeStack,
    (now, seq): (SimTime, u64),
    event: Event,
    out: &mut Vec<Downcall>,
) {
    if !view.directory.is_active(node) {
        return; // expelled or departed: tick chains die, in-flight traffic drops
    }
    // Events of an earlier session must not fire into a rebuilt stack: a
    // stale tick would fork a second gossip chain, and a stale timer names a
    // token of the old session's range, which no live check holds.
    let current = |epoch: u32| epoch == view.epochs[node.index()];
    match event {
        Event::GossipTick { epoch, .. } if current(epoch) => {
            stack.on_gossip_tick(node, now, view.directory, out);
            out.push(Downcall::NextGossipTick);
        }
        Event::Deliver { from, message, .. } => {
            stack.on_message(from, message, now, out);
        }
        Event::Timer {
            stream,
            timer,
            epoch,
            ..
        } if current(epoch) && view.lifting_on => {
            stack.on_timer(stream, timer, now, seq, out);
        }
        Event::GossipTick { .. } | Event::Timer { .. } => {} // stale session
        _ => unreachable!("only node-local events reach the node-local handler"),
    }
}

impl World for SystemWorld {
    type Event = Event;

    fn handle_event(&mut self, now: SimTime, event: Event, ctx: &mut Context<Event>) {
        // Barriers read books or change who is active: they see exactly the
        // copies ordered before them. The rest read no book, so landing what
        // arrived before this instant keeps the buffer to what is in flight.
        let before = match event {
            Event::PeriodEnd
            | Event::AuditTick { .. }
            | Event::Churn { .. }
            | Event::Resubscribe { .. }
            | Event::Fault { .. } => (now, ctx.seq()),
            Event::SourceEmit { .. }
            | Event::GossipTick { .. }
            | Event::Deliver { .. }
            | Event::Timer { .. } => (now, 0),
        };
        self.settle_blames(before);
        match event {
            Event::SourceEmit { stream } => {
                let source = &mut self.sources[stream.index()];
                let chunk = source.emit();
                let next = source.next_emission();
                self.stacks[0]
                    .plane_mut(stream)
                    .gossip
                    .inject_source_chunk(chunk, now);
                ctx.schedule_at(next, Event::SourceEmit { stream });
            }
            Event::GossipTick { .. } | Event::Deliver { .. } | Event::Timer { .. } => {
                let node = lifting_sim::ShardedWorld::local_node(self, &event)
                    .expect("these three events are the node-local ones");
                let mut downcalls = std::mem::take(&mut self.scratch_downcalls);
                let (view, stacks) = self.split_local();
                handle_local(
                    view,
                    node,
                    &mut stacks[node.index()],
                    (now, ctx.seq()),
                    event,
                    &mut downcalls,
                );
                for downcall in downcalls.drain(..) {
                    self.commit(node, downcall, now, ctx);
                }
                self.scratch_downcalls = downcalls;
            }
            Event::PeriodEnd => self.handle_period_end(now, ctx),
            Event::AuditTick { auditor, epoch } => self.handle_audit_tick(auditor, epoch, now, ctx),
            Event::Churn { node, up, epoch } => self.handle_churn(node, up, epoch, now, ctx),
            Event::Resubscribe { node, from, to } => self.handle_resubscribe(node, from, to),
            Event::Fault { wave, begin } => self.handle_fault(wave, begin),
        }
    }
}

impl lifting_sim::ShardedWorld for SystemWorld {
    fn shard_count(&self) -> usize {
        self.wave_exec.as_ref().map_or(1, |e| e.map.shards())
    }

    /// Node-local events: handlers that mutate only the acting node's stack
    /// (plus its private RNG), with all cross-node effects expressed as
    /// downcalls. Everything else — source emissions, period ends, audits,
    /// churn, faults — is a barrier and runs solo through `handle_event`.
    /// This is the only event → acting-node classifier; `handle_event` and
    /// `execute_wave` both ask it.
    fn local_node(&self, event: &Event) -> Option<NodeId> {
        match event {
            Event::GossipTick { node, .. } | Event::Timer { node, .. } => Some(*node),
            Event::Deliver { to, .. } => Some(*to),
            _ => None,
        }
    }

    fn handle_wave(
        &mut self,
        now: SimTime,
        wave: &mut Vec<(u64, Event)>,
        ctx: &mut Context<Event>,
    ) {
        self.execute_wave(now, wave, ctx);
    }
}

impl std::fmt::Debug for SystemWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemWorld")
            .field("nodes", &self.stacks.len())
            .field("active", &self.directory.active_count())
            .field("expelled", &self.expelled_count())
            .field("streams", &self.sources.len())
            .field(
                "emitted_chunks",
                &self.sources.iter().map(StreamSource::emitted).sum::<u64>(),
            )
            .finish()
    }
}
