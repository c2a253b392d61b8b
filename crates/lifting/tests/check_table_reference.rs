//! Differential test: the verifier's compact check tables (one token-indexed
//! ring per check kind, bitset evidence, witness answers landed in their
//! check when they are sent) against a naive model — hash maps of pending
//! checks with hash-set evidence, and every answer a timed event applied
//! when the event queue pops it.
//!
//! Both run the same generated traffic through one event queue each:
//! requests (some longer than 64 chunks, some naming a chunk twice) served
//! in part, twice or by the wrong node; serves acknowledged in full, in part
//! or never; cross-checks over up to 70 witnesses (some named twice); and
//! answers that are lost, duplicated, sent by a node that was not polled,
//! addressed to another session's token, or timed to arrive just before, at
//! or just after a deadline or the deadline a hardened re-arm will set.
//! Every timer's blames and sends, the pending-check count after every
//! event, the retry counters and the blame count must be identical.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use lifting_core::blame::schedule;
use lifting_core::{
    AckPayload, Blame, BlameReason, CollusionConfig, ConfirmPayload, ConfirmResponsePayload,
    ConfirmRetryStats, LiftingConfig, VerificationMessage, Verifier, VerifierAction, VerifierTimer,
    ACK_TIMEOUT, CONFIRM_TIMEOUT, SERVE_TIMEOUT,
};
use lifting_gossip::ChunkId;
use lifting_sim::{derive_rng, EventQueue, NodeId, SimDuration, SimTime, StreamId};
use rand::rngs::SmallRng;
use rand::Rng;

const FANOUT: usize = 7;

/// The naive pending-confirm record: today's sets of witness ids.
struct NaiveConfirm {
    subject: NodeId,
    witnesses: Vec<NodeId>,
    chunks: Arc<[ChunkId]>,
    confirmed: HashSet<NodeId>,
    denied: HashSet<NodeId>,
    attempt: u32,
}

/// A naive pending serve: proposer, requested chunks, chunks received.
type NaiveServe = (NodeId, Arc<[ChunkId]>, HashSet<ChunkId>);

/// The reference: the check semantics with hash maps, hash sets and no
/// landing rule — an answer counts when its delivery event is handled.
struct Naive {
    config: LiftingConfig,
    serves: HashMap<u64, NaiveServe>,
    acks: HashMap<u64, (NodeId, Vec<ChunkId>)>,
    confirms: HashMap<u64, NaiveConfirm>,
    /// The next token of each kind (serve, ack, confirm).
    next: [u64; 3],
    blames_emitted: u64,
    retry_stats: ConfirmRetryStats,
}

impl Naive {
    fn new(config: LiftingConfig, session: u32) -> Self {
        let first = u64::from(session) << 40;
        Naive {
            config,
            serves: HashMap::new(),
            acks: HashMap::new(),
            confirms: HashMap::new(),
            next: [first; 3],
            blames_emitted: 0,
            retry_stats: ConfirmRetryStats::default(),
        }
    }

    fn token(&mut self, kind: usize) -> u64 {
        self.next[kind] += 1;
        self.next[kind] - 1
    }

    fn blame(&mut self, target: NodeId, value: f64, reason: BlameReason, out: &mut Vec<Action>) {
        if value > 0.0 {
            self.blames_emitted += 1;
            let blame = Blame::on_stream(StreamId::PRIMARY, target, value, reason);
            out.push(VerifierAction::Blame(blame));
        }
    }

    fn timer(timer: VerifierTimer, deadline: SimTime, out: &mut Vec<Action>) {
        let stream = StreamId::PRIMARY;
        out.push(VerifierAction::StartTimer {
            stream,
            timer,
            deadline,
        });
    }

    fn confirms(witnesses: &[NodeId], payload: &Arc<ConfirmPayload>, out: &mut Vec<Action>) {
        for to in witnesses {
            let message = VerificationMessage::Confirm(payload.clone());
            out.push(VerifierAction::Send { to: *to, message });
        }
    }

    fn apply(&mut self, from: NodeId, response: &ConfirmResponsePayload) {
        if let Some(p) = self.confirms.get_mut(&response.token) {
            if p.witnesses.contains(&from) {
                if response.confirmed {
                    p.confirmed.insert(from);
                } else {
                    p.denied.insert(from);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: VerifierTimer, now: SimTime, out: &mut Vec<Action>) {
        match timer {
            VerifierTimer::ServeCheck { token } => {
                if let Some((proposer, requested, received)) = self.serves.remove(&token) {
                    let value = schedule::partial_serve(FANOUT, requested.len(), received.len());
                    self.blame(proposer, value, BlameReason::PartialServe, out);
                }
            }
            VerifierTimer::AckCheck { token } => {
                if let Some((receiver, _)) = self.acks.remove(&token) {
                    let value = schedule::missing_ack(FANOUT);
                    self.blame(receiver, value, BlameReason::MissingAck, out);
                }
            }
            VerifierTimer::ConfirmCheck { token } => {
                let Some(p) = self.confirms.get_mut(&token) else {
                    return;
                };
                let reason = BlameReason::ContradictedProposal;
                if self.config.confirm_retries == 0 {
                    let p = self.confirms.remove(&token).expect("just seen");
                    let silent = p.witnesses.iter().filter(|w| !p.confirmed.contains(w));
                    let value = schedule::contradicted_proposal(silent.count());
                    self.blame(p.subject, value, reason, out);
                    return;
                }
                let silent: Vec<NodeId> = p
                    .witnesses
                    .iter()
                    .filter(|w| !p.confirmed.contains(w) && !p.denied.contains(w))
                    .copied()
                    .collect();
                if !silent.is_empty() && p.attempt < self.config.confirm_retries {
                    p.attempt += 1;
                    let payload = Arc::new(ConfirmPayload {
                        subject: p.subject,
                        chunks: p.chunks.clone(),
                        token,
                    });
                    let backoff = CONFIRM_TIMEOUT.saturating_mul(u64::from(p.attempt) + 1);
                    self.retry_stats.timeouts += 1;
                    self.retry_stats.resends += silent.len() as u64;
                    Self::confirms(&silent, &payload, out);
                    Self::timer(VerifierTimer::ConfirmCheck { token }, now + backoff, out);
                    return;
                }
                let p = self.confirms.remove(&token).expect("just seen");
                if !silent.is_empty() {
                    self.retry_stats.timeouts += 1;
                    self.retry_stats.aborts += 1;
                }
                let value = schedule::contradicted_proposal(p.denied.len());
                self.blame(p.subject, value, reason, out);
            }
        }
    }
}

type Action = VerifierAction;

/// One of the two implementations under the same traffic.
enum Tables {
    Compact(Verifier),
    Naive(Naive),
}

impl Tables {
    fn request(
        &mut self,
        proposer: NodeId,
        requested: Arc<[ChunkId]>,
        now: SimTime,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        match self {
            Tables::Compact(v) => v.on_request_sent_into(proposer, requested, now, &mut out),
            Tables::Naive(n) => {
                let token = n.token(0);
                n.serves
                    .insert(token, (proposer, requested, HashSet::new()));
                let deadline = now + SERVE_TIMEOUT;
                Naive::timer(VerifierTimer::ServeCheck { token }, deadline, &mut out);
            }
        }
        out
    }

    fn serve(&mut self, from: NodeId, chunk: ChunkId, now: SimTime) {
        match self {
            Tables::Compact(v) => v.on_serve_received(from, chunk, now),
            Tables::Naive(n) => {
                for (proposer, requested, received) in n.serves.values_mut() {
                    if *proposer == from && requested.contains(&chunk) {
                        received.insert(chunk);
                    }
                }
            }
        }
    }

    fn served(&mut self, to: NodeId, chunks: Vec<ChunkId>, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        match self {
            Tables::Compact(v) => v.on_chunks_served_into(to, chunks, now, &mut out),
            Tables::Naive(n) => {
                let token = n.token(1);
                n.acks.insert(token, (to, chunks));
                let deadline = now + ACK_TIMEOUT;
                Naive::timer(VerifierTimer::AckCheck { token }, deadline, &mut out);
            }
        }
        out
    }

    fn ack(
        &mut self,
        from: NodeId,
        ack: AckPayload,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        match self {
            Tables::Compact(v) => v.on_ack_into(from, ack, now, rng, &mut out),
            Tables::Naive(n) => {
                n.acks.retain(|_, (receiver, chunks)| {
                    !(*receiver == from && chunks.iter().all(|c| ack.chunks.contains(c)))
                });
                let decrease = schedule::fanout_decrease(FANOUT, ack.partners.len());
                n.blame(from, decrease, BlameReason::FanoutDecrease, &mut out);
                if !ack.partners.is_empty() && rng.gen_bool(n.config.pdcc) {
                    let token = n.token(2);
                    n.confirms.insert(
                        token,
                        NaiveConfirm {
                            subject: from,
                            witnesses: ack.partners.to_vec(),
                            chunks: ack.chunks.clone(),
                            confirmed: HashSet::new(),
                            denied: HashSet::new(),
                            attempt: 0,
                        },
                    );
                    let payload = Arc::new(ConfirmPayload {
                        subject: from,
                        chunks: ack.chunks.clone(),
                        token,
                    });
                    Naive::confirms(&ack.partners, &payload, &mut out);
                    let deadline = now + CONFIRM_TIMEOUT;
                    Naive::timer(VerifierTimer::ConfirmCheck { token }, deadline, &mut out);
                }
            }
        }
        out
    }

    /// A witness sends its answer, arriving at `arrival`: the compact tables
    /// land it now under the seq its delivery would take, the naive model
    /// queues that delivery.
    fn answer_sent(
        &mut self,
        from: NodeId,
        response: ConfirmResponsePayload,
        arrival: SimTime,
        queue: &mut EventQueue<Ev>,
    ) {
        match self {
            Tables::Compact(v) => {
                let stamp = queue.reserve_seq();
                v.land_confirm_response(from, &response, (arrival, stamp));
            }
            Tables::Naive(_) => queue.push(arrival, Ev::Answer { from, response }),
        }
    }

    fn timer(&mut self, timer: VerifierTimer, now: SimTime, seq: u64) -> Vec<Action> {
        let mut out = Vec::new();
        match self {
            Tables::Compact(v) => v.on_timer_into(timer, now, seq, &mut out),
            Tables::Naive(n) => n.on_timer(timer, now, &mut out),
        }
        out
    }

    fn pending_checks(&self) -> usize {
        match self {
            Tables::Compact(v) => v.pending_checks(),
            Tables::Naive(n) => n.serves.len() + n.acks.len() + n.confirms.len(),
        }
    }

    fn totals(&self) -> (ConfirmRetryStats, u64) {
        match self {
            Tables::Compact(v) => (v.confirm_retry_stats(), v.blames_emitted()),
            Tables::Naive(n) => (n.retry_stats, n.blames_emitted),
        }
    }
}

enum Ev {
    /// The traffic generator's next step.
    Step,
    Serve {
        from: NodeId,
        chunk: ChunkId,
    },
    Ack {
        from: NodeId,
        ack: AckPayload,
    },
    /// A confirm request reaches witness `to`, which answers.
    Witness {
        to: NodeId,
        confirm: Arc<ConfirmPayload>,
    },
    /// An answer reaches the verifier (naive model only).
    Answer {
        from: NodeId,
        response: ConfirmResponsePayload,
    },
    Timer(VerifierTimer),
}

/// What the two runs must agree on, plus coverage counters that do not
/// depend on the implementation.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    /// Per handled event (answers excluded): its key, what it emitted and the
    /// pending checks after it.
    events: Vec<((SimTime, u64), Vec<Action>, usize)>,
    totals: (ConfirmRetryStats, u64),
    /// Answers timed to arrive exactly at a deadline a timer will fire at.
    ties: u64,
    /// Requests longer than 64 chunks.
    long_requests: u64,
    /// Cross-checks over more than 64 witness positions.
    long_checks: u64,
}

fn chunk_list(rng: &mut SmallRng, next: &mut u64) -> Vec<ChunkId> {
    let len = match rng.gen_range(0..10) {
        0 => rng.gen_range(65..=130),
        1 => rng.gen_range(55..=64),
        _ => rng.gen_range(1..=12),
    };
    let mut list: Vec<ChunkId> = (0..len).map(|i| ChunkId::primary(*next + i)).collect();
    *next += len;
    if rng.gen_bool(0.1) {
        let dup = list[rng.gen_range(0..list.len())];
        list.push(dup);
    }
    list
}

fn peer(rng: &mut SmallRng) -> NodeId {
    NodeId::new(rng.gen_range(1..12))
}

/// Runs one generated traffic case through `tables` and traces it. The
/// generator draws only from its own stream, and from nothing either
/// implementation emits, so both runs see the same traffic.
fn run(mut tables: Tables, case: u64) -> Trace {
    let mut traffic = derive_rng(case, 1);
    let mut pdcc_rng = derive_rng(case, 2);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut trace = Trace::default();
    let mut next_chunk = 0u64;
    // The current deadline and attempt of every confirm check seen armed.
    let mut deadlines: HashMap<u64, (SimTime, u32)> = HashMap::new();
    let end = SimTime::from_secs(40);
    queue.push(SimTime::ZERO, Ev::Step);
    while let Some((now, seq, event)) = queue.pop_due(SimTime::MAX) {
        let out = match event {
            Ev::Step => {
                if now < end {
                    let gap = SimDuration::from_micros(traffic.gen_range(1_000..300_000));
                    queue.push(now + gap, Ev::Step);
                }
                if traffic.gen_bool(0.5) {
                    let proposer = peer(&mut traffic);
                    let requested = chunk_list(&mut traffic, &mut next_chunk);
                    trace.long_requests += u64::from(requested.len() > 64);
                    for chunk in &requested {
                        // Most chunks served once, some twice, some by a
                        // stranger, some never or after the deadline.
                        let copies = match traffic.gen_range(0..10) {
                            0 => 0,
                            1 => 2,
                            _ => 1,
                        };
                        for _ in 0..copies {
                            let from = if traffic.gen_bool(0.05) {
                                peer(&mut traffic)
                            } else {
                                proposer
                            };
                            let delay = SimDuration::from_micros(traffic.gen_range(0..1_500_000));
                            queue.push(
                                now + delay,
                                Ev::Serve {
                                    from,
                                    chunk: *chunk,
                                },
                            );
                        }
                    }
                    tables.request(proposer, requested.into(), now)
                } else {
                    let receiver = peer(&mut traffic);
                    let chunks = chunk_list(&mut traffic, &mut next_chunk);
                    if traffic.gen_range(0..10) > 1 {
                        let mut acked = chunks.clone();
                        if traffic.gen_bool(0.2) {
                            acked.truncate(acked.len() / 2); // satisfies nothing
                        }
                        let mut partners: Vec<NodeId> = match traffic.gen_range(0..12) {
                            0 => (0..traffic.gen_range(60..=70u32))
                                .map(|_| peer(&mut traffic))
                                .collect(),
                            1 => Vec::new(),
                            _ => (20..20 + traffic.gen_range(1..=9u32))
                                .map(NodeId::new)
                                .collect(),
                        };
                        if traffic.gen_bool(0.1) && !partners.is_empty() {
                            partners.push(partners[0]);
                        }
                        trace.long_checks += u64::from(partners.len() > 64);
                        let ack = AckPayload {
                            chunks: acked.into(),
                            partners: partners.into(),
                            period: 0,
                        };
                        let delay = SimDuration::from_micros(traffic.gen_range(0..2_500_000));
                        queue.push(
                            now + delay,
                            Ev::Ack {
                                from: receiver,
                                ack,
                            },
                        );
                    }
                    tables.served(receiver, chunks, now)
                }
            }
            Ev::Serve { from, chunk } => {
                tables.serve(from, chunk, now);
                Vec::new()
            }
            Ev::Ack { from, ack } => tables.ack(from, ack, now, &mut pdcc_rng),
            Ev::Witness { to, confirm } => {
                let copies = match traffic.gen_range(0..10) {
                    0 => 0,
                    1 => 2,
                    _ => 1,
                };
                for _ in 0..copies {
                    let (deadline, attempt) = deadlines[&confirm.token];
                    let next_deadline =
                        deadline + CONFIRM_TIMEOUT.saturating_mul(u64::from(attempt) + 2);
                    let tick = SimDuration::from_micros(1);
                    let arrival = match traffic.gen_range(0..8) {
                        0 => deadline,
                        1 => deadline + tick,
                        2 => SimTime::from_micros(deadline.as_micros() - 1),
                        3 => next_deadline,
                        _ => now + SimDuration::from_micros(traffic.gen_range(0..2_000_000)),
                    }
                    .max(now);
                    trace.ties += u64::from(arrival == deadline || arrival == next_deadline);
                    let from = if traffic.gen_bool(0.05) {
                        peer(&mut traffic)
                    } else {
                        to
                    };
                    let token = if traffic.gen_bool(0.05) {
                        confirm.token ^ (1 << 40) // another session's check
                    } else {
                        confirm.token
                    };
                    let response = ConfirmResponsePayload {
                        subject: confirm.subject,
                        stream: StreamId::PRIMARY,
                        token,
                        confirmed: traffic.gen_bool(0.8),
                    };
                    tables.answer_sent(from, response, arrival, &mut queue);
                }
                Vec::new()
            }
            Ev::Answer { from, response } => {
                if let Tables::Naive(n) = &mut tables {
                    n.apply(from, &response);
                }
                continue; // the compact run has no such event
            }
            Ev::Timer(timer) => tables.timer(timer, now, seq),
        };
        // Schedule what the handler emitted: timers, and the witnesses'
        // reception of each confirm request.
        for action in &out {
            match action {
                VerifierAction::StartTimer {
                    timer, deadline, ..
                } => {
                    if let VerifierTimer::ConfirmCheck { token } = timer {
                        let attempt = deadlines.get(token).map_or(0, |(_, a)| a + 1);
                        deadlines.insert(*token, (*deadline, attempt));
                    }
                    queue.push(*deadline, Ev::Timer(*timer));
                }
                VerifierAction::Send {
                    to,
                    message: VerificationMessage::Confirm(confirm),
                } => {
                    let delay = SimDuration::from_micros(traffic.gen_range(0..900_000));
                    let witness = Ev::Witness {
                        to: *to,
                        confirm: confirm.clone(),
                    };
                    queue.push(now + delay, witness);
                }
                _ => {}
            }
        }
        trace
            .events
            .push(((now, seq), out, tables.pending_checks()));
    }
    trace.totals = tables.totals();
    trace
}

#[test]
fn compact_tables_match_the_naive_model() {
    let (mut ties, mut long_requests, mut long_checks, mut retries) = (0, 0, 0, 0);
    for case in 0..60u64 {
        let session = (case % 3) as u32;
        let config = LiftingConfig::planetlab()
            .with_pdcc(if case % 2 == 0 { 1.0 } else { 0.5 })
            .with_confirm_retries((case / 2 % 3) as u32);
        let compact = Verifier::new(NodeId::new(0), FANOUT, config, CollusionConfig::none())
            .in_session(session);
        let a = run(Tables::Compact(compact), case);
        let b = run(Tables::Naive(Naive::new(config, session)), case);
        assert_eq!(
            a.events.len(),
            b.events.len(),
            "case {case}: events handled"
        );
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x, y, "case {case}: first diverging event");
        }
        assert_eq!(a, b, "case {case}");
        assert!(b.totals.1 > 0, "case {case}: no blame at all");
        ties += b.ties;
        long_requests += b.long_requests;
        long_checks += b.long_checks;
        retries += b.totals.0.resends;
    }
    assert!(ties > 100, "answers at a deadline: {ties}");
    assert!(
        long_requests > 100 && long_checks > 10,
        "{long_requests} {long_checks}"
    );
    assert!(retries > 100, "hardened re-arms: {retries} resends");
}
