//! Pluggable adversaries.
//!
//! Section 4 of the paper enumerates the ways a node can deviate in each
//! phase; the monolithic runtime used to hard-wire those deviations at
//! construction time (`if is_freerider` branches picking a `Behavior`, a
//! `PartnerSelector` and a `CollusionConfig`). The [`Adversary`] trait makes
//! misbehaviour a first-class, composable plug-in instead: an adversary
//! *configures* each plane of the stack when the node is built, and may keep
//! *reshaping* them as the run progresses (time-varying attacks) or inject
//! traffic of its own (fabricated blames).

use std::sync::Arc;

use lifting_core::{Blame, BlameReason, CollusionConfig};
use lifting_gossip::{Behavior, FreeriderConfig, GossipNode};
use lifting_membership::{Directory, PartnerSelector, SelectionPolicy};
use lifting_sim::{NodeId, SimDuration, StreamId};
use rand::rngs::SmallRng;

/// What a closed-loop adversary decides to do with its per-period score
/// feedback (see [`Adversary::on_score_feedback`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackAction {
    /// Keep running; the adversary may have retuned its internal state.
    None,
    /// Leave the system now and rejoin after `offline` — the whitewashing
    /// move: abandon a burned identity's session and come back hoping for a
    /// clean slate.
    Depart {
        /// How long the node stays offline before rejoining.
        offline: SimDuration,
    },
}

/// A node's strategy: how each plane of its protocol stack deviates (or not)
/// from the protocol.
///
/// The three `*_plane` methods are consulted once, when the stack is built;
/// the hooks run during the simulation. Every implementation must be
/// deterministic given the node's RNG stream.
pub trait Adversary: std::fmt::Debug + Send {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;

    /// Ground truth: whether this node misbehaves (used only by the metrics,
    /// never by the protocol).
    fn is_freerider(&self) -> bool {
        false
    }

    /// Dissemination-plane behaviour (fanout decrease, partial propose,
    /// partial serve, period stretching — Section 4.1).
    fn dissemination_plane(&self) -> Behavior {
        Behavior::Honest
    }

    /// Dissemination behaviour on one channel of a multi-stream stack.
    /// Defaults to the same deviation on every channel; stream-selective
    /// adversaries (honest on one channel, silent on another) override this.
    fn dissemination_plane_for(&self, _stream: StreamId) -> Behavior {
        self.dissemination_plane()
    }

    /// Membership-plane partner selection (colluders bias it towards the
    /// coalition — Section 4.1(iii)).
    fn membership_plane(&self) -> PartnerSelector {
        PartnerSelector::uniform()
    }

    /// Partner selection on one channel. Defaults to the same policy on
    /// every channel (each plane still gets its **own** selector instance:
    /// round-robin cursors and the like are plane-local state).
    fn membership_plane_for(&self, _stream: StreamId) -> PartnerSelector {
        self.membership_plane()
    }

    /// Verification-plane collusion (cover-up, man-in-the-middle —
    /// Section 5.2, Figure 8).
    fn verification_plane(&self) -> CollusionConfig {
        CollusionConfig::none()
    }

    /// Hook run at the start of every gossip tick, once per stream plane and
    /// before that plane's propose phase; `period` is the counter the
    /// upcoming propose round will carry (i.e. `ProposeRound::period`, the
    /// pre-increment value the verifier's history records for the round).
    /// Time-varying adversaries reshape the dissemination plane here.
    /// Implementations used by the paper's scenarios must not consume RNG.
    fn on_gossip_tick(&mut self, _stream: StreamId, _period: u64, _gossip: &mut GossipNode) {}

    /// Blames this node fabricates out of thin air at the end of its gossip
    /// tick (the blame-spamming attack on the reputation plane), given the
    /// node's identity, the membership view and its private RNG stream.
    /// Honest and paper adversaries return nothing and consume no RNG.
    fn fabricate_blames(
        &mut self,
        _me: NodeId,
        _directory: &Directory,
        _rng: &mut SmallRng,
    ) -> Vec<Blame> {
        Vec::new()
    }

    /// Whether this adversary wants the per-period score feedback upcall.
    /// The runtime only pays for the feedback pass when a closed-loop
    /// scenario is configured, and within it only polls adversaries that
    /// return `true` here.
    fn wants_score_feedback(&self) -> bool {
        false
    }

    /// Closed-loop feedback: at the end of gossip period `period` the
    /// adversary learns its own aggregated manager score (`None` while no
    /// manager has a book for it yet) and the *public* detection threshold
    /// `η`. This models a rational freerider that probes its standing — e.g.
    /// by polling its managers — and adapts. Must be deterministic and must
    /// not consume RNG.
    fn on_score_feedback(
        &mut self,
        _period: u64,
        _score: Option<f64>,
        _eta: f64,
    ) -> FeedbackAction {
        FeedbackAction::None
    }

    /// Closed-loop observation: a coalition accomplice (`target`) was picked
    /// as an audit target during `period`. Adaptive colluders use this to
    /// steer cover traffic away from peers under scrutiny. Default: ignore.
    fn on_audit_observed(&mut self, _target: NodeId, _period: u64) {}

    /// Hook run right after [`on_gossip_tick`](Self::on_gossip_tick) with the
    /// plane's partner selector: adaptive adversaries re-pick their selection
    /// policy here (e.g. re-aim collusion bias away from recently audited
    /// accomplices). Must not consume RNG; the default keeps the selector
    /// untouched.
    fn retune_membership(
        &mut self,
        _stream: StreamId,
        _period: u64,
        _selector: &mut PartnerSelector,
    ) {
    }
}

/// Strict protocol compliance on every plane.
#[derive(Debug, Clone, Copy, Default)]
pub struct Honest;

impl Adversary for Honest {
    fn name(&self) -> &'static str {
        "honest"
    }
}

/// The paper's independent freerider: deviates at the dissemination plane
/// only, with degree `Δ = (δ1, δ2, δ3)` (Section 4.1).
#[derive(Debug, Clone, Copy)]
pub struct Freerider {
    /// The degree of freeriding.
    pub degree: FreeriderConfig,
}

impl Adversary for Freerider {
    fn name(&self) -> &'static str {
        "freerider"
    }

    fn is_freerider(&self) -> bool {
        true
    }

    fn dissemination_plane(&self) -> Behavior {
        Behavior::Freerider(self.degree)
    }
}

/// A coalition member: freerides at the dissemination plane and additionally
/// subverts partner selection and the verification procedures together with
/// its accomplices (Sections 4.1(iii) and 5.2).
#[derive(Debug, Clone)]
pub struct Colluder {
    /// The degree of freeriding.
    pub degree: FreeriderConfig,
    /// The whole coalition (including this node).
    pub coalition: Arc<Vec<NodeId>>,
    /// Probability of picking a coalition member as gossip partner (`pm`);
    /// 0 keeps the selection uniform.
    pub partner_bias: f64,
    /// Vouch for coalition members during confirmations, never blame them.
    pub cover_up: bool,
    /// Mount the man-in-the-middle attack of Figure 8b.
    pub man_in_the_middle: bool,
}

impl Adversary for Colluder {
    fn name(&self) -> &'static str {
        "colluder"
    }

    fn is_freerider(&self) -> bool {
        true
    }

    fn dissemination_plane(&self) -> Behavior {
        Behavior::Freerider(self.degree)
    }

    fn membership_plane(&self) -> PartnerSelector {
        if self.partner_bias > 0.0 {
            PartnerSelector::new(SelectionPolicy::ColludingBias {
                colluders: self.coalition.clone(),
                pm: self.partner_bias,
            })
        } else {
            PartnerSelector::uniform()
        }
    }

    fn verification_plane(&self) -> CollusionConfig {
        CollusionConfig::coalition(
            self.coalition.clone(),
            self.cover_up,
            self.man_in_the_middle,
        )
    }
}

/// An **on-off freerider** — a time-varying attack the old `Behavior` enum
/// could not express: the node freerides for `on_periods` gossip periods,
/// then behaves honestly for `off_periods`, and so on. Dodging detection this
/// way exploits the score's `1/r` normalization (Equation 6): blame collected
/// while "on" is diluted by the honest windows.
#[derive(Debug, Clone, Copy)]
pub struct OnOffFreerider {
    /// The degree of freeriding while "on".
    pub degree: FreeriderConfig,
    /// Length of the freeriding window, in gossip periods (≥ 1).
    pub on_periods: u64,
    /// Length of the honest window, in gossip periods (≥ 1).
    pub off_periods: u64,
}

impl OnOffFreerider {
    /// True if the node freerides during `period`.
    pub fn is_on(&self, period: u64) -> bool {
        let cycle = (self.on_periods + self.off_periods).max(1);
        period % cycle < self.on_periods
    }
}

impl Adversary for OnOffFreerider {
    fn name(&self) -> &'static str {
        "on-off-freerider"
    }

    fn is_freerider(&self) -> bool {
        true
    }

    fn dissemination_plane(&self) -> Behavior {
        Behavior::Freerider(self.degree)
    }

    fn on_gossip_tick(&mut self, _stream: StreamId, period: u64, gossip: &mut GossipNode) {
        let behavior = if self.is_on(period) {
            Behavior::Freerider(self.degree)
        } else {
            Behavior::Honest
        };
        if gossip.behavior() != &behavior {
            gossip.set_behavior(behavior);
        }
    }
}

/// A **blame spammer** — an attack on the reputation plane the old
/// construction could not express: the node participates honestly in the
/// dissemination but floods the managers with fabricated blames against
/// random peers, trying to drive honest nodes below the expulsion threshold
/// and erode trust in the scores. The per-period compensation `b̃`
/// (Equation 5) is LiFTinG's only systemic defence, which is exactly what
/// this adversary stresses.
#[derive(Debug, Clone, Copy)]
pub struct BlameSpammer {
    /// Fabricated blames emitted per gossip tick.
    pub blames_per_period: u32,
    /// Value of each fabricated blame.
    pub blame_value: f64,
}

impl Adversary for BlameSpammer {
    fn name(&self) -> &'static str {
        "blame-spammer"
    }

    fn is_freerider(&self) -> bool {
        true
    }

    fn fabricate_blames(
        &mut self,
        me: NodeId,
        directory: &Directory,
        rng: &mut SmallRng,
    ) -> Vec<Blame> {
        (0..self.blames_per_period)
            .filter_map(|_| {
                let target = *directory.sample_uniform(rng, 1, me).first()?;
                Some(Blame::new(
                    target,
                    self.blame_value,
                    BlameReason::PartialServe,
                ))
            })
            .collect()
    }
}

/// A **selective freerider** — the multi-channel attack: the node behaves
/// honestly on some channels and goes fully silent (proposes to nobody,
/// serves nothing) on the channels named in its mask. With per-channel
/// reputation the node would keep its good standing — and its stream — on
/// the honest channels; because the managers aggregate blames *across*
/// channels into one score per node, the silence on one channel gets it
/// expelled from all of them.
#[derive(Debug, Clone, Copy)]
pub struct SelectiveFreerider {
    /// Bitmask of silenced streams (bit `s` = stream `s`).
    pub silent_mask: u64,
}

impl SelectiveFreerider {
    /// Full silence: never propose, never serve. The absent proposals starve
    /// the plane of acks (`MissingAck` blames, `f` each) and every request
    /// the node *does* make goes unserved nowhere — the strongest
    /// per-channel misbehaviour short of leaving.
    pub const SILENT: FreeriderConfig = FreeriderConfig {
        delta1: 1.0,
        delta2: 0.0,
        delta3: 1.0,
        period_stretch: 1,
    };

    /// True if the node is silent on `stream`.
    pub fn silences(&self, stream: StreamId) -> bool {
        (self.silent_mask >> stream.index()) & 1 == 1
    }
}

impl Adversary for SelectiveFreerider {
    fn name(&self) -> &'static str {
        "selective-freerider"
    }

    fn is_freerider(&self) -> bool {
        true
    }

    fn dissemination_plane(&self) -> Behavior {
        self.dissemination_plane_for(StreamId::PRIMARY)
    }

    fn dissemination_plane_for(&self, stream: StreamId) -> Behavior {
        if self.silences(stream) {
            Behavior::Freerider(Self::SILENT)
        } else {
            Behavior::Honest
        }
    }
}

/// A **gradient freerider** — the closed-loop version of the independent
/// freerider: each period it reads its own aggregated manager score and
/// throttles its freeriding *intensity* so the score rides just above the
/// public threshold `η`. When the score dips below `η + margin` it backs off
/// by `step`; while comfortably above, it creeps back up by `step / 2`
/// (back off fast, get greedy slowly). Against a static `η` this extracts
/// near-maximal gain while staying undetected; the online-recalibration
/// defence moves the effective threshold into the band the adversary is
/// hiding in.
#[derive(Debug, Clone, Copy)]
pub struct GradientFreerider {
    /// The maximal degree of freeriding, applied at intensity 1.
    pub degree: FreeriderConfig,
    /// Safety margin above `η` the adversary tries to keep.
    pub margin: f64,
    /// Intensity decrement applied when the score gets too close to `η`.
    pub step: f64,
    /// Current freeriding intensity in `[0, 1]`; scales all three deltas.
    intensity: f64,
}

impl GradientFreerider {
    /// A gradient freerider that starts fully greedy (intensity 1).
    pub fn new(degree: FreeriderConfig, margin: f64, step: f64) -> Self {
        GradientFreerider {
            degree,
            margin,
            step,
            intensity: 1.0,
        }
    }

    /// The current freeriding intensity.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    /// The degree at the current intensity (all deltas scaled).
    fn scaled_degree(&self) -> FreeriderConfig {
        FreeriderConfig {
            delta1: self.degree.delta1 * self.intensity,
            delta2: self.degree.delta2 * self.intensity,
            delta3: self.degree.delta3 * self.intensity,
            period_stretch: self.degree.period_stretch,
        }
    }
}

impl Adversary for GradientFreerider {
    fn name(&self) -> &'static str {
        "gradient-freerider"
    }

    fn is_freerider(&self) -> bool {
        true
    }

    fn dissemination_plane(&self) -> Behavior {
        Behavior::Freerider(self.scaled_degree())
    }

    fn on_gossip_tick(&mut self, _stream: StreamId, _period: u64, gossip: &mut GossipNode) {
        let behavior = if self.intensity <= 0.0 {
            Behavior::Honest
        } else {
            Behavior::Freerider(self.scaled_degree())
        };
        if gossip.behavior() != &behavior {
            gossip.set_behavior(behavior);
        }
    }

    fn wants_score_feedback(&self) -> bool {
        true
    }

    fn on_score_feedback(&mut self, _period: u64, score: Option<f64>, eta: f64) -> FeedbackAction {
        if let Some(score) = score {
            if score < eta + self.margin {
                self.intensity = (self.intensity - self.step).max(0.0);
            } else {
                self.intensity = (self.intensity + self.step * 0.5).min(1.0);
            }
        }
        FeedbackAction::None
    }
}

/// A **whitewasher** — the churn-exploiting closed-loop attack: the node
/// freerides greedily and watches its own score trajectory; once blame has
/// dragged the score `margin` below the best value it has seen (a drawdown
/// it can measure locally, with no knowledge of the managers' threshold) it
/// *leaves* and rejoins after `offline`, betting that the rejoin launders
/// the bad reputation. The defence is the frozen-score carryover: departed
/// nodes' manager books are frozen (not deleted) and expulsion votes
/// persist, so the identity's history survives the wash cycle.
#[derive(Debug, Clone, Copy)]
pub struct Whitewasher {
    /// The degree of freeriding.
    pub degree: FreeriderConfig,
    /// Departure trigger: leave once the score has fallen `margin` below its
    /// observed peak.
    pub margin: f64,
    /// How long to stay offline before rejoining.
    pub offline: SimDuration,
    /// Best score observed so far (the drawdown baseline).
    peak: f64,
}

impl Whitewasher {
    /// A whitewasher of the given freeriding degree that washes after a
    /// `margin` drawdown and stays away for `offline`.
    pub fn new(degree: FreeriderConfig, margin: f64, offline: SimDuration) -> Self {
        Whitewasher {
            degree,
            margin,
            offline,
            peak: f64::NEG_INFINITY,
        }
    }
}

impl Adversary for Whitewasher {
    fn name(&self) -> &'static str {
        "whitewasher"
    }

    fn is_freerider(&self) -> bool {
        true
    }

    fn dissemination_plane(&self) -> Behavior {
        Behavior::Freerider(self.degree)
    }

    fn wants_score_feedback(&self) -> bool {
        true
    }

    fn on_score_feedback(&mut self, _period: u64, score: Option<f64>, _eta: f64) -> FeedbackAction {
        let Some(score) = score else {
            return FeedbackAction::None;
        };
        self.peak = self.peak.max(score);
        if self.peak - score > self.margin {
            // Rebaseline so the post-rejoin cycle measures a fresh drawdown
            // (the rejoin also rebuilds this adversary, which has the same
            // effect; this keeps the state machine correct on its own).
            self.peak = score;
            FeedbackAction::Depart {
                offline: self.offline,
            }
        } else {
            FeedbackAction::None
        }
    }
}

/// An **adaptive colluder** — a coalition member that watches which of its
/// accomplices get audited and re-aims its cover traffic away from them for
/// `cooldown_periods`: biased partner selection towards a peer whose history
/// is about to be entropy-checked is exactly what the `γ` test catches, so
/// the coalition rotates its bias towards unscrutinized members instead.
/// Pure reshaping of the membership plane; consumes no RNG.
#[derive(Debug, Clone)]
pub struct AdaptiveColluder {
    /// The degree of freeriding.
    pub degree: FreeriderConfig,
    /// The whole coalition (including this node).
    pub coalition: Arc<Vec<NodeId>>,
    /// Probability of picking a coalition member as gossip partner (`pm`).
    pub partner_bias: f64,
    /// How many gossip periods an audited accomplice stays off the bias list.
    pub cooldown_periods: u64,
    /// Accomplices recently picked as audit targets: `(member, period seen)`.
    recently_audited: Vec<(NodeId, u64)>,
}

impl AdaptiveColluder {
    /// A fresh adaptive colluder with an empty audit memory.
    pub fn new(
        degree: FreeriderConfig,
        coalition: Arc<Vec<NodeId>>,
        partner_bias: f64,
        cooldown_periods: u64,
    ) -> Self {
        AdaptiveColluder {
            degree,
            coalition,
            partner_bias,
            cooldown_periods,
            recently_audited: Vec::new(),
        }
    }

    /// Coalition members currently safe to bias towards (not audited within
    /// the cooldown window ending at `period`). Falls back to the full
    /// coalition when fewer than two members are unscrutinized — a bias list
    /// needs somebody on it.
    fn safe_coalition(&self, period: u64) -> Arc<Vec<NodeId>> {
        let burned = |n: &NodeId| {
            self.recently_audited
                .iter()
                .any(|(m, p)| m == n && period.saturating_sub(*p) < self.cooldown_periods)
        };
        let safe: Vec<NodeId> = self
            .coalition
            .iter()
            .filter(|n| !burned(n))
            .copied()
            .collect();
        if safe.len() < 2 {
            self.coalition.clone()
        } else {
            Arc::new(safe)
        }
    }
}

impl Adversary for AdaptiveColluder {
    fn name(&self) -> &'static str {
        "adaptive-colluder"
    }

    fn is_freerider(&self) -> bool {
        true
    }

    fn dissemination_plane(&self) -> Behavior {
        Behavior::Freerider(self.degree)
    }

    fn membership_plane(&self) -> PartnerSelector {
        PartnerSelector::new(SelectionPolicy::ColludingBias {
            colluders: self.coalition.clone(),
            pm: self.partner_bias,
        })
    }

    fn verification_plane(&self) -> CollusionConfig {
        CollusionConfig::coalition(self.coalition.clone(), true, false)
    }

    fn on_audit_observed(&mut self, target: NodeId, period: u64) {
        if !self.coalition.contains(&target) {
            return;
        }
        if let Some(entry) = self.recently_audited.iter_mut().find(|(m, _)| *m == target) {
            entry.1 = period;
        } else {
            self.recently_audited.push((target, period));
        }
    }

    fn retune_membership(
        &mut self,
        _stream: StreamId,
        period: u64,
        selector: &mut PartnerSelector,
    ) {
        self.recently_audited
            .retain(|(_, p)| period.saturating_sub(*p) < self.cooldown_periods);
        if self.recently_audited.is_empty() {
            // Nothing burned: only rebuild if a previous retune shrank the
            // bias list (cheap equality on the Arc'd full coalition).
            if let SelectionPolicy::ColludingBias { colluders, .. } = selector.policy() {
                if Arc::ptr_eq(colluders, &self.coalition) {
                    return;
                }
            }
        }
        *selector = PartnerSelector::new(SelectionPolicy::ColludingBias {
            colluders: self.safe_coalition(period),
            pm: self.partner_bias,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_gossip::GossipConfig;
    use lifting_sim::derive_rng;

    #[test]
    fn paper_adversaries_configure_the_planes_like_the_old_wiring() {
        let honest = Honest;
        assert!(!honest.is_freerider());
        assert_eq!(honest.dissemination_plane(), Behavior::Honest);
        assert!(!honest.verification_plane().covers_up());

        let freerider = Freerider {
            degree: FreeriderConfig::planetlab(),
        };
        assert!(freerider.is_freerider());
        assert!(freerider.dissemination_plane().is_freerider());
        assert!(!freerider.verification_plane().man_in_the_middle());

        let coalition = Arc::new(vec![NodeId::new(1), NodeId::new(2)]);
        let colluder = Colluder {
            degree: FreeriderConfig::planetlab(),
            coalition: coalition.clone(),
            partner_bias: 0.3,
            cover_up: true,
            man_in_the_middle: false,
        };
        assert!(colluder.verification_plane().covers_up());
        assert!(matches!(
            colluder.membership_plane().policy(),
            SelectionPolicy::ColludingBias { .. }
        ));
        let unbiased = Colluder {
            partner_bias: 0.0,
            ..colluder
        };
        assert!(matches!(
            unbiased.membership_plane().policy(),
            SelectionPolicy::Uniform
        ));
    }

    #[test]
    fn on_off_freerider_alternates_windows() {
        let mut adversary = OnOffFreerider {
            degree: FreeriderConfig::uniform(0.3),
            on_periods: 2,
            off_periods: 3,
        };
        let on: Vec<bool> = (0..10).map(|p| adversary.is_on(p)).collect();
        assert_eq!(
            on,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
        let mut gossip = GossipNode::new(
            NodeId::new(4),
            GossipConfig::planetlab(),
            Behavior::Freerider(adversary.degree),
        );
        adversary.on_gossip_tick(StreamId::PRIMARY, 2, &mut gossip);
        assert_eq!(gossip.behavior(), &Behavior::Honest);
        adversary.on_gossip_tick(StreamId::PRIMARY, 5, &mut gossip);
        assert!(gossip.behavior().is_freerider());
    }

    #[test]
    fn selective_freerider_is_honest_per_channel() {
        let adversary = SelectiveFreerider { silent_mask: 0b10 };
        assert!(adversary.is_freerider());
        assert_eq!(
            adversary.dissemination_plane_for(StreamId::new(0)),
            Behavior::Honest
        );
        let silent = adversary.dissemination_plane_for(StreamId::new(1));
        assert!(silent.is_freerider());
        // Fully silent: zero effective fanout, zero serves.
        let mut rng = derive_rng(3, 0);
        assert_eq!(silent.effective_fanout(7, &mut rng), 0);
        assert_eq!(silent.effective_serve(4, &mut rng), 0);
    }

    #[test]
    fn gradient_freerider_rides_the_threshold() {
        let mut adversary = GradientFreerider::new(FreeriderConfig::uniform(0.4), 2.0, 0.25);
        assert!(adversary.is_freerider());
        assert!(adversary.wants_score_feedback());
        assert_eq!(adversary.intensity(), 1.0);
        // No score yet: nothing changes.
        assert_eq!(
            adversary.on_score_feedback(1, None, -9.75),
            FeedbackAction::None
        );
        assert_eq!(adversary.intensity(), 1.0);
        // Score in the danger zone (η + margin): back off by `step`.
        adversary.on_score_feedback(2, Some(-8.5), -9.75);
        assert_eq!(adversary.intensity(), 0.75);
        adversary.on_score_feedback(3, Some(-9.0), -9.75);
        assert_eq!(adversary.intensity(), 0.5);
        // Comfortable again: creep back up by `step / 2`, capped at 1.
        adversary.on_score_feedback(4, Some(-1.0), -9.75);
        assert_eq!(adversary.intensity(), 0.625);
        for _ in 0..10 {
            adversary.on_score_feedback(5, Some(-1.0), -9.75);
        }
        assert_eq!(adversary.intensity(), 1.0);
        // Intensity clamps at 0 and the plane degrades to honest behaviour.
        for _ in 0..10 {
            adversary.on_score_feedback(6, Some(-20.0), -9.75);
        }
        assert_eq!(adversary.intensity(), 0.0);
        let mut gossip = GossipNode::new(
            NodeId::new(4),
            GossipConfig::planetlab(),
            adversary.dissemination_plane(),
        );
        adversary.on_gossip_tick(StreamId::PRIMARY, 7, &mut gossip);
        assert_eq!(gossip.behavior(), &Behavior::Honest);
        // Scaled deltas: at intensity 0.5, half the configured degree.
        adversary.intensity = 0.5;
        match adversary.dissemination_plane() {
            Behavior::Freerider(d) => {
                assert!((d.delta1 - 0.2).abs() < 1e-12);
                assert!((d.delta2 - 0.2).abs() < 1e-12);
                assert!((d.delta3 - 0.2).abs() < 1e-12);
            }
            other => panic!("expected freerider behaviour, got {other:?}"),
        }
    }

    #[test]
    fn whitewasher_departs_on_drawdown_not_on_low_absolute_score() {
        let mut adversary =
            Whitewasher::new(FreeriderConfig::planetlab(), 1.0, SimDuration::from_secs(2));
        assert!(adversary.wants_score_feedback());
        // A low but *rising* score is not a drawdown — no wash, regardless of
        // how the absolute value compares to η.
        assert_eq!(
            adversary.on_score_feedback(3, Some(-5.0), -9.75),
            FeedbackAction::None
        );
        assert_eq!(
            adversary.on_score_feedback(4, None, -9.75),
            FeedbackAction::None
        );
        assert_eq!(
            adversary.on_score_feedback(5, Some(2.0), -9.75),
            FeedbackAction::None
        );
        // Blame drags the score 1.5 below the observed peak: wash.
        assert_eq!(
            adversary.on_score_feedback(6, Some(0.5), -9.75),
            FeedbackAction::Depart {
                offline: SimDuration::from_secs(2)
            }
        );
        // The trigger rebaselines: the same score right after is no drawdown.
        assert_eq!(
            adversary.on_score_feedback(7, Some(0.5), -9.75),
            FeedbackAction::None
        );
    }

    #[test]
    fn adaptive_colluder_rotates_bias_away_from_audited_accomplices() {
        let coalition = Arc::new(vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
        let mut adversary =
            AdaptiveColluder::new(FreeriderConfig::planetlab(), coalition.clone(), 0.6, 4);
        assert!(adversary.verification_plane().covers_up());
        let mut selector = adversary.membership_plane();
        // Audits outside the coalition are ignored.
        adversary.on_audit_observed(NodeId::new(9), 10);
        adversary.retune_membership(StreamId::PRIMARY, 10, &mut selector);
        match selector.policy() {
            SelectionPolicy::ColludingBias { colluders, .. } => {
                assert_eq!(colluders.len(), 3)
            }
            other => panic!("expected colluding bias, got {other:?}"),
        }
        // An audited accomplice drops off the bias list for the cooldown.
        adversary.on_audit_observed(NodeId::new(2), 11);
        adversary.retune_membership(StreamId::PRIMARY, 11, &mut selector);
        match selector.policy() {
            SelectionPolicy::ColludingBias { colluders, pm } => {
                assert_eq!(**colluders, vec![NodeId::new(1), NodeId::new(3)]);
                assert_eq!(*pm, 0.6);
            }
            other => panic!("expected colluding bias, got {other:?}"),
        }
        // ... and comes back once the cooldown expires.
        adversary.retune_membership(StreamId::PRIMARY, 15, &mut selector);
        match selector.policy() {
            SelectionPolicy::ColludingBias { colluders, .. } => {
                assert_eq!(colluders.len(), 3)
            }
            other => panic!("expected colluding bias, got {other:?}"),
        }
        // If (nearly) the whole coalition is under scrutiny there is nobody
        // safe to hide behind: fall back to the full coalition.
        adversary.on_audit_observed(NodeId::new(1), 20);
        adversary.on_audit_observed(NodeId::new(2), 20);
        adversary.retune_membership(StreamId::PRIMARY, 20, &mut selector);
        match selector.policy() {
            SelectionPolicy::ColludingBias { colluders, .. } => {
                assert_eq!(colluders.len(), 3)
            }
            other => panic!("expected colluding bias, got {other:?}"),
        }
    }

    #[test]
    fn blame_spammer_fabricates_the_configured_volume() {
        let mut adversary = BlameSpammer {
            blames_per_period: 3,
            blame_value: 10.0,
        };
        let directory = Directory::new(20);
        let mut rng = derive_rng(7, 0);
        let blames = adversary.fabricate_blames(NodeId::new(5), &directory, &mut rng);
        assert_eq!(blames.len(), 3);
        assert!(blames.iter().all(|b| b.target != NodeId::new(5)));
        assert!(blames.iter().all(|b| b.value == 10.0));
    }
}
