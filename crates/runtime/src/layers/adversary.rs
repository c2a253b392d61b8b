//! Adversaries: how a node deviates from the protocol (Section 4 of the
//! paper lists the deviations of each phase).
//!
//! An [`AdversaryFamily`] declares one attack with its parameters; a
//! scenario's freerider population plays it, every other node is honest.
//! [`Adversary`] is what one node runs: its family (none when honest), the
//! population's degree, the coalition and the state an attack changes during
//! a run. The stack's hooks read it to configure each plane when the node is
//! built, to reshape the planes as the run goes, and to inject traffic.

use std::sync::Arc;

use lifting_core::{Blame, BlameReason, CollusionConfig};
use lifting_gossip::{Behavior, FreeriderConfig, GossipNode};
use lifting_membership::{Directory, PartnerSelector, SelectionPolicy};
use lifting_sim::{ComponentError, NodeId, SimDuration, StreamId};
use rand::rngs::SmallRng;

use crate::scenario::ScenarioConfig;

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

/// The attack a scenario's freerider population plays, with its parameters.
/// Every variant but the baseline replaces the freeriders' behaviour; all of
/// them freeride with the population's degree `Δ = (δ1, δ2, δ3)` except the
/// blame spammer and the selective freerider, which bring their own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryFamily {
    /// The paper's adversary: freeriders deviating at the dissemination plane
    /// only (Section 4.1), independent unless told to collude. Colluders
    /// additionally subvert partner selection and the verification procedures
    /// together with their accomplices (Sections 4.1(iii) and 5.2, Figure 8).
    Baseline {
        /// Probability of picking a partner inside the coalition (`pm`); 0
        /// keeps the selection uniform.
        partner_bias: f64,
        /// Colluders vouch for each other during confirmations and never
        /// blame each other.
        cover_up: bool,
        /// Colluders mount the man-in-the-middle attack of Figure 8b.
        man_in_the_middle: bool,
    },
    /// A time-varying attack: freeride for `on_periods` gossip periods, then
    /// behave for `off_periods`, and so on. Dodging detection this way
    /// exploits the score's `1/r` normalization (Equation 6): blame collected
    /// while "on" is diluted by the honest windows.
    OnOff {
        /// Periods spent freeriding (≥ 1).
        on_periods: u64,
        /// Periods spent honest (≥ 1).
        off_periods: u64,
    },
    /// An attack on the reputation plane: participate honestly in the
    /// dissemination but flood the managers with fabricated blames against
    /// random peers, trying to drive honest nodes below the expulsion
    /// threshold and erode trust in the scores. The per-period compensation
    /// `b̃` (Equation 5) is LiFTinG's only systemic defence, which is exactly
    /// what this attack stresses.
    BlameSpam {
        /// Fabricated blames per gossip tick (≥ 1).
        blames_per_period: u32,
        /// Value of each fabricated blame (≥ 0).
        blame_value: f64,
    },
    /// The multi-channel attack: honest on some channels, fully silent
    /// (proposes to nobody, serves nothing) on the channels named in the
    /// mask. With per-channel reputation the node would keep its good
    /// standing — and its stream — on the honest channels; because the
    /// managers aggregate blames *across* channels into one score per node,
    /// the silence on one channel gets it expelled from all of them.
    SelectiveFreerider {
        /// Bit `s` silences stream `s` (non-zero, within the streams run).
        silent_mask: u64,
    },
    /// The closed-loop version of the independent freerider: each period it
    /// reads its own aggregated manager score and throttles its freeriding
    /// *intensity* so the score rides just above the public threshold `η`.
    /// When the score dips below `η + margin` it backs off by `step`; while
    /// comfortably above, it creeps back up by `step / 2` (back off fast, get
    /// greedy slowly). Against a static `η` this extracts near-maximal gain
    /// while staying undetected; the online-recalibration defence moves the
    /// effective threshold into the band the adversary is hiding in.
    GradientFreerider {
        /// Score margin kept above η (≥ 0).
        margin: f64,
        /// Adjustment step of the freeriding intensity, in `(0, 1]`.
        step: f64,
    },
    /// The churn-exploiting closed-loop attack: freeride greedily and watch
    /// the own score trajectory; once blame has dragged the score `margin`
    /// below the best value seen (a drawdown measurable locally, with no
    /// knowledge of the managers' threshold) *leave* and rejoin after
    /// `offline`, betting that the rejoin launders the bad reputation. The
    /// defence is the frozen-score carryover: departed nodes' manager books
    /// are frozen (not deleted) and expulsion votes persist, so the
    /// identity's history survives the wash cycle.
    Whitewasher {
        /// Score drop that triggers a departure (≥ 0).
        margin: f64,
        /// Offline spell before rejoining (positive, at most the scenario's
        /// duration).
        offline: SimDuration,
    },
    /// Coalition members that watch which accomplices get audited and re-aim
    /// their cover traffic away from them for `cooldown_periods`: biased
    /// partner selection towards a peer whose history is about to be
    /// entropy-checked is exactly what the `γ` test catches, so the coalition
    /// rotates its bias towards unscrutinized members instead. Pure reshaping
    /// of the membership plane; consumes no RNG.
    AdaptiveColluders {
        /// Probability of picking a partner inside the coalition.
        partner_bias: f64,
        /// Periods an audited accomplice stays avoided (≥ 1).
        cooldown_periods: u64,
    },
}

impl Default for AdversaryFamily {
    /// Independent freeriders, the paper's adversary.
    fn default() -> Self {
        AdversaryFamily::Baseline {
            partner_bias: 0.0,
            cover_up: false,
            man_in_the_middle: false,
        }
    }
}

impl AdversaryFamily {
    /// The family's name, as errors and listings print it.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryFamily::Baseline { .. } => "baseline",
            AdversaryFamily::OnOff { .. } => "on-off",
            AdversaryFamily::BlameSpam { .. } => "blame-spam",
            AdversaryFamily::SelectiveFreerider { .. } => "selective-freerider",
            AdversaryFamily::GradientFreerider { .. } => "gradient-freerider",
            AdversaryFamily::Whitewasher { .. } => "whitewasher",
            AdversaryFamily::AdaptiveColluders { .. } => "adaptive-colluders",
        }
    }

    /// True if the family reacts to runtime feedback (scores, audit
    /// observations) — i.e. the runtime must run the closed-loop upcalls.
    pub fn closed_loop(&self) -> bool {
        matches!(
            self,
            AdversaryFamily::GradientFreerider { .. }
                | AdversaryFamily::Whitewasher { .. }
                | AdversaryFamily::AdaptiveColluders { .. }
        )
    }

    /// True for a baseline population that colludes: it biases partner
    /// selection, covers up or mounts the man-in-the-middle attack.
    fn colludes(&self) -> bool {
        matches!(*self, AdversaryFamily::Baseline { partner_bias, cover_up, man_in_the_middle }
            if partner_bias > 0.0 || cover_up || man_in_the_middle)
    }

    /// Checks every parameter's range, then the family's cross-field rules
    /// against the scenario it is declared in: a family that replaces the
    /// freeriders' behaviour needs a population to replace (a coalition
    /// needs two), a selective mask must name streams the scenario runs, and
    /// a whitewasher's offline spell must fit in the run.
    pub fn validate(&self, config: &ScenarioConfig) -> Result<(), ComponentError> {
        let name = self.name();
        let fraction = |key, x| ComponentError::require_fraction(name, key, x);
        let count = |key, x| ComponentError::require_at_least_one(name, key, x);
        let non_negative = |key, x| ComponentError::require_non_negative(name, key, x);
        let min_freeriders = match *self {
            AdversaryFamily::Baseline { partner_bias, .. } => {
                fraction("partner_bias", partner_bias)?;
                0
            }
            AdversaryFamily::OnOff {
                on_periods,
                off_periods,
            } => {
                count("on_periods", on_periods)?;
                count("off_periods", off_periods)?;
                ComponentError::require(
                    on_periods.checked_add(off_periods).is_some(),
                    name,
                    "off_periods",
                    format!("a cycle of {on_periods} + {off_periods} periods overflows"),
                )?;
                1
            }
            AdversaryFamily::BlameSpam {
                blames_per_period,
                blame_value,
            } => {
                count("blames_per_period", blames_per_period.into())?;
                non_negative("blame_value", blame_value)?;
                1
            }
            AdversaryFamily::SelectiveFreerider { silent_mask } => {
                let reason = format!("{silent_mask} silences no stream");
                ComponentError::require(silent_mask != 0, name, "silent_mask", reason)?;
                1
            }
            AdversaryFamily::GradientFreerider { margin, step } => {
                non_negative("margin", margin)?;
                let reason = format!("{step} is not in (0, 1]");
                ComponentError::require(step > 0.0 && step <= 1.0, name, "step", reason)?;
                1
            }
            AdversaryFamily::Whitewasher { margin, offline } => {
                non_negative("margin", margin)?;
                ComponentError::require_positive_secs(name, "offline_secs", offline)?;
                let reason = format!("{} seconds outlasts the run", offline.as_secs_f64());
                let fits = offline <= config.duration;
                ComponentError::require(fits, name, "offline_secs", reason)?;
                1
            }
            AdversaryFamily::AdaptiveColluders {
                partner_bias,
                cooldown_periods,
            } => {
                fraction("partner_bias", partner_bias)?;
                count("cooldown_periods", cooldown_periods)?;
                2
            }
        };
        let freeriders = config.freerider_count();
        ComponentError::require(
            freeriders >= min_freeriders,
            name,
            "freeriders",
            format!(
                "{freeriders} freeriders configured, the family needs at least {min_freeriders}"
            ),
        )?;
        if let AdversaryFamily::SelectiveFreerider { silent_mask: mask } = *self {
            let streams = config.stream_count();
            let reason = "needs at least two streams to select between";
            ComponentError::require(streams > 1, name, "silent_mask", reason)?;
            // With 64 streams every bit names one (and `>> 64` overflows).
            ComponentError::require(
                streams >= 64 || mask >> streams == 0,
                name,
                "silent_mask",
                format!("{mask:#b} names streams beyond the {streams} the scenario runs"),
            )?;
        }
        Ok(())
    }

    /// The adversary node `index` plays: node 0 (the source) and the honest
    /// population play honest, the freerider suffix plays the family with
    /// the population's degree.
    pub fn spawn(
        &self,
        config: &ScenarioConfig,
        index: usize,
        coalition: &Arc<Vec<NodeId>>,
    ) -> Adversary {
        let Some(population) = config.freeriders.filter(|_| config.is_freerider(index)) else {
            return Adversary::default();
        };
        Adversary(Some(Box::new(Attack {
            family: *self,
            degree: population.degree,
            coalition: coalition.clone(),
            intensity: 1.0,
            peak: f64::NEG_INFINITY,
            recently_audited: Vec::new(),
        })))
    }
}

/// A selective freerider's degree on a silenced channel: never propose,
/// never serve. The absent proposals starve the plane of acks (`MissingAck`
/// blames, `f` each) — the strongest per-channel misbehaviour short of
/// leaving.
const SILENT: FreeriderConfig = FreeriderConfig {
    delta1: 1.0,
    delta2: 0.0,
    delta3: 1.0,
    period_stretch: 1,
};

/// A node's strategy: how each plane of its protocol stack deviates (or not)
/// from the protocol. The three `*_plane` methods are consulted once, when
/// the stack is built; the hooks run during the simulation. Every hook is
/// deterministic given the node's RNG stream. An honest node holds `None`
/// (one word in its stack); a freerider boxes its `Attack`.
#[derive(Debug, Default)]
pub struct Adversary(Option<Box<Attack>>);

/// The attack a freerider plays and the only state it changes during a run.
#[derive(Debug)]
struct Attack {
    /// The family this node plays.
    family: AdversaryFamily,
    /// The freerider population's degree of freeriding.
    degree: FreeriderConfig,
    /// The whole coalition (including this node, if it colludes).
    coalition: Arc<Vec<NodeId>>,
    /// A gradient freerider's current intensity in `[0, 1]`, scaling all
    /// three deltas; 1 for every other family.
    intensity: f64,
    /// A whitewasher's best score observed so far (the drawdown baseline).
    peak: f64,
    /// An adaptive colluder's accomplices recently picked as audit targets:
    /// `(member, period seen)`.
    recently_audited: Vec<(NodeId, u64)>,
}

impl Adversary {
    /// The family this node plays; `None` for an honest node.
    fn family(&self) -> Option<AdversaryFamily> {
        self.0.as_ref().map(|attack| attack.family)
    }

    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self.family() {
            None => "honest",
            Some(family @ AdversaryFamily::Baseline { .. }) if family.colludes() => "colluder",
            Some(AdversaryFamily::Baseline { .. }) => "freerider",
            Some(AdversaryFamily::OnOff { .. }) => "on-off-freerider",
            Some(AdversaryFamily::BlameSpam { .. }) => "blame-spammer",
            Some(AdversaryFamily::SelectiveFreerider { .. }) => "selective-freerider",
            Some(AdversaryFamily::GradientFreerider { .. }) => "gradient-freerider",
            Some(AdversaryFamily::Whitewasher { .. }) => "whitewasher",
            Some(AdversaryFamily::AdaptiveColluders { .. }) => "adaptive-colluder",
        }
    }

    /// True if an on-off freerider freerides during `period`.
    fn is_on(&self, period: u64) -> bool {
        match self.family() {
            Some(AdversaryFamily::OnOff {
                on_periods,
                off_periods,
            }) => period % (on_periods + off_periods) < on_periods,
            _ => false,
        }
    }

    /// Dissemination-plane behaviour on `stream` (fanout decrease, partial
    /// propose, partial serve, period stretching — Section 4.1). A selective
    /// freerider reads `stream`; every other family deviates the same way on
    /// every channel.
    pub fn dissemination_plane(&self, stream: StreamId) -> Behavior {
        let Some(attack) = &self.0 else {
            return Behavior::Honest;
        };
        match attack.family {
            AdversaryFamily::BlameSpam { .. } => Behavior::Honest,
            AdversaryFamily::SelectiveFreerider { silent_mask } => {
                if (silent_mask >> stream.index()) & 1 == 1 {
                    Behavior::Freerider(SILENT)
                } else {
                    Behavior::Honest
                }
            }
            // Freeriding at the current intensity (all deltas scaled).
            _ => Behavior::Freerider(FreeriderConfig {
                delta1: attack.degree.delta1 * attack.intensity,
                delta2: attack.degree.delta2 * attack.intensity,
                delta3: attack.degree.delta3 * attack.intensity,
                period_stretch: attack.degree.period_stretch,
            }),
        }
    }

    /// Membership-plane partner selection on `stream` (colluders bias it
    /// towards the coalition — Section 4.1(iii)). Each plane gets its
    /// **own** selector instance.
    pub fn membership_plane(&self, _stream: StreamId) -> PartnerSelector {
        let Some(attack) = &self.0 else {
            return PartnerSelector::uniform();
        };
        let pm = match attack.family {
            AdversaryFamily::Baseline { partner_bias, .. } if partner_bias > 0.0 => partner_bias,
            AdversaryFamily::AdaptiveColluders { partner_bias, .. } => partner_bias,
            _ => return PartnerSelector::uniform(),
        };
        PartnerSelector::new(SelectionPolicy::ColludingBias {
            colluders: attack.coalition.clone(),
            pm,
        })
    }

    /// Verification-plane collusion (cover-up, man-in-the-middle —
    /// Section 5.2, Figure 8).
    pub fn verification_plane(&self) -> CollusionConfig {
        let Some(attack) = &self.0 else {
            return CollusionConfig::none();
        };
        let coalition = attack.coalition.clone();
        match attack.family {
            family @ AdversaryFamily::Baseline {
                cover_up,
                man_in_the_middle,
                ..
            } if family.colludes() => {
                CollusionConfig::coalition(coalition, cover_up, man_in_the_middle)
            }
            AdversaryFamily::AdaptiveColluders { .. } => {
                CollusionConfig::coalition(coalition, true, false)
            }
            _ => CollusionConfig::none(),
        }
    }

    /// Hook run at the start of every gossip tick, once per stream plane and
    /// before that plane's propose phase; `period` is the counter the
    /// upcoming propose round will carry (i.e. `ProposeRound::period`, the
    /// pre-increment value the verifier's history records for the round).
    /// The on-off and gradient freeriders reshape the dissemination plane
    /// here. Consumes no RNG.
    pub fn on_gossip_tick(&mut self, stream: StreamId, period: u64, gossip: &mut GossipNode) {
        let Some(attack) = &self.0 else { return };
        let behavior = match attack.family {
            AdversaryFamily::OnOff { .. } if !self.is_on(period) => Behavior::Honest,
            AdversaryFamily::GradientFreerider { .. } if attack.intensity <= 0.0 => {
                Behavior::Honest
            }
            AdversaryFamily::OnOff { .. } | AdversaryFamily::GradientFreerider { .. } => {
                self.dissemination_plane(stream)
            }
            _ => return,
        };
        if gossip.behavior() != &behavior {
            gossip.set_behavior(behavior);
        }
    }

    /// Blames this node fabricates out of thin air at the end of its gossip
    /// tick (the blame-spamming attack on the reputation plane), given the
    /// node's identity, the membership view and its private RNG stream.
    /// Every other family returns nothing and consumes no RNG.
    pub fn fabricate_blames(
        &mut self,
        me: NodeId,
        directory: &Directory,
        rng: &mut SmallRng,
    ) -> Vec<Blame> {
        let Some(AdversaryFamily::BlameSpam {
            blames_per_period,
            blame_value,
        }) = self.family()
        else {
            return Vec::new();
        };
        (0..blames_per_period)
            .filter_map(|_| {
                let target = *directory.sample_uniform(rng, 1, me).first()?;
                Some(Blame::new(target, blame_value, BlameReason::PartialServe))
            })
            .collect()
    }

    /// Whether this node wants the per-period score feedback upcall. The
    /// runtime only pays for the feedback pass when a closed-loop scenario is
    /// configured, and within it only polls the gradient freeriders and the
    /// whitewashers.
    pub fn wants_score_feedback(&self) -> bool {
        matches!(
            self.family(),
            Some(AdversaryFamily::GradientFreerider { .. } | AdversaryFamily::Whitewasher { .. })
        )
    }

    /// Closed-loop feedback: at the end of gossip period `period` the
    /// adversary learns its own aggregated manager score (`None` while no
    /// manager has a book for it yet) and the *public* detection threshold
    /// `η`. This models a rational freerider that probes its standing — e.g.
    /// by polling its managers — and adapts. Deterministic; consumes no RNG.
    pub fn on_score_feedback(
        &mut self,
        _period: u64,
        score: Option<f64>,
        eta: f64,
    ) -> FeedbackAction {
        let (Some(score), Some(attack)) = (score, &mut self.0) else {
            return FeedbackAction::None;
        };
        match attack.family {
            AdversaryFamily::GradientFreerider { margin, step } => {
                let change = if score < eta + margin {
                    -step
                } else {
                    step * 0.5
                };
                attack.intensity = (attack.intensity + change).clamp(0.0, 1.0);
                FeedbackAction::None
            }
            AdversaryFamily::Whitewasher { margin, offline } => {
                attack.peak = attack.peak.max(score);
                if attack.peak - score > margin {
                    // Rebaseline so the post-rejoin cycle measures a fresh
                    // drawdown (the rejoin also respawns this adversary,
                    // which has the same effect; this keeps the state
                    // machine correct on its own).
                    attack.peak = score;
                    FeedbackAction::Depart { offline }
                } else {
                    FeedbackAction::None
                }
            }
            _ => FeedbackAction::None,
        }
    }

    /// Closed-loop observation: a coalition accomplice (`target`) was picked
    /// as an audit target during `period`. Adaptive colluders use this to
    /// steer cover traffic away from peers under scrutiny; every other family
    /// ignores it.
    pub fn on_audit_observed(&mut self, target: NodeId, period: u64) {
        let Some(attack) = &mut self.0 else { return };
        if !matches!(attack.family, AdversaryFamily::AdaptiveColluders { .. })
            || !attack.coalition.contains(&target)
        {
            return;
        }
        let audited = &mut attack.recently_audited;
        if let Some(entry) = audited.iter_mut().find(|(m, _)| *m == target) {
            entry.1 = period;
        } else {
            audited.push((target, period));
        }
    }

    /// Hook run right after [`on_gossip_tick`](Self::on_gossip_tick) with the
    /// plane's partner selector: an adaptive colluder re-aims its bias away
    /// from recently audited accomplices here. Consumes no RNG; every other
    /// family keeps the selector untouched.
    pub fn retune_membership(
        &mut self,
        _stream: StreamId,
        period: u64,
        selector: &mut PartnerSelector,
    ) {
        let Some(Attack {
            family:
                AdversaryFamily::AdaptiveColluders {
                    partner_bias,
                    cooldown_periods,
                },
            coalition,
            recently_audited,
            ..
        }) = self.0.as_deref_mut()
        else {
            return;
        };
        recently_audited.retain(|(_, p)| period.saturating_sub(*p) < *cooldown_periods);
        if recently_audited.is_empty() {
            // Nothing burned: only rebuild if a previous retune shrank the
            // bias list (cheap equality on the Arc'd full coalition).
            if let SelectionPolicy::ColludingBias { colluders, .. } = selector.policy() {
                if Arc::ptr_eq(colluders, coalition) {
                    return;
                }
            }
        }
        // Bias towards the members not audited within the cooldown; fall
        // back to the full coalition when fewer than two are unscrutinized —
        // a bias list needs somebody on it.
        let burned = |n: &&NodeId| recently_audited.iter().any(|(m, _)| m == *n);
        let safe: Vec<NodeId> = coalition.iter().filter(|n| !burned(n)).copied().collect();
        let colluders = if safe.len() < 2 {
            coalition.clone()
        } else {
            Arc::new(safe)
        };
        *selector = PartnerSelector::new(SelectionPolicy::ColludingBias {
            colluders,
            pm: *partner_bias,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_gossip::GossipConfig;
    use lifting_sim::derive_rng;

    /// Node 9 of ten, the last three of which freeride at degree `degree`
    /// playing `family`, in the coalition of nodes 1, 2 and 3.
    fn playing(family: AdversaryFamily, degree: FreeriderConfig) -> Adversary {
        let coalition = Arc::new(vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
        let mut config = ScenarioConfig::small_test(10, 1);
        config.freeriders = Some(crate::scenario::FreeriderScenario { count: 3, degree });
        family.spawn(&config, 9, &coalition)
    }

    /// The attack state of a freerider built by [`playing`].
    fn attack(adversary: &Adversary) -> &Attack {
        adversary.0.as_deref().expect("a freerider")
    }

    fn baseline(partner_bias: f64, cover_up: bool, man_in_the_middle: bool) -> AdversaryFamily {
        AdversaryFamily::Baseline {
            partner_bias,
            cover_up,
            man_in_the_middle,
        }
    }

    #[test]
    fn paper_adversaries_configure_the_planes_like_the_old_wiring() {
        let honest = Adversary::default();
        assert_eq!(honest.name(), "honest");
        assert_eq!(
            honest.dissemination_plane(StreamId::PRIMARY),
            Behavior::Honest
        );
        assert!(!honest.verification_plane().covers_up());

        let freerider = playing(AdversaryFamily::default(), FreeriderConfig::planetlab());
        assert_eq!(freerider.name(), "freerider");
        assert!(freerider
            .dissemination_plane(StreamId::PRIMARY)
            .is_freerider());
        assert!(!freerider.verification_plane().man_in_the_middle());
        assert!(!freerider.verification_plane().is_colluder(NodeId::new(1)));

        let colluder = playing(baseline(0.3, true, false), FreeriderConfig::planetlab());
        assert!(colluder.verification_plane().covers_up());
        assert!(matches!(
            colluder.membership_plane(StreamId::PRIMARY).policy(),
            SelectionPolicy::ColludingBias { .. }
        ));
        let unbiased = playing(baseline(0.0, true, false), FreeriderConfig::planetlab());
        assert!(matches!(
            unbiased.membership_plane(StreamId::PRIMARY).policy(),
            SelectionPolicy::Uniform
        ));

        // Each collusion flag alone makes a colluder and shapes its plane.
        let alone = [(0.0, false, true), (0.0, true, false), (0.4, false, false)];
        for (bias, cover_up, mitm) in alone {
            let adversary = playing(baseline(bias, cover_up, mitm), FreeriderConfig::planetlab());
            assert_eq!(adversary.name(), "colluder");
            let selector = adversary.membership_plane(StreamId::PRIMARY);
            let biased = matches!(selector.policy(), SelectionPolicy::ColludingBias { colluders, pm }
                if Arc::ptr_eq(colluders, &attack(&adversary).coalition) && *pm == bias);
            let uniform = matches!(selector.policy(), SelectionPolicy::Uniform);
            assert_eq!((biased, uniform), (bias > 0.0, bias == 0.0), "bias {bias}");
            let collusion = adversary.verification_plane();
            assert!(collusion.is_colluder(NodeId::new(3)));
            assert_eq!(
                (collusion.covers_up(), collusion.man_in_the_middle()),
                (cover_up, mitm)
            );
        }
    }

    #[test]
    fn on_off_freerider_alternates_windows() {
        let mut adversary = playing(
            AdversaryFamily::OnOff {
                on_periods: 2,
                off_periods: 3,
            },
            FreeriderConfig::uniform(0.3),
        );
        let on: Vec<bool> = (0..10).map(|p| adversary.is_on(p)).collect();
        assert_eq!(
            on,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
        let mut gossip = GossipNode::new(
            NodeId::new(4),
            GossipConfig::planetlab(),
            Behavior::Freerider(attack(&adversary).degree),
        );
        adversary.on_gossip_tick(StreamId::PRIMARY, 2, &mut gossip);
        assert_eq!(gossip.behavior(), &Behavior::Honest);
        adversary.on_gossip_tick(StreamId::PRIMARY, 5, &mut gossip);
        assert!(gossip.behavior().is_freerider());
    }

    #[test]
    fn selective_freerider_is_honest_per_channel() {
        let adversary = playing(
            AdversaryFamily::SelectiveFreerider { silent_mask: 0b10 },
            FreeriderConfig::planetlab(),
        );
        assert_eq!(
            adversary.dissemination_plane(StreamId::new(0)),
            Behavior::Honest
        );
        let silent = adversary.dissemination_plane(StreamId::new(1));
        assert!(silent.is_freerider());
        // Fully silent: zero effective fanout, zero serves.
        let mut rng = derive_rng(3, 0);
        assert_eq!(silent.effective_fanout(7, &mut rng), 0);
        assert_eq!(silent.effective_serve(4, &mut rng), 0);
    }

    #[test]
    fn gradient_freerider_rides_the_threshold() {
        let mut adversary = playing(
            AdversaryFamily::GradientFreerider {
                margin: 2.0,
                step: 0.25,
            },
            FreeriderConfig::uniform(0.4),
        );
        assert!(adversary.wants_score_feedback());
        assert_eq!(attack(&adversary).intensity, 1.0);
        // No score yet: nothing changes.
        assert_eq!(
            adversary.on_score_feedback(1, None, -9.75),
            FeedbackAction::None
        );
        assert_eq!(attack(&adversary).intensity, 1.0);
        // Score in the danger zone (η + margin): back off by `step`.
        adversary.on_score_feedback(2, Some(-8.5), -9.75);
        assert_eq!(attack(&adversary).intensity, 0.75);
        adversary.on_score_feedback(3, Some(-9.0), -9.75);
        assert_eq!(attack(&adversary).intensity, 0.5);
        // Comfortable again: creep back up by `step / 2`, capped at 1.
        adversary.on_score_feedback(4, Some(-1.0), -9.75);
        assert_eq!(attack(&adversary).intensity, 0.625);
        for _ in 0..10 {
            adversary.on_score_feedback(5, Some(-1.0), -9.75);
        }
        assert_eq!(attack(&adversary).intensity, 1.0);
        // Intensity clamps at 0 and the plane degrades to honest behaviour.
        for _ in 0..10 {
            adversary.on_score_feedback(6, Some(-20.0), -9.75);
        }
        assert_eq!(attack(&adversary).intensity, 0.0);
        let mut gossip = GossipNode::new(
            NodeId::new(4),
            GossipConfig::planetlab(),
            adversary.dissemination_plane(StreamId::PRIMARY),
        );
        adversary.on_gossip_tick(StreamId::PRIMARY, 7, &mut gossip);
        assert_eq!(gossip.behavior(), &Behavior::Honest);
        // Scaled deltas: at intensity 0.5, half the configured degree.
        adversary.0.as_deref_mut().expect("a freerider").intensity = 0.5;
        match adversary.dissemination_plane(StreamId::PRIMARY) {
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
        let mut adversary = playing(
            AdversaryFamily::Whitewasher {
                margin: 1.0,
                offline: SimDuration::from_secs(2),
            },
            FreeriderConfig::planetlab(),
        );
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
        let mut adversary = playing(
            AdversaryFamily::AdaptiveColluders {
                partner_bias: 0.6,
                cooldown_periods: 4,
            },
            FreeriderConfig::planetlab(),
        );
        assert!(adversary.verification_plane().covers_up());
        let mut selector = adversary.membership_plane(StreamId::PRIMARY);
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
        let mut adversary = playing(
            AdversaryFamily::BlameSpam {
                blames_per_period: 3,
                blame_value: 10.0,
            },
            FreeriderConfig::planetlab(),
        );
        let directory = Directory::new(20);
        let mut rng = derive_rng(7, 0);
        let blames = adversary.fabricate_blames(NodeId::new(5), &directory, &mut rng);
        assert_eq!(blames.len(), 3);
        assert!(blames.iter().all(|b| b.target != NodeId::new(5)));
        assert!(blames.iter().all(|b| b.value == 10.0));
    }
}
