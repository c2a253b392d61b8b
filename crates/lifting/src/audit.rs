//! A-posteriori auditing: local history audit, a-posteriori cross-checking and
//! entropy checks (Sections 5.3 and 6.3.2).
//!
//! An audit pulls the suspected node's bounded history over TCP and then:
//!
//! 1. checks the Shannon entropy of the fanout multiset `Fh` (the partners of
//!    every logged proposal) against the threshold `γ`;
//! 2. builds the fanin multiset `F'h` by polling the nodes named in `Fh` for
//!    the identities of the verifiers that asked them to confirm the audited
//!    node's proposals, and checks its entropy against `γ` as well — this is
//!    what defeats the man-in-the-middle cover-up of Figure 8b;
//! 3. cross-checks every logged proposal with its alleged receivers, blaming 1
//!    per unconfirmed push;
//! 4. counts the logged propose phases to catch gossip-period stretching.
//!
//! Failing either entropy check means expulsion; the other findings translate
//! into blames. The thresholds are scaled to the amount of history actually
//! available so that freshly joined nodes are not wrongfully expelled.

use lifting_analysis::shannon_entropy_of_counts;
use lifting_gossip::ChunkId;
use lifting_sim::NodeId;

use crate::blame::schedule;
use crate::config::LiftingConfig;
use crate::history::NodeHistory;

/// Oracle used by the auditor to poll third parties.
///
/// In the deployed system these polls are TCP exchanges with the nodes named
/// in the audited history; `lifting-runtime` implements the trait over the
/// simulated network (accounting the traffic as audit overhead), and tests
/// implement it over in-memory tables.
pub trait AuditOracle {
    /// Asks `witness` whether it received a proposal from `subject` containing
    /// `chunks`.
    fn confirm_proposal(&mut self, witness: NodeId, subject: NodeId, chunks: &[ChunkId]) -> bool;

    /// Asks `witness` which nodes requested confirmations about `subject`
    /// (used to build the fanin multiset `F'h`).
    fn confirm_askers(&mut self, witness: NodeId, subject: NodeId) -> Vec<NodeId>;
}

/// Outcome category of an audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditVerdict {
    /// Nothing suspicious.
    Pass,
    /// The history cross-check produced blames but no expulsion.
    Blamed,
    /// An entropy check failed: the node is expelled outright.
    Expel,
}

/// Detailed result of one audit.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// The audited node.
    pub subject: NodeId,
    /// Entropy of the fanout multiset `Fh`.
    pub fanout_entropy: f64,
    /// Entropy of the fanin multiset `F'h` (confirm askers reported by the
    /// witnesses), if any was observed.
    pub fanin_entropy: Option<f64>,
    /// Thresholds actually applied (scaled for the available history size).
    pub applied_fanout_threshold: f64,
    /// Threshold applied to the fanin entropy, if the check ran.
    pub applied_fanin_threshold: Option<f64>,
    /// Number of `(proposal, receiver)` pushes not confirmed by the receiver.
    pub unconfirmed_pushes: usize,
    /// Number of propose phases found in the history.
    pub observed_propose_phases: usize,
    /// Number of propose phases the protocol mandates over the same span.
    pub expected_propose_phases: usize,
    /// Total blame produced by the audit (cross-check + period check).
    pub blame: f64,
    /// The verdict.
    pub verdict: AuditVerdict,
}

/// The a-posteriori auditor.
#[derive(Debug, Clone)]
pub struct Auditor {
    config: LiftingConfig,
    fanout: usize,
    gamma: f64,
}

impl Auditor {
    /// Creates an auditor for a system with protocol fanout `fanout`, using
    /// the threshold `γ` from the configuration.
    ///
    /// The configured `γ` must be calibrated for the deployment's history size
    /// `nh·f` and population `n` (the paper's 8.95 corresponds to 600 entries
    /// in a 10,000-node system); use
    /// [`lifting_analysis::calibrate_gamma`](lifting_analysis::entropy::calibrate_gamma)
    /// and [`with_threshold`](Auditor::with_threshold) for other deployments.
    pub fn new(config: LiftingConfig, fanout: usize) -> Self {
        let gamma = config.gamma;
        Auditor::with_threshold(config, fanout, gamma)
    }

    /// Creates an auditor with an explicitly calibrated entropy threshold.
    pub fn with_threshold(config: LiftingConfig, fanout: usize, gamma: f64) -> Self {
        config.validate().expect("invalid LiFTinG configuration");
        assert!(fanout > 0, "fanout must be positive");
        assert!(gamma > 0.0, "entropy threshold must be positive");
        Auditor {
            config,
            fanout,
            gamma,
        }
    }

    /// The entropy threshold this auditor applies to full-size histories.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The nominal history size `nh·f` the thresholds were calibrated for.
    fn nominal_entries(&self) -> f64 {
        (self.config.history_periods * self.fanout) as f64
    }

    /// Scales the configured threshold `γ` to a history of `entries` entries:
    /// the maximum achievable entropy is `log2(entries)` instead of
    /// `log2(nh·f)`, so the threshold shrinks proportionally. Returns `None`
    /// if there is too little history for the check to be meaningful (fewer
    /// than two entries or less than a quarter of a full history).
    fn scaled_threshold(&self, entries: usize) -> Option<f64> {
        if entries < 2 || (entries as f64) < 0.25 * self.nominal_entries() {
            return None;
        }
        let scale = (entries as f64).log2() / self.nominal_entries().log2();
        Some(self.gamma * scale.min(1.0))
    }

    /// Audits `history` using `oracle` for the third-party polls.
    pub fn audit(&self, history: &NodeHistory, oracle: &mut dyn AuditOracle) -> AuditReport {
        let subject = history.owner();

        // 1. Entropy of the fanout multiset Fh. Sorted once: the runs give
        // the entropy, and deduplicated it is the witness list of step 2.
        let mut witnesses = history.fanout_multiset();
        witnesses.sort_unstable();
        let fanout_entries = witnesses.len();
        let fanout_entropy = entropy_of_sorted(&witnesses);
        let fanout_threshold = self.scaled_threshold(fanout_entries);
        let fanout_fails = fanout_threshold
            .map(|thr| fanout_entropy < thr)
            .unwrap_or(false);

        // 2. Entropy of the fanin multiset F'h, gathered from the witnesses.
        witnesses.dedup();
        let mut fanin: Vec<NodeId> = Vec::new();
        for w in &witnesses {
            fanin.extend(oracle.confirm_askers(*w, subject));
        }
        fanin.sort_unstable();
        // The fanin multiset is intrinsically noisier than the fanout one: its
        // size fluctuates, each serve contributes several identical asker
        // entries, and in small systems the dissemination tree concentrates a
        // node's servers on a few upstream peers — the paper's Figure 13b
        // already shows the fanin entropy spreading wider than the fanout one.
        // The check therefore (i) waits for at least half a nominal history
        // and (ii) only expels when the entropy falls below half the threshold
        // (coalition-level concentration), which keeps honest nodes safe while
        // still catching the man-in-the-middle cover-up.
        const FANIN_THRESHOLD_FRACTION: f64 = 0.5;
        let fanin_applicable =
            (fanin.len() as f64) >= 0.5 * self.nominal_entries() && fanin.len() >= 2;
        let (fanin_entropy, fanin_threshold, fanin_fails) = if fanin.is_empty() {
            (None, None, false)
        } else {
            let h = entropy_of_sorted(&fanin);
            let thr = if fanin_applicable {
                self.scaled_threshold(fanin.len())
                    .map(|t| t * FANIN_THRESHOLD_FRACTION)
            } else {
                None
            };
            let fails = thr.map(|t| h < t).unwrap_or(false);
            (Some(h), thr, fails)
        };

        // 3. A-posteriori cross-check of every logged push.
        let mut unconfirmed = 0usize;
        for (partners, chunks) in history.proposals_sent() {
            for partner in partners {
                if !oracle.confirm_proposal(*partner, subject, chunks) {
                    unconfirmed += 1;
                }
            }
        }

        // 4. Gossip-period check: every recorded period should contain a
        // propose phase (the analysis assumes a node always has something to
        // forward).
        let expected = history.len();
        let observed = history.propose_phase_count();

        let blame = schedule::unconfirmed_history_entries(unconfirmed)
            + schedule::missing_propose_phases(self.fanout, expected, observed);

        let verdict = if fanout_fails || fanin_fails {
            AuditVerdict::Expel
        } else if blame > 0.0 {
            AuditVerdict::Blamed
        } else {
            AuditVerdict::Pass
        };

        AuditReport {
            subject,
            fanout_entropy,
            fanin_entropy,
            applied_fanout_threshold: fanout_threshold.unwrap_or(0.0),
            applied_fanin_threshold: fanin_threshold,
            unconfirmed_pushes: unconfirmed,
            observed_propose_phases: observed,
            expected_propose_phases: expected,
            blame,
            verdict,
        }
    }
}

/// Shannon entropy of a sorted multiset, from the lengths of its runs of
/// equal items. Bit-identical to [`lifting_analysis::shannon_entropy`] on the
/// same multiset: both hand the occurrence counts to
/// [`shannon_entropy_of_counts`], which fixes the summation order itself.
fn entropy_of_sorted(sorted: &[NodeId]) -> f64 {
    shannon_entropy_of_counts(sorted.chunk_by(|a, b| a == b).map(|run| run.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::collections::DetHashMap;
    use lifting_sim::derive_rng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// Oracle backed by in-memory tables. Deterministic maps, like every
    /// other map in the workspace: `values_mut` walks below must visit
    /// entries in a reproducible order for the test runs to be repeatable.
    #[derive(Default)]
    struct TableOracle {
        /// (witness, subject) → askers reported.
        askers: DetHashMap<(NodeId, NodeId), Vec<NodeId>>,
        /// (witness, subject) → whether proposals are confirmed.
        confirms: DetHashMap<(NodeId, NodeId), bool>,
        default_confirm: bool,
    }

    impl AuditOracle for TableOracle {
        fn confirm_proposal(
            &mut self,
            witness: NodeId,
            subject: NodeId,
            _chunks: &[ChunkId],
        ) -> bool {
            *self
                .confirms
                .get(&(witness, subject))
                .unwrap_or(&self.default_confirm)
        }

        fn confirm_askers(&mut self, witness: NodeId, subject: NodeId) -> Vec<NodeId> {
            self.askers
                .get(&(witness, subject))
                .cloned()
                .unwrap_or_default()
        }
    }

    fn config() -> LiftingConfig {
        LiftingConfig::planetlab() // nh = 50, f = 7 ⇒ 350 nominal entries
    }

    /// An auditor whose entropy threshold is calibrated for the test systems
    /// below: 350-entry histories drawn from a 1,000-node population.
    fn auditor() -> Auditor {
        let gamma = lifting_analysis::entropy::calibrate_gamma(350, 1_000, 100, 0.15, 99);
        Auditor::with_threshold(config(), 7, gamma)
    }

    /// Builds a history of `periods` propose phases with uniformly random
    /// partners over a population of `n` nodes, and fills the oracle so that
    /// (a) every push is confirmed and (b) each witness reports uniformly
    /// random askers (an honest fanin).
    fn honest_history(
        subject: u32,
        n: u32,
        periods: u64,
        fanout: usize,
        oracle: &mut TableOracle,
        seed: u64,
    ) -> NodeHistory {
        let mut rng = derive_rng(seed, 0);
        let mut h = NodeHistory::new(NodeId::new(subject), 50);
        let population: Vec<NodeId> = (0..n).filter(|i| *i != subject).map(NodeId::new).collect();
        for p in 0..periods {
            let mut partners = population.clone();
            partners.shuffle(&mut rng);
            partners.truncate(fanout);
            h.record_proposal_sent(p, &partners, &[ChunkId::primary(p)]);
            for w in partners {
                // The witness reports a uniformly random asker per confirm.
                let asker = population[rng.gen_range(0..population.len())];
                oracle
                    .askers
                    .entry((w, NodeId::new(subject)))
                    .or_default()
                    .push(asker);
            }
        }
        oracle.default_confirm = true;
        h
    }

    #[test]
    fn honest_history_passes_the_audit() {
        let mut oracle = TableOracle::default();
        let history = honest_history(0, 1_000, 50, 7, &mut oracle, 1);
        let auditor = auditor();
        let report = auditor.audit(&history, &mut oracle);
        assert_eq!(report.verdict, AuditVerdict::Pass);
        assert_eq!(report.blame, 0.0);
        assert!(report.fanout_entropy > report.applied_fanout_threshold);
        assert!(report.fanin_entropy.unwrap() > report.applied_fanin_threshold.unwrap());
        assert_eq!(report.unconfirmed_pushes, 0);
    }

    #[test]
    fn biased_partner_selection_is_expelled() {
        // The freerider proposes only to its 10-node coalition, over and over.
        let mut oracle = TableOracle {
            default_confirm: true,
            ..Default::default()
        };
        let coalition: Vec<NodeId> = (1..=10).map(NodeId::new).collect();
        let mut h = NodeHistory::new(NodeId::new(0), 50);
        let mut rng = derive_rng(2, 0);
        for p in 0..50u64 {
            let mut partners = coalition.clone();
            partners.shuffle(&mut rng);
            partners.truncate(7);
            // Witnesses (colluders) dutifully report honest-looking askers so
            // only the fanout entropy can catch the bias.
            for w in &partners {
                oracle
                    .askers
                    .entry((*w, NodeId::new(0)))
                    .or_default()
                    .push(NodeId::new(rng.gen_range(100..1000)));
            }
            h.record_proposal_sent(p, &partners, &[ChunkId::primary(p)]);
        }
        let auditor = auditor();
        let report = auditor.audit(&h, &mut oracle);
        assert_eq!(report.verdict, AuditVerdict::Expel);
        assert!(report.fanout_entropy < report.applied_fanout_threshold);
    }

    #[test]
    fn man_in_the_middle_is_caught_by_the_fanin_check() {
        // The freerider's own fanout looks uniform, but the witnesses report
        // that only the two accomplices ever asked for confirmations.
        let mut oracle = TableOracle::default();
        let history = honest_history(0, 1_000, 50, 7, &mut oracle, 3);
        // Overwrite the asker tables: every witness only ever saw colluders.
        for askers in oracle.askers.values_mut() {
            let k = askers.len();
            *askers = (0..k)
                .map(|i| NodeId::new(2_000 + (i % 2) as u32))
                .collect();
        }
        let auditor = auditor();
        let report = auditor.audit(&history, &mut oracle);
        assert_eq!(report.verdict, AuditVerdict::Expel);
        assert!(report.fanin_entropy.unwrap() < report.applied_fanin_threshold.unwrap());
        // Sanity: the fanout side alone would have passed.
        assert!(report.fanout_entropy >= report.applied_fanout_threshold);
    }

    #[test]
    fn unconfirmed_pushes_are_blamed_one_each() {
        let mut oracle = TableOracle::default();
        let history = honest_history(0, 1_000, 50, 7, &mut oracle, 4);
        // Two witnesses deny ever having received proposals from the subject.
        let denied: Vec<NodeId> = history.fanout_multiset().into_iter().take(2).collect();
        for w in &denied {
            oracle.confirms.insert((*w, NodeId::new(0)), false);
        }
        let auditor = auditor();
        let report = auditor.audit(&history, &mut oracle);
        assert_eq!(report.verdict, AuditVerdict::Blamed);
        assert!(report.unconfirmed_pushes >= 2);
        assert!(report.blame >= 2.0);
    }

    #[test]
    fn period_stretching_is_blamed() {
        let mut oracle = TableOracle {
            default_confirm: true,
            ..Default::default()
        };
        let mut h = NodeHistory::new(NodeId::new(0), 50);
        let mut rng = derive_rng(5, 0);
        // 50 periods of activity but proposals in only 25 of them.
        for p in 0..50u64 {
            h.record_serve_received(p);
            if p % 2 == 0 {
                let partners: Vec<NodeId> = (0..7)
                    .map(|_| NodeId::new(rng.gen_range(1..1000)))
                    .collect();
                for w in &partners {
                    oracle
                        .askers
                        .entry((*w, NodeId::new(0)))
                        .or_default()
                        .push(NodeId::new(rng.gen_range(1..1000)));
                }
                h.record_proposal_sent(p, &partners, &[ChunkId::primary(p)]);
            }
        }
        let auditor = auditor();
        let report = auditor.audit(&h, &mut oracle);
        assert_eq!(report.observed_propose_phases, 25);
        assert_eq!(report.expected_propose_phases, 50);
        assert!(report.blame >= 7.0 * 25.0);
        assert_ne!(report.verdict, AuditVerdict::Pass);
    }

    #[test]
    fn short_histories_are_not_expelled() {
        // A node that just joined has only a few entries: the entropy check
        // must not fire.
        let mut oracle = TableOracle {
            default_confirm: true,
            ..Default::default()
        };
        let mut h = NodeHistory::new(NodeId::new(0), 50);
        h.record_proposal_sent(0, &[NodeId::new(1), NodeId::new(2)], &[ChunkId::primary(1)]);
        let auditor = auditor();
        let report = auditor.audit(&h, &mut oracle);
        assert_eq!(report.verdict, AuditVerdict::Pass);
        assert_eq!(report.applied_fanout_threshold, 0.0);
    }

    #[test]
    fn sorted_run_entropy_is_bit_identical_to_the_hashed_one() {
        let mut rng = derive_rng(6, 0);
        for (entries, population) in [(0, 1), (1, 1), (350, 300), (350, 10_000), (2_000, 40)] {
            let mut multiset: Vec<NodeId> = (0..entries)
                .map(|_| NodeId::new(rng.gen_range(0..population)))
                .collect();
            let hashed = lifting_analysis::shannon_entropy(multiset.iter().copied());
            multiset.sort_unstable();
            assert_eq!(
                entropy_of_sorted(&multiset).to_bits(),
                hashed.to_bits(),
                "{entries} entries over {population} nodes"
            );
        }
    }
}
