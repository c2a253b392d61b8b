//! Where a gossip period ends (Section 6.2): managers age their books with
//! the Equation 5 credit, the online defence may recalibrate η, managers vote
//! against every node scoring below it (Equation 6), and a quorum of distinct
//! voters expels. With the resilience plane on, each period also leaves a row
//! of the recovery trace. The plane sees no world, only the managers' books,
//! the directory, the expelled flags and a [`ScoreSnapshot`];
//! [`crate::SystemWorld`] runs its steps in order and applies the effects.

use lifting_analysis::robust_outlier_threshold;
use lifting_core::EXPULSION_QUORUM;
use lifting_membership::Directory;
use lifting_reputation::ManagerState;
use lifting_sim::{NodeId, StreamId};

use crate::metrics::{RecoveryReport, ScoreSnapshot, WaveKind, WaveRecovery};
use crate::scenario::ScenarioConfig;

// The online recalibration of η (`ScenarioConfig::online_recalibration`),
// the closed-loop defence. The paper calibrates η = −9.75 offline against a
// known honest score distribution; a closed-loop adversary parks its score
// just above it. No ground truth splits honest from freerider scores, so the
// rule must be robust to contamination: drop the worst `RECAL_TRIM` of the
// live scores (where adversaries congregate), estimate the honest bulk's
// location and spread by the median and MAD of the rest, and place the
// threshold `RECAL_NMADS` (normal-consistent) MADs below that median. An EWMA
// smooths period-to-period jitter, and the applied threshold is
// `max(η, η_online)`: the defence only ever tightens the static calibration.
//
// An outlier rule, not a quantile: a quantile of the kept sample sits at the
// trim boundary by construction and expels a fixed fraction of the
// population every period regardless of how the scores actually cluster.

/// Fraction of the worst live scores trimmed before estimating the bulk
/// (covers the paper's ≤ 25 % adversary fractions).
const RECAL_TRIM: f64 = 0.3;
/// MADs below the bulk median the recalibrated threshold sits: an honest
/// score needs a large excursion below the bulk to be flagged.
const RECAL_NMADS: f64 = 4.0;
/// EWMA weight of each period's raw threshold (1 = no smoothing).
const RECAL_SMOOTHING: f64 = 0.3;

/// The period-end state of a run.
pub(crate) struct PeriodPlane {
    /// Gossip periods completed so far.
    completed: u64,
    /// The static η, the floor of the applied threshold.
    eta_static: f64,
    /// EWMA state of the online recalibration; η until it first moves.
    eta_smoothed: f64,
    /// Whether the online recalibration runs.
    online: bool,
    min_periods: u64,
    /// Distinct voters needed to expel: `ceil(q·M)` with `q` =
    /// [`EXPULSION_QUORUM`], at least one.
    quorum: usize,
    /// Per target: the distinct managers that voted to expel it — the one
    /// record of a vote. A set, not a counter: a manager votes at every
    /// period end its charge scores below the threshold, and a manager
    /// rebuilt after a rejoin starts from a blank book and may re-derive its
    /// vote; neither counts twice.
    voters: Vec<Vec<NodeId>>,
    /// One manager's votes (recycled: no allocation once warm).
    scratch_votes: Vec<NodeId>,
    recovery: Option<RecoveryReport>,
}

impl PeriodPlane {
    /// The plane of a run of `config`. It keeps the recovery trace when the
    /// resilience plane it exists for is active: `traced` (partition waves
    /// or a closed-loop adversary) or the online recalibration.
    pub(crate) fn new(config: &ScenarioConfig, traced: bool) -> Self {
        let (lifting, online) = (&config.lifting, config.online_recalibration);
        PeriodPlane {
            completed: 0,
            eta_static: lifting.eta,
            eta_smoothed: lifting.eta,
            online,
            min_periods: lifting.min_periods_before_expulsion,
            quorum: (EXPULSION_QUORUM * lifting.managers as f64).ceil().max(1.0) as usize,
            voters: vec![Vec::new(); config.nodes],
            scratch_votes: Vec::new(),
            recovery: (traced || online).then(RecoveryReport::default),
        }
    }

    /// Counts one more completed period (with LiFTinG on or off).
    pub(crate) fn advance(&mut self) {
        self.completed += 1;
    }

    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    /// The applied threshold: the recalibrated value, floored at the static η.
    pub(crate) fn eta(&self) -> f64 {
        self.eta_smoothed.max(self.eta_static)
    }

    /// The recovery trace; when kept, a period end reads a score snapshot.
    pub(crate) fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Ages every book by one period. A departed node is not observed, so it
    /// accrues neither periods nor credit (leaving would otherwise launder a
    /// bad score), and a departed manager's book freezes whole; expelled
    /// nodes keep aging. A node's credit sums `credit_per_stream` over the
    /// streams it subscribes to that are `on_air`; with one stream it is
    /// that stream's value for everyone.
    pub(crate) fn age<'a>(
        &self,
        books: impl IntoIterator<Item = (NodeId, &'a mut ManagerState)>,
        directory: &Directory,
        expelled: &[bool],
        credit_per_stream: &[f64],
        on_air: impl Fn(StreamId) -> bool,
    ) {
        let credit = |n: NodeId| -> Option<f64> {
            if departed(directory, expelled, n) {
                return None;
            }
            if let [one] = credit_per_stream {
                return Some(*one);
            }
            let subscribed = credit_per_stream.iter().enumerate().filter(|(s, _)| {
                let stream = StreamId::new(*s as u16);
                directory.is_subscribed(n, stream) && on_air(stream)
            });
            Some(subscribed.map(|(_, c)| *c).sum())
        };
        for (manager, book) in books {
            if !departed(directory, expelled, manager) {
                book.end_period_credited(credit);
            }
        }
    }

    /// The online defence, once votes may be cast: trims the suspected
    /// freerider tail of the live scores and moves the threshold (EWMA)
    /// toward [`RECAL_NMADS`] MADs below the bulk's median. A coalition
    /// sitting just above η is trimmed and cannot drag the cut down; the
    /// bulk's own spread, not a fixed quantile, sets how far below it the cut
    /// sits.
    pub(crate) fn recalibrate(&mut self, snap: &ScoreSnapshot, directory: &Directory) {
        if !self.online || self.completed < self.min_periods {
            return;
        }
        let live: Vec<f64> = snap
            .outcomes
            .iter()
            .filter(|o| !o.expelled && directory.is_active(o.node))
            .filter_map(|o| o.score)
            .collect();
        if let Some(raw) = robust_outlier_threshold(&live, RECAL_TRIM, RECAL_NMADS) {
            self.eta_smoothed = RECAL_SMOOTHING * raw + (1.0 - RECAL_SMOOTHING) * self.eta_smoothed;
        }
    }

    /// Every manager that has not departed votes against its nodes scoring
    /// below the threshold. A vote joins its target's voter set as it is
    /// cast, unless the manager is in it already; returns the targets whose
    /// set reached the quorum, in vote order.
    pub(crate) fn vote<'a>(
        &mut self,
        books: impl IntoIterator<Item = (NodeId, &'a ManagerState)>,
        directory: &Directory,
        expelled: &[bool],
    ) -> Vec<NodeId> {
        let (eta, mut expelling) = (self.eta(), Vec::new());
        for (manager, book) in books {
            if departed(directory, expelled, manager) {
                continue;
            }
            self.scratch_votes.clear();
            book.expulsion_votes_into(eta, self.min_periods, &mut self.scratch_votes);
            for &target in &self.scratch_votes {
                let voters = &mut self.voters[target.index()];
                if !voters.contains(&manager) {
                    voters.push(manager);
                    if voters.len() == self.quorum {
                        expelling.push(target);
                    }
                }
            }
        }
        expelling
    }

    /// Records the onset of a disturbance, with the last recorded row as the
    /// baseline it must reconverge to.
    pub(crate) fn begin_wave(&mut self, kind: WaveKind) {
        if let Some(r) = &mut self.recovery {
            r.waves.push(WaveRecovery {
                kind,
                at_period: self.completed,
                baseline_precision: r.period_precision.last().copied().unwrap_or(1.0),
                baseline_recall: r.period_recall.last().copied().unwrap_or(0.0),
                reconverged_after: None,
            });
        }
    }

    /// Appends this period's row: precision and recall against ground truth
    /// at the applied threshold, and the threshold. A wave reconverges at the
    /// first later period with both back within 0.05 of its baseline.
    /// Expulsions land after the snapshot, so detection reads `expelled`.
    pub(crate) fn record(&mut self, snap: &ScoreSnapshot, expelled: &[bool]) {
        let (eta, period) = (self.eta(), self.completed);
        let Some(recovery) = &mut self.recovery else {
            return;
        };
        let (mut tp, mut fp, mut freeriders) = (0u64, 0u64, 0u64);
        for o in &snap.outcomes {
            freeriders += u64::from(o.is_freerider);
            let detected = expelled[o.node.index()] || o.score.is_some_and(|s| s < eta);
            tp += u64::from(detected && o.is_freerider);
            fp += u64::from(detected && !o.is_freerider);
        }
        let ratio = |n: u64, d: u64| if d == 0 { 1.0 } else { n as f64 / d as f64 };
        let (precision, recall) = (ratio(tp, tp + fp), ratio(tp, freeriders));
        recovery.period_precision.push(precision);
        recovery.period_recall.push(recall);
        recovery.eta_trace.push(eta);
        for wave in &mut recovery.waves {
            if wave.reconverged_after.is_none()
                && period > wave.at_period
                && precision >= wave.baseline_precision - 0.05
                && recall >= wave.baseline_recall - 0.05
            {
                wave.reconverged_after = Some(period - wave.at_period);
            }
        }
    }

    /// Heap bytes of the voter sets (part of the world's memory walk).
    pub(crate) fn voter_heap_bytes(&self) -> usize {
        let sets: usize = self.voters.iter().map(Vec::capacity).sum();
        (sets * size_of::<NodeId>()) + self.voters.capacity() * size_of::<Vec<NodeId>>()
    }
}

/// Offline due to churn: inactive in the directory but not expelled.
fn departed(directory: &Directory, expelled: &[bool], node: NodeId) -> bool {
    !directory.is_active(node) && !expelled[node.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NodeOutcome;

    const N: usize = 8;
    /// The node every test book blames.
    const T: NodeId = NodeId::new(5);

    /// `M = 4`, `q = 0.5`: two distinct voters expel.
    fn plane(min_periods: u64, online: bool) -> PeriodPlane {
        let mut config = ScenarioConfig::planetlab_baseline(1);
        (config.nodes, config.online_recalibration) = (N, online);
        config.lifting.managers = 4;
        config.lifting.min_periods_before_expulsion = min_periods;
        PeriodPlane::new(&config, false)
    }

    /// Manager `i`'s book is `books[i]`.
    fn ids(books: &mut [ManagerState]) -> impl Iterator<Item = (NodeId, &mut ManagerState)> {
        (0..).map(NodeId::new).zip(books.iter_mut())
    }

    /// The same books, read-only: what a vote polls.
    fn shared(books: &[ManagerState]) -> impl Iterator<Item = (NodeId, &ManagerState)> {
        (0..).map(NodeId::new).zip(books)
    }

    /// `N` books; manager 1 (and 2 when `two`) blames node 5 far below η.
    fn books(two: bool) -> Vec<ManagerState> {
        let mut books = vec![ManagerState::new(); N];
        books[1].apply_blame(T, 100.0);
        books[2].apply_blame(T, if two { 100.0 } else { 0.0 });
        books
    }

    /// One period end without credit or recalibration; returns the nodes
    /// that reached the quorum.
    fn end(p: &mut PeriodPlane, books: &mut [ManagerState]) -> Vec<NodeId> {
        let (dir, expelled) = (Directory::new(N), [false; N]);
        p.advance();
        p.age(ids(books), &dir, &expelled, &[0.0], |_| true);
        p.vote(shared(books), &dir, &expelled)
    }

    /// Nodes `1..`, the first `freeriders` of them freeriders.
    fn snap(scores: &[f64], freeriders: usize) -> ScoreSnapshot {
        let outcomes = scores.iter().enumerate().map(|(i, &score)| NodeOutcome {
            node: NodeId::new(i as u32 + 1),
            is_freerider: i < freeriders,
            score: Some(score),
            expelled: false,
        });
        ScoreSnapshot {
            at: lifting_sim::SimTime::ZERO,
            outcomes: outcomes.collect(),
        }
    }

    #[test]
    fn a_departed_manager_neither_ages_nor_votes_and_expelled_nodes_keep_aging() {
        let (mut dir, mut expelled, mut books) = (Directory::new(N), [false; N], books(true));
        books[1].register(NodeId::new(6));
        books[1].register(NodeId::new(7));
        let mut p = plane(1, false);
        p.age(ids(&mut books), &dir, &expelled, &[2.0], |_| true);
        for n in [2, 6, 7] {
            dir.deactivate(NodeId::new(n)); // manager 2 and node 7 depart, node 6 is expelled
        }
        expelled[6] = true;
        p.advance();
        p.age(ids(&mut books), &dir, &expelled, &[2.0], |_| true);
        let record = |m: usize, n: u32| books[m].record(NodeId::new(n)).unwrap();
        assert_eq!((record(1, 5).periods, record(1, 5).compensation), (2, 4.0));
        assert_eq!(record(1, 6).periods, 2, "an expelled node keeps aging");
        assert_eq!(record(1, 7).periods, 1, "a departed node is not observed");
        assert_eq!(record(2, 5).periods, 1, "a departed manager's book freezes");
        p.vote(shared(&books), &dir, &expelled);
        assert_eq!(p.voters[5], [NodeId::new(1)]);
        assert!(
            !p.voters[5].contains(&NodeId::new(2)),
            "no votes while offline"
        );
    }

    #[test]
    fn a_rebuilt_managers_repeated_vote_counts_once() {
        let (mut p, mut books) = (plane(1, false), books(false));
        assert!(end(&mut p, &mut books).is_empty());
        books[1] = ManagerState::new(); // a rejoin rebuilds the book blank
        books[1].apply_blame(T, 100.0);
        assert!(end(&mut p, &mut books).is_empty());
        assert_eq!(p.voters[5], [NodeId::new(1)]);
    }

    #[test]
    fn a_charge_that_stays_below_eta_is_voted_against_once() {
        let (mut p, mut books) = (plane(1, false), books(true));
        books[3].apply_blame(T, 100.0);
        let mut expelled = Vec::new();
        for _ in 0..4 {
            expelled.extend(end(&mut p, &mut books));
            assert!(books[1].normalized_score(T).unwrap() < p.eta());
        }
        assert_eq!(expelled, [T], "the quorum is reached once");
        let managers = [1, 2, 3].map(NodeId::new);
        assert_eq!(p.voters[5], managers, "each manager counted once");
    }

    #[test]
    fn two_of_four_managers_expel_and_one_does_not() {
        let (mut p, mut books) = (plane(1, false), books(false));
        assert_eq!(p.quorum, 2);
        assert!(end(&mut p, &mut books).is_empty(), "one voter");
        books[2].apply_blame(T, 100.0);
        assert_eq!(end(&mut p, &mut books), [T], "two voters");
        books[3].apply_blame(T, 100.0);
        assert!(end(&mut p, &mut books).is_empty(), "pushed once");
        assert_eq!(
            p.voters[5],
            [NodeId::new(1), NodeId::new(2), NodeId::new(3)]
        );
    }

    #[test]
    fn no_vote_before_min_periods() {
        let (mut p, mut books) = (plane(3, false), books(true));
        for _ in 0..2 {
            assert!(end(&mut p, &mut books).is_empty());
            assert!(p.voters[5].is_empty());
        }
        assert_eq!(end(&mut p, &mut books), [T]);
    }

    #[test]
    fn the_recalibrated_threshold_never_drops_below_the_static_eta() {
        let (dir, mut p) = (Directory::new(N), plane(2, true));
        let eta = p.eta_static;
        let high = snap(&[0.0, 1.0, -1.0, 2.0, -2.0], 0); // a tight bulk near 0
        p.advance();
        p.recalibrate(&high, &dir);
        assert_eq!(p.eta(), eta, "no recalibration before min periods");
        p.advance();
        p.recalibrate(&high, &dir);
        assert!(p.eta() > eta, "a tight bulk lifts the threshold");
        p.recalibrate(&snap(&[-100.0, -99.0, -101.0, -98.0], 0), &dir);
        assert!(p.eta_smoothed < eta);
        assert_eq!(p.eta(), eta, "the static η is a floor");
    }

    #[test]
    fn a_whitewash_wave_reconverges_from_the_previous_periods_row() {
        let mut p = PeriodPlane::new(&ScenarioConfig::planetlab_baseline(1), true);
        let eta = p.eta();
        let mut expelled = [false; N];
        let (caught, missed) = (snap(&[-20.0, 0.0], 1), snap(&[0.0, 0.0], 1));
        // The wave begins in period 2 before its row: its baseline is period
        // 1's row, and period 2's own row does not count. The last period's
        // freerider was expelled after the snapshot: it is still detected.
        for (period, row) in [&missed, &caught, &missed, &missed].into_iter().enumerate() {
            p.advance();
            if period == 1 {
                p.begin_wave(WaveKind::Whitewash);
            }
            expelled[1] = period == 3;
            p.record(row, &expelled);
        }
        let recovery = p.recovery().unwrap();
        assert_eq!(recovery.period_recall, [0.0, 1.0, 0.0, 1.0]);
        assert_eq!(recovery.period_precision, [1.0; 4]);
        assert_eq!(recovery.eta_trace, [eta; 4]);
        let wave = recovery.waves[0];
        assert_eq!((wave.kind, wave.at_period), (WaveKind::Whitewash, 2));
        assert_eq!((wave.baseline_precision, wave.baseline_recall), (1.0, 0.0));
        assert_eq!(wave.reconverged_after, Some(1), "the first period back");
    }
}
