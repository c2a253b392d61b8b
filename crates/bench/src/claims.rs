//! The paper's claims as one checked table.
//!
//! A [`Claim`] is one number the paper states about LiFTinG that this
//! reproduction can check: where the paper states it, the paper's value, the
//! value of the paper's own analysis where it derives one (the closed forms
//! and Chebyshev bounds of Section 6 in `lifting_analysis`), the value this
//! reproduction measures, and the [`Check`] that relates them. [`table`] reads
//! every row off one run of the seven experiments it needs ([`Evidence`]);
//! `run_all_experiments` prints the rows as the markdown table of the README's
//! results section, and the bench crate's `paper_claims` test fails when a
//! row's verdict changes — when the reproduction drifts from the paper or from
//! its own analysis, or when a known deviation stops deviating.

use lifting_analysis::{max_entropy, max_undetectable_bias, FreeridingDegree, ProtocolParams};
use serde::Serialize;

use crate::experiments::{
    family_sweep, fig10_wrongful_blames, fig11_score_distributions, fig12_detection_vs_delta,
    fig13_history_entropy, fig14_planetlab_scores, DetectionSweep, EntropyResult, FamilyRow,
    PlanetlabScoresResult, Scale, ScoreDistributionResult, WrongfulBlameResult, FIG11_DELTA,
    HISTORY_ENTRIES, PAPER_ETA, SCORE_PERIODS,
};

/// How a claim's values must relate for it to hold. The reference is the
/// paper's value, else the analytic one.
#[derive(Debug, Clone, Copy, Serialize)]
pub enum Check {
    /// The analytic and the measured value each lie within this distance of
    /// the reference.
    Within(f64),
    /// The measured value does not exceed the reference (a budget or an
    /// upper bound).
    AtMost,
    /// The measured value reaches the reference (a floor or a lower bound).
    AtLeast,
}

/// One row of the table.
#[derive(Debug, Serialize)]
pub struct Claim {
    /// Stable identifier, `<figure or section>.<quantity>`.
    pub id: String,
    /// Where the paper makes the claim.
    pub source: &'static str,
    /// What is compared.
    pub quantity: &'static str,
    /// The paper's value, where it states one.
    pub paper: Option<f64>,
    /// The value of the paper's analysis, where it derives one.
    pub analytic: Option<f64>,
    /// The value this reproduction measures.
    pub measured: Option<f64>,
    /// How the values must relate.
    pub check: Check,
    /// Why this reproduction is known not to reproduce the claim.
    pub deviation: Option<&'static str>,
    /// Whether the values relate as `check` demands.
    pub holds: bool,
}

impl Claim {
    fn new(
        id: impl Into<String>,
        source: &'static str,
        quantity: &'static str,
        check: Check,
    ) -> Claim {
        Claim {
            id: id.into(),
            source,
            quantity,
            paper: None,
            analytic: None,
            measured: None,
            check,
            deviation: None,
            holds: false,
        }
    }

    /// Settles `holds` from the values.
    fn judged(mut self) -> Claim {
        let reference = self
            .paper
            .or(self.analytic)
            .unwrap_or_else(|| panic!("claim {} has no paper or analytic value", self.id));
        self.holds = match self.check {
            Check::Within(tolerance) => {
                let mut values = [self.analytic, self.measured]
                    .into_iter()
                    .flatten()
                    .peekable();
                // A row with nothing to compare checks nothing: it does not hold.
                values.peek().is_some()
                    && values.all(|value| (value - reference).abs() <= tolerance)
            }
            Check::AtMost => self.measured.is_some_and(|m| m <= reference),
            Check::AtLeast => self.measured.is_some_and(|m| m >= reference),
        };
        self
    }

    /// The row as a markdown table line: id, source, quantity, paper, check,
    /// analysis, measured, verdict.
    pub fn markdown_row(&self) -> String {
        let check = match self.check {
            Check::Within(tolerance) => format!("± {tolerance}"),
            Check::AtMost => "measured ≤".to_string(),
            Check::AtLeast => "measured ≥".to_string(),
        };
        let cells = [
            format!("`{}`", self.id),
            self.source.to_string(),
            self.quantity.to_string(),
            self.paper.map_or("—".to_string(), |v| v.to_string()),
            check,
            number(self.analytic),
            number(self.measured),
            (if self.holds { "holds" } else { "deviates" }).to_string(),
        ];
        format!("| {} |", cells.join(" | "))
    }
}

/// Four significant digits, `—` for a missing value.
fn number(value: Option<f64>) -> String {
    match value {
        None => "—".to_string(),
        Some(0.0) => "0".to_string(),
        Some(v) => {
            let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 4) as usize;
            format!("{v:.decimals$}")
        }
    }
}

/// The table in markdown: a header, one line per claim, then the reason of
/// every known deviation.
pub fn markdown(claims: &[Claim]) -> String {
    let mut out = String::from(
        "| claim | source | quantity | paper | check | analysis | measured | verdict |\n\
         | --- | --- | --- | --- | --- | --- | --- | --- |\n",
    );
    for claim in claims {
        out.push_str(&claim.markdown_row());
        out.push('\n');
    }
    for claim in claims {
        if let Some(why) = claim.deviation {
            out.push_str(&format!("\n- `{}` deviates: {why}", claim.id));
        }
    }
    out.push('\n');
    out
}

/// The experiment results the claims are read from.
#[derive(Debug)]
pub struct Evidence {
    /// Figure 10: compensated honest scores after one period.
    pub fig10: WrongfulBlameResult,
    /// Figure 11: honest and freerider score populations.
    pub fig11: ScoreDistributionResult,
    /// Figure 12: detection against the degree of freeriding.
    pub fig12: DetectionSweep,
    /// Figure 13: history entropies and the calibrated γ.
    pub fig13: EntropyResult,
    /// Figure 14 at `pdcc = 1`: the PlanetLab deployment's snapshots.
    pub fig14: PlanetlabScoresResult,
    /// The `table03` family: LiFTinG messages per node and period, per pdcc.
    pub table03: Vec<FamilyRow>,
    /// The `table05` family: practical overhead per stream rate and pdcc.
    pub table05: Vec<FamilyRow>,
}

impl Evidence {
    /// Runs the seven experiments, each seeded with its figure or table
    /// number like `run_all_experiments` seeds them.
    pub fn run(scale: Scale) -> Evidence {
        Evidence {
            fig10: fig10_wrongful_blames(scale, 10),
            fig11: fig11_score_distributions(scale, 11),
            fig12: fig12_detection_vs_delta(scale, 12),
            fig13: fig13_history_entropy(scale, 13),
            fig14: fig14_planetlab_scores(scale, 1.0, 14),
            table03: family_sweep("table03", scale, 3),
            table05: family_sweep("table05", scale, 5),
        }
    }

    /// The `table03` or `table05` row of the registered scenario `name`.
    fn row(&self, name: &str) -> &FamilyRow {
        let mut rows = self.table03.iter().chain(&self.table05);
        rows.find(|r| r.scenario == name)
            .unwrap_or_else(|| panic!("no row {name}"))
    }

    /// Figure 12's detection at `delta`, linearly interpolated between the
    /// sweep's two neighbouring points.
    fn detection_at(&self, delta: f64) -> f64 {
        let points = &self.fig12.points;
        let above = points
            .iter()
            .position(|p| p.delta >= delta)
            .expect("delta within the sweep");
        if above == 0 {
            return points[0].detection;
        }
        let (a, b) = (&points[above - 1], &points[above]);
        a.detection + (b.detection - a.detection) * (delta - a.delta) / (b.delta - a.delta)
    }
}

/// Every claim, judged against `evidence`.
pub fn table(evidence: &Evidence) -> Vec<Claim> {
    let e = evidence;
    let params = ProtocolParams::simulation_defaults();
    let paper_gamma = 8.95;
    let at_30s = e
        .fig14
        .snapshots
        .iter()
        .find(|s| s.at_secs == 30.0)
        .expect("a 30 s snapshot");
    // σ(b') of one period, from the spread of the freeriders' scores averaged
    // over r periods.
    let sigma_freerider = e.fig11.freeriders.std_dev * (SCORE_PERIODS as f64).sqrt();
    let fig14_deviation = "the simulated deployment's scores stay above zero, freeriders \
         below honest nodes but far above η = −9.75, so the paper's threshold flags no one";

    let mut rows = vec![
        Claim {
            paper: Some(72.95),
            analytic: Some(params.expected_wrongful_blame()),
            ..Claim::new(
                "eq5.wrongful_blame",
                "Eq. 5",
                "expected wrongful blame per period (f = 12, 4 requested chunks, 7 % loss)",
                Check::Within(0.05),
            )
        },
        Claim {
            paper: Some(0.0),
            measured: Some(e.fig10.mean_score),
            ..Claim::new(
                "fig10.mean_score",
                "Fig. 10",
                "mean honest score after one compensated period",
                Check::Within(1.5),
            )
        },
        Claim {
            paper: Some(25.6),
            measured: Some(e.fig10.std_dev),
            ..Claim::new(
                "fig10.sigma",
                "Fig. 10",
                "σ of the honest scores after one compensated period",
                Check::Within(1.0),
            )
        },
        Claim {
            paper: Some(0.01),
            measured: Some(e.fig11.false_positives),
            ..Claim::new(
                "fig11.false_positives",
                "Fig. 11",
                "false positives β at η = −9.75 after r = 50 periods",
                Check::AtMost,
            )
        },
        Claim {
            analytic: Some(params.false_positive_bound(e.fig10.std_dev, SCORE_PERIODS, PAPER_ETA)),
            measured: Some(e.fig11.false_positives),
            ..Claim::new(
                "sec631.false_positive_bound",
                "§6.3.1",
                "β within the Chebyshev bound σ(b)² / (r·η²)",
                Check::AtMost,
            )
        },
        Claim {
            analytic: Some(params.detection_bound(
                FreeridingDegree::uniform(FIG11_DELTA),
                sigma_freerider,
                SCORE_PERIODS,
                PAPER_ETA,
            )),
            measured: Some(e.fig11.detection),
            ..Claim::new(
                "sec631.detection_bound",
                "§6.3.1",
                "detection α of δ = 0.1 freeriders at η = −9.75 above the Chebyshev bound",
                Check::AtLeast,
            )
        },
        Claim {
            paper: Some(0.10),
            analytic: Some(FreeridingDegree::uniform(0.035).gain()),
            ..Claim::new(
                "sec631.gain_delta_0.035",
                "§6.3.1",
                "bandwidth gain of a freerider with δ = 0.035",
                Check::Within(0.005),
            )
        },
        Claim {
            paper: Some(0.50),
            measured: Some(e.detection_at(0.035)),
            ..Claim::new(
                "fig12.detection_delta_0.035",
                "Fig. 12",
                "detection α at δ = 0.035 (10 % gain), η calibrated for β ≤ 1 %",
                Check::Within(0.1),
            )
        },
        Claim {
            paper: Some(0.65),
            measured: Some(e.detection_at(0.05)),
            deviation: Some(
                "the reproduction's detection curve is steeper than the paper's: it agrees \
                 at δ = 0.035 and δ = 0.10 and detects more in between",
            ),
            ..Claim::new(
                "fig12.detection_delta_0.05",
                "Fig. 12",
                "detection α at δ = 0.05, η calibrated for β ≤ 1 %",
                Check::Within(0.1),
            )
        },
        Claim {
            paper: Some(0.99),
            measured: Some(e.detection_at(0.10)),
            ..Claim::new(
                "fig12.detection_delta_0.10",
                "Fig. 12",
                "detection α at δ = 0.10, η calibrated for β ≤ 1 %",
                Check::AtLeast,
            )
        },
        Claim {
            paper: Some(9.23),
            analytic: Some(max_entropy(HISTORY_ENTRIES)),
            ..Claim::new(
                "fig13.max_entropy",
                "§5.3, Fig. 13",
                "maximum history entropy log2(nh·f), nh·f = 600",
                Check::Within(0.005),
            )
        },
        Claim {
            paper: Some(9.11),
            measured: Some(e.fig13.fanout.min),
            ..Claim::new(
                "fig13.fanout_entropy_min",
                "Fig. 13",
                "lowest honest fanout-history entropy",
                Check::Within(0.05),
            )
        },
        Claim {
            paper: Some(9.21),
            measured: Some(e.fig13.fanout.max),
            ..Claim::new(
                "fig13.fanout_entropy_max",
                "Fig. 13",
                "highest honest fanout-history entropy",
                Check::Within(0.05),
            )
        },
        Claim {
            paper: Some(8.98),
            measured: Some(e.fig13.fanin.min),
            ..Claim::new(
                "fig13.fanin_entropy_min",
                "Fig. 13",
                "lowest honest fanin-history entropy",
                Check::Within(0.05),
            )
        },
        Claim {
            paper: Some(9.34),
            measured: Some(e.fig13.fanin.max),
            ..Claim::new(
                "fig13.fanin_entropy_max",
                "Fig. 13",
                "highest honest fanin-history entropy",
                Check::Within(0.05),
            )
        },
        Claim {
            paper: Some(paper_gamma),
            measured: Some(e.fig13.calibrated_gamma),
            ..Claim::new(
                "sec632.gamma",
                "§6.3.2",
                "entropy threshold γ, placed just below the honest minimum",
                Check::Within(0.07),
            )
        },
        Claim {
            paper: Some(0.21),
            analytic: max_undetectable_bias(paper_gamma, 25, HISTORY_ENTRIES),
            ..Claim::new(
                "eq7.max_bias",
                "Eq. 7",
                "largest undetectable collusion bias p*m (γ = 8.95, 25 colluders, nh·f = 600)",
                Check::Within(0.01),
            )
        },
        Claim {
            paper: Some(0.30),
            analytic: Some(FreeridingDegree::planetlab().gain()),
            ..Claim::new(
                "sec71.planetlab_gain",
                "§7.1",
                "bandwidth gain of the PlanetLab freeriders, Δ = (1/7, 0.1, 0.1)",
                Check::Within(0.01),
            )
        },
        Claim {
            paper: Some(0.86),
            measured: Some(at_30s.detection),
            deviation: Some(fig14_deviation),
            ..Claim::new(
                "fig14.detection_30s",
                "Fig. 14",
                "detection α at 30 s, pdcc = 1, η = −9.75",
                Check::Within(0.1),
            )
        },
        Claim {
            paper: Some(0.12),
            measured: Some(at_30s.false_positives),
            deviation: Some(fig14_deviation),
            ..Claim::new(
                "fig14.false_positives_30s",
                "Fig. 14",
                "false positives β at 30 s, pdcc = 1, η = −9.75",
                Check::Within(0.05),
            )
        },
    ];
    // Table 3's pdcc columns; the bound is for the PlanetLab fanout and M = 25.
    let planetlab = ProtocolParams::planetlab_defaults();
    rows.extend([0.0, 1.0 / 7.0, 0.5, 1.0].map(|pdcc| {
        Claim {
            analytic: Some(planetlab.verification_message_bound(pdcc, 25)),
            measured: Some(
                e.row(&format!("table03/pdcc-{pdcc:.3}"))
                    .overhead_messages_per_node_period,
            ),
            ..Claim::new(
                format!("table3.pdcc_{pdcc:.3}"),
                "Table 3, §6.1",
                "verification messages per node and period within the analytical bound",
                Check::AtMost,
            )
        }
    }));
    rows.extend(
        [(0.0, 0.0107), (0.5, 0.0453), (1.0, 0.0801)].map(|(pdcc, paper)| Claim {
            paper: Some(paper),
            measured: Some(
                e.row(&format!("table05/674kbps-pdcc-{pdcc}"))
                    .overhead_ratio,
            ),
            ..Claim::new(
                format!("table5.674kbps_pdcc_{pdcc}"),
                "Table 5",
                "LiFTinG bandwidth overhead at 674 kbps",
                Check::Within(0.015),
            )
        }),
    );
    rows.into_iter().map(Claim::judged).collect()
}
