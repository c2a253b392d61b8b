//! Analytical companion of the LiFTinG reproduction.
//!
//! This crate contains the mathematics of Section 6 of the paper — nothing in
//! here touches the simulator. It provides:
//!
//! * the closed-form expectations of wrongful blames caused by message losses
//!   (Equations 2, 3 and 5) and of the blames applied to freeriders as a
//!   function of their degree of freeriding `Δ = (δ1, δ2, δ3)` ([`formulas`]),
//! * the Bienaymé–Tchebychev bounds on the probability of detection `α` and of
//!   false positives `β` (Section 6.3.1),
//! * Shannon entropy, the collusion-bias entropy of Equation 7 and its
//!   numerical inversion giving the maximal undetectable bias `p*m`
//!   (Section 6.3.2) ([`entropy`]),
//! * an analysis-level Monte-Carlo model of the per-period blames, used to
//!   regenerate Figures 10–12 exactly the way the paper's own simulations do
//!   ([`montecarlo`]),
//! * plain statistics utilities (histograms, CDFs, summaries) and a small
//!   two-component Gaussian mixture fitter used as an ablation of the paper's
//!   fixed-threshold detector ([`stats`], [`mixture`], [`detection`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detection;
pub mod entropy;
pub mod formulas;
pub mod mixture;
pub mod montecarlo;
pub mod stats;

pub use detection::{
    calibrate_threshold, detection_rate, false_positive_rate, robust_outlier_threshold,
};
pub use entropy::{
    calibrate_gamma, max_entropy, max_undetectable_bias, shannon_entropy,
    shannon_entropy_of_counts, uniform_selection_entropy,
};
pub use formulas::{FreeridingDegree, ProtocolParams};
pub use mixture::GaussianMixture;
pub use montecarlo::{BlameModel, ScoreSamples};
pub use stats::{ecdf, Histogram, Summary};
