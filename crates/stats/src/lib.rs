//! Numeric substrate for `obfugraph`.
//!
//! This crate implements, from scratch, the numerical machinery the paper
//! relies on:
//!
//! * [`normal`] — the Gaussian density `Φ_{μ,σ}` of the paper's Eq. (5),
//!   its CDF (via an `erf` rational approximation) and inverse CDF
//!   (Acklam's algorithm).
//! * [`truncated`] — the `[0,1]`-truncated normal distribution `R_σ` of
//!   Eq. (6), used to draw the per-pair perturbations `r_e`; its `|Z|`
//!   comes from a 256-layer ziggurat (`ziggurat`, private).
//! * [`hoeffding`] — the sampling error bounds of Lemma 2 / Corollary 1.
//! * [`describe`] — descriptive statistics (mean, variance, SEM, quantiles,
//!   boxplot five-number summaries) used throughout the experimental
//!   assessment (Tables 4–6, Figures 2–3).
//! * [`jackknife`] — leave-one-out standard errors, used by the paper to
//!   quantify the drift of HyperANF estimates (Section 6.3).
//! * [`regression`] — least-squares line fitting, used for the power-law
//!   exponent statistic `S_PL` (Section 6.2).
//! * [`histogram`] — integer-valued histograms and distribution utilities.
//! * [`entropy`] — Shannon entropy in bits, the measure behind
//!   (k, ε)-obfuscation (Definition 2).
//!
//! # Example
//!
//! ```
//! use obf_stats::{entropy_bits, hoeffding_bound, TruncatedNormal};
//!
//! // A fair coin carries exactly one bit of entropy.
//! assert!((entropy_bits(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
//!
//! // Lemma 2: error probability of a 100-sample mean of [0, 1] values.
//! assert!(hoeffding_bound(0.0, 1.0, 100, 0.2) < 0.1);
//!
//! // The paper's R_sigma noise distribution has support [0, 1].
//! let r = TruncatedNormal::new(0.1);
//! assert!((0.0..=1.0).contains(&r.inv_cdf(0.99)));
//! ```

pub mod describe;
pub mod entropy;
pub mod histogram;
pub mod hoeffding;
pub mod jackknife;
pub mod normal;
pub mod regression;
pub mod truncated;
mod ziggurat;

pub use describe::{mean, quantile, sample_std, sample_var, BoxplotSummary};
pub use entropy::{entropy_bits, entropy_bits_normalized, entropy_from_partials};
pub use histogram::IntHistogram;
pub use hoeffding::{hoeffding_bound, hoeffding_sample_size};
pub use normal::{norm_cdf, norm_inv_cdf, norm_pdf, phi};
pub use regression::LinearFit;
pub use truncated::TruncatedNormal;
