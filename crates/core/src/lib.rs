//! The paper's contribution: **(k, ε)-obfuscation of graphs by injecting
//! uncertainty** (Boldi, Bonchi, Gionis, Tassa — PVLDB 5(11), 2012).
//!
//! Given an undirected graph `G`, a privacy level `k`, and a tolerance
//! `ε`, [`obfuscate`] publishes an uncertain graph `G̃ = (V, p)` such that
//! for at least `(1 − ε)·n` vertices the adversary posterior induced by
//! the vertex's degree has entropy at least `log₂ k` (Definition 2).
//!
//! Pipeline (paper Sections 4–5):
//!
//! 1. [`commonness`] — θ-commonness/uniqueness scores of degrees
//!    (Definition 3), driving both the exclusion set `H` and the sampling
//!    distribution `Q`.
//! 2. [`algorithm`] — Algorithm 2 (`GenerateObfuscation`): candidate-set
//!    selection, per-pair noise levels `σ(e)` (Eq. 7), truncated-normal
//!    perturbations with `q` white noise; Algorithm 1: doubling plus
//!    binary search for the minimal global `σ`.
//! 3. [`adversary`] — the matrices `X_v(ω)` and `Y_ω(v)` (Eqs. 2–3) and
//!    the entropy test that certifies (k, ε)-obfuscation (Section 4).
//! 4. [`fastpath`] — the σ-search fast path: memoized, support-truncated
//!    lazy adversary rows plus the budgeted early-exit Definition 2
//!    sweep, bit-identical to the exhaustive check but doing only the
//!    work the verdict needs. [`obfuscate_with_stats`] reports its
//!    per-candidate timings and cache hit rates.
//!
//! # Example
//!
//! ```
//! use obf_core::{obfuscate, ObfuscationParams};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let g = obf_graph::generators::barabasi_albert(300, 3, &mut rng);
//!
//! let params = ObfuscationParams::new(5, 0.05).with_seed(7);
//! let out = obfuscate(&g, &params).expect("obfuscation found");
//! assert!(out.eps_achieved <= 0.05);
//! assert_eq!(out.graph.num_vertices(), g.num_vertices());
//! ```

pub mod adversary;
pub mod algorithm;
pub mod commonness;
pub mod fastpath;

pub use adversary::{DegreeProfile, ObfuscationCheck};
pub use algorithm::{
    generate_obfuscation, obfuscate, obfuscate_with_stats, GenerateOutcome, ObfuscationError,
    ObfuscationParams, ObfuscationResult, SearchPhase, SigmaCandidateStats, SigmaSearchStats,
    TrialPhaseSecs, TrialStats,
};
pub use commonness::UniquenessScores;
pub use fastpath::{fail_budget, run_budgeted, BudgetedCheck, MemoizedAdversary};
