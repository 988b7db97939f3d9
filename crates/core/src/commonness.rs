//! θ-commonness and θ-uniqueness of degrees (paper Definition 3).
//!
//! The commonness of a degree `ω` is the kernel-weighted count of
//! vertices whose degree is near `ω`:
//! `C_θ(ω) = Σ_{v∈V} Φ_{0,θ}(|ω − deg v|)`, with the Gaussian density
//! `Φ_{0,θ}` of Eq. 5; uniqueness is its reciprocal. Vertices with unique
//! degrees need more noise to "blend in the crowd", so these scores drive
//! the exclusion set `H`, the vertex-sampling distribution `Q`
//! (Algorithm 2, lines 2–3) and the per-pair noise levels `σ(e)` (Eq. 7).
//!
//! The degree multiset is the original graph's [`DegreeProfile`], a
//! histogram over at most `max_degree + 1` distinct degrees, so all
//! scores are computed on distinct degrees and broadcast back to
//! vertices. Algorithm 1 evaluates `C_θ` at θ = σ for every candidate σ;
//! the profile is built once per search and only the kernel pass re-runs.

use obf_stats::normal::norm_pdf;

use crate::adversary::DegreeProfile;

/// Kernel distance (in multiples of θ) beyond which the Gaussian weight is
/// negligible (`Φ_{0,θ}(8θ)/Φ_{0,θ}(0) = e^{-32} ≈ 1.3e-14`).
const KERNEL_CUTOFF_THETAS: f64 = 8.0;

/// `C_θ(ω)` for every distinct degree `ω` of `profile`, parallel to
/// [`DegreeProfile::distinct`].
///
/// # Panics
/// Panics if `theta` is not strictly positive and finite.
pub fn commonness(profile: &DegreeProfile, theta: f64) -> Vec<f64> {
    assert!(
        theta.is_finite() && theta > 0.0,
        "theta must be positive and finite, got {theta}"
    );
    let values = profile.distinct();
    let counts = profile.multiplicity();
    // C_θ(ω) = Σ_{ω'} count(ω') Φ_{0,θ}(|ω − ω'|) with kernel cutoff.
    // Degrees are sorted, so scan left and right from ω, stopping at the
    // first degree out of the window.
    let cutoff = KERNEL_CUTOFF_THETAS * theta;
    let term = |w: f64, j: usize| {
        let d = (w - values[j] as f64).abs();
        (d <= cutoff).then(|| counts[j] as f64 * norm_pdf(d, 0.0, theta))
    };
    (0..values.len())
        .map(|i| {
            let w = values[i] as f64;
            let mut acc = 0.0;
            for j in (0..=i).rev() {
                let Some(t) = term(w, j) else { break };
                acc += t;
            }
            for j in i + 1..values.len() {
                let Some(t) = term(w, j) else { break };
                acc += t;
            }
            acc
        })
        .collect()
}

/// Per-vertex uniqueness scores `U_θ(deg v) = 1 / C_θ(deg v)`.
#[derive(Debug, Clone)]
pub struct UniquenessScores {
    scores: Vec<f64>,
}

impl UniquenessScores {
    /// θ-uniqueness of every vertex of the profiled graph (Algorithm 2
    /// line 1).
    ///
    /// # Panics
    /// Panics if `theta` is not strictly positive and finite.
    pub fn new(profile: &DegreeProfile, theta: f64) -> Self {
        let c = commonness(profile, theta);
        let mut slot = vec![0usize; profile.max_degree() + 1];
        for (i, &d) in profile.distinct().iter().enumerate() {
            slot[d] = i;
        }
        let scores = profile
            .degrees()
            .iter()
            .map(|&d| 1.0 / c[slot[d]])
            .collect();
        Self { scores }
    }

    /// Uniqueness of vertex `v`.
    pub fn of(&self, v: u32) -> f64 {
        self.scores[v as usize]
    }

    /// Indices of the `h` vertices with the largest uniqueness — the
    /// exclusion set `H` of Algorithm 2 line 2. Ties are broken by vertex
    /// id for determinism.
    pub fn top_unique(&self, h: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..self.scores.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            self.scores[b as usize]
                .total_cmp(&self.scores[a as usize])
                .then(a.cmp(&b))
        });
        idx.truncate(h);
        idx
    }

    /// Sampling weights for the distribution `Q(v) ∝ U_θ(deg v)`
    /// (Algorithm 2 line 3), with the vertices in `excluded` zeroed out so
    /// they are never drawn (lines 8–9 sample from `V \ H`).
    pub fn q_weights(&self, excluded: &[u32]) -> Vec<f64> {
        let mut w = self.scores.clone();
        for &v in excluded {
            w[v as usize] = 0.0;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_graph::{generators, Graph};

    /// `C_θ` of degree `d` in `profile`.
    fn commonness_of(profile: &DegreeProfile, theta: f64, d: usize) -> f64 {
        let i = profile.distinct().binary_search(&d).unwrap();
        commonness(profile, theta)[i]
    }

    #[test]
    fn tiny_theta_reduces_to_multiplicity() {
        // With θ → 0 the kernel only sees exact matches:
        // C_θ(ω) ≈ count(ω) · Φ_{0,θ}(0) = count(ω)/(θ√(2π)).
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]); // degrees 3,2,2,1
        let p = DegreeProfile::new(&g);
        let theta = 1e-6;
        let phi0 = norm_pdf(0.0, 0.0, theta);
        assert!((commonness_of(&p, theta, 2) - 2.0 * phi0).abs() / phi0 < 1e-9);
        assert!((commonness_of(&p, theta, 3) - phi0).abs() / phi0 < 1e-9);
    }

    #[test]
    fn frequent_values_are_more_common() {
        let g = generators::star(10); // degree 9 once, degree 1 nine times
        let p = DegreeProfile::new(&g);
        let c_hub = commonness_of(&p, 0.5, 9);
        let c_leaf = commonness_of(&p, 0.5, 1);
        assert!(c_leaf > 5.0 * c_hub, "leaf={c_leaf} hub={c_hub}");
        let u = UniquenessScores::new(&p, 0.5);
        assert!(u.of(0) > u.of(1));
    }

    #[test]
    fn nearby_values_contribute() {
        // A path: degree 1 twice (the ends) and degree 2 eight times. With
        // θ = 2 the rare ends are much less unique than with θ = 0.01,
        // because the 2s are close.
        let g = generators::path(10);
        let p = DegreeProfile::new(&g);
        assert_eq!(p.multiplicity(), &[2, 8]);
        let ratio = |theta| {
            let u = UniquenessScores::new(&p, theta);
            u.of(0) / u.of(1) // an end over an inner vertex
        };
        let (r_wide, r_narrow) = (ratio(2.0), ratio(0.01));
        assert!(r_wide < r_narrow / 2.0, "wide={r_wide} narrow={r_narrow}");
    }

    #[test]
    fn top_unique_selects_rarest() {
        let g = generators::star(10);
        let u = UniquenessScores::new(&DegreeProfile::new(&g), 0.1);
        assert_eq!(u.top_unique(1), vec![0]); // the hub
                                              // Deterministic tie-break on the leaves.
        assert_eq!(u.top_unique(3), vec![0, 1, 2]);
    }

    #[test]
    fn q_weights_zero_excluded() {
        let g = generators::star(5);
        let u = UniquenessScores::new(&DegreeProfile::new(&g), 0.1);
        let w = u.q_weights(&[0, 2]);
        assert_eq!(w[0], 0.0);
        assert_eq!(w[2], 0.0);
        assert!(w[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_theta() {
        let g = generators::cycle(5);
        let _ = commonness(&DegreeProfile::new(&g), 0.0);
    }
}
