//! The republish pipeline: delta in, (k, ε)-certified release out.
//!
//! A [`Republisher`] owns the current release — original graph,
//! published uncertain graph, the σ it was generated at, and the
//! [`IncrementalAdversary`] state of its Definition 2 check. Each
//! [`Republisher::republish`] call consumes one [`EdgeBatch`]:
//!
//! 1. the original graph absorbs the batch via the CSR merge of
//!    [`Graph::apply_batch`];
//! 2. the published graph absorbs the *noised* batch: inserted edges
//!    enter the candidate set at `p = 1 − r`, deleted edges decay to
//!    `p = r`, with `r` drawn from the same truncated-normal/white-noise
//!    mix as Algorithm 2 lines 15–18 at the release's σ (uniform over
//!    the delta pairs — the per-pair uniqueness redistribution of Eq. 7
//!    is a whole-release construct and is re-applied on fallback);
//! 3. the adversary state is patched — only the delta's endpoint rows
//!    are re-derived — and the (k, ε) check re-evaluated bit-identically
//!    to a from-scratch build;
//! 4. if the check still passes at the current σ the release ships
//!    as-is (the common case: a small delta rarely moves the minimal
//!    σ); otherwise Algorithm 1 re-runs **warm-started** from the
//!    previous minimal σ — the doubling phase starts where the last
//!    search ended instead of at `σ_init = 1`, which both finds the
//!    upper bound immediately in the common case and shortens the
//!    binary search interval.
//!
//! Publishing at `σ_headroom × σ_min` (default 1.25) trades a sliver of
//! utility for republish stability: the extra noise margin is what lets
//! most deltas pass step 4 without any σ search at all.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use obf_core::{
    generate_obfuscation, obfuscate_with_stats, DegreeProfile, ObfuscationError, ObfuscationParams,
    ObfuscationResult,
};
use obf_graph::{stream_seed, EdgeBatch, Graph};
use obf_stats::TruncatedNormal;
use obf_uncertain::UncertainGraph;

use crate::incremental::IncrementalAdversary;

/// Parameters of the evolving pipeline: the per-release obfuscation
/// parameters plus the republish-stability headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolveParams {
    /// Algorithm 1/2 parameters of each full (non-incremental) search.
    pub base: ObfuscationParams,
    /// The published release uses `σ_headroom × σ_min` (clamped to ≥ 1):
    /// headroom above the minimal σ so subsequent deltas keep passing
    /// the incremental check. 1.0 publishes the exact Algorithm 1
    /// output.
    pub sigma_headroom: f64,
}

impl EvolveParams {
    /// Default headroom (1.25) over the given base parameters.
    pub fn new(base: ObfuscationParams) -> Self {
        Self {
            base,
            sigma_headroom: 1.25,
        }
    }

    /// Overrides the headroom multiplier.
    pub fn with_headroom(mut self, sigma_headroom: f64) -> Self {
        self.sigma_headroom = sigma_headroom.max(1.0);
        self
    }
}

/// Failure modes of a republish step.
#[derive(Debug)]
pub enum RepublishError {
    /// The delta batch does not apply to the current release.
    Delta(String),
    /// The fallback σ search failed (the incremental state is rebuilt
    /// on the *old* release; the batch was not applied).
    Search(ObfuscationError),
}

impl std::fmt::Display for RepublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepublishError::Delta(msg) => write!(f, "delta does not apply: {msg}"),
            RepublishError::Search(e) => write!(f, "fallback search failed: {e}"),
        }
    }
}

impl std::error::Error for RepublishError {}

/// What one republish step did — the bench record of the evolve
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepublishReport {
    /// Epoch of the new release (base release is epoch 0).
    pub epoch: u64,
    /// True when the patched check passed at the previous σ and no σ
    /// search ran.
    pub incremental: bool,
    /// Adversary rows re-derived for this release.
    pub rows_recomputed: usize,
    /// Total adversary rows (`n`).
    pub rows_total: usize,
    /// Candidate pairs whose probability changed.
    pub candidate_changes: usize,
    /// σ of the new release.
    pub sigma: f64,
    /// ε̃ of the new release (exact, from the completed check).
    pub eps_achieved: f64,
    /// `GenerateObfuscation` invocations this step (0 when
    /// incremental).
    pub generate_calls: u32,
    /// Doubling steps of the fallback search (0 when incremental).
    pub doublings: u32,
    /// Binary-search steps of the fallback search (0 when incremental).
    pub search_steps: u32,
}

impl RepublishReport {
    /// Fraction of adversary rows re-derived.
    pub fn rows_recomputed_fraction(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            self.rows_recomputed as f64 / self.rows_total as f64
        }
    }
}

/// The stateful republish pipeline over one evolving graph.
#[derive(Debug)]
pub struct Republisher {
    params: EvolveParams,
    epoch: u64,
    original: Graph,
    published: UncertainGraph,
    /// σ the current release was generated at (headroom included).
    sigma: f64,
    /// Minimal σ of the last full search — the warm-start anchor.
    sigma_min: f64,
    eps_achieved: f64,
    adversary: IncrementalAdversary,
}

impl Republisher {
    /// Publishes the base release: a full Algorithm 1 search (plus the
    /// headroom regeneration), then the incremental adversary state is
    /// built once. Also returns the search's [`ObfuscationResult`].
    pub fn publish(
        g: Graph,
        params: EvolveParams,
    ) -> Result<(Self, ObfuscationResult), ObfuscationError> {
        let (result, _) = obfuscate_with_stats(&g, &params.base)?;
        let sigma_min = result.sigma;
        let (published, sigma, eps_achieved) = apply_headroom(
            &g,
            &params,
            sigma_min,
            result.graph.clone(),
            result.eps_achieved,
            0,
        );
        let adversary = IncrementalAdversary::build(&published, &params.base.parallelism);
        Ok((
            Self {
                params,
                epoch: 0,
                original: g,
                published,
                sigma,
                sigma_min,
                eps_achieved,
                adversary,
            },
            result,
        ))
    }

    /// The current original graph.
    pub fn original(&self) -> &Graph {
        &self.original
    }

    /// The current published release.
    pub fn published(&self) -> &UncertainGraph {
        &self.published
    }

    /// Epoch of the current release (0 = base).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// σ of the current release.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// ε̃ of the current release.
    pub fn eps_achieved(&self) -> f64 {
        self.eps_achieved
    }

    /// Total adversary rows re-derived by incremental patches so far.
    pub fn rows_patched(&self) -> u64 {
        self.adversary.rows_patched()
    }

    /// Absorbs one delta batch and certifies the next release. See the
    /// module docs for the pipeline; on [`RepublishError`] the
    /// republisher still holds the previous release, unchanged.
    pub fn republish(&mut self, batch: &EdgeBatch) -> Result<RepublishReport, RepublishError> {
        let k = self.params.base.k;
        let eps = self.params.base.eps;
        let par = self.params.base.parallelism;
        let next_epoch = self.epoch + 1;
        let g_new = self
            .original
            .apply_batch(batch)
            .map_err(RepublishError::Delta)?;

        // Noise the delta into the candidate set, deterministically per
        // (seed, epoch): inserted edges get p = 1 - r, deleted candidate
        // pairs decay to p = r (an adversary cannot tell a decayed
        // deletion from injected noise); deleting an edge that was
        // already certainly-deleted from E_C changes nothing.
        let mut rng =
            SmallRng::seed_from_u64(stream_seed(self.params.base.seed ^ 0xDE17A, next_epoch));
        let mut changes: Vec<(u32, u32, Option<f64>)> = Vec::with_capacity(batch.num_ops());
        let (mut i, mut j) = (0usize, 0usize);
        while i < batch.inserts.len() || j < batch.deletes.len() {
            // Canonical-order merge of the two runs, so the RNG stream
            // is a pure function of the batch content.
            let take_insert = j >= batch.deletes.len()
                || (i < batch.inserts.len() && batch.inserts[i] < batch.deletes[j]);
            if take_insert {
                let (u, v) = batch.inserts[i];
                changes.push((u, v, Some(1.0 - self.draw_noise(&mut rng))));
                i += 1;
            } else {
                let (u, v) = batch.deletes[j];
                if self.published.is_candidate(u, v) {
                    changes.push((u, v, Some(self.draw_noise(&mut rng))));
                }
                j += 1;
            }
        }
        let pub_new = self
            .published
            .apply_delta(&changes)
            .map_err(RepublishError::Delta)?;
        let mut touched: Vec<u32> = changes.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        touched.sort_unstable();
        touched.dedup();

        // Patch the adversary state and re-check at the current σ.
        self.adversary.patch(&pub_new, &touched, &par);
        let profile_new = DegreeProfile::new(&g_new);
        let check = self.adversary.check(&profile_new, k);
        if check.satisfies(eps) {
            self.epoch = next_epoch;
            self.original = g_new;
            self.published = pub_new;
            self.eps_achieved = check.eps_achieved;
            return Ok(RepublishReport {
                epoch: self.epoch,
                incremental: true,
                rows_recomputed: touched.len(),
                rows_total: self.adversary.num_vertices(),
                candidate_changes: changes.len(),
                sigma: self.sigma,
                eps_achieved: check.eps_achieved,
                generate_calls: 0,
                doublings: 0,
                search_steps: 0,
            });
        }

        // Fallback: full Algorithm 1, warm-started at the previous
        // minimal σ (the doubling phase begins there instead of at 1).
        let mut warm = self.params.base;
        warm.sigma_init = self.sigma_min.max(warm.delta);
        warm.seed = stream_seed(self.params.base.seed, next_epoch);
        match obfuscate_with_stats(&g_new, &warm) {
            Ok((result, _)) => {
                let sigma_min = result.sigma;
                let (published, sigma, eps_achieved) = apply_headroom(
                    &g_new,
                    &self.params,
                    sigma_min,
                    result.graph,
                    result.eps_achieved,
                    next_epoch,
                );
                self.adversary =
                    IncrementalAdversary::build(&published, &self.params.base.parallelism);
                self.epoch = next_epoch;
                self.original = g_new;
                self.published = published;
                self.sigma = sigma;
                self.sigma_min = sigma_min;
                self.eps_achieved = eps_achieved;
                Ok(RepublishReport {
                    epoch: self.epoch,
                    incremental: false,
                    rows_recomputed: self.adversary.num_vertices(),
                    rows_total: self.adversary.num_vertices(),
                    candidate_changes: changes.len(),
                    sigma,
                    eps_achieved,
                    generate_calls: result.generate_calls,
                    doublings: result.doublings,
                    search_steps: result.search_steps,
                })
            }
            Err(e) => {
                // Restore a consistent adversary state for the old
                // release before surfacing the error.
                self.adversary =
                    IncrementalAdversary::build(&self.published, &self.params.base.parallelism);
                Err(RepublishError::Search(e))
            }
        }
    }

    /// One Algorithm 2 line 15–18 noise draw at the release σ.
    fn draw_noise(&self, rng: &mut SmallRng) -> f64 {
        if rng.gen::<f64>() < self.params.base.q {
            rng.gen::<f64>()
        } else {
            TruncatedNormal::new(self.sigma.max(1e-12)).sample(rng)
        }
    }
}

/// Regenerates the release at `σ_headroom × σ_min` when headroom is
/// requested and a trial at the padded σ succeeds; falls back to the
/// minimal-σ graph otherwise. Deterministic per (params, epoch).
fn apply_headroom(
    g: &Graph,
    params: &EvolveParams,
    sigma_min: f64,
    minimal_graph: UncertainGraph,
    minimal_eps: f64,
    epoch: u64,
) -> (UncertainGraph, f64, f64) {
    if params.sigma_headroom <= 1.0 {
        return (minimal_graph, sigma_min, minimal_eps);
    }
    let sigma = sigma_min * params.sigma_headroom;
    let out = generate_obfuscation(
        g,
        &params.base,
        sigma,
        stream_seed(params.base.seed ^ 0x4EAD, epoch),
    );
    match out.graph {
        Some(graph) => (graph, sigma, out.eps_achieved),
        None => (minimal_graph, sigma_min, minimal_eps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_core::ObfuscationCheck;
    use obf_graph::generators;

    fn fast_params(k: usize, eps: f64, seed: u64) -> EvolveParams {
        let mut p = ObfuscationParams::new(k, eps)
            .with_seed(seed)
            .with_threads(2);
        p.delta = 1e-3;
        p.t = 2;
        EvolveParams::new(p)
    }

    /// Re-verifies the current release from scratch — the certificate
    /// the pipeline must uphold at every epoch.
    fn assert_certified(r: &Republisher, k: usize, eps: f64) {
        let check = ObfuscationCheck::run(
            r.original(),
            r.published(),
            k,
            &obf_graph::Parallelism::sequential(),
        );
        assert!(
            check.satisfies(eps + 1e-12),
            "epoch {} not certified: eps={}",
            r.epoch(),
            check.eps_achieved
        );
    }

    #[test]
    fn evolving_releases_stay_certified() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::erdos_renyi_gnm(220, 660, &mut rng);
        let params = fast_params(5, 0.1, 11);
        let (mut rep, result) = Republisher::publish(g.clone(), params).unwrap();
        assert!(result.eps_achieved <= 0.1);
        assert_eq!(rep.epoch(), 0);
        assert_certified(&rep, 5, 0.1);

        // Three small delta batches.
        let mut current = g;
        let mut incremental_steps = 0;
        for step in 0..3u64 {
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            let edges: Vec<(u32, u32)> = current.edges().collect();
            deletes.push(edges[(7 * step as usize + 3) % edges.len()]);
            let mut tries = 0;
            while inserts.len() < 6 && tries < 500 {
                tries += 1;
                let u = rng.gen_range(0..220u32);
                let v = rng.gen_range(0..220u32);
                let pair = if u < v { (u, v) } else { (v, u) };
                if u != v
                    && !current.has_edge(u, v)
                    && !inserts.contains(&pair)
                    && !deletes.contains(&pair)
                {
                    inserts.push(pair);
                }
            }
            let batch = EdgeBatch::new(step + 1, inserts, deletes).unwrap();
            current = current.apply_batch(&batch).unwrap();
            let report = rep.republish(&batch).unwrap();
            assert_eq!(report.epoch, step + 1);
            assert_eq!(rep.original(), &current);
            assert!(report.eps_achieved <= 0.1 + 1e-12);
            if report.incremental {
                incremental_steps += 1;
                assert_eq!(report.generate_calls, 0);
                assert!(report.rows_recomputed < report.rows_total / 5);
            }
            assert_certified(&rep, 5, 0.1);
        }
        assert!(
            incremental_steps >= 2,
            "only {incremental_steps}/3 steps were incremental"
        );
    }

    #[test]
    fn republish_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::erdos_renyi_gnm(150, 450, &mut rng);
        let batch =
            EdgeBatch::new(1, vec![(0, 149), (3, 77)], vec![g.edges().next().unwrap()]).unwrap();
        let run = |g: &Graph| {
            let (mut rep, _) = Republisher::publish(g.clone(), fast_params(4, 0.1, 3)).unwrap();
            let report = rep.republish(&batch).unwrap();
            (report, rep.published().clone())
        };
        let (ra, pa) = run(&g);
        let (rb, pb) = run(&g);
        assert_eq!(ra, rb);
        assert_eq!(pa, pb);
    }

    #[test]
    fn fallback_release_is_identical_at_every_thread_count() {
        // A batch that adds 8, 12, …, 52 edges at vertices 0–11 makes
        // twelve hubs, more than the ε·n = 7.5 vertices a release may
        // leave exposed, and breaks the release, so the epoch falls back
        // to a full search and the headroom regeneration; both draw their
        // trials from per-trial streams, so the release does not depend on
        // the thread count.
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::erdos_renyi_gnm(150, 450, &mut rng);
        let inserts: Vec<(u32, u32)> = (0..12u32)
            .flat_map(|h| {
                let g = &g;
                (12..150u32)
                    .filter(move |&v| !g.has_edge(h, v))
                    .take(8 + 4 * h as usize)
                    .map(move |v| (h, v))
            })
            .collect();
        let batch = EdgeBatch::new(1, inserts, vec![]).unwrap();
        let run = |threads: usize| {
            let mut params = fast_params(6, 0.05, 4);
            params.base = params.base.with_threads(threads);
            let (mut rep, _) = Republisher::publish(g.clone(), params).unwrap();
            let report = rep.republish(&batch).unwrap();
            assert!(!report.incremental, "threads={threads}: no fallback");
            assert_certified(&rep, 6, 0.05);
            (report, rep.published().clone())
        };
        let (report, published) = run(1);
        assert_eq!(run(2), (report, published));
    }

    #[test]
    fn bad_batch_leaves_state_untouched() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::erdos_renyi_gnm(100, 300, &mut rng);
        let (mut rep, _) = Republisher::publish(g, fast_params(3, 0.1, 9)).unwrap();
        let before = rep.published().clone();
        let bad = EdgeBatch::new(1, vec![(0, 5000)], vec![]).unwrap();
        assert!(matches!(rep.republish(&bad), Err(RepublishError::Delta(_))));
        assert_eq!(rep.published(), &before);
        assert_eq!(rep.epoch(), 0);
    }
}
