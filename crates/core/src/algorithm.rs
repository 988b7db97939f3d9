//! The obfuscation algorithms (paper Section 5).
//!
//! [`generate_obfuscation`] is Algorithm 2: given a global uncertainty
//! level `σ` it selects the candidate set `E_C`, redistributes `σ` over
//! pairs in proportion to uniqueness (Eq. 7), draws truncated-normal
//! perturbations (with a `q` fraction of uniform white noise) and tests
//! the result against Definition 2; `t` independent trials are attempted.
//!
//! [`obfuscate`] is Algorithm 1: it doubles an upper bound `σ_u` until a
//! (k, ε)-obfuscation exists, then binary-searches `[0, σ_u]` for the
//! smallest `σ` that still succeeds, returning the last successful
//! obfuscation (the one with minimal σ, i.e. maximal utility).
//!
//! # Parallelism
//!
//! Each Algorithm 2 trial splits into a *draw* (lines 6–19: candidate
//! selection and the perturbations, every RNG read) and a *check* (line
//! 20: the Definition 2 test of the drawn candidates, which reads no
//! RNG). The calling thread draws the `t` trials of a σ in order, so
//! the random stream is the sequential one; up to `threads − 1` scoped
//! workers check the drawn trials concurrently, and the caller joins them
//! once its draws are done. Every check runs sequentially with the
//! configured chunk size, and the results are folded in trial order, so
//! the published graph is identical at every thread count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use obf_graph::{pipeline, AliasTable, FxHashSet, Graph, Parallelism, VertexPair};
use obf_stats::TruncatedNormal;
use obf_uncertain::degree_dist::DegreeDistMethod;
use obf_uncertain::UncertainGraph;

use crate::adversary::DegreeProfile;
use crate::commonness::{CommonnessScores, UniquenessScores, ValueHistogram};
use crate::fastpath::{run_budgeted, BudgetedCheck, MemoizedAdversary};
use crate::property::{DegreeProperty, VertexProperty};

/// Parameters of the obfuscation algorithm (paper Algorithms 1–2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObfuscationParams {
    /// Desired obfuscation level `k` (Definition 2).
    pub k: usize,
    /// Tolerance `ε`: fraction of vertices allowed to stay under-obfuscated.
    pub eps: f64,
    /// Candidate-set size multiplier `c` (`|E_C| = c·|E|`); the paper uses
    /// 2, falling back to 3 for hard instances.
    pub c: f64,
    /// White-noise level `q`: fraction of pairs whose perturbation is
    /// drawn uniformly from `[0, 1]` (paper: 0.01).
    pub q: f64,
    /// Trials per `σ` (paper: `t = 5`).
    pub t: usize,
    /// Initial upper bound `σ_u` for the doubling phase (paper: 1).
    pub sigma_init: f64,
    /// Binary-search resolution `δ`: the search stops when
    /// `σ_ℓ + δ ≥ σ_u`. The paper's reported minima (≈6e-8 = 2⁻²⁴ of the
    /// unit start) correspond to this default.
    pub delta: f64,
    /// Maximum doublings before giving up on finding an upper bound.
    pub max_doublings: u32,
    /// RNG seed (the algorithm is fully deterministic given the seed).
    pub seed: u64,
    /// Per-vertex degree-distribution method for the adversary table.
    pub method: DegreeDistMethod,
    /// Worker threads and chunk size of the search. The calling thread
    /// draws each σ's trials and up to `threads − 1` workers check them
    /// concurrently; each check runs sequentially with this chunk size.
    /// The published graph is identical for every thread count (see the
    /// module docs and [`Parallelism`]).
    pub parallelism: Parallelism,
}

impl ObfuscationParams {
    /// Paper defaults (`c = 2`, `q = 0.01`, `t = 5`) for a given `(k, ε)`.
    pub fn new(k: usize, eps: f64) -> Self {
        Self {
            k,
            eps,
            c: 2.0,
            q: 0.01,
            t: 5,
            sigma_init: 1.0,
            delta: 6e-8,
            max_doublings: 16,
            seed: 0x0bf5,
            method: DegreeDistMethod::Auto { threshold: 64 },
            parallelism: Parallelism::available(),
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the worker-thread count of [`ObfuscationParams::parallelism`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism = self.parallelism.with_threads(threads);
        self
    }

    /// Overrides the trial count `t`.
    pub fn with_trials(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    fn validate(&self, n: usize) -> Result<(), ObfuscationError> {
        if self.k < 1 {
            return Err(ObfuscationError::BadParameter("k must be >= 1".into()));
        }
        if self.k > n.max(1) {
            return Err(ObfuscationError::BadParameter(format!(
                "k = {} exceeds the number of vertices {n}",
                self.k
            )));
        }
        if !(0.0..1.0).contains(&self.eps) {
            return Err(ObfuscationError::BadParameter(
                "eps must be in [0, 1)".into(),
            ));
        }
        if self.c < 1.0 {
            return Err(ObfuscationError::BadParameter("c must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.q) {
            return Err(ObfuscationError::BadParameter("q must be in [0,1]".into()));
        }
        if self.t == 0 {
            return Err(ObfuscationError::BadParameter("t must be >= 1".into()));
        }
        if self.sigma_init <= 0.0 || self.delta <= 0.0 {
            return Err(ObfuscationError::BadParameter(
                "sigma_init and delta must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Failure modes of the obfuscation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ObfuscationError {
    /// Invalid parameter combination.
    BadParameter(String),
    /// No (k, ε)-obfuscation found even after doubling `σ_u`
    /// `max_doublings` times; the paper resolves such cases by raising
    /// `c`. `best_eps` is the best *proven lower bound* across trials
    /// (aborted sweeps stop counting failures once the budget is
    /// exceeded).
    NoUpperBound { last_sigma: f64, best_eps: f64 },
}

impl std::fmt::Display for ObfuscationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObfuscationError::BadParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ObfuscationError::NoUpperBound {
                last_sigma,
                best_eps,
            } => write!(
                f,
                "no (k,eps)-obfuscation found up to sigma = {last_sigma} \
                 (best eps reached: {best_eps}); consider increasing c"
            ),
        }
    }
}

impl std::error::Error for ObfuscationError {}

/// Statistics of one `GenerateObfuscation` trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialStats {
    /// Achieved ε̃ (fraction of under-obfuscated vertices). Exact for
    /// trials that met the ε tolerance; for failing trials this is the
    /// *lower bound* established when the budgeted check aborted (still
    /// provably above ε).
    pub eps_achieved: f64,
    /// Candidate pairs that are original edges.
    pub kept_edges: usize,
    /// Candidate pairs that are added non-edges.
    pub added_pairs: usize,
    /// Original edges removed from `E_C` (certain deletions).
    pub removed_edges: usize,
}

/// Outcome of Algorithm 2 for one `σ`.
#[derive(Debug, Clone)]
pub struct GenerateOutcome {
    /// The best trial's uncertain graph, if any trial met `ε`.
    pub graph: Option<UncertainGraph>,
    /// Best achieved ε̃ among successful trials (∞ if none succeeded).
    pub eps_achieved: f64,
    /// Per-trial statistics.
    pub trials: Vec<TrialStats>,
}

impl GenerateOutcome {
    /// True when some trial produced a (k, ε)-obfuscation.
    pub fn succeeded(&self) -> bool {
        self.graph.is_some()
    }
}

/// Result of the full Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct ObfuscationResult {
    /// The published uncertain graph.
    pub graph: UncertainGraph,
    /// The minimal global σ that produced it.
    pub sigma: f64,
    /// The achieved ε̃ (≤ the requested ε).
    pub eps_achieved: f64,
    /// Number of doubling steps used to find the upper bound.
    pub doublings: u32,
    /// Number of binary-search iterations.
    pub search_steps: u32,
    /// Total `GenerateObfuscation` invocations.
    pub generate_calls: u32,
}

/// Which phase of Algorithm 1 a σ candidate belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchPhase {
    /// Lines 1–6: doubling σ_u until an obfuscation exists.
    #[default]
    Doubling,
    /// Lines 8–12: binary search of `[0, σ_u]`.
    BinarySearch,
}

/// Instrumentation of one candidate σ of the Algorithm 1 search: one
/// `GenerateObfuscation` invocation (`t` trials).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SigmaCandidateStats {
    /// The candidate σ.
    pub sigma: f64,
    /// Phase the candidate was tried in.
    pub phase: SearchPhase,
    /// Whether some trial met the ε tolerance.
    pub accepted: bool,
    /// Wall-clock seconds of the whole invocation.
    pub secs: f64,
    /// Trials run (`= params.t`).
    pub trials: u32,
    /// Adversary tables instantiated (one per trial).
    pub table_builds: u64,
    /// Lemma 1 row evaluations actually run (exact DP or CLT row).
    pub dp_evaluations: u64,
    /// Vertex rows the entropy sweeps needed (each vertex at most once
    /// per table); the gap to `dp_evaluations` is served by the
    /// identical-row memo cache, and the gap to `vertices × table_builds`
    /// is rows the early exits never needed at all.
    pub rows_requested: u64,
    /// Entropy columns actually computed across the trials.
    pub columns_evaluated: u64,
    /// Entropy columns a full sweep would compute (distinct degrees ×
    /// trials).
    pub columns_total: u64,
    /// Columns rejected by the zero-DP support precheck.
    pub support_skipped_columns: u64,
    /// Trials whose budgeted check exited before resolving every column.
    pub early_exit_trials: u64,
    /// Wall-clock seconds of each trial phase, summed over the trials.
    pub phases: TrialPhaseSecs,
}

/// Wall-clock seconds spent in the four phases of Algorithm 2 trials,
/// summed over the trials counted. The draw phases run on the calling
/// thread; the check phases run on whichever thread checks the trial, so
/// with workers their sum can exceed the elapsed time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrialPhaseSecs {
    /// Lines 6–12: candidate selection.
    pub select: f64,
    /// Lines 13–19: per-pair σ(e) and the perturbation draws.
    pub perturb: f64,
    /// Building the trial's uncertain graph and its adversary rows' memo.
    pub build: f64,
    /// Line 20: the budgeted Definition 2 check.
    pub check: f64,
}

impl std::ops::AddAssign for TrialPhaseSecs {
    fn add_assign(&mut self, rhs: Self) {
        self.select += rhs.select;
        self.perturb += rhs.perturb;
        self.build += rhs.build;
        self.check += rhs.check;
    }
}

impl SigmaCandidateStats {
    /// Rows served from the identical-row cache instead of a fresh DP.
    pub fn dp_cache_hits(&self) -> u64 {
        self.rows_requested - self.dp_evaluations
    }
}

/// Instrumentation of a full Algorithm 1 run — per-candidate timings and
/// cache/early-exit counters of the σ-search fast path. Every counter is
/// deterministic for a fixed seed and thread count-independent; only
/// `secs` and `phases` vary between runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SigmaSearchStats {
    /// Vertices of the input graph (the per-table baseline for
    /// [`SigmaSearchStats::naive_dp_evaluations`]).
    pub num_vertices: usize,
    /// One entry per `GenerateObfuscation` invocation, in search order.
    pub candidates: Vec<SigmaCandidateStats>,
}

impl SigmaSearchStats {
    /// Candidate σ values tried (doubling + binary search).
    pub fn candidates_tried(&self) -> u32 {
        self.candidates.len() as u32
    }

    /// Total wall-clock seconds across candidates.
    pub fn total_secs(&self) -> f64 {
        self.candidates.iter().map(|c| c.secs).sum()
    }

    /// Per-phase trial seconds summed across candidates.
    pub fn phase_secs(&self) -> TrialPhaseSecs {
        let mut total = TrialPhaseSecs::default();
        for c in &self.candidates {
            total += c.phases;
        }
        total
    }

    /// Total Lemma 1 row evaluations.
    pub fn dp_evaluations(&self) -> u64 {
        self.candidates.iter().map(|c| c.dp_evaluations).sum()
    }

    /// Total rows requested by entropy sweeps.
    pub fn rows_requested(&self) -> u64 {
        self.candidates.iter().map(|c| c.rows_requested).sum()
    }

    /// Total rows served by the identical-row cache.
    pub fn dp_cache_hits(&self) -> u64 {
        self.rows_requested() - self.dp_evaluations()
    }

    /// Fraction of requested rows served without a DP (0 when nothing
    /// was requested).
    pub fn dp_cache_hit_rate(&self) -> f64 {
        let req = self.rows_requested();
        if req == 0 {
            0.0
        } else {
            self.dp_cache_hits() as f64 / req as f64
        }
    }

    /// Row evaluations the pre-fast-path engine would have run: every
    /// vertex, for every adversary table ever built.
    pub fn naive_dp_evaluations(&self) -> u64 {
        self.num_vertices as u64 * self.candidates.iter().map(|c| c.table_builds).sum::<u64>()
    }

    /// Total entropy columns computed / total a full sweep would compute.
    pub fn columns(&self) -> (u64, u64) {
        (
            self.candidates.iter().map(|c| c.columns_evaluated).sum(),
            self.candidates.iter().map(|c| c.columns_total).sum(),
        )
    }

    /// Trials that exited before resolving every column.
    pub fn early_exit_trials(&self) -> u64 {
        self.candidates.iter().map(|c| c.early_exit_trials).sum()
    }
}

/// σ-independent state of one Algorithm 1 search, computed once and
/// reused by every candidate σ (the "search-state reuse" leg of the fast
/// path): the per-vertex property values and their sorted histogram
/// (only the kernel θ = σ changes per candidate), the original graph's
/// degree profile for the Definition 2 check, and the sorted original
/// edge list that seeds every trial's candidate selection.
struct SearchContext {
    property: DegreeProperty,
    per_vertex: Vec<f64>,
    histogram: ValueHistogram,
    profile: DegreeProfile,
    base_pairs: Vec<VertexPair>,
}

impl SearchContext {
    fn new(g: &Graph) -> Self {
        let property = DegreeProperty;
        let per_vertex = property.values(g);
        let histogram = ValueHistogram::new(&per_vertex);
        let profile = DegreeProfile::new(g);
        // Sorted adjacency lists yield the edges in `VertexPair` order.
        let base_pairs: Vec<VertexPair> = g.edge_pairs().collect();
        debug_assert!(base_pairs.is_sorted());
        Self {
            property,
            per_vertex,
            histogram,
            profile,
            base_pairs,
        }
    }
}

/// Algorithm 2: attempts to produce a (k, ε)-obfuscation of `g` at global
/// uncertainty `σ`, using `t` randomized trials.
pub fn generate_obfuscation(
    g: &Graph,
    params: &ObfuscationParams,
    sigma: f64,
    rng: &mut SmallRng,
) -> GenerateOutcome {
    generate_obfuscation_with_excluded(g, params, sigma, &[], rng)
}

/// Algorithm 2 with a caller-supplied part of the exclusion set `H`
/// (paper Section 5.3: "The algorithm could also receive H, or part of H,
/// as an input, instead of fully selecting it on its own"). The supplied
/// vertices are excluded from noise injection unconditionally; the
/// algorithm tops the set up to `⌈ε/2·n⌉` with the most unique remaining
/// vertices.
pub fn generate_obfuscation_with_excluded(
    g: &Graph,
    params: &ObfuscationParams,
    sigma: f64,
    forced_excluded: &[u32],
    rng: &mut SmallRng,
) -> GenerateOutcome {
    let ctx = SearchContext::new(g);
    let mut scratch = SigmaCandidateStats::default();
    generate_in_context(g, &ctx, params, sigma, forced_excluded, rng, &mut scratch)
}

/// Algorithm 2 against a prebuilt [`SearchContext`], recording check
/// instrumentation into `stats`. This is the per-candidate body of the σ
/// search: everything σ-independent lives in `ctx`.
fn generate_in_context(
    g: &Graph,
    ctx: &SearchContext,
    params: &ObfuscationParams,
    sigma: f64,
    forced_excluded: &[u32],
    rng: &mut SmallRng,
    stats: &mut SigmaCandidateStats,
) -> GenerateOutcome {
    let sampler = TrialSampler::new(g, ctx, params, sigma, forced_excluded);
    let workers = (params.parallelism.threads() - 1).min(params.t);
    let check_par = Parallelism::sequential().with_chunk_size(params.parallelism.chunk_size());
    let checked = pipeline(
        params.t,
        workers,
        |_| sampler.draw(g, ctx, rng),
        |draw| check_trial(ctx, params, draw, &check_par),
    );

    let mut best: Option<(f64, UncertainGraph)> = None;
    let mut trials = Vec::with_capacity(params.t);
    for trial in checked {
        stats.table_builds += 1;
        stats.columns_total += ctx.profile.distinct().len() as u64;
        stats.dp_evaluations += trial.dp_evaluations;
        stats.rows_requested += trial.rows_requested;
        stats.columns_evaluated += trial.verdict.columns_evaluated as u64;
        stats.support_skipped_columns += trial.verdict.support_only_failures as u64;
        stats.early_exit_trials += u64::from(trial.verdict.early_exit);
        stats.phases += trial.phases;
        trials.push(trial.stats);

        // Line 21: keep the best trial meeting ε (the earliest on a tie).
        let eps_trial = trial.stats.eps_achieved;
        if let Some(ug) = trial.graph {
            if best.as_ref().is_none_or(|(e, _)| eps_trial < *e) {
                best = Some((eps_trial, ug));
            }
        }
    }

    match best {
        Some((eps, graph)) => GenerateOutcome {
            graph: Some(graph),
            eps_achieved: eps,
            trials,
        },
        None => GenerateOutcome {
            graph: None,
            eps_achieved: f64::INFINITY,
            trials,
        },
    }
}

/// The σ-dependent state every trial of one σ draws from (Algorithm 2
/// lines 1–3), plus the parameters of the draw.
struct TrialSampler {
    sigma: f64,
    /// White-noise level `q`.
    q: f64,
    /// σ-uniqueness of every vertex (line 1).
    uniq: UniquenessScores,
    /// The sampling distribution `Q` on `V \ H` (line 3); `None` when no
    /// vertex is sampleable.
    alias: Option<AliasTable>,
    /// `|E_C| = c·|E|`.
    target_ec: usize,
}

impl TrialSampler {
    fn new(
        g: &Graph,
        ctx: &SearchContext,
        params: &ObfuscationParams,
        sigma: f64,
        forced_excluded: &[u32],
    ) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();

        // Line 1: σ-uniqueness of every vertex (θ = σ, Section 5.2). Only
        // the kernel pass depends on σ; the value histogram comes from
        // `ctx`.
        let scores =
            CommonnessScores::from_histogram(&ctx.histogram, &ctx.property, sigma.max(1e-300));
        let uniq = scores.vertex_uniqueness(&ctx.per_vertex);

        // Line 2: H = the ⌈ε/2·n⌉ most unique vertices, excluded from
        // noise; caller-forced members take priority.
        let h_size = ((params.eps / 2.0) * n as f64).ceil() as usize;
        let mut h_set: Vec<u32> = forced_excluded.to_vec();
        h_set.sort_unstable();
        h_set.dedup();
        if h_set.len() < h_size.min(n) {
            let forced: FxHashSet<u32> = h_set.iter().copied().collect();
            for v in uniq.top_unique(h_size.min(n)) {
                if h_set.len() >= h_size.min(n) {
                    break;
                }
                if !forced.contains(&v) {
                    h_set.push(v);
                }
            }
        }

        // Line 3: Q(v) ∝ U_σ(P(v)) on V \ H.
        let q_weights = uniq.q_weights(&h_set);
        let total_q: f64 = q_weights.iter().sum();
        let alias = if total_q > 0.0 && q_weights.iter().any(|&w| w > 0.0) {
            Some(AliasTable::new(&q_weights))
        } else {
            None
        };
        Self {
            sigma,
            q: params.q,
            uniq,
            alias,
            target_ec: ((params.c * m as f64).round() as usize).max(m),
        }
    }

    /// Algorithm 2 lines 6–19 for one trial.
    fn draw(&self, g: &Graph, ctx: &SearchContext, rng: &mut SmallRng) -> TrialDraw {
        // Phase spans feed only TrialPhaseSecs and their histograms —
        // wall-clock stats excluded from every digest and equivalence check.
        let span = obf_obs::Span::start(obf_obs::global(), "obf_core_trial_select_micros");
        // Lines 6–12: select E_C starting from E. A degenerate graph (no
        // sampleable vertices) keeps E_C = E.
        let (ec, removed_edges) = match &self.alias {
            Some(alias) => select_candidates(g, &ctx.base_pairs, self.target_ec, alias, rng),
            None => (ctx.base_pairs.iter().map(|&p| (p, true)).collect(), 0),
        };
        let select = span.finish_secs();
        let span = obf_obs::Span::start(obf_obs::global(), "obf_core_trial_perturb_micros");

        // Line 14: per-pair σ(e) (Eq. 7), proportional to pair uniqueness.
        let uniq = &self.uniq;
        let pair_uniqueness: Vec<f64> = ec
            .iter()
            .map(|(p, _)| (uniq.of(p.lo()) + uniq.of(p.hi())) / 2.0)
            .collect();
        let uniq_total: f64 = pair_uniqueness.iter().sum();

        // Lines 13–19: draw perturbations and assign probabilities.
        let sigma = self.sigma;
        let mut kept_edges = 0usize;
        let mut added_pairs = 0usize;
        let mut candidates: Vec<(u32, u32, f64)> = Vec::with_capacity(ec.len());
        for (&(pair, is_edge), &u_e) in ec.iter().zip(&pair_uniqueness) {
            let sigma_e = if uniq_total > 0.0 {
                (sigma * ec.len() as f64 * u_e / uniq_total).max(1e-12)
            } else {
                sigma.max(1e-12)
            };
            let r_e = if rng.gen::<f64>() < self.q {
                rng.gen::<f64>()
            } else {
                TruncatedNormal::new(sigma_e).sample(rng)
            };
            let p = if is_edge {
                kept_edges += 1;
                1.0 - r_e
            } else {
                added_pairs += 1;
                r_e
            };
            candidates.push((pair.lo(), pair.hi(), p));
        }
        TrialDraw {
            candidates,
            kept_edges,
            added_pairs,
            removed_edges,
            phases: TrialPhaseSecs {
                select,
                perturb: span.finish_secs(),
                ..TrialPhaseSecs::default()
            },
        }
    }
}

/// The random half of one Algorithm 2 trial (lines 6–19): the candidate
/// set and its perturbed probabilities. Every RNG read of a trial happens
/// while drawing it.
struct TrialDraw {
    candidates: Vec<(u32, u32, f64)>,
    kept_edges: usize,
    added_pairs: usize,
    removed_edges: usize,
    /// The draw's own phases; the check fills in the other two.
    phases: TrialPhaseSecs,
}

/// The deterministic half of one Algorithm 2 trial (line 20): the
/// Definition 2 verdict on a [`TrialDraw`] and the check's counters.
struct CheckedTrial {
    stats: TrialStats,
    /// The trial's uncertain graph, kept only when it met ε.
    graph: Option<UncertainGraph>,
    verdict: BudgetedCheck,
    dp_evaluations: u64,
    rows_requested: u64,
    phases: TrialPhaseSecs,
}

/// Algorithm 2 line 20 for one drawn trial: ε' = fraction of vertices
/// not k-obfuscated, by the budgeted check of [`crate::fastpath`]
/// (memoized identical rows, DP support truncated at max_deg(G), and a
/// sweep that stops once the ε budget is decided).
fn check_trial(
    ctx: &SearchContext,
    params: &ObfuscationParams,
    draw: TrialDraw,
    par: &Parallelism,
) -> CheckedTrial {
    let n = ctx.profile.num_vertices();
    let span = obf_obs::Span::start(obf_obs::global(), "obf_core_trial_build_micros");
    let ug = UncertainGraph::new(n, draw.candidates).expect("valid candidate set");
    let mut adv = MemoizedAdversary::new(&ug, params.method, ctx.profile.max_degree(), par);
    let build = span.finish_secs();
    let span = obf_obs::Span::start(obf_obs::global(), "obf_core_trial_check_micros");
    let verdict = run_budgeted(&ctx.profile, &mut adv, params.k, params.eps, true, par);
    let check = span.finish_secs();
    // Satisfying verdicts always carry the exact ε̃ (the budgeted check
    // ran with `need_exact`); aborted failing sweeps report the proven
    // lower bound.
    let eps_achieved = verdict
        .eps_exact
        .unwrap_or(verdict.failed_at_least as f64 / n.max(1) as f64);
    let (dp_evaluations, rows_requested) = (adv.dp_evaluations(), adv.rows_requested());
    CheckedTrial {
        stats: TrialStats {
            eps_achieved,
            kept_edges: draw.kept_edges,
            added_pairs: draw.added_pairs,
            removed_edges: draw.removed_edges,
        },
        graph: verdict.satisfies.then_some(ug),
        verdict,
        dp_evaluations,
        rows_requested,
        phases: TrialPhaseSecs {
            build,
            check,
            ..draw.phases
        },
    }
}

/// Algorithm 2 lines 6–12: starting from `E_C = E`, repeatedly draw a
/// vertex pair from `Q × Q`; drawing an existing edge removes it (certain
/// deletion), a non-edge is added as a candidate; stop at `|E_C| =
/// target`. `base` is `E` in sorted order. Returns the sorted candidate
/// pairs, each flagged with whether it is an edge of `E`, and the number
/// of removed original edges.
fn select_candidates(
    g: &Graph,
    base: &[VertexPair],
    target: usize,
    alias: &AliasTable,
    rng: &mut SmallRng,
) -> (Vec<(VertexPair, bool)>, usize) {
    // E_C = (E \ removed) ∪ added, tracked as the two differences so a
    // trial never copies E. Reaching the target takes at least
    // `target − |E|` additions.
    let mut removed: FxHashSet<VertexPair> = FxHashSet::default();
    let mut added: FxHashSet<VertexPair> =
        FxHashSet::with_capacity_and_hasher(target.saturating_sub(base.len()), Default::default());
    // Safety valve: the expected number of draws is ~(target - |E|) plus a
    // small correction for collisions; a generous multiple covers skewed Q.
    let max_draws = 200usize
        .saturating_add(target.saturating_mul(50))
        .saturating_add(g.num_edges() * 50);
    let mut draws = 0usize;
    while base.len() - removed.len() + added.len() != target {
        draws += 1;
        if draws > max_draws {
            // Could not reach the target (e.g. dense graph with few
            // non-edges among sampleable vertices); proceed with what we
            // have — the trial's ε̃ test still gates correctness.
            break;
        }
        let u = alias.sample(rng);
        let v = alias.sample(rng);
        if u == v {
            continue;
        }
        let pair = VertexPair::new(u, v);
        if g.has_edge(u, v) {
            removed.insert(pair);
        } else {
            added.insert(pair);
        }
    }
    let mut added_sorted: Vec<VertexPair> = added.into_iter().collect(); // audit:allow(map-iter, sorted on the next line; nothing order-dependent happens between collect and sort)
    added_sorted.sort_unstable();
    // Merge the kept base edges with the added non-edges (disjoint sets);
    // the merge knows which side each pair came from.
    let mut pairs = Vec::with_capacity(base.len() - removed.len() + added_sorted.len());
    let mut added_sorted = added_sorted.into_iter().peekable();
    for &kept in base.iter().filter(|p| !removed.contains(p)) {
        while let Some(a) = added_sorted.next_if(|a| *a < kept) {
            pairs.push((a, false));
        }
        pairs.push((kept, true));
    }
    pairs.extend(added_sorted.map(|a| (a, false)));
    (pairs, removed.len())
}

/// Algorithm 1: finds the minimal `σ` for which Algorithm 2 produces a
/// (k, ε)-obfuscation, via doubling and binary search.
pub fn obfuscate(
    g: &Graph,
    params: &ObfuscationParams,
) -> Result<ObfuscationResult, ObfuscationError> {
    obfuscate_with_stats(g, params).map(|(result, _)| result)
}

/// [`obfuscate`] with the σ-search instrumentation: per-candidate
/// timings, adversary-row DP/cache counters, and early-exit counts (see
/// [`SigmaSearchStats`]). The [`ObfuscationResult`] is identical to
/// [`obfuscate`]'s.
///
/// # Examples
///
/// ```
/// use obf_core::{obfuscate_with_stats, ObfuscationParams};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let g = obf_graph::generators::erdos_renyi_gnm(200, 500, &mut rng);
/// let mut params = ObfuscationParams::new(5, 0.05).with_seed(7).with_trials(2);
/// params.delta = 1e-2;
/// let (result, stats) = obfuscate_with_stats(&g, &params).expect("obfuscation found");
/// assert_eq!(stats.candidates_tried(), result.generate_calls);
/// // The fast path never runs more row DPs than the naive engine would.
/// assert!(stats.dp_evaluations() <= stats.naive_dp_evaluations());
/// ```
pub fn obfuscate_with_stats(
    g: &Graph,
    params: &ObfuscationParams,
) -> Result<(ObfuscationResult, SigmaSearchStats), ObfuscationError> {
    params.validate(g.num_vertices())?;
    let ctx = SearchContext::new(g);
    let mut stats = SigmaSearchStats {
        num_vertices: g.num_vertices(),
        candidates: Vec::new(),
    };
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut generate_calls = 0u32;

    let run_candidate =
        |sigma: f64, phase: SearchPhase, rng: &mut SmallRng, stats: &mut SigmaSearchStats| {
            let mut cand = SigmaCandidateStats {
                sigma,
                phase,
                trials: params.t as u32,
                ..Default::default()
            };
            // Span duration feeds only SigmaCandidateStats.secs and the
            // obf_core_candidate_check_micros histogram — instrumentation
            // excluded from every digest and equivalence check.
            let span = obf_obs::Span::start(obf_obs::global(), "obf_core_candidate_check_micros");
            let out = generate_in_context(g, &ctx, params, sigma, &[], rng, &mut cand);
            cand.secs = span.finish_secs();
            cand.accepted = out.succeeded();
            stats.candidates.push(cand);
            out
        };

    // Doubling phase (lines 1–6).
    let mut sigma_u = params.sigma_init;
    let mut doublings = 0u32;
    let mut best_eps_seen = f64::INFINITY;
    let found: (f64, f64, UncertainGraph) = loop {
        let out = run_candidate(sigma_u, SearchPhase::Doubling, &mut rng, &mut stats);
        generate_calls += 1;
        let min_trial_eps = out
            .trials
            .iter()
            .map(|t| t.eps_achieved)
            .fold(f64::INFINITY, f64::min);
        best_eps_seen = best_eps_seen.min(min_trial_eps);
        if let Some(graph) = out.graph {
            break (sigma_u, out.eps_achieved, graph);
        }
        if doublings >= params.max_doublings {
            return Err(ObfuscationError::NoUpperBound {
                last_sigma: sigma_u,
                best_eps: best_eps_seen,
            });
        }
        sigma_u *= 2.0;
        doublings += 1;
    };
    let (mut sigma_u, mut best_eps, mut best_graph) = found;

    // Binary search (lines 8–12).
    let mut sigma_l = 0.0f64;
    let mut search_steps = 0u32;
    let mut best_sigma = sigma_u;
    while sigma_l + params.delta < sigma_u {
        let sigma = 0.5 * (sigma_l + sigma_u);
        let out = run_candidate(sigma, SearchPhase::BinarySearch, &mut rng, &mut stats);
        generate_calls += 1;
        search_steps += 1;
        if let Some(graph) = out.graph {
            best_graph = graph;
            best_eps = out.eps_achieved;
            best_sigma = sigma;
            sigma_u = sigma;
        } else {
            sigma_l = sigma;
        }
    }

    Ok((
        ObfuscationResult {
            graph: best_graph,
            sigma: best_sigma,
            eps_achieved: best_eps,
            doublings,
            search_steps,
            generate_calls,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryTable, ObfuscationCheck};
    use obf_graph::generators;

    fn test_params(k: usize, eps: f64) -> ObfuscationParams {
        // Faster search for tests: coarser delta, fewer trials.
        let mut p = ObfuscationParams::new(k, eps).with_seed(42).with_threads(2);
        p.delta = 1e-3;
        p.t = 3;
        p
    }

    #[test]
    fn obfuscates_random_regularish_graph() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::erdos_renyi_gnm(300, 900, &mut rng);
        let params = test_params(10, 0.05);
        let res = obfuscate(&g, &params).expect("found obfuscation");
        assert!(res.eps_achieved <= 0.05);
        assert!(res.sigma > 0.0);
        // The certificate must hold when re-verified from scratch.
        let table = AdversaryTable::build(&res.graph, DegreeDistMethod::Exact);
        let check = ObfuscationCheck::run(&g, &table, 10, &Parallelism::sequential());
        assert!(
            check.eps_achieved <= 0.05 + 1e-12,
            "recheck eps = {}",
            check.eps_achieved
        );
    }

    #[test]
    fn candidate_set_size_hits_target() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = generators::erdos_renyi_gnm(200, 400, &mut rng);
        let params = test_params(5, 0.05);
        let out = generate_obfuscation(&g, &params, 0.1, &mut rng);
        for t in &out.trials {
            assert_eq!(
                t.kept_edges + t.added_pairs,
                (params.c * g.num_edges() as f64).round() as usize,
                "|E_C| must be c|E|"
            );
        }
    }

    #[test]
    fn probabilities_oriented_correctly() {
        // With small q and tiny sigma, kept edges get p ≈ 1 and added pairs
        // get p ≈ 0.
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::erdos_renyi_gnm(100, 200, &mut rng);
        let mut params = test_params(2, 0.2);
        params.q = 0.0;
        let out = generate_obfuscation(&g, &params, 1e-6, &mut rng);
        // Inspect any trial graph — even failing trials are informative,
        // so re-run the pieces manually if no trial passed.
        if let Some(ug) = out.graph {
            for (u, v, p) in ug.candidate_pairs() {
                if g.has_edge(u, v) {
                    assert!(p > 0.99, "kept edge ({u},{v}) p={p}");
                } else {
                    assert!(p < 0.01, "added pair ({u},{v}) p={p}");
                }
            }
        }
    }

    #[test]
    fn excluded_vertices_receive_no_new_pairs() {
        // H vertices must not be endpoints of added pairs or removals.
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::barabasi_albert(150, 3, &mut rng);
        let mut params = test_params(5, 0.2);
        params.eps = 0.2;
        let sigma = 0.05;
        // Recompute H exactly as the algorithm does.
        let property = DegreeProperty;
        let per_vertex = property.values(&g);
        let scores = CommonnessScores::from_values(&per_vertex, &property, sigma);
        let uniq = scores.vertex_uniqueness(&per_vertex);
        let h_size = ((params.eps / 2.0) * g.num_vertices() as f64).ceil() as usize;
        let h: std::collections::HashSet<u32> = uniq.top_unique(h_size).into_iter().collect();

        let out = generate_obfuscation(&g, &params, sigma, &mut rng);
        if let Some(ug) = out.graph {
            for (u, v, _) in ug.candidate_pairs() {
                if !g.has_edge(u, v) {
                    assert!(
                        !h.contains(&u) && !h.contains(&v),
                        "added pair touches H: ({u},{v})"
                    );
                }
            }
            // Removed edges: E \ E_C must avoid H too.
            let in_ec: std::collections::HashSet<(u32, u32)> =
                ug.candidate_pairs().map(|(u, v, _)| (u, v)).collect();
            for (u, v) in g.edges() {
                if !in_ec.contains(&(u, v)) {
                    assert!(
                        !h.contains(&u) && !h.contains(&v),
                        "removed edge touches H: ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::erdos_renyi_gnm(120, 240, &mut rng);
        let params = test_params(5, 0.1);
        let a = obfuscate(&g, &params).unwrap();
        let b = obfuscate(&g, &params).unwrap();
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn harder_privacy_needs_more_noise() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::barabasi_albert(400, 3, &mut rng);
        let easy = obfuscate(&g, &test_params(5, 0.1)).unwrap();
        let hard = obfuscate(&g, &test_params(40, 0.1)).unwrap();
        assert!(
            hard.sigma >= easy.sigma,
            "easy={} hard={}",
            easy.sigma,
            hard.sigma
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::cycle(10);
        assert!(matches!(
            obfuscate(&g, &ObfuscationParams::new(0, 0.1)),
            Err(ObfuscationError::BadParameter(_))
        ));
        assert!(matches!(
            obfuscate(&g, &ObfuscationParams::new(100, 0.1)),
            Err(ObfuscationError::BadParameter(_))
        ));
        let mut p = ObfuscationParams::new(2, 0.1);
        p.c = 0.5;
        assert!(matches!(
            obfuscate(&g, &p),
            Err(ObfuscationError::BadParameter(_))
        ));
        let mut p = ObfuscationParams::new(2, 0.1);
        p.eps = 1.5;
        assert!(matches!(
            obfuscate(&g, &p),
            Err(ObfuscationError::BadParameter(_))
        ));
    }

    #[test]
    fn impossible_instance_reports_no_upper_bound() {
        // k close to n with eps = 0 on a tiny star: the hub can never hide.
        let g = generators::star(6);
        let mut params = test_params(6, 0.0);
        params.max_doublings = 3;
        params.t = 1;
        match obfuscate(&g, &params) {
            Err(ObfuscationError::NoUpperBound { .. }) => {}
            other => panic!("expected NoUpperBound, got {other:?}"),
        }
    }

    #[test]
    fn trial_stats_are_consistent() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = generators::erdos_renyi_gnm(100, 200, &mut rng);
        let params = test_params(3, 0.1);
        let out = generate_obfuscation(&g, &params, 0.05, &mut rng);
        assert_eq!(out.trials.len(), params.t);
        for t in &out.trials {
            assert!(t.kept_edges <= g.num_edges());
            assert_eq!(g.num_edges() - t.kept_edges, t.removed_edges);
        }
    }

    #[test]
    fn forced_h_vertices_are_untouched() {
        // Supplying part of H (paper Section 5.3) must keep those vertices
        // out of all noise injection, regardless of their uniqueness.
        let mut rng = SmallRng::seed_from_u64(10);
        let g = generators::erdos_renyi_gnm(150, 300, &mut rng);
        let forced = [3u32, 77, 141];
        let params = test_params(3, 0.2);
        let out = super::generate_obfuscation_with_excluded(&g, &params, 0.05, &forced, &mut rng);
        if let Some(ug) = out.graph {
            let in_ec: std::collections::HashSet<(u32, u32)> =
                ug.candidate_pairs().map(|(u, v, _)| (u, v)).collect();
            for (u, v, _) in ug.candidate_pairs() {
                if !g.has_edge(u, v) {
                    assert!(!forced.contains(&u) && !forced.contains(&v));
                }
            }
            for (u, v) in g.edges() {
                if !in_ec.contains(&(u, v)) {
                    assert!(!forced.contains(&u) && !forced.contains(&v));
                }
            }
        }
    }

    /// The exhaustive Definition 2 check — the full adversary table and
    /// every entropy column — as the oracle for the budgeted check of
    /// Algorithm 2's line 20. Asserts the same verdict, and the same ε̃
    /// by `to_bits` whenever the budgeted check reports one (always when
    /// it passes), and returns the oracle's check.
    fn assert_budgeted_matches_exhaustive(
        g: &Graph,
        ug: &UncertainGraph,
        k: usize,
        eps: f64,
        method: DegreeDistMethod,
    ) -> ObfuscationCheck {
        let profile = DegreeProfile::new(g);
        let par = Parallelism::sequential();
        let table = AdversaryTable::build_par(ug, method, &par);
        let want = ObfuscationCheck::run_with_profile(&profile, &table, k, &par);
        let mut adv = MemoizedAdversary::new(ug, method, profile.max_degree(), &par);
        let got = run_budgeted(&profile, &mut adv, k, eps, true, &par);
        assert_eq!(
            got.satisfies,
            want.satisfies(eps),
            "verdict k={k} eps={eps}"
        );
        if got.satisfies {
            assert!(
                got.eps_exact.is_some(),
                "a passing check carries its exact eps"
            );
        }
        if let Some(e) = got.eps_exact {
            assert_eq!(
                e.to_bits(),
                want.eps_achieved.to_bits(),
                "eps k={k} eps={eps}"
            );
        }
        assert!(got.failed_at_least <= want.failed_vertices);
        want
    }

    #[test]
    fn published_graphs_pass_the_exhaustive_oracle() {
        // Every published graph re-checks exhaustively to the ε̃ the
        // search reported, bit for bit.
        for (n, m, k, eps, seed) in [
            (150, 400, 5usize, 0.1, 11u64),
            (200, 380, 8, 0.05, 12),
            (90, 300, 3, 0.2, 13),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = generators::erdos_renyi_gnm(n, m, &mut rng);
            let params = test_params(k, eps);
            let res = obfuscate(&g, &params).unwrap();
            let want = assert_budgeted_matches_exhaustive(&g, &res.graph, k, eps, params.method);
            assert!(want.satisfies(eps));
            assert_eq!(res.eps_achieved.to_bits(), want.eps_achieved.to_bits());
        }
    }

    #[test]
    fn drawn_trials_pass_the_exhaustive_oracle() {
        // The graphs Algorithm 2 actually checks — drawn trials across
        // the σ range of a search, on seeded random graphs — give the
        // same verdict and ε̃ under the budgeted and exhaustive checks,
        // for tolerances on both sides of each trial's ε̃.
        let mut rng = SmallRng::seed_from_u64(21);
        let graphs = [
            generators::erdos_renyi_gnm(120, 300, &mut rng),
            generators::barabasi_albert(150, 3, &mut rng),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let ctx = SearchContext::new(g);
            for (si, sigma) in [1e-6, 1e-3, 0.05, 0.5, 4.0].into_iter().enumerate() {
                let params = test_params(5, 0.05);
                let sampler = TrialSampler::new(g, &ctx, &params, sigma, &[]);
                let mut rng = SmallRng::seed_from_u64((gi * 10 + si) as u64);
                let draw = sampler.draw(g, &ctx, &mut rng);
                let ug = UncertainGraph::new(g.num_vertices(), draw.candidates).unwrap();
                for k in [1, 2, 5, 12] {
                    for eps in [0.0, 0.01, 0.05, 0.2, 0.6] {
                        assert_budgeted_matches_exhaustive(g, &ug, k, eps, params.method);
                    }
                }
            }
        }
    }

    /// The candidate selection as it was before it tracked differences:
    /// clone E into a hash set, add/remove in place, collect and sort.
    /// Kept as the oracle for [`select_candidates`].
    fn select_candidates_by_clone(
        g: &Graph,
        target: usize,
        alias: &AliasTable,
        rng: &mut SmallRng,
    ) -> (Vec<VertexPair>, usize) {
        let mut ec: FxHashSet<VertexPair> = g.edge_pairs().collect();
        let mut removed = 0usize;
        let max_draws = 200usize
            .saturating_add(target.saturating_mul(50))
            .saturating_add(g.num_edges() * 50);
        let mut draws = 0usize;
        while ec.len() != target {
            draws += 1;
            if draws > max_draws {
                break;
            }
            let u = alias.sample(rng);
            let v = alias.sample(rng);
            if u == v {
                continue;
            }
            let pair = VertexPair::new(u, v);
            if g.has_edge(u, v) {
                if ec.remove(&pair) {
                    removed += 1;
                }
            } else {
                ec.insert(pair);
            }
        }
        let mut pairs: Vec<VertexPair> = ec.into_iter().collect();
        pairs.sort_unstable();
        (pairs, removed)
    }

    #[test]
    fn select_candidates_matches_the_clone_based_oracle() {
        let mut rng = SmallRng::seed_from_u64(31);
        let graphs = [
            generators::erdos_renyi_gnm(80, 200, &mut rng),
            generators::barabasi_albert(120, 4, &mut rng),
            // Dense: many draws hit edges, and the target is hard to reach.
            generators::erdos_renyi_gnm(30, 380, &mut rng),
        ];
        for g in &graphs {
            let base: Vec<VertexPair> = g.edge_pairs().collect();
            let n = g.num_vertices();
            let uniform = vec![1.0; n];
            // Skewed: a few heavy vertices, a long light tail, some zeros.
            let skewed: Vec<f64> = (0..n)
                .map(|v| match v % 7 {
                    0 => 50.0,
                    1 => 0.0,
                    _ => 1.0 / (1 + v) as f64,
                })
                .collect();
            for weights in [&uniform, &skewed] {
                let alias = AliasTable::new(weights);
                for c in [1.0, 1.5, 2.0, 3.0] {
                    let target = ((c * g.num_edges() as f64).round() as usize).max(g.num_edges());
                    for seed in 0..6u64 {
                        let mut a = SmallRng::seed_from_u64(seed);
                        let mut b = SmallRng::seed_from_u64(seed);
                        let (got, removed) = select_candidates(g, &base, target, &alias, &mut a);
                        let want = select_candidates_by_clone(g, target, &alias, &mut b);
                        let got_pairs: Vec<VertexPair> = got.iter().map(|&(p, _)| p).collect();
                        assert_eq!((got_pairs, removed), want, "c={c} seed={seed}");
                        for &(p, is_edge) in &got {
                            assert_eq!(is_edge, g.has_edge(p.lo(), p.hi()), "{p:?} c={c}");
                        }
                        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG consumption differs");
                    }
                }
            }
        }
    }

    /// The candidates of `ug` with probabilities as bit patterns.
    fn candidate_bits(ug: &UncertainGraph) -> Vec<(u32, u32, u64)> {
        ug.candidate_pairs()
            .map(|(u, v, p)| (u, v, p.to_bits()))
            .collect()
    }

    #[test]
    fn algorithm1_is_identical_at_every_thread_count() {
        // The draw/check pipeline must not leak the worker count into the
        // result or the counters, including with more threads than trials.
        let mut rng = SmallRng::seed_from_u64(41);
        let g = generators::barabasi_albert(160, 3, &mut rng);
        for t in [1usize, 2, 5] {
            let run = |threads: usize| {
                let mut params = test_params(6, 0.05).with_threads(threads).with_trials(t);
                params.delta = 1e-2;
                let (res, mut stats) = obfuscate_with_stats(&g, &params).unwrap();
                for c in &mut stats.candidates {
                    c.secs = 0.0;
                    c.phases = TrialPhaseSecs::default();
                }
                let bits = (res.sigma.to_bits(), res.eps_achieved.to_bits());
                let steps = (res.doublings, res.search_steps, res.generate_calls);
                (candidate_bits(&res.graph), bits, steps, stats)
            };
            let want = run(1);
            for threads in [2, 3, 4, 8] {
                assert_eq!(run(threads), want, "t={t} threads={threads}");
            }
        }
    }

    #[test]
    fn unsampleable_graph_is_identical_at_every_thread_count() {
        // Forcing every vertex into H leaves no sampleable vertex (no Q),
        // so E_C stays E in every trial.
        let mut rng = SmallRng::seed_from_u64(42);
        let g = generators::erdos_renyi_gnm(60, 150, &mut rng);
        let all: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let run = |threads: usize| {
            let params = test_params(2, 0.3).with_threads(threads).with_trials(3);
            let mut rng = SmallRng::seed_from_u64(9);
            let out = generate_obfuscation_with_excluded(&g, &params, 0.2, &all, &mut rng);
            for t in &out.trials {
                assert_eq!(
                    (t.kept_edges, t.added_pairs, t.removed_edges),
                    (g.num_edges(), 0, 0)
                );
            }
            let graph = out.graph.as_ref().map(candidate_bits);
            (
                graph,
                out.eps_achieved.to_bits(),
                out.trials,
                rng.gen::<u64>(),
            )
        };
        let want = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), want, "threads={threads}");
        }
    }

    #[test]
    fn sigma_search_stats_show_the_fast_path_working() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = generators::barabasi_albert(250, 3, &mut rng);
        let params = test_params(10, 0.05);
        let (result, stats) = obfuscate_with_stats(&g, &params).unwrap();
        assert_eq!(stats.candidates_tried(), result.generate_calls);
        assert_eq!(stats.num_vertices, g.num_vertices());
        // Every candidate ran t trials and built t lazy tables.
        for c in &stats.candidates {
            assert_eq!(c.trials, params.t as u32);
            assert_eq!(c.table_builds, params.t as u64);
            assert!(c.rows_requested >= c.dp_evaluations);
        }
        // The accepted/rejected split matches the search trajectory.
        let accepted = stats.candidates.iter().filter(|c| c.accepted).count();
        assert!(accepted >= 1, "at least the doubling success is accepted");
        // The fast path must beat the naive engine (vertices × tables):
        // aborted sweeps, support-skipped hubs and memo hits all shrink it.
        assert!(
            stats.dp_evaluations() < stats.naive_dp_evaluations(),
            "dp {} !< naive {}",
            stats.dp_evaluations(),
            stats.naive_dp_evaluations()
        );
        let (cols_eval, cols_total) = stats.columns();
        assert!(cols_eval <= cols_total);
        assert!(stats.total_secs() > 0.0);
        assert_eq!(
            stats.dp_cache_hits(),
            stats.rows_requested() - stats.dp_evaluations()
        );
    }

    #[test]
    fn binary_search_shrinks_sigma() {
        // The returned sigma must be no larger than the first successful
        // upper bound (sigma_init doubled `doublings` times).
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::erdos_renyi_gnm(200, 600, &mut rng);
        let params = test_params(5, 0.1);
        let res = obfuscate(&g, &params).unwrap();
        let upper = params.sigma_init * 2f64.powi(res.doublings as i32);
        assert!(res.sigma <= upper);
        assert!(res.search_steps > 0);
    }
}
