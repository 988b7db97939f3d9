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
//! # Lazy trials
//!
//! Every Algorithm 2 trial draws from its own RNG stream: trial `i` of the
//! `j`-th σ the search tries is seeded
//! [`stream_seed`]`(`[`stream_seed`]`(seed, j), i)`. A trial is therefore
//! a function of `(seed, j, i)` alone, and can be drawn by itself, on any
//! thread, in any order. The search's course depends only on whether
//! *some* trial of a σ passes, and only the published σ's trials can
//! reach the output. So a σ's verdict is taken in trial order, at the
//! first pass (a failing σ needs all `t`). When the search ends, the
//! published σ's remaining trials are drawn and checked, and its best
//! trial is chosen exactly as an eager search would (smallest ε̃, the
//! earliest trial on a tie). [`generate_obfuscation`] draws and checks
//! every trial, seeding trial `i` with [`stream_seed`]`(seed, i)` from its
//! caller's seed. The published graph, σ, ε̃ and step counts equal those
//! of drawing and checking every trial.
//!
//! # Parallelism
//!
//! One task draws a trial in full — candidate selection and the
//! perturbations, lines 6–19 — and checks it (line 20, the Definition 2
//! test), sequentially with the configured chunk size. A search runs its
//! tasks on one pool of `threads` workers, the caller among them (at one
//! thread the caller alone, and no thread is spawned). The workers share
//! a board of trial results keyed by (σ index, σ, trial index). After
//! each trial the worker that ran it advances the bisection with the
//! verdicts taken in trial order, and every idle worker takes the most
//! useful trial not yet started, in this order:
//!
//! 1. the first trial of the current σ not checked yet;
//! 2. while none of the current σ's trials has failed, trial 0 of the σ
//!    the search tries next if the current one passes;
//! 3. the current σ's later trials;
//! 4. once all of them are started, trial 0 of the σ the search tries
//!    next if the current one fails.
//!
//! When the bisection ends, the workers check the published σ's
//! remaining trials. A trial on a branch the search does not take is
//! dropped. A trial is a function of its key alone, and every
//! [`SigmaSearchStats`] counter sums trials defined by trial order (see
//! [`SigmaCandidateStats::checked`]), so the published graph and the
//! counters are identical at every thread count; only the timings and
//! [`SigmaSearchStats::drawn`] vary.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use obf_graph::{stream_seed, AliasTable, Graph, Parallelism, VertexPair};
use obf_stats::TruncatedNormal;
use obf_uncertain::UncertainGraph;

use crate::adversary::DegreeProfile;
use crate::commonness::UniquenessScores;
use crate::fastpath::{run_budgeted, BudgetedCheck, MemoizedAdversary};

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
    /// Worker threads and chunk size of the search. A pool of `threads`
    /// workers draws and checks trials concurrently, speculating along
    /// the bisection; each check runs sequentially with this chunk size.
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

    fn validate(&self, g: &Graph) -> Result<(), ObfuscationError> {
        let (n, m) = (g.num_vertices(), g.num_edges());
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
        // Written so that NaN fails every range check.
        if !(self.c >= 1.0 && self.c.is_finite()) {
            return Err(ObfuscationError::BadParameter(
                "c must be finite and >= 1".into(),
            ));
        }
        // |E_C| = c·|E| vertex pairs must exist.
        let pairs = n as f64 * n.saturating_sub(1) as f64 / 2.0;
        if (self.c * m as f64).round() > pairs.max(m as f64) {
            return Err(ObfuscationError::BadParameter(format!(
                "c * |E| exceeds the {pairs} vertex pairs"
            )));
        }
        if !(0.0..=1.0).contains(&self.q) {
            return Err(ObfuscationError::BadParameter("q must be in [0,1]".into()));
        }
        if self.t == 0 {
            return Err(ObfuscationError::BadParameter("t must be >= 1".into()));
        }
        if !(self.delta > 0.0 && self.delta.is_finite()) {
            return Err(ObfuscationError::BadParameter(
                "delta must be finite and positive".into(),
            ));
        }
        // The doubling phase may reach σ_u = sigma_init · 2^max_doublings,
        // and the bisection adds two σ below it.
        let sigma_max = self.sigma_init * 2f64.powf(f64::from(self.max_doublings));
        if !(self.sigma_init > 0.0 && (2.0 * sigma_max).is_finite()) {
            return Err(ObfuscationError::BadParameter(format!(
                "sigma_init must be positive and sigma_init * 2^(max_doublings + 1) finite \
                 (max_doublings = {})",
                self.max_doublings
            )));
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
    /// Wall-clock seconds from the previous σ's verdict (or the search's
    /// start) to this σ's verdict; for the published σ, plus the time
    /// from the bisection's end to its last trial checked. Trials drawn
    /// ahead on other workers shorten it, and the candidates' `secs` add
    /// up to the search's wall time.
    pub secs: f64,
    /// Algorithm 2 trials of the σ (`= params.t`), drawn or not.
    pub trials: u32,
    /// Trials drawn and checked, one adversary table each: in trial
    /// order up to the first pass (all `t` when none passes), plus the
    /// remaining trials of the published σ. Every counter below sums over
    /// exactly these trials.
    pub checked: u32,
    /// Lemma 1 row evaluations actually run.
    pub dp_evaluations: u64,
    /// Vertex rows the entropy sweeps needed (each vertex at most once
    /// per table); the gap to `dp_evaluations` is served by the
    /// identical-row memo cache, and the gap to `vertices × checked`
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
}

/// Wall-clock seconds spent in the four phases of Algorithm 2 trials,
/// summed over every trial drawn ([`SigmaSearchStats::drawn`]), including
/// trials the counters do not count and trials of σ the search never
/// took. All four phases of a trial run on the worker that runs the
/// trial, so with more than one thread the sum can exceed the elapsed
/// time.
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
/// defined by trial order (see [`SigmaCandidateStats::checked`]), hence
/// deterministic for a fixed seed and independent of the thread count;
/// only `secs`, `drawn` and `phases` vary between runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SigmaSearchStats {
    /// Vertices of the input graph (the per-table baseline for
    /// [`SigmaSearchStats::naive_dp_evaluations`]).
    pub num_vertices: usize,
    /// One entry per `GenerateObfuscation` invocation, in search order.
    pub candidates: Vec<SigmaCandidateStats>,
    /// Every trial drawn and checked, including the ones drawn ahead of a
    /// verdict that no counter counts: at least
    /// [`SigmaSearchStats::checked`], and equal to it at one thread.
    /// `checked / drawn` is the share of the search's work that decided
    /// its course or its output.
    pub drawn: u64,
    /// Wall-clock seconds of each trial phase, summed over the `drawn`
    /// trials.
    pub phases: TrialPhaseSecs,
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
    /// vertex, for every adversary table built (one per checked trial).
    pub fn naive_dp_evaluations(&self) -> u64 {
        self.num_vertices as u64 * self.checked()
    }

    /// Trials across candidates (`t` per candidate), drawn or not.
    pub fn trials(&self) -> u64 {
        self.candidates.iter().map(|c| u64::from(c.trials)).sum()
    }

    /// Trials drawn and checked across candidates (see
    /// [`SigmaCandidateStats::checked`]).
    pub fn checked(&self) -> u64 {
        self.candidates.iter().map(|c| u64::from(c.checked)).sum()
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
/// path): the original graph's degree profile, which serves both the
/// σ-uniqueness of line 1 (only the kernel θ = σ changes per candidate)
/// and the Definition 2 check, and the sorted original edge list that
/// seeds every trial's candidate selection.
struct SearchContext {
    profile: DegreeProfile,
    keys: PairKeys,
    /// `E` as sorted pair keys.
    base: Vec<u64>,
}

impl SearchContext {
    fn new(g: &Graph) -> Self {
        let profile = DegreeProfile::new(g);
        let keys = PairKeys::new(g.num_vertices());
        // Sorted adjacency lists yield the edges in `VertexPair` order,
        // which is key order.
        let base: Vec<u64> = g.edge_pairs().map(|p| keys.key(p)).collect();
        debug_assert!(base.is_sorted());
        Self {
            profile,
            keys,
            base,
        }
    }
}

/// Algorithm 2: attempts to produce a (k, ε)-obfuscation of `g` at global
/// uncertainty `σ`, using `t` randomized trials. Trial `i` draws from its
/// own RNG stream, seeded [`stream_seed`]`(seed, i)`.
pub fn generate_obfuscation(
    g: &Graph,
    params: &ObfuscationParams,
    sigma: f64,
    seed: u64,
) -> GenerateOutcome {
    let ctx = SearchContext::new(g);
    let sampler = TrialSampler::new(g, &ctx, params, sigma, seed);
    let trials = Parallelism::new(params.parallelism.threads())
        .with_chunk_size(1)
        .map_collect(params.t, |i| check_trial(&ctx, params, &sampler, i));
    best_trial(trials)
}

/// Algorithm 2 line 21 over a σ's checked trials, in trial order: the
/// best trial meeting ε (the smallest ε̃, the earliest on a tie).
fn best_trial(trials: Vec<CheckedTrial>) -> GenerateOutcome {
    let mut best: Option<(f64, UncertainGraph)> = None;
    let mut stats = Vec::with_capacity(trials.len());
    for trial in trials {
        stats.push(trial.stats);
        let eps_trial = trial.stats.eps_achieved;
        if let Some(ug) = trial.graph {
            if best.as_ref().is_none_or(|(e, _)| eps_trial < *e) {
                best = Some((eps_trial, ug));
            }
        }
    }
    let (eps_achieved, graph) = match best {
        Some((eps, graph)) => (eps, Some(graph)),
        None => (f64::INFINITY, None),
    };
    GenerateOutcome {
        graph,
        eps_achieved,
        trials: stats,
    }
}

impl SigmaCandidateStats {
    /// Adds one checked trial's counters (its phases count towards
    /// [`SigmaSearchStats::phases`] when it is drawn).
    fn count(&mut self, trial: &CheckedTrial) {
        self.checked += 1;
        self.dp_evaluations += trial.dp_evaluations;
        self.rows_requested += trial.rows_requested;
        self.columns_total += trial.verdict.columns_total as u64;
        self.columns_evaluated += trial.verdict.columns_evaluated as u64;
        self.support_skipped_columns += trial.verdict.support_only_failures as u64;
        self.early_exit_trials += u64::from(trial.verdict.early_exit);
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
    /// Trial `i` draws from [`stream_seed`]`(stream, i)`.
    stream: u64,
}

impl TrialSampler {
    fn new(
        g: &Graph,
        ctx: &SearchContext,
        params: &ObfuscationParams,
        sigma: f64,
        stream: u64,
    ) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();

        // Line 1: σ-uniqueness of every vertex (θ = σ, Section 5.2). Only
        // the kernel pass depends on σ; the degree profile comes from
        // `ctx`.
        let uniq = UniquenessScores::new(&ctx.profile, sigma.max(1e-300));

        // Line 2: H = the ⌈ε/2·n⌉ most unique vertices, excluded from
        // noise.
        let h_size = ((params.eps / 2.0) * n as f64).ceil() as usize;
        let h_set = uniq.top_unique(h_size.min(n));

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
            stream,
        }
    }

    /// Algorithm 2 lines 6–19 for trial `index`, from its own RNG stream:
    /// the candidate selection, then the perturbed candidate
    /// probabilities.
    fn draw(&self, ctx: &SearchContext, index: usize) -> TrialDraw {
        let mut rng = SmallRng::seed_from_u64(stream_seed(self.stream, index as u64));
        // Phase spans feed only TrialPhaseSecs — wall-clock stats
        // excluded from every digest and equivalence check.
        let span = obf_obs::Span::start();
        // Lines 6–12: select E_C starting from E. A degenerate graph (no
        // sampleable vertices) keeps E_C = E.
        let (ec, removed_edges) = match &self.alias {
            Some(alias) => select_candidates(&ctx.base, ctx.keys, self.target_ec, alias, &mut rng),
            None => (ctx.base.iter().map(|&e| (e, true)).collect(), 0),
        };
        let select = span.finish_secs();
        // Lines 13–19: perturb every candidate probability.
        let span = obf_obs::Span::start();
        let pair_sigmas = self.pair_sigmas(&ec, ctx.keys);
        let candidates = ec
            .iter()
            .zip(&pair_sigmas)
            .map(|(&(key, is_edge), &sigma_e)| {
                let r_e = if rng.gen::<f64>() < self.q {
                    rng.gen::<f64>()
                } else {
                    TruncatedNormal::new(sigma_e).sample(&mut rng)
                };
                let (lo, hi) = ctx.keys.ends(key);
                (lo, hi, if is_edge { 1.0 - r_e } else { r_e })
            })
            .collect();
        let kept_edges = ec.iter().filter(|&&(_, is_edge)| is_edge).count();
        TrialDraw {
            candidates,
            kept_edges,
            added_pairs: ec.len() - kept_edges,
            removed_edges,
            phases: TrialPhaseSecs {
                select,
                perturb: span.finish_secs(),
                ..TrialPhaseSecs::default()
            },
        }
    }

    /// Line 14: per-pair σ(e) (Eq. 7), proportional to pair uniqueness.
    fn pair_sigmas(&self, ec: &[(u64, bool)], keys: PairKeys) -> Vec<f64> {
        let uniq = &self.uniq;
        let pair_uniqueness: Vec<f64> = ec
            .iter()
            .map(|&(key, _)| {
                let (lo, hi) = keys.ends(key);
                (uniq.of(lo) + uniq.of(hi)) / 2.0
            })
            .collect();
        let uniq_total: f64 = pair_uniqueness.iter().sum();
        let sigma = self.sigma;
        pair_uniqueness
            .into_iter()
            .map(|u_e| {
                if uniq_total > 0.0 {
                    (sigma * ec.len() as f64 * u_e / uniq_total).max(1e-12)
                } else {
                    sigma.max(1e-12)
                }
            })
            .collect()
    }
}

/// One drawn Algorithm 2 trial (lines 6–19): the perturbed candidate set
/// and its composition.
struct TrialDraw {
    /// `E_C` with perturbed probabilities, in pair order.
    candidates: Vec<(u32, u32, f64)>,
    kept_edges: usize,
    added_pairs: usize,
    removed_edges: usize,
    /// The draw's own phases; the check adds the rest.
    phases: TrialPhaseSecs,
}

/// One Algorithm 2 trial drawn and checked (lines 6–20): the Definition 2
/// verdict and the check's counters.
struct CheckedTrial {
    stats: TrialStats,
    /// The trial's uncertain graph, kept only when it met ε.
    graph: Option<UncertainGraph>,
    verdict: BudgetedCheck,
    dp_evaluations: u64,
    rows_requested: u64,
    phases: TrialPhaseSecs,
}

/// Algorithm 2 lines 6–20 for trial `index` of `sampler`'s σ: the draw,
/// then ε' = fraction of vertices not k-obfuscated, by the budgeted check
/// of [`crate::fastpath`] (memoized identical rows, DP support truncated
/// at max_deg(G), and a sweep that stops once the ε budget is decided),
/// run sequentially with the configured chunk size.
fn check_trial(
    ctx: &SearchContext,
    params: &ObfuscationParams,
    sampler: &TrialSampler,
    index: usize,
) -> CheckedTrial {
    let draw = sampler.draw(ctx, index);
    let par = Parallelism::sequential().with_chunk_size(params.parallelism.chunk_size());
    let n = ctx.profile.num_vertices();
    let span = obf_obs::Span::start();
    let ug = UncertainGraph::new(n, draw.candidates).expect("valid candidate set");
    let mut adv = MemoizedAdversary::new(&ug, ctx.profile.max_degree(), &par);
    let build = span.finish_secs();
    let span = obf_obs::Span::start();
    let verdict = run_budgeted(&ctx.profile, &mut adv, params.k, params.eps, true, &par);
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
/// target`. `base` is `E` as sorted keys. Returns the keys of `E_C` in
/// sorted order, each flagged with whether it is an edge of `E`, and the
/// number of removed original edges.
///
/// One draw changes `|E_C|` by at most +1, so the next `target − |E_C|`
/// draws can reach the target only on their last draw: drawing them as
/// one batch reads the RNG exactly as drawing one pair at a time and
/// stopping at the target. Each batch is radix-sorted, deduplicated and
/// classified by a merge against the sorted `E` and the sorted
/// differences so far.
fn select_candidates(
    base: &[u64],
    keys: PairKeys,
    target: usize,
    alias: &AliasTable,
    rng: &mut SmallRng,
) -> (Vec<(u64, bool)>, usize) {
    // E_C = (E \ removed) ∪ added, tracked as the two sorted differences
    // so a trial never copies E.
    let mut removed: Vec<u64> = Vec::new();
    let mut added: Vec<u64> = Vec::with_capacity(target.saturating_sub(base.len()));
    // Safety valve: the expected number of draws is ~(target - |E|) plus a
    // small correction for collisions; a generous multiple covers skewed
    // Q. Past it (e.g. a dense graph with few non-edges among sampleable
    // vertices) the trial proceeds with what it has — its ε̃ test still
    // gates correctness.
    let max_draws = 200usize
        .saturating_add(target.saturating_mul(50))
        .saturating_add(base.len() * 50);
    let mut draws = 0usize;
    let (mut batch, mut scratch) = (Vec::new(), Vec::new());
    loop {
        let deficit = target - (base.len() - removed.len() + added.len());
        let size = deficit.min(max_draws - draws);
        if size == 0 {
            break;
        }
        draws += size;
        batch.clear();
        for _ in 0..size {
            let u = alias.sample(rng);
            let v = alias.sample(rng);
            if u != v {
                batch.push(keys.key(VertexPair::new(u, v)));
            }
        }
        keys.sort(&mut batch, &mut scratch);
        batch.dedup();
        let (old_removed, old_added) = (removed.len(), added.len());
        let (mut in_base, mut in_removed, mut in_added) = (0, 0, 0);
        for &key in &batch {
            if seek(base, &mut in_base, key) {
                if !seek(&removed[..old_removed], &mut in_removed, key) {
                    removed.push(key);
                }
            } else if !seek(&added[..old_added], &mut in_added, key) {
                added.push(key);
            }
        }
        merge_runs(&mut removed, old_removed, &mut scratch);
        merge_runs(&mut added, old_added, &mut scratch);
    }
    // Merge the kept base edges with the added non-edges (disjoint sets);
    // the merge knows which side each pair came from.
    let mut pairs = Vec::with_capacity(base.len() - removed.len() + added.len());
    let mut removed_iter = removed.iter().peekable();
    let mut added_iter = added.iter().peekable();
    for &kept in base {
        if removed_iter.next_if(|&&r| r == kept).is_some() {
            continue;
        }
        while let Some(&a) = added_iter.next_if(|&&a| a < kept) {
            pairs.push((a, false));
        }
        pairs.push((kept, true));
    }
    pairs.extend(added_iter.map(|&a| (a, false)));
    (pairs, removed.len())
}

/// Merges the sorted runs `v[..mid]` and `v[mid..]` in place, from the
/// back, staging the second run in `buf`.
fn merge_runs(v: &mut [u64], mid: usize, buf: &mut Vec<u64>) {
    if mid == 0 {
        return;
    }
    buf.clear();
    buf.extend_from_slice(&v[mid..]);
    let (mut i, mut j) = (mid, buf.len());
    while j > 0 {
        let k = i + j - 1;
        if i > 0 && v[i - 1] > buf[j - 1] {
            v[k] = v[i - 1];
            i -= 1;
        } else {
            v[k] = buf[j - 1];
            j -= 1;
        }
    }
}

/// Moves `*at` forward to the first element of `sorted` not below `key`
/// and reports whether that element is `key`. It gallops from `*at`, so
/// an ascending run of `k` probes costs `O(k log(len / k))` in total.
fn seek(sorted: &[u64], at: &mut usize, key: u64) -> bool {
    let rest = &sorted[*at..];
    let mut bound = 1;
    while bound < rest.len() && rest[bound] < key {
        bound *= 2;
    }
    *at += rest[..(bound + 1).min(rest.len())].partition_point(|&e| e < key);
    sorted.get(*at) == Some(&key)
}

/// Vertex pairs of a graph packed as integers `lo << bits | hi`, with
/// `bits` just wide enough for its vertex ids: key order is
/// [`VertexPair`] order, and keys span only `2·bits` bits, which bounds
/// the passes of [`PairKeys::sort`].
#[derive(Debug, Clone, Copy)]
struct PairKeys {
    bits: u32,
}

impl PairKeys {
    /// Radix digit width: 2¹¹ counters stay in L1.
    const DIGIT_BITS: u32 = 11;

    fn new(num_vertices: usize) -> Self {
        let max_id = num_vertices.saturating_sub(1) as u64;
        Self {
            bits: u64::BITS - max_id.leading_zeros(),
        }
    }

    fn key(self, pair: VertexPair) -> u64 {
        (u64::from(pair.lo()) << self.bits) | u64::from(pair.hi())
    }

    /// The `(lo, hi)` ends of a key.
    fn ends(self, key: u64) -> (u32, u32) {
        let mask = (1u64 << self.bits) - 1;
        ((key >> self.bits) as u32, (key & mask) as u32)
    }

    /// Sorts `keys` ascending with an LSD radix sort over their `2·bits`
    /// significant bits, in digits of at most [`PairKeys::DIGIT_BITS`].
    fn sort(self, keys: &mut Vec<u64>, scratch: &mut Vec<u64>) {
        let width = 2 * self.bits;
        let passes = width.div_ceil(Self::DIGIT_BITS).max(1);
        let digit = width.div_ceil(passes);
        let mask = (1u64 << digit) - 1;
        let mut counts = vec![0usize; 1 << digit];
        scratch.resize(keys.len(), 0);
        for pass in 0..passes {
            let shift = pass * digit;
            counts.fill(0);
            for &k in keys.iter() {
                counts[((k >> shift) & mask) as usize] += 1;
            }
            let mut offset = 0;
            for c in &mut counts {
                (*c, offset) = (offset, offset + *c);
            }
            for &k in keys.iter() {
                let slot = &mut counts[((k >> shift) & mask) as usize];
                scratch[*slot] = k;
                *slot += 1;
            }
            std::mem::swap(keys, scratch);
        }
    }
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
    params.validate(g)?;
    let ctx = SearchContext::new(g);
    search(g, &ctx, params, |sampler, i| {
        check_trial(&ctx, params, sampler, i)
    })
}

/// Where Algorithm 1 stands before a verdict: its phase, its bounds and
/// its doublings so far. The σ it tries is a function of them.
#[derive(Debug, Clone, Copy)]
struct Course {
    phase: SearchPhase,
    sigma_l: f64,
    sigma_u: f64,
    doublings: u32,
}

impl Course {
    /// Line 1: `σ_u = σ_init`, doubling.
    fn start(params: &ObfuscationParams) -> Self {
        Self {
            phase: SearchPhase::Doubling,
            sigma_l: 0.0,
            sigma_u: params.sigma_init,
            doublings: 0,
        }
    }

    /// The σ tried: `σ_u` while doubling, the midpoint while bisecting.
    fn sigma(&self) -> f64 {
        match self.phase {
            SearchPhase::Doubling => self.sigma_u,
            SearchPhase::BinarySearch => 0.5 * (self.sigma_l + self.sigma_u),
        }
    }

    /// The course after this σ's verdict, or `None` when the search ends:
    /// a failure at the last doubling (no upper bound), or a bisection
    /// narrowed to `δ`.
    fn after(self, passed: bool, params: &ObfuscationParams) -> Option<Self> {
        let mut next = self;
        match (self.phase, passed) {
            (SearchPhase::Doubling, true) => next.phase = SearchPhase::BinarySearch,
            (SearchPhase::Doubling, false) => {
                if self.doublings >= params.max_doublings {
                    return None;
                }
                next.sigma_u *= 2.0;
                next.doublings += 1;
                return Some(next);
            }
            (SearchPhase::BinarySearch, true) => next.sigma_u = self.sigma(),
            (SearchPhase::BinarySearch, false) => next.sigma_l = self.sigma(),
        }
        (next.sigma_l + params.delta < next.sigma_u).then_some(next)
    }
}

/// A σ on the search board: the `j`-th σ of a course, the sampler its
/// first trial to run builds, and its trials.
struct SigmaNode {
    j: usize,
    course: Course,
    sigma: f64,
    sampler: Arc<OnceLock<TrialSampler>>,
    started: Vec<bool>,
    done: Vec<Option<CheckedTrial>>,
}

impl SigmaNode {
    fn new(j: usize, course: Course, t: usize) -> Self {
        Self {
            j,
            course,
            sigma: course.sigma(),
            sampler: Arc::default(),
            started: vec![false; t],
            done: std::iter::repeat_with(|| None).take(t).collect(),
        }
    }

    fn is(&self, task: &Task) -> bool {
        self.j == task.j && self.sigma.to_bits() == task.sigma.to_bits()
    }

    /// The verdict in trial order: `Some(Some(i))` at the first pass `i`,
    /// `Some(None)` when every trial failed, `None` while undecided.
    fn verdict(&self) -> Option<Option<usize>> {
        for (i, trial) in self.done.iter().enumerate() {
            match trial {
                None => return None,
                Some(trial) if trial.graph.is_some() => return Some(Some(i)),
                Some(_) => {}
            }
        }
        Some(None)
    }

    /// Starts trial `i` if it is not started yet.
    fn start(&mut self, i: usize) -> Option<Task> {
        if self.started[i] {
            return None;
        }
        self.started[i] = true;
        Some(Task {
            j: self.j,
            sigma: self.sigma,
            i,
            sampler: Arc::clone(&self.sampler),
        })
    }

    /// Starts the first trial not started yet.
    fn start_next(&mut self) -> Option<Task> {
        let i = self.started.iter().position(|&s| !s)?;
        self.start(i)
    }
}

/// One trial for a worker: trial `i` of the `j`-th σ of a course.
struct Task {
    j: usize,
    sigma: f64,
    i: usize,
    sampler: Arc<OnceLock<TrialSampler>>,
}

/// The search board the workers share: the course, the σ it waits on and
/// its speculative successors, the published σ, and the stats.
struct Board {
    /// The σ whose verdict the bisection waits for; `None` once it ended.
    current: Option<SigmaNode>,
    /// Times `current` from the previous verdict.
    current_span: Option<obf_obs::Span>,
    /// The σ tried next if `current` passes, once a trial of it started.
    accept: Option<SigmaNode>,
    /// The σ tried next if `current` fails, once a trial of it started.
    reject: Option<SigmaNode>,
    /// The last σ that passed, and the trials its verdict counted.
    published: Option<(SigmaNode, usize)>,
    /// Times the published σ's remaining trials after the bisection.
    finish_span: Option<obf_obs::Span>,
    /// The smallest ε̃ of any failing σ's trials.
    best_eps_failed: f64,
    stats: SigmaSearchStats,
    /// The published σ and its best trial, or why there is none.
    outcome: Option<Result<(f64, GenerateOutcome), ObfuscationError>>,
    /// A worker panicked: the others stop.
    aborted: bool,
}

impl Board {
    fn new(num_vertices: usize, params: &ObfuscationParams) -> Self {
        Self {
            current: Some(SigmaNode::new(0, Course::start(params), params.t)),
            current_span: Some(obf_obs::Span::start()),
            accept: None,
            reject: None,
            published: None,
            finish_span: None,
            best_eps_failed: f64::INFINITY,
            stats: SigmaSearchStats {
                num_vertices,
                ..SigmaSearchStats::default()
            },
            outcome: None,
            aborted: false,
        }
    }

    /// The most useful trial not started yet (see the module docs), or
    /// `None` when every useful trial is started or the search is over.
    fn next_task(&mut self, params: &ObfuscationParams) -> Option<Task> {
        if self.outcome.is_some() || self.aborted {
            return None;
        }
        let Some(cur) = self.current.as_mut() else {
            return self.published.as_mut()?.0.start_next();
        };
        let t = params.t;
        // 1. The trial the verdict waits for.
        if let Some(i) = cur.done.iter().position(Option::is_none) {
            if let Some(task) = cur.start(i) {
                return Some(task);
            }
        }
        // 2. No failure yet: the σ's most likely verdict is a pass.
        if !cur.done.iter().flatten().any(|trial| trial.graph.is_none()) {
            if let Some(course) = cur.course.after(true, params) {
                let node = self
                    .accept
                    .get_or_insert_with(|| SigmaNode::new(cur.j + 1, course, t));
                if let Some(task) = node.start(0) {
                    return Some(task);
                }
            }
        }
        // 3. The σ's later trials.
        if let Some(task) = cur.start_next() {
            return Some(task);
        }
        // 4. All of them started: trial 0 of the σ after a failure.
        let course = cur.course.after(false, params)?;
        self.reject
            .get_or_insert_with(|| SigmaNode::new(cur.j + 1, course, t))
            .start(0)
    }

    /// Files a drawn trial and advances the search.
    fn record(&mut self, task: &Task, trial: CheckedTrial, params: &ObfuscationParams) {
        self.stats.drawn += 1;
        self.stats.phases += trial.phases;
        let node = [&mut self.current, &mut self.accept, &mut self.reject]
            .into_iter()
            .flatten()
            .chain(self.published.as_mut().map(|(node, _)| node))
            .find(|node| node.is(task));
        // A trial of a branch the search did not take is dropped.
        if let Some(node) = node {
            node.done[task.i] = Some(trial);
        }
        self.advance(params);
    }

    /// Takes every verdict the trials checked so far decide, then ends
    /// the search once the published σ's trials are all checked.
    fn advance(&mut self, params: &ObfuscationParams) {
        while let Some(first_pass) = self.current.as_ref().and_then(SigmaNode::verdict) {
            let node = self.current.take().expect("a verdict has a σ");
            let passed = first_pass.is_some();
            let decided = first_pass.map_or(params.t, |i| i + 1);
            let mut cand = SigmaCandidateStats {
                sigma: node.sigma,
                phase: node.course.phase,
                accepted: passed,
                trials: params.t as u32,
                secs: self
                    .current_span
                    .take()
                    .map_or(0.0, obf_obs::Span::finish_secs),
                ..SigmaCandidateStats::default()
            };
            for trial in node.done[..decided].iter().flatten() {
                cand.count(trial);
            }
            self.stats.candidates.push(cand);
            // The branch not taken is dropped.
            let (next, _) = if passed {
                (self.accept.take(), self.reject.take())
            } else {
                (self.reject.take(), self.accept.take())
            };
            let course = node.course;
            if passed {
                self.published = Some((node, decided));
            } else {
                let eps = node.done.iter().flatten().map(|t| t.stats.eps_achieved);
                self.best_eps_failed = eps.fold(self.best_eps_failed, f64::min);
            }
            match course.after(passed, params) {
                Some(course) => {
                    let next = next.unwrap_or_else(|| {
                        SigmaNode::new(self.stats.candidates.len(), course, params.t)
                    });
                    debug_assert_eq!(next.sigma.to_bits(), course.sigma().to_bits());
                    self.current = Some(next);
                    self.current_span = Some(obf_obs::Span::start());
                }
                None if self.published.is_none() => {
                    self.outcome = Some(Err(ObfuscationError::NoUpperBound {
                        last_sigma: course.sigma_u,
                        best_eps: self.best_eps_failed,
                    }));
                }
                None => {
                    self.finish_span = Some(obf_obs::Span::start());
                }
            }
        }
        if self.current.is_some() || self.outcome.is_some() {
            return;
        }
        let Some((node, _)) = &self.published else {
            return;
        };
        if node.done.iter().any(Option::is_none) {
            return;
        }
        let (node, decided) = self.published.take().expect("checked above");
        let trials: Vec<CheckedTrial> = node.done.into_iter().flatten().collect();
        let cand = &mut self.stats.candidates[node.j];
        for trial in &trials[decided..] {
            cand.count(trial);
        }
        cand.secs += self
            .finish_span
            .take()
            .map_or(0.0, obf_obs::Span::finish_secs);
        self.outcome = Some(Ok((node.sigma, best_trial(trials))));
    }
}

/// Runs Algorithm 1 on a pool of `params.parallelism.threads()` workers
/// (the caller and the threads it spawns) that share one [`Board`];
/// `run` draws and checks trial `i` of a σ's sampler. A panic in `run`
/// stops every worker and reaches the caller.
fn search<R>(
    g: &Graph,
    ctx: &SearchContext,
    params: &ObfuscationParams,
    run: R,
) -> Result<(ObfuscationResult, SigmaSearchStats), ObfuscationError>
where
    R: Fn(&TrialSampler, usize) -> CheckedTrial + Sync,
{
    let board = Mutex::new(Board::new(g.num_vertices(), params));
    let wake = Condvar::new();
    let work = || {
        let abort = AbortOnPanic(&board, &wake);
        let mut b = abort.lock();
        loop {
            if b.outcome.is_some() || b.aborted {
                return;
            }
            let Some(task) = b.next_task(params) else {
                b = wake.wait(b).unwrap_or_else(abort_poisoned);
                continue;
            };
            drop(b);
            let sampler = task.sampler.get_or_init(|| {
                let stream = stream_seed(params.seed, task.j as u64);
                TrialSampler::new(g, ctx, params, task.sigma, stream)
            });
            let trial = run(sampler, task.i);
            b = abort.lock();
            b.record(&task, trial, params);
            wake.notify_all();
        }
    };
    let threads = params.parallelism.threads();
    if threads <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(work);
            }
            work();
        });
    }
    let Board { outcome, stats, .. } = board
        .into_inner()
        .expect("a worker that panicked has panicked the search");
    let (sigma, out) = outcome.expect("the search ran to its end")?;
    let count = |phase| stats.candidates.iter().filter(|c| c.phase == phase).count() as u32;
    let result = ObfuscationResult {
        graph: out.graph.expect("the published sigma has a passing trial"),
        sigma,
        eps_achieved: out.eps_achieved,
        doublings: count(SearchPhase::Doubling) - 1,
        search_steps: count(SearchPhase::BinarySearch),
        generate_calls: stats.candidates_tried(),
    };
    Ok((result, stats))
}

/// A worker's hold on the board that, if the worker panics, marks the
/// search aborted and wakes the other workers, so they return instead of
/// waiting for a trial that will never be filed.
struct AbortOnPanic<'a>(&'a Mutex<Board>, &'a Condvar);

impl<'a> AbortOnPanic<'a> {
    fn lock(&self) -> MutexGuard<'a, Board> {
        self.0.lock().unwrap_or_else(abort_poisoned)
    }
}

/// The board of a worker that panicked while holding it, marked aborted:
/// its update may be half done, so no worker may act on it.
fn abort_poisoned(poisoned: PoisonError<MutexGuard<'_, Board>>) -> MutexGuard<'_, Board> {
    let mut board = poisoned.into_inner();
    board.aborted = true;
    board
}

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.lock().aborted = true;
            self.1.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryTable, ObfuscationCheck};
    use obf_graph::{generators, FxHashSet};
    use std::time::Duration;

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
        let check = ObfuscationCheck::run(&g, &res.graph, 10, &Parallelism::sequential());
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
        let out = generate_obfuscation(&g, &params, 0.1, rng.gen());
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
        let out = generate_obfuscation(&g, &params, 1e-6, rng.gen());
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
        let uniq = UniquenessScores::new(&DegreeProfile::new(&g), sigma);
        let h_size = ((params.eps / 2.0) * g.num_vertices() as f64).ceil() as usize;
        let h: std::collections::HashSet<u32> = uniq.top_unique(h_size).into_iter().collect();

        let out = generate_obfuscation(&g, &params, sigma, rng.gen());
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
        let out = generate_obfuscation(&g, &params, 0.05, rng.gen());
        assert_eq!(out.trials.len(), params.t);
        for t in &out.trials {
            assert!(t.kept_edges <= g.num_edges());
            assert_eq!(g.num_edges() - t.kept_edges, t.removed_edges);
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
    ) -> ObfuscationCheck {
        let profile = DegreeProfile::new(g);
        let par = Parallelism::sequential();
        let table = AdversaryTable::build_par(ug, &par);
        let want = ObfuscationCheck::from_entropies(
            &profile,
            table.entropies(profile.distinct(), &par),
            k,
        );
        let mut adv = MemoizedAdversary::new(ug, profile.max_degree(), &par);
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
            let want = assert_budgeted_matches_exhaustive(&g, &res.graph, k, eps);
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
                let stream = (gi * 10 + si) as u64;
                let sampler = TrialSampler::new(g, &ctx, &params, sigma, stream);
                let draw = sampler.draw(&ctx, 0);
                let ug = UncertainGraph::new(g.num_vertices(), draw.candidates).unwrap();
                for k in [1, 2, 5, 12] {
                    for eps in [0.0, 0.01, 0.05, 0.2, 0.6] {
                        assert_budgeted_matches_exhaustive(g, &ug, k, eps);
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
            let n = g.num_vertices();
            let keys = PairKeys::new(n);
            let base: Vec<u64> = g.edge_pairs().map(|p| keys.key(p)).collect();
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
                        let (got, removed) = select_candidates(&base, keys, target, &alias, &mut a);
                        let want = select_candidates_by_clone(g, target, &alias, &mut b);
                        let got_pairs: Vec<VertexPair> = got
                            .iter()
                            .map(|&(key, _)| {
                                let (lo, hi) = keys.ends(key);
                                VertexPair::new(lo, hi)
                            })
                            .collect();
                        for (&(_, is_edge), p) in got.iter().zip(&got_pairs) {
                            assert_eq!(is_edge, g.has_edge(p.lo(), p.hi()), "{p:?} c={c}");
                        }
                        assert_eq!((got_pairs, removed), want, "c={c} seed={seed}");
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

    /// `stats` without what varies between runs: the timings and the
    /// trials drawn ahead of a verdict.
    fn counters(mut stats: SigmaSearchStats) -> SigmaSearchStats {
        for c in &mut stats.candidates {
            c.secs = 0.0;
        }
        stats.drawn = 0;
        stats.phases = TrialPhaseSecs::default();
        stats
    }

    #[test]
    fn algorithm1_is_identical_at_every_thread_count() {
        // The parallel trial search must not leak the thread count into
        // the result or the counters, including with more threads than
        // trials.
        let mut rng = SmallRng::seed_from_u64(41);
        let g = generators::barabasi_albert(160, 3, &mut rng);
        for t in [1usize, 2, 5] {
            let run = |threads: usize| {
                let mut params = test_params(6, 0.05).with_threads(threads).with_trials(t);
                params.delta = 1e-2;
                let (res, stats) = obfuscate_with_stats(&g, &params).unwrap();
                let bits = (res.sigma.to_bits(), res.eps_achieved.to_bits());
                let steps = (res.doublings, res.search_steps, res.generate_calls);
                (candidate_bits(&res.graph), bits, steps, counters(stats))
            };
            let want = run(1);
            for threads in [2, 3, 4, 8] {
                assert_eq!(run(threads), want, "t={t} threads={threads}");
            }
        }
    }

    /// Algorithm 1 as it ran before its trials became lazy: every trial
    /// of every σ drawn in full, one after another on one thread, and
    /// checked. Trial `i` of the `j`-th σ draws from
    /// `stream_seed(stream_seed(seed, j), i)`, as in the search. The
    /// oracle for [`obfuscate_with_stats`], counters included: a σ counts
    /// its trials up to its first pass, the published σ all of them.
    fn obfuscate_eager(
        g: &Graph,
        params: &ObfuscationParams,
    ) -> Result<(ObfuscationResult, SigmaSearchStats), ObfuscationError> {
        params.validate(g)?;
        let ctx = SearchContext::new(g);
        let par = Parallelism::sequential().with_chunk_size(params.parallelism.chunk_size());
        let n = g.num_vertices().max(1) as f64;
        let mut stats = SigmaSearchStats {
            num_vertices: g.num_vertices(),
            ..SigmaSearchStats::default()
        };
        // Algorithm 2 for the next σ tried: every trial, and the first
        // that passes; the σ's counters go into `stats`.
        let generate = |sigma: f64, phase: SearchPhase, stats: &mut SigmaSearchStats| {
            let stream = stream_seed(params.seed, stats.candidates.len() as u64);
            let sampler = TrialSampler::new(g, &ctx, params, sigma, stream);
            let mut trials = Vec::new();
            for i in 0..params.t {
                let mut rng = SmallRng::seed_from_u64(stream_seed(stream, i as u64));
                let (ec, removed_edges) = match &sampler.alias {
                    Some(alias) => {
                        select_candidates(&ctx.base, ctx.keys, sampler.target_ec, alias, &mut rng)
                    }
                    None => (ctx.base.iter().map(|&e| (e, true)).collect(), 0),
                };
                let sigmas = sampler.pair_sigmas(&ec, ctx.keys);
                let candidates = ec
                    .iter()
                    .zip(&sigmas)
                    .map(|(&(key, is_edge), &sigma_e)| {
                        let r_e = if rng.gen::<f64>() < params.q {
                            rng.gen::<f64>()
                        } else {
                            TruncatedNormal::new(sigma_e).sample(&mut rng)
                        };
                        let (lo, hi) = ctx.keys.ends(key);
                        (lo, hi, if is_edge { 1.0 - r_e } else { r_e })
                    })
                    .collect();
                let ug = UncertainGraph::new(g.num_vertices(), candidates).unwrap();
                let mut adv = MemoizedAdversary::new(&ug, ctx.profile.max_degree(), &par);
                let v = run_budgeted(&ctx.profile, &mut adv, params.k, params.eps, true, &par);
                let kept_edges = ec.iter().filter(|&&(_, is_edge)| is_edge).count();
                let (dp_evaluations, rows_requested) = (adv.dp_evaluations(), adv.rows_requested());
                trials.push(CheckedTrial {
                    stats: TrialStats {
                        eps_achieved: v.eps_exact.unwrap_or(v.failed_at_least as f64 / n),
                        kept_edges,
                        added_pairs: ec.len() - kept_edges,
                        removed_edges,
                    },
                    graph: v.satisfies.then_some(ug),
                    dp_evaluations,
                    rows_requested,
                    verdict: v,
                    phases: TrialPhaseSecs::default(),
                });
            }
            let first_pass = trials.iter().position(|trial| trial.graph.is_some());
            let mut cand = SigmaCandidateStats {
                sigma,
                phase,
                accepted: first_pass.is_some(),
                trials: params.t as u32,
                ..SigmaCandidateStats::default()
            };
            for trial in &trials[..first_pass.map_or(params.t, |i| i + 1)] {
                cand.count(trial);
            }
            stats.candidates.push(cand);
            (trials, first_pass)
        };
        let mut sigma_u = params.sigma_init;
        let mut doublings = 0u32;
        let mut best_eps_seen = f64::INFINITY;
        let mut published = loop {
            let (trials, first_pass) = generate(sigma_u, SearchPhase::Doubling, &mut stats);
            if let Some(first_pass) = first_pass {
                break (sigma_u, stats.candidates.len() - 1, trials, first_pass);
            }
            for trial in &trials {
                best_eps_seen = best_eps_seen.min(trial.stats.eps_achieved);
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
        let (mut sigma_l, mut search_steps) = (0.0f64, 0u32);
        while sigma_l + params.delta < sigma_u {
            let sigma = 0.5 * (sigma_l + sigma_u);
            let (trials, first_pass) = generate(sigma, SearchPhase::BinarySearch, &mut stats);
            search_steps += 1;
            match first_pass {
                Some(first_pass) => {
                    published = (sigma, stats.candidates.len() - 1, trials, first_pass);
                    sigma_u = sigma;
                }
                None => sigma_l = sigma,
            }
        }
        // Line 21 on the published σ: the smallest ε̃, the earliest on a
        // tie; its trials after the first pass count too.
        let (sigma, index, trials, first_pass) = published;
        let mut best: Option<(f64, UncertainGraph)> = None;
        for (i, trial) in trials.into_iter().enumerate() {
            if i > first_pass {
                stats.candidates[index].count(&trial);
            }
            let eps = trial.stats.eps_achieved;
            if let Some(ug) = trial.graph {
                if best.as_ref().is_none_or(|(e, _)| eps < *e) {
                    best = Some((eps, ug));
                }
            }
        }
        let (eps_achieved, graph) = best.expect("the published sigma has a passing trial");
        let result = ObfuscationResult {
            graph,
            sigma,
            eps_achieved,
            doublings,
            search_steps,
            generate_calls: stats.candidates_tried(),
        };
        Ok((result, stats))
    }

    /// A Chung-Lu graph like the CLI's benchmark inputs: vertex `i` has
    /// expected degree proportional to `(i + 10)^(−2/3)`.
    fn chung_lu(n: usize, m: usize, rng: &mut SmallRng) -> Graph {
        let weights: Vec<f64> = (0..n).map(|i| ((i + 10) as f64).powf(-2.0 / 3.0)).collect();
        let alias = AliasTable::new(&weights);
        let mut edges = std::collections::BTreeSet::new();
        while edges.len() < m {
            let (u, v) = (alias.sample(rng), alias.sample(rng));
            if u != v {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        Graph::from_edges(n, &edges.into_iter().collect::<Vec<_>>())
    }

    /// What a search publishes and how it got there, bit for bit.
    type SearchOutcome = Result<(Vec<(u32, u32, u64)>, u64, u64, u32, u32, u32), ObfuscationError>;

    fn search_outcome(res: Result<ObfuscationResult, ObfuscationError>) -> SearchOutcome {
        res.map(|r| {
            (
                candidate_bits(&r.graph),
                r.sigma.to_bits(),
                r.eps_achieved.to_bits(),
                r.doublings,
                r.search_steps,
                r.generate_calls,
            )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn lazy_search_matches_the_eager_oracle(
            seed in 0u64..1 << 20,
            kind in 0usize..3,
            k in 3usize..12,
            t in 1usize..6,
            loose in proptest::prelude::any::<bool>(),
        ) {
            // A loose ε lets several trials of the published σ pass with
            // different ε̃, so the trials drawn at the end decide the output.
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = match kind {
                0 => generators::erdos_renyi_gnm(200, 600, &mut rng),
                1 => generators::barabasi_albert(200, 3, &mut rng),
                _ => chung_lu(200, 600, &mut rng),
            };
            let eps = if loose { 0.2 } else { 0.05 };
            let mut params = test_params(k, eps).with_seed(seed).with_trials(t);
            params.delta = 1e-2;
            params.max_doublings = 6;
            let want = outcome_and_counters(obfuscate_eager(&g, &params));
            for threads in [1, 2, 3, 4] {
                let got = outcome_and_counters(obfuscate_with_stats(&g, &params.with_threads(threads)));
                proptest::prop_assert_eq!(&got, &want, "kind={} threads={}", kind, threads);
            }
        }
    }

    /// What a search publishes and counts, bit for bit, without the
    /// timings and the trials drawn ahead.
    fn outcome_and_counters(
        res: Result<(ObfuscationResult, SigmaSearchStats), ObfuscationError>,
    ) -> (SearchOutcome, Option<SigmaSearchStats>) {
        match res {
            Ok((result, stats)) => (search_outcome(Ok(result)), Some(counters(stats))),
            Err(e) => (Err(e), None),
        }
    }

    /// A trial as the gated runner logs it: (σ index, σ bits, trial).
    type TrialKey = (usize, u64, usize);

    /// What the gated runner logs of a trial, in the order it happened.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum TrialEvent {
        Start(TrialKey),
        End(TrialKey),
    }

    impl TrialEvent {
        fn started(&self) -> Option<TrialKey> {
            match *self {
                TrialEvent::Start(key) => Some(key),
                TrialEvent::End(_) => None,
            }
        }
    }

    /// Runs [`search`] with a runner that logs the start and the end of
    /// every trial and holds trial `hold` back until a trial matching
    /// `until` has started, failing (and so panicking the search) after
    /// 10 s.
    fn gated_search(
        g: &Graph,
        params: &ObfuscationParams,
        hold: TrialKey,
        until: impl Fn(&TrialKey) -> bool + Sync,
    ) -> (
        Result<(ObfuscationResult, SigmaSearchStats), ObfuscationError>,
        Vec<TrialEvent>,
    ) {
        let ctx = SearchContext::new(g);
        let streams: Vec<u64> = (0..64).map(|j| stream_seed(params.seed, j)).collect();
        let log = Mutex::new(Vec::new());
        let started = Condvar::new();
        let res = search(g, &ctx, params, |sampler, i| {
            let j = streams.iter().position(|&s| s == sampler.stream).unwrap();
            let key = (j, sampler.sigma.to_bits(), i);
            let mut seen = log.lock().unwrap();
            seen.push(TrialEvent::Start(key));
            started.notify_all();
            if key == hold {
                let wait;
                (seen, wait) = started
                    .wait_timeout_while(seen, Duration::from_secs(10), |seen| {
                        !seen
                            .iter()
                            .filter_map(TrialEvent::started)
                            .any(|k| until(&k))
                    })
                    .unwrap();
                assert!(
                    !wait.timed_out(),
                    "the trial {hold:?} waits for never started"
                );
            }
            drop(seen);
            let trial = check_trial(&ctx, params, sampler, i);
            log.lock().unwrap().push(TrialEvent::End(key));
            trial
        });
        (res, log.into_inner().unwrap())
    }

    /// Runs `f` on a thread of its own and fails if it has not returned
    /// within a minute: a search that leaves a worker blocked never does.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            // Dropped, and so disconnected, when `f` returns or panics.
            let _done = done;
            f()
        });
        let waited = finished.recv_timeout(Duration::from_secs(60));
        assert!(
            !matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "the search did not return within a minute"
        );
        worker.join().expect("the search's thread panicked")
    }

    #[test]
    fn a_wrong_guess_down_the_accept_branch_is_dropped() {
        // σ_j passes at trial 0, and σ_{j+1} fails its trial 0 and is
        // rejected. While that trial is held back, an idle worker draws
        // trial 0 of the σ after a pass of σ_{j+1}: a guess the search
        // does not take. Result and counters still equal the eager
        // oracle's, bit for bit, at every thread count.
        let mut rng = SmallRng::seed_from_u64(45);
        let g = chung_lu(250, 750, &mut rng);
        let mut params = test_params(8, 0.05).with_trials(3);
        params.delta = 1e-3;
        let eager = obfuscate_eager(&g, &params);
        let want = outcome_and_counters(eager.clone());
        let c = eager.unwrap().1.candidates;
        let published = c.iter().rposition(|c| c.accepted).unwrap();
        let j = (0..c.len() - 2)
            .find(|&j| c[j].accepted && c[j].checked == 1 && j != published && !c[j + 1].accepted)
            .expect("a pass at trial 0 followed by a rejected sigma");
        let got = obfuscate_with_stats(&g, &params.with_threads(1));
        assert_eq!(outcome_and_counters(got), want, "threads=1");
        for threads in [2, 3, 4] {
            let hold = (j + 1, c[j + 1].sigma.to_bits(), 0);
            let (got, log) = gated_search(&g, &params.with_threads(threads), hold, |&(i, _, _)| {
                i == j + 2
            });
            let path = c[j + 2].sigma.to_bits();
            assert!(
                log.iter()
                    .filter_map(TrialEvent::started)
                    .any(|(i, sigma, _)| i == j + 2 && sigma != path),
                "threads={threads}: no trial off the search's path was drawn"
            );
            assert_eq!(outcome_and_counters(got), want, "threads={threads}");
        }
    }

    #[test]
    fn a_sigma_rejected_after_its_successor_was_drawn() {
        // σ_j's last trial is held back until trial 0 of the σ after a
        // failure of σ_j has started; σ_j is then rejected. Result and
        // counters still equal the eager oracle's at every thread count.
        let mut rng = SmallRng::seed_from_u64(45);
        let g = chung_lu(250, 750, &mut rng);
        let mut params = test_params(8, 0.05).with_trials(3);
        params.delta = 1e-3;
        let eager = obfuscate_eager(&g, &params);
        let want = outcome_and_counters(eager.clone());
        let c = eager.unwrap().1.candidates;
        let j = (0..c.len() - 1)
            .find(|&j| !c[j].accepted)
            .expect("a rejected sigma with a successor");
        for threads in [2, 3, 4] {
            let hold = (j, c[j].sigma.to_bits(), params.t - 1);
            let next = (j + 1, c[j + 1].sigma.to_bits(), 0);
            let (got, log) = gated_search(&g, &params.with_threads(threads), hold, |&k| k == next);
            let at = |event| log.iter().position(|&e| e == event).unwrap();
            assert!(
                at(TrialEvent::End(hold)) > at(TrialEvent::Start(next)),
                "threads={threads}: σ_j's last trial ended before its successor started"
            );
            assert_eq!(outcome_and_counters(got), want, "threads={threads}");
        }
    }

    #[test]
    fn no_upper_bound_is_identical_at_every_thread_count() {
        // The doubling phase runs out; every worker must return, with the
        // eager oracle's error.
        let mut params = test_params(6, 0.0).with_trials(3);
        params.max_doublings = 3;
        let want = obfuscate_eager(&generators::star(6), &params).map(|_| ());
        assert!(matches!(want, Err(ObfuscationError::NoUpperBound { .. })));
        for threads in [1, 2, 3, 4] {
            let params = params.with_threads(threads);
            let got = within_a_minute(move || {
                obfuscate_with_stats(&generators::star(6), &params).map(|_| ())
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn a_panicking_trial_reaches_the_caller() {
        // A worker that panics must not leave the others waiting for its
        // trial: the search panics instead of hanging.
        for threads in [1, 2, 3, 4] {
            let panicked = within_a_minute(move || {
                let mut rng = SmallRng::seed_from_u64(46);
                let g = chung_lu(200, 600, &mut rng);
                let ctx = SearchContext::new(&g);
                let params = test_params(6, 0.05).with_threads(threads);
                let doomed = stream_seed(params.seed, 3);
                let run = |sampler: &TrialSampler, i| {
                    assert!(sampler.stream != doomed || i != 0, "a trial panicked");
                    check_trial(&ctx, &params, sampler, i)
                };
                let search = || search(&g, &ctx, &params, run);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(search)).is_err()
            });
            assert!(panicked, "threads={threads}");
        }
    }

    #[test]
    fn rejects_parameters_that_crash_or_mislead() {
        // Each of these used to panic deep in the search or publish a
        // wrong release; all are typed parameter errors.
        let mut rng = SmallRng::seed_from_u64(12);
        let g = generators::erdos_renyi_gnm(50, 100, &mut rng);
        type Set = fn(&mut ObfuscationParams);
        let cases: [(&str, Set); 9] = [
            ("c = inf", |p| p.c = f64::INFINITY),
            ("c = NaN", |p| p.c = f64::NAN),
            // 13 · 100 edges > 50 · 49 / 2 vertex pairs.
            ("c beyond the vertex pairs", |p| p.c = 13.0),
            ("delta = NaN", |p| p.delta = f64::NAN),
            ("delta = inf", |p| p.delta = f64::INFINITY),
            ("sigma_init = NaN", |p| p.sigma_init = f64::NAN),
            ("sigma_init = inf", |p| p.sigma_init = f64::INFINITY),
            ("sigma_init = 1e308", |p| p.sigma_init = 1e308),
            ("max_doublings = u32::MAX", |p| p.max_doublings = u32::MAX),
        ];
        for (what, set) in cases {
            let mut params = test_params(2, 0.1);
            set(&mut params);
            assert!(
                matches!(
                    obfuscate(&g, &params),
                    Err(ObfuscationError::BadParameter(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn search_counters_are_defined_by_trial_order() {
        // Trials checked ahead of a verdict must not leak into the
        // counters: every SigmaSearchStats counter is the same at 1, 2
        // and 4 threads. Only the published σ (the last accepted one)
        // has all t trials checked; a rejected σ checks all of them too.
        let mut rng = SmallRng::seed_from_u64(43);
        let g = chung_lu(300, 900, &mut rng);
        let run = |threads: usize| {
            let mut params = test_params(8, 0.05).with_threads(threads).with_trials(5);
            params.delta = 1e-3;
            let (_, stats) = obfuscate_with_stats(&g, &params).unwrap();
            if threads == 1 {
                assert_eq!(stats.drawn, stats.checked(), "one thread draws ahead");
            }
            counters(stats)
        };
        let want = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), want, "threads={threads}");
        }
        let published = want.candidates.iter().rposition(|c| c.accepted).unwrap();
        for (i, c) in want.candidates.iter().enumerate() {
            if i == published || !c.accepted {
                assert_eq!(c.checked, c.trials, "candidate {i}");
            } else {
                assert!((1..=c.trials).contains(&c.checked), "candidate {i}");
            }
        }
        assert!(
            want.checked() < want.trials(),
            "no trial was left unchecked"
        );
        assert_eq!(want.naive_dp_evaluations(), 300 * want.checked());
    }

    #[test]
    fn trial_depends_only_on_its_index() {
        // A trial drawn alone from (seed, σ-index, i) is the trial the
        // search ran: drawn in reverse trial order, on one thread, the
        // published σ's trials pick, bit for bit, the graph and ε̃ the
        // search published at every thread count. A loose ε lets several
        // of them pass.
        let mut rng = SmallRng::seed_from_u64(44);
        let g = chung_lu(250, 750, &mut rng);
        let ctx = SearchContext::new(&g);
        for threads in [1, 2, 4] {
            let mut params = test_params(8, 0.2).with_threads(threads).with_trials(4);
            params.delta = 1e-2;
            let (res, stats) = obfuscate_with_stats(&g, &params).unwrap();
            let index = stats.candidates.iter().rposition(|c| c.accepted).unwrap();
            assert_eq!(stats.candidates[index].sigma.to_bits(), res.sigma.to_bits());
            let stream = stream_seed(params.seed, index as u64);
            let sampler = TrialSampler::new(&g, &ctx, &params, res.sigma, stream);
            let mut alone: Vec<CheckedTrial> = (0..params.t)
                .rev()
                .map(|i| check_trial(&ctx, &params, &sampler, i))
                .collect();
            alone.reverse();
            let mut best: Option<&CheckedTrial> = None;
            for trial in alone.iter().filter(|t| t.graph.is_some()) {
                if best.is_none_or(|b| trial.stats.eps_achieved < b.stats.eps_achieved) {
                    best = Some(trial);
                }
            }
            let best = best.expect("the published sigma has a passing trial");
            assert_eq!(
                candidate_bits(best.graph.as_ref().unwrap()),
                candidate_bits(&res.graph),
                "threads={threads}"
            );
            assert_eq!(
                best.stats.eps_achieved.to_bits(),
                res.eps_achieved.to_bits(),
                "threads={threads}"
            );
            let passing = alone.iter().filter(|t| t.graph.is_some()).count();
            assert!(passing >= 2, "only {passing} trial passed");
            let bits = |i| -> Vec<u64> {
                let draw = sampler.draw(&ctx, i);
                draw.candidates.iter().map(|c| c.2.to_bits()).collect()
            };
            assert_ne!(bits(0), bits(1), "two trials share a stream");
        }
    }

    #[test]
    fn unsampleable_graph_is_identical_at_every_thread_count() {
        // On one vertex with ε > 0, H = the ⌈ε/2·n⌉ = n most unique
        // vertices is all of V, which leaves no sampleable vertex (no Q),
        // so E_C stays E in every trial.
        let g = Graph::from_edges(1, &[]);
        let run = |threads: usize| {
            let params = test_params(1, 0.3).with_threads(threads).with_trials(3);
            let out = generate_obfuscation(&g, &params, 0.2, 9);
            for t in &out.trials {
                assert_eq!(
                    (t.kept_edges, t.added_pairs, t.removed_edges),
                    (g.num_edges(), 0, 0)
                );
            }
            let graph = out.graph.as_ref().map(candidate_bits);
            (graph, out.eps_achieved.to_bits(), out.trials)
        };
        let want = run(1);
        assert!(want.0.is_some(), "k = 1 passes on any graph");
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
        // Every candidate drew t trials; a rejected one checked them all,
        // an accepted one at least its first passing trial.
        for c in &stats.candidates {
            assert_eq!(c.trials, params.t as u32);
            if c.accepted {
                assert!((1..=c.trials).contains(&c.checked));
            } else {
                assert_eq!(c.checked, c.trials);
            }
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
        // The phase timers measure every phase of the trials drawn.
        let p = stats.phases;
        for (phase, secs) in [
            ("select", p.select),
            ("perturb", p.perturb),
            ("build", p.build),
            ("check", p.check),
        ] {
            assert!(secs > 0.0, "{phase} phase timed {secs} s");
        }
        assert!(stats.drawn >= stats.checked());
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
