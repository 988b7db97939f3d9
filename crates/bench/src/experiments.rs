//! The experiment implementations behind each table/figure binary.
//!
//! Every function returns printable rows (and the raw numbers), so the
//! binaries stay thin and integration tests can run reduced versions.

use std::time::Instant;

use obf_baselines::{
    anonymity_curve, perturbation_anonymity, random_perturbation, random_sparsification,
    sparsification_anonymity,
};
use obf_core::adversary::vertex_obfuscation_levels;
use obf_core::{
    obfuscate_with_stats, AdversaryTable, ObfuscationError, ObfuscationResult, SigmaSearchStats,
};
use obf_datasets::Dataset;
use obf_graph::Graph;
use obf_stats::describe::{relative_sem, BoxplotSummary};
use obf_uncertain::degree_dist::DegreeDistMethod;
use obf_uncertain::statistics::{
    evaluate_uncertain, evaluate_world, evaluate_world_vectors, DistanceEngine, StatSuite,
    UtilityConfig,
};
use obf_uncertain::UncertainGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::HarnessConfig;

/// Utility-evaluation configuration used by all experiments: HyperANF for
/// distance statistics (as in the paper), worlds sharded across the
/// harness's worker threads.
pub fn utility_config(cfg: &HarnessConfig) -> UtilityConfig {
    UtilityConfig {
        distance: DistanceEngine::HyperAnf { b: 6 },
        seed: cfg.seed ^ 0xD1,
        parallelism: cfg.parallelism(),
    }
}

// ---------------------------------------------------------------------
// Table 1 / Examples 1–2: the worked example of Figure 1.
// ---------------------------------------------------------------------

/// The paper's Figure 1 pair: original graph (a) and uncertain graph (b).
pub fn figure1() -> (Graph, UncertainGraph) {
    let original = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]);
    let published = UncertainGraph::new(
        4,
        vec![
            (0, 1, 0.7),
            (0, 2, 0.9),
            (0, 3, 0.8),
            (1, 2, 0.8),
            (1, 3, 0.1),
            (2, 3, 0.0),
        ],
    )
    .expect("valid example graph");
    (original, published)
}

/// Rows of Table 1: the X matrix then the Y matrix, 4 degree columns each.
pub fn table1_rows() -> (Vec<Vec<String>>, Vec<Vec<String>>) {
    let (_, ug) = figure1();
    let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
    let x_rows = (0..4u32)
        .map(|v| {
            let mut row = vec![format!("v{}", v + 1)];
            for omega in 0..4 {
                row.push(format!("{:.3}", t.x(v, omega)));
            }
            row
        })
        .collect();
    let y_rows = (0..4usize)
        .map(|v| {
            let mut row = vec![format!("v{}", v + 1)];
            for omega in 0..4 {
                row.push(format!("{:.3}", t.posterior(omega)[v]));
            }
            row
        })
        .collect();
    (x_rows, y_rows)
}

// ---------------------------------------------------------------------
// Tables 2 and 3: minimal σ and throughput of Algorithm 1.
// ---------------------------------------------------------------------

/// One (dataset, k, ε) cell of Tables 2–3.
#[derive(Debug, Clone)]
pub struct SigmaCell {
    pub dataset: Dataset,
    pub k: usize,
    pub eps: f64,
    /// `c` actually used (2, or 3 after a fallback, as in the paper's
    /// (*) entries).
    pub c: f64,
    pub outcome: Result<SigmaOutcome, String>,
}

/// Successful cell payload, including the σ-search fast-path counters of
/// [`obf_core::SigmaSearchStats`] (deterministic for a fixed seed except
/// for the wall-clock fields).
#[derive(Debug, Clone)]
pub struct SigmaOutcome {
    pub sigma: f64,
    pub eps_achieved: f64,
    pub elapsed_secs: f64,
    pub edges_per_sec: f64,
    pub generate_calls: u32,
    /// Candidate σ values Algorithm 1 tried (doubling + binary search).
    pub candidates_tried: u32,
    /// σ-search wall-clock (generate calls only, excluding dataset setup).
    pub sigma_search_secs: f64,
    /// Lemma 1 row evaluations actually run.
    pub dp_evaluations: u64,
    /// Rows served by the identical-row memo cache.
    pub dp_cache_hits: u64,
    /// `dp_cache_hits / (dp_evaluations + dp_cache_hits)`.
    pub dp_cache_hit_rate: f64,
    /// Row evaluations the naive engine would have run
    /// (vertices × adversary tables built).
    pub dp_naive: u64,
    /// Trials whose budgeted Definition 2 sweep exited early.
    pub early_exit_trials: u64,
}

/// Runs Algorithm 1 for every (dataset, k, ε) combination; on
/// `NoUpperBound` the cell is retried with `c = 3` (the paper's fallback).
pub fn table2_3(cfg: &HarnessConfig) -> Vec<SigmaCell> {
    let (ks, epss) = cfg.keps_grid();
    let mut cells = Vec::new();
    for ds in Dataset::ALL {
        let g = cfg.dataset(ds);
        for &k in &ks {
            for &eps in &epss {
                cells.push(run_sigma_cell(cfg, ds, &g, k, eps));
            }
        }
    }
    cells
}

/// Runs Algorithm 1 and, on `NoUpperBound`, retries with `c = 3` — the
/// paper's fallback for hard instances (the (*) cells of Tables 2–3).
pub fn obfuscate_with_fallback(
    g: &Graph,
    params: obf_core::ObfuscationParams,
) -> Result<(ObfuscationResult, f64), String> {
    obfuscate_with_fallback_stats(g, params).map(|(r, _, c)| (r, c))
}

/// [`obfuscate_with_fallback`] with the σ-search instrumentation of the
/// successful attempt.
pub fn obfuscate_with_fallback_stats(
    g: &Graph,
    mut params: obf_core::ObfuscationParams,
) -> Result<(ObfuscationResult, SigmaSearchStats, f64), String> {
    match obfuscate_with_stats(g, &params) {
        Ok((r, s)) => Ok((r, s, params.c)),
        Err(ObfuscationError::NoUpperBound { .. }) => {
            params.c = 3.0;
            obfuscate_with_stats(g, &params)
                .map(|(r, s)| (r, s, 3.0))
                .map_err(|e| e.to_string())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Runs one Table 2/3 cell (public so run_all/integration tests can pick
/// single cells).
pub fn run_sigma_cell(
    cfg: &HarnessConfig,
    ds: Dataset,
    g: &Graph,
    k: usize,
    eps: f64,
) -> SigmaCell {
    let mut params = cfg.obf_params(k, eps);
    let mut c_used = params.c;
    let start = Instant::now();
    let mut result = obfuscate_with_stats(g, &params);
    if matches!(result, Err(ObfuscationError::NoUpperBound { .. })) {
        // Paper: "increasing the parameter c to 3 resolved the problem".
        params.c = 3.0;
        c_used = 3.0;
        result = obfuscate_with_stats(g, &params);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let outcome = match result {
        Ok((
            ObfuscationResult {
                sigma,
                eps_achieved,
                generate_calls,
                ..
            },
            stats,
        )) => Ok(SigmaOutcome {
            sigma,
            eps_achieved,
            elapsed_secs: elapsed,
            edges_per_sec: g.num_edges() as f64 / elapsed.max(1e-9),
            generate_calls,
            candidates_tried: stats.candidates_tried(),
            sigma_search_secs: stats.total_secs(),
            dp_evaluations: stats.dp_evaluations(),
            dp_cache_hits: stats.dp_cache_hits(),
            dp_cache_hit_rate: stats.dp_cache_hit_rate(),
            dp_naive: stats.naive_dp_evaluations(),
            early_exit_trials: stats.early_exit_trials(),
        }),
        Err(e) => Err(e.to_string()),
    };
    SigmaCell {
        dataset: ds,
        k,
        eps,
        c: c_used,
        outcome,
    }
}

// ---------------------------------------------------------------------
// Tables 4 and 5: utility statistics of the obfuscated graphs.
// ---------------------------------------------------------------------

/// One dataset block of Tables 4–5.
#[derive(Debug, Clone)]
pub struct UtilityBlock {
    pub dataset: Dataset,
    /// Statistics of the original graph.
    pub original: StatSuite,
    /// Per k: (k, eps actually used, mean suite over worlds,
    /// per-statistic relative SEM, mean relative error vs original).
    pub per_k: Vec<(usize, f64, StatSuite, [f64; 10], f64)>,
}

/// Evaluates utility for each dataset and each k at tolerance `eps`
/// (the paper's Table 4 uses ε = 10⁻⁴). Cells that are infeasible at the
/// requested eps (a scale artifact — see EXPERIMENTS.md) fall back to
/// 10× looser tolerances, recording the eps actually used.
pub fn table4_5(cfg: &HarnessConfig, eps: f64) -> Vec<UtilityBlock> {
    let (ks, _) = cfg.keps_grid();
    let ucfg = utility_config(cfg);
    let mut blocks = Vec::new();
    for ds in Dataset::ALL {
        let g = cfg.dataset(ds);
        let original = evaluate_world(&g, &ucfg);
        let mut per_k = Vec::new();
        for &k in &ks {
            let mut found = None;
            let mut try_eps = eps;
            while try_eps <= 0.1 {
                if let Ok((res, _)) = obfuscate_with_fallback(&g, cfg.obf_params(k, try_eps)) {
                    found = Some((try_eps, res));
                    break;
                }
                try_eps *= 10.0;
            }
            let Some((used_eps, res)) = found else {
                continue;
            };
            let suites = evaluate_uncertain(&res.graph, cfg.worlds, cfg.seed ^ 0x44, &ucfg);
            let (mean, rel_sems) = summarize_suites(&suites);
            let rel_err = mean.mean_relative_error(&original);
            per_k.push((k, used_eps, mean, rel_sems, rel_err));
        }
        blocks.push(UtilityBlock {
            dataset: ds,
            original,
            per_k,
        });
    }
    blocks
}

/// Mean suite and per-statistic relative SEM over per-world suites.
pub fn summarize_suites(suites: &[StatSuite]) -> (StatSuite, [f64; 10]) {
    let n = suites.len().max(1) as f64;
    let arrays: Vec<[f64; 10]> = suites.iter().map(|s| s.as_array()).collect();
    let mut mean_arr = [0.0f64; 10];
    for a in &arrays {
        for (m, v) in mean_arr.iter_mut().zip(a) {
            *m += v / n;
        }
    }
    let mut rel_sems = [0.0f64; 10];
    for i in 0..10 {
        let vals: Vec<f64> = arrays.iter().map(|a| a[i]).collect();
        rel_sems[i] = relative_sem(&vals).abs();
    }
    let mean = StatSuite {
        num_edges: mean_arr[0],
        average_degree: mean_arr[1],
        max_degree: mean_arr[2],
        degree_variance: mean_arr[3],
        power_law_exponent: mean_arr[4],
        average_distance: mean_arr[5],
        diameter_lb: mean_arr[6],
        effective_diameter: mean_arr[7],
        connectivity_length: mean_arr[8],
        clustering_coefficient: mean_arr[9],
    };
    (mean, rel_sems)
}

// ---------------------------------------------------------------------
// Figures 2 and 3: vector statistics as boxplots.
// ---------------------------------------------------------------------

/// Per-position boxplot summaries of a vector statistic across worlds,
/// plus the original graph's values.
#[derive(Debug, Clone)]
pub struct VectorFigure {
    /// The original graph's fraction at each position.
    pub original: Vec<f64>,
    /// Boxplot of the sampled worlds' fraction at each position.
    pub boxes: Vec<Option<BoxplotSummary>>,
}

/// Which vector statistic a figure shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorKind {
    /// Figure 2: distribution of pairwise distances `S_PDD`.
    DistanceDistribution,
    /// Figure 3: degree distribution `S_DD`.
    DegreeDistribution,
}

/// Builds Figure 2/3 data: obfuscates `ds` at `(k, eps)` and summarises
/// the vector statistic across sampled worlds.
pub fn vector_figure(
    cfg: &HarnessConfig,
    ds: Dataset,
    k: usize,
    eps: f64,
    kind: VectorKind,
    max_len: usize,
) -> Result<VectorFigure, String> {
    let g = cfg.dataset(ds);
    let ucfg = utility_config(cfg);
    let original = match kind {
        VectorKind::DistanceDistribution => evaluate_world_vectors(&g, &ucfg).distance_fractions,
        VectorKind::DegreeDistribution => evaluate_world_vectors(&g, &ucfg).degree_fractions,
    };
    let (res, _) = obfuscate_with_fallback(&g, cfg.obf_params(k, eps))?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xF16);
    let mut per_world: Vec<Vec<f64>> = Vec::with_capacity(cfg.worlds);
    for _ in 0..cfg.worlds {
        let w = res.graph.sample_world(&mut rng);
        let v = evaluate_world_vectors(&w, &ucfg);
        per_world.push(match kind {
            VectorKind::DistanceDistribution => v.distance_fractions,
            VectorKind::DegreeDistribution => v.degree_fractions,
        });
    }
    let len = per_world
        .iter()
        .map(|v| v.len())
        .chain(std::iter::once(original.len()))
        .max()
        .unwrap_or(0)
        .min(max_len);
    let mut boxes = Vec::with_capacity(len);
    for i in 0..len {
        let vals: Vec<f64> = per_world
            .iter()
            .map(|v| v.get(i).copied().unwrap_or(0.0))
            .collect();
        boxes.push(BoxplotSummary::of(&vals));
    }
    let mut original = original;
    original.resize(len, 0.0);
    Ok(VectorFigure { original, boxes })
}

// ---------------------------------------------------------------------
// Figure 4: anonymity-level curves.
// ---------------------------------------------------------------------

/// One labelled anonymity curve.
#[derive(Debug, Clone)]
pub struct Curve {
    pub label: String,
    /// `(k, number of vertices with level <= k)` for `k = 1..=k_max`.
    pub points: Vec<(usize, usize)>,
}

/// Builds the Figure 4 curves for one dataset: original graph,
/// obfuscation at each `(k, ε)`, random perturbation and sparsification
/// at the paper's `p` values.
pub fn figure4(
    cfg: &HarnessConfig,
    ds: Dataset,
    obf_settings: &[(usize, f64)],
    pert_p: f64,
    spars_p: f64,
    k_max: usize,
) -> Vec<Curve> {
    let g = cfg.dataset(ds);
    let mut curves = Vec::new();

    // Original graph: levels = crowd sizes.
    let par = cfg.parallelism();
    let certain = UncertainGraph::from_certain(&g);
    let table = AdversaryTable::build_par(&certain, DegreeDistMethod::Exact, &par);
    let levels = vertex_obfuscation_levels(&g, &table, &par);
    curves.push(Curve {
        label: "original".into(),
        points: anonymity_curve(&levels, k_max),
    });

    for &(k, eps) in obf_settings {
        if let Ok((res, _)) = obfuscate_with_fallback(&g, cfg.obf_params(k, eps)) {
            let table = AdversaryTable::build_par(
                &res.graph,
                DegreeDistMethod::Auto { threshold: 64 },
                &par,
            );
            let levels = vertex_obfuscation_levels(&g, &table, &par);
            curves.push(Curve {
                label: format!("obf k={k} eps={eps:.0e}"),
                points: anonymity_curve(&levels, k_max),
            });
        }
    }

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xF4);
    let pert = random_perturbation(&g, pert_p, &mut rng);
    let levels = perturbation_anonymity(&g, &pert, pert_p);
    curves.push(Curve {
        label: format!("rand.pert. p={pert_p}"),
        points: anonymity_curve(&levels, k_max),
    });

    let spars = random_sparsification(&g, spars_p, &mut rng);
    let levels = sparsification_anonymity(&g, &spars, spars_p);
    curves.push(Curve {
        label: format!("spars. p={spars_p}"),
        points: anonymity_curve(&levels, k_max),
    });

    curves
}

// ---------------------------------------------------------------------
// Table 6: utility comparison against the baselines.
// ---------------------------------------------------------------------

/// One row of Table 6: a method with its mean statistics and relative
/// error against the original.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    pub label: String,
    pub mean: StatSuite,
    pub rel_err: f64,
}

/// Runs the Table 6 comparison on one dataset: random perturbation and
/// sparsification at the paper's `p` values (50 samples each, as in the
/// paper) versus uncertainty obfuscation at the matched `(k, ε)` pairs.
pub fn table6(
    cfg: &HarnessConfig,
    ds: Dataset,
    pert: Option<(f64, usize, f64)>,
    spars: Option<(f64, usize, f64)>,
) -> (StatSuite, Vec<ComparisonRow>) {
    let g = cfg.dataset(ds);
    let ucfg = utility_config(cfg);
    let original = evaluate_world(&g, &ucfg);
    let samples = (cfg.worlds / 2).max(2); // paper: 50 baseline samples
    let mut rows = Vec::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x76);

    fn eval_certain(
        rows: &mut Vec<ComparisonRow>,
        original: &StatSuite,
        ucfg: &UtilityConfig,
        graphs: Vec<Graph>,
        label: String,
    ) {
        let suites: Vec<StatSuite> = graphs.iter().map(|w| evaluate_world(w, ucfg)).collect();
        let (mean, _) = summarize_suites(&suites);
        rows.push(ComparisonRow {
            rel_err: mean.mean_relative_error(original),
            label,
            mean,
        });
    }

    if let Some((p, k, eps)) = pert {
        let graphs: Vec<Graph> = (0..samples)
            .map(|_| random_perturbation(&g, p, &mut rng))
            .collect();
        eval_certain(
            &mut rows,
            &original,
            &ucfg,
            graphs,
            format!("rand.pert. (p = {p})"),
        );
        if let Ok((res, _)) = obfuscate_with_fallback(&g, cfg.obf_params(k, eps)) {
            let suites = evaluate_uncertain(&res.graph, cfg.worlds, cfg.seed ^ 0x66, &ucfg);
            let (mean, _) = summarize_suites(&suites);
            rows.push(ComparisonRow {
                rel_err: mean.mean_relative_error(&original),
                label: format!("obf. (k = {k}, eps = {eps:.0e})"),
                mean,
            });
        }
    }
    if let Some((p, k, eps)) = spars {
        let graphs: Vec<Graph> = (0..samples)
            .map(|_| random_sparsification(&g, p, &mut rng))
            .collect();
        eval_certain(
            &mut rows,
            &original,
            &ucfg,
            graphs,
            format!("rand.spars. (p = {p})"),
        );
        if let Ok((res, _)) = obfuscate_with_fallback(&g, cfg.obf_params(k, eps)) {
            let suites = evaluate_uncertain(&res.graph, cfg.worlds, cfg.seed ^ 0x67, &ucfg);
            let (mean, _) = summarize_suites(&suites);
            rows.push(ComparisonRow {
                rel_err: mean.mean_relative_error(&original),
                label: format!("obf. (k = {k}, eps = {eps:.0e})"),
                mean,
            });
        }
    }
    (original, rows)
}

/// Scale-honest Table 6 variant: instead of reusing the paper's `p`
/// values (calibrated on the full-size datasets), calibrate `p` on *this*
/// graph so the baseline matches the obfuscation's own achieved
/// (k, ε) level, then compare utility. Returns the original suite and the
/// comparison rows (baseline + obfuscation per mechanism).
pub fn table6_calibrated(
    cfg: &HarnessConfig,
    ds: Dataset,
    k: usize,
    eps: f64,
) -> Result<(StatSuite, Vec<ComparisonRow>), String> {
    let g = cfg.dataset(ds);
    let ucfg = utility_config(cfg);
    let original = evaluate_world(&g, &ucfg);
    let samples = (cfg.worlds / 2).max(2);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x77);
    let mut rows = Vec::new();

    // Our method first (its achieved eps is the matching target).
    let (res, _) = obfuscate_with_fallback(&g, cfg.obf_params(k, eps))?;
    let suites = evaluate_uncertain(&res.graph, cfg.worlds, cfg.seed ^ 0x68, &ucfg);
    let (mean, _) = summarize_suites(&suites);
    rows.push(ComparisonRow {
        rel_err: mean.mean_relative_error(&original),
        label: format!("obf. (k = {k}, eps = {eps:.0e})"),
        mean,
    });

    for (sparsify, name) in [(true, "rand.spars."), (false, "rand.pert.")] {
        let Some(p) = obf_baselines::calibrate_p(&g, sparsify, k, eps, 0.98, 0.01, cfg.seed) else {
            rows.push(ComparisonRow {
                rel_err: f64::INFINITY,
                label: format!("{name} (no p matches (k={k}, eps={eps:.0e}))"),
                mean: StatSuite::default(),
            });
            continue;
        };
        let graphs: Vec<Graph> = (0..samples)
            .map(|_| {
                if sparsify {
                    random_sparsification(&g, p, &mut rng)
                } else {
                    random_perturbation(&g, p, &mut rng)
                }
            })
            .collect();
        let suites: Vec<StatSuite> = graphs.iter().map(|w| evaluate_world(w, &ucfg)).collect();
        let (mean, _) = summarize_suites(&suites);
        rows.push(ComparisonRow {
            rel_err: mean.mean_relative_error(&original),
            label: format!("{name} (calibrated p = {p:.3})"),
            mean,
        });
    }
    Ok((original, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> HarnessConfig {
        HarnessConfig {
            scale: 0.02,
            worlds: 4,
            delta: 1e-2,
            seed: 99,
            fast: true,
            threads: 2,
        }
    }

    #[test]
    fn table1_matches_paper() {
        let (x, y) = table1_rows();
        assert_eq!(x[0][3], "0.398"); // Pr(deg(v1)=2)
        assert_eq!(y[0][4], "0.900"); // Y_{deg=3}(v1)
        assert_eq!(y[3][1], "0.692"); // Y_{deg=0}(v4)
    }

    #[test]
    fn sigma_cell_runs_end_to_end() {
        let cfg = tiny_cfg();
        let g = cfg.dataset(Dataset::Y360);
        let cell = run_sigma_cell(&cfg, Dataset::Y360, &g, 5, 0.02);
        let out = cell.outcome.expect("should find obfuscation");
        assert!(out.sigma > 0.0);
        assert!(out.eps_achieved <= 0.02);
        assert!(out.edges_per_sec > 0.0);
        // Fast-path accounting: every generate call is one candidate σ,
        // and the memoized/budgeted check must beat the naive
        // vertices × tables row-DP count.
        assert_eq!(out.candidates_tried, out.generate_calls);
        assert!(out.sigma_search_secs > 0.0);
        assert!(
            out.dp_evaluations < out.dp_naive,
            "dp {} !< naive {}",
            out.dp_evaluations,
            out.dp_naive
        );
        assert!((0.0..=1.0).contains(&out.dp_cache_hit_rate));
    }

    #[test]
    fn utility_blocks_have_means_close_to_original_for_small_k() {
        let cfg = tiny_cfg();
        let g = cfg.dataset(Dataset::Dblp);
        let ucfg = utility_config(&cfg);
        let original = evaluate_world(&g, &ucfg);
        let res = obf_core::obfuscate(&g, &cfg.obf_params(3, 0.05)).expect("obfuscation");
        let suites = evaluate_uncertain(&res.graph, 6, 7, &ucfg);
        let (mean, rel_sems) = summarize_suites(&suites);
        // Edge count within 25% at such low k.
        let rel = (mean.num_edges - original.num_edges).abs() / original.num_edges;
        assert!(rel < 0.25, "rel={rel}");
        assert!(rel_sems.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn vector_figure_shapes() {
        let cfg = tiny_cfg();
        let fig = vector_figure(
            &cfg,
            Dataset::Y360,
            3,
            0.05,
            VectorKind::DegreeDistribution,
            12,
        )
        .expect("figure");
        assert!(!fig.boxes.is_empty());
        assert_eq!(fig.original.len(), fig.boxes.len());
        for b in fig.boxes.iter().flatten() {
            assert!(b.min <= b.median && b.median <= b.max);
        }
    }

    #[test]
    fn figure4_curves_present_and_monotone() {
        let cfg = tiny_cfg();
        let curves = figure4(&cfg, Dataset::Y360, &[(3, 0.05)], 0.1, 0.3, 20);
        assert!(curves.len() >= 3);
        for c in &curves {
            for w in c.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "curve {} not monotone", c.label);
            }
        }
    }

    #[test]
    fn table6_obfuscation_beats_sparsification() {
        let cfg = tiny_cfg();
        let (_, rows) = table6(&cfg, Dataset::Dblp, None, Some((0.64, 3, 0.05)));
        assert_eq!(rows.len(), 2);
        let spars = &rows[0];
        let obf = &rows[1];
        assert!(
            obf.rel_err < spars.rel_err,
            "obf {} should beat sparsification {}",
            obf.rel_err,
            spars.rel_err
        );
    }
}
