//! Integration test of the paper's headline claim (Section 7.3): at a
//! matched level of identity obfuscation, publishing an uncertain graph
//! preserves utility better than random sparsification.

use obfugraph::baselines::{eps_for_k, k_for_eps, random_sparsification, sparsification_anonymity};
use obfugraph::core::{obfuscate, ObfuscationCheck, ObfuscationParams};
use obfugraph::datasets;
use obfugraph::graph::Parallelism;
use obfugraph::uncertain::statistics::{
    evaluate_uncertain, evaluate_world, DistanceEngine, StatSuite, UtilityConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn uncertain_release_beats_sparsification_at_matched_obfuscation() {
    let g = datasets::dblp_like(1_500, 21);
    let k = 8usize;
    let eps = 0.05;

    // Our method.
    let mut params = ObfuscationParams::new(k, eps).with_seed(31);
    params.delta = 1e-3;
    params.t = 3;
    let res = obfuscate(&g, &params).expect("obfuscation");

    // Baseline: find the sparsification p matching the same (k, eps).
    let mut rng = SmallRng::seed_from_u64(8);
    let mut p_match = None;
    for step in 1..20 {
        let p = step as f64 * 0.05;
        let rel = random_sparsification(&g, p, &mut rng);
        let levels = sparsification_anonymity(&g, &rel, p);
        if eps_for_k(&levels, k) <= eps {
            p_match = Some(p);
            break;
        }
    }
    let p = p_match.expect("some p achieves the target");

    // Compare utility.
    let ucfg = UtilityConfig {
        distance: DistanceEngine::Exact,
        seed: 14,
        parallelism: Parallelism::new(2),
    };
    let original = evaluate_world(&g, &ucfg);
    let obf_suites = evaluate_uncertain(&res.graph, 10, 5, &ucfg);
    let obf_err = obf_suites
        .iter()
        .map(|s| s.mean_relative_error(&original))
        .sum::<f64>()
        / obf_suites.len() as f64;

    let spars_suites: Vec<StatSuite> = (0..10)
        .map(|_| evaluate_world(&random_sparsification(&g, p, &mut rng), &ucfg))
        .collect();
    let spars_err = spars_suites
        .iter()
        .map(|s| s.mean_relative_error(&original))
        .sum::<f64>()
        / spars_suites.len() as f64;

    assert!(
        obf_err < spars_err,
        "uncertainty obfuscation (err {obf_err:.3}) must beat sparsification \
         p={p} (err {spars_err:.3})"
    );
}

#[test]
fn obfuscated_release_levels_exceed_original() {
    // The anonymity-level distribution of the obfuscated release must
    // dominate the original's (Figure 4's qualitative content).
    let g = datasets::y360_like(1_200, 23);
    let k = 10usize;
    let mut params = ObfuscationParams::new(k, 0.05).with_seed(37);
    params.delta = 1e-3;
    params.t = 3;
    let res = obfuscate(&g, &params).expect("obfuscation");

    let levels = |published: &obfugraph::uncertain::UncertainGraph| {
        ObfuscationCheck::run(&g, published, 1, &Parallelism::new(2)).vertex_obfuscation_levels(&g)
    };
    let orig_levels = levels(&obfugraph::uncertain::UncertainGraph::from_certain(&g));
    let obf_levels = levels(&res.graph);
    // At the eps quantile, the obfuscated release reaches k.
    assert!(k_for_eps(&obf_levels, 0.05) >= k as f64 - 1e-9);
    // And its median protection is at least the original's.
    let median = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    assert!(median(&obf_levels) >= median(&orig_levels) * 0.99);
}

#[test]
fn liu_terzi_comparator_runs_on_datasets() {
    let g = datasets::dblp_like(1_000, 29);
    let out = obfugraph::baselines::k_degree_anonymize(&g, 10, 41);
    assert!(out.unrealized_deficit == 0 || out.probes > 0);
    // Supergraph invariant.
    for (u, v) in g.edges() {
        assert!(out.graph.has_edge(u, v));
    }
}
