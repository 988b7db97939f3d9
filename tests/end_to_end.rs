//! End-to-end integration: obfuscate realistic synthetic networks,
//! re-verify the (k, ε) certificate from scratch, and confirm the
//! published graph retains utility.

use obfugraph::core::adversary::{AdversaryTable, DegreeProfile, ObfuscationCheck};
use obfugraph::core::{obfuscate, ObfuscationParams};
use obfugraph::datasets;
use obfugraph::graph::Parallelism;
use obfugraph::uncertain::expected::{expected_average_degree, expected_num_edges};
use obfugraph::uncertain::statistics::{
    evaluate_uncertain, evaluate_world, DistanceEngine, UtilityConfig,
};

fn fast_params(k: usize, eps: f64, seed: u64) -> ObfuscationParams {
    let mut p = ObfuscationParams::new(k, eps).with_seed(seed);
    p.delta = 1e-3;
    p.t = 3;
    p
}

#[test]
fn obfuscation_certificate_reverifies() {
    let g = datasets::dblp_like(1_500, 3);
    let k = 10;
    let eps = 0.02;
    let res = obfuscate(&g, &fast_params(k, eps, 1)).expect("obfuscation");
    assert!(res.eps_achieved <= eps);

    // Independent re-verification: every full Lemma 1 row, every column.
    let par = Parallelism::new(2);
    let profile = DegreeProfile::new(&g);
    let entropies = AdversaryTable::build_par(&res.graph, &par).entropies(profile.distinct(), &par);
    let check = ObfuscationCheck::from_entropies(&profile, entropies, k);
    assert!(
        check.eps_achieved <= eps + 1e-12,
        "re-verified eps = {}",
        check.eps_achieved
    );
}

#[test]
fn candidate_set_structure_matches_section3() {
    // |E_C| = c·|E|; every candidate probability is in [0, 1]; original
    // edges not in E_C are certain deletions.
    let g = datasets::y360_like(1_200, 5);
    let params = fast_params(8, 0.02, 2);
    let res = obfuscate(&g, &params).expect("obfuscation");
    assert_eq!(
        res.graph.num_candidates(),
        (params.c * g.num_edges() as f64).round() as usize
    );
    for (u, v, p) in res.graph.candidate_pairs() {
        assert!((0.0..=1.0).contains(&p), "p({u},{v}) = {p}");
    }
}

#[test]
fn expected_edge_count_stays_close_to_original() {
    // The paper's headline: small k obfuscation barely changes the data.
    let g = datasets::dblp_like(1_500, 7);
    let res = obfuscate(&g, &fast_params(5, 0.02, 3)).expect("obfuscation");
    let expected = expected_num_edges(&res.graph);
    let rel = (expected - g.num_edges() as f64).abs() / g.num_edges() as f64;
    assert!(
        rel < 0.15,
        "expected {expected} vs {} (rel {rel})",
        g.num_edges()
    );
    let ad = expected_average_degree(&res.graph);
    assert!((ad - g.average_degree()).abs() / g.average_degree() < 0.15);
}

#[test]
fn utility_suite_close_for_low_k() {
    let g = datasets::y360_like(1_000, 9);
    let ucfg = UtilityConfig {
        distance: DistanceEngine::Exact,
        seed: 4,
        parallelism: Parallelism::new(2),
    };
    let original = evaluate_world(&g, &ucfg);
    let res = obfuscate(&g, &fast_params(5, 0.05, 4)).expect("obfuscation");
    let suites = evaluate_uncertain(&res.graph, 10, 11, &ucfg);
    let mean_err: f64 = suites
        .iter()
        .map(|s| s.mean_relative_error(&original))
        .sum::<f64>()
        / suites.len() as f64;
    // The paper reports rel.err well below 15% for k = 20 on graphs 200x
    // larger; at this scale and k = 5 the suite should stay within 35%.
    assert!(mean_err < 0.35, "mean rel err = {mean_err}");
}

#[test]
fn higher_k_costs_more_utility() {
    let g = datasets::dblp_like(1_200, 13);
    let ucfg = UtilityConfig {
        distance: DistanceEngine::Exact,
        seed: 6,
        parallelism: Parallelism::new(2),
    };
    let original = evaluate_world(&g, &ucfg);
    let err_for = |k: usize| {
        let res = obfuscate(&g, &fast_params(k, 0.05, 5)).expect("obfuscation");
        let suites = evaluate_uncertain(&res.graph, 8, 21, &ucfg);
        suites
            .iter()
            .map(|s| s.mean_relative_error(&original))
            .sum::<f64>()
            / suites.len() as f64
    };
    let low = err_for(3);
    let high = err_for(30);
    assert!(
        high > 0.5 * low,
        "utility cost should not collapse: low={low} high={high}"
    );
}

#[test]
fn deterministic_pipeline() {
    let g = datasets::y360_like(800, 17);
    let a = obfuscate(&g, &fast_params(6, 0.03, 9)).unwrap();
    let b = obfuscate(&g, &fast_params(6, 0.03, 9)).unwrap();
    assert_eq!(a.sigma, b.sigma);
    assert_eq!(a.graph, b.graph);
}
