//! Cross-crate property-based tests of the library's core invariants.

use obfugraph::core::adversary::AdversaryTable;
use obfugraph::core::{generate_obfuscation, ObfuscationParams};
use obfugraph::graph::{Graph, GraphBuilder};
use obfugraph::stats::entropy_bits_normalized;
use obfugraph::uncertain::degree_dist::poisson_binomial;
use obfugraph::uncertain::UncertainGraph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..4 * n).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
    })
}

fn arb_uncertain(max_n: usize) -> impl Strategy<Value = UncertainGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..=1.0), 0..3 * n).prop_map(
            move |triples| {
                let mut seen = std::collections::HashSet::new();
                let mut cands = Vec::new();
                for (u, v, p) in triples {
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    if seen.insert(key) {
                        cands.push((key.0, key.1, p));
                    }
                }
                UncertainGraph::new(n, cands).unwrap()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_invariants_hold(g in arb_graph(40)) {
        prop_assert!(g.validate().is_ok());
        // Handshake lemma.
        let sum: usize = g.degrees().iter().sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }

    #[test]
    fn adversary_rows_are_distributions(ug in arb_uncertain(24)) {
        let t = AdversaryTable::build(&ug);
        for v in 0..ug.num_vertices() as u32 {
            let total: f64 = t.row(v).iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "row {} sums to {}", v, total);
            prop_assert!(t.row(v).iter().all(|&p| (-1e-12..=1.0 + 1e-12).contains(&p)));
        }
    }

    #[test]
    fn entropy_bounded_by_log_n(ug in arb_uncertain(24)) {
        let t = AdversaryTable::build(&ug);
        let n = ug.num_vertices() as f64;
        for omega in 0..4usize {
            let h = t.entropy(omega);
            prop_assert!(h >= -1e-12 && h <= n.log2() + 1e-9, "H = {}", h);
        }
    }

    #[test]
    fn poisson_binomial_is_distribution(
        probs in proptest::collection::vec(0.0f64..=1.0, 0..24)
    ) {
        let dist = poisson_binomial(&probs);
        prop_assert_eq!(dist.len(), probs.len() + 1);
        let total: f64 = dist.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Mean equals the sum of probabilities.
        let mean: f64 = dist.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
        let expect: f64 = probs.iter().sum();
        prop_assert!((mean - expect).abs() < 1e-9);
    }

    #[test]
    fn sampled_worlds_respect_candidates(ug in arb_uncertain(20), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = ug.sample_world(&mut rng);
        prop_assert_eq!(w.num_vertices(), ug.num_vertices());
        for (u, v) in w.edges() {
            prop_assert!(ug.probability(u, v) > 0.0, "sampled non-candidate ({},{})", u, v);
        }
    }

    #[test]
    fn entropy_normalisation_invariant(
        weights in proptest::collection::vec(0.0f64..100.0, 1..50),
        scale in 0.01f64..100.0
    ) {
        let scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let a = entropy_bits_normalized(&weights);
        let b = entropy_bits_normalized(&scaled);
        prop_assert!((a - b).abs() < 1e-9);
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn generate_obfuscation_output_invariants(seed in 0u64..100) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = obfugraph::graph::generators::erdos_renyi_gnm(120, 240, &mut rng);
        let mut params = ObfuscationParams::new(4, 0.1).with_seed(seed);
        params.t = 1;
        params.parallelism = obfugraph::graph::Parallelism::sequential();
        let out = generate_obfuscation(&g, &params, 0.05, seed);
        for trial in &out.trials {
            // |E_C| = c|E| whenever the selection loop converged.
            prop_assert_eq!(
                trial.kept_edges + trial.added_pairs,
                (params.c * g.num_edges() as f64).round() as usize
            );
            prop_assert_eq!(trial.removed_edges, g.num_edges() - trial.kept_edges);
        }
        if let Some(ug) = out.graph {
            for (_, _, p) in ug.candidate_pairs() {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
