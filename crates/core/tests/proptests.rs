//! Property-based tests of the obfuscation core.

use obf_core::adversary::{AdversaryTable, DegreeProfile, ObfuscationCheck};
use obf_core::commonness::{commonness, UniquenessScores};
use obf_core::fastpath::{run_budgeted, MemoizedAdversary};
use obf_graph::{Graph, GraphBuilder, Parallelism};
use obf_uncertain::UncertainGraph;
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), n..4 * n).prop_map(move |edges| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn commonness_positive_and_count_bounded(g in arb_graph(40), theta in 0.01f64..5.0) {
        let profile = DegreeProfile::new(&g);
        let phi0 = obf_stats::normal::norm_pdf(0.0, 0.0, theta);
        let n = g.num_vertices() as f64;
        for (&c, &count) in commonness(&profile, theta).iter().zip(profile.multiplicity()) {
            // At least the exact-match mass, at most all n vertices at
            // distance zero.
            prop_assert!(c >= count as f64 * phi0 * (1.0 - 1e-12));
            prop_assert!(c <= n * phi0 * (1.0 + 1e-12));
            prop_assert!(1.0 / c > 0.0);
        }
    }

    #[test]
    fn kernel_cutoff_matches_the_untruncated_sum(g in arb_graph(40), theta in 0.01f64..5.0) {
        // The 8θ window drops at most n·e^{-32} ≈ n·1.3e-14 of the full
        // Definition 3 sum over every vertex.
        let profile = DegreeProfile::new(&g);
        let c = commonness(&profile, theta);
        for (&w, &got) in profile.distinct().iter().zip(&c) {
            let full: f64 = profile
                .degrees()
                .iter()
                .map(|&d| obf_stats::normal::norm_pdf((w as f64 - d as f64).abs(), 0.0, theta))
                .sum();
            prop_assert!((got - full).abs() <= 1e-12 * full, "w={} got={} full={}", w, got, full);
        }
        let u = UniquenessScores::new(&profile, theta);
        for (v, &d) in profile.degrees().iter().enumerate() {
            let i = profile.distinct().binary_search(&d).unwrap();
            prop_assert_eq!(u.of(v as u32), 1.0 / c[i]);
        }
    }

    #[test]
    fn uniqueness_ordering_matches_rarity_at_tiny_theta(g in arb_graph(40)) {
        // θ → 0: uniqueness is inversely proportional to multiplicity, so
        // rarer degrees are at least as unique.
        let profile = DegreeProfile::new(&g);
        let uniqueness: Vec<f64> = commonness(&profile, 1e-9).iter().map(|c| 1.0 / c).collect();
        let counts = profile.multiplicity();
        for i in 0..counts.len() {
            for j in 0..counts.len() {
                if counts[i] < counts[j] {
                    prop_assert!(uniqueness[i] >= uniqueness[j] * (1.0 - 1e-9));
                }
            }
        }
    }

    #[test]
    fn certain_graph_check_is_exact_crowd_test(g in arb_graph(30), k in 1usize..6) {
        // On a certain graph, v is k-obfuscated iff its degree crowd has
        // at least k members.
        let ug = UncertainGraph::from_certain(&g);
        let check = ObfuscationCheck::run(&g, &ug, k, &Parallelism::sequential());
        let hist = obf_graph::degstats::degree_histogram(&g);
        let expected_failures = (0..g.num_vertices() as u32)
            .filter(|&v| (hist.count(g.degree(v)) as usize) < k)
            .count();
        prop_assert_eq!(check.failed_vertices, expected_failures);
    }

    #[test]
    fn posterior_is_probability_vector(g in arb_graph(24)) {
        let cands: Vec<(u32, u32, f64)> = g.edges().map(|(u, v)| (u, v, 0.5)).collect();
        let ug = UncertainGraph::new(g.num_vertices(), cands).unwrap();
        let table = AdversaryTable::build(&ug);
        for omega in 0..5usize {
            let y = table.posterior(omega);
            let total: f64 = y.iter().sum();
            prop_assert!(total.abs() < 1e-9 || (total - 1.0).abs() < 1e-9);
            prop_assert!(y.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn budgeted_check_equivalent_to_exhaustive(
        g in arb_graph(30),
        seed in 0u64..1000,
        k in 1usize..8,
        eps in 0.0f64..0.6,
        need_exact_bit in 0u8..2,
    ) {
        let need_exact = need_exact_bit == 1;
        // The tentpole guarantee of the σ-search fast path: the budgeted
        // early-exit check returns the exhaustive verdict bit-identically
        // (and the exhaustive ε̃ whenever it reports one), for random
        // uncertain graphs, random (k, ε), and threads ∈ {1, 4}.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let cands: Vec<(u32, u32, f64)> = g
            .edges()
            .map(|(u, v)| {
                // Occasional exact 0/1 probabilities exercise the
                // support interval ends.
                let p: f64 = match rng.gen_range(0u8..8) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen::<f64>(),
                };
                (u, v, p)
            })
            .collect();
        let ug = UncertainGraph::new(g.num_vertices(), cands).unwrap();
        let profile = DegreeProfile::new(&g);

        for threads in [1usize, 4] {
            let par = Parallelism::new(threads).with_chunk_size(4);
            let table = AdversaryTable::build_par(&ug, &par);
            let check =
                ObfuscationCheck::from_entropies(&profile, table.entropies(profile.distinct(), &par), k);
            let mut memo = MemoizedAdversary::new(&ug, profile.max_degree(), &par);
            let verdict = run_budgeted(&profile, &mut memo, k, eps, need_exact, &par);
            prop_assert_eq!(
                verdict.satisfies,
                check.satisfies(eps),
                "threads={} k={} eps={}",
                threads,
                k,
                eps
            );
            if let Some(e) = verdict.eps_exact {
                prop_assert_eq!(e, check.eps_achieved);
                prop_assert_eq!(verdict.failed_at_least, check.failed_vertices);
            } else {
                prop_assert!(verdict.early_exit);
            }
            if need_exact && verdict.satisfies {
                prop_assert_eq!(verdict.eps_exact, Some(check.eps_achieved));
            }
        }
    }

    #[test]
    fn memoized_adversary_equivalent_to_build_par(
        g in arb_graph(24),
        seed in 0u64..1000,
        k in 1usize..8,
    ) {
        // Every memoized, support-truncated entry and entropy column must
        // be bit-identical to the exhaustive table, for threads ∈ {1, 4};
        // so must the ε̃ and the per-vertex levels of `ObfuscationCheck::run`
        // (what audit and Figure 4 print).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        // Duplicate a shared probability across some pairs so identical
        // rows actually occur and the memo cache is exercised.
        let shared: f64 = rng.gen();
        let cands: Vec<(u32, u32, f64)> = g
            .edges()
            .map(|(u, v)| {
                let p = if rng.gen::<bool>() { shared } else { rng.gen() };
                (u, v, p)
            })
            .collect();
        let ug = UncertainGraph::new(g.num_vertices(), cands).unwrap();
        let cap = g.max_degree() + 1;
        let omegas: Vec<usize> = (0..=cap).collect();
        let profile = DegreeProfile::new(&g);

        for threads in [1usize, 4] {
            let par = Parallelism::new(threads).with_chunk_size(4);
            let table = AdversaryTable::build_par(&ug, &par);
            let check = ObfuscationCheck::run(&g, &ug, k, &par);
            let want =
                ObfuscationCheck::from_entropies(&profile, table.entropies(profile.distinct(), &par), k);
            prop_assert_eq!(check.eps_achieved.to_bits(), want.eps_achieved.to_bits());
            prop_assert_eq!(check.failed_vertices, want.failed_vertices);
            // One oracle column per vertex, at its own degree.
            let want_levels: Vec<u64> = table
                .entropies(profile.degrees(), &par)
                .iter()
                .map(|h| h.exp2().to_bits())
                .collect();
            let levels: Vec<u64> =
                check.vertex_obfuscation_levels(&g).iter().map(|l| l.to_bits()).collect();
            prop_assert_eq!(levels, want_levels, "threads={}", threads);
            let mut memo = MemoizedAdversary::new(&ug, cap, &par);
            prop_assert_eq!(
                memo.entropies(&omegas, &par),
                table.entropies(&omegas, &par),
                "threads={}",
                threads
            );
            for v in 0..g.num_vertices() as u32 {
                for &w in &omegas {
                    prop_assert_eq!(
                        memo.x(v, w, &par),
                        table.x(v, w),
                        "threads={} v={} w={}",
                        threads,
                        v,
                        w
                    );
                }
            }
            prop_assert!(memo.dp_evaluations() <= memo.num_classes() as u64);
            prop_assert!(memo.num_classes() <= g.num_vertices());
        }
    }

    #[test]
    fn sharded_adversary_check_bit_identical_across_threads(
        g in arb_graph(30),
        seed in 0u64..1000,
    ) {
        // The tentpole determinism guarantee: the sharded X_v(ω) rows,
        // the Y_ω entropy columns, and the Definition 2 verdict are
        // bit-identical to the sequential path for threads ∈ {1, 2, 4}.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let cands: Vec<(u32, u32, f64)> =
            g.edges().map(|(u, v)| (u, v, rng.gen::<f64>())).collect();
        let ug = UncertainGraph::new(g.num_vertices(), cands).unwrap();
        let omegas: Vec<usize> = (0..g.max_degree() + 2).collect();

        let seq_par = Parallelism::sequential().with_chunk_size(4);
        let seq_table = AdversaryTable::build_par(&ug, &seq_par);
        let seq_entropies = seq_table.entropies(&omegas, &seq_par);
        let seq_check = ObfuscationCheck::run(&g, &ug, 3, &seq_par);

        for threads in [2usize, 4] {
            let par = Parallelism::new(threads).with_chunk_size(4);
            let table = AdversaryTable::build_par(&ug, &par);
            for v in 0..g.num_vertices() as u32 {
                prop_assert_eq!(seq_table.row(v), table.row(v), "row {} threads {}", v, threads);
            }
            prop_assert_eq!(&seq_entropies, &table.entropies(&omegas, &par));
            let check = ObfuscationCheck::run(&g, &ug, 3, &par);
            prop_assert_eq!(&seq_check.entropy_by_degree, &check.entropy_by_degree);
            prop_assert_eq!(seq_check.eps_achieved, check.eps_achieved);
            prop_assert_eq!(seq_check.failed_vertices, check.failed_vertices);
        }
    }
}
