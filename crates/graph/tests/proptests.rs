//! Property-based tests of the graph substrate's invariants.

use obf_graph::{
    components::{connected_components, UnionFind},
    degstats::degree_histogram,
    distance::exact_distance_distribution,
    generators,
    traversal::{bfs_distances, UNREACHABLE},
    triangles, AliasTable, Graph, GraphBuilder,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_edges(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..5 * n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_output_always_valid((n, edges) in arb_edges(40)) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn edges_iterator_matches_has_edge((n, edges) in arb_edges(30)) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in &edges {
            b.add_edge(*u, *v);
        }
        let g = b.build();
        let listed: std::collections::HashSet<(u32, u32)> = g.edges().collect();
        prop_assert_eq!(listed.len(), g.num_edges());
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                prop_assert_eq!(g.has_edge(u, v), listed.contains(&(u, v)));
            }
        }
    }

    #[test]
    fn components_partition_vertices((n, edges) in arb_edges(30)) {
        let g = Graph::from_edges(n, &edges);
        let (labels, sizes) = connected_components(&g);
        prop_assert_eq!(labels.len(), n);
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        // Union-find agrees.
        let mut uf = UnionFind::new(n);
        for (u, v) in g.edges() {
            uf.union(u, v);
        }
        prop_assert_eq!(uf.num_components(), sizes.len());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_rule((n, edges) in arb_edges(25)) {
        let g = Graph::from_edges(n, &edges);
        let d = bfs_distances(&g, 0);
        // Edge relaxation: adjacent vertices differ by at most 1.
        for (u, v) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv); // both unreachable
            }
        }
    }

    #[test]
    fn distance_distribution_counts_all_pairs((n, edges) in arb_edges(22)) {
        let g = Graph::from_edges(n, &edges);
        let dd = exact_distance_distribution(&g);
        prop_assert_eq!(dd.total_pairs() as usize, n * (n - 1) / 2);
    }

    #[test]
    fn triangle_counts_consistent((n, edges) in arb_edges(22)) {
        let g = Graph::from_edges(n, &edges);
        let t3 = triangles::triangle_count(&g);
        let paths = triangles::center_paths(&g);
        // A triangle contributes 3 centre-paths.
        prop_assert!(3 * t3 <= paths);
        let cc = triangles::global_clustering_coefficient(&g);
        prop_assert!((0.0..=1.0).contains(&cc));
    }

    #[test]
    fn degree_histogram_totals((n, edges) in arb_edges(30)) {
        let g = Graph::from_edges(n, &edges);
        let h = degree_histogram(&g);
        prop_assert_eq!(h.total() as usize, n);
        prop_assert!((h.mean() * n as f64 - 2.0 * g.num_edges() as f64).abs() < 1e-9);
    }

    #[test]
    fn alias_table_never_samples_zero_weight(
        weights in proptest::collection::vec(0.0f64..10.0, 2..32),
        seed in 0u64..500
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = table.sample(&mut rng) as usize;
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {}", i);
        }
    }

    #[test]
    fn generators_respect_vertex_count(n in 10usize..60, seed in 0u64..100) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for g in [
            generators::erdos_renyi_gnp(n, 0.1, &mut rng),
            generators::erdos_renyi_gnm(n, n, &mut rng),
            generators::barabasi_albert(n, 2, &mut rng),
            generators::holme_kim(n, 2, 0.5, &mut rng),
            generators::community_model(n, 2.5, 2, 6, 0.8, 0.5, &mut rng),
        ] {
            prop_assert_eq!(g.num_vertices(), n);
            prop_assert!(g.validate().is_ok());
        }
    }
}
