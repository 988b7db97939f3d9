//! Golden tests against the paper's worked example (Figure 1, Table 1,
//! Examples 1–3) — the strongest correctness anchor available: every
//! number here is printed in the paper.

use obfugraph::core::adversary::{AdversaryTable, ObfuscationCheck};
use obfugraph::graph::Graph;
use obfugraph::uncertain::UncertainGraph;

/// Figure 1(a): v1 connected to v2, v3, v4; v3 connected to v4.
fn original() -> Graph {
    Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)])
}

/// Figure 1(b), reconstructed from Table 1 (DESIGN.md documents the
/// derivation).
fn published() -> UncertainGraph {
    UncertainGraph::new(
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
    .unwrap()
}

#[test]
fn example1_probability_of_degree_two() {
    // "the probability that v1 has degree 2 is … = 0.398"
    let t = AdversaryTable::build(&published());
    assert!((t.x(0, 2) - 0.398).abs() < 1e-12);
}

#[test]
fn table1_x_matrix_full() {
    let t = AdversaryTable::build(&published());
    let expected = [
        [0.006, 0.092, 0.398, 0.504],
        [0.054, 0.348, 0.542, 0.056],
        [0.020, 0.260, 0.720, 0.000],
        [0.180, 0.740, 0.080, 0.000],
    ];
    for (v, row) in expected.iter().enumerate() {
        for (omega, &want) in row.iter().enumerate() {
            assert!(
                (t.x(v as u32, omega) - want).abs() < 5e-4,
                "X[v{}][{omega}]",
                v + 1
            );
        }
    }
}

#[test]
fn table1_y_matrix_full() {
    let t = AdversaryTable::build(&published());
    let expected = [
        (0usize, [0.023, 0.208, 0.077, 0.692]),
        (1, [0.064, 0.242, 0.180, 0.514]),
        (2, [0.229, 0.311, 0.414, 0.046]),
        (3, [0.900, 0.100, 0.000, 0.000]),
    ];
    for (omega, col) in expected {
        let y = t.posterior(omega);
        for (v, &want) in col.iter().enumerate() {
            assert!(
                (y[v] - want).abs() < 1.5e-3,
                "Y[{omega}][v{}] = {} want {want}",
                v + 1,
                y[v]
            );
        }
    }
}

#[test]
fn example1_degree3_posterior() {
    // "if we look for a vertex that has degree 3 in G, it is either v1,
    // with probability 0.9, or v2, with probability 0.1"
    let t = AdversaryTable::build(&published());
    let y = t.posterior(3);
    assert!((y[0] - 0.9).abs() < 1e-3);
    assert!((y[1] - 0.1).abs() < 1e-3);
    assert!(y[2].abs() < 1e-9);
    assert!(y[3].abs() < 1e-9);
}

#[test]
fn example2_entropies_and_verdict() {
    let t = AdversaryTable::build(&published());
    // H(deg=3) ≈ 0.469 — "rather low … not obfuscated enough".
    assert!((t.entropy(3) - 0.469).abs() < 1e-3);
    assert!(t.entropy(3) < 3f64.log2());
    // H(deg=1) ≈ 1.688 > log2(3).
    assert!((t.entropy(1) - 1.688).abs() < 1e-3);
    assert!(t.entropy(1) > 3f64.log2());
    // H(deg=2) ≈ 1.742 ≥ log2(3).
    assert!((t.entropy(2) - 1.742).abs() < 1e-3);
    // "three out of four vertices are 3-obfuscated … (3, 0.25)".
    let check = ObfuscationCheck::run(
        &original(),
        &published(),
        3,
        &obfugraph::graph::Parallelism::sequential(),
    );
    assert_eq!(check.failed_vertices, 1);
    assert!((check.eps_achieved - 0.25).abs() < 1e-12);
}

#[test]
fn example3_clustering_coefficients() {
    use obfugraph::graph::triangles::global_clustering_coefficient;
    // S_CC[K3] = 1.
    let k3 = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
    assert!((global_clustering_coefficient(&k3) - 1.0).abs() < 1e-12);
    // Two-edge path: S_CC = 0.
    let path = Graph::from_edges(3, &[(0, 1), (0, 2)]);
    assert_eq!(global_clustering_coefficient(&path), 0.0);
}

#[test]
fn figure1_edge_count_mass() {
    // The published graph softens one edge (0.7), keeps two near-certain
    // (0.9, 0.8), removes one (v3-v4), and partially adds two.
    let ug = published();
    assert_eq!(ug.num_candidates(), 6);
    assert!((ug.total_probability_mass() - 3.3).abs() < 1e-12);
    assert_eq!(ug.probability(2, 3), 0.0);
}
