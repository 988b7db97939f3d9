//! Quickstart: obfuscate a small social graph and analyze the published
//! uncertain graph.
//!
//! Illustrates the paper's core pipeline end to end: Algorithm 1/2 from
//! Section 5 produce the (k, ε)-obfuscated release, and the Section 6
//! estimators recover expected statistics from the published artifact.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use obfugraph::graph::triangles::global_clustering_coefficient;
use obfugraph::prelude::*;
use obfugraph::stats::describe::{mean, sem};
use obfugraph::stats::hoeffding_bound;
use obfugraph::uncertain::expected::{expected_average_degree, expected_num_edges};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // 1. A graph to publish: a scale-free network of 2 000 users.
    let mut rng = SmallRng::seed_from_u64(42);
    let g = obfugraph::graph::generators::barabasi_albert(2_000, 3, &mut rng);
    println!(
        "original graph: {} vertices, {} edges, avg degree {:.2}",
        g.num_vertices(),
        g.num_edges(),
        g.average_degree()
    );

    // 2. Publish it with (k = 20, eps = 0.01)-obfuscation of the degree
    //    property: an adversary who knows a target's degree is left with a
    //    posterior of entropy >= log2(20) for 99% of the vertices.
    let params = ObfuscationParams::new(20, 0.01).with_seed(7);
    let result = obfuscate(&g, &params).expect("obfuscation found");
    println!(
        "published uncertain graph: {} candidate pairs, sigma = {:.3e}, achieved eps = {:.4}",
        result.graph.num_candidates(),
        result.sigma,
        result.eps_achieved
    );

    // 3. Exact expectations for linear statistics — no sampling needed.
    println!(
        "expected edges = {:.1} (original {}), expected avg degree = {:.3} (original {:.3})",
        expected_num_edges(&result.graph),
        g.num_edges(),
        expected_average_degree(&result.graph),
        g.average_degree()
    );

    // 4. Anything else is estimated by sampling possible worlds, with
    //    Hoeffding error control (paper Lemma 2).
    let mut rng = SmallRng::seed_from_u64(1);
    let r = 200;
    let values: Vec<f64> = (0..r)
        .map(|_| global_clustering_coefficient(&result.graph.sample_world(&mut rng)))
        .collect();
    println!(
        "clustering coefficient ~= {:.4} +- {:.4} (original {:.4}); \
         P(err >= 0.05) <= {:.3}",
        mean(&values),
        sem(&values),
        global_clustering_coefficient(&g),
        hoeffding_bound(0.0, 1.0, r, 0.05)
    );
}
