//! Analytics directly on an uncertain graph: exact expectations where
//! linearity allows, Hoeffding-planned sampling where it does not, and
//! HyperANF for distance statistics — the Section 6 toolbox in one tour.
//!
//! ```bash
//! cargo run --release --example uncertain_analytics
//! ```

use obfugraph::graph::triangles::global_clustering_coefficient;
use obfugraph::hyperanf::{estimate_with_error, HyperAnfConfig};
use obfugraph::stats::describe::{mean, sem};
use obfugraph::stats::{hoeffding_bound, hoeffding_sample_size};
use obfugraph::uncertain::degree_dist::degree_distribution_exact;
use obfugraph::uncertain::expected::{
    expected_average_degree, expected_degree_variance, expected_num_edges,
};
use obfugraph::uncertain::UncertainGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    // An uncertain graph "from the wild": a protein-interaction-style
    // network where every observed edge has a confidence score.
    let mut rng = SmallRng::seed_from_u64(2);
    let base = obfugraph::graph::generators::erdos_renyi_gnm(3_000, 9_000, &mut rng);
    let candidates: Vec<(u32, u32, f64)> = base
        .edges()
        .map(|(u, v)| (u, v, 0.3 + 0.7 * rng.gen::<f64>()))
        .collect();
    let ug = UncertainGraph::new(3_000, candidates).unwrap();

    // Exact expectations (Section 6.2 + the closed-form degree variance).
    println!(
        "exact  E[edges]            = {:.2}",
        expected_num_edges(&ug)
    );
    println!(
        "exact  E[avg degree]       = {:.4}",
        expected_average_degree(&ug)
    );
    println!(
        "exact  E[degree variance]  = {:.4}",
        expected_degree_variance(&ug)
    );

    // Exact expected degree distribution (the quantity Figure 3 samples).
    let dd = degree_distribution_exact(&ug);
    let mode = dd
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(d, _)| d)
        .unwrap();
    println!("exact  modal expected degree = {mode}");

    // Sampling with a planned sample size: clustering coefficient within
    // 0.02 with 95% confidence (Corollary 1).
    let r = hoeffding_sample_size(0.0, 1.0, 0.02, 0.05);
    println!("\nsampling {r} worlds for the clustering coefficient...");
    let mut rng = SmallRng::seed_from_u64(3);
    let values: Vec<f64> = (0..r)
        .map(|_| global_clustering_coefficient(&ug.sample_world(&mut rng)))
        .collect();
    println!(
        "S_CC ~= {:.4} (SEM {:.5}, Hoeffding bound {:.3})",
        mean(&values),
        sem(&values),
        hoeffding_bound(0.0, 1.0, r, 0.02)
    );

    // Distance statistics on one sampled world via HyperANF + jackknife.
    let world = ug.sample_world(&mut rng);
    let cfg = HyperAnfConfig::default();
    let (apd, se) = estimate_with_error(&world, &cfg, 8, |dd| dd.average_distance());
    println!("\none possible world: avg distance = {apd:.3} +- {se:.3} (HyperANF, jackknife SE)");
}
