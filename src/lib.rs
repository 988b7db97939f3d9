//! # obfugraph
//!
//! A Rust implementation of *“Injecting Uncertainty in Graphs for Identity
//! Obfuscation”* (Boldi, Bonchi, Gionis, Tassa — PVLDB 5(11), 2012).
//!
//! The library anonymizes an undirected social graph `G = (V, E)` by
//! publishing an **uncertain graph** `G̃ = (V, p)`: a small set of
//! candidate vertex pairs carries an edge-existence probability in
//! `[0, 1]`, so edges can be *partially* added or removed. The published
//! graph satisfies **(k, ε)-obfuscation**: for all but an ε fraction of
//! vertices, an adversary who knows the degree of a target vertex is left
//! with a posterior over the published vertices whose entropy is at least
//! `log₂ k`.
//!
//! ## Crate map
//!
//! * [`core`] — the obfuscation mechanism itself (Algorithms 1 and 2,
//!   uniqueness scores, adversary matrices).
//! * [`uncertain`] — possible-world semantics, world sampling, the
//!   Monte-Carlo statistic suite, exact expectations.
//! * [`graph`] — CSR graphs, generators, traversal, triangles,
//!   components, and the deterministic parallel layer
//!   ([`graph::parallel::Parallelism`]).
//! * [`hyperanf`] — HyperANF distance-distribution approximation.
//! * [`baselines`] — random sparsification / perturbation and k-degree
//!   anonymity comparators.
//! * [`datasets`] — seeded synthetic datasets shaped like the paper's
//!   dblp / flickr / Y360, plus evolving delta-batch workloads.
//! * [`evolve`] — incremental obfuscation of evolving graphs: delta
//!   logs, patched adversary checks, warm-started republish.
//! * [`stats`] — numeric substrate (normal distributions, entropy,
//!   Hoeffding, jackknife, descriptive statistics).
//!
//! ## Quickstart
//!
//! ```
//! use obfugraph::prelude::*;
//! use rand::SeedableRng;
//!
//! // A small scale-free graph.
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let g = obfugraph::graph::generators::barabasi_albert(300, 3, &mut rng);
//!
//! // Publish it with (k=5, eps=0.05)-obfuscation of the degree property.
//! let params = ObfuscationParams::new(5, 0.05).with_seed(7);
//! let out = obfuscate(&g, &params).expect("obfuscation found");
//! assert!(out.eps_achieved <= 0.05);
//!
//! // Analyze the published uncertain graph by sampling possible worlds.
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
//! let worlds = out.graph.sample_worlds(25, &mut rng);
//! let avg_edges: f64 =
//!     worlds.iter().map(|w| w.num_edges() as f64).sum::<f64>() / 25.0;
//! assert!(avg_edges > 0.0);
//! ```

pub use obf_baselines as baselines;
pub use obf_core as core;
pub use obf_datasets as datasets;
pub use obf_evolve as evolve;
pub use obf_graph as graph;
pub use obf_hyperanf as hyperanf;
pub use obf_stats as stats;
pub use obf_uncertain as uncertain;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use obf_core::{obfuscate, ObfuscationCheck, ObfuscationParams, ObfuscationResult};
    pub use obf_graph::{Graph, GraphBuilder, Parallelism};
    pub use obf_uncertain::UncertainGraph;
}
