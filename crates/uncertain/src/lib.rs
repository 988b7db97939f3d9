//! Uncertain graphs: possible-world semantics, world sampling, the
//! Monte-Carlo statistic suite and exact expectations (paper Sections 3
//! and 6).
//!
//! An uncertain graph `G̃ = (V, p)` assigns an existence probability to a
//! set of candidate vertex pairs; every other pair is a certain non-edge.
//! `G̃` induces a distribution over *possible worlds* — certain graphs
//! `W = (V, E_W)` with `E_W ⊆ E_C` — with probability
//! `Pr(W) = Π_{e∈E_W} p(e) · Π_{e∈E_C\E_W} (1 − p(e))` (Eq. 1).
//!
//! Statistics of `G̃` are expectations over possible worlds (Eq. 8),
//! computed either exactly (linear degree statistics, Section 6.2; plus a
//! closed-form expected degree variance that the paper leaves out) or by
//! Monte-Carlo sampling with Hoeffding error control (Lemma 2/Corollary 1).
//!
//! # Example
//!
//! ```
//! use obf_uncertain::{expected_num_edges, UncertainGraph};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // One certain edge and one fifty-fifty candidate.
//! let ug = UncertainGraph::new(3, vec![(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
//! assert!((expected_num_edges(&ug) - 1.5).abs() < 1e-12);
//!
//! // Possible worlds always contain the certain edge.
//! let mut rng = SmallRng::seed_from_u64(7);
//! let world = ug.sample_world(&mut rng);
//! assert!(world.has_edge(0, 1));
//! assert!(world.num_edges() <= 2);
//! ```

// `unsafe` in this workspace is confined to audited modules (see
// docs/AUDIT.md, rule unsafe-hygiene); within them, every unsafe
// operation must sit in its own `unsafe` block with a SAFETY note.
#![deny(unsafe_op_in_unsafe_fn)]

mod csr;
pub mod degree_dist;
pub mod expected;
pub mod graph;
pub mod io;
pub mod mapped;
pub mod mmap;
pub mod sampling;
pub mod snapshot;
pub mod statistics;
pub mod triangles;
pub mod world_cache;

pub use degree_dist::degree_distribution_exact;
pub use expected::{expected_average_degree, expected_degree_variance, expected_num_edges};
pub use graph::{CandidatePairs, UncertainGraph};
pub use io::{
    load_uncertain_edge_list, read_uncertain_edge_list, save_uncertain_edge_list,
    write_uncertain_edge_list,
};
pub use mapped::MappedSnapshot;
pub use mmap::MmapFile;
pub use sampling::sample_indexed_world;
pub use snapshot::{
    decode_snapshot, load_snapshot, save_snapshot, snapshot_bytes, stored_checksum, Checksum64,
    SnapshotError, SnapshotMeta,
};
pub use statistics::{evaluate_uncertain, evaluate_world, StatSuite, UtilityConfig};
pub use triangles::{
    expected_center_paths, expected_center_paths_par, expected_ratio_clustering,
    expected_triangles, expected_triangles_par,
};
pub use world_cache::{Release, WorldCache, WorldStat, WorldStats};
