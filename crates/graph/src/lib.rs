//! Graph substrate for `obfugraph`.
//!
//! Compact undirected graphs in CSR (compressed sparse row) form, random
//! generators for the synthetic workloads, and the classic graph statistics
//! that the paper's utility evaluation needs (Section 6): degrees,
//! components, triangles / clustering coefficient, and exact shortest-path
//! distance distributions for validation of the HyperANF estimates.
//!
//! # Example
//!
//! ```
//! use obf_graph::{bfs_distances, triangle_count, Graph};
//!
//! // A triangle with a pendant vertex.
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.degree(2), 3);
//! assert_eq!(triangle_count(&g), 1);
//!
//! let d = bfs_distances(&g, 0);
//! assert_eq!(d[3], 2); // 0 → 2 → 3
//! ```

pub mod alias;
pub mod builder;
pub mod components;
pub mod degstats;
pub mod delta;
pub mod distance;
pub mod extras;
pub mod extsort;
pub mod generators;
pub mod graph;
pub mod hashers;
pub mod io;
pub mod parallel;
pub mod traversal;
pub mod triangles;

pub use alias::AliasTable;
pub use builder::GraphBuilder;
pub use components::{connected_components, largest_component_size, num_components, UnionFind};
pub use degstats::DegreeStats;
pub use delta::EdgeBatch;
pub use distance::{exact_distance_distribution, sampled_distance_distribution, DistanceStats};
pub use extras::{core_numbers, degeneracy, degree_assortativity, pagerank};
pub use extsort::{ExternalSorter, Record, SortedRecords};
pub use graph::Graph;
pub use hashers::{splitmix64, FxBuildHasher, FxHashMap, FxHashSet};
pub use parallel::{pipeline, stream_seed, Parallelism};
pub use traversal::{bfs_distances, bfs_from};
pub use triangles::{global_clustering_coefficient, local_clustering_coefficients, triangle_count};

/// An unordered pair of distinct vertices, stored with the smaller id
/// first so it can be used as a canonical hash/set key for edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexPair {
    lo: u32,
    hi: u32,
}

impl VertexPair {
    /// Canonicalises `(u, v)`.
    ///
    /// # Panics
    /// Panics if `u == v` (self loops are not representable).
    #[inline]
    pub fn new(u: u32, v: u32) -> Self {
        assert_ne!(u, v, "self loops are not valid vertex pairs");
        if u < v {
            Self { lo: u, hi: v }
        } else {
            Self { lo: v, hi: u }
        }
    }

    #[inline]
    pub fn lo(&self) -> u32 {
        self.lo
    }

    #[inline]
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// The pair as a tuple `(lo, hi)`.
    #[inline]
    pub fn as_tuple(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_pair_canonical() {
        assert_eq!(VertexPair::new(5, 2), VertexPair::new(2, 5));
        assert_eq!(VertexPair::new(5, 2).as_tuple(), (2, 5));
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn vertex_pair_rejects_loops() {
        let _ = VertexPair::new(3, 3);
    }
}
