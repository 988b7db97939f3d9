//! Dataset recipes for the experiment harness.
//!
//! The paper evaluates on three proprietary snapshots:
//!
//! | dataset | n         | m         | avg deg | S_CC |
//! |---------|-----------|-----------|---------|------|
//! | dblp    |   226 413 |   716 460 |  6.33   | 0.38 |
//! | flickr  |   588 166 | 5 801 442 | 19.73   | 0.12 |
//! | Y360    | 1 226 311 | 2 618 645 |  4.27   | 0.04 |
//!
//! None is redistributable, so this crate synthesises seeded graphs with
//! the same *shape* — skewed degree distribution, matched average degree,
//! and qualitatively matched clustering — at a configurable scale
//! (DESIGN.md §4 records the substitution rationale). Real edge lists can
//! be substituted via [`DatasetSpec::from_edge_list`].
//!
//! # Example
//!
//! ```
//! use obf_datasets::dblp_like;
//!
//! // Seeded and deterministic: the same call yields the same graph.
//! let g = dblp_like(500, 7);
//! assert_eq!(g.num_vertices(), 500);
//! assert_eq!(g.num_edges(), dblp_like(500, 7).num_edges());
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use obf_graph::{generators, stream_seed, EdgeBatch, Graph};

/// The three evaluation datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Co-authorship network: sparse, very high clustering.
    Dblp,
    /// Photo-sharing contacts: dense, moderate clustering.
    Flickr,
    /// Yahoo!360 friendship: very sparse, low clustering, easiest to
    /// obfuscate.
    Y360,
}

impl Dataset {
    /// All datasets in the paper's presentation order.
    pub const ALL: [Dataset; 3] = [Dataset::Dblp, Dataset::Flickr, Dataset::Y360];

    /// Display name (lowercase, as in the paper's tables).
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Dblp => "dblp",
            Dataset::Flickr => "flickr",
            Dataset::Y360 => "y360",
        }
    }

    /// Original vertex count in the paper.
    pub fn paper_n(&self) -> usize {
        match self {
            Dataset::Dblp => 226_413,
            Dataset::Flickr => 588_166,
            Dataset::Y360 => 1_226_311,
        }
    }

    /// Original edge count in the paper.
    pub fn paper_m(&self) -> usize {
        match self {
            Dataset::Dblp => 716_460,
            Dataset::Flickr => 5_801_442,
            Dataset::Y360 => 2_618_645,
        }
    }

    /// Average degree in the paper (Table 4 "real" rows).
    pub fn paper_avg_degree(&self) -> f64 {
        2.0 * self.paper_m() as f64 / self.paper_n() as f64
    }

    /// The generator recipe reproducing this dataset's shape at `n`
    /// vertices.
    fn generate(&self, n: usize, rng: &mut SmallRng) -> Graph {
        match self {
            // Co-authorship = near-clique communities (papers/groups):
            // avg degree ~6.3 vs paper 6.33, paper-style S_CC ~0.39 vs
            // 0.38 (tuned at n = 4000..20000).
            Dataset::Dblp => generators::community_model(n, 3.5, 3, 40, 0.95, 0.85, rng),
            // Denser, loosely-knit communities: avg degree 19.6 vs 19.73,
            // S_CC 0.11 vs 0.12.
            Dataset::Flickr => generators::community_model(n, 2.3, 5, 100, 0.45, 3.5, rng),
            // Sparse preferential attachment with strong triad closure:
            // avg degree 4.0 vs 4.27, S_CC 0.038 vs 0.04, heavy-tailed
            // degrees.
            Dataset::Y360 => generators::holme_kim(n, 2, 0.9, rng),
        }
    }

    /// Default scaled-down size used by the experiment binaries.
    pub fn default_scale(&self) -> usize {
        match self {
            Dataset::Dblp => 20_000,
            Dataset::Flickr => 8_000,
            Dataset::Y360 => 30_000,
        }
    }
}

/// A concrete dataset instance: the graph plus provenance.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub dataset: Dataset,
    pub graph: Graph,
    pub seed: u64,
}

impl DatasetSpec {
    /// Synthesises the dataset at `n` vertices with the given seed.
    pub fn synthetic(dataset: Dataset, n: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ dataset.name().len() as u64);
        let graph = dataset.generate(n, &mut rng);
        Self {
            dataset,
            graph,
            seed,
        }
    }

    /// Synthesises at the *paper's* full vertex count
    /// ([`Dataset::paper_n`] — 226 413 vertices for dblp): the input of
    /// the paper-scale Table 3 row (`snapshot_bench --paper-scale`).
    /// Expect seconds of generation time and hundreds of MB of
    /// working set; the scaled-down sizes stay the default everywhere
    /// latency matters.
    pub fn paper_scale(dataset: Dataset, seed: u64) -> Self {
        Self::synthetic(dataset, dataset.paper_n(), seed)
    }

    /// Loads a real edge list to stand in for `dataset`.
    pub fn from_edge_list<P: AsRef<std::path::Path>>(
        dataset: Dataset,
        path: P,
    ) -> Result<Self, obf_graph::io::IoError> {
        let loaded = obf_graph::io::load_edge_list(path)?;
        Ok(Self {
            dataset,
            graph: loaded.graph,
            seed: 0,
        })
    }
}

/// An evolving workload: a base release plus a stream of timestamped
/// delta batches over a fixed vertex set — the input of the
/// `obf_evolve` republish pipeline.
#[derive(Debug, Clone)]
pub struct EvolvingDataset {
    pub dataset: Dataset,
    pub seed: u64,
    /// The first release.
    pub base: Graph,
    /// Consistent, timestamped batches: replaying them in order with
    /// `Graph::apply_batch` never inserts an existing edge or deletes a
    /// missing one.
    pub batches: Vec<EdgeBatch>,
}

impl EvolvingDataset {
    /// Replays every batch, returning one graph per release (the base
    /// first — `out.len() == batches.len() + 1`).
    pub fn releases(&self) -> Vec<Graph> {
        let mut out = Vec::with_capacity(self.batches.len() + 1);
        out.push(self.base.clone());
        for b in &self.batches {
            let next = out
                .last()
                .unwrap()
                .apply_batch(b)
                .expect("generator emits consistent batches");
            out.push(next);
        }
        out
    }
}

/// Deterministically synthesises an evolving version of `dataset`:
/// the usual synthetic base graph at `n` vertices, followed by
/// `num_batches` delta batches each churning roughly `churn · m` edges —
/// three quarters growth (new edges attached preferentially, mimicking
/// how social graphs densify) and one quarter decay (uniformly random
/// removals). Timestamps are one day apart.
///
/// The same `(dataset, n, num_batches, churn, seed)` always yields the
/// same workload, and every batch is consistent with the release it
/// applies to.
///
/// # Examples
///
/// ```
/// use obf_datasets::{evolving_dataset, Dataset};
///
/// let w = evolving_dataset(Dataset::Dblp, 300, 3, 0.02, 7);
/// assert_eq!(w.batches.len(), 3);
/// assert_eq!(w.releases().len(), 4);
/// assert!(w.batches.iter().all(|b| b.num_ops() > 0));
/// ```
pub fn evolving_dataset(
    dataset: Dataset,
    n: usize,
    num_batches: usize,
    churn: f64,
    seed: u64,
) -> EvolvingDataset {
    let base = DatasetSpec::synthetic(dataset, n, seed).graph;
    let mut current = base.clone();
    let mut batches = Vec::with_capacity(num_batches);
    for b in 0..num_batches {
        let mut rng = SmallRng::seed_from_u64(stream_seed(seed ^ 0xEE0, b as u64));
        let m = current.num_edges();
        assert!(m > 0, "evolving base graph has no edges");
        let target_ops = ((churn * m as f64).ceil() as usize).max(4);
        let want_deletes = target_ops / 4;
        let want_inserts = target_ops - want_deletes;

        // Decay: uniformly random existing edges, distinct by index.
        let edges: Vec<(u32, u32)> = current.edges().collect();
        let mut deletes: Vec<(u32, u32)> = Vec::with_capacity(want_deletes);
        let mut picked = vec![false; edges.len()];
        while deletes.len() < want_deletes.min(edges.len()) {
            let i = rng.gen_range(0..edges.len());
            if !picked[i] {
                picked[i] = true;
                deletes.push(edges[i]);
            }
        }

        // Growth: one endpoint degree-biased (an endpoint of a random
        // edge), the other uniform — preferential attachment without an
        // alias table rebuild per batch.
        let mut inserts: Vec<(u32, u32)> = Vec::with_capacity(want_inserts);
        let mut seen = std::collections::HashSet::new();
        let mut attempts = 0usize;
        while inserts.len() < want_inserts && attempts < want_inserts * 60 {
            attempts += 1;
            let (a, b2) = edges[rng.gen_range(0..edges.len())];
            let u = if rng.gen::<bool>() { a } else { b2 };
            let v = rng.gen_range(0..n as u32);
            if u == v || current.has_edge(u, v) {
                continue;
            }
            let pair = if u < v { (u, v) } else { (v, u) };
            // An insert colliding with a delete of this same batch is
            // skipped too: batches keep one meaning per pair.
            if seen.insert(pair) && !deletes.contains(&pair) {
                inserts.push(pair);
            }
        }

        let batch = EdgeBatch::new(86_400 * (b as u64 + 1), inserts, deletes)
            .expect("generated batch is canonical");
        current = current
            .apply_batch(&batch)
            .expect("generated batch is consistent");
        batches.push(batch);
    }
    EvolvingDataset {
        dataset,
        seed,
        base,
        batches,
    }
}

/// Convenience constructors mirroring the paper's dataset names.
pub fn dblp_like(n: usize, seed: u64) -> Graph {
    DatasetSpec::synthetic(Dataset::Dblp, n, seed).graph
}

/// See [`dblp_like`].
pub fn flickr_like(n: usize, seed: u64) -> Graph {
    DatasetSpec::synthetic(Dataset::Flickr, n, seed).graph
}

/// See [`dblp_like`].
pub fn y360_like(n: usize, seed: u64) -> Graph {
    DatasetSpec::synthetic(Dataset::Y360, n, seed).graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_graph::triangles::global_clustering_coefficient;

    #[test]
    fn average_degrees_match_paper_shape() {
        let dblp = dblp_like(4000, 1);
        let flickr = flickr_like(3000, 1);
        let y360 = y360_like(4000, 1);
        assert!(
            (dblp.average_degree() - 6.33).abs() < 1.0,
            "dblp avg={}",
            dblp.average_degree()
        );
        assert!(
            (flickr.average_degree() - 19.73).abs() < 3.0,
            "flickr avg={}",
            flickr.average_degree()
        );
        assert!(
            (y360.average_degree() - 4.27).abs() < 1.0,
            "y360 avg={}",
            y360.average_degree()
        );
    }

    #[test]
    fn clustering_ordering_matches_paper() {
        // Paper: CC(dblp)=0.38 > CC(flickr)=0.12 > CC(y360)=0.04.
        let dblp = global_clustering_coefficient(&dblp_like(4000, 2));
        let flickr = global_clustering_coefficient(&flickr_like(2500, 2));
        let y360 = global_clustering_coefficient(&y360_like(4000, 2));
        assert!(
            dblp > flickr && flickr > y360,
            "dblp={dblp} flickr={flickr} y360={y360}"
        );
        assert!(dblp > 0.15, "dblp clustering too low: {dblp}");
        assert!(y360 < 0.1, "y360 clustering too high: {y360}");
    }

    #[test]
    fn degree_distributions_are_skewed() {
        // Overdispersion relative to a Poisson graph (variance ~= mean):
        // all three datasets must have clearly heavy-tailed degrees.
        for ds in Dataset::ALL {
            let g = DatasetSpec::synthetic(ds, 3000, 3).graph;
            let stats = obf_graph::DegreeStats::of(&g);
            assert!(
                stats.degree_variance > 2.0 * stats.average_degree,
                "{}: var={} avg={}",
                ds.name(),
                stats.degree_variance,
                stats.average_degree
            );
            assert!(
                stats.max_degree > 2.5 * stats.average_degree,
                "{}: max={} avg={}",
                ds.name(),
                stats.max_degree,
                stats.average_degree
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = dblp_like(1000, 7);
        let b = dblp_like(1000, 7);
        let c = dblp_like(1000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn paper_metadata() {
        assert_eq!(Dataset::Dblp.paper_n(), 226_413);
        assert!((Dataset::Flickr.paper_avg_degree() - 19.73).abs() < 0.01);
        assert_eq!(Dataset::Y360.name(), "y360");
    }

    #[test]
    fn evolving_workload_is_deterministic_and_consistent() {
        let a = evolving_dataset(Dataset::Dblp, 400, 4, 0.02, 9);
        let b = evolving_dataset(Dataset::Dblp, 400, 4, 0.02, 9);
        assert_eq!(a.base, b.base);
        assert_eq!(a.batches, b.batches);
        assert_ne!(
            a.batches,
            evolving_dataset(Dataset::Dblp, 400, 4, 0.02, 10).batches
        );
        // Batches replay cleanly (releases() asserts consistency) and
        // the workload is growth-dominated.
        let releases = a.releases();
        assert_eq!(releases.len(), 5);
        assert!(releases.last().unwrap().num_edges() > a.base.num_edges());
        for (b, ts) in a.batches.iter().zip([86_400u64, 172_800, 259_200, 345_600]) {
            assert_eq!(b.timestamp, ts);
            assert!(b.inserts.len() >= b.deletes.len());
            assert!(b.num_ops() > 0);
        }
    }

    #[test]
    fn connectivity_is_high() {
        // The community models may leave a handful of satellite
        // components; the giant component must still dominate.
        for ds in Dataset::ALL {
            let g = DatasetSpec::synthetic(ds, 2000, 4).graph;
            let giant = obf_graph::largest_component_size(&g);
            assert!(giant as f64 > 0.95 * 2000.0, "{}: giant={giant}", ds.name());
        }
    }
}
