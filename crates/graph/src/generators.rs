//! Random and deterministic graph generators.
//!
//! The paper evaluates on three large social networks (dblp, flickr,
//! Y360). Those datasets are not redistributable, so the experiment
//! harness synthesises graphs with the same *shape*: skewed (power-law)
//! degree distributions, tunable density and clustering. This module
//! provides the standard generative models used for that, plus small
//! deterministic families for tests.

use rand::Rng;

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::hashers::FxHashSet;

/// Erdős–Rényi `G(n, p)`: each pair independently an edge with
/// probability `p`.
///
/// Uses geometric skipping, so the cost is `O(n + m)` rather than
/// `O(n²)` for sparse graphs.
pub fn erdos_renyi_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    let mut b = GraphBuilder::new(n);
    if n < 2 || p == 0.0 {
        return b.build();
    }
    if p >= 1.0 {
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                b.add_edge(u, v);
            }
        }
        return b.build();
    }
    // Iterate pairs in lexicographic order, skipping ahead geometrically.
    let log1p = (1.0 - p).ln();
    let total_pairs = n as u64 * (n as u64 - 1) / 2;
    let mut idx: u64 = 0;
    loop {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip = (u.ln() / log1p).floor() as u64 + 1;
        idx = match idx.checked_add(skip) {
            Some(i) => i,
            None => break,
        };
        if idx > total_pairs {
            break;
        }
        let (a, bv) = pair_from_index(n as u64, idx - 1);
        b.add_edge(a as u32, bv as u32);
    }
    b.build()
}

/// Maps a linear index in `0..C(n,2)` to the lexicographic pair `(u, v)`.
fn pair_from_index(n: u64, idx: u64) -> (u64, u64) {
    // Analytic inversion of idx = u*(2n - u - 1)/2, then a short scan to
    // correct floating-point error in the initial guess.
    let nf = n as f64;
    let guess = (nf - 0.5) - ((nf - 0.5) * (nf - 0.5) - 2.0 * idx as f64).max(0.0).sqrt();
    let mut u = guess.floor().max(0.0) as u64;
    loop {
        let start = u * (2 * n - u - 1) / 2;
        let end = (u + 1) * (2 * n - u - 2) / 2;
        if idx < start {
            u -= 1;
        } else if idx >= end {
            u += 1;
        } else {
            let v = u + 1 + (idx - start);
            return (u, v);
        }
    }
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly.
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max_m, "requested {m} edges but only {max_m} possible");
    let mut b = GraphBuilder::with_capacity(n, m);
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    seen.reserve(m * 2);
    while seen.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m0 = m_attach + 1` vertices, then each new vertex attaches to
/// `m_attach` existing vertices chosen proportionally to degree.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m_attach: usize, rng: &mut R) -> Graph {
    assert!(m_attach >= 1, "attachment count must be >= 1");
    assert!(
        n > m_attach,
        "need more vertices ({n}) than attachments ({m_attach})"
    );
    let mut b = GraphBuilder::with_capacity(n, n * m_attach);
    // Repeated-endpoints list: sampling a uniform element is sampling
    // proportional to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m_attach);
    let m0 = m_attach + 1;
    for u in 0..m0 as u32 {
        for v in u + 1..m0 as u32 {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut targets: FxHashSet<u32> = FxHashSet::default();
    for new in m0 as u32..n as u32 {
        targets.clear();
        while targets.len() < m_attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            targets.insert(t);
        }
        // audit:allow(map-iter, FxHashSet with the fixed-key FxHasher iterates deterministically for a fixed insertion sequence; sorting here would reorder the endpoints list and change every seeded graph downstream, breaking the pinned digests)
        for &t in &targets {
            b.add_edge(new, t);
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Holme–Kim "power-law cluster" model: preferential attachment where,
/// after each preferential link, a triad-closing step connects to a random
/// neighbour of the previous target with probability `p_triad`. Produces
/// power-law degrees with tunable clustering.
pub fn holme_kim<R: Rng + ?Sized>(n: usize, m_attach: usize, p_triad: f64, rng: &mut R) -> Graph {
    assert!(m_attach >= 1, "attachment count must be >= 1");
    assert!(n > m_attach, "need more vertices than attachments");
    assert!((0.0..=1.0).contains(&p_triad), "p_triad must be in [0,1]");
    let mut b = GraphBuilder::with_capacity(n, n * m_attach);
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m_attach);
    // Adjacency built incrementally for triad closure.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let m0 = m_attach + 1;
    let add = |b: &mut GraphBuilder,
               adj: &mut Vec<Vec<u32>>,
               endpoints: &mut Vec<u32>,
               u: u32,
               v: u32| {
        b.add_edge(u, v);
        adj[u as usize].push(v);
        adj[v as usize].push(u);
        endpoints.push(u);
        endpoints.push(v);
    };
    for u in 0..m0 as u32 {
        for v in u + 1..m0 as u32 {
            add(&mut b, &mut adj, &mut endpoints, u, v);
        }
    }
    let mut linked: FxHashSet<u32> = FxHashSet::default();
    for new in m0 as u32..n as u32 {
        linked.clear();
        let mut last_target: Option<u32> = None;
        let mut added = 0usize;
        // Guard against pathological loops on tiny graphs.
        let mut attempts = 0usize;
        while added < m_attach && attempts < 50 * m_attach {
            attempts += 1;
            let use_triad = last_target.is_some() && rng.gen::<f64>() < p_triad;
            let candidate = if use_triad {
                let lt = last_target.unwrap();
                let nb = &adj[lt as usize];
                nb[rng.gen_range(0..nb.len())]
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if candidate == new || linked.contains(&candidate) {
                continue;
            }
            linked.insert(candidate);
            add(&mut b, &mut adj, &mut endpoints, new, candidate);
            last_target = Some(candidate);
            added += 1;
        }
    }
    b.build()
}

/// Community ("caveman-with-noise") model: the vertex set is partitioned
/// into communities whose sizes follow a truncated power law
/// `P(s) ∝ s^(−gamma)` on `[s_min, s_max]`; within a community each pair
/// is an edge with probability `p_in`; on top, `inter_per_vertex · n`
/// uniformly random pairs are added across the graph.
///
/// This is the recipe that reproduces the dblp/flickr dataset *shapes*
/// (skewed degrees from size-biased community membership, high tunable
/// clustering from the near-clique communities) — see obf-datasets.
#[allow(clippy::too_many_arguments)]
pub fn community_model<R: Rng + ?Sized>(
    n: usize,
    gamma: f64,
    s_min: usize,
    s_max: usize,
    p_in: f64,
    inter_per_vertex: f64,
    rng: &mut R,
) -> Graph {
    assert!(gamma > 0.0, "gamma must be positive");
    assert!(1 <= s_min && s_min <= s_max, "need 1 <= s_min <= s_max");
    assert!((0.0..=1.0).contains(&p_in), "p_in must be in [0,1]");
    assert!(inter_per_vertex >= 0.0, "inter_per_vertex must be >= 0");
    let mut b = GraphBuilder::new(n);
    if n == 0 {
        return b.build();
    }
    // Community size CDF.
    let weights: Vec<f64> = (s_min..=s_max).map(|s| (s as f64).powf(-gamma)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    // Partition 0..n into consecutive communities.
    let mut assigned = 0usize;
    while assigned < n {
        let u: f64 = rng.gen();
        let k = cdf.partition_point(|&c| c < u);
        let s = (s_min + k.min(cdf.len() - 1)).min(n - assigned).max(1);
        let (lo, hi) = (assigned, assigned + s);
        for u in lo..hi {
            for v in u + 1..hi {
                if rng.gen::<f64>() < p_in {
                    b.add_edge(u as u32, v as u32);
                }
            }
        }
        assigned += s;
    }
    // Inter-community noise.
    let inter = (inter_per_vertex * n as f64).round() as usize;
    for _ in 0..inter {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Path graph `P_n` (n-1 edges).
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 1..n as u32 {
        b.add_edge(u - 1, u);
    }
    b.build()
}

/// Cycle graph `C_n`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        b.add_edge(u, (u + 1) % n as u32);
    }
    b.build()
}

/// Star graph: vertex 0 connected to all others.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(0, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = erdos_renyi_gnp(400, 0.05, &mut rng);
        let expect = 0.05 * (400.0 * 399.0 / 2.0);
        let m = g.num_edges() as f64;
        assert!((m - expect).abs() < 4.0 * (expect * 0.95).sqrt(), "m={m}");
        g.validate().unwrap();
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(erdos_renyi_gnp(50, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(erdos_renyi_gnp(10, 1.0, &mut rng).num_edges(), 45);
        assert_eq!(erdos_renyi_gnp(1, 0.5, &mut rng).num_edges(), 0);
    }

    #[test]
    fn pair_index_bijection() {
        let n = 13u64;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..n * (n - 1) / 2 {
            let (u, v) = pair_from_index(n, idx);
            assert!(u < v && v < n, "idx={idx} -> ({u},{v})");
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = erdos_renyi_gnm(100, 250, &mut rng);
        assert_eq!(g.num_edges(), 250);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn gnm_rejects_too_many_edges() {
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = erdos_renyi_gnm(4, 7, &mut rng);
    }

    #[test]
    fn ba_edge_count_and_connectivity() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (n, m_attach) = (500, 3);
        let g = barabasi_albert(n, m_attach, &mut rng);
        // Clique edges + m_attach per added vertex.
        let m0 = m_attach + 1;
        assert_eq!(g.num_edges(), m0 * (m0 - 1) / 2 + (n - m0) * m_attach);
        assert_eq!(crate::components::num_components(&g), 1);
        g.validate().unwrap();
    }

    #[test]
    fn ba_degrees_skewed() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = barabasi_albert(2000, 2, &mut rng);
        let max_d = g.max_degree();
        let avg = g.average_degree();
        assert!(max_d as f64 > 8.0 * avg, "max={max_d} avg={avg}");
    }

    #[test]
    fn holme_kim_has_higher_clustering_than_ba() {
        let mut rng = SmallRng::seed_from_u64(7);
        let hk = holme_kim(1500, 3, 0.9, &mut rng);
        let ba = barabasi_albert(1500, 3, &mut rng);
        let cc_hk = crate::triangles::global_clustering_coefficient(&hk);
        let cc_ba = crate::triangles::global_clustering_coefficient(&ba);
        assert!(cc_hk > 2.0 * cc_ba, "hk={cc_hk} ba={cc_ba}");
        hk.validate().unwrap();
    }

    #[test]
    fn community_model_clustering_tunable() {
        let mut rng = SmallRng::seed_from_u64(31);
        let dense = community_model(2000, 3.5, 3, 60, 0.95, 0.8, &mut rng);
        let sparse = community_model(2000, 3.5, 3, 60, 0.2, 0.8, &mut rng);
        let cc_dense = crate::triangles::global_clustering_coefficient(&dense);
        let cc_sparse = crate::triangles::global_clustering_coefficient(&sparse);
        assert!(cc_dense > 0.25, "cc_dense={cc_dense}");
        assert!(
            cc_dense > 2.0 * cc_sparse,
            "dense={cc_dense} sparse={cc_sparse}"
        );
        dense.validate().unwrap();
    }

    #[test]
    fn community_model_zero_noise_is_disjoint_cliquesish() {
        let mut rng = SmallRng::seed_from_u64(32);
        let g = community_model(300, 3.0, 4, 10, 1.0, 0.0, &mut rng);
        // p_in = 1, no inter edges: every component is a clique.
        let (labels, sizes) = crate::components::connected_components(&g);
        for v in 0..300u32 {
            let comp = labels[v as usize];
            assert_eq!(g.degree(v), sizes[comp as usize] - 1);
        }
    }

    #[test]
    fn community_model_degenerate() {
        let mut rng = SmallRng::seed_from_u64(33);
        let g = community_model(0, 2.0, 2, 5, 0.5, 1.0, &mut rng);
        assert_eq!(g.num_vertices(), 0);
        let g = community_model(1, 2.0, 1, 1, 0.5, 0.0, &mut rng);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn deterministic_families() {
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(star(5).degree(0), 4);
    }

    #[test]
    fn generators_deterministic_under_seed() {
        let g1 = barabasi_albert(200, 2, &mut SmallRng::seed_from_u64(42));
        let g2 = barabasi_albert(200, 2, &mut SmallRng::seed_from_u64(42));
        assert_eq!(g1, g2);
    }
}
