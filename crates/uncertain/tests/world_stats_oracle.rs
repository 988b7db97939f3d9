//! Oracle test of the world-statistics memo: every value the
//! [`WorldCache`] serves — on a miss and on a hit — must be bit-equal
//! to the statistic computed on the sampled world itself.

use std::sync::Arc;

use obf_graph::{global_clustering_coefficient, DegreeStats, Graph};
use obf_obs::metrics::text_value;
use obf_obs::Registry;
use obf_uncertain::{sample_indexed_world, UncertainGraph, WorldCache, WorldStat};
use proptest::prelude::*;

/// The per-world computation the memo replaces.
fn world_value(stat: WorldStat, world: &Graph) -> f64 {
    match stat {
        WorldStat::NumEdges => world.num_edges() as f64,
        WorldStat::AvgDegree => world.average_degree(),
        WorldStat::MaxDegree => world.max_degree() as f64,
        WorldStat::DegreeVariance => DegreeStats::of(world).degree_variance,
        WorldStat::Clustering => global_clustering_coefficient(world),
    }
}

/// Random uncertain graphs on `0..max_n` vertices (so `n = 0` and
/// `n = 1` occur), with probabilities drawn from `{0, 1}` as often as
/// from the open range, so edgeless and certain worlds both show up.
fn arb_uncertain(max_n: usize) -> impl Strategy<Value = UncertainGraph> {
    (0usize..max_n).prop_flat_map(|n| {
        let vertex = 0..n.max(1) as u32;
        let p = (0u8..3, 0.0f64..=1.0).prop_map(|(kind, p)| match kind {
            0 => 0.0,
            1 => 1.0,
            _ => p,
        });
        proptest::collection::vec((vertex.clone(), vertex, p), 0..4 * n + 1).prop_map(
            move |triples| {
                let mut seen = std::collections::HashSet::new();
                let mut cands = Vec::new();
                for (u, v, p) in triples {
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    if seen.insert(key) {
                        cands.push((key.0, key.1, p));
                    }
                }
                UncertainGraph::new(n, cands).unwrap()
            },
        )
    })
}

fn assert_memo_matches_oracle(ug: UncertainGraph, seed: u64, worlds: usize) {
    let ug = Arc::new(ug);
    let registry = Registry::new();
    let cache = WorldCache::new(Arc::clone(&ug), 1024, &registry);
    let release = cache.current();
    // Two passes: the first fills the memo, the second is all hits.
    for pass in 0..2 {
        for i in 0..worlds {
            let memo = cache.get_or_sample_pinned(&release, seed, i);
            let world = sample_indexed_world(&ug, seed, i);
            for stat in WorldStat::ALL {
                assert_eq!(
                    memo.get(stat).to_bits(),
                    world_value(stat, &world).to_bits(),
                    "{} of world {i} (pass {pass}, seed {seed})",
                    stat.name()
                );
            }
        }
    }
    let text = registry.render_text();
    for name in ["obf_cache_misses_total", "obf_cache_hits_total"] {
        assert_eq!(text_value(&text, name), Some(worlds as u64), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn memo_values_are_bit_equal_to_world_statistics(
        ug in arb_uncertain(24),
        seed in any::<u64>(),
        worlds in 1usize..6,
    ) {
        assert_memo_matches_oracle(ug, seed, worlds);
    }
}

#[test]
fn empty_and_edgeless_graphs_match_the_oracle() {
    assert_memo_matches_oracle(UncertainGraph::new(0, vec![]).unwrap(), 1, 3);
    assert_memo_matches_oracle(UncertainGraph::new(1, vec![]).unwrap(), 2, 3);
    assert_memo_matches_oracle(UncertainGraph::new(5, vec![]).unwrap(), 3, 3);
    // Candidates that never materialise: every world is edgeless.
    let never = UncertainGraph::new(4, vec![(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0)]).unwrap();
    assert_memo_matches_oracle(never, 4, 3);
}
