//! Property tests of the evolving-graph pipeline: delta-applied CSR
//! structures are bit-identical to from-scratch rebuilds, and the
//! patched adversary check is bit-identical to a fresh build — entropy
//! by entropy, verdict by verdict, at 1 and 4 threads.

use obf_core::adversary::AdversaryTable;
use obf_core::{DegreeProfile, MemoizedAdversary, ObfuscationCheck};
use obf_evolve::{DeltaLog, IncrementalAdversary};
use obf_graph::{EdgeBatch, Graph, Parallelism};
use obf_uncertain::UncertainGraph;
use proptest::prelude::*;

/// A graph plus a batch that is consistent with it (inserts absent,
/// deletes present).
fn arb_graph_and_batch() -> impl Strategy<Value = (Graph, EdgeBatch)> {
    (4usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 1..4 * n);
        let extra = proptest::collection::vec((0..n as u32, 0..n as u32), 0..n);
        let drops = proptest::collection::vec(any::<u8>(), 0..n);
        (edges, extra, drops).prop_map(move |(edges, extra, drops)| {
            let g = Graph::from_edges(
                n,
                &edges
                    .iter()
                    .copied()
                    .filter(|(u, v)| u != v)
                    .collect::<Vec<_>>(),
            );
            // Deletes: a pseudo-random subset of existing edges.
            let all: Vec<(u32, u32)> = g.edges().collect();
            let mut deletes = Vec::new();
            for (i, &b) in drops.iter().enumerate() {
                if !all.is_empty() && b & 1 == 1 {
                    let e = all[(i * 7 + b as usize) % all.len()];
                    if !deletes.contains(&e) {
                        deletes.push(e);
                    }
                }
            }
            // Inserts: candidate pairs that are non-edges and not
            // already picked.
            let mut inserts = Vec::new();
            for (u, v) in extra {
                if u == v || g.has_edge(u, v) {
                    continue;
                }
                let pair = (u.min(v), u.max(v));
                if !inserts.contains(&pair) && !deletes.contains(&pair) {
                    inserts.push(pair);
                }
            }
            let batch = EdgeBatch::new(1, inserts, deletes).unwrap();
            (g, batch)
        })
    })
}

/// An uncertain graph plus a canonical sorted change list mixing
/// inserts, overwrites and removals.
fn arb_uncertain_and_delta() -> impl Strategy<Value = (UncertainGraph, Vec<(u32, u32, Option<f64>)>)>
{
    (4usize..32).prop_flat_map(|n| {
        let cands = proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..=1.0), 1..3 * n);
        let edits =
            proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..=1.0, 0u8..4), 0..n);
        (cands, edits).prop_map(move |(cands, edits)| {
            let mut seen = std::collections::HashSet::new();
            let mut list = Vec::new();
            for (u, v, p) in cands {
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                if seen.insert(key) {
                    list.push((key.0, key.1, p));
                }
            }
            let g = UncertainGraph::new(n, list).unwrap();
            let mut changes: Vec<(u32, u32, Option<f64>)> = Vec::new();
            let mut picked = std::collections::HashSet::new();
            for (u, v, p, kind) in edits {
                if u == v {
                    continue;
                }
                let (lo, hi) = (u.min(v), u.max(v));
                if !picked.insert((lo, hi)) {
                    continue;
                }
                let change = match (kind % 4, g.is_candidate(lo, hi)) {
                    (0, true) => Some((lo, hi, None)),     // remove
                    (_, true) => Some((lo, hi, Some(p))),  // overwrite
                    (_, false) => Some((lo, hi, Some(p))), // insert
                };
                if let Some(c) = change {
                    changes.push(c);
                }
            }
            changes.sort_by_key(|&(u, v, _)| (u, v));
            (g, changes)
        })
    })
}

/// The candidate list after applying `changes` — the reference a
/// from-scratch `UncertainGraph::new` rebuild starts from.
fn merged_candidates(
    g: &UncertainGraph,
    changes: &[(u32, u32, Option<f64>)],
) -> Vec<(u32, u32, f64)> {
    let mut map: std::collections::BTreeMap<(u32, u32), f64> =
        g.candidate_pairs().map(|(u, v, p)| ((u, v), p)).collect();
    for &(u, v, p) in changes {
        match p {
            Some(p) => {
                map.insert((u, v), p);
            }
            None => {
                map.remove(&(u, v));
            }
        }
    }
    map.into_iter().map(|((u, v), p)| (u, v, p)).collect()
}

/// A Definition 2 verdict as bits: `(degree, H)` pairs, ε̃ and the
/// failed-vertex count, every float compared by `to_bits`.
fn check_bits(c: &ObfuscationCheck) -> (Vec<(usize, u64)>, u64, usize) {
    (
        c.entropy_by_degree
            .iter()
            .map(|&(d, h)| (d, h.to_bits()))
            .collect(),
        c.eps_achieved.to_bits(),
        c.failed_vertices,
    )
}

/// The exhaustive Definition 2 verdict: every full row of `table`
/// through the shared `from_entropies` tail.
fn oracle(
    profile: &DegreeProfile,
    table: &AdversaryTable,
    k: usize,
    par: &Parallelism,
) -> ObfuscationCheck {
    ObfuscationCheck::from_entropies(profile, table.entropies(profile.distinct(), par), k)
}

/// The incremental check equals the exhaustive one bit for bit on the
/// edge cases the random batches rarely hit: the empty graph, and a
/// patch that raises a hub past the accumulator cap.
#[test]
fn check_matches_exhaustive_on_empty_graph_and_cap_growth() {
    for threads in [1usize, 4] {
        for chunk in [1usize, 2, 3, 64] {
            let par = Parallelism::new(threads).with_chunk_size(chunk);

            let empty = UncertainGraph::new(0, vec![]).unwrap();
            let profile = DegreeProfile::new(&Graph::empty(0));
            let inc = IncrementalAdversary::build(&empty, &par);
            let table = AdversaryTable::build(&empty);
            for k in [1usize, 3] {
                let want = oracle(&profile, &table, k, &par);
                assert_eq!(check_bits(&inc.check(&profile, k)), check_bits(&want));
            }

            // Vertex 5 grows from 1 to 4 incident candidates.
            let g =
                UncertainGraph::new(8, vec![(0, 5, 0.5), (1, 2, 0.8), (3, 4, 0.6), (6, 7, 0.3)])
                    .unwrap();
            let mut inc = IncrementalAdversary::build(&g, &par);
            let cap = inc.omega_cap();
            let g2 = g
                .apply_delta(&[(1, 5, Some(0.9)), (2, 5, Some(0.7)), (5, 7, Some(0.4))])
                .unwrap();
            inc.patch(&g2, &[1, 2, 5, 7], &par);
            assert!(inc.omega_cap() > cap, "threads={threads} chunk={chunk}");
            let original = Graph::from_edges(8, &[(0, 5), (1, 5), (2, 5), (1, 2), (3, 4), (6, 7)]);
            let profile = DegreeProfile::new(&original);
            let table = AdversaryTable::build(&g2);
            for k in 1..=4 {
                let want = oracle(&profile, &table, k, &par);
                assert_eq!(
                    check_bits(&inc.check(&profile, k)),
                    check_bits(&want),
                    "threads={threads} chunk={chunk} k={k}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Delta-applied `Graph` CSR == from-scratch rebuild, including a
    /// round trip through the delta-log text format.
    #[test]
    fn graph_delta_equals_rebuild((g, batch) in arb_graph_and_batch()) {
        let applied = g.apply_batch(&batch).unwrap();
        let mut edges: std::collections::BTreeSet<(u32, u32)> = g.edges().collect();
        for &e in &batch.deletes {
            edges.remove(&e);
        }
        for &e in &batch.inserts {
            edges.insert(e);
        }
        let rebuilt = Graph::from_edges(
            g.num_vertices(),
            &edges.iter().copied().collect::<Vec<_>>(),
        );
        prop_assert_eq!(&applied, &rebuilt);

        // The same batch survives log serialisation byte-exactly.
        let log = DeltaLog::new(g.num_vertices(), vec![batch.clone()]).unwrap();
        let mut buf = Vec::new();
        log.write(&mut buf).unwrap();
        let back = DeltaLog::read(&buf[..]).unwrap();
        prop_assert_eq!(&back, &log);
        prop_assert_eq!(back.replay(&g).unwrap().pop().unwrap(), rebuilt);
    }

    /// Delta-applied `UncertainGraph` CSR == from-scratch rebuild: the
    /// candidate stream, and every incidence row, probabilities by bits.
    #[test]
    fn uncertain_delta_equals_rebuild((g, changes) in arb_uncertain_and_delta()) {
        let applied = g.apply_delta(&changes).unwrap();
        let rebuilt =
            UncertainGraph::new(g.num_vertices(), merged_candidates(&g, &changes)).unwrap();
        let bits = |probs: &[f64]| probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for v in 0..g.num_vertices() as u32 {
            prop_assert_eq!(applied.incident_targets(v), rebuilt.incident_targets(v));
            prop_assert_eq!(bits(applied.incident_probs(v)), bits(rebuilt.incident_probs(v)));
        }
        prop_assert_eq!(applied, rebuilt);
    }

    /// Patched adversary state == from-scratch build: entropies, ε̃ and
    /// verdict bit-identical, at threads ∈ {1, 4} and across chunk
    /// sizes.
    #[test]
    fn patched_adversary_is_bit_identical(
        (g, changes) in arb_uncertain_and_delta(),
        threads_idx in 0usize..2,
        chunk_idx in 0usize..3,
        k in 2usize..6,
    ) {
        let threads = [1usize, 4][threads_idx];
        let chunk = [1usize, 3, 64][chunk_idx];
        let par = Parallelism::new(threads).with_chunk_size(chunk);
        let g2 = g.apply_delta(&changes).unwrap();
        let mut touched: Vec<u32> =
            changes.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        touched.sort_unstable();
        touched.dedup();

            let mut inc = IncrementalAdversary::build(&g, &par);
        inc.patch(&g2, &touched, &par);
        let fresh = IncrementalAdversary::build(&g2, &par);

        let omegas: Vec<usize> = (0..=inc.omega_cap()).collect();
        prop_assert_eq!(inc.entropies(&omegas), fresh.entropies(&omegas));

        // Agreement with both from-scratch check implementations, over
        // an "original" graph read off the published candidates.
        let original = Graph::from_edges(
            g2.num_vertices(),
            &g2.candidate_pairs()
                .filter(|&(_, _, p)| p > 0.5)
                .map(|(u, v, _)| (u, v))
                .collect::<Vec<_>>(),
        );
        let profile = DegreeProfile::new(&original);
        let got = inc.check(&profile, k);
        let table = AdversaryTable::build(&g2);
        let want = oracle(&profile, &table, k, &par);
        prop_assert_eq!(check_bits(&got), check_bits(&want));

        // And with the σ-search fast path's memoized table.
        let mut memo = MemoizedAdversary::new(&g2, profile.max_degree(), &par);
        let distinct = profile.distinct().to_vec();
        prop_assert_eq!(
            inc.entropies(&distinct),
            memo.entropies(&distinct, &par)
        );
    }

    /// The patched check is also bit-identical across thread counts:
    /// the same chunk size at 1 and 4 threads gives the same bits.
    #[test]
    fn patched_check_thread_count_invariant(
        (g, changes) in arb_uncertain_and_delta(),
        chunk_idx in 0usize..2,
    ) {
        let chunk = [2usize, 64][chunk_idx];
        let g2 = g.apply_delta(&changes).unwrap();
        let mut touched: Vec<u32> =
            changes.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        touched.sort_unstable();
        touched.dedup();
        let runs: Vec<Vec<f64>> = [1usize, 4]
            .iter()
            .map(|&t| {
                let par = Parallelism::new(t).with_chunk_size(chunk);
                let mut inc = IncrementalAdversary::build(&g, &par);
                inc.patch(&g2, &touched, &par);
                let omegas: Vec<usize> = (0..=inc.omega_cap()).collect();
                inc.entropies(&omegas)
            })
            .collect();
        prop_assert_eq!(&runs[0], &runs[1]);
    }
}
