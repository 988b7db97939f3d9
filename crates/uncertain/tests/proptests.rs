//! Property-based tests of the uncertain-graph substrate.

use obf_uncertain::expected::{
    expected_average_degree, expected_degree_variance, expected_num_edges,
};
use obf_uncertain::UncertainGraph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_uncertain(max_n: usize) -> impl Strategy<Value = UncertainGraph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.0f64..=1.0), 0..4 * n).prop_map(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn expected_degrees_sum_to_twice_mass(ug in arb_uncertain(30)) {
        let total: f64 = (0..ug.num_vertices() as u32)
            .map(|v| ug.expected_degree(v))
            .sum();
        prop_assert!((total - 2.0 * ug.total_probability_mass()).abs() < 1e-9);
        prop_assert!(
            (expected_average_degree(&ug) * ug.num_vertices() as f64 - total).abs() < 1e-9
        );
    }

    #[test]
    fn expected_variance_nonnegative(ug in arb_uncertain(30)) {
        prop_assert!(expected_degree_variance(&ug) >= -1e-9);
    }

    #[test]
    fn world_edges_bounded_by_candidates(ug in arb_uncertain(25), seed in 0u64..400) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = ug.sample_world(&mut rng);
        prop_assert!(w.num_edges() <= ug.num_candidates());
        // Certain candidates always appear.
        for (u, v, p) in ug.candidate_pairs() {
            if p >= 1.0 {
                prop_assert!(w.has_edge(u, v));
            }
            if p <= 0.0 {
                prop_assert!(!w.has_edge(u, v));
            }
        }
    }

    #[test]
    fn monte_carlo_edges_match_expectation(ug in arb_uncertain(16), seed in 0u64..50) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let r = 600;
        let total: usize = (0..r).map(|_| ug.sample_world(&mut rng).num_edges()).sum();
        let mc = total as f64 / r as f64;
        let exact = expected_num_edges(&ug);
        // 5-sigma band: Var <= mass/4 per edge.
        let sd = (ug.num_candidates() as f64 / 4.0 / r as f64).sqrt().max(1e-6);
        prop_assert!((mc - exact).abs() < 5.0 * sd + 0.05, "mc={} exact={}", mc, exact);
    }

    #[test]
    fn io_round_trip(ug in arb_uncertain(20)) {
        let mut buf = Vec::new();
        obf_uncertain::write_uncertain_edge_list(&ug, &mut buf).unwrap();
        let back =
            obf_uncertain::read_uncertain_edge_list(&buf[..], ug.num_vertices()).unwrap();
        prop_assert_eq!(ug, back);
    }

    #[test]
    fn snapshot_round_trip_is_identity(ug in arb_uncertain(30), epoch in 0u64..1000) {
        use obf_uncertain::snapshot::{
            checksum64, decode_snapshot, snapshot_bytes, stored_checksum, SnapshotMeta,
        };
        let meta = SnapshotMeta { epoch, parent_checksum: epoch.wrapping_mul(0x9e37) };
        let bytes = snapshot_bytes(&ug, meta);
        let (back, got) = decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(&ug, &back);
        prop_assert_eq!(got, meta);
        // The stored checksum is the header checksum at byte offset 104.
        let header_checksum = checksum64(&bytes[8..104]);
        prop_assert_eq!(u64::from_le_bytes(bytes[104..112].try_into().unwrap()), header_checksum);
        prop_assert_eq!(stored_checksum(&bytes), Some(header_checksum));
        // And TSV → snapshot → load matches the TSV round trip too.
        let mut tsv = Vec::new();
        obf_uncertain::write_uncertain_edge_list(&ug, &mut tsv).unwrap();
        let from_tsv =
            obf_uncertain::read_uncertain_edge_list(&tsv[..], ug.num_vertices()).unwrap();
        prop_assert_eq!(&from_tsv, &back);
    }

    #[test]
    fn snapshot_rejects_corruption_and_truncation(
        ug in arb_uncertain(16),
        pos_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        use obf_uncertain::snapshot::{decode_snapshot, snapshot_bytes, SnapshotError, SnapshotMeta};
        let bytes = snapshot_bytes(&ug, SnapshotMeta::default());
        // Flip one bit anywhere past the magic: padding flips may pass
        // (they are outside every checksum), but never change the graph.
        let lo = 8;
        let hi = bytes.len();
        let pos = lo + ((pos_frac * (hi - lo) as f64) as usize).min(hi - lo - 1);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        match decode_snapshot(&corrupt) {
            Err(_) => {}
            Ok((g, _)) => prop_assert_eq!(g, ug, "undetected corruption must be a no-op flip"),
        }
        // Truncate anywhere: never accepted.
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let err = decode_snapshot(&bytes[..cut]);
        prop_assert!(err.is_err());
        if cut >= 12 {
            prop_assert!(
                matches!(err, Err(SnapshotError::Truncated { .. })),
                "cut={} expected Truncated", cut
            );
        }
    }

    #[test]
    fn parallel_statistics_bit_identical_across_threads(
        ug in arb_uncertain(14),
        seed in 0u64..500,
    ) {
        use obf_graph::Parallelism;
        use obf_uncertain::statistics::{DistanceEngine, UtilityConfig};
        let cfg = |threads: usize| UtilityConfig {
            distance: DistanceEngine::Exact,
            seed: 9,
            parallelism: Parallelism::new(threads),
        };
        let seq = obf_uncertain::evaluate_uncertain(&ug, 3, seed, &cfg(1));
        for threads in [2usize, 4] {
            let par = obf_uncertain::evaluate_uncertain(&ug, 3, seed, &cfg(threads));
            prop_assert_eq!(&seq, &par, "threads={}", threads);
        }
    }
}
