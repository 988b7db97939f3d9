//! The world-statistics memo is a performance artifact, never a
//! semantic one: a `STAT` transcript is byte-identical whether the
//! memo retains nothing, one world, or everything — warm or cold, with
//! or without a Hoeffding bound, and across a `RELOAD`. And `STAT`
//! estimates from the same worlds as `evaluate_uncertain`, the
//! estimator behind the utility tables.

use std::path::Path;
use std::sync::Arc;

use obf_graph::splitmix64;
use obf_obs::metrics::text_value;
use obf_server::{ServerState, WorldStat};
use obf_uncertain::statistics::{evaluate_uncertain, DistanceEngine, UtilityConfig};
use obf_uncertain::{save_snapshot, SnapshotMeta, UncertainGraph};

const CAPACITIES: [usize; 3] = [0, 1, 1024];

/// A seeded random uncertain graph: each pair is a candidate with
/// probability about `density`, with a hashed existence probability.
fn random_graph(n: u32, density: f64, seed: u64) -> UncertainGraph {
    let mut cands = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let h = splitmix64(seed ^ (u64::from(u) << 32 | u64::from(v)));
            if (h >> 11) as f64 / (1u64 << 53) as f64 <= density {
                cands.push((u, v, (h & 0xffff) as f64 / 65535.0));
            }
        }
    }
    UncertainGraph::new(n as usize, cands).unwrap()
}

/// The `STAT` requests of one release: every statistic, cold then
/// warm, a longer run that is half warm, a fresh seed, each with and
/// without `eps`.
fn stat_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for stat in WorldStat::ALL {
        let name = stat.name();
        for (worlds, seed) in [(12, 7), (12, 7), (24, 7), (5, 99)] {
            lines.push(format!("STAT {name} {worlds} {seed}"));
            lines.push(format!("STAT {name} {worlds} {seed} 0.1"));
        }
    }
    lines
}

/// Replays the script against a fresh server with the given memo
/// capacity: the first release's `STAT`s, a `RELOAD` to `next`, then
/// the same `STAT`s again.
fn transcript(capacity: usize, first: &UncertainGraph, next: &Path) -> Vec<String> {
    let state = ServerState::new(Arc::new(first.clone()), capacity);
    let mut out = Vec::new();
    for line in stat_lines() {
        out.push(state.answer(&line));
    }
    out.push(state.answer(&format!("RELOAD {}", next.display())));
    for line in stat_lines() {
        out.push(state.answer(&line));
    }
    let metrics = state.answer("METRICS");
    let resident = text_value(&metrics, "obf_cache_resident").unwrap();
    let hits = text_value(&metrics, "obf_cache_hits_total").unwrap();
    assert!(
        resident <= capacity as u64,
        "capacity {capacity}: {resident} resident"
    );
    if capacity == 0 {
        assert_eq!(hits, 0);
    } else {
        assert!(hits > 0, "capacity {capacity}: no hits");
    }
    out
}

#[test]
fn stat_transcript_is_independent_of_memo_capacity() {
    let dir = std::env::temp_dir().join(format!("obf_stat_memo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let first = random_graph(40, 0.2, 1);
    // A denser release: its maximum candidate degree differs, so the
    // Hoeffding ranges after the reload differ too.
    let next = random_graph(30, 0.45, 2);
    let ceiling = |g: &UncertainGraph| {
        (0..g.num_vertices() as u32)
            .map(|v| g.incident_count(v))
            .max()
    };
    assert_ne!(ceiling(&first), ceiling(&next));
    let next_path = dir.join("next.snap");
    save_snapshot(&next, SnapshotMeta::default(), &next_path).unwrap();

    let reference = transcript(CAPACITIES[0], &first, &next_path);
    assert!(
        reference.iter().all(|r| r.starts_with("OK ")),
        "{reference:?}"
    );
    for capacity in &CAPACITIES[1..] {
        assert_eq!(
            transcript(*capacity, &first, &next_path),
            reference,
            "capacity {capacity}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The `mean=` field of an `OK mean=… std=…` reply.
fn reply_mean(reply: &str) -> f64 {
    let field = reply
        .split_whitespace()
        .find_map(|f| f.strip_prefix("mean="))
        .unwrap_or_else(|| panic!("no mean in {reply:?}"));
    field.parse().unwrap()
}

#[test]
fn stat_means_equal_evaluate_uncertain_means_bit_for_bit() {
    // Both fold world i = 0, 1, … of the (seed, i) stream in order, and
    // `mean=` prints the shortest form that parses back to the same f64.
    let g = random_graph(30, 0.3, 5);
    let state = ServerState::new(Arc::new(g.clone()), 64);
    let cfg = UtilityConfig {
        distance: DistanceEngine::Exact,
        ..UtilityConfig::default()
    };
    for (worlds, seed) in [(1, 3), (17, 3), (40, 11)] {
        let suites = evaluate_uncertain(&g, worlds, seed, &cfg);
        let mean_of = |f: fn(&obf_uncertain::StatSuite) -> f64| {
            suites.iter().map(f).sum::<f64>() / worlds as f64
        };
        for (stat, expected) in [
            ("num_edges", mean_of(|s| s.num_edges)),
            ("clustering", mean_of(|s| s.clustering_coefficient)),
        ] {
            let reply = state.answer(&format!("STAT {stat} {worlds} {seed}"));
            assert_eq!(
                reply_mean(&reply).to_bits(),
                expected.to_bits(),
                "STAT {stat} {worlds} {seed}: {reply}"
            );
        }
    }
}
