//! Each release computes its exact whole-graph answers — `INFO`'s
//! probability mass and the four `EXPECTED` statistics — once, and then
//! serves them from the release. Served over TCP, they must carry the
//! same bits as the direct `obf_uncertain` functions on a heap (TSV)
//! and an mmap (v3) release, a repeated request must repeat its reply
//! byte for byte, and a connection keeps its pinned release's values
//! after another connection's `RELOAD`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use obf_graph::splitmix64;
use obf_server::{load_published_graph_with_source, Client, GraphSource, Server, ServerConfig};
use obf_uncertain::{
    expected_average_degree, expected_degree_variance, expected_num_edges, expected_triangles,
    save_snapshot, save_uncertain_edge_list, SnapshotMeta, UncertainGraph,
};

/// The requests whose answers a release computes once.
const LINES: [&str; 5] = [
    "INFO",
    "EXPECTED num_edges",
    "EXPECTED avg_degree",
    "EXPECTED degree_variance",
    "EXPECTED triangles",
];

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

/// The direct functions' values, in [`LINES`] order.
fn direct(g: &UncertainGraph) -> [f64; 5] {
    [
        g.total_probability_mass(),
        expected_num_edges(g),
        expected_average_degree(g),
        expected_degree_variance(g),
        expected_triangles(g),
    ]
}

/// Sends [`LINES`] and returns the raw replies.
fn replies(c: &mut Client) -> Vec<String> {
    LINES.iter().map(|line| c.request(line).unwrap()).collect()
}

/// The value each reply carries: `INFO`'s `mass=` field, or the
/// `EXPECTED` number.
fn values(replies: &[String]) -> Vec<f64> {
    replies
        .iter()
        .map(|r| {
            let body = r.strip_prefix("OK ").unwrap_or_else(|| panic!("{r}"));
            let text = body
                .split_whitespace()
                .find_map(|f| f.strip_prefix("mass="))
                .unwrap_or(body);
            text.parse::<f64>().unwrap_or_else(|e| panic!("{r}: {e}"))
        })
        .collect()
}

fn assert_bits(served: &[f64], want: [f64; 5]) {
    for ((line, got), want) in LINES.iter().zip(served).zip(want) {
        assert_eq!(got.to_bits(), want.to_bits(), "{line}: {got} vs {want}");
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obf_release_memo_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Loads a release file the way `obf_server` and `RELOAD` do and
/// serves it from a fresh server.
fn serve(path: &Path) -> (Server, UncertainGraph, GraphSource) {
    let (g, _, source) = load_published_graph_with_source(path.to_str().unwrap()).unwrap();
    let loaded = g.clone();
    let server = Server::bind_with(Arc::new(g), "127.0.0.1:0", ServerConfig::default()).unwrap();
    (server, loaded, source)
}

#[test]
fn answers_carry_the_direct_functions_bits_on_heap_and_mmap_releases() {
    let dir = scratch_dir("sources");
    let g = random_graph(50, 0.2, 3);
    let tsv = dir.join("release.tsv");
    let v3 = dir.join("release.snap");
    save_uncertain_edge_list(&g, &tsv).unwrap();
    save_snapshot(&g, SnapshotMeta::default(), &v3).unwrap();
    let mapped = if cfg!(target_endian = "little") {
        GraphSource::Mmap
    } else {
        GraphSource::Heap
    };

    for (path, want_source) in [(&tsv, GraphSource::Heap), (&v3, mapped)] {
        let (server, loaded, source) = serve(path);
        assert_eq!(source, want_source, "{}", path.display());
        let mut c = Client::connect(server.addr()).unwrap();
        let first = replies(&mut c);
        assert_bits(&values(&first), direct(&loaded));
        assert!(
            values(&first)[4] > 0.0,
            "the graph has no expected triangles"
        );
        // Later requests read the stored values: the same bytes, also
        // on a second connection.
        assert_eq!(replies(&mut c), first, "{source}");
        let mut other = Client::connect(server.addr()).unwrap();
        assert_eq!(replies(&mut other), first, "{source}");
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pinned_connection_keeps_its_release_answers_across_a_reload() {
    let dir = scratch_dir("reload");
    let first = random_graph(50, 0.2, 5);
    let next = random_graph(40, 0.35, 6);
    let first_path = dir.join("first.snap");
    let next_path = dir.join("next.snap");
    save_snapshot(&first, SnapshotMeta::default(), &first_path).unwrap();
    save_snapshot(&next, SnapshotMeta::default(), &next_path).unwrap();
    let (server, first_loaded, _) = serve(&first_path);
    let (next_loaded, _, _) =
        load_published_graph_with_source(next_path.to_str().unwrap()).unwrap();
    assert_ne!(direct(&first_loaded)[0], direct(&next_loaded)[0]);

    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    // A fills release 1's values before the reload.
    let a_before = replies(&mut a);
    assert_bits(&values(&a_before), direct(&first_loaded));

    let reply = b
        .request(&format!("RELOAD {}", next_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK reloaded epoch=1 "), "{reply}");

    // A stays on release 1, byte for byte; B answers from release 2.
    assert_eq!(replies(&mut a), a_before);
    let b_after = replies(&mut b);
    assert!(b_after[0].ends_with(" epoch=1"), "{}", b_after[0]);
    assert_bits(&values(&b_after), direct(&next_loaded));
    // A connection accepted after the reload pins release 2 too.
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(replies(&mut c), b_after);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
