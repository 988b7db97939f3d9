//! Observability neutrality: metrics, spans, and the request log are
//! strictly read-only taps on the answer path. The same query script
//! must produce the transcript of `ServerState::answer` called line by
//! line, byte for byte, with the request log on or off, at every shard
//! count, and scraping `METRICS` mid-stream must not
//! perturb a single answer byte. This is the test-level twin of the
//! `ci.sh serve` digest gate (pinned `answers_digest` with
//! `--request-log` enabled).

use std::path::PathBuf;
use std::sync::Arc;

use obf_server::{Client, Server, ServerConfig, ServerState};
use obf_uncertain::UncertainGraph;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn published_graph(n: usize, seed: u64) -> Arc<UncertainGraph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cands = Vec::new();
    for u in 0..n as u32 {
        for step in 1..=3u32 {
            let v = (u + step) % n as u32;
            if u < v {
                cands.push((u, v, rng.gen::<f64>()));
            }
        }
    }
    Arc::new(UncertainGraph::new(n, cands).unwrap())
}

/// The loadgen probe mix (see `tests/bit_identity.rs`): every answer
/// kind that feeds the published `answers_digest`.
fn query(i: usize) -> String {
    match i % 6 {
        0 => format!("EXPECTED_DEGREE {}", i % 40),
        1 => format!("DEGREE_DIST {}", i % 40),
        2 => format!("NEIGHBORHOOD {}", i % 40),
        3 => "EXPECTED degree_variance".to_string(),
        4 => format!("STAT num_edges {} 42 0.5", 5 + i % 7),
        _ => format!("STAT clustering {} 7", 3 + i % 5),
    }
}

const SCRIPT_LEN: usize = 72;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obf_obs_neutral_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(tag)
}

fn config(shards: usize, request_log: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        world_cache_capacity: 256,
        shards,
        request_log,
        ..ServerConfig::default()
    }
}

/// The transport-free oracle: the script answered by direct calls.
fn direct_transcript() -> Vec<String> {
    let state = ServerState::new(published_graph(40, 1), 256);
    (0..SCRIPT_LEN).map(|i| state.answer(&query(i))).collect()
}

fn transcript_with(config: ServerConfig) -> Vec<String> {
    let server = Server::bind_with(published_graph(40, 1), "127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let replies = (0..SCRIPT_LEN)
        .map(|i| c.request(&query(i)).unwrap())
        .collect();
    server.shutdown();
    replies
}

#[test]
fn request_log_is_transcript_neutral_at_every_shard_count() {
    let direct = direct_transcript();
    for (tag, shards) in [("shards_1", 1), ("shards_4", 4)] {
        let off = transcript_with(config(shards, None));
        assert_eq!(off, direct, "the event loop changed an answer under {tag}");
        let log_path = scratch(tag);
        let on = transcript_with(config(shards, Some(log_path.clone())));
        assert_eq!(on, direct, "request log changed an answer under {tag}");

        // The log really was written: header plus one record per request.
        let logged = std::fs::read_to_string(&log_path).unwrap();
        let mut lines = logged.lines();
        assert_eq!(lines.next(), Some("OBFUREQLOG v1"), "{tag}");
        assert_eq!(lines.count(), SCRIPT_LEN, "{tag}");
    }
}

#[test]
fn metrics_scrapes_do_not_perturb_answers() {
    let quiet = direct_transcript();

    // Same script, but with METRICS scraped from a second connection
    // (on either shard) every few queries.
    let server = Server::bind_with(
        published_graph(40, 1),
        "127.0.0.1:0",
        config(2, Some(scratch("scrape_noisy"))),
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let mut scraper = Client::connect(server.addr()).unwrap();
    let mut noisy = Vec::with_capacity(SCRIPT_LEN);
    for i in 0..SCRIPT_LEN {
        noisy.push(c.request(&query(i)).unwrap());
        if i % 8 == 0 {
            let metrics = scraper.request("METRICS").unwrap();
            assert!(metrics.starts_with("OK metrics\n"), "{metrics}");
            assert!(metrics.contains("obf_server_queries_total"), "{metrics}");
            assert!(metrics.contains("obf_cache_hits_total"), "{metrics}");
        }
    }
    server.shutdown();

    assert_eq!(noisy, quiet, "a metrics scrape changed an answer");
}

#[test]
fn metrics_snapshot_counts_match_the_script() {
    let server = Server::bind_with(published_graph(40, 1), "127.0.0.1:0", config(1, None)).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for i in 0..SCRIPT_LEN {
        c.request(&query(i)).unwrap();
    }
    let text = c.request("METRICS").unwrap();
    server.shutdown();

    // SCRIPT_LEN queries + the METRICS request itself.
    let queries = text
        .lines()
        .find_map(|l| l.strip_prefix("obf_server_queries_total "))
        .expect("counter rendered")
        .parse::<u64>()
        .unwrap();
    assert_eq!(queries as usize, SCRIPT_LEN + 1);
    // Per-verb histograms render quantile splices before the label set.
    assert!(
        text.contains("obf_server_answer_micros_count{verb=\"STAT\"}"),
        "{text}"
    );
}
