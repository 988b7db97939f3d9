//! Bit-identity regression: the event loop is a *transport*, never a
//! semantic layer. `loadgen`'s probe script, answered by calling
//! `ServerState::answer` directly and in order, is the oracle: it must
//! reproduce the pinned answers digest, and the event loop must
//! reproduce its transcript byte for byte on both poller backends, at
//! every shard count, on several connections at once, and with
//! pipelined as well as one-at-a-time submission.

use std::sync::Arc;

use obf_bench::traffic::{mixed_query, probe_digest, published_graph};
use obf_server::{Client, PollerKind, Server, ServerConfig, ServerState};
use obf_uncertain::UncertainGraph;

/// `OBF_FAST=1 loadgen`'s harness configuration: the default seed,
/// ten worlds, the 64-query probe on the 0.05-scale graph.
const SEED: u64 = 0xC0FFEE;
const WORLDS: usize = 10;
const PROBE_LEN: usize = 64;
const SCALE: f64 = 0.05;

/// The answers digest `ci.sh serve` pins.
const PINNED_DIGEST: &str = "f6ed1718c9ff44a5";

fn graph() -> Arc<UncertainGraph> {
    Arc::new(published_graph(SCALE, SEED))
}

fn script(n: u64) -> Vec<String> {
    (0..PROBE_LEN)
        .map(|i| mixed_query(SEED, i, WORLDS, n))
        .collect()
}

/// The oracle: every probe query answered by direct calls, in order.
fn direct_transcript(g: &Arc<UncertainGraph>) -> Vec<String> {
    let state = ServerState::new(Arc::clone(g), 1024);
    script(g.num_vertices() as u64)
        .iter()
        .map(|q| state.answer(q))
        .collect()
}

fn config(poller: PollerKind, shards: usize) -> ServerConfig {
    ServerConfig {
        world_cache_capacity: 1024,
        shards,
        poller,
        ..ServerConfig::default()
    }
}

#[test]
fn direct_transcript_reproduces_the_pinned_digest() {
    let g = graph();
    let state = ServerState::new(Arc::clone(&g), 1024);
    let (digest, errors) = probe_digest(
        |q| state.answer(q),
        SEED,
        WORLDS,
        PROBE_LEN,
        g.num_vertices() as u64,
    );
    assert_eq!(errors, 0);
    assert_eq!(digest, PINNED_DIGEST);
}

#[test]
fn event_loop_matches_the_direct_transcript_at_every_shard_count() {
    let g = graph();
    let direct = direct_transcript(&g);
    let lines = script(g.num_vertices() as u64);
    for poller in [PollerKind::default(), PollerKind::Poll] {
        for shards in [1, 2, 4] {
            let server =
                Server::bind_with(Arc::clone(&g), "127.0.0.1:0", config(poller, shards)).unwrap();
            let addr = server.addr();
            // Four connections at once, so with several shards the
            // script runs on more than one loop against one memo.
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    let lines = lines.clone();
                    std::thread::spawn(move || {
                        let mut c = Client::connect(addr).unwrap();
                        lines
                            .iter()
                            .map(|q| c.request(q).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for client in clients {
                assert_eq!(
                    client.join().unwrap(),
                    direct,
                    "{poller:?} at {shards} shards changed an answer"
                );
            }
            server.shutdown();
        }
    }
}

#[test]
fn pipelined_and_serial_submission_agree() {
    let g = graph();
    let direct = direct_transcript(&g);
    let lines = script(g.num_vertices() as u64);

    // The script submitted as pipelined bursts: all requests of a burst
    // written before any reply is read. Replies must come back in order
    // and byte-identical to the direct transcript.
    let server = Server::bind_with(
        Arc::clone(&g),
        "127.0.0.1:0",
        config(PollerKind::default(), 2),
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let mut pipelined = Vec::with_capacity(lines.len());
    for burst in lines.chunks(7) {
        let refs: Vec<&str> = burst.iter().map(String::as_str).collect();
        pipelined.extend(c.pipeline(&refs).unwrap());
    }
    server.shutdown();
    assert_eq!(pipelined, direct, "pipelining changed an answer");
}
