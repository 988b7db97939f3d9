//! Integration tests: a real server on an ephemeral port, concurrent
//! clients, and the determinism guarantee — the same query returns the
//! bit-identical answer regardless of how many connections are hammering
//! the server or how the cache is warmed.

use std::sync::Arc;
use std::time::Duration;

use obf_obs::metrics::text_value;
use obf_server::{Client, Server, ServerConfig};
use obf_uncertain::UncertainGraph;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A mid-sized uncertain graph with mixed probabilities.
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

/// The mixed query script loadgen also uses, as a pure function of a
/// stream index.
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

#[test]
fn concurrent_clients_get_identical_answers() {
    let g = published_graph(40, 1);
    let server = Server::bind(g, "127.0.0.1:0", 512).unwrap();
    let addr = server.addr();

    let run_script = move || {
        let mut c = Client::connect(addr).unwrap();
        (0..48)
            .map(|i| c.request(&query(i)).unwrap())
            .collect::<Vec<_>>()
    };

    // 8 concurrent connections all run the same script...
    let handles: Vec<_> = (0..8).map(|_| std::thread::spawn(run_script)).collect();
    let transcripts: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // ...and every transcript is bit-identical: no answer depends on
    // scheduling, cache warmth, or which thread sampled a world first.
    for t in &transcripts[1..] {
        assert_eq!(t, &transcripts[0]);
    }
    for reply in &transcripts[0] {
        assert!(reply.starts_with("OK "), "protocol error: {reply}");
    }

    // The cache actually served: 8 connections × the same STAT worlds
    // must be mostly hits.
    let stats = server.state().cache_stats();
    assert!(stats.hits > stats.misses, "stats={stats:?}");
    server.shutdown();
}

#[test]
fn answers_identical_across_separate_servers_and_cache_sizes() {
    // Two servers over the same published graph — one with a cold tiny
    // cache, one with a big one — must answer the script identically:
    // the cache is a performance artifact, never a semantic one.
    let transcripts: Vec<Vec<String>> = [1usize, 4096]
        .iter()
        .map(|&capacity| {
            let server = Server::bind(published_graph(40, 1), "127.0.0.1:0", capacity).unwrap();
            let mut c = Client::connect(server.addr()).unwrap();
            let replies = (0..48).map(|i| c.request(&query(i)).unwrap()).collect();
            server.shutdown();
            replies
        })
        .collect();
    assert_eq!(transcripts[0], transcripts[1]);
}

#[test]
fn malformed_requests_answered_with_err_and_connection_survives() {
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.request("NO_SUCH_VERB 1 2 3").unwrap().starts_with("ERR "));
    assert!(c
        .request("EXPECTED_DEGREE 1000")
        .unwrap()
        .starts_with("ERR "));
    // The connection still works after errors.
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    assert_eq!(server.state().protocol_errors(), 2);
    server.shutdown();
}

#[test]
fn quit_closes_the_connection() {
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("QUIT").unwrap(), "OK bye");
    // The server closed its half; the next request cannot get a reply.
    assert!(c.request("PING").is_err());
    server.shutdown();
}

#[test]
fn shutdown_command_stops_the_accept_loop() {
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK shutting down");
    // join() returns because the protocol command stopped every shard —
    // this is the path that keeps scripted runs from hanging CI.
    server.join();
    // New connections may still be accepted by the OS backlog, but the
    // accept loop is gone: a PING on a fresh connection gets no reply.
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.request("PING").is_err());
    }
}

#[test]
fn idle_connections_are_reaped() {
    let server = Server::bind_with(
        published_graph(10, 3),
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 16,
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    // Sit idle past the timeout: the server closes its half, so the
    // next request cannot get a reply...
    std::thread::sleep(Duration::from_millis(400));
    assert!(c.request("PING").is_err());
    // ...but a fresh connection is served normally.
    let mut c2 = Client::connect(server.addr()).unwrap();
    assert_eq!(c2.request("PING").unwrap(), "OK pong");
    server.shutdown();
}

#[test]
fn reload_under_load_drops_no_connections_and_no_stale_worlds() {
    // Two releases of an evolving publication: same vertex set,
    // different candidate probabilities.
    let g0 = published_graph(40, 1);
    let g1 = published_graph(40, 2);
    let dir = std::env::temp_dir().join(format!("obf_server_itest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r1.snap");
    obf_uncertain::save_snapshot_with_meta(
        &g1,
        obf_uncertain::SnapshotMeta {
            epoch: 1,
            parent_checksum: 0,
        },
        &path,
    )
    .unwrap();

    let server = Server::bind(Arc::clone(&g0), "127.0.0.1:0", 512).unwrap();
    let addr = server.addr();

    // Background connections hammer the server across the reload; every
    // reply must be OK — zero dropped connections, zero errors.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut replies = 0usize;
                let mut i = w;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let reply = c.request(&query(i)).expect("connection survived reload");
                    assert!(reply.starts_with("OK "), "protocol error: {reply}");
                    replies += 1;
                    i += 4;
                }
                replies
            })
        })
        .collect();

    // Warm the cache on epoch 0, then reload mid-traffic.
    let mut admin = Client::connect(addr).unwrap();
    let warm = admin.request("STAT num_edges 8 42").unwrap();
    let reply = admin
        .request(&format!("RELOAD {}", path.display()))
        .unwrap();
    assert!(reply.starts_with("OK reloaded epoch=1"), "{reply}");

    // No cross-epoch answer reuse: the same STAT now matches a fresh
    // out-of-band sample of the *new* release, bit for bit.
    let after = admin.request("STAT num_edges 8 42").unwrap();
    let values: Vec<f64> = (0..8)
        .map(|i| obf_uncertain::sample_indexed_world(&g1, 42, i).num_edges() as f64)
        .collect();
    let mean = values.iter().sum::<f64>() / 8.0;
    assert!(after.starts_with(&format!("OK mean={mean} ")), "{after}");
    assert_ne!(warm, after);
    let metrics = admin.request("METRICS").unwrap();
    assert_eq!(
        text_value(&metrics, "obf_cache_epoch"),
        Some(1),
        "{metrics}"
    );
    assert_ne!(
        text_value(&metrics, "obf_cache_invalidations_total"),
        Some(0),
        "{metrics}"
    );

    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: usize = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "workers answered nothing");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
