//! Epoch-consistent live reload across in-process shards: no client
//! connection ever observes answers from two releases.
//!
//! Each connection pins the release that is current when it is
//! accepted and answers every request from it; only the connection
//! that issues a `RELOAD` re-pins, to the release it installed. The
//! tests run a fixed query script whose answers depend on the served
//! graph and digest each connection's transcript: a legal digest is
//! *exactly* the old release's or the new release's — a mixed
//! transcript has a third digest and fails. The `INFO` epoch within a
//! connection must also be constant. Every case runs at 1, 2 and 4
//! shards.

use obf_server::{Client, Server, ServerConfig, ServerState};
use obf_uncertain::{save_snapshot, UncertainGraph};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The query script every connection runs: deterministic,
/// graph-dependent, epoch-independent answers.
const SCRIPT: [&str; 4] = [
    "EXPECTED num_edges",
    "EXPECTED avg_degree",
    "DEGREE_DIST 0",
    "STAT num_edges 8 5",
];

fn graph_old() -> UncertainGraph {
    UncertainGraph::new(
        6,
        vec![
            (0, 1, 0.9),
            (1, 2, 0.5),
            (2, 3, 0.7),
            (3, 4, 0.4),
            (4, 5, 0.8),
        ],
    )
    .unwrap()
}

fn graph_new() -> UncertainGraph {
    // Same vertex count, different probabilities and edges — every
    // SCRIPT answer differs from graph_old's.
    UncertainGraph::new(
        6,
        vec![
            (0, 1, 0.2),
            (0, 2, 0.6),
            (2, 3, 0.3),
            (3, 5, 0.9),
            (1, 4, 0.55),
        ],
    )
    .unwrap()
}

/// FNV-1a over the concatenated replies — the transcript digest.
fn digest(replies: &[String]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for r in replies {
        for &b in r.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Canonical transcript digest for a graph: SCRIPT answered by direct
/// calls into a fresh server state of that graph.
fn canonical_digest(g: UncertainGraph) -> u64 {
    let state = ServerState::new(Arc::new(g), 64);
    let replies: Vec<String> = SCRIPT.iter().map(|q| state.answer(q)).collect();
    digest(&replies)
}

/// SCRIPT on one connection.
fn script_digest(c: &mut Client) -> u64 {
    let replies: Vec<String> = SCRIPT.iter().map(|q| c.request(q).unwrap()).collect();
    digest(&replies)
}

fn info_epoch(c: &mut Client) -> String {
    let info = c.request("INFO").unwrap();
    info.split_whitespace()
        .find_map(|t| t.strip_prefix("epoch="))
        .unwrap_or("?")
        .to_string()
}

fn serve(g: UncertainGraph, shards: usize) -> Server {
    let config = ServerConfig {
        shards,
        ..ServerConfig::default()
    };
    Server::bind_with(Arc::new(g), "127.0.0.1:0", config).unwrap()
}

/// A scratch directory holding `graph_new` as `release.snap`.
fn new_release(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("shard_reload_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("release.snap");
    save_snapshot(&graph_new(), path.to_str().unwrap()).unwrap();
    (dir, path)
}

fn reload(c: &mut Client, path: &Path) -> String {
    c.request(&format!("RELOAD {}", path.display())).unwrap()
}

#[test]
fn staggered_reload_never_mixes_epochs_in_one_connection() {
    let old_digest = canonical_digest(graph_old());
    let new_digest = canonical_digest(graph_new());
    assert_ne!(old_digest, new_digest, "the two releases must differ");
    let (dir, snap_path) = new_release("staggered");

    for shards in SHARD_COUNTS {
        let server = serve(graph_old(), shards);
        let addr = server.addr();

        let stop = Arc::new(AtomicBool::new(false));
        let old_seen = Arc::new(AtomicUsize::new(0));
        let new_seen = Arc::new(AtomicUsize::new(0));
        let mixed_seen = Arc::new(AtomicUsize::new(0));
        let errors = Arc::new(AtomicUsize::new(0));

        let clients: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let old_seen = Arc::clone(&old_seen);
                let new_seen = Arc::clone(&new_seen);
                let mixed_seen = Arc::clone(&mixed_seen);
                let errors = Arc::clone(&errors);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let Ok(mut c) = Client::connect(addr) else {
                            errors.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        let mut replies = Vec::with_capacity(SCRIPT.len());
                        let mut epochs = Vec::new();
                        let mut failed = false;
                        for q in SCRIPT {
                            match c.request(q) {
                                Ok(r) if r.starts_with("OK ") => replies.push(r),
                                _ => {
                                    failed = true;
                                    break;
                                }
                            }
                            // Interleave an INFO after every script
                            // query: its epoch must be constant per
                            // connection.
                            epochs.push(info_epoch(&mut c));
                        }
                        let _ = c.request("QUIT");
                        if failed {
                            errors.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        epochs.dedup();
                        let d = digest(&replies);
                        if epochs.len() != 1 {
                            mixed_seen.fetch_add(1, Ordering::Relaxed);
                        } else if d == old_digest {
                            old_seen.fetch_add(1, Ordering::Relaxed);
                        } else if d == new_digest {
                            new_seen.fetch_add(1, Ordering::Relaxed);
                        } else {
                            mixed_seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();

        // Let traffic flow on the old epoch, reload, then let traffic
        // flow on the new epoch.
        std::thread::sleep(Duration::from_millis(150));
        let mut admin = Client::connect(addr).unwrap();
        let reply = reload(&mut admin, &snap_path);
        assert!(reply.starts_with("OK reloaded epoch=1 "), "{reply}");
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        for t in clients {
            t.join().unwrap();
        }

        let (old, new, mixed, errs) = (
            old_seen.load(Ordering::Relaxed),
            new_seen.load(Ordering::Relaxed),
            mixed_seen.load(Ordering::Relaxed),
            errors.load(Ordering::Relaxed),
        );
        assert_eq!(
            mixed, 0,
            "shards={shards}: a connection observed two epochs (old={old} new={new})"
        );
        assert_eq!(
            errs, 0,
            "shards={shards}: requests failed during the reload"
        );
        assert!(
            old > 0,
            "shards={shards}: no connection saw the old release"
        );
        assert!(
            new > 0,
            "shards={shards}: no connection saw the new release"
        );
        assert_eq!(admin.request("HEALTH").unwrap(), "OK ok epoch=1 n=6");
        assert_eq!(server.state().reloads(), 1);
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second reload on top of the first keeps the guarantee and moves
/// every new connection to epoch 2.
#[test]
fn repeated_rollouts_stay_consistent() {
    let old_digest = canonical_digest(graph_old());
    let new_digest = canonical_digest(graph_new());
    let dir = std::env::temp_dir().join(format!("shard_reload_repeat_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p1 = dir.join("r1.snap");
    let p2 = dir.join("r2.snap");
    save_snapshot(&graph_new(), p1.to_str().unwrap()).unwrap();
    save_snapshot(&graph_old(), p2.to_str().unwrap()).unwrap();

    for shards in SHARD_COUNTS {
        let server = serve(graph_old(), shards);
        let mut admin = Client::connect(server.addr()).unwrap();
        for (path, epoch, expected) in [(&p1, "1", new_digest), (&p2, "2", old_digest)] {
            let reply = reload(&mut admin, path);
            assert!(
                reply.starts_with(&format!("OK reloaded epoch={epoch} ")),
                "{reply}"
            );
            assert_eq!(
                admin.request("HEALTH").unwrap(),
                format!("OK ok epoch={epoch} n=6")
            );
            // Several fresh connections, so more than one shard serves
            // them: every one starts on the new release.
            for _ in 0..4 {
                let mut c = Client::connect(server.addr()).unwrap();
                assert_eq!(info_epoch(&mut c), epoch, "shards={shards}");
                assert_eq!(script_digest(&mut c), expected, "shards={shards}");
            }
        }
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connection opened before a `RELOAD` on another connection keeps
/// answering from the old release after it — its `STAT`s are computed
/// from the old graph but not memoized — while `HEALTH` reports the
/// server's current epoch.
#[test]
fn connection_opened_before_a_reload_keeps_its_release() {
    let old_digest = canonical_digest(graph_old());
    let new_digest = canonical_digest(graph_new());
    let (dir, snap_path) = new_release("before");
    for shards in SHARD_COUNTS {
        let server = serve(graph_old(), shards);
        let mut early = Client::connect(server.addr()).unwrap();
        assert_eq!(script_digest(&mut early), old_digest);

        let mut admin = Client::connect(server.addr()).unwrap();
        let reply = reload(&mut admin, &snap_path);
        assert!(reply.starts_with("OK reloaded epoch=1 "), "{reply}");
        assert_eq!(server.state().cache_stats().resident, 0);

        assert_eq!(script_digest(&mut early), old_digest, "shards={shards}");
        assert_eq!(info_epoch(&mut early), "0");
        assert_eq!(early.request("HEALTH").unwrap(), "OK ok epoch=1 n=6");
        assert_eq!(
            server.state().cache_stats().resident,
            0,
            "shards={shards}: a stale release's worlds were memoized"
        );

        let mut late = Client::connect(server.addr()).unwrap();
        assert_eq!(script_digest(&mut late), new_digest, "shards={shards}");
        assert_eq!(info_epoch(&mut late), "1");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The connection that issues the `RELOAD` answers from the new release
/// from its next request on.
#[test]
fn connection_that_issued_the_reload_answers_from_the_new_release() {
    let old_digest = canonical_digest(graph_old());
    let new_digest = canonical_digest(graph_new());
    let (dir, snap_path) = new_release("issuer");
    for shards in SHARD_COUNTS {
        let server = serve(graph_old(), shards);
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(script_digest(&mut c), old_digest);
        assert_eq!(info_epoch(&mut c), "0");
        let reply = reload(&mut c, &snap_path);
        assert!(reply.starts_with("OK reloaded epoch=1 "), "{reply}");
        assert_eq!(info_epoch(&mut c), "1", "shards={shards}");
        assert_eq!(script_digest(&mut c), new_digest, "shards={shards}");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `f` on its own thread; true if it returned within `limit`.
fn finishes_within(limit: Duration, f: impl FnOnce() + Send + 'static) -> bool {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    let in_time = finished.recv_timeout(limit).is_ok();
    if in_time {
        worker.join().expect("the stop path panicked");
    }
    in_time
}

/// With no idle timeout every shard waits with no timeout, so a stop
/// must wake all of them — not just the one a throwaway connection
/// happens to reach. Both `Server::shutdown` and the protocol
/// `SHUTDOWN` must stop all four shards.
#[test]
fn shutdown_and_protocol_shutdown_stop_every_shard() {
    let config = ServerConfig {
        shards: 4,
        idle_timeout: None,
        ..ServerConfig::default()
    };
    for via_protocol in [false, true] {
        let server =
            Server::bind_with(Arc::new(graph_old()), "127.0.0.1:0", config.clone()).unwrap();
        let addr = server.addr();
        // Open connections first, so the shards have some to drop.
        let mut held: Vec<Client> = (0..8).map(|_| Client::connect(addr).unwrap()).collect();
        for c in &mut held {
            assert_eq!(c.request("PING").unwrap(), "OK pong");
        }
        let stopped = if via_protocol {
            assert_eq!(held[0].request("SHUTDOWN").unwrap(), "OK shutting down");
            finishes_within(Duration::from_secs(10), move || server.join())
        } else {
            finishes_within(Duration::from_secs(10), move || server.shutdown())
        };
        assert!(
            stopped,
            "a shard kept running (via_protocol={via_protocol})"
        );
        // Every shard is gone: a held connection gets no more replies.
        for c in &mut held[1..] {
            assert!(c.request("PING").is_err(), "via_protocol={via_protocol}");
        }
    }
}
