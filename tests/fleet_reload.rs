//! Epoch-consistent rollout: during a staggered fleet `RELOAD`, no
//! client connection ever observes answers from two release epochs.
//!
//! Method: client threads hammer the router with short connections,
//! each running a fixed query script whose answers depend on the
//! served graph. Each connection's transcript is digested; a legal
//! transcript digest is *exactly* the old release's or the new
//! release's — a mixed transcript (some answers from each epoch) has a
//! third digest and fails the test. The `INFO` epoch observed within a
//! connection must also be constant.
//!
//! The router's failure paths live here too: draining a replica drops
//! no in-flight request, and a dead replica is routed around.

use obf_cluster::{Fleet, RouterConfig};
use obf_server::{Client, Server, ServerConfig};
use obf_uncertain::{save_snapshot, UncertainGraph};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The graph the router failure tests serve.
fn published() -> UncertainGraph {
    graph_old()
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

/// Canonical transcript digest for a graph: run SCRIPT against a
/// standalone server of that graph.
fn canonical_digest(g: UncertainGraph) -> u64 {
    let server = Server::bind(Arc::new(g), "127.0.0.1:0", 64).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let replies: Vec<String> = SCRIPT.iter().map(|q| c.request(q).unwrap()).collect();
    server.shutdown();
    digest(&replies)
}

#[test]
fn staggered_reload_never_mixes_epochs_in_one_connection() {
    let old_digest = canonical_digest(graph_old());
    let new_digest = canonical_digest(graph_new());
    assert_ne!(old_digest, new_digest, "the two releases must differ");

    let dir = std::env::temp_dir().join(format!("fleet_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("release2.snap");
    save_snapshot(&graph_new(), snap_path.to_str().unwrap()).unwrap();

    let fleet = Fleet::launch(
        Arc::new(graph_old()),
        3,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    let addr = fleet.addr();

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
                        // Interleave an INFO after every script query:
                        // its epoch must be constant per connection.
                        match c.request("INFO") {
                            Ok(r) if r.starts_with("OK ") => {
                                let epoch = r
                                    .split_whitespace()
                                    .find_map(|t| t.strip_prefix("epoch="))
                                    .unwrap_or("?")
                                    .to_string();
                                epochs.push(epoch);
                            }
                            _ => {
                                failed = true;
                                break;
                            }
                        }
                    }
                    let _ = c.request("QUIT");
                    if failed {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    epochs.dedup();
                    if epochs.len() != 1 {
                        mixed_seen.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let d = digest(&replies);
                    if d == old_digest {
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

    // Let traffic flow on the old epoch, then roll out the new
    // release, then let traffic flow on the new epoch.
    std::thread::sleep(Duration::from_millis(150));
    let mut admin = Client::connect(addr).unwrap();
    let reply = admin
        .request(&format!("RELOAD {}", snap_path.display()))
        .unwrap();
    assert!(reply.starts_with("OK fleet reloaded replicas=3"), "{reply}");
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
        "a connection observed two epochs (old={old} new={new})"
    );
    assert_eq!(errs, 0, "requests failed during rollout");
    assert!(old > 0, "no connection ever saw the old release");
    assert!(
        new > 0,
        "no connection ever saw the new release (old={old})"
    );

    // After the rollout every replica serves epoch 1.
    let health = admin.request("FLEET_HEALTH").unwrap();
    assert_eq!(health, "OK healthy=3/3 epochs=1,1,1");
    let stats = admin.request("FLEET_STATS").unwrap();
    assert!(stats.contains("rollouts=1"), "{stats}");

    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second rollout on top of the first keeps the guarantee and bumps
/// every replica to epoch 2.
#[test]
fn repeated_rollouts_stay_consistent() {
    let dir = std::env::temp_dir().join(format!("fleet_reload2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p1 = dir.join("r1.snap");
    let p2 = dir.join("r2.snap");
    save_snapshot(&graph_new(), p1.to_str().unwrap()).unwrap();
    save_snapshot(&graph_old(), p2.to_str().unwrap()).unwrap();

    let fleet = Fleet::launch(
        Arc::new(graph_old()),
        2,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    let mut admin = Client::connect(fleet.addr()).unwrap();
    for (path, expected_epoch) in [(&p1, "1"), (&p2, "2")] {
        let reply = admin
            .request(&format!("RELOAD {}", path.display()))
            .unwrap();
        assert!(reply.starts_with("OK fleet reloaded"), "{reply}");
        let health = admin.request("FLEET_HEALTH").unwrap();
        assert_eq!(
            health,
            format!("OK healthy=2/2 epochs={e},{e}", e = expected_epoch)
        );
    }
    // Commit without a prepared stage (stale RELOAD_COMMIT direct to a
    // replica) is refused — the fleet protocol is the only flip path.
    let mut direct = Client::connect(fleet.replica_addrs()[0]).unwrap();
    let reply = direct.request("RELOAD_COMMIT").unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Router front: draining a replica must not drop a single in-flight
/// request — bound connections keep getting answers while drained, and
/// only *new* connections are diverted.
#[test]
fn drain_drops_zero_in_flight_requests() {
    let fleet = Fleet::launch(
        Arc::new(published()),
        2,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    // Two bound connections, one per replica.
    let mut a = Client::connect(fleet.addr()).unwrap();
    let mut b = Client::connect(fleet.addr()).unwrap();
    a.request("PING").unwrap();
    b.request("PING").unwrap();
    let mut admin = Client::connect(fleet.addr()).unwrap();
    admin.request("DRAIN 0").unwrap();
    admin.request("DRAIN 1").unwrap();
    // Every further request on the already-bound connections must
    // still be answered while both replicas are draining.
    for _ in 0..25 {
        let ra = a.request("EXPECTED num_edges").unwrap();
        let rb = b.request("EXPECTED num_edges").unwrap();
        assert!(ra.starts_with("OK "), "{ra}");
        assert!(rb.starts_with("OK "), "{rb}");
    }
    admin.request("UNDRAIN 0").unwrap();
    admin.request("UNDRAIN 1").unwrap();
    fleet.shutdown();
}

/// A replica killed outright: its bound connections get the typed
/// `ERR REPLICA_LOST`, fresh connections are routed around the corpse,
/// and the survivor answers everything.
#[test]
fn dead_replica_is_routed_around() {
    let mut fleet = Fleet::launch(
        Arc::new(published()),
        2,
        ServerConfig::default(),
        RouterConfig::default(),
    )
    .unwrap();
    let mut a = Client::connect(fleet.addr()).unwrap();
    let mut b = Client::connect(fleet.addr()).unwrap();
    a.request("PING").unwrap();
    b.request("PING").unwrap();
    fleet.kill_replica(0);
    let replies = [a.request("INFO").unwrap(), b.request("INFO").unwrap()];
    assert!(
        replies.iter().any(|r| r.starts_with("ERR REPLICA_LOST")),
        "{replies:?}"
    );
    assert!(replies.iter().any(|r| r.starts_with("OK ")), "{replies:?}");
    // Fresh connections keep working via the survivor; the dead
    // replica costs at most a failed connect inside the router.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut c = Client::connect(fleet.addr()).unwrap();
        let reply = c.request("EXPECTED num_edges").unwrap();
        if reply.starts_with("OK ") {
            break;
        }
        assert!(Instant::now() < deadline, "router never recovered: {reply}");
        std::thread::sleep(Duration::from_millis(10));
    }
    fleet.shutdown();
}
