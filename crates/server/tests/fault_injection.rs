//! Fault-injection integration tests: hostile connection behavior —
//! slowloris writers, half-open peers, mid-request disconnects, and
//! clients that never read — must be contained by the event loop's
//! idle reaping, bounded buffers and backpressure, with zero impact on
//! concurrent well-behaved clients' transcripts — and a killed daemon
//! must keep the request-log records of what it answered.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obf_obs::metrics::text_value;
use obf_obs::reqlog::parse_log;
use obf_server::{read_frame, Client, Server, ServerConfig};
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

/// Deterministic well-behaved traffic, same shape as the loadgen mix.
/// One series of the server's `METRICS` reply.
fn metric(server: &Server, name: &str) -> u64 {
    text_value(&server.state().answer("METRICS"), name).expect(name)
}

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

fn run_script(addr: std::net::SocketAddr, len: usize) -> Vec<String> {
    let mut c = Client::connect(addr).unwrap();
    (0..len).map(|i| c.request(&query(i)).unwrap()).collect()
}

/// Slowloris: clients that dribble a valid request one byte at a time.
/// In the thread-per-connection world each one pinned a thread; the
/// event loop just keeps their partial frames in per-connection buffers
/// while fast clients are served. The slow requests still complete
/// correctly at the end.
#[test]
fn slowloris_writers_dont_starve_fast_clients() {
    let g = published_graph(40, 1);
    let server = Server::bind(Arc::clone(&g), "127.0.0.1:0", 512).unwrap();
    let addr = server.addr();

    // Reference transcript from an unloaded identical server.
    let clean = Server::bind(g, "127.0.0.1:0", 512).unwrap();
    let reference = run_script(clean.addr(), 64);
    clean.shutdown();

    let slow_handles: Vec<_> = (0..4)
        .map(|k| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let line = format!("EXPECTED_DEGREE {k}");
                let mut frame = (line.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(line.as_bytes());
                for b in frame {
                    s.write_all(&[b]).unwrap();
                    s.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(15));
                }
                read_frame(&mut s).unwrap().expect("slow request answered")
            })
        })
        .collect();

    // While the slowloris writers dribble, a well-behaved client's
    // transcript must be exactly the unloaded reference.
    let under_attack = run_script(addr, 64);
    assert_eq!(under_attack, reference);

    for (k, h) in slow_handles.into_iter().enumerate() {
        let reply = h.join().unwrap();
        let expected = format!("OK {}", server.state().graph().expected_degree(k as u32));
        assert_eq!(reply, expected);
    }
    server.shutdown();
}

/// Half-open connections (peer connects, then goes silent — e.g. a NAT
/// dropped it) are reaped by the idle sweep, freeing their slots.
#[test]
fn half_open_connections_are_reaped() {
    let server = Server::bind_with(
        published_graph(10, 3),
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 16,
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut silent: Vec<TcpStream> = (0..5)
        .map(|_| {
            let s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s
        })
        .collect();
    // Force the handshakes through the accept loop before going silent.
    std::thread::sleep(Duration::from_millis(50));

    let deadline = Instant::now() + Duration::from_secs(5);
    let reaped = || metric(&server, "obf_server_idle_reaped_total");
    while reaped() < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    let reaped = reaped();
    assert!(
        reaped >= 5,
        "idle sweep reaped only {reaped} of 5 half-open connections"
    );
    // The server actually closed them: reads observe EOF.
    for s in &mut silent {
        assert_eq!(read_frame(s).unwrap(), None, "expected EOF after reap");
    }
    // Fresh, active connections are unaffected.
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    server.shutdown();
}

/// Disconnecting mid-request (after the length prefix, before the
/// payload) must not leak the half-frame or disturb anyone else.
#[test]
fn mid_request_disconnects_are_contained() {
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    for i in 0..20 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&vec![b'Q'; i]).unwrap(); // 0..20 of 64 declared bytes
        drop(s);
    }
    // Give the loop a beat to observe the disconnects, then verify
    // every slot was released and service is intact.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c = loop {
        if let Ok(c) = Client::connect(server.addr()) {
            break c;
        }
        assert!(Instant::now() < deadline);
    };
    assert_eq!(c.request("PING").unwrap(), "OK pong");
    assert!(metric(&server, "obf_server_connections_accepted_total") >= 21);
    server.shutdown();
}

/// A client that pipelines requests but never reads replies hits the
/// write-buffer high-water mark: the loop stops reading from it
/// (backpressure), its buffered bytes stay bounded, concurrent clients
/// are untouched — and when the slacker finally reads, every queued
/// reply arrives intact and in order.
#[test]
fn never_reading_client_is_backpressured_with_bounded_buffers() {
    const WRITE_CAP: usize = 4 * 1024;
    const READ_CAP: usize = 8 * 1024;
    let server = Server::bind_with(
        published_graph(40, 1),
        "127.0.0.1:0",
        ServerConfig {
            world_cache_capacity: 64,
            // Long enough that the slacker is never idle-reaped here.
            idle_timeout: Some(Duration::from_secs(60)),
            read_buffer_cap: READ_CAP,
            write_buffer_cap: WRITE_CAP,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // The slacker floods requests whose replies are much larger than
    // the write cap in aggregate, and reads nothing.
    const FLOOD: usize = 2000;
    let mut slacker = TcpStream::connect(addr).unwrap();
    slacker.set_nodelay(true).unwrap();
    slacker
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut batch = Vec::new();
    for i in 0..FLOOD {
        let line = format!("DEGREE_DIST {}", i % 40);
        batch.extend_from_slice(&(line.len() as u32).to_le_bytes());
        batch.extend_from_slice(line.as_bytes());
    }
    slacker.write_all(&batch).unwrap();
    slacker.flush().unwrap();

    // Let the loop absorb what it is willing to; concurrent clients
    // must see a completely normal server meanwhile.
    let reference = {
        let clean = Server::bind(published_graph(40, 1), "127.0.0.1:0", 64).unwrap();
        let t = run_script(clean.addr(), 48);
        clean.shutdown();
        t
    };
    assert_eq!(run_script(addr, 48), reference);

    // Bounded memory: the slacker's buffered bytes can reach the read
    // cap plus the write high-water mark plus one in-flight reply —
    // never the ~full flood of replies an unbounded server would hold.
    let mut c = Client::connect(addr).unwrap();
    let metrics = c.request("METRICS").unwrap();
    let peak = text_value(&metrics, "obf_server_buffer_peak_bytes").expect("buffer peak gauge");
    let largest_reply = 4 + server
        .state()
        .answer("DEGREE_DIST 0")
        .len()
        .max(server.state().answer("DEGREE_DIST 39").len()) as u64;
    let bound = (READ_CAP + WRITE_CAP) as u64 + largest_reply;
    assert!(
        peak <= bound,
        "per-connection buffers unbounded: peak {peak} > bound {bound}"
    );
    assert!(peak > 0, "peak gauge never sampled");

    // The slacker repents: reading now must yield all FLOOD replies,
    // in order, each matching the out-of-band answer bit for bit.
    let mut replies = Vec::with_capacity(FLOOD);
    for _ in 0..FLOOD {
        replies.push(
            read_frame(&mut slacker)
                .unwrap()
                .expect("reply survived backpressure"),
        );
    }
    for (i, reply) in replies.iter().enumerate() {
        let expected = server.state().answer(&format!("DEGREE_DIST {}", i % 40));
        assert_eq!(reply, &expected, "reply {i} diverged");
    }
    server.shutdown();
}

/// A client that pipelines a long burst of small frames is parsed in
/// time linear in the bytes it sent: every frame is answered, in order,
/// and a neighbour on the same event loop keeps getting prompt replies
/// while the burst is worked off. Draining the read buffer once per
/// frame made both quadratic in the burst size.
#[test]
fn pipelined_flood_is_answered_in_order_without_stalling_a_neighbour() {
    const FLOOD: usize = 80_000;
    const NEIGHBOUR_RTT_LIMIT: Duration = Duration::from_millis(100);
    let server = Server::bind(published_graph(10, 3), "127.0.0.1:0", 16).unwrap();
    let addr = server.addr();

    let mut neighbour = Client::connect(addr).unwrap();
    assert_eq!(neighbour.request("PING").unwrap(), "OK pong");
    let flood_done = Arc::new(AtomicBool::new(false));
    let probe = {
        let flood_done = Arc::clone(&flood_done);
        std::thread::spawn(move || {
            let (mut worst, mut trips) = (Duration::ZERO, 0usize);
            while !flood_done.load(Ordering::SeqCst) {
                let t = Instant::now();
                assert_eq!(neighbour.request("PING").unwrap(), "OK pong");
                worst = worst.max(t.elapsed());
                trips += 1;
            }
            (worst, trips)
        })
    };

    // 80 000 PINGs and a closing QUIT, written in one go from a second
    // thread while this one reads the replies (a reader that waited for
    // the whole write would stall on backpressure).
    let flooder = TcpStream::connect(addr).unwrap();
    flooder
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut batch = Vec::with_capacity(8 * FLOOD + 8);
    for line in std::iter::repeat_n("PING", FLOOD).chain(["QUIT"]) {
        batch.extend_from_slice(&(line.len() as u32).to_le_bytes());
        batch.extend_from_slice(line.as_bytes());
    }
    let mut writer = flooder.try_clone().unwrap();
    let write = std::thread::spawn(move || writer.write_all(&batch).unwrap());
    let mut replies = BufReader::new(flooder);
    for i in 0..FLOOD {
        let reply = read_frame(&mut replies).unwrap();
        assert_eq!(reply.as_deref(), Some("OK pong"), "reply {i}");
    }
    assert_eq!(read_frame(&mut replies).unwrap().as_deref(), Some("OK bye"));
    assert_eq!(
        read_frame(&mut replies).unwrap(),
        None,
        "nothing after QUIT"
    );
    write.join().unwrap();

    flood_done.store(true, Ordering::SeqCst);
    let (worst, trips) = probe.join().unwrap();
    assert!(trips > 0, "the neighbour never got a turn");
    assert!(
        worst < NEIGHBOUR_RTT_LIMIT,
        "a neighbour's PING waited {worst:?} behind the flood ({trips} round trips)"
    );
    server.shutdown();
}

/// An `obf_server` child process, killed and reaped when dropped so a
/// failing assertion never leaves it running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The request log is written through record by record: a daemon killed
/// without an orderly shutdown has already logged every request it
/// answered.
#[test]
fn killed_server_keeps_every_answered_request_log_record() {
    let dir = std::env::temp_dir().join(format!("obf_server_killed_log_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.up");
    std::fs::write(&graph, "0 1 0.5\n1 2 1.0\n").unwrap();
    let log = dir.join("req.log");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_obf_server"))
            .arg(&graph)
            .args(["--port", "0", "--request-log"])
            .arg(&log)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .expect("LISTENING line");

    let requests = ["PING", "EXPECTED num_edges", "EXPECTED_DEGREE 1"];
    let mut c = Client::connect(addr).unwrap();
    for request in requests {
        assert!(c.request(request).unwrap().starts_with("OK "), "{request}");
    }
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();

    let entries = parse_log(&std::fs::read_to_string(&log).unwrap()).unwrap();
    let logged: Vec<String> = entries.iter().map(|e| e.request_line()).collect();
    assert_eq!(logged, requests);
    std::fs::remove_dir_all(&dir).ok();
}
