//! `obf_server`: a long-lived, event-driven query server over a
//! published uncertain graph.
//!
//! The paper's published artifact `G̃ = (V, p)` is what analysts consume
//! (Section 6): they ask for degree distributions, expected degrees,
//! neighborhoods, and statistics over possible worlds. This crate turns
//! the one-shot evaluation code into a serving subsystem:
//!
//! * start-up loads the graph **once** — from a binary
//!   [`obf_uncertain::snapshot`] (O(bytes)) or the TSV publication
//!   format — and shares it immutably across the serving core;
//! * connections are multiplexed by **readiness event loops**
//!   ([`event_loop`]) over a hand-rolled epoll/`poll(2)` shim
//!   ([`sys`]): nonblocking accept with admission control (`ERR BUSY`
//!   past [`ServerConfig::max_connections`]), per-connection state
//!   machines with bounded read/write buffers, request pipelining,
//!   explicit backpressure (a peer that stops reading its replies stops
//!   being read from), and idle-timeout reaping — so concurrency is
//!   bounded by file descriptors, not OS threads;
//! * [`ServerConfig::shards`] event loops share one listener and one
//!   [`ServerState`] in one process: any shard may accept any
//!   connection, and the connection limit is one count across them;
//! * Monte-Carlo queries read per-world statistics from a shared
//!   [`WorldCache`] memo keyed by `(epoch, master_seed, index)`: each
//!   world is sampled and measured once, and a warm `STAT` over `r`
//!   worlds is `r` lookups;
//! * every answer is **bit-identical at any concurrency and shard
//!   count**: exact queries read immutable state, and sampled queries
//!   average worlds `0..r` of the deterministic
//!   [`obf_uncertain::sample_indexed_world`] stream in index order —
//!   the same guarantee the offline engine makes;
//! * an evolved release is swapped in **live** via the `RELOAD <path>`
//!   admin command. Each connection pins the current [`Release`] when
//!   it is accepted and answers every request from it, so no
//!   connection ever sees answers from two epochs; the connection that
//!   issued the `RELOAD` re-pins to the new release, and every
//!   connection accepted afterwards starts on it.
//!
//! The wire format is a length-prefixed line protocol ([`protocol`]).
//! Connections idle longer than [`ServerConfig::idle_timeout`] are
//! closed, and the `SHUTDOWN` admin command stops every shard — so
//! a scripted test can always wind the server down cleanly.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use obf_server::{Client, Server};
//! use obf_uncertain::UncertainGraph;
//!
//! let g = Arc::new(UncertainGraph::new(3, vec![(0, 1, 0.5), (1, 2, 1.0)]).unwrap());
//! let server = Server::bind(g, "127.0.0.1:0", 64).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! assert_eq!(client.request("EXPECTED num_edges").unwrap(), "OK 1.5");
//! assert_eq!(client.request("EXPECTED_DEGREE 1").unwrap(), "OK 1.5");
//! server.shutdown();
//! ```

// `unsafe` in this workspace is confined to audited modules (see
// docs/AUDIT.md, rule unsafe-hygiene); within them, every unsafe
// operation must sit in its own `unsafe` block with a SAFETY note.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod event_loop;
pub mod protocol;
pub mod sys;

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use obf_obs::metrics::labeled;
use obf_obs::reqlog::{ReqLogEntry, ReqLogWriter, ReqStatus};
use obf_obs::{Counter, Gauge, Histogram, Registry, Span, TraceScope};
use obf_stats::hoeffding::hoeffding_bound;
use obf_uncertain::degree_dist::{vertex_degree_distribution, DegreeDistMethod};
use obf_uncertain::snapshot::SNAPSHOT_MAGIC;
use obf_uncertain::{
    expected_average_degree, expected_degree_variance, expected_num_edges, expected_triangles,
    SnapshotMeta, UncertainGraph, WorldCache, WorldCacheStats,
};

pub use event_loop::BUSY_REPLY;
pub use obf_uncertain::{Release, WorldStat};
pub use protocol::{read_frame, write_frame, ExactStat, Request};
pub use sys::PollerKind;

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum number of worlds whose statistics the shared
    /// [`WorldCache`] memo retains.
    pub world_cache_capacity: usize,
    /// Close a connection that sends nothing for this long (`None`
    /// disables the timeout). The default keeps a wedged client — or a
    /// test harness that forgot a `QUIT` — from pinning a connection
    /// slot forever; it is also what bounds half-open and never-reading
    /// peers.
    pub idle_timeout: Option<Duration>,
    /// Event loops serving the one listener, each on its own thread
    /// (values below 1 count as 1). Answers do not depend on it.
    pub shards: usize,
    /// Readiness backend for the event loops (epoll on Linux, `poll(2)`
    /// elsewhere or when forced).
    pub poller: PollerKind,
    /// Admission control: connections past this limit, counted across
    /// every shard, receive a single `ERR BUSY` frame and are closed.
    pub max_connections: usize,
    /// Per-connection cap on buffered *unparsed* request bytes. Must
    /// exceed [`protocol::MAX_FRAME`]` + 4` to accept maximum-size
    /// frames; smaller values tighten the per-connection memory bound
    /// at the cost of rejecting large frames.
    pub read_buffer_cap: usize,
    /// Per-connection high-water mark on buffered *unsent* reply bytes:
    /// past it the loop stops reading (and parsing) from the connection
    /// until the peer drains below half the mark. The true bound is
    /// this cap plus one reply, since a queued reply is never split.
    pub write_buffer_cap: usize,
    /// When set, every answered request is appended to an
    /// `OBFUREQLOG v1` file at this path (timestamp, trace id, verb,
    /// args, hash, status, micros). Purely observational: answers are
    /// byte-identical with logging on or off.
    pub request_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            world_cache_capacity: 256,
            idle_timeout: Some(Duration::from_secs(60)),
            shards: 1,
            poller: PollerKind::default(),
            max_connections: 4096,
            read_buffer_cap: protocol::MAX_FRAME + 4,
            write_buffer_cap: 256 * 1024,
            request_log: None,
        }
    }
}

/// How a loaded release is backed in memory: zero-copy pages of the
/// snapshot file, or owned heap arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSource {
    /// A v3 snapshot served straight from an `mmap(2)` of the file.
    Mmap,
    /// Decoded into heap-owned CSR arrays (TSV, v1/v2 snapshots, or a
    /// v3 file on a platform without the mmap fast path).
    Heap,
}

impl std::fmt::Display for GraphSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GraphSource::Mmap => "mmap",
            GraphSource::Heap => "heap",
        })
    }
}

/// Loads a published graph from disk, auto-detecting the format by the
/// snapshot magic bytes: binary snapshot (with its release metadata) or
/// whitespace-separated `u v p` TSV (no metadata).
///
/// v3 snapshots are preferentially mapped, not read: the page-aligned
/// CSR sections are served zero-copy via [`obf_uncertain::MappedSnapshot`],
/// so load time is the O(1) structural verification instead of
/// O(bytes), and resident memory is whatever the page cache keeps warm.
/// Anything the mmap path cannot take (v1/v2, big-endian host, non-unix
/// platform) falls back to the heap decoder, whose answers are
/// bit-identical.
pub fn load_published_graph_with_source(
    path: &str,
) -> Result<(UncertainGraph, Option<SnapshotMeta>, GraphSource), String> {
    // Sniff magic + version without reading the body, so a multi-GB v3
    // release never transits the heap.
    let head = {
        use std::io::Read;
        let mut f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut head = [0u8; 12];
        let mut got = 0;
        while got < head.len() {
            match f.read(&mut head[got..]) {
                Ok(0) => break,
                Ok(k) => got += k,
                Err(e) => return Err(format!("cannot read {path}: {e}")),
            }
        }
        (head, got)
    };
    let is_snapshot = head.1 >= SNAPSHOT_MAGIC.len() && head.0[..8] == SNAPSHOT_MAGIC;
    if is_snapshot && head.1 >= 12 {
        let version = u32::from_le_bytes(head.0[8..12].try_into().expect("4 bytes"));
        if version == obf_uncertain::snapshot::SNAPSHOT_VERSION_V3 {
            if let Ok(snap) = obf_uncertain::MappedSnapshot::open(path) {
                let meta = snap.meta();
                return Ok((
                    UncertainGraph::from_mapped(snap),
                    Some(meta),
                    GraphSource::Mmap,
                ));
            }
            // Fall through: the heap decoder re-reads the file and
            // reports the precise byte-offset error (or succeeds where
            // only the platform, not the file, blocked the mmap).
        }
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if is_snapshot {
        obf_uncertain::decode_snapshot_with_meta(&bytes)
            .map(|(g, meta)| (g, Some(meta), GraphSource::Heap))
            .map_err(|e| e.to_string())
    } else {
        obf_uncertain::read_uncertain_edge_list(&bytes[..], 0)
            .map(|g| (g, None, GraphSource::Heap))
            .map_err(|e| e.to_string())
    }
}

/// [`load_published_graph_with_source`] without the source tag, for
/// callers that only need the graph.
pub fn load_published_graph(path: &str) -> Result<(UncertainGraph, Option<SnapshotMeta>), String> {
    load_published_graph_with_source(path).map(|(g, meta, _)| (g, meta))
}

/// Per-server state shared by every shard. The published graph lives
/// behind the [`WorldCache`]'s epoch-tagged slot; everything else is
/// immutable or atomic.
#[derive(Debug)]
pub struct ServerState {
    cache: WorldCache,
    /// The per-server metrics registry — the single source of truth
    /// for every counter below and the world memo's; the `METRICS`
    /// dump renders these same atomics. Per-server (not
    /// process-global) so co-resident servers stay distinguishable.
    registry: Arc<Registry>,
    queries_served: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    reloads: Arc<Counter>,
    connections_accepted: Arc<Counter>,
    peak_connections: Arc<Gauge>,
    busy_rejections: Arc<Counter>,
    idle_reaped: Arc<Counter>,
    buffer_peak_bytes: Arc<Gauge>,
    /// Connections open right now, across every shard: what admission
    /// control compares against [`ServerConfig::max_connections`].
    open_connections: AtomicUsize,
    /// Per-verb request counters and answer-latency histograms,
    /// pre-registered over the fixed [`Request::VERBS`] label space so
    /// the answer path never takes the registry lock.
    per_verb: Vec<(&'static str, Arc<Counter>, Arc<Histogram>)>,
    /// Optional `OBFUREQLOG v1` request log (`--request-log`).
    request_log: Option<ReqLogWriter>,
}

impl ServerState {
    /// Creates the state over a published graph with a world-statistics
    /// memo of the given capacity.
    pub fn new(graph: Arc<UncertainGraph>, world_cache_capacity: usize) -> Self {
        Self::with_request_log(graph, world_cache_capacity, None)
            .expect("request log disabled, creation cannot fail")
    }

    /// [`ServerState::new`] plus an optional `OBFUREQLOG v1` request
    /// log created (truncated) at `path`.
    pub fn with_request_log(
        graph: Arc<UncertainGraph>,
        world_cache_capacity: usize,
        request_log: Option<&std::path::Path>,
    ) -> std::io::Result<Self> {
        let registry = Arc::new(Registry::new());
        let per_verb = Request::VERBS
            .iter()
            .map(|&verb| {
                (
                    verb,
                    registry.counter(&labeled("obf_server_requests_total", &[("verb", verb)])),
                    registry.histogram(&labeled("obf_server_answer_micros", &[("verb", verb)])),
                )
            })
            .collect();
        let request_log = match request_log {
            Some(path) => Some(ReqLogWriter::create(path)?),
            None => None,
        };
        Ok(Self {
            cache: WorldCache::with_registry(graph, world_cache_capacity, Arc::clone(&registry)),
            queries_served: registry.counter("obf_server_queries_total"),
            protocol_errors: registry.counter("obf_server_protocol_errors_total"),
            reloads: registry.counter("obf_server_reloads_total"),
            connections_accepted: registry.counter("obf_server_connections_accepted_total"),
            peak_connections: registry.gauge("obf_server_peak_connections"),
            busy_rejections: registry.counter("obf_server_busy_rejections_total"),
            idle_reaped: registry.counter("obf_server_idle_reaped_total"),
            buffer_peak_bytes: registry.gauge("obf_server_buffer_peak_bytes"),
            open_connections: AtomicUsize::new(0),
            per_verb,
            request_log,
            registry,
        })
    }

    /// The metrics registry backing every counter, gauge and histogram
    /// of this server (the `METRICS` verb renders it).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Point-in-time snapshot of this server's metrics registry.
    pub fn metrics_snapshot(&self) -> obf_obs::MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The currently served graph.
    pub fn graph(&self) -> Arc<UncertainGraph> {
        self.cache.graph()
    }

    /// The current serve epoch (0 at start-up, +1 per `RELOAD`).
    pub fn epoch(&self) -> u64 {
        self.cache.epoch()
    }

    /// The current release: what a connection accepted now pins.
    pub(crate) fn release(&self) -> Arc<Release> {
        self.cache.current()
    }

    /// World-memo counters.
    pub fn cache_stats(&self) -> WorldCacheStats {
        self.cache.stats()
    }

    /// Total request lines answered (including `ERR` answers).
    pub fn queries_served(&self) -> u64 {
        self.queries_served.get()
    }

    /// Requests answered with `ERR`, plus frame-level violations
    /// (oversized length prefix, non-UTF-8 payload) that never became a
    /// request line.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.get()
    }

    /// Successful `RELOAD`s so far.
    pub fn reloads(&self) -> u64 {
        self.reloads.get()
    }

    /// Connections admitted by the serving core since start-up.
    pub fn connections_accepted(&self) -> u64 {
        self.connections_accepted.get()
    }

    /// High-water mark of simultaneously open connections.
    pub fn peak_connections(&self) -> u64 {
        self.peak_connections.get()
    }

    /// Connections rejected by admission control with `ERR BUSY`.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.get()
    }

    /// Connections closed by the idle-timeout sweep.
    pub fn idle_reaped(&self) -> u64 {
        self.idle_reaped.get()
    }

    /// High-water mark of any single connection's buffered bytes
    /// (unparsed requests + unsent replies) — the observable side of
    /// the bounded-memory guarantee.
    pub fn buffer_peak_bytes(&self) -> u64 {
        self.buffer_peak_bytes.get()
    }

    /// Admission control: counts a new connection in if fewer than
    /// `max` are open, across every shard; otherwise counts a `BUSY`
    /// rejection and returns false. An admitted connection is counted
    /// out again by [`ServerState::note_connection_closed`].
    pub(crate) fn admit_connection(&self, max: usize) -> bool {
        let admitted =
            self.open_connections
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |open| {
                    (open < max).then_some(open + 1)
                });
        match admitted {
            Ok(before) => {
                self.connections_accepted.inc();
                self.peak_connections.max(before as u64 + 1);
                true
            }
            Err(_) => {
                self.busy_rejections.inc();
                false
            }
        }
    }

    pub(crate) fn note_connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn note_idle_reaped(&self) {
        self.idle_reaped.inc();
    }

    pub(crate) fn note_protocol_error(&self) {
        self.protocol_errors.inc();
    }

    pub(crate) fn note_buffer_level(&self, bytes: u64) {
        self.buffer_peak_bytes.max(bytes);
    }

    /// Swaps in a new published graph, invalidating every memoized world.
    /// Returns the new release. Connections keep answering from the
    /// release they pinned.
    pub fn swap_graph(&self, graph: Arc<UncertainGraph>) -> Arc<Release> {
        let release = self.cache.swap_graph(graph);
        self.reloads.inc();
        release
    }

    /// Per-verb metrics handles for a canonical verb label (falls back
    /// to the `INVALID` slot, which is always registered).
    fn verb_metrics(&self, verb: &str) -> (&Arc<Counter>, &Arc<Histogram>) {
        let slot = self
            .per_verb
            .iter()
            .find(|(v, _, _)| *v == verb)
            .or_else(|| {
                self.per_verb
                    .iter()
                    .find(|(v, _, _)| *v == protocol::INVALID_VERB)
            })
            .expect("INVALID verb slot is always registered");
        (&slot.1, &slot.2)
    }

    /// Answers one request line from the current release, as a
    /// connection opened just now would: `OK ...` or `ERR ...`. Called
    /// line by line, it is the transport-free transcript every shard
    /// count and poller must reproduce.
    pub fn answer(&self, line: &str) -> String {
        self.answer_on(&mut self.release(), line)
    }

    /// Answers one request line from the connection's pinned release:
    /// a concurrent `RELOAD` on another connection cannot change what
    /// it answers about, and a `RELOAD` on this one re-pins `pin` to
    /// the new release. Pure with respect to the pinned graph and the
    /// request (modulo cache and counter bookkeeping), so answers are
    /// reproducible by construction.
    ///
    /// Observability rides alongside: a fresh trace id scopes the
    /// request (visible to the world cache and engine via
    /// [`obf_obs::current_trace`]), a span times the answer into the
    /// per-verb latency histogram, and — when enabled — a request-log
    /// record is appended after the reply is built. None of it touches
    /// a reply byte.
    pub(crate) fn answer_on(&self, pin: &mut Arc<Release>, line: &str) -> String {
        let trace = obf_obs::next_trace_id();
        let _scope = TraceScope::enter(trace);
        self.queries_served.inc();
        let parsed = Request::parse(line);
        let verb = match &parsed {
            Ok(req) => req.verb(),
            Err(_) => protocol::INVALID_VERB,
        };
        let (counter, hist) = self.verb_metrics(verb);
        counter.inc();
        let span = Span::start_in(Arc::clone(hist));
        let reply = match parsed.and_then(|req| self.answer_request(pin, &req)) {
            Ok(payload) => format!("OK {payload}"),
            Err(msg) => {
                self.protocol_errors.inc();
                format!("ERR {msg}")
            }
        };
        let micros = span.finish();
        if let Some(log) = &self.request_log {
            // Unparseable lines may contain anything (tabs, newlines);
            // they are filed under INVALID with no args so the log
            // itself stays well-formed.
            let (verb_field, args) = if verb == protocol::INVALID_VERB {
                (protocol::INVALID_VERB.to_string(), String::new())
            } else {
                let mut parts = line.split_whitespace();
                let head = parts.next().unwrap_or(verb).to_string();
                let tail = parts.collect::<Vec<_>>().join(" ");
                (head, tail)
            };
            let request_line = if args.is_empty() {
                verb_field.clone()
            } else {
                format!("{verb_field} {args}")
            };
            log.log(&ReqLogEntry {
                ts_micros: obf_obs::clock::unix_micros(),
                trace: trace.0,
                verb: verb_field,
                args,
                args_hash: obf_obs::reqlog::fnv1a(request_line.as_bytes()),
                status: if reply.starts_with("OK") {
                    ReqStatus::Ok
                } else {
                    ReqStatus::Err
                },
                micros,
            });
        }
        reply
    }

    /// Flush the request log (if any) to disk — called by the serving
    /// cores on orderly shutdown so short-lived servers never lose
    /// buffered records.
    pub fn flush_request_log(&self) {
        if let Some(log) = &self.request_log {
            log.flush();
        }
    }

    fn answer_request(&self, pin: &mut Arc<Release>, req: &Request) -> Result<String, String> {
        if let Request::Reload(path) = req {
            return self.reload(pin, path);
        }
        let release = &**pin;
        let (epoch, g) = (release.epoch, &*release.graph);
        let n = g.num_vertices();
        let check_vertex = |v: u32| {
            if (v as usize) < n {
                Ok(v)
            } else {
                Err(format!("vertex {v} out of range for n={n}"))
            }
        };
        Ok(match *req {
            Request::Ping => "pong".to_string(),
            Request::Quit => "bye".to_string(),
            // The event loop that carried the request stops every shard.
            Request::Shutdown => "shutting down".to_string(),
            Request::Reload(_) => unreachable!("answered above"),
            Request::Health => {
                let current = self.release();
                format!(
                    "ok epoch={} n={}",
                    current.epoch,
                    current.graph.num_vertices()
                )
            }
            Request::Info => format!(
                "n={} candidates={} mass={} epoch={epoch}",
                n,
                g.num_candidates(),
                g.total_probability_mass()
            ),
            Request::ExpectedDegree(v) => g.expected_degree(check_vertex(v)?).to_string(),
            Request::DegreeDist(v) => {
                let row = vertex_degree_distribution(g, check_vertex(v)?, DegreeDistMethod::Exact);
                join_f64(&row)
            }
            Request::Neighborhood(v) => {
                let v = check_vertex(v)?;
                let mut out = String::new();
                for (t, p) in g.incident(v) {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(&format!("{t}:{p}"));
                }
                out
            }
            Request::Expected(stat) => match stat {
                ExactStat::NumEdges => expected_num_edges(g),
                ExactStat::AvgDegree => expected_average_degree(g),
                ExactStat::DegreeVariance => expected_degree_variance(g),
                ExactStat::Triangles => expected_triangles(g),
            }
            .to_string(),
            Request::Stat {
                stat,
                worlds,
                seed,
                eps,
            } => self.answer_stat(release, stat, worlds, seed, eps),
            Request::Metrics => {
                // Multi-line payload: the frame is length-prefixed, so
                // newlines inside a reply are unambiguous on the wire.
                format!("metrics\n{}", self.registry.render_text())
            }
        })
    }

    /// The `RELOAD <path>` admin command: load the file (snapshot or
    /// TSV), swap it in atomically, invalidate the world memo, and
    /// re-pin the issuing connection to the new release.
    fn reload(&self, pin: &mut Arc<Release>, path: &str) -> Result<String, String> {
        let (graph, meta, source) = load_published_graph_with_source(path)?;
        let n = graph.num_vertices();
        let m = graph.num_candidates();
        *pin = self.swap_graph(Arc::new(graph));
        let epoch = pin.epoch;
        let mut out = format!("reloaded epoch={epoch} n={n} candidates={m}");
        if let Some(meta) = meta {
            out.push_str(&format!(
                " snapshot_epoch={} parent_checksum={:#018x}",
                meta.epoch, meta.parent_checksum
            ));
        }
        out.push_str(&format!(" source={source}"));
        Ok(out)
    }

    /// Monte-Carlo estimate `S̄` over worlds `0..r` of the seed stream
    /// (Eq. 9): `r` memo lookups folded in index order, so the
    /// floating-point sum — and therefore the answer — is identical no
    /// matter how many connections are active or which worlds were
    /// resident. Lookups go against the request's pinned [`Release`], so
    /// a mid-request reload can never mix releases into one estimate.
    fn answer_stat(
        &self,
        release: &Release,
        stat: WorldStat,
        worlds: usize,
        seed: u64,
        eps: Option<f64>,
    ) -> String {
        let values: Vec<f64> = (0..worlds)
            .map(|i| self.cache.get_or_sample_pinned(release, seed, i).get(stat))
            .collect();
        let mean = values.iter().sum::<f64>() / worlds as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / worlds as f64;
        let mut out = format!("mean={mean} std={}", var.sqrt());
        if let Some(eps) = eps {
            let (a, b) = stat_range(release, stat);
            out.push_str(&format!(
                " hoeffding={}",
                hoeffding_bound(a, b, worlds, eps)
            ));
        }
        out
    }
}

/// A-priori range `[a, b]` of each sampled statistic, for the Hoeffding
/// bound of Lemma 2. The degree ceiling is computed once per release and
/// stored with it, so a warm `STAT … eps` does no O(n) work and the
/// range always describes the release the estimate was drawn from.
fn stat_range(release: &Release, stat: WorldStat) -> (f64, f64) {
    let g = &release.graph;
    let n = g.num_vertices().max(1) as f64;
    let m = g.num_candidates() as f64;
    let max_deg = release.degree_ceiling() as f64;
    match stat {
        WorldStat::NumEdges => (0.0, m),
        WorldStat::AvgDegree => (0.0, 2.0 * m / n),
        WorldStat::MaxDegree => (0.0, max_deg),
        // Degrees live in [0, max_deg]; a variance over that interval
        // is at most (max_deg/2)².
        WorldStat::DegreeVariance => (0.0, max_deg * max_deg / 4.0),
        WorldStat::Clustering => (0.0, 1.0),
    }
}

fn join_f64(xs: &[f64]) -> String {
    let mut out = String::new();
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&x.to_string());
    }
    out
}

/// A running server: [`ServerConfig::shards`] event loops, each on its
/// own thread, plus the shared state handle.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<event_loop::Stop>,
    shards: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// one event loop with the default [`ServerConfig`].
    pub fn bind<A: ToSocketAddrs>(
        graph: Arc<UncertainGraph>,
        addr: A,
        world_cache_capacity: usize,
    ) -> std::io::Result<Self> {
        Self::bind_with(
            graph,
            addr,
            ServerConfig {
                world_cache_capacity,
                ..ServerConfig::default()
            },
        )
    }

    /// [`Server::bind`] with explicit tuning knobs. Every shard polls
    /// its own clone of the one listener and answers through the one
    /// shared [`ServerState`].
    pub fn bind_with<A: ToSocketAddrs>(
        graph: Arc<UncertainGraph>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::with_request_log(
            graph,
            config.world_cache_capacity,
            config.request_log.as_deref(),
        )?);
        let stop = Arc::new(event_loop::Stop::new()?);
        // Build every shard before starting any, so a failure leaves no
        // thread behind.
        let loops = (0..config.shards.max(1))
            .map(|_| {
                event_loop::EventLoop::new(
                    listener.try_clone()?,
                    Arc::clone(&state),
                    Arc::clone(&stop),
                    config.clone(),
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let shards = loops
            .into_iter()
            .map(|shard| std::thread::spawn(move || shard.run()))
            .collect();
        Ok(Self {
            addr,
            state,
            stop,
            shards,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared server state (for in-process observability).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops every shard and joins their threads. Each shard flushes
    /// pending replies within a short drain window.
    pub fn shutdown(mut self) {
        self.stop_shards();
    }

    fn stop_shards(&mut self) {
        self.stop.request();
        self.join_shards();
        // Every answered request is logged before its reply is queued,
        // so once the shards have exited the buffer holds the complete
        // log.
        self.state.flush_request_log();
    }

    fn join_shards(&mut self) {
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }

    /// Blocks until every shard exits — via [`Server::shutdown`] from
    /// another handle, a protocol `SHUTDOWN` command, or a poller
    /// error. This is the main binary's run mode.
    pub fn join(mut self) {
        self.join_shards();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_shards();
    }
}

/// Blocking client for the length-prefixed protocol — used by `loadgen`,
/// the integration tests, and as the reference implementation for other
/// consumers.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one request line and reads the reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        write_frame(&mut self.stream, line)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            )
        })
    }

    /// Pipelines a batch: writes every request frame back-to-back, then
    /// reads the replies in order. Exercises the server's pipelining
    /// path; answers must match one-at-a-time [`Client::request`]s
    /// byte for byte.
    pub fn pipeline(&mut self, lines: &[&str]) -> std::io::Result<Vec<String>> {
        let mut batch = Vec::new();
        for line in lines {
            let bytes = line.as_bytes();
            batch.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            batch.extend_from_slice(bytes);
        }
        use std::io::Write as _;
        self.stream.write_all(&batch)?;
        self.stream.flush()?;
        let mut replies = Vec::with_capacity(lines.len());
        for _ in 0..lines.len() {
            let reply = read_frame(&mut self.stream)?.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-pipeline",
                )
            })?;
            replies.push(reply);
        }
        Ok(replies)
    }

    /// The raw stream, for tests that need byte-level control.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServerState {
        let g = Arc::new(
            UncertainGraph::new(
                4,
                vec![
                    (0, 1, 0.7),
                    (0, 2, 0.9),
                    (0, 3, 0.8),
                    (1, 2, 0.8),
                    (1, 3, 0.1),
                ],
            )
            .unwrap(),
        );
        ServerState::new(g, 128)
    }

    #[test]
    fn exact_answers_match_library() {
        let s = state();
        assert_eq!(s.answer("PING"), "OK pong");
        assert_eq!(
            s.answer("EXPECTED_DEGREE 0"),
            format!("OK {}", s.graph().expected_degree(0))
        );
        assert_eq!(
            s.answer("EXPECTED num_edges"),
            format!("OK {}", expected_num_edges(&s.graph()))
        );
        assert_eq!(
            s.answer("EXPECTED triangles"),
            format!("OK {}", expected_triangles(&s.graph()))
        );
        let dist = vertex_degree_distribution(&s.graph(), 1, DegreeDistMethod::Exact);
        assert_eq!(s.answer("DEGREE_DIST 1"), format!("OK {}", join_f64(&dist)));
        assert_eq!(s.answer("NEIGHBORHOOD 3"), "OK 0:0.8 1:0.1");
        let info = s.answer("INFO");
        assert!(info.starts_with("OK n=4 candidates=5"), "{info}");
        assert!(info.ends_with("epoch=0"), "{info}");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let s = state();
        assert!(s.answer("EXPECTED_DEGREE 99").starts_with("ERR "));
        assert!(s.answer("BOGUS").starts_with("ERR "));
        assert!(s.answer("").starts_with("ERR "));
        assert!(s.answer("RELOAD /no/such/file.snap").starts_with("ERR "));
        assert_eq!(s.protocol_errors(), 4);
        assert_eq!(s.queries_served(), 4);
        assert_eq!(s.reloads(), 0);
    }

    #[test]
    fn metrics_report_serving_counters() {
        let s = state();
        assert!(s.answer("BOGUS").starts_with("ERR "));
        assert!(s.admit_connection(2));
        assert!(s.admit_connection(2));
        assert!(!s.admit_connection(2));
        s.note_connection_closed();
        assert!(s.admit_connection(2));
        s.note_idle_reaped();
        s.note_buffer_level(12345);
        let reply = s.answer("METRICS");
        let text = reply.strip_prefix("OK metrics\n").expect("METRICS reply");
        for (name, value) in [
            ("obf_server_connections_accepted_total", 3),
            ("obf_server_peak_connections", 2),
            ("obf_server_busy_rejections_total", 1),
            ("obf_server_idle_reaped_total", 1),
            ("obf_server_protocol_errors_total", 1),
            ("obf_server_queries_total", 2),
            ("obf_server_buffer_peak_bytes", 12345),
        ] {
            assert_eq!(
                obf_obs::metrics::text_value(text, name),
                Some(value),
                "{name}"
            );
        }
    }

    /// The per-world value of each statistic computed on the world
    /// itself — the test oracle for the statistics memo.
    fn world_value(stat: WorldStat, world: &obf_graph::Graph) -> f64 {
        match stat {
            WorldStat::NumEdges => world.num_edges() as f64,
            WorldStat::AvgDegree => world.average_degree(),
            WorldStat::MaxDegree => world.max_degree() as f64,
            WorldStat::DegreeVariance => obf_graph::DegreeStats::of(world).degree_variance,
            WorldStat::Clustering => obf_graph::global_clustering_coefficient(world),
        }
    }

    /// The `STAT` reply recomputed out of band over worlds `0..r`.
    fn oracle_reply(g: &UncertainGraph, stat: WorldStat, r: usize, seed: u64) -> String {
        let values: Vec<f64> = (0..r)
            .map(|i| world_value(stat, &obf_uncertain::sample_indexed_world(g, seed, i)))
            .collect();
        let mean = values.iter().sum::<f64>() / r as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / r as f64;
        format!("OK mean={mean} std={}", var.sqrt())
    }

    #[test]
    fn sampled_stat_deterministic_and_cached() {
        let s = state();
        for (k, stat) in WorldStat::ALL.into_iter().enumerate() {
            let line = format!("STAT {} 20 42", stat.name());
            let a = s.answer(&line);
            let b = s.answer(&line);
            assert_eq!(a, b);
            // The reply matches an out-of-band recomputation over the
            // same deterministic stream, bit for bit.
            assert_eq!(a, oracle_reply(&s.graph(), stat, 20, 42), "{line}");
            // Worlds are sampled once: every statistic after the first
            // reads the memo the first one filled.
            let cs = s.cache_stats();
            assert_eq!(cs.misses, 20);
            assert_eq!(cs.hits, 20 + 40 * k as u64);
            assert_eq!(cs.resident, 20);
        }
    }

    #[test]
    fn hoeffding_bound_attached_when_eps_given() {
        let s = state();
        let reply = s.answer("STAT clustering 10 1 0.25");
        let bound: f64 = reply.split("hoeffding=").nth(1).unwrap().parse().unwrap();
        assert_eq!(bound, hoeffding_bound(0.0, 1.0, 10, 0.25));
    }

    fn hoeffding_of(reply: &str) -> f64 {
        reply.split("hoeffding=").nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn hoeffding_range_follows_reload_to_a_new_max_degree() {
        let s = state();
        // Vertices 0 and 1 each carry three candidates.
        let md = s.answer("STAT max_degree 10 1 0.25");
        assert_eq!(hoeffding_of(&md), hoeffding_bound(0.0, 3.0, 10, 0.25));
        let dv = s.answer("STAT degree_variance 10 1 0.25");
        assert_eq!(hoeffding_of(&dv), hoeffding_bound(0.0, 9.0 / 4.0, 10, 0.25));

        let dir = std::env::temp_dir().join(format!("obf_server_ceiling_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("star.snap");
        let star = UncertainGraph::new(7, (1..7).map(|v| (0, v, 0.5)).collect()).unwrap();
        obf_uncertain::save_snapshot(&star, &path).unwrap();
        assert!(s
            .answer(&format!("RELOAD {}", path.display()))
            .starts_with("OK reloaded epoch=1 n=7 candidates=6"));

        // The star's hub carries six candidates: the bound moves with
        // the release, for warm and cold lookups alike.
        for _ in 0..2 {
            let md = s.answer("STAT max_degree 10 1 0.25");
            assert_eq!(hoeffding_of(&md), hoeffding_bound(0.0, 6.0, 10, 0.25));
            let dv = s.answer("STAT degree_variance 10 1 0.25");
            assert_eq!(hoeffding_of(&dv), hoeffding_bound(0.0, 9.0, 10, 0.25));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_swaps_graph_and_invalidates_worlds() {
        let s = state();
        let before = s.answer("STAT num_edges 5 7");
        assert!(s.cache_stats().resident > 0);

        // Write an evolved release and reload it over the protocol.
        let dir = std::env::temp_dir().join(format!("obf_server_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r1.snap");
        let g2 =
            Arc::new(UncertainGraph::new(4, vec![(0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.5)]).unwrap());
        obf_uncertain::save_snapshot_with_meta(
            &g2,
            obf_uncertain::SnapshotMeta {
                epoch: 1,
                parent_checksum: 99,
            },
            &path,
        )
        .unwrap();
        let reply = s.answer(&format!("RELOAD {}", path.display()));
        assert!(
            reply.starts_with("OK reloaded epoch=1 n=4 candidates=3 snapshot_epoch=1"),
            "{reply}"
        );
        assert_eq!(s.reloads(), 1);
        assert_eq!(s.epoch(), 1);
        let cs = s.cache_stats();
        assert_eq!(cs.resident, 0);
        assert!(cs.invalidations >= 5);

        // The same query now answers about the new release, from fresh
        // worlds — bit-identical to an out-of-band resample of g2.
        let after = s.answer("STAT num_edges 5 7");
        assert_ne!(before, after);
        let values: Vec<f64> = (0..5)
            .map(|i| obf_uncertain::sample_indexed_world(&g2, 7, i).num_edges() as f64)
            .collect();
        let mean = values.iter().sum::<f64>() / 5.0;
        assert!(after.starts_with(&format!("OK mean={mean} ")), "{after}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_repins_only_the_issuing_connection() {
        let s = state();
        let g1 = s.graph();
        let mut bystander = s.release();
        let mut issuer = s.release();

        let dir = std::env::temp_dir().join(format!("obf_server_repin_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r1.snap");
        let g2 = Arc::new(UncertainGraph::new(4, vec![(0, 1, 1.0), (2, 3, 0.5)]).unwrap());
        obf_uncertain::save_snapshot(&g2, &path).unwrap();
        let reply = s.answer_on(&mut issuer, &format!("RELOAD {}", path.display()));
        assert!(
            reply.starts_with("OK reloaded epoch=1 n=4 candidates=2"),
            "{reply}"
        );
        assert_eq!(issuer.epoch, 1);
        assert_eq!(s.epoch(), 1);

        // The bystander still answers from epoch 0; HEALTH reports the
        // server's epoch, INFO the pinned one.
        assert_eq!(bystander.epoch, 0);
        let info = s.answer_on(&mut bystander, "INFO");
        assert!(info.ends_with(" epoch=0"), "{info}");
        assert_eq!(s.answer_on(&mut bystander, "HEALTH"), "OK ok epoch=1 n=4");
        assert_eq!(
            s.answer_on(&mut bystander, "EXPECTED num_edges"),
            format!("OK {}", expected_num_edges(&g1))
        );
        assert_eq!(
            s.answer_on(&mut issuer, "EXPECTED num_edges"),
            format!("OK {}", expected_num_edges(&g2))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_over_tcp() {
        let g = Arc::new(UncertainGraph::new(3, vec![(0, 1, 0.5), (1, 2, 1.0)]).unwrap());
        let server = Server::bind(Arc::clone(&g), "127.0.0.1:0", 16).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        assert_eq!(c.request("PING").unwrap(), "OK pong");
        assert_eq!(c.request("EXPECTED num_edges").unwrap(), "OK 1.5");
        assert_eq!(c.request("QUIT").unwrap(), "OK bye");
        server.shutdown();
    }
}
