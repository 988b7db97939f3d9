//! The event-driven server core: one thread per shard, a readiness
//! [`Poller`] per shard, and a per-connection state machine.
//!
//! Rather than one OS thread per peer, each shard multiplexes its
//! connections over one poller. Every shard polls a clone of the same
//! listener, so any shard may accept any connection, and every shard
//! answers through the same [`ServerState`]:
//!
//! * **nonblocking accept** with admission control — past
//!   [`crate::ServerConfig::max_connections`] open connections, counted
//!   across every shard, a new peer gets a single `ERR BUSY …` frame
//!   and an immediate close (the 503 of this protocol) instead of an
//!   unbounded queue;
//! * **per-connection pinning** — a connection answers every request
//!   from the [`Release`] that was current when it was accepted, until
//!   it issues a `RELOAD` itself;
//! * **bounded buffers** — at most `read_buffer_cap` unparsed request
//!   bytes and `write_buffer_cap` (plus one in-flight reply) unsent
//!   response bytes per connection, so no peer can grow server memory
//!   without limit;
//! * **pipelining** — complete frames in the read buffer are answered
//!   in arrival order, at most [`FRAMES_PER_TURN`] per turn: a
//!   connection with frames left over gets another turn after every
//!   other ready connection had one, so a long pipelined burst delays
//!   its neighbours by one turn, not by the whole burst. Framing walks
//!   the buffer by offset, so it is linear in the bytes buffered.
//!   Answers are computed by `ServerState::answer_on`, so a transcript
//!   is bit-identical to calling [`ServerState::answer`] line by line;
//! * **backpressure** — when a connection's write buffer crosses the
//!   high-water mark the loop stops *reading* (and stops parsing) from
//!   that connection until the peer drains it below half the mark: a
//!   client that never reads its replies stalls only itself;
//! * **idle reaping** — connections silent past
//!   [`crate::ServerConfig::idle_timeout`] are closed on a sweep, which
//!   also bounds how long a half-open or never-reading peer can hold a
//!   slot.
//!
//! Frame-level violations:
//!
//! * an oversized length prefix gets an `ERR` reply and a clean close
//!   (framing cannot resync): the socket leaves the connection slab,
//!   its write side is shut down, and request bytes still arriving are
//!   discarded until the peer's EOF, so they cannot turn the close into
//!   a reset (see `EventLoop::linger`);
//! * a non-UTF-8 payload gets an `ERR` reply and the connection survives
//!   (the byte count still delimits the frame);
//! * a truncated frame is just a close when the peer disappears.
//!
//! All of them count in the `obf_server_protocol_errors_total` series.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::protocol::MAX_FRAME;
use crate::sys::{Event, Interest, Poller};
use crate::{Release, ServerConfig, ServerState};

/// Listener token; connection tokens are slab indices `0..`.
const LISTENER: u64 = u64::MAX;

/// Stop-bell token.
const BELL: u64 = u64::MAX - 1;

/// First token of the lingering sockets (see `EventLoop::linger`):
/// lingering slot `i` has token `LINGER + i`.
const LINGER: u64 = 1 << 62;

/// Most request bytes a lingering socket reads and discards.
const LINGER_DISCARD_BYTES: usize = 64 * 1024;

/// Longest a lingering socket waits for the peer's EOF.
const LINGER_DEADLINE: Duration = Duration::from_secs(1);

/// Reply sent (best-effort) to a connection rejected by admission
/// control before it is closed.
pub const BUSY_REPLY: &str = "ERR BUSY connection limit reached, retry later";

/// Most frames one connection gets answered per turn before the loop
/// serves the other ready connections (pipelining fairness).
pub const FRAMES_PER_TURN: usize = 1024;

/// How long after a stop request the loop keeps trying to flush
/// pending write buffers before dropping the remaining connections.
const DRAIN_DEADLINE: Duration = Duration::from_millis(500);

/// The stop signal every shard of one server watches: a flag, and a
/// bell that wakes shards blocked in a wait with no timeout. The bell
/// is one end of a socket pair whose other end every shard registers;
/// ringing writes one byte that nobody reads, so the other end stays
/// readable and every shard's next wait returns at once.
#[derive(Debug)]
pub(crate) struct Stop {
    flag: AtomicBool,
    bell: UnixStream,
    clapper: UnixStream,
}

impl Stop {
    pub(crate) fn new() -> std::io::Result<Self> {
        let (bell, clapper) = UnixStream::pair()?;
        Ok(Self {
            flag: AtomicBool::new(false),
            bell,
            clapper,
        })
    }

    /// Asks every shard to stop; later calls do nothing.
    pub(crate) fn request(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            if let Err(e) = (&self.bell).write_all(&[1]) {
                eprintln!("stop bell failed: {e}");
            }
        }
    }

    fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// The release every request on this connection is answered from.
    pin: Arc<Release>,
    /// Unparsed request bytes (bounded by `read_buffer_cap`).
    rbuf: Vec<u8>,
    /// Unsent reply bytes, drained from the front.
    wbuf: VecDeque<u8>,
    /// Reads are paused: the write buffer crossed the high-water mark.
    paused: bool,
    /// Flush what is left and close; read no more requests.
    closing: bool,
    /// Peer half-closed (EOF seen); close once the write side drains.
    peer_eof: bool,
    /// A fatal framing error queued the closing `ERR`: the close
    /// lingers (see `EventLoop::linger`).
    fatal: bool,
    /// The last turn ran out of [`FRAMES_PER_TURN`] with complete
    /// frames possibly left in `rbuf`; the connection is in the loop's
    /// backlog.
    backlogged: bool,
    last_activity: Instant,
    registered: Interest,
}

impl Conn {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing && !self.paused && !self.peer_eof,
            writable: !self.wbuf.is_empty(),
        }
    }
}

/// A socket closed after a fatal framing error, still reading and
/// discarding request bytes (see `EventLoop::linger`).
struct Lingering {
    stream: TcpStream,
    /// Request bytes still to discard before closing anyway.
    left: usize,
    since: Instant,
}

/// What processing one connection decided.
enum Disposition {
    Keep,
    Close,
}

/// One shard. Owns its listener clone, its poller and its slab of
/// connections; runs on its own thread until `stop` is requested
/// (externally or by a protocol `SHUTDOWN` on any shard), then flushes
/// what it can within [`DRAIN_DEADLINE`] and exits.
pub(crate) struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    state: Arc<ServerState>,
    stop: Arc<Stop>,
    config: ServerConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Connections owed another turn (see [`Conn::backlogged`]).
    backlog: Vec<usize>,
    /// Sockets closing after a fatal framing error, by slot; trailing
    /// empty slots are trimmed.
    lingering: Vec<Option<Lingering>>,
    events: Vec<Event>,
    scratch: Vec<u8>,
}

impl EventLoop {
    pub(crate) fn new(
        listener: TcpListener,
        state: Arc<ServerState>,
        stop: Arc<Stop>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        poller.register(stop.clapper.as_raw_fd(), BELL, Interest::READ)?;
        Ok(Self {
            listener,
            poller,
            state,
            stop,
            config,
            conns: Vec::new(),
            free: Vec::new(),
            backlog: Vec::new(),
            lingering: Vec::new(),
            events: Vec::new(),
            scratch: vec![0u8; 16 * 1024],
        })
    }

    pub(crate) fn run(mut self) {
        loop {
            if self.stop.requested() {
                self.drain_and_exit();
                return;
            }
            // Owed turns are served right after this wait, so it must
            // not block while there are any.
            let timeout = if self.backlog.is_empty() {
                self.wait_timeout()
            } else {
                Some(Duration::ZERO)
            };
            let mut events = std::mem::take(&mut self.events);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                eprintln!("poller wait failed: {e}");
                self.events = events;
                self.drain_and_exit();
                return;
            }
            self.events = events;
            for i in 0..self.events.len() {
                let ev = self.events[i];
                match ev.token {
                    LISTENER => self.accept_ready(),
                    BELL => {} // the loop top sees the stop flag
                    t if t >= LINGER => self.linger_ready((t - LINGER) as usize),
                    idx => self.conn_ready(idx as usize, ev.readable, ev.writable),
                }
            }
            for idx in std::mem::take(&mut self.backlog) {
                if matches!(&self.conns[idx], Some(c) if c.backlogged) {
                    self.conn_ready(idx, false, false);
                }
            }
            self.reap_idle();
        }
    }

    /// Poll timeout: bounded by the idle-reap granularity when a
    /// timeout is configured or a socket is lingering, otherwise block
    /// until woken (a stop request rings the bell).
    fn wait_timeout(&self) -> Option<Duration> {
        let idle = self
            .config
            .idle_timeout
            .or_else(|| (!self.lingering.is_empty()).then_some(LINGER_DEADLINE));
        idle.map(|t| {
            (t / 4)
                .max(Duration::from_millis(5))
                .min(Duration::from_millis(250))
        })
    }

    // -- accept path ---------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.state.admit_connection(self.config.max_connections) {
                        self.admit(stream);
                    } else {
                        self.reject_busy(stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    return;
                }
            }
        }
    }

    /// Admission control: one best-effort `ERR BUSY` frame, then close.
    /// The socket is fresh, so the ~50-byte frame virtually always fits
    /// its send buffer in one nonblocking write; a peer we cannot even
    /// tell is simply dropped.
    fn reject_busy(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut frame = Vec::with_capacity(4 + BUSY_REPLY.len());
        frame.extend_from_slice(&(BUSY_REPLY.len() as u32).to_le_bytes());
        frame.extend_from_slice(BUSY_REPLY.as_bytes());
        let _ = (&stream).write(&frame);
    }

    /// Registers a connection admission control already counted in.
    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            self.state.note_connection_closed();
            return;
        }
        let conn = Conn {
            stream,
            pin: self.state.release(),
            rbuf: Vec::new(),
            wbuf: VecDeque::new(),
            paused: false,
            closing: false,
            peer_eof: false,
            fatal: false,
            backlogged: false,
            last_activity: Instant::now(),
            registered: Interest::READ,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let fd = self.conns[idx].as_ref().unwrap().stream.as_raw_fd();
        if let Err(e) = self.poller.register(fd, idx as u64, Interest::READ) {
            eprintln!("register failed: {e}");
            self.conns[idx] = None;
            self.free.push(idx);
            self.state.note_connection_closed();
        }
    }

    // -- connection path -----------------------------------------------

    fn conn_ready(&mut self, idx: usize, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return; // closed earlier in this same event batch
        };
        let mut conn = conn;
        let disposition = self.drive(&mut conn, readable, writable);
        match disposition {
            Disposition::Close => self.close(idx, conn),
            Disposition::Keep => {
                if conn.backlogged {
                    self.backlog.push(idx);
                }
                self.update_interest(idx, &mut conn);
                self.conns[idx] = Some(conn);
            }
        }
    }

    /// Runs one connection's turn: read what the socket has, answer up
    /// to [`FRAMES_PER_TURN`] complete frames, flush, and repeat while
    /// backpressure transitions free more work within that budget.
    fn drive(&mut self, conn: &mut Conn, readable: bool, writable: bool) -> Disposition {
        if readable {
            if let Err(()) = self.fill_read_buffer(conn) {
                return Disposition::Close;
            }
        }
        let mut budget = FRAMES_PER_TURN;
        loop {
            if let Err(()) = self.process_frames(conn, &mut budget) {
                // Fatal framing error: the ERR reply is queued; flush
                // it and close below.
                conn.closing = true;
                conn.fatal = true;
            }
            if (writable || !conn.wbuf.is_empty()) && self.flush(conn).is_err() {
                return Disposition::Close;
            }
            // A flush that crossed the low-water mark resumes parsing
            // of pipelined frames still in rbuf; loop until quiescent.
            if !(conn.paused && conn.wbuf.len() < self.config.write_buffer_cap / 2) {
                break;
            }
            conn.paused = false;
        }
        self.state
            .note_buffer_level((conn.rbuf.len() + conn.wbuf.len()) as u64);
        if conn.wbuf.is_empty() && (conn.closing || conn.peer_eof) && !conn.backlogged {
            return Disposition::Close;
        }
        Disposition::Keep
    }

    /// Reads until the socket would block or the bounded read buffer is
    /// full. `Err(())` means the connection died mid-read.
    fn fill_read_buffer(&mut self, conn: &mut Conn) -> Result<(), ()> {
        loop {
            let space = self.config.read_buffer_cap.saturating_sub(conn.rbuf.len());
            if space == 0 {
                return Ok(()); // backpressure: parse before reading more
            }
            let want = space.min(self.scratch.len());
            match (&conn.stream).read(&mut self.scratch[..want]) {
                Ok(0) => {
                    conn.peer_eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.scratch[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
    }

    /// Answers the complete frames in `rbuf`, in order, stopping early
    /// if the write buffer crosses the high-water mark or after
    /// `budget` frames (then `conn.backlogged` is set). `Err(())` is a
    /// fatal framing violation (reply already queued).
    ///
    /// Frames are walked by offset and the consumed prefix is drained
    /// once at the end, so parsing is linear in the bytes buffered; a
    /// drain per frame would move the rest of the buffer every time.
    fn process_frames(&mut self, conn: &mut Conn, budget: &mut usize) -> Result<(), ()> {
        let mut at = 0;
        conn.backlogged = false;
        let result = loop {
            if conn.closing || conn.paused {
                break Ok(());
            }
            if *budget == 0 {
                conn.backlogged = true;
                break Ok(());
            }
            let rest = &conn.rbuf[at..];
            if rest.len() < 4 {
                // An over-full buffer that cannot even hold a length
                // prefix cannot make progress (config abuse guard).
                if rest.len() >= self.config.read_buffer_cap {
                    self.state.note_protocol_error();
                    queue_frame(&mut conn.wbuf, "ERR read buffer exhausted");
                    break Err(());
                }
                break Ok(());
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let frame_cap = MAX_FRAME.min(self.config.read_buffer_cap.saturating_sub(4));
            if len > frame_cap {
                // The declared length is garbage; the stream can never
                // resync, so reply and close.
                self.state.note_protocol_error();
                queue_frame(
                    &mut conn.wbuf,
                    &format!("ERR frame of {len} bytes exceeds the {frame_cap}-byte cap"),
                );
                break Err(());
            }
            if rest.len() < 4 + len {
                break Ok(()); // truncated so far; more bytes may come
            }
            let payload = &rest[4..4 + len];
            at += 4 + len;
            *budget -= 1;
            match std::str::from_utf8(payload) {
                Err(_) => {
                    // The byte count still delimited the frame, so the
                    // connection survives a non-UTF-8 request.
                    self.state.note_protocol_error();
                    queue_frame(&mut conn.wbuf, "ERR request is not valid UTF-8");
                }
                Ok(line) => {
                    let verb = line.trim();
                    let quitting = verb == "QUIT";
                    let shutting_down = verb == "SHUTDOWN";
                    let reply = self.state.answer_on(&mut conn.pin, line);
                    queue_frame(&mut conn.wbuf, &reply);
                    if quitting || shutting_down {
                        conn.closing = true;
                    }
                    if shutting_down {
                        // Every shard, this one included, sees the flag
                        // at its next loop top.
                        self.stop.request();
                    }
                }
            }
            if conn.wbuf.len() >= self.config.write_buffer_cap {
                conn.paused = true;
            }
        };
        conn.rbuf.drain(..at);
        result
    }

    /// Writes as much of `wbuf` as the socket accepts. `Err` means the
    /// peer is gone.
    fn flush(&mut self, conn: &mut Conn) -> std::io::Result<()> {
        while !conn.wbuf.is_empty() {
            let (front, _) = conn.wbuf.as_slices();
            match (&conn.stream).write(front) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    conn.wbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn update_interest(&mut self, idx: usize, conn: &mut Conn) {
        let desired = conn.desired_interest();
        if desired != conn.registered {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, idx as u64, desired).is_err() {
                conn.closing = true;
            } else {
                conn.registered = desired;
            }
        }
    }

    fn close(&mut self, idx: usize, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.fatal && !conn.peer_eof && conn.wbuf.is_empty() {
            self.linger(conn.stream);
        }
        self.conns[idx] = None;
        self.free.push(idx);
        self.state.note_connection_closed();
    }

    // -- lingering close -----------------------------------------------

    /// Closes a socket whose `ERR` reply to a fatal framing error is
    /// flushed. Closing a socket with unread request bytes makes the
    /// kernel send an RST, which can discard the reply before the peer
    /// reads it, and request bytes may still be in flight. So the write
    /// side is shut down (the peer reads EOF after the reply), and what
    /// the peer still sends is read and discarded until its EOF,
    /// [`LINGER_DISCARD_BYTES`] or [`LINGER_DEADLINE`], whichever comes
    /// first; only then is the socket closed.
    fn linger(&mut self, stream: TcpStream) {
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let slot = match self.lingering.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                self.lingering.push(None);
                self.lingering.len() - 1
            }
        };
        let fd = stream.as_raw_fd();
        if self
            .poller
            .register(fd, LINGER + slot as u64, Interest::READ)
            .is_err()
        {
            self.trim_lingering();
            return;
        }
        self.lingering[slot] = Some(Lingering {
            stream,
            left: LINGER_DISCARD_BYTES,
            since: Instant::now(),
        });
        self.linger_ready(slot);
    }

    /// Reads and discards what a lingering socket has, and closes it at
    /// the peer's EOF, a read error or the byte bound.
    fn linger_ready(&mut self, slot: usize) {
        let Some(l) = self.lingering.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let done = loop {
            if l.left == 0 {
                break true;
            }
            let want = l.left.min(self.scratch.len());
            match (&l.stream).read(&mut self.scratch[..want]) {
                Ok(0) => break true,
                Ok(n) => l.left -= n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break true,
            }
        };
        if done {
            self.end_linger(slot);
        }
    }

    fn end_linger(&mut self, slot: usize) {
        if let Some(l) = self.lingering[slot].take() {
            let _ = self.poller.deregister(l.stream.as_raw_fd());
        }
        self.trim_lingering();
    }

    fn trim_lingering(&mut self) {
        while matches!(self.lingering.last(), Some(None)) {
            self.lingering.pop();
        }
    }

    /// Sweeps connections whose last activity is older than the idle
    /// timeout. An idle peer is by definition not reading either, so
    /// pending write bytes are abandoned with it. Lingering sockets past
    /// [`LINGER_DEADLINE`] are closed too.
    fn reap_idle(&mut self) {
        if !self.lingering.is_empty() {
            let now = Instant::now();
            for slot in 0..self.lingering.len() {
                // `end_linger` trims trailing empty slots, so `slot` may
                // be past the end.
                let overdue = matches!(
                    self.lingering.get(slot),
                    Some(Some(l)) if now.duration_since(l.since) > LINGER_DEADLINE
                );
                if overdue {
                    self.end_linger(slot);
                }
            }
        }
        let Some(timeout) = self.config.idle_timeout else {
            return;
        };
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let overdue = matches!(
                &self.conns[idx],
                Some(c) if now.duration_since(c.last_activity) > timeout
            );
            if overdue {
                let conn = self.conns[idx].take().unwrap();
                self.close(idx, conn);
                self.state.note_idle_reaped();
            }
        }
    }

    /// Stop requested: stop accepting immediately, then give pending
    /// write buffers a short grace window to drain before dropping
    /// every remaining connection.
    fn drain_and_exit(&mut self) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            let mut pending = false;
            for idx in 0..self.conns.len() {
                let Some(mut conn) = self.conns[idx].take() else {
                    continue;
                };
                if conn.wbuf.is_empty() || self.flush(&mut conn).is_err() {
                    self.close(idx, conn);
                    continue;
                }
                if conn.wbuf.is_empty() {
                    self.close(idx, conn);
                } else {
                    pending = true;
                    self.conns[idx] = Some(conn);
                }
            }
            if !pending || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Appends one length-prefixed frame to a write buffer.
fn queue_frame(wbuf: &mut VecDeque<u8>, text: &str) {
    let bytes = text.as_bytes();
    wbuf.extend((bytes.len() as u32).to_le_bytes());
    wbuf.extend(bytes.iter().copied());
}
