//! Readiness polling over raw file descriptors — the thin syscall shim
//! behind the event loop.
//!
//! The offline workspace has no `mio`/`tokio` (and no `libc` crate), so
//! this module declares the handful of syscalls it needs directly, in
//! the same vendored-shim spirit as `vendor/rand`: a [`Poller`] that
//! multiplexes readiness over many sockets from one thread. The backend
//! is chosen at build time from the target OS: **epoll**
//! ([`EpollPoller`]) on Linux, the portable **`poll(2)`**
//! ([`PollPoller`]) on every other Unix. Both expose the same
//! level-triggered API; `PollPoller` is compiled everywhere so its
//! unit tests run on Linux too.
//!
//! The shim is deliberately minimal: `register`/`modify`/`deregister`
//! with a `(token, interest)` pair per descriptor and a `wait` that
//! fills an event buffer. Everything above it (connection state,
//! buffers, timeouts) lives in the event loop, not here.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// The level-triggered readiness multiplexer the event loop runs on:
/// epoll on Linux.
#[cfg(target_os = "linux")]
pub type Poller = EpollPoller;
/// The level-triggered readiness multiplexer the event loop runs on:
/// `poll(2)` off Linux.
#[cfg(not(target_os = "linux"))]
pub type Poller = PollPoller;

/// What the event loop wants to hear about a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report: the registered token plus what the descriptor
/// is ready for. Error/hang-up conditions are reported as *readable*
/// (the next read observes the EOF or error), matching what a blocking
/// read loop would see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

// ---------------------------------------------------------------------
// Raw syscall declarations. Numeric constants are the Linux/POSIX ABI
// values; the `poll(2)` set is identical across the Unixes this
// workspace targets.
// ---------------------------------------------------------------------

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: i32 = 8;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    #[cfg(target_os = "linux")]
    fn close(fd: i32) -> i32;
    #[cfg(target_os = "linux")]
    fn epoll_create1(flags: i32) -> i32;
    #[cfg(target_os = "linux")]
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    #[cfg(target_os = "linux")]
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: i32 = 0o2000000;
#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: i32 = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: i32 = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: i32 = 3;
#[cfg(target_os = "linux")]
const EPOLLIN: u32 = 0x001;
#[cfg(target_os = "linux")]
const EPOLLOUT: u32 = 0x004;
#[cfg(target_os = "linux")]
const EPOLLERR: u32 = 0x008;
#[cfg(target_os = "linux")]
const EPOLLHUP: u32 = 0x010;

/// The kernel reads/writes this struct; x86-64 packs it, other
/// architectures use natural alignment — mirroring the kernel UAPI.
#[cfg(target_os = "linux")]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Debug)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// Raises the soft open-file limit toward `target` (clamped to the hard
/// limit) and returns the resulting soft limit. The high-concurrency
/// tests use this to hold 10k+ sockets in one process; on boxes whose
/// hard limit is lower, callers scale the connection count to what the
/// returned limit allows.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable RLimit matching the kernel's
    // struct rlimit layout; getrlimit writes both fields or fails.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let want = target.min(lim.max);
    if want > lim.cur {
        let new = RLimit {
            cur: want,
            max: lim.max,
        };
        // SAFETY: `new` is a fully initialised RLimit read (never
        // written) by the kernel; cur ≤ max is upheld by the clamp above.
        if unsafe { setrlimit(RLIMIT_NOFILE, &new) } != 0 {
            return Err(io::Error::last_os_error());
        }
        return Ok(want);
    }
    Ok(lim.cur)
}

fn timeout_millis(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round up so a 0.4 ms deadline does not spin at timeout 0.
        Some(d) => d
            .as_millis()
            .min(i32::MAX as u128)
            .max(u128::from(!d.is_zero())) as i32,
    }
}

// ---------------------------------------------------------------------
// The backends.
// ---------------------------------------------------------------------

/// `epoll(7)` backend: the interest list lives in the kernel, and a
/// wait costs O(ready).
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Creates an empty poller.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; it returns a fresh
        // descriptor (owned by this EpollPoller until Drop) or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    /// Starts watching `fd` with the given token and interest.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes what `fd` is watched for.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. Must be called *before* the descriptor is
    /// closed.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: if interest.readable { EPOLLIN } else { 0 }
                | if interest.writable { EPOLLOUT } else { 0 },
            data: token,
        };
        // SAFETY: `ev` is a valid EpollEvent for the duration of the
        // call; self.epfd stays open until Drop; the kernel validates
        // `op` and `fd` and reports EBADF/EINVAL instead of faulting.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Blocks until at least one descriptor is ready or the timeout
    /// elapses, appending readiness reports to `events` (cleared
    /// first). A `None` timeout blocks indefinitely.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let n = loop {
            // SAFETY: the buffer pointer/length describe self.buf's
            // allocation, which outlives the call; the kernel writes at
            // most `len` events and `rc` never exceeds that length.
            let rc = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_millis(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: self.epfd was returned by epoll_create1, is closed
        // nowhere else, and this Drop runs at most once.
        unsafe { close(self.epfd) };
    }
}

#[derive(Debug, Clone, Copy)]
struct PollEntry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

/// `poll(2)` backend: the interest list is a userspace vector handed to
/// the kernel on every wait — O(registered) per call, but it exists on
/// every Unix.
#[derive(Debug, Default)]
pub struct PollPoller {
    entries: Vec<PollEntry>,
    fds: Vec<PollFd>,
}

impl PollPoller {
    /// Creates an empty poller.
    pub fn new() -> io::Result<Self> {
        Ok(Self::default())
    }

    /// Starts watching `fd` with the given token and interest.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.entries.push(PollEntry {
            fd,
            token,
            interest,
        });
        Ok(())
    }

    /// Changes what `fd` is watched for.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        for e in &mut self.entries {
            if e.fd == fd {
                e.token = token;
                e.interest = interest;
                return Ok(());
            }
        }
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            "fd not registered with poll backend",
        ))
    }

    /// Stops watching `fd`. Must be called *before* the descriptor is
    /// closed, or the next wait polls a stale — possibly recycled — fd
    /// number.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.entries.retain(|e| e.fd != fd);
        Ok(())
    }

    /// Blocks until at least one descriptor is ready or the timeout
    /// elapses, appending readiness reports to `events` (cleared
    /// first). A `None` timeout blocks indefinitely.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.fds.clear();
        self.fds.extend(self.entries.iter().map(|e| PollFd {
            fd: e.fd,
            events: if e.interest.readable { POLLIN } else { 0 }
                | if e.interest.writable { POLLOUT } else { 0 },
            revents: 0,
        }));
        let n = loop {
            // SAFETY: the pointer/length pair describes self.fds's
            // allocation (rebuilt just above), valid and writable for
            // the whole call; poll only writes the revents fields.
            let rc = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u64,
                    timeout_millis(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (entry, pfd) in self.entries.iter().zip(&self.fds) {
            let bits = pfd.revents;
            if bits == 0 {
                continue;
            }
            events.push(Event {
                token: entry.token,
                readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    /// Instantiates the backend tests once per compiled backend, so the
    /// `poll(2)` fallback — the only backend off Linux — is exercised on
    /// Linux too.
    macro_rules! backend_tests {
        ($($backend:ident: $poller:ty;)*) => {$(
            mod $backend {
                use super::*;

                #[test]
                fn reports_readability() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server, _) = listener.accept().unwrap();
                    server.set_nonblocking(true).unwrap();

                    let mut poller = <$poller>::new().unwrap();
                    poller
                        .register(server.as_raw_fd(), 7, Interest::READ)
                        .unwrap();
                    let mut events = Vec::new();

                    // Nothing to read yet: the wait times out empty.
                    poller
                        .wait(&mut events, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty(), "spurious events {events:?}");

                    client.write_all(b"x").unwrap();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(1000)))
                        .unwrap();
                    assert_eq!(events.len(), 1);
                    assert_eq!(events[0].token, 7);
                    assert!(events[0].readable);

                    // Level-triggered: the byte is still there, so
                    // readiness repeats until consumed.
                    poller
                        .wait(&mut events, Some(Duration::from_millis(1000)))
                        .unwrap();
                    assert_eq!(events.len(), 1, "should be level-triggered");
                    let mut buf = [0u8; 8];
                    let mut sref = &server;
                    assert_eq!(sref.read(&mut buf).unwrap(), 1);
                    poller
                        .wait(&mut events, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty(), "drained fd still ready");
                }

                #[test]
                fn modify_and_deregister_change_the_interest_set() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server, _) = listener.accept().unwrap();
                    server.set_nonblocking(true).unwrap();

                    let mut poller = <$poller>::new().unwrap();
                    let fd = server.as_raw_fd();
                    poller.register(fd, 1, Interest::WRITE).unwrap();
                    let mut events = Vec::new();
                    // A fresh socket is writable immediately.
                    poller
                        .wait(&mut events, Some(Duration::from_millis(1000)))
                        .unwrap();
                    assert_eq!(events.len(), 1);
                    assert!(events[0].writable);

                    // Read-only interest on an empty socket: nothing.
                    poller.modify(fd, 1, Interest::READ).unwrap();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty(), "{events:?}");

                    poller.deregister(fd).unwrap();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty(), "events after deregister");
                }

                #[test]
                fn hangup_reported_as_readable() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server, _) = listener.accept().unwrap();
                    server.set_nonblocking(true).unwrap();

                    let mut poller = <$poller>::new().unwrap();
                    poller
                        .register(server.as_raw_fd(), 3, Interest::READ)
                        .unwrap();
                    drop(client);
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(1000)))
                        .unwrap();
                    assert_eq!(events.len(), 1);
                    assert!(events[0].readable, "peer close must wake a read");
                }
            }
        )*};
    }

    #[cfg(target_os = "linux")]
    backend_tests! {
        epoll: EpollPoller;
    }
    backend_tests! {
        poll: PollPoller;
    }
}
