//! Readiness multiplexing: hand-rolled Linux `epoll` bindings.
//!
//! The zero-dependency rule means no `libc`/`mio` crates; instead the
//! syscalls the reactor needs are declared directly against the C library
//! the Rust standard library already links. The unsafe surface is confined
//! to the `sys` module below: three `epoll` entry points and `listen` (to
//! deepen the accept backlog for thousand-connection fan-in) — every
//! wrapper validates results and returns `io::Error`, so the rest of the
//! crate stays `unsafe`-free.
//!
//! Registrations are **level-triggered**: an event fires as long as the
//! condition holds, so the reactor never needs to drain a socket to
//! "re-arm" it — a partially read connection simply fires again on the
//! next wait. Write interest is registered only while a connection has
//! queued output, keeping idle connections free for the kernel.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// The readiness backend a [`WireServer`](crate::WireServer) multiplexes
/// sockets with. `epoll` is the only one; the enum, its
/// [`label`](Self::label), [`WireServerConfig::backend`] and
/// [`WireServerConfig::with_backend`] are kept only because
/// `benchmark/src` imports them (ROADMAP 4(g)).
///
/// [`WireServerConfig::backend`]: crate::WireServerConfig::backend
/// [`WireServerConfig::with_backend`]: crate::WireServerConfig::with_backend
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll`: O(ready) wakeups, the 10k-connection path.
    Epoll,
}

impl Backend {
    /// Stable lower-case name (`"epoll"`), stamped into bench artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Epoll => "epoll",
        }
    }
}

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Readable (or peer hangup, which surfaces as readable EOF).
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.read {
            m |= sys::EPOLLIN;
        }
        if self.write {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// One readiness event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// Read readiness (includes error/hangup conditions so a dying socket
    /// is noticed by a read attempt).
    pub readable: bool,
    /// Write readiness.
    pub writable: bool,
    /// Error or peer-hangup condition. Reported even for an empty interest
    /// set — how the reactor notices a dead connection it had paused.
    pub hangup: bool,
}

/// Milliseconds for the C timeout argument: `None` → -1 (infinite),
/// sub-millisecond waits round **up** so a 500 µs retry never busy-spins.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            let ms = if d > Duration::from_millis(ms as u64) {
                ms + 1
            } else {
                ms
            };
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

/// The entire unsafe surface of the crate: raw prototypes against the C
/// library `std` already links, each wrapped by a checked caller.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    /// `struct epoll_event`. On x86-64 Linux the kernel ABI packs it (the
    /// 64-bit payload sits at offset 4); other architectures use natural
    /// alignment — exactly what `repr(C)` gives.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x8_0000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// `epoll_create1(EPOLL_CLOEXEC)`, returning the raw epoll fd.
    pub fn epoll_create() -> io::Result<RawFd> {
        // SAFETY: takes no pointers; a failure is reported through errno.
        check(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    /// One `epoll_ctl` op; `event` is ignored by the kernel for DEL.
    pub fn epoll_control(epfd: RawFd, op: i32, fd: RawFd, mut event: EpollEvent) -> io::Result<()> {
        // SAFETY: `event` is a live, correctly laid out `epoll_event` for
        // the duration of the call; bad fds come back as errors.
        check(unsafe { epoll_ctl(epfd, op, fd, &mut event) }).map(|_| ())
    }

    /// `epoll_wait` into `buf`, returning how many entries were filled.
    /// EINTR is surfaced as `Ok(0)` — the reactor just re-evaluates.
    pub fn epoll_wait_into(epfd: RawFd, buf: &mut [EpollEvent], timeout: i32) -> io::Result<usize> {
        let max = i32::try_from(buf.len()).unwrap_or(i32::MAX);
        // SAFETY: the kernel writes at most `max <= buf.len()` entries
        // into `buf`, which stays mutably borrowed for the call.
        match check(unsafe { epoll_wait(epfd, buf.as_mut_ptr(), max, timeout) }) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Re-`listen`s an already-listening socket with a deeper `backlog`
    /// (POSIX allows repeated listen; only the backlog changes). The
    /// standard library offers no backlog control, and 10k clients
    /// connecting at once overflow its default of 128.
    pub fn deepen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
        // SAFETY: takes no pointers; a bad fd comes back as an error.
        check(unsafe { listen(fd, backlog) }).map(|_| ())
    }
}

pub(crate) use sys::deepen_backlog;

/// One epoll instance: kernel-side interest lists, O(ready) wakeups.
pub(crate) struct EpollPoller {
    /// Owned so dropping the poller closes the epoll fd.
    epfd: OwnedFd,
    buf: Vec<sys::EpollEvent>,
}

impl EpollPoller {
    /// Creates the epoll instance.
    pub(crate) fn new() -> io::Result<EpollPoller> {
        let raw = sys::epoll_create()?;
        // SAFETY: `raw` was just returned by a successful `epoll_create1`,
        // so it is open, and nothing else owns or closes it.
        #[allow(unsafe_code)]
        let epfd = unsafe { OwnedFd::from_raw_fd(raw) };
        Ok(EpollPoller {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn control(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let ev = sys::EpollEvent {
            events: interest.mask(),
            data: token as u64,
        };
        sys::epoll_control(self.epfd.as_raw_fd(), op, fd, ev)
    }

    /// Starts watching `fd` under `token` with `interest`.
    pub(crate) fn register(
        &mut self,
        fd: RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        self.control(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest set of an already-registered `fd`.
    pub(crate) fn reregister(
        &mut self,
        fd: RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        self.control(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. Must be called *before* the fd is closed.
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let none = Interest {
            read: false,
            write: false,
        };
        self.control(sys::EPOLL_CTL_DEL, fd, 0, none)
    }

    /// Blocks until at least one event, the timeout (`None` = forever), or
    /// a signal; fills `events` (cleared first). A signal-interrupted wait
    /// returns successfully with no events.
    pub(crate) fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        events.clear();
        let n = sys::epoll_wait_into(self.epfd.as_raw_fd(), &mut self.buf, timeout_ms(timeout))?;
        for e in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let bits = e.events;
            let token = e.data as usize;
            events.push(Event {
                token,
                // Error/hangup conditions surface as readability so the
                // next read() observes EOF or the real error.
                readable: bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_roundtrip() {
        let mut poller = EpollPoller::new().expect("epoll poller");
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        b.set_nonblocking(true).expect("nonblocking");
        poller
            .register(a.as_raw_fd(), 7, Interest::READ)
            .expect("register");

        // Nothing to read yet: a zero timeout returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait");
        assert!(events.is_empty(), "spurious readiness");

        // Peer writes → readable under token 7.
        b.write_all(b"x").expect("peer write");
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let mut byte = [0u8; 1];
        a.read_exact(&mut byte).expect("drain");

        // Write interest: an empty socket buffer is immediately writable.
        poller
            .reregister(
                a.as_raw_fd(),
                7,
                Interest {
                    read: false,
                    write: true,
                },
            )
            .expect("reregister");
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(a.as_raw_fd()).expect("deregister");
        poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait");
        assert!(events.is_empty(), "deregistered fd still firing");
    }

    #[test]
    fn peer_hangup_surfaces_as_readable() {
        let mut poller = EpollPoller::new().expect("epoll poller");
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        poller
            .register(a.as_raw_fd(), 3, Interest::READ)
            .expect("register");
        drop(b);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 3 && e.readable),
            "hangup invisible"
        );
    }

    #[test]
    fn backend_label() {
        assert_eq!(Backend::Epoll.label(), "epoll");
    }
}
