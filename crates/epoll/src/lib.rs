//! Minimal, dependency-free `epoll`/`eventfd` bindings for Linux.
//!
//! The workspace has a hard no-external-deps rule, and `std` does not expose
//! a readiness API, so this crate makes the four syscalls the serve reactor
//! needs (`epoll_create1`, `epoll_ctl`, `epoll_pwait`, `eventfd2`) directly
//! via inline assembly — no `libc`. All `unsafe` in the serve stack lives
//! here, behind a safe RAII API:
//!
//! * [`Epoll`] — an epoll instance: register/deregister interest for
//!   any [`AsRawFd`] type and wait for [`Event`]s. The fd is closed on drop.
//! * [`EventFd`] — a nonblocking wakeup channel: any thread may
//!   [`EventFd::notify`] to make a blocked [`Epoll::wait`] return.
//!
//! Supported targets are `linux` on `x86_64` and `aarch64`; elsewhere every
//! constructor returns [`io::ErrorKind::Unsupported`] so dependents still
//! compile (and fail loudly at runtime, not at build time).

#![warn(missing_docs)]

use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};

/// Readiness: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: error on the fd (always reported, need not be requested).
pub const EPOLLERR: u32 = 0x008;
/// Condition: hangup on the fd (always reported, need not be requested).
pub const EPOLLHUP: u32 = 0x010;
/// Readiness: the peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Mode: edge-triggered delivery (one event per readiness transition).
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CLOEXEC: usize = 0o2000000;
const EFD_CLOEXEC: usize = 0o2000000;
const EFD_NONBLOCK: usize = 0o4000;
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

/// One readiness notification from [`Epoll::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The `token` the fd was registered with.
    pub token: u64,
    /// Bitwise OR of the `EPOLL*` readiness/condition flags.
    pub flags: u32,
}

/// The kernel's `struct epoll_event`. Packed on x86-64 only (kernel ABI).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    pub const EPOLL_CREATE1: usize = 291;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const LISTEN: usize = 50;
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;

    /// Issues a raw Linux syscall; returns the kernel's raw result
    /// (negative errno on failure).
    pub fn syscall(num: usize, args: [usize; 6]) -> isize {
        let ret: isize;
        // SAFETY: the `syscall` instruction with the x86-64 Linux calling
        // convention (number in rax, args in rdi/rsi/rdx/r10/r8/r9; rcx and
        // r11 clobbered). Callers pass pointers that live across the call.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") num as isize => ret,
                in("rdi") args[0],
                in("rsi") args[1],
                in("rdx") args[2],
                in("r10") args[3],
                in("r8") args[4],
                in("r9") args[5],
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const LISTEN: usize = 201;
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;

    /// Issues a raw Linux syscall; returns the kernel's raw result
    /// (negative errno on failure).
    pub fn syscall(num: usize, args: [usize; 6]) -> isize {
        let ret: isize;
        // SAFETY: `svc 0` with the aarch64 Linux calling convention (number
        // in x8, args in x0–x5, result in x0). Callers pass pointers that
        // live across the call.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") num,
                inlateout("x0") args[0] => ret,
                in("x1") args[1],
                in("x2") args[2],
                in("x3") args[3],
                in("x4") args[4],
                in("x5") args[5],
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub const EPOLL_CREATE1: usize = 0;
    pub const EPOLL_CTL: usize = 0;
    pub const EPOLL_PWAIT: usize = 0;
    pub const EVENTFD2: usize = 0;
    pub const LISTEN: usize = 0;
    pub const READ: usize = 0;
    pub const WRITE: usize = 0;

    /// Stub for unsupported targets: always reports `ENOSYS`.
    pub fn syscall(_num: usize, _args: [usize; 6]) -> isize {
        const ENOSYS: isize = 38;
        -ENOSYS
    }
}

/// Converts a raw syscall result into `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-(ret as i32)))
    } else {
        Ok(ret as usize)
    }
}

/// Wraps a freshly created kernel fd the caller exclusively owns.
fn owned(fd: usize) -> OwnedFd {
    // SAFETY: `fd` came straight back from a successful fd-creating syscall
    // in this module, so it is valid and owned by no other wrapper.
    unsafe { std::os::fd::FromRawFd::from_raw_fd(fd as RawFd) }
}

/// An epoll instance. Closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
    /// Scratch buffer reused across [`Epoll::wait`] calls.
    raw: Vec<RawEvent>,
}

impl std::fmt::Debug for RawEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (events, data) = (self.events, self.data);
        write!(f, "RawEvent({events:#x}, {data})")
    }
}

impl Epoll {
    /// Creates an epoll instance able to report up to `capacity` events per
    /// [`Epoll::wait`] call.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` failure, or `Unsupported` off Linux.
    pub fn new(capacity: usize) -> io::Result<Epoll> {
        let fd = check(sys::syscall(
            sys::EPOLL_CREATE1,
            [EPOLL_CLOEXEC, 0, 0, 0, 0, 0],
        ))?;
        Ok(Epoll {
            fd: owned(fd),
            raw: vec![RawEvent { events: 0, data: 0 }; capacity.max(1)],
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, token: u64, flags: u32) -> io::Result<()> {
        let mut ev = RawEvent {
            events: flags,
            data: token,
        };
        check(sys::syscall(
            sys::EPOLL_CTL,
            [
                self.fd.as_raw_fd() as usize,
                op,
                fd as usize,
                std::ptr::addr_of_mut!(ev) as usize,
                0,
                0,
            ],
        ))
        .map(|_| ())
    }

    /// Registers interest in `flags` readiness for `fd`, tagged with `token`.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure (e.g. the fd is already added).
    pub fn add(&self, fd: &impl AsRawFd, token: u64, flags: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), token, flags)
    }

    /// Removes `fd` from the interest set. (Closing an fd removes it
    /// implicitly; this is for deregistering without closing.)
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure.
    pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout_ms`
    /// elapses (`-1` = wait forever), appending results to `events` (which is
    /// cleared first). `EINTR` is retried internally.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_pwait` failure.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        let n = loop {
            let ret = sys::syscall(
                sys::EPOLL_PWAIT,
                [
                    self.fd.as_raw_fd() as usize,
                    self.raw.as_mut_ptr() as usize,
                    self.raw.len(),
                    timeout_ms as usize,
                    0, // NULL sigmask: behaves exactly like epoll_wait
                    8, // sizeof(sigset_t) as the kernel expects
                ],
            );
            match check(ret) {
                Ok(n) => break n,
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                Err(e) => return Err(e),
            }
        };
        for raw in self.raw.iter().take(n) {
            // Copy out of the (possibly packed) kernel struct field by field.
            let (flags, token) = (raw.events, raw.data);
            events.push(Event { token, flags });
        }
        Ok(())
    }
}

/// Re-issues `listen(2)` on an already-listening socket to widen its accept
/// backlog. `std::net::TcpListener::bind` hardcodes a backlog of 128; a
/// synchronized herd of a few hundred connects overflows that queue before a
/// busy reactor thread is scheduled, and the overflow victims see RST on
/// their first write. Linux permits calling `listen` again on a listening
/// socket purely to update the backlog (capped by `net.core.somaxconn`).
///
/// # Errors
///
/// The `listen` failure, or `Unsupported` off Linux.
pub fn widen_listen_backlog(socket: &impl AsRawFd, backlog: u32) -> io::Result<()> {
    check(sys::syscall(
        sys::LISTEN,
        [socket.as_raw_fd() as usize, backlog as usize, 0, 0, 0, 0],
    ))
    .map(|_| ())
}

/// A nonblocking `eventfd` wakeup channel: cross-thread notifications that an
/// [`Epoll`] can wait on. Closed on drop.
#[derive(Debug)]
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    ///
    /// # Errors
    ///
    /// The `eventfd2` failure, or `Unsupported` off Linux.
    pub fn new() -> io::Result<EventFd> {
        let fd = check(sys::syscall(
            sys::EVENTFD2,
            [0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0],
        ))?;
        Ok(EventFd { fd: owned(fd) })
    }

    /// Signals the eventfd, waking any epoll waiting on it. Safe to call
    /// from any thread; a saturated counter still reads as "signalled", so
    /// the (EAGAIN) overflow case is deliberately ignored.
    pub fn notify(&self) {
        let one: u64 = 1;
        let _ = check(sys::syscall(
            sys::WRITE,
            [
                self.fd.as_raw_fd() as usize,
                std::ptr::addr_of!(one) as usize,
                8,
                0,
                0,
                0,
            ],
        ));
    }

    /// Clears pending notifications; returns whether any were pending.
    pub fn drain(&self) -> bool {
        let mut counter: u64 = 0;
        let ret = sys::syscall(
            sys::READ,
            [
                self.fd.as_raw_fd() as usize,
                std::ptr::addr_of_mut!(counter) as usize,
                8,
                0,
                0,
                0,
            ],
        );
        match check(ret) {
            Ok(_) => counter > 0,
            Err(e) => {
                debug_assert_eq!(e.raw_os_error(), Some(EAGAIN));
                false
            }
        }
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let mut epoll = Epoll::new(8).expect("epoll_create1");
        let efd = EventFd::new().expect("eventfd2");
        epoll.add(&efd, 42, EPOLLIN).expect("add");

        let mut events = Vec::new();
        // Nothing pending: a zero-timeout wait returns no events.
        epoll.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty());

        efd.notify();
        epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert_ne!(events[0].flags & EPOLLIN, 0);

        assert!(efd.drain(), "a notification was pending");
        assert!(!efd.drain(), "drained clean");
        epoll.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "level-triggered interest cleared");
    }

    #[test]
    fn notify_is_sticky_across_multiple_notifies() {
        let mut epoll = Epoll::new(8).expect("epoll");
        let efd = EventFd::new().expect("eventfd");
        epoll.add(&efd, 7, EPOLLIN).expect("add");
        for _ in 0..5 {
            efd.notify();
        }
        let mut events = Vec::new();
        epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert!(efd.drain());
        assert!(!efd.drain());
    }

    #[test]
    fn listen_backlog_can_be_widened_in_place() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        widen_listen_backlog(&listener, 1024).expect("listen");
        // The socket still accepts connections after the re-listen.
        let client =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (_conn, peer) = listener.accept().expect("accept");
        assert_eq!(peer, client.local_addr().expect("addr"));
    }

    #[test]
    fn tcp_readiness_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let mut epoll = Epoll::new(8).expect("epoll");
        epoll.add(&listener, 1, EPOLLIN).expect("add listener");

        let mut events = Vec::new();
        epoll.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "no pending connection yet");

        let mut client =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        epoll.wait(&mut events, 2000).expect("wait");
        assert!(events
            .iter()
            .any(|e| e.token == 1 && e.flags & EPOLLIN != 0));

        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        epoll
            .add(&server_side, 2, EPOLLIN | EPOLLOUT | EPOLLET)
            .expect("add conn");
        client.write_all(b"ping").expect("write");
        client.flush().expect("flush");

        // Edge-triggered: the arrival of data produces exactly one IN edge.
        let mut got_in = false;
        for _ in 0..10 {
            epoll.wait(&mut events, 2000).expect("wait");
            if events
                .iter()
                .any(|e| e.token == 2 && e.flags & EPOLLIN != 0)
            {
                got_in = true;
                break;
            }
        }
        assert!(got_in, "data arrival must produce an IN edge");
        let mut buf = [0u8; 16];
        let mut conn = &server_side;
        let n = conn.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");

        epoll.delete(&server_side).expect("delete");
    }
}
