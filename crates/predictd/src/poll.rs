//! Minimal epoll/socket shim for the evented server — raw `extern "C"`
//! declarations of the half-dozen Linux syscalls the event loop needs,
//! keeping the crate's zero-heavy-deps discipline (no `libc` crate,
//! no async runtime).
//!
//! Everything unsafe is confined to this module; the surface it exports
//! ([`Epoll`], [`Waker`], [`bind_reuseport`], [`connect_nonblocking`],
//! [`set_recv_buf`], [`batch_scheduling`]) is safe: file descriptors are owned
//! [`OwnedFd`]s closed on drop, and every syscall result is translated
//! into [`std::io::Error`].
//!
//! Linux-only by construction, and so is every TCP engine built on it:
//! predictd's server and predictgw's gateway. There is no portable
//! fallback; `--stdio` is the only transport that does not use it.

use std::io;
use std::net::{SocketAddrV4, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// Readiness: data to read (or a pending accept).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: error on the descriptor (always reported).
pub const EPOLLERR: u32 = 0x008;
/// Condition: hangup (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Condition: peer closed its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0x800;
const SOCK_CLOEXEC: i32 = 0x80000;
const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;
const SO_RCVBUF: i32 = 8;
const SO_REUSEPORT: i32 = 15;
const EINPROGRESS: i32 = 115;
const SCHED_BATCH: i32 = 3;

/// One epoll readiness record. x86_64 packs the struct (kernel ABI);
/// other architectures use natural layout.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set ([`EPOLLIN`] | …).
    pub events: u32,
    /// The caller's token, returned verbatim.
    pub data: u64,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
    fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Re-runs a syscall-shaped operation while it reports `EINTR`.
///
/// A signal delivered mid-call (profiler ticks, `SIGCHLD` from a test
/// harness) makes the kernel return early with `EINTR`; treating that
/// as failure silently drops wakeups. Every other error — including
/// `EAGAIN` on the nonblocking eventfd, which callers treat as
/// success-with-nothing-to-do — passes straight through.
fn retry_eintr<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; the returned fd is immediately owned.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: fd was just returned by the kernel and is unowned.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` with interest `events`, tagging readiness
    /// records with `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Changes the interest set of an already-watched `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Stops watching `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: pre-2.6.9 kernels demanded a non-null event even for DEL.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks up to `timeout_ms` (-1 = forever) for readiness, filling
    /// `events` from the front. Returns how many records are valid.
    /// `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let cap = i32::try_from(events.len()).unwrap_or(i32::MAX).max(1);
        let n = retry_eintr(|| {
            // SAFETY: the buffer is valid for `cap` records for the call.
            let n =
                unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), cap, timeout_ms) };
            check(n)
        })?;
        // n is bounded by cap, which came from a usize.
        Ok(usize::try_from(n).unwrap_or(0))
    }
}

/// An eventfd-based cross-thread wakeup: any thread calls [`Waker::wake`],
/// the owning event loop sees the fd turn readable and [`Waker::drain`]s it.
#[derive(Debug)]
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// A fresh nonblocking eventfd.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; the returned fd is immediately owned.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: fd was just returned by the kernel and is unowned.
        Ok(Waker { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    /// The descriptor to register with an [`Epoll`].
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Wakes the owning loop. Best-effort: a full counter (already
    /// pending wakeups, `EAGAIN`) is success — but an `EINTR`'d write
    /// is retried, because dropping it would lose the wakeup entirely.
    pub fn wake(&self) {
        let one: u64 = 1;
        let _ = retry_eintr(|| {
            // SAFETY: 8 valid bytes; eventfd writes are atomic.
            let n = unsafe { write(self.fd.as_raw_fd(), one.to_ne_bytes().as_ptr(), 8) };
            if n < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        });
    }

    /// Clears pending wakeups after the loop observed readability.
    /// `EINTR` is retried: leaving the counter set would make the
    /// level-triggered epoll re-report readability and spin the loop.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = retry_eintr(|| {
            // SAFETY: 8 valid bytes.
            let n = unsafe { read(self.fd.as_raw_fd(), buf.as_mut_ptr(), 8) };
            if n < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        });
    }
}

fn set_opt(fd: RawFd, level: i32, name: i32, value: i32) -> io::Result<()> {
    let sz = u32::try_from(std::mem::size_of::<i32>()).unwrap_or(4);
    // SAFETY: `value` is a live i32 for the duration of the call.
    check(unsafe { setsockopt(fd, level, name, &value, sz) })?;
    Ok(())
}

fn sockaddr_in(addr: SocketAddrV4) -> SockAddrIn {
    SockAddrIn {
        sin_family: u16::try_from(AF_INET).unwrap_or(2),
        sin_port: addr.port().to_be(),
        // Network order is the octets verbatim.
        sin_addr: u32::from_ne_bytes(addr.ip().octets()),
        sin_zero: [0; 8],
    }
}

/// `sizeof(struct sockaddr_in)`.
const SOCKADDR_IN_LEN: u32 = 16;

/// Binds a nonblocking IPv4 listener with `SO_REUSEPORT` set, so every
/// event-loop thread can bind the same address and let the kernel
/// load-balance accepts across them.
pub(crate) fn bind_reuseport(addr: SocketAddrV4) -> io::Result<TcpListener> {
    // SAFETY: plain syscall; the returned fd is immediately owned.
    let fd = check(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: fd was just returned by the kernel and is unowned.
    let owned = unsafe { OwnedFd::from_raw_fd(fd) };
    set_opt(fd, SOL_SOCKET, SO_REUSEADDR, 1)?;
    set_opt(fd, SOL_SOCKET, SO_REUSEPORT, 1)?;
    let sa = sockaddr_in(addr);
    // SAFETY: `sa` is a live, fully initialized sockaddr_in.
    check(unsafe { bind(fd, &sa, SOCKADDR_IN_LEN) })?;
    // SAFETY: plain syscall on an owned fd.
    check(unsafe { listen(fd, 1024) })?;
    Ok(TcpListener::from(owned))
}

/// Starts a nonblocking IPv4 connect and returns the stream at once,
/// usually before the handshake finishes (`EINPROGRESS`). Register it
/// for [`EPOLLOUT`]: when it turns writable the connect has finished,
/// and [`TcpStream::take_error`] (`SO_ERROR`) says whether it failed.
/// Errors the kernel reports synchronously (say, `ECONNREFUSED` on
/// loopback) are returned here.
pub fn connect_nonblocking(addr: SocketAddrV4) -> io::Result<TcpStream> {
    // SAFETY: plain syscall; the returned fd is immediately owned.
    let fd = check(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: fd was just returned by the kernel and is unowned.
    let owned = unsafe { OwnedFd::from_raw_fd(fd) };
    let sa = sockaddr_in(addr);
    // SAFETY: `sa` is a live, fully initialized sockaddr_in.
    match check(unsafe { connect(fd, &sa, SOCKADDR_IN_LEN) }) {
        Ok(_) => {}
        // An interrupted connect carries on asynchronously, exactly
        // like one in progress (retrying it would report EALREADY).
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
        Err(e) => return Err(e),
    }
    Ok(TcpStream::from(owned))
}

/// Moves the calling thread to `SCHED_BATCH`: the same CPU share as
/// before, but its wake-ups no longer preempt the thread running on its
/// CPU. For helper threads that wake on I/O completion and must not cut
/// an event loop's batch short.
pub fn batch_scheduling() -> io::Result<()> {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` outlives the call; pid 0 is the calling thread.
    check(unsafe { sched_setscheduler(0, SCHED_BATCH, &param) })?;
    Ok(())
}

/// Shrinks (or grows) the kernel receive buffer of a connected stream.
pub fn set_recv_buf(stream: &TcpStream, bytes: usize) -> io::Result<()> {
    set_opt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, i32::try_from(bytes).unwrap_or(i32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};

    #[test]
    fn batch_scheduling_applies_to_the_calling_thread_only() {
        // Field 41 of /proc/thread-self/stat is the scheduling policy.
        fn policy() -> String {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("stat");
            let after_comm = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
            after_comm.split_whitespace().nth(38).unwrap_or("").to_string()
        }
        let before = policy();
        let moved = std::thread::spawn(|| {
            batch_scheduling().expect("SCHED_BATCH needs no privilege");
            policy()
        })
        .join()
        .expect("thread");
        assert_eq!(moved, SCHED_BATCH.to_string());
        assert_eq!(policy(), before, "other threads keep their policy");
    }

    #[test]
    fn epoll_sees_eventfd_wakeups() {
        let ep = Epoll::new().expect("epoll");
        let waker = Waker::new().expect("eventfd");
        ep.add(waker.as_raw_fd(), 42, EPOLLIN).expect("add");
        let mut evs = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(ep.wait(&mut evs, 0).expect("wait"), 0, "nothing pending yet");
        waker.wake();
        let n = ep.wait(&mut evs, 1000).expect("wait");
        assert_eq!(n, 1);
        let token = evs[0].data;
        assert_eq!(token, 42);
        waker.drain();
        assert_eq!(ep.wait(&mut evs, 0).expect("wait"), 0, "drained");
    }

    #[test]
    fn reuseport_listeners_share_an_address() {
        let first = bind_reuseport(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).expect("bind 0");
        let addr = first.local_addr().expect("addr");
        let port = addr.port();
        assert_ne!(port, 0);
        let second = bind_reuseport(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
            .expect("second bind on the same port");
        assert_eq!(second.local_addr().expect("addr").port(), port);

        // A connection lands on exactly one of them and carries data.
        let ep = Epoll::new().expect("epoll");
        ep.add(first.as_raw_fd(), 1, EPOLLIN).expect("add");
        ep.add(second.as_raw_fd(), 2, EPOLLIN).expect("add");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"hi").expect("write");
        let mut evs = [EpollEvent { events: 0, data: 0 }; 8];
        let n = ep.wait(&mut evs, 2000).expect("wait");
        assert!(n >= 1);
        let token = evs[0].data;
        let (mut conn, _) = if token == 1 {
            first.accept().expect("accept")
        } else {
            second.accept().expect("accept")
        };
        conn.set_nonblocking(false).expect("blocking");
        let mut buf = [0u8; 2];
        conn.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn retry_eintr_retries_interrupts_and_passes_other_errors_through() {
        // Two simulated signal interruptions, then success.
        let mut calls = 0;
        let out = retry_eintr(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::from(io::ErrorKind::Interrupted))
            } else {
                Ok(8isize)
            }
        });
        assert_eq!(out.expect("retried to success"), 8);
        assert_eq!(calls, 3);

        // A non-EINTR error is not retried: one call, error returned.
        let mut calls = 0;
        let out: io::Result<()> = retry_eintr(|| {
            calls += 1;
            Err(io::Error::from(io::ErrorKind::WouldBlock))
        });
        assert_eq!(out.expect_err("passed through").kind(), io::ErrorKind::WouldBlock);
        assert_eq!(calls, 1);
    }

    #[test]
    fn nonblocking_connect_completes_on_epollout() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let SocketAddr::V4(addr) = listener.local_addr().expect("addr") else {
            panic!("bound an IPv4 loopback address")
        };
        let mut stream = connect_nonblocking(addr).expect("connect started");
        let ep = Epoll::new().expect("epoll");
        ep.add(stream.as_raw_fd(), 7, EPOLLOUT).expect("add");
        let mut evs = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(ep.wait(&mut evs, 2000).expect("wait"), 1);
        assert!(stream.take_error().expect("SO_ERROR").is_none(), "connect succeeded");
        let (mut peer, _) = listener.accept().expect("accept");
        stream.write_all(b"ok").expect("write");
        let mut buf = [0u8; 2];
        peer.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ok");
    }

    #[test]
    fn nonblocking_connect_to_a_closed_port_reports_the_refusal() {
        // Bind then drop: the port is (almost certainly) closed now.
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("probe port")
            .port();
        let addr = SocketAddrV4::new(Ipv4Addr::LOCALHOST, port);
        match connect_nonblocking(addr) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
            Ok(stream) => {
                let ep = Epoll::new().expect("epoll");
                ep.add(stream.as_raw_fd(), 7, EPOLLOUT).expect("add");
                let mut evs = [EpollEvent { events: 0, data: 0 }; 8];
                assert_eq!(ep.wait(&mut evs, 2000).expect("wait"), 1);
                let err = stream.take_error().expect("SO_ERROR").expect("refused");
                assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
            }
        }
    }

    #[test]
    fn recv_buf_can_be_shrunk() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let s = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        set_recv_buf(&s, 4096).expect("rcvbuf");
    }
}
