//! The client edge: the one evented transport both daemons serve from.
//! predictd answers the requests it frames; predictgw routes them.
//! Each daemon's `event_loop` owns the epoll set and decides what a
//! request means. Everything between the socket and a complete request
//! lives here.
//!
//! **Why not thread-per-connection?** A thread that owns a connection
//! end to end is pinned by it. A blocked writer or an idle peer holds
//! the thread, so throughput falls once connections outnumber threads,
//! and a thread blocked in `read` cannot notice a shutdown. Here each
//! worker owns an epoll instance and its own `SO_REUSEPORT` listener
//! ([`Listeners`]). The kernel spreads connections across cores, a
//! core's connections never migrate, and an idle connection costs a
//! slab entry, not a thread.
//!
//! What is here:
//!
//! - [`Edge`]: one loop's listener and connection slab. It accepts
//!   everything pending, and on a failed `accept` (most often the
//!   descriptor limit) it stops watching the listener for
//!   [`ACCEPT_BACKOFF`] rather than spinning on it. A connection that
//!   moves no bytes for [`IDLE_TIMEOUT`] is closed, swept at most once
//!   per [`SWEEP_EVERY`], unless its daemon still owes it something.
//! - [`Link`]: one connection's buffered I/O. It reads until the socket
//!   would block and writes with a partial-write cursor. It stops
//!   reading while more than [`HIGH_WATER_BYTES`] of replies wait: one
//!   stalled client caps its own memory and never blocks the loop.
//! - [`Inbox`]: framing. The first byte picks the codec: the binary
//!   magic byte (which can never start a JSON line) selects
//!   length-prefixed frames behind a preamble, anything else selects
//!   newline-delimited JSON. An oversized line or frame is refused with
//!   one `error` and skipped, and the connection stays up
//!   ([`ServerConfig`]). A bad preamble is refused and the connection
//!   closed.
//!
//! The read and write loops and the frame splitter are also what a
//! gateway lane uses on its backend socket ([`read_until_blocked`],
//! [`write_until_blocked`], [`split_frame`]).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::binproto;
use crate::poll::{bind_reuseport, Epoll, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Framing limits for the TCP servers. The event-loop count is not
/// here: it is the `workers` argument of each server's `bind`.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Longest accepted request line, bytes. Longer lines are answered
    /// with a JSON `error` (and discarded), not a disconnect.
    pub max_line_bytes: usize,
    /// Longest accepted binary frame body, bytes. Larger frames are
    /// answered with an `error` frame and skipped — the length prefix
    /// tells the server exactly how much to discard, so the stream
    /// stays in sync, mirroring the `max_line_bytes` behavior.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_line_bytes: 1 << 20, max_frame_bytes: 1 << 20 }
    }
}

/// Reads per readiness wakeup go through a per-loop scratch buffer of
/// this size.
pub const SCRATCH_BYTES: usize = 64 * 1024;

/// Stop reading from a connection whose unsent reply backlog grows past
/// this; reading resumes once the peer drains below it.
pub(crate) const HIGH_WATER_BYTES: usize = 1 << 20;

/// Readiness records fetched per `epoll_wait`.
pub const MAX_EVENTS: usize = 256;

/// Epoll token of the listener.
pub const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the loop's wakeup eventfd.
pub const TOKEN_WAKER: u64 = 1;
/// First token of the client connections; see [`conn_token`].
pub(crate) const TOKEN_CONNS: u64 = 2;

/// A connection that moves no bytes either way for this long is
/// closed: a silent peer, one that stopped mid-request, or one that
/// stopped reading its replies would otherwise hold its descriptor and
/// buffers for as long as it stays connected. Public so a client that
/// keeps a connection between sparse requests knows when to reopen it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Idle connections are looked for at most this often, so one is
/// closed within [`IDLE_TIMEOUT`] plus this.
pub const SWEEP_EVERY: Duration = Duration::from_secs(1);

/// When `accept` fails for a reason other than an empty backlog (most
/// often the descriptor limit), the loop stops watching its listener
/// for this long instead of waking on it again at once.
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// The epoll token of the connection in slab slot `idx`.
#[inline]
pub fn conn_token(idx: usize) -> u64 {
    TOKEN_CONNS + u64::try_from(idx).unwrap_or(0)
}

/// The slab slot of a connection token.
#[inline]
pub fn conn_index(token: u64) -> usize {
    usize::try_from(token.saturating_sub(TOKEN_CONNS)).unwrap_or(usize::MAX)
}

/// `workers` `SO_REUSEPORT` listeners on one IPv4 address, bound but
/// not yet served.
pub struct Listeners {
    listeners: Vec<TcpListener>,
    addr: SocketAddr,
}

impl Listeners {
    /// Binds `workers` listeners (clamped to ≥ 1) on `addr`, IPv4 only.
    /// With port 0 the first bind picks the port and the rest join it.
    pub fn bind(addr: SocketAddr, workers: usize) -> io::Result<Listeners> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(io::ErrorKind::Unsupported, "listens on IPv4 only"));
        };
        let mut port = v4.port();
        let mut listeners = Vec::with_capacity(workers.max(1));
        for _ in 0..workers.max(1) {
            let listener = bind_reuseport(SocketAddrV4::new(*v4.ip(), port))?;
            port = listener.local_addr()?.port();
            listeners.push(listener);
        }
        Ok(Listeners { listeners, addr: SocketAddr::V4(SocketAddrV4::new(*v4.ip(), port)) })
    }

    /// The address the listeners are bound to (port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs `each(i, listener, wakers)` for every listener, one thread
    /// each (the first on the calling thread), and returns once all
    /// have. `wakers[i]` is loop `i`'s wakeup eventfd.
    pub fn run_loops<F>(self, each: F) -> io::Result<()>
    where
        F: Fn(usize, TcpListener, &[Arc<Waker>]) -> io::Result<()> + Sync,
    {
        let wakers = (0..self.listeners.len())
            .map(|_| Waker::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let (each, wakers) = (&each, &wakers[..]);
        std::thread::scope(|scope| {
            let mut listeners = self.listeners.into_iter().enumerate();
            let first = listeners.next();
            let handles: Vec<_> = listeners
                .map(|(i, listener)| scope.spawn(move || each(i, listener, wakers)))
                .collect();
            let first = first.map_or(Ok(()), |(i, listener)| each(i, listener, wakers));
            for h in handles {
                match h.join() {
                    Ok(r) => r?,
                    Err(_) => return Err(io::Error::other("event loop panicked")),
                }
            }
            first
        })
    }
}

/// One event loop's listener and client connections. `T` is what the
/// daemon keeps per connection: a bare [`Link`], or a link plus the
/// daemon's own state.
pub struct Edge<'e, T> {
    epoll: &'e Epoll,
    listener: TcpListener,
    /// The connections by slot (see [`conn_index`]), and the free slots.
    conns: Vec<Option<T>>,
    free: Vec<usize>,
    idle_timeout: Duration,
    /// When to look for idle connections; `None` while there are none.
    next_sweep: Option<Instant>,
    /// When to watch the listener again after a failed `accept`.
    accept_paused_until: Option<Instant>,
    /// After a shutdown, when to stop waiting for replies to drain.
    linger_until: Option<Instant>,
}

impl<'e, T: AsRef<Link>> Edge<'e, T> {
    /// Registers `listener` and the loop's `waker` with `epoll`.
    pub fn new(
        epoll: &'e Epoll,
        listener: TcpListener,
        waker: &Waker,
        idle_timeout: Duration,
    ) -> io::Result<Self> {
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
        epoll.add(waker.as_raw_fd(), TOKEN_WAKER, EPOLLIN)?;
        Ok(Edge {
            epoll,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            idle_timeout,
            next_sweep: None,
            accept_paused_until: None,
            linger_until: None,
        })
    }

    /// Accepts every pending connection (the listener is
    /// level-triggered), each kept as `wrap` makes it. A failed
    /// `accept` leaves the listener readable, so it is unwatched for
    /// [`ACCEPT_BACKOFF`].
    pub fn accept_clients(&mut self, now: Instant, mut wrap: impl FnMut(Link) -> T) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let conn = Some(wrap(Link::new(stream, now)));
                    let idx = match self.free.pop() {
                        Some(idx) => idx,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    self.conns[idx] = conn;
                    if self.epoll.add(fd, conn_token(idx), EPOLLIN | EPOLLRDHUP).is_err() {
                        self.remove(idx);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    if self.epoll.modify(self.listener.as_raw_fd(), TOKEN_LISTENER, 0).is_ok() {
                        self.accept_paused_until = Some(now + ACCEPT_BACKOFF);
                    }
                    break;
                }
            }
        }
        self.next_sweep.get_or_insert(now + self.idle_timeout);
    }

    /// The connection in slot `idx`.
    pub fn conn_mut(&mut self, idx: usize) -> Option<&mut T> {
        self.conns.get_mut(idx)?.as_mut()
    }

    /// Every connection.
    pub fn conns(&self) -> impl Iterator<Item = &T> {
        self.conns.iter().flatten()
    }

    /// Takes the connection out of slot `idx`, freeing the slot.
    pub fn remove(&mut self, idx: usize) -> Option<T> {
        let conn = self.conns.get_mut(idx)?.take()?;
        self.free.push(idx);
        Some(conn)
    }

    /// Unregisters and drops the connection in slot `idx`.
    pub fn close(&mut self, idx: usize) {
        if let Some(conn) = self.remove(idx) {
            let _ = self.epoll.delete(conn.as_ref().as_raw_fd());
        }
    }

    /// Whether a loop told to stop may exit now: once no connection
    /// `owes` reply bytes, or after a second's linger. The linger is for
    /// the last replies, the `ok` to the shutdown itself most of all.
    pub fn drained(&mut self, now: Instant, owes: impl Fn(&T) -> bool) -> bool {
        let until = *self.linger_until.get_or_insert(now + Duration::from_secs(1));
        now >= until || !self.conns().any(owes)
    }

    /// The `epoll_wait` timeout, in milliseconds rounded up, that wakes
    /// the loop at its next sweep or listener resume, every 20 ms while
    /// it lingers, or at the earliest of `also` if sooner (forever
    /// without any).
    pub fn wait_timeout(&self, now: Instant, also: impl IntoIterator<Item = Instant>) -> i32 {
        let slice = self.linger_until.map(|_| now + Duration::from_millis(20));
        let deadlines = [self.next_sweep, self.accept_paused_until, slice].into_iter().flatten();
        let Some(at) = deadlines.chain(also).min() else { return -1 };
        let left = at.saturating_duration_since(now).as_micros().div_ceil(1000);
        i32::try_from(left).unwrap_or(i32::MAX)
    }

    /// End-of-batch upkeep: watches the listener again once its pause
    /// is over, and at the sweep time closes every connection idle for
    /// the idle timeout that is not `owed` anything.
    pub fn tend(&mut self, now: Instant, owed: impl Fn(&T) -> bool) {
        if self.accept_paused_until.is_some_and(|t| now >= t)
            && self.epoll.modify(self.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN).is_ok()
        {
            self.accept_paused_until = None;
        }
        if self.next_sweep.is_some_and(|t| now >= t) {
            self.next_sweep = self.sweep_idle(now, owed);
        }
    }

    /// Closes the idle connections and returns when to look again: when
    /// the next survivor would expire, but no sooner than
    /// [`SWEEP_EVERY`] from now, or `None` when no connection is left.
    fn sweep_idle(&mut self, now: Instant, owed: impl Fn(&T) -> bool) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        for idx in 0..self.conns.len() {
            let Some(conn) = &self.conns[idx] else { continue };
            let expires = conn.as_ref().last_active + self.idle_timeout;
            if expires <= now && !owed(conn) {
                self.close(idx);
            } else {
                next = Some(next.map_or(expires, |t| t.min(expires)));
            }
        }
        next.map(|t| t.max(now + SWEEP_EVERY))
    }
}

/// One client connection's transport. Buffers persist across readiness
/// wakeups, so partial reads and writes simply pause the machine.
pub struct Link {
    stream: TcpStream,
    /// Bytes received and not yet framed.
    pub inbox: Inbox,
    /// Encoded replies not yet accepted by the kernel.
    pub wbuf: Vec<u8>,
    /// How much of `wbuf` has been written (partial-write cursor).
    wpos: usize,
    /// Close once `wbuf` drains (EOF seen, a fatal error, or shutdown).
    pub closing: bool,
    /// Interest bits currently registered with epoll.
    interest: u32,
    /// When the connection last moved bytes, as its daemon counts it.
    pub last_active: Instant,
}

impl AsRef<Link> for Link {
    fn as_ref(&self) -> &Link {
        self
    }
}

impl AsRawFd for Link {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

impl Link {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Link {
            stream,
            inbox: Inbox {
                buf: Vec::with_capacity(4096),
                at: 0,
                codec: Codec::Sniff,
                json_discard: false,
                bin_discard: 0,
            },
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            closing: false,
            interest: EPOLLIN | EPOLLRDHUP,
            last_active: now,
        }
    }

    /// Reply bytes not yet accepted by the kernel.
    #[inline]
    pub fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Drains the socket into the inbox, unless the connection is
    /// closing or over the high-water mark. EOF sets `closing`: what is
    /// buffered is still served. Returns false when the connection is
    /// dead.
    pub fn read_in(&mut self, scratch: &mut [u8]) -> bool {
        if self.closing || self.pending_write() > HIGH_WATER_BYTES {
            return true;
        }
        let inbox = &mut self.inbox;
        inbox.buf.drain(..inbox.at);
        inbox.at = 0;
        match read_until_blocked(&mut self.stream, &mut inbox.buf, scratch) {
            Ok(eof) => {
                self.closing |= eof;
                true
            }
            Err(_) => false,
        }
    }

    /// Writes pending reply bytes until the socket would block. Returns
    /// false when the connection is dead.
    pub fn write_out(&mut self) -> bool {
        write_until_blocked(&mut self.stream, &mut self.wbuf, &mut self.wpos, HIGH_WATER_BYTES)
            .is_ok()
    }

    /// Re-registers the epoll interest to match the state: writable
    /// while output is pending; readable while `may_read`, not closing,
    /// and below the high-water mark.
    pub fn rearm(&mut self, epoll: &Epoll, token: u64, may_read: bool) {
        let pending = self.pending_write();
        let read = may_read && !self.closing && pending <= HIGH_WATER_BYTES;
        let fd = self.stream.as_raw_fd();
        rearm_interest(epoll, fd, token, &mut self.interest, read, pending > 0);
    }
}

/// Sets `fd`'s epoll interest to read and/or write, when it differs
/// from `interest`, the set last registered.
pub fn rearm_interest(
    epoll: &Epoll,
    fd: RawFd,
    token: u64,
    interest: &mut u32,
    read: bool,
    write: bool,
) {
    let want = if read { EPOLLIN | EPOLLRDHUP } else { 0 } | if write { EPOLLOUT } else { 0 };
    if want != *interest && epoll.modify(fd, token, want).is_ok() {
        *interest = want;
    }
}

/// Reads from a nonblocking socket until it would block, appending to
/// `into` through `scratch`. `Ok(true)` means the peer closed its
/// writing half; everything before the EOF was appended.
pub fn read_until_blocked(
    stream: &mut TcpStream,
    into: &mut Vec<u8>,
    scratch: &mut [u8],
) -> io::Result<bool> {
    loop {
        match stream.read(scratch) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                into.extend_from_slice(&scratch[..n]);
                if n < scratch.len() {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Writes `buf[*pos..]` to a nonblocking socket until it would block,
/// advancing `pos`. A drained buffer is cleared; once more than
/// `compact_past` written bytes sit at its front they are dropped, so a
/// slow reader does not hold dead bytes.
pub fn write_until_blocked(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    pos: &mut usize,
    compact_past: usize,
) -> io::Result<()> {
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if *pos == buf.len() {
        buf.clear();
        *pos = 0;
    } else if *pos > compact_past {
        buf.drain(..*pos);
        *pos = 0;
    }
    Ok(())
}

/// The length-prefixed frame at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Not all of it has arrived.
    Partial,
    /// A whole frame with a body of this many bytes.
    Whole(usize),
    /// A body of this many bytes, over the limit; known from the length
    /// prefix alone.
    Oversized(usize),
}

/// Splits off the `[u32 LE length][body]` frame at the front of `buf`,
/// refusing a body longer than `max`.
#[inline]
pub fn split_frame(buf: &[u8], max: usize) -> Split {
    let Some(len4) = buf.first_chunk::<4>() else { return Split::Partial };
    let len = usize::try_from(u32::from_le_bytes(*len4)).unwrap_or(usize::MAX);
    if len > max {
        return Split::Oversized(len);
    }
    if buf.len() - 4 < len {
        return Split::Partial;
    }
    Split::Whole(len)
}

/// How a connection's bytes are interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// First byte not seen yet.
    Sniff,
    /// Newline-delimited JSON.
    Json,
    /// Length-prefixed binary frames (preamble already validated).
    Binary,
}

/// One thing framed out of an [`Inbox`].
#[derive(Debug)]
pub enum Input<'a> {
    /// A JSON request line, trimmed and not blank.
    Line(&'a str),
    /// A binary request frame, length prefix included, body not empty.
    Frame(&'a [u8]),
    /// Input answered with this `error` and skipped; the connection
    /// stays up.
    Refused(String),
    /// A bad preamble, answered with this `error` in binary: the
    /// connection must close.
    Rejected(&'static str),
}

/// A connection's received bytes and the framing state across reads.
#[derive(Debug)]
pub struct Inbox {
    buf: Vec<u8>,
    /// How much of `buf` has been framed; dropped before the next read.
    at: usize,
    codec: Codec,
    /// JSON: an over-long line is being discarded through its newline.
    json_discard: bool,
    /// Binary: bytes of an oversized frame still to skip.
    bin_discard: usize,
}

impl Inbox {
    /// The connection's codec.
    #[inline]
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Drops everything received and not yet framed.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.at = 0;
    }

    /// Frames the next complete request, or `None` until more bytes
    /// arrive. The first call with bytes sniffs the codec. Inlined, as
    /// the framer runs once per request in the gateway too.
    #[inline]
    pub fn next_request(&mut self, cfg: &ServerConfig) -> Option<Input<'_>> {
        if self.codec == Codec::Sniff {
            if *self.buf.first()? == binproto::MAGIC {
                // A partial preamble waits for more bytes.
                let head = self.buf.get(..binproto::PREAMBLE.len())?;
                self.codec = Codec::Binary;
                if *head != binproto::PREAMBLE {
                    self.clear();
                    return Some(Input::Rejected("bad preamble: expected BD 50 44 01"));
                }
                self.at = binproto::PREAMBLE.len();
            } else {
                self.codec = Codec::Json;
            }
        }
        match self.codec {
            Codec::Sniff => None,
            Codec::Json => self.next_line(cfg.max_line_bytes),
            Codec::Binary => self.next_frame(cfg.max_frame_bytes),
        }
    }

    /// JSON: the next non-blank line. An over-long line is refused as
    /// soon as it is known to be one, whole or not; the rest of it is
    /// discarded as it streams in. Non-UTF-8 lines are refused.
    #[inline]
    fn next_line(&mut self, max: usize) -> Option<Input<'_>> {
        loop {
            let rest = &self.buf[self.at..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                if self.json_discard {
                    self.at = self.buf.len();
                } else if rest.len() > max {
                    self.at = self.buf.len();
                    self.json_discard = true;
                    return Some(Input::Refused(format!("request line exceeds {max} bytes")));
                }
                return None;
            };
            let line = &rest[..nl];
            self.at += nl + 1;
            if std::mem::take(&mut self.json_discard) {
                // The tail of an over-long line, already refused.
                continue;
            }
            if line.len() > max {
                return Some(Input::Refused(format!("request line exceeds {max} bytes")));
            }
            let Ok(text) = std::str::from_utf8(line) else {
                return Some(Input::Refused("request line is not valid UTF-8".to_string()));
            };
            let text = text.trim();
            if !text.is_empty() {
                return Some(Input::Line(text));
            }
        }
    }

    /// Binary: the next frame. An empty frame is refused; an oversized
    /// one is refused from its length prefix and skipped as it streams
    /// in.
    #[inline]
    fn next_frame(&mut self, max: usize) -> Option<Input<'_>> {
        if self.bin_discard > 0 {
            let skip = self.bin_discard.min(self.buf.len() - self.at);
            self.at += skip;
            self.bin_discard -= skip;
            if self.bin_discard > 0 {
                return None;
            }
        }
        match split_frame(&self.buf[self.at..], max) {
            Split::Partial => None,
            Split::Oversized(len) => {
                self.at += 4;
                self.bin_discard = len;
                Some(Input::Refused(format!("frame exceeds {max} bytes")))
            }
            Split::Whole(0) => {
                self.at += 4;
                Some(Input::Refused("bad frame: empty frame".to_string()))
            }
            Split::Whole(len) => {
                let start = self.at;
                self.at += 4 + len;
                Some(Input::Frame(&self.buf[start..self.at]))
            }
        }
    }
}
