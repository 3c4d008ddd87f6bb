//! Transport: newline-delimited JSON or length-prefixed binary frames
//! over TCP, served by a readiness-based event loop, plus
//! newline-delimited JSON over stdio.
//!
//! The TCP engine does nonblocking accept/read/write over epoll,
//! thread-per-core with `SO_REUSEPORT`, and per-connection state
//! machines with reused buffers.
//!
//! **Why not thread-per-connection?** A thread that owns a connection
//! end to end is pinned by it: a blocked writer or an idle peer holds
//! the thread, so throughput falls once connections outnumber threads,
//! and a thread blocked in `read` cannot notice a shutdown. Here each
//! worker owns an epoll instance and its own `SO_REUSEPORT` listener,
//! so the kernel spreads connections across cores, a core's
//! connections never migrate, and an idle connection costs a slab
//! entry, not a thread. Every loop serves from the one sharded
//! [`Service`]: warm `predict`/`decide_batch`/`rank` run under their
//! machine's shard *read* lock, which loops on other cores share, and
//! only a `load_report` or a cold profile takes the write lock.
//!
//! **Codec negotiation:** the first byte of a connection routes it to
//! the binary frame loop ([`crate::binproto`], whose magic byte can
//! never start a JSON line) or the newline-JSON loop. Partial reads,
//! partial writes, `EINTR`, oversized inputs, and slow readers are all
//! first-class states of the per-connection machine, not error paths:
//! an oversized line or frame is answered with an `error` and skipped,
//! and the connection stays up ([`ServerConfig`]).
//!
//! A connection that moves no bytes for [`IDLE_TIMEOUT`] is closed, and
//! a failed `accept` (the descriptor limit) pauses the listener rather
//! than spinning on it. A connection-level I/O error drops that
//! connection and the loops keep serving. Only an explicit `shutdown`
//! request (or EOF on stdio) stops the daemon.

use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::binproto;
use crate::poll::{
    bind_reuseport, Epoll, EpollEvent, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::proto::Response;
use crate::service::{Service, Slots};

/// Transport-level tuning for the TCP server. The event-loop count is
/// not here: it is the `workers` argument of [`EventedServer::bind`].
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

/// Reads per readiness wakeup go through this per-loop scratch buffer.
const SCRATCH_BYTES: usize = 64 * 1024;

/// What one event loop reuses for every connection it serves: the read
/// buffer, the JSON reply buffer, and the request and reply [`Slots`].
struct Scratch {
    read: Vec<u8>,
    json: String,
    slots: Slots,
}

/// Stop reading from a connection whose unsent response backlog grows
/// past this; reading resumes once the peer drains below it. This is
/// the slow-reader backpressure valve: one stalled client caps its own
/// memory and never blocks the loop.
const HIGH_WATER_BYTES: usize = 1 << 20;

/// Readiness records fetched per `epoll_wait`.
const MAX_EVENTS: usize = 256;

/// A connection that moves no bytes either way for this long is
/// closed: a silent peer, one that stopped mid-request, or one that
/// stopped reading its replies would otherwise hold its descriptor and
/// buffers for as long as it stays connected. Public so a client that
/// keeps a connection between sparse requests knows when to reopen it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Idle connections are looked for at most this often, so one is
/// closed within [`IDLE_TIMEOUT`] plus this. Public so the gateway's
/// event loop sweeps the same way.
pub const SWEEP_EVERY: Duration = Duration::from_secs(1);

/// When `accept` fails for a reason other than an empty backlog (most
/// often the descriptor limit), the loop stops watching its listener
/// for this long instead of waking on it again at once. Public so the
/// gateway's event loop pauses the same way.
pub const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// How a connection's bytes are interpreted.
enum Mode {
    /// First byte not seen yet.
    Sniff,
    /// Newline-delimited JSON (the compatibility surface).
    Json,
    /// Length-prefixed binary frames (preamble already validated).
    Binary,
}

/// One connection's state machine. Buffers persist across readiness
/// wakeups, so partial reads and writes simply pause the machine.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed (partial line/frame).
    rbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has been written (partial-write cursor).
    wpos: usize,
    mode: Mode,
    /// JSON: an over-long line is being discarded through its newline.
    json_discard: bool,
    /// Binary: bytes of an oversized frame still to skip.
    bin_discard: usize,
    /// Close once `wbuf` drains (EOF seen, fatal error, or shutdown).
    closing: bool,
    /// Interest bits currently registered with epoll.
    interest: u32,
    /// The last readiness event: bytes arrived, were sent, or the peer
    /// hung up.
    last_active: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            rbuf: Vec::with_capacity(4096),
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            mode: Mode::Sniff,
            json_discard: false,
            bin_discard: 0,
            closing: false,
            interest: EPOLLIN | EPOLLRDHUP,
            last_active: now,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// A bound-but-not-yet-running evented server: bind first (so the
/// caller learns the port), then [`EventedServer::run`] until a
/// `shutdown` request arrives.
pub struct EventedServer {
    listeners: Vec<TcpListener>,
    addr: SocketAddr,
    /// [`IDLE_TIMEOUT`]; unit tests shorten it.
    idle_timeout: Duration,
}

impl EventedServer {
    /// Binds `workers` `SO_REUSEPORT` listeners (clamped to ≥ 1) on
    /// `addr` — IPv4 only. With port 0 the first bind picks the port
    /// and the rest join it.
    pub fn bind(addr: SocketAddr, workers: usize) -> io::Result<Self> {
        let v4 = match addr {
            SocketAddr::V4(v4) => v4,
            SocketAddr::V6(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "evented engine listens on IPv4 only",
                ))
            }
        };
        let workers = workers.max(1);
        let first = bind_reuseport(v4)?;
        let bound = first.local_addr()?;
        let port = bound.port();
        let mut listeners = vec![first];
        for _ in 1..workers {
            listeners.push(bind_reuseport(SocketAddrV4::new(*v4.ip(), port))?);
        }
        Ok(EventedServer { listeners, addr: bound, idle_timeout: IDLE_TIMEOUT })
    }

    /// The address the listeners are bound to (port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs one event loop per listener (thread-per-core) until a
    /// `shutdown` request is handled on any of them. The shutdown
    /// response is flushed before the loops exit.
    pub fn run(self, service: &Service, cfg: &ServerConfig) -> io::Result<()> {
        let stop = AtomicBool::new(false);
        let mut wakers = Vec::with_capacity(self.listeners.len());
        for _ in 0..self.listeners.len() {
            wakers.push(Waker::new()?);
        }
        let mut listeners = self.listeners;
        let idle = self.idle_timeout;
        std::thread::scope(|scope| {
            let stop = &stop;
            let wakers = &wakers[..];
            let mut handles = Vec::new();
            for (i, listener) in listeners.drain(1..).enumerate() {
                handles.push(scope.spawn(move || {
                    event_loop(listener, &wakers[i + 1], service, cfg, idle, stop, wakers)
                }));
            }
            let first = match listeners.pop() {
                Some(l) => event_loop(l, &wakers[0], service, cfg, idle, stop, wakers),
                None => Ok(()),
            };
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

/// Slab token of the listener.
const TOKEN_LISTENER: u64 = 0;
/// Slab token of the wakeup eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token available for connections.
const TOKEN_CONNS: u64 = 2;

/// One worker's loop: accept, sniff, parse, handle, write — all
/// nonblocking, all level-triggered — and close
/// connections idle for `idle_timeout`.
// modelcheck: event-loop
fn event_loop(
    listener: TcpListener,
    waker: &Waker,
    service: &Service,
    cfg: &ServerConfig,
    idle_timeout: Duration,
    stop: &AtomicBool,
    all_wakers: &[Waker],
) -> io::Result<()> {
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
    epoll.add(waker.as_raw_fd(), TOKEN_WAKER, EPOLLIN)?;
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    let mut scratch =
        Scratch { read: vec![0u8; SCRATCH_BYTES], json: String::new(), slots: Slots::new() };
    // After `stop`, linger briefly to flush pending responses (most
    // importantly the `ok` reply to the shutdown request itself).
    let mut drain_deadline: Option<Instant> = None;
    // When to look for idle connections; `None` while there are none.
    let mut next_sweep: Option<Instant> = None;
    // When to watch the listener again after a failed `accept`.
    let mut accept_paused_until: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Acquire) {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(1));
            let pending = conns.iter().flatten().any(|c| c.pending_write() > 0);
            if !pending || Instant::now() >= deadline {
                return Ok(());
            }
        }
        let drain_slice = drain_deadline.map(|_| Instant::now() + Duration::from_millis(20));
        let n = epoll.wait(&mut events, wait_ms([drain_slice, next_sweep, accept_paused_until]))?;
        let now = Instant::now();
        for ev in events.iter().take(n) {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => {
                    if !accept_ready(&listener, &epoll, &mut conns, &mut free, now)
                        && epoll.modify(listener.as_raw_fd(), TOKEN_LISTENER, 0).is_ok()
                    {
                        accept_paused_until = Some(now + ACCEPT_BACKOFF);
                    }
                    next_sweep.get_or_insert(now + idle_timeout);
                }
                TOKEN_WAKER => waker.drain(),
                t => {
                    let idx = usize::try_from(t.saturating_sub(TOKEN_CONNS)).unwrap_or(usize::MAX);
                    let Some(Some(conn)) = conns.get_mut(idx) else { continue };
                    conn.last_active = now;
                    let mut dead = bits & (EPOLLERR | EPOLLHUP) != 0;
                    if !dead && bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                        dead = !on_readable(conn, service, cfg, &mut scratch, stop, all_wakers);
                    }
                    if !dead {
                        dead = !on_writable(conn);
                    }
                    if dead || (conn.closing && conn.pending_write() == 0) {
                        close(&epoll, &mut conns, &mut free, idx);
                    } else {
                        refresh_interest(&epoll, conn, t);
                    }
                }
            }
        }
        if accept_paused_until.is_some_and(|t| now >= t)
            && epoll.modify(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN).is_ok()
        {
            accept_paused_until = None;
        }
        if next_sweep.is_some_and(|t| now >= t) {
            next_sweep = close_idle(&epoll, &mut conns, &mut free, now, idle_timeout);
        }
    }
}

/// The `epoll_wait` timeout, in milliseconds rounded up, that wakes the
/// loop at the earliest of `deadlines` (forever without one).
fn wait_ms<const N: usize>(deadlines: [Option<Instant>; N]) -> i32 {
    let Some(at) = deadlines.into_iter().flatten().min() else { return -1 };
    let left = at.saturating_duration_since(Instant::now()).as_micros().div_ceil(1000);
    i32::try_from(left).unwrap_or(i32::MAX)
}

/// Unregisters and drops connection `idx`, freeing its slab slot.
fn close(epoll: &Epoll, conns: &mut [Option<Conn>], free: &mut Vec<usize>, idx: usize) {
    if let Some(conn) = conns.get_mut(idx).and_then(Option::take) {
        let _ = epoll.delete(conn.stream.as_raw_fd());
        free.push(idx);
    }
}

/// Closes every connection idle for `idle_timeout` and returns when to
/// look again: when the next survivor would expire, but no sooner than
/// [`SWEEP_EVERY`] from now, or `None` when no connection is left.
fn close_idle(
    epoll: &Epoll,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    now: Instant,
    idle_timeout: Duration,
) -> Option<Instant> {
    let mut next: Option<Instant> = None;
    for idx in 0..conns.len() {
        let Some(Some(conn)) = conns.get(idx) else { continue };
        let expires = conn.last_active + idle_timeout;
        if expires <= now {
            close(epoll, conns, free, idx);
        } else {
            next = Some(next.map_or(expires, |t| t.min(expires)));
        }
    }
    next.map(|t| t.max(now + SWEEP_EVERY))
}

/// Accepts every pending connection (level-triggered listener). Returns
/// false when `accept` failed for a reason other than an empty backlog
/// — most often the descriptor limit, which leaves the listener
/// readable, so the caller must stop watching it for a while.
fn accept_ready(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    now: Instant,
) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let conn = Conn::new(stream, now);
                let idx = match free.pop() {
                    Some(i) => {
                        conns[i] = Some(conn);
                        i
                    }
                    None => {
                        conns.push(Some(conn));
                        conns.len() - 1
                    }
                };
                let token = TOKEN_CONNS + u64::try_from(idx).unwrap_or(0);
                if epoll.add(fd, token, EPOLLIN | EPOLLRDHUP).is_err() {
                    conns[idx] = None;
                    free.push(idx);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Drains the socket into the connection's read buffer and processes
/// every complete request. Returns false when the connection is dead.
fn on_readable(
    conn: &mut Conn,
    service: &Service,
    cfg: &ServerConfig,
    scratch: &mut Scratch,
    stop: &AtomicBool,
    all_wakers: &[Waker],
) -> bool {
    if conn.closing {
        return true;
    }
    loop {
        // Backpressure: stop pulling input while the peer is not
        // draining our responses.
        if conn.pending_write() > HIGH_WATER_BYTES {
            break;
        }
        match conn.stream.read(&mut scratch.read) {
            Ok(0) => {
                // Peer closed its writing half; serve what is buffered,
                // flush, then close.
                conn.closing = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch.read[..n]);
                if n < scratch.read.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    process_rbuf(conn, service, cfg, scratch, stop, all_wakers);
    true
}

/// Sniffs the codec if needed, then parses and handles everything
/// complete in `rbuf`, appending encoded responses to `wbuf`.
// modelcheck: event-loop
fn process_rbuf(
    conn: &mut Conn,
    service: &Service,
    cfg: &ServerConfig,
    scratch: &mut Scratch,
    stop: &AtomicBool,
    all_wakers: &[Waker],
) {
    if matches!(conn.mode, Mode::Sniff) && !conn.rbuf.is_empty() {
        if conn.rbuf[0] == binproto::MAGIC {
            if conn.rbuf.len() < binproto::PREAMBLE.len() {
                return; // partial preamble: wait for more bytes
            }
            if conn.rbuf[..4] == binproto::PREAMBLE {
                conn.rbuf.drain(..4);
                conn.mode = Mode::Binary;
            } else {
                let _ = binproto::encode_response(
                    &Response::error("bad preamble: expected BD 50 44 01"),
                    &mut conn.wbuf,
                );
                conn.closing = true;
                return;
            }
        } else {
            conn.mode = Mode::Json;
        }
    }
    let shutdown = match conn.mode {
        Mode::Sniff => false,
        Mode::Json => process_json(conn, service, cfg, &mut scratch.json, &mut scratch.slots),
        Mode::Binary => process_binary(conn, service, cfg, &mut scratch.slots),
    };
    if shutdown {
        conn.closing = true;
        stop.store(true, Ordering::Release);
        for w in all_wakers {
            w.wake();
        }
    }
}

/// JSON mode: handle every complete line in `rbuf`, building the reply
/// lines in the loop's `out` buffer. Returns the shutdown flag.
fn process_json(
    conn: &mut Conn,
    service: &Service,
    cfg: &ServerConfig,
    out: &mut String,
    slots: &mut Slots,
) -> bool {
    let mut shutdown = false;
    let mut consumed = 0;
    out.clear();
    while let Some(nl) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') {
        let line_end = consumed + nl;
        if conn.json_discard {
            // Tail of an over-long line: drop it; the error response
            // was already queued when the cap tripped.
            conn.json_discard = false;
            consumed = line_end + 1;
            continue;
        }
        let line = &conn.rbuf[consumed..line_end];
        consumed = line_end + 1;
        if line.len() > cfg.max_line_bytes {
            append_json_error(out, &format!("request line exceeds {} bytes", cfg.max_line_bytes));
        } else {
            match std::str::from_utf8(line) {
                Ok(text) => {
                    let text = text.trim();
                    if !text.is_empty() && slots.handle_line_into(service, text, out) {
                        shutdown = true;
                        break;
                    }
                }
                Err(_) => append_json_error(out, "request line is not valid UTF-8"),
            }
        }
    }
    conn.rbuf.drain(..consumed);
    if conn.json_discard {
        // Still inside an over-long line: keep dropping its bytes.
        conn.rbuf.clear();
    } else if conn.rbuf.len() > cfg.max_line_bytes {
        // A partial line already past the cap: reject now, discard the
        // rest as it streams in.
        append_json_error(out, &format!("request line exceeds {} bytes", cfg.max_line_bytes));
        conn.rbuf.clear();
        conn.json_discard = true;
    }
    conn.wbuf.extend_from_slice(out.as_bytes());
    shutdown
}

/// Binary mode: handle every complete frame in `rbuf`. Returns the
/// shutdown flag.
fn process_binary(
    conn: &mut Conn,
    service: &Service,
    cfg: &ServerConfig,
    slots: &mut Slots,
) -> bool {
    let mut shutdown = false;
    let mut consumed = 0;
    loop {
        // Finish skipping an oversized frame first.
        if conn.bin_discard > 0 {
            let available = conn.rbuf.len() - consumed;
            let skip = conn.bin_discard.min(available);
            consumed += skip;
            conn.bin_discard -= skip;
            if conn.bin_discard > 0 {
                break;
            }
        }
        let rest = &conn.rbuf[consumed..];
        if rest.len() < 4 {
            break;
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&rest[..4]);
        let len = usize::try_from(u32::from_le_bytes(len4)).unwrap_or(usize::MAX);
        if len == 0 {
            consumed += 4;
            let _ = binproto::encode_response(
                &Response::error("bad frame: empty frame"),
                &mut conn.wbuf,
            );
            continue;
        }
        if len > cfg.max_frame_bytes {
            consumed += 4;
            conn.bin_discard = len;
            let _ = binproto::encode_response(
                &Response::error(format!("frame exceeds {} bytes", cfg.max_frame_bytes)),
                &mut conn.wbuf,
            );
            continue;
        }
        if rest.len() < 4 + len {
            break; // partial frame: wait for more bytes
        }
        let done = slots.handle_frame_into(service, &rest[4..4 + len], &mut conn.wbuf);
        consumed += 4 + len;
        if done {
            shutdown = true;
            break;
        }
    }
    conn.rbuf.drain(..consumed);
    shutdown
}

/// Appends a JSON `error` response line.
fn append_json_error(out: &mut String, message: &str) {
    serde_json::to_string_into(&Response::error(message), out);
    out.push('\n');
}

/// Pushes pending response bytes into the socket, advancing the
/// partial-write cursor. Returns false when the connection is dead.
fn on_writable(conn: &mut Conn) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > HIGH_WATER_BYTES {
        // Reclaim the already-written prefix so a slow reader does not
        // hold the high-water mark's worth of dead bytes.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    true
}

/// Re-registers the connection's epoll interest to match its state:
/// write-interest only while output is pending, read-interest only
/// while below the backpressure high-water mark and not closing.
fn refresh_interest(epoll: &Epoll, conn: &mut Conn, token: u64) {
    let mut want = 0;
    if !conn.closing && conn.pending_write() <= HIGH_WATER_BYTES {
        want |= EPOLLIN | EPOLLRDHUP;
    }
    if conn.pending_write() > 0 {
        want |= EPOLLOUT;
    }
    if want != conn.interest && epoll.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
        conn.interest = want;
    }
}

/// Serves requests from stdin to stdout until `shutdown` or EOF.
pub fn serve_stdio(service: &Service) -> io::Result<()> {
    let stdin = io::stdin();
    let mut stdout = io::stdout().lock();
    let mut out = String::new();
    let mut slots = Slots::new();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let shutdown = slots.handle_line_into(service, line.trim(), &mut out);
        stdout.write_all(out.as_bytes())?;
        stdout.flush()?;
        out.clear();
        if shutdown {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    /// A peer that stops mid-line sees EOF once the idle timeout passes,
    /// while a peer that keeps talking on the same loop stays served.
    #[test]
    fn idle_connection_is_closed_and_a_busy_one_is_not() {
        let mut server =
            EventedServer::bind("127.0.0.1:0".parse().expect("loopback"), 1).expect("bind");
        server.idle_timeout = Duration::from_millis(200);
        let addr = server.local_addr();
        // Leaked and detached, so a failed assertion cannot hang the test.
        let service =
            Box::leak(Box::new(Service::with_default_predictor(ServiceConfig::default())));
        let loops = std::thread::spawn(move || server.run(service, &ServerConfig::default()));

        let started = Instant::now();
        let mut stuck = TcpStream::connect(addr).expect("stuck client");
        stuck.write_all(b"{\"kind\":\"sta").expect("half a line");
        stuck.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
        let mut live = io::BufReader::new(TcpStream::connect(addr).expect("busy client"));
        let mut closed_after = None;
        // Keep the busy peer talking until past the sweep after the close.
        while started.elapsed() < SWEEP_EVERY + Duration::from_millis(500) {
            if closed_after.is_none() && matches!(stuck.read(&mut [0u8; 64]), Ok(0)) {
                closed_after = Some(started.elapsed());
            }
            live.get_mut().write_all(b"{\"kind\":\"stats\"}\n").expect("stats request");
            let mut reply = String::new();
            live.read_line(&mut reply).expect("stats reply");
            assert!(reply.contains("\"kind\":\"stats\""), "{reply:?}");
        }
        let waited = closed_after.expect("the stuck peer must see EOF");
        assert!(waited >= Duration::from_millis(200), "closed before the timeout: {waited:?}");

        live.get_mut().write_all(b"{\"kind\":\"shutdown\"}\n").expect("shutdown");
        loops.join().expect("event loop").expect("clean exit");
    }
}
