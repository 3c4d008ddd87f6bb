//! The gateway's transport: one readiness-based event loop per worker,
//! with the same engine discipline as predictd's evented server —
//! nonblocking accept/read/write over epoll, thread-per-core
//! `SO_REUSEPORT` listeners, per-connection codec sniff and partial-I/O
//! state machines — that drives the backends without blocking too.
//!
//! ## Lanes
//!
//! Each worker owns one nonblocking binary connection per backend (a
//! [`Lane`]), registered in the same epoll set as its clients. The loop
//! hands every complete request in a client's read buffer to the
//! gateway's routing step ([`Gateway::plan`]), queues the backend
//! sub-requests it names on the lanes, and flushes every lane's outbox
//! once per event batch: a burst of pipelined client requests becomes
//! one write per backend, so batching comes from the load, not from a
//! knob. Replies are matched to requests in FIFO order per lane and
//! folded back with [`Gateway::settle`].
//!
//! The journal is written the same way: planning a `load_report` only
//! stages its record, and the batch's reports are committed with one
//! `write` at the end of the batch ([`Gateway::commit`]), just before
//! the lanes flush. Until then the batch's sends are *held*: the
//! reports' sends, and every send planned after the first of them, so
//! each lane still gets its requests in the order they were planned.
//! A failed commit refuses the batch's reports — answered `journal
//! append failed: …`, sent nowhere — and lets the rest go.
//!
//! A binary client's `load_report`, `predict`, `decide_batch` and
//! `rank` frames are relayed, not decoded: the loop reads the frame's
//! tag, vouches for the rest with [`binproto::check_request`], and
//! hands the routing step the frame itself, which the journal and the
//! lanes copy out as is — or, for a batch that fans out, cut into chunk
//! frames. The reply — a query's, the ack a broadcast picks, or the
//! merged chunk replies — comes back as a frame and is copied into the
//! client's write buffer; a JSON client's is decoded once, there. A
//! frame that fails the check is decoded instead, and answered `bad
//! frame: …` here without reaching the journal or a backend.
//!
//! ## Reply slots
//!
//! Each client connection keeps an ordered queue of reply slots, one
//! per request. A slot fills when its routing finishes; replies leave
//! from the front only, so they go out in request order whatever order
//! the backends answer in. The queue is bounded like the write buffer:
//! at `MAX_SLOTS` pending replies the connection stops routing and
//! reading until it drains.
//!
//! ## Timeouts and failover
//!
//! A lane fails when its transport fails or when its oldest in-flight
//! request is older than the I/O timeout; the loop sleeps in
//! `epoll_wait` no longer than the nearest such deadline. A failed
//! lane's requests are settled as failed: idempotent ones (`predict`,
//! `rank`, `decide_batch` chunks) move down the preference list, and
//! broadcast gaps are left to the health checker's journal replay. A
//! slow or silent backend delays only the requests routed to it, never
//! the worker. A failed `accept` (most often the descriptor limit)
//! pauses the listener for predictd's `ACCEPT_BACKOFF` rather than
//! spinning on it, and a client connection the gateway owes nothing
//! that moves no bytes for predictd's `IDLE_TIMEOUT` is closed, swept
//! at most once per `SWEEP_EVERY` as predictd does.
//!
//! ## Broadcast order
//!
//! Each backend must receive `load_report`s in journal order even
//! though every worker broadcasts through its own lanes. The gateway
//! lets one broadcaster at a time have reports in flight; a worker
//! whose report is deferred pauses that connection — no reading, no
//! routing of its later requests, so per-connection order holds —
//! until the owner's last ack wakes it through its [`Waker`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use predictd::poll::{
    bind_reuseport, Epoll, EpollEvent, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use predictd::server::{ACCEPT_BACKOFF, IDLE_TIMEOUT, SWEEP_EVERY};
use predictd::ServerConfig;
use proto::{binproto, Request, Response};

use crate::gateway::{Answer, Broadcaster, Gateway, Op, Part, Payload, Planned, NO_RECIPIENT};
use crate::lane::{Lane, Reply, Tag};

/// Reads per readiness wakeup go through this per-loop scratch buffer.
const SCRATCH_BYTES: usize = 64 * 1024;

/// Stop reading from a connection whose unsent response backlog grows
/// past this; reading resumes once the peer drains below it.
const HIGH_WATER_BYTES: usize = 1 << 20;

/// Stop routing (and reading) a connection's requests while this many
/// of its replies are pending; resume as they leave.
const MAX_SLOTS: usize = 1024;

/// Readiness records fetched per `epoll_wait`.
const MAX_EVENTS: usize = 256;

/// Slab token of the listener.
const TOKEN_LISTENER: u64 = 0;
/// Slab token of the wakeup eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token available for connections.
const TOKEN_CONNS: u64 = 2;
/// Backend lane tokens sit above every connection token.
const TOKEN_LANES: u64 = 1 << 48;

/// How a connection's bytes are interpreted.
enum Mode {
    /// First byte not seen yet.
    Sniff,
    /// Newline-delimited JSON.
    Json,
    /// Length-prefixed binary frames (preamble already validated).
    Binary,
}

/// One reply, in request order.
enum Slot {
    /// Routed; backend parts still in flight.
    Waiting(Op),
    /// Answered, waiting for the slots before it.
    Ready(Answer),
}

/// One client connection's state machine (see the predictd evented
/// server for the full rationale; this is the same machine plus reply
/// slots).
struct Conn {
    /// Worker-unique id, so a late backend reply can never land in a
    /// reused slab slot.
    id: u64,
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    mode: Mode,
    json_discard: bool,
    bin_discard: usize,
    closing: bool,
    interest: u32,
    slots: VecDeque<Slot>,
    /// Sequence number of `slots.front()`.
    first_slot: u64,
    /// A `load_report` waiting for the broadcast turn; routing and
    /// reading pause behind it.
    deferred: Option<Payload>,
    /// The socket failed: no more I/O. Kept only until its in-flight
    /// routing settles, so backend replies always find their slot.
    dead: bool,
    /// Queued for the end-of-batch flush.
    dirty: bool,
    /// The last batch that read, routed, answered, or wrote for it.
    last_active: Instant,
}

impl Conn {
    fn new(stream: TcpStream, id: u64, now: Instant) -> Self {
        Conn {
            id,
            stream,
            rbuf: Vec::with_capacity(4096),
            wbuf: Vec::with_capacity(4096),
            wpos: 0,
            mode: Mode::Sniff,
            json_discard: false,
            bin_discard: 0,
            closing: false,
            interest: EPOLLIN | EPOLLRDHUP,
            slots: VecDeque::new(),
            first_slot: 0,
            deferred: None,
            dead: false,
            dirty: false,
            last_active: now,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Appends a reply slot, returning its sequence number.
    fn push(&mut self, slot: Slot) -> u64 {
        let seq = self.first_slot + u64::try_from(self.slots.len()).unwrap_or(u64::MAX);
        self.slots.push_back(slot);
        seq
    }

    /// The reply slot with sequence number `seq`, if still queued.
    fn slot_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        let i = usize::try_from(seq.checked_sub(self.first_slot)?).ok()?;
        self.slots.get_mut(i)
    }

    /// May this connection route more requests now?
    fn can_route(&self) -> bool {
        !self.dead && self.deferred.is_none() && self.slots.len() < MAX_SLOTS
    }

    /// Should the loop read more of this connection's requests?
    fn wants_read(&self) -> bool {
        !self.closing && self.can_route() && self.pending_write() <= HIGH_WATER_BYTES
    }

    /// Stops all I/O on a failed socket; in-flight routing still settles.
    fn kill(&mut self, epoll: &Epoll) {
        if !self.dead {
            self.dead = true;
            let _ = epoll.delete(self.stream.as_raw_fd());
            self.deferred = None;
            self.rbuf.clear();
            self.wbuf.clear();
            self.wpos = 0;
        }
    }
}

/// A bound-but-not-yet-running gateway server: bind first (so the
/// caller learns the port), then [`GatewayServer::run`] until a
/// `shutdown` request arrives.
pub struct GatewayServer {
    listeners: Vec<TcpListener>,
    addr: SocketAddr,
    /// [`IDLE_TIMEOUT`]; unit tests shorten it.
    idle_timeout: Duration,
}

impl GatewayServer {
    /// Binds `workers` `SO_REUSEPORT` listeners (clamped to ≥ 1) on
    /// `addr` — IPv4 only, like the predictd evented engine.
    pub fn bind(addr: SocketAddr, workers: usize) -> io::Result<Self> {
        let v4 = match addr {
            SocketAddr::V4(v4) => v4,
            SocketAddr::V6(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "gateway listens on IPv4 only",
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
        Ok(GatewayServer { listeners, addr: bound, idle_timeout: IDLE_TIMEOUT })
    }

    /// The address the listeners are bound to (port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs one event loop per listener until a `shutdown` request is
    /// handled on any of them; `stop` is also honored (and set), so the
    /// caller can wind down the health checker with the same flag.
    /// Backend addresses are resolved once, here; lanes connect over
    /// IPv4, so a backend with no IPv4 address fails every request sent
    /// to it (and its traffic fails over).
    pub fn run(self, gateway: &Gateway, cfg: &ServerConfig, stop: &AtomicBool) -> io::Result<()> {
        let mut wakers = Vec::with_capacity(self.listeners.len());
        for _ in 0..self.listeners.len() {
            wakers.push(Arc::new(Waker::new()?));
        }
        let addrs: Vec<Option<SocketAddrV4>> =
            gateway.config().backends.iter().map(|a| resolve_v4(a)).collect();
        let mut listeners = self.listeners;
        let idle = self.idle_timeout;
        std::thread::scope(|scope| {
            let wakers = &wakers[..];
            let addrs = &addrs[..];
            let mut handles = Vec::new();
            for (i, listener) in listeners.drain(1..).enumerate() {
                handles.push(scope.spawn(move || {
                    event_loop(listener, i + 1, gateway, cfg, idle, stop, wakers, addrs)
                }));
            }
            let first = match listeners.pop() {
                Some(l) => event_loop(l, 0, gateway, cfg, idle, stop, wakers, addrs),
                None => Ok(()),
            };
            for h in handles {
                match h.join() {
                    Ok(r) => r?,
                    Err(_) => return Err(io::Error::other("gateway event loop panicked")),
                }
            }
            first
        })
    }
}

/// The first IPv4 address `addr` resolves to.
fn resolve_v4(addr: &str) -> Option<SocketAddrV4> {
    addr.to_socket_addrs().ok()?.find_map(|a| match a {
        SocketAddr::V4(v4) => Some(v4),
        SocketAddr::V6(_) => None,
    })
}

/// What routing one request means for the rest of its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Route the next request.
    Go,
    /// Deferred: wait for the broadcast turn.
    Pause,
    /// Shutdown: route nothing more.
    Stop,
}

/// One op's sends held back until the batch's journal commit.
struct Held {
    conn: usize,
    conn_id: u64,
    slot: u64,
    relay: bool,
    /// A report broadcast: refused if the commit fails.
    broadcast: bool,
    /// Its parts, in [`Io::held_parts`].
    parts: Range<usize>,
}

/// Everything a worker routes with besides its client connections.
struct Io<'a> {
    gateway: &'a Gateway,
    cfg: &'a ServerConfig,
    stop: &'a AtomicBool,
    wakers: &'a [Arc<Waker>],
    epoll: Epoll,
    lanes: Vec<Lane>,
    who: Broadcaster,
    /// Scratch: parts named by the last plan/settle.
    sends: Vec<Part>,
    /// Requests that failed before reaching a lane, or on a lane that
    /// failed; settled at the end of the batch.
    failed: Vec<Reply>,
    /// Ops whose sends wait for the journal commit, in planning order;
    /// empty unless this batch planned a report.
    held: Vec<Held>,
    /// The parts of the `held` ops.
    held_parts: Vec<Part>,
    /// Connections paused on a deferred `load_report`, in order.
    deferred: VecDeque<(usize, u64)>,
    /// Scratch for JSON encoding.
    json: String,
}

/// One worker: its client connections plus its [`Io`].
struct Worker<'a> {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_id: u64,
    /// Connections to flush at the end of the batch.
    dirty: Vec<usize>,
    io: Io<'a>,
}

/// One worker's loop: accept, sniff, parse, route through its own
/// backend lanes, write — client and backend I/O nonblocking and
/// level-triggered — and close clients idle for `idle_timeout`.
// modelcheck: event-loop
#[allow(clippy::too_many_arguments)]
fn event_loop(
    listener: TcpListener,
    me: usize,
    gateway: &Gateway,
    cfg: &ServerConfig,
    idle_timeout: Duration,
    stop: &AtomicBool,
    wakers: &[Arc<Waker>],
    addrs: &[Option<SocketAddrV4>],
) -> io::Result<()> {
    let waker = wakers.get(me).ok_or_else(|| io::Error::other("worker has no waker"))?;
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
    epoll.add(waker.as_raw_fd(), TOKEN_WAKER, EPOLLIN)?;
    let lanes = addrs.iter().zip(TOKEN_LANES..).map(|(&a, token)| Lane::new(a, token)).collect();
    let mut w = Worker {
        conns: Vec::new(),
        free: Vec::new(),
        next_id: 0,
        dirty: Vec::new(),
        io: Io {
            gateway,
            cfg,
            stop,
            wakers,
            epoll,
            lanes,
            who: gateway.broadcaster(Some(Arc::clone(waker))),
            sends: Vec::new(),
            failed: Vec::new(),
            held: Vec::new(),
            held_parts: Vec::new(),
            deferred: VecDeque::new(),
            json: String::new(),
        },
    };
    let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut replies: Vec<Reply> = Vec::new();
    // After `stop`, linger briefly to flush pending responses (most
    // importantly the `ok` reply to the shutdown request itself).
    let mut drain_deadline: Option<Instant> = None;
    // When to watch the listener again after a failed `accept`.
    let mut accept_paused_until: Option<Instant> = None;
    // When to look for idle clients; `None` while there are none.
    let mut next_sweep: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Acquire) {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(1));
            if !w.busy() || Instant::now() >= deadline {
                w.abandon(Instant::now());
                return Ok(());
            }
        }
        let timeout = w.io.wait_ms(
            Instant::now(),
            drain_deadline.is_some(),
            [accept_paused_until, next_sweep],
        );
        let n = w.io.epoll.wait(&mut events, timeout)?;
        let now = Instant::now();
        for ev in events.iter().take(n) {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => {
                    if !w.accept(&listener, now)
                        && w.io.epoll.modify(listener.as_raw_fd(), TOKEN_LISTENER, 0).is_ok()
                    {
                        accept_paused_until = Some(now + ACCEPT_BACKOFF);
                    }
                    next_sweep.get_or_insert(now + idle_timeout);
                }
                TOKEN_WAKER => {
                    waker.drain();
                    w.retry_deferred(now);
                }
                t if t >= TOKEN_LANES => {
                    let i = usize::try_from(t - TOKEN_LANES).unwrap_or(usize::MAX);
                    if let Some(lane) = w.io.lanes.get_mut(i) {
                        lane.on_ready(bits, &mut scratch, &mut replies);
                    }
                    for (tag, result) in replies.drain(..) {
                        w.settle(tag, result, now);
                    }
                }
                t => w.on_client(t, bits, &mut scratch, now),
            }
        }
        w.end_batch(now);
        if accept_paused_until.is_some_and(|t| now >= t)
            && w.io.epoll.modify(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN).is_ok()
        {
            accept_paused_until = None;
        }
        if next_sweep.is_some_and(|t| now >= t) {
            next_sweep = w.close_idle(now, idle_timeout);
        }
    }
}

impl Worker<'_> {
    /// Accepts every pending connection (level-triggered listener).
    /// Returns false when `accept` failed for a reason other than an
    /// empty backlog — most often the descriptor limit, which leaves the
    /// listener readable, so the caller must stop watching it a while.
    fn accept(&mut self, listener: &TcpListener, now: Instant) -> bool {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let conn = Conn::new(stream, self.next_id, now);
                    self.next_id += 1;
                    let idx = match self.free.pop() {
                        Some(i) => {
                            self.conns[i] = Some(conn);
                            i
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    let token = TOKEN_CONNS + u64::try_from(idx).unwrap_or(0);
                    if self.io.epoll.add(fd, token, EPOLLIN | EPOLLRDHUP).is_err() {
                        self.conns[idx] = None;
                        self.free.push(idx);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Client readiness: read what the connection may take and route
    /// every complete request; writes wait for the end of the batch.
    fn on_client(&mut self, token: u64, bits: u32, scratch: &mut [u8], now: Instant) {
        let idx = usize::try_from(token.saturating_sub(TOKEN_CONNS)).unwrap_or(usize::MAX);
        let Some(Some(conn)) = self.conns.get_mut(idx) else { return };
        if conn.dead {
            return;
        }
        let mut dead = bits & (EPOLLERR | EPOLLHUP) != 0;
        if !dead && bits & (EPOLLIN | EPOLLRDHUP) != 0 && conn.wants_read() {
            dead = !read_client(conn, scratch);
        }
        if dead {
            conn.kill(&self.io.epoll);
        } else {
            self.io.route_all(conn, idx, now);
        }
        mark_dirty(&mut self.dirty, conn, idx);
    }

    /// Folds one backend outcome into the op it belongs to.
    fn settle(&mut self, tag: Tag, result: Result<Answer, String>, now: Instant) {
        let Some(Some(conn)) = self.conns.get_mut(tag.conn) else { return };
        if conn.id != tag.conn_id {
            return;
        }
        self.io.settle(conn, tag, result, now);
        mark_dirty(&mut self.dirty, conn, tag.conn);
    }

    /// Retries deferred `load_report`s after a wakeup, oldest first,
    /// resuming each connection's routing behind it.
    fn retry_deferred(&mut self, now: Instant) {
        while let Some((idx, id)) = self.io.deferred.pop_front() {
            let Some(Some(conn)) = self.conns.get_mut(idx) else { continue };
            if conn.id != id {
                continue;
            }
            let Some(payload) = conn.deferred.take() else { continue };
            let flow = self.io.route(conn, idx, payload, now);
            match flow {
                Flow::Go => self.io.route_all(conn, idx, now),
                Flow::Stop => conn.rbuf.clear(),
                Flow::Pause => {}
            }
            mark_dirty(&mut self.dirty, conn, idx);
            if flow == Flow::Pause {
                // The turn is taken again; the plan re-registered our
                // waker and re-queued this connection.
                break;
            }
        }
    }

    /// Settles failed requests and failed lanes, flushes every touched
    /// connection, commits the journal and sends what waited for it,
    /// then flushes every lane's outbox — repeating while any of that
    /// produced more to do.
    fn end_batch(&mut self, now: Instant) {
        loop {
            self.io.fail_lanes(now);
            for (tag, result) in std::mem::take(&mut self.io.failed) {
                self.settle(tag, result, now);
            }
            let mut dirty = std::mem::take(&mut self.dirty);
            for idx in dirty.drain(..) {
                self.finish(idx, now);
            }
            // `finish` marks nothing dirty: hand the list back with its
            // capacity rather than allocating it again next batch.
            self.dirty = dirty;
            self.release_held(now);
            for lane in &mut self.io.lanes {
                lane.flush(&self.io.epoll);
            }
            let (connect, io) =
                (self.io.gateway.config().connect_timeout, self.io.gateway.config().io_timeout);
            let settled = self.io.failed.is_empty()
                && self.dirty.is_empty()
                && self.io.lanes.iter().all(|l| l.failure(now, connect, io).is_none());
            if settled {
                return;
            }
        }
    }

    /// Commits the batch's journal records, then sends every held op's
    /// parts in planning order — except a report's when the commit
    /// failed: that one is refused, its parts never sent. A report that
    /// had no healthy recipient is answered once its record is in.
    fn release_held(&mut self, now: Instant) {
        if self.io.held.is_empty() {
            return;
        }
        let committed = self.io.gateway.commit();
        let mut held = std::mem::take(&mut self.io.held);
        let parts = std::mem::take(&mut self.io.held_parts);
        for h in held.drain(..) {
            let parts = parts.get(h.parts).unwrap_or_default();
            let answer = match &committed {
                Err(why) if h.broadcast => Some(self.io.gateway.refuse(parts, why)),
                _ if parts.is_empty() => Some(Response::error(NO_RECIPIENT)),
                _ => None,
            };
            // A waiting slot keeps its connection, so both are found.
            let Some(Some(conn)) = self.conns.get_mut(h.conn) else { continue };
            if conn.id != h.conn_id {
                continue;
            }
            let Some(slot) = conn.slot_mut(h.slot) else { continue };
            match answer {
                Some(resp) => {
                    *slot = Slot::Ready(resp.into());
                    mark_dirty(&mut self.dirty, conn, h.conn);
                }
                None => {
                    if let Slot::Waiting(op) = slot {
                        for &part in parts {
                            let (conn, conn_id, slot, relay) = (h.conn, h.conn_id, h.slot, h.relay);
                            self.io.send(op, Tag { conn, conn_id, slot, part, relay }, now);
                        }
                    }
                }
            }
        }
        self.io.held = held;
        self.io.held_parts = parts;
        self.io.held_parts.clear();
    }

    /// End-of-batch work for one connection: resume routing it, move
    /// its finished front replies into the write buffer, write, and
    /// close or re-arm it.
    fn finish(&mut self, idx: usize, now: Instant) {
        let Some(Some(conn)) = self.conns.get_mut(idx) else { return };
        conn.dirty = false;
        if !conn.dead {
            conn.last_active = now;
            // Free the finished replies' slots before routing into them:
            // a client whose backlog already sits whole in `rbuf` gets no
            // read event to resume its routing later.
            write_ready(conn, &mut self.io.json);
            self.io.route_all(conn, idx, now);
            write_ready(conn, &mut self.io.json);
            if !on_writable(conn) {
                conn.kill(&self.io.epoll);
            }
        }
        if conn.dead {
            // Nobody to reply to: drop finished replies, keep the
            // connection until the rest settle.
            while let Some(Slot::Ready(_)) = conn.slots.front() {
                conn.slots.pop_front();
                conn.first_slot += 1;
            }
            if conn.slots.is_empty() {
                self.conns[idx] = None;
                self.free.push(idx);
            }
            return;
        }
        if conn.closing
            && conn.pending_write() == 0
            && conn.slots.is_empty()
            && conn.deferred.is_none()
        {
            let _ = self.io.epoll.delete(conn.stream.as_raw_fd());
            self.conns[idx] = None;
            self.free.push(idx);
            return;
        }
        refresh_interest(&self.io.epoll, conn, TOKEN_CONNS + u64::try_from(idx).unwrap_or(0));
    }

    /// Closes every client idle for `idle_timeout` and returns when to
    /// look again: when the next survivor would expire, but no sooner
    /// than [`SWEEP_EVERY`] from now, or `None` when no client is left.
    /// A client still owed a reply is not idle, whatever its age.
    fn close_idle(&mut self, now: Instant, idle_timeout: Duration) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        for idx in 0..self.conns.len() {
            let Some(Some(conn)) = self.conns.get(idx) else { continue };
            let expires = conn.last_active + idle_timeout;
            let owed = conn.dead || !conn.slots.is_empty() || conn.deferred.is_some();
            if expires <= now && !owed {
                let _ = self.io.epoll.delete(conn.stream.as_raw_fd());
                self.conns[idx] = None;
                self.free.push(idx);
            } else {
                next = Some(next.map_or(expires, |t| t.min(expires)));
            }
        }
        next.map(|t| t.max(now + SWEEP_EVERY))
    }

    /// Replies still owed to a live client.
    fn busy(&self) -> bool {
        self.conns.iter().flatten().any(|c| {
            !c.dead && (c.pending_write() > 0 || !c.slots.is_empty() || c.deferred.is_some())
        })
    }

    /// On exit: fail everything still in flight, so the broadcast turn
    /// and the backend cursors stay consistent for whoever uses the
    /// gateway next.
    fn abandon(&mut self, now: Instant) {
        loop {
            for lane in &mut self.io.lanes {
                for tag in lane.fail(&self.io.epoll) {
                    self.io.failed.push((tag, Err("gateway stopped".to_string())));
                }
            }
            if self.io.failed.is_empty() {
                return;
            }
            for (tag, result) in std::mem::take(&mut self.io.failed) {
                self.settle(tag, result, now);
            }
        }
    }
}

impl Io<'_> {
    /// How long `epoll_wait` may sleep: until the nearest lane deadline
    /// or `wake_at` entry (forever without one), at once with failures
    /// queued, and in short slices while draining for shutdown.
    fn wait_ms(&self, now: Instant, draining: bool, wake_at: [Option<Instant>; 2]) -> i32 {
        if !self.failed.is_empty() {
            return 0;
        }
        let cfg = self.gateway.config();
        let lane_deadlines =
            self.lanes.iter().filter_map(|l| l.deadline(cfg.connect_timeout, cfg.io_timeout));
        let mut ms: i32 = -1;
        for d in lane_deadlines.chain(wake_at.into_iter().flatten()) {
            let left = d.saturating_duration_since(now).as_micros().div_ceil(1000);
            let left = i32::try_from(left).unwrap_or(i32::MAX);
            ms = if ms < 0 { left } else { ms.min(left) };
        }
        if draining {
            ms = if ms < 0 { 20 } else { ms.min(20) };
        }
        ms
    }

    /// Fails every lane whose transport broke or whose deadline passed,
    /// queueing its in-flight requests as failed.
    fn fail_lanes(&mut self, now: Instant) {
        let cfg = self.gateway.config();
        for lane in &mut self.lanes {
            let Some(why) = lane.failure(now, cfg.connect_timeout, cfg.io_timeout) else {
                continue;
            };
            for tag in lane.fail(&self.epoll) {
                self.failed.push((tag, Err(why.clone())));
            }
        }
    }

    /// Queues the parts in `self.sends` of the op in `slot` on their
    /// lanes, or holds them for the journal commit: a report's always,
    /// anything else while a report of this batch waits. A part that
    /// cannot be queued fails at the end of the batch. A binary
    /// client's single-answer op is relayed, and a fan-out chunk always
    /// is: its reply comes back as the backend's frame.
    fn dispatch(
        &mut self,
        op: &Op,
        binary: bool,
        conn: usize,
        conn_id: u64,
        slot: u64,
        now: Instant,
    ) {
        let relay = op.relays(binary);
        if op.broadcasts() || !self.held.is_empty() {
            let start = self.held_parts.len();
            self.held_parts.extend_from_slice(&self.sends);
            let parts = start..self.held_parts.len();
            let broadcast = op.broadcasts();
            self.held.push(Held { conn, conn_id, slot, relay, broadcast, parts });
            return;
        }
        for i in 0..self.sends.len() {
            let part = self.sends[i];
            self.send(op, Tag { conn, conn_id, slot, part, relay }, now);
        }
    }

    /// Queues one part of `op` on its lane; a part that cannot be
    /// queued fails at the end of the batch.
    fn send(&mut self, op: &Op, tag: Tag, now: Instant) {
        let queued = match self.lanes.get_mut(tag.part.backend) {
            Some(lane) => lane.send(&self.epoll, op.payload(tag.part.part), tag, now),
            None => Err("no lane to that backend".to_string()),
        };
        if let Err(why) = queued {
            self.failed.push((tag, Err(why)));
        }
    }

    /// Folds one backend outcome into its op: a reply fills the slot,
    /// anything else goes out on the lanes.
    fn settle(&mut self, conn: &mut Conn, tag: Tag, result: Result<Answer, String>, now: Instant) {
        let binary = matches!(conn.mode, Mode::Binary);
        let Some(slot) = conn.slot_mut(tag.slot) else { return };
        let Slot::Waiting(op) = slot else { return };
        self.sends.clear();
        match self.gateway.settle(op, tag.part, result, &mut self.sends) {
            Some(answer) => *slot = Slot::Ready(answer),
            // Still waiting on other parts, with nothing new to send.
            None if self.sends.is_empty() => {}
            None => self.dispatch(op, binary, tag.conn, tag.conn_id, tag.slot, now),
        }
    }

    /// Routes one request of `conn` into a new reply slot.
    fn route(&mut self, conn: &mut Conn, idx: usize, payload: Payload, now: Instant) -> Flow {
        self.sends.clear();
        match self.gateway.plan(payload, &self.who, &mut self.sends) {
            Planned::Reply(resp, stop) => {
                conn.push(Slot::Ready(resp.into()));
                if !stop {
                    return Flow::Go;
                }
                conn.closing = true;
                self.stop.store(true, Ordering::Release);
                for w in self.wakers {
                    w.wake();
                }
                Flow::Stop
            }
            Planned::Routed(op) => {
                let seq = conn.push(Slot::Waiting(op));
                let binary = matches!(conn.mode, Mode::Binary);
                if let Some(Slot::Waiting(op)) = conn.slots.back() {
                    self.dispatch(op, binary, idx, conn.id, seq, now);
                }
                Flow::Go
            }
            Planned::Deferred(payload) => {
                conn.deferred = Some(payload);
                self.deferred.push_back((idx, conn.id));
                Flow::Pause
            }
        }
    }

    /// Sniffs the codec if needed, then routes every complete request
    /// in `rbuf` the connection may take now.
    fn route_all(&mut self, conn: &mut Conn, idx: usize, now: Instant) {
        if !conn.can_route() {
            return;
        }
        if matches!(conn.mode, Mode::Sniff) && !conn.rbuf.is_empty() {
            if conn.rbuf[0] == binproto::MAGIC {
                if conn.rbuf.len() < binproto::PREAMBLE.len() {
                    return; // partial preamble: wait for more bytes
                }
                if conn.rbuf[..4] == binproto::PREAMBLE {
                    conn.rbuf.drain(..4);
                    conn.mode = Mode::Binary;
                } else {
                    conn.push(Slot::Ready(
                        Response::error("bad preamble: expected BD 50 44 01").into(),
                    ));
                    conn.closing = true;
                    conn.rbuf.clear();
                    return;
                }
            } else {
                conn.mode = Mode::Json;
            }
        }
        match conn.mode {
            Mode::Sniff => {}
            Mode::Json => self.route_json(conn, idx, now),
            Mode::Binary => self.route_binary(conn, idx, now),
        }
    }

    /// JSON mode: route every complete line in `rbuf`.
    fn route_json(&mut self, conn: &mut Conn, idx: usize, now: Instant) {
        let max = self.cfg.max_line_bytes;
        let mut consumed = 0;
        let mut flow = Flow::Go;
        while conn.can_route() {
            let Some(nl) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') else { break };
            let line_end = consumed + nl;
            let line = &conn.rbuf[consumed..line_end];
            consumed = line_end + 1;
            if conn.json_discard {
                conn.json_discard = false;
                continue;
            }
            let parsed = if line.len() > max {
                Err(format!("request line exceeds {max} bytes"))
            } else {
                match std::str::from_utf8(line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => parse_json(text.trim()),
                    Err(_) => Err("request line is not valid UTF-8".to_string()),
                }
            };
            match parsed {
                Ok(req) => {
                    flow = self.route(conn, idx, Payload::Request(req), now);
                    if flow != Flow::Go {
                        break;
                    }
                }
                Err(message) => {
                    conn.push(Slot::Ready(Response::error(message).into()));
                }
            }
        }
        conn.rbuf.drain(..consumed);
        if flow == Flow::Stop || conn.json_discard {
            conn.rbuf.clear();
        } else if conn.rbuf.len() > max && !conn.rbuf.contains(&b'\n') {
            conn.push(Slot::Ready(
                Response::error(format!("request line exceeds {max} bytes")).into(),
            ));
            conn.rbuf.clear();
            conn.json_discard = true;
        }
    }

    /// Binary mode: route every complete frame in `rbuf`. A
    /// `load_report`, `predict`, `decide_batch` or `rank` frame that
    /// passes [`binproto::check_request`] is routed by its machine as
    /// bytes; every other frame is decoded, and one that fails is
    /// answered `bad frame` here.
    fn route_binary(&mut self, conn: &mut Conn, idx: usize, now: Instant) {
        let max = self.cfg.max_frame_bytes;
        let mut consumed = 0;
        let mut flow = Flow::Go;
        while conn.can_route() {
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
            let Some(len4) = rest.first_chunk::<4>() else { break };
            let len = usize::try_from(u32::from_le_bytes(*len4)).unwrap_or(usize::MAX);
            if len == 0 {
                consumed += 4;
                conn.push(Slot::Ready(Response::error("bad frame: empty frame").into()));
                continue;
            }
            if len > max {
                consumed += 4;
                conn.bin_discard = len;
                conn.push(Slot::Ready(
                    Response::error(format!("frame exceeds {max} bytes")).into(),
                ));
                continue;
            }
            let Some(frame) = rest.get(..4 + len) else { break }; // partial frame
            let body = &frame[4..];
            let parsed = match body[0] {
                binproto::REQ_LOAD_REPORT
                | binproto::REQ_PREDICT
                | binproto::REQ_DECIDE_BATCH
                | binproto::REQ_RANK
                    if binproto::check_request(body) =>
                {
                    Ok(Payload::Frame(frame.to_vec()))
                }
                _ => binproto::decode_request(body).map(Payload::Request),
            };
            consumed += frame.len();
            match parsed {
                Ok(payload) => {
                    flow = self.route(conn, idx, payload, now);
                    if flow != Flow::Go {
                        break;
                    }
                }
                Err(e) => {
                    conn.push(Slot::Ready(Response::error(format!("bad frame: {e}")).into()));
                }
            }
        }
        conn.rbuf.drain(..consumed);
        if flow == Flow::Stop {
            conn.rbuf.clear();
        }
    }
}

/// Queues a connection for the end-of-batch flush, once per batch.
fn mark_dirty(dirty: &mut Vec<usize>, conn: &mut Conn, idx: usize) {
    if !conn.dirty {
        conn.dirty = true;
        dirty.push(idx);
    }
}

/// Parses one JSON request line: the fast path, then serde.
fn parse_json(text: &str) -> Result<Request, String> {
    match proto::codec::parse_request(text) {
        Some(req) => Ok(req),
        None => serde_json::from_str(text).map_err(|e| format!("bad request: {e}")),
    }
}

/// Drains the socket into the read buffer. Returns false when the
/// connection is dead.
fn read_client(conn: &mut Conn, scratch: &mut [u8]) -> bool {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.closing = true;
                return true;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                if n < scratch.len() {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Moves the finished replies at the front of the slot queue into the
/// write buffer, in the connection's codec: a relayed frame as is,
/// anything else encoded.
fn write_ready(conn: &mut Conn, json: &mut String) {
    while matches!(conn.slots.front(), Some(Slot::Ready(_))) {
        let Some(Slot::Ready(answer)) = conn.slots.pop_front() else { break };
        conn.first_slot += 1;
        let resp = match (&conn.mode, answer) {
            (Mode::Binary, Answer::Frame(frame)) => {
                conn.wbuf.extend_from_slice(&frame);
                continue;
            }
            (_, answer) => answer.into_response(),
        };
        match conn.mode {
            Mode::Json => {
                json.clear();
                if !proto::codec::write_response(&resp, json) {
                    serde_json::to_string_into(&resp, json);
                }
                json.push('\n');
                conn.wbuf.extend_from_slice(json.as_bytes());
            }
            // A bad preamble is answered before any codec is chosen:
            // in binary, since the client opened with the magic byte.
            Mode::Binary | Mode::Sniff => {
                if !binproto::encode_response(&resp, &mut conn.wbuf) {
                    let fallback = Response::error("response exceeds binary frame limits");
                    let _ = binproto::encode_response(&fallback, &mut conn.wbuf);
                }
            }
        }
    }
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
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    true
}

/// Re-registers the connection's epoll interest to match its state.
fn refresh_interest(epoll: &Epoll, conn: &mut Conn, token: u64) {
    let mut want = 0;
    if conn.wants_read() {
        want |= EPOLLIN | EPOLLRDHUP;
    }
    if conn.pending_write() > 0 {
        want |= EPOLLOUT;
    }
    if want != conn.interest && epoll.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
        conn.interest = want;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatewayConfig;
    use std::io::BufRead;

    /// A client that stops mid-line sees EOF once the idle timeout
    /// passes, while a client that keeps talking on the same loop stays
    /// served. `stats` is answered by the gateway itself, so the
    /// backend address is never dialed.
    #[test]
    fn idle_connection_is_closed_and_a_busy_one_is_not() {
        let mut server =
            GatewayServer::bind("127.0.0.1:0".parse().expect("loopback"), 1).expect("bind");
        server.idle_timeout = Duration::from_millis(200);
        let addr = server.local_addr();
        // Leaked and detached, so a failed assertion cannot hang the test.
        let gateway: &'static Gateway = Box::leak(Box::new(
            Gateway::new(GatewayConfig {
                backends: vec!["127.0.0.1:9".to_string()],
                ..GatewayConfig::default()
            })
            .expect("gateway"),
        ));
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let loops = std::thread::spawn(move || server.run(gateway, &ServerConfig::default(), stop));

        let started = Instant::now();
        let mut stuck = TcpStream::connect(addr).expect("stuck client");
        stuck.write_all(b"{\"kind\":\"sta").expect("half a line");
        stuck.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
        let mut live = io::BufReader::new(TcpStream::connect(addr).expect("busy client"));
        let mut closed_after = None;
        // Keep the busy client talking until past the sweep after the close.
        while started.elapsed() < SWEEP_EVERY + Duration::from_millis(500) {
            if closed_after.is_none() && matches!(stuck.read(&mut [0u8; 64]), Ok(0)) {
                closed_after = Some(started.elapsed());
            }
            live.get_mut().write_all(b"{\"kind\":\"stats\"}\n").expect("stats request");
            let mut reply = String::new();
            live.read_line(&mut reply).expect("stats reply");
            assert!(reply.contains("\"kind\":\"gw_stats\""), "{reply:?}");
        }
        let waited = closed_after.expect("the stuck client must see EOF");
        assert!(waited >= Duration::from_millis(200), "closed before the timeout: {waited:?}");

        live.get_mut().write_all(b"{\"kind\":\"shutdown\"}\n").expect("shutdown");
        loops.join().expect("event loop").expect("clean exit");
    }
}
