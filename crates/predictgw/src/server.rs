//! The gateway's transport: predictd's client edge ([`predictd::edge`]:
//! listeners, accept, framing, buffered I/O, idle close) plus what the
//! gateway does with a request. The same event loop drives the backends
//! without blocking.
//!
//! ## Lanes
//!
//! Each worker owns one nonblocking binary connection per backend (a
//! [`Lane`]), registered in the same epoll set as its clients. The loop
//! hands every complete request in a client's inbox to the gateway's
//! routing step ([`Gateway::plan`]), queues the backend sub-requests it
//! names on the lanes, and flushes every lane's outbox once per event
//! batch: a burst of pipelined client requests becomes one write per
//! backend, so batching comes from the load, not from a knob. Replies
//! are matched to requests in FIFO order per lane and folded back with
//! [`Gateway::settle`].
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
//! Codecs end at the client edge; past it every request and reply is a
//! frame. A binary client's frame is vouched for with
//! [`binproto::check_request`] and handed to the routing step as is —
//! the journal and the lanes copy it out, and a batch that fans out is
//! cut into chunk frames. One that fails the check is decoded only to
//! word its `bad frame: …` reply, given here without reaching the
//! journal or a backend. A JSON client's line is parsed
//! ([`codec::parse_line`]) and encoded once into the frame it is routed
//! as. Every reply — a backend's, the merged chunk replies, or one the
//! gateway made itself — fills its slot as a frame, which is copied
//! into a binary client's write buffer, or decoded once and written as
//! a line ([`codec::write_line`]) for a JSON client.
//!
//! ## Reply slots
//!
//! Each client connection keeps an ordered queue of reply slots, one
//! per request; the edge's own refusals (an over-long line, a bad
//! frame) take a slot too. A slot fills when its routing finishes;
//! replies leave from the front only, so they go out in request order
//! whatever order the backends answer in. The queue is bounded like
//! the write buffer: at `MAX_SLOTS` pending replies the connection
//! stops routing and reading until it drains.
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
//! the worker. The edge's idle sweep never closes a client the gateway
//! still owes a reply.
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
use std::io;
use std::net::{SocketAddr, SocketAddrV4, TcpListener, ToSocketAddrs};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use predictd::edge::{
    conn_index, conn_token, Codec, Edge, Input, Link, Listeners, IDLE_TIMEOUT, MAX_EVENTS,
    SCRATCH_BYTES, TOKEN_LISTENER, TOKEN_WAKER,
};
use predictd::poll::{Epoll, EpollEvent, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP};
use predictd::ServerConfig;
use proto::{binproto, codec};

use crate::gateway::{
    decode_reply, error_frame, request_frame, Broadcaster, Gateway, Op, Part, Planned, NO_RECIPIENT,
};
use crate::lane::{Lane, Reply, Tag};

/// Stop routing (and reading) a connection's requests while this many
/// of its replies are pending; resume as they leave.
const MAX_SLOTS: usize = 1024;

/// Backend lane tokens sit above every connection token.
const TOKEN_LANES: u64 = 1 << 48;

/// One reply, in request order.
enum Slot {
    /// Routed; backend parts still in flight.
    Waiting(Op),
    /// Answered with this reply frame, waiting for the slots before it.
    Ready(Vec<u8>),
}

/// One client connection: its edge transport plus reply slots.
struct Conn {
    /// Worker-unique id, so a late backend reply can never land in a
    /// reused slab slot.
    id: u64,
    link: Link,
    slots: VecDeque<Slot>,
    /// Sequence number of `slots.front()`.
    first_slot: u64,
    /// A `load_report` frame waiting for the broadcast turn; routing
    /// and reading pause behind it.
    deferred: Option<Vec<u8>>,
    /// The socket failed: no more I/O. Kept only until its in-flight
    /// routing settles, so backend replies always find their slot.
    dead: bool,
    /// Queued for the end-of-batch flush.
    dirty: bool,
}

impl AsRef<Link> for Conn {
    fn as_ref(&self) -> &Link {
        &self.link
    }
}

impl Conn {
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

    /// May this connection route (and read) more requests now?
    fn can_route(&self) -> bool {
        !self.dead && self.deferred.is_none() && self.slots.len() < MAX_SLOTS
    }

    /// Does the gateway still owe this connection a reply?
    fn owed(&self) -> bool {
        self.dead || !self.slots.is_empty() || self.deferred.is_some()
    }

    /// Stops all I/O on a failed socket; in-flight routing still settles.
    fn kill(&mut self, epoll: &Epoll) {
        if !self.dead {
            self.dead = true;
            let _ = epoll.delete(self.link.as_raw_fd());
            self.deferred = None;
        }
    }
}

/// A bound-but-not-yet-running gateway server: bind first (so the
/// caller learns the port), then [`GatewayServer::run`] until a
/// `shutdown` request arrives.
pub struct GatewayServer {
    listeners: Listeners,
    /// [`IDLE_TIMEOUT`]; unit tests shorten it.
    idle_timeout: Duration,
}

impl GatewayServer {
    /// Binds `workers` `SO_REUSEPORT` listeners (clamped to ≥ 1) on
    /// `addr` — IPv4 only, like predictd.
    pub fn bind(addr: SocketAddr, workers: usize) -> io::Result<Self> {
        Ok(GatewayServer { listeners: Listeners::bind(addr, workers)?, idle_timeout: IDLE_TIMEOUT })
    }

    /// The address the listeners are bound to (port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.listeners.local_addr()
    }

    /// Runs one event loop per listener until a `shutdown` request is
    /// handled on any of them; `stop` is also honored (and set), so the
    /// caller can wind down the health checker with the same flag.
    /// Backend addresses are resolved once, here; lanes connect over
    /// IPv4, so a backend with no IPv4 address fails every request sent
    /// to it (and its traffic fails over).
    pub fn run(self, gateway: &Gateway, cfg: &ServerConfig, stop: &AtomicBool) -> io::Result<()> {
        let addrs: Vec<Option<SocketAddrV4>> =
            gateway.config().backends.iter().map(|a| resolve_v4(a)).collect();
        let idle = self.idle_timeout;
        self.listeners.run_loops(|i, listener, wakers| {
            event_loop(listener, i, gateway, cfg, idle, stop, wakers, &addrs)
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

/// One op's sends held back until the batch's journal commit.
struct Held {
    conn: usize,
    conn_id: u64,
    slot: u64,
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
    epoll: &'a Epoll,
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

/// One worker: its client edge plus its [`Io`].
struct Worker<'a> {
    edge: Edge<'a, Conn>,
    next_id: u64,
    /// Connections to flush at the end of the batch.
    dirty: Vec<usize>,
    io: Io<'a>,
}

/// One worker's loop: accept, frame, route through its own backend
/// lanes, write — client and backend I/O nonblocking and
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
    let epoll = Epoll::new()?;
    let waker = wakers.get(me).ok_or_else(|| io::Error::other("worker has no waker"))?;
    let lanes = addrs.iter().zip(TOKEN_LANES..).map(|(&a, token)| Lane::new(a, token)).collect();
    let mut w = Worker {
        edge: Edge::new(&epoll, listener, waker, idle_timeout)?,
        next_id: 0,
        dirty: Vec::new(),
        io: Io {
            gateway,
            cfg,
            stop,
            wakers,
            epoll: &epoll,
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
    loop {
        let now = Instant::now();
        // A live client is owed its pending bytes and unanswered slots.
        let owes = |c: &Conn| !c.dead && (c.link.pending_write() > 0 || c.owed());
        if stop.load(Ordering::Acquire) && w.edge.drained(now, owes) {
            w.abandon(now);
            return Ok(());
        }
        // Failures already queued are settled at once; otherwise sleep
        // until the nearest lane deadline.
        let timeout = if w.io.failed.is_empty() {
            let cfg = gateway.config();
            let lanes =
                w.io.lanes.iter().filter_map(|l| l.deadline(cfg.connect_timeout, cfg.io_timeout));
            w.edge.wait_timeout(now, lanes)
        } else {
            0
        };
        let n = epoll.wait(&mut events, timeout)?;
        let now = Instant::now();
        for ev in events.iter().take(n) {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => {
                    let next_id = &mut w.next_id;
                    w.edge.accept_clients(now, |link| {
                        let id = *next_id;
                        *next_id += 1;
                        Conn {
                            id,
                            link,
                            slots: VecDeque::new(),
                            first_slot: 0,
                            deferred: None,
                            dead: false,
                            dirty: false,
                        }
                    });
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
        w.edge.tend(now, Conn::owed);
    }
}

impl Worker<'_> {
    /// Client readiness: read what the connection may take and route
    /// every complete request; writes wait for the end of the batch.
    fn on_client(&mut self, token: u64, bits: u32, scratch: &mut [u8], now: Instant) {
        let idx = conn_index(token);
        let Some(conn) = self.edge.conn_mut(idx) else { return };
        if conn.dead {
            return;
        }
        let mut dead = bits & (EPOLLERR | EPOLLHUP) != 0;
        if !dead && bits & (EPOLLIN | EPOLLRDHUP) != 0 && conn.can_route() {
            dead = !conn.link.read_in(scratch);
        }
        if dead {
            conn.kill(self.io.epoll);
        } else {
            self.io.route_all(conn, idx, now);
        }
        mark_dirty(&mut self.dirty, conn, idx);
    }

    /// Folds one backend outcome into the op it belongs to.
    fn settle(&mut self, tag: Tag, result: Result<Vec<u8>, String>, now: Instant) {
        let Some(conn) = self.edge.conn_mut(tag.conn) else { return };
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
            let Some(conn) = self.edge.conn_mut(idx) else { continue };
            if conn.id != id {
                continue;
            }
            let Some(frame) = conn.deferred.take() else { continue };
            self.io.route(conn, idx, frame, now);
            let paused = conn.deferred.is_some();
            self.io.route_all(conn, idx, now);
            mark_dirty(&mut self.dirty, conn, idx);
            if paused {
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
                lane.flush(self.io.epoll);
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
                _ if parts.is_empty() => Some(error_frame(NO_RECIPIENT)),
                _ => None,
            };
            // A waiting slot keeps its connection, so both are found.
            let Some(conn) = self.edge.conn_mut(h.conn) else { continue };
            if conn.id != h.conn_id {
                continue;
            }
            let Some(slot) = conn.slot_mut(h.slot) else { continue };
            match answer {
                Some(reply) => {
                    *slot = Slot::Ready(reply);
                    mark_dirty(&mut self.dirty, conn, h.conn);
                }
                None => {
                    if let Slot::Waiting(op) = slot {
                        for &part in parts {
                            let tag = Tag { conn: h.conn, conn_id: h.conn_id, slot: h.slot, part };
                            self.io.send(op, tag, now);
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
        let Some(conn) = self.edge.conn_mut(idx) else { return };
        conn.dirty = false;
        if !conn.dead {
            conn.link.last_active = now;
            // Free the finished replies' slots before routing into them:
            // a client whose backlog already sits whole in its inbox gets
            // no read event to resume its routing later.
            write_ready(conn, &mut self.io.json);
            self.io.route_all(conn, idx, now);
            write_ready(conn, &mut self.io.json);
            if !conn.link.write_out() {
                conn.kill(self.io.epoll);
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
                self.edge.remove(idx);
            }
        } else if conn.link.closing && conn.link.pending_write() == 0 && !conn.owed() {
            self.edge.close(idx);
        } else {
            let may_read = conn.can_route();
            conn.link.rearm(self.io.epoll, conn_token(idx), may_read);
        }
    }

    /// On exit: fail everything still in flight, so the broadcast turn
    /// and the backend cursors stay consistent for whoever uses the
    /// gateway next.
    fn abandon(&mut self, now: Instant) {
        loop {
            for lane in &mut self.io.lanes {
                for tag in lane.fail(self.io.epoll) {
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
    /// Fails every lane whose transport broke or whose deadline passed,
    /// queueing its in-flight requests as failed.
    fn fail_lanes(&mut self, now: Instant) {
        let cfg = self.gateway.config();
        for lane in &mut self.lanes {
            let Some(why) = lane.failure(now, cfg.connect_timeout, cfg.io_timeout) else {
                continue;
            };
            for tag in lane.fail(self.epoll) {
                self.failed.push((tag, Err(why.clone())));
            }
        }
    }

    /// Queues the parts in `self.sends` of the op in `slot` on their
    /// lanes, or holds them for the journal commit: a report's always,
    /// anything else while a report of this batch waits. A part that
    /// cannot be queued fails at the end of the batch.
    fn dispatch(&mut self, op: &Op, conn: usize, conn_id: u64, slot: u64, now: Instant) {
        if op.broadcasts() || !self.held.is_empty() {
            let start = self.held_parts.len();
            self.held_parts.extend_from_slice(&self.sends);
            let parts = start..self.held_parts.len();
            let broadcast = op.broadcasts();
            self.held.push(Held { conn, conn_id, slot, broadcast, parts });
            return;
        }
        for i in 0..self.sends.len() {
            let part = self.sends[i];
            self.send(op, Tag { conn, conn_id, slot, part }, now);
        }
    }

    /// Queues one part of `op` on its lane; a part that cannot be
    /// queued fails at the end of the batch.
    fn send(&mut self, op: &Op, tag: Tag, now: Instant) {
        let queued = match self.lanes.get_mut(tag.part.backend) {
            Some(lane) => lane.send(self.epoll, op.frame(tag.part.part), tag, now),
            None => Err("no lane to that backend".to_string()),
        };
        if let Err(why) = queued {
            self.failed.push((tag, Err(why)));
        }
    }

    /// Folds one backend outcome into its op: a reply fills the slot,
    /// anything else goes out on the lanes.
    fn settle(&mut self, conn: &mut Conn, tag: Tag, result: Result<Vec<u8>, String>, now: Instant) {
        let Some(slot) = conn.slot_mut(tag.slot) else { return };
        let Slot::Waiting(op) = slot else { return };
        self.sends.clear();
        match self.gateway.settle(op, tag.part, result, &mut self.sends) {
            Some(reply) => *slot = Slot::Ready(reply),
            // Still waiting on other parts, with nothing new to send.
            None if self.sends.is_empty() => {}
            None => self.dispatch(op, tag.conn, tag.conn_id, tag.slot, now),
        }
    }

    /// Routes one request frame of `conn` into a new reply slot. A
    /// deferred report pauses the connection; a shutdown drops whatever
    /// the client sent after it.
    fn route(&mut self, conn: &mut Conn, idx: usize, frame: Vec<u8>, now: Instant) {
        self.sends.clear();
        match self.gateway.plan(frame, &self.who, &mut self.sends) {
            Planned::Reply(reply, stop) => {
                conn.push(Slot::Ready(reply));
                if stop {
                    conn.link.closing = true;
                    conn.link.inbox.clear();
                    self.stop.store(true, Ordering::Release);
                    for w in self.wakers {
                        w.wake();
                    }
                }
            }
            Planned::Routed(op) => {
                let seq = conn.push(Slot::Waiting(op));
                if let Some(Slot::Waiting(op)) = conn.slots.back() {
                    self.dispatch(op, idx, conn.id, seq, now);
                }
            }
            Planned::Deferred(frame) => {
                conn.deferred = Some(frame);
                self.deferred.push_back((idx, conn.id));
            }
        }
    }

    /// Routes every complete request in the connection's inbox while it
    /// may route: a binary frame that passes [`binproto::check_request`]
    /// as its bytes, a JSON line encoded once into a frame. Anything the
    /// edge refused, and a frame that fails the check (decoded only to
    /// word its `bad frame: …`), is answered here.
    fn route_all(&mut self, conn: &mut Conn, idx: usize, now: Instant) {
        while conn.can_route() {
            let Some(input) = conn.link.inbox.next_request(self.cfg) else { return };
            let frame = match input {
                Input::Line(text) => codec::parse_line(text).and_then(|req| request_frame(&req)),
                Input::Frame(frame) if binproto::check_request(&frame[4..]) => Ok(frame.to_vec()),
                Input::Frame(frame) => {
                    let why = binproto::decode_request(&frame[4..]).err().map(|e| e.message);
                    Err(format!("bad frame: {}", why.unwrap_or_default()))
                }
                Input::Refused(why) => Err(why),
                Input::Rejected(why) => {
                    conn.link.closing = true;
                    Err(why.to_string())
                }
            };
            match frame {
                Ok(frame) => self.route(conn, idx, frame, now),
                Err(why) => {
                    conn.push(Slot::Ready(error_frame(why)));
                }
            }
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

/// Moves the finished reply frames at the front of the slot queue into
/// the write buffer, in the connection's codec: as is for a binary
/// client, decoded and written as a line for a JSON one.
fn write_ready(conn: &mut Conn, json: &mut String) {
    while matches!(conn.slots.front(), Some(Slot::Ready(_))) {
        let Some(Slot::Ready(frame)) = conn.slots.pop_front() else { break };
        conn.first_slot += 1;
        if conn.link.inbox.codec() == Codec::Json {
            json.clear();
            codec::write_line(&decode_reply(&frame), json);
            conn.link.wbuf.extend_from_slice(json.as_bytes());
        } else {
            conn.link.wbuf.extend_from_slice(&frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GatewayConfig;
    use predictd::edge::SWEEP_EVERY;
    use std::io::{BufRead, Read, Write};
    use std::net::TcpStream;

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
