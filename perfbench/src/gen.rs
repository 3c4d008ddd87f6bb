//! The load generator: one thread, nonblocking sockets, busy polling.
//!
//! A single thread drives every connection, so the generator adds one busy
//! core to the host and nothing else. Each loop pass reads the clock once,
//! issues whatever the [`Mode`] allows, pushes pending bytes, and parses
//! every complete reply. Replies come back in request order on each
//! connection (the daemons answer a connection's requests in order), so a
//! FIFO of pending requests pairs them without any correlation id.
//!
//! **Closed loop** ([`Mode::Closed`]) keeps a window of requests in flight
//! per connection: a slow server receives less load. **Open loop**
//! ([`Mode::Paced`]) sends request `k` at `start + k / rate`, round-robin
//! over the connections, whether or not earlier replies came back. Latency
//! is measured from that *intended* send time, so a stall is charged to
//! every request that was due during it rather than only to the one that
//! hit it (coordinated omission). How late the generator itself ran is
//! recorded apart, as lag: the time a request was issued minus its
//! intended time.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use proto::binproto;

/// Largest reply frame accepted; anything larger is a broken stream.
const MAX_REPLY_BYTES: usize = 16 << 20;

/// Client spans kept per [`Tally`]; past this the newest overwrite the
/// oldest, so a long closed-loop stretch costs the same per request
/// without growing memory.
const SPAN_CAP: usize = 1 << 20;

/// Which wire codec a workload speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Length-prefixed binary frames, negotiated by preamble.
    Binary,
    /// Newline-delimited JSON.
    Json,
}

/// The request kinds the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `load_report`
    LoadReport,
    /// `predict`
    Predict,
    /// `decide_batch`
    DecideBatch,
    /// `rank`
    Rank,
}

impl Kind {
    /// Every kind, in wire-table order.
    pub const ALL: [Kind; 4] = [Kind::LoadReport, Kind::Predict, Kind::DecideBatch, Kind::Rank];

    /// The wire name of the request kind.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LoadReport => "load_report",
            Kind::Predict => "predict",
            Kind::DecideBatch => "decide_batch",
            Kind::Rank => "rank",
        }
    }

    /// The binary tag of a successful reply.
    fn reply_tag(self) -> u8 {
        match self {
            Kind::LoadReport => binproto::RESP_ACK,
            Kind::Predict => binproto::RESP_PREDICTION,
            Kind::DecideBatch => binproto::RESP_DECISIONS,
            Kind::Rank => binproto::RESP_RANKED,
        }
    }

    /// How a successful JSON reply line starts.
    fn reply_prefix(self) -> &'static [u8] {
        match self {
            Kind::LoadReport => b"{\"kind\":\"ack\"",
            Kind::Predict => b"{\"kind\":\"prediction\"",
            Kind::DecideBatch => b"{\"kind\":\"decisions\"",
            Kind::Rank => b"{\"kind\":\"ranked\"",
        }
    }
}

/// A stream of rendered requests.
pub trait Source {
    /// Appends the next request for connection `conn` to `out`, fully
    /// encoded for the wire, and returns its kind; `None` when the stream
    /// has nothing more for that connection.
    fn next(&mut self, conn: usize, out: &mut Vec<u8>) -> Option<Kind>;
}

/// How requests are issued.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Open loop at a fixed total rate (requests per second), round-robin
    /// over the connections.
    Paced {
        /// Requests per second over all connections.
        rate: f64,
    },
    /// Closed loop: keep `window` requests in flight per connection.
    Closed {
        /// In-flight requests per connection.
        window: usize,
    },
}

/// What to keep per completed request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Record {
    /// Keep the latency of every request, and the lag of paced ones.
    pub latency: bool,
    /// Keep a [`ClientSpan`] per request.
    pub spans: bool,
}

/// One request as the client saw it. Times are nanoseconds since the
/// generator was created.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    /// Request id, unique per generator.
    pub id: u64,
    /// Request kind.
    pub kind: Kind,
    /// When the request was due (equal to `sent_ns` in a closed loop).
    pub due_ns: u64,
    /// When the generator issued it.
    pub sent_ns: u64,
    /// When its reply was parsed.
    pub done_ns: u64,
}

/// Counts and samples of one stretch of traffic.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests issued.
    pub sent: u64,
    /// Replies received, of any kind.
    pub completed: u64,
    /// Replies of kind `error`.
    pub error_replies: u64,
    /// Replies of the wrong kind for their request.
    pub wrong_kind: u64,
    /// Requests lost to a transport failure or still unanswered when a
    /// drain timed out.
    pub lost: u64,
    /// Request bytes issued.
    pub req_bytes: u64,
    /// Reply bytes received.
    pub resp_bytes: u64,
    /// Per-request latency from the intended send time, nanoseconds (when
    /// [`Record::latency`] is on).
    pub latency_ns: Vec<u64>,
    /// Per-request generator lag of paced requests, nanoseconds.
    pub lag_ns: Vec<u64>,
    /// Client spans (when [`Record::spans`] is on).
    pub spans: Vec<ClientSpan>,
    /// Wall time of the stretch.
    pub elapsed: Duration,
}

impl Tally {
    /// Requests that failed: error replies, wrong replies, and lost ones.
    pub fn failed(&self) -> u64 {
        self.error_replies + self.wrong_kind + self.lost
    }

    /// Folds `other` into `self` (samples appended, elapsed summed).
    pub fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.error_replies += other.error_replies;
        self.wrong_kind += other.wrong_kind;
        self.lost += other.lost;
        self.req_bytes += other.req_bytes;
        self.resp_bytes += other.resp_bytes;
        self.latency_ns.extend(other.latency_ns);
        self.lag_ns.extend(other.lag_ns);
        self.spans.extend(other.spans);
        self.elapsed += other.elapsed;
    }
}

struct Pending {
    id: u64,
    kind: Kind,
    due_ns: u64,
    sent_ns: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_pos: usize,
    pending: VecDeque<Pending>,
    /// A transport or framing failure ended the connection.
    dead: bool,
    /// The current source has nothing more for this connection.
    exhausted: bool,
}

/// The generator: a fixed set of connections to one address.
pub struct Generator {
    conns: Vec<Conn>,
    codec: Codec,
    epoch: Instant,
    next_id: u64,
    scratch: Vec<u8>,
}

impl Generator {
    /// Opens `conns` connections to `addr` speaking `codec`.
    pub fn connect(addr: SocketAddr, conns: usize, codec: Codec) -> io::Result<Self> {
        let mut out = Vec::with_capacity(conns);
        for _ in 0..conns {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            if codec == Codec::Binary {
                stream.write_all(&binproto::PREAMBLE)?;
            }
            stream.set_nonblocking(true)?;
            out.push(Conn {
                stream,
                out: Vec::with_capacity(64 << 10),
                out_pos: 0,
                inbuf: Vec::with_capacity(64 << 10),
                in_pos: 0,
                pending: VecDeque::with_capacity(1024),
                dead: false,
                exhausted: false,
            });
        }
        Ok(Generator {
            conns: out,
            codec,
            epoch: Instant::now(),
            next_id: 0,
            scratch: vec![0; 64 << 10],
        })
    }

    /// Nanoseconds since the generator was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Requests issued but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Drives `src` in `mode` for `dur`, or, for a finite source, until
    /// it is exhausted and every reply is in. Requests still in flight at
    /// the end stay in flight: the next call (or [`Generator::drain`])
    /// collects them.
    pub fn run_for(
        &mut self,
        src: &mut dyn Source,
        mode: Mode,
        dur: Duration,
        rec: Record,
    ) -> Tally {
        let mut tally = Tally::default();
        let started = Instant::now();
        let start_ns = self.now_ns();
        let end_ns = start_ns.saturating_add(u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX));
        for c in &mut self.conns {
            c.exhausted = false;
        }
        let n = self.conns.len() as u64;
        let mut k = 0u64;
        loop {
            let now = self.now_ns();
            if now >= end_ns {
                break;
            }
            match mode {
                Mode::Paced { rate } => loop {
                    let due = start_ns + (k as f64 * 1e9 / rate) as u64;
                    if due > now {
                        break;
                    }
                    let c = (k % n) as usize;
                    self.issue(c, src, due, now, &mut tally, rec);
                    k += 1;
                },
                Mode::Closed { window } => {
                    for c in 0..self.conns.len() {
                        while self.conns[c].pending.len() < window
                            && !self.conns[c].dead
                            && !self.conns[c].exhausted
                        {
                            self.issue(c, src, now, now, &mut tally, rec);
                        }
                    }
                    let finished =
                        self.conns.iter().all(|c| (c.exhausted || c.dead) && c.pending.is_empty());
                    if finished {
                        break;
                    }
                }
            }
            self.pump(&mut tally, rec);
        }
        tally.elapsed = started.elapsed();
        tally
    }

    /// Waits up to `timeout` for every in-flight reply, folding them into
    /// `tally`. Requests still unanswered then count as lost, and their
    /// connections are closed (a late reply would pair with the wrong
    /// request).
    pub fn drain(&mut self, tally: &mut Tally, timeout: Duration, rec: Record) {
        let deadline = Instant::now() + timeout;
        while self.in_flight() > 0 && Instant::now() < deadline {
            self.pump(tally, rec);
        }
        for c in &mut self.conns {
            if !c.pending.is_empty() {
                tally.lost += c.pending.len() as u64;
                c.pending.clear();
                c.dead = true;
            }
        }
    }

    /// Renders one request from `src` onto connection `c`.
    fn issue(
        &mut self,
        c: usize,
        src: &mut dyn Source,
        due: u64,
        now: u64,
        tally: &mut Tally,
        rec: Record,
    ) {
        let conn = &mut self.conns[c];
        if conn.dead || conn.exhausted {
            return;
        }
        let before = conn.out.len();
        let Some(kind) = src.next(c, &mut conn.out) else {
            conn.exhausted = true;
            return;
        };
        tally.sent += 1;
        tally.req_bytes += (conn.out.len() - before) as u64;
        if rec.latency {
            tally.lag_ns.push(now.saturating_sub(due));
        }
        conn.pending.push_back(Pending { id: self.next_id, kind, due_ns: due, sent_ns: now });
        self.next_id += 1;
    }

    /// One pass of socket I/O: flush pending bytes, read and parse replies.
    fn pump(&mut self, tally: &mut Tally, rec: Record) {
        let codec = self.codec;
        for i in 0..self.conns.len() {
            if self.conns[i].dead {
                continue;
            }
            if !flush(&mut self.conns[i]) {
                kill(&mut self.conns[i], tally);
                continue;
            }
            loop {
                match self.conns[i].stream.read(&mut self.scratch) {
                    Ok(0) => {
                        kill(&mut self.conns[i], tally);
                        break;
                    }
                    Ok(got) => {
                        let done =
                            u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        let conn = &mut self.conns[i];
                        conn.inbuf.extend_from_slice(&self.scratch[..got]);
                        if !parse_replies(conn, codec, done, tally, rec) {
                            kill(conn, tally);
                            break;
                        }
                        if got < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        kill(&mut self.conns[i], tally);
                        break;
                    }
                }
            }
        }
    }
}

/// Pushes pending output into the socket. False when the connection died.
fn flush(conn: &mut Conn) -> bool {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    true
}

/// Marks a connection dead; everything it had in flight is lost.
fn kill(conn: &mut Conn, tally: &mut Tally) {
    conn.dead = true;
    tally.lost += conn.pending.len() as u64;
    conn.pending.clear();
}

/// Parses every complete reply in the connection's input buffer. False on
/// a framing violation or a reply nobody asked for.
fn parse_replies(
    conn: &mut Conn,
    codec: Codec,
    done_ns: u64,
    tally: &mut Tally,
    rec: Record,
) -> bool {
    loop {
        let avail = &conn.inbuf[conn.in_pos..];
        let (len, ok, error) = match codec {
            Codec::Binary => {
                if avail.len() < 4 {
                    break;
                }
                let body = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
                if body == 0 || body > MAX_REPLY_BYTES {
                    return false;
                }
                if avail.len() < 4 + body {
                    break;
                }
                let tag = avail[4];
                let Some(p) = conn.pending.front() else { return false };
                (4 + body, tag == p.kind.reply_tag(), tag == binproto::RESP_ERROR)
            }
            Codec::Json => {
                let Some(nl) = avail.iter().position(|&b| b == b'\n') else { break };
                let line = &avail[..nl];
                let Some(p) = conn.pending.front() else { return false };
                (
                    nl + 1,
                    line.starts_with(p.kind.reply_prefix()),
                    line.starts_with(b"{\"kind\":\"error\""),
                )
            }
        };
        conn.in_pos += len;
        let Some(p) = conn.pending.pop_front() else { return false };
        tally.completed += 1;
        tally.resp_bytes += len as u64;
        if error {
            tally.error_replies += 1;
        } else if !ok {
            tally.wrong_kind += 1;
        }
        if rec.latency {
            tally.latency_ns.push(done_ns.saturating_sub(p.due_ns));
        }
        if rec.spans {
            let span = ClientSpan {
                id: p.id,
                kind: p.kind,
                due_ns: p.due_ns,
                sent_ns: p.sent_ns,
                done_ns,
            };
            if tally.spans.len() < SPAN_CAP {
                tally.spans.push(span);
            } else {
                tally.spans[tally.completed as usize % SPAN_CAP] = span;
            }
        }
    }
    if conn.in_pos == conn.inbuf.len() {
        conn.inbuf.clear();
        conn.in_pos = 0;
    } else if conn.in_pos > (64 << 10) {
        conn.inbuf.drain(..conn.in_pos);
        conn.in_pos = 0;
    }
    true
}
