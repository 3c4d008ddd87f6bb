//! A worker's nonblocking, pipelined binary connection to one backend —
//! a *lane*.
//!
//! A lane never blocks: it connects with a nonblocking `connect`
//! (finished on `EPOLLOUT`, checked with `SO_ERROR`), queues requests
//! in an outbox the event loop flushes once per event batch, and keeps
//! a FIFO of the requests in flight. predictd answers each connection's
//! requests in order, so the oldest in-flight entry owns the next reply
//! frame — no correlation id on the wire.
//!
//! **Relay.** A lane carries frames and never touches a codec. A
//! request frame — a client's, one the gateway encoded from a JSON
//! request, or a `decide_batch` chunk cut from one — is copied into the
//! outbox as is. Every reply is vouched for with
//! [`binproto::check_response`] and handed back as its frame bytes; one
//! that fails the check breaks the lane, and is decoded only to word
//! its `bad reply: …` error.
//!
//! A lane *breaks* when its transport fails (connect error, reset, EOF,
//! a malformed or unsolicited reply) and *times out* when its oldest
//! in-flight request has waited longer than the gateway's I/O timeout
//! (or its connect longer than the connect timeout). Either way the
//! event loop calls [`Lane::fail`], which closes the socket and hands
//! back every in-flight request so the routing step can fail it over;
//! the next request reconnects from scratch.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddrV4, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use predictd::client::MAX_REPLY_FRAME_BYTES;
use predictd::poll::{
    connect_nonblocking, Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use proto::binproto;

use crate::gateway::{bad_reply, Part};

/// Compact the outbox once this many sent bytes sit at its front.
const OUTBOX_COMPACT_BYTES: usize = 64 * 1024;

/// Where a backend reply goes: the client connection (slab index plus
/// the id that rules out a reused slot), its reply slot, and the part.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tag {
    pub(crate) conn: usize,
    pub(crate) conn_id: u64,
    pub(crate) slot: u64,
    pub(crate) part: Part,
}

/// One backend's checked reply frame — or the reason there is none —
/// for a tag.
pub(crate) type Reply = (Tag, Result<Vec<u8>, String>);

/// One nonblocking connection to one backend (see module docs).
#[derive(Debug)]
pub(crate) struct Lane {
    /// The backend's address; `None` when it has no IPv4 form, which
    /// fails every send.
    addr: Option<SocketAddrV4>,
    /// The epoll token the event loop routes this lane's readiness by.
    token: u64,
    stream: Option<TcpStream>,
    /// The connect has not finished yet.
    connecting: bool,
    /// When the current connect started.
    opened: Instant,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Requests sent (or queued) and not answered, oldest first, with
    /// the time each was queued.
    in_flight: VecDeque<(Tag, Instant)>,
    interest: u32,
    /// Why the transport failed, until the loop fails the lane.
    broken: Option<String>,
}

impl Lane {
    /// An unconnected lane; the first send connects.
    pub(crate) fn new(addr: Option<SocketAddrV4>, token: u64) -> Lane {
        Lane {
            addr,
            token,
            stream: None,
            connecting: false,
            opened: Instant::now(),
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            in_flight: VecDeque::new(),
            interest: 0,
            broken: None,
        }
    }

    /// Queues a request `frame` (connecting first if needed); its
    /// reply, or its failure, comes back under `tag`. An `Err` means the
    /// request never made it onto the lane and must be settled as
    /// failed now.
    pub(crate) fn send(
        &mut self,
        epoll: &Epoll,
        frame: &[u8],
        tag: Tag,
        now: Instant,
    ) -> Result<(), String> {
        if let Some(why) = &self.broken {
            return Err(why.clone());
        }
        if self.stream.is_none() {
            self.open(epoll, now)?;
        }
        self.out.extend_from_slice(frame);
        self.in_flight.push_back((tag, now));
        Ok(())
    }

    /// Starts a nonblocking connect and queues the binary preamble.
    fn open(&mut self, epoll: &Epoll, now: Instant) -> Result<(), String> {
        let addr = self.addr.ok_or_else(|| "backend address has no IPv4 form".to_string())?;
        let stream = connect_nonblocking(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let interest = EPOLLOUT | EPOLLIN | EPOLLRDHUP;
        epoll
            .add(stream.as_raw_fd(), self.token, interest)
            .map_err(|e| format!("registering backend connection: {e}"))?;
        self.interest = interest;
        self.out.clear();
        self.out.extend_from_slice(&binproto::PREAMBLE);
        self.out_pos = 0;
        self.inbuf.clear();
        self.connecting = true;
        self.opened = now;
        self.stream = Some(stream);
        Ok(())
    }

    /// Handles readiness: finishes a pending connect, then reads and
    /// pushes every complete reply onto `replies`.
    pub(crate) fn on_ready(&mut self, bits: u32, scratch: &mut [u8], replies: &mut Vec<Reply>) {
        let Some(stream) = self.stream.as_mut() else { return };
        if self.connecting {
            if bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) == 0 {
                return;
            }
            match stream.take_error() {
                Ok(None) if bits & (EPOLLERR | EPOLLHUP) == 0 => self.connecting = false,
                Ok(None) => self.broken = Some("connect: peer hung up".to_string()),
                Ok(Some(e)) | Err(e) => self.broken = Some(format!("connect: {e}")),
            }
            if self.connecting {
                return;
            }
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) == 0 {
            return;
        }
        loop {
            match stream.read(scratch) {
                Ok(0) => {
                    self.broken = Some("backend closed the connection".to_string());
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.broken = Some(e.to_string());
                    break;
                }
            }
        }
        self.parse_replies(replies);
    }

    /// Matches every complete reply frame in `inbuf` to the oldest
    /// in-flight request. A reply that fails the check fails its
    /// request and breaks the lane.
    fn parse_replies(&mut self, replies: &mut Vec<Reply>) {
        let mut at = 0;
        while let Some(rest) = self.inbuf.get(at..) {
            let Some(len4) = rest.first_chunk::<4>() else { break };
            let len = usize::try_from(u32::from_le_bytes(*len4)).unwrap_or(usize::MAX);
            if len > MAX_REPLY_FRAME_BYTES {
                self.broken = Some(format!("reply frame of {len} bytes exceeds the limit"));
                break;
            }
            let Some(frame) = rest.get(..4 + len) else { break };
            let Some((tag, _)) = self.in_flight.pop_front() else {
                self.broken = Some("reply with nothing in flight".to_string());
                break;
            };
            at += frame.len();
            let body = &frame[4..];
            if !binproto::check_response(body) {
                let why = bad_reply(body);
                self.broken = Some(why.clone());
                replies.push((tag, Err(why)));
                break;
            }
            replies.push((tag, Ok(frame.to_vec())));
        }
        self.inbuf.drain(..at);
    }

    /// Writes as much of the outbox as the socket takes (nothing while
    /// connecting), then watches for writability only while bytes wait.
    pub(crate) fn flush(&mut self, epoll: &Epoll) {
        if self.connecting || self.broken.is_some() {
            return;
        }
        let Some(stream) = self.stream.as_mut() else { return };
        while self.out_pos < self.out.len() {
            match stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.broken = Some("backend stopped accepting bytes".to_string());
                    return;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.broken = Some(e.to_string());
                    return;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > OUTBOX_COMPACT_BYTES {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        let mut want = EPOLLIN | EPOLLRDHUP;
        if self.out_pos < self.out.len() {
            want |= EPOLLOUT;
        }
        if want != self.interest && epoll.modify(stream.as_raw_fd(), self.token, want).is_ok() {
            self.interest = want;
        }
    }

    /// When the lane must fail if nothing arrives first: the connect
    /// deadline while connecting, and the oldest request's reply
    /// deadline.
    pub(crate) fn deadline(&self, connect: Duration, io: Option<Duration>) -> Option<Instant> {
        let reply = io.and_then(|t| self.in_flight.front().map(|&(_, at)| at + t));
        let connect = self.connecting.then(|| self.opened + connect);
        match (reply, connect) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Why the lane must fail now, if it must: a broken transport or a
    /// passed deadline.
    pub(crate) fn failure(
        &self,
        now: Instant,
        connect: Duration,
        io: Option<Duration>,
    ) -> Option<String> {
        if let Some(why) = &self.broken {
            return Some(why.clone());
        }
        match self.deadline(connect, io) {
            Some(d) if d <= now && self.connecting => {
                Some(format!("connect timed out after {connect:?}"))
            }
            Some(d) if d <= now => Some(format!("no reply within {:?}", io.unwrap_or_default())),
            _ => None,
        }
    }

    /// Closes the connection and hands back every in-flight tag, oldest
    /// first, to be settled as failed. The next send reconnects.
    pub(crate) fn fail(&mut self, epoll: &Epoll) -> Vec<Tag> {
        if let Some(stream) = self.stream.take() {
            let _ = epoll.delete(stream.as_raw_fd());
        }
        self.broken = None;
        self.connecting = false;
        self.out.clear();
        self.out_pos = 0;
        self.inbuf.clear();
        self.interest = 0;
        self.in_flight.drain(..).map(|(tag, _)| tag).collect()
    }
}
