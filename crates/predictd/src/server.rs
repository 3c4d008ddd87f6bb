//! predictd's transports: the evented TCP server and newline-delimited
//! JSON over stdio.
//!
//! The TCP server is the shared client edge ([`crate::edge`]: listeners,
//! accept, framing, buffered I/O, idle close) plus what predictd does
//! with a request: answer it at once from the one sharded [`Service`],
//! into the connection's write buffer. Warm `predict`/`decide_batch`/
//! `rank` run under their machine's shard *read* lock, which loops on
//! other cores share, and only a `load_report` or a cold profile takes
//! the write lock. A binary frame is decoded and answered through the
//! loop's reused [`Slots`], so a warm frame allocates nothing.
//!
//! A connection-level I/O error drops that connection and the loops keep
//! serving. Only an explicit `shutdown` request (or EOF on stdio) stops
//! the daemon.

use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::binproto;
use crate::edge::{
    conn_index, Codec, Edge, Input, Link, Listeners, ServerConfig, IDLE_TIMEOUT, MAX_EVENTS,
    SCRATCH_BYTES, TOKEN_LISTENER, TOKEN_WAKER,
};
use crate::poll::{Epoll, EpollEvent, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP};
use crate::proto::Response;
use crate::service::{Service, Slots};

/// What one event loop reuses for every connection it serves: the read
/// buffer, the JSON reply buffer, and the request and reply [`Slots`].
struct Scratch {
    read: Vec<u8>,
    json: String,
    slots: Slots,
}

/// A bound-but-not-yet-running evented server: bind first (so the
/// caller learns the port), then [`EventedServer::run`] until a
/// `shutdown` request arrives.
pub struct EventedServer {
    listeners: Listeners,
    /// [`IDLE_TIMEOUT`]; unit tests shorten it.
    idle_timeout: Duration,
}

impl EventedServer {
    /// Binds `workers` `SO_REUSEPORT` listeners (clamped to ≥ 1) on
    /// `addr` — IPv4 only. With port 0 the first bind picks the port
    /// and the rest join it.
    pub fn bind(addr: SocketAddr, workers: usize) -> io::Result<Self> {
        Ok(EventedServer { listeners: Listeners::bind(addr, workers)?, idle_timeout: IDLE_TIMEOUT })
    }

    /// The address the listeners are bound to (port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.listeners.local_addr()
    }

    /// Runs one event loop per listener (thread-per-core) until a
    /// `shutdown` request is handled on any of them. The shutdown
    /// response is flushed before the loops exit.
    pub fn run(self, service: &Service, cfg: &ServerConfig) -> io::Result<()> {
        let stop = AtomicBool::new(false);
        let idle = self.idle_timeout;
        self.listeners.run_loops(|i, listener, wakers| {
            event_loop(listener, &wakers[i], service, cfg, idle, &stop, wakers)
        })
    }
}

/// One worker's loop: accept, frame, answer, write — all nonblocking,
/// all level-triggered — and close connections idle for
/// `idle_timeout`.
// modelcheck: event-loop
fn event_loop(
    listener: TcpListener,
    waker: &Waker,
    service: &Service,
    cfg: &ServerConfig,
    idle_timeout: Duration,
    stop: &AtomicBool,
    all_wakers: &[Arc<Waker>],
) -> io::Result<()> {
    let epoll = Epoll::new()?;
    let mut edge: Edge<Link> = Edge::new(&epoll, listener, waker, idle_timeout)?;
    let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    let mut scratch =
        Scratch { read: vec![0u8; SCRATCH_BYTES], json: String::new(), slots: Slots::new() };
    loop {
        let now = Instant::now();
        if stop.load(Ordering::Acquire) && edge.drained(now, |c| c.pending_write() > 0) {
            return Ok(());
        }
        let n = epoll.wait(&mut events, edge.wait_timeout(now, None))?;
        let now = Instant::now();
        for ev in events.iter().take(n) {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => edge.accept_clients(now, |link| link),
                TOKEN_WAKER => waker.drain(),
                t => {
                    let idx = conn_index(t);
                    let Some(conn) = edge.conn_mut(idx) else { continue };
                    conn.last_active = now;
                    let mut dead = bits & (EPOLLERR | EPOLLHUP) != 0;
                    if !dead && bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                        dead = !conn.read_in(&mut scratch.read);
                        if !dead {
                            serve_inbox(conn, service, cfg, &mut scratch, stop, all_wakers);
                        }
                    }
                    if !dead {
                        dead = !conn.write_out();
                    }
                    if dead || (conn.closing && conn.pending_write() == 0) {
                        edge.close(idx);
                    } else {
                        conn.rearm(&epoll, t, true);
                    }
                }
            }
        }
        edge.tend(now, |_| false);
    }
}

/// Answers every complete request in the connection's inbox, appending
/// the replies to its write buffer. A `shutdown` stops the daemon and
/// drops whatever the client sent after it.
// modelcheck: event-loop
fn serve_inbox(
    conn: &mut Link,
    service: &Service,
    cfg: &ServerConfig,
    scratch: &mut Scratch,
    stop: &AtomicBool,
    all_wakers: &[Arc<Waker>],
) {
    let out = &mut scratch.json;
    out.clear();
    let mut shutdown = false;
    while !shutdown {
        let Some(input) = conn.inbox.next_request(cfg) else { break };
        shutdown = match input {
            Input::Line(text) => scratch.slots.handle_line_into(service, text, out),
            Input::Frame(frame) => {
                scratch.slots.handle_frame_into(service, &frame[4..], &mut conn.wbuf)
            }
            Input::Refused(why) => {
                answer_refusal(conn, out, &why);
                false
            }
            Input::Rejected(why) => {
                conn.closing = true;
                answer_refusal(conn, out, why);
                false
            }
        };
    }
    conn.wbuf.extend_from_slice(out.as_bytes());
    if shutdown {
        conn.closing = true;
        conn.inbox.clear();
        stop.store(true, Ordering::Release);
        for w in all_wakers {
            w.wake();
        }
    }
}

/// Answers input the edge refused with an `error` in the connection's
/// codec: a line into the JSON reply buffer `out`, or a frame.
fn answer_refusal(conn: &mut Link, out: &mut String, why: &str) {
    let resp = Response::error(why);
    if conn.inbox.codec() == Codec::Json {
        serde_json::to_string_into(&resp, out);
        out.push('\n');
    } else {
        let _ = binproto::encode_response(&resp, &mut conn.wbuf);
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
    use crate::edge::SWEEP_EVERY;
    use crate::service::ServiceConfig;
    use std::io::Read;
    use std::net::TcpStream;

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
