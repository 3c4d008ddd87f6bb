//! Per-backend state and connections: the shared health/cursor record
//! every thread consults, and the per-thread lazy connection each
//! worker (and the health checker) drives requests through.
//!
//! The split matters: health and the replication cursor are fleet-wide
//! facts — one backend is down for *everyone* — so they live in shared
//! atomics ([`BackendState`]). Connections are the opposite: sockets
//! are cheap and mutably owned, so each event-loop worker keeps its own
//! [`BackendConn`] per backend and never contends on I/O. A connection
//! failure tears down only the caller's socket; marking the backend
//! down is the health checker's call (via its consecutive-failure
//! threshold), not any single request's.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use predictd::server::IDLE_TIMEOUT;
use predictd::{Client, ClientError};
use proto::{binproto, Request, Response};

use crate::gateway::bad_reply;

/// Fleet-wide facts about one backend, shared by every thread.
#[derive(Debug)]
pub struct BackendState {
    addr: String,
    /// Routable right now? Flipped only by the health checker.
    healthy: AtomicBool,
    /// Consecutive failed health probes (reset by any success).
    probe_failures: AtomicU32,
    /// Replication cursor: how many journal reports this backend has
    /// acknowledged (broadcast or replay). Compared against the
    /// journal's report count to size the catch-up suffix, and against
    /// the backend's own `load_report` counter to detect a restart.
    sent_reports: AtomicU64,
    /// Broadcasts sent to this backend and not yet settled (acked or
    /// failed). Changed only under the gateway's sequencing lock, so
    /// `cursor + in_flight` read under it is the journal position the
    /// backend will hold once every pending broadcast lands.
    in_flight: AtomicU64,
}

impl BackendState {
    /// Fresh state for a backend at `addr`, presumed healthy until the
    /// first probe says otherwise (so a cold fleet takes traffic
    /// immediately instead of waiting out a probe interval).
    pub fn new(addr: String) -> Self {
        BackendState {
            addr,
            healthy: AtomicBool::new(true),
            probe_failures: AtomicU32::new(0),
            sent_reports: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        }
    }

    /// The backend's address, as configured.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Routable right now? Acquire pairs with the checker's Release so
    /// a worker that sees `true` also sees the replay that preceded it.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Records a successful probe; returns `true` on a Down→Up
    /// transition (the caller replays the journal *before* calling
    /// this, so traffic only resumes against caught-up state).
    pub fn mark_up(&self) -> bool {
        self.probe_failures.store(0, Ordering::Relaxed);
        !self.healthy.swap(true, Ordering::Release)
    }

    /// Takes the backend out of routing at once (a probe proved its
    /// state gone). Returns `true` on the Up→Down transition.
    pub(crate) fn mark_down(&self) -> bool {
        self.healthy.swap(false, Ordering::Release)
    }

    /// Records a failed probe; after `threshold` consecutive failures
    /// the backend is marked down. Returns `true` on the Up→Down
    /// transition.
    pub fn mark_probe_failure(&self, threshold: u32) -> bool {
        let failures = self.probe_failures.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        if failures >= threshold {
            self.healthy.swap(false, Ordering::Release)
        } else {
            false
        }
    }

    /// Reports sent to this backend so far (the replication cursor).
    pub fn cursor(&self) -> u64 {
        self.sent_reports.load(Ordering::Acquire)
    }

    /// Advances the replication cursor by `n` sent reports.
    pub fn advance_cursor(&self, n: u64) {
        self.sent_reports.fetch_add(n, Ordering::Release);
    }

    /// Broadcasts sent to this backend and not yet settled. Relaxed:
    /// every change and every read that acts on it holds the sequencing
    /// lock, which orders them.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Counts one broadcast sent (under the sequencing lock).
    pub(crate) fn broadcast_sent(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Settles one sent broadcast (under the sequencing lock): an ack
    /// advances the cursor before the in-flight count drops, so the sum
    /// never dips.
    pub(crate) fn broadcast_settled(&self, acked: bool) {
        if acked {
            self.advance_cursor(1);
        }
        let _ =
            self.in_flight.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }

    /// Rewinds the cursor to `to` (journal truncation compacted away
    /// records below it, or a replay proved the backend holds exactly
    /// `to` reports).
    pub fn set_cursor(&self, to: u64) {
        self.sent_reports.store(to, Ordering::Release);
    }
}

/// One thread's lazily-connected, blocking binary-codec channel to one
/// backend — what the health checker and [`crate::Gateway::handle`]
/// drive requests through (the event loop uses nonblocking lanes).
#[derive(Debug)]
pub struct BackendConn {
    addr: String,
    client: Option<Client>,
    connect_timeout: Duration,
    io_timeout: Option<Duration>,
    /// When the cached connection last sent a request.
    last_used: Instant,
    /// predictd's [`IDLE_TIMEOUT`]: the backend closes a connection
    /// this idle, so one that sat this long is reopened before use.
    /// Unit tests shorten it.
    pub(crate) idle_limit: Duration,
}

impl BackendConn {
    /// A handle that will connect on first use.
    pub fn new(addr: String, connect_timeout: Duration, io_timeout: Option<Duration>) -> Self {
        BackendConn {
            addr,
            client: None,
            connect_timeout,
            io_timeout,
            last_used: Instant::now(),
            idle_limit: IDLE_TIMEOUT,
        }
    }

    /// Sends one request and decodes the response, connecting (or
    /// reconnecting) as needed. Any transport error tears down this
    /// thread's socket so the next call starts from a clean connect —
    /// the caller decides whether to fail over; this type never does.
    /// A connection idle past the backend's idle close (a health probe
    /// spaced wider than it) is reopened rather than found closed.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.exchange(|client| client.request(req))
    }

    /// [`BackendConn::request`] for a request already encoded as a
    /// binary frame (length prefix included): the frame is sent as is,
    /// and the reply comes back as its frame, length prefix included,
    /// once [`binproto::check_response`] vouches for it. A reply that
    /// fails the check is a protocol error.
    pub(crate) fn request_frame(&mut self, frame: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.exchange(|client| {
            client.send_frame(frame)?;
            client.flush()?;
            let mut body = Vec::with_capacity(64);
            client.recv_frame_into(&mut body)?;
            if !binproto::check_response(&body) {
                return Err(ClientError::Protocol(bad_reply(&body)));
            }
            let mut reply = Vec::with_capacity(4 + body.len());
            reply.extend_from_slice(&u32::try_from(body.len()).unwrap_or(0).to_le_bytes());
            reply.extend_from_slice(&body);
            Ok(reply)
        })
    }

    /// Sends every frame of `frames` (length prefixes included) back to
    /// back with one flush, then reads their replies in order, handing
    /// each reply body to `on_reply`. The first error — the transport's
    /// or `on_reply`'s — ends the exchange and the connection.
    pub(crate) fn request_frames(
        &mut self,
        frames: &[Vec<u8>],
        mut on_reply: impl FnMut(&[u8]) -> Result<(), ClientError>,
    ) -> Result<(), ClientError> {
        self.exchange(|client| {
            for frame in frames {
                client.send_frame(frame)?;
            }
            client.flush()?;
            let mut body = Vec::with_capacity(64);
            for _ in frames {
                client.recv_frame_into(&mut body)?;
                on_reply(&body)?;
            }
            Ok(())
        })
    }

    /// Runs one exchange on the cached connection (see
    /// [`BackendConn::request`] for the connection's lifecycle).
    fn exchange<T>(
        &mut self,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let now = Instant::now();
        if now.duration_since(self.last_used) >= self.idle_limit {
            self.client = None;
        }
        // Stamped at send time, before the backend's own idle clock
        // restarts, so this side always reopens first.
        self.last_used = now;
        if self.client.is_none() {
            self.client = Some(Client::connect_binary_timeout(
                self.addr.as_str(),
                self.connect_timeout,
                self.io_timeout,
            )?);
        }
        let Some(client) = self.client.as_mut() else {
            return Err(ClientError::Protocol("no connection".to_string()));
        };
        match f(client) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.client = None;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_transitions_respect_the_threshold() {
        let b = BackendState::new("127.0.0.1:1".to_string());
        assert!(b.is_healthy(), "presumed healthy at boot");
        assert!(!b.mark_probe_failure(3), "1st failure: still up");
        assert!(!b.mark_probe_failure(3), "2nd failure: still up");
        assert!(b.is_healthy());
        assert!(b.mark_probe_failure(3), "3rd failure: transitions down");
        assert!(!b.is_healthy());
        assert!(!b.mark_probe_failure(3), "already down: no transition");
        assert!(b.mark_up(), "recovery transitions up");
        assert!(!b.mark_up(), "already up: no transition");
        // A success reset the failure streak: two more failures do not
        // re-trip a threshold of 3.
        assert!(!b.mark_probe_failure(3));
        assert!(!b.mark_probe_failure(3));
        assert!(b.is_healthy());
    }

    #[test]
    fn cursor_advances_and_rewinds() {
        let b = BackendState::new("127.0.0.1:1".to_string());
        assert_eq!(b.cursor(), 0);
        b.advance_cursor(5);
        b.advance_cursor(2);
        assert_eq!(b.cursor(), 7);
        b.set_cursor(3);
        assert_eq!(b.cursor(), 3);
    }

    #[test]
    fn settled_broadcasts_move_from_in_flight_to_the_cursor() {
        let b = BackendState::new("127.0.0.1:1".to_string());
        b.broadcast_sent();
        b.broadcast_sent();
        assert_eq!((b.cursor(), b.in_flight()), (0, 2));
        b.broadcast_settled(true);
        assert_eq!((b.cursor(), b.in_flight()), (1, 1));
        b.broadcast_settled(false);
        assert_eq!((b.cursor(), b.in_flight()), (1, 0), "a failed send leaves a gap");
    }

    /// A stand-in backend that answers like predictd and, like
    /// predictd, closes a connection that sat idle for `idle`. Serves
    /// one connection at a time, which is all one `BackendConn` needs.
    fn idle_closing_backend(idle: Duration) -> String {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            let service =
                predictd::Service::with_default_predictor(predictd::ServiceConfig::default());
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(idle));
                let mut preamble = [0u8; 4];
                if stream.read_exact(&mut preamble).is_err() {
                    continue;
                }
                let mut out = Vec::new();
                loop {
                    // A read that times out is the idle close: drop the
                    // stream and serve the next connection.
                    let mut len = [0u8; 4];
                    if stream.read_exact(&mut len).is_err() {
                        break;
                    }
                    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
                    if stream.read_exact(&mut body).is_err() {
                        break;
                    }
                    out.clear();
                    service.handle_frame_into(&body, &mut out);
                    if stream.write_all(&out).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn probe_after_the_backend_idle_close_reopens_the_connection() {
        let idle = Duration::from_millis(150);
        let mut c = BackendConn::new(
            idle_closing_backend(idle),
            Duration::from_secs(1),
            Some(Duration::from_secs(5)),
        );
        c.idle_limit = idle;
        for probe in 0..3 {
            let reply = c.request(&Request::Stats);
            assert!(matches!(reply, Ok(Response::Stats(_))), "probe {probe}: {reply:?}");
            // Longer than the backend's idle close: it has hung up.
            std::thread::sleep(idle * 3);
        }
    }

    #[test]
    fn conn_surfaces_connect_failure_and_stays_usable() {
        // A port from the ephemeral range with nothing listening:
        // connect fails fast, and the handle can be retried.
        let mut c = BackendConn::new(
            "127.0.0.1:1".to_string(),
            Duration::from_millis(200),
            Some(Duration::from_millis(200)),
        );
        assert!(c.request(&Request::Stats).is_err());
        assert!(c.request(&Request::Stats).is_err(), "retryable after failure");
    }
}
