//! Request routing, fan-out, failover, and recovery — the gateway's
//! brain, shared by every event-loop worker and the health checker.
//!
//! ## One routing step, two executors
//!
//! Routing is a plan-and-merge state machine, [`Op`]: [`Gateway::plan`]
//! turns a client request into the sub-requests to send (each a
//! [`Part`]: which backend, which request), and [`Gateway::settle`]
//! folds each backend answer or transport failure back in, either
//! naming more parts to send (a failover, a `decide_batch` fallback)
//! or yielding the client's reply. The step never does I/O itself.
//! Two executors drive it: the event loop ([`crate::server`]) sends the
//! parts through nonblocking, pipelined backend lanes, and the blocking
//! [`Gateway::handle`] sends them one at a time through [`Lanes`] of
//! [`BackendConn`]s. Both share one routing and one set of `gw_stats`
//! counters.
//!
//! What an op sends is a [`Payload`]: a decoded `predict` or `rank`, or
//! a binary frame the event loop has checked and relays as bytes — the
//! step reads only its machine, to route it, a report's `at` when the
//! journal has a horizon, and a batch's task boundaries to split it. A
//! report and a `decide_batch` always travel as frames: a decoded one
//! is encoded once, when it is planned, and the journal, the lanes and
//! the fan-out's chunks copy those bytes. What comes back is an
//! [`Answer`]: a decoded reply, or a checked reply frame — one
//! backend's, relayed to a binary client, or the fan-out's chunk
//! replies merged as bytes. [`Gateway::handle`] decodes the answer it
//! returns; the event loop decodes one only for a JSON client. A query
//! op keeps the index of its machine's preference row in the [`Ring`],
//! not a list of its own, so planning a query allocates nothing.
//!
//! ## Replication by broadcast
//!
//! Every accepted `load_report` is (1) journaled and (2) sent to every
//! *healthy* backend. Planning a report *stages* its record in the
//! journal and chooses its recipients, both under one sequencing lock;
//! the executor then *commits* what it staged ([`Gateway::commit`], one
//! `write` for all of an event batch's reports) and only after that
//! sends any of them, so a report's record reaches the OS before any
//! backend's copy. A commit that fails refuses every report it held
//! ([`Gateway::refuse`]): none of them is sent, and each is answered
//! `journal append failed: …`. Only one broadcaster at a time may have
//! reports staged or in flight (the *broadcast turn*: an owner id plus
//! its count of unsettled sends). Each executor sends its broadcasts in
//! journal order down per-backend FIFO connections, so every backend
//! receives reports in journal order even with several workers: a
//! worker that finds the turn taken defers its report — without
//! journaling it — until the owner's last send settles and wakes it. Because the forecaster state is a pure function of the
//! per-machine report sequence, all caught-up backends hold
//! bit-identical state and any of them can answer any placement
//! question exactly as a monolithic predictd would — that equivalence
//! is pinned by a property test and is what makes failover and fan-out
//! semantically free. The reply is the first successful ack in backend
//! order.
//!
//! ## Routing
//!
//! Queries are routed by the consistent-hash [`Ring`]: straight to the
//! machine's owner when it is healthy (a **hit**), to the first healthy
//! ring successor when it is not (a **miss**), re-sent down the
//! preference list on a mid-flight transport failure (a **failover** —
//! safe because `predict`/`rank`/`decide_batch` are read-only and thus
//! idempotent). `decide_batch` additionally fans out, on its frame's
//! bytes: its tasks are chunked across the healthy backends in
//! preference order (chunk `k` to the `k`-th, cycling), each chunk
//! frame copying the batch's header, a run of task bytes and its
//! `j_words`; all chunks are in flight at once, and the chunks'
//! `decisions` reply frames are merged back into task order — the first
//! reply's header, the counts summed, the decisions appended, the
//! `cache_hit` bytes ANDed. The result is bit-identical to a single
//! backend's answer because every chunk is judged against the same
//! replicated state. A batch of fewer than two tasks, or with fewer
//! than two healthy backends, routes whole as a query.
//!
//! ## Recovery
//!
//! The health checker probes every backend with `stats` on an interval;
//! after `health_threshold` consecutive failures a backend is marked
//! down and its traffic drains to successors. On a successful probe the
//! checker compares the backend's own `load_report` counter with the
//! replication cursor (reports the backend acknowledged) read *before*
//! the probe: a lower counter means the backend restarted empty, so it
//! is taken out and the cursor is rewound. Any gap up to the journal's
//! report count — not counting broadcasts still in flight — is then
//! replayed: the journal is read from the backend's cursor on, earlier
//! records skipped unread, and the gap's records are sent as the frames
//! they hold, [`REPLAY_WINDOW`] at a time before their acks are read.
//! The backend is then marked up under the sequencing lock, so
//! it only ever takes traffic against caught-up state. Records staged
//! but not committed count as a gap that cannot be replayed yet: the
//! backend waits for a later probe.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use predictd::poll::Waker;
use predictd::ClientError;
use proto::proto::GwStatsReply;
use proto::{binproto, Request, Response};

use crate::backend::{BackendConn, BackendState};
use crate::journal::{self, Journal};
use crate::metrics::GwMetrics;
use crate::ring::Ring;

/// Everything the gateway needs to know at construction.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Backend addresses (`host:port`), in ring order. Must be
    /// non-empty.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Health-probe interval.
    pub health_interval: Duration,
    /// Consecutive failed probes before a backend is marked down.
    pub health_threshold: u32,
    /// Load-report journal path; `None` disables journaling (failover
    /// still works, but recovered backends come back empty and answer
    /// stale until fresh reports arrive — the checker prints a marker).
    pub journal_path: Option<std::path::PathBuf>,
    /// Journal records per fsync batch (at most two batches wait for
    /// their sync; see the journal's durability notes).
    pub fsync_every: usize,
    /// Journal horizon: reports older than `newest - horizon` seconds
    /// are compacted away after each journal commit. `None` keeps
    /// everything.
    pub journal_horizon_secs: Option<f64>,
    /// Backend connect timeout.
    pub connect_timeout: Duration,
    /// Backend reply timeout (`None` = wait forever): a backend
    /// connection whose oldest unanswered request is older than this
    /// fails, and its idempotent requests fail over.
    pub io_timeout: Option<Duration>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backends: Vec::new(),
            vnodes: 64,
            health_interval: Duration::from_millis(1000),
            health_threshold: 3,
            journal_path: None,
            fsync_every: journal::DEFAULT_FSYNC_EVERY,
            journal_horizon_secs: None,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// A party that sends broadcasts: its identity for the broadcast turn,
/// and — for an event-loop worker — the waker that tells it the turn
/// is free again. Blocking callers have no waker; they wait on the
/// gateway's condition variable instead.
#[derive(Debug)]
pub(crate) struct Broadcaster {
    id: u64,
    waker: Option<Arc<Waker>>,
}

/// One thread's set of blocking backend connections, for
/// [`Gateway::handle`] and the health checker. Every thread owns its
/// own lanes, so backend I/O never contends between threads.
#[derive(Debug)]
pub struct Lanes {
    conns: Vec<BackendConn>,
    who: Broadcaster,
}

impl Lanes {
    /// The lane to backend `i` (which must exist; the gateway only
    /// hands out indices from its own backend list).
    fn conn(&mut self, i: usize) -> Option<&mut BackendConn> {
        self.conns.get_mut(i)
    }

    /// Drops the cached connection to backend `i` so the next request
    /// reconnects from scratch.
    pub fn disconnect(&mut self, i: usize) {
        if let Some(c) = self.conns.get_mut(i) {
            c.disconnect();
        }
    }
}

/// One sub-request to send: `op.payload(part)` to backend `backend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Part {
    /// Which of the op's sub-requests (a `decide_batch` chunk index;
    /// 0 for everything else).
    pub(crate) part: usize,
    /// Backend index.
    pub(crate) backend: usize,
}

/// What a request or sub-request carries to a backend.
#[derive(Debug)]
pub(crate) enum Payload {
    /// A decoded `predict` or `rank`, encoded again for the backend.
    Request(Request),
    /// A binary frame, length prefix included, that passed
    /// [`binproto::check_request`] (or that the gateway encoded or cut
    /// from such a frame itself): relayed as is.
    Frame(Vec<u8>),
}

impl Payload {
    /// The request kind, for log lines.
    fn kind(&self) -> &'static str {
        match self {
            Payload::Request(req) => req.kind(),
            Payload::Frame(frame) => match frame.get(4) {
                Some(&binproto::REQ_LOAD_REPORT) => "load_report",
                Some(&binproto::REQ_PREDICT) => "predict",
                Some(&binproto::REQ_DECIDE_BATCH) => "decide_batch",
                Some(&binproto::REQ_RANK) => "rank",
                _ => "frame",
            },
        }
    }

    /// The machine the request names; empty for `stats`/`shutdown`.
    fn machine(&self) -> &str {
        match self {
            Payload::Request(req) => match req {
                Request::Predict(q) => &q.machine,
                Request::Rank(q) => &q.machine,
                Request::DecideBatch(q) => &q.machine,
                Request::LoadReport(r) => &r.machine,
                Request::Stats | Request::Shutdown => "",
            },
            Payload::Frame(frame) => {
                frame.get(4..).and_then(binproto::request_machine).unwrap_or_default()
            }
        }
    }
}

/// A backend's answer as the gateway holds it.
#[derive(Debug)]
pub(crate) enum Answer {
    /// A decoded reply.
    Response(Response),
    /// A reply frame, length prefix included, that passed
    /// [`binproto::check_response`]: relayed to a binary client as is.
    Frame(Vec<u8>),
}

impl Answer {
    /// The reply kind, for log lines; a frame is not decoded for it.
    fn kind(&self) -> &'static str {
        match self {
            Answer::Response(resp) => resp.kind(),
            Answer::Frame(frame) => match frame.get(4) {
                Some(&binproto::RESP_DECISIONS) => "decisions",
                Some(&binproto::RESP_ERROR) => "error",
                _ => "another reply",
            },
        }
    }

    /// The reply as a value; a relayed frame is decoded.
    pub(crate) fn into_response(self) -> Response {
        match self {
            Answer::Response(resp) => resp,
            Answer::Frame(frame) => binproto::decode_response(frame.get(4..).unwrap_or_default())
                .unwrap_or_else(|e| Response::error(format!("bad reply: {e}"))),
        }
    }
}

impl From<Response> for Answer {
    fn from(resp: Response) -> Answer {
        Answer::Response(resp)
    }
}

/// One client request being routed: the request plus what it waits on.
/// Built by [`Gateway::plan`], advanced by [`Gateway::settle`]; it is
/// finished only when no part of it is in flight.
#[derive(Debug)]
pub(crate) struct Op {
    payload: Payload,
    state: OpState,
}

#[derive(Debug)]
enum OpState {
    /// `predict`/`rank`, or a `decide_batch` routed whole: one part in
    /// flight, to entry `next - 1` of the machine's preference list
    /// (ring row `row`); failures move down the list.
    Query { row: usize, next: usize },
    /// `decide_batch` chunks, all in flight at once.
    Fanout { chunks: Vec<Chunk>, pending: usize, failed: bool },
    /// A journaled `load_report` sent to every healthy backend; `first`
    /// is the ack of the lowest-numbered backend so far.
    Broadcast { first: Option<(usize, Answer)>, pending: usize },
}

/// One `decide_batch` chunk of a fan-out: the frame it sends, and its
/// backend's `decisions` reply frame once that arrives.
#[derive(Debug)]
struct Chunk {
    request: Payload,
    reply: Option<Vec<u8>>,
}

impl Op {
    /// What a part sends.
    pub(crate) fn payload(&self, part: usize) -> &Payload {
        match &self.state {
            OpState::Fanout { chunks, .. } => {
                chunks.get(part).map_or(&self.payload, |c| &c.request)
            }
            _ => &self.payload,
        }
    }

    /// Whether a part's reply must come back as its checked frame, not
    /// decoded: a fan-out chunk's always, since chunk replies are
    /// merged as bytes; a query's or a broadcast's when the client is
    /// `binary`, since its answer is one backend's reply, unchanged.
    pub(crate) fn relays(&self, binary: bool) -> bool {
        binary || matches!(self.state, OpState::Fanout { .. })
    }

    /// Whether the op is a report broadcast, whose sends must wait for
    /// the journal commit.
    pub(crate) fn broadcasts(&self) -> bool {
        matches!(self.state, OpState::Broadcast { .. })
    }
}

/// Journal reports a catch-up sends before reading their acks.
const REPLAY_WINDOW: usize = 64;

/// The reply to a report journaled while no backend was healthy: the
/// health checker's replay delivers it later.
pub(crate) const NO_RECIPIENT: &str = "no healthy backend accepted the report";

/// What [`Gateway::plan`] made of a request.
#[derive(Debug)]
pub(crate) enum Planned {
    /// Answered without a backend; the flag asks the caller to stop.
    Reply(Response, bool),
    /// Routed: send the parts appended to `sends`, settle each. A
    /// broadcast's parts wait for [`Gateway::commit`]; one with no part
    /// is answered [`NO_RECIPIENT`] once committed.
    Routed(Op),
    /// A `load_report` that must wait for another broadcaster's turn to
    /// end; it was not journaled. Plan it again once woken.
    Deferred(Payload),
}

/// State behind the sequencing lock.
#[derive(Debug)]
struct Seq {
    /// `None` means journaling is disabled; the lock still orders
    /// broadcasts.
    journal: Option<Journal>,
    /// The newest `at` among the staged reports, tracked only when the
    /// journal has a horizon: the commit truncates against it.
    newest_at: Option<f64>,
    /// The broadcaster whose reports are staged or in flight, if any.
    owner: Option<u64>,
    /// The owner's sends not yet settled; the turn ends at zero.
    outstanding: usize,
    /// Event-loop workers to wake when the turn ends.
    waiting: Vec<Arc<Waker>>,
}

/// The shared gateway: ring, backend states, metrics, journal.
#[derive(Debug)]
pub struct Gateway {
    cfg: GatewayConfig,
    ring: Ring,
    backends: Vec<BackendState>,
    metrics: GwMetrics,
    /// The sequencing lock: journal staging and commit, and the
    /// broadcast turn (see module docs). No backend I/O happens under
    /// it.
    seq: Mutex<Seq>,
    /// Signalled when the broadcast turn ends, for blocking callers.
    turn_free: Condvar,
    next_broadcaster: AtomicU64,
    started: Instant,
}

impl Gateway {
    /// Builds the gateway, opening (and validating) the journal if one
    /// is configured.
    pub fn new(cfg: GatewayConfig) -> std::io::Result<Gateway> {
        if cfg.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "gateway needs at least one backend",
            ));
        }
        let journal = match &cfg.journal_path {
            Some(p) => Some(Journal::open(p, cfg.fsync_every)?),
            None => None,
        };
        let ring = Ring::new(cfg.backends.len(), cfg.vnodes);
        let backends = cfg.backends.iter().map(|a| BackendState::new(a.clone())).collect();
        let metrics = GwMetrics::new(cfg.backends.len());
        Ok(Gateway {
            cfg,
            ring,
            backends,
            metrics,
            seq: Mutex::new(Seq {
                journal,
                newest_at: None,
                owner: None,
                outstanding: 0,
                waiting: Vec::new(),
            }),
            turn_free: Condvar::new(),
            next_broadcaster: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// The gateway's configuration (as validated at construction).
    pub fn config(&self) -> &GatewayConfig {
        &self.cfg
    }

    /// The routing ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The gateway metrics (for tests and the stats path).
    pub fn metrics(&self) -> &GwMetrics {
        &self.metrics
    }

    /// Shared state of backend `i`.
    pub fn backend(&self, i: usize) -> Option<&BackendState> {
        self.backends.get(i)
    }

    /// A fresh broadcaster identity; `waker` is how an event-loop
    /// worker is told the broadcast turn is free.
    pub(crate) fn broadcaster(&self, waker: Option<Arc<Waker>>) -> Broadcaster {
        Broadcaster { id: self.next_broadcaster.fetch_add(1, Ordering::Relaxed), waker }
    }

    /// A fresh set of per-thread blocking backend connections.
    pub fn lanes(&self) -> Lanes {
        Lanes {
            conns: self
                .cfg
                .backends
                .iter()
                .map(|a| BackendConn::new(a.clone(), self.cfg.connect_timeout, self.cfg.io_timeout))
                .collect(),
            who: self.broadcaster(None),
        }
    }

    /// The sequencing lock, poison-proof: a worker that panicked while
    /// holding it (which the no-panic discipline already forbids) must
    /// not take the whole gateway down with it.
    fn seq_lock(&self) -> MutexGuard<'_, Seq> {
        // modelcheck-allow: event-loop — the sequencing mutex is the
        // designed serialization point for journal appends and the
        // broadcast turn; critical sections hold no backend I/O.
        self.seq.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Handles one request through blocking connections, sending its
    /// parts one at a time; the flag is true when the gateway should
    /// stop (after sending the response). `shutdown` stops only the
    /// gateway — the backends it fronts keep running. A report's record
    /// is committed right after it is planned.
    pub fn handle(&self, req: &Request, lanes: &mut Lanes) -> (Response, bool) {
        let mut sends = Vec::new();
        let mut op = loop {
            match self.plan(Payload::Request(req.clone()), &lanes.who, &mut sends) {
                Planned::Reply(resp, stop) => return (resp, stop),
                Planned::Routed(op) => break op,
                Planned::Deferred(_) => self.await_turn(),
            }
        };
        if op.broadcasts() {
            if let Err(why) = self.commit() {
                return (self.refuse(&sends, &why), false);
            }
            if sends.is_empty() {
                return (Response::error(NO_RECIPIENT), false);
            }
        }
        let mut queue: VecDeque<Part> = sends.drain(..).collect();
        while let Some(sent) = queue.pop_front() {
            let result = match (lanes.conn(sent.backend), op.payload(sent.part)) {
                (Some(conn), Payload::Request(req)) => conn.request(req).map(Answer::Response),
                (Some(conn), Payload::Frame(frame)) => conn.request_frame(frame).map(Answer::Frame),
                (None, _) => Err(ClientError::Protocol("no connection to that backend".into())),
            };
            let result = result.map_err(|e| e.to_string());
            if let Some(answer) = self.settle(&mut op, sent, result, &mut sends) {
                return (answer.into_response(), false);
            }
            queue.extend(sends.drain(..));
        }
        (Response::error("routing stalled with nothing in flight"), false)
    }

    /// Blocks until no broadcaster holds the turn (blocking callers
    /// only; event-loop workers are woken through their waker).
    fn await_turn(&self) {
        let mut seq = self.seq_lock();
        while seq.owner.is_some() {
            seq = match self.turn_free.wait_timeout(seq, Duration::from_millis(50)) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Plans one request: answers it locally, routes it (appending the
    /// parts to send to `sends`), or defers a `load_report` that must
    /// wait for the broadcast turn. A frame is a `load_report`,
    /// broadcast; a `decide_batch`, fanned out; or a `predict` or
    /// `rank`, routed as a query.
    pub(crate) fn plan(
        &self,
        payload: Payload,
        who: &Broadcaster,
        sends: &mut Vec<Part>,
    ) -> Planned {
        let frame = match payload {
            Payload::Frame(frame) => frame,
            Payload::Request(req) => match req {
                Request::Predict(_) | Request::Rank(_) => {
                    return self.plan_query(Payload::Request(req), sends)
                }
                Request::Stats => return Planned::Reply(Response::GwStats(self.gw_stats()), false),
                Request::Shutdown => return Planned::Reply(Response::Ok, true),
                // A decoded report or batch is encoded once, here: the
                // journal, the lanes and the fan-out's chunks all copy
                // these bytes.
                Request::LoadReport(_) | Request::DecideBatch(_) => {
                    let mut frame = Vec::new();
                    if !binproto::encode_request(&req, &mut frame) {
                        let why = format!("{} exceeds binary frame limits", req.kind());
                        return Planned::Reply(Response::error(why), false);
                    }
                    frame
                }
            },
        };
        match frame.get(4) {
            Some(&binproto::REQ_LOAD_REPORT) => self.plan_broadcast(frame, who, sends),
            Some(&binproto::REQ_DECIDE_BATCH) => self.plan_decide_batch(frame, sends),
            _ => self.plan_query(Payload::Frame(frame), sends),
        }
    }

    /// Stage the report's journal record, then pick every healthy
    /// backend as a recipient, under the sequencing lock and only while
    /// `who` may hold the broadcast turn. The record reaches the file at
    /// the executor's [`Gateway::commit`], and the parts may be sent
    /// only after it succeeds. A backend that fails the broadcast simply
    /// does not get its cursor advanced — the health checker replays
    /// the gap from the journal.
    fn plan_broadcast(&self, frame: Vec<u8>, who: &Broadcaster, sends: &mut Vec<Part>) -> Planned {
        let mut seq = self.seq_lock();
        // Another broadcaster's reports are staged or in flight — or
        // this one's are while others wait, so a busy worker cannot
        // starve them.
        let contended = seq.owner.is_some_and(|o| o != who.id || !seq.waiting.is_empty());
        if contended {
            if let Some(w) = &who.waker {
                if !seq.waiting.iter().any(|x| Arc::ptr_eq(x, w)) {
                    seq.waiting.push(Arc::clone(w));
                }
            }
            return Planned::Deferred(Payload::Frame(frame));
        }
        let body = frame.get(4..).unwrap_or_default();
        if let Some(j) = seq.journal.as_mut() {
            // Staged under the sequencing lock: journal order is the
            // broadcast order.
            if let Err(e) = j.stage_report(body) {
                // Refuse what we cannot journal: accepting it would let
                // the fleet and the journal disagree.
                return Planned::Reply(
                    Response::error(format!("journal append failed: {e}")),
                    false,
                );
            }
            if self.cfg.journal_horizon_secs.is_some() {
                if let Some(at) = journal::report_at(body) {
                    seq.newest_at = Some(seq.newest_at.map_or(at, |n| n.max(at)));
                }
            }
        }
        let mut pending = 0;
        for (i, b) in self.backends.iter().enumerate() {
            if b.is_healthy() {
                b.broadcast_sent();
                sends.push(Part { part: 0, backend: i });
                pending += 1;
            }
        }
        seq.owner = Some(who.id);
        seq.outstanding += pending;
        drop(seq);
        Planned::Routed(Op {
            payload: Payload::Frame(frame),
            state: OpState::Broadcast { first: None, pending },
        })
    }

    /// Commits the journal records staged since the last commit — the
    /// caller's own, since only the turn's owner stages — with one
    /// `write`, then compacts past the horizon if one is set. The staged
    /// broadcasts may be sent once this returns `Ok`; on `Err` (the
    /// refusal message) each must go to [`Gateway::refuse`] instead.
    pub(crate) fn commit(&self) -> Result<(), String> {
        let (committed, waiting) = {
            let mut seq = self.seq_lock();
            let newest_at = seq.newest_at.take();
            let committed = match seq.journal.as_mut() {
                // Committed under the sequencing lock: no other
                // broadcaster may stage behind it, and the catch-up
                // reads its counters.
                Some(j) => match j.commit() {
                    Ok(()) => {
                        if let (Some(at), Some(h)) = (newest_at, self.cfg.journal_horizon_secs) {
                            // Truncation must see a quiescent
                            // journal: nothing staged, under the lock.
                            maybe_truncate(j, at, h, &self.backends);
                        }
                        Ok(())
                    }
                    Err(e) => Err(format!("journal append failed: {e}")),
                },
                None => Ok(()),
            };
            (committed, end_turn(&mut seq))
        };
        self.wake(waiting);
        committed
    }

    /// Refuses a staged broadcast whose commit failed: releases the
    /// in-flight count and the turn share of each of its `parts`, which
    /// are never sent, and yields its reply.
    pub(crate) fn refuse(&self, parts: &[Part], why: &str) -> Response {
        for part in parts {
            self.release_send(part.backend, false);
        }
        Response::error(why)
    }

    /// Settles one broadcast send — acked, failed, or refused unsent;
    /// the owner's last one ends its turn and wakes whoever waited for
    /// it.
    fn release_send(&self, backend: usize, acked: bool) {
        let waiting = {
            let mut seq = self.seq_lock();
            if let Some(b) = self.backends.get(backend) {
                b.broadcast_settled(acked);
            }
            seq.outstanding = seq.outstanding.saturating_sub(1);
            end_turn(&mut seq)
        };
        self.wake(waiting);
    }

    /// Tells whoever waited for the broadcast turn that it ended.
    fn wake(&self, waiting: Option<Vec<Arc<Waker>>>) {
        if let Some(waiting) = waiting {
            self.turn_free.notify_all();
            for w in waiting {
                w.wake();
            }
        }
    }

    /// Routes an idempotent single-answer query down the machine's
    /// preference list: owner first, ring successors on unhealth or
    /// mid-flight failure.
    fn plan_query(&self, payload: Payload, sends: &mut Vec<Part>) -> Planned {
        let row = self.ring.row_of(payload.machine());
        self.count_dispatch(self.ring.row(row));
        let mut op = Op { payload, state: OpState::Query { row, next: 0 } };
        match self.next_query_part(&mut op, None, sends) {
            Some(resp) => Planned::Reply(resp, false),
            None => Planned::Routed(op),
        }
    }

    /// Sends a query to the next healthy backend on its preference
    /// list, or — when none is left — yields the error reply.
    fn next_query_part(
        &self,
        op: &mut Op,
        last_err: Option<String>,
        sends: &mut Vec<Part>,
    ) -> Option<Response> {
        if let OpState::Query { row, next } = &mut op.state {
            while let Some(&i) = self.ring.row(*row).get(*next) {
                *next += 1;
                if self.backends.get(i).is_some_and(BackendState::is_healthy) {
                    sends.push(Part { part: 0, backend: i });
                    return None;
                }
            }
        }
        let machine = op.payload.machine();
        Some(match last_err {
            Some(e) => Response::error(format!("every backend failed for {machine}: {e}")),
            None => Response::error(format!("no healthy backend for {machine}")),
        })
    }

    /// `decide_batch` fan-out, on the frame's bytes: the tasks are
    /// chunked across the healthy backends in preference order — chunk
    /// `k` to the `k`-th, cycling — every chunk in flight at once, and
    /// the replies merged back in task order. Each chunk frame copies
    /// the batch's header, a run of its task bytes, and its `j_words`;
    /// nothing is decoded. Any chunk failure falls back to routing the
    /// whole batch as a single idempotent query — simpler than partial
    /// retry and just as correct.
    fn plan_decide_batch(&self, frame: Vec<u8>, sends: &mut Vec<Part>) -> Planned {
        let body = frame.get(4..).unwrap_or_default();
        let pref = self.ring.preference(binproto::request_machine(body).unwrap_or_default());
        let healthy = |i: &usize| self.backends.get(*i).is_some_and(BackendState::is_healthy);
        let lanes = pref.iter().filter(|i| healthy(i)).count();
        let tasks = binproto::batch_tasks(body).filter(|t| lanes >= 2 && t.remaining() >= 2);
        let Some(mut tasks) = tasks else {
            return self.plan_query(Payload::Frame(frame), sends);
        };
        let n = tasks.remaining();
        let chunk_len = n.div_ceil(lanes.min(n));
        let mut owners = pref.iter().copied().filter(healthy).cycle();
        let mut chunks = Vec::with_capacity(n.div_ceil(chunk_len));
        let first_send = sends.len();
        while let Some(first) = tasks.next() {
            let count = chunk_len.min(tasks.remaining() + 1);
            let end = tasks.by_ref().take(count - 1).last().map_or(first.end, |t| t.end);
            let mut chunk = Vec::new();
            let built = binproto::encode_batch_chunk(body, first.start..end, count, &mut chunk);
            // A backend that went down since the count may leave no
            // owner: route the batch whole instead.
            let (true, Some(backend)) = (built, owners.next()) else {
                sends.truncate(first_send);
                return self.plan_query(Payload::Frame(frame), sends);
            };
            sends.push(Part { part: chunks.len(), backend });
            chunks.push(Chunk { request: Payload::Frame(chunk), reply: None });
        }
        self.count_dispatch(pref);
        let pending = chunks.len();
        Planned::Routed(Op {
            payload: Payload::Frame(frame),
            state: OpState::Fanout { chunks, pending, failed: false },
        })
    }

    /// Folds one part's outcome into `op`: the client's reply once the
    /// op is finished, else `None` with any new parts to send appended
    /// to `sends`.
    pub(crate) fn settle(
        &self,
        op: &mut Op,
        sent: Part,
        result: Result<Answer, String>,
        sends: &mut Vec<Part>,
    ) -> Option<Answer> {
        let backend = sent.backend;
        let addr = self.backends.get(backend).map_or("?", BackendState::addr);
        match &mut op.state {
            OpState::Query { .. } => match result {
                Ok(answer) => {
                    self.metrics.backend_request(backend);
                    Some(answer)
                }
                Err(e) => {
                    self.metrics.failover(backend);
                    // modelcheck-allow: event-loop — failover marker on the error
                    // path only, rate-bounded by backend failures.
                    eprintln!(
                        "predictgw: failover: {} for {} re-sent past backend {addr} ({e})",
                        op.payload.kind(),
                        op.payload.machine()
                    );
                    self.next_query_part(op, Some(e), sends).map(Answer::Response)
                }
            },
            OpState::Fanout { chunks, pending, failed } => {
                match result {
                    Ok(Answer::Frame(frame)) if frame.get(4) == Some(&binproto::RESP_DECISIONS) => {
                        self.metrics.backend_request(backend);
                        if let Some(chunk) = chunks.get_mut(sent.part) {
                            chunk.reply = Some(frame);
                        }
                    }
                    Ok(other) => {
                        // An error (or surprise) response from one chunk:
                        // the batch answer must stay whole, so fall back.
                        // modelcheck-allow: event-loop — fallback marker on the error
                        // path only; the re-route is the real handling.
                        eprintln!(
                            "predictgw: decide_batch chunk on backend {backend} answered {}; falling back to single-backend routing",
                            other.kind()
                        );
                        self.metrics.failover(backend);
                        *failed = true;
                    }
                    Err(e) => {
                        // modelcheck-allow: event-loop — failover marker on the error
                        // path only, rate-bounded by backend failures.
                        eprintln!(
                            "predictgw: failover: decide_batch chunk failed on backend {backend} ({e}); re-routing whole batch"
                        );
                        self.metrics.failover(backend);
                        *failed = true;
                    }
                }
                *pending = pending.saturating_sub(1);
                if *pending > 0 {
                    return None;
                }
                if *failed {
                    let row = self.ring.row_of(op.payload.machine());
                    self.count_dispatch(self.ring.row(row));
                    op.state = OpState::Query { row, next: 0 };
                    return self.next_query_part(op, None, sends).map(Answer::Response);
                }
                // Headers (machine, p, stale, forecaster) are
                // bit-identical across caught-up backends; keep the
                // first chunk's reply, append the others' decisions,
                // AND the cache flags (a merged answer was only "all
                // cached" if every chunk was).
                let mut replies = chunks.iter_mut().map(|c| c.reply.take());
                let merged = replies.next().flatten().and_then(|mut first| {
                    replies
                        .all(|r| r.is_some_and(|r| binproto::merge_decisions(&mut first, &r)))
                        .then_some(first)
                });
                Some(merged.map_or_else(
                    || Answer::Response(Response::error("decide_batch fan-out produced no answer")),
                    Answer::Frame,
                ))
            }
            OpState::Broadcast { first, pending } => {
                self.release_send(backend, result.is_ok());
                match result {
                    Ok(answer) => {
                        self.metrics.backend_request(backend);
                        if first.as_ref().is_none_or(|&(b, _)| backend < b) {
                            *first = Some((backend, answer));
                        }
                    }
                    Err(e) => {
                        // Not a failover (nothing is re-sent — the journal
                        // replay owns catch-up), but worth a marker.
                        // modelcheck-allow: event-loop — backend-failure marker on the
                        // error path only; the journal replay owns recovery.
                        eprintln!(
                            "predictgw: broadcast to backend {addr} failed ({e}); journal will catch it up"
                        );
                    }
                }
                *pending = pending.saturating_sub(1);
                if *pending > 0 {
                    return None;
                }
                Some(
                    first.take().map_or_else(
                        || Answer::Response(Response::error(NO_RECIPIENT)),
                        |(_, a)| a,
                    ),
                )
            }
        }
    }

    /// Tallies the hit/miss of one dispatch against the owner's health.
    fn count_dispatch(&self, pref: &[usize]) {
        let owner_healthy =
            pref.first().and_then(|&i| self.backends.get(i)).is_some_and(BackendState::is_healthy);
        if owner_healthy {
            self.metrics.hit();
        } else {
            self.metrics.miss();
        }
    }

    /// Forces the journal to stable storage (no-op without a journal) —
    /// called at shutdown so the fsync batch is not left in flight.
    pub fn sync_journal(&self) -> std::io::Result<()> {
        match self.seq_lock().journal.as_mut() {
            Some(j) => j.sync(),
            None => Ok(()),
        }
    }

    /// The `gw_stats` snapshot.
    pub fn gw_stats(&self) -> GwStatsReply {
        let (frames, bytes) = {
            let seq = self.seq_lock();
            seq.journal.as_ref().map_or((0, 0), |j| (j.frames(), j.bytes()))
        };
        let healthy: Vec<bool> = self.backends.iter().map(BackendState::is_healthy).collect();
        self.metrics.snapshot(
            &self.cfg.backends,
            &healthy,
            frames,
            bytes,
            self.started.elapsed().as_secs_f64(),
        )
    }

    /// Runs the health checker until `stop` is set: probe every backend
    /// with `stats` each interval, mark down after the configured
    /// threshold of consecutive failures, and on recovery replay the
    /// journal gap before marking up. Run this on its own thread.
    pub fn run_health_checker(&self, stop: &AtomicBool) {
        let mut lanes = self.lanes();
        while !stop.load(Ordering::Acquire) {
            for (i, b) in self.backends.iter().enumerate() {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                self.probe_backend(i, b, &mut lanes);
            }
            // Sleep in small slices so shutdown is prompt even with a
            // long probe interval.
            let mut left = self.cfg.health_interval;
            while !left.is_zero() {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let nap = left.min(Duration::from_millis(50));
                std::thread::sleep(nap);
                left = left.saturating_sub(nap);
            }
        }
    }

    /// One probe of one backend, with the recovery protocol on success.
    fn probe_backend(&self, i: usize, b: &BackendState, lanes: &mut Lanes) {
        // Every report acknowledged before the probe is sent was
        // processed before the backend answers it; reports still in
        // flight may or may not be, so they prove nothing either way.
        let acked = b.cursor();
        let Some(conn) = lanes.conn(i) else { return };
        match conn.request(&Request::Stats) {
            Ok(Response::Stats(stats)) => {
                let reported = stats.requests.load_report;
                if reported < acked {
                    // The backend holds fewer reports than it already
                    // acknowledged: its state is gone. Take it out so
                    // broadcasts stop, rewind, and replay from there.
                    eprintln!(
                        "predictgw: backend {} restarted (holds {reported} of {acked} reports); rewinding for replay",
                        b.addr()
                    );
                    if b.mark_down() {
                        eprintln!("predictgw: backend {} marked down", b.addr());
                    }
                    b.set_cursor(reported);
                } else {
                    // An ack was lost in flight: the backend processed
                    // more than we counted. Trust its count so replay
                    // does not duplicate — but only while nothing is in
                    // flight, since in-flight broadcasts explain any
                    // excess just as well.
                    let seq = self.seq_lock();
                    if b.in_flight() == 0 && reported > b.cursor() {
                        b.set_cursor(reported);
                    }
                    drop(seq);
                }
                if let Err(e) = self.catch_up(i, b, lanes) {
                    eprintln!(
                        "predictgw: backend {} answered probes but replay failed ({e}); keeping it out",
                        b.addr()
                    );
                    if b.mark_probe_failure(self.cfg.health_threshold) {
                        eprintln!("predictgw: backend {} marked down", b.addr());
                    }
                }
            }
            Ok(other) => {
                eprintln!(
                    "predictgw: probe of backend {} answered {} instead of stats",
                    b.addr(),
                    other.kind()
                );
                if b.mark_probe_failure(self.cfg.health_threshold) {
                    eprintln!("predictgw: backend {} marked down", b.addr());
                }
            }
            Err(e) => {
                if b.mark_probe_failure(self.cfg.health_threshold) {
                    eprintln!(
                        "predictgw: backend {} marked down after {} failed probes ({e})",
                        b.addr(),
                        self.cfg.health_threshold
                    );
                }
            }
        }
    }

    /// Replays the backend's journal gap (`cursor .. journal.reports`)
    /// through the checker's own lane, in pipelined windows of
    /// [`REPLAY_WINDOW`] frames, each ack advancing the cursor by one;
    /// loops until the backend is caught up *at sequencing-lock time*,
    /// and marks it up under that lock — so no report can be staged
    /// between "caught up" and "up", and broadcasts resume in journal
    /// order. Broadcasts still in flight count as caught up; a gap
    /// behind them, or behind staged records, waits for a later probe.
    fn catch_up(&self, i: usize, b: &BackendState, lanes: &mut Lanes) -> Result<(), ClientError> {
        loop {
            let (from, path) = {
                let seq = self.seq_lock();
                let gap = match seq.journal.as_ref() {
                    Some(j) => {
                        // Staged records are the journal's too, but not
                        // in the file yet: a gap they open waits.
                        let held = b.cursor().saturating_add(b.in_flight());
                        (held < j.reports() + j.staged())
                            .then(|| (b.cursor(), j.reports(), j.path().to_path_buf()))
                    }
                    None => None,
                };
                match gap {
                    Some((from, upto, path)) if b.in_flight() == 0 && from < upto => (from, path),
                    Some(_) => return Ok(()),
                    None => {
                        let stale = seq.journal.is_none() && !b.is_healthy();
                        let up = b.mark_up();
                        drop(seq);
                        if stale {
                            // No journal: the backend comes back with
                            // whatever state it has. Mark it loudly — its
                            // answers may be stale until reports refresh.
                            eprintln!(
                                "predictgw: backend {} recovering stale (no journal to replay)",
                                b.addr()
                            );
                        }
                        if up {
                            eprintln!("predictgw: backend {} marked up", b.addr());
                        }
                        return Ok(());
                    }
                }
            };
            // Bulk replay outside the lock (reads see whole records;
            // a torn in-flight tail parses as a clean prefix): the gap's
            // records, as the frames they hold, a window at a time.
            let gap = journal::report_frames(&path, from).map_err(ClientError::Io)?;
            let mut replayed = 0u64;
            let sent = gap.chunks(REPLAY_WINDOW).try_for_each(|window| {
                let conn = lanes
                    .conn(i)
                    .ok_or_else(|| ClientError::Protocol("backend lane missing".to_string()))?;
                conn.request_frames(window, |reply| {
                    if reply.first() != Some(&binproto::RESP_ACK)
                        || !binproto::check_response(reply)
                    {
                        let kind =
                            binproto::decode_response(reply).map_or("a bad reply", |r| r.kind());
                        return Err(ClientError::Protocol(format!(
                            "replayed report answered {kind} instead of ack"
                        )));
                    }
                    b.advance_cursor(1);
                    replayed += 1;
                    Ok(())
                })
            });
            if replayed > 0 {
                self.metrics.replayed(i, replayed);
                eprintln!("predictgw: replayed {replayed} reports into backend {}", b.addr());
            }
            sent?;
        }
    }
}

/// Ends the broadcast turn if nothing of it is left — no send
/// unsettled, no record staged — returning whom to wake once the
/// sequencing lock is dropped.
fn end_turn(seq: &mut Seq) -> Option<Vec<Arc<Waker>>> {
    let staged = seq.journal.as_ref().is_some_and(|j| j.staged() > 0);
    if seq.outstanding > 0 || staged || seq.owner.is_none() {
        return None;
    }
    seq.owner = None;
    Some(std::mem::take(&mut seq.waiting))
}

/// Horizon-keyed truncation: once the newest report is `horizon`
/// seconds past the oldest retained report, compact the journal and
/// clamp every backend cursor to the new report count. Runs after each
/// commit, against the newest `at` the commit wrote.
fn maybe_truncate(j: &mut Journal, newest_at: f64, horizon: f64, backends: &[BackendState]) {
    if !horizon.is_finite() || horizon < 0.0 {
        return;
    }
    let cutoff = newest_at - horizon;
    match j.truncate_before(cutoff) {
        Ok(0) => {}
        Ok(dropped) => {
            // Cursors count journal positions; compaction renumbered
            // them. Every healthy backend was already past the dropped
            // prefix (they received those reports live), so clamping to
            // the new count keeps replay exact for the survivors.
            for b in backends {
                let adjusted = b.cursor().saturating_sub(dropped).min(j.reports());
                b.set_cursor(adjusted);
            }
            // modelcheck-allow: event-loop — compaction notice; truncation
            // runs at the journal size horizon, not per request.
            eprintln!("predictgw: journal compacted, {dropped} reports past the horizon dropped");
        }
        // modelcheck-allow: event-loop — truncation-failure marker on
        // the error path only.
        Err(e) => eprintln!("predictgw: journal truncation failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto::proto::LoadReport;

    #[test]
    fn gateway_refuses_an_empty_backend_list() {
        assert!(Gateway::new(GatewayConfig::default()).is_err());
    }

    #[test]
    fn gw_stats_reflects_configuration_before_any_traffic() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg).expect("gateway");
        let s = gw.gw_stats();
        assert_eq!(s.backends.len(), 2);
        assert_eq!(s.backends[0].addr, "127.0.0.1:1");
        assert!(s.backends.iter().all(|b| b.healthy), "presumed healthy at boot");
        assert_eq!(s.hits + s.misses + s.failovers, 0);
        assert_eq!(s.journal_frames, 0, "no journal configured");
    }

    #[test]
    fn shutdown_is_local_to_the_gateway() {
        let cfg =
            GatewayConfig { backends: vec!["127.0.0.1:1".to_string()], ..GatewayConfig::default() };
        let gw = Gateway::new(cfg).expect("gateway");
        let mut lanes = gw.lanes();
        let (resp, stop) = gw.handle(&Request::Shutdown, &mut lanes);
        assert_eq!(resp.kind(), "ok");
        assert!(stop);
    }

    #[test]
    fn queries_with_no_reachable_backend_yield_an_error_response() {
        // Nothing listens on these ports; the gateway must answer an
        // `error` (and count the failovers), never hang or panic.
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            connect_timeout: Duration::from_millis(100),
            io_timeout: Some(Duration::from_millis(100)),
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg).expect("gateway");
        let mut lanes = gw.lanes();
        let req = Request::Predict(proto::proto::Predict {
            machine: "m0".to_string(),
            now: 1.0,
            task: contention_model::predict::ParagonTask {
                dcomp_sun: contention_model::units::secs(1.0),
                t_paragon: contention_model::units::secs(2.0),
                to_backend: Vec::new(),
                from_backend: Vec::new(),
            },
            j_words: 0,
        });
        let (resp, stop) = gw.handle(&req, &mut lanes);
        assert!(!stop);
        assert_eq!(resp.kind(), "error");
        let s = gw.gw_stats();
        assert_eq!(s.hits, 1, "owner was (optimistically) healthy at dispatch");
        assert_eq!(s.failovers, 2, "both backends failed mid-flight");
    }

    #[test]
    fn a_relayed_frame_is_routed_by_its_machine_and_sent_unchanged() {
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg).expect("gateway");
        let who = gw.broadcaster(None);
        for i in 0..20 {
            let machine = format!("frame-m{i}");
            let req = Request::Rank(proto::proto::Rank {
                machine: machine.clone(),
                now: 1.0,
                workflow: hetsched::example::workflow(),
                front_end: 0,
                j_words: 500,
                limit: 2,
            });
            let mut frame = Vec::new();
            assert!(binproto::encode_request(&req, &mut frame));
            let mut sends = Vec::new();
            let Planned::Routed(op) = gw.plan(Payload::Frame(frame.clone()), &who, &mut sends)
            else {
                panic!("a rank frame must be routed");
            };
            assert_eq!(sends, [Part { part: 0, backend: gw.ring().owner(&machine) }]);
            assert!(op.relays(true) && !op.relays(false));
            assert!(matches!(op.payload(0), Payload::Frame(f) if *f == frame));
            assert_eq!((op.payload.kind(), op.payload.machine()), ("rank", machine.as_str()));
        }
    }

    #[test]
    fn journal_append_survives_roundtrip_through_gateway() {
        let mut path = std::env::temp_dir();
        path.push(format!("predictgw-gwtest-{}.j", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = GatewayConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            journal_path: Some(path.clone()),
            connect_timeout: Duration::from_millis(100),
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(cfg).expect("gateway");
        let mut lanes = gw.lanes();
        let report = LoadReport { machine: "m1".to_string(), at: 1.0, load: 2.0, comm_frac: 0.5 };
        // No backend is reachable, so the broadcast fails — but the
        // report must already be journaled (journal-then-broadcast).
        let (resp, _) = gw.handle(&Request::LoadReport(report.clone()), &mut lanes);
        assert_eq!(resp.kind(), "error");
        let replayed = journal::read_reports(&path).expect("read journal");
        assert_eq!(replayed, vec![report]);
        let s = gw.gw_stats();
        assert_eq!(s.journal_frames, 2, "meta + one report");
        let _ = std::fs::remove_file(&path);
    }
}
