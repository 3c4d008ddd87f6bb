//! The coupled-platform runtime.
//!
//! Glues the simcore resources into the two machines of the paper:
//!
//! * a **front-end** whose time-shared CPU runs every application's local
//!   computation, every data-format conversion, and the serial stream of
//!   CM2 programs;
//! * a **CM2** back-end behind a dedicated channel, driven element-by-
//!   element and instruction-by-instruction by the front-end (exclusive
//!   sequencer: one application at a time);
//! * a **Paragon** back-end behind a shared Ethernet (optionally via a
//!   service-node NX bridge), whose compute nodes are space-shared and
//!   therefore dedicated to their application.
//!
//! Applications are [`AppProcess`] phase machines; the runtime executes
//! phases against these resources and records per-phase timings.

use crate::config::{CommPath, PlatformConfig, SchedulerKind};
use crate::phase::Direction;
use crate::phase::{AppProcess, Cm2Instr, Phase, PhaseKind, PhaseRecord};
use simcore::cpu::{Cpu, Gen, PsCpu, RrCpu};
use simcore::engine::{Engine, Model};
use simcore::fifo::FifoServer;
use simcore::ids::{IdGen, JobId, ProcId, XferId};
use simcore::queue::EventQueue;
use simcore::rng::{derive_rng, SimRng};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::Tracer;
use std::collections::{HashMap, VecDeque};

/// Events of the platform world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// Front-end CPU completion check.
    Cpu(Gen),
    /// Ethernet completion check.
    Wire(Gen),
    /// Service-node NX completion check.
    Nx(Gen),
    /// CM2 instruction completion check.
    Cm2(Gen),
    /// Local disk completion check.
    Disk(Gen),
    /// Process birth, sleep end, or back-end compute end.
    Wake(ProcId),
    /// A Paragon compute node emits the next message of a receive burst;
    /// the second field is the burst generation the emission belongs to.
    NodeEmit(ProcId, u64),
}

/// What a front-end CPU job completion means.
#[derive(Debug, Clone, Copy)]
enum CpuJobKind {
    /// A `Compute` phase finished.
    Compute(ProcId),
    /// Outbound Paragon conversion finished: put the message on the wire.
    ConvSend(ProcId),
    /// Inbound Paragon conversion finished: one more message landed.
    ConvRecv(ProcId),
    /// A whole element-wise CM2 transfer burst finished (the front-end
    /// runs the copy loop as one continuous CPU-bound stretch).
    Cm2Xfer(ProcId),
    /// A CM2 serial instruction finished.
    Serial(ProcId),
    /// A CM2 parallel-instruction dispatch finished; the payload is the
    /// CM2 execution demand to enqueue.
    Dispatch(ProcId, SimDuration),
}

/// What a wire (Ethernet) completion means.
#[derive(Debug, Clone, Copy)]
enum WireKind {
    /// Front-end → Paragon message left the wire.
    Outbound(ProcId),
    /// Paragon → front-end message arrived at the front-end.
    Inbound(ProcId),
}

/// Transfer burst progress (used for sends and receives alike).
#[derive(Debug, Clone, Copy)]
struct BurstState {
    dir: Direction,
    total: u64,
    words: u64,
    /// Conversions issued so far (outbound) / emissions so far (inbound).
    issued: u64,
    /// Conversions completed (the CPU side).
    conv_done: u64,
    /// Messages fully delivered to the far side (outbound only).
    delivered: u64,
    /// Inbound messages that arrived while a conversion was running.
    backlog: u64,
    /// An inbound conversion job is on the CPU.
    conv_busy: bool,
}

impl BurstState {
    fn new(dir: Direction, total: u64, words: u64) -> Self {
        BurstState {
            dir,
            total,
            words,
            issued: 0,
            conv_done: 0,
            delivered: 0,
            backlog: 0,
            conv_busy: false,
        }
    }
}

/// CM2 program execution progress.
#[derive(Debug, Clone)]
struct Cm2State {
    instrs: Vec<Cm2Instr>,
    pc: usize,
    /// Parallel instructions queued or executing on the CM2.
    in_flight: u64,
    /// Blocked on a `Sync` (or the implicit end-of-program drain).
    waiting_drain: bool,
    /// A serial/dispatch CPU job is outstanding.
    cpu_busy: bool,
}

/// What a process is doing right now.
#[derive(Debug)]
enum Activity {
    /// Spawned but not yet started.
    Unborn,
    /// Between phases (transient).
    Idle,
    /// A `Compute` phase is on the CPU.
    Computing,
    /// Sleeping until a `Wake`.
    Sleeping,
    /// Computing on the back-end partition until a `Wake`.
    BackendComputing,
    /// Executing a transfer burst.
    Bursting(BurstState),
    /// A disk operation is queued or in service.
    DoingIo,
    /// Running a CM2 program.
    RunningCm2(Cm2State),
    /// Queued for the CM2 sequencer; holds the phase to start once owned.
    WaitingCm2(Phase),
    /// Finished.
    Done,
}

/// Per-process runtime state.
struct ProcState {
    app: Box<dyn AppProcess>,
    name: String,
    current: Activity,
    phase_start: SimTime,
    started: SimTime,
    finished: Option<SimTime>,
    records: Vec<PhaseRecord>,
    rng: SimRng,
    /// Bumped at each burst start; stale NodeEmit events are dropped.
    burst_gen: u64,
}

/// The simulated world state (the [`Model`] of the engine).
pub struct PlatformModel {
    cfg: PlatformConfig,
    cpu: Box<dyn Cpu>,
    wire: FifoServer,
    nx: FifoServer,
    cm2_fifo: FifoServer,
    disk: FifoServer,
    procs: HashMap<ProcId, ProcState>,
    pending_cpu: HashMap<JobId, (CpuJobKind, SimTime)>,
    pending_wire: HashMap<XferId, WireKind>,
    pending_nx: HashMap<XferId, WireKind>,
    pending_cm2: HashMap<XferId, (ProcId, SimDuration)>,
    pending_disk: HashMap<XferId, ProcId>,
    cm2_owner: Option<ProcId>,
    cm2_waiters: VecDeque<ProcId>,
    ids: IdGen,
    seed: u64,
    /// Execution trace (enable before running for Figure-2 style output).
    pub tracer: Tracer,
}

impl PlatformModel {
    fn new(cfg: PlatformConfig, seed: u64) -> Self {
        let cpu: Box<dyn Cpu> = match cfg.frontend.scheduler {
            SchedulerKind::ProcessorSharing => Box::new(PsCpu::new()),
            SchedulerKind::RoundRobin => {
                Box::new(RrCpu::new(cfg.frontend.quantum, cfg.frontend.ctx_switch))
            }
        };
        PlatformModel {
            cfg,
            cpu,
            wire: FifoServer::new(),
            nx: FifoServer::new(),
            cm2_fifo: FifoServer::new(),
            disk: FifoServer::new(),
            procs: HashMap::new(),
            pending_cpu: HashMap::new(),
            pending_wire: HashMap::new(),
            pending_nx: HashMap::new(),
            pending_cm2: HashMap::new(),
            pending_disk: HashMap::new(),
            cm2_owner: None,
            cm2_waiters: VecDeque::new(),
            ids: IdGen::new(),
            seed,
            tracer: Tracer::disabled(),
        }
    }

    // -- resource event plumbing -------------------------------------------

    fn resched_cpu(&mut self, q: &mut EventQueue<Ev>) {
        if let Some((t, gen)) = self.cpu.next_event() {
            q.schedule(t, Ev::Cpu(gen));
        }
    }

    fn resched_wire(&mut self, q: &mut EventQueue<Ev>) {
        if let Some((t, gen)) = self.wire.next_event() {
            q.schedule(t, Ev::Wire(gen));
        }
    }

    fn resched_nx(&mut self, q: &mut EventQueue<Ev>) {
        if let Some((t, gen)) = self.nx.next_event() {
            q.schedule(t, Ev::Nx(gen));
        }
    }

    fn resched_cm2(&mut self, q: &mut EventQueue<Ev>) {
        if let Some((t, gen)) = self.cm2_fifo.next_event() {
            q.schedule(t, Ev::Cm2(gen));
        }
    }

    fn resched_disk(&mut self, q: &mut EventQueue<Ev>) {
        if let Some((t, gen)) = self.disk.next_event() {
            q.schedule(t, Ev::Disk(gen));
        }
    }

    fn submit_cpu(
        &mut self,
        now: SimTime,
        kind: CpuJobKind,
        demand: SimDuration,
        q: &mut EventQueue<Ev>,
    ) {
        self.submit_cpu_weighted(now, kind, demand, 1.0, q);
    }

    fn submit_cpu_weighted(
        &mut self,
        now: SimTime,
        kind: CpuJobKind,
        demand: SimDuration,
        weight: f64,
        q: &mut EventQueue<Ev>,
    ) {
        let id = self.ids.next_job();
        self.pending_cpu.insert(id, (kind, now));
        self.cpu.arrive_weighted(now, id, demand, weight);
        self.resched_cpu(q);
    }

    // -- process lifecycle ---------------------------------------------------

    fn spawn(&mut self, app: Box<dyn AppProcess>, at: SimTime) -> ProcId {
        let id = self.ids.next_proc();
        let name = app.name().to_string();
        let rng = derive_rng(self.seed, &name, id.0);
        self.procs.insert(
            id,
            ProcState {
                app,
                name,
                current: Activity::Unborn,
                phase_start: at,
                started: at,
                finished: None,
                records: Vec::new(),
                rng,
                burst_gen: 0,
            },
        );
        id
    }

    /// Finishes the running phase: records it and starts the next one.
    fn complete_phase(&mut self, id: ProcId, now: SimTime, q: &mut EventQueue<Ev>) {
        let (kind, start) = {
            let st = self.procs.get_mut(&id).expect("unknown process");
            let kind = match &st.current {
                Activity::Computing => PhaseKind::Compute,
                Activity::Sleeping => PhaseKind::Sleep,
                Activity::BackendComputing => PhaseKind::BackendCompute,
                Activity::Bursting(b) => {
                    if b.dir.is_outbound() {
                        PhaseKind::Send
                    } else {
                        PhaseKind::Recv
                    }
                }
                Activity::DoingIo => PhaseKind::DiskIo,
                Activity::RunningCm2(_) => PhaseKind::Cm2Program,
                other => panic!("phase completion in state {other:?}"),
            };
            st.current = Activity::Idle;
            (kind, st.phase_start)
        };
        // Release the sequencer if this was a CM2 phase.
        if matches!(kind, PhaseKind::Cm2Program)
            || (matches!(kind, PhaseKind::Send | PhaseKind::Recv) && self.cm2_owner == Some(id))
        {
            self.release_cm2(id, now, q);
        }
        let st = self.procs.get_mut(&id).expect("unknown process");
        st.records.push(PhaseRecord { kind, start, end: now });
        self.advance(id, now, q);
    }

    /// Asks the app for its next phase and starts it.
    fn advance(&mut self, id: ProcId, now: SimTime, q: &mut EventQueue<Ev>) {
        let phase = {
            let st = self.procs.get_mut(&id).expect("unknown process");
            let mut rng = st.rng.clone();
            let phase = st.app.next_phase(now, &mut rng);
            st.rng = rng;
            phase
        };
        self.begin_phase(id, phase, now, q);
    }

    /// Starts executing `phase` for process `id`.
    fn begin_phase(&mut self, id: ProcId, phase: Phase, now: SimTime, q: &mut EventQueue<Ev>) {
        {
            let st = self.procs.get_mut(&id).expect("unknown process");
            st.phase_start = now;
        }
        match phase {
            Phase::Done => {
                let st = self.procs.get_mut(&id).expect("unknown process");
                st.current = Activity::Done;
                st.finished = Some(now);
            }
            Phase::Sleep(d) => {
                let st = self.procs.get_mut(&id).expect("unknown process");
                st.current = Activity::Sleeping;
                q.schedule(now + d, Ev::Wake(id));
            }
            Phase::BackendCompute(d) => {
                let st = self.procs.get_mut(&id).expect("unknown process");
                st.current = Activity::BackendComputing;
                q.schedule(now + d, Ev::Wake(id));
            }
            Phase::Compute(d) => {
                let st = self.procs.get_mut(&id).expect("unknown process");
                st.current = Activity::Computing;
                self.submit_cpu(now, CpuJobKind::Compute(id), d, q);
            }
            Phase::DiskIo { words } => {
                let st = self.procs.get_mut(&id).expect("unknown process");
                st.current = Activity::DoingIo;
                let xid = self.ids.next_xfer();
                self.pending_disk.insert(xid, id);
                let service = self.cfg.disk.service(words);
                self.disk.enqueue(now, xid, service);
                self.resched_disk(q);
            }
            Phase::Send { count, words, dir } => {
                assert!(dir.is_outbound(), "Send phase with inbound direction {dir:?}");
                self.begin_burst(id, BurstState::new(dir, count, words), now, q);
            }
            Phase::Recv { count, words, dir } => {
                assert!(!dir.is_outbound(), "Recv phase with outbound direction {dir:?}");
                self.begin_burst(id, BurstState::new(dir, count, words), now, q);
            }
            Phase::Cm2Program(prog) => {
                if !self.acquire_cm2(id, Phase::Cm2Program(prog.clone())) {
                    return; // queued for the sequencer
                }
                let st = self.procs.get_mut(&id).expect("unknown process");
                st.current = Activity::RunningCm2(Cm2State {
                    instrs: prog.instrs,
                    pc: 0,
                    in_flight: 0,
                    waiting_drain: false,
                    cpu_busy: false,
                });
                self.step_cm2(id, now, q);
            }
        }
    }

    // -- CM2 sequencer ---------------------------------------------------------

    /// Tries to take the sequencer; on failure parks the phase.
    fn acquire_cm2(&mut self, id: ProcId, phase: Phase) -> bool {
        match self.cm2_owner {
            None => {
                self.cm2_owner = Some(id);
                true
            }
            Some(owner) if owner == id => true,
            Some(_) => {
                let st = self.procs.get_mut(&id).expect("unknown process");
                st.current = Activity::WaitingCm2(phase);
                self.cm2_waiters.push_back(id);
                false
            }
        }
    }

    fn release_cm2(&mut self, id: ProcId, now: SimTime, q: &mut EventQueue<Ev>) {
        assert_eq!(self.cm2_owner, Some(id), "release by non-owner");
        self.cm2_owner = None;
        if let Some(next) = self.cm2_waiters.pop_front() {
            let st = self.procs.get_mut(&next).expect("unknown waiter");
            let parked = std::mem::replace(&mut st.current, Activity::Idle);
            let Activity::WaitingCm2(phase) = parked else {
                panic!("waiter {next} not in WaitingCm2 state");
            };
            // The parked phase's record measures from acquisition; queueing
            // delay shows up as a gap between consecutive records.
            self.begin_phase(next, phase, now, q);
        }
    }

    /// Drives the CM2 program interpreter as far as it can go without
    /// waiting on a resource.
    fn step_cm2(&mut self, id: ProcId, now: SimTime, q: &mut EventQueue<Ev>) {
        let mut issue: Option<(CpuJobKind, SimDuration)> = None;
        let mut done = false;
        {
            let st = self.procs.get_mut(&id).expect("unknown process");
            let Activity::RunningCm2(cm2) = &mut st.current else {
                panic!("step_cm2 outside RunningCm2");
            };
            debug_assert!(!cm2.cpu_busy, "step_cm2 with CPU job outstanding");
            loop {
                if cm2.pc >= cm2.instrs.len() {
                    if cm2.in_flight == 0 {
                        done = true;
                    } else {
                        cm2.waiting_drain = true;
                    }
                    break;
                }
                match cm2.instrs[cm2.pc] {
                    Cm2Instr::Serial(d) => {
                        cm2.pc += 1;
                        cm2.cpu_busy = true;
                        issue = Some((CpuJobKind::Serial(id), d));
                        break;
                    }
                    Cm2Instr::Parallel(d) => {
                        cm2.pc += 1;
                        cm2.cpu_busy = true;
                        issue = Some((CpuJobKind::Dispatch(id, d), self.cfg.cm2.instr_dispatch));
                        break;
                    }
                    Cm2Instr::Sync => {
                        if cm2.in_flight > 0 {
                            cm2.waiting_drain = true;
                            break;
                        }
                        cm2.pc += 1;
                    }
                }
            }
        }
        if let Some((kind, demand)) = issue {
            self.submit_cpu(now, kind, demand, q);
        }
        if done {
            self.complete_phase(id, now, q);
        }
    }

    // -- transfer bursts ---------------------------------------------------------

    fn begin_burst(&mut self, id: ProcId, burst: BurstState, now: SimTime, q: &mut EventQueue<Ev>) {
        if burst.dir.is_cm2() && !self.acquire_cm2(id, burst_phase(&burst)) {
            return; // queued for the sequencer
        }
        let gen = {
            let st = self.procs.get_mut(&id).expect("unknown process");
            st.current = Activity::Bursting(burst);
            st.burst_gen += 1;
            st.burst_gen
        };
        if burst.total == 0 {
            self.complete_phase(id, now, q);
            return;
        }
        match burst.dir {
            Direction::ToCm2 | Direction::FromCm2 => {
                // The transfer is an element-by-element copy loop on the
                // front-end: one continuous CPU demand covering the whole
                // burst (the process never sleeps between messages).
                let demand = self.cm2_msg_demand(burst.dir, burst.words) * burst.total;
                self.submit_cpu(now, CpuJobKind::Cm2Xfer(id), demand, q);
            }
            Direction::ToParagon => self.issue_paragon_conv_send(id, now, q),
            Direction::FromParagon => {
                // The remote node starts streaming when the phase begins.
                q.schedule(now + self.cfg.paragon.node_overhead, Ev::NodeEmit(id, gen));
            }
        }
    }

    /// Front-end CPU demand for one CM2 channel message in `dir`.
    fn cm2_msg_demand(&self, dir: Direction, words: u64) -> SimDuration {
        let c = &self.cfg.cm2;
        match dir {
            Direction::ToCm2 => c.xfer_alpha_to + c.xfer_per_word_to * words,
            Direction::FromCm2 => c.xfer_alpha_from + c.xfer_per_word_from * words,
            _ => unreachable!("not a CM2 direction"),
        }
    }

    fn issue_paragon_conv_send(&mut self, id: ProcId, now: SimTime, q: &mut EventQueue<Ev>) {
        let words = {
            let st = self.procs.get_mut(&id).expect("unknown process");
            let Activity::Bursting(b) = &mut st.current else {
                panic!("conv send outside burst");
            };
            debug_assert!(b.issued < b.total);
            debug_assert!(!b.conv_busy);
            b.issued += 1;
            b.conv_busy = true;
            b.words
        };
        let demand = self.cfg.paragon.conv_demand_out(words);
        self.submit_cpu(now, CpuJobKind::ConvSend(id), demand, q);
    }

    /// Starts an inbound conversion if the CPU slot for this process is
    /// free, otherwise grows the backlog.
    fn inbound_arrival(&mut self, id: ProcId, now: SimTime, q: &mut EventQueue<Ev>) {
        let start_conv = {
            let st = self.procs.get_mut(&id).expect("unknown process");
            let Activity::Bursting(b) = &mut st.current else {
                // Arrival for a process no longer bursting (cannot happen:
                // bursts only finish after all arrivals convert).
                panic!("inbound arrival outside burst");
            };
            if b.conv_busy {
                b.backlog += 1;
                None
            } else {
                b.conv_busy = true;
                Some(b.words)
            }
        };
        if let Some(words) = start_conv {
            let demand = self.cfg.paragon.conv_demand_in(words);
            let w = self.cfg.paragon.recv_kernel_weight;
            self.submit_cpu_weighted(now, CpuJobKind::ConvRecv(id), demand, w, q);
        }
    }

    // -- event handlers ---------------------------------------------------------

    fn on_cpu_done(&mut self, job: JobId, now: SimTime, q: &mut EventQueue<Ev>) {
        let Some((kind, issued_at)) = self.pending_cpu.remove(&job) else {
            return;
        };
        match kind {
            CpuJobKind::Compute(id) => {
                self.trace_proc(id, "sun", "compute", issued_at, now);
                self.complete_phase(id, now, q);
            }
            CpuJobKind::Serial(id) => {
                self.trace_proc(id, "sun", "serial", issued_at, now);
                let st = self.procs.get_mut(&id).expect("unknown process");
                let Activity::RunningCm2(cm2) = &mut st.current else {
                    panic!("serial completion outside CM2 program");
                };
                cm2.cpu_busy = false;
                self.step_cm2(id, now, q);
            }
            CpuJobKind::Dispatch(id, exec) => {
                self.trace_proc(id, "sun", "serial", issued_at, now);
                {
                    let st = self.procs.get_mut(&id).expect("unknown process");
                    let Activity::RunningCm2(cm2) = &mut st.current else {
                        panic!("dispatch completion outside CM2 program");
                    };
                    cm2.cpu_busy = false;
                    cm2.in_flight += 1;
                }
                let xid = self.ids.next_xfer();
                self.pending_cm2.insert(xid, (id, exec));
                self.cm2_fifo.enqueue(now, xid, exec);
                self.resched_cm2(q);
                self.step_cm2(id, now, q);
            }
            CpuJobKind::Cm2Xfer(id) => {
                self.trace_proc(id, "sun", "xfer", issued_at, now);
                {
                    let st = self.procs.get_mut(&id).expect("unknown process");
                    let Activity::Bursting(b) = &mut st.current else {
                        panic!("CM2 xfer completion outside burst");
                    };
                    b.conv_done = b.total;
                    b.delivered = b.total;
                }
                self.complete_phase(id, now, q);
            }
            CpuJobKind::ConvSend(id) => {
                self.trace_proc(id, "sun", "conv", issued_at, now);
                let window = self.cfg.paragon.send_window.max(1);
                let (words, more) = {
                    let st = self.procs.get_mut(&id).expect("unknown process");
                    let Activity::Bursting(b) = &mut st.current else {
                        panic!("conv completion outside burst");
                    };
                    b.conv_done += 1;
                    b.conv_busy = false;
                    (b.words, b.issued < b.total && b.issued - b.delivered < window)
                };
                // The converted message goes on the wire…
                let xid = self.ids.next_xfer();
                self.pending_wire.insert(xid, WireKind::Outbound(id));
                let service = self.cfg.paragon.wire_service(words) + self.cfg.paragon.node_overhead;
                self.wire.enqueue(now, xid, service);
                self.resched_wire(q);
                // …and, window permitting, the CPU converts the next one.
                if more {
                    self.issue_paragon_conv_send(id, now, q);
                }
            }
            CpuJobKind::ConvRecv(id) => {
                self.trace_proc(id, "sun", "conv", issued_at, now);
                let next = {
                    let st = self.procs.get_mut(&id).expect("unknown process");
                    let Activity::Bursting(b) = &mut st.current else {
                        panic!("recv conv completion outside burst");
                    };
                    b.conv_done += 1;
                    b.conv_busy = false;
                    if b.conv_done == b.total {
                        Some(None) // burst complete
                    } else if b.backlog > 0 {
                        b.backlog -= 1;
                        b.conv_busy = true;
                        Some(Some(b.words))
                    } else {
                        None
                    }
                };
                match next {
                    Some(None) => self.complete_phase(id, now, q),
                    Some(Some(words)) => {
                        let demand = self.cfg.paragon.conv_demand_in(words);
                        let w = self.cfg.paragon.recv_kernel_weight;
                        self.submit_cpu_weighted(now, CpuJobKind::ConvRecv(id), demand, w, q);
                    }
                    None => {}
                }
            }
        }
    }

    fn on_wire_done(&mut self, xid: XferId, now: SimTime, q: &mut EventQueue<Ev>) {
        let Some(kind) = self.pending_wire.remove(&xid) else { return };
        match kind {
            WireKind::Outbound(id) => {
                if self.cfg.paragon.path == CommPath::TwoHops {
                    // Forward over NX to the compute node.
                    let words = self.burst_words(id);
                    let nid = self.ids.next_xfer();
                    self.pending_nx.insert(nid, WireKind::Outbound(id));
                    self.nx.enqueue(now, nid, self.cfg.paragon.nx_service(words));
                    self.resched_nx(q);
                } else {
                    self.outbound_delivered(id, now, q);
                }
            }
            WireKind::Inbound(id) => {
                // Flow control: the node emits the next message only after
                // the previous one has cleared the wire (protocol ack).
                let gen = self.procs.get(&id).map(|s| s.burst_gen).unwrap_or(0);
                q.schedule(now + self.cfg.paragon.node_emit_gap, Ev::NodeEmit(id, gen));
                self.inbound_arrival(id, now, q);
            }
        }
    }

    fn on_nx_done(&mut self, xid: XferId, now: SimTime, q: &mut EventQueue<Ev>) {
        let Some(kind) = self.pending_nx.remove(&xid) else { return };
        match kind {
            WireKind::Outbound(id) => self.outbound_delivered(id, now, q),
            WireKind::Inbound(id) => {
                // NX delivered to the service node; now cross the Ethernet.
                let words = self.burst_words(id);
                let wid = self.ids.next_xfer();
                self.pending_wire.insert(wid, WireKind::Inbound(id));
                self.wire.enqueue(now, wid, self.cfg.paragon.wire_service(words));
                self.resched_wire(q);
            }
        }
    }

    fn outbound_delivered(&mut self, id: ProcId, now: SimTime, q: &mut EventQueue<Ev>) {
        let window = self.cfg.paragon.send_window.max(1);
        let (complete, issue_next) = {
            let st = self.procs.get_mut(&id).expect("unknown process");
            let Activity::Bursting(b) = &mut st.current else {
                panic!("delivery outside burst");
            };
            b.delivered += 1;
            let complete = b.delivered == b.total && b.conv_done == b.total;
            let issue_next =
                !complete && b.issued < b.total && !b.conv_busy && b.issued - b.delivered < window;
            (complete, issue_next)
        };
        if complete {
            self.complete_phase(id, now, q);
        } else if issue_next {
            self.issue_paragon_conv_send(id, now, q);
        }
    }

    fn on_cm2_done(&mut self, xid: XferId, now: SimTime, q: &mut EventQueue<Ev>) {
        let Some((id, exec)) = self.pending_cm2.remove(&xid) else { return };
        let exec_start = SimTime(now.0.saturating_sub(exec.as_nanos()));
        self.trace_proc(id, "cm2", "execute", exec_start, now);
        let resume = {
            let st = self.procs.get_mut(&id).expect("unknown process");
            let Activity::RunningCm2(cm2) = &mut st.current else {
                panic!("CM2 completion outside program");
            };
            cm2.in_flight -= 1;
            if cm2.in_flight == 0 && cm2.waiting_drain {
                cm2.waiting_drain = false;
                // If a CPU job is still outstanding (it cannot be: drain
                // waits only start with no CPU job), resume the interpreter.
                !cm2.cpu_busy
            } else {
                false
            }
        };
        if resume {
            self.step_cm2(id, now, q);
        }
    }

    fn on_node_emit(&mut self, id: ProcId, gen: u64, now: SimTime, q: &mut EventQueue<Ev>) {
        let emit = {
            let st = self.procs.get_mut(&id).expect("unknown process");
            if st.burst_gen != gen {
                return; // emission for a burst that already ended
            }
            let Activity::Bursting(b) = &mut st.current else {
                return; // phase already over
            };
            if b.issued >= b.total {
                return;
            }
            b.issued += 1;
            (b.words, b.issued < b.total)
        };
        let (words, more) = emit;
        match self.cfg.paragon.path {
            CommPath::OneHop => {
                let wid = self.ids.next_xfer();
                self.pending_wire.insert(wid, WireKind::Inbound(id));
                self.wire.enqueue(now, wid, self.cfg.paragon.wire_service(words));
                self.resched_wire(q);
            }
            CommPath::TwoHops => {
                let nid = self.ids.next_xfer();
                self.pending_nx.insert(nid, WireKind::Inbound(id));
                self.nx.enqueue(now, nid, self.cfg.paragon.nx_service(words));
                self.resched_nx(q);
            }
        }
        // The next emission is triggered by this message clearing the wire
        // (see the Inbound arm of on_wire_done), not by a timer: the node
        // is flow-controlled, so the wire backlog stays bounded.
        let _ = more;
    }

    // -- helpers ---------------------------------------------------------

    fn burst_words(&self, id: ProcId) -> u64 {
        let st = self.procs.get(&id).expect("unknown process");
        let Activity::Bursting(b) = &st.current else {
            panic!("burst_words outside burst");
        };
        b.words
    }

    fn trace_proc(&mut self, id: ProcId, lane: &str, label: &str, start: SimTime, end: SimTime) {
        if self.tracer.is_enabled() {
            let name = self.procs.get(&id).map(|s| s.name.clone()).unwrap_or_default();
            let lane = format!("{lane}:{name}");
            self.tracer.record(&lane, label, start, end);
        }
    }
}

/// Helper: rebuild the Phase that a parked burst represents.
fn burst_phase(b: &BurstState) -> Phase {
    if b.dir.is_outbound() {
        Phase::Send { count: b.total, words: b.words, dir: b.dir }
    } else {
        Phase::Recv { count: b.total, words: b.words, dir: b.dir }
    }
}

impl Model for PlatformModel {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, q: &mut EventQueue<Ev>) {
        match event {
            Ev::Cpu(gen) => {
                let done = self.cpu.on_event(now, gen);
                for job in done {
                    self.on_cpu_done(job, now, q);
                }
                self.resched_cpu(q);
            }
            Ev::Wire(gen) => {
                if let Some(xid) = self.wire.on_event(now, gen) {
                    self.on_wire_done(xid, now, q);
                }
                self.resched_wire(q);
            }
            Ev::Nx(gen) => {
                if let Some(xid) = self.nx.on_event(now, gen) {
                    self.on_nx_done(xid, now, q);
                }
                self.resched_nx(q);
            }
            Ev::Cm2(gen) => {
                if let Some(xid) = self.cm2_fifo.on_event(now, gen) {
                    self.on_cm2_done(xid, now, q);
                }
                self.resched_cm2(q);
            }
            Ev::Disk(gen) => {
                if let Some(xid) = self.disk.on_event(now, gen) {
                    if let Some(id) = self.pending_disk.remove(&xid) {
                        self.complete_phase(id, now, q);
                    }
                }
                self.resched_disk(q);
            }
            Ev::Wake(id) => {
                let action = {
                    let st = self.procs.get_mut(&id).expect("unknown process");
                    match st.current {
                        Activity::Unborn => {
                            st.started = now;
                            0
                        }
                        Activity::Sleeping | Activity::BackendComputing => 1,
                        _ => 2, // stale wake
                    }
                };
                match action {
                    0 => self.advance(id, now, q),
                    1 => self.complete_phase(id, now, q),
                    _ => {}
                }
            }
            Ev::NodeEmit(id, gen) => self.on_node_emit(id, gen, now, q),
        }
    }
}

// ---------------------------------------------------------------------------
// Public wrapper
// ---------------------------------------------------------------------------

/// A runnable coupled-platform simulation.
pub struct Platform {
    eng: Engine<PlatformModel>,
}

impl Platform {
    /// Builds a platform from a configuration and a root seed.
    pub fn new(cfg: PlatformConfig, seed: u64) -> Self {
        Platform { eng: Engine::new(PlatformModel::new(cfg, seed)) }
    }

    /// Enables span tracing (do this before running).
    pub fn enable_trace(&mut self) {
        self.eng.model.tracer = Tracer::enabled();
    }

    /// The recorded trace.
    pub fn tracer(&self) -> &Tracer {
        &self.eng.model.tracer
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// Spawns an application starting immediately.
    pub fn spawn(&mut self, app: Box<dyn AppProcess>) -> ProcId {
        self.spawn_at(app, self.eng.now())
    }

    /// Spawns an application starting at `at`.
    pub fn spawn_at(&mut self, app: Box<dyn AppProcess>, at: SimTime) -> ProcId {
        let id = self.eng.model.spawn(app, at);
        self.eng.schedule(at, Ev::Wake(id));
        id
    }

    /// Runs until `probe` finishes; returns its completion time, or `None`
    /// if the event queue drained first (a stall — usually a scenario bug).
    pub fn run_until_done(&mut self, probe: ProcId) -> Option<SimTime> {
        loop {
            if let Some(t) = self.completion(probe) {
                return Some(t);
            }
            if !self.eng.step() {
                return self.completion(probe);
            }
        }
    }

    /// Runs until the given deadline (events after it stay pending).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.eng.run_until(deadline)
    }

    /// Completion time of a process, if it has finished.
    pub fn completion(&self, id: ProcId) -> Option<SimTime> {
        self.eng.model.procs.get(&id).and_then(|s| s.finished)
    }

    /// Start-to-finish elapsed time of a finished process.
    pub fn elapsed(&self, id: ProcId) -> Option<SimDuration> {
        let st = self.eng.model.procs.get(&id)?;
        st.finished.map(|end| end - st.started)
    }

    /// The per-phase records of a process, in execution order.
    pub fn records(&self, id: ProcId) -> &[PhaseRecord] {
        self.eng.model.procs.get(&id).map(|s| s.records.as_slice()).unwrap_or(&[])
    }

    /// Sum of elapsed time over this process's phases of `kind`.
    pub fn phase_time(&self, id: ProcId, kind: PhaseKind) -> SimDuration {
        self.records(id)
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.elapsed())
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Number of events processed so far (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.eng.events_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::phase::ScriptedApp;

    fn cfg_ps() -> PlatformConfig {
        PlatformConfig {
            frontend: crate::config::FrontendParams::processor_sharing(),
            ..Default::default()
        }
    }

    fn secs(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }

    #[test]
    fn single_compute_phase_runs_dedicated() {
        let mut p = Platform::new(cfg_ps(), 1);
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![Phase::Compute(SimDuration::from_secs(2))],
        )));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        assert!((end.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(p.records(probe).len(), 1);
    }

    #[test]
    fn p_hogs_slow_compute_by_p_plus_one() {
        for p_extra in 0..4u64 {
            let mut p = Platform::new(cfg_ps(), 1);
            for i in 0..p_extra {
                p.spawn(Box::new(ScriptedApp::new(
                    format!("hog{i}"),
                    vec![Phase::Compute(SimDuration::from_secs(1000))],
                )));
            }
            let probe = p.spawn(Box::new(ScriptedApp::new(
                "probe",
                vec![Phase::Compute(SimDuration::from_secs(1))],
            )));
            let end = p.run_until_done(probe).expect("probe ran to completion");
            let expect = (p_extra + 1) as f64;
            assert!((end.as_secs_f64() - expect).abs() < 1e-6, "p={p_extra}: {end} vs {expect}");
        }
    }

    #[test]
    fn cm2_transfer_time_matches_alpha_beta_law() {
        let cfg = cfg_ps();
        let mut p = Platform::new(cfg, 1);
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![Phase::Send { count: 100, words: 500, dir: Direction::ToCm2 }],
        )));
        p.run_until_done(probe).expect("probe ran to completion");
        let t = secs(p.phase_time(probe, PhaseKind::Send));
        let per_msg =
            cfg.cm2.xfer_alpha_to.as_secs_f64() + 500.0 * cfg.cm2.xfer_per_word_to.as_secs_f64();
        assert!((t - 100.0 * per_msg).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn cm2_transfer_slows_by_p_plus_one_under_hogs() {
        let run = |hogs: usize| -> f64 {
            let mut p = Platform::new(cfg_ps(), 1);
            for i in 0..hogs {
                p.spawn(Box::new(ScriptedApp::new(
                    format!("hog{i}"),
                    vec![Phase::Compute(SimDuration::from_secs(10_000))],
                )));
            }
            let probe = p.spawn(Box::new(ScriptedApp::new(
                "probe",
                vec![Phase::Send { count: 200, words: 1000, dir: Direction::ToCm2 }],
            )));
            p.run_until_done(probe).expect("probe ran to completion");
            secs(p.phase_time(probe, PhaseKind::Send))
        };
        let t0 = run(0);
        let t3 = run(3);
        assert!((t3 / t0 - 4.0).abs() < 0.01, "ratio {}", t3 / t0);
    }

    #[test]
    fn cm2_program_pipeline_and_idle_accounting() {
        let ms = SimDuration::from_millis;
        // serial 10ms, parallel 30ms, sync, serial 10ms: the second serial
        // waits for the parallel to finish.
        let prog = crate::phase::Cm2Program::new(vec![
            Cm2Instr::Serial(ms(10)),
            Cm2Instr::Parallel(ms(30)),
            Cm2Instr::Sync,
            Cm2Instr::Serial(ms(10)),
        ]);
        let mut cfg = cfg_ps();
        cfg.cm2.instr_dispatch = SimDuration::ZERO;
        let mut p = Platform::new(cfg, 1);
        let probe = p.spawn(Box::new(ScriptedApp::new("probe", vec![Phase::Cm2Program(prog)])));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        // 10 (serial) + 30 (parallel) + 10 (serial) = 50ms.
        assert!((end.as_secs_f64() - 0.050).abs() < 1e-9, "end {end}");
    }

    #[test]
    fn cm2_overlap_hides_serial_behind_parallel() {
        let ms = SimDuration::from_millis;
        // parallel 50ms then serial 20ms with no sync: they overlap.
        let prog = crate::phase::Cm2Program::new(vec![
            Cm2Instr::Parallel(ms(50)),
            Cm2Instr::Serial(ms(20)),
        ]);
        let mut cfg = cfg_ps();
        cfg.cm2.instr_dispatch = SimDuration::ZERO;
        let mut p = Platform::new(cfg, 1);
        let probe = p.spawn(Box::new(ScriptedApp::new("probe", vec![Phase::Cm2Program(prog)])));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        assert!((end.as_secs_f64() - 0.050).abs() < 1e-9, "end {end}");
    }

    #[test]
    fn cm2_serial_stream_slowed_by_hogs_when_serial_bound() {
        let ms = SimDuration::from_millis;
        let mk = |n: usize| {
            let mut instrs = Vec::new();
            for _ in 0..n {
                instrs.push(Cm2Instr::Serial(ms(10)));
                instrs.push(Cm2Instr::Parallel(ms(1)));
                instrs.push(Cm2Instr::Sync);
            }
            crate::phase::Cm2Program::new(instrs)
        };
        let run = |hogs: usize| -> f64 {
            let mut cfg = cfg_ps();
            cfg.cm2.instr_dispatch = SimDuration::ZERO;
            let mut p = Platform::new(cfg, 1);
            for i in 0..hogs {
                p.spawn(Box::new(ScriptedApp::new(
                    format!("hog{i}"),
                    vec![Phase::Compute(SimDuration::from_secs(10_000))],
                )));
            }
            let probe =
                p.spawn(Box::new(ScriptedApp::new("probe", vec![Phase::Cm2Program(mk(50))])));
            p.run_until_done(probe).expect("probe ran to completion").as_secs_f64()
        };
        let t0 = run(0);
        let t3 = run(3);
        // Serial-bound: the model predicts max(parallel-path, serial×4).
        // serial = 0.5s, parallel = 0.05s; dedicated ≈ 0.55, loaded ≈ 2.0+.
        assert!((t3 / t0 - 2.0 / 0.55).abs() < 0.15, "t0={t0} t3={t3}");
    }

    #[test]
    fn paragon_send_burst_stop_and_wait_with_unit_window() {
        let cfg = cfg_ps(); // send_window = 1 by default
        let mut p = Platform::new(cfg, 1);
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![Phase::Send { count: 100, words: 200, dir: Direction::ToParagon }],
        )));
        p.run_until_done(probe).expect("probe ran to completion");
        let t = secs(p.phase_time(probe, PhaseKind::Send));
        let conv = cfg.paragon.conv_demand_out(200).as_secs_f64();
        let wire = (cfg.paragon.wire_service(200) + cfg.paragon.node_overhead).as_secs_f64();
        // Blocking send: every message pays conversion *then* wire.
        let expect = 100.0 * (conv + wire);
        assert!((t - expect).abs() / expect < 0.02, "t={t} expect={expect}");
    }

    #[test]
    fn paragon_send_burst_pipelines_with_large_window() {
        let mut cfg = cfg_ps();
        cfg.paragon.send_window = 1000;
        let mut p = Platform::new(cfg, 1);
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![Phase::Send { count: 100, words: 200, dir: Direction::ToParagon }],
        )));
        p.run_until_done(probe).expect("probe ran to completion");
        let t = secs(p.phase_time(probe, PhaseKind::Send));
        let conv = cfg.paragon.conv_demand_out(200).as_secs_f64();
        let wire = (cfg.paragon.wire_service(200) + cfg.paragon.node_overhead).as_secs_f64();
        // Pipelined: ≈ serialized bottleneck stage + one fill of the other.
        let bottleneck = conv.max(wire);
        let expect = 100.0 * bottleneck + conv.min(wire);
        assert!((t - expect).abs() / expect < 0.05, "t={t} expect={expect}");
    }

    #[test]
    fn paragon_recv_burst_completes_all_conversions() {
        let cfg = cfg_ps();
        let mut p = Platform::new(cfg, 1);
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![Phase::Recv { count: 50, words: 200, dir: Direction::FromParagon }],
        )));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        assert!(end.as_secs_f64() > 0.0);
        let t = secs(p.phase_time(probe, PhaseKind::Recv));
        // Lower bound: 50 messages over the wire serialized.
        let wire = cfg.paragon.wire_service(200).as_secs_f64();
        assert!(t >= 50.0 * wire, "t={t}");
    }

    #[test]
    fn two_hops_is_slower_than_one_hop() {
        let run = |cfg: PlatformConfig| -> f64 {
            let mut p = Platform::new(cfg, 1);
            let probe = p.spawn(Box::new(ScriptedApp::new(
                "probe",
                vec![Phase::Send { count: 100, words: 500, dir: Direction::ToParagon }],
            )));
            p.run_until_done(probe).expect("probe ran to completion");
            secs(p.phase_time(probe, PhaseKind::Send))
        };
        let mut one = cfg_ps();
        one.paragon.path = CommPath::OneHop;
        let mut two = cfg_ps();
        two.paragon.path = CommPath::TwoHops;
        assert!(run(two) > run(one));
    }

    #[test]
    fn wire_is_shared_between_processes() {
        // Two processes sending concurrently contend for the wire. Zero
        // conversion cost isolates the wire: with negligible CPU stages the
        // two senders alternate messages and the probe takes ~2× as long.
        let mut cfg = cfg_ps();
        cfg.paragon.conv_alpha = SimDuration::ZERO;
        cfg.paragon.conv_per_word_out = SimDuration::ZERO;
        cfg.paragon.conv_per_word_in = SimDuration::ZERO;
        cfg.paragon.conv_per_word_in_overflow = SimDuration::ZERO;
        let solo = {
            let mut p = Platform::new(cfg, 1);
            let probe = p.spawn(Box::new(ScriptedApp::new(
                "probe",
                vec![Phase::Send { count: 200, words: 1000, dir: Direction::ToParagon }],
            )));
            p.run_until_done(probe).expect("probe ran to completion");
            secs(p.phase_time(probe, PhaseKind::Send))
        };
        let contended = {
            let mut p = Platform::new(cfg, 1);
            p.spawn(Box::new(ScriptedApp::new(
                "rival",
                vec![Phase::Send { count: 10_000, words: 1000, dir: Direction::ToParagon }],
            )));
            let probe = p.spawn(Box::new(ScriptedApp::new(
                "probe",
                vec![Phase::Send { count: 200, words: 1000, dir: Direction::ToParagon }],
            )));
            p.run_until_done(probe).expect("probe ran to completion");
            secs(p.phase_time(probe, PhaseKind::Send))
        };
        assert!(contended > 1.8 * solo, "contended {contended} vs solo {solo}");
    }

    #[test]
    fn cm2_sequencer_is_exclusive() {
        let ms = SimDuration::from_millis;
        let prog = crate::phase::Cm2Program::new(vec![Cm2Instr::Parallel(ms(100))]);
        let mut cfg = cfg_ps();
        cfg.cm2.instr_dispatch = SimDuration::ZERO;
        let mut p = Platform::new(cfg, 1);
        let a = p.spawn(Box::new(ScriptedApp::new("a", vec![Phase::Cm2Program(prog.clone())])));
        let b = p.spawn(Box::new(ScriptedApp::new("b", vec![Phase::Cm2Program(prog)])));
        let ta = p.run_until_done(a).expect("app a ran to completion");
        let tb = p.run_until_done(b).expect("app b ran to completion");
        // b waits for a: completions at 100ms and 200ms.
        assert!((ta.as_secs_f64() - 0.1).abs() < 1e-9);
        assert!((tb.as_secs_f64() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn sleep_and_backend_compute_elapse_wall_time() {
        let mut p = Platform::new(cfg_ps(), 1);
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![
                Phase::Sleep(SimDuration::from_secs(1)),
                Phase::BackendCompute(SimDuration::from_secs(2)),
            ],
        )));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        assert!((end.as_secs_f64() - 3.0).abs() < 1e-9);
        assert_eq!(p.records(probe).len(), 2);
    }

    #[test]
    fn empty_burst_completes_immediately() {
        let mut p = Platform::new(cfg_ps(), 1);
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![Phase::Send { count: 0, words: 100, dir: Direction::ToParagon }],
        )));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn round_robin_scheduler_approximates_ps() {
        let mut cfg = PlatformConfig::default(); // RR by default
        cfg.frontend.ctx_switch = SimDuration::ZERO;
        let mut p = Platform::new(cfg, 1);
        for i in 0..3 {
            p.spawn(Box::new(ScriptedApp::new(
                format!("hog{i}"),
                vec![Phase::Compute(SimDuration::from_secs(1000))],
            )));
        }
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![Phase::Compute(SimDuration::from_secs(1))],
        )));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        assert!((end.as_secs_f64() - 4.0).abs() < 0.1, "end {end}");
    }

    #[test]
    fn trace_records_cm2_interleaving() {
        let ms = SimDuration::from_millis;
        let prog = crate::phase::Cm2Program::new(vec![
            Cm2Instr::Serial(ms(5)),
            Cm2Instr::Parallel(ms(10)),
            Cm2Instr::Sync,
            Cm2Instr::Serial(ms(5)),
        ]);
        let mut cfg = cfg_ps();
        cfg.cm2.instr_dispatch = SimDuration::ZERO;
        let mut p = Platform::new(cfg, 1);
        p.enable_trace();
        let probe = p.spawn(Box::new(ScriptedApp::new("probe", vec![Phase::Cm2Program(prog)])));
        p.run_until_done(probe).expect("probe ran to completion");
        let tr = p.tracer();
        assert_eq!(tr.lane_label_time("sun:probe", "serial"), ms(10));
        assert_eq!(tr.lane_label_time("cm2:probe", "execute"), ms(10));
    }
}

#[cfg(test)]
mod disk_tests {
    use super::*;
    use crate::config::PlatformConfig;
    use crate::phase::ScriptedApp;

    fn cfg_ps() -> PlatformConfig {
        PlatformConfig {
            frontend: crate::config::FrontendParams::processor_sharing(),
            ..Default::default()
        }
    }

    #[test]
    fn disk_io_takes_seek_plus_transfer() {
        let cfg = cfg_ps();
        let mut p = Platform::new(cfg, 1);
        let probe =
            p.spawn(Box::new(ScriptedApp::new("probe", vec![Phase::DiskIo { words: 1_000_000 }])));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        let expect = cfg.disk.service(1_000_000).as_secs_f64();
        assert!((end.as_secs_f64() - expect).abs() < 1e-9, "end {end}");
        assert_eq!(p.records(probe)[0].kind, PhaseKind::DiskIo);
    }

    #[test]
    fn disk_is_shared_fifo() {
        let cfg = cfg_ps();
        let mut p = Platform::new(cfg, 1);
        let a = p.spawn(Box::new(ScriptedApp::new("a", vec![Phase::DiskIo { words: 500_000 }])));
        let b = p.spawn(Box::new(ScriptedApp::new("b", vec![Phase::DiskIo { words: 500_000 }])));
        let ta = p.run_until_done(a).expect("app a ran to completion");
        let tb = p.run_until_done(b).expect("app b ran to completion");
        let one = cfg.disk.service(500_000).as_secs_f64();
        assert!((ta.as_secs_f64() - one).abs() < 1e-9);
        assert!((tb.as_secs_f64() - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn disk_io_does_not_consume_cpu() {
        // An I/O phase and a compute phase overlap freely: a compute probe
        // running beside a disk-heavy process finishes at dedicated speed.
        let cfg = cfg_ps();
        let mut p = Platform::new(cfg, 1);
        p.spawn(Box::new(ScriptedApp::new("io", vec![Phase::DiskIo { words: 10_000_000 }])));
        let probe = p.spawn(Box::new(ScriptedApp::new(
            "probe",
            vec![Phase::Compute(SimDuration::from_secs(1))],
        )));
        let end = p.run_until_done(probe).expect("probe ran to completion");
        assert!((end.as_secs_f64() - 1.0).abs() < 1e-9, "end {end}");
    }
}
