//! The application-facing execution model.
//!
//! A simulated application is a state machine that yields [`Phase`]s; the
//! platform runtime executes each phase against the machine resources and
//! asks for the next one when it completes. This keeps workloads (the
//! `hetload` crate) decoupled from platform mechanics.

use serde::{Deserialize, Serialize};
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};

/// Which link a transfer crosses, and in which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Front-end → CM2 over the dedicated channel (front-end CPU driven).
    ToCm2,
    /// CM2 → front-end over the dedicated channel (front-end CPU driven).
    FromCm2,
    /// Front-end → Paragon over the Ethernet.
    ToParagon,
    /// Paragon → front-end over the Ethernet.
    FromParagon,
}

impl Direction {
    /// True for the CM2 channel directions.
    pub(crate) fn is_cm2(self) -> bool {
        matches!(self, Direction::ToCm2 | Direction::FromCm2)
    }

    /// True for transfers leaving the front-end.
    pub fn is_outbound(self) -> bool {
        matches!(self, Direction::ToCm2 | Direction::ToParagon)
    }
}

/// One instruction of a CM2 program, as seen by the sequencer interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cm2Instr {
    /// Serial/scalar work executed on the front-end CPU (time-shared).
    Serial(SimDuration),
    /// A parallel instruction executed by the CM2 processors. The
    /// front-end issues it (paying the dispatch cost as serial work) and
    /// may run ahead while the CM2 executes.
    Parallel(SimDuration),
    /// Front-end blocks until the CM2 drains its instruction queue — e.g.
    /// waiting for the result of a reduction.
    Sync,
}

/// A full CM2 program plus its dedicated-cost decomposition helpers.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Cm2Program {
    /// The instruction stream.
    pub instrs: Vec<Cm2Instr>,
}

impl Cm2Program {
    /// Wraps an instruction stream.
    pub fn new(instrs: Vec<Cm2Instr>) -> Self {
        Cm2Program { instrs }
    }

    /// Total front-end serial demand, **excluding** per-instruction
    /// dispatch costs (add those with [`Cm2Program::serial_total`]).
    pub fn serial_instr_total(&self) -> SimDuration {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Cm2Instr::Serial(d) => Some(*d),
                _ => None,
            })
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Total front-end serial demand including the dispatch cost charged
    /// for each parallel instruction — the paper's `dserial_cm2`.
    pub fn serial_total(&self, dispatch: SimDuration) -> SimDuration {
        self.serial_instr_total() + dispatch * self.parallel_count()
    }

    /// Total CM2 execution demand — the paper's `dcomp_cm2`.
    pub fn parallel_total(&self) -> SimDuration {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Cm2Instr::Parallel(d) => Some(*d),
                _ => None,
            })
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Number of parallel instructions.
    pub fn parallel_count(&self) -> u64 {
        self.instrs.iter().filter(|i| matches!(i, Cm2Instr::Parallel(_))).count() as u64
    }
}

/// One step of an application's lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// Dedicated-time CPU demand on the (time-shared) front-end.
    Compute(SimDuration),
    /// Dedicated-time computation on the back-end's space-shared
    /// partition (unaffected by front-end contention).
    BackendCompute(SimDuration),
    /// Send `count` messages of `words` words in an outbound direction.
    Send {
        /// Messages in the burst.
        count: u64,
        /// Words per message.
        words: u64,
        /// Must be an outbound direction.
        dir: Direction,
    },
    /// Receive `count` messages of `words` words from the back-end
    /// (the remote side emits them when this phase starts).
    Recv {
        /// Messages in the burst.
        count: u64,
        /// Words per message.
        words: u64,
        /// Must be an inbound direction.
        dir: Direction,
    },
    /// Run a CM2 program (acquires the sequencer exclusively).
    Cm2Program(Cm2Program),
    /// One local disk operation of `words` words (queued on the shared
    /// disk; consumes no CPU — the §4 I/O extension).
    DiskIo {
        /// Words transferred by the operation.
        words: u64,
    },
    /// Idle wall-clock time (e.g. staggering a generator's start).
    Sleep(SimDuration),
    /// The application is finished.
    Done,
}

impl Phase {
    /// Short label used in phase records and traces.
    pub fn kind(&self) -> PhaseKind {
        match self {
            Phase::Compute(_) => PhaseKind::Compute,
            Phase::BackendCompute(_) => PhaseKind::BackendCompute,
            Phase::Send { .. } => PhaseKind::Send,
            Phase::Recv { .. } => PhaseKind::Recv,
            Phase::Cm2Program(_) => PhaseKind::Cm2Program,
            Phase::DiskIo { .. } => PhaseKind::DiskIo,
            Phase::Sleep(_) => PhaseKind::Sleep,
            Phase::Done => PhaseKind::Done,
        }
    }
}

/// Discriminant of [`Phase`] for bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum PhaseKind {
    Compute,
    BackendCompute,
    Send,
    Recv,
    Cm2Program,
    DiskIo,
    Sleep,
    Done,
}

/// Start/end record of one executed phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// What kind of phase ran.
    pub kind: PhaseKind,
    /// When it started.
    pub start: SimTime,
    /// When it completed.
    pub end: SimTime,
}

impl PhaseRecord {
    /// Elapsed time of the phase.
    pub fn elapsed(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A simulated application: a resumable phase generator.
pub trait AppProcess {
    /// Returns the next phase to execute. `now` is the completion instant
    /// of the previous phase; `rng` is this process's private random
    /// stream. Returning [`Phase::Done`] ends the process.
    fn next_phase(&mut self, now: SimTime, rng: &mut SimRng) -> Phase;

    /// Human-readable name for traces and diagnostics.
    fn name(&self) -> &str {
        "app"
    }
}

/// Blanket impl so closures can serve as quick test apps.
impl<F> AppProcess for F
where
    F: FnMut(SimTime, &mut SimRng) -> Phase,
{
    fn next_phase(&mut self, now: SimTime, rng: &mut SimRng) -> Phase {
        self(now, rng)
    }
}

/// An app that plays a fixed phase script then finishes.
#[derive(Debug, Clone)]
pub struct ScriptedApp {
    name: String,
    phases: std::collections::VecDeque<Phase>,
}

impl ScriptedApp {
    /// Builds a scripted app from a phase list.
    pub fn new(name: impl Into<String>, phases: Vec<Phase>) -> Self {
        ScriptedApp { name: name.into(), phases: phases.into() }
    }
}

impl AppProcess for ScriptedApp {
    fn next_phase(&mut self, _now: SimTime, _rng: &mut SimRng) -> Phase {
        self.phases.pop_front().unwrap_or(Phase::Done)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_totals() {
        let ms = SimDuration::from_millis;
        let prog = Cm2Program::new(vec![
            Cm2Instr::Serial(ms(2)),
            Cm2Instr::Parallel(ms(5)),
            Cm2Instr::Sync,
            Cm2Instr::Serial(ms(3)),
            Cm2Instr::Parallel(ms(7)),
        ]);
        assert_eq!(prog.serial_instr_total(), ms(5));
        assert_eq!(prog.parallel_total(), ms(12));
        assert_eq!(prog.parallel_count(), 2);
        assert_eq!(prog.serial_total(SimDuration::from_micros(500)), ms(6));
    }

    #[test]
    fn direction_predicates() {
        assert!(Direction::ToCm2.is_cm2() && Direction::FromCm2.is_cm2());
        assert!(!Direction::ToParagon.is_cm2());
        assert!(Direction::ToCm2.is_outbound() && Direction::ToParagon.is_outbound());
        assert!(!Direction::FromParagon.is_outbound());
    }

    #[test]
    fn scripted_app_plays_then_done() {
        let mut app = ScriptedApp::new("probe", vec![Phase::Sleep(SimDuration::from_secs(1))]);
        let mut rng = simcore::rng::root_rng(0);
        assert!(matches!(app.next_phase(SimTime::ZERO, &mut rng), Phase::Sleep(_)));
        assert!(matches!(app.next_phase(SimTime::ZERO, &mut rng), Phase::Done));
        assert!(matches!(app.next_phase(SimTime::ZERO, &mut rng), Phase::Done));
    }

    #[test]
    fn phase_kind_mapping() {
        assert_eq!(Phase::Compute(SimDuration::ZERO).kind(), PhaseKind::Compute);
        assert_eq!(Phase::Done.kind(), PhaseKind::Done);
        let r = PhaseRecord { kind: PhaseKind::Send, start: SimTime(10), end: SimTime(30) };
        assert_eq!(r.elapsed(), SimDuration(20));
    }
}
