//! A single-server FIFO resource.
//!
//! Models a serialized shared medium — the dedicated Ethernet link between
//! the front-end and the Paragon: one transfer occupies the wire at a time
//! and the rest queue in arrival order. The caller computes each transfer's
//! service time (latency + size / bandwidth) and drives events with the same
//! generation-stamp protocol as [`crate::cpu`].

use crate::cpu::Gen;
use crate::ids::XferId;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One-at-a-time FIFO server.
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    waiting: VecDeque<(XferId, SimDuration)>,
    in_service: Option<(XferId, SimTime)>,
    generation: Gen,
}

impl FifoServer {
    /// An idle server with an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a transfer needing `service` time on the wire. Starts it
    /// immediately if the server is idle.
    pub fn enqueue(&mut self, now: SimTime, id: XferId, service: SimDuration) {
        self.waiting.push_back((id, service));
        self.try_start(now);
    }

    fn try_start(&mut self, now: SimTime) {
        if self.in_service.is_some() {
            return;
        }
        if let Some((id, service)) = self.waiting.pop_front() {
            self.in_service = Some((id, now + service));
            self.generation += 1;
        }
    }

    /// Completion instant of the transfer in service, stamped with the
    /// current generation.
    pub fn next_event(&self) -> Option<(SimTime, Gen)> {
        self.in_service.map(|(_, t)| (t, self.generation))
    }

    /// Delivers a completion event; returns the finished transfer (if the
    /// generation is live) and starts the next one.
    pub fn on_event(&mut self, now: SimTime, gen: Gen) -> Option<XferId> {
        if gen != self.generation {
            return None;
        }
        let (id, end) = self.in_service?;
        if end != now {
            return None;
        }
        self.in_service = None;
        self.try_start(now);
        Some(id)
    }

    /// Transfers waiting plus in service.
    pub fn backlog(&self) -> usize {
        self.waiting.len() + usize::from(self.in_service.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut FifoServer) -> Vec<(XferId, SimTime)> {
        let mut out = Vec::new();
        while let Some((t, gen)) = s.next_event() {
            if let Some(id) = s.on_event(t, gen) {
                out.push((id, t));
            }
        }
        out
    }

    #[test]
    fn serves_in_arrival_order() {
        let mut s = FifoServer::new();
        s.enqueue(SimTime::ZERO, XferId(1), SimDuration::from_secs(2));
        s.enqueue(SimTime::ZERO, XferId(2), SimDuration::from_secs(3));
        s.enqueue(SimTime::ZERO, XferId(3), SimDuration::from_secs(1));
        let done = drain(&mut s);
        assert_eq!(
            done,
            vec![
                (XferId(1), SimTime::ZERO + SimDuration::from_secs(2)),
                (XferId(2), SimTime::ZERO + SimDuration::from_secs(5)),
                (XferId(3), SimTime::ZERO + SimDuration::from_secs(6)),
            ]
        );
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn idle_gap_then_new_arrival() {
        let mut s = FifoServer::new();
        s.enqueue(SimTime::ZERO, XferId(1), SimDuration::from_secs(1));
        let done = drain(&mut s);
        assert_eq!(done.len(), 1);
        // Arrives after an idle gap; service starts at arrival.
        let t5 = SimTime::ZERO + SimDuration::from_secs(5);
        s.enqueue(t5, XferId(2), SimDuration::from_secs(1));
        let (t, gen) = s.next_event().unwrap();
        assert_eq!(t, t5 + SimDuration::from_secs(1));
        assert_eq!(s.on_event(t, gen), Some(XferId(2)));
    }

    #[test]
    fn stale_generation_ignored() {
        let mut s = FifoServer::new();
        s.enqueue(SimTime::ZERO, XferId(1), SimDuration::from_secs(2));
        let (t1, gen1) = s.next_event().unwrap();
        // Finish xfer1 normally; gen bumps when xfer2 starts.
        s.enqueue(SimTime::ZERO, XferId(2), SimDuration::from_secs(2));
        assert_eq!(s.on_event(t1, gen1), Some(XferId(1)));
        // Replaying the old event is harmless.
        assert_eq!(s.on_event(t1, gen1), None);
        assert_eq!(s.backlog(), 1);
    }

    #[test]
    fn backlog_counts_in_service() {
        let mut s = FifoServer::new();
        assert_eq!(s.backlog(), 0);
        s.enqueue(SimTime::ZERO, XferId(1), SimDuration::from_secs(1));
        s.enqueue(SimTime::ZERO, XferId(2), SimDuration::from_secs(1));
        assert_eq!(s.backlog(), 2);
    }
}
