//! The simulation driver.
//!
//! A [`Model`] owns all mutable world state and interprets events; the
//! [`Engine`] owns the clock and the pending-event set and runs the classic
//! discrete-event loop: pop the earliest event, advance the clock to it,
//! hand it to the model, repeat.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A simulated world: the state plus the event interpreter.
pub trait Model {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at instant `now`. New events are scheduled through
    /// `queue`; scheduling in the past is a bug and panics in the engine.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Discrete-event engine: clock + pending events + a [`Model`].
pub struct Engine<M: Model> {
    /// The simulated world. Public so scenario code can inspect/seed state
    /// between runs.
    pub model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
}

impl<M: Model> Engine<M> {
    /// Wraps a model with a fresh clock and empty event set.
    pub fn new(model: M) -> Self {
        Engine { model, queue: EventQueue::new(), now: SimTime::ZERO, processed: 0 }
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Schedules an initial/external event.
    pub fn schedule(&mut self, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.schedule(at, event);
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, event)) => {
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
                self.processed += 1;
                self.model.handle(at, event, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until the event set drains; returns the final instant.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs until the next event would fire strictly after `deadline`
    /// (those later events stay pending). The clock is left at the time of
    /// the last processed event (or unchanged if none fired).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now
    }

    /// Pending event count (diagnostics).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A model that counts down: each event re-schedules itself `n` times.
    struct Countdown {
        fired: Vec<(SimTime, u32)>,
    }

    impl Model for Countdown {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.fired.push((now, ev));
            if ev > 0 {
                q.schedule(now + SimDuration::from_secs(1), ev - 1);
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime::ZERO, 3);
        let end = eng.run();
        assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(eng.model.fired.len(), 4);
        assert_eq!(eng.events_processed(), 4);
    }

    #[test]
    fn run_until_leaves_later_events_pending() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime::ZERO, 10);
        eng.run_until(SimTime::ZERO + SimDuration::from_secs(4));
        assert_eq!(eng.model.fired.len(), 5); // t=0..4
        assert_eq!(eng.pending(), 1);
        eng.run();
        assert_eq!(eng.model.fired.len(), 11);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime(100), 0);
        eng.run();
        eng.schedule(SimTime(50), 0);
    }
}
