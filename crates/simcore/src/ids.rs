//! Small integer id newtypes used across resources.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A unit of CPU demand scheduled on a [`crate::cpu::Cpu`].
    JobId,
    "job"
);
id_type!(
    /// A transfer occupying a [`crate::fifo::FifoServer`].
    XferId,
    "xfer"
);
id_type!(
    /// A simulated application process.
    ProcId,
    "proc"
);

/// Monotonic id allocator.
#[derive(Debug, Default, Clone)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Fresh allocator starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next raw id.
    pub(crate) fn next_raw(&mut self) -> u64 {
        let v = self.next;
        self.next += 1;
        v
    }

    /// Returns the next [`JobId`].
    pub fn next_job(&mut self) -> JobId {
        JobId(self.next_raw())
    }

    /// Returns the next [`XferId`].
    pub fn next_xfer(&mut self) -> XferId {
        XferId(self.next_raw())
    }

    /// Returns the next [`ProcId`].
    pub fn next_proc(&mut self) -> ProcId {
        ProcId(self.next_raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_and_ordered() {
        let mut g = IdGen::new();
        let a = g.next_job();
        let b = g.next_job();
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(JobId(7).to_string(), "job7");
        assert_eq!(XferId(1).to_string(), "xfer1");
        assert_eq!(ProcId(0).to_string(), "proc0");
    }
}
