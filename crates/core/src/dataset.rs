//! Application-dependent communication descriptions.
//!
//! The paper parameterizes communication as *data sets*: groups of
//! same-sized messages. `Nᵢ` messages of `sizeᵢ` words each cross the link
//! for the i-th data set. These values are application-dependent — supplied
//! by the user or derived from the problem size (e.g. an `M × M` matrix sent
//! row-by-row is one data set of `M` messages of `M` words).

use serde::{Deserialize, Serialize};

/// A group of same-sized messages: `messages` transfers of `words` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataSet {
    /// Number of messages in the group (`Nᵢ`).
    pub messages: u64,
    /// Words per message (`sizeᵢ`).
    pub words: u64,
}

impl DataSet {
    /// A data set of `messages` messages of `words` words each.
    pub const fn new(messages: u64, words: u64) -> Self {
        DataSet { messages, words }
    }

    /// A single message of `words` words.
    pub const fn single(words: u64) -> Self {
        DataSet { messages: 1, words }
    }

    /// An `m × n` matrix transferred one row per message: `m` messages of
    /// `n` words.
    pub const fn matrix_rows(m: u64, n: u64) -> Self {
        DataSet { messages: m, words: n }
    }

    /// A burst in the style of the paper's ping-pong benchmark:
    /// `count` messages of `words` words.
    pub const fn burst(count: u64, words: u64) -> Self {
        DataSet { messages: count, words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(DataSet::single(10), DataSet { messages: 1, words: 10 });
        assert_eq!(DataSet::matrix_rows(4, 5), DataSet { messages: 4, words: 5 });
        assert_eq!(DataSet::burst(1000, 200).messages, 1000);
    }
}
