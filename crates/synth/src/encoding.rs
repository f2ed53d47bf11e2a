//! FSM state encodings — one of the design choices the paper leaves to
//! the synthesis tool; we implement the three classic schemes, and
//! `cosim_bench`'s `timer_*` `synthesis` rows time each of them.

use std::fmt;

/// State encoding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Encoding {
    /// Dense binary counting code (minimum register bits).
    #[default]
    Binary,
    /// One flip-flop per state (fast decode, more FFs).
    OneHot,
    /// Gray code (single-bit transitions between adjacent states).
    Gray,
}

impl Encoding {
    /// All schemes.
    pub const ALL: [Encoding; 3] = [Encoding::Binary, Encoding::OneHot, Encoding::Gray];

    /// Register width needed for `n` states.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or (for one-hot) exceeds 64 states.
    #[must_use]
    pub fn width(self, n: usize) -> u32 {
        assert!(n > 0, "an FSM has at least one state");
        match self {
            Encoding::Binary | Encoding::Gray => {
                if n <= 1 {
                    1
                } else {
                    32 - (n as u32 - 1).leading_zeros()
                }
            }
            Encoding::OneHot => {
                assert!(n <= 64, "one-hot supports at most 64 states");
                n as u32
            }
        }
    }

    /// The code word for state index `i` of `n` states.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn encode(self, i: usize, n: usize) -> u64 {
        assert!(i < n, "state index out of range");
        match self {
            Encoding::Binary => i as u64,
            Encoding::OneHot => 1u64 << i,
            Encoding::Gray => (i ^ (i >> 1)) as u64,
        }
    }

    /// Decodes a code word back to a state index, if it is a valid code.
    #[must_use]
    pub fn decode(self, code: u64, n: usize) -> Option<usize> {
        (0..n).find(|&i| self.encode(i, n) == code)
    }
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Encoding::Binary => write!(f, "binary"),
            Encoding::OneHot => write!(f, "one-hot"),
            Encoding::Gray => write!(f, "gray"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(Encoding::Binary.width(1), 1);
        assert_eq!(Encoding::Binary.width(2), 1);
        assert_eq!(Encoding::Binary.width(5), 3);
        assert_eq!(Encoding::Gray.width(5), 3);
        assert_eq!(Encoding::OneHot.width(5), 5);
    }

    #[test]
    fn encodings_are_injective() {
        for enc in Encoding::ALL {
            for n in 1..=16 {
                let mut seen = std::collections::HashSet::new();
                for i in 0..n {
                    let c = enc.encode(i, n);
                    assert!(seen.insert(c), "{enc}: duplicate code for {i}/{n}");
                    assert!(c < (1u64 << enc.width(n)) || enc.width(n) == 64);
                    assert_eq!(enc.decode(c, n), Some(i), "{enc}: decode round trip");
                }
            }
        }
    }

    #[test]
    fn gray_adjacent_codes_differ_by_one_bit() {
        for i in 0..15usize {
            let a = Encoding::Gray.encode(i, 16);
            let b = Encoding::Gray.encode(i + 1, 16);
            assert_eq!((a ^ b).count_ones(), 1, "{i}");
        }
    }

    #[test]
    fn invalid_code_decodes_to_none() {
        assert_eq!(Encoding::OneHot.decode(0b11, 4), None);
        assert_eq!(Encoding::Binary.decode(9, 4), None);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_states_panics() {
        let _ = Encoding::Binary.width(0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Encoding::OneHot.to_string(), "one-hot");
    }
}
