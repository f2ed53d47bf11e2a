//! Simulation time, in femtoseconds like VHDL's finest resolution.
//!
//! [`SimTime`] is an absolute instant; [`Duration`] is a relative span.
//! Keeping them as distinct newtypes prevents the classic
//! absolute/relative mix-up in scheduling code.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A relative span of simulated time.
///
/// # Examples
///
/// ```
/// use cosma_sim::Duration;
/// assert_eq!(Duration::from_ns(1), Duration::from_ps(1000));
/// assert_eq!(Duration::from_ns(3).as_fs(), 3_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration(u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// From femtoseconds.
    #[must_use]
    pub const fn from_fs(fs: u64) -> Self {
        Duration(fs)
    }

    /// From picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps * 1_000)
    }

    /// From nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1_000_000)
    }

    /// From microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000_000_000)
    }

    /// From milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000_000_000)
    }

    /// The span in femtoseconds.
    #[must_use]
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// The span in whole nanoseconds (truncating).
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The period of a clock of the given frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[must_use]
    pub fn from_freq_hz(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be nonzero");
        Duration(1_000_000_000_000_000 / hz)
    }

    /// Integer-scaled span.
    #[must_use]
    pub const fn times(self, n: u64) -> Self {
        Duration(self.0 * n)
    }

    /// Halved span (clock half-periods).
    #[must_use]
    pub const fn halved(self) -> Self {
        Duration(self.0 / 2)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_fs(self.0, f)
    }
}

/// A rational period ratio between a clock domain and the base domain.
///
/// A domain with ratio `num/den` has a period `num/den` times the base
/// period: `ClockRatio::new(4, 1)` is a domain running at one quarter
/// of the base rate (period 4× the base), `ClockRatio::new(1, 2)` runs
/// at twice the base rate. All domain clocks remain ordinary timeout
/// streams on the one global femtosecond axis — the kernel's
/// [`next_instant`](crate::Simulator::next_instant) walk and its timer
/// wheel interleave edges of arbitrarily-related periods without any
/// special casing, which is exactly why a rational ratio (rather than
/// an integer divider) is safe at this layer.
///
/// # Examples
///
/// ```
/// use cosma_sim::{ClockRatio, Duration};
/// let slow = ClockRatio::new(4, 1);
/// assert_eq!(slow.scale(Duration::from_ns(100)), Duration::from_ns(400));
/// let fast = ClockRatio::new(1, 2);
/// assert_eq!(fast.scale(Duration::from_ns(100)), Duration::from_ns(50));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockRatio {
    num: u64,
    den: u64,
}

impl ClockRatio {
    /// The identity ratio (the base domain itself).
    pub const UNIT: ClockRatio = ClockRatio { num: 1, den: 1 };

    /// A ratio of `num/den`; both components must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if either component is zero. Use [`ClockRatio::try_new`]
    /// for fallible construction.
    #[must_use]
    pub fn new(num: u64, den: u64) -> Self {
        Self::try_new(num, den).expect("clock ratio components must be nonzero")
    }

    /// A ratio of `num/den`, or `None` if either component is zero (the
    /// unsigned types already exclude negative rates).
    #[must_use]
    pub const fn try_new(num: u64, den: u64) -> Option<Self> {
        if num == 0 || den == 0 {
            None
        } else {
            Some(ClockRatio { num, den })
        }
    }

    /// The numerator (period multiplier).
    #[must_use]
    pub const fn num(self) -> u64 {
        self.num
    }

    /// The denominator (period divisor).
    #[must_use]
    pub const fn den(self) -> u64 {
        self.den
    }

    /// Whether this is the identity ratio.
    #[must_use]
    pub const fn is_unit(self) -> bool {
        self.num == self.den
    }

    /// Scales a base-domain span into this domain: `d * num / den`,
    /// truncated to whole femtoseconds. The product is exact (128-bit).
    ///
    /// # Panics
    ///
    /// Panics if the scaled span does not fit in `u64` femtoseconds; use
    /// [`ClockRatio::checked_scale`] for ratios from outside the program.
    #[must_use]
    pub const fn scale(self, d: Duration) -> Duration {
        match self.checked_scale(d) {
            Some(scaled) => scaled,
            None => panic!("scaled clock period does not fit in u64 femtoseconds"),
        }
    }

    /// [`ClockRatio::scale`], or `None` when the scaled span does not
    /// fit in `u64` femtoseconds.
    #[must_use]
    pub const fn checked_scale(self, d: Duration) -> Option<Duration> {
        let fs = d.0 as u128 * self.num as u128 / self.den as u128;
        if fs > u64::MAX as u128 {
            None
        } else {
            Some(Duration(fs as u64))
        }
    }
}

impl fmt::Display for ClockRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.num, self.den)
    }
}

/// An absolute instant of simulated time (femtoseconds since start).
///
/// # Examples
///
/// ```
/// use cosma_sim::{SimTime, Duration};
/// let t = SimTime::ZERO + Duration::from_ns(5);
/// assert_eq!(t.as_fs(), 5_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Maximum representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From raw femtoseconds.
    #[must_use]
    pub const fn from_fs(fs: u64) -> Self {
        SimTime(fs)
    }

    /// From nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000_000)
    }

    /// Femtoseconds since start.
    #[must_use]
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds since start (truncating).
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span between two instants.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` is after `self`"),
        )
    }

    /// Saturating addition of a span.
    #[must_use]
    pub const fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        format_fs(self.0, f)
    }
}

fn format_fs(fs: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if fs == 0 {
        write!(f, "0")
    } else if fs.is_multiple_of(1_000_000_000_000) {
        write!(f, "{}ms", fs / 1_000_000_000_000)
    } else if fs.is_multiple_of(1_000_000_000) {
        write!(f, "{}us", fs / 1_000_000_000)
    } else if fs.is_multiple_of(1_000_000) {
        write!(f, "{}ns", fs / 1_000_000)
    } else if fs.is_multiple_of(1_000) {
        write!(f, "{}ps", fs / 1_000)
    } else {
        write!(f, "{fs}fs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_ns(1).as_fs(), 1_000_000);
        assert_eq!(Duration::from_us(1).as_fs(), 1_000_000_000);
        assert_eq!(Duration::from_ms(1).as_ns(), 1_000_000);
        assert_eq!(SimTime::from_ns(10).as_ns(), 10);
    }

    #[test]
    fn clock_period_from_frequency() {
        // 10 MHz (the paper's PC-AT bus clock) -> 100 ns period.
        let p = Duration::from_freq_hz(10_000_000);
        assert_eq!(p, Duration::from_ns(100));
        assert_eq!(p.halved(), Duration::from_ns(50));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_frequency_panics() {
        let _ = Duration::from_freq_hz(0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_ns(3) + Duration::from_ns(4);
        assert_eq!(t, SimTime::from_ns(7));
        assert_eq!(t.since(SimTime::from_ns(2)), Duration::from_ns(5));
        assert_eq!(
            Duration::from_ns(5) - Duration::from_ns(2),
            Duration::from_ns(3)
        );
        let mut u = SimTime::ZERO;
        u += Duration::from_ns(1);
        assert_eq!(u, SimTime::from_ns(1));
    }

    #[test]
    #[should_panic(expected = "after")]
    fn since_panics_when_backwards() {
        let _ = SimTime::from_ns(1).since(SimTime::from_ns(2));
    }

    #[test]
    fn display_picks_best_unit() {
        assert_eq!(SimTime::from_ns(100).to_string(), "100ns");
        assert_eq!(Duration::from_ps(5).to_string(), "5ps");
        assert_eq!(Duration::from_us(2).to_string(), "2us");
        assert_eq!(Duration::from_fs(7).to_string(), "7fs");
        assert_eq!(SimTime::ZERO.to_string(), "0");
        assert_eq!(Duration::from_ms(1).to_string(), "1ms");
    }

    #[test]
    fn times_scales() {
        assert_eq!(Duration::from_ns(100).times(3), Duration::from_ns(300));
    }

    #[test]
    fn clock_ratio_scales_periods() {
        let base = Duration::from_ns(100);
        assert_eq!(ClockRatio::UNIT.scale(base), base);
        assert!(ClockRatio::UNIT.is_unit());
        assert!(ClockRatio::new(3, 3).is_unit());
        assert_eq!(ClockRatio::new(4, 1).scale(base), Duration::from_ns(400));
        assert_eq!(ClockRatio::new(1, 4).scale(base), Duration::from_ns(25));
        assert_eq!(ClockRatio::new(3, 2).scale(base), Duration::from_ns(150));
        assert_eq!(ClockRatio::new(3, 2).to_string(), "3:2");
    }

    #[test]
    fn clock_ratio_rejects_zero_components() {
        assert_eq!(ClockRatio::try_new(0, 1), None);
        assert_eq!(ClockRatio::try_new(1, 0), None);
        assert_eq!(ClockRatio::try_new(0, 0), None);
        assert!(ClockRatio::try_new(7, 2).is_some());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn clock_ratio_new_panics_on_zero() {
        let _ = ClockRatio::new(0, 5);
    }

    #[test]
    fn clock_ratio_scale_avoids_overflow() {
        // A span near u64::MAX femtoseconds times 3/3 must round-trip:
        // the 128-bit intermediate keeps the product from wrapping.
        let big = Duration::from_fs(u64::MAX / 2);
        assert_eq!(ClockRatio::new(3, 3).scale(big), big);
        assert_eq!(
            ClockRatio::new(2, 1).scale(big),
            Duration::from_fs(u64::MAX - 1)
        );
    }

    #[test]
    fn clock_ratio_checked_scale_refuses_what_u64_cannot_hold() {
        // 100 ns times 2e11 is 2e19 fs, past u64::MAX (about 1.8e19);
        // truncated to 64 bits it would read 1,553,255,926,290,448,384.
        let base = Duration::from_ns(100);
        assert_eq!(
            ClockRatio::new(200_000_000_000, 1).checked_scale(base),
            None
        );
        let max = Duration::from_fs(u64::MAX);
        assert_eq!(ClockRatio::new(2, 2).checked_scale(max), Some(max));
        assert_eq!(ClockRatio::new(3, 2).checked_scale(max), None);
        assert_eq!(
            ClockRatio::new(1, 4).checked_scale(base),
            Some(Duration::from_ns(25))
        );
    }

    #[test]
    #[should_panic(expected = "does not fit in u64 femtoseconds")]
    fn clock_ratio_scale_panics_past_u64() {
        let _ = ClockRatio::new(200_000_000_000, 1).scale(Duration::from_ns(100));
    }
}
