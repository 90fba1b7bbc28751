//! Simulation time.
//!
//! Time is an integer number of **nanoseconds** since simulation start.
//! Integer time makes event ordering exact (no float-comparison ties) and
//! keeps runs bit-for-bit reproducible; at nanosecond resolution the
//! representable horizon is ≈292 years, far beyond the 720-hour VULCAN run
//! in Table I. All user-facing constructors and accessors speak `f64`
//! seconds/hours because the physical models (bandwidths, Weibull
//! inter-arrivals) are naturally real-valued.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const NANOS_PER_SEC: f64 = 1e9;

/// A point in simulated time (nanoseconds since t = 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation origin, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from seconds. Panics if negative or non-finite.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_secs_f64(secs)
    }

    /// Checked f64-seconds → nanosecond conversion: the single blessed
    /// entry point for building a `SimTime` from real-valued seconds.
    /// Panics on negative/non-finite input or clock overflow.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Checked nanosecond → f64-seconds conversion; the inverse of
    /// [`SimTime::from_secs_f64`]. Debug builds assert the value is
    /// exactly representable (see [`nanos_to_secs`]).
    pub fn to_secs_f64(self) -> f64 {
        nanos_to_secs(self.0)
    }

    /// Creates a time from hours. Panics if negative or non-finite.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Raw nanoseconds since t = 0.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.to_secs_f64()
    }

    /// Time as fractional hours.
    pub fn as_hours(self) -> f64 {
        self.as_secs() / 3600.0
    }

    /// Duration elapsed since `earlier`. Panics (debug) / saturates to zero
    /// (release) if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            self >= earlier,
            "since() called with a future reference point ({:?} < {:?})",
            self,
            earlier
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from seconds. Panics if negative or non-finite.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_secs_f64(secs)
    }

    /// Checked f64-seconds → nanosecond conversion (round-to-nearest);
    /// the blessed entry point mirroring [`SimTime::from_secs_f64`].
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Like [`SimDuration::from_secs_f64`] but rounds **up** to the next
    /// whole nanosecond. Use this when the duration is a lower bound —
    /// e.g. the wake-up delay that must cover a fluid transfer's
    /// completion — so rounding can never make an event fire early.
    pub fn from_secs_f64_ceil(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "time values must be finite and non-negative, got {secs}"
        );
        let ns = (secs * NANOS_PER_SEC).ceil();
        assert!(
            ns <= u64::MAX as f64,
            "time value {secs}s overflows the simulation clock"
        );
        // The assertions above establish the range. simlint: allow(no-lossy-time-cast)
        SimDuration(ns as u64)
    }

    /// Checked nanosecond → f64-seconds conversion; the inverse of
    /// [`SimDuration::from_secs_f64`].
    pub fn to_secs_f64(self) -> f64 {
        nanos_to_secs(self.0)
    }

    /// Creates a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.to_secs_f64()
    }

    /// Duration as fractional hours.
    pub fn as_hours(self) -> f64 {
        self.as_secs() / 3600.0
    }

    /// True iff this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

/// Nanoseconds at or below which an f64 holds every integer exactly
/// (2^53 ns ≈ 104 simulated days — well past the 720-hour VULCAN run).
const MAX_EXACT_NANOS: u64 = 1 << 53;

fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time values must be finite and non-negative, got {secs}"
    );
    let ns = secs * NANOS_PER_SEC;
    assert!(
        ns <= u64::MAX as f64,
        "time value {secs}s overflows the simulation clock"
    );
    // The assertions above establish the range. simlint: allow(no-lossy-time-cast)
    ns.round() as u64
}

/// The blessed nanosecond → f64-seconds conversion. Debug builds check
/// the count is small enough for the f64 mantissa to hold it exactly,
/// so accumulated-time readouts cannot silently lose nanoseconds
/// (`u64::MAX` — the "never" sentinel — is exempt).
fn nanos_to_secs(ns: u64) -> f64 {
    debug_assert!(
        ns <= MAX_EXACT_NANOS || ns == u64::MAX,
        "nanosecond count {ns} exceeds exact f64 range; readout would lose precision"
    );
    // Range checked above (debug); division by 1e9 is exact-mantissa safe. simlint: allow(no-lossy-time-cast)
    ns as f64 / NANOS_PER_SEC
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(d.0)
                // Overflowing the 292-year clock is a programming error,
                // not recoverable input. simlint: allow(no-unwrap-in-lib)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(d.0)
                // Subtracting past t=0 is a programming error, not
                // recoverable input. simlint: allow(no-unwrap-in-lib)
                .expect("simulation clock underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(other.0)
                // 292-year span overflow is a programming error, not
                // recoverable input. simlint: allow(no-unwrap-in-lib)
                .expect("duration overflow"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                // Negative spans cannot exist in u64 time; underflow is a
                // programming error. simlint: allow(no-unwrap-in-lib)
                .expect("duration underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: f64) -> SimDuration {
        SimDuration::from_secs(self.as_secs() * k)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: f64) -> SimDuration {
        assert!(k > 0.0, "division of a duration by a non-positive factor");
        SimDuration::from_secs(self.as_secs() / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs();
        if s >= 3600.0 {
            write!(f, "{:.2}h", s / 3600.0)
        } else if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else {
            write!(f, "{:.1}µs", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_secs(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
        let h = SimTime::from_hours(2.0);
        assert!((h.as_hours() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t, SimTime::from_secs(15.0));
        assert_eq!(
            t.since(SimTime::from_secs(10.0)),
            SimDuration::from_secs(5.0)
        );
        assert_eq!(t - SimDuration::from_secs(15.0), SimTime::ZERO);
        let d = SimDuration::from_secs(4.0) - SimDuration::from_secs(1.0);
        assert_eq!(d, SimDuration::from_secs(3.0));
        assert_eq!(d * 2.0, SimDuration::from_secs(6.0));
        assert_eq!(d / 3.0, SimDuration::from_secs(1.0));
    }

    #[test]
    fn ordering_is_total_and_exact() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(
            SimDuration::from_nanos(3).min(SimDuration::from_nanos(5)),
            SimDuration::from_nanos(3)
        );
        assert_eq!(
            SimDuration::from_nanos(3).max(SimDuration::from_nanos(5)),
            SimDuration::from_nanos(5)
        );
    }

    #[test]
    fn saturating_and_checked_ops() {
        let d = SimDuration::from_secs(1.0);
        assert_eq!(d.saturating_sub(SimDuration::from_secs(2.0)), SimDuration::ZERO);
        assert!(SimTime::MAX.checked_add(SimDuration::from_nanos(1)).is_none());
        assert!(SimTime::ZERO.checked_add(d).is_some());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let _ = SimDuration::from_secs(f64::NAN);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_hours(2.0)), "2.00h");
        assert_eq!(format!("{}", SimDuration::from_secs(1.5)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_nanos(8_000)), "8.0µs");
        assert_eq!(format!("{}", SimTime::from_secs(1.0)), "t=1.000s");
    }

    #[test]
    fn checked_f64_helpers_roundtrip() {
        let t = SimTime::from_secs_f64(2.25);
        assert_eq!(t.as_nanos(), 2_250_000_000);
        assert_eq!(t.to_secs_f64(), 2.25);
        let d = SimDuration::from_secs_f64(0.5);
        assert_eq!(d.to_secs_f64(), 0.5);
        // from_secs / as_secs are aliases of the checked helpers.
        assert_eq!(SimTime::from_secs(2.25), t);
        assert_eq!(d.as_secs(), d.to_secs_f64());
    }

    #[test]
    fn ceil_conversion_never_rounds_down() {
        // 1.25 ns of seconds: nearest rounds to 1 ns, ceil must give 2.
        let secs = 1.25e-9;
        assert_eq!(SimDuration::from_secs_f64(secs).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64_ceil(secs).as_nanos(), 2);
        // Exact values stay exact.
        assert_eq!(SimDuration::from_secs_f64_ceil(1.0).as_nanos(), 1_000_000_000);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn ceil_rejects_negative() {
        let _ = SimDuration::from_secs_f64_ceil(-1e-9);
    }

    #[test]
    fn is_zero() {
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_nanos(1).is_zero());
    }
}
