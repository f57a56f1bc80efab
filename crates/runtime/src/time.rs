//! Protocol-visible time, as an integer-microsecond newtype.
//!
//! All time [`crate::sys::Sys::now`] hands to protocol code is expressed in
//! integer **microseconds** as a [`Micros`] instant. Using a newtype over
//! an integer keeps both backends honest: the simulation counts ticks from
//! run start with no floating-point drift, and the real backend counts
//! microseconds from a shared wall-clock epoch — neither can be mixed with
//! raw `u64` counters by accident, and cross-host comparisons (RPC
//! deadlines travel in wire messages) stay well-defined as long as the
//! backends share an epoch.
//!
//! `SimTime` is the historical name of the instant type and remains as an
//! alias; `SimDuration` is the matching span type.

use std::fmt::{self, Write as _};
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

/// An instant, measured in microseconds from the runtime's epoch (run
/// start in the simulation; a shared wall-clock epoch for real nodes).
///
/// # Examples
///
/// ```
/// use ppm_runtime::time::{Micros, SimDuration};
///
/// let t = Micros::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// assert_eq!(t.as_millis_f64(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(u64);

/// The historical name for [`Micros`], kept so simulation-side code reads
/// naturally.
pub type SimTime = Micros;

/// A span of time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use ppm_runtime::time::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 2_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl Micros {
    /// The epoch (run start).
    pub const ZERO: Micros = Micros(0);

    /// A time later than any time a run will reach in practice.
    pub const FAR_FUTURE: Micros = Micros(u64::MAX / 4);

    /// Creates a time from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Micros(us)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Micros(s * 1_000_000)
    }

    /// This instant as raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is in the future,
    /// mirroring `std::time::Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: Micros) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// This instant moved `d` earlier, clamping at the epoch — how RPC
    /// deadlines decay per relay hop without leaving typed time.
    pub fn saturating_back(self, d: SimDuration) -> Micros {
        Micros(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond. Negative inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((ms * 1_000.0).round() as u64)
        }
    }

    /// This duration as raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration as (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative float, saturating at zero.
    pub fn mul_f64(self, k: f64) -> Self {
        if k <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((self.0 as f64 * k).round() as u64)
        }
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating multiplication by an integer factor — how exponential
    /// RPC backoff doubles without leaving typed time.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

/// The one duration syntax of scenario files and fault plans: a decimal
/// count directly followed by `us`, `ms` or `s`. A span longer than
/// [`Micros::FAR_FUTURE`] is rejected, not wrapped, which also keeps an
/// `at` instant plus a parsed delay clear of overflow.
///
/// # Examples
///
/// ```
/// use ppm_runtime::time::SimDuration;
///
/// assert_eq!("250ms".parse(), Ok(SimDuration::from_millis(250)));
/// assert!("18446744073710s".parse::<SimDuration>().is_err());
/// ```
impl FromStr for SimDuration {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let split = s
            .find(|c: char| c.is_alphabetic())
            .ok_or_else(|| format!("duration {s:?} needs a unit (us, ms or s)"))?;
        let (num, unit) = s.split_at(split);
        let n: u64 = num
            .parse()
            .map_err(|_| format!("bad duration number {num:?}"))?;
        let per_unit = match unit {
            "us" => 1,
            "ms" => 1_000,
            "s" => 1_000_000,
            other => return Err(format!("unknown duration unit {other:?}")),
        };
        n.checked_mul(per_unit)
            .filter(|us| *us <= Micros::FAR_FUTURE.0)
            .map(SimDuration)
            .ok_or_else(|| format!("duration {s:?} is out of range"))
    }
}

impl Add<SimDuration> for Micros {
    type Output = Micros;
    fn add(self, rhs: SimDuration) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for Micros {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<Micros> for Micros {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Micros) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "Micros subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

/// Writes `us` as milliseconds with three decimals (`12.345ms`) from
/// the integer, honouring the formatter's width, fill and alignment
/// (left by default, like a string). Every trace line carries at least
/// one of these, so no float formatting and no temporary `String`.
fn fmt_millis(us: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let (ms, frac) = (us / 1_000, us % 1_000);
    let len = ms.checked_ilog10().map_or(1, |d| d as usize + 1) + ".000ms".len();
    let pad = f.width().map_or(0, |w| w.saturating_sub(len));
    let before = match f.align() {
        Some(fmt::Alignment::Right) => pad,
        Some(fmt::Alignment::Center) => pad / 2,
        Some(fmt::Alignment::Left) | None => 0,
    };
    let fill = f.fill();
    for _ in 0..before {
        f.write_char(fill)?;
    }
    write!(f, "{ms}.{frac:03}ms")?;
    for _ in before..pad {
        f.write_char(fill)?;
    }
    Ok(())
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_millis(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_millis(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Micros::from_millis(10) + SimDuration::from_micros(250);
        assert_eq!(t.as_micros(), 10_250);
        assert_eq!(t - Micros::from_millis(10), SimDuration::from_micros(250));
    }

    #[test]
    fn duration_from_fractional_millis_rounds() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(0.0004).as_micros(), 0);
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn parsing_takes_three_units_and_rejects_what_would_wrap() {
        assert_eq!("7us".parse(), Ok(SimDuration::from_micros(7)));
        assert_eq!("250ms".parse(), Ok(SimDuration::from_millis(250)));
        assert_eq!("3s".parse(), Ok(SimDuration::from_secs(3)));
        for bad in ["10", "5h", "ms", "-1s", "1.5s", "1 s", ""] {
            assert!(bad.parse::<SimDuration>().is_err(), "{bad:?}");
        }
        // 2^64 us is 18 446 744 073 709.55 s: the next whole second
        // overflows the multiply, and anything past FAR_FUTURE is refused
        // before an addition could.
        assert!("18446744073710s".parse::<SimDuration>().is_err());
        assert!("18446744073709551615us".parse::<SimDuration>().is_err());
        let far = Micros::FAR_FUTURE.as_micros();
        assert_eq!(
            format!("{far}us").parse(),
            Ok(SimDuration::from_micros(far))
        );
        assert!(format!("{}us", far + 1).parse::<SimDuration>().is_err());
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Micros::from_millis(1);
        let late = Micros::from_millis(9);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(8));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn saturating_mul_caps_at_max() {
        assert_eq!(
            SimDuration::from_millis(250).saturating_mul(2),
            SimDuration::from_millis(500)
        );
        assert_eq!(
            SimDuration::from_micros(u64::MAX)
                .saturating_mul(3)
                .as_micros(),
            u64::MAX
        );
    }

    #[test]
    fn saturating_back_clamps_at_epoch() {
        let t = Micros::from_millis(3);
        assert_eq!(
            t.saturating_back(SimDuration::from_millis(1)),
            Micros::from_millis(2)
        );
        assert_eq!(t.saturating_back(SimDuration::from_secs(1)), Micros::ZERO);
    }

    #[test]
    fn mul_f64_saturates_and_rounds() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(15));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_as_millis() {
        assert_eq!(Micros::from_micros(1_234).to_string(), "1.234ms");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Micros::ZERO.to_string(), "0.000ms");
    }

    #[test]
    fn display_honours_width_fill_and_alignment() {
        let t = Micros::from_micros(7_001);
        assert_eq!(format!("{t:>12}"), "     7.001ms");
        assert_eq!(format!("{t:<9}|"), "7.001ms  |");
        assert_eq!(format!("{t:*^10}"), "*7.001ms**");
        assert_eq!(format!("{t:3}"), "7.001ms");
        assert_eq!(format!("{:>9}", SimDuration::from_micros(12)), "  0.012ms");
    }

    #[test]
    fn display_matches_the_float_rendering_it_replaced() {
        // Up to a wall-clock epoch's worth of microseconds.
        let samples = (0..60).flat_map(|bit| {
            let base = 1u64 << bit;
            [base - 1, base, base + 499, base + 500, base + 999]
        });
        for us in samples.filter(|us| *us < 1 << 52) {
            let float = format!("{:.3}ms", us as f64 / 1_000.0);
            assert_eq!(Micros::from_micros(us).to_string(), float, "us={us}");
        }
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [Micros::from_millis(3), Micros::ZERO, Micros::from_micros(1)];
        v.sort();
        assert_eq!(v[0], Micros::ZERO);
        assert_eq!(v[2], Micros::from_millis(3));
    }

    #[test]
    fn micros_is_the_canonical_instant_type() {
        // SimTime is an alias, not a distinct type.
        fn takes_micros(_: Micros) {}
        takes_micros(SimTime::from_micros(7));
    }
}
