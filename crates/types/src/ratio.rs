//! Exact rational arithmetic for server weights.
//!
//! The paper manipulates real-valued weights such as `0.5`, `0.4`, and
//! `(n-1)/2f`, and all of its safety properties (Integrity, P-Integrity,
//! RP-Integrity) are *strict* inequalities whose violation must be detected
//! exactly. Binary floating point cannot represent `0.1` or `0.7` and would
//! make boundary cases (e.g. the Algorithm 1 construction where the f
//! heaviest servers reach *exactly* half the total weight) flaky.
//!
//! [`Ratio`] is a normalized `i128 / i128` rational: always in lowest terms
//! with a strictly positive denominator, so structural equality coincides
//! with numeric equality and `Ord` is total.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number used for weights and weight deltas.
///
/// Invariants (maintained by every constructor and operation):
/// * the denominator is strictly positive;
/// * numerator and denominator are coprime;
/// * zero is represented as `0/1`.
///
/// # Examples
///
/// ```
/// use awr_types::Ratio;
///
/// let half = Ratio::new(1, 2);
/// let fifth = Ratio::new(2, 10); // normalized to 1/5
/// assert_eq!(fifth, Ratio::new(1, 5));
/// assert_eq!(half + fifth, Ratio::new(7, 10));
/// assert!(half > fifth);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

/// Greatest common divisor by the binary (Stein) algorithm: shifts on
/// `trailing_zeros` and subtractions only. A `u128` remainder is a
/// software routine on every target, and Euclid pays one per step; this
/// drops to the `u64` loop as soon as both operands fit. `gcd(0, b) == b`.
fn gcd(a: u128, b: u128) -> u128 {
    if (a | b) <= u64::MAX as u128 {
        return gcd64(a as u64, b as u64) as u128;
    }
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    let (mut a, mut b) = (a >> a.trailing_zeros(), b);
    loop {
        // `a` is odd here; strip `b`'s factors of two, which `a` lacks.
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
        if (a | b) <= u64::MAX as u128 {
            return (gcd64(a as u64, b as u64) as u128) << shift;
        }
    }
}

/// [`gcd`] on `u64` operands.
fn gcd64(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    let (mut a, mut b) = (a >> a.trailing_zeros(), b);
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `num / den` in lowest terms, for magnitudes not both zero; divides in
/// `u64` when both fit and not at all when they are already coprime.
fn reduce(num: u128, den: u128) -> (u128, u128) {
    let g = gcd(num, den);
    if g == 1 {
        (num, den)
    } else if (num | den) <= u64::MAX as u128 {
        let g = g as u64;
        ((num as u64 / g) as u128, (den as u64 / g) as u128)
    } else {
        (num / g, den / g)
    }
}

/// The ratio of magnitudes `num / den` in lowest terms, negated if
/// `negative`.
fn normalized(negative: bool, num: u128, den: u128) -> Ratio {
    let (num, den) = reduce(num, den);
    let num = num as i128;
    Ratio {
        num: if negative { -num } else { num },
        den: den as i128,
    }
}

impl Ratio {
    /// The additive identity, `0/1`.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The multiplicative identity, `1/1`.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates a ratio `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use awr_types::Ratio;
    /// assert_eq!(Ratio::new(-4, -8), Ratio::new(1, 2));
    /// assert_eq!(Ratio::new(3, -6), Ratio::new(-1, 2));
    /// ```
    pub fn new(num: i128, den: i128) -> Ratio {
        assert!(den != 0, "ratio denominator must be non-zero");
        if num == 0 {
            return Ratio::ZERO;
        }
        normalized(
            (num < 0) != (den < 0),
            num.unsigned_abs(),
            den.unsigned_abs(),
        )
    }

    /// Creates an integer-valued ratio `n / 1`.
    pub fn integer(n: i64) -> Ratio {
        Ratio {
            num: n as i128,
            den: 1,
        }
    }

    /// Parses a decimal literal such as `"0.25"`, `"-1.5"`, or `"3"` exactly.
    ///
    /// This is the recommended way to write the paper's decimal constants:
    /// `Ratio::dec("0.1")` is exactly one tenth.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a valid decimal literal. Use [`Ratio::from_str`]
    /// for a fallible variant.
    pub fn dec(s: &str) -> Ratio {
        s.parse()
            .unwrap_or_else(|e| panic!("invalid decimal literal {s:?}: {e}"))
    }

    /// The numerator of the normalized representation.
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator of the normalized representation (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Lossy conversion to `f64`, for display and plotting only.
    ///
    /// Never use the result in a safety check; compare [`Ratio`]s directly.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `self / 2`, used pervasively for quorum thresholds (`W_S / 2`).
    ///
    /// Needs no GCD: the numerator and denominator are coprime, so an even
    /// numerator halves against an odd denominator, and an odd one stays
    /// coprime to twice the denominator.
    ///
    /// # Panics
    ///
    /// Panics if the doubled denominator overflows `i128`.
    pub fn half(&self) -> Ratio {
        if self.num % 2 == 0 {
            Ratio {
                num: self.num / 2,
                den: self.den,
            }
        } else {
            Ratio {
                num: self.num,
                den: self.den.checked_mul(2).expect("ratio overflow in half"),
            }
        }
    }

    /// The minimum of two ratios.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two ratios.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition; `None` on i128 overflow.
    pub fn checked_add(self, rhs: Ratio) -> Option<Ratio> {
        let num = self
            .num
            .checked_mul(rhs.den)?
            .checked_add(rhs.num.checked_mul(self.den)?)?;
        let den = self.den.checked_mul(rhs.den)?;
        Some(Ratio::new(num, den))
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            return write!(f, "{}", self.num);
        }
        // Render exactly when the denominator is 2^a * 5^b, else as fraction.
        let mut d = self.den;
        while d % 2 == 0 {
            d /= 2;
        }
        while d % 5 == 0 {
            d /= 5;
        }
        if d == 1 {
            // Finite decimal expansion: find the smallest 10^k divisible by den.
            let mut scale: i128 = 1;
            let mut digits = 0u32;
            while scale % self.den != 0 && digits <= 38 {
                scale *= 10;
                digits += 1;
            }
            if scale % self.den == 0 {
                let scaled = self.num * (scale / self.den);
                let sign = if scaled < 0 { "-" } else { "" };
                let mag = scaled.unsigned_abs();
                let int = mag / scale.unsigned_abs();
                let frac = mag % scale.unsigned_abs();
                if digits == 0 {
                    return write!(f, "{sign}{int}");
                }
                let frac_str = format!("{:0width$}", frac, width = digits as usize);
                return write!(f, "{sign}{int}.{frac_str}");
            }
        }
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// Error returned when parsing a [`Ratio`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError {
    message: String,
}

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ratio: {}", self.message)
    }
}

impl std::error::Error for ParseRatioError {}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    /// Parses `"3"`, `"-0.25"`, or `"7/10"` exactly.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseRatioError {
                message: "empty string".into(),
            });
        }
        if let Some((n, d)) = s.split_once('/') {
            let num: i128 = n.trim().parse().map_err(|e| ParseRatioError {
                message: format!("bad numerator {n:?}: {e}"),
            })?;
            let den: i128 = d.trim().parse().map_err(|e| ParseRatioError {
                message: format!("bad denominator {d:?}: {e}"),
            })?;
            if den == 0 {
                return Err(ParseRatioError {
                    message: "zero denominator".into(),
                });
            }
            return Ok(Ratio::new(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.starts_with('-');
            let int_digits = int_part.trim_start_matches(['-', '+']);
            let int: i128 = if int_digits.is_empty() {
                0
            } else {
                int_digits.parse().map_err(|e| ParseRatioError {
                    message: format!("bad integer part {int_part:?}: {e}"),
                })?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseRatioError {
                    message: format!("bad fractional part {frac_part:?}"),
                });
            }
            let frac: i128 = frac_part.parse().map_err(|e| ParseRatioError {
                message: format!("bad fractional part {frac_part:?}: {e}"),
            })?;
            let scale =
                10i128
                    .checked_pow(frac_part.len() as u32)
                    .ok_or_else(|| ParseRatioError {
                        message: "too many fractional digits".into(),
                    })?;
            let mag = Ratio::new(int * scale + frac, scale);
            return Ok(if negative { -mag } else { mag });
        }
        let num: i128 = s.parse().map_err(|e| ParseRatioError {
            message: format!("bad integer {s:?}: {e}"),
        })?;
        Ok(Ratio::new(num, 1))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // Same denominator (always the case for integers, and the common
        // case on the weight hot path): compare numerators directly.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // den > 0 always, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl Ratio {
    /// Shared fast-path addition: when the denominators already match, skip
    /// the cross-multiplications and renormalize against the single shared
    /// denominator (for integers this skips the gcd entirely). Weight sums
    /// add long runs of same-denominator deltas, so this is the common case
    /// on the quorum-check hot path.
    #[inline]
    fn add_impl(self, rhs: Ratio) -> Ratio {
        if self.num == 0 {
            return rhs;
        }
        if rhs.num == 0 {
            return self;
        }
        if self.den == rhs.den {
            let num = self.num + rhs.num;
            if self.den == 1 {
                return Ratio { num, den: 1 };
            }
            if num == 0 {
                return Ratio::ZERO;
            }
            return normalized(num < 0, num.unsigned_abs(), self.den as u128);
        }
        Ratio::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.add_impl(rhs)
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self.add_impl(-rhs)
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = *self - rhs;
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "division by zero ratio");
        Ratio::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |acc, r| acc + r)
    }
}

impl<'a> Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |acc, r| acc + *r)
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Ratio {
        Ratio::integer(n)
    }
}

impl From<u32> for Ratio {
    fn from(n: u32) -> Ratio {
        Ratio::integer(n as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, 4), Ratio::new(1, -2));
        assert_eq!(Ratio::new(0, 7).denom(), 1);
        assert_eq!(Ratio::new(-6, -9), Ratio::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "denominator must be non-zero")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(1, 3);
        assert_eq!(a + b, Ratio::new(5, 6));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 6));
        assert_eq!(a / b, Ratio::new(3, 2));
        assert_eq!(-a, Ratio::new(-1, 2));
        assert_eq!(a.half(), Ratio::new(1, 4));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert!(Ratio::new(7, 10) < Ratio::new(3, 4));
        let mut v = [Ratio::new(3, 4), Ratio::ZERO, Ratio::new(-1, 5)];
        v.sort();
        assert_eq!(v[0], Ratio::new(-1, 5));
        assert_eq!(v[2], Ratio::new(3, 4));
    }

    #[test]
    fn decimal_parsing() {
        assert_eq!(Ratio::dec("0.5"), Ratio::new(1, 2));
        assert_eq!(Ratio::dec("0.1"), Ratio::new(1, 10));
        assert_eq!(Ratio::dec("-1.25"), Ratio::new(-5, 4));
        assert_eq!(Ratio::dec("3"), Ratio::integer(3));
        assert_eq!(Ratio::dec("7/10"), Ratio::new(7, 10));
        assert_eq!(Ratio::dec(".5"), Ratio::new(1, 2));
        assert!("abc".parse::<Ratio>().is_err());
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("1.x".parse::<Ratio>().is_err());
        assert!("".parse::<Ratio>().is_err());
    }

    #[test]
    fn display_decimal() {
        assert_eq!(Ratio::new(1, 2).to_string(), "0.5");
        assert_eq!(Ratio::new(7, 10).to_string(), "0.7");
        assert_eq!(Ratio::new(-5, 4).to_string(), "-1.25");
        assert_eq!(Ratio::integer(3).to_string(), "3");
        assert_eq!(Ratio::new(1, 3).to_string(), "1/3");
    }

    #[test]
    fn sum_iterator() {
        let total: Ratio = (1..=4).map(Ratio::integer).sum();
        assert_eq!(total, Ratio::integer(10));
        let rs = [Ratio::new(1, 2), Ratio::new(1, 2)];
        let total: Ratio = rs.iter().sum();
        assert_eq!(total, Ratio::ONE);
    }

    #[test]
    fn paper_constants_are_exact() {
        // Algorithm 1 boundary: f*(n-1)/(2f) + 0.5 == n/2 exactly.
        let n = 7i64;
        let f = 3i64;
        let wf0 = Ratio::integer(f) * (Ratio::integer(n - 1) / Ratio::integer(2 * f));
        let after = wf0 + Ratio::dec("0.5");
        assert_eq!(after, Ratio::integer(n).half());
    }

    #[test]
    fn to_f64_is_close() {
        assert!((Ratio::new(1, 3).to_f64() - 0.333_333).abs() < 1e-3);
    }

    #[test]
    fn checked_add_overflow() {
        let big = Ratio::new(i128::MAX / 2, 1);
        assert!(big.checked_add(big).is_none() || big.checked_add(big).is_some());
        // Small values never overflow.
        assert_eq!(
            Ratio::new(1, 3).checked_add(Ratio::new(1, 6)),
            Some(Ratio::new(1, 2))
        );
    }

    /// Euclid's GCD, the normalization `gcd` replaced, kept as its oracle.
    fn euclid(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    /// SplitMix64: a seeded stream for the differential tests below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Operand pairs for the differential tests: edge values crossed with
    /// each other, then seeded random pairs in the `u64` range, across the
    /// whole non-negative `i128` range, and sharing a random factor.
    fn gcd_cases() -> Vec<(u128, u128)> {
        let max = i128::MAX as u128;
        let mut edges = vec![0, 1, 2, 3, 6, 1 << 63, 1 << 64, 1 << 126, max, max - 1];
        edges.extend([u64::MAX as u128, (1 << 64) + 1, (1 << 64) - 1]);
        edges.extend([max / 2, max / 3, 3 << 100, (1 << 127) - 3]);
        let mut cases: Vec<(u128, u128)> = edges
            .iter()
            .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
            .collect();
        let mut rng = 0x5EED_u64;
        for _ in 0..20_000 {
            let (a, b) = (splitmix(&mut rng), splitmix(&mut rng));
            cases.push((a as u128, b as u128));
            let wide =
                |rng: &mut u64| (((splitmix(rng) as u128) << 64) | splitmix(rng) as u128) & max;
            let (a, b) = (wide(&mut rng), wide(&mut rng));
            cases.push((a, b));
            // A shared factor (times a power of two), so the GCD is not
            // almost always 1.
            let g = (splitmix(&mut rng) >> 40) as u128 + 1;
            let k = splitmix(&mut rng) as u32 % 40;
            let (x, y) = (
                (splitmix(&mut rng) >> 24) as u128,
                (splitmix(&mut rng) >> 24) as u128,
            );
            cases.push(((x * g) << k, y * g));
        }
        cases
    }

    #[test]
    fn binary_gcd_matches_euclid() {
        for (a, b) in gcd_cases() {
            assert_eq!(gcd(a, b), euclid(a, b), "gcd({a}, {b})");
            if (a | b) <= u64::MAX as u128 {
                assert_eq!(gcd64(a as u64, b as u64) as u128, euclid(a, b));
            }
        }
    }

    #[test]
    fn half_matches_doubling_the_denominator() {
        for (a, b) in gcd_cases() {
            if b == 0 || b > (i128::MAX / 2) as u128 {
                continue;
            }
            for num in [a as i128, -(a as i128)] {
                let r = Ratio::new(num, b as i128);
                assert_eq!(r.half(), Ratio::new(r.numer(), 2 * r.denom()), "{r:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ratio overflow in half")]
    fn half_of_the_finest_ratio_overflows_loudly() {
        let _ = Ratio::new(1, i128::MAX).half();
    }

    #[test]
    fn ratio_display_fromstr_roundtrip_extremes() {
        for s in ["-3", "0", "0.001", "7/10", "-1/3", "123456789.5"] {
            let r = Ratio::dec(s);
            let back: Ratio = r.to_string().parse().unwrap();
            assert_eq!(back, r, "{s}");
        }
    }
}
