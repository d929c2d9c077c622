//! Order-preserving bit transforms for sortable key types.
//!
//! Every key type maps into an unsigned integer domain ([`RadixBits`]) such
//! that `a < b ⇔ a.sort_bits() < b.sort_bits()`. This gives radix partitioning
//! (digit extraction) and bitonic compare-exchange a single, branch-free
//! comparison primitive, exactly as CUDA radix sorts do.
//!
//! Floating-point NaNs are mapped above `+∞` (positive NaNs) or below `-∞`
//! (negative NaNs) by the transform; ordering is total and deterministic.

/// Unsigned integer rank domains: `u32`, `u64` and `u128`.
///
/// An item's rank (see [`crate::TopKItem::rank`]) lives in one of these.
/// Ranks compare as plain unsigned integers, so the host bitonic network
/// runs every compare-exchange as an integer min/max, and complementing
/// a rank (`!`) reverses its order.
pub trait RankBits:
    Copy + Ord + std::fmt::Debug + Send + Sync + 'static + std::ops::Not<Output = Self>
{
}

impl RankBits for u32 {}
impl RankBits for u64 {}
impl RankBits for u128 {}

/// Unsigned integer bit domains usable as radix keys.
///
/// Implemented for `u32` and `u64`. The trait exposes just enough integer
/// surface for digit extraction and sentinel construction without pulling in
/// a num-traits style dependency.
pub trait RadixBits:
    RankBits
    + Eq
    + std::hash::Hash
    + std::ops::Shr<u32, Output = Self>
    + std::ops::Shl<u32, Output = Self>
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
{
    /// All-zero bit pattern (the minimum of the domain).
    const ZERO: Self;
    /// All-one bit pattern (the maximum of the domain).
    const MAX: Self;
    /// Width of the domain in bits (32 or 64).
    const BITS: u32;

    /// These bits followed by a 32-bit tag: `u64` for 32-bit keys,
    /// `u128` for 64-bit keys.
    type Tagged: RankBits;

    /// `self ‖ tag`: orders by `self`, then by `tag`.
    fn tag(self, tag: u32) -> Self::Tagged;
    /// Splits [`RadixBits::tag`]'s result back into bits and tag.
    fn untag(tagged: Self::Tagged) -> (Self, u32);

    /// Truncates to the low 8 bits, as a bucket index.
    fn low_u8(self) -> u8;
    /// Converts to `u64` (zero-extending).
    fn as_u64(self) -> u64;
    /// Converts from a `u64`, truncating.
    fn from_u64(v: u64) -> Self;

    /// Extracts the `d`-th 8-bit digit counting from the most significant
    /// digit (digit 0 is the top byte). Radix select scans digits in this
    /// order (MSD).
    fn msd_digit(self, d: u32) -> u8 {
        debug_assert!(d < Self::BITS / 8);
        (self >> (Self::BITS - 8 * (d + 1))).low_u8()
    }
}

impl RadixBits for u32 {
    const ZERO: Self = 0;
    const MAX: Self = u32::MAX;
    const BITS: u32 = 32;
    type Tagged = u64;

    #[inline]
    fn tag(self, tag: u32) -> u64 {
        (self as u64) << 32 | tag as u64
    }
    #[inline]
    fn untag(tagged: u64) -> (u32, u32) {
        ((tagged >> 32) as u32, tagged as u32)
    }
    #[inline]
    fn low_u8(self) -> u8 {
        self as u8
    }
    #[inline]
    fn as_u64(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_u64(v: u64) -> Self {
        v as u32
    }
}

impl RadixBits for u64 {
    const ZERO: Self = 0;
    const MAX: Self = u64::MAX;
    const BITS: u32 = 64;
    type Tagged = u128;

    #[inline]
    fn tag(self, tag: u32) -> u128 {
        (self as u128) << 32 | tag as u128
    }
    #[inline]
    fn untag(tagged: u128) -> (u64, u32) {
        ((tagged >> 32) as u64, tagged as u32)
    }
    #[inline]
    fn low_u8(self) -> u8 {
        self as u8
    }
    #[inline]
    fn as_u64(self) -> u64 {
        self
    }
    #[inline]
    fn from_u64(v: u64) -> Self {
        v
    }
}

/// A key type with a total order realized through an order-preserving bit
/// transform.
///
/// All top-k algorithms in the workspace compare keys exclusively through
/// [`SortKey::sort_bits`], so a single kernel implementation covers floats,
/// signed, and unsigned integers of both widths.
pub trait SortKey: Copy + PartialEq + Default + std::fmt::Debug + Send + Sync + 'static {
    /// The unsigned bit domain (`u32` for 32-bit keys, `u64` for 64-bit).
    type Bits: RadixBits;

    /// Order-preserving transform into the bit domain.
    fn sort_bits(self) -> Self::Bits;
    /// Inverse of [`SortKey::sort_bits`].
    fn from_sort_bits(bits: Self::Bits) -> Self;

    /// The minimum value in bit order — used as the padding sentinel when
    /// device buffers are rounded up to a power of two for a largest-k query.
    fn min_sentinel() -> Self {
        Self::from_sort_bits(Self::Bits::ZERO)
    }

    /// The maximum value in bit order — padding sentinel for smallest-k.
    fn max_sentinel() -> Self {
        Self::from_sort_bits(Self::Bits::MAX)
    }

    /// Total-order comparison through the bit transform.
    #[inline]
    fn key_cmp(self, other: Self) -> std::cmp::Ordering {
        self.sort_bits().cmp(&other.sort_bits())
    }

    /// `self < other` in bit order.
    #[inline]
    fn key_lt(self, other: Self) -> bool {
        self.sort_bits() < other.sort_bits()
    }

    /// The key as a real number, monotone (not necessarily strictly) with
    /// the bit order. Bucket select bins candidates by this value — the
    /// GGKS implementation computes its equal-width buckets in *value*
    /// space, which is what makes it distribution-robust for floats.
    /// Non-finite floats clamp to ±`f64::MAX` (ties within one bucket are
    /// resolved by the final exact sort).
    fn as_f64(self) -> f64;
}

impl SortKey for u32 {
    type Bits = u32;
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn sort_bits(self) -> u32 {
        self
    }
    #[inline]
    fn from_sort_bits(bits: u32) -> Self {
        bits
    }
}

impl SortKey for u64 {
    type Bits = u64;
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn sort_bits(self) -> u64 {
        self
    }
    #[inline]
    fn from_sort_bits(bits: u64) -> Self {
        bits
    }
}

impl SortKey for i32 {
    type Bits = u32;
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn sort_bits(self) -> u32 {
        (self as u32) ^ 0x8000_0000
    }
    #[inline]
    fn from_sort_bits(bits: u32) -> Self {
        (bits ^ 0x8000_0000) as i32
    }
}

impl SortKey for i64 {
    type Bits = u64;
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn sort_bits(self) -> u64 {
        (self as u64) ^ 0x8000_0000_0000_0000
    }
    #[inline]
    fn from_sort_bits(bits: u64) -> Self {
        (bits ^ 0x8000_0000_0000_0000) as i64
    }
}

impl SortKey for f32 {
    type Bits = u32;

    #[inline]
    fn as_f64(self) -> f64 {
        if self.is_nan() {
            // NaN sorts above +inf (positive) or below -inf (negative) in
            // bit order; clamp to the same extreme as infinities
            if self.to_bits() & 0x8000_0000 != 0 {
                -f64::MAX
            } else {
                f64::MAX
            }
        } else {
            (self as f64).clamp(-f64::MAX, f64::MAX)
        }
    }

    /// The classic float-flip: negative floats reverse (complement all
    /// bits), non-negative floats set the sign bit. Produces an unsigned
    /// domain where IEEE-754 order is preserved and `-0.0 < +0.0`.
    #[inline]
    fn sort_bits(self) -> u32 {
        let b = self.to_bits();
        if b & 0x8000_0000 != 0 {
            !b
        } else {
            b | 0x8000_0000
        }
    }

    #[inline]
    fn from_sort_bits(bits: u32) -> Self {
        let b = if bits & 0x8000_0000 != 0 {
            bits & 0x7fff_ffff
        } else {
            !bits
        };
        f32::from_bits(b)
    }
}

impl SortKey for f64 {
    type Bits = u64;

    #[inline]
    fn as_f64(self) -> f64 {
        if self.is_nan() {
            if self.to_bits() & 0x8000_0000_0000_0000 != 0 {
                -f64::MAX
            } else {
                f64::MAX
            }
        } else {
            self.clamp(-f64::MAX, f64::MAX)
        }
    }

    #[inline]
    fn sort_bits(self) -> u64 {
        let b = self.to_bits();
        if b & 0x8000_0000_0000_0000 != 0 {
            !b
        } else {
            b | 0x8000_0000_0000_0000
        }
    }

    #[inline]
    fn from_sort_bits(bits: u64) -> Self {
        let b = if bits & 0x8000_0000_0000_0000 != 0 {
            bits & 0x7fff_ffff_ffff_ffff
        } else {
            !bits
        };
        f64::from_bits(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn roundtrip<K: SortKey>(k: K) {
        assert_eq!(
            K::from_sort_bits(k.sort_bits()),
            k,
            "roundtrip failed for {k:?}"
        );
    }

    #[test]
    fn u32_identity() {
        for v in [0u32, 1, 42, u32::MAX, u32::MAX - 1] {
            roundtrip(v);
            assert_eq!(v.sort_bits(), v);
        }
    }

    #[test]
    fn i32_order_preserved() {
        let vals = [i32::MIN, -100, -1, 0, 1, 100, i32::MAX];
        for w in vals.windows(2) {
            assert!(w[0].sort_bits() < w[1].sort_bits(), "{} !< {}", w[0], w[1]);
            roundtrip(w[0]);
        }
    }

    #[test]
    fn i64_order_preserved() {
        let vals = [i64::MIN, -5_000_000_000, -1, 0, 1, 5_000_000_000, i64::MAX];
        for w in vals.windows(2) {
            assert!(w[0].sort_bits() < w[1].sort_bits());
            roundtrip(w[0]);
        }
    }

    #[test]
    fn f32_order_preserved() {
        let vals = [
            f32::NEG_INFINITY,
            -1e30,
            -1.0,
            -1e-30,
            -0.0,
            0.0,
            1e-30,
            1.0,
            1e30,
            f32::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(
                w[0].sort_bits() <= w[1].sort_bits(),
                "{} !<= {} in bits",
                w[0],
                w[1]
            );
            roundtrip(w[0]);
        }
        // strict for distinct non-zero values
        assert!((-1.0f32).sort_bits() < 1.0f32.sort_bits());
        // -0.0 and +0.0 are distinct bit patterns, -0.0 below +0.0
        assert!(SortKey::sort_bits(-0.0f32) < SortKey::sort_bits(0.0f32));
    }

    #[test]
    fn f64_order_preserved() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -0.0,
            0.0,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(w[0].sort_bits() <= w[1].sort_bits());
            roundtrip(w[0]);
        }
    }

    #[test]
    fn f32_nan_total_order() {
        // positive NaN sorts above +inf; negative NaN below -inf
        let pos_nan = f32::from_bits(0x7fc0_0000);
        let neg_nan = f32::from_bits(0xffc0_0000);
        assert!(SortKey::sort_bits(pos_nan) > SortKey::sort_bits(f32::INFINITY));
        assert!(SortKey::sort_bits(neg_nan) < SortKey::sort_bits(f32::NEG_INFINITY));
    }

    #[test]
    fn sentinels_are_extremes() {
        assert!(f32::min_sentinel().sort_bits() == u32::ZERO);
        assert!(f32::max_sentinel().sort_bits() == u32::MAX);
        assert_eq!(u32::min_sentinel(), 0);
        assert_eq!(u32::max_sentinel(), u32::MAX);
        assert_eq!(i32::min_sentinel(), i32::MIN);
        assert_eq!(i32::max_sentinel(), i32::MAX);
        // f32 min sentinel must compare <= every ordinary float
        for v in [-1e30f32, -1.0, 0.0, 1.0, 1e30] {
            assert!(f32::min_sentinel().sort_bits() <= v.sort_bits());
        }
    }

    #[test]
    fn key_cmp_matches_partial_ord() {
        let pairs = [(1.5f32, 2.5f32), (-3.0, 3.0), (0.0, 0.0), (7.25, -7.25)];
        for (a, b) in pairs {
            let expect = a.partial_cmp(&b).unwrap();
            assert_eq!(a.key_cmp(b), expect);
            assert_eq!(a.key_lt(b), expect == Ordering::Less);
        }
    }

    #[test]
    fn msd_digit_extraction_u32() {
        let v: u32 = 0xAABB_CCDD;
        assert_eq!(v.msd_digit(0), 0xAA);
        assert_eq!(v.msd_digit(1), 0xBB);
        assert_eq!(v.msd_digit(2), 0xCC);
        assert_eq!(v.msd_digit(3), 0xDD);
    }

    #[test]
    fn msd_digit_extraction_u64() {
        let v: u64 = 0x0102_0304_0506_0708;
        for d in 0..8 {
            assert_eq!(v.msd_digit(d), (d + 1) as u8);
        }
    }

    #[test]
    fn u64_as_from_u64_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef_cafe_babe] {
            assert_eq!(u64::from_u64(v.as_u64()), v);
        }
    }
}
