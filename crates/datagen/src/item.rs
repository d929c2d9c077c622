//! Tuple shapes for top-k queries (Section 6.6 of the paper).
//!
//! The paper evaluates bare keys, key+value (`KV`), two keys+value (`KKV`)
//! and three keys+value (`KKKV`). All algorithms in the workspace are
//! generic over [`TopKItem`]: they order items by [`TopKItem::key_bits`] and
//! move whole items, so payload width affects (simulated) memory traffic
//! exactly as it does on real hardware.

use crate::keys::{RadixBits, RankBits, SortKey};

/// An item that can participate in a top-k query.
///
/// Items are small `Copy` records ordered by a primary key (possibly a
/// lexicographic composite). `SIZE_BYTES` is the item's device footprint,
/// used by the simulator for traffic accounting.
///
/// Every item also has a *rank*: an order-preserving, bijective map into
/// an unsigned integer. Two laws tie it to [`TopKItem::item_lt`]:
///
/// * `a.item_lt(&b) == (a.rank() < b.rank())`;
/// * `Self::from_rank(x.rank())` is `x` bit for bit, NaN payloads and
///   signed zeros included.
///
/// Both hold because every `item_lt` here is a strict total order under
/// which two unordered items are identical. The host bitonic network
/// (`sortnet::host`) relies on them: it converts a slice to ranks once,
/// runs every compare-exchange as an integer min/max, and converts back,
/// producing exactly the elements the comparator would.
pub trait TopKItem: Copy + PartialEq + Default + std::fmt::Debug + Send + Sync + 'static {
    /// Bit domain of the (composite) ordering key.
    type KeyBits: RadixBits;

    /// Rank domain: `u32`, `u64` or `u128`.
    type Rank: RankBits;

    /// Device footprint of one item in bytes.
    const SIZE_BYTES: usize;

    /// Order-preserving key bits: items compare by this value.
    fn key_bits(&self) -> Self::KeyBits;

    /// The ordering key as a real number, monotone with `key_bits` (see
    /// [`SortKey::as_f64`]). Default: the bits themselves.
    fn key_value(&self) -> f64 {
        self.key_bits().as_u64() as f64
    }

    /// An item smaller (in key order) than every real item — the padding
    /// sentinel for largest-k queries.
    fn min_sentinel() -> Self;

    /// An item larger than every real item — the sentinel for smallest-k.
    fn max_sentinel() -> Self;

    /// `self < other` in key order.
    #[inline]
    fn item_lt(&self, other: &Self) -> bool {
        self.key_bits() < other.key_bits()
    }

    /// The item's rank: `a.item_lt(&b)` iff `a.rank() < b.rank()`.
    fn rank(&self) -> Self::Rank;

    /// Inverse of [`TopKItem::rank`], bit for bit.
    fn from_rank(rank: Self::Rank) -> Self;
}

impl<K: SortKey> TopKItem for K {
    type KeyBits = K::Bits;
    type Rank = K::Bits;
    const SIZE_BYTES: usize = std::mem::size_of::<K>();

    #[inline]
    fn key_bits(&self) -> K::Bits {
        self.sort_bits()
    }
    #[inline]
    fn rank(&self) -> K::Bits {
        self.sort_bits()
    }
    #[inline]
    fn from_rank(rank: K::Bits) -> Self {
        K::from_sort_bits(rank)
    }
    #[inline]
    fn key_value(&self) -> f64 {
        self.as_f64()
    }
    fn min_sentinel() -> Self {
        <K as SortKey>::min_sentinel()
    }
    fn max_sentinel() -> Self {
        <K as SortKey>::max_sentinel()
    }
}

/// Key + 4-byte value payload (the paper's `KV`).
///
/// The value is typically a tuple/row id: the paper recommends running top-k
/// on `(key, id)` and assembling wide payloads afterwards (Section 6.6).
///
/// Equal keys are ordered by the payload: the *smaller* row id ranks
/// higher, so a top-k over `(key, id)` pairs is a total order and every
/// execution plan — single-device, batched, or sharded across a cluster —
/// returns bit-identical winners on duplicate-heavy keys.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Kv<K: SortKey> {
    /// The ordering key.
    pub key: K,
    /// The 4-byte payload (typically a row id).
    pub value: u32,
}

impl<K: SortKey> Kv<K> {
    /// Creates a key + value pair.
    pub fn new(key: K, value: u32) -> Self {
        Self { key, value }
    }
}

impl<K: SortKey> TopKItem for Kv<K> {
    type KeyBits = K::Bits;
    /// `sort_bits ‖ !value`: the complemented id makes a smaller id rank
    /// higher on a key tie.
    type Rank = <K::Bits as RadixBits>::Tagged;
    const SIZE_BYTES: usize = std::mem::size_of::<K>() + 4;

    #[inline]
    fn rank(&self) -> Self::Rank {
        self.key.sort_bits().tag(!self.value)
    }
    #[inline]
    fn from_rank(rank: Self::Rank) -> Self {
        let (bits, id) = K::Bits::untag(rank);
        Self::new(K::from_sort_bits(bits), !id)
    }

    #[inline]
    fn key_bits(&self) -> K::Bits {
        self.key.sort_bits()
    }
    #[inline]
    fn key_value(&self) -> f64 {
        self.key.as_f64()
    }
    fn min_sentinel() -> Self {
        Self {
            key: K::min_sentinel(),
            value: u32::MAX,
        }
    }
    fn max_sentinel() -> Self {
        // value 0: the smallest id ranks highest on key ties, so the max
        // sentinel must also carry the most-preferred id
        Self {
            key: K::max_sentinel(),
            value: 0,
        }
    }

    #[inline]
    fn item_lt(&self, other: &Self) -> bool {
        let a = self.key_bits();
        let b = other.key_bits();
        if a != b {
            return a < b;
        }
        // key tie: the smaller row id is the *greater* item, so it wins
        // the top-k deterministically
        self.value > other.value
    }
}

/// Two keys + value (`KKV`): ordered lexicographically by `(key0, key1)`.
///
/// The composite order is realized by concatenating the two 32-bit key
/// transforms into a single `u64`, so comparison stays a single unsigned
/// compare (and radix digits still work).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Kkv<K: SortKey<Bits = u32>> {
    /// The ordering keys, most significant first.
    pub keys: [K; 2],
    /// The 4-byte payload.
    pub value: u32,
}

impl<K: SortKey<Bits = u32>> Kkv<K> {
    /// Creates a two-key + value record.
    pub fn new(k0: K, k1: K, value: u32) -> Self {
        Self {
            keys: [k0, k1],
            value,
        }
    }
}

impl<K: SortKey<Bits = u32>> TopKItem for Kkv<K> {
    type KeyBits = u64;
    /// `key_bits ‖ !value`.
    type Rank = u128;
    const SIZE_BYTES: usize = 2 * std::mem::size_of::<K>() + 4;

    #[inline]
    fn key_bits(&self) -> u64 {
        ((self.keys[0].sort_bits() as u64) << 32) | self.keys[1].sort_bits() as u64
    }
    #[inline]
    fn rank(&self) -> u128 {
        self.key_bits().tag(!self.value)
    }
    #[inline]
    fn from_rank(rank: u128) -> Self {
        let (bits, id) = u64::untag(rank);
        let (k0, k1) = u32::untag(bits);
        Self::new(K::from_sort_bits(k0), K::from_sort_bits(k1), !id)
    }
    fn min_sentinel() -> Self {
        Self {
            keys: [K::min_sentinel(); 2],
            value: u32::MAX,
        }
    }
    fn max_sentinel() -> Self {
        Self {
            keys: [K::max_sentinel(); 2],
            value: 0,
        }
    }

    #[inline]
    fn item_lt(&self, other: &Self) -> bool {
        let a = self.key_bits();
        let b = other.key_bits();
        if a != b {
            return a < b;
        }
        self.value > other.value
    }
}

/// Three keys + value (`KKKV`).
///
/// Lexicographic order on `(key0, key1, key2)`. The composite does not fit
/// a native integer, so `key_bits` folds the third key into the low bits of
/// a 96-bit logical key truncated to 64 bits: `key0 ‖ key1` dominates and
/// `key2` breaks ties only through [`TopKItem::item_lt`], which algorithms
/// use for all comparisons. Radix-digit algorithms operate on the top 64
/// bits and fall back to a final refinement pass; for the paper's
/// experiments (distinct uniform keys) ties in the top 64 bits are
/// measure-zero, matching the evaluation setup.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Kkkv<K: SortKey<Bits = u32>> {
    /// The ordering keys, most significant first.
    pub keys: [K; 3],
    /// The 4-byte payload.
    pub value: u32,
}

impl<K: SortKey<Bits = u32>> Kkkv<K> {
    /// Creates a three-key + value record.
    pub fn new(k0: K, k1: K, k2: K, value: u32) -> Self {
        Self {
            keys: [k0, k1, k2],
            value,
        }
    }
}

impl<K: SortKey<Bits = u32>> TopKItem for Kkkv<K> {
    type KeyBits = u64;
    /// `key0 ‖ key1 ‖ key2 ‖ !value`: all 128 bits.
    type Rank = u128;
    const SIZE_BYTES: usize = 3 * std::mem::size_of::<K>() + 4;

    #[inline]
    fn key_bits(&self) -> u64 {
        ((self.keys[0].sort_bits() as u64) << 32) | self.keys[1].sort_bits() as u64
    }
    #[inline]
    fn rank(&self) -> u128 {
        let low = self.keys[2].sort_bits().tag(!self.value);
        (self.key_bits() as u128) << 64 | low as u128
    }
    #[inline]
    fn from_rank(rank: u128) -> Self {
        let (k0, k1) = u32::untag((rank >> 64) as u64);
        let (k2, id) = u32::untag(rank as u64);
        let key = K::from_sort_bits;
        Self::new(key(k0), key(k1), key(k2), !id)
    }
    fn min_sentinel() -> Self {
        Self {
            keys: [K::min_sentinel(); 3],
            value: u32::MAX,
        }
    }
    fn max_sentinel() -> Self {
        Self {
            keys: [K::max_sentinel(); 3],
            value: 0,
        }
    }

    #[inline]
    fn item_lt(&self, other: &Self) -> bool {
        let a = self.key_bits();
        let b = other.key_bits();
        if a != b {
            return a < b;
        }
        let a2 = self.keys[2].sort_bits();
        let b2 = other.keys[2].sort_bits();
        if a2 != b2 {
            return a2 < b2;
        }
        self.value > other.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_key_item_size() {
        assert_eq!(<f32 as TopKItem>::SIZE_BYTES, 4);
        assert_eq!(<f64 as TopKItem>::SIZE_BYTES, 8);
        assert_eq!(<u64 as TopKItem>::SIZE_BYTES, 8);
    }

    #[test]
    fn kv_orders_by_key_then_id() {
        let a = Kv::new(1.0f32, 99);
        let b = Kv::new(2.0f32, 1);
        assert!(a.item_lt(&b));
        assert!(!b.item_lt(&a));
        // equal keys: the smaller id is the greater item (wins top-k)
        let c = Kv::new(1.0f32, 5);
        assert!(a.item_lt(&c), "id 5 must outrank id 99 on a key tie");
        assert!(!c.item_lt(&a));
        // identical items: neither strictly less
        assert!(!a.item_lt(&a));
    }

    #[test]
    fn tie_break_is_a_total_order_on_duplicate_heavy_keys() {
        // duplicate-heavy: 4 distinct keys across 64 items
        let items: Vec<Kv<u32>> = (0..64u32).map(|i| Kv::new(i % 4, i)).collect();
        for x in &items {
            for y in &items {
                if x == y {
                    assert!(!x.item_lt(y));
                } else {
                    // exactly one strict direction: totality + antisymmetry
                    assert!(x.item_lt(y) ^ y.item_lt(x), "{x:?} vs {y:?}");
                }
            }
        }
        // transitivity on a sorted chain
        let mut sorted = items.clone();
        sorted.sort_by(|a, b| {
            if a.item_lt(b) {
                std::cmp::Ordering::Less
            } else if b.item_lt(a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        for w in sorted.windows(2) {
            assert!(w[0].item_lt(&w[1]));
        }
    }

    #[test]
    fn kkv_and_kkkv_tie_break_by_id_last() {
        let a = Kkv::new(1.0f32, 2.0, 9);
        let b = Kkv::new(1.0f32, 2.0, 3);
        assert!(a.item_lt(&b), "equal composite keys: smaller id wins");
        let c = Kkkv::new(1.0f32, 2.0, 3.0, 9);
        let d = Kkkv::new(1.0f32, 2.0, 3.0, 3);
        assert!(c.item_lt(&d));
        // the third key still dominates the id
        let e = Kkkv::new(1.0f32, 2.0, 4.0, 99);
        assert!(d.item_lt(&e));
    }

    #[test]
    fn kv_size() {
        assert_eq!(Kv::<f32>::SIZE_BYTES, 8);
        assert_eq!(Kv::<f64>::SIZE_BYTES, 12);
    }

    #[test]
    fn kkv_lexicographic() {
        let a = Kkv::new(1.0f32, 9.0, 0);
        let b = Kkv::new(2.0f32, 0.0, 0);
        let c = Kkv::new(2.0f32, 1.0, 0);
        assert!(a.item_lt(&b)); // first key dominates
        assert!(b.item_lt(&c)); // second key breaks ties
        assert_eq!(Kkv::<f32>::SIZE_BYTES, 12);
    }

    #[test]
    fn kkkv_third_key_breaks_ties() {
        let a = Kkkv::new(1.0f32, 1.0, 1.0, 0);
        let b = Kkkv::new(1.0f32, 1.0, 2.0, 0);
        let c = Kkkv::new(1.0f32, 2.0, 0.0, 0);
        assert!(a.item_lt(&b));
        assert!(b.item_lt(&c));
        assert_eq!(Kkkv::<f32>::SIZE_BYTES, 16);
    }

    #[test]
    fn sentinels_bound_everything() {
        let lo = Kv::<f32>::min_sentinel();
        let hi = Kv::<f32>::max_sentinel();
        for k in [-1e30f32, -1.0, 0.0, 1.0, 1e30] {
            let item = Kv::new(k, 7);
            assert!(!item.item_lt(&lo));
            assert!(!hi.item_lt(&item));
        }
    }

    #[test]
    fn negative_keys_order_correctly_in_kv() {
        let a = Kv::new(-5i32, 0);
        let b = Kv::new(3i32, 0);
        assert!(a.item_lt(&b));
    }
}

/// Order-reversing adapter: `Rev(x)` compares exactly opposite to `x`, so
/// the top-k of `Rev<T>` items is the bottom-k of the underlying items —
/// how `ORDER BY … ASC LIMIT k` reuses the largest-k kernels.
///
/// `Rev<T>` has the exact device footprint of `T` and wraps it
/// value-identically, so a device buffer of `T` can be *viewed* as a
/// buffer of `Rev<T>` in place in the simulated address space (see
/// `GpuBuffer::map_view` in the `simt` crate) — smallest-k needs no
/// device round-trip and no extra device memory.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rev<T: TopKItem>(pub T);

impl<T: TopKItem> TopKItem for Rev<T>
where
    T::KeyBits: RadixBits,
{
    type KeyBits = T::KeyBits;
    /// `!T::rank`: the complement reverses the order, tie-break included.
    type Rank = T::Rank;
    const SIZE_BYTES: usize = T::SIZE_BYTES;

    #[inline]
    fn key_bits(&self) -> Self::KeyBits {
        // complementing the bits reverses the unsigned order
        self.0.key_bits() ^ Self::KeyBits::MAX
    }
    #[inline]
    fn rank(&self) -> T::Rank {
        !self.0.rank()
    }
    #[inline]
    fn from_rank(rank: T::Rank) -> Self {
        Rev(T::from_rank(!rank))
    }

    #[inline]
    fn key_value(&self) -> f64 {
        -self.0.key_value()
    }

    fn min_sentinel() -> Self {
        Rev(T::max_sentinel())
    }

    fn max_sentinel() -> Self {
        Rev(T::min_sentinel())
    }

    #[inline]
    fn item_lt(&self, other: &Self) -> bool {
        // strict order reversal, including the underlying tie-break
        other.0.item_lt(&self.0)
    }
}

impl<T: TopKItem> simt::TransparentWrapper<T> for Rev<T>
where
    T::KeyBits: RadixBits,
{
    fn wrap(inner: T) -> Self {
        Rev(inner)
    }
    fn peel(self) -> T {
        self.0
    }
}

/// Wraps a host slice of `T` as owned [`Rev<T>`] items — the CPU-side
/// counterpart of [`RevView::as_rev_view`]. The wrap is value-identical;
/// only the ordering changes.
pub fn rev_slice<T: TopKItem>(items: &[T]) -> Vec<Rev<T>> {
    items.iter().map(|&x| Rev(x)).collect()
}

/// Safe smallest-k view over a device buffer.
///
/// `buf.as_rev_view()` views a `GpuBuffer<T>` **in place in the
/// simulated address space** as a buffer of the order-reversing
/// [`Rev<T>`] wrapper — no device round-trip, no extra device memory —
/// so largest-k kernels compute smallest-k. The storage returns to the
/// source buffer when the view drops.
pub trait RevView<T: TopKItem> {
    /// The in-place order-reversed view of this buffer.
    fn as_rev_view(&self) -> simt::MappedBuffer<T, Rev<T>>;
}

impl<T: TopKItem> RevView<T> for simt::GpuBuffer<T> {
    fn as_rev_view(&self) -> simt::MappedBuffer<T, Rev<T>> {
        self.map_view::<Rev<T>>()
    }
}

#[cfg(test)]
mod rev_tests {
    use super::*;

    #[test]
    fn rev_reverses_order() {
        let a = Rev(1.0f32);
        let b = Rev(2.0f32);
        assert!(b.item_lt(&a), "Rev(2.0) must sort below Rev(1.0)");
        assert!(!a.item_lt(&b));
    }

    #[test]
    fn rev_sentinels_swap() {
        let lo = Rev::<u32>::min_sentinel();
        let hi = Rev::<u32>::max_sentinel();
        assert_eq!(lo.0, u32::MAX);
        assert_eq!(hi.0, 0);
        for v in [0u32, 1, 1000, u32::MAX] {
            let r = Rev(v);
            assert!(!r.item_lt(&lo));
            assert!(!hi.item_lt(&r));
        }
    }

    #[test]
    fn rev_value_negates() {
        assert_eq!(Rev(3.5f32).key_value(), -3.5);
    }

    #[test]
    fn rev_of_kv_keeps_payload() {
        let r = Rev(Kv::new(7u32, 99));
        assert_eq!(r.0.value, 99);
        assert_eq!(Rev::<Kv<u32>>::SIZE_BYTES, 8);
    }

    #[test]
    fn as_rev_view_is_in_place_and_restores() {
        let dev = simt::Device::titan_x();
        let buf = dev.upload(&[3.0f32, 1.0, 2.0]);
        let bytes = dev.memory_allocated();
        {
            let view = buf.as_rev_view();
            assert_eq!(view.view().len(), 3);
            assert_eq!(dev.memory_allocated(), bytes, "no extra allocation");
            assert!(buf.is_empty(), "storage moved into the view");
        }
        assert_eq!(buf.to_vec(), vec![3.0, 1.0, 2.0], "restored on drop");
    }

    #[test]
    fn rev_slice_wraps_and_reverses() {
        let host = [5u32, 9, 1];
        let rev = rev_slice(&host);
        assert_eq!(rev.len(), 3);
        assert!(rev[1].item_lt(&rev[2]), "Rev(9) sorts below Rev(1)");
        assert_eq!(rev[0].0, 5);
    }

    #[test]
    fn rev_reverses_the_id_tie_break_too() {
        let a = Rev(Kv::new(7u32, 5));
        let b = Rev(Kv::new(7u32, 99));
        // underlying: id 5 outranks id 99; reversed: Rev(id 5) sorts lower
        assert!(a.item_lt(&b));
        assert!(!b.item_lt(&a));
        // Rev sentinels still bound Kv items with the new tie-break
        let lo = Rev::<Kv<u32>>::min_sentinel();
        let hi = Rev::<Kv<u32>>::max_sentinel();
        for v in [0u32, 7, u32::MAX] {
            let r = Rev(Kv::new(v, 3));
            assert!(!r.item_lt(&lo), "key {v}");
            assert!(!hi.item_lt(&r), "key {v}");
        }
    }
}
