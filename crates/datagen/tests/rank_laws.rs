//! The two laws of [`TopKItem::rank`], for every item type in the
//! workspace and their [`Rev`] wrappers:
//!
//! * `a.item_lt(&b) == (a.rank() < b.rank())`;
//! * `T::from_rank(x.rank())` is `x` bit for bit.
//!
//! Draws mix random bit patterns with NaNs of both signs and several
//! payloads, ±0, ±inf, subnormals, integer extremes, duplicate keys,
//! ids 0 and `u32::MAX`, duplicate items and both sentinels.

use datagen::{Kkkv, Kkv, Kv, RadixBits, Rev, SortKey, TopKItem};
use proptest::prelude::*;

/// 32-bit key patterns drawn often: as f32, NaNs with several payloads
/// of both signs, ±0, ±inf, subnormals, the largest finite values and
/// ±1; as integers, 0, 1 and both signed and unsigned extremes.
const BITS32: [u32; 18] = [
    0x7fc0_0000,
    0x7f80_0001,
    0x7fff_ffff,
    0xffc0_0000,
    0xff80_0001,
    0xffff_ffff,
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0001,
    0x8000_0001,
    0x007f_ffff,
    0x807f_ffff,
    0x7f7f_ffff,
    0xff7f_ffff,
    0x3f80_0000,
    0xbf80_0000,
];

/// The 64-bit counterparts of [`BITS32`].
const BITS64: [u64; 16] = [
    0x7ff8_0000_0000_0000,
    0x7ff0_0000_0000_0001,
    0x7fff_ffff_ffff_ffff,
    0xfff8_0000_0000_0000,
    0xfff0_0000_0000_0001,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x8000_0000_0000_0001,
    0x000f_ffff_ffff_ffff,
    0x7fef_ffff_ffff_ffff,
    0x3ff0_0000_0000_0000,
    0xbff0_0000_0000_0000,
];

/// Ids drawn often: both ends of the id range.
const IDS: [u32; 4] = [0, 1, u32::MAX - 1, u32::MAX];

/// One draw's 32-bit key pattern: a special pattern three times in
/// four (so keys repeat), else random bits.
fn bits32(r: u64) -> u32 {
    if r & 3 == 0 {
        (r >> 32) as u32
    } else {
        BITS32[(r >> 8) as usize % BITS32.len()]
    }
}

/// One draw's 64-bit key pattern, as [`bits32`].
fn bits64(r: u64) -> u64 {
    if r & 3 == 0 {
        r.rotate_left(17)
    } else {
        BITS64[(r >> 8) as usize % BITS64.len()]
    }
}

/// One draw's id: an extreme one time in two, else random.
fn id(r: u64) -> u32 {
    if (r >> 2) & 1 == 0 {
        IDS[(r >> 4) as usize % IDS.len()]
    } else {
        (r >> 40) as u32
    }
}

/// A key's raw bits (its sort bits are a bijection of them).
fn raw<K: SortKey>(k: K) -> u64 {
    k.sort_bits().as_u64()
}

/// Items built from the draws, plus a duplicate item and both sentinels.
fn items<T: TopKItem>(draws: &[u64], make: impl Fn(u64) -> T) -> Vec<T> {
    let mut items: Vec<T> = draws.iter().map(|&r| make(r)).collect();
    items.push(items[0]);
    items.push(T::min_sentinel());
    items.push(T::max_sentinel());
    items
}

/// Asserts both laws on every item and every pair.
fn laws<T: TopKItem>(items: &[T], exact: &dyn Fn(&T) -> Vec<u64>) {
    for a in items {
        let back = T::from_rank(a.rank());
        assert_eq!(
            exact(&back),
            exact(a),
            "{a:?} does not decode from its rank"
        );
        for b in items {
            assert_eq!(
                a.item_lt(b),
                a.rank() < b.rank(),
                "{} {a:?} vs {b:?}",
                std::any::type_name::<T>()
            );
        }
    }
}

/// [`laws`] on the items and on their [`Rev`] wrappers.
fn laws_and_rev<T: TopKItem>(items: Vec<T>, exact: impl Fn(&T) -> Vec<u64>)
where
    T::KeyBits: RadixBits,
{
    laws(&items, &exact);
    let rev: Vec<Rev<T>> = items.iter().map(|&x| Rev(x)).collect();
    laws(&rev, &|r: &Rev<T>| exact(&r.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bare_keys_rank_by_sort_bits(draws in prop::collection::vec(any::<u64>(), 1..48)) {
        laws_and_rev(items(&draws, |r| f32::from_bits(bits32(r))), |&k| vec![raw(k)]);
        laws_and_rev(items(&draws, |r| f64::from_bits(bits64(r))), |&k| vec![raw(k)]);
        laws_and_rev(items(&draws, bits32), |&k| vec![raw(k)]);
        laws_and_rev(items(&draws, bits64), |&k| vec![raw(k)]);
        laws_and_rev(items(&draws, |r| bits32(r) as i32), |&k| vec![raw(k)]);
        laws_and_rev(items(&draws, |r| bits64(r) as i64), |&k| vec![raw(k)]);
    }

    #[test]
    fn payload_items_rank_by_key_then_complemented_id(
        draws in prop::collection::vec(any::<u64>(), 1..48),
    ) {
        let kv = |x: &Kv<f32>| vec![raw(x.key), x.value as u64];
        laws_and_rev(items(&draws, |r| Kv::new(f32::from_bits(bits32(r)), id(r))), kv);
        let kv = |x: &Kv<f64>| vec![raw(x.key), x.value as u64];
        laws_and_rev(items(&draws, |r| Kv::new(f64::from_bits(bits64(r)), id(r))), kv);
        let kv = |x: &Kv<u32>| vec![raw(x.key), x.value as u64];
        laws_and_rev(items(&draws, |r| Kv::new(bits32(r), id(r))), kv);

        // composite keys: each key from its own rotation of the draw
        let key = |r: u64, i: u32| f32::from_bits(bits32(r.rotate_left(13 * i)));
        let kkv = |x: &Kkv<f32>| vec![raw(x.keys[0]), raw(x.keys[1]), x.value as u64];
        laws_and_rev(items(&draws, |r| Kkv::new(key(r, 0), key(r, 1), id(r))), kkv);
        let kkkv = |x: &Kkkv<f32>| {
            vec![raw(x.keys[0]), raw(x.keys[1]), raw(x.keys[2]), x.value as u64]
        };
        laws_and_rev(
            items(&draws, |r| Kkkv::new(key(r, 0), key(r, 1), key(r, 2), id(r))),
            kkkv,
        );
    }
}

/// The sentinels sit at the ends of the rank domain.
#[test]
fn sentinels_are_the_extreme_ranks() {
    assert_eq!(<Kv<f32>>::min_sentinel().rank(), 0);
    assert_eq!(<Kv<f32>>::max_sentinel().rank(), u64::MAX);
    assert_eq!(<Kkkv<f32>>::min_sentinel().rank(), 0);
    assert_eq!(<Kkkv<f32>>::max_sentinel().rank(), u128::MAX);
    assert_eq!(<Rev<Kv<f32>>>::min_sentinel().rank(), 0);
    assert_eq!(<f32 as TopKItem>::max_sentinel().rank(), u32::MAX);
}
