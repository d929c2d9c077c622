//! Selection-style CPU partition kernels: full sort-and-choose and MSD
//! radix select.
//!
//! These give the CPU execution backend a counterpart for every
//! [`TopKAlgorithm`](https://docs.rs/topk) variant: `Sort` maps to
//! [`CpuSort`] (sort everything, take `k` — the MapD-style baseline) and
//! the threshold-finding algorithms (`RadixSelect`, `BucketSelect`) map
//! to [`CpuRadixSelect`], the host analog of the paper's §2.3 digit-wise
//! selection. Both plug into [`CpuTopK`]'s partition/merge parallelism.

use crate::CpuTopK;
use datagen::{RadixBits, TopKItem};

/// Sort-and-choose: sort the whole partition descending by key bits, take
/// the first `k`. The CPU stand-in for the full-sort baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSort;

impl<T: TopKItem> CpuTopK<T> for CpuSort {
    fn name(&self) -> &'static str {
        "cpu-sort"
    }

    fn partition_topk(&self, data: &[T], k: usize) -> Vec<T> {
        let k = k.min(data.len());
        if k == 0 {
            return Vec::new();
        }
        let mut v = data.to_vec();
        v.sort_unstable_by_key(|x| std::cmp::Reverse(x.key_bits()));
        v.truncate(k);
        v
    }
}

/// MSD radix select: finds the k-th largest key with one 256-bucket
/// histogram pass per 8-bit digit (most significant first), then gathers
/// the winners in a final scan — the CPU analog of the paper's radix /
/// bucket select family (§2.3): no full sort, O(digits · n) passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuRadixSelect;

impl<T: TopKItem> CpuTopK<T> for CpuRadixSelect {
    fn name(&self) -> &'static str {
        "cpu-radix-select"
    }

    fn partition_topk(&self, data: &[T], k: usize) -> Vec<T> {
        let k = k.min(data.len());
        if k == 0 {
            return Vec::new();
        }
        let digits = <T::KeyBits as RadixBits>::BITS / 8;
        // Narrow a most-significant bit prefix until it pins down the
        // k-th largest key exactly.
        let mut prefix = <T::KeyBits as RadixBits>::ZERO;
        let mut prefix_digits = 0u32;
        let mut remaining = k;
        for d in 0..digits {
            let mut hist = [0usize; 256];
            for x in data {
                let bits = x.key_bits();
                if matches_prefix(bits, prefix, prefix_digits) {
                    hist[bits.msd_digit(d) as usize] += 1;
                }
            }
            // walk buckets from the largest digit down
            let mut digit = 255usize;
            loop {
                if hist[digit] >= remaining {
                    break;
                }
                remaining -= hist[digit];
                debug_assert!(digit > 0, "histogram must cover the remaining count");
                digit -= 1;
            }
            let shift = <T::KeyBits as RadixBits>::BITS - 8 * (d + 1);
            prefix = prefix | (<T::KeyBits as RadixBits>::from_u64(digit as u64) << shift);
            prefix_digits = d + 1;
        }
        // `prefix` is now the exact k-th largest key: everything above it
        // is a winner, plus `remaining` items equal to it.
        let threshold = prefix;
        let mut out = Vec::with_capacity(k);
        let mut at_threshold = remaining;
        for &x in data {
            let bits = x.key_bits();
            if bits > threshold {
                out.push(x);
            } else if bits == threshold && at_threshold > 0 {
                out.push(x);
                at_threshold -= 1;
            }
        }
        out.sort_unstable_by_key(|x| std::cmp::Reverse(x.key_bits()));
        debug_assert_eq!(out.len(), k);
        out
    }
}

/// Delegate select: the CPU counterpart of the device delegate
/// decomposition (Dr. Top-k). The partition is cut into fixed-length
/// chunks; each chunk's maximum (full item order) is its delegate. The
/// k-th best delegate is a threshold: only chunks whose delegate key is
/// `≥` it (ties kept) can contribute to the top-k, and only those chunks
/// are re-examined.
#[derive(Debug, Clone, Copy)]
pub struct CpuDelegateSelect {
    /// Chunk (delegate granularity) length in items.
    pub subrange: usize,
}

impl Default for CpuDelegateSelect {
    fn default() -> Self {
        // same granularity as the device algorithm's default
        CpuDelegateSelect { subrange: 2048 }
    }
}

impl<T: TopKItem> CpuTopK<T> for CpuDelegateSelect {
    fn name(&self) -> &'static str {
        "cpu-delegate-select"
    }

    fn partition_topk(&self, data: &[T], k: usize) -> Vec<T> {
        let k = k.min(data.len());
        if k == 0 {
            return Vec::new();
        }
        let s = self.subrange.max(1);
        let chunks: Vec<&[T]> = data.chunks(s).collect();
        let delegates: Vec<T> = chunks
            .iter()
            .map(|chunk| {
                let mut best = chunk[0];
                for item in &chunk[1..] {
                    if best.item_lt(item) {
                        best = *item;
                    }
                }
                best
            })
            .collect();
        let gathered: Vec<T> = if delegates.len() > k {
            // threshold = the k-th best delegate key; chunks with a
            // strictly smaller delegate key are dominated by k better
            // items elsewhere and cannot contribute
            let mut keys: Vec<_> = delegates.iter().map(|d| d.key_bits()).collect();
            keys.sort_unstable_by_key(|&b| std::cmp::Reverse(b));
            let tau = keys[k - 1];
            chunks
                .iter()
                .zip(&delegates)
                .filter(|(_, d)| d.key_bits() >= tau)
                .flat_map(|(chunk, _)| chunk.iter().copied())
                .collect()
        } else {
            data.to_vec()
        };
        // best first in the full item order; select the top k of the
        // gathered candidates, then sort only those
        let best_first = |a: &T, b: &T| {
            if a.item_lt(b) {
                std::cmp::Ordering::Greater
            } else if b.item_lt(a) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        };
        let mut out = gathered;
        if out.len() > k {
            out.select_nth_unstable_by(k - 1, best_first);
            out.truncate(k);
        }
        out.sort_unstable_by(best_first);
        out
    }
}

/// True when the top `prefix_digits` 8-bit digits of `bits` equal those
/// of `prefix`.
#[inline]
fn matches_prefix<B: RadixBits>(bits: B, prefix: B, prefix_digits: u32) -> bool {
    if prefix_digits == 0 {
        return true;
    }
    let shift = B::BITS - 8 * prefix_digits;
    (bits >> shift) == (prefix >> shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, Distribution, Kv, Uniform};

    fn keybits<T: TopKItem>(v: &[T]) -> Vec<T::KeyBits> {
        v.iter().map(|x| x.key_bits()).collect()
    }

    #[test]
    fn select_kernels_match_reference() {
        let data: Vec<f32> = Uniform.generate(50_000, 42);
        let delegate = CpuDelegateSelect::default();
        for alg in [&CpuSort as &dyn CpuTopK<f32>, &CpuRadixSelect, &delegate] {
            for k in [1usize, 7, 64, 1000] {
                let got = alg.topk(&data, k, 4);
                let want = reference_topk(&data, k);
                assert_eq!(keybits(&got), keybits(&want), "{} k={k}", alg.name());
            }
        }
    }

    #[test]
    fn radix_select_handles_duplicate_heavy_keys() {
        // every key collides: the threshold bucket carries most of k
        let data: Vec<Kv<u32>> = (0..10_000u32).map(|i| Kv::new(i % 7, i)).collect();
        let got = CpuRadixSelect.topk(&data, 100, 8);
        let mut want = data.clone();
        want.sort_unstable_by_key(|x| std::cmp::Reverse(x.key_bits()));
        want.truncate(100);
        assert_eq!(keybits(&got), keybits(&want));
    }

    #[test]
    fn radix_select_on_64_bit_keys() {
        let data: Vec<u64> = Uniform.generate(20_000, 7);
        let got = CpuRadixSelect.topk(&data, 33, 4);
        assert_eq!(keybits(&got), keybits(&reference_topk(&data, 33)));
    }

    #[test]
    fn k_at_or_past_input_length() {
        let data = vec![4u32, 8, 2];
        assert_eq!(CpuSort.topk(&data, 3, 2), vec![8, 4, 2]);
        assert_eq!(CpuRadixSelect.topk(&data, 10, 2), vec![8, 4, 2]);
        assert_eq!(
            CpuDelegateSelect::default().topk(&data, 10, 2),
            vec![8, 4, 2]
        );
    }

    #[test]
    fn delegate_select_ties_break_by_id_like_the_full_sort() {
        // every chunk's delegate collides on the key — the threshold
        // keeps them all, and the id tie-break decides the winners
        let data: Vec<Kv<u32>> = (0..40_000u32).map(|i| Kv::new(i % 13, i)).collect();
        let delegate = CpuDelegateSelect { subrange: 512 };
        let got = delegate.topk(&data, 100, 4);
        // oracle: full item order (key, then smaller row id wins) —
        // CpuSort is key-only and does not pin the tie winners
        let mut want = data.clone();
        want.sort_unstable_by(|a, b| {
            if a.item_lt(b) {
                std::cmp::Ordering::Greater
            } else if b.item_lt(a) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        });
        want.truncate(100);
        // compare full items: equal keys must pick the same row ids
        assert_eq!(got, want);
    }

    #[test]
    fn delegate_select_with_tiny_subrange_and_skew() {
        // descending-sorted input: only the first chunks contribute
        let data: Vec<f32> = (0..30_000).rev().map(|i| i as f32).collect();
        let delegate = CpuDelegateSelect { subrange: 64 };
        let got = delegate.topk(&data, 33, 4);
        assert_eq!(keybits(&got), keybits(&reference_topk(&data, 33)));
    }
}
