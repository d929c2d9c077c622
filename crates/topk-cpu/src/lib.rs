#![deny(unsafe_code)]
#![warn(missing_docs)]
//! CPU top-k baselines (Section 6.7) and the CPU port of bitonic top-k
//! (Appendix C).
//!
//! Unlike the `topk` crate — which runs on the simulated GPU and reports
//! modeled time — everything here is real, multi-threaded Rust measured
//! in wall-clock time by the benchmark harness:
//!
//! * [`StlPq`] — `std::collections::BinaryHeap` as the stand-in for the
//!   paper's C++ `std::priority_queue` baseline.
//! * [`HandPq`] — a hand-rolled flat-array min-heap with the
//!   compare-against-root fast path, the paper's "Hand PQ".
//! * [`CpuBitonic`] — Appendix C: the partition is processed in
//!   L1-resident vectors of 2048 elements through SortReducer /
//!   BitonicReducer phases with 16-wide combined steps, using SSE-style
//!   4-lane compare-exchanges on `f32` keys (SSE2 intrinsics when
//!   available, portable scalar otherwise).
//!
//! All three parallelize the same way (Section 3.1): partition the input
//! across cores, compute per-partition top-k, reduce.

pub mod bitonic;
pub mod heap;
pub mod select;

pub use bitonic::CpuBitonic;
pub use heap::{HandPq, StlPq};
pub use select::{CpuDelegateSelect, CpuRadixSelect, CpuSort};

use datagen::TopKItem;

/// A CPU top-k algorithm: takes a slice, returns the largest `k` items in
/// descending key order.
pub trait CpuTopK<T: TopKItem>: Send + Sync {
    /// Short name for experiment tables.
    fn name(&self) -> &'static str;

    /// Computes the top-k of one partition, single-threaded.
    fn partition_topk(&self, data: &[T], k: usize) -> Vec<T>;

    /// Full parallel top-k: partitions `data` across `threads` cores,
    /// computes per-partition top-k, merges, and re-selects.
    fn topk(&self, data: &[T], k: usize, threads: usize) -> Vec<T> {
        assert!(k >= 1, "k must be at least 1");
        let k = k.min(data.len());
        if k == 0 {
            return Vec::new();
        }
        let threads = threads.max(1);
        if threads == 1 || data.len() < 4 * k * threads {
            let mut v = self.partition_topk(data, k);
            v.truncate(k);
            return v;
        }
        let chunk = data.len().div_ceil(threads);
        let mut partials: Vec<Vec<T>> = Vec::with_capacity(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(chunk)
                .map(|part| s.spawn(move || self.partition_topk(part, k)))
                .collect();
            for h in handles {
                partials.push(h.join().expect("partition worker panicked"));
            }
        });
        let mut all: Vec<T> = partials.into_iter().flatten().collect();
        // merge by the full item order (key, then the row-id tie-break
        // where the item carries one) so duplicate-heavy keys pick the
        // same winners as the device engines
        all.sort_unstable_by(|a, b| {
            if a.item_lt(b) {
                std::cmp::Ordering::Greater
            } else if b.item_lt(a) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        });
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, Distribution, Uniform};

    fn keybits<T: TopKItem>(v: &[T]) -> Vec<T::KeyBits> {
        v.iter().map(|x| x.key_bits()).collect()
    }

    #[test]
    fn parallel_matches_single_threaded() {
        let data: Vec<f32> = Uniform.generate(100_000, 80);
        for alg in [&StlPq as &dyn CpuTopK<f32>, &HandPq, &CpuBitonic::default()] {
            let single = alg.topk(&data, 50, 1);
            let multi = alg.topk(&data, 50, 8);
            assert_eq!(keybits(&single), keybits(&multi), "{}", alg.name());
            assert_eq!(
                keybits(&single),
                keybits(&reference_topk(&data, 50)),
                "{}",
                alg.name()
            );
        }
    }

    #[test]
    fn degenerate_partitions() {
        // more threads than useful work: partitioning must still be sound
        let data: Vec<u32> = Uniform.generate(100, 81);
        for alg in [&StlPq as &dyn CpuTopK<u32>, &HandPq, &CpuBitonic::default()] {
            let got = alg.topk(&data, 10, 16);
            assert_eq!(got, reference_topk(&data, 10), "{}", alg.name());
        }
    }

    #[test]
    fn k_bigger_than_input() {
        let data = vec![3u32, 9, 1];
        assert_eq!(StlPq.topk(&data, 10, 4), vec![9, 3, 1]);
        assert_eq!(HandPq.topk(&data, 10, 4), vec![9, 3, 1]);
        assert_eq!(CpuBitonic::default().topk(&data, 10, 4), vec![9, 3, 1]);
    }
}
