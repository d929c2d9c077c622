// the one sanctioned unsafe island in the workspace: the SSE/AVX2
// compare-exchange intrinsics below (the CI unsafe gate allowlists
// exactly this file)
#![allow(unsafe_code)]
//! Bitonic top-k on the CPU (Appendix C).
//!
//! Each core's partition is processed in L1-resident *vectors* (2048
//! elements by default, ≈ 8 KB of `f32` — comfortably inside L1): a
//! SortReducer phase turns an unsorted vector into 1/16th of its size in
//! bitonic runs of `k`, and BitonicReducer phases keep shrinking the
//! survivors until one vector remains, which is reduced to exactly `k`.
//!
//! For bare `f32` keys the compare-exchange steps use 4-lane SSE2
//! min/max intrinsics (the 128-bit SSE implementation the paper cites);
//! every other item type takes the portable scalar path. NaN keys force
//! the scalar path — SSE `min/max` NaN semantics do not match the total
//! bit order.

use crate::CpuTopK;
use datagen::TopKItem;
use sortnet::{host, local_sort_steps, next_pow2, rebuild_steps, Step};
use std::any::TypeId;

/// Default vector (block) size: 2048 elements, as in Algorithm 5.
pub const DEFAULT_VECTOR: usize = 2048;

/// CPU bitonic top-k (Appendix C).
#[derive(Debug, Clone, Copy)]
pub struct CpuBitonic {
    /// Elements per L1-resident vector (a power of two ≥ 64).
    pub vector_size: usize,
}

impl Default for CpuBitonic {
    fn default() -> Self {
        Self {
            vector_size: DEFAULT_VECTOR,
        }
    }
}

impl CpuBitonic {
    /// Uses a custom L1 vector size (power of two ≥ 64).
    pub fn with_vector_size(vector_size: usize) -> Self {
        assert!(
            vector_size.is_power_of_two() && vector_size >= 64,
            "vector size must be a power of two ≥ 64"
        );
        Self { vector_size }
    }

    /// SortReducer: unsorted vector → `len >> merges` elements of bitonic
    /// runs of `k`, appended to `out`.
    fn sort_reduce<T: TopKItem>(
        &self,
        vec_buf: &mut [T],
        k: usize,
        merges: usize,
        out: &mut Vec<T>,
        simd: bool,
    ) {
        for step in local_sort_steps(k) {
            apply_step_accel(vec_buf, step, simd);
        }
        let mut len = vec_buf.len();
        for m in 0..merges {
            merge_in_place(vec_buf, len, k);
            len /= 2;
            if m + 1 < merges {
                for step in rebuild_steps(k) {
                    apply_step_accel(&mut vec_buf[..len], step, simd);
                }
            }
        }
        out.extend_from_slice(&vec_buf[..len]);
    }

    /// BitonicReducer: bitonic runs of `k` → reduced by `2^merges`.
    fn bitonic_reduce<T: TopKItem>(
        &self,
        vec_buf: &mut [T],
        k: usize,
        merges: usize,
        out: &mut Vec<T>,
        simd: bool,
    ) {
        let mut len = vec_buf.len();
        for _ in 0..merges {
            for step in rebuild_steps(k) {
                apply_step_accel(&mut vec_buf[..len], step, simd);
            }
            merge_in_place(vec_buf, len, k);
            len /= 2;
        }
        out.extend_from_slice(&vec_buf[..len]);
    }
}

impl<T: TopKItem> CpuTopK<T> for CpuBitonic {
    fn name(&self) -> &'static str {
        "cpu-bitonic"
    }

    fn partition_topk(&self, data: &[T], k: usize) -> Vec<T> {
        let k_req = k.min(data.len());
        if k_req == 0 {
            return Vec::new();
        }
        let k_eff = next_pow2(k_req);
        let vs = self.vector_size.max(2 * k_eff);
        if data.len() <= vs {
            return host::bitonic_topk_host(data, k_req);
        }
        let simd = use_simd::<T>(data);

        // phase 1: SortReducer over every vector
        let merges = (sortnet::log2(vs / k_eff) as usize).min(4);
        let mut cur: Vec<T> = Vec::with_capacity(data.len() / (1 << merges) + vs);
        let mut vec_buf = vec![T::min_sentinel(); vs];
        for chunk in data.chunks(vs) {
            vec_buf[..chunk.len()].copy_from_slice(chunk);
            vec_buf[chunk.len()..].fill(T::min_sentinel());
            self.sort_reduce(&mut vec_buf, k_eff, merges, &mut cur, simd);
        }

        // subsequent phases: BitonicReducer until one vector remains
        while cur.len() > vs {
            let mut next: Vec<T> = Vec::with_capacity(cur.len() / (1 << merges) + vs);
            for chunk in cur.chunks(vs) {
                vec_buf[..chunk.len()].copy_from_slice(chunk);
                // pad with whole sentinel runs (they are valid bitonic runs)
                vec_buf[chunk.len()..].fill(T::min_sentinel());
                self.bitonic_reduce(&mut vec_buf, k_eff, merges, &mut next, simd);
            }
            cur = next;
        }

        // final vector: reduce to k_eff and sort
        let len = next_pow2(cur.len());
        cur.resize(len, T::min_sentinel());
        while cur.len() > k_eff {
            for step in rebuild_steps(k_eff) {
                apply_step_accel(&mut cur, step, simd);
            }
            let len = cur.len();
            merge_in_place(&mut cur, len, k_eff);
            cur.truncate(len / 2);
        }
        for step in rebuild_steps(k_eff) {
            apply_step_accel(&mut cur, step, simd);
        }
        cur.reverse();
        cur.truncate(k_req);
        cur
    }
}

/// Pairwise-max merge of aligned `2k` windows, compacting in place.
fn merge_in_place<T: TopKItem>(buf: &mut [T], len: usize, k: usize) {
    debug_assert!(len.is_multiple_of(2 * k));
    for w in 0..len / (2 * k) {
        for j in 0..k {
            let a = buf[2 * k * w + j];
            let b = buf[2 * k * w + j + k];
            buf[k * w + j] = if a.item_lt(&b) { b } else { a };
        }
    }
}

/// Whether the SIMD fast path applies: bare `f32` keys with no NaNs.
fn use_simd<T: TopKItem>(data: &[T]) -> bool {
    if TypeId::of::<T>() != TypeId::of::<f32>() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if !is_x86_feature_detected!("sse2") {
            return false;
        }
        // SAFETY: T is f32 (checked by TypeId above)
        let f: &[f32] = unsafe { &*(data as *const [T] as *const [f32]) };
        !f.iter().any(|x| x.is_nan())
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One network step, taking the widest available SIMD path for `f32`
/// when allowed (AVX2 8-wide for `j ≥ 8`, SSE2 4-wide for `j ≥ 4`).
fn apply_step_accel<T: TopKItem>(data: &mut [T], step: Step, simd: bool) {
    if simd && TypeId::of::<T>() == TypeId::of::<f32>() && step.j >= 4 {
        // SAFETY: T is f32 (checked by TypeId)
        let f: &mut [f32] = unsafe { &mut *(data as *mut [T] as *mut [f32]) };
        #[cfg(target_arch = "x86_64")]
        {
            if step.j >= 8 && is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 detected; NaN-free guaranteed by use_simd
                unsafe { apply_step_f32_avx2(f, step) };
            } else {
                // SAFETY: SSE2 is baseline on x86_64
                unsafe { apply_step_f32_sse(f, step) };
            }
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            apply_step_scalar(f, step);
            return;
        }
    }
    apply_step_scalar(data, step);
}

/// The portable compare-exchange step on items: each aligned `2j` block
/// sorts in one direction (the phase's run is at least `2j`), and a pair
/// swaps iff `ascending == p.item_lt(a)`. A pair whose upper element lies
/// past the end of the slice is left alone.
fn apply_step_scalar<T: TopKItem>(data: &mut [T], step: Step) {
    for (b, block) in data.chunks_mut(2 * step.j).enumerate() {
        if block.len() <= step.j {
            break;
        }
        let asc = step.ascending(b * 2 * step.j);
        let (lo, hi) = block.split_at_mut(step.j);
        for (a, p) in lo.iter_mut().zip(hi) {
            // a select rather than a branch: the outcome is data-dependent
            let swap = asc == p.item_lt(a);
            let (x, y) = if swap { (*p, *a) } else { (*a, *p) };
            *a = x;
            *p = y;
        }
    }
}

/// SSE2 compare-exchange at distance `j ≥ 4`: 4 lanes at a time. The
/// direction is constant over each aligned 4-lane chunk because
/// `run ≥ 2j ≥ 8`.
///
/// # Safety
/// Requires SSE2 (guaranteed on x86_64) and NaN-free input.
#[cfg(target_arch = "x86_64")]
unsafe fn apply_step_f32_sse(data: &mut [f32], step: Step) {
    use std::arch::x86_64::*;
    let n = data.len();
    let j = step.j;
    debug_assert!(j >= 4 && j.is_power_of_two());
    let mut base = 0;
    while base + j < n {
        // `base` iterates the lower-partner runs: blocks of j indices with
        // the j-bit clear
        for i in (base..base + j).step_by(4) {
            if i + j + 4 > n {
                break;
            }
            let asc = step.ascending(i);
            // SAFETY (caller contract): i+4 ≤ base+j ≤ n and i+j+4 ≤ n
            unsafe {
                let pa = data.as_mut_ptr().add(i);
                let pb = data.as_mut_ptr().add(i + j);
                let a = _mm_loadu_ps(pa);
                let b = _mm_loadu_ps(pb);
                let lo = _mm_min_ps(a, b);
                let hi = _mm_max_ps(a, b);
                if asc {
                    _mm_storeu_ps(pa, lo);
                    _mm_storeu_ps(pb, hi);
                } else {
                    _mm_storeu_ps(pa, hi);
                    _mm_storeu_ps(pb, lo);
                }
            }
        }
        base += 2 * j;
    }
}

/// AVX2 compare-exchange at distance `j ≥ 8`: 8 lanes at a time
/// (`run ≥ 2j ≥ 16`, so direction is constant per aligned 8-lane chunk).
///
/// # Safety
/// Requires AVX2 and NaN-free input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_step_f32_avx2(data: &mut [f32], step: Step) {
    use std::arch::x86_64::*;
    let n = data.len();
    let j = step.j;
    debug_assert!(j >= 8 && j.is_power_of_two());
    let mut base = 0;
    while base + j < n {
        for i in (base..base + j).step_by(8) {
            if i + j + 8 > n {
                break;
            }
            let asc = step.ascending(i);
            // SAFETY (caller contract): i+8 ≤ base+j ≤ n and i+j+8 ≤ n
            unsafe {
                let pa = data.as_mut_ptr().add(i);
                let pb = data.as_mut_ptr().add(i + j);
                let a = _mm256_loadu_ps(pa);
                let b = _mm256_loadu_ps(pb);
                let lo = _mm256_min_ps(a, b);
                let hi = _mm256_max_ps(a, b);
                if asc {
                    _mm256_storeu_ps(pa, lo);
                    _mm256_storeu_ps(pb, hi);
                } else {
                    _mm256_storeu_ps(pa, hi);
                    _mm256_storeu_ps(pb, lo);
                }
            }
        }
        base += 2 * j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, Decreasing, Distribution, Increasing, Kv, Uniform};

    #[test]
    fn matches_reference_across_k() {
        let data: Vec<f32> = Uniform.generate(1 << 16, 100);
        let alg = CpuBitonic::default();
        for k in [1usize, 3, 8, 32, 100, 256] {
            let got = alg.partition_topk(&data, k);
            assert_eq!(got, reference_topk(&data, k), "k={k}");
        }
    }

    #[test]
    fn sse_step_equals_scalar_step() {
        let base: Vec<f32> = Uniform.generate(1 << 12, 101);
        for j in [4usize, 8, 64, 512] {
            for run in [2 * j, 4 * j, 1 << 12] {
                let step = Step { j, run };
                let mut scalar = base.clone();
                apply_step_scalar(&mut scalar, step);
                let mut simd = base.clone();
                unsafe { apply_step_f32_sse(&mut simd, step) };
                assert_eq!(scalar, simd, "j={j} run={run}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_step_equals_scalar_step() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let base: Vec<f32> = Uniform.generate(1 << 12, 111);
        for j in [8usize, 16, 128, 1024] {
            for run in [2 * j, 4 * j, 1 << 12] {
                let step = Step { j, run };
                let mut scalar = base.clone();
                apply_step_scalar(&mut scalar, step);
                let mut simd = base.clone();
                unsafe { apply_step_f32_avx2(&mut simd, step) };
                assert_eq!(scalar, simd, "j={j} run={run}");
            }
        }
    }

    #[test]
    fn non_f32_takes_scalar_path() {
        let data: Vec<u64> = Uniform.generate(1 << 14, 102);
        let got = CpuBitonic::default().partition_topk(&data, 16);
        assert_eq!(got, reference_topk(&data, 16));
    }

    #[test]
    fn nan_inputs_fall_back_and_stay_total() {
        let mut data: Vec<f32> = Uniform.generate(8192, 103);
        data[17] = f32::NAN;
        data[4001] = f32::NAN;
        assert!(!use_simd::<f32>(&data));
        let got = CpuBitonic::default().partition_topk(&data, 4);
        // positive NaN sorts above everything in bit order
        assert!(got[0].is_nan() && got[1].is_nan());
        assert!(!got[2].is_nan());
    }

    #[test]
    fn sorted_distributions() {
        let inc: Vec<f32> = Increasing.generate(1 << 15, 104);
        let dec: Vec<f32> = Decreasing.generate(1 << 15, 104);
        let alg = CpuBitonic::default();
        assert_eq!(alg.partition_topk(&inc, 64), reference_topk(&inc, 64));
        assert_eq!(alg.partition_topk(&dec, 64), reference_topk(&dec, 64));
    }

    #[test]
    fn payload_items_scalar() {
        let data: Vec<Kv<u32>> = (0..(1 << 14) as u32)
            .map(|i| Kv::new(i.wrapping_mul(2654435761), i))
            .collect();
        let got = CpuBitonic::default().partition_topk(&data, 8);
        let mut expect = data.clone();
        expect.sort_unstable_by_key(|kv| std::cmp::Reverse(kv.key));
        expect.truncate(8);
        assert_eq!(got, expect);
    }

    #[test]
    fn custom_vector_size() {
        let data: Vec<f32> = Uniform.generate(1 << 14, 105);
        for vs in [64usize, 256, 4096] {
            let alg = CpuBitonic::with_vector_size(vs);
            assert_eq!(
                alg.partition_topk(&data, 32),
                reference_topk(&data, 32),
                "vs={vs}"
            );
        }
    }

    #[test]
    fn large_k_exceeding_vector_budget() {
        // vs must grow to hold 2k
        let data: Vec<f32> = Uniform.generate(1 << 14, 106);
        let alg = CpuBitonic::with_vector_size(64);
        assert_eq!(alg.partition_topk(&data, 512), reference_topk(&data, 512));
    }
}
