//! Host-side reference implementations of the three bitonic top-k
//! operators and of full bitonic sort.
//!
//! These run on plain slices and serve three purposes: they are the
//! oracles the simulated GPU kernels are tested against, the building
//! blocks of the CPU implementation (Appendix C), and an executable
//! specification of the network schedules in [`crate::network`].

use crate::network::{full_sort_steps, local_sort_steps, rebuild_steps, Step};
use datagen::TopKItem;

/// Applies one network step to the whole slice.
///
/// Element `i` (with `i < i ^ j`) compare-exchanges with its partner; the
/// pair ends up ordered according to the phase's direction rule. A pair
/// whose upper element lies past the end of the slice is left alone.
///
/// The step pairs the two halves of every aligned `2j` block, and the
/// phase's run length is at least `2j`, so one direction serves the
/// whole block.
pub fn apply_step<T: TopKItem>(data: &mut [T], step: Step) {
    debug_assert!(
        step.run > step.j,
        "run {} must exceed j {}",
        step.run,
        step.j
    );
    for (b, block) in data.chunks_mut(2 * step.j).enumerate() {
        if block.len() <= step.j {
            break;
        }
        let asc = step.ascending(b * 2 * step.j);
        let (lo, hi) = block.split_at_mut(step.j);
        for (a, p) in lo.iter_mut().zip(hi) {
            // ascending: smaller element to the lower index; a select
            // rather than a branch, since the outcome is data-dependent
            let swap = asc == p.item_lt(a);
            let (x, y) = if swap { (*p, *a) } else { (*a, *p) };
            *a = x;
            *p = y;
        }
    }
}

/// **Local sort** (Section 3.2, operator 1): sorts aligned runs of length
/// `k`, alternating ascending (even run) / descending (odd run).
///
/// # Panics
/// If `data.len()` or `k` is not a power of two, or `k > data.len()`.
pub fn local_sort<T: TopKItem>(data: &mut [T], k: usize) {
    assert!(crate::is_pow2(data.len()), "length must be a power of two");
    assert!(k <= data.len(), "k={k} exceeds data length {}", data.len());
    for step in local_sort_steps(k) {
        apply_step(data, step);
    }
}

/// **Merge** (Section 3.2, operator 2): for each aligned `2k` window,
/// writes the pairwise maxima of its two `k`-halves to `out`, halving the
/// data. The key insight of the paper: each output window of `k` elements
/// contains that window's top-k and is itself a bitonic sequence.
///
/// `out` must have exactly `data.len() / 2` elements.
pub fn merge_halve<T: TopKItem>(data: &[T], k: usize, out: &mut [T]) {
    let n = data.len();
    assert!(
        n.is_multiple_of(2 * k),
        "length {n} must be a multiple of 2k={}",
        2 * k
    );
    assert_eq!(out.len(), n / 2);
    for w in 0..n / (2 * k) {
        for j in 0..k {
            let a = data[2 * k * w + j];
            let b = data[2 * k * w + j + k];
            out[k * w + j] = if a.item_lt(&b) { b } else { a };
        }
    }
}

/// [`merge_halve`] in place: afterwards `data[..data.len() / 2]` holds the
/// pairwise maxima, with the same tie rule (an output keeps the lower
/// half's element unless it is less than its partner). Output `p` of
/// window `w` lands at `k·w + j ≤ 2k·w + j`, below every input still to
/// be read, so a forward pass needs no second buffer.
pub fn merge_in_place<T: TopKItem>(data: &mut [T], k: usize) {
    let n = data.len();
    assert!(
        n.is_multiple_of(2 * k),
        "length {n} must be a multiple of 2k={}",
        2 * k
    );
    for w in 0..n / (2 * k) {
        for j in 0..k {
            let a = data[2 * k * w + j];
            let b = data[2 * k * w + j + k];
            data[k * w + j] = if a.item_lt(&b) { b } else { a };
        }
    }
}

/// **Rebuild** (Section 3.2, operator 3 / Algorithm 4): turns bitonic runs
/// of length `k` back into sorted runs (alternating directions) in
/// `log k` steps.
pub fn rebuild<T: TopKItem>(data: &mut [T], k: usize) {
    assert!(
        data.len().is_multiple_of(k),
        "length must be a multiple of k"
    );
    for step in rebuild_steps(k) {
        apply_step(data, step);
    }
}

/// Full bitonic sort (reference; ascending if `ascending`).
pub fn bitonic_sort<T: TopKItem>(data: &mut [T], ascending: bool) {
    assert!(crate::is_pow2(data.len()), "length must be a power of two");
    for step in full_sort_steps(data.len()) {
        apply_step(data, step);
    }
    if !ascending {
        data.reverse();
    }
}

/// The complete bitonic top-k on the host (Section 3.2): local sort, then
/// alternating merge/rebuild until `k` elements remain.
///
/// Returns the largest `k` items in descending key order. Handles arbitrary
/// `n ≥ 1` and `k ≥ 1` by padding to a power of two with `MIN` sentinels
/// and rounding `k` up to a power of two internally (extra results are
/// trimmed, exactly like the GPU implementation).
pub fn bitonic_topk_host<T: TopKItem>(data: &[T], k: usize) -> Vec<T> {
    assert!(k >= 1, "k must be at least 1");
    let k_eff = crate::next_pow2(k.min(data.len()));
    let padded = crate::next_pow2(data.len()).max(k_eff);
    let mut buf: Vec<T> = Vec::with_capacity(padded);
    buf.extend_from_slice(data);
    buf.resize(padded, T::min_sentinel());

    local_sort(&mut buf, k_eff);
    while buf.len() > k_eff {
        let mut half = vec![T::min_sentinel(); buf.len() / 2];
        merge_halve(&buf, k_eff, &mut half);
        buf = half;
        rebuild(&mut buf, k_eff);
    }
    // run 0 is ascending; emit descending and trim to the requested k
    buf.reverse();
    buf.truncate(k.min(data.len()));
    buf
}

/// True if `data` is a bitonic sequence (ascending then descending, under
/// rotation). Used by tests to check the merge operator's output invariant.
pub fn is_bitonic<T: TopKItem>(data: &[T]) -> bool {
    let n = data.len();
    if n <= 2 {
        return true;
    }
    // count direction changes around the cycle; bitonic ⇔ at most 2
    let mut changes = 0;
    let mut last_dir = 0i8;
    for i in 0..n {
        let a = data[i].key_bits();
        let b = data[(i + 1) % n].key_bits();
        let dir = match a.cmp(&b) {
            std::cmp::Ordering::Less => 1i8,
            std::cmp::Ordering::Greater => -1,
            std::cmp::Ordering::Equal => 0,
        };
        if dir != 0 {
            if last_dir != 0 && dir != last_dir {
                changes += 1;
            }
            last_dir = dir;
        }
    }
    changes <= 2
}

/// True if `data` consists of sorted runs of length `k`, ascending on even
/// run indices and descending on odd ones — the post-condition of
/// [`local_sort`] and [`rebuild`].
pub fn runs_sorted_alternating<T: TopKItem>(data: &[T], k: usize) -> bool {
    data.chunks(k).enumerate().all(|(r, run)| {
        run.windows(2).all(|w| {
            if r % 2 == 0 {
                w[0].key_bits() <= w[1].key_bits()
            } else {
                w[0].key_bits() >= w[1].key_bits()
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, Distribution, Kv, Uniform};

    #[test]
    fn bitonic_sort_sorts() {
        let mut v: Vec<u32> = Uniform.generate(256, 11);
        bitonic_sort(&mut v, true);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        bitonic_sort(&mut v, false);
        assert!(v.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn local_sort_produces_alternating_runs() {
        for k in [1usize, 2, 4, 8, 32] {
            let mut v: Vec<f32> = Uniform.generate(128, 5);
            local_sort(&mut v, k);
            assert!(runs_sorted_alternating(&v, k), "k={k}");
        }
    }

    #[test]
    fn local_sort_preserves_multiset() {
        let mut v: Vec<u32> = Uniform.generate(64, 3);
        let mut expect = v.clone();
        local_sort(&mut v, 8);
        let mut got = v.clone();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn merge_keeps_window_topk_and_bitonicity() {
        let k = 8;
        let mut v: Vec<u32> = Uniform.generate(64, 7);
        local_sort(&mut v, k);
        let mut out = vec![0u32; 32];
        merge_halve(&v, k, &mut out);
        for w in 0..v.len() / (2 * k) {
            let window = &v[2 * k * w..2 * k * (w + 1)];
            let merged = &out[k * w..k * (w + 1)];
            // merged must equal the window's top-k as a multiset
            let mut expect = window.to_vec();
            expect.sort_unstable_by(|a, b| b.cmp(a));
            expect.truncate(k);
            let mut got = merged.to_vec();
            got.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(got, expect, "window {w}");
            assert!(is_bitonic(merged), "window {w} not bitonic: {merged:?}");
        }
    }

    /// The per-index form of [`apply_step`]: every `i` with an in-range
    /// partner above it.
    fn apply_step_per_index<T: TopKItem>(data: &mut [T], step: Step) {
        let n = data.len();
        for i in 0..n {
            let p = step.partner(i);
            if p > i && p < n && step.ascending(i) == data[p].item_lt(&data[i]) {
                data.swap(i, p);
            }
        }
    }

    #[test]
    fn apply_step_matches_per_index_form_with_tails() {
        let base: Vec<Kv<u32>> = Uniform
            .generate(200, 31)
            .into_iter()
            .enumerate()
            .map(|(i, k): (usize, u32)| Kv::new(k % 17, i as u32))
            .collect();
        for n in [1usize, 2, 3, 7, 8, 13, 64, 100, 129, 200] {
            for step in crate::network::full_sort_steps(256) {
                let mut got = base[..n].to_vec();
                let mut expect = got.clone();
                apply_step(&mut got, step);
                apply_step_per_index(&mut expect, step);
                assert_eq!(got, expect, "n={n} {step:?}");
            }
        }
    }

    #[test]
    fn merge_in_place_matches_merge_halve() {
        let data: Vec<Kv<u32>> = (0..64u32).map(|i| Kv::new(i * 11 % 7, i)).collect();
        for k in [1usize, 2, 8, 32] {
            let mut out = vec![Kv::default(); 32];
            merge_halve(&data, k, &mut out);
            let mut in_place = data.clone();
            merge_in_place(&mut in_place, k);
            assert_eq!(&in_place[..32], &out[..], "k={k}");
        }
    }

    #[test]
    fn rebuild_sorts_bitonic_runs() {
        let k = 8;
        let mut v: Vec<u32> = Uniform.generate(64, 9);
        local_sort(&mut v, k);
        let mut half = vec![0u32; 32];
        merge_halve(&v, k, &mut half);
        rebuild(&mut half, k);
        assert!(runs_sorted_alternating(&half, k));
    }

    #[test]
    fn host_topk_matches_reference_across_k() {
        let data: Vec<f32> = Uniform.generate(1 << 12, 21);
        for k in [1usize, 2, 3, 5, 8, 16, 100, 256] {
            let got = bitonic_topk_host(&data, k);
            let expect = reference_topk(&data, k);
            assert_eq!(got.len(), expect.len(), "k={k}");
            // compare keys (ties may permute identical keys)
            let gb: Vec<u32> = got.iter().map(|x| x.key_bits()).collect();
            let eb: Vec<u32> = expect
                .iter()
                .map(|x| datagen::SortKey::sort_bits(*x))
                .collect();
            assert_eq!(gb, eb, "k={k}");
        }
    }

    #[test]
    fn host_topk_non_pow2_input() {
        let data: Vec<u32> = Uniform.generate(1000, 13);
        let got = bitonic_topk_host(&data, 10);
        let expect = reference_topk(&data, 10);
        assert_eq!(got, expect);
    }

    #[test]
    fn host_topk_k_exceeds_n() {
        let data = vec![5u32, 1, 9];
        let got = bitonic_topk_host(&data, 10);
        assert_eq!(got, vec![9, 5, 1]);
    }

    #[test]
    fn host_topk_all_duplicates() {
        let data = vec![7u32; 100];
        assert_eq!(bitonic_topk_host(&data, 5), vec![7u32; 5]);
    }

    #[test]
    fn host_topk_kv_carries_values() {
        // distinct keys so the winning values are deterministic
        let data: Vec<Kv<u32>> = (0..256u32).map(|i| Kv::new(i * 7 % 509, i)).collect();
        let got = bitonic_topk_host(&data, 4);
        let mut expect = data.clone();
        expect.sort_unstable_by_key(|kv| std::cmp::Reverse(kv.key));
        for (g, e) in got.iter().zip(expect.iter()) {
            assert_eq!(g.key, e.key);
            assert_eq!(g.value, e.value);
        }
    }

    #[test]
    fn host_topk_k_equals_n() {
        let data: Vec<u32> = Uniform.generate(64, 17);
        let got = bitonic_topk_host(&data, 64);
        let expect = reference_topk(&data, 64);
        assert_eq!(got, expect);
    }

    #[test]
    fn is_bitonic_accepts_and_rejects() {
        assert!(is_bitonic(&[1u32, 3, 7, 5, 2]));
        assert!(is_bitonic(&[5u32, 2, 1, 3, 7])); // rotation
        assert!(is_bitonic(&[1u32, 1, 1]));
        assert!(!is_bitonic(&[1u32, 5, 2, 6, 3]));
    }

    #[test]
    fn negative_float_topk() {
        let data = vec![-5.0f32, -1.0, -9.0, -2.5, -0.5];
        let got = bitonic_topk_host(&data, 2);
        assert_eq!(got, vec![-0.5, -1.0]);
    }
}
