//! Host-side implementations of the three bitonic top-k operators and
//! of full bitonic sort.
//!
//! These run on plain slices and serve three purposes: they are the
//! oracles the simulated GPU kernels are tested against, the building
//! blocks of the CPU implementation (Appendix C) and of the simulator's
//! metered reducers, and an executable specification of the network
//! schedules in [`crate::network`].
//!
//! # Rank space
//!
//! The network runs on *ranks* (see [`TopKItem::rank`]): unsigned
//! integers whose order is the items' order, and from which the items
//! decode bit for bit. [`apply_step`], [`apply_steps`], [`merge_in_place`]
//! and [`topk_in_place`] take any `R: Copy + Ord`. A compare-exchange
//! writes `(min, max)` to an ascending pair and `(max, min)` to a
//! descending one; a merge writes the `max`. On ranks that is exactly
//! what the item comparator's swap rule produces (swap iff
//! `ascending == b.item_lt(&a)`), because two items of equal rank are
//! identical. The item-level operators ([`local_sort`], [`merge_halve`],
//! [`rebuild`], [`bitonic_sort`], [`bitonic_topk_host`]) convert once,
//! run every step on ranks, and convert back.
//!
//! # Selection
//!
//! The output of a reduction that starts with a local sort does not
//! depend on the step order: [`select_reduce`] computes it on ranks by
//! selecting each span's top k (its doc gives the exactness argument),
//! and [`local_sort_reduce`] runs whichever of selection and the network
//! is cheaper for the run length.

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
pub fn apply_step<R: Copy + Ord>(data: &mut [R], step: Step) {
    debug_assert!(
        step.run > step.j,
        "run {} must exceed j {}",
        step.run,
        step.j
    );
    step_from(data, step, 0);
}

/// [`apply_step`] on a slice that starts at element `offset` of the
/// sequence the step's direction rule indexes; `offset` is a multiple
/// of `2j`.
fn step_from<R: Copy + Ord>(data: &mut [R], step: Step, offset: usize) {
    for (b, block) in data.chunks_mut(2 * step.j).enumerate() {
        if block.len() <= step.j {
            break;
        }
        let (lo, hi) = block.split_at_mut(step.j);
        if step.ascending(offset + b * 2 * step.j) {
            min_max(lo, hi);
        } else {
            min_max(hi, lo);
        }
    }
}

/// Writes each pair's minimum to `lo` and its maximum to `hi`.
#[inline]
fn min_max<R: Copy + Ord>(lo: &mut [R], hi: &mut [R]) {
    for (a, b) in lo.iter_mut().zip(hi) {
        let (x, y) = (*a, *b);
        *a = x.min(y);
        *b = x.max(y);
    }
}

/// Applies `steps` in order, with the same result as one [`apply_step`]
/// per step.
///
/// Steps at distances 1, 2 and 4 stay inside aligned 8-blocks, so runs
/// of them execute as register passes, the host analogue of the paper's
/// combined steps (Section 4.3): each block is loaded once, runs three
/// steps, and is stored once. Two runs are combined:
///
/// * the *tail* of every phase with `run ≥ 8` (steps `j = 4, 2, 1`),
///   whose direction is constant over each 8-block;
/// * the *head* of a sort (phases `run = 2` and `run = 4`), whose
///   directions repeat in every 8-block.
///
/// Every other step runs on its own.
pub fn apply_steps<R: Copy + Ord>(data: &mut [R], steps: &[Step]) {
    let mut rest = steps;
    while let Some(&step) = rest.first() {
        if rest.starts_with(&HEAD) {
            per_block8(data, &HEAD, |v, _| {
                for (a, b, asc) in HEAD8 {
                    cx(v, a, b, asc);
                }
            });
            rest = &rest[HEAD.len()..];
        } else if step.run >= 8 && rest.starts_with(&tail(step.run)) {
            let run = step.run;
            per_block8(data, &tail(run), |v, base| {
                if base & run == 0 {
                    TAIL8.iter().for_each(|&(a, b)| cx(v, a, b, true));
                } else {
                    TAIL8.iter().for_each(|&(a, b)| cx(v, a, b, false));
                }
            });
            rest = &rest[3..];
        } else {
            apply_step(data, step);
            rest = &rest[1..];
        }
    }
}

/// The first two phases of a sort: `run = 2`, then `run = 4`.
const HEAD: [Step; 3] = [
    Step { j: 1, run: 2 },
    Step { j: 2, run: 4 },
    Step { j: 1, run: 4 },
];

/// [`HEAD`]'s compare-exchanges inside one 8-block, in order: lower
/// index, upper index, and whether the pair sorts ascending (its lower
/// index has the `run` bit clear).
const HEAD8: [(usize, usize, bool); 12] = [
    (0, 1, true),
    (2, 3, false),
    (4, 5, true),
    (6, 7, false),
    (0, 2, true),
    (1, 3, true),
    (4, 6, false),
    (5, 7, false),
    (0, 1, true),
    (2, 3, true),
    (4, 5, false),
    (6, 7, false),
];

/// The last three steps of phase `run`.
fn tail(run: usize) -> [Step; 3] {
    [4, 2, 1].map(|j| Step { j, run })
}

/// A [`tail`]'s compare-exchanges inside one 8-block, in order; all of
/// them sort in the block's direction.
const TAIL8: [(usize, usize); 12] = [
    (0, 4),
    (1, 5),
    (2, 6),
    (3, 7),
    (0, 2),
    (1, 3),
    (4, 6),
    (5, 7),
    (0, 1),
    (2, 3),
    (4, 5),
    (6, 7),
];

/// Runs `block` on every aligned 8-block (with the block's first index)
/// and `steps`, which stay inside 8-blocks, one by one on the shorter
/// remainder.
#[inline]
fn per_block8<R: Copy + Ord>(data: &mut [R], steps: &[Step], block: impl Fn(&mut [R; 8], usize)) {
    let whole = data.len() / 8 * 8;
    let (blocks, rem) = data.split_at_mut(whole);
    for (b, chunk) in blocks.chunks_exact_mut(8).enumerate() {
        block(chunk.try_into().expect("an 8-block"), 8 * b);
    }
    for &step in steps {
        step_from(rem, step, whole);
    }
}

/// One compare-exchange inside an 8-block held in registers.
#[inline(always)]
fn cx<R: Copy + Ord>(v: &mut [R; 8], a: usize, b: usize, asc: bool) {
    let (x, y) = (v[a], v[b]);
    let (lo, hi) = (x.min(y), x.max(y));
    (v[a], v[b]) = if asc { (lo, hi) } else { (hi, lo) };
}

/// **Local sort** (Section 3.2, operator 1): sorts aligned runs of length
/// `k`, alternating ascending (even run) / descending (odd run).
///
/// # Panics
/// If `data.len()` or `k` is not a power of two, or `k > data.len()`.
pub fn local_sort<T: TopKItem>(data: &mut [T], k: usize) {
    assert!(crate::is_pow2(data.len()), "length must be a power of two");
    assert!(k <= data.len(), "k={k} exceeds data length {}", data.len());
    on_ranks(data, |ranks| apply_steps(ranks, &local_sort_steps(k)));
}

/// Pairwise maxima on ranks: for each aligned `2k` window, the maxima of
/// its two `k`-halves land in the first half of the slice, window `w`'s
/// at `k·w..k·(w + 1)`. Output `j` of window `w` lands at
/// `k·w + j ≤ 2k·w + j`, below every input still to be read, so a
/// forward pass needs no second buffer.
pub fn merge_in_place<R: Copy + Ord>(data: &mut [R], k: usize) {
    let n = data.len();
    assert!(
        n.is_multiple_of(2 * k),
        "length {n} must be a multiple of 2k={}",
        2 * k
    );
    if n == 0 {
        return;
    }
    let (lo, hi) = data[..2 * k].split_at_mut(k);
    for (a, b) in lo.iter_mut().zip(&*hi) {
        *a = (*a).max(*b);
    }
    for w in 1..n / (2 * k) {
        let (out, window) = data.split_at_mut(2 * k * w);
        let (a, b) = window[..2 * k].split_at(k);
        for ((o, x), y) in out[k * w..k * (w + 1)].iter_mut().zip(a).zip(b) {
            *o = (*x).max(*y);
        }
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
    let mut ranks: Vec<T::Rank> = data.iter().map(T::rank).collect();
    merge_in_place(&mut ranks, k);
    for (o, &r) in out.iter_mut().zip(&ranks) {
        *o = T::from_rank(r);
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
    on_ranks(data, |ranks| apply_steps(ranks, &rebuild_steps(k)));
}

/// Full bitonic sort (reference; ascending if `ascending`).
pub fn bitonic_sort<T: TopKItem>(data: &mut [T], ascending: bool) {
    assert!(crate::is_pow2(data.len()), "length must be a power of two");
    on_ranks(data, |ranks| {
        apply_steps(ranks, &full_sort_steps(ranks.len()))
    });
    if !ascending {
        data.reverse();
    }
}

/// Converts `data` to ranks, runs `f` on them, and converts back.
fn on_ranks<T: TopKItem>(data: &mut [T], f: impl FnOnce(&mut [T::Rank])) {
    let mut ranks: Vec<T::Rank> = data.iter().map(T::rank).collect();
    f(&mut ranks);
    for (x, &r) in data.iter_mut().zip(&ranks) {
        *x = T::from_rank(r);
    }
}

/// The bitonic top-k network on ranks (Section 3.2): local sort, then
/// alternating merge and rebuild until `k` remain. Afterwards
/// `data[..k]` holds the largest `k` ranks, ascending.
///
/// # Panics
/// If `data.len()` or `k` is not a power of two, or `k > data.len()`.
pub fn topk_in_place<R: Copy + Ord>(data: &mut [R], k: usize) {
    assert!(crate::is_pow2(data.len()), "length must be a power of two");
    assert!(k <= data.len(), "k={k} exceeds data length {}", data.len());
    let merges = crate::log2(data.len() / k) as usize;
    network_reduce(data, k, merges, RunOrder::Sorted);
}

/// A reduction that starts with a local sort, run as the network: the
/// local sort of runs of `k`, then `merges` merges with a rebuild
/// between every two and, for [`RunOrder::Sorted`], after the last.
fn network_reduce<R: Copy + Ord>(data: &mut [R], k: usize, merges: usize, order: RunOrder) {
    apply_steps(data, &local_sort_steps(k));
    let rebuild = rebuild_steps(k);
    let mut len = data.len();
    for m in 0..merges {
        merge_in_place(&mut data[..len], k);
        len /= 2;
        if m + 1 < merges || order == RunOrder::Sorted {
            apply_steps(&mut data[..len], &rebuild);
        }
    }
}

/// The smallest run length [`local_sort_reduce`] reduces by selection.
/// Below it the network is cheaper on the host: at k = 8 its local sort
/// is six steps, two register passes over 8-blocks, which costs less
/// than a quickselect of every half-span.
const SELECTION_MIN_K: usize = 16;

/// The output of a reduction that starts with a local sort (the shapes
/// of [`select_reduce`]), by the cheaper of two exact methods:
/// [`select_reduce`] from k = 16 up, the network's own steps below.
pub fn local_sort_reduce<R: Copy + Ord>(data: &mut [R], k: usize, merges: usize, order: RunOrder) {
    if k < SELECTION_MIN_K {
        network_reduce(data, k, merges, order);
    } else {
        select_reduce(data, k, merges, order);
    }
}

/// The order of the runs a [`select_reduce`] leaves: what the reduction's
/// op list ends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOrder {
    /// The op list is `LocalSort (Merge Rebuild)*`: sorted runs,
    /// ascending on even run indices, descending on odd ones.
    Sorted,
    /// The op list is `LocalSort (Merge Rebuild)* Merge`: bitonic runs,
    /// each the pairwise maxima of an ascending and a descending run.
    Bitonic,
}

/// The output of a reduction that starts with a local sort, computed by
/// selection instead of by running the network: `data[..len >> merges]`
/// afterwards holds exactly the ranks that the local sort of runs of
/// `k`, then `merges` merges with a rebuild between every two (and, in
/// [`RunOrder::Sorted`], after the last), leave there. The rest of
/// `data` is scratch.
///
/// With spans of `s = k·2^merges` elements:
///
/// * [`RunOrder::Sorted`]: run `r` is the top `k` of span `r`, ascending
///   iff `r` is even;
/// * [`RunOrder::Bitonic`] (`merges ≥ 1`): run `w` is
///   `max(A[j], B[j])`, where `A` is the ascending top `k` of the
///   half-span `2w` and `B` the descending top `k` of the half-span
///   `2w + 1`.
///
/// This is exact because of three facts of the network (Section 3.2)
/// and two of ranks. The local sort is a full sorting network on every
/// run of `k`, so it sorts any input. A merge's window output holds the
/// window's top `k`. A rebuild sorts a bitonic run, which every merge
/// output is. By induction, the run before each merge holds the top `k`
/// of its span, sorted in the run's direction. Ranks order items as the
/// item comparator does, so the top `k` ranks are the top `k` items; and
/// ranks are a bijection, so equal ranks are equal items: a run's
/// contents are fixed as a multiset, and its sorted order is unique.
///
/// # Panics
/// If `k` is zero, or `data.len()` is not a multiple of `k·2^merges`,
/// or `order` is [`RunOrder::Bitonic`] with no merge.
pub fn select_reduce<R: Copy + Ord>(data: &mut [R], k: usize, merges: usize, order: RunOrder) {
    let span = k << merges;
    assert!(
        k >= 1 && data.len().is_multiple_of(span),
        "length {} must be a multiple of k·2^merges = {span}",
        data.len()
    );
    match order {
        RunOrder::Sorted => {
            for (r, s) in (0..data.len()).step_by(span).enumerate() {
                let top = top_k(&mut data[s..s + span], k, r % 2 == 0);
                // run r lands at r·k ≤ s, below every span still to be read
                data.copy_within(s + top..s + top + k, r * k);
            }
        }
        RunOrder::Bitonic => {
            assert!(merges >= 1, "a bitonic reduction ends on a merge");
            let half = span / 2;
            for (w, s) in (0..data.len()).step_by(span).enumerate() {
                let a = s + top_k(&mut data[s..s + half], k, true);
                let b = s + half + top_k(&mut data[s + half..s + span], k, false);
                // output j lands at w·k + j ≤ a + j < b + j: a forward
                // pass reads every input before it is overwritten
                for j in 0..k {
                    data[w * k + j] = data[a + j].max(data[b + j]);
                }
            }
        }
    }
}

/// Moves the largest `k` elements of `span` to its end, sorted
/// (ascending or descending), and returns where they start.
fn top_k<R: Copy + Ord>(span: &mut [R], k: usize, ascending: bool) -> usize {
    let start = span.len() - k;
    if start > 0 {
        span.select_nth_unstable(start);
    }
    let top = &mut span[start..];
    if ascending {
        top.sort_unstable();
    } else {
        top.sort_unstable_by(|a, b| b.cmp(a));
    }
    start
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
    let mut ranks: Vec<T::Rank> = Vec::with_capacity(padded);
    ranks.extend(data.iter().map(T::rank));
    ranks.resize(padded, T::min_sentinel().rank());
    topk_in_place(&mut ranks, k_eff);
    // run 0 is ascending; emit descending and trim to the requested k
    ranks[..k_eff]
        .iter()
        .rev()
        .take(k.min(data.len()))
        .map(|&r| T::from_rank(r))
        .collect()
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

    /// The item comparator's form of [`apply_step`]: every `i` with an
    /// in-range partner above it swaps iff
    /// `ascending(i) == data[p].item_lt(&data[i])`.
    fn apply_step_per_index<T: TopKItem>(data: &mut [T], step: Step) {
        let n = data.len();
        for i in 0..n {
            let p = step.partner(i);
            if p > i && p < n && step.ascending(i) == data[p].item_lt(&data[i]) {
                data.swap(i, p);
            }
        }
    }

    fn ranks<T: TopKItem>(items: &[T]) -> Vec<T::Rank> {
        items.iter().map(T::rank).collect()
    }

    fn items<T: TopKItem>(ranks: &[T::Rank]) -> Vec<T> {
        ranks.iter().map(|&r| T::from_rank(r)).collect()
    }

    /// Duplicate-heavy keys with ids: every key tie is broken by the id.
    fn kv_base(n: usize) -> Vec<Kv<u32>> {
        Uniform
            .generate(n, 31)
            .into_iter()
            .enumerate()
            .map(|(i, k): (usize, u32)| Kv::new(k % 17, i as u32))
            .collect()
    }

    #[test]
    fn apply_step_matches_per_index_form_with_tails() {
        let base = kv_base(200);
        for n in [1usize, 2, 3, 7, 8, 13, 64, 100, 129, 200] {
            for step in crate::network::full_sort_steps(256) {
                let mut got = ranks(&base[..n]);
                let mut expect = base[..n].to_vec();
                apply_step(&mut got, step);
                apply_step_per_index(&mut expect, step);
                assert_eq!(items::<Kv<u32>>(&got), expect, "n={n} {step:?}");
            }
        }
    }

    /// The combined head and tails against the same steps one at a time,
    /// for every run ≥ 8 up to 512, on lengths that are and are not whole
    /// 8-blocks.
    #[test]
    fn combined_passes_match_step_by_step() {
        let base = ranks(&kv_base(700));
        let mut schedules: Vec<Vec<Step>> = vec![HEAD.to_vec()];
        for r in 3..10 {
            schedules.push(tail(1 << r).to_vec());
        }
        schedules.push(crate::network::full_sort_steps(512));
        schedules.push(local_sort_steps(64));
        schedules.push(rebuild_steps(128));
        for n in [0usize, 1, 5, 8, 12, 13, 64, 67, 96, 200, 512, 700] {
            for steps in &schedules {
                let mut got = base[..n].to_vec();
                let mut expect = got.clone();
                apply_steps(&mut got, steps);
                for &step in steps {
                    apply_step(&mut expect, step);
                }
                assert_eq!(got, expect, "n={n} {steps:?}");
            }
        }
    }

    #[test]
    fn merge_in_place_matches_merge_halve() {
        let data: Vec<Kv<u32>> = (0..64u32).map(|i| Kv::new(i * 11 % 7, i)).collect();
        for k in [1usize, 2, 8, 32] {
            let mut out = vec![Kv::default(); 32];
            merge_halve(&data, k, &mut out);
            let mut in_place = ranks(&data);
            merge_in_place(&mut in_place, k);
            assert_eq!(items::<Kv<u32>>(&in_place[..32]), out, "k={k}");
            // the item comparator's rule: keep `a` unless `a < b`
            for (j, o) in out.iter().enumerate() {
                let (w, i) = (j / k, j % k);
                let (a, b) = (data[2 * k * w + i], data[2 * k * w + i + k]);
                assert_eq!(*o, if a.item_lt(&b) { b } else { a }, "k={k} j={j}");
            }
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
