//! Property-based validation of the network schedules and host operators.

use datagen::SortKey;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sortnet::host::RunOrder;
use sortnet::network::full_sort_steps;
use sortnet::{
    host, is_bitonic, local_sort_steps, next_pow2, rebuild_steps, CombinedStep, Step, StepGroupPlan,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full bitonic network sorts arbitrary data exactly like the
    /// standard library sort.
    #[test]
    fn full_network_sorts(data in prop::collection::vec(any::<u32>(), 1..2048)) {
        let n = next_pow2(data.len());
        let mut v = data.clone();
        v.resize(n, u32::MAX);
        for step in full_sort_steps(n) {
            host::apply_step(&mut v, step);
        }
        let mut expect = data;
        expect.resize(n, u32::MAX);
        expect.sort_unstable();
        prop_assert_eq!(v, expect);
    }

    /// Each network step only permutes — never loses or invents elements.
    #[test]
    fn steps_are_permutations(
        data in prop::collection::vec(any::<i32>(), 64..64 + 256),
        j_log in 0u32..6,
        run_log in 1u32..7,
    ) {
        let n = next_pow2(data.len());
        let j = 1usize << j_log.min(run_log - 1);
        let run = 1usize << run_log;
        let mut v = data.clone();
        v.resize(n, 0);
        let mut before = v.clone();
        host::apply_step(&mut v, Step { j, run });
        before.sort_unstable_by_key(|x| x.sort_bits());
        let mut after = v;
        after.sort_unstable_by_key(|x| x.sort_bits());
        prop_assert_eq!(before, after);
    }

    /// Local sort's schedule really produces alternating sorted runs, and
    /// every adjacent pair of runs forms a bitonic 2k window.
    #[test]
    fn local_sort_postcondition(
        data in prop::collection::vec(any::<u32>(), 32..1024),
        k_log in 0u32..6,
    ) {
        let k = 1usize << k_log;
        let n = next_pow2(data.len()).max(2 * k);
        let mut v = data;
        v.resize(n, 0);
        for step in local_sort_steps(k) {
            host::apply_step(&mut v, step);
        }
        prop_assert!(host::runs_sorted_alternating(&v, k));
        for w in v.chunks(2 * k) {
            prop_assert!(is_bitonic(w));
        }
    }

    /// Rebuild after a merge restores the local-sort postcondition.
    #[test]
    fn rebuild_postcondition(
        data in prop::collection::vec(any::<u32>(), 64..1024),
        k_log in 0u32..5,
    ) {
        let k = 1usize << k_log;
        let n = next_pow2(data.len()).max(2 * k);
        let mut v = data;
        v.resize(n, 0);
        for step in local_sort_steps(k) {
            host::apply_step(&mut v, step);
        }
        let mut half = vec![0u32; n / 2];
        host::merge_halve(&v, k, &mut half);
        for step in rebuild_steps(k) {
            host::apply_step(&mut half, step);
        }
        prop_assert!(host::runs_sorted_alternating(&half, k));
    }

    /// Any greedy group plan executes to the same result as the
    /// step-by-step schedule, for every budget.
    #[test]
    fn group_plans_equivalent_for_any_budget(
        data in prop::collection::vec(any::<u32>(), 256..1024),
        k_log in 1u32..7,
        budget_log in 1u32..6,
    ) {
        let k = 1usize << k_log;
        let budget = 1usize << budget_log;
        let n = next_pow2(data.len()).max(k);
        let steps = local_sort_steps(k);

        let mut seq = data.clone();
        seq.resize(n, 0);
        for &s in &steps {
            host::apply_step(&mut seq, s);
        }

        let mut grouped = data;
        grouped.resize(n, 0);
        let plan = StepGroupPlan::plan(&steps, budget);
        apply_plan(&mut grouped, &plan);

        prop_assert_eq!(seq, grouped);
    }

    /// Closed sets of a combined step partition the index space.
    #[test]
    fn closed_sets_partition(bits in prop::collection::btree_set(0u32..8, 1..4)) {
        let free: Vec<u32> = bits.into_iter().collect();
        let g = CombinedStep { steps: vec![], free_bits: free };
        let len = 1usize << 10;
        let mut seen = vec![false; len];
        for set in 0..g.num_sets(len) {
            for m in 0..g.elems_per_set() {
                let i = g.element(set, m);
                prop_assert!(i < len);
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// `CombinedStep::element` (set base | m offset) places every bit
    /// exactly where the bit-by-bit walk it replaced did, including set
    /// bits pushed past the top of the index.
    #[test]
    fn element_matches_bit_walk(
        bits in prop::collection::btree_set(0u32..64, 1..7),
        set_id in any::<usize>(),
        shift in 0u32..64,
    ) {
        let free: Vec<u32> = bits.into_iter().collect();
        let set_id = set_id >> shift;
        let g = CombinedStep { steps: vec![], free_bits: free.clone() };
        for m in 0..g.elems_per_set() {
            prop_assert_eq!(g.element(set_id, m), element_bit_walk(&free, set_id, m));
        }
    }
}

/// The reference for [`CombinedStep::element`]: walk index bit positions
/// low to high, giving free positions the next bit of `m` and all other
/// positions the next bit of `set_id`.
fn element_bit_walk(free_bits: &[u32], set_id: usize, m: usize) -> usize {
    let mut idx = 0usize;
    let mut set_bits = set_id;
    let mut m_rest = m;
    let mut free_iter = 0usize;
    for bit_pos in 0..usize::BITS {
        if free_iter < free_bits.len() && free_bits[free_iter] == bit_pos {
            idx |= (m_rest & 1) << bit_pos;
            m_rest >>= 1;
            free_iter += 1;
        } else {
            idx |= (set_bits & 1) << bit_pos;
            set_bits >>= 1;
        }
    }
    idx
}

/// Kernel-style execution of a plan: gather each closed set, apply the
/// group's steps locally, scatter back.
fn apply_plan<R: Copy + Ord>(data: &mut [R], plan: &StepGroupPlan) {
    for group in &plan.groups {
        let m_count = group.elems_per_set();
        let mut local = vec![data[0]; m_count];
        for set in 0..group.num_sets(data.len()) {
            for m in 0..m_count {
                local[m] = data[group.element(set, m)];
            }
            for &step in &group.steps {
                let lb = group.local_bit_for(step.j);
                for m in 0..m_count {
                    let pm = m ^ (1 << lb);
                    if pm > m {
                        let gi = group.element(set, m);
                        let asc = step.ascending(gi);
                        if asc == (local[pm] < local[m]) {
                            local.swap(m, pm);
                        }
                    }
                }
            }
            for m in 0..m_count {
                data[group.element(set, m)] = local[m];
            }
        }
    }
}

/// The network composition [`host::select_reduce`] stands for: the local
/// sort of runs of `k`, then `merges` merges with a rebuild between every
/// two and, for sorted runs, after the last.
fn network_reduce<R: Copy + Ord>(data: &mut [R], k: usize, merges: usize, order: RunOrder) {
    host::apply_steps(data, &local_sort_steps(k));
    let rebuild = rebuild_steps(k);
    let mut len = data.len();
    for m in 0..merges {
        host::merge_in_place(&mut data[..len], k);
        len /= 2;
        if m + 1 < merges || order == RunOrder::Sorted {
            host::apply_steps(&mut data[..len], &rebuild);
        }
    }
}

/// Asserts that selection, and the dispatch between selection and the
/// network, leave the network's output on `data`, for one shape.
fn assert_selection_exact<R: Copy + Ord + std::fmt::Debug>(
    data: &[R],
    k: usize,
    merges: usize,
    order: RunOrder,
    context: &str,
) {
    let out = data.len() >> merges;
    let mut network = data.to_vec();
    network_reduce(&mut network, k, merges, order);
    let mut selected = data.to_vec();
    host::select_reduce(&mut selected, k, merges, order);
    let mut dispatched = data.to_vec();
    host::local_sort_reduce(&mut dispatched, k, merges, order);
    let shape = format!(
        "{context} {} k={k} merges={merges} {order:?} len={}",
        std::any::type_name::<R>(),
        data.len()
    );
    assert_eq!(selected[..out], network[..out], "{shape}");
    assert_eq!(dispatched[..out], network[..out], "{shape}");
}

/// Input patterns, by number: uniform draws, all equal, mostly the
/// minimum (sentinels), ascending, descending, five distinct values.
const PATTERNS: usize = 6;

fn pattern(p: usize, len: usize, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|i| match p {
            0 => rng.gen::<u32>(),
            1 => 7,
            2 if rng.gen_range(0..16u32) == 0 => rng.gen::<u32>(),
            2 => 0,
            3 => i as u32,
            4 => (len - i) as u32,
            _ => rng.gen_range(0..5u32),
        })
        .collect()
}

/// Checks `keys` as `u32`, `u64` and `u128` ranks. The wide ranks are
/// order-preserving, injective maps of the keys that use the high bits.
fn assert_every_width(keys: &[u32], k: usize, merges: usize, order: RunOrder, context: &str) {
    assert_selection_exact(keys, k, merges, order, context);
    let wide: Vec<u64> = keys
        .iter()
        .map(|&x| (x as u64) << 32 | (x ^ 0x5555) as u64)
        .collect();
    assert_selection_exact(&wide, k, merges, order, context);
    let widest: Vec<u128> = keys
        .iter()
        .map(|&x| (x as u128) << 96 | (x as u128) << 7)
        .collect();
    assert_selection_exact(&widest, k, merges, order, context);
}

/// Every shape the reducers reach: k from 1 to 1024, 0–4 merges, both
/// run orders, three spans (so runs of both directions and a span whose
/// output moves past the first), every pattern, every rank width.
#[test]
fn selection_matches_the_network_on_every_shape() {
    for k_log in 0..=10 {
        let k = 1usize << k_log;
        for merges in 0..=4 {
            for order in [RunOrder::Sorted, RunOrder::Bitonic] {
                if order == RunOrder::Bitonic && merges == 0 {
                    continue;
                }
                let len = 3 * (k << merges);
                for p in 0..PATTERNS {
                    let keys = pattern(p, len, (k_log * 5 + merges) as u64);
                    assert_every_width(&keys, k, merges, order, &format!("pattern {p}"));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes, span counts and draws against the network.
    #[test]
    fn selection_matches_the_network(
        k_log in 0u32..11,
        merges in 0usize..5,
        spans in 1usize..5,
        bitonic in any::<bool>(),
        p in 0usize..PATTERNS,
        seed in any::<u64>(),
    ) {
        let k = 1usize << k_log;
        let order = if bitonic && merges > 0 { RunOrder::Bitonic } else { RunOrder::Sorted };
        let keys = pattern(p, spans * (k << merges), seed);
        assert_every_width(&keys, k, merges, order, &format!("pattern {p} seed {seed}"));
    }
}

#[test]
#[should_panic(expected = "ends on a merge")]
fn bitonic_selection_needs_a_merge() {
    host::select_reduce(&mut [3u32, 1, 2, 0], 2, 0, RunOrder::Bitonic);
}

#[test]
#[should_panic(expected = "multiple of k·2^merges")]
fn selection_rejects_partial_spans() {
    host::select_reduce(&mut [3u32, 1, 2, 0, 5, 6], 2, 1, RunOrder::Sorted);
}
