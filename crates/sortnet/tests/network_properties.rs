//! Property-based validation of the network schedules and host operators.

use datagen::SortKey;
use proptest::prelude::*;
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
