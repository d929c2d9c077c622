//! Section 7.2: the bitonic top-k cost model.
//!
//! Per kernel, two candidate bounds: global traffic
//! `T_g = D/B_G + D/(x·B_G)` (read everything, write the 1/x reduction)
//! and shared traffic `T_k = Σ_i δ_i (D_Ii + D_Oi)/B_S` summed over the
//! kernel's combined steps. The kernel costs `max(T_g, T_k)`; the
//! algorithm is the sum over its reduction stages. The shared-step sum is
//! derived from the same `sortnet` step-group plans the implementation
//! executes, so model and implementation share one source of truth for
//! the schedule.

use simt::DeviceSpec;
use sortnet::{local_sort_steps, rebuild_steps, StepGroupPlan};

/// Inputs of the bitonic model.
#[derive(Debug, Clone, Copy)]
pub struct BitonicModelInput {
    /// Number of input items.
    pub n: usize,
    /// Requested k (rounded up to a power of two internally).
    pub k: usize,
    /// Bytes per item.
    pub item_bytes: usize,
    /// Elements per thread (the B of Section 4.3; 16 with all
    /// optimizations).
    pub elems_per_thread: usize,
    /// Average shared-memory bank-conflict degree `δ` (1.0 with padding
    /// and chunk permutation for k ≤ 256).
    pub conflict_degree: f64,
}

impl BitonicModelInput {
    /// Model inputs with the all-optimizations defaults: B = 16 and the
    /// conflict degree of [`bitonic_conflict_degree`].
    pub fn with_defaults(n: usize, k: usize, item_bytes: usize) -> Self {
        Self {
            n,
            k,
            item_bytes,
            elems_per_thread: 16,
            conflict_degree: bitonic_conflict_degree(k),
        }
    }
}

/// The shared-memory bank-conflict degree `δ` the bitonic model charges
/// for a top-k of `k`: 1.0 while padding and chunk permutation keep the
/// reducers conflict-free (`k ≤ 256`, rounded up to a power of two), 1.3
/// beyond. Every bitonic price takes δ from this one rule: the planner,
/// [`BitonicModelInput::with_defaults`] (EXPLAIN, the cluster model,
/// Figure 17) and qdb's delegate EXPLAIN.
pub fn bitonic_conflict_degree(k: usize) -> f64 {
    if k.next_power_of_two() <= 256 {
        1.0
    } else {
        1.3
    }
}

/// Shared-memory words moved per element by one kernel, relative to the
/// kernel's input size, derived from the step-group plans.
///
/// `merges` is the number of halvings the kernel performs; `local_sort`
/// selects SortReducer (true) or BitonicReducer (false) op pipelines.
/// Public so fused operators (qdb) can charge the same shared traffic the
/// standalone SortReducer would.
pub fn shared_traffic_factor(k: usize, b: usize, merges: usize, local_sort: bool) -> f64 {
    let k = k.next_power_of_two();
    let ls_groups = StepGroupPlan::plan(&local_sort_steps(k), b).round_trips() as f64;
    let rb_groups = StepGroupPlan::plan(&rebuild_steps(k), b).round_trips() as f64;

    let mut traffic = 1.0; // the staging load
    let mut live = 1.0f64;
    if local_sort {
        traffic += 2.0 * ls_groups * live;
    } else {
        traffic += 2.0 * rb_groups * live;
    }
    for m in 0..merges {
        // merge: read live, write live/2
        traffic += 1.5 * live;
        live /= 2.0;
        if m + 1 < merges {
            traffic += 2.0 * rb_groups * live;
        }
    }
    traffic += live; // staging read for the global store
    traffic
}

/// Predicted bitonic top-k time in seconds.
pub fn bitonic_topk_seconds(spec: &DeviceSpec, input: BitonicModelInput) -> f64 {
    let BitonicModelInput {
        n,
        k,
        item_bytes,
        elems_per_thread: b,
        conflict_degree,
    } = input;
    let k_eff = k.next_power_of_two();
    let bg = spec.global_bw;
    let bs = spec.shared_bw;
    let x = b as f64; // per-kernel reduction factor

    let mut total = 0.0;
    let mut live = n.next_power_of_two() as f64;
    let mut first = true;
    while live > k_eff as f64 {
        let merges = (x.log2() as usize)
            .min((live / k_eff as f64).log2() as usize)
            .max(1);
        let reduction = (1 << merges) as f64;
        let d = live * item_bytes as f64;
        let t_g = d / bg + d / (reduction * bg);
        let factor = shared_traffic_factor(k_eff, b, merges, first);
        let t_k = conflict_degree * factor * d / bs;
        total += t_g.max(t_k) + spec.launch_overhead;
        live /= reduction;
        first = false;
    }
    // final rebuild of the surviving k run
    total += spec.launch_overhead;
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::titan_x_maxwell()
    }

    #[test]
    fn paper_magnitudes_topk32_at_2e29() {
        // §7.2 works the example: SortReducer global time ≈ 8.96 ms and
        // the whole kernel ≈ 12.1 ms predicted (14.2 ms actual). Our model
        // sums all stages; the total must land in the same regime
        // (10–25 ms) and certainly between the scan floor and sort.
        let t = bitonic_topk_seconds(&spec(), BitonicModelInput::with_defaults(1 << 29, 32, 4));
        let floor = (1u64 << 31) as f64 / spec().global_bw;
        assert!(t > floor, "cannot beat one full read: {t} vs {floor}");
        assert!(t < 3.0 * floor, "top-32 should be near memory-bound: {t}");
    }

    #[test]
    fn grows_with_k() {
        let t32 = bitonic_topk_seconds(&spec(), BitonicModelInput::with_defaults(1 << 26, 32, 4));
        let t256 = bitonic_topk_seconds(&spec(), BitonicModelInput::with_defaults(1 << 26, 256, 4));
        let t1024 =
            bitonic_topk_seconds(&spec(), BitonicModelInput::with_defaults(1 << 26, 1024, 4));
        assert!(t32 < t256 && t256 < t1024, "{t32} {t256} {t1024}");
    }

    #[test]
    fn linear_in_n() {
        let t1 = bitonic_topk_seconds(&spec(), BitonicModelInput::with_defaults(1 << 24, 64, 4));
        let t2 = bitonic_topk_seconds(&spec(), BitonicModelInput::with_defaults(1 << 25, 64, 4));
        assert!((t2 / t1 - 2.0).abs() < 0.2, "t2/t1 = {}", t2 / t1);
    }

    #[test]
    fn conflicts_slow_it_down() {
        let clean = bitonic_topk_seconds(&spec(), BitonicModelInput::with_defaults(1 << 26, 32, 4));
        let conflicted = bitonic_topk_seconds(
            &spec(),
            BitonicModelInput {
                conflict_degree: 4.0,
                ..BitonicModelInput::with_defaults(1 << 26, 32, 4)
            },
        );
        assert!(conflicted > 1.5 * clean);
        // past k = 256 the defaults charge the one δ rule's degree
        let past = BitonicModelInput::with_defaults(1 << 26, 1024, 4).conflict_degree;
        assert_eq!(past, bitonic_conflict_degree(1024));
        assert!(past > 1.0);
    }

    #[test]
    fn shared_factor_is_near_paper_constant() {
        // §7.2: T_k for SortReducer at k = 32 ≈ 17.5 D/B_S (in bytes).
        // Our factor counts words-per-element round trips; with B = 16 it
        // should be the same order (load + 2 local-sort groups + merges).
        let f = shared_traffic_factor(32, 16, 4, true);
        assert!(
            (5.0..25.0).contains(&f),
            "SortReducer shared factor {f} out of plausible range"
        );
    }

    #[test]
    fn more_elems_per_thread_fewer_stages() {
        let b8 = bitonic_topk_seconds(
            &spec(),
            BitonicModelInput {
                elems_per_thread: 8,
                ..BitonicModelInput::with_defaults(1 << 26, 32, 4)
            },
        );
        let b16 = bitonic_topk_seconds(&spec(), BitonicModelInput::with_defaults(1 << 26, 32, 4));
        assert!(b16 <= b8 * 1.05, "B=16 {b16} should not lose to B=8 {b8}");
    }
}
