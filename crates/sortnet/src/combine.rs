//! Index machinery for the Section 4.3 shared-memory optimizations.
//!
//! * [`StepGroupPlan`] — the *combined steps* optimization: consecutive
//!   network steps are grouped so one thread loads a small element set
//!   into registers, applies all the group's compare-exchanges locally,
//!   and writes back once, halving (or better) shared-memory traffic.
//! * [`PadMap`] — the *padding* optimization: one unused word per `banks`
//!   words shifts addresses so contiguous per-thread chunks land on
//!   distinct banks.
//! * [`chunk_rotation`] — the *chunk permutation* optimization: threads
//!   visit their chunks in rotated order so simultaneous accesses within
//!   a warp hit distinct banks.
//!
//! # Why arbitrary step groups are legal
//!
//! Network distances are powers of two, so a step at distance `j = 2^b`
//! pairs indices differing exactly in bit `b`. A group of steps with
//! distance-bit set `P` therefore only ever moves data within the *closed
//! set* of indices that agree on all bits outside `P` — a set of `2^|P|`
//! elements. Any consecutive run of steps whose union of distance bits
//! has `|P| ≤ log2(B)` can be executed privately by one thread holding
//! `2^|P| ≤ B` elements.

use crate::network::Step;

/// A group of consecutive network steps executed privately per thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedStep {
    /// The steps of the group, in network order.
    pub steps: Vec<Step>,
    /// Distance-bit positions of the group, ascending. `free_bits[i]` is
    /// the array-index bit that bit `i` of the local element counter `m`
    /// controls.
    pub free_bits: Vec<u32>,
}

impl CombinedStep {
    /// Elements each thread holds for this group (`2^|free_bits|`).
    pub fn elems_per_set(&self) -> usize {
        1 << self.free_bits.len()
    }

    /// Number of disjoint closed sets in an array of `len` elements.
    pub fn num_sets(&self, len: usize) -> usize {
        len / self.elems_per_set()
    }

    /// The array index of local element `m` of closed set `set_id`:
    /// bits of `m` go to the free positions, bits of `set_id` fill the
    /// remaining positions from least significant upward.
    pub fn element(&self, set_id: usize, m: usize) -> usize {
        debug_assert!(m < self.elems_per_set());
        self.set_base(set_id) | self.m_offset(m)
    }

    /// The index bits closed set `set_id` contributes to every one of its
    /// elements: `set_id` with a zero bit inserted at each free position
    /// (ascending, so each insertion leaves the lower ones in place).
    pub fn set_base(&self, set_id: usize) -> usize {
        self.free_bits.iter().fold(set_id, |idx, &b| {
            let low = (1usize << b) - 1;
            ((idx & !low) << 1) | (idx & low)
        })
    }

    /// The index bits local counter `m` contributes: bit `i` of `m` moves
    /// to position `free_bits[i]`.
    pub fn m_offset(&self, m: usize) -> usize {
        self.free_bits
            .iter()
            .enumerate()
            .fold(0, |idx, (i, &b)| idx | ((m >> i) & 1) << b)
    }

    /// For a step at distance `j` (which must be one of the group's
    /// distances), the local-counter bit that flips between partners.
    pub fn local_bit_for(&self, j: usize) -> u32 {
        let b = j.trailing_zeros();
        self.free_bits
            .iter()
            .position(|&fb| fb == b)
            .unwrap_or_else(|| panic!("distance {j} not in combined step {:?}", self.free_bits))
            as u32
    }
}

/// Greedy plan grouping consecutive steps under an element budget.
#[derive(Debug, Clone)]
pub struct StepGroupPlan {
    /// The groups, in network order.
    pub groups: Vec<CombinedStep>,
}

impl StepGroupPlan {
    /// Groups `steps` greedily: a step joins the current group unless the
    /// union of distance bits would exceed `log2(max_elems)` positions.
    ///
    /// # Panics
    /// If `max_elems < 2` (a group needs at least one distance bit).
    pub fn plan(steps: &[Step], max_elems: usize) -> Self {
        assert!(max_elems >= 2, "need at least 2 elements per thread");
        let budget = crate::log2(crate::next_pow2(max_elems).min(max_elems)) as usize;
        let mut groups: Vec<CombinedStep> = Vec::new();
        let mut cur_steps: Vec<Step> = Vec::new();
        let mut cur_bits: Vec<u32> = Vec::new();

        for &s in steps {
            let b = s.j.trailing_zeros();
            let would_add = if cur_bits.contains(&b) { 0 } else { 1 };
            if !cur_steps.is_empty() && cur_bits.len() + would_add > budget {
                cur_bits.sort_unstable();
                groups.push(CombinedStep {
                    steps: std::mem::take(&mut cur_steps),
                    free_bits: std::mem::take(&mut cur_bits),
                });
            }
            if !cur_bits.contains(&b) {
                cur_bits.push(b);
            }
            cur_steps.push(s);
        }
        if !cur_steps.is_empty() {
            cur_bits.sort_unstable();
            groups.push(CombinedStep {
                steps: cur_steps,
                free_bits: cur_bits,
            });
        }
        Self { groups }
    }

    /// Total shared-memory round trips (one read + one write of the whole
    /// array per group) — the quantity the optimization minimizes.
    pub fn round_trips(&self) -> usize {
        self.groups.len()
    }
}

/// Bank-conflict padding (Section 4.3, "Breaking Conflicts with Padding").
///
/// Logical word index `i` maps to physical word `i + i / banks`: one dead
/// word is inserted after every `banks` words, so a column of a
/// `[rows × banks]` view shifts by one bank per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PadMap {
    /// Number of banks (words between dead slots).
    pub banks: usize,
    /// Whether padding is applied (identity map when off).
    pub enabled: bool,
}

impl PadMap {
    /// Creates a pad map for `banks` banks, applied only when `enabled`.
    pub fn new(banks: usize, enabled: bool) -> Self {
        assert!(banks > 0);
        Self { banks, enabled }
    }

    /// Physical word index for logical index `i`.
    #[inline]
    pub fn index(&self, i: usize) -> usize {
        if self.enabled {
            i + i / self.banks
        } else {
            i
        }
    }

    /// Physical array length needed for `n` logical words.
    pub fn padded_len(&self, n: usize) -> usize {
        if self.enabled && n > 0 {
            n + (n - 1) / self.banks + 1
        } else {
            n
        }
    }
}

/// Chunk permutation (Section 4.3, "Chunk Permutation"): the rotation
/// offset for a lane visiting `num_chunks` chunks. Lane `l` starts at
/// chunk `l % num_chunks`, so at each clock the warp's lanes touch
/// different chunks (and thus different banks).
#[inline]
pub fn chunk_rotation(lane_in_warp: usize, num_chunks: usize) -> usize {
    debug_assert!(num_chunks > 0);
    lane_in_warp % num_chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{apply_step, runs_sorted_alternating};
    use crate::network::local_sort_steps;
    use datagen::{Distribution, Uniform};

    /// Applies a combined plan the way a kernel would: per closed set,
    /// gather, run the group's steps locally, scatter.
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

    #[test]
    fn element_enumerates_closed_set() {
        let g = CombinedStep {
            steps: vec![],
            free_bits: vec![1, 3],
        };
        // set 0: indices with bits {1,3} varying, others 0
        let set0: Vec<usize> = (0..4).map(|m| g.element(0, m)).collect();
        assert_eq!(set0, vec![0b0000, 0b0010, 0b1000, 0b1010]);
        // set 1: low non-free bit (bit 0) set
        let set1: Vec<usize> = (0..4).map(|m| g.element(1, m)).collect();
        assert_eq!(set1, vec![0b0001, 0b0011, 0b1001, 0b1011]);
        // set 2: next non-free bit (bit 2)
        let set2: Vec<usize> = (0..4).map(|m| g.element(2, m)).collect();
        assert_eq!(set2, vec![0b0100, 0b0110, 0b1100, 0b1110]);
    }

    #[test]
    fn sets_partition_the_array() {
        let g = CombinedStep {
            steps: vec![],
            free_bits: vec![0, 2],
        };
        let len = 32;
        let mut seen = vec![false; len];
        for set in 0..g.num_sets(len) {
            for m in 0..g.elems_per_set() {
                let i = g.element(set, m);
                assert!(i < len);
                assert!(!seen[i], "index {i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn plan_groups_respect_budget() {
        let steps = local_sort_steps(256);
        for b in [2usize, 4, 8, 16] {
            let plan = StepGroupPlan::plan(&steps, b);
            let budget = crate::log2(b) as usize;
            for g in &plan.groups {
                assert!(g.free_bits.len() <= budget);
                assert!(!g.steps.is_empty());
            }
            let total: usize = plan.groups.iter().map(|g| g.steps.len()).sum();
            assert_eq!(total, steps.len());
        }
    }

    #[test]
    fn bigger_budget_fewer_round_trips() {
        let steps = local_sort_steps(256);
        let r8 = StepGroupPlan::plan(&steps, 8).round_trips();
        let r16 = StepGroupPlan::plan(&steps, 16).round_trips();
        assert!(r16 < r8, "r16={r16} r8={r8}");
    }

    #[test]
    fn combined_plan_equals_sequential_steps() {
        for k in [4usize, 16, 64] {
            for b in [4usize, 8, 16] {
                let data: Vec<u32> = Uniform.generate(256, 77);
                let steps = local_sort_steps(k);

                let mut seq = data.clone();
                for &s in &steps {
                    apply_step(&mut seq, s);
                }

                let mut comb = data.clone();
                let plan = StepGroupPlan::plan(&steps, b);
                apply_plan(&mut comb, &plan);

                assert_eq!(seq, comb, "k={k} B={b}");
                assert!(runs_sorted_alternating(&comb, k));
            }
        }
    }

    #[test]
    fn pad_map_shifts_banks() {
        let p = PadMap::new(8, true);
        assert_eq!(p.index(0), 0);
        assert_eq!(p.index(7), 7);
        assert_eq!(p.index(8), 9); // row 1 shifted by 1
        assert_eq!(p.index(16), 18); // row 2 shifted by 2
                                     // column 0 of consecutive rows now hits distinct banks
        let banks: Vec<usize> = (0..8).map(|row| p.index(row * 8) % 8).collect();
        let mut uniq = banks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "banks {banks:?} not distinct");
    }

    #[test]
    fn pad_map_disabled_is_identity() {
        let p = PadMap::new(32, false);
        for i in [0usize, 5, 31, 32, 1000] {
            assert_eq!(p.index(i), i);
        }
        assert_eq!(p.padded_len(128), 128);
    }

    #[test]
    fn pad_map_len_covers_max_index() {
        let p = PadMap::new(32, true);
        for n in [1usize, 31, 32, 33, 64, 1024, 4096] {
            assert!(p.index(n - 1) < p.padded_len(n), "n={n}");
        }
    }

    #[test]
    fn pad_map_is_injective() {
        let p = PadMap::new(32, true);
        let phys: Vec<usize> = (0..2048).map(|i| p.index(i)).collect();
        let mut sorted = phys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), phys.len());
    }

    #[test]
    fn chunk_rotation_covers_all_offsets() {
        let offs: Vec<usize> = (0..8).map(|l| chunk_rotation(l, 4)).collect();
        assert_eq!(offs, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
