//! The fused reducer kernel family (SortReducer / BitonicReducer /
//! monolithic final reducer), with the Section 4.3 shared-memory
//! optimizations realized as actual access-pattern changes the simulator
//! measures.
//!
//! The reducer's network is data-oblivious and its contract exact, so
//! the kernel is [`Metered`]: a plain device charges it from the contract
//! and computes each block's output on its host slice, by selection when
//! the op list starts with a local sort and as compare-exchanges
//! otherwise. The lane path (`run_block`) stays the reference under a
//! sanitizer or lint capture.

use std::cell::OnceCell;

use datagen::TopKItem;
use simt::{
    AccessSpec, BlockCtx, BufferDecl, Device, GlobalStream, GpuBuffer, Kernel, KernelStats,
    Metered, PhaseSpec, SharedEv, SharedHandle, SharedStep,
};
use sortnet::host::{apply_steps, local_sort_reduce, merge_in_place, RunOrder};
use sortnet::{
    chunk_rotation, local_sort_steps, rebuild_steps, CombinedStep, PadMap, Step, StepGroupPlan,
};

use super::config::BitonicConfig;

/// One operator inside a fused kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReduceOp {
    /// Unsorted → sorted runs of k (only valid as the first op).
    LocalSort,
    /// Bitonic runs of k → sorted runs of k.
    Rebuild,
    /// Pairwise max over 2k windows; halves the live length.
    Merge,
}

/// One operator of a launch with everything that depends only on the
/// launch geometry worked out once: every block and the static access
/// declaration read the same schedule.
enum OpSched {
    /// Local sort or rebuild: one barrier interval per step group.
    Network {
        label: &'static str,
        groups: Vec<GroupSched>,
    },
    /// Pairwise max from `len` to `len / 2` live elements.
    Merge { len: usize, workers: usize },
}

/// One step group of a network operator.
struct GroupSched {
    group: CombinedStep,
    /// Threads that own closed sets; the rest idle.
    workers: usize,
    /// Closed sets per worker: blocked assignment, as in the paper's
    /// Figure 6 — each thread owns a contiguous range of sets.
    per: usize,
    /// Chunk permutation: lanes rotate their visit order.
    rotate: bool,
    /// `group.m_offset(m)` for every local counter `m`.
    offsets: Vec<usize>,
    /// The group's steps, each with its partner's local-counter mask.
    steps: Vec<(Step, usize)>,
}

/// A fused reducer: loads a segment to shared memory, applies a sequence
/// of operators, writes the reduced segment back.
pub(crate) struct ReducerKernel<T: TopKItem> {
    input: GpuBuffer<T>,
    output: GpuBuffer<T>,
    /// Segment (elements) each block loads.
    seg: usize,
    /// Run length (the internally rounded-up k).
    k: usize,
    cfg: BitonicConfig,
    block_dim: usize,
    pub grid_dim: usize,
    kernel_name: &'static str,
    /// Warp size of the launching device (lane rotation).
    ws: usize,
    /// The operators, in order (part of the meter key).
    ops: Vec<ReduceOp>,
    /// The lane schedule, built on first use by `run_block` or the
    /// contract: a metered launch whose prediction is memoized runs
    /// `ops` on host slices and never needs it.
    sched: OnceCell<Vec<OpSched>>,
}

impl<T: TopKItem> ReducerKernel<T> {
    /// A reducer that applies `ops` to each `seg`-element segment,
    /// scheduled for `dev`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dev: &Device,
        input: &GpuBuffer<T>,
        output: &GpuBuffer<T>,
        seg: usize,
        k: usize,
        ops: &[ReduceOp],
        cfg: BitonicConfig,
        block_dim: usize,
        grid_dim: usize,
        kernel_name: &'static str,
    ) -> Self {
        // the host executor relies on every block loading its whole
        // segment; `BitonicConfig::validate` guarantees the geometry
        debug_assert!(
            seg.is_multiple_of(block_dim),
            "seg {seg} over {block_dim} threads"
        );
        Self {
            input: input.clone(),
            output: output.clone(),
            seg,
            k,
            cfg,
            block_dim,
            grid_dim,
            kernel_name,
            ws: dev.spec().warp_size,
            ops: ops.to_vec(),
            sched: OnceCell::new(),
        }
    }

    /// The launch's lane schedule, worked out on first use.
    fn sched(&self) -> &[OpSched] {
        self.sched.get_or_init(|| {
            let cfg = self.cfg;
            let mut sched = Vec::with_capacity(self.ops.len());
            let mut cur_len = self.seg;
            for &op in &self.ops {
                // element budget per thread at the current live length
                let active = if cfg.reassign() {
                    (cur_len / cfg.elems()).clamp(1, self.block_dim)
                } else {
                    self.block_dim.min(cur_len)
                };
                let (label, steps) = match op {
                    ReduceOp::LocalSort => ("local-sort", local_sort_steps(self.k)),
                    ReduceOp::Rebuild => ("rebuild", rebuild_steps(self.k)),
                    ReduceOp::Merge => {
                        sched.push(OpSched::Merge {
                            len: cur_len,
                            workers: active.min(cur_len / 2),
                        });
                        cur_len /= 2;
                        continue;
                    }
                };
                let budget = cfg.group_budget().min((cur_len / active).max(2));
                let groups = StepGroupPlan::plan(&steps, budget)
                    .groups
                    .into_iter()
                    .map(|group| self.group_sched(group, cur_len, active))
                    .collect();
                sched.push(OpSched::Network { label, groups });
            }
            sched
        })
    }

    fn group_sched(&self, group: CombinedStep, cur_len: usize, active: usize) -> GroupSched {
        let m_count = group.elems_per_set();
        let sets_total = cur_len / m_count;
        let workers = active.min(sets_total);
        let offsets: Vec<usize> = (0..m_count).map(|m| group.m_offset(m)).collect();
        let per = sets_total / workers.max(1);
        debug_assert_eq!(workers * per, sets_total, "every closed set has a worker");
        // chunk permutation: rotate the per-lane visit order when the
        // aligned order would conflict and the rotated one is better
        let rotate = self.cfg.chunk_permute()
            && m_count > 1
            && self.predict_conflicts(&group, &offsets, workers, per, true)
                < self.predict_conflicts(&group, &offsets, workers, per, false);
        let steps = group
            .steps
            .iter()
            .map(|&step| (step, 1 << group.local_bit_for(step.j)))
            .collect();
        GroupSched {
            group,
            workers,
            per,
            rotate,
            offsets,
            steps,
        }
    }

    /// Output elements each block produces.
    pub fn out_seg(&self) -> usize {
        let merges = self.ops.iter().filter(|&&op| op == ReduceOp::Merge).count();
        self.seg >> merges
    }

    fn pad_map(&self) -> PadMap {
        // banks in the element domain: 32 words / words-per-element
        let wpe = T::SIZE_BYTES.div_ceil(4);
        PadMap::new((32 / wpe).max(1), self.cfg.padding())
    }

    /// Shared bytes needed for the (possibly padded) segment.
    pub fn shared_bytes(&self) -> usize {
        self.pad_map().padded_len(self.seg) * T::SIZE_BYTES
    }

    /// Predicts the bank-conflict cycles of one warp executing a group
    /// with the given per-lane rotation, by replaying the slot/bank
    /// geometry of the first warp's first sets. Used to pick the chunk
    /// visit order — the paper derives its permutation by inspecting
    /// exactly this pattern (Figure 10); we generalize by evaluating the
    /// candidate orders.
    fn predict_conflicts(
        &self,
        group: &CombinedStep,
        offsets: &[usize],
        workers: usize,
        per: usize,
        rotate: bool,
    ) -> u64 {
        let pad = self.pad_map();
        let m_count = offsets.len();
        let lanes = self.ws.min(workers);
        let mut cycles = 0u64;
        for slot in 0..m_count {
            let mut banks = [0u32; 32];
            let mut words: Vec<u32> = (0..lanes)
                .map(|l| {
                    let rot = if rotate {
                        chunk_rotation(l, m_count)
                    } else {
                        0
                    };
                    let m = (slot + rot) % m_count;
                    let idx = group.set_base(l * per.max(1)) | offsets[m];
                    self.shared_ev(pad, idx, false).word
                })
                .collect();
            words.sort_unstable();
            words.dedup();
            for w in words {
                banks[(w as usize) % 32] += 1;
            }
            let degree = *banks.iter().max().unwrap() as u64;
            cycles += degree.saturating_sub(1);
        }
        cycles
    }

    /// The order lane `t` visits a closed set's elements in group `g`:
    /// local counters from its chunk rotation upward, wrapping around.
    fn visit_order(&self, g: &GroupSched, t: usize) -> impl Iterator<Item = usize> + Clone {
        let m_count = g.offsets.len();
        let rot = if g.rotate {
            chunk_rotation(t % self.ws, m_count)
        } else {
            0
        };
        (rot..m_count).chain(0..rot)
    }

    /// Executes one step group over the live prefix of the segment:
    /// per closed set, gather into registers, run the group's steps
    /// locally, scatter back.
    fn run_group(&self, blk: &mut BlockCtx, sh: SharedHandle<T>, pad: PadMap, g: &GroupSched) {
        let m_count = g.offsets.len();
        let mut local: Vec<T> = vec![T::min_sentinel(); m_count];
        blk.step(|lane| {
            let t = lane.tid();
            if t >= g.workers {
                return;
            }
            let order = self.visit_order(g, t);
            for set in t * g.per..(t + 1) * g.per {
                let base = g.group.set_base(set);
                for m in order.clone() {
                    local[m] = lane.sread(sh, pad.index(base | g.offsets[m]));
                }
                for &(step, partner) in &g.steps {
                    for m in 0..m_count {
                        let pm = m ^ partner;
                        if pm > m
                            && step.ascending(base | g.offsets[m]) == local[pm].item_lt(&local[m])
                        {
                            local.swap(m, pm);
                        }
                    }
                    // ~4 scalar ops per compare-exchange: load-compare,
                    // select, two conditional moves
                    lane.ops(4 * m_count as u64 / 2);
                }
                for m in order.clone() {
                    lane.swrite(sh, pad.index(base | g.offsets[m]), local[m]);
                }
            }
        });
    }

    /// Executes a merge: pairwise max over aligned 2k windows, compacting
    /// the live prefix from `len` to `len/2`. Two warp-synchronous steps
    /// (read into registers, barrier, write) as on real hardware; lane
    /// `t` produces output positions `t, t + workers, …`.
    fn run_merge(
        &self,
        blk: &mut BlockCtx,
        sh: SharedHandle<T>,
        pad: PadMap,
        len: usize,
        workers: usize,
    ) {
        let k = self.k;
        let half = len / 2;
        let mut staged: Vec<T> = vec![T::min_sentinel(); half];
        blk.step(|lane| {
            let t = lane.tid();
            if t >= workers {
                return;
            }
            for p in (t..half).step_by(workers) {
                let (w, j) = (p / k, p % k);
                let a = lane.sread(sh, pad.index(2 * k * w + j));
                let b = lane.sread(sh, pad.index(2 * k * w + j + k));
                staged[p] = if a.item_lt(&b) { b } else { a };
                lane.ops(4);
            }
        });
        blk.step(|lane| {
            let t = lane.tid();
            if t >= workers {
                return;
            }
            for p in (t..half).step_by(workers) {
                lane.swrite(sh, pad.index(p), staged[p]);
            }
        });
    }

    /// The declared shared access of element `idx` under the kernel's
    /// pad map. The reducer's one shared allocation starts at word 0, and
    /// the simulator stages each element in the words of its in-memory
    /// size, which exceeds `SIZE_BYTES` for padded items (`Kv<f64>`: 16
    /// bytes, 4 words, against a 12-byte footprint).
    fn shared_ev(&self, pad: PadMap, idx: usize, write: bool) -> SharedEv {
        let wpe = std::mem::size_of::<T>().div_ceil(4).max(1);
        SharedEv {
            word: (pad.index(idx) * wpe) as u32,
            words: wpe as u32,
            write,
        }
    }

    /// Declares one [`Self::run_group`] barrier interval.
    fn group_step(&self, pad: PadMap, g: &GroupSched) -> SharedStep {
        let m_count = g.offsets.len() as u64;
        let sets = (g.workers * g.per) as u64;
        let mut lanes: Vec<Vec<SharedEv>> = vec![Vec::new(); self.block_dim];
        for (t, lane) in lanes.iter_mut().enumerate().take(g.workers) {
            let order = self.visit_order(g, t);
            lane.reserve_exact(2 * g.per * g.offsets.len());
            for set in t * g.per..(t + 1) * g.per {
                let base = g.group.set_base(set);
                for write in [false, true] {
                    for m in order.clone() {
                        lane.push(self.shared_ev(pad, base | g.offsets[m], write));
                    }
                }
            }
        }
        SharedStep {
            lanes,
            ops: sets * g.steps.len() as u64 * (4 * m_count / 2),
        }
    }

    /// Declares one [`Self::run_merge`] invocation: the read step and
    /// the write-back step, with the same per-lane strided loops.
    fn merge_steps(&self, pad: PadMap, len: usize, workers: usize) -> Vec<SharedStep> {
        let k = self.k;
        let half = len / 2;
        let ev = |idx, write| self.shared_ev(pad, idx, write);
        let mut reads: Vec<Vec<SharedEv>> = vec![Vec::new(); self.block_dim];
        let mut writes: Vec<Vec<SharedEv>> = vec![Vec::new(); self.block_dim];
        let mut outputs = 0u64;
        for t in 0..workers {
            let outs = (t..half).step_by(workers);
            reads[t].reserve_exact(2 * outs.len());
            writes[t].reserve_exact(outs.len());
            for p in outs {
                let (w, j) = (p / k, p % k);
                reads[t].push(ev(2 * k * w + j, false));
                reads[t].push(ev(2 * k * w + j + k, false));
                writes[t].push(ev(p, true));
                outputs += 1;
            }
        }
        vec![
            SharedStep {
                lanes: reads,
                ops: 4 * outputs,
            },
            SharedStep {
                lanes: writes,
                ops: 0,
            },
        ]
    }

    /// The load phase's global read stream and per-lane shared writes.
    fn load_piece(&self, pad: PadMap) -> PhaseSpec {
        let nt = self.block_dim;
        let b_elems = self.seg / nt;
        let lanes = (0..nt)
            .map(|t| {
                (0..b_elems)
                    .map(|j| self.shared_ev(pad, t + j * nt, true))
                    .collect()
            })
            .collect();
        PhaseSpec {
            name: "load".to_string(),
            globals: vec![GlobalStream {
                buf: BufferDecl::of("input", &self.input),
                write: false,
                base: 0,
                lane_stride: 1,
                slot_stride: nt,
                slots: b_elems,
                block_stride: self.seg,
                active: nt,
                bound: None,
            }],
            shared_steps: vec![SharedStep { lanes, ops: 0 }],
            ..PhaseSpec::default()
        }
    }

    /// The store phase's per-lane shared reads and global write stream.
    fn store_piece(&self, pad: PadMap) -> PhaseSpec {
        let nt = self.block_dim;
        let out_len = self.out_seg();
        let lanes = (0..nt)
            .map(|t| {
                (t..out_len)
                    .step_by(nt)
                    .map(|p| self.shared_ev(pad, p, false))
                    .collect()
            })
            .collect();
        PhaseSpec {
            name: "store".to_string(),
            globals: vec![GlobalStream {
                buf: BufferDecl::of("output", &self.output),
                write: true,
                base: 0,
                lane_stride: 1,
                slot_stride: nt,
                slots: out_len.div_ceil(nt),
                block_stride: out_len,
                active: nt,
                bound: Some(out_len),
            }],
            shared_steps: vec![SharedStep { lanes, ops: 0 }],
            ..PhaseSpec::default()
        }
    }
}

/// Items equal bit for bit: keys by their sort bits (which tell ±0 and
/// NaNs apart), payloads by value.
fn same_item<T: TopKItem>(a: &T, b: &T) -> bool {
    a.key_bits() == b.key_bits() && (a == b || format!("{a:?}") == format!("{b:?}"))
}

impl<T: TopKItem> Kernel for ReducerKernel<T> {
    fn name(&self) -> &'static str {
        self.kernel_name
    }
    fn block_dim(&self) -> usize {
        self.block_dim
    }
    fn grid_dim(&self) -> usize {
        self.grid_dim
    }
    fn shared_bytes_per_block(&self) -> usize {
        self.shared_bytes()
    }
    fn regs_per_thread(&self) -> usize {
        // the combined-step register set plus loop state; beyond B = 16
        // this is what costs occupancy in Figure 8
        32 + self.cfg.group_budget() * T::SIZE_BYTES.div_ceil(4)
    }

    /// The contract walks the schedule `run_block` executes — load, each
    /// operator's barrier intervals, store — so the static prediction
    /// reproduces the replay's counters exactly. The sorting network is
    /// data-independent, which is what makes a complete static
    /// declaration possible.
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::collect(|sink| self.contract(sink)))
    }

    fn metered(&self) -> Option<&dyn Metered> {
        Some(self)
    }

    fn run_block(&self, blk: &mut BlockCtx) {
        let pad = self.pad_map();
        let sh = blk.alloc_shared::<T>(pad.padded_len(self.seg));
        let nt = self.block_dim;
        let b_elems = self.seg / nt;
        let base = blk.block_idx * self.seg;

        // ---- load: coalesced global reads staged into shared memory
        blk.step(|lane| {
            let t = lane.tid();
            for j in 0..b_elems {
                let p = t + j * nt;
                let v = lane.gread(&self.input, base + p);
                lane.swrite(sh, pad.index(p), v);
            }
        });

        // ---- operator pipeline
        for op in self.sched() {
            match op {
                OpSched::Network { groups, .. } => {
                    for g in groups {
                        self.run_group(blk, sh, pad, g);
                    }
                }
                &OpSched::Merge { len, workers } => self.run_merge(blk, sh, pad, len, workers),
            }
        }

        // ---- store: coalesced global writes of the reduced segment
        let out_len = self.out_seg();
        let out_base = blk.block_idx * out_len;
        blk.step(|lane| {
            for p in (lane.tid()..out_len).step_by(nt) {
                let v = lane.sread(sh, pad.index(p));
                lane.gwrite(&self.output, out_base + p, v);
            }
        });
    }
}

impl<T: TopKItem> Metered for ReducerKernel<T> {
    fn meter_key(&self) -> Vec<u64> {
        let cfg = self.cfg;
        let mut key = vec![
            self.seg as u64,
            self.k as u64,
            cfg.opt as u64,
            cfg.elems_per_thread.map_or(0, |b| b as u64),
            cfg.block_dim.map_or(0, |nt| nt as u64),
            self.ws as u64,
            T::SIZE_BYTES as u64,
            std::mem::size_of::<T>() as u64,
            self.input.base_addr() % 32,
            self.output.base_addr() % 32,
        ];
        key.extend(self.ops.iter().map(|&op| op as u64));
        key
    }

    /// One piece per barrier interval, in launch order: load, each
    /// operator's step groups or merge steps, store. An operator without
    /// intervals (a rebuild of runs of 1) still names its phase.
    fn contract(&self, sink: &mut dyn FnMut(PhaseSpec)) {
        if self.block_dim == 0 || self.grid_dim == 0 || self.seg == 0 {
            return;
        }
        let pad = self.pad_map();
        sink(self.load_piece(pad));
        let interval = |name: &String, step: SharedStep| PhaseSpec {
            name: name.clone(),
            shared_steps: vec![step],
            ..PhaseSpec::default()
        };
        for (oi, op) in self.sched().iter().enumerate() {
            match op {
                OpSched::Network { label, groups } => {
                    let name = format!("op{oi}:{label}");
                    if groups.is_empty() {
                        sink(PhaseSpec::named(name.clone()));
                    }
                    for g in groups {
                        sink(interval(&name, self.group_step(pad, g)));
                    }
                }
                &OpSched::Merge { len, workers } => {
                    let name = format!("op{oi}:merge");
                    for step in self.merge_steps(pad, len, workers) {
                        sink(interval(&name, step));
                    }
                }
            }
        }
        sink(self.store_piece(pad));
    }

    /// Per block, in grid order: convert the segment to ranks once into
    /// a reused scratch, reduce it, and decode only the reduced segment,
    /// which one range write stores. An op list that starts with a local
    /// sort is reduced by [`local_sort_reduce`], by selection from k = 16:
    /// its output is fixed by the network's three facts and the ranks'
    /// bijection, not by the step order. Any other op list (a
    /// rebuild-led reducer, whose runs may come from a caller of
    /// `bitonic_topk_from_runs`, so nothing guarantees they are bitonic)
    /// runs every network step on the live prefix and every merge in
    /// place, in the lane path's order; min/max on ranks keeps exactly
    /// the elements its comparator keeps (see [`TopKItem::rank`]). A
    /// block of pure padding skips the reduction: over equal ranks every
    /// op is the identity, so it stores `out_len` min sentinels. Reading
    /// a block's segment before writing its output keeps an aliased
    /// input and output (an in-place rebuild) exact.
    fn run_host(&self) {
        let out_len = self.out_seg();
        let (sorts, rebuilds) = (local_sort_steps(self.k), rebuild_steps(self.k));
        let selection = selection_form(&self.ops);
        let pad = T::min_sentinel().rank();
        let mut items: Vec<T> = Vec::with_capacity(out_len);
        let mut ranks: Vec<T::Rank> = Vec::with_capacity(self.seg);
        for b in 0..self.grid_dim {
            ranks.clear();
            ranks.extend(
                self.input.host_view()[b * self.seg..(b + 1) * self.seg]
                    .iter()
                    .map(T::rank),
            );
            items.clear();
            if ranks.iter().all(|&r| r == pad) {
                items.resize(out_len, T::min_sentinel());
                self.output.write_range(b * out_len, &items);
                continue;
            }
            if let Some((merges, order)) = selection {
                local_sort_reduce(&mut ranks, self.k, merges, order);
            } else {
                let mut live = self.seg;
                for op in &self.ops {
                    match op {
                        ReduceOp::LocalSort => apply_steps(&mut ranks[..live], &sorts),
                        ReduceOp::Rebuild => apply_steps(&mut ranks[..live], &rebuilds),
                        ReduceOp::Merge => {
                            merge_in_place(&mut ranks[..live], self.k);
                            live /= 2;
                        }
                    }
                }
            }
            items.extend(ranks[..out_len].iter().map(|&r| T::from_rank(r)));
            self.output.write_range(b * out_len, &items);
        }
    }

    fn run_both(&self, lanes: &mut dyn FnMut() -> KernelStats) -> KernelStats {
        let before = self.output.to_vec();
        self.run_host();
        let host = self.output.to_vec();
        // restoring the output also restores an aliased input
        self.output.write_range(0, &before);
        let stats = lanes();
        let replayed = self.output.to_vec();
        let diff = host
            .iter()
            .zip(&replayed)
            .position(|(a, b)| !same_item(a, b));
        assert!(
            diff.is_none(),
            "`{}`: host slices and lanes wrote different elements at {diff:?}",
            self.kernel_name
        );
        stats
    }
}

/// The merge count and run order of an op list of the form
/// `LocalSort (Merge Rebuild)* Merge?`, whose output [`local_sort_reduce`]
/// computes; `None` for any other op list.
fn selection_form(ops: &[ReduceOp]) -> Option<(usize, RunOrder)> {
    use ReduceOp::{LocalSort, Merge, Rebuild};
    let (&LocalSort, rest) = ops.split_first()? else {
        return None;
    };
    let order = if rest.len() % 2 == 1 {
        RunOrder::Bitonic
    } else {
        RunOrder::Sorted
    };
    rest.chunks(2)
        .all(|p| matches!(p, [Merge, Rebuild] | [Merge]))
        .then_some((rest.len().div_ceil(2), order))
}

/// Builds the op list of a SortReducer: local sort, then merge/rebuild
/// alternation ending on a merge — `merges` halvings total.
pub(crate) fn sort_reducer_ops(merges: usize) -> Vec<ReduceOp> {
    let mut ops = vec![ReduceOp::LocalSort];
    for i in 0..merges {
        ops.push(ReduceOp::Merge);
        if i + 1 < merges {
            ops.push(ReduceOp::Rebuild);
        }
    }
    ops
}

/// Builds the op list of a BitonicReducer: rebuild/merge alternation
/// starting from bitonic runs, ending on a merge.
pub(crate) fn bitonic_reducer_ops(merges: usize) -> Vec<ReduceOp> {
    let mut ops = Vec::new();
    for _ in 0..merges {
        ops.push(ReduceOp::Rebuild);
        ops.push(ReduceOp::Merge);
    }
    ops
}

/// Builds the final-kernel op list: from bitonic runs of k, reduce
/// `merges` times and leave a fully sorted run of k.
pub(crate) fn final_reducer_ops(merges: usize) -> Vec<ReduceOp> {
    let mut ops = Vec::new();
    for _ in 0..merges {
        ops.push(ReduceOp::Rebuild);
        ops.push(ReduceOp::Merge);
    }
    ops.push(ReduceOp::Rebuild);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_form_accepts_only_local_sort_led_lists() {
        use ReduceOp::{LocalSort, Merge, Rebuild};
        for merges in 0..5 {
            let sort_reducer = match merges {
                0 => (0, RunOrder::Sorted),
                m => (m, RunOrder::Bitonic),
            };
            assert_eq!(
                selection_form(&sort_reducer_ops(merges)),
                Some(sort_reducer)
            );
            let mut monolithic = vec![LocalSort];
            for _ in 0..merges {
                monolithic.extend([Merge, Rebuild]);
            }
            assert_eq!(
                selection_form(&monolithic),
                Some((merges, RunOrder::Sorted))
            );
            assert_eq!(selection_form(&bitonic_reducer_ops(merges)), None);
            assert_eq!(selection_form(&final_reducer_ops(merges)), None);
        }
        for ops in [
            &[][..],
            &[Merge],
            &[LocalSort, Rebuild],
            &[LocalSort, Merge, Merge],
            &[LocalSort, Merge, Rebuild, LocalSort],
        ] {
            assert_eq!(selection_form(ops), None, "{ops:?}");
        }
    }

    #[test]
    fn op_list_shapes() {
        assert_eq!(
            sort_reducer_ops(3),
            vec![
                ReduceOp::LocalSort,
                ReduceOp::Merge,
                ReduceOp::Rebuild,
                ReduceOp::Merge,
                ReduceOp::Rebuild,
                ReduceOp::Merge
            ]
        );
        assert_eq!(
            bitonic_reducer_ops(2),
            vec![
                ReduceOp::Rebuild,
                ReduceOp::Merge,
                ReduceOp::Rebuild,
                ReduceOp::Merge
            ]
        );
        assert_eq!(final_reducer_ops(0), vec![ReduceOp::Rebuild]);
        assert_eq!(
            final_reducer_ops(1),
            vec![ReduceOp::Rebuild, ReduceOp::Merge, ReduceOp::Rebuild]
        );
    }
}
