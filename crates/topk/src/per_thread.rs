//! Per-thread top-k (Algorithm 1 / Section 3.1) and its register-buffer
//! variant (Appendix A).
//!
//! Each thread scans a strided slice of the input and maintains its own
//! top-k structure — a min-heap in shared memory, or a linear buffer the
//! compiler holds in registers. A final reduction merges the per-thread
//! results.
//!
//! This kernel's performance is governed by three effects the simulator
//! models explicitly:
//!
//! * **Occupancy**: shared memory per block is `block_dim · k · item`;
//!   large `k` strangles residency, degrading achieved global bandwidth,
//!   and fails outright for `k·32·item > 48 KB` (Figure 11's missing
//!   points at k ≥ 512).
//! * **Thread divergence**: heap updates are data-dependent; a warp pays
//!   the *maximum* sift depth over its 32 lanes every iteration where any
//!   lane updates. The execution here replays the real per-lane updates,
//!   so distribution sensitivity (Figure 12a: sorted input is ~3× worse)
//!   emerges from the data, not from a hand-tuned constant.
//! * **Register spilling** (register variant): beyond the register
//!   budget, part of the buffer lives in off-chip local memory, and every
//!   update scan pays global traffic for the spilled fraction
//!   (Figure 18's cliff between k = 32 and 64).

use crate::util::{sort_desc, validate, LogCapture};
use crate::{TopKError, TopKResult};
use datagen::TopKItem;
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel, LaunchError};

/// Which per-thread structure holds the running top-k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// k-element min-heap per thread, in shared memory (Algorithm 1).
    SharedHeap,
    /// Linear min-tracking buffer per thread, in registers (Appendix A).
    RegisterBuffer,
}

/// Scalar-op cost of one warp-serialized sift level. Calibrated so that a
/// fully-updating warp (sorted input) is compute-bound at ~3× the
/// memory-bound uniform case, matching Figure 12a's per-thread line.
const SIFT_LEVEL_OPS: u64 = 24;
/// Registers available for the register-variant buffer, in 32-bit words
/// (the rest of the 255-register budget is loop state and addresses).
const REG_BUFFER_WORDS: usize = 200;

/// A min-heap over key bits, stored as a flat array — the per-thread
/// structure of Algorithm 1. Returns sift depths so the kernel can model
/// divergence faithfully.
struct MinHeap<T: TopKItem> {
    items: Vec<T>,
}

impl<T: TopKItem> MinHeap<T> {
    fn with_capacity(k: usize) -> Self {
        Self {
            items: Vec::with_capacity(k),
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn min(&self) -> &T {
        &self.items[0]
    }

    /// Pushes during the fill phase; returns sift-up depth.
    fn push(&mut self, v: T) -> u32 {
        self.items.push(v);
        let mut i = self.items.len() - 1;
        let mut depth = 0;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[i].item_lt(&self.items[parent]) {
                self.items.swap(i, parent);
                i = parent;
                depth += 1;
            } else {
                break;
            }
        }
        depth
    }

    /// Replaces the minimum and sifts down; returns sift depth.
    fn replace_min(&mut self, v: T) -> u32 {
        self.items[0] = v;
        let n = self.items.len();
        let mut i = 0;
        let mut depth = 0;
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < n && self.items[l].item_lt(&self.items[smallest]) {
                smallest = l;
            }
            if r < n && self.items[r].item_lt(&self.items[smallest]) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.items.swap(i, smallest);
            i = smallest;
            depth += 1;
        }
        depth
    }

    fn into_sorted_desc(mut self) -> Vec<T> {
        sort_desc(&mut self.items);
        self.items
    }
}

/// The per-thread top-k kernel: every simulated thread scans its strided
/// slice, maintaining heap (or buffer) state, with warp-level divergence
/// and traffic accounting.
struct PerThreadKernel<T: TopKItem> {
    input: GpuBuffer<T>,
    /// Per-thread results, laid out `O[t + j·nt]` (coalesced write).
    output: GpuBuffer<T>,
    k: usize,
    block_dim: usize,
    grid_dim: usize,
    variant: Variant,
}

impl<T: TopKItem> PerThreadKernel<T> {
    fn total_threads(&self) -> usize {
        self.block_dim * self.grid_dim
    }
}

impl<T: TopKItem> Kernel for PerThreadKernel<T> {
    fn name(&self) -> &'static str {
        match self.variant {
            Variant::SharedHeap => "per_thread_topk",
            Variant::RegisterBuffer => "per_thread_topk_regs",
        }
    }
    fn block_dim(&self) -> usize {
        self.block_dim
    }
    fn grid_dim(&self) -> usize {
        self.grid_dim
    }
    fn shared_bytes_per_block(&self) -> usize {
        match self.variant {
            Variant::SharedHeap => self.block_dim * self.k * T::SIZE_BYTES,
            Variant::RegisterBuffer => 0,
        }
    }
    fn regs_per_thread(&self) -> usize {
        match self.variant {
            Variant::SharedHeap => 32,
            Variant::RegisterBuffer => {
                let words = self.k * T::SIZE_BYTES / 4 + 32;
                words.min(255) // beyond 255 the buffer spills, not residency
            }
        }
    }

    fn low_occupancy_waiver(&self) -> Option<&'static str> {
        // The shared-heap variant stages block_dim * k items per block, so
        // occupancy collapsing as k grows is the algorithm's documented
        // failure mode (Section 6.2 / Figure 11), not a launch-config bug.
        // The register variant carries k items per thread instead — same
        // story, through the register file.
        Some("per-thread top-k keeps k items per thread resident; occupancy loss at large k is inherent (paper §6.2)")
    }

    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "scan",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("input", &self.input),
                    elems: self.input.len(),
                    write: false,
                },
                BulkAccess {
                    buf: BufferDecl::of("output", &self.output),
                    elems: self.total_threads() * self.k,
                    write: true,
                },
            ],
        ))
    }

    fn run_block(&self, blk: &mut BlockCtx) {
        let n = self.input.len();
        let nt = self.total_threads();
        let ws = blk.spec().warp_size;
        let input = self.input.host_view();
        let k = self.k;

        let block_lo = blk.block_idx * self.block_dim;
        let mut heaps: Vec<MinHeap<T>> = (0..self.block_dim)
            .map(|_| MinHeap::with_capacity(k))
            .collect();

        // traffic/ops accumulators (charged in bulk at the end)
        let mut global_read_items = 0u64;
        let mut shared_words = 0u64;
        let mut warp_ops = 0u64;
        let mut spill_bytes = 0u64;

        // register-variant spill fraction of the buffer
        let buf_words = k * T::SIZE_BYTES / 4;
        let spill_frac = if buf_words > REG_BUFFER_WORDS {
            (buf_words - REG_BUFFER_WORDS) as f64 / buf_words as f64
        } else {
            0.0
        };

        let iters = n.div_ceil(nt);
        for it in 0..iters {
            for w in 0..self.block_dim / ws.min(self.block_dim) {
                let mut warp_max_sift = 0u32;
                let mut warp_any = false;
                let mut lanes_active = 0u64;
                for lane in 0..ws.min(self.block_dim) {
                    let tid = w * ws + lane;
                    let gtid = block_lo + tid;
                    let idx = gtid + it * nt;
                    if idx >= n {
                        continue;
                    }
                    lanes_active += 1;
                    global_read_items += 1;
                    let x = input[idx];
                    let heap = &mut heaps[tid];
                    let sift = if heap.len() < k {
                        warp_any = true;
                        heap.push(x)
                    } else if heap.min().item_lt(&x) {
                        warp_any = true;
                        heap.replace_min(x)
                    } else {
                        0
                    };
                    warp_max_sift = warp_max_sift.max(sift);
                }
                if lanes_active == 0 {
                    continue;
                }
                match self.variant {
                    Variant::SharedHeap => {
                        // every lane reads the heap root (interleaved layout
                        // → conflict-free); an updating warp pays the max
                        // sift depth in lockstep
                        shared_words += lanes_active * (T::SIZE_BYTES as u64 / 4);
                        warp_ops += ws as u64 * 2;
                        if warp_any {
                            shared_words += lanes_active
                                * 3
                                * (warp_max_sift as u64 + 1)
                                * (T::SIZE_BYTES as u64 / 4);
                            warp_ops += ws as u64 * (warp_max_sift as u64 + 1) * SIFT_LEVEL_OPS;
                        }
                    }
                    Variant::RegisterBuffer => {
                        // min compare is register-resident; an update scans
                        // the whole buffer (k ops per lane, in lockstep)
                        warp_ops += ws as u64 * 2;
                        if warp_any {
                            warp_ops += ws as u64 * k as u64 * 2;
                            spill_bytes += lanes_active
                                * (k as f64 * spill_frac) as u64
                                * T::SIZE_BYTES as u64;
                        }
                    }
                }
            }
        }

        // coalesced output write: O[t + j·nt], one host write per block
        drop(input);
        self.output.write_with(|out| {
            for (tid, heap) in heaps.into_iter().enumerate() {
                let gtid = block_lo + tid;
                for (j, item) in heap.into_sorted_desc().into_iter().enumerate() {
                    out[gtid + j * nt] = item;
                }
            }
        });

        blk.bulk_global_read(global_read_items * T::SIZE_BYTES as u64);
        blk.bulk_global_read(spill_bytes); // local-memory spills are global traffic
        blk.bulk_global_write((self.block_dim * k * T::SIZE_BYTES) as u64);
        blk.bulk_shared(shared_words * 4);
        blk.bulk_ops(warp_ops);
    }
}

/// Final reduction: sorts the `nt·k` per-thread winners and keeps `k`.
/// Small relative to the scan, charged as three streaming passes.
struct FinalReduceKernel<T: TopKItem> {
    candidates: GpuBuffer<T>,
    k: usize,
}

impl<T: TopKItem> Kernel for FinalReduceKernel<T> {
    fn name(&self) -> &'static str {
        "per_thread_final_reduce"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        let cand = BufferDecl::of("candidates", &self.candidates);
        Some(AccessSpec::bulk(
            "reduce",
            vec![
                BulkAccess {
                    buf: cand.clone(),
                    elems: self.candidates.len(),
                    write: false,
                },
                BulkAccess {
                    buf: cand,
                    elems: self.candidates.len(),
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let m = self.candidates.len();
        let bytes = (m * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(3 * bytes);
        blk.bulk_global_write(bytes);
        blk.bulk_ops((m as f64 * (self.k.max(2) as f64).log2() * 2.0) as u64);
    }
}

/// Picks the largest power-of-two block size whose shared footprint fits,
/// mirroring how the CUDA implementation would be tuned.
fn pick_block_dim<T: TopKItem>(
    dev: &Device,
    k: usize,
    variant: Variant,
) -> Result<usize, TopKError> {
    let spec = dev.spec();
    match variant {
        Variant::RegisterBuffer => Ok(256),
        Variant::SharedHeap => {
            let mut bd = 256usize;
            while bd >= spec.warp_size && bd * k * T::SIZE_BYTES > spec.shared_mem_per_block {
                bd /= 2;
            }
            if bd < spec.warp_size {
                return Err(TopKError::Launch(LaunchError::SharedMemoryExceeded {
                    requested: spec.warp_size * k * T::SIZE_BYTES,
                    limit: spec.shared_mem_per_block,
                }));
            }
            Ok(bd)
        }
    }
}

/// Per-thread top-k (both variants).
pub fn per_thread_topk<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    k: usize,
    variant: Variant,
) -> Result<TopKResult<T>, TopKError> {
    let k = validate(input, k)?;
    let cap = LogCapture::begin(dev);
    let spec = dev.spec();
    let n = input.len();

    let block_dim = pick_block_dim::<T>(dev, k, variant)?;
    // enough threads to fill the device, but never more threads than
    // elements (each thread must see at least one element)
    let target_threads = spec.num_sms * spec.max_warps_per_sm * spec.warp_size / 2;
    let grid_dim = (target_threads / block_dim)
        .min(n.div_ceil(block_dim))
        .max(1);
    let nt = block_dim * grid_dim;

    // min-sentinel fill: threads that saw fewer than k elements leave
    // their unused slots at the bottom of the order
    let candidates = dev.alloc_filled(nt * k, T::min_sentinel());
    dev.launch(&PerThreadKernel {
        input: input.clone(),
        output: candidates.clone(),
        k,
        block_dim,
        grid_dim,
        variant,
    })?;

    dev.launch(&FinalReduceKernel {
        candidates: candidates.clone(),
        k,
    })?;
    // the per-thread phase kept every candidate that could be in the
    // top-k, so the reduction is a plain sort-and-take over nt·k items
    let mut cand = candidates.to_vec();
    sort_desc(&mut cand);
    cand.truncate(k);

    Ok(cap.finish(dev, cand))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, Decreasing, Distribution, Increasing, Kv, Uniform};

    fn keybits<T: TopKItem>(v: &[T]) -> Vec<T::KeyBits> {
        v.iter().map(|x| x.key_bits()).collect()
    }

    #[test]
    fn matches_reference_uniform() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 13, 4);
        let input = dev.upload(&data);
        for k in [1usize, 7, 32, 100] {
            let r = per_thread_topk(&dev, &input, k, Variant::SharedHeap).unwrap();
            assert_eq!(
                keybits(&r.items),
                keybits(&reference_topk(&data, k)),
                "k={k}"
            );
        }
    }

    #[test]
    fn register_variant_matches_reference() {
        let dev = Device::titan_x();
        let data: Vec<u32> = Uniform.generate(1 << 12, 5);
        let input = dev.upload(&data);
        let r = per_thread_topk(&dev, &input, 24, Variant::RegisterBuffer).unwrap();
        assert_eq!(keybits(&r.items), keybits(&reference_topk(&data, 24)));
    }

    #[test]
    fn fails_for_k512_floats_like_the_paper() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 12, 6);
        let input = dev.upload(&data);
        assert!(per_thread_topk(&dev, &input, 512, Variant::SharedHeap).is_err());
        // 256 still launches (32 threads × 256 × 4 B = 32 KB)
        assert!(per_thread_topk(&dev, &input, 256, Variant::SharedHeap).is_ok());
    }

    #[test]
    fn fails_earlier_for_doubles() {
        let dev = Device::titan_x();
        let data: Vec<f64> = Uniform.generate(1 << 12, 6);
        let input = dev.upload(&data);
        // k=256 doubles: 32 × 256 × 8 B = 64 KB > 48 KB
        assert!(per_thread_topk(&dev, &input, 256, Variant::SharedHeap).is_err());
        assert!(per_thread_topk(&dev, &input, 128, Variant::SharedHeap).is_ok());
    }

    #[test]
    fn increasing_is_slower_than_uniform() {
        // The contrast needs the paper's regime: elements-per-thread well
        // beyond 32·k, so uniform warps go quiet after the warm-up while
        // sorted input updates every iteration. A smaller device at 2^24
        // elements reaches that regime at test scale.
        let dev = Device::new(simt::DeviceSpec::small_mobile());
        let n = 1 << 24;
        let uni: Vec<f32> = Uniform.generate(n, 7);
        let inc: Vec<f32> = Increasing.generate(n, 7);
        let tu = per_thread_topk(&dev, &dev.upload(&uni), 8, Variant::SharedHeap)
            .unwrap()
            .time;
        let ti = per_thread_topk(&dev, &dev.upload(&inc), 8, Variant::SharedHeap)
            .unwrap()
            .time;
        assert!(
            ti.seconds() > tu.seconds() * 1.3,
            "sorted input should be much slower: inc={ti} uni={tu}"
        );
    }

    #[test]
    fn decreasing_is_fastest_case() {
        // decreasing: after the fill phase no element ever displaces the
        // heap minimum, so warps run the cheap compare-only path
        let dev = Device::new(simt::DeviceSpec::small_mobile());
        let n = 1 << 22;
        let dec: Vec<f32> = Decreasing.generate(n, 7);
        let inc: Vec<f32> = Increasing.generate(n, 7);
        let rd = per_thread_topk(&dev, &dev.upload(&dec), 8, Variant::SharedHeap).unwrap();
        let ri = per_thread_topk(&dev, &dev.upload(&inc), 8, Variant::SharedHeap).unwrap();
        let ops_d: u64 = rd.reports.iter().map(|r| r.stats.compute_ops).sum();
        let ops_i: u64 = ri.reports.iter().map(|r| r.stats.compute_ops).sum();
        assert!(
            ops_i > 2 * ops_d,
            "increasing should do far more heap work: inc={ops_i} dec={ops_d}"
        );
        assert!(rd.time.seconds() <= ri.time.seconds());
    }

    #[test]
    fn register_variant_spills_for_large_k() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Increasing.generate(1 << 18, 8);
        let input = dev.upload(&data);
        let t64 = per_thread_topk(&dev, &input, 64, Variant::RegisterBuffer).unwrap();
        let t256 = per_thread_topk(&dev, &input, 256, Variant::RegisterBuffer).unwrap();
        // spilled buffer adds global traffic
        assert!(t256.global_bytes() > t64.global_bytes());
    }

    #[test]
    fn kv_payloads_survive() {
        let dev = Device::titan_x();
        let data: Vec<Kv<u32>> = (0..4096u32)
            .map(|i| Kv::new(i.wrapping_mul(2654435761) % 100_000, i))
            .collect();
        let input = dev.upload(&data);
        let r = per_thread_topk(&dev, &input, 8, Variant::SharedHeap).unwrap();
        let mut expect = data.clone();
        expect.sort_by_key(|kv| std::cmp::Reverse(kv.key));
        for (g, e) in r.items.iter().zip(expect.iter()) {
            assert_eq!(g.key, e.key);
        }
    }

    #[test]
    fn small_n_fewer_threads_than_default() {
        let dev = Device::titan_x();
        let data = vec![3.0f32, 1.0, 2.0];
        let input = dev.upload(&data);
        let r = per_thread_topk(&dev, &input, 2, Variant::SharedHeap).unwrap();
        assert_eq!(r.items, vec![3.0, 2.0]);
    }
}
