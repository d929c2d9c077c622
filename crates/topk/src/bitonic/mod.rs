//! Bitonic top-k (Sections 3.2 and 4.3) — the paper's novel algorithm.
//!
//! The algorithm decomposes into three operators — **local sort**,
//! **merge**, **rebuild** (see `sortnet`) — and reduces the input by 2×
//! per merge with no unnecessary work beyond the massively parallel
//! network structure. The implementation here realizes the full
//! optimization ladder of Section 4.3 (configurable via
//! [`BitonicConfig`]/[`OptLevel`]):
//!
//! 1. per-step global kernels (baseline),
//! 2. operators staged in shared memory,
//! 3. operator fusion into SortReducer/BitonicReducer kernels,
//! 4. combined steps executed in registers,
//! 5. shared-memory padding,
//! 6. chunk permutation,
//! 7. partition reassignment.
//!
//! Because the fused kernels run on the simulator's tracked shared-memory
//! path, each optimization changes *actual access patterns*, and its
//! effect shows up in measured bank-conflict counters — not in a
//! hand-waved constant.

mod config;
mod naive;
mod reducer;

pub use config::{BitonicConfig, OptLevel};

use crate::util::{validate, LogCapture};
use crate::{TopKError, TopKResult};
use datagen::TopKItem;
use simt::{Device, GpuBuffer, LaunchError};
use sortnet::{log2, next_pow2};

use reducer::{bitonic_reducer_ops, final_reducer_ops, sort_reducer_ops, ReduceOp, ReducerKernel};

/// Shared-memory budget for the staged segment: most of the per-block
/// limit, leaving ~8% for padding and kernel bookkeeping.
fn seg_bytes_budget(dev: &Device) -> usize {
    dev.spec().shared_mem_per_block * 11 / 12
}

/// Largest power-of-two segment of `T` items that fits the budget.
fn max_seg_elems<T: TopKItem>(dev: &Device) -> usize {
    let budget = seg_bytes_budget(dev);
    let mut seg = 1usize;
    while 2 * seg * T::SIZE_BYTES <= budget {
        seg *= 2;
    }
    seg
}

/// Launches one reducer over `cur` elements of `input`, writing
/// `cur >> merges(ops)` to `output`.
#[allow(clippy::too_many_arguments)]
fn launch_reducer<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    output: &GpuBuffer<T>,
    cur: usize,
    seg: usize,
    k_eff: usize,
    ops: Vec<ReduceOp>,
    cfg: BitonicConfig,
    name: &'static str,
) -> Result<usize, TopKError> {
    let nt_pref = cfg.block_dim.unwrap_or(256);
    let block_dim = (seg / cfg.elems()).clamp(32, nt_pref).min(seg);
    let kernel = ReducerKernel::new(
        dev,
        input,
        output,
        seg,
        k_eff,
        &ops,
        cfg,
        block_dim,
        cur / seg,
        name,
    );
    let out = kernel.out_seg() * kernel.grid_dim;
    dev.launch(&kernel)?;
    Ok(out)
}

/// Bitonic top-k: returns the largest `k` items, descending.
pub fn bitonic_topk<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    k: usize,
    cfg: BitonicConfig,
) -> Result<TopKResult<T>, TopKError> {
    cfg.validate()?;
    let k_req = validate(input, k)?;
    let cap = LogCapture::begin(dev);
    let n = input.len();
    let k_eff = next_pow2(k_req);

    // ---- baseline ladder level: per-step global kernels
    if cfg.opt == OptLevel::GlobalSteps {
        let n_pad = next_pow2(n).max(k_eff);
        // the kernels sort in place, so even an input that needs no
        // padding is staged into a fresh buffer
        let data = padded_fresh(dev, &input.host_view(), n_pad);
        naive::run_global_steps(dev, &data, n_pad, k_eff)?;
        let mut items = data.read_range(0..k_eff);
        items.reverse();
        items.truncate(k_req);
        return Ok(cap.finish(dev, items));
    }

    // shared-memory staging requires a 2k window to fit one block
    let max_seg = max_seg_elems::<T>(dev);
    if 2 * k_eff > max_seg {
        return Err(TopKError::Launch(LaunchError::SharedMemoryExceeded {
            requested: 2 * k_eff * T::SIZE_BYTES,
            limit: seg_bytes_budget(dev),
        }));
    }

    let b = cfg.elems();
    let nt_pref = cfg.block_dim.unwrap_or(256);
    let seg = (b * nt_pref).min(max_seg).max(2 * k_eff);
    let n_pad = next_pow2(n);

    // ---- monolithic case: the whole (padded) input fits one block
    if n_pad <= seg {
        let seg_m = n_pad.max(k_eff);
        let out = dev.alloc_filled::<T>(k_eff, T::min_sentinel());
        let merges = log2(seg_m / k_eff) as usize;
        let mut ops = vec![ReduceOp::LocalSort];
        for _ in 0..merges {
            ops.push(ReduceOp::Merge);
            ops.push(ReduceOp::Rebuild);
        }
        launch_reducer(
            dev,
            &padded_copy(dev, input, seg_m),
            &out,
            seg_m,
            seg_m,
            k_eff,
            ops,
            cfg,
            "bitonic_monolithic",
        )?;
        let mut items = out.to_vec();
        items.reverse();
        items.truncate(k_req);
        return Ok(cap.finish(dev, items));
    }

    // ---- multi-block pipeline
    let padded_in = padded_copy(dev, input, n_pad);

    if !cfg.fused() {
        // SharedMem level: one kernel per operator, full array passes
        return shared_mem_pipeline(dev, cap, &padded_in, n_pad, k_eff, seg, cfg, k_req);
    }

    // fused: SortReducer then BitonicReducers, ping-ponging two work
    // buffers of n_pad >> merges — the paper's "extra buffer of size n/8"
    let merges_sr = (log2(b) as usize).min(log2(seg / k_eff) as usize);
    let work_len = n_pad >> merges_sr;
    let work = [
        dev.alloc_filled::<T>(work_len, T::min_sentinel()),
        dev.alloc_filled::<T>(work_len.max(k_eff), T::min_sentinel()),
    ];

    let cur = launch_reducer(
        dev,
        &padded_in,
        &work[0],
        n_pad,
        seg,
        k_eff,
        sort_reducer_ops(merges_sr),
        cfg,
        "bitonic_sort_reducer",
    )?;
    // state: `work[0][0..cur]` holds bitonic runs of k_eff
    let mut items = reduce_bitonic_runs(dev, work, cur, k_eff, seg, cfg)?;
    items.reverse();
    items.truncate(k_req);
    Ok(cap.finish(dev, items))
}

/// Drains the BitonicReducer pipeline: `work[0][0..cur]` holds bitonic
/// runs of `k_eff`; returns the surviving `k_eff` items ascending.
fn reduce_bitonic_runs<T: TopKItem>(
    dev: &Device,
    work: [GpuBuffer<T>; 2],
    mut cur: usize,
    k_eff: usize,
    seg: usize,
    cfg: BitonicConfig,
) -> Result<Vec<T>, TopKError> {
    let b = cfg.elems();
    let nt_pref = cfg.block_dim.unwrap_or(256);
    let mut src = 0usize;
    loop {
        if cur == k_eff {
            // just rebuild the single remaining bitonic run
            let nt = (k_eff / 2).clamp(32, nt_pref).min(k_eff);
            dev.launch(&ReducerKernel::new(
                dev,
                &work[src],
                &work[1 - src],
                k_eff,
                k_eff,
                &[ReduceOp::Rebuild],
                cfg,
                nt,
                1,
                "bitonic_final_rebuild",
            ))?;
            src = 1 - src;
            break;
        }
        if cur <= seg {
            // final kernel: reduce to k and sort in one block
            let merges_f = log2(cur / k_eff) as usize;
            launch_reducer(
                dev,
                &work[src],
                &work[1 - src],
                cur,
                cur,
                k_eff,
                final_reducer_ops(merges_f),
                cfg,
                "bitonic_final_reducer",
            )?;
            src = 1 - src;
            break;
        }
        let merges_br = (log2(b) as usize).min(log2(seg / k_eff) as usize);
        cur = launch_reducer(
            dev,
            &work[src],
            &work[1 - src],
            cur,
            seg,
            k_eff,
            bitonic_reducer_ops(merges_br),
            cfg,
            "bitonic_reducer",
        )?;
        src = 1 - src;
    }
    Ok(work[src].read_range(0..k_eff))
}

/// Continues the reduction from data that is *already* in bitonic runs of
/// `next_pow2(k)` — the entry point for fused operators (Section 5): a
/// FusedSortReducer kernel elsewhere filters/projects and produces the
/// first-stage reduction; this drains the rest of the pipeline.
///
/// `runs[0..valid]` must hold bitonic runs of `next_pow2(min(k, valid))`;
/// anything beyond is ignored, and `runs` is only read. Returns the
/// largest `k` items, descending.
///
/// # Errors
/// [`TopKError::EmptyInput`] when `valid` is 0, and
/// [`TopKError::InvalidConfig`] naming `valid` when it is not a whole
/// number of runs or exceeds the buffer.
pub fn bitonic_topk_from_runs<T: TopKItem>(
    dev: &Device,
    runs: &GpuBuffer<T>,
    valid: usize,
    k: usize,
    cfg: BitonicConfig,
) -> Result<TopKResult<T>, TopKError> {
    cfg.validate()?;
    let k_req = validate(runs, k)?.min(valid);
    if valid == 0 {
        return Err(TopKError::EmptyInput);
    }
    let k_eff = next_pow2(k_req);
    let invalid = |requirement| TopKError::InvalidConfig {
        field: "valid",
        value: valid,
        requirement,
    };
    if valid > runs.len() {
        return Err(invalid("at most the length of the runs buffer"));
    }
    if !valid.is_multiple_of(k_eff) {
        return Err(invalid("a whole number of runs of next_pow2(k)"));
    }
    let cap = LogCapture::begin(dev);
    let max_seg = max_seg_elems::<T>(dev);
    if 2 * k_eff > max_seg {
        return Err(TopKError::Launch(LaunchError::SharedMemoryExceeded {
            requested: 2 * k_eff * T::SIZE_BYTES,
            limit: seg_bytes_budget(dev),
        }));
    }
    let b = cfg.elems();
    let nt_pref = cfg.block_dim.unwrap_or(256);
    let seg = (b * nt_pref).min(max_seg).max(2 * k_eff);
    let cur = next_pow2(valid).max(k_eff);
    // the valid prefix, staged into a fresh buffer and padded with whole
    // runs of MIN sentinels (which are valid bitonic runs), so the
    // pipeline never writes into the caller's buffer
    let work = [
        padded_fresh(dev, &runs.host_view()[..valid], cur),
        dev.alloc_filled::<T>(cur, T::min_sentinel()),
    ];
    let mut items = reduce_bitonic_runs(dev, work, cur, k_eff, seg, cfg)?;
    items.reverse();
    items.truncate(k_req);
    Ok(cap.finish(dev, items))
}

/// `input` as a power-of-two buffer of `len` padded with min sentinels:
/// the input itself when it needs no padding, else a fresh copy.
fn padded_copy<T: TopKItem>(dev: &Device, input: &GpuBuffer<T>, len: usize) -> GpuBuffer<T> {
    if input.len() == len {
        return input.clone();
    }
    padded_fresh(dev, &input.host_view(), len)
}

/// A fresh buffer of `len` holding `prefix` followed by min sentinels,
/// filled once and copied into once (host-side staging; the copy is not
/// traffic-modeled, exactly as `cudaMemcpy` padding would happen once
/// outside the measured kernels).
fn padded_fresh<T: TopKItem>(dev: &Device, prefix: &[T], len: usize) -> GpuBuffer<T> {
    let padded = dev.alloc_filled::<T>(len, T::min_sentinel());
    padded.write_range(0, prefix);
    padded
}

/// The SharedMem ladder level: local sort / merge / rebuild as separate
/// kernels, each staging through shared memory but paying a full global
/// round trip per operator.
#[allow(clippy::too_many_arguments)]
fn shared_mem_pipeline<T: TopKItem>(
    dev: &Device,
    cap: LogCapture,
    padded_in: &GpuBuffer<T>,
    n_pad: usize,
    k_eff: usize,
    seg: usize,
    cfg: BitonicConfig,
    k_req: usize,
) -> Result<TopKResult<T>, TopKError> {
    let a = dev.alloc_filled::<T>(n_pad, T::min_sentinel());
    let b = dev.alloc_filled::<T>(n_pad / 2, T::min_sentinel());

    // local sort (full pass, no reduction)
    launch_reducer(
        dev,
        padded_in,
        &a,
        n_pad,
        seg.min(n_pad),
        k_eff,
        vec![ReduceOp::LocalSort],
        cfg,
        "bitonic_local_sort",
    )?;

    let bufs = [a, b];
    let mut src = 0usize;
    let mut cur = n_pad;
    while cur > k_eff {
        let seg_m = seg.min(cur);
        launch_reducer(
            dev,
            &bufs[src],
            &bufs[1 - src],
            cur,
            seg_m,
            k_eff,
            vec![ReduceOp::Merge],
            cfg,
            "bitonic_merge",
        )?;
        src = 1 - src;
        cur /= 2;
        launch_reducer(
            dev,
            &bufs[src],
            &bufs[src],
            cur,
            seg_m.min(cur).max(k_eff),
            k_eff,
            vec![ReduceOp::Rebuild],
            cfg,
            "bitonic_rebuild",
        )?;
    }

    let mut items = bufs[src].read_range(0..k_eff);
    items.reverse();
    items.truncate(k_req);
    Ok(cap.finish(dev, items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, BucketKiller, Distribution, Increasing, Kkkv, Kkv, Kv, Uniform};

    fn keybits<T: TopKItem>(v: &[T]) -> Vec<T::KeyBits> {
        v.iter().map(|x| x.key_bits()).collect()
    }

    fn check<T: TopKItem>(data: &[T], k: usize, cfg: BitonicConfig) {
        let dev = Device::titan_x();
        let input = dev.upload(data);
        let r = bitonic_topk(&dev, &input, k, cfg).unwrap();
        let mut expect = data.to_vec();
        expect.sort_by_key(|x| std::cmp::Reverse(x.key_bits()));
        expect.truncate(k.min(data.len()));
        assert_eq!(
            keybits(&r.items),
            keybits(&expect),
            "k={k} cfg={cfg:?} n={}",
            data.len()
        );
    }

    #[test]
    fn matches_reference_across_k_full_opt() {
        let data: Vec<f32> = Uniform.generate(1 << 14, 60);
        for k in [1usize, 2, 3, 8, 32, 100, 256, 1024] {
            check(&data, k, BitonicConfig::default());
        }
    }

    #[test]
    fn matches_reference_every_opt_level() {
        let data: Vec<f32> = Uniform.generate(1 << 13, 61);
        for opt in OptLevel::ladder() {
            check(&data, 32, BitonicConfig::at_level(opt));
        }
    }

    #[test]
    fn small_and_awkward_sizes() {
        for n in [1usize, 2, 3, 5, 31, 32, 33, 100, 1000, 4097] {
            let data: Vec<u32> = Uniform.generate(n, n as u64);
            check(&data, 4, BitonicConfig::default());
            check(&data, 1, BitonicConfig::default());
        }
    }

    #[test]
    fn k_larger_than_n() {
        let data: Vec<u32> = Uniform.generate(10, 62);
        check(&data, 64, BitonicConfig::default());
    }

    #[test]
    fn other_key_types() {
        let f64s: Vec<f64> = Uniform.generate(1 << 12, 63);
        check(&f64s, 32, BitonicConfig::default());
        let i32s: Vec<i32> = Uniform.generate(1 << 12, 64);
        check(&i32s, 32, BitonicConfig::default());
        let u64s: Vec<u64> = Uniform.generate(1 << 12, 65);
        check(&u64s, 16, BitonicConfig::default());
    }

    #[test]
    fn payload_items() {
        let kv: Vec<Kv<f32>> = Uniform
            .generate(1 << 12, 66)
            .into_iter()
            .enumerate()
            .map(|(i, k): (usize, f32)| Kv::new(k, i as u32))
            .collect();
        check(&kv, 32, BitonicConfig::default());

        let kkv: Vec<Kkv<f32>> = (0..(1 << 11))
            .map(|i| Kkv::new((i % 37) as f32, (i % 113) as f32, i))
            .collect();
        check(&kkv, 16, BitonicConfig::default());

        let kkkv: Vec<Kkkv<f32>> = (0..(1 << 11))
            .map(|i| Kkkv::new((i % 17) as f32, (i % 29) as f32, (i % 41) as f32, i))
            .collect();
        check(&kkkv, 8, BitonicConfig::default());
    }

    #[test]
    fn distribution_insensitive_time() {
        // Section 6.4: bitonic performs precisely the same operations
        // regardless of input distribution
        let dev = Device::titan_x();
        let n = 1 << 13;
        let uni: Vec<f32> = Uniform.generate(n, 67);
        let inc: Vec<f32> = Increasing.generate(n, 67);
        let bk: Vec<f32> = BucketKiller.generate(n, 67);
        let cfg = BitonicConfig::default();
        let tu = bitonic_topk(&dev, &dev.upload(&uni), 32, cfg).unwrap().time;
        let ti = bitonic_topk(&dev, &dev.upload(&inc), 32, cfg).unwrap().time;
        let tb = bitonic_topk(&dev, &dev.upload(&bk), 32, cfg).unwrap().time;
        assert!((tu.seconds() - ti.seconds()).abs() < 1e-12);
        assert!((tu.seconds() - tb.seconds()).abs() < 1e-12);
    }

    #[test]
    fn optimization_ladder_improves_time() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 14, 68);
        let input = dev.upload(&data);
        let times: Vec<f64> = OptLevel::ladder()
            .iter()
            .map(|&opt| {
                bitonic_topk(&dev, &input, 32, BitonicConfig::at_level(opt))
                    .unwrap()
                    .time
                    .seconds()
            })
            .collect();
        // each level at least as fast as two levels before it (allow local
        // noise between adjacent levels), and the ends strictly ordered
        assert!(
            times.last().unwrap() * 3.0 < times[0],
            "full opt should beat baseline by a lot: {times:?}"
        );
        for i in 2..times.len() {
            assert!(
                times[i] <= times[i - 2] * 1.05,
                "ladder not monotonic-ish at {i}: {times:?}"
            );
        }
    }

    #[test]
    fn padding_reduces_bank_conflicts() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 14, 69);
        let input = dev.upload(&data);
        let before = bitonic_topk(
            &dev,
            &input,
            32,
            BitonicConfig::at_level(OptLevel::CombinedSteps),
        )
        .unwrap();
        let after =
            bitonic_topk(&dev, &input, 32, BitonicConfig::at_level(OptLevel::Padding)).unwrap();
        let c_before: u64 = before
            .reports
            .iter()
            .map(|r| r.stats.shared_conflict_cycles)
            .sum();
        let c_after: u64 = after
            .reports
            .iter()
            .map(|r| r.stats.shared_conflict_cycles)
            .sum();
        assert!(
            c_after < c_before / 2,
            "padding should remove most conflicts: before={c_before} after={c_after}"
        );
    }

    #[test]
    fn chunk_permutation_removes_residual_conflicts() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 14, 70);
        let input = dev.upload(&data);
        let pad = bitonic_topk(
            &dev,
            &input,
            128,
            BitonicConfig::at_level(OptLevel::Padding),
        )
        .unwrap();
        let perm = bitonic_topk(
            &dev,
            &input,
            128,
            BitonicConfig::at_level(OptLevel::ChunkPermute),
        )
        .unwrap();
        let c_pad: u64 = pad
            .reports
            .iter()
            .map(|r| r.stats.shared_conflict_cycles)
            .sum();
        let c_perm: u64 = perm
            .reports
            .iter()
            .map(|r| r.stats.shared_conflict_cycles)
            .sum();
        assert!(
            c_perm <= c_pad,
            "permutation should not add conflicts: pad={c_pad} perm={c_perm}"
        );
    }

    #[test]
    fn memory_usage_is_fraction_of_input() {
        // Section 4.3 discussion: bitonic top-k allocates ~n/8 extra
        let dev = Device::titan_x();
        let n = 1 << 16;
        let data: Vec<f32> = Uniform.generate(n, 71);
        let input = dev.upload(&data);
        dev.reset_memory_highwater();
        let _ = bitonic_topk(&dev, &input, 32, BitonicConfig::default()).unwrap();
        let extra = dev.memory_highwater() as f64 - (n * 4) as f64;
        assert!(
            extra <= (n * 4) as f64 / 4.0,
            "extra allocation {extra} should be ≤ n/4 bytes (got {} of input)",
            extra / (n as f64 * 4.0)
        );
    }

    #[test]
    fn rejects_k_too_large_for_shared() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 15, 72);
        let input = dev.upload(&data);
        // k_eff = 8192 → 2k windows of 64 KB don't fit shared memory
        assert!(matches!(
            bitonic_topk(&dev, &input, 8192, BitonicConfig::default()),
            Err(TopKError::Launch(LaunchError::SharedMemoryExceeded { .. }))
        ));
    }

    #[test]
    fn configs_set_through_public_fields_fail_typed() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 14, 74);
        let input = dev.upload(&data);
        let runs = dev.upload(&data[..1024]);
        let (block, elems) = (
            "BitonicConfig::block_dim",
            "BitonicConfig::elems_per_thread",
        );
        for (elems_per_thread, block_dim, field) in [
            (None, Some(96), block),
            (None, Some(100), block),
            (None, Some(48), block),
            (None, Some(16), block),
            (None, Some(0), block),
            (Some(12), None, elems),
            (Some(1), None, elems),
        ] {
            let cfg = BitonicConfig {
                elems_per_thread,
                block_dim,
                ..BitonicConfig::default()
            };
            for r in [
                bitonic_topk(&dev, &input, 32, cfg),
                bitonic_topk_from_runs(&dev, &runs, 1024, 32, cfg),
            ] {
                match r {
                    Err(TopKError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                    other => panic!("{cfg:?}: {other:?}"),
                }
            }
        }
    }

    /// 2^14 f32 keys laid out as sorted runs of 32, alternately
    /// ascending and descending, so every run is bitonic.
    fn bitonic_runs_of_32() -> Vec<f32> {
        let mut data: Vec<f32> = Uniform.generate(1 << 14, 75);
        for (r, run) in data.chunks_mut(32).enumerate() {
            run.sort_by_key(|x| x.key_bits());
            if r % 2 == 1 {
                run.reverse();
            }
        }
        data
    }

    #[test]
    fn from_runs_rejects_partial_runs_typed() {
        let dev = Device::titan_x();
        let runs = dev.upload(&bitonic_runs_of_32());
        let cfg = BitonicConfig::default();
        for (valid, k) in [(100, 32), (48, 32), (1 << 15, 32)] {
            match bitonic_topk_from_runs(&dev, &runs, valid, k, cfg) {
                Err(TopKError::InvalidConfig { field, value, .. }) => {
                    assert_eq!((field, value), ("valid", valid))
                }
                other => panic!("valid={valid} k={k}: {other:?}"),
            }
        }
    }

    #[test]
    fn from_runs_with_nothing_valid_is_empty_input() {
        let dev = Device::titan_x();
        let runs = dev.upload(&bitonic_runs_of_32());
        assert_eq!(
            bitonic_topk_from_runs(&dev, &runs, 0, 32, BitonicConfig::default()).unwrap_err(),
            TopKError::EmptyInput
        );
    }

    #[test]
    fn from_runs_only_reads_the_callers_buffer() {
        let data = bitonic_runs_of_32();
        for valid in [12288, 4096, 64, data.len()] {
            let dev = Device::titan_x();
            let runs = dev.upload(&data);
            let r =
                bitonic_topk_from_runs(&dev, &runs, valid, 32, BitonicConfig::default()).unwrap();
            assert_eq!(
                keybits(&r.items),
                keybits(&reference_topk(&data[..valid], 32)),
                "valid={valid}"
            );
            let after = runs.to_vec();
            let changed = data
                .iter()
                .zip(&after)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
            assert_eq!(changed, 0, "valid={valid}: the runs buffer was written");
        }
    }

    #[test]
    fn figure8_elems_per_thread_sweep_runs() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 13, 73);
        let input = dev.upload(&data);
        for b in [8usize, 16, 32, 64] {
            let r =
                bitonic_topk(&dev, &input, 32, BitonicConfig::with_elems_per_thread(b)).unwrap();
            assert_eq!(
                keybits(&r.items),
                keybits(&reference_topk(&data, 32)),
                "B={b}"
            );
        }
    }
}
