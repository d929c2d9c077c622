//! The unoptimized baseline: every bitonic network step is its own kernel
//! reading and writing global memory (the 521 ms starting point of the
//! Section 4.3 optimization ladder).

use datagen::TopKItem;
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel};
use sortnet::{host, local_sort_steps, rebuild_steps, Step};

use crate::TopKError;

/// Applies one compare-exchange step to the whole live prefix, straight
/// from global memory. Streaming traffic: read + write of every element.
struct GlobalStepKernel<T: TopKItem> {
    data: GpuBuffer<T>,
    n: usize,
    step: Step,
}

impl<T: TopKItem> Kernel for GlobalStepKernel<T> {
    fn name(&self) -> &'static str {
        "bitonic_global_step"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        let data = BufferDecl::of("data", &self.data);
        Some(AccessSpec::bulk(
            "step",
            vec![
                BulkAccess {
                    buf: data.clone(),
                    elems: self.n,
                    write: false,
                },
                BulkAccess {
                    buf: data,
                    elems: self.n,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let bytes = (self.n * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(bytes);
        blk.bulk_global_write(bytes);
        blk.bulk_ops(self.n as u64 / 2);
        on_ranks(&self.data, self.n, self.n, |r| {
            host::apply_step(r, self.step)
        });
    }
}

/// Pairwise-max merge over 2k windows, global memory to global memory.
struct GlobalMergeKernel<T: TopKItem> {
    data: GpuBuffer<T>,
    n: usize,
    k: usize,
}

impl<T: TopKItem> Kernel for GlobalMergeKernel<T> {
    fn name(&self) -> &'static str {
        "bitonic_global_merge"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        let data = BufferDecl::of("data", &self.data);
        Some(AccessSpec::bulk(
            "merge",
            vec![
                BulkAccess {
                    buf: data.clone(),
                    elems: self.n,
                    write: false,
                },
                BulkAccess {
                    buf: data,
                    elems: self.n / 2,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let bytes = (self.n * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(bytes);
        blk.bulk_global_write(bytes / 2);
        blk.bulk_ops(self.n as u64 / 2);
        on_ranks(&self.data, self.n, self.n / 2, |r| {
            host::merge_in_place(r, self.k)
        });
    }
}

/// Converts `data[..n]` to ranks once (see [`TopKItem::rank`]), runs `f`
/// on them, and writes the first `out` back as items.
fn on_ranks<T: TopKItem>(
    data: &GpuBuffer<T>,
    n: usize,
    out: usize,
    f: impl FnOnce(&mut [T::Rank]),
) {
    let mut ranks: Vec<T::Rank> = data.read_range(0..n).iter().map(T::rank).collect();
    f(&mut ranks);
    let items: Vec<T> = ranks[..out].iter().map(|&r| T::from_rank(r)).collect();
    data.write_range(0, &items);
}

/// Bitonic top-k with per-step global kernels. `data` must already be
/// padded to a power of two with min sentinels; returns the ascending
/// sorted top-`k_eff` run in `data[0..k_eff]`.
pub(crate) fn run_global_steps<T: TopKItem>(
    dev: &Device,
    data: &GpuBuffer<T>,
    n_pad: usize,
    k_eff: usize,
) -> Result<(), TopKError> {
    for step in local_sort_steps(k_eff) {
        dev.launch(&GlobalStepKernel {
            data: data.clone(),
            n: n_pad,
            step,
        })?;
    }
    let mut cur = n_pad;
    while cur > k_eff {
        dev.launch(&GlobalMergeKernel {
            data: data.clone(),
            n: cur,
            k: k_eff,
        })?;
        cur /= 2;
        for step in rebuild_steps(k_eff) {
            dev.launch(&GlobalStepKernel {
                data: data.clone(),
                n: cur,
                step,
            })?;
        }
    }
    Ok(())
}
