//! The unoptimized baseline: every bitonic network step is its own kernel
//! reading and writing global memory (the 521 ms starting point of the
//! Section 4.3 optimization ladder).
//!
//! Every launch is charged from its declared traffic, so the host body
//! needs no item copy of its own: the launches of one read share one
//! rank image of the data (see [`TopKItem::rank`]), converted once
//! before the first launch and decoded once after the last.

use std::cell::RefCell;

use datagen::TopKItem;
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel};
use sortnet::{host, local_sort_steps, rebuild_steps, Step};

use crate::TopKError;

/// Applies one compare-exchange step to the whole live prefix, straight
/// from global memory. Streaming traffic: read + write of every element.
struct GlobalStepKernel<'a, T: TopKItem> {
    data: GpuBuffer<T>,
    /// The read's rank image of `data`.
    ranks: &'a RefCell<Vec<T::Rank>>,
    n: usize,
    step: Step,
}

impl<T: TopKItem> Kernel for GlobalStepKernel<'_, T> {
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
        host::apply_step(&mut self.ranks.borrow_mut()[..self.n], self.step);
    }
}

/// Pairwise-max merge over 2k windows, global memory to global memory.
struct GlobalMergeKernel<'a, T: TopKItem> {
    data: GpuBuffer<T>,
    /// The read's rank image of `data`.
    ranks: &'a RefCell<Vec<T::Rank>>,
    n: usize,
    k: usize,
}

impl<T: TopKItem> Kernel for GlobalMergeKernel<'_, T> {
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
        host::merge_in_place(&mut self.ranks.borrow_mut()[..self.n], self.k);
    }
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
    let ranks = RefCell::new(data.host_view()[..n_pad].iter().map(T::rank).collect());
    let launch_step = |n, step| {
        dev.launch(&GlobalStepKernel {
            data: data.clone(),
            ranks: &ranks,
            n,
            step,
        })
    };
    for step in local_sort_steps(k_eff) {
        launch_step(n_pad, step)?;
    }
    let mut cur = n_pad;
    while cur > k_eff {
        dev.launch(&GlobalMergeKernel {
            data: data.clone(),
            ranks: &ranks,
            n: cur,
            k: k_eff,
        })?;
        cur /= 2;
        for step in rebuild_steps(k_eff) {
            launch_step(cur, step)?;
        }
    }
    data.write_with(|d| {
        for (o, &r) in d[..k_eff].iter_mut().zip(&ranks.borrow()[..k_eff]) {
            *o = T::from_rank(r);
        }
    });
    Ok(())
}
