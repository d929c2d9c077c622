//! Batched top-k: many independent queries in one launch.
//!
//! The paper's introduction motivates GPU top-k with the open feature
//! requests in TensorFlow and ArrayFire — both of which are *row-wise*
//! top-k over a batch of vectors (beam search, sampling, k-NN shortlists).
//! This module extends bitonic top-k to that shape: a `rows × cols`
//! matrix where each row needs its own top-k, executed as one kernel
//! with one thread block per row (cols small enough for shared memory)
//! or a per-row pipeline otherwise.
//!
//! Batching matters because a single row is far too small to fill the
//! device: at `cols = 4096`, one row is one block — a batch of 1024 rows
//! turns the same kernel into a full launch at full occupancy, amortizing
//! the launch overhead 1024×.

use crate::bitonic::{bitonic_topk, BitonicConfig};
use crate::util::LogCapture;
use crate::{TopKError, TopKResult};
use datagen::TopKItem;
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel};
use sortnet::{host, next_pow2};
use topk_costmodel::shared_traffic_factor;

/// One block per row: loads the row into shared memory, runs the full
/// local-sort/merge/rebuild pipeline down to `k`, writes `k` winners.
struct BatchedRowKernel<T: TopKItem> {
    input: GpuBuffer<T>,
    output: GpuBuffer<T>,
    rows: usize,
    cols: usize,
    row_pad: usize,
    k_eff: usize,
}

impl<T: TopKItem> Kernel for BatchedRowKernel<T> {
    fn name(&self) -> &'static str {
        "batched_bitonic_row"
    }
    fn block_dim(&self) -> usize {
        (self.row_pad / 16).clamp(32, 256).min(self.row_pad)
    }
    fn grid_dim(&self) -> usize {
        self.rows
    }
    fn shared_bytes_per_block(&self) -> usize {
        // padded staging for the row
        self.row_pad * T::SIZE_BYTES * 33 / 32 + 4
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "row",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("input", &self.input),
                    elems: self.rows * self.cols,
                    write: false,
                },
                BulkAccess {
                    buf: BufferDecl::of("output", &self.output),
                    elems: self.rows * self.k_eff,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let row = blk.block_idx;
        let base = row * self.cols;

        // functional per-row reduction on the row's ranks, converted
        // once: the network's output, the row's top k_eff ascending
        let mut ranks: Vec<T::Rank> = Vec::with_capacity(self.row_pad);
        ranks.extend(
            self.input.host_view()[base..base + self.cols]
                .iter()
                .map(T::rank),
        );
        ranks.resize(self.row_pad, T::min_sentinel().rank());
        let merges = sortnet::log2(self.row_pad / self.k_eff) as usize;
        host::local_sort_reduce(&mut ranks, self.k_eff, merges, host::RunOrder::Sorted);
        let winners: Vec<T> = ranks[..self.k_eff]
            .iter()
            .rev()
            .map(|&r| T::from_rank(r))
            .collect();
        self.output.write_range(row * self.k_eff, &winners);

        // traffic: the row in, k out, and the usual shared pipeline factor
        let bytes = (self.cols * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(bytes);
        blk.bulk_global_write((self.k_eff * T::SIZE_BYTES) as u64);
        let factor = shared_traffic_factor(self.k_eff, 16, merges.max(1), true);
        blk.bulk_shared((factor * (self.row_pad * T::SIZE_BYTES) as f64) as u64);
        blk.bulk_ops((self.row_pad * 2 * (merges + 4)) as u64);
    }
}

/// The largest padded row length (in items) that [`batched_bitonic_topk`]
/// can run as a single fused launch on `spec` — one block per row with
/// the whole row staged in shared memory. Longer rows fall back to a
/// per-row pipeline. Callers that coalesce independent queries (the qdb
/// serving layer) use this to decide which queries are batchable.
pub fn max_single_launch_row<T: TopKItem>(spec: &simt::DeviceSpec) -> usize {
    // the staging buffer must fit the block's shared memory
    let budget = spec.shared_mem_per_block * 11 / 12;
    let mut m = 1usize;
    while 2 * m * T::SIZE_BYTES * 33 / 32 <= budget {
        m *= 2;
    }
    m
}

/// Result of a batched query.
#[derive(Debug, Clone)]
pub struct BatchedResult<T> {
    /// `rows` result lists, each the row's largest `k` descending.
    pub rows: Vec<Vec<T>>,
    /// Total modeled device time.
    pub time: simt::SimTime,
}

/// Row-wise top-k over a row-major `rows × cols` matrix.
///
/// Rows whose padded length fits a thread block's shared memory run as
/// one fused launch (one block per row); larger rows fall back to the
/// standard multi-kernel pipeline per row.
pub fn batched_bitonic_topk<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    rows: usize,
    cols: usize,
    k: usize,
) -> Result<BatchedResult<T>, TopKError> {
    if k == 0 {
        return Err(TopKError::ZeroK);
    }
    if rows == 0 || cols == 0 || input.len() < rows * cols {
        return Err(TopKError::EmptyInput);
    }
    let cap = LogCapture::begin(dev);
    let k_req = k.min(cols);
    let k_eff = next_pow2(k_req);
    let row_pad = next_pow2(cols).max(k_eff);

    let max_row = max_single_launch_row::<T>(dev.spec());

    let mut out_rows: Vec<Vec<T>> = Vec::with_capacity(rows);
    if row_pad <= max_row {
        let output = dev.alloc_filled::<T>(rows * k_eff, T::min_sentinel());
        dev.launch(&BatchedRowKernel {
            input: input.clone(),
            output: output.clone(),
            rows,
            cols,
            row_pad,
            k_eff,
        })?;
        for r in 0..rows {
            let mut row = output.read_range(r * k_eff..r * k_eff + k_eff);
            row.truncate(k_req);
            out_rows.push(row);
        }
    } else {
        // large rows: standard pipeline per row (still correct, just not
        // single-launch)
        for r in 0..rows {
            let row_buf = dev.upload(&input.read_range(r * cols..(r + 1) * cols));
            let res: TopKResult<T> = bitonic_topk(dev, &row_buf, k_req, BitonicConfig::default())?;
            out_rows.push(res.items);
        }
    }

    let summary = cap.finish(dev, Vec::<()>::new());
    Ok(BatchedResult {
        rows: out_rows,
        time: summary.time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, Distribution, Uniform};

    fn matrix(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        Uniform.generate(rows * cols, seed)
    }

    #[test]
    fn every_row_matches_its_reference() {
        let (rows, cols, k) = (64usize, 512usize, 8usize);
        let data = matrix(rows, cols, 400);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        let r = batched_bitonic_topk(&dev, &input, rows, cols, k).unwrap();
        assert_eq!(r.rows.len(), rows);
        for (i, row) in r.rows.iter().enumerate() {
            let expect = reference_topk(&data[i * cols..(i + 1) * cols], k);
            assert_eq!(row, &expect, "row {i}");
        }
    }

    #[test]
    fn non_pow2_cols_and_k_clamp() {
        let (rows, cols) = (7usize, 300usize);
        let data = matrix(rows, cols, 401);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        let r = batched_bitonic_topk(&dev, &input, rows, cols, 5).unwrap();
        for (i, row) in r.rows.iter().enumerate() {
            assert_eq!(row, &reference_topk(&data[i * cols..(i + 1) * cols], 5));
        }
        // k > cols clamps to cols
        let r = batched_bitonic_topk(&dev, &input, rows, cols, 1000).unwrap();
        assert_eq!(r.rows[0].len(), cols);
    }

    #[test]
    fn large_rows_fall_back_per_row() {
        let (rows, cols, k) = (3usize, 1 << 14, 16usize);
        let data = matrix(rows, cols, 402);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        let r = batched_bitonic_topk(&dev, &input, rows, cols, k).unwrap();
        for (i, row) in r.rows.iter().enumerate() {
            assert_eq!(row, &reference_topk(&data[i * cols..(i + 1) * cols], k));
        }
    }

    #[test]
    fn batching_amortizes_launch_overhead() {
        // 256 rows in one launch vs 256 separate top-k calls
        let (rows, cols, k) = (256usize, 1024usize, 8usize);
        let data = matrix(rows, cols, 403);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        let batched = batched_bitonic_topk(&dev, &input, rows, cols, k).unwrap();

        let mut serial = simt::SimTime::ZERO;
        for i in 0..rows {
            let row_buf = dev.upload(&data[i * cols..(i + 1) * cols]);
            serial += bitonic_topk(&dev, &row_buf, k, BitonicConfig::default())
                .unwrap()
                .time;
        }
        assert!(
            batched.time.seconds() * 5.0 < serial.seconds(),
            "batched {} should beat {} serial launches at {}",
            batched.time,
            rows,
            serial
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        let dev = Device::titan_x();
        let input = dev.upload(&[1.0f32; 64]);
        assert!(matches!(
            batched_bitonic_topk(&dev, &input, 8, 8, 0),
            Err(TopKError::ZeroK)
        ));
        assert!(matches!(
            batched_bitonic_topk(&dev, &input, 0, 8, 2),
            Err(TopKError::EmptyInput)
        ));
        assert!(matches!(
            batched_bitonic_topk(&dev, &input, 9, 8, 2), // 72 > 64
            Err(TopKError::EmptyInput)
        ));
    }
}
