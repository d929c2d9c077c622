//! Radix select adapted to top-k (Sections 2.3 and 4.2).
//!
//! MSD radix selection with 8-bit digits: each pass histograms the current
//! candidate set on one digit, finds the digit value `b` holding the k-th
//! largest element, and then — the paper's §4.2 refinements —
//!
//! * items with digit **greater** than `b` are written straight to the
//!   result array (they are certainly in the top-k),
//! * items with digit **equal** to `b` become the next pass's candidates,
//! * if the candidate set would not shrink, the clustering write is
//!   skipped and the pass re-reads the same input (this is what makes the
//!   bucket-killer distribution degenerate to sort-like cost, Figure 12b).
//!
//! After the last digit all remaining candidates share every digit — i.e.
//! they are key-equal — and the result is padded from them.

use crate::util::{cluster, sort_desc, validate, LogCapture};
use crate::{TopKError, TopKResult};
use datagen::{RadixBits, TopKItem};
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel};

/// Histogram pass over the candidate set: one streaming read plus the
/// per-thread digit-count writeback of the paper's cost model
/// (16 × 4 bytes per thread, Section 7.1).
struct RsHistKernel<T: TopKItem> {
    candidates: GpuBuffer<T>,
    n: usize,
    digit: u32,
    /// Filled functionally for the host-side bucket decision.
    hist_out: GpuBuffer<u32>,
}

impl<T: TopKItem> Kernel for RsHistKernel<T> {
    fn name(&self) -> &'static str {
        "radix_select_hist"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "hist",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("candidates", &self.candidates),
                    elems: self.n,
                    write: false,
                },
                BulkAccess {
                    buf: BufferDecl::of("hist_out", &self.hist_out),
                    elems: self.hist_out.len(),
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let bytes = (self.n * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(bytes);
        // per-thread digit counts written out (§7.1: 16 ints × threads);
        // the launch uses fewer threads when the input is small
        let threads = (self.n as u64 / 64).clamp(256, 24 * 2048);
        blk.bulk_global_write(16 * 4 * threads);
        blk.bulk_ops(2 * self.n as u64);

        let mut hist = [0u32; 256];
        for item in &self.candidates.host_view()[..self.n] {
            hist[item.key_bits().msd_digit(self.digit) as usize] += 1;
        }
        self.hist_out.write_range(0, &hist);
    }
}

/// Prefix-sum over the digit histogram (small, Section 7.1's `T_I2`).
struct RsPrefixKernel {
    bins: usize,
    n: usize,
}

impl Kernel for RsPrefixKernel {
    fn name(&self) -> &'static str {
        "radix_select_prefix"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        // operates on the per-thread count scratch, not a declared buffer
        Some(AccessSpec::bulk("prefix", Vec::new()))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let threads = (self.n as u64 / 64).clamp(256, 24 * 2048);
        blk.bulk_global_read(self.bins as u64 * 4 * threads / 256);
        blk.bulk_global_write(self.bins as u64 * 4 * threads / 256);
        blk.bulk_ops(threads);
    }
}

/// Clustering pass: writes the `> b` items to the result region and the
/// `== b` items to the next candidate buffer.
struct RsScatterKernel<T: TopKItem> {
    candidates: GpuBuffer<T>,
    n: usize,
    digit: u32,
    bucket: u8,
    next: GpuBuffer<T>,
    result: GpuBuffer<T>,
    result_fill: usize,
    /// Outputs: (next_len, appended_to_result)
    out_counts: GpuBuffer<u32>,
}

impl<T: TopKItem> Kernel for RsScatterKernel<T> {
    fn name(&self) -> &'static str {
        "radix_select_scatter"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "scatter",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("candidates", &self.candidates),
                    elems: self.n,
                    write: false,
                },
                BulkAccess {
                    buf: BufferDecl::of("next", &self.next),
                    elems: self.n,
                    write: true,
                },
                BulkAccess {
                    buf: BufferDecl::of("result", &self.result),
                    elems: self.result.len(),
                    write: true,
                },
                BulkAccess {
                    buf: BufferDecl::of("out_counts", &self.out_counts),
                    elems: 2,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let (winners, next) = cluster(
            &self.candidates.host_view()[..self.n],
            &self.result,
            self.result_fill,
            &self.next,
            |item| item.key_bits().msd_digit(self.digit).cmp(&self.bucket),
        );

        let bytes_in = (self.n * T::SIZE_BYTES) as u64;
        let bytes_out = ((next + winners) * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(bytes_in);
        blk.bulk_global_write((bytes_out as f64 * crate::sort::SCATTER_WRITE_DEGREE) as u64);
        blk.bulk_ops(3 * self.n as u64);

        self.out_counts.set(0, next as u32);
        self.out_counts.set(1, winners as u32);
    }
}

/// Top-k via MSD radix select.
pub fn radix_select_topk<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    k: usize,
) -> Result<TopKResult<T>, TopKError> {
    let k = validate(input, k)?;
    let cap = LogCapture::begin(dev);
    let n = input.len();
    let digits = T::KeyBits::BITS / 8;

    let result = dev.alloc_filled::<T>(k, T::min_sentinel());
    let hist_out = dev.alloc::<u32>(256);
    let out_counts = dev.alloc::<u32>(2);
    // the candidate set starts at the caller's buffer (read-only) and then
    // ping-pongs between two work buffers — the "extra buffer of size n"
    // the paper's memory-usage discussion attributes to selection methods
    let works = [dev.alloc::<T>(n), dev.alloc::<T>(n)];
    let mut cand = input.clone();
    let mut next_i = 0usize;
    let mut cur_n = n;
    let mut k_rem = k;
    let mut result_fill = 0usize;

    for d in 0..digits {
        if k_rem == 0 || cur_n == 0 {
            break;
        }
        dev.launch(&RsHistKernel {
            candidates: cand.clone(),
            n: cur_n,
            digit: d,
            hist_out: hist_out.clone(),
        })?;
        dev.launch(&RsPrefixKernel {
            bins: 256,
            n: cur_n,
        })?;

        // find bucket b holding the k_rem-th largest, scanning digits high→low
        let hist = hist_out.to_vec();
        let mut acc = 0usize;
        let mut bucket = 0u8;
        for b in (0..256usize).rev() {
            acc += hist[b] as usize;
            if acc >= k_rem {
                bucket = b as u8;
                break;
            }
        }
        let higher: usize = hist[bucket as usize + 1..]
            .iter()
            .map(|&c| c as usize)
            .sum();
        let in_bucket = hist[bucket as usize] as usize;

        // §4.2: if nothing is eliminated, skip the clustering write and
        // re-examine the same buffer on the next digit
        if in_bucket == cur_n && higher == 0 {
            continue;
        }

        // write-out: winners (> bucket) to result, == bucket to a work buffer
        let next = works[next_i].clone();
        dev.launch(&RsScatterKernel {
            candidates: cand.clone(),
            n: cur_n,
            digit: d,
            bucket,
            next: next.clone(),
            result: result.clone(),
            result_fill,
            out_counts: out_counts.clone(),
        })?;
        cand = next;
        next_i = 1 - next_i;
        cur_n = out_counts.get(0) as usize;
        let wrote = out_counts.get(1) as usize;
        result_fill += wrote;
        k_rem -= wrote;
    }

    // all remaining candidates are key-equal on every examined digit: pad
    // the result from them (ties broken arbitrarily, like the paper)
    let mut items = result.read_range(0..result_fill);
    if k_rem > 0 {
        items.extend_from_slice(&cand.host_view()[..k_rem.min(cur_n)]);
    }
    sort_desc(&mut items);
    items.truncate(k);
    Ok(cap.finish(dev, items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, BucketKiller, Distribution, Kv, Uniform};

    fn keybits<T: TopKItem>(v: &[T]) -> Vec<T::KeyBits> {
        v.iter().map(|x| x.key_bits()).collect()
    }

    #[test]
    fn matches_reference_uniform_f32() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 13, 40);
        let input = dev.upload(&data);
        for k in [1usize, 3, 32, 500, 1024] {
            let r = radix_select_topk(&dev, &input, k).unwrap();
            assert_eq!(
                keybits(&r.items),
                keybits(&reference_topk(&data, k)),
                "k={k}"
            );
        }
    }

    #[test]
    fn matches_reference_u32_and_u64() {
        let dev = Device::titan_x();
        let d32: Vec<u32> = Uniform.generate(1 << 12, 41);
        let r = radix_select_topk(&dev, &dev.upload(&d32), 64).unwrap();
        assert_eq!(keybits(&r.items), keybits(&reference_topk(&d32, 64)));

        let d64: Vec<u64> = Uniform.generate(1 << 12, 42);
        let r = radix_select_topk(&dev, &dev.upload(&d64), 64).unwrap();
        assert_eq!(keybits(&r.items), keybits(&reference_topk(&d64, 64)));
    }

    #[test]
    fn duplicates_pad_from_equal_bucket() {
        let dev = Device::titan_x();
        let data = vec![5u32, 9, 5, 5, 9, 1, 5, 5];
        let input = dev.upload(&data);
        let r = radix_select_topk(&dev, &input, 4).unwrap();
        assert_eq!(r.items, vec![9, 9, 5, 5]);
    }

    #[test]
    fn all_equal_input() {
        let dev = Device::titan_x();
        let data = vec![7.5f32; 512];
        let input = dev.upload(&data);
        let r = radix_select_topk(&dev, &input, 10).unwrap();
        assert_eq!(r.items, vec![7.5f32; 10]);
    }

    #[test]
    fn uniform_ints_reduce_fast() {
        // uniform u32: first pass reduces 256×, so pass-2+ traffic is tiny
        let dev = Device::titan_x();
        let data: Vec<u32> = Uniform.generate(1 << 14, 43);
        let input = dev.upload(&data);
        let r = radix_select_topk(&dev, &input, 32).unwrap();
        let first_pass_read = (1u64 << 14) * 4;
        assert!(
            r.global_bytes() < 4 * first_pass_read,
            "traffic {} should be dominated by one read of the input",
            r.global_bytes()
        );
    }

    #[test]
    fn bucket_killer_degenerates_to_full_scans() {
        let dev = Device::titan_x();
        let n = 1 << 20;
        let uni: Vec<f32> = Uniform.generate(n, 44);
        let bk: Vec<f32> = BucketKiller.generate(n, 44);
        let r_uni = radix_select_topk(&dev, &dev.upload(&uni), 32).unwrap();
        let r_bk = radix_select_topk(&dev, &dev.upload(&bk), 32).unwrap();
        assert_eq!(keybits(&r_bk.items), keybits(&reference_topk(&bk, 32)));
        assert!(
            r_bk.time.seconds() > 1.4 * r_uni.time.seconds(),
            "bucket killer should force ~4 full-array passes: bk={} uni={}",
            r_bk.time,
            r_uni.time
        );
    }

    #[test]
    fn kv_payloads_survive() {
        let dev = Device::titan_x();
        let data: Vec<Kv<f32>> = (0..2048u32).map(|i| Kv::new((i % 997) as f32, i)).collect();
        let input = dev.upload(&data);
        let r = radix_select_topk(&dev, &input, 6).unwrap();
        let expect = {
            let mut v = data.clone();
            v.sort_by(|a, b| b.key.partial_cmp(&a.key).unwrap());
            v.truncate(6);
            v
        };
        assert_eq!(keybits(&r.items), keybits(&expect));
    }

    #[test]
    fn k_equals_n() {
        let dev = Device::titan_x();
        let data: Vec<u32> = Uniform.generate(256, 45);
        let input = dev.upload(&data);
        let r = radix_select_topk(&dev, &input, 256).unwrap();
        assert_eq!(keybits(&r.items), keybits(&reference_topk(&data, 256)));
    }
}
