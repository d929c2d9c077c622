//! Sort-and-choose: LSD radix sort of the whole input, then take the
//! first `k` (the paper's baseline, Section 3).
//!
//! The sort is the standard GPU LSD radix sort (Section 2.2): for each
//! 8-bit digit from least to most significant, a histogram kernel and a
//! scatter kernel. Both are streaming kernels, so traffic is charged in
//! bulk: the histogram pass reads the whole array; the scatter pass reads
//! it again and writes it fully, with a partially-coalesced penalty on the
//! scattered writes. The work is independent of `k` — which is exactly why
//! the Sort line in Figure 11 is flat.

use crate::util::{validate, LogCapture};
use crate::{TopKError, TopKResult};
use datagen::{RadixBits, TopKItem};
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel};

/// Scattered writes reach only part of peak bandwidth; LSD radix scatter
/// has locality within digit buckets, so the penalty is mild.
pub(crate) const SCATTER_WRITE_DEGREE: f64 = 2.0;

/// Histogram pass: streams the input once and counts digit occurrences.
struct RadixHistKernel<T: TopKItem> {
    input: GpuBuffer<T>,
    n: usize,
}

impl<T: TopKItem> Kernel for RadixHistKernel<T> {
    fn name(&self) -> &'static str {
        "radix_sort_hist"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        // one block here stands in for the whole grid: traffic is charged
        // in aggregate and the counting is done functionally
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "hist",
            vec![BulkAccess {
                buf: BufferDecl::of("input", &self.input),
                elems: self.n,
                write: false,
            }],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        blk.bulk_global_read((self.n * T::SIZE_BYTES) as u64);
        // per-element digit extraction + histogram increment
        blk.bulk_ops(2 * self.n as u64);
        let _ = &self.input; // counts are recomputed in the scatter pass
    }
}

/// Scatter pass: stable counting-sort of one digit into the output buffer.
struct RadixScatterKernel<T: TopKItem> {
    input: GpuBuffer<T>,
    output: GpuBuffer<T>,
    n: usize,
    digit: u32,
}

impl<T: TopKItem> RadixScatterKernel<T> {
    /// Descending digit of an item: complemented so larger keys land first.
    fn digit_of(item: &T, digit: u32) -> usize {
        255 - (item.key_bits() >> (8 * digit)).low_u8() as usize
    }
}

impl<T: TopKItem> Kernel for RadixScatterKernel<T> {
    fn name(&self) -> &'static str {
        "radix_sort_scatter"
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
                    buf: BufferDecl::of("input", &self.input),
                    elems: self.n,
                    write: false,
                },
                BulkAccess {
                    buf: BufferDecl::of("output", &self.output),
                    elems: self.n,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let bytes = (self.n * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(bytes);
        blk.bulk_global_write((bytes as f64 * SCATTER_WRITE_DEGREE) as u64);
        blk.bulk_ops(4 * self.n as u64);

        // functional stable counting sort on this digit, from a borrow
        // of the input straight into the output
        let src = self.input.host_view();
        let src = &src[..self.n];
        let mut offsets = [0usize; 256];
        for item in src {
            offsets[Self::digit_of(item, self.digit)] += 1;
        }
        let mut acc = 0;
        for slot in &mut offsets {
            let count = *slot;
            *slot = acc;
            acc += count;
        }
        self.output.write_with(|dst| {
            for item in src {
                let d = Self::digit_of(item, self.digit);
                dst[offsets[d]] = *item;
                offsets[d] += 1;
            }
        });
    }
}

/// Full radix sort (descending by key) followed by choosing the first `k`.
pub fn sort_topk<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    k: usize,
) -> Result<TopKResult<T>, TopKError> {
    let k = validate(input, k)?;
    let cap = LogCapture::begin(dev);
    let n = input.len();
    let digits = T::KeyBits::BITS / 8;

    // double buffering, as real LSD sorts do (extra buffer of size n —
    // the memory-usage point of Section 4.3's discussion)
    let mut src = dev.upload(&input.host_view());
    let mut dst = dev.alloc::<T>(n);

    for d in 0..digits {
        dev.launch(&RadixHistKernel {
            input: src.clone(),
            n,
        })?;
        dev.launch(&RadixScatterKernel {
            input: src.clone(),
            output: dst.clone(),
            n,
            digit: d,
        })?;
        std::mem::swap(&mut src, &mut dst);
    }

    let items = src.read_range(0..k);
    Ok(cap.finish(dev, items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, Distribution, Increasing, Kv, Uniform};

    #[test]
    fn sorts_and_chooses_floats() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(4096, 1);
        let input = dev.upload(&data);
        let r = sort_topk(&dev, &input, 32).unwrap();
        assert_eq!(r.items, reference_topk(&data, 32));
    }

    #[test]
    fn works_on_u64_with_eight_passes() {
        let dev = Device::titan_x();
        let data: Vec<u64> = Uniform.generate(2048, 5);
        let input = dev.upload(&data);
        let r = sort_topk(&dev, &input, 10).unwrap();
        assert_eq!(r.items, reference_topk(&data, 10));
        // 8 digits × 2 kernels
        assert_eq!(r.reports.len(), 16);
    }

    #[test]
    fn negative_and_positive_i32() {
        let dev = Device::titan_x();
        let data: Vec<i32> = vec![-50, 10, -3, 99, 0, -100, 42];
        let input = dev.upload(&data);
        let r = sort_topk(&dev, &input, 3).unwrap();
        assert_eq!(r.items, vec![99, 42, 10]);
    }

    #[test]
    fn time_is_independent_of_k() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 14, 2);
        let input = dev.upload(&data);
        let t8 = sort_topk(&dev, &input, 8).unwrap().time;
        let t512 = sort_topk(&dev, &input, 512).unwrap().time;
        assert!((t8.seconds() - t512.seconds()).abs() < 1e-12);
    }

    #[test]
    fn time_is_independent_of_distribution() {
        let dev = Device::titan_x();
        let a: Vec<f32> = Uniform.generate(1 << 14, 2);
        let b: Vec<f32> = Increasing.generate(1 << 14, 2);
        let ta = sort_topk(&dev, &dev.upload(&a), 8).unwrap().time;
        let tb = sort_topk(&dev, &dev.upload(&b), 8).unwrap().time;
        assert!((ta.seconds() - tb.seconds()).abs() < 1e-12);
    }

    #[test]
    fn carries_payloads_stably() {
        let dev = Device::titan_x();
        let data: Vec<Kv<u32>> = (0..1024u32).map(|i| Kv::new(i % 17, i)).collect();
        let input = dev.upload(&data);
        let r = sort_topk(&dev, &input, 5).unwrap();
        for item in &r.items {
            assert_eq!(item.key, 16);
        }
        // LSD is stable: equal keys keep input order
        let values: Vec<u32> = r.items.iter().map(|i| i.value).collect();
        assert_eq!(values, vec![16, 33, 50, 67, 84]);
    }

    #[test]
    fn sort_is_the_slowest_reasonable_baseline() {
        // traffic should be ≈ digits × (2 reads + 2 writes-equivalent) × n×4B
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 14, 9);
        let input = dev.upload(&data);
        let r = sort_topk(&dev, &input, 8).unwrap();
        let d = (1u64 << 14) * 4;
        let expect = 4 * (d + d + 2 * d);
        assert_eq!(r.global_bytes(), expect);
    }
}
