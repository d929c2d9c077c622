//! Bucket select adapted to top-k (Sections 2.3 and 4.2).
//!
//! An explicit min/max pass bounds the key range; each subsequent pass
//! splits the live range into 16 equal-width buckets, counts candidates
//! per bucket with atomics (the reason bucket select trails radix select,
//! Section 6.2), locates the bucket holding the k-th largest, routes
//! strictly-higher buckets to the result, and recurses into the matched
//! bucket with a narrowed range.
//!
//! `k = 1` short-circuits after the min/max pass, which is why Bucket
//! Select is the fastest method at `k = 1` in Figure 11.

use crate::util::{cluster, sort_desc, validate, LogCapture};
use crate::{TopKError, TopKResult};
use datagen::TopKItem;
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel};

const NUM_BUCKETS: usize = 16;

/// Min/max pass: streams the input once, reduces to two values.
struct MinMaxKernel<T: TopKItem> {
    input: GpuBuffer<T>,
    n: usize,
    /// Outputs `[min_value, max_value]` in key-value space.
    out: GpuBuffer<f64>,
}

impl<T: TopKItem> Kernel for MinMaxKernel<T> {
    fn name(&self) -> &'static str {
        "bucket_select_minmax"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "minmax",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("input", &self.input),
                    elems: self.n,
                    write: false,
                },
                BulkAccess {
                    buf: BufferDecl::of("out", &self.out),
                    elems: 2,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        blk.bulk_global_read((self.n * T::SIZE_BYTES) as u64);
        blk.bulk_ops(2 * self.n as u64);
        let mut lo = f64::MAX;
        let mut hi = -f64::MAX;
        for item in &self.input.host_view()[..self.n] {
            let x = item.key_value();
            lo = lo.min(x);
            hi = hi.max(x);
        }
        self.out.set(0, lo);
        self.out.set(1, hi);
    }
}

/// Assigns a key *value* to one of 16 equal-width buckets of `[lo, hi]`.
///
/// Bucket select bins in value space (not bit space): equal-width value
/// buckets are what make uniform floats reduce ~16× per pass. Values that
/// drift marginally outside the range due to float rounding clamp to the
/// edge buckets.
fn bucket_of(v: f64, lo: f64, hi: f64) -> usize {
    if hi <= lo {
        return 0;
    }
    let rel = (v - lo) / (hi - lo) * NUM_BUCKETS as f64;
    (rel as isize).clamp(0, NUM_BUCKETS as isize - 1) as usize
}

/// The value sub-range bucket `b` covers.
fn bucket_range(b: usize, lo: f64, hi: f64) -> (f64, f64) {
    let w = (hi - lo) / NUM_BUCKETS as f64;
    (lo + w * b as f64, lo + w * (b + 1) as f64)
}

/// One bucketing pass: histogram with atomics, then write-out of the
/// matched bucket (and of certain winners to the result).
struct BucketPassKernel<T: TopKItem> {
    candidates: GpuBuffer<T>,
    n: usize,
    lo: f64,
    hi: f64,
    k_rem: usize,
    next: GpuBuffer<T>,
    result: GpuBuffer<T>,
    result_fill: usize,
    /// Outputs: (next_len, appended, new_lo, new_hi).
    out: GpuBuffer<f64>,
}

impl<T: TopKItem> Kernel for BucketPassKernel<T> {
    fn name(&self) -> &'static str {
        "bucket_select_pass"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "pass",
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
                    buf: BufferDecl::of("out", &self.out),
                    elems: 4,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let cand = self.candidates.host_view();
        let cand = &cand[..self.n];
        let mut hist = [0usize; NUM_BUCKETS];
        for item in cand {
            hist[bucket_of(item.key_value(), self.lo, self.hi)] += 1;
        }

        // pick the bucket with the k_rem-th largest from the top
        let mut acc = 0usize;
        let mut pick = 0usize;
        for b in (0..NUM_BUCKETS).rev() {
            acc += hist[b];
            if acc >= self.k_rem {
                pick = b;
                break;
            }
        }

        let (winners, next) = cluster(cand, &self.result, self.result_fill, &self.next, |item| {
            bucket_of(item.key_value(), self.lo, self.hi).cmp(&pick)
        });

        // histogram read + atomics; clustering read + write
        let bytes_in = (self.n * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(2 * bytes_in);
        blk.bulk_atomics(self.n as u64);
        let bytes_out = ((winners + next) * T::SIZE_BYTES) as u64;
        blk.bulk_global_write((bytes_out as f64 * crate::sort::SCATTER_WRITE_DEGREE) as u64);
        blk.bulk_ops(4 * self.n as u64);

        let (nlo, nhi) = bucket_range(pick, self.lo, self.hi);
        self.out.set(0, next as f64);
        self.out.set(1, winners as f64);
        self.out.set(2, nlo);
        self.out.set(3, nhi);
    }
}

/// Top-k via bucket select.
pub fn bucket_select_topk<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    k: usize,
) -> Result<TopKResult<T>, TopKError> {
    let k = validate(input, k)?;
    let cap = LogCapture::begin(dev);
    let n = input.len();

    let minmax = dev.alloc::<f64>(2);
    dev.launch(&MinMaxKernel {
        input: input.clone(),
        n,
        out: minmax.clone(),
    })?;
    let (mut lo, mut hi) = (minmax.get(0), minmax.get(1));

    // k = 1: the max is the answer, no bucketing needed (Section 6.2)
    if k == 1 {
        let best = *input
            .host_view()
            .iter()
            .max_by_key(|x| x.key_bits())
            .expect("validated non-empty");
        return Ok(cap.finish(dev, vec![best]));
    }

    let result = dev.alloc_filled::<T>(k, T::min_sentinel());
    let out = dev.alloc::<f64>(4);
    // candidates start at the caller's buffer (read-only), then ping-pong
    // between work buffers
    let works = [dev.alloc::<T>(n), dev.alloc::<T>(n)];
    let mut cand_buf = input.clone();
    let mut next_i = 0usize;
    let mut cur_n = n;
    let mut k_rem = k;
    let mut result_fill = 0usize;

    // each pass shrinks the candidate range 16×; 64-bit keys terminate in
    // ≤ 16 passes unless duplicates collapse the range first
    let max_passes = 20;
    for _ in 0..max_passes {
        if k_rem == 0 || cur_n == 0 || hi <= lo || cur_n <= k_rem {
            break;
        }
        dev.launch(&BucketPassKernel {
            candidates: cand_buf.clone(),
            n: cur_n,
            lo,
            hi,
            k_rem,
            next: works[next_i].clone(),
            result: result.clone(),
            result_fill,
            out: out.clone(),
        })?;
        let next_n = out.get(0) as usize;
        let wrote = out.get(1) as usize;
        let (nlo, nhi) = (out.get(2), out.get(3));
        if next_n == cur_n && wrote == 0 && (nhi - nlo) >= (hi - lo) {
            break; // range cannot narrow further (mass of duplicates)
        }
        cand_buf = works[next_i].clone();
        next_i = 1 - next_i;
        cur_n = next_n;
        k_rem -= wrote;
        result_fill += wrote;
        lo = nlo;
        hi = nhi;
    }

    let mut items = result.read_range(0..result_fill);
    if k_rem > 0 {
        let mut rest = cand_buf.read_range(0..cur_n);
        sort_desc(&mut rest);
        items.extend_from_slice(&rest[..k_rem.min(rest.len())]);
    }
    sort_desc(&mut items);
    items.truncate(k);
    Ok(cap.finish(dev, items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, BucketKiller, Distribution, Uniform};

    fn keybits<T: TopKItem>(v: &[T]) -> Vec<T::KeyBits> {
        v.iter().map(|x| x.key_bits()).collect()
    }

    #[test]
    fn bucket_of_boundaries() {
        assert_eq!(bucket_of(0.0, 0.0, 160.0), 0);
        assert_eq!(bucket_of(159.9, 0.0, 160.0), 15);
        assert_eq!(bucket_of(80.0, 0.0, 160.0), 8);
        assert_eq!(bucket_of(5.0, 5.0, 5.0), 0);
        // out-of-range values clamp to edge buckets
        assert_eq!(bucket_of(-1.0, 0.0, 160.0), 0);
        assert_eq!(bucket_of(1e9, 0.0, 160.0), 15);
    }

    #[test]
    fn bucket_range_partitions() {
        let (lo, hi) = (100.0f64, 1100.0f64);
        let mut expect_next = lo;
        for b in 0..NUM_BUCKETS {
            let (blo, bhi) = bucket_range(b, lo, hi);
            assert!(
                (blo - expect_next).abs() < 1e-9,
                "bucket {b} not contiguous"
            );
            assert!(bhi > blo);
            expect_next = bhi;
        }
        assert!((expect_next - hi).abs() < 1e-9);
    }

    #[test]
    fn bucket_of_consistent_with_range() {
        let (lo, hi) = (1000.0f64, 987_654.0f64);
        for b in 0..NUM_BUCKETS {
            let (blo, bhi) = bucket_range(b, lo, hi);
            let mid = (blo + bhi) / 2.0;
            assert_eq!(bucket_of(mid, lo, hi), b);
        }
    }

    #[test]
    fn uniform_floats_reduce_sixteen_fold() {
        // value-space binning: uniform (0,1) floats spread evenly
        let vals: Vec<f64> = (0..16000).map(|i| i as f64 / 16000.0).collect();
        let mut hist = [0usize; NUM_BUCKETS];
        for &v in &vals {
            hist[bucket_of(v, 0.0, 1.0)] += 1;
        }
        for (b, &c) in hist.iter().enumerate() {
            assert!((900..1100).contains(&c), "bucket {b} count {c}");
        }
    }

    #[test]
    fn matches_reference_uniform() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 13, 50);
        let input = dev.upload(&data);
        for k in [1usize, 2, 32, 300] {
            let r = bucket_select_topk(&dev, &input, k).unwrap();
            assert_eq!(
                keybits(&r.items),
                keybits(&reference_topk(&data, k)),
                "k={k}"
            );
        }
    }

    #[test]
    fn k1_is_just_minmax() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 12, 51);
        let input = dev.upload(&data);
        let r = bucket_select_topk(&dev, &input, 1).unwrap();
        assert_eq!(r.reports.len(), 1, "k=1 should only run the min/max pass");
        assert_eq!(r.items[0], reference_topk(&data, 1)[0]);
    }

    #[test]
    fn duplicates_terminate() {
        let dev = Device::titan_x();
        let mut data = vec![3.25f32; 1000];
        data[17] = 9.0;
        data[801] = -2.0;
        let input = dev.upload(&data);
        let r = bucket_select_topk(&dev, &input, 5).unwrap();
        assert_eq!(r.items, vec![9.0, 3.25, 3.25, 3.25, 3.25]);
    }

    #[test]
    fn negative_floats() {
        let dev = Device::titan_x();
        let data = vec![-1.0f32, -100.0, -3.5, -0.25, -77.0];
        let input = dev.upload(&data);
        let r = bucket_select_topk(&dev, &input, 2).unwrap();
        assert_eq!(r.items, vec![-0.25, -1.0]);
    }

    #[test]
    fn slower_than_radix_select_on_uniform() {
        // large enough that traffic dominates launch overhead; u32 keys as
        // in Figure 11b, where both reduce maximally per pass
        let dev = Device::titan_x();
        let data: Vec<u32> = Uniform.generate(1 << 22, 52);
        let input = dev.upload(&data);
        let tb = bucket_select_topk(&dev, &input, 32).unwrap().time;
        let tr = crate::radix_select::radix_select_topk(&dev, &input, 32)
            .unwrap()
            .time;
        assert!(
            tb.seconds() > tr.seconds(),
            "bucket={} should trail radix={} (atomics + extra pass)",
            tb,
            tr
        );
    }

    #[test]
    fn bucket_killer_hurts_but_terminates() {
        let dev = Device::titan_x();
        let n = 1 << 13;
        let bk: Vec<f32> = BucketKiller.generate(n, 53);
        let uni: Vec<f32> = Uniform.generate(n, 53);
        let r_bk = bucket_select_topk(&dev, &dev.upload(&bk), 32).unwrap();
        let r_uni = bucket_select_topk(&dev, &dev.upload(&uni), 32).unwrap();
        assert_eq!(keybits(&r_bk.items), keybits(&reference_topk(&bk, 32)));
        assert!(r_bk.time.seconds() > r_uni.time.seconds());
    }
}
