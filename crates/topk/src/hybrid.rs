//! Hybrid top-k strategies — the paper's stated future work
//! ("hybrid solutions could either involve multiple devices (CPUs and
//! GPUs) as well as hybrids of the presented algorithms", Section 8),
//! implemented here as extensions and evaluated by the bench harness's
//! `hybrid/*` cells (`harness --only figures`).
//!
//! Two hybrids:
//!
//! * [`select_then_bitonic`] — an algorithm hybrid for large `k`: one or
//!   two MSD radix-select passes cheaply shrink the candidate set (each
//!   pass is a streaming scan), then bitonic top-k finishes on the
//!   survivors where its shared-memory pipeline shines. For `k` beyond
//!   the bitonic/radix crossover this combines radix select's flat cost
//!   with bitonic's small-input speed.
//! * [`cpu_gpu_topk`] — a device hybrid: the input splits between the
//!   simulated GPU and real CPU threads in proportion to their measured
//!   scan bandwidths; each side computes a partial top-k and the winners
//!   merge on the host. Wall time is modeled as the max of the two sides
//!   (they run concurrently).

use crate::bitonic::{bitonic_topk, BitonicConfig};
use crate::util::{sort_desc, validate, LogCapture};
use crate::{TopKError, TopKResult};
use datagen::{RadixBits, TopKItem};
use simt::{AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel, SimTime};

/// Candidate-narrowing pass: histograms the top digit, keeps every item
/// that could still be in the top-k (digit ≥ cutoff bucket), writes the
/// survivors. One streaming read + a reduced write.
struct NarrowKernel<T: TopKItem> {
    input: GpuBuffer<T>,
    n: usize,
    k: usize,
    digit: u32,
    survivors: GpuBuffer<T>,
    out_count: GpuBuffer<u32>,
}

impl<T: TopKItem> Kernel for NarrowKernel<T> {
    fn name(&self) -> &'static str {
        "hybrid_narrow"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        Some(AccessSpec::bulk(
            "narrow",
            vec![
                BulkAccess {
                    buf: BufferDecl::of("input", &self.input),
                    elems: self.n,
                    write: false,
                },
                BulkAccess {
                    buf: BufferDecl::of("survivors", &self.survivors),
                    elems: self.n,
                    write: true,
                },
                BulkAccess {
                    buf: BufferDecl::of("out_count", &self.out_count),
                    elems: 1,
                    write: true,
                },
            ],
        ))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let v = self.input.to_vec();
        let mut hist = vec![0usize; 256];
        for item in &v[..self.n] {
            hist[item.key_bits().msd_digit(self.digit) as usize] += 1;
        }
        // lowest digit value whose suffix still holds k items
        let mut acc = 0usize;
        let mut cutoff = 0usize;
        for b in (0..256).rev() {
            acc += hist[b];
            if acc >= self.k {
                cutoff = b;
                break;
            }
        }
        let survivors: Vec<T> = v[..self.n]
            .iter()
            .filter(|x| (x.key_bits().msd_digit(self.digit) as usize) >= cutoff)
            .copied()
            .collect();

        let bytes_in = (self.n * T::SIZE_BYTES) as u64;
        blk.bulk_global_read(bytes_in);
        blk.bulk_global_write(
            (survivors.len() as f64 * T::SIZE_BYTES as f64 * crate::sort::SCATTER_WRITE_DEGREE)
                as u64,
        );
        blk.bulk_ops(3 * self.n as u64);

        self.out_count.set(0, survivors.len() as u32);
        let mut buf = self.survivors.to_vec();
        buf[..survivors.len()].copy_from_slice(&survivors);
        self.survivors.upload(&buf);
    }
}

/// Algorithm hybrid: narrow with radix passes, finish with bitonic.
///
/// Narrowing stops as soon as the candidate set is small enough that the
/// bitonic stage is cheap (≤ `n / 64` or two passes, whichever first);
/// if a pass fails to shrink the candidates (duplicate-heavy or
/// adversarial input) it falls back to pure radix select semantics by
/// keeping the survivors anyway — correctness never depends on the data.
pub fn select_then_bitonic<T: TopKItem>(
    dev: &Device,
    input: &GpuBuffer<T>,
    k: usize,
) -> Result<TopKResult<T>, TopKError> {
    let k = validate(input, k)?;
    let cap = LogCapture::begin(dev);
    let n = input.len();

    let mut cand = input.clone();
    let mut cur_n = n;
    let target = (n / 64).max(4 * k.next_power_of_two());
    let out_count = dev.alloc::<u32>(1);

    for digit in 0..2u32 {
        if cur_n <= target {
            break;
        }
        let survivors = dev.alloc::<T>(cur_n);
        dev.launch(&NarrowKernel {
            input: cand.clone(),
            n: cur_n,
            k,
            digit,
            survivors: survivors.clone(),
            out_count: out_count.clone(),
        })?;
        let m = out_count.get(0) as usize;
        if m == cur_n {
            break; // no reduction: stop narrowing, bitonic handles the rest
        }
        cand = survivors;
        cur_n = m;
    }

    // bitonic finish on the survivors
    let view = dev.upload(&cand.read_range(0..cur_n));
    let r = bitonic_topk(dev, &view, k, BitonicConfig::default())?;
    Ok(cap.finish(dev, r.items))
}

/// Result of the CPU+GPU device hybrid.
#[derive(Debug, Clone)]
pub struct CpuGpuResult<T> {
    /// The global top-k, descending.
    pub items: Vec<T>,
    /// Simulated GPU time for its share.
    pub gpu_time: SimTime,
    /// Measured CPU wall-clock for its share, seconds.
    pub cpu_seconds: f64,
    /// Fraction of the input routed to the GPU.
    pub gpu_fraction: f64,
    /// Modeled combined wall time: `max(gpu, cpu)` (the sides run
    /// concurrently) plus the tiny host merge.
    pub combined_seconds: f64,
}

/// Device hybrid: splits the input between the simulated GPU (bitonic
/// top-k) and real CPU threads (hand-rolled heap), in proportion to
/// `gpu_fraction` (pass the bandwidth ratio; ~0.9 for the paper's
/// hardware). Mixed-fidelity by design: GPU time is simulated, CPU time
/// is measured — the composition mirrors how such a system would overlap
/// the two devices.
pub fn cpu_gpu_topk<T: TopKItem>(
    dev: &Device,
    data: &[T],
    k: usize,
    gpu_fraction: f64,
    cpu_threads: usize,
) -> Result<CpuGpuResult<T>, TopKError> {
    use topk_cpu_shim::host_heap_topk;
    if k == 0 {
        return Err(TopKError::ZeroK);
    }
    if data.is_empty() {
        return Err(TopKError::EmptyInput);
    }
    let k = k.min(data.len());
    let split = ((data.len() as f64 * gpu_fraction.clamp(0.0, 1.0)) as usize)
        .clamp(k.min(data.len() - 1), data.len() - 1)
        .max(1);
    let (gpu_part, cpu_part) = data.split_at(split);

    let input = dev.upload(gpu_part);
    let gpu_res = bitonic_topk(dev, &input, k.min(gpu_part.len()), BitonicConfig::default())?;

    let t0 = std::time::Instant::now();
    let cpu_winners = if cpu_part.is_empty() {
        Vec::new()
    } else {
        host_heap_topk(cpu_part, k, cpu_threads)
    };
    let cpu_seconds = t0.elapsed().as_secs_f64();

    let mut all = gpu_res.items.clone();
    all.extend_from_slice(&cpu_winners);
    sort_desc(&mut all);
    all.truncate(k);

    Ok(CpuGpuResult {
        items: all,
        gpu_time: gpu_res.time,
        cpu_seconds,
        gpu_fraction: split as f64 / data.len() as f64,
        combined_seconds: gpu_res.time.seconds().max(cpu_seconds) + 1e-6,
    })
}

/// A minimal in-crate heap top-k so `topk` does not depend on `topk-cpu`
/// (which sits above it in the workspace).
mod topk_cpu_shim {
    use datagen::TopKItem;

    fn sift_down<T: TopKItem>(heap: &mut [T], mut i: usize) {
        let n = heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let mut c = l;
            if l + 1 < n && heap[l + 1].item_lt(&heap[l]) {
                c = l + 1;
            }
            if heap[c].item_lt(&heap[i]) {
                heap.swap(i, c);
                i = c;
            } else {
                break;
            }
        }
    }

    fn partition_topk<T: TopKItem>(data: &[T], k: usize) -> Vec<T> {
        let k = k.min(data.len());
        let mut heap: Vec<T> = data[..k].to_vec();
        for i in (0..k / 2).rev() {
            sift_down(&mut heap, i);
        }
        for &x in &data[k..] {
            if heap[0].item_lt(&x) {
                heap[0] = x;
                sift_down(&mut heap, 0);
            }
        }
        heap
    }

    /// Parallel partitioned heap top-k (keys only; descending).
    pub fn host_heap_topk<T: TopKItem>(data: &[T], k: usize, threads: usize) -> Vec<T> {
        let threads = threads.max(1);
        let chunk = data.len().div_ceil(threads);
        let mut winners: Vec<T> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(chunk)
                .map(|p| s.spawn(move || partition_topk(p, k)))
                .collect();
            for h in handles {
                winners.extend(h.join().expect("cpu partition"));
            }
        });
        winners.sort_unstable_by_key(|x| std::cmp::Reverse(x.key_bits()));
        winners.truncate(k);
        winners
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{reference_topk, BucketKiller, Distribution, Uniform};

    fn keybits<T: TopKItem>(v: &[T]) -> Vec<T::KeyBits> {
        v.iter().map(|x| x.key_bits()).collect()
    }

    #[test]
    fn hybrid_matches_reference_across_k() {
        let data: Vec<f32> = Uniform.generate(1 << 14, 300);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        for k in [1usize, 32, 512, 2048] {
            let r = select_then_bitonic(&dev, &input, k).unwrap();
            assert_eq!(
                keybits(&r.items),
                keybits(&reference_topk(&data, k)),
                "k={k}"
            );
        }
    }

    #[test]
    fn hybrid_survives_adversarial_input() {
        // bucket killer: narrowing passes barely reduce; correctness holds
        let data: Vec<f32> = BucketKiller.generate(1 << 13, 301);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        let r = select_then_bitonic(&dev, &input, 32).unwrap();
        assert_eq!(keybits(&r.items), keybits(&reference_topk(&data, 32)));
    }

    #[test]
    fn hybrid_beats_pure_bitonic_at_large_k() {
        let data: Vec<u32> = Uniform.generate(1 << 22, 302);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        let k = 2048;
        let hybrid = select_then_bitonic(&dev, &input, k).unwrap();
        let pure = bitonic_topk(&dev, &input, k, BitonicConfig::default()).unwrap();
        assert!(
            hybrid.time.seconds() < pure.time.seconds(),
            "hybrid {} should beat pure bitonic {} at k={k}",
            hybrid.time,
            pure.time
        );
        assert_eq!(keybits(&hybrid.items), keybits(&pure.items));
    }

    #[test]
    fn hybrid_close_to_bitonic_at_small_k() {
        // at small k the narrowing pass is pure overhead vs bitonic, but
        // the hybrid must stay within ~2× (one extra scan)
        let data: Vec<f32> = Uniform.generate(1 << 20, 303);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        let hybrid = select_then_bitonic(&dev, &input, 32).unwrap();
        let pure = bitonic_topk(&dev, &input, 32, BitonicConfig::default()).unwrap();
        assert!(hybrid.time.seconds() < 3.0 * pure.time.seconds());
    }

    #[test]
    fn cpu_gpu_hybrid_is_correct() {
        let data: Vec<f32> = Uniform.generate(200_000, 304);
        let dev = Device::titan_x();
        for frac in [0.0, 0.3, 0.9, 1.0] {
            let r = cpu_gpu_topk(&dev, &data, 25, frac, 4).unwrap();
            assert_eq!(
                keybits(&r.items),
                keybits(&reference_topk(&data, 25)),
                "frac={frac}"
            );
            assert!(r.combined_seconds > 0.0);
            assert!((0.0..=1.0).contains(&r.gpu_fraction));
        }
    }

    #[test]
    fn cpu_gpu_hybrid_edge_cases() {
        let dev = Device::titan_x();
        assert!(matches!(
            cpu_gpu_topk::<f32>(&dev, &[], 4, 0.5, 2),
            Err(TopKError::EmptyInput)
        ));
        assert!(matches!(
            cpu_gpu_topk(&dev, &[1.0f32], 0, 0.5, 2),
            Err(TopKError::ZeroK)
        ));
        let r = cpu_gpu_topk(&dev, &[3.0f32, 1.0, 2.0], 5, 0.5, 2).unwrap();
        assert_eq!(r.items, vec![3.0, 2.0, 1.0]);
    }
}
