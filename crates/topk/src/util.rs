//! Shared plumbing for the algorithm modules: launch-log capture,
//! argument validation, the selection passes' clustering write, and
//! result finishing.

use std::cmp::Ordering;

use crate::{TopKError, TopKResult};
use datagen::TopKItem;
use simt::{Device, GpuBuffer};

/// Captures the slice of the device launch log produced by one algorithm
/// invocation, so its reports (and total time) can be attributed.
pub(crate) struct LogCapture {
    start: usize,
}

impl LogCapture {
    pub fn begin(dev: &Device) -> Self {
        Self {
            start: dev.log_len(),
        }
    }

    pub fn finish<T>(self, dev: &Device, items: Vec<T>) -> TopKResult<T> {
        let reports = dev.log_since(self.start);
        let time = reports.iter().map(|r| r.time).sum();
        TopKResult {
            items,
            time,
            reports,
        }
    }
}

/// Common argument validation. Returns the effective `k` (clamped to `n`).
pub(crate) fn validate<T: TopKItem>(input: &GpuBuffer<T>, k: usize) -> Result<usize, TopKError> {
    if k == 0 {
        return Err(TopKError::ZeroK);
    }
    if input.is_empty() {
        return Err(TopKError::EmptyInput);
    }
    Ok(k.min(input.len()))
}

/// The clustering write of the selection passes, from a borrow of the
/// candidates: every item `side` ranks above the picked bucket
/// (`Greater`) is written into `result` from `fill` on, every item in
/// the bucket (`Equal`) into `next` from 0, both in candidate order;
/// the rest are dropped. Each output is written in place once. Returns
/// `(winners, kept)`.
pub(crate) fn cluster<T: TopKItem>(
    cand: &[T],
    result: &GpuBuffer<T>,
    fill: usize,
    next: &GpuBuffer<T>,
    side: impl Fn(&T) -> Ordering,
) -> (usize, usize) {
    result.write_with(|res| {
        next.write_with(|next| {
            let (mut w, mut m) = (fill, 0);
            for item in cand {
                match side(item) {
                    Ordering::Greater => {
                        res[w] = *item;
                        w += 1;
                    }
                    Ordering::Equal => {
                        next[m] = *item;
                        m += 1;
                    }
                    Ordering::Less => {}
                }
            }
            (w - fill, m)
        })
    })
}

/// Sorts a small result set descending by key (host-side tie-stable
/// finishing step shared by the selection algorithms).
pub(crate) fn sort_desc<T: TopKItem>(items: &mut [T]) {
    items.sort_by_key(|x| std::cmp::Reverse(x.key_bits()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_clamps_k() {
        let dev = Device::titan_x();
        let buf = dev.upload(&[1.0f32, 2.0, 3.0]);
        assert_eq!(validate(&buf, 10).unwrap(), 3);
        assert_eq!(validate(&buf, 2).unwrap(), 2);
        assert_eq!(validate(&buf, 0).unwrap_err(), TopKError::ZeroK);
    }

    #[test]
    fn sort_desc_orders_by_key_bits() {
        let mut v = vec![1.0f32, -3.0, 2.0, 0.0];
        sort_desc(&mut v);
        assert_eq!(v, vec![2.0, 1.0, 0.0, -3.0]);
    }

    #[test]
    fn log_capture_attributes_only_new_launches() {
        let dev = Device::titan_x();
        struct Nop;
        impl simt::Kernel for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn block_dim(&self) -> usize {
                32
            }
            fn grid_dim(&self) -> usize {
                1
            }
            fn run_block(&self, _b: &mut simt::BlockCtx) {}
        }
        dev.launch(&Nop).unwrap(); // preexisting launch
        let cap = LogCapture::begin(&dev);
        dev.launch(&Nop).unwrap();
        dev.launch(&Nop).unwrap();
        let r = cap.finish(&dev, vec![0u32]);
        assert_eq!(r.reports.len(), 2);
        assert!(r.time.seconds() > 0.0);
    }
}
