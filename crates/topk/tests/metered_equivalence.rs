//! The metered launch path against the lane path. A plain device charges
//! the bitonic reducers from their contract and runs their network on
//! host slices; a device with lint capture attached replays every lane.
//! Both must agree on every launch's counters and the bits of its
//! modeled time, on the returned items and on the buffers the caller
//! hands in — for any n, k, ladder level, element type, order and bank
//! count, through `TopKRequest` and `bitonic_topk_from_runs`. The element
//! types span every rank width the host network runs on (`u32`, `u64`,
//! `u128`) and the order-reversing `Rev`, and the keys mix in duplicates,
//! NaNs of both signs and ±0.

use datagen::{Distribution, Kkkv, Kkv, Kv, RadixBits, Rev, TopKItem, Uniform};
use proptest::prelude::*;
use simt::{Device, DeviceSpec, GpuBuffer, KernelStats, LaunchReport};
use topk::bitonic::{bitonic_topk_from_runs, BitonicConfig, OptLevel};
use topk::{TopKAlgorithm, TopKError, TopKRequest, TopKResult};

/// What one run charged and wrote: per launch its name, counters and
/// time bits; the items; the caller's buffer afterwards.
type Outcome = (
    Vec<(&'static str, KernelStats, u64)>,
    Vec<String>,
    Vec<String>,
);

/// Items compared bit for bit: sort bits of the key (which tell ±0 and
/// NaNs apart) and the whole item.
fn exact<T: TopKItem>(items: &[T]) -> Vec<String> {
    items
        .iter()
        .map(|x| format!("{:x}/{x:?}", x.key_bits().as_u64()))
        .collect()
}

fn charges(reports: &[LaunchReport]) -> Vec<(&'static str, KernelStats, u64)> {
    reports
        .iter()
        .map(|r| (r.name, r.stats, r.time.0.to_bits()))
        .collect()
}

/// Runs `f` over `data` on a metered device and on a lint-capture
/// device with `banks` shared banks, and asserts both outcomes agree.
fn assert_paths_agree<T: TopKItem>(
    data: &[T],
    banks: usize,
    context: &str,
    f: impl Fn(&Device, &GpuBuffer<T>) -> Result<TopKResult<T>, TopKError>,
) {
    let run = |lint: bool| -> (Outcome, u64) {
        let dev = Device::new(DeviceSpec {
            shared_banks: banks,
            ..DeviceSpec::titan_x_maxwell()
        });
        if lint {
            dev.enable_lint();
        }
        let input = dev.upload(data);
        let r = f(&dev, &input).unwrap_or_else(|e| panic!("{context}: {e}"));
        let outcome = (charges(&r.reports), exact(&r.items), exact(&input.to_vec()));
        (outcome, dev.meter_stats().launches)
    };
    let (metered, metered_launches) = run(false);
    let (replayed, replayed_launches) = run(true);
    assert_eq!(replayed_launches, 0, "{context}: lint capture must replay");
    let reducers = metered
        .0
        .iter()
        .filter(|(_, s, _)| s.global_accesses > 0)
        .count();
    assert_eq!(
        metered_launches, reducers as u64,
        "{context}: every reducer launch is metered"
    );
    assert_eq!(metered, replayed, "{context}");
}

/// Keys of each element type the reducers stage, made from uniform f32
/// keys of which one in four is replaced: by a positive or negative NaN
/// (each with a payload), by +0 or -0, or by a key rounded to a
/// duplicate.
fn keys<T: TopKItem>(n: usize, seed: u64, make: impl Fn(f32, u32) -> T) -> Vec<T> {
    let raw: Vec<f32> = Uniform.generate(n, seed);
    raw.iter()
        .enumerate()
        .map(|(i, &k)| {
            let k = match (i as u64).wrapping_add(seed) % 24 {
                0 => f32::from_bits(0x7fc0_0001),
                1 => f32::from_bits(0xffc0_0002),
                2 => 0.0,
                3 => -0.0,
                4 | 5 => (k * 4.0).floor(),
                _ => k,
            };
            make(k, i as u32)
        })
        .collect()
}

fn request_case<T: TopKItem>(data: &[T], k: usize, smallest: bool, opt: OptLevel, banks: usize) {
    let req = if smallest {
        TopKRequest::smallest(k)
    } else {
        TopKRequest::largest(k)
    }
    .with_alg(TopKAlgorithm::Bitonic(BitonicConfig::at_level(opt)));
    let context = format!(
        "{} n={} k={k} smallest={smallest} {opt:?} banks={banks}",
        std::any::type_name::<T>(),
        data.len()
    );
    assert_paths_agree(data, banks, &context, |dev, input| req.run(dev, input));
}

/// `data` rearranged into `valid / k_eff` sorted runs of `k_eff`
/// (alternately ascending and descending, so every run is bitonic),
/// followed by the untouched tail.
fn into_runs<T: TopKItem>(mut data: Vec<T>, k_eff: usize, valid: usize) -> Vec<T> {
    for (r, run) in data[..valid].chunks_mut(k_eff).enumerate() {
        run.sort_by_key(|x| x.key_bits());
        if r % 2 == 1 {
            run.reverse();
        }
    }
    data
}

fn runs_case<T: TopKItem>(data: Vec<T>, k: usize, runs: usize, opt: OptLevel, banks: usize) {
    let k_eff = k.next_power_of_two();
    let valid = (runs * k_eff).min(data.len() / k_eff * k_eff);
    if valid == 0 {
        return;
    }
    let data = into_runs(data, k_eff, valid);
    let cfg = BitonicConfig::at_level(opt);
    let context = format!(
        "from_runs {} len={} valid={valid} k={k} {opt:?} banks={banks}",
        std::any::type_name::<T>(),
        data.len()
    );
    assert_paths_agree(&data, banks, &context, |dev, input| {
        bitonic_topk_from_runs(dev, input, valid, k, cfg)
    });
}

const BANKS: [usize; 3] = [32, 48, 128];

/// Inputs just past a power of two pad to nearly twice their length, so
/// whole blocks of min sentinels reach the sort reducer; at 256-element
/// segments they reach the later bitonic reducers too. The metered path
/// skips those blocks' network and must still match the lane replay.
#[test]
fn inputs_just_past_a_power_of_two_agree() {
    let small_seg = BitonicConfig {
        elems_per_thread: Some(8),
        block_dim: Some(32),
        ..BitonicConfig::default()
    };
    for n in [(1 << 12) + 1, (1 << 13) + 1] {
        for k in [1, 4, 64] {
            for smallest in [false, true] {
                let kv = keys(n, n as u64 + k as u64, |k, i| {
                    Kv::new((k * 64.0).floor(), i)
                });
                let f32s = keys(n, n as u64 ^ k as u64, |k, _| k);
                for cfg in [BitonicConfig::default(), small_seg] {
                    let req = if smallest {
                        TopKRequest::smallest(k)
                    } else {
                        TopKRequest::largest(k)
                    }
                    .with_alg(TopKAlgorithm::Bitonic(cfg));
                    let context = format!("n={n} k={k} smallest={smallest} {cfg:?}");
                    assert_paths_agree(&kv, 32, &context, |dev, input| req.run(dev, input));
                    assert_paths_agree(&f32s, 32, &context, |dev, input| req.run(dev, input));
                }
            }
        }
    }
}

/// The LocalSort-led launches the proptest reaches only by chance, which
/// the metered path reduces through `local_sort_reduce` (by selection
/// from k = 16, so k = 1 and 4 take the network): the SharedMem level's
/// local-sort kernel (a local sort and no merge, over several blocks, the
/// last of them pure padding at n = 4097) and the monolithic reducer
/// (local sort, then merge and rebuild down to one sorted run, from zero
/// merges at n = k up), across k, in every rank width (`f32`: `u32`,
/// `Kv<f32>`: `u64`, `Kv<f64>`: `u128`).
#[test]
fn local_sort_led_shapes_agree() {
    let shared_mem = BitonicConfig::at_level(OptLevel::SharedMem);
    for k in [1usize, 4, 32, 256, 1024] {
        let mut cases = vec![(3000, shared_mem), (4097, shared_mem)];
        for n in [k, k + k / 2 + 1, 4096] {
            cases.push((n, BitonicConfig::default()));
            cases.push((n, BitonicConfig::at_level(OptLevel::FusedKernels)));
        }
        for (n, cfg) in cases {
            let seed = (n * k) as u64;
            let req = TopKRequest::largest(k).with_alg(TopKAlgorithm::Bitonic(cfg));
            let context = format!("n={n} k={k} {:?}", cfg.opt);
            let f32s = keys(n, seed, |k, _| k);
            let kv = keys(n, seed, |k, i| Kv::new((k * 64.0).floor(), i));
            let kv64 = keys(n, seed, |k, i| Kv::new(k as f64, i));
            assert_paths_agree(&f32s, 32, &context, |dev, input| req.run(dev, input));
            assert_paths_agree(&kv, 32, &context, |dev, input| req.run(dev, input));
            assert_paths_agree(&kv64, 32, &context, |dev, input| req.run(dev, input));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metered_and_replayed_requests_agree(
        n in 1usize..12_000,
        k in 1usize..700,
        level in 0usize..7,
        elem in 0usize..8,
        smallest in any::<bool>(),
        banks in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (opt, banks) = (OptLevel::ladder()[level], BANKS[banks]);
        match elem {
            0 => request_case(&keys(n, seed, |k, _| k), k, smallest, opt, banks),
            1 => request_case(&keys(n, seed, |k, _| k.to_bits() >> 7), k, smallest, opt, banks),
            2 => request_case(&keys(n, seed, |k, i| k as f64 + i as f64 * 1e-9), k, smallest, opt, banks),
            3 => request_case(&keys(n, seed, |k, i| Kv::new((k * 64.0).floor(), i)), k, smallest, opt, banks),
            4 => request_case(&keys(n, seed, |k, i| Kv::new(k as f64, i)), k, smallest, opt, banks),
            5 => request_case(&keys(n, seed, |k, i| Kkv::new((k * 8.0).floor(), k, i)), k, smallest, opt, banks),
            6 => request_case(&keys(n, seed, |k, i| Kkkv::new((k * 4.0).floor(), (i % 3) as f32, k, i)), k, smallest, opt, banks),
            _ => request_case(&keys(n, seed, |k, i| Rev(Kv::new((k * 64.0).floor(), i))), k, smallest, opt, banks),
        }
    }

    #[test]
    fn metered_and_replayed_run_reductions_agree(
        len in 1usize..9_000,
        k in 1usize..300,
        runs in 1usize..64,
        level in 0usize..7,
        elem in 0usize..8,
        banks in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (opt, banks) = (OptLevel::ladder()[level], BANKS[banks]);
        match elem {
            0 => runs_case(keys(len, seed, |k, _| k), k, runs, opt, banks),
            1 => runs_case(keys(len, seed, |k, _| k.to_bits() >> 7), k, runs, opt, banks),
            2 => runs_case(keys(len, seed, |k, i| k as f64 - i as f64), k, runs, opt, banks),
            3 => runs_case(keys(len, seed, |k, i| Kv::new((k * 16.0).floor(), i)), k, runs, opt, banks),
            4 => runs_case(keys(len, seed, |k, i| Kv::new(k as f64, i)), k, runs, opt, banks),
            5 => runs_case(keys(len, seed, |k, i| Kkv::new((k * 8.0).floor(), k, i)), k, runs, opt, banks),
            6 => runs_case(keys(len, seed, |k, i| Kkkv::new((k * 4.0).floor(), (i % 3) as f32, k, i)), k, runs, opt, banks),
            _ => runs_case(keys(len, seed, |k, i| Rev(Kv::new((k * 16.0).floor(), i))), k, runs, opt, banks),
        }
    }
}
