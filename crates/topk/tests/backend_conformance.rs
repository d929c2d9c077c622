//! Engine conformance: [`TopKRequest::run`] (the simulated GPU) and
//! [`TopKRequest::run_cpu`] (real CPU threads) must agree on *what* the
//! top-k is for every algorithm, size, `k`, and input distribution,
//! including the adversarial ones. Agreement is by key signature (the
//! keys in returned order): engines may break ties between equal keys
//! differently when items carry no id, but the keys they return must be
//! identical and correctly ordered.
//!
//! The suite also pins down the failure contract: both engines validate
//! `k` and empty input with the same typed [`TopKError`] values, and a
//! simulator-only feature (a simt stream) is a typed error on the CPU,
//! not a panic.

use datagen::{BucketKiller, Decreasing, Distribution, Increasing, Kv, Uniform};
use simt::Device;
use topk::{TopKAlgorithm, TopKError, TopKRequest};

/// The key signature of a result: the keys in returned order.
fn keys(items: &[f32]) -> Vec<u32> {
    items.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn all_algorithms_agree_across_backends_and_distributions() {
    let dev = Device::titan_x();
    let dists: [(&str, &dyn Distribution<f32>); 4] = [
        ("uniform", &Uniform),
        ("increasing", &Increasing),
        ("decreasing", &Decreasing),
        ("bucket-killer", &BucketKiller),
    ];
    for alg in TopKAlgorithm::all() {
        for &(n, k) in &[(1usize << 12, 16usize), (1 << 14, 64), (3000, 8)] {
            for (dname, dist) in &dists {
                let data: Vec<f32> = dist.generate(n, 0xC0FFEE);
                let req = TopKRequest::largest(k).with_alg(alg);
                let ctx = format!("{} n={n} k={k} {dname}", alg.name());

                let a = req
                    .run(&dev, &dev.upload(&data))
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let b = req
                    .run_cpu(&data, 4)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));

                assert_eq!(a.items.len(), k.min(n), "{ctx}");
                assert_eq!(keys(&a.items), keys(&b), "{ctx}");
            }
        }
    }
}

#[test]
fn smallest_k_agrees_across_backends() {
    let dev = Device::titan_x();
    for alg in TopKAlgorithm::all() {
        let data: Vec<f32> = Uniform.generate(1 << 13, 99);
        let req = TopKRequest::smallest(32).with_alg(alg);
        let a = req.run(&dev, &dev.upload(&data)).unwrap();
        let b = req.run_cpu(&data, 2).unwrap();
        assert_eq!(keys(&a.items), keys(&b), "{}", alg.name());
    }
}

#[test]
fn tie_breaks_agree_when_items_carry_ids() {
    // duplicate-heavy keys: winners must match exactly (smaller row id
    // wins on key ties), not just by key signature
    let dev = Device::titan_x();
    let data: Vec<Kv<u32>> = (0..20_000u32).map(|i| Kv::new(i % 37, i)).collect();
    let input = dev.upload(&data);
    let sig = |v: &[Kv<u32>]| v.iter().map(|kv| (kv.key, kv.value)).collect::<Vec<_>>();
    for alg in TopKAlgorithm::all() {
        let req = TopKRequest::largest(100).with_alg(alg);
        let a = req.run(&dev, &input).unwrap();
        let b = req.run_cpu(&data, 8).unwrap();
        assert_eq!(sig(&a.items), sig(&b), "{}", alg.name());

        // smallest-k: the CPU engine and the device's bitonic and
        // delegate kernels order ties by the whole `Rev<Kv>` item, so
        // the larger id wins; the device's sort, per-thread, radix- and
        // bucket-select kernels keep input order among equal keys, so
        // there the engines agree on the key signature only
        let req = TopKRequest::smallest(100).with_alg(alg);
        let a = req.run(&dev, &input).unwrap();
        let b = req.run_cpu(&data, 8).unwrap();
        assert!(b.windows(2).all(|w| w[0].value > w[1].value));
        match alg {
            TopKAlgorithm::Bitonic(_) | TopKAlgorithm::DelegateSelect(_) => {
                assert_eq!(sig(&a.items), sig(&b), "{} smallest", alg.name());
            }
            _ => {
                let key_sig = |v: &[Kv<u32>]| v.iter().map(|kv| kv.key).collect::<Vec<_>>();
                assert_eq!(key_sig(&a.items), key_sig(&b), "{} smallest", alg.name());
                assert!(a.items.windows(2).all(|w| w[0].value < w[1].value));
            }
        }
    }
}

#[test]
fn typed_errors_not_panics() {
    let dev = Device::titan_x();
    let data: Vec<f32> = Uniform.generate(1024, 1);
    let input = dev.upload(&data);

    // simt streams are a simulator feature; the cpu engine says so
    let streamed = TopKRequest::largest(8).on_stream(dev.create_stream().id());
    assert!(streamed.run(&dev, &input).is_ok());
    let err = streamed.run_cpu(&data, 2).unwrap_err();
    assert_eq!(
        err,
        TopKError::UnsupportedOnBackend {
            backend: "cpu",
            feature: "simt streams",
        }
    );
    assert!(err.to_string().contains("cpu"));

    // shared validation fires on both
    let zero = TopKRequest::largest(0);
    assert_eq!(zero.run(&dev, &input).unwrap_err(), TopKError::ZeroK);
    assert_eq!(zero.run_cpu(&data, 2).unwrap_err(), TopKError::ZeroK);
    let empty: [f32; 0] = [];
    let req = TopKRequest::largest(8);
    assert_eq!(
        req.run(&dev, &dev.upload(&empty)).unwrap_err(),
        TopKError::EmptyInput
    );
    assert_eq!(req.run_cpu(&empty, 2).unwrap_err(), TopKError::EmptyInput);
}

#[test]
fn cpu_thread_counts_are_consistent() {
    // any thread count returns the same selection
    let data: Vec<f32> = Uniform.generate(1 << 15, 123);
    let req = TopKRequest::largest(64).with_alg(TopKAlgorithm::RadixSelect);
    let base = req.run_cpu(&data, 1).unwrap();
    for t in [2usize, 3, 8, 16] {
        let got = req.run_cpu(&data, t).unwrap();
        assert_eq!(keys(&base), keys(&got), "threads={t}");
    }
}
