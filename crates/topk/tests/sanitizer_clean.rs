//! Sanitizer-clean sweep: every `TopKAlgorithm` variant, across sizes,
//! `k` values, and input distributions, must run with **zero sanitizer
//! findings** — no races, no OOB accesses, no uninitialized shared
//! reads, and no un-waived perf lints. Batched and streamed launches are
//! covered by a dedicated case since they exercise different kernels.

use datagen::{BucketKiller, Distribution, Increasing, Uniform};
use simt::Device;
use topk::batched::batched_bitonic_topk;
use topk::{TopKAlgorithm, TopKRequest};

fn assert_clean(dev: &Device, context: &str) {
    let reports = dev.take_analysis();
    assert!(!reports.is_empty(), "{context}: no launches were sanitized");
    for rep in &reports {
        assert!(
            rep.is_clean(),
            "{context}: sanitizer findings\n{}",
            rep.render()
        );
    }
}

fn sweep_case(alg: TopKAlgorithm, n: usize, k: usize, data: &[f32], context: &str) {
    let dev = Device::titan_x();
    dev.enable_sanitizer();
    let input = dev.upload(data);
    let r = TopKRequest::largest(k)
        .with_alg(alg)
        .run(&dev, &input)
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(r.items.len(), k.min(n), "{context}");
    assert_clean(&dev, context);
}

#[test]
fn sanitizer_clean_all_algorithms_uniform() {
    for alg in TopKAlgorithm::all() {
        for &(n, k) in &[(1usize << 12, 16usize), (1 << 14, 64), (3000, 8)] {
            let data: Vec<f32> = Uniform.generate(n, 42);
            sweep_case(
                alg,
                n,
                k,
                &data,
                &format!("{} n={n} k={k} uniform", alg.name()),
            );
        }
    }
}

#[test]
fn sanitizer_clean_all_algorithms_adversarial_distributions() {
    // sorted input is per-thread top-k's worst case; the bucket-killer
    // skew is the selection methods' — both must stay finding-free, not
    // just correct
    for alg in TopKAlgorithm::all() {
        let cases: Vec<(&str, Vec<f32>)> = vec![
            ("sorted", Increasing.generate(1 << 13, 7)),
            ("bucket-killer", BucketKiller.generate(1 << 13, 7)),
        ];
        for (dist, data) in cases {
            sweep_case(
                alg,
                1 << 13,
                32,
                &data,
                &format!("{} n=8192 k=32 {dist}", alg.name()),
            );
        }
    }
}

#[test]
fn sanitizer_clean_smallest_k() {
    for alg in TopKAlgorithm::all() {
        let data: Vec<f32> = Uniform.generate(1 << 12, 13);
        let dev = Device::titan_x();
        dev.enable_sanitizer();
        let input = dev.upload(&data);
        let r = TopKRequest::smallest(16)
            .with_alg(alg)
            .run(&dev, &input)
            .unwrap();
        assert_eq!(r.items.len(), 16);
        assert_clean(&dev, &format!("{} smallest-k", alg.name()));
    }
}

#[test]
fn sanitizer_clean_batched_rows() {
    let dev = Device::titan_x();
    dev.enable_sanitizer();
    let (rows, cols) = (24usize, 700usize);
    let flat: Vec<f32> = Uniform.generate(rows * cols, 21);
    let input = dev.upload(&flat);
    let out = batched_bitonic_topk(&dev, &input, rows, cols, 8).unwrap();
    assert_eq!(out.rows.len(), rows);
    assert_clean(&dev, "batched_bitonic_topk 24 rows k=8");
}

#[test]
fn sanitizer_clean_streamed_launches() {
    let dev = Device::titan_x();
    dev.enable_sanitizer();
    let st_a = dev.create_stream();
    let st_b = dev.create_stream();
    let data: Vec<f32> = Uniform.generate(1 << 12, 3);
    let input = dev.upload(&data);
    let ra = TopKRequest::largest(16)
        .on_stream(st_a.id())
        .run(&dev, &input)
        .unwrap();
    let rb = TopKRequest::smallest(16)
        .on_stream(st_b.id())
        .run(&dev, &input)
        .unwrap();
    assert_eq!(ra.items.len(), 16);
    assert_eq!(rb.items.len(), 16);
    // every streamed launch produced a report, and all are clean
    assert!(!st_a.analysis_reports().is_empty());
    assert!(!st_b.analysis_reports().is_empty());
    assert_clean(&dev, "streamed largest/smallest");
}
