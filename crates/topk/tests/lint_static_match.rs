//! Static-vs-dynamic cross-check: with lint capture enabled, every
//! launch of every shipped algorithm must carry a static prediction
//! that **bit-matches** the replay's measured counters — tracked
//! kernels (the bitonic reducer family) on all eleven counters,
//! streaming kernels on the derived `sectors_per_access` /
//! conflict-degree metrics. This is the contract that keeps
//! `simt::lint` from silently drifting away from the simulator it
//! models, and the one that lets a plain device charge the reducers
//! from their contract instead of replaying them.

use datagen::{BucketKiller, Distribution, Increasing, Uniform};
use simt::{lint, Device, DeviceSpec};
use topk::bitonic::{bitonic_topk, BitonicConfig, OptLevel};
use topk::{TopKAlgorithm, TopKRequest};

/// Asserts every captured launch has a static prediction agreeing with
/// the measured stats, and every lint report is clean or waived. When
/// `require_clean` is false only hard errors are rejected — deliberately
/// unoptimized ladder levels carry genuine perf warnings (the bank
/// conflicts that the Padding level exists to fix).
fn assert_static_matches(dev: &Device, context: &str, require_clean: bool) {
    let launches = dev.launch_log();
    assert!(!launches.is_empty(), "{context}: no launches captured");
    for r in &launches {
        let pred = r
            .static_pred
            .as_ref()
            .unwrap_or_else(|| panic!("{context}: {} has no static prediction", r.name));
        // only per-lane tracked events produce `global_accesses`; bulk
        // traffic feeds bytes and sectors without it, so this cleanly
        // identifies the reducer family, whose contract is exact
        let tracked = r.stats.global_accesses > 0;
        if tracked {
            assert_eq!(
                pred, &r.stats,
                "{context}: {} static prediction differs from the replay",
                r.name
            );
        }
        assert!(
            lint::matches(pred, &r.stats),
            "{context}: {} derived metrics drifted (static {:.4}/{:.4} vs measured {:.4}/{:.4})",
            r.name,
            pred.sectors_per_access(),
            pred.avg_conflict_degree(),
            r.stats.sectors_per_access(),
            r.stats.avg_conflict_degree(),
        );
    }
    for rep in dev.take_analysis() {
        if require_clean {
            assert!(
                rep.is_clean(),
                "{context}: lint findings on {}\n{}",
                rep.kernel,
                rep.render()
            );
        } else {
            assert_eq!(
                rep.error_count(),
                0,
                "{context}: hard lint errors on {}\n{}",
                rep.kernel,
                rep.render()
            );
        }
    }
}

#[test]
fn static_matches_dynamic_across_bitonic_ladder() {
    // the Titan X, then 32-, 48- and 128-bank variants of it: bank counts
    // above 64 once exposed a replay panic no 32-bank run could reach
    let specs = [DeviceSpec::titan_x_maxwell()]
        .into_iter()
        .chain([32, 48, 128].map(|banks| DeviceSpec {
            shared_banks: banks,
            ..DeviceSpec::titan_x_maxwell()
        }));
    for spec in specs {
        for opt in OptLevel::ladder() {
            for &k in &[8usize, 32, 256] {
                let data: Vec<f32> = Uniform.generate(1 << 13, 11);
                let dev = Device::new(spec);
                dev.enable_lint();
                let input = dev.upload(&data);
                let cfg = BitonicConfig::at_level(opt);
                let context = format!("{opt:?} k={k} banks={}", spec.shared_banks);
                bitonic_topk(&dev, &input, k, cfg).unwrap_or_else(|e| panic!("{context}: {e}"));
                assert_static_matches(&dev, &context, false);
            }
        }
    }
}

#[test]
fn static_matches_dynamic_all_algorithms() {
    for alg in TopKAlgorithm::all() {
        for &(n, k) in &[(1usize << 12, 16usize), (3000, 8)] {
            let data: Vec<f32> = Uniform.generate(n, 42);
            let dev = Device::titan_x();
            dev.enable_lint();
            let input = dev.upload(&data);
            TopKRequest::largest(k)
                .with_alg(alg)
                .run(&dev, &input)
                .unwrap_or_else(|e| panic!("{} n={n} k={k}: {e}", alg.name()));
            assert_static_matches(&dev, &format!("{} n={n} k={k}", alg.name()), true);
        }
    }
}

#[test]
fn static_matches_dynamic_adversarial_distributions() {
    // data-dependent pipelines (radix select re-reads, per-thread sift
    // divergence) must still agree: the contract covers the launches
    // actually made, whatever the data decided
    let cases: Vec<(&str, Vec<f32>)> = vec![
        ("sorted", Increasing.generate(1 << 12, 7)),
        ("bucket-killer", BucketKiller.generate(1 << 12, 7)),
    ];
    for alg in TopKAlgorithm::all() {
        for (dist, data) in &cases {
            let dev = Device::titan_x();
            dev.enable_lint();
            let input = dev.upload(data);
            TopKRequest::largest(32)
                .with_alg(alg)
                .run(&dev, &input)
                .unwrap_or_else(|e| panic!("{} {dist}: {e}", alg.name()));
            assert_static_matches(&dev, &format!("{} {dist}", alg.name()), true);
        }
    }
}
