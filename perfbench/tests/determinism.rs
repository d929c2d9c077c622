//! Determinism self-test of the benchmark, at the sizes it runs: each
//! pass is the operation count of a [`SECONDS`]-second run.
//!
//! * One seed run twice gives bit-identical modeled (`sim_*`) metrics
//!   and per-layer counts, and every answer matches its host reference.
//! * A second seed gives the same class shares within [`TOLERANCE`]:
//!   cache hit/refresh/miss shares, per-algorithm shares, delta-merge
//!   versus rescan refreshes.
//! * The serving mixes put a quarter to two fifths of the reads on the
//!   result cache with a modeled read p50 above 0, and the sharded one
//!   fails over and rebuilds after its device loss.

use perfbench::report::Metrics;
use perfbench::{pass, Pass, Workload, PER_LAYER};

/// Run length of every pass: three append windows on the serving
/// workloads, so an append follows the sharded device loss.
const SECONDS: f64 = 3.0;

/// Largest allowed difference between two seeds' class shares.
const TOLERANCE: f64 = 0.05;

/// The class shares a second seed must keep.
const SHARES: [&str; 8] = [
    "topk.bitonic.share",
    "topk.radix-select.share",
    "topk.delegate-select.share",
    "qdb.server.cache_hit_frac",
    "qdb.server.cache_refresh_frac",
    "qdb.server.cache_miss_frac",
    "qdb.stream.delta_merge_frac",
    "qdb.stream.rescan_frac",
];

fn get(m: &Metrics, name: &str) -> f64 {
    m.get(name).unwrap_or(0.0)
}

/// Runs `w` with one seed twice and a second seed once, checks what
/// must hold on every workload, and returns the first pass.
fn self_test(w: Workload) -> Pass {
    let name = w.name();
    let a = pass(w, 7, SECONDS, false);
    let b = pass(w, 7, SECONDS, false);
    let c = pass(w, 8, SECONDS, false);
    for p in [&a, &b, &c] {
        assert_eq!(p.failed, 0, "{name}: {:?}", p.errors);
        assert!(p.reads > 0, "{name}: no reads");
    }
    for m in &a.layers.0 {
        assert!(
            PER_LAYER
                .iter()
                .any(|&(n, unit)| n == m.name && unit == m.unit),
            "{name}: {} is not in PER_LAYER",
            m.name
        );
    }
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "{name}: sim metrics or counts moved"
    );
    assert_eq!(
        a.end_to_end().get("sim_read_p50_ms"),
        b.end_to_end().get("sim_read_p50_ms"),
        "{name}"
    );
    for s in SHARES {
        let (x, y) = (get(&a.layers, s), get(&c.layers, s));
        assert!((x - y).abs() <= TOLERANCE, "{name} {s}: {x} vs {y}");
    }
    a
}

/// The serving mixes keep a minority of cache hits, read the device at
/// the p50, and maintain their views by delta merges.
fn check_serving_mix(w: Workload, p: &Pass) {
    let name = w.name();
    let hit = get(&p.layers, "qdb.server.cache_hit_frac");
    assert!(
        (0.25..=0.40).contains(&hit),
        "{name}: cache-hit share {hit}"
    );
    assert!(
        p.end_to_end().get("sim_read_p50_ms").unwrap_or(0.0) > 0.0,
        "{name}"
    );
    assert!(
        get(&p.layers, "qdb.stream.delta_merge_frac") > 0.0,
        "{name}"
    );
}

#[test]
fn topk_planned_repeats_bit_for_bit() {
    self_test(Workload::TopkPlanned);
}

#[test]
fn sql_dashboard_repeats_bit_for_bit() {
    let p = self_test(Workload::SqlDashboard);
    check_serving_mix(Workload::SqlDashboard, &p);
}

#[test]
fn sharded_failover_repeats_and_survives_the_loss() {
    let p = self_test(Workload::ShardedFailover);
    check_serving_mix(Workload::ShardedFailover, &p);
    assert!(get(&p.layers, "qdb.shard.failovers") >= 1.0);
    assert!(get(&p.layers, "qdb.shard.rebuilds") >= 1.0);
    assert!(get(&p.layers, "qdb.shard.skipped_replicas") >= 1.0);
}
