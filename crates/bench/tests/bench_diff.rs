//! Gate-behavior tests for `bench::diff` — the contract the CI
//! `perf-gate` job relies on: exact gating of deterministic simulator
//! metrics, tolerance/floor gating of wall-clock metrics, coverage rules
//! (baseline-only cells fail, current-only cells warn), and the
//! machine-checked paper claims.

use std::collections::BTreeMap;

use bench::diff::{check_claims, diff_reports, DiffConfig, Severity};
use bench::report::{BenchReport, Experiment, Scale};

fn exp(id: &str, metrics: &[(&str, f64)]) -> Experiment {
    Experiment {
        id: id.to_string(),
        metrics: metrics
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect::<BTreeMap<_, _>>(),
    }
}

fn report(kind: &str, experiments: Vec<Experiment>) -> BenchReport {
    BenchReport {
        kind: kind.to_string(),
        commit: "test".to_string(),
        scale: Scale::new(16),
        experiments,
    }
}

/// Diff config without claim checks, so synthetic two-cell reports don't
/// trip the "claim cells missing" failures.
fn cfg() -> DiffConfig {
    DiffConfig {
        check_claims: false,
        ..DiffConfig::default()
    }
}

fn fails(outcome: &bench::diff::DiffOutcome) -> Vec<&str> {
    outcome
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Fail)
        .map(|f| f.message.as_str())
        .collect()
}

fn warns(outcome: &bench::diff::DiffOutcome) -> Vec<&str> {
    outcome
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Warn)
        .map(|f| f.message.as_str())
        .collect()
}

#[test]
fn identical_reports_pass_clean() {
    let r = report(
        "topk",
        vec![exp(
            "a/b",
            &[("sim_time_ms", 0.125), ("host_wall_ms", 100.0)],
        )],
    );
    let out = diff_reports(&r, &r.clone(), &cfg());
    assert!(!out.failed(), "{}", out.render());
    assert!(out.findings.is_empty());
}

#[test]
fn injected_sim_regression_must_fail() {
    let base = report("topk", vec![exp("a/b", &[("sim_time_ms", 0.125)])]);
    // any drift in a deterministic metric fails, in either direction
    for drifted in [0.1250001, 0.120] {
        let cur = report("topk", vec![exp("a/b", &[("sim_time_ms", drifted)])]);
        let out = diff_reports(&base, &cur, &cfg());
        assert!(out.failed(), "sim drift {drifted} must fail");
        assert!(fails(&out)[0].contains("bless"), "should hint at --bless");
    }
}

#[test]
fn sim_eps_tolerance_boundary() {
    let base = report("topk", vec![exp("a/b", &[("sim_time_ms", 1.0)])]);
    let cur = report("topk", vec![exp("a/b", &[("sim_time_ms", 1.001)])]);
    let loose = DiffConfig {
        sim_rel_eps: 1e-3,
        ..cfg()
    };
    // exactly at the relative epsilon: passes (gate is strict-greater)
    assert!(!diff_reports(&base, &cur, &loose).failed());
    let tight = DiffConfig {
        sim_rel_eps: 1e-4,
        ..cfg()
    };
    assert!(diff_reports(&base, &cur, &tight).failed());
}

#[test]
fn host_tolerance_boundary_cases() {
    let base = report("topk", vec![exp("a/b", &[("host_wall_ms", 100.0)])]);
    let c = DiffConfig {
        host_tol: 1.0, // up to 2x slower allowed
        ..cfg()
    };
    // exactly at the boundary (2x): passes
    let cur = report("topk", vec![exp("a/b", &[("host_wall_ms", 200.0)])]);
    assert!(!diff_reports(&base, &cur, &c).failed());
    // just beyond: fails
    let cur = report("topk", vec![exp("a/b", &[("host_wall_ms", 200.0001)])]);
    let out = diff_reports(&base, &cur, &c);
    assert!(out.failed());
    assert!(fails(&out)[0].contains("wall-clock"));
    // improvements never fail, however large
    let cur = report("topk", vec![exp("a/b", &[("host_wall_ms", 1.0)])]);
    assert!(!diff_reports(&base, &cur, &c).failed());
}

#[test]
fn host_qps_regresses_downward() {
    // throughput metrics gate in the opposite direction, using the
    // experiment's host_wall_ms sibling for the noise floor
    let base = report(
        "serve",
        vec![exp(
            "serve/load64",
            &[("host_qps", 1000.0), ("host_wall_ms", 500.0)],
        )],
    );
    let c = DiffConfig {
        host_tol: 1.0,
        ..cfg()
    };
    let cur = report(
        "serve",
        vec![exp(
            "serve/load64",
            &[("host_qps", 499.0), ("host_wall_ms", 500.0)],
        )],
    );
    assert!(diff_reports(&base, &cur, &c).failed());
    // doubling throughput is fine
    let cur = report(
        "serve",
        vec![exp(
            "serve/load64",
            &[("host_qps", 2000.0), ("host_wall_ms", 500.0)],
        )],
    );
    assert!(!diff_reports(&base, &cur, &c).failed());
}

#[test]
fn sub_floor_wall_clock_is_not_gated() {
    // baseline wall-clock below the noise floor: even a huge relative
    // regression is scheduler noise, not signal
    let base = report("topk", vec![exp("a/b", &[("host_wall_ms", 0.05)])]);
    let cur = report("topk", vec![exp("a/b", &[("host_wall_ms", 20.0)])]);
    let out = diff_reports(&base, &cur, &cfg());
    assert!(!out.failed(), "{}", out.render());
}

#[test]
fn metric_missing_from_baseline_warns_not_fails() {
    let base = report("topk", vec![exp("a/b", &[("sim_time_ms", 1.0)])]);
    let cur = report(
        "topk",
        vec![exp(
            "a/b",
            &[("sim_time_ms", 1.0), ("sim_global_bytes", 42.0)],
        )],
    );
    let out = diff_reports(&base, &cur, &cfg());
    assert!(!out.failed(), "{}", out.render());
    assert_eq!(warns(&out).len(), 1);
    assert!(warns(&out)[0].contains("sim_global_bytes"));
}

#[test]
fn new_benchmark_absent_from_baseline_warns_not_fails() {
    let base = report("topk", vec![exp("a/b", &[("sim_time_ms", 1.0)])]);
    let cur = report(
        "topk",
        vec![
            exp("a/b", &[("sim_time_ms", 1.0)]),
            exp("new/cell", &[("sim_time_ms", 9.0)]),
        ],
    );
    let out = diff_reports(&base, &cur, &cfg());
    assert!(!out.failed(), "{}", out.render());
    assert_eq!(warns(&out).len(), 1);
    assert!(warns(&out)[0].contains("new/cell"));
}

#[test]
fn new_cell_warning_lists_every_cell_name() {
    // blessing must be auditable from the CI log: one warning naming
    // every cell a --bless would add
    let base = report(
        "cluster",
        vec![exp("cluster/range/dev1", &[("sim_time_ms", 1.0)])],
    );
    let cur = report(
        "cluster",
        vec![
            exp("cluster/range/dev1", &[("sim_time_ms", 1.0)]),
            exp("cluster/range/dev2", &[("sim_time_ms", 0.6)]),
            exp("cluster/hash/dev4", &[("sim_time_ms", 0.4)]),
            exp("cluster/round-robin/dev8", &[("sim_time_ms", 0.3)]),
        ],
    );
    let out = diff_reports(&base, &cur, &cfg());
    assert!(!out.failed(), "{}", out.render());
    let w = warns(&out);
    assert_eq!(w.len(), 1, "one aggregate warning, got {w:?}");
    assert!(w[0].contains("3 new experiment(s)"));
    for cell in [
        "cluster/range/dev2",
        "cluster/hash/dev4",
        "cluster/round-robin/dev8",
    ] {
        assert!(w[0].contains(cell), "missing {cell} in: {}", w[0]);
    }
    assert!(
        !w[0].contains("cluster/range/dev1,"),
        "baseline cell listed"
    );
}

#[test]
fn disappeared_experiment_or_metric_fails() {
    let base = report(
        "topk",
        vec![
            exp("a/b", &[("sim_time_ms", 1.0), ("sim_launches", 3.0)]),
            exp("gone/cell", &[("sim_time_ms", 2.0)]),
        ],
    );
    // whole experiment vanished
    let cur = report(
        "topk",
        vec![exp("a/b", &[("sim_time_ms", 1.0), ("sim_launches", 3.0)])],
    );
    let out = diff_reports(&base, &cur, &cfg());
    assert!(out.failed());
    assert!(fails(&out)[0].contains("gone/cell"));
    // one metric vanished
    let cur = report(
        "topk",
        vec![
            exp("a/b", &[("sim_time_ms", 1.0)]),
            exp("gone/cell", &[("sim_time_ms", 2.0)]),
        ],
    );
    let out = diff_reports(&base, &cur, &cfg());
    assert!(out.failed());
    assert!(fails(&out)[0].contains("sim_launches"));
}

#[test]
fn scale_or_kind_mismatch_fails_before_comparing() {
    let base = report("topk", vec![exp("a/b", &[("sim_time_ms", 1.0)])]);
    let mut cur = base.clone();
    cur.scale = Scale::new(22);
    let out = diff_reports(&base, &cur, &cfg());
    assert!(out.failed());
    assert!(fails(&out)[0].contains("scale mismatch"));

    let mut cur = base.clone();
    cur.kind = "serve".to_string();
    assert!(diff_reports(&base, &cur, &cfg()).failed());
}

/// A minimal claim-satisfying topk report: bitonic beats sort on every
/// vary-k cell, bitonic time is flat across distributions, per-thread on
/// sorted input stays within 4x of uniform.
fn claim_clean_topk() -> BenchReport {
    let mut exps = Vec::new();
    for k in bench::K_SWEEP {
        exps.push(exp(
            &format!("vary_k/uniform/bitonic/k{k}"),
            &[("sim_time_ms", 0.1), ("sim_global_bytes", 1e6)],
        ));
        exps.push(exp(
            &format!("vary_k/uniform/sort/k{k}"),
            &[("sim_time_ms", 1.1)],
        ));
        exps.push(exp(
            &format!("vary_k/uniform/delegate-select/k{k}"),
            &[("sim_time_ms", 0.05), ("sim_global_bytes", 1e5)],
        ));
    }
    for (name, _) in bench::harness::distributions() {
        exps.push(exp(
            &format!("dist/{name}/bitonic/k32"),
            &[("sim_time_ms", 0.125)],
        ));
    }
    exps.push(exp("dist/uniform/per-thread/k32", &[("sim_time_ms", 0.2)]));
    exps.push(exp(
        "dist/increasing/per-thread/k32",
        &[("sim_time_ms", 0.4)],
    ));
    // every cell must carry static predictions bit-matching the
    // measured coalescing/conflict metrics (claim 8)
    for e in &mut exps {
        for (m, v) in [
            ("sim_sectors_per_access", 0.125),
            ("sim_static_sectors_per_access", 0.125),
            ("sim_conflict_degree", 1.0),
            ("sim_static_conflict_degree", 1.0),
        ] {
            e.metrics.insert(m.to_string(), v);
        }
    }
    report("topk", exps)
}

#[test]
fn satisfied_claims_pass() {
    let findings = check_claims(&claim_clean_topk());
    assert!(
        findings.iter().all(|f| f.severity != Severity::Fail),
        "{findings:?}"
    );
}

#[test]
fn static_prediction_drift_fails_claims() {
    // a single cell whose static prediction differs from the measured
    // value by one ulp must fail claim 8
    let mut r = claim_clean_topk();
    let e = &mut r.experiments[0];
    let drifted = f64::from_bits(0.125f64.to_bits() + 1);
    e.metrics
        .insert("sim_static_sectors_per_access".to_string(), drifted);
    let findings = check_claims(&r);
    assert!(
        findings
            .iter()
            .any(|f| f.severity == Severity::Fail && f.message.contains("static prediction")),
        "{findings:?}"
    );

    // a cell missing the static metrics entirely must also fail
    let mut r = claim_clean_topk();
    r.experiments[0]
        .metrics
        .remove("sim_static_conflict_degree");
    let findings = check_claims(&r);
    assert!(
        findings.iter().any(|f| f.severity == Severity::Fail),
        "{findings:?}"
    );
}

#[test]
fn violated_delegate_traffic_claim_fails_at_large_scale() {
    // blow the 0.25x traffic budget at k=16; at 2^16 that only warns...
    let mut r = claim_clean_topk();
    for e in &mut r.experiments {
        if e.id == "vary_k/uniform/delegate-select/k16" {
            e.metrics.insert("sim_global_bytes".to_string(), 0.5e6);
        }
    }
    let findings = check_claims(&r);
    assert!(
        findings
            .iter()
            .any(|f| f.severity == Severity::Warn && f.message.contains("delegate traffic")),
        "{findings:?}"
    );
    assert!(findings.iter().all(|f| f.severity != Severity::Fail));

    // ...but at 2^20 the same report fails the gate
    r.scale = Scale::new(20);
    let findings = check_claims(&r);
    assert!(
        findings.iter().any(|f| f.severity == Severity::Fail
            && f.message.contains("delegate select")
            && f.message.contains("k16")),
        "{findings:?}"
    );
}

#[test]
fn violated_bitonic_vs_sort_claim_fails() {
    let mut r = claim_clean_topk();
    // make sort "win" at k=128: the claim must fail
    for e in &mut r.experiments {
        if e.id == "vary_k/uniform/sort/k128" {
            e.metrics.insert("sim_time_ms".to_string(), 0.05);
        }
    }
    let findings = check_claims(&r);
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("k=128")));
}

#[test]
fn violated_skew_immunity_claim_fails() {
    let mut r = claim_clean_topk();
    for e in &mut r.experiments {
        if e.id == "dist/bucket-killer/bitonic/k32" {
            e.metrics.insert("sim_time_ms".to_string(), 0.5);
        }
    }
    let findings = check_claims(&r);
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("skew-immune")));
}

#[test]
fn ungraceful_per_thread_skew_fails() {
    let mut r = claim_clean_topk();
    for e in &mut r.experiments {
        if e.id == "dist/increasing/per-thread/k32" {
            e.metrics.insert("sim_time_ms".to_string(), 2.0); // 10x uniform
        }
    }
    let findings = check_claims(&r);
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("per-thread")));
}

#[test]
fn missing_claim_cells_fail_as_unverifiable() {
    let r = report("topk", vec![exp("a/b", &[("sim_time_ms", 1.0)])]);
    let findings = check_claims(&r);
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("no such cell")));
}

#[test]
fn serve_claim_gates_speedup_at_top_load() {
    let good = report("serve", vec![exp("serve/load64", &[("sim_speedup", 3.4)])]);
    assert!(check_claims(&good)
        .iter()
        .all(|f| f.severity != Severity::Fail));
    let bad = report("serve", vec![exp("serve/load64", &[("sim_speedup", 1.1)])]);
    assert!(check_claims(&bad)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("1.10x")));
}

/// A claim-satisfying cluster report at the given scale: exact cells
/// with 8 devices well under half the single-device time, plus a
/// compliant availability sweep (r >= 2 completes everything over
/// failovers, r = 1 surfaces the loss).
fn claim_clean_cluster(log2n: u32) -> BenchReport {
    let mut exps = Vec::new();
    for policy in ["range", "hash", "round-robin"] {
        for (devices, ms) in [(1, 10.0), (2, 5.2), (4, 2.8), (8, 1.6)] {
            exps.push(exp(
                &format!("cluster/{policy}/dev{devices}"),
                &[("sim_time_ms", ms), ("sim_exact", 1.0)],
            ));
        }
    }
    for (r_factor, frac, failovers) in [(1, 2.0 / 3.0, 0.0), (2, 1.0, 5.0), (3, 1.0, 5.0)] {
        exps.push(exp(
            &format!("cluster/avail/r{r_factor}"),
            &[
                ("sim_exact", 1.0),
                ("sim_completed_frac", frac),
                ("sim_failovers", failovers),
            ],
        ));
    }
    let mut r = report("cluster", exps);
    r.scale = Scale::new(log2n);
    r
}

#[test]
fn cluster_availability_claim_gates_completion_and_loudness() {
    let good = claim_clean_cluster(22);
    assert!(
        check_claims(&good)
            .iter()
            .all(|f| f.severity != Severity::Fail),
        "{:?}",
        check_claims(&good)
    );
    // r >= 2 losing even one query to the device loss: fail
    let mut dropped = claim_clean_cluster(22);
    for e in &mut dropped.experiments {
        if e.id == "cluster/avail/r2" {
            e.metrics.insert("sim_completed_frac".to_string(), 0.9);
        }
    }
    assert!(check_claims(&dropped)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("permanent device loss")));
    // r >= 2 completing without any failover means the scenario never
    // exercised replicated serving: fail
    let mut idle = claim_clean_cluster(22);
    for e in &mut idle.experiments {
        if e.id == "cluster/avail/r3" {
            e.metrics.insert("sim_failovers".to_string(), 0.0);
        }
    }
    assert!(check_claims(&idle)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("failover")));
    // r = 1 reporting full completion hides the loss: fail
    let mut hidden = claim_clean_cluster(22);
    for e in &mut hidden.experiments {
        if e.id == "cluster/avail/r1" {
            e.metrics.insert("sim_completed_frac".to_string(), 1.0);
        }
    }
    assert!(check_claims(&hidden)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("silently hidden")));
    // a missing availability cell is unverifiable: fail
    let mut missing = claim_clean_cluster(22);
    missing.experiments.retain(|e| e.id != "cluster/avail/r2");
    assert!(check_claims(&missing)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("cluster/avail/r2")));
}

#[test]
fn cluster_exactness_claim_gates_every_cell() {
    let good = claim_clean_cluster(22);
    assert!(
        check_claims(&good)
            .iter()
            .all(|f| f.severity != Severity::Fail),
        "{:?}",
        check_claims(&good)
    );
    // one inexact cell fails
    let mut bad = claim_clean_cluster(22);
    bad.experiments[5]
        .metrics
        .insert("sim_exact".to_string(), 0.0);
    let id = bad.experiments[5].id.clone();
    assert!(check_claims(&bad)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains(&id)));
    // a cell lacking the exactness column is unverifiable -> fail
    let mut missing = claim_clean_cluster(22);
    missing.experiments[2].metrics.remove("sim_exact");
    assert!(check_claims(&missing)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("sim_exact")));
}

#[test]
fn cluster_scaling_claim_gates_at_full_scale_only() {
    // violated speedup at full scale: fail
    let mut bad = claim_clean_cluster(22);
    for e in &mut bad.experiments {
        if e.id == "cluster/hash/dev8" {
            e.metrics.insert("sim_time_ms".to_string(), 6.0); // > 0.5 * 10
        }
    }
    assert!(check_claims(&bad)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("0.5x")));
    // the same report at the CI small scale only warns
    let mut small = bad.clone();
    small.scale = Scale::new(16);
    let findings = check_claims(&small);
    assert!(
        findings.iter().all(|f| f.severity != Severity::Fail),
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Warn && f.message.contains("log2n >= 22")));
}

#[test]
fn end_to_end_gate_on_real_harness_reports() {
    // tiny-scale harness runs are deterministic: self-diff passes, and an
    // injected regression in any sim metric fails
    let base = bench::harness::run_topk_suite(10, "test");
    let clean = diff_reports(&base, &bench::harness::run_topk_suite(10, "test"), &cfg());
    assert!(!clean.failed(), "{}", clean.render());

    let mut regressed = base.clone();
    let cell = regressed
        .experiments
        .iter_mut()
        .find(|e| e.id == "vary_k/uniform/bitonic/k32")
        .expect("cell exists");
    *cell.metrics.get_mut("sim_time_ms").unwrap() *= 1.5;
    let out = diff_reports(&base, &regressed, &cfg());
    assert!(out.failed());
    assert!(fails(&out)[0].contains("vary_k/uniform/bitonic/k32"));
}

/// A claim-satisfying cpu report at the given scale: every algorithm's
/// best multi-thread cell beats its single-thread cell.
fn claim_clean_cpu(log2n: u32) -> BenchReport {
    let mut exps = Vec::new();
    for alg in topk::TopKAlgorithm::all() {
        for (threads, ms) in [(1, 100.0), (2, 60.0), (4, 40.0), (8, 30.0)] {
            exps.push(exp(
                &format!("cpu/{}/t{threads}", alg.name()),
                &[("host_wall_ms", ms), ("host_threads", threads as f64)],
            ));
        }
    }
    let mut r = report("cpu", exps);
    r.scale = Scale::new(log2n);
    r
}

#[test]
fn cpu_scaling_claim_gates_at_real_scale_only() {
    let good = claim_clean_cpu(20);
    assert!(
        check_claims(&good)
            .iter()
            .all(|f| f.severity != Severity::Fail),
        "{:?}",
        check_claims(&good)
    );
    // threads that never pay for themselves: fail at 2^20...
    let mut bad = claim_clean_cpu(20);
    for e in &mut bad.experiments {
        if e.id.starts_with("cpu/sort/t") && !e.id.ends_with("/t1") {
            e.metrics.insert("host_wall_ms".to_string(), 150.0);
        }
    }
    let findings = check_claims(&bad);
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("cpu backend scaling (sort)")));
    // ...but only warn at the CI small scale
    let mut small = bad.clone();
    small.scale = Scale::new(16);
    let findings = check_claims(&small);
    assert!(
        findings.iter().all(|f| f.severity != Severity::Fail),
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Warn && f.message.contains("log2n >= 20")));
    // a fast algorithm below the spawn-amortization floor only warns,
    // even at full scale (threads cannot pay for a ~2 ms scan)
    let mut fast = claim_clean_cpu(20);
    for e in &mut fast.experiments {
        if e.id.starts_with("cpu/per-thread/t") {
            let ms = if e.id.ends_with("/t1") { 2.0 } else { 3.0 };
            e.metrics.insert("host_wall_ms".to_string(), ms);
        }
    }
    let findings = check_claims(&fast);
    assert!(
        findings.iter().all(|f| f.severity != Severity::Fail),
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .any(|f| f.severity == Severity::Warn && f.message.contains("floor")));
    // a sweep with no multi-thread cells is unverifiable -> fail
    let mut lone = claim_clean_cpu(20);
    lone.experiments.retain(|e| e.id.ends_with("/t1"));
    assert!(check_claims(&lone)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("multi-thread")));
}

/// A claim-satisfying figures report at the given scale: every planner
/// grid point has algorithm cells and a pick at the winner's time.
fn claim_clean_figures(log2n: u32) -> BenchReport {
    let mut exps = Vec::new();
    for (x, ks) in bench::figures::planner_grid(log2n) {
        for k in ks {
            exps.push(exp(
                &format!("planner/log2n{x}/bitonic/k{k}"),
                &[("sim_time_ms", 1.0), ("sim_model_ms", 0.8)],
            ));
            exps.push(exp(
                &format!("planner/log2n{x}/delegate-select/k{k}"),
                &[("sim_time_ms", 1.1), ("sim_model_ms", 0.9)],
            ));
            exps.push(exp(
                &format!("planner/log2n{x}/pick/k{k}"),
                &[("sim_pick_over_best", 1.0)],
            ));
        }
    }
    let mut r = report("figures", exps);
    r.scale = Scale::new(log2n);
    r
}

/// Sets the pick ratio of one planner grid point.
fn with_pick(mut r: BenchReport, id: &str, ratio: f64) -> BenchReport {
    let e = r
        .experiments
        .iter_mut()
        .find(|e| e.id == id)
        .expect("grid point");
    e.metrics.insert("sim_pick_over_best".to_string(), ratio);
    r
}

#[test]
fn planner_claim_gates_at_full_scale_and_warns_below() {
    let findings = check_claims(&claim_clean_figures(22));
    assert!(findings.is_empty(), "{findings:?}");

    // one pick 1.26x the winner fails at the full grid, naming both
    let miss = "planner/log2n18/pick/k256";
    let findings = check_claims(&with_pick(claim_clean_figures(22), miss, 1.26));
    let fails: Vec<_> = findings
        .iter()
        .filter(|f| f.severity == Severity::Fail)
        .collect();
    assert_eq!(fails.len(), 1, "{findings:?}");
    for part in ["n=2^18, k=256", "1.26x", "bitonic pick", "(bitonic)"] {
        assert!(fails[0].message.contains(part), "{}", fails[0].message);
    }
    // exactly at the bound passes
    let findings = check_claims(&with_pick(claim_clean_figures(22), miss, 1.25));
    assert!(findings.is_empty(), "{findings:?}");

    // the same grid point below 2^22 only warns
    let findings = check_claims(&with_pick(claim_clean_figures(20), miss, 1.26));
    assert!(
        findings.iter().all(|f| f.severity == Severity::Warn),
        "{findings:?}"
    );
    assert!(findings
        .iter()
        .any(|f| f.message.contains("n=2^18, k=256") && f.message.contains("log2n >= 22")));

    // a missing planner cell is unverifiable: fail, at any scale
    for log2n in [16, 22] {
        let mut missing = claim_clean_figures(log2n);
        let gone = format!("planner/log2n{log2n}/pick/k64");
        missing.experiments.retain(|e| e.id != gone);
        assert!(check_claims(&missing)
            .iter()
            .any(|f| f.severity == Severity::Fail && f.message.contains(&gone)));
    }
}

/// A claim-satisfying stream report at the given scale: exact cells, and
/// maintenance traffic well under a rescan's for views and cache
/// refreshes alike.
fn claim_clean_stream(log2n: u32) -> BenchReport {
    let mut exps = Vec::new();
    for denom in bench::harness::STREAM_FRACS {
        exps.push(exp(
            &format!("stream/view/frac{denom}"),
            &[
                ("sim_exact", 1.0),
                ("sim_global_bytes", 1e5 / denom as f64),
                ("sim_rescan_bytes", 1e6),
            ],
        ));
    }
    for p in bench::harness::STREAM_MIX_PERIODS {
        exps.push(exp(
            &format!("stream/mix/period{p}"),
            &[
                ("sim_exact", 1.0),
                ("sim_refresh_bytes", 1e4),
                ("sim_rescan_bytes", 1e6),
            ],
        ));
    }
    let mut r = report("stream", exps);
    r.scale = Scale::new(log2n);
    r
}

#[test]
fn stream_traffic_claim_covers_cache_refreshes() {
    let findings = check_claims(&claim_clean_stream(20));
    assert!(findings.is_empty(), "{findings:?}");

    // cache refreshes that move half a rescan: fail at 2^20...
    let mut bad = claim_clean_stream(20);
    let id = "stream/mix/period8";
    let e = bad.experiments.iter_mut().find(|e| e.id == id).unwrap();
    e.metrics.insert("sim_refresh_bytes".to_string(), 5e5);
    let findings = check_claims(&bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].severity, Severity::Fail);
    assert!(findings[0].message.contains(id), "{findings:?}");
    // ...and only warn at the CI small scale
    bad.scale = Scale::new(16);
    let findings = check_claims(&bad);
    assert!(
        findings
            .iter()
            .all(|f| f.severity == Severity::Warn && f.message.contains("log2n >= 20")),
        "{findings:?}"
    );

    // a mix cell without its traffic pair is unverifiable: fail
    let mut missing = claim_clean_stream(16);
    let last = missing.experiments.last_mut().unwrap();
    assert!(last.id.starts_with("stream/mix/"));
    last.metrics.remove("sim_rescan_bytes");
    assert!(check_claims(&missing)
        .iter()
        .any(|f| f.severity == Severity::Fail && f.message.contains("sim_rescan_bytes")));
}
