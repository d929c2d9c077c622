//! The regression gate: compares a fresh [`BenchReport`] against a
//! committed baseline and machine-checks the paper's headline claims.
//!
//! Two metric classes, two gates (see [`crate::report`] for the naming
//! convention):
//!
//! * `sim_*` metrics are deterministic simulator quantities — gated with
//!   an **exact match** (configurable epsilon, default 0). Any drift,
//!   faster *or* slower, fails: an unexplained change in modeled time or
//!   traffic means the code's machine behavior changed, and the baseline
//!   must be refreshed deliberately (`bench-diff --bless`) with the
//!   change reviewed in the JSON diff.
//! * `host_*` metrics are wall-clock — gated with a percentage
//!   tolerance in the *worse* direction only (`_ms` up is worse, `_qps`
//!   down is worse), and skipped entirely below a noise floor where
//!   micro-benchmark wall-clock is meaningless.
//!
//! Coverage is part of the contract: an experiment or metric present in
//! the baseline but missing from the current report **fails** (a cell
//! silently disappearing is how an algorithm that starts erroring would
//! otherwise dodge the gate), while new cells absent from the baseline
//! only **warn** until blessed.

use crate::report::BenchReport;

/// Gate configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Fractional tolerance for `host_*` metrics: the current value may
    /// be worse than baseline by up to this fraction (default 4.0, i.e.
    /// up to 5× slower) before failing. Generous because CI machines and
    /// dev machines differ; the precise gate is the `sim_*` class.
    pub host_tol: f64,
    /// Relative epsilon for the `sim_*` exact gate (default 0: exact).
    pub sim_rel_eps: f64,
    /// Also machine-check the paper claims on the current report.
    pub check_claims: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            host_tol: 4.0,
            sim_rel_eps: 0.0,
            check_claims: true,
        }
    }
}

/// Finding severity: `Fail` gates (nonzero exit), `Warn` only reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational — the gate still passes.
    Warn,
    /// A regression, claim violation, or comparison error.
    Fail,
}

/// One gate finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Whether this finding fails the gate.
    pub severity: Severity,
    /// Human-readable description with the offending values.
    pub message: String,
}

impl Finding {
    fn fail(message: String) -> Self {
        Finding {
            severity: Severity::Fail,
            message,
        }
    }
    fn warn(message: String) -> Self {
        Finding {
            severity: Severity::Warn,
            message,
        }
    }
}

/// The outcome of one baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffOutcome {
    /// All findings, in comparison order.
    pub findings: Vec<Finding>,
}

impl DiffOutcome {
    /// True when any finding is a [`Severity::Fail`].
    pub fn failed(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Fail)
    }

    /// Renders findings as one line each (`FAIL`/`warn` prefixed).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Fail => "FAIL",
                Severity::Warn => "warn",
            };
            out.push_str(&format!("{tag}: {}\n", f.message));
        }
        out
    }
}

/// Noise floor in milliseconds: `host_*_ms` cells whose *baseline* value
/// is below this are not gated (sub-floor wall-clock is dominated by
/// scheduler noise). `host_*_qps` metrics use the same floor via their
/// experiment's `host_wall_ms` sibling.
pub const HOST_FLOOR_MS: f64 = 25.0;

/// Whether a `host_*` metric regresses upward or downward.
fn higher_is_better(metric: &str) -> bool {
    metric.ends_with("_qps")
}

/// Single-thread wall-clock floor for the CPU thread-scaling claim:
/// below this, spawning a thread scope costs a comparable share of the
/// whole run and the claim is reported as a warning, not gated.
pub const CPU_CLAIM_FLOOR_MS: f64 = 10.0;

/// Compares `current` against `baseline` under `cfg`. Claim checks (if
/// enabled) run on the current report.
pub fn diff_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    cfg: &DiffConfig,
) -> DiffOutcome {
    let mut out = DiffOutcome::default();

    if baseline.kind != current.kind {
        out.findings.push(Finding::fail(format!(
            "report kind mismatch: baseline '{}' vs current '{}'",
            baseline.kind, current.kind
        )));
        return out;
    }
    if baseline.scale.log2n != current.scale.log2n
        || baseline.scale.profile != current.scale.profile
    {
        out.findings.push(Finding::fail(format!(
            "scale mismatch: baseline {}@2^{} vs current {}@2^{} — \
             rerun the harness at the baseline's scale or re-bless",
            baseline.scale.profile,
            baseline.scale.log2n,
            current.scale.profile,
            current.scale.log2n
        )));
        return out;
    }

    for bexp in &baseline.experiments {
        let Some(cexp) = current.experiment(&bexp.id) else {
            out.findings.push(Finding::fail(format!(
                "experiment '{}' is in the baseline but missing from the current report \
                 (did a cell start failing?)",
                bexp.id
            )));
            continue;
        };
        for (name, &bval) in &bexp.metrics {
            let Some(&cval) = cexp.metrics.get(name) else {
                out.findings.push(Finding::fail(format!(
                    "metric '{}/{name}' is in the baseline but missing from the current report",
                    bexp.id
                )));
                continue;
            };
            if name.starts_with("sim_") {
                let diff = (cval - bval).abs();
                if diff > cfg.sim_rel_eps * bval.abs() {
                    let dir = if cval > bval { "+" } else { "-" };
                    out.findings.push(Finding::fail(format!(
                        "'{}/{name}' drifted: baseline {bval} -> current {cval} ({dir}{:.3}%) — \
                         deterministic metrics gate exactly; refresh with `bench-diff --bless` \
                         if the change is intended",
                        bexp.id,
                        100.0 * diff / bval.abs().max(f64::MIN_POSITIVE)
                    )));
                }
            } else {
                // host wall-clock: gate only the worse direction, above
                // the noise floor
                let floor_val = if name.ends_with("_ms") {
                    bval
                } else {
                    bexp.metrics.get("host_wall_ms").copied().unwrap_or(0.0)
                };
                if floor_val < HOST_FLOOR_MS {
                    continue;
                }
                let worse_ratio = if higher_is_better(name) {
                    if cval <= 0.0 {
                        f64::INFINITY
                    } else {
                        bval / cval
                    }
                } else if bval <= 0.0 {
                    f64::INFINITY
                } else {
                    cval / bval
                };
                if worse_ratio > 1.0 + cfg.host_tol {
                    out.findings.push(Finding::fail(format!(
                        "'{}/{name}' regressed {worse_ratio:.2}x beyond the {:.0}% wall-clock \
                         tolerance: baseline {bval:.3} -> current {cval:.3}",
                        bexp.id,
                        100.0 * cfg.host_tol
                    )));
                }
            }
        }
        for name in cexp.metrics.keys() {
            if !bexp.metrics.contains_key(name) {
                out.findings.push(Finding::warn(format!(
                    "metric '{}/{name}' is new (not in the baseline) — not gated until blessed",
                    bexp.id
                )));
            }
        }
    }
    // one aggregate warning naming every new cell: CI logs must show
    // exactly which experiments a `--bless` would add to the baseline
    let new_cells: Vec<&str> = current
        .experiments
        .iter()
        .filter(|c| baseline.experiment(&c.id).is_none())
        .map(|c| c.id.as_str())
        .collect();
    if !new_cells.is_empty() {
        out.findings.push(Finding::warn(format!(
            "{} new experiment(s) not in the baseline — not gated until blessed: {}",
            new_cells.len(),
            new_cells.join(", ")
        )));
    }

    if cfg.check_claims {
        out.findings.extend(check_claims(current));
    }
    out
}

/// Machine-checks the paper's headline claims against one report.
///
/// Top-k reports (`kind == "topk"`):
/// 1. **Bitonic beats full sort for every k ≤ 256** (§1/§6.2) on the
///    uniform vary-k sweep.
/// 2. **Bitonic is skew-immune** (§6.4): its modeled time is identical
///    across all six distributions (no adversarial input exists — its
///    compare-exchange schedule is data-independent).
/// 3. **Per-thread top-k degrades gracefully under skew** (§6.3): sorted
///    (increasing) input costs at most 4× its uniform-input time — it
///    slows (every element passes the heap filter) but does not blow up.
/// 8. **The static analyzer never drifts from the replay**: every cell
///    must carry `sim_static_sectors_per_access` /
///    `sim_static_conflict_degree` (i.e. every launch declared an
///    access-spec contract) and each must be bit-identical to the
///    dynamically measured `sim_sectors_per_access` /
///    `sim_conflict_degree` — the cross-check that keeps `simt::lint`'s
///    pre-launch predictions honest.
/// 9. **Delegate select slashes global traffic at small k** (Dr. Top-k):
///    with a warm index, its `sim_global_bytes` must be ≤ 0.25× bitonic's
///    for every k ≤ 64 — on the uniform vary-k sweep and on every vary-n
///    size with `n ≥ 2^20`. Below 2^20 the delegate set is too coarse to
///    prune (at 2^16 there are only 32 subranges), so the bound is
///    reported as a warning, not gated.
///
/// Serving reports (`kind == "serve"`):
/// 4. **Concurrent serving beats serial** at the highest offered load:
///    streams + batch coalescing yield ≥ 1.5× over back-to-back kernels.
///
/// Cluster reports (`kind == "cluster"`):
/// 5. **Sharded execution is exact**: every cell's merged result must be
///    bit-identical to the single-device oracle (`sim_exact == 1`), for
///    every partition policy × device count.
/// 6. **Sharding scales**: at full scale (`log2n ≥ 22`), eight devices
///    must at least halve the single-device end-to-end time for every
///    policy. At smaller scales launch overhead and link latency
///    dominate the shrunken local pass, so the speedup gate is replaced
///    by a warning (exactness is still enforced).
/// 10. **Replication survives permanent device loss**: in the
///    availability sweep (`cluster/avail/r{r}`), `r ≥ 2` with one
///    device permanently lost mid-load must complete *every* query
///    (`sim_completed_frac == 1`) through drain-time failover
///    (`sim_failovers > 0`), bit-exact (the cell's `sim_exact` claim
///    compliance is enforced by claim 5); `r = 1` must surface the
///    loss (`sim_completed_frac < 1`) — loud typed failure, never a
///    silently truncated result.
///
/// Streaming reports (`kind == "stream"`):
/// 11. **Delta maintenance beats rescans on ingest**: every
///    `stream/view/*` and `stream/mix/*` cell must be bit-exact
///    (`sim_exact == 1` — maintained views equal a from-scratch rescan;
///    cached reads equal a same-epoch serial execution), and at delta
///    fractions ≤ 1/64 maintenance must move ≤ 0.25× the global-memory
///    bytes of the rescans it replaces: a view refresh
///    (`stream/view/*`), and the serving drains that bring stale cache
///    entries current (`stream/mix/*`, whose appends are 1/64 of the
///    table). The traffic bound gates (`Fail`) at `log2n ≥ 20` and warns
///    below — at the CI small profile the merge's fixed k-sized traffic
///    is a visible share of a tiny delta scan.
///
/// Figures reports (`kind == "figures"`):
/// 12. **The planner picks the winner or a near-winner**: at every point
///    of the planner grid ([`crate::figures::planner_grid`]),
///    `recommend_full`'s pick must take at most
///    [`crate::figures::PLANNER_TOLERANCE`] × the time of the fastest
///    algorithm that launches (`sim_pick_over_best`). It gates at
///    `log2n ≥ 22`, where the grid spans 2^18–2^22, and warns below.
///
/// CPU backend reports (`kind == "cpu"`):
/// 7. **The CPU backend's threads pay for themselves** (§3.1): for every
///    algorithm, the fastest multi-thread cell must beat the same
///    algorithm's single-thread cell. Wall-clock only makes this claim
///    meaningful at real sizes, so it gates (`Fail`) at `log2n ≥ 20` and
///    warns below (the CI small profile runs at 2^16, where a partition
///    can be cheaper than spawning workers). It also only gates
///    algorithms whose single-thread cell is at least
///    [`CPU_CLAIM_FLOOR_MS`]: a heap top-k that finishes a 2^20 scan in
///    ~1.5 ms cannot amortize thread-spawn cost (~0.5 ms per scope on a
///    small box), and that is machine physics, not a regression.
///
/// A claim whose cells are missing fails — an unverifiable claim is
/// indistinguishable from a violated one at gate time.
pub fn check_claims(report: &BenchReport) -> Vec<Finding> {
    let mut findings = Vec::new();
    let need = |id: &str, metric: &str, findings: &mut Vec<Finding>| -> Option<f64> {
        let v = report.metric(id, metric);
        if v.is_none() {
            findings.push(Finding::fail(format!(
                "claim check needs '{id}/{metric}' but the report has no such cell"
            )));
        }
        v
    };

    match report.kind.as_str() {
        "topk" => {
            // 1. bitonic < sort for k ≤ 256
            for k in crate::K_SWEEP.into_iter().filter(|&k| k <= 256) {
                let b = need(
                    &format!("vary_k/uniform/bitonic/k{k}"),
                    "sim_time_ms",
                    &mut findings,
                );
                let s = need(
                    &format!("vary_k/uniform/sort/k{k}"),
                    "sim_time_ms",
                    &mut findings,
                );
                if let (Some(b), Some(s)) = (b, s) {
                    if b >= s {
                        findings.push(Finding::fail(format!(
                            "claim violated: bitonic must beat full sort for k={k} \
                             (bitonic {b:.4} ms vs sort {s:.4} ms)"
                        )));
                    }
                }
            }
            // 2. bitonic skew-immune across the distribution sweep
            let times: Vec<(String, f64)> = crate::harness::distributions()
                .iter()
                .filter_map(|(name, _)| {
                    report
                        .metric(&format!("dist/{name}/bitonic/k32"), "sim_time_ms")
                        .map(|t| (name.to_string(), t))
                })
                .collect();
            if times.len() < 2 {
                findings.push(Finding::fail(
                    "claim check needs bitonic cells across the distribution sweep".to_string(),
                ));
            } else {
                let min = times.iter().map(|(_, t)| *t).fold(f64::MAX, f64::min);
                let max = times.iter().map(|(_, t)| *t).fold(f64::MIN, f64::max);
                if max / min > 1.0 + 1e-6 {
                    findings.push(Finding::fail(format!(
                        "claim violated: bitonic top-k must be skew-immune, but its time varies \
                         {:.4}x across distributions ({times:?})",
                        max / min
                    )));
                }
            }
            // 3. per-thread degrades gracefully on sorted input
            let inc = need(
                "dist/increasing/per-thread/k32",
                "sim_time_ms",
                &mut findings,
            );
            let uni = need("dist/uniform/per-thread/k32", "sim_time_ms", &mut findings);
            if let (Some(inc), Some(uni)) = (inc, uni) {
                let ratio = inc / uni;
                if ratio > 4.0 {
                    findings.push(Finding::fail(format!(
                        "claim violated: per-thread top-k on sorted input must stay within 4x of \
                         uniform (paper: up to ~3x), got {ratio:.2}x"
                    )));
                }
            }
            // 9. delegate select's warm traffic bound vs bitonic, on the
            // vary-k sweep (at the report's scale) and on every vary-n
            // size from 2^20 (k = 64)
            let vary_k = crate::K_SWEEP
                .into_iter()
                .filter(|&k| k <= 64)
                .map(|k| ("vary_k", format!("k{k}")));
            let vary_n = report.experiments.iter().filter_map(|e| {
                let x = e.id.strip_prefix("vary_n/uniform/delegate-select/log2n")?;
                (x.parse::<u32>().ok()? >= 20).then(|| ("vary_n", format!("log2n{x}")))
            });
            for (sweep, point) in vary_k.chain(vary_n) {
                let id = format!("{sweep}/uniform/delegate-select/{point}");
                let d = need(&id, "sim_global_bytes", &mut findings);
                let b = need(
                    &format!("{sweep}/uniform/bitonic/{point}"),
                    "sim_global_bytes",
                    &mut findings,
                );
                if let (Some(d), Some(b)) = (d, b) {
                    if d > 0.25 * b {
                        findings.push(at_scale(
                            report,
                            20,
                            format!(
                                "delegate traffic claim: warm delegate select must use <= 0.25x \
                                 bitonic's global traffic at k <= 64, but '{id}' moves {d:.0} B \
                                 vs bitonic {b:.0} B ({:.3}x)",
                                d / b.max(f64::MIN_POSITIVE)
                            ),
                        ));
                    }
                }
            }
            // 8. static lint predictions bit-match the measured metrics
            // in every swept cell
            for e in &report.experiments {
                for (stat, dynamic) in [
                    ("sim_static_sectors_per_access", "sim_sectors_per_access"),
                    ("sim_static_conflict_degree", "sim_conflict_degree"),
                ] {
                    let s = need(&e.id, stat, &mut findings);
                    let d = need(&e.id, dynamic, &mut findings);
                    if let (Some(s), Some(d)) = (s, d) {
                        if s.to_bits() != d.to_bits() {
                            findings.push(Finding::fail(format!(
                                "claim violated: static prediction drifted from replay in \
                                 '{}' ({stat} {s:.6} vs {dynamic} {d:.6})",
                                e.id
                            )));
                        }
                    }
                }
            }
        }
        "serve" => {
            let top_load = crate::harness::SERVE_LOADS[crate::harness::SERVE_LOADS.len() - 1];
            if let Some(speedup) = need(
                &format!("serve/load{top_load}"),
                "sim_speedup",
                &mut findings,
            ) {
                if speedup < 1.5 {
                    findings.push(Finding::fail(format!(
                        "claim violated: concurrent serving at {top_load} offered queries must \
                         beat serial by >= 1.5x, got {speedup:.2}x"
                    )));
                }
            }
        }
        "cluster" => {
            // 5. every cell must be oracle-exact
            every_cell_exact(report, "the single-device oracle", &mut findings);
            // 6. 8 devices halve the single-device time at full scale
            for policy in ["range", "hash", "round-robin"] {
                let one = need(
                    &format!("cluster/{policy}/dev1"),
                    "sim_time_ms",
                    &mut findings,
                );
                let eight = need(
                    &format!("cluster/{policy}/dev8"),
                    "sim_time_ms",
                    &mut findings,
                );
                let (Some(one), Some(eight)) = (one, eight) else {
                    continue;
                };
                // below full scale every policy warns, met or not
                if report.scale.log2n < 22 || eight > 0.5 * one {
                    findings.push(at_scale(
                        report,
                        22,
                        format!(
                            "cluster scaling claim: 8-device sharded top-k ({policy}) must run \
                             in <= 0.5x the single-device time at n=2^{}, got {eight:.4} ms vs \
                             {one:.4} ms ({:.2}x)",
                            report.scale.log2n,
                            eight / one
                        ),
                    ));
                }
            }
            // 10. replication serves through permanent device loss
            for r in crate::harness::AVAIL_REPLICATION {
                let id = format!("cluster/avail/r{r}");
                let frac = need(&id, "sim_completed_frac", &mut findings);
                let failovers = need(&id, "sim_failovers", &mut findings);
                let (Some(frac), Some(failovers)) = (frac, failovers) else {
                    continue;
                };
                if r >= 2 {
                    if frac < 1.0 {
                        findings.push(Finding::fail(format!(
                            "claim violated: r={r} must complete every query through one \
                             permanent device loss, but '{id}' completed only \
                             {:.1}% of the load",
                            frac * 100.0
                        )));
                    }
                    if failovers == 0.0 {
                        findings.push(Finding::fail(format!(
                            "claim violated: '{id}' completed without any failover — the \
                             device-loss scenario did not exercise replicated serving"
                        )));
                    }
                } else if frac >= 1.0 {
                    findings.push(Finding::fail(format!(
                        "claim violated: r=1 cannot absorb a permanent device loss, yet \
                         '{id}' reports full completion — the loss was silently hidden"
                    )));
                }
            }
        }
        "stream" => {
            // 11a. exactness everywhere: maintained views and cached
            // reads are bit-identical to from-scratch execution
            every_cell_exact(report, "from-scratch execution", &mut findings);
            // 11b. small deltas must be cheap: maintenance traffic at
            // delta fraction <= 1/64 stays under 0.25x a rescan, for views
            // and for the serving mix's cache refreshes
            let views = crate::harness::STREAM_FRACS
                .into_iter()
                .filter(|&denom| denom >= 64)
                .map(|denom| (format!("stream/view/frac{denom}"), "sim_global_bytes"));
            let mixes = crate::harness::STREAM_MIX_PERIODS
                .into_iter()
                .map(|p| (format!("stream/mix/period{p}"), "sim_refresh_bytes"));
            for (id, metric) in views.chain(mixes) {
                let d = need(&id, metric, &mut findings);
                let r = need(&id, "sim_rescan_bytes", &mut findings);
                let (Some(d), Some(r)) = (d, r) else { continue };
                let ratio = d / r.max(f64::MIN_POSITIVE);
                if ratio <= 0.25 {
                    continue;
                }
                findings.push(at_scale(
                    report,
                    20,
                    format!(
                        "delta maintenance traffic ('{id}': {d:.0} B vs rescan {r:.0} B, \
                         {ratio:.3}x) exceeds the 0.25x bound"
                    ),
                ));
            }
        }
        "figures" => {
            // 12. the planner's pick is the winner or within the bound
            for (x, ks) in crate::figures::planner_grid(report.scale.log2n) {
                for k in ks {
                    let id = format!("planner/log2n{x}/pick/k{k}");
                    let Some(ratio) = need(&id, "sim_pick_over_best", &mut findings) else {
                        continue;
                    };
                    let bound = crate::figures::PLANNER_TOLERANCE;
                    if ratio <= bound {
                        continue;
                    }
                    // name the pick (cheapest model) and the winner
                    let cells: Vec<_> = report
                        .experiments
                        .iter()
                        .filter(|e| {
                            e.id.starts_with(&format!("planner/log2n{x}/"))
                                && e.id.ends_with(&format!("/k{k}"))
                        })
                        .collect();
                    let argmin = |metric: &str| {
                        cells
                            .iter()
                            .filter_map(|e| {
                                Some((e.id.split('/').nth(2)?, *e.metrics.get(metric)?))
                            })
                            .min_by(|a, b| a.1.total_cmp(&b.1))
                            .map_or("?", |(alg, _)| alg)
                    };
                    let msg = format!(
                        "planner accuracy at n=2^{x}, k={k}: the {} pick takes {ratio:.2}x the \
                         time of the fastest algorithm ({}), beyond the {bound}x bound",
                        argmin("sim_model_ms"),
                        argmin("sim_time_ms")
                    );
                    findings.push(at_scale(report, 22, msg));
                }
            }
        }
        "cpu" => {
            // 7. multi-thread beats single-thread per algorithm
            for alg in topk::TopKAlgorithm::all() {
                let t1 = need(
                    &format!("cpu/{}/t1", alg.name()),
                    "host_wall_ms",
                    &mut findings,
                );
                let best_multi = crate::harness::CPU_THREAD_SWEEP
                    .into_iter()
                    .filter(|&t| t > 1)
                    .filter_map(|t| {
                        report.metric(&format!("cpu/{}/t{t}", alg.name()), "host_wall_ms")
                    })
                    .fold(f64::MAX, f64::min);
                let Some(t1) = t1 else { continue };
                if best_multi == f64::MAX {
                    findings.push(Finding::fail(format!(
                        "claim check needs multi-thread cpu cells for '{}'",
                        alg.name()
                    )));
                    continue;
                }
                if best_multi < t1 {
                    continue;
                }
                let msg = format!(
                    "cpu backend scaling ({}): best multi-thread {best_multi:.3} ms does not \
                     beat single-thread {t1:.3} ms",
                    alg.name()
                );
                if report.scale.log2n >= 20 && t1 < CPU_CLAIM_FLOOR_MS {
                    findings.push(Finding::warn(format!(
                        "{msg} — below the {CPU_CLAIM_FLOOR_MS:.0} ms floor where thread-spawn \
                         cost can be amortized, not gated"
                    )));
                } else {
                    findings.push(at_scale(report, 20, msg));
                }
            }
        }
        other => findings.push(Finding::warn(format!(
            "no claims defined for report kind '{other}'"
        ))),
    }
    findings
}

/// The one scale gate: a claim broken as `msg` describes fails in a
/// report at `2^min_log2n` or larger and only warns in a smaller one,
/// where the effect the claim measures is too small to gate.
fn at_scale(report: &BenchReport, min_log2n: u32, msg: String) -> Finding {
    if report.scale.log2n >= min_log2n {
        Finding::fail(format!("claim violated: {msg}"))
    } else {
        Finding::warn(format!(
            "{msg} — gated only at log2n >= {min_log2n}; this report is at 2^{}",
            report.scale.log2n
        ))
    }
}

/// The one exactness check: every cell of `report` must be
/// bit-identical to `oracle` (`sim_exact == 1`).
fn every_cell_exact(report: &BenchReport, oracle: &str, findings: &mut Vec<Finding>) {
    for exp in &report.experiments {
        let message = match exp.metrics.get("sim_exact") {
            Some(&1.0) => continue,
            Some(&v) => format!(
                "claim violated: '{}' must be bit-identical to {oracle} (sim_exact {v}, \
                 expected 1)",
                exp.id
            ),
            None => format!(
                "claim check needs '{}/sim_exact' but the cell lacks it",
                exp.id
            ),
        };
        findings.push(Finding::fail(message));
    }
}
