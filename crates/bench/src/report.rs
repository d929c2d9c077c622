//! The machine-readable benchmark report schema (`BENCH_*.json`).
//!
//! A report is one harness run: which suite (`topk` or `serve`), the
//! commit it measured, the scale profile it ran at, and one metric map
//! per experiment. Metric names carry their gating class in a prefix:
//!
//! * `sim_*` — derived from the simulator's deterministic counters
//!   (modeled time, bytes, sectors, conflict degrees, occupancy). Same
//!   code + same seed ⇒ bit-identical values on any machine, so
//!   `bench-diff` gates them with an **exact match**.
//! * `host_*` — host wall-clock measurements. Machine-dependent, gated
//!   with a **percentage tolerance**.
//!
//! The schema is versioned; [`BenchReport::from_json`] validates shape,
//! uniqueness of experiment ids, metric-name prefixes and finiteness, so
//! a malformed or hand-edited report fails loudly at the gate instead of
//! silently comparing garbage.

use std::collections::BTreeMap;

use crate::json::{self, Json};

/// Current schema version; bump on any incompatible report change.
pub const SCHEMA_VERSION: f64 = 1.0;

/// The dataset scale a report was measured at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// log2 of the element count the top-k suite ran at.
    pub log2n: u32,
    /// Human name for the profile (`small`, `full`, or `log2n<N>`).
    pub profile: String,
}

impl Scale {
    /// Canonical profile name for a top-k scale: `small` for the CI gate
    /// scale (≤ 2^16), `full` for the default 2^22+ scale, and an
    /// explicit `log2n<N>` for anything between.
    pub fn profile_name(log2n: u32) -> String {
        match log2n {
            0..=16 => "small".to_string(),
            22.. => "full".to_string(),
            n => format!("log2n{n}"),
        }
    }

    /// A scale with its canonical profile name.
    pub fn new(log2n: u32) -> Self {
        Scale {
            log2n,
            profile: Self::profile_name(log2n),
        }
    }
}

/// One benchmark cell: a stable id plus its metric map.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Stable, path-like id (e.g. `vary_k/uniform/bitonic/k32`).
    pub id: String,
    /// Metric name → value. Names must start with `sim_` or `host_`.
    pub metrics: BTreeMap<String, f64>,
}

impl Experiment {
    /// A cell with this id and these metrics.
    pub fn new(id: impl Into<String>, metrics: &[(&str, f64)]) -> Self {
        Experiment {
            id: id.into(),
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

/// One harness run, serializable to/from `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Which suite produced it: `topk` or `serve`.
    pub kind: String,
    /// Commit hash the run measured (informational; not diffed).
    pub commit: String,
    /// Scale profile the run used.
    pub scale: Scale,
    /// All measured cells, in harness execution order.
    pub experiments: Vec<Experiment>,
}

/// Report validation/parsing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The document is not valid JSON.
    Json(json::JsonError),
    /// The document parsed but violates the schema.
    Schema(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "{e}"),
            ReportError::Schema(m) => write!(f, "schema violation: {m}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// The metrics a figure's tables show, by the first id segment; every
/// other figure shows `sim_time_ms`.
const TABLE_METRICS: &[(&str, &[&str])] = &[
    (
        "fig08",
        &[
            "sim_time_ms",
            "sim_t_shared_ms",
            "sim_conflict_cycles",
            "sim_occupancy_first",
        ],
    ),
    (
        "ladder",
        &[
            "sim_time_ms",
            "sim_shared_bytes",
            "sim_conflict_cycles",
            "sim_launches",
        ],
    ),
    ("fig12a_regime", &["sim_time_ms", "sim_vs_uniform"]),
    ("fig15", &["sim_time_ms", "host_wall_ms"]),
    ("fig16", &["sim_time_ms", "sim_group_ms", "sim_topk_ms"]),
    ("fig17", &["sim_time_ms", "sim_model_ms"]),
    (
        "hybrid",
        &[
            "sim_time_ms",
            "sim_gpu_fraction",
            "sim_gpu_ms",
            "host_cpu_ms",
            "host_combined_ms",
        ],
    ),
    ("device_sweep", &["sim_time_ms", "sim_pick_over_best"]),
    ("planner", &["sim_time_ms", "sim_pick_over_best"]),
    (
        "serve",
        &[
            "sim_qps",
            "sim_speedup",
            "sim_p50_ms",
            "sim_p95_ms",
            "sim_p99_ms",
        ],
    ),
    ("cpu", &["host_wall_ms"]),
];

impl BenchReport {
    /// A report of `kind` at `2^log2n`, stamped with the current commit.
    pub fn new(kind: &str, log2n: u32, profile: &str, experiments: Vec<Experiment>) -> Self {
        BenchReport {
            kind: kind.to_string(),
            commit: current_commit(),
            scale: Scale {
                log2n,
                profile: profile.to_string(),
            },
            experiments,
        }
    }

    /// Renders the report as markdown tables, one per (figure, series).
    ///
    /// The cell `<figure>/<series>/<column>/<row>` fills row `<row>`
    /// under column `<column>` of table `<figure>/<series>`; shorter ids
    /// drop the series, then the column. A table shows its figure's
    /// metrics (`TABLE_METRICS`; `sim_time_ms` by default), one column per
    /// (column, metric) pair that some row carries, labelled by whichever
    /// of the two varies. Rows and columns keep first-seen order; a cell
    /// that did not run shows `—`.
    pub fn render_tables(&self) -> String {
        type Cell<'a> = (&'a str, &'a str, &'a BTreeMap<String, f64>);
        let mut tables: Vec<(String, Vec<Cell>)> = Vec::new();
        for e in &self.experiments {
            let segs: Vec<&str> = e.id.split('/').collect();
            let row = segs[segs.len() - 1];
            let col = if segs.len() > 2 {
                segs[segs.len() - 2]
            } else {
                ""
            };
            let name = segs[..segs.len().saturating_sub(2).max(1)].join("/");
            match tables.iter_mut().find(|(n, _)| *n == name) {
                Some((_, cells)) => cells.push((col, row, &e.metrics)),
                None => tables.push((name, vec![(col, row, &e.metrics)])),
            }
        }
        let mut out = String::new();
        for (name, cells) in &tables {
            let figure = name.split('/').next().unwrap_or_default();
            let metrics = TABLE_METRICS
                .iter()
                .find(|(f, _)| *f == figure)
                .map_or(&["sim_time_ms"][..], |(_, m)| m);
            let mut rows: Vec<&str> = Vec::new();
            let mut columns: Vec<(&str, &str)> = Vec::new();
            for &(col, row, m) in cells {
                if !rows.contains(&row) {
                    rows.push(row);
                }
                for &metric in metrics {
                    if m.contains_key(metric) && !columns.contains(&(col, metric)) {
                        columns.push((col, metric));
                    }
                }
            }
            let value = |col: &str, row: &str, metric: &str| {
                cells
                    .iter()
                    .find(|(c, r, _)| *c == col && *r == row)
                    .and_then(|(_, _, m)| m.get(metric).copied())
            };
            let Some(&(col0, metric0)) = columns.first() else {
                continue;
            };
            let by_col = columns.iter().any(|c| c.0 != col0);
            let by_metric = columns.iter().any(|c| c.1 != metric0);
            out.push_str(&format!("| {name} |"));
            for &(col, metric) in &columns {
                let label = match (by_col, by_metric) {
                    _ if col.is_empty() => metric.to_string(),
                    (true, true) => format!("{col} {metric}"),
                    (false, true) => metric.to_string(),
                    _ => col.to_string(),
                };
                out.push_str(&format!(" {label} |"));
            }
            out.push_str(&format!("\n|{}\n", "---|".repeat(columns.len() + 1)));
            for &row in &rows {
                if columns.iter().all(|&(c, m)| value(c, row, m).is_none()) {
                    continue;
                }
                out.push_str(&format!("| {row} |"));
                for &(col, metric) in &columns {
                    // `+ 0.0` prints a negative zero as 0
                    let cell = match value(col, row, metric).map(|v| v + 0.0) {
                        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
                        Some(v) => format!("{v:.3}"),
                        None => "—".to_string(),
                    };
                    out.push_str(&format!(" {cell} |"));
                }
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }

    /// The metric map of the experiment with this id.
    pub fn experiment(&self, id: &str) -> Option<&Experiment> {
        self.experiments.iter().find(|e| e.id == id)
    }

    /// One metric of one experiment.
    pub fn metric(&self, id: &str, name: &str) -> Option<f64> {
        self.experiment(id)?.metrics.get(name).copied()
    }

    /// Renders the report as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("schema_version".to_string(), Json::Num(SCHEMA_VERSION));
        root.insert("kind".to_string(), Json::Str(self.kind.clone()));
        root.insert("commit".to_string(), Json::Str(self.commit.clone()));
        let mut scale = BTreeMap::new();
        scale.insert("log2n".to_string(), Json::Num(self.scale.log2n as f64));
        scale.insert("profile".to_string(), Json::Str(self.scale.profile.clone()));
        root.insert("scale".to_string(), Json::Obj(scale));
        root.insert(
            "experiments".to_string(),
            Json::Arr(
                self.experiments
                    .iter()
                    .map(|e| {
                        let mut obj = BTreeMap::new();
                        obj.insert("id".to_string(), Json::Str(e.id.clone()));
                        obj.insert(
                            "metrics".to_string(),
                            Json::Obj(
                                e.metrics
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                    .collect(),
                            ),
                        );
                        Json::Obj(obj)
                    })
                    .collect(),
            ),
        );
        Json::Obj(root).render_pretty()
    }

    /// Parses and validates a report document.
    pub fn from_json(text: &str) -> Result<Self, ReportError> {
        let doc = json::parse(text).map_err(ReportError::Json)?;
        let schema = |m: String| ReportError::Schema(m);
        let version = doc
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or_else(|| schema("missing numeric 'schema_version'".into()))?;
        if version != SCHEMA_VERSION {
            return Err(schema(format!(
                "schema_version {version} (this tool reads {SCHEMA_VERSION})"
            )));
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| schema("missing string 'kind'".into()))?
            .to_string();
        if kind.is_empty() {
            return Err(schema("'kind' must be nonempty".into()));
        }
        let commit = doc
            .get("commit")
            .and_then(Json::as_str)
            .ok_or_else(|| schema("missing string 'commit'".into()))?
            .to_string();
        let scale_obj = doc
            .get("scale")
            .ok_or_else(|| schema("missing 'scale' object".into()))?;
        let log2n = scale_obj
            .get("log2n")
            .and_then(Json::as_num)
            .filter(|n| *n >= 1.0 && *n <= 40.0 && n.fract() == 0.0)
            .ok_or_else(|| schema("'scale.log2n' must be an integer in 1..=40".into()))?
            as u32;
        let profile = scale_obj
            .get("profile")
            .and_then(Json::as_str)
            .ok_or_else(|| schema("missing string 'scale.profile'".into()))?
            .to_string();
        let exps = doc
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema("missing 'experiments' array".into()))?;
        let mut experiments = Vec::with_capacity(exps.len());
        let mut seen = std::collections::BTreeSet::new();
        for (i, e) in exps.iter().enumerate() {
            let id = e
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| schema(format!("experiment #{i}: missing string 'id'")))?
                .to_string();
            if !seen.insert(id.clone()) {
                return Err(schema(format!("duplicate experiment id '{id}'")));
            }
            let metrics_obj = e
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| schema(format!("experiment '{id}': missing 'metrics' object")))?;
            let mut metrics = BTreeMap::new();
            for (name, val) in metrics_obj {
                if !name.starts_with("sim_") && !name.starts_with("host_") {
                    return Err(schema(format!(
                        "experiment '{id}': metric '{name}' must be prefixed sim_ or host_"
                    )));
                }
                let v = val.as_num().filter(|v| v.is_finite()).ok_or_else(|| {
                    schema(format!("experiment '{id}': metric '{name}' must be finite"))
                })?;
                metrics.insert(name.clone(), v);
            }
            if metrics.is_empty() {
                return Err(schema(format!("experiment '{id}': no metrics")));
            }
            experiments.push(Experiment { id, metrics });
        }
        Ok(BenchReport {
            kind,
            commit,
            scale: Scale { log2n, profile },
            experiments,
        })
    }
}

/// The commit hash to stamp reports with: `GITHUB_SHA` in CI, otherwise
/// `git rev-parse HEAD`, otherwise `"unknown"`. Informational only —
/// `bench-diff` never compares it.
pub fn current_commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            kind: "topk".to_string(),
            commit: "deadbeef".to_string(),
            scale: Scale::new(16),
            experiments: vec![Experiment {
                id: "vary_k/uniform/bitonic/k32".to_string(),
                metrics: [
                    ("sim_time_ms".to_string(), 0.125),
                    ("host_wall_ms".to_string(), 42.0),
                ]
                .into_iter()
                .collect(),
            }],
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = sample();
        let text = r.render();
        let back = BenchReport::from_json(&text).expect("valid");
        assert_eq!(back, r);
        assert_eq!(
            back.metric("vary_k/uniform/bitonic/k32", "sim_time_ms"),
            Some(0.125)
        );
    }

    #[test]
    fn tables_pivot_ids_into_rows_and_columns() {
        let cell = |id: &str, metrics: &[(&str, f64)]| Experiment::new(id, metrics);
        let r = BenchReport {
            experiments: vec![
                cell("fig/s/a/r1", &[("sim_time_ms", 1.0), ("host_wall_ms", 9.0)]),
                cell("fig/s/b/r1", &[("sim_time_ms", 0.5)]),
                cell("fig/s/a/r2", &[("sim_time_ms", 0.25)]),
                cell("fig/s/b/r2", &[("host_wall_ms", 3.0)]),
            ],
            ..sample()
        };
        assert_eq!(
            r.render_tables(),
            "| fig/s | a | b |\n|---|---|---|\n| r1 | 1 | 0.500 |\n| r2 | 0.250 | — |\n\n"
        );
    }

    #[test]
    fn profile_names() {
        assert_eq!(Scale::new(16).profile, "small");
        assert_eq!(Scale::new(14).profile, "small");
        assert_eq!(Scale::new(22).profile, "full");
        assert_eq!(Scale::new(29).profile, "full");
        assert_eq!(Scale::new(18).profile, "log2n18");
    }

    #[test]
    fn schema_violations_are_rejected() {
        let good = sample().render();
        // wrong version
        let bad = good.replace("\"schema_version\": 1", "\"schema_version\": 2");
        assert!(matches!(
            BenchReport::from_json(&bad),
            Err(ReportError::Schema(_))
        ));
        // unprefixed metric name
        let bad = good.replace("sim_time_ms", "time_ms");
        assert!(matches!(
            BenchReport::from_json(&bad),
            Err(ReportError::Schema(_))
        ));
        // not JSON at all
        assert!(matches!(
            BenchReport::from_json("not json"),
            Err(ReportError::Json(_))
        ));
        // duplicate experiment ids
        let mut dup = sample();
        dup.experiments.push(dup.experiments[0].clone());
        assert!(matches!(
            BenchReport::from_json(&dup.render()),
            Err(ReportError::Schema(m)) if m.contains("duplicate")
        ));
    }
}
