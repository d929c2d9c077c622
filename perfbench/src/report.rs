//! The result line the benchmark prints last.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit string (`ms`, `s`, `1/s`, `MiB`, `count`, ...).
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one benchmark invocation prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every checked answer matched its host reference.
    pub correct: bool,
    /// Operations attempted (reads, appends, view refreshes).
    pub attempted: u64,
    /// Operations that failed: shed, timed out, typed error, or wrong.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
}

impl Outcome {
    /// The single-line JSON result. Non-finite values cannot be encoded
    /// and mark the run incorrect.
    pub fn json_line(&self) -> String {
        let mut correct = self.correct;
        let mut body = String::new();
        for (i, m) in self.metrics.0.iter().enumerate() {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.203456789012, "ms");
        m.push("setup_s", 2.0, "s");
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m,
        };
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.203456789012, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut m = Metrics::default();
        m.push("x", f64::NAN, "ms");
        let o = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: m,
        };
        assert!(o.json_line().starts_with("{\"correct\": false"));
    }
}
