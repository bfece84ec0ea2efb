//! The metric catalogue and the result line.
//!
//! Every workload prints every end-to-end metric of [`END_TO_END`] from an
//! untraced run, and every per-layer metric of [`PER_LAYER`] from a traced
//! one. A per-layer metric of a layer the workload does not drive reads 0.
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a unit test keeps the two in step.

use std::fmt::Write;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_us", "us"),
    ("serve.exec_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.wait_ms", "ms"),
    ("serve.ops_ratio", "ratio"),
    ("serve.exit0_share", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("quant.batch_ms", "ms"),
    ("quant.gops", "Gop/s"),
    ("quant.cpu_util", "cores"),
    ("quant.calibrate_ms", "ms"),
    ("quant.compile_ms", "ms"),
    ("core.phase1_s", "s"),
    ("core.phase2_s", "s"),
    ("core.phase3_s", "s"),
    ("core.phase4_s", "s"),
    ("core.cpu_util", "cores"),
    ("nn.train_s", "s"),
    ("bayes.mc_eval_s", "s"),
    ("trace.overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or returned a wrong result.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// Measured metrics by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Host and run facts: name and JSON-rendered value.
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a fact, rendering `value` with `Display`.
    pub fn fact(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.facts.push((name, value.to_string()));
    }

    /// Records a string fact.
    pub fn fact_str(&mut self, name: &'static str, value: &str) {
        self.facts
            .push((name, format!("\"{}\"", value.replace('"', "'"))));
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    /// Every check held, no operation failed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|&(_, ok)| ok)
            && self.metrics.iter().all(|&(_, v)| v.is_finite())
    }

    /// Failed operations over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        fail_ratio(self.failed, self.attempted)
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: the catalogue `selected` (end-to-end or
    /// per-layer), each metric with its unit. A catalogue metric the run
    /// did not measure reads 0.
    pub fn result_line(&self, selected: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in selected.iter().enumerate() {
            let v = self.value(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }

    /// The facts as one JSON object line.
    pub fn facts_line(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"facts\": {{{}}}}}", body.join(", "))
    }
}

/// `failed / attempted` (0 when nothing was attempted).
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_selected_metric_with_its_unit() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.metric("p50_ms", 1.25);
        r.metric("setup_s", 0.5);
        let line = r.result_line(&END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"p90_ms\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn fail_ratio_counts_refusals_and_a_failed_check_marks_incorrect() {
        let mut r = Report {
            attempted: 8,
            failed: 2,
            ..Report::default()
        };
        assert_eq!(r.fail_ratio(), 0.25);
        assert!(!r.correct());
        r.failed = 0;
        assert!(r.correct());
        r.check("replies", false);
        assert!(!r.correct());
        assert_eq!(fail_ratio(0, 0), 0.0);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        // Every name in the file: workloads, then the metric catalogue.
        let names = json.matches("\"name\": \"").count();
        assert_eq!(
            names,
            crate::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for workload in crate::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{workload}\", \"why\"")));
        }
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} [{unit}] not in BENCHMARK.json"
            );
        }
    }
}
