//! The metric registry (the names `BENCHMARK.json` lists) and the result
//! a workload run reports.

use std::collections::BTreeMap;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["trm_table1", "pvt_sweep", "sweep_workers", "serve_table1"];

/// End-to-end metrics, printed by every untraced run of every workload.
/// What "item" means per workload is documented in the README.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sims_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
];

/// The decks whose simulator stages `--trace` times one by one.
pub const SPICE_DECKS: [&str; 8] = [
    "opamp45",
    "opamp22",
    "ldo",
    "folded_cascode",
    "bandgap",
    "comparator",
    "two_stage_ldo",
    "ladder400",
];

const SPICE_STAGES: [(&str, &str); 4] = [
    ("compile_us", "us"),
    ("op_us", "us"),
    ("newton_iters", "count"),
    ("ac_us", "us"),
];

const LAYER_FIXED: [(&str, &str); 44] = [
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.cpu_util", "ratio"),
    ("bench.items", "count"),
    ("env.eval_calls", "count"),
    ("env.solve_calls", "count"),
    ("env.memo_hit_ratio", "ratio"),
    ("env.solve_us_p50", "us"),
    ("env.solve_us_p99", "us"),
    ("env.eval_busy_ratio", "ratio"),
    ("env.eval_failures", "count"),
    ("env.batch_calls", "count"),
    ("env.batch_idle_ratio", "ratio"),
    ("env.batch_speedup_vs_serial", "ratio"),
    ("core.campaigns", "count"),
    ("core.rounds_per_campaign", "count"),
    ("core.restarts_per_campaign", "count"),
    ("core.agent_self_ratio", "ratio"),
    ("core.agent_ms_per_round", "ms"),
    ("core.fit_call_us", "us"),
    ("core.plan_call_us", "us"),
    ("core.accounted_ratio", "ratio"),
    ("core.sims_to_feasible_mean", "count"),
    ("core.success_ratio", "ratio"),
    ("linalg.lu12_factor_solve_us", "us"),
    ("linalg.dense_op_us_per_iter", "us"),
    ("linalg.sparse_op_us_per_iter", "us"),
    ("worker.dispatch_calls", "count"),
    ("worker.roundtrip_us_p50", "us"),
    ("worker.roundtrip_us_p99", "us"),
    ("worker.ipc_overhead_us", "us"),
    ("worker.restarts", "count"),
    ("worker.children_cpu_s", "s"),
    ("serve.campaigns_per_s", "1/s"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p95", "ms"),
    ("serve.polls_per_campaign", "count"),
    ("serve.http_post_us_mean", "us"),
    ("serve.http_get_us_mean", "us"),
    ("serve.eval_sims", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.daemon_cpu_ms_per_campaign", "ms"),
    ("serve.write_syscalls_per_campaign", "count"),
    ("serve.disk_write_kb_per_campaign", "kB"),
    ("serve.journal_kb_per_campaign", "kB"),
];

/// Every per-layer metric `--trace` prints, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for deck in SPICE_DECKS {
        for (stage, unit) in SPICE_STAGES {
            out.push((format!("spice.{deck}.{stage}"), unit));
        }
    }
    out
}

/// The workload that drives the layer a per-layer metric measures; a
/// traced run of any other workload takes the metric from a short traced
/// pass of this one. `None`: measured in every traced run.
pub fn owner(metric: &str) -> Option<&'static str> {
    let (layer, _) = metric.split_once('.').unwrap_or((metric, ""));
    match layer {
        "core" => Some("trm_table1"),
        "worker" => Some("sweep_workers"),
        "serve" => Some("serve_table1"),
        _ if metric.starts_with("env.batch_") => Some("pvt_sweep"),
        _ => None,
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Items attempted (campaigns, batches, arrivals).
    pub attempted: u64,
    /// Items that failed, were shed, timed out, or produced output that
    /// did not check out.
    pub failed: u64,
    /// Digest of the golden-checked output prefix, when one was computed.
    pub digest: Option<u64>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed check with its explanation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Formats a finite metric value with every digit it has.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of a run: one JSON object with `correct`, `attempted`,
/// `failed` and the named metrics with their units.
pub fn result_json(report: &Report, names: &[(String, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(count <= 5 + 128);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
