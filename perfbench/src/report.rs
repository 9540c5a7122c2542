//! Metric names, units and the result line.
//!
//! The names below are fixed: `BENCHMARK.json` lists the
//! same names, and later changes cite them. An untraced run reports every
//! end-to-end metric; a traced run reports every per-layer metric, with 0
//! for a layer the workload does not exercise.

use std::collections::BTreeMap;

use crate::stats::{Outcome, Timings};

/// End-to-end metrics: name and unit. Tail latencies and the Q4 median are
/// reported with the per-layer metrics: on a shared 2-vCPU host their
/// run-to-run spread is wider than any bound a regression gate can use.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("get_p50_us", "us"),
    ("q5_p50_ms", "ms"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sharding.write_self_us", "us"),
    ("sharding.sub_batches_per_batch", "count"),
    ("sharding.cross_shard_frac", "ratio"),
    ("sharding.get_self_us", "us"),
    ("sharding.scan_self_us", "us"),
    ("sharding.fanout_scans_per_scan", "ratio"),
    ("replication.lag_seqs_p99", "seqs"),
    ("replication.catchup_ms", "ms"),
    ("engine.commit_p50_us", "us"),
    ("engine.commit_p99_us", "us"),
    ("wal.records_per_sync", "count"),
    ("wal.coalesced_ack_frac", "ratio"),
    ("wal.rotations", "count"),
    ("stall.wait_ms", "ms"),
    ("stall.events", "count"),
    ("slowdown.events", "count"),
    ("maintenance.flushes", "count"),
    ("maintenance.compactions", "count"),
    ("maintenance.compaction_bytes_per_user_byte", "ratio"),
    ("maintenance.drain_s", "s"),
    ("engine.get_p50_us", "us"),
    ("engine.scan_p50_us", "us"),
    ("read_amp", "runs"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions_per_op", "ratio"),
    ("io.blocks_read_per_get", "blocks"),
    ("io.blocks_read_per_scan_row", "blocks"),
    ("core.groups_fetched_per_read", "groups"),
    ("core.levels_touched_per_read", "levels"),
    ("core.scan_entries_per_row", "ratio"),
    ("core.scan_rows_per_s", "1/s"),
    ("telemetry.slow_ops", "count"),
    ("telemetry.sampled_traces", "count"),
    ("trace_overhead_pct", "%"),
    ("write_amp_second_half", "ratio"),
    ("failed_frac", "ratio"),
    ("write_p99_us", "us"),
    ("get_p99_us", "us"),
    ("q4_p50_ms", "ms"),
    ("q4_p90_ms", "ms"),
    ("q5_p90_ms", "ms"),
    ("short_scan_p50_us", "us"),
    ("short_scan_p99_us", "us"),
    ("q2a_p50_us", "us"),
];

/// Latency samples of every operation class a workload times.
#[derive(Debug, Default, Clone)]
pub struct ClassTimings {
    /// Inserts/updates (`htap_dopt`) or batch commits (key-value workloads).
    pub write: Timings,
    /// Point reads.
    pub get: Timings,
    /// 50-key range scans.
    pub short_scan: Timings,
    /// Range scans over 5% of the loaded keys.
    pub q4: Timings,
    /// Range scans over 50% of the loaded keys.
    pub q5: Timings,
}

impl ClassTimings {
    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: &ClassTimings) {
        self.write.merge(&other.write);
        self.get.merge(&other.get);
        self.short_scan.merge(&other.short_scan);
        self.q4.merge(&other.q4);
        self.q5.merge(&other.q5);
    }

    /// Attempted and failed operations over every class.
    pub fn outcome(&self) -> Outcome {
        let mut outcome = Outcome::default();
        for t in [&self.write, &self.get, &self.short_scan, &self.q4, &self.q5] {
            outcome.add(t);
        }
        outcome
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// False as soon as any output check failed.
    pub correct: bool,
    /// First failed output check, for the log.
    pub first_error: Option<String>,
    /// Attempted/failed operations.
    pub outcome: Outcome,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed output check.
    pub fn wrong(&mut self, what: String) {
        if self.first_error.is_none() {
            self.first_error = Some(what);
        }
        self.correct = false;
    }

    /// Sets the latency metrics of every class (median and tail), noting
    /// the sample count and the percentile each tail stands for.
    pub fn set_timings(&mut self, t: &ClassTimings) {
        let classes: [(&Timings, &'static str, &'static str, f64, f64); 5] = [
            (&t.write, "write_p50_us", "write_p99_us", 0.99, 1e3),
            (&t.get, "get_p50_us", "get_p99_us", 0.99, 1e3),
            (
                &t.short_scan,
                "short_scan_p50_us",
                "short_scan_p99_us",
                0.99,
                1e3,
            ),
            (&t.q4, "q4_p50_ms", "q4_p90_ms", 0.9, 1e6),
            (&t.q5, "q5_p50_ms", "q5_p90_ms", 0.9, 1e6),
        ];
        for (timings, median_name, tail_name, cap, scale) in classes {
            let summary = timings.summary();
            if let (Some(median), Some((q, tail))) = (summary.median(), summary.tail(cap)) {
                self.set(median_name, median as f64 / scale);
                self.set(tail_name, tail as f64 / scale);
                self.notes.push(format!(
                    "{median_name:<18} {:>12.3}   {tail_name:<18} {:>12.3} (p{:.1}; {} samples, {} failed)",
                    median as f64 / scale,
                    tail as f64 / scale,
                    q * 100.0,
                    summary.count(),
                    timings.failed()
                ));
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// `catalogue`, each with its unit. Metrics the run did not set are
    /// listed in the error instead.
    pub fn result_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut missing = Vec::new();
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            match self.values.get(name) {
                Some(v) if v.is_finite() => {
                    metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
                }
                _ => missing.push(*name),
            }
        }
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.outcome.attempted.max(1),
            self.outcome.failed,
            metrics.join(",")
        ))
    }

    /// The per-layer table of a traced run.
    pub fn layer_table(&self) -> String {
        let mut out = String::from("per-layer metrics (traced run):\n");
        for (name, unit) in PER_LAYER {
            let value = self.values.get(name).copied().unwrap_or(f64::NAN);
            out.push_str(&format!("  {name:<46} {value:>14.4} {unit}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut report = Report::new();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        report.outcome.attempted = 10;
        let line = report.result_json(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(line.contains("\"q5_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}"));
        report.values.remove("setup_s");
        assert!(report
            .result_json(&END_TO_END)
            .unwrap_err()
            .contains("setup_s"));
    }

    /// The `(name, unit)` pairs of the `key` array of `BENCHMARK.json`.
    fn listed(benchmark: &str, key: &str) -> Vec<(String, String)> {
        let start = benchmark
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} not in BENCHMARK.json"));
        let section = &benchmark[start..];
        let section = &section[..section.find(']').expect("array end")];
        let field = |entry: &str, name: &str| {
            let at = entry.find(&format!("\"{name}\"")).expect(name) + name.len() + 2;
            let value = &entry[at..];
            let value = &value[value.find('"').expect("value") + 1..];
            value[..value.find('"').expect("value end")].to_string()
        };
        section
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let benchmark = include_str!("../../BENCHMARK.json");
        let own = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
            catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(benchmark, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(benchmark, "per_layer"), own(&PER_LAYER));
        // workloads.json defines exactly the end-to-end metrics.
        let workloads = include_str!("../workloads.json");
        let defined = &workloads[workloads.find("\"end_to_end\": {").unwrap() + 15..];
        let defined = &defined[..defined.find('}').unwrap()];
        for (name, _) in END_TO_END {
            assert!(
                defined.contains(&format!("\"{name}\": ")),
                "{name} undefined"
            );
        }
        assert_eq!(defined.matches("\": ").count(), END_TO_END.len());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
