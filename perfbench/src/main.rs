//! One benchmark for the whole LASER stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <htap_dopt|kv_ingest_quorum|kv_read_cached> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up three times (reporting the median set-up
//! time), then runs a closed-loop mix whose work is fixed per second of
//! `--seconds`, then a fixed number of the operations the mix lacks. It
//! checks every result against a model and prints the metrics as the last
//! line of standard output:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, taken from the benchmark's own spans around
//! each call into a layer and from the layers' public counters, and the
//! spans are written as Chrome-trace JSON under `perfbench/out/`.
//! A wrong result prints `"correct":false` and exits with code 1.
//! `perfbench/workloads.json` describes each workload and metric.
//!
//! `BENCHMARK.json` lists only the key-value workloads: `htap_dopt` finds
//! `LaserDb` scans that return rows missing column groups, so it fails its
//! output checks on every seed until that engine defect is fixed.

mod htap;
mod kv;
mod report;
mod spans;
mod stats;
mod util;

use std::time::Instant;

use report::{Report, END_TO_END, PER_LAYER};
use spans::Recorder;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where traced runs write their Chrome-trace files.
const TRACE_DIR: &str = "perfbench/out";

/// The command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
}

impl RunConfig {
    fn parse(args: &[String]) -> Result<RunConfig, String> {
        let mut cfg = RunConfig {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => cfg.workload = value.clone(),
                "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
            return Err(format!(
                "--seconds must be in (0, 120], got {}",
                cfg.seconds
            ));
        }
        Ok(cfg)
    }

    /// Runs `setup` [`SETUPS`] times, dropping each result before the next
    /// so only one copy is ever resident, records the median as `setup_s`
    /// and returns the last set-up.
    pub fn repeated_setup<T, E: std::fmt::Display>(
        &self,
        report: &mut Report,
        setup: impl Fn() -> Result<T, E>,
    ) -> Result<T, String> {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let start = Instant::now();
            last = Some(setup().map_err(|e| format!("set-up failed: {e}"))?);
            times.push(start.elapsed().as_secs_f64());
        }
        report.set("setup_s", stats::median_f64(&times));
        report.notes.push(format!("set-up times (s): {times:.3?}"));
        Ok(last.expect("at least one set-up"))
    }

    /// Writes the traced run's spans as Chrome-trace JSON.
    pub fn write_trace(&self, report: &mut Report, rec: &Recorder) {
        let path = format!("{TRACE_DIR}/{}-seed{}.trace.json", self.workload, self.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|_| std::fs::write(&path, rec.chrome_trace_json()));
        report.notes.push(match written {
            Ok(()) => format!("spans written to {path}"),
            Err(e) => format!("could not write {path}: {e}"),
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match RunConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    let outcome = match cfg.workload.as_str() {
        "htap_dopt" => htap::run(&cfg, &mut report),
        "kv_ingest_quorum" => kv::run_ingest(&cfg, &mut report),
        "kv_read_cached" => kv::run_cached(&cfg, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    report.set("peak_rss_mb", util::peak_rss_mb());
    if let Some(first) = &report.first_error {
        println!("output check FAILED: {first}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    let catalogue: &[(&str, &str)] = if cfg.trace {
        for (name, _) in PER_LAYER {
            report.values.entry(name).or_insert(0.0);
        }
        println!("{}", report.layer_table());
        &PER_LAYER
    } else {
        &END_TO_END
    };
    match report.result_json(catalogue) {
        Ok(line) => {
            println!("{line}");
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let cfg = RunConfig::parse(&args(
            "--workload htap_dopt --seed 42 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(cfg.workload, "htap_dopt");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.seconds, 8.0);
        assert!(cfg.trace);
        assert!(RunConfig::parse(&args("--trace 2")).is_err());
        assert!(RunConfig::parse(&args("--seed x")).is_err());
        assert!(RunConfig::parse(&args("--seconds")).is_err());
        assert!(RunConfig::parse(&args("--bogus 1")).is_err());
    }
}
