//! The metric catalogue and the result a run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names and units; `BENCHMARK.json` at the repository root lists the
//! same names (a test pins the two together). A run prints a
//! human-readable header and one line per metric (value, unit, sample
//! count), then, as its last line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("quality_err", "ratio"),
    ("model_nj_per_req", "nJ"),
    ("model_area_mm2", "mm2"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.samples", "count"),
    ("net.residual_us_p50", "us"),
    ("net.codec_ns_per_req", "ns"),
    ("net.bytes_per_req", "B"),
    ("fleet.route_ns_per_req", "ns"),
    ("fleet.pool_share_max", "ratio"),
    ("engine.batch_us_per_frame", "us"),
    ("engine.dispatch_self_us_per_frame", "us"),
    ("engine.queue_wait_us_p50", "us"),
    ("engine.chips_per_frame", "count"),
    ("chip.infer_us_p50", "us"),
    ("chip.infer_us_p99", "us"),
    ("chip.busy_frac", "ratio"),
    ("interface.codec_ns_per_req", "ns"),
    ("mei.forward_us", "us"),
    ("crossbar.conv_us", "us"),
    ("crossbar.matvec_ns", "ns"),
    ("crossbar.matvecs_per_req", "count"),
    ("neural.epoch_ms", "ms"),
    ("mei.saab_round_ms", "ms"),
    ("crossbar.write_us_per_trial", "us"),
    ("rram.writes_per_trial", "count"),
    ("crossbar.cold_read_us", "us"),
    ("crossbar.warm_read_us", "us"),
    ("pool.parallel_eff", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
];

/// How far the blocking-path components of a traced serving run may
/// stray from its end-to-end mean (`|trace.accounted_frac − 1|`) before
/// the run says so.
pub const ACCOUNTING_TOLERANCE: f64 = 0.15;

/// The catalogue a run reports under `trace`.
#[must_use]
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One reported figure.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    samples: usize,
}

/// A run's result: metric values, attempted/failed counts and the
/// output checks that failed.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    entries: BTreeMap<&'static str, Entry>,
    notes: BTreeMap<&'static str, (f64, &'static str, usize)>,
    /// Operations attempted (requests, or Monte-Carlo trials).
    pub attempted: u64,
    /// Operations that failed, were shed, errored or returned wrong bits.
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// An empty report for the end-to-end (`trace = false`) or
    /// per-layer (`trace = true`) catalogue.
    #[must_use]
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            entries: BTreeMap::new(),
            notes: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Record catalogue metric `name` from `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in this run's catalogue.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            catalogue(self.trace).iter().any(|(n, _)| *n == name),
            "metric '{name}' is not in the {} catalogue",
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.entries.insert(name, Entry { value, samples });
    }

    /// Record a figure that is printed for the reader but is not part of
    /// the JSON result (for instance `fail_frac`, which the JSON carries
    /// as `failed / attempted`).
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.notes.insert(name, (value, unit, samples));
    }

    /// Record a failed output check; the run will report
    /// `"correct": false` and exit non-zero.
    pub fn fail(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines and the final JSON line.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue metric was never set: a run that forgets a
    /// metric is a bug in the benchmark, not a result.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for error in &self.errors {
            let _ = writeln!(out, "CHECK FAILED: {error}");
        }
        let fail_frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "{:<36} {:>16} {:<6} n={}",
            "fail_frac", fail_frac, "ratio", self.attempted
        );
        for (name, (value, unit, n)) in &self.notes {
            let _ = writeln!(out, "{name:<36} {value:>16.6} {unit:<6} n={n}");
        }
        let mut json = String::new();
        for (i, (name, unit)) in catalogue(self.trace).iter().enumerate() {
            let entry = self
                .entries
                .get(name)
                .unwrap_or_else(|| panic!("metric '{name}' was never measured"));
            let value = if entry.value.is_finite() {
                entry.value
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<36} {value:>16.6} {unit:<6} n={}",
                entry.samples
            );
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-wide CPU ticks so far, `(steal, total)`, from the first line of
/// `/proc/stat`; `(0, 0)` where unavailable.
#[must_use]
pub fn host_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let ticks: Vec<u64> = stat
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .take(8)
                .map(|t| t.parse().ok())
                .collect::<Option<_>>()?;
            Some((*ticks.get(7)?, ticks.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Share of the host's CPU time the hypervisor gave to other guests
/// (steal) since `start`, a [`host_ticks`] reading.
#[must_use]
pub fn steal_since(start: (u64, u64)) -> f64 {
    let (steal, total) = host_ticks();
    steal.saturating_sub(start.0) as f64 / total.saturating_sub(start.1).max(1) as f64
}
